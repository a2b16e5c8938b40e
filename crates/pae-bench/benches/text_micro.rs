//! Criterion microbenchmarks for the lexicon/tokenizer hot paths.
//!
//! Two groups feed the repo-root `BENCH_pipeline.json` ledger:
//!
//! * `tokenizer_micro` — greedy longest-match scanning over
//!   agglutinative text with the single automaton descent of
//!   [`pae_text::Lexicon::longest_match_at`], plus the full
//!   [`pae_text::LatticeTokenizer`] on the same corpus.
//! * `lexicon_micro` — point lookups (`tag_of`) through both
//!   representations and the thaw-then-compile cost of rebuilding the
//!   automaton from scratch.
//!
//! Like `crf_micro`, a custom `main` merges full-mode results into
//! `BENCH_pipeline.json`; smoke mode (no `--bench`) persists nothing.

use criterion::{black_box, criterion_group, Criterion};

use pae_synth::{CategoryKind, DatasetSpec};
use pae_text::{LatticeTokenizer, Lexicon, PosTag, Tokenizer};

/// Deterministic xorshift; the benches must not depend on `rand`
/// seeding details or thread scheduling.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The synthesizer's real segmentation dictionary: the same lexicon
/// the pipeline tokenizes with, not a toy word list.
fn dataset_lexicon() -> Lexicon {
    DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
        .products(80)
        .generate()
        .lexicon
}

/// Unsegmented text shaped like the corpus: runs of dictionary words
/// glued together, with digit/symbol spans and occasional unknown
/// alpha runs mixed in (the cases the tokenizer's scan loop handles).
fn synth_texts(lexicon: &Lexicon, n_texts: usize, words_per_text: usize) -> Vec<String> {
    let mut entries: Vec<String> = lexicon.iter().map(|(w, _)| w).collect();
    entries.sort_unstable();
    let mut rng = Rng(0x5eed_1e81);
    (0..n_texts)
        .map(|_| {
            let mut text = String::new();
            for k in 0..words_per_text {
                match k % 9 {
                    3 => text.push_str(&format!("{}", 1 + rng.below(4000))),
                    5 => text.push(':'),
                    7 => text.push_str("zq"), // unknown alpha run
                    _ => text.push_str(&entries[rng.below(entries.len())]),
                }
            }
            text
        })
        .collect()
}

/// Sums match lengths over a whole-corpus scan: every char position of
/// every text asks "longest entry starting here?" — the tokenizer's
/// inner question, isolated from lattice bookkeeping.
fn bench_longest_match(c: &mut Criterion) {
    let lexicon = dataset_lexicon();
    let texts = synth_texts(&lexicon, 48, 40);
    let char_maps: Vec<Vec<(usize, char)>> =
        texts.iter().map(|t| t.char_indices().collect()).collect();
    // Frozen repr: matching goes straight to the automaton (compiled
    // once here, outside the timed region, as the serving path does).
    let frozen = Lexicon::from_fst(lexicon.compiled().clone());

    let mut group = c.benchmark_group("tokenizer_micro");
    group.sample_size(20);
    group.bench_function("longest_match_fst", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (text, chars) in texts.iter().zip(&char_maps) {
                for &(byte_pos, _) in chars.iter() {
                    if let Some((len, _tag)) = frozen.longest_match_at(black_box(text), byte_pos) {
                        total += len;
                    }
                }
            }
            total
        })
    });
    group.bench_function("lattice_tokenize", |b| {
        let tokenizer = LatticeTokenizer::new(frozen.clone());
        b.iter(|| {
            let mut tokens = 0usize;
            for text in &texts {
                tokens += tokenizer.tokenize(black_box(text)).len();
            }
            tokens
        })
    });
    group.finish();
}

/// Point lookups and automaton rebuild cost for the two lexicon
/// representations.
fn bench_lexicon(c: &mut Criterion) {
    let building = dataset_lexicon();
    let frozen = Lexicon::from_fst(building.compiled().clone());
    let entries: Vec<(String, PosTag)> = {
        let mut v: Vec<(String, PosTag)> = building.iter().collect();
        v.sort_unstable();
        v
    };
    // Probe set: real entries interleaved with misses (prefix-extended
    // words that walk deep into the trie before failing).
    let mut rng = Rng(0xc0ffee);
    let probes: Vec<String> = (0..512)
        .map(|k| {
            let w = &entries[rng.below(entries.len())].0;
            if k % 3 == 0 {
                format!("{w}zz")
            } else {
                w.clone()
            }
        })
        .collect();

    let mut group = c.benchmark_group("lexicon_micro");
    group.sample_size(20);
    group.bench_function("tag_of_hashmap", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes {
                hits += usize::from(building.tag_of(black_box(p)).is_some());
            }
            hits
        })
    });
    group.bench_function("tag_of_fst", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes {
                hits += usize::from(frozen.tag_of(black_box(p)).is_some());
            }
            hits
        })
    });
    group.bench_function("compile_from_entries", |b| {
        b.iter(|| {
            let lex = Lexicon::from_entries(entries.iter().map(|(w, t)| (w.clone(), *t)));
            lex.compiled().n_keys()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_longest_match, bench_lexicon);

/// Runs the groups, then merges full-mode results into the
/// `BENCH_pipeline.json` ledger (`pae_bench::finish_benches`).
fn main() {
    benches();
    pae_bench::finish_benches();
}
