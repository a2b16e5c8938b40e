//! Criterion microbenchmarks for the CRF hot paths: the
//! sparse-gradient objective ([`pae_crf::TrainEngine::nll_and_grad`]),
//! scratch-reusing marginals ([`pae_crf::marginals_into`]), the served
//! decode with its confidence overlay
//! ([`pae_crf::CrfModel::viterbi_with_confidence`]), and string-free
//! feature extraction.
//!
//! Like the `pipeline` bench, a custom `main` merges full-mode results
//! into the repo-root `BENCH_pipeline.json`; in CI the target is
//! smoke-run (no `--bench` flag → every body runs once).

use criterion::{black_box, criterion_group, Criterion};

use pae_crf::data::FeatId;
use pae_crf::{
    marginals_into, CrfModel, ExtractScratch, FeatureExtractor, FeatureIndex, Instance,
    MargScratch, TrainEngine,
};

const N_LABELS: usize = 9;
const N_FEATURES: usize = 4000;

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

/// Synthetic instances shaped like the pipeline's training sets:
/// short sentences, ~13 active features per position.
fn synth_instances(n_seqs: usize, seed: u64) -> Vec<Instance> {
    let mut rng = Rng(seed | 1);
    (0..n_seqs)
        .map(|_| {
            let len = 4 + rng.below(10);
            let features = (0..len)
                .map(|_| {
                    (0..13)
                        .map(|_| rng.below(N_FEATURES) as FeatId)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>();
            let labels = (0..len).map(|_| rng.below(N_LABELS)).collect();
            Instance { features, labels }
        })
        .collect()
}

/// Small deterministic parameter vector (zeros would short-circuit
/// nothing, but realistic magnitudes keep exp/ln behaviour honest).
fn synth_params(n: usize) -> Vec<f64> {
    let mut rng = Rng(0x9e37_79b9);
    (0..n)
        .map(|_| ((rng.below(2001) as f64) - 1000.0) / 5000.0)
        .collect()
}

fn bench_nll_and_grad(c: &mut Criterion) {
    let instances = synth_instances(120, 7);
    let engine = TrainEngine::new(&instances, N_FEATURES, N_LABELS);
    let params = synth_params(engine.n_params());
    let mut grad = vec![0.0; engine.n_params()];

    let mut group = c.benchmark_group("crf_micro");
    group.sample_size(20);
    group.bench_function("nll_and_grad_120_seqs", |b| {
        b.iter(|| engine.nll_and_grad(black_box(&params), &mut grad))
    });
    group.finish();
}

fn bench_marginals(c: &mut Criterion) {
    let instances = synth_instances(1, 21);
    let features = &instances[0].features;
    let mut model = CrfModel::new(N_FEATURES, N_LABELS);
    let params = synth_params(model.view().params.len());
    model.params.copy_from_slice(&params);
    let mut scratch = MargScratch::default();

    let mut group = c.benchmark_group("crf_micro");
    group.sample_size(20);
    group.bench_function("marginals_one_seq", |b| {
        b.iter(|| {
            marginals_into(model.view(), black_box(features.as_slice()), &mut scratch);
            scratch.log_z
        })
    });
    group.finish();
}

/// The served decode at perfbench's shape: a 13-label model and a
/// 33-position sentence, decoded with its confidence overlay.
fn bench_viterbi_with_confidence(c: &mut Criterion) {
    const SERVED_LABELS: usize = 13;
    const SERVED_POSITIONS: usize = 33;
    let mut rng = Rng(33);
    let features: Vec<Vec<FeatId>> = (0..SERVED_POSITIONS)
        .map(|_| (0..13).map(|_| rng.below(N_FEATURES) as FeatId).collect())
        .collect();
    let mut model = CrfModel::new(N_FEATURES, SERVED_LABELS);
    let params = synth_params(model.params.len());
    model.params.copy_from_slice(&params);

    let mut group = c.benchmark_group("crf_micro");
    group.sample_size(20);
    group.bench_function("viterbi_with_confidence_one_seq", |b| {
        b.iter(|| model.viterbi_with_confidence(black_box(&features)))
    });
    group.finish();
}

fn bench_feature_extraction(c: &mut Criterion) {
    // Realistic short product sentences (the extractor only sees &str
    // slices, so synthetic vocab is fine).
    let vocab: Vec<String> = (0..300).map(|i| format!("word{i}")).collect();
    let pos = ["NN", "JJ", "CD", "SYM", "UNIT"];
    let mut rng = Rng(99);
    let sentences: Vec<(Vec<&str>, Vec<&str>)> = (0..200)
        .map(|_| {
            let len = 4 + rng.below(10);
            let words: Vec<&str> = (0..len)
                .map(|_| vocab[rng.below(vocab.len())].as_str())
                .collect();
            let tags: Vec<&str> = (0..len).map(|_| pos[rng.below(pos.len())]).collect();
            (words, tags)
        })
        .collect();
    let extractor = FeatureExtractor::default();

    let mut group = c.benchmark_group("crf_micro");
    group.sample_size(20);
    group.bench_function("extract_200_sentences", |b| {
        let mut scratch = ExtractScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            let mut index = FeatureIndex::new();
            for (i, (words, tags)) in sentences.iter().enumerate() {
                extractor.encode_train_into(words, tags, i, &mut index, &mut scratch, &mut out);
                black_box(out.len());
            }
            index.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_nll_and_grad,
    bench_marginals,
    bench_viterbi_with_confidence,
    bench_feature_extraction
);

/// Runs the groups, then merges full-mode results into the
/// `BENCH_pipeline.json` ledger (`pae_bench::finish_benches`).
fn main() {
    benches();
    pae_bench::finish_benches();
}
