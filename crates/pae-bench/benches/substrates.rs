//! Criterion microbenchmarks for the substrates: HTML parsing,
//! tokenization, PoS tagging, CRF training/decoding, word2vec, and the
//! BiLSTM forward pass.

use criterion::{criterion_group, Criterion, Throughput};

use pae_core::parse_corpus;
use pae_crf::{train, FeatureExtractor, FeatureIndex, Instance, TrainConfig};
use pae_embed::{W2vConfig, W2vModel};
use pae_neural::{BiLstmTagger, TaggerConfig};
use pae_synth::{CategoryKind, DatasetSpec};
use pae_text::{LexiconPosTagger, PosTagger};

fn bench_html(c: &mut Criterion) {
    let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 7)
        .products(50)
        .generate();
    let total_bytes: usize = dataset.pages.iter().map(|p| p.html.len()).sum();
    let mut group = c.benchmark_group("html");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function("parse_50_pages", |b| {
        b.iter(|| {
            let mut nodes = 0usize;
            for page in &dataset.pages {
                nodes += pae_html::parse(&page.html).len();
            }
            nodes
        })
    });
    group.bench_function("extract_tables_50_pages", |b| {
        let forests: Vec<_> = dataset
            .pages
            .iter()
            .map(|p| pae_html::parse(&p.html))
            .collect();
        b.iter(|| {
            forests
                .iter()
                .map(|f| pae_html::extract_tables(f).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_text(c: &mut Criterion) {
    let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 7)
        .products(50)
        .generate();
    let texts: Vec<String> = dataset
        .pages
        .iter()
        .map(|p| {
            let forest = pae_html::parse(&p.html);
            pae_html::extract_text(&forest, &pae_html::TextOptions::default())
        })
        .collect();
    let tokenizer = dataset.tokenizer();
    let tagger = LexiconPosTagger::new(dataset.lexicon.clone());
    let total_bytes: usize = texts.iter().map(String::len).sum();

    let mut group = c.benchmark_group("text");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function("lattice_tokenize_50_pages", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|t| tokenizer.tokenize(t).len())
                .sum::<usize>()
        })
    });
    group.bench_function("pos_tag_50_pages", |b| {
        let tokenized: Vec<_> = texts.iter().map(|t| tokenizer.tokenize(t)).collect();
        b.iter(|| {
            tokenized
                .iter()
                .map(|toks| tagger.tag(toks).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Small synthetic CRF task shared by train/decode benches.
fn crf_instances() -> (Vec<Instance>, usize) {
    let extractor = FeatureExtractor::default();
    let mut index = FeatureIndex::new();
    let mut instances = Vec::new();
    for i in 0..120 {
        let w1 = format!("w{}", i % 17);
        let words = ["attr", ":", w1.as_str(), "unit", "rest"];
        let pos = ["NN", "SYM", "CD", "UNIT", "NN"];
        let feats = extractor.encode_train(&words, &pos, i % 5, &mut index);
        instances.push(Instance {
            features: feats,
            labels: vec![0, 0, 1, 2, 0],
        });
    }
    (instances, index.len())
}

fn bench_crf(c: &mut Criterion) {
    let (instances, n_features) = crf_instances();
    let mut group = c.benchmark_group("crf");
    group.sample_size(10);
    group.bench_function("train_120_sentences", |b| {
        b.iter(|| {
            train(
                &instances,
                n_features,
                3,
                &TrainConfig {
                    max_iters: 25,
                    ..Default::default()
                },
            )
            .params
            .len()
        })
    });
    let model = train(&instances, n_features, 3, &TrainConfig::default());
    group.bench_function("viterbi_120_sentences", |b| {
        b.iter(|| {
            instances
                .iter()
                .map(|i| model.viterbi(&i.features).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_embed(c: &mut Criterion) {
    let mk = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
    let sentences: Vec<Vec<String>> = (0..400)
        .map(|i| {
            mk(&format!(
                "word{} ctx{} word{} tail{}",
                i % 23,
                i % 7,
                (i + 3) % 23,
                i % 5
            ))
        })
        .collect();
    let mut group = c.benchmark_group("word2vec");
    group.sample_size(10);
    group.bench_function("sgns_400_sentences", |b| {
        b.iter(|| {
            W2vModel::train(
                &sentences,
                &W2vConfig {
                    dim: 24,
                    epochs: 2,
                    min_count: 1,
                    ..Default::default()
                },
            )
            .map(|m| m.dim())
        })
    });
    group.finish();
}

fn bench_neural(c: &mut Criterion) {
    let mk = |s: &str, l: &[usize]| {
        (
            s.split(' ').map(str::to_owned).collect::<Vec<_>>(),
            l.to_vec(),
        )
    };
    let data: Vec<(Vec<String>, Vec<usize>)> = (0..60)
        .map(|i| mk(&format!("attr : v{} unit", i % 9), &[0, 0, 1, 0]))
        .collect();
    let mut group = c.benchmark_group("bilstm");
    group.sample_size(10);
    group.bench_function("train_60_sentences_2_epochs", |b| {
        b.iter(|| {
            BiLstmTagger::train(
                &data,
                2,
                &TaggerConfig {
                    epochs: 2,
                    ..Default::default()
                },
            )
            .param_count()
        })
    });
    let model = BiLstmTagger::train(&data, 2, &TaggerConfig::default());
    group.bench_function("predict_60_sentences", |b| {
        b.iter(|| {
            data.iter()
                .map(|(words, _)| model.predict(words).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_corpus(c: &mut Criterion) {
    let dataset = DatasetSpec::new(CategoryKind::LadiesBags, 7)
        .products(60)
        .generate();
    let mut group = c.benchmark_group("corpus");
    group.sample_size(10);
    group.bench_function("parse_corpus_60_products", |b| {
        b.iter(|| parse_corpus(&dataset).n_sentences())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_html,
    bench_text,
    bench_crf,
    bench_embed,
    bench_neural,
    bench_corpus
);

/// Runs the groups, then merges full-mode results into the
/// `BENCH_pipeline.json` ledger (`pae_bench::finish_benches`).
fn main() {
    benches();
    pae_bench::finish_benches();
}
