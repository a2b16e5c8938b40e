//! Criterion benchmarks for the pipeline stages: seed construction,
//! diversification, cleaning, and one full bootstrap cycle.

use criterion::{criterion_group, Criterion};

use pae_core::cleaning::{apply_veto, semantic_clean};
use pae_core::config::SemanticOptions;
use pae_core::seed::{build_seed, AggregationConfig, ValueCleanConfig};
use pae_core::{parse_corpus, BootstrapPipeline, PipelineConfig, Triple};
use pae_synth::{CategoryKind, DatasetSpec};

fn bench_seed(c: &mut Criterion) {
    let dataset = DatasetSpec::new(CategoryKind::LadiesBags, 7)
        .products(80)
        .generate();
    let corpus = parse_corpus(&dataset);
    let mut group = c.benchmark_group("seed");
    group.sample_size(20);
    group.bench_function("build_seed_80_products", |b| {
        b.iter(|| {
            build_seed(
                &corpus,
                &dataset.query_log,
                &AggregationConfig::default(),
                &ValueCleanConfig::default(),
            )
            .table
            .n_pairs()
        })
    });
    group.finish();
}

fn bench_cleaning(c: &mut Criterion) {
    let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 7)
        .products(80)
        .generate();
    let corpus = parse_corpus(&dataset);
    let sentences = corpus.word_sentences();

    // A realistic candidate pool: one triple per product per attribute.
    let triples: Vec<Triple> = corpus
        .table_pairs
        .iter()
        .map(|p| Triple::new(p.product, p.attr.clone(), p.value.clone()))
        .collect();

    let mut group = c.benchmark_group("cleaning");
    group.sample_size(10);
    group.bench_function("veto", |b| {
        b.iter(|| apply_veto(triples.clone(), 0.8, 30).0.len())
    });
    group.bench_function("semantic_with_w2v_retrain", |b| {
        b.iter(|| {
            semantic_clean(triples.clone(), &sentences, &SemanticOptions::default(), 7)
                .0
                .len()
        })
    });
    group.finish();
}

fn bench_bootstrap(c: &mut Criterion) {
    let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 7)
        .products(60)
        .generate();
    let corpus = parse_corpus(&dataset);
    let mut cfg = PipelineConfig {
        iterations: 1,
        ..Default::default()
    };
    cfg.crf.max_iters = 30;

    let mut group = c.benchmark_group("bootstrap");
    group.sample_size(10);
    group.bench_function("one_crf_cycle_60_products", |b| {
        b.iter(|| {
            BootstrapPipeline::new(cfg.clone())
                .run_on_corpus(&dataset, &corpus)
                .final_triples()
                .len()
        })
    });
    group.finish();

    // Per-stage wall clock of one cycle, complementing the aggregate
    // number above (PAE_JOBS-sensitive: the train/extract stages run
    // on the worker pool).
    let outcome = BootstrapPipeline::new(cfg).run_on_corpus(&dataset, &corpus);
    println!(
        "bootstrap/one_crf_cycle_60_products stage breakdown (PAE_JOBS={}):\n{}",
        pae_bench::jobs(),
        pae_bench::stage_timing_report(&outcome)
    );
}

criterion_group!(benches, bench_seed, bench_cleaning, bench_bootstrap);

/// Runs the groups, then merges full-mode results into the
/// `BENCH_pipeline.json` ledger (`pae_bench::finish_benches`).
fn main() {
    benches();
    pae_bench::finish_benches();
}
