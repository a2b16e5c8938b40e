//! Determinism across the whole stack: identical seeds must give
//! identical datasets, models, and extracted triples — including at
//! different worker-pool widths (`PAE_JOBS`).

use pae::core::{BootstrapPipeline, PipelineConfig, TaggerKind};
use pae::runtime::with_jobs;
use pae::synth::{CategoryKind, DatasetSpec};

fn run(seed: u64) -> Vec<pae::core::Triple> {
    let dataset = DatasetSpec::new(CategoryKind::Tennis, seed)
        .products(80)
        .generate();
    let mut cfg = PipelineConfig {
        iterations: 1,
        ..Default::default()
    };
    cfg.crf.max_iters = 30;
    BootstrapPipeline::new(cfg).run(&dataset).final_triples()
}

/// Runs one cycle with the given tagger backend at a pinned pool width.
fn run_tagger_at(tagger: TaggerKind, jobs: usize) -> Vec<pae::core::Triple> {
    let dataset = DatasetSpec::new(CategoryKind::Tennis, 42)
        .products(80)
        .generate();
    let mut cfg = PipelineConfig {
        iterations: 1,
        tagger,
        ..Default::default()
    };
    cfg.crf.max_iters = 30;
    with_jobs(jobs, || {
        BootstrapPipeline::new(cfg).run(&dataset).final_triples()
    })
}

/// The tentpole guarantee: the worker pool's fixed chunking + ordered
/// merge make the pipeline byte-identical at any thread count.
fn assert_jobs_invariant(tagger: TaggerKind) {
    let serial = run_tagger_at(tagger, 1);
    let parallel = run_tagger_at(tagger, 4);
    assert!(!serial.is_empty(), "{tagger:?} extracted nothing");
    assert_eq!(
        serial, parallel,
        "{tagger:?}: PAE_JOBS=1 vs PAE_JOBS=4 diverged"
    );
}

#[test]
fn crf_triples_identical_across_thread_counts() {
    assert_jobs_invariant(TaggerKind::Crf);
}

#[test]
fn rnn_triples_identical_across_thread_counts() {
    assert_jobs_invariant(TaggerKind::Rnn);
}

#[test]
fn ensemble_triples_identical_across_thread_counts() {
    assert_jobs_invariant(TaggerKind::Ensemble);
}

/// The global obs collector is process-wide state; tests that toggle
/// it must not interleave.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The observability hard constraint: collecting telemetry must be
/// side-effect-free w.r.t. results — `final_triples()` is
/// byte-identical with the obs collector enabled or disabled, at
/// serial and parallel pool widths.
#[test]
fn obs_collection_does_not_change_results() {
    let _l = obs_lock();
    let baseline = run_tagger_at(TaggerKind::Crf, 1);
    assert!(!baseline.is_empty());
    for jobs in [1usize, 4] {
        pae::obs::set_enabled(true);
        pae::obs::reset();
        let traced = run_tagger_at(TaggerKind::Crf, jobs);
        let records = pae::obs::snapshot();
        pae::obs::set_enabled(false);
        pae::obs::reset();
        assert_eq!(
            baseline, traced,
            "PAE_JOBS={jobs}: enabling the obs collector changed the output"
        );
        assert!(
            records.iter().any(|r| r.name == "bootstrap.run"),
            "collection was enabled but produced no pipeline spans"
        );
    }
}

/// The profiling hard constraint: the counting allocator and span
/// allocation attribution must be side-effect-free w.r.t. results —
/// `final_triples()` is byte-identical with profiling enabled or
/// disabled, at serial and parallel pool widths.
#[test]
fn allocation_profiling_does_not_change_results() {
    let _l = obs_lock();
    let baseline = run_tagger_at(TaggerKind::Crf, 1);
    assert!(!baseline.is_empty());
    for jobs in [1usize, 4] {
        pae::obs::set_prof_enabled(true);
        let profiled = run_tagger_at(TaggerKind::Crf, jobs);
        let stats = pae::obs::prof_stats();
        pae::obs::set_prof_enabled(false);
        assert_eq!(
            baseline, profiled,
            "PAE_JOBS={jobs}: enabling allocation profiling changed the output"
        );
        assert!(
            stats.alloc_count > 0,
            "PAE_JOBS={jobs}: profiling was on but counted no allocations"
        );
    }
}

/// Profiling composed with collection: the quality section a CI gate
/// consumes is byte-identical whether or not the run was profiled.
#[test]
fn profiled_quality_section_is_byte_identical() {
    let _l = obs_lock();
    let reference = quality_section(1);
    for jobs in [1usize, 4] {
        pae::obs::set_prof_enabled(true);
        let profiled = quality_section(jobs);
        pae::obs::set_prof_enabled(false);
        assert_eq!(
            profiled, reference,
            "PAE_JOBS={jobs}: profiling changed the quality section"
        );
    }
}

/// Captures the quality section of one traced CRF run at `jobs`.
/// Callers must hold [`obs_lock`].
fn quality_section(jobs: usize) -> String {
    pae::obs::reset();
    pae::obs::set_enabled(true);
    // Our own outer span: `subtree` below keeps the summary immune
    // to records any concurrently-running test may emit.
    {
        let _span = pae::obs::span("determinism.quality");
        let _ = run_tagger_at(TaggerKind::Crf, jobs);
    }
    let trace = pae::obs::reader::Trace::from_current();
    pae::obs::set_enabled(false);
    pae::obs::reset();
    let root_records = trace.spans_named("determinism.quality");
    let root = root_records.first().expect("outer span recorded").span;
    let summary = pae::report::summary::RunSummary::build(
        pae::report::summary::RunMeta {
            name: "determinism".into(),
            git_rev: "test".into(),
            config_hash: "test".into(),
            pae_jobs: String::new(),
            scale: "test".into(),
        },
        &trace.subtree(root),
    );
    assert_eq!(summary.runs.len(), 1, "exactly one bootstrap.run");
    assert!(
        !summary.runs[0].is_empty(),
        "iteration series must not be empty"
    );
    summary.quality_json(0)
}

/// The ledger hard constraint: the quality section of a `RunSummary`
/// (iteration series, drift, evals — everything except timings) is
/// byte-identical across repeated runs AND across pool widths. This is
/// what lets `pae-report check` gate quality with zero tolerance for
/// nondeterminism.
#[test]
fn run_summary_quality_is_byte_identical_across_thread_counts() {
    let _l = obs_lock();
    let sections: Vec<(usize, String)> = [1usize, 1, 4, 4]
        .into_iter()
        .map(|jobs| (jobs, quality_section(jobs)))
        .collect();
    let (_, reference) = &sections[0];
    for (jobs, q) in &sections[1..] {
        assert_eq!(
            q, reference,
            "PAE_JOBS={jobs}: quality section diverged from the first PAE_JOBS=1 run"
        );
    }
}

/// Captures one provenance-enabled CRF run at `jobs`: the final
/// triples plus the lineage-ledger JSON built from the run's own span
/// subtree. Callers must hold [`obs_lock`].
fn provenance_run(jobs: usize) -> (Vec<pae::core::Triple>, String) {
    pae::obs::reset();
    pae::obs::set_enabled(true);
    pae::obs::set_provenance_enabled(true);
    pae::obs::set_capacity(pae::obs::PROVENANCE_CAPACITY);
    let triples;
    {
        let _span = pae::obs::span("determinism.provenance");
        triples = run_tagger_at(TaggerKind::Crf, jobs);
    }
    let trace = pae::obs::reader::Trace::from_current();
    pae::obs::set_provenance_enabled(false);
    pae::obs::set_enabled(false);
    pae::obs::set_capacity(pae::obs::DEFAULT_CAPACITY);
    pae::obs::reset();
    let root_records = trace.spans_named("determinism.provenance");
    let root = root_records.first().expect("outer span recorded").span;
    let sub = trace.subtree(root);
    assert!(
        !sub.provenance_records().is_empty(),
        "provenance was enabled but the run emitted no lineage records"
    );
    let ledger = pae::report::lineage::LineageLedger::build(&sub);
    (triples, ledger.to_json())
}

/// The provenance hard constraint, both halves: recording lineage is
/// side-effect-free (final triples byte-identical with provenance on
/// or off, at serial and parallel pool widths), and the ledger itself
/// is byte-identical across repeats and across `PAE_JOBS=1` vs `4`.
#[test]
fn provenance_ledger_is_deterministic_and_side_effect_free() {
    let _l = obs_lock();
    let baseline = run_tagger_at(TaggerKind::Crf, 1); // provenance off
    assert!(!baseline.is_empty());
    let (t1, l1) = provenance_run(1);
    let (t1b, l1b) = provenance_run(1);
    let (t4, l4) = provenance_run(4);
    assert_eq!(baseline, t1, "enabling provenance changed the output");
    assert_eq!(t1, t1b, "repeat run diverged with provenance on");
    assert_eq!(t1, t4, "PAE_JOBS=4 diverged with provenance on");
    assert_eq!(l1, l1b, "ledger not byte-identical across repeats");
    assert_eq!(l1, l4, "ledger not byte-identical across pool widths");
    assert!(
        l1.contains("\"fate\": \"kept\""),
        "ledger records no kept disposition: {l1}"
    );
}

/// Same side-effect guarantee for the ensemble backend, whose
/// provenance path adds per-candidate confidence scoring and
/// intersection-drop records.
#[test]
fn ensemble_provenance_is_side_effect_free() {
    let _l = obs_lock();
    let baseline = run_tagger_at(TaggerKind::Ensemble, 4);
    pae::obs::reset();
    pae::obs::set_enabled(true);
    pae::obs::set_provenance_enabled(true);
    pae::obs::set_capacity(pae::obs::PROVENANCE_CAPACITY);
    let traced = run_tagger_at(TaggerKind::Ensemble, 4);
    let trace = pae::obs::reader::Trace::from_current();
    pae::obs::set_provenance_enabled(false);
    pae::obs::set_enabled(false);
    pae::obs::set_capacity(pae::obs::DEFAULT_CAPACITY);
    pae::obs::reset();
    assert_eq!(
        baseline, traced,
        "ensemble output changed with provenance on"
    );
    assert!(
        !trace.provenance_records().is_empty(),
        "ensemble run emitted no lineage records"
    );
}

#[test]
fn identical_seeds_identical_triples() {
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn different_seeds_differ() {
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "different generator seeds should change the corpus");
}

#[test]
fn dataset_generation_is_stable_across_calls() {
    let d1 = DatasetSpec::new(CategoryKind::Shoes, 9)
        .products(30)
        .generate();
    let d2 = DatasetSpec::new(CategoryKind::Shoes, 9)
        .products(30)
        .generate();
    for (a, b) in d1.pages.iter().zip(&d2.pages) {
        assert_eq!(a.html, b.html);
    }
    assert_eq!(d1.query_log, d2.query_log);
}
