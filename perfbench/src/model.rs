//! Train → bundle: the path `train_bundle` times, and the one every
//! serve workload runs once, before any timing, to get the bundle it
//! serves. Both therefore read and write the same bundle per seed.

use std::time::{Duration, Instant};

use pae_core::bundle;
use pae_core::cleaning::freeze_semantic;
use pae_core::cleaning::veto::{per_triple_veto, unpopular_blocklist};
use pae_core::frozen::{FrozenModel, FrozenTagger};
use pae_core::quality::ReferenceBuilder;
use pae_core::tagger::{extract_candidates, TrainedTagger};
use pae_core::trainset::generate_training_set;
use pae_core::{
    BootstrapOutcome, BootstrapPipeline, Corpus, LoadedBundle, PipelineConfig, PrepTimings,
    StageTimings,
};
use pae_synth::{CategoryKind, Dataset, DatasetSpec};

use crate::stats::process_cpu_s;
use crate::Metrics;

/// Every workload draws its pages from this category.
pub const CATEGORY: CategoryKind = CategoryKind::VacuumCleaner;
/// Products in the corpus a bundle is trained and frozen on.
pub const TRAIN_PRODUCTS: usize = 300;
/// Bootstrap cycles: two, so the cross-cycle CRF feature cache is used.
pub const ITERATIONS: usize = 2;

/// The default CRF + veto + semantic + diversification configuration,
/// with the label space capped at [`ATTRIBUTES`] attribute clusters.
pub fn config() -> PipelineConfig {
    PipelineConfig {
        iterations: ITERATIONS,
        label_space_cap: ATTRIBUTES,
        ..Default::default()
    }
}

/// Attribute clusters in the label space. The CRF's cost grows with
/// the square of its label count, and the number of clusters a seed's
/// corpus yields varies (6 to 11 over seeds 0-199 at 300 products), so
/// the default cap of 12 would let the seed move training and decode
/// cost by up to 3x. Every one of those seeds yields at least 6, so
/// every run trains and serves a 13-label CRF.
pub const ATTRIBUTES: usize = 6;

/// The seed's training dataset.
pub fn dataset(seed: u64) -> Dataset {
    DatasetSpec::new(CATEGORY, seed)
        .products(TRAIN_PRODUCTS)
        .generate()
}

/// Outputs pinned per seed: a later change that alters what training
/// produces fails the run on these seeds.
pub struct Pin {
    pub seed: u64,
    pub hash: u64,
    pub triples: usize,
    pub precision: f64,
    pub coverage: f64,
}

/// The default seed and the held-out seed.
pub const PINS: &[Pin] = &[
    Pin {
        seed: 42,
        hash: 0xeeb7_8949_a78a_5c32,
        triples: 808,
        precision: 0.929_455_445_544_554_5,
        coverage: 0.88,
    },
    Pin {
        seed: 7,
        hash: 0xdbf1_3722_c8d7_c96a,
        triples: 806,
        precision: 0.889_578_163_771_712_2,
        coverage: 0.883_333_333_333_333_3,
    },
];

/// One train → bundle run.
pub struct TrainRun {
    pub bytes: Vec<u8>,
    pub hash: u64,
    pub triples: usize,
    pub precision: f64,
    pub coverage: f64,
    /// Parsed corpus → bundle bytes.
    pub train_s: f64,
    /// This process's CPU time over the same interval.
    pub cpu_s: f64,
    pub freeze_s: f64,
    pub encode_s: f64,
    pub prep: PrepTimings,
    pub stages: Vec<StageTimings>,
    pub outcome: BootstrapOutcome,
}

impl TrainRun {
    /// What the run produced, for comparing runs and pins.
    pub fn fingerprint(&self) -> (u64, usize, f64, f64) {
        (self.hash, self.triples, self.precision, self.coverage)
    }

    /// Checks the outputs against the seed's pin, if it has one.
    pub fn check_pin(&self, seed: u64) -> Result<(), String> {
        let Some(pin) = PINS.iter().find(|p| p.seed == seed) else {
            return Ok(());
        };
        let same = self.hash == pin.hash
            && self.triples == pin.triples
            && (self.precision - pin.precision).abs() < 1e-12
            && (self.coverage - pin.coverage).abs() < 1e-12;
        if same {
            Ok(())
        } else {
            Err(format!(
                "seed {seed}: bundle {:016x}, {} triples, P {}, C {}; pinned {:016x}, {} \
                 triples, P {}, C {}",
                self.hash,
                self.triples,
                self.precision,
                self.coverage,
                pin.hash,
                pin.triples,
                pin.precision,
                pin.coverage
            ))
        }
    }

    /// Sum of the stage timings the library reports plus freeze and
    /// encode: what should add up to `train_s`.
    pub fn stage_sum_s(&self) -> f64 {
        let boot: Duration = self.prep.seed
            + self.prep.diversify
            + self
                .stages
                .iter()
                .map(StageTimings::total)
                .sum::<Duration>();
        boot.as_secs_f64() + self.freeze_s + self.encode_s
    }
}

/// Trains on the parsed corpus, freezes and encodes.
pub fn train(dataset: &Dataset, corpus: &Corpus) -> Result<TrainRun, String> {
    let cfg = config();
    let cpu0 = process_cpu_s("self").ok_or("cannot read own CPU time")?;
    let t0 = Instant::now();
    let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(dataset, corpus);
    let t1 = Instant::now();
    let model = FrozenModel::freeze(dataset, corpus, &outcome, &cfg).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let bytes = bundle::encode(&model);
    let t3 = Instant::now();
    let cpu1 = process_cpu_s("self").ok_or("cannot read own CPU time")?;

    let hash = bundle::declared_hash(&bytes).map_err(|e| e.to_string())?;
    let report = outcome.evaluate(dataset);
    Ok(TrainRun {
        bytes,
        hash,
        triples: report.n_triples(),
        precision: report.precision(),
        coverage: report.coverage(),
        train_s: (t3 - t0).as_secs_f64(),
        cpu_s: cpu1 - cpu0,
        freeze_s: (t2 - t1).as_secs_f64(),
        encode_s: (t3 - t2).as_secs_f64(),
        prep: outcome.prep,
        stages: outcome.snapshots.iter().map(|s| s.timings).collect(),
        outcome,
    })
}

/// Slack for the stage-sum reconciliation: the loop's glue between
/// timed stages (label space, pooling, sorting) is not in any stage.
pub const STAGE_SLACK: f64 = 0.05;

/// The traced breakdown of a train run: the stage timings the library
/// returns, timed calls to the public pieces of `freeze` (each checked
/// to rebuild what the bundle holds), and bundle load time.
pub fn traced_breakdown(
    run: &TrainRun,
    dataset: &Dataset,
    corpus: &Corpus,
    m: &mut Metrics,
) -> Result<(), String> {
    let secs = |d: Duration| d.as_secs_f64();
    let sum = |f: fn(&StageTimings) -> Duration| secs(run.stages.iter().map(f).sum());
    m.add("boot.seed_s", secs(run.prep.seed), "s");
    m.add("boot.diversify_s", secs(run.prep.diversify), "s");
    m.add("boot.crf_train_s", sum(|s| s.train), "s");
    m.add("boot.crf_grad_s", sum(|s| s.crf.grad), "s");
    m.add("boot.crf_line_search_s", sum(|s| s.crf.line_search), "s");
    m.add("boot.extract_s", sum(|s| s.extract), "s");
    m.add("boot.veto_s", sum(|s| s.veto), "s");
    m.add("boot.semantic_s", sum(|s| s.semantic), "s");
    m.add("freeze.s", run.freeze_s, "s");
    m.add("bundle.encode_ms", run.encode_s * 1e3, "ms");
    m.add("bundle.bytes", run.bytes.len() as f64, "bytes");

    let loaded = LoadedBundle::from_bytes(run.bytes.clone()).map_err(|e| e.to_string())?;
    let model = loaded.model().map_err(|e| e.to_string())?;
    let cfg = config();
    let outcome = &run.outcome;
    let space = &outcome.label_space;
    let final_triples = outcome.final_triples();
    let extra_values: Vec<(String, String)> = outcome
        .diversified
        .attrs()
        .iter()
        .flat_map(|attr| {
            outcome
                .diversified
                .values_of(attr)
                .into_iter()
                .map(|v| (attr.to_string(), v.to_owned()))
                .collect::<Vec<_>>()
        })
        .collect();

    let t = Instant::now();
    let labeled = generate_training_set(corpus, &final_triples, space, &extra_values);
    m.add("freeze.trainset_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let tagger = TrainedTagger::train_crf(&labeled, space.n_labels(), &cfg.crf);
    m.add("freeze.crf_train_s", t.elapsed().as_secs_f64(), "s");
    match (&tagger, &model.tagger) {
        (TrainedTagger::Crf { model: crf, .. }, FrozenTagger::Crf { params, .. })
            if crf.params.len() == params.len()
                && crf
                    .params
                    .iter()
                    .zip(params)
                    .all(|(a, b)| a.to_bits() == b.to_bits()) => {}
        _ => return Err("replayed freeze-time CRF differs from the bundle's".into()),
    }

    let t = Instant::now();
    let mut pool = final_triples.clone();
    pool.extend(extract_candidates(&tagger, corpus, space));
    pool.sort_by(|a, b| (a.product, &a.attr, &a.value).cmp(&(b.product, &b.attr, &b.value)));
    pool.dedup();
    pool.retain(|t| per_triple_veto(&t.value, cfg.max_value_chars).is_none());
    let blocklist = unpopular_blocklist(&pool, cfg.unpopular_keep);
    m.add("freeze.blocklist_s", t.elapsed().as_secs_f64(), "s");
    if blocklist != model.veto_blocklist {
        return Err("replayed veto blocklist differs from the bundle's".into());
    }

    let t = Instant::now();
    let semantic = freeze_semantic(
        &final_triples,
        &corpus.word_sentences(),
        &cfg.semantic,
        cfg.seed.wrapping_add(cfg.iterations as u64 + 1),
    );
    m.add("freeze.semantic_s", t.elapsed().as_secs_f64(), "s");
    if semantic != model.semantic {
        return Err("replayed semantic freeze differs from the bundle's".into());
    }

    let t = Instant::now();
    let extractor = model.extractor()?;
    let mut builder = ReferenceBuilder::new(extractor.attrs(), &extractor.backend_names());
    let observed = pae_runtime::parallel_map(&dataset.pages, |_, page| {
        extractor.extract_page_observed(page.id, &page.html)
    });
    for (triples, obs) in &observed {
        builder.observe_page(triples, obs);
    }
    let reference = builder.finish();
    m.add("freeze.reference_s", t.elapsed().as_secs_f64(), "s");
    if Some(&reference) != model.reference.as_ref() {
        return Err("replayed reference stats differ from the bundle's".into());
    }

    let shared: std::sync::Arc<[u8]> = run.bytes.clone().into();
    let mut loads = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let loaded = LoadedBundle::from_shared(shared.clone()).map_err(|e| e.to_string())?;
        let extractor = loaded.extractor().map_err(|e| e.to_string())?;
        loads.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(extractor);
    }
    m.add("bundle.load_us", crate::stats::median(&loads), "us");

    let stage_sum = run.stage_sum_s();
    let residual = (stage_sum - run.train_s) / run.train_s;
    println!(
        "reconcile train: stages {:.3}s + freeze {:.3}s + encode {:.3}s = {stage_sum:.3}s vs \
         train_s {:.3}s, residual {:+.2}% (slack {:.0}%)",
        stage_sum - run.freeze_s - run.encode_s,
        run.freeze_s,
        run.encode_s,
        run.train_s,
        residual * 100.0,
        STAGE_SLACK * 100.0
    );
    if residual.abs() > STAGE_SLACK {
        return Err(format!(
            "train stage sum is {:+.2}% off train_s (slack {:.0}%)",
            residual * 100.0,
            STAGE_SLACK * 100.0
        ));
    }
    Ok(())
}
