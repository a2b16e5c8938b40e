//! The bootstrap loop (Figure 1 of the paper).

use pae_synth::Dataset;
use pae_text::LexiconPosTagger;

use crate::cleaning::{
    apply_veto, apply_veto_traced, semantic_clean_traced, semantic_clean_with_baseline, AttrDrift,
    DriftBaseline, SemanticCleanStats, VetoStats,
};
use crate::config::{PipelineConfig, TaggerKind};
use crate::corpus::{parse_corpus_with, Corpus};
use crate::corrections::Corrections;
use crate::diversify::diversify;
use crate::eval::{evaluate_pairs, evaluate_triples, EvalReport, PairReport};
use crate::provenance::ProvLog;
use crate::seed::{build_seed, Seed};
use crate::tagger::{
    extract_candidates, extract_candidates_scored, CrfTrainContext, TrainedTagger,
};
use crate::timing::{span_timed, CrfStageTimings, PrepTimings, StageTimings};
use crate::trainset::{generate_training_set, LabelSpace};
use crate::types::{intersect_sorted, merge_sorted, AttrTable, Merged, Triple};

/// State after one Tagger–Cleaner cycle.
#[derive(Debug, Clone)]
pub struct IterationSnapshot {
    /// 1-based iteration number.
    pub iteration: usize,
    /// The dataset after this cycle: everything accumulated so far,
    /// re-cleaned (so it can shrink when cleaning reclaims earlier
    /// errors).
    pub triples: Vec<Triple>,
    /// Raw candidates the tagger produced this cycle.
    pub n_candidates: usize,
    /// Veto-rule removals this cycle.
    pub veto: VetoStats,
    /// Semantic-cleaning removals this cycle.
    pub semantic: SemanticCleanStats,
    /// Per-attribute drift of the accepted values against the
    /// iteration-0 seed (empty when semantic cleaning is disabled or
    /// drift is undefined for every attribute).
    pub drift: Vec<AttrDrift>,
    /// Per-stage wall clock for this cycle.
    pub timings: StageTimings,
}

/// Everything a pipeline run produces.
#[derive(Debug)]
pub struct BootstrapOutcome {
    /// The cleaned seed.
    pub seed: Seed,
    /// The seed table after diversification (equals `seed.table` when
    /// diversification is disabled).
    pub diversified: AttrTable,
    /// The BIO label space over attribute clusters.
    pub label_space: LabelSpace,
    /// One snapshot per bootstrap iteration.
    pub snapshots: Vec<IterationSnapshot>,
    /// Wall clock of the pre-loop stages (seed, diversification).
    pub prep: PrepTimings,
}

impl BootstrapOutcome {
    /// Triples after the last iteration (the seed triples if the loop
    /// ran zero times).
    pub fn final_triples(&self) -> Vec<Triple> {
        match self.snapshots.last() {
            Some(s) => s.triples.clone(),
            None => seed_triples(&self.seed),
        }
    }

    /// Evaluates the final triples.
    pub fn evaluate(&self, dataset: &Dataset) -> EvalReport {
        let _span = pae_obs::span("eval");
        evaluate_triples(&self.final_triples(), &dataset.truth)
    }

    /// Evaluates a specific iteration (1-based; 0 = seed only).
    pub fn evaluate_iteration(&self, iteration: usize, dataset: &Dataset) -> EvalReport {
        if iteration == 0 {
            return evaluate_triples(&seed_triples(&self.seed), &dataset.truth);
        }
        let snap = &self.snapshots[iteration - 1];
        evaluate_triples(&snap.triples, &dataset.truth)
    }

    /// Seed-level report (Table I).
    pub fn seed_report(&self, dataset: &Dataset) -> PairReport {
        evaluate_pairs(&self.seed.table, &self.seed.product_pairs, &dataset.truth)
    }
}

/// Converts the seed's product pairs into triples.
pub fn seed_triples(seed: &Seed) -> Vec<Triple> {
    let mut out: Vec<Triple> = seed
        .product_pairs
        .iter()
        .map(|p| Triple::new(p.product, p.attr.clone(), p.value.clone()))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct BootstrapPipeline {
    config: PipelineConfig,
    corrections: Corrections,
}

impl BootstrapPipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        BootstrapPipeline {
            config,
            corrections: Corrections::new(),
        }
    }

    /// Attaches human corrections (§VIII): applied to the seed before
    /// the loop and to every cycle's output.
    pub fn with_corrections(mut self, corrections: Corrections) -> Self {
        self.corrections = corrections;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Parses the corpus and runs the loop.
    pub fn run(&self, dataset: &Dataset) -> BootstrapOutcome {
        let corpus = parse_corpus_with(dataset, self.config.pos_backend);
        self.run_on_corpus(dataset, &corpus)
    }

    /// Runs the loop on an already-parsed corpus (the experiment
    /// harness parses once and evaluates many configurations).
    pub fn run_on_corpus(&self, dataset: &Dataset, corpus: &Corpus) -> BootstrapOutcome {
        let cfg = &self.config;
        let _run_span = pae_obs::span("bootstrap.run");

        // Pre-processing: seed + diversification (lines 1–5).
        let (mut seed, seed_time) = span_timed("seed", || {
            build_seed(
                corpus,
                &dataset.query_log,
                &cfg.aggregation,
                &cfg.value_clean,
            )
        });
        self.corrections.apply_to_seed(&mut seed);
        if pae_obs::enabled() {
            pae_obs::gauge_set("bootstrap.seed_pairs", &[], seed.product_pairs.len() as f64);
        }
        let (diversified, diversify_time) = span_timed("diversify", || {
            if cfg.use_diversification {
                let pos_tagger = LexiconPosTagger::new(dataset.lexicon.clone());
                let pos_key = |value: &str| -> String {
                    value
                        .split(' ')
                        .map(|t| pos_tagger.tag_word(t).mnemonic())
                        .collect::<Vec<_>>()
                        .join("-")
                };
                diversify(&seed.table, &seed.raw_table, &pos_key, &cfg.diversify)
            } else {
                seed.table.clone()
            }
        });
        let prep = PrepTimings {
            seed: seed_time,
            diversify: diversify_time,
        };

        // Label space over the most substantial clusters.
        let label_space = LabelSpace::new(top_attrs(&diversified, cfg.label_space_cap));

        // Category-level extra values (diversified additions).
        let extra_values = diversified.pairs();

        let word_sentences = corpus.word_sentences();
        // One CRF training context for the whole run: the per-sentence
        // feature cache carries over between cycles (same corpus, new
        // labels), so only genuinely new sentences are re-extracted.
        let mut crf_ctx = CrfTrainContext::new();
        let mut triples = seed_triples(&seed);
        // Drift is always measured against the iteration-0 values,
        // frozen here — not against the previous cycle — so the scores
        // answer "how far has this attribute moved from the seed?".
        let drift_baseline = DriftBaseline::from_triples(&triples);
        let mut snapshots = Vec::with_capacity(cfg.iterations);
        // Lineage ledger (inert unless provenance collection is on).
        // All emission happens here on the main thread, in canonical
        // pair order, so the record stream is deterministic.
        let mut prov = ProvLog::new();
        prov.record_origins(&triples, &extra_values, &self.corrections);
        let backend_name = match cfg.tagger {
            TaggerKind::Crf => "crf",
            TaggerKind::Rnn => "rnn",
            TaggerKind::Ensemble => "ensemble",
        };

        for iteration in 1..=cfg.iterations {
            let _iter_span =
                pae_obs::span_fields("iteration", vec![("n".into(), iteration.into())]);
            // Tagging (lines 10–12).
            let tagged = train_and_extract_timed_with(
                corpus,
                &triples,
                &extra_values,
                &label_space,
                cfg,
                &mut crf_ctx,
            );
            prov.record_candidates(
                iteration,
                backend_name,
                &tagged.candidates,
                tagged.scores.as_ref(),
            );
            let candidates = tagged.candidates;
            let n_candidates = candidates.len();

            // The paper's line 20 (`dataset = clean_ds`) re-derives the
            // dataset from the cleaned tagged data each cycle, so
            // cleaning gets a shot at *everything* accumulated so far —
            // including seed errors — not just this cycle's additions.
            let mut pool = triples.clone();
            pool.extend(candidates);
            pool.sort();
            pool.dedup();

            // Cleaning (lines 14–20). The traced variants return the
            // same survivors/stats as the plain ones plus the decision
            // trail; they only run while the ledger is recording.
            let ((pool, veto, veto_decisions), veto_time) = span_timed("veto", || {
                if cfg.use_veto {
                    if prov.active() {
                        apply_veto_traced(pool, cfg.unpopular_keep, cfg.max_value_chars)
                    } else {
                        let (pool, stats) =
                            apply_veto(pool, cfg.unpopular_keep, cfg.max_value_chars);
                        (pool, stats, Vec::new())
                    }
                } else {
                    (pool, VetoStats::default(), Vec::new())
                }
            });
            prov.record_veto(iteration, &veto_decisions);
            let ((pool, semantic, drift, semantic_decisions), semantic_time) =
                span_timed("semantic", || {
                    if cfg.use_semantic {
                        if prov.active() {
                            semantic_clean_traced(
                                pool,
                                &word_sentences,
                                &cfg.semantic,
                                cfg.seed.wrapping_add(iteration as u64),
                                Some(&drift_baseline),
                            )
                        } else {
                            let (pool, stats, drift) = semantic_clean_with_baseline(
                                pool,
                                &word_sentences,
                                &cfg.semantic,
                                cfg.seed.wrapping_add(iteration as u64),
                                Some(&drift_baseline),
                            );
                            (pool, stats, drift, Vec::new())
                        }
                    } else {
                        (pool, SemanticCleanStats::default(), Vec::new(), Vec::new())
                    }
                });
            prov.record_semantic(
                iteration,
                f64::from(cfg.semantic.keep_threshold),
                &semantic_decisions,
            );
            // The corrections span is emitted even when there are no
            // corrections, so every cycle's trace has the same shape.
            let before_corrections = if prov.active() && !self.corrections.is_empty() {
                Some(pool.clone())
            } else {
                None
            };
            let (pool, corrections_time) = span_timed("corrections", || {
                if self.corrections.is_empty() {
                    pool
                } else {
                    self.corrections.apply_to_triples(pool)
                }
            });
            if let Some(before) = &before_corrections {
                prov.record_corrections(iteration, before, &self.corrections);
            }
            let prev_len = triples.len();
            triples = pool;

            if pae_obs::enabled() {
                // Step-indexed series: the per-iteration trajectories
                // behind the paper's Fig. 3/5 curves.
                pae_obs::observe_step("bootstrap.triples", iteration, triples.len() as f64);
                pae_obs::observe_step("bootstrap.candidates", iteration, n_candidates as f64);
                pae_obs::event(
                    "iteration.summary",
                    vec![
                        ("iteration".into(), iteration.into()),
                        ("candidates".into(), n_candidates.into()),
                        ("triples".into(), triples.len().into()),
                        ("veto_dropped".into(), veto.total().into()),
                        ("veto_symbols".into(), veto.symbols.into()),
                        ("veto_markup".into(), veto.markup.into()),
                        ("veto_unpopular".into(), veto.unpopular.into()),
                        ("veto_long".into(), veto.long.into()),
                        ("semantic_removed".into(), semantic.removed.into()),
                        ("semantic_evictions".into(), semantic.evictions.into()),
                    ],
                );
                for d in &drift {
                    pae_obs::gauge_set("semantic.drift", &[("attribute", &d.attr)], d.score);
                    pae_obs::event(
                        "semantic.drift",
                        vec![
                            ("iteration".into(), iteration.into()),
                            ("attribute".into(), d.attr.clone().into()),
                            ("score".into(), d.score.into()),
                            ("n_values".into(), d.n_values.into()),
                            ("n_baseline".into(), d.n_baseline.into()),
                        ],
                    );
                }
            }

            snapshots.push(IterationSnapshot {
                iteration,
                triples: triples.clone(),
                n_candidates,
                veto,
                semantic,
                drift,
                timings: StageTimings {
                    train: tagged.train,
                    extract: tagged.extract,
                    veto: veto_time,
                    semantic: semantic_time,
                    corrections: corrections_time,
                    crf: tagged.crf,
                },
            });

            // Optional convergence-based stopping criterion (§V).
            if cfg.stop_when_gain_below > 0
                && triples.len().saturating_sub(prev_len) < cfg.stop_when_gain_below
            {
                break;
            }
        }

        let outcome = BootstrapOutcome {
            seed,
            diversified,
            label_space,
            snapshots,
            prep,
        };
        prov.finish(&outcome.final_triples());
        outcome
    }
}

/// [`train_and_extract_timed_with`]'s result: the candidates plus the
/// wall clock of the train and extract stages.
#[derive(Debug)]
pub struct TrainExtract {
    /// Candidate triples, sorted and deduplicated.
    pub candidates: Vec<Triple>,
    /// Decode confidence per candidate, populated only while provenance
    /// collection is enabled (`None` otherwise — the plain extraction
    /// path is untouched).
    pub scores: Option<CandidateScores>,
    /// Tagger-training wall clock (slower backend for the ensemble).
    pub train: std::time::Duration,
    /// Corpus-decoding wall clock (slower backend for the ensemble).
    pub extract: std::time::Duration,
    /// CRF training sub-stage breakdown (zero for the RNN backend).
    pub crf: CrfStageTimings,
}

/// Decode confidences aligned with [`TrainExtract::candidates`], for
/// the provenance ledger. Strictly a read-only overlay: nothing here
/// feeds back into which candidates survive.
#[derive(Debug, Default)]
pub struct CandidateScores {
    /// CRF posterior decode confidence per candidate (empty when the
    /// CRF backend didn't run).
    pub crf: Vec<f64>,
    /// RNN softmax decode confidence per candidate (empty when the RNN
    /// backend didn't run).
    pub rnn: Vec<f64>,
    /// Candidates produced by exactly one backend that the ensemble
    /// intersection dropped: `(triple, backend, confidence)`.
    pub ensemble_dropped: Vec<(Triple, &'static str, f64)>,
}

/// Trains the configured tagger on the current triples and extracts
/// new candidates from the whole corpus. Also used by the specialized
/// per-attribute models (§VIII-D).
pub fn train_and_extract(
    corpus: &Corpus,
    triples: &[Triple],
    extra_values: &[(String, String)],
    space: &LabelSpace,
    cfg: &PipelineConfig,
) -> Vec<Triple> {
    let mut crf_ctx = CrfTrainContext::new();
    train_and_extract_timed_with(corpus, triples, extra_values, space, cfg, &mut crf_ctx).candidates
}

/// Trains one backend under `train`/`extract` spans and decodes the
/// corpus. `train` returns the tagger plus its CRF sub-stage breakdown
/// (zero for non-CRF backends).
fn one_backend(
    corpus: &Corpus,
    space: &LabelSpace,
    backend: &'static str,
    train: impl FnOnce() -> (TrainedTagger, CrfStageTimings),
) -> TrainExtract {
    let (tagger, crf, train_time) = {
        let span = pae_obs::span_fields("train", vec![("backend".into(), backend.into())]);
        let (tagger, crf) = train();
        (tagger, crf, span.finish())
    };
    let (candidates, scores, extract_time) = {
        let span = pae_obs::span_fields("extract", vec![("backend".into(), backend.into())]);
        if pae_obs::provenance_enabled() {
            let (candidates, confs): (Vec<Triple>, Vec<f64>) =
                extract_candidates_scored(&tagger, corpus, space)
                    .into_iter()
                    .unzip();
            let scores = if backend == "rnn" {
                CandidateScores {
                    rnn: confs,
                    ..Default::default()
                }
            } else {
                CandidateScores {
                    crf: confs,
                    ..Default::default()
                }
            };
            (candidates, Some(scores), span.finish())
        } else {
            let candidates = extract_candidates(&tagger, corpus, space);
            (candidates, None, span.finish())
        }
    };
    TrainExtract {
        candidates,
        scores,
        train: train_time,
        extract: extract_time,
        crf,
    }
}

/// As [`train_and_extract`], but also reports per-stage wall clock, and
/// reuses `crf_ctx`'s feature cache across calls (the bootstrap loop
/// holds one context per run).
pub fn train_and_extract_timed_with(
    corpus: &Corpus,
    triples: &[Triple],
    extra_values: &[(String, String)],
    space: &LabelSpace,
    cfg: &PipelineConfig,
    crf_ctx: &mut CrfTrainContext,
) -> TrainExtract {
    let labeled = generate_training_set(corpus, triples, space, extra_values);
    if labeled.is_empty() {
        return TrainExtract {
            candidates: Vec::new(),
            scores: None,
            train: std::time::Duration::ZERO,
            extract: std::time::Duration::ZERO,
            crf: CrfStageTimings::default(),
        };
    }
    match cfg.tagger {
        TaggerKind::Crf => one_backend(corpus, space, "crf", || {
            TrainedTagger::train_crf_with(&labeled, space.n_labels(), &cfg.crf, crf_ctx)
        }),
        TaggerKind::Rnn => one_backend(corpus, space, "rnn", || {
            (
                TrainedTagger::train_rnn(&labeled, space.n_labels(), &cfg.rnn),
                CrfStageTimings::default(),
            )
        }),
        TaggerKind::Ensemble => {
            // Precision-first combination: a candidate must be produced
            // by both backends to survive. Both extractions arrive
            // sorted and deduplicated, so the intersection is a merge.
            // The backends are independent, so they train and decode
            // concurrently on the worker pool; each arm's output only
            // depends on its own seed, so the merge is deterministic.
            let (a, b) = pae_runtime::join(
                || {
                    one_backend(corpus, space, "crf", || {
                        TrainedTagger::train_crf_with(&labeled, space.n_labels(), &cfg.crf, crf_ctx)
                    })
                },
                || {
                    one_backend(corpus, space, "rnn", || {
                        (
                            TrainedTagger::train_rnn(&labeled, space.n_labels(), &cfg.rnn),
                            CrfStageTimings::default(),
                        )
                    })
                },
            );
            let (train, extract) = (a.train.max(b.train), a.extract.max(b.extract));
            let (candidates, scores) = intersect_backends(a.candidates, a.scores, b);
            TrainExtract {
                candidates,
                scores,
                train,
                extract,
                crf: a.crf,
            }
        }
    }
}

/// Ensemble intersection of the CRF arm (`a`) and RNN arm (`b`).
///
/// Without scores this is exactly [`intersect_sorted`]. With scores
/// (provenance enabled) the same merge walk additionally pairs up both
/// backends' confidences for the survivors and collects the
/// one-backend-only candidates the intersection dropped — the triple
/// output is byte-identical either way.
fn intersect_backends(
    a_candidates: Vec<Triple>,
    a_scores: Option<CandidateScores>,
    b: TrainExtract,
) -> (Vec<Triple>, Option<CandidateScores>) {
    let (Some(sa), Some(sb)) = (a_scores, b.scores) else {
        return (intersect_sorted(a_candidates, &b.candidates), None);
    };
    let mut out = Vec::with_capacity(a_candidates.len().min(b.candidates.len()));
    let mut scores = CandidateScores::default();
    merge_sorted(
        a_candidates.into_iter().zip(sa.crf),
        b.candidates.into_iter().zip(sb.rnn),
        |(x, _), (y, _)| x.cmp(y),
        |m| match m {
            Merged::Both((t, crf), (_, rnn)) => {
                scores.crf.push(crf);
                scores.rnn.push(rnn);
                out.push(t);
            }
            Merged::OnlyA((t, crf)) => scores.ensemble_dropped.push((t, "crf", crf)),
            Merged::OnlyB((t, rnn)) => scores.ensemble_dropped.push((t, "rnn", rnn)),
        },
    );
    (out, Some(scores))
}

/// Keeps the `max` highest-mass attribute clusters.
fn top_attrs(table: &AttrTable, max: usize) -> Vec<String> {
    let mut attrs: Vec<(String, usize)> = table
        .values
        .iter()
        .map(|(a, vals)| (a.clone(), vals.values().sum()))
        .collect();
    attrs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    attrs.into_iter().take(max).map(|(a, _)| a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pae_synth::{CategoryKind, DatasetSpec};

    fn quick_config() -> PipelineConfig {
        let mut cfg = PipelineConfig {
            iterations: 1,
            ..Default::default()
        };
        cfg.crf.max_iters = 40;
        cfg
    }

    #[test]
    fn pipeline_runs_end_to_end_with_crf() {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(80)
            .generate();
        let outcome = BootstrapPipeline::new(quick_config()).run(&dataset);

        let seed_report = outcome.seed_report(&dataset);
        assert!(
            seed_report.pair_precision() > 0.7,
            "seed pair precision {}",
            seed_report.pair_precision()
        );

        let report = outcome.evaluate(&dataset);
        assert!(report.n_triples() > 0, "no triples extracted");
        assert!(
            report.precision() > 0.5,
            "precision {} too low",
            report.precision()
        );
        // Bootstrapping must increase coverage over the seed.
        assert!(
            report.coverage() > seed_report.coverage(),
            "coverage {} !> seed {}",
            report.coverage(),
            seed_report.coverage()
        );
    }

    #[test]
    fn snapshots_grow_the_dataset() {
        let dataset = DatasetSpec::new(CategoryKind::LadiesBags, 7)
            .products(60)
            .generate();
        let mut cfg = quick_config();
        cfg.iterations = 2;
        let outcome = BootstrapPipeline::new(cfg).run(&dataset);
        assert_eq!(outcome.snapshots.len(), 2);
        // Bootstrapping must extract beyond the seed.
        let seed_n = seed_triples(&outcome.seed).len();
        assert!(
            outcome.snapshots[1].triples.len() > seed_n,
            "no growth: {} vs seed {}",
            outcome.snapshots[1].triples.len(),
            seed_n
        );
        assert!(outcome.snapshots[0].n_candidates > 0);
    }

    #[test]
    fn zero_iterations_returns_seed() {
        let dataset = DatasetSpec::new(CategoryKind::Tennis, 3)
            .products(50)
            .generate();
        let mut cfg = quick_config();
        cfg.iterations = 0;
        let outcome = BootstrapPipeline::new(cfg).run(&dataset);
        assert!(outcome.snapshots.is_empty());
        assert_eq!(
            outcome.final_triples().len(),
            seed_triples(&outcome.seed).len()
        );
    }

    #[test]
    fn corrections_remove_vetoed_pairs_from_output() {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(60)
            .generate();
        let corpus = crate::corpus::parse_corpus(&dataset);
        let base = BootstrapPipeline::new(quick_config()).run_on_corpus(&dataset, &corpus);
        let triples = base.final_triples();
        assert!(!triples.is_empty());
        let victim = triples[0].clone();

        let corrected = BootstrapPipeline::new(quick_config())
            .with_corrections(
                crate::corrections::Corrections::new().veto_pair(&victim.attr, &victim.value),
            )
            .run_on_corpus(&dataset, &corpus);
        assert!(
            corrected
                .final_triples()
                .iter()
                .all(|t| !(t.attr == victim.attr && t.value == victim.value)),
            "vetoed pair survived"
        );
    }

    #[test]
    fn early_stopping_halts_converged_loop() {
        let dataset = DatasetSpec::new(CategoryKind::LadiesBags, 7)
            .products(50)
            .generate();
        let corpus = crate::corpus::parse_corpus(&dataset);
        let mut cfg = quick_config();
        cfg.iterations = 5;
        cfg.stop_when_gain_below = 10_000; // absurdly high: stop after cycle 1
        let outcome = BootstrapPipeline::new(cfg).run_on_corpus(&dataset, &corpus);
        assert_eq!(outcome.snapshots.len(), 1, "loop should stop immediately");
    }

    #[test]
    fn ensemble_extracts_subset_of_both_backends() {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(60)
            .generate();
        let corpus = crate::corpus::parse_corpus(&dataset);
        let run = |tagger| {
            let mut cfg = quick_config();
            cfg.tagger = tagger;
            BootstrapPipeline::new(cfg)
                .run_on_corpus(&dataset, &corpus)
                .snapshots[0]
                .n_candidates
        };
        let crf = run(crate::config::TaggerKind::Crf);
        let rnn = run(crate::config::TaggerKind::Rnn);
        let ens = run(crate::config::TaggerKind::Ensemble);
        assert!(ens <= crf, "ensemble {ens} > crf {crf}");
        assert!(ens <= rnn, "ensemble {ens} > rnn {rnn}");
    }

    #[test]
    fn disabled_modules_change_behaviour() {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(60)
            .generate();
        let corpus = crate::corpus::parse_corpus(&dataset);

        let full = BootstrapPipeline::new(quick_config()).run_on_corpus(&dataset, &corpus);
        let no_div = BootstrapPipeline::new(quick_config().without_diversification())
            .run_on_corpus(&dataset, &corpus);
        // Diversification can only extend the seed table.
        assert!(full.diversified.n_pairs() >= no_div.diversified.n_pairs());

        let no_clean = BootstrapPipeline::new(quick_config().without_cleaning())
            .run_on_corpus(&dataset, &corpus);
        let cleaned_n = full.snapshots[0].triples.len();
        let raw_n = no_clean.snapshots[0].triples.len();
        assert!(
            raw_n >= cleaned_n,
            "cleaning should not add triples: {raw_n} vs {cleaned_n}"
        );
    }
}
