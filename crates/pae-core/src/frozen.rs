//! Freeze-then-serve: capturing a trained run as a serveable model.
//!
//! The bootstrap loop is a training procedure — it retrains taggers and
//! word2vec every cycle and needs the whole corpus. Serving must not:
//! a frozen model captures everything extraction needs (tagger
//! parameters, the BIO label space, the veto configuration with rule
//! 3's corpus statistics baked into a blocklist, the semantic cleaner's
//! vectors and cores, the tokenizer lexicon and language) so that
//! `<attribute, value>` triples can be extracted from a single product
//! page, without the corpus, deterministically.
//!
//! [`FrozenModel::freeze`] captures a finished [`BootstrapOutcome`].
//! [`crate::bundle`] gives the frozen model a versioned, byte-stable
//! on-disk form, and loading that form is the one way a
//! [`FrozenExtractor`] is built ([`LoadedBundle::extractor`];
//! [`FrozenModel::extractor`] encodes and loads in memory). The
//! extractor runs the training path's own functions on each page: it
//! reads the page with [`analyze_page`], the function
//! [`parse_corpus_with`] reads every corpus page with (title first,
//! then split free text, tables excluded), and decodes it with
//! [`decode_sentences`], the decoder the bootstrap loop extracts with.
//! An ensemble merges its arms with the loop's intersection. So frozen
//! extraction over a training page sees what the in-loop tagger saw.
//!
//! [`LoadedBundle::extractor`]: crate::bundle::LoadedBundle::extractor
//! [`parse_corpus_with`]: crate::corpus::parse_corpus_with

use pae_fst::Fst;
use pae_html::parse;
use pae_synth::{Dataset, Language};
use pae_text::{Lexicon, LexiconPosTagger, SentenceSplitter, Tokenizer};

use crate::bootstrap::BootstrapOutcome;
use crate::bundle::{encode, LoadedBundle};
use crate::cleaning::veto::{per_triple_veto, unpopular_blocklist};
use crate::cleaning::{freeze_semantic, SemanticFreeze};
use crate::config::{PipelineConfig, TaggerKind};
use crate::corpus::{analyze_page, Corpus, PosBackend};
use crate::quality::{PageObservation, ReferenceBuilder, ReferenceStats};
use crate::tagger::{decode_sentences, extract_candidates, TrainedTagger};
use crate::trainset::{generate_training_set, LabelSpace};
use crate::types::{intersect_sorted, Triple};

/// Why a run could not be frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// The run used the HMM PoS backend, whose silver-trained state is
    /// not captured in a bundle (only the lexicon tagger is).
    HmmPosBackend,
    /// The outcome produced no triples to train a serving tagger on.
    EmptyOutcome,
    /// Tagger training produced no labelled sentences.
    NoTrainingData,
    /// One backend decoded no span over the freeze corpus (an RNN
    /// trained too few epochs, say): an ensemble with that arm keeps
    /// nothing, and the quality monitor has no confidence reference.
    SilentBackend(String),
    /// The frozen model extracts no triple from the freeze corpus, so
    /// its bundle would serve nothing.
    ServesNothing,
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreezeError::HmmPosBackend => write!(
                f,
                "cannot freeze a run with the HMM PoS backend: only the \
                 lexicon tagger is captured in a bundle"
            ),
            FreezeError::EmptyOutcome => {
                write!(f, "cannot freeze an outcome with no extracted triples")
            }
            FreezeError::NoTrainingData => write!(
                f,
                "cannot freeze: the final triples project onto no corpus sentences"
            ),
            FreezeError::SilentBackend(backend) => write!(
                f,
                "cannot freeze: the {backend} backend decodes no span on the freeze corpus"
            ),
            FreezeError::ServesNothing => write!(
                f,
                "cannot freeze: the frozen model extracts no triple from the freeze corpus"
            ),
        }
    }
}

impl std::error::Error for FreezeError {}

/// A trained tagger in frozen (serializable) form.
#[derive(Debug, Clone, PartialEq)]
pub enum FrozenTagger {
    /// Linear-chain CRF: flat parameters + the feature vocabulary in
    /// interning order + the template configuration.
    Crf {
        /// Number of BIO labels.
        n_labels: usize,
        /// Flat parameter vector ([`pae_crf::CrfModel::params`] layout).
        params: Vec<f64>,
        /// Feature names in id order; re-interning them reproduces the
        /// decode-time [`pae_crf::FeatureIndex`] id for id.
        feature_names: Vec<String>,
        /// Feature template window radius.
        window: usize,
        /// Sentence-number feature cap.
        max_sentence_bucket: usize,
    },
    /// Char+word BiLSTM, in [`pae_neural::BiLstmTagger::to_bytes`] form.
    Rnn {
        /// The network's byte codec.
        bytes: Vec<u8>,
    },
    /// Precision-first ensemble: both backends, intersected at decode.
    Ensemble {
        /// The CRF arm.
        crf: Box<FrozenTagger>,
        /// The RNN arm.
        rnn: Box<FrozenTagger>,
    },
}

/// Summary of the pipeline configuration a model was frozen from,
/// echoed into the bundle for provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigEcho {
    /// Bootstrap iterations the run used.
    pub iterations: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Tagger backend name (`"crf"`, `"rnn"`, `"ensemble"`).
    pub tagger: String,
}

/// A trained run frozen for serving. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenModel {
    /// Corpus language (selects the serve-time tokenizer).
    pub language: Language,
    /// Segmentation/PoS lexicon.
    pub lexicon: Lexicon,
    /// BIO label space attribute names, sorted.
    pub attrs: Vec<String>,
    /// The serving tagger.
    pub tagger: FrozenTagger,
    /// Whether the per-triple veto rules run at serve time.
    pub use_veto: bool,
    /// Veto rule 4's length bound.
    pub max_value_chars: usize,
    /// Veto rule 3 frozen: `(attr, value)` pairs the popularity ranking
    /// dropped at freeze time, sorted.
    pub veto_blocklist: Vec<(String, String)>,
    /// The semantic cleaner's frozen state (`None` when semantic
    /// cleaning is off or the corpus yielded no word2vec model).
    pub semantic: Option<SemanticFreeze>,
    /// Freeze-time extraction behavior over the training corpus, the
    /// baseline the serving quality monitor scores live traffic
    /// against (`None` serves in "no-reference" mode).
    pub reference: Option<ReferenceStats>,
    /// Configuration echo for provenance.
    pub config: ConfigEcho,
}

impl FrozenModel {
    /// Freezes a finished run: trains the serving tagger on the final
    /// triples, bakes veto rule 3 into a blocklist, and captures the
    /// semantic cleaner's vectors and cores.
    ///
    /// Fails closed when the reference pass over the freeze corpus
    /// shows a backend that decodes no span or a model that extracts
    /// no triple: such a bundle would load and serve nothing.
    ///
    /// `config` must be the configuration `outcome` was produced with
    /// and `corpus` the parsed corpus it ran on.
    pub fn freeze(
        dataset: &Dataset,
        corpus: &Corpus,
        outcome: &BootstrapOutcome,
        config: &PipelineConfig,
    ) -> Result<FrozenModel, FreezeError> {
        let _span = pae_obs::span("freeze");
        if config.pos_backend == PosBackend::Hmm {
            return Err(FreezeError::HmmPosBackend);
        }
        let final_triples = outcome.final_triples();
        if final_triples.is_empty() {
            return Err(FreezeError::EmptyOutcome);
        }
        let space = &outcome.label_space;

        // Diversified category-level extras, exactly as the loop builds
        // them — the serving tagger trains on the same labelled slice
        // the last in-loop tagger would have.
        let extra_values = outcome.diversified.pairs();
        let labeled = generate_training_set(corpus, &final_triples, space, &extra_values);
        if labeled.is_empty() {
            return Err(FreezeError::NoTrainingData);
        }

        let n_labels = space.n_labels();
        let crf = || Box::new(TrainedTagger::train_crf(&labeled, n_labels, &config.crf));
        let rnn = || Box::new(TrainedTagger::train_rnn(&labeled, n_labels, &config.rnn));
        let (backend, tagger_name) = match config.tagger {
            TaggerKind::Crf => (ExtractBackend::One(crf()), "crf"),
            TaggerKind::Rnn => (ExtractBackend::One(rnn()), "rnn"),
            TaggerKind::Ensemble => (ExtractBackend::Ensemble(crf(), rnn()), "ensemble"),
        };

        // Rule 3's corpus statistics, baked in: decode the freeze corpus
        // with the serving tagger, pool with the accepted triples, and
        // record which pairs the popularity ranking rejects.
        let veto_blocklist = if config.use_veto {
            let mut pool = final_triples.clone();
            pool.extend(backend.decode(|t| extract_candidates(t, corpus, space)));
            pool.sort();
            pool.dedup();
            pool.retain(|t| per_triple_veto(&t.value, config.max_value_chars).is_none());
            unpopular_blocklist(&pool, config.unpopular_keep)
        } else {
            Vec::new()
        };

        let semantic = if config.use_semantic {
            freeze_semantic(
                &final_triples,
                &corpus.word_sentences(),
                &config.semantic,
                config.seed.wrapping_add(config.iterations as u64 + 1),
            )
        } else {
            None
        };

        let tagger = match backend {
            ExtractBackend::One(t) => freeze_tagger(*t),
            ExtractBackend::Ensemble(crf, rnn) => FrozenTagger::Ensemble {
                crf: Box::new(freeze_tagger(*crf)),
                rnn: Box::new(freeze_tagger(*rnn)),
            },
        };
        let mut model = FrozenModel {
            language: dataset.language(),
            lexicon: dataset.lexicon.clone(),
            attrs: space.attrs().to_vec(),
            tagger,
            use_veto: config.use_veto,
            max_value_chars: config.max_value_chars,
            veto_blocklist,
            semantic,
            reference: None,
            config: ConfigEcho {
                iterations: config.iterations,
                seed: config.seed,
                tagger: tagger_name.to_owned(),
            },
        };
        let reference = compute_reference(&model, dataset);
        if let Some(silent) = reference
            .backends
            .iter()
            .find(|b| b.confidence.iter().all(|&n| n == 0))
        {
            return Err(FreezeError::SilentBackend(silent.backend.clone()));
        }
        if reference.total_triples == 0 {
            return Err(FreezeError::ServesNothing);
        }
        model.reference = Some(reference);
        Ok(model)
    }

    /// Builds the extractor a server loading this model runs: encodes
    /// the model as a bundle and loads it ([`LoadedBundle::extractor`]).
    ///
    /// Fails (with a message naming the defect) when the model is
    /// internally inconsistent, e.g. a CRF parameter vector that does
    /// not match its feature and label counts.
    pub fn extractor(&self) -> Result<FrozenExtractor, String> {
        LoadedBundle::from_bytes(encode(self))
            .and_then(|bundle| bundle.extractor())
            .map_err(|e| e.to_string())
    }
}

/// The serializable form of a freshly trained tagger.
fn freeze_tagger(tagger: TrainedTagger) -> FrozenTagger {
    match tagger {
        TrainedTagger::Crf {
            model,
            extractor,
            index,
        } => FrozenTagger::Crf {
            n_labels: model.n_labels,
            params: model.params,
            feature_names: (0..index.len() as u32)
                .map(|id| index.name_of(id).to_owned())
                .collect(),
            window: extractor.templates.window,
            max_sentence_bucket: extractor.templates.max_sentence_bucket,
        },
        TrainedTagger::Rnn { model } => FrozenTagger::Rnn {
            bytes: model.to_bytes(),
        },
    }
}

/// The composite automaton key for a blocked `(attr, value)` pair:
/// `attr ++ 0xFF ++ value`. `0xFF` never occurs in UTF-8, so the
/// separator is unambiguous.
pub(crate) fn blocklist_key(attr: &str, value: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(attr.len() + value.len() + 1);
    key.extend_from_slice(attr.as_bytes());
    key.push(0xFF);
    key.extend_from_slice(value.as_bytes());
    key
}

/// The extraction tagger: one backend or the intersected pair (what a
/// loaded bundle serves, and what `freeze` decodes rule 3's corpus
/// statistics with).
pub(crate) enum ExtractBackend {
    One(Box<TrainedTagger>),
    Ensemble(Box<TrainedTagger>, Box<TrainedTagger>),
}

impl ExtractBackend {
    /// Decodes with each arm and merges: one backend's candidates as
    /// they come, an ensemble's arms intersected. `decode` must return
    /// its candidates sorted and deduplicated.
    fn decode(&self, mut decode: impl FnMut(&TrainedTagger) -> Vec<Triple>) -> Vec<Triple> {
        match self {
            ExtractBackend::One(t) => decode(t),
            ExtractBackend::Ensemble(a, b) => {
                let xa = decode(a);
                let xb = decode(b);
                intersect_sorted(xa, &xb)
            }
        }
    }
}

/// Builds [`ReferenceStats`] for a freshly frozen model by running the
/// instrumented extraction path over the training corpus pages in
/// order. Deterministic: extraction is per-page pure and the fold is
/// commutative counters, so the result is bit-identical at any thread
/// count.
fn compute_reference(model: &FrozenModel, dataset: &Dataset) -> ReferenceStats {
    let _span = pae_obs::span("freeze.reference");
    let extractor = model
        .extractor()
        .expect("fresh frozen model encodes and loads");
    let mut builder = ReferenceBuilder::new(extractor.attrs(), &extractor.backend_names());
    let observed = pae_runtime::parallel_map(&dataset.pages, |_, page| {
        extractor.extract_page_observed(page.id, &page.html)
    });
    for (triples, obs) in &observed {
        builder.observe_page(triples, obs);
    }
    builder.finish()
}

/// A loaded frozen model, ready to extract triples from product
/// pages. Holds the warm tokenizer/lexicon/tagger state; immutable
/// after construction, so one instance can serve concurrent requests
/// behind an `Arc`. Built only by [`LoadedBundle::extractor`].
pub struct FrozenExtractor {
    pub(crate) tokenizer: Box<dyn Tokenizer>,
    pub(crate) pos_tagger: LexiconPosTagger,
    pub(crate) splitter: SentenceSplitter,
    pub(crate) space: LabelSpace,
    pub(crate) backend: ExtractBackend,
    pub(crate) use_veto: bool,
    pub(crate) max_value_chars: usize,
    /// Veto rule 3 frozen: an automaton over [`blocklist_key`]s,
    /// borrowing the bundle's bytes.
    pub(crate) veto_blocklist: Fst,
    pub(crate) semantic: Option<SemanticFreeze>,
}

impl FrozenExtractor {
    /// The attribute names this model extracts.
    pub fn attrs(&self) -> &[String] {
        self.space.attrs()
    }

    /// Extracts cleaned triples from one product page's HTML: the
    /// triples of [`extract_page_observed`](Self::extract_page_observed),
    /// the one extraction body.
    pub fn extract_page(&self, product: u32, html: &str) -> Vec<Triple> {
        self.extract_page_observed(product, html).0
    }

    /// Extracts cleaned triples from one product page's HTML, plus a
    /// quality-observation overlay: token/OOV counts and per-backend
    /// span confidences for the quality monitor.
    ///
    /// The page is read as corpus parsing reads it ([`analyze_page`]:
    /// `<title>` content first, then the split free text, dictionary
    /// tables excluded) and decoded with [`decode_sentences`]; an
    /// ensemble keeps the triples both arms produced. Candidates then
    /// pass the per-triple veto rules, the frozen rule-3 blocklist, and
    /// the frozen semantic filter. Observation is strictly read-only —
    /// the scored tagger decodes exactly as the plain one, and nothing
    /// recorded here feeds back into extraction.
    pub fn extract_page_observed(
        &self,
        product: u32,
        html: &str,
    ) -> (Vec<Triple>, PageObservation) {
        let _span = pae_obs::span("frozen.extract_page");
        let sentences = analyze_page(
            &parse(html),
            &self.splitter,
            self.tokenizer.as_ref(),
            &self.pos_tagger,
        );
        let lexicon = self.pos_tagger.lexicon();
        let mut tokens = 0u64;
        let mut oov_tokens = 0u64;
        for sentence in &sentences {
            for word in sentence.words() {
                tokens += 1;
                if !lexicon.contains(word) {
                    oov_tokens += 1;
                }
            }
        }
        let mut confidences: Vec<Vec<f64>> = Vec::new();
        let candidates = self.backend.decode(|tagger| {
            let mut confs = Vec::new();
            let mut out =
                decode_sentences(tagger, product, &sentences, &self.space, Some(&mut confs));
            out.sort();
            out.dedup();
            confidences.push(confs);
            out
        });
        let kept: Vec<Triple> = candidates.into_iter().filter(|t| self.keeps(t)).collect();
        (
            kept,
            PageObservation {
                tokens,
                oov_tokens,
                confidences,
            },
        )
    }

    /// The backend names, in the order
    /// [`PageObservation::confidences`] reports them (the CRF arm
    /// first for ensembles).
    pub fn backend_names(&self) -> Vec<&'static str> {
        fn name(t: &TrainedTagger) -> &'static str {
            match t {
                TrainedTagger::Crf { .. } => "crf",
                TrainedTagger::Rnn { .. } => "rnn",
            }
        }
        match &self.backend {
            ExtractBackend::One(t) => vec![name(t)],
            ExtractBackend::Ensemble(a, b) => vec![name(a), name(b)],
        }
    }

    /// Batch variant of
    /// [`extract_page_observed`](Self::extract_page_observed), run
    /// concurrently on the [`pae_runtime`] worker pool: per-page
    /// `(triples, observation)` pairs in input order. Pages are
    /// independent, so the output is the same at any thread count.
    pub fn extract_pages_observed(
        &self,
        pages: &[(u32, String)],
    ) -> Vec<(Vec<Triple>, PageObservation)> {
        pae_runtime::parallel_map(pages, |_, (id, html)| self.extract_page_observed(*id, html))
    }

    /// The frozen cleaning decision for one candidate triple.
    fn keeps(&self, t: &Triple) -> bool {
        if self.use_veto {
            if per_triple_veto(&t.value, self.max_value_chars).is_some() {
                return false;
            }
            if self
                .veto_blocklist
                .get(&blocklist_key(&t.attr, &t.value))
                .is_some()
            {
                return false;
            }
        }
        match &self.semantic {
            Some(s) => s.keeps(&t.attr, &t.value),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapPipeline;
    use crate::corpus::parse_corpus;
    use pae_synth::{CategoryKind, DatasetSpec};

    fn quick_config() -> PipelineConfig {
        let mut cfg = PipelineConfig {
            iterations: 1,
            ..Default::default()
        };
        cfg.crf.max_iters = 40;
        cfg
    }

    fn frozen_fixture() -> (Dataset, Corpus, FrozenModel) {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(60)
            .generate();
        let corpus = parse_corpus(&dataset);
        let cfg = quick_config();
        let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);
        let model = FrozenModel::freeze(&dataset, &corpus, &outcome, &cfg).expect("freeze");
        (dataset, corpus, model)
    }

    #[test]
    fn freeze_and_extract_training_pages() {
        let (dataset, _, model) = frozen_fixture();
        assert!(!model.attrs.is_empty());
        assert_eq!(model.config.tagger, "crf");
        let extractor = model.extractor().expect("extractor");
        let mut n_total = 0usize;
        for page in dataset.pages.iter().take(20) {
            let triples = extractor.extract_page(page.id, &page.html);
            for t in &triples {
                assert_eq!(t.product, page.id);
                assert!(model.attrs.contains(&t.attr), "unknown attr {t:?}");
            }
            n_total += triples.len();
        }
        assert!(n_total > 0, "frozen extractor found nothing");
    }

    #[test]
    fn frozen_extraction_is_deterministic_across_thread_counts() {
        let (dataset, _, model) = frozen_fixture();
        let extractor = model.extractor().unwrap();
        let pages: Vec<(u32, String)> = dataset
            .pages
            .iter()
            .take(16)
            .map(|p| (p.id, p.html.clone()))
            .collect();
        let one = pae_runtime::with_jobs(1, || extractor.extract_pages_observed(&pages));
        let four = pae_runtime::with_jobs(4, || extractor.extract_pages_observed(&pages));
        assert_eq!(one, four);
        assert!(one.iter().any(|(triples, _)| !triples.is_empty()));
    }

    /// The confidence sink is a read-only overlay: with it the decoder
    /// yields the triples it yields without, one confidence each.
    #[test]
    fn observed_extraction_is_byte_identical_to_plain() {
        let (dataset, _, model) = frozen_fixture();
        let ex = model.extractor().unwrap();
        let ExtractBackend::One(tagger) = &ex.backend else {
            panic!("expected one backend");
        };
        let mut any_confidence = false;
        for page in dataset.pages.iter().take(12) {
            let forest = parse(&page.html);
            let sentences =
                analyze_page(&forest, &ex.splitter, ex.tokenizer.as_ref(), &ex.pos_tagger);
            let mut confs = Vec::new();
            let scored = decode_sentences(tagger, page.id, &sentences, &ex.space, Some(&mut confs));
            let plain = decode_sentences(tagger, page.id, &sentences, &ex.space, None);
            assert_eq!(plain, scored, "observation changed extraction");
            let (_, obs) = ex.extract_page_observed(page.id, &page.html);
            assert!(obs.tokens > 0 && obs.tokens >= obs.oov_tokens);
            assert_eq!(obs.confidences, vec![confs]);
            for &c in &obs.confidences[0] {
                assert!((0.0..=1.0 + 1e-9).contains(&c), "confidence {c}");
                any_confidence = true;
            }
        }
        assert!(any_confidence, "no spans decoded on any page");
    }

    #[test]
    fn freeze_embeds_reference_stats() {
        let (dataset, _, model) = frozen_fixture();
        let reference = model.reference.as_ref().expect("freeze computes reference");
        assert_eq!(reference.pages, dataset.pages.len() as u64);
        assert!(reference.total_triples > 0, "reference saw no extractions");
        assert_eq!(reference.attrs.len(), model.attrs.len());
        assert!(reference.tokens > 0);
        assert!(reference.oov_tokens <= reference.tokens);
        assert_eq!(reference.backends.len(), 1);
        assert_eq!(reference.backends[0].backend, "crf");
        assert!(reference.backends[0].confidence.iter().sum::<u64>() > 0);
        let busiest = reference
            .attrs
            .iter()
            .max_by_key(|a| a.triples)
            .expect("attrs nonempty");
        assert!(!busiest.top_values.is_empty());
        assert_eq!(
            busiest.value_len.iter().sum::<u64>(),
            busiest.triples,
            "length histogram must cover every triple"
        );
    }

    #[test]
    fn hmm_backend_refuses_to_freeze() {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(40)
            .generate();
        let mut cfg = quick_config();
        cfg.pos_backend = PosBackend::Hmm;
        let corpus = crate::corpus::parse_corpus_with(&dataset, PosBackend::Hmm);
        let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);
        let err = FrozenModel::freeze(&dataset, &corpus, &outcome, &cfg).unwrap_err();
        assert_eq!(err, FreezeError::HmmPosBackend);
        assert!(err.to_string().contains("HMM"));
    }

    #[test]
    fn rnn_and_ensemble_backends_freeze() {
        let dataset = DatasetSpec::new(CategoryKind::LadiesBags, 7)
            .products(40)
            .generate();
        let corpus = parse_corpus(&dataset);
        for kind in [TaggerKind::Rnn, TaggerKind::Ensemble] {
            let mut cfg = quick_config();
            cfg.tagger = kind;
            // Two epochs (the default) leave the RNN tagging nothing.
            cfg.rnn.epochs = 10;
            let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);
            let model = FrozenModel::freeze(&dataset, &corpus, &outcome, &cfg).expect("freeze");
            let extractor = model.extractor().expect("extractor");
            // Must at least run without error on a page.
            let _ = extractor.extract_page(dataset.pages[0].id, &dataset.pages[0].html);
            if let FrozenTagger::Ensemble { crf, rnn } = &model.tagger {
                assert_ensemble_serves_its_arms_intersection(&dataset, &model, crf, rnn);
            }
        }
    }

    /// An ensemble whose RNN arm trained two epochs (the default)
    /// decodes no RNN span, so the intersection serves nothing: freeze
    /// refuses it instead of writing a bundle that extracts nothing.
    #[test]
    fn ensemble_with_a_silent_arm_refuses_to_freeze() {
        let dataset = DatasetSpec::new(CategoryKind::LadiesBags, 7)
            .products(40)
            .generate();
        let corpus = parse_corpus(&dataset);
        for kind in [TaggerKind::Rnn, TaggerKind::Ensemble] {
            let cfg = PipelineConfig {
                tagger: kind,
                ..quick_config()
            };
            let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);
            let err = FrozenModel::freeze(&dataset, &corpus, &outcome, &cfg).unwrap_err();
            assert_eq!(
                err,
                FreezeError::SilentBackend("rnn".to_owned()),
                "{kind:?}"
            );
            assert!(err.to_string().contains("rnn backend"), "{err}");
        }
    }

    /// The served ensemble keeps exactly the triples both arms serve
    /// alone (the same model with `tagger` set to one arm), in triple
    /// order, and reports each arm's confidences as that arm does.
    fn assert_ensemble_serves_its_arms_intersection(
        dataset: &Dataset,
        model: &FrozenModel,
        crf: &FrozenTagger,
        rnn: &FrozenTagger,
    ) {
        let arm = |tagger: &FrozenTagger| {
            FrozenModel {
                tagger: tagger.clone(),
                ..model.clone()
            }
            .extractor()
            .expect("arm extractor")
        };
        let (ensemble, crf, rnn) = (model.extractor().unwrap(), arm(crf), arm(rnn));
        let mut n_kept = 0;
        for page in &dataset.pages {
            let serve = |ex: &FrozenExtractor| ex.extract_page_observed(page.id, &page.html);
            let ((kept, obs), (crf_kept, crf_obs), (rnn_kept, rnn_obs)) =
                (serve(&ensemble), serve(&crf), serve(&rnn));
            let both: Vec<Triple> = crf_kept
                .into_iter()
                .filter(|t| rnn_kept.contains(t))
                .collect();
            assert_eq!(kept, both, "page {}", page.id);
            let arms = [crf_obs.confidences, rnn_obs.confidences].concat();
            assert_eq!(obs.confidences, arms, "page {}", page.id);
            n_kept += kept.len();
        }
        assert!(n_kept > 0, "the ensemble served nothing");
    }

    #[test]
    fn corrupt_frozen_crf_is_rejected() {
        let (_, _, mut model) = frozen_fixture();
        if let FrozenTagger::Crf { params, .. } = &mut model.tagger {
            params.pop();
        } else {
            panic!("expected CRF");
        }
        let err = match model.extractor() {
            Ok(_) => panic!("corrupt CRF was accepted"),
            Err(e) => e,
        };
        assert!(err.contains("parameter vector"), "{err}");
    }
}
