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
//! extractor's page pipeline mirrors [`parse_corpus_with`] exactly
//! (title first, then split free text, tables excluded), so frozen
//! extraction over a training page agrees with what the in-loop tagger
//! saw.
//!
//! [`LoadedBundle::extractor`]: crate::bundle::LoadedBundle::extractor
//! [`parse_corpus_with`]: crate::corpus::parse_corpus_with

use pae_fst::Fst;
use pae_html::{extract_text, parse, TextOptions};
use pae_synth::{Dataset, Language};
use pae_text::{Lexicon, LexiconPosTagger, PosTag, Sentence, SentenceSplitter, Tokenizer};

use crate::bootstrap::BootstrapOutcome;
use crate::bundle::{encode, LoadedBundle};
use crate::cleaning::veto::{per_triple_veto, unpopular_blocklist};
use crate::cleaning::{freeze_semantic, SemanticFreeze};
use crate::config::{PipelineConfig, TaggerKind};
use crate::corpus::{Corpus, PosBackend};
use crate::quality::{PageObservation, ReferenceBuilder, ReferenceStats};
use crate::tagger::{extract_candidates, TrainedTagger};
use crate::trainset::{decode_spans, generate_training_set, LabelSpace};
use crate::types::Triple;

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
            pool.extend(extract_with(&backend, corpus, space));
            pool.sort_by(|a, b| {
                (a.product, &a.attr, &a.value).cmp(&(b.product, &b.attr, &b.value))
            });
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
        model.reference = Some(compute_reference(&model, dataset));
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

/// Decodes one page's sentences into candidate triples (sorted,
/// deduplicated) with one backend.
fn decode_sentences(
    tagger: &TrainedTagger,
    product: u32,
    sentences: &[Sentence],
    space: &LabelSpace,
) -> Vec<Triple> {
    let mut out = Vec::new();
    for (sent_idx, sentence) in sentences.iter().enumerate() {
        let words: Vec<String> = sentence.words().map(str::to_owned).collect();
        if words.is_empty() {
            continue;
        }
        let pos: Vec<PosTag> = sentence.tokens.iter().map(|t| t.pos).collect();
        let labels = tagger.tag(&words, &pos, sent_idx);
        for (attr, range) in decode_spans(&labels, space) {
            let value = words[range].join(" ");
            out.push(Triple::new(product, space.attrs()[attr].clone(), value));
        }
    }
    out.sort_by(|a, b| (a.product, &a.attr, &a.value).cmp(&(b.product, &b.attr, &b.value)));
    out.dedup();
    out
}

/// [`decode_sentences`] with a per-span confidence overlay: identical
/// candidate triples (the labels come from
/// [`TrainedTagger::tag_scored`], which decodes exactly as
/// [`TrainedTagger::tag`]), plus the mean token confidence of each
/// decoded span appended to `confidences` in decode order. Confidence
/// is observational only — it never affects what is extracted.
fn decode_sentences_observed(
    tagger: &TrainedTagger,
    product: u32,
    sentences: &[Sentence],
    space: &LabelSpace,
    confidences: &mut Vec<f64>,
) -> Vec<Triple> {
    let mut out = Vec::new();
    for (sent_idx, sentence) in sentences.iter().enumerate() {
        let words: Vec<String> = sentence.words().map(str::to_owned).collect();
        if words.is_empty() {
            continue;
        }
        let pos: Vec<PosTag> = sentence.tokens.iter().map(|t| t.pos).collect();
        let (labels, scores) = tagger.tag_scored(&words, &pos, sent_idx);
        for (attr, range) in decode_spans(&labels, space) {
            let span = &scores[range.clone()];
            let conf = if span.is_empty() {
                0.0
            } else {
                span.iter().sum::<f64>() / span.len() as f64
            };
            confidences.push(conf);
            let value = words[range].join(" ");
            out.push(Triple::new(product, space.attrs()[attr].clone(), value));
        }
    }
    out.sort_by(|a, b| (a.product, &a.attr, &a.value).cmp(&(b.product, &b.attr, &b.value)));
    out.dedup();
    out
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

/// Corpus-wide extraction with freshly trained taggers (freeze-time
/// rule-3 statistics).
fn extract_with(backend: &ExtractBackend, corpus: &Corpus, space: &LabelSpace) -> Vec<Triple> {
    match backend {
        ExtractBackend::One(t) => extract_candidates(t, corpus, space),
        ExtractBackend::Ensemble(a, b) => {
            let xa = extract_candidates(a, corpus, space);
            let xb = extract_candidates(b, corpus, space);
            intersect(xa, &xb)
        }
    }
}

/// Intersection of two sorted, deduplicated triple lists.
fn intersect(a: Vec<Triple>, b: &[Triple]) -> Vec<Triple> {
    let key = |t: &Triple| (t.product, t.attr.clone(), t.value.clone());
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let mut j = 0;
    for t in a {
        let k = key(&t);
        while j < b.len() && key(&b[j]) < k {
            j += 1;
        }
        if j < b.len() && key(&b[j]) == k {
            out.push(t);
        }
    }
    out
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

    /// Extracts cleaned triples from one product page's HTML.
    ///
    /// The page pipeline mirrors corpus parsing exactly: `<title>`
    /// content first, then the split free text, dictionary tables
    /// excluded. Candidates then pass the per-triple veto rules, the
    /// frozen rule-3 blocklist, and the frozen semantic filter.
    pub fn extract_page(&self, product: u32, html: &str) -> Vec<Triple> {
        let _span = pae_obs::span("frozen.extract_page");
        let sentences = self.page_sentences(html);
        let candidates = match &self.backend {
            ExtractBackend::One(t) => decode_sentences(t, product, &sentences, &self.space),
            ExtractBackend::Ensemble(a, b) => {
                let xa = decode_sentences(a, product, &sentences, &self.space);
                let xb = decode_sentences(b, product, &sentences, &self.space);
                intersect(xa, &xb)
            }
        };
        candidates.into_iter().filter(|t| self.keeps(t)).collect()
    }

    /// [`extract_page`](Self::extract_page) with a quality-observation
    /// overlay: byte-identical triples (same tokenize → tag → decode →
    /// clean pipeline; the scored tagger decodes exactly as the plain
    /// one), plus token/OOV counts and per-backend span confidences for
    /// the quality monitor. Observation is strictly read-only — nothing
    /// recorded here feeds back into extraction.
    pub fn extract_page_observed(
        &self,
        product: u32,
        html: &str,
    ) -> (Vec<Triple>, PageObservation) {
        let _span = pae_obs::span("frozen.extract_page");
        let sentences = self.page_sentences(html);
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
        let candidates = match &self.backend {
            ExtractBackend::One(t) => {
                let mut confs = Vec::new();
                let out =
                    decode_sentences_observed(t, product, &sentences, &self.space, &mut confs);
                confidences.push(confs);
                out
            }
            ExtractBackend::Ensemble(a, b) => {
                let mut ca = Vec::new();
                let mut cb = Vec::new();
                let xa = decode_sentences_observed(a, product, &sentences, &self.space, &mut ca);
                let xb = decode_sentences_observed(b, product, &sentences, &self.space, &mut cb);
                confidences.push(ca);
                confidences.push(cb);
                intersect(xa, &xb)
            }
        };
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

    /// The page pipeline shared by the plain and observed extraction
    /// paths: `<title>` content first, then the split free text,
    /// dictionary tables excluded (mirrors corpus parsing exactly).
    fn page_sentences(&self, html: &str) -> Vec<Sentence> {
        let forest = parse(html);
        let mut sentences = Vec::new();
        for title in pae_html::dom::find_all(&forest, "title") {
            let t = title.text_content();
            if !t.is_empty() {
                sentences.push(Sentence::analyze(
                    &t,
                    self.tokenizer.as_ref(),
                    &self.pos_tagger,
                ));
            }
        }
        let text = extract_text(&forest, &TextOptions::default());
        for raw in self.splitter.split(&text) {
            let s = Sentence::analyze(&raw, self.tokenizer.as_ref(), &self.pos_tagger);
            if !s.is_empty() {
                sentences.push(s);
            }
        }
        sentences
    }

    /// Extracts from many pages concurrently on the [`pae_runtime`]
    /// worker pool. Pages are independent, so the output is the
    /// concatenation of [`extract_page`](Self::extract_page) results in
    /// input order, at any thread count.
    pub fn extract_pages(&self, pages: &[(u32, String)]) -> Vec<Triple> {
        let per_page =
            pae_runtime::parallel_map(pages, |_, (id, html)| self.extract_page(*id, html));
        per_page.into_iter().flatten().collect()
    }

    /// Batch variant of
    /// [`extract_page_observed`](Self::extract_page_observed): per-page
    /// `(triples, observation)` pairs in input order. Concatenating the
    /// triples reproduces [`extract_pages`](Self::extract_pages)
    /// byte for byte.
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
        let one = pae_runtime::with_jobs(1, || extractor.extract_pages(&pages));
        let four = pae_runtime::with_jobs(4, || extractor.extract_pages(&pages));
        assert_eq!(one, four);
        assert!(!one.is_empty());
    }

    #[test]
    fn observed_extraction_is_byte_identical_to_plain() {
        let (dataset, _, model) = frozen_fixture();
        let extractor = model.extractor().unwrap();
        assert_eq!(extractor.backend_names(), vec!["crf"]);
        let mut any_confidence = false;
        for page in dataset.pages.iter().take(12) {
            let plain = extractor.extract_page(page.id, &page.html);
            let (observed, obs) = extractor.extract_page_observed(page.id, &page.html);
            assert_eq!(plain, observed, "observation changed extraction");
            assert!(obs.tokens >= obs.oov_tokens);
            assert!(obs.tokens > 0);
            assert_eq!(obs.confidences.len(), 1);
            for &c in &obs.confidences[0] {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&c),
                    "confidence {c} out of range"
                );
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
            let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);
            let model = FrozenModel::freeze(&dataset, &corpus, &outcome, &cfg).expect("freeze");
            let extractor = model.extractor().expect("extractor");
            // Must at least run without error on a page.
            let _ = extractor.extract_page(dataset.pages[0].id, &dataset.pages[0].html);
        }
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
