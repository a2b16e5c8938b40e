//! Tagger backends (§V-B): CRF and BiLSTM behind one interface, and
//! [`decode_sentences`], the one sentence → labels → triples decoder
//! that the bootstrap loop, freeze and the served extractor all run.

// The two backends legitimately differ a lot in size; boxing the CRF
// fields would only add indirection on the hot decode path.
#![allow(clippy::large_enum_variant)]

use std::collections::HashMap;

use pae_crf::data::FeatId;
use pae_crf::{CrfModel, ExtractScratch, FeatureExtractor, FeatureIndex, Instance};
use pae_neural::{BiLstmTagger, TaggerConfig};
use pae_text::{PosTag, Sentence};

use crate::config::{CrfOptions, RnnOptions};
use crate::corpus::Corpus;
use crate::timing::CrfStageTimings;
use crate::trainset::{decode_spans, LabelSpace, LabeledSentence};
use crate::types::Triple;

/// Cross-cycle CRF training state: a persistent feature arena plus a
/// per-sentence feature cache.
///
/// The bootstrap loop re-trains on largely the same sentences every
/// cycle (only their labels change), so re-running the feature
/// templates and re-interning every string each cycle is pure waste.
/// The context interns into a private, grow-only [`FeatureIndex`] and
/// caches each sentence's encoded features; at train time the private
/// ids are renumbered in first-encounter order, which reproduces — id
/// for id — what fresh interning over this cycle's sentences would
/// have produced. Training is therefore byte-identical to the
/// context-free path.
///
/// Cache entries are verified against the sentence's words and tags on
/// every hit (keys are `(product, sent_idx)`, which is not injective
/// for synthetic fixtures), so a stale entry can never leak features.
#[derive(Debug, Default)]
pub struct CrfTrainContext {
    index: FeatureIndex,
    cache: HashMap<(u32, usize), CachedSentence>,
    scratch: ExtractScratch,
    window: Option<usize>,
}

#[derive(Debug)]
struct CachedSentence {
    words: Vec<String>,
    pos: Vec<PosTag>,
    /// Per-position feature ids in the context's *private* index.
    feats: Vec<Vec<FeatId>>,
}

impl CrfTrainContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A trained sequence tagger.
pub enum TrainedTagger {
    /// Linear-chain CRF with the paper's feature templates.
    Crf {
        /// The trained model.
        model: CrfModel,
        /// Feature templates.
        extractor: FeatureExtractor,
        /// Frozen feature index.
        index: FeatureIndex,
    },
    /// Char+word BiLSTM.
    Rnn {
        /// The trained network.
        model: BiLstmTagger,
    },
}

impl TrainedTagger {
    /// Trains a CRF on the labelled sentences (fresh feature state;
    /// see [`train_crf_with`](Self::train_crf_with) for the
    /// cross-cycle variant).
    pub fn train_crf(
        sentences: &[LabeledSentence],
        n_labels: usize,
        options: &CrfOptions,
    ) -> TrainedTagger {
        Self::train_crf_with(sentences, n_labels, options, &mut CrfTrainContext::new()).0
    }

    /// Trains a CRF, reusing `ctx`'s feature index and per-sentence
    /// feature cache across calls. Output is byte-identical to
    /// [`train_crf`](Self::train_crf) on the same sentences; the
    /// context only removes repeated extraction work. Also reports the
    /// training sub-stage wall clock.
    pub fn train_crf_with(
        sentences: &[LabeledSentence],
        n_labels: usize,
        options: &CrfOptions,
        ctx: &mut CrfTrainContext,
    ) -> (TrainedTagger, CrfStageTimings) {
        // Cached features depend on the template window; a changed
        // window invalidates everything.
        if ctx.window != Some(options.window) {
            *ctx = CrfTrainContext::new();
            ctx.window = Some(options.window);
        }
        let extractor = FeatureExtractor::new(pae_crf::FeatureTemplates {
            window: options.window,
            max_sentence_bucket: 8,
        });

        let feat_span = pae_obs::span("crf.extract_features");
        // Encode every sentence into the private index (cache hits skip
        // extraction entirely), renumbering private ids in
        // first-encounter order — exactly the ids fresh interning over
        // these sentences would assign.
        let mut remap: Vec<u32> = vec![u32::MAX; ctx.index.len()];
        let mut order: Vec<FeatId> = Vec::new();
        let mut instances: Vec<Instance> = Vec::with_capacity(sentences.len());
        for s in sentences {
            let key = (s.product, s.sent_idx);
            let hit = matches!(
                ctx.cache.get(&key),
                Some(c) if c.words == s.words && c.pos == s.pos
            );
            if !hit {
                let words: Vec<&str> = s.words.iter().map(String::as_str).collect();
                let pos: Vec<&str> = s.pos.iter().map(|p| p.mnemonic()).collect();
                let mut feats = Vec::new();
                extractor.encode_train_into(
                    &words,
                    &pos,
                    s.sent_idx,
                    &mut ctx.index,
                    &mut ctx.scratch,
                    &mut feats,
                );
                ctx.cache.insert(
                    key,
                    CachedSentence {
                        words: s.words.clone(),
                        pos: s.pos.clone(),
                        feats,
                    },
                );
                if remap.len() < ctx.index.len() {
                    remap.resize(ctx.index.len(), u32::MAX);
                }
            }
            let cached = &ctx.cache[&key];
            let features: Vec<Vec<FeatId>> = cached
                .feats
                .iter()
                .map(|fs| {
                    fs.iter()
                        .map(|&pf| {
                            let slot = &mut remap[pf as usize];
                            if *slot == u32::MAX {
                                *slot = order.len() as u32;
                                order.push(pf);
                            }
                            *slot
                        })
                        .collect()
                })
                .collect();
            instances.push(Instance {
                features,
                labels: s.labels.clone(),
            });
        }
        // Public decode index: the renumbered feature strings, interned
        // in public-id order (ids 0..n by construction).
        let index = FeatureIndex::from_names(order.iter().map(|&pf| ctx.index.name_of(pf)));
        let features_time = feat_span.finish();

        // CRFsuite-style minfreq pruning: drop singleton features from
        // the instances. Their ids stay allocated (the weight simply
        // remains zero) — cheap, and decode-time lookups are unchanged.
        if options.min_feature_freq > 1 {
            let mut counts = vec![0usize; index.len()];
            for inst in &instances {
                for feats in &inst.features {
                    for &f in feats {
                        counts[f as usize] += 1;
                    }
                }
            }
            for inst in &mut instances {
                for feats in &mut inst.features {
                    feats.retain(|&f| counts[f as usize] >= options.min_feature_freq);
                }
            }
        }
        let config = pae_crf::TrainConfig {
            l1: options.l1,
            l2: options.l2,
            max_iters: options.max_iters,
            epsilon: 1e-4,
            dense_transitions: false,
        };
        let (model, stats) = pae_crf::train_with_stats(&instances, index.len(), n_labels, &config);
        let timings = CrfStageTimings {
            features: features_time,
            grad: stats.grad_time,
            line_search: stats.line_search_time,
        };
        (
            TrainedTagger::Crf {
                model,
                extractor,
                index,
            },
            timings,
        )
    }

    /// Trains the BiLSTM on the labelled sentences.
    pub fn train_rnn(
        sentences: &[LabeledSentence],
        n_labels: usize,
        options: &RnnOptions,
    ) -> TrainedTagger {
        let data: Vec<(Vec<String>, Vec<usize>)> = sentences
            .iter()
            .map(|s| (s.words.clone(), s.labels.clone()))
            .collect();
        let config = TaggerConfig {
            epochs: options.epochs,
            learning_rate: options.learning_rate,
            word_dim: options.hidden,
            word_hidden: options.hidden,
            seed: options.seed,
            ..Default::default()
        };
        TrainedTagger::Rnn {
            model: BiLstmTagger::train(&data, n_labels, &config),
        }
    }

    /// Tags one sentence.
    pub fn tag(&self, words: &[String], pos: &[PosTag], sent_idx: usize) -> Vec<usize> {
        match self {
            TrainedTagger::Crf {
                model,
                extractor,
                index,
            } => model.viterbi(&crf_features(extractor, index, words, pos, sent_idx)),
            TrainedTagger::Rnn { model } => model.predict(words),
        }
    }

    /// Tags one sentence and reports per-token model confidence: the
    /// CRF's posterior marginal of the decoded label (forward–backward)
    /// or the RNN's softmax probability of the argmax.
    ///
    /// The labels are exactly [`tag`](Self::tag)'s output — confidence
    /// is a read-only overlay used by the provenance subsystem and must
    /// never feed back into what gets extracted.
    pub fn tag_scored(
        &self,
        words: &[String],
        pos: &[PosTag],
        sent_idx: usize,
    ) -> (Vec<usize>, Vec<f64>) {
        match self {
            TrainedTagger::Crf {
                model,
                extractor,
                index,
            } => {
                model.viterbi_with_confidence(&crf_features(extractor, index, words, pos, sent_idx))
            }
            TrainedTagger::Rnn { model } => {
                let (labels, confidence) = model.predict_with_confidence(words);
                (labels, confidence.into_iter().map(f64::from).collect())
            }
        }
    }
}

/// The CRF encode step [`TrainedTagger::tag`] and
/// [`TrainedTagger::tag_scored`] share: one sentence's per-position
/// feature ids in the decode-time index.
fn crf_features(
    extractor: &FeatureExtractor,
    index: &FeatureIndex,
    words: &[String],
    pos: &[PosTag],
    sent_idx: usize,
) -> Vec<Vec<FeatId>> {
    let w: Vec<&str> = words.iter().map(String::as_str).collect();
    let p: Vec<&str> = pos.iter().map(|t| t.mnemonic()).collect();
    extractor.encode(&w, &p, sent_idx, index)
}

/// Tags each of a product's sentences and decodes the BIO output into
/// candidate triples, in decode order (neither sorted nor deduplicated).
///
/// Without a `confidences` sink the labels come from
/// [`TrainedTagger::tag`]. With one they come from
/// [`TrainedTagger::tag_scored`], which decodes exactly as `tag`, and
/// each decoded span's mean token confidence is pushed to the sink in
/// decode order; confidence never changes which triples come out.
pub fn decode_sentences(
    tagger: &TrainedTagger,
    product: u32,
    sentences: &[Sentence],
    space: &LabelSpace,
    mut confidences: Option<&mut Vec<f64>>,
) -> Vec<Triple> {
    let mut out = Vec::new();
    for (sent_idx, sentence) in sentences.iter().enumerate() {
        let words: Vec<String> = sentence.words().map(str::to_owned).collect();
        if words.is_empty() {
            continue;
        }
        let pos: Vec<PosTag> = sentence.tokens.iter().map(|t| t.pos).collect();
        let (labels, scores) = if confidences.is_some() {
            tagger.tag_scored(&words, &pos, sent_idx)
        } else {
            (tagger.tag(&words, &pos, sent_idx), Vec::new())
        };
        for (attr, range) in decode_spans(&labels, space) {
            if let Some(sink) = confidences.as_deref_mut() {
                let span = &scores[range.clone()];
                sink.push(span.iter().sum::<f64>() / span.len() as f64);
            }
            let value = words[range].join(" ");
            out.push(Triple::new(product, space.attrs()[attr].clone(), value));
        }
    }
    out
}

/// Runs [`decode_sentences`] over every product of the corpus: the
/// candidate triples, sorted and deduplicated.
///
/// Products are tagged concurrently on the [`pae_runtime`] worker pool
/// (Viterbi decoding is read-only over the trained model); per-product
/// results are concatenated in product order before the canonical
/// sort + dedup, so the output is independent of the thread count.
pub fn extract_candidates(
    tagger: &TrainedTagger,
    corpus: &Corpus,
    space: &LabelSpace,
) -> Vec<Triple> {
    let per_product = pae_runtime::parallel_map(&corpus.products, |_, product| {
        decode_sentences(tagger, product.id, &product.sentences, space, None)
    });
    let mut out: Vec<Triple> = per_product.into_iter().flatten().collect();
    out.sort();
    out.dedup();
    out
}

/// [`extract_candidates`] plus a decode confidence per triple: the mean
/// per-token confidence over the decoded span (CRF posterior marginal
/// or RNN softmax probability; see [`TrainedTagger::tag_scored`]).
///
/// The triple sequence is byte-identical to [`extract_candidates`]'s —
/// same canonical sort, and duplicate sightings collapse to the single
/// highest-confidence one (ties broken by the deterministic sort), so
/// confidence never influences *which* triples come out, only the
/// score attached to them.
pub fn extract_candidates_scored(
    tagger: &TrainedTagger,
    corpus: &Corpus,
    space: &LabelSpace,
) -> Vec<(Triple, f64)> {
    let per_product = pae_runtime::parallel_map(&corpus.products, |_, product| {
        let mut confidences = Vec::new();
        let triples = decode_sentences(
            tagger,
            product.id,
            &product.sentences,
            space,
            Some(&mut confidences),
        );
        (triples, confidences)
    });
    let mut out: Vec<(Triple, f64)> = per_product
        .into_iter()
        .flat_map(|(triples, confidences)| triples.into_iter().zip(confidences))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
    out.dedup_by(|next, prev| next.0 == prev.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CrfOptions, RnnOptions};

    fn toy_sentences(space: &LabelSpace) -> Vec<LabeledSentence> {
        // "iro : aka" style sentences; attr 0 = color.
        let mk = |words: &[&str], labels: Vec<usize>| LabeledSentence {
            product: 0,
            sent_idx: 0,
            words: words.iter().map(|s| s.to_string()).collect(),
            pos: words.iter().map(|_| PosTag::Noun).collect(),
            labels,
        };
        let b = space.begin(0);
        vec![
            mk(&["iro", ":", "aka"], vec![0, 0, b]),
            mk(&["iro", ":", "ao"], vec![0, 0, b]),
            mk(&["kaban", "wa", "subarashii"], vec![0, 0, 0]),
            mk(&["iro", ":", "kiiro"], vec![0, 0, b]),
            mk(&["aka", "kaban"], vec![b, 0]),
        ]
    }

    #[test]
    fn crf_backend_learns_pattern() {
        let space = LabelSpace::new(vec!["color".into()]);
        let sentences = toy_sentences(&space);
        let tagger = TrainedTagger::train_crf(&sentences, space.n_labels(), &CrfOptions::default());
        let words: Vec<String> = ["iro", ":", "momo"].iter().map(|s| s.to_string()).collect();
        let pos = vec![PosTag::Noun; 3];
        let labels = tagger.tag(&words, &pos, 0);
        assert_eq!(labels[2], space.begin(0), "labels: {labels:?}");
        assert_eq!(labels[0], 0);
    }

    #[test]
    fn min_feature_freq_prunes_without_breaking_decode() {
        let space = LabelSpace::new(vec!["color".into()]);
        let sentences = toy_sentences(&space);
        let mut options = CrfOptions {
            min_feature_freq: 2,
            ..Default::default()
        };
        options.max_iters = 40;
        let tagger = TrainedTagger::train_crf(&sentences, space.n_labels(), &options);
        let words: Vec<String> = ["iro", ":", "ao"].iter().map(|s| s.to_string()).collect();
        let pos = vec![PosTag::Noun; 3];
        let labels = tagger.tag(&words, &pos, 0);
        assert_eq!(labels[2], space.begin(0), "labels: {labels:?}");
    }

    #[test]
    fn context_reuse_is_byte_identical_to_fresh_training() {
        let space = LabelSpace::new(vec!["color".into()]);
        // Distinct (product, sent_idx) keys so cycle 2 actually hits
        // the cache instead of content-mismatching on a shared key.
        let mut sentences = toy_sentences(&space);
        for (i, s) in sentences.iter_mut().enumerate() {
            s.sent_idx = i;
        }
        let options = CrfOptions::default();
        let mut ctx = CrfTrainContext::new();
        // Cycle 1 warms the cache.
        let _ = TrainedTagger::train_crf_with(&sentences, space.n_labels(), &options, &mut ctx);

        // Cycle 2: the bootstrap loop re-labels the same sentences and
        // adds new ones. Flip one label and append a fresh sentence.
        let mut cycle2 = sentences.clone();
        cycle2[4].labels = vec![0, 0];
        let mut extra = cycle2[0].clone();
        extra.sent_idx = 99;
        extra.words = ["iro", ":", "murasaki"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        extra.labels = vec![0, 0, space.begin(0)];
        cycle2.push(extra);

        let (fresh, _) = TrainedTagger::train_crf_with(
            &cycle2,
            space.n_labels(),
            &options,
            &mut CrfTrainContext::new(),
        );
        let (reused, _) =
            TrainedTagger::train_crf_with(&cycle2, space.n_labels(), &options, &mut ctx);
        match (&fresh, &reused) {
            (
                TrainedTagger::Crf {
                    model: ma,
                    index: ia,
                    ..
                },
                TrainedTagger::Crf {
                    model: mb,
                    index: ib,
                    ..
                },
            ) => {
                assert_eq!(ia.len(), ib.len(), "decode index size");
                let (pa, pb) = (ma.view().params, mb.view().params);
                assert_eq!(pa.len(), pb.len());
                for (i, (a, b)) in pa.iter().zip(pb).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "param {i}: {a} vs {b}");
                }
            }
            _ => panic!("expected CRF taggers"),
        }
    }

    #[test]
    fn stale_cache_entry_is_content_verified() {
        // Two different sentences sharing (product, sent_idx): the
        // second must not be served the first's features.
        let space = LabelSpace::new(vec!["color".into()]);
        let sentences = toy_sentences(&space); // all share key (0, 0)
        let options = CrfOptions::default();
        let (fresh, _) = TrainedTagger::train_crf_with(
            &sentences,
            space.n_labels(),
            &options,
            &mut CrfTrainContext::new(),
        );
        // A context pre-warmed on the *reversed* sentence list must
        // still produce the identical model.
        let mut ctx = CrfTrainContext::new();
        let reversed: Vec<_> = sentences.iter().rev().cloned().collect();
        let _ = TrainedTagger::train_crf_with(&reversed, space.n_labels(), &options, &mut ctx);
        let (reused, _) =
            TrainedTagger::train_crf_with(&sentences, space.n_labels(), &options, &mut ctx);
        match (&fresh, &reused) {
            (TrainedTagger::Crf { model: ma, .. }, TrainedTagger::Crf { model: mb, .. }) => {
                let (pa, pb) = (ma.view().params, mb.view().params);
                assert_eq!(pa.len(), pb.len());
                for (i, (a, b)) in pa.iter().zip(pb).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "param {i}");
                }
            }
            _ => panic!("expected CRF taggers"),
        }
    }

    #[test]
    fn rnn_backend_learns_pattern() {
        let space = LabelSpace::new(vec!["color".into()]);
        let sentences = toy_sentences(&space);
        let options = RnnOptions {
            epochs: 80,
            ..Default::default()
        };
        let tagger = TrainedTagger::train_rnn(&sentences, space.n_labels(), &options);
        let words: Vec<String> = ["iro", ":", "aka"].iter().map(|s| s.to_string()).collect();
        let pos = vec![PosTag::Noun; 3];
        let labels = tagger.tag(&words, &pos, 0);
        assert_eq!(labels[2], space.begin(0), "labels: {labels:?}");
    }
}
