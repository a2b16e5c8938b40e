//! Freeze-time reference statistics for field quality monitoring.
//!
//! A bundle that passes hash validation can still be the *wrong* model
//! for the traffic it serves: shifted catalogs produce empty
//! extractions, unseen values, or collapsed confidences long before any
//! system metric moves. [`ReferenceStats`] captures what extraction
//! looked like over the training corpus at freeze time — per-attribute
//! extraction rates, top-k value heavy hitters, value-length
//! histograms, per-backend confidence histograms, and the token OOV
//! rate against the segmentation lexicon — so the serving layer can
//! score live traffic against it (PSI / Jensen–Shannon over the shared
//! fixed bucket layouts in this module).
//!
//! Everything here is deterministic and integer-valued: equal corpora
//! produce byte-identical stats, which keeps bundle encoding
//! byte-deterministic. Rates are derived on demand, never stored.

use std::collections::BTreeMap;

use crate::types::Triple;

/// Confidence histogram buckets: equal width over `[0, 1]`.
pub const CONF_BUCKETS: usize = 20;
/// Value-length histogram buckets.
pub const LEN_BUCKETS: usize = 16;
/// Characters per value-length bucket (the last bucket absorbs longer
/// values).
pub const LEN_BUCKET_CHARS: usize = 2;
/// Heavy hitters kept per attribute (exact top-k at freeze time).
pub const TOP_VALUES: usize = 8;

/// The bucket a model confidence in `[0, 1]` falls into.
pub fn confidence_bucket(confidence: f64) -> usize {
    let c = confidence.clamp(0.0, 1.0);
    ((c * CONF_BUCKETS as f64) as usize).min(CONF_BUCKETS - 1)
}

/// The bucket a value length (in chars) falls into.
pub fn value_len_bucket(chars: usize) -> usize {
    (chars / LEN_BUCKET_CHARS).min(LEN_BUCKETS - 1)
}

/// Freeze-time extraction behavior for one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrReference {
    /// Attribute name (bundle attrs order).
    pub attribute: String,
    /// Kept triples over the training corpus.
    pub triples: u64,
    /// Exact top-[`TOP_VALUES`] values by count, count-descending then
    /// value-ascending.
    pub top_values: Vec<(String, u64)>,
    /// Value-length histogram ([`LEN_BUCKETS`] buckets of
    /// [`LEN_BUCKET_CHARS`] chars).
    pub value_len: Vec<u64>,
}

impl AttrReference {
    /// Triples per page over a corpus of `pages` pages.
    pub fn rate(&self, pages: u64) -> f64 {
        if pages == 0 {
            0.0
        } else {
            self.triples as f64 / pages as f64
        }
    }
}

/// Freeze-time confidence distribution of one tagger backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendReference {
    /// Backend name (`"crf"` or `"rnn"`).
    pub backend: String,
    /// Span-confidence histogram ([`CONF_BUCKETS`] buckets over
    /// `[0, 1]`) of decoded candidates, pre-cleaning.
    pub confidence: Vec<u64>,
}

/// What extraction looked like over the training corpus at freeze
/// time. Embedded in bundles as an optional, hash-checked section; the
/// serving quality monitor scores live windows against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceStats {
    /// Pages observed.
    pub pages: u64,
    /// Pages that produced zero kept triples.
    pub empty_pages: u64,
    /// Kept triples across all attributes.
    pub total_triples: u64,
    /// Tokens across all analyzed sentences.
    pub tokens: u64,
    /// Tokens absent from the segmentation/PoS lexicon.
    pub oov_tokens: u64,
    /// Per-backend confidence histograms, backend order fixed by the
    /// frozen tagger (CRF arm first for ensembles).
    pub backends: Vec<BackendReference>,
    /// Per-attribute stats, in bundle attrs order.
    pub attrs: Vec<AttrReference>,
}

impl ReferenceStats {
    /// Fraction of pages with zero kept triples.
    pub fn empty_rate(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.empty_pages as f64 / self.pages as f64
        }
    }

    /// Fraction of tokens absent from the lexicon.
    pub fn oov_rate(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.oov_tokens as f64 / self.tokens as f64
        }
    }

    /// The reference entry for an attribute, if the model extracts it.
    pub fn attr(&self, attribute: &str) -> Option<&AttrReference> {
        self.attrs.iter().find(|a| a.attribute == attribute)
    }
}

/// Per-page side observations from the instrumented extraction path
/// ([`crate::frozen::FrozenExtractor::extract_page_observed`]): a
/// read-only overlay that never feeds back into which triples are
/// extracted.
#[derive(Debug, Clone, PartialEq)]
pub struct PageObservation {
    /// Tokens across the page's analyzed sentences.
    pub tokens: u64,
    /// Tokens absent from the segmentation/PoS lexicon.
    pub oov_tokens: u64,
    /// Per backend (bundle backend order), span confidence of each
    /// decoded candidate before cleaning, in decode order.
    pub confidences: Vec<Vec<f64>>,
}

/// Streaming accumulator that folds per-page extraction results into
/// [`ReferenceStats`]. Fold order does not affect the result except
/// through nothing — all state is commutative counters — so freeze can
/// extract pages concurrently and fold in page order.
pub struct ReferenceBuilder {
    attrs: Vec<String>,
    backends: Vec<String>,
    pages: u64,
    empty_pages: u64,
    total_triples: u64,
    tokens: u64,
    oov_tokens: u64,
    confidence: Vec<Vec<u64>>,
    attr_triples: Vec<u64>,
    attr_values: Vec<BTreeMap<String, u64>>,
    attr_len: Vec<Vec<u64>>,
}

impl ReferenceBuilder {
    /// A builder over the model's (sorted) attribute names and its
    /// backend names.
    pub fn new(attrs: &[String], backends: &[&str]) -> ReferenceBuilder {
        ReferenceBuilder {
            attrs: attrs.to_vec(),
            backends: backends.iter().map(|b| (*b).to_owned()).collect(),
            pages: 0,
            empty_pages: 0,
            total_triples: 0,
            tokens: 0,
            oov_tokens: 0,
            confidence: vec![vec![0; CONF_BUCKETS]; backends.len()],
            attr_triples: vec![0; attrs.len()],
            attr_values: vec![BTreeMap::new(); attrs.len()],
            attr_len: vec![vec![0; LEN_BUCKETS]; attrs.len()],
        }
    }

    /// Folds one page's kept triples and side observations.
    pub fn observe_page(&mut self, triples: &[Triple], obs: &PageObservation) {
        self.pages += 1;
        if triples.is_empty() {
            self.empty_pages += 1;
        }
        self.tokens += obs.tokens;
        self.oov_tokens += obs.oov_tokens;
        for (backend_idx, confs) in obs.confidences.iter().enumerate() {
            if backend_idx >= self.confidence.len() {
                break;
            }
            for &c in confs {
                self.confidence[backend_idx][confidence_bucket(c)] += 1;
            }
        }
        for t in triples {
            let Ok(i) = self.attrs.binary_search(&t.attr) else {
                continue;
            };
            self.total_triples += 1;
            self.attr_triples[i] += 1;
            *self.attr_values[i].entry(t.value.clone()).or_default() += 1;
            self.attr_len[i][value_len_bucket(t.value.chars().count())] += 1;
        }
    }

    /// Finishes into [`ReferenceStats`] (exact top-k per attribute,
    /// count-descending then value-ascending).
    pub fn finish(self) -> ReferenceStats {
        let attrs = self
            .attrs
            .into_iter()
            .zip(self.attr_triples)
            .zip(self.attr_values)
            .zip(self.attr_len)
            .map(|(((attribute, triples), values), value_len)| {
                let mut ranked: Vec<(String, u64)> = values.into_iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                ranked.truncate(TOP_VALUES);
                AttrReference {
                    attribute,
                    triples,
                    top_values: ranked,
                    value_len,
                }
            })
            .collect();
        ReferenceStats {
            pages: self.pages,
            empty_pages: self.empty_pages,
            total_triples: self.total_triples,
            tokens: self.tokens,
            oov_tokens: self.oov_tokens,
            backends: self
                .backends
                .into_iter()
                .zip(self.confidence)
                .map(|(backend, confidence)| BackendReference {
                    backend,
                    confidence,
                })
                .collect(),
            attrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(attr: &str, value: &str) -> Triple {
        Triple::new(1, attr.to_owned(), value.to_owned())
    }

    #[test]
    fn buckets_clamp_at_the_edges() {
        assert_eq!(confidence_bucket(0.0), 0);
        assert_eq!(confidence_bucket(0.049), 0);
        assert_eq!(confidence_bucket(0.05), 1);
        assert_eq!(confidence_bucket(1.0), CONF_BUCKETS - 1);
        assert_eq!(confidence_bucket(7.5), CONF_BUCKETS - 1);
        assert_eq!(confidence_bucket(-1.0), 0);
        assert_eq!(value_len_bucket(0), 0);
        assert_eq!(value_len_bucket(1), 0);
        assert_eq!(value_len_bucket(2), 1);
        assert_eq!(value_len_bucket(31), LEN_BUCKETS - 1);
        assert_eq!(value_len_bucket(4000), LEN_BUCKETS - 1);
    }

    #[test]
    fn builder_aggregates_pages_and_ranks_values() {
        let attrs = vec!["color".to_owned(), "weight".to_owned()];
        let mut b = ReferenceBuilder::new(&attrs, &["crf"]);
        let obs = |confs: Vec<f64>| PageObservation {
            tokens: 10,
            oov_tokens: 2,
            confidences: vec![confs],
        };
        b.observe_page(
            &[triple("color", "red"), triple("color", "blue")],
            &obs(vec![0.9, 0.2]),
        );
        b.observe_page(&[triple("color", "red")], &obs(vec![0.95]));
        b.observe_page(&[], &obs(vec![]));
        let stats = b.finish();
        assert_eq!(stats.pages, 3);
        assert_eq!(stats.empty_pages, 1);
        assert_eq!(stats.total_triples, 3);
        assert_eq!(stats.tokens, 30);
        assert_eq!(stats.oov_tokens, 6);
        assert!((stats.empty_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((stats.oov_rate() - 0.2).abs() < 1e-12);
        let color = stats.attr("color").unwrap();
        assert_eq!(color.triples, 2 + 1);
        assert_eq!(
            color.top_values,
            vec![("red".to_owned(), 2), ("blue".to_owned(), 1)]
        );
        assert_eq!(color.value_len.iter().sum::<u64>(), 3);
        // "red"/"blue" land in the 3-char and 4-char buckets.
        assert_eq!(color.value_len[value_len_bucket(3)], 2);
        assert_eq!(color.value_len[value_len_bucket(4)], 1);
        assert!((color.rate(stats.pages) - 1.0).abs() < 1e-12);
        let weight = stats.attr("weight").unwrap();
        assert_eq!(weight.triples, 0);
        assert!(weight.top_values.is_empty());
        // Confidence: 0.9 → bucket 18, 0.95 → bucket 19, 0.2 → bucket 4.
        let crf = &stats.backends[0];
        assert_eq!(crf.backend, "crf");
        assert_eq!(crf.confidence[confidence_bucket(0.9)], 1);
        assert_eq!(crf.confidence[confidence_bucket(0.95)], 1);
        assert_eq!(crf.confidence[confidence_bucket(0.2)], 1);
        assert_eq!(crf.confidence.iter().sum::<u64>(), 3);
    }

    #[test]
    fn top_values_break_count_ties_by_value() {
        let attrs = vec!["a".to_owned()];
        let mut b = ReferenceBuilder::new(&attrs, &[]);
        let obs = PageObservation {
            tokens: 0,
            oov_tokens: 0,
            confidences: vec![],
        };
        b.observe_page(
            &[triple("a", "zz"), triple("a", "mm"), triple("a", "aa")],
            &obs,
        );
        let stats = b.finish();
        let names: Vec<&str> = stats.attrs[0]
            .top_values
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }
}
