//! In-process replay of served requests, one span per layer call.
//!
//! The replay rebuilds the page pipeline of
//! `FrozenExtractor::extract_page_observed` from public layer
//! functions: `Json::parse`, `pae_html::parse` / `extract_text`,
//! `SentenceSplitter::split`, `Tokenizer::tokenize`, `PosTagger::tag`,
//! `TrainedTagger::tag` / `tag_scored`, `decode_spans` and the cleaning
//! checks. Its tagger and blocklist come from `LoadedBundle::model()`
//! (interned feature names, a sorted blocklist) rather than the served
//! automata, so its layer sum can differ a little from the served
//! extractor's whole-page time; [`LAYER_SLACK`] bounds that difference.

use pae_core::cleaning::veto::per_triple_veto;
use pae_core::cleaning::SemanticFreeze;
use pae_core::frozen::{FrozenExtractor, FrozenModel, FrozenTagger};
use pae_core::tagger::TrainedTagger;
use pae_core::trainset::{decode_spans, LabelSpace};
use pae_core::Triple;
use pae_html::{extract_text, TextOptions};
use pae_obs::json::Json;
use pae_text::{
    LexiconPosTagger, PosTag, PosTagger, Sentence, SentenceSplitter, TaggedToken, Tokenizer,
};

use crate::trace::Spans;
use crate::Metrics;

/// Largest accepted gap between the replayed layer sum and the served
/// extractor's whole-page time, as a share of the latter.
pub const LAYER_SLACK: f64 = 0.10;

/// The layer spans a replayed page is made of.
const LAYERS: &[&str] = &[
    "html.parse",
    "html.text",
    "text.split",
    "text.tokenize",
    "text.pos",
    "frozen.observe",
    "crf.tag_scored",
    "frozen.decode",
    "frozen.clean",
];

pub struct Replayer {
    tokenizer: Box<dyn Tokenizer>,
    pos: LexiconPosTagger,
    splitter: SentenceSplitter,
    space: LabelSpace,
    tagger: TrainedTagger,
    use_veto: bool,
    max_value_chars: usize,
    blocklist: Vec<(String, String)>,
    semantic: Option<SemanticFreeze>,
}

struct PageOut {
    kept: Vec<Triple>,
    candidates: usize,
    tokens: usize,
    sentences: Vec<Sentence>,
}

impl Replayer {
    pub fn from_model(model: &FrozenModel) -> Result<Replayer, String> {
        let FrozenTagger::Crf {
            n_labels,
            params,
            feature_names,
            window,
            max_sentence_bucket,
        } = &model.tagger
        else {
            return Err("the replay covers CRF bundles only".into());
        };
        let index = pae_crf::FeatureIndex::from_names(feature_names.iter().map(String::as_str));
        let tagger = TrainedTagger::Crf {
            model: pae_crf::CrfModel {
                n_labels: *n_labels,
                n_features: index.len(),
                params: params.clone(),
            },
            extractor: pae_crf::FeatureExtractor::new(pae_crf::FeatureTemplates {
                window: *window,
                max_sentence_bucket: *max_sentence_bucket,
            }),
            index,
        };
        Ok(Replayer {
            tokenizer: model.language.tokenizer(&model.lexicon),
            pos: LexiconPosTagger::new(model.lexicon.clone()),
            splitter: SentenceSplitter::new(),
            space: LabelSpace::new(model.attrs.clone()),
            tagger,
            use_veto: model.use_veto,
            max_value_chars: model.max_value_chars,
            blocklist: model.veto_blocklist.clone(),
            semantic: model.semantic.clone(),
        })
    }

    fn analyze(&self, spans: &mut Spans, trace: u64, parent: u32, text: &str) -> Sentence {
        let tokens = spans.time(trace, parent, "text.tokenize", || {
            self.tokenizer.tokenize(text)
        });
        spans.time(trace, parent, "text.pos", || {
            let tags = self.pos.tag(&tokens);
            Sentence {
                tokens: tokens
                    .into_iter()
                    .zip(tags)
                    .map(|(token, pos)| TaggedToken { token, pos })
                    .collect(),
            }
        })
    }

    fn keeps(&self, t: &Triple) -> bool {
        if self.use_veto {
            if per_triple_veto(&t.value, self.max_value_chars).is_some() {
                return false;
            }
            let key = (t.attr.as_str(), t.value.as_str());
            if self
                .blocklist
                .binary_search_by(|(a, v)| (a.as_str(), v.as_str()).cmp(&key))
                .is_ok()
            {
                return false;
            }
        }
        self.semantic
            .as_ref()
            .is_none_or(|s| s.keeps(&t.attr, &t.value))
    }

    /// Replays one page under a `replay.page` span whose children are
    /// the layer calls.
    fn page(
        &self,
        spans: &mut Spans,
        trace: u64,
        parent: u32,
        product: u32,
        html: &str,
    ) -> PageOut {
        let open = spans.open();
        let id = open.0;
        let forest = spans.time(trace, id, "html.parse", || pae_html::parse(html));
        let titles: Vec<String> = spans.time(trace, id, "html.text", || {
            pae_html::dom::find_all(&forest, "title")
                .iter()
                .map(|t| t.text_content())
                .filter(|t| !t.is_empty())
                .collect()
        });
        let mut sentences: Vec<Sentence> = titles
            .iter()
            .map(|t| self.analyze(spans, trace, id, t))
            .collect();
        let text = spans.time(trace, id, "html.text", || {
            extract_text(&forest, &TextOptions::default())
        });
        let raws = spans.time(trace, id, "text.split", || self.splitter.split(&text));
        for raw in &raws {
            let s = self.analyze(spans, trace, id, raw);
            if !s.is_empty() {
                sentences.push(s);
            }
        }
        let lexicon = self.pos.lexicon();
        let (tokens, oov) = spans.time(trace, id, "frozen.observe", || {
            let mut tokens = 0usize;
            let mut oov = 0usize;
            for word in sentences.iter().flat_map(Sentence::words) {
                tokens += 1;
                oov += usize::from(!lexicon.contains(word));
            }
            (tokens, oov)
        });
        std::hint::black_box(oov);

        let mut out: Vec<Triple> = Vec::new();
        let mut confidences: Vec<f64> = Vec::new();
        for (sent_idx, sentence) in sentences.iter().enumerate() {
            let (words, pos) = spans.time(trace, id, "frozen.decode", || {
                let words: Vec<String> = sentence.words().map(str::to_owned).collect();
                let pos: Vec<PosTag> = sentence.tokens.iter().map(|t| t.pos).collect();
                (words, pos)
            });
            if words.is_empty() {
                continue;
            }
            let (labels, scores) = spans.time(trace, id, "crf.tag_scored", || {
                self.tagger.tag_scored(&words, &pos, sent_idx)
            });
            spans.time(trace, id, "frozen.decode", || {
                for (attr, range) in decode_spans(&labels, &self.space) {
                    let span = &scores[range.clone()];
                    confidences.push(if span.is_empty() {
                        0.0
                    } else {
                        span.iter().sum::<f64>() / span.len() as f64
                    });
                    let value = words[range].join(" ");
                    out.push(Triple::new(
                        product,
                        self.space.attrs()[attr].clone(),
                        value,
                    ));
                }
            });
        }
        spans.time(trace, id, "frozen.decode", || {
            out.sort_by(|a, b| (a.product, &a.attr, &a.value).cmp(&(b.product, &b.attr, &b.value)));
            out.dedup();
        });
        std::hint::black_box(&confidences);
        let candidates = out.len();
        let kept: Vec<Triple> = spans.time(trace, id, "frozen.clean", || {
            out.into_iter().filter(|t| self.keeps(t)).collect()
        });
        spans.close(open, trace, parent, "replay.page");
        PageOut {
            kept,
            candidates,
            tokens,
            sentences,
        }
    }

    /// The plain tagger over the same sentences: `crf.tag`, so that
    /// `tag_scored - tag` is the confidence overlay's cost.
    fn tag_plain(&self, spans: &mut Spans, trace: u64, parent: u32, sentences: &[Sentence]) {
        for (sent_idx, sentence) in sentences.iter().enumerate() {
            let words: Vec<String> = sentence.words().map(str::to_owned).collect();
            if words.is_empty() {
                continue;
            }
            let pos: Vec<PosTag> = sentence.tokens.iter().map(|t| t.pos).collect();
            let labels = spans.time(trace, parent, "crf.tag", || {
                self.tagger.tag(&words, &pos, sent_idx)
            });
            std::hint::black_box(labels);
        }
    }
}

/// One request to replay: its body and its pages.
pub struct ReplayRequest<'a> {
    pub body: &'a str,
    pub pages: &'a [(u32, String)],
}

/// What the replay measured, beyond the spans.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    pub requests: usize,
    pub pages: usize,
    pub body_bytes: usize,
    pub mismatches: usize,
    /// Mean JSON decode plus page pipeline per request, in µs: the
    /// server's work that the replay reproduces.
    pub replayed_us_per_req: f64,
    /// Sum of layer self times per page over `frozen.page_us`, minus 1.
    pub layer_residual: f64,
}

/// Replays `requests` through the served extractor (whole-page and
/// whole-batch timings) and the layer-by-layer [`Replayer`], checks
/// that all three give the same triples, and adds the layer metrics.
pub fn replay(
    replayer: &Replayer,
    served: &FrozenExtractor,
    requests: &[ReplayRequest],
    spans: &mut Spans,
    m: &mut Metrics,
) -> ReplaySummary {
    let mut sum = ReplaySummary::default();
    let mut candidates = 0usize;
    let mut kept = 0usize;
    let mut tokens = 0usize;
    for (i, req) in requests.iter().enumerate() {
        let trace = i as u64;
        let open = spans.open();
        let rid = open.0;
        let doc = spans.time(trace, rid, "json.decode", || Json::parse(req.body));
        if doc.is_err() {
            sum.mismatches += 1;
        }
        let mut whole: Vec<Triple> = Vec::new();
        for (k, (product, html)) in req.pages.iter().enumerate() {
            // Alternate which of the two runs first, so that neither
            // always finds the page's data already in cache.
            let served_first = (sum.pages + k) % 2 == 0;
            let mut served_page = None;
            if served_first {
                served_page = Some(spans.time(trace, rid, "frozen.page", || {
                    served.extract_page_observed(*product, html)
                }));
            }
            let out = replayer.page(spans, trace, rid, *product, html);
            if !served_first {
                served_page = Some(spans.time(trace, rid, "frozen.page", || {
                    served.extract_page_observed(*product, html)
                }));
            }
            let (triples, _) = served_page.expect("set on one branch");
            if out.kept != triples {
                sum.mismatches += 1;
            }
            replayer.tag_plain(spans, trace, rid, &out.sentences);
            candidates += out.candidates;
            kept += out.kept.len();
            tokens += out.tokens;
            whole.extend(triples);
        }
        let batch = spans.time(trace, rid, "runtime.batch", || {
            served.extract_pages_observed(req.pages)
        });
        if batch.into_iter().flat_map(|(t, _)| t).collect::<Vec<_>>() != whole {
            sum.mismatches += 1;
        }
        spans.close(open, trace, 0, "replay.request");
        sum.requests += 1;
        sum.pages += req.pages.len();
        sum.body_bytes += req.body.len();
    }

    let totals = spans.by_name();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let pages = sum.pages.max(1) as f64;
    let per_page_us = |ns: u64| ns as f64 / pages / 1e3;
    let json = get("json.decode");
    m.add(
        "json.decode_us_per_req",
        json.total_ns as f64 / sum.requests.max(1) as f64 / 1e3,
        "us",
    );
    m.add(
        "json.decode_ns_per_byte",
        json.total_ns as f64 / sum.body_bytes.max(1) as f64,
        "ns/byte",
    );
    m.add(
        "html.parse_us_per_page",
        per_page_us(get("html.parse").self_ns),
        "us",
    );
    m.add(
        "html.text_us_per_page",
        per_page_us(get("html.text").self_ns),
        "us",
    );
    m.add(
        "text.split_us_per_page",
        per_page_us(get("text.split").self_ns),
        "us",
    );
    m.add(
        "text.tokenize_us_per_page",
        per_page_us(get("text.tokenize").self_ns),
        "us",
    );
    m.add(
        "text.pos_us_per_page",
        per_page_us(get("text.pos").self_ns),
        "us",
    );
    m.add("text.tokens_per_page", tokens as f64 / pages, "count");
    let tag = get("crf.tag").total_ns;
    let scored = get("crf.tag_scored").total_ns;
    m.add("crf.tag_us_per_page", per_page_us(tag), "us");
    m.add(
        "crf.confidence_us_per_page",
        (scored as f64 - tag as f64) / pages / 1e3,
        "us",
    );
    let page_ns = get("frozen.page").total_ns;
    m.add("frozen.page_us", per_page_us(page_ns), "us");
    m.add(
        "frozen.observe_us_per_page",
        per_page_us(get("frozen.observe").self_ns),
        "us",
    );
    m.add(
        "frozen.decode_us_per_page",
        per_page_us(get("frozen.decode").self_ns),
        "us",
    );
    m.add(
        "frozen.clean_us_per_page",
        per_page_us(get("frozen.clean").self_ns),
        "us",
    );
    m.add(
        "frozen.kept_share",
        kept as f64 / candidates.max(1) as f64,
        "share",
    );
    let batch_ns = get("runtime.batch").total_ns;
    m.add(
        "runtime.batch_speedup",
        page_ns as f64 / batch_ns.max(1) as f64,
        "x",
    );

    let layer_ns: u64 = LAYERS.iter().map(|l| get(l).self_ns).sum();
    sum.layer_residual = layer_ns as f64 / page_ns.max(1) as f64 - 1.0;
    println!(
        "reconcile layers: replayed layer self times {:.1} us/page vs frozen.page_us {:.1} \
         us/page, residual {:+.2}% (slack {:.0}%); replay glue {:.2} us/page",
        per_page_us(layer_ns),
        per_page_us(page_ns),
        sum.layer_residual * 100.0,
        LAYER_SLACK * 100.0,
        per_page_us(get("replay.page").self_ns)
    );
    // The server runs one page through `extract_page_observed` and a
    // batch through `extract_pages_observed`.
    let pipeline_ns = if sum.pages == sum.requests {
        page_ns
    } else {
        batch_ns
    };
    sum.replayed_us_per_req =
        (json.total_ns + pipeline_ns) as f64 / sum.requests.max(1) as f64 / 1e3;
    sum
}

/// Allocations per `extract_page_observed`, counted by the workspace's
/// counting allocator over one untimed pass.
pub fn allocs_per_page(served: &FrozenExtractor, pages: &[&(u32, String)]) -> f64 {
    pae_obs::set_prof_enabled(true);
    let before = pae_obs::prof_stats().alloc_count;
    for (product, html) in pages {
        std::hint::black_box(served.extract_page_observed(*product, html));
    }
    let after = pae_obs::prof_stats().alloc_count;
    pae_obs::set_prof_enabled(false);
    (after - before) as f64 / pages.len().max(1) as f64
}
