//! Online extraction-quality monitoring: live windowed field telemetry
//! scored against the bundle's freeze-time [`ReferenceStats`].
//!
//! A server that answers every request with `200 OK` can still be
//! quietly broken *for the catalog it is actually seeing*: a shifted
//! traffic mix produces empty extractions, unseen values, or collapsed
//! confidences long before any latency or error-rate SLO moves. The
//! [`QualityMonitor`] watches what `/extract` responses *contain* —
//! per-attribute triple rates, empty-extraction rate, token OOV rate,
//! per-backend confidence histograms, live value heavy hitters — over
//! the same 1m/5m windows as the latency telemetry, and scores each
//! attribute's live value-length distribution against the freeze-time
//! reference with PSI (and each backend's confidence distribution with
//! Jensen–Shannon divergence).
//!
//! Like [`crate::telemetry::Telemetry`], everything here records
//! strictly **after** the response bytes are on the wire, from data the
//! instrumented extraction path produced as a read-only overlay
//! ([`pae_core::frozen::FrozenExtractor::extract_page_observed`]
//! returns byte-identical triples) — monitoring provably cannot change
//! `/extract` output. A bundle whose reference section is empty (a
//! model frozen without stats) runs in *no-reference* mode: live rates
//! are still tracked, but drift scores are absent (`null` in
//! `/qualityz`, families omitted from `/metrics`) — absent, never zero,
//! so dashboards cannot mistake "nothing to compare against" for "no
//! drift".

use std::sync::Mutex;

use pae_core::quality::{
    confidence_bucket, value_len_bucket, ReferenceStats, CONF_BUCKETS, LEN_BUCKETS, TOP_VALUES,
};
use pae_core::{PageObservation, Triple};
use pae_obs::sketch::{js_divergence, psi, SpaceSaving};
use pae_obs::{EpochRing, MetricKey, MetricValue};

use crate::telemetry::{EPOCH_S, N_SLOTS, WINDOWS};

/// One page's worth of response content plus side observations, carried
/// from the extract handler to the post-response recording step.
pub(crate) type PageSample = (Vec<Triple>, PageObservation);

/// Heavy-hitter capacity per attribute per ring slot.
const SLOT_HITTERS: usize = 2 * TOP_VALUES;
/// Heavy-hitter capacity of a merged window view.
const WINDOW_HITTERS: usize = 4 * TOP_VALUES;
/// Minimum pages in a window before the empty-extraction rate may flag
/// the server degraded (one empty page out of two is noise).
const MIN_PAGES: u64 = 10;
/// Minimum live triples for an attribute before its drift is scored.
const MIN_TRIPLES: u64 = 10;
/// Minimum decoded candidates before a backend's confidence divergence
/// is scored.
const MIN_CANDIDATES: u64 = 10;

/// Per-epoch accumulation in the monitor's [`EpochRing`]: the quality
/// analogue of a windowed-histogram slot, owning fixed-bucket counts
/// and bounded sketches only (no floats, no unbounded maps).
#[derive(Clone)]
struct QSlot {
    pages: u64,
    empty: u64,
    tokens: u64,
    oov: u64,
    attr_triples: Vec<u64>,
    attr_len: Vec<Vec<u64>>,
    backend_conf: Vec<Vec<u64>>,
    hitters: Vec<SpaceSaving>,
}

impl QSlot {
    fn blank(n_attrs: usize, n_backends: usize, hitter_capacity: usize) -> QSlot {
        QSlot {
            pages: 0,
            empty: 0,
            tokens: 0,
            oov: 0,
            attr_triples: vec![0; n_attrs],
            attr_len: vec![vec![0; LEN_BUCKETS]; n_attrs],
            backend_conf: vec![vec![0; CONF_BUCKETS]; n_backends],
            hitters: vec![SpaceSaving::new(hitter_capacity.max(1)); n_attrs],
        }
    }

    fn merge(&mut self, other: &QSlot) {
        self.pages += other.pages;
        self.empty += other.empty;
        self.tokens += other.tokens;
        self.oov += other.oov;
        for (a, b) in self.attr_triples.iter_mut().zip(&other.attr_triples) {
            *a += b;
        }
        for (a, b) in self.attr_len.iter_mut().zip(&other.attr_len) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.backend_conf.iter_mut().zip(&other.backend_conf) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.hitters.iter_mut().zip(&other.hitters) {
            for (value, count, _) in b.iter() {
                a.observe_n(value, count);
            }
        }
    }
}

struct QInner {
    pages_total: u64,
    empty_total: u64,
    tokens_total: u64,
    oov_total: u64,
    triples_total: Vec<u64>,
    ring: EpochRing<QSlot>,
}

/// One attribute's live window view, with its drift score when a
/// reference exists and the window holds enough samples.
pub(crate) struct AttrSnapshot {
    pub name: String,
    pub triples: u64,
    /// Triples per page over the window.
    pub rate: f64,
    /// Freeze-time triples per page, when a reference exists.
    pub reference_rate: Option<f64>,
    /// PSI between the reference and live value-length distributions.
    /// `None` in no-reference mode or below [`MIN_TRIPLES`] live
    /// samples — absent, not zero.
    pub drift: Option<f64>,
    pub top_values: Vec<(String, u64)>,
}

/// One backend's live window view.
pub(crate) struct BackendSnapshot {
    pub name: &'static str,
    /// Decoded candidates observed in the window (pre-cleaning).
    pub candidates: u64,
    /// Jensen–Shannon divergence between reference and live confidence
    /// histograms; `None` in no-reference mode or under-sampled.
    pub confidence_js: Option<f64>,
}

/// Everything `/qualityz`, `/metrics`, and the degraded flag need about
/// one window, computed under a single lock acquisition.
pub(crate) struct WindowSnapshot {
    pub pages: u64,
    pub empty: u64,
    pub tokens: u64,
    pub oov: u64,
    pub attrs: Vec<AttrSnapshot>,
    pub backends: Vec<BackendSnapshot>,
}

impl WindowSnapshot {
    pub fn empty_rate(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.empty as f64 / self.pages as f64
        }
    }

    pub fn oov_rate(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.oov as f64 / self.tokens as f64
        }
    }
}

/// Shared extraction-quality monitor. One per [`crate::Server`], next
/// to the [`crate::telemetry::Telemetry`].
pub(crate) struct QualityMonitor {
    attrs: Vec<String>,
    backends: Vec<&'static str>,
    reference: Option<ReferenceStats>,
    drift_threshold: f64,
    empty_rate_threshold: f64,
    inner: Mutex<QInner>,
}

impl QualityMonitor {
    pub(crate) fn new(
        attrs: Vec<String>,
        backends: Vec<&'static str>,
        reference: Option<ReferenceStats>,
        drift_threshold: f64,
        empty_rate_threshold: f64,
    ) -> QualityMonitor {
        let n_attrs = attrs.len();
        let n_backends = backends.len();
        QualityMonitor {
            attrs,
            backends,
            reference,
            drift_threshold,
            empty_rate_threshold,
            inner: Mutex::new(QInner {
                pages_total: 0,
                empty_total: 0,
                tokens_total: 0,
                oov_total: 0,
                triples_total: vec![0; n_attrs],
                ring: EpochRing::new(
                    EPOCH_S,
                    N_SLOTS,
                    QSlot::blank(n_attrs, n_backends, SLOT_HITTERS),
                ),
            }),
        }
    }

    /// Folds one `/extract` request's page samples. Called strictly
    /// after the response bytes were written. Deliberately does *not*
    /// write to the global obs registry: `serve.quality.*` is served
    /// per-server via [`QualityMonitor::metrics`] so two servers in one
    /// process (tests, benches) can never contaminate each other's
    /// scrape; ledger runs read `/qualityz` instead.
    pub(crate) fn record(&self, now_s: u64, samples: &[PageSample]) {
        if samples.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("quality lock poisoned");
        let mut req_triples = vec![0u64; self.attrs.len()];
        let mut req_empty = 0u64;
        let (mut req_tokens, mut req_oov) = (0u64, 0u64);
        let slot = inner.ring.slot_mut(now_s);
        for (triples, obs) in samples {
            slot.pages += 1;
            if triples.is_empty() {
                slot.empty += 1;
                req_empty += 1;
            }
            slot.tokens += obs.tokens;
            slot.oov += obs.oov_tokens;
            req_tokens += obs.tokens;
            req_oov += obs.oov_tokens;
            for (bi, confs) in obs.confidences.iter().enumerate() {
                let Some(bucket) = slot.backend_conf.get_mut(bi) else {
                    break;
                };
                for &c in confs {
                    bucket[confidence_bucket(c)] += 1;
                }
            }
            for t in triples {
                let Ok(i) = self.attrs.binary_search(&t.attr) else {
                    continue;
                };
                slot.attr_triples[i] += 1;
                slot.attr_len[i][value_len_bucket(t.value.chars().count())] += 1;
                slot.hitters[i].observe(&t.value);
                req_triples[i] += 1;
            }
        }
        inner.pages_total += samples.len() as u64;
        inner.empty_total += req_empty;
        inner.tokens_total += req_tokens;
        inner.oov_total += req_oov;
        for (total, n) in inner.triples_total.iter_mut().zip(&req_triples) {
            *total += n;
        }
    }

    /// The merged, scored view of one window.
    pub(crate) fn snapshot(&self, now_s: u64, width_s: u64) -> WindowSnapshot {
        let merged = {
            let inner = self.inner.lock().expect("quality lock poisoned");
            let mut acc = QSlot::blank(self.attrs.len(), self.backends.len(), WINDOW_HITTERS);
            for slot in inner.ring.window(now_s, width_s) {
                acc.merge(slot);
            }
            acc
        };
        let attrs = self
            .attrs
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let triples = merged.attr_triples[i];
                let reference = self
                    .reference
                    .as_ref()
                    .and_then(|r| r.attr(name).map(|a| (a, r.pages)));
                let drift = reference.as_ref().and_then(|(a, _)| {
                    (triples >= MIN_TRIPLES).then(|| psi(&a.value_len, &merged.attr_len[i]))
                });
                let mut top_values: Vec<(String, u64)> = merged.hitters[i]
                    .top()
                    .into_iter()
                    .map(|h| (h.value, h.count))
                    .collect();
                top_values.truncate(TOP_VALUES);
                AttrSnapshot {
                    name: name.clone(),
                    triples,
                    rate: if merged.pages == 0 {
                        0.0
                    } else {
                        triples as f64 / merged.pages as f64
                    },
                    reference_rate: reference.map(|(a, pages)| a.rate(pages)),
                    drift,
                    top_values,
                }
            })
            .collect();
        let backends = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let live = &merged.backend_conf[i];
                let candidates: u64 = live.iter().sum();
                let confidence_js = self
                    .reference
                    .as_ref()
                    .and_then(|r| r.backends.iter().find(|b| b.backend == *name))
                    .filter(|b| b.confidence.iter().sum::<u64>() > 0)
                    .and_then(|b| {
                        (candidates >= MIN_CANDIDATES).then(|| js_divergence(&b.confidence, live))
                    });
                BackendSnapshot {
                    name,
                    candidates,
                    confidence_js,
                }
            })
            .collect();
        WindowSnapshot {
            pages: merged.pages,
            empty: merged.empty,
            tokens: merged.tokens,
            oov: merged.oov,
            attrs,
            backends,
        }
    }

    /// Whether a window's scored view breaches the configured
    /// thresholds: any attribute's drift or backend's confidence
    /// divergence above `--drift-threshold`, or the empty-extraction
    /// rate above `--empty-rate-threshold` (with at least
    /// [`MIN_PAGES`] pages of evidence).
    pub(crate) fn degraded(&self, snap: &WindowSnapshot) -> bool {
        if snap.pages >= MIN_PAGES && snap.empty_rate() > self.empty_rate_threshold {
            return true;
        }
        snap.attrs
            .iter()
            .filter_map(|a| a.drift)
            .chain(snap.backends.iter().filter_map(|b| b.confidence_js))
            .any(|score| score > self.drift_threshold)
    }

    /// The `quality` flag surfaced on `/statusz`, judged over the 5m
    /// window.
    pub(crate) fn flag(&self, now_s: u64) -> &'static str {
        if self.degraded(&self.snapshot(now_s, 300)) {
            "degraded"
        } else {
            "ok"
        }
    }

    /// The `GET /qualityz` JSON document.
    pub(crate) fn qualityz_json(&self, now_s: u64) -> String {
        use std::fmt::Write as _;
        let opt = |v: Option<f64>| v.map_or("null".to_owned(), |x| format!("{x:.6}"));
        let mut out = String::with_capacity(1024);
        match &self.reference {
            Some(r) => {
                let _ = write!(
                    out,
                    "{{\"reference\":{{\"present\":true,\"pages\":{},\"total_triples\":{},\
                     \"empty_rate\":{:.6},\"oov_rate\":{:.6}}}",
                    r.pages,
                    r.total_triples,
                    r.empty_rate(),
                    r.oov_rate()
                );
            }
            None => out.push_str("{\"reference\":{\"present\":false}"),
        }
        let _ = write!(
            out,
            ",\"thresholds\":{{\"drift\":{:.6},\"empty_rate\":{:.6}}},\"quality\":\"{}\"",
            self.drift_threshold,
            self.empty_rate_threshold,
            self.flag(now_s)
        );
        out.push_str(",\"windows\":{");
        for (wi, (window, width)) in WINDOWS.iter().enumerate() {
            let snap = self.snapshot(now_s, *width);
            let _ = write!(
                out,
                "{}\"{window}\":{{\"pages\":{},\"empty_pages\":{},\"empty_rate\":{:.6},\
                 \"tokens\":{},\"oov_tokens\":{},\"oov_rate\":{:.6},\"attrs\":{{",
                if wi > 0 { "," } else { "" },
                snap.pages,
                snap.empty,
                snap.empty_rate(),
                snap.tokens,
                snap.oov,
                snap.oov_rate()
            );
            for (i, a) in snap.attrs.iter().enumerate() {
                let _ = write!(out, "{}", if i > 0 { "," } else { "" });
                pae_obs::json::write_str(&mut out, &a.name);
                let _ = write!(
                    out,
                    ":{{\"triples\":{},\"rate\":{:.6},\"reference_rate\":{},\"drift\":{},\
                     \"top_values\":[",
                    a.triples,
                    a.rate,
                    opt(a.reference_rate),
                    opt(a.drift)
                );
                for (vi, (value, count)) in a.top_values.iter().enumerate() {
                    let _ = write!(out, "{}[", if vi > 0 { "," } else { "" });
                    pae_obs::json::write_str(&mut out, value);
                    let _ = write!(out, ",{count}]");
                }
                out.push_str("]}");
            }
            out.push_str("},\"backends\":{");
            for (i, b) in snap.backends.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{}\":{{\"candidates\":{},\"confidence_js\":{}}}",
                    if i > 0 { "," } else { "" },
                    b.name,
                    b.candidates,
                    opt(b.confidence_js)
                );
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }

    /// The `serve.quality.*` families merged into `/metrics` next to
    /// the telemetry's `serve.live.*`. Drift families appear only when
    /// scored — a no-reference server omits them entirely.
    pub(crate) fn metrics(&self, now_s: u64) -> Vec<(MetricKey, MetricValue)> {
        let key = |name: &str, labels: &[(&str, &str)]| MetricKey {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        };
        let mut out = Vec::new();
        {
            let inner = self.inner.lock().expect("quality lock poisoned");
            out.push((
                key("serve.quality.pages", &[]),
                MetricValue::Counter(inner.pages_total),
            ));
            out.push((
                key("serve.quality.empty_pages", &[]),
                MetricValue::Counter(inner.empty_total),
            ));
            out.push((
                key("serve.quality.tokens", &[]),
                MetricValue::Counter(inner.tokens_total),
            ));
            out.push((
                key("serve.quality.oov_tokens", &[]),
                MetricValue::Counter(inner.oov_total),
            ));
            for (attr, n) in self.attrs.iter().zip(&inner.triples_total) {
                out.push((
                    key("serve.quality.triples", &[("attr", attr)]),
                    MetricValue::Counter(*n),
                ));
            }
        }
        for (window, width) in WINDOWS {
            let snap = self.snapshot(now_s, width);
            out.push((
                key("serve.quality.empty_rate", &[("window", window)]),
                MetricValue::Gauge(snap.empty_rate()),
            ));
            out.push((
                key("serve.quality.oov_rate", &[("window", window)]),
                MetricValue::Gauge(snap.oov_rate()),
            ));
            for a in &snap.attrs {
                out.push((
                    key(
                        "serve.quality.attr_rate",
                        &[("attr", &a.name), ("window", window)],
                    ),
                    MetricValue::Gauge(a.rate),
                ));
            }
            if window == "5m" {
                for a in &snap.attrs {
                    if let Some(d) = a.drift {
                        out.push((
                            key("serve.quality.drift", &[("attr", &a.name)]),
                            MetricValue::Gauge(d),
                        ));
                    }
                }
                for b in &snap.backends {
                    if let Some(j) = b.confidence_js {
                        out.push((
                            key("serve.quality.confidence_js", &[("backend", b.name)]),
                            MetricValue::Gauge(j),
                        ));
                    }
                }
                out.push((
                    key("serve.quality.degraded", &[]),
                    MetricValue::Gauge(if self.degraded(&snap) { 1.0 } else { 0.0 }),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pae_core::quality::{AttrReference, BackendReference};
    use pae_obs::json::Json;

    fn reference() -> ReferenceStats {
        // 100 pages, 2-char "red" era values for color: value_len mass
        // entirely in bucket 1 (2-3 chars).
        let mut value_len = vec![0u64; LEN_BUCKETS];
        value_len[1] = 100;
        let mut confidence = vec![0u64; CONF_BUCKETS];
        confidence[18] = 100;
        ReferenceStats {
            pages: 100,
            empty_pages: 5,
            total_triples: 100,
            tokens: 1000,
            oov_tokens: 10,
            backends: vec![BackendReference {
                backend: "crf".to_owned(),
                confidence,
            }],
            attrs: vec![AttrReference {
                attribute: "color".to_owned(),
                triples: 100,
                top_values: vec![("red".to_owned(), 60), ("blue".to_owned(), 40)],
                value_len,
            }],
        }
    }

    fn monitor(reference: Option<ReferenceStats>) -> QualityMonitor {
        QualityMonitor::new(vec!["color".to_owned()], vec!["crf"], reference, 0.25, 0.5)
    }

    fn page(value: &str, conf: f64) -> PageSample {
        (
            vec![Triple::new(1, "color".to_owned(), value.to_owned())],
            PageObservation {
                tokens: 10,
                oov_tokens: 1,
                confidences: vec![vec![conf]],
            },
        )
    }

    #[test]
    fn matching_traffic_stays_ok() {
        let m = monitor(Some(reference()));
        // 20 pages of 2-3 char values at confidence ~0.9: matches the
        // reference distribution exactly.
        let samples: Vec<PageSample> = (0..20).map(|_| page("red", 0.91)).collect();
        m.record(0, &samples);
        let snap = m.snapshot(0, 300);
        assert_eq!(snap.pages, 20);
        let drift = snap.attrs[0].drift.expect("enough samples to score");
        assert!(drift < 0.01, "identical distribution drifted: {drift}");
        let js = snap.backends[0].confidence_js.expect("scored");
        assert!(js < 0.01, "identical confidences diverged: {js}");
        assert!(!m.degraded(&snap));
        assert_eq!(m.flag(0), "ok");
    }

    #[test]
    fn shifted_value_lengths_fire_drift() {
        let m = monitor(Some(reference()));
        let samples: Vec<PageSample> = (0..20)
            .map(|_| page("an extremely long never-seen value", 0.91))
            .collect();
        m.record(0, &samples);
        let snap = m.snapshot(0, 300);
        let drift = snap.attrs[0].drift.expect("scored");
        assert!(
            drift > 0.25,
            "shifted lengths must breach PSI 0.25: {drift}"
        );
        assert!(m.degraded(&snap));
        assert_eq!(m.flag(0), "degraded");
    }

    #[test]
    fn empty_extractions_fire_without_reference() {
        let m = monitor(None);
        let samples: Vec<PageSample> = (0..20)
            .map(|_| {
                (
                    Vec::new(),
                    PageObservation {
                        tokens: 10,
                        oov_tokens: 1,
                        confidences: vec![vec![]],
                    },
                )
            })
            .collect();
        m.record(0, &samples);
        let snap = m.snapshot(0, 300);
        assert_eq!(snap.empty_rate(), 1.0);
        assert!(snap.attrs[0].drift.is_none(), "no reference, no drift");
        assert!(m.degraded(&snap), "empty rate needs no reference");
    }

    #[test]
    fn under_sampled_windows_do_not_score() {
        let m = monitor(Some(reference()));
        m.record(0, &[page("an extremely long never-seen value", 0.91)]);
        let snap = m.snapshot(0, 300);
        assert!(
            snap.attrs[0].drift.is_none(),
            "1 triple is below the evidence floor"
        );
        assert!(!m.degraded(&snap));
    }

    #[test]
    fn windows_age_out() {
        let m = monitor(Some(reference()));
        m.record(0, &[page("red", 0.9)]);
        assert_eq!(m.snapshot(0, 60).pages, 1);
        // 10 minutes later both windows have rolled past the sample.
        assert_eq!(m.snapshot(600, 300).pages, 0);
        assert_eq!(m.snapshot(600, 60).pages, 0);
    }

    #[test]
    fn reads_at_an_earlier_epoch_leave_later_records_out() {
        // A page recorded between a reader's clock read and its lock
        // must not show up in the reader's window.
        let m = monitor(None);
        m.record(100, &[page("red", 0.9)]);
        assert_eq!(m.snapshot(96, 60).pages, 0);
        assert_eq!(m.snapshot(100, 60).pages, 1);
    }

    #[test]
    fn qualityz_is_valid_json_with_null_scores_when_unscored() {
        let m = monitor(None);
        m.record(0, &[page("red", 0.9)]);
        let doc = Json::parse(&m.qualityz_json(0)).expect("qualityz is JSON");
        assert_eq!(
            doc.get("reference").and_then(|r| r.get("present")).cloned(),
            Some(Json::Bool(false))
        );
        assert_eq!(doc.get("quality").and_then(Json::as_str), Some("ok"));
        let color = doc
            .get("windows")
            .and_then(|w| w.get("5m"))
            .and_then(|w| w.get("attrs"))
            .and_then(|a| a.get("color"))
            .expect("color attr present");
        assert_eq!(color.get("triples").and_then(Json::as_u64), Some(1));
        assert_eq!(color.get("drift"), Some(&Json::Null));
        assert_eq!(color.get("reference_rate"), Some(&Json::Null));
        let top = color.get("top_values").expect("top values");
        let Json::Arr(top) = top else {
            panic!("top_values not an array");
        };
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn metrics_omit_drift_families_without_reference() {
        let with = monitor(Some(reference()));
        let without = monitor(None);
        let samples: Vec<PageSample> = (0..20).map(|_| page("red", 0.9)).collect();
        with.record(0, &samples);
        without.record(0, &samples);
        let has =
            |m: &QualityMonitor, family: &str| m.metrics(0).iter().any(|(k, _)| k.name == family);
        assert!(has(&with, "serve.quality.drift"));
        assert!(has(&with, "serve.quality.confidence_js"));
        assert!(
            !has(&without, "serve.quality.drift"),
            "no-reference mode must omit drift, not report 0"
        );
        assert!(!has(&without, "serve.quality.confidence_js"));
        // Live families are present either way.
        assert!(has(&without, "serve.quality.pages"));
        assert!(has(&without, "serve.quality.attr_rate"));
        assert!(has(&without, "serve.quality.degraded"));
    }

    #[test]
    fn live_heavy_hitters_rank_by_count() {
        let m = monitor(None);
        let mut samples: Vec<PageSample> = Vec::new();
        for _ in 0..3 {
            samples.push(page("blue", 0.9));
        }
        for _ in 0..5 {
            samples.push(page("red", 0.9));
        }
        m.record(0, &samples);
        let snap = m.snapshot(0, 300);
        let top = &snap.attrs[0].top_values;
        assert_eq!(top[0], ("red".to_owned(), 5));
        assert_eq!(top[1], ("blue".to_owned(), 3));
    }
}
