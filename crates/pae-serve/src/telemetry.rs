//! Always-on serving telemetry: windowed latency, response counters,
//! in-flight gauges, pool utilization, deterministic request sampling,
//! and the bounded slow-request ring.
//!
//! This state is deliberately independent of the [`pae_obs`] global
//! switch: the obs registry no-ops unless a trace session enabled
//! collection, but a standalone `pae-serve` process must still answer
//! `/metrics` and `/statusz` with real numbers. The server therefore
//! keeps its own counters here (exported under the `serve.live.*`
//! prefix so they can never collide with the obs-registry
//! `serve.request_ns` / `serve.responses` families when a ledger run
//! renders both into one exposition) and *additionally* feeds the
//! global registry as before, keeping ledgers and `pae-report check`
//! unchanged.
//!
//! The windowed structures use the server's own monotonic clock
//! (`Instant` since startup) as the injected epoch source — nothing
//! here reads wall time, and none of it touches the extraction path:
//! recording happens after the response bytes are already formed, so
//! sampling and slow-capture provably cannot change `/extract` output.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pae_obs::{FieldValue, Histogram, MetricKey, MetricValue, WindowedCounter, WindowedHistogram};

/// Windowed rings: 5-second epochs × 60 slots = 300 s span, enough to
/// answer both the 1m and 5m windows exposed on `/metrics`/`/statusz`.
/// Shared with the quality monitor so latency and field-quality windows
/// line up.
pub(crate) const EPOCH_S: u64 = 5;
pub(crate) const N_SLOTS: usize = 60;
/// The windows rendered as quantile gauges, label → width.
pub(crate) const WINDOWS: [(&str, u64); 2] = [("1m", 60), ("5m", 300)];
/// Quantiles rendered per route and window.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];
/// Capacity of the slow-request ring (oldest dropped first).
const SLOW_RING: usize = 32;

/// Per-request timings measured by the connection handler.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RequestTiming {
    /// Nanoseconds spent reading + parsing the request off the socket.
    pub read_ns: u64,
    /// Nanoseconds spent routing and producing the response body.
    pub handle_ns: u64,
    /// Nanoseconds spent writing the response back.
    pub write_ns: u64,
    /// Request body size in bytes.
    pub body_bytes: u64,
    /// FNV-1a digest of the request body (forensics without storing
    /// the body itself).
    pub body_digest: u64,
}

impl RequestTiming {
    fn total_ns(&self) -> u64 {
        self.read_ns + self.handle_ns + self.write_ns
    }
}

/// One captured slow request.
#[derive(Debug, Clone)]
struct SlowCapture {
    seq: u64,
    route: &'static str,
    status: u16,
    timing: RequestTiming,
    at_s: u64,
}

#[derive(Default)]
struct RouteStats {
    cumulative: Histogram,
    windowed: Option<WindowedHistogram>,
    count: u64,
}

struct Inner {
    in_flight: BTreeMap<&'static str, u64>,
    responses: BTreeMap<&'static str, u64>,
    routes: BTreeMap<&'static str, RouteStats>,
    requests_w: WindowedCounter,
    slow: VecDeque<SlowCapture>,
    slow_seen: u64,
}

/// Shared serving telemetry. One per [`crate::Server`], behind an
/// `Arc` next to the extractor.
pub(crate) struct Telemetry {
    start: Instant,
    /// Content hash of the loaded bundle (0 when served from a
    /// non-bundle source, e.g. tests freezing in-process).
    pub bundle_hash: u64,
    /// Wall-clock nanoseconds spent loading the bundle at startup
    /// (0 when unknown, e.g. tests freezing in-process).
    pub bundle_load_ns: u64,
    /// Sample 1-in-N requests into the obs trace (0 = off).
    trace_sample: u64,
    /// Capture requests slower than this (0 = off).
    slow_ns: u64,
    workers: usize,
    seq: AtomicU64,
    busy: AtomicU64,
    inner: Mutex<Inner>,
}

impl Telemetry {
    pub(crate) fn new(
        bundle_hash: u64,
        bundle_load_ns: u64,
        trace_sample: u64,
        slow_ms: u64,
        workers: usize,
    ) -> Telemetry {
        Telemetry {
            start: Instant::now(),
            bundle_hash,
            bundle_load_ns,
            trace_sample,
            slow_ns: slow_ms.saturating_mul(1_000_000),
            workers,
            seq: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                in_flight: BTreeMap::new(),
                responses: BTreeMap::new(),
                routes: BTreeMap::new(),
                requests_w: WindowedCounter::new(EPOCH_S, N_SLOTS),
                slow: VecDeque::with_capacity(SLOW_RING),
                slow_seen: 0,
            }),
        }
    }

    /// Seconds since the server started — the injected clock for every
    /// windowed structure.
    pub(crate) fn now_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    fn uptime_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Marks a worker busy for the duration of the returned guard.
    pub(crate) fn worker_busy(&self) -> BusyGuard<'_> {
        self.busy.fetch_add(1, Ordering::Relaxed);
        BusyGuard { t: self }
    }

    /// Marks `route` in-flight for the duration of the returned guard.
    pub(crate) fn enter(&self, route: &'static str) -> InFlightGuard<'_> {
        let mut inner = self.inner.lock().expect("telemetry lock poisoned");
        *inner.in_flight.entry(route).or_insert(0) += 1;
        InFlightGuard { t: self, route }
    }

    /// Allocates the next monotonic request id. The connection handler
    /// calls this before writing the response head so the id can be
    /// echoed back as the `x-pae-request` header, then passes it to
    /// [`Telemetry::record`] so the slow ring and sampled trace events
    /// carry the same id the client saw.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished request under its pre-allocated sequence
    /// number. Everything observable happens here, strictly after the
    /// response was written.
    pub(crate) fn record(
        &self,
        route: &'static str,
        status: u16,
        status_label: &'static str,
        timing: &RequestTiming,
        seq: u64,
    ) {
        self.record_at(self.now_s(), route, status, status_label, timing, seq);
    }

    fn record_at(
        &self,
        now_s: u64,
        route: &'static str,
        status: u16,
        status_label: &'static str,
        timing: &RequestTiming,
        seq: u64,
    ) {
        let total_ns = timing.total_ns();
        {
            let mut inner = self.inner.lock().expect("telemetry lock poisoned");
            *inner.responses.entry(status_label).or_insert(0) += 1;
            inner.requests_w.add(now_s, 1);
            let stats = inner.routes.entry(route).or_default();
            let windowed = stats
                .windowed
                .get_or_insert_with(|| WindowedHistogram::new(EPOCH_S, N_SLOTS));
            windowed.observe(now_s, total_ns as f64);
            stats.cumulative.observe(total_ns as f64);
            stats.count += 1;
            if self.slow_ns > 0 && total_ns >= self.slow_ns {
                inner.slow_seen += 1;
                if inner.slow.len() == SLOW_RING {
                    inner.slow.pop_front();
                }
                inner.slow.push_back(SlowCapture {
                    seq,
                    route,
                    status,
                    timing: *timing,
                    at_s: now_s,
                });
            }
        }
        // Deterministic 1-in-N sampling by request counter — no RNG.
        // The event goes through the obs collector, which no-ops when
        // collection is disabled; either way the response bytes were
        // already sent.
        if self.trace_sample > 0 && seq.is_multiple_of(self.trace_sample) {
            pae_obs::event(
                "serve.request.sample",
                vec![
                    ("seq".to_owned(), FieldValue::U64(seq)),
                    ("route".to_owned(), FieldValue::from(route)),
                    ("status".to_owned(), FieldValue::U64(u64::from(status))),
                    ("read_ns".to_owned(), FieldValue::U64(timing.read_ns)),
                    ("handle_ns".to_owned(), FieldValue::U64(timing.handle_ns)),
                    ("write_ns".to_owned(), FieldValue::U64(timing.write_ns)),
                    ("total_ns".to_owned(), FieldValue::U64(total_ns)),
                    ("body_bytes".to_owned(), FieldValue::U64(timing.body_bytes)),
                    (
                        "body_digest".to_owned(),
                        FieldValue::Str(format!("{:016x}", timing.body_digest)),
                    ),
                ],
            );
        }
    }

    /// The live metrics merged into `/metrics` next to the global
    /// registry: `serve.live.*` counters/gauges/histograms plus
    /// `process.*` gauges, all registry-shaped.
    pub(crate) fn metrics_extra(&self) -> Vec<(MetricKey, MetricValue)> {
        self.metrics_extra_at(self.now_s())
    }

    fn metrics_extra_at(&self, now_s: u64) -> Vec<(MetricKey, MetricValue)> {
        let key = |name: &str, labels: &[(&str, &str)]| MetricKey {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        };
        let mut out = pae_obs::process_metrics(self.uptime_seconds());
        // Allocator families, present only when the counting allocator
        // is on (PAE_PROF=1 / --profile): zero-valued counters on an
        // unprofiled server would read as "profiled, allocated nothing".
        let prof = pae_obs::prof_stats();
        if prof.enabled {
            out.push((
                key("prof.alloc_bytes_total", &[]),
                MetricValue::Counter(prof.alloc_bytes),
            ));
            out.push((
                key("prof.alloc_count_total", &[]),
                MetricValue::Counter(prof.alloc_count),
            ));
            out.push((
                key("prof.free_bytes_total", &[]),
                MetricValue::Counter(prof.free_bytes),
            ));
            out.push((
                key("prof.live_bytes", &[]),
                MetricValue::Gauge(prof.live_bytes as f64),
            ));
            out.push((
                key("prof.peak_live_bytes", &[]),
                MetricValue::Gauge(prof.peak_live_bytes as f64),
            ));
        }
        out.push((
            key("serve.bundle.load_ns", &[]),
            MetricValue::Gauge(self.bundle_load_ns as f64),
        ));
        out.push((
            key("serve.live.workers", &[]),
            MetricValue::Gauge(self.workers as f64),
        ));
        out.push((
            key("serve.live.workers_busy", &[]),
            MetricValue::Gauge(self.busy.load(Ordering::Relaxed) as f64),
        ));
        let inner = self.inner.lock().expect("telemetry lock poisoned");
        out.push((
            key("serve.live.requests", &[]),
            MetricValue::Counter(self.seq.load(Ordering::Relaxed)),
        ));
        out.push((
            key("serve.live.slow_captured", &[]),
            MetricValue::Counter(inner.slow_seen),
        ));
        for (status, count) in &inner.responses {
            out.push((
                key("serve.live.responses", &[("status", status)]),
                MetricValue::Counter(*count),
            ));
        }
        for (route, n) in &inner.in_flight {
            out.push((
                key("serve.live.in_flight", &[("route", route)]),
                MetricValue::Gauge(*n as f64),
            ));
        }
        for (window, width) in WINDOWS {
            out.push((
                key("serve.live.request_rate", &[("window", window)]),
                MetricValue::Gauge(inner.requests_w.rate(now_s, width)),
            ));
        }
        for (route, stats) in &inner.routes {
            out.push((
                key("serve.live.request_ns", &[("route", route)]),
                MetricValue::Histogram(Box::new(stats.cumulative.clone())),
            ));
            let Some(windowed) = &stats.windowed else {
                continue;
            };
            for (window, width) in WINDOWS {
                // A window with no samples has no quantiles: emitting 0
                // would read as "p99 = 0 ns". Skip the family instead.
                let merged = windowed.window(now_s, width);
                if merged.count == 0 {
                    continue;
                }
                for (q_label, q) in QUANTILES {
                    out.push((
                        key(
                            "serve.live.latency_ns",
                            &[("q", q_label), ("route", route), ("window", window)],
                        ),
                        MetricValue::Gauge(merged.quantile(q)),
                    ));
                }
            }
        }
        out
    }

    /// The `/statusz` JSON document. `include_slow` adds the captured
    /// slow-request ring (`?slow=1`); `quality` is the extraction
    /// quality monitor's `ok`/`degraded` verdict (`None` when rendered
    /// without a monitor, e.g. in telemetry-only tests).
    pub(crate) fn statusz_json(&self, include_slow: bool, quality: Option<&str>) -> String {
        self.statusz_json_at(self.now_s(), include_slow, quality)
    }

    fn statusz_json_at(&self, now_s: u64, include_slow: bool, quality: Option<&str>) -> String {
        use std::fmt::Write as _;
        let inner = self.inner.lock().expect("telemetry lock poisoned");
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"bundle\":{{\"content_hash\":\"{:016x}\",\"schema_version\":{},\"load_ns\":{}}}",
            self.bundle_hash,
            pae_core::BUNDLE_SCHEMA_VERSION,
            self.bundle_load_ns
        );
        let _ = write!(
            out,
            ",\"uptime_seconds\":{:.3},\"requests\":{}",
            self.uptime_seconds(),
            self.seq.load(Ordering::Relaxed)
        );
        if let Some(q) = quality {
            let _ = write!(out, ",\"quality\":\"{q}\"");
        }
        let busy = self.busy.load(Ordering::Relaxed);
        let _ = write!(
            out,
            ",\"pool\":{{\"workers\":{},\"busy\":{busy},\"utilization\":{:.4}}}",
            self.workers,
            busy as f64 / self.workers.max(1) as f64
        );
        // Memory block: kernel-reported RSS (nullable — procfs may be
        // unavailable) plus allocator counters when profiling is on.
        let ps = pae_obs::process_stats();
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |n| n.to_string());
        let prof = pae_obs::prof_stats();
        let _ = write!(
            out,
            ",\"memory\":{{\"rss_bytes\":{},\"peak_rss_bytes\":{},\"profiling\":{}",
            opt(ps.rss_bytes),
            opt(ps.peak_rss_bytes),
            prof.enabled
        );
        if prof.enabled {
            let _ = write!(
                out,
                ",\"alloc_bytes\":{},\"alloc_count\":{},\"live_bytes\":{},\"peak_live_bytes\":{}",
                prof.alloc_bytes, prof.alloc_count, prof.live_bytes, prof.peak_live_bytes
            );
        }
        out.push('}');
        out.push_str(",\"in_flight\":{");
        for (i, (route, n)) in inner.in_flight.iter().enumerate() {
            let _ = write!(out, "{}\"{route}\":{n}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"responses\":{");
        for (i, (status, count)) in inner.responses.iter().enumerate() {
            let _ = write!(out, "{}\"{status}\":{count}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"windows\":{");
        for (wi, (window, width)) in WINDOWS.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{window}\":{{\"rate\":{:.4},\"routes\":{{",
                if wi > 0 { "," } else { "" },
                inner.requests_w.rate(now_s, *width)
            );
            let mut first = true;
            for (route, stats) in &inner.routes {
                let Some(windowed) = &stats.windowed else {
                    continue;
                };
                let _ = write!(out, "{}\"{route}\":{{", if first { "" } else { "," });
                first = false;
                // An empty window has no quantiles: render null, not a
                // fake 0 ns latency.
                let merged = windowed.window(now_s, *width);
                for (qi, (q_label, q)) in QUANTILES.iter().enumerate() {
                    let _ = write!(out, "{}\"{q_label}_ns\":", if qi > 0 { "," } else { "" });
                    if merged.count == 0 {
                        out.push_str("null");
                    } else {
                        let _ = write!(out, "{:.0}", merged.quantile(*q));
                    }
                }
                out.push('}');
            }
            out.push_str("}}");
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"slow\":{{\"threshold_ns\":{},\"seen\":{},\"captured\":{}",
            self.slow_ns,
            inner.slow_seen,
            inner.slow.len()
        );
        if include_slow {
            out.push_str(",\"requests\":[");
            for (i, s) in inner.slow.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"seq\":{},\"route\":\"{}\",\"status\":{},\"total_ns\":{},\
                     \"read_ns\":{},\"handle_ns\":{},\"write_ns\":{},\"body_bytes\":{},\
                     \"body_digest\":\"{:016x}\",\"at_s\":{}}}",
                    if i > 0 { "," } else { "" },
                    s.seq,
                    s.route,
                    s.status,
                    s.timing.total_ns(),
                    s.timing.read_ns,
                    s.timing.handle_ns,
                    s.timing.write_ns,
                    s.timing.body_bytes,
                    s.timing.body_digest,
                    s.at_s
                );
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

/// Decrements the busy-worker gauge on drop.
pub(crate) struct BusyGuard<'a> {
    t: &'a Telemetry,
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.t.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Decrements the per-route in-flight gauge on drop.
pub(crate) struct InFlightGuard<'a> {
    t: &'a Telemetry,
    route: &'static str,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.t.inner.lock().expect("telemetry lock poisoned");
        if let Some(n) = inner.in_flight.get_mut(self.route) {
            *n = n.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pae_obs::json::Json;

    fn timing(total_ms: u64) -> RequestTiming {
        RequestTiming {
            read_ns: 1_000,
            handle_ns: total_ms * 1_000_000,
            write_ns: 2_000,
            body_bytes: 64,
            body_digest: 0xdead_beef,
        }
    }

    #[test]
    fn records_accumulate_and_render() {
        let t = Telemetry::new(0xabc, 0, 0, 0, 4);
        for _ in 0..5 {
            t.record("extract", 200, "200", &timing(1), t.next_seq());
        }
        t.record("not_found", 404, "404", &timing(0), t.next_seq());
        let metrics = t.metrics_extra();
        let get = |name: &str, labels: &[(&str, &str)]| {
            metrics
                .iter()
                .find(|(k, _)| {
                    k.name == name
                        && k.labels
                            == labels
                                .iter()
                                .map(|(a, b)| ((*a).to_owned(), (*b).to_owned()))
                                .collect::<Vec<_>>()
                })
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            get("serve.live.requests", &[]),
            Some(MetricValue::Counter(6))
        );
        assert_eq!(
            get("serve.bundle.load_ns", &[]),
            Some(MetricValue::Gauge(0.0))
        );
        assert_eq!(
            get("serve.live.responses", &[("status", "200")]),
            Some(MetricValue::Counter(5))
        );
        let Some(MetricValue::Histogram(h)) = get("serve.live.request_ns", &[("route", "extract")])
        else {
            panic!("per-route histogram missing");
        };
        assert_eq!(h.count, 5);
        assert!(get(
            "serve.live.latency_ns",
            &[("q", "p99"), ("route", "extract"), ("window", "1m")]
        )
        .is_some());
    }

    #[test]
    fn statusz_is_valid_json_with_expected_fields() {
        let t = Telemetry::new(0x1234, 77, 0, 10, 4);
        t.record("extract", 200, "200", &timing(50), t.next_seq()); // 50ms > 10ms: slow
        t.record("extract", 200, "200", &timing(0), t.next_seq());
        let doc = Json::parse(&t.statusz_json(true, None)).expect("statusz is JSON");
        assert_eq!(
            doc.get("bundle")
                .and_then(|b| b.get("content_hash"))
                .and_then(Json::as_str),
            Some("0000000000001234")
        );
        assert_eq!(
            doc.get("bundle")
                .and_then(|b| b.get("schema_version"))
                .and_then(Json::as_u64),
            Some(u64::from(pae_core::BUNDLE_SCHEMA_VERSION))
        );
        assert_eq!(
            doc.get("bundle")
                .and_then(|b| b.get("load_ns"))
                .and_then(Json::as_u64),
            Some(77)
        );
        assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(2));
        let slow = doc.get("slow").expect("slow section");
        assert_eq!(slow.get("seen").and_then(Json::as_u64), Some(1));
        let Some(Json::Arr(captured)) = slow.get("requests") else {
            panic!("slow.requests missing with ?slow=1");
        };
        assert_eq!(captured.len(), 1);
        assert_eq!(
            captured[0].get("route").and_then(Json::as_str),
            Some("extract")
        );
        // Without include_slow the ring is summarized but not dumped.
        let brief = Json::parse(&t.statusz_json(false, None)).expect("JSON");
        assert!(brief.get("slow").unwrap().get("requests").is_none());
    }

    #[test]
    fn slow_ring_is_bounded_drop_oldest() {
        let t = Telemetry::new(0, 0, 0, 1, 2);
        for _ in 0..(SLOW_RING + 10) {
            t.record("extract", 200, "200", &timing(5), t.next_seq());
        }
        let doc = Json::parse(&t.statusz_json(true, None)).expect("JSON");
        let slow = doc.get("slow").unwrap();
        assert_eq!(
            slow.get("seen").and_then(Json::as_u64),
            Some((SLOW_RING + 10) as u64)
        );
        let Some(Json::Arr(captured)) = slow.get("requests") else {
            panic!("missing requests");
        };
        assert_eq!(captured.len(), SLOW_RING);
        // Oldest dropped: first kept seq is 10.
        assert_eq!(captured[0].get("seq").and_then(Json::as_u64), Some(10));
    }

    #[test]
    fn statusz_memory_block_reflects_profiling_state() {
        let t = Telemetry::new(0, 0, 0, 0, 2);
        // Unprofiled: RSS fields present (real or null), allocator
        // counters absent.
        let doc = Json::parse(&t.statusz_json(false, None)).expect("JSON");
        let mem = doc.get("memory").expect("memory block");
        assert_eq!(mem.get("profiling"), Some(&Json::Bool(false)));
        assert!(mem.get("rss_bytes").is_some());
        assert!(mem.get("alloc_bytes").is_none());
        let metrics = t.metrics_extra();
        assert!(
            !metrics.iter().any(|(k, _)| k.name.starts_with("prof.")),
            "prof families must be absent while unprofiled"
        );

        // Profiled: counters appear in both /statusz and /metrics.
        pae_obs::set_prof_enabled(true);
        let doc = Json::parse(&t.statusz_json(false, None)).expect("JSON");
        let metrics = t.metrics_extra();
        pae_obs::set_prof_enabled(false);
        let mem = doc.get("memory").expect("memory block");
        assert_eq!(mem.get("profiling"), Some(&Json::Bool(true)));
        assert!(mem.get("alloc_bytes").and_then(Json::as_u64).is_some());
        assert!(mem.get("peak_live_bytes").and_then(Json::as_u64).is_some());
        for family in [
            "prof.alloc_bytes_total",
            "prof.live_bytes",
            "prof.peak_live_bytes",
        ] {
            assert!(
                metrics.iter().any(|(k, _)| k.name == family),
                "{family} missing from profiled /metrics"
            );
        }
    }

    #[test]
    fn empty_windows_render_null_not_zero() {
        let t = Telemetry::new(0, 0, 0, 0, 2);
        // Record far in the past: by "now" (t=0 .. a few ms) both the
        // 1m and 5m windows... actually the reverse: record at a large
        // now_s, then render at an epoch far past it, so every windowed
        // slot has aged out while the cumulative histogram still holds
        // the sample.
        t.record_at(0, "extract", 200, "200", &timing(1), t.next_seq());
        let doc = Json::parse(&t.statusz_json_at(10_000, false, None)).expect("JSON");
        let route = doc
            .get("windows")
            .and_then(|w| w.get("1m"))
            .and_then(|w| w.get("routes"))
            .and_then(|r| r.get("extract"))
            .expect("route block still listed");
        assert_eq!(
            route.get("p50_ns"),
            Some(&Json::Null),
            "empty window → null"
        );
        assert_eq!(route.get("p99_ns"), Some(&Json::Null));
        let metrics = t.metrics_extra_at(10_000);
        assert!(
            !metrics
                .iter()
                .any(|(k, _)| k.name == "serve.live.latency_ns"),
            "empty windows must omit the latency family, not emit 0"
        );
        // Cumulative per-route histogram is unaffected by window aging.
        assert!(metrics
            .iter()
            .any(|(k, _)| k.name == "serve.live.request_ns"));

        // With a fresh sample in-window the quantiles come back.
        t.record_at(10_000, "extract", 200, "200", &timing(1), t.next_seq());
        let doc = Json::parse(&t.statusz_json_at(10_000, false, None)).expect("JSON");
        let p50 = doc
            .get("windows")
            .and_then(|w| w.get("1m"))
            .and_then(|w| w.get("routes"))
            .and_then(|r| r.get("extract"))
            .and_then(|r| r.get("p50_ns"))
            .and_then(Json::as_f64)
            .expect("non-empty window renders a number");
        assert!(p50 > 0.0);
        assert!(t
            .metrics_extra_at(10_000)
            .iter()
            .any(|(k, _)| k.name == "serve.live.latency_ns"));
    }

    #[test]
    fn statusz_carries_the_quality_flag_when_given() {
        let t = Telemetry::new(0, 0, 0, 0, 2);
        let doc = Json::parse(&t.statusz_json(false, Some("degraded"))).expect("JSON");
        assert_eq!(doc.get("quality").and_then(Json::as_str), Some("degraded"));
        let doc = Json::parse(&t.statusz_json(false, None)).expect("JSON");
        assert!(doc.get("quality").is_none());
    }

    #[test]
    fn in_flight_and_busy_guards_balance() {
        let t = Telemetry::new(0, 0, 0, 0, 4);
        {
            let _b = t.worker_busy();
            let _g = t.enter("extract");
            let doc = Json::parse(&t.statusz_json(false, None)).expect("JSON");
            assert_eq!(
                doc.get("in_flight")
                    .unwrap()
                    .get("extract")
                    .and_then(Json::as_u64),
                Some(1)
            );
            assert_eq!(
                doc.get("pool").unwrap().get("busy").and_then(Json::as_u64),
                Some(1)
            );
        }
        let doc = Json::parse(&t.statusz_json(false, None)).expect("JSON");
        assert_eq!(
            doc.get("in_flight")
                .unwrap()
                .get("extract")
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            doc.get("pool").unwrap().get("busy").and_then(Json::as_u64),
            Some(0)
        );
    }
}
