#![warn(missing_docs)]

//! HTTP extraction service over frozen model bundles.
//!
//! The serving half of the freeze-then-serve split: [`Server::start`]
//! takes a loaded [`FrozenExtractor`] (from
//! [`pae_core::LoadedBundle::extractor`]), binds a std `TcpListener`,
//! and answers extraction requests from a bounded worker pool. The
//! extractor — tokenizer lattice, PoS lexicon, label space, tagger
//! parameters, frozen cleaning state — is built **once** and shared
//! warm across all workers behind an `Arc`; no per-request model work
//! happens beyond running the page pipeline itself.
//!
//! ## Protocol
//!
//! Plain HTTP/1.1, one request per connection:
//!
//! * `GET /healthz` → `200` with `{"status":"ok","attrs":N}`.
//! * `POST /extract` with a JSON body. Either a single page
//!   `{"product":7,"html":"<html>…"}` or a batch
//!   `{"pages":[{"product":1,"html":"…"},…]}`. Batches run through
//!   [`pae_runtime::parallel_map`], so one request fans out across the
//!   `PAE_JOBS`-bounded compute pool while the connection pool stays
//!   small. Response: `{"pages":N,"triples":[{"product":…,"attr":"…",
//!   "value":"…"},…]}` with triples in deterministic (page-order,
//!   sorted-within-page) order — byte-identical at any worker count.
//!
//! Malformed requests get typed 4xx JSON errors; the server never
//! panics on client input.
//!
//! ## Telemetry
//!
//! Every request records a `serve.request` span, a per-route
//! `serve.request_ns` histogram sample, and `serve.responses` counters
//! labelled by status code, all through [`pae_obs`] so the existing
//! exporters (JSONL ledger, `pae-report check`) see serving the same
//! way they see training. On top of that, the server keeps its own
//! always-on live telemetry (independent of the obs trace switch) and
//! exposes it over two read-only endpoints:
//!
//! * `GET /metrics` → Prometheus text: the obs registry merged with
//!   `serve.live.*` (windowed p50/p90/p99 per route over 1m/5m,
//!   response-code counters, in-flight and pool gauges, cumulative
//!   per-route latency histograms) and `process.*` gauges (RSS,
//!   threads, uptime).
//! * `GET /statusz` → JSON: bundle content hash + schema version,
//!   uptime, per-route in-flight, windowed quantiles, response-code
//!   counters, pool utilization, the extraction-quality verdict
//!   (`"quality":"ok"|"degraded"`), and with `?slow=1` the bounded
//!   ring of captured slow requests (`--slow-ms` threshold; per-stage
//!   timings and a body digest, never the body itself).
//! * `GET /qualityz` → JSON: the field-quality monitor's view — live
//!   windowed per-attribute triple rates, empty-extraction and OOV
//!   rates, value heavy hitters, and drift scores against the bundle's
//!   freeze-time reference stats (`serve.quality.*` on `/metrics`
//!   mirrors it).
//!
//! Requests can also be *sampled* into the obs trace deterministically
//! (1-in-N by request counter, `PAE_SERVE_TRACE_SAMPLE` — no RNG). All
//! of this records strictly after the response bytes are written, so
//! telemetry provably never changes `/extract` output.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pae_core::frozen::FrozenExtractor;
use pae_core::quality::ReferenceStats;
use pae_core::Triple;
use pae_obs::json::{self, Json};

mod quality;
mod telemetry;

use quality::{PageSample, QualityMonitor};
use telemetry::{RequestTiming, Telemetry};

/// Upper bound on request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body; product pages are small, batches of
/// a few thousand pages still fit comfortably.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// How a [`Server`] binds and sizes itself.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8391`. Port 0 picks an ephemeral
    /// port (the bound address is reported by [`Server::addr`]).
    pub addr: String,
    /// Connection worker threads. Batch extraction additionally uses
    /// the `PAE_JOBS` compute pool *inside* a request, so this only
    /// needs to cover concurrent connections, not cores.
    pub workers: usize,
    /// Content hash of the bundle being served, reported on
    /// `/healthz` and `/statusz` so replica fleets can detect bundle
    /// skew. 0 when the model did not come from a bundle (e.g. frozen
    /// in-process by tests). Use
    /// [`pae_core::LoadedBundle::content_hash`] to obtain it.
    pub bundle_hash: u64,
    /// Wall-clock nanoseconds the binary spent loading the bundle
    /// (validate + build extractor), reported on `/statusz` and as the
    /// `serve.bundle.load_ns` gauge. 0 when not loaded from a bundle.
    pub bundle_load_ns: u64,
    /// Sample 1-in-N requests into the obs trace as
    /// `serve.request.sample` events; 0 disables. Deterministic
    /// (request-counter based, no RNG). Defaults from
    /// `PAE_SERVE_TRACE_SAMPLE`.
    pub trace_sample: u64,
    /// Capture requests slower than this many milliseconds into the
    /// bounded slow-request ring (`/statusz?slow=1`); 0 disables.
    pub slow_ms: u64,
    /// Freeze-time reference stats from the bundle's quality section
    /// ([`pae_core::LoadedBundle::reference`]). `None` runs
    /// the quality monitor in *no-reference* mode: live field telemetry
    /// only, no drift scores.
    pub reference: Option<ReferenceStats>,
    /// Drift score above which an attribute (PSI over value lengths) or
    /// backend (Jensen–Shannon over confidences) flags the server
    /// `degraded`. The default is the conventional PSI "drifted" line.
    pub drift_threshold: f64,
    /// Fraction of pages with zero extracted triples (5m window) above
    /// which the server flags `degraded`.
    pub empty_rate_threshold: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8391".to_owned(),
            workers: pae_runtime::jobs().clamp(2, 8),
            bundle_hash: 0,
            bundle_load_ns: 0,
            trace_sample: trace_sample_from_env(),
            slow_ms: 0,
            reference: None,
            drift_threshold: 0.25,
            empty_rate_threshold: 0.5,
        }
    }
}

/// Parses `PAE_SERVE_TRACE_SAMPLE` (1-in-N sampling; absent, empty, or
/// unparsable → 0 = off).
pub fn trace_sample_from_env() -> u64 {
    std::env::var("PAE_SERVE_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// A running extraction server. Dropping it without calling
/// [`Server::shutdown`] leaves the threads running for the process
/// lifetime (what the CLI binary wants); tests call `shutdown`.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `extractor`. Returns once the listener
    /// is accepting, so a follow-up connect cannot race the bind.
    pub fn start(extractor: FrozenExtractor, config: &ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(extractor);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let n_workers = config.workers.max(1);
        let telemetry = Arc::new(Telemetry::new(
            config.bundle_hash,
            config.bundle_load_ns,
            config.trace_sample,
            config.slow_ms,
            n_workers,
        ));
        let monitor = Arc::new(QualityMonitor::new(
            shared.attrs().to_vec(),
            shared.backend_names(),
            config.reference.clone(),
            config.drift_threshold,
            config.empty_rate_threshold,
        ));
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let rx = Arc::clone(&rx);
            let extractor = Arc::clone(&shared);
            let telemetry = Arc::clone(&telemetry);
            let monitor = Arc::clone(&monitor);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pae-serve-{i}"))
                    .spawn(move || loop {
                        let stream = match rx.lock().expect("worker queue poisoned").recv() {
                            Ok(s) => s,
                            Err(_) => break, // acceptor gone: shutdown
                        };
                        let _busy = telemetry.worker_busy();
                        handle_connection(stream, &extractor, &telemetry, &monitor);
                    })
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }

        let stop_accept = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("pae-serve-accept".to_owned())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_accept.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        // Worker pool gone means shutdown raced us.
                        Ok(stream) => {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
                // Dropping `tx` here releases the workers.
            })
            .map_err(|e| format!("spawn acceptor: {e}"))?;

        pae_obs::gauge_set("serve.workers", &[], n_workers as f64);
        Ok(Server {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the worker pool, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Blocks the calling thread until the acceptor exits (i.e.
    /// forever, absent a shutdown). The CLI binary's main loop.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Request handling.

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// A `200` carrying Prometheus exposition text instead of JSON.
    fn ok_text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        json::write_str(&mut body, message);
        body.push('}');
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

fn handle_connection(
    mut stream: TcpStream,
    extractor: &FrozenExtractor,
    telemetry: &Telemetry,
    monitor: &QualityMonitor,
) {
    let started = Instant::now();
    let _guard = pae_obs::span("serve.request");
    let mut timing = RequestTiming::default();
    let (route, response, samples) = match read_request(&mut stream) {
        Ok((method, path, body)) => {
            timing.read_ns = started.elapsed().as_nanos() as u64;
            timing.body_bytes = body.len() as u64;
            timing.body_digest = pae_core::bundle::fnv1a(&body);
            let route = route_name(&method, &path);
            let handle_start = Instant::now();
            let (response, samples) = {
                let _in_flight = telemetry.enter(route);
                dispatch(route, &method, &path, &body, extractor, telemetry, monitor)
            };
            timing.handle_ns = handle_start.elapsed().as_nanos() as u64;
            (route, response, samples)
        }
        Err(resp) => {
            timing.read_ns = started.elapsed().as_nanos() as u64;
            ("malformed", resp, None)
        }
    };
    let status_label = match response.status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        413 => "413",
        _ => "5xx",
    };
    pae_obs::counter_add("serve.responses", &[("status", status_label)], 1);
    pae_obs::observe(
        "serve.request_ns",
        &[("route", route)],
        started.elapsed().as_nanos() as f64,
    );
    // The monotonic request id, echoed to the client and stamped on the
    // slow ring and sampled trace events for cross-correlation.
    let seq = telemetry.next_seq();
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
         x-pae-request: {seq}\r\nConnection: close\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len()
    );
    let write_start = Instant::now();
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(response.body.as_bytes()))
        .and_then(|()| stream.flush());
    timing.write_ns = write_start.elapsed().as_nanos() as u64;
    // All live telemetry records after the response is on the wire:
    // sampling, slow-capture, and quality monitoring cannot influence
    // what was sent.
    telemetry.record(route, response.status, status_label, &timing, seq);
    if let Some(samples) = samples {
        monitor.record(telemetry.now_s(), &samples);
    }
}

/// Reads one HTTP/1.1 request: `(method, path, body)`. Protocol
/// violations come back as ready-made error responses.
fn read_request(stream: &mut TcpStream) -> Result<(String, String, Vec<u8>), Response> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(Response::error(400, "request head too large"));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| Response::error(400, &format!("read: {e}")))?;
        if n == 0 {
            return Err(Response::error(400, "connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| Response::error(400, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(Response::error(400, "malformed request line"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "invalid Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(413, "request body too large"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| Response::error(400, &format!("read body: {e}")))?;
        if n == 0 {
            return Err(Response::error(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((method, path, body))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Maps a request to its route label (query string ignored). The
/// label is decided before dispatch so in-flight gauges can bracket
/// the handler.
fn route_name(method: &str, path: &str) -> &'static str {
    let base = path.split('?').next().unwrap_or(path);
    match (method, base) {
        ("GET", "/healthz") => "healthz",
        ("POST", "/extract") => "extract",
        ("GET", "/metrics") => "metrics",
        ("GET", "/statusz") => "statusz",
        ("GET", "/qualityz") => "qualityz",
        (_, "/healthz" | "/extract" | "/metrics" | "/statusz" | "/qualityz") => "bad_method",
        _ => "not_found",
    }
}

fn dispatch(
    route: &'static str,
    method: &str,
    path: &str,
    body: &[u8],
    extractor: &FrozenExtractor,
    telemetry: &Telemetry,
    monitor: &QualityMonitor,
) -> (Response, Option<Vec<PageSample>>) {
    let response = match route {
        "healthz" => healthz(extractor, telemetry),
        "extract" => return extract(body, extractor),
        "metrics" => {
            let mut metrics = telemetry.metrics_extra();
            metrics.extend(monitor.metrics(telemetry.now_s()));
            Response::ok_text(pae_obs::export::prometheus::render_live(metrics))
        }
        "statusz" => {
            let query = path.split_once('?').map(|(_, q)| q).unwrap_or("");
            let include_slow = query.split('&').any(|kv| kv == "slow=1" || kv == "slow");
            Response::ok(
                telemetry.statusz_json(include_slow, Some(monitor.flag(telemetry.now_s()))),
            )
        }
        "qualityz" => Response::ok(monitor.qualityz_json(telemetry.now_s())),
        "bad_method" => Response::error(405, &format!("method {method} not allowed")),
        _ => Response::error(404, &format!("no route {path}")),
    };
    (response, None)
}

fn healthz(extractor: &FrozenExtractor, telemetry: &Telemetry) -> Response {
    Response::ok(format!(
        "{{\"status\":\"ok\",\"attrs\":{},\"bundle_hash\":\"{:016x}\",\"schema_version\":{}}}",
        extractor.attrs().len(),
        telemetry.bundle_hash,
        pae_core::BUNDLE_SCHEMA_VERSION
    ))
}

fn extract(body: &[u8], extractor: &FrozenExtractor) -> (Response, Option<Vec<PageSample>>) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (Response::error(400, "body is not UTF-8"), None),
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => {
            return (
                Response::error(400, &format!("invalid JSON body: {e}")),
                None,
            )
        }
    };
    let pages = match parse_pages(&doc) {
        Ok(p) => p,
        Err(e) => return (Response::error(400, &e), None),
    };
    let n_pages = pages.len();
    // The observed path returns byte-identical triples plus a per-page
    // read-only overlay (tokens, OOV, backend confidences) that the
    // quality monitor folds in *after* the response is written.
    let per_page: Vec<PageSample> = if let [(product, html)] = pages.as_slice() {
        vec![extractor.extract_page_observed(*product, html)]
    } else {
        extractor.extract_pages_observed(&pages)
    };
    let n_triples: usize = per_page.iter().map(|(t, _)| t.len()).sum();
    pae_obs::counter_add("serve.pages", &[], n_pages as u64);
    pae_obs::counter_add("serve.triples", &[], n_triples as u64);
    let body = render_triples(n_pages, per_page.iter().flat_map(|(t, _)| t));
    (Response::ok(body), Some(per_page))
}

/// Accepts `{"product":N,"html":"…"}` or `{"pages":[{…},…]}`.
fn parse_pages(doc: &Json) -> Result<Vec<(u32, String)>, String> {
    if let Some(Json::Arr(items)) = doc.get("pages") {
        let mut pages = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            pages.push(parse_page(item).map_err(|e| format!("pages[{i}]: {e}"))?);
        }
        return Ok(pages);
    }
    if doc.get("html").is_some() {
        return Ok(vec![parse_page(doc)?]);
    }
    Err("body must have \"html\" or \"pages\"".to_owned())
}

fn parse_page(item: &Json) -> Result<(u32, String), String> {
    let html = item
        .get("html")
        .and_then(Json::as_str)
        .ok_or("missing string field \"html\"")?;
    let product = match item.get("product") {
        None => 0,
        Some(p) => {
            let raw = p
                .as_u64()
                .ok_or("\"product\" must be a non-negative integer")?;
            u32::try_from(raw).map_err(|_| "\"product\" exceeds u32".to_owned())?
        }
    };
    Ok((product, html.to_owned()))
}

fn render_triples<'a>(pages: usize, triples: impl IntoIterator<Item = &'a Triple>) -> String {
    let mut out = format!("{{\"pages\":{pages},\"triples\":[");
    for (i, t) in triples.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"product\":{},\"attr\":", t.product));
        json::write_str(&mut out, &t.attr);
        out.push_str(",\"value\":");
        json::write_str(&mut out, &t.value);
        out.push('}');
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Minimal blocking client, shared by the load generator and tests.

/// One blocking HTTP/1.1 request against `addr`; returns
/// `(status, body)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let (status, _, body) = http_request_with_headers(addr, method, path, body)?;
    Ok((status, body))
}

/// Response headers as lower-cased `(name, value)` pairs.
pub type Headers = Vec<(String, String)>;

/// Like [`http_request`], but also returns the response [`Headers`] —
/// e.g. to read the `x-pae-request` id the server stamps on every
/// response.
pub fn http_request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Headers, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_owned()))
        .collect();
    Ok((status, headers, payload.to_owned()))
}

/// Parses an `/extract` response body back into triples.
pub fn parse_extract_response(body: &str) -> Result<Vec<Triple>, String> {
    let doc = Json::parse(body)?;
    let Some(Json::Arr(items)) = doc.get("triples") else {
        return Err("response has no \"triples\" array".to_owned());
    };
    let mut triples = Vec::with_capacity(items.len());
    for item in items {
        triples.push(Triple {
            product: item
                .get("product")
                .and_then(Json::as_u64)
                .ok_or("triple missing product")? as u32,
            attr: item
                .get("attr")
                .and_then(Json::as_str)
                .ok_or("triple missing attr")?
                .to_owned(),
            value: item
                .get("value")
                .and_then(Json::as_str)
                .ok_or("triple missing value")?
                .to_owned(),
        });
    }
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let triples = vec![
            Triple {
                product: 3,
                attr: "weight".to_owned(),
                value: "2.5 kg".to_owned(),
            },
            Triple {
                product: 4,
                attr: "color \"x\"".to_owned(),
                value: "noir\nmat".to_owned(),
            },
        ];
        let body = render_triples(2, &triples);
        let back = parse_extract_response(&body).expect("parse");
        assert_eq!(back, triples);
        let doc = Json::parse(&body).expect("valid JSON");
        assert_eq!(doc.get("pages").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn page_parsing_validates_shapes() {
        let single = Json::parse("{\"product\":7,\"html\":\"<html></html>\"}").unwrap();
        assert_eq!(
            parse_pages(&single).unwrap(),
            vec![(7, "<html></html>".to_owned())]
        );
        // Product defaults to 0 when omitted.
        let bare = Json::parse("{\"html\":\"x\"}").unwrap();
        assert_eq!(parse_pages(&bare).unwrap(), vec![(0, "x".to_owned())]);
        let batch = Json::parse(
            "{\"pages\":[{\"product\":1,\"html\":\"a\"},{\"product\":2,\"html\":\"b\"}]}",
        )
        .unwrap();
        assert_eq!(parse_pages(&batch).unwrap().len(), 2);
        for bad in [
            "{}",
            "{\"pages\":[{\"product\":1}]}",
            "{\"product\":-1,\"html\":\"x\"}",
            "{\"product\":4294967296,\"html\":\"x\"}",
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(parse_pages(&doc).is_err(), "accepted {bad}");
        }
    }
}
