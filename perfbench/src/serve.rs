//! The serve workloads, `extract_stream` and `extract_backfill`, and
//! the load phase they share with `train_bundle`'s traced run.
//!
//! Traffic rules: pages are unseen pages of the seed's category (drawn
//! past the training products, never equal to a training page), no
//! page repeats within a run, and the bundle is trained and frozen
//! from the seed before any timing starts.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pae_core::bundle::fnv1a;
use pae_core::frozen::FrozenExtractor;
use pae_core::{LoadedBundle, Triple};
use pae_synth::page::{draw_product, render_page};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::http::{render_request, Conn, Failure, Marks};
use crate::model::{self, TrainRun, CATEGORY, TRAIN_PRODUCTS};
use crate::replay::{self, ReplayRequest, Replayer, LAYER_SLACK};
use crate::server::{RouteTotals, ServerProc};
use crate::stats::{mean, median, quantile, HostCpu};
use crate::trace::Spans;
use crate::{json, Ctx, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Single-page requests sent open loop at [`STREAM_RATE`].
    Stream,
    /// [`BATCH`]-page requests sent closed loop.
    Backfill,
}

/// Offered rate of `extract_stream`, well under the server's capacity.
pub const STREAM_RATE: f64 = 400.0;
/// Pages per `extract_backfill` request.
pub const BATCH: usize = 32;
/// Server spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 9;
/// Trainings of the served bundle per run; `train_s` is their median.
const SERVE_TRAINS: usize = 3;
/// Requests per latency window: the reported quantiles are medians over
/// consecutive windows of at least this many requests, so one stall of
/// the host moves at most the windows it falls in.
const LATENCY_WINDOW: usize = 1000;
/// Upper bound on backfill throughput, for sizing the page pool so
/// that no page repeats. A run that exhausts the pool fails.
const MAX_BACKFILL_PAGES_PER_S: f64 = 6000.0;
/// Largest accepted gap between mean client wait and mean server
/// request time: a fixed part (kernel hand-off, accept queue) plus a
/// share of the server time.
const WAIT_SLACK_US: f64 = 300.0;
const WAIT_SLACK_SHARE: f64 = 0.15;

impl Shape {
    fn pages_per_request(self) -> usize {
        match self {
            Shape::Stream => 1,
            Shape::Backfill => BATCH,
        }
    }

    /// Requests in each side phase: warming the server before the
    /// measured phase, and counting allocations on a profiled server.
    fn side_requests(self) -> usize {
        match self {
            Shape::Stream => 300,
            Shape::Backfill => 8,
        }
    }

    /// Measured requests the traced run replays in-process.
    fn replay_requests(self) -> usize {
        match self {
            Shape::Stream => 1000,
            Shape::Backfill => 32,
        }
    }
}

/// Client threads and connections: at most two, at most one per core.
pub fn client_conns() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// One request, pre-rendered so it goes out in a single write.
pub struct Request {
    /// Head and body, as sent.
    pub wire: Vec<u8>,
    body_start: usize,
    /// Indices into the page pool.
    pub pages: Range<usize>,
}

impl Request {
    pub fn body(&self) -> &str {
        std::str::from_utf8(&self.wire[self.body_start..]).expect("rendered from a String")
    }
}

/// Renders `pool` into requests of `per_request` pages each.
pub fn build_requests(pool: &[(u32, String)], per_request: usize) -> Vec<Request> {
    let render_page = |out: &mut String, (product, html): &(u32, String)| {
        out.push_str(&format!("{{\"product\":{product},\"html\":"));
        pae_obs::json::write_str(out, html);
        out.push('}');
    };
    (0..pool.len() / per_request)
        .map(|i| {
            let pages = i * per_request..(i + 1) * per_request;
            let mut body = String::new();
            if per_request == 1 {
                render_page(&mut body, &pool[pages.start]);
            } else {
                body.push_str("{\"pages\":[");
                for (k, page) in pool[pages.clone()].iter().enumerate() {
                    if k > 0 {
                        body.push(',');
                    }
                    render_page(&mut body, page);
                }
                body.push_str("]}");
            }
            let wire = render_request("POST", "/extract", &body);
            Request {
                body_start: wire.len() - body.len(),
                wire,
                pages,
            }
        })
        .collect()
}

/// `n` distinct unseen pages of the seed's category: products drawn
/// from the seed's category schema on a random stream of their own,
/// numbered after the training products, with any page equal to a
/// training page or to an earlier traffic page left out. Only the pages
/// are generated, so a large pool stays small in memory.
fn traffic_pool(
    seed: u64,
    n: usize,
    training: &pae_synth::Dataset,
) -> Result<Vec<(u32, String)>, String> {
    let (schema, _) = CATEGORY.build(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let seen: HashSet<&str> = training.pages.iter().map(|p| p.html.as_str()).collect();
    // Hashes, not strings: equal pages always collide, and a false
    // collision only drops a page.
    let mut distinct: HashSet<u64> = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    let mut id = TRAIN_PRODUCTS as u32;
    while pool.len() < n {
        if id as usize > TRAIN_PRODUCTS + 2 * n + 1000 {
            return Err(format!(
                "only {} distinct unseen pages, need {n}",
                pool.len()
            ));
        }
        let record = draw_product(&schema, id, &mut rng);
        let html = render_page(&schema, &record, &mut rng);
        if !seen.contains(html.as_str()) && distinct.insert(fnv1a(html.as_bytes())) {
            pool.push((id, html));
        }
        id += 1;
    }
    Ok(pool)
}

#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Request `k` is due at `t0 + k / rate`, whatever earlier
    /// requests are doing.
    Open { rate: f64, count: usize },
    /// Each client sends its next request when the previous one is
    /// answered, until the deadline or the requests run out.
    Closed { deadline: Option<Duration> },
}

/// One request as sent.
pub struct Sent {
    pub req: usize,
    /// Scheduled send time (open loop only).
    pub due: Option<Instant>,
    pub marks: Marks,
    pub result: Result<Vec<u8>, Failure>,
}

impl Sent {
    /// Client-observed latency: from the scheduled send time in open
    /// loop, from the actual one in closed loop.
    pub fn latency_ms(&self) -> f64 {
        let from = self.due.unwrap_or(self.marks.start);
        self.marks
            .done
            .saturating_duration_since(from)
            .as_secs_f64()
            * 1e3
    }
}

pub struct Phase {
    pub sent: Vec<Sent>,
    pub t0: Instant,
    pub wall_s: f64,
    pub connects: u64,
    /// A deadline-bound closed loop ran out of requests.
    pub exhausted: bool,
}

/// Sends `reqs` to `addr` from `conns` client threads.
pub fn drive(addr: SocketAddr, reqs: &[Request], schedule: Schedule, conns: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let exhausted = AtomicBool::new(false);
    let t0 = Instant::now();
    let per_thread: Vec<(Vec<Sent>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (next, exhausted) = (&next, &exhausted);
                scope.spawn(move || {
                    let mut conn = Conn::with_spin(addr, matches!(schedule, Schedule::Open { .. }));
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let due = match schedule {
                            Schedule::Open { rate, count } => {
                                if k >= count.min(reqs.len()) {
                                    exhausted.fetch_or(count > reqs.len(), Ordering::Relaxed);
                                    break;
                                }
                                let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                                while Instant::now() < due {
                                    std::thread::yield_now();
                                }
                                Some(due)
                            }
                            Schedule::Closed { deadline } => {
                                if deadline.is_some_and(|d| t0.elapsed() >= d) {
                                    break;
                                }
                                if k >= reqs.len() {
                                    exhausted.fetch_or(deadline.is_some(), Ordering::Relaxed);
                                    break;
                                }
                                None
                            }
                        };
                        let (result, marks) = conn.request(&reqs[k].wire);
                        mine.push(Sent {
                            req: k,
                            due,
                            marks,
                            result,
                        });
                    }
                    (mine, conn.connects)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let connects = per_thread.iter().map(|(_, c)| c).sum();
    let mut sent: Vec<Sent> = per_thread.into_iter().flat_map(|(s, _)| s).collect();
    sent.sort_by_key(|s| s.req);
    let end = sent.iter().map(|s| s.marks.done).max().unwrap_or(t0);
    Phase {
        sent,
        t0,
        wall_s: (end - t0).as_secs_f64(),
        connects,
        exhausted: exhausted.load(Ordering::Relaxed),
    }
}

/// Per-phase request counts; each failure kind on its own.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub sent: u64,
    pub ok: u64,
    pub connect: u64,
    pub io: u64,
    pub status: u64,
    pub unparsable: u64,
    pub mismatched: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.connect + self.io + self.status + self.unparsable + self.mismatched
    }

    pub fn print(&self, phase: &str) {
        println!(
            "requests {phase}: sent {}, ok {}, connect errors {}, io errors {}, non-200 {}, \
             unparsable {}, mismatched {}",
            self.sent,
            self.ok,
            self.connect,
            self.io,
            self.status,
            self.unparsable,
            self.mismatched
        );
    }
}

fn parse_response(body: &[u8]) -> Result<(usize, Vec<Triple>), String> {
    let doc = json::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)?;
    let pages = doc
        .get("pages")
        .and_then(json::Value::as_f64)
        .ok_or("no page count")?;
    let Some(json::Value::Arr(items)) = doc.get("triples") else {
        return Err("no triples array".into());
    };
    let field = |item: &json::Value, k: &str| {
        item.get(k)
            .and_then(json::Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("triple without {k}"))
    };
    let triples = items
        .iter()
        .map(|item| {
            Ok(Triple {
                product: item
                    .get("product")
                    .and_then(json::Value::as_f64)
                    .ok_or("triple without product")? as u32,
                attr: field(item, "attr")?,
                value: field(item, "value")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((pages as usize, triples))
}

/// Counts the phase's outcomes, parsing every stored response and
/// comparing it with in-process `extract_page` on the same pages.
pub fn verify(
    phase: &Phase,
    reqs: &[Request],
    pool: &[(u32, String)],
    extractor: &FrozenExtractor,
) -> Counts {
    #[derive(Clone, Copy)]
    enum Verdict {
        Ok,
        Failed(Failure),
        Unparsable,
        Mismatched,
    }
    let verdicts = pae_runtime::parallel_map(&phase.sent, |_, s| {
        let body = match &s.result {
            Ok(body) => body,
            Err(f) => return Verdict::Failed(*f),
        };
        let Ok((pages, triples)) = parse_response(body) else {
            return Verdict::Unparsable;
        };
        let req = &reqs[s.req];
        let expected: Vec<Triple> = pool[req.pages.clone()]
            .iter()
            .flat_map(|(product, html)| extractor.extract_page(*product, html))
            .collect();
        if pages == req.pages.len() && triples == expected {
            Verdict::Ok
        } else {
            Verdict::Mismatched
        }
    });
    let mut c = Counts {
        sent: phase.sent.len() as u64,
        ..Counts::default()
    };
    for v in verdicts {
        match v {
            Verdict::Ok => c.ok += 1,
            Verdict::Failed(Failure::Connect) => c.connect += 1,
            Verdict::Failed(Failure::Io) => c.io += 1,
            Verdict::Failed(Failure::Status(_)) => c.status += 1,
            Verdict::Failed(Failure::Unparsable) | Verdict::Unparsable => c.unparsable += 1,
            Verdict::Mismatched => c.mismatched += 1,
        }
    }
    c
}

/// The measured phase on one server, with the server's own view.
pub struct Measured {
    pub phase: Phase,
    pub counts: Counts,
    pub cpu_s: f64,
    pub steal_share: f64,
    pub before: RouteTotals,
    pub after: RouteTotals,
    pub statusz: json::Value,
    pub qualityz: json::Value,
    pub peak_rss_mib: f64,
}

impl Measured {
    pub fn pages_answered(&self, reqs: &[Request]) -> usize {
        self.phase
            .sent
            .iter()
            .filter(|s| s.result.is_ok())
            .map(|s| reqs[s.req].pages.len())
            .sum()
    }

    /// Mean server-side request time over the phase, in µs.
    pub fn server_mean_us(&self) -> f64 {
        let n = self.after.count - self.before.count;
        (self.after.sum_ns - self.before.sum_ns) / n.max(1.0) / 1e3
    }

    /// Latency quantile `q` of the answered requests: the median over
    /// consecutive windows (in send order) of at least
    /// [`LATENCY_WINDOW`] requests, or the whole phase when it has
    /// fewer than two windows' worth.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let lat: Vec<f64> = self
            .phase
            .sent
            .iter()
            .filter(|s| s.result.is_ok())
            .map(Sent::latency_ms)
            .collect();
        let windows = (lat.len() / LATENCY_WINDOW).max(1);
        let per_window: Vec<f64> = lat
            .chunks(lat.len().div_ceil(windows).max(1))
            .map(|w| {
                let mut w = w.to_vec();
                w.sort_by(f64::total_cmp);
                quantile(&w, q)
            })
            .collect();
        median(&per_window)
    }
}

/// Runs one phase on `server` and reads the server's counters around it.
pub fn measure(
    server: &ServerProc,
    reqs: &[Request],
    pool: &[(u32, String)],
    schedule: Schedule,
    extractor: &FrozenExtractor,
) -> Result<Measured, String> {
    let before = server.extract_totals()?;
    let cpu0 = server.cpu_s()?;
    let host0 = HostCpu::read();
    let phase = drive(server.addr, reqs, schedule, client_conns());
    let cpu1 = server.cpu_s()?;
    let host1 = HostCpu::read();
    let after = server.extract_totals()?;
    let statusz = server.statusz()?;
    let qualityz = json::parse(&server.get("/qualityz")?).map_err(|e| format!("/qualityz: {e}"))?;
    let peak_rss_mib = server.peak_rss_mib()?;
    let counts = verify(&phase, reqs, pool, extractor);
    // The server must have counted exactly the requests it answered.
    let answered = phase
        .sent
        .iter()
        .filter(|s| matches!(s.result, Ok(_) | Err(Failure::Status(_))))
        .count();
    if after.count - before.count != answered as f64 {
        return Err(format!(
            "the server counted {} extract requests, the client got {answered} answers",
            after.count - before.count
        ));
    }
    Ok(Measured {
        counts,
        cpu_s: cpu1 - cpu0,
        steal_share: host1.steal_share_since(&host0),
        before,
        after,
        statusz,
        qualityz,
        peak_rss_mib,
        phase,
    })
}

/// Writes the bundle where the server can load it.
pub fn write_bundle(ctx: &Ctx, bytes: &[u8]) -> Result<std::path::PathBuf, String> {
    let path = ctx.work_dir.join(format!("bundle-{}.paeb", ctx.seed));
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

pub fn spawn(
    ctx: &Ctx,
    bundle: &Path,
    tag: &str,
    profile: bool,
) -> Result<(ServerProc, f64), String> {
    let log = ctx
        .work_dir
        .join(format!("server-{}-{tag}.log", ctx.workload));
    ServerProc::spawn(&ctx.server_bin, bundle, &log, profile)
}

pub fn run(ctx: &Ctx, shape: Shape) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dataset = model::dataset(ctx.seed);
    let corpus = pae_core::parse_corpus(&dataset);
    let trained = model::train(&dataset, &corpus)?;
    let mut train_s = vec![trained.train_s];
    for _ in 1..SERVE_TRAINS {
        let again = model::train(&dataset, &corpus)?;
        train_s.push(again.train_s);
        if again.fingerprint() != trained.fingerprint() {
            out.fail("training the same corpus twice gave different bundles".into());
        }
    }
    if let Err(e) = trained.check_pin(ctx.seed) {
        out.fail(e);
    }
    let bundle = write_bundle(ctx, &trained.bytes)?;
    let loaded = LoadedBundle::from_bytes(trained.bytes.clone()).map_err(|e| e.to_string())?;
    let extractor = loaded.extractor().map_err(|e| e.to_string())?;

    let per_req = shape.pages_per_request();
    let measure_reqs = match shape {
        Shape::Stream => (STREAM_RATE * ctx.seconds).ceil() as usize,
        Shape::Backfill => (MAX_BACKFILL_PAGES_PER_S * ctx.seconds / BATCH as f64).ceil() as usize,
    };
    let n_side = shape.side_requests();
    let pool = traffic_pool(ctx.seed, (2 * n_side + measure_reqs) * per_req, &dataset)?;
    let reqs = build_requests(&pool, per_req);
    let (warm, rest) = reqs.split_at(n_side);
    let (profiled, measured_reqs) = rest.split_at(n_side);
    println!(
        "seed {}: serving bundle {:016x} ({} bytes); traffic pool {} pages, {} requests of {} \
         page(s); {} client connection(s)",
        ctx.seed,
        trained.hash,
        trained.bytes.len(),
        pool.len(),
        reqs.len(),
        per_req,
        client_conns()
    );

    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        // Stop the previous server before the next spawn.
        drop(server.take());
        let (s, secs) = spawn(ctx, &bundle, &format!("setup{i}"), false)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let warm_phase = drive(
        server.addr,
        warm,
        Schedule::Closed { deadline: None },
        client_conns(),
    );
    let warm_counts = verify(&warm_phase, warm, &pool, &extractor);
    let schedule = match shape {
        Shape::Stream => Schedule::Open {
            rate: STREAM_RATE,
            count: measured_reqs.len(),
        },
        Shape::Backfill => Schedule::Closed {
            deadline: Some(Duration::from_secs_f64(ctx.seconds)),
        },
    };
    let measured = measure(&server, measured_reqs, &pool, schedule, &extractor)?;
    drop(server);

    warm_counts.print("warmup");
    measured.counts.print("measured");
    out.attempted = measured.counts.sent;
    out.failed = measured.counts.failed() + warm_counts.failed();
    if measured.phase.exhausted {
        out.fail("the page pool ran out before the phase ended".into());
    }
    let quality = measured
        .statusz
        .get("quality")
        .and_then(json::Value::as_str)
        .unwrap_or("missing");
    println!("server quality flag after the phase: {quality}");
    if quality != "ok" {
        // The drift monitor's reference comes from the 300 training
        // pages only, so it can flag unseen in-distribution pages. The
        // flag does not change what `/extract` returns: reported, not
        // failed.
        let mut drifts = Vec::new();
        if let Some(json::Value::Obj(attrs)) = measured.qualityz.at(&["windows", "5m", "attrs"]) {
            for (attr, a) in attrs {
                let drift = a.get("drift").and_then(json::Value::as_f64);
                drifts.push(format!("{attr} {:.3}", drift.unwrap_or(f64::NAN)));
            }
        }
        println!(
            "warning: quality monitor reads {quality:?} on unseen in-distribution pages; \
             5m value-length drift per attribute: {}",
            drifts.join(", ")
        );
    }

    if measured.counts.ok == 0 {
        return Err("no request succeeded".into());
    }
    let pages = measured.pages_answered(measured_reqs) as f64;
    let mut late: Vec<f64> = measured
        .phase
        .sent
        .iter()
        .filter_map(|s| s.due.map(|d| s.marks.start.saturating_duration_since(d)))
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    if !late.is_empty() {
        println!(
            "open-loop generator lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            quantile(&late, 0.5),
            quantile(&late, 0.99),
            late[late.len() - 1]
        );
    }
    println!(
        "host CPU steal during the phase: {:.2}%; {} requests, {:.0} pages in {:.2} s",
        measured.steal_share * 100.0,
        measured.phase.sent.len(),
        pages,
        measured.phase.wall_s
    );

    let e2e = &mut out.metrics;
    e2e.add("setup_s", median(&setups), "s");
    e2e.add("latency_p50_ms", measured.latency_ms(0.50), "ms");
    let (p90, p99) = (measured.latency_ms(0.90), measured.latency_ms(0.99));
    println!("client latency p90 {p90:.4} ms, p99 {p99:.4} ms");
    out.layers.add("client.latency_p90_ms", p90, "ms");
    out.layers.add("client.latency_p99_ms", p99, "ms");
    e2e.add("pages_per_s", pages / measured.phase.wall_s, "1/s");
    e2e.add("cpu_us_per_page", measured.cpu_s / pages * 1e6, "us");
    e2e.add("peak_rss_mb", measured.peak_rss_mib, "MiB");
    e2e.add("train_s", median(&train_s), "s");

    if ctx.trace {
        traced(
            ctx,
            &TracedInput {
                trained: &trained,
                dataset: &dataset,
                corpus: &corpus,
                bundle: &bundle,
                extractor: &extractor,
                reqs: measured_reqs,
                pool: &pool,
                profiled,
                replay_requests: shape.replay_requests(),
            },
            &measured,
            &mut out,
        )?;
    }
    Ok(out)
}

pub struct TracedInput<'a> {
    pub trained: &'a TrainRun,
    pub dataset: &'a pae_synth::Dataset,
    pub corpus: &'a pae_core::Corpus,
    pub bundle: &'a Path,
    pub extractor: &'a FrozenExtractor,
    pub reqs: &'a [Request],
    /// The page pool all requests index into.
    pub pool: &'a [(u32, String)],
    pub profiled: &'a [Request],
    pub replay_requests: usize,
}

/// The traced part of a run: client spans from the measured phase,
/// allocations on a profiled server, the in-process layer replay, the
/// train breakdown, and the three reconciliations.
pub fn traced(
    ctx: &Ctx,
    input: &TracedInput,
    measured: &Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    // Taken out so that `out.fail` can be called while metrics are added.
    let mut layers = std::mem::take(&mut out.layers);
    let m = &mut layers;
    let mut spans = Spans::new(measured.phase.t0);
    let mut waits = Vec::new();
    for s in &measured.phase.sent {
        let trace = s.req as u64;
        let mk = &s.marks;
        let id = spans.record(trace, 0, "client.request", mk.start, mk.done);
        spans.record(trace, id, "client.connect", mk.start, mk.connected);
        spans.record(trace, id, "client.send", mk.connected, mk.sent);
        if s.result.is_ok() {
            spans.record(trace, id, "client.wait", mk.sent, mk.first_byte);
            spans.record(trace, id, "client.read", mk.first_byte, mk.done);
            waits.push((mk.first_byte - mk.sent).as_secs_f64() * 1e6);
        }
    }
    let sent = measured.phase.sent.len().max(1) as f64;
    m.add(
        "serve.connects_per_req",
        measured.phase.connects as f64 / sent,
        "count",
    );
    let p50_ns = measured
        .statusz
        .at(&["windows", "1m", "routes", "extract", "p50_ns"])
        .and_then(json::Value::as_f64)
        .ok_or("/statusz has no 1m extract p50")?;
    m.add("serve.server_us_p50", p50_ns / 1e3, "us");

    let server_us = measured.server_mean_us();
    let wait_us = mean(&waits);
    let wait_residual = wait_us - server_us;
    let wait_slack = WAIT_SLACK_US + WAIT_SLACK_SHARE * server_us;
    println!(
        "reconcile wait: client wait {wait_us:.1} us/req vs server request time {server_us:.1} \
         us/req, residual {wait_residual:+.1} us (slack {wait_slack:.0} us)"
    );
    if wait_residual.abs() > wait_slack {
        out.fail(format!(
            "client wait and server time differ by {wait_residual:+.1} us (slack {wait_slack:.0} us)"
        ));
    }

    // Allocations per request, on a second server with the counting
    // allocator on: profiling slows the server, so it stays out of the
    // timed phase.
    let (profiled_server, _) = spawn(ctx, input.bundle, "profiled", true)?;
    let alloc_count = |s: &ServerProc| -> Result<f64, String> {
        s.statusz()?
            .at(&["memory", "alloc_count"])
            .and_then(json::Value::as_f64)
            .ok_or_else(|| "/statusz has no allocation count".to_owned())
    };
    let a0 = alloc_count(&profiled_server)?;
    let prof_phase = drive(
        profiled_server.addr,
        input.profiled,
        Schedule::Closed { deadline: None },
        client_conns(),
    );
    let a1 = alloc_count(&profiled_server)?;
    drop(profiled_server);
    let prof_counts = verify(&prof_phase, input.profiled, input.pool, input.extractor);
    prof_counts.print("profiled");
    out.failed += prof_counts.failed();
    m.add(
        "serve.allocs_per_req",
        (a1 - a0) / prof_phase.sent.len().max(1) as f64,
        "count",
    );

    let loaded =
        LoadedBundle::from_bytes(input.trained.bytes.clone()).map_err(|e| e.to_string())?;
    let model = loaded.model().map_err(|e| e.to_string())?;
    let replayer = Replayer::from_model(&model)?;
    let sample: Vec<ReplayRequest> = input
        .reqs
        .iter()
        .take(input.replay_requests)
        .map(|r| ReplayRequest {
            body: r.body(),
            pages: &input.pool[r.pages.clone()],
        })
        .collect();
    let summary = replay::replay(&replayer, input.extractor, &sample, &mut spans, m);
    if summary.mismatches > 0 {
        out.failed += summary.mismatches as u64;
        out.fail(format!(
            "the layer replay disagreed with the served extractor on {} item(s)",
            summary.mismatches
        ));
    }
    if summary.layer_residual.abs() > LAYER_SLACK {
        out.fail(format!(
            "replayed layers sum to {:+.2}% of frozen.page_us (slack {:.0}%)",
            summary.layer_residual * 100.0,
            LAYER_SLACK * 100.0
        ));
    }
    m.add(
        "serve.residual_us_per_req",
        server_us - summary.replayed_us_per_req,
        "us",
    );
    let pages: Vec<&(u32, String)> = sample.iter().flat_map(|r| r.pages.iter()).collect();
    m.add(
        "frozen.allocs_per_page",
        replay::allocs_per_page(input.extractor, &pages),
        "count",
    );

    if let Err(e) = model::traced_breakdown(input.trained, input.dataset, input.corpus, m) {
        out.fail(e);
    }
    out.layers = layers;
    let path = ctx
        .work_dir
        .join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.spans.len(), path.display());
    Ok(())
}
