//! `pae-bench serve`: open-loop load generator for the extraction
//! service.
//!
//! ```text
//! serve <bundle.paeb> [--requests N] [--rate R] [--clients N]
//!       [--server-workers N] [--batch B] [--kind vacuum|garden|bags]
//!       [--products N] [--skew] [--ledger DIR]
//! ```
//!
//! Starts an in-process [`pae_serve::Server`] over real TCP from the
//! bundle, then fires `N` `/extract` requests at a fixed arrival rate
//! of `R` req/s. The schedule is **open-loop**: request `i` is due at
//! `t0 + i/R` regardless of how earlier requests are doing, and each
//! latency is measured from its *scheduled* send time, so queueing
//! delay under overload is charged to the tail (no coordinated
//! omission). Exact p50/p99/p999 over the sorted latencies are
//! printed and observed as `serve.load.quantile_ns`; `--ledger` writes
//! the server-side `serve.request` stage summary for `pae-report check
//! --baseline`. End-to-end and per-layer serving performance is the
//! repository benchmark's job (`perfbench/`).
//!
//! The run also exercises the server's own observability: `/metrics`
//! is scraped before and after the load (both scrapes must
//! schema-validate), the per-route counter deltas are reconciled
//! against the client-side tally, and `/statusz` windowed quantiles
//! are printed next to the client-observed ones and asserted to agree
//! within tolerance (the server-side view excludes open-loop queueing,
//! so it must never *exceed* the client view by more than the slack).
//!
//! The run also gates the server's *field quality* view: `/qualityz`
//! is read after the load and its 5m window is replayed into the
//! trace as `quality.online` / `quality.online.attr` events, so the
//! `--ledger` summary grows a `quality_online` section for
//! `pae-report check`. With the default in-distribution traffic the
//! server must report `quality: ok`; with `--skew` the page mix is
//! restricted to the quarter of the corpus with the longest truth
//! values — a deliberate value-length distribution shift — and the
//! run asserts the drift telemetry actually fires (`quality:
//! degraded`, some attribute PSI above the threshold). `--skew`
//! requires a bundle with embedded reference stats.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pae_bench::cli::RunCli;
use pae_obs::export::prometheus::{parse_text, validate, Sample};
use pae_obs::json::Json;
use pae_serve::{http_request, parse_extract_response, Server, ServerConfig};
use pae_synth::{CategoryKind, DatasetSpec};

fn usage() -> ExitCode {
    eprintln!(
        "usage: serve <bundle.paeb> [--requests N] [--rate R] [--clients N] \
         [--server-workers N] [--batch B] [--kind vacuum|garden|bags] [--products N] [--skew]"
    );
    ExitCode::from(2)
}

/// Exact quantile of an ascending-sorted sample (nearest-rank).
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Scrapes and schema-validates `/metrics`, returning the parsed
/// samples.
fn scrape_metrics(addr: std::net::SocketAddr, when: &str) -> Result<Vec<Sample>, String> {
    let (status, text) =
        http_request(addr, "GET", "/metrics", "").map_err(|e| format!("scrape {when}: {e}"))?;
    if status != 200 {
        return Err(format!("scrape {when}: /metrics returned {status}"));
    }
    validate(&text).map_err(|e| format!("scrape {when}: invalid exposition: {e}"))?;
    parse_text(&text).map_err(|e| format!("scrape {when}: {e}"))
}

fn sample_value(samples: &[Sample], name: &str, label: Option<(&str, &str)>) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
        .unwrap_or(0.0)
}

/// One attribute's row from `/qualityz`.
struct OnlineAttrRow {
    attribute: String,
    triples: u64,
    rate: f64,
    /// `None` when the server had no reference or the window was
    /// under-sampled.
    drift: Option<f64>,
}

/// The server's field-quality verdict from `GET /qualityz` (5m
/// window: the whole run fits in it).
struct OnlineQuality {
    flag: String,
    drift_threshold: f64,
    pages: u64,
    empty_pages: u64,
    empty_rate: f64,
    oov_rate: f64,
    attrs: Vec<OnlineAttrRow>,
}

fn read_qualityz(addr: std::net::SocketAddr) -> Result<OnlineQuality, String> {
    let (status, body) =
        http_request(addr, "GET", "/qualityz", "").map_err(|e| format!("qualityz: {e}"))?;
    if status != 200 {
        return Err(format!("/qualityz returned {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("/qualityz not JSON: {e}"))?;
    let flag = doc
        .get("quality")
        .and_then(Json::as_str)
        .ok_or("/qualityz has no quality flag")?
        .to_owned();
    let drift_threshold = doc
        .get("thresholds")
        .and_then(|t| t.get("drift"))
        .and_then(Json::as_f64)
        .ok_or("/qualityz has no thresholds.drift")?;
    let five = doc
        .get("windows")
        .and_then(|w| w.get("5m"))
        .ok_or("/qualityz has no windows.5m")?;
    let num = |k: &str| {
        five.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("5m window missing {k}"))
    };
    let mut attrs = Vec::new();
    if let Some(Json::Obj(m)) = five.get("attrs") {
        for (attribute, a) in m {
            attrs.push(OnlineAttrRow {
                attribute: attribute.clone(),
                triples: a.get("triples").and_then(Json::as_u64).unwrap_or(0),
                rate: a.get("rate").and_then(Json::as_f64).unwrap_or(0.0),
                drift: a.get("drift").and_then(Json::as_f64),
            });
        }
    }
    Ok(OnlineQuality {
        flag,
        drift_threshold,
        pages: num("pages")? as u64,
        empty_pages: num("empty_pages")? as u64,
        empty_rate: num("empty_rate")?,
        oov_rate: num("oov_rate")?,
        attrs,
    })
}

/// The server-side windowed quantiles for the extract route from
/// `/statusz` (widest window: the whole run fits in it).
fn statusz_extract_quantiles(addr: std::net::SocketAddr) -> Result<(u64, u64), String> {
    let (status, body) =
        http_request(addr, "GET", "/statusz", "").map_err(|e| format!("statusz: {e}"))?;
    if status != 200 {
        return Err(format!("/statusz returned {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("/statusz not JSON: {e}"))?;
    let route = doc
        .get("windows")
        .and_then(|w| w.get("5m"))
        .and_then(|w| w.get("routes"))
        .and_then(|r| r.get("extract"))
        .ok_or("/statusz has no windows.5m.routes.extract")?;
    let q = |name: &str| {
        route
            .get(name)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("/statusz extract window missing {name}"))
    };
    Ok((q("p50_ns")?, q("p99_ns")?))
}

fn main() -> ExitCode {
    let cli = RunCli::init("serve");

    let mut bundle: Option<String> = None;
    let mut requests = 200usize;
    let mut rate = 100.0f64;
    let mut clients = 8usize;
    let mut server_workers = 4usize;
    let mut batch = 1usize;
    let mut kind = CategoryKind::VacuumCleaner;
    let mut products = 120usize;
    let mut skew = false;
    let mut it = cli.args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--requests" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => requests = n,
                _ => return usage(),
            },
            "--rate" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) if r > 0.0 => rate = r,
                _ => return usage(),
            },
            "--clients" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => clients = n,
                _ => return usage(),
            },
            "--server-workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => server_workers = n,
                _ => return usage(),
            },
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => batch = n,
                _ => return usage(),
            },
            "--kind" => match it.next().map(String::as_str) {
                Some("vacuum") => kind = CategoryKind::VacuumCleaner,
                Some("garden") => kind = CategoryKind::Garden,
                Some("bags") => kind = CategoryKind::LadiesBags,
                _ => return usage(),
            },
            "--products" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => products = n,
                _ => return usage(),
            },
            "--skew" => skew = true,
            _ if bundle.is_none() && !arg.starts_with('-') => bundle = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(bundle) = bundle else {
        return usage();
    };

    let load_start = std::time::Instant::now();
    let loaded = match pae_core::LoadedBundle::open(Path::new(&bundle)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("serve: {bundle}: {e}");
            return ExitCode::from(1);
        }
    };
    let extractor = match loaded.extractor() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("serve: cannot build extractor: {e}");
            return ExitCode::from(1);
        }
    };
    let reference = match loaded.reference() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve: cannot decode reference stats: {e}");
            return ExitCode::from(1);
        }
    };
    if skew && reference.is_none() {
        eprintln!(
            "serve: --skew asserts drift telemetry fires, which needs a bundle with \
             embedded reference stats; this bundle has none"
        );
        return ExitCode::from(1);
    }
    let server = match Server::start(
        extractor,
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: server_workers,
            bundle_hash: loaded.content_hash(),
            bundle_load_ns: load_start.elapsed().as_nanos() as u64,
            reference,
            ..ServerConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(1);
        }
    };
    let addr = server.addr();

    // Pre-render request bodies: cycle the synthetic pages so the mix
    // is stable across runs. With --skew the mix is restricted to the
    // quarter of the corpus whose ground-truth values are longest
    // (deterministic sort: total value chars desc, then id) — live
    // value-length distributions shift up and the per-attribute PSI
    // against the freeze-time reference must fire.
    let dataset = DatasetSpec::new(kind, 42).products(products).generate();
    let traffic: Vec<&pae_synth::ProductPage> = if skew {
        let truth_chars = |id: u32| -> usize {
            dataset
                .truth
                .product_triples
                .get(&id)
                .map(|attrs| {
                    attrs
                        .values()
                        .flat_map(|vs| vs.iter().map(|v| v.chars().count()))
                        .sum()
                })
                .unwrap_or(0)
        };
        let mut ranked: Vec<&pae_synth::ProductPage> = dataset.pages.iter().collect();
        ranked.sort_by_key(|p| (std::cmp::Reverse(truth_chars(p.id)), p.id));
        ranked.truncate(dataset.pages.len().div_ceil(4));
        ranked
    } else {
        dataset.pages.iter().collect()
    };
    let bodies: Vec<String> = (0..requests)
        .map(|i| {
            let mut body = String::from("{\"pages\":[");
            for j in 0..batch {
                let page = traffic[(i * batch + j) % traffic.len()];
                if j > 0 {
                    body.push(',');
                }
                body.push_str(&format!("{{\"product\":{},\"html\":", page.id));
                pae_obs::json::write_str(&mut body, &page.html);
                body.push('}');
            }
            body.push_str("]}");
            body
        })
        .collect();

    println!(
        "load: {requests} requests x {batch} page(s) at {rate:.0} req/s \
         ({clients} clients -> {server_workers} workers on {addr})"
    );
    let before = match scrape_metrics(addr, "before") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(1);
        }
    };
    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                let errors = &errors;
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut mine: Vec<u64> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= bodies.len() {
                            break;
                        }
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let scheduled = t0 + due;
                        let ok = http_request(addr, "POST", "/extract", &bodies[i])
                            .ok()
                            .filter(|(status, _)| *status == 200)
                            .and_then(|(_, body)| parse_extract_response(&body).ok())
                            .is_some();
                        if ok {
                            mine.push(scheduled.elapsed().as_nanos() as u64);
                        } else {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let wall = t0.elapsed();

    // Scrape the server's own view while it is still up.
    let after = match scrape_metrics(addr, "after") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(1);
        }
    };
    let server_view = statusz_extract_quantiles(addr);
    let quality_view = read_qualityz(addr);
    server.shutdown();

    let n_errors = errors.load(Ordering::Relaxed);
    if latencies.is_empty() {
        eprintln!("serve: all {requests} requests failed");
        return ExitCode::from(1);
    }
    latencies.sort_unstable();
    let min = latencies[0];
    let mean =
        (latencies.iter().map(|&v| v as u128).sum::<u128>() / latencies.len() as u128) as u64;
    let (p50, p99, p999) = (
        quantile_ns(&latencies, 0.50),
        quantile_ns(&latencies, 0.99),
        quantile_ns(&latencies, 0.999),
    );
    println!(
        "done: {} ok, {n_errors} failed in {:.2}s ({:.0} req/s achieved)",
        latencies.len(),
        wall.as_secs_f64(),
        latencies.len() as f64 / wall.as_secs_f64()
    );
    println!(
        "latency (scheduled->response): min {:.2}ms  p50 {:.2}ms  p99 {:.2}ms  p999 {:.2}ms  mean {:.2}ms",
        min as f64 / 1e6,
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        p999 as f64 / 1e6,
        mean as f64 / 1e6
    );
    for (q, v) in [("p50", p50), ("p99", p99), ("p999", p999)] {
        pae_obs::observe("serve.load.quantile_ns", &[("q", q)], v as f64);
    }
    if n_errors > 0 {
        eprintln!("serve: {n_errors} requests failed");
        return ExitCode::from(1);
    }

    // Reconcile the server-side delta with the client-side tally: the
    // cumulative per-route extract count must have grown by exactly
    // the number of requests the clients got answers to.
    let extract_count = |samples: &[Sample]| {
        sample_value(
            samples,
            "serve_live_request_ns_count",
            Some(("route", "extract")),
        )
    };
    let delta_extract = extract_count(&after) - extract_count(&before);
    println!(
        "server view: extract requests {delta_extract:.0} (delta), \
         responses 200 {:.0} -> {:.0}",
        sample_value(&before, "serve_live_responses", Some(("status", "200"))),
        sample_value(&after, "serve_live_responses", Some(("status", "200")))
    );
    if delta_extract as u64 != latencies.len() as u64 {
        eprintln!(
            "serve: server counted {delta_extract:.0} extract requests but clients \
             completed {}",
            latencies.len()
        );
        return ExitCode::from(1);
    }

    // Server-side windowed quantiles next to the client view. The
    // server measures read+handle+write only — open-loop queueing is
    // charged to the client — so the server view may sit well below
    // the client view but must never exceed it beyond slack.
    let (server_p50, server_p99) = match server_view {
        Ok(q) => q,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "latency (server-side, /statusz 5m window): p50 {:.2}ms  p99 {:.2}ms",
        server_p50 as f64 / 1e6,
        server_p99 as f64 / 1e6
    );
    const AGREE_FACTOR: f64 = 2.0;
    const AGREE_SLACK_NS: f64 = 50e6;
    for (label, server_q, client_q) in [("p50", server_p50, p50), ("p99", server_p99, p99)] {
        if server_q as f64 > client_q as f64 * AGREE_FACTOR + AGREE_SLACK_NS {
            eprintln!(
                "serve: server-side {label} {:.2}ms disagrees with client-side {:.2}ms \
                 (tolerance x{AGREE_FACTOR} + {:.0}ms)",
                server_q as f64 / 1e6,
                client_q as f64 / 1e6,
                AGREE_SLACK_NS / 1e6
            );
            return ExitCode::from(1);
        }
    }

    // Field quality: print the server's verdict, replay it into the
    // trace (so the ledger summary grows a quality_online section),
    // and gate it. In-distribution traffic must score healthy; --skew
    // deliberately shifts the value-length mix and must fire drift.
    let quality = match quality_view {
        Ok(q) => q,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(1);
        }
    };
    let degraded = quality.flag == "degraded";
    println!(
        "quality: {} (5m window: {} pages, empty_rate {:.4}, oov_rate {:.4})",
        quality.flag, quality.pages, quality.empty_rate, quality.oov_rate
    );
    let max_drift = quality
        .attrs
        .iter()
        .filter_map(|a| a.drift.map(|d| (a.attribute.as_str(), d)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    match max_drift {
        Some((attribute, drift)) => println!(
            "quality: max attr drift {drift:.4} ({attribute}), threshold {:.2}",
            quality.drift_threshold
        ),
        None => println!("quality: no attribute drift scored (no reference or under-sampled)"),
    }
    pae_obs::event(
        "quality.online",
        vec![
            ("pages".into(), pae_obs::FieldValue::U64(quality.pages)),
            (
                "empty_pages".into(),
                pae_obs::FieldValue::U64(quality.empty_pages),
            ),
            (
                "empty_rate".into(),
                pae_obs::FieldValue::F64(quality.empty_rate),
            ),
            (
                "oov_rate".into(),
                pae_obs::FieldValue::F64(quality.oov_rate),
            ),
            (
                "degraded".into(),
                pae_obs::FieldValue::U64(u64::from(degraded)),
            ),
        ],
    );
    for a in &quality.attrs {
        let mut fields = vec![
            (
                "attribute".into(),
                pae_obs::FieldValue::Str(a.attribute.clone()),
            ),
            ("triples".into(), pae_obs::FieldValue::U64(a.triples)),
            ("rate".into(), pae_obs::FieldValue::F64(a.rate)),
        ];
        if let Some(d) = a.drift {
            fields.push(("drift".into(), pae_obs::FieldValue::F64(d)));
        }
        pae_obs::event("quality.online.attr", fields);
    }
    if skew {
        let fired = max_drift.is_some_and(|(_, d)| d > quality.drift_threshold);
        if !degraded || !fired {
            eprintln!(
                "serve: --skew shifted the traffic mix but drift telemetry did not fire \
                 (quality {}, max drift {:?})",
                quality.flag,
                max_drift.map(|(_, d)| d)
            );
            return ExitCode::from(1);
        }
    } else if degraded {
        eprintln!("serve: in-distribution traffic was flagged degraded");
        return ExitCode::from(1);
    }

    cli.finish();
    ExitCode::SUCCESS
}
