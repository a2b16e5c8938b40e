//! Live-observability tests: `/metrics` + `/statusz` under concurrent
//! load, slow-request capture, deterministic sampling, and proof that
//! none of it perturbs extraction output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use pae_core::frozen::{FrozenExtractor, FrozenModel};
use pae_core::{BootstrapPipeline, PipelineConfig, TaggerKind, Triple};
use pae_obs::export::prometheus::{parse_text, validate, Sample};
use pae_obs::json::Json;
use pae_serve::{http_request, Server, ServerConfig};
use pae_synth::{CategoryKind, DatasetSpec};

struct Fixture {
    model: FrozenModel,
    pages: Vec<(u32, String)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(60)
            .generate();
        let corpus = pae_core::parse_corpus(&dataset);
        let mut cfg = PipelineConfig {
            iterations: 1,
            tagger: TaggerKind::Crf,
            ..Default::default()
        };
        cfg.crf.max_iters = 40;
        let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);
        let model = FrozenModel::freeze(&dataset, &corpus, &outcome, &cfg).expect("freeze");
        let pages = dataset
            .pages
            .iter()
            .take(24)
            .map(|p| (p.id, p.html.clone()))
            .collect();
        Fixture { model, pages }
    })
}

fn extractor() -> FrozenExtractor {
    fixture().model.extractor().expect("extractor")
}

fn start_server(bundle_hash: u64, trace_sample: u64, slow_ms: u64) -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        bundle_hash,
        trace_sample,
        slow_ms,
        ..ServerConfig::default()
    };
    Server::start(extractor(), &config).expect("start server")
}

fn page_request_body(product: u32, html: &str) -> String {
    let mut body = format!("{{\"product\":{product},\"html\":");
    pae_obs::json::write_str(&mut body, html);
    body.push('}');
    body
}

fn batch_request_body(pages: &[(u32, String)]) -> String {
    let mut body = String::from("{\"pages\":[");
    for (i, (product, html)) in pages.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"product\":{product},\"html\":"));
        pae_obs::json::write_str(&mut body, html);
        body.push('}');
    }
    body.push_str("]}");
    body
}

fn sample_value(samples: &[Sample], name: &str, label: Option<(&str, &str)>) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
}

/// 8 clients hammer `/extract` while a scraper concurrently polls
/// `/metrics` and `/statusz`. Every scrape must parse and
/// schema-validate, the live request counter must be monotonic, and
/// nothing may poison a lock (a poisoned telemetry mutex would panic
/// the next scrape).
#[test]
fn metrics_and_statusz_stay_consistent_under_concurrent_load() {
    let fx = fixture();
    let server = start_server(0, 0, 0);
    let addr = server.addr();
    let done = AtomicBool::new(false);

    let client_errors: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|client: usize| {
                let pages = &fx.pages;
                scope.spawn(move || -> Result<u64, String> {
                    let mut ok = 0u64;
                    for round in 0..6 {
                        let i = (client * 5 + round * 7) % pages.len();
                        let (product, html) = &pages[i];
                        let (status, body) = http_request(
                            addr,
                            "POST",
                            "/extract",
                            &page_request_body(*product, html),
                        )?;
                        if status != 200 {
                            return Err(format!("client {client}: status {status}: {body}"));
                        }
                        ok += 1;
                    }
                    Ok(ok)
                })
            })
            .collect();

        let scraper = scope.spawn(|| -> Result<(), String> {
            let mut last_requests = 0.0f64;
            let mut scrapes = 0u32;
            while !done.load(Ordering::Relaxed) || scrapes < 3 {
                let (status, text) = http_request(addr, "GET", "/metrics", "")?;
                if status != 200 {
                    return Err(format!("/metrics status {status}"));
                }
                validate(&text).map_err(|e| format!("/metrics schema: {e}"))?;
                let samples = parse_text(&text).map_err(|e| format!("/metrics parse: {e}"))?;
                let requests = sample_value(&samples, "serve_live_requests", None)
                    .ok_or("serve_live_requests missing")?;
                if requests < last_requests {
                    return Err(format!(
                        "serve_live_requests went backwards: {last_requests} -> {requests}"
                    ));
                }
                last_requests = requests;

                let (status, body) = http_request(addr, "GET", "/statusz", "")?;
                if status != 200 {
                    return Err(format!("/statusz status {status}"));
                }
                let doc = Json::parse(&body).map_err(|e| format!("/statusz not JSON: {e}"))?;
                for key in ["bundle", "uptime_seconds", "requests", "pool", "windows"] {
                    if doc.get(key).is_none() {
                        return Err(format!("/statusz missing {key:?}"));
                    }
                }
                scrapes += 1;
            }
            Ok(())
        });

        let mut errors = Vec::new();
        let mut total_ok = 0u64;
        for c in clients {
            match c.join().expect("client panicked") {
                Ok(n) => total_ok += n,
                Err(e) => errors.push(e),
            }
        }
        done.store(true, Ordering::Relaxed);
        if let Err(e) = scraper.join().expect("scraper panicked") {
            errors.push(e);
        }

        // After the load drains, the server-side view must account for
        // every client-observed success.
        let (_, text) = http_request(addr, "GET", "/metrics", "").expect("final scrape");
        let samples = parse_text(&text).expect("final scrape parses");
        let ok_count = sample_value(&samples, "serve_live_responses", Some(("status", "200")))
            .expect("serve_live_responses{status=200} present");
        if (ok_count as u64) < total_ok {
            errors.push(format!(
                "server saw {ok_count} OKs but clients got {total_ok}"
            ));
        }
        errors
    });

    assert!(client_errors.is_empty(), "{client_errors:?}");
    server.shutdown();
}

/// Byte-identical `/extract` responses with all telemetry features on
/// (sample every request, 0-threshold slow capture is the closest we
/// can get — 1ms catches real extraction) versus everything off, and
/// both must equal direct in-process extraction at PAE_JOBS=1 and 4.
#[test]
fn sampling_and_slow_capture_never_change_extraction_bytes() {
    let fx = fixture();
    let direct = extractor();
    let direct_at = |jobs| -> Vec<Triple> {
        pae_runtime::with_jobs(jobs, || direct.extract_pages_observed(&fx.pages))
            .into_iter()
            .flat_map(|(triples, _)| triples)
            .collect()
    };
    let (at_one, at_four) = (direct_at(1), direct_at(4));
    assert_eq!(at_one, at_four, "extraction depends on PAE_JOBS");

    let plain = start_server(0, 0, 0);
    let instrumented = start_server(0, 1, 1); // sample 1-in-1, capture >1ms

    let batch = batch_request_body(&fx.pages);
    let (s1, b1) = http_request(plain.addr(), "POST", "/extract", &batch).expect("plain");
    let (s2, b2) = http_request(instrumented.addr(), "POST", "/extract", &batch).expect("instr");
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "telemetry changed /extract bytes");
    assert_eq!(
        pae_serve::parse_extract_response(&b1).expect("parse"),
        at_one,
        "served batch diverges from direct extraction"
    );

    for (product, html) in fx.pages.iter().take(6) {
        let body = page_request_body(*product, html);
        let (s1, b1) = http_request(plain.addr(), "POST", "/extract", &body).expect("plain");
        let (s2, b2) = http_request(instrumented.addr(), "POST", "/extract", &body).expect("instr");
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(b1, b2, "telemetry changed single-page bytes");
    }

    // The instrumented server captured the slow batch request.
    let (status, body) =
        http_request(instrumented.addr(), "GET", "/statusz?slow=1", "").expect("statusz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("statusz JSON");
    let slow = doc.get("slow").expect("slow section");
    assert!(
        slow.get("seen").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "24-page batch did not trip the 1ms slow threshold: {body}"
    );
    let Some(Json::Arr(captured)) = slow.get("requests") else {
        panic!("?slow=1 did not dump the ring: {body}");
    };
    let capture = captured.first().expect("at least one capture");
    for key in [
        "seq",
        "route",
        "status",
        "total_ns",
        "read_ns",
        "handle_ns",
        "write_ns",
        "body_bytes",
        "body_digest",
        "at_s",
    ] {
        assert!(capture.get(key).is_some(), "slow capture missing {key:?}");
    }

    plain.shutdown();
    instrumented.shutdown();
}

/// Sampling is 1-in-N on the request counter: with N=1 and obs
/// collection enabled, every request emits a `serve.request.sample`
/// event carrying the per-stage timings.
#[test]
fn deterministic_sampling_emits_trace_events() {
    let fx = fixture();
    pae_obs::set_enabled(true);
    let server = start_server(0, 1, 0);
    for (product, html) in fx.pages.iter().take(3) {
        let (status, _) = http_request(
            server.addr(),
            "POST",
            "/extract",
            &page_request_body(*product, html),
        )
        .expect("extract");
        assert_eq!(status, 200);
    }
    server.shutdown(); // join workers so all records are flushed
    let samples: Vec<_> = pae_obs::snapshot()
        .into_iter()
        .filter(|r| r.name == "serve.request.sample")
        .collect();
    pae_obs::set_enabled(false);
    assert!(
        samples.len() >= 3,
        "expected >=3 sampled events, got {}",
        samples.len()
    );
    for record in &samples {
        for key in [
            "seq",
            "route",
            "total_ns",
            "read_ns",
            "handle_ns",
            "body_digest",
        ] {
            assert!(record.field(key).is_some(), "sample event missing {key:?}");
        }
    }
}

/// `/healthz` and `/statusz` both report the bundle identity a replica
/// fleet needs for skew detection, and `/metrics` carries the process
/// gauges.
#[test]
fn bundle_identity_and_process_gauges_are_exposed() {
    let server = start_server(0xfeed_beef_dead_cafe, 0, 0);
    let addr = server.addr();

    let (status, body) = http_request(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("healthz JSON");
    assert_eq!(
        doc.get("bundle_hash").and_then(Json::as_str),
        Some("feedbeefdeadcafe")
    );
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(pae_core::BUNDLE_SCHEMA_VERSION as u64)
    );

    let (status, body) = http_request(addr, "GET", "/statusz", "").expect("statusz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("statusz JSON");
    let bundle = doc.get("bundle").expect("bundle section");
    assert_eq!(
        bundle.get("content_hash").and_then(Json::as_str),
        Some("feedbeefdeadcafe")
    );
    assert_eq!(
        bundle.get("schema_version").and_then(Json::as_u64),
        Some(pae_core::BUNDLE_SCHEMA_VERSION as u64)
    );
    // No bundle file behind the test fixture, so load time is 0.
    assert_eq!(bundle.get("load_ns").and_then(Json::as_u64), Some(0));

    let (status, text) = http_request(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    validate(&text).expect("metrics exposition validates");
    let samples = parse_text(&text).expect("metrics parse");
    assert!(sample_value(&samples, "process_uptime_seconds", None).is_some());
    #[cfg(target_os = "linux")]
    assert!(
        sample_value(&samples, "process_rss_bytes", None).is_some_and(|v| v > 0.0),
        "RSS gauge missing on linux"
    );
    assert_eq!(
        sample_value(&samples, "serve_live_workers", None),
        Some(4.0)
    );

    // Telemetry routes are themselves routed: a bad method is a 405.
    let (status, _) = http_request(addr, "POST", "/metrics", "").expect("bad method");
    assert_eq!(status, 405);
    server.shutdown();
}
