//! End-to-end serving tests: a real `TcpListener` on an ephemeral
//! port, a frozen model trained on the synthetic corpus, and clients
//! comparing served responses against direct in-process extraction.

use std::sync::OnceLock;

use pae_core::frozen::{FrozenExtractor, FrozenModel};
use pae_core::{BootstrapPipeline, PipelineConfig, TaggerKind, Triple};
use pae_serve::{http_request, parse_extract_response, Server, ServerConfig};
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

fn start_server() -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        bundle_hash: 0,
        trace_sample: 0,
        slow_ms: 0,
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

#[test]
fn healthz_reports_model_shape() {
    let server = start_server();
    let (status, body) = http_request(server.addr(), "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    let doc = pae_obs::json::Json::parse(&body).expect("json");
    assert_eq!(
        doc.get("status").and_then(pae_obs::json::Json::as_str),
        Some("ok")
    );
    assert_eq!(
        doc.get("attrs").and_then(pae_obs::json::Json::as_u64),
        Some(fixture().model.attrs.len() as u64)
    );
    // Bundle identity for skew detection: hash (0 here — no bundle
    // file behind the test fixture) and PAEB schema version.
    assert_eq!(
        doc.get("bundle_hash").and_then(pae_obs::json::Json::as_str),
        Some("0000000000000000")
    );
    assert_eq!(
        doc.get("schema_version")
            .and_then(pae_obs::json::Json::as_u64),
        Some(pae_core::BUNDLE_SCHEMA_VERSION as u64)
    );
    server.shutdown();
}

#[test]
fn served_extraction_matches_direct_extraction_at_any_job_count() {
    let fx = fixture();
    let direct = extractor();
    // The in-loop reference, computed at two compute-pool widths: the
    // frozen pipeline must be thread-count invariant AND the served
    // answer must match it byte for byte.
    let direct_at = |jobs| -> Vec<Triple> {
        pae_runtime::with_jobs(jobs, || direct.extract_pages_observed(&fx.pages))
            .into_iter()
            .flat_map(|(triples, _)| triples)
            .collect()
    };
    let (at_one, at_four) = (direct_at(1), direct_at(4));
    assert_eq!(at_one, at_four, "extraction depends on PAE_JOBS");

    let server = start_server();
    // Batch request covers all pages at once.
    let (status, body) = http_request(
        server.addr(),
        "POST",
        "/extract",
        &batch_request_body(&fx.pages),
    )
    .expect("batch extract");
    assert_eq!(status, 200, "{body}");
    let served = parse_extract_response(&body).expect("parse");
    assert_eq!(served, at_one);

    // Single-page requests agree page by page.
    for (product, html) in fx.pages.iter().take(4) {
        let (status, body) = http_request(
            server.addr(),
            "POST",
            "/extract",
            &page_request_body(*product, html),
        )
        .expect("single extract");
        assert_eq!(status, 200, "{body}");
        let served = parse_extract_response(&body).expect("parse");
        assert_eq!(served, direct.extract_page(*product, html));
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let fx = fixture();
    let direct = extractor();
    let expected: Vec<Vec<Triple>> = fx
        .pages
        .iter()
        .map(|(product, html)| direct.extract_page(*product, html))
        .collect();

    let server = start_server();
    let addr = server.addr();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let expected = &expected;
                let pages = &fx.pages;
                scope.spawn(move || {
                    for round in 0..3 {
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
                        let served = parse_extract_response(&body)?;
                        if served != expected[i] {
                            return Err(format!("client {client}: page {i} diverged"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    for r in results {
        r.expect("concurrent client");
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors() {
    let server = start_server();
    let addr = server.addr();
    let cases = [
        ("POST", "/extract", "not json", 400),
        ("POST", "/extract", "{}", 400),
        ("POST", "/extract", "{\"pages\":[{\"product\":1}]}", 400),
        ("GET", "/nope", "", 404),
        ("DELETE", "/extract", "", 405),
    ];
    for (method, path, body, want) in cases {
        let (status, body) = http_request(addr, method, path, body).expect("request");
        assert_eq!(status, want, "{method} {path}: {body}");
        assert!(
            pae_obs::json::Json::parse(&body)
                .expect("error body is JSON")
                .get("error")
                .is_some(),
            "{method} {path}: no error field in {body}"
        );
    }
    server.shutdown();
}
