//! End-to-end field-quality monitoring tests: `/qualityz`, the
//! `/statusz` quality flag, `serve.quality.*` metric families, drift
//! scoring against freeze-time reference stats, and the `x-pae-request`
//! response header.

use std::sync::OnceLock;

use pae_core::frozen::{FrozenExtractor, FrozenModel};
use pae_core::{BootstrapPipeline, PipelineConfig, TaggerKind};
use pae_obs::export::prometheus::{parse_text, validate, Sample};
use pae_obs::json::Json;
use pae_serve::{http_request, http_request_with_headers, Server, ServerConfig};
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

fn start_server(config: ServerConfig) -> Server {
    Server::start(extractor(), &config).expect("start server")
}

fn with_reference() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        reference: fixture().model.reference.clone(),
        ..ServerConfig::default()
    }
}

fn without_reference() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        reference: None,
        ..ServerConfig::default()
    }
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

/// Traffic drawn from the training corpus must score as stable: drift
/// well under the threshold, `quality: ok` everywhere it is surfaced.
#[test]
fn in_distribution_traffic_stays_ok() {
    let fx = fixture();
    let server = start_server(with_reference());
    let addr = server.addr();
    let (status, _) =
        http_request(addr, "POST", "/extract", &batch_request_body(&fx.pages)).expect("extract");
    assert_eq!(status, 200);

    let (status, body) = http_request(addr, "GET", "/qualityz", "").expect("qualityz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("qualityz JSON");
    assert_eq!(
        doc.get("reference").and_then(|r| r.get("present")).cloned(),
        Some(Json::Bool(true))
    );
    assert_eq!(doc.get("quality").and_then(Json::as_str), Some("ok"));
    let attrs = doc
        .get("windows")
        .and_then(|w| w.get("5m"))
        .and_then(|w| w.get("attrs"))
        .expect("5m attrs");
    let Json::Obj(attrs) = attrs else {
        panic!("attrs is not an object");
    };
    // The busiest attribute has enough live triples to be scored, and
    // in-distribution traffic must sit far below the 0.25 threshold.
    let scored: Vec<f64> = attrs
        .values()
        .filter_map(|a| a.get("drift").and_then(Json::as_f64))
        .collect();
    assert!(
        !scored.is_empty(),
        "24 training pages produced no scoreable attribute: {body}"
    );
    for d in &scored {
        assert!(*d < 0.25, "in-distribution drift {d} >= threshold: {body}");
    }

    // The same verdict rides on /statusz.
    let (_, body) = http_request(addr, "GET", "/statusz", "").expect("statusz");
    let doc = Json::parse(&body).expect("statusz JSON");
    assert_eq!(doc.get("quality").and_then(Json::as_str), Some("ok"));

    // And /metrics carries scored drift gauges under the threshold.
    let (_, text) = http_request(addr, "GET", "/metrics", "").expect("metrics");
    validate(&text).expect("metrics exposition validates");
    let samples = parse_text(&text).expect("metrics parse");
    assert_eq!(
        sample_value(&samples, "serve_quality_degraded", None),
        Some(0.0)
    );
    assert!(
        sample_value(&samples, "serve_quality_pages", None).is_some_and(|v| v >= 24.0),
        "quality page counter missing"
    );
    assert!(
        samples.iter().any(|s| s.name == "serve_quality_drift"),
        "scored server must expose serve_quality_drift"
    );
    server.shutdown();
}

/// Pages the model extracts nothing from push the windowed
/// empty-extraction rate over the threshold and flag the server
/// degraded — no reference stats required.
#[test]
fn empty_extractions_flag_degraded() {
    let junk: Vec<(u32, String)> = (0..12)
        .map(|i| {
            (
                i,
                "<html><title>zqx vbnr wkjp</title><body><p>mzzt qqf plxr</p></body></html>"
                    .to_owned(),
            )
        })
        .collect();
    let config = ServerConfig {
        empty_rate_threshold: 0.5,
        ..without_reference()
    };
    let server = start_server(config);
    let addr = server.addr();
    let (status, body) =
        http_request(addr, "POST", "/extract", &batch_request_body(&junk)).expect("extract");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("extract JSON");
    let Some(Json::Arr(triples)) = doc.get("triples") else {
        panic!("no triples array");
    };
    assert!(
        triples.is_empty(),
        "junk pages unexpectedly extracted triples"
    );

    let (_, body) = http_request(addr, "GET", "/qualityz", "").expect("qualityz");
    let doc = Json::parse(&body).expect("qualityz JSON");
    assert_eq!(doc.get("quality").and_then(Json::as_str), Some("degraded"));
    let five = doc.get("windows").and_then(|w| w.get("5m")).expect("5m");
    assert_eq!(five.get("empty_rate").and_then(Json::as_f64), Some(1.0));

    let (_, body) = http_request(addr, "GET", "/statusz", "").expect("statusz");
    let doc = Json::parse(&body).expect("statusz JSON");
    assert_eq!(doc.get("quality").and_then(Json::as_str), Some("degraded"));

    let (_, text) = http_request(addr, "GET", "/metrics", "").expect("metrics");
    let samples = parse_text(&text).expect("metrics parse");
    assert_eq!(
        sample_value(&samples, "serve_quality_degraded", None),
        Some(1.0)
    );
    server.shutdown();
}

/// A server without reference stats (a bundle frozen without them)
/// still tracks live rates but reports drift as null / absent — never
/// zero.
#[test]
fn no_reference_mode_has_absent_drift() {
    let fx = fixture();
    let server = start_server(without_reference());
    let addr = server.addr();
    let (status, _) =
        http_request(addr, "POST", "/extract", &batch_request_body(&fx.pages)).expect("extract");
    assert_eq!(status, 200);

    let (_, body) = http_request(addr, "GET", "/qualityz", "").expect("qualityz");
    let doc = Json::parse(&body).expect("qualityz JSON");
    assert_eq!(
        doc.get("reference").and_then(|r| r.get("present")).cloned(),
        Some(Json::Bool(false))
    );
    let attrs = doc
        .get("windows")
        .and_then(|w| w.get("5m"))
        .and_then(|w| w.get("attrs"))
        .expect("attrs");
    let Json::Obj(attrs) = attrs else {
        panic!("attrs is not an object");
    };
    assert!(!attrs.is_empty());
    for (name, a) in attrs {
        assert_eq!(
            a.get("drift"),
            Some(&Json::Null),
            "attr {name} scored drift without a reference"
        );
    }

    let (_, text) = http_request(addr, "GET", "/metrics", "").expect("metrics");
    let samples = parse_text(&text).expect("metrics parse");
    assert!(
        !samples.iter().any(|s| s.name == "serve_quality_drift"),
        "no-reference server must omit drift gauges, not report 0"
    );
    assert!(
        samples.iter().any(|s| s.name == "serve_quality_attr_rate"),
        "live rates still exported without a reference"
    );
    server.shutdown();
}

/// Every response carries the monotonic request id; sequential requests
/// over one connection-per-request client see strictly increasing ids,
/// and the id is echoed on telemetry routes too.
#[test]
fn request_ids_are_echoed_and_monotonic() {
    let server = start_server(without_reference());
    let addr = server.addr();
    let mut last: Option<u64> = None;
    for path in ["/healthz", "/statusz", "/qualityz", "/healthz"] {
        let (status, headers, _) =
            http_request_with_headers(addr, "GET", path, "").expect("request");
        assert_eq!(status, 200);
        let seq: u64 = headers
            .iter()
            .find(|(name, _)| name == "x-pae-request")
            .map(|(_, value)| value.parse().expect("x-pae-request is a number"))
            .unwrap_or_else(|| panic!("{path} response missing x-pae-request"));
        if let Some(prev) = last {
            assert!(seq > prev, "request ids not monotonic: {prev} then {seq}");
        }
        last = Some(seq);
    }
    server.shutdown();
}

/// `/qualityz` is GET-only and routed like the other telemetry
/// endpoints.
#[test]
fn qualityz_rejects_bad_methods() {
    let server = start_server(without_reference());
    let (status, _) = http_request(server.addr(), "POST", "/qualityz", "").expect("bad method");
    assert_eq!(status, 405);
    server.shutdown();
}
