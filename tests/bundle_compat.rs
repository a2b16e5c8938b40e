//! Bundle stability and loader robustness, over the committed smoke
//! fixture `crates/pae-bench/benches/data/smoke.paeb`, written by
//! `pae-bench freeze <path> --products 60` with MASTER_SEED=42.
//!
//! Four guarantees:
//!
//! 1. **Stable bytes** — re-encoding the model the fixture holds
//!    reproduces the fixture bit for bit, and the encoding round-trips
//!    the optional reference-stats section (absent or present); a
//!    bundle without it serves in no-reference mode.
//! 2. **One extractor** — the extractor loaded from the fixture is
//!    thread-count invariant and identical to
//!    `FrozenModel::extractor` on the materialized model.
//! 3. **Serve-vs-direct** — an HTTP server answering from the loaded
//!    extractor returns exactly the triples direct in-process
//!    extraction produces.
//! 4. **Hostile bytes** — truncated or bit-flipped bundles, even with
//!    every hash recomputed so the flips reach the section decoders,
//!    load to a typed error or a working extractor: never a panic, never
//!    a hang.

use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use pae::core::bundle::{encode, fnv1a, fnv1a_words};
use pae::core::frozen::FrozenExtractor;
use pae::core::{LoadedBundle, Triple};
use pae::runtime::with_jobs;
use pae::serve::{http_request, parse_extract_response, Server, ServerConfig};
use pae::synth::{CategoryKind, DatasetSpec};

fn fixture_bytes() -> Vec<u8> {
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/pae-bench/benches/data/smoke.paeb"
    ));
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Pages matching the fixture's training category (the extractor is a
/// model, not a parser — any page set works, but in-domain pages
/// exercise the lexicon/veto arenas for real).
fn fixture_pages() -> Vec<(u32, String)> {
    DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
        .products(60)
        .generate()
        .pages
        .iter()
        .take(20)
        .map(|p| (p.id, p.html.clone()))
        .collect()
}

fn extract_at(extractor: &FrozenExtractor, pages: &[(u32, String)], jobs: usize) -> Vec<Triple> {
    with_jobs(jobs, || extractor.extract_pages_observed(pages))
        .into_iter()
        .flat_map(|(triples, _)| triples)
        .collect()
}

/// Loading the fixture and re-encoding the model it holds reproduces
/// the committed bytes exactly: decode → encode is canonical.
#[test]
fn reencoding_the_fixture_model_is_byte_identical() {
    let fixture = fixture_bytes();
    let model = LoadedBundle::from_bytes(fixture.clone())
        .expect("fixture loads")
        .model()
        .expect("model materializes");
    assert!(model.reference.is_some(), "freeze embeds reference stats");
    assert!(
        encode(&model) == fixture,
        "encode(model(fixture)) != fixture"
    );
}

/// A bundle without the reference-stats section (what every pre-v3
/// bundle was, and what a model frozen without stats still encodes to)
/// reports `Ok(None)`, the monitor's "no-reference mode", never an
/// error, and its extractor keeps serving.
#[test]
fn pre_v3_fixtures_load_in_no_reference_mode() {
    let mut model = LoadedBundle::from_bytes(fixture_bytes())
        .expect("fixture loads")
        .model()
        .expect("fixture model");
    model.reference = None;
    let loaded = LoadedBundle::from_bytes(encode(&model)).expect("bare bundle loads");
    assert_eq!(
        loaded.reference().expect("reference never errors here"),
        None,
        "reference-free bundle invented reference stats"
    );
    let extractor = loaded
        .extractor()
        .expect("no-reference bundle still serves");
    assert!(!extract_at(&extractor, &fixture_pages(), 1).is_empty());
}

/// The encoding round-trips the optional reference-stats section
/// exactly — absent (a model frozen without stats) and present
/// (synthetic stats grafted onto the fixture model).
#[test]
fn v3_encoding_round_trips_reference_stats() {
    use pae::core::quality::{CONF_BUCKETS, LEN_BUCKETS};
    use pae::core::{AttrReference, BackendReference, ReferenceStats};

    let mut model = LoadedBundle::from_bytes(fixture_bytes())
        .expect("fixture loads")
        .model()
        .expect("fixture model");

    // Absent: a reference-free model encodes, loads, and reports
    // no-reference mode.
    model.reference = None;
    let loaded = LoadedBundle::from_bytes(encode(&model)).expect("bare bundle loads");
    assert_eq!(loaded.reference().expect("decodes"), None);
    assert_eq!(loaded.model().expect("model"), model);

    // Present: stats survive encode → load byte-exactly.
    let stats = ReferenceStats {
        pages: 60,
        empty_pages: 3,
        total_triples: 410,
        tokens: 9000,
        oov_tokens: 120,
        backends: vec![BackendReference {
            backend: "crf".to_owned(),
            confidence: (0..CONF_BUCKETS as u64).collect(),
        }],
        attrs: vec![AttrReference {
            attribute: "suction".to_owned(),
            triples: 41,
            top_values: vec![("2000pa".to_owned(), 17), ("1800pa".to_owned(), 9)],
            value_len: (0..LEN_BUCKETS as u64).rev().collect(),
        }],
    };
    model.reference = Some(stats.clone());
    let loaded = LoadedBundle::from_bytes(encode(&model)).expect("bundle loads");
    assert_eq!(loaded.reference().expect("decodes"), Some(stats));
    assert_eq!(loaded.model().expect("model"), model);
}

/// The extractor loaded from the fixture gives identical triples at
/// `PAE_JOBS=1` and `4`, and matches `FrozenModel::extractor` on the
/// materialized model (which encodes and loads the same bytes).
#[test]
fn fixture_extractor_is_job_count_invariant_and_matches_model_extractor() {
    let bytes: Arc<[u8]> = fixture_bytes().into();
    let loaded = LoadedBundle::from_shared(bytes).expect("fixture loads");
    let extractor = loaded.extractor().expect("extractor");
    let pages = fixture_pages();

    let reference = extract_at(&extractor, &pages, 1);
    assert!(!reference.is_empty(), "fixture extracts nothing");
    assert_eq!(
        extract_at(&extractor, &pages, 4),
        reference,
        "PAE_JOBS=4 diverged from PAE_JOBS=1"
    );
    let from_model = loaded
        .model()
        .expect("materialize")
        .extractor()
        .expect("model extractor");
    assert_eq!(
        extract_at(&from_model, &pages, 1),
        reference,
        "FrozenModel::extractor diverged from the loaded bundle's"
    );
}

/// What `/extract` computes for the fixture pages, pinned: the triples
/// in order, every span confidence rounded to 1e-9 (so no platform's
/// libm can flip the hash), and the token and OOV counts, through the
/// batch entry point the server calls. Only a change meant to change
/// served output may re-record the value.
#[test]
fn served_fixture_output_is_pinned() {
    let extractor = LoadedBundle::from_bytes(fixture_bytes())
        .expect("fixture loads")
        .extractor()
        .expect("extractor");
    let mut text = String::new();
    for (triples, obs) in extractor.extract_pages_observed(&fixture_pages()) {
        text.push_str(&format!("page {} {}\n", obs.tokens, obs.oov_tokens));
        for t in &triples {
            text.push_str(&format!("{}\t{}\t{}\n", t.product, t.attr, t.value));
        }
        for confidences in &obs.confidences {
            for c in confidences {
                text.push_str(&format!("{} ", (c * 1e9).round() as i64));
            }
            text.push('\n');
        }
    }
    assert_eq!(
        format!("{:016x}", fnv1a(text.as_bytes())),
        "4884223bce17ad28",
        "served output changed:\n{text}"
    );
}

/// Serving from the loaded extractor returns exactly what direct
/// in-process extraction produces, at both pool widths.
#[test]
fn serve_from_v2_bundle_matches_direct_extraction() {
    let loaded = LoadedBundle::from_bytes(fixture_bytes()).expect("fixture loads");
    let pages = fixture_pages();
    let direct = loaded.extractor().expect("extractor");
    let at_one = extract_at(&direct, &pages, 1);
    let at_four = extract_at(&direct, &pages, 4);
    assert_eq!(at_one, at_four, "direct extraction depends on PAE_JOBS");

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        bundle_hash: loaded.content_hash(),
        ..ServerConfig::default()
    };
    let server =
        Server::start(loaded.extractor().expect("extractor"), &config).expect("start server");

    let mut body = String::from("{\"pages\":[");
    for (i, (product, html)) in pages.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"product\":{product},\"html\":"));
        pae::obs::json::write_str(&mut body, html);
        body.push('}');
    }
    body.push_str("]}");
    let (status, response) =
        http_request(server.addr(), "POST", "/extract", &body).expect("batch extract");
    assert_eq!(status, 200, "{response}");
    let served = parse_extract_response(&response).expect("parse");
    assert_eq!(served, at_one, "served triples diverged from direct");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Loader fuzz.

/// Header: magic u32 | version u32 | content hash u64 | section count
/// u32, then one 32-byte table entry per section (id u32 | reserved u32
/// | offset u64 | len u64 | hash u64), then the 8-aligned payload.
const HEADER: usize = 20;
const ENTRY: usize = 32;
const SECTIONS: usize = 7;
const PAYLOAD_START: usize = (HEADER + SECTIONS * ENTRY + 7) & !7;

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Absolute `(start, len)` of every section of a well-formed bundle.
fn section_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    (0..SECTIONS)
        .map(|i| {
            let entry = HEADER + i * ENTRY;
            let start = PAYLOAD_START + u64_at(bytes, entry + 8) as usize;
            (start, u64_at(bytes, entry + 16) as usize)
        })
        .collect()
}

/// Recomputes every section hash the (possibly mutated) table still
/// points inside the file for, then the table hash in the header, so
/// the mutation gets past integrity checking to the section decoders.
fn rehash(bytes: &mut [u8]) {
    for i in 0..SECTIONS {
        let entry = HEADER + i * ENTRY;
        let start = PAYLOAD_START as u64 + u64_at(bytes, entry + 8);
        let end = start.saturating_add(u64_at(bytes, entry + 16));
        if end <= bytes.len() as u64 {
            let hash = fnv1a_words(&bytes[start as usize..end as usize]);
            bytes[entry + 24..entry + 32].copy_from_slice(&hash.to_le_bytes());
        }
    }
    let table = fnv1a(&bytes[HEADER..HEADER + SECTIONS * ENTRY]);
    bytes[8..16].copy_from_slice(&table.to_le_bytes());
}

/// Everything a server does with untrusted bundle bytes: load, build
/// the extractor, extract pages — and, separately, materialize the
/// model. Errors are fine; only a panic or a hang is a failure.
fn exercise(bytes: Vec<u8>, pages: &[(u32, String)]) {
    let Ok(loaded) = LoadedBundle::from_bytes(bytes) else {
        return;
    };
    if let Ok(extractor) = loaded.extractor() {
        for (product, html) in pages {
            extractor.extract_page(*product, html);
        }
    }
    let _ = loaded.model();
    let _ = loaded.reference();
}

/// Runs [`exercise`] on its own thread, so a panic is caught and a
/// hang is cut off at `limit`.
fn exercise_bounded(
    bytes: Vec<u8>,
    pages: Arc<Vec<(u32, String)>>,
    limit: Duration,
) -> Result<(), &'static str> {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exercise(bytes, &pages)));
        let _ = tx.send(outcome.is_ok());
    });
    match rx.recv_timeout(limit) {
        Ok(clean) => {
            worker.join().expect("the worker catches its own panic");
            clean.then_some(()).ok_or("panicked")
        }
        // A hung worker cannot be joined; it stays detached and the
        // case fails.
        Err(_) => Err("hung"),
    }
}

/// The fixture, its section ranges, and a few pages to extract, built
/// once for every fuzz case.
struct FuzzInput {
    bytes: Vec<u8>,
    ranges: Vec<(usize, usize)>,
    pages: Arc<Vec<(u32, String)>>,
}

fn fuzz_input() -> &'static FuzzInput {
    static INPUT: OnceLock<FuzzInput> = OnceLock::new();
    INPUT.get_or_init(|| {
        let bytes = fixture_bytes();
        FuzzInput {
            ranges: section_ranges(&bytes),
            bytes,
            pages: Arc::new(fixture_pages().into_iter().take(3).collect()),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutations of the fixture: `mode` 0 truncates at the first
    /// flip's position, 1 applies the flips as they are (the hashes
    /// must catch them), 2 applies them and recomputes every hash.
    /// Each flip picks a region — one of the seven sections, or (7)
    /// the whole file — so every section decoder is reached about
    /// equally often whatever its size.
    #[test]
    fn mutated_fixture_loads_to_a_typed_error_never_a_panic(
        mode in 0u8..3,
        flips in proptest::collection::vec((0usize..8, 0usize..1 << 24, 1u8..=255), 1..4),
    ) {
        let input = fuzz_input();
        let mut bytes = input.bytes.clone();
        let region = |r: usize| match input.ranges.get(r) {
            Some(&(start, len)) if len > 0 => (start, len),
            _ => (0, input.bytes.len()),
        };
        if mode == 0 {
            let (start, len) = region(flips[0].0);
            bytes.truncate(start + flips[0].1 % len);
        } else {
            for &(r, pos, xor) in &flips {
                let (start, len) = region(r);
                bytes[start + pos % len] ^= xor;
            }
            if mode == 2 {
                rehash(&mut bytes);
            }
        }
        let outcome = exercise_bounded(bytes, Arc::clone(&input.pages), Duration::from_secs(20));
        prop_assert!(
            outcome.is_ok(),
            "mode {mode}, flips {flips:?}: the loader {}",
            outcome.unwrap_err()
        );
    }
}
