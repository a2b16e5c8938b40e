//! `pae-serve <bundle.paeb> [--addr HOST:PORT] [--workers N]
//! [--slow-ms MS] [--trace-sample N] [--drift-threshold X]
//! [--empty-rate-threshold X] [--profile]`
//!
//! Loads a frozen model bundle once, then serves `/extract`,
//! `/healthz`, `/metrics`, and `/statusz` until the process is killed.
//! The bound address is printed on stdout as `listening on <addr>` so
//! callers binding port 0 can discover the port.
//!
//! `--slow-ms MS` captures requests slower than MS into the bounded
//! ring dumped by `/statusz?slow=1` (0 = off). `--trace-sample N`
//! samples 1-in-N requests into the obs trace (also settable via
//! `PAE_SERVE_TRACE_SAMPLE`; the flag wins).
//!
//! Bundles carry freeze-time reference stats; the server scores live
//! traffic against them and flags `/statusz` degraded when any
//! attribute's drift exceeds `--drift-threshold` (PSI, default 0.25)
//! or the windowed empty-extraction rate exceeds
//! `--empty-rate-threshold` (default 0.5). A bundle of a model frozen
//! without reference stats serves in no-reference mode (live
//! `/qualityz` rates only, no drift scores).
//!
//! `--profile` (or
//! `PAE_PROF=1`) turns on the counting allocator so `/metrics` exposes
//! `prof.*` families and `/statusz` reports live allocator counters.

use std::process::ExitCode;

use pae_serve::{Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pae-serve <bundle.paeb> [--addr HOST:PORT] [--workers N] \
         [--slow-ms MS] [--trace-sample N] [--drift-threshold X] \
         [--empty-rate-threshold X] [--profile]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bundle_path: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut profile = !matches!(
        std::env::var("PAE_PROF").ok().as_deref(),
        None | Some("") | Some("0")
    );
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => profile = true,
            "--addr" => match it.next() {
                Some(a) => config.addr = a,
                None => return usage(),
            },
            "--workers" => match it.next().and_then(|w| w.parse().ok()) {
                Some(w) => config.workers = w,
                None => return usage(),
            },
            "--slow-ms" => match it.next().and_then(|w| w.parse().ok()) {
                Some(ms) => config.slow_ms = ms,
                None => return usage(),
            },
            "--trace-sample" => match it.next().and_then(|w| w.parse().ok()) {
                Some(n) => config.trace_sample = n,
                None => return usage(),
            },
            "--drift-threshold" => match it.next().and_then(|w| w.parse().ok()) {
                Some(x) => config.drift_threshold = x,
                None => return usage(),
            },
            "--empty-rate-threshold" => match it.next().and_then(|w| w.parse().ok()) {
                Some(x) => config.empty_rate_threshold = x,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if bundle_path.is_none() && !arg.starts_with('-') => bundle_path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(bundle_path) = bundle_path else {
        return usage();
    };
    if profile {
        pae_obs::set_prof_enabled(true);
        eprintln!("pae-serve: allocation profiling on (prof.* metric families live)");
    }

    // Load = validate + assemble: the extractor borrows the loaded
    // bytes (zero-copy), so this is the cold-start wall time /statusz
    // reports as bundle.load_ns.
    let load_start = std::time::Instant::now();
    let loaded = match pae_core::LoadedBundle::open(std::path::Path::new(&bundle_path)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("pae-serve: {bundle_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let extractor = match loaded.extractor() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("pae-serve: cannot build extractor: {e}");
            return ExitCode::from(1);
        }
    };
    let load_ns = load_start.elapsed().as_nanos() as u64;
    let hash = loaded.content_hash();
    config.bundle_hash = hash;
    config.bundle_load_ns = load_ns;
    config.reference = match loaded.reference() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pae-serve: cannot decode reference stats ({e}); serving without");
            None
        }
    };
    match &config.reference {
        Some(r) => eprintln!(
            "pae-serve: reference stats over {} pages ({} attrs, {} backends) — drift scoring on",
            r.pages,
            r.attrs.len(),
            r.backends.len()
        ),
        None => eprintln!("pae-serve: no reference stats in bundle — serving in no-reference mode"),
    }
    eprintln!(
        "pae-serve: loaded bundle {hash:016x} (schema v{}, {} attrs, {:.3} ms)",
        pae_core::BUNDLE_SCHEMA_VERSION,
        extractor.attrs().len(),
        load_ns as f64 / 1e6
    );
    let server = match Server::start(extractor, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pae-serve: {e}");
            return ExitCode::from(1);
        }
    };
    println!("listening on {}", server.addr());
    server.join();
    ExitCode::SUCCESS
}
