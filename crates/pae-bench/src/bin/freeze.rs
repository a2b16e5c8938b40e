//! `pae-bench freeze`: train a pipeline and freeze it into a versioned
//! model bundle for `pae-serve`.
//!
//! ```text
//! freeze <out.paeb> [--kind vacuum|garden|bags] [--products N]
//!        [--iterations N] [--tagger crf|rnn|ensemble] [--force]
//! ```
//!
//! Runs the bootstrap loop on the synthetic category (MASTER_SEED=42,
//! so the bundle is reproducible bit for bit), freezes the outcome
//! with [`pae_core::frozen::FrozenModel::freeze`], and writes the
//! bundle. Refuses to overwrite an existing output unless `--force`
//! (the flag is shared with the trace outputs and handled with
//! create-new semantics, so a concurrent writer cannot race the
//! existence check).

use std::path::Path;
use std::process::ExitCode;

use pae_bench::cli::RunCli;
use pae_core::frozen::FrozenModel;
use pae_core::{BootstrapPipeline, PipelineConfig, TaggerKind};
use pae_synth::{CategoryKind, DatasetSpec};

fn usage() -> ExitCode {
    eprintln!(
        "usage: freeze <out.paeb> [--kind vacuum|garden|bags] [--products N] \
         [--iterations N] [--tagger crf|rnn|ensemble] [--force]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // `--force` is consumed by the trace session; sniff it first so
    // the bundle write shares the one overwrite policy.
    let force = std::env::args().any(|a| a == "--force");
    let cli = RunCli::init("freeze");

    let mut out: Option<String> = None;
    let mut kind = CategoryKind::VacuumCleaner;
    let mut products = 120usize;
    let mut iterations = 1usize;
    let mut tagger = TaggerKind::Crf;
    let mut it = cli.args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kind" => match it.next().map(String::as_str) {
                Some("vacuum") => kind = CategoryKind::VacuumCleaner,
                Some("garden") => kind = CategoryKind::Garden,
                Some("bags") => kind = CategoryKind::LadiesBags,
                _ => return usage(),
            },
            "--products" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => products = n,
                None => return usage(),
            },
            "--iterations" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => iterations = n,
                None => return usage(),
            },
            "--tagger" => match it.next().map(String::as_str) {
                Some("crf") => tagger = TaggerKind::Crf,
                Some("rnn") => tagger = TaggerKind::Rnn,
                Some("ensemble") => tagger = TaggerKind::Ensemble,
                _ => return usage(),
            },
            _ if out.is_none() && !arg.starts_with('-') => out = Some(arg.clone()),
            _ => return usage(),
        }
    }
    let Some(out) = out else {
        return usage();
    };

    let config = PipelineConfig {
        iterations,
        tagger,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let dataset = DatasetSpec::new(kind, 42).products(products).generate();
    let corpus = pae_core::parse_corpus(&dataset);
    let outcome = BootstrapPipeline::new(config.clone()).run_on_corpus(&dataset, &corpus);
    println!(
        "trained {} ({} products, {} iterations, {:?}) in {:.1}s",
        kind.name(),
        products,
        iterations,
        tagger,
        t0.elapsed().as_secs_f32()
    );

    let model = match FrozenModel::freeze(&dataset, &corpus, &outcome, &config) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("freeze: {e}");
            return ExitCode::from(1);
        }
    };
    let path = Path::new(&out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("freeze: create {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }
    match pae_core::write_bundle(&model, path, force) {
        Ok(hash) => {
            let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!(
                "wrote {} ({} bytes, schema v{}, hash {hash:016x}, {} attrs)",
                path.display(),
                size,
                pae_core::BUNDLE_SCHEMA_VERSION,
                model.attrs.len()
            );
        }
        Err(e) => {
            eprintln!("freeze: {e}");
            return ExitCode::from(1);
        }
    }
    cli.finish();
    ExitCode::SUCCESS
}
