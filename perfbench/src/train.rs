//! `train_bundle`: parsed corpus → bootstrap → freeze → encode, timed
//! through the library, repeated for the run's length.

use std::time::Instant;

use pae_core::{parse_corpus, LoadedBundle};

use crate::model::{self, TrainRun, TRAIN_PRODUCTS};
use crate::serve::{self, Schedule, TracedInput, BATCH};
use crate::stats::{median, peak_rss_mib, quantile};
use crate::{Ctx, Outcome};

/// `parse_corpus` calls before the first repetition; `setup_s` is the
/// median over these and the one each repetition makes.
const SETUP_PARSES: usize = 5;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dataset = model::dataset(ctx.seed);
    let mut parses = Vec::new();
    for _ in 0..SETUP_PARSES {
        let t = Instant::now();
        std::hint::black_box(parse_corpus(&dataset));
        parses.push(t.elapsed().as_secs_f64());
    }

    let (mut jobs, mut train_s, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(u64, usize, f64, f64)> = None;
    let t0 = Instant::now();
    let (last, corpus) = loop {
        let t = Instant::now();
        let corpus = parse_corpus(&dataset);
        let parse_s = t.elapsed().as_secs_f64();
        let run = model::train(&dataset, &corpus)?;
        parses.push(parse_s);
        jobs.push((parse_s + run.train_s) * 1e3);
        train_s.push(run.train_s);
        cpu_s.push(run.cpu_s);
        out.attempted += 1;
        println!(
            "repetition {}: parse {:.4} s, train {:.3} s, bundle {:016x}, {} triples, P {:.4}, \
             C {:.4}",
            out.attempted, parse_s, run.train_s, run.hash, run.triples, run.precision, run.coverage
        );
        match first {
            None => {
                first = Some(run.fingerprint());
                if let Err(e) = run.check_pin(ctx.seed) {
                    out.failed += 1;
                    out.fail(e);
                }
            }
            Some(fp) if fp != run.fingerprint() => {
                out.failed += 1;
                out.fail(format!(
                    "repetition {} trained a different bundle",
                    out.attempted
                ));
            }
            Some(_) => {}
        }
        if t0.elapsed().as_secs_f64() >= ctx.seconds {
            break (run, corpus);
        }
    };

    jobs.sort_by(f64::total_cmp);
    let m = &mut out.metrics;
    m.add("setup_s", median(&parses), "s");
    m.add("latency_p50_ms", quantile(&jobs, 0.50), "ms");
    m.add(
        "pages_per_s",
        TRAIN_PRODUCTS as f64 / median(&train_s),
        "1/s",
    );
    m.add(
        "cpu_us_per_page",
        median(&cpu_s) / TRAIN_PRODUCTS as f64 * 1e6,
        "us",
    );
    m.add(
        "peak_rss_mb",
        peak_rss_mib("self").ok_or("cannot read own VmHWM")?,
        "MiB",
    );
    m.add("train_s", median(&train_s), "s");
    let (p90, p99) = (quantile(&jobs, 0.90), quantile(&jobs, 0.99));
    println!("job latency p90 {p90:.4} ms, p99 {p99:.4} ms");
    out.layers.add("client.latency_p90_ms", p90, "ms");
    out.layers.add("client.latency_p99_ms", p99, "ms");

    if ctx.trace {
        traced(ctx, &last, &dataset, &corpus, &mut out)?;
    }
    Ok(out)
}

/// The traced run serves the fresh bundle in bulk: the training pages,
/// in [`BATCH`]-page requests, through the real server and through the
/// in-process replay.
fn traced(
    ctx: &Ctx,
    run: &TrainRun,
    dataset: &pae_synth::Dataset,
    corpus: &pae_core::Corpus,
    out: &mut Outcome,
) -> Result<(), String> {
    let bundle = serve::write_bundle(ctx, &run.bytes)?;
    let loaded = LoadedBundle::from_bytes(run.bytes.clone()).map_err(|e| e.to_string())?;
    let extractor = loaded.extractor().map_err(|e| e.to_string())?;
    let pool: Vec<(u32, String)> = dataset
        .pages
        .iter()
        .map(|p| (p.id, p.html.clone()))
        .collect();
    let reqs = serve::build_requests(&pool, BATCH);
    let (server, _) = serve::spawn(ctx, &bundle, "smoke", false)?;
    let measured = serve::measure(
        &server,
        &reqs,
        &pool,
        Schedule::Closed { deadline: None },
        &extractor,
    )?;
    drop(server);
    measured.counts.print("bulk");
    out.failed += measured.counts.failed();
    serve::traced(
        ctx,
        &TracedInput {
            trained: run,
            dataset,
            corpus,
            bundle: &bundle,
            extractor: &extractor,
            reqs: &reqs,
            pool: &pool,
            profiled: &reqs,
            replay_requests: reqs.len(),
        },
        &measured,
        out,
    )
}
