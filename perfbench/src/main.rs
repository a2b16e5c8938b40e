//! End-to-end and per-layer benchmark of served extraction and of
//! train → bundle. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <extract_stream|extract_backfill|train_bundle>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --server-bin <path to pae-serve> --work-dir <dir>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is 0 only when every output check passed.

mod http;
mod json;
mod model;
mod replay;
mod serve;
mod server;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

/// Worker-pool width of the benchmark process and of every server.
pub const JOBS: usize = 2;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// Named measurements with units, in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_owned(), value, unit.to_owned()));
    }

    fn print(&self, heading: &str) {
        println!("{heading}:");
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// A run's result: counts, failed checks and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
    pub layers: Metrics,
}

impl Outcome {
    pub fn fail(&mut self, error: String) {
        eprintln!("check failed: {error}");
        self.errors.push(error);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <extract_stream|extract_backfill|train_bundle> --seed <n> \
         --seconds <s> --trace <0|1> --server-bin <path> --work-dir <dir>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                ctx.workload = value.clone();
                true
            }
            "--seed" => value.parse().map(|s| ctx.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .map(|s| ctx.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    ctx.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--server-bin" => {
                ctx.server_bin = PathBuf::from(value);
                true
            }
            "--work-dir" => {
                ctx.work_dir = PathBuf::from(value);
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if ctx.server_bin.as_os_str().is_empty() || ctx.work_dir.as_os_str().is_empty() {
        return usage();
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: {}: {e}", ctx.work_dir.display());
        return ExitCode::from(1);
    }

    let result = pae_runtime::with_jobs(JOBS, || match ctx.workload.as_str() {
        "extract_stream" => serve::run(&ctx, serve::Shape::Stream),
        "extract_backfill" => serve::run(&ctx, serve::Shape::Backfill),
        "train_bundle" => train::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    });
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if ctx.trace {
        out.metrics
            .print("end-to-end, traced run (the gap to an untraced run is the tracing overhead)");
        out.layers.print("per-layer");
    } else {
        out.metrics.print("end-to-end");
    }
    let finite = if ctx.trace { &out.layers } else { &out.metrics }.all_finite();
    if !finite {
        out.fail("a metric is not a finite number".into());
    }
    let reported = if ctx.trace { &out.layers } else { &out.metrics };
    let correct = out.errors.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        reported.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
