//! `pae-report` CLI: summarize traces, diff summaries, gate CI.
//!
//! ```text
//! pae-report summarize <trace.jsonl|summary.json> [--name N] [--out FILE] [--quality-only]
//! pae-report diff  <baseline> <current> [tolerance flags]
//! pae-report check <current> --baseline <FILE> [tolerance flags]
//! pae-report explain <trace.jsonl> [--attribute A] [--value V] [--product P] [--json]
//! pae-report explain-diff <current trace.jsonl> --baseline <trace.jsonl>
//! pae-report flamegraph <trace.jsonl> [--weight time|bytes] [--out FILE]
//!
//! tolerance flags:
//!   --time-tolerance F    allowed relative slowdown of a stage and of
//!                         the serving p99 (default 0.5)
//!   --mem-tolerance F     allowed relative growth of peak RSS and of
//!                         allocated bytes (default 0.25)
//! ```
//!
//! Every other gate runs at the tolerance its row of
//! `pae_report::diff::GATES` declares.
//!
//! Inputs may be raw JSONL traces or already-built summary JSON; the
//! format is auto-detected (`explain`/`explain-diff` need raw traces
//! recorded with provenance on). Exit codes: 0 pass, 1 regression
//! beyond thresholds or nothing found, 2 usage or I/O error.

use std::path::Path;
use std::process::ExitCode;

use pae_obs::reader::Trace;
use pae_report::diff::{diff_summaries, GATES};
use pae_report::ledger;
use pae_report::lineage::{fate_flips, LineageLedger};
use pae_report::summary::{RunMeta, RunSummary};

const USAGE: &str = "usage:
  pae-report summarize <trace.jsonl|summary.json> [--name N] [--out FILE] [--quality-only]
  pae-report diff  <baseline> <current> [tolerance flags]
  pae-report check <current> --baseline <FILE> [tolerance flags]
  pae-report explain <trace.jsonl> [--attribute A] [--value V] [--product P] [--json]
  pae-report explain-diff <current trace.jsonl> --baseline <trace.jsonl>
  pae-report flamegraph <trace.jsonl> [--weight time|bytes] [--out FILE]
tolerance flags: --time-tolerance F (default 0.5)  --mem-tolerance F (default 0.25)";

fn fail(msg: &str) -> ExitCode {
    eprintln!("pae-report: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Loads a summary from either a summary JSON document or a raw JSONL
/// trace (detected by content, not extension).
fn load_summary(path: &str, name_hint: Option<&str>) -> Result<RunSummary, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match RunSummary::parse(&doc) {
        Ok(s) => Ok(s),
        Err(summary_err) => {
            let trace = Trace::parse(&doc).map_err(|trace_err| {
                format!("{path} is neither a RunSummary ({summary_err}) nor a trace ({trace_err})")
            })?;
            let name = name_hint
                .map(str::to_owned)
                .or_else(|| {
                    Path::new(path)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                })
                .unwrap_or_else(|| "run".into());
            Ok(RunSummary::build(
                RunMeta {
                    name,
                    git_rev: ledger::git_rev(Path::new(".")),
                    config_hash: "unknown".into(),
                    pae_jobs: std::env::var("PAE_JOBS").unwrap_or_default(),
                    scale: std::env::var("PAE_SCALE").unwrap_or_else(|_| "default".into()),
                },
                &trace,
            ))
        }
    }
}

/// Takes the tolerance flags [`GATES`] declares out of `args`, as
/// `(flag, tolerance)` overrides. Any other flag left behind is an
/// error.
fn take_tolerances(args: &mut Vec<String>) -> Result<Vec<(&'static str, f64)>, String> {
    let mut overrides = Vec::new();
    for flag in GATES.iter().filter_map(|g| g.flag) {
        if let Some(v) = take_flag_value(args, flag)? {
            let tol = v
                .parse()
                .map_err(|_| format!("{flag}: not a number: {v}"))?;
            overrides.push((flag, tol));
        }
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(overrides)
}

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        return Ok(Some(v));
    }
    Ok(None)
}

fn cmd_summarize(mut args: Vec<String>) -> Result<ExitCode, String> {
    let name = take_flag_value(&mut args, "--name")?;
    let out = take_flag_value(&mut args, "--out")?;
    let quality_only = if let Some(i) = args.iter().position(|a| a == "--quality-only") {
        args.remove(i);
        true
    } else {
        false
    };
    let [input] = args.as_slice() else {
        return Err("summarize takes exactly one input file".into());
    };
    let summary = load_summary(input, name.as_deref())?;
    let doc = if quality_only {
        let mut q = summary.quality_json(0);
        q.push('\n');
        q
    } else {
        summary.to_json()
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("summary written to {path}");
        }
        None => print!("{doc}"),
    }
    if summary.incomplete() {
        eprintln!(
            "warning: trace dropped {} record(s); summary marked incomplete",
            summary.dropped
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(mut args: Vec<String>) -> Result<ExitCode, String> {
    let overrides = take_tolerances(&mut args)?;
    let [baseline, current] = args.as_slice() else {
        return Err("diff takes exactly two input files".into());
    };
    let b = load_summary(baseline, None)?;
    let c = load_summary(current, None)?;
    print!("{}", diff_summaries(&b, &c, &overrides).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(mut args: Vec<String>) -> Result<ExitCode, String> {
    let baseline =
        take_flag_value(&mut args, "--baseline")?.ok_or("check requires --baseline <FILE>")?;
    let overrides = take_tolerances(&mut args)?;
    let [current] = args.as_slice() else {
        return Err("check takes exactly one current input file".into());
    };
    let b = load_summary(&baseline, None)?;
    let c = load_summary(current, None)?;
    let report = diff_summaries(&b, &c, &overrides);
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Reads and parses a raw JSONL trace, requiring provenance records.
fn load_provenance_trace(path: &str) -> Result<Trace, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = Trace::parse(&doc).map_err(|e| format!("{path}: {e}"))?;
    if trace.provenance_records().is_empty() {
        return Err(format!(
            "{path} carries no provenance records; re-run with PAE_PROVENANCE=1 \
             or --provenance-out to record lineage"
        ));
    }
    Ok(trace)
}

fn cmd_explain(mut args: Vec<String>) -> Result<ExitCode, String> {
    let attribute = take_flag_value(&mut args, "--attribute")?;
    let value = take_flag_value(&mut args, "--value")?;
    let product = take_flag_value(&mut args, "--product")?;
    let json = if let Some(i) = args.iter().position(|a| a == "--json") {
        args.remove(i);
        true
    } else {
        false
    };
    let [input] = args.as_slice() else {
        return Err("explain takes exactly one input trace".into());
    };
    let trace = load_provenance_trace(input)?;
    let ledger = LineageLedger::build(&trace);
    if json {
        print!("{}", ledger.to_json());
        return Ok(ExitCode::SUCCESS);
    }
    if attribute.is_none() && value.is_none() && product.is_none() {
        // Discovery listing: which attributes the ledger knows about.
        println!(
            "attributes with lineage ({} pairs total):",
            ledger.entries.len()
        );
        for (attr, n) in ledger.attributes() {
            println!("  {attr:<24} {n} pair(s)");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let hits = ledger.select(attribute.as_deref(), value.as_deref(), product.as_deref());
    if hits.is_empty() {
        eprintln!("no lineage matches the query");
        return Ok(ExitCode::from(1));
    }
    for (i, e) in hits.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", LineageLedger::render_trail(e));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain_diff(mut args: Vec<String>) -> Result<ExitCode, String> {
    let baseline = take_flag_value(&mut args, "--baseline")?
        .ok_or("explain-diff requires --baseline <FILE>")?;
    let [current] = args.as_slice() else {
        return Err("explain-diff takes exactly one current input trace".into());
    };
    let b = LineageLedger::build(&load_provenance_trace(&baseline)?);
    let c = LineageLedger::build(&load_provenance_trace(current)?);
    let flips = fate_flips(&b, &c);
    if flips.is_empty() {
        println!("no disposition flips: {} pair(s) agree", c.entries.len());
        return Ok(ExitCode::SUCCESS);
    }
    println!("{} disposition flip(s):", flips.len());
    for f in &flips {
        println!(
            "  {}={}  {} -> {}  (cause: {} at it{})",
            f.attr, f.value, f.from, f.to, f.cause, f.iteration
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_flamegraph(mut args: Vec<String>) -> Result<ExitCode, String> {
    let weight = match take_flag_value(&mut args, "--weight")? {
        Some(w) => pae_report::flamegraph::Weight::parse(&w)?,
        None => pae_report::flamegraph::Weight::TimeNs,
    };
    let out = take_flag_value(&mut args, "--out")?;
    let [input] = args.as_slice() else {
        return Err("flamegraph takes exactly one input trace".into());
    };
    let doc = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let trace = Trace::parse(&doc).map_err(|e| format!("{input}: {e}"))?;
    let folded = pae_report::flamegraph::folded_stacks(&trace, weight);
    if folded.is_empty() {
        eprintln!(
            "no weighted stacks in {input} (byte weights need a trace recorded with \
             profiling on: PAE_PROF=1 or --profile)"
        );
        return Ok(ExitCode::from(1));
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &folded).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("folded stacks written to {path}");
        }
        None => print!("{folded}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return fail("missing subcommand");
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "summarize" => cmd_summarize(args),
        "diff" => cmd_diff(args),
        "check" => cmd_check(args),
        "explain" => cmd_explain(args),
        "explain-diff" => cmd_explain_diff(args),
        "flamegraph" => cmd_flamegraph(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}
