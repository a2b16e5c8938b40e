//! Golden tests over the checked-in fixture traces: `clean.jsonl` /
//! `regressed.jsonl` (the latter injects a perf, a precision, a
//! coverage, and a drift regression) for summarize/diff/check, and
//! `provenance_clean.jsonl` / `provenance_regressed.jsonl` (the latter
//! flips `color=red` from kept to semantically dropped) for
//! explain/explain-diff — plus exit-code tests driving the actual
//! `pae-report` binary.

use std::path::Path;
use std::process::Command;

use pae_obs::reader::Trace;
use pae_report::diff::{diff_summaries, DiffReport};
use pae_report::summary::{RunMeta, RunSummary};

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Gates `current` against `baseline` at the default tolerances.
fn check(baseline: &RunSummary, current: &RunSummary) -> DiffReport {
    diff_summaries(baseline, current, &[])
}

fn summarize(name: &str) -> RunSummary {
    let trace = Trace::read(Path::new(&fixture(name))).expect("fixture parses");
    RunSummary::build(
        RunMeta {
            name: name.trim_end_matches(".jsonl").into(),
            git_rev: "fixture".into(),
            config_hash: "fixture".into(),
            pae_jobs: String::new(),
            scale: "fixture".into(),
        },
        &trace,
    )
}

#[test]
fn clean_fixture_summarizes_to_the_expected_shape() {
    let s = summarize("clean.jsonl");
    assert_eq!(s.records, 13);
    assert!(!s.incomplete());

    // Perf: all four span names aggregated.
    let stage_names: Vec<&String> = s.stages.keys().collect();
    assert_eq!(
        stage_names,
        vec!["bootstrap.run", "iteration", "seed", "semantic"]
    );
    assert_eq!(s.stages["seed"].total_ns, 2_000_000);
    assert_eq!(s.stages["semantic"].calls, 1);

    // Quality: one run, one iteration, drift sorted by attribute.
    assert_eq!(s.runs.len(), 1);
    assert_eq!(s.runs[0].len(), 1);
    let it = &s.runs[0][0];
    assert_eq!(it.iteration, 1);
    assert_eq!(it.candidates, 120);
    assert_eq!(it.triples, 100);
    assert_eq!(it.veto_dropped, 10);
    assert_eq!(
        (
            it.veto_symbols,
            it.veto_markup,
            it.veto_unpopular,
            it.veto_long
        ),
        (4, 3, 2, 1)
    );
    assert_eq!(it.semantic_removed, 5);
    assert_eq!(it.semantic_evictions, 2);
    let drift_attrs: Vec<&str> = it.drift.iter().map(|d| d.attribute.as_str()).collect();
    assert_eq!(drift_attrs, vec!["color", "weight"]);
    assert!((it.drift[0].score - 0.05).abs() < 1e-12);

    // Evals: headline + one attribute row.
    assert_eq!(s.evals.len(), 1);
    assert_eq!(s.evals[0].key, "bags/default/final");
    assert!((s.evals[0].precision - 0.9).abs() < 1e-12);
    assert_eq!(s.evals[0].attrs.len(), 1);
    assert_eq!(s.evals[0].attrs[0].attribute, "color");
}

#[test]
fn summary_json_round_trips_and_is_stable() {
    let s = summarize("clean.jsonl");
    let doc = s.to_json();
    let parsed = RunSummary::parse(&doc).expect("round trip");
    assert_eq!(parsed, s);
    assert_eq!(parsed.to_json(), doc);
    // Rebuilding from the same trace gives a byte-identical quality
    // section (this is what the determinism suite relies on).
    assert_eq!(summarize("clean.jsonl").quality_json(0), s.quality_json(0));
}

#[test]
fn clean_vs_clean_passes() {
    let s = summarize("clean.jsonl");
    let report = check(&s, &s);
    assert!(report.passed(), "{}", report.render());
}

#[test]
fn injected_regressions_are_each_caught() {
    let clean = summarize("clean.jsonl");
    let bad = summarize("regressed.jsonl");
    let report = check(&clean, &bad);
    let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind).collect();
    // semantic +140% (seed is sub-floor, iteration +30% within
    // tolerance), headline precision 0.9→0.8, attr color coverage
    // 0.7→0.6, drift color 0.05→0.45.
    assert_eq!(
        kinds,
        vec!["perf", "precision", "coverage", "drift"],
        "{}",
        report.render()
    );
    // The reverse direction (a run getting faster/better) passes.
    let reverse = check(&bad, &clean);
    assert!(reverse.passed(), "{}", reverse.render());
}

#[test]
fn thresholds_gate_each_dimension_independently() {
    let clean = summarize("clean.jsonl");
    let bad = summarize("regressed.jsonl");
    // A wide time tolerance clears the perf gate and nothing else.
    let loose = diff_summaries(&clean, &bad, &[("--time-tolerance", 10.0)]);
    let kinds: Vec<&str> = loose.violations.iter().map(|v| v.kind).collect();
    assert_eq!(kinds, vec!["precision", "coverage", "drift"]);
    // With the quality regressions undone, perf alone trips.
    let mut only_perf = bad.clone();
    only_perf.runs = clean.runs.clone();
    only_perf.evals = clean.evals.clone();
    let report = check(&clean, &only_perf);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].kind, "perf");
    assert!(diff_summaries(&clean, &only_perf, &[("--time-tolerance", 10.0)]).passed());
}

#[test]
fn emptied_evals_and_runs_fail_instead_of_passing_vacuously() {
    let clean = summarize("clean.jsonl");
    let mut hollow = clean.clone();
    hollow.evals.clear();
    hollow.runs.clear();
    let report = check(&clean, &hollow);
    let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind).collect();
    assert_eq!(
        kinds,
        vec!["eval-missing", "drift-missing"],
        "{}",
        report.render()
    );
}

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pae-report"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_check_exit_codes_honor_thresholds() {
    let clean = fixture("clean.jsonl");
    let bad = fixture("regressed.jsonl");

    let (code, stdout, _) = run_cli(&["check", &clean, "--baseline", &clean]);
    assert_eq!(code, 0, "identical inputs must pass: {stdout}");
    assert!(stdout.contains("PASS"));

    let (code, stdout, _) = run_cli(&["check", &bad, "--baseline", &clean]);
    assert_eq!(code, 1, "regression must fail: {stdout}");
    assert!(stdout.contains("FAIL"));
    assert!(stdout.contains("[perf]"));
    assert!(stdout.contains("[drift]"));

    // A wide time tolerance clears the perf gate only.
    let (code, stdout, _) = run_cli(&[
        "check",
        &bad,
        "--baseline",
        &clean,
        "--time-tolerance",
        "10",
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(!stdout.contains("[perf]"), "{stdout}");
    assert!(stdout.contains("[drift]"), "{stdout}");

    // The removed threshold flags are usage errors, not silent no-ops.
    for flag in [
        "--time-floor-ms",
        "--precision-tol",
        "--coverage-tol",
        "--drift-tol",
        "--error-rate-tol",
        "--empty-rate-tol",
        "--oov-tol",
        "--bench-baseline",
    ] {
        let (code, _, stderr) = run_cli(&["check", &bad, "--baseline", &clean, flag, "0"]);
        assert_eq!(code, 2, "{flag}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
        let (code, _, _) = run_cli(&["diff", &clean, &bad, flag, "0"]);
        assert_eq!(code, 2, "diff {flag}");
    }
}

#[test]
fn cli_usage_and_io_errors_exit_2() {
    let (code, _, stderr) = run_cli(&[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"));

    let (code, _, _) = run_cli(&["frobnicate"]);
    assert_eq!(code, 2);

    let (code, _, stderr) = run_cli(&[
        "check",
        "/nonexistent.json",
        "--baseline",
        "/also-missing.json",
    ]);
    assert_eq!(code, 2, "{stderr}");

    let (code, _, _) = run_cli(&["check", &fixture("clean.jsonl")]);
    assert_eq!(code, 2, "check without --baseline is a usage error");
}

#[test]
fn malformed_baseline_is_rejected_not_zeroed() {
    // The fixture mangles three required numerics (`records` as a
    // string, a stage missing `total_ns`, an iteration `triples` of
    // null) and drops an eval's `coverage`. Before strict parsing each
    // of these silently became 0 and the gate compared against zeros.
    let doc = std::fs::read_to_string(fixture("malformed_baseline.json")).unwrap();
    let err = RunSummary::parse(&doc).expect_err("malformed summary must not parse");
    assert!(
        err.contains("records"),
        "first mangled field is named: {err}"
    );

    // Each corruption is caught individually once the earlier ones are
    // repaired.
    let fixed_records = doc.replace("\"records\": \"1608\"", "\"records\": 1608");
    let err = RunSummary::parse(&fixed_records).expect_err("still malformed");
    assert!(err.contains("total_ns"), "{err}");
    let fixed_stage = fixed_records.replace(
        "{ \"calls\": 9, \"max_ns\": 695955603 }",
        "{ \"calls\": 9, \"total_ns\": 1, \"max_ns\": 695955603 }",
    );
    let err = RunSummary::parse(&fixed_stage).expect_err("still malformed");
    assert!(err.contains("triples"), "{err}");
    let fixed_iter = fixed_stage.replace("\"triples\": null", "\"triples\": 61");
    let err = RunSummary::parse(&fixed_iter).expect_err("still malformed");
    assert!(err.contains("coverage"), "{err}");
    let fixed_all = fixed_iter.replace(
        "\"precision\": 0.9,",
        "\"precision\": 0.9, \"coverage\": 0.8,",
    );
    let s = RunSummary::parse(&fixed_all).expect("fully repaired document parses");
    assert_eq!(s.records, 1608);
    assert_eq!(s.runs[0][0].triples, 61);
}

#[test]
fn cli_check_and_diff_exit_2_on_malformed_baseline() {
    let clean = fixture("clean.jsonl");
    let bad = fixture("malformed_baseline.json");

    let (code, _, stderr) = run_cli(&["check", &clean, "--baseline", &bad]);
    assert_eq!(
        code, 2,
        "malformed baseline must be a usage error, not a pass"
    );
    assert!(stderr.contains("neither a RunSummary"), "{stderr}");
    assert!(stderr.contains("records"), "names the bad field: {stderr}");

    let (code, _, stderr) = run_cli(&["diff", &bad, &clean]);
    assert_eq!(code, 2, "diff with a malformed side must exit 2: {stderr}");
}

#[test]
fn cli_explain_reconstructs_a_semantically_dropped_trail() {
    let prov = fixture("provenance_clean.jsonl");

    // No query: discovery listing of attributes with pair counts.
    let (code, stdout, _) = run_cli(&["explain", &prov]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("color"), "{stdout}");
    assert!(stdout.contains("3 pair(s)"), "{stdout}");
    assert!(stdout.contains("weight"), "{stdout}");

    // Full trail for the semantically-dropped triple.
    let (code, stdout, _) = run_cli(&["explain", &prov, "--attribute", "color"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("color=reddish  [dropped]"),
        "header with fate: {stdout}"
    );
    assert!(
        stdout.contains("origin: tagger via crf"),
        "origin event: {stdout}"
    );
    assert!(
        stdout.contains("veto long: near-miss (measure 0.40)"),
        "veto near-miss: {stdout}"
    );
    assert!(
        stdout.contains("similarity 0.210 vs threshold 0.55, DROPPED"),
        "semantic verdict: {stdout}"
    );
    assert!(
        stdout.contains("dropped at it1 by semantic"),
        "disposition: {stdout}"
    );
    // Sorted by confidence: red (0.93) before reddish (0.61).
    let red = stdout.find("color=red  ").expect("red trail present");
    let reddish = stdout.find("color=reddish").expect("reddish trail");
    assert!(red < reddish, "confidence ordering: {stdout}");

    // --value narrows to one pair; unknown queries exit 1.
    let (code, stdout, _) = run_cli(&["explain", &prov, "--attribute", "color", "--value", "red"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("confidence 0.930"), "{stdout}");
    assert!(!stdout.contains("reddish"), "{stdout}");
    let (code, _, stderr) = run_cli(&["explain", &prov, "--attribute", "material"]);
    assert_eq!(code, 1, "no match must exit 1: {stderr}");

    // A trace without provenance records is a usage error.
    let (code, _, stderr) = run_cli(&["explain", &fixture("clean.jsonl")]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("no provenance records"), "{stderr}");

    // --json emits the deterministic ledger document.
    let (code, stdout, _) = run_cli(&["explain", &prov, "--json"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"type\": \"lineage_ledger\""), "{stdout}");
    assert!(stdout.contains("\"fate\": \"kept\""), "{stdout}");
    let (_, again, _) = run_cli(&["explain", &prov, "--json"]);
    assert_eq!(stdout, again, "ledger JSON is byte-stable");
}

#[test]
fn cli_explain_diff_lists_disposition_flips_with_cause() {
    let clean = fixture("provenance_clean.jsonl");
    let bad = fixture("provenance_regressed.jsonl");

    let (code, stdout, _) = run_cli(&["explain-diff", &bad, "--baseline", &clean]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("1 disposition flip(s)"), "{stdout}");
    assert!(
        stdout.contains("color=red  kept -> dropped  (cause: semantic at it1)"),
        "flip with cause stage: {stdout}"
    );

    let (code, stdout, _) = run_cli(&["explain-diff", &clean, "--baseline", &clean]);
    assert_eq!(code, 0);
    assert!(stdout.contains("no disposition flips"), "{stdout}");

    let (code, _, _) = run_cli(&["explain-diff", &bad]);
    assert_eq!(code, 2, "explain-diff without --baseline is a usage error");
}

#[test]
fn cli_check_mem_tolerance_gates_injected_rss_regression() {
    // A profiled baseline and a current run whose peak RSS grew +50%:
    // the gate must fail at 10% tolerance and pass at 100%.
    let mut baseline = summarize("clean.jsonl");
    baseline.memory = Some(pae_report::summary::MemorySummary {
        peak_rss_bytes: 100 << 20,
        total_alloc_bytes: 1_000_000_000,
        alloc_count: 5_000_000,
        peak_live_bytes: 80 << 20,
    });
    let mut current = baseline.clone();
    current.memory.as_mut().unwrap().peak_rss_bytes = 150 << 20;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let b_path = dir.join(format!("pae-report-membase-{pid}.json"));
    let c_path = dir.join(format!("pae-report-memcur-{pid}.json"));
    std::fs::write(&b_path, baseline.to_json()).unwrap();
    std::fs::write(&c_path, current.to_json()).unwrap();
    let b = b_path.to_str().unwrap();
    let c = c_path.to_str().unwrap();

    let (code, stdout, _) = run_cli(&["check", c, "--baseline", b, "--mem-tolerance", "0.1"]);
    assert_eq!(
        code, 1,
        "+50% peak RSS at 10% tolerance must fail: {stdout}"
    );
    assert!(stdout.contains("[mem-rss]"), "{stdout}");

    let (code, stdout, _) = run_cli(&["check", c, "--baseline", b, "--mem-tolerance", "1.0"]);
    assert_eq!(
        code, 0,
        "same regression passes at 100% tolerance: {stdout}"
    );

    // A profiled baseline against an unprofiled current run fails too.
    let unprofiled = summarize("clean.jsonl");
    std::fs::write(&c_path, unprofiled.to_json()).unwrap();
    let (code, stdout, _) = run_cli(&["check", c, "--baseline", b]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[mem-missing]"), "{stdout}");

    let _ = std::fs::remove_file(&b_path);
    let _ = std::fs::remove_file(&c_path);
}

#[test]
fn cli_flamegraph_renders_folded_stacks() {
    let clean = fixture("clean.jsonl");

    let (code, stdout, _) = run_cli(&["flamegraph", &clean]);
    assert_eq!(code, 0, "{stdout}");
    // Folded format: every line is `path;to;span weight`.
    for line in stdout.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!path.is_empty());
        weight.parse::<u64>().expect("numeric weight");
    }
    assert!(
        stdout.lines().any(|l| l.starts_with("bootstrap.run;")),
        "stacks rooted under the pipeline span: {stdout}"
    );
    let (_, again, _) = run_cli(&["flamegraph", &clean, "--weight", "time"]);
    assert_eq!(stdout, again, "folded output is byte-stable");

    // The unprofiled fixture has no byte weights: exit 1, with a hint.
    let (code, _, stderr) = run_cli(&["flamegraph", &clean, "--weight", "bytes"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("PAE_PROF"), "{stderr}");

    // Unknown weight is a usage error.
    let (code, _, _) = run_cli(&["flamegraph", &clean, "--weight", "calories"]);
    assert_eq!(code, 2);
}

#[test]
fn cli_summarize_emits_parseable_summary_and_diff_runs() {
    let clean = fixture("clean.jsonl");
    let (code, stdout, _) = run_cli(&["summarize", &clean, "--name", "golden"]);
    assert_eq!(code, 0);
    let parsed = RunSummary::parse(&stdout).expect("summarize output parses");
    assert_eq!(parsed.meta.name, "golden");
    assert_eq!(parsed.runs.len(), 1);

    // Summaries are accepted wherever traces are (format auto-detect):
    // write the summary out and diff it against the raw trace.
    let tmp = std::env::temp_dir().join(format!("pae-report-golden-{}.json", std::process::id()));
    std::fs::write(&tmp, &stdout).unwrap();
    let (code, out, _) = run_cli(&["diff", tmp.to_str().unwrap(), &clean]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("PASS"), "{out}");
    let _ = std::fs::remove_file(&tmp);

    let (code, stdout, _) = run_cli(&["summarize", &clean, "--quality-only"]);
    assert_eq!(code, 0);
    assert!(stdout.trim_start().starts_with('{'));
    assert!(stdout.contains("\"evals\""));
    assert!(!stdout.contains("total_ns"));
}
