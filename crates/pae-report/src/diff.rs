//! Comparing two run summaries and gating on regressions.
//!
//! Every gate is one row of [`GATES`]: the summary value it reads, how
//! that value may move from baseline to current, its default tolerance,
//! and whether a baseline section the current run lacks fails.
//! [`diff_summaries`] flattens both summaries into those values,
//! compares them row by row, prints one line per value and collects
//! the violations.
//!
//! Perf and quality are gated differently on purpose:
//!
//! - **Timings** vary across machines and runs, so a stage only counts
//!   as regressed when it is slower than baseline by more than its
//!   relative tolerance *and* both sides are above a 10 ms floor
//!   (sub-floor stages are pure noise).
//! - **Quality** comes from a deterministic pipeline, so precision,
//!   coverage and drift are compared with tight absolute tolerances.
//! - **Missing sections** fail: a serving, quality or memory section,
//!   an eval key or a bootstrap run the baseline has and the current
//!   run lacks would otherwise pass its gates vacuously. Stages are the
//!   exception, because span names change with refactors.

use std::collections::{HashMap, HashSet};

use crate::summary::RunSummary;

/// How a gated value may move from the baseline to the current run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Move {
    /// Reported only; any move passes.
    Any,
    /// May rise by at most the tolerance times the baseline (0.5 =
    /// +50%). Values under `floor` on either side never trip.
    RelRise {
        /// Noise floor, in the row's unit.
        floor: f64,
    },
    /// May rise by at most the tolerance.
    Rise,
    /// May drop by at most the tolerance.
    Drop,
    /// May not turn from false to true.
    Flip,
    /// May not exceed the tolerance, whatever the baseline.
    Max,
}

impl Move {
    fn trips(self, base: f64, cur: f64, tol: f64) -> bool {
        match self {
            Move::Any => false,
            Move::RelRise { floor } => base >= floor && cur >= floor && cur > base * (1.0 + tol),
            Move::Rise => cur > base + tol,
            Move::Drop => cur < base - tol,
            Move::Flip => cur > base,
            Move::Max => cur > tol,
        }
    }

    fn limit(self, tol: f64, unit: Unit) -> String {
        match self {
            Move::Any => String::new(),
            Move::RelRise { .. } => format!("tolerance +{:.0}%", tol * 100.0),
            Move::Rise => format!("tolerance +{}", unit.show(tol)),
            Move::Drop => format!("tolerance -{}", unit.show(tol)),
            Move::Flip => "baseline was false".to_owned(),
            Move::Max => format!("limit {}", unit.show(tol)),
        }
    }
}

/// How a value prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds, printed as milliseconds.
    Ns,
    /// Bytes, printed as MiB.
    Bytes,
    /// A rate or score in `[0, 1]`-ish, four decimals.
    Ratio,
    /// A whole number.
    Count,
    /// A boolean stored as 0 or 1.
    Flag,
}

impl Unit {
    fn show(self, v: f64) -> String {
        match self {
            Unit::Ns => format!("{:.2}ms", v / 1e6),
            Unit::Bytes => format!("{:.1}MiB", v / (1024.0 * 1024.0)),
            Unit::Ratio => format!("{v:.4}"),
            Unit::Count => format!("{v:.0}"),
            Unit::Flag => (v != 0.0).to_string(),
        }
    }
}

/// One row of the gate table.
#[derive(Debug)]
pub struct Gate {
    /// Summary section the value comes from.
    pub section: &'static str,
    /// The value within the section.
    pub metric: &'static str,
    /// Violation kind when the value moves too far; empty for rows
    /// that are only reported.
    pub kind: &'static str,
    /// How the value may move.
    pub moves: Move,
    /// Default tolerance.
    pub tol: f64,
    /// Command-line flag that overrides `tol`.
    pub flag: Option<&'static str>,
    /// Violation kind when the baseline has this value's section and
    /// the current run does not; `None` reports it without failing.
    pub missing: Option<&'static str>,
    /// How the value prints.
    pub unit: Unit,
}

const fn row(
    section: &'static str,
    metric: &'static str,
    kind: &'static str,
    moves: Move,
    tol: f64,
    unit: Unit,
) -> Gate {
    Gate {
        section,
        metric,
        kind,
        moves,
        tol,
        flag: None,
        missing: None,
        unit,
    }
}

impl Gate {
    const fn with_flag(self, flag: &'static str) -> Gate {
        Gate {
            flag: Some(flag),
            ..self
        }
    }

    const fn with_missing(self, kind: &'static str) -> Gate {
        Gate {
            missing: Some(kind),
            ..self
        }
    }
}

const FLOOR: Move = Move::RelRise { floor: 10e6 };
const NO_FLOOR: Move = Move::RelRise { floor: 0.0 };
const TIME: &str = "--time-tolerance";
const MEM: &str = "--mem-tolerance";

/// The gates, in report order. A section's missing rule sits on the
/// row that is present whenever the section is.
#[rustfmt::skip]
pub static GATES: &[Gate] = &[
    //   section    metric         kind                  move        tol   unit
    row("run",     "dropped",     "incomplete",         Move::Max,  0.0,  Unit::Count),
    row("stage",   "total",       "perf",               FLOOR,      0.5,  Unit::Ns).with_flag(TIME),
    row("stage",   "p50",         "",                   Move::Any,  0.0,  Unit::Ns),
    row("stage",   "p90",         "",                   Move::Any,  0.0,  Unit::Ns),
    row("stage",   "p99",         "",                   Move::Any,  0.0,  Unit::Ns),
    row("serving", "requests",    "",                   Move::Any,  0.0,  Unit::Count).with_missing("slo-missing"),
    row("serving", "p99",         "slo-p99",            FLOOR,      0.5,  Unit::Ns).with_flag(TIME),
    row("serving", "error_rate",  "slo-error-rate",     Move::Rise, 0.0,  Unit::Ratio),
    row("quality", "pages",       "",                   Move::Any,  0.0,  Unit::Count).with_missing("quality-missing"),
    row("quality", "degraded",    "quality-degraded",   Move::Flip, 0.0,  Unit::Flag),
    row("quality", "empty_rate",  "quality-empty-rate", Move::Rise, 0.10, Unit::Ratio),
    row("quality", "oov_rate",    "quality-oov",        Move::Rise, 0.10, Unit::Ratio),
    row("quality", "drift",       "quality-drift",      Move::Rise, 0.25, Unit::Ratio),
    row("memory",  "peak_rss",    "mem-rss",            NO_FLOOR,   0.25, Unit::Bytes).with_flag(MEM).with_missing("mem-missing"),
    row("memory",  "total_alloc", "mem-alloc",          NO_FLOOR,   0.25, Unit::Bytes).with_flag(MEM),
    row("memory",  "allocs",      "",                   Move::Any,  0.0,  Unit::Count),
    row("eval",    "triples",     "",                   Move::Any,  0.0,  Unit::Count).with_missing("eval-missing"),
    row("eval",    "precision",   "precision",          Move::Drop, 0.02, Unit::Ratio),
    row("eval",    "coverage",    "coverage",           Move::Drop, 0.02, Unit::Ratio),
    row("drift",   "iterations",  "",                   Move::Any,  0.0,  Unit::Count).with_missing("drift-missing"),
    row("drift",   "score",       "drift",              Move::Rise, 0.25, Unit::Ratio),
];

/// `parts` joined by spaces, empty ones left out.
fn words(parts: &[&str]) -> String {
    parts
        .iter()
        .filter(|p| !p.is_empty())
        .copied()
        .collect::<Vec<_>>()
        .join(" ")
}

/// One value a gate row reads from a summary.
struct Reading {
    gate: &'static Gate,
    /// What the value belongs to within its section (a stage name, an
    /// eval key and attribute, a run and iteration); empty for
    /// run-wide sections.
    subject: String,
    value: f64,
}

impl Reading {
    /// What matches a baseline value with its current counterpart.
    fn key(&self) -> (&'static str, &'static str, &str) {
        (self.gate.section, self.gate.metric, &self.subject)
    }
}

/// Turns a summary into the values [`GATES`] reads, in report order.
fn flatten(s: &RunSummary) -> Vec<Reading> {
    let mut out = Vec::new();
    let mut put = |section: &str, metric: &str, subject: &str, value: f64| {
        let gate = GATES
            .iter()
            .find(|g| g.section == section && g.metric == metric)
            .expect("every flattened value has a gate row");
        out.push(Reading {
            gate,
            subject: subject.to_owned(),
            value,
        });
    };
    put("run", "dropped", "", s.dropped as f64);
    for (name, st) in &s.stages {
        put("stage", "total", name, st.total_ns as f64);
        // Documents predating the quantile fields carry zeros.
        if st.p99_ns > 0 {
            put("stage", "p50", name, st.p50_ns as f64);
            put("stage", "p90", name, st.p90_ns as f64);
            put("stage", "p99", name, st.p99_ns as f64);
        }
    }
    if let Some(v) = &s.serving {
        put("serving", "requests", "", v.requests as f64);
        put("serving", "p99", "", v.p99_ns as f64);
        put("serving", "error_rate", "", v.error_rate);
    }
    if let Some(q) = &s.quality_online {
        put("quality", "pages", "", q.pages as f64);
        put("quality", "degraded", "", f64::from(u8::from(q.degraded)));
        put("quality", "empty_rate", "", q.empty_rate);
        put("quality", "oov_rate", "", q.oov_rate);
        // An unscored attribute reads as zero drift: a newly scored one
        // gates from zero, and one that lost its score passes.
        for a in &q.attrs {
            put("quality", "drift", &a.attribute, a.drift.unwrap_or(0.0));
        }
    }
    if let Some(m) = &s.memory {
        put("memory", "peak_rss", "", m.peak_rss_bytes as f64);
        put("memory", "total_alloc", "", m.total_alloc_bytes as f64);
        put("memory", "allocs", "", m.alloc_count as f64);
    }
    for e in &s.evals {
        put("eval", "triples", &e.key, e.n_triples as f64);
        put("eval", "precision", &e.key, e.precision);
        put("eval", "coverage", &e.key, e.coverage);
        for a in &e.attrs {
            let subject = format!("{} {}", e.key, a.attribute);
            put("eval", "precision", &subject, a.precision);
            put("eval", "coverage", &subject, a.coverage);
        }
    }
    // Runs match by ordinal, iterations by number, attributes by name.
    for (ord, run) in s.runs.iter().enumerate() {
        put(
            "drift",
            "iterations",
            &format!("run{ord}"),
            run.len() as f64,
        );
        for it in run {
            for d in &it.drift {
                let subject = format!("run{ord} it{} {}", it.iteration, d.attribute);
                put("drift", "score", &subject, d.score);
            }
        }
    }
    out
}

/// One threshold violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What kind of gate tripped: a [`Gate::kind`] or
    /// [`Gate::missing`] of [`GATES`].
    pub kind: &'static str,
    /// Human-readable description with both values.
    pub what: String,
}

/// The outcome of comparing two summaries.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// One line per compared value, in [`GATES`] section order.
    pub lines: Vec<String>,
    /// Gates that tripped; empty means the comparison passes.
    pub violations: Vec<Violation>,
}

impl DiffReport {
    /// True when no gate tripped.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report for the console.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.violations.is_empty() {
            out.push_str("PASS: no regressions beyond thresholds\n");
        } else {
            out.push_str(&format!("FAIL: {} violation(s)\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  [{}] {}\n", v.kind, v.what));
            }
        }
        out
    }
}

/// Compares `current` against `baseline` over [`GATES`]. `overrides`
/// pairs a row's [`Gate::flag`] with the tolerance to use in place of
/// its default.
pub fn diff_summaries(
    baseline: &RunSummary,
    current: &RunSummary,
    overrides: &[(&str, f64)],
) -> DiffReport {
    let (base, cur) = (flatten(baseline), flatten(current));
    // Reversed, so the first of a repeated key wins.
    let cur_values: HashMap<_, f64> = cur.iter().rev().map(|c| (c.key(), c.value)).collect();
    let base_keys: HashSet<_> = base.iter().map(Reading::key).collect();
    // Baseline values first, then the current run's new ones, each
    // moved into its section: (reading, baseline value, current value).
    let mut pairs: Vec<(&Reading, Option<f64>, Option<f64>)> = base
        .iter()
        .map(|b| (b, Some(b.value), cur_values.get(&b.key()).copied()))
        .collect();
    pairs.extend(
        cur.iter()
            .filter(|c| !base_keys.contains(&c.key()))
            .map(|c| (c, None, Some(c.value))),
    );
    pairs.sort_by_key(|(r, ..)| GATES.iter().position(|g| g.section == r.gate.section));

    let mut report = DiffReport::default();
    for (r, b, c) in pairs {
        let g = r.gate;
        let label = words(&[g.section, &r.subject, g.metric]);
        let show =
            |v: Option<f64>, absent: &str| v.map_or_else(|| absent.to_owned(), |v| g.unit.show(v));
        let mut line = format!(
            "{label:<44} {:>10} -> {:>10}",
            show(b, "(new)"),
            show(c, "(gone)")
        );
        match (b, c) {
            (Some(b), Some(c)) => {
                if let Move::RelRise { .. } = g.moves {
                    line.push_str(&if b == 0.0 {
                        "  (n/a)".to_owned()
                    } else {
                        format!("  ({:+.1}%)", (c - b) / b * 100.0)
                    });
                }
                let tol = overrides
                    .iter()
                    .find(|(flag, _)| g.flag == Some(*flag))
                    .map_or(g.tol, |&(_, tol)| tol);
                if g.moves.trips(b, c, tol) {
                    let (b, c, limit) =
                        (g.unit.show(b), g.unit.show(c), g.moves.limit(tol, g.unit));
                    report.violations.push(Violation {
                        kind: g.kind,
                        what: format!("{label}: {b} -> {c} ({limit})"),
                    });
                }
            }
            (Some(_), None) => {
                if let Some(kind) = g.missing {
                    report.violations.push(Violation {
                        kind,
                        what: format!(
                            "{} is in the baseline but not the current run; its gates cannot run",
                            words(&[g.section, &r.subject])
                        ),
                    });
                }
            }
            _ => {}
        }
        report.lines.push(line);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{AttrEval, DriftRow, EvalRow, IterationQuality, StagePerf};

    /// Gates `current` against `baseline` at the default tolerances.
    fn check(baseline: &RunSummary, current: &RunSummary) -> DiffReport {
        diff_summaries(baseline, current, &[])
    }

    fn base() -> RunSummary {
        let mut s = RunSummary::default();
        s.stages.insert(
            "semantic".into(),
            StagePerf {
                calls: 1,
                total_ns: 100_000_000,
                max_ns: 100_000_000,
                p50_ns: 100_000_000,
                p90_ns: 100_000_000,
                p99_ns: 100_000_000,
            },
        );
        s.stages.insert(
            "tiny".into(),
            StagePerf {
                calls: 1,
                total_ns: 1_000,
                max_ns: 1_000,
                ..StagePerf::default()
            },
        );
        s.runs.push(vec![IterationQuality {
            iteration: 1,
            triples: 100,
            drift: vec![DriftRow {
                attribute: "color".into(),
                score: 0.1,
                n_values: 10,
                n_baseline: 8,
            }],
            ..IterationQuality::default()
        }]);
        s.evals.push(EvalRow {
            key: "bags/default".into(),
            precision: 0.9,
            coverage: 0.8,
            n_triples: 100,
            attrs: vec![AttrEval {
                attribute: "color".into(),
                precision: 0.95,
                coverage: 0.7,
            }],
        });
        s
    }

    #[test]
    fn identical_summaries_pass() {
        let s = base();
        let r = check(&s, &s);
        assert!(r.passed(), "{:?}", r.violations);
        assert!(!r.lines.is_empty());
    }

    #[test]
    fn stage_table_shows_quantiles_when_present() {
        let s = base();
        let r = check(&s, &s);
        for q in ["p50", "p90", "p99"] {
            let line = r
                .lines
                .iter()
                .find(|l| l.starts_with(&format!("stage semantic {q} ")))
                .expect("semantic quantile line");
            assert_eq!(line.matches("100.00ms").count(), 2, "{line}");
        }
        // Documents predating the quantile fields render without them.
        let tiny: Vec<&String> = r
            .lines
            .iter()
            .filter(|l| l.starts_with("stage tiny "))
            .collect();
        assert_eq!(tiny.len(), 1, "{tiny:?}");
        assert!(tiny[0].starts_with("stage tiny total "), "{tiny:?}");
    }

    #[test]
    fn slow_stage_above_floor_is_flagged_but_tiny_one_is_not() {
        let b = base();
        let mut c = base();
        c.stages.get_mut("semantic").unwrap().total_ns = 200_000_000;
        c.stages.get_mut("tiny").unwrap().total_ns = 900_000; // 900x but sub-floor
        let r = check(&b, &c);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, "perf");
        assert!(r.violations[0].what.contains("semantic"));
    }

    #[test]
    fn precision_and_coverage_drops_are_flagged() {
        let b = base();
        let mut c = base();
        c.evals[0].precision = 0.85;
        c.evals[0].coverage = 0.7;
        c.evals[0].attrs[0].precision = 0.8;
        let r = check(&b, &c);
        let kinds: Vec<&str> = r.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec!["precision", "coverage", "precision"]);
        // Improvements never flag.
        let mut up = base();
        up.evals[0].precision = 0.99;
        assert!(check(&b, &up).passed());
    }

    #[test]
    fn drift_rise_is_flagged_and_fall_is_not() {
        let b = base();
        let mut c = base();
        c.runs[0][0].drift[0].score = 0.5;
        let r = check(&b, &c);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, "drift");

        let mut fell = base();
        fell.runs[0][0].drift[0].score = -0.4;
        assert!(check(&b, &fell).passed());
    }

    #[test]
    fn serving_slo_gates_fire_on_p99_and_error_rate() {
        use crate::summary::ServingSummary;
        let mut b = base();
        b.serving = Some(ServingSummary {
            requests: 150,
            errors: 0,
            error_rate: 0.0,
            p50_ns: 20_000_000,
            p99_ns: 100_000_000,
        });
        // Within tolerance: passes.
        let mut c = b.clone();
        c.serving.as_mut().unwrap().p99_ns = 120_000_000;
        assert!(check(&b, &c).passed());

        // p99 blowout: slo-p99.
        c.serving.as_mut().unwrap().p99_ns = 200_000_000;
        let r = check(&b, &c);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, "slo-p99");

        // Any new error with the default zero tolerance: slo-error-rate.
        let mut c = b.clone();
        c.serving.as_mut().unwrap().errors = 1;
        c.serving.as_mut().unwrap().error_rate = 1.0 / 150.0;
        let r = check(&b, &c);
        assert_eq!(r.violations[0].kind, "slo-error-rate");

        // Sub-floor p99s are never flagged (noise).
        let mut tiny = b.clone();
        tiny.serving.as_mut().unwrap().p99_ns = 1_000;
        let mut tiny_cur = b.clone();
        tiny_cur.serving.as_mut().unwrap().p99_ns = 900_000;
        assert!(check(&tiny, &tiny_cur).passed());

        // Baseline serving but current not: gates cannot run -> fail.
        let r = check(&b, &base());
        assert_eq!(r.violations[0].kind, "slo-missing");
        // Reverse direction (new serving section) is informational only.
        assert!(check(&base(), &b).passed());
    }

    #[test]
    fn memory_gates_fire_on_rss_and_alloc_regressions() {
        use crate::summary::MemorySummary;
        let mut b = base();
        b.memory = Some(MemorySummary {
            peak_rss_bytes: 100 << 20,
            total_alloc_bytes: 1_000_000_000,
            alloc_count: 5_000_000,
            peak_live_bytes: 80 << 20,
        });
        // Within tolerance: passes.
        let mut c = b.clone();
        c.memory.as_mut().unwrap().peak_rss_bytes = 110 << 20;
        assert!(check(&b, &c).passed());

        // Injected +50% peak-RSS regression at 10% tolerance: mem-rss.
        let mut c = b.clone();
        c.memory.as_mut().unwrap().peak_rss_bytes = 150 << 20;
        let r = diff_summaries(&b, &c, &[("--mem-tolerance", 0.1)]);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, "mem-rss");
        // The same regression passes at a looser tolerance.
        assert!(diff_summaries(&b, &c, &[("--mem-tolerance", 0.6)]).passed());

        // Allocation blowout: mem-alloc.
        let mut c = b.clone();
        c.memory.as_mut().unwrap().total_alloc_bytes = 2_000_000_000;
        let r = check(&b, &c);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, "mem-alloc");

        // Memory falling never flags.
        let mut c = b.clone();
        c.memory.as_mut().unwrap().peak_rss_bytes = 50 << 20;
        c.memory.as_mut().unwrap().total_alloc_bytes = 500_000_000;
        assert!(check(&b, &c).passed());

        // Profiled baseline vs unprofiled current: gates cannot run.
        let r = check(&b, &base());
        assert_eq!(r.violations[0].kind, "mem-missing");
        // Reverse direction (newly profiled run) is informational only.
        let r = check(&base(), &b);
        assert!(r.passed(), "{:?}", r.violations);
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("memory ") && l.contains("(new)")));
    }

    #[test]
    fn quality_online_gates_fire_on_degradation_and_drift() {
        use crate::summary::{OnlineAttr, QualityOnlineSummary};
        let mut b = base();
        b.quality_online = Some(QualityOnlineSummary {
            pages: 150,
            empty_pages: 0,
            empty_rate: 0.0,
            oov_rate: 0.05,
            degraded: false,
            attrs: vec![OnlineAttr {
                attribute: "color".into(),
                triples: 140,
                rate: 0.93,
                drift: Some(0.03),
            }],
        });
        // Identical: passes.
        assert!(check(&b, &b).passed());

        // Degraded flag flips: quality-degraded.
        let mut c = b.clone();
        c.quality_online.as_mut().unwrap().degraded = true;
        let r = check(&b, &c);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, "quality-degraded");

        // Drift rises past tolerance: quality-drift.
        let mut c = b.clone();
        c.quality_online.as_mut().unwrap().attrs[0].drift = Some(0.5);
        let r = check(&b, &c);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, "quality-drift");
        // A newly scored attribute gates from zero.
        let mut unscored = b.clone();
        unscored.quality_online.as_mut().unwrap().attrs[0].drift = None;
        let r = check(&unscored, &c);
        assert_eq!(r.violations[0].kind, "quality-drift");
        // Drift falling (or losing its score) never flags.
        assert!(check(&c, &unscored).passed());

        // Empty-rate and OOV rises past the absolute tolerances.
        let mut c = b.clone();
        c.quality_online.as_mut().unwrap().empty_rate = 0.2;
        c.quality_online.as_mut().unwrap().oov_rate = 0.3;
        let r = check(&b, &c);
        let kinds: Vec<&str> = r.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec!["quality-empty-rate", "quality-oov"]);

        // Observed baseline vs unobserved current: gates cannot run.
        let r = check(&b, &base());
        assert_eq!(r.violations[0].kind, "quality-missing");
        // Reverse direction (newly observed run) is informational only.
        let r = check(&base(), &b);
        assert!(r.passed(), "{:?}", r.violations);
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("quality ") && l.contains("(new)")));
    }

    #[test]
    fn incomplete_current_always_fails() {
        let b = base();
        let mut c = base();
        c.dropped = 17;
        let r = check(&b, &c);
        assert_eq!(r.violations[0].kind, "incomplete");
    }

    #[test]
    fn custom_thresholds_relax_gates() {
        let b = base();
        let mut c = base();
        c.stages.get_mut("semantic").unwrap().total_ns = 200_000_000;
        assert!(diff_summaries(&b, &c, &[("--time-tolerance", 1.5)]).passed());
        assert!(!check(&b, &c).passed());
        // An override reaches only the rows that name its flag.
        assert!(!diff_summaries(&b, &c, &[("--mem-tolerance", 1.5)]).passed());
    }

    #[test]
    fn missing_eval_keys_and_bootstrap_runs_fail() {
        let b = base();
        let mut c = base();
        c.evals.clear();
        c.runs.clear();
        let r = check(&b, &c);
        let kinds: Vec<&str> = r.violations.iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            vec!["eval-missing", "drift-missing"],
            "{}",
            r.render()
        );
        // New eval keys and runs are informational only.
        assert!(check(&c, &b).passed());
        // So is an attribute, iteration or stage missing inside a
        // section the current run has.
        let mut c = base();
        c.evals[0].attrs.clear();
        c.runs[0].clear();
        c.stages.remove("tiny");
        assert!(check(&b, &c).passed(), "{}", check(&b, &c).render());
    }

    #[test]
    fn every_violation_kind_has_one_row() {
        let mut kinds: Vec<&str> = GATES
            .iter()
            .flat_map(|g| [g.kind].into_iter().chain(g.missing))
            .filter(|k| !k.is_empty())
            .collect();
        let n = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), n, "a kind is named twice: {kinds:?}");
        assert_eq!(
            kinds,
            vec![
                "coverage",
                "drift",
                "drift-missing",
                "eval-missing",
                "incomplete",
                "mem-alloc",
                "mem-missing",
                "mem-rss",
                "perf",
                "precision",
                "quality-degraded",
                "quality-drift",
                "quality-empty-rate",
                "quality-missing",
                "quality-oov",
                "slo-error-rate",
                "slo-missing",
                "slo-p99",
            ]
        );
    }
}
