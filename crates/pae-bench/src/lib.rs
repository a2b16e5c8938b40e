//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Every table and figure of the paper's evaluation has one binary in
//! `src/bin/`; this library holds what they share: dataset scaling,
//! per-category runners with corpus caching, the standard system
//! configurations, cluster→canonical attribute mapping, and plain-text
//! table formatting.
//!
//! Scale is controlled by the `PAE_SCALE` environment variable:
//! `small` (quick smoke runs), default (minutes per experiment), or
//! `full` (closest to the paper's relative corpus sizes).

pub mod cli;

use std::collections::HashMap;

use pae_core::config::RnnOptions;
use pae_core::{
    parse_corpus, BootstrapOutcome, BootstrapPipeline, Corpus, PipelineConfig, TaggerKind,
};
use pae_synth::{CategoryKind, Dataset, DatasetSpec};

/// Master seed shared by all experiments (reported in EXPERIMENTS.md).
pub const MASTER_SEED: u64 = 42;

/// Product count for one category, honoring `PAE_SCALE`.
pub fn scaled_products(kind: CategoryKind) -> usize {
    let base = kind.default_products();
    match std::env::var("PAE_SCALE").as_deref() {
        Ok("small") => base / 4,
        Ok("full") => base * 2,
        _ => base,
    }
}

/// Generates a category dataset at experiment scale.
pub fn dataset(kind: CategoryKind) -> Dataset {
    DatasetSpec::new(kind, MASTER_SEED)
        .products(scaled_products(kind))
        .generate()
}

/// A generated dataset with its parsed corpus (parse once, run many
/// configurations).
pub struct Prepared {
    /// The category.
    pub kind: CategoryKind,
    /// Generated pages + truth.
    pub dataset: Dataset,
    /// Parsed corpus.
    pub corpus: Corpus,
}

/// Prepares one category.
pub fn prepare(kind: CategoryKind) -> Prepared {
    let dataset = dataset(kind);
    let corpus = parse_corpus(&dataset);
    Prepared {
        kind,
        dataset,
        corpus,
    }
}

/// Prepares several categories in parallel on the [`pae_runtime`]
/// worker pool, returning them in input order.
///
/// The pool's work-stealing queue means one slow category delays only
/// itself — unlike the old chunk-then-barrier scheme, where every
/// chunk waited for its slowest member before the next chunk started.
pub fn prepare_all(kinds: &[CategoryKind]) -> Vec<Prepared> {
    pae_runtime::parallel_map(kinds, |_, &kind| prepare(kind))
}

impl Prepared {
    /// Runs one configuration on the cached corpus.
    pub fn run(&self, config: PipelineConfig) -> BootstrapOutcome {
        BootstrapPipeline::new(config).run_on_corpus(&self.dataset, &self.corpus)
    }

    /// Maps a cluster (alias) name to its canonical attribute.
    pub fn canonical_of<'a>(&'a self, cluster: &'a str) -> &'a str {
        self.dataset
            .truth
            .canonical_attr(cluster)
            .unwrap_or(cluster)
    }

    /// Cluster names in `outcome`'s label space whose canonical
    /// attribute is `canonical`.
    pub fn clusters_for(&self, outcome: &BootstrapOutcome, canonical: &str) -> Vec<String> {
        outcome
            .label_space
            .attrs()
            .iter()
            .filter(|c| self.canonical_of(c) == canonical)
            .cloned()
            .collect()
    }
}

/// The five system configurations of the paper's Tables II–III.
pub fn standard_configs(iterations: usize) -> Vec<(&'static str, PipelineConfig)> {
    let base = PipelineConfig {
        iterations,
        ..Default::default()
    };
    let rnn = |epochs: usize| PipelineConfig {
        tagger: TaggerKind::Rnn,
        rnn: RnnOptions {
            epochs,
            ..Default::default()
        },
        ..base.clone()
    };
    vec![
        ("RNN 2 epochs", rnn(2).without_cleaning()),
        ("RNN 10 epochs", rnn(10).without_cleaning()),
        ("RNN 2 epochs + cleaning", rnn(2)),
        ("CRF", base.clone().without_cleaning()),
        ("CRF + cleaning", base),
    ]
}

/// Number of concurrent category jobs: [`pae_runtime::jobs`], i.e. the
/// `PAE_JOBS` environment variable when set, else the machine's
/// available parallelism.
pub fn jobs() -> usize {
    pae_runtime::jobs()
}

/// Runs one closure per prepared category on the worker pool,
/// `jobs()` wide, preserving input order. Work-stealing: a slow
/// category never blocks the categories queued behind it.
pub fn run_parallel<T, F>(prepared: &[Prepared], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Prepared) -> T + Sync,
{
    pae_runtime::parallel_map(prepared, |_, p| f(p))
}

/// Plain-text table writer with fixed-width columns.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let n = self.header.len();
        let mut widths = vec![0usize; n];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let push_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    out.push(' ');
                }
            }
            // Trim trailing spaces.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        push_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (n - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            push_row(row, &mut out);
        }
        out
    }
}

/// Shared driver for the specialized-model figures (7 and 8): compares
/// per-attribute coverage and precision between the global model and a
/// model specialized to `canonical_attrs`.
pub fn specialized_figure(kind: CategoryKind, canonical_attrs: &[&str], title: &str) {
    use pae_core::evaluate_triples;
    use pae_core::specialized::run_specialized;

    let p = prepare(kind);
    let cfg = PipelineConfig {
        iterations: 1,
        ..Default::default()
    };
    let outcome = p.run(cfg.clone());
    let global = outcome.evaluate(&p.dataset);

    let clusters: Vec<String> = canonical_attrs
        .iter()
        .flat_map(|a| p.clusters_for(&outcome, a))
        .collect();
    let subset: Vec<&str> = clusters.iter().map(String::as_str).collect();
    if subset.is_empty() {
        println!(
            "{title}\n(no clusters for the requested attributes were discovered at this scale)"
        );
        return;
    }
    let run = run_specialized(&p.corpus, &outcome, &subset, &cfg);
    let special = evaluate_triples(&run.triples, &p.dataset.truth);

    let mut table = TextTable::new(vec!["Attribute", "coverage", "precision"]);
    for (i, attr) in canonical_attrs.iter().enumerate() {
        let label = format!("A{} {attr}", i + 1);
        table.row(vec![
            format!("{label} +g"),
            pct(global.attr_coverage_of(attr)),
            pct(global.attr_precision_of(attr)),
        ]);
        table.row(vec![
            format!("{label} +s"),
            pct(special.attr_coverage_of(attr)),
            pct(special.attr_precision_of(attr)),
        ]);
    }

    println!("{title}");
    println!("(paper: specialized models can raise attribute coverage by orders of magnitude,");
    println!(" at a precision cost for confusable attributes)\n");
    print!("{}", table.render());
}

/// Formats `x` as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Per-stage wall-clock report for an outcome: one line for the
/// pre-loop stages, then one row per bootstrap cycle (seconds).
pub fn stage_timing_report(outcome: &BootstrapOutcome) -> String {
    let secs = |d: std::time::Duration| format!("{:.3}", d.as_secs_f64());
    // The crf.* columns break `train` down into its sub-stages
    // (feature extraction, gradient evaluations, line search); they
    // are within `train`, so `total` does not sum them again.
    let mut table = TextTable::new(vec![
        "cycle",
        "train",
        "crf.feat",
        "crf.grad",
        "crf.ls",
        "extract",
        "veto",
        "semantic",
        "corrections",
        "total",
    ]);
    for s in &outcome.snapshots {
        let t = &s.timings;
        table.row(vec![
            s.iteration.to_string(),
            secs(t.train),
            secs(t.crf.features),
            secs(t.crf.grad),
            secs(t.crf.line_search),
            secs(t.extract),
            secs(t.veto),
            secs(t.semantic),
            secs(t.corrections),
            secs(t.total()),
        ]);
    }
    format!(
        "prep: seed {}s  diversify {}s\n{}",
        secs(outcome.prep.seed),
        secs(outcome.prep.diversify),
        table.render()
    )
}

/// The end of every bench target's `main`, after its Criterion groups
/// ran: merges the full-mode results into the repo-root
/// `BENCH_pipeline.json` ledger ([`update_bench_json`]; entries from
/// other bench targets are kept). Smoke mode (no `--bench`, or
/// `PAE_BENCH_QUICK=1`) writes nothing, so `cargo test` and CI smoke
/// runs leave the tree untouched.
pub fn finish_benches() {
    let results = criterion::take_results();
    // Quick (smoke) samples are not measurements — never persist them.
    if !std::env::args().any(|a| a == "--bench") || results.iter().any(|r| r.quick) {
        return;
    }
    let records: Vec<BenchRecord> = results
        .iter()
        .map(|r| BenchRecord {
            id: r.id.clone(),
            samples: r.samples as u64,
            min_ns: r.min_ns,
            median_ns: r.median_ns,
            mean_ns: r.mean_ns,
        })
        .collect();
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    match update_bench_json(root, &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_pipeline.json: {e}"),
    }
}

/// One benchmark's machine-readable summary, as stored in the
/// repo-root `BENCH_pipeline.json` ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Full benchmark id (`group/function`).
    pub id: String,
    /// Number of timed samples.
    pub samples: u64,
    /// Fastest sample (nanoseconds).
    pub min_ns: u64,
    /// Median sample (nanoseconds).
    pub median_ns: u64,
    /// Mean over all samples (nanoseconds).
    pub mean_ns: u64,
}

/// Merges `records` into `<repo_root>/BENCH_pipeline.json`, keyed by
/// bench id: entries already in the file with the same id are replaced
/// in place, unrelated entries are kept. This lets the `pipeline` and
/// `crf_micro` bench targets contribute to one ledger without
/// clobbering each other. The header (`git_rev`, `pae_jobs`) reflects
/// the current run; the document schema is unchanged.
pub fn update_bench_json(
    repo_root: &std::path::Path,
    records: &[BenchRecord],
) -> std::io::Result<std::path::PathBuf> {
    use pae_obs::json::Json;
    let path = repo_root.join("BENCH_pipeline.json");
    let mut merged: Vec<BenchRecord> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(doc) = Json::parse(&text) {
            if let Some(Json::Arr(items)) = doc.get("results") {
                for it in items {
                    let parsed = (|| {
                        Some(BenchRecord {
                            id: it.get("id")?.as_str()?.to_owned(),
                            samples: it.get("samples")?.as_u64()?,
                            min_ns: it.get("min_ns")?.as_u64()?,
                            median_ns: it.get("median_ns")?.as_u64()?,
                            mean_ns: it.get("mean_ns")?.as_u64()?,
                        })
                    })();
                    if let Some(r) = parsed {
                        merged.push(r);
                    }
                }
            }
        }
    }
    for r in records {
        match merged.iter_mut().find(|m| m.id == r.id) {
            Some(slot) => *slot = r.clone(),
            None => merged.push(r.clone()),
        }
    }
    let mut doc = String::from("{\n  \"bench\": \"pipeline\",\n");
    doc.push_str(&format!(
        "  \"git_rev\": \"{}\",\n",
        pae_report::ledger::git_rev(repo_root)
    ));
    doc.push_str(&format!("  \"pae_jobs\": {},\n  \"results\": [\n", jobs()));
    for (i, r) in merged.iter().enumerate() {
        let comma = if i + 1 < merged.len() { "," } else { "" };
        let mut id = String::new();
        pae_obs::json::write_str(&mut id, &r.id);
        doc.push_str(&format!(
            "    {{\"id\": {id}, \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}}}{comma}\n",
            r.samples, r.min_ns, r.median_ns, r.mean_ns
        ));
    }
    doc.push_str("  ]\n}\n");
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// Per-attribute coverage of `canonical` in a report produced against
/// `prepared`'s truth.
pub fn canonical_coverage(
    report: &pae_core::EvalReport,
    _prepared: &Prepared,
    canonical: &str,
) -> f64 {
    report.attr_coverage_of(canonical)
}

/// Groups an outcome's per-attribute metrics by canonical attribute.
pub fn coverage_by_canonical(report: &pae_core::EvalReport) -> HashMap<String, f64> {
    let n = report.n_products.max(1) as f64;
    report
        .attr_coverage
        .iter()
        .map(|(a, &c)| (a.clone(), c as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a longer name", "22.5"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("a longer name"));
    }

    #[test]
    fn standard_configs_match_paper_grid() {
        let configs = standard_configs(1);
        assert_eq!(configs.len(), 5);
        assert_eq!(configs[0].0, "RNN 2 epochs");
        assert!(!configs[0].1.use_veto);
        assert!(configs[2].1.use_veto && configs[2].1.use_semantic);
        assert_eq!(configs[4].0, "CRF + cleaning");
        assert_eq!(configs[1].1.rnn.epochs, 10);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.934), "93.4");
        assert_eq!(pct(1.0), "100.0");
    }

    /// Regression test for the old chunk-then-barrier scheduler: a
    /// slow item must delay only itself, and results must come back in
    /// input order regardless of completion order.
    #[test]
    fn slow_item_does_not_block_the_queue() {
        use std::sync::Mutex;
        use std::time::Duration;
        let completion = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..6).collect();
        let out = pae_runtime::with_jobs(2, || {
            pae_runtime::parallel_map(&items, |i, &x| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                completion.lock().unwrap().push(i);
                x * 10
            })
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50], "input order preserved");
        let completion = completion.into_inner().unwrap();
        assert_eq!(
            *completion.last().unwrap(),
            0,
            "items behind the slow one should have finished first: {completion:?}"
        );
    }

    #[test]
    fn prepare_all_returns_categories_in_input_order() {
        let kinds = [CategoryKind::MailboxDe, CategoryKind::GardenDe];
        let prepared = pae_runtime::with_jobs(2, || prepare_all(&kinds));
        let got: Vec<CategoryKind> = prepared.iter().map(|p| p.kind).collect();
        assert_eq!(got, kinds);
        assert!(prepared.iter().all(|p| !p.corpus.products.is_empty()));
    }

    #[test]
    fn update_bench_json_merges_by_id() {
        let dir = std::env::temp_dir().join(format!("pae-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = |id: &str, median: u64| BenchRecord {
            id: id.into(),
            samples: 10,
            min_ns: median - 1,
            median_ns: median,
            mean_ns: median + 1,
        };
        // First write creates the ledger.
        update_bench_json(&dir, &[rec("a/x", 100), rec("b/y", 200)]).unwrap();
        // Second write replaces one id and adds another.
        update_bench_json(&dir, &[rec("b/y", 999), rec("c/z", 300)]).unwrap();
        let text = std::fs::read_to_string(dir.join("BENCH_pipeline.json")).unwrap();
        let doc = pae_obs::json::Json::parse(&text).unwrap();
        let items = match doc.get("results") {
            Some(pae_obs::json::Json::Arr(v)) => v,
            other => panic!("results not an array: {other:?}"),
        };
        let median_of = |id: &str| {
            items
                .iter()
                .find(|it| it.get("id").and_then(|j| j.as_str()) == Some(id))
                .and_then(|it| it.get("median_ns"))
                .and_then(|j| j.as_u64())
        };
        assert_eq!(items.len(), 3, "{text}");
        assert_eq!(median_of("a/x"), Some(100), "untouched entry kept");
        assert_eq!(median_of("b/y"), Some(999), "existing id replaced");
        assert_eq!(median_of("c/z"), Some(300), "new id appended");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_timing_report_has_one_row_per_cycle() {
        let dataset = DatasetSpec::new(CategoryKind::MailboxDe, 5)
            .products(40)
            .generate();
        let mut cfg = PipelineConfig {
            iterations: 2,
            ..Default::default()
        };
        cfg.crf.max_iters = 10;
        let outcome = BootstrapPipeline::new(cfg).run(&dataset);
        let report = stage_timing_report(&outcome);
        assert!(report.starts_with("prep: seed "), "{report}");
        // Header + rule + one row per snapshot.
        assert_eq!(
            report.lines().count(),
            1 + 2 + outcome.snapshots.len(),
            "{report}"
        );
        // The CRF sub-stage breakdown is surfaced and non-zero: the
        // gradient evaluations dominate CRF training.
        assert!(report.contains("crf.grad"), "{report}");
        assert!(
            outcome.snapshots[0].timings.crf.grad > std::time::Duration::ZERO,
            "crf.grad sub-stage not measured"
        );
    }
}
