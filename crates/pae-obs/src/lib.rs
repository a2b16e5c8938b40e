//! `pae-obs` — zero-dependency tracing and metrics for the pipeline.
//!
//! Three layers, all behind one global on/off switch ([`set_enabled`],
//! off by default so instrumented code pays a single relaxed atomic
//! load when tracing is off):
//!
//! 1. **Spans & events** ([`span`], [`event`], [`warn`]) — scoped spans
//!    with thread-aware parent tracking. Worker pools capture
//!    [`current_span`] before spawning and wrap worker bodies in
//!    [`with_parent`], so traces stay parent-linked across threads.
//!    Records land in a bounded ring buffer (drop-oldest, counted).
//! 2. **Metrics** ([`counter_add`], [`gauge_set`], [`observe`],
//!    [`observe_step`]) — a registry of counters, gauges, and
//!    log₂-bucketed histograms keyed by name + labels.
//! 3. **Exporters** ([`export::jsonl`], [`export::prometheus`],
//!    [`export::console`]) — machine-readable JSONL trace, Prometheus
//!    text exposition, and a human console span tree.
//!
//! Telemetry is side-effect-free with respect to pipeline results:
//! nothing collected here (including wall-clock durations) may feed
//! back into computation, and the determinism suite asserts
//! `final_triples()` is byte-identical with collection on or off.
//!
//! Binaries opt in via [`TraceSession::from_env_and_args`], which
//! understands `--trace-out <path>` and the `PAE_TRACE` environment
//! variable.

#![warn(missing_docs)]

mod collector;
mod record;
mod span;

pub mod export;
pub mod json;
pub mod metrics;
pub mod process;
pub mod prof;
pub mod reader;
pub mod sketch;
pub mod window;

pub use collector::{
    clear, dropped, enabled, provenance_enabled, set_capacity, set_enabled, set_provenance_enabled,
    snapshot, DEFAULT_CAPACITY,
};
pub use metrics::{
    clear_metrics, counter_add, gauge_set, metrics_snapshot, observe, observe_step, Histogram,
    MetricKey, MetricValue, HISTOGRAM_BUCKETS,
};
pub use process::{process_metrics, process_stats, ProcessStats};
pub use prof::{
    prof_enabled, prof_stats, set_prof_enabled, start_rss_sampler, MemReport, ProfSession,
    ProfStats, RssSampler,
};
pub use record::{FieldValue, RecordKind, TraceRecord};
pub use span::{
    current_span, event, provenance, span, span_complete, span_fields, warn, with_parent, SpanGuard,
};
pub use window::{EpochRing, WindowedCounter, WindowedHistogram};

/// Ring capacity used while provenance collection is active: lineage
/// records are per-candidate × per-stage, far denser than span records,
/// and an evicted lineage record silently truncates a decision trail.
pub const PROVENANCE_CAPACITY: usize = 1 << 20;

/// Clears all collected records and registered metrics (the enabled
/// flag and ring capacity are untouched).
pub fn reset() {
    collector::clear();
    metrics::clear_metrics();
}

/// CLI/env plumbing for the `probe*` binaries: decides whether tracing
/// and provenance are on and where their outputs go.
///
/// Sources, CLI winning over env:
/// - `--trace-out <path>` (or `--trace-out=<path>`) — write a JSONL
///   trace to `path`; the flag is stripped from the returned args so
///   positional parsing downstream is unaffected.
/// - `PAE_TRACE` — unset, empty, or `0` = off; `1` = console tree only;
///   anything else is treated as a JSONL output path.
/// - `--provenance-out <path>` (or `--provenance-out=<path>`) — enable
///   per-candidate lineage records and write them (provenance lines
///   only) to `path`.
/// - `PAE_PROVENANCE` — unset, empty, or `0` = off; `1` = collect
///   provenance into the main trace (useful with `--trace-out`);
///   anything else is treated as a provenance-only JSONL output path.
/// - `--force` — allow overwriting existing output files; without it
///   a session refuses to clobber an existing `--trace-out` or
///   `--provenance-out` target.
/// - `--profile` — enable allocation profiling (the counting
///   `#[global_allocator]` plus an RSS sampler; see [`prof`]). Span-end
///   records gain `alloc_bytes`/`alloc_count`/`peak_live_bytes` fields
///   and [`TraceSession::finish`] emits a `mem.summary` event for the
///   run ledger. Profiling alone does not enable trace collection.
/// - `PAE_PROF` — unset, empty, or `0` = off; anything else = same as
///   `--profile`.
///
/// Without `--force` the output files are *reserved atomically* at
/// session start (`File::create_new`): the open itself fails when the
/// file exists, so two concurrent runs pointed at the same target
/// cannot both pass an existence check and clobber each other —
/// exactly one wins the reservation and the other exits with the
/// refusal error. [`TraceSession::finish`] writes into the reserved
/// handles.
///
/// When any target is configured the session enables collection and
/// clears prior state; [`TraceSession::finish`] exports and disables.
#[derive(Debug)]
pub struct TraceSession {
    out: Option<std::path::PathBuf>,
    prov_out: Option<std::path::PathBuf>,
    /// Atomically reserved `--trace-out` handle (`create_new`), absent
    /// under `--force` (which recreates the file at finish).
    out_file: Option<std::fs::File>,
    /// Atomically reserved `--provenance-out` handle.
    prov_file: Option<std::fs::File>,
    /// Render the console span tree at finish (a trace target was
    /// configured — provenance-only sessions skip the tree).
    console: bool,
    active: bool,
    provenance: bool,
    /// Live profiling session (`--profile` / `PAE_PROF`); finished —
    /// emitting its `mem.summary` event — by [`TraceSession::finish`]
    /// or an early [`TraceSession::end_profiling`].
    prof: Option<prof::ProfSession>,
}

/// Atomically reserves `path` for writing: fails with the standard
/// "refusing to overwrite" usage error when the file already exists
/// (the check and the creation are one `open(2)` with `O_EXCL`, so
/// concurrent reservations race safely — exactly one wins).
pub fn reserve_output(path: &std::path::Path) -> Result<std::fs::File, String> {
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                format!(
                    "refusing to overwrite existing file {} (pass --force to overwrite)",
                    path.display()
                )
            } else {
                format!("cannot create {}: {e}", path.display())
            }
        })
}

impl TraceSession {
    /// Builds a session from `std::env::args()`, `PAE_TRACE`, and
    /// `PAE_PROVENANCE`, returning the args with trace flags stripped.
    /// Exits with status 2 on a usage error (e.g. refusing to overwrite
    /// an existing output file without `--force`).
    pub fn from_env_and_args() -> (Vec<String>, TraceSession) {
        match Self::from_parts(
            std::env::args().collect(),
            std::env::var("PAE_TRACE").ok(),
            std::env::var("PAE_PROVENANCE").ok(),
            std::env::var("PAE_PROF").ok(),
        ) {
            Ok(parts) => parts,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Testable core of [`TraceSession::from_env_and_args`].
    pub fn from_parts(
        args: Vec<String>,
        trace_env: Option<String>,
        prov_env: Option<String>,
        prof_env: Option<String>,
    ) -> Result<(Vec<String>, TraceSession), String> {
        let mut out: Option<std::path::PathBuf> = None;
        let mut console_only = false;
        match trace_env.as_deref() {
            None | Some("") | Some("0") => {}
            Some("1") => console_only = true,
            Some(path) => out = Some(path.into()),
        }
        let mut prov_out: Option<std::path::PathBuf> = None;
        let mut prov_inline = false;
        match prov_env.as_deref() {
            None | Some("") | Some("0") => {}
            Some("1") => prov_inline = true,
            Some(path) => prov_out = Some(path.into()),
        }
        let mut profile = !matches!(prof_env.as_deref(), None | Some("") | Some("0"));
        let mut force = false;
        let mut filtered = Vec::with_capacity(args.len());
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--trace-out" {
                match it.next() {
                    Some(path) => out = Some(path.into()),
                    None => return Err("--trace-out requires a path".into()),
                }
            } else if let Some(path) = arg.strip_prefix("--trace-out=") {
                out = Some(path.into());
            } else if arg == "--provenance-out" {
                match it.next() {
                    Some(path) => prov_out = Some(path.into()),
                    None => return Err("--provenance-out requires a path".into()),
                }
            } else if let Some(path) = arg.strip_prefix("--provenance-out=") {
                prov_out = Some(path.into());
            } else if arg == "--profile" {
                profile = true;
            } else if arg == "--force" {
                force = true;
            } else {
                filtered.push(arg);
            }
        }
        let mut out_file = None;
        let mut prov_file = None;
        if !force {
            if let Some(path) = &out {
                out_file = Some(reserve_output(path)?);
            }
            if let Some(path) = &prov_out {
                match reserve_output(path) {
                    Ok(f) => prov_file = Some(f),
                    Err(e) => {
                        // Roll back the trace reservation so a refused
                        // session leaves nothing behind.
                        if out_file.take().is_some() {
                            if let Some(p) = &out {
                                let _ = std::fs::remove_file(p);
                            }
                        }
                        return Err(e);
                    }
                }
            }
        }
        let provenance = prov_inline || prov_out.is_some();
        let console = out.is_some() || console_only;
        let active = console || provenance;
        if active {
            reset();
            set_enabled(true);
            if provenance {
                set_provenance_enabled(true);
                set_capacity(PROVENANCE_CAPACITY);
            }
        }
        // Begin profiling last, after collection is configured, so the
        // session's counters start from a clean baseline.
        let prof_session = profile.then(prof::ProfSession::begin);
        Ok((
            filtered,
            TraceSession {
                out,
                prov_out,
                out_file,
                prov_file,
                console,
                active,
                provenance,
                prof: prof_session,
            },
        ))
    }

    /// Whether this session turned collection on.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Whether this session turned provenance collection on.
    pub fn provenance_active(&self) -> bool {
        self.provenance
    }

    /// Whether this session turned allocation profiling on (and has not
    /// yet ended it).
    pub fn profiling_active(&self) -> bool {
        self.prof.is_some()
    }

    /// Ends the profiling session now (idempotent), emitting the
    /// `mem.summary` event into the live collection and returning the
    /// run's memory totals. Callers that build a `RunSummary` from the
    /// live collection must call this *before* snapshotting, otherwise
    /// the summary's `memory` section is missing;
    /// [`TraceSession::finish`] calls it automatically for everyone
    /// else.
    pub fn end_profiling(&mut self) -> Option<prof::MemReport> {
        self.prof.take().map(prof::ProfSession::finish)
    }

    /// Exports (provenance JSONL, trace JSONL, console tree — each if
    /// configured) and disables collection.
    pub fn finish(mut self) {
        // Profiling may be on without any trace target; end it before
        // the early return so the allocator is never left counting.
        self.end_profiling();
        if !self.active {
            return;
        }
        if let Some(path) = &self.prov_out {
            // Write through the reserved handle when we hold one;
            // `--force` sessions (no reservation) recreate the file.
            let written = match self.prov_file.as_mut() {
                Some(f) => export::jsonl::write_provenance_current_to(f),
                None => export::jsonl::write_provenance_current(path),
            };
            match written {
                Ok(()) => eprintln!("provenance written to {}", path.display()),
                Err(e) => eprintln!("failed to write provenance to {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.out {
            let written = match self.out_file.as_mut() {
                Some(f) => export::jsonl::write_current_to(f),
                None => export::jsonl::write_current(path),
            };
            match written {
                Ok(()) => eprintln!("trace written to {}", path.display()),
                Err(e) => eprintln!("failed to write trace to {}: {e}", path.display()),
            }
        }
        if self.console {
            eprintln!("--- span tree ---");
            eprint!("{}", export::console::render_current());
        }
        if self.provenance {
            set_provenance_enabled(false);
            set_capacity(DEFAULT_CAPACITY);
        }
        set_enabled(false);
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path in the system temp dir that is guaranteed not to exist
    /// (unique per test name within this process).
    fn fresh_path(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("pae-obs-{}-{tag}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn end_session() {
        set_provenance_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
        set_enabled(false);
        reset();
    }

    #[test]
    fn trace_out_flag_is_stripped_and_wins_over_env() {
        let _l = test_lock();
        let cli = fresh_path("cli");
        let env = fresh_path("env");
        let (args, session) = TraceSession::from_parts(
            vec![
                "probe".into(),
                "60".into(),
                "--trace-out".into(),
                cli.to_string_lossy().into_owned(),
            ],
            Some(env.to_string_lossy().into_owned()),
            None,
            None,
        )
        .expect("fresh paths");
        assert_eq!(args, vec!["probe".to_string(), "60".to_string()]);
        assert!(session.active());
        assert!(!session.provenance_active());
        assert_eq!(session.out.as_deref(), Some(cli.as_path()));
        end_session();
    }

    #[test]
    fn equals_form_and_console_only_env() {
        let _l = test_lock();
        let x = fresh_path("eq");
        let (args, session) = TraceSession::from_parts(
            vec![
                "probe".into(),
                format!("--trace-out={}", x.to_string_lossy()),
            ],
            None,
            None,
            None,
        )
        .expect("fresh path");
        assert_eq!(args, vec!["probe".to_string()]);
        assert!(session.active());
        end_session();

        let (_, session) =
            TraceSession::from_parts(vec!["probe".into()], Some("1".into()), None, None).unwrap();
        assert!(session.active());
        assert!(session.out.is_none());
        end_session();

        let (_, session) =
            TraceSession::from_parts(vec!["probe".into()], Some("0".into()), None, None).unwrap();
        assert!(!session.active());
        assert!(!enabled());
        reset();
    }

    #[test]
    fn provenance_flag_enables_collection_and_writes_only_provenance() {
        let _l = test_lock();
        let p = fresh_path("prov");
        let (args, session) = TraceSession::from_parts(
            vec![
                "probe".into(),
                "--provenance-out".into(),
                p.to_string_lossy().into_owned(),
            ],
            None,
            None,
            None,
        )
        .expect("fresh path");
        assert_eq!(args, vec!["probe".to_string()]);
        assert!(session.active());
        assert!(session.provenance_active());
        assert!(provenance_enabled());
        let _s = span("noise");
        provenance("prov.origin", vec![("attr".into(), "iro".into())]);
        drop(_s);
        session.finish();
        assert!(!enabled());
        assert!(!provenance_enabled());
        let doc = std::fs::read_to_string(&p).expect("provenance file written");
        let trace = reader::Trace::parse(&doc).expect("parses");
        assert_eq!(trace.records.len(), 1, "provenance lines only: {doc}");
        assert_eq!(trace.provenance_records()[0].name, "prov.origin");
        std::fs::remove_file(&p).ok();
        end_session();
    }

    #[test]
    fn provenance_env_inline_mode_needs_no_path() {
        let _l = test_lock();
        let (_, session) =
            TraceSession::from_parts(vec!["probe".into()], None, Some("1".into()), None).unwrap();
        assert!(session.active());
        assert!(session.provenance_active());
        assert!(session.prov_out.is_none());
        end_session();

        let (_, session) =
            TraceSession::from_parts(vec!["probe".into()], None, Some("0".into()), None).unwrap();
        assert!(!session.active());
        assert!(!provenance_enabled());
        reset();
    }

    #[test]
    fn existing_outputs_are_refused_without_force() {
        let _l = test_lock();
        for flag in ["--trace-out", "--provenance-out"] {
            let p = fresh_path(&format!("clobber{}", flag.len()));
            std::fs::write(&p, "precious").unwrap();
            let err = TraceSession::from_parts(
                vec![
                    "probe".into(),
                    flag.into(),
                    p.to_string_lossy().into_owned(),
                ],
                None,
                None,
                None,
            )
            .expect_err("existing file must be refused");
            assert!(err.contains("refusing to overwrite"), "{err}");
            assert!(err.contains("--force"), "{err}");
            assert!(!enabled(), "refusal must not enable collection");
            assert_eq!(
                std::fs::read_to_string(&p).unwrap(),
                "precious",
                "file untouched"
            );

            let (args, session) = TraceSession::from_parts(
                vec![
                    "probe".into(),
                    flag.into(),
                    p.to_string_lossy().into_owned(),
                    "--force".into(),
                ],
                None,
                None,
                None,
            )
            .expect("--force overrides the refusal");
            assert_eq!(args, vec!["probe".to_string()], "--force is stripped");
            assert!(session.active());
            session.finish();
            std::fs::remove_file(&p).ok();
            end_session();
        }
    }

    #[test]
    fn output_reservation_is_atomic_across_sessions() {
        let _l = test_lock();
        let p = fresh_path("race");
        // First session wins the reservation (create_new), so a second
        // session started before the first has written anything is
        // refused — the old exists-then-open check let both proceed.
        let (_, winner) = TraceSession::from_parts(
            vec![
                "probe".into(),
                format!("--trace-out={}", p.to_string_lossy()),
            ],
            None,
            None,
            None,
        )
        .expect("first reservation succeeds");
        let err = TraceSession::from_parts(
            vec![
                "probe".into(),
                format!("--trace-out={}", p.to_string_lossy()),
            ],
            None,
            None,
            None,
        )
        .expect_err("second session must lose the race");
        assert!(err.contains("refusing to overwrite"), "{err}");
        winner.finish();
        let doc = std::fs::read_to_string(&p).expect("winner's trace written");
        assert!(doc.starts_with("{\"type\":\"meta\""), "{doc}");
        std::fs::remove_file(&p).ok();
        end_session();
    }

    #[test]
    fn refused_provenance_rolls_back_the_trace_reservation() {
        let _l = test_lock();
        let t = fresh_path("rollback-trace");
        let p = fresh_path("rollback-prov");
        std::fs::write(&p, "precious").unwrap();
        let err = TraceSession::from_parts(
            vec![
                "probe".into(),
                format!("--trace-out={}", t.to_string_lossy()),
                format!("--provenance-out={}", p.to_string_lossy()),
            ],
            None,
            None,
            None,
        )
        .expect_err("existing provenance target must refuse the session");
        assert!(err.contains("refusing to overwrite"), "{err}");
        assert!(
            !t.exists(),
            "the trace reservation is rolled back on refusal"
        );
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "precious");
        std::fs::remove_file(&p).ok();
        reset();
    }
}
