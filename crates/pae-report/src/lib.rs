//! `pae-report` — run ledger, regression gates, and drift analytics
//! over `pae-obs` traces.
//!
//! Five layers:
//!
//! 1. [`summary`] — turns a parsed [`pae_obs::reader::Trace`] into a
//!    self-contained [`summary::RunSummary`]: run metadata (git rev,
//!    config hash, job count, scale), per-stage wall-clock aggregates,
//!    and the per-iteration quality series (triples, candidates, veto
//!    drops, semantic evictions, per-attribute drift) plus every
//!    recorded evaluation. The quality section is byte-deterministic
//!    for a deterministic pipeline run; timings live in a separate
//!    `perf` section that diffs tolerate noise on.
//! 2. [`diff`] — compares two summaries through one gate table
//!    ([`diff::GATES`]): per-stage time deltas over a noise floor,
//!    serving SLOs, online quality, memory, per-eval and per-attribute
//!    precision and coverage, and drift. [`diff::diff_summaries`]
//!    reduces the comparison to pass/fail for CI gating.
//! 3. [`ledger`] — helpers for writing summaries into
//!    `results/ledger/` with stable file names, plus git-revision and
//!    config-hash probes used to stamp [`summary::RunMeta`].
//! 4. [`lineage`] — regroups a trace's `provenance` records into one
//!    [`lineage::TripleLineage`] trail per `(attr, value)` pair, with
//!    model confidences and the final disposition; powers the
//!    `explain` / `explain-diff` subcommands.
//! 5. [`flamegraph`] — collapses a trace's span tree into folded
//!    stacks weighted by self time or self allocated bytes, for
//!    rendering with any standard flamegraph tool.
//!
//! The `pae-report` binary exposes all of it as `summarize`, `diff`,
//! `check`, `explain`, `explain-diff`, and `flamegraph` subcommands
//! (exit codes: 0 pass, 1 regression / nothing found, 2 usage or I/O
//! error).

#![warn(missing_docs)]

pub mod diff;
pub mod flamegraph;
pub mod ledger;
pub mod lineage;
pub mod summary;

pub use diff::{diff_summaries, DiffReport, Violation};
pub use flamegraph::{folded_stacks, Weight};
pub use lineage::{fate_flips, FateFlip, LineageLedger, TripleLineage};
pub use summary::{RunMeta, RunSummary};
