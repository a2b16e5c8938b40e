#![warn(missing_docs)]

//! The paper's pipeline: bootstrapped product attribute extraction.
//!
//! Implements Figure 1 of the paper end to end:
//!
//! 1. **Pre-processing** — [`corpus`] parses product pages into tagged
//!    sentences; [`seed`] harvests `<attribute, value>` candidates from
//!    dictionary tables, aggregates redundant attribute names, and
//!    cleans values against the query log; [`diversify`] generalizes
//!    the seed's value shapes via PoS-sequence sampling.
//! 2. **Tagging** — [`trainset`] projects the known triples onto the
//!    corpus as BIO labels; [`tagger`] trains a CRF or BiLSTM backend
//!    and decodes new candidate triples.
//! 3. **Cleaning** — [`cleaning::veto`] applies the four syntactic veto
//!    rules; [`cleaning::semantic`] trains word2vec on the corpus each
//!    iteration and removes candidates far from each attribute's
//!    semantic core.
//! 4. **Loop** — [`bootstrap`] iterates tagging+cleaning for N cycles,
//!    snapshotting each iteration for the evaluation harness.
//!
//! [`eval`] computes the paper's metrics (precision with the
//! `maybe_incorrect` convention, product coverage, per-attribute
//! coverage); [`specialized`] trains per-attribute-subset models
//! (§VIII-D); [`provenance`] threads a per-candidate lineage ledger
//! through the loop (origin, model confidence, veto/semantic verdicts,
//! final disposition) when `pae_obs` provenance collection is on.

pub mod bootstrap;
pub mod bundle;
pub mod cleaning;
pub mod config;
pub mod corpus;
pub mod corrections;
pub mod diversify;
pub mod eval;
pub mod frozen;
pub mod provenance;
pub mod quality;
pub mod seed;
pub mod specialized;
pub mod tagger;
pub mod timing;
pub mod trainset;
pub mod types;

pub use bootstrap::{BootstrapOutcome, BootstrapPipeline, CandidateScores, IterationSnapshot};
pub use bundle::{write_bundle, BundleError, LoadedBundle, BUNDLE_MAGIC, BUNDLE_SCHEMA_VERSION};
pub use config::{PipelineConfig, TaggerKind};
pub use corpus::{parse_corpus, Corpus, ProductText};
pub use corrections::Corrections;
pub use eval::{evaluate_pairs, evaluate_triples, EvalReport, PairReport};
pub use frozen::{FreezeError, FrozenExtractor, FrozenModel, FrozenTagger};
pub use provenance::ProvLog;
pub use quality::{AttrReference, BackendReference, PageObservation, ReferenceStats};
pub use tagger::CrfTrainContext;
pub use timing::{CrfStageTimings, PrepTimings, StageTimings};
pub use types::{AttrTable, Triple};
