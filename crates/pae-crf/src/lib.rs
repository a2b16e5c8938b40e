#![warn(missing_docs)]

//! Linear-chain conditional random fields, built from scratch.
//!
//! This crate reproduces the tagger backend the paper uses via
//! CRFsuite: a first-order linear-chain CRF trained with L-BFGS under
//! L1+L2 regularization (the CRFsuite default), with the feature
//! templates of the paper's §VI-D — the word, the words in a window of
//! size *K* around it, their part-of-speech tags, the concatenation of
//! those tags, and the sentence number.
//!
//! Layout:
//!
//! * [`data`] — encoded training/decoding instances (dense label ids,
//!   per-position binary feature ids);
//! * [`features`] — string feature templates + interning
//!   ([`features::FeatureIndex`], [`features::FeatureExtractor`]);
//! * [`model`] — parameter storage and scoring ([`CrfModel`]);
//! * [`inference`] — forward/backward and marginals (log space for
//!   training; scaled exp space for served confidence, with log space
//!   as its fallback), Viterbi;
//! * [`train`] — negative log-likelihood objective and gradient;
//! * [`lbfgs`] — generic L-BFGS minimizer with backtracking line search;
//! * [`owlqn`] — OWL-QN extension for L1 regularization.
//!
//! ```
//! use pae_crf::{data::Instance, train::{train, TrainConfig}};
//!
//! // Two labels (0 = O, 1 = NUM); feature 0 fires on digit tokens.
//! let instances = vec![
//!     Instance { features: vec![vec![0], vec![1]], labels: vec![1, 0] },
//!     Instance { features: vec![vec![1], vec![0]], labels: vec![0, 1] },
//! ];
//! let model = train(&instances, 2, 2, &TrainConfig::default());
//! assert_eq!(model.viterbi(&[vec![0], vec![1]]), vec![1, 0]);
//! ```

pub mod data;
pub mod features;
pub mod inference;
pub mod lbfgs;
pub mod model;
pub mod numeric;
pub mod owlqn;
pub mod train;

pub use data::{CsrInstances, CsrSeq, FeatureSeq, Instance};
pub use features::{ExtractScratch, FeatureExtractor, FeatureIndex, FeatureTemplates};
pub use inference::{marginals_into, viterbi_with_confidence, MargScratch};
pub use model::{CrfModel, ParamsView};
pub use train::{train, train_with_stats, TrainConfig, TrainEngine, TrainStats};
