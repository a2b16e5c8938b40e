//! Specialized per-attribute-subset models (§VIII-D).
//!
//! A single global model tags every attribute; specialized models tag
//! only a subset, which the paper shows can raise that subset's
//! coverage by orders of magnitude — at a precision cost when
//! confusable attributes are separated from their disambiguating
//! siblings (power supply type vs type).

use pae_synth::Dataset;

use crate::bootstrap::{train_and_extract, BootstrapOutcome};
use crate::config::PipelineConfig;
use crate::corpus::Corpus;
use crate::eval::{evaluate_triples, EvalReport};
use crate::types::Triple;

/// Extraction result of one specialized model.
#[derive(Debug)]
pub struct SpecializedRun {
    /// The attribute clusters the model was restricted to.
    pub attrs: Vec<String>,
    /// Extracted triples (subset attributes only).
    pub triples: Vec<Triple>,
}

impl SpecializedRun {
    /// Evaluates the specialized extraction.
    pub fn evaluate(&self, dataset: &Dataset) -> EvalReport {
        evaluate_triples(&self.triples, &dataset.truth)
    }
}

/// Trains a model restricted to `subset` (cluster names) using the
/// outcome's final triples as training data, then extracts.
pub fn run_specialized(
    corpus: &Corpus,
    outcome: &BootstrapOutcome,
    subset: &[&str],
    cfg: &PipelineConfig,
) -> SpecializedRun {
    let space = outcome.label_space.restrict(subset);
    let triples = outcome.final_triples();
    let mut extra = outcome.diversified.pairs();
    extra.retain(|(attr, _)| subset.contains(&attr.as_str()));
    let mut extracted = train_and_extract(corpus, &triples, &extra, &space, cfg);
    // The system's output is cumulative: the specialized tagger replaces
    // the tagging step, not the seed/bootstrap history, so the subset's
    // already-known triples stay in.
    extracted.extend(
        triples
            .iter()
            .filter(|t| subset.contains(&t.attr.as_str()))
            .cloned(),
    );
    extracted.sort();
    extracted.dedup();
    SpecializedRun {
        attrs: space.attrs().to_vec(),
        triples: extracted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapPipeline;
    use crate::corpus::parse_corpus;
    use pae_synth::{CategoryKind, DatasetSpec};

    #[test]
    fn specialized_model_extracts_subset_only() {
        let dataset = DatasetSpec::new(CategoryKind::VacuumCleaner, 42)
            .products(60)
            .generate();
        let corpus = parse_corpus(&dataset);
        let mut cfg = PipelineConfig {
            iterations: 1,
            ..Default::default()
        };
        cfg.crf.max_iters = 30;
        let outcome = BootstrapPipeline::new(cfg.clone()).run_on_corpus(&dataset, &corpus);

        // Restrict to the two largest clusters.
        let attrs = outcome.label_space.attrs();
        assert!(attrs.len() >= 2, "need at least 2 clusters");
        let subset: Vec<&str> = attrs.iter().take(2).map(String::as_str).collect();
        let run = run_specialized(&corpus, &outcome, &subset, &cfg);

        assert_eq!(run.attrs.len(), 2);
        for t in &run.triples {
            assert!(
                subset.contains(&t.attr.as_str()),
                "triple outside subset: {t:?}"
            );
        }
    }
}
