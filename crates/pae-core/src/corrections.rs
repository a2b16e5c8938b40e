//! Human-in-the-loop corrections (§VIII of the paper).
//!
//! The paper's qualitative analysis observes that *"precision figures
//! are often affected not by a large number of different errors, but a
//! few errors that affect many items. This makes it easier to improve
//! performance … by manual intervention, like modifying the seed corpus
//! or by correcting the output manually (human-in-the-loop)."*
//!
//! [`Corrections`] encodes exactly those two interventions: category-
//! level pair vetoes/additions applied to the seed before the loop, and
//! output-level removals applied to the final triples.

use std::collections::{HashMap, HashSet};

use crate::seed::Seed;
use crate::types::Triple;

/// A batch of human corrections.
#[derive(Debug, Clone, Default)]
pub struct Corrections {
    /// `(attr cluster, normalized value)` pairs to remove from the seed
    /// (and anywhere they appear in the output).
    pub veto_pairs: Vec<(String, String)>,
    /// Seed pairs to add for specific products (triples a human
    /// verified): these enter the training set like table pairs.
    pub add_triples: Vec<Triple>,
    /// `(attr cluster, from value, to value)` output rewrites: a human
    /// fixed a systematic extraction error (truncated span, spelling
    /// variant) without dropping the triples that carry it.
    pub rewrite_pairs: Vec<(String, String, String)>,
}

impl Corrections {
    /// No corrections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a category-level pair veto.
    pub fn veto_pair(mut self, attr: impl Into<String>, value: impl Into<String>) -> Self {
        self.veto_pairs.push((attr.into(), value.into()));
        self
    }

    /// Adds a human-verified triple to the seed.
    pub fn add_triple(mut self, triple: Triple) -> Self {
        self.add_triples.push(triple);
        self
    }

    /// Adds a category-level value rewrite applied to the output.
    pub fn rewrite_pair(
        mut self,
        attr: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        self.rewrite_pairs
            .push((attr.into(), from.into(), to.into()));
        self
    }

    /// True when nothing would change.
    pub fn is_empty(&self) -> bool {
        self.veto_pairs.is_empty() && self.add_triples.is_empty() && self.rewrite_pairs.is_empty()
    }

    /// Applies the seed-level corrections in place.
    pub fn apply_to_seed(&self, seed: &mut Seed) {
        let vetoed: HashSet<(&str, &str)> = self
            .veto_pairs
            .iter()
            .map(|(a, v)| (a.as_str(), v.as_str()))
            .collect();
        for (attr, values) in seed.table.values.iter_mut() {
            values.retain(|value, _| !vetoed.contains(&(attr.as_str(), value.as_str())));
        }
        seed.table.values.retain(|_, values| !values.is_empty());
        seed.product_pairs
            .retain(|p| !vetoed.contains(&(p.attr.as_str(), p.value.as_str())));
        for t in &self.add_triples {
            seed.table.add(&t.attr, &t.value);
            seed.product_pairs.push(crate::corpus::TablePair {
                product: t.product,
                attr: t.attr.clone(),
                value: t.value.clone(),
            });
        }
    }

    /// Applies the output-level vetoes and rewrites to extracted
    /// triples. With no rewrites configured this is a pure filter (same
    /// order, no re-sort); rewrites re-canonicalize (sort + dedup)
    /// because a rewrite can collide with an existing triple.
    pub fn apply_to_triples(&self, triples: Vec<Triple>) -> Vec<Triple> {
        let vetoed: HashSet<(&str, &str)> = self
            .veto_pairs
            .iter()
            .map(|(a, v)| (a.as_str(), v.as_str()))
            .collect();
        let mut out: Vec<Triple> = triples
            .into_iter()
            .filter(|t| !vetoed.contains(&(t.attr.as_str(), t.value.as_str())))
            .collect();
        if !self.rewrite_pairs.is_empty() {
            let rewrites: HashMap<(&str, &str), &str> = self
                .rewrite_pairs
                .iter()
                .map(|(a, from, to)| ((a.as_str(), from.as_str()), to.as_str()))
                .collect();
            for t in out.iter_mut() {
                if let Some(&to) = rewrites.get(&(t.attr.as_str(), t.value.as_str())) {
                    t.value = to.to_owned();
                }
            }
            out.sort();
            out.dedup();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::TablePair;
    use crate::types::AttrTable;

    fn toy_seed() -> Seed {
        let mut table = AttrTable::default();
        table.add("iro", "aka");
        table.add("iro", "zzz"); // the error a human spotted
        table.add("omosa", "2 kg");
        Seed {
            table: table.clone(),
            raw_table: table,
            product_pairs: vec![
                TablePair {
                    product: 0,
                    attr: "iro".into(),
                    value: "aka".into(),
                },
                TablePair {
                    product: 1,
                    attr: "iro".into(),
                    value: "zzz".into(),
                },
            ],
            alias_to_cluster: crate::seed::AliasTable::default(),
        }
    }

    #[test]
    fn veto_removes_pair_everywhere() {
        let mut seed = toy_seed();
        Corrections::new()
            .veto_pair("iro", "zzz")
            .apply_to_seed(&mut seed);
        assert_eq!(seed.table.values_of("iro"), vec!["aka"]);
        assert_eq!(seed.product_pairs.len(), 1);
    }

    #[test]
    fn veto_drops_emptied_attributes() {
        let mut seed = toy_seed();
        Corrections::new()
            .veto_pair("omosa", "2 kg")
            .apply_to_seed(&mut seed);
        assert!(!seed.table.values.contains_key("omosa"));
    }

    #[test]
    fn added_triples_enter_seed() {
        let mut seed = toy_seed();
        Corrections::new()
            .add_triple(Triple::new(7, "iro", "momo"))
            .apply_to_seed(&mut seed);
        assert!(seed.table.values_of("iro").contains(&"momo"));
        assert!(seed
            .product_pairs
            .iter()
            .any(|p| p.product == 7 && p.value == "momo"));
    }

    #[test]
    fn output_filtering() {
        let triples = vec![Triple::new(0, "iro", "aka"), Triple::new(1, "iro", "zzz")];
        let out = Corrections::new()
            .veto_pair("iro", "zzz")
            .apply_to_triples(triples);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, "aka");
    }

    #[test]
    fn output_rewrites_remap_and_recanonicalize() {
        let triples = vec![
            Triple::new(0, "iro", "aka"),
            Triple::new(0, "iro", "akai"), // variant a human folded in
            Triple::new(1, "iro", "akai"),
        ];
        let c = Corrections::new().rewrite_pair("iro", "akai", "aka");
        assert!(!c.is_empty());
        let out = c.apply_to_triples(triples);
        // Product 0's rewrite collides with its existing "aka" → dedup.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.value == "aka"));
        assert_eq!(out[0].product, 0);
        assert_eq!(out[1].product, 1);
    }

    #[test]
    fn empty_corrections_are_noops() {
        let c = Corrections::new();
        assert!(c.is_empty());
        let mut seed = toy_seed();
        let before_pairs = seed.product_pairs.len();
        c.apply_to_seed(&mut seed);
        assert_eq!(seed.product_pairs.len(), before_pairs);
    }
}
