//! Shared pipeline types.

use std::cmp::Ordering;
use std::collections::HashMap;

/// One extracted `<product, attribute, value>` triple.
///
/// `attr` is the *cluster name* chosen during attribute aggregation
/// (the most frequent merchant alias); `value` is the normalized
/// surface (tokens joined by single spaces).
///
/// The derived order (product, then attribute, then value) is the
/// canonical triple order: every sorted triple list in the pipeline is
/// sorted by it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Product id.
    pub product: u32,
    /// Attribute cluster name (a merchant alias surface).
    pub attr: String,
    /// Normalized value.
    pub value: String,
}

impl Triple {
    /// Convenience constructor.
    pub fn new(product: u32, attr: impl Into<String>, value: impl Into<String>) -> Self {
        Triple {
            product,
            attr: attr.into(),
            value: value.into(),
        }
    }

    /// The value's tokens (normalized values are space-joined).
    pub fn value_tokens(&self) -> Vec<&str> {
        self.value.split(' ').collect()
    }
}

/// The attribute inventory the pipeline works with after aggregation:
/// cluster name → known normalized values.
#[derive(Debug, Clone, Default)]
pub struct AttrTable {
    /// Cluster name → set of values with their observation counts.
    pub values: HashMap<String, HashMap<String, usize>>,
}

impl AttrTable {
    /// Adds one observation of `value` under `attr`.
    pub fn add(&mut self, attr: &str, value: &str) {
        *self
            .values
            .entry(attr.to_owned())
            .or_default()
            .entry(value.to_owned())
            .or_insert(0) += 1;
    }

    /// Attribute names, sorted for determinism.
    pub fn attrs(&self) -> Vec<&str> {
        let mut a: Vec<&str> = self.values.keys().map(String::as_str).collect();
        a.sort_unstable();
        a
    }

    /// Distinct values known for `attr`.
    pub fn values_of(&self, attr: &str) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .values
            .get(attr)
            .map(|m| m.keys().map(String::as_str).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Total distinct `(attr, value)` pairs.
    pub fn n_pairs(&self) -> usize {
        self.values.values().map(HashMap::len).sum()
    }

    /// Every distinct `(attr, value)` pair, attributes sorted and each
    /// attribute's values sorted: the category-level extra values a
    /// tagger's training set is built with.
    pub fn pairs(&self) -> Vec<(String, String)> {
        self.attrs()
            .into_iter()
            .flat_map(|attr| {
                self.values_of(attr)
                    .into_iter()
                    .map(move |v| (attr.to_owned(), v.to_owned()))
            })
            .collect()
    }
}

/// Where a merge walk found one element: in both lists, or in one.
pub(crate) enum Merged<A, B> {
    Both(A, B),
    OnlyA(A),
    OnlyB(B),
}

/// The merge walk behind every ensemble intersection: walks two lists
/// sorted and deduplicated in the order `cmp` compares them by, and
/// hands `visit` each element once, in merge order.
pub(crate) fn merge_sorted<A, B>(
    a: impl IntoIterator<Item = A>,
    b: impl IntoIterator<Item = B>,
    cmp: impl Fn(&A, &B) -> Ordering,
    mut visit: impl FnMut(Merged<A, B>),
) {
    let mut b = b.into_iter().peekable();
    for x in a {
        while let Some(y) = b.next_if(|y| cmp(&x, y) == Ordering::Greater) {
            visit(Merged::OnlyB(y));
        }
        match b.next_if(|y| cmp(&x, y) == Ordering::Equal) {
            Some(y) => visit(Merged::Both(x, y)),
            None => visit(Merged::OnlyA(x)),
        }
    }
    b.for_each(|y| visit(Merged::OnlyB(y)));
}

/// Intersection of two sorted, deduplicated triple lists: the triples
/// of `a` that `b` also holds, in order. The ensemble merge of the
/// bootstrap loop, freeze's rule-3 pool and serving.
pub(crate) fn intersect_sorted(a: Vec<Triple>, b: &[Triple]) -> Vec<Triple> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    merge_sorted(
        a,
        b,
        |x, y| x.cmp(y),
        |m| {
            if let Merged::Both(t, _) = m {
                out.push(t);
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_tokens() {
        let t = Triple::new(3, "iro", "2 . 5 kg");
        assert_eq!(t.value_tokens(), vec!["2", ".", "5", "kg"]);
    }

    #[test]
    fn attr_table_counts() {
        let mut t = AttrTable::default();
        t.add("color", "aka");
        t.add("color", "aka");
        t.add("color", "ao");
        t.add("weight", "2 kg");
        assert_eq!(t.attrs(), vec!["color", "weight"]);
        assert_eq!(t.values_of("color"), vec!["aka", "ao"]);
        assert_eq!(t.n_pairs(), 3);
        assert_eq!(t.values["color"]["aka"], 2);
        assert!(t.values_of("missing").is_empty());
        let pair = |a: &str, v: &str| (a.to_owned(), v.to_owned());
        assert_eq!(
            t.pairs(),
            vec![
                pair("color", "aka"),
                pair("color", "ao"),
                pair("weight", "2 kg")
            ]
        );
    }

    #[test]
    fn intersect_sorted_is_set_intersection() {
        let mk = |p: u32, v: &str| Triple::new(p, "a", v);
        let a = vec![mk(0, "x"), mk(1, "y"), mk(2, "z")];
        let b = vec![mk(0, "x"), mk(2, "z"), mk(3, "w")];
        let got = intersect_sorted(a, &b);
        assert_eq!(got, vec![mk(0, "x"), mk(2, "z")]);
        assert!(intersect_sorted(Vec::new(), &b).is_empty());
        assert!(intersect_sorted(vec![mk(9, "q")], &[]).is_empty());
    }

    #[test]
    fn merge_walk_visits_every_element_in_order() {
        let mut seen = Vec::new();
        merge_sorted(
            [1, 3, 4, 7],
            [2, 3, 7, 8],
            |x, y| x.cmp(y),
            |m| {
                seen.push(match m {
                    Merged::Both(x, y) => format!("{x}={y}"),
                    Merged::OnlyA(x) => format!("a{x}"),
                    Merged::OnlyB(y) => format!("b{y}"),
                })
            },
        );
        assert_eq!(seen, ["a1", "b2", "3=3", "a4", "7=7", "b8"]);
    }
}
