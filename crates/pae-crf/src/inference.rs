//! Forward/backward, marginals and Viterbi decoding.
//!
//! Training works in log space ([`forward`], [`backward`],
//! [`marginals`] and their flat twins [`forward_into`] and
//! [`marginals_into`]). Serving decodes each sentence from one flat
//! emission pass: [`viterbi`] is max-sum in log space, and the
//! confidence overlay of [`viterbi_with_confidence`] is a scaled
//! exp-space forward–backward, with log space as its fallback.

// Dynamic-programming kernels read clearest with explicit indices.
#![allow(clippy::needless_range_loop)]

use crate::data::{FeatureSeq, LabelId};
use crate::model::{CrfModel, ParamsView};
use crate::numeric::{dot, log_sum_exp};

/// Forward pass result.
#[derive(Debug, Clone)]
pub struct Forward {
    /// `alpha[t][l]` = log sum of scores of prefixes ending at `t` with
    /// label `l` (includes the start weight and all emissions up to `t`).
    pub alpha: Vec<Vec<f64>>,
    /// Per-position emission scores (cached for reuse by backward).
    pub emissions: Vec<Vec<f64>>,
    /// Log-partition function `log Z` (includes end weights).
    pub log_z: f64,
}

/// Runs the forward algorithm in log space.
pub fn forward<S: FeatureSeq + ?Sized>(model: &CrfModel, features: &S) -> Forward {
    let view = model.view();
    let n = features.n_positions();
    let l = model.n_labels;
    let mut emissions = vec![vec![0.0; l]; n];
    for (t, em) in emissions.iter_mut().enumerate() {
        view.emission_scores(features.feats(t), em);
    }
    let mut alpha = vec![vec![f64::NEG_INFINITY; l]; n];
    if n == 0 {
        return Forward {
            alpha,
            emissions,
            log_z: 0.0,
        };
    }
    for y in 0..l {
        alpha[0][y] = view.start(y) + emissions[0][y];
    }
    let mut scratch = vec![0.0; l];
    for t in 1..n {
        for y in 0..l {
            for (p, s) in scratch.iter_mut().enumerate() {
                *s = alpha[t - 1][p] + view.transition(p, y);
            }
            alpha[t][y] = log_sum_exp(&scratch) + emissions[t][y];
        }
    }
    for (y, s) in scratch.iter_mut().enumerate() {
        *s = alpha[n - 1][y] + view.end(y);
    }
    let log_z = log_sum_exp(&scratch);
    Forward {
        alpha,
        emissions,
        log_z,
    }
}

/// Backward pass: `beta[t][l]` = log sum of scores of suffixes starting
/// after `t` given label `l` at `t` (includes the end weight, excludes
/// emission at `t`).
pub fn backward(model: &CrfModel, emissions: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let view = model.view();
    let n = emissions.len();
    let l = model.n_labels;
    let mut beta = vec![vec![f64::NEG_INFINITY; l]; n];
    if n == 0 {
        return beta;
    }
    for y in 0..l {
        beta[n - 1][y] = view.end(y);
    }
    let mut scratch = vec![0.0; l];
    for t in (0..n - 1).rev() {
        for y in 0..l {
            for (q, s) in scratch.iter_mut().enumerate() {
                *s = view.transition(y, q) + emissions[t + 1][q] + beta[t + 1][q];
            }
            beta[t][y] = log_sum_exp(&scratch);
        }
    }
    beta
}

/// Posterior marginals over the sequence.
#[derive(Debug, Clone)]
pub struct Marginals {
    /// `node[t][l]` = P(y_t = l | x).
    pub node: Vec<Vec<f64>>,
    /// `edge[t][p][q]` = P(y_{t-1} = p, y_t = q | x), for t in `1..n`
    /// stored at index `t - 1`.
    pub edge: Vec<Vec<Vec<f64>>>,
    /// Log-partition function.
    pub log_z: f64,
}

/// Computes node and edge marginals via forward-backward.
pub fn marginals<S: FeatureSeq + ?Sized>(model: &CrfModel, features: &S) -> Marginals {
    let view = model.view();
    let fwd = forward(model, features);
    let beta = backward(model, &fwd.emissions);
    let n = features.n_positions();
    let l = model.n_labels;
    let mut node = vec![vec![0.0; l]; n];
    for t in 0..n {
        for y in 0..l {
            node[t][y] = (fwd.alpha[t][y] + beta[t][y] - fwd.log_z).exp();
        }
    }
    let mut edge = vec![vec![vec![0.0; l]; l]; n.saturating_sub(1)];
    for t in 1..n {
        for p in 0..l {
            for q in 0..l {
                let s =
                    fwd.alpha[t - 1][p] + view.transition(p, q) + fwd.emissions[t][q] + beta[t][q]
                        - fwd.log_z;
                edge[t - 1][p][q] = s.exp();
            }
        }
    }
    Marginals {
        node,
        edge,
        log_z: fwd.log_z,
    }
}

/// Reusable forward-backward workspace: every matrix the nested
/// [`marginals`] allocates per call, flattened and retained.
///
/// Layout (for a sequence of `n` positions and `l` labels):
/// `node[t*l + y]`, `edge[(t-1)*l*l + p*l + q]`, row-major, valid only
/// for the window written by the latest [`marginals_into`] call.
/// Buffers grow monotonically and are never shrunk; stale bytes beyond
/// the current window are garbage by design — callers must index only
/// within the window of the sequence they just processed.
#[derive(Debug, Clone, Default)]
pub struct MargScratch {
    emissions: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    tmp: Vec<f64>,
    /// `P(y_t = y | x)` at `[t*l + y]`.
    pub node: Vec<f64>,
    /// `P(y_{t-1} = p, y_t = q | x)` at `[(t-1)*l*l + p*l + q]`.
    pub edge: Vec<f64>,
    /// Log-partition function of the latest sequence.
    pub log_z: f64,
}

/// Grows `v` to at least `n` elements (never shrinks).
fn ensure(v: &mut Vec<f64>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

/// Forward pass into caller-provided buffers, returning `log Z`. The
/// flat-layout half of [`marginals_into`], exposed separately so a
/// line search can compute objective *values* (which need only `log Z`)
/// while caching `em`/`alpha` for a later [`MargScratch::finish`] at
/// the accepted point. `em` and `alpha` must hold at least `n·l`
/// elements, `tmp` at least `l`; arithmetic is bitwise-identical to
/// the forward section of the nested [`forward`].
pub fn forward_into<S: FeatureSeq + ?Sized>(
    view: ParamsView<'_>,
    features: &S,
    em: &mut [f64],
    alpha: &mut [f64],
    tmp: &mut [f64],
) -> f64 {
    let n = features.n_positions();
    let l = view.n_labels;
    if n == 0 {
        return 0.0;
    }
    let em = &mut em[..n * l];
    for t in 0..n {
        view.emission_scores(features.feats(t), &mut em[t * l..(t + 1) * l]);
    }
    let alpha = &mut alpha[..n * l];
    let tmp = &mut tmp[..l];
    for y in 0..l {
        alpha[y] = view.start(y) + em[y];
    }
    for t in 1..n {
        for y in 0..l {
            for (p, s) in tmp.iter_mut().enumerate() {
                *s = alpha[(t - 1) * l + p] + view.transition(p, y);
            }
            alpha[t * l + y] = log_sum_exp(tmp) + em[t * l + y];
        }
    }
    for (y, s) in tmp.iter_mut().enumerate() {
        *s = alpha[(n - 1) * l + y] + view.end(y);
    }
    log_sum_exp(tmp)
}

impl MargScratch {
    /// Backward pass + node/edge marginals for a sequence of `n`
    /// positions whose forward quantities (`em`, `alpha`, `log_z`)
    /// were already computed by [`forward_into`] — against the same
    /// `view`, or the marginals are garbage. Fills `node`/`edge` and
    /// sets `log_z`; bitwise-identical to the backward/marginal
    /// section of [`marginals_into`].
    pub fn finish(
        &mut self,
        view: ParamsView<'_>,
        n: usize,
        em: &[f64],
        alpha: &[f64],
        log_z: f64,
    ) {
        let l = view.n_labels;
        ensure(&mut self.beta, n * l);
        ensure(&mut self.tmp, l);
        ensure(&mut self.node, n * l);
        ensure(&mut self.edge, n.saturating_sub(1) * l * l);
        self.log_z = log_z;
        if n == 0 {
            return;
        }
        let em = &em[..n * l];
        let alpha = &alpha[..n * l];
        let tmp = &mut self.tmp[..l];
        let beta = &mut self.beta[..n * l];
        for y in 0..l {
            beta[(n - 1) * l + y] = view.end(y);
        }
        for t in (0..n - 1).rev() {
            for y in 0..l {
                for (q, s) in tmp.iter_mut().enumerate() {
                    *s = view.transition(y, q) + em[(t + 1) * l + q] + beta[(t + 1) * l + q];
                }
                beta[t * l + y] = log_sum_exp(tmp);
            }
        }

        let node = &mut self.node[..n * l];
        for t in 0..n {
            for y in 0..l {
                node[t * l + y] = (alpha[t * l + y] + beta[t * l + y] - log_z).exp();
            }
        }
        let edge = &mut self.edge[..n.saturating_sub(1) * l * l];
        for t in 1..n {
            for p in 0..l {
                for q in 0..l {
                    let s = alpha[(t - 1) * l + p]
                        + view.transition(p, q)
                        + em[t * l + q]
                        + beta[t * l + q]
                        - log_z;
                    edge[(t - 1) * l * l + p * l + q] = s.exp();
                }
            }
        }
    }
}

/// Forward-backward into a reusable [`MargScratch`] — the allocation-free
/// twin of [`marginals`], operating on any feature layout and a borrowed
/// parameter view. Bitwise-identical arithmetic: same loop orders, same
/// `log_sum_exp` reductions. Composed from [`forward_into`] +
/// [`MargScratch::finish`], which callers may also drive separately to
/// defer the backward/marginal work.
pub fn marginals_into<S: FeatureSeq + ?Sized>(
    view: ParamsView<'_>,
    features: &S,
    scratch: &mut MargScratch,
) {
    let n = features.n_positions();
    let l = view.n_labels;
    ensure(&mut scratch.emissions, n * l);
    ensure(&mut scratch.alpha, n * l);
    ensure(&mut scratch.tmp, l);
    // Move the forward buffers out so `finish` can borrow them
    // immutably alongside `&mut self` (they swap back below).
    let mut em = std::mem::take(&mut scratch.emissions);
    let mut alpha = std::mem::take(&mut scratch.alpha);
    let log_z = forward_into(view, features, &mut em, &mut alpha, &mut scratch.tmp);
    scratch.finish(view, n, &em, &alpha, log_z);
    scratch.emissions = em;
    scratch.alpha = alpha;
}

/// Emission scores of every position, flat: `em[t * l + y]`. One pass
/// per sentence feeds both Viterbi and the confidence overlay.
fn emissions<S: FeatureSeq + ?Sized>(view: ParamsView<'_>, features: &S) -> Vec<f64> {
    let l = view.n_labels;
    let mut em = vec![0.0; features.n_positions() * l];
    for t in 0..features.n_positions() {
        view.emission_scores(features.feats(t), &mut em[t * l..(t + 1) * l]);
    }
    em
}

/// Max-sum Viterbi over flat emissions `em` (`n·l`, see [`emissions`]):
/// `delta[t][y] = max_p(delta[t−1][p] + trans(p, y)) + em[t][y]`, the
/// first maximising predecessor winning ties.
fn viterbi_flat(view: ParamsView<'_>, em: &[f64]) -> Vec<LabelId> {
    let l = view.n_labels;
    if em.is_empty() {
        return Vec::new();
    }
    let n = em.len() / l;
    // Rows `t − 1` and `t` of delta; `back[t*l + y]` is the best
    // predecessor of `y` at `t`.
    let mut prev: Vec<f64> = (0..l).map(|y| view.start(y) + em[y]).collect();
    let mut cur = vec![0.0; l];
    let mut back = vec![0; n * l];
    for t in 1..n {
        for y in 0..l {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0;
            for p in 0..l {
                let s = prev[p] + view.transition(p, y);
                if s > best {
                    best = s;
                    arg = p;
                }
            }
            cur[y] = best + em[t * l + y];
            back[t * l + y] = arg;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let mut last = 0;
    let mut best = f64::NEG_INFINITY;
    for y in 0..l {
        let s = prev[y] + view.end(y);
        if s > best {
            best = s;
            last = y;
        }
    }
    let mut out = vec![0; n];
    let mut cur = last;
    for t in (0..n).rev() {
        out[t] = cur;
        cur = back[t * l + cur];
    }
    out
}

/// Posterior of each decoded label by a scaled exp-space
/// forward–backward, CRFsuite's `crf1d` scheme: the transitions are
/// exponentiated once, each position's emissions become
/// `exp(em − row max)` (in place: `em` is consumed), α is normalised
/// to sum 1 at every position and β is divided by the same factors.
/// The confidence is then `α̂[t][ŷ]·β̂[t][ŷ] / z` with
/// `z = Σ_y α̂[n−1][y]·exp(end[y])`.
///
/// Returns `None` when a scale sum or `z` is not a normal float (0,
/// subnormal, infinite or NaN) or a confidence is not finite: weights
/// that exp space cannot represent, such as transitions at or below
/// −745, whose exponentials underflow to 0.
fn scaled_confidence(view: ParamsView<'_>, em: &mut [f64], labels: &[LabelId]) -> Option<Vec<f64>> {
    let l = view.n_labels;
    let n = labels.len();
    let trans: Vec<f64> = view.params[view.trans_offset()..view.start_offset()]
        .iter()
        .map(|w| w.exp())
        .collect();
    for row in em.chunks_exact_mut(l) {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for e in row {
            *e = (*e - max).exp();
        }
    }
    // α̂ is kept one row at a time: the decoded label's entry goes to
    // `confidence`, the row's scale factor (as its inverse) to
    // `inv_scale` for the backward pass.
    let mut confidence = vec![0.0; n];
    let mut inv_scale = vec![0.0; n];
    let mut alpha: Vec<f64> = (0..l).map(|y| view.start(y).exp() * em[y]).collect();
    let mut next = vec![0.0; l];
    for t in 0..n {
        if t > 0 {
            next.fill(0.0);
            for (p, &a) in alpha.iter().enumerate() {
                for (x, &w) in next.iter_mut().zip(&trans[p * l..(p + 1) * l]) {
                    *x += a * w;
                }
            }
            for (x, &e) in next.iter_mut().zip(&em[t * l..(t + 1) * l]) {
                *x *= e;
            }
            std::mem::swap(&mut alpha, &mut next);
        }
        let sum: f64 = alpha.iter().sum();
        if !sum.is_normal() {
            return None;
        }
        inv_scale[t] = 1.0 / sum;
        for a in &mut alpha {
            *a *= inv_scale[t];
        }
        confidence[t] = alpha[labels[t]];
    }
    let mut beta: Vec<f64> = (0..l).map(|y| view.end(y).exp()).collect();
    let z = dot(&alpha, &beta);
    if !z.is_normal() {
        return None;
    }
    let inv_z = 1.0 / z;
    confidence[n - 1] *= beta[labels[n - 1]] * inv_z;
    for t in (0..n - 1).rev() {
        // β̂[t][y] = Σ_q T[y][q]·E[t+1][q]·β̂[t+1][q] / c[t+1]
        for ((w, &b), &e) in next
            .iter_mut()
            .zip(&beta)
            .zip(&em[(t + 1) * l..(t + 2) * l])
        {
            *w = b * e;
        }
        for (y, b) in beta.iter_mut().enumerate() {
            *b = dot(&trans[y * l..(y + 1) * l], &next) * inv_scale[t + 1];
        }
        confidence[t] *= beta[labels[t]] * inv_z;
    }
    confidence
        .iter()
        .all(|c| c.is_finite())
        .then_some(confidence)
}

/// Viterbi decoding plus per-token posterior confidence: the decoded
/// label sequence and, for each position `t`, the forward–backward
/// marginal `P(y_t = ŷ_t | x)` of the decoded label.
///
/// The labels are exactly [`viterbi`]'s output; the confidences are a
/// read-only overlay, so scoring a decode can never change it. Both
/// come from one emission pass: Viterbi runs on it in log space, the
/// overlay in scaled exp space (see [`scaled_confidence`]). When exp
/// space cannot represent the model's weights the overlay falls back
/// to the log-space [`forward`] and [`backward`]
/// (`exp(alpha[t][ŷ] + beta[t][ŷ] − log Z)`) and counts
/// `crf.scaled.fallback`. A confidence near 1 means the whole posterior
/// mass agrees with the Viterbi path at that token; values near
/// `1/n_labels` flag tokens the model was guessing on.
pub fn viterbi_with_confidence<S: FeatureSeq + ?Sized>(
    model: &CrfModel,
    features: &S,
) -> (Vec<LabelId>, Vec<f64>) {
    let view = model.view();
    let mut em = emissions(view, features);
    let labels = viterbi_flat(view, &em);
    if labels.is_empty() {
        return (labels, Vec::new());
    }
    let confidence = scaled_confidence(view, &mut em, &labels).unwrap_or_else(|| {
        pae_obs::counter_add("crf.scaled.fallback", &[], 1);
        let fwd = forward(model, features);
        let beta = backward(model, &fwd.emissions);
        labels
            .iter()
            .enumerate()
            .map(|(t, &y)| (fwd.alpha[t][y] + beta[t][y] - fwd.log_z).exp())
            .collect()
    });
    (labels, confidence)
}

/// Viterbi decoding: most probable label sequence.
pub fn viterbi<S: FeatureSeq + ?Sized>(model: &CrfModel, features: &S) -> Vec<LabelId> {
    let view = model.view();
    viterbi_flat(view, &emissions(view, features))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{CsrInstances, FeatId, Instance};
    use proptest::prelude::*;

    /// Model with 2 labels / 2 features and hand-set weights.
    fn toy_model() -> CrfModel {
        let mut m = CrfModel::new(2, 2);
        m.params[0] = 2.0; // f0 -> label 0
        m.params[3] = 2.0; // f1 -> label 1
        let t = m.trans_offset();
        m.params[t + 1] = 0.5; // 0 -> 1 preferred
        m
    }

    /// Brute-force log Z by enumerating all labellings.
    fn brute_log_z(m: &CrfModel, feats: &[Vec<FeatId>]) -> f64 {
        let n = feats.len();
        let l = m.n_labels;
        let mut scores = Vec::new();
        let total = l.pow(n as u32);
        for mut code in 0..total {
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(code % l);
                code /= l;
            }
            scores.push(m.sequence_score(feats, &labels));
        }
        crate::numeric::log_sum_exp(&scores)
    }

    #[test]
    fn forward_log_z_matches_brute_force() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![0, 1]];
        let fwd = forward(&m, &feats);
        let brute = brute_log_z(&m, &feats);
        assert!(
            (fwd.log_z - brute).abs() < 1e-10,
            "{} vs {brute}",
            fwd.log_z
        );
    }

    #[test]
    fn node_marginals_sum_to_one() {
        let m = toy_model();
        let feats = vec![vec![0], vec![], vec![1]];
        let marg = marginals(&m, &feats);
        for t in 0..feats.len() {
            let s: f64 = marg.node[t].iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn edge_marginals_are_consistent_with_nodes() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![]];
        let marg = marginals(&m, &feats);
        // Sum over p of edge[t-1][p][q] equals node[t][q].
        for t in 1..feats.len() {
            for q in 0..2 {
                let s: f64 = (0..2).map(|p| marg.edge[t - 1][p][q]).sum();
                assert!((s - marg.node[t][q]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn marginals_into_is_bitwise_identical_to_nested() {
        let m = toy_model();
        let instances = vec![
            Instance {
                features: vec![vec![0], vec![1], vec![0, 1], vec![]],
                labels: vec![0, 1, 0, 1],
            },
            Instance {
                features: vec![vec![1]],
                labels: vec![1],
            },
        ];
        let csr = CsrInstances::pack(&instances);
        let mut scratch = MargScratch::default();
        for (s, inst) in instances.iter().enumerate() {
            let nested = marginals(&m, &inst.features);
            // Reuse the same scratch across sequences of different
            // lengths — exactly the training access pattern.
            marginals_into(m.view(), &csr.seq(s), &mut scratch);
            assert_eq!(nested.log_z.to_bits(), scratch.log_z.to_bits());
            let l = m.n_labels;
            for t in 0..inst.len() {
                for y in 0..l {
                    assert_eq!(
                        nested.node[t][y].to_bits(),
                        scratch.node[t * l + y].to_bits(),
                        "node[{t}][{y}] of seq {s}"
                    );
                }
            }
            for t in 1..inst.len() {
                for p in 0..l {
                    for q in 0..l {
                        assert_eq!(
                            nested.edge[t - 1][p][q].to_bits(),
                            scratch.edge[(t - 1) * l * l + p * l + q].to_bits(),
                            "edge[{}][{p}][{q}] of seq {s}",
                            t - 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn viterbi_matches_brute_force_argmax() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![0]];
        let got = viterbi(&m, &feats);

        let n = feats.len();
        let mut best_labels = vec![0; n];
        let mut best = f64::NEG_INFINITY;
        for code in 0..(2usize.pow(n as u32)) {
            let labels: Vec<usize> = (0..n).map(|i| (code >> i) & 1).collect();
            let s = m.sequence_score(&feats, &labels);
            if s > best {
                best = s;
                best_labels = labels;
            }
        }
        assert_eq!(got, best_labels);
    }

    #[test]
    fn decode_confidence_is_the_posterior_of_the_decoded_label() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![0]];
        let (labels, confidence) = viterbi_with_confidence(&m, &feats);
        assert_eq!(labels, viterbi(&m, &feats), "decode unchanged by scoring");
        assert_eq!(confidence.len(), labels.len());
        let marg = marginals(&m, &feats);
        for (t, (&y, &c)) in labels.iter().zip(&confidence).enumerate() {
            assert!(c > 0.0 && c <= 1.0 + 1e-12, "conf[{t}] = {c}");
            assert!(
                (c - marg.node[t][y]).abs() < 1e-12,
                "conf[{t}] = {c} vs marginal {}",
                marg.node[t][y]
            );
        }
        let (empty_labels, empty_conf) = viterbi_with_confidence(&m, &[] as &[Vec<FeatId>]);
        assert!(empty_labels.is_empty() && empty_conf.is_empty());
    }

    #[test]
    fn empty_sequence_inference() {
        let m = toy_model();
        assert!(viterbi(&m, &[] as &[Vec<FeatId>]).is_empty());
        assert_eq!(forward(&m, &[] as &[Vec<FeatId>]).log_z, 0.0);
        let marg = marginals(&m, &[] as &[Vec<FeatId>]);
        assert!(marg.node.is_empty() && marg.edge.is_empty());
        let mut scratch = MargScratch::default();
        marginals_into(m.view(), &[] as &[Vec<FeatId>], &mut scratch);
        assert_eq!(scratch.log_z, 0.0);
    }

    /// Strategy: a model with a label count in `labels` and every
    /// weight in ±20, and a sequence of a length in `len` with up to
    /// two active features per position.
    fn random_model(
        labels: std::ops::RangeInclusive<usize>,
        len: std::ops::RangeInclusive<usize>,
    ) -> impl Strategy<Value = (CrfModel, Vec<Vec<FeatId>>)> {
        const N_FEATURES: usize = 6;
        (labels, len).prop_flat_map(|(l, n)| {
            let params =
                proptest::collection::vec(-20.0..20.0f64, CrfModel::param_len(N_FEATURES, l));
            let feats = proptest::collection::vec(
                proptest::collection::vec(0..N_FEATURES as FeatId, 0..3),
                n,
            );
            (params, feats).prop_map(move |(params, feats)| {
                let model = CrfModel {
                    n_labels: l,
                    n_features: N_FEATURES,
                    params,
                };
                (model, feats)
            })
        })
    }

    /// The labelling with the highest sequence score, by enumeration.
    fn brute_argmax(m: &CrfModel, feats: &[Vec<FeatId>]) -> (Vec<LabelId>, f64) {
        let n = feats.len();
        let l = m.n_labels;
        let mut best = (Vec::new(), f64::NEG_INFINITY);
        for mut code in 0..l.pow(n as u32) {
            let labels: Vec<LabelId> = (0..n)
                .map(|_| {
                    let y = code % l;
                    code /= l;
                    y
                })
                .collect();
            let s = m.sequence_score(feats, &labels);
            if s > best.1 {
                best = (labels, s);
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The exp-space overlay is the log-space marginal of the
        /// decoded label, and scoring leaves the decode as it was.
        #[test]
        fn scaled_confidence_matches_log_space_marginals(
            (m, feats) in (0..2u8).prop_flat_map(|small| if small == 1 {
                random_model(2..=3, 1..=6)
            } else {
                random_model(2..=13, 1..=60)
            }),
        ) {
            let labels = viterbi(&m, &feats);
            let mut em = emissions(m.view(), &feats);
            let scaled = scaled_confidence(m.view(), &mut em, &labels);
            prop_assert!(scaled.is_some(), "±20 weights stay inside exp range");
            let (decoded, confidence) = viterbi_with_confidence(&m, &feats);
            prop_assert_eq!(&decoded, &labels);
            prop_assert_eq!(Some(&confidence), scaled.as_ref());
            // The log-space oracle rounds at the magnitude of its
            // alphas, so its own error grows with n·|log Z|: at ±20
            // weights and n near 60, |log Z| reaches ~1,500 and the
            // oracle is off by up to ~2e-12 while the exp-space value
            // stays within ~3e-15 of a 60-digit reference.
            let marg = marginals(&m, &feats);
            let tol = 1e-12 + feats.len() as f64 * marg.log_z.abs() * f64::EPSILON;
            for (t, (&y, &c)) in labels.iter().zip(&confidence).enumerate() {
                prop_assert!(
                    (c - marg.node[t][y]).abs() < tol,
                    "conf[{}] = {} vs marginal {} (tolerance {:e})", t, c, marg.node[t][y], tol
                );
            }
            if feats.len() <= 6 && m.n_labels <= 3 {
                let (best_labels, best) = brute_argmax(&m, &feats);
                let score = m.sequence_score(&feats, &labels);
                prop_assert!(
                    labels == best_labels || (score - best).abs() < 1e-9,
                    "viterbi {:?} ({}) vs brute force {:?} ({})", labels, score, best_labels, best
                );
            }
        }
    }

    /// The `crf.scaled.fallback` count so far.
    fn fallback_count() -> u64 {
        pae_obs::metrics_snapshot()
            .into_iter()
            .find(|(k, _)| k.name == "crf.scaled.fallback")
            .map_or(0, |(_, v)| match v {
                pae_obs::MetricValue::Counter(c) => c,
                _ => 0,
            })
    }

    #[test]
    fn underflowing_transitions_fall_back_to_log_space() {
        // exp(−1000) is 0 in f64: every exp-space path has weight 0.
        let mut m = toy_model();
        let t = m.trans_offset();
        m.params[t..t + 4].fill(-1000.0);
        let feats = vec![vec![0], vec![1], vec![0, 1], vec![]];
        let labels = viterbi(&m, &feats);
        let mut em = emissions(m.view(), &feats);
        assert!(scaled_confidence(m.view(), &mut em, &labels).is_none());

        let was_enabled = pae_obs::enabled();
        pae_obs::set_enabled(true);
        let before = fallback_count();
        let (decoded, confidence) = viterbi_with_confidence(&m, &feats);
        let after = fallback_count();
        pae_obs::set_enabled(was_enabled);

        assert_eq!(decoded, labels);
        assert!(after > before, "fallback counted: {before} -> {after}");
        let marg = marginals(&m, &feats);
        for (t, (&y, &c)) in labels.iter().zip(&confidence).enumerate() {
            assert!(c.is_finite() && c > 0.0, "conf[{t}] = {c}");
            assert_eq!(c.to_bits(), marg.node[t][y].to_bits(), "conf[{t}]");
        }
    }

    #[test]
    fn transitions_influence_decode() {
        // Emissions are ambiguous; transitions must decide.
        let mut m = CrfModel::new(1, 2);
        let t = m.trans_offset();
        m.params[t] = -1.0; // discourage 0->0
        m.params[t + 1] = 1.0; // encourage 0->1
        m.params[t + 2] = 1.0; // encourage 1->0
        m.params[t + 3] = -1.0;
        let s = m.start_offset();
        m.params[s] = 0.1; // start at 0
        let feats = vec![vec![], vec![], vec![], vec![]];
        assert_eq!(viterbi(&m, &feats), vec![0, 1, 0, 1]);
    }
}
