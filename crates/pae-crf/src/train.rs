//! Training: negative log-likelihood objective and the `train` entry point.
//!
//! The hot path is [`TrainEngine`]: a CSR-packed, scratch-reusing,
//! sparsity-aware gradient evaluator that the optimizer calls a few
//! hundred times per training run. The engine allocates everything it
//! needs once, at construction; steady-state evaluations perform no
//! heap allocation. The nested-layout free function [`nll_and_grad`]
//! is kept as the reference implementation the engine is tested
//! against (bitwise).

#![allow(clippy::needless_range_loop)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::data::{CsrInstances, CsrSeq, FeatId, Instance};
use crate::inference::{forward_into, marginals, MargScratch};
use crate::lbfgs::{minimize, LbfgsConfig, Objective};
use crate::model::{CrfModel, ParamsView};
use crate::owlqn::minimize_l1;

/// Training configuration.
///
/// The defaults mirror the paper's setup: *"CRF with limited-memory
/// BFGS training algorithm with L1+L2 regularization, the default
/// configuration"* (CRFsuite's `lbfgs` trainer).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// L1 coefficient (`c1`). When positive, training uses OWL-QN.
    pub l1: f64,
    /// L2 coefficient (`c2`): value term `0.5 · l2 · ‖w‖²`.
    pub l2: f64,
    /// Maximum optimizer iterations.
    pub max_iters: usize,
    /// Relative gradient-norm convergence threshold.
    pub epsilon: f64,
    /// Exempt transition/start/end weights from the L1 penalty, keeping
    /// the label chain dense (observation features stay sparse).
    pub dense_transitions: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            l1: 0.1,
            l2: 0.1,
            max_iters: 100,
            epsilon: 1e-4,
            dense_transitions: false,
        }
    }
}

/// Fixed chunk count for the gradient reduction. A constant (never the
/// thread count) so the partition — and therefore the floating-point
/// summation order — is identical at any `PAE_JOBS` value.
const GRAD_CHUNKS: usize = 16;

/// Computes the total negative log-likelihood of `instances` under the
/// parameters in `model`, filling `grad` (which must be zeroed by the
/// caller) with its gradient. Regularization is *not* included.
///
/// Reference implementation over the nested layout; training goes
/// through [`TrainEngine`], which is tested bitwise against this.
pub fn nll_and_grad(model: &CrfModel, instances: &[Instance], grad: &mut [f64]) -> f64 {
    debug_assert_eq!(grad.len(), model.params.len());
    let dim = grad.len();
    let partials = pae_runtime::parallel_chunk_map(instances, GRAD_CHUNKS, |chunk| {
        let mut part = vec![0.0; dim];
        let mut nll = 0.0;
        for inst in chunk {
            nll += instance_nll_and_grad(model, inst, &mut part);
        }
        (nll, part)
    });
    let mut nll = 0.0;
    for (part_nll, part_grad) in partials {
        nll += part_nll;
        for (g, p) in grad.iter_mut().zip(&part_grad) {
            *g += p;
        }
    }
    nll
}

/// One instance's NLL contribution, accumulated into `grad`.
fn instance_nll_and_grad(model: &CrfModel, inst: &Instance, grad: &mut [f64]) -> f64 {
    let l = model.n_labels;
    let trans_off = model.trans_offset();
    let start_off = model.start_offset();
    let end_off = model.end_offset();
    if inst.is_empty() {
        return 0.0;
    }
    let marg = marginals(model, &inst.features);
    let gold_score = model.sequence_score(&inst.features, &inst.labels);
    let nll = marg.log_z - gold_score;

    let n = inst.len();
    // Empirical counts: subtract.
    for (t, feats) in inst.features.iter().enumerate() {
        let y = inst.labels[t];
        for &f in feats {
            grad[f as usize * l + y] -= 1.0;
        }
    }
    grad[start_off + inst.labels[0]] -= 1.0;
    grad[end_off + inst.labels[n - 1]] -= 1.0;
    for t in 1..n {
        grad[trans_off + inst.labels[t - 1] * l + inst.labels[t]] -= 1.0;
    }

    // Expected counts: add.
    for (t, feats) in inst.features.iter().enumerate() {
        for &f in feats {
            let base = f as usize * l;
            for y in 0..l {
                grad[base + y] += marg.node[t][y];
            }
        }
    }
    for y in 0..l {
        grad[start_off + y] += marg.node[0][y];
        grad[end_off + y] += marg.node[n - 1][y];
    }
    for t in 1..n {
        let e = &marg.edge[t - 1];
        for p in 0..l {
            let row = trans_off + p * l;
            for q in 0..l {
                grad[row + q] += e[p][q];
            }
        }
    }
    nll
}

/// Flat-layout gradient accumulation (same arithmetic in the same
/// order as [`instance_nll_and_grad`]): empirical counts subtracted,
/// expected counts added, from marginals already present in `marg` —
/// which the value/completion protocol of [`TrainEngine`] finishes
/// from a cached forward pass.
fn accumulate_instance_grad(
    view: ParamsView<'_>,
    seq: &CsrSeq<'_>,
    marg: &MargScratch,
    grad: &mut [f64],
) {
    let l = view.n_labels;
    let trans_off = view.trans_offset();
    let start_off = view.start_offset();
    let end_off = view.end_offset();
    let n = seq.len();
    // Empirical counts: subtract.
    for (t, &y) in seq.labels.iter().enumerate() {
        for &f in seq.feats(t) {
            grad[f as usize * l + y] -= 1.0;
        }
    }
    grad[start_off + seq.labels[0]] -= 1.0;
    grad[end_off + seq.labels[n - 1]] -= 1.0;
    for t in 1..n {
        grad[trans_off + seq.labels[t - 1] * l + seq.labels[t]] -= 1.0;
    }

    // Expected counts: add.
    for t in 0..n {
        for &f in seq.feats(t) {
            let base = f as usize * l;
            for y in 0..l {
                grad[base + y] += marg.node[t * l + y];
            }
        }
    }
    for y in 0..l {
        grad[start_off + y] += marg.node[y];
        grad[end_off + y] += marg.node[(n - 1) * l + y];
    }
    for t in 1..n {
        let e = &marg.edge[(t - 1) * l * l..t * l * l];
        for p in 0..l {
            let row = trans_off + p * l;
            for q in 0..l {
                grad[row + q] += e[p * l + q];
            }
        }
    }
}

/// Per-chunk reusable state: the partial-gradient buffer and the
/// forward-backward workspace, both retained across every objective
/// evaluation of a training run — plus the forward-pass cache that
/// carries `em`/`alpha`/`log Z` for every sequence of the chunk from
/// a [`TrainEngine::nll_value`] call to the matching
/// [`TrainEngine::complete_grad`].
#[derive(Default)]
struct ChunkScratch {
    part: Vec<f64>,
    marg: MargScratch,
    /// Emission scores of all chunk positions (`(pos - base)·l + y`).
    fwd_em: Vec<f64>,
    /// Forward variables, same indexing as `fwd_em`.
    fwd_alpha: Vec<f64>,
    /// `log Z` per chunk-local sequence.
    log_z: Vec<f64>,
    /// `l`-sized reduction buffer for the forward recursion.
    tmp: Vec<f64>,
}

/// Allocation-free, sparsity-aware NLL + gradient evaluator.
///
/// Construction packs the instances into CSR, fixes the 16-chunk
/// partition, and precomputes per chunk the set of observation-feature
/// rows its instances touch — a property of the *data*, so it is
/// constant across all optimizer iterations. Evaluations then:
///
/// 1. map chunks on the worker pool, each reusing its [`ChunkScratch`]
///    slot (zeroing only its own touched rows + the dense
///    transition/start/end suffix);
/// 2. fold partials into `grad` sequentially in chunk order, visiting
///    only touched rows — the first chunk to touch a row assigns, the
///    rest add, which is bitwise-identical to the reference
///    [`nll_and_grad`]'s dense `0.0 + p₀ + p₁ + …` fold because
///    partials are never `-0.0` (they start at `+0.0` and accumulate
///    sums that cannot round to a negative zero).
///
/// Gradient coordinates for feature rows no chunk touches are zeroed
/// once (first call) and never written again; callers layering
/// regularization on top must keep them at exactly zero (the `l2·w`
/// term does: those weights start at zero and, with zero gradient,
/// stay there under both L-BFGS and OWL-QN).
pub struct TrainEngine {
    csr: CsrInstances,
    n_features: usize,
    n_labels: usize,
    dim: usize,
    trans_offset: usize,
    chunks: Vec<std::ops::Range<usize>>,
    /// Per chunk: touched observation-feature rows in ascending order,
    /// flagged `true` when this chunk is the first (in chunk order) to
    /// touch the row.
    chunk_rows: Vec<Vec<(FeatId, bool)>>,
    scratch: pae_runtime::Scratch<ChunkScratch>,
    zeroed_once: AtomicBool,
}

impl TrainEngine {
    /// Builds an engine over `instances`.
    pub fn new(instances: &[Instance], n_features: usize, n_labels: usize) -> Self {
        let csr = CsrInstances::pack(instances);
        let chunks = pae_runtime::chunk_ranges(csr.len(), GRAD_CHUNKS);
        let mut chunk_rows = Vec::with_capacity(chunks.len());
        let mut in_chunk = vec![false; n_features];
        let mut seen = vec![false; n_features];
        for range in &chunks {
            for s in range.clone() {
                let seq = csr.seq(s);
                for t in 0..seq.len() {
                    for &f in seq.feats(t) {
                        in_chunk[f as usize] = true;
                    }
                }
            }
            let mut rows = Vec::new();
            for (f, flag) in in_chunk.iter_mut().enumerate() {
                if *flag {
                    *flag = false;
                    rows.push((f as FeatId, !seen[f]));
                    seen[f] = true;
                }
            }
            chunk_rows.push(rows);
        }
        let scratch = pae_runtime::Scratch::new(chunks.len());
        TrainEngine {
            csr,
            n_features,
            n_labels,
            dim: CrfModel::param_len(n_features, n_labels),
            trans_offset: n_features * n_labels,
            chunks,
            chunk_rows,
            scratch,
            zeroed_once: AtomicBool::new(false),
        }
    }

    /// Total parameter count of the model being trained.
    pub fn n_params(&self) -> usize {
        self.dim
    }

    /// NLL of the training set at `params`, writing the gradient into
    /// `grad` (fully managed by the engine — callers need not zero it).
    /// Regularization is *not* included. Composes [`Self::nll_value`] +
    /// [`Self::complete_grad`], the engine's only gradient
    /// implementation.
    pub fn nll_and_grad(&self, params: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(params.len(), self.dim);
        debug_assert_eq!(grad.len(), self.dim);
        if self.chunks.is_empty() {
            grad.fill(0.0);
            return 0.0;
        }
        let nll = self.nll_value(params);
        self.complete_grad(params, grad);
        nll
    }

    /// NLL of the training set at `params`, *without* the gradient:
    /// one forward pass per sequence, cached (`em`/`alpha`/`log Z`)
    /// in the per-chunk scratch so a subsequent [`Self::complete_grad`]
    /// at the same `params` finishes backward + accumulation without
    /// re-running forward. This is what makes rejected line-search
    /// trials cheap: their gradients were always discarded, and now
    /// their backward passes are never run.
    pub fn nll_value(&self, params: &[f64]) -> f64 {
        debug_assert_eq!(params.len(), self.dim);
        let view = ParamsView::new(params, self.n_features, self.n_labels);
        if self.chunks.is_empty() {
            return 0.0;
        }
        let l = self.n_labels;
        let (csr, scratch) = (&self.csr, &self.scratch);
        let nlls = pae_runtime::parallel_map(&self.chunks, |ci, range| {
            scratch.with(ci, ChunkScratch::default, |sc| {
                let Some(first) = range.clone().next() else {
                    return 0.0;
                };
                let base = csr.seq_positions(first).start;
                let span = csr.seq_positions(range.end - 1).end - base;
                if sc.fwd_em.len() < span * l {
                    sc.fwd_em.resize(span * l, 0.0);
                    sc.fwd_alpha.resize(span * l, 0.0);
                }
                if sc.log_z.len() < range.len() {
                    sc.log_z.resize(range.len(), 0.0);
                }
                if sc.tmp.len() < l {
                    sc.tmp.resize(l, 0.0);
                }
                let mut nll = 0.0;
                for (i, s) in range.clone().enumerate() {
                    let seq = csr.seq(s);
                    if seq.is_empty() {
                        sc.log_z[i] = 0.0;
                        continue;
                    }
                    let off = (csr.seq_positions(s).start - base) * l;
                    let len = seq.len() * l;
                    let lz = forward_into(
                        view,
                        &seq,
                        &mut sc.fwd_em[off..off + len],
                        &mut sc.fwd_alpha[off..off + len],
                        &mut sc.tmp,
                    );
                    sc.log_z[i] = lz;
                    nll += lz - view.sequence_score(&seq, seq.labels);
                }
                nll
            })
        });
        // Same in-chunk-order value fold as the combined evaluation.
        let mut nll = 0.0;
        for part_nll in nlls {
            nll += part_nll;
        }
        nll
    }

    /// Gradient completion for the latest [`Self::nll_value`] call:
    /// backward + marginals from the cached forward quantities, then
    /// the sparse accumulation/fold. `params` must be the vector the
    /// value was computed at, or the marginals are inconsistent.
    pub fn complete_grad(&self, params: &[f64], grad: &mut [f64]) {
        debug_assert_eq!(params.len(), self.dim);
        debug_assert_eq!(grad.len(), self.dim);
        let view = ParamsView::new(params, self.n_features, self.n_labels);
        if self.chunks.is_empty() {
            grad.fill(0.0);
            return;
        }
        if !self.zeroed_once.swap(true, Ordering::Relaxed) {
            // Rows no chunk touches are never written by the fold
            // below; zero them once so they read as exactly 0.0 on
            // every call.
            grad.fill(0.0);
        }
        let l = self.n_labels;
        let trans_offset = self.trans_offset;
        let (csr, chunk_rows, scratch) = (&self.csr, &self.chunk_rows, &self.scratch);
        let dim = self.dim;
        pae_runtime::parallel_map(&self.chunks, |ci, range| {
            scratch.with(ci, ChunkScratch::default, |sc| {
                let ChunkScratch {
                    part,
                    marg,
                    fwd_em,
                    fwd_alpha,
                    log_z,
                    ..
                } = sc;
                if part.len() != dim {
                    *part = vec![0.0; dim];
                } else {
                    // Steady state: zero only what this chunk writes.
                    for &(row, _) in &chunk_rows[ci] {
                        let o = row as usize * l;
                        part[o..o + l].fill(0.0);
                    }
                    part[trans_offset..].fill(0.0);
                }
                let Some(first) = range.clone().next() else {
                    return;
                };
                let base = csr.seq_positions(first).start;
                for (i, s) in range.clone().enumerate() {
                    let seq = csr.seq(s);
                    if seq.is_empty() {
                        continue;
                    }
                    let off = (csr.seq_positions(s).start - base) * l;
                    let len = seq.len() * l;
                    marg.finish(
                        view,
                        seq.len(),
                        &fwd_em[off..off + len],
                        &fwd_alpha[off..off + len],
                        log_z[i],
                    );
                    accumulate_instance_grad(view, &seq, marg, part);
                }
            })
        });
        // Sequential fold in fixed chunk order: assign on first touch,
        // add thereafter.
        for ci in 0..self.chunks.len() {
            self.scratch.with(ci, ChunkScratch::default, |sc| {
                for &(row, first) in &self.chunk_rows[ci] {
                    let o = row as usize * l;
                    let src = &sc.part[o..o + l];
                    let dst = &mut grad[o..o + l];
                    if first {
                        dst.copy_from_slice(src);
                    } else {
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                }
                let src = &sc.part[trans_offset..];
                let dst = &mut grad[trans_offset..];
                if ci == 0 {
                    dst.copy_from_slice(src);
                } else {
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            });
        }
    }
}

/// Wall-clock accounting of a training run (telemetry only — never
/// feeds back into results).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainStats {
    /// Optimizer iterations performed.
    pub iterations: usize,
    /// Whether the gradient-norm criterion was met.
    pub converged: bool,
    /// Final objective value.
    pub final_value: f64,
    /// Total time in objective/gradient evaluations ([`TrainEngine`] +
    /// regularization terms).
    pub grad_time: Duration,
    /// Number of objective evaluations.
    pub grad_calls: usize,
    /// Total time inside the optimizer's backtracking line searches
    /// (includes the gradient evaluations made there).
    pub line_search_time: Duration,
}

/// Trains a CRF on `instances`.
///
/// `n_features` and `n_labels` fix the parameter dimensions (obtain
/// them from the [`crate::features::FeatureIndex`] and the label set).
pub fn train(
    instances: &[Instance],
    n_features: usize,
    n_labels: usize,
    config: &TrainConfig,
) -> CrfModel {
    train_with_stats(instances, n_features, n_labels, config).0
}

/// The smooth CRF training objective (`NLL + 0.5·l2·‖w‖²`) as a
/// split-protocol [`Objective`]: `value` runs the forward-only
/// evaluation; `grad` completes it.
/// `grad_calls` counts objective evaluations (`value` calls);
/// `grad_ns` accumulates wall time across both halves.
struct CrfObjective<'a> {
    engine: &'a TrainEngine,
    l2: f64,
    grad_ns: &'a Cell<u64>,
    grad_calls: &'a Cell<usize>,
}

impl Objective for CrfObjective<'_> {
    fn value(&mut self, x: &[f64]) -> f64 {
        let t0 = Instant::now();
        let mut value = self.engine.nll_value(x);
        if self.l2 > 0.0 {
            value += 0.5 * self.l2 * x.iter().map(|w| w * w).sum::<f64>();
        }
        self.grad_ns
            .set(self.grad_ns.get() + t0.elapsed().as_nanos() as u64);
        self.grad_calls.set(self.grad_calls.get() + 1);
        value
    }

    fn grad(&mut self, x: &[f64], grad: &mut [f64]) {
        let t0 = Instant::now();
        self.engine.complete_grad(x, grad);
        if self.l2 > 0.0 {
            for (g, &w) in grad.iter_mut().zip(x) {
                *g += self.l2 * w;
            }
        }
        self.grad_ns
            .set(self.grad_ns.get() + t0.elapsed().as_nanos() as u64);
    }
}

/// [`train`], additionally returning sub-stage timing stats. Emits
/// `crf.grad` / `crf.line_search` aggregate spans when tracing is on.
pub fn train_with_stats(
    instances: &[Instance],
    n_features: usize,
    n_labels: usize,
    config: &TrainConfig,
) -> (CrfModel, TrainStats) {
    for inst in instances {
        inst.validate(n_labels).expect("invalid training instance");
    }
    let mut model = CrfModel::new(n_features, n_labels);
    let dim = model.params.len();
    let l2 = config.l2;

    let lbfgs_cfg = LbfgsConfig {
        max_iters: config.max_iters,
        epsilon: config.epsilon,
        ..Default::default()
    };

    let engine = TrainEngine::new(instances, n_features, n_labels);
    let grad_ns = Cell::new(0u64);
    let grad_calls = Cell::new(0usize);

    // Smooth objective: NLL + 0.5·l2·‖w‖², split into value /
    // gradient-completion so rejected line-search trials never pay for
    // backward passes or accumulation.
    let objective = CrfObjective {
        engine: &engine,
        l2,
        grad_ns: &grad_ns,
        grad_calls: &grad_calls,
    };

    let x0 = vec![0.0; dim];
    let result = if config.l1 > 0.0 {
        if config.dense_transitions {
            // L1 applies to observation weights only; the transition /
            // start / end suffix stays unpenalized.
            minimize_l1_with_exempt_suffix(
                objective,
                x0,
                config.l1,
                model.trans_offset(),
                &lbfgs_cfg,
            )
        } else {
            minimize_l1(objective, x0, config.l1, 0, &lbfgs_cfg)
        }
    } else {
        minimize(objective, x0, &lbfgs_cfg)
    };

    let stats = TrainStats {
        iterations: result.iterations,
        converged: result.converged,
        final_value: result.value,
        grad_time: Duration::from_nanos(grad_ns.get()),
        grad_calls: grad_calls.get(),
        line_search_time: Duration::from_nanos(result.line_search_ns),
    };
    if pae_obs::enabled() {
        pae_obs::gauge_set("crf.lbfgs.iterations", &[], result.iterations as f64);
        pae_obs::gauge_set(
            "crf.lbfgs.converged",
            &[],
            if result.converged { 1.0 } else { 0.0 },
        );
        pae_obs::gauge_set("crf.lbfgs.final_nll", &[], result.value);
        // Aggregate sub-stage spans: one record pair per training run,
        // not per optimizer iteration.
        pae_obs::span_complete(
            "crf.grad",
            stats.grad_time,
            vec![("calls".into(), (stats.grad_calls as u64).into())],
        );
        pae_obs::span_complete("crf.line_search", stats.line_search_time, Vec::new());
    }
    model.params = result.x;
    (model, stats)
}

/// [`Objective`] adapter that presents a coordinate-permuted view of
/// an inner objective: permuted index `i` maps to original index
/// `to_orig(i)` (see [`minimize_l1_with_exempt_suffix`]).
struct PermutedObjective<F> {
    inner: F,
    exempt_from: usize,
    exempt_len: usize,
    buf_x: Vec<f64>,
    buf_g: Vec<f64>,
}

impl<F> PermutedObjective<F> {
    fn to_orig(&self, i: usize) -> usize {
        if i < self.exempt_len {
            self.exempt_from + i
        } else {
            i - self.exempt_len
        }
    }
}

impl<F: Objective> Objective for PermutedObjective<F> {
    fn value(&mut self, xp: &[f64]) -> f64 {
        for i in 0..xp.len() {
            let o = self.to_orig(i);
            self.buf_x[o] = xp[i];
        }
        self.inner.value(&self.buf_x)
    }

    fn grad(&mut self, xp: &[f64], gp: &mut [f64]) {
        for i in 0..xp.len() {
            let o = self.to_orig(i);
            self.buf_x[o] = xp[i];
        }
        self.inner.grad(&self.buf_x, &mut self.buf_g);
        for (i, g) in gp.iter_mut().enumerate() {
            *g = self.buf_g[self.to_orig(i)];
        }
    }
}

/// OWL-QN over a vector whose *suffix* `[exempt_from..]` is exempt from
/// the L1 penalty. Implemented by permuting coordinates so the exempt
/// block becomes a prefix, which is what [`minimize_l1`] supports.
fn minimize_l1_with_exempt_suffix<F: Objective>(
    f: F,
    x0: Vec<f64>,
    c: f64,
    exempt_from: usize,
    cfg: &LbfgsConfig,
) -> crate::lbfgs::LbfgsResult {
    let dim = x0.len();
    let exempt_len = dim - exempt_from;
    let wrapped = PermutedObjective {
        inner: f,
        exempt_from,
        exempt_len,
        buf_x: vec![0.0; dim],
        buf_g: vec![0.0; dim],
    };
    let mut x_perm = vec![0.0; dim];
    for (i, x) in x_perm.iter_mut().enumerate() {
        *x = x0[wrapped.to_orig(i)];
    }
    let mut res = minimize_l1(wrapped, x_perm, c, exempt_len, cfg);
    let mut x_out = vec![0.0; dim];
    for (i, &x) in res.x.iter().enumerate() {
        let orig = if i < exempt_len {
            exempt_from + i
        } else {
            i - exempt_len
        };
        x_out[orig] = x;
    }
    res.x = x_out;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Instance;

    /// Tiny separable task: feature 0 ⇒ label 1, feature 1 ⇒ label 0.
    /// All four label transitions occur so emissions dominate.
    fn toy_instances() -> Vec<Instance> {
        vec![
            Instance {
                features: vec![vec![0], vec![1], vec![0]],
                labels: vec![1, 0, 1],
            },
            Instance {
                features: vec![vec![1], vec![0]],
                labels: vec![0, 1],
            },
            Instance {
                features: vec![vec![1], vec![1], vec![0], vec![0]],
                labels: vec![0, 0, 1, 1],
            },
        ]
    }

    #[test]
    fn learns_separable_task() {
        let model = train(&toy_instances(), 2, 2, &TrainConfig::default());
        assert_eq!(model.viterbi(&[vec![0], vec![1], vec![1]]), vec![1, 0, 0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let instances = toy_instances();
        let n_features = 2;
        let n_labels = 2;
        let mut model = CrfModel::new(n_features, n_labels);
        // Non-trivial point.
        for (i, p) in model.params.iter_mut().enumerate() {
            *p = ((i as f64) * 0.37).sin() * 0.5;
        }
        let dim = model.params.len();
        let mut grad = vec![0.0; dim];
        let base_nll = nll_and_grad(&model, &instances, &mut grad);
        assert!(base_nll > 0.0);

        let eps = 1e-6;
        for i in 0..dim {
            let mut m2 = model.clone();
            m2.params[i] += eps;
            let mut scratch = vec![0.0; dim];
            let up = nll_and_grad(&m2, &instances, &mut scratch);
            m2.params[i] -= 2.0 * eps;
            scratch.fill(0.0);
            let down = nll_and_grad(&m2, &instances, &mut scratch);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-4,
                "param {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn engine_matches_reference_bitwise() {
        // Instances touching different feature subsets, so the sparse
        // fold actually exercises first-touch assignment, cross-chunk
        // accumulation, and untouched rows (feature 4 never fires).
        let instances = vec![
            Instance {
                features: vec![vec![0, 2], vec![1]],
                labels: vec![1, 0],
            },
            Instance {
                features: vec![vec![3], vec![0]],
                labels: vec![0, 1],
            },
            Instance {
                features: vec![],
                labels: vec![],
            },
            Instance {
                features: vec![vec![2, 3], vec![2], vec![1]],
                labels: vec![0, 0, 1],
            },
        ];
        let (n_features, n_labels) = (5, 2);
        let mut model = CrfModel::new(n_features, n_labels);
        for (i, p) in model.params.iter_mut().enumerate() {
            *p = ((i as f64) * 0.61).cos() * 0.3;
        }
        let dim = model.params.len();

        let mut reference = vec![0.0; dim];
        let ref_nll = nll_and_grad(&model, &instances, &mut reference);

        let engine = TrainEngine::new(&instances, n_features, n_labels);
        let mut grad = vec![f64::NAN; dim]; // engine must fully manage grad
                                            // Two calls: the second exercises the steady-state sparse
                                            // zeroing over retained scratch.
        for call in 0..2 {
            let nll = engine.nll_and_grad(&model.params, &mut grad);
            assert_eq!(nll.to_bits(), ref_nll.to_bits(), "nll (call {call})");
            for i in 0..dim {
                assert_eq!(
                    grad[i].to_bits(),
                    reference[i].to_bits(),
                    "grad[{i}] (call {call})"
                );
            }
        }
    }

    #[test]
    fn split_value_grad_matches_combined_after_rejected_trial() {
        // Optimizer calling convention: `nll_value` may run at several
        // trial points, but `complete_grad` is only invoked for the
        // *latest* one. Simulate a rejected trial at A followed by an
        // accepted point B and require the completed gradient (and the
        // value) to be bitwise equal to a fresh combined evaluation.
        let instances = toy_instances();
        let (n_features, n_labels) = (2, 2);
        let mut model = CrfModel::new(n_features, n_labels);
        let dim = model.params.len();
        let params_a: Vec<f64> = (0..dim).map(|i| ((i as f64) * 0.53).sin() * 0.4).collect();
        let params_b: Vec<f64> = (0..dim).map(|i| ((i as f64) * 0.29).cos() * 0.2).collect();

        model.params.copy_from_slice(&params_b);
        let mut reference = vec![0.0; dim];
        let ref_nll = nll_and_grad(&model, &instances, &mut reference);

        let engine = TrainEngine::new(&instances, n_features, n_labels);
        let _rejected = engine.nll_value(&params_a);
        let nll = engine.nll_value(&params_b);
        let mut grad = vec![f64::NAN; dim];
        engine.complete_grad(&params_b, &mut grad);

        assert_eq!(nll.to_bits(), ref_nll.to_bits(), "value at accepted point");
        for i in 0..dim {
            assert_eq!(grad[i].to_bits(), reference[i].to_bits(), "grad[{i}]");
        }
    }

    #[test]
    fn train_with_stats_reports_substage_times() {
        let (model, stats) = train_with_stats(&toy_instances(), 2, 2, &TrainConfig::default());
        assert_eq!(model.viterbi(&[vec![0]]), vec![1]);
        assert!(stats.grad_calls > 0);
        assert!(stats.grad_time.as_nanos() > 0);
        // The line search evaluates the objective, so it can never
        // account for more than the total gradient time plus overhead;
        // sanity-check it is populated and bounded.
        assert!(stats.line_search_time <= stats.grad_time + Duration::from_millis(100));
    }

    #[test]
    fn l1_training_produces_sparser_models() {
        // Add noise features that fire everywhere (uninformative).
        let mut instances = toy_instances();
        for inst in &mut instances {
            for feats in &mut inst.features {
                feats.push(2);
                feats.push(3);
            }
        }
        let dense = train(
            &instances,
            4,
            2,
            &TrainConfig {
                l1: 0.0,
                l2: 0.01,
                ..Default::default()
            },
        );
        let sparse = train(
            &instances,
            4,
            2,
            &TrainConfig {
                l1: 1.0,
                l2: 0.01,
                ..Default::default()
            },
        );
        assert!(
            sparse.active_params(1e-8) < dense.active_params(1e-8),
            "sparse {} !< dense {}",
            sparse.active_params(1e-8),
            dense.active_params(1e-8)
        );
        // Sparsity must not destroy the separable mapping.
        assert_eq!(sparse.viterbi(&[vec![0, 2, 3], vec![1, 2, 3]]), vec![1, 0]);
    }

    #[test]
    fn dense_transitions_flag_keeps_chain_weights() {
        // Noise features everywhere so L1 has something to kill.
        let mut instances = toy_instances();
        for inst in &mut instances {
            for feats in &mut inst.features {
                feats.extend([2, 3, 4, 5]);
            }
        }
        let cfg = TrainConfig {
            l1: 1.0,
            l2: 0.01,
            dense_transitions: true,
            ..Default::default()
        };
        let model = train(&instances, 6, 2, &cfg);
        let obs_end = model.trans_offset();
        let obs_zero = model.params[..obs_end]
            .iter()
            .filter(|p| p.abs() < 1e-10)
            .count();
        // L1 must have driven some observation weights to exact zero …
        assert!(obs_zero > 0, "no sparsity in observation block");
        // … while the exempt transition/start/end suffix stays dense.
        let suffix_nonzero = model.params[obs_end..]
            .iter()
            .filter(|p| p.abs() > 1e-10)
            .count();
        assert!(suffix_nonzero > 0, "transition block unexpectedly empty");
    }

    #[test]
    fn exempt_suffix_adapter_matches_expected_solution() {
        // min (x0 - 1)^2 + (x1 - 1)^2 with L1 c=1 on x0 only
        // (x1 exempt as the suffix): x0 = 0.5, x1 = 1.
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 1.0);
            g[1] = 2.0 * (x[1] - 1.0);
            (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2)
        };
        let res =
            minimize_l1_with_exempt_suffix(f, vec![0.0, 0.0], 1.0, 1, &LbfgsConfig::default());
        assert!((res.x[0] - 0.5).abs() < 1e-4, "{:?}", res.x);
        assert!((res.x[1] - 1.0).abs() < 1e-4, "{:?}", res.x);
    }

    #[test]
    fn empty_instance_is_skipped() {
        let mut instances = toy_instances();
        instances.push(Instance {
            features: vec![],
            labels: vec![],
        });
        let model = train(&instances, 2, 2, &TrainConfig::default());
        assert_eq!(model.viterbi(&[vec![0]]), vec![1]);
    }

    #[test]
    fn empty_training_set_yields_zero_model() {
        let engine = TrainEngine::new(&[], 3, 2);
        let params = vec![0.5; engine.n_params()];
        let mut grad = vec![f64::NAN; engine.n_params()];
        assert_eq!(engine.nll_and_grad(&params, &mut grad), 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "invalid training instance")]
    fn invalid_labels_panic() {
        let instances = vec![Instance {
            features: vec![vec![0]],
            labels: vec![7],
        }];
        train(&instances, 1, 2, &TrainConfig::default());
    }
}
