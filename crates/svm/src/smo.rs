//! Sequential Minimal Optimization (SMO) solver for the SVM dual problem.
//!
//! This is the same algorithm LIBSVM implements (Fan, Chen & Lin, JMLR 2005):
//! it minimises
//!
//! ```text
//!     min_a  0.5 aᵀ Q a + pᵀ a
//!     s.t.   yᵀ a = Δ,   0 <= a_i <= C_i
//! ```
//!
//! with `Q_ij = y_i y_j K(x_i, x_j)`, by repeatedly selecting a maximal
//! violating pair with second-order working-set selection (WSS2) and solving
//! the two-variable subproblem analytically.
//!
//! ε-SVR ([`crate::svr`]), C-SVC ([`crate::svc`]) and the one-class SVM
//! ([`crate::oneclass`]) all reduce to this form, and [`solve`] is the one
//! loop that solves it; the regression case uses the standard expansion
//! to `2l` variables.
//! `Q` is never stored: the solver reads unsigned kernel rows from
//! [`KernelRows`] and applies the signs itself.

use crate::kernel::{Kernel, RowCache};
use crate::matrix::DenseMatrix;

/// Numerical floor for the second derivative of the two-variable subproblem,
/// as in LIBSVM (`TAU`).
const TAU: f64 = 1e-12;

/// Kernel rows over the `l` training points of one solve, behind an LRU
/// [`RowCache`], plus the kernel diagonal `K[b][b]`.
///
/// A dual problem has one variable per point (C-SVC, one-class) or two
/// (ε-SVR: `α` at `t < l`, `α*` at `t = l + b`), so variable `t` sits
/// on base point `b(t) = t` or `t − l`. The solver forms
/// `Q_it = y_i·y_t·K[b_i][b_t]` from the sign vector `y` it is given,
/// which is that problem's sign pattern: `y_t` per point, or +1 on the
/// `α` half and −1 on the `α*` half. Multiplying by ±1 is exact, so every
/// `Q` entry the solver uses has the bits a stored signed row would.
pub(crate) struct KernelRows<'a> {
    kernel: Kernel,
    points: &'a DenseMatrix,
    diag: Vec<f64>,
    cache: RowCache,
    /// Precomputed `‖r‖²` per training row when the RBF row pass rides
    /// `eval_row_batch_prenorm`; `None` keeps the scalar-bitwise pass.
    row_norms: Option<Vec<f64>>,
}

impl<'a> KernelRows<'a> {
    pub(crate) fn new(kernel: Kernel, points: &'a DenseMatrix, cache_rows: usize) -> Self {
        let diag = points.iter().map(|p| kernel.eval(p, p)).collect();
        KernelRows {
            kernel,
            points,
            diag,
            cache: RowCache::new(points.rows(), cache_rows),
            row_norms: None,
        }
    }

    /// Routes RBF kernel rows through [`Kernel::eval_row_batch_prenorm`].
    /// Kernel entries then agree with the scalar pass only to the
    /// documented ≤1e-12 relative tolerance — acceptable inside the
    /// solver, whose KKT stopping tolerance is nine orders of magnitude
    /// looser. A no-op for non-RBF kernels (their prenorm pass is bitwise
    /// anyway).
    pub(crate) fn with_prenorm_rows(mut self, enabled: bool) -> Self {
        self.row_norms = (enabled && matches!(self.kernel, Kernel::Rbf { .. }))
            .then(|| self.points.row_squared_norms());
        self
    }

    /// Number of base points `l`.
    fn len(&self) -> usize {
        self.diag.len()
    }

    /// Kernel row `K[b]` over all `l` points, computed on a cache miss.
    fn row(&mut self, b: usize) -> &[f64] {
        let (kernel, points) = (self.kernel, self.points);
        let norms = self.row_norms.as_deref();
        self.cache.row(b, || {
            let mut row = vec![0.0; points.rows()];
            match norms {
                Some(norms) => {
                    kernel.eval_row_batch_prenorm(points.row(b), points, norms, &mut row)
                }
                None => kernel.eval_row_batch(points.row(b), points, &mut row),
            }
            row
        })
    }

    /// Kernel row-cache `(hits, misses)` accumulated by this source, for
    /// the observability layer.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }
}

/// Base point of variable `t` in a problem over `l` points.
fn base(t: usize, l: usize) -> usize {
    if t < l {
        t
    } else {
        t - l
    }
}

/// Row `i` of `Q`, `Q_it = y_i·y_t·K[b_i][b_t]` for every variable `t`,
/// from the kernel row `k = K[b_i]`. For the cold paths only: the
/// initial gradient and the G̅ updates.
fn signed_row<'r>(k: &'r [f64], yi: f64, y: &'r [f64]) -> impl Iterator<Item = f64> + 'r {
    y.iter()
        .zip(k.iter().cycle())
        .map(move |(&yt, &kt)| yi * yt * kt)
}

/// `G_t += Q_it·Δα_i + Q_jt·Δα_j` for every variable, from the kernel
/// rows `ki = K[b_i]` and `kj = K[b_j]` with `yai = y_i·Δα_i` and
/// `yaj = y_j·Δα_j`. Per base point `b` it forms `x = K_i[b]·yai` and
/// `z = K_j[b]·yaj` once and adds `y_t·x + y_t·z`, which is bit for bit
/// the signed-row update `Q_it·Δα_i + Q_jt·Δα_j`: the two differ only by
/// factors of ±1.
fn update_gradient(grad: &mut [f64], y: &[f64], ki: &[f64], kj: &[f64], yai: f64, yaj: f64) {
    let (alpha_half, star_half) = grad.split_at_mut(ki.len());
    if star_half.is_empty() {
        for (((g, &yt), &kit), &kjt) in alpha_half.iter_mut().zip(y).zip(ki).zip(kj) {
            let (x, z) = (kit * yai, kjt * yaj);
            *g += yt * x + yt * z;
        }
    } else {
        // y_t = +1 on the α half and −1 on the α* half. `(−x) + (−z)` is
        // the signed-row sum; `−(x + z)` would differ on signed zeros.
        for (((g, g_star), &kit), &kjt) in alpha_half.iter_mut().zip(star_half).zip(ki).zip(kj) {
            let (x, z) = (kit * yai, kjt * yaj);
            *g += x + z;
            *g_star += (-x) + (-z);
        }
    }
}

/// Checks the problem shape [`KernelRows`] documents: `l` or `2l`
/// variables, and for `2l` the +1/−1 halves of the sign vector.
fn debug_check_problem(l: usize, p: &[f64], y: &[f64], c: &[f64], alpha: &[f64]) {
    let n = p.len();
    debug_assert!(n == l || n == 2 * l, "{n} variables over {l} points");
    debug_assert_eq!(y.len(), n);
    debug_assert_eq!(c.len(), n);
    debug_assert_eq!(alpha.len(), n);
    debug_assert!(
        n == l
            || y.iter()
                .enumerate()
                .all(|(t, &s)| s == if t < l { 1.0 } else { -1.0 }),
        "expanded problems sign the α half +1 and the α* half −1"
    );
}

/// Kernel row-cache capacity, in rows, of every solve whose caller does
/// not set one.
pub(crate) const CACHE_ROWS: usize = 4096;

/// Parameters controlling a single SMO solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveOptions {
    /// KKT violation tolerance (LIBSVM default 1e-3).
    pub tolerance: f64,
    /// Hard cap on iterations; `usize::MAX` effectively disables it.
    pub max_iterations: usize,
    /// Enable the shrinking heuristic: variables confidently at their
    /// bounds are removed from the working set and the gradient is only
    /// maintained over the remainder, then reconstructed before the final
    /// optimality check (LIBSVM `-h 1`).
    pub shrinking: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-3,
            max_iterations: 10_000_000,
            shrinking: true,
        }
    }
}

/// Result of an SMO solve.
#[derive(Debug, Clone)]
pub(crate) struct Solution {
    /// Optimal dual variables.
    pub alpha: Vec<f64>,
    /// Offset `rho`; the decision function is `f(x) = Σ y_i a_i K(x_i,x) − rho`.
    pub rho: f64,
    /// Final dual objective value (diagnostic; exercised by tests).
    #[allow(dead_code)]
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the KKT tolerance was reached within the iteration cap.
    pub converged: bool,
}

/// Solves the dual problem. `p` is the linear term, `y` the ±1 signs, `c`
/// the per-variable upper bounds, `alpha` the (feasible) starting point.
pub(crate) fn solve(
    q: &mut KernelRows<'_>,
    p: &[f64],
    y: &[f64],
    c: &[f64],
    mut alpha: Vec<f64>,
    options: SolveOptions,
) -> Solution {
    let n = p.len();
    let l = q.len();
    debug_check_problem(l, p, y, c, &alpha);

    // Kernel row K[b_i] of the working variable i, filled by the
    // selection and reused by the update. The partner row K[b_j] is read
    // straight from the cache.
    let mut ki = vec![0.0; l];

    // G_i = (Q a)_i + p_i; G̅_i tracks the bound-variable contribution
    // Σ_{α_j = C_j} C_j Q_ij needed to reconstruct G for shrunk variables.
    let mut grad: Vec<f64> = p.to_vec();
    let mut g_bar = vec![0.0; n];
    for i in 0..n {
        if alpha[i] != 0.0 {
            let ai = alpha[i];
            let at_bound = ai >= c[i];
            for (t, qit) in signed_row(q.row(base(i, l)), y[i], y).enumerate() {
                grad[t] += ai * qit;
                if at_bound {
                    g_bar[t] += c[i] * qit;
                }
            }
        }
    }

    // I_up / I_low membership per variable, refreshed whenever α moves,
    // so the selection scans test one flag instead of y, α and C.
    let mut up = vec![false; n];
    let mut low = vec![false; n];
    for t in 0..n {
        classify(t, y, c, &alpha, &mut up, &mut low);
    }

    // The working set as an ascending index list: the selection loops
    // visit exactly the active variables, in the same order a scan of
    // 0..n would, so every tie resolves the same way.
    let mut active: Vec<usize> = (0..n).collect();
    let mut unshrunk = false;
    let shrink_period = n.clamp(1, 1000);
    let mut counter = shrink_period;
    let mut iterations = 0;
    let mut converged = false;

    while iterations < options.max_iterations {
        counter -= 1;
        if counter == 0 {
            counter = shrink_period;
            if options.shrinking {
                do_shrinking(
                    q,
                    &mut grad,
                    &g_bar,
                    p,
                    y,
                    c,
                    &alpha,
                    &mut active,
                    &mut unshrunk,
                    options.tolerance,
                );
            }
        }

        let pair = select_working_set(q, &grad, y, &up, &low, options.tolerance, &active, &mut ki);
        let (i, j) = match pair {
            Some(pair) => pair,
            None => {
                if active.len() == n {
                    converged = true;
                    break;
                }
                // Optimal on the shrunk set: reconstruct and re-check on
                // the full set.
                reconstruct_gradient(q, &mut grad, &g_bar, p, y, c, &alpha, &active);
                active.clear();
                active.extend(0..n);
                match select_working_set(
                    q,
                    &grad,
                    y,
                    &up,
                    &low,
                    options.tolerance,
                    &active,
                    &mut ki,
                ) {
                    Some(pair) => {
                        counter = 1; // shrink again next iteration
                        pair
                    }
                    None => {
                        converged = true;
                        break;
                    }
                }
            }
        };
        iterations += 1;

        // Row K[b_i] is already in `ki`, left there by the selection.
        let bj = base(j, l);
        let dij = q.diag[base(i, l)] + q.diag[bj];
        let kj = q.row(bj);
        let qij = (y[i] * y[j]) * ki[bj];
        let ci = c[i];
        let cj = c[j];
        let old_ai = alpha[i];
        let old_aj = alpha[j];

        if (y[i] - y[j]).abs() > 0.5 {
            // y_i != y_j
            let mut quad = dij + 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (-grad[i] - grad[j]) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if diff > ci - cj {
                if alpha[i] > ci {
                    alpha[i] = ci;
                    alpha[j] = ci - diff;
                }
            } else if alpha[j] > cj {
                alpha[j] = cj;
                alpha[i] = cj + diff;
            }
        } else {
            // y_i == y_j
            let mut quad = dij - 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (grad[i] - grad[j]) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > ci {
                if alpha[i] > ci {
                    alpha[i] = ci;
                    alpha[j] = sum - ci;
                }
            } else if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = sum;
            }
            if sum > cj {
                if alpha[j] > cj {
                    alpha[j] = cj;
                    alpha[i] = sum - cj;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = sum;
            }
        }

        let dai = alpha[i] - old_ai;
        let daj = alpha[j] - old_aj;
        if dai == 0.0 && daj == 0.0 {
            // Numerical dead-end on this pair; tolerance effectively reached.
            converged = true;
            break;
        }
        classify(i, y, c, &alpha, &mut up, &mut low);
        classify(j, y, c, &alpha, &mut up, &mut low);
        // Update G densely: the entries of shrunk variables go stale
        // either way, and `reconstruct_gradient` rewrites every one of
        // them before anything reads them…
        update_gradient(&mut grad, y, &ki, kj, y[i] * dai, y[j] * daj);
        // …and G̅ over everything when a variable crosses its upper bound.
        let was_ub_i = old_ai >= ci;
        let is_ub_i = alpha[i] >= ci;
        if was_ub_i != is_ub_i {
            let sign = if is_ub_i { 1.0 } else { -1.0 };
            for (g, qit) in g_bar.iter_mut().zip(signed_row(&ki, y[i], y)) {
                *g += sign * ci * qit;
            }
        }
        let was_ub_j = old_aj >= cj;
        let is_ub_j = alpha[j] >= cj;
        if was_ub_j != is_ub_j {
            let sign = if is_ub_j { 1.0 } else { -1.0 };
            for (g, qjt) in g_bar.iter_mut().zip(signed_row(kj, y[j], y)) {
                *g += sign * cj * qjt;
            }
        }
    }

    if active.len() < n {
        // Hit the iteration cap while shrunk: make the gradient whole so
        // rho and the objective are computed from consistent values.
        reconstruct_gradient(q, &mut grad, &g_bar, p, y, c, &alpha, &active);
    }

    let rho = compute_rho(&grad, y, c, &alpha);

    // Dual objective: 0.5 aᵀQa + pᵀa = 0.5 Σ a_i (G_i + p_i).
    let objective = 0.5
        * alpha
            .iter()
            .zip(grad.iter().zip(p))
            .map(|(a, (g, pi))| a * (g + pi))
            .sum::<f64>();

    // Box feasibility 0 ≤ α_i ≤ C_i is maintained by every clip above;
    // a violation here means the update arithmetic itself went wrong.
    debug_assert!(
        alpha
            .iter()
            .zip(c)
            .all(|(a, ci)| (-1e-12..=ci + 1e-12).contains(a)),
        "SMO produced an alpha outside [0, C]"
    );
    debug_assert!(rho.is_finite(), "SMO produced a non-finite rho");
    debug_assert!(
        objective.is_finite(),
        "SMO produced a non-finite dual objective"
    );

    Solution {
        alpha,
        rho,
        objective,
        iterations,
        converged,
    }
}

/// Whether variable `t` can be confidently removed from the working set
/// (LIBSVM `be_shrunk`): it sits at a bound and its KKT multiplier is
/// strictly on the optimal side of both current extremes.
fn be_shrunk(
    t: usize,
    gmax1: f64,
    gmax2: f64,
    grad: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
) -> bool {
    if alpha[t] >= c[t] {
        if y[t] > 0.0 {
            -grad[t] > gmax1
        } else {
            -grad[t] > gmax2
        }
    } else if alpha[t] <= 0.0 {
        if y[t] > 0.0 {
            grad[t] > gmax2
        } else {
            grad[t] > gmax1
        }
    } else {
        false
    }
}

/// Periodic shrink pass (LIBSVM `do_shrinking`). `active` is the
/// ascending active-index list; it stays ascending.
#[allow(clippy::too_many_arguments)]
fn do_shrinking(
    q: &mut KernelRows<'_>,
    grad: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
    active: &mut Vec<usize>,
    unshrunk: &mut bool,
    tolerance: f64,
) {
    let n = grad.len();
    // m(α) and M(α) over the active set.
    let mut gmax1 = f64::NEG_INFINITY;
    let mut gmax2 = f64::NEG_INFINITY;
    for &t in active.iter() {
        if y[t] > 0.0 {
            if alpha[t] < c[t] && -grad[t] >= gmax1 {
                gmax1 = -grad[t];
            }
            if alpha[t] > 0.0 && grad[t] >= gmax2 {
                gmax2 = grad[t];
            }
        } else {
            if alpha[t] > 0.0 && -grad[t] >= gmax2 {
                gmax2 = -grad[t];
            }
            if alpha[t] < c[t] && grad[t] >= gmax1 {
                gmax1 = grad[t];
            }
        }
    }

    if !*unshrunk && gmax1 + gmax2 <= tolerance * 10.0 {
        // Close to optimal: bring everyone back once so the final
        // convergence check is exact.
        *unshrunk = true;
        reconstruct_gradient(q, grad, g_bar, p, y, c, alpha, active);
        active.clear();
        active.extend(0..n);
    }

    active.retain(|&t| !be_shrunk(t, gmax1, gmax2, grad, y, c, alpha));
}

/// Recomputes G for inactive variables — those missing from the
/// ascending `active` list — from G̅ and the free variables (LIBSVM
/// `reconstruct_gradient`). Free variables are never shrunk, so their G
/// entries are always current.
#[allow(clippy::too_many_arguments)]
fn reconstruct_gradient(
    q: &mut KernelRows<'_>,
    grad: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
    active: &[usize],
) {
    let n = grad.len();
    let l = q.len();
    let free: Vec<usize> = (0..n)
        .filter(|&j| alpha[j] > 0.0 && alpha[j] < c[j])
        .collect();
    let mut next_active = active.iter().copied().peekable();
    for t in 0..n {
        if next_active.next_if_eq(&t).is_some() {
            continue;
        }
        let kt = q.row(base(t, l));
        let mut g = p[t] + g_bar[t];
        for &j in &free {
            g += alpha[j] * (y[t] * y[j] * kt[base(j, l)]);
        }
        grad[t] = g;
    }
}

/// Records whether variable `t` is in I_up (α_t can move up along y_t)
/// and in I_low (it can move down), as LIBSVM's `is_upper_bound`/
/// `is_lower_bound` tests combine with the sign.
fn classify(t: usize, y: &[f64], c: &[f64], alpha: &[f64], up: &mut [bool], low: &mut [bool]) {
    let (below_c, above_zero) = (alpha[t] < c[t], alpha[t] > 0.0);
    (up[t], low[t]) = if y[t] > 0.0 {
        (below_c, above_zero)
    } else {
        (above_zero, below_c)
    };
}

/// Second-order working-set selection (WSS2 from Fan, Chen & Lin 2005),
/// restricted to the variables in the ascending `active` list, with
/// I_up/I_low membership from [`classify`]. Leaves the kernel row
/// `K[b_i]` in `ki` for the update to reuse.
///
/// Returns `None` when the maximal KKT violation over the active set is
/// below `tolerance`.
#[allow(clippy::too_many_arguments)]
fn select_working_set(
    q: &mut KernelRows<'_>,
    grad: &[f64],
    y: &[f64],
    up: &[bool],
    low: &[bool],
    tolerance: f64,
    active: &[usize],
    ki: &mut [f64],
) -> Option<(usize, usize)> {
    // i = argmax over I_up of -y_t G_t
    let mut gmax = f64::NEG_INFINITY;
    let mut i_best: Option<usize> = None;
    for &t in active {
        if up[t] {
            let v = -y[t] * grad[t];
            if v >= gmax {
                gmax = v;
                i_best = Some(t);
            }
        }
    }
    let i = i_best?;
    let l = q.len();
    let bi = base(i, l);
    ki.copy_from_slice(q.row(bi));
    let diag = &q.diag;
    let di = diag[bi];

    let mut gmax2 = f64::NEG_INFINITY;
    let mut obj_min = f64::INFINITY;
    let mut j_best: Option<usize> = None;
    for &t in active {
        if !low[t] {
            continue;
        }
        // Stopping criterion tracks max over I_low of y_t G_t, so that
        // gmax + gmax2 = m(α) − M(α), the maximal KKT violation.
        let ygt = y[t] * grad[t];
        if ygt > gmax2 {
            gmax2 = ygt;
        }
        let grad_diff = gmax + ygt;
        if grad_diff > 0.0 {
            // quad = K_ii + K_tt − 2 K_it. 2·K_i[b_t] is exactly the
            // 2·y_i·y_t·Q_it of the signed form: the signs cancel.
            let b = base(t, l);
            let mut quad = di + diag[b] - 2.0 * ki[b];
            if quad <= 0.0 {
                quad = TAU;
            }
            let obj = -(grad_diff * grad_diff) / quad;
            if obj <= obj_min {
                obj_min = obj;
                j_best = Some(t);
            }
        }
    }

    if gmax + gmax2 < tolerance {
        return None;
    }
    j_best.map(|j| (i, j))
}

/// Computes `rho` from the final gradient, as LIBSVM does: average of
/// `y_t G_t` over free variables, else the midpoint of the active bounds.
fn compute_rho(grad: &[f64], y: &[f64], c: &[f64], alpha: &[f64]) -> f64 {
    let n = grad.len();
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut free_sum = 0.0;
    let mut free_count = 0usize;
    for t in 0..n {
        let yg = y[t] * grad[t];
        if alpha[t] >= c[t] {
            if y[t] < 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else if alpha[t] <= 0.0 {
            if y[t] > 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else {
            free_sum += yg;
            free_count += 1;
        }
    }
    if free_count > 0 {
        free_sum / free_count as f64
    } else if upper.is_finite() && lower.is_finite() {
        (upper + lower) / 2.0
    } else if upper.is_finite() {
        // Only one side of the bracket exists (all variables at the same
        // kind of bound); the midpoint would be infinite.
        upper
    } else if lower.is_finite() {
        lower
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Reference row `i` of `Q` as explicitly signed values: the exact
    /// batch kernel row times `y_i·y_t`.
    fn signed_q_row(kernel: Kernel, points: &DenseMatrix, y: &[f64], i: usize) -> Vec<f64> {
        let l = points.rows();
        let mut k = vec![0.0; l];
        kernel.eval_row_batch(points.row(base(i, l)), points, &mut k);
        (0..y.len())
            .map(|t| k[base(t, l)] * (y[i] * y[t]))
            .collect()
    }

    /// Sign vectors for both problem layouts over `l` points: one
    /// mixed-label variable per point, and the ±1 ε-SVR expansion.
    fn layouts(l: usize) -> [Vec<f64>; 2] {
        let per_point = (0..l)
            .map(|t| if t % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let expanded = (0..2 * l).map(|t| if t < l { 1.0 } else { -1.0 }).collect();
        [per_point, expanded]
    }

    /// Hand-solvable 2-point classification problem: points -1 and +1 on a
    /// line, labels -1 and +1, linear kernel. The dual optimum is
    /// a_0 = a_1 = min(C, 0.5) and the separating function is f(x) = x·w − rho
    /// with rho = 0.
    #[test]
    fn two_point_svc_dual() {
        let points = DenseMatrix::from_nested(vec![vec![-1.0], vec![1.0]]).unwrap();
        let y = vec![-1.0, 1.0];
        let mut q = KernelRows::new(Kernel::Linear, &points, 16);
        let p = vec![-1.0, -1.0];
        let c = vec![10.0, 10.0];
        let sol = solve(&mut q, &p, &y, &c, vec![0.0, 0.0], SolveOptions::default());
        assert!(sol.converged);
        assert!((sol.alpha[0] - 0.5).abs() < 1e-6, "alpha = {:?}", sol.alpha);
        assert!((sol.alpha[1] - 0.5).abs() < 1e-6);
        assert!(sol.rho.abs() < 1e-6);
    }

    /// Equality constraint Σ y_i a_i = 0 must hold throughout.
    #[test]
    fn solution_satisfies_equality_constraint() {
        let points = DenseMatrix::from_nested(
            (0..12)
                .map(|i| vec![i as f64 * 0.3, (i as f64 * 0.7).sin()])
                .collect(),
        )
        .unwrap();
        let y: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut q = KernelRows::new(Kernel::rbf(0.5), &points, 16);
        let p = vec![-1.0; 12];
        let c = vec![1.0; 12];
        let sol = solve(&mut q, &p, &y, &c, vec![0.0; 12], SolveOptions::default());
        let balance: f64 = sol.alpha.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        assert!(balance.abs() < 1e-9, "balance = {balance}");
        for (t, a) in sol.alpha.iter().enumerate() {
            assert!(
                *a >= -1e-12 && *a <= 1.0 + 1e-12,
                "alpha[{t}] = {a} out of box"
            );
        }
    }

    /// With a tiny iteration cap the solver reports non-convergence instead
    /// of spinning.
    #[test]
    fn iteration_cap_reported() {
        let points =
            DenseMatrix::from_nested((0..40).map(|i| vec![(i as f64 * 1.37).sin()]).collect())
                .unwrap();
        let y: Vec<f64> = (0..40)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut q = KernelRows::new(Kernel::rbf(5.0), &points, 8);
        let p = vec![-1.0; 40];
        let c = vec![100.0; 40];
        let sol = solve(
            &mut q,
            &p,
            &y,
            &c,
            vec![0.0; 40],
            SolveOptions {
                tolerance: 1e-9,
                max_iterations: 2,
                shrinking: true,
            },
        );
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 2);
    }

    /// The dual objective must not increase across a solve with more
    /// iterations allowed (SMO is a descent method).
    #[test]
    fn objective_descends_with_more_iterations() {
        let points = DenseMatrix::from_nested(
            (0..20)
                .map(|i| vec![(i as f64 * 0.9).cos(), (i as f64 * 0.4).sin()])
                .collect(),
        )
        .unwrap();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { -1.0 }).collect();
        let p = vec![-1.0; 20];
        let c = vec![1.0; 20];

        let mut q1 = KernelRows::new(Kernel::rbf(1.0), &points, 32);
        let partial = solve(
            &mut q1,
            &p,
            &y,
            &c,
            vec![0.0; 20],
            SolveOptions {
                tolerance: 1e-3,
                max_iterations: 3,
                shrinking: true,
            },
        );
        let mut q2 = KernelRows::new(Kernel::rbf(1.0), &points, 32);
        let full = solve(&mut q2, &p, &y, &c, vec![0.0; 20], SolveOptions::default());
        assert!(full.objective <= partial.objective + 1e-9);
    }

    /// The prenorm RBF row pass honours its ≤1e-12 tolerance contract on
    /// the `Q` entries of both problem layouts, and is a bitwise no-op for
    /// non-RBF kernels.
    #[test]
    fn prenorm_rows_honour_the_tolerance_contract() {
        let points = DenseMatrix::from_nested(
            (0..13)
                .map(|i| {
                    (0..4)
                        .map(|j| ((i * 4 + j) as f64 * 0.53).sin() * 2.5)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let l = points.rows();
        for kernel in [Kernel::rbf(0.6), Kernel::Linear] {
            let mut fast = KernelRows::new(kernel, &points, 32).with_prenorm_rows(true);
            for y in layouts(l) {
                for i in 0..y.len() {
                    let exact = signed_q_row(kernel, &points, &y, i);
                    let got: Vec<f64> = signed_row(fast.row(base(i, l)), y[i], &y).collect();
                    match kernel {
                        Kernel::Rbf { .. } => {
                            for (av, bv) in exact.iter().zip(&got) {
                                assert!(
                                    (av - bv).abs() <= 1e-12 * av.abs().max(1.0),
                                    "prenorm Q entry drifted: {av} vs {bv}"
                                );
                            }
                        }
                        _ => assert_eq!(bits(&exact), bits(&got)),
                    }
                }
            }
        }
    }

    /// The solver's `Q` entries `y_i·y_t·K[b_i][b_t]` equal explicitly
    /// signed rows bit for bit, signed zeros included, in both layouts.
    #[test]
    fn regression_q_signs() {
        let points = DenseMatrix::from_nested(vec![vec![0.0], vec![1.0]]).unwrap();
        let mut q = KernelRows::new(Kernel::Linear, &points, 8);
        let y = [1.0, 1.0, -1.0, -1.0];
        // α row for point 1 (sign +1), then α* row for point 1 (sign −1).
        let row1: Vec<f64> = signed_row(q.row(base(1, 2)), y[1], &y).collect();
        assert_eq!(bits(&row1), bits(&[0.0, 1.0, -0.0, -1.0]));
        let row3: Vec<f64> = signed_row(q.row(base(3, 2)), y[3], &y).collect();
        assert_eq!(bits(&row3), bits(&[-0.0, -1.0, 0.0, 1.0]));
        assert_eq!(q.diag[base(3, 2)], 1.0);

        let points = DenseMatrix::from_nested(
            (0..7)
                .map(|i| vec![(i as f64 * 0.8).sin(), if i % 2 == 0 { 0.0 } else { -0.5 }])
                .collect(),
        )
        .unwrap();
        let l = points.rows();
        let mut q = KernelRows::new(Kernel::Linear, &points, 2);
        for y in layouts(l) {
            for i in 0..y.len() {
                let got: Vec<f64> = signed_row(q.row(base(i, l)), y[i], &y).collect();
                let want = signed_q_row(Kernel::Linear, &points, &y, i);
                assert_eq!(bits(&got), bits(&want), "row {i}");
            }
        }
    }

    /// The dense gradient update from kernel rows equals the signed-row
    /// update `G_t += Q_it·Δα_i + Q_jt·Δα_j` bit for bit, including the
    /// signed zeros that `−(x + z)` would get wrong.
    #[test]
    fn dense_gradient_update_matches_signed_rows() {
        // A linear kernel over points with zero coordinates yields ±0
        // kernel entries.
        let points = DenseMatrix::from_nested(
            (0..6)
                .map(|i| vec![if i % 3 == 0 { 0.0 } else { (i as f64).cos() }, -0.0])
                .collect(),
        )
        .unwrap();
        let l = points.rows();
        let kernel = Kernel::Linear;
        let mut q = KernelRows::new(kernel, &points, 8);
        for y in layouts(l) {
            let n = y.len();
            let start: Vec<f64> = (0..n)
                .map(|t| if t % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            for (i, j) in [(0, 1), (1, n - 1), (n - 1, 3)] {
                let qi = signed_q_row(kernel, &points, &y, i);
                let qj = signed_q_row(kernel, &points, &y, j);
                for (dai, daj) in [(0.25, -0.5), (0.0, -0.0), (-0.0, 0.0), (1e-300, 3.0)] {
                    let want: Vec<f64> = (0..n)
                        .map(|t| start[t] + (qi[t] * dai + qj[t] * daj))
                        .collect();
                    let ki = q.row(base(i, l)).to_vec();
                    let kj = q.row(base(j, l));
                    let mut got = start.clone();
                    update_gradient(&mut got, &y, &ki, kj, y[i] * dai, y[j] * daj);
                    assert_eq!(bits(&got), bits(&want), "i={i} j={j} Δ=({dai}, {daj})");
                }
            }
        }
    }
}
