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
//! Both ε-SVR ([`crate::svr`]) and C-SVC ([`crate::svc`]) reduce to this
//! form; the regression case uses the standard expansion to `2l` variables.

use crate::kernel::{Kernel, RowCache};
use crate::matrix::DenseMatrix;

/// Numerical floor for the second derivative of the two-variable subproblem,
/// as in LIBSVM (`TAU`).
const TAU: f64 = 1e-12;

/// Provides rows of the `Q` matrix (`Q_ij = y_i y_j K_ij`) and its diagonal.
///
/// Implementations cache rows because SMO revisits them heavily.
pub(crate) trait QMatrix {
    /// Number of variables in the dual problem.
    fn len(&self) -> usize;
    /// Writes row `i` of `Q` into `out` (length [`QMatrix::len`]). The
    /// solver owns the buffers, so it can hold two rows at once without
    /// allocating per fetch.
    fn row_into(&mut self, i: usize, out: &mut [f64]);
    /// Diagonal entry `Q_ii`.
    fn diag(&self, i: usize) -> f64;
}

/// `Q` matrix for problems whose variables map 1:1 onto training points
/// (C-SVC), with an LRU row cache.
pub(crate) struct PointQ<'a> {
    kernel: Kernel,
    points: &'a DenseMatrix,
    y: &'a [f64],
    diag: Vec<f64>,
    cache: RowCache,
    /// Precomputed `‖r‖²` per training row when the RBF row pass rides
    /// `eval_row_batch_prenorm`; `None` keeps the scalar-bitwise pass.
    row_norms: Option<Vec<f64>>,
}

impl<'a> PointQ<'a> {
    pub(crate) fn new(
        kernel: Kernel,
        points: &'a DenseMatrix,
        y: &'a [f64],
        cache_rows: usize,
    ) -> Self {
        let diag = points.iter().map(|p| kernel.eval(p, p)).collect();
        PointQ {
            kernel,
            points,
            y,
            diag,
            cache: RowCache::new(points.rows(), cache_rows),
            row_norms: None,
        }
    }

    /// Routes RBF kernel rows through [`Kernel::eval_row_batch_prenorm`].
    /// Q entries then agree with the scalar pass only to the documented
    /// ≤1e-12 relative tolerance — acceptable inside the solver, whose
    /// KKT stopping tolerance is nine orders of magnitude looser. A
    /// no-op for non-RBF kernels (their prenorm pass is bitwise anyway).
    pub(crate) fn with_prenorm_rows(mut self, enabled: bool) -> Self {
        self.row_norms = (enabled && matches!(self.kernel, Kernel::Rbf { .. }))
            .then(|| self.points.row_squared_norms());
        self
    }
}

impl QMatrix for PointQ<'_> {
    fn len(&self) -> usize {
        self.points.rows()
    }

    fn row_into(&mut self, i: usize, out: &mut [f64]) {
        let (kernel, points, y) = (self.kernel, self.points, self.y);
        let norms = self.row_norms.as_deref();
        let row = self.cache.row(i, || {
            // One kernel row in a single pass over the flat matrix, then
            // the sign pattern on top: Q_ij = y_i y_j K_ij.
            let mut row = vec![0.0; points.rows()];
            match norms {
                Some(norms) => {
                    kernel.eval_row_batch_prenorm(points.row(i), points, norms, &mut row)
                }
                None => kernel.eval_row_batch(points.row(i), points, &mut row),
            }
            let yi = y[i];
            for (q, yj) in row.iter_mut().zip(y) {
                *q *= yi * *yj;
            }
            row
        });
        out.copy_from_slice(row);
    }

    fn diag(&self, i: usize) -> f64 {
        // y_i^2 = 1, so Q_ii = K_ii.
        self.diag[i]
    }
}

/// `Q` matrix for the ε-SVR expansion: variables `0..l` are `α` (sign +1)
/// and `l..2l` are `α*` (sign −1), all over the same `l` points.
pub(crate) struct RegressionQ<'a> {
    kernel: Kernel,
    points: &'a DenseMatrix,
    l: usize,
    diag: Vec<f64>,
    /// Cache of *kernel* rows over the l points; Q rows are derived.
    cache: RowCache,
    /// As in [`PointQ`]: `Some` routes RBF rows through the prenorm pass.
    row_norms: Option<Vec<f64>>,
}

impl<'a> RegressionQ<'a> {
    pub(crate) fn new(kernel: Kernel, points: &'a DenseMatrix, cache_rows: usize) -> Self {
        let l = points.rows();
        let diag = points.iter().map(|p| kernel.eval(p, p)).collect();
        RegressionQ {
            kernel,
            points,
            l,
            diag,
            cache: RowCache::new(l, cache_rows),
            row_norms: None,
        }
    }

    /// See [`PointQ::with_prenorm_rows`]; same tolerance contract.
    pub(crate) fn with_prenorm_rows(mut self, enabled: bool) -> Self {
        self.row_norms = (enabled && matches!(self.kernel, Kernel::Rbf { .. }))
            .then(|| self.points.row_squared_norms());
        self
    }

    fn sign(&self, i: usize) -> f64 {
        if i < self.l {
            1.0
        } else {
            -1.0
        }
    }

    /// Kernel row-cache `(hits, misses)` accumulated by this matrix, for
    /// the observability layer.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }
}

impl QMatrix for RegressionQ<'_> {
    fn len(&self) -> usize {
        2 * self.l
    }

    fn row_into(&mut self, i: usize, out: &mut [f64]) {
        let base = i % self.l;
        let si = self.sign(i);
        let (kernel, points) = (self.kernel, self.points);
        let norms = self.row_norms.as_deref();
        let krow = self.cache.row(base, || {
            let mut row = vec![0.0; points.rows()];
            match norms {
                Some(norms) => {
                    kernel.eval_row_batch_prenorm(points.row(base), points, norms, &mut row);
                }
                None => kernel.eval_row_batch(points.row(base), points, &mut row),
            }
            row
        });
        // Q_ij = s_i s_j K(base_i, base_j), straight from the kernel row.
        let (alpha_half, alpha_star_half) = out.split_at_mut(self.l);
        for ((a, a_star), &k) in alpha_half.iter_mut().zip(alpha_star_half).zip(krow) {
            *a = si * k;
            *a_star = -si * k;
        }
    }

    fn diag(&self, i: usize) -> f64 {
        self.diag[i % self.l]
    }
}

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
    q: &mut dyn QMatrix,
    p: &[f64],
    y: &[f64],
    c: &[f64],
    mut alpha: Vec<f64>,
    options: SolveOptions,
) -> Solution {
    let n = q.len();
    debug_assert_eq!(p.len(), n);
    debug_assert_eq!(y.len(), n);
    debug_assert_eq!(c.len(), n);
    debug_assert_eq!(alpha.len(), n);

    // Two reusable Q rows: `qi` is filled by the working-set selection and
    // reused by the update, `qj` holds the partner row and doubles as
    // scratch outside the update.
    let mut qi = vec![0.0; n];
    let mut qj = vec![0.0; n];

    // G_i = (Q a)_i + p_i; G̅_i tracks the bound-variable contribution
    // Σ_{α_j = C_j} C_j Q_ij needed to reconstruct G for shrunk variables.
    let mut grad: Vec<f64> = p.to_vec();
    let mut g_bar = vec![0.0; n];
    for i in 0..n {
        if alpha[i] != 0.0 {
            let ai = alpha[i];
            let at_bound = ai >= c[i];
            q.row_into(i, &mut qi);
            for (t, qit) in qi.iter().enumerate() {
                grad[t] += ai * qit;
                if at_bound {
                    g_bar[t] += c[i] * qit;
                }
            }
        }
    }

    // The working set as an ascending index list: the per-iteration
    // loops visit exactly the active variables, in the same order a
    // scan of 0..n would, so every tie resolves the same way.
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
                    &mut qj,
                );
            }
        }

        let pair = select_working_set(q, &grad, y, c, &alpha, options.tolerance, &active, &mut qi);
        let (i, j) = match pair {
            Some(pair) => pair,
            None => {
                if active.len() == n {
                    converged = true;
                    break;
                }
                // Optimal on the shrunk set: reconstruct and re-check on
                // the full set.
                reconstruct_gradient(q, &mut grad, &g_bar, p, c, &alpha, &active, &mut qj);
                active.clear();
                active.extend(0..n);
                match select_working_set(
                    q,
                    &grad,
                    y,
                    c,
                    &alpha,
                    options.tolerance,
                    &active,
                    &mut qi,
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

        // Row i is already in `qi`, left there by the selection.
        q.row_into(j, &mut qj);
        let ci = c[i];
        let cj = c[j];
        let old_ai = alpha[i];
        let old_aj = alpha[j];

        if (y[i] - y[j]).abs() > 0.5 {
            // y_i != y_j
            let mut quad = q.diag(i) + q.diag(j) + 2.0 * qi[j];
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
            let mut quad = q.diag(i) + q.diag(j) - 2.0 * qi[j];
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
        // Maintain G over the active set only (the point of shrinking)…
        for &t in &active {
            grad[t] += qi[t] * dai + qj[t] * daj;
        }
        // …and G̅ over everything when a variable crosses its upper bound.
        let was_ub_i = old_ai >= ci;
        let is_ub_i = alpha[i] >= ci;
        if was_ub_i != is_ub_i {
            let sign = if is_ub_i { 1.0 } else { -1.0 };
            for (t, qit) in qi.iter().enumerate() {
                g_bar[t] += sign * ci * qit;
            }
        }
        let was_ub_j = old_aj >= cj;
        let is_ub_j = alpha[j] >= cj;
        if was_ub_j != is_ub_j {
            let sign = if is_ub_j { 1.0 } else { -1.0 };
            for (t, qjt) in qj.iter().enumerate() {
                g_bar[t] += sign * cj * qjt;
            }
        }
    }

    if active.len() < n {
        // Hit the iteration cap while shrunk: make the gradient whole so
        // rho and the objective are computed from consistent values.
        reconstruct_gradient(q, &mut grad, &g_bar, p, c, &alpha, &active, &mut qj);
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
/// ascending active-index list; it stays ascending. `scratch` is a row
/// buffer for the gradient reconstruction.
#[allow(clippy::too_many_arguments)]
fn do_shrinking(
    q: &mut dyn QMatrix,
    grad: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
    active: &mut Vec<usize>,
    unshrunk: &mut bool,
    tolerance: f64,
    scratch: &mut [f64],
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
        reconstruct_gradient(q, grad, g_bar, p, c, alpha, active, scratch);
        active.clear();
        active.extend(0..n);
    }

    active.retain(|&t| !be_shrunk(t, gmax1, gmax2, grad, y, c, alpha));
}

/// Recomputes G for inactive variables — those missing from the
/// ascending `active` list — from G̅ and the free variables (LIBSVM
/// `reconstruct_gradient`). Free variables are never shrunk, so their G
/// entries are always current. `row` is a buffer for one Q row.
#[allow(clippy::too_many_arguments)]
fn reconstruct_gradient(
    q: &mut dyn QMatrix,
    grad: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    c: &[f64],
    alpha: &[f64],
    active: &[usize],
    row: &mut [f64],
) {
    let n = grad.len();
    let free: Vec<usize> = (0..n)
        .filter(|&j| alpha[j] > 0.0 && alpha[j] < c[j])
        .collect();
    let mut next_active = active.iter().copied().peekable();
    for t in 0..n {
        if next_active.next_if_eq(&t).is_some() {
            continue;
        }
        q.row_into(t, row);
        let mut g = p[t] + g_bar[t];
        for &j in &free {
            g += alpha[j] * row[j];
        }
        grad[t] = g;
    }
}

/// Result of a ν-problem solve: like [`Solution`] plus the second dual
/// multiplier `r` (for ν-SVR, the learned tube half-width is `−r`).
#[derive(Debug, Clone)]
pub(crate) struct NuSolution {
    /// The base solution (alpha, rho, objective, iterations, converged).
    pub base: Solution,
    /// The `r` multiplier of the second equality constraint.
    pub r: f64,
}

/// Solves the ν-variant dual: same box and `yᵀa` constraint as
/// [`solve`], plus the implicit second constraint conserved by restricting
/// working pairs to a single label group (LIBSVM's `Solver_NU`).
pub(crate) fn solve_nu(
    q: &mut dyn QMatrix,
    p: &[f64],
    y: &[f64],
    c: &[f64],
    mut alpha: Vec<f64>,
    options: SolveOptions,
) -> NuSolution {
    let n = q.len();
    debug_assert_eq!(p.len(), n);
    // Reusable Q rows: the selection leaves each label group's candidate
    // `i` row in `qp` (positive) or `qn` (negative); `qj` holds the
    // partner row.
    let mut qp = vec![0.0; n];
    let mut qn = vec![0.0; n];
    let mut qj = vec![0.0; n];
    let mut grad: Vec<f64> = p.to_vec();
    for i in 0..n {
        if alpha[i] != 0.0 {
            let ai = alpha[i];
            q.row_into(i, &mut qj);
            for (g, qij) in grad.iter_mut().zip(&qj) {
                *g += ai * qij;
            }
        }
    }

    let mut iterations = 0;
    let mut converged = false;
    while iterations < options.max_iterations {
        let Some((i, j)) =
            select_working_set_nu(q, &grad, y, c, &alpha, options.tolerance, &mut qp, &mut qn)
        else {
            converged = true;
            break;
        };
        iterations += 1;
        // Row i is the one the selection left for y_i's label group.
        let qi = if y[i] > 0.0 { &qp } else { &qn };
        q.row_into(j, &mut qj);
        let old_ai = alpha[i];
        let old_aj = alpha[j];
        // Pairs share a label group, so only the y_i == y_j update applies.
        let mut quad = q.diag(i) + q.diag(j) - 2.0 * qi[j];
        if quad <= 0.0 {
            quad = TAU;
        }
        let delta = (grad[i] - grad[j]) / quad;
        let sum = alpha[i] + alpha[j];
        let (ci, cj) = (c[i], c[j]);
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
        let dai = alpha[i] - old_ai;
        let daj = alpha[j] - old_aj;
        if dai == 0.0 && daj == 0.0 {
            converged = true;
            break;
        }
        for t in 0..n {
            grad[t] += qi[t] * dai + qj[t] * daj;
        }
    }

    let (rho, r) = compute_rho_nu(&grad, y, c, &alpha);
    let objective = 0.5
        * alpha
            .iter()
            .zip(grad.iter().zip(p))
            .map(|(a, (g, pi))| a * (g + pi))
            .sum::<f64>();
    NuSolution {
        base: Solution {
            alpha,
            rho,
            objective,
            iterations,
            converged,
        },
        r,
    }
}

/// Working-set selection for the ν-problem: the best second-order pair
/// *within* each label group, as in LIBSVM's `Solver_NU`. Leaves the
/// positive group's candidate row in `qp` and the negative group's in
/// `qn`.
#[allow(clippy::too_many_arguments)]
fn select_working_set_nu(
    q: &mut dyn QMatrix,
    grad: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
    tolerance: f64,
    qp: &mut [f64],
    qn: &mut [f64],
) -> Option<(usize, usize)> {
    let n = grad.len();
    let mut gmax_p = f64::NEG_INFINITY;
    let mut ip: Option<usize> = None;
    let mut gmax_n = f64::NEG_INFINITY;
    let mut i_n: Option<usize> = None;
    for t in 0..n {
        if y[t] > 0.0 {
            if alpha[t] < c[t] && -grad[t] >= gmax_p {
                gmax_p = -grad[t];
                ip = Some(t);
            }
        } else if alpha[t] > 0.0 && grad[t] >= gmax_n {
            gmax_n = grad[t];
            i_n = Some(t);
        }
    }
    let mut fetch = |i: usize, row: &mut [f64]| {
        q.row_into(i, row);
        (i, q.diag(i))
    };
    let row_p = ip.map(|i| fetch(i, qp));
    let row_n = i_n.map(|i| fetch(i, qn));

    let mut gmax_p2 = f64::NEG_INFINITY;
    let mut gmax_n2 = f64::NEG_INFINITY;
    let mut obj_min = f64::INFINITY;
    let mut best: Option<(usize, usize)> = None;
    for t in 0..n {
        if y[t] > 0.0 {
            if alpha[t] > 0.0 {
                if grad[t] > gmax_p2 {
                    gmax_p2 = grad[t];
                }
                if let Some((i, di)) = row_p {
                    let grad_diff = gmax_p + grad[t];
                    if grad_diff > 0.0 {
                        let mut quad = di + q.diag(t) - 2.0 * qp[t];
                        if quad <= 0.0 {
                            quad = TAU;
                        }
                        let obj = -(grad_diff * grad_diff) / quad;
                        if obj <= obj_min {
                            obj_min = obj;
                            best = Some((i, t));
                        }
                    }
                }
            }
        } else if alpha[t] < c[t] {
            if -grad[t] > gmax_n2 {
                gmax_n2 = -grad[t];
            }
            if let Some((i, di)) = row_n {
                let grad_diff = gmax_n - grad[t];
                if grad_diff > 0.0 {
                    let mut quad = di + q.diag(t) - 2.0 * qn[t];
                    if quad <= 0.0 {
                        quad = TAU;
                    }
                    let obj = -(grad_diff * grad_diff) / quad;
                    if obj <= obj_min {
                        obj_min = obj;
                        best = Some((i, t));
                    }
                }
            }
        }
    }
    if gmax_p + gmax_p2 < tolerance && gmax_n + gmax_n2 < tolerance {
        return None;
    }
    best
}

/// `rho` and `r` for the ν-problem: per-group free-variable averages
/// (LIBSVM `Solver_NU::calculate_rho`).
fn compute_rho_nu(grad: &[f64], y: &[f64], c: &[f64], alpha: &[f64]) -> (f64, f64) {
    let group = |sign: f64| {
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        for t in 0..grad.len() {
            if (y[t] > 0.0) != (sign > 0.0) {
                continue;
            }
            if alpha[t] >= c[t] {
                lb = lb.max(grad[t]);
            } else if alpha[t] <= 0.0 {
                ub = ub.min(grad[t]);
            } else {
                sum += grad[t];
                count += 1;
            }
        }
        if count > 0 {
            sum / count as f64
        } else if ub.is_finite() && lb.is_finite() {
            (ub + lb) / 2.0
        } else if ub.is_finite() {
            ub
        } else if lb.is_finite() {
            lb
        } else {
            0.0
        }
    };
    let r1 = group(1.0);
    let r2 = group(-1.0);
    ((r1 - r2) / 2.0, (r1 + r2) / 2.0)
}

/// Second-order working-set selection (WSS2 from Fan, Chen & Lin 2005),
/// restricted to the variables in the ascending `active` list. Leaves row
/// `i` of `Q` in `qi` for the update to reuse.
///
/// Returns `None` when the maximal KKT violation over the active set is
/// below `tolerance`.
#[allow(clippy::too_many_arguments)]
fn select_working_set(
    q: &mut dyn QMatrix,
    grad: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
    tolerance: f64,
    active: &[usize],
    qi: &mut [f64],
) -> Option<(usize, usize)> {
    // i = argmax over I_up of -y_t G_t
    let mut gmax = f64::NEG_INFINITY;
    let mut i_best: Option<usize> = None;
    for &t in active {
        let in_up = if y[t] > 0.0 {
            alpha[t] < c[t]
        } else {
            alpha[t] > 0.0
        };
        if in_up {
            let v = -y[t] * grad[t];
            if v >= gmax {
                gmax = v;
                i_best = Some(t);
            }
        }
    }
    let i = i_best?;
    q.row_into(i, qi);
    let di = q.diag(i);

    let mut gmax2 = f64::NEG_INFINITY;
    let mut obj_min = f64::INFINITY;
    let mut j_best: Option<usize> = None;
    for &t in active {
        let in_low = if y[t] > 0.0 {
            alpha[t] > 0.0
        } else {
            alpha[t] < c[t]
        };
        if !in_low {
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
            // quad = K_ii + K_tt − 2 K_it = Q_ii + Q_tt − 2 y_i y_t Q_it.
            let mut quad = di + q.diag(t) - 2.0 * y[i] * y[t] * qi[t];
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

    fn row_of(q: &mut dyn QMatrix, i: usize) -> Vec<f64> {
        let mut row = vec![0.0; q.len()];
        q.row_into(i, &mut row);
        row
    }

    /// Hand-solvable 2-point classification problem: points -1 and +1 on a
    /// line, labels -1 and +1, linear kernel. The dual optimum is
    /// a_0 = a_1 = min(C, 0.5) and the separating function is f(x) = x·w − rho
    /// with rho = 0.
    #[test]
    fn two_point_svc_dual() {
        let points = DenseMatrix::from_nested(vec![vec![-1.0], vec![1.0]]).unwrap();
        let y = vec![-1.0, 1.0];
        let mut q = PointQ::new(Kernel::Linear, &points, &y, 16);
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
        let mut q = PointQ::new(Kernel::rbf(0.5), &points, &y, 16);
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
        let mut q = PointQ::new(Kernel::rbf(5.0), &points, &y, 8);
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

        let mut q1 = PointQ::new(Kernel::rbf(1.0), &points, &y, 32);
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
        let mut q2 = PointQ::new(Kernel::rbf(1.0), &points, &y, 32);
        let full = solve(&mut q2, &p, &y, &c, vec![0.0; 20], SolveOptions::default());
        assert!(full.objective <= partial.objective + 1e-9);
    }

    /// The prenorm RBF row pass honours its ≤1e-12 tolerance contract on
    /// both Q matrices, and is a bitwise no-op for non-RBF kernels.
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
        let y: Vec<f64> = (0..13)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        for kernel in [Kernel::rbf(0.6), Kernel::Linear] {
            let mut exact = PointQ::new(kernel, &points, &y, 32);
            let mut fast = PointQ::new(kernel, &points, &y, 32).with_prenorm_rows(true);
            for i in 0..points.rows() {
                let a = row_of(&mut exact, i);
                for (av, bv) in a.iter().zip(row_of(&mut fast, i)) {
                    match kernel {
                        Kernel::Rbf { .. } => assert!(
                            (av - bv).abs() <= 1e-12 * av.abs().max(1.0),
                            "PointQ prenorm row drifted: {av} vs {bv}"
                        ),
                        _ => assert_eq!(av.to_bits(), bv.to_bits()),
                    }
                }
            }
            let mut exact = RegressionQ::new(kernel, &points, 32);
            let mut fast = RegressionQ::new(kernel, &points, 32).with_prenorm_rows(true);
            for i in 0..2 * points.rows() {
                let a = row_of(&mut exact, i);
                for (av, bv) in a.iter().zip(row_of(&mut fast, i)) {
                    match kernel {
                        Kernel::Rbf { .. } => assert!(
                            (av - bv).abs() <= 1e-12 * av.abs().max(1.0),
                            "RegressionQ prenorm row drifted: {av} vs {bv}"
                        ),
                        _ => assert_eq!(av.to_bits(), bv.to_bits()),
                    }
                }
            }
        }
    }

    /// RegressionQ implements the sign-expanded matrix correctly:
    /// Q[i][j] = s_i s_j K(i%l, j%l).
    #[test]
    fn regression_q_signs() {
        let points = DenseMatrix::from_nested(vec![vec![0.0], vec![1.0]]).unwrap();
        let mut q = RegressionQ::new(Kernel::Linear, &points, 8);
        assert_eq!(q.len(), 4);
        let row1 = row_of(&mut q, 1); // alpha row for point 1, sign +1
        assert_eq!(row1, vec![0.0, 1.0, -0.0, -1.0]);
        let row3 = row_of(&mut q, 3); // alpha* row for point 1, sign -1
        assert_eq!(row3, vec![-0.0, -1.0, 0.0, 1.0]);
        assert_eq!(q.diag(3), 1.0);
    }
}
