//! Sequential Minimal Optimization (SMO) solver for the ε-SVR dual.
//!
//! This is the same algorithm LIBSVM implements (Fan, Chen & Lin, JMLR 2005):
//! it minimises
//!
//! ```text
//!     min_a  0.5 aᵀ Q a + pᵀ a
//!     s.t.   yᵀ a = Δ,   0 <= a_t <= C
//! ```
//!
//! with `Q_ij = y_i y_j K(x_i, x_j)`, by repeatedly selecting a maximal
//! violating pair with second-order working-set selection (WSS2) and solving
//! the two-variable subproblem analytically.
//!
//! ε-SVR ([`crate::svr`]) over `l` points takes this form with `2l`
//! variables (LIBSVM's `solve_epsilon_svr`): `α_b` at `t = b` with sign
//! `y_t = +1` and `α*_b` at `t = l + b` with `y_t = −1`, all under one `C`.
//! [`solve`] serves that one shape and reads every sign off the index.
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
/// Variable `t` of the `2l`-variable dual sits on base point `b(t) = t`
/// (`α`) or `t − l` (`α*`). The solver forms `Q_it = y_i·y_t·K[b_i][b_t]`
/// with the signs [`sign`] reads off the index. Multiplying by ±1 is
/// exact, so every `Q` entry the solver uses has the bits a stored signed
/// row would.
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

/// Sign `y_t` of variable `t` in a problem over `l` points: +1 on the `α`
/// half, −1 on the `α*` half.
fn sign(t: usize, l: usize) -> f64 {
    if t < l {
        1.0
    } else {
        -1.0
    }
}

/// Row `i` of `Q`, `Q_it = y_i·y_t·K[b_i][b_t]` for every variable `t`,
/// from the kernel row `k = K[b_i]` and the sign `yi = y_i`. For the cold
/// paths only: the initial gradient and the G̅ updates.
fn signed_row(k: &[f64], yi: f64) -> impl Iterator<Item = f64> + '_ {
    let l = k.len();
    k.iter()
        .cycle()
        .take(2 * l)
        .enumerate()
        .map(move |(t, &kt)| yi * sign(t, l) * kt)
}

/// Applies `G_t += Q_it·Δα_i + Q_jt·Δα_j` to the sign-folded gradient
/// `yg_t = y_t·G_t` of every variable, from the kernel rows `ki = K[b_i]`
/// and `kj = K[b_j]` with `yai = y_i·Δα_i` and `yaj = y_j·Δα_j`. Per base
/// point `b` it forms `x = K_i[b]·yai` and `z = K_j[b]·yaj` once; `y_t·x +
/// y_t·z` is bit for bit the signed-row term `Q_it·Δα_i + Q_jt·Δα_j`: the
/// two differ only by factors of ±1.
fn update_gradient(yg: &mut [f64], ki: &[f64], kj: &[f64], yai: f64, yaj: f64) {
    // y_t = +1 on the α half, so `yg_t = G_t` there. On the α* half
    // `G_t = −yg_t` gains `(−x) + (−z)` and the sum is negated back;
    // `yg_t += x + z` would differ on signed zeros.
    let (alpha_half, star_half) = yg.split_at_mut(ki.len());
    for (((g, g_star), &kit), &kjt) in alpha_half.iter_mut().zip(star_half).zip(ki).zip(kj) {
        let (x, z) = (kit * yai, kjt * yaj);
        *g += x + z;
        *g_star = -((-*g_star) + ((-x) + (-z)));
    }
}

/// Adds `±C·Q_t` to G̅ when variable `t`, with sign `yt` and kernel row
/// `k = K[b_t]`, moved across its upper bound from `old` to `new`.
fn update_g_bar(g_bar: &mut [f64], k: &[f64], yt: f64, c: f64, old: f64, new: f64) {
    let is_ub = new >= c;
    if (old >= c) != is_ub {
        let dir = if is_ub { 1.0 } else { -1.0 };
        for (g, qt) in g_bar.iter_mut().zip(signed_row(k, yt)) {
            *g += dir * c * qt;
        }
    }
}

/// Checks the problem shape [`KernelRows`] documents: `2l` variables over
/// `l` points, each with a linear term and a start inside `[0, C]`.
fn debug_check_problem(l: usize, p: &[f64], c: f64, alpha: &[f64]) {
    debug_assert_eq!(p.len(), 2 * l, "{} variables over {l} points", p.len());
    debug_assert_eq!(alpha.len(), 2 * l);
    debug_assert!(c > 0.0, "C = {c}");
    debug_assert!(
        alpha.iter().all(|a| (0.0..=c).contains(a)),
        "the start leaves the box [0, C]"
    );
}

/// The linear term `p` of the ε-SVR dual over `targets` (LIBSVM's
/// `solve_epsilon_svr`): `p_b = ε − y_b` for `α_b` and `p_{l+b} = ε + y_b`
/// for `α*_b`.
pub(crate) fn linear_term(targets: &[f64], epsilon: f64) -> Vec<f64> {
    let alpha_half = targets.iter().map(|y| epsilon - y);
    alpha_half
        .chain(targets.iter().map(|y| epsilon + y))
        .collect()
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
    /// Optimal dual variables: `α` at `0..l`, `α*` at `l..2l`.
    pub alpha: Vec<f64>,
    /// Offset `rho`; the regression function is
    /// `f(x) = Σ_b (α_b − α*_b) K(x_b, x) − rho`.
    pub rho: f64,
    /// Final dual objective value (diagnostic; exercised by tests).
    #[allow(dead_code)]
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the KKT tolerance was reached within the iteration cap.
    pub converged: bool,
}

/// Solves the `2l`-variable dual over the `l` points of `q`. `p` is the
/// linear term, `c` the upper bound of every variable, `alpha` the
/// (feasible) starting point.
pub(crate) fn solve(
    q: &mut KernelRows<'_>,
    p: &[f64],
    c: f64,
    mut alpha: Vec<f64>,
    options: SolveOptions,
) -> Solution {
    let n = p.len();
    let l = q.len();
    debug_check_problem(l, p, c, &alpha);

    // Kernel row K[b_i] of the working variable i, filled by the
    // selection and reused by the update. The partner row K[b_j] is read
    // straight from the cache.
    let mut ki = vec![0.0; l];

    // G_i = (Q a)_i + p_i; G̅_i tracks the bound-variable contribution
    // Σ_{α_j = C} C·Q_ij needed to reconstruct G for shrunk variables.
    let mut grad: Vec<f64> = p.to_vec();
    let mut g_bar = vec![0.0; n];
    for i in 0..n {
        if alpha[i] != 0.0 {
            let ai = alpha[i];
            let at_bound = ai >= c;
            for (t, qit) in signed_row(q.row(base(i, l)), sign(i, l)).enumerate() {
                grad[t] += ai * qit;
                if at_bound {
                    g_bar[t] += c * qit;
                }
            }
        }
    }
    // From here on the gradient is kept sign-folded, `yg_t = y_t·G_t`:
    // the selection reads `y_t·G_t` straight from it, and `G_t = y_t·yg_t`
    // is exact wherever the plain gradient is needed.
    let mut yg = grad;
    for (t, g) in yg.iter_mut().enumerate() {
        *g *= sign(t, l);
    }

    let mut set = WorkingSet::new(c, &alpha);
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
                    &mut yg,
                    &g_bar,
                    p,
                    &alpha,
                    &mut set,
                    &mut unshrunk,
                    options.tolerance,
                );
            }
        }

        let pair = select_working_set(q, &yg, &set, options.tolerance, &mut ki);
        let (i, j) = match pair {
            Some(pair) => pair,
            None => {
                if set.active.len() == n {
                    converged = true;
                    break;
                }
                // Optimal on the shrunk set: reconstruct and re-check on
                // the full set.
                reconstruct_gradient(q, &mut yg, &g_bar, p, c, &alpha, &set.active);
                set.restore();
                match select_working_set(q, &yg, &set, options.tolerance, &mut ki) {
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
        let (yi, yj) = (sign(i, l), sign(j, l));
        let qij = (yi * yj) * ki[bj];
        let old_ai = alpha[i];
        let old_aj = alpha[j];
        let (gi, gj) = (yi * yg[i], yj * yg[j]);

        // LIBSVM clips against C_i and C_j; both are C here, so its
        // `diff > C_i − C_j` and `sum > C_i`/`sum > C_j` tests each
        // collapse to one branch taken before both clips.
        if yi != yj {
            let mut quad = dij + 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (-gi - gj) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
                if alpha[i] > c {
                    alpha[i] = c;
                    alpha[j] = c - diff;
                }
            } else {
                if alpha[i] < 0.0 {
                    alpha[i] = 0.0;
                    alpha[j] = -diff;
                }
                if alpha[j] > c {
                    alpha[j] = c;
                    alpha[i] = c + diff;
                }
            }
        } else {
            let mut quad = dij - 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (gi - gj) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > c {
                if alpha[i] > c {
                    alpha[i] = c;
                    alpha[j] = sum - c;
                }
                if alpha[j] > c {
                    alpha[j] = c;
                    alpha[i] = sum - c;
                }
            } else {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = sum;
                }
                if alpha[i] < 0.0 {
                    alpha[i] = 0.0;
                    alpha[j] = sum;
                }
            }
        }

        let dai = alpha[i] - old_ai;
        let daj = alpha[j] - old_aj;
        if dai == 0.0 && daj == 0.0 {
            // Numerical dead-end on this pair; tolerance effectively reached.
            converged = true;
            break;
        }
        set.classify(i, &alpha);
        set.classify(j, &alpha);
        // Update G densely: the entries of shrunk variables go stale
        // either way, and `reconstruct_gradient` rewrites every one of
        // them before anything reads them…
        update_gradient(&mut yg, &ki, kj, yi * dai, yj * daj);
        // …and G̅ over everything when a variable crosses its upper bound.
        update_g_bar(&mut g_bar, &ki, yi, c, old_ai, alpha[i]);
        update_g_bar(&mut g_bar, kj, yj, c, old_aj, alpha[j]);
    }

    if set.active.len() < n {
        // Hit the iteration cap while shrunk: make the gradient whole so
        // rho and the objective are computed from consistent values.
        reconstruct_gradient(q, &mut yg, &g_bar, p, c, &alpha, &set.active);
    }

    let rho = compute_rho(&yg, c, &alpha);

    // Dual objective: 0.5 aᵀQa + pᵀa = 0.5 Σ a_i (G_i + p_i).
    let objective = 0.5
        * alpha
            .iter()
            .zip(yg.iter().zip(p))
            .enumerate()
            .map(|(t, (a, (g, pi)))| a * (sign(t, l) * g + pi))
            .sum::<f64>();

    // Box feasibility 0 ≤ α_i ≤ C is maintained by every clip above;
    // a violation here means the update arithmetic itself went wrong.
    debug_assert!(
        alpha.iter().all(|a| (-1e-12..=c + 1e-12).contains(a)),
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
/// strictly on the optimal side of both current extremes. `G_t` is read
/// as `y_t·yg_t`.
fn be_shrunk(t: usize, gmax1: f64, gmax2: f64, yg: &[f64], c: f64, alpha: &[f64]) -> bool {
    let l = yg.len() / 2;
    let g = sign(t, l) * yg[t];
    if alpha[t] >= c {
        if t < l {
            -g > gmax1
        } else {
            -g > gmax2
        }
    } else if alpha[t] <= 0.0 {
        if t < l {
            g > gmax2
        } else {
            g > gmax1
        }
    } else {
        false
    }
}

/// Periodic shrink pass (LIBSVM `do_shrinking`): unshrinks everything
/// once when the active set is close to optimal, then drops the
/// variables [`be_shrunk`] flags from `set`.
///
/// Known deviation from LIBSVM: the α* (y = −1) branch swaps the
/// `gmax1`/`gmax2` conditions. LIBSVM sends `+G` into `gmax1` when α > 0
/// and `−G` into `gmax2` when α < C, so that `gmax1 = max over I_up of
/// −y·G` and `gmax2 = max over I_low of y·G`; this loop sends `−G` into
/// `gmax2` when α > 0 and `+G` into `gmax1` when α < C. It only decides
/// which variables are shrunk, never the optimum the final full-set
/// check accepts. Fixing it moves every pinned solve and the vmbench
/// goldens, so it stays until a change that re-pins them on purpose.
#[allow(clippy::too_many_arguments)]
fn do_shrinking(
    q: &mut KernelRows<'_>,
    yg: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    alpha: &[f64],
    set: &mut WorkingSet,
    unshrunk: &mut bool,
    tolerance: f64,
) {
    let (l, c) = (q.len(), set.c);
    // m(α) and M(α) over the active set.
    let mut gmax1 = f64::NEG_INFINITY;
    let mut gmax2 = f64::NEG_INFINITY;
    for &t in &set.active {
        let g = sign(t, l) * yg[t];
        if t < l {
            if alpha[t] < c && -g >= gmax1 {
                gmax1 = -g;
            }
            if alpha[t] > 0.0 && g >= gmax2 {
                gmax2 = g;
            }
        } else {
            if alpha[t] > 0.0 && -g >= gmax2 {
                gmax2 = -g;
            }
            if alpha[t] < c && g >= gmax1 {
                gmax1 = g;
            }
        }
    }

    if !*unshrunk && gmax1 + gmax2 <= tolerance * 10.0 {
        // Close to optimal: bring everyone back once so the final
        // convergence check is exact.
        *unshrunk = true;
        reconstruct_gradient(q, yg, g_bar, p, c, alpha, &set.active);
        set.restore();
    }

    set.retain(|t| !be_shrunk(t, gmax1, gmax2, yg, c, alpha));
}

/// Recomputes G for inactive variables — those missing from the
/// ascending `active` list — from G̅ and the free variables (LIBSVM
/// `reconstruct_gradient`), and stores it sign-folded as `y_t·G_t`. Free
/// variables are never shrunk, so their entries are always current.
fn reconstruct_gradient(
    q: &mut KernelRows<'_>,
    yg: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    c: f64,
    alpha: &[f64],
    active: &[usize],
) {
    let n = yg.len();
    let l = q.len();
    let free: Vec<usize> = (0..n).filter(|&j| alpha[j] > 0.0 && alpha[j] < c).collect();
    let mut next_active = active.iter().copied().peekable();
    for t in 0..n {
        if next_active.next_if_eq(&t).is_some() {
            continue;
        }
        let yt = sign(t, l);
        let kt = q.row(base(t, l));
        let mut g = p[t] + g_bar[t];
        for &j in &free {
            g += alpha[j] * (yt * sign(j, l) * kt[base(j, l)]);
        }
        yg[t] = yt * g;
    }
}

/// The working set as ascending index lists: the active variables, and
/// the active members of I_up and of I_low. The selection scans walk the
/// two member lists, so they visit exactly the candidates a scan of
/// `0..n` would test, in the same order, and every tie resolves the same
/// way. `up`/`low` hold each variable's membership; the lists are rebuilt
/// from them whenever `active` changes and patched when
/// [`WorkingSet::classify`] moves a variable in or out.
struct WorkingSet {
    /// The upper bound `C` of every variable.
    c: f64,
    active: Vec<usize>,
    up: Vec<bool>,
    low: Vec<bool>,
    up_list: Vec<usize>,
    low_list: Vec<usize>,
}

impl WorkingSet {
    /// Every variable active, classified at `alpha`.
    fn new(c: f64, alpha: &[f64]) -> Self {
        let n = alpha.len();
        let (up, low) = (0..n).map(|t| membership(t, c, alpha)).unzip();
        let mut set = WorkingSet {
            c,
            active: (0..n).collect(),
            up,
            low,
            up_list: Vec::with_capacity(n),
            low_list: Vec::with_capacity(n),
        };
        set.rebuild();
        set
    }

    /// Re-classifies active variable `t` after α_t moved, patching the
    /// member lists where its membership changed.
    fn classify(&mut self, t: usize, alpha: &[f64]) {
        debug_assert!(self.active.binary_search(&t).is_ok(), "{t} is not active");
        let (up, low) = membership(t, self.c, alpha);
        if up != self.up[t] {
            self.up[t] = up;
            toggle(&mut self.up_list, t, up);
        }
        if low != self.low[t] {
            self.low[t] = low;
            toggle(&mut self.low_list, t, low);
        }
    }

    /// Keeps the active variables `keep` accepts.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        self.active.retain(|&t| keep(t));
        self.rebuild();
    }

    /// Makes every variable active again.
    fn restore(&mut self) {
        self.active.clear();
        self.active.extend(0..self.up.len());
        self.rebuild();
    }

    fn rebuild(&mut self) {
        let WorkingSet {
            active,
            up,
            low,
            up_list,
            low_list,
            ..
        } = self;
        up_list.clear();
        up_list.extend(active.iter().copied().filter(|&t| up[t]));
        low_list.clear();
        low_list.extend(active.iter().copied().filter(|&t| low[t]));
    }
}

/// Whether variable `t` of the `2l` in `alpha` is in I_up (α_t can move
/// up along y_t) and in I_low (it can move down), as LIBSVM's
/// `is_upper_bound`/`is_lower_bound` tests combine with the sign.
fn membership(t: usize, c: f64, alpha: &[f64]) -> (bool, bool) {
    let (below_c, above_zero) = (alpha[t] < c, alpha[t] > 0.0);
    if t < alpha.len() / 2 {
        (below_c, above_zero)
    } else {
        (above_zero, below_c)
    }
}

/// Inserts `t` into the ascending `list` when it became a `member`, and
/// removes it when it stopped being one.
fn toggle(list: &mut Vec<usize>, t: usize, member: bool) {
    let at = list.partition_point(|&s| s < t);
    if member {
        list.insert(at, t);
    } else {
        debug_assert_eq!(list.get(at), Some(&t));
        list.remove(at);
    }
}

/// Second-order working-set selection (WSS2 from Fan, Chen & Lin 2005)
/// over the active members of I_up and I_low, reading `y_t·G_t` from the
/// sign-folded gradient `yg`. Leaves the kernel row `K[b_i]` in `ki` for
/// the update to reuse.
///
/// Returns `None` when the maximal KKT violation over the active set is
/// below `tolerance`.
fn select_working_set(
    q: &mut KernelRows<'_>,
    yg: &[f64],
    set: &WorkingSet,
    tolerance: f64,
    ki: &mut [f64],
) -> Option<(usize, usize)> {
    // i = argmax over I_up of -y_t G_t
    let mut gmax = f64::NEG_INFINITY;
    let mut i_best: Option<usize> = None;
    for &t in &set.up_list {
        let v = -yg[t];
        if v >= gmax {
            gmax = v;
            i_best = Some(t);
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
    for &t in &set.low_list {
        // Stopping criterion tracks max over I_low of y_t G_t, so that
        // gmax + gmax2 = m(α) − M(α), the maximal KKT violation.
        let ygt = yg[t];
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

/// Computes `rho` from the final sign-folded gradient `yg`, as LIBSVM
/// does: average of `y_t G_t` over free variables, else the midpoint of
/// the active bounds.
fn compute_rho(yg: &[f64], c: f64, alpha: &[f64]) -> f64 {
    let l = yg.len() / 2;
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut free_sum = 0.0;
    let mut free_count = 0usize;
    for (t, &ygt) in yg.iter().enumerate() {
        if alpha[t] >= c {
            if t >= l {
                upper = upper.min(ygt);
            } else {
                lower = lower.max(ygt);
            }
        } else if alpha[t] <= 0.0 {
            if t < l {
                upper = upper.min(ygt);
            } else {
                lower = lower.max(ygt);
            }
        } else {
            free_sum += ygt;
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

    /// `Σα − Σα*`, which every solve keeps at its start's value.
    fn balance(alpha: &[f64]) -> f64 {
        let (a, a_star) = alpha.split_at(alpha.len() / 2);
        a.iter().sum::<f64>() - a_star.iter().sum::<f64>()
    }

    /// Reference row `i` of `Q` as explicitly signed values: the exact
    /// batch kernel row times `y_i·y_t`.
    fn signed_q_row(kernel: Kernel, points: &DenseMatrix, i: usize) -> Vec<f64> {
        let l = points.rows();
        let mut k = vec![0.0; l];
        kernel.eval_row_batch(points.row(base(i, l)), points, &mut k);
        (0..2 * l)
            .map(|t| k[base(t, l)] * (sign(i, l) * sign(t, l)))
            .collect()
    }

    /// Hand-solvable 2-point regression: points −1 and +1 on a line,
    /// targets −1 and +1, linear kernel, ε = 0.1. The flattest function
    /// inside the tube is f(x) = 0.9·x, so β = α − α* is (−0.45, 0.45):
    /// α_1 = α*_0 = 0.45, the other two variables stay 0, and rho = 0.
    #[test]
    fn two_point_svr_dual() {
        let points = DenseMatrix::from_nested(vec![vec![-1.0], vec![1.0]]).unwrap();
        let mut q = KernelRows::new(Kernel::Linear, &points, 16);
        let p = linear_term(&[-1.0, 1.0], 0.1);
        let sol = solve(&mut q, &p, 10.0, vec![0.0; 4], SolveOptions::default());
        assert!(sol.converged);
        for (t, want) in [0.0, 0.45, 0.45, 0.0].into_iter().enumerate() {
            assert!(
                (sol.alpha[t] - want).abs() < 1e-6,
                "alpha = {:?}",
                sol.alpha
            );
        }
        assert!(sol.rho.abs() < 1e-6);
    }

    /// The equality constraint Σα = Σα* holds at the end of a solve from
    /// α = 0, and every variable stays in the box 0 ≤ α ≤ C.
    #[test]
    fn solution_satisfies_equality_constraint() {
        let points = DenseMatrix::from_nested(
            (0..12)
                .map(|i| vec![i as f64 * 0.3, (i as f64 * 0.7).sin()])
                .collect(),
        )
        .unwrap();
        let targets: Vec<f64> = (0..12).map(|i| (i as f64 * 1.1).cos() * 2.0).collect();
        let mut q = KernelRows::new(Kernel::rbf(0.5), &points, 16);
        let p = linear_term(&targets, 0.1);
        let c = 1.0;
        let sol = solve(&mut q, &p, c, vec![0.0; 24], SolveOptions::default());
        let balance = balance(&sol.alpha);
        assert!(balance.abs() < 1e-9, "balance = {balance}");
        assert!(sol.alpha.iter().any(|&a| a >= c), "no variable at C");
        for (t, a) in sol.alpha.iter().enumerate() {
            assert!(
                *a >= -1e-12 && *a <= c + 1e-12,
                "alpha[{t}] = {a} out of box"
            );
        }
    }

    /// A solve from a feasible non-zero start, with variables at C on
    /// both halves (so G̅ starts non-zero and the shrink passes rebuild
    /// gradients from it), reaches the optimum of the solve from α = 0.
    #[test]
    fn solve_from_a_feasible_start_reaches_the_same_optimum() {
        let points =
            DenseMatrix::from_nested((0..24).map(|i| vec![(i as f64 * 0.9).sin()]).collect())
                .unwrap();
        let targets: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).cos() * 3.0).collect();
        let p = linear_term(&targets, 0.01);
        let (l, c) = (targets.len(), 64.0);
        let options = SolveOptions {
            tolerance: 1e-9,
            ..SolveOptions::default()
        };
        let solve_from = |alpha: Vec<f64>| {
            let mut q = KernelRows::new(Kernel::rbf(2.0), &points, 64);
            solve(&mut q, &p, c, alpha, options)
        };
        // Σα = Σα*: one variable at C and one at C/2 on each half.
        let mut start = vec![0.0; 2 * l];
        start[0] = c;
        start[l + 1] = c;
        start[3] = 0.5 * c;
        start[l + 5] = 0.5 * c;
        let warm = solve_from(start);
        let cold = solve_from(vec![0.0; 2 * l]);
        assert!(warm.converged && cold.converged);
        assert!(balance(&warm.alpha).abs() < 1e-9);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-9 * cold.objective.abs(),
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    /// With a tiny iteration cap the solver reports non-convergence instead
    /// of spinning.
    #[test]
    fn iteration_cap_reported() {
        let points =
            DenseMatrix::from_nested((0..40).map(|i| vec![(i as f64 * 1.37).sin()]).collect())
                .unwrap();
        let targets: Vec<f64> = (0..40)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut q = KernelRows::new(Kernel::rbf(5.0), &points, 8);
        let p = linear_term(&targets, 0.1);
        let sol = solve(
            &mut q,
            &p,
            100.0,
            vec![0.0; 80],
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
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { -1.0 }).collect();
        let p = linear_term(&targets, 0.1);

        let mut q1 = KernelRows::new(Kernel::rbf(1.0), &points, 32);
        let partial = solve(
            &mut q1,
            &p,
            1.0,
            vec![0.0; 40],
            SolveOptions {
                tolerance: 1e-3,
                max_iterations: 3,
                shrinking: true,
            },
        );
        let mut q2 = KernelRows::new(Kernel::rbf(1.0), &points, 32);
        let full = solve(&mut q2, &p, 1.0, vec![0.0; 40], SolveOptions::default());
        assert!(full.objective <= partial.objective + 1e-9);
    }

    /// The prenorm RBF row pass honours its ≤1e-12 tolerance contract on
    /// every `Q` entry, and is a bitwise no-op for non-RBF kernels.
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
            for i in 0..2 * l {
                let exact = signed_q_row(kernel, &points, i);
                let got: Vec<f64> = signed_row(fast.row(base(i, l)), sign(i, l)).collect();
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

    /// The solver's `Q` entries `y_i·y_t·K[b_i][b_t]` equal explicitly
    /// signed rows bit for bit, signed zeros included.
    #[test]
    fn regression_q_signs() {
        let points = DenseMatrix::from_nested(vec![vec![0.0], vec![1.0]]).unwrap();
        let mut q = KernelRows::new(Kernel::Linear, &points, 8);
        // α row for point 1 (sign +1), then α* row for point 1 (sign −1).
        let row1: Vec<f64> = signed_row(q.row(base(1, 2)), sign(1, 2)).collect();
        assert_eq!(bits(&row1), bits(&[0.0, 1.0, -0.0, -1.0]));
        let row3: Vec<f64> = signed_row(q.row(base(3, 2)), sign(3, 2)).collect();
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
        for i in 0..2 * l {
            let got: Vec<f64> = signed_row(q.row(base(i, l)), sign(i, l)).collect();
            let want = signed_q_row(Kernel::Linear, &points, i);
            assert_eq!(bits(&got), bits(&want), "row {i}");
        }
    }

    /// The dense update of the sign-folded gradient equals
    /// `y∘(G + Q_i·Δα_i + Q_j·Δα_j)` from signed rows bit for bit,
    /// including the signed zeros that `yg += x + z` on the α* half or
    /// `−(x + z)` would get wrong.
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
        let n = 2 * l;
        let kernel = Kernel::Linear;
        let mut q = KernelRows::new(kernel, &points, 8);
        let y: Vec<f64> = (0..n).map(|t| sign(t, l)).collect();
        let start: Vec<f64> = (0..n)
            .map(|t| if t % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        for (i, j) in [(0, 1), (1, n - 1), (n - 1, 3), (l, l + 3)] {
            let qi = signed_q_row(kernel, &points, i);
            let qj = signed_q_row(kernel, &points, j);
            for (dai, daj) in [(0.25, -0.5), (0.0, -0.0), (-0.0, 0.0), (1e-300, 3.0)] {
                let want: Vec<f64> = (0..n)
                    .map(|t| y[t] * (start[t] + (qi[t] * dai + qj[t] * daj)))
                    .collect();
                let ki = q.row(base(i, l)).to_vec();
                let kj = q.row(base(j, l));
                let mut got: Vec<f64> = start.iter().zip(&y).map(|(g, yt)| yt * g).collect();
                update_gradient(&mut got, &ki, kj, y[i] * dai, y[j] * daj);
                assert_eq!(bits(&got), bits(&want), "i={i} j={j} Δ=({dai}, {daj})");
            }
        }
    }

    /// Panics unless `set`'s member lists are the ascending filters of
    /// its ascending `active` list by the flags, and every flag matches
    /// [`membership`] at `alpha`.
    fn check_lists(set: &WorkingSet, alpha: &[f64]) {
        assert!(
            set.active.windows(2).all(|w| w[0] < w[1]),
            "{:?}",
            set.active
        );
        for t in 0..alpha.len() {
            assert_eq!(
                (set.up[t], set.low[t]),
                membership(t, set.c, alpha),
                "flags of {t}"
            );
        }
        let filter = |flags: &[bool]| -> Vec<usize> {
            set.active.iter().copied().filter(|&t| flags[t]).collect()
        };
        assert_eq!(set.up_list, filter(&set.up), "I_up list");
        assert_eq!(set.low_list, filter(&set.low), "I_low list");
    }

    proptest::proptest! {
        /// After any sequence of α moves on active variables (each
        /// followed by `classify`, as the solver does), shrinks and
        /// restores, the I_up/I_low lists are exactly the active members
        /// of each set, in ascending order, on both halves.
        #[test]
        fn member_lists_track_classify_shrink_and_restore(
            l in 1usize..20,
            c in 0.5f64..4.0,
            ops in proptest::collection::vec(0usize..24_000, 0..200),
        ) {
            let n = 2 * l;
            let mut alpha: Vec<f64> = (0..n).map(|t| c * (t % 3) as f64 / 2.0).collect();
            let mut set = WorkingSet::new(c, &alpha);
            check_lists(&set, &alpha);
            for code in ops {
                // An op (0..8), a pick (0..1000) and an α level (0..3).
                let (pick, level) = (code / 8 % 1000, code / 8000);
                match code % 8 {
                    0..=5 if !set.active.is_empty() => {
                        let t = set.active[pick % set.active.len()];
                        alpha[t] = c * level as f64 / 2.0;
                        set.classify(t, &alpha);
                    }
                    6 => set.retain(|t| (t * 7 + pick) % 3 != 0),
                    _ => set.restore(),
                }
                check_lists(&set, &alpha);
            }
        }
    }
}
