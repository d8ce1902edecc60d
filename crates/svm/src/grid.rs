//! Grid search over SVR hyper-parameters — the paper's `easygrid`
//! protocol: every cell of one fixed log₂ `(C, γ, ε)` grid over the RBF
//! kernel is scored by k-fold cross-validation on one shared fold split,
//! and the cell with the lowest CV MSE wins.

use crate::cv::{fold_mse, kfold_indices, train_test};
use crate::data::Dataset;
use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::svr::SvrParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `C ∈ 2⁻¹, 2¹, …, 2¹¹`, ascending: the order each chain trains them in.
const C_VALUES: [f64; 7] = [0.5, 2.0, 8.0, 32.0, 128.0, 512.0, 2048.0];
/// RBF `γ ∈ 2⁻⁹, 2⁻⁷, …, 2¹`.
const GAMMAS: [f64; 6] = [0.001_953_125, 0.007_812_5, 0.031_25, 0.125, 0.5, 2.0];
/// Tube half-widths `ε`.
const EPSILONS: [f64; 3] = [0.05, 0.1, 0.2];

/// One evaluated grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCell {
    /// The parameters of this cell.
    pub params: SvrParams,
    /// Cross-validated mean squared error.
    pub cv_mse: f64,
}

/// Outcome of [`search`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// All 126 cells in grid order: `C` outermost, then `γ`, then `ε`.
    pub cells: Vec<GridCell>,
    /// The first cell with the lowest CV MSE.
    pub best: GridCell,
}

impl GridSearchResult {
    /// Parameters of the winning cell.
    #[must_use]
    pub fn best_params(&self) -> SvrParams {
        self.best.params
    }

    /// CV MSE of the winning cell.
    #[must_use]
    pub fn best_mse(&self) -> f64 {
        self.best.cv_mse
    }
}

/// Scores every cell of the paper's grid — `C ∈ 2⁻¹‥2¹¹`,
/// `γ ∈ 2⁻⁹‥2¹` (both step 2²) and `ε ∈ {0.05, 0.1, 0.2}`, RBF kernel,
/// 126 cells — by `folds`-fold cross-validation on `data` (already
/// scaled, as `svm-scale` leaves it) and returns them with the winner.
///
/// The fold split is drawn once from `seed`, so every cell is scored on
/// the same folds, as `grid.py` does. A cell's CV MSE is its held-out
/// fold MSEs summed in fold order and divided by `folds`. Work runs on
/// [`available_parallelism`](std::thread::available_parallelism) threads
/// and the result is bit-identical for any thread count.
///
/// # Errors
///
/// [`SvmError::TooFewSamples`] when `data` has fewer samples than
/// `folds`, [`SvmError::InvalidParameter`] when `folds < 2`, and any
/// training error.
pub fn search(data: &Dataset, folds: usize, seed: u64) -> Result<GridSearchResult, SvmError> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    search_on(data, folds, seed, threads)
}

/// [`search`] on up to `threads` worker threads.
///
/// A job is one `(γ, ε, fold)` chain: it trains the seven `C` values in
/// ascending order on that fold's training rows and returns their
/// held-out MSEs. Workers claim jobs from an atomic cursor and keep
/// `(job, outcome)` pairs; the merge re-orders them by job index, so the
/// result does not depend on thread count or completion order. That
/// index-addressed merge is why this module may spawn threads.
fn search_on(
    data: &Dataset,
    folds: usize,
    seed: u64,
    threads: usize,
) -> Result<GridSearchResult, SvmError> {
    let split = kfold_indices(data.len(), folds, &mut StdRng::seed_from_u64(seed))?;
    let jobs = GAMMAS.len() * EPSILONS.len() * folds;
    let workers = threads.clamp(1, jobs);
    let next = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "workers keep (job, outcome) pairs and the merge sorts them by job index"
    )]
    let mut pairs: Vec<(usize, Result<[f64; C_VALUES.len()], SvmError>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::with_capacity(jobs.div_ceil(workers));
                        loop {
                            let job = next.fetch_add(1, Ordering::Relaxed);
                            if job >= jobs {
                                break;
                            }
                            let cell = job / folds;
                            let gamma = GAMMAS[cell / EPSILONS.len()];
                            let epsilon = EPSILONS[cell % EPSILONS.len()];
                            local.push((job, chain(data, &split, job % folds, gamma, epsilon)));
                        }
                        local
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(jobs);
            for handle in handles {
                match handle.join() {
                    Ok(local) => all.extend(local),
                    // A worker panicked (it should not: training returns
                    // errors by value); re-raise on the caller's thread.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            all
        });
    // Index-addressed merge: the cursor hands out each job exactly once,
    // so sorting restores job order, `(γ, ε)`-major with folds innermost.
    pairs.sort_unstable_by_key(|(job, _)| *job);
    let mut chains = Vec::with_capacity(jobs);
    for (_, outcome) in pairs {
        chains.push(outcome?);
    }

    let mut cells = Vec::with_capacity(C_VALUES.len() * GAMMAS.len() * EPSILONS.len());
    for (ci, &c) in C_VALUES.iter().enumerate() {
        for (gi, &gamma) in GAMMAS.iter().enumerate() {
            for (ei, &epsilon) in EPSILONS.iter().enumerate() {
                let first = (gi * EPSILONS.len() + ei) * folds;
                let cv_mse = chains[first..first + folds]
                    .iter()
                    .map(|mses| mses[ci])
                    .sum::<f64>()
                    / folds as f64;
                cells.push(GridCell {
                    params: cell_params(c, gamma, epsilon),
                    cv_mse,
                });
            }
        }
    }
    let best = (1..cells.len()).fold(0, |best, i| {
        if cells[i].cv_mse.total_cmp(&cells[best].cv_mse).is_lt() {
            i
        } else {
            best
        }
    });
    Ok(GridSearchResult {
        best: cells[best],
        cells,
    })
}

/// The held-out MSE of each `C` value, trained in ascending order on the
/// split that holds out fold `held_out`.
fn chain(
    data: &Dataset,
    split: &[Vec<usize>],
    held_out: usize,
    gamma: f64,
    epsilon: f64,
) -> Result<[f64; C_VALUES.len()], SvmError> {
    let (train, test) = train_test(data, split, held_out);
    let mut mses = [0.0; C_VALUES.len()];
    for (mse, &c) in mses.iter_mut().zip(&C_VALUES) {
        *mse = fold_mse(&train, &test, cell_params(c, gamma, epsilon))?;
    }
    Ok(mses)
}

fn cell_params(c: f64, gamma: f64, epsilon: f64) -> SvrParams {
    SvrParams::new()
        .with_c(c)
        .with_epsilon(epsilon)
        .with_kernel(Kernel::rbf(gamma))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_dataset() -> Dataset {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.2]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() + 0.1 * x[0]).collect();
        Dataset::from_parts(crate::matrix::DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
    }

    /// Thirty scaled-looking 3-feature rows with a smooth nonlinear target.
    fn pin_dataset() -> Dataset {
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.37).sin(), (t * 0.61).cos(), (t * 0.13).sin() * 0.8]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                40.0 + 6.0 * x[0]
                    + 3.0 * (2.0 * x[1]).sin()
                    + x[2] * x[0]
                    + 0.2 * (i as f64 * 2.399).sin()
            })
            .collect();
        Dataset::from_parts(crate::matrix::DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
    }

    /// FNV-1a over the little-endian bytes of every cell's
    /// `(C, γ, ε, cv_mse)` bits, in grid order.
    fn cell_digest(cells: &[GridCell]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for cell in cells {
            let gamma = cell.params.kernel().gamma().unwrap();
            for v in [cell.params.c(), gamma, cell.params.epsilon(), cell.cv_mse] {
                for b in v.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// `cell_digest` of `pin_dataset` searched with 4 folds and seed 7,
    /// pinned from the one-cell-per-job search this module replaced (the
    /// paper axes over an RBF base, each cell re-splitting the same folds).
    const PIN_DIGEST: u64 = 0x679f_39e6_2fc3_cf40;

    #[test]
    fn search_matches_its_pinned_cell_digest_at_any_thread_count() {
        let ds = pin_dataset();
        let public = search(&ds, 4, 7).unwrap();
        assert_eq!(cell_digest(&public.cells), PIN_DIGEST);
        assert_eq!(public.best.params.c(), 2048.0);
        assert_eq!(public.best.params.kernel(), Kernel::rbf(0.125));
        assert_eq!(public.best.params.epsilon(), 0.1);
        for threads in [1, 3] {
            let r = search_on(&ds, 4, 7, threads).unwrap();
            assert_eq!(r.cells.len(), public.cells.len());
            for (a, b) in r.cells.iter().zip(&public.cells) {
                assert_eq!(a.params, b.params, "threads={threads}");
                assert_eq!(a.cv_mse.to_bits(), b.cv_mse.to_bits(), "threads={threads}");
            }
            assert_eq!(r.best, public.best, "threads={threads}");
        }
    }

    #[test]
    fn cells_counts_cartesian_product() {
        let result = search_on(&wave_dataset(), 3, 5, 2).unwrap();
        assert_eq!(result.cells.len(), 7 * 6 * 3);
        let mut i = 0;
        for c_exp in (-1..=11).step_by(2) {
            for g_exp in (-9..=1).step_by(2) {
                for epsilon in [0.05, 0.1, 0.2] {
                    let expect = cell_params(2f64.powi(c_exp), 2f64.powi(g_exp), epsilon);
                    assert_eq!(result.cells[i].params, expect, "cell {i}");
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn finds_best_cell_and_it_has_min_mse() {
        let result = search_on(&wave_dataset(), 4, 11, 2).unwrap();
        let min = result
            .cells
            .iter()
            .map(|c| c.cv_mse)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best_mse(), min);
        let first = result.cells.iter().find(|c| c.cv_mse == min).unwrap();
        assert_eq!(result.best_params(), first.params);
    }

    #[test]
    fn grid_beats_default_params_on_wavy_data() {
        let ds = wave_dataset();
        let split = kfold_indices(ds.len(), 5, &mut StdRng::seed_from_u64(3)).unwrap();
        let default_mse = (0..5)
            .map(|f| {
                let (train, test) = train_test(&ds, &split, f);
                fold_mse(&train, &test, SvrParams::new()).unwrap()
            })
            .sum::<f64>()
            / 5.0;
        let best_mse = search_on(&ds, 5, 3, 2).unwrap().best_mse();
        assert!(
            best_mse <= default_mse + 1e-9,
            "{best_mse} vs {default_mse}"
        );
    }

    #[test]
    fn propagates_cv_errors() {
        let ds = Dataset::from_parts(
            crate::matrix::DenseMatrix::from_nested(vec![vec![1.0], vec![2.0]]).unwrap(),
            vec![1.0, 2.0],
        )
        .unwrap();
        assert!(matches!(
            search(&ds, 10, 1),
            Err(SvmError::TooFewSamples { .. })
        ));
        assert!(matches!(
            search(&ds, 1, 1),
            Err(SvmError::InvalidParameter { .. })
        ));
    }
}
