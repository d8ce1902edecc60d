//! Grid search over SVR hyper-parameters — a reimplementation of the
//! `easygrid`/`grid.py` protocol the paper uses: exhaustive search over
//! log₂-spaced `(C, γ)` (and optionally `ε`) cells, each scored by k-fold
//! cross-validation, best cell wins.

use crate::cv::cross_validate_svr;
use crate::data::Dataset;
use crate::error::SvmError;
use crate::svr::SvrParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A log₂-spaced range, e.g. `Log2Range::new(-5, 15, 2)` generates
/// `2⁻⁵, 2⁻³, …, 2¹⁵` — the spacing `grid.py` defaults to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Range {
    begin: i32,
    end: i32,
    step: i32,
}

impl Log2Range {
    /// Inclusive range of exponents with the given positive step.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0` or `begin > end`.
    #[must_use]
    pub fn new(begin: i32, end: i32, step: i32) -> Self {
        assert!(step > 0, "log2 range step must be positive");
        assert!(begin <= end, "log2 range is empty: {begin}..={end}");
        Log2Range { begin, end, step }
    }

    /// The values `2^e` for each exponent in the range.
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        (self.begin..=self.end)
            .step_by(self.step as usize)
            .map(|e| 2f64.powi(e))
            .collect()
    }
}

/// Configuration of a grid search. Defaults mirror `grid.py`:
/// `C ∈ 2⁻⁵‥2¹⁵ (step 2)`, `γ ∈ 2⁻¹⁵‥2³ (step 2)`, fixed ε, 10 folds.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    c_range: Vec<f64>,
    gamma_range: Vec<f64>,
    epsilon_range: Vec<f64>,
    base: SvrParams,
    folds: usize,
    seed: u64,
    threads: usize,
}

impl GridSearch {
    /// A grid with `grid.py`-style default ranges.
    #[must_use]
    pub fn new() -> Self {
        GridSearch {
            c_range: Log2Range::new(-5, 15, 2).values(),
            gamma_range: Log2Range::new(-15, 3, 2).values(),
            epsilon_range: vec![0.1],
            base: SvrParams::new(),
            folds: 10,
            seed: 0x5eed,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Replaces the `C` candidates.
    #[must_use]
    pub fn with_c_values(mut self, values: Vec<f64>) -> Self {
        self.c_range = values;
        self
    }

    /// Replaces the `γ` candidates.
    #[must_use]
    pub fn with_gamma_values(mut self, values: Vec<f64>) -> Self {
        self.gamma_range = values;
        self
    }

    /// Replaces the `ε` candidates (default: just `0.1`).
    #[must_use]
    pub fn with_epsilon_values(mut self, values: Vec<f64>) -> Self {
        self.epsilon_range = values;
        self
    }

    /// Base parameters the grid mutates (kernel family, tolerance, …).
    #[must_use]
    pub fn with_base_params(mut self, base: SvrParams) -> Self {
        self.base = base;
        self
    }

    /// Number of cross-validation folds (paper: 10).
    #[must_use]
    pub fn with_folds(mut self, folds: usize) -> Self {
        self.folds = folds;
        self
    }

    /// Seed for the fold shuffles, for reproducible searches.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps worker threads (default: available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of grid cells that will be evaluated.
    #[must_use]
    pub fn cells(&self) -> usize {
        let gamma_cells = if self.base.kernel().gamma().is_some() {
            self.gamma_range.len()
        } else {
            1
        };
        self.c_range.len() * gamma_cells * self.epsilon_range.len()
    }

    /// Runs the search and returns every scored cell plus the winner.
    ///
    /// Cells are scored with the same fold split (same seed) so scores are
    /// comparable, exactly as `grid.py` reuses its folds. Work is spread
    /// over up to `threads` OS threads; each worker keeps `(index, score)`
    /// pairs for the cells it claimed and the merge re-orders them by cell
    /// index, so the result is bit-identical for any thread count and
    /// completion order (the index-addressed pattern rule L9 requires of
    /// this module).
    ///
    /// # Errors
    ///
    /// Propagates cross-validation errors (e.g. too few samples for the
    /// fold count, invalid base parameters), and rejects an empty grid
    /// (some candidate range was set to no values).
    pub fn run(&self, data: &Dataset) -> Result<GridSearchResult, SvmError> {
        let mut cells: Vec<SvrParams> = Vec::with_capacity(self.cells());
        let gamma_values: Vec<Option<f64>> = if self.base.kernel().gamma().is_some() {
            self.gamma_range.iter().copied().map(Some).collect()
        } else {
            vec![None]
        };
        for &c in &self.c_range {
            for &g in &gamma_values {
                for &e in &self.epsilon_range {
                    let mut p = self.base.with_c(c).with_epsilon(e);
                    if let Some(g) = g {
                        p = p.with_kernel(p.kernel().with_gamma(g));
                    }
                    cells.push(p);
                }
            }
        }
        if cells.is_empty() {
            return Err(SvmError::invalid(
                "grid",
                "empty parameter grid: no (C, gamma, epsilon) candidates",
            ));
        }

        let folds = self.folds;
        let seed = self.seed;
        let next = std::sync::atomic::AtomicUsize::new(0);
        // Work-stealing over an atomic cursor; every claimed index yields
        // exactly one (index, outcome) pair in some worker's local vector.
        let mut pairs: Vec<(usize, Result<f64, SvmError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads.min(cells.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= cells.len() {
                                break;
                            }
                            let mut rng = StdRng::seed_from_u64(seed);
                            let outcome = cross_validate_svr(data, cells[i], folds, &mut rng)
                                .map(|cv| cv.mean_mse);
                            local.push((i, outcome));
                        }
                        local
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(cells.len());
            for handle in handles {
                match handle.join() {
                    Ok(local) => all.extend(local),
                    // A worker panicked (it should not: CV returns errors
                    // by value); re-raise on the caller's thread.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            all
        });
        // Index-addressed merge: the atomic cursor hands out each index
        // exactly once, so sorting the claimed pairs restores grid order
        // and pairs/cells zip one-to-one.
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let mut scored = Vec::with_capacity(cells.len());
        for (params, (_, outcome)) in cells.into_iter().zip(pairs) {
            scored.push(GridCell {
                params,
                cv_mse: outcome?,
            });
        }

        let best = scored
            .iter()
            .min_by(|a, b| a.cv_mse.total_cmp(&b.cv_mse))
            .copied()
            .ok_or_else(|| SvmError::invalid("grid", "empty parameter grid"))?;
        Ok(GridSearchResult {
            cells: scored,
            best,
        })
    }
}

impl Default for GridSearch {
    fn default() -> Self {
        Self::new()
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCell {
    /// The parameters of this cell.
    pub params: SvrParams,
    /// Cross-validated mean squared error.
    pub cv_mse: f64,
}

/// Outcome of [`GridSearch::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// All evaluated cells, in grid order.
    pub cells: Vec<GridCell>,
    /// The cell with the lowest CV MSE.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    fn wave_dataset() -> Dataset {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.2]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() + 0.1 * x[0]).collect();
        Dataset::from_parts(crate::matrix::DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
    }

    #[test]
    fn log2_range_values() {
        assert_eq!(Log2Range::new(-1, 3, 2).values(), vec![0.5, 2.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn log2_range_rejects_reversed() {
        let _ = Log2Range::new(3, 1, 1);
    }

    #[test]
    fn cells_counts_cartesian_product() {
        let g = GridSearch::new()
            .with_c_values(vec![1.0, 2.0])
            .with_gamma_values(vec![0.1, 0.2, 0.4])
            .with_epsilon_values(vec![0.1]);
        assert_eq!(g.cells(), 6);
    }

    #[test]
    fn linear_kernel_ignores_gamma_axis() {
        let g = GridSearch::new()
            .with_c_values(vec![1.0, 2.0])
            .with_gamma_values(vec![0.1, 0.2, 0.4])
            .with_base_params(SvrParams::new().with_kernel(Kernel::Linear));
        assert_eq!(g.cells(), 2);
    }

    #[test]
    fn finds_best_cell_and_it_has_min_mse() {
        let ds = wave_dataset();
        let g = GridSearch::new()
            .with_c_values(vec![0.1, 10.0])
            .with_gamma_values(vec![0.01, 1.0])
            .with_folds(4)
            .with_seed(11);
        let result = g.run(&ds).unwrap();
        assert_eq!(result.cells.len(), 4);
        let min = result
            .cells
            .iter()
            .map(|c| c.cv_mse)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best_mse(), min);
    }

    #[test]
    fn search_is_deterministic_across_thread_counts() {
        let ds = wave_dataset();
        let base = GridSearch::new()
            .with_c_values(vec![1.0, 4.0])
            .with_gamma_values(vec![0.5, 2.0])
            .with_folds(3)
            .with_seed(7);
        let serial = base.clone().with_threads(1).run(&ds).unwrap();
        let parallel = base.with_threads(4).run(&ds).unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.params, b.params);
            assert!((a.cv_mse - b.cv_mse).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_beats_default_params_on_wavy_data() {
        let ds = wave_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let default_mse = crate::cv::cross_validate_svr(&ds, SvrParams::new(), 5, &mut rng)
            .unwrap()
            .mean_mse;
        let best = GridSearch::new()
            .with_c_values(Log2Range::new(-1, 9, 2).values())
            .with_gamma_values(Log2Range::new(-7, 1, 2).values())
            .with_epsilon_values(vec![0.05, 0.1])
            .with_base_params(SvrParams::new().with_kernel(Kernel::rbf(1.0)))
            .with_folds(5)
            .with_seed(3)
            .run(&ds)
            .unwrap()
            .best_params();
        let mut rng = StdRng::seed_from_u64(3);
        let best_mse = crate::cv::cross_validate_svr(&ds, best, 5, &mut rng)
            .unwrap()
            .mean_mse;
        assert!(
            best_mse <= default_mse + 1e-9,
            "{best_mse} vs {default_mse}"
        );
    }

    #[test]
    fn empty_grid_is_rejected_not_panicked() {
        let ds = wave_dataset();
        let g = GridSearch::new().with_c_values(vec![]);
        assert!(matches!(g.run(&ds), Err(SvmError::InvalidParameter { .. })));
    }

    #[test]
    fn propagates_cv_errors() {
        let ds = Dataset::from_parts(
            crate::matrix::DenseMatrix::from_nested(vec![vec![1.0], vec![2.0]]).unwrap(),
            vec![1.0, 2.0],
        )
        .unwrap();
        let g = GridSearch::new().with_folds(10);
        assert!(matches!(g.run(&ds), Err(SvmError::TooFewSamples { .. })));
    }
}
