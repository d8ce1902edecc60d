//! K-fold cross-validation.
//!
//! The paper selects SVR hyper-parameters "using easygrid … with 10-fold
//! validation"; [`kfold_indices`] draws the one fold split that
//! [`grid::search`](crate::grid::search) scores every cell on.

use crate::data::Dataset;
use crate::error::SvmError;
use crate::metrics;
use crate::svr::{SvrModel, SvrParams};
use rand::seq::SliceRandom;
use rand::Rng;
use vmtherm_obs::{self as obs, names};

static OBS_FOLDS: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_CV_FOLDS);

/// Splits `n` sample indices into `k` disjoint folds of near-equal size
/// (sizes differ by at most one), shuffled with `rng`.
///
/// # Errors
///
/// [`SvmError::TooFewSamples`] if `n < k`, and
/// [`SvmError::InvalidParameter`] if `k < 2`.
pub fn kfold_indices<R: Rng>(n: usize, k: usize, rng: &mut R) -> Result<Vec<Vec<usize>>, SvmError> {
    if k < 2 {
        return Err(SvmError::invalid(
            "k",
            format!("need at least 2 folds, got {k}"),
        ));
    }
    if n < k {
        return Err(SvmError::TooFewSamples {
            samples: n,
            required: k,
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut folds = vec![Vec::with_capacity(n / k + 1); k];
    for (pos, idx) in order.into_iter().enumerate() {
        folds[pos % k].push(idx);
    }
    Ok(folds)
}

/// The training and held-out rows when fold `held_out` of `folds` is held
/// out: the other folds concatenated in fold order, and the fold itself.
pub(crate) fn train_test(
    data: &Dataset,
    folds: &[Vec<usize>],
    held_out: usize,
) -> (Dataset, Dataset) {
    let train_idx: Vec<usize> = folds
        .iter()
        .enumerate()
        .filter(|(f, _)| *f != held_out)
        .flat_map(|(_, fold)| fold)
        .copied()
        .collect();
    (data.subset(&train_idx), data.subset(&folds[held_out]))
}

/// One cross-validation solve: trains on `train` and returns the model's
/// mean squared error on `test`.
///
/// # Errors
///
/// Propagates training and prediction errors.
pub(crate) fn fold_mse(
    train: &Dataset,
    test: &Dataset,
    params: SvrParams,
) -> Result<f64, SvmError> {
    let _span = obs::span(names::SPAN_CV_FOLD);
    OBS_FOLDS.inc();
    let model = SvrModel::train(train, params)?;
    let preds = model.predict_dataset(test)?;
    Ok(metrics::mse(test.targets(), &preds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn folds_partition_all_indices() {
        let mut rng = StdRng::seed_from_u64(1);
        let folds = kfold_indices(23, 5, &mut rng).unwrap();
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn fold_sizes_differ_by_at_most_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let folds = kfold_indices(10, 3, &mut rng).unwrap();
        let sizes: Vec<usize> = folds.iter().map(Vec::len).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes = {sizes:?}");
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            kfold_indices(3, 5, &mut rng),
            Err(SvmError::TooFewSamples {
                samples: 3,
                required: 5
            })
        ));
    }

    #[test]
    fn one_fold_is_an_error() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(kfold_indices(10, 1, &mut rng).is_err());
    }

    #[test]
    fn folds_are_seed_deterministic() {
        let a = kfold_indices(20, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = kfold_indices(20, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cv_on_learnable_function_has_low_mse() {
        // y = 2x + 1, easily learnable: every fold's MSE must be small.
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 1.0).collect();
        let ds =
            Dataset::from_parts(crate::matrix::DenseMatrix::from_nested(xs).unwrap(), ys).unwrap();
        let params = SvrParams::new()
            .with_c(100.0)
            .with_epsilon(0.01)
            .with_kernel(Kernel::Linear);
        let folds = kfold_indices(ds.len(), 5, &mut StdRng::seed_from_u64(4)).unwrap();
        let mut total = 0.0;
        for held_out in 0..5 {
            let (train, test) = train_test(&ds, &folds, held_out);
            assert_eq!(train.len() + test.len(), ds.len());
            total += fold_mse(&train, &test, params).unwrap();
        }
        assert!(total / 5.0 < 0.05, "mean mse = {}", total / 5.0);
    }

    #[test]
    fn cv_mean_is_mean_of_folds() {
        // Every grid cell's CV MSE is its fold MSEs, each trained on the
        // other folds in fold order, summed in fold order over k.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i) * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin()).collect();
        let ds =
            Dataset::from_parts(crate::matrix::DenseMatrix::from_nested(xs).unwrap(), ys).unwrap();
        let result = crate::grid::search(&ds, 4, 5).unwrap();
        let folds = kfold_indices(ds.len(), 4, &mut StdRng::seed_from_u64(5)).unwrap();
        let n = result.cells.len();
        for cell in [
            result.cells[0],
            result.best,
            result.cells[n / 2],
            result.cells[n - 1],
        ] {
            let mses: Vec<f64> = (0..4)
                .map(|f| {
                    let (train, test) = train_test(&ds, &folds, f);
                    fold_mse(&train, &test, cell.params).unwrap()
                })
                .collect();
            let mean = mses.iter().sum::<f64>() / 4.0;
            assert_eq!(cell.cv_mse.to_bits(), mean.to_bits(), "{:?}", cell.params);
        }
    }
}
