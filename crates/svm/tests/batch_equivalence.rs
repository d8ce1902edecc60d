//! Property-based proof that the batch prediction path is *bit-identical*
//! to the scalar path: for random datasets and every kernel family,
//! `predict_batch` over a query matrix must reproduce per-row `predict`
//! exactly (`f64::to_bits` equality), not merely within a tolerance. This
//! is the contract that lets the pipeline swap freely between the two.

use proptest::prelude::*;
use vmtherm_svm::data::Dataset;
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::matrix::DenseMatrix;
use vmtherm_svm::oneclass::{OneClassModel, OneClassParams};
use vmtherm_svm::svc::{SvcModel, SvcParams};
use vmtherm_svm::svr::{SvrModel, SvrParams};

/// Deterministic pseudo-random feature from indices, as in
/// `solver_properties.rs`: proptest only shrinks the small generators.
fn feature(i: usize, j: usize, salt: u64) -> f64 {
    let x = (i as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64 + 1).wrapping_mul(salt | 1));
    (x >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
}

fn kernel_for(idx: u8) -> Kernel {
    match idx % 4 {
        0 => Kernel::Linear,
        1 => Kernel::rbf(0.5),
        2 => Kernel::Polynomial {
            gamma: 0.3,
            coef0: 1.0,
            degree: 3,
        },
        _ => Kernel::Sigmoid {
            gamma: 0.2,
            coef0: 0.1,
        },
    }
}

fn random_matrix(rows: usize, cols: usize, salt: u64) -> DenseMatrix {
    let nested: Vec<Vec<f64>> = (0..rows)
        .map(|i| (0..cols).map(|j| feature(i, j, salt)).collect())
        .collect();
    DenseMatrix::from_nested(nested).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ε-SVR: `predict_batch` ≡ per-row `predict`, bit for bit.
    #[test]
    fn svr_batch_matches_scalar_bitwise(
        n in 6usize..24,
        dim in 1usize..6,
        salt in 1u64..1000,
        kernel_idx in 0u8..4,
    ) {
        let features = random_matrix(n, dim, salt);
        let ys: Vec<f64> = features
            .iter()
            .map(|x| x.iter().sum::<f64>().sin() * 2.0)
            .collect();
        let ds = Dataset::from_parts(features, ys).unwrap();
        let model = SvrModel::train(
            &ds,
            SvrParams::new()
                .with_c(10.0)
                .with_epsilon(0.05)
                .with_kernel(kernel_for(kernel_idx)),
        )
        .unwrap();

        let queries = random_matrix(8, dim, salt.wrapping_mul(31).wrapping_add(7));
        let batch = model.predict_batch(&queries).unwrap();
        prop_assert_eq!(batch.len(), queries.rows());
        for (row, got) in queries.iter().zip(&batch) {
            let scalar = model.predict(row).unwrap();
            prop_assert_eq!(
                scalar.to_bits(),
                got.to_bits(),
                "batch {} != scalar {} for row {:?}",
                got,
                scalar,
                row
            );
        }
    }

    /// C-SVC: `predict_batch` labels match per-row `classify`, bit for bit.
    #[test]
    fn svc_batch_matches_scalar_bitwise(
        n in 4usize..16,
        dim in 1usize..5,
        salt in 1u64..1000,
        kernel_idx in 0u8..4,
    ) {
        let features = random_matrix(2 * n, dim, salt);
        let ys: Vec<f64> = (0..2 * n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let ds = Dataset::from_parts(features, ys).unwrap();
        let model = SvcModel::train(
            &ds,
            SvcParams::new().with_c(5.0).with_kernel(kernel_for(kernel_idx)),
        )
        .unwrap();

        let queries = random_matrix(8, dim, salt.wrapping_mul(17).wrapping_add(3));
        let batch = model.predict_batch(&queries).unwrap();
        for (row, got) in queries.iter().zip(&batch) {
            let scalar = model.classify(row).unwrap();
            prop_assert_eq!(scalar.to_bits(), got.to_bits());
        }
    }

    /// One-class: `predict_batch` decision values ≡ per-row
    /// `decision_value`, bit for bit.
    #[test]
    fn one_class_batch_matches_scalar_bitwise(
        n in 6usize..24,
        dim in 1usize..5,
        salt in 1u64..1000,
        kernel_idx in 0u8..4,
        nu in 0.05f64..1.0,
    ) {
        let features = random_matrix(n, dim, salt);
        let ds = Dataset::from_parts(features, vec![0.0; n]).unwrap();
        let model = OneClassModel::train(
            &ds,
            OneClassParams::new().with_nu(nu).with_kernel(kernel_for(kernel_idx)),
        )
        .unwrap();

        let queries = random_matrix(8, dim, salt.wrapping_mul(13).wrapping_add(5));
        let batch = model.predict_batch(&queries).unwrap();
        prop_assert_eq!(batch.len(), queries.rows());
        for (row, got) in queries.iter().zip(&batch) {
            let scalar = model.decision_value(row).unwrap();
            prop_assert_eq!(scalar.to_bits(), got.to_bits());
        }
    }

    /// `predict_dataset` is the batch path over the dataset's own features.
    #[test]
    fn svr_predict_dataset_matches_scalar_bitwise(
        n in 6usize..20,
        dim in 1usize..4,
        salt in 1u64..500,
    ) {
        let features = random_matrix(n, dim, salt);
        let ys: Vec<f64> = features.iter().map(|x| 3.0 * x[0]).collect();
        let ds = Dataset::from_parts(features, ys).unwrap();
        let model = SvrModel::train(&ds, SvrParams::new().with_c(10.0)).unwrap();
        let batch = model.predict_dataset(&ds).unwrap();
        for ((x, _), got) in ds.iter().zip(&batch) {
            prop_assert_eq!(model.predict(x).unwrap().to_bits(), got.to_bits());
        }
    }
}
