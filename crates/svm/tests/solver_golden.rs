//! Solver golden test: the SMO solver's exact output on fixed problems.
//!
//! Each case pins the iteration count, the bias bits (LIBSVM's `−rho`)
//! and an FNV-1a digest of every coefficient's bits. The values were
//! captured from the solver before its inner loop was made copy-free and
//! active-set-sized; any change to the order of floating-point operations
//! inside `smo.rs` — a different tie-break, a re-associated sum — moves
//! at least one of them. The problem types cover every path through the
//! one SMO loop, `solve`: ε-SVR (two variables per point, with the
//! prenorm and the exact RBF row pass, and with a one-row cache), C-SVC
//! and one-class (one variable per point, the latter from a non-zero
//! feasible start). The one-class, high-C C-SVC, exact-row and
//! one-row-cache cells were captured from the solver before it moved from
//! signed `Q` rows to cached kernel rows. The C-SVC and one-class cells
//! also digest decision values, pinning the shared support-vector
//! expansion that every model predicts through.

use vmtherm_svm::data::Dataset;
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::matrix::DenseMatrix;
use vmtherm_svm::oneclass::{OneClassModel, OneClassParams};
use vmtherm_svm::svc::{SvcModel, SvcParams};
use vmtherm_svm::svr::{SvrModel, SvrParams};

const POINTS: usize = 48;
const DIM: usize = 4;

/// Deterministic features in roughly [−2, 2]; no RNG, so the problems do
/// not depend on any random stream.
fn features() -> Vec<Vec<f64>> {
    (0..POINTS)
        .map(|i| {
            (0..DIM)
                .map(|j| ((i * DIM + j) as f64 * 0.731 + j as f64).sin() * 2.0)
                .collect()
        })
        .collect()
}

fn regression_set() -> Dataset {
    let xs = features();
    let ys = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            1.5 * x[0] + (3.0 * x[1]).sin() + 0.3 * x[2] * x[3] + 0.05 * (i as f64 * 2.399).sin()
        })
        .collect();
    Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
}

fn classification_set() -> Dataset {
    let xs = features();
    let ys = xs
        .iter()
        .map(|x| {
            if x[0] + 0.5 * (2.0 * x[1]).sin() - 0.1 * x[3] > 0.1 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap()
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One solve's fingerprint: `(iterations, bias bits, coefficient digest)`.
type Golden = (usize, u64, u64);

fn svr_golden(ds: &Dataset, params: SvrParams) -> Golden {
    let model = SvrModel::train(ds, params).unwrap();
    assert!(model.converged());
    (
        model.iterations(),
        model.bias().to_bits(),
        digest(model.coefficients()),
    )
}

/// The ε-SVR cells: `(C, γ, ε, shrinking)`. The cells at C ≥ 64 run for
/// many shrink periods (one per 2l = 96 iterations), and each of them
/// shrinks the active set and later rebuilds the full gradient before
/// its final optimality check — some more than once. The last cell
/// repeats a high-C one with shrinking off.
const SVR_CELLS: [(f64, f64, f64, bool); 9] = [
    (1.0, 0.5, 0.05, true),
    (1.0, 4.0, 0.2, true),
    (64.0, 0.5, 0.01, true),
    (64.0, 2.0, 0.01, true),
    (1024.0, 1.0, 0.01, true),
    (1024.0, 4.0, 0.01, true),
    (4096.0, 0.5, 0.05, true),
    (4096.0, 4.0, 0.2, true),
    (1024.0, 1.0, 0.01, false),
];

const SVR_GOLDEN: [Golden; 9] = [
    (172, 0xbfb18f84b4aa5b7c, 0x6abcda69552b3efa),
    (85, 0xbfb0058f21336566, 0xf641cb1f6cec92c9),
    (10_600, 0xbfb2077f6062662a, 0x82cd7501ee157f8f),
    (14_865, 0xbfb2ca3b17757130, 0x9f541cb8ddf32c9f),
    (137_254, 0xbfb2c0a773f2d394, 0x884e137fe59149f3),
    (652, 0xbfb35e804c4a5644, 0x4a335b7e74621849),
    (790, 0xbfb5a3cc66057b73, 0x344366c820203f2c),
    (320, 0xbfbd1ff170ce1ec3, 0x29d2e95d4ed3ceca),
    (94_508, 0xbfb2c85232ba18e9, 0x4bed7c5d527d4373),
];

const SVC_GOLDEN: Golden = (133, 0xbfa3912c1172ddc5, 0xbb7b18e3123bc291);

/// Digest of the same C-SVC model's `decision_value` on every training
/// row: pins the prediction path as well as the solve.
const SVC_DECISION_DIGEST: u64 = 0xa00d498ad53afe6d;

/// C = 1024, γ = 2: six shrink passes, then a gradient rebuild.
const SVC_HIGH_C_GOLDEN: Golden = (294, 0xbfa0e0630ab83120, 0xef37fc17fdf436fb);

/// ε-SVR cell C = 64, γ = 2, ε = 0.01 on the exact (scalar) RBF row pass.
const SVR_EXACT_ROWS_GOLDEN: Golden = (15_696, 0xbfb2cb3a6caab2fa, 0x136f9a89a2c438ec);

/// One-class fingerprint: `(support vectors, digest of the decision
/// values on the training rows)`.
const ONE_CLASS_GOLDEN: (usize, u64) = (30, 0x6e3ce3788c24872a);

#[test]
fn epsilon_svr_cells_are_bit_identical() {
    let ds = regression_set();
    let got: Vec<Golden> = SVR_CELLS
        .iter()
        .map(|&(c, gamma, eps, shrinking)| {
            svr_golden(
                &ds,
                SvrParams::new()
                    .with_c(c)
                    .with_epsilon(eps)
                    .with_kernel(Kernel::rbf(gamma))
                    .with_shrinking(shrinking),
            )
        })
        .collect();
    assert_eq!(got, SVR_GOLDEN, "ε-SVR cells drifted");
}

#[test]
fn c_svc_is_bit_identical() {
    let ds = classification_set();
    let model = SvcModel::train(
        &ds,
        SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(1.0)),
    )
    .unwrap();
    assert!(model.converged());
    let got = (
        model.iterations(),
        model.bias().to_bits(),
        digest(model.coefficients()),
    );
    assert_eq!(got, SVC_GOLDEN, "C-SVC drifted");
    let values: Vec<f64> = ds
        .iter()
        .map(|(x, _)| model.decision_value(x).unwrap())
        .collect();
    assert_eq!(
        digest(&values),
        SVC_DECISION_DIGEST,
        "C-SVC decision values drifted"
    );
}

#[test]
fn epsilon_svr_exact_rows_are_bit_identical() {
    let got = svr_golden(
        &regression_set(),
        SvrParams::new()
            .with_c(64.0)
            .with_epsilon(0.01)
            .with_kernel(Kernel::rbf(2.0))
            .with_prenorm_rows(false),
    );
    assert_eq!(got, SVR_EXACT_ROWS_GOLDEN, "exact-row ε-SVR drifted");
}

/// A one-row cache evicts on nearly every fetch; the answer must not
/// depend on what stays resident.
#[test]
fn epsilon_svr_one_row_cache_matches_default_cache() {
    let got = svr_golden(
        &regression_set(),
        SvrParams::new()
            .with_c(64.0)
            .with_epsilon(0.01)
            .with_kernel(Kernel::rbf(0.5))
            .with_cache_rows(1),
    );
    assert_eq!(got, SVR_GOLDEN[2], "one-row-cache ε-SVR drifted");
}

#[test]
fn high_c_svc_is_bit_identical() {
    let model = SvcModel::train(
        &classification_set(),
        SvcParams::new()
            .with_c(1024.0)
            .with_kernel(Kernel::rbf(2.0)),
    )
    .unwrap();
    assert!(model.converged());
    let got = (
        model.iterations(),
        model.bias().to_bits(),
        digest(model.coefficients()),
    );
    assert_eq!(got, SVC_HIGH_C_GOLDEN, "high-C C-SVC drifted");
}

/// ν·l = 14.4, so the solve starts from 14 variables at 1, one at 0.4
/// and a non-zero initial gradient.
#[test]
fn one_class_is_bit_identical() {
    let ds = regression_set();
    let model = OneClassModel::train(
        &ds,
        OneClassParams::new()
            .with_nu(0.3)
            .with_kernel(Kernel::rbf(0.5)),
    )
    .unwrap();
    assert!(model.converged());
    let values = model.predict_batch(ds.features()).unwrap();
    let got = (model.num_support_vectors(), digest(&values));
    assert_eq!(got, ONE_CLASS_GOLDEN, "one-class drifted");
}
