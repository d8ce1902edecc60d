//! Solver golden test: the SMO solver's exact output on fixed problems.
//!
//! Each case pins the iteration count, the bias bits (LIBSVM's `−rho`)
//! and an FNV-1a digest of every coefficient's bits. The values were
//! captured from the solver before its inner loop was made copy-free and
//! active-set-sized; any change to the order of floating-point operations
//! inside `smo.rs` — a different tie-break, a re-associated sum — moves
//! at least one of them. The cells cover the paths through the one SMO
//! loop, `solve`, over the `2l`-variable ε-SVR dual: with the prenorm and
//! the exact RBF row pass, with and without shrinking, and with a one-row
//! cache. The exact-row and one-row-cache cells were captured from the
//! solver before it moved from signed `Q` rows to cached kernel rows, and
//! all of them before it read the variables' signs off their index. The
//! paper-regime cell (scaled features, targets near +45, the grid's
//! hottest C and γ) was captured from the solver before its selection
//! scans moved from per-variable flags to I_up/I_low index lists.

use vmtherm_svm::data::Dataset;
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::matrix::DenseMatrix;
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

/// The paper's regime: the features of [`features`] halved onto
/// [−1, 1], as `svm-scale` leaves them, and targets offset by about +45,
/// like ψ_stable in °C.
fn paper_regime_set() -> Dataset {
    let xs: Vec<Vec<f64>> = features()
        .into_iter()
        .map(|x| x.into_iter().map(|v| v / 2.0).collect())
        .collect();
    let ys = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            45.0 + 6.0 * x[0] + 2.5 * (3.0 * x[1]).sin() + x[2] * x[3] - 1.5 * x[3]
                + 0.2 * (i as f64 * 2.399).sin()
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

/// ε-SVR cell C = 64, γ = 2, ε = 0.01 on the exact (scalar) RBF row pass.
const SVR_EXACT_ROWS_GOLDEN: Golden = (15_696, 0xbfb2cb3a6caab2fa, 0x136f9a89a2c438ec);

/// The grid search's hottest cell on [`paper_regime_set`]: C = 2048,
/// γ = 2⁻⁵, ε = 0.05, shrinking on. Variables reach the C bound (37 of
/// the 96 end there) and I_up/I_low membership changes in about one
/// iteration in sixty, so the solver's member lists are patched many
/// times between shrinks.
const PAPER_REGIME_GOLDEN: Golden = (5_713, 0x4045f375227ea037, 0x8e1255e263a59b03);

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

#[test]
fn epsilon_svr_paper_regime_is_bit_identical() {
    let got = svr_golden(
        &paper_regime_set(),
        SvrParams::new()
            .with_c(2048.0)
            .with_epsilon(0.05)
            .with_kernel(Kernel::rbf(0.031_25))
            .with_shrinking(true),
    );
    assert_eq!(got, PAPER_REGIME_GOLDEN, "paper-regime ε-SVR drifted");
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
