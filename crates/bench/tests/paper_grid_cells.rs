//! Every cell of the paper's grid search on `fig1a`'s training campaign,
//! pinned bit for bit.
//!
//! `fig1a` prints only the winning cell's CV MSE to three decimals, and
//! vmbench's golden pins only the deployed model. This test scores all
//! 126 `(C, γ, ε)` cells with `grid::search` on the scaled 200-case
//! campaign at seed 42, 10 folds and `TrainingOptions`' default fold
//! seed, exactly as `StablePredictor::fit` does, and pins an FNV-1a
//! digest of every cell's `(C, γ, ε, cv_mse)` bits. A change to the SMO
//! solver's floating-point order that only moves a losing cell fails
//! here.
//!
//! It is `#[ignore]`d because the search takes about a minute in a debug
//! build (53 s on 2 vCPUs), twice as long as the rest of the debug suite;
//! CI runs it in release, where it takes about 8 s:
//!
//! ```sh
//! cargo test --release --offline -p vmtherm-bench --test paper_grid_cells -- --ignored
//! ```

use vmtherm_bench::{training_campaign, TRAIN_CASES};
use vmtherm_core::features::FeatureEncoding;
use vmtherm_core::stable::{dataset_from_outcomes, TrainingOptions};
use vmtherm_svm::grid::{self, GridCell};
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::scale::Scaler;

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

/// `cell_digest` of the 126 cells, captured from the solver before its
/// selection scans moved from per-variable flags to I_up/I_low lists.
const CELLS_DIGEST: u64 = 0x1752_6ff8_5694_2ad0;

#[test]
#[ignore = "a full 126-cell, 10-fold grid search; run in release with --ignored"]
fn paper_grid_cells_match_their_pinned_digest() {
    let options = TrainingOptions::new();
    let raw = dataset_from_outcomes(&training_campaign(TRAIN_CASES, 42), FeatureEncoding::Full);
    let scaled = Scaler::fit(&raw).transform_dataset(&raw);
    let result = grid::search(&scaled, 10, options.seed).unwrap();
    assert_eq!(result.cells.len(), 126);
    assert_eq!(result.best.params.c(), 2048.0);
    assert_eq!(result.best.params.kernel(), Kernel::rbf(0.031_25));
    assert_eq!(result.best.params.epsilon(), 0.05);
    assert_eq!(result.best.cv_mse.to_bits(), 0x3fb8_ae33_79fd_adc6);
    assert_eq!(cell_digest(&result.cells), CELLS_DIGEST);
}
