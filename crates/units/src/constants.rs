//! The paper's canonical constants — defined here **exactly once**.
//!
//! `cargo run -p xtask -- lint` rule L5 fails the build if any other
//! non-test module in the workspace re-defines these names or re-inlines
//! their literal values next to their concepts (`lambda`, `t_break`, …).
//! Import them instead:
//!
//! ```
//! use vmtherm_units::constants::{PAPER_LAMBDA, PAPER_T_BREAK_SECS};
//! assert!(PAPER_LAMBDA < 1.0 && PAPER_T_BREAK_SECS > 0.0);
//! ```

use crate::Seconds;

/// λ — the calibration learning rate of Eq. (6).
pub const PAPER_LAMBDA: f64 = 0.8;

/// t_break — seconds after a reconfiguration at which the pre-defined curve
/// ψ*(t) of Eq. (3) reaches ψ_stable.
pub const PAPER_T_BREAK_SECS: f64 = 600.0;

/// Δ_update — seconds between calibration updates (Eq. 5–6 cadence; the
/// paper's worked example uses 15 s).
pub const PAPER_DELTA_UPDATE_SECS: f64 = 15.0;

/// Δ_gap — the look-ahead horizon of Eq. (8): predictions answer "what will
/// the temperature be Δ_gap seconds from now".
pub const PAPER_DELTA_GAP_SECS: f64 = 60.0;

/// [`PAPER_T_BREAK_SECS`] as a typed duration.
#[must_use]
pub fn paper_t_break() -> Seconds {
    Seconds::new(PAPER_T_BREAK_SECS)
}

/// [`PAPER_DELTA_UPDATE_SECS`] as a typed duration.
#[must_use]
pub fn paper_delta_update() -> Seconds {
    Seconds::new(PAPER_DELTA_UPDATE_SECS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors_match_raw_constants() {
        assert_eq!(paper_t_break().get(), PAPER_T_BREAK_SECS);
        assert_eq!(paper_delta_update().get(), PAPER_DELTA_UPDATE_SECS);
    }

    #[test]
    fn paper_values() {
        assert_eq!(PAPER_LAMBDA, 0.8);
        assert_eq!(PAPER_T_BREAK_SECS, 600.0);
        assert_eq!(PAPER_DELTA_UPDATE_SECS, 15.0);
    }
}
