//! Unit-safety newtypes for the vmtherm workspace.
//!
//! The paper's Eq. (1)–(8) mix temperatures (°C), power (W), durations (s)
//! and CPU capacities (fractions of 1). A single unit mix-up — or a silent
//! NaN from a malformed sensor reading — corrupts ψ_stable, the calibration
//! γ, and every downstream figure. These newtypes make such mix-ups type
//! errors at the public API boundary:
//!
//! - [`Celsius`] — a temperature (die, sink, ambient, supply).
//! - [`Watts`] — a power/heat flow.
//! - [`Seconds`] — a signed duration or elapsed offset.
//! - [`Utilization`] — a CPU/resource capacity fraction in `[0, 1]`.
//!
//! All constructors reject non-finite values, so NaN cannot enter through a
//! typed boundary. Internal numeric kernels (RK4, SMO) still compute on raw
//! `f64` — the types guard the *entry points*, where unit mistakes are made.
//! `cargo run -p xtask -- lint` rule L3 enforces that the public surfaces of
//! `vmtherm-core` and `vmtherm-sim` use these types instead of raw `f64`.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

pub mod constants;

/// Error returned by the `try_new` constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitError {
    what: &'static str,
    detail: String,
}

impl UnitError {
    fn new(what: &'static str, detail: impl Into<String>) -> Self {
        UnitError {
            what,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.what, self.detail)
    }
}

impl std::error::Error for UnitError {}

macro_rules! unit_common {
    ($ty:ident, $what:literal, $unit_suffix:literal) => {
        impl $ty {
            /// Validating constructor.
            ///
            /// # Panics
            ///
            /// Panics on a non-finite value; use
            #[doc = concat!("[`", stringify!($ty), "::try_new`] for fallible construction.")]
            #[must_use]
            #[track_caller]
            pub fn new(value: f64) -> Self {
                match Self::try_new(value) {
                    Ok(v) => v,
                    Err(e) => panic!("{e}"),
                }
            }

            /// Fallible constructor: rejects NaN and infinities.
            pub fn try_new(value: f64) -> Result<Self, UnitError> {
                if !value.is_finite() {
                    return Err(UnitError::new($what, format!("non-finite value {value}")));
                }
                Ok($ty(value))
            }

            /// The raw numeric value.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Total ordering (IEEE `totalOrder`); the values are always
            /// finite, so this agrees with `<`/`>` everywhere.
            #[must_use]
            pub fn total_cmp(&self, other: &Self) -> Ordering {
                self.0.total_cmp(&other.0)
            }

            /// The smaller of the two.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                if self.total_cmp(&other) == Ordering::Greater {
                    other
                } else {
                    self
                }
            }

            /// The larger of the two.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                if self.total_cmp(&other) == Ordering::Less {
                    other
                } else {
                    self
                }
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{}", $unit_suffix), self.0)
            }
        }

        impl From<f64> for $ty {
            /// Panicking on non-finite input, like
            #[doc = concat!("[`", stringify!($ty), "::new`].")]
            #[track_caller]
            fn from(value: f64) -> Self {
                $ty::new(value)
            }
        }

        impl From<$ty> for f64 {
            fn from(value: $ty) -> f64 {
                value.0
            }
        }
    };
}

/// A temperature in degrees Celsius.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Celsius(f64);

unit_common!(Celsius, "temperature (°C)", " °C");

impl Celsius {
    /// 0 °C.
    pub const ZERO: Celsius = Celsius(0.0);
}

/// Temperature difference in kelvin (== °C steps).
impl std::ops::Sub for Celsius {
    type Output = f64;
    fn sub(self, rhs: Celsius) -> f64 {
        self.0 - rhs.0
    }
}

/// Offset a temperature by a kelvin delta.
impl std::ops::Add<f64> for Celsius {
    type Output = Celsius;
    fn add(self, delta: f64) -> Celsius {
        Celsius::new(self.0 + delta)
    }
}

/// Offset a temperature by a negative kelvin delta.
impl std::ops::Sub<f64> for Celsius {
    type Output = Celsius;
    fn sub(self, delta: f64) -> Celsius {
        Celsius::new(self.0 - delta)
    }
}

/// A power (heat flow) in watts.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Watts(f64);

unit_common!(Watts, "power (W)", " W");

impl Watts {
    /// 0 W.
    pub const ZERO: Watts = Watts(0.0);

    /// Construct from kilowatts — the CRAC/room models quote kW.
    #[must_use]
    #[track_caller]
    pub fn from_kilowatts(kw: f64) -> Self {
        Watts::new(kw * 1000.0)
    }

    /// This power expressed in kilowatts.
    #[must_use]
    pub fn kilowatts(self) -> f64 {
        self.0 / 1000.0
    }
}

impl std::ops::Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts::new(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts::new(self.0 - rhs.0)
    }
}

impl std::ops::Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, k: f64) -> Watts {
        Watts::new(self.0 * k)
    }
}

impl std::ops::Div<f64> for Watts {
    type Output = Watts;
    fn div(self, k: f64) -> Watts {
        Watts::new(self.0 / k)
    }
}

/// Ratio of two powers (dimensionless).
impl std::ops::Div for Watts {
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl std::iter::Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts::new(iter.map(|w| w.0).sum())
    }
}

/// A signed duration (or elapsed offset) in seconds.
///
/// Signed on purpose: `t − t_anchor` is a legitimate negative quantity just
/// before an anchor, and [`crate::constants`] callers clamp where needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Seconds(f64);

unit_common!(Seconds, "duration (s)", " s");

impl Seconds {
    /// 0 s.
    pub const ZERO: Seconds = Seconds(0.0);
}

impl std::ops::Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 - rhs.0)
    }
}

impl std::ops::Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, k: f64) -> Seconds {
        Seconds::new(self.0 * k)
    }
}

/// A resource-capacity fraction in `[0, 1]`.
///
/// The paper's θ_cpu capacities are percentages; this type stores the
/// fraction and converts explicitly, so `0.85` and `85.0` can never be
/// silently confused.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Utilization(f64);

impl Utilization {
    /// Fully idle.
    pub const ZERO: Utilization = Utilization(0.0);

    /// Validating constructor for a fraction in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on NaN or out-of-range values; use [`Utilization::try_new`]
    /// or [`Utilization::saturating`] instead where inputs are untrusted.
    #[must_use]
    #[track_caller]
    pub fn new(fraction: f64) -> Self {
        match Self::try_new(fraction) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects NaN and values outside `[0, 1]`.
    pub fn try_new(fraction: f64) -> Result<Self, UnitError> {
        if !fraction.is_finite() {
            return Err(UnitError::new(
                "utilization",
                format!("non-finite value {fraction}"),
            ));
        }
        if !(0.0..=1.0).contains(&fraction) {
            return Err(UnitError::new(
                "utilization",
                format!("fraction {fraction} outside [0, 1]"),
            ));
        }
        Ok(Utilization(fraction))
    }

    /// Clamp an untrusted finite value into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on non-finite input — clamping cannot repair a NaN.
    #[must_use]
    #[track_caller]
    pub fn saturating(fraction: f64) -> Self {
        assert!(
            fraction.is_finite(),
            "invalid utilization: non-finite value {fraction}"
        );
        Utilization(fraction.clamp(0.0, 1.0))
    }

    /// The fraction in `[0, 1]`.
    #[must_use]
    pub const fn as_fraction(self) -> f64 {
        self.0
    }

    /// Total ordering; values are finite so this agrees with `<`/`>`.
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl From<Utilization> for f64 {
    fn from(value: Utilization) -> f64 {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_reject_nan_and_inf() {
        assert!(Celsius::try_new(f64::NAN).is_err());
        assert!(Watts::try_new(f64::INFINITY).is_err());
        assert!(Seconds::try_new(f64::NEG_INFINITY).is_err());
        assert!(Utilization::try_new(f64::NAN).is_err());
        assert!(Celsius::try_new(52.5).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn celsius_new_panics_on_nan() {
        let _ = Celsius::new(f64::NAN);
    }

    #[test]
    fn celsius_arithmetic() {
        let a = Celsius::new(50.0);
        let b = Celsius::new(42.5);
        assert!((a - b - 7.5).abs() < 1e-12);
        assert!(((a + 2.0) - Celsius::new(52.0)).abs() < 1e-12);
        assert!(((a - 2.0) - Celsius::new(48.0)).abs() < 1e-12);
        assert_eq!(a.max(b).get(), 50.0);
        assert_eq!(a.min(b).get(), 42.5);
        assert_eq!(a.total_cmp(&b), Ordering::Greater);
    }

    #[test]
    fn watts_arithmetic_and_kilowatts() {
        let p = Watts::new(150.0) + Watts::new(50.0);
        assert_eq!(p.get(), 200.0);
        assert_eq!((p * 2.0).get(), 400.0);
        assert_eq!((p / 2.0).get(), 100.0);
        assert!((p / Watts::new(100.0) - 2.0).abs() < 1e-12);
        assert_eq!(Watts::from_kilowatts(1.5).get(), 1500.0);
        assert_eq!(Watts::new(2500.0).kilowatts(), 2.5);
        let total: Watts = [Watts::new(10.0), Watts::new(20.0)].into_iter().sum();
        assert_eq!(total.get(), 30.0);
    }

    #[test]
    fn seconds_arithmetic_allows_signed_offsets() {
        let t = Seconds::new(100.0) - Seconds::new(130.0);
        assert_eq!(t.get(), -30.0);
        assert_eq!((Seconds::new(10.0) * 3.0).get(), 30.0);
    }

    #[test]
    fn utilization_validates_range() {
        assert!(Utilization::try_new(1.2).is_err());
        assert!(Utilization::try_new(-0.1).is_err());
        assert_eq!(Utilization::saturating(1.7).as_fraction(), 1.0);
        assert_eq!(Utilization::saturating(-3.0).as_fraction(), 0.0);
        assert_eq!(Utilization::new(0.25).as_fraction(), 0.25);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn utilization_saturating_rejects_nan() {
        let _ = Utilization::saturating(f64::NAN);
    }

    #[test]
    fn from_into_round_trip() {
        let c: Celsius = 37.0.into();
        let raw: f64 = c.into();
        assert_eq!(raw, 37.0);
        let w: Watts = 10.0.into();
        assert_eq!(f64::from(w), 10.0);
    }

    #[test]
    fn display_carries_units() {
        assert_eq!(Celsius::new(52.5).to_string(), "52.5 °C");
        assert_eq!(Watts::new(180.0).to_string(), "180 W");
        assert_eq!(Seconds::new(600.0).to_string(), "600 s");
        assert_eq!(Utilization::new(0.85).to_string(), "85.0%");
    }
}
