//! Simulation time.
//!
//! Time is kept as integer **milliseconds** so that event ordering and
//! fixed-step integration are exact; floating-point seconds are derived
//! views. The paper's quantities (`t_break = 600 s`, Δ_gap, Δ_update) are
//! all whole seconds, comfortably representable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock (milliseconds since start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time (milliseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant `ms` milliseconds after the epoch.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// An instant `secs` seconds after the epoch.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Milliseconds since the epoch.
    #[must_use]
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (exact for whole milliseconds).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self` (simulation time never runs
    /// backwards).
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: {earlier} is after {self}"
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `ms` milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// A duration of `secs` seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Length in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in seconds, as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// `true` for the zero duration.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "Sub is documented to panic on underflow, mirroring std::time::Instant"
    )]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "Sub is documented to panic on underflow, mirroring std::time::Duration"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let t = SimTime::from_secs(600);
        assert_eq!(t.as_millis(), 600_000);
        assert_eq!(t.as_secs_f64(), 600.0);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimDuration::from_secs(15), SimTime::ZERO);
        let mut u = SimTime::ZERO;
        u += SimDuration::from_millis(250);
        assert_eq!(u.as_millis(), 250);
    }

    #[test]
    fn duration_since() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(10);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "after")]
    fn duration_since_backwards_panics() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_secs(1));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1234).to_string(), "t=1.234s");
        assert_eq!(SimDuration::from_secs(60).to_string(), "60.000s");
    }
}
