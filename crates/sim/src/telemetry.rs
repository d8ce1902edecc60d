//! Time-series recording: what a monitoring agent would collect from the
//! VMM and sensors.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Errors produced when recording telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TelemetryError {
    /// A sample was offered with a timestamp before the last recorded one
    /// (series are monotone).
    NonMonotonicTime {
        /// Timestamp of the last recorded sample (seconds).
        last_secs: f64,
        /// Timestamp of the rejected sample (seconds).
        new_secs: f64,
    },
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::NonMonotonicTime {
                last_secs,
                new_secs,
            } => write!(
                f,
                "time series going backwards: {new_secs} after {last_secs}"
            ),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// A time-stamped scalar series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    #[must_use]
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::NonMonotonicTime`] (recording nothing) if
    /// `t` precedes the last sample — series are monotone.
    pub fn push(&mut self, t: SimTime, value: f64) -> Result<(), TelemetryError> {
        let secs = t.as_secs_f64();
        if let Some(last) = self.times.last() {
            if secs < *last {
                return Err(TelemetryError::NonMonotonicTime {
                    last_secs: *last,
                    new_secs: secs,
                });
            }
        }
        self.times.push(secs);
        self.values.push(value);
        Ok(())
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample timestamps (seconds).
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(time_secs, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Mean of the values sampled at or after `from` — Eq. (1)'s
    /// "average CPU temperature after `t_break`". Returns `None` if no
    /// samples qualify.
    #[must_use]
    pub fn mean_after(&self, from: SimTime) -> Option<f64> {
        let mut mean = MeanAfter::new(from);
        for (t, v) in self.iter() {
            mean.push(t, v);
        }
        mean.mean()
    }

    /// The value at or immediately before `t` (step interpolation), or
    /// `None` before the first sample.
    #[must_use]
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let secs = t.as_secs_f64();
        match self.times.partition_point(|x| *x <= secs) {
            0 => None,
            n => Some(self.values[n - 1]),
        }
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<(f64, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// Serialises as two-column CSV with a header.
    #[must_use]
    pub fn to_csv(&self, value_name: &str) -> String {
        let mut out = format!("time_s,{value_name}\n");
        for (t, v) in self.iter() {
            let _ = writeln!(out, "{t},{v}");
        }
        out
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    /// Collects `(time_secs, value)` pairs; out-of-order samples are
    /// silently dropped (the series stays monotone).
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            let _ = ts.push(SimTime::from_millis((t * 1000.0).round() as u64), v);
        }
        ts
    }
}

/// Everything recorded about one server during a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerTrace {
    /// Noisy quantized sensor readings — what the learner sees.
    pub sensor_c: TimeSeries,
    /// True die temperature — ground truth for evaluation.
    pub die_c: TimeSeries,
    /// Aggregate CPU utilization in `[0, 1]`.
    pub utilization: TimeSeries,
    /// Power draw (W).
    pub power_w: TimeSeries,
    /// Ambient temperature the server saw (°C).
    pub ambient_c: TimeSeries,
}

impl ServerTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ServerTrace::default()
    }
}

/// The Eq. (1) fold behind [`TimeSeries::mean_after`]: a left-to-right
/// sum, from `0.0`, of the values sampled at or after `from`, over their
/// count. Fed one sample at a time, in time order, it gives the same bits
/// as `mean_after` on the recorded series.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MeanAfter {
    from_secs: f64,
    sum: f64,
    n: usize,
}

impl MeanAfter {
    /// An empty fold over the samples at or after `from`.
    pub(crate) fn new(from: SimTime) -> Self {
        MeanAfter {
            from_secs: from.as_secs_f64(),
            sum: 0.0,
            n: 0,
        }
    }

    /// Offers the sample `value` taken at `t_secs`.
    #[inline(always)]
    pub(crate) fn push(&mut self, t_secs: f64, value: f64) {
        if t_secs >= self.from_secs {
            self.sum += value;
            self.n += 1;
        }
    }

    /// The mean so far, or `None` before the first qualifying sample.
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Eq. (1) for a server whose run keeps no trace: [`MeanAfter`] folds of
/// the two channels an experiment averages, which the engine feeds in
/// place of the five [`ServerTrace`] pushes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StableMeans {
    /// The sensor channel: ψ_stable.
    pub(crate) sensor_c: MeanAfter,
    /// The die channel: the ground-truth stable temperature.
    pub(crate) die_c: MeanAfter,
}

impl StableMeans {
    /// Both folds over the samples at or after `from`.
    pub(crate) fn after(from: SimTime) -> Self {
        StableMeans {
            sensor_c: MeanAfter::new(from),
            die_c: MeanAfter::new(from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new();
        for s in 0..10 {
            ts.push(SimTime::from_secs(s), s as f64 * 2.0)
                .expect("monotone");
        }
        ts
    }

    #[test]
    fn push_and_len() {
        let ts = series();
        assert_eq!(ts.len(), 10);
        assert!(!ts.is_empty());
    }

    #[test]
    fn non_monotone_push_errors_without_recording() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(5), 0.0).expect("first push");
        let err = ts.push(SimTime::from_secs(4), 1.0).expect_err("backwards");
        assert_eq!(
            err,
            TelemetryError::NonMonotonicTime {
                last_secs: 5.0,
                new_secs: 4.0
            }
        );
        assert!(err.to_string().contains("backwards"));
        // The rejected sample left the series untouched.
        assert_eq!(ts.len(), 1);
        // Equal timestamps are still accepted.
        ts.push(SimTime::from_secs(5), 2.0)
            .expect("equal timestamp");
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn mean_after_matches_eq1_semantics() {
        let ts = series();
        // values at t≥6: 12,14,16,18 → mean 15.
        assert_eq!(ts.mean_after(SimTime::from_secs(6)), Some(15.0));
        // Past the end: none.
        assert_eq!(ts.mean_after(SimTime::from_secs(100)), None);
        // From zero: mean of 0..18 step 2 = 9.
        assert_eq!(ts.mean_after(SimTime::ZERO), Some(9.0));
    }

    #[test]
    fn value_at_steps() {
        let ts = series();
        assert_eq!(ts.value_at(SimTime::from_secs(3)), Some(6.0));
        assert_eq!(ts.value_at(SimTime::from_millis(3500)), Some(6.0));
        assert_eq!(ts.value_at(SimTime::from_secs(999)), Some(18.0));
        let empty = TimeSeries::new();
        assert_eq!(empty.value_at(SimTime::ZERO), None);
    }

    #[test]
    fn last_is_the_newest_sample() {
        let ts = series();
        assert_eq!(ts.last(), Some((9.0, 18.0)));
        assert_eq!(TimeSeries::new().last(), None);
    }

    #[test]
    fn csv_round_numbers() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 42.5).expect("monotone");
        let csv = ts.to_csv("temp_c");
        assert_eq!(csv, "time_s,temp_c\n1,42.5\n");
    }

    #[test]
    fn from_iterator() {
        let ts: TimeSeries = vec![(0.0, 1.0), (1.5, 2.0)].into_iter().collect();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.value_at(SimTime::from_millis(1500)), Some(2.0));
    }
}
