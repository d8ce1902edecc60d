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

/// Rejects a sample at `secs` that precedes `last`, the newest recorded
/// timestamp: every time column is monotone.
fn check_monotone(last: Option<&f64>, secs: f64) -> Result<(), TelemetryError> {
    match last {
        Some(&last_secs) if secs < last_secs => Err(TelemetryError::NonMonotonicTime {
            last_secs,
            new_secs: secs,
        }),
        _ => Ok(()),
    }
}

/// A time-stamped scalar series that owns its samples. Read it through
/// [`TimeSeries::series`].
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
        check_monotone(self.times.last(), secs)?;
        self.times.push(secs);
        self.values.push(value);
        Ok(())
    }

    /// The samples as a borrowed [`Series`].
    #[must_use]
    pub fn series(&self) -> Series<'_> {
        Series {
            times: &self.times,
            values: &self.values,
        }
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

/// A borrowed time-stamped scalar series: a column of non-decreasing
/// timestamps (seconds) and the column of values beside it, of equal
/// length. The channels of one [`ServerTrace`] share one time column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Series<'a> {
    times: &'a [f64],
    values: &'a [f64],
}

impl<'a> Series<'a> {
    /// Number of samples.
    #[must_use]
    pub fn len(self) -> usize {
        self.times.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.times.is_empty()
    }

    /// Sample timestamps (seconds).
    #[must_use]
    pub fn times(self) -> &'a [f64] {
        self.times
    }

    /// Sample values.
    #[must_use]
    pub fn values(self) -> &'a [f64] {
        self.values
    }

    /// Iterates `(time_secs, value)` pairs.
    pub fn iter(self) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Mean of the values sampled at or after `from` — Eq. (1)'s
    /// "average CPU temperature after `t_break`". Returns `None` if no
    /// samples qualify.
    #[must_use]
    pub fn mean_after(self, from: SimTime) -> Option<f64> {
        let mut mean = MeanAfter::new(from);
        for (t, v) in self.iter() {
            mean.push(t, v);
        }
        mean.mean()
    }

    /// The value at or immediately before `t` (step interpolation), or
    /// `None` before the first sample.
    #[must_use]
    pub fn value_at(self, t: SimTime) -> Option<f64> {
        let secs = t.as_secs_f64();
        match self.times.partition_point(|x| *x <= secs) {
            0 => None,
            n => self.values.get(n - 1).copied(),
        }
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(self) -> Option<(f64, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// Serialises as two-column CSV with a header.
    #[must_use]
    pub fn to_csv(self, value_name: &str) -> String {
        let mut out = format!("time_s,{value_name}\n");
        for (t, v) in self.iter() {
            let _ = writeln!(out, "{t},{v}");
        }
        out
    }

    /// An owned copy of the samples.
    #[must_use]
    pub fn to_time_series(self) -> TimeSeries {
        TimeSeries {
            times: self.times.to_vec(),
            values: self.values.to_vec(),
        }
    }
}

/// Everything recorded about one server during a run: five channels over
/// one shared time column, borrowed from the simulation
/// ([`Simulation::trace`](crate::Simulation::trace)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerTrace<'a> {
    /// Noisy quantized sensor readings — what the learner sees.
    pub sensor_c: Series<'a>,
    /// True die temperature — ground truth for evaluation.
    pub die_c: Series<'a>,
    /// Aggregate CPU utilization in `[0, 1]`.
    pub utilization: Series<'a>,
    /// Power draw (W).
    pub power_w: Series<'a>,
    /// Ambient temperature the server saw (°C).
    pub ambient_c: Series<'a>,
}

/// Channels per [`ServerTrace`].
pub(crate) const CHANNELS: usize = 5;

/// One server's trace as the engine stores it: one time column and the
/// [`CHANNELS`] value columns beside it, all of equal length — 48 bytes
/// per sample where five [`TimeSeries`] would take 80. Read it through
/// [`TraceColumns::view`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TraceColumns {
    times: Vec<f64>,
    /// Value columns in [`ServerTrace`] field order: sensor, die,
    /// utilization, power, ambient.
    channels: [Vec<f64>; CHANNELS],
}

impl TraceColumns {
    /// Appends one sample of every channel at `t`, in [`ServerTrace`]
    /// field order, after one monotone check for all of them.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::NonMonotonicTime`] (recording nothing in any
    /// column) if `t` precedes the last sample.
    #[inline(always)]
    pub(crate) fn push(
        &mut self,
        t: SimTime,
        sample: [f64; CHANNELS],
    ) -> Result<(), TelemetryError> {
        let secs = t.as_secs_f64();
        check_monotone(self.times.last(), secs)?;
        self.times.push(secs);
        for (column, value) in self.channels.iter_mut().zip(sample) {
            column.push(value);
        }
        Ok(())
    }

    /// The five channels as [`Series`] over the one time column.
    #[inline]
    pub(crate) fn view(&self) -> ServerTrace<'_> {
        let times = &self.times[..];
        let [sensor_c, die_c, utilization, power_w, ambient_c] = self
            .channels
            .each_ref()
            .map(|values| Series { times, values });
        ServerTrace {
            sensor_c,
            die_c,
            utilization,
            power_w,
            ambient_c,
        }
    }
}

/// The Eq. (1) fold behind [`Series::mean_after`]: a left-to-right
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
/// place of a [`TraceColumns`] push.
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
        assert_eq!(ts.series().len(), 10);
        assert!(!ts.series().is_empty());
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
        assert_eq!(ts.series().len(), 1);
        // Equal timestamps are still accepted.
        ts.push(SimTime::from_secs(5), 2.0)
            .expect("equal timestamp");
        assert_eq!(ts.series().len(), 2);
    }

    #[test]
    fn mean_after_matches_eq1_semantics() {
        let ts = series();
        // values at t≥6: 12,14,16,18 → mean 15.
        assert_eq!(ts.series().mean_after(SimTime::from_secs(6)), Some(15.0));
        // Past the end: none.
        assert_eq!(ts.series().mean_after(SimTime::from_secs(100)), None);
        // From zero: mean of 0..18 step 2 = 9.
        assert_eq!(ts.series().mean_after(SimTime::ZERO), Some(9.0));
    }

    #[test]
    fn value_at_steps() {
        let ts = series();
        assert_eq!(ts.series().value_at(SimTime::from_secs(3)), Some(6.0));
        assert_eq!(ts.series().value_at(SimTime::from_millis(3500)), Some(6.0));
        assert_eq!(ts.series().value_at(SimTime::from_secs(999)), Some(18.0));
        let empty = TimeSeries::new();
        assert_eq!(empty.series().value_at(SimTime::ZERO), None);
    }

    #[test]
    fn last_is_the_newest_sample() {
        let ts = series();
        assert_eq!(ts.series().last(), Some((9.0, 18.0)));
        assert_eq!(TimeSeries::new().series().last(), None);
    }

    #[test]
    fn csv_round_numbers() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 42.5).expect("monotone");
        let csv = ts.series().to_csv("temp_c");
        assert_eq!(csv, "time_s,temp_c\n1,42.5\n");
    }

    #[test]
    fn from_iterator() {
        let ts: TimeSeries = vec![(0.0, 1.0), (1.5, 2.0)].into_iter().collect();
        assert_eq!(ts.series().len(), 2);
        assert_eq!(ts.series().value_at(SimTime::from_millis(1500)), Some(2.0));
    }

    #[test]
    fn to_time_series_copies_the_samples() {
        let ts = series();
        assert_eq!(ts.series().to_time_series(), ts);
    }

    /// The five channels of a [`TraceColumns`] view, paired with the
    /// standalone series each one replaces.
    fn channel_pairs<'a>(
        view: ServerTrace<'a>,
        alone: &'a [TimeSeries; CHANNELS],
    ) -> [(Series<'a>, Series<'a>); CHANNELS] {
        let [a, b, c, d, e] = alone;
        [
            (view.sensor_c, a.series()),
            (view.die_c, b.series()),
            (view.utilization, c.series()),
            (view.power_w, d.series()),
            (view.ambient_c, e.series()),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The column store records exactly what five standalone series
        /// would: every channel view reads the same bits as its
        /// `TimeSeries`, and a backwards sample leaves all six columns
        /// untouched.
        #[test]
        fn columns_match_five_standalone_series(
            steps_ms in proptest::collection::vec(-3_000i64..5_000, 0..60),
            values in proptest::collection::vec(-50.0..150.0f64, CHANNELS * 60),
            from_ms in 0u64..200_000,
            at_ms in 0u64..200_000,
        ) {
            let mut columns = TraceColumns::default();
            let mut alone: [TimeSeries; CHANNELS] = Default::default();
            let mut offered_ms = 0i64;
            for (i, step) in steps_ms.iter().enumerate() {
                offered_ms = (offered_ms + step).max(0);
                let t = SimTime::from_millis(offered_ms as u64);
                let mut sample = [0.0; CHANNELS];
                sample.copy_from_slice(&values[i * CHANNELS..(i + 1) * CHANNELS]);
                let before = columns.clone();
                let stored = columns.push(t, sample);
                for (ts, v) in alone.iter_mut().zip(sample) {
                    proptest::prop_assert_eq!(ts.push(t, v), stored.clone());
                }
                if stored.is_err() {
                    proptest::prop_assert_eq!(&columns, &before);
                }
            }
            let view = columns.view();
            let from = SimTime::from_millis(from_ms);
            let at = SimTime::from_millis(at_ms);
            let bits = |p: Option<f64>| p.map(f64::to_bits);
            let pair_bits = |p: Option<(f64, f64)>| p.map(|(t, v)| (t.to_bits(), v.to_bits()));
            for (column, series) in channel_pairs(view, &alone) {
                proptest::prop_assert!(std::ptr::eq(column.times(), view.sensor_c.times()));
                proptest::prop_assert_eq!(
                    column.iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect::<Vec<_>>(),
                    series.iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect::<Vec<_>>()
                );
                proptest::prop_assert_eq!(pair_bits(column.last()), pair_bits(series.last()));
                proptest::prop_assert_eq!(
                    bits(column.mean_after(from)),
                    bits(series.mean_after(from))
                );
                proptest::prop_assert_eq!(bits(column.value_at(at)), bits(series.value_at(at)));
            }
        }
    }
}
