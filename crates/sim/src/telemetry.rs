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
fn check_monotone(last: Option<f64>, secs: f64) -> Result<(), TelemetryError> {
    match last {
        Some(last_secs) if secs < last_secs => Err(TelemetryError::NonMonotonicTime {
            last_secs,
            new_secs: secs,
        }),
        _ => Ok(()),
    }
}

/// The timestamp (seconds) of sample `i` of a uniform time column: the
/// same `f64` that [`SimTime::as_secs_f64`] gave when it was recorded.
#[inline(always)]
fn uniform_secs(first_ms: u64, step_ms: u64, i: usize) -> f64 {
    SimTime::from_millis(first_ms + i as u64 * step_ms).as_secs_f64()
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
        check_monotone(self.times.last().copied(), secs)?;
        self.times.push(secs);
        self.values.push(value);
        Ok(())
    }

    /// The samples as a borrowed [`Series`].
    #[must_use]
    pub fn series(&self) -> Series<'_> {
        Series {
            len: self.times.len(),
            times: Times::Dense(&self.times),
            values: Values::Dense(&self.values, f64::NAN),
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

/// A borrowed time column: a uniform stride in closed form, or the
/// recorded seconds.
#[derive(Debug, Clone, Copy)]
enum Times<'a> {
    /// Sample `i` at `first_ms + i·step_ms` milliseconds.
    Uniform { first_ms: u64, step_ms: u64 },
    /// Sample `i` at `secs[i]` seconds.
    Dense(&'a [f64]),
}

impl Times<'_> {
    /// The timestamp (seconds) of sample `i`, which must exist.
    #[inline(always)]
    fn at(self, i: usize) -> f64 {
        match self {
            Times::Uniform { first_ms, step_ms } => uniform_secs(first_ms, step_ms, i),
            Times::Dense(secs) => secs[i],
        }
    }
}

/// A borrowed value column: the stored samples (whole-number codes or
/// the recorded values), then the newest run's value past them.
#[derive(Debug, Clone, Copy)]
enum Values<'a> {
    /// Sample `i` holds `f64::from(codes[i])`, or the run's value.
    Whole(&'a [i16], f64),
    /// Sample `i` holds `values[i]`, or the run's value.
    Dense(&'a [f64], f64),
}

impl Values<'_> {
    /// The value of sample `i`, which must exist.
    #[inline(always)]
    fn at(self, i: usize) -> f64 {
        match self {
            Values::Whole(codes, run) => codes.get(i).map_or(run, |&code| f64::from(code)),
            Values::Dense(values, run) => values.get(i).copied().unwrap_or(run),
        }
    }
}

/// A borrowed time-stamped scalar series: `len` samples, each a
/// non-decreasing timestamp (seconds) and a value. Either column may be
/// held in closed form (a uniform stride, a final run of one value); every
/// reader returns the bits that were recorded. The channels of one
/// [`ServerTrace`] share one time column.
#[derive(Debug, Clone, Copy)]
pub struct Series<'a> {
    len: usize,
    times: Times<'a>,
    values: Values<'a>,
}

impl PartialEq for Series<'_> {
    /// Equal when the samples are, whatever form the columns are in.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<'a> Series<'a> {
    /// Number of samples.
    #[must_use]
    pub fn len(self) -> usize {
        self.len
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Sample `i` as `(time_secs, value)`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn get(self, i: usize) -> Option<(f64, f64)> {
        (i < self.len).then(|| (self.times.at(i), self.values.at(i)))
    }

    /// Iterates `(time_secs, value)` pairs.
    pub fn iter(self) -> impl Iterator<Item = (f64, f64)> + 'a {
        (0..self.len).map(move |i| (self.times.at(i), self.values.at(i)))
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
        // Binary search for the count of samples at or before `secs`.
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.times.at(mid) <= secs {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let (_, value) = self.get(lo.checked_sub(1)?)?;
        Some(value)
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(self) -> Option<(f64, f64)> {
        self.get(self.len.checked_sub(1)?)
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
        let (times, values) = self.iter().unzip();
        TimeSeries { times, values }
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

/// A trace's time column. It keeps its stride in closed form until the
/// first sample off that stride, then holds the recorded seconds.
#[derive(Debug)]
enum TimeColumn {
    /// Sample `i` at `first_ms + i·step_ms` milliseconds; `step_ms` is
    /// set by the second sample.
    Uniform { first_ms: u64, step_ms: u64 },
    /// Sample `i` at `secs[i]` seconds.
    Dense(Vec<f64>),
}

impl Default for TimeColumn {
    fn default() -> Self {
        TimeColumn::Uniform {
            first_ms: 0,
            step_ms: 0,
        }
    }
}

impl TimeColumn {
    /// The timestamp (seconds) of the newest of `len` samples.
    fn last_secs(&self, len: usize) -> Option<f64> {
        let last = len.checked_sub(1)?;
        Some(self.view().at(last))
    }

    /// Appends sample number `len` at `t` (`secs` seconds), already
    /// checked monotone. A uniform column that `t` breaks turns dense.
    #[inline(always)]
    fn push(&mut self, len: usize, t: SimTime, secs: f64) {
        if let TimeColumn::Uniform { first_ms, step_ms } = self {
            let ms = t.as_millis();
            match len {
                0 => {
                    *first_ms = ms;
                    return;
                }
                // The monotone check compared seconds, so `ms` can only
                // precede `first_ms` where both round to one `f64`.
                1 => {
                    if let Some(step) = ms.checked_sub(*first_ms) {
                        *step_ms = step;
                        return;
                    }
                }
                _ => {
                    let on_stride = step_ms
                        .checked_mul(len as u64)
                        .and_then(|offset| first_ms.checked_add(offset));
                    if on_stride == Some(ms) {
                        return;
                    }
                }
            }
            let (first_ms, step_ms) = (*first_ms, *step_ms);
            *self = TimeColumn::Dense(
                (0..len)
                    .map(|i| uniform_secs(first_ms, step_ms, i))
                    .collect(),
            );
        }
        if let TimeColumn::Dense(column) = self {
            column.push(secs);
        }
    }

    fn view(&self) -> Times<'_> {
        match *self {
            TimeColumn::Uniform { first_ms, step_ms } => Times::Uniform { first_ms, step_ms },
            TimeColumn::Dense(ref secs) => Times::Dense(secs),
        }
    }
}

/// `value` as an `i16` code that converts back to the same bits, if it
/// has one. `-0.0`, NaN, fractions and values outside the `i16` range
/// have none: `as` maps them to a code that converts back to other bits.
#[inline(always)]
fn whole_code(value: f64) -> Option<i16> {
    let code = value as i16;
    (f64::from(code).to_bits() == value.to_bits()).then_some(code)
}

/// A trace's value column: the samples before its newest run of one value
/// (bits, so `-0.0` differs from `0.0` and NaN payloads differ), then that
/// run as its bits. It stores `i16` codes ([`whole_code`]) until the first
/// value without one, even the run's, then the recorded values for good.
/// A column of one repeated value stores nothing.
#[derive(Debug, Default)]
struct ValueColumn {
    stored: Stored,
    /// Samples `stored.len()..len` hold `f64::from_bits(last)` (`+0.0` at first).
    last: u64,
}

/// The samples a [`ValueColumn`] stores before its newest run.
#[derive(Debug)]
enum Stored {
    /// Sample `i` holds `f64::from(codes[i])`.
    Whole(Vec<i16>),
    /// Sample `i` holds `values[i]`.
    Dense(Vec<f64>),
}

impl Default for Stored {
    fn default() -> Self {
        Stored::Whole(Vec::new())
    }
}

impl ValueColumn {
    /// Appends sample number `len`: nothing if it repeats the run, else it
    /// writes the run out (in line for a dense one-sample run) and starts one.
    #[inline(always)]
    fn push(&mut self, len: usize, value: f64) {
        if value.to_bits() == self.last {
            return;
        }
        let run = f64::from_bits(self.last);
        match &mut self.stored {
            Stored::Dense(values) if values.len() + 1 == len => values.push(run),
            _ => self.write_run(len, run, value),
        }
        self.last = value.to_bits();
    }

    /// Stores `run` through sample `len - 1` before `value` starts a run.
    /// A whole store turns dense first at a value without a code.
    #[inline(never)]
    fn write_run(&mut self, len: usize, run: f64, value: f64) {
        match &mut self.stored {
            Stored::Dense(values) => values.resize(len, run),
            Stored::Whole(codes) => match (whole_code(run), whole_code(value)) {
                (Some(run), Some(_)) => codes.resize(len, run),
                _ => {
                    let mut values: Vec<f64> = codes.iter().copied().map(f64::from).collect();
                    values.resize(len, run);
                    self.stored = Stored::Dense(values);
                }
            },
        }
    }

    fn view(&self) -> Values<'_> {
        match self.stored {
            Stored::Whole(ref codes) => Values::Whole(codes, f64::from_bits(self.last)),
            Stored::Dense(ref values) => Values::Dense(values, f64::from_bits(self.last)),
        }
    }

    /// The heap bytes of the stored samples: capacity times element size.
    fn heap_bytes(&self) -> usize {
        match &self.stored {
            Stored::Whole(codes) => codes.capacity() * size_of::<i16>(),
            Stored::Dense(values) => values.capacity() * size_of::<f64>(),
        }
    }
}

/// One server's trace as the engine stores it: `len` samples of one time
/// column and the [`CHANNELS`] value columns beside it. The time column
/// stays a uniform stride while its samples fit one; a value column
/// stores only the samples before its newest run, as 2-byte codes while
/// they are whole numbers. So a Fixed-clock server under a fixed ambient
/// stores 2 bytes per sample for its whole-degree sensor, 8 for each
/// other channel that varies (dense columns took 48) and none for a
/// channel once it settles. Read it through [`TraceColumns::view`].
#[derive(Debug, Default)]
pub(crate) struct TraceColumns {
    len: usize,
    times: TimeColumn,
    /// Value columns in [`ServerTrace`] field order: sensor, die,
    /// utilization, power, ambient.
    channels: [ValueColumn; CHANNELS],
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
        check_monotone(self.times.last_secs(self.len), secs)?;
        self.times.push(self.len, t, secs);
        for (column, value) in self.channels.iter_mut().zip(sample) {
            column.push(self.len, value);
        }
        self.len += 1;
        Ok(())
    }

    /// The five channels as [`Series`] over the one time column. Built
    /// field by field rather than through `array::map`, which the
    /// compiler may leave out of line: a caller that reads one channel
    /// (the fleet monitor reads the sensor's newest sample per visit) then
    /// builds and copies all five.
    #[inline]
    pub(crate) fn view<'a>(&'a self) -> ServerTrace<'a> {
        let (len, times) = (self.len, self.times.view());
        let series = |column: &'a ValueColumn| Series {
            len,
            times,
            values: column.view(),
        };
        let [sensor_c, die_c, utilization, power_w, ambient_c] = &self.channels;
        ServerTrace {
            sensor_c: series(sensor_c),
            die_c: series(die_c),
            utilization: series(utilization),
            power_w: series(power_w),
            ambient_c: series(ambient_c),
        }
    }

    /// The heap bytes this trace holds: each stored column's capacity
    /// times its element size. Closed forms and newest runs hold none.
    pub(crate) fn heap_bytes(&self) -> usize {
        let times = match &self.times {
            TimeColumn::Uniform { .. } => 0,
            TimeColumn::Dense(secs) => secs.capacity() * size_of::<f64>(),
        };
        let channels: usize = self.channels.iter().map(ValueColumn::heap_bytes).sum();
        times + channels
    }

    /// The form each column is in: the time column, then the value
    /// columns in [`ServerTrace`] field order. A value column that stores
    /// nothing is [`Form::Constant`].
    #[cfg(test)]
    pub(crate) fn forms(&self) -> [Form; 1 + CHANNELS] {
        let mut forms = [match self.times {
            TimeColumn::Uniform { .. } => Form::Uniform,
            TimeColumn::Dense(_) => Form::Dense,
        }; 1 + CHANNELS];
        for (form, column) in forms[1..].iter_mut().zip(&self.channels) {
            *form = match &column.stored {
                Stored::Whole(codes) if !codes.is_empty() => Form::Whole,
                Stored::Dense(values) if !values.is_empty() => Form::Dense,
                _ => Form::Constant,
            };
        }
        forms
    }

    /// How many samples each value column stores, in [`ServerTrace`]
    /// field order; the rest are its newest run.
    #[cfg(test)]
    pub(crate) fn stored_lens(&self) -> [usize; CHANNELS] {
        self.channels.each_ref().map(|column| match &column.stored {
            Stored::Whole(codes) => codes.len(),
            Stored::Dense(values) => values.len(),
        })
    }
}

/// The form a trace column is stored in (see [`TraceColumns::forms`]).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    /// A time column on a uniform stride.
    Uniform,
    /// A value column that stores nothing: one repeated value.
    Constant,
    /// A value column that stores `i16` codes.
    Whole,
    /// Either column holding the recorded `f64`s.
    Dense,
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

    /// `(ψ_stable, true stable)`, or `None` before the first qualifying
    /// sample. Both folds take every sample together, so they are empty
    /// together.
    pub(crate) fn means(&self) -> Option<(f64, f64)> {
        Some((self.sensor_c.mean()?, self.die_c.mean()?))
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

    /// The samples a [`TraceColumns`] was offered, kept the naive way: one
    /// `Vec` of times and one `Vec` per channel.
    #[derive(Default)]
    struct Naive {
        millis: Vec<u64>,
        times: Vec<f64>,
        channels: [Vec<f64>; CHANNELS],
    }

    impl Naive {
        fn push(&mut self, t: SimTime, sample: [f64; CHANNELS]) -> Result<(), TelemetryError> {
            let secs = t.as_secs_f64();
            if let Some(&last_secs) = self.times.last() {
                if secs < last_secs {
                    return Err(TelemetryError::NonMonotonicTime {
                        last_secs,
                        new_secs: secs,
                    });
                }
            }
            self.millis.push(t.as_millis());
            self.times.push(secs);
            for (column, value) in self.channels.iter_mut().zip(sample) {
                column.push(value);
            }
            Ok(())
        }
    }

    /// The `f64` that `pick` names among those a column form must tell
    /// apart (signed zeros, NaN payloads, the edges of the `i16` codes),
    /// else `reading` rounded to a whole number or as drawn.
    fn awkward(pick: u8, reading: f64) -> f64 {
        match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::from_bits(0x7ff8_0000_0000_0001),
            4 => f64::from_bits(0xfff8_0000_0000_0002),
            5 => 24.0,
            6 => 0.5,
            7 => 32767.0,
            8 => -32768.0,
            9 => 32768.0,
            10 => 1e300,
            11 => -32769.0,
            12 => f64::INFINITY,
            13 | 14 => reading.round(),
            _ => reading,
        }
    }

    /// Whether a whole column may hold `value`: a whole number in the
    /// `i16` range other than `-0.0`. Worked out from the value itself,
    /// not by the store's `as` round trip.
    fn is_whole(value: f64) -> bool {
        value.fract() == 0.0
            && (-32768.0..=32767.0).contains(&value)
            && !(value == 0.0 && value.is_sign_negative())
    }

    /// The form naive columns of these samples must be stored in.
    fn naive_form(values: &[f64]) -> Form {
        if values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()) {
            Form::Constant
        } else if values.iter().all(|&v| is_whole(v)) {
            Form::Whole
        } else {
            Form::Dense
        }
    }

    /// Every channel's samples as bits, and each column's form.
    fn contents(columns: &TraceColumns) -> (Vec<Vec<(u64, u64)>>, [Form; 1 + CHANNELS]) {
        let view = columns.view();
        let samples = [
            view.sensor_c,
            view.die_c,
            view.utilization,
            view.power_w,
            view.ambient_c,
        ]
        .map(|series| {
            series
                .iter()
                .map(|(t, v)| (t.to_bits(), v.to_bits()))
                .collect()
        });
        (samples.to_vec(), columns.forms())
    }

    /// Millisecond offsets between offered samples, run by run: kind 0
    /// is the Fixed clock's 1 s stride, 1 an arbitrary stride (0 repeats
    /// a time), 2 the Event clock's doubling sleep capped at 16 s, and 3
    /// one backwards step.
    fn offsets(kinds: &[u8], strides: &[u64], counts: &[usize]) -> Vec<i64> {
        let mut out = Vec::new();
        for ((&kind, &stride), &count) in kinds.iter().zip(strides).zip(counts) {
            match kind % 4 {
                0 => out.extend(std::iter::repeat_n(1_000, count)),
                1 => out.extend(std::iter::repeat_n(stride as i64, count)),
                2 => out.extend((0..count).map(|k| 1_000i64 << k.min(4))),
                _ => out.push(-1 - (stride % 3_000) as i64),
            }
        }
        out
    }

    /// One channel's samples: run `k` repeats [`awkward`]`(picks[k],
    /// readings[k])` for a length drawn from `lengths[k]`, short (1 to 3
    /// samples) or long (100 to 399). A whole channel maps every pick to
    /// one of the values with a code.
    fn run_samples(picks: &[u8], readings: &[f64], lengths: &[usize], whole: bool) -> Vec<f64> {
        const WHOLE: [u8; 5] = [0, 5, 7, 8, 13];
        let mut out = Vec::new();
        for ((&pick, &reading), &length) in picks.iter().zip(readings).zip(lengths) {
            let pick = if whole {
                WHOLE[usize::from(pick) % WHOLE.len()]
            } else {
                pick
            };
            let n = if length < 300 {
                1 + length % 3
            } else {
                length - 200
            };
            out.extend(std::iter::repeat_n(awkward(pick, reading), n));
        }
        out
    }

    /// Offers `samples` (sample `i` of every channel) to fresh columns and
    /// to [`Naive`] columns, `steps[i]` ms after the previous offer, and
    /// checks that both accept or reject each.
    fn record(samples: &[[f64; CHANNELS]], steps: &[i64]) -> (TraceColumns, Naive) {
        let (mut columns, mut naive) = (TraceColumns::default(), Naive::default());
        let mut offered_ms = 0;
        for (&sample, &step) in samples.iter().zip(steps) {
            offered_ms = (offered_ms + step).max(0);
            let t = SimTime::from_millis(offered_ms as u64);
            assert_eq!(columns.push(t, sample), naive.push(t, sample));
        }
        (columns, naive)
    }

    /// Every `Series` reader of every channel returns, bit for bit, what
    /// the naive columns return.
    fn assert_readers_match(columns: &TraceColumns, naive: &Naive, from_ms: u64) {
        let pair = |p: Option<(f64, f64)>| p.map(|(t, v)| (t.to_bits(), v.to_bits()));
        let view = columns.view();
        let channels = [
            view.sensor_c,
            view.die_c,
            view.utilization,
            view.power_w,
            view.ambient_c,
        ];
        for (series, values) in channels.into_iter().zip(&naive.channels) {
            let want: Vec<(f64, f64)> = naive
                .times
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            let want_bits: Vec<(u64, u64)> = want
                .iter()
                .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                .collect();
            let bits = |samples: &mut dyn Iterator<Item = (f64, f64)>| -> Vec<(u64, u64)> {
                samples.map(|(t, v)| (t.to_bits(), v.to_bits())).collect()
            };
            assert_eq!(series.len(), want.len());
            assert_eq!(bits(&mut series.iter()), want_bits);
            for i in 0..=want.len() {
                assert_eq!(pair(series.get(i)), pair(want.get(i).copied()));
            }
            assert_eq!(pair(series.last()), pair(want.last().copied()));
            for ms in naive
                .millis
                .iter()
                .flat_map(|&ms| [ms, ms + 1, ms.saturating_sub(1)])
            {
                let secs = SimTime::from_millis(ms).as_secs_f64();
                let k = naive.times.partition_point(|x| *x <= secs);
                let got = series.value_at(SimTime::from_millis(ms)).map(f64::to_bits);
                assert_eq!(got, k.checked_sub(1).map(|k| values[k].to_bits()));
            }
            let from_secs = SimTime::from_millis(from_ms).as_secs_f64();
            let after: Vec<f64> = want
                .iter()
                .filter(|(t, _)| *t >= from_secs)
                .map(|&(_, v)| v)
                .collect();
            let mean = (!after.is_empty())
                .then(|| after.iter().fold(0.0, |sum, v| sum + v) / after.len() as f64);
            let got = series
                .mean_after(SimTime::from_millis(from_ms))
                .map(f64::to_bits);
            assert_eq!(got, mean.map(f64::to_bits));
            let csv: String = want.iter().map(|(t, v)| format!("{t},{v}\n")).collect();
            assert_eq!(series.to_csv("x"), format!("time_s,x\n{csv}"));
            let owned = series.to_time_series();
            assert_eq!(
                bits(
                    &mut owned
                        .times
                        .iter()
                        .copied()
                        .zip(owned.values.iter().copied())
                ),
                want_bits
            );
        }
    }

    /// How many samples at the end of `values` repeat its last one, bit
    /// for bit.
    fn final_run(values: &[f64]) -> usize {
        let last = values.last().map(|v| v.to_bits());
        values
            .iter()
            .rev()
            .take_while(|v| Some(v.to_bits()) == last)
            .count()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every `Series` reader of every channel returns, bit for bit,
        /// what naive dense columns return, while the columns take and
        /// leave their closed forms and `i16` codes; a backwards sample is
        /// rejected the same way and changes no column. Channel `c` holds
        /// its first value until sample `breaks[c]`, then a run of
        /// `whole_runs[c]` whole numbers, then awkward values, so columns
        /// stay constant, go `Constant → Whole`, `Constant → Whole →
        /// Dense` (broken late by a value without a code) or straight to
        /// dense. Each column ends in exactly the form its samples fit.
        #[test]
        fn every_reader_matches_naive_dense_columns(
            start_ms in 0u64..5_000,
            kinds in proptest::collection::vec(0u8..4, 0..7),
            strides in proptest::collection::vec(0u64..20_000, 7),
            counts in proptest::collection::vec(1usize..40, 7),
            picks in proptest::collection::vec(0u8..18, CHANNELS + 16),
            readings in proptest::collection::vec(-50.0..150.0f64, CHANNELS + 16),
            breaks in proptest::collection::vec(0usize..120, CHANNELS),
            whole_runs in proptest::collection::vec(0usize..150, CHANNELS),
            wholes in proptest::collection::vec(-60i16..130, 1..12),
            from_ms in 0u64..300_000,
            at_ms in 0u64..300_000,
        ) {
            let mut columns = TraceColumns::default();
            let mut naive = Naive::default();
            let mut offered_ms = start_ms as i64;
            let values: Vec<f64> = picks.iter().zip(&readings).map(|(&p, &r)| awkward(p, r)).collect();
            let (firsts, tails) = values.split_at(CHANNELS);
            for (i, step) in std::iter::once(0).chain(offsets(&kinds, &strides, &counts)).enumerate() {
                offered_ms = (offered_ms + step).max(0);
                let t = SimTime::from_millis(offered_ms as u64);
                let sample: [f64; CHANNELS] = std::array::from_fn(|c| {
                    match i.checked_sub(breaks[c]) {
                        None => firsts[c],
                        Some(k) if k < whole_runs[c] => f64::from(wholes[(k + c) % wholes.len()]),
                        Some(k) => tails[(k - whole_runs[c] + c) % tails.len()],
                    }
                });
                let before = contents(&columns);
                let stored = columns.push(t, sample);
                proptest::prop_assert_eq!(&stored, &naive.push(t, sample));
                if stored.is_err() {
                    proptest::prop_assert_eq!(contents(&columns), before);
                }
            }

            let uniform = naive.millis.windows(3).all(|w| w[1] - w[0] == w[2] - w[1]);
            let mut forms = vec![if uniform { Form::Uniform } else { Form::Dense }];
            forms.extend(naive.channels.iter().map(|column| naive_form(column)));
            proptest::prop_assert_eq!(columns.forms().to_vec(), forms);

            let bits = |p: Option<f64>| p.map(f64::to_bits);
            let pair_bits = |p: Option<(f64, f64)>| p.map(|(t, v)| (t.to_bits(), v.to_bits()));
            let view = columns.view();
            let channels = [view.sensor_c, view.die_c, view.utilization, view.power_w, view.ambient_c];
            for (series, values) in channels.into_iter().zip(&naive.channels) {
                let times = &naive.times;
                let n = times.len();
                proptest::prop_assert_eq!(series.len(), n);
                proptest::prop_assert_eq!(series.is_empty(), n == 0);
                proptest::prop_assert_eq!(
                    series.iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect::<Vec<_>>(),
                    times.iter().zip(values).map(|(t, v)| (t.to_bits(), v.to_bits())).collect::<Vec<_>>()
                );
                for i in 0..=n {
                    let want = times.get(i).zip(values.get(i)).map(|(&t, &v)| (t, v));
                    proptest::prop_assert_eq!(pair_bits(series.get(i)), pair_bits(want));
                }
                let last = times.last().zip(values.last()).map(|(&t, &v)| (t, v));
                proptest::prop_assert_eq!(pair_bits(series.last()), pair_bits(last));

                let probes = naive.millis.iter().flat_map(|&ms| [ms, ms + 1, ms.saturating_sub(1)]);
                for ms in probes.chain([0, at_ms]) {
                    let secs = SimTime::from_millis(ms).as_secs_f64();
                    let want = times
                        .partition_point(|x| *x <= secs)
                        .checked_sub(1)
                        .map(|k| values[k]);
                    proptest::prop_assert_eq!(bits(series.value_at(SimTime::from_millis(ms))), bits(want));
                }

                let from_secs = SimTime::from_millis(from_ms).as_secs_f64();
                let (mut sum, mut count) = (0.0, 0usize);
                for (t, v) in times.iter().zip(values) {
                    if *t >= from_secs {
                        sum += v;
                        count += 1;
                    }
                }
                let want = (count > 0).then(|| sum / count as f64);
                proptest::prop_assert_eq!(bits(series.mean_after(SimTime::from_millis(from_ms))), bits(want));

                let mut csv = String::from("time_s,x\n");
                for (t, v) in times.iter().zip(values) {
                    csv.push_str(&format!("{t},{v}\n"));
                }
                proptest::prop_assert_eq!(series.to_csv("x"), csv);

                let owned = series.to_time_series();
                proptest::prop_assert_eq!(
                    owned.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    times.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                );
                proptest::prop_assert_eq!(
                    owned.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }

        /// Long runs of one value, at the start, in the middle and at the
        /// end of whole and dense columns, read back bit for bit, and each
        /// column stores exactly its samples before its final run. Runs
        /// repeat signed zeros, NaN payloads, values without a code and
        /// whole numbers; an odd `whole[c]` keeps channel `c` on whole
        /// numbers, and every channel ends with `tail` repeats of its last
        /// value.
        #[test]
        fn runs_read_back_and_only_the_final_run_goes_unstored(
            picks in proptest::collection::vec(proptest::collection::vec(0u8..18, 6), CHANNELS),
            readings in proptest::collection::vec(proptest::collection::vec(-50.0..150.0f64, 6), CHANNELS),
            lengths in proptest::collection::vec(proptest::collection::vec(0usize..600, 1..7), CHANNELS),
            whole in proptest::collection::vec(0u8..2, CHANNELS),
            tail in 0usize..500,
            from_ms in 0u64..2_000_000,
        ) {
            let mut channels: Vec<Vec<f64>> = (0..CHANNELS)
                .map(|c| run_samples(&picks[c], &readings[c], &lengths[c], whole[c] == 1))
                .collect();
            let n = channels.iter().map(Vec::len).min().unwrap_or(0);
            for column in &mut channels {
                column.truncate(n);
                column.extend(std::iter::repeat_n(column[n - 1], tail));
            }
            let samples: Vec<[f64; CHANNELS]> = (0..n + tail).map(|i| std::array::from_fn(|c| channels[c][i])).collect();
            let (columns, naive) = record(&samples, &vec![1_000; samples.len()]);
            assert_readers_match(&columns, &naive, from_ms);
            let forms: Vec<Form> = naive.channels.iter().map(|values| naive_form(values)).collect();
            proptest::prop_assert_eq!(&columns.forms()[1..], &forms[..]);
            let stored: Vec<usize> = naive.channels.iter().map(|values| values.len() - final_run(values)).collect();
            proptest::prop_assert_eq!(&columns.stored_lens()[..], &stored[..]);
        }

        /// `heap_bytes` is each stored column's capacity times its element
        /// size, summed by hand, over random time breaks, column forms and
        /// runs, and covers at least the samples stored.
        #[test]
        fn heap_bytes_counts_every_stored_column(
            kinds in proptest::collection::vec(0u8..4, 1..7),
            strides in proptest::collection::vec(0u64..20_000, 7),
            counts in proptest::collection::vec(1usize..60, 7),
            picks in proptest::collection::vec(proptest::collection::vec(0u8..18, 6), CHANNELS),
            readings in proptest::collection::vec(proptest::collection::vec(-50.0..150.0f64, 6), CHANNELS),
            lengths in proptest::collection::vec(proptest::collection::vec(0usize..600, 1..7), CHANNELS),
            whole in proptest::collection::vec(0u8..2, CHANNELS),
        ) {
            let steps: Vec<i64> = std::iter::once(0).chain(offsets(&kinds, &strides, &counts)).collect();
            let channels: Vec<Vec<f64>> = (0..CHANNELS)
                .map(|c| run_samples(&picks[c], &readings[c], &lengths[c], whole[c] == 1))
                .collect();
            let samples: Vec<[f64; CHANNELS]> = (0..steps.len())
                .map(|i| std::array::from_fn(|c| channels[c][i % channels[c].len()]))
                .collect();
            let (columns, _) = record(&samples, &steps);
            let mut bytes = match &columns.times {
                TimeColumn::Uniform { .. } => 0,
                TimeColumn::Dense(secs) => 8 * secs.capacity(),
            };
            let mut floor = bytes;
            for column in &columns.channels {
                let (element, capacity, len) = match &column.stored {
                    Stored::Whole(codes) => (2, codes.capacity(), codes.len()),
                    Stored::Dense(values) => (8, values.capacity(), values.len()),
                };
                bytes += element * capacity;
                floor += element * len;
            }
            proptest::prop_assert_eq!(columns.heap_bytes(), bytes);
            proptest::prop_assert!(bytes >= floor);
        }
    }
}
