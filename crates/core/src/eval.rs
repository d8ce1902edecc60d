//! Evaluation harness: replays measured series against predictors and
//! computes the paper's MSE metric.
//!
//! Stable prediction is scored per experiment case (Fig. 1(a)); dynamic
//! prediction is scored along a time series with a prediction gap
//! (Fig. 1(b)/(c)): at each sample `t` the predictor (having seen
//! everything up to `t`) forecasts `t + Δ_gap`, and the forecast is
//! compared with the measurement that later arrives at that time.

use crate::predictor::OnlinePredictor;
use crate::stable::StablePredictor;
use vmtherm_sim::experiment::ExperimentOutcome;
use vmtherm_sim::telemetry::Series;
use vmtherm_svm::metrics;
use vmtherm_units::{Celsius, Seconds};

/// One scored forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// The forecast target time (s).
    pub t_secs: f64,
    /// What the sensor later measured.
    pub actual: f64,
    /// What the predictor forecast at `t − Δ_gap`.
    pub predicted: f64,
}

/// Result of replaying one series against one predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicEvalReport {
    /// Predictor name.
    pub name: String,
    /// Prediction gap used (s).
    pub gap_secs: f64,
    /// All scored forecasts.
    pub points: Vec<EvalPoint>,
    /// Mean squared error over the points.
    pub mse: f64,
    /// Mean absolute error over the points.
    pub mae: f64,
}

/// Replays `series` (assumed evenly sampled) against an online predictor
/// with forecast horizon `gap_secs`.
///
/// Every sample is first offered via [`OnlinePredictor::observe`]; then the
/// predictor forecasts `t + gap`, and the pair is scored once the series
/// reaches that time. NaN forecasts (an un-warmed predictor) are skipped.
///
/// # Panics
///
/// Panics if the series has fewer than two samples or `gap_secs <= 0`.
#[must_use]
pub fn evaluate_online(
    predictor: &mut dyn OnlinePredictor,
    series: Series<'_>,
    gap_secs: Seconds,
) -> DynamicEvalReport {
    replay(predictor, series, gap_secs, |_, _, _| {})
}

/// The replay loop behind [`evaluate_online`] and [`evaluate_dynamic`]:
/// at each sample, `before_observe(predictor, t, v)` runs first, then the
/// predictor observes the sample, forecasts `t + gap`, and the forecast is
/// scored against the measurement at (or just after) that time. Generic,
/// so the dynamic replay stays statically dispatched.
fn replay<P: OnlinePredictor + ?Sized>(
    predictor: &mut P,
    series: Series<'_>,
    gap_secs: Seconds,
    mut before_observe: impl FnMut(&mut P, f64, f64),
) -> DynamicEvalReport {
    let gap_secs = gap_secs.get();
    assert!(series.len() >= 2, "need at least two samples");
    assert!(gap_secs > 0.0, "gap must be positive");
    let Some((end, _)) = series.last() else {
        return DynamicEvalReport::scored(predictor.name(), gap_secs, Vec::new());
    };

    let mut actuals = ActualCursor::default();
    let mut points = Vec::new();
    for (i, (t, v)) in series.iter().enumerate() {
        before_observe(predictor, t, v);
        predictor.observe(Seconds::new(t), Celsius::new(v));
        let target = t + gap_secs;
        if target > end {
            continue;
        }
        let predicted = predictor.predict_ahead(Seconds::new(t), Seconds::new(gap_secs));
        if predicted.is_nan() {
            continue;
        }
        // Actual measurement at (or just after) the target time.
        let Some((_, actual)) = series.get(actuals.index(series, i, target)) else {
            continue;
        };
        points.push(EvalPoint {
            t_secs: target,
            actual,
            predicted,
        });
    }
    DynamicEvalReport::scored(predictor.name(), gap_secs, points)
}

/// Finds the measurement at (or just after) each forecast target of a
/// replay. The targets `t + gap` never decrease, so one cursor walks the
/// series forward once instead of a binary search per sample.
#[derive(Debug, Default)]
struct ActualCursor {
    next: usize,
}

impl ActualCursor {
    /// The first index at or after `from` whose time is not below
    /// `target − 1e-9`, clamped to the last sample: the index
    /// `times[from..].partition_point(|t| *t < target - 1e-9) + from`
    /// would give over the series' times, provided neither `from` nor
    /// `target` decreases between calls.
    fn index(&mut self, series: Series<'_>, from: usize, target: f64) -> usize {
        let mut c = self.next.max(from);
        while series.get(c).is_some_and(|(t, _)| t < target - 1e-9) {
            c += 1;
        }
        self.next = c;
        c.min(series.len().saturating_sub(1))
    }
}

/// A scheduled re-anchor for [`evaluate_dynamic`]: at `t_secs` the
/// configuration changed and the stable model predicts `psi_stable` for
/// the new configuration. φ(0) is taken from the measurement stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorPoint {
    /// When the reconfiguration happened (s).
    pub t_secs: f64,
    /// The stable model's ψ_stable prediction for the new configuration.
    pub psi_stable: f64,
}

impl DynamicEvalReport {
    /// The report over `points`; its errors are NaN when none were scored.
    fn scored(name: &str, gap_secs: f64, points: Vec<EvalPoint>) -> Self {
        let (actual, predicted): (Vec<f64>, Vec<f64>) =
            points.iter().map(|p| (p.actual, p.predicted)).unzip();
        let (mse, mae) = if points.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (
                metrics::mse(&actual, &predicted),
                metrics::mae(&actual, &predicted),
            )
        };
        DynamicEvalReport {
            name: name.to_string(),
            gap_secs,
            points,
            mse,
            mae,
        }
    }

    /// Serialises the scored forecasts as CSV
    /// (`time_s,actual_c,predicted_c`), ready for plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,actual_c,predicted_c\n");
        for p in &self.points {
            out.push_str(&format!("{},{},{}\n", p.t_secs, p.actual, p.predicted));
        }
        out
    }
}

/// Replays a measured series against a [`crate::dynamic::DynamicPredictor`], applying the
/// given anchors as the stream passes them (the first anchor is applied at
/// or before the first sample). This is the full paper pipeline for
/// Fig. 1(b)/(c): stable model supplies ψ_stable at each reconfiguration,
/// the curve re-anchors from the current measurement, calibration runs in
/// between.
///
/// # Panics
///
/// Panics if `anchors` is empty or not sorted by time, if the series has
/// fewer than two samples, or if `gap_secs <= 0`.
#[must_use]
pub fn evaluate_dynamic(
    predictor: &mut crate::dynamic::DynamicPredictor,
    series: Series<'_>,
    gap_secs: Seconds,
    anchors: &[AnchorPoint],
) -> DynamicEvalReport {
    let _span = vmtherm_obs::span(vmtherm_obs::names::SPAN_DYNAMIC_EVAL);
    assert!(!anchors.is_empty(), "need at least one anchor");
    assert!(
        anchors.windows(2).all(|w| w[0].t_secs <= w[1].t_secs),
        "anchors must be sorted by time"
    );
    let mut next_anchor = 0usize;
    replay(predictor, series, gap_secs, |predictor, t, v| {
        while next_anchor < anchors.len() && anchors[next_anchor].t_secs <= t + 1e-9 {
            predictor.anchor(
                Seconds::new(t),
                Celsius::new(v),
                Celsius::new(anchors[next_anchor].psi_stable),
            );
            next_anchor += 1;
        }
    })
}

/// Result of scoring a stable predictor on held-out cases — the Fig. 1(a)
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct StableEvalReport {
    /// `(case index, measured ψ_stable, predicted ψ_stable)` rows.
    pub cases: Vec<(usize, f64, f64)>,
    /// Mean squared error across cases.
    pub mse: f64,
    /// Mean absolute error across cases.
    pub mae: f64,
    /// Largest absolute error.
    pub max_error: f64,
}

impl StableEvalReport {
    /// Serialises the per-case rows as CSV
    /// (`case,measured_c,predicted_c,error_c`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("case,measured_c,predicted_c,error_c\n");
        for (i, measured, predicted) in &self.cases {
            out.push_str(&format!(
                "{i},{measured},{predicted},{}\n",
                predicted - measured
            ));
        }
        out
    }
}

/// Scores a trained stable predictor on test outcomes.
///
/// # Panics
///
/// Panics on an empty test set.
#[must_use]
pub fn evaluate_stable(
    predictor: &StablePredictor,
    test: &[ExperimentOutcome],
) -> StableEvalReport {
    assert!(!test.is_empty(), "empty test set");
    let snapshots: Vec<_> = test.iter().map(|o| o.snapshot.clone()).collect();
    let predicted = predictor.predict_batch(&snapshots);
    let cases: Vec<_> = test
        .iter()
        .zip(predicted)
        .enumerate()
        .map(|(i, (o, p))| (i, o.psi_stable, p))
        .collect();
    let actual: Vec<f64> = cases.iter().map(|c| c.1).collect();
    let predicted: Vec<f64> = cases.iter().map(|c| c.2).collect();
    StableEvalReport {
        cases,
        mse: metrics::mse(&actual, &predicted),
        mae: metrics::mae(&actual, &predicted),
        max_error: metrics::max_error(&actual, &predicted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::LastValuePredictor;
    use vmtherm_sim::telemetry::TimeSeries;

    fn ramp_series(n: usize) -> TimeSeries {
        (0..n).map(|i| (i as f64, 30.0 + i as f64 * 0.1)).collect()
    }

    #[test]
    fn last_value_on_ramp_has_known_error() {
        // Ramp rises 0.1/s; last-value with gap 10 is always 1.0 low.
        let series = ramp_series(100);
        let mut p = LastValuePredictor::new();
        let report = evaluate_online(&mut p, series.series(), Seconds::new(10.0));
        assert!(!report.points.is_empty());
        assert!((report.mse - 1.0).abs() < 1e-9, "mse = {}", report.mse);
        assert!((report.mae - 1.0).abs() < 1e-9);
        assert_eq!(report.name, "last-value");
    }

    #[test]
    fn perfect_predictor_scores_zero() {
        struct Oracle;
        impl OnlinePredictor for Oracle {
            fn observe(&mut self, _t: Seconds, _m: Celsius) {}
            fn predict_ahead(&self, t: Seconds, gap: Seconds) -> f64 {
                30.0 + (t.get() + gap.get()) * 0.1
            }
            fn name(&self) -> &str {
                "oracle"
            }
        }
        let report = evaluate_online(&mut Oracle, ramp_series(50).series(), Seconds::new(5.0));
        assert!(report.mse < 1e-18);
    }

    #[test]
    fn forecasts_beyond_series_end_are_skipped() {
        let series = ramp_series(20);
        let mut p = LastValuePredictor::new();
        let report = evaluate_online(&mut p, series.series(), Seconds::new(5.0));
        // Targets range 5..=19: 15 scored points (t = 0..=14).
        assert_eq!(report.points.len(), 15);
        assert!(report.points.iter().all(|pt| pt.t_secs <= 19.0));
    }

    #[test]
    fn nan_warmup_skipped() {
        // LastValue predicts NaN before its first observation — but since
        // observe precedes predict in the loop, every point is valid; use
        // a predictor that stays NaN for a while instead.
        struct SlowStart {
            seen: usize,
        }
        impl OnlinePredictor for SlowStart {
            fn observe(&mut self, _t: Seconds, _m: Celsius) {
                self.seen += 1;
            }
            fn predict_ahead(&self, _t: Seconds, _gap: Seconds) -> f64 {
                if self.seen < 10 {
                    f64::NAN
                } else {
                    42.0
                }
            }
            fn name(&self) -> &str {
                "slow"
            }
        }
        let report = evaluate_online(
            &mut SlowStart { seen: 0 },
            ramp_series(30).series(),
            Seconds::new(5.0),
        );
        assert_eq!(report.points.len(), 30 - 5 - 9);
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn zero_gap_panics() {
        let mut p = LastValuePredictor::new();
        let _ = evaluate_online(&mut p, ramp_series(10).series(), Seconds::ZERO);
    }

    #[test]
    fn evaluate_dynamic_tracks_two_phase_scenario() {
        use crate::dynamic::{DynamicConfig, DynamicPredictor};
        // Phase 1: warm from 30 toward 50; phase 2 (t >= 300): toward 60.
        // Build the "measured" series from the same curve family the
        // predictor uses, so a correctly-anchored predictor scores ~0.
        let c1 = crate::curve::WarmupCurve::standard(Celsius::new(30.0), Celsius::new(50.0));
        let c2 = crate::curve::WarmupCurve::standard(
            Celsius::new(c1.value(Seconds::new(300.0))),
            Celsius::new(60.0),
        );
        let series: TimeSeries = (0..900)
            .map(|s| {
                let t = s as f64;
                let v = if t < 300.0 {
                    c1.value(Seconds::new(t))
                } else {
                    c2.value(Seconds::new(t - 300.0))
                };
                (t, v)
            })
            .collect();
        let anchors = [
            AnchorPoint {
                t_secs: 0.0,
                psi_stable: 50.0,
            },
            AnchorPoint {
                t_secs: 300.0,
                psi_stable: 60.0,
            },
        ];
        let mut p = DynamicPredictor::new(DynamicConfig::new()).unwrap();
        let report = evaluate_dynamic(&mut p, series.series(), Seconds::new(60.0), &anchors);
        // Residual error comes only from forecasts issued just before the
        // (unannounced) phase change at t = 300.
        assert!(report.mse < 1.0, "mse = {}", report.mse);
        // Without the second anchor the predictor misses the phase change.
        let mut p2 = DynamicPredictor::new(DynamicConfig::new().without_calibration()).unwrap();
        let report2 = evaluate_dynamic(&mut p2, series.series(), Seconds::new(60.0), &anchors[..1]);
        assert!(
            report2.mse > report.mse,
            "{} vs {}",
            report2.mse,
            report.mse
        );
    }

    /// One anchor at the first sample is exactly an anchor set before an
    /// online replay: both paths run the same loop, so every scored point
    /// and both errors agree bit for bit.
    #[test]
    fn evaluate_dynamic_with_one_anchor_matches_evaluate_online() {
        use crate::dynamic::{DynamicConfig, DynamicPredictor};
        let series: TimeSeries = (0..700)
            .map(|s| {
                let t = f64::from(s);
                (
                    t,
                    30.0 + 20.0 * (1.0 - (-t / 150.0).exp()) + (t * 0.37).sin(),
                )
            })
            .collect();
        let (t0, v0) = series.series().get(0).unwrap();
        let gap = Seconds::new(60.0);
        let anchors = [AnchorPoint {
            t_secs: t0,
            psi_stable: 52.0,
        }];
        let mut dynamic = DynamicPredictor::new(DynamicConfig::new()).unwrap();
        let via_dynamic = evaluate_dynamic(&mut dynamic, series.series(), gap, &anchors);

        let mut online = DynamicPredictor::new(DynamicConfig::new()).unwrap();
        online.anchor(Seconds::new(t0), Celsius::new(v0), Celsius::new(52.0));
        let via_online = evaluate_online(&mut online, series.series(), gap);

        let bits = |r: &DynamicEvalReport| -> Vec<[u64; 3]> {
            r.points
                .iter()
                .map(|p| {
                    [
                        p.t_secs.to_bits(),
                        p.actual.to_bits(),
                        p.predicted.to_bits(),
                    ]
                })
                .collect()
        };
        assert!(!via_dynamic.points.is_empty());
        assert_eq!(bits(&via_dynamic), bits(&via_online));
        assert_eq!(via_dynamic.mse.to_bits(), via_online.mse.to_bits());
        assert_eq!(via_dynamic.mae.to_bits(), via_online.mae.to_bits());
        assert_eq!(via_dynamic.name, via_online.name);
        assert_ne!(dynamic.gamma(), 0.0, "calibration never ran");
    }

    #[test]
    #[should_panic(expected = "anchor")]
    fn evaluate_dynamic_needs_anchor() {
        use crate::dynamic::{DynamicConfig, DynamicPredictor};
        let mut p = DynamicPredictor::new(DynamicConfig::new()).unwrap();
        let _ = evaluate_dynamic(&mut p, ramp_series(10).series(), Seconds::new(5.0), &[]);
    }

    #[test]
    fn report_csv_round_numbers() {
        let report = DynamicEvalReport {
            name: "x".into(),
            gap_secs: 60.0,
            points: vec![EvalPoint {
                t_secs: 60.0,
                actual: 40.0,
                predicted: 41.5,
            }],
            mse: 2.25,
            mae: 1.5,
        };
        assert_eq!(report.to_csv(), "time_s,actual_c,predicted_c\n60,40,41.5\n");
        let stable = StableEvalReport {
            cases: vec![(0, 50.0, 51.0)],
            mse: 1.0,
            mae: 1.0,
            max_error: 1.0,
        };
        assert_eq!(
            stable.to_csv(),
            "case,measured_c,predicted_c,error_c\n0,50,51,1\n"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn actual_cursor_matches_a_binary_search(
            steps in proptest::collection::vec(0u8..4, 2..80),
            gap_tenths in 1u32..400,
            skip_every in 0usize..5,
        ) {
            // Quarter-second steps; a zero step repeats the previous time.
            let mut t = 0.0;
            let times: Vec<f64> = steps
                .iter()
                .map(|&step| {
                    t += f64::from(step) * 0.25;
                    t
                })
                .collect();
            let series: TimeSeries = times.iter().map(|&t| (t, 0.0)).collect();
            for gap in [f64::from(gap_tenths) * 0.1, 0.25, 1.0, 1e3] {
                let mut cursor = ActualCursor::default();
                for (i, &ti) in times.iter().enumerate() {
                    // A replay skips the samples it does not score.
                    if skip_every > 0 && i % skip_every == 0 {
                        continue;
                    }
                    let target = ti + gap;
                    let searched = times[i..].partition_point(|x| *x < target - 1e-9) + i;
                    proptest::prop_assert_eq!(
                        cursor.index(series.series(), i, target),
                        searched.min(times.len() - 1),
                        "sample {} gap {}", i, gap
                    );
                }
            }
        }
    }
}
