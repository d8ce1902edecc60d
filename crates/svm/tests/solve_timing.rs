//! One SMO solve reads the clock once at each end: the `smo_solve` span's
//! duration is the `vmtherm_smo_solve_ns` sample and the `SmoSolve`
//! event's `dur_ns`.
//!
//! Its own test binary with one test: the registry, the obs switch and the
//! trace log are process-global.

use vmtherm_obs::{self as obs, names, Histogram, ObsEvent, TraceMode};
use vmtherm_svm::data::Dataset;
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::matrix::DenseMatrix;
use vmtherm_svm::svr::{SvrModel, SvrParams};

#[test]
fn solve_histogram_and_events_share_the_span_duration() {
    let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i) * 0.1]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
    let data = Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap();
    let params = SvrParams::new()
        .with_c(10.0)
        .with_epsilon(0.01)
        .with_kernel(Kernel::rbf(0.5));

    let hist = obs::global().histogram(names::METRIC_SMO_SOLVE_NS, Histogram::ns_buckets);
    let (count_before, sum_before) = (hist.count(), hist.sum());
    obs::enable_trace(TraceMode::Unbounded);
    SvrModel::train(&data, params).unwrap();
    let events = obs::disable_trace();
    obs::set_enabled(false);

    let span_ns: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::Span { path, dur_ns } if path == names::SPAN_SMO_SOLVE => Some(*dur_ns),
            _ => None,
        })
        .collect();
    let solve_ns: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::SmoSolve { dur_ns, .. } => Some(*dur_ns),
            _ => None,
        })
        .collect();
    assert_eq!(span_ns.len(), 1, "events: {events:?}");
    assert_eq!(solve_ns, span_ns);
    assert_eq!(hist.count() - count_before, 1);
    assert_eq!(hist.sum() - sum_before, solve_ns[0] as f64);
}
