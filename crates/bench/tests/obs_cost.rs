//! Scrape cost budget: rendering the populated global registry as
//! Prometheus text, at a 10 Hz scrape cadence, must cost under 1% of a
//! core.
//!
//! The render is timed directly rather than inferred from engine
//! throughput with and without a scraper: on a single-core runner those
//! wall-clock deltas carry about ±10% scheduler noise, an order of
//! magnitude above the cost being gated. Serving `/metrics` leaving the
//! simulation bit-identical is `vmtherm-sim`'s `scrape_during_stepping`
//! test.
//!
//! This file is its own test binary because it enables the process-wide
//! registry.

use std::time::Instant;
use vmtherm_bench::{dynamic_scenario, score_dynamic, train_stable_model, training_campaign};
use vmtherm_obs::{self as obs, names};

/// Prometheus scrape cadence the budget is stated at.
const SCRAPE_CADENCE_HZ: f64 = 10.0;
/// Share of one core the renders may take at that cadence (%).
const BUDGET_PCT: f64 = 1.0;
/// Renders timed; the cheapest one is the per-scrape cost.
const RENDERS: usize = 200;

#[test]
fn registry_render_stays_under_one_percent_at_10_hz() {
    // Populate the registry from a representative pipeline: one SVR
    // training plus one calibrated dynamic scenario.
    obs::global().reset();
    obs::reset_spans();
    obs::set_enabled(true);
    let model = train_stable_model(&training_campaign(10, 1), false);
    let scenario = dynamic_scenario(&model, 5, 1, 4, 24.0, 900, 1800, 11);
    let report = score_dynamic(&scenario, 60.0, 15.0, true);
    obs::set_enabled(false);
    assert!(report.mse.is_finite(), "scenario MSE {}", report.mse);

    let text = obs::global().to_prometheus();
    assert!(
        text.contains(names::METRIC_SMO_SOLVE_NS),
        "render is missing the populated histogram families"
    );

    let render_ns = (0..RENDERS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(obs::global().to_prometheus());
            start.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0);
    let overhead_pct = render_ns as f64 * 1e-9 * SCRAPE_CADENCE_HZ * 100.0;
    println!(
        "registry render: {render_ns} ns/scrape -> {overhead_pct:.4}% of a core at \
         {SCRAPE_CADENCE_HZ:.0} Hz"
    );
    assert!(
        overhead_pct < BUDGET_PCT,
        "scrape overhead {overhead_pct:.2}% exceeds the {BUDGET_PCT}% budget"
    );
}
