//! `FleetMonitor::publish` is the monitor's one export path: it writes
//! the drift gauges, each server's forecast-error summary and the fleet
//! roll-up gauges from the monitor's own state, as of the last observe.
//! The one metric `observe` feeds itself, its latency summary, reads the
//! `monitor_observe` span's duration.
//!
//! Its own test binary: the registry and the obs switch are
//! process-global, so every test here holds `obs_lock` and no other
//! monitor publishes while one is read.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::monitor::FleetMonitor;
use vmtherm_core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm_obs::{self as obs, names};
use vmtherm_sim::{
    AmbientModel, CaseGenerator, ClockMode, Datacenter, DropoutFault, FaultPlan, JitterFault,
    ServerId, ServerSpec, SimDuration, Simulation, SpikeFault, TaskProfile, VmSpec,
};
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::svr::SvrParams;
use vmtherm_units::{Celsius, Seconds};

const SERVERS: usize = 6;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn stable_model() -> StablePredictor {
    static MODEL: OnceLock<StablePredictor> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let configs: Vec<_> = CaseGenerator::new(42)
                .random_cases(20, 1_000)
                .into_iter()
                .map(|c| c.with_duration(SimDuration::from_secs(900)))
                .collect();
            StablePredictor::fit(
                &run_experiments(&configs),
                &TrainingOptions::new().with_params(
                    SvrParams::new()
                        .with_c(128.0)
                        .with_epsilon(0.05)
                        .with_kernel(Kernel::rbf(0.02)),
                ),
            )
            .expect("fit")
        })
        .clone()
}

fn monitor() -> FleetMonitor {
    FleetMonitor::new(
        stable_model(),
        DynamicConfig::new(),
        SERVERS,
        Seconds::new(20.0),
    )
    .expect("monitor")
}

fn fleet(profile: TaskProfile) -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("n"),
        SERVERS,
        2,
        Celsius::new(24.0),
        3,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
    for s in 0..SERVERS {
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("v{s}"), 2, 4.0, profile),
        )
        .expect("placement");
    }
    sim
}

fn faulted_fleet() -> Simulation {
    let mut sim = fleet(TaskProfile::CpuBound);
    sim.set_fault_plan(
        FaultPlan::new(21)
            .with_dropout(
                DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0)).expect("dropout"),
            )
            .with_spike(
                SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0)).expect("spike"),
            )
            .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).expect("jitter")),
    )
    .expect("fault plan");
    sim
}

fn run(sim: &mut Simulation, monitor: &mut FleetMonitor, ticks: usize) {
    for _ in 0..ticks {
        sim.step();
        monitor.observe(sim, Celsius::new(24.0));
    }
}

fn pred_err_count(server: usize) -> u64 {
    obs::global()
        .summary(&names::server_gauge(
            names::METRIC_MONITOR_PRED_ABS_ERR,
            server,
        ))
        .count()
}

#[test]
fn publish_writes_the_fleet_roll_up_gauges() {
    let _guard = obs_lock();
    let mut sim = faulted_fleet();
    let mut monitor = monitor();
    obs::set_enabled(true);
    run(&mut sim, &mut monitor, 120);
    monitor.publish();
    obs::set_enabled(false);

    let mse = monitor.fleet_mse();
    let p95 = monitor.fleet_pred_err().quantile(0.95);
    assert!(mse.is_finite() && p95.is_finite(), "no forecast matured");
    let registry = obs::global();
    let gauge = |name| registry.gauge(name).get().to_bits();
    assert_eq!(gauge(names::METRIC_MONITOR_FLEET_MSE), mse.to_bits());
    assert_eq!(
        gauge(names::METRIC_MONITOR_FLEET_PRED_ERR_P95),
        p95.to_bits()
    );
}

#[test]
fn summaries_count_forecasts_scored_before_obs_was_enabled() {
    let _guard = obs_lock();
    let mut sim = faulted_fleet();
    let mut monitor = monitor();
    run(&mut sim, &mut monitor, 90);
    obs::set_enabled(true);
    monitor.publish();
    obs::set_enabled(false);

    for s in 0..SERVERS {
        let scored = monitor.stats(ServerId::new(s)).scored as u64;
        assert!(scored > 0, "server {s} scored nothing");
        assert_eq!(pred_err_count(s), scored, "server {s}");
    }
}

#[test]
fn since_reanchor_runs_on_while_a_server_sleeps() {
    let _guard = obs_lock();
    let mut sim = fleet(TaskProfile::Idle).with_clock(ClockMode::Event);
    let mut monitor = monitor();
    obs::set_enabled(true);
    run(&mut sim, &mut monitor, 900);
    monitor.publish();
    obs::set_enabled(false);

    let now = sim.now().as_secs_f64();
    let mut asleep = 0;
    for s in 0..SERVERS {
        let sid = ServerId::new(s);
        let (last_sample, _) = sim
            .trace(sid)
            .expect("trace")
            .sensor_c
            .last()
            .expect("sample");
        if last_sample < now {
            asleep += 1;
        }
        let since = obs::global()
            .gauge(&names::server_gauge(
                names::METRIC_MONITOR_SINCE_REANCHOR,
                s,
            ))
            .get();
        assert_eq!(
            since.to_bits(),
            (now - monitor.last_anchor_secs(sid)).to_bits(),
            "server {s}: gauge {since} at t={now}"
        );
    }
    assert!(asleep > 0, "no server was asleep at the last tick");
}

#[test]
fn summaries_describe_the_last_monitor_published() {
    let _guard = obs_lock();
    obs::set_enabled(true);
    let mut first = monitor();
    run(&mut faulted_fleet(), &mut first, 120);
    first.publish();
    let mut second = monitor();
    run(&mut faulted_fleet(), &mut second, 60);
    second.publish();
    obs::set_enabled(false);

    for s in 0..SERVERS {
        let scored = second.stats(ServerId::new(s)).scored as u64;
        assert!(scored > 0, "server {s} scored nothing");
        assert!(first.stats(ServerId::new(s)).scored as u64 > scored);
        assert_eq!(pred_err_count(s), scored, "server {s}");
    }
}

#[test]
fn observe_summary_reads_the_monitor_observe_span() {
    let _guard = obs_lock();
    let span_stat = || {
        obs::span_stats()
            .into_iter()
            .find(|(path, _)| path == names::SPAN_MONITOR_OBSERVE)
            .map(|(_, stat)| stat)
            .unwrap_or_default()
    };
    let summary = obs::global().summary(names::METRIC_MONITOR_OBSERVE_NS);
    let (count_before, sum_before, span_before) = (summary.count(), summary.sum(), span_stat());
    let mut sim = faulted_fleet();
    let mut monitor = monitor();
    obs::set_enabled(true);
    run(&mut sim, &mut monitor, 50);
    obs::set_enabled(false);

    let span_after = span_stat();
    assert_eq!(span_after.count - span_before.count, 50);
    assert_eq!(summary.count() - count_before, 50);
    // Nanosecond totals stay far below 2^53, so the f64 sum is exact.
    assert_eq!(
        summary.sum() - sum_before,
        (span_after.total_ns - span_before.total_ns) as f64
    );
}
