//! End-to-end dynamic prediction: simulate a server through runtime
//! reconfigurations, drive the calibrated dynamic predictor from real
//! sensor readings, and verify the paper's qualitative claims.

use vmtherm::core::dynamic::{DynamicConfig, DynamicPredictor};
use vmtherm::core::eval::{evaluate_dynamic, AnchorPoint};
use vmtherm::core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm::sim::experiment::ConfigSnapshot;
use vmtherm::sim::{
    AmbientModel, CaseGenerator, Datacenter, Event, Series, ServerId, ServerSpec, SimDuration,
    SimTime, Simulation, TaskProfile, VmSpec,
};
use vmtherm::svm::kernel::Kernel;
use vmtherm::svm::svr::SvrParams;
use vmtherm::units::{Celsius, Seconds};

/// A run and its anchors; the scored channel is the run's own sensor
/// trace.
struct Scenario {
    sim: Simulation,
    sid: ServerId,
    anchors: Vec<AnchorPoint>,
}

impl Scenario {
    fn series(&self) -> Series<'_> {
        self.sim.trace(self.sid).expect("trace").sensor_c
    }
}

fn stable_model() -> StablePredictor {
    let mut generator = CaseGenerator::new(42);
    let configs: Vec<_> = generator
        .random_cases(80, 1_000)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(1000)))
        .collect();
    let outcomes = run_experiments(&configs);
    let options = TrainingOptions::new().with_params(
        SvrParams::new()
            .with_c(128.0)
            .with_epsilon(0.05)
            .with_kernel(Kernel::rbf(0.02)),
    );
    StablePredictor::fit(&outcomes, &options).expect("training")
}

fn scenario(model: &StablePredictor, seed: u64) -> Scenario {
    let ambient = 24.0;
    let mut dc = Datacenter::new();
    let sid = dc.add_server(ServerSpec::standard("s"), Celsius::new(ambient), seed);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(ambient), seed);
    for i in 0..4 {
        let task = if i % 2 == 0 {
            TaskProfile::CpuBound
        } else {
            TaskProfile::Mixed
        };
        sim.boot_vm_now(sid, VmSpec::new(format!("v{i}"), 2, 4.0, task))
            .expect("boot");
    }
    let before = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
    sim.schedule(
        SimTime::from_secs(700),
        Event::BootVm {
            server: sid,
            spec: VmSpec::new("burst", 4, 8.0, TaskProfile::CpuBound),
        },
    );
    sim.run_until(SimTime::from_secs(1500));
    let after = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
    Scenario {
        sim,
        sid,
        anchors: vec![
            AnchorPoint {
                t_secs: 0.0,
                psi_stable: model.predict(&before),
            },
            AnchorPoint {
                t_secs: 700.0,
                psi_stable: model.predict(&after),
            },
        ],
    }
}

#[test]
fn calibration_lowers_dynamic_mse() {
    // Fig. 1(b)'s claim, end-to-end through the real pipeline.
    let model = stable_model();
    let mut cal_total = 0.0;
    let mut uncal_total = 0.0;
    for seed in [1u64, 2, 3] {
        let s = scenario(&model, seed);
        let mut cal = DynamicPredictor::new(DynamicConfig::new()).expect("config");
        let mut uncal =
            DynamicPredictor::new(DynamicConfig::new().without_calibration()).expect("config");
        cal_total += evaluate_dynamic(&mut cal, s.series(), Seconds::new(60.0), &s.anchors).mse;
        uncal_total += evaluate_dynamic(&mut uncal, s.series(), Seconds::new(60.0), &s.anchors).mse;
    }
    assert!(
        cal_total < uncal_total,
        "calibrated total {cal_total} not below uncalibrated {uncal_total}"
    );
}

#[test]
fn dynamic_mse_in_papers_band_for_standard_settings() {
    // Fig. 1(c): with gap 60 s and update 15 s the MSE sits near the
    // paper's 0.70–1.50 band.
    let model = stable_model();
    let s = scenario(&model, 9);
    let mut p = DynamicPredictor::new(DynamicConfig::new()).expect("config");
    let report = evaluate_dynamic(&mut p, s.series(), Seconds::new(60.0), &s.anchors);
    assert!(
        report.mse < 2.5,
        "dynamic MSE {} far out of band",
        report.mse
    );
    assert!(report.mse > 0.05, "implausibly perfect MSE {}", report.mse);
}

#[test]
fn longer_gaps_are_harder() {
    // Fig. 1(c)'s gap trend.
    let model = stable_model();
    let s = scenario(&model, 11);
    let mse_for = |gap: f64| {
        let mut p = DynamicPredictor::new(DynamicConfig::new()).expect("config");
        evaluate_dynamic(&mut p, s.series(), Seconds::new(gap), &s.anchors).mse
    };
    let short = mse_for(15.0);
    let long = mse_for(180.0);
    assert!(
        long > short,
        "gap 180 ({long}) not harder than gap 15 ({short})"
    );
}

#[test]
fn more_frequent_updates_help() {
    // Fig. 1(c)'s update-interval trend (weak inequality: very noisy
    // sensors can blur it on a single scenario, so aggregate three).
    let model = stable_model();
    let mut fast_total = 0.0;
    let mut slow_total = 0.0;
    for seed in [21u64, 22, 23] {
        let s = scenario(&model, seed);
        let mse_for = |update: f64| {
            let mut p = DynamicPredictor::new(
                DynamicConfig::new().with_update_interval(Seconds::new(update)),
            )
            .expect("config");
            evaluate_dynamic(&mut p, s.series(), Seconds::new(60.0), &s.anchors).mse
        };
        fast_total += mse_for(5.0);
        slow_total += mse_for(120.0);
    }
    assert!(
        fast_total <= slow_total,
        "frequent updates ({fast_total}) not better than rare ({slow_total})"
    );
}

#[test]
fn reanchoring_beats_single_anchor_through_reconfiguration() {
    let model = stable_model();
    let s = scenario(&model, 33);
    let both = {
        let mut p = DynamicPredictor::new(DynamicConfig::new()).expect("config");
        evaluate_dynamic(&mut p, s.series(), Seconds::new(60.0), &s.anchors).mse
    };
    let only_first = {
        let mut p = DynamicPredictor::new(DynamicConfig::new()).expect("config");
        evaluate_dynamic(&mut p, s.series(), Seconds::new(60.0), &s.anchors[..1]).mse
    };
    assert!(
        both <= only_first + 0.05,
        "re-anchor {both} vs single {only_first}"
    );
}
