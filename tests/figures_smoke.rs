//! Miniature versions of the three figure harnesses — fast smoke tests
//! that the full `vmtherm-bench` binaries compute on top of the same
//! pipeline verified here.

use vmtherm::core::dynamic::{DynamicConfig, DynamicPredictor};
use vmtherm::core::eval::{evaluate_dynamic, evaluate_stable, AnchorPoint};
use vmtherm::core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm::sim::experiment::ConfigSnapshot;
use vmtherm::sim::{
    AmbientModel, CaseGenerator, Datacenter, Event, ServerSpec, SimDuration, SimTime, Simulation,
    TaskProfile, VmSpec,
};
use vmtherm::svm::kernel::Kernel;
use vmtherm::svm::svr::SvrParams;
use vmtherm::units::{Celsius, Seconds};

fn model() -> StablePredictor {
    let mut generator = CaseGenerator::new(42);
    let configs: Vec<_> = generator
        .random_cases(60, 1_000)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(900)))
        .collect();
    let outcomes = run_experiments(&configs);
    StablePredictor::fit(
        &outcomes,
        &TrainingOptions::new().with_params(
            SvrParams::new()
                .with_c(128.0)
                .with_epsilon(0.05)
                .with_kernel(Kernel::rbf(0.02)),
        ),
    )
    .expect("training")
}

#[test]
fn fig1a_smoke_stable_mse_band() {
    let m = model();
    let mut generator = CaseGenerator::new(777);
    let test_configs: Vec<_> = generator
        .random_cases(10, 5_000)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(900)))
        .collect();
    let test = run_experiments(&test_configs);
    let report = evaluate_stable(&m, &test);
    assert!(report.mse < 2.5, "mini fig1a MSE {}", report.mse);
    assert_eq!(report.cases.len(), 10);
}

#[test]
fn fig1b_smoke_calibration_wins() {
    let m = model();
    let ambient = 24.0;
    let mut dc = Datacenter::new();
    let sid = dc.add_server(ServerSpec::standard("s"), Celsius::new(ambient), 3);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(ambient), 3);
    for i in 0..5 {
        sim.boot_vm_now(
            sid,
            VmSpec::new(format!("v{i}"), 2, 4.0, TaskProfile::CpuBound),
        )
        .expect("boot");
    }
    let before = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
    sim.schedule(
        SimTime::from_secs(600),
        Event::BootVm {
            server: sid,
            spec: VmSpec::new("x", 4, 8.0, TaskProfile::CpuBound),
        },
    );
    sim.run_until(SimTime::from_secs(1200));
    let after = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
    let series = sim.trace(sid).expect("trace").sensor_c;
    let anchors = [
        AnchorPoint {
            t_secs: 0.0,
            psi_stable: m.predict(&before),
        },
        AnchorPoint {
            t_secs: 600.0,
            psi_stable: m.predict(&after),
        },
    ];
    let mut cal = DynamicPredictor::new(DynamicConfig::new()).expect("cfg");
    let mut unc = DynamicPredictor::new(DynamicConfig::new().without_calibration()).expect("cfg");
    let cal_mse = evaluate_dynamic(&mut cal, series, Seconds::new(60.0), &anchors).mse;
    let unc_mse = evaluate_dynamic(&mut unc, series, Seconds::new(60.0), &anchors).mse;
    assert!(cal_mse < unc_mse + 0.2, "cal {cal_mse} vs uncal {unc_mse}");
}

#[test]
fn fig1c_smoke_grid_trends() {
    let m = model();
    let ambient = 23.0;
    let mut dc = Datacenter::new();
    let sid = dc.add_server(
        ServerSpec::commodity("s", 16, 2.4, 64.0, 4),
        Celsius::new(ambient),
        8,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(ambient), 8);
    for i in 0..4 {
        let task = if i % 2 == 0 {
            TaskProfile::CpuBound
        } else {
            TaskProfile::WebServer
        };
        sim.boot_vm_now(sid, VmSpec::new(format!("v{i}"), 2, 4.0, task))
            .expect("boot");
    }
    let snap = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
    sim.run_until(SimTime::from_secs(1200));
    let series = sim.trace(sid).expect("trace").sensor_c;
    let anchors = [AnchorPoint {
        t_secs: 0.0,
        psi_stable: m.predict(&snap),
    }];

    let mse_for = |gap: f64, update: f64| {
        let mut p =
            DynamicPredictor::new(DynamicConfig::new().with_update_interval(Seconds::new(update)))
                .expect("cfg");
        evaluate_dynamic(&mut p, series, Seconds::new(gap), &anchors).mse
    };
    // Gap trend at fixed update.
    let short = mse_for(15.0, 15.0);
    let long = mse_for(120.0, 15.0);
    assert!(long >= short, "gap trend violated: {long} < {short}");
    // All cells in a plausible band.
    for gap in [15.0, 60.0, 120.0] {
        for update in [5.0, 30.0] {
            let v = mse_for(gap, update);
            assert!((0.0..10.0).contains(&v), "cell ({gap},{update}) = {v}");
        }
    }
}
