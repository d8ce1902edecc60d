//! Replays every checked-in scenario under `tests/scenarios/` through
//! the differential oracle battery — the regression half of the
//! fuzz → shrink → check-in loop. The directory holds only `.json`
//! scenario files, and each file must:
//!
//! * be the scenario codec's own encoding: its JSON value equals
//!   `Scenario::to_json` of what it decodes to, so every key is present
//!   and none is unknown, and its `name` is its file stem;
//! * pass determinism, fixed-vs-event clock equivalence, clean-path
//!   identity and the physical invariants;
//! * keep the fleet monitor internally consistent when driven over the
//!   fixed- and event-clock runs. The same monitor oracle also runs over
//!   the first cases of the default `vmtherm fuzz` campaign.
//!
//! A shrunk repro landing here is a permanent regression test: delete a
//! file only when the property it pins is retired.

use std::path::PathBuf;
use std::sync::OnceLock;

use vmtherm::core::dynamic::DynamicConfig;
use vmtherm::core::monitor::FleetMonitor;
use vmtherm::core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm::obs::json;
use vmtherm::sim::scenario::generate;
use vmtherm::sim::scenario::oracle::{
    check_scenario, full_fingerprint, physical_fingerprint, run_to_end,
};
use vmtherm::sim::{AmbientModel, CaseGenerator, ClockMode, Scenario, SimDuration};
use vmtherm::svm::kernel::Kernel;
use vmtherm::svm::svr::SvrParams;
use vmtherm::units::{Celsius, Seconds};

/// Every entry of `tests/scenarios/`, sorted for deterministic test
/// output, each checked to be a `.json` file: anything else there is a
/// half-checked-in repro that would never replay.
fn corpus() -> Vec<(PathBuf, Scenario)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/scenarios must exist")
        .map(|e| e.expect("readable corpus entry").path())
        .collect();
    files.sort();
    for path in &files {
        assert!(
            path.is_file() && path.extension().is_some_and(|ext| ext == "json"),
            "{} is not a scenario `.json` file",
            path.display()
        );
    }
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let scenario = Scenario::parse(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
            (path, scenario)
        })
        .collect()
}

/// One stable model shared by the monitor-oracle test (training is the
/// expensive part).
fn model() -> &'static StablePredictor {
    static MODEL: OnceLock<StablePredictor> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut generator = CaseGenerator::new(42);
        let configs: Vec<_> = generator
            .random_cases(60, 42 * 13)
            .into_iter()
            .map(|c| c.with_duration(SimDuration::from_secs(900)))
            .collect();
        let options = TrainingOptions::new().with_params(
            SvrParams::new()
                .with_c(128.0)
                .with_epsilon(0.05)
                .with_kernel(Kernel::rbf(0.02)),
        );
        StablePredictor::fit(&run_experiments(&configs), &options).expect("training")
    })
}

#[test]
fn corpus_is_present_and_round_trips() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 5,
        "seed corpus shrank to {} scenario(s)",
        corpus.len()
    );
    for (path, scenario) in &corpus {
        // `corpus` decoded and validated the file; its JSON value must
        // also be exactly what the codec writes, which rejects a missing
        // optional key and an unknown one alike.
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let doc = json::parse(&text).expect("parsed once already");
        assert!(
            doc == scenario.to_json(),
            "{} is not the codec's encoding of its scenario (a key is missing, \
             unknown or out of order); rewrite it from `Scenario::to_json_string`",
            path.display()
        );
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert_eq!(
            stem,
            scenario.name,
            "{} filename disagrees with scenario name",
            path.display()
        );
    }
}

#[test]
fn corpus_passes_the_oracle_battery() {
    for (path, scenario) in corpus() {
        let report =
            check_scenario(&scenario).unwrap_or_else(|e| panic!("{} battery: {e}", path.display()));
        assert!(
            report.passed(),
            "{} regressed: {:?}",
            path.display(),
            report.failures
        );
    }
}

#[test]
fn corpus_clock_modes_agree_bit_for_bit() {
    // The battery already checks this, but the direct statement is the
    // one a future clock change will trip first — keep it explicit.
    for (path, scenario) in corpus() {
        let fixed = run_to_end(&scenario, ClockMode::Fixed).expect("fixed run");
        let event = run_to_end(&scenario, ClockMode::Event).expect("event run");
        assert_eq!(
            physical_fingerprint(&fixed),
            physical_fingerprint(&event),
            "{}: fixed and event clocks reached different end states",
            path.display()
        );
    }
}

/// Drives `scenario` on both clocks with a `FleetMonitor` and asserts
/// that it passes `invariant_report`.
fn assert_monitor_consistent(name: &str, scenario: &Scenario) {
    for clock in [ClockMode::Fixed, ClockMode::Event] {
        let mut sim = scenario.build(clock).expect("build");
        let mut monitor = FleetMonitor::new(
            model().clone(),
            DynamicConfig::new(),
            scenario.servers,
            Seconds::new(60.0),
        )
        .expect("monitor");
        let ambient = match scenario.ambient {
            AmbientModel::Fixed(c) => c,
            _ => 24.0,
        };
        for _ in 0..scenario.duration.as_millis() / 1000 {
            sim.step();
            monitor.observe(&sim, Celsius::new(ambient));
        }
        let report = monitor.invariant_report(&sim);
        assert!(
            report.is_empty(),
            "{name} ({clock:?}): monitor consistency violations: {report:?}"
        );
    }
}

#[test]
fn corpus_keeps_the_fleet_monitor_consistent() {
    for (path, scenario) in corpus() {
        assert_monitor_consistent(&path.display().to_string(), &scenario);
    }
}

/// The default campaign seed of `vmtherm fuzz`.
const FUZZ_SEED: u64 = 0xF022;

#[test]
fn generated_scenarios_keep_the_fleet_monitor_consistent() {
    for index in 0..24 {
        let scenario = generate::scenario(FUZZ_SEED, index);
        assert_monitor_consistent(&scenario.name, &scenario);
    }
}

/// Absolute end-state digests of every checked-in scenario, as
/// `(name, physical, full on the fixed clock, full on the event clock)`.
/// The other corpus tests only hold one stepping path against another,
/// so a change that moves the physics, the trace recording or the fault
/// delivery of both clocks together passes them; it fails here. The
/// physical digest is the same on both clocks.
const CORPUS_DIGESTS: [(&str, u64, u64, u64); 6] = [
    (
        "ambient-step-event-sleep",
        0x3eee_72be_76cb_b7f2,
        0xee7e_6fe2_cc87_38c6,
        0xaee0_ba21_1afd_1bc7,
    ),
    (
        "batch-shard-boundary",
        0x1f44_4eea_4886_ffe1,
        0xff5b_143a_6232_c625,
        0xda61_834a_18b4_aece,
    ),
    (
        "crac-failure-mid-migration",
        0x5e1a_723d_1604_719c,
        0x0eb9_717d_5e5f_900d,
        0xfd22_c7ab_fad5_6bc0,
    ),
    (
        "fan-fault-stuck-sensor",
        0x515f_8e9e_2be2_303d,
        0x1f7f_7d68_3ec7_54aa,
        0x1f7f_7d68_3ec7_54aa,
    ),
    (
        "flash-crowd-dropout",
        0xc3c9_250e_2b03_9c34,
        0x5dca_7060_b3d9_56d7,
        0x5dca_7060_b3d9_56d7,
    ),
    (
        "long-idle-fixed-point",
        0x8f3e_d293_b79c_e1be,
        0xfb1f_85fa_b1cb_4cee,
        0xdafa_44a6_ee97_51c9,
    ),
];

#[test]
fn corpus_end_states_match_their_pinned_digests() {
    let corpus = corpus();
    assert_eq!(corpus.len(), CORPUS_DIGESTS.len(), "corpus changed: re-pin");
    for ((path, scenario), (name, physical, full_fixed, full_event)) in
        corpus.iter().zip(CORPUS_DIGESTS)
    {
        assert_eq!(scenario.name, name, "{}: unpinned scenario", path.display());
        for (clock, full) in [
            (ClockMode::Fixed, full_fixed),
            (ClockMode::Event, full_event),
        ] {
            let sim = run_to_end(scenario, clock).expect("run");
            let got = (physical_fingerprint(&sim), full_fingerprint(&sim));
            assert_eq!(
                got,
                (physical, full),
                "{name} ({clock:?}) moved: got {got:#018x?}"
            );
        }
    }
}
