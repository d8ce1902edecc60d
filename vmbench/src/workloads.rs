//! The four workloads: what one op is, how its inputs come from the seed,
//! and how its outputs are checked.
//!
//! Every workload is a closed loop driven from one thread: the driver
//! runs an op, checks it, then starts the next as soon as it can.
//!
//! Seed 42 reproduces the repository's `fig1a`/`fig1b`/`fig1c`,
//! `fleet_bench` and `event_bench` protocols exactly. Any other seed
//! shifts every random stream of those protocols (per-case simulation
//! seeds, fold shuffle, scenario, fleet and fault-plan seeds) by the same
//! amount, but keeps the experiment designs: which VMs, fans and ambient
//! each campaign case has. Op cost grows with the VMs per case: with the
//! designs drawn from the seed too, `paper-fast` ops on a 2-vCPU VM took
//! 5% longer at seed 3 than at seed 7 over three interleaved runs of
//! each, while the runs of one seed agreed within 3%.

use crate::names;
use crate::stats::Fnv;
use crate::trace::Tracer;
use vmtherm_bench::{
    dynamic_scenario, score_dynamic, train_stable_model, DynamicScenario, EXPERIMENT_SECS,
    TRAIN_CASES,
};
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::eval::evaluate_stable;
use vmtherm_core::fleet::ShardedMonitor;
use vmtherm_core::monitor::FleetMonitor;
use vmtherm_core::stable::{run_experiments, StablePredictor, TrainingOptions};
use vmtherm_sim::experiment::ExperimentOutcome;
use vmtherm_sim::fan::FanSpeed;
use vmtherm_sim::{
    AmbientModel, CaseGenerator, ClockMode, Datacenter, DropoutFault, Event, FaultPlan,
    JitterFault, ServerId, ServerSpec, SimDuration, SimTime, Simulation, SpikeFault, TaskProfile,
    VmId, VmSpec,
};
use vmtherm_units::{Celsius, Seconds};

/// The seed at which every workload reproduces its source protocol.
pub const DEFAULT_SEED: u64 = 42;

/// The paper's bound on the stable-model MSE (°C²).
const PAPER_STABLE_MSE: f64 = 1.10;

/// Named output bit patterns of one op. Every op must reproduce the first
/// op's outputs, the reference run's outputs (for the keys it has) and,
/// at [`DEFAULT_SEED`], the goldens.
pub type Outputs = Vec<(&'static str, u64)>;

/// What checking one op's end state found.
#[derive(Debug)]
pub struct Checked {
    /// Output bit patterns.
    pub outputs: Outputs,
    /// Work counts read from public accessors, keyed by per-layer metric
    /// name.
    pub counts: Vec<(&'static str, f64)>,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// Result quality worth printing: name, value, unit.
    pub quality: Vec<(&'static str, f64, &'static str)>,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs built by the set-up and shared by every op.
    type Input;
    /// End state of one op.
    type State;
    /// Workload name, one of [`names::WORKLOADS`].
    const NAME: &'static str;
    /// Most threads an op runs on.
    const THREADS: usize;
    /// Whether [`Workload::reference`] reruns the op on one thread, so its
    /// step time is the serial baseline of `sim.shard.serial_ratio`.
    const SERIAL_REFERENCE: bool = false;
    /// Simulated server-seconds one op covers, each monitored once per
    /// 1 s tick (0 for the paper pipeline).
    const SERVER_SECONDS: f64 = 0.0;

    /// Builds the inputs from the seed.
    fn setup(&self, tr: &mut Tracer) -> Self::Input;
    /// Runs one op.
    fn op(&self, input: &Self::Input, tr: &mut Tracer) -> Self::State;
    /// Checks an op's end state.
    fn check(&self, input: &Self::Input, state: &Self::State) -> Checked;
    /// Outputs every op must reproduce, from a run made after the timed
    /// window, if the workload has one.
    fn reference(&self, input: &Self::Input, tr: &mut Tracer) -> Option<Outputs>;
}

/// `base` shifted by the seed's distance from [`DEFAULT_SEED`].
fn shifted(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_sub(DEFAULT_SEED))
}

/// `count` cases with the designs `CaseGenerator::new(design_seed)` draws
/// and per-case simulation seeds from `base_seed` shifted by `seed`.
fn campaign(count: usize, design_seed: u64, base_seed: u64, seed: u64) -> Vec<ExperimentOutcome> {
    let configs: Vec<_> = CaseGenerator::new(design_seed)
        .random_cases(count, shifted(base_seed, seed))
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(EXPERIMENT_SECS)))
        .collect();
    run_experiments(&configs)
}

/// A training campaign; at [`DEFAULT_SEED`] exactly
/// `vmtherm_bench::training_campaign(count, 42)`.
fn training(count: usize, seed: u64) -> Vec<ExperimentOutcome> {
    campaign(
        count,
        DEFAULT_SEED,
        DEFAULT_SEED.wrapping_mul(31).wrapping_add(1_000),
        seed,
    )
}

/// The 20 held-out fig1a cases; at [`DEFAULT_SEED`] the `fig1a` binary's.
fn fig1a_test_cases(seed: u64) -> Vec<ExperimentOutcome> {
    campaign(20, 20_160_701, 77_000, seed)
}

/// `paper-train`: fig1a with grid search. Set-up runs the 200-case
/// training campaign and the 20 test cases; one op is
/// `StablePredictor::fit` (126 C×γ×ε cells × 10 folds) plus
/// `evaluate_stable`.
#[derive(Debug, Clone, Copy)]
pub struct PaperTrain {
    /// Workload seed.
    pub seed: u64,
}

impl PaperTrain {
    fn options(&self) -> TrainingOptions {
        let paper = TrainingOptions::new().with_folds(10);
        let folds_seed = shifted(paper.seed, self.seed);
        paper.with_seed(folds_seed)
    }
}

/// Training and held-out outcomes.
#[derive(Debug)]
pub struct Campaigns {
    train: Vec<ExperimentOutcome>,
    test: Vec<ExperimentOutcome>,
}

/// A trained model and its held-out MSE.
#[derive(Debug)]
pub struct Trained {
    model: StablePredictor,
    mse: f64,
}

impl Workload for PaperTrain {
    type Input = Campaigns;
    type State = Trained;
    const NAME: &'static str = names::PAPER_TRAIN;
    const THREADS: usize = 2;

    fn setup(&self, tr: &mut Tracer) -> Campaigns {
        let train = tr.time(names::EXPERIMENT, || training(TRAIN_CASES, self.seed));
        let test = tr.time(names::EXPERIMENT, || fig1a_test_cases(self.seed));
        Campaigns { train, test }
    }

    fn op(&self, input: &Campaigns, tr: &mut Tracer) -> Trained {
        let model = tr.time(names::FIT, || {
            StablePredictor::fit(&input.train, &self.options()).expect("grid-search training")
        });
        let mse = tr.time(names::PREDICT, || evaluate_stable(&model, &input.test).mse);
        Trained { model, mse }
    }

    fn check(&self, input: &Campaigns, state: &Trained) -> Checked {
        let params = state.model.params();
        let cv_mse = state.model.cv_mse().unwrap_or(f64::NAN);
        let gamma = params.kernel().gamma().unwrap_or(f64::NAN);
        let mut problems = Vec::new();
        let within_paper = state.mse <= PAPER_STABLE_MSE;
        if !within_paper {
            problems.push(format!(
                "stable MSE {} exceeds the paper's {PAPER_STABLE_MSE}",
                state.mse
            ));
        }
        Checked {
            outputs: vec![
                ("stable_mse", state.mse.to_bits()),
                ("cv_mse", cv_mse.to_bits()),
                ("best_c", params.c().to_bits()),
                ("best_gamma", gamma.to_bits()),
                ("best_epsilon", params.epsilon().to_bits()),
            ],
            counts: vec![(names::CORE_STABLE_PREDICT_ROWS, input.test.len() as f64)],
            problems,
            quality: vec![
                ("stable_mse", state.mse, "degC2"),
                ("cv_mse", cv_mse, "degC2"),
            ],
        }
    }

    fn reference(&self, _: &Campaigns, _: &mut Tracer) -> Option<Outputs> {
        None
    }
}

/// fig1c's prediction gaps (s).
const GAPS: [f64; 5] = [15.0, 30.0, 60.0, 90.0, 120.0];
/// fig1c's calibration update intervals (s).
const UPDATES: [f64; 4] = [5.0, 15.0, 30.0, 60.0];
/// fig1c's reconfiguration scenarios.
const FIG1C_SCENARIOS: usize = 6;

/// `paper-fast`: one op is `fig1a --fast` (200-case campaign, tuned
/// parameters, 20 held-out cases) followed by `fig1b` and `fig1c` (one
/// 120-case model, 7 dynamic scenarios, 122 `score_dynamic` calls). The
/// set-up runs the same pipeline once for the reference outputs.
#[derive(Debug, Clone, Copy)]
pub struct PaperFast {
    /// Workload seed.
    pub seed: u64,
}

/// Results of one pass through the fast pipeline.
#[derive(Debug)]
pub struct Pipeline {
    stable_mse: f64,
    predict_rows: usize,
    calibrated: f64,
    uncalibrated: f64,
    /// fig1c grid, gap-major.
    cells: Vec<f64>,
    evals: usize,
}

impl PaperFast {
    fn pipeline(&self, tr: &mut Tracer) -> Pipeline {
        let seed = self.seed;
        let train = tr.time(names::EXPERIMENT, || training(TRAIN_CASES, seed));
        let model = tr.time(names::FIT, || train_stable_model(&train, false));
        let test = tr.time(names::EXPERIMENT, || fig1a_test_cases(seed));
        let stable_mse = tr.time(names::PREDICT, || evaluate_stable(&model, &test).mse);

        // fig1b and fig1c deploy the same 120-case model.
        let train = tr.time(names::EXPERIMENT, || training(120, seed));
        let model = tr.time(names::FIT, || train_stable_model(&train, false));
        let fig1b = tr.time(names::SCENARIO, || {
            dynamic_scenario(&model, 5, 2, 4, 24.0, 900, 1800, shifted(7, seed))
        });
        let calibrated = tr.time(names::DYNAMIC, || score_dynamic(&fig1b, 60.0, 15.0, true));
        let uncalibrated = tr.time(names::DYNAMIC, || score_dynamic(&fig1b, 60.0, 15.0, false));
        let scenarios: Vec<DynamicScenario> = (0..FIG1C_SCENARIOS)
            .map(|i| {
                tr.time(names::SCENARIO, || {
                    dynamic_scenario(
                        &model,
                        3 + i,
                        1,
                        4,
                        20.0 + i as f64 * 1.5,
                        900,
                        1800,
                        shifted(100 + i as u64, seed),
                    )
                })
            })
            .collect();
        let mut cells = Vec::with_capacity(GAPS.len() * UPDATES.len());
        for gap in GAPS {
            for update in UPDATES {
                let mse = scenarios
                    .iter()
                    .map(|s| tr.time(names::DYNAMIC, || score_dynamic(s, gap, update, true).mse))
                    .sum::<f64>()
                    / scenarios.len() as f64;
                cells.push(mse);
            }
        }
        Pipeline {
            stable_mse,
            predict_rows: test.len(),
            calibrated: calibrated.mse,
            uncalibrated: uncalibrated.mse,
            evals: 2 + cells.len() * scenarios.len(),
            cells,
        }
    }

    fn checked(state: &Pipeline) -> Checked {
        let min = state.cells.iter().copied().fold(f64::INFINITY, f64::min);
        let max = state
            .cells
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mut cells = Fnv::default();
        for &c in &state.cells {
            cells.bits(c);
        }
        let mut problems = Vec::new();
        let calibration_wins = state.calibrated < state.uncalibrated;
        if !calibration_wins {
            problems.push(format!(
                "fig1b calibrated MSE {} is not below uncalibrated {}",
                state.calibrated, state.uncalibrated
            ));
        }
        Checked {
            outputs: vec![
                ("stable_mse", state.stable_mse.to_bits()),
                ("fig1b_calibrated", state.calibrated.to_bits()),
                ("fig1b_uncalibrated", state.uncalibrated.to_bits()),
                ("fig1c_min", min.to_bits()),
                ("fig1c_max", max.to_bits()),
                ("fig1c_cells", cells.finish()),
            ],
            counts: vec![
                (names::CORE_STABLE_PREDICT_ROWS, state.predict_rows as f64),
                (names::CORE_DYNAMIC_EVALS, state.evals as f64),
            ],
            problems,
            quality: vec![
                ("stable_mse", state.stable_mse, "degC2"),
                ("dynamic_mse", state.calibrated, "degC2"),
                ("dynamic_mse_uncalibrated", state.uncalibrated, "degC2"),
                ("fig1c_min_mse", min, "degC2"),
                ("fig1c_max_mse", max, "degC2"),
            ],
        }
    }
}

impl Workload for PaperFast {
    type Input = Outputs;
    type State = Pipeline;
    const NAME: &'static str = names::PAPER_FAST;
    const THREADS: usize = 1;

    fn setup(&self, tr: &mut Tracer) -> Outputs {
        Self::checked(&self.pipeline(tr)).outputs
    }

    fn op(&self, _: &Outputs, tr: &mut Tracer) -> Pipeline {
        self.pipeline(tr)
    }

    fn check(&self, _: &Outputs, state: &Pipeline) -> Checked {
        Self::checked(state)
    }

    fn reference(&self, input: &Outputs, _: &mut Tracer) -> Option<Outputs> {
        Some(input.clone())
    }
}

/// Fleet size of both fleet workloads.
const SERVERS: usize = 48;
/// Forecast horizon of the fleet monitors (s).
const MONITOR_GAP_SECS: f64 = 40.0;
/// Room temperature of both fleets (°C).
const AMBIENT_C: f64 = 24.0;

/// The deployed model of both fleet workloads: a 30-case campaign with
/// the tuned parameters, as `fleet_bench` trains it.
fn fleet_model(seed: u64, tr: &mut Tracer) -> StablePredictor {
    let outcomes = tr.time(names::EXPERIMENT, || training(30, seed));
    tr.time(names::FIT, || train_stable_model(&outcomes, false))
}

/// Steps `sim` one tick at a time up to `ticks`, letting `observe` see
/// every tick, with a span around each call.
fn drive(sim: &mut Simulation, ticks: u64, tr: &mut Tracer, mut observe: impl FnMut(&Simulation)) {
    for _ in 0..ticks {
        tr.time(names::STEP, || sim.step());
        tr.time(names::OBSERVE, || observe(sim));
    }
}

/// `fleet-dense`: `fleet_bench`'s scenario (48 servers with a dropout,
/// spike and jitter fault plan and a VM burst at t = 60 s, Fixed clock)
/// stepped on 2 threads × 2 shards for 3,600 s, with a 2×2
/// `ShardedMonitor` observing every tick.
#[derive(Debug, Clone, Copy)]
pub struct FleetDense {
    /// Workload seed.
    pub seed: u64,
}

/// Length of one `fleet-dense` op in 1 s ticks.
const DENSE_TICKS: u64 = 3_600;

/// A fleet simulation and the monitor that watched it.
#[derive(Debug)]
pub struct Monitored<M> {
    sim: Simulation,
    monitor: M,
}

impl FleetDense {
    fn sim(&self, threads: usize) -> Simulation {
        let seed = self.seed;
        let dc = Datacenter::homogeneous(
            &ServerSpec::standard("srv"),
            SERVERS,
            8,
            Celsius::new(AMBIENT_C),
            shifted(5, seed),
        );
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(AMBIENT_C), shifted(9, seed))
            .with_threads(threads);
        sim.set_shards(threads);
        sim.set_fault_plan(
            FaultPlan::new(shifted(21, seed))
                .with_dropout(
                    DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0))
                        .expect("dropout channel"),
                )
                .with_spike(
                    SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0))
                        .expect("spike channel"),
                )
                .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).expect("jitter channel")),
        )
        .expect("valid fault plan");
        let tasks = [
            TaskProfile::CpuBound,
            TaskProfile::Mixed,
            TaskProfile::WebServer,
            TaskProfile::MemoryBound,
            TaskProfile::Bursty,
        ];
        for s in 0..SERVERS {
            sim.boot_vm_now(
                ServerId::new(s),
                VmSpec::new(
                    format!("vm-{s}"),
                    2 + (s % 3) as u32,
                    4.0,
                    tasks[s % tasks.len()],
                ),
            )
            .expect("scenario VM placement");
        }
        for s in (0..SERVERS).step_by(7) {
            sim.schedule(
                SimTime::from_secs(60),
                Event::BootVm {
                    server: ServerId::new(s),
                    spec: VmSpec::new(format!("burst-{s}"), 4, 8.0, TaskProfile::CpuBound),
                },
            );
        }
        sim
    }

    fn run(
        &self,
        model: &StablePredictor,
        threads: usize,
        tr: &mut Tracer,
    ) -> Monitored<ShardedMonitor> {
        let (mut sim, mut monitor) = tr.time(names::BUILD, || {
            let monitor = ShardedMonitor::new(
                model,
                DynamicConfig::new(),
                SERVERS,
                Seconds::new(MONITOR_GAP_SECS),
                threads,
                threads,
            )
            .expect("valid monitor config");
            (self.sim(threads), monitor)
        });
        drive(&mut sim, DENSE_TICKS, tr, |sim| {
            monitor.observe(sim, Celsius::new(AMBIENT_C));
        });
        Monitored { sim, monitor }
    }

    /// `fleet_bench`'s fingerprint: engine physics, traces, delivered
    /// telemetry, fault counters, per-server monitor state and the fleet
    /// roll-ups.
    fn fingerprint(state: &Monitored<ShardedMonitor>) -> u64 {
        let Monitored { sim, monitor } = state;
        let mut fnv = Fnv::default();
        fnv.bits(sim.datacenter().room_heat_kw());
        for s in 0..SERVERS {
            let sid = ServerId::new(s);
            let server = sim.datacenter().server(sid).expect("server");
            fnv.bits(server.die_temperature());
            for (t, v) in sim.trace(sid).expect("trace").sensor_c.iter() {
                fnv.bits(t);
                fnv.bits(v);
            }
            for &(t, v) in sim.delivered(sid).expect("delivered") {
                fnv.bits(t);
                fnv.bits(v);
            }
            let stats = monitor.stats(sid);
            fnv.fold(stats.scored as u64);
            fnv.bits(stats.sum_sq_err);
            fnv.fold(monitor.reanchor_count(sid));
            fnv.bits(monitor.rolling_mse(sid));
            fnv.bits(monitor.last_anchor_secs(sid));
        }
        let faults = sim.fault_stats();
        for n in [
            faults.dropped,
            faults.spiked,
            faults.jittered,
            faults.stuck,
            faults.events_lost,
        ] {
            fnv.fold(n);
        }
        fnv.bits(monitor.fleet_mse());
        let rollup = monitor.fleet_pred_err();
        fnv.fold(rollup.count());
        fnv.bits(rollup.sum());
        fnv.bits(rollup.min());
        fnv.bits(rollup.max());
        for (q, est) in rollup.quantiles() {
            fnv.bits(q);
            fnv.bits(est);
        }
        fnv.finish()
    }

    fn outputs(state: &Monitored<ShardedMonitor>) -> Outputs {
        vec![
            ("fingerprint", Self::fingerprint(state)),
            ("fleet_mse", state.monitor.fleet_mse().to_bits()),
        ]
    }
}

impl Workload for FleetDense {
    type Input = StablePredictor;
    type State = Monitored<ShardedMonitor>;
    const NAME: &'static str = names::FLEET_DENSE;
    const THREADS: usize = 2;
    const SERIAL_REFERENCE: bool = true;
    const SERVER_SECONDS: f64 = (SERVERS as u64 * DENSE_TICKS) as f64;

    fn setup(&self, tr: &mut Tracer) -> StablePredictor {
        fleet_model(self.seed, tr)
    }

    fn op(&self, model: &StablePredictor, tr: &mut Tracer) -> Self::State {
        self.run(model, Self::THREADS, tr)
    }

    fn check(&self, _: &StablePredictor, state: &Self::State) -> Checked {
        let Monitored { sim, monitor } = state;
        let steps = sim.step_stats();
        let faults = sim.fault_stats();
        let ids = (0..SERVERS).map(ServerId::new);
        let scored: usize = ids.clone().map(|s| monitor.stats(s).scored).sum();
        let reanchors: u64 = ids.map(|s| monitor.reanchor_count(s)).sum();
        let fleet_mse = monitor.fleet_mse();
        let mut problems = Vec::new();
        if !fleet_mse.is_finite() {
            problems.push(format!("fleet MSE {fleet_mse} is not finite"));
        }
        Checked {
            outputs: Self::outputs(state),
            counts: vec![
                (names::SIM_ENGINE_SERVER_STEPS, steps.server_steps as f64),
                (
                    names::SIM_ENGINE_DENSE_SERVER_STEPS,
                    steps.dense_server_steps as f64,
                ),
                (names::SIM_FAULT_DROPPED, faults.dropped as f64),
                (names::SIM_FAULT_SPIKED, faults.spiked as f64),
                (names::SIM_FAULT_JITTERED, faults.jittered as f64),
                (names::CORE_MONITOR_FORECASTS_SCORED, scored as f64),
                (names::CORE_MONITOR_REANCHORS, reanchors as f64),
            ],
            problems,
            quality: vec![("fleet_mse", fleet_mse, "degC2")],
        }
    }

    fn reference(&self, model: &StablePredictor, tr: &mut Tracer) -> Option<Outputs> {
        Some(Self::outputs(&self.run(model, 1, tr)))
    }
}

/// `fleet-idle-event`: `event_bench`'s scenario (46 idle and 2 hot
/// servers; a late boot, a fan-speed change, a fan failure, a VM stop and
/// a migration) on the event clock, on one thread, for 7,200 s, with a
/// `FleetMonitor` observing every tick.
#[derive(Debug, Clone, Copy)]
pub struct FleetIdleEvent {
    /// Workload seed.
    pub seed: u64,
}

/// Length of one `fleet-idle-event` op in 1 s ticks.
const IDLE_TICKS: u64 = 7_200;

impl FleetIdleEvent {
    fn sim(&self, mode: ClockMode) -> Simulation {
        let seed = self.seed;
        let dc = Datacenter::homogeneous(
            &ServerSpec::standard("srv"),
            SERVERS,
            8,
            Celsius::new(AMBIENT_C),
            shifted(5, seed),
        );
        let mut sim =
            Simulation::new(dc, AmbientModel::Fixed(AMBIENT_C), shifted(9, seed)).with_clock(mode);
        for s in 0..SERVERS {
            let (name, vcpus, task) = if s < 2 {
                ("hot", 4, TaskProfile::CpuBound)
            } else {
                ("idle", 1, TaskProfile::Idle)
            };
            sim.boot_vm_now(
                ServerId::new(s),
                VmSpec::new(format!("{name}-{s}"), vcpus, 2.0, task),
            )
            .expect("scenario VM placement");
        }
        let events = [
            (
                1800,
                Event::BootVm {
                    server: ServerId::new(5),
                    spec: VmSpec::new("late", 1, 2.0, TaskProfile::Idle),
                },
            ),
            (
                2400,
                Event::SetFanSpeed {
                    server: ServerId::new(6),
                    speed: FanSpeed::High,
                },
            ),
            (
                3000,
                Event::FailFans {
                    server: ServerId::new(7),
                    count: 1,
                },
            ),
            (3600, Event::StopVm(VmId::new(10))),
            (
                4200,
                Event::MigrateVm {
                    vm: VmId::new(11),
                    dest: ServerId::new(12),
                },
            ),
        ];
        for (at, event) in events {
            sim.schedule(SimTime::from_secs(at), event);
        }
        sim
    }

    /// `event_bench`'s fingerprint of the physical end state, which must
    /// not depend on the clock mode.
    fn physical(sim: &Simulation) -> u64 {
        let mut fnv = Fnv::default();
        fnv.bits(sim.datacenter().room_heat_kw());
        for s in 0..SERVERS {
            let server = sim.datacenter().server(ServerId::new(s)).expect("server");
            fnv.bits(server.die_temperature());
            fnv.bits(server.last_power());
            fnv.bits(server.last_utilization());
        }
        fnv.finish()
    }
}

impl Workload for FleetIdleEvent {
    type Input = StablePredictor;
    type State = Monitored<FleetMonitor>;
    const NAME: &'static str = names::FLEET_IDLE_EVENT;
    const THREADS: usize = 1;
    const SERVER_SECONDS: f64 = (SERVERS as u64 * IDLE_TICKS) as f64;

    fn setup(&self, tr: &mut Tracer) -> StablePredictor {
        fleet_model(self.seed, tr)
    }

    fn op(&self, model: &StablePredictor, tr: &mut Tracer) -> Self::State {
        let (mut sim, mut monitor) = tr.time(names::BUILD, || {
            let monitor = FleetMonitor::new(
                model.clone(),
                DynamicConfig::new(),
                SERVERS,
                Seconds::new(MONITOR_GAP_SECS),
            )
            .expect("valid monitor config");
            (self.sim(ClockMode::Event), monitor)
        });
        drive(&mut sim, IDLE_TICKS, tr, |sim| {
            monitor.observe(sim, Celsius::new(AMBIENT_C));
        });
        // Settle the sleepers so the physical state is the dense one.
        tr.time(names::STEP, || {
            sim.run_until(SimTime::from_secs(IDLE_TICKS))
        });
        Monitored { sim, monitor }
    }

    fn check(&self, _: &StablePredictor, state: &Self::State) -> Checked {
        let Monitored { sim, monitor } = state;
        let mut fnv = Fnv::default();
        let mut scored = 0;
        let mut reanchors = 0;
        for s in 0..SERVERS {
            let sid = ServerId::new(s);
            let stats = monitor.stats(sid);
            scored += stats.scored;
            reanchors += monitor.reanchor_count(sid);
            fnv.fold(stats.scored as u64);
            fnv.bits(stats.sum_sq_err);
            fnv.fold(monitor.reanchor_count(sid));
            fnv.bits(monitor.rolling_mse(sid));
            fnv.bits(monitor.last_anchor_secs(sid));
        }
        let fleet_mse = monitor.fleet_mse();
        fnv.bits(fleet_mse);
        let steps = sim.step_stats();
        Checked {
            outputs: vec![
                ("physical", Self::physical(sim)),
                ("monitor", fnv.finish()),
                ("fleet_mse", fleet_mse.to_bits()),
            ],
            counts: vec![
                (names::SIM_ENGINE_SERVER_STEPS, steps.server_steps as f64),
                (
                    names::SIM_ENGINE_DENSE_SERVER_STEPS,
                    steps.dense_server_steps as f64,
                ),
                (names::CORE_MONITOR_FORECASTS_SCORED, scored as f64),
                (names::CORE_MONITOR_REANCHORS, reanchors as f64),
            ],
            problems: monitor.invariant_report(sim),
            quality: vec![("fleet_mse", fleet_mse, "degC2")],
        }
    }

    fn reference(&self, _: &StablePredictor, tr: &mut Tracer) -> Option<Outputs> {
        let mut sim = self.sim(ClockMode::Fixed);
        tr.time(names::STEP, || {
            sim.run_until(SimTime::from_secs(IDLE_TICKS))
        });
        Some(vec![("physical", Self::physical(&sim))])
    }
}
