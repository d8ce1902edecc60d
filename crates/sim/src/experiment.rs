//! The data-collection protocol of the paper.
//!
//! "Numerous experiments were conducted under different scenarios": each
//! experiment fixes a configuration (server, VM set, fans, ambient), runs
//! until the temperature stabilises, and produces **one record** — the
//! Eq. (2) `{input, output}` pair, where the output ψ_stable is the mean
//! sensor temperature after `t_break = 600 s` (Eq. 1).
//!
//! [`ExperimentConfig::run`] executes one such experiment on the simulator
//! and [`run_experiments_threaded`] a whole campaign, several experiments
//! to a simulation; [`CaseGenerator`] samples the randomised cases of
//! Fig. 1(a) (2–12 VMs, varying fans and ambient).

use crate::datacenter::{Datacenter, RackId};
use crate::engine::{Simulation, CHUNK};
use crate::environment::AmbientModel;
use crate::server::{ServerId, ServerSpec};
use crate::time::{SimDuration, SimTime};
use crate::vm::VmSpec;
use crate::workload::{TaskProfile, ALL_TASK_PROFILES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vmtherm_units::Celsius;

/// Per-VM facts exposed to feature encoding (the ξ_VM input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmInfo {
    /// Virtual CPUs.
    pub vcpus: u32,
    /// Configured memory (GB).
    pub memory_gb: f64,
    /// Deployed task.
    pub task: TaskProfile,
}

/// Everything the paper's Eq. (2) input covers, as raw facts (the
/// `vmtherm-core::features` module turns this into a numeric vector).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSnapshot {
    /// Server CPU capacity, core·GHz — θ_cpu.
    pub theta_cpu: f64,
    /// Installed server memory, GB — θ_memory.
    pub theta_memory_gb: f64,
    /// Fan count — part of θ_fan.
    pub fan_count: u32,
    /// Total airflow, CFM — the effective θ_fan.
    pub fan_airflow_cfm: f64,
    /// Hosted VMs — ξ_VM.
    pub vms: Vec<VmInfo>,
    /// Environment temperature, °C — δ_env.
    pub ambient_c: f64,
}

impl ConfigSnapshot {
    /// Captures the snapshot for one server of a simulation at its current
    /// configuration.
    #[must_use]
    pub fn capture(sim: &Simulation, server: ServerId, ambient_c: Celsius) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "capture() is documented to require a server id from this sim"
        )]
        let s = sim
            .datacenter()
            .server(server)
            .expect("snapshot of unknown server");
        ConfigSnapshot {
            theta_cpu: s.spec().theta_cpu(),
            theta_memory_gb: s.spec().memory_gb(),
            fan_count: s.fans().count(),
            fan_airflow_cfm: s.fans().airflow_cfm(),
            vms: s
                .vms()
                .iter()
                .map(|v| VmInfo {
                    vcpus: v.spec().vcpus(),
                    memory_gb: v.spec().memory_gb(),
                    task: v.spec().task(),
                })
                .collect(),
            ambient_c: ambient_c.get(),
        }
    }

    /// Total vCPUs across VMs.
    #[must_use]
    pub fn total_vcpus(&self) -> u32 {
        self.vms.iter().map(|v| v.vcpus).sum()
    }

    /// Total configured VM memory (GB).
    #[must_use]
    pub fn total_vm_memory_gb(&self) -> f64 {
        self.vms.iter().map(|v| v.memory_gb).sum()
    }

    /// Expected aggregate CPU demand in vCPU units from nominal task
    /// levels.
    #[must_use]
    pub fn nominal_demand(&self) -> f64 {
        self.vms
            .iter()
            .map(|v| v.vcpus as f64 * v.task.nominal_cpu())
            .sum()
    }
}

/// One experiment: fixed configuration, run to stability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Server under test.
    pub server: ServerSpec,
    /// VMs deployed at t = 0.
    pub vms: Vec<VmSpec>,
    /// Room temperature (fixed for the run) — δ_env.
    pub ambient_c: f64,
    /// Total run length t_exp (default 1500 s).
    pub duration: SimDuration,
    /// Break-in time before averaging (paper: 600 s).
    pub t_break: SimDuration,
    /// Workload/sensor seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A standard experiment on the given server/VM set with paper
    /// constants (`t_break = 600 s`, `t_exp = 1500 s`).
    #[must_use]
    pub fn new(server: ServerSpec, vms: Vec<VmSpec>, ambient_c: Celsius, seed: u64) -> Self {
        ExperimentConfig {
            server,
            vms,
            ambient_c: ambient_c.get(),
            duration: SimDuration::from_secs(1500),
            t_break: SimDuration::from_secs(600),
            seed,
        }
    }

    /// Overrides the run length.
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the break-in time.
    #[must_use]
    pub fn with_t_break(mut self, t_break: SimDuration) -> Self {
        self.t_break = t_break;
        self
    }

    /// Runs the experiment: a simulation of its one server, averaged per
    /// Eq. (1) as it runs. It is a campaign group of one, so a config has
    /// the same outcome here as inside [`run_experiments_threaded`].
    ///
    /// # Panics
    ///
    /// Panics if a VM does not fit on the server (experiment configs are
    /// expected to be feasible; [`CaseGenerator`] only emits feasible ones)
    /// or if `t_break >= duration`.
    #[must_use]
    pub fn run(&self) -> ExperimentOutcome {
        // One config in, one outcome out.
        run_group(&[self]).swap_remove(0)
    }
}

/// Runs every experiment config (the paper's data-collection campaign)
/// on up to `threads` worker threads (inline when `threads <= 1`), and
/// returns the outcomes in config order.
///
/// Each job is a lockstep group: up to eight consecutive configs of
/// equal `duration`, run as one [`Simulation`] with a server per
/// experiment, so the engine integrates their thermal networks side by
/// side and folds each one's Eq. (1) means instead of recording traces.
/// Every experiment keeps the ambient, seeds and `t_break` it has alone,
/// and its outcome lands in its config's slot, so the result is
/// bit-identical to `configs.iter().map(ExperimentConfig::run).collect()`
/// at every thread count.
///
/// # Panics
///
/// Re-raises, with its original payload, the panic of any experiment
/// that panics (see [`ExperimentConfig::run`]).
#[must_use]
pub fn run_experiments_threaded(
    configs: &[ExperimentConfig],
    threads: usize,
) -> Vec<ExperimentOutcome> {
    let mut slots: Vec<(&ExperimentConfig, Option<ExperimentOutcome>)> =
        configs.iter().map(|c| (c, None)).collect();
    let groups: Vec<_> = slots
        .chunk_by_mut(|a, b| a.0.duration == b.0.duration)
        .flat_map(|run| run.chunks_mut(CHUNK))
        .collect();
    for_each_job(groups, threads, |group| {
        let configs: Vec<&ExperimentConfig> = group.iter().map(|(config, _)| *config).collect();
        for ((_, slot), outcome) in group.iter_mut().zip(run_group(&configs)) {
            *slot = Some(outcome);
        }
    });
    // Every slot is filled: the groups cover the slice exactly once.
    slots.into_iter().flat_map(|(_, outcome)| outcome).collect()
}

/// Drains a job list on a scoped pool of up to `threads` workers, the
/// calling thread among them (inline when `threads <= 1` or there is at
/// most one job). Job pick-up order is arbitrary, so `f` may only mutate
/// state its job borrows exclusively; under that contract the outcome
/// does not depend on the worker count. Worker panics are re-raised on
/// the caller with their original payload.
fn for_each_job<J, F>(jobs: Vec<J>, threads: usize, f: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        for job in jobs {
            f(job);
        }
        return;
    }

    let workers = threads.min(jobs.len());
    let queue = std::sync::Mutex::new(jobs);
    let drain = || loop {
        let job = {
            let mut q = queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.pop()
        };
        match job {
            Some(job) => f(job),
            None => break,
        }
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "each job mutates only state it borrows exclusively, so the outcome does not depend on which worker ran it"
    )]
    std::thread::scope(|scope| {
        // The caller is one of the workers: it spawns one thread fewer
        // and its allocator arena serves jobs instead of sitting idle.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        drain();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Runs experiments of one `duration` in lockstep as one [`Simulation`],
/// experiment `k` on server `k` in rack `k`. Each keeps the bits it gets
/// alone:
///
/// - the room is `Fixed(0.0)` and rack `k`'s offset is the experiment's
///   ambient, so its server sees `0.0 + ambient`, the same bits as the
///   standalone `ambient + 0.0`;
/// - server `k` is seeded `seed ^ (k << 17)`, which `Server::new` folds
///   back into the sensor seed of a standalone server 0;
/// - VM `j` boots through [`Simulation::boot_vm_as`] with the workload
///   stream of the standalone VM `j`;
/// - each server folds Eq. (1) from its own `t_break`.
///
/// Every `t_break` is checked before anything is simulated. Each
/// experiment's set-up (server, VMs, snapshot) is one `experiment_run`
/// span; the group's run is one `engine_run` span beside them.
fn run_group(configs: &[&ExperimentConfig]) -> Vec<ExperimentOutcome> {
    for config in configs {
        assert!(
            config.t_break < config.duration,
            "t_break must precede the experiment end"
        );
    }
    let Some(duration) = configs.first().map(|config| config.duration) else {
        return Vec::new();
    };
    debug_assert!(configs.iter().all(|config| config.duration == duration));
    let mut sim = Simulation::new(Datacenter::new(), AmbientModel::Fixed(0.0), 0);
    let starts: Vec<(ConfigSnapshot, f64)> = configs
        .iter()
        .enumerate()
        .map(|(k, config)| {
            let _span = vmtherm_obs::span(vmtherm_obs::names::SPAN_EXPERIMENT_RUN);
            let rack = RackId::new(k);
            let ambient = Celsius::new(config.ambient_c);
            let dc = sim.datacenter_mut();
            let sid = dc.add_server_in_rack(
                config.server.clone(),
                rack,
                ambient,
                config.seed ^ ((k as u64) << 17),
            );
            dc.set_rack_offset(rack, config.ambient_c);
            for (j, spec) in config.vms.iter().enumerate() {
                #[expect(
                    clippy::expect_used,
                    reason = "ExperimentConfig validates capacity before booting; failure is a harness bug"
                )]
                sim.boot_vm_as(sid, spec.clone(), config.seed, j as u64)
                    .expect("experiment VM placement failed");
            }
            let snapshot = ConfigSnapshot::capture(&sim, sid, ambient);
            // A new server starts in equilibrium with the ambient it was
            // added at (`Server::new`), and booting steps no physics.
            let initial_temp = ambient.get();
            debug_assert_eq!(
                sim.datacenter()
                    .server(sid)
                    .map(|server| server.die_temperature().to_bits()),
                Ok(initial_temp.to_bits())
            );
            (snapshot, initial_temp)
        })
        .collect();
    sim.fold_stable_means(configs.iter().map(|config| SimTime::ZERO + config.t_break));
    sim.run_until(SimTime::ZERO + duration);
    starts
        .into_iter()
        .zip(sim.take_stable_means())
        .map(|((snapshot, initial_temp), means)| {
            #[expect(
                clippy::expect_used,
                reason = "run duration is asserted longer than t_break, so the window has samples"
            )]
            let (psi_stable, true_stable) = means.means().expect("samples after t_break");
            ExperimentOutcome {
                snapshot,
                psi_stable,
                true_stable,
                initial_temp,
            }
        })
        .collect()
}

/// The result of one experiment: the Eq. (2) record, its ground truth
/// and φ(0).
///
/// The run's traces are dropped once Eq. (1) has averaged them, so an
/// outcome is a few hundred bytes however long the run. Studies that need
/// a series drive a [`Simulation`] themselves and read
/// [`Simulation::trace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// The input side of the record.
    pub snapshot: ConfigSnapshot,
    /// ψ_stable from the *sensor* (Eq. 1) — the training target.
    pub psi_stable: f64,
    /// Stable mean of the true die temperature — evaluation ground truth.
    pub true_stable: f64,
    /// φ(0): die temperature before the experiment started.
    pub initial_temp: f64,
}

/// Randomised experiment cases in the paper's evaluation ranges:
/// 2–12 VMs of heterogeneous shapes/tasks, 2–6 fans, 18–28 °C ambient.
#[derive(Debug, Clone)]
pub struct CaseGenerator {
    rng: StdRng,
}

impl CaseGenerator {
    /// Paper-range generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CaseGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples one random VM spec.
    pub fn random_vm(&mut self, index: usize) -> VmSpec {
        // Weighted draws written as exhaustive matches over the sampled
        // index (same distribution as the former lookup tables).
        let vcpus = match self.rng.gen_range(0..5) {
            0 | 1 => 1u32,
            2 | 3 => 2,
            _ => 4,
        };
        let memory = match self.rng.gen_range(0..4) {
            0 => 2.0f64,
            1 | 2 => 4.0,
            _ => 8.0,
        };
        let task = ALL_TASK_PROFILES[self.rng.gen_range(0..ALL_TASK_PROFILES.len())];
        VmSpec::new(format!("vm-{index}"), vcpus, memory, task)
    }

    /// Samples one full experiment case. The server is the standard
    /// 16-core box with a sampled fan count; total VM memory is feasible
    /// by construction (≤ 12 VMs × 8 GB < 64 GB... not quite — the
    /// generator resamples memory-heavy sets until they fit).
    pub fn random_case(&mut self, seed: u64) -> ExperimentConfig {
        let n = self.rng.gen_range(2u32..=12);
        let fans = self.rng.gen_range(2u32..=6);
        let ambient = self.rng.gen_range(18.0..=28.0);
        let server = ServerSpec::commodity("exp", 16, 2.4, 64.0, fans);
        let mut vms: Vec<VmSpec> = (0..n).map(|i| self.random_vm(i as usize)).collect();
        // Keep total memory within the box.
        while vms.iter().map(VmSpec::memory_gb).sum::<f64>() > server.memory_gb() {
            let idx = self.rng.gen_range(0..vms.len());
            let v = &vms[idx];
            vms[idx] = VmSpec::new(v.name().to_string(), v.vcpus(), 2.0, v.task());
        }
        ExperimentConfig::new(server, vms, Celsius::new(ambient), seed)
    }

    /// Samples `count` cases with per-case seeds derived from `base_seed`.
    pub fn random_cases(&mut self, count: usize, base_seed: u64) -> Vec<ExperimentConfig> {
        (0..count)
            .map(|i| self.random_case(base_seed.wrapping_add(i as u64 * 7919)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(n_vms: usize, seed: u64) -> ExperimentConfig {
        let server = ServerSpec::standard("t");
        let vms = (0..n_vms)
            .map(|i| VmSpec::new(format!("v{i}"), 2, 4.0, TaskProfile::CpuBound))
            .collect();
        ExperimentConfig::new(server, vms, Celsius::new(25.0), seed)
            .with_duration(SimDuration::from_secs(900))
            .with_t_break(SimDuration::from_secs(600))
    }

    #[test]
    fn experiment_produces_stable_record() {
        let outcome = quick_config(4, 1).run();
        // 8 vcpus at 90% on 16 cores ≈ 45% util; stable die ≈ 25 + P*(R).
        assert!(outcome.psi_stable > 30.0 && outcome.psi_stable < 70.0);
        // Sensor-derived ψ_stable close to ground truth.
        assert!((outcome.psi_stable - outcome.true_stable).abs() < 1.0);
        assert_eq!(outcome.snapshot.vms.len(), 4);
        assert_eq!(outcome.snapshot.total_vcpus(), 8);
        assert_eq!(outcome.initial_temp, 25.0);
    }

    #[test]
    fn psi_stable_is_mean_after_break() {
        let config = quick_config(2, 2);
        let outcome = config.run();

        // Record the same run's sensor trace independently and average
        // it per Eq. (1): every sample at or after t_break = 600 s.
        let mut dc = Datacenter::new();
        let sid = dc.add_server(
            config.server.clone(),
            Celsius::new(config.ambient_c),
            config.seed,
        );
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(config.ambient_c), config.seed);
        for spec in &config.vms {
            sim.boot_vm_now(sid, spec.clone()).unwrap();
        }
        sim.run_until(SimTime::ZERO + config.duration);
        let after_break: Vec<f64> = sim
            .trace(sid)
            .unwrap()
            .sensor_c
            .iter()
            .filter(|&(t, _)| t >= 600.0)
            .map(|(_, v)| v)
            .collect();
        assert!(after_break.len() > 100, "{} samples", after_break.len());
        let expect = after_break.iter().sum::<f64>() / after_break.len() as f64;
        assert_eq!(outcome.psi_stable.to_bits(), expect.to_bits());
    }

    #[test]
    fn more_vms_run_hotter() {
        let light = quick_config(1, 3).run();
        let heavy = quick_config(8, 3).run();
        assert!(
            heavy.psi_stable > light.psi_stable + 3.0,
            "heavy {} vs light {}",
            heavy.psi_stable,
            light.psi_stable
        );
    }

    #[test]
    fn experiments_are_seed_deterministic() {
        let a = quick_config(3, 5).run();
        let b = quick_config(3, 5).run();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "t_break")]
    fn bad_break_panics() {
        let cfg = quick_config(1, 1)
            .with_duration(SimDuration::from_secs(100))
            .with_t_break(SimDuration::from_secs(200));
        let _ = cfg.run();
    }

    #[test]
    fn generator_respects_ranges() {
        let mut gen = CaseGenerator::new(11);
        for i in 0..30 {
            let case = gen.random_case(i);
            let n = case.vms.len();
            assert!((2..=12).contains(&n), "vm count {n}");
            let fans = case.server.fans().count();
            assert!((2..=6).contains(&fans), "fans {fans}");
            assert!((18.0..=28.0).contains(&case.ambient_c));
            let mem: f64 = case.vms.iter().map(VmSpec::memory_gb).sum();
            assert!(mem <= case.server.memory_gb());
        }
    }

    #[test]
    fn generator_is_seed_deterministic() {
        let cases_a = CaseGenerator::new(9).random_cases(5, 100);
        let cases_b = CaseGenerator::new(9).random_cases(5, 100);
        assert_eq!(cases_a, cases_b);
    }

    #[test]
    fn snapshot_aggregates() {
        let outcome = quick_config(3, 7).run();
        let s = &outcome.snapshot;
        assert_eq!(s.total_vcpus(), 6);
        assert!((s.total_vm_memory_gb() - 12.0).abs() < 1e-12);
        assert!((s.nominal_demand() - 6.0 * 0.9).abs() < 1e-9);
        assert!((s.theta_cpu - 38.4).abs() < 1e-9);
    }
}
