//! Sharded fleet monitoring: thread-parallel [`FleetMonitor`] shards
//! with a deterministic merge.
//!
//! A [`ShardedMonitor`] partitions the fleet into contiguous server
//! ranges (via [`vmtherm_sim::shard::shard_bounds`]), owns one ranged
//! [`FleetMonitor`] per shard, and steps them on a scoped worker pool
//! ([`vmtherm_sim::shard::for_each_chunk`]). Each shard only mutates
//! its own per-server state — predictors, pending forecasts, P²
//! sketches — through an exclusive borrow, so per-server results are
//! **bit-identical for any thread count and any shard partitioning**.
//!
//! Fleet-level values are *reduced serially after the parallel phase*,
//! always in global server-index order:
//!
//! - [`ShardedMonitor::fleet_mse`] concatenates the shards'
//!   [`FleetMonitor::server_stats`] slices and folds them with exactly
//!   the floating-point association a whole-fleet monitor uses, so the
//!   result is bitwise equal to `FleetMonitor::fleet_mse` on one
//!   monitor covering the same servers.
//! - [`ShardedMonitor::fleet_pred_err`] folds the per-server forecast
//!   -error sketches into an [`obs::MergedQuantiles`] in server order,
//!   again matching the unsharded fold bit for bit.
//!
//! What is *not* bit-stable across thread counts: wall-clock timing
//! metrics (`vmtherm_monitor_observe_ns`), the global forecast-error
//! histogram's float sum (atomic CAS adds commute only up to FP
//! rounding), and the interleaving of observability events across
//! shards. Counters remain exact (atomic integer adds commute).

use crate::dynamic::DynamicConfig;
use crate::error::PredictError;
use crate::monitor::{DegradationPolicy, DegradationStats, FleetMonitor, ServerStats};
use crate::stable::StablePredictor;
use vmtherm_obs::{self as obs, names};
use vmtherm_sim::shard;
use vmtherm_sim::{ServerId, Simulation};
use vmtherm_units::{Celsius, Seconds};

/// Fleet-level roll-up gauges, registered lazily when the obs layer is
/// enabled (mirrors the per-server gauge registration in `monitor`).
#[derive(Debug)]
struct FleetGauges {
    mse: obs::Gauge,
    pred_err_p95: obs::Gauge,
}

impl FleetGauges {
    fn register() -> FleetGauges {
        let reg = obs::global();
        FleetGauges {
            mse: reg.gauge(names::METRIC_MONITOR_FLEET_MSE),
            pred_err_p95: reg.gauge(names::METRIC_MONITOR_FLEET_PRED_ERR_P95),
        }
    }
}

/// A fleet monitor partitioned into independently steppable shards.
///
/// Public accessors take **global** server ids and route to the owning
/// shard, so a `ShardedMonitor` is a drop-in replacement for one
/// [`FleetMonitor`] over the whole fleet — with `observe` running the
/// per-shard work on up to `threads` worker threads, as
/// [`shard::workers`] allows for the fleet size.
#[derive(Debug)]
pub struct ShardedMonitor {
    shards: Vec<FleetMonitor>,
    servers: usize,
    threads: usize,
    fleet_gauges: Option<FleetGauges>,
}

impl ShardedMonitor {
    /// Creates a monitor for `servers` hosts split into `shards`
    /// contiguous ranges, stepping on up to `threads` worker threads
    /// (both clamped to at least 1; shards above `servers` collapse).
    ///
    /// # Errors
    ///
    /// Propagates invalid [`DynamicConfig`]s.
    pub fn new(
        stable: &StablePredictor,
        config: DynamicConfig,
        servers: usize,
        gap_secs: Seconds,
        shards: usize,
        threads: usize,
    ) -> Result<Self, PredictError> {
        let monitors: Result<Vec<_>, _> = shard::shard_bounds(servers, shards)
            .into_iter()
            .map(|(lo, hi)| FleetMonitor::with_range(stable.clone(), config, lo, hi - lo, gap_secs))
            .collect();
        Ok(ShardedMonitor {
            shards: monitors?,
            servers,
            threads: threads.max(1),
            fleet_gauges: None,
        })
    }

    /// Replaces the degradation policy on every shard.
    ///
    /// # Errors
    ///
    /// Rejects invalid policies (see [`FleetMonitor::with_policy`]).
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Result<Self, PredictError> {
        let monitors: Result<Vec<_>, _> = self
            .shards
            .into_iter()
            .map(|m| m.with_policy(policy))
            .collect();
        self.shards = monitors?;
        Ok(self)
    }

    /// Sets the die-temperature limit the headroom gauges measure
    /// against, on every shard.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive limits.
    pub fn with_temp_limit(mut self, limit: Celsius) -> Result<Self, PredictError> {
        let monitors: Result<Vec<_>, _> = self
            .shards
            .into_iter()
            .map(|m| m.with_temp_limit(limit))
            .collect();
        self.shards = monitors?;
        Ok(self)
    }

    /// Total servers covered across all shards.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of shards the fleet is partitioned into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads `observe` may use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Changes the worker-thread budget (clamped to at least 1). Has no
    /// effect on results — only on wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The per-shard monitors, in ascending server-range order.
    #[must_use]
    pub fn shards(&self) -> &[FleetMonitor] {
        &self.shards
    }

    fn shard_for(&self, server: ServerId) -> Option<&FleetMonitor> {
        let idx = server.raw();
        self.shards
            .iter()
            .find(|m| idx >= m.first_server() && idx < m.first_server() + m.servers())
    }

    /// Ingests new telemetry into every shard, in parallel once the
    /// fleet gives each worker at least
    /// [`shard::MIN_SERVERS_PER_WORKER`] servers (inline below that).
    ///
    /// Equivalent to calling [`FleetMonitor::observe`] on each shard in
    /// order; because shards only touch their own server range, running
    /// them concurrently produces bit-identical per-server state.
    /// Fleet-level gauges are reduced serially afterwards, in shard
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has more servers than this monitor
    /// covers.
    pub fn observe(&mut self, sim: &Simulation, ambient_c: Celsius) {
        assert!(
            sim.datacenter().len() <= self.servers,
            "monitor covers {} servers, simulation has {}",
            self.servers,
            sim.datacenter().len()
        );
        let workers = shard::workers(self.threads, self.servers);
        let chunks = self.shards.len();
        shard::for_each_chunk(&mut self.shards, chunks, workers, |_, chunk| {
            for monitor in chunk {
                monitor.observe(sim, ambient_c);
            }
        });
        if obs::enabled() {
            let mse = self.fleet_mse();
            let p95 = self.fleet_pred_err().quantile(0.95);
            let gauges = self.fleet_gauges.get_or_insert_with(FleetGauges::register);
            gauges.mse.set(mse);
            gauges.pred_err_p95.set(p95);
        }
    }

    /// Fleet-wide MSE over all matured forecasts (`NaN` before any).
    ///
    /// Folds the concatenated per-server stats in global index order —
    /// the same accumulator association as [`FleetMonitor::fleet_mse`]
    /// on an unsharded monitor, so the value is bitwise identical.
    #[must_use]
    pub fn fleet_mse(&self) -> f64 {
        let scored: usize = self
            .shards
            .iter()
            .flat_map(|m| m.server_stats())
            .map(|s| s.scored)
            .sum();
        if scored == 0 {
            return f64::NAN;
        }
        let sum: f64 = self
            .shards
            .iter()
            .flat_map(|m| m.server_stats())
            .map(|s| s.sum_sq_err)
            .sum();
        sum / scored as f64
    }

    /// Fleet-level forecast-error roll-up, folded per server in global
    /// index order (bitwise identical to the unsharded fold).
    #[must_use]
    pub fn fleet_pred_err(&self) -> obs::MergedQuantiles {
        let mut merged = obs::MergedQuantiles::new();
        for monitor in &self.shards {
            for sketch in monitor.pred_err_sketches() {
                merged.absorb(sketch);
            }
        }
        merged
    }

    /// Per-server accuracy stats (zeros for unknown servers).
    #[must_use]
    pub fn stats(&self, server: ServerId) -> ServerStats {
        self.shard_for(server)
            .map(|m| m.stats(server))
            .unwrap_or_default()
    }

    /// Per-server degradation stats (zeros for unknown servers).
    #[must_use]
    pub fn degradation(&self, server: ServerId) -> DegradationStats {
        self.shard_for(server)
            .map(|m| m.degradation(server))
            .unwrap_or_default()
    }

    /// Whether a server's stream is currently in holdover.
    #[must_use]
    pub fn in_holdover(&self, server: ServerId) -> bool {
        self.shard_for(server)
            .is_some_and(|m| m.in_holdover(server))
    }

    /// Rolling MSE over a server's most recent forecasts (`NaN` before
    /// any, or for unknown servers).
    #[must_use]
    pub fn rolling_mse(&self, server: ServerId) -> f64 {
        self.shard_for(server)
            .map_or(f64::NAN, |m| m.rolling_mse(server))
    }

    /// How many times a server has been re-anchored.
    #[must_use]
    pub fn reanchor_count(&self, server: ServerId) -> u64 {
        self.shard_for(server)
            .map_or(0, |m| m.reanchor_count(server))
    }

    /// Simulation time (s) of a server's most recent anchor.
    #[must_use]
    pub fn last_anchor_secs(&self, server: ServerId) -> f64 {
        self.shard_for(server)
            .map_or(0.0, |m| m.last_anchor_secs(server))
    }

    /// Forecasts issued for a server that have not matured yet.
    #[must_use]
    pub fn pending_forecasts(&self, server: ServerId) -> usize {
        self.shard_for(server)
            .map_or(0, |m| m.pending_forecasts(server))
    }

    /// The most recently issued forecast for a server as
    /// `(target_secs, value_c)`.
    #[must_use]
    pub fn latest_forecast(&self, server: ServerId) -> Option<(f64, f64)> {
        self.shard_for(server)
            .and_then(|m| m.latest_forecast(server))
    }

    /// One server's absolute forecast-error P² sketch.
    #[must_use]
    pub fn pred_err_sketch(&self, server: ServerId) -> Option<&obs::QuantileSketch> {
        self.shard_for(server)
            .and_then(|m| m.pred_err_sketch(server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::{run_experiments, TrainingOptions};
    use vmtherm_sim::fault::{DropoutFault, FaultPlan, JitterFault, SpikeFault};
    use vmtherm_sim::{
        AmbientModel, CaseGenerator, ClockMode, Datacenter, Event, ServerSpec, SimDuration,
        SimTime, TaskProfile, VmSpec,
    };
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;

    const SERVERS: usize = 5;

    fn stable_model() -> StablePredictor {
        let mut generator = CaseGenerator::new(42);
        let configs: Vec<_> = generator
            .random_cases(30, 1_000)
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
        .unwrap()
    }

    fn fleet_sim(faulted: bool) -> Simulation {
        let mut dc = Datacenter::new();
        for i in 0..SERVERS {
            dc.add_server(
                ServerSpec::standard(format!("n{i}")),
                Celsius::new(24.0),
                i as u64,
            );
        }
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
        for i in 0..SERVERS {
            sim.boot_vm_now(
                ServerId::new(i),
                VmSpec::new(format!("v{i}"), 2 + i as u32, 4.0, TaskProfile::CpuBound),
            )
            .unwrap();
        }
        if faulted {
            sim.set_fault_plan(
                FaultPlan::new(21)
                    .with_dropout(
                        DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0)).unwrap(),
                    )
                    .with_spike(
                        SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0)).unwrap(),
                    )
                    .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).unwrap()),
            )
            .unwrap();
        }
        // A mid-run burst exercises event-driven re-anchoring.
        sim.schedule(
            SimTime::from_secs(90),
            Event::BootVm {
                server: ServerId::new(1),
                spec: VmSpec::new("burst", 4, 8.0, TaskProfile::CpuBound),
            },
        );
        sim
    }

    /// Everything observable about a monitor's end state, as exact bits.
    fn fingerprint(mse: f64, monitors: &[&dyn Fn(ServerId) -> (u64, u64, u64, u64)]) -> Vec<u64> {
        let mut bits = vec![mse.to_bits()];
        for probe in monitors {
            for i in 0..SERVERS {
                let (a, b, c, d) = probe(ServerId::new(i));
                bits.extend([a, b, c, d]);
            }
        }
        bits
    }

    fn run_and_compare(faulted: bool, shards: usize, threads: usize) {
        let stable = stable_model();
        let mut sim_a = fleet_sim(faulted);
        let mut sim_b = fleet_sim(faulted);
        let mut reference = FleetMonitor::new(
            stable.clone(),
            DynamicConfig::new(),
            SERVERS,
            Seconds::new(40.0),
        )
        .unwrap();
        let mut sharded = ShardedMonitor::new(
            &stable,
            DynamicConfig::new(),
            SERVERS,
            Seconds::new(40.0),
            shards,
            threads,
        )
        .unwrap();
        for _ in 0..200 {
            sim_a.step();
            sim_b.step();
            reference.observe(&sim_a, Celsius::new(24.0));
            sharded.observe(&sim_b, Celsius::new(24.0));
        }

        let probe_ref = |sid: ServerId| {
            let s = reference.stats(sid);
            (
                s.scored as u64,
                s.sum_sq_err.to_bits(),
                reference.rolling_mse(sid).to_bits(),
                reference.reanchor_count(sid),
            )
        };
        let probe_sharded = |sid: ServerId| {
            let s = sharded.stats(sid);
            (
                s.scored as u64,
                s.sum_sq_err.to_bits(),
                sharded.rolling_mse(sid).to_bits(),
                sharded.reanchor_count(sid),
            )
        };
        assert_eq!(
            fingerprint(reference.fleet_mse(), &[&probe_ref]),
            fingerprint(sharded.fleet_mse(), &[&probe_sharded]),
            "shards={shards} threads={threads} faulted={faulted}"
        );
        // Forecasts, holdover flags and anchors line up server by server.
        for i in 0..SERVERS {
            let sid = ServerId::new(i);
            assert_eq!(reference.latest_forecast(sid), sharded.latest_forecast(sid));
            assert_eq!(
                reference.pending_forecasts(sid),
                sharded.pending_forecasts(sid)
            );
            assert_eq!(reference.in_holdover(sid), sharded.in_holdover(sid));
            assert_eq!(
                reference.last_anchor_secs(sid).to_bits(),
                sharded.last_anchor_secs(sid).to_bits()
            );
            assert_eq!(reference.degradation(sid), sharded.degradation(sid));
        }
        // The fleet roll-up folds to the same bits as the unsharded fold.
        let (a, b) = (reference.fleet_pred_err(), sharded.fleet_pred_err());
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum().to_bits(), b.sum().to_bits());
        assert_eq!(a.min().to_bits(), b.min().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
        for (qa, qb) in a.quantiles().iter().zip(b.quantiles()) {
            assert_eq!(qa.0.to_bits(), qb.0.to_bits());
            assert_eq!(qa.1.to_bits(), qb.1.to_bits());
        }
    }

    #[test]
    fn sharded_monitor_matches_unsharded_bitwise() {
        run_and_compare(false, 2, 2);
    }

    #[test]
    fn sharded_monitor_matches_unsharded_bitwise_with_faults() {
        run_and_compare(true, 3, 4);
    }

    #[test]
    fn single_shard_single_thread_matches_too() {
        run_and_compare(true, 1, 1);
    }

    /// Enough servers that two workers each get a full
    /// `MIN_SERVERS_PER_WORKER`, so threads 2 and 4 really spawn.
    const LARGE_FLEET: usize = 2 * shard::MIN_SERVERS_PER_WORKER;

    /// Steps a faulted `LARGE_FLEET`-server run on `threads` workers
    /// (`shards = threads`) with a sharded monitor watching every tick,
    /// and returns every engine and monitor end-state bit.
    fn large_fleet_fingerprint(
        stable: &StablePredictor,
        clock: ClockMode,
        threads: usize,
    ) -> Vec<u64> {
        let dc = Datacenter::homogeneous(
            &ServerSpec::standard("n"),
            LARGE_FLEET,
            16,
            Celsius::new(24.0),
            3,
        );
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7).with_threads(threads);
        sim.set_clock_mode(clock);
        sim.set_fault_plan(
            FaultPlan::new(21)
                .with_dropout(
                    DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0)).unwrap(),
                )
                .with_spike(SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0)).unwrap())
                .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).unwrap()),
        )
        .unwrap();
        for i in 0..LARGE_FLEET {
            sim.boot_vm_now(
                ServerId::new(i),
                VmSpec::new(format!("v{i}"), 1 + (i % 4) as u32, 4.0, TaskProfile::Mixed),
            )
            .unwrap();
        }
        for i in (0..LARGE_FLEET).step_by(37) {
            sim.schedule(
                SimTime::from_secs(15),
                Event::BootVm {
                    server: ServerId::new(i),
                    spec: VmSpec::new(format!("b{i}"), 4, 8.0, TaskProfile::CpuBound),
                },
            );
        }
        let mut monitor = ShardedMonitor::new(
            stable,
            DynamicConfig::new(),
            LARGE_FLEET,
            Seconds::new(10.0),
            threads,
            threads,
        )
        .unwrap();
        for _ in 0..40 {
            sim.step();
            monitor.observe(&sim, Celsius::new(24.0));
        }

        let fleet_mse = monitor.fleet_mse();
        assert!(fleet_mse.is_finite(), "no forecast matured");
        let faults = sim.fault_stats();
        let mut bits = vec![
            sim.datacenter().room_heat_kw().to_bits(),
            fleet_mse.to_bits(),
            faults.dropped,
            faults.spiked,
            faults.jittered,
        ];
        for i in 0..LARGE_FLEET {
            let sid = ServerId::new(i);
            bits.push(
                sim.datacenter()
                    .server(sid)
                    .unwrap()
                    .die_temperature()
                    .to_bits(),
            );
            for (t, v) in sim.trace(sid).unwrap().sensor_c.iter() {
                bits.extend([t.to_bits(), v.to_bits()]);
            }
            for &(t, v) in sim.delivered(sid).unwrap() {
                bits.extend([t.to_bits(), v.to_bits()]);
            }
            let s = monitor.stats(sid);
            bits.extend([
                s.scored as u64,
                s.sum_sq_err.to_bits(),
                monitor.rolling_mse(sid).to_bits(),
                monitor.reanchor_count(sid),
            ]);
        }
        bits
    }

    #[test]
    fn large_fleet_on_spawned_workers_matches_one_thread_bitwise() {
        assert_eq!(
            shard::workers(2, LARGE_FLEET),
            2,
            "fleet too small to spawn"
        );
        let stable = stable_model();
        for clock in [ClockMode::Fixed, ClockMode::Event] {
            let reference = large_fleet_fingerprint(&stable, clock, 1);
            for threads in [2, 4] {
                // `assert!` rather than `assert_eq!`: a diff of two
                // fingerprints this long would bury the message.
                assert!(
                    reference == large_fleet_fingerprint(&stable, clock, threads),
                    "{clock:?} clock at threads={threads} diverged from one thread"
                );
            }
        }
    }

    #[test]
    fn more_shards_than_servers_collapse() {
        let stable = stable_model();
        let sharded =
            ShardedMonitor::new(&stable, DynamicConfig::new(), 3, Seconds::new(40.0), 64, 8)
                .unwrap();
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.servers(), 3);
        assert_eq!(sharded.threads(), 8);
    }

    #[test]
    fn accessors_are_safe_for_unknown_servers() {
        let stable = stable_model();
        let sharded =
            ShardedMonitor::new(&stable, DynamicConfig::new(), 2, Seconds::new(40.0), 2, 2)
                .unwrap();
        let ghost = ServerId::new(99);
        assert_eq!(sharded.stats(ghost), ServerStats::default());
        assert!(sharded.rolling_mse(ghost).is_nan());
        assert_eq!(sharded.reanchor_count(ghost), 0);
        assert_eq!(sharded.latest_forecast(ghost), None);
        assert!(!sharded.in_holdover(ghost));
        assert!(sharded.pred_err_sketch(ghost).is_none());
    }
}
