//! Fleet-scale sharded-simulation benchmark: thread-parallel server
//! stepping and sharded monitoring, with a bit-identity proof.
//!
//! Runs the same fleet scenario — a homogeneous datacenter with per-
//! server VM load, an active telemetry fault plan and a mid-run burst —
//! at each thread count in the scaling curve, stepping the engine with
//! `threads` workers (`shards = threads`, so the partitioning varies
//! too) and scoring it with a [`ShardedMonitor`]. Two things come out:
//!
//! - **Scaling curves**: engine throughput (servers×steps/sec) and
//!   monitor throughput (server-updates/sec) per thread count, with the
//!   speedup over the single-thread row.
//! - **A bit-identity proof**: a fingerprint folded over every per-
//!   server end state — die temperatures, full sensor traces, delivered
//!   telemetry, fault counters, per-server forecast stats, fleet MSE
//!   and the fleet forecast-error roll-up — which must be *equal bits*
//!   at every thread count. This is the sharded-execution contract
//!   (`vmtherm_sim::shard`): results never depend on thread count or
//!   shard partitioning.
//!
//! At 48 servers every per-tick section runs its shards inline (a
//! worker needs `vmtherm_sim::shard::MIN_SERVERS_PER_WORKER` servers),
//! so the curve shows that `threads` costs nothing at this size rather
//! than a parallel speedup.
//!
//! Writes the machine-readable `BENCH_fleet.json`. Pass `--check` for
//! CI smoke mode, which runs a shorter scenario and asserts that
//! fingerprints are identical across every thread count and that the
//! monitor scored forecasts for the whole fleet in every run.
//!
//! Run with: `cargo run --release -p vmtherm-bench --bin fleet_bench`
//! (optionally `--out PATH`, default `BENCH_fleet.json`).

use std::time::{Duration, Instant};
use vmtherm_bench::{train_stable_model, training_campaign};
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::fleet::ShardedMonitor;
use vmtherm_core::stable::StablePredictor;
use vmtherm_obs::{json, Json};
use vmtherm_sim::{
    AmbientModel, Datacenter, DropoutFault, Event, FaultPlan, JitterFault, ServerId, ServerSpec,
    SimTime, Simulation, SpikeFault, TaskProfile, VmSpec,
};
use vmtherm_units::{Celsius, Seconds};

/// Thread counts on the scaling curve (shards track threads).
const THREAD_CURVE: [usize; 4] = [1, 2, 4, 8];
/// Fleet size: below the threaded floor, so every thread count steps
/// the same shards inline.
const SERVERS: usize = 48;
/// Scenario length in 1 Hz steps (full mode / `--check` smoke mode).
const STEPS: u64 = 600;
const CHECK_STEPS: u64 = 150;

struct Opts {
    check: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let check = std::env::args().any(|a| a == "--check");
    let mut out = "BENCH_fleet.json".to_string();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--out" {
            if let Some(path) = args.next() {
                out = path;
            }
        }
    }
    Opts { check, out }
}

/// One measured row of the scaling curve.
struct FleetRow {
    threads: usize,
    sim_secs: f64,
    monitor_secs: f64,
    /// FNV-1a fold over every deterministic end-state bit.
    fingerprint: u64,
    fleet_mse: f64,
    scored: usize,
}

impl FleetRow {
    fn server_steps_per_sec(&self, steps: u64) -> f64 {
        (SERVERS as u64 * steps) as f64 / self.sim_secs
    }

    fn monitor_updates_per_sec(&self, steps: u64) -> f64 {
        (SERVERS as u64 * steps) as f64 / self.monitor_secs
    }
}

/// FNV-1a over `u64` words — a stable, dependency-free fold for the
/// bit-identity fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn bits(&mut self, x: f64) {
        self.fold(x.to_bits());
    }
}

fn fleet_sim(threads: usize) -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("srv"),
        SERVERS,
        8,
        Celsius::new(24.0),
        5,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9).with_threads(threads);
    sim.set_shards(threads);
    sim.set_fault_plan(
        FaultPlan::new(21)
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
        let task = tasks[s % tasks.len()];
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("vm-{s}"), 2 + (s % 3) as u32, 4.0, task),
        )
        .expect("scenario VM placement");
    }
    // A mid-run burst on a handful of servers exercises event-driven
    // re-anchoring inside every shard.
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

/// Runs the scenario at one thread count and fingerprints the end state.
fn fleet_run(model: &StablePredictor, threads: usize, steps: u64) -> FleetRow {
    let mut sim = fleet_sim(threads);
    let mut monitor = ShardedMonitor::new(
        model,
        DynamicConfig::new(),
        SERVERS,
        Seconds::new(40.0),
        threads,
        threads,
    )
    .expect("monitor");

    let mut sim_elapsed = Duration::ZERO;
    let mut monitor_elapsed = Duration::ZERO;
    for _ in 0..steps {
        let t0 = Instant::now();
        sim.step();
        sim_elapsed += t0.elapsed();
        let t1 = Instant::now();
        monitor.observe(&sim, Celsius::new(24.0));
        monitor_elapsed += t1.elapsed();
    }

    // Fold every deterministic end-state bit: engine physics, traces,
    // delivered telemetry, fault counters, then the monitor's stats and
    // fleet roll-ups. Anything order-sensitive would change these bits.
    let mut fnv = Fnv::new();
    fnv.bits(sim.datacenter().room_heat_kw());
    for s in 0..SERVERS {
        let sid = ServerId::new(s);
        let server = sim.datacenter().server(sid).expect("server");
        fnv.bits(server.die_temperature());
        let trace = sim.trace(sid).expect("trace");
        for (t, v) in trace.sensor_c.iter() {
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
    let fleet_mse = monitor.fleet_mse();
    fnv.bits(fleet_mse);
    let rollup = monitor.fleet_pred_err();
    fnv.fold(rollup.count());
    fnv.bits(rollup.sum());
    fnv.bits(rollup.min());
    fnv.bits(rollup.max());
    for (q, est) in rollup.quantiles() {
        fnv.bits(q);
        fnv.bits(est);
    }

    let scored: usize = (0..SERVERS)
        .map(|s| monitor.stats(ServerId::new(s)).scored)
        .sum();
    FleetRow {
        threads,
        sim_secs: sim_elapsed.as_secs_f64(),
        monitor_secs: monitor_elapsed.as_secs_f64(),
        fingerprint: fnv.0,
        fleet_mse,
        scored,
    }
}

fn main() {
    let opts = parse_opts();
    let steps = if opts.check { CHECK_STEPS } else { STEPS };
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    eprintln!("training the stable model (tuned params, no grid search)...");
    let outcomes = training_campaign(30, 42);
    let model = train_stable_model(&outcomes, false);

    eprintln!("fleet: {SERVERS} servers x {steps} steps, host threads: {host_threads}");
    let mut rows = Vec::new();
    for &threads in &THREAD_CURVE {
        let row = fleet_run(&model, threads, steps);
        eprintln!(
            "threads {:>2}  engine {:>12.0} server-steps/s  monitor {:>12.0} updates/s  fp {:016x}",
            row.threads,
            row.server_steps_per_sec(steps),
            row.monitor_updates_per_sec(steps),
            row.fingerprint
        );
        rows.push(row);
    }
    let base = &rows[0];
    let identical = rows.iter().all(|r| r.fingerprint == base.fingerprint);

    let row_json: Vec<(&'static str, Json)> = rows
        .iter()
        .map(|row| {
            let key: &'static str = Box::leak(format!("threads_{}", row.threads).into_boxed_str());
            (
                key,
                Json::obj(vec![
                    ("threads", Json::Num(row.threads as f64)),
                    (
                        "server_steps_per_sec",
                        Json::Num(row.server_steps_per_sec(steps)),
                    ),
                    (
                        "monitor_updates_per_sec",
                        Json::Num(row.monitor_updates_per_sec(steps)),
                    ),
                    ("engine_speedup", Json::Num(base.sim_secs / row.sim_secs)),
                    (
                        "monitor_speedup",
                        Json::Num(base.monitor_secs / row.monitor_secs),
                    ),
                    (
                        "fingerprint",
                        Json::Str(format!("{:016x}", row.fingerprint)),
                    ),
                    ("fleet_mse", Json::Num(row.fleet_mse)),
                    ("scored", Json::Num(row.scored as f64)),
                ]),
            )
        })
        .collect();

    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        (
            "protocol",
            Json::obj(vec![
                ("servers", Json::Num(SERVERS as f64)),
                ("steps", Json::Num(steps as f64)),
                ("gap_secs", Json::Num(40.0)),
                ("shards_track_threads", Json::Bool(true)),
            ]),
        ),
        ("host_threads", Json::Num(host_threads as f64)),
        ("bit_identical", Json::Bool(identical)),
        ("runs", Json::obj(row_json)),
    ]);
    let mut text = doc.render_pretty();
    text.push('\n');
    json::parse(&text).expect("rendered BENCH_fleet.json must parse");
    if let Err(e) = std::fs::write(&opts.out, text) {
        eprintln!("failed to write {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", opts.out);

    if opts.check {
        let mut failures = Vec::new();

        // Bit-identity across the whole curve: holds on any host because
        // determinism is by construction, not by scheduling luck.
        if !identical {
            for row in &rows {
                failures.push(format!(
                    "threads {} fingerprint {:016x} (1-thread reference {:016x})",
                    row.threads, row.fingerprint, base.fingerprint
                ));
            }
        }
        // The monitor actually did fleet-scale work in every run.
        for row in &rows {
            if row.scored < SERVERS * 16 || !row.fleet_mse.is_finite() {
                failures.push(format!(
                    "threads {} scored only {} forecasts (mse {})",
                    row.threads, row.scored, row.fleet_mse
                ));
            }
        }

        if failures.is_empty() {
            eprintln!("fleet_bench --check OK (bit-identical across threads {THREAD_CURVE:?})");
            return;
        }
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    if !identical {
        eprintln!("FAIL: end states differ across thread counts");
        std::process::exit(1);
    }
}
