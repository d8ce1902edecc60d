//! The discrete-time simulation engine.
//!
//! A global clock ticks in one-second steps. Each tick applies the due
//! reconfiguration events the paper highlights — VM boots, stops and
//! live migrations, fan-speed changes — then advances per-server physics
//! and records each server's telemetry.
//!
//! Per-server physics runs through one loop for both [`ClockMode`]s,
//! fed by one wake table: a tick's batch is the servers whose wake-up is
//! due, each over the interval since it last advanced. The Fixed clock
//! re-arms every server one step ahead, so its batch is the whole fleet
//! over one step; the Event clock lets steady servers sleep. The whole
//! batch steps on the calling thread. Every server step, including the
//! catch-up that settles a sleeping server before an event touches it,
//! runs through one body: `Batch::step` integrates its batch a chunk
//! at a time, running the chunk's thermal networks side by side
//! (`thermal::integrate`), then records each server's five trace
//! channels and passes the reading through the fault channel.

use crate::datacenter::{AmbientOffsets, Datacenter};
use crate::environment::AmbientModel;
use crate::error::SimError;
use crate::fan::FanSpeed;
use crate::fault::{FaultInjector, FaultPlan, FaultStats, ServerFaultState};
use crate::migration::{ActiveMigration, MigrationConfig};
use crate::server::{Server, ServerId};
use crate::telemetry::{ServerTrace, StableMeans, TraceColumns};
use crate::thermal::{self, Integration};
use crate::time::{SimDuration, SimTime};
use crate::vm::{Vm, VmId, VmSpec, VmState};
use std::collections::VecDeque;
use vmtherm_obs::{self as obs, names};
use vmtherm_units::{Celsius, Seconds, Watts};

/// Engine instrumentation; each handle is one relaxed-load branch when the
/// observability layer is disabled.
static OBS_STEPS: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_ENGINE_STEPS);
static OBS_EVENTS: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_ENGINE_EVENTS);
static OBS_STEP_NS: obs::LazyHistogram =
    obs::LazyHistogram::new(names::METRIC_ENGINE_STEP_NS, obs::Histogram::ns_buckets);

/// A reconfiguration applied at a scheduled time.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// Boot a new VM on a server.
    BootVm {
        /// Target host.
        server: ServerId,
        /// VM to create.
        spec: VmSpec,
    },
    /// Stop (destroy) a VM wherever it runs.
    StopVm(VmId),
    /// Live-migrate a VM to a destination server.
    MigrateVm {
        /// VM to move.
        vm: VmId,
        /// Destination host.
        dest: ServerId,
    },
    /// Change a server's fan speed level.
    SetFanSpeed {
        /// Target server.
        server: ServerId,
        /// New level.
        speed: FanSpeed,
    },
    /// Replace the room's ambient model.
    SetAmbient(AmbientModel),
    /// Inject a fan failure on a server (`count` more fans stop).
    FailFans {
        /// Target server.
        server: ServerId,
        /// Additional fans to fail.
        count: u32,
    },
}

/// Whether steady servers may sleep. Both modes take each tick's batch
/// from the same wake table and step it through the same per-server
/// loop; they differ only in how long a stepped server waits for its
/// next wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ClockMode {
    /// Every server integrates every tick over one step — the original
    /// dense behaviour and the bit-identical reference. Every server is
    /// due again one step ahead, so the batch is always the whole fleet.
    #[default]
    Fixed,
    /// Multi-rate: the batch is the servers whose wake-up is due, each
    /// over the interval since its physics last advanced. Servers whose
    /// physics inputs are provably constant between reconfiguration
    /// events and whose thermal state sits inside a steady-state band
    /// (|dT/dt| below 0.01 °C/s) sleep across ticks, integrating the
    /// accumulated interval in one step-size-exact call at their next
    /// wake-up.
    /// Physical end states stay bit-identical to [`ClockMode::Fixed`];
    /// only telemetry density (and therefore sensor/fault RNG
    /// consumption) differs.
    Event,
}

/// The simulation step: every tick advances the clock by one second.
const STEP: SimDuration = SimDuration::from_secs(1);

/// Event mode lets a server sleep only while its largest node temperature
/// rate |dT/dt| (°C/s) is below this band. Skipping is numerically exact
/// regardless (constant inputs are a separate precondition); the band's
/// job is to keep telemetry dense through thermal transients so
/// downstream consumers still see warm-up curves at full resolution.
const WAKE_BAND_C_PER_S: f64 = 0.01;

/// Longest event-mode sleep. Wake intervals double from [`STEP`] up to
/// this cap, which stays below the monitor's staleness threshold (30 s,
/// `STALENESS_SECS` in `vmtherm_core::monitor`) so a sparse-but-healthy
/// stream is never mistaken for an outage.
const MAX_SKIP: SimDuration = SimDuration::from_secs(16);

/// Physics work counters: integrations that actually ran vs. what an
/// equivalent dense fixed-step run would have done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepStats {
    /// Server steps performed (dense steps, wake-ups and event-mode
    /// catch-up settles).
    pub server_steps: u64,
    /// Server-steps a fixed-step run over the same span would perform
    /// (ticks × fleet size).
    pub dense_server_steps: u64,
}

impl StepStats {
    /// Dense-to-actual ratio: 1.0 when nothing was skipped, ≥ 1
    /// otherwise.
    #[must_use]
    pub fn skip_factor(&self) -> f64 {
        if self.server_steps == 0 {
            return 1.0;
        }
        self.dense_server_steps as f64 / self.server_steps as f64
    }
}

/// Everything the engine keeps for one server beside the [`Server`]
/// itself: what it recorded, what the monitoring plane received, and
/// its entry in the wake table.
#[derive(Debug)]
struct Slot {
    /// Next wake tick: the server is due at every tick `now` with
    /// `next_wake <= now`, and waking re-arms it past `now`.
    next_wake: SimTime,
    /// Time through which the server's physics has been integrated.
    last_end: SimTime,
    /// Current wake interval (doubles while sleeping is safe, resets to
    /// the base step on any transient).
    interval: SimDuration,
    /// The five trace channels beside one time column.
    trace: TraceColumns,
    /// Eq. (1) folds that replace the trace, once a crate-internal caller
    /// installs them ([`Simulation::fold_stable_means`]).
    stable: Option<StableMeans>,
    /// Fault channel state while a non-noop plan is installed.
    fault: Option<ServerFaultState>,
    /// `(time_secs, reading_c)` samples as the monitoring plane received
    /// them — possibly dropped, corrupted or re-timestamped. Appended
    /// only while a plan is installed; clean runs read the trace.
    delivered: Vec<(f64, f64)>,
}

impl Slot {
    /// The slot of a server that joins at `now`: integrated through
    /// `now`, due this tick, with a one-step interval.
    fn new(now: SimTime, fault: Option<ServerFaultState>) -> Self {
        Slot {
            next_wake: now,
            last_end: now,
            interval: STEP,
            trace: TraceColumns::default(),
            stable: None,
            fault,
            delivered: Vec::new(),
        }
    }

    /// The interval (seconds) the server integrates to reach `end`, from
    /// the end of its last one; `end` becomes the new last end.
    fn advance_to(&mut self, end: SimTime) -> f64 {
        let elapsed = end.duration_since(self.last_end).as_secs_f64();
        self.last_end = end;
        elapsed
    }
}

/// The wake table's fleet-wide parts; each server's own entry lives in
/// its [`Slot`].
#[derive(Debug, Default)]
struct WakeState {
    /// Sorted tick instants adjacent to the installed plan's scheduled
    /// fault-window edges; sleep never crosses one, so sparse delivery
    /// still resolves them.
    fault_wakes: Vec<SimTime>,
    /// This tick's woken servers in ascending index order, reused across
    /// ticks.
    due: Vec<usize>,
    /// A catch-up settle recorded a sample after the last step, so `due`
    /// no longer names every server that recorded since that step began
    /// ([`Simulation::recorded_since`]). Each step clears it: its own
    /// catch-ups woke their servers into its batch.
    settled_after_step: bool,
}

/// A notification the engine emits when something happened, for observers
/// (the dynamic predictor re-anchors on these).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimEvent {
    /// A VM booted.
    VmBooted {
        /// The new VM.
        vm: VmId,
        /// Its host.
        server: ServerId,
    },
    /// A VM stopped.
    VmStopped {
        /// The stopped VM.
        vm: VmId,
        /// The host it ran on.
        server: ServerId,
    },
    /// A migration began (pre-copy start).
    MigrationStarted {
        /// The moving VM.
        vm: VmId,
        /// Source host.
        source: ServerId,
        /// Destination host.
        dest: ServerId,
    },
    /// A migration cut over; the VM now runs on `dest`.
    MigrationCompleted {
        /// The moved VM.
        vm: VmId,
        /// Former host.
        source: ServerId,
        /// New host.
        dest: ServerId,
    },
    /// A scheduled event failed to apply (e.g. placement rejected).
    EventFailed {
        /// Why it failed.
        error: SimError,
    },
}

/// The simulation: datacenter + environment + clock + events.
#[derive(Debug)]
pub struct Simulation {
    datacenter: Datacenter,
    ambient: AmbientModel,
    clock: SimTime,
    /// Pending reconfigurations in time order; equal times keep their
    /// schedule order.
    events: VecDeque<(SimTime, Event)>,
    next_vm: u64,
    migrations: Vec<ActiveMigration>,
    /// One per server, by stable server index. A server added through
    /// [`Simulation::datacenter_mut`] gets its slot at the next step or
    /// settle ([`Simulation::grow_slots`]).
    slots: Vec<Slot>,
    log: Vec<(SimTime, SimEvent)>,
    /// Parallel to `log`: `true` when the fault injector decided the
    /// monitoring plane never heard about that entry.
    log_lost: Vec<bool>,
    seed: u64,
    room_heat_kw: f64,
    /// Telemetry path faults, if a non-noop plan was installed; each
    /// server's channel state lives in its slot.
    fault: Option<FaultInjector>,
    /// How servers are re-armed (every step, or sleeping while steady).
    clock_mode: ClockMode,
    wake: WakeState,
    /// Physics integrations actually performed.
    server_steps: u64,
    /// Integrations an all-dense run would have performed.
    dense_server_steps: u64,
}

/// Step latency is sampled on the last tick of every this many (ticks
/// 63, 127, …), so the hot loop pays two clock reads only on one tick in
/// 64. The first tick of each 64 would time tick 0's one-off costs and
/// every doubling of a dense trace column (at 64, 128, 256, … samples).
const OBS_TIME_EVERY: u64 = 64;

impl Simulation {
    /// Wraps a datacenter with a room model. `seed` drives VM workload
    /// decorrelation.
    #[must_use]
    pub fn new(datacenter: Datacenter, ambient: AmbientModel, seed: u64) -> Self {
        let slots = (0..datacenter.len())
            .map(|_| Slot::new(SimTime::ZERO, None))
            .collect();
        Simulation {
            datacenter,
            ambient,
            clock: SimTime::ZERO,
            events: VecDeque::new(),
            next_vm: 0,
            migrations: Vec::new(),
            slots,
            log: Vec::new(),
            log_lost: Vec::new(),
            seed,
            room_heat_kw: 0.0,
            fault: None,
            clock_mode: ClockMode::Fixed,
            wake: WakeState::default(),
            server_steps: 0,
            dense_server_steps: 0,
        }
    }

    /// Selects the clock mode (builder form of
    /// [`Simulation::set_clock_mode`]).
    #[must_use]
    pub fn with_clock(mut self, mode: ClockMode) -> Self {
        self.set_clock_mode(mode);
        self
    }

    /// Switches how per-server physics advances. A switch first settles
    /// every sleeping server up to the current clock, so the hand-over
    /// state is exactly what dense stepping would hold.
    pub fn set_clock_mode(&mut self, mode: ClockMode) {
        if mode != self.clock_mode {
            self.settle_all();
        }
        self.clock_mode = mode;
    }

    /// The active clock mode.
    #[must_use]
    pub fn clock_mode(&self) -> ClockMode {
        self.clock_mode
    }

    /// Physics work counters so far (both clock modes): integrations
    /// performed vs. the dense fixed-step equivalent. Event mode's win
    /// is [`StepStats::skip_factor`].
    #[must_use]
    pub fn step_stats(&self) -> StepStats {
        StepStats {
            server_steps: self.server_steps,
            dense_server_steps: self.dense_server_steps,
        }
    }

    /// Has no effect: every tick steps on the calling thread. Kept only
    /// so the frozen vmbench sources build until they are next changed
    /// (ROADMAP item 1); nothing in the workspace calls it.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Has no effect: every tick steps its whole batch at once. Kept
    /// only so the frozen vmbench sources build until they are next
    /// changed (ROADMAP item 1); nothing in the workspace calls it.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// Installs a telemetry fault plan. A no-op plan removes the injector
    /// entirely, so disabled faults are bit-identical to a clean run.
    ///
    /// The swap restarts the fault counts: [`Simulation::fault_stats`]
    /// reads zero right after it and counts only the new plan's faults.
    /// The delivery streams are not reset: [`Simulation::delivered`] keeps
    /// every sample the earlier plans delivered, so across a swap the
    /// counts no longer reconcile with the streams.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an out-of-domain plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.validate()?;
        // Catch sleepers up under the old plan, then swap. The new plan's
        // scheduled window edges pin extra wake-ups.
        self.settle_all();
        self.wake.fault_wakes = fault_wake_ticks(&plan);
        self.fault = (!plan.is_noop()).then(|| FaultInjector::new(plan));
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            slot.fault = self.fault.as_ref().map(|f| f.server_state(idx));
        }
        Ok(())
    }

    /// The faulted delivery stream for a server: `(time_secs, reading_c)`
    /// pairs as monitoring received them. `None` when no fault plan is
    /// installed — consumers then read the clean traces.
    #[must_use]
    pub fn delivered(&self, server: ServerId) -> Option<&[(f64, f64)]> {
        self.fault.as_ref()?;
        self.slots
            .get(server.raw())
            .map(|slot| slot.delivered.as_slice())
    }

    /// Whether the log entry at `index` was lost to the monitoring plane.
    #[must_use]
    pub fn log_entry_lost(&self, index: usize) -> bool {
        self.log_lost.get(index).copied().unwrap_or(false)
    }

    /// Fault-injection counts of the installed plan since
    /// [`Simulation::set_fault_plan`] installed it (zeros without a plan).
    /// Each swap restarts them, while [`Simulation::delivered`] keeps the
    /// samples of earlier plans.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        let Some(injector) = self.fault.as_ref() else {
            return FaultStats::default();
        };
        let mut total = FaultStats {
            events_lost: injector.events_lost(),
            ..FaultStats::default()
        };
        for state in self.slots.iter().filter_map(|slot| slot.fault.as_ref()) {
            total.add(state.stats());
        }
        total
    }

    /// Appends a log entry, asking the injector (when installed) whether
    /// reconfiguration notifications reach the monitoring plane.
    fn push_log(&mut self, at: SimTime, event: SimEvent) {
        let can_be_lost = matches!(
            event,
            SimEvent::VmBooted { .. }
                | SimEvent::VmStopped { .. }
                | SimEvent::MigrationStarted { .. }
                | SimEvent::MigrationCompleted { .. }
        );
        let lost = match (&mut self.fault, can_be_lost) {
            (Some(injector), true) => injector.event_lost(),
            _ => false,
        };
        self.log.push((at, event));
        self.log_lost.push(lost);
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The datacenter (read-only).
    #[must_use]
    pub fn datacenter(&self) -> &Datacenter {
        &self.datacenter
    }

    /// Mutable datacenter access for setup before running.
    pub fn datacenter_mut(&mut self) -> &mut Datacenter {
        &mut self.datacenter
    }

    /// Schedules an event. Events apply in time order at the first step
    /// whose start is at or after their time, and events with equal times
    /// in the order they were scheduled; one dated before [`Self::now`]
    /// applies at the next step.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let index = self.events.partition_point(|(t, _)| *t <= at);
        self.events.insert(index, (at, event));
    }

    /// Boots a VM immediately, returning its id.
    ///
    /// # Errors
    ///
    /// Placement errors from [`crate::server::Server::boot_vm`].
    pub fn boot_vm_now(&mut self, server: ServerId, spec: VmSpec) -> Result<VmId, SimError> {
        let ordinal = self.next_vm;
        self.boot_vm_as(server, spec, self.seed, ordinal)
    }

    /// Boots a VM now with the workload stream that VM number `ordinal`
    /// of a simulation seeded `seed` gets from [`Simulation::boot_vm_now`],
    /// whatever id it receives here. Campaign groups use it to give each
    /// experiment's VMs their standalone streams.
    pub(crate) fn boot_vm_as(
        &mut self,
        server: ServerId,
        spec: VmSpec,
        seed: u64,
        ordinal: u64,
    ) -> Result<VmId, SimError> {
        self.settle_and_wake(server.raw());
        let id = VmId::new(self.next_vm);
        self.next_vm += 1;
        // `Vm::new` folds the id into the seed, so fold the standalone id
        // in and this one out.
        let vm = Vm::new(
            id,
            spec,
            seed ^ ordinal.wrapping_mul(0x9e37) ^ ordinal ^ id.raw(),
        );
        self.datacenter.server_mut(server)?.boot_vm(vm)?;
        self.push_log(self.clock, SimEvent::VmBooted { vm: id, server });
        Ok(id)
    }

    /// From the next step on, folds each server's Eq. (1) means (its
    /// sensor and die samples at or after `from[i]`) instead of recording
    /// its trace. Covers the servers present now; call it after the last
    /// `add_server`.
    pub(crate) fn fold_stable_means(&mut self, from: impl IntoIterator<Item = SimTime>) {
        self.grow_slots();
        for (slot, from) in self.slots.iter_mut().zip(from) {
            slot.stable = Some(StableMeans::after(from));
        }
    }

    /// The folds [`Simulation::fold_stable_means`] installed, by server
    /// index, leaving the traces recording again.
    pub(crate) fn take_stable_means(&mut self) -> Vec<StableMeans> {
        self.slots
            .iter_mut()
            .filter_map(|slot| slot.stable.take())
            .collect()
    }

    /// Telemetry trace of a server: its five channels, borrowed over one
    /// shared time column.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an out-of-range id.
    // Inline: the monitor reads one channel per server per tick, and out
    // of line the call built all five views each time (+6% `op_s` on
    // vmbench `fleet-idle-event`, 2-vCPU host).
    #[inline]
    pub fn trace(&self, server: ServerId) -> Result<ServerTrace<'_>, SimError> {
        self.slots
            .get(server.raw())
            .map(|slot| slot.trace.view())
            .ok_or(SimError::UnknownServer(server))
    }

    /// The heap bytes every server's trace store holds: each stored
    /// column's capacity times its element size, summed. Counted from the
    /// stores, so exact where a process's RSS is not.
    #[must_use]
    pub fn trace_heap_bytes(&self) -> usize {
        self.slots.iter().map(|slot| slot.trace.heap_bytes()).sum()
    }

    /// The event log: everything that happened, in order.
    #[must_use]
    pub fn log(&self) -> &[(SimTime, SimEvent)] {
        &self.log
    }

    /// Advances the simulation by one step.
    pub fn step(&mut self) {
        // Every step is counted; only every 64th tick is timed, so the hot
        // loop stays within the <3% overhead budget.
        let _step_timer = if obs::enabled() {
            OBS_STEPS.inc();
            let tick = self.clock.as_millis() / STEP.as_millis();
            (tick % OBS_TIME_EVERY == OBS_TIME_EVERY - 1).then(|| OBS_STEP_NS.start_timer())
        } else {
            None
        };

        self.grow_slots();

        // 1. Apply due events.
        while let Some((_, event)) = self.events.pop_front_if(|(at, _)| *at <= self.clock) {
            self.apply_event(event);
        }

        // 2. Complete due migrations. Both endpoints settle first so the
        //    overhead removal and cut-over mutate exact dense-mode state.
        let now = self.clock;
        let done: Vec<ActiveMigration> = self
            .migrations
            .iter()
            .copied()
            .filter(|m| m.is_complete(now))
            .collect();
        self.migrations.retain(|m| !m.is_complete(now));
        for m in done {
            self.settle_and_wake(m.source.raw());
            self.settle_and_wake(m.dest.raw());
            self.finish_migration(m);
        }

        // 3. Ambient from last step's heat load (one-step lag keeps this
        //    explicit and stable).
        let ambient = self
            .ambient
            .temperature(self.clock, Watts::from_kilowatts(self.room_heat_kw));

        // 4. Step the physics and record. Each server sees the room
        //    ambient plus its rack's offset (top-of-rack recirculation).
        self.dense_server_steps += self.datacenter.len() as u64;
        self.step_servers(now, ambient);
        self.room_heat_kw = self.datacenter.room_heat_kw();
        self.wake.settled_after_step = false;

        self.clock += STEP;
    }

    /// The servers that may have recorded a sample since the clock read
    /// `since`, in ascending index order, when the engine can name them:
    /// exactly one step ran since then, and no catch-up settle recorded
    /// after it. The answer is that step's woken batch, which also holds
    /// every server a catch-up settled before or during the step (a
    /// settle wakes its server that tick). `None` means any server may
    /// have recorded: after no step or several, or after a catch-up
    /// outside a step, such as [`Simulation::run_until`]'s final settle
    /// or a clock switch.
    #[must_use]
    pub fn recorded_since(&self, since: SimTime) -> Option<&[usize]> {
        (since + STEP == self.clock && !self.wake.settled_after_step).then_some(&self.wake.due[..])
    }

    /// Gives every server the caller may have added to the datacenter
    /// since the last step a slot: due now, and with a fault channel
    /// state when a plan is installed.
    fn grow_slots(&mut self) {
        while self.slots.len() < self.datacenter.len() {
            let fault = self
                .fault
                .as_ref()
                .map(|f| f.server_state(self.slots.len()));
            self.slots.push(Slot::new(self.clock, fault));
        }
    }

    /// The per-server physics phase of one tick, for both clock modes.
    ///
    /// The batch is the servers due in the wake table
    /// ([`Simulation::drain_wakes`]), each over the interval since its
    /// physics last advanced: on the Fixed clock every server over one
    /// step. One [`Batch::step`] call steps the whole batch, on the
    /// calling thread. Then [`Simulation::rearm_wakes`] lets the steady
    /// ones sleep.
    fn step_servers(&mut self, now: SimTime, ambient: f64) {
        self.drain_wakes(now);
        let due = &self.wake.due[..];
        self.server_steps += due.len() as u64;
        let (servers, offsets) = self.datacenter.servers_and_offsets_mut();
        let batch = Batch {
            start: 0,
            servers,
            slots: &mut self.slots[..],
            due,
        };
        batch.step(
            self.fault.as_ref().map(FaultInjector::plan),
            offsets,
            ambient,
            now,
            now + STEP,
        );
        self.rearm_wakes(now, ambient);
    }

    /// Collects the servers due at `now` into the reused `due` buffer (a
    /// scan of the slots, so ascending server index) and re-arms each one
    /// step ahead. Each integrates from the end of its last physics
    /// interval through the end of this tick ([`Slot::advance_to`], in
    /// [`Batch::step`]).
    fn drain_wakes(&mut self, now: SimTime) {
        let next = now + STEP;
        let due = &mut self.wake.due;
        due.clear();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.next_wake <= now {
                due.push(idx);
                slot.next_wake = next;
            }
        }
    }

    /// The sleep decision for the servers woken this tick, serially in
    /// index order. On the Fixed clock, or under a time-varying ambient,
    /// nothing sleeps: every woken server stays re-armed one step ahead,
    /// and its interval is already one step (a slot starts at one step,
    /// and a clock switch or an ambient change settles every server,
    /// which resets it). On the Event clock a server's interval doubles
    /// while it is provably steady and falls back to one step on any
    /// transient, and it never sleeps across a pinned fault-edge tick.
    fn rearm_wakes(&mut self, now: SimTime, ambient: f64) {
        if self.clock_mode != ClockMode::Event || !matches!(self.ambient, AmbientModel::Fixed(_)) {
            return;
        }
        for &idx in &self.wake.due {
            let id = ServerId::new(idx);
            let sparse_ok = self.datacenter.server(id).is_ok_and(|s| {
                let offset = self.datacenter.ambient_offset(id).unwrap_or(0.0);
                s.inputs_piecewise_constant()
                    && s.thermal_rate_c_per_s(Celsius::new(ambient + offset)) < WAKE_BAND_C_PER_S
            });
            let slot = &mut self.slots[idx];
            slot.interval = if sparse_ok {
                SimDuration::from_millis(
                    slot.interval
                        .as_millis()
                        .saturating_mul(2)
                        .min(MAX_SKIP.as_millis()),
                )
            } else {
                STEP
            };
            let mut at = now + slot.interval;
            let fault_wakes = &self.wake.fault_wakes;
            if let Some(&boundary) = fault_wakes.get(fault_wakes.partition_point(|t| *t <= now)) {
                if boundary < at {
                    at = boundary.max(now + STEP);
                }
            }
            slot.next_wake = at;
        }
    }

    /// Integrates any sleeping server the event is about to touch up to
    /// the current clock, so the mutation applies to exact dense-mode
    /// state.
    fn settle_for(&mut self, event: &Event) {
        match event {
            Event::BootVm { server, .. }
            | Event::SetFanSpeed { server, .. }
            | Event::FailFans { server, .. } => self.settle_and_wake(server.raw()),
            Event::StopVm(vm) => {
                if let Some(host) = self.datacenter.locate_vm(*vm) {
                    self.settle_and_wake(host.raw());
                }
            }
            Event::MigrateVm { vm, dest } => {
                if let Some(source) = self.datacenter.locate_vm(*vm) {
                    self.settle_and_wake(source.raw());
                }
                self.settle_and_wake(dest.raw());
            }
            // The ambient feeds every server's boundary condition.
            Event::SetAmbient(_) => {
                #[cfg(test)]
                if planted::skip_ambient_settle() {
                    return;
                }
                self.settle_all();
            }
        }
    }

    /// Catch-up for one server: integrate from the end of its last
    /// physics interval to the current clock with its (still constant)
    /// pre-transient inputs, record the catch-up sample, then re-densify
    /// it: reset its interval to the base step and pull its wake-up
    /// forward to this tick. A server that is already current (every
    /// server on the Fixed clock) only re-arms, which changes nothing
    /// there.
    ///
    /// The catch-up sample lands at `clock - dt`: fixed-mode stepping at
    /// tick `t` records the state reached through `t + dt` under the
    /// timestamp `t`, so the interval ending at the current tick belongs
    /// to the previous one — the current tick's own step (the server is
    /// awake now) records at `clock` as usual, keeping timestamps
    /// strictly monotone.
    fn settle_and_wake(&mut self, idx: usize) {
        self.grow_slots();
        let now = self.clock;
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if slot.last_end < now {
            // Sleeping requires a fixed ambient, so the query instant is
            // immaterial.
            let ambient = self
                .ambient
                .temperature(now, Watts::from_kilowatts(self.room_heat_kw));
            let (servers, offsets) = self.datacenter.servers_and_offsets_mut();
            let job = Batch {
                start: idx,
                servers: std::slice::from_mut(&mut servers[idx]),
                slots: std::slice::from_mut(slot),
                due: std::slice::from_ref(&idx),
            };
            job.step(
                self.fault.as_ref().map(FaultInjector::plan),
                offsets,
                ambient,
                now - STEP,
                now,
            );
            self.server_steps += 1;
            self.wake.settled_after_step = true;
        }
        slot.interval = STEP;
        slot.next_wake = slot.next_wake.min(now);
    }

    /// Catches every sleeping server up to the current clock.
    fn settle_all(&mut self) {
        for idx in 0..self.datacenter.len() {
            self.settle_and_wake(idx);
        }
    }

    /// Runs until the clock reaches `t` (inclusive of steps starting
    /// before `t`).
    pub fn run_until(&mut self, t: SimTime) {
        let _span = obs::span(names::SPAN_ENGINE_RUN);
        while self.clock < t {
            self.step();
        }
        // Flush sleepers so the fleet state at `t` is exactly what dense
        // stepping would hold.
        self.settle_all();
    }

    /// Runs for a further duration.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.clock + d;
        self.run_until(target);
    }

    fn apply_event(&mut self, event: Event) {
        OBS_EVENTS.inc();
        let outcome = self.try_apply(event);
        if let Err(error) = outcome {
            self.push_log(self.clock, SimEvent::EventFailed { error });
        }
    }

    fn try_apply(&mut self, event: Event) -> Result<(), SimError> {
        self.settle_for(&event);
        match event {
            Event::BootVm { server, spec } => {
                self.boot_vm_now(server, spec)?;
            }
            Event::StopVm(vm) => {
                let host = self
                    .datacenter
                    .locate_vm(vm)
                    .ok_or(SimError::UnknownVm(vm))?;
                let mut taken = self
                    .datacenter
                    .server_mut(host)?
                    .take_vm(vm)
                    .ok_or(SimError::UnknownVm(vm))?;
                taken.set_state(VmState::Stopped);
                self.push_log(self.clock, SimEvent::VmStopped { vm, server: host });
            }
            Event::MigrateVm { vm, dest } => {
                let source = self
                    .datacenter
                    .locate_vm(vm)
                    .ok_or(SimError::UnknownVm(vm))?;
                if source == dest {
                    return Err(SimError::SameServer(dest));
                }
                if self.migrations.iter().any(|m| m.vm == vm) {
                    return Err(SimError::AlreadyMigrating(vm));
                }
                // Destination must have the memory *now*; reserve by check.
                let memory_gb = {
                    let server = self.datacenter.server(source)?;
                    let v = server
                        .vms()
                        .iter()
                        .find(|v| v.id() == vm)
                        .ok_or(SimError::UnknownVm(vm))?;
                    v.spec().memory_gb()
                };
                {
                    let dest_server = self.datacenter.server(dest)?;
                    let used: f64 = dest_server.vms().iter().map(|v| v.spec().memory_gb()).sum();
                    if used + memory_gb > dest_server.spec().memory_gb() {
                        return Err(SimError::InsufficientMemory {
                            server: dest,
                            requested_gb: memory_gb,
                            available_gb: dest_server.spec().memory_gb() - used,
                        });
                    }
                }
                let config = MigrationConfig::default();
                let duration = config.duration_for(memory_gb);
                self.migrations.push(ActiveMigration {
                    vm,
                    source,
                    dest,
                    started: self.clock,
                    duration,
                });
                // Mark the VM and load both hosts.
                let src = self.datacenter.server_mut(source)?;
                if let Some(v) = src.vms_mut().iter_mut().find(|v| v.id() == vm) {
                    v.set_state(VmState::Migrating);
                }
                src.add_migration_overhead(config.source_overhead_vcpus);
                self.datacenter
                    .server_mut(dest)?
                    .add_migration_overhead(config.dest_overhead_vcpus);
                self.push_log(self.clock, SimEvent::MigrationStarted { vm, source, dest });
            }
            Event::SetFanSpeed { server, speed } => {
                self.datacenter.server_mut(server)?.set_fan_speed(speed);
            }
            Event::SetAmbient(model) => {
                self.ambient = model;
            }
            Event::FailFans { server, count } => {
                self.datacenter.server_mut(server)?.fail_fans(count);
            }
        }
        Ok(())
    }

    fn finish_migration(&mut self, m: ActiveMigration) {
        // Remove overheads whether or not the cut-over succeeds.
        let config = MigrationConfig::default();
        if let Ok(src) = self.datacenter.server_mut(m.source) {
            src.add_migration_overhead(-config.source_overhead_vcpus);
        }
        if let Ok(dst) = self.datacenter.server_mut(m.dest) {
            dst.add_migration_overhead(-config.dest_overhead_vcpus);
        }
        let vm = match self.datacenter.server_mut(m.source) {
            Ok(src) => src.take_vm(m.vm),
            Err(_) => None,
        };
        if let Some(mut vm) = vm {
            vm.set_state(VmState::Running);
            match self
                .datacenter
                .server_mut(m.dest)
                .and_then(|d| d.boot_vm(vm))
            {
                Ok(()) => {
                    self.push_log(
                        self.clock,
                        SimEvent::MigrationCompleted {
                            vm: m.vm,
                            source: m.source,
                            dest: m.dest,
                        },
                    );
                }
                Err(error) => {
                    self.push_log(self.clock, SimEvent::EventFailed { error });
                }
            }
        }
    }
}

/// One physics batch: exclusive slices of a contiguous server range and
/// its slots, beginning at stable server index `start`, and the due
/// servers inside it. A tick's batch spans the whole fleet; a catch-up
/// settle's spans its one server.
struct Batch<'a> {
    start: usize,
    servers: &'a mut [Server],
    slots: &'a mut [Slot],
    /// The batched servers, by ascending stable index.
    due: &'a [usize],
}

impl Batch<'_> {
    /// The one server step body, for every tick's batch and for
    /// event-mode catch-up settles (a one-server batch). Each due server
    /// integrates from the end of its last interval through `end`
    /// ([`Slot::advance_to`]) under the room `ambient` plus its rack
    /// offset, with demand queried at `at`, and is [`record`]ed at `at`.
    /// The batch goes a chunk of [`CHUNK`] at a time: begin each server's
    /// step, integrate the chunk's thermal plans side by side, end each
    /// step, then record each server in index order.
    fn step(
        self,
        faults: Option<&FaultPlan>,
        offsets: AmbientOffsets<'_>,
        ambient: f64,
        at: SimTime,
        end: SimTime,
    ) {
        let mut plans = [Integration::default(); CHUNK];
        for due in self.due.chunks(CHUNK) {
            let plans = &mut plans[..due.len()];
            for (plan, &idx) in plans.iter_mut().zip(due) {
                let local = idx - self.start;
                let elapsed_secs = self.slots[local].advance_to(end);
                *plan = self.servers[local].begin_step(
                    at,
                    Celsius::new(ambient + offsets.get(idx)),
                    Seconds::new(elapsed_secs),
                );
            }
            thermal::integrate(plans);
            for (plan, &idx) in plans.iter().zip(due) {
                self.servers[idx - self.start].end_step(*plan);
            }
            for &idx in due {
                let local = idx - self.start;
                record(
                    &mut self.servers[local],
                    &mut self.slots[local],
                    faults,
                    at,
                    ambient + offsets.get(idx),
                );
            }
        }
    }
}

/// Servers a batch begins, integrates together and records per pass:
/// two groups of [`thermal::LANES`], so the integration runs full lane
/// groups while the plans stay a small stack array. Campaigns group
/// experiments by the same count
/// ([`run_experiments_threaded`](crate::experiment::run_experiments_threaded)).
pub(crate) const CHUNK: usize = 2 * thermal::LANES;

/// The recording half of a server step: read the sensor, record the
/// five trace channels at `at` as one sample of the slot's columns (or
/// fold the sensor and die samples into the Eq. (1) means), and pass the
/// reading through the fault channel when a plan is installed. The
/// sensor is read either way, so its noise stream does not depend on the
/// sink.
#[inline(always)]
fn record(
    server: &mut Server,
    slot: &mut Slot,
    plan: Option<&FaultPlan>,
    at: SimTime,
    local_ambient: f64,
) {
    let reading = server.read_sensor();
    match slot.stable.as_mut() {
        Some(means) => {
            let t = at.as_secs_f64();
            means.sensor_c.push(t, reading);
            means.die_c.push(t, server.die_temperature());
        }
        None => {
            let recorded = slot.trace.push(
                at,
                [
                    reading,
                    server.die_temperature(),
                    server.last_utilization(),
                    server.last_power(),
                    local_ambient,
                ],
            );
            // The engine clock is monotone, so recording cannot go
            // backwards.
            debug_assert!(recorded.is_ok(), "engine clock regressed: {recorded:?}");
        }
    }
    // The trace above is ground truth; the monitoring plane sees the
    // reading only after the fault channels have had their say.
    if let (Some(plan), Some(state)) = (plan, slot.fault.as_mut()) {
        if let Some((t, v)) = state.deliver(
            plan,
            server.id().raw(),
            Seconds::new(at.as_secs_f64()),
            Celsius::new(reading),
        ) {
            slot.delivered.push((t.get(), v.get()));
        }
    }
}

/// Converts a plan's scheduled fault boundaries (seconds) into the tick
/// instants an event-mode server must be awake for: the first tick at or
/// after each boundary **and** the tick just before it, so the delivered
/// stream still shows the last pre-window sample and the first post-window
/// sample at dense-comparable gaps around every scheduled edge.
fn fault_wake_ticks(plan: &FaultPlan) -> Vec<SimTime> {
    let step_ms = STEP.as_millis();
    let mut ticks = Vec::new();
    for boundary in plan.scheduled_boundaries() {
        if !boundary.is_finite() || boundary < 0.0 {
            continue;
        }
        let boundary_ms = (boundary * 1000.0).ceil() as u64;
        let first_at = boundary_ms.div_ceil(step_ms) * step_ms;
        ticks.push(SimTime::from_millis(first_at));
        if first_at >= step_ms {
            ticks.push(SimTime::from_millis(first_at - step_ms));
        }
    }
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// Test-only planted defect used to prove the scenario fuzzer can catch
/// real settle-protocol bugs: when armed, [`Simulation`] skips the
/// settle-before-mutation pass on ambient swaps, so sleeping servers
/// later integrate their entire skipped span under the *new* ambient —
/// exactly the class of bug the event clock's catch-up protocol exists
/// to prevent. Thread-local because `settle_for` only ever runs on the
/// engine's calling thread, and
/// test binaries run tests on many threads at once.
#[cfg(test)]
pub(crate) mod planted {
    use std::cell::Cell;

    thread_local! {
        static SKIP_AMBIENT_SETTLE: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms or disarms the defect on the current thread.
    pub(crate) fn set_skip_ambient_settle(on: bool) {
        SKIP_AMBIENT_SETTLE.with(|flag| flag.set(on));
    }

    /// Whether the defect is armed on the current thread.
    pub(crate) fn skip_ambient_settle() -> bool {
        SKIP_AMBIENT_SETTLE.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerSpec;
    use crate::telemetry::Series;
    use crate::workload::TaskProfile;

    fn two_server_sim() -> Simulation {
        let mut dc = Datacenter::new();
        dc.add_server(ServerSpec::standard("a"), Celsius::new(25.0), 1);
        dc.add_server(ServerSpec::standard("b"), Celsius::new(25.0), 2);
        Simulation::new(dc, AmbientModel::Fixed(25.0), 7)
    }

    fn spec(vcpus: u32, mem: f64) -> VmSpec {
        VmSpec::new("t", vcpus, mem, TaskProfile::CpuBound)
    }

    #[test]
    fn clock_advances_by_dt() {
        let mut sim = two_server_sim();
        sim.step();
        assert_eq!(sim.now(), SimTime::from_secs(1));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(15));
    }

    #[test]
    fn boot_now_places_vm() {
        let mut sim = two_server_sim();
        let id = sim.boot_vm_now(ServerId::new(0), spec(2, 4.0)).unwrap();
        assert_eq!(sim.datacenter().locate_vm(id), Some(ServerId::new(0)));
        assert!(matches!(sim.log()[0].1, SimEvent::VmBooted { .. }));
    }

    #[test]
    fn scheduled_boot_applies_at_time() {
        let mut sim = two_server_sim();
        sim.schedule(
            SimTime::from_secs(5),
            Event::BootVm {
                server: ServerId::new(0),
                spec: spec(2, 4.0),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(
            sim.datacenter()
                .server(ServerId::new(0))
                .unwrap()
                .vm_count(),
            0
        );
        sim.step();
        assert_eq!(
            sim.datacenter()
                .server(ServerId::new(0))
                .unwrap()
                .vm_count(),
            1
        );
    }

    #[test]
    fn stop_vm_removes_it() {
        let mut sim = two_server_sim();
        let id = sim.boot_vm_now(ServerId::new(0), spec(2, 4.0)).unwrap();
        sim.schedule(SimTime::from_secs(3), Event::StopVm(id));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sim.datacenter().locate_vm(id), None);
        assert!(sim
            .log()
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::VmStopped { .. })));
    }

    #[test]
    fn migration_moves_vm_and_clears_overhead() {
        let mut sim = two_server_sim();
        let id = sim.boot_vm_now(ServerId::new(0), spec(2, 8.0)).unwrap();
        sim.schedule(
            SimTime::from_secs(10),
            Event::MigrateVm {
                vm: id,
                dest: ServerId::new(1),
            },
        );
        sim.run_until(SimTime::from_secs(11));
        assert_eq!(sim.migrations.len(), 1);
        assert_eq!(sim.datacenter().locate_vm(id), Some(ServerId::new(0)));
        // 8 GB at 10 Gbit/s × 1.3 ≈ 8.3 s; run past it.
        sim.run_until(SimTime::from_secs(25));
        assert_eq!(sim.migrations.len(), 0);
        assert_eq!(sim.datacenter().locate_vm(id), Some(ServerId::new(1)));
        assert!(sim
            .log()
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::MigrationCompleted { .. })));
    }

    #[test]
    fn migration_to_same_server_fails() {
        let mut sim = two_server_sim();
        let id = sim.boot_vm_now(ServerId::new(0), spec(2, 4.0)).unwrap();
        sim.schedule(
            SimTime::from_secs(1),
            Event::MigrateVm {
                vm: id,
                dest: ServerId::new(0),
            },
        );
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.log().iter().any(|(_, e)| matches!(
            e,
            SimEvent::EventFailed {
                error: SimError::SameServer(_)
            }
        )));
    }

    #[test]
    fn migration_of_unknown_vm_fails() {
        let mut sim = two_server_sim();
        sim.schedule(
            SimTime::from_secs(1),
            Event::MigrateVm {
                vm: VmId::new(99),
                dest: ServerId::new(1),
            },
        );
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.log().iter().any(|(_, e)| matches!(
            e,
            SimEvent::EventFailed {
                error: SimError::UnknownVm(_)
            }
        )));
    }

    #[test]
    fn double_migration_rejected() {
        let mut sim = two_server_sim();
        let id = sim.boot_vm_now(ServerId::new(0), spec(2, 32.0)).unwrap();
        sim.schedule(
            SimTime::from_secs(1),
            Event::MigrateVm {
                vm: id,
                dest: ServerId::new(1),
            },
        );
        sim.schedule(
            SimTime::from_secs(2),
            Event::MigrateVm {
                vm: id,
                dest: ServerId::new(1),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.log().iter().any(|(_, e)| matches!(
            e,
            SimEvent::EventFailed {
                error: SimError::AlreadyMigrating(_)
            }
        )));
    }

    #[test]
    fn traces_record_each_step() {
        let mut sim = two_server_sim();
        sim.boot_vm_now(ServerId::new(0), spec(4, 8.0)).unwrap();
        sim.run_until(SimTime::from_secs(30));
        let trace = sim.trace(ServerId::new(0)).unwrap();
        assert_eq!(trace.sensor_c.len(), 30);
        assert_eq!(trace.utilization.len(), 30);
        // Temperature rose under load.
        let (first, last) = (trace.die_c.get(0).unwrap().1, trace.die_c.last().unwrap().1);
        assert!(last > first);
    }

    #[test]
    fn fan_event_changes_speed() {
        let mut sim = two_server_sim();
        sim.schedule(
            SimTime::from_secs(2),
            Event::SetFanSpeed {
                server: ServerId::new(0),
                speed: FanSpeed::High,
            },
        );
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(
            sim.datacenter()
                .server(ServerId::new(0))
                .unwrap()
                .fans()
                .speed(),
            FanSpeed::High
        );
    }

    #[test]
    fn ambient_event_replaces_model() {
        let mut sim = two_server_sim();
        sim.schedule(
            SimTime::from_secs(5),
            Event::SetAmbient(AmbientModel::Fixed(30.0)),
        );
        sim.run_until(SimTime::from_secs(10));
        let trace = sim.trace(ServerId::new(0)).unwrap();
        assert_eq!(trace.ambient_c.last().unwrap().1, 30.0);
        assert_eq!(trace.ambient_c.get(0).unwrap().1, 25.0);
    }

    #[test]
    fn same_timestamp_events_apply_in_schedule_order() {
        // Two ambient changes at the same instant: the later-scheduled one
        // wins (equal times keep their schedule order).
        let mut sim = two_server_sim();
        sim.schedule(
            SimTime::from_secs(3),
            Event::SetAmbient(AmbientModel::Fixed(28.0)),
        );
        sim.schedule(
            SimTime::from_secs(3),
            Event::SetAmbient(AmbientModel::Fixed(31.0)),
        );
        sim.run_until(SimTime::from_secs(5));
        let trace = sim.trace(ServerId::new(0)).unwrap();
        assert_eq!(trace.ambient_c.last().unwrap().1, 31.0);
    }

    #[test]
    fn events_apply_in_time_order_and_past_dated_ones_at_the_next_step() {
        // Scheduled out of time order, then one dated before `now` mid-run:
        // each step's sample shows the ambient the due events left.
        let mut sim = two_server_sim();
        sim.schedule(
            SimTime::from_secs(5),
            Event::SetAmbient(AmbientModel::Fixed(30.0)),
        );
        sim.schedule(
            SimTime::from_secs(3),
            Event::SetAmbient(AmbientModel::Fixed(28.0)),
        );
        sim.run_until(SimTime::from_secs(4));
        sim.schedule(
            SimTime::from_secs(1),
            Event::SetAmbient(AmbientModel::Fixed(33.0)),
        );
        sim.run_until(SimTime::from_secs(7));
        let trace = sim.trace(ServerId::new(0)).unwrap();
        assert_eq!(
            trace.ambient_c.iter().collect::<Vec<_>>(),
            [25.0, 25.0, 25.0, 28.0, 33.0, 30.0, 30.0]
                .into_iter()
                .enumerate()
                .map(|(t, v)| (t as f64, v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fan_failure_event_heats_the_server() {
        let mut sim = two_server_sim();
        sim.boot_vm_now(ServerId::new(0), spec(8, 16.0)).unwrap();
        sim.run_until(SimTime::from_secs(600));
        let healthy = sim
            .datacenter()
            .server(ServerId::new(0))
            .unwrap()
            .die_temperature();
        sim.schedule(
            SimTime::from_secs(600),
            Event::FailFans {
                server: ServerId::new(0),
                count: 3,
            },
        );
        sim.run_until(SimTime::from_secs(1400));
        let degraded = sim.datacenter().server(ServerId::new(0)).unwrap();
        assert_eq!(degraded.fans().operational(), 1);
        assert!(
            degraded.die_temperature() > healthy + 3.0,
            "fan failure did not heat: {} vs {}",
            degraded.die_temperature(),
            healthy
        );
    }

    #[test]
    fn rack_offsets_reach_the_servers() {
        use crate::datacenter::RackId;
        let mut dc = Datacenter::new();
        let cool = dc.add_server_in_rack(
            ServerSpec::standard("a"),
            RackId::new(0),
            Celsius::new(25.0),
            1,
        );
        let warm = dc.add_server_in_rack(
            ServerSpec::standard("b"),
            RackId::new(1),
            Celsius::new(25.0),
            2,
        );
        dc.set_rack_offset(RackId::new(0), 0.0);
        dc.set_rack_offset(RackId::new(1), 2.0);
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(25.0), 7);
        sim.run_until(SimTime::from_secs(10));
        let a = sim.trace(cool).unwrap().ambient_c.get(5).unwrap().1;
        let b = sim.trace(warm).unwrap().ambient_c.get(5).unwrap().1;
        assert_eq!(a, 25.0);
        assert_eq!(b, 27.0);
    }

    #[test]
    fn migration_heats_destination() {
        // The destination's utilization rises during pre-copy even before
        // the VM lands — the dynamic effect the paper's calibration absorbs.
        let mut sim = two_server_sim();
        let id = sim.boot_vm_now(ServerId::new(0), spec(4, 48.0)).unwrap();
        sim.run_until(SimTime::from_secs(5));
        let before = sim
            .trace(ServerId::new(1))
            .unwrap()
            .utilization
            .last()
            .unwrap()
            .1;
        sim.schedule(
            SimTime::from_secs(5),
            Event::MigrateVm {
                vm: id,
                dest: ServerId::new(1),
            },
        );
        sim.run_until(SimTime::from_secs(10));
        let during = sim
            .trace(ServerId::new(1))
            .unwrap()
            .utilization
            .last()
            .unwrap()
            .1;
        assert!(during > before, "dest load {during} not above {before}");
    }

    #[test]
    fn noop_fault_plan_is_bit_identical_to_no_injector() {
        let run = |install_noop: bool| {
            let mut sim = two_server_sim();
            if install_noop {
                sim.set_fault_plan(crate::fault::FaultPlan::none()).unwrap();
            }
            sim.boot_vm_now(ServerId::new(0), spec(4, 8.0)).unwrap();
            sim.run_until(SimTime::from_secs(120));
            sim.trace(ServerId::new(0))
                .unwrap()
                .sensor_c
                .iter()
                .map(|(_, v)| v)
                .collect::<Vec<_>>()
        };
        let clean = run(false);
        let noop = run(true);
        assert_eq!(
            clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            noop.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        // And a noop plan exposes no delivery stream at all.
        let mut sim = two_server_sim();
        sim.set_fault_plan(crate::fault::FaultPlan::none()).unwrap();
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.delivered(ServerId::new(0)).is_none());
        assert_eq!(sim.fault_stats(), crate::fault::FaultStats::default());
    }

    #[test]
    fn installed_plan_feeds_the_delivery_stream_and_keeps_traces_clean() {
        let plan = crate::fault::FaultPlan::new(3)
            .with_dropout(crate::fault::DropoutFault::scheduled(vec![(10.0, 20.0)]).unwrap());
        let mut sim = two_server_sim();
        sim.set_fault_plan(plan).unwrap();
        sim.boot_vm_now(ServerId::new(0), spec(4, 8.0)).unwrap();
        sim.run_until(SimTime::from_secs(30));
        let trace = sim.trace(ServerId::new(0)).unwrap();
        assert_eq!(trace.sensor_c.len(), 30, "physics trace stays complete");
        let delivered = sim.delivered(ServerId::new(0)).unwrap();
        assert_eq!(delivered.len(), 20, "the 10 s window was dropped");
        assert!(delivered.iter().all(|(t, _)| !(10.0..20.0).contains(t)));
        assert_eq!(sim.fault_stats().dropped, 20, "10 s x 2 servers");
    }

    #[test]
    fn lost_events_are_flagged_in_the_log() {
        let plan = crate::fault::FaultPlan::new(1)
            .with_lost_events(crate::fault::LostEventFault::random(1.0).unwrap());
        let mut sim = two_server_sim();
        sim.set_fault_plan(plan).unwrap();
        let id = sim.boot_vm_now(ServerId::new(0), spec(2, 4.0)).unwrap();
        sim.schedule(SimTime::from_secs(2), Event::StopVm(id));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sim.log().len(), 2);
        assert!(sim.log_entry_lost(0) && sim.log_entry_lost(1));
        assert_eq!(sim.fault_stats().events_lost, 2);
        // Without a plan nothing is ever lost.
        let mut clean = two_server_sim();
        clean.boot_vm_now(ServerId::new(0), spec(2, 4.0)).unwrap();
        assert!(!clean.log_entry_lost(0));
    }

    /// A faulted 11-server fleet advanced for `steps`, fingerprinted by
    /// every value that feeds downstream consumers.
    fn faulted_fingerprint(steps: u64) -> Vec<u64> {
        let dc = Datacenter::homogeneous(&ServerSpec::standard("n"), 11, 4, Celsius::new(24.0), 5);
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9);
        sim.set_fault_plan(
            crate::fault::FaultPlan::new(21)
                .with_dropout(
                    crate::fault::DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0))
                        .unwrap(),
                )
                .with_spike(
                    crate::fault::SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0))
                        .unwrap(),
                )
                .with_jitter(crate::fault::JitterFault::random(0.1, Seconds::new(1.5)).unwrap()),
        )
        .unwrap();
        for s in 0..11 {
            sim.boot_vm_now(ServerId::new(s), spec(2, 4.0)).unwrap();
        }
        sim.run_until(SimTime::from_secs(steps));
        let mut fp = vec![sim.room_heat_kw.to_bits()];
        for s in 0..sim.datacenter().len() {
            let id = ServerId::new(s);
            let server = sim.datacenter().server(id).unwrap();
            fp.push(server.die_temperature().to_bits());
            let trace = sim.trace(id).unwrap();
            for (t, v) in trace.sensor_c.iter() {
                fp.push(t.to_bits());
                fp.push(v.to_bits());
            }
            for (t, v) in sim.delivered(id).unwrap() {
                fp.push(t.to_bits());
                fp.push(v.to_bits());
            }
            let stats = sim.slots[s].fault.as_ref().unwrap().stats();
            fp.extend([stats.dropped, stats.stuck, stats.spiked, stats.jittered]);
        }
        fp
    }

    /// Pins the global-clock ambient semantics: a scheduled room step
    /// lands in every server's ambient trace at the scheduled instant.
    #[test]
    fn scheduled_ambient_step_is_globally_clocked() {
        let dc = Datacenter::homogeneous(&ServerSpec::standard("p"), 5, 4, Celsius::new(22.0), 3);
        let mut sim = Simulation::new(
            dc,
            AmbientModel::Schedule(vec![(SimTime::ZERO, 22.0), (SimTime::from_secs(15), 27.0)]),
            3,
        );
        for _ in 0..30 {
            sim.step();
        }
        // Each server sees the schedule through its own inlet offset, so
        // pin the shape: constant before the step, constant after, and
        // the step itself is exactly the scheduled +5 °C at t = 15 s.
        for s in 0..5 {
            let trace = sim.trace(ServerId::new(s)).unwrap();
            let before: Vec<f64> = trace
                .ambient_c
                .iter()
                .filter(|(t, _)| *t < 15.0)
                .map(|(_, v)| v)
                .collect();
            let after: Vec<f64> = trace
                .ambient_c
                .iter()
                .filter(|(t, _)| *t >= 15.0)
                .map(|(_, v)| v)
                .collect();
            assert!(
                !before.is_empty() && !after.is_empty(),
                "server {s} trace empty"
            );
            assert!(
                before.iter().all(|v| (v - before[0]).abs() == 0.0),
                "server {s} ambient drifts before the step"
            );
            assert!(
                after.iter().all(|v| (v - after[0]).abs() == 0.0),
                "server {s} ambient drifts after the step"
            );
            assert!(
                (after[0] - before[0] - 5.0).abs() < 1e-9,
                "server {s} step is {} not +5",
                after[0] - before[0]
            );
        }
    }

    /// A mostly-idle 6-server fleet with mid-run transients of every
    /// kind: boots, a stop, a fan change, a fan failure, an ambient
    /// swap and a live migration.
    fn transient_fleet(mode: ClockMode) -> Simulation {
        let dc = Datacenter::homogeneous(&ServerSpec::standard("n"), 6, 4, Celsius::new(24.0), 3);
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 11).with_clock(mode);
        for s in 0..6 {
            sim.boot_vm_now(
                ServerId::new(s),
                VmSpec::new("idle", 1, 2.0, TaskProfile::Idle),
            )
            .unwrap();
        }
        sim.schedule(
            SimTime::from_secs(700),
            Event::BootVm {
                server: ServerId::new(1),
                spec: VmSpec::new("late", 2, 4.0, TaskProfile::Idle),
            },
        );
        sim.schedule(
            SimTime::from_secs(900),
            Event::SetFanSpeed {
                server: ServerId::new(2),
                speed: FanSpeed::High,
            },
        );
        sim.schedule(
            SimTime::from_secs(1100),
            Event::FailFans {
                server: ServerId::new(3),
                count: 2,
            },
        );
        sim.schedule(
            SimTime::from_secs(1300),
            Event::SetAmbient(AmbientModel::Fixed(26.0)),
        );
        sim.schedule(SimTime::from_secs(1500), Event::StopVm(VmId::new(4)));
        sim.schedule(
            SimTime::from_secs(1700),
            Event::MigrateVm {
                vm: VmId::new(5),
                dest: ServerId::new(0),
            },
        );
        sim
    }

    /// Every physical quantity that must match fixed-mode stepping
    /// bitwise: die temperatures, last power/utilization, room heat.
    fn physical_fingerprint(sim: &Simulation) -> Vec<u64> {
        let mut fp = vec![sim.room_heat_kw.to_bits()];
        for s in 0..sim.datacenter().len() {
            let server = sim.datacenter().server(ServerId::new(s)).unwrap();
            fp.push(server.die_temperature().to_bits());
            fp.push(server.last_power().to_bits());
            fp.push(server.last_utilization().to_bits());
        }
        fp
    }

    #[test]
    fn event_mode_end_state_is_bit_identical_through_transients() {
        let horizon = SimTime::from_secs(2400);
        let mut fixed = transient_fleet(ClockMode::Fixed);
        fixed.run_until(horizon);
        let mut event = transient_fleet(ClockMode::Event);
        event.run_until(horizon);
        assert_eq!(physical_fingerprint(&fixed), physical_fingerprint(&event));
        let stats = event.step_stats();
        assert!(
            stats.skip_factor() > 2.0,
            "idle fleet barely slept: {stats:?}"
        );
        assert_eq!(fixed.step_stats().skip_factor(), 1.0);
        // The sparse trace still ends on the same tick as the dense one.
        let dense = fixed.trace(ServerId::new(4)).unwrap();
        let sparse = event.trace(ServerId::new(4)).unwrap();
        assert_eq!(
            dense.sensor_c.last().map(|(t, _)| t),
            sparse.sensor_c.last().map(|(t, _)| t),
        );
        assert!(sparse.sensor_c.len() < dense.sensor_c.len());
    }

    #[test]
    fn event_mode_settles_exactly_when_switched_back_to_fixed() {
        let horizon = SimTime::from_secs(1000);
        let mut fixed = transient_fleet(ClockMode::Fixed);
        fixed.run_until(horizon);
        let mut event = transient_fleet(ClockMode::Event);
        event.run_until(horizon);
        event.set_clock_mode(ClockMode::Fixed);
        assert_eq!(physical_fingerprint(&fixed), physical_fingerprint(&event));
        // And it keeps stepping densely from the settled state.
        fixed.run_until(SimTime::from_secs(1200));
        event.run_until(SimTime::from_secs(1200));
        assert_eq!(physical_fingerprint(&fixed), physical_fingerprint(&event));
    }

    /// FNV-1a over 64-bit words.
    fn fnv1a(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Absolute pins: the comparisons above only hold one stepping path
    /// against another, so a change that moves every path together
    /// (physics, trace recording or fault delivery) passes them. These
    /// digests were captured before the per-server step bodies were
    /// merged into one ([`Batch::step`]) and must never move without a
    /// reason.
    const FIXED_FAULTED_DIGEST: u64 = 0xcd08_0a4d_f90b_930e;
    const EVENT_CATCH_UP_DIGEST: u64 = 0x48d9_5bd1_c994_db75;

    #[test]
    fn fixed_clock_faulted_fleet_matches_its_pinned_digest() {
        let digest = fnv1a(&faulted_fingerprint(40));
        assert_eq!(digest, FIXED_FAULTED_DIGEST, "got {digest:#018x}");
    }

    #[test]
    fn event_clock_catch_up_delivery_matches_its_pinned_digest() {
        // The plan goes in while the idle fleet sleeps, so the catch-up
        // settles of the later transients deliver through the injector
        // (and draw from its random channels) before the pinned digest
        // hashes every trace, delivered stream and fault counter.
        let mut sim = transient_fleet(ClockMode::Event);
        sim.run_until(SimTime::from_secs(300));
        sim.set_fault_plan(
            crate::fault::FaultPlan::new(13)
                .with_spike(
                    crate::fault::SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0))
                        .unwrap(),
                )
                .with_jitter(crate::fault::JitterFault::random(0.1, Seconds::new(1.5)).unwrap()),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(2400));
        assert!(sim.step_stats().skip_factor() > 2.0);
        let digest = crate::scenario::oracle::full_fingerprint(&sim);
        assert_eq!(digest, EVENT_CATCH_UP_DIGEST, "got {digest:#018x}");
    }

    /// A server's five trace channels are one sample store: equal
    /// lengths over one time column, on both clocks and under a fault
    /// plan.
    #[test]
    fn trace_channels_share_one_time_column() {
        for mut sim in [
            transient_fleet(ClockMode::Fixed),
            transient_fleet(ClockMode::Event),
            rack_fleet(ClockMode::Event),
        ] {
            sim.run_until(SimTime::from_secs(900));
            for i in 0..sim.datacenter().len() {
                let trace = sim.trace(ServerId::new(i)).unwrap();
                let times = |channel: Series<'_>| -> Vec<u64> {
                    channel.iter().map(|(t, _)| t.to_bits()).collect()
                };
                let sensor = times(trace.sensor_c);
                assert!(!sensor.is_empty(), "server {i} recorded nothing");
                for channel in [
                    trace.die_c,
                    trace.utilization,
                    trace.power_w,
                    trace.ambient_c,
                ] {
                    assert_eq!(channel.len(), sensor.len());
                    assert_eq!(times(channel), sensor, "server {i}");
                }
            }
        }
    }

    /// On the Fixed clock under a fixed ambient an idle server's time,
    /// utilization, power and ambient columns never leave their closed
    /// forms; only the sensor (as whole-degree codes) and die columns are
    /// stored sample by sample.
    #[test]
    fn idle_fixed_clock_server_keeps_four_closed_form_columns() {
        use crate::telemetry::Form::{Constant, Dense, Uniform, Whole};
        let mut sim = two_server_sim();
        sim.run_until(SimTime::from_secs(1000));
        let columns = &sim.slots[1].trace;
        // Time column, then sensor, die, utilization, power, ambient.
        assert_eq!(
            columns.forms(),
            [Uniform, Whole, Dense, Constant, Constant, Constant]
        );
        let trace = sim.trace(ServerId::new(1)).unwrap();
        assert_eq!(trace.ambient_c.len(), 1000);
        assert_eq!(trace.ambient_c.last(), Some((999.0, 25.0)));
        assert_eq!(trace.utilization.get(500), Some((500.0, 0.0)));
    }

    /// The default whole-degree sensor's column keeps `i16` codes for a
    /// whole run; a half-degree sensor's turns dense. Either way the
    /// readings are the sensor's own: a standalone sensor of the same
    /// seed, replaying the recorded die temperatures, reads the same bits.
    #[test]
    fn sensor_column_is_whole_only_for_a_whole_degree_sensor() {
        use crate::sensor::{SensorConfig, TemperatureSensor};
        use crate::telemetry::Form;
        let half_degree = SensorConfig::new(0.4, 0.5).unwrap();
        let mut dc = Datacenter::new();
        dc.add_server(ServerSpec::standard("a"), Celsius::new(25.0), 1);
        dc.add_server(
            ServerSpec::standard("b").with_sensor(half_degree),
            Celsius::new(25.0),
            2,
        );
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(25.0), 7);
        sim.boot_vm_now(ServerId::new(1), spec(2, 4.0)).unwrap();
        sim.run_until(SimTime::from_secs(1000));
        assert_eq!(sim.slots[0].trace.forms()[1], Form::Whole);
        assert_eq!(sim.slots[1].trace.forms()[1], Form::Dense);

        // `Server::new` seeds server `id`'s sensor with `seed ^ id << 17`.
        for (id, seed, config) in [(0, 1, SensorConfig::default()), (1, 2, half_degree)] {
            let trace = sim.trace(ServerId::new(id)).unwrap();
            assert_eq!(trace.sensor_c.len(), 1000);
            let mut replay = TemperatureSensor::new(config, seed ^ (id as u64) << 17);
            for ((t, reading), (die_t, die)) in trace.sensor_c.iter().zip(trace.die_c.iter()) {
                assert_eq!(t.to_bits(), die_t.to_bits());
                let want = replay.read(Celsius::new(die));
                assert_eq!(reading.to_bits(), want.to_bits(), "server {id} at {t} s");
            }
        }
    }

    /// An idle server's RK4 state reaches a bitwise fixed point (after
    /// about 3,900 s for this server on the Fixed clock). From then on its
    /// die column stores nothing more while the trace grows, and the
    /// samples it does not store read back the fixed point's bits.
    #[test]
    fn settled_die_column_stops_growing() {
        const K: usize = 1_000;
        let mut dc = Datacenter::new();
        dc.add_server(ServerSpec::standard("a"), Celsius::new(25.0), 1);
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(25.0), 7);
        let die = |sim: &Simulation| {
            let server = sim.datacenter().server(ServerId::new(0)).unwrap();
            server.die_temperature().to_bits()
        };
        sim.run_until(SimTime::from_secs(6_000));
        let fixed = die(&sim);
        sim.step();
        assert_eq!(die(&sim), fixed, "not yet at the fixed point");
        let len = sim.trace(ServerId::new(0)).unwrap().die_c.len();
        let stored = sim.slots[0].trace.stored_lens()[1];
        assert!(stored < len - 1, "the die column stored its final run");

        sim.run_for(SimDuration::from_secs(K as u64));
        let die_c = sim.trace(ServerId::new(0)).unwrap().die_c;
        assert_eq!(die_c.len(), len + K);
        assert_eq!(sim.slots[0].trace.stored_lens()[1], stored);
        for i in len..len + K {
            assert_eq!(die_c.get(i).map(|(_, v)| v.to_bits()), Some(fixed));
        }
    }

    /// An 11-server fleet on three racks behind a faulted delivery
    /// channel: mostly idle, so the event clock sleeps its servers, with
    /// a boot, a fan change and a live migration mid-run.
    fn rack_fleet(mode: ClockMode) -> Simulation {
        use crate::datacenter::RackId;
        let mut dc = Datacenter::new();
        for i in 0..11 {
            let spec = ServerSpec::standard(format!("m{i}"));
            dc.add_server_in_rack(spec, RackId::new(i / 4), Celsius::new(24.0), 30 + i as u64);
        }
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 17).with_clock(mode);
        sim.set_fault_plan(
            crate::fault::FaultPlan::new(23)
                .with_spike(
                    crate::fault::SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0))
                        .unwrap(),
                )
                .with_jitter(crate::fault::JitterFault::random(0.1, Seconds::new(1.5)).unwrap()),
        )
        .unwrap();
        for s in 0..11 {
            let task = if s % 4 == 3 {
                TaskProfile::Mixed
            } else {
                TaskProfile::Idle
            };
            sim.boot_vm_now(ServerId::new(s), VmSpec::new("v", 2, 4.0, task))
                .unwrap();
        }
        sim.schedule(
            SimTime::from_secs(300),
            Event::BootVm {
                server: ServerId::new(5),
                spec: VmSpec::new("late", 4, 8.0, TaskProfile::CpuBound),
            },
        );
        sim.schedule(
            SimTime::from_secs(500),
            Event::SetFanSpeed {
                server: ServerId::new(8),
                speed: FanSpeed::High,
            },
        );
        sim.schedule(
            SimTime::from_secs(700),
            Event::MigrateVm {
                vm: VmId::new(0),
                dest: ServerId::new(9),
            },
        );
        sim
    }

    /// The rack fleet's end state as `[physical, full on the fixed
    /// clock, full on the event clock]`, captured before the per-server
    /// step bodies were merged into one.
    const RACK_FLEET_DIGESTS: [u64; 3] = [
        0xe3bf_525e_4b0c_4bf5,
        0x4e76_e5d8_2b79_72b2,
        0x05ba_37b4_808e_aad3,
    ];

    #[test]
    fn faulted_rack_fleet_matches_its_pinned_digests() {
        use crate::scenario::oracle;
        let horizon = SimTime::from_secs(1200);
        let mut fixed = rack_fleet(ClockMode::Fixed);
        fixed.run_until(horizon);
        let mut event = rack_fleet(ClockMode::Event);
        event.run_until(horizon);
        assert_eq!(
            oracle::physical_fingerprint(&fixed),
            oracle::physical_fingerprint(&event)
        );
        assert!(event.step_stats().skip_factor() > 1.2);
        let digests = [
            oracle::physical_fingerprint(&fixed),
            oracle::full_fingerprint(&fixed),
            oracle::full_fingerprint(&event),
        ];
        assert_eq!(digests, RACK_FLEET_DIGESTS, "got {digests:#018x?}");
    }

    /// A faulted 11-server fleet whose plan is swapped, removed and
    /// re-installed mid-run, and which gains a server after stepping has
    /// begun: plan A at 0 s, plan B (another seed, other channels) at
    /// 300 s, a twelfth server at 450 s, no plan at 600 s, plan A again
    /// at 900 s, end at 1200 s. Returns the full fingerprint at the end
    /// and the fault counts just before each swap and at the end.
    fn plan_swap_and_growth(mode: ClockMode) -> (u64, Vec<[u64; 5]>) {
        use crate::fault::{DropoutFault, JitterFault, LostEventFault, SpikeFault, StuckFault};
        let plan_a = FaultPlan::new(21)
            .with_dropout(DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0)).unwrap())
            .with_spike(SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0)).unwrap())
            .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).unwrap());
        let plan_b = FaultPlan::new(37)
            .with_stuck(StuckFault::scheduled(vec![(320.0, 340.0)]).unwrap())
            .with_dropout(DropoutFault::scheduled(vec![(400.0, 410.0), (500.0, 530.0)]).unwrap())
            .with_spike(SpikeFault::scheduled(vec![(350.0, 6.0), (470.0, -5.0)]).unwrap())
            .with_lost_events(LostEventFault::random(0.5).unwrap());
        let dc = Datacenter::homogeneous(&ServerSpec::standard("n"), 11, 4, Celsius::new(24.0), 5);
        let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9).with_clock(mode);
        sim.set_fault_plan(plan_a.clone()).unwrap();
        for s in 0..11 {
            let task = if s % 5 == 0 {
                TaskProfile::CpuBound
            } else {
                TaskProfile::Idle
            };
            sim.boot_vm_now(ServerId::new(s), VmSpec::new("v", 2, 4.0, task))
                .unwrap();
        }
        sim.schedule(
            SimTime::from_secs(200),
            Event::BootVm {
                server: ServerId::new(3),
                spec: VmSpec::new("late", 2, 4.0, TaskProfile::Mixed),
            },
        );
        sim.schedule(SimTime::from_secs(380), Event::StopVm(VmId::new(2)));
        sim.schedule(
            SimTime::from_secs(650),
            Event::MigrateVm {
                vm: VmId::new(4),
                dest: ServerId::new(9),
            },
        );
        let counts = |sim: &Simulation| {
            let stats = sim.fault_stats();
            [
                stats.dropped,
                stats.stuck,
                stats.spiked,
                stats.jittered,
                stats.events_lost,
            ]
        };
        let mut stats = Vec::new();
        sim.run_until(SimTime::from_secs(300));
        stats.push(counts(&sim));
        let streams = |sim: &Simulation| -> Vec<usize> {
            (0..sim.datacenter().len())
                .map(|s| sim.delivered(ServerId::new(s)).unwrap().len())
                .collect()
        };
        let before = streams(&sim);
        sim.set_fault_plan(plan_b).unwrap();
        // The swap restarts the counts and keeps every delivered sample.
        assert_eq!(counts(&sim), [0; 5], "{mode:?}: counts after the swap");
        assert_eq!(streams(&sim), before, "{mode:?}: streams after the swap");
        sim.run_until(SimTime::from_secs(450));
        let added =
            sim.datacenter_mut()
                .add_server(ServerSpec::standard("late"), Celsius::new(24.0), 77);
        sim.schedule(
            SimTime::from_secs(800),
            Event::BootVm {
                server: added,
                spec: VmSpec::new("new", 2, 4.0, TaskProfile::Idle),
            },
        );
        sim.run_until(SimTime::from_secs(600));
        stats.push(counts(&sim));
        sim.set_fault_plan(FaultPlan::none()).unwrap();
        sim.run_until(SimTime::from_secs(900));
        sim.set_fault_plan(plan_a).unwrap();
        sim.run_until(SimTime::from_secs(1200));
        stats.push(counts(&sim));
        assert_eq!(sim.datacenter().len(), 12);
        if mode == ClockMode::Event {
            assert!(
                sim.step_stats().skip_factor() > 1.5,
                "{:?}",
                sim.step_stats()
            );
        }
        (crate::scenario::oracle::full_fingerprint(&sim), stats)
    }

    /// [`plan_swap_and_growth`] on `[Fixed, Event]`, captured before the
    /// per-server engine state moved into one slot per server.
    const PLAN_SWAP_DIGESTS: [u64; 2] = [0x1365_64cb_800d_11fc, 0x0e2f_bde8_0512_73e1];
    /// The fault counts `[dropped, stuck, spiked, jittered, events_lost]`
    /// at 300 s (plan A), 600 s (plan B) and 1200 s (plan A again), on
    /// `[Fixed, Event]`.
    const PLAN_SWAP_STATS: [[[u64; 5]; 3]; 2] = [
        [
            [281, 0, 149, 320, 0],
            [470, 209, 24, 0, 1],
            [304, 0, 167, 347, 0],
        ],
        [
            [231, 0, 137, 292, 0],
            [225, 90, 24, 0, 1],
            [98, 0, 68, 132, 0],
        ],
    ];

    #[test]
    fn plan_swaps_and_fleet_growth_match_their_pinned_digests() {
        for (k, mode) in [ClockMode::Fixed, ClockMode::Event].into_iter().enumerate() {
            let (digest, stats) = plan_swap_and_growth(mode);
            assert_eq!(
                (digest, stats.as_slice()),
                (PLAN_SWAP_DIGESTS[k], PLAN_SWAP_STATS[k].as_slice()),
                "{mode:?}: got {digest:#018x} {stats:?}"
            );
        }
    }

    #[test]
    fn event_mode_wakes_around_scheduled_fault_windows() {
        let dc = Datacenter::homogeneous(&ServerSpec::standard("n"), 2, 4, Celsius::new(24.0), 3);
        let mut sim =
            Simulation::new(dc, AmbientModel::Fixed(24.0), 7).with_clock(ClockMode::Event);
        sim.set_fault_plan(
            crate::fault::FaultPlan::new(5)
                .with_dropout(crate::fault::DropoutFault::scheduled(vec![(100.0, 120.0)]).unwrap()),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(1200));
        let delivered = sim.delivered(ServerId::new(0)).unwrap();
        let times: Vec<f64> = delivered.iter().map(|(t, _)| *t).collect();
        // The tick just before the window and the first tick after it are
        // pinned awake, so the stream resolves the edge exactly.
        assert!(times.contains(&99.0), "no pre-window sample");
        assert!(times.contains(&120.0), "no post-window sample");
        assert!(times.iter().all(|t| !(100.0..120.0).contains(t)));
        assert!(sim.step_stats().skip_factor() > 2.0);
    }

    #[test]
    fn wake_policy_caps_the_sleep_interval() {
        let dc = Datacenter::homogeneous(&ServerSpec::standard("n"), 1, 4, Celsius::new(24.0), 3);
        let mut sim =
            Simulation::new(dc, AmbientModel::Fixed(24.0), 7).with_clock(ClockMode::Event);
        sim.run_until(SimTime::from_secs(2000));
        let trace = sim.trace(ServerId::new(0)).unwrap();
        let times: Vec<f64> = trace.sensor_c.iter().map(|(t, _)| t).collect();
        let max_gap = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0_f64, f64::max);
        // Quiet intervals double 2, 4, 8, 16 s and stop at the cap.
        assert_eq!(max_gap, MAX_SKIP.as_secs_f64(), "largest sleep gap");
    }

    #[test]
    fn recorded_since_names_exactly_the_servers_that_recorded() {
        let dc = Datacenter::homogeneous(&ServerSpec::standard("n"), 3, 4, Celsius::new(24.0), 3);
        let mut sim =
            Simulation::new(dc, AmbientModel::Fixed(24.0), 7).with_clock(ClockMode::Event);
        sim.boot_vm_now(ServerId::new(1), spec(4, 2.0)).unwrap();
        sim.run_until(SimTime::from_secs(3000));
        let samples = |sim: &Simulation| -> Vec<usize> {
            (0..3)
                .map(|i| sim.trace(ServerId::new(i)).unwrap().sensor_c.len())
                .collect()
        };
        // `run_until` ended on a settle, so nothing is named.
        let mut since = sim.now();
        assert_eq!(sim.recorded_since(since), None);
        let mut partial = 0;
        for tick in 0..200 {
            let before = samples(&sim);
            if tick == 50 {
                // A catch-up before a step wakes its server into the batch.
                sim.set_clock_mode(ClockMode::Fixed);
                sim.set_clock_mode(ClockMode::Event);
            }
            sim.step();
            let batch = sim.recorded_since(since).expect("one step since");
            let after = samples(&sim);
            let grew: Vec<usize> = (0..3).filter(|&i| after[i] > before[i]).collect();
            assert_eq!(batch, grew, "tick {tick}");
            partial += usize::from(batch.len() < 3);
            since = sim.now();
        }
        assert!(partial > 100, "too few sleeping ticks: {partial}");
        // No step since, two steps since, or a catch-up after the step.
        assert_eq!(sim.recorded_since(since), None);
        sim.step();
        sim.step();
        assert_eq!(sim.recorded_since(since), None);
        for _ in 0..40 {
            since = sim.now();
            sim.step();
        }
        assert!(sim.recorded_since(since).is_some());
        sim.set_clock_mode(ClockMode::Fixed);
        assert_eq!(sim.recorded_since(since), None);
    }
}
