//! Declarative simulation scenarios: a serializable description of one
//! fleet run — ambient profile, initial VM placement, scheduled
//! reconfigurations and telemetry faults — that builds a ready-to-step
//! [`Simulation`].
//!
//! A [`Scenario`] is the unit of the correctness-tooling layer: the
//! seeded [`generate`] module samples them, the [`oracle`] battery runs
//! each one under differential oracles (fixed-vs-event clock equality,
//! rerun determinism, physical invariants), and the [`shrink`]
//! module minimizes any failing case to a smallest repro that is checked
//! into `tests/scenarios/*.json` and replayed forever as a regression
//! test.
//!
//! Scenarios serialize to plain JSON through [`vmtherm_obs::json`] (the
//! workspace's vendored `serde` is marker-only, so the codec here is
//! explicit). The schema is versioned; parsing is strict — unknown
//! schema versions and out-of-domain values are errors, not guesses —
//! so a checked-in repro can never silently drift into meaning a
//! different run.

pub mod generate;
pub mod oracle;
pub mod shrink;

use crate::datacenter::Datacenter;
use crate::engine::{ClockMode, Event, Simulation};
use crate::environment::AmbientModel;
use crate::error::SimError;
use crate::fan::FanSpeed;
use crate::fault::{DropoutFault, FaultPlan, JitterFault, LostEventFault, SpikeFault, StuckFault};
use crate::server::{ServerId, ServerSpec};
use crate::time::{SimDuration, SimTime};
use crate::vm::{VmId, VmSpec};
use crate::workload::{TaskProfile, ALL_TASK_PROFILES};
use vmtherm_obs::json::{self, Json};
use vmtherm_units::Celsius;

/// Current scenario JSON schema version.
pub const SCENARIO_SCHEMA: u64 = 1;

/// Hard ceilings keeping any scenario replayable in test time. The
/// generator samples well inside these; the parser rejects anything
/// outside so a hand-edited corpus file cannot stall CI.
pub const MAX_SERVERS: usize = 64;
/// Most initial VMs per server ([`MAX_SERVERS`] documents the family).
pub const MAX_VMS_PER_SERVER: u32 = 8;
/// Longest scenario (simulated time).
pub const MAX_DURATION: SimDuration = SimDuration::from_secs(4 * 3600);
/// Most scheduled events.
pub const MAX_EVENTS: usize = 256;

/// The name every scheduled [`Event::BootVm`] gives its VM. The corpus
/// format stores no VM name and nothing reads one (oracles fingerprint
/// ids, and VM seeds derive from ids), so one fixed name keeps a decoded
/// or shrunk schedule equal to the one it came from.
pub const SCHEDULED_VM_NAME: &str = "scheduled";

/// A complete, self-contained description of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Corpus-unique identifier (used in file names and reports).
    pub name: String,
    /// Seed for the simulation (server sensors, VM workloads).
    pub seed: u64,
    /// Fleet size.
    pub servers: usize,
    /// Initial VMs booted per server (task profiles rotate
    /// deterministically from the seed).
    pub vms_per_server: u32,
    /// How long the scenario runs.
    pub duration: SimDuration,
    /// Room ambient model at t = 0.
    pub ambient: AmbientModel,
    /// Telemetry fault plan ([`FaultPlan::is_noop`] for a clean run).
    pub fault: FaultPlan,
    /// Scheduled reconfigurations, the pairs [`Simulation::schedule`]
    /// takes. VM ids are global boot ordinals: the initial placement
    /// boots ids `0..servers×vms_per_server` in server-major order, and
    /// scheduled [`Event::BootVm`]s take the next ids in schedule order.
    pub events: Vec<(SimTime, Event)>,
}

impl Scenario {
    /// A minimal clean scenario: `servers` idle hosts at a fixed 24 °C
    /// ambient, no VMs, no events, no faults.
    #[must_use]
    pub fn quiet(name: &str, seed: u64, servers: usize, duration: SimDuration) -> Self {
        Scenario {
            name: name.to_string(),
            seed,
            servers,
            vms_per_server: 0,
            duration,
            ambient: AmbientModel::Fixed(24.0),
            fault: FaultPlan::none(),
            events: Vec::new(),
        }
    }

    /// Checks every domain constraint the builder and the corpus rely
    /// on.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.name.is_empty() || !self.name.bytes().all(is_name_byte) {
            return Err(SimError::invalid(
                "scenario.name",
                format!(
                    "`{}` must be nonempty [A-Za-z0-9._-] (it names corpus files)",
                    self.name
                ),
            ));
        }
        if self.servers == 0 || self.servers > MAX_SERVERS {
            return Err(SimError::invalid(
                "scenario.servers",
                format!("need 1..={MAX_SERVERS}, got {}", self.servers),
            ));
        }
        if self.vms_per_server > MAX_VMS_PER_SERVER {
            return Err(SimError::invalid(
                "scenario.vms_per_server",
                format!("need <= {MAX_VMS_PER_SERVER}, got {}", self.vms_per_server),
            ));
        }
        if self.duration.is_zero() || self.duration > MAX_DURATION {
            return Err(SimError::invalid(
                "scenario.duration",
                format!("need 0 < duration <= {MAX_DURATION}, got {}", self.duration),
            ));
        }
        if self.events.len() > MAX_EVENTS {
            return Err(SimError::invalid(
                "scenario.events",
                format!("need <= {MAX_EVENTS} events, got {}", self.events.len()),
            ));
        }
        check_ambient("scenario.ambient", &self.ambient)?;
        for (i, (_, event)) in self.events.iter().enumerate() {
            let field = "scenario.events";
            match event {
                Event::BootVm { server, spec } => {
                    check_server_index(field, i, *server, self.servers)?;
                    // `VmSpec::new` already holds vcpus >= 1 and memory > 0.
                    if !spec.memory_gb().is_finite() {
                        return Err(SimError::invalid(
                            field,
                            format!("event {i}: memory_gb {} not finite", spec.memory_gb()),
                        ));
                    }
                }
                Event::StopVm(_) => {}
                Event::MigrateVm { dest: server, .. }
                | Event::SetFanSpeed { server, .. }
                | Event::FailFans { server, .. } => {
                    check_server_index(field, i, *server, self.servers)?;
                }
                Event::SetAmbient(model) => check_ambient(field, model)?,
            }
        }
        self.fault.validate()
    }

    /// Number of VMs booted before the clock starts.
    #[must_use]
    pub fn initial_vms(&self) -> u64 {
        self.servers as u64 * u64::from(self.vms_per_server)
    }

    /// Builds the ready-to-step simulation: fleet, initial VMs, fault
    /// plan and scheduled events, with the requested clock mode.
    ///
    /// # Errors
    ///
    /// Validation errors, or placement errors from the initial VM boot
    /// (the generator and corpus never overfill a server; a hand-written
    /// scenario that does is rejected here, deterministically).
    pub fn build(&self, clock: ClockMode) -> Result<Simulation, SimError> {
        self.build_inner(clock, true)
    }

    /// [`Scenario::build`] but *never* installing a fault injector, even
    /// the no-op plan. With all channels disabled the two paths must be
    /// byte-identical — the clean-path oracle in [`oracle`] holds this.
    ///
    /// # Errors
    ///
    /// As [`Scenario::build`]; a non-noop plan cannot skip installation.
    pub fn build_without_fault_plan(&self, clock: ClockMode) -> Result<Simulation, SimError> {
        if !self.fault.is_noop() {
            return Err(SimError::invalid(
                "scenario.fault",
                "build_without_fault_plan requires a noop plan".to_string(),
            ));
        }
        self.build_inner(clock, false)
    }

    fn build_inner(&self, clock: ClockMode, install_plan: bool) -> Result<Simulation, SimError> {
        self.validate()?;
        let dc = Datacenter::homogeneous(
            &ServerSpec::standard("sc"),
            self.servers,
            4,
            Celsius::new(24.0),
            self.seed,
        );
        let mut sim = Simulation::new(dc, self.ambient.clone(), self.seed).with_clock(clock);
        if install_plan {
            sim.set_fault_plan(self.fault.clone())?;
        }
        for s in 0..self.servers {
            for j in 0..self.vms_per_server {
                let pick = (self.seed as usize)
                    .wrapping_add(s.wrapping_mul(3))
                    .wrapping_add(j as usize)
                    % ALL_TASK_PROFILES.len();
                let task = ALL_TASK_PROFILES[pick];
                let vcpus = 1 + (j % 2);
                sim.boot_vm_now(
                    ServerId::new(s),
                    VmSpec::new(format!("i{s}-{j}"), vcpus, 2.0, task),
                )?;
            }
        }
        for (at, event) in &self.events {
            sim.schedule(*at, event.clone());
        }
        Ok(sim)
    }

    /// Serializes to the versioned JSON document the corpus stores.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Num(SCENARIO_SCHEMA as f64)),
            ("name", Json::str(&self.name)),
            ("seed", seed_to_json(self.seed)),
            ("servers", Json::Num(self.servers as f64)),
            ("vms_per_server", Json::Num(f64::from(self.vms_per_server))),
            ("duration_ms", Json::Num(self.duration.as_millis() as f64)),
            ("ambient", ambient_to_json(&self.ambient)),
            ("fault", fault_to_json(&self.fault)),
            (
                "events",
                Json::Arr(self.events.iter().map(event_to_json).collect()),
            ),
        ])
    }

    /// Pretty-rendered JSON, ending in a newline (corpus file format).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut text = self.to_json().render_pretty();
        text.push('\n');
        text
    }

    /// Parses and validates a scenario JSON document.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for malformed JSON, an unknown schema
    /// version, missing or mistyped fields, or domain violations.
    pub fn parse(text: &str) -> Result<Scenario, SimError> {
        let doc =
            json::parse(text).map_err(|e| SimError::invalid("scenario.json", e.to_string()))?;
        let scenario = Scenario::from_json(&doc)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Decodes a parsed JSON document (no domain validation; see
    /// [`Scenario::parse`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for schema or type mismatches.
    pub fn from_json(doc: &Json) -> Result<Scenario, SimError> {
        let schema = get_u64(doc, "schema")?;
        if schema != SCENARIO_SCHEMA {
            return Err(SimError::invalid(
                "scenario.schema",
                format!("unknown schema version {schema} (supported: {SCENARIO_SCHEMA})"),
            ));
        }
        let events = match doc.get("events") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(event_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(bad("events", "must be an array")),
            None => Vec::new(),
        };
        Ok(Scenario {
            name: get_str(doc, "name")?.to_string(),
            seed: get_seed(doc, "seed")?,
            servers: get_u64(doc, "servers")? as usize,
            vms_per_server: u32::try_from(get_u64(doc, "vms_per_server")?)
                .map_err(|_| bad("vms_per_server", "out of u32 range"))?,
            duration: SimDuration::from_millis(get_u64(doc, "duration_ms")?),
            ambient: ambient_from_json(doc.get("ambient").unwrap_or(&Json::Null))?,
            fault: fault_from_json(doc.get("fault").unwrap_or(&Json::Null))?,
            events,
        })
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.'
}

fn check_server_index(
    field: &'static str,
    event: usize,
    server: ServerId,
    servers: usize,
) -> Result<(), SimError> {
    let index = server.raw();
    if index >= servers {
        return Err(SimError::invalid(
            field,
            format!("event {event}: server {index} out of range (fleet has {servers})"),
        ));
    }
    Ok(())
}

fn check_ambient(field: &'static str, model: &AmbientModel) -> Result<(), SimError> {
    let finite = |v: f64| v.is_finite();
    let ok = match model {
        AmbientModel::Fixed(v) => finite(*v),
        AmbientModel::Diurnal {
            mean,
            amplitude,
            period_secs,
        } => finite(*mean) && finite(*amplitude) && *period_secs > 0.0 && finite(*period_secs),
        AmbientModel::Crac {
            setpoint,
            degrees_per_kw,
        } => finite(*setpoint) && finite(*degrees_per_kw),
        AmbientModel::Schedule(entries) => {
            !entries.is_empty() && entries.iter().all(|(_, v)| finite(*v))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(SimError::invalid(
            field,
            format!("ambient model out of domain: {model:?}"),
        ))
    }
}

// ---------------------------------------------------------------------------
// JSON codec helpers. Explicit field-by-field encoding keeps the corpus
// format independent of Rust field order and lets parsing stay strict.

fn bad(field: &str, what: &str) -> SimError {
    SimError::invalid("scenario.json", format!("field `{field}`: {what}"))
}

fn get_u64(doc: &Json, field: &str) -> Result<u64, SimError> {
    doc.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(field, "missing or not a non-negative integer"))
}

/// Seeds span the full `u64` range, which JSON's `f64` numbers cannot
/// represent above 2^53 — so they serialize as decimal strings. Plain
/// numbers are still accepted (hand-written corpus files use small
/// seeds), but only below the exact-integer threshold.
fn seed_to_json(seed: u64) -> Json {
    Json::Str(seed.to_string())
}

fn get_seed(doc: &Json, field: &str) -> Result<u64, SimError> {
    match doc.get(field) {
        Some(Json::Str(s)) => s
            .parse::<u64>()
            .map_err(|_| bad(field, "seed string is not a u64")),
        Some(other) => match other.as_u64() {
            Some(n) if n < (1 << 53) => Ok(n),
            _ => Err(bad(
                field,
                "numeric seed must be an exact integer below 2^53",
            )),
        },
        None => Err(bad(field, "missing seed")),
    }
}

fn get_num(doc: &Json, field: &str) -> Result<f64, SimError> {
    doc.get(field)
        .and_then(Json::as_num)
        .ok_or_else(|| bad(field, "missing or not a number"))
}

fn get_str<'j>(doc: &'j Json, field: &str) -> Result<&'j str, SimError> {
    doc.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(field, "missing or not a string"))
}

fn task_name(task: TaskProfile) -> &'static str {
    match task {
        TaskProfile::CpuBound => "cpu_bound",
        TaskProfile::MemoryBound => "memory_bound",
        TaskProfile::Mixed => "mixed",
        TaskProfile::Idle => "idle",
        TaskProfile::Bursty => "bursty",
        TaskProfile::WebServer => "web_server",
    }
}

fn task_from_name(name: &str) -> Result<TaskProfile, SimError> {
    match name {
        "cpu_bound" => Ok(TaskProfile::CpuBound),
        "memory_bound" => Ok(TaskProfile::MemoryBound),
        "mixed" => Ok(TaskProfile::Mixed),
        "idle" => Ok(TaskProfile::Idle),
        "bursty" => Ok(TaskProfile::Bursty),
        "web_server" => Ok(TaskProfile::WebServer),
        other => Err(bad("task", &format!("unknown task profile `{other}`"))),
    }
}

fn speed_name(speed: FanSpeed) -> &'static str {
    match speed {
        FanSpeed::Low => "low",
        FanSpeed::Medium => "medium",
        FanSpeed::High => "high",
    }
}

fn speed_from_name(name: &str) -> Result<FanSpeed, SimError> {
    match name {
        "low" => Ok(FanSpeed::Low),
        "medium" => Ok(FanSpeed::Medium),
        "high" => Ok(FanSpeed::High),
        other => Err(bad("speed", &format!("unknown fan speed `{other}`"))),
    }
}

fn ambient_to_json(model: &AmbientModel) -> Json {
    match model {
        AmbientModel::Fixed(v) => {
            Json::obj(vec![("type", Json::str("fixed")), ("c", Json::Num(*v))])
        }
        AmbientModel::Diurnal {
            mean,
            amplitude,
            period_secs,
        } => Json::obj(vec![
            ("type", Json::str("diurnal")),
            ("mean", Json::Num(*mean)),
            ("amplitude", Json::Num(*amplitude)),
            ("period_secs", Json::Num(*period_secs)),
        ]),
        AmbientModel::Crac {
            setpoint,
            degrees_per_kw,
        } => Json::obj(vec![
            ("type", Json::str("crac")),
            ("setpoint", Json::Num(*setpoint)),
            ("degrees_per_kw", Json::Num(*degrees_per_kw)),
        ]),
        AmbientModel::Schedule(entries) => Json::obj(vec![
            ("type", Json::str("schedule")),
            (
                "entries",
                Json::Arr(
                    entries
                        .iter()
                        .map(|(at, v)| {
                            Json::Arr(vec![Json::Num(at.as_millis() as f64), Json::Num(*v)])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn ambient_from_json(doc: &Json) -> Result<AmbientModel, SimError> {
    match get_str(doc, "type")? {
        "fixed" => Ok(AmbientModel::Fixed(get_num(doc, "c")?)),
        "diurnal" => Ok(AmbientModel::Diurnal {
            mean: get_num(doc, "mean")?,
            amplitude: get_num(doc, "amplitude")?,
            period_secs: get_num(doc, "period_secs")?,
        }),
        "crac" => Ok(AmbientModel::Crac {
            setpoint: get_num(doc, "setpoint")?,
            degrees_per_kw: get_num(doc, "degrees_per_kw")?,
        }),
        "schedule" => {
            let Some(Json::Arr(items)) = doc.get("entries") else {
                return Err(bad("ambient.entries", "missing or not an array"));
            };
            let mut entries = Vec::with_capacity(items.len());
            for item in items {
                let Json::Arr(pair) = item else {
                    return Err(bad("ambient.entries", "entry must be [ms, c]"));
                };
                let (Some(at), Some(v)) = (
                    pair.first().and_then(Json::as_u64),
                    pair.get(1).and_then(Json::as_num),
                ) else {
                    return Err(bad("ambient.entries", "entry must be [ms, c]"));
                };
                entries.push((SimTime::from_millis(at), v));
            }
            Ok(AmbientModel::Schedule(entries))
        }
        other => Err(bad("ambient.type", &format!("unknown model `{other}`"))),
    }
}

fn windows_to_json(windows: &[(f64, f64)]) -> Json {
    Json::Arr(
        windows
            .iter()
            .map(|(a, b)| Json::Arr(vec![Json::Num(*a), Json::Num(*b)]))
            .collect(),
    )
}

fn windows_from_json(doc: &Json, field: &str) -> Result<Vec<(f64, f64)>, SimError> {
    match doc.get(field) {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => {
            let mut windows = Vec::with_capacity(items.len());
            for item in items {
                let Json::Arr(pair) = item else {
                    return Err(bad(field, "window must be [start, end]"));
                };
                let (Some(a), Some(b)) = (
                    pair.first().and_then(Json::as_num),
                    pair.get(1).and_then(Json::as_num),
                ) else {
                    return Err(bad(field, "window must be [start, end]"));
                };
                windows.push((a, b));
            }
            Ok(windows)
        }
        Some(_) => Err(bad(field, "must be an array of [start, end] pairs")),
    }
}

fn fault_to_json(plan: &FaultPlan) -> Json {
    let mut pairs = vec![("seed", seed_to_json(plan.seed))];
    if let Some(d) = &plan.dropout {
        pairs.push((
            "dropout",
            Json::obj(vec![
                ("window_prob", Json::Num(d.window_prob)),
                ("min_secs", Json::Num(d.min_secs)),
                ("max_secs", Json::Num(d.max_secs)),
                ("windows", windows_to_json(&d.windows)),
            ]),
        ));
    }
    if let Some(s) = &plan.stuck {
        pairs.push((
            "stuck",
            Json::obj(vec![
                ("window_prob", Json::Num(s.window_prob)),
                ("min_secs", Json::Num(s.min_secs)),
                ("max_secs", Json::Num(s.max_secs)),
                ("windows", windows_to_json(&s.windows)),
            ]),
        ));
    }
    if let Some(s) = &plan.spike {
        pairs.push((
            "spike",
            Json::obj(vec![
                ("prob", Json::Num(s.prob)),
                ("min_magnitude_c", Json::Num(s.min_magnitude_c)),
                ("max_magnitude_c", Json::Num(s.max_magnitude_c)),
                ("at", windows_to_json(&s.at)),
            ]),
        ));
    }
    if let Some(j) = &plan.jitter {
        pairs.push((
            "jitter",
            Json::obj(vec![
                ("prob", Json::Num(j.prob)),
                ("max_skew_secs", Json::Num(j.max_skew_secs)),
            ]),
        ));
    }
    if let Some(l) = &plan.lost_events {
        pairs.push(("lost_events", Json::obj(vec![("prob", Json::Num(l.prob))])));
    }
    Json::obj(pairs)
}

fn fault_from_json(doc: &Json) -> Result<FaultPlan, SimError> {
    if matches!(doc, Json::Null) {
        return Ok(FaultPlan::none());
    }
    let mut plan = FaultPlan::new(get_seed(doc, "seed").unwrap_or(0));
    if let Some(d) = doc.get("dropout") {
        plan.dropout = Some(DropoutFault {
            window_prob: get_num(d, "window_prob")?,
            min_secs: get_num(d, "min_secs")?,
            max_secs: get_num(d, "max_secs")?,
            windows: windows_from_json(d, "windows")?,
        });
    }
    if let Some(s) = doc.get("stuck") {
        plan.stuck = Some(StuckFault {
            window_prob: get_num(s, "window_prob")?,
            min_secs: get_num(s, "min_secs")?,
            max_secs: get_num(s, "max_secs")?,
            windows: windows_from_json(s, "windows")?,
        });
    }
    if let Some(s) = doc.get("spike") {
        plan.spike = Some(SpikeFault {
            prob: get_num(s, "prob")?,
            min_magnitude_c: get_num(s, "min_magnitude_c")?,
            max_magnitude_c: get_num(s, "max_magnitude_c")?,
            at: windows_from_json(s, "at")?,
        });
    }
    if let Some(j) = doc.get("jitter") {
        plan.jitter = Some(JitterFault {
            prob: get_num(j, "prob")?,
            max_skew_secs: get_num(j, "max_skew_secs")?,
        });
    }
    if let Some(l) = doc.get("lost_events") {
        plan.lost_events = Some(LostEventFault {
            prob: get_num(l, "prob")?,
        });
    }
    Ok(plan)
}

fn event_to_json((at, event): &(SimTime, Event)) -> Json {
    let mut pairs = vec![("at_ms", Json::Num(at.as_millis() as f64))];
    match event {
        Event::BootVm { server, spec } => {
            pairs.push(("type", Json::str("boot_vm")));
            pairs.push(("server", Json::Num(server.raw() as f64)));
            pairs.push(("vcpus", Json::Num(f64::from(spec.vcpus()))));
            pairs.push(("memory_gb", Json::Num(spec.memory_gb())));
            pairs.push(("task", Json::str(task_name(spec.task()))));
        }
        Event::StopVm(vm) => {
            pairs.push(("type", Json::str("stop_vm")));
            pairs.push(("vm", Json::Num(vm.raw() as f64)));
        }
        Event::MigrateVm { vm, dest } => {
            pairs.push(("type", Json::str("migrate")));
            pairs.push(("vm", Json::Num(vm.raw() as f64)));
            pairs.push(("dest", Json::Num(dest.raw() as f64)));
        }
        Event::SetFanSpeed { server, speed } => {
            pairs.push(("type", Json::str("set_fan_speed")));
            pairs.push(("server", Json::Num(server.raw() as f64)));
            pairs.push(("speed", Json::str(speed_name(*speed))));
        }
        Event::FailFans { server, count } => {
            pairs.push(("type", Json::str("fail_fans")));
            pairs.push(("server", Json::Num(server.raw() as f64)));
            pairs.push(("count", Json::Num(f64::from(*count))));
        }
        Event::SetAmbient(model) => {
            pairs.push(("type", Json::str("set_ambient")));
            pairs.push(("model", ambient_to_json(model)));
        }
    }
    Json::obj(pairs)
}

fn event_from_json(doc: &Json) -> Result<(SimTime, Event), SimError> {
    let at = SimTime::from_millis(get_u64(doc, "at_ms")?);
    let server = |field| Ok::<_, SimError>(ServerId::new(get_u64(doc, field)? as usize));
    let event = match get_str(doc, "type")? {
        "boot_vm" => {
            let vcpus = u32::try_from(get_u64(doc, "vcpus")?)
                .map_err(|_| bad("vcpus", "out of u32 range"))?;
            let memory_gb = get_num(doc, "memory_gb")?;
            // `VmSpec::new` asserts its domain; reject here instead.
            if vcpus == 0 || !(memory_gb > 0.0) {
                return Err(bad("boot_vm", "needs vcpus >= 1 and memory_gb > 0"));
            }
            Event::BootVm {
                server: server("server")?,
                spec: VmSpec::new(
                    SCHEDULED_VM_NAME,
                    vcpus,
                    memory_gb,
                    task_from_name(get_str(doc, "task")?)?,
                ),
            }
        }
        "stop_vm" => Event::StopVm(VmId::new(get_u64(doc, "vm")?)),
        "migrate" => Event::MigrateVm {
            vm: VmId::new(get_u64(doc, "vm")?),
            dest: server("dest")?,
        },
        "set_fan_speed" => Event::SetFanSpeed {
            server: server("server")?,
            speed: speed_from_name(get_str(doc, "speed")?)?,
        },
        "fail_fans" => Event::FailFans {
            server: server("server")?,
            count: u32::try_from(get_u64(doc, "count")?)
                .map_err(|_| bad("count", "out of u32 range"))?,
        },
        "set_ambient" => {
            Event::SetAmbient(ambient_from_json(doc.get("model").unwrap_or(&Json::Null))?)
        }
        other => return Err(bad("type", &format!("unknown event type `{other}`"))),
    };
    Ok((at, event))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            name: "codec-roundtrip".to_string(),
            seed: 77,
            servers: 3,
            vms_per_server: 2,
            duration: SimDuration::from_secs(120),
            ambient: AmbientModel::Diurnal {
                mean: 24.0,
                amplitude: 2.5,
                period_secs: 600.0,
            },
            fault: FaultPlan::new(9)
                .with_dropout(DropoutFault::scheduled(vec![(10.0, 20.0)]).unwrap())
                .with_spike(SpikeFault::random(0.05, Celsius::new(2.0), Celsius::new(6.0)).unwrap())
                .with_jitter(JitterFault::random(0.1, vmtherm_units::Seconds::new(1.5)).unwrap()),
            events: vec![
                (
                    SimTime::from_secs(30),
                    Event::BootVm {
                        server: ServerId::new(1),
                        spec: VmSpec::new(SCHEDULED_VM_NAME, 2, 4.0, TaskProfile::Bursty),
                    },
                ),
                (
                    SimTime::from_secs(50),
                    Event::MigrateVm {
                        vm: VmId::new(0),
                        dest: ServerId::new(2),
                    },
                ),
                (
                    SimTime::from_secs(70),
                    Event::SetAmbient(AmbientModel::Fixed(31.0)),
                ),
                (
                    SimTime::from_secs(80),
                    Event::SetFanSpeed {
                        server: ServerId::new(0),
                        speed: FanSpeed::High,
                    },
                ),
                (
                    SimTime::from_secs(90),
                    Event::FailFans {
                        server: ServerId::new(2),
                        count: 1,
                    },
                ),
                (SimTime::from_secs(100), Event::StopVm(VmId::new(3))),
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let scenario = sample();
        let text = scenario.to_json_string();
        let back = Scenario::parse(&text).expect("parse");
        assert_eq!(scenario, back);
        // Rendering is deterministic: a second trip is byte-identical.
        assert_eq!(text, back.to_json_string());
    }

    #[test]
    fn parse_rejects_schema_drift_and_bad_fields() {
        assert!(Scenario::parse("not json").is_err());
        assert!(Scenario::parse("{\"schema\": 999}").is_err());
        let mut scenario = sample();
        scenario.name = "bad name with spaces".to_string();
        assert!(Scenario::parse(&scenario.to_json_string()).is_err());
        let mut scenario = sample();
        scenario.events[0] = (
            SimTime::ZERO,
            Event::FailFans {
                server: ServerId::new(99),
                count: 1,
            },
        );
        assert!(Scenario::parse(&scenario.to_json_string()).is_err());
        // A boot outside `VmSpec`'s domain is a parse error, not a panic.
        let text = sample().to_json_string();
        for (field, value) in [("vcpus", "0"), ("memory_gb", "0"), ("memory_gb", "-1")] {
            let from = format!("\"{field}\": {}", if field == "vcpus" { "2" } else { "4" });
            let edited = text.replacen(&from, &format!("\"{field}\": {value}"), 1);
            assert_ne!(edited, text, "{from} not found");
            assert!(
                Scenario::parse(&edited).is_err(),
                "{field} = {value} parsed"
            );
        }
    }

    #[test]
    fn validate_enforces_domain_limits() {
        let mut s = Scenario::quiet("ok", 1, 2, SimDuration::from_secs(30));
        assert!(s.validate().is_ok());
        s.servers = 0;
        assert!(s.validate().is_err());
        s.servers = MAX_SERVERS + 1;
        assert!(s.validate().is_err());
        s.servers = 2;
        s.duration = SimDuration::ZERO;
        assert!(s.validate().is_err());
        s.duration = SimDuration::from_secs(30);
        s.vms_per_server = MAX_VMS_PER_SERVER + 1;
        assert!(s.validate().is_err());
        s.vms_per_server = 0;
        s.ambient = AmbientModel::Fixed(f64::NAN);
        assert!(s.validate().is_err());
    }

    #[test]
    fn build_boots_initial_vms_and_schedules_events() {
        let scenario = sample();
        let sim = scenario.build(ClockMode::Fixed).expect("build");
        assert_eq!(sim.datacenter().len(), 3);
        let vms: usize = (0..3)
            .map(|s| {
                sim.datacenter()
                    .server(ServerId::new(s))
                    .expect("server")
                    .vm_count()
            })
            .sum();
        assert_eq!(vms as u64, scenario.initial_vms());
    }

    #[test]
    fn fuzzer_finds_and_shrinks_planted_ambient_settle_bug() {
        // Arm the test-only defect: `settle_for` skips the
        // settle-before-mutation pass on ambient swaps, so sleeping
        // servers later integrate their whole skipped span under the
        // new ambient. The fuzzer must (a) surface it within a bounded
        // case budget and (b) shrink the repro to at most 3 events.
        crate::engine::planted::set_skip_ambient_settle(true);
        let mut found = None;
        for index in 0..80 {
            let scenario = generate::scenario(0xF00D, index);
            let report = oracle::check_scenario(&scenario).expect("battery");
            if let Some(first) = report.failures.first() {
                found = Some((scenario, first.clone()));
                break;
            }
        }
        let (scenario, failure) =
            found.expect("planted settle bug not surfaced within 80 fuzz cases");
        let result = shrink::shrink(&scenario, failure, 400, &mut |candidate| {
            oracle::check_scenario(candidate)
                .ok()
                .and_then(|r| r.failures.first().cloned())
        });
        assert!(
            result.scenario.events.len() <= 3,
            "repro not minimal: {} events in {}",
            result.scenario.events.len(),
            result.scenario.to_json_string()
        );
        // The minimized repro round-trips through the corpus format…
        let text = result.scenario.to_json_string();
        assert_eq!(Scenario::parse(&text).expect("parse"), result.scenario);
        // …and passes again once the defect is disarmed, proving the
        // failure was the planted bug and not an oracle artifact.
        crate::engine::planted::set_skip_ambient_settle(false);
        let clean = oracle::check_scenario(&result.scenario).expect("battery");
        assert!(
            clean.passed(),
            "disarmed repro still fails: {:?}",
            clean.failures
        );
    }

    #[test]
    fn clean_scenario_builds_without_plan() {
        let scenario = Scenario::quiet("clean", 3, 2, SimDuration::from_secs(20));
        assert!(scenario.build_without_fault_plan(ClockMode::Fixed).is_ok());
        let mut faulted = scenario;
        faulted.fault = FaultPlan::new(1)
            .with_jitter(JitterFault::random(0.1, vmtherm_units::Seconds::new(1.0)).unwrap());
        assert!(faulted.build_without_fault_plan(ClockMode::Fixed).is_err());
    }
}
