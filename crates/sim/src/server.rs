//! Physical servers: capacity, hosted VMs, thermal state and sensors.

use crate::error::SimError;
use crate::fan::{FanBank, FanSpeed};
use crate::power::PowerModel;
use crate::sensor::{SensorConfig, TemperatureSensor};
use crate::thermal::{integrate, Integration, ThermalNetwork, ThermalParams};
use crate::time::SimTime;
use crate::vm::{Vm, VmId};
use serde::{Deserialize, Serialize};
use vmtherm_units::{Celsius, Seconds, Utilization, Watts};

/// Opaque server identifier (index into the datacenter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(usize);

impl ServerId {
    /// Wraps a raw index.
    #[must_use]
    pub fn new(raw: usize) -> Self {
        ServerId(raw)
    }

    /// The raw index.
    #[must_use]
    pub fn raw(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// Static configuration of a server — the θ_cpu, θ_memory, θ_fan inputs of
/// the paper's Eq. (2), plus the physical models behind them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    name: String,
    cores: u32,
    ghz_per_core: f64,
    memory_gb: f64,
    fans: FanBank,
    power: PowerModel,
    thermal: ThermalParams,
    sensor: SensorConfig,
}

impl ServerSpec {
    /// A commodity server with models scaled to the given capacity.
    ///
    /// # Panics
    ///
    /// Panics on zero cores or non-positive clock/memory.
    #[must_use]
    pub fn commodity(
        name: impl Into<String>,
        cores: u32,
        ghz_per_core: f64,
        memory_gb: f64,
        fan_count: u32,
    ) -> Self {
        assert!(cores > 0, "server needs cores");
        assert!(ghz_per_core > 0.0, "server needs a positive clock");
        assert!(memory_gb > 0.0, "server needs memory");
        ServerSpec {
            name: name.into(),
            cores,
            ghz_per_core,
            memory_gb,
            fans: FanBank::new(fan_count),
            power: PowerModel::for_capacity(cores, ghz_per_core),
            thermal: ThermalParams::default(),
            sensor: SensorConfig::default(),
        }
    }

    /// The testbed-like default: 16 cores @ 2.4 GHz, 64 GB, 4 fans.
    #[must_use]
    pub fn standard(name: impl Into<String>) -> Self {
        ServerSpec::commodity(name, 16, 2.4, 64.0, 4)
    }

    /// Overrides the power model.
    #[must_use]
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Overrides the thermal parameters.
    #[must_use]
    pub fn with_thermal(mut self, thermal: ThermalParams) -> Self {
        self.thermal = thermal;
        self
    }

    /// Overrides the sensor model.
    #[must_use]
    pub fn with_sensor(mut self, sensor: SensorConfig) -> Self {
        self.sensor = sensor;
        self
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical core count.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Per-core clock (GHz).
    #[must_use]
    pub fn ghz_per_core(&self) -> f64 {
        self.ghz_per_core
    }

    /// Installed memory (GB) — θ_memory.
    #[must_use]
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// Aggregate CPU capacity in core·GHz — θ_cpu.
    #[must_use]
    pub fn theta_cpu(&self) -> f64 {
        self.cores as f64 * self.ghz_per_core
    }

    /// Fan bank configuration.
    #[must_use]
    pub fn fans(&self) -> FanBank {
        self.fans
    }

    /// Power model.
    #[must_use]
    pub fn power(&self) -> PowerModel {
        self.power
    }

    /// Thermal network parameters.
    #[must_use]
    pub fn thermal(&self) -> ThermalParams {
        self.thermal
    }

    /// Sensor model.
    #[must_use]
    pub fn sensor(&self) -> SensorConfig {
        self.sensor
    }
}

/// A live server: hosted VMs plus thermal and sensor state.
#[derive(Debug, Clone)]
pub struct Server {
    id: ServerId,
    spec: ServerSpec,
    fans: FanBank,
    vms: Vec<Vm>,
    network: ThermalNetwork,
    sensor: TemperatureSensor,
    /// Extra vCPU-units of load imposed by in-flight migrations.
    migration_overhead: f64,
    /// Utilization computed during the last step, for telemetry.
    last_utilization: f64,
    /// Power computed during the last step (W).
    last_power: f64,
}

impl Server {
    /// Creates a server in thermal equilibrium with `ambient_c`.
    #[must_use]
    pub fn new(id: ServerId, spec: ServerSpec, ambient_c: Celsius, seed: u64) -> Self {
        let network = ThermalNetwork::new(spec.thermal(), ambient_c);
        let sensor = TemperatureSensor::new(spec.sensor(), seed ^ (id.raw() as u64) << 17);
        let fans = spec.fans();
        Server {
            id,
            spec,
            fans,
            vms: Vec::new(),
            network,
            sensor,
            migration_overhead: 0.0,
            last_utilization: 0.0,
            last_power: 0.0,
        }
    }

    /// Identifier.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Static spec.
    #[must_use]
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Current fan bank (speed may differ from the spec if a policy or
    /// event changed it).
    #[must_use]
    pub fn fans(&self) -> FanBank {
        self.fans
    }

    /// Sets the fan speed level.
    pub fn set_fan_speed(&mut self, speed: FanSpeed) {
        self.fans.set_speed(speed);
    }

    /// Injects a fan failure: `n` more fans stop spinning.
    pub fn fail_fans(&mut self, n: u32) {
        self.fans.fail(n);
    }

    /// Hosted VMs.
    #[must_use]
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Mutable access to hosted VMs (engine use).
    pub fn vms_mut(&mut self) -> &mut [Vm] {
        &mut self.vms
    }

    /// Places a VM on this server.
    ///
    /// # Errors
    ///
    /// [`SimError::InsufficientMemory`] if configured memory would exceed
    /// installed memory. CPU is intentionally *not* checked: clouds
    /// overcommit CPU, and oversubscription is one of the heterogeneity
    /// effects the paper's learner must capture.
    pub fn boot_vm(&mut self, vm: Vm) -> Result<(), SimError> {
        let used: f64 = self.vms.iter().map(|v| v.spec().memory_gb()).sum();
        let requested = vm.spec().memory_gb();
        if used + requested > self.spec.memory_gb() {
            return Err(SimError::InsufficientMemory {
                server: self.id,
                requested_gb: requested,
                available_gb: self.spec.memory_gb() - used,
            });
        }
        self.vms.push(vm);
        Ok(())
    }

    /// Removes and returns a VM (for stop or migration cut-over).
    pub fn take_vm(&mut self, id: VmId) -> Option<Vm> {
        let idx = self.vms.iter().position(|v| v.id() == id)?;
        Some(self.vms.remove(idx))
    }

    /// Whether this server hosts the VM.
    #[must_use]
    pub fn hosts(&self, id: VmId) -> bool {
        self.vms.iter().any(|v| v.id() == id)
    }

    /// Number of hosted VMs.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Adds (or removes, with a negative value) migration CPU overhead in
    /// vCPU units.
    pub fn add_migration_overhead(&mut self, delta_vcpus: f64) {
        self.migration_overhead = (self.migration_overhead + delta_vcpus).max(0.0);
    }

    /// Actively used memory across VMs (GB).
    #[must_use]
    pub fn active_memory_gb(&self) -> f64 {
        self.vms.iter().map(Vm::active_memory_gb).sum()
    }

    /// Advances the server's physics by `dt_secs` at time `t` under
    /// `ambient_c`, updating utilization, power, and the thermal network.
    pub fn step(&mut self, t: SimTime, ambient_c: Celsius, dt_secs: Seconds) {
        let mut plan = self.begin_step(t, ambient_c, dt_secs);
        integrate(std::slice::from_mut(&mut plan));
        self.end_step(plan);
    }

    /// The first half of [`Server::step`]: queries demand, computes
    /// utilization, power and sink resistance, records them as the last
    /// step's, and returns the thermal plan, which the caller runs
    /// through [`integrate`] (possibly batched with other servers') and
    /// hands to [`Server::end_step`].
    pub(crate) fn begin_step(
        &mut self,
        t: SimTime,
        ambient_c: Celsius,
        dt_secs: Seconds,
    ) -> Integration {
        // One demand query per VM per step (workload generators advance on
        // each query).
        let overhead = (self.migration_overhead > 0.0).then_some(self.migration_overhead);
        let total_demand: f64 = self
            .vms
            .iter_mut()
            .map(|vm| vm.cpu_demand(t))
            .chain(overhead)
            .sum();
        let util = Utilization::saturating((total_demand / self.spec.cores() as f64).min(1.0));
        let power = self.spec.power().total_power(util, self.active_memory_gb());
        let r_sa = self.fans.sink_resistance();
        self.last_utilization = util.as_fraction();
        self.last_power = power;
        self.network
            .plan(Watts::new(power), ambient_c, r_sa, dt_secs)
    }

    /// The second half of [`Server::step`]: adopts the integrated plan
    /// [`Server::begin_step`] returned.
    pub(crate) fn end_step(&mut self, plan: Integration) {
        self.network.commit(plan);
    }

    /// True die temperature (°C) — ground truth, not observable in a real
    /// deployment.
    #[must_use]
    pub fn die_temperature(&self) -> f64 {
        self.network.die_temperature()
    }

    /// One sensor reading of the die temperature (noisy, quantized) — what
    /// a real deployment observes.
    pub fn read_sensor(&mut self) -> f64 {
        let t = self.die_temperature();
        self.sensor.read(Celsius::new(t))
    }

    /// Utilization from the most recent [`Server::step`].
    #[must_use]
    pub fn last_utilization(&self) -> f64 {
        self.last_utilization
    }

    /// Power from the most recent [`Server::step`] (W).
    #[must_use]
    pub fn last_power(&self) -> f64 {
        self.last_power
    }

    /// Heat this server currently dumps into the room (W), including fans.
    #[must_use]
    pub fn room_heat_watts(&self) -> f64 {
        self.last_power + self.fans.fan_power()
    }

    /// `true` when every input to this server's physics is constant
    /// between reconfiguration events: every hosted VM's demand is
    /// time-invariant.
    /// Event-driven stepping may integrate across several ticks in one
    /// call only under this predicate — the integration is then bitwise
    /// identical to stepping every tick (see
    /// [`crate::thermal::ThermalNetwork::step`]'s sub-stepping).
    #[must_use]
    pub fn inputs_piecewise_constant(&self) -> bool {
        self.vms.iter().all(Vm::demand_is_constant)
    }

    /// Largest instantaneous node temperature rate |dT/dt| (°C/s) of the
    /// thermal network at the current state, assuming the most recent
    /// power draw persists.
    #[must_use]
    pub fn thermal_rate_c_per_s(&self, ambient_c: Celsius) -> f64 {
        let (d_die, d_sink) = self.network.rates(
            Watts::new(self.last_power),
            ambient_c,
            self.fans.sink_resistance(),
        );
        d_die.abs().max(d_sink.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amb(v: f64) -> Celsius {
        Celsius::new(v)
    }

    use crate::vm::VmSpec;
    use crate::workload::TaskProfile;

    fn server() -> Server {
        Server::new(ServerId::new(0), ServerSpec::standard("s0"), amb(25.0), 42)
    }

    fn vm(id: u64, vcpus: u32, mem: f64, task: TaskProfile) -> Vm {
        Vm::new(
            VmId::new(id),
            VmSpec::new(format!("vm{id}"), vcpus, mem, task),
            id,
        )
    }

    #[test]
    fn spec_theta_cpu() {
        let s = ServerSpec::standard("x");
        assert!((s.theta_cpu() - 38.4).abs() < 1e-12);
    }

    #[test]
    fn boot_respects_memory_capacity() {
        let mut s = server();
        assert!(s.boot_vm(vm(1, 2, 40.0, TaskProfile::Mixed)).is_ok());
        assert!(s.boot_vm(vm(2, 2, 20.0, TaskProfile::Mixed)).is_ok());
        let err = s.boot_vm(vm(3, 2, 10.0, TaskProfile::Mixed)).unwrap_err();
        assert!(matches!(err, SimError::InsufficientMemory { .. }));
        assert_eq!(s.vm_count(), 2);
    }

    #[test]
    fn cpu_overcommit_is_allowed_but_saturates() {
        let mut s = server();
        for i in 0..10 {
            s.boot_vm(vm(i, 4, 4.0, TaskProfile::CpuBound)).unwrap();
        }
        // 40 vcpus at ~0.9 on 16 cores: saturated.
        s.step(SimTime::from_secs(10), amb(25.0), Seconds::new(1.0));
        assert_eq!(s.last_utilization(), 1.0);
    }

    #[test]
    fn take_vm_removes_and_returns() {
        let mut s = server();
        s.boot_vm(vm(1, 1, 2.0, TaskProfile::Idle)).unwrap();
        assert!(s.hosts(VmId::new(1)));
        let out = s.take_vm(VmId::new(1)).unwrap();
        assert_eq!(out.id(), VmId::new(1));
        assert!(!s.hosts(VmId::new(1)));
        assert!(s.take_vm(VmId::new(1)).is_none());
    }

    #[test]
    fn idle_server_stays_near_ambient_plus_idle_power_rise() {
        let mut s = server();
        for sec in 0..1200 {
            s.step(SimTime::from_secs(sec), amb(25.0), Seconds::new(1.0));
        }
        // Idle power still produces some rise, but die stays modest.
        let t = s.die_temperature();
        assert!(t > 25.0 && t < 45.0, "idle die temp {t}");
    }

    #[test]
    fn loaded_server_runs_hotter_than_idle() {
        let mut idle = server();
        let mut busy = Server::new(ServerId::new(1), ServerSpec::standard("s1"), amb(25.0), 43);
        for i in 0..8 {
            busy.boot_vm(vm(i, 2, 4.0, TaskProfile::CpuBound)).unwrap();
        }
        for sec in 0..1200 {
            idle.step(SimTime::from_secs(sec), amb(25.0), Seconds::new(1.0));
            busy.step(SimTime::from_secs(sec), amb(25.0), Seconds::new(1.0));
        }
        assert!(
            busy.die_temperature() > idle.die_temperature() + 8.0,
            "busy {} vs idle {}",
            busy.die_temperature(),
            idle.die_temperature()
        );
    }

    #[test]
    fn migration_overhead_raises_utilization() {
        let mut s = server();
        s.boot_vm(vm(1, 4, 8.0, TaskProfile::Mixed)).unwrap();
        let utilization_at_1s = |s: &mut Server| {
            s.step(SimTime::from_secs(1), amb(25.0), Seconds::new(1.0));
            s.last_utilization()
        };
        let base = utilization_at_1s(&mut s);
        s.add_migration_overhead(2.0);
        let with = utilization_at_1s(&mut s);
        assert!(with > base);
        s.add_migration_overhead(-5.0); // clamps at zero
        let cleared = utilization_at_1s(&mut s);
        assert!(cleared <= with);
    }

    #[test]
    fn sensor_reading_tracks_die_temperature() {
        let mut s = server();
        for i in 0..4 {
            s.boot_vm(vm(i, 4, 8.0, TaskProfile::CpuBound)).unwrap();
        }
        for sec in 0..900 {
            s.step(SimTime::from_secs(sec), amb(25.0), Seconds::new(1.0));
        }
        let true_t = s.die_temperature();
        let mean_reading: f64 = (0..100).map(|_| s.read_sensor()).sum::<f64>() / 100.0;
        assert!(
            (mean_reading - true_t).abs() < 0.5,
            "{mean_reading} vs {true_t}"
        );
    }

    #[test]
    fn more_fans_cooler_die_at_same_load() {
        let few = ServerSpec::commodity("few", 16, 2.4, 64.0, 2);
        let many = ServerSpec::commodity("many", 16, 2.4, 64.0, 6);
        let mut a = Server::new(ServerId::new(0), few, amb(25.0), 1);
        let mut b = Server::new(ServerId::new(1), many, amb(25.0), 1);
        for i in 0..4 {
            a.boot_vm(vm(i, 4, 8.0, TaskProfile::CpuBound)).unwrap();
            b.boot_vm(vm(10 + i, 4, 8.0, TaskProfile::CpuBound))
                .unwrap();
        }
        for sec in 0..1200 {
            a.step(SimTime::from_secs(sec), amb(25.0), Seconds::new(1.0));
            b.step(SimTime::from_secs(sec), amb(25.0), Seconds::new(1.0));
        }
        assert!(b.die_temperature() < a.die_temperature() - 2.0);
    }

    #[test]
    fn room_heat_includes_fans() {
        let mut s = server();
        s.step(SimTime::ZERO, amb(25.0), Seconds::new(1.0));
        assert!(s.room_heat_watts() > s.last_power());
    }
}
