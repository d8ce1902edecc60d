//! Virtual machines: specifications and runtime instances.

use crate::time::SimTime;
use crate::workload::{TaskProfile, UtilizationGenerator};
use serde::{Deserialize, Serialize};

/// Opaque VM identifier, unique within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(u64);

impl VmId {
    /// Wraps a raw id (the engine allocates these sequentially).
    #[must_use]
    pub fn new(raw: u64) -> Self {
        VmId(raw)
    }

    /// The raw value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// Static configuration of a VM — the "VM configurations and deployed
/// tasks" half of the paper's ξ_VM input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    name: String,
    vcpus: u32,
    memory_gb: f64,
    task: TaskProfile,
}

impl VmSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `vcpus` is zero or `memory_gb` is non-positive.
    #[must_use]
    pub fn new(name: impl Into<String>, vcpus: u32, memory_gb: f64, task: TaskProfile) -> Self {
        assert!(vcpus > 0, "vm needs at least one vcpu");
        assert!(memory_gb > 0.0, "vm needs positive memory");
        VmSpec {
            name: name.into(),
            vcpus,
            memory_gb,
            task,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of virtual CPUs.
    #[must_use]
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// Configured memory (GB).
    #[must_use]
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// The deployed task.
    #[must_use]
    pub fn task(&self) -> TaskProfile {
        self.task
    }

    /// Long-run expected CPU demand in vCPU units (`vcpus × nominal`).
    #[must_use]
    pub fn nominal_demand(&self) -> f64 {
        self.vcpus as f64 * self.task.nominal_cpu()
    }
}

/// VM lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VmState {
    /// Executing on a host.
    Running,
    /// Being live-migrated (still executing on the source).
    Migrating,
    /// Shut down.
    Stopped,
}

/// A running VM instance with its private workload generator.
#[derive(Debug, Clone)]
pub struct Vm {
    id: VmId,
    spec: VmSpec,
    state: VmState,
    workload: UtilizationGenerator,
}

impl Vm {
    /// Instantiates a VM; `seed` decorrelates its workload trace from other
    /// VMs with the same profile.
    #[must_use]
    pub fn new(id: VmId, spec: VmSpec, seed: u64) -> Self {
        let workload = spec
            .task()
            .utilization_model(seed ^ id.raw())
            .into_generator();
        Vm {
            id,
            spec,
            state: VmState::Running,
            workload,
        }
    }

    /// Identifier.
    #[must_use]
    pub fn id(&self) -> VmId {
        self.id
    }

    /// Static spec.
    #[must_use]
    pub fn spec(&self) -> &VmSpec {
        &self.spec
    }

    /// Lifecycle state.
    #[must_use]
    pub fn state(&self) -> VmState {
        self.state
    }

    /// Sets the lifecycle state (engine/migration use).
    pub fn set_state(&mut self, state: VmState) {
        self.state = state;
    }

    /// Replaces the workload generator — used to drive a VM from a
    /// recorded utilization trace instead of its task profile's synthetic
    /// model.
    pub fn replace_workload(&mut self, workload: UtilizationGenerator) {
        self.workload = workload;
    }

    /// Instantaneous CPU demand at `t`, in vCPU units (`0..=vcpus`).
    /// Stopped VMs demand nothing.
    pub fn cpu_demand(&mut self, t: SimTime) -> f64 {
        if self.state == VmState::Stopped {
            return 0.0;
        }
        self.spec.vcpus() as f64 * self.workload.at(t)
    }

    /// `true` when [`Vm::cpu_demand`] returns the same value at every
    /// query time and consumes no randomness: stopped VMs and constant
    /// workload models. The event-driven engine only lets a host sleep
    /// across ticks when every resident VM satisfies this.
    #[must_use]
    pub fn demand_is_constant(&self) -> bool {
        self.state == VmState::Stopped
            || matches!(
                self.workload.model(),
                crate::workload::UtilizationModel::Constant(_)
            )
    }

    /// Actively used memory (GB), scaled by the task's memory intensity.
    #[must_use]
    pub fn active_memory_gb(&self) -> f64 {
        if self.state == VmState::Stopped {
            0.0
        } else {
            self.spec.memory_gb() * self.spec.task().memory_intensity()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VmSpec {
        VmSpec::new("web-1", 2, 4.0, TaskProfile::WebServer)
    }

    #[test]
    fn spec_accessors() {
        let s = spec();
        assert_eq!(s.name(), "web-1");
        assert_eq!(s.vcpus(), 2);
        assert_eq!(s.memory_gb(), 4.0);
        assert_eq!(s.task(), TaskProfile::WebServer);
    }

    #[test]
    fn nominal_demand_scales_with_vcpus() {
        let s = VmSpec::new("hog", 4, 8.0, TaskProfile::CpuBound);
        assert!((s.nominal_demand() - 4.0 * 0.90).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one vcpu")]
    fn zero_vcpus_panics() {
        let _ = VmSpec::new("bad", 0, 1.0, TaskProfile::Idle);
    }

    #[test]
    #[should_panic(expected = "positive memory")]
    fn zero_memory_panics() {
        let _ = VmSpec::new("bad", 1, 0.0, TaskProfile::Idle);
    }

    #[test]
    fn cpu_demand_bounded_by_vcpus() {
        let mut vm = Vm::new(VmId::new(1), spec(), 7);
        for s in (0..3600).step_by(60) {
            let d = vm.cpu_demand(SimTime::from_secs(s));
            assert!((0.0..=2.0).contains(&d), "demand {d}");
        }
    }

    #[test]
    fn stopped_vm_demands_nothing() {
        let mut vm = Vm::new(VmId::new(1), spec(), 7);
        vm.set_state(VmState::Stopped);
        assert_eq!(vm.cpu_demand(SimTime::from_secs(10)), 0.0);
        assert_eq!(vm.active_memory_gb(), 0.0);
    }

    #[test]
    fn active_memory_scaled_by_intensity() {
        let vm = Vm::new(
            VmId::new(2),
            VmSpec::new("db", 2, 10.0, TaskProfile::MemoryBound),
            0,
        );
        assert!((vm.active_memory_gb() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn same_profile_different_ids_decorrelated() {
        let spec = VmSpec::new("a", 1, 1.0, TaskProfile::CpuBound);
        let mut a = Vm::new(VmId::new(1), spec.clone(), 7);
        let mut b = Vm::new(VmId::new(2), spec, 7);
        let ta: Vec<f64> = (0..20)
            .map(|s| a.cpu_demand(SimTime::from_secs(s)))
            .collect();
        let tb: Vec<f64> = (0..20)
            .map(|s| b.cpu_demand(SimTime::from_secs(s)))
            .collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn vm_id_display() {
        assert_eq!(VmId::new(3).to_string(), "vm-3");
    }

    #[test]
    fn demand_constancy_tracks_profile_and_state() {
        let idle = Vm::new(VmId::new(1), VmSpec::new("i", 1, 1.0, TaskProfile::Idle), 0);
        assert!(idle.demand_is_constant(), "Idle maps to a constant model");
        let mut web = Vm::new(VmId::new(2), spec(), 0);
        assert!(!web.demand_is_constant(), "WebServer is time-varying");
        web.set_state(VmState::Stopped);
        assert!(web.demand_is_constant(), "stopped VMs demand nothing");
    }
}
