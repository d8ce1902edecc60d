//! Feature encoding of the paper's Eq. (2) input:
//!
//! ```text
//! input = { θ_cpu, θ_memory, θ_fan, ξ_VM, δ_env }
//! ```
//!
//! θ_cpu, θ_memory, θ_fan and δ_env are scalars; ξ_VM ("VM configurations
//! and deployed tasks") needs a fixed-width encoding for the SVM. The
//! [`FeatureEncoding::Full`] layout summarises the VM set with counts,
//! totals and a per-task-type nominal-demand histogram — enough to
//! distinguish "4 cpu-bound VMs" from "4 idle VMs", which is precisely the
//! heterogeneity traditional models miss. Reduced encodings exist for the
//! ablation benchmarks (DESIGN.md §6.3).

use serde::{Deserialize, Serialize};
use vmtherm_sim::experiment::ConfigSnapshot;
use vmtherm_sim::workload::ALL_TASK_PROFILES;

/// How a [`ConfigSnapshot`] becomes a numeric feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FeatureEncoding {
    /// Everything: server scalars, δ_env, VM aggregates, per-task demand
    /// histogram. 14 features.
    #[default]
    Full,
    /// Ablation: ξ_VM reduced to VM count and total vCPUs (no task/shape
    /// detail). 7 features.
    CountOnly,
    /// Ablation: [`FeatureEncoding::Full`] without δ_env. 13 features.
    NoEnvironment,
}

impl FeatureEncoding {
    /// Dimensionality of vectors this encoding produces.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            FeatureEncoding::Full => 8 + ALL_TASK_PROFILES.len(),
            FeatureEncoding::CountOnly => 7,
            FeatureEncoding::NoEnvironment => 7 + ALL_TASK_PROFILES.len(),
        }
    }

    /// Encodes one snapshot.
    #[must_use]
    pub fn encode(&self, snapshot: &ConfigSnapshot) -> Vec<f64> {
        let mut x = vec![
            snapshot.theta_cpu,
            snapshot.theta_memory_gb,
            snapshot.fan_count as f64,
            snapshot.fan_airflow_cfm,
        ];
        if *self != FeatureEncoding::NoEnvironment {
            x.push(snapshot.ambient_c);
        }
        x.push(snapshot.vms.len() as f64);
        x.push(f64::from(snapshot.total_vcpus()));
        if *self == FeatureEncoding::CountOnly {
            debug_assert_eq!(x.len(), self.dim());
            return x;
        }
        x.push(snapshot.total_vm_memory_gb());
        // Per-task-type expected demand (vCPU units): the heterogeneity
        // signal.
        let mut demand = vec![0.0; ALL_TASK_PROFILES.len()];
        for vm in &snapshot.vms {
            demand[vm.task.index()] += f64::from(vm.vcpus) * vm.task.nominal_cpu();
        }
        x.extend(demand);
        debug_assert_eq!(x.len(), self.dim());
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmtherm_sim::experiment::VmInfo;
    use vmtherm_sim::workload::TaskProfile;

    fn snapshot() -> ConfigSnapshot {
        ConfigSnapshot {
            theta_cpu: 38.4,
            theta_memory_gb: 64.0,
            fan_count: 4,
            fan_airflow_cfm: 144.0,
            vms: vec![
                VmInfo {
                    vcpus: 2,
                    memory_gb: 4.0,
                    task: TaskProfile::CpuBound,
                },
                VmInfo {
                    vcpus: 1,
                    memory_gb: 2.0,
                    task: TaskProfile::Idle,
                },
                VmInfo {
                    vcpus: 4,
                    memory_gb: 8.0,
                    task: TaskProfile::CpuBound,
                },
            ],
            ambient_c: 24.0,
        }
    }

    #[test]
    fn dims_match_encodings() {
        let s = snapshot();
        for e in [
            FeatureEncoding::Full,
            FeatureEncoding::CountOnly,
            FeatureEncoding::NoEnvironment,
        ] {
            assert_eq!(e.encode(&s).len(), e.dim(), "{e:?}");
        }
    }

    #[test]
    fn full_encoding_layout() {
        let x = FeatureEncoding::Full.encode(&snapshot());
        assert_eq!(x[0], 38.4); // theta_cpu
        assert_eq!(x[1], 64.0); // theta_memory
        assert_eq!(x[2], 4.0); // fan count
        assert_eq!(x[3], 144.0); // airflow
        assert_eq!(x[4], 24.0); // delta_env
        assert_eq!(x[5], 3.0); // vm count
        assert_eq!(x[6], 7.0); // total vcpus
        assert_eq!(x[7], 14.0); // total vm memory
                                // cpu-bound demand: (2+4)*0.9 = 5.4 at index 7 + 1 + 0.
        assert!((x[8 + TaskProfile::CpuBound.index()] - 5.4).abs() < 1e-12);
        // idle demand: 1*0.03.
        assert!((x[8 + TaskProfile::Idle.index()] - 0.03).abs() < 1e-12);
        // untouched task types are zero.
        assert_eq!(x[8 + TaskProfile::WebServer.index()], 0.0);
    }

    #[test]
    fn no_environment_drops_ambient() {
        let full = FeatureEncoding::Full.encode(&snapshot());
        let noenv = FeatureEncoding::NoEnvironment.encode(&snapshot());
        assert_eq!(noenv.len(), full.len() - 1);
        assert!(!noenv.contains(&24.0));
    }

    #[test]
    fn count_only_hides_heterogeneity() {
        // Two snapshots that differ only in task mix encode identically
        // under CountOnly — the ablation's point.
        let mut hot = snapshot();
        for vm in &mut hot.vms {
            vm.task = TaskProfile::CpuBound;
        }
        let mut cold = snapshot();
        for vm in &mut cold.vms {
            vm.task = TaskProfile::Idle;
        }
        let e = FeatureEncoding::CountOnly;
        assert_eq!(e.encode(&hot), e.encode(&cold));
        let f = FeatureEncoding::Full;
        assert_ne!(f.encode(&hot), f.encode(&cold));
    }

    #[test]
    fn default_is_full() {
        assert_eq!(FeatureEncoding::default(), FeatureEncoding::Full);
    }
}
