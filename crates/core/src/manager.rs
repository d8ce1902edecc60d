//! Thermal management on top of the predictions — the paper's motivating
//! application ("temperature prediction is a fundamental technique to
//! conduct thermal management proactively").
//!
//! Two tools:
//!
//! - [`PlacementAdvisor`] — given candidate placements of a new VM, predict
//!   each host's resulting ψ_stable and pick the coolest (hotspot
//!   avoidance, minimising temperature disparity).
//! - [`MigrationAdvisor`] — find a predicted-hot host and propose moving
//!   its largest VM to the predicted-coolest host with room.

use crate::stable::StablePredictor;
use vmtherm_sim::experiment::{ConfigSnapshot, VmInfo};
use vmtherm_units::Celsius;

/// Returns a copy of `snapshot` with `vm` added — the hypothetical
/// configuration a placement decision evaluates.
#[must_use]
pub fn snapshot_with_vm(snapshot: &ConfigSnapshot, vm: &VmInfo) -> ConfigSnapshot {
    let mut s = snapshot.clone();
    s.vms.push(vm.clone());
    s
}

/// Ranks candidate hosts for a new VM by predicted stable temperature.
#[derive(Debug, Clone)]
pub struct PlacementAdvisor {
    predictor: StablePredictor,
}

impl PlacementAdvisor {
    /// Wraps a trained stable predictor.
    #[must_use]
    pub fn new(predictor: StablePredictor) -> Self {
        PlacementAdvisor { predictor }
    }

    /// Predicted ψ_stable of each candidate host *after* receiving `vm`,
    /// in candidate order. All hypothetical placements are scored in one
    /// batch prediction.
    #[must_use]
    pub fn score(&self, candidates: &[ConfigSnapshot], vm: &VmInfo) -> Vec<f64> {
        let hypothetical: Vec<ConfigSnapshot> =
            candidates.iter().map(|c| snapshot_with_vm(c, vm)).collect();
        self.predictor.predict_batch(&hypothetical)
    }

    /// The candidate index with the lowest predicted post-placement
    /// temperature, with that prediction. `None` for no candidates.
    #[must_use]
    pub fn best(&self, candidates: &[ConfigSnapshot], vm: &VmInfo) -> Option<(usize, f64)> {
        self.score(candidates, vm)
            .into_iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The wrapped predictor.
    #[must_use]
    pub fn predictor(&self) -> &StablePredictor {
        &self.predictor
    }
}

/// A proposed migration: move VM `vm_index` of host `from` to host `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationAdvice {
    /// Index of the source host in the candidate slice.
    pub from: usize,
    /// Index of the VM within the source host's snapshot.
    pub vm_index: usize,
    /// Index of the destination host.
    pub to: usize,
}

/// Proposes migrations away from predicted hotspots.
#[derive(Debug, Clone)]
pub struct MigrationAdvisor {
    predictor: StablePredictor,
    /// Act when a host's predicted ψ_stable exceeds this (°C).
    threshold_c: f64,
    /// Installed memory per host (GB), for destination feasibility.
    host_memory_gb: f64,
}

impl MigrationAdvisor {
    /// Creates an advisor.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive host memory.
    #[must_use]
    pub fn new(predictor: StablePredictor, threshold_c: Celsius, host_memory_gb: f64) -> Self {
        assert!(host_memory_gb > 0.0, "host memory must be positive");
        MigrationAdvisor {
            predictor,
            threshold_c: threshold_c.get(),
            host_memory_gb,
        }
    }

    /// Examines the fleet and proposes at most one migration: from the
    /// hottest host predicted above threshold, move its largest-demand VM
    /// to the host whose *post-migration* prediction is lowest (and that
    /// has memory room). Returns `None` when no host is predicted hot, the
    /// hot host has no VMs, no destination fits, or no move actually
    /// lowers the hot host's prediction below every alternative.
    #[must_use]
    pub fn advise(&self, hosts: &[ConfigSnapshot]) -> Option<MigrationAdvice> {
        let scores = self.predictor.predict_batch(hosts);
        let (from, from_score) = scores
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if from_score <= self.threshold_c {
            return None;
        }
        // Largest expected-demand VM on the hot host.
        let (vm_index, vm) = hosts[from].vms.iter().enumerate().max_by(|a, b| {
            let da = f64::from(a.1.vcpus) * a.1.task.nominal_cpu();
            let db = f64::from(b.1.vcpus) * b.1.task.nominal_cpu();
            da.total_cmp(&db)
        })?;
        // Best feasible destination by post-migration prediction: gather
        // the feasible hypothetical placements, score them in one batch.
        let mut feasible: Vec<usize> = Vec::new();
        let mut hypothetical: Vec<ConfigSnapshot> = Vec::new();
        for (i, host) in hosts.iter().enumerate() {
            if i == from {
                continue;
            }
            let used: f64 = host.vms.iter().map(|v| v.memory_gb).sum();
            if used + vm.memory_gb > self.host_memory_gb {
                continue;
            }
            feasible.push(i);
            hypothetical.push(snapshot_with_vm(host, vm));
        }
        let posts = self.predictor.predict_batch(&hypothetical);
        let (to, post_dest) = feasible
            .into_iter()
            .zip(posts)
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        // Only advise if the move does not just relocate the hotspot.
        if post_dest >= from_score {
            return None;
        }
        Some(MigrationAdvice { from, vm_index, to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::TrainingOptions;
    use vmtherm_sim::workload::TaskProfile;
    use vmtherm_sim::{CaseGenerator, SimDuration};
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;

    fn trained_predictor() -> StablePredictor {
        let mut gen = CaseGenerator::new(21);
        let configs: Vec<_> = gen
            .random_cases(50, 500)
            .into_iter()
            .map(|c| {
                c.with_duration(SimDuration::from_secs(800))
                    .with_t_break(SimDuration::from_secs(550))
            })
            .collect();
        let outcomes = crate::stable::run_experiments(&configs);
        let opts = TrainingOptions::new()
            .with_params(SvrParams::new().with_c(64.0).with_kernel(Kernel::rbf(0.02)));
        StablePredictor::fit(&outcomes, &opts).unwrap()
    }

    fn host(vm_tasks: &[(TaskProfile, u32)], ambient: f64) -> ConfigSnapshot {
        ConfigSnapshot {
            theta_cpu: 38.4,
            theta_memory_gb: 64.0,
            fan_count: 4,
            fan_airflow_cfm: 144.0,
            vms: vm_tasks
                .iter()
                .map(|(t, v)| VmInfo {
                    vcpus: *v,
                    memory_gb: 4.0,
                    task: *t,
                })
                .collect(),
            ambient_c: ambient,
        }
    }

    #[test]
    fn snapshot_with_vm_appends() {
        let h = host(&[(TaskProfile::Idle, 1)], 24.0);
        let vm = VmInfo {
            vcpus: 2,
            memory_gb: 4.0,
            task: TaskProfile::CpuBound,
        };
        let h2 = snapshot_with_vm(&h, &vm);
        assert_eq!(h2.vms.len(), 2);
        assert_eq!(h.vms.len(), 1);
    }

    #[test]
    fn placement_prefers_cooler_host() {
        let p = PlacementAdvisor::new(trained_predictor());
        let hot = host(&[(TaskProfile::CpuBound, 4); 6], 26.0);
        let cool = host(&[(TaskProfile::Idle, 1); 2], 22.0);
        let vm = VmInfo {
            vcpus: 2,
            memory_gb: 4.0,
            task: TaskProfile::Mixed,
        };
        let (best, temp) = p.best(&[hot, cool], &vm).unwrap();
        assert_eq!(best, 1, "picked the hot host (pred {temp})");
    }

    #[test]
    fn placement_empty_candidates() {
        let p = PlacementAdvisor::new(trained_predictor());
        let vm = VmInfo {
            vcpus: 1,
            memory_gb: 2.0,
            task: TaskProfile::Idle,
        };
        assert!(p.best(&[], &vm).is_none());
    }

    #[test]
    fn migration_advisor_moves_from_hot_to_cool() {
        let p = trained_predictor();
        let hot = host(&[(TaskProfile::CpuBound, 4); 8], 27.0);
        let cool = host(&[(TaskProfile::Idle, 1)], 21.0);
        let hot_pred = p.predict(&hot);
        let advisor = MigrationAdvisor::new(p, Celsius::new(hot_pred - 1.0), 64.0);
        let advice = advisor.advise(&[hot, cool]).expect("advice expected");
        assert_eq!(advice.from, 0);
        assert_eq!(advice.to, 1);
    }

    #[test]
    fn migration_advisor_quiet_when_all_cool() {
        let p = trained_predictor();
        let a = host(&[(TaskProfile::Idle, 1)], 20.0);
        let b = host(&[(TaskProfile::Idle, 1)], 20.0);
        let advisor = MigrationAdvisor::new(p, Celsius::new(90.0), 64.0);
        assert!(advisor.advise(&[a, b]).is_none());
    }

    #[test]
    fn migration_advisor_respects_memory() {
        let p = trained_predictor();
        let hot = host(&[(TaskProfile::CpuBound, 4); 8], 27.0);
        // Destination memory nearly full: 15 VMs × 4 GB = 60; adding 4 → 64 fits exactly... use 16 to overflow.
        let full = host(&[(TaskProfile::Idle, 1); 16], 21.0);
        let hot_pred = p.predict(&hot);
        let advisor = MigrationAdvisor::new(p, Celsius::new(hot_pred - 1.0), 64.0);
        // Destination full → no advice.
        assert!(advisor.advise(&[hot, full]).is_none());
    }
}
