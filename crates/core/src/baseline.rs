//! Baseline predictors the paper compares against (explicitly or
//! implicitly).
//!
//! - [`RcModelPredictor`] — the Resistor-Capacitor thermal model of
//!   Zhang et al. \[5\]: physically well-founded, but its steady-state
//!   estimate assumes *homogeneous* per-VM power, which multi-tenant
//!   heterogeneity breaks.
//! - [`TaskProfilePredictor`] — the task-temperature profile approach of
//!   Wang et al. \[4\]: a lookup from (task type, instance count) to stable
//!   temperature, built from single-task profiling runs; undefined for
//!   mixed tenancy, so it falls back to the dominant task.
//! - [`LastValuePredictor`] — the naive persistence baseline that bounds
//!   how much of the paper's accuracy is "temperature changes slowly".
//! - [`LinearStablePredictor`] — ridge-regularised ordinary least squares on
//!   the same Eq. (2) features, isolating how much the SVR's
//!   non-linearity buys.

use crate::error::PredictError;
use crate::features::FeatureEncoding;
use crate::predictor::OnlinePredictor;
use std::collections::BTreeMap;
use vmtherm_sim::experiment::{ConfigSnapshot, ExperimentOutcome};
use vmtherm_sim::workload::TaskProfile;
use vmtherm_units::{Celsius, Seconds, Watts};

/// Predicts that the temperature never changes: ψ(t + Δ) = φ(t).
#[derive(Debug, Clone, Default)]
pub struct LastValuePredictor {
    last: Option<f64>,
}

impl LastValuePredictor {
    /// Creates the predictor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl OnlinePredictor for LastValuePredictor {
    fn observe(&mut self, _t_secs: Seconds, measured_c: Celsius) {
        self.last = Some(measured_c.get());
    }

    fn predict_ahead(&self, _t_secs: Seconds, _gap_secs: Seconds) -> f64 {
        self.last.unwrap_or(f64::NAN)
    }

    fn name(&self) -> &str {
        "last-value"
    }
}

/// The RC thermal model baseline \[5\].
///
/// It knows the true exponential dynamics (`T(t+Δ) = T∞ + (T(t) − T∞)·e^{−Δ/τ}`)
/// but estimates the steady state `T∞` under the traditional homogeneity
/// assumption: every VM draws the same power, so
/// `T∞ = ambient + (P_base + n_vms · P_per_vm) · R`.
#[derive(Debug, Clone)]
pub struct RcModelPredictor {
    /// System time constant τ (s).
    tau_secs: f64,
    /// Total thermal resistance (K/W) assumed.
    r_total: f64,
    /// Baseline (idle) power (W) assumed.
    p_base: f64,
    /// Per-VM power (W) assumed — the homogeneity simplification.
    p_per_vm: f64,
    ambient_c: f64,
    vm_count: usize,
    last: Option<f64>,
}

impl RcModelPredictor {
    /// Creates the baseline with assumed plant constants.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `tau_secs` or `r_total`.
    #[must_use]
    pub fn new(
        tau_secs: Seconds,
        r_total: f64,
        p_base: Watts,
        p_per_vm: Watts,
        ambient_c: Celsius,
    ) -> Self {
        assert!(tau_secs.get() > 0.0, "tau must be positive");
        assert!(r_total > 0.0, "thermal resistance must be positive");
        RcModelPredictor {
            tau_secs: tau_secs.get(),
            r_total,
            p_base: p_base.get(),
            p_per_vm: p_per_vm.get(),
            ambient_c: ambient_c.get(),
            vm_count: 0,
            last: None,
        }
    }

    /// Plausible constants for the standard simulated server: τ ≈ 130 s,
    /// R ≈ 0.15 K/W, 76 W idle, 15 W per VM (calibrated on homogeneous
    /// medium VMs — which is exactly why it misfires on heterogeneous
    /// tenancy).
    #[must_use]
    pub fn standard(ambient_c: Celsius) -> Self {
        RcModelPredictor::new(
            Seconds::new(130.0),
            0.15,
            Watts::new(76.0),
            Watts::new(15.0),
            ambient_c,
        )
    }

    /// Updates the VM count (its only view of ξ_VM).
    pub fn set_vm_count(&mut self, vm_count: usize) {
        self.vm_count = vm_count;
    }

    /// The homogeneous steady-state estimate.
    #[must_use]
    pub fn steady_state_estimate(&self) -> f64 {
        self.ambient_c + (self.p_base + self.vm_count as f64 * self.p_per_vm) * self.r_total
    }
}

impl OnlinePredictor for RcModelPredictor {
    fn observe(&mut self, _t_secs: Seconds, measured_c: Celsius) {
        self.last = Some(measured_c.get());
    }

    fn predict_ahead(&self, _t_secs: Seconds, gap_secs: Seconds) -> f64 {
        let Some(current) = self.last else {
            return f64::NAN;
        };
        let t_inf = self.steady_state_estimate();
        t_inf + (current - t_inf) * (-gap_secs.get() / self.tau_secs).exp()
    }

    fn name(&self) -> &str {
        "rc-model"
    }
}

/// The task-temperature profile baseline \[4\]: a per-task lookup table of
/// stable temperatures, indexed by instance count, built from homogeneous
/// profiling runs.
#[derive(Debug, Clone, Default)]
pub struct TaskProfilePredictor {
    /// `(task, vm_count) → stable temperature` from profiling runs.
    /// Ordered so the nearest-count fallback (and anything else derived
    /// from iteration) is deterministic: among equidistant profiled
    /// counts the smaller `(task, count)` key wins, every run.
    table: BTreeMap<(TaskProfile, usize), f64>,
}

impl TaskProfilePredictor {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one profiling measurement: `count` instances of `task` ran at
    /// `stable_c` stable temperature.
    pub fn add_profile(&mut self, task: TaskProfile, count: usize, stable_c: Celsius) {
        self.table.insert((task, count), stable_c.get());
    }

    /// Builds a table from *homogeneous* experiment outcomes, skipping any
    /// mixed-tenancy record (the method has no way to use them — its core
    /// limitation).
    #[must_use]
    pub fn fit_from_outcomes(outcomes: &[ExperimentOutcome]) -> Self {
        let mut p = TaskProfilePredictor::new();
        for o in outcomes {
            let Some(first) = o.snapshot.vms.first() else {
                continue;
            };
            if o.snapshot.vms.iter().all(|v| v.task == first.task) {
                p.add_profile(first.task, o.snapshot.vms.len(), Celsius::new(o.psi_stable));
            }
        }
        p
    }

    /// Number of table entries.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Looks up (or approximates) the stable temperature for a (possibly
    /// heterogeneous) configuration: the table entry for the **dominant
    /// task** (largest vCPU share) at the total VM count, falling back to
    /// the nearest profiled count.
    ///
    /// # Errors
    ///
    /// [`PredictError::NotReady`] when the table has no entry for the
    /// dominant task at all.
    pub fn predict_stable(&self, snapshot: &ConfigSnapshot) -> Result<f64, PredictError> {
        let Some(dominant) = dominant_task(snapshot) else {
            return Err(PredictError::NotReady("no VMs in snapshot"));
        };
        let n = snapshot.vms.len();
        if let Some(v) = self.table.get(&(dominant, n)) {
            return Ok(*v);
        }
        // Nearest profiled count for that task.
        self.table
            .iter()
            .filter(|((task, _), _)| *task == dominant)
            .min_by_key(|((_, count), _)| count.abs_diff(n))
            .map(|(_, v)| *v)
            .ok_or(PredictError::NotReady("task not profiled"))
    }
}

/// The task with the largest vCPU share in a snapshot. Accumulation is
/// keyed through an ordered map so the fold order — and the winner under
/// any comparator — never depends on hash seeding.
#[must_use]
pub fn dominant_task(snapshot: &ConfigSnapshot) -> Option<TaskProfile> {
    let mut share: BTreeMap<TaskProfile, u32> = BTreeMap::new();
    for vm in &snapshot.vms {
        *share.entry(vm.task).or_insert(0) += vm.vcpus;
    }
    share
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(a.0.index().cmp(&b.0.index()).reverse()))
        .map(|(task, _)| task)
}

/// Ridge-regularised least squares on Eq. (2) features → ψ_stable.
#[derive(Debug, Clone)]
pub struct LinearStablePredictor {
    encoding: FeatureEncoding,
    /// One weight per encoded feature.
    weights: Vec<f64>,
    /// The constant term.
    intercept: f64,
}

impl LinearStablePredictor {
    /// Fits by solving the ridge normal equations `(XᵀX + αI)w = Xᵀy`.
    ///
    /// # Errors
    ///
    /// [`PredictError::NoTrainingData`] for an empty record set.
    pub fn fit(
        outcomes: &[ExperimentOutcome],
        encoding: FeatureEncoding,
        ridge: f64,
    ) -> Result<Self, PredictError> {
        if outcomes.is_empty() {
            return Err(PredictError::NoTrainingData);
        }
        let d = encoding.dim() + 1; // + intercept
                                    // XᵀX accumulated flat, row-major — same layout as the feature
                                    // pipeline's DenseMatrix.
        let mut xtx = vec![0.0; d * d];
        let mut xty = vec![0.0; d];
        for o in outcomes {
            let mut x = encoding.encode(&o.snapshot);
            x.push(1.0);
            for i in 0..d {
                xty[i] += x[i] * o.psi_stable;
                for j in 0..d {
                    xtx[i * d + j] += x[i] * x[j];
                }
            }
        }
        for i in 0..d {
            xtx[i * d + i] += ridge;
        }
        let mut weights = solve_linear(xtx, d, xty)
            .ok_or_else(|| PredictError::invalid("ridge", "singular normal equations"))?;
        let intercept = weights
            .pop()
            .ok_or_else(|| PredictError::invalid("ridge", "no intercept in the solution"))?;
        Ok(LinearStablePredictor {
            encoding,
            weights,
            intercept,
        })
    }

    /// Predicts ψ_stable for a configuration.
    #[must_use]
    pub fn predict(&self, snapshot: &ConfigSnapshot) -> f64 {
        let x = self.encoding.encode(snapshot);
        let mut acc = self.intercept;
        for (w, v) in self.weights.iter().zip(&x) {
            acc += w * v;
        }
        acc
    }
}

/// Gaussian elimination with partial pivoting over a flat row-major
/// `n × n` matrix. Returns `None` for a (numerically) singular system.
fn solve_linear(mut a: Vec<f64>, n: usize, mut b: Vec<f64>) -> Option<Vec<f64>> {
    debug_assert_eq!(a.len(), n * n, "matrix is not n×n");
    debug_assert_eq!(b.len(), n, "rhs length != n");
    for col in 0..n {
        // Pivot.
        let pivot =
            (col..n).max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))?;
        if a[pivot * n + col].abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        for row in (col + 1)..n {
            let f = a[row * n + col] / a[col * n + col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmtherm_sim::experiment::VmInfo;

    fn c(v: f64) -> Celsius {
        Celsius::new(v)
    }

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    fn snapshot(tasks: &[(TaskProfile, u32)]) -> ConfigSnapshot {
        ConfigSnapshot {
            theta_cpu: 38.4,
            theta_memory_gb: 64.0,
            fan_count: 4,
            fan_airflow_cfm: 144.0,
            vms: tasks
                .iter()
                .map(|(task, vcpus)| VmInfo {
                    vcpus: *vcpus,
                    memory_gb: 4.0,
                    task: *task,
                })
                .collect(),
            ambient_c: 25.0,
        }
    }

    #[test]
    fn last_value_predicts_last() {
        let mut p = LastValuePredictor::new();
        assert!(p.predict_ahead(s(0.0), s(60.0)).is_nan());
        p.observe(s(0.0), c(41.0));
        p.observe(s(1.0), c(43.0));
        assert_eq!(p.predict_ahead(s(1.0), s(60.0)), 43.0);
    }

    #[test]
    fn rc_model_relaxes_exponentially() {
        let mut p =
            RcModelPredictor::new(s(100.0), 0.1, Watts::new(50.0), Watts::new(10.0), c(25.0));
        p.set_vm_count(5);
        // T∞ = 25 + (50 + 50)*0.1 = 35.
        assert_eq!(p.steady_state_estimate(), 35.0);
        p.observe(s(0.0), c(55.0));
        let after_tau = p.predict_ahead(s(0.0), s(100.0));
        // 35 + 20/e ≈ 42.36.
        assert!((after_tau - (35.0 + 20.0 / std::f64::consts::E)).abs() < 1e-9);
        // Long horizon → steady state.
        assert!((p.predict_ahead(s(0.0), s(1e6)) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn rc_model_blind_to_heterogeneity() {
        // Same VM count, wildly different tasks → identical RC estimate.
        let mut p = RcModelPredictor::standard(c(25.0));
        p.set_vm_count(4);
        let est_idle = p.steady_state_estimate();
        p.set_vm_count(4);
        let est_hot = p.steady_state_estimate();
        assert_eq!(est_idle, est_hot);
    }

    #[test]
    fn dominant_task_by_vcpu_share() {
        let s = snapshot(&[
            (TaskProfile::Idle, 1),
            (TaskProfile::CpuBound, 4),
            (TaskProfile::Idle, 2),
        ]);
        assert_eq!(dominant_task(&s), Some(TaskProfile::CpuBound));
        let empty = snapshot(&[]);
        assert_eq!(dominant_task(&empty), None);
    }

    #[test]
    fn task_profile_lookup_and_fallback() {
        let mut p = TaskProfilePredictor::new();
        p.add_profile(TaskProfile::CpuBound, 4, c(60.0));
        p.add_profile(TaskProfile::CpuBound, 8, c(68.0));
        let s4 = snapshot(&[(TaskProfile::CpuBound, 2); 4]);
        assert_eq!(p.predict_stable(&s4).unwrap(), 60.0);
        // Unprofiled count 5 → nearest (4).
        let s5 = snapshot(&[(TaskProfile::CpuBound, 2); 5]);
        assert_eq!(p.predict_stable(&s5).unwrap(), 60.0);
        // Unprofiled task → error.
        let sweb = snapshot(&[(TaskProfile::WebServer, 2); 3]);
        assert!(p.predict_stable(&sweb).is_err());
    }

    #[test]
    fn task_profile_fit_skips_mixed_records() {
        let homo = ExperimentOutcome {
            snapshot: snapshot(&[(TaskProfile::Mixed, 2); 3]),
            psi_stable: 50.0,
            true_stable: 50.0,
            initial_temp: 25.0,
        };
        let mixed = ExperimentOutcome {
            snapshot: snapshot(&[(TaskProfile::Mixed, 2), (TaskProfile::Idle, 1)]),
            psi_stable: 44.0,
            true_stable: 44.0,
            initial_temp: 25.0,
        };
        let p = TaskProfilePredictor::fit_from_outcomes(&[homo, mixed]);
        assert_eq!(p.table_len(), 1);
    }

    #[test]
    fn solve_linear_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let x = solve_linear(a, 2, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solve_linear_singular_returns_none() {
        let a = vec![1.0, 1.0, 1.0, 1.0];
        assert!(solve_linear(a, 2, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_linear_with_pivoting() {
        // Leading zero forces a row swap: 0x + y = 1, 2x + y = 3 → x=1, y=1.
        let a = vec![0.0, 1.0, 2.0, 1.0];
        let x = solve_linear(a, 2, vec![1.0, 3.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_linear_relationship() {
        // Synthetic outcomes whose ψ_stable is a linear function of the
        // encoded features must be fitted (near-)exactly.
        let mut outcomes = Vec::new();
        for n in 1..10 {
            let s = snapshot(&vec![(TaskProfile::CpuBound, 2); n]);
            let x = FeatureEncoding::Full.encode(&s);
            let target = 20.0 + 0.5 * x[5] + 0.25 * x[6];
            outcomes.push(ExperimentOutcome {
                snapshot: s,
                psi_stable: target,
                true_stable: target,
                initial_temp: 25.0,
            });
        }
        let model = LinearStablePredictor::fit(&outcomes, FeatureEncoding::Full, 1e-6).unwrap();
        for o in &outcomes {
            assert!((model.predict(&o.snapshot) - o.psi_stable).abs() < 1e-3);
        }
    }

    #[test]
    fn linear_fit_rejects_empty() {
        assert!(matches!(
            LinearStablePredictor::fit(&[], FeatureEncoding::Full, 1.0),
            Err(PredictError::NoTrainingData)
        ));
    }
}
