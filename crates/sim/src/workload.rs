//! VM workloads: task profiles and the utilization traces they generate.
//!
//! The paper's ξ_VM input covers "VM configurations **and deployed tasks**";
//! traditional task-temperature approaches assume a single homogeneous task
//! per server, which is exactly what multi-tenant clouds violate. The task
//! profiles here span that heterogeneity: steady CPU hogs, memory-bound
//! jobs with modest CPU, diurnal web servers, bursty batch work and idle
//! placeholders.

use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The kind of task a VM runs. Determines the shape of its CPU utilization
/// trace and its memory activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TaskProfile {
    /// Sustained high CPU (scientific computing, encoding): ~90% flat.
    CpuBound,
    /// Memory-churning workload with moderate CPU: ~35% flat, high memory
    /// activity.
    MemoryBound,
    /// A balanced mix: ~60% with slow sinusoidal variation.
    Mixed,
    /// Nearly idle placeholder VM: ~3%.
    Idle,
    /// On/off batch phases: 95% bursts separated by near-idle gaps.
    Bursty,
    /// Diurnal request-driven load: sinusoid between ~20% and ~80%.
    WebServer,
}

/// Every profile, for exhaustive sweeps and random sampling.
pub const ALL_TASK_PROFILES: [TaskProfile; 6] = [
    TaskProfile::CpuBound,
    TaskProfile::MemoryBound,
    TaskProfile::Mixed,
    TaskProfile::Idle,
    TaskProfile::Bursty,
    TaskProfile::WebServer,
];

impl TaskProfile {
    /// Long-run mean CPU utilization of one vCPU running this task, in
    /// `[0, 1]`. Used by feature encoding and by coarse baselines.
    #[must_use]
    pub fn nominal_cpu(&self) -> f64 {
        match self {
            TaskProfile::CpuBound => 0.90,
            TaskProfile::MemoryBound => 0.35,
            TaskProfile::Mixed => 0.60,
            TaskProfile::Idle => 0.03,
            TaskProfile::Bursty => 0.50,
            TaskProfile::WebServer => 0.50,
        }
    }

    /// Relative memory activity in `[0, 1]`, scaling the memory power
    /// component.
    #[must_use]
    pub fn memory_intensity(&self) -> f64 {
        match self {
            TaskProfile::CpuBound => 0.30,
            TaskProfile::MemoryBound => 0.90,
            TaskProfile::Mixed => 0.50,
            TaskProfile::Idle => 0.05,
            TaskProfile::Bursty => 0.40,
            TaskProfile::WebServer => 0.45,
        }
    }

    /// A stable integer tag for feature encoding.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            TaskProfile::CpuBound => 0,
            TaskProfile::MemoryBound => 1,
            TaskProfile::Mixed => 2,
            TaskProfile::Idle => 3,
            TaskProfile::Bursty => 4,
            TaskProfile::WebServer => 5,
        }
    }

    /// Builds the stochastic utilization generator for this profile.
    /// `seed` makes the trace reproducible per VM.
    #[must_use]
    pub fn utilization_model(&self, seed: u64) -> UtilizationModel {
        match self {
            TaskProfile::CpuBound => UtilizationModel::random_walk(0.90, 0.02, 0.75, 1.0, seed),
            TaskProfile::MemoryBound => UtilizationModel::random_walk(0.35, 0.02, 0.20, 0.55, seed),
            // Periods divide the paper's 600 s ψ_stable averaging window so
            // Eq. (1)'s mean is phase-independent: a workload oscillating
            // slower than the window would make ψ_stable ill-defined.
            TaskProfile::Mixed => UtilizationModel::Sinusoid {
                mean: 0.60,
                amplitude: 0.15,
                period_secs: 300.0,
                phase: (seed % 997) as f64 / 997.0 * std::f64::consts::TAU,
            },
            TaskProfile::Idle => UtilizationModel::Constant(0.03),
            TaskProfile::Bursty => UtilizationModel::OnOff {
                on_level: 0.95,
                off_level: 0.05,
                on_secs: 300.0,
                off_secs: 300.0,
                offset_secs: (seed % 601) as f64,
            },
            TaskProfile::WebServer => UtilizationModel::Sinusoid {
                mean: 0.50,
                amplitude: 0.30,
                period_secs: 600.0,
                phase: (seed % 1009) as f64 / 1009.0 * std::f64::consts::TAU,
            },
        }
    }
}

impl std::fmt::Display for TaskProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TaskProfile::CpuBound => "cpu-bound",
            TaskProfile::MemoryBound => "memory-bound",
            TaskProfile::Mixed => "mixed",
            TaskProfile::Idle => "idle",
            TaskProfile::Bursty => "bursty",
            TaskProfile::WebServer => "web-server",
        };
        f.write_str(name)
    }
}

/// A per-vCPU utilization process. Values are always clamped to `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UtilizationModel {
    /// Fixed level.
    Constant(f64),
    /// `mean + amplitude * sin(2π t / period + phase)`.
    Sinusoid {
        /// Centre level.
        mean: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Oscillation period in seconds.
        period_secs: f64,
        /// Phase offset in radians.
        phase: f64,
    },
    /// Mean-reverting bounded random walk (Ornstein–Uhlenbeck-flavoured).
    RandomWalk {
        /// Level the walk reverts towards.
        mean: f64,
        /// Per-step noise magnitude.
        sigma: f64,
        /// Hard lower bound.
        min: f64,
        /// Hard upper bound.
        max: f64,
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Replays a recorded utilization trace (e.g. exported from a
    /// production monitoring system) with linear interpolation between
    /// points; repeats from the start after the last point. This is the
    /// ingestion path for real datacenter traces where available — the
    /// synthetic profiles stand in when they are not.
    Trace {
        /// `(time_secs, utilization)` samples, sorted by time. An empty
        /// trace is zero demand.
        points: Vec<(f64, f64)>,
    },
    /// Square wave alternating between two levels.
    OnOff {
        /// Utilization while on.
        on_level: f64,
        /// Utilization while off.
        off_level: f64,
        /// On-phase length in seconds.
        on_secs: f64,
        /// Off-phase length in seconds.
        off_secs: f64,
        /// Shift of the phase boundary, in seconds.
        offset_secs: f64,
    },
}

impl UtilizationModel {
    /// Convenience constructor for the mean-reverting walk.
    #[must_use]
    pub fn random_walk(mean: f64, sigma: f64, min: f64, max: f64, seed: u64) -> Self {
        UtilizationModel::RandomWalk {
            mean,
            sigma,
            min,
            max,
            seed,
        }
    }

    /// Builds a trace model from `time,utilization` CSV text (header line
    /// optional; blank lines and `#` comments skipped).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for malformed rows,
    /// unsorted times, out-of-range utilizations, or an empty trace.
    pub fn trace_from_csv(text: &str) -> Result<Self, String> {
        let mut points: Vec<(f64, f64)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(',');
            let (Some(t), Some(u)) = (parts.next(), parts.next()) else {
                return Err(format!("line {}: expected `time,utilization`", lineno + 1));
            };
            let (Ok(t), Ok(u)) = (t.trim().parse::<f64>(), u.trim().parse::<f64>()) else {
                if lineno == 0 {
                    continue; // header row
                }
                return Err(format!("line {}: non-numeric row", lineno + 1));
            };
            if !(0.0..=1.0).contains(&u) {
                return Err(format!(
                    "line {}: utilization {u} outside [0, 1]",
                    lineno + 1
                ));
            }
            if let Some((prev, _)) = points.last() {
                if t <= *prev {
                    return Err(format!("line {}: time {t} not increasing", lineno + 1));
                }
            }
            points.push((t, u));
        }
        if points.is_empty() {
            return Err("trace contains no samples".to_string());
        }
        Ok(UtilizationModel::Trace { points })
    }

    /// Instantiates the stateful generator.
    #[must_use]
    pub fn into_generator(self) -> UtilizationGenerator {
        let rng_seed = if let UtilizationModel::RandomWalk { seed, .. } = &self {
            *seed
        } else {
            0
        };
        let level = self.level_hint();
        UtilizationGenerator {
            model: self,
            rng: StdRng::seed_from_u64(rng_seed),
            walk: level,
        }
    }

    /// Long-run mean level of this model.
    #[must_use]
    pub fn level_hint(&self) -> f64 {
        match self {
            UtilizationModel::Constant(v) => *v,
            UtilizationModel::Sinusoid { mean, .. } => *mean,
            UtilizationModel::RandomWalk { mean, .. } => *mean,
            UtilizationModel::OnOff {
                on_level,
                off_level,
                on_secs,
                off_secs,
                ..
            } => (on_level * on_secs + off_level * off_secs) / (on_secs + off_secs),
            UtilizationModel::Trace { points } if points.is_empty() => 0.0,
            UtilizationModel::Trace { points } => {
                points.iter().map(|(_, u)| u).sum::<f64>() / points.len() as f64
            }
        }
    }
}

/// Stateful utilization trace generator. Call [`UtilizationGenerator::at`]
/// with monotonically non-decreasing times (the random walk advances once
/// per call).
#[derive(Debug, Clone)]
pub struct UtilizationGenerator {
    model: UtilizationModel,
    rng: StdRng,
    walk: f64,
}

impl UtilizationGenerator {
    /// Per-vCPU utilization at simulation time `t`, in `[0, 1]`.
    pub fn at(&mut self, t: SimTime) -> f64 {
        let secs = t.as_secs_f64();
        let raw = match &self.model {
            UtilizationModel::Constant(v) => *v,
            UtilizationModel::Sinusoid {
                mean,
                amplitude,
                period_secs,
                phase,
            } => mean + amplitude * (std::f64::consts::TAU * secs / period_secs + phase).sin(),
            UtilizationModel::RandomWalk {
                mean,
                sigma,
                min,
                max,
                ..
            } => {
                // Mean-revert then diffuse; one step per query.
                let noise: f64 = self.rng.gen_range(-1.0..1.0) * sigma;
                self.walk += 0.1 * (mean - self.walk) + noise;
                self.walk = self.walk.clamp(*min, *max);
                self.walk
            }
            UtilizationModel::OnOff {
                on_level,
                off_level,
                on_secs,
                off_secs,
                offset_secs,
            } => {
                let cycle = on_secs + off_secs;
                let pos = (secs + offset_secs).rem_euclid(cycle);
                if pos < *on_secs {
                    *on_level
                } else {
                    *off_level
                }
            }
            UtilizationModel::Trace { points } => sample_trace(points, secs),
        };
        raw.clamp(0.0, 1.0)
    }

    /// The underlying model.
    #[must_use]
    pub fn model(&self) -> &UtilizationModel {
        &self.model
    }
}

/// Linear interpolation in a sorted trace, looping past the end; an empty
/// trace is zero demand.
fn sample_trace(points: &[(f64, f64)], secs: f64) -> f64 {
    let Some(&(last_t, last_u)) = points.last() else {
        return 0.0;
    };
    if points.len() == 1 {
        return points[0].1;
    }
    let span = last_t - points[0].0;
    let t = if span > 0.0 {
        points[0].0 + (secs - points[0].0).rem_euclid(span)
    } else {
        points[0].0
    };
    let idx = points.partition_point(|(pt, _)| *pt <= t);
    if idx == 0 {
        return points[0].1;
    }
    if idx >= points.len() {
        return last_u;
    }
    let (t0, u0) = points[idx - 1];
    let (t1, u1) = points[idx];
    u0 + (u1 - u0) * (t - t0) / (t1 - t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_have_sane_nominals() {
        for p in ALL_TASK_PROFILES {
            let u = p.nominal_cpu();
            assert!((0.0..=1.0).contains(&u), "{p}: {u}");
            let m = p.memory_intensity();
            assert!((0.0..=1.0).contains(&m), "{p}: {m}");
        }
    }

    #[test]
    fn profile_indices_are_unique_and_dense() {
        let mut seen = vec![false; ALL_TASK_PROFILES.len()];
        for p in ALL_TASK_PROFILES {
            assert!(!seen[p.index()], "duplicate index for {p}");
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn constant_model_is_constant() {
        let mut g = UtilizationModel::Constant(0.42).into_generator();
        for s in [0, 100, 10_000] {
            assert_eq!(g.at(SimTime::from_secs(s)), 0.42);
        }
    }

    #[test]
    fn sinusoid_oscillates_around_mean_within_amplitude() {
        let mut g = UtilizationModel::Sinusoid {
            mean: 0.5,
            amplitude: 0.2,
            period_secs: 100.0,
            phase: 0.0,
        }
        .into_generator();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in 0..200 {
            let u = g.at(SimTime::from_secs(s));
            min = min.min(u);
            max = max.max(u);
        }
        assert!((0.3 - 1e-9..0.35).contains(&min), "min = {min}");
        assert!(max <= 0.7 + 1e-9 && max > 0.65, "max = {max}");
    }

    #[test]
    fn random_walk_stays_in_bounds_and_reverts() {
        let mut g = UtilizationModel::random_walk(0.9, 0.05, 0.75, 1.0, 42).into_generator();
        let mut sum = 0.0;
        let n = 2000;
        for s in 0..n {
            let u = g.at(SimTime::from_secs(s));
            assert!((0.75..=1.0).contains(&u), "step {s}: {u}");
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.9).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn random_walk_is_seed_deterministic() {
        let run = |seed| {
            let mut g = UtilizationModel::random_walk(0.5, 0.1, 0.0, 1.0, seed).into_generator();
            (0..50)
                .map(|s| g.at(SimTime::from_secs(s)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn on_off_alternates() {
        let mut g = UtilizationModel::OnOff {
            on_level: 0.9,
            off_level: 0.1,
            on_secs: 10.0,
            off_secs: 10.0,
            offset_secs: 0.0,
        }
        .into_generator();
        assert_eq!(g.at(SimTime::from_secs(5)), 0.9);
        assert_eq!(g.at(SimTime::from_secs(15)), 0.1);
        assert_eq!(g.at(SimTime::from_secs(25)), 0.9);
    }

    #[test]
    fn on_off_level_hint_is_duty_weighted() {
        let m = UtilizationModel::OnOff {
            on_level: 1.0,
            off_level: 0.0,
            on_secs: 30.0,
            off_secs: 10.0,
            offset_secs: 0.0,
        };
        assert!((m.level_hint() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bursty_profile_respects_seed_offset() {
        let mut a = TaskProfile::Bursty.utilization_model(0).into_generator();
        let mut b = TaskProfile::Bursty.utilization_model(300).into_generator();
        // With offsets 0 and 300 the phases differ at t=0.
        assert_ne!(a.at(SimTime::ZERO), b.at(SimTime::ZERO));
    }

    #[test]
    fn trace_model_interpolates_and_loops() {
        let m = UtilizationModel::Trace {
            points: vec![(0.0, 0.0), (10.0, 1.0), (20.0, 0.0)],
        };
        let mut g = m.into_generator();
        assert_eq!(g.at(SimTime::from_secs(0)), 0.0);
        assert_eq!(g.at(SimTime::from_secs(5)), 0.5);
        assert_eq!(g.at(SimTime::from_secs(10)), 1.0);
        assert_eq!(g.at(SimTime::from_secs(15)), 0.5);
        // Loops: t = 25 behaves like t = 5.
        assert_eq!(g.at(SimTime::from_secs(25)), 0.5);
    }

    #[test]
    fn trace_from_csv_parses_with_header_and_comments() {
        let csv = "time,util\n# ramp\n0,0.2\n30,0.8\n60,0.4\n";
        let m = UtilizationModel::trace_from_csv(csv).unwrap();
        match &m {
            UtilizationModel::Trace { points } => assert_eq!(points.len(), 3),
            other => panic!("unexpected model {other:?}"),
        }
        assert!((m.level_hint() - (0.2 + 0.8 + 0.4) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_from_csv_rejects_bad_rows() {
        assert!(UtilizationModel::trace_from_csv("").is_err());
        assert!(UtilizationModel::trace_from_csv("0,0.5\n1,1.5\n").is_err()); // range
        assert!(UtilizationModel::trace_from_csv("0,0.5\n0,0.6\n").is_err()); // order
        assert!(UtilizationModel::trace_from_csv("t,u\n0,0.5\nabc,def\n").is_err());
    }

    #[test]
    fn single_point_trace_is_constant() {
        let m = UtilizationModel::Trace {
            points: vec![(0.0, 0.7)],
        };
        let mut g = m.into_generator();
        assert_eq!(g.at(SimTime::from_secs(99)), 0.7);
    }

    #[test]
    fn empty_trace_is_zero_demand() {
        // The variant is public, so a caller can skip `trace_from_csv`'s
        // non-empty check.
        let m = UtilizationModel::Trace { points: Vec::new() };
        assert_eq!(m.level_hint(), 0.0);
        let mut g = m.into_generator();
        assert_eq!(g.at(SimTime::from_secs(0)), 0.0);
        assert_eq!(g.at(SimTime::from_secs(99)), 0.0);
    }

    #[test]
    fn every_profile_generates_bounded_traces() {
        for p in ALL_TASK_PROFILES {
            let mut g = p.utilization_model(123).into_generator();
            for s in (0..3600).step_by(30) {
                let u = g.at(SimTime::from_secs(s));
                assert!((0.0..=1.0).contains(&u), "{p} at {s}s: {u}");
            }
        }
    }
}
