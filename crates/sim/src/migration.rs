//! Live VM migration mechanics.
//!
//! Migration is the scenario that breaks classical temperature models and
//! motivates the paper: "for more complicated scenarios such as Virtual
//! Machine migration, these approaches are unable to model CPU
//! temperature." A pre-copy live migration
//!
//! 1. runs for a duration proportional to the VM's memory over the
//!    migration bandwidth (times a dirty-page retransmission factor),
//! 2. burns extra CPU on both source (page tracking + send) and
//!    destination (receive + apply) while in flight,
//! 3. atomically moves the VM at cut-over.
//!
//! The engine owns the in-flight bookkeeping; this module computes the
//! physics and carries the plan.

use crate::server::ServerId;
use crate::time::{SimDuration, SimTime};
use crate::vm::VmId;
use serde::{Deserialize, Serialize};

/// Tunable constants of the migration path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Usable migration bandwidth (Gbit/s).
    pub bandwidth_gbps: f64,
    /// Total bytes sent as a multiple of VM memory (pre-copy rounds).
    pub dirty_page_factor: f64,
    /// Extra vCPU-units of load on the source while migrating.
    pub source_overhead_vcpus: f64,
    /// Extra vCPU-units of load on the destination while migrating.
    pub dest_overhead_vcpus: f64,
}

impl MigrationConfig {
    /// Transfer duration for a VM with `memory_gb` of configured memory.
    /// At 10 Gbit/s and factor 1.3, an 8 GB VM takes ≈ 8.3 s.
    #[must_use]
    pub fn duration_for(&self, memory_gb: f64) -> SimDuration {
        let bits = memory_gb.max(0.0) * 8.0 * self.dirty_page_factor * 1e9;
        let secs = bits / (self.bandwidth_gbps * 1e9);
        SimDuration::from_millis((secs * 1000.0).ceil() as u64)
    }
}

impl Default for MigrationConfig {
    /// 10 GbE, 1.3× dirty-page factor, 0.5/0.3 vCPU overheads — in line
    /// with measured KVM/Xen pre-copy costs.
    fn default() -> Self {
        MigrationConfig {
            bandwidth_gbps: 10.0,
            dirty_page_factor: 1.3,
            source_overhead_vcpus: 0.5,
            dest_overhead_vcpus: 0.3,
        }
    }
}

/// An in-flight migration tracked by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveMigration {
    /// The VM being moved.
    pub vm: VmId,
    /// Where it currently executes.
    pub source: ServerId,
    /// Where it will land.
    pub dest: ServerId,
    /// When the pre-copy began.
    pub started: SimTime,
    /// Total transfer duration.
    pub duration: SimDuration,
}

impl ActiveMigration {
    /// Cut-over instant: when the VM switches hosts.
    #[must_use]
    pub fn completes_at(&self) -> SimTime {
        self.started + self.duration
    }

    /// Whether the migration has finished by `now`.
    #[must_use]
    pub fn is_complete(&self, now: SimTime) -> bool {
        now >= self.completes_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_scales_with_memory_and_bandwidth() {
        let cfg = MigrationConfig::default();
        let small = cfg.duration_for(4.0);
        let large = cfg.duration_for(16.0);
        assert!(large.as_secs_f64() > 3.9 * small.as_secs_f64());

        let fast = MigrationConfig {
            bandwidth_gbps: 40.0,
            ..cfg
        };
        assert!(fast.duration_for(8.0) < cfg.duration_for(8.0));
    }

    #[test]
    fn eight_gb_over_10gbe_takes_seconds() {
        let d = MigrationConfig::default().duration_for(8.0);
        let s = d.as_secs_f64();
        assert!((5.0..15.0).contains(&s), "duration {s}s");
    }

    #[test]
    fn zero_memory_is_instant() {
        assert!(MigrationConfig::default().duration_for(0.0).is_zero());
    }

    #[test]
    fn completion_is_start_plus_duration() {
        let m = ActiveMigration {
            vm: VmId::new(1),
            source: ServerId::new(0),
            dest: ServerId::new(1),
            started: SimTime::from_secs(100),
            duration: SimDuration::from_secs(10),
        };
        assert_eq!(m.completes_at(), SimTime::from_secs(110));
        assert!(!m.is_complete(SimTime::from_secs(109)));
        assert!(m.is_complete(SimTime::from_secs(110)));
    }

    #[test]
    fn zero_duration_is_always_complete() {
        let m = ActiveMigration {
            vm: VmId::new(1),
            source: ServerId::new(0),
            dest: ServerId::new(1),
            started: SimTime::ZERO,
            duration: SimDuration::ZERO,
        };
        assert!(m.is_complete(SimTime::ZERO));
    }
}
