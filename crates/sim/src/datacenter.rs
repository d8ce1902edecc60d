//! A datacenter: a fleet of servers with rack grouping.

use crate::error::SimError;
use crate::server::{Server, ServerId, ServerSpec};
use crate::vm::VmId;
use serde::{Deserialize, Serialize};
use vmtherm_units::Celsius;

/// Rack label; servers in the same rack share airflow peculiarities
/// (modelled as a per-rack ambient offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackId(usize);

impl RackId {
    /// Wraps a raw rack index.
    #[must_use]
    pub fn new(raw: usize) -> Self {
        RackId(raw)
    }

    /// The raw index.
    #[must_use]
    pub fn raw(self) -> usize {
        self.0
    }
}

/// Each server's ambient offset, readable while the servers themselves
/// are borrowed mutably (see [`Datacenter::servers_and_offsets_mut`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AmbientOffsets<'a> {
    racks: &'a [RackId],
    rack_offsets: &'a [f64],
}

impl AmbientOffsets<'_> {
    /// The ambient offset (°C above room inlet) of the server at stable
    /// index `idx`; 0 for an unknown server.
    #[must_use]
    pub(crate) fn get(&self, idx: usize) -> f64 {
        self.racks
            .get(idx)
            .and_then(|rack| self.rack_offsets.get(rack.raw()))
            .copied()
            .unwrap_or(0.0)
    }
}

/// The server fleet.
#[derive(Debug, Clone)]
pub struct Datacenter {
    servers: Vec<Server>,
    racks: Vec<RackId>,
    /// Ambient offset per rack (°C above the room inlet) — top-of-rack
    /// servers run slightly warmer.
    rack_offsets: Vec<f64>,
}

impl Datacenter {
    /// An empty datacenter.
    #[must_use]
    pub fn new() -> Self {
        Datacenter {
            servers: Vec::new(),
            racks: Vec::new(),
            rack_offsets: Vec::new(),
        }
    }

    /// Builds a datacenter of `count` identical servers from a spec
    /// template, `per_rack` servers per rack, all starting at `ambient_c`.
    #[must_use]
    pub fn homogeneous(
        template: &ServerSpec,
        count: usize,
        per_rack: usize,
        ambient_c: Celsius,
        seed: u64,
    ) -> Self {
        let mut dc = Datacenter::new();
        for i in 0..count {
            let spec = ServerSpec::commodity(
                format!("{}-{i}", template.name()),
                template.cores(),
                template.ghz_per_core(),
                template.memory_gb(),
                template.fans().count(),
            )
            .with_power(template.power())
            .with_thermal(template.thermal())
            .with_sensor(template.sensor());
            let rack = RackId::new(i.checked_div(per_rack).unwrap_or(0));
            dc.add_server_in_rack(spec, rack, ambient_c, seed.wrapping_add(i as u64));
        }
        dc
    }

    /// Adds a server in rack 0 and returns its id.
    pub fn add_server(&mut self, spec: ServerSpec, ambient_c: Celsius, seed: u64) -> ServerId {
        self.add_server_in_rack(spec, RackId::new(0), ambient_c, seed)
    }

    /// Adds a server in a given rack and returns its id.
    pub fn add_server_in_rack(
        &mut self,
        spec: ServerSpec,
        rack: RackId,
        ambient_c: Celsius,
        seed: u64,
    ) -> ServerId {
        let id = ServerId::new(self.servers.len());
        self.servers.push(Server::new(id, spec, ambient_c, seed));
        self.racks.push(rack);
        while self.rack_offsets.len() <= rack.raw() {
            // Default: each successive rack runs 0.3 °C warmer (recirculation).
            self.rack_offsets.push(self.rack_offsets.len() as f64 * 0.3);
        }
        id
    }

    /// Overrides a rack's ambient offset, a relative delta in °C.
    pub fn set_rack_offset(&mut self, rack: RackId, offset_deg: f64) {
        while self.rack_offsets.len() <= rack.raw() {
            self.rack_offsets.push(0.0);
        }
        self.rack_offsets[rack.raw()] = offset_deg;
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when the fleet is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Immutable server access.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an out-of-range id.
    pub fn server(&self, id: ServerId) -> Result<&Server, SimError> {
        self.servers
            .get(id.raw())
            .ok_or(SimError::UnknownServer(id))
    }

    /// Mutable server access.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an out-of-range id.
    pub fn server_mut(&mut self, id: ServerId) -> Result<&mut Server, SimError> {
        self.servers
            .get_mut(id.raw())
            .ok_or(SimError::UnknownServer(id))
    }

    /// Iterates all servers.
    pub fn iter(&self) -> impl Iterator<Item = &Server> {
        self.servers.iter()
    }

    /// Iterates all servers mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Server> {
        self.servers.iter_mut()
    }

    /// All servers as one mutable slice, in stable id order, plus every
    /// server's ambient offset.
    ///
    /// The engine steps a batch of servers through the slice and reads
    /// each server's offset in the same pass instead of collecting the
    /// offsets first.
    pub(crate) fn servers_and_offsets_mut(&mut self) -> (&mut [Server], AmbientOffsets<'_>) {
        let offsets = AmbientOffsets {
            racks: &self.racks,
            rack_offsets: &self.rack_offsets,
        };
        (&mut self.servers, offsets)
    }

    /// The rack a server sits in.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an out-of-range id.
    pub fn rack_of(&self, id: ServerId) -> Result<RackId, SimError> {
        self.racks
            .get(id.raw())
            .copied()
            .ok_or(SimError::UnknownServer(id))
    }

    /// The ambient offset a server experiences (°C above room inlet).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an out-of-range id.
    pub fn ambient_offset(&self, id: ServerId) -> Result<f64, SimError> {
        let rack = self.rack_of(id)?;
        Ok(self.rack_offsets.get(rack.raw()).copied().unwrap_or(0.0))
    }

    /// Which server hosts a VM, if any.
    #[must_use]
    pub fn locate_vm(&self, vm: VmId) -> Option<ServerId> {
        self.servers.iter().find(|s| s.hosts(vm)).map(Server::id)
    }

    /// Total heat the fleet dumps into the room (kW), from the last step.
    #[must_use]
    pub fn room_heat_kw(&self) -> f64 {
        self.servers
            .iter()
            .map(Server::room_heat_watts)
            .sum::<f64>()
            / 1000.0
    }

    /// The hottest server by true die temperature, if any.
    #[must_use]
    pub fn hottest(&self) -> Option<(ServerId, f64)> {
        self.servers
            .iter()
            .map(|s| (s.id(), s.die_temperature()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

impl Default for Datacenter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::vm::{Vm, VmSpec};
    use crate::workload::TaskProfile;
    use vmtherm_units::Seconds;

    #[test]
    fn homogeneous_builds_fleet_with_racks() {
        let template = ServerSpec::standard("node");
        let dc = Datacenter::homogeneous(&template, 6, 2, Celsius::new(25.0), 1);
        assert_eq!(dc.len(), 6);
        assert_eq!(dc.rack_of(ServerId::new(0)).unwrap(), RackId::new(0));
        assert_eq!(dc.rack_of(ServerId::new(5)).unwrap(), RackId::new(2));
        // Later racks run warmer by default.
        assert!(dc.ambient_offset(ServerId::new(5)).unwrap() > 0.0);
    }

    #[test]
    fn unknown_server_is_an_error() {
        let dc = Datacenter::new();
        assert!(matches!(
            dc.server(ServerId::new(0)),
            Err(SimError::UnknownServer(_))
        ));
        assert!(dc.rack_of(ServerId::new(3)).is_err());
    }

    #[test]
    fn locate_vm_finds_host() {
        let mut dc = Datacenter::new();
        let s0 = dc.add_server(ServerSpec::standard("a"), Celsius::new(25.0), 1);
        let s1 = dc.add_server(ServerSpec::standard("b"), Celsius::new(25.0), 2);
        let vm = Vm::new(
            crate::vm::VmId::new(9),
            VmSpec::new("x", 1, 2.0, TaskProfile::Idle),
            0,
        );
        dc.server_mut(s1).unwrap().boot_vm(vm).unwrap();
        assert_eq!(dc.locate_vm(crate::vm::VmId::new(9)), Some(s1));
        assert_ne!(dc.locate_vm(crate::vm::VmId::new(9)), Some(s0));
        assert_eq!(dc.locate_vm(crate::vm::VmId::new(99)), None);
    }

    #[test]
    fn rack_offset_override() {
        let mut dc = Datacenter::new();
        let id = dc.add_server_in_rack(
            ServerSpec::standard("a"),
            RackId::new(2),
            Celsius::new(25.0),
            1,
        );
        dc.set_rack_offset(RackId::new(2), 1.5);
        assert_eq!(dc.ambient_offset(id).unwrap(), 1.5);
    }

    #[test]
    fn hottest_finds_loaded_server() {
        let mut dc = Datacenter::new();
        let s0 = dc.add_server(ServerSpec::standard("cool"), Celsius::new(25.0), 1);
        let s1 = dc.add_server(ServerSpec::standard("hot"), Celsius::new(25.0), 2);
        for i in 0..6 {
            let vm = Vm::new(
                crate::vm::VmId::new(i),
                VmSpec::new(format!("v{i}"), 4, 4.0, TaskProfile::CpuBound),
                i,
            );
            dc.server_mut(s1).unwrap().boot_vm(vm).unwrap();
        }
        for t in 0..900 {
            let now = SimTime::from_secs(t);
            for s in dc.iter_mut() {
                s.step(now, Celsius::new(25.0), Seconds::new(1.0));
            }
        }
        let (hottest, temp) = dc.hottest().unwrap();
        assert_eq!(hottest, s1);
        assert!(temp > dc.server(s0).unwrap().die_temperature());
    }

    #[test]
    fn room_heat_aggregates() {
        let mut dc = Datacenter::new();
        dc.add_server(ServerSpec::standard("a"), Celsius::new(25.0), 1);
        dc.add_server(ServerSpec::standard("b"), Celsius::new(25.0), 2);
        for s in dc.iter_mut() {
            s.step(SimTime::ZERO, Celsius::new(25.0), Seconds::new(1.0));
        }
        assert!(dc.room_heat_kw() > 0.1);
    }
}
