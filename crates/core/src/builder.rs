//! Fluent scenario construction with sensible catalog defaults.

use wt_cluster::{FaultSchedule, Scenario};
use wt_hw::{catalog, DiskSpec, LimpwareSpec, NicSpec, SwitchSpec, TopologySpec};
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};
use wt_workload::TenantWorkload;

/// Builds a [`Scenario`] step by step. Every knob has a production-shaped
/// default: 10G network, 12×4 TB HDDs per node, 3-way majority-quorum
/// replication, random placement, serial repair, 10,000 objects of 1 GB.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    racks: usize,
    nodes_per_rack: usize,
    disk: DiskSpec,
    disks_per_node: usize,
    nic: NicSpec,
    tor: SwitchSpec,
    agg: SwitchSpec,
    oversubscription: f64,
    memory_gb: f64,
    redundancy: RedundancyScheme,
    placement: Placement,
    repair: RepairPolicy,
    objects: u64,
    object_bytes: u64,
    tenants: Vec<TenantWorkload>,
    limpware: Option<LimpwareSpec>,
    switch_failures: bool,
    disk_failures: bool,
    horizon_years: f64,
    seed: u64,
    faults: Option<FaultSchedule>,
}

impl ScenarioBuilder {
    /// A builder with the defaults described on the type.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            name: name.into(),
            racks: 1,
            nodes_per_rack: 10,
            disk: catalog::hdd_7200_4t(),
            disks_per_node: 12,
            nic: catalog::nic_10g(),
            tor: catalog::switch_tor_48x10g(),
            agg: catalog::switch_agg_32x40g(),
            oversubscription: 4.0,
            memory_gb: 64.0,
            redundancy: RedundancyScheme::replication(3),
            placement: Placement::Random,
            repair: RepairPolicy::serial(),
            objects: 10_000,
            object_bytes: 1 << 30,
            tenants: Vec::new(),
            limpware: None,
            switch_failures: false,
            disk_failures: false,
            horizon_years: 1.0,
            seed: 42,
            faults: None,
        }
    }

    /// Number of racks.
    pub fn racks(mut self, racks: usize) -> Self {
        self.racks = racks;
        self
    }

    /// Servers per rack.
    pub fn nodes_per_rack(mut self, n: usize) -> Self {
        self.nodes_per_rack = n;
        self
    }

    /// Disk model for every node.
    pub fn disk(mut self, disk: DiskSpec) -> Self {
        self.disk = disk;
        self
    }

    /// Disks per node.
    pub fn disks_per_node(mut self, n: usize) -> Self {
        self.disks_per_node = n;
        self
    }

    /// NIC model for every node.
    pub fn nic(mut self, nic: NicSpec) -> Self {
        self.nic = nic;
        self
    }

    /// Top-of-rack switch model.
    pub fn tor(mut self, tor: SwitchSpec) -> Self {
        self.tor = tor;
        self
    }

    /// ToR uplink oversubscription factor.
    pub fn oversubscription(mut self, factor: f64) -> Self {
        self.oversubscription = factor;
        self
    }

    /// DRAM per node, GB (the E4 provisioning axis).
    pub fn memory_gb(mut self, gb: f64) -> Self {
        self.memory_gb = gb;
        self
    }

    /// n-way majority-quorum replication.
    pub fn replication(mut self, n: usize) -> Self {
        self.redundancy = RedundancyScheme::replication(n);
        self
    }

    /// RS(k, m) erasure coding.
    pub fn erasure(mut self, k: usize, m: usize) -> Self {
        self.redundancy = RedundancyScheme::erasure(k, m);
        self
    }

    /// Explicit redundancy scheme.
    pub fn redundancy(mut self, scheme: RedundancyScheme) -> Self {
        self.redundancy = scheme;
        self
    }

    /// Placement policy.
    pub fn placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    /// Repair policy.
    pub fn repair(mut self, r: RepairPolicy) -> Self {
        self.repair = r;
        self
    }

    /// Number of customer objects.
    pub fn objects(mut self, n: u64) -> Self {
        self.objects = n;
        self
    }

    /// Object size in bytes.
    pub fn object_bytes(mut self, bytes: u64) -> Self {
        self.object_bytes = bytes;
        self
    }

    /// Object size in GB.
    pub fn object_gb(mut self, gb: f64) -> Self {
        self.object_bytes = (gb * (1u64 << 30) as f64) as u64;
        self
    }

    /// Adds a tenant workload.
    pub fn tenant(mut self, t: TenantWorkload) -> Self {
        self.tenants.push(t);
        self
    }

    /// Injects limpware.
    pub fn limpware(mut self, spec: LimpwareSpec) -> Self {
        self.limpware = Some(spec);
        self
    }

    /// Enables correlated rack outages (ToR switch failures, reliability
    /// from the ToR spec in the catalog).
    pub fn switch_failures(mut self, on: bool) -> Self {
        self.switch_failures = on;
        self
    }

    /// Enables per-disk failures (reliability from the disk spec) on top
    /// of whole-node failures.
    pub fn disk_failures(mut self, on: bool) -> Self {
        self.disk_failures = on;
        self
    }

    /// Simulation horizon in years.
    pub fn horizon_years(mut self, years: f64) -> Self {
        self.horizon_years = years;
        self
    }

    /// Root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declarative chaos: a schedule of typed fault injections the engines
    /// compile into deterministic scheduled events.
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Assembles the scenario (validates the topology).
    pub fn build(self) -> Scenario {
        let node =
            catalog::node_with_memory(self.disk, self.disks_per_node, self.nic, self.memory_gb);
        let topology = TopologySpec {
            racks: self.racks,
            nodes_per_rack: self.nodes_per_rack,
            node,
            tor: self.tor,
            agg: self.agg,
            oversubscription: self.oversubscription,
        };
        // Validate early: building the topology checks port counts etc.
        let _ = topology.build();
        assert!(
            self.redundancy.width() <= topology.node_count(),
            "redundancy width {} exceeds cluster size {}",
            self.redundancy.width(),
            topology.node_count()
        );
        Scenario {
            name: self.name,
            topology,
            redundancy: self.redundancy,
            placement: self.placement,
            repair: self.repair,
            objects: self.objects,
            object_bytes: self.object_bytes,
            tenants: self.tenants,
            limpware: self.limpware,
            switch_failures: self.switch_failures,
            disk_failures: self.disk_failures,
            horizon_years: self.horizon_years,
            seed: self.seed,
            faults: self.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_valid_scenario() {
        let s = ScenarioBuilder::new("d").build();
        assert_eq!(s.topology.node_count(), 10);
        assert_eq!(s.redundancy.width(), 3);
        assert_eq!(s.objects, 10_000);
        assert_eq!(s.topology.node.disks.len(), 12);
    }

    #[test]
    fn knobs_propagate() {
        let s = ScenarioBuilder::new("k")
            .racks(3)
            .nodes_per_rack(8)
            .disk(catalog::ssd_sata_1t())
            .disks_per_node(4)
            .nic(catalog::nic_40g())
            .memory_gb(256.0)
            .erasure(6, 3)
            .placement(Placement::RoundRobin)
            .repair(RepairPolicy::parallel(8))
            .objects(123)
            .object_gb(2.0)
            .horizon_years(0.5)
            .seed(9)
            .build();
        assert_eq!(s.topology.racks, 3);
        assert_eq!(s.topology.node.disks[0].name, "ssd-sata-1t");
        assert_eq!(s.topology.node.nic.name, "nic-40g");
        assert_eq!(s.topology.node.mem.capacity_gb, 256.0);
        assert_eq!(s.redundancy.width(), 9);
        assert_eq!(s.placement, Placement::RoundRobin);
        assert_eq!(s.repair.max_parallel, 8);
        assert_eq!(s.objects, 123);
        assert_eq!(s.object_bytes, 2 << 30);
        assert_eq!(s.horizon_years, 0.5);
        assert_eq!(s.seed, 9);
    }

    #[test]
    fn queue_backend_defaults_to_heap() {
        // A built scenario has no event-list knob: both engines derived
        // from it run on the binary heap and record it as provenance.
        let s = ScenarioBuilder::new("q")
            .horizon_years(0.05)
            .tenant(TenantWorkload::oltp("a", 10.0, 100))
            .build();
        let horizon = wt_des::time::SimDuration::from_years(s.horizon_years);
        let (_, t) = crate::WindTunnel::availability_model(&s).run_observed(s.seed, horizon, None);
        assert_eq!(t.queue.as_deref(), Some("heap"));
        let (_, t) = crate::WindTunnel::perf_model(&s, false).run_observed(s.seed, None);
        assert_eq!(t.queue.as_deref(), Some("heap"));
    }

    #[test]
    #[should_panic(expected = "exceeds cluster size")]
    fn overwide_redundancy_rejected() {
        let _ = ScenarioBuilder::new("bad")
            .racks(1)
            .nodes_per_rack(5)
            .erasure(10, 4)
            .build();
    }

    #[test]
    fn tenants_accumulate() {
        let s = ScenarioBuilder::new("t")
            .tenant(TenantWorkload::oltp("a", 10.0, 100))
            .tenant(TenantWorkload::analytics("b", 1.0, 10))
            .build();
        assert_eq!(s.tenants.len(), 2);
    }
}
