//! The scenario: one point in the data center design space.
//!
//! Everything the paper's what-if queries vary lives in this struct —
//! hardware (topology, disk/NIC/switch models), software (redundancy,
//! placement, repair policy) and workload (tenants) — so a "query to the
//! wind tunnel" (§4) is a function from `Scenario` to result.

use crate::chaos::FaultSchedule;
use serde::{Deserialize, Serialize};
use wt_hw::{CostModel, LimpwareSpec, TopologySpec};
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};
use wt_workload::TenantWorkload;

/// A complete data center design point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Display name (used in result-store keys and experiment output).
    pub name: String,
    /// Hardware build-out.
    pub topology: TopologySpec,
    /// Redundancy scheme (replication or erasure coding).
    pub redundancy: RedundancyScheme,
    /// Replica/shard placement policy.
    pub placement: Placement,
    /// Re-replication policy.
    pub repair: RepairPolicy,
    /// Number of customer objects stored.
    pub objects: u64,
    /// Raw size of one object, bytes.
    pub object_bytes: u64,
    /// Tenant workloads (empty for pure availability studies).
    pub tenants: Vec<TenantWorkload>,
    /// Optional limpware injection.
    pub limpware: Option<LimpwareSpec>,
    /// Simulate top-of-rack switch failures (correlated rack outages),
    /// parameterized from the topology's ToR spec.
    pub switch_failures: bool,
    /// Simulate per-disk failures (parameterized from the node's disk
    /// spec) in addition to whole-node failures.
    pub disk_failures: bool,
    /// Simulation horizon, years.
    pub horizon_years: f64,
    /// Root random seed.
    pub seed: u64,
    /// Optional declarative chaos: typed fault-injection rules compiled
    /// into deterministic scheduled events by the engines (`None` → no
    /// injections, and what pre-chaos scenario files deserialize to).
    pub faults: Option<FaultSchedule>,
}

impl Scenario {
    /// The fault schedule, if one is declared and non-empty.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref().filter(|f| !f.is_empty())
    }

    /// Total raw bytes stored (before redundancy).
    pub fn raw_bytes(&self) -> u64 {
        self.objects * self.object_bytes
    }

    /// Total bytes after redundancy overhead.
    pub fn stored_bytes(&self) -> f64 {
        self.raw_bytes() as f64 * self.redundancy.overhead()
    }

    /// Fraction of the topology's raw capacity consumed.
    pub fn capacity_utilization(&self) -> f64 {
        let capacity_bytes =
            self.topology.node_count() as f64 * self.topology.node.storage_gb() * 1e9;
        self.stored_bytes() / capacity_bytes
    }

    /// Yearly TCO of this scenario's hardware under `model`.
    pub fn tco_per_year(&self, model: &CostModel) -> f64 {
        model.cost(&self.topology).tco_usd_per_year
    }

    /// A copy with a different name and seed (for paired replications).
    pub fn with_seed(&self, seed: u64) -> Scenario {
        Scenario {
            seed,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_hw::catalog;

    fn base() -> Scenario {
        Scenario {
            name: "test".into(),
            topology: TopologySpec {
                racks: 2,
                nodes_per_rack: 5,
                node: catalog::node_storage_server(catalog::hdd_7200_4t(), 4, catalog::nic_10g()),
                tor: catalog::switch_tor_48x10g(),
                agg: catalog::switch_agg_32x40g(),
                oversubscription: 4.0,
            },
            redundancy: RedundancyScheme::replication(3),
            placement: Placement::Random,
            repair: RepairPolicy::serial(),
            objects: 1_000,
            object_bytes: 1 << 30,
            tenants: vec![],
            limpware: None,
            switch_failures: false,
            disk_failures: false,
            horizon_years: 1.0,
            seed: 42,
            faults: None,
        }
    }

    #[test]
    fn storage_accounting() {
        let s = base();
        assert_eq!(s.raw_bytes(), 1_000 << 30);
        assert!((s.stored_bytes() - 3.0 * s.raw_bytes() as f64).abs() < 1.0);
        // 10 nodes × 16 TB = 160 TB capacity; 3 TB stored ≈ 2%.
        let u = s.capacity_utilization();
        assert!((0.015..0.025).contains(&u), "utilization {u}");
    }

    #[test]
    fn erasure_uses_less_capacity() {
        let mut s = base();
        let rep = s.capacity_utilization();
        s.redundancy = RedundancyScheme::erasure(10, 4);
        assert!(s.capacity_utilization() < rep / 2.0);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let s = base();
        let t = s.with_seed(7);
        assert_eq!(t.seed, 7);
        assert_eq!(t.name, s.name);
        assert_eq!(t.objects, s.objects);
    }

    #[test]
    fn tco_positive() {
        let s = base();
        assert!(s.tco_per_year(&CostModel::default()) > 0.0);
    }

    #[test]
    fn scenario_serde_roundtrip() {
        let s = base();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.redundancy, s.redundancy);
        assert_eq!(back.seed, s.seed);
    }

    #[test]
    fn pre_backend_scenario_json_still_loads() {
        // Scenario files serialized before the queue backend existed have
        // no "queue" key; files written while it existed carry one. Both
        // load to the same scenario, which is written without the key.
        let json = serde_json::to_string(&base()).unwrap();
        assert!(!json.contains("\"queue\""), "no queue key is written");
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let keyed = json.replacen(",\"faults\":", ",\"queue\":null,\"faults\":", 1);
        assert_ne!(keyed, json, "expected a trailing faults field");
        let back: Scenario = serde_json::from_str(&keyed).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn pre_chaos_scenario_json_still_loads() {
        // Scenario files serialized before the fault schedule existed have
        // no "faults" key at all; they must load with no injections.
        let json = serde_json::to_string(&base()).unwrap();
        let stripped = json.replacen(",\"faults\":null", "", 1);
        assert_ne!(stripped, json, "expected a trailing faults field");
        let back: Scenario = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.faults, None);
        assert!(back.fault_schedule().is_none());
    }

    #[test]
    fn tenant_latency_sla_key_still_loads() {
        // Tenants once carried their own latency SLA; scenario files with
        // a "latency_sla" key must still load (SLAs are WTQL constraints).
        let mut s = base();
        s.tenants.push(TenantWorkload::oltp("shop", 10.0, 100));
        let json = serde_json::to_string(&s).unwrap();
        let old = json.replacen(
            "\"dataset_bytes\":",
            "\"latency_sla\":[0.95,0.05],\"dataset_bytes\":",
            1,
        );
        assert_ne!(old, json, "expected a tenant dataset_bytes field");
        let back: Scenario = serde_json::from_str(&old).unwrap();
        assert_eq!(back.tenants.len(), 1);
        assert_eq!(back.tenants[0].name, "shop");
        assert_eq!(back.tenants[0].dataset_bytes, s.tenants[0].dataset_bytes);
    }

    #[test]
    fn empty_fault_schedule_means_no_chaos() {
        let mut s = base();
        s.faults = Some(crate::chaos::FaultSchedule::new());
        assert!(s.fault_schedule().is_none());
        s.faults = Some(crate::chaos::FaultSchedule::new().rule(
            "tor",
            60.0,
            crate::chaos::FaultKind::TorDeath {
                rack: 0,
                repair_s: 600.0,
            },
        ));
        assert!(s.fault_schedule().is_some());
    }
}
