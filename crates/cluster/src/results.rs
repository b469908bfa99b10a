//! Serializable simulation outputs — the data the §4.4 result store keeps.

use serde::{Deserialize, Serialize};

/// One point of the Figure 1 curve: with `failures` nodes down, the
/// probability that at least one customer lost their quorum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnavailabilityPoint {
    /// Number of simultaneously failed nodes.
    pub failures: usize,
    /// P(≥1 customer unavailable), estimated over the experiment's trials.
    pub p_unavailable: f64,
    /// Expected fraction of customers unavailable (a finer-grained view).
    pub mean_affected_fraction: f64,
}

/// Output of a time-domain availability run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityResult {
    /// Mean over objects of the fraction of time the object was operable.
    pub availability: f64,
    /// Number of "nines" of the mean availability.
    pub nines: f64,
    /// Count of operability-loss episodes across all objects.
    pub unavailability_events: u64,
    /// Objects that hit the `Lost` durability state (unrecoverable).
    pub objects_lost: u64,
    /// Total node failures injected.
    pub node_failures: u64,
    /// Total switch (rack) failures injected.
    pub switch_failures: u64,
    /// Total individual disk failures injected.
    pub disk_failures: u64,
    /// Total replica rebuilds completed.
    pub rebuilds_completed: u64,
    /// Mean time a degraded object waited for rebuild, seconds.
    pub mean_rebuild_wait_s: f64,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Discrete events the engine executed (the wind tunnel's cost unit,
    /// used to account early-abort savings in §4.2 experiments).
    pub sim_events: u64,
}

impl AvailabilityResult {
    /// Converts an availability fraction into "nines".
    pub fn nines_of(avail: f64) -> f64 {
        if avail >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - avail).log10()
        }
    }
}

/// Per-tenant performance outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantPerf {
    /// Tenant name.
    pub name: String,
    /// Completed requests.
    pub completed: u64,
    /// Requests that found no live replica.
    pub failed: u64,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 95th percentile latency, seconds.
    pub p95_s: f64,
    /// 99th percentile latency, seconds.
    pub p99_s: f64,
    /// Median latency from the mergeable DDSketch path, seconds. The
    /// `p*_s` fields above come from the exact retained-bucket histogram
    /// and act as the accuracy oracle; these fields are what a
    /// sketch-only (constant-memory) pipeline reports. `None` on records
    /// written before the sketch pipeline existed.
    pub sketch_p50_s: Option<f64>,
    /// 95th percentile latency from the sketch path, seconds.
    pub sketch_p95_s: Option<f64>,
    /// 99th percentile latency from the sketch path, seconds.
    pub sketch_p99_s: Option<f64>,
    /// Throughput over the horizon, requests/second.
    pub throughput: f64,
}

/// Output of a performance run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfResult {
    /// One entry per tenant, in scenario order.
    pub tenants: Vec<TenantPerf>,
    /// Node failures injected during the run.
    pub node_failures: u64,
    /// Mean disk utilization across nodes.
    pub mean_disk_utilization: f64,
    /// Mean NIC utilization across nodes.
    pub mean_nic_utilization: f64,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
}

impl PerfResult {
    /// The tenant entry by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantPerf> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nines() {
        assert!((AvailabilityResult::nines_of(0.999) - 3.0).abs() < 1e-9);
        assert!((AvailabilityResult::nines_of(0.99999) - 5.0).abs() < 1e-6);
        assert_eq!(AvailabilityResult::nines_of(1.0), f64::INFINITY);
    }

    #[test]
    fn perf_result_lookup() {
        let tenant = |name: &str| TenantPerf {
            name: name.into(),
            completed: 10,
            failed: 0,
            mean_s: 0.01,
            p50_s: 0.01,
            p95_s: 0.02,
            p99_s: 0.03,
            sketch_p50_s: None,
            sketch_p95_s: None,
            sketch_p99_s: None,
            throughput: 1.0,
        };
        let r = PerfResult {
            tenants: vec![tenant("a"), tenant("b")],
            node_failures: 0,
            mean_disk_utilization: 0.5,
            mean_nic_utilization: 0.2,
            horizon_s: 100.0,
        };
        assert_eq!(r.tenant("b").map(|t| t.name.as_str()), Some("b"));
        assert!(r.tenant("zzz").is_none());
    }
}
