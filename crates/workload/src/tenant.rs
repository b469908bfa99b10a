//! Multi-tenant workload sets.
//!
//! §3's performance-SLA use case: "quantify the impact on existing
//! workloads when a new workload is added on a machine". A scenario holds a
//! list of [`TenantWorkload`]s; the experiment harness adds/removes tenants
//! between arms and compares per-tenant latency percentiles.

use crate::generator::OpenLoop;
use crate::mix::Mix;
use serde::{Deserialize, Serialize};

/// One tenant: a named workload with its own mix and arrival process. A
/// latency SLA on it is a WTQL constraint on its per-tenant metrics
/// (`shop_p95_s <= 0.05`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantWorkload {
    /// Display name.
    pub name: String,
    /// Operation mix and keyspace.
    pub mix: Mix,
    /// Arrival process.
    pub arrivals: OpenLoop,
    /// Per-object size in bytes (for placement/repair accounting).
    pub object_bytes: u64,
    /// Total logical data the tenant stores, bytes — drives buffer-cache
    /// hit rates in the performance simulator.
    pub dataset_bytes: u64,
}

impl TenantWorkload {
    /// A transactional tenant: YCSB-B at `rate` req/s over `keys` keys.
    pub fn oltp(name: &str, rate: f64, keys: u64) -> Self {
        TenantWorkload {
            name: name.into(),
            mix: Mix::ycsb_b(keys),
            arrivals: OpenLoop::poisson(rate),
            object_bytes: 1 << 20,
            dataset_bytes: 2 << 40, // 2 TB
        }
    }

    /// An analytics tenant: scan-heavy at `rate` req/s.
    pub fn analytics(name: &str, rate: f64, keys: u64) -> Self {
        TenantWorkload {
            name: name.into(),
            mix: Mix::scan_heavy(keys),
            arrivals: OpenLoop::poisson(rate),
            object_bytes: 64 << 20,
            dataset_bytes: 20 << 40, // 20 TB
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oltp_preset() {
        let t = TenantWorkload::oltp("shop", 200.0, 1_000_000);
        assert_eq!(t.name, "shop");
        assert!((t.arrivals.rate() - 200.0).abs() < 1e-9);
        assert!((t.mix.write_fraction() - 0.05).abs() < 1e-12);
    }
}
