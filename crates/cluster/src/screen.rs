//! Scenario → analytic-screen extraction for guided sweeps.
//!
//! Maps a [`Scenario`] onto the conservative closed-form screens in
//! `wt-analytic` (DESIGN.md §12). The extraction is the soundness-critical
//! half of screening: every parameter fed to a screen must bound the
//! simulated system from the safe side.
//!
//! * **Availability** — a destroyed replica is down for at least the
//!   failure-detection delay plus the deterministic bandwidth-limited
//!   rebuild time ([`crate::availability`] schedules `EnqueueRebuild`
//!   only after `detection_delay_s`, and the `RebuildModel::Bandwidth`
//!   stream duration is a fixed function of bytes and link share — chaos
//!   can only lengthen it). Node MTTF comes from the TTF distribution's
//!   mean. Extra failure sources the chain does not model (switch/disk
//!   failures, chaos faults) disable Pass screening but leave Fail
//!   screening sound: they only remove availability.
//! * **Performance** — the disk tier is under-approximated as M/M/c with
//!   `c = nodes × disks` at the fastest possible per-request service
//!   time, fed by the post-cache arrival rate. The real system is never
//!   faster, so a latency SLA the optimistic model already misses is
//!   certainly missed in the DES.

use crate::scenario::Scenario;
use wt_analytic::screen::{AvailabilityScreen, PerfScreen};
use wt_sw::RedundancyScheme;

/// Seconds per simulated year (matches the engines' horizon conversion).
const YEAR_S: f64 = 365.0 * 86_400.0;

/// The read quorum the availability engine enforces: 1 reachable holder
/// for replication, `k` for erasure.
fn read_quorum(redundancy: &RedundancyScheme) -> usize {
    match redundancy {
        RedundancyScheme::Replication(_) => 1,
        RedundancyScheme::Erasure(s) => s.k,
    }
}

/// The deterministic bandwidth-limited rebuild-stream duration for one
/// object, seconds — the same formula as `RebuildModel::Bandwidth`.
pub fn rebuild_stream_s(scenario: &Scenario) -> f64 {
    let bytes = scenario
        .redundancy
        .repair_traffic_bytes(scenario.object_bytes) as f64;
    let rate =
        scenario.topology.node.nic.bandwidth_gbps * 1e9 / 8.0 * scenario.repair.bandwidth_share;
    if rate > 0.0 {
        bytes / rate
    } else {
        f64::INFINITY
    }
}

/// Builds the availability screen for a scenario.
///
/// `min_expected_failures` gates all screening: below it the DES may see
/// so few failures that measured availability is exactly 1.0, and no
/// asymptotic bound is safe to apply.
pub fn availability_screen(scenario: &Scenario, min_expected_failures: f64) -> AvailabilityScreen {
    let mttf_s = scenario.topology.node.ttf.mean();
    let rebuild_s = rebuild_stream_s(scenario);
    let horizon_s = scenario.horizon_years * YEAR_S;
    let n_nodes = scenario.topology.node_count() as f64;
    AvailabilityScreen {
        width: scenario.redundancy.width(),
        quorum: read_quorum(&scenario.redundancy),
        mttf_s,
        min_down_s: scenario.repair.detection_delay_s + rebuild_s,
        rebuild_s,
        horizon_s,
        expected_failures: n_nodes * horizon_s / mttf_s,
        extra_failure_sources: scenario.switch_failures
            || scenario.disk_failures
            || scenario.fault_schedule().is_some(),
        min_expected_failures,
    }
}

/// Builds the latency screen for a scenario, or `None` when there is no
/// post-cache disk load to bound (no tenants, or the buffer cache covers
/// the whole dataset).
pub fn perf_screen(scenario: &Scenario) -> Option<PerfScreen> {
    if scenario.tenants.is_empty() {
        return None;
    }
    let total_rate: f64 = scenario.tenants.iter().map(|t| t.arrivals.rate()).sum();
    let dataset: f64 = scenario
        .tenants
        .iter()
        .map(|t| t.dataset_bytes as f64)
        .sum();
    let n = scenario.topology.node_count();
    let mem = scenario.topology.node.mem.capacity_gb * 1e9 * n as f64;
    let cache_hit_p = if dataset > 0.0 {
        (mem / dataset).min(1.0)
    } else {
        0.0
    };
    // Lower bound on the disk-tier arrival rate: every request *may* be
    // absorbed by the cache (writes never are, so the truth is higher).
    let lambda = total_rate * (1.0 - cache_hit_p);
    if lambda <= 0.0 {
        return None;
    }
    let disk = &scenario.topology.node.disks[0];
    // Fastest conceivable request: a single 4K random page, whichever
    // direction is quicker.
    let min_service_s = disk
        .service_time(1, false, false)
        .min(disk.service_time(1, false, true));
    Some(PerfScreen {
        lambda,
        servers: (n * scenario.topology.node.disks.len().max(1)) as u32,
        min_service_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_analytic::screen::{Rel, ScreenVerdict};
    use wt_hw::{catalog, TopologySpec};
    use wt_sw::{Placement, RepairPolicy};
    use wt_workload::TenantWorkload;

    const DAY_S: f64 = 86_400.0;

    /// e6-style failure-heavy base: 30 nodes, short node lifetimes, a
    /// quarter-year horizon — enough expected failures for screens to arm.
    fn stress_base(replication: usize, detection_s: f64) -> Scenario {
        let mut node = catalog::node_storage_server(catalog::hdd_7200_4t(), 4, catalog::nic_10g());
        node.ttf = wt_dist::Dist::weibull_mean(0.8, 40.0 * DAY_S);
        Scenario {
            name: "stress".into(),
            topology: TopologySpec {
                racks: 3,
                nodes_per_rack: 10,
                node,
                tor: catalog::switch_tor_48x10g(),
                agg: catalog::switch_agg_32x40g(),
                oversubscription: 4.0,
            },
            redundancy: RedundancyScheme::replication(replication),
            placement: Placement::Random,
            repair: RepairPolicy {
                detection_delay_s: detection_s,
                ..RepairPolicy::parallel(8)
            },
            objects: 1_000,
            object_bytes: 4 << 30,
            tenants: vec![],
            limpware: None,
            switch_failures: false,
            disk_failures: false,
            horizon_years: 0.25,
            seed: 42,
            faults: None,
        }
    }

    #[test]
    fn stress_base_arms_the_screen() {
        let s = availability_screen(&stress_base(2, 600.0), 10.0);
        // 30 nodes × 0.25 y at 40-day MTTF ≈ 68 expected failures.
        assert!(s.expected_failures > 50.0, "E={}", s.expected_failures);
        assert!(!s.extra_failure_sources);
        assert_eq!(s.width, 2);
        assert_eq!(s.quorum, 1);
    }

    #[test]
    fn slow_detection_screens_fail_fast_detection_does_not() {
        // Five-day detection delay: rep-2 and rep-3 provably miss a
        // 0.99985 floor; rep-5 and the fast-detection arms stay Unknown.
        for rep in [2, 3] {
            let s = availability_screen(&stress_base(rep, 5.0 * DAY_S), 10.0);
            assert_eq!(
                s.screen(Rel::Ge, 0.99985, 0.0),
                ScreenVerdict::Fail,
                "rep {rep} should screen out"
            );
        }
        let s5 = availability_screen(&stress_base(5, 5.0 * DAY_S), 10.0);
        assert_eq!(s5.screen(Rel::Ge, 0.99985, 0.0), ScreenVerdict::Unknown);
        let fast = availability_screen(&stress_base(2, 600.0), 10.0);
        assert_eq!(fast.screen(Rel::Ge, 0.99985, 0.0), ScreenVerdict::Unknown);
    }

    #[test]
    fn catalog_default_lifetimes_never_screen() {
        // The catalog's 12.5-year node MTTF gives < 1 expected failure on
        // this horizon: screening must refuse to decide anything.
        let mut s = stress_base(2, 5.0 * DAY_S);
        s.topology.node =
            catalog::node_storage_server(catalog::hdd_7200_4t(), 4, catalog::nic_10g());
        let screen = availability_screen(&s, 10.0);
        assert!(screen.expected_failures < 1.0);
        assert_eq!(screen.screen(Rel::Ge, 0.99985, 0.0), ScreenVerdict::Unknown);
    }

    #[test]
    fn chaos_and_switch_failures_flag_extra_sources() {
        let mut s = stress_base(2, 600.0);
        assert!(!availability_screen(&s, 10.0).extra_failure_sources);
        s.switch_failures = true;
        assert!(availability_screen(&s, 10.0).extra_failure_sources);
        s.switch_failures = false;
        s.disk_failures = true;
        assert!(availability_screen(&s, 10.0).extra_failure_sources);
        s.disk_failures = false;
        s.faults = Some(crate::chaos::FaultSchedule::new().rule(
            "tor",
            60.0,
            crate::chaos::FaultKind::TorDeath {
                rack: 0,
                repair_s: 600.0,
            },
        ));
        assert!(availability_screen(&s, 10.0).extra_failure_sources);
    }

    #[test]
    fn erasure_quorum_is_k() {
        let mut s = stress_base(2, 600.0);
        s.redundancy = RedundancyScheme::erasure(4, 2);
        let screen = availability_screen(&s, 10.0);
        assert_eq!(screen.width, 6);
        assert_eq!(screen.quorum, 4);
        assert_eq!(screen.loss_exponent(), 3);
    }

    #[test]
    fn rebuild_stream_matches_bandwidth_model() {
        let s = stress_base(3, 600.0);
        // 4 GiB over 10 Gb/s × share.
        let want = (4u64 << 30) as f64 / (10.0 * 1e9 / 8.0 * s.repair.bandwidth_share);
        assert!((rebuild_stream_s(&s) - want).abs() / want < 1e-12);
    }

    #[test]
    fn perf_screen_extraction() {
        let mut s = stress_base(3, 600.0);
        assert!(perf_screen(&s).is_none(), "no tenants → no screen");
        s.tenants = vec![TenantWorkload::oltp("shop", 100.0, 10_000)];
        let p = perf_screen(&s).expect("tenant present");
        // 30 nodes × 4 disks.
        assert_eq!(p.servers, 120);
        // Post-cache rate is below the offered rate but positive (2 TB
        // dataset vs 30 × 128 GB DRAM).
        assert!(p.lambda > 0.0 && p.lambda < 100.0);
        assert!(p.min_service_s > 0.0 && p.min_service_s < 0.1);
    }

    #[test]
    fn overloaded_hdd_scenario_screens_fail_on_latency() {
        let mut s = stress_base(3, 600.0);
        // 120 HDDs at ~85 IOPS each handle ~10k random IOPS; 50k req/s of
        // uncacheable load is provably over capacity → any latency SLA
        // fails.
        s.tenants = vec![TenantWorkload::oltp("shop", 400_000.0, 10_000)];
        let p = perf_screen(&s).expect("tenant present");
        assert_eq!(p.screen(0.95, Rel::Le, 0.050, 0.0), ScreenVerdict::Fail);
    }
}
