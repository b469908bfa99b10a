//! Integration: partitioned parallel execution end to end. A single run
//! sharded across conservative-lookahead partitions must be invisible in
//! results:
//!
//! * **Thread counts** (fixed partitioning) are fully bitwise-invisible:
//!   same `RunRecord` bytes, telemetry and sketches included (only
//!   wall-clock is masked).
//! * **Partition counts** are semantically invisible: identical
//!   `AvailabilityResult`, identical event totals and per-label counts,
//!   identical marks and sketch sample counts. Queue-depth gauges and
//!   sketch f64 sums depend on the partitioning by construction
//!   (per-partition queues; f64 summation order), so those two fields
//!   are excluded — see DESIGN.md "Partitioned execution".
//!
//! Also covers satellite coverage for chaos landing on cross-partition
//! targets: a power-domain loss spanning racks owned by different
//! partitions fires identically to the serial path.

use windtunnel::obs::RunTelemetry;
use windtunnel::prelude::*;
use wt_cluster::chaos::ChaosConfig;
use wt_cluster::{FaultKind, FaultSchedule, PartitionedAvailability};
use wt_store::SharedStore;

fn scenario(seed: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new("pe")
        .racks(6)
        .nodes_per_rack(8)
        .objects(300)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(seed)
        .build();
    // Short TTF so the horizon holds real failure/repair/mirror traffic.
    sc.topology.node.ttf = wt_dist::Dist::exponential_mean(5.0 * 86_400.0);
    sc.topology.node.repair = wt_dist::Dist::exponential_mean(4.0 * 3_600.0);
    sc
}

/// Serializes every record with wall-clock masked; everything else —
/// telemetry, sketches, marks — must be identical across thread counts.
fn record_bytes(store: &SharedStore) -> String {
    let snapshot = store.snapshot();
    assert!(!snapshot.is_empty());
    snapshot
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.telemetry
                .as_mut()
                .expect("observed runs attach telemetry")
                .mask_wall();
            serde_json::to_string(&r).expect("serializes")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The partitioning-invariant view of a telemetry blob: everything except
/// queue-depth gauges (per-partition queues) and sketch byte payloads
/// (f64 merge-order sums); sketch sample counts stay in.
fn invariant_view(t: &RunTelemetry) -> (String, Vec<(String, u64)>) {
    let mut t = t.clone();
    t.mask_wall();
    t.peak_queue_depth = 0;
    t.mean_queue_depth = 0.0;
    let counts = match t.sketches.take() {
        Some(set) => set
            .values
            .iter()
            .map(|(k, s)| (k.clone(), s.count()))
            .collect(),
        None => Vec::new(),
    };
    (serde_json::to_string(&t).expect("serializes"), counts)
}

#[test]
fn availability_records_identical_across_thread_counts() {
    // Fixed partitioning (3 partitions over 6 racks), varying only the
    // worker thread count: the RunRecord bytes — telemetry, sketches,
    // marks, everything but wall-clock — must be identical. Threads = 1
    // is the serial execution of the same partitioned schedule.
    let tunnel = WindTunnel::new();
    let bytes = |threads: usize| {
        let store = SharedStore::new();
        tunnel
            .run_availability_partitioned_into(&scenario(41), 3, threads, &store)
            .expect("replicated scenario maps");
        record_bytes(&store)
    };
    let serial = bytes(1);
    for threads in [2, 4] {
        assert_eq!(
            bytes(threads),
            serial,
            "records diverged at {threads} threads"
        );
    }
}

#[test]
fn availability_results_invariant_across_partition_counts() {
    let tunnel = WindTunnel::new();
    let run = |partitions: usize| {
        let store = SharedStore::new();
        tunnel
            .run_availability_partitioned_into(&scenario(43), partitions, 2, &store)
            .expect("replicated scenario maps")
    };
    let (gold, gold_t) = run(1);
    assert!(gold_t.events > 1_000, "run must do real work");
    let (gold_view, gold_counts) = invariant_view(&gold_t);
    for partitions in [2, 4, 6] {
        let (r, t) = run(partitions);
        assert_eq!(r, gold, "result diverged at {partitions} partitions");
        let (view, counts) = invariant_view(&t);
        // The partition/<i> marks legitimately differ (that's what they
        // report); compare views with those stripped.
        let strip = |v: &str| -> String {
            let mut t: RunTelemetry = serde_json::from_str(v).unwrap();
            t.marks.retain(|k, _| !k.starts_with("partition/"));
            serde_json::to_string(&t).unwrap()
        };
        assert_eq!(
            strip(&view),
            strip(&gold_view),
            "telemetry diverged at {partitions} partitions"
        );
        assert_eq!(counts, gold_counts, "sketch counts diverged");
        // Per-partition event marks account for every event.
        let marked: u64 = t
            .marks
            .iter()
            .filter(|(k, _)| k.starts_with("partition/"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(marked, t.events);
    }
}

const PARTITIONED_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/partitioned_records.jsonl"
);

/// An engine config that loses objects while rebuilds of them are still
/// queued: 2-day node lifetimes and one repair stream per rack.
fn lossy_model() -> PartitionedAvailability {
    let mut m = PartitionedAvailability::example(6, 8, 300);
    m.node_ttf = wt_dist::Dist::exponential_mean(2.0 * 86_400.0);
    m.node_replace = wt_dist::Dist::exponential_mean(4.0 * 3_600.0);
    m.repair = wt_sw::RepairPolicy::parallel(1);
    m
}

/// The partitioned engine's output bytes across commits: results and
/// wall-masked telemetry at partitions 1 and 3, through the recording
/// runner (`scenario(43)`) and straight through the engine (a lossy
/// config). Regenerate with `BLESS_GOLDEN=1`, only on a commit whose
/// outputs are already known-good.
#[test]
fn partitioned_record_bytes_pinned() {
    let tunnel = WindTunnel::new();
    let mut lines = Vec::new();
    for (partitions, threads) in [(1, 1), (3, 2)] {
        let store = SharedStore::new();
        let (r, _) = tunnel
            .run_availability_partitioned_into(&scenario(43), partitions, threads, &store)
            .expect("replicated scenario maps");
        lines.push(format!(
            "{{\"run\":\"scenario(43)\",\"partitions\":{partitions},\"result\":{},\"record\":{}}}",
            serde_json::to_string(&r).expect("serializes"),
            record_bytes(&store)
        ));
        let (r, t) = lossy_model().run_observed(11, 90.0 * 86_400.0, partitions, threads);
        assert!(r.objects_lost > 0, "the lossy config must lose objects");
        lines.push(format!(
            "{{\"run\":\"lossy\",\"partitions\":{partitions},\"result\":{},\"telemetry\":{}}}",
            serde_json::to_string(&r).expect("serializes"),
            serde_json::to_string(&t.masked()).expect("serializes")
        ));
    }
    lines.push(String::new()); // trailing newline
    let got = lines.join("\n");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(PARTITIONED_GOLDEN, &got).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(PARTITIONED_GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden fixture partitioned_records.jsonl: {e}"));
    assert_eq!(
        got, want,
        "partitioned output bytes drifted from tests/golden/partitioned_records.jsonl"
    );
}

#[test]
fn cross_partition_power_domain_chaos_matches_serial() {
    // A power-domain loss spanning racks 2..4 at 4 partitions over 6
    // racks: the domain straddles a partition boundary (racks {2} and
    // {3} land in different partitions at both 4 and 6 partitions), so
    // the injection must be routed to each owning partition and fire
    // identically to the serial path — including the repair/mirror wave
    // it triggers.
    let mut m = PartitionedAvailability::example(6, 8, 240);
    m.node_ttf = wt_dist::Dist::exponential_mean(10.0 * 86_400.0);
    m.chaos = Some(ChaosConfig {
        schedule: FaultSchedule::new().rule(
            "dc-brownout",
            86_400.0 * 5.0,
            FaultKind::PowerDomainLoss {
                first_rack: 2,
                racks: 2,
                restore_s: 6.0 * 3_600.0,
            },
        ),
        nodes_per_rack: 8,
    });
    let horizon = 30.0 * 86_400.0;
    let (gold, gold_t) = m.run_observed(91, horizon, 1, 1);
    // The mark fires once per affected rack (the injection is routed to
    // each owning rack), so a 2-rack domain marks twice.
    assert_eq!(
        gold_t.marks.get("inject_power_loss"),
        Some(&2),
        "the chaos rule must actually fire"
    );
    for partitions in [2, 3, 4, 6] {
        for threads in [1, 2] {
            let (r, t) = m.run_observed(91, horizon, partitions, threads);
            assert_eq!(
                r, gold,
                "chaos diverged at {partitions} partitions / {threads} threads"
            );
            assert_eq!(t.events, gold_t.events);
            assert_eq!(t.events_by_label, gold_t.events_by_label);
            assert_eq!(
                t.marks.get("inject_power_loss"),
                Some(&2),
                "injection mark lost at {partitions} partitions"
            );
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Arbitrary small configs: the partitioned availability engine's
        /// result (every field) is identical across partition and thread
        /// counts.
        #[test]
        fn partitioned_runs_equivalent(
            racks in 1usize..7,
            // The example model places 3 replicas in the home rack when
            // racks == 1, so the rack needs at least 3 nodes.
            per_rack in 3usize..9,
            objects in 50u64..300,
            seed in 0u64..1_000,
            horizon_days in 10u64..60,
        ) {
            let mut m = PartitionedAvailability::example(racks, per_rack, objects);
            m.node_ttf = wt_dist::Dist::exponential_mean(8.0 * 86_400.0);
            let horizon = horizon_days as f64 * 86_400.0;
            let gold = m.run(seed, horizon, 1, 1);
            for (partitions, threads) in [(2, 2), (3, 1), (4, 3)] {
                let r = m.run(seed, horizon, partitions, threads);
                prop_assert_eq!(&r, &gold, "diverged at {} partitions", partitions);
            }
        }
    }
}
