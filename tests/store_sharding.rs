//! Integration: sharded recording is deterministic — the merged store's
//! bytes (record ids, order, contents) are identical for any worker
//! count.

use windtunnel::farm::Farm;
use windtunnel::prelude::*;
use wt_store::SharedStore;
use wt_wtql::{parse, run_query, ExecOptions};

/// The merged store as JSONL bytes — the strictest equality we can ask
/// for: ids, order, params, metrics, seeds, sim-side telemetry. Wall
/// clock is the one legitimately nondeterministic field a record
/// carries, so it is masked (`RunTelemetry::mask_wall`) before
/// serializing — everything else must match to the byte.
fn store_bytes(store: &SharedStore) -> String {
    store
        .snapshot()
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if let Some(t) = r.telemetry.as_mut() {
                t.mask_wall();
            }
            serde_json::to_string(&r).expect("serializes")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sharded_store_bytes_identical_across_worker_counts() {
    // Real availability runs, variable record count per item (every
    // third item runs two replications, seeded like WTQL's `seed +
    // 7919·rep`, and appends one record per replication) — a
    // worker-count-dependent merge would misorder ids here.
    let scenarios: Vec<Scenario> = (0..12)
        .map(|i| {
            ScenarioBuilder::new(format!("shard-det-{i}"))
                .racks(1)
                .nodes_per_rack(6 + (i % 3))
                .objects(100)
                .horizon_years(0.05)
                .seed(100 + i as u64)
                .build()
        })
        .collect();

    let sweep = |workers: usize| {
        let store = SharedStore::new();
        let tunnel = WindTunnel::new();
        Farm::new(workers).run_recorded(7, &scenarios, &store, |sc, ctx, shard| {
            let reps = if ctx.index % 3 == 0 { 2 } else { 1 };
            for rep in 0..reps {
                let sc = sc.with_seed(sc.seed.wrapping_add(rep * 7919));
                tunnel.run_availability_observed_into(&sc, shard, None);
            }
        });
        store_bytes(&store)
    };

    let gold = sweep(1);
    assert!(!gold.is_empty());
    for workers in [4, 8] {
        assert_eq!(
            sweep(workers),
            gold,
            "merged store bytes diverged at {workers} workers"
        );
    }
}

#[test]
fn wtql_store_bytes_identical_across_thread_counts() {
    let query = parse(
        r#"EXPLORE availability
           SWEEP replication IN [1, 3], placement IN ["R", "RR"]"#,
    )
    .expect("parses");
    let base = ScenarioBuilder::new("wtql-shard")
        .racks(1)
        .nodes_per_rack(10)
        .objects(150)
        .horizon_years(0.2)
        .seed(9)
        .build();

    let sweep = |threads: usize| {
        let tunnel = WindTunnel::new();
        let opts = ExecOptions {
            threads,
            ..ExecOptions::default()
        };
        run_query(&query, &base, &tunnel, &opts).expect("runs");
        store_bytes(tunnel.store())
    };

    let gold = sweep(1);
    for threads in [4, 8] {
        assert_eq!(
            sweep(threads),
            gold,
            "wtql-recorded store diverged at {threads} threads"
        );
    }
}
