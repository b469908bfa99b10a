//! Integration: WTQL text → parse → plan → parallel execution → result
//! store, across every crate in the workspace.

use windtunnel::prelude::*;
use wt_wtql::{parse, run_query, ExecOptions};

fn base() -> Scenario {
    let mut s = ScenarioBuilder::new("e2e-base")
        .racks(1)
        .nodes_per_rack(10)
        .objects(300)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(99)
        .build();
    s.topology.node.ttf = Dist::weibull_mean(0.8, 60.0 * 86_400.0);
    s
}

#[test]
fn full_pipeline_explore_constrain_optimize() {
    let query = parse(
        r#"
        EXPLORE availability, tco_usd_per_year
        SWEEP replication IN [1, 3], repair_parallel IN [1, 8]
        SUBJECT TO availability >= 0.99
        MINIMIZE tco_usd_per_year
        "#,
    )
    .expect("parses");
    let tunnel = WindTunnel::new();
    let out = run_query(&query, &base(), &tunnel, &ExecOptions::default()).expect("runs");

    assert_eq!(out.rows.len(), 4);
    // Simulated rows carry both explored metrics.
    for row in out.rows.iter().filter(|r| !r.pruned) {
        assert!(row.metrics.contains_key("availability"));
        assert!(row.metrics.contains_key("tco_usd_per_year"));
    }
    // rep3 comfortably passes at this failure rate.
    assert!(out.best_row().is_some());
    // Every simulated run was recorded for later §4.4-style exploration.
    assert_eq!(tunnel.store().len(), out.executed);
    // The store's similarity search finds the executed configs.
    tunnel.store().with(|store| {
        let recs = store.by_experiment("availability");
        assert_eq!(recs.len(), out.executed);
    });
}

#[test]
fn pruned_and_exhaustive_agree() {
    let query = parse(
        r#"
        EXPLORE availability
        SWEEP replication IN [1, 2, 3], nic IN ["1g", "10g"]
        SUBJECT TO availability >= 0.999995, objects_lost <= 0
        "#,
    )
    .expect("parses");
    let mut sc = base();
    sc.topology.node.ttf = Dist::exponential_mean(20.0 * 86_400.0);
    sc.repair.detection_delay_s = 7_200.0;

    let exhaustive = run_query(
        &query,
        &sc,
        &WindTunnel::new(),
        &ExecOptions {
            prune: false,
            ..ExecOptions::default()
        },
    )
    .expect("runs");
    let pruned = run_query(&query, &sc, &WindTunnel::new(), &ExecOptions::default()).expect("runs");

    let passing = |o: &wt_wtql::QueryOutcome| {
        let mut v: Vec<String> = o
            .passing()
            .iter()
            .map(|r| format!("{:?}", r.assignment))
            .collect();
        v.sort();
        v
    };
    assert_eq!(passing(&exhaustive), passing(&pruned));
    assert!(pruned.executed <= exhaustive.executed);
}

#[test]
fn threads_do_not_change_results() {
    let query =
        parse(r#"EXPLORE availability SWEEP replication IN [1, 2, 3], placement IN ["R", "RR"]"#)
            .expect("parses");
    let serial =
        run_query(&query, &base(), &WindTunnel::new(), &ExecOptions::default()).expect("runs");
    let parallel = run_query(
        &query,
        &base(),
        &WindTunnel::new(),
        &ExecOptions {
            threads: 4,
            ..ExecOptions::default()
        },
    )
    .expect("runs");
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.metrics, b.metrics);
    }
}

#[test]
fn oversized_availability_point_is_an_unsimulated_row_not_a_panic() {
    // 1,700 racks × 40 nodes = 68,000 nodes: past the availability
    // engine's node-ID cap. The point must come back as an unsimulated
    // row instead of panicking a farm worker (and with it the process).
    let query = parse(
        r#"EXPLORE availability SWEEP racks IN [1700], nodes_per_rack IN [40], objects IN [10]"#,
    )
    .expect("parses");
    let tunnel = WindTunnel::new();
    let out = run_query(&query, &base(), &tunnel, &ExecOptions::default()).expect("runs");
    assert_eq!(out.rows.len(), 1);
    let row = &out.rows[0];
    assert!(row.metrics.is_empty(), "{row:?}");
    assert!(!row.passes && !row.pruned, "{row:?}");
    assert_eq!(row.sim_events_executed, 0);
    let reason = row.rejected.as_deref().expect("rejected with a reason");
    assert!(
        reason.contains("68000") && reason.contains("65536"),
        "{reason}"
    );
    assert_eq!(out.executed, 0);
    assert!(tunnel.store().is_empty());
}

#[test]
fn rejected_point_prunes_nothing() {
    // The plan runs the 68,000-node point first (racks is monotone,
    // largest first), and a failure there would prune the 4,000-node
    // point it dominates. A rejected point was never simulated, so the
    // smaller point must still run and decide the query.
    let query = parse(
        r#"
        EXPLORE availability, tco_usd_per_year
        SWEEP racks IN [100, 1700], nodes_per_rack IN [40], objects IN [10]
        SUBJECT TO availability >= 0.99
        MINIMIZE tco_usd_per_year
        "#,
    )
    .expect("parses");
    let opts = ExecOptions::default();
    assert!(opts.prune, "pruning is on by default");
    let out = run_query(&query, &base(), &WindTunnel::new(), &opts).expect("runs");
    let racks = |i: usize| out.rows[i].assignment[0].1.as_num();
    assert_eq!((racks(0), racks(1)), (Some(1700.0), Some(100.0)));
    assert!(out.rows[0].rejected.is_some(), "{:?}", out.rows[0]);
    let small = &out.rows[1];
    assert!(!small.pruned && small.rejected.is_none(), "{small:?}");
    assert!(small.sim_events_executed > 0 && small.passes, "{small:?}");
    assert_eq!((out.executed, out.pruned), (1, 0));
    assert_eq!(out.best, Some(1));
}
