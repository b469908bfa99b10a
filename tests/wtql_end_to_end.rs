//! Integration: WTQL text → parse → plan → parallel execution → result
//! store, across every crate in the workspace.

use windtunnel::prelude::*;
use wt_wtql::{parse, run_query, ExecOptions, RunRow};

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
    // 134,217,728 racks × 40 nodes = 5,368,709,120 nodes: past the
    // availability engine's `u32` node-ID cap. The point must come back
    // as an unsimulated row instead of panicking a farm worker (and with
    // it the process), and without allocating anything per node.
    let query = parse(
        r#"EXPLORE availability SWEEP racks IN [134217728], nodes_per_rack IN [40], objects IN [10]"#,
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
        reason.contains("5368709120") && reason.contains("4294967295"),
        "{reason}"
    );
    assert_eq!(out.executed, 0);
    assert!(tunnel.store().is_empty());
}

#[test]
fn rejected_point_prunes_nothing() {
    // The plan runs the 5,368,709,120-node point first (racks is
    // monotone, largest first), and a failure there would prune the
    // 4,000-node point it dominates. A rejected point was never simulated, so the
    // smaller point must still run and decide the query.
    let query = parse(
        r#"
        EXPLORE availability, tco_usd_per_year
        SWEEP racks IN [100, 134217728], nodes_per_rack IN [40], objects IN [10]
        SUBJECT TO availability >= 0.99
        MINIMIZE tco_usd_per_year
        "#,
    )
    .expect("parses");
    let opts = ExecOptions::default();
    assert!(opts.prune, "pruning is on by default");
    let out = run_query(&query, &base(), &WindTunnel::new(), &opts).expect("runs");
    let racks = |i: usize| out.rows[i].assignment[0].1.as_num();
    assert_eq!((racks(0), racks(1)), (Some(134_217_728.0), Some(100.0)));
    assert!(out.rows[0].rejected.is_some(), "{:?}", out.rows[0]);
    let small = &out.rows[1];
    assert!(!small.pruned && small.rejected.is_none(), "{small:?}");
    assert!(small.sim_events_executed > 0 && small.passes, "{small:?}");
    assert_eq!((out.executed, out.pruned), (1, 0));
    assert_eq!(out.best, Some(1));
}

/// The 10-node base with an OLTP tenant, so perf queries run the
/// request-level engine.
fn tenant_base() -> Scenario {
    let mut s = base();
    s.tenants.push(TenantWorkload::oltp("shop", 50.0, 1_000));
    s
}

/// Runs a one-point query on the tenant base and returns the point's
/// rejection reason. A rejected point is never simulated or recorded.
fn rejection(text: &str) -> String {
    rejection_on(&tenant_base(), text)
}

/// [`rejection`] on the given base.
fn rejection_on(base: &Scenario, text: &str) -> String {
    let query = parse(text).expect("parses");
    let tunnel = WindTunnel::new();
    let out = run_query(&query, base, &tunnel, &ExecOptions::default()).expect("runs");
    assert_eq!(out.rows.len(), 1);
    let row = &out.rows[0];
    assert!(
        row.metrics.is_empty() && !row.passes && !row.pruned,
        "{row:?}"
    );
    assert_eq!((row.sim_events_executed, out.executed), (0, 0));
    assert!(tunnel.store().is_empty());
    row.rejected.clone().expect("rejected with a reason")
}

#[test]
fn zero_replication_is_a_rejected_row_not_a_panic() {
    let reason = rejection("EXPLORE availability SWEEP replication IN [0]");
    assert!(reason.contains("at least one replica"), "{reason}");
}

#[test]
fn fractional_replication_is_a_rejected_row_not_a_coerced_one() {
    // Truncated, this point would run and print 2-way replication as 2.5.
    let reason = rejection("EXPLORE availability SWEEP replication IN [2.5]");
    assert!(
        reason.contains("axis 'replication' needs a whole number") && reason.contains("2.5"),
        "{reason}"
    );
}

#[test]
fn zero_repair_parallel_is_a_rejected_row_not_a_coerced_one() {
    // Clamped, this point would run with a cap of 1 and print 0.
    let reason = rejection("EXPLORE availability SWEEP repair_parallel IN [0]");
    assert!(
        reason.contains("axis 'repair_parallel' needs a whole number from 1")
            && reason.contains("got 0"),
        "{reason}"
    );
}

#[test]
fn zero_erasure_k_is_a_rejected_row_not_a_panic() {
    let reason = rejection("EXPLORE availability SWEEP erasure_k IN [0]");
    assert!(reason.contains("at least one data shard"), "{reason}");
}

#[test]
fn more_replicas_than_nodes_is_a_rejected_row_not_a_panic() {
    let reason = rejection("EXPLORE availability SWEEP replication IN [12]");
    assert!(
        reason.contains("cannot place 12 distinct replicas on 10 nodes"),
        "{reason}"
    );
}

#[test]
fn wider_stripe_than_nodes_is_a_rejected_row_not_a_panic() {
    // k = 9 with the default m = 2: 11 shards on 10 nodes.
    let reason = rejection("EXPLORE shop_p95_s SWEEP erasure_k IN [9]");
    assert!(
        reason.contains("cannot place 11 distinct replicas on 10 nodes"),
        "{reason}"
    );
}

#[test]
fn redundancy_past_the_holder_count_cap_is_a_rejected_row_not_a_panic() {
    // 26 racks × 10 nodes = 260 nodes: room for 256 replicas, but the
    // availability engine counts holders in a u8.
    let reason = rejection("EXPLORE availability SWEEP racks IN [26], replication IN [256]");
    assert!(
        reason.contains("256-way redundancy") && reason.contains("255"),
        "{reason}"
    );
}

#[test]
fn zero_racks_is_a_rejected_row_not_a_panic() {
    let reason = rejection("EXPLORE shop_p95_s SWEEP racks IN [0]");
    assert!(reason.contains("at least one rack"), "{reason}");
}

#[test]
fn empty_racks_are_a_rejected_row_not_a_panic() {
    let reason = rejection("EXPLORE shop_p95_s SWEEP nodes_per_rack IN [0]");
    assert!(reason.contains("at least one rack"), "{reason}");
}

#[test]
fn rack_past_tor_ports_is_a_rejected_row_not_a_panic() {
    let reason = rejection("EXPLORE shop_p95_s SWEEP nodes_per_rack IN [64]");
    assert!(reason.contains("exceeds ToR ports (48)"), "{reason}");
}

#[test]
fn oversubscription_below_one_is_a_rejected_row_not_a_panic() {
    let reason = rejection("EXPLORE shop_p95_s SWEEP oversubscription IN [0]");
    assert!(
        reason.contains("oversubscription must be at least 1"),
        "{reason}"
    );
}

#[test]
fn diskless_nodes_are_a_rejected_row_not_a_panic() {
    // Both engines (and the perf screen) model a node's first disk.
    let mut base = tenant_base();
    base.topology.node.disks.clear();
    for metric in ["availability", "shop_p95_s"] {
        let reason = rejection_on(&base, &format!("EXPLORE {metric} SWEEP replication IN [3]"));
        assert!(reason.contains("at least one disk"), "{reason}");
    }
}

#[test]
fn node_count_overflow_is_a_rejected_row_not_a_panic() {
    // racks × nodes_per_rack past usize: every query prices the
    // hardware, so even a cost-only query must reject the point rather
    // than overflow (a panic in debug builds, a wrapped count in release).
    for metric in ["tco_usd_per_year", "availability"] {
        for sweep in [
            "racks IN [8589934592], nodes_per_rack IN [2147483648]",
            "racks IN [2147483648], nodes_per_rack IN [8589934592]",
        ] {
            let reason = rejection(&format!("EXPLORE {metric} SWEEP {sweep}"));
            assert!(reason.contains("overflow the node count"), "{reason}");
        }
    }
}

#[test]
fn objects_past_u32_ids_are_a_rejected_row_not_a_panic() {
    // The availability engine's object ids are u32: 5e9 objects would
    // wrap them (or, first, fail a 60 GB allocation and abort).
    let reason = rejection("EXPLORE availability SWEEP objects IN [5e9]");
    assert!(
        reason.contains("5000000000 objects") && reason.contains("4294967296"),
        "{reason}"
    );
}

#[test]
fn objects_past_u32_ids_only_stop_the_availability_engine() {
    // A cost-only query builds no availability run, so the same point
    // prices normally.
    let query = parse("EXPLORE tco_usd_per_year SWEEP objects IN [5e9]").expect("parses");
    let out =
        run_query(&query, &base(), &WindTunnel::new(), &ExecOptions::default()).expect("runs");
    let row = &out.rows[0];
    assert!(row.rejected.is_none(), "{row:?}");
    assert!(row.metrics["tco_usd_per_year"] > 0.0, "{row:?}");
}

#[test]
fn oversized_perf_point_is_a_rejected_row_not_a_panic() {
    // The perf engine's event ids are u32 too: 5,368,709,120 nodes (40
    // per rack fits the ToR) would wrap them.
    let reason = rejection("EXPLORE shop_p95_s SWEEP racks IN [134217728], nodes_per_rack IN [40]");
    assert!(
        reason.contains("5368709120 nodes exceed the perf engine's cap of 4294967295"),
        "{reason}"
    );
}

#[test]
fn skew_of_one_is_a_rejected_row_not_a_panic() {
    // The Zipf sampler asserts a skew below 1.
    let mut base = tenant_base();
    base.tenants[0].mix.key_skew = 1.0;
    let reason = rejection_on(&base, "EXPLORE shop_p95_s SWEEP replication IN [3]");
    assert!(
        reason.contains("tenant 'shop': key_skew must be in [0, 1), got 1"),
        "{reason}"
    );
}

#[test]
fn empty_keyspace_is_a_rejected_row_not_a_panic() {
    // The Zipf sampler asserts at least one key.
    let mut base = tenant_base();
    base.tenants[0].mix.keys = 0;
    let reason = rejection_on(&base, "EXPLORE shop_p95_s SWEEP replication IN [3]");
    assert!(
        reason.contains("tenant 'shop': a mix needs at least one key"),
        "{reason}"
    );
}

#[test]
fn fractional_inject_count_is_a_rejected_row_not_a_truncated_one() {
    // Truncated, `racks = 1.9` would cut power to one rack and print 1.9.
    // The base is the `wtql` binary's default; whole counts keep their
    // numbers.
    let base = ScenarioBuilder::new("wtql-base")
        .racks(3)
        .nodes_per_rack(10)
        .objects(1_000)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(42)
        .build();
    let query = parse(
        "EXPLORE availability, unavailability_events
         SWEEP blast IN [1, 2, 1.9]
         INJECT power_loss(at = 1000000, first_rack = 0, racks = blast, restore = 86400)",
    )
    .expect("parses");
    let out = run_query(&query, &base, &WindTunnel::new(), &ExecOptions::default()).expect("runs");
    let row = |blast: f64| {
        out.rows
            .iter()
            .find(|r| r.assignment[0].1.as_num() == Some(blast))
            .expect("one row per value")
    };
    let fractional = row(1.9);
    assert!(
        fractional.metrics.is_empty() && fractional.sim_events_executed == 0,
        "{fractional:?}"
    );
    let reason = fractional
        .rejected
        .as_deref()
        .expect("rejected with a reason");
    assert!(
        reason.contains("INJECT power_loss argument 'racks' needs a whole number")
            && reason.contains("got 1.9"),
        "{reason}"
    );
    for (blast, availability, events) in [(1.0, "0.997282", 248.0), (2.0, "0.992033", 727.0)] {
        let whole = row(blast);
        assert!(whole.rejected.is_none(), "{whole:?}");
        assert_eq!(
            format!("{:.6}", whole.metrics["availability"]),
            availability
        );
        assert_eq!(whole.metrics["unavailability_events"], events);
    }
    assert_eq!(out.executed, 2);
}

#[test]
fn points_are_rejected_only_for_engines_the_query_needs() {
    let run = |text: &str| {
        let query = parse(text).expect("parses");
        let out = run_query(
            &query,
            &tenant_base(),
            &WindTunnel::new(),
            &ExecOptions::default(),
        )
        .expect("runs");
        out.rows.into_iter().next().expect("one row")
    };
    // The availability engine never builds the network, so a rack past
    // the ToR's ports only stops queries that run the perf engine.
    let row = run("EXPLORE availability SWEEP nodes_per_rack IN [64]");
    assert!(
        row.rejected.is_none() && row.sim_events_executed > 0,
        "{row:?}"
    );
    // A cost-only query runs no engine and places nothing.
    let row = run("EXPLORE tco_usd_per_year SWEEP replication IN [12]");
    assert!(row.rejected.is_none(), "{row:?}");
    assert!(row.metrics.contains_key("tco_usd_per_year"), "{row:?}");
}

/// Runs a two-point query constrained on `ghost_p95_s` over `base`, with
/// and without `GUIDED`, and checks that the constraint fails every row
/// and leaves nothing best. Returns each run's rows.
fn ghost_constraint_rows(base: &Scenario) -> Vec<Vec<RunRow>> {
    ["", "GUIDED"]
        .iter()
        .map(|guided| {
            let query = parse(&format!(
                "EXPLORE availability SWEEP replication IN [1, 3]
                 SUBJECT TO ghost_p95_s <= 1 MINIMIZE tco_usd_per_year {guided}"
            ))
            .expect("parses");
            let opts = ExecOptions::from_query(&query);
            let out = run_query(&query, base, &WindTunnel::new(), &opts).expect("runs");
            assert_eq!(out.rows.len(), 2);
            for row in &out.rows {
                assert!(!row.passes && row.rejected.is_none(), "{row:?}");
                assert!(!row.metrics.contains_key("ghost_p95_s"), "{row:?}");
            }
            assert_eq!(out.best, None);
            out.rows
        })
        .collect()
}

#[test]
fn constraint_on_a_metric_no_engine_measures_fails_every_row() {
    // The base runs no tenants, so the perf engine never runs and nothing
    // measures `ghost_p95_s`: a constraint on a metric that no run
    // produced cannot hold.
    for rows in ghost_constraint_rows(&base()) {
        for row in &rows {
            assert!(
                !row.metrics.keys().any(|k| k.ends_with("_p95_s")),
                "{row:?}"
            );
        }
    }
}

#[test]
fn constraint_on_a_tenant_the_scenario_lacks_fails_every_row() {
    // The base runs `shop` but not `ghost`: the perf engine runs and
    // measures `shop`, and no path may panic looking `ghost` up.
    for rows in ghost_constraint_rows(&tenant_base()) {
        let ran: Vec<&RunRow> = rows.iter().filter(|r| r.sim_events_executed > 0).collect();
        assert!(!ran.is_empty(), "{rows:?}");
        for row in ran {
            assert!(row.metrics.contains_key("shop_p95_s"), "{row:?}");
        }
    }
}

#[test]
fn availability_query_runs_only_the_availability_engine() {
    // The base has a tenant, but no metric the query names needs the
    // perf engine.
    let query = parse("EXPLORE availability SWEEP replication IN [3]").expect("parses");
    let tunnel = WindTunnel::new();
    let out = run_query(&query, &tenant_base(), &tunnel, &ExecOptions::default()).expect("runs");
    assert_eq!(out.executed, 1);
    tunnel.store().with(|s| {
        assert_eq!(s.len(), 1);
        assert_eq!(s.by_experiment("availability").len(), 1);
    });
}

/// Runs the `wtql` binary with `args` and no stdin; returns its exit
/// code and stderr.
fn wtql_cli(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wtql"))
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn wtql");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn wtql_cli_input_errors_exit_2_without_a_panic() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let missing_query = dir.join(format!("wtql-cli-{tag}-missing.wtql"));
    let missing_base = dir.join(format!("wtql-cli-{tag}-missing.json"));
    let bad_base = dir.join(format!("wtql-cli-{tag}-bad.json"));
    std::fs::write(&bad_base, r#"{"not": "a scenario"}"#).expect("write bad base");
    let path = |p: &std::path::Path| p.to_str().expect("UTF-8 temp path").to_string();
    let cases = [
        (vec![path(&missing_query)], path(&missing_query)),
        (
            vec!["-".into(), "--base".into(), path(&missing_base)],
            path(&missing_base),
        ),
        (
            vec!["-".into(), "--base".into(), path(&bad_base)],
            path(&bad_base),
        ),
    ];
    for (args, culprit) in &cases {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, stderr) = wtql_cli(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("wtql: {culprit}: ")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&bad_base).expect("remove bad base");
}
