//! **E6 — run-ordering + dominance pruning (§4.2)**: "if a performance
//! SLA cannot be met with a 10Gb network, then it won't be met with a 1Gb
//! network" — measure how many simulation runs the optimizer saves on a
//! multi-dimensional grid, and verify the pruned execution returns the
//! same answer. Both passes dispatch through `run_query`'s
//! [`windtunnel::sweep::SweepRunner`].

use windtunnel::prelude::*;
use wt_bench::{banner, farm_from_args, Table};
use wt_wtql::{parse, run_query, ExecOptions};

fn main() {
    banner(
        "E6 — dominance pruning over a design grid",
        "pruned execution runs strictly fewer simulations and returns the \
         identical set of SLA-passing configurations",
    );

    // `--workers N` sizes the exhaustive pass's farm pool (default host
    // cores); stdout is byte-identical for any value —
    // wall-clock timing goes to stderr.
    let args: Vec<String> = std::env::args().collect();
    let workers = farm_from_args(&args).workers();

    // A 3 (replication) × 3 (nic) × 2 (repair) = 18-point grid with an
    // availability floor most configurations miss.
    let query_text = r#"
        EXPLORE availability, tco_usd_per_year
        SWEEP replication IN [2, 3, 5],
              nic IN ["1g", "10g", "40g"],
              repair_parallel IN [1, 16]
        SUBJECT TO availability >= 0.99985, objects_lost <= 0
        MINIMIZE tco_usd_per_year
    "#;
    println!("query:\n{query_text}");

    let mut base = ScenarioBuilder::new("pruning-base")
        .racks(3)
        .nodes_per_rack(10)
        .objects(1_000)
        .object_gb(32.0)
        .horizon_years(0.25)
        .seed(6)
        .build();
    // Failure pressure high enough that slow repair paths miss the floor.
    base.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
    base.repair.detection_delay_s = 600.0;

    let query = parse(query_text).expect("parses");

    let run_with = |prune: bool, threads: usize| {
        let tunnel = WindTunnel::new();
        let opts = ExecOptions {
            prune,
            threads,
            ..ExecOptions::default()
        };
        let t0 = std::time::Instant::now();
        let out = run_query(&query, &base, &tunnel, &opts).expect("runs");
        (out, t0.elapsed())
    };

    // The exhaustive pass parallelizes across the farm; the pruned pass
    // stays serial, because dominance pruning consumes results in run
    // order — which runs get skipped must not depend on completion order.
    let (full, full_t) = run_with(false, workers);
    let (pruned, pruned_t) = run_with(true, 1);
    eprintln!(
        "exhaustive {:.2}s on {workers} worker(s), pruned {:.2}s serial",
        full_t.as_secs_f64(),
        pruned_t.as_secs_f64()
    );

    let mut table = Table::new(&[
        "mode",
        "grid",
        "executed",
        "pruned",
        "passing",
        "sim events",
    ]);
    for (name, out) in [("exhaustive", &full), ("pruned", &pruned)] {
        table.row(vec![
            name.into(),
            out.rows.len().to_string(),
            out.executed.to_string(),
            out.pruned.to_string(),
            out.passing().len().to_string(),
            out.total_sim_events.to_string(),
        ]);
    }
    table.print();

    println!();
    let passing = |o: &wt_wtql::QueryOutcome| {
        let mut v: Vec<String> = o
            .passing()
            .iter()
            .map(|r| format!("{:?}", r.assignment))
            .collect();
        v.sort();
        v
    };
    println!(
        "check: identical passing sets -> {}",
        passing(&full) == passing(&pruned)
    );
    println!(
        "check: pruning saved runs -> {} ({} of {})",
        pruned.pruned > 0,
        pruned.pruned,
        pruned.rows.len()
    );
    match (full.best_row(), pruned.best_row()) {
        (Some(a), Some(b)) => println!(
            "check: same optimum -> {} ({:?})",
            a.assignment == b.assignment,
            b.assignment
        ),
        (None, None) => println!("check: both found no feasible configuration"),
        _ => println!("check: OPTIMUM MISMATCH — pruning bug"),
    }
}
