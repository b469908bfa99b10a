//! Quickstart: build a data center scenario, run it through the wind
//! tunnel, and check it against its SLAs, stated as a WTQL query.
//!
//! ```sh
//! cargo run --release -p wt-bench --example quickstart
//! ```

use windtunnel::prelude::*;
use wt_wtql::{parse, run_query, ExecOptions};

fn main() {
    // A 3-rack, 30-node cluster of HDD storage servers on a 10G network,
    // storing 5,000 one-GB customer objects with 3-way replication.
    let scenario = ScenarioBuilder::new("starter-dc")
        .racks(3)
        .nodes_per_rack(10)
        .disk(catalog::hdd_7200_4t())
        .disks_per_node(12)
        .nic(catalog::nic_10g())
        .replication(3)
        .placement(Placement::Random)
        .repair(RepairPolicy::parallel(8))
        .objects(5_000)
        .object_gb(1.0)
        .horizon_years(1.0)
        .seed(42)
        .build();

    // The SLAs the provider sold, as constraints on this one design.
    let query = parse(
        "EXPLORE availability, nines, node_failures, rebuilds_completed, objects_lost,
                 tco_usd_per_year
         SWEEP replication IN [3]
         SUBJECT TO availability >= 0.9999, objects_lost <= 0",
    )
    .expect("valid WTQL");

    // Run exactly the simulations those SLAs need.
    let tunnel = WindTunnel::new();
    let outcome =
        run_query(&query, &scenario, &tunnel, &ExecOptions::default()).expect("query runs");
    let metric = |name: &str| outcome.rows[0].metrics[name];

    println!("scenario            : {}", scenario.name);
    println!(
        "simulated horizon   : {:.1} days",
        scenario.horizon_years * 365.0
    );
    println!("node failures       : {}", metric("node_failures"));
    println!("rebuilds completed  : {}", metric("rebuilds_completed"));
    println!(
        "availability        : {:.6} ({:.1} nines)",
        metric("availability"),
        metric("nines")
    );
    println!("objects lost        : {}", metric("objects_lost"));
    println!(
        "hardware TCO        : ${:.0}/year",
        metric("tco_usd_per_year")
    );
    println!();
    let violated: Vec<_> = query
        .constraints
        .iter()
        .filter(|c| !c.satisfied(metric(&c.metric)))
        .collect();
    if violated.is_empty() {
        println!("verdict: design meets all SLAs");
    } else {
        println!("verdict: SLA violations:");
        for c in violated {
            println!(
                "  - {} = {} misses {} {} {}",
                c.metric,
                metric(&c.metric),
                c.metric,
                c.cmp.as_str(),
                c.bound
            );
        }
    }
    println!(
        "(runs recorded in the result store: {})",
        tunnel.store().len()
    );
}
