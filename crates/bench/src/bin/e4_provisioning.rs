//! **E4 — hardware provisioning (§3)**: "Should I invest in storage or
//! memory in order to satisfy the SLAs of 95% of my customers and
//! minimize the total operating cost?" — answered as a WTQL query.
//!
//! The query's 6 configurations dispatch through `run_query`'s
//! [`SweepRunner`] onto the shared `windtunnel::farm` pool with sharded
//! recording (`--workers N`, default host cores);
//! results, record ids, and output are byte-identical for any worker
//! count.

use windtunnel::prelude::*;
use wt_bench::{banner, farm_from_args, fmt_secs, Table};
use wt_wtql::{parse, run_query, ExecOptions};

fn main() {
    banner(
        "E4 — memory vs storage provisioning as a declarative query",
        "HDD+plenty-of-DRAM and SSD+little-DRAM both meet the p95 SLA; the \
         tunnel picks whichever is cheaper per year — an answer that flips \
         with workload and prices, which is why it has to be *queried*",
    );

    let query_text = r#"
        EXPLORE shop_p95_s, tco_usd_per_year
        SWEEP disk IN ["hdd", "ssd"],
              mem_gb IN [32, 128, 512]
        SUBJECT TO shop_p95_s <= 0.010
        MINIMIZE tco_usd_per_year
    "#;
    println!("query:\n{query_text}");

    let base = ScenarioBuilder::new("provisioning-base")
        .racks(1)
        .nodes_per_rack(10)
        .disks_per_node(8)
        .tenant(TenantWorkload::oltp("shop", 400.0, 100_000))
        .horizon_years(180.0 / (365.25 * 86_400.0)) // 180 simulated seconds
        .seed(4)
        .build();

    let args: Vec<String> = std::env::args().collect();
    let workers = farm_from_args(&args).workers();

    let query = parse(query_text).expect("query parses");
    let tunnel = WindTunnel::new();
    // Pruning on: verdicts key on plan order, not completion order, so
    // the table (including which configs show "-") is byte-identical for
    // any worker count.
    let opts = ExecOptions {
        threads: workers,
        ..ExecOptions::default()
    };
    let out = run_query(&query, &base, &tunnel, &opts).expect("query runs");

    let mut table = Table::new(&["disk", "mem GB", "p95", "TCO $/yr", "meets SLA"]);
    for row in &out.rows {
        let disk = row.assignment[0].1.to_string();
        let mem = row.assignment[1].1.to_string();
        table.row(vec![
            disk,
            mem,
            row.metrics
                .get("shop_p95_s")
                .map(|v| fmt_secs(*v))
                .unwrap_or_else(|| "-".into()),
            row.metrics
                .get("tco_usd_per_year")
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into()),
            if row.passes { "yes" } else { "no" }.into(),
        ]);
    }
    table.print();

    println!();
    match out.best_row() {
        Some(best) => {
            println!(
                "answer: cheapest SLA-meeting configuration = {} at ${:.0}/yr (p95 {})",
                best.assignment
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                best.metrics["tco_usd_per_year"],
                fmt_secs(best.metrics["shop_p95_s"]),
            );
        }
        None => println!("answer: no configuration meets the SLA — provision more hardware"),
    }
    println!(
        "runs executed: {}, pruned: {}, recorded in store: {}",
        out.executed,
        out.pruned,
        tunnel.store().len()
    );
}
