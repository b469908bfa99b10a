//! The paper's §1 worked example as a WTQL query: is 5-way replication
//! worth it, or does 4-way plus a better repair path meet the same SLA
//! for 20% less storage?
//!
//! ```sh
//! cargo run --release -p wt-bench --example availability_whatif
//! ```

use windtunnel::prelude::*;
use wt_wtql::{parse, run_query, ExecOptions, RunRow};

/// The row's design name, e.g. `rep4-10g-par16`.
fn design(row: &RunRow) -> String {
    let axis = |name: &str| {
        row.assignment
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.to_string())
            .expect("swept axis")
    };
    let repair = match axis("repair_parallel").as_str() {
        "1" => "serial".to_string(),
        n => format!("par{n}"),
    };
    format!("rep{}-{}-{repair}", axis("replication"), axis("nic"))
}

fn main() {
    let mut base = ScenarioBuilder::new("whatif-base")
        .racks(3)
        .nodes_per_rack(10)
        .objects(1_000)
        .object_gb(16.0)
        .horizon_years(0.5)
        .seed(7)
        .build();
    // Stress the repair path: failures every ~40 machine-days.
    base.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);

    // Every design is simulated (no dominance pruning), so the table
    // shows each one's measured availability, not only its verdict.
    let query = parse(
        r#"
        EXPLORE availability, nines, tco_usd_per_year
        SWEEP replication IN [5, 4], nic IN ["1g", "10g"], repair_parallel IN [1, 16]
        SUBJECT TO availability >= 0.9995, objects_lost <= 0
        OPTIONS prune = FALSE
        "#,
    )
    .expect("valid WTQL");
    let tunnel = WindTunnel::new();
    let outcome =
        run_query(&query, &base, &tunnel, &ExecOptions::from_query(&query)).expect("query runs");

    println!(
        "{:<18} {:>12} {:>8} {:>12} {:>8}",
        "design", "availability", "nines", "TCO $/yr", "SLA"
    );
    for row in &outcome.rows {
        println!(
            "{:<18} {:>12.6} {:>8.2} {:>12.0} {:>8}",
            design(row),
            row.metrics["availability"],
            row.metrics["nines"],
            row.metrics["tco_usd_per_year"],
            if row.passes { "met" } else { "MISSED" }
        );
    }
    println!();
    println!(
        "takeaway: the cheaper 4-way design misses the SLA with the stock repair\n\
         path but meets it once the repair network or parallelism improves —\n\
         the §1 hardware/software interdependency, measured instead of guessed."
    );
}
