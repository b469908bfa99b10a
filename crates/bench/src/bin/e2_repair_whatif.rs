//! **E2 — the §1 worked example**: can n−1 replication plus a faster
//! network and/or parallel repair match n-way replication's availability
//! at lower storage cost?
//!
//! Arms: rep5 baseline (1G, serial repair) vs rep4 with (a) nothing,
//! (b) 10G network, (c) parallel repair, (d) both. The paper's claim:
//! the repair-path improvements can lift the cheaper design back over
//! the SLA line. The configuration axis is a declarative [`SweepSpec`]
//! on the shared run farm: 3 CRN replications per arm (identical
//! failure traces across arms; availability averaged equal-weight,
//! counters summed). `--workers N` sizes the pool; stdout is
//! byte-identical for any value (timing goes to stderr).

use windtunnel::prelude::*;
use wt_bench::{banner, runner_from_args};
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_store::SharedStore;

const DAY: f64 = 86_400.0;

fn arm(n: usize, gbps: f64, parallel: usize) -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 30,
        redundancy: RedundancyScheme::replication(n),
        placement: Placement::Random,
        objects: 1_000,
        object_bytes: 16 << 30,
        // Aggressive failure rate so the repair window matters within a
        // tractable horizon (the *comparison* is the artifact), but kept
        // below the serial-repair queue's saturation point.
        node_ttf: Dist::weibull_mean(0.8, 40.0 * DAY),
        node_replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
        rebuild: RebuildModel::Bandwidth {
            link_gbps: gbps,
            share: 0.5,
        },
        repair: RepairPolicy {
            max_parallel: parallel,
            bandwidth_share: 0.5,
            detection_delay_s: 300.0,
        },
        switches: None,
        disks: None,
        chaos: None,
    }
}

/// `(replication, link Gb/s, parallel repair slots, storage overhead)`
/// per named configuration arm.
fn arm_of(label: &str) -> (AvailabilityModel, f64) {
    match label {
        "rep5 1G serial" => (arm(5, 1.0, 1), 5.0),
        "rep4 1G serial" => (arm(4, 1.0, 1), 4.0),
        "rep4 10G serial" => (arm(4, 10.0, 1), 4.0),
        "rep4 1G parallel16" => (arm(4, 1.0, 16), 4.0),
        "rep4 10G parallel16" => (arm(4, 10.0, 16), 4.0),
        other => panic!("unknown config arm '{other}'"),
    }
}

fn main() {
    banner(
        "E2 — repair what-if (paper §1 worked example)",
        "rep4 alone is worse than rep5; rep4 + faster network and/or parallel \
         repair recovers most of the availability at 20% less storage",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    let spec = SweepSpec::new("e2-repair-whatif")
        .axis(
            "config",
            [
                "rep5 1G serial",
                "rep4 1G serial",
                "rep4 10G serial",
                "rep4 1G parallel16",
                "rep4 10G parallel16",
            ],
        )
        .seed(2)
        .replications(3)
        .common_random_numbers()
        .aggregate("unavailability_events", MetricAgg::Sum)
        .aggregate("objects_lost", MetricAgg::Sum);

    let out = runner.run(&spec, &store, |point, rep, sink| {
        let (m, _) = arm_of(&point.axis_str("config"));
        let (r, telemetry) = m.run_observed(rep.seed, SimDuration::from_days(200.0), None);
        sink.record(
            point
                .record(spec.name(), rep.seed)
                .metric("availability", r.availability)
                .metric("unavailability_events", r.unavailability_events as f64)
                .metric("objects_lost", r.objects_lost as f64)
                .telemetry(telemetry),
        );
        [
            ("availability".to_string(), r.availability),
            (
                "unavailability_events".to_string(),
                r.unavailability_events as f64,
            ),
            ("objects_lost".to_string(), r.objects_lost as f64),
        ]
        .into()
    });

    out.report()
        .axis_column("config", "config")
        .metric_column("availability", "availability", |a| format!("{a:.6}"))
        .metric_column("unavail events", "unavailability_events", |v| {
            format!("{}", v as u64)
        })
        .metric_column("objects lost", "objects_lost", |v| format!("{}", v as u64))
        .column("storage overhead", |row| {
            format!("{:.1}x", arm_of(&row.axis_display("config")).1)
        })
        .print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    println!();
    let avail = |label: &str| out.metric_where("config", label, "availability");
    let rep5 = avail("rep5 1G serial");
    let rep4 = avail("rep4 1G serial");
    let rep4_both = avail("rep4 10G parallel16");
    println!(
        "check: rep4 plain worse than rep5: {rep4:.6} <= {rep5:.6} -> {}",
        rep4 <= rep5
    );
    println!(
        "check: rep4 + 10G + parallel repair closes the gap: {rep4_both:.6} >= {rep5:.6} -> {}",
        rep4_both >= rep5
    );
    println!(
        "storage saved by rep4: {:.0}% of the rep5 bill",
        100.0 * (1.0 - 4.0 / 5.0)
    );
}
