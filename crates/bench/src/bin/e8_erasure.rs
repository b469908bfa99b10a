//! **E8 — erasure coding vs replication (§3 + ref \[14\])**: same failure
//! pressure, different redundancy schemes — availability, durability and
//! the storage bill side by side.
//!
//! The redundancy axis is a declarative [`SweepSpec`] executed on the
//! shared run farm: three CRN replications per scheme (identical failure
//! traces across arms), per-run records with engine telemetry, and the
//! table rendered by [`windtunnel::sweep::SweepReport`]. `--workers N`
//! sizes the pool; stdout is byte-identical for any value (timing goes
//! to stderr).

use windtunnel::prelude::*;
use wt_bench::{banner, runner_from_args};
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_store::SharedStore;

const DAY: f64 = 86_400.0;

fn scheme_of(label: &str) -> RedundancyScheme {
    [
        RedundancyScheme::replication(3),
        RedundancyScheme::erasure(6, 3),
        RedundancyScheme::erasure(10, 4),
    ]
    .into_iter()
    .find(|s| s.label() == label)
    .unwrap_or_else(|| panic!("unknown scheme '{label}'"))
}

fn mk(scheme: RedundancyScheme) -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 30,
        redundancy: scheme,
        placement: Placement::Random,
        objects: 1_500,
        object_bytes: 32 << 30,
        node_ttf: Dist::weibull_mean(0.8, 15.0 * DAY),
        node_replace: Dist::lognormal_mean_cv(6.0 * 3600.0, 1.0),
        rebuild: RebuildModel::Bandwidth {
            link_gbps: 10.0,
            share: 0.5,
        },
        repair: RepairPolicy {
            max_parallel: 32,
            bandwidth_share: 0.5,
            detection_delay_s: 600.0,
        },
        switches: None,
        disks: None,
        chaos: None,
    }
}

fn main() {
    banner(
        "E8 — replication vs Reed-Solomon under identical failure traces",
        "RS(10,4) stores 2.1x less than rep3 with better fault tolerance \
         (4 vs 2 losses) but pays repair amplification; rep3 loses data \
         first as failure pressure rises",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    // Identical replication seeds across schemes (common random numbers):
    // every arm faces the same failure trace, so differences are the
    // scheme's alone.
    let spec = SweepSpec::new("e8-redundancy")
        .axis(
            "scheme",
            ["rep3", "rs(6,3)", "rs(10,4)"].map(|s| scheme_of(s).label()),
        )
        .seed(8)
        .replications(3)
        .common_random_numbers()
        .aggregate("unavailability_events", MetricAgg::Sum)
        .aggregate("objects_lost", MetricAgg::Sum);

    let out = runner.run(&spec, &store, |point, rep, sink| {
        let model = mk(scheme_of(&point.axis_str("scheme")));
        let (r, telemetry) = model.run_observed(rep.seed, SimDuration::from_days(120.0), None);
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
        .axis_column("scheme", "scheme")
        .column("overhead", |row| {
            format!("{:.2}x", scheme_of(&row.axis_display("scheme")).overhead())
        })
        .column("tolerates", |row| {
            let tolerates = match scheme_of(&row.axis_display("scheme")) {
                RedundancyScheme::Replication(q) => q.n - (q.n / 2 + 1),
                RedundancyScheme::Erasure(s) => s.m,
            };
            tolerates.to_string()
        })
        .metric_column("availability", "availability", |v| format!("{v:.6}"))
        .metric_column("unavail events", "unavailability_events", |v| {
            format!("{}", v as u64)
        })
        .metric_column("objects lost", "objects_lost", |v| format!("{}", v as u64))
        .column("repair bytes/32GB object", |row| {
            let scheme = scheme_of(&row.axis_display("scheme"));
            format!(
                "{:.1} GB",
                scheme.repair_traffic_bytes(32 << 30) as f64 / 1e9
            )
        })
        .print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    println!();
    let overhead = |label: &str| scheme_of(label).overhead();
    let lost = |label: &str| out.metric_where("scheme", label, "objects_lost") as u64;
    let ratio = overhead("rep3") / overhead("rs(10,4)");
    println!(
        "check: RS(10,4) stores {ratio:.1}x less than rep3 -> {}",
        ratio > 2.0
    );
    println!(
        "check: RS(10,4) durability >= rep3 (lost {} vs {})",
        lost("rs(10,4)"),
        lost("rep3")
    );
}
