//! **E12 — model coverage across the component spectrum (§4.5)**: "the
//! entire space of hardware components … has still not been covered".
//! What does the availability estimate *miss* when the failure model stops
//! at whole nodes? Same cluster, three failure models of increasing
//! coverage: nodes only, nodes + per-disk failures, nodes + disks +
//! ToR switches.
//!
//! The coverage axis is a declarative [`SweepSpec`] on the shared run
//! farm: 4 CRN replications per arm (availability averaged, counters
//! summed by the sweep's aggregate registry). `--workers N` sizes the
//! pool; stdout is byte-identical for any value (timing goes to stderr).

use windtunnel::prelude::*;
use wt_bench::{banner, runner_from_args};
use wt_cluster::availability::{DiskFailureModel, SwitchFailureModel};
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_store::SharedStore;

const DAY: f64 = 86_400.0;
const YEAR: f64 = 365.0 * DAY;

fn model(disks: bool, switches: bool) -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 30,
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        objects: 1_000,
        object_bytes: 32 << 30,
        node_ttf: Dist::weibull_mean(0.9, 0.5 * YEAR),
        node_replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
        // A 1G repair network: the repair window after a node failure is
        // hours long, so even independent double failures overlap
        // occasionally — the graduation the experiment needs.
        rebuild: RebuildModel::Bandwidth {
            link_gbps: 1.0,
            share: 0.5,
        },
        repair: RepairPolicy {
            max_parallel: 16,
            bandwidth_share: 0.5,
            detection_delay_s: 3_600.0,
        },
        switches: switches.then(|| SwitchFailureModel {
            nodes_per_rack: 10,
            ttf: Dist::exponential_mean(180.0 * DAY),
            repair: Dist::lognormal_mean_cv(2.0 * 3600.0, 1.0),
        }),
        disks: disks.then(|| DiskFailureModel {
            per_node: 12,
            // Per-disk: Weibull with ~3%/yr ARR (Schroeder–Gibson) — with
            // 360 disks that is ~11 disk losses/yr on top of ~15 node
            // events.
            ttf: Dist::weibull_mean(0.8, 15.0 * YEAR),
            replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.5),
        }),
        chaos: None,
    }
}

fn coverage_model(label: &str) -> AvailabilityModel {
    match label {
        "nodes only" => model(false, false),
        "nodes + disks" => model(true, false),
        "nodes + disks + switches" => model(true, true),
        other => panic!("unknown coverage arm '{other}'"),
    }
}

fn main() {
    banner(
        "E12 — what the availability estimate misses per modeled component",
        "each omitted component class silently inflates the availability \
         estimate; the gap between 'nodes only' and full coverage is the \
         modeling error a naive simulator ships to its users",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    let spec = SweepSpec::new("e12-coverage")
        .axis(
            "failure model",
            ["nodes only", "nodes + disks", "nodes + disks + switches"],
        )
        .seed(12)
        .replications(4)
        .common_random_numbers()
        .aggregate("unavailability_events", MetricAgg::Sum)
        .aggregate("node_failures", MetricAgg::Sum)
        .aggregate("disk_failures", MetricAgg::Sum)
        .aggregate("switch_failures", MetricAgg::Sum)
        .aggregate("rebuilds_completed", MetricAgg::Sum);

    let out = runner.run(&spec, &store, |point, rep, sink| {
        let m = coverage_model(&point.axis_str("failure model"));
        let (r, telemetry) = m.run_observed(rep.seed, SimDuration::from_years(1.0), None);
        sink.record(
            point
                .record(spec.name(), rep.seed)
                .metric("availability", r.availability)
                .metric("unavailability_events", r.unavailability_events as f64)
                .telemetry(telemetry),
        );
        [
            ("availability".to_string(), r.availability),
            (
                "unavailability_events".to_string(),
                r.unavailability_events as f64,
            ),
            ("node_failures".to_string(), r.node_failures as f64),
            ("disk_failures".to_string(), r.disk_failures as f64),
            ("switch_failures".to_string(), r.switch_failures as f64),
            (
                "rebuilds_completed".to_string(),
                r.rebuilds_completed as f64,
            ),
        ]
        .into()
    });

    out.report()
        .axis_column("failure model", "failure model")
        .metric_column("availability", "availability", |a| format!("{a:.7}"))
        .metric_column("unavail events", "unavailability_events", |v| {
            format!("{}", v as u64)
        })
        .metric_column("node fails", "node_failures", |v| format!("{}", v as u64))
        .metric_column("disk fails", "disk_failures", |v| format!("{}", v as u64))
        .metric_column("switch fails", "switch_failures", |v| {
            format!("{}", v as u64)
        })
        .metric_column("rebuilds", "rebuilds_completed", |v| {
            format!("{}", v as u64)
        })
        .print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    println!();
    let unavail = |label: &str| 1.0 - out.metric_where("failure model", label, "availability");
    let base = unavail("nodes only").max(1e-12);
    for name in ["nodes + disks", "nodes + disks + switches"] {
        let u = unavail(name);
        println!(
            "check: '{}' reveals {:.1}x the unavailability of 'nodes only' ({:.2e} vs {:.2e})",
            name,
            u / base,
            u,
            base
        );
    }
    println!(
        "takeaway: every omitted component class makes the design look \
         better than it is — the paper's call for failure data across the \
         whole component spectrum, quantified."
    );
}
