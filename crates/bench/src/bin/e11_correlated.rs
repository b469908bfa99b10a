//! **E11 — correlated failures (§2.1)**: "behaviors that happen at a
//! larger scale can't be easily observed at a smaller scale; e.g. …
//! correlated hardware failures". A top-of-rack switch outage takes a
//! whole rack offline at once; whether that breaks customer quorums is
//! decided by the *placement policy* — a hardware/software interaction
//! that only an integrated simulation exposes.
//!
//! The 2×2 grid (placement × switch outages) is a declarative
//! [`SweepSpec`] on the shared run farm: 3 CRN replications per arm, so
//! every arm faces the same failure trace. `--workers N` sizes the pool;
//! stdout is byte-identical for any value (timing goes to stderr).

use windtunnel::prelude::*;
use wt_bench::{banner, runner_from_args};
use wt_cluster::availability::SwitchFailureModel;
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_store::SharedStore;

const DAY: f64 = 86_400.0;
const YEAR: f64 = 365.0 * DAY;

fn model(placement: Placement, with_switch_failures: bool) -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 60,
        redundancy: RedundancyScheme::replication(3),
        placement,
        objects: 2_000,
        object_bytes: 8 << 30,
        node_ttf: Dist::weibull_mean(0.9, 5.0 * YEAR),
        node_replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
        rebuild: RebuildModel::Bandwidth {
            link_gbps: 10.0,
            share: 0.5,
        },
        repair: RepairPolicy {
            max_parallel: 16,
            bandwidth_share: 0.5,
            detection_delay_s: 300.0,
        },
        switches: with_switch_failures.then(|| SwitchFailureModel {
            nodes_per_rack: 10,
            ttf: Dist::exponential_mean(60.0 * DAY),
            // A 1h-mean switch swap: short enough that simultaneous
            // double-outages (the only thing that hurts RackAware) are
            // rare, while every single outage still hits Random's
            // rack-colocated quorums.
            repair: Dist::lognormal_mean_cv(3600.0, 1.0),
        }),
        disks: None,
        chaos: None,
    }
}

fn placement_of(label: &str) -> Placement {
    match label {
        "Random" => Placement::Random,
        "RackAware" => Placement::RackAware { nodes_per_rack: 10 },
        other => panic!("unknown placement '{other}'"),
    }
}

fn arm_label(placement: &str, switches: bool) -> String {
    format!(
        "{placement}, {}",
        if switches {
            "+ switch outages"
        } else {
            "node failures only"
        }
    )
}

fn main() {
    banner(
        "E11 — correlated rack failures vs placement policy",
        "with independent node failures only, Random and RackAware placement \
         are nearly indistinguishable; once correlated switch outages are \
         modeled, Random placement suffers orders of magnitude more quorum \
         losses — the class of effect the paper says small prototypes miss",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    let spec = SweepSpec::new("e11-correlated")
        .axis("placement", ["Random", "RackAware"])
        .axis("switch_outages", [false, true])
        .seed(11)
        .replications(3)
        .common_random_numbers()
        .aggregate("unavailability_events", MetricAgg::Sum)
        .aggregate("switch_failures", MetricAgg::Sum);

    let out = runner.run(&spec, &store, |point, rep, sink| {
        let m = model(
            placement_of(&point.axis_str("placement")),
            point.axis_bool("switch_outages"),
        );
        let (r, telemetry) = m.run_observed(rep.seed, SimDuration::from_years(1.0), None);
        sink.record(
            point
                .record(spec.name(), rep.seed)
                .metric("availability", r.availability)
                .metric("unavailability_events", r.unavailability_events as f64)
                .metric("switch_failures", r.switch_failures as f64)
                .telemetry(telemetry),
        );
        [
            ("availability".to_string(), r.availability),
            (
                "unavailability_events".to_string(),
                r.unavailability_events as f64,
            ),
            ("switch_failures".to_string(), r.switch_failures as f64),
        ]
        .into()
    });

    out.report()
        .column("arm", |row| {
            arm_label(
                &row.axis_display("placement"),
                row.point.axis_bool("switch_outages"),
            )
        })
        .metric_column("availability", "availability", |a| format!("{a:.7}"))
        .metric_column("unavail events", "unavailability_events", |v| {
            format!("{}", v as u64)
        })
        .metric_column("switch outages", "switch_failures", |v| {
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
    let events = |placement: &str, switches: bool| {
        out.rows
            .iter()
            .find(|r| r.matches("placement", placement) && r.matches("switch_outages", switches))
            .expect("arm")
            .metric("unavailability_events") as u64
    };
    let without = events("Random", false).max(1);
    let ra_without = events("RackAware", false).max(1);
    println!(
        "check: without correlation both placements are near-perfect ({without} vs {ra_without} episodes)"
    );
    let with = events("Random", true);
    let ra_with = events("RackAware", true);
    println!(
        "check: correlation separates them: Random {} vs RackAware {} -> {}x",
        with,
        ra_with,
        with / ra_with.max(1)
    );
    println!(
        "check: a small prototype without rack-scale correlation would have \
         called the two placements equivalent — the wind tunnel does not."
    );
}
