//! **E13 — chaos scenarios: independent vs correlated failures (§2.1)**:
//! the same node-downtime budget hurts very differently depending on how
//! it is spent. Ten scattered single-node maintenance windows barely
//! register against 3-way quorums; the identical node-seconds taken as
//! one power-domain loss breaks every rack-colocated quorum at once. A
//! third arm spends the window as a *gray-failure storm* — no downtime at
//! all, but rebuilds crossing the limping rack neighborhood slow by an
//! order of magnitude, eroding the repair margin that downtime metrics
//! never see.
//!
//! The three arms run as a declarative [`SweepSpec`] with 3 CRN
//! replications, so every arm faces the same organic failure trace and
//! the measured gap is the injection schedule alone. `--workers N` sizes
//! the pool; stdout is byte-identical for any worker count (timing goes
//! to stderr).
//! `--smoke` shrinks the horizon and object count for CI.

use windtunnel::prelude::*;
use wt_bench::{banner, runner_from_args};
use wt_cluster::chaos::ChaosConfig;
use wt_cluster::{AvailabilityModel, FaultKind, FaultSchedule, RebuildModel};
use wt_des::time::SimDuration;
use wt_store::SharedStore;

const DAY: f64 = 86_400.0;
const YEAR: f64 = 365.0 * DAY;
const NODES_PER_RACK: usize = 10;

/// The chaos schedule for one arm. Every arm's *downtime* budget is
/// 10 nodes x 1 window; the gray arm spends the same window limping
/// instead of dark (gray failures page nobody, so they persist far
/// longer than a crash-repair cycle).
fn schedule(arm: &str, horizon_s: f64) -> FaultSchedule {
    // ~10_000 s at the full 1-year horizon, scaled so --smoke keeps the
    // same shape.
    let window_s = horizon_s / 3_150.0;
    match arm {
        "independent" => {
            // One node at a time, scattered over nodes and time.
            let mut s = FaultSchedule::new();
            for i in 0..10 {
                s = s.rule(
                    "scattered-maintenance",
                    (0.05 + 0.09 * i as f64) * horizon_s,
                    FaultKind::MaintenanceWindow {
                        first_node: i * 6,
                        nodes: 1,
                        duration_s: window_s,
                    },
                );
            }
            s
        }
        "correlated" => FaultSchedule::new().rule(
            "power-domain-loss",
            0.5 * horizon_s,
            FaultKind::PowerDomainLoss {
                first_rack: 0,
                racks: 1,
                restore_s: window_s,
            },
        ),
        "gray_storm" => FaultSchedule::new().rule(
            "undetected-disk-storm",
            0.4 * horizon_s,
            FaultKind::GrayStorm {
                spec: LimpwareSpec::degraded_disk_fixed(1.0, 20.0),
                center_rack: 0,
                radius_racks: 1,
                duration_s: 0.16 * horizon_s,
            },
        ),
        other => panic!("unknown arm '{other}'"),
    }
}

fn model(arm: &str, horizon_s: f64, objects: u64) -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 60,
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        objects,
        object_bytes: 8 << 30,
        node_ttf: Dist::exponential_mean(1.0 * YEAR),
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
        switches: None,
        disks: None,
        chaos: Some(ChaosConfig {
            schedule: schedule(arm, horizon_s),
            nodes_per_rack: NODES_PER_RACK,
        }),
    }
}

fn main() {
    banner(
        "E13 — chaos scenarios: spending one downtime budget three ways",
        "ten scattered single-node windows, one power-domain loss of the \
         same node-seconds, and a gray-failure storm that takes nothing \
         down at all — identical budgets, different failure classes, very \
         different availability",
    );

    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    let (horizon_years, objects) = if smoke { (0.25, 500) } else { (1.0, 2_000) };
    let horizon_s = horizon_years * YEAR;

    let spec = SweepSpec::new("e13-chaos")
        .axis("failure_mode", ["independent", "correlated", "gray_storm"])
        .seed(13)
        .replications(3)
        .common_random_numbers()
        .aggregate("unavailability_events", MetricAgg::Sum)
        .aggregate("objects_lost", MetricAgg::Sum);

    let out = runner.run(&spec, &store, |point, rep, sink| {
        let m = model(&point.axis_str("failure_mode"), horizon_s, objects);
        let (r, telemetry) = m.run_observed(rep.seed, SimDuration::from_years(horizon_years), None);
        sink.record(
            point
                .record(spec.name(), rep.seed)
                .metric("availability", r.availability)
                .metric("unavailability_events", r.unavailability_events as f64)
                .metric("objects_lost", r.objects_lost as f64)
                .metric("mean_rebuild_wait_s", r.mean_rebuild_wait_s)
                .telemetry(telemetry),
        );
        [
            ("availability".to_string(), r.availability),
            (
                "unavailability_events".to_string(),
                r.unavailability_events as f64,
            ),
            ("objects_lost".to_string(), r.objects_lost as f64),
            ("mean_rebuild_wait_s".to_string(), r.mean_rebuild_wait_s),
        ]
        .into()
    });

    out.report()
        .axis_column("failure mode", "failure_mode")
        .metric_column("availability", "availability", |a| format!("{a:.7}"))
        .metric_column("unavail events", "unavailability_events", |v| {
            format!("{}", v as u64)
        })
        .metric_column("objects lost", "objects_lost", |v| format!("{}", v as u64))
        .metric_column("mean rebuild wait", "mean_rebuild_wait_s", |v| {
            format!("{v:.0}s")
        })
        .print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    println!();
    let arm = |name: &str| {
        out.rows
            .iter()
            .find(|r| r.matches("failure_mode", name))
            .expect("arm")
    };
    let independent = arm("independent").metric("unavailability_events") as u64;
    let correlated = arm("correlated").metric("unavailability_events") as u64;
    println!(
        "check: equal downtime budgets, unequal damage: scattered {} vs \
         correlated {} unavailability episodes -> {}x",
        independent,
        correlated,
        correlated / independent.max(1)
    );
    let gray_wait = arm("gray_storm").metric("mean_rebuild_wait_s");
    let indep_wait = arm("independent").metric("mean_rebuild_wait_s");
    println!(
        "check: the gray storm takes zero nodes down yet stretches mean \
         rebuild wait {:.0}s -> {:.0}s ({:.1}x) — repair margin erodes \
         where downtime dashboards show nothing",
        indep_wait,
        gray_wait,
        gray_wait / indep_wait.max(1.0)
    );
    let fired = |mark: &str| {
        store.with(|s| {
            s.records()
                .filter_map(|r| r.telemetry.as_ref())
                .filter_map(|t| t.marks.get(mark).copied())
                .sum::<u64>()
        })
    };
    println!(
        "check: injections recorded in run telemetry: maintenance {}, \
         power loss {}, gray storm {}",
        fired("inject_maintenance"),
        fired("inject_power_loss"),
        fired("inject_gray_storm"),
    );
}
