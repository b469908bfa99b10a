//! **E14 — simulation at scale (§4.2)**: one availability run over a
//! million-component data center — 20,000 nodes × (48 disks + NIC) plus
//! the switch fabric — with per-disk and per-switch failures live, i.e.
//! every component is a failure domain with its own pending timer. This
//! is the paper's "wind tunnel" sizing question asked at full build-out
//! instead of on a toy slice, and it is the workload the SoA/arena state
//! layout exists for: the binary-heap event list holds ~1M pending
//! timers here.
//!
//! Stdout is byte-identical across `--workers` (timing never touches
//! stdout). `--smoke` shrinks the build-out to a ≥100k-component slice
//! for CI.

use windtunnel::prelude::*;
use wt_bench::{banner, runner_from_args};
use wt_des::time::SimDuration;
use wt_store::SharedStore;

const DISKS_PER_NODE: usize = 48;
const NODES_PER_RACK: usize = 40;

fn scenario(smoke: bool) -> Scenario {
    // Full: 500 racks × 40 nodes × (1 node + 48 disks + 1 NIC) = 1,000,000
    // components before the switch layer. Smoke: a 50-rack slice of the
    // same design — 100,051 components with the fabric.
    let (racks, objects, horizon_years) = if smoke {
        (50, 20_000, 0.1)
    } else {
        (500, 200_000, 0.5)
    };
    ScenarioBuilder::new("e14-scale")
        .racks(racks)
        .nodes_per_rack(NODES_PER_RACK)
        .disk(catalog::hdd_7200_4t())
        .disks_per_node(DISKS_PER_NODE)
        .objects(objects)
        .object_gb(8.0)
        .repair(RepairPolicy::parallel(64))
        .switch_failures(true)
        .disk_failures(true)
        .horizon_years(horizon_years)
        .seed(14)
        .build()
}

fn main() {
    banner(
        "E14 — simulation at scale: a million-component availability run",
        "every disk, NIC, node and switch of a 500-rack build-out is a \
         live failure domain; the pending-event set sits around a million \
         timers, which is the regime the arena state layout targets",
    );

    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    let base = scenario(smoke);
    let components = base.topology.build().components_iter().count();
    let floor = if smoke { 100_000 } else { 1_000_000 };
    assert!(
        components >= floor,
        "build-out shrank below the scale floor: {components} < {floor}"
    );

    let spec = SweepSpec::new("e14-scale")
        .axis("build_out", [if smoke { "smoke-slice" } else { "full" }])
        .seed(14)
        .replications(2)
        .aggregate("unavailability_events", MetricAgg::Sum)
        .aggregate("objects_lost", MetricAgg::Sum)
        .aggregate("node_failures", MetricAgg::Sum)
        .aggregate("disk_failures", MetricAgg::Sum)
        .aggregate("switch_failures", MetricAgg::Sum)
        .aggregate("sim_events", MetricAgg::Sum);

    let sc = base.clone();
    let out = runner.run(&spec, &store, move |point, rep, sink| {
        let m = WindTunnel::availability_model(&sc);
        let horizon = SimDuration::from_years(sc.horizon_years);
        let (r, telemetry) = m.run_observed(rep.seed, horizon, None);
        sink.record(
            point
                .record("e14-scale", rep.seed)
                .metric("availability", r.availability)
                .metric("unavailability_events", r.unavailability_events as f64)
                .metric("objects_lost", r.objects_lost as f64)
                .metric("node_failures", r.node_failures as f64)
                .metric("disk_failures", r.disk_failures as f64)
                .metric("switch_failures", r.switch_failures as f64)
                .metric("sim_events", r.sim_events as f64)
                .telemetry(telemetry),
        );
        [
            ("availability".to_string(), r.availability),
            (
                "unavailability_events".to_string(),
                r.unavailability_events as f64,
            ),
            ("objects_lost".to_string(), r.objects_lost as f64),
            ("node_failures".to_string(), r.node_failures as f64),
            ("disk_failures".to_string(), r.disk_failures as f64),
            ("switch_failures".to_string(), r.switch_failures as f64),
            ("sim_events".to_string(), r.sim_events as f64),
        ]
        .into()
    });

    out.report()
        .axis_column("build-out", "build_out")
        .metric_column("availability", "availability", |a| format!("{a:.7}"))
        .metric_column("unavail events", "unavailability_events", |v| {
            format!("{}", v as u64)
        })
        .metric_column("objects lost", "objects_lost", |v| format!("{}", v as u64))
        .metric_column("node fails", "node_failures", |v| format!("{}", v as u64))
        .metric_column("disk fails", "disk_failures", |v| format!("{}", v as u64))
        .metric_column("switch fails", "switch_failures", |v| {
            format!("{}", v as u64)
        })
        .metric_column("events", "sim_events", |v| format!("{}", v as u64))
        .print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    println!();
    println!(
        "check: {components} hardware components simulated as live failure \
         domains (floor {floor})"
    );
    let peak = store.with(|s| {
        s.records()
            .filter_map(|r| r.telemetry.as_ref())
            .map(|t| t.peak_queue_depth)
            .max()
            .unwrap_or(0)
    });
    println!(
        "check: peak pending-event set {peak} — the million-timer regime \
         the arena state layout targets"
    );
    let events: u64 = out.rows[0].metric("sim_events") as u64;
    println!(
        "check: {events} discrete events executed across {} replication(s) \
         with bitwise-identical results at any worker count",
        2
    );
}
