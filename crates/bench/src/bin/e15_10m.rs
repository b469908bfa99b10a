//! **E15 — a 10M-domain availability run (§4.2)**: the "simulation at
//! scale" question asked of a single run rather than a sweep. One
//! availability simulation over a 10,000,000-node build-out (156,250
//! racks × 64 nodes, every node a live failure domain, 2.5M 3-way
//! replicated objects) runs on the same serial engine as every other
//! availability experiment, in one process.
//!
//! Stdout holds one row. Its result columns (availability through
//! events) are deterministic for a seed and pinned by CI; `wall_s` (the
//! whole run: placement, boot timers, event loop and summary) and
//! `peak_rss_mib` (Linux `VmHWM`, 0 elsewhere) are this host's.

use std::time::Instant;
use wt_bench::{banner, flag_value, peak_rss_kib};
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::SimDuration;
use wt_dist::Dist;
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};

const RACKS: usize = 156_250;
const NODES_PER_RACK: usize = 64;
const HORIZON_YEARS: f64 = 0.02;

fn model() -> AvailabilityModel {
    const YEAR: f64 = 365.0 * 86_400.0;
    let nodes = RACKS * NODES_PER_RACK;
    AvailabilityModel {
        n_nodes: nodes,
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        objects: (nodes / 4) as u64,
        object_bytes: 64 << 30,
        node_ttf: Dist::exponential_mean(2.0 * YEAR),
        node_replace: Dist::lognormal_mean_cv(4.0 * 3_600.0, 1.0),
        rebuild: RebuildModel::Timed(Dist::exponential_mean(1_800.0)),
        repair: RepairPolicy {
            max_parallel: 128,
            bandwidth_share: 0.5,
            detection_delay_s: 300.0,
        },
        switches: None,
        disks: None,
        chaos: None,
    }
}

fn main() {
    banner(
        "E15 — a 10M-domain availability run",
        "one availability run over 10M failure domains fits one process \
         on the serial engine: the question of scale is answered by the \
         same simulator as every smaller one",
    );

    let args: Vec<String> = std::env::args().collect();
    let seed = match flag_value(&args, "--seed") {
        Some(v) => v.parse().expect("--seed expects a number"),
        None => 15,
    };

    let m = model();
    println!(
        "build-out: {RACKS} racks x {NODES_PER_RACK} nodes = {} failure domains, \
         {} objects, horizon {HORIZON_YEARS:.3}y",
        m.n_nodes, m.objects
    );
    println!();

    let started = Instant::now();
    let r = m.run(seed, SimDuration::from_years(HORIZON_YEARS));
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_kib() / 1024;

    println!(
        "availability  unavail_events  objects_lost  node_failures  rebuilds  events  wall_s  peak_rss_mib"
    );
    println!(
        "{:>12.7}  {:>14}  {:>12}  {:>13}  {:>8}  {:>6}  {wall_s:>6.2}  {peak_rss_mib:>12}",
        r.availability,
        r.unavailability_events,
        r.objects_lost,
        r.node_failures,
        r.rebuilds_completed,
        r.sim_events
    );
    println!();
    println!(
        "check: {} nodes simulated as live failure domains in one run -> {}",
        m.n_nodes,
        m.n_nodes >= 10_000_000
    );
}
