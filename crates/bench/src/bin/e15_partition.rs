//! **E15 — partitioned parallel DES within one run (§4.2)**: the
//! "simulation at scale" challenge attacked *inside* a single run rather
//! than across a sweep. One availability simulation over a 10M-component
//! build-out (156,250 racks × 64 nodes, every node a live failure
//! domain) executes as topology-sharded partitions — each with its own
//! future-event list — synchronized conservatively with a lookahead
//! derived from the minimum cross-partition link latency plus the
//! fastest cross-rack protocol delay.
//!
//! The experiment runs the identical model at 1/2/4 partitions (threads
//! matching the partition count) and prints a speedup table. Each row
//! times engine set-up (`setup_s`: placement and boot timers) apart from
//! the window loop (`loop_s`), and derives events/s and speedup from the
//! loop alone. Partition count 1 is the serial oracle: every other row
//! must — and is asserted to — produce the identical
//! `AvailabilityResult` and the same total event count. Wall-clock
//! numbers are measured on whatever host runs this; hosts with fewer
//! cores than threads show synchronization overhead instead of speedup,
//! which is the honest number for that host (see EXPERIMENTS.md E15).
//!
//! `--smoke` shrinks the build-out to a 200k-component slice for quick
//! validation.

use std::time::Instant;
use windtunnel::prelude::*;
use wt_bench::{banner, flag_value};
use wt_cluster::{PartitionedAvailability, RebuildModel};
use wt_des::SimTime;
use wt_dist::Dist;

const NODES_PER_RACK: usize = 64;

fn model(smoke: bool) -> (PartitionedAvailability, f64) {
    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.0 * DAY;
    // Full: 156,250 racks × 64 nodes = 10,000,000 failure domains.
    // Smoke: a 3,125-rack slice of the same design (200,000 domains).
    let (racks, horizon_years) = if smoke {
        (3_125, 0.05)
    } else {
        (156_250, 0.02)
    };
    let nodes = racks * NODES_PER_RACK;
    let m = PartitionedAvailability {
        racks,
        nodes_per_rack: NODES_PER_RACK,
        replication: 3,
        objects: (nodes / 4) as u64,
        object_bytes: 64 << 30,
        node_ttf: Dist::exponential_mean(2.0 * YEAR),
        node_replace: Dist::lognormal_mean_cv(4.0 * 3_600.0, 1.0),
        rebuild: RebuildModel::Timed(Dist::exponential_mean(1_800.0)),
        repair: wt_sw::RepairPolicy {
            max_parallel: 128,
            bandwidth_share: 0.5,
            detection_delay_s: 300.0,
        },
        wire_latency_s: 1e-4,
        chaos: None,
    };
    (m, horizon_years * YEAR)
}

fn main() {
    banner(
        "E15 — partitioned parallel DES: one run, topology-sharded",
        "a 10M-component availability run executes across conservative-\
         lookahead partitions (one event queue per rack span, cross-rack \
         mirror traffic as mailbox events); partition count 1 is the \
         serial oracle every parallel row must match bitwise",
    );

    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = match flag_value(&args, "--seed") {
        Some(v) => v.parse().expect("--seed expects a number"),
        None => 15,
    };

    let (m, horizon_s) = model(smoke);
    let components = m.racks * m.nodes_per_rack;
    let floor = if smoke { 200_000 } else { 10_000_000 };
    assert!(
        components >= floor,
        "build-out shrank: {components} < {floor}"
    );
    println!(
        "build-out: {} racks x {} nodes = {components} failure domains, \
         {} objects, horizon {:.3}y, lookahead {:.1}s",
        m.racks,
        m.nodes_per_rack,
        m.objects,
        horizon_s / (365.0 * 86_400.0),
        m.lookahead_s()
    );
    println!();

    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("parts  threads  wall_s  setup_s  loop_s      ev/s  speedup  availability  events");
    let mut oracle: Option<(AvailabilityResult, u64)> = None;
    let mut serial_loop = 0.0_f64;
    for partitions in [1usize, 2, 4] {
        let threads = partitions;
        let t0 = Instant::now();
        let mut sim = m.build(seed, horizon_s, partitions);
        let setup = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let t = sim.run_observed(SimTime::from_secs(horizon_s), threads);
        let loop_s = t1.elapsed().as_secs_f64();
        let r = m.finish(&sim);
        drop(sim); // freeing the engine is part of the row's wall time
        let wall = t0.elapsed().as_secs_f64();
        match &oracle {
            None => {
                oracle = Some((r.clone(), t.events));
                serial_loop = loop_s;
            }
            Some((gold, gold_events)) => {
                assert_eq!(
                    &r, gold,
                    "partitions={partitions} diverged from the serial oracle"
                );
                assert_eq!(t.events, *gold_events, "event count diverged");
            }
        }
        println!(
            "{partitions:>5}  {threads:>7}  {wall:>6.2}  {setup:>7.2}  {loop_s:>6.2}  {:>8.0}  {:>6.2}x  {:>12.7}  {}",
            t.events as f64 / loop_s,
            serial_loop / loop_s,
            r.availability,
            t.events
        );
    }
    println!();
    println!("ev/s and speedup are over loop_s, the window loop alone");
    println!(
        "check: all rows produced identical AvailabilityResult and event \
         totals — partitioning is invisible to results"
    );
    println!(
        "note: wall numbers measured on a {host}-core host; speedup requires cores >= threads"
    );
}
