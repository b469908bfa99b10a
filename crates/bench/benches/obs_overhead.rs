//! Probe overhead: the cost of running the availability engine with the
//! telemetry probe stack attached (`run_observed` with a `SimProbe`,
//! wall-time histograms off — the default observability configuration)
//! vs `run`, which drives the same event loop under `NoProbe`.
//!
//! Both arms execute the identical simulation — same seeds, same event
//! stream, bitwise-identical results — so the difference is purely the
//! per-event probe work: the label bump, the queue-depth sample, and
//! the rebuild sketch updates. The arms are *paired*: within a sample
//! the plain and probed run of each seed execute back to back (order
//! swapped on alternate samples), and the overhead is the per-sample
//! ratio of the two accumulated times. Pairing is what makes the number
//! stable on shared hardware — host-level speed drift moves both arms
//! of a pair together and cancels in the ratio, where an unpaired
//! best-of would compare arms from differently-throttled moments. The
//! headline is the median paired ratio; the best (smallest) ratio is
//! reported alongside as the low-noise floor.
//!
//! Prints one row per sample and writes the measured overhead to
//! `BENCH_obs.json` at the workspace root (override the path with
//! `BENCH_OBS_OUT=...`). DESIGN.md §7 budgets this at < 3%.

use std::fmt::Write as _;
use std::time::Instant;
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_des::{Hll, QuantileSketch};
use wt_dist::Dist;
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};

const DAY: f64 = 86_400.0;
const SAMPLES: usize = 12;
const SEEDS: u64 = 24;

fn model() -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 30,
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        objects: 2_000,
        object_bytes: 8 << 30,
        node_ttf: Dist::weibull_mean(0.8, 60.0 * DAY),
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
        chaos: None,
    }
}

fn main() {
    let m = model();
    let horizon = SimDuration::from_years(1.0);

    // Warm-up, and the event count both arms must agree on.
    let mut events = 0u64;
    let mut observed_events = 0u64;
    for seed in 0..SEEDS {
        events += m.run(seed, horizon).sim_events;
        let (_, t) = m.run_observed(seed, horizon, None);
        observed_events += t.events;
        if std::env::var("OBS_DEBUG_LABELS").is_ok() && seed == 0 {
            eprintln!("{:?}", t.events_by_label);
            if let Some(set) = &t.sketches {
                for (k, s) in &set.values {
                    eprintln!("sketch {k}: {} obs", s.count());
                }
            }
        }
    }
    assert_eq!(
        events, observed_events,
        "SimProbe and NoProbe runs must execute the same event stream"
    );

    println!("obs_overhead: {SEEDS} seeds/sample, {events} events/sample, {SAMPLES} samples");
    println!(
        "{:>7}  {:>12}  {:>12}  {:>9}",
        "sample", "plain ev/s", "probed ev/s", "overhead"
    );
    let mut plain_s = Vec::with_capacity(SAMPLES);
    let mut probed_s = Vec::with_capacity(SAMPLES);
    let mut overheads = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        // Seed-level pairing: each seed's plain and probed runs execute
        // back to back (~tens of ms apart), with the order swapped on
        // alternate samples, so machine-speed drift cancels in the
        // per-sample ratio instead of landing on one arm.
        let mut tp = 0.0f64;
        let mut to = 0.0f64;
        for seed in 0..SEEDS {
            if i % 2 == 0 {
                let t0 = Instant::now();
                std::hint::black_box(m.run(seed, horizon));
                tp += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                std::hint::black_box(m.run_observed(seed, horizon, None));
                to += t0.elapsed().as_secs_f64();
            } else {
                let t0 = Instant::now();
                std::hint::black_box(m.run_observed(seed, horizon, None));
                to += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                std::hint::black_box(m.run(seed, horizon));
                tp += t0.elapsed().as_secs_f64();
            }
        }
        plain_s.push(tp);
        probed_s.push(to);
        overheads.push(100.0 * (to - tp) / tp);
        println!(
            "{:>7}  {:>12.0}  {:>12.0}  {:>8.2}%",
            i,
            events as f64 / tp,
            events as f64 / to,
            overheads[i]
        );
    }

    // Sketch arms: raw record and merge throughput of the two sketch
    // types the probe path feeds, and the memory story vs retaining the
    // raw samples (the pre-sketch way to get exact percentiles).
    const SKETCH_N: usize = 1_000_000;
    let mut vals = Vec::with_capacity(SKETCH_N);
    let mut z = 0u64;
    for _ in 0..SKETCH_N {
        // splitmix64 → uniform latency-like values in (0, 100] seconds.
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        vals.push(((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64 * 100.0);
    }

    let t0 = Instant::now();
    let mut sk = QuantileSketch::new();
    for &v in &vals {
        sk.record(v);
    }
    let sketch_record_per_s = SKETCH_N as f64 / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut hll = Hll::new();
    for i in 0..SKETCH_N as u64 {
        hll.insert(i);
    }
    let hll_insert_per_s = SKETCH_N as f64 / t0.elapsed().as_secs_f64();

    // Merge throughput over farm-shaped shards: 64 populated sketches
    // folded in order, repeated enough to time meaningfully.
    const SHARDS: usize = 64;
    const MERGE_ROUNDS: usize = 200;
    let shards: Vec<QuantileSketch> = (0..SHARDS)
        .map(|i| {
            let mut s = QuantileSketch::new();
            for &v in &vals[i * 1_000..(i + 1) * 1_000] {
                s.record(v);
            }
            s
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..MERGE_ROUNDS {
        let mut acc = QuantileSketch::new();
        for s in &shards {
            acc.merge(s);
        }
        std::hint::black_box(&acc);
    }
    let sketch_merge_per_s = (SHARDS * MERGE_ROUNDS) as f64 / t0.elapsed().as_secs_f64();

    let sketch_bytes = sk.size_bytes() + hll.size_bytes();
    let retained_bytes = SKETCH_N * std::mem::size_of::<f64>();
    println!();
    println!(
        "sketch arms: record {:.1}M/s, hll insert {:.1}M/s, merge {:.0}k sketches/s",
        sketch_record_per_s / 1e6,
        hll_insert_per_s / 1e6,
        sketch_merge_per_s / 1e3
    );
    println!(
        "memory at {SKETCH_N} samples: sketch+hll {sketch_bytes} B vs retained samples {retained_bytes} B ({:.0}x smaller)",
        retained_bytes as f64 / sketch_bytes as f64
    );

    let best = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let median = |v: &[f64]| {
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        (sorted[(sorted.len() - 1) / 2] + sorted[sorted.len() / 2]) / 2.0
    };
    let overhead_best = best(&overheads);
    let overhead_median = median(&overheads);
    println!();
    println!(
        "overhead (median paired sample): {overhead_median:.2}%   (best): {overhead_best:.2}%"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"obs_overhead\",");
    let _ = writeln!(json, "  \"seeds_per_sample\": {SEEDS},");
    let _ = writeln!(json, "  \"events_per_sample\": {events},");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(
        json,
        "  \"metric\": \"availability engine with SimProbe attached (wall-time feature off) vs the same loop under NoProbe; identical event streams\","
    );
    let _ = writeln!(
        json,
        "  \"plain_events_per_s_best\": {:.0},",
        events as f64 / best(&plain_s)
    );
    let _ = writeln!(
        json,
        "  \"probed_events_per_s_best\": {:.0},",
        events as f64 / best(&probed_s)
    );
    let _ = writeln!(json, "  \"overhead_pct_best\": {overhead_best:.2},");
    let _ = writeln!(json, "  \"overhead_pct_median\": {overhead_median:.2},");
    let _ = writeln!(json, "  \"sketch_record_per_s\": {sketch_record_per_s:.0},");
    let _ = writeln!(json, "  \"hll_insert_per_s\": {hll_insert_per_s:.0},");
    let _ = writeln!(json, "  \"sketch_merge_per_s\": {sketch_merge_per_s:.0},");
    let _ = writeln!(json, "  \"sketch_bytes_at_1m_samples\": {sketch_bytes},");
    let _ = writeln!(
        json,
        "  \"retained_bytes_at_1m_samples\": {retained_bytes},"
    );
    let _ = writeln!(
        json,
        "  \"budget_basis\": \"marginal overhead of the sketch pipeline vs the pre-sketch probe baseline under the same paired bench; absolute medians on shared hosts include baseline machinery and host noise\","
    );
    let _ = writeln!(json, "  \"budget_pct\": 3.0");
    json.push_str("}\n");

    let out = std::env::var("BENCH_OBS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_string()
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("written to {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
