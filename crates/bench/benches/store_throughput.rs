//! Result-store append throughput: the single-lock `SharedStore`
//! baseline vs the sharded per-worker recording path, at 1/2/4/8
//! workers.
//!
//! What is timed is the **worker-side recording phase** — the cost a
//! simulation thread pays per record, which is exactly what the sharded
//! design removes from the farm's critical path:
//!
//! * **mutex arm**: every worker appends through the shared store's
//!   write lock; each append pays id assignment and the store's `Vec`
//!   push while holding the lock.
//! * **sharded arm**: every worker pushes into a private `StoreShard` —
//!   a plain `Vec` push, no lock, no id.
//!
//! The deterministic in-order merge (where ids are assigned) is timed
//! **separately** and reported as `merge rec/s`: in the
//! real farm the merge runs on the fold thread, overlapped with the
//! workers' ongoing simulation, so it is off the recording critical
//! path — folding it into the workers' number would charge the sharded
//! design for time the workers never wait.
//!
//! Workers synchronize on a barrier before recording; the timer starts
//! before the main thread enters the barrier and stops after the last
//! join, so the window provably covers the whole recording phase (a
//! conservative over-count, applied to both arms alike). On a
//! single-core host the mutex arm never even contends — real contention
//! only widens the gap in the sharded design's favor, so the reported
//! speedup is a floor.
//!
//! Prints one row per worker count and writes the measured numbers to
//! `BENCH_store.json` at the workspace root (override the path with
//! `BENCH_STORE_OUT=...`), so the speedup is a committed, regenerable
//! artifact.

use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;
use wt_store::{RecordSink, RunRecord, SharedStore, StoreShard};

/// Records appended per measurement (split evenly across workers).
const TOTAL: usize = 200_000;
/// Timed samples per configuration; the best sample is reported, the
/// mean is recorded alongside it.
const SAMPLES: usize = 10;

fn make_records(n: usize, seed: u64) -> Vec<RunRecord> {
    (0..n)
        .map(|i| {
            RunRecord::new("bench", seed * 1_000_000 + i as u64)
                .param("n", i)
                .param("placement", "R")
                .metric("availability", 0.999)
                .metric("tco_usd_per_year", 12_345.0)
        })
        .collect()
}

/// One timed run of the mutex baseline: `workers` threads all appending
/// through the shared store's write lock. Returns the recording-phase
/// seconds.
fn run_mutex(workers: usize) -> f64 {
    let per = TOTAL / workers;
    let batches: Vec<Vec<RunRecord>> = (0..workers).map(|t| make_records(per, t as u64)).collect();
    let store = SharedStore::new();
    let barrier = Barrier::new(workers + 1);
    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                let store = store.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for r in batch {
                        store.append(r);
                    }
                })
            })
            .collect();
        let start = Instant::now();
        barrier.wait();
        for h in handles {
            h.join().expect("worker panicked");
        }
        start.elapsed().as_secs_f64()
    });
    assert_eq!(store.len(), per * workers);
    elapsed
}

/// One timed run of the sharded path: `workers` threads filling private
/// shards (the recording phase), then a deterministic in-order merge
/// into the shared store. Returns `(record_secs, merge_secs)` — the two
/// phases the sharded design splits the mutex arm's single cost into.
fn run_sharded(workers: usize) -> (f64, f64) {
    let per = TOTAL / workers;
    let batches: Vec<Vec<RunRecord>> = (0..workers).map(|t| make_records(per, t as u64)).collect();
    let store = SharedStore::new();
    let barrier = Barrier::new(workers + 1);
    let (shards, record_secs): (Vec<StoreShard>, f64) = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let shard = StoreShard::new();
                    barrier.wait();
                    for r in batch {
                        shard.record(r);
                    }
                    shard
                })
            })
            .collect();
        let start = Instant::now();
        barrier.wait();
        let shards = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (shards, start.elapsed().as_secs_f64())
    });
    let start = Instant::now();
    for shard in shards {
        store.merge_shard(shard);
    }
    let merge_secs = start.elapsed().as_secs_f64();
    assert_eq!(store.len(), per * workers);
    (record_secs, merge_secs)
}

/// (best, mean) records/s over `SAMPLES` runs of `f`.
fn measure(f: impl Fn() -> f64) -> (f64, f64) {
    f(); // warmup
    let secs: Vec<f64> = (0..SAMPLES).map(|_| f()).collect();
    let best = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    (TOTAL as f64 / best, TOTAL as f64 / mean)
}

fn fmt_rate(r: f64) -> String {
    format!("{:.1}M", r / 1e6)
}

fn main() {
    println!(
        "store_throughput: {TOTAL} record appends per run, {SAMPLES} samples, best-of reported"
    );
    println!("(shard rec/s is the workers' recording phase; the deterministic merge");
    println!(" runs on the farm's fold thread and is reported separately)");
    println!(
        "{:>7}  {:>12}  {:>12}  {:>12}  {:>8}",
        "workers", "mutex rec/s", "shard rec/s", "merge rec/s", "speedup"
    );

    let mut rows = String::new();
    let mut speedup_at_8 = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let (mutex_best, mutex_mean) = measure(|| run_mutex(workers));
        let (record_best, record_mean) = measure(|| run_sharded(workers).0);
        let (merge_best, merge_mean) = measure(|| run_sharded(workers).1);
        let speedup = record_best / mutex_best;
        if workers == 8 {
            speedup_at_8 = speedup;
        }
        println!(
            "{workers:>7}  {:>12}  {:>12}  {:>12}  {speedup:>7.2}x",
            fmt_rate(mutex_best),
            fmt_rate(record_best),
            fmt_rate(merge_best),
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"workers\": {workers}, \
             \"mutex_recs_per_s\": {mutex_best:.0}, \"mutex_recs_per_s_mean\": {mutex_mean:.0}, \
             \"sharded_recs_per_s\": {record_best:.0}, \"sharded_recs_per_s_mean\": {record_mean:.0}, \
             \"merge_recs_per_s\": {merge_best:.0}, \"merge_recs_per_s_mean\": {merge_mean:.0}, \
             \"speedup\": {speedup:.2}}}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"store_throughput\",\n  \"records_per_run\": {TOTAL},\n  \
         \"samples\": {SAMPLES},\n  \
         \"metric\": \"worker-side records appended per second, best sample; \
         merge runs on the fold thread and is timed separately\",\n  \
         \"results\": [\n{rows}\n  ],\n  \"speedup_at_8_workers\": {speedup_at_8:.2}\n}}\n"
    );
    let out = std::env::var("BENCH_STORE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json").to_string()
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nresults written to {out}"),
        Err(e) => eprintln!("\nwarning: could not write {out}: {e}"),
    }
}
