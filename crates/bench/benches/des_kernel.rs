//! DES kernel micro-benchmarks: event queue throughput (the DESIGN.md §8
//! heap-vs-baseline ablation), resource-pool cycling, and RNG streams.
//! Engine-in-the-loop throughput is the `kernel_engine` bench's job.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use wt_des::rng::Stream;
use wt_des::{EventQueue, ServerPool, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 100_000] {
        g.bench_function(format!("push_pop_{n}"), |b| {
            let mut rng = Stream::from_seed(1);
            let times: Vec<f64> = (0..n).map(|_| rng.uniform() * 1e6).collect();
            b.iter_batched(
                EventQueue::new,
                |mut q| {
                    for (i, &t) in times.iter().enumerate() {
                        q.push(SimTime::from_secs(t), i);
                    }
                    while let Some(ev) = q.pop() {
                        black_box(ev);
                    }
                },
                BatchSize::SmallInput,
            );
        });
        // Baseline ablation: a sorted Vec (what a naive implementation
        // would use) — O(n) inserts vs the heap's O(log n).
        g.bench_function(format!("sorted_vec_baseline_{n}"), |b| {
            let mut rng = Stream::from_seed(1);
            let times: Vec<f64> = (0..n.min(10_000)).map(|_| rng.uniform() * 1e6).collect();
            b.iter(|| {
                let mut v: Vec<(f64, usize)> = Vec::new();
                for (i, &t) in times.iter().enumerate() {
                    let pos = v.partition_point(|(x, _)| *x <= t);
                    v.insert(pos, (t, i));
                }
                black_box(v.len())
            });
        });
    }
    g.finish();
}

fn bench_server_pool(c: &mut Criterion) {
    c.bench_function("server_pool_cycle_10k", |b| {
        b.iter(|| {
            let mut p: ServerPool<u64> = ServerPool::new(4, SimTime::ZERO);
            let mut t = 0.0;
            for i in 0..10_000u64 {
                t += 0.001;
                if p.arrive(SimTime::from_secs(t), i).is_none() && i % 2 == 0 {
                    let _ = p.depart(SimTime::from_secs(t));
                }
            }
            black_box(p.queue_len())
        });
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("xoshiro_uniform_1m", |b| {
        let mut s = Stream::from_seed(7);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000_000 {
                acc += s.uniform();
            }
            black_box(acc)
        });
    });
    c.bench_function("sample_indices_5_of_30", |b| {
        let mut s = Stream::from_seed(7);
        b.iter(|| black_box(s.sample_indices(30, 5)));
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_queue, bench_server_pool, bench_rng
}
criterion_main!(benches);
