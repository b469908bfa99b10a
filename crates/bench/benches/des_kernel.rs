//! DES kernel micro-benchmarks: event queue throughput (the DESIGN.md §8
//! heap-vs-baseline ablation), engine-in-the-loop workloads, resource-pool
//! cycling, and RNG streams.
//!
//! The engine group here is the Criterion-tracked twin of the
//! `kernel_engine` bench (which emits `BENCH_kernel.json`): same two
//! workload shapes — failure/repair churn with a large pending set, and
//! an M/M/c station with a tiny one — at budgets small enough for
//! Criterion's repeated sampling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use wt_des::obs::NoProbe;
use wt_des::prelude::*;
use wt_des::rng::{RngFactory, Stream};
use wt_des::{EventQueue, ServerPool, SimTime};
use wt_dist::Dist;

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

// --- engine-in-the-loop: Simulation driving the event queue -------------

enum ChurnEv {
    Fail(u32),
    Repair(u32),
}

struct Churn {
    rng: Stream,
    mean_up: Dist,
    mean_down: Dist,
    failures: u64,
}

impl Model for Churn {
    type Event = ChurnEv;
    fn handle(&mut self, ev: ChurnEv, ctx: &mut Ctx<'_, ChurnEv>) {
        match ev {
            ChurnEv::Fail(c) => {
                self.failures += 1;
                let down = SimDuration::from_secs(self.mean_down.sample(&mut self.rng));
                ctx.schedule_in(down, ChurnEv::Repair(c));
            }
            ChurnEv::Repair(c) => {
                let up = SimDuration::from_secs(self.mean_up.sample(&mut self.rng));
                ctx.schedule_in(up, ChurnEv::Fail(c));
            }
        }
    }
    fn label(ev: &ChurnEv) -> &'static str {
        match ev {
            ChurnEv::Fail(_) => "Fail",
            ChurnEv::Repair(_) => "Repair",
        }
    }
}

/// Churn with `components` always-pending timers for `events` events.
fn run_churn(components: usize, events: u64) -> u64 {
    let factory = RngFactory::new(1);
    let model = Churn {
        rng: factory.stream("churn"),
        mean_up: Dist::exponential_mean(1.0),
        mean_down: Dist::exponential_mean(0.05),
        failures: 0,
    };
    let mut sim = Simulation::new(model);
    sim.reserve_events(components);
    let mut seed_rng = factory.stream("phases");
    for c in 0..components {
        let phase = SimDuration::from_secs(seed_rng.uniform());
        sim.schedule_in(phase, ChurnEv::Fail(c as u32));
    }
    sim.set_event_budget(events);
    sim.run_until(SimTime::MAX, &mut NoProbe);
    sim.model().failures
}

enum MmcEv {
    Arrival,
    Departure,
}

struct Mmc {
    interarrival: Dist,
    service: Dist,
    pool: ServerPool<()>,
    rng: Stream,
}

impl Model for Mmc {
    type Event = MmcEv;
    fn handle(&mut self, ev: MmcEv, ctx: &mut Ctx<'_, MmcEv>) {
        let now = ctx.now();
        match ev {
            MmcEv::Arrival => {
                let gap = SimDuration::from_secs(self.interarrival.sample(&mut self.rng));
                ctx.schedule_in(gap, MmcEv::Arrival);
                if self.pool.arrive(now, ()).is_some() {
                    let s = SimDuration::from_secs(self.service.sample(&mut self.rng));
                    ctx.schedule_in(s, MmcEv::Departure);
                }
            }
            MmcEv::Departure => {
                if self.pool.depart(now).is_some() {
                    let s = SimDuration::from_secs(self.service.sample(&mut self.rng));
                    ctx.schedule_in(s, MmcEv::Departure);
                }
            }
        }
    }
    fn label(ev: &MmcEv) -> &'static str {
        match ev {
            MmcEv::Arrival => "Arrival",
            MmcEv::Departure => "Departure",
        }
    }
}

/// M/M/4 at rho = 0.9 for `events` events; tiny pending set.
fn run_mmc(events: u64) -> u64 {
    let factory = RngFactory::new(1);
    let model = Mmc {
        interarrival: Dist::exponential_mean(1.0),
        service: Dist::exponential_mean(3.6),
        pool: ServerPool::new(4, SimTime::ZERO),
        rng: factory.stream("mmc"),
    };
    let mut sim = Simulation::new(model);
    sim.schedule_at(SimTime::ZERO, MmcEv::Arrival);
    sim.set_event_budget(events);
    sim.run_until(SimTime::MAX, &mut NoProbe);
    sim.model().pool.completions()
}

fn bench_engine(c: &mut Criterion) {
    const COMPONENTS: usize = 2_048;
    const EVENTS: u64 = 200_000;
    let mut g = c.benchmark_group("engine");
    g.bench_function("churn_heap", |b| {
        b.iter(|| black_box(run_churn(COMPONENTS, EVENTS)));
    });
    g.bench_function("mmc_heap", |b| {
        b.iter(|| black_box(run_mmc(EVENTS)));
    });
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
            black_box(p.completions())
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
    targets = bench_event_queue, bench_engine, bench_server_pool, bench_rng
}
criterion_main!(benches);
