//! The run farm: a deterministic parallel executor for simulation runs.
//!
//! Every entry point that sweeps a set of runs — the figure binaries, the
//! experiment (`e*`) binaries, and the WTQL executor — funnels through
//! [`Farm`] instead of hand-rolling a thread pool. The farm guarantees a
//! property the bespoke pools could not: **results are bitwise-identical
//! regardless of worker count or scheduling**, because
//!
//! 1. every run's RNG seed is derived from the *item index* alone (a
//!    splitmix64 substream of the root seed, see [`substream_seed`]), not
//!    from which worker picks the item up, and
//! 2. per-run results are folded **in item order**: workers stream
//!    `(index, result)` pairs to the caller, which holds a small reorder
//!    buffer and applies the fold callback strictly at the next expected
//!    index — a streaming merge, with no `Vec<RunResult>` barrier and no
//!    lock around the aggregate.
//!
//! Work distribution is one ready-set scheduler: an idle worker claims
//! the next item from the set of items whose dependencies have all
//! completed — the lowest index, or the highest-ranked one when the
//! caller supplies a rank ([`Farm::run_recorded_scheduled`]). Plain
//! `run`/`run_fold`/`run_recorded` calls pass no dependencies and no
//! rank, so every item is ready at once and claims go in index order.
//! Scheduling decides only *when* an item runs; seeds and fold order
//! never depend on it.
//!
//! ```
//! use windtunnel::farm::Farm;
//!
//! let farm = Farm::new(4);
//! let squares = farm.run(42, &[1u64, 2, 3, 4, 5], |&x, _ctx| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};
use wt_store::{SharedStore, StoreShard};

/// A scheduling rank over item indices: among ready items the farm
/// claims the highest-ranked (ties, by `f64::total_cmp`, go to the
/// lowest index). Consulted at every claim, so a rank that changes as
/// results land steers the remaining work immediately.
pub type Rank<'a> = &'a (dyn Fn(usize) -> f64 + Sync);

/// Per-run context handed to the work closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCtx {
    /// This run's position in the item slice (also the fold order).
    pub index: usize,
    /// This run's RNG seed: a substream of the farm call's root seed,
    /// derived from `index` alone so scheduling cannot perturb it.
    pub seed: u64,
}

/// Derives the seed for run `index` from `root`: both words pass through
/// splitmix64 finalizers, so adjacent indices (and adjacent roots) land on
/// uncorrelated streams. Matches the engine convention of one independent
/// RNG substream per run.
pub fn substream_seed(root: u64, index: u64) -> u64 {
    mix64(root ^ mix64(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A parallel run executor with a fixed worker count.
#[derive(Debug, Clone)]
pub struct Farm {
    workers: usize,
    heartbeat: bool,
}

impl Default for Farm {
    /// A farm sized to the host (`from_env`).
    fn default() -> Self {
        Farm::from_env()
    }
}

/// Whether a `WT_PROGRESS` value (`None` when unset) asks for the
/// heartbeat: any value but `0` does.
fn progress_requested(value: Option<&str>) -> bool {
    value.is_some_and(|v| v != "0")
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Farm {
    /// A farm with `workers` threads (0 is clamped to 1).
    pub fn new(workers: usize) -> Self {
        Farm {
            workers: workers.max(1),
            heartbeat: false,
        }
    }

    /// A single-threaded farm (runs on the caller's thread).
    pub fn serial() -> Self {
        Farm::new(1)
    }

    /// A farm sized to the host's available parallelism, with the
    /// heartbeat `WT_PROGRESS` asks for (see
    /// [`with_env_heartbeat`](Self::with_env_heartbeat)).
    pub fn from_env() -> Self {
        Farm::new(host_parallelism()).with_env_heartbeat()
    }

    /// Turns the [heartbeat](Self::with_heartbeat) on when `WT_PROGRESS`
    /// is set to anything but `0`, and off otherwise — the one place the
    /// variable is read, whatever sized the farm.
    pub fn with_env_heartbeat(self) -> Self {
        let value = std::env::var("WT_PROGRESS").ok();
        self.with_heartbeat(progress_requested(value.as_deref()))
    }

    /// Enables (or disables) the stderr progress heartbeat: roughly one
    /// line per second from the fold thread — runs done/total, rate, ETA.
    /// Purely observational: workers never see it and result bytes are
    /// unaffected (see `heartbeat_does_not_change_results`).
    pub fn with_heartbeat(mut self, on: bool) -> Self {
        self.heartbeat = on;
        self
    }

    /// Number of worker threads this farm uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `work` over every item and collects the results in item order.
    ///
    /// `root_seed` seeds each run's [`RunCtx::seed`] substream. The output
    /// is bitwise-identical for any worker count.
    pub fn run<T, R, F>(&self, root_seed: u64, items: &[T], work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx) -> R + Sync,
    {
        let acc = Vec::with_capacity(items.len());
        self.run_fold(root_seed, items, work, acc, |mut v, _idx, r| {
            v.push(r);
            v
        })
    }

    /// Runs `work` over every item with a private [`StoreShard`] per run,
    /// merging each shard into `store` **in item order** as results
    /// stream in — the lock-free recording path.
    ///
    /// Workers never touch the shared store: every record a run emits is
    /// a plain `Vec` push into its own shard, and the fold thread merges
    /// shards (one `SharedStore` lock acquisition per run, uncontended)
    /// strictly at the next expected index. Record ids and snapshot
    /// order in `store` are therefore bitwise-identical for any worker
    /// count, exactly like the run results themselves.
    ///
    /// ```
    /// use windtunnel::farm::Farm;
    /// use wt_store::{RecordSink, RunRecord, SharedStore};
    ///
    /// let store = SharedStore::new();
    /// let items: Vec<u64> = (0..10).collect();
    /// let out = Farm::new(4).run_recorded(7, &items, &store, |&x, ctx, shard| {
    ///     shard.record(RunRecord::new("sweep", ctx.seed).metric("x", x as f64));
    ///     x * 2
    /// });
    /// assert_eq!(out.len(), 10);
    /// // Ids follow item order regardless of which worker ran what.
    /// let ids: Vec<u64> = store.snapshot().iter().map(|r| r.id).collect();
    /// assert_eq!(ids, (0..10).collect::<Vec<_>>());
    /// ```
    pub fn run_recorded<T, R, F>(
        &self,
        root_seed: u64,
        items: &[T],
        store: &SharedStore,
        work: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx, &StoreShard) -> R + Sync,
    {
        self.run_recorded_scheduled(root_seed, items, store, &[], None, work)
    }

    /// [`Farm::run_recorded`] with an execution order chosen at run time.
    ///
    /// `deps` is empty (no constraints) or holds one list per item:
    /// `deps[i]` names the items that must complete before item `i` may
    /// start, each **strictly smaller** than `i` (asserted). That keeps
    /// the dependency graph acyclic, so some ready item always exists
    /// while work remains. Among ready items the farm claims the lowest
    /// index, or with a [`Rank`] the highest-ranked one.
    ///
    /// Order is a performance lever, never a correctness one: seeds come
    /// from the item index and shards merge in index order, so results
    /// and store bytes are identical at any worker count and under any
    /// rank. A closure that reads earlier items' outcomes — dominance
    /// pruning — is what `deps` sequences.
    pub fn run_recorded_scheduled<T, R, F>(
        &self,
        root_seed: u64,
        items: &[T],
        store: &SharedStore,
        deps: &[Vec<usize>],
        rank: Option<Rank<'_>>,
        work: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx, &StoreShard) -> R + Sync,
    {
        let results = Vec::with_capacity(items.len());
        self.run_fold_with(
            root_seed,
            items,
            deps,
            rank,
            |item, ctx| {
                let shard = StoreShard::new();
                let result = work(item, ctx, &shard);
                (result, shard)
            },
            results,
            |mut v, _idx, (result, shard)| {
                store.merge_shard(shard);
                v.push(result);
                v
            },
            // Recorded runs carry telemetry, so the heartbeat (when on)
            // skims event counts and per-run wall time off each shard
            // before it merges — the progress line gains cumulative ev/s
            // and a p99 run time. Stderr only; result bytes unaffected.
            |(_, shard), beat| {
                shard.peek(|r| {
                    if let Some(t) = &r.telemetry {
                        beat.observe_run(t.events, t.wall.wall_us);
                    }
                });
            },
        )
    }

    /// Runs `work` over every item, folding each result into `init` **in
    /// item order** as results stream in (no barrier: the fold for item
    /// `i` runs as soon as items `0..=i` have all completed, while later
    /// items are still executing).
    ///
    /// The fold runs on the calling thread, so the accumulator needs no
    /// synchronization; combined with index-derived seeds this makes the
    /// final accumulator bitwise-identical for any worker count.
    pub fn run_fold<T, R, A, F, G>(
        &self,
        root_seed: u64,
        items: &[T],
        work: F,
        init: A,
        fold: G,
    ) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx) -> R + Sync,
        G: FnMut(A, usize, R) -> A,
    {
        self.run_fold_with(root_seed, items, &[], None, work, init, fold, |_, _| {})
    }

    /// The farm's one executor: [`Farm::run_fold`] under the ready-set
    /// scheduler (see [`Farm::run_recorded_scheduled`] for `deps` and
    /// `rank`), with a heartbeat observer: when the heartbeat is enabled,
    /// `observe` sees each result on the fold thread (in item order, just
    /// before `fold` consumes it) and can feed run telemetry into the
    /// [`wt_obs::Heartbeat`]. With the heartbeat off, `observe` is never
    /// called.
    #[allow(clippy::too_many_arguments)]
    fn run_fold_with<T, R, A, F, G, O>(
        &self,
        root_seed: u64,
        items: &[T],
        deps: &[Vec<usize>],
        rank: Option<Rank<'_>>,
        work: F,
        init: A,
        mut fold: G,
        mut observe: O,
    ) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx) -> R + Sync,
        G: FnMut(A, usize, R) -> A,
        O: FnMut(&R, &mut wt_obs::Heartbeat),
    {
        let n = items.len();
        let mut ready = Ready::new(n, deps);
        let ctx = |index: usize| RunCtx {
            index,
            seed: substream_seed(root_seed, index as u64),
        };
        // Heartbeat lives on the fold/caller thread only: workers cannot
        // see it, and it writes to stderr, so result bytes are unaffected.
        let mut beat = self.heartbeat.then(|| wt_obs::Heartbeat::start(n));
        let mut pulse = move |r: &R| {
            if let Some(b) = beat.as_mut() {
                observe(r, b);
                if let Some(line) = b.tick() {
                    eprintln!("{line}");
                }
            }
        };
        // Ordered streaming fold: result `i` is folded as soon as every
        // lower index has been, whatever order the items ran in.
        let mut acc = Some(init);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        let mut deliver = |i: usize, result: R| {
            pending.insert(i, result);
            while let Some(ready) = pending.remove(&next) {
                pulse(&ready);
                acc = acc.take().map(|a| fold(a, next, ready));
                next += 1;
            }
        };

        if self.workers == 1 || n <= 1 {
            while let Some(i) = ready.claim(rank) {
                let result = work(&items[i], ctx(i));
                ready.complete(i);
                deliver(i, result);
            }
        } else {
            let state = Mutex::new(ready);
            let wake = Condvar::new();
            let (tx, rx) = mpsc::channel::<(usize, R)>();
            std::thread::scope(|scope| {
                for _ in 0..self.workers.min(n) {
                    let tx = tx.clone();
                    let (state, wake, work) = (&state, &wake, &work);
                    scope.spawn(move || {
                        let _unwind = WakeOnUnwind(state, wake);
                        loop {
                            let i = {
                                let mut s = lock(state);
                                loop {
                                    if s.claimed == n {
                                        return;
                                    }
                                    if let Some(i) = s.claim(rank) {
                                        break i;
                                    }
                                    // Nothing ready: a running item is one
                                    // of the lowest unclaimed item's deps,
                                    // and its completion wakes us.
                                    s = wake.wait(s).unwrap_or_else(PoisonError::into_inner);
                                }
                            };
                            let result = work(&items[i], ctx(i));
                            if lock(state).complete(i) {
                                wake.notify_all();
                            }
                            if tx.send((i, result)).is_err() {
                                return; // receiver gone: caller is unwinding
                            }
                        }
                    });
                }
                drop(tx); // the receive loop ends when the last worker exits
                for (i, result) in rx {
                    deliver(i, result);
                }
            });
        }
        assert_eq!(next, n, "farm lost {} result(s)", n - next);
        acc.expect("accumulator present after the fold")
    }
}

/// Locks the scheduler state, recovering it from a worker that panicked
/// while holding it: `Ready`'s updates cannot stop halfway (a rank is
/// scored before anything changes), so the state is valid either way.
fn lock(state: &Mutex<Ready>) -> MutexGuard<'_, Ready> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The ready-set scheduler's state; under a mutex when workers share it.
struct Ready {
    /// Unclaimed items whose dependencies have all completed.
    set: BTreeSet<usize>,
    /// Uncompleted dependencies per item (empty without deps).
    remaining: Vec<usize>,
    /// The items each item gates (empty without deps).
    dependents: Vec<Vec<usize>>,
    /// Items claimed so far; idle workers exit once it reaches the count.
    claimed: usize,
    n: usize,
}

impl Ready {
    fn new(n: usize, deps: &[Vec<usize>]) -> Ready {
        assert!(
            deps.is_empty() || deps.len() == n,
            "one dependency list per item"
        );
        let mut dependents = vec![Vec::new(); deps.len()];
        let remaining: Vec<usize> = deps.iter().map(Vec::len).collect();
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(d < i, "dep {d} of item {i} is not strictly earlier");
                dependents[d].push(i);
            }
        }
        let set = (0..n)
            .filter(|&i| remaining.get(i).is_none_or(|&r| r == 0))
            .collect();
        Ready {
            set,
            remaining,
            dependents,
            claimed: 0,
            n,
        }
    }

    /// Takes the lowest ready index, or the highest-ranked one (ties to
    /// the lowest index: the set iterates in ascending order and only a
    /// strictly greater score displaces the incumbent).
    fn claim(&mut self, rank: Option<Rank<'_>>) -> Option<usize> {
        let i = match rank {
            None => *self.set.first()?,
            Some(rank) => {
                let mut best: Option<(usize, f64)> = None;
                for &i in &self.set {
                    let score = rank(i);
                    if best.is_none_or(|(_, b)| score.total_cmp(&b).is_gt()) {
                        best = Some((i, score));
                    }
                }
                best?.0
            }
        };
        self.set.remove(&i);
        self.claimed += 1;
        Some(i)
    }

    /// Marks item `i` done and readies the dependents it was the last
    /// dependency of. True when idle workers should wake: something
    /// became ready, or every item is claimed and they can exit.
    fn complete(&mut self, i: usize) -> bool {
        let mut readied = false;
        for &j in self.dependents.get(i).into_iter().flatten() {
            self.remaining[j] -= 1;
            if self.remaining[j] == 0 {
                readied |= self.set.insert(j);
            }
        }
        readied || self.claimed == self.n
    }
}

/// Held by each worker: if its item panics, every remaining item counts
/// as claimed and idle workers wake and exit, so the panic surfaces from
/// the call instead of stranding workers that wait on the failed item.
struct WakeOnUnwind<'a>(&'a Mutex<Ready>, &'a Condvar);

impl Drop for WakeOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut s = lock(self.0);
            s.claimed = s.n;
            self.1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn progress_values_other_than_zero_request_the_heartbeat() {
        assert!(!progress_requested(None));
        assert!(!progress_requested(Some("0")));
        assert!(progress_requested(Some("1")));
        assert!(progress_requested(Some("")));
    }

    #[test]
    fn collects_in_item_order() {
        let items: Vec<u64> = (0..500).collect();
        let farm = Farm::new(8);
        let out = farm.run(7, &items, |&x, _| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_for_any_worker_count() {
        let items: Vec<u64> = (0..200).collect();
        let gold = Farm::new(1).run(99, &items, |&x, ctx| {
            (ctx.index, ctx.seed, x.wrapping_mul(ctx.seed))
        });
        for workers in [2, 3, 8] {
            let got = Farm::new(workers).run(99, &items, |&x, ctx| {
                (ctx.index, ctx.seed, x.wrapping_mul(ctx.seed))
            });
            assert_eq!(got, gold, "worker count {workers} diverged");
        }
    }

    #[test]
    fn fold_sees_indices_in_order_without_barrier() {
        let items: Vec<u64> = (0..300).collect();
        let farm = Farm::new(4);
        let seen = farm.run_fold(
            0,
            &items,
            |&x, _| x,
            Vec::new(),
            |mut seen: Vec<usize>, idx, _| {
                seen.push(idx);
                seen
            },
        );
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_index_derived_and_distinct() {
        let a = substream_seed(1, 0);
        let b = substream_seed(1, 1);
        let c = substream_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls.
        assert_eq!(a, substream_seed(1, 0));
    }

    #[test]
    fn all_items_executed_exactly_once() {
        let hits = AtomicU64::new(0);
        let items: Vec<u64> = (0..1000).collect();
        Farm::new(6).run(3, &items, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn recorded_run_ids_are_worker_independent() {
        use wt_store::{RecordSink, RunRecord, SharedStore};
        let items: Vec<u64> = (0..100).collect();
        let gold_store = SharedStore::new();
        let gold = Farm::new(1).run_recorded(5, &items, &gold_store, |&x, ctx, shard| {
            // Variable record count per run: exercises merge alignment.
            for rep in 0..=(x % 3) {
                shard.record(
                    RunRecord::new("farm-test", ctx.seed)
                        .param("x", x as f64)
                        .metric("rep", rep as f64),
                );
            }
            x
        });
        let gold_snap = gold_store.snapshot();
        for workers in [4, 8] {
            let store = SharedStore::new();
            let out = Farm::new(workers).run_recorded(5, &items, &store, |&x, ctx, shard| {
                for rep in 0..=(x % 3) {
                    shard.record(
                        RunRecord::new("farm-test", ctx.seed)
                            .param("x", x as f64)
                            .metric("rep", rep as f64),
                    );
                }
                x
            });
            assert_eq!(out, gold, "results diverged at {workers} workers");
            assert_eq!(
                store.snapshot(),
                gold_snap,
                "record ids/order diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn empty_and_single_item() {
        let farm = Farm::new(4);
        let empty: Vec<u64> = Vec::new();
        assert!(farm.run(0, &empty, |&x, _| x).is_empty());
        assert_eq!(farm.run(0, &[5u64], |&x, _| x + 1), vec![6]);
        // Scheduling options on an empty item list are fine too.
        let store = SharedStore::new();
        let out: Vec<u64> =
            farm.run_recorded_scheduled(0, &empty, &store, &[], Some(&|_| 0.0), |&x, _, _| x);
        assert!(out.is_empty());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn heartbeat_does_not_change_results() {
        let items: Vec<u64> = (0..200).collect();
        let quiet = Farm::new(4).run(17, &items, |&x, ctx| x.wrapping_mul(ctx.seed));
        let chatty = Farm::new(4)
            .with_heartbeat(true)
            .run(17, &items, |&x, ctx| x.wrapping_mul(ctx.seed));
        assert_eq!(chatty, quiet);
        // And on the serial path too.
        let serial = Farm::serial()
            .with_heartbeat(true)
            .run(17, &items, |&x, ctx| x.wrapping_mul(ctx.seed));
        assert_eq!(serial, quiet);
    }

    #[test]
    fn recorded_heartbeat_skims_telemetry_without_changing_results() {
        use wt_obs::RunTelemetry;
        use wt_store::{RecordSink, RunRecord, SharedStore};
        let items: Vec<u64> = (0..50).collect();
        let work = |&x: &u64, ctx: RunCtx, shard: &StoreShard| {
            let mut t = RunTelemetry {
                events: 100 + x,
                ..Default::default()
            };
            t.wall.wall_us = 1_000;
            shard.record(
                RunRecord::new("hb-test", ctx.seed)
                    .metric("x", x as f64)
                    .telemetry(t),
            );
            x
        };
        let quiet_store = SharedStore::new();
        let quiet = Farm::new(4).run_recorded(11, &items, &quiet_store, work);
        for workers in [1, 4] {
            let store = SharedStore::new();
            let out = Farm::new(workers)
                .with_heartbeat(true)
                .run_recorded(11, &items, &store, work);
            assert_eq!(out, quiet, "heartbeat changed results at {workers} workers");
            assert_eq!(
                store.snapshot(),
                quiet_store.snapshot(),
                "heartbeat changed records at {workers} workers"
            );
        }
    }

    #[test]
    #[should_panic]
    fn panicking_item_fails_the_call_instead_of_stranding_its_dependents() {
        // Every item waits on item 0, which panics: idle workers must
        // exit rather than wait for a completion that never comes.
        let items: Vec<u64> = (0..8).collect();
        let deps: Vec<Vec<usize>> = (0..8)
            .map(|i| if i == 0 { vec![] } else { vec![0] })
            .collect();
        Farm::new(4).run_recorded_scheduled(
            0,
            &items,
            &SharedStore::new(),
            &deps,
            None,
            |&x, _, _| {
                assert!(x != 0, "item 0 fails");
            },
        );
    }
}
