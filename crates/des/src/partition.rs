//! Conservative partitioned (parallel) discrete-event execution.
//!
//! One simulation run split across `P` partitions, each a [`Simulation`]
//! of its own model shard with its own future-event list, synchronized
//! with the classic conservative-window algorithm: every round, all
//! partitions agree on the global minimum pending timestamp `T`, run the
//! one event loop over every local event with `time < T + lookahead`,
//! then exchange cross-partition messages ([`Ctx::send`](crate::Ctx::send))
//! at a barrier. The [`Lookahead`] contract — every cross-partition send
//! is delayed by at least the lookahead — guarantees a message produced
//! inside a window arrives at or after the window's end, so no partition
//! can receive an event in its past.
//!
//! # Determinism
//!
//! The executor is deterministic along two independent axes:
//!
//! * **Thread count.** The window sequence is derived from a global
//!   reduction (min over partitions), each partition executes its window
//!   alone, and deliveries are sorted canonically before insertion — so
//!   [`PartitionedSimulation::run_until`] at one thread (the serial
//!   oracle) and at `n` threads produce bitwise-identical state, event
//!   counts and telemetry for any `n`. This is pinned by tests here and
//!   by `tests/partitioned_equivalence.rs` at the cluster level.
//! * **Partition count** (a *model* property the executor enables). If a
//!   model keys all state and randomness to shards that never migrate
//!   (e.g. racks), routes *all* cross-shard interaction through
//!   [`Ctx::send`](crate::Ctx::send) (even when both shards share a
//!   partition), and tags each message with its sender shard, then the
//!   executed event sequence restricted to any one shard is independent
//!   of how shards are grouped into partitions. Deliveries are stable-sorted by
//!   `(time, tag)`; ties within one `(time, tag)` pair can only come from
//!   one shard and stay in that shard's send order.
//!
//! The window advance is `min-timestamp + lookahead` (a bounded-lag /
//! YAWNS-style synchronous protocol) rather than fixed-width stepping, so
//! idle stretches are skipped in one round and the round count is bounded
//! by the executed event count, not `horizon / lookahead`.
//!
//! Every run is probed: one `wt_obs::Probe` per partition watches that
//! partition's events, and a run that wants no telemetry passes
//! `wt_obs::NoProbe`s.

use crate::engine::{Model, Simulation, StopReason};
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use wt_obs::{Probe, RunTelemetry, SimProbe};

/// The conservative synchronization bound: a lower bound on the delay of
/// every cross-partition interaction, in simulated time. Larger lookahead
/// means wider windows and fewer barriers; correctness only needs the
/// bound to hold, which [`Ctx::send`](crate::Ctx::send) asserts per
/// message.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Lookahead(SimDuration);

impl Lookahead {
    /// A lookahead of `d`, which must be positive: with zero lookahead no
    /// window can safely execute any event and conservative parallel
    /// execution degenerates.
    pub fn new(d: SimDuration) -> Self {
        assert!(
            d > SimDuration::ZERO,
            "lookahead must be positive, got {:?}",
            d
        );
        Lookahead(d)
    }

    /// A lookahead of `secs` seconds.
    pub fn from_secs(secs: f64) -> Self {
        Lookahead::new(SimDuration::from_secs(secs))
    }

    /// The bound as a duration.
    pub fn window(self) -> SimDuration {
        self.0
    }
}

/// A cross-partition message in flight: deliver `ev` to the destination
/// partition's queue at `time`. `tag` is the sender's shard identity and
/// the canonical tie-breaker for simultaneous deliveries — models must
/// ensure a tag is only ever used by one partition (shards do not
/// migrate), which makes delivery order independent of both thread and
/// partition count.
pub(crate) struct Mail<E> {
    pub(crate) time: SimTime,
    pub(crate) tag: u64,
    pub(crate) ev: E,
}

/// A [`Simulation`]'s side of the mailbox protocol: the partition count
/// and lookahead that [`Ctx::send`](crate::Ctx::send) checks each
/// message against, and the messages sent this window with their
/// destination partitions. A bare `Simulation` has zero partitions to
/// send to.
pub(crate) struct Mailbox<E> {
    pub(crate) parts: usize,
    pub(crate) lookahead: SimDuration,
    pub(crate) outbox: Vec<(usize, Mail<E>)>,
}

impl<E> Mailbox<E> {
    pub(crate) fn new(parts: usize, lookahead: SimDuration) -> Self {
        Mailbox {
            parts,
            lookahead,
            outbox: Vec::new(),
        }
    }
}

/// Sorts staged deliveries canonically and inserts them into `cell`'s
/// queue: stable by `(time, tag)`, so ties across shards order by tag and
/// ties within a shard keep the shard's send order.
fn deliver<M: Model>(cell: &mut Simulation<M>, mut inbox: Vec<Mail<M::Event>>, w_end: SimTime) {
    if inbox.is_empty() {
        return;
    }
    inbox.sort_by(|a, b| {
        (a.time, a.tag)
            .partial_cmp(&(b.time, b.tag))
            .expect("finite")
    });
    for m in inbox {
        debug_assert!(
            m.time >= w_end,
            "lookahead violated: delivery at {:?} inside window ending {:?}",
            m.time,
            w_end
        );
        cell.queue.push(m.time, m.ev);
    }
}

/// A partitioned simulation run: one [`Simulation`] per partition, one
/// lookahead.
///
/// [`run_until`](Self::run_until) at one thread executes all partitions
/// on the calling thread — the bitwise-determinism oracle — and at more
/// fans the partitions across worker threads with barrier
/// synchronization; both produce identical results (see module docs).
pub struct PartitionedSimulation<M: Model> {
    cells: Vec<Simulation<M>>,
    lookahead: SimDuration,
    now: SimTime,
}

impl<M> PartitionedSimulation<M>
where
    M: Model + Send,
    M::Event: Send,
{
    /// A partitioned simulation over `models`, one per partition.
    pub fn new(models: Vec<M>, lookahead: Lookahead) -> Self {
        assert!(!models.is_empty(), "need at least one partition");
        let parts = models.len();
        let cells = models
            .into_iter()
            .map(|model| {
                let mut cell = Simulation::new(model);
                cell.mailbox = Mailbox::new(parts, lookahead.window());
                cell
            })
            .collect();
        PartitionedSimulation {
            cells,
            lookahead: lookahead.window(),
            now: SimTime::ZERO,
        }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.cells.len()
    }

    /// The committed global clock (after a run: the horizon, or the last
    /// executed event's time when the queues drained first).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events executed across all partitions.
    pub fn events_executed(&self) -> u64 {
        self.cells.iter().map(|c| c.events_executed()).sum()
    }

    /// Events executed per partition, in partition order.
    pub fn part_events(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.events_executed()).collect()
    }

    /// Iterates the partition models in partition order (result folds).
    pub fn models(&self) -> impl Iterator<Item = &M> {
        self.cells.iter().map(|c| c.model())
    }

    /// Declares the run's horizon on every partition, as
    /// [`Simulation::declare_horizon`] does for one run: call it before
    /// the first event is scheduled, and run no further than it.
    pub fn declare_horizon(&mut self, horizon: SimTime) {
        for cell in &mut self.cells {
            cell.declare_horizon(horizon);
        }
    }

    /// Schedules an event into partition `part` at absolute time `at`
    /// (setup seeding; see `Simulation::schedule_at`).
    pub fn schedule_at(&mut self, part: usize, at: SimTime, ev: M::Event) {
        self.cells[part].schedule_at(at, ev);
    }

    /// Runs until `horizon`, the queues drain or a model stops, with
    /// `probes[i]` observing partition `i`'s event stream (marks, values,
    /// touches included); pass `wt_obs::NoProbe`s for no telemetry. With
    /// `threads <= 1` this is the serial oracle; otherwise partitions fan
    /// out across threads. The per-partition probe assignment is
    /// identical either way, so telemetry distilled from the probes is
    /// too.
    pub fn run_until<P: Probe + Send>(
        &mut self,
        horizon: SimTime,
        threads: usize,
        probes: &mut [P],
    ) -> StopReason {
        assert_eq!(
            probes.len(),
            self.cells.len(),
            "one probe per partition required"
        );
        for cell in &self.cells {
            cell.check_horizon(horizon);
        }
        if threads <= 1 || self.cells.len() <= 1 {
            self.run_serial(horizon, probes)
        } else {
            self.run_threaded(horizon, threads, probes)
        }
    }

    /// Runs until `horizon` under one [`SimProbe`] per partition and folds
    /// them, in partition order, into one telemetry record: `partition/<i>`
    /// marks carry each partition's event total (the skew readout), and
    /// the record is stamped with the event list it ran on. Wall-clock
    /// fields are the caller's to fill in.
    pub fn run_observed(&mut self, horizon: SimTime, threads: usize) -> RunTelemetry {
        let mut probes: Vec<SimProbe> = (0..self.parts()).map(|_| SimProbe::new()).collect();
        let reason = self.run_until(horizon, threads, &mut probes);
        let end_s = self.now.as_secs();
        let mut telemetry = RunTelemetry::default();
        for probe in &probes {
            telemetry.absorb_partition(&probe.finish(end_s, reason.as_str()));
        }
        for (i, events) in self.part_events().into_iter().enumerate() {
            telemetry.marks.insert(format!("partition/{i}"), events);
        }
        telemetry.queue = Some("heap".to_string());
        telemetry
    }

    /// The next global window: the minimum pending timestamp across all
    /// partitions, or `None` when every queue is empty.
    fn t_min(&self) -> Option<SimTime> {
        self.cells.iter().filter_map(|c| c.queue.peek_time()).min()
    }

    fn finish_run(&mut self, reason: StopReason, horizon: SimTime) -> StopReason {
        self.now = match reason {
            StopReason::HorizonReached => horizon,
            _ => self
                .cells
                .iter()
                .map(|c| c.now())
                .max()
                .unwrap_or(SimTime::ZERO),
        };
        reason
    }

    fn run_serial<P: Probe + Send>(&mut self, horizon: SimTime, probes: &mut [P]) -> StopReason {
        let parts = self.cells.len();
        loop {
            let Some(t_min) = self.t_min() else {
                return self.finish_run(StopReason::QueueEmpty, horizon);
            };
            if t_min > horizon {
                return self.finish_run(StopReason::HorizonReached, horizon);
            }
            let w_end = t_min + self.lookahead;
            let mut stop = false;
            for (cell, probe) in self.cells.iter_mut().zip(probes.iter_mut()) {
                stop |= cell.run_window(horizon, Some(w_end), probe) == StopReason::StoppedByModel;
            }
            // Barrier: route every outbox into its destination, exactly
            // like the threaded exchange (self-deliveries included).
            let mut inboxes: Vec<Vec<Mail<M::Event>>> = (0..parts).map(|_| Vec::new()).collect();
            for cell in &mut self.cells {
                for (to, m) in cell.mailbox.outbox.drain(..) {
                    inboxes[to].push(m);
                }
            }
            for (cell, inbox) in self.cells.iter_mut().zip(inboxes) {
                deliver(cell, inbox, w_end);
            }
            if stop {
                return self.finish_run(StopReason::StoppedByModel, horizon);
            }
        }
    }

    fn run_threaded<P: Probe + Send>(
        &mut self,
        horizon: SimTime,
        threads: usize,
        probes: &mut [P],
    ) -> StopReason {
        let parts = self.cells.len();
        let lookahead = self.lookahead;
        // Contiguous partition chunks, one per worker. chunks_mut may
        // yield fewer chunks than requested threads; everything below is
        // sized to the actual worker count.
        let chunk = parts.div_ceil(threads.min(parts).max(2));
        let workers = parts.div_ceil(chunk);
        // Per-destination exchange cells. Senders append under the lock in
        // the execute phase; the owner drains after the barrier. Arrival
        // order under the mutex is nondeterministic, but `deliver` sorts by
        // `(time, tag)` and ties within one pair are single-sender (pushed
        // as one contiguous batch), so insertion order is deterministic.
        let grid: Vec<Mutex<Vec<Mail<M::Event>>>> =
            (0..parts).map(|_| Mutex::new(Vec::new())).collect();
        // Per-worker window minima as f64 bit patterns (non-negative
        // floats order like their bit patterns; empty = u64::MAX).
        let mins: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect();
        let stop_flag = AtomicBool::new(false);
        let barrier = Barrier::new(workers);

        let worker = |k: usize, cells: &mut [Simulation<M>], probes: &mut [P]| {
            let base = k * chunk;
            loop {
                // Phase 0: publish this worker's window minimum; after the
                // barrier every worker performs the same reduction, so all
                // agree on the window (and on termination) leaderlessly.
                let local = cells
                    .iter()
                    .filter_map(|c| c.queue.peek_time())
                    .min()
                    .map(|t| t.as_secs().to_bits())
                    .unwrap_or(u64::MAX);
                mins[k].store(local, Ordering::Relaxed);
                barrier.wait();
                let global = mins
                    .iter()
                    .map(|m| m.load(Ordering::Relaxed))
                    .min()
                    .expect("at least one worker");
                if global == u64::MAX {
                    return StopReason::QueueEmpty;
                }
                let t_min = SimTime::from_secs(f64::from_bits(global));
                if t_min > horizon {
                    return StopReason::HorizonReached;
                }
                let w_end = t_min + lookahead;
                // Phase 1: execute own partitions, stage sends into the
                // grid grouped by destination (one contiguous batch per
                // lock acquisition keeps single-sender runs contiguous).
                for (cell, probe) in cells.iter_mut().zip(probes.iter_mut()) {
                    if cell.run_window(horizon, Some(w_end), probe) == StopReason::StoppedByModel {
                        stop_flag.store(true, Ordering::Relaxed);
                    }
                    let outbox = &mut cell.mailbox.outbox;
                    if !outbox.is_empty() {
                        outbox.sort_by_key(|(to, _)| *to); // stable: send order kept per dest
                        let mut iter = outbox.drain(..).peekable();
                        while let Some(to) = iter.peek().map(|(t, _)| *t) {
                            let mut dest = grid[to].lock().expect("grid lock");
                            while iter.peek().is_some_and(|(t, _)| *t == to) {
                                dest.push(iter.next().expect("peeked").1);
                            }
                        }
                    }
                }
                barrier.wait();
                // Phase 2: deliver own partitions' inboxes. No barrier
                // before the next round's phase-0 wait is needed: round
                // r+1 sends cannot land until every worker passes that
                // wait, which requires all round-r deliveries done.
                for (j, cell) in cells.iter_mut().enumerate() {
                    let inbox = std::mem::take(&mut *grid[base + j].lock().expect("grid lock"));
                    deliver(cell, inbox, w_end);
                }
                if stop_flag.load(Ordering::Relaxed) {
                    return StopReason::StoppedByModel;
                }
            }
        };

        let mut cell_chunks: Vec<&mut [Simulation<M>]> = self.cells.chunks_mut(chunk).collect();
        let mut probe_chunks: Vec<&mut [P]> = probes.chunks_mut(chunk).collect();
        debug_assert_eq!(cell_chunks.len(), workers);
        let reason = std::thread::scope(|scope| {
            // Workers 1.. spawn; worker 0 runs on the caller thread.
            let handles: Vec<_> = cell_chunks
                .drain(1..)
                .zip(probe_chunks.drain(1..))
                .enumerate()
                .map(|(k, (cells, probes))| {
                    let worker = &worker;
                    scope.spawn(move || worker(k + 1, cells, probes))
                })
                .collect();
            let r0 = worker(0, cell_chunks.remove(0), probe_chunks.remove(0));
            for h in handles {
                let rk = h.join().expect("partition worker panicked");
                debug_assert_eq!(rk.as_str(), r0.as_str(), "workers disagreed on stop");
            }
            r0
        });
        self.finish_run(reason, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;
    use crate::rng::RngFactory;
    use wt_obs::{NoProbe, SimProbe};

    /// Runs `sim` with no telemetry on `threads` threads.
    fn run<M>(sim: &mut PartitionedSimulation<M>, horizon: SimTime, threads: usize) -> StopReason
    where
        M: Model + Send,
        M::Event: Send,
    {
        sim.run_until(horizon, threads, &mut vec![NoProbe; sim.parts()])
    }

    /// A shard-decomposed ping model: each partition owns a set of shard
    /// ids; every shard keeps a local timer chain and occasionally mails
    /// a token to a peer shard (possibly co-located) with delay >=
    /// lookahead. All state and randomness is per-shard, so results must
    /// be invariant to thread count AND to how shards map to partitions.
    #[derive(Debug, Clone)]
    struct Shard {
        id: u64,
        total_shards: u64,
        ticks: u64,
        tokens: u64,
        acc: u64,
        rng: crate::rng::Stream,
    }

    #[derive(Debug, Clone)]
    enum Ev {
        Tick { shard: u64 },
        Token { shard: u64, payload: u64 },
    }

    struct PingModel {
        shards: Vec<Shard>,
        /// Global shard -> partition map (shared, immutable).
        owner: std::sync::Arc<Vec<usize>>,
    }

    const LA: f64 = 5.0;

    impl PingModel {
        fn shard_mut(&mut self, id: u64) -> &mut Shard {
            self.shards
                .iter_mut()
                .find(|s| s.id == id)
                .expect("event routed to owning partition")
        }
    }

    impl Model for PingModel {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Tick { shard } => {
                    let owner = self.owner.clone();
                    let s = self.shard_mut(shard);
                    s.ticks += 1;
                    let gap = 0.5 + s.rng.uniform() * 3.0;
                    let ticks = s.ticks;
                    let id = s.id;
                    let n = s.total_shards;
                    let payload = s.rng.next();
                    ctx.schedule_in(SimDuration::from_secs(gap), Ev::Tick { shard });
                    if ticks.is_multiple_of(3) && n > 1 {
                        // Mail a peer shard; route via its owning partition.
                        let peer = (id + 1 + payload % (n - 1)) % n;
                        let delay = LA + (payload % 7) as f64;
                        ctx.send(
                            owner[peer as usize],
                            SimDuration::from_secs(delay),
                            id,
                            Ev::Token {
                                shard: peer,
                                payload,
                            },
                        );
                        ctx.mark("token_sent");
                    }
                }
                Ev::Token { shard, payload } => {
                    let s = self.shard_mut(shard);
                    s.tokens += 1;
                    s.acc = s.acc.wrapping_mul(0x9E37_79B9).wrapping_add(payload);
                    ctx.observe("token_payload", (payload % 1000) as f64);
                }
            }
        }
        fn label(ev: &Ev) -> &'static str {
            match ev {
                Ev::Tick { .. } => "Tick",
                Ev::Token { .. } => "Token",
            }
        }
    }

    /// Builds a run with `total_shards` shards grouped into `parts`
    /// contiguous partitions; returns the sim ready to run.
    fn build(total_shards: u64, parts: usize, seed: u64) -> PartitionedSimulation<PingModel> {
        let owner: std::sync::Arc<Vec<usize>> = std::sync::Arc::new(
            (0..total_shards)
                .map(|s| (s as usize * parts) / total_shards as usize)
                .collect(),
        );
        let factory = RngFactory::new(seed);
        let models = (0..parts)
            .map(|p| PingModel {
                shards: (0..total_shards)
                    .filter(|s| owner[*s as usize] == p)
                    .map(|id| Shard {
                        id,
                        total_shards,
                        ticks: 0,
                        tokens: 0,
                        acc: 0,
                        // Shard-keyed (not partition-keyed) randomness:
                        // the partition-count-invariance requirement.
                        rng: factory.numbered("shard", id),
                    })
                    .collect(),
                owner: owner.clone(),
            })
            .collect();
        let mut sim = PartitionedSimulation::new(models, Lookahead::from_secs(LA));
        for s in 0..total_shards {
            let phase = 0.25 * (s as f64 + 1.0);
            sim.schedule_at(
                owner[s as usize],
                SimTime::ZERO + SimDuration::from_secs(phase),
                Ev::Tick { shard: s },
            );
        }
        sim
    }

    /// Global fingerprint in shard order: invariant to partitioning.
    fn fingerprint(sim: &PartitionedSimulation<PingModel>) -> Vec<(u64, u64, u64, u64)> {
        let mut shards: Vec<_> = sim
            .models()
            .flat_map(|m| m.shards.iter())
            .map(|s| (s.id, s.ticks, s.tokens, s.acc))
            .collect();
        shards.sort();
        shards
    }

    #[test]
    fn serial_and_threaded_agree_bitwise() {
        let horizon = SimTime::from_secs(400.0);
        let mut gold = build(8, 4, 42);
        let reason = run(&mut gold, horizon, 1);
        assert_eq!(reason.as_str(), "HorizonReached");
        assert!(gold.events_executed() > 500, "{}", gold.events_executed());
        for threads in [2, 3, 4, 8] {
            let mut sim = build(8, 4, 42);
            let r = run(&mut sim, horizon, threads);
            assert_eq!(r.as_str(), reason.as_str());
            assert_eq!(sim.events_executed(), gold.events_executed());
            assert_eq!(sim.part_events(), gold.part_events());
            assert_eq!(fingerprint(&sim), fingerprint(&gold));
            assert_eq!(sim.now(), gold.now());
        }
    }

    #[test]
    fn partition_count_is_semantically_invisible_for_shard_keyed_models() {
        let horizon = SimTime::from_secs(300.0);
        let mut gold = build(12, 1, 7);
        run(&mut gold, horizon, 1);
        let gold_fp = fingerprint(&gold);
        let gold_events = gold.events_executed();
        for parts in [2, 3, 4, 6, 12] {
            let mut sim = build(12, parts, 7);
            run(&mut sim, horizon, 4);
            assert_eq!(fingerprint(&sim), gold_fp, "diverged at {parts} partitions");
            assert_eq!(sim.events_executed(), gold_events);
        }
    }

    #[test]
    fn probed_runs_agree_and_observe_everything() {
        let horizon = SimTime::from_secs(200.0);
        let run = |threads: usize| {
            let mut sim = build(6, 3, 9);
            let mut probes: Vec<SimProbe> = (0..3).map(|_| SimProbe::new()).collect();
            let reason = sim.run_until(horizon, threads, &mut probes);
            let events = sim.events_executed();
            // Masked: with the `wall-time` feature, handler timings vary.
            let telem: Vec<_> = probes
                .iter()
                .map(|p| p.finish(sim.now().as_secs(), reason.as_str()).masked())
                .collect();
            (events, telem)
        };
        let (gold_events, gold_telem) = run(1);
        let probe_total: u64 = gold_telem.iter().map(|t| t.events).sum();
        assert_eq!(probe_total, gold_events, "probes see every event");
        assert!(
            gold_telem
                .iter()
                .any(|t| t.marks.contains_key("token_sent")),
            "marks flow through"
        );
        assert!(
            gold_telem
                .iter()
                .any(|t| t.sketches.as_ref().is_some_and(|s| !s.is_empty())),
            "observations flow through"
        );
        for threads in [2, 3] {
            let (events, telem) = run(threads);
            assert_eq!(events, gold_events);
            assert_eq!(telem, gold_telem, "telemetry diverged at {threads} threads");
        }
    }

    /// A model that never sends: self-rescheduling chains of 151 events
    /// each that mark, observe and touch.
    struct Solo {
        fired: u32,
    }

    impl Model for Solo {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            self.fired += 1;
            if ev.is_multiple_of(3) {
                ctx.mark("third");
            }
            ctx.observe("pending", ctx.pending_events() as f64);
            ctx.touch("ev", u64::from(ev));
            if ev % 1000 < 150 {
                let gap = 0.5 + f64::from(ev % 7);
                ctx.schedule_in(SimDuration::from_secs(gap), ev + 1);
            }
        }
        fn label(ev: &u32) -> &'static str {
            if ev.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        }
    }

    #[test]
    fn one_partition_runs_exactly_like_a_bare_simulation() {
        for (horizon, reason) in [
            (SimTime::from_secs(300.5), "HorizonReached"),
            (SimTime::MAX, "QueueEmpty"),
        ] {
            let mut bare = Simulation::new(Solo { fired: 0 });
            bare.schedule_at(SimTime::ZERO, 0);
            bare.schedule_at(SimTime::from_secs(0.25), 1000);
            let bare_t = bare.run_observed(horizon, None);
            assert_eq!(bare_t.stop_reason, reason);

            let mut part =
                PartitionedSimulation::new(vec![Solo { fired: 0 }], Lookahead::from_secs(LA));
            part.schedule_at(0, SimTime::ZERO, 0);
            part.schedule_at(0, SimTime::from_secs(0.25), 1000);
            let mut part_t = part.run_observed(horizon, 1);

            assert_eq!(
                part_t.marks.remove("partition/0"),
                Some(bare.events_executed())
            );
            assert_eq!(part_t.masked(), bare_t.masked());
            assert_eq!(part.events_executed(), bare.events_executed());
            assert_eq!(part.now(), bare.now());
            assert_eq!(part.models().next().unwrap().fired, bare.model().fired);
        }
    }

    /// Partition cells run the one event loop, so they time handlers too.
    #[cfg(feature = "wall-time")]
    #[test]
    fn partitioned_runs_report_handler_wall_time() {
        let mut sim = build(6, 3, 9);
        let t = sim.run_observed(SimTime::from_secs(200.0), 2);
        let timed: u64 = t.wall.handlers.values().map(|h| h.count).sum();
        assert_eq!(timed, t.events, "every handled event is timed");
        assert!(t.wall.handlers.contains_key("Token"));
    }

    #[test]
    fn queue_empty_and_stop_reasons() {
        // No events at all.
        let mut sim = build(4, 2, 1);
        // Drain the seeded ticks with a tiny horizon first — horizon stop.
        let r = run(&mut sim, SimTime::from_secs(0.1), 1);
        assert_eq!(r.as_str(), "HorizonReached");
        assert_eq!(sim.now(), SimTime::from_secs(0.1));

        // A model that stops: reuse Tick handler via a stop wrapper is
        // overkill; drive stop() through a one-off model.
        struct Stopper;
        impl Model for Stopper {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
                if ev == 3 {
                    ctx.stop();
                } else {
                    ctx.schedule_in(SimDuration::from_secs(1.0), ev + 1);
                }
            }
        }
        let mut sim: PartitionedSimulation<Stopper> =
            PartitionedSimulation::new(vec![Stopper, Stopper], Lookahead::from_secs(1.0));
        sim.schedule_at(0, SimTime::ZERO, 0);
        let r = run(&mut sim, SimTime::from_secs(100.0), 1);
        assert_eq!(r.as_str(), "StoppedByModel");
        assert_eq!(sim.events_executed(), 4);

        // Queues drain when nothing reschedules.
        struct OneShot;
        impl Model for OneShot {
            type Event = ();
            fn handle(&mut self, _ev: (), _ctx: &mut Ctx<'_, ()>) {}
        }
        let mut sim: PartitionedSimulation<OneShot> =
            PartitionedSimulation::new(vec![OneShot, OneShot], Lookahead::from_secs(1.0));
        sim.schedule_at(1, SimTime::from_secs(2.0), ());
        let r = run(&mut sim, SimTime::from_secs(100.0), 1);
        assert_eq!(r.as_str(), "QueueEmpty");
        assert_eq!(sim.now(), SimTime::from_secs(2.0));
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn short_sends_are_rejected() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
                ctx.send(0, SimDuration::from_secs(0.5), 0, ());
            }
        }
        let mut sim: PartitionedSimulation<Bad> =
            PartitionedSimulation::new(vec![Bad], Lookahead::from_secs(1.0));
        sim.schedule_at(0, SimTime::ZERO, ());
        run(&mut sim, SimTime::from_secs(10.0), 1);
    }
}
