//! The pending-event set: the engine's only future-event list.
//!
//! A binary heap of *runs*. A run is a maximal sequence of back-to-back
//! stored pushes at one bit-identical time: the burst a handler
//! schedules when one node failure queues every lost replica's rebuild
//! for the same instant. The heap holds one entry per run, keyed by its
//! first push's `(time, seq)`: that event inline, the rest FIFO in an
//! overflow arena whose vacant slots are reused through a free list. A
//! run at the heap top drains in place: its key does not change, so the
//! heap is not re-sifted. A burst of k equal-time events costs one heap
//! push and one pop instead of k of each, and a lone event costs what a
//! plain heap entry does.
//!
//! Only the newest run can still grow, so it waits outside the heap,
//! where an append finds it without a search. The next push at another
//! time closes it into the heap. A pop takes from whichever of it and
//! the heap top has the smaller key.
//!
//! # The run key
//!
//! A run's key is one integer, compared as a `u128`: the first push's
//! time as order-preserving bits (the sign bit flipped for a positive
//! time, every bit for a negative one, so unsigned order is `f64` order)
//! over its `seq << 1`. `-0.0` is folded into `+0.0`, which it equals as
//! an `f64`, and bit 0 records it, so the pop returns the time bit for
//! bit as it was pushed. Sequence numbers are unique, so bit 0 never
//! decides an order. The heap stores no `SimTime`, and a sift step is two
//! integer compares with no float compare or NaN check.
//!
//! # The `(time, seq)` contract
//!
//! Determinism rests on one rule: **events pop in ascending `(time, seq)`
//! order**, where `seq` is the value returned by [`EventQueue::push`] — a
//! counter that increments by one per push over the queue's lifetime.
//! Equal-time events therefore pop FIFO in scheduling order, and *never*
//! in an order derived from the heap's layout. The same push sequence
//! always produces the same pop sequence, which is what makes simulation
//! results — every RNG draw, every statistic, every byte — reproducible.
//! The FIFO proptests and the reference model at the bottom of this file
//! pin the contract.
//!
//! Runs keep it. A run's events are consecutive among stored events: a
//! stored push at any other time closes the run, and nothing joins a
//! closed run. So another run's events at an equal time all have
//! sequence numbers below this run's or all above them, and ordering
//! runs by their first `(time, seq)`, then each run FIFO, pops every
//! event in exactly `(time, seq)` order. A run that grows while it
//! drains stays in order too: its new events have the largest numbers
//! yet. Bit identity, not `==`, joins times: `0.0` and `-0.0` compare
//! equal but start separate runs, so every event pops with the time it
//! was pushed with.
//!
//! # The declared horizon
//!
//! A run that knows its horizon declares it
//! ([`EventQueue::declare_horizon`]). An event pushed for a time strictly
//! after the horizon can never fire, so it is *parked*: it still takes
//! its sequence number, but only a count and the earliest parked time are
//! kept, and the event itself is dropped. The `(time, seq)` contract
//! still holds: stored events keep the seqs they were given, a parked
//! push between two pushes of one run does not split it, and a parked
//! event never pops. [`len`](EventQueue::len) counts parked events too,
//! and [`peek_time`](EventQueue::peek_time) falls back to the earliest
//! parked time when nothing is stored, so queue-depth telemetry, stop
//! reasons and clocks read exactly as they would with every event stored.
//! The default horizon is [`SimTime::MAX`]: a run that declares nothing
//! stores every event it can ever pop.

use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Null index into the overflow arena.
const NONE: u32 = u32::MAX;

/// The `f64` sign bit.
const SIGN: u64 = 1 << 63;

/// `time`'s order-preserving bits, with `-0.0` folded into `+0.0`, and
/// whether it was `-0.0`. Unsigned order of the bits is the times' `f64`
/// order (NaN never reaches a `SimTime`).
#[inline]
fn time_key(time: SimTime) -> (u64, bool) {
    let bits = time.as_secs().to_bits();
    let neg_zero = bits == SIGN;
    let bits = if neg_zero { 0 } else { bits };
    // Flip every bit of a negative time, only the sign bit of a positive.
    let flip = ((bits as i64 >> 63) as u64) | SIGN;
    (bits ^ flip, neg_zero)
}

/// A run of equal-time events, keyed by its first push's `(time, seq)`.
///
/// Only the key orders the heap. The next event and the overflow link
/// sit in `Cell`s, so the run at the heap top drains through a shared
/// reference and the heap never re-sifts it. The key is two `u64`s, not
/// a `u128`, so a run aligns to 8 bytes, not 16.
struct Run<E> {
    /// The first push's time, as [`time_key`] bits.
    time_bits: u64,
    /// The first push's `seq << 1`; bit 0 is set when its time is `-0.0`.
    seq_bits: u64,
    /// The run's next event to pop.
    head: Cell<E>,
    /// The overflow slot holding the event after `head`, or `NONE`.
    rest: Cell<u32>,
}

impl<E> Run<E> {
    fn new((time_bits, neg_zero): (u64, bool), seq: u64, event: E) -> Self {
        // `seq` counts pushes, so it never reaches 2^63 and the shift
        // loses nothing.
        Run {
            time_bits,
            seq_bits: seq << 1 | u64::from(neg_zero),
            head: Cell::new(event),
            rest: Cell::new(NONE),
        }
    }

    /// The heap key: time bits over sequence bits.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.time_bits) << 64 | u128::from(self.seq_bits)
    }

    /// True when a push at `time` (as [`time_key`] returns it) is at
    /// this run's time, bit for bit.
    #[inline]
    fn at(&self, (time_bits, neg_zero): (u64, bool)) -> bool {
        self.time_bits == time_bits && self.seq_bits & 1 == u64::from(neg_zero)
    }

    /// The first push's time, bit for bit.
    #[inline]
    fn time(&self) -> SimTime {
        let bits = if self.seq_bits & 1 == 1 {
            SIGN
        } else {
            // Undo `time_key`'s flip: the sign bit is set for a positive time.
            self.time_bits ^ (!((self.time_bits as i64 >> 63) as u64) | SIGN)
        };
        SimTime::from_secs(f64::from_bits(bits))
    }
}

impl<E> PartialEq for Run<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Run<E> {}

impl<E> PartialOrd for Run<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Run<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// An overflow-arena slot: an event waiting behind its run's head, or,
/// when vacant, a link in the free list.
struct Slot<E> {
    event: Option<E>,
    /// The next slot of the run (or of the free list), or `NONE`.
    next: u32,
}

/// Future-event list with deterministic tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were pushed.
pub struct EventQueue<E> {
    /// Closed runs.
    heap: BinaryHeap<Run<E>>,
    /// The run that holds the last stored push, while any of it is
    /// unpopped: the only run that can still grow.
    open: Option<Run<E>>,
    /// The open run's last overflow slot (`NONE` when it has none).
    open_tail: u32,
    /// Every run's events after its head, linked FIFO per run.
    slots: Vec<Slot<E>>,
    /// The first vacant slot (`NONE` when none is).
    free: u32,
    /// Stored events: one head per run plus the occupied slots.
    stored: usize,
    next_seq: u64,
    /// The instant after which nothing can fire (see the module docs).
    horizon: SimTime,
    /// Events pushed for a time past `horizon`: counted, never stored.
    parked: usize,
    /// The earliest parked time, when any event is parked.
    earliest_parked: Option<SimTime>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with heap room for `cap` runs (`cap` events at
    /// the least).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            open: None,
            open_tail: NONE,
            slots: Vec::new(),
            free: NONE,
            stored: 0,
            next_seq: 0,
            horizon: SimTime::MAX,
            parked: 0,
            earliest_parked: None,
        }
    }

    /// Declares the instant after which no event of this run can fire:
    /// later pushes are parked rather than stored (see the module docs).
    /// Panics unless the queue is empty, since an event stored before the
    /// declaration would escape it.
    pub fn declare_horizon(&mut self, horizon: SimTime) {
        assert!(
            self.is_empty(),
            "declare the horizon before the first event is scheduled ({} pending)",
            self.len()
        );
        self.horizon = horizon;
    }

    /// The declared horizon ([`SimTime::MAX`] when none was declared).
    pub(crate) fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of parked events: pushed past the declared horizon, counted
    /// by [`len`](Self::len), never stored.
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Schedules `event` to fire at `time`. Returns the entry's sequence
    /// number: starts at 0, increments by one per push, never resets (a
    /// `u64` outlives any feasible run). An event past the declared
    /// horizon takes its number but is parked, not stored.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if time > self.horizon {
            self.parked += 1;
            self.earliest_parked = Some(self.earliest_parked.map_or(time, |t| t.min(time)));
            return seq;
        }
        self.stored += 1;
        let key = time_key(time);
        if !self.open.as_ref().is_some_and(|run| run.at(key)) {
            if let Some(closed) = self.open.replace(Run::new(key, seq, event)) {
                self.heap.push(closed);
            }
            self.open_tail = NONE;
            return seq;
        }
        let slot = self.alloc(event);
        match self.open_tail {
            NONE => self
                .open
                .as_ref()
                .expect("joined the open run")
                .rest
                .set(slot),
            tail => self.slots[tail as usize].next = slot,
        }
        self.open_tail = slot;
        seq
    }

    /// Stores `event` in a vacant overflow slot, or a new one.
    fn alloc(&mut self, event: E) -> u32 {
        let slot = Slot {
            event: Some(event),
            next: NONE,
        };
        if self.free != NONE {
            let i = self.free;
            self.free = std::mem::replace(&mut self.slots[i as usize], slot).next;
            return i;
        }
        let i = u32::try_from(self.slots.len())
            .ok()
            .filter(|&i| i != NONE)
            .expect("overflow arena is full");
        self.slots.push(slot);
        i
    }

    /// True when the open run, not the heap top, holds the earliest
    /// stored event. Every closed run started before the open one, so a
    /// closed run wins a tie in time on its smaller sequence number.
    fn open_first(&self) -> bool {
        match (&self.open, self.heap.peek()) {
            (Some(open), Some(top)) => open.key() < top.key(),
            (open, _) => open.is_some(),
        }
    }

    /// Removes and returns the stored event with the smallest
    /// `(time, seq)`, or `None` when none is stored. Parked events never
    /// pop.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_open = self.open_first();
        let run = if from_open {
            self.open.as_ref()?
        } else {
            self.heap.peek()?
        };
        self.stored -= 1;
        let slot = run.rest.get();
        if slot != NONE {
            // Drain in place: the next overflow event becomes the head.
            let vacated = &mut self.slots[slot as usize];
            let next = vacated.event.take().expect("a linked slot is occupied");
            run.rest.set(vacated.next);
            vacated.next = self.free;
            self.free = slot;
            if from_open && run.rest.get() == NONE {
                self.open_tail = NONE;
            }
            return Some((run.time(), run.head.replace(next)));
        }
        let run = if from_open {
            self.open.take()
        } else {
            self.heap.pop()
        };
        run.map(|r| (r.time(), r.head.into_inner()))
    }

    /// The firing time of the earliest pending event: the earliest stored
    /// one, or, when none is stored, the earliest parked one.
    pub fn peek_time(&self) -> Option<SimTime> {
        let front = if self.open_first() {
            self.open.as_ref()
        } else {
            self.heap.peek()
        };
        front.map(Run::time).or(self.earliest_parked)
    }

    /// Number of pending events, parked ones included.
    pub fn len(&self) -> usize {
        self.stored + self.parked
    }

    /// True when no events are pending, parked ones included.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events, parked ones included.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.open = None;
        self.open_tail = NONE;
        self.slots.clear();
        self.free = NONE;
        self.stored = 0;
        self.parked = 0;
        self.earliest_parked = None;
    }

    /// Pre-allocates heap room for at least `additional` more runs (a
    /// run per event at worst), so a steady-state pending set never
    /// regrows the heap mid-run. The overflow arena grows to its
    /// high-water mark once and then reuses its slots.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), "c");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5.0), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(7.0), ());
        assert_eq!(q.peek_time(), Some(t(7.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(10.0), 10);
        q.push(t(1.0), 1);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        q.push(t(5.0), 5);
        q.push(t(2.0), 2);
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert_eq!(q.pop(), Some((t(5.0), 5)));
        assert_eq!(q.pop(), Some((t(10.0), 10)));
    }

    #[test]
    fn a_burst_is_one_run_and_its_slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        q.push(t(9.0), 100);
        assert_eq!((q.heap.len(), q.slots.len(), q.len()), (1, 99, 101));
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5.0), i)));
        }
        // A second burst refills the vacated slots instead of growing.
        for i in 0..100 {
            q.push(t(7.0), i);
        }
        assert_eq!(q.slots.len(), 99);
        assert_eq!(q.pop(), Some((t(7.0), 0)));
    }

    #[test]
    fn events_past_the_declared_horizon_are_counted_not_stored() {
        let mut q = EventQueue::new();
        q.declare_horizon(t(10.0));
        assert_eq!(q.push(t(30.0), "far"), 0);
        assert_eq!(q.push(t(10.0), "at"), 1);
        assert_eq!(q.push(t(f64::INFINITY), "never"), 2);
        assert_eq!(q.push(t(20.0), "later"), 3);
        assert_eq!((q.len(), q.parked()), (4, 3));
        // Only the event at the horizon is stored; it pops, the rest never.
        assert_eq!(q.peek_time(), Some(t(10.0)));
        assert_eq!(q.pop(), Some((t(10.0), "at")));
        assert_eq!(q.pop(), None);
        // With nothing stored, the earliest parked time is still visible.
        assert_eq!(q.peek_time(), Some(t(20.0)));
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        q.clear();
        assert_eq!((q.len(), q.parked(), q.peek_time()), (0, 0, None));
    }

    #[test]
    fn an_undeclared_queue_parks_only_infinite_times() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 1);
        q.push(t(f64::INFINITY), 2);
        assert_eq!((q.len(), q.parked()), (2, 1));
        assert_eq!(q.pop(), Some((SimTime::MAX, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn extreme_times_pop_bit_for_bit_in_time_seq_order() {
        let sub = f64::from_bits(1); // the smallest positive subnormal
        let pushes = [
            f64::MAX,
            -0.0,
            -0.0,
            f64::INFINITY,
            -sub,
            0.0,
            f64::NEG_INFINITY,
            sub,
            -f64::MAX,
            -0.0,
            0.0,
        ];
        let mut q = EventQueue::new();
        for (seq, &secs) in pushes.iter().enumerate() {
            assert_eq!(q.push(t(secs), seq), seq as u64);
        }
        // +inf lies past the undeclared horizon (`SimTime::MAX`): parked.
        assert_eq!((q.len(), q.parked()), (pushes.len(), 1));
        let mut want: Vec<(f64, usize)> = pushes
            .iter()
            .copied()
            .zip(0..)
            .filter(|&(secs, _)| secs != f64::INFINITY)
            .collect();
        // `-0.0 == 0.0`, so the zeros keep push order among themselves.
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        for (secs, seq) in want {
            let (time, got) = q.pop().expect("a stored event");
            assert_eq!((time.as_secs().to_bits(), got), (secs.to_bits(), seq));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), Some(t(f64::INFINITY)));
    }

    #[test]
    #[should_panic(expected = "declare the horizon before the first event")]
    fn declaring_a_horizon_after_scheduling_panics() {
        let mut q = EventQueue::new();
        q.push(t(1.0), ());
        q.declare_horizon(t(10.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Push times for the reference model: few, so ties are common, with
    /// both signed zeros, negative times, the smallest subnormal and
    /// times past every horizon it declares.
    const TIMES: [f64; 9] = [0.0, -0.0, 1.0, 2.0, 3.0, 7.0, -2.5, -1.0, 5e-324];

    /// One step of the reference-model check.
    #[derive(Debug, Clone)]
    enum RefOp {
        /// Push at `TIMES[i]`.
        Push(usize),
        /// Push at the time of the last pop.
        Now,
        Pop,
    }

    proptest! {
        /// Popping the whole queue yields times in non-decreasing order, and
        /// equal times in insertion order.
        #[test]
        fn pop_order_is_sorted_and_stable(times in proptest::collection::vec(0u32..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &ti) in times.iter().enumerate() {
                q.push(SimTime::from_secs(ti as f64), i);
            }
            let mut last_time = SimTime::ZERO;
            let mut last_seq_at_time: Option<usize> = None;
            while let Some((time, idx)) = q.pop() {
                prop_assert!(time >= last_time);
                if time == last_time {
                    if let Some(prev) = last_seq_at_time {
                        prop_assert!(idx > prev, "FIFO violated at equal times");
                    }
                }
                last_time = time;
                last_seq_at_time = Some(idx);
            }
        }

        /// A queue that declares a horizon behaves like one that does not
        /// for every event a run can reach. Pushes (`Some(time)`) and pops
        /// (`None`) interleave, times tie often and straddle the horizon;
        /// a pop happens only while the undeclared queue's next event is
        /// at or before the horizon, as the engine's loop does.
        #[test]
        fn a_declared_horizon_is_invisible_before_it(
            horizon in 0u32..12,
            ops in proptest::collection::vec(
                (0u32..10, 0u32..24).prop_map(|(k, ti)| (k >= 3).then_some(ti)),
                0..160,
            ),
        ) {
            let horizon = SimTime::from_secs(f64::from(horizon));
            let mut plain = EventQueue::new();
            let mut bounded = EventQueue::new();
            bounded.declare_horizon(horizon);
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Some(ti) => {
                        let time = SimTime::from_secs(f64::from(ti));
                        prop_assert_eq!(plain.push(time, i), bounded.push(time, i));
                    }
                    None => match plain.peek_time() {
                        Some(next) if next <= horizon => {
                            prop_assert_eq!(plain.pop(), bounded.pop());
                        }
                        // Past the horizon the engine stops; nothing
                        // stored in the bounded queue could pop either.
                        _ => prop_assert!(bounded.pop().is_none()),
                    },
                }
                prop_assert_eq!(plain.len(), bounded.len());
                match (plain.peek_time(), bounded.peek_time()) {
                    (Some(a), Some(b)) if a <= horizon => prop_assert_eq!(a, b),
                    (Some(a), Some(b)) => prop_assert!(a > horizon && b > horizon),
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }

        /// The queue against a naive reference: a list of every stored
        /// `(time, seq)` (each event's value is its seq), popped at its
        /// smallest `(time, seq)`.
        /// Pushes take times from a tiny set (signed zeros included), so
        /// ties are common; `Now` pushes at the time last popped, so a
        /// run grows while it drains; times past the horizon park, also
        /// between two pushes of one run. After every operation `pop`
        /// (times compared bit for bit), `peek_time` and `len` agree.
        #[test]
        fn matches_a_sorted_list_reference(
            horizon in 1u32..6,
            ops in proptest::collection::vec(
                prop_oneof![
                    (0usize..TIMES.len()).prop_map(RefOp::Push),
                    Just(RefOp::Now),
                    Just(RefOp::Pop),
                ],
                0..300,
            ),
        ) {
            let horizon = SimTime::from_secs(f64::from(horizon));
            let mut q = EventQueue::new();
            q.declare_horizon(horizon);
            let mut stored: Vec<(SimTime, u64)> = Vec::new();
            let (mut next_seq, mut parked, mut earliest_parked) = (0u64, 0usize, None::<SimTime>);
            let mut now = SimTime::ZERO;
            for op in ops {
                let time = match op {
                    RefOp::Push(i) => Some(SimTime::from_secs(TIMES[i])),
                    RefOp::Now => Some(now),
                    RefOp::Pop => None,
                };
                if let Some(time) = time {
                    prop_assert_eq!(q.push(time, next_seq), next_seq);
                    if time > horizon {
                        parked += 1;
                        earliest_parked = Some(earliest_parked.map_or(time, |p| p.min(time)));
                    } else {
                        stored.push((time, next_seq));
                    }
                    next_seq += 1;
                } else {
                    let want = (0..stored.len())
                        .min_by_key(|&i| stored[i])
                        .map(|i| stored.remove(i));
                    let got = q.pop();
                    prop_assert_eq!(
                        got.map(|(time, seq)| (time.as_secs().to_bits(), seq)),
                        want.map(|(time, seq)| (time.as_secs().to_bits(), seq))
                    );
                    if let Some((time, _)) = got {
                        now = time;
                    }
                }
                let want_peek = stored.iter().min().map(|&(time, _)| time).or(earliest_parked);
                prop_assert_eq!(
                    q.peek_time().map(|time| time.as_secs().to_bits()),
                    want_peek.map(|time| time.as_secs().to_bits())
                );
                prop_assert_eq!(q.len(), stored.len() + parked);
            }
        }

        /// len() tracks pushes and pops exactly.
        #[test]
        fn len_is_consistent(ops in proptest::collection::vec(any::<bool>(), 0..100)) {
            let mut q = EventQueue::new();
            let mut expected = 0usize;
            for (i, push) in ops.into_iter().enumerate() {
                if push {
                    q.push(SimTime::from_secs(i as f64), i);
                    expected += 1;
                } else if q.pop().is_some() {
                    expected -= 1;
                }
                prop_assert_eq!(q.len(), expected);
            }
        }
    }
}
