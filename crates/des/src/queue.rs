//! The pending-event set: the engine's only future-event list.
//!
//! A binary heap keyed on `(time, sequence)`, O(log n) per operation.
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
//! The FIFO proptests at the bottom of this file pin the contract.
//!
//! # The declared horizon
//!
//! A run that knows its horizon declares it
//! ([`EventQueue::declare_horizon`]). An event pushed for a time strictly
//! after the horizon can never fire, so it is *parked*: it still takes
//! its sequence number, but only a count and the earliest parked time are
//! kept, and the event itself is dropped. The `(time, seq)` contract
//! still holds: stored events keep the seqs they were given, and a parked
//! event never pops. [`len`](EventQueue::len) counts parked events too,
//! and [`peek_time`](EventQueue::peek_time) falls back to the earliest
//! parked time when nothing is stored, so queue-depth telemetry, stop
//! reasons and clocks read exactly as they would with every event stored.
//! The default horizon is [`SimTime::MAX`]: a run that declares nothing
//! stores every event it can ever pop.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: fire `event` at `time`.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Future-event list with deterministic tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were pushed.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
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
        } else {
            self.heap.push(Entry { time, seq, event });
        }
        seq
    }

    /// Removes and returns the stored event with the smallest
    /// `(time, seq)`, or `None` when none is stored. Parked events never
    /// pop.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The firing time of the earliest pending event: the earliest stored
    /// one, or, when none is stored, the earliest parked one.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time).or(self.earliest_parked)
    }

    /// Number of pending events, parked ones included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.parked
    }

    /// True when no events are pending, parked ones included.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events, parked ones included.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.parked = 0;
        self.earliest_parked = None;
    }

    /// Pre-allocates room for at least `additional` more events, so a
    /// steady-state pending set never regrows the heap mid-run.
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
