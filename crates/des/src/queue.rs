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
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`. Returns the entry's sequence
    /// number: starts at 0, increments by one per push, never resets (a
    /// `u64` outlives any feasible run).
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        seq
    }

    /// Removes and returns the pending event with the smallest
    /// `(time, seq)`, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
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
