//! Re-replication (repair) policy: the software knob of the paper's §1
//! worked example.
//!
//! When a node fails, every object it held becomes degraded. A
//! [`RepairPolicy`] decides how many repairs run concurrently and from how
//! many sources each repair streams — "by instantiating parallel repairs on
//! different machines, one can decrease the probability that the data will
//! become unavailable" (§1). The actual event scheduling lives in
//! `wt-cluster`; this module owns the policy math and the [`RepairQueue`]
//! the availability engine drives: when each repair was queued, the FIFO
//! start order under the concurrency cap, cancellation, and the chaos
//! repair throttle with its backlog breaker.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use wt_des::time::SimTime;

/// How the system re-replicates after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairPolicy {
    /// Maximum repairs in flight cluster-wide. 1 = serial repair; large
    /// values spread the rebuild over many (source, destination) pairs.
    pub max_parallel: usize,
    /// Fraction of each source node's NIC bandwidth the repair is allowed
    /// to use (repair throttling to protect foreground traffic).
    pub bandwidth_share: f64,
    /// Delay before repair starts (failure-detection timeout), seconds.
    pub detection_delay_s: f64,
}

impl RepairPolicy {
    /// Serial repair with a 15-minute detection delay and half the NIC.
    pub fn serial() -> Self {
        RepairPolicy {
            max_parallel: 1,
            bandwidth_share: 0.5,
            detection_delay_s: 900.0,
        }
    }

    /// Parallel repair across `streams` pairs.
    pub fn parallel(streams: usize) -> Self {
        assert!(streams >= 1);
        RepairPolicy {
            max_parallel: streams,
            bandwidth_share: 0.5,
            detection_delay_s: 900.0,
        }
    }

    /// Time to move `total_bytes` of repair traffic when `pairs` disjoint
    /// (source, destination) pairs are available and each link sustains
    /// `link_gbps` for this repair. The effective parallelism is
    /// `min(max_parallel, pairs)`.
    pub fn repair_time_s(&self, total_bytes: u64, pairs: usize, link_gbps: f64) -> f64 {
        assert!(pairs >= 1, "need at least one repair pair");
        assert!(link_gbps > 0.0);
        let streams = self.max_parallel.min(pairs) as f64;
        let per_stream_bps = link_gbps * 1e9 / 8.0 * self.bandwidth_share;
        self.detection_delay_s + total_bytes as f64 / (per_stream_bps * streams)
    }
}

impl Default for RepairPolicy {
    fn default() -> Self {
        Self::serial()
    }
}

/// A degraded object awaiting repair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairTask {
    /// Object identifier.
    pub object: u64,
    /// When the repair was queued; its wait ends when it starts.
    pub queued_at: SimTime,
}

/// A chaos repair throttle while it clamps the cap.
#[derive(Debug, Clone, Copy)]
struct Throttle {
    fault: usize,
    saved_cap: usize,
    breaker_pending: usize,
}

/// FIFO queue of pending repairs with a concurrency cap — the state
/// machine `wt-cluster` drives. It owns a repair's whole life in the
/// queue: when it was queued, when it may start, dropping the queued
/// repairs of a lost object, and the chaos throttle that clamps the cap
/// until its window ends or its backlog breaker trips.
#[derive(Debug, Clone)]
pub struct RepairQueue {
    /// The live concurrency cap: the policy's, or a throttle's clamp.
    max_parallel: usize,
    pending: VecDeque<RepairTask>,
    in_flight: usize,
    completed: u64,
    throttle: Option<Throttle>,
}

impl RepairQueue {
    /// An empty queue under `policy`'s concurrency cap.
    pub fn new(policy: RepairPolicy) -> Self {
        RepairQueue {
            max_parallel: policy.max_parallel,
            pending: VecDeque::new(),
            in_flight: 0,
            completed: 0,
            throttle: None,
        }
    }

    /// Enqueues a degraded object. Returns true when this push tripped
    /// the active throttle's breaker — the backlog grew past its
    /// `breaker_pending` — which ends the throttle and restores the cap.
    pub fn enqueue(&mut self, task: RepairTask) -> bool {
        self.pending.push_back(task);
        match self.throttle {
            Some(t) if self.pending.len() > t.breaker_pending => {
                self.max_parallel = t.saved_cap;
                self.throttle = None;
                true
            }
            _ => false,
        }
    }

    /// Starts the oldest pending repair if the concurrency cap allows;
    /// the caller schedules its completion event.
    #[must_use = "a started repair must have its completion event scheduled"]
    pub fn start_next(&mut self) -> Option<RepairTask> {
        if self.in_flight >= self.max_parallel {
            return None;
        }
        let task = self.pending.pop_front()?;
        self.in_flight += 1;
        Some(task)
    }

    /// Marks one repair finished; typically followed by `start_next`.
    pub fn complete_one(&mut self) {
        assert!(self.in_flight > 0, "no repair in flight");
        self.in_flight -= 1;
        self.completed += 1;
    }

    /// Drops every pending repair of `object` (its sources are gone).
    /// Repairs in flight run on.
    pub fn cancel_all(&mut self, object: u64) {
        self.pending.retain(|t| t.object != object);
    }

    /// Clamps the concurrency cap to `max_parallel` (`0` pauses the
    /// queue) for chaos fault `fault`, until [`unthrottle`](Self::unthrottle)
    /// or a backlog above `breaker_pending` restores it. Ignored while
    /// another throttle is active. Repairs in flight are not interrupted
    /// — a lowered cap only gates later starts.
    pub fn throttle(&mut self, fault: usize, max_parallel: usize, breaker_pending: usize) {
        if self.throttle.is_none() {
            self.throttle = Some(Throttle {
                fault,
                saved_cap: self.max_parallel,
                breaker_pending,
            });
            self.max_parallel = max_parallel;
        }
    }

    /// Ends fault `fault`'s throttle and restores the cap. Returns false
    /// when `fault` is not the active throttle (it was ignored, or its
    /// breaker already tripped).
    pub fn unthrottle(&mut self, fault: usize) -> bool {
        match self.throttle {
            Some(t) if t.fault == fault => {
                self.max_parallel = t.saved_cap;
                self.throttle = None;
                true
            }
            _ => false,
        }
    }

    /// Repairs waiting to start.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Repairs currently running.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total repairs finished.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// True when nothing is pending or running.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_repair_is_faster() {
        let serial = RepairPolicy::serial();
        let par8 = RepairPolicy::parallel(8);
        let bytes = 4_000_000_000_000; // 4 TB node worth of data
        let t1 = serial.repair_time_s(bytes, 16, 10.0);
        let t8 = par8.repair_time_s(bytes, 16, 10.0);
        // 8 streams ≈ 8x the transfer rate (detection delay fixed).
        let transfer1 = t1 - serial.detection_delay_s;
        let transfer8 = t8 - par8.detection_delay_s;
        assert!((transfer1 / transfer8 - 8.0).abs() < 0.01);
    }

    #[test]
    fn parallelism_capped_by_available_pairs() {
        let p = RepairPolicy::parallel(64);
        let with_4_pairs = p.repair_time_s(1 << 30, 4, 10.0);
        let with_64_pairs = p.repair_time_s(1 << 30, 64, 10.0);
        assert!(with_4_pairs > with_64_pairs);
    }

    #[test]
    fn faster_network_shrinks_repair() {
        // §1: "the latency of the repair process can be reduced by using a
        // faster network (hardware), or by optimizing the repair algorithm
        // (software), or both".
        let p = RepairPolicy::serial();
        let slow = p.repair_time_s(1 << 40, 8, 1.0);
        let fast = p.repair_time_s(1 << 40, 8, 10.0);
        let transfer_slow = slow - p.detection_delay_s;
        let transfer_fast = fast - p.detection_delay_s;
        assert!((transfer_slow / transfer_fast - 10.0).abs() < 0.01);
    }

    /// A task for `object` queued at time zero.
    fn task(object: u64) -> RepairTask {
        RepairTask {
            object,
            queued_at: SimTime::ZERO,
        }
    }

    /// Starts every repair the cap allows; returns their objects.
    fn start_all(q: &mut RepairQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.start_next())
            .map(|t| t.object)
            .collect()
    }

    #[test]
    fn queue_respects_concurrency_cap() {
        let mut q = RepairQueue::new(RepairPolicy::parallel(2));
        for i in 0..5 {
            assert!(!q.enqueue(task(i)), "no throttle, no breaker");
        }
        assert_eq!(start_all(&mut q), vec![0, 1]);
        assert_eq!(q.in_flight(), 2);
        assert_eq!(q.pending_len(), 3);
        // Nothing more can start until a completion.
        assert!(q.start_next().is_none());
        q.complete_one();
        assert_eq!(start_all(&mut q), vec![2]);
        assert_eq!(q.completed(), 1);
    }

    #[test]
    fn queue_drains_to_idle() {
        let mut q = RepairQueue::new(RepairPolicy::serial());
        let queued_at = SimTime::from_secs(42.0);
        q.enqueue(RepairTask {
            object: 1,
            queued_at,
        });
        assert!(!q.is_idle());
        // A started task carries the time it was queued.
        let started = q.start_next().expect("one slot free");
        assert_eq!((started.object, started.queued_at), (1, queued_at));
        q.complete_one();
        assert!(q.is_idle());
    }

    #[test]
    fn cancel_all_drops_every_queued_repair() {
        let mut q = RepairQueue::new(RepairPolicy::serial());
        for object in [7, 8, 7, 9, 7] {
            q.enqueue(task(object));
        }
        // Every queued repair of the object goes in one call.
        q.cancel_all(7);
        assert_eq!(q.pending_len(), 2);
        q.cancel_all(7);
        assert_eq!(q.pending_len(), 2);
        assert_eq!(q.start_next().map(|t| t.object), Some(8));
    }

    #[test]
    #[should_panic(expected = "no repair in flight")]
    fn complete_on_idle_panics() {
        let mut q = RepairQueue::new(RepairPolicy::serial());
        q.complete_one();
    }

    #[test]
    fn fifo_order_survives_combined_storm() {
        // The interleaving a combined switch + disk failure storm produces:
        // bursts of enqueues (objects degraded by a rack outage and by disk
        // deaths), interleaved cancels (objects lost) and completions.
        // Start order must remain exactly enqueue order minus cancels.
        let mut q = RepairQueue::new(RepairPolicy::parallel(2));
        let mut started: Vec<u64> = Vec::new();
        // Wave 1: switch failure degrades objects 0..6.
        for i in 0..6 {
            q.enqueue(task(i));
        }
        started.extend(start_all(&mut q));
        // Wave 2: disk failures degrade 10..13 while two not-yet-started
        // rack repairs are cancelled.
        for i in 10..13 {
            q.enqueue(task(i));
        }
        q.cancel_all(3);
        q.cancel_all(5);
        while q.in_flight() > 0 || q.pending_len() > 0 {
            q.complete_one();
            started.extend(start_all(&mut q));
        }
        assert_eq!(started, vec![0, 1, 2, 4, 10, 11, 12]);
        assert_eq!(q.completed(), 7);
        assert!(q.is_idle());
    }

    #[test]
    fn throttle_and_restore_respect_caps() {
        // Chaos repair-throttle semantics: clamp the cap mid-storm, verify
        // in-flight never exceeds the live cap, then restore and drain.
        let mut q = RepairQueue::new(RepairPolicy::parallel(4));
        for i in 0..10 {
            q.enqueue(task(i));
        }
        assert_eq!(start_all(&mut q).len(), 4);
        q.throttle(0, 1, usize::MAX); // throttle while 4 are in flight
                                      // A second window is ignored while the first is active: the cap
                                      // stays 1, not 0 (checked below, once the queue drains to 0).
        q.throttle(1, 0, usize::MAX);
        assert!(!q.unthrottle(1), "the ignored window restores nothing");
        q.complete_one();
        // 3 still in flight >= cap of 1: nothing new may start.
        assert!(q.start_next().is_none());
        q.complete_one();
        q.complete_one();
        q.complete_one();
        assert_eq!(q.in_flight(), 0);
        assert_eq!(start_all(&mut q).len(), 1);
        assert!(q.unthrottle(0));
        assert!(!q.unthrottle(0), "restored once");
        q.throttle(2, 0, usize::MAX); // full pause
        q.complete_one();
        assert!(q.start_next().is_none());
        assert!(q.unthrottle(2)); // restore
        assert_eq!(start_all(&mut q).len(), 4);
        q.complete_one();
        q.complete_one();
        q.complete_one();
        q.complete_one();
        assert_eq!(start_all(&mut q).len(), 1);
        q.complete_one();
        assert!(q.is_idle());
        assert_eq!(q.completed(), 10);
    }

    #[test]
    fn breaker_trips_on_backlog_and_restores_the_cap() {
        let mut q = RepairQueue::new(RepairPolicy::parallel(3));
        q.throttle(5, 0, 2);
        assert!(!q.enqueue(task(0)));
        assert!(!q.enqueue(task(1)));
        assert!(q.start_next().is_none(), "paused");
        // The third pending task exceeds the breaker's backlog of 2.
        assert!(q.enqueue(task(2)), "breaker trips");
        assert!(!q.enqueue(task(3)), "trips once");
        assert!(!q.unthrottle(5), "the tripped throttle is over");
        // The policy's cap of 3 is back.
        assert_eq!(start_all(&mut q), vec![0, 1, 2]);
    }
}
