//! A multi-server FIFO resource, the workhorse of queueing models.
//!
//! [`ServerPool`] does the bookkeeping every queueing station needs — busy
//! servers, waiting jobs, and the time-weighted busy level behind
//! [`utilization`](ServerPool::utilization) — while leaving event
//! scheduling to the caller: when `arrive` or `depart` hands a job back,
//! the caller draws a service time and schedules the completion event.
//! This keeps the pool reusable across every model event alphabet.
//!
//! The pool keeps no other statistic, since the perf engine runs one per
//! disk array and NIC and reads only utilization. A model that wants
//! waiting times or queue length (`wt_bench::queuesim`) makes its job the
//! enqueue time and keeps its own tally and gauge, updated where
//! `arrive` and `depart` return.

use crate::stats::TimeWeighted;
use crate::time::SimTime;
use std::collections::VecDeque;

/// A `c`-server FIFO queueing resource holding jobs of type `T`.
#[derive(Debug)]
pub struct ServerPool<T> {
    servers: usize,
    busy: usize,
    queue: VecDeque<T>,
    busy_level: TimeWeighted,
}

impl<T> ServerPool<T> {
    /// A pool of `servers` identical servers, observed from `start`.
    pub fn new(servers: usize, start: SimTime) -> Self {
        assert!(servers > 0, "a pool needs at least one server");
        ServerPool {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            busy_level: TimeWeighted::new(start, 0.0),
        }
    }

    /// A job arrives at `now`. If a server is free the job starts service
    /// immediately and is returned; otherwise it queues and `None` is
    /// returned.
    #[must_use = "a returned job must have its completion scheduled"]
    pub fn arrive(&mut self, now: SimTime, job: T) -> Option<T> {
        if self.busy < self.servers {
            self.busy += 1;
            self.busy_level.set(now, self.busy as f64);
            Some(job)
        } else {
            self.queue.push_back(job);
            None
        }
    }

    /// A job finishes service at `now`, freeing its server. If a job was
    /// waiting, it starts service and is returned; otherwise the server
    /// idles and `None` is returned.
    #[must_use = "a returned job must have its completion scheduled"]
    pub fn depart(&mut self, now: SimTime) -> Option<T> {
        assert!(self.busy > 0, "depart with no busy server");
        if let Some(job) = self.queue.pop_front() {
            // Server stays busy with the next job.
            Some(job)
        } else {
            self.busy -= 1;
            self.busy_level.set(now, self.busy as f64);
            None
        }
    }

    /// Servers currently serving jobs.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Jobs currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total configured servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Time-averaged number of busy servers (utilization × servers).
    pub fn avg_busy(&self, now: SimTime) -> f64 {
        self.busy_level.average(now)
    }

    /// Time-averaged utilization in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.avg_busy(now) / self.servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_server_fifo() {
        let mut p: ServerPool<u32> = ServerPool::new(1, t(0.0));
        // Job 1 starts immediately.
        assert_eq!(p.arrive(t(0.0), 1), Some(1));
        // Jobs 2 and 3 queue.
        assert_eq!(p.arrive(t(1.0), 2), None);
        assert_eq!(p.arrive(t(2.0), 3), None);
        assert_eq!(p.queue_len(), 2);
        // Job 1 departs at t=5; job 2 starts.
        assert_eq!(p.depart(t(5.0)), Some(2));
        assert_eq!(p.queue_len(), 1);
        // Job 2 departs at t=7; job 3 starts.
        assert_eq!(p.depart(t(7.0)), Some(3));
        assert_eq!(p.depart(t(8.0)), None);
        assert_eq!(p.busy(), 0);
        // One server busy from 0 to 8 of 10 observed seconds.
        assert!((p.utilization(t(10.0)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn multi_server_no_queue_until_full() {
        let mut p: ServerPool<&str> = ServerPool::new(3, t(0.0));
        assert!(p.arrive(t(0.0), "a").is_some());
        assert!(p.arrive(t(0.0), "b").is_some());
        assert!(p.arrive(t(0.0), "c").is_some());
        assert!(p.arrive(t(0.0), "d").is_none());
        assert_eq!(p.busy(), 3);
        assert_eq!(p.queue_len(), 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut p: ServerPool<()> = ServerPool::new(2, t(0.0));
        let _ = p.arrive(t(0.0), ());
        let _ = p.depart(t(10.0));
        // One of two servers busy for 10s out of 20s observed: util 0.25.
        assert!((p.utilization(t(20.0)) - 0.25).abs() < 1e-12);
        assert!((p.avg_busy(t(20.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no busy server")]
    fn depart_on_idle_pool_panics() {
        let mut p: ServerPool<()> = ServerPool::new(1, t(0.0));
        let _ = p.depart(t(1.0));
    }
}
