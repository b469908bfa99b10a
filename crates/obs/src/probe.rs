//! The engine-side probe hook and the always-on summary probe.

use crate::sketch::{Hll, QuantileSketch};
use crate::telemetry::{RunTelemetry, SketchSet, WallHist};

/// Observer of a simulation run. The engine calls [`Probe::on_event`]
/// after every handled event; models can emit custom [`Probe::on_mark`]
/// counters through their scheduling context.
///
/// Probes are strictly one-way: they see the event stream but cannot
/// schedule, consume randomness, or otherwise feed back into the run, so
/// attaching one never changes simulation results.
pub trait Probe {
    /// An event labeled `label` was just handled at simulated time
    /// `now_s`; `queue_depth` pending events remain after its handler ran.
    fn on_event(&mut self, label: &'static str, now_s: f64, queue_depth: usize);

    /// A model-emitted custom counter (via the engine's `Ctx::mark`).
    fn on_mark(&mut self, _label: &'static str) {}

    /// A model-emitted scalar observation (via the engine's
    /// `Ctx::observe`) — a rebuild wait, a request latency. Summary
    /// probes fold these into per-label quantile sketches.
    fn on_value(&mut self, _label: &'static str, _value: f64) {}

    /// A model-touched entity key (via the engine's `Ctx::touch`) — an
    /// object id, a request key. Summary probes fold these into
    /// per-label HLLs for distinct counts.
    fn on_distinct(&mut self, _label: &'static str, _key: u64) {}

    /// Wall-clock nanoseconds the handler for `label` just took. Only
    /// called when the engine is built with its `wall-time` feature —
    /// wall timing is off the determinism path by construction.
    fn on_handler_wall(&mut self, _label: &'static str, _ns: u64) {}
}

/// The probe of a run nobody watches: it ignores every call. Runs that
/// want no telemetry pass it to the engine's one event loop, where its
/// empty methods inline away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline]
    fn on_event(&mut self, _label: &'static str, _now_s: f64, _queue_depth: usize) {}
}

/// Fans one event stream out to two probes — e.g. a [`SimProbe`] for the
/// telemetry summary plus a [`crate::TraceProbe`] for export.
pub struct Tee<'a, 'b>(pub &'a mut dyn Probe, pub &'b mut dyn Probe);

impl Probe for Tee<'_, '_> {
    fn on_event(&mut self, label: &'static str, now_s: f64, queue_depth: usize) {
        self.0.on_event(label, now_s, queue_depth);
        self.1.on_event(label, now_s, queue_depth);
    }
    fn on_mark(&mut self, label: &'static str) {
        self.0.on_mark(label);
        self.1.on_mark(label);
    }
    fn on_value(&mut self, label: &'static str, value: f64) {
        self.0.on_value(label, value);
        self.1.on_value(label, value);
    }
    fn on_distinct(&mut self, label: &'static str, key: u64) {
        self.0.on_distinct(label, key);
        self.1.on_distinct(label, key);
    }
    fn on_handler_wall(&mut self, label: &'static str, ns: u64) {
        self.0.on_handler_wall(label, ns);
        self.1.on_handler_wall(label, ns);
    }
}

/// The always-on summary probe: per-label event counts, a time-weighted
/// queue-depth gauge, peak depth, custom marks, and (when fed by a
/// `wall-time` engine) per-handler wall histograms.
///
/// Label tables are small vectors scanned with a pointer-equality fast
/// path — model labels are `&'static str` literals, so the same variant
/// always presents the same pointer and the common case is a handful of
/// pointer compares, not string hashing. This is what keeps the probe
/// affordable on the per-event hot path.
#[derive(Debug, Default)]
pub struct SimProbe {
    events: u64,
    labels: Vec<(&'static str, u64)>,
    marks: Vec<(&'static str, u64)>,
    peak_depth: usize,
    prev_t: f64,
    prev_depth: usize,
    depth_area: f64,
    values: Vec<(&'static str, QuantileSketch)>,
    distincts: Vec<(&'static str, Hll)>,
    wall: Vec<(&'static str, WallHist)>,
}

/// Finds `label` in a small label table, keeping hot labels near the
/// front: a hit one step deep swaps the entry forward (transposition),
/// so the busiest one or two labels settle at the head and the common
/// case is a single pointer compare. Table order is a scan detail only —
/// everything user-visible is folded into sorted maps by `finish`.
#[inline]
fn find_label<T>(table: &mut Vec<(&'static str, T)>, label: &'static str) -> Option<usize> {
    for i in 0..table.len() {
        let k = table[i].0;
        if std::ptr::eq(k.as_ptr(), label.as_ptr()) || k == label {
            if i > 1 {
                table.swap(i, i - 1);
                return Some(i - 1);
            }
            return Some(i);
        }
    }
    None
}

fn bump(table: &mut Vec<(&'static str, u64)>, label: &'static str) {
    match find_label(table, label) {
        Some(i) => table[i].1 += 1,
        None => table.push((label, 1)),
    }
}

impl SimProbe {
    /// A fresh probe.
    pub fn new() -> Self {
        SimProbe::default()
    }

    /// Events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Deepest the queue has been after any handled event.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_depth
    }

    /// Distills the run into a [`RunTelemetry`]. `end_s` is the simulated
    /// time the run stopped at (the engine clock after the run call) and
    /// closes the queue-depth integral; `stop_reason` is the engine's
    /// stop reason rendered as a string. Wall-clock duration is the
    /// *caller's* to fill in ([`RunTelemetry::wall`]): the probe only
    /// sees simulated time.
    pub fn finish(&self, end_s: f64, stop_reason: &str) -> RunTelemetry {
        let mut t = RunTelemetry {
            events: self.events,
            horizon_s: end_s,
            peak_queue_depth: self.peak_depth as u64,
            mean_queue_depth: self.mean_queue_depth(end_s),
            stop_reason: stop_reason.to_string(),
            ..RunTelemetry::default()
        };
        for &(k, v) in &self.labels {
            t.events_by_label.insert(k.to_string(), v);
        }
        for &(k, v) in &self.marks {
            t.marks.insert(k.to_string(), v);
        }
        for (k, h) in &self.wall {
            t.wall.handlers.insert(k.to_string(), h.clone());
        }
        if !self.values.is_empty() || !self.distincts.is_empty() {
            let mut set = SketchSet::default();
            for (k, s) in &self.values {
                set.values.insert(k.to_string(), s.clone());
            }
            for (k, h) in &self.distincts {
                set.distincts.insert(k.to_string(), h.clone());
            }
            t.sketches = Some(set);
        }
        t
    }

    /// Time-weighted mean queue depth over `[0, end_s]`, holding the
    /// depth constant from the last event to `end_s`.
    pub fn mean_queue_depth(&self, end_s: f64) -> f64 {
        if end_s <= 0.0 {
            return 0.0;
        }
        let tail = (end_s - self.prev_t).max(0.0) * self.prev_depth as f64;
        (self.depth_area + tail) / end_s
    }
}

impl Probe for SimProbe {
    // Inlined into the engine's (generic) probed event loop — the body
    // is a few compares and adds, and the workspace builds without LTO.
    #[inline]
    fn on_event(&mut self, label: &'static str, now_s: f64, queue_depth: usize) {
        self.events += 1;
        bump(&mut self.labels, label);
        self.depth_area += (now_s - self.prev_t).max(0.0) * self.prev_depth as f64;
        self.prev_t = now_s;
        self.prev_depth = queue_depth;
        self.peak_depth = self.peak_depth.max(queue_depth);
    }

    fn on_mark(&mut self, label: &'static str) {
        bump(&mut self.marks, label);
    }

    fn on_value(&mut self, label: &'static str, value: f64) {
        match find_label(&mut self.values, label) {
            Some(i) => self.values[i].1.record(value),
            None => {
                let mut s = QuantileSketch::new();
                s.record(value);
                self.values.push((label, s));
            }
        }
    }

    fn on_distinct(&mut self, label: &'static str, key: u64) {
        match find_label(&mut self.distincts, label) {
            Some(i) => self.distincts[i].1.insert(key),
            None => {
                let mut h = Hll::new();
                h.insert(key);
                self.distincts.push((label, h));
            }
        }
    }

    fn on_handler_wall(&mut self, label: &'static str, ns: u64) {
        match find_label(&mut self.wall, label) {
            Some(i) => self.wall[i].1.record(ns),
            None => {
                let mut h = WallHist::default();
                h.record(ns);
                self.wall.push((label, h));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_events_by_label() {
        let mut p = SimProbe::new();
        p.on_event("a", 1.0, 0);
        p.on_event("b", 2.0, 0);
        p.on_event("a", 3.0, 0);
        let t = p.finish(3.0, "QueueEmpty");
        assert_eq!(t.events, 3);
        assert_eq!(t.events_by_label["a"], 2);
        assert_eq!(t.events_by_label["b"], 1);
        assert_eq!(t.stop_reason, "QueueEmpty");
    }

    #[test]
    fn queue_depth_gauge_is_time_weighted() {
        let mut p = SimProbe::new();
        // Depth 0 over [0,1), 2 over [1,3), 1 over [3,4).
        p.on_event("e", 1.0, 2);
        p.on_event("e", 3.0, 1);
        let t = p.finish(4.0, "HorizonReached");
        assert_eq!(t.peak_queue_depth, 2);
        // (0*1 + 2*2 + 1*1) / 4 = 1.25
        assert!((t.mean_queue_depth - 1.25).abs() < 1e-12, "{t:?}");
        assert_eq!(t.horizon_s, 4.0);
    }

    #[test]
    fn marks_and_wall_accumulate() {
        let mut p = SimProbe::new();
        p.on_mark("lost");
        p.on_mark("lost");
        p.on_handler_wall("e", 100);
        p.on_handler_wall("e", 300);
        let t = p.finish(0.0, "QueueEmpty");
        assert_eq!(t.marks["lost"], 2);
        assert_eq!(t.wall.handlers["e"].count, 2);
        assert_eq!(t.wall.handlers["e"].total_ns, 400);
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut a = SimProbe::new();
        let mut b = SimProbe::new();
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.on_event("x", 1.0, 1);
            tee.on_mark("m");
        }
        assert_eq!(a.events(), 1);
        assert_eq!(b.events(), 1);
        assert_eq!(a.finish(1.0, "s").marks["m"], 1);
    }

    #[test]
    fn empty_probe_finishes_clean() {
        let t = SimProbe::new().finish(0.0, "QueueEmpty");
        assert_eq!(t.events, 0);
        assert_eq!(t.mean_queue_depth, 0.0);
        assert!(t.events_by_label.is_empty());
    }
}
