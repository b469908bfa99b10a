//! The per-run telemetry summary stored alongside results.

use crate::sketch::{Hll, QuantileSketch};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A log2-bucketed latency histogram for handler wall times.
///
/// `buckets[i]` counts samples whose nanosecond value has bit length `i`
/// (so bucket 0 is exactly 0 ns, bucket 1 is 1 ns, bucket 11 is
/// 1.0–2.0 µs, …). The vector is grown on demand, keeping serialized
/// records small for fast handlers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WallHist {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub total_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
    /// Log2 bucket counts (see type docs).
    pub buckets: Vec<u64>,
}

impl WallHist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let idx = (64 - ns.leading_zeros()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Mean sample in nanoseconds.
    ///
    /// Edge contract: a histogram with zero samples reports 0.0 (not
    /// NaN), matching `Histogram::quantile`'s defined-empty convention.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Per-label mergeable sketches distilled from a run's observation
/// stream: quantile sketches for model-emitted values (`Ctx::observe`)
/// and HLLs for model-touched keys (`Ctx::touch`).
///
/// Everything here is a pure function of the simulated event sequence
/// (the sketches' bucket/register state is order-independent, and each
/// run records its observations in event order), so sketch-bearing
/// telemetry stays bitwise-identical across worker counts. Merging
/// across runs happens in the farm's ordered fold.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SketchSet {
    /// Quantile sketches by observation label.
    pub values: BTreeMap<String, QuantileSketch>,
    /// Distinct-key HLLs by touch label.
    pub distincts: BTreeMap<String, Hll>,
}

impl SketchSet {
    /// True when no observation of either kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty() && self.distincts.is_empty()
    }

    /// Merges another set label-wise; labels absent here are cloned in.
    pub fn merge(&mut self, other: &SketchSet) {
        for (label, sketch) in &other.values {
            match self.values.get_mut(label) {
                Some(s) => s.merge(sketch),
                None => {
                    self.values.insert(label.clone(), sketch.clone());
                }
            }
        }
        for (label, hll) in &other.distincts {
            match self.distincts.get_mut(label) {
                Some(h) => h.merge(hll),
                None => {
                    self.distincts.insert(label.clone(), hll.clone());
                }
            }
        }
    }
}

/// The wall-clock side of a run's telemetry, segregated from the
/// sim-derived fields so determinism tests can mask it: everything in
/// here varies run to run, nothing in here is derived from the
/// simulation's event sequence.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WallTelemetry {
    /// Wall-clock duration of the run, in microseconds.
    pub wall_us: u64,
    /// Per-handler wall-time histograms. Empty unless the engine was
    /// built with its `wall-time` feature.
    pub handlers: BTreeMap<String, WallHist>,
}

/// What one simulation run did: the summary a [`crate::SimProbe`]
/// distills from the event stream, attached to each result-store record.
///
/// Every field except [`RunTelemetry::wall`] is a pure function of the
/// simulated event sequence and therefore bitwise-identical across
/// worker counts and schedules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Events the run executed.
    pub events: u64,
    /// Simulated time reached when the run stopped, in seconds.
    pub horizon_s: f64,
    /// Deepest the future-event list got.
    pub peak_queue_depth: u64,
    /// Time-weighted mean pending-event count over the run.
    pub mean_queue_depth: f64,
    /// Why the engine returned (`"QueueEmpty"`, `"HorizonReached"`,
    /// `"StoppedByModel"`, `"EventBudgetExhausted"`).
    pub stop_reason: String,
    /// Events executed, by model-assigned label.
    pub events_by_label: BTreeMap<String, u64>,
    /// Model-emitted custom marks (see the engine's `Ctx::mark`).
    pub marks: BTreeMap<String, u64>,
    /// Future-event list the run used, recorded as provenance: always
    /// `"heap"` now that the binary heap is the only one. Older records
    /// may read `"calendar"` (a backend since removed) or `None` (written
    /// before the field existed). Never affects any simulation-derived
    /// field.
    pub queue: Option<String>,
    /// Mergeable per-label sketches (quantiles of `Ctx::observe` values,
    /// HLL cardinalities of `Ctx::touch` keys). `None` on records
    /// written before sketches existed, and on runs that observed
    /// nothing — both deserialize identically.
    pub sketches: Option<SketchSet>,
    /// Wall-clock measurements — the only nondeterministic fields.
    pub wall: WallTelemetry,
}

impl RunTelemetry {
    /// This telemetry with the wall-clock side zeroed — what determinism
    /// tests compare, since everything else is scheduling-independent.
    pub fn masked(&self) -> Self {
        let mut t = self.clone();
        t.mask_wall();
        t
    }

    /// Zeroes the wall-clock side in place.
    pub fn mask_wall(&mut self) {
        self.wall = WallTelemetry::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_hist_buckets_by_bit_length() {
        let mut h = WallHist::default();
        h.record(0);
        h.record(1);
        h.record(1500); // 11 bits
        h.record(1800); // 11 bits
        assert_eq!(h.count, 4);
        assert_eq!(h.max_ns, 1800);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[11], 2);
        assert!((h.mean_ns() - (3301.0 / 4.0)).abs() < 1e-9);
    }

    #[test]
    fn wall_hist_mean_of_zero_count_is_zero_not_nan() {
        let h = WallHist::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert!(!h.mean_ns().is_nan());
    }

    #[test]
    fn masked_zeroes_only_wall_fields() {
        let mut t = RunTelemetry {
            events: 10,
            horizon_s: 5.0,
            peak_queue_depth: 3,
            mean_queue_depth: 1.5,
            stop_reason: "HorizonReached".into(),
            ..RunTelemetry::default()
        };
        t.events_by_label.insert("NodeFail".into(), 10);
        t.wall.wall_us = 12345;
        t.wall
            .handlers
            .insert("NodeFail".into(), WallHist::default());
        let m = t.masked();
        assert_eq!(m.wall, WallTelemetry::default());
        assert_eq!(m.events, 10);
        assert_eq!(m.events_by_label, t.events_by_label);
        // Masking in place agrees.
        t.mask_wall();
        assert_eq!(t, m);
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = RunTelemetry {
            events: 42,
            horizon_s: 3.25,
            peak_queue_depth: 7,
            mean_queue_depth: 2.125,
            stop_reason: "QueueEmpty".into(),
            ..RunTelemetry::default()
        };
        t.events_by_label.insert("Arrival".into(), 40);
        t.events_by_label.insert("DiskDone".into(), 2);
        t.marks.insert("object_lost".into(), 1);
        t.wall.wall_us = 99;
        let mut set = SketchSet::default();
        let mut s = QuantileSketch::new();
        s.record(0.25);
        s.record(4.0);
        set.values.insert("rebuild_wait_s".into(), s);
        let mut h = Hll::new();
        h.insert(7);
        set.distincts.insert("objects_touched".into(), h);
        t.sketches = Some(set);
        let json = serde_json::to_string(&t).unwrap();
        let back: RunTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn pre_sketch_json_loads_with_none_sketches() {
        // A record serialized before the `sketches` field existed: the
        // field is simply absent, and must deserialize as `None` (the
        // same backward-compat contract `queue` honors).
        let json = r#"{
            "events": 5,
            "horizon_s": 1.5,
            "peak_queue_depth": 2,
            "mean_queue_depth": 0.5,
            "stop_reason": "HorizonReached",
            "events_by_label": {"NodeFail": 5},
            "marks": {},
            "queue": null,
            "wall": {"wall_us": 10, "handlers": {}}
        }"#;
        let t: RunTelemetry = serde_json::from_str(json).unwrap();
        assert_eq!(t.events, 5);
        assert_eq!(t.sketches, None);
    }
}
