//! Output statistics for simulation runs.
//!
//! * [`Tally`] — streaming mean/variance/min/max over observations (Welford).
//! * [`TimeWeighted`] — time-averaged level of a piecewise-constant signal
//!   (queue lengths, number of up replicas, ...).
//! * [`Histogram`] — log-bucketed histogram with quantile queries, for
//!   latency percentiles (p50/p95/p99) with bounded relative error.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Streaming mean/variance over individual observations, using Welford's
/// numerically stable update.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN observation");
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another tally into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant level, e.g. queue length.
///
/// Call [`TimeWeighted::set`] whenever the level changes; the integral of the
/// level over time divided by elapsed time is the time average.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    level: f64,
    last_change: SimTime,
    start: SimTime,
    integral: f64,
    max_level: f64,
    /// Integrated level and elapsed span folded in from merged gauges
    /// (other runs' windows); see [`TimeWeighted::merge`].
    merged_integral: f64,
    merged_span: f64,
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial `level`.
    pub fn new(start: SimTime, level: f64) -> Self {
        TimeWeighted {
            level,
            last_change: start,
            start,
            integral: 0.0,
            max_level: level,
            merged_integral: 0.0,
            merged_span: 0.0,
        }
    }

    /// Updates the level at time `now`.
    pub fn set(&mut self, now: SimTime, level: f64) {
        self.integral += self.level * now.since(self.last_change).as_secs();
        self.level = level;
        self.last_change = now;
        if level > self.max_level {
            self.max_level = level;
        }
    }

    /// Adds `delta` to the current level at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let next = self.level + delta;
        self.set(now, next);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Maximum level seen.
    pub fn max_level(&self) -> f64 {
        self.max_level
    }

    /// Time average of the level over `[start, now]`, plus any merged-in
    /// windows.
    pub fn average(&self, now: SimTime) -> f64 {
        let total = now.since(self.start).as_secs() + self.merged_span;
        if total == 0.0 {
            return self.level;
        }
        let integral = self.integral
            + self.merged_integral
            + self.level * now.since(self.last_change).as_secs();
        integral / total
    }

    /// Folds another gauge's fully-observed window `[other.start,
    /// other_end]` into this one, so [`TimeWeighted::average`] becomes the
    /// span-weighted average over both windows. The current level and
    /// `start` of `self` are untouched; only the integral, span, and max
    /// are combined. Used by the run farm to aggregate gauges across
    /// independent runs.
    pub fn merge(&mut self, other: &TimeWeighted, other_end: SimTime) {
        self.merged_integral += other.integral
            + other.merged_integral
            + other.level * other_end.since(other.last_change).as_secs();
        self.merged_span += other_end.since(other.start).as_secs() + other.merged_span;
        if other.max_level > self.max_level {
            self.max_level = other.max_level;
        }
    }
}

/// Log-bucketed histogram over non-negative values with quantile queries.
///
/// Buckets grow geometrically from `min_value`, giving a bounded relative
/// error per bucket (default ~5%). Values below `min_value` land in bucket 0,
/// values above the top bucket are clamped into the last.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    min_value: f64,
    growth: f64,
    log_growth: f64,
    counts: Vec<u64>,
    total: u64,
    tally: Tally,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A histogram suitable for latencies from ~1 µs up to ~10⁶ s with 5%
    /// relative bucket width.
    pub fn new() -> Self {
        Self::with_params(1e-6, 1.05, 600)
    }

    /// A histogram with explicit smallest bucket bound, geometric growth
    /// factor and bucket count.
    pub fn with_params(min_value: f64, growth: f64, buckets: usize) -> Self {
        assert!(min_value > 0.0 && growth > 1.0 && buckets > 1);
        Histogram {
            min_value,
            growth,
            log_growth: growth.ln(),
            counts: vec![0; buckets],
            total: 0,
            tally: Tally::new(),
        }
    }

    fn bucket_of(&self, x: f64) -> usize {
        if x < self.min_value {
            return 0;
        }
        let idx = ((x / self.min_value).ln() / self.log_growth) as usize + 1;
        idx.min(self.counts.len() - 1)
    }

    /// Upper bound of bucket `i` (representative value reported by quantiles).
    fn bucket_upper(&self, i: usize) -> f64 {
        if i == 0 {
            self.min_value
        } else {
            self.min_value * self.growth.powi(i as i32)
        }
    }

    /// Records one non-negative observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x >= 0.0 && !x.is_nan(), "bad histogram value {x}");
        let b = self.bucket_of(x);
        self.counts[b] += 1;
        self.total += 1;
        self.tally.record(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values (from the side tally, not the buckets).
    pub fn mean(&self) -> f64 {
        self.tally.mean()
    }

    /// Exact max of recorded values.
    pub fn max(&self) -> f64 {
        self.tally.max()
    }

    /// The `q`-quantile, accurate to one bucket width.
    ///
    /// Edge contract (shared with `wt_obs::QuantileSketch::quantile`):
    /// `q` outside `[0, 1]` clamps to the nearest bound (a NaN `q` is a
    /// caller bug, rejected in debug builds), and an empty histogram
    /// reports 0 for every quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!(!q.is_nan(), "NaN quantile");
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_upper(i);
            }
        }
        self.bucket_upper(self.counts.len() - 1)
    }

    /// Convenience: median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Convenience: 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Convenience: 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges another histogram with identical parameters.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.min_value == other.min_value
                && self.growth == other.growth
                && self.counts.len() == other.counts.len(),
            "histogram parameter mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.tally.merge(&other.tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
        assert_eq!(t.count(), 8);
        assert_eq!(t.sum(), 40.0);
    }

    #[test]
    fn tally_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn tally_merge_with_empty() {
        let mut a = Tally::new();
        a.record(3.0);
        let b = Tally::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Tally::new();
        c.merge(&a);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn time_weighted_average() {
        let t = |s| SimTime::from_secs(s);
        let mut w = TimeWeighted::new(t(0.0), 0.0);
        w.set(t(10.0), 2.0); // level 0 for 10s
        w.set(t(20.0), 4.0); // level 2 for 10s
                             // level 4 for 10s
        let avg = w.average(t(30.0));
        assert!((avg - (0.0 * 10.0 + 2.0 * 10.0 + 4.0 * 10.0) / 30.0).abs() < 1e-12);
        assert_eq!(w.max_level(), 4.0);
        assert_eq!(w.level(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let t = |s| SimTime::from_secs(s);
        let mut w = TimeWeighted::new(t(0.0), 1.0);
        w.add(t(5.0), 1.0);
        w.add(t(10.0), -2.0);
        assert_eq!(w.level(), 0.0);
        assert!((w.average(t(10.0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64 / 1000.0); // 0.001 .. 10.0
        }
        let p50 = h.p50();
        assert!((p50 - 5.0).abs() / 5.0 < 0.06, "p50 = {p50}");
        let p95 = h.p95();
        assert!((p95 - 9.5).abs() / 9.5 < 0.06, "p95 = {p95}");
        let p99 = h.p99();
        assert!((p99 - 9.9).abs() / 9.9 < 0.06, "p99 = {p99}");
        assert_eq!(h.count(), 10_000);
        assert!((h.mean() - 5.0005).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(0.0); // below min bucket
        h.record(1e12); // above max bucket — clamped
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0) > 0.0);
    }

    #[test]
    fn histogram_quantile_clamps_out_of_range_q() {
        // Empty: every q — in range or not — reports 0.
        let empty = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0.0);
        }
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        // Out-of-range q clamps to the nearest bound instead of panicking.
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NEG_INFINITY), h.quantile(0.0));
        assert_eq!(h.quantile(f64::INFINITY), h.quantile(1.0));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..500 {
            a.record(i as f64 + 1.0);
            b.record(i as f64 + 501.0);
        }
        let mut whole = Histogram::new();
        for i in 0..1000 {
            whole.record(i as f64 + 1.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p50(), whole.p50());
    }

    #[test]
    fn time_weighted_merge_is_span_weighted() {
        let t = |s| SimTime::from_secs(s);
        // Gauge A: level 2 over [0, 10] → integral 20.
        let mut a = TimeWeighted::new(t(0.0), 2.0);
        // Gauge B: level 6 over [0, 30] → integral 180.
        let b = TimeWeighted::new(t(0.0), 6.0);
        a.merge(&b, t(30.0));
        // Combined: (20 + 180) / (10 + 30) = 5.0.
        assert!((a.average(t(10.0)) - 5.0).abs() < 1e-12);
        assert_eq!(a.max_level(), 6.0);
        // A's own window keeps evolving after the merge.
        a.merge(&TimeWeighted::new(t(0.0), 0.0), t(0.0)); // empty window no-op
        assert!((a.average(t(10.0)) - 5.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn tally_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
            let mut t = Tally::new();
            for &x in &xs { t.record(x); }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((t.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((t.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }

        #[test]
        fn histogram_quantile_monotone(xs in proptest::collection::vec(0.0f64..1e4, 1..300)) {
            let mut h = Histogram::new();
            for &x in &xs { h.record(x); }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            for w in qs.windows(2) {
                prop_assert!(h.quantile(w[0]) <= h.quantile(w[1]));
            }
        }

        #[test]
        fn histogram_quantile_within_range(xs in proptest::collection::vec(1e-3f64..1e4, 1..300)) {
            let mut h = Histogram::new();
            for &x in &xs { h.record(x); }
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(0.0, f64::max);
            // Quantiles report bucket upper bounds: allow one bucket of slack.
            prop_assert!(h.quantile(0.5) >= lo * 0.9);
            prop_assert!(h.quantile(0.5) <= hi * 1.1);
        }
    }
}
