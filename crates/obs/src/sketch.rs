//! Mergeable, fixed-size sketches: distinct counts and quantiles in O(1)
//! memory per metric.
//!
//! The farm aggregates statistics shard → ordered fold → sweep point, so
//! every summary it carries must honor the same contract `Tally` and
//! `Histogram` pin in `wt-des`: `merge` is associative, commutative, and
//! a pure function of the observation multiset — the result is
//! bitwise-identical for any worker count or merge tree. Retained-sample
//! percentiles break that contract's *memory* half (they grow with the
//! event count); these two sketches restore it:
//!
//! * [`Hll`] — HyperLogLog distinct counter. A fixed array of 2^p 6-bit
//!   ranks (stored as bytes); `merge` is register-wise max. Standard
//!   error ≈ 1.04/√2^p — about 1.6% at the default precision 12
//!   (4 KiB of registers).
//! * [`QuantileSketch`] — DDSketch-style relative-error quantile sketch.
//!   Geometric buckets `(γ^(i-1), γ^i]` with γ = (1+α)/(1−α) guarantee
//!   every reported quantile is within relative error α of the exact
//!   sample quantile at the same rank. A collapsing bound caps the
//!   bucket count; collapse is *canonical* (fold everything below the
//!   m-th-highest distinct bucket into that bucket), which keeps `merge`
//!   a pure function of the union multiset even across pre-collapsed
//!   inputs.
//!
//! Both types serde-round-trip exactly: every stored float is either an
//! input parameter or a sum of inputs, and the vendored `serde_json`
//! prints shortest-round-trip floats.

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// HyperLogLog
// ---------------------------------------------------------------------------

/// Default HLL precision: 2^12 = 4096 registers, ~1.6% standard error.
pub const HLL_DEFAULT_PRECISION: u8 = 12;

/// HyperLogLog distinct counter over `u64` keys.
///
/// Keys are scrambled through a 64-bit finalizer before use, so
/// structured inputs (sequential object ids) estimate as well as random
/// ones. Two sketches of the same precision merge by register-wise max:
/// the merge of any partition of a key stream equals the sketch of the
/// whole stream, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hll {
    precision: u8,
    registers: Vec<u8>,
}

impl Default for Hll {
    fn default() -> Self {
        Self::new()
    }
}

/// The splitmix64 finalizer: a full-avalanche 64-bit scrambler.
fn scramble(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Hll {
    /// An empty sketch at [`HLL_DEFAULT_PRECISION`].
    pub fn new() -> Self {
        Self::with_precision(HLL_DEFAULT_PRECISION)
    }

    /// An empty sketch with `2^precision` registers (`4 ≤ precision ≤ 16`).
    pub fn with_precision(precision: u8) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "HLL precision {precision} outside 4..=16"
        );
        Hll {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// Register-array precision.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Inserts one key (idempotent: re-inserting changes nothing).
    #[inline]
    pub fn insert(&mut self, key: u64) {
        let h = scramble(key);
        let idx = (h >> (64 - self.precision)) as usize;
        // Rank of the first set bit in the remaining 64-p bits (1-based);
        // an all-zero remainder gets the maximum rank 64-p+1.
        let rest = h << self.precision;
        let rank = if rest == 0 {
            64 - self.precision + 1
        } else {
            rest.leading_zeros() as u8 + 1
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// True when no key has ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Estimated number of distinct keys inserted.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let mut sum = 0.0;
        let mut zeros = 0u32;
        for &r in &self.registers {
            sum += f64::powi(2.0, -(r as i32));
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting while registers are
        // mostly empty (the raw estimator biases high there).
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Register-wise max merge. The result equals the sketch of the
    /// concatenated key streams, regardless of split or order.
    pub fn merge(&mut self, other: &Hll) {
        assert_eq!(
            self.precision, other.precision,
            "HLL precision mismatch in merge"
        );
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Heap + inline footprint in bytes (for overhead reporting).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.registers.capacity()
    }
}

// ---------------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------------

/// Default relative accuracy: quantiles within 1% of the exact value.
pub const SKETCH_DEFAULT_ALPHA: f64 = 0.01;

/// Default collapsing bound (DDSketch's own default). 2048 buckets at
/// α = 1% span a value ratio of γ^2048 ≈ e^41 ≈ 6·10^17 before any
/// collapsing starts — nanoseconds to days with room to spare — while
/// capping the parallel vectors at ~24 KiB.
pub const SKETCH_DEFAULT_MAX_BUCKETS: usize = 2048;

/// DDSketch-style quantile sketch with relative-error guarantee α and a
/// canonical collapsing bound.
///
/// Values ≤ 0 (and denormally small positives) land in a dedicated zero
/// bucket and report as 0. Everything else maps to bucket
/// `i = ceil(ln(x)/ln γ)`, whose representative value `2γ^i/(γ+1)` is
/// within relative error α of every value in the bucket.
///
/// `merge` sums bucket counts and re-applies the canonical collapse, so
/// any merge tree over any partition of the observations yields the same
/// bytes — the contract the farm's ordered fold relies on.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Relative accuracy α.
    alpha: f64,
    /// Bucket base γ = (1+α)/(1−α), stored so the mapping never depends
    /// on recomputation (f64 round-trips exactly through our JSON).
    gamma: f64,
    /// Collapsing bound on the number of distinct non-zero buckets.
    max_buckets: usize,
    /// Distinct bucket indices, ascending.
    keys: Vec<i32>,
    /// Count per bucket, parallel to `keys` (parallel vectors rather
    /// than a map: JSON object keys must be strings).
    counts: Vec<u64>,
    /// Observations at or below zero.
    zero_count: u64,
    /// Total observations (including zeros).
    count: u64,
    /// Sum of all observations.
    sum: f64,
    /// Smallest observation (+inf when empty).
    min: f64,
    /// Largest observation (−inf when empty).
    max: f64,
    // --- Transient acceleration state: derived from the fields above,
    // --- excluded from PartialEq and serde (see the manual impls below).
    /// 1/ln γ, so the hot `key_of` is a multiply instead of an `ln`.
    inv_ln_gamma: f64,
    /// Exclusive lower bound of the last-touched bucket, shrunk a hair
    /// inside the true bucket so a cache hit can never misattribute a
    /// boundary value (+inf when invalid).
    cache_lo: f64,
    /// Inclusive upper bound of the last-touched bucket, shrunk likewise
    /// (−inf when invalid).
    cache_hi: f64,
    /// Position of that bucket in `keys`/`counts`. Only valid while no
    /// insert/collapse/merge has shifted positions — all of which go
    /// through the slow path, which refreshes or invalidates the cache.
    cache_pos: usize,
    /// Key of the last slow-path bucket: bounds are only computed (they
    /// cost a `powi`) when the same bucket misses twice running, so
    /// scattered streams never pay for a cache they would not hit.
    cache_key: i32,
}

/// Equality is over the logical sketch state only — the transient
/// acceleration fields are derived and never serialized, so two sketches
/// that saw the same observations compare equal regardless of access
/// pattern (e.g. before vs after a serde round-trip).
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.alpha == other.alpha
            && self.gamma == other.gamma
            && self.max_buckets == other.max_buckets
            && self.keys == other.keys
            && self.counts == other.counts
            && self.zero_count == other.zero_count
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

// Manual serde: the wire format is exactly the ten logical fields the
// derive used to emit (same names, same order), keeping every JSONL
// record readable across this change; the acceleration fields are
// rebuilt on load.
impl Serialize for QuantileSketch {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("alpha".into(), self.alpha.to_value()),
            ("gamma".into(), self.gamma.to_value()),
            ("max_buckets".into(), self.max_buckets.to_value()),
            ("keys".into(), self.keys.to_value()),
            ("counts".into(), self.counts.to_value()),
            ("zero_count".into(), self.zero_count.to_value()),
            ("count".into(), self.count.to_value()),
            ("sum".into(), self.sum.to_value()),
            ("min".into(), self.min.to_value()),
            ("max".into(), self.max.to_value()),
        ])
    }
}

impl Deserialize for QuantileSketch {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| -> Result<&serde::Value, serde::Error> {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("QuantileSketch missing `{name}`")))
        };
        let gamma = f64::from_value(field("gamma")?)?;
        Ok(QuantileSketch {
            alpha: f64::from_value(field("alpha")?)?,
            gamma,
            max_buckets: usize::from_value(field("max_buckets")?)?,
            keys: Vec::<i32>::from_value(field("keys")?)?,
            counts: Vec::<u64>::from_value(field("counts")?)?,
            zero_count: u64::from_value(field("zero_count")?)?,
            count: u64::from_value(field("count")?)?,
            sum: f64::from_value(field("sum")?)?,
            min: f64::from_value(field("min")?)?,
            max: f64::from_value(field("max")?)?,
            inv_ln_gamma: gamma.ln().recip(),
            cache_lo: f64::INFINITY,
            cache_hi: f64::NEG_INFINITY,
            cache_pos: 0,
            cache_key: i32::MIN,
        })
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Mantissa-split table for the fast bucket mapping: entry `i` holds
/// `(1/m_hi, ln m_hi)` for `m_hi = 1 + i/256`, so a mantissa `m` in
/// `[m_hi, m_hi + 1/256)` decomposes as `ln m = ln m_hi + ln(m/m_hi)`
/// with the residual ratio within `2^−8` of 1.
static LOG_TABLE: std::sync::LazyLock<[(f64, f64); 256]> = std::sync::LazyLock::new(|| {
    std::array::from_fn(|i| {
        let m_hi = 1.0 + i as f64 / 256.0;
        let inv = 1.0 / m_hi;
        (inv, -inv.ln())
    })
});

impl QuantileSketch {
    /// An empty sketch at [`SKETCH_DEFAULT_ALPHA`] accuracy.
    pub fn new() -> Self {
        Self::with_accuracy(SKETCH_DEFAULT_ALPHA, SKETCH_DEFAULT_MAX_BUCKETS)
    }

    /// An empty sketch with explicit relative accuracy and bucket bound.
    pub fn with_accuracy(alpha: f64, max_buckets: usize) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "relative accuracy {alpha} outside (0, 1)"
        );
        assert!(max_buckets >= 2, "need at least 2 buckets");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma,
            max_buckets,
            keys: Vec::new(),
            counts: Vec::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            inv_ln_gamma: gamma.ln().recip(),
            cache_lo: f64::INFINITY,
            cache_hi: f64::NEG_INFINITY,
            cache_pos: 0,
            cache_key: i32::MIN,
        }
    }

    /// Configured relative accuracy α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Bucket index of a positive value: `ceil(ln x / ln γ)`.
    ///
    /// The defining expression is [`Self::key_of_exact`]; this fast path
    /// computes the same integer from the float's bit pattern — mantissa
    /// split against a 256-entry log table plus a short `ln(1+r)` series
    /// — and defers to the exact expression whenever the approximation
    /// lands within 1e−6 of a bucket boundary. The combined error of the
    /// table decomposition and series truncation is below 1e−10 in key
    /// units, four orders of magnitude inside that guard band, so the
    /// two paths can never disagree on a key.
    fn key_of(&self, x: f64) -> i32 {
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32;
        // Subnormals and non-finite values: callers exclude them, but
        // the mantissa decomposition below would mangle them silently.
        if exp == 0 || exp == 0x7ff {
            return self.key_of_exact(x);
        }
        let (inv, ln_hi) = LOG_TABLE[((bits >> 44) & 0xff) as usize];
        let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
        // m = m_hi · (1 + r) with r ∈ [0, 2^−8): ln m = ln m_hi + ln(1+r).
        let r = m * inv - 1.0;
        let ln_m = ln_hi + r * (1.0 - r * (0.5 - r * (1.0 / 3.0 - r * 0.25)));
        let k = ((exp - 1023) as f64 * core::f64::consts::LN_2 + ln_m) * self.inv_ln_gamma;
        let kc = k.ceil();
        if kc - k > 1e-6 && k - (kc - 1.0) > 1e-6 {
            kc as i32
        } else {
            self.key_of_exact(x)
        }
    }

    /// The reference bucket mapping (the slow, obviously-correct form).
    fn key_of_exact(&self, x: f64) -> i32 {
        (x.ln() * self.inv_ln_gamma).ceil() as i32
    }

    /// Representative value of bucket `key`: the γ-midpoint of
    /// `(γ^(k-1), γ^k]`, within relative error α of the whole bucket.
    fn value_of(&self, key: i32) -> f64 {
        2.0 * self.gamma.powi(key) / (self.gamma + 1.0)
    }

    /// Records one observation. The hot path is the bucket cache:
    /// simulation observations (request latencies, rebuild durations)
    /// cluster heavily, so the last-touched bucket usually absorbs the
    /// next value with two compares and an increment, no logarithm.
    ///
    /// `#[inline]` (like on [`Self::record_n`] and [`Hll::insert`]): the
    /// fast path is a handful of instructions recorded from other
    /// crates' per-event hot loops, and the workspace builds without
    /// LTO, so without the hint every observation would pay a full
    /// cross-crate call.
    #[inline]
    pub fn record(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN observation");
        self.count += 1;
        self.sum += x;
        // Branchless (minsd/maxsd); identical for the non-NaN inputs the
        // debug_assert admits.
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x > self.cache_lo && x <= self.cache_hi {
            self.counts[self.cache_pos] += 1;
            return;
        }
        self.record_slow(x, 1);
    }

    /// Records the same observation `n` times in one step — the bucket
    /// bookkeeping is per distinct value, so batching identical values
    /// (e.g. a wave of rebuilds started by the same event) costs the same
    /// as one record. Equivalent to `n` calls of [`Self::record`] except
    /// that `sum` accrues `x·n` in a single operation, whose last bits
    /// can differ from `n` separate additions.
    #[inline]
    pub fn record_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(!x.is_nan(), "NaN observation");
        self.count += n;
        self.sum += x * n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x > self.cache_lo && x <= self.cache_hi {
            self.counts[self.cache_pos] += n;
            return;
        }
        self.record_slow(x, n);
    }

    /// Cache-miss path of [`Self::record`]: the value's own bucket
    /// membership (and any structural change to the bucket vectors)
    /// happens here, then the cache is pointed at the touched bucket.
    #[cold]
    fn record_slow(&mut self, x: f64, n: u64) {
        // Subnormals underflow ln(); anything that small is zero here.
        if x < f64::MIN_POSITIVE {
            self.zero_count += n;
            return;
        }
        let key = self.key_of(x);
        // Position hint before the binary search: ramping streams (e.g.
        // queueing waits climbing through a burst) land on the last
        // touched position or its right neighbor far more often than not.
        let hint = self.cache_pos;
        if self.keys.get(hint) == Some(&key) {
            self.counts[hint] += n;
            self.note_bucket(key, hint);
            return;
        }
        if self.keys.get(hint + 1) == Some(&key) {
            self.counts[hint + 1] += n;
            self.note_bucket(key, hint + 1);
            return;
        }
        match self.keys.binary_search(&key) {
            Ok(i) => {
                self.counts[i] += n;
                self.note_bucket(key, i);
            }
            Err(i) => {
                self.keys.insert(i, key);
                self.counts.insert(i, n);
                if self.keys.len() > self.max_buckets {
                    self.collapse();
                    self.invalidate_cache();
                } else {
                    self.note_bucket(key, i);
                }
            }
        }
    }

    /// Remembers the slow-path bucket just touched. Bounds (a `powi`)
    /// are only computed on the second consecutive touch of the same
    /// bucket: clustered streams arm the cache once and then hit it,
    /// while scattered streams never pay the bounds computation.
    fn note_bucket(&mut self, key: i32, pos: usize) {
        if key == self.cache_key {
            self.set_cache(key, pos);
        } else {
            self.cache_key = key;
            self.cache_lo = f64::INFINITY;
            self.cache_hi = f64::NEG_INFINITY;
            // Keep the position current even unarmed: the slow path uses
            // it as a search hint (guarded by a key compare, so a stale
            // value costs two compares, never a wrong bucket).
            self.cache_pos = pos;
        }
    }

    /// Points the bucket cache at bucket `key` (position `pos`). The
    /// cached interval is the true bucket `(γ^(k−1), γ^k]` shrunk by a
    /// relative 1e−9 on both ends: `powi` rounding and `key_of`'s own
    /// evaluation noise are both orders of magnitude below that margin,
    /// so any value inside the cached interval is guaranteed to map to
    /// `key` — a hit can never disagree with the slow path.
    fn set_cache(&mut self, key: i32, pos: usize) {
        let hi = self.gamma.powi(key);
        self.cache_lo = (hi / self.gamma) * (1.0 + 1e-9);
        self.cache_hi = hi * (1.0 - 1e-9);
        self.cache_pos = pos;
    }

    /// Forgets the cached bucket (positions shifted or were rebuilt).
    fn invalidate_cache(&mut self) {
        self.cache_lo = f64::INFINITY;
        self.cache_hi = f64::NEG_INFINITY;
        self.cache_pos = 0;
        self.cache_key = i32::MIN;
    }

    /// Canonical collapse: fold every bucket below the `max_buckets`-th
    /// highest distinct key into that key. Applied after every insert and
    /// merge, so a sketch's bytes are a pure function of its observation
    /// multiset — the property that makes `merge` order-independent.
    fn collapse(&mut self) {
        if self.keys.len() <= self.max_buckets {
            return;
        }
        let cut = self.keys.len() - self.max_buckets;
        let folded: u64 = self.counts[..=cut].iter().sum();
        self.keys.drain(..cut);
        self.counts.drain(..cut);
        self.counts[0] = folded;
    }

    /// Number of observations (including zeros).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest observation (−inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Distinct non-zero buckets currently held.
    pub fn buckets(&self) -> usize {
        self.keys.len()
    }

    /// The `q`-quantile. `q` is clamped into [0, 1]; an empty sketch
    /// reports 0 — the same conventions `Histogram::quantile` defines.
    ///
    /// Uses the rank `ceil(q·n)` (1-based, minimum 1), matching an exact
    /// oracle `sorted[ceil(q·n).max(1) - 1]`; the reported value is
    /// within relative error α of that oracle (collapsed buckets
    /// excepted).
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!(!q.is_nan(), "NaN quantile");
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        if rank <= self.zero_count {
            return 0.0;
        }
        let mut seen = self.zero_count;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.value_of(self.keys[i]);
            }
        }
        // All counts seen (rank == count rounding edge): top bucket.
        match self.keys.last() {
            Some(&k) => self.value_of(k),
            None => 0.0,
        }
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

    /// Convenience: 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Merges another sketch with identical parameters. The bucket
    /// state (keys, counts, zeros, min, max) is a pure function of the
    /// observation multiset — even when the inputs already collapsed,
    /// because counts only ever fold *downward* into keys that stay
    /// below every later collapse cut. `sum` rounds per f64 addition
    /// order, so merge in a fixed order for bitwise-identical bytes —
    /// the same contract `Tally::merge` pins, honored by the farm's
    /// ordered fold.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha == other.alpha && self.max_buckets == other.max_buckets,
            "quantile sketch parameter mismatch in merge"
        );
        if other.count == 0 {
            return;
        }
        // Two-pointer merge of the sorted key lists.
        let mut keys = Vec::with_capacity(self.keys.len() + other.keys.len());
        let mut counts = Vec::with_capacity(keys.capacity());
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() || j < other.keys.len() {
            let take_self =
                j >= other.keys.len() || (i < self.keys.len() && self.keys[i] <= other.keys[j]);
            if take_self {
                let k = self.keys[i];
                let mut c = self.counts[i];
                i += 1;
                if j < other.keys.len() && other.keys[j] == k {
                    c += other.counts[j];
                    j += 1;
                }
                keys.push(k);
                counts.push(c);
            } else {
                keys.push(other.keys[j]);
                counts.push(other.counts[j]);
                j += 1;
            }
        }
        self.keys = keys;
        self.counts = counts;
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.collapse();
        self.invalidate_cache();
    }

    /// Heap + inline footprint in bytes (for overhead reporting).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.capacity() * std::mem::size_of::<i32>()
            + self.counts.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_key_mapping_matches_exact() {
        let s = QuantileSketch::new();
        // Magnitude sweep across the full normal range.
        let mut x = 1e-300;
        while x < 1e300 {
            assert_eq!(s.key_of(x), s.key_of_exact(x), "x={x}");
            x *= 1.618_033_988_749;
        }
        // Values engineered onto and around bucket boundaries, where the
        // fast path must defer to the exact expression.
        for k in -600..600 {
            let b = s.gamma.powi(k);
            for d in [-1e-7, -1e-12, 0.0, 1e-12, 1e-7] {
                let v = b * (1.0 + d);
                if v.is_finite() && v >= f64::MIN_POSITIVE {
                    assert_eq!(s.key_of(v), s.key_of_exact(v), "v={v}");
                }
            }
        }
    }

    #[test]
    fn record_n_matches_repeated_records() {
        let mut batched = QuantileSketch::new();
        let mut single = QuantileSketch::new();
        for &(x, n) in &[
            (0.5, 3u64),
            (12.0, 1),
            (0.0, 2),
            (12.0, 5),
            (1e-310, 4),
            (0.5, 2),
        ] {
            batched.record_n(x, n);
            for _ in 0..n {
                single.record(x);
            }
        }
        batched.record_n(9.9, 0); // no-op
        assert_eq!(batched.count(), single.count());
        assert_eq!(batched.min(), single.min());
        assert_eq!(batched.max(), single.max());
        // Sums agree up to addition-order rounding (x·n vs n additions).
        assert!((batched.sum() - single.sum()).abs() <= 1e-9 * single.sum().abs());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(batched.quantile(q), single.quantile(q), "q={q}");
        }
    }

    #[test]
    fn hll_empty_estimates_zero() {
        let h = Hll::new();
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn hll_accuracy_within_two_percent() {
        // Standard error at precision 12 is ~1.6%; small n rides the
        // linear-counting path whose fluctuation can reach ~2σ.
        for &(n, tol) in &[(100u64, 0.04), (10_000, 0.02), (100_000, 0.02)] {
            let mut h = Hll::new();
            for k in 0..n {
                h.insert(k);
            }
            let est = h.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < tol, "n={n}: estimate {est}, rel error {rel}");
        }
    }

    #[test]
    fn hll_insert_is_idempotent() {
        let mut a = Hll::new();
        let mut b = Hll::new();
        for k in 0..1000u64 {
            a.insert(k);
            b.insert(k);
            b.insert(k); // duplicates change nothing
        }
        assert_eq!(a, b);
    }

    #[test]
    fn hll_merge_equals_union() {
        let mut whole = Hll::new();
        let mut a = Hll::new();
        let mut b = Hll::new();
        for k in 0..5000u64 {
            whole.insert(k);
            // Overlapping halves: merge must still equal the union sketch.
            if k < 3000 {
                a.insert(k);
            }
            if k >= 2000 {
                b.insert(k);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn hll_merge_rejects_precision_mismatch() {
        let mut a = Hll::with_precision(10);
        a.merge(&Hll::with_precision(12));
    }

    #[test]
    fn quantile_sketch_empty_and_clamping() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(-1.0), 0.0);
        assert_eq!(s.quantile(2.0), 0.0);
        let mut s = QuantileSketch::new();
        s.record(5.0);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(s.quantile(-0.5), s.quantile(0.0));
        assert_eq!(s.quantile(1.5), s.quantile(1.0));
    }

    #[test]
    fn quantile_sketch_zero_and_negative_bucket() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(0.0);
        s.record(10.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.5), 0.0);
        let p100 = s.quantile(1.0);
        assert!((p100 - 10.0).abs() / 10.0 < 0.01, "p100 = {p100}");
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn quantile_sketch_relative_error() {
        let mut s = QuantileSketch::new();
        let mut xs: Vec<f64> = Vec::new();
        // Deterministic skewed data spanning 5 decades.
        let mut u = 0.37f64;
        for _ in 0..20_000 {
            u = (u * 997.0 + 0.123).fract();
            let x = 1e-4 * (u * 11.5).exp();
            xs.push(x);
            s.record(x);
        }
        xs.sort_by(f64::total_cmp);
        for &q in &[0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((q * xs.len() as f64).ceil().max(1.0)) as usize;
            let exact = xs[rank - 1];
            let est = s.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= s.alpha() * 1.01 + 1e-12,
                "q={q}: est {est}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn quantile_sketch_merge_equals_whole_and_commutes() {
        let mut whole = QuantileSketch::new();
        let mut parts: Vec<QuantileSketch> = (0..4).map(|_| QuantileSketch::new()).collect();
        // Integer-valued observations keep every f64 sum exact, so the
        // sequential sketch and any merge order agree bit for bit.
        for i in 0..8000u64 {
            let x = (i.wrapping_mul(2_654_435_761) % 100_000 + 1) as f64;
            whole.record(x);
            parts[(i % 4) as usize].record(x);
        }
        // Left fold in order.
        let mut fwd = parts[0].clone();
        for p in &parts[1..] {
            fwd.merge(p);
        }
        // Reverse fold.
        let mut rev = parts[3].clone();
        for p in parts[..3].iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
    }

    #[test]
    fn quantile_sketch_collapse_is_canonical() {
        // Tiny bound so collapsing definitely fires, in different orders.
        let make = || QuantileSketch::with_accuracy(0.05, 8);
        // Exact integer squares span ~200 buckets at α = 5% while keeping
        // sums order-independent.
        let xs: Vec<f64> = (1..=200).map(|i: i64| (i * i * 40_000) as f64).collect();
        let mut whole = make();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = make();
        let mut b = make();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(
            ab, whole,
            "collapse must be a pure function of the multiset"
        );
        assert_eq!(ba, whole);
        assert!(whole.buckets() <= 8);
        assert_eq!(whole.count(), 200);
    }

    #[test]
    #[should_panic(expected = "parameter mismatch")]
    fn quantile_sketch_merge_rejects_mismatch() {
        let mut a = QuantileSketch::with_accuracy(0.01, 512);
        a.merge(&QuantileSketch::with_accuracy(0.02, 512));
    }

    #[test]
    fn serde_roundtrips_exactly() {
        let mut s = QuantileSketch::new();
        let mut h = Hll::new();
        let mut u = 0.29f64;
        for k in 0..2000u64 {
            u = (u * 997.0 + 0.123).fract();
            s.record(u * 123.456);
            h.insert(k.wrapping_mul(0x9e37_79b9));
        }
        s.record(0.0);
        let s2: QuantileSketch = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s2, s);
        let h2: Hll = serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(h2, h);
    }

    #[test]
    fn sketch_sizes_are_fixed() {
        let mut s = QuantileSketch::new();
        let mut h = Hll::new();
        for i in 0..100_000u64 {
            s.record(1e-3 + (i % 977) as f64);
            h.insert(i);
        }
        // 4096 one-byte registers plus the struct itself.
        assert!(h.size_bytes() < 5 * 1024, "hll {} bytes", h.size_bytes());
        // At most max_buckets entries in each parallel vec.
        assert!(
            s.size_bytes() < 32 * 1024,
            "quantile sketch {} bytes",
            s.size_bytes()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn quantile_within_configured_relative_error(
            xs in proptest::collection::vec(1e-6f64..1e6, 1..400),
        ) {
            let mut s = QuantileSketch::new();
            for &x in &xs { s.record(x); }
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            for &q in &[0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil().max(1.0)) as usize;
                let exact = sorted[rank - 1];
                let est = s.quantile(q);
                let rel = (est - exact).abs() / exact;
                prop_assert!(
                    rel <= s.alpha() * 1.01 + 1e-12,
                    "q={}: est {}, exact {}, rel {}", q, est, exact, rel
                );
            }
        }

        #[test]
        fn quantile_monotone_in_q(
            xs in proptest::collection::vec(1e-6f64..1e6, 1..200),
        ) {
            let mut s = QuantileSketch::new();
            for &x in &xs { s.record(x); }
            let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            for w in qs.windows(2) {
                prop_assert!(s.quantile(w[0]) <= s.quantile(w[1]));
            }
        }

        #[test]
        fn quantile_merge_any_split_matches_whole(
            xs in proptest::collection::vec(1u32..1_000_000, 2..300),
            cut in 0usize..299,
        ) {
            // Integer-valued observations keep sums exact, so split+merge
            // must reproduce the sequential sketch bit for bit.
            let cut = cut % xs.len();
            let mut whole = QuantileSketch::new();
            let mut a = QuantileSketch::new();
            let mut b = QuantileSketch::new();
            for (i, &x) in xs.iter().enumerate() {
                whole.record(x as f64);
                if i < cut { a.record(x as f64); } else { b.record(x as f64); }
            }
            a.merge(&b);
            prop_assert_eq!(a, whole);
        }

        #[test]
        fn hll_estimate_within_bounds(n in 1u64..20_000) {
            let mut h = Hll::new();
            for k in 0..n {
                h.insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d));
            }
            let est = h.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            // ~3σ of the 1.6% standard error at precision 12.
            prop_assert!(rel < 0.05, "n={}: est {}, rel {}", n, est, rel);
        }

        #[test]
        fn hll_merge_any_split_matches_whole(
            keys in proptest::collection::vec(0u64..u64::MAX, 1..500),
            cut in 0usize..499,
        ) {
            let cut = cut % keys.len();
            let mut whole = Hll::new();
            let mut a = Hll::new();
            let mut b = Hll::new();
            for (i, &k) in keys.iter().enumerate() {
                whole.insert(k);
                if i < cut { a.insert(k); } else { b.insert(k); }
            }
            a.merge(&b);
            prop_assert_eq!(a, whole);
        }
    }
}
