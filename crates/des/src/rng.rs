//! Deterministic, labeled random-number streams.
//!
//! Every stochastic model component draws from its own [`Stream`], derived
//! from the run's root seed plus a stable label (e.g. `"disk.fail.17"`).
//! This gives two properties the wind tunnel relies on:
//!
//! * **Reproducibility** — the same seed yields the same trace, on every
//!   platform, regardless of the `rand` crate version (the generator is
//!   implemented here, not imported).
//! * **Common random numbers** — adding a new model component creates a new
//!   stream without perturbing the draws of existing components, so paired
//!   what-if comparisons (same seed, one config knob changed) see reduced
//!   variance, a standard variance-reduction technique in DES.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, the combination
//! recommended by its authors.

use rand::RngCore;

/// SplitMix64 step; used to expand seeds into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, for deriving per-stream seeds.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A xoshiro256++ pseudo-random stream. Implements [`rand::RngCore`], so all
/// of `rand`'s `Rng` extension methods work on it.
#[derive(Debug, Clone)]
pub struct Stream {
    s: [u64; 4],
}

impl Stream {
    /// Creates a stream directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is invalid for xoshiro; splitmix cannot produce
        // four zeros from any input, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Stream { s }
    }

    /// Next raw 64-bit output.
    #[allow(clippy::should_implement_trait)] // deliberate: the canonical xoshiro step name
    #[inline]
    pub fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in open `(0, 1)` — safe to pass to `ln()`.
    #[inline]
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform integer in `[0, n)`. Uses rejection to avoid modulo bias.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next();
            if v < zone {
                return v % n;
            }
        }
    }

    /// A uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// A Bernoulli draw with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    /// Uses Floyd's algorithm: O(k) expected draws.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        self.sample_indices_into(n, k, &mut chosen);
        chosen
    }

    /// [`sample_indices`](Self::sample_indices) into a caller-owned buffer
    /// (cleared first) — the allocation-free path bulk construction uses.
    /// Identical draw sequence to `sample_indices`.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        out.clear();
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        self.shuffle(out);
    }
}

impl RngCore for Stream {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Derives independent [`Stream`]s from a root seed and stable labels.
#[derive(Debug, Clone)]
pub struct RngFactory {
    root: u64,
}

impl RngFactory {
    /// A factory whose streams are all functions of `root_seed`.
    pub fn new(root_seed: u64) -> Self {
        RngFactory { root: root_seed }
    }

    /// The stream for `label`. Calling twice with the same label returns an
    /// identical (freshly positioned) stream — hold on to the stream if you
    /// need consecutive draws.
    pub fn stream(&self, label: &str) -> Stream {
        // Mix the root and the label hash through splitmix so that labels
        // differing in one bit yield unrelated streams.
        let mut sm = self.root ^ fnv1a(label).rotate_left(17);
        let seed = splitmix64(&mut sm);
        Stream::from_seed(seed)
    }

    /// A numbered sub-stream, convenient for per-entity streams
    /// (`factory.numbered("disk.fail", disk_id)`).
    pub fn numbered(&self, label: &str, n: u64) -> Stream {
        let mut sm =
            self.root ^ fnv1a(label).rotate_left(17) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = splitmix64(&mut sm);
        Stream::from_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(42);
        let mut a = f.stream("disk");
        let mut b = f.stream("disk");
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_labels_different_streams() {
        let f = RngFactory::new(42);
        let mut a = f.stream("disk");
        let mut b = f.stream("nic");
        let same = (0..100).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = RngFactory::new(1).stream("x");
        let mut b = RngFactory::new(2).stream("x");
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn numbered_streams_are_distinct() {
        let f = RngFactory::new(7);
        let mut a = f.numbered("disk.fail", 0);
        let mut b = f.numbered("disk.fail", 1);
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut s = Stream::from_seed(9);
        for _ in 0..10_000 {
            let u = s.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut s = Stream::from_seed(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| s.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn below_is_unbiased_range() {
        let mut s = Stream::from_seed(3);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[s.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts skewed: {counts:?}");
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut s = Stream::from_seed(5);
        for _ in 0..200 {
            let v = s.sample_indices(30, 10);
            assert_eq!(v.len(), 10);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 10, "duplicates in {v:?}");
            assert!(v.iter().all(|&i| i < 30));
        }
    }

    #[test]
    fn sample_indices_full_set() {
        let mut s = Stream::from_seed(5);
        let mut v = s.sample_indices(5, 5);
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut s = Stream::from_seed(1);
        let mut buf = [0u8; 13];
        s.fill_bytes(&mut buf);
        // Not all zero with overwhelming probability.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut s = Stream::from_seed(2);
        let mut v: Vec<u32> = (0..50).collect();
        s.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice sorted (p ~ 1/50!)");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn below_always_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
            let mut s = Stream::from_seed(seed);
            for _ in 0..50 {
                prop_assert!(s.below(n) < n);
            }
        }

        #[test]
        fn sample_indices_always_distinct(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
            let k = ((n as f64) * frac) as usize;
            let mut s = Stream::from_seed(seed);
            let v = s.sample_indices(n, k);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k);
        }

        #[test]
        fn streams_are_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
            let f = RngFactory::new(seed);
            let a: Vec<u64> = { let mut s = f.stream(&label); (0..20).map(|_| s.next()).collect() };
            let b: Vec<u64> = { let mut s = f.stream(&label); (0..20).map(|_| s.next()).collect() };
            prop_assert_eq!(a, b);
        }
    }
}
