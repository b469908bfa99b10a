//! Zipfian key popularity — the skew that makes multi-tenant interference
//! interesting.
//!
//! Implements the Gray et al. ("Quickly generating billion-record synthetic
//! databases", SIGMOD'94) constant-time Zipf sampler that YCSB popularized,
//! for exponent `theta ∈ [0, 1)`, plus a scrambled variant that decouples
//! popularity rank from key locality.
//!
//! Building a sampler needs ζ(n, θ), a sum of up to 10⁶ `powf` terms,
//! and a sweep builds one sampler per tenant and run. Each `(n, θ)` is
//! summed once per process and memoised, so every later sampler over the
//! same keyspace reuses the identical `f64`. The draw itself does no
//! `powf` for the two hottest ranks.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use wt_des::rng::Stream;

/// A Zipf(θ) sampler over `{0, 1, …, n−1}` where rank 0 is the hottest key.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: a scaled draw below it (and at least 1) is rank 1.
    rank1_below: f64,
}

impl Zipf {
    /// A sampler over `n` items with skew `theta` (0 = uniform, 0.99 =
    /// YCSB's default heavy skew). Requires `0 ≤ theta < 1`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "need at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = memo_zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            rank1_below: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `[0, n)`; rank 0 is most popular.
    pub fn sample(&self, rng: &mut Stream) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.uniform();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draws a *scrambled* key: popularity still Zipfian but hot keys are
    /// spread over the key space via a Fibonacci hash (so placement does
    /// not correlate with rank).
    pub fn sample_scrambled(&self, rng: &mut Stream) -> u64 {
        let rank = self.sample(rng);
        (rank + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.n
    }

    /// The exact probability of rank `i` under this law (for validation).
    pub fn prob(&self, i: u64) -> f64 {
        assert!(i < self.n);
        1.0 / ((i + 1) as f64).powf(self.theta) / self.zetan
    }
}

/// [`zeta`], summed once per `(n, θ)` bit pattern in this process. The
/// lock is held while a new sum runs, so threads that want the same
/// keyspace at once wait for one sum instead of each doing it.
fn memo_zeta(n: u64, theta: f64) -> f64 {
    static MEMO: OnceLock<Mutex<HashMap<(u64, u64), f64>>> = OnceLock::new();
    // A panic cannot leave the map half-updated: `or_insert_with` inserts
    // only after the sum returns, so a poisoned lock still holds valid sums.
    let mut memo = MEMO
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *memo
        .entry((n, theta.to_bits()))
        .or_insert_with(|| zeta(n, theta))
}

/// Generalized harmonic number Σ_{i=1..n} i^{−θ}.
fn zeta(n: u64, theta: f64) -> f64 {
    // Exact sum for modest n; Euler–Maclaurin tail for huge n keeps
    // construction O(1e6) at most.
    if n <= 1_000_000 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=1_000_000u64)
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        // ∫_{1e6}^{n} x^{-θ} dx + ½(f(1e6)+f(n))
        let a = 1_000_000f64;
        let b = n as f64;
        let integral = (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        head + integral + 0.5 * (b.powf(-theta) - a.powf(-theta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = Stream::from_seed(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            f64::from(max) / f64::from(min) < 1.4,
            "not uniform: {min}..{max}"
        );
    }

    #[test]
    fn skewed_head_dominates() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Stream::from_seed(2);
        let n = 200_000;
        let head_hits = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
        let frac = head_hits as f64 / n as f64;
        // Under Zipf(0.99) the top-10 of 10k keys draw a large share.
        let expect: f64 = (0..10).map(|i| z.prob(i)).sum();
        assert!(
            (frac - expect).abs() < 0.02,
            "head share {frac} vs expected {expect}"
        );
        assert!(frac > 0.3, "head should dominate, got {frac}");
    }

    #[test]
    fn empirical_rank_frequencies_match_probabilities() {
        let z = Zipf::new(50, 0.8);
        let mut rng = Stream::from_seed(3);
        let n = 500_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for i in [0usize, 1, 5, 20] {
            let emp = counts[i] as f64 / n as f64;
            let want = z.prob(i as u64);
            assert!(
                (emp - want).abs() / want < 0.1,
                "rank {i}: emp {emp} vs want {want}"
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(1000, 0.9);
        let total: f64 = (0..1000).map(|i| z.prob(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(7, 0.5);
        let mut rng = Stream::from_seed(4);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn single_item_degenerate() {
        let z = Zipf::new(1, 0.5);
        let mut rng = Stream::from_seed(5);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn scrambled_preserves_skew_but_moves_hot_key() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Stream::from_seed(6);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(z.sample_scrambled(&mut rng)).or_insert(0u64) += 1;
        }
        let (&hot, &hits) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        // The hottest key is no longer 0 but still draws the Zipf head share.
        assert_ne!(hot, 0);
        let frac = hits as f64 / 100_000.0;
        assert!((frac - z.prob(0)).abs() < 0.02);
    }

    #[test]
    fn memoised_zeta_is_the_direct_sum() {
        // The last keyspace takes the tail path. Four threads leave a
        // barrier together and build each sampler, so they race for the
        // same memo entry.
        for (n, theta) in [(1_000_000, 0.99), (1_000_000, 0.0), (2_000_000, 0.5)] {
            let start = std::sync::Barrier::new(4);
            let built: Vec<Zipf> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            Zipf::new(n, theta)
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            let direct = zeta(n, theta).to_bits();
            for z in built {
                assert_eq!(z.zetan.to_bits(), direct, "n {n}, theta {theta}");
            }
        }
    }

    #[test]
    fn zeta_tail_approximation_continuous() {
        // The piecewise zeta must not jump at the 1e6 boundary.
        let just_below = zeta(1_000_000, 0.9);
        let just_above = zeta(1_000_001, 0.9);
        assert!(just_above > just_below);
        assert!(just_above - just_below < 1e-4);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_one_rejected() {
        let _ = Zipf::new(10, 1.0);
    }
}
