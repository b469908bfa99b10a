//! The distribution algebra.
//!
//! [`Dist`] is an enum rather than a trait object so configurations can be
//! serialized (the wind tunnel's result store persists the full scenario,
//! distributions included), compared, and swept over declaratively.

use crate::special::{gamma_p, ln_gamma, norm_cdf, norm_quantile};
use serde::{Deserialize, Serialize};
use wt_des::rng::Stream;

/// A univariate probability distribution over (mostly non-negative) reals.
///
/// All constructors validate parameters; sampling and cdf are exact
/// (inverse-transform or standard exact samplers, no discretization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// A point mass at `value`.
    Deterministic { value: f64 },
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with rate `rate` (mean `1/rate`).
    Exponential { rate: f64 },
    /// Weibull with shape `k` and scale `lambda`. Shape < 1 gives the
    /// decreasing hazard observed for disk infant mortality.
    Weibull { shape: f64, scale: f64 },
    /// Gamma with shape `k` and scale `theta` (mean `k·theta`).
    Gamma { shape: f64, scale: f64 },
    /// Lognormal: `exp(N(mu, sigma²))`.
    LogNormal { mu: f64, sigma: f64 },
    /// Normal (used for e.g. performance jitter; can go negative).
    Normal { mean: f64, std_dev: f64 },
    /// Pareto Type I with minimum `xm` and tail index `alpha`.
    Pareto { xm: f64, alpha: f64 },
    /// Erlang: sum of `k` exponentials of rate `rate`.
    Erlang { k: u32, rate: f64 },
    /// The empirical distribution of a data set (sampling draws uniformly
    /// from the recorded values; cdf is the ECDF). `samples` is kept sorted.
    Empirical { samples: Vec<f64> },
    /// A finite mixture. Weights need not be normalized.
    Mixture { components: Vec<(f64, Dist)> },
    /// `offset + X` for an inner distribution — e.g. a minimum repair time
    /// plus a lognormal tail.
    Shifted { offset: f64, inner: Box<Dist> },
}

impl Dist {
    /// Point mass.
    pub fn deterministic(value: f64) -> Dist {
        assert!(value.is_finite(), "deterministic value must be finite");
        Dist::Deterministic { value }
    }

    /// Uniform on `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        assert!(lo < hi, "uniform requires lo < hi ({lo} >= {hi})");
        Dist::Uniform { lo, hi }
    }

    /// Exponential by rate.
    pub fn exponential(rate: f64) -> Dist {
        assert!(rate > 0.0 && rate.is_finite(), "exponential rate > 0");
        Dist::Exponential { rate }
    }

    /// Exponential by mean.
    pub fn exponential_mean(mean: f64) -> Dist {
        Self::exponential(1.0 / mean)
    }

    /// Weibull by shape and scale.
    pub fn weibull(shape: f64, scale: f64) -> Dist {
        assert!(shape > 0.0 && scale > 0.0, "weibull params > 0");
        Dist::Weibull { shape, scale }
    }

    /// Weibull with a given shape, scaled so the mean is `mean`.
    pub fn weibull_mean(shape: f64, mean: f64) -> Dist {
        assert!(shape > 0.0 && mean > 0.0);
        let scale = mean / (ln_gamma(1.0 + 1.0 / shape)).exp();
        Dist::Weibull { shape, scale }
    }

    /// Gamma by shape and scale.
    pub fn gamma(shape: f64, scale: f64) -> Dist {
        assert!(shape > 0.0 && scale > 0.0, "gamma params > 0");
        Dist::Gamma { shape, scale }
    }

    /// Lognormal by log-space parameters.
    pub fn lognormal(mu: f64, sigma: f64) -> Dist {
        assert!(sigma > 0.0, "lognormal sigma > 0");
        Dist::LogNormal { mu, sigma }
    }

    /// Lognormal with the given real-space mean and coefficient of
    /// variation (std/mean) — the natural way to encode "repairs take ~4h
    /// with heavy spread".
    pub fn lognormal_mean_cv(mean: f64, cv: f64) -> Dist {
        assert!(mean > 0.0 && cv > 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Dist::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Normal by mean and standard deviation.
    pub fn normal(mean: f64, std_dev: f64) -> Dist {
        assert!(std_dev > 0.0, "normal std_dev > 0");
        Dist::Normal { mean, std_dev }
    }

    /// Pareto by minimum and tail index.
    pub fn pareto(xm: f64, alpha: f64) -> Dist {
        assert!(xm > 0.0 && alpha > 0.0, "pareto params > 0");
        Dist::Pareto { xm, alpha }
    }

    /// Erlang-k by phase count and per-phase rate.
    pub fn erlang(k: u32, rate: f64) -> Dist {
        assert!(k > 0 && rate > 0.0, "erlang k > 0, rate > 0");
        Dist::Erlang { k, rate }
    }

    /// Empirical distribution of `samples` (must be non-empty).
    pub fn empirical(mut samples: Vec<f64>) -> Dist {
        assert!(!samples.is_empty(), "empirical needs data");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "empirical data finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Dist::Empirical { samples }
    }

    /// Finite mixture of weighted components.
    pub fn mixture(components: Vec<(f64, Dist)>) -> Dist {
        assert!(!components.is_empty(), "mixture needs components");
        assert!(
            components.iter().all(|(w, _)| *w > 0.0),
            "mixture weights > 0"
        );
        Dist::Mixture { components }
    }

    /// `offset + inner`.
    pub fn shifted(offset: f64, inner: Dist) -> Dist {
        assert!(offset.is_finite());
        Dist::Shifted {
            offset,
            inner: Box::new(inner),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Stream) -> f64 {
        match self {
            Dist::Deterministic { value } => *value,
            Dist::Uniform { lo, hi } => lo + (hi - lo) * rng.uniform(),
            Dist::Exponential { rate } => exponential_at(rng.uniform_open(), *rate),
            Dist::Weibull { shape, scale } => weibull_at(rng.uniform_open(), *shape, *scale),
            Dist::Gamma { shape, scale } => sample_gamma(*shape, rng) * scale,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sample_std_normal(rng)).exp(),
            Dist::Normal { mean, std_dev } => mean + std_dev * sample_std_normal(rng),
            Dist::Pareto { xm, alpha } => pareto_at(rng.uniform_open(), *xm, *alpha),
            Dist::Erlang { k, rate } => {
                // Product of uniforms: sum of k exponentials.
                let mut prod = 1.0f64;
                for _ in 0..*k {
                    prod *= rng.uniform_open();
                }
                -prod.ln() / rate
            }
            Dist::Empirical { samples } => samples[rng.index(samples.len())],
            Dist::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                let mut u = rng.uniform() * total;
                for (w, d) in components {
                    if u < *w {
                        return d.sample(rng);
                    }
                    u -= w;
                }
                components.last().expect("non-empty").1.sample(rng)
            }
            Dist::Shifted { offset, inner } => offset + inner.sample(rng),
        }
    }

    /// A sampler for draws that matter only up to `limit` — e.g. failure
    /// times in a run that ends at `limit`. Its
    /// [`sample`](ScreenedDraw::sample) consumes exactly the stream draws
    /// [`sample`](Self::sample) does and returns the same value whenever
    /// that value is ≤ `limit`; past it, it may return `f64::INFINITY`
    /// instead of the exact value. Exponential, Weibull and Pareto draws
    /// that land past `limit` skip their `ln`/`powf`; every other family
    /// samples exactly.
    pub fn screened(&self, limit: f64) -> ScreenedDraw<'_> {
        // The uniform below which a falling inverse transform lands past
        // `limit` is the family's closed-form survival at `limit`, not
        // `1 - cdf`, which has no relative precision left when the
        // survival is tiny.
        let survival = match *self {
            Dist::Exponential { rate } => (-rate * limit).exp(),
            Dist::Weibull { shape, scale } => (-(limit / scale).powf(shape)).exp(),
            Dist::Pareto { xm, alpha } => (xm / limit).powf(alpha),
            _ => 0.0,
        };
        // Shrinking the threshold by a relative guard keeps every screened
        // uniform far enough from the boundary that the transform's
        // rounding cannot bring its value back to `limit`. A limit that
        // is not positive screens nothing.
        let below = if limit > 0.0 {
            survival * (1.0 - SCREEN_GUARD)
        } else {
            0.0
        };
        ScreenedDraw { dist: self, below }
    }

    /// The distribution mean (may be `+inf`, e.g. Pareto with α ≤ 1).
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Deterministic { value } => *value,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { rate } => 1.0 / rate,
            Dist::Weibull { shape, scale } => scale * ln_gamma(1.0 + 1.0 / shape).exp(),
            Dist::Gamma { shape, scale } => shape * scale,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Normal { mean, .. } => *mean,
            Dist::Pareto { xm, alpha } => {
                if *alpha > 1.0 {
                    alpha * xm / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            Dist::Erlang { k, rate } => f64::from(*k) / rate,
            Dist::Empirical { samples } => samples.iter().sum::<f64>() / samples.len() as f64,
            Dist::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                components.iter().map(|(w, d)| w / total * d.mean()).sum()
            }
            Dist::Shifted { offset, inner } => offset + inner.mean(),
        }
    }

    /// The distribution variance (may be `+inf`).
    pub fn variance(&self) -> f64 {
        match self {
            Dist::Deterministic { .. } => 0.0,
            Dist::Uniform { lo, hi } => (hi - lo) * (hi - lo) / 12.0,
            Dist::Exponential { rate } => 1.0 / (rate * rate),
            Dist::Weibull { shape, scale } => {
                let g1 = ln_gamma(1.0 + 1.0 / shape).exp();
                let g2 = ln_gamma(1.0 + 2.0 / shape).exp();
                scale * scale * (g2 - g1 * g1)
            }
            Dist::Gamma { shape, scale } => shape * scale * scale,
            Dist::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                (s2.exp() - 1.0) * (2.0 * mu + s2).exp()
            }
            Dist::Normal { std_dev, .. } => std_dev * std_dev,
            Dist::Pareto { xm, alpha } => {
                if *alpha > 2.0 {
                    xm * xm * alpha / ((alpha - 1.0) * (alpha - 1.0) * (alpha - 2.0))
                } else {
                    f64::INFINITY
                }
            }
            Dist::Erlang { k, rate } => f64::from(*k) / (rate * rate),
            Dist::Empirical { samples } => {
                let m = self.mean();
                samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64
            }
            Dist::Mixture { components } => {
                // Var = E[X²] − E[X]²; E[X²] per component = var + mean².
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                let ex2: f64 = components
                    .iter()
                    .map(|(w, d)| {
                        let m = d.mean();
                        w / total * (d.variance() + m * m)
                    })
                    .sum();
                let m = self.mean();
                ex2 - m * m
            }
            Dist::Shifted { inner, .. } => inner.variance(),
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            Dist::Deterministic { value } => {
                if x >= *value {
                    1.0
                } else {
                    0.0
                }
            }
            Dist::Uniform { lo, hi } => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
            Dist::Exponential { rate } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-rate * x).exp()
                }
            }
            Dist::Weibull { shape, scale } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-(x / scale).powf(*shape)).exp()
                }
            }
            Dist::Gamma { shape, scale } => {
                if x <= 0.0 {
                    0.0
                } else {
                    gamma_p(*shape, x / scale)
                }
            }
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else {
                    norm_cdf((x.ln() - mu) / sigma)
                }
            }
            Dist::Normal { mean, std_dev } => norm_cdf((x - mean) / std_dev),
            Dist::Pareto { xm, alpha } => {
                if x < *xm {
                    0.0
                } else {
                    1.0 - (xm / x).powf(*alpha)
                }
            }
            Dist::Erlang { k, rate } => {
                if x <= 0.0 {
                    0.0
                } else {
                    gamma_p(f64::from(*k), rate * x)
                }
            }
            Dist::Empirical { samples } => {
                let idx = samples.partition_point(|&s| s <= x);
                idx as f64 / samples.len() as f64
            }
            Dist::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                components.iter().map(|(w, d)| w / total * d.cdf(x)).sum()
            }
            Dist::Shifted { offset, inner } => inner.cdf(x - offset),
        }
    }

    /// Quantile function (inverse cdf). Closed-form where available,
    /// otherwise bisection on the cdf to 1e-10 relative precision.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile domain: {q}");
        match self {
            Dist::Deterministic { value } => *value,
            Dist::Uniform { lo, hi } => lo + (hi - lo) * q,
            Dist::Exponential { rate } => -(1.0 - q).ln() / rate,
            Dist::Weibull { shape, scale } => scale * (-(1.0 - q).ln()).powf(1.0 / shape),
            Dist::LogNormal { mu, sigma } => {
                if q == 0.0 {
                    0.0
                } else {
                    (mu + sigma * norm_quantile(q)).exp()
                }
            }
            Dist::Normal { mean, std_dev } => mean + std_dev * norm_quantile(q),
            Dist::Pareto { xm, alpha } => xm / (1.0 - q).powf(1.0 / alpha),
            Dist::Empirical { samples } => {
                if q == 0.0 {
                    return samples[0];
                }
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                samples[rank - 1]
            }
            _ => self.quantile_bisect(q),
        }
    }

    fn quantile_bisect(&self, q: f64) -> f64 {
        if q == 0.0 {
            return 0.0;
        }
        // Find an upper bracket.
        let mut hi = (self.mean() + 1.0).max(1.0);
        let mut iter = 0;
        while self.cdf(hi) < q {
            hi *= 2.0;
            iter += 1;
            assert!(iter < 200, "quantile bracket search diverged");
        }
        let mut lo = 0.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Survival function `P(X > x) = 1 − F(x)`.
    pub fn survival(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Hazard rate `h(x) = f(x)/S(x)`, estimated by central differencing
    /// of the cdf (exact closed forms exist for some families but the
    /// numeric version is uniform and accurate to ~1e-6 relative).
    ///
    /// The hazard *shape* is the §2.2 argument in one number: exponential
    /// is flat, Weibull k<1 decreases (infant mortality), k>1 increases
    /// (wear-out).
    pub fn hazard(&self, x: f64) -> f64 {
        assert!(x > 0.0, "hazard defined on x > 0");
        let s = self.survival(x);
        if s <= 0.0 {
            return f64::INFINITY;
        }
        let h = (x * 1e-5).max(1e-12);
        let pdf = (self.cdf(x + h) - self.cdf(x - h)) / (2.0 * h);
        (pdf / s).max(0.0)
    }

    /// Mean residual life `E[X − x | X > x]`, by numeric integration of
    /// the survival function (adaptive upper cut at the 1−1e-9 quantile).
    pub fn mean_residual_life(&self, x: f64) -> f64 {
        let s_x = self.survival(x);
        if s_x <= 0.0 {
            return 0.0;
        }
        let hi = self.quantile(1.0 - 1e-9).max(x * 2.0 + 1.0);
        // Simpson-ish trapezoid over [x, hi] of S(t)/S(x).
        let steps = 2_000;
        let dt = (hi - x) / steps as f64;
        let mut acc = 0.0;
        let mut prev = 1.0; // S(x)/S(x)
        for i in 1..=steps {
            let t = x + dt * i as f64;
            let cur = self.survival(t) / s_x;
            acc += 0.5 * (prev + cur) * dt;
            prev = cur;
        }
        acc
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Dist::Deterministic { value } => format!("Det({value})"),
            Dist::Uniform { lo, hi } => format!("U({lo},{hi})"),
            Dist::Exponential { rate } => format!("Exp(rate={rate})"),
            Dist::Weibull { shape, scale } => format!("Weibull(k={shape},λ={scale})"),
            Dist::Gamma { shape, scale } => format!("Gamma(k={shape},θ={scale})"),
            Dist::LogNormal { mu, sigma } => format!("LogN(μ={mu},σ={sigma})"),
            Dist::Normal { mean, std_dev } => format!("N({mean},{std_dev}²)"),
            Dist::Pareto { xm, alpha } => format!("Pareto(xm={xm},α={alpha})"),
            Dist::Erlang { k, rate } => format!("Erlang(k={k},rate={rate})"),
            Dist::Empirical { samples } => format!("Empirical(n={})", samples.len()),
            Dist::Mixture { components } => format!("Mixture({} parts)", components.len()),
            Dist::Shifted { offset, inner } => format!("{} + {}", offset, inner.describe()),
        }
    }
}

/// The relative margin by which [`Dist::screened`] shrinks its uniform
/// threshold below the exact survival at the limit.
const SCREEN_GUARD: f64 = 1e-6;

/// Draws from a [`Dist`] that matter only up to a limit (see
/// [`Dist::screened`]).
#[derive(Debug, Clone, Copy)]
pub struct ScreenedDraw<'a> {
    dist: &'a Dist,
    /// `uniform_open` draws below this map to values certainly past the
    /// limit; 0 screens nothing.
    below: f64,
}

impl ScreenedDraw<'_> {
    /// Draws one sample: [`Dist::sample`]'s value when it is ≤ the limit,
    /// otherwise that value or `f64::INFINITY`. Consumes exactly the
    /// stream draws `Dist::sample` does.
    #[inline]
    pub fn sample(&self, rng: &mut Stream) -> f64 {
        match *self.dist {
            Dist::Exponential { rate } => {
                self.unless_screened(rng.uniform_open(), |u| exponential_at(u, rate))
            }
            Dist::Weibull { shape, scale } => {
                self.unless_screened(rng.uniform_open(), |u| weibull_at(u, shape, scale))
            }
            Dist::Pareto { xm, alpha } => {
                self.unless_screened(rng.uniform_open(), |u| pareto_at(u, xm, alpha))
            }
            _ => self.dist.sample(rng),
        }
    }

    /// `f64::INFINITY` for a screened uniform `u`, else `exact(u)`.
    #[inline]
    fn unless_screened(&self, u: f64, exact: impl FnOnce(f64) -> f64) -> f64 {
        if u < self.below {
            f64::INFINITY
        } else {
            exact(u)
        }
    }
}

// The inverse transforms that turn one `uniform_open` draw into a value
// that falls as the uniform rises. `Dist::sample` and `ScreenedDraw`
// both go through them, so the two cannot drift apart.

#[inline]
fn exponential_at(u: f64, rate: f64) -> f64 {
    -u.ln() / rate
}

#[inline]
fn weibull_at(u: f64, shape: f64, scale: f64) -> f64 {
    scale * (-u.ln()).powf(1.0 / shape)
}

#[inline]
fn pareto_at(u: f64, xm: f64, alpha: f64) -> f64 {
    xm / u.powf(1.0 / alpha)
}

/// Standard normal via Marsaglia's polar method (exact, no tail truncation).
fn sample_std_normal(rng: &mut Stream) -> f64 {
    loop {
        let u = 2.0 * rng.uniform() - 1.0;
        let v = 2.0 * rng.uniform() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Standard Gamma(shape, 1) via Marsaglia–Tsang; the shape < 1 case boosts
/// through Gamma(shape+1).
fn sample_gamma(shape: f64, rng: &mut Stream) -> f64 {
    if shape < 1.0 {
        let g = sample_gamma(shape + 1.0, rng);
        return g * rng.uniform_open().powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_std_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.uniform_open();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc_mean(d: &Dist, n: usize, seed: u64) -> f64 {
        let mut rng = Stream::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn assert_mc_mean_matches(d: &Dist, tol: f64) {
        let m = mc_mean(d, 200_000, 42);
        let want = d.mean();
        assert!(
            (m - want).abs() / (1.0 + want.abs()) < tol,
            "{}: MC mean {m} vs analytic {want}",
            d.describe()
        );
    }

    #[test]
    fn sampler_means_match_analytic() {
        assert_mc_mean_matches(&Dist::exponential(0.5), 0.02);
        assert_mc_mean_matches(&Dist::weibull(0.7, 10.0), 0.03);
        assert_mc_mean_matches(&Dist::weibull(2.0, 5.0), 0.02);
        assert_mc_mean_matches(&Dist::gamma(0.5, 2.0), 0.02);
        assert_mc_mean_matches(&Dist::gamma(3.0, 1.5), 0.02);
        assert_mc_mean_matches(&Dist::lognormal(1.0, 0.5), 0.02);
        assert_mc_mean_matches(&Dist::normal(7.0, 2.0), 0.02);
        assert_mc_mean_matches(&Dist::pareto(1.0, 3.0), 0.03);
        assert_mc_mean_matches(&Dist::erlang(4, 2.0), 0.02);
        assert_mc_mean_matches(&Dist::uniform(2.0, 8.0), 0.02);
    }

    #[test]
    fn sampler_variances_match_analytic() {
        for d in [
            Dist::exponential(1.0),
            Dist::gamma(2.0, 3.0),
            Dist::lognormal(0.0, 0.8),
            Dist::erlang(3, 1.0),
        ] {
            let mut rng = Stream::from_seed(7);
            let n = 200_000;
            let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
            let want = d.variance();
            assert!(
                (v - want).abs() / (1.0 + want) < 0.05,
                "{}: MC var {v} vs {want}",
                d.describe()
            );
        }
    }

    #[test]
    fn weibull_mean_constructor() {
        let d = Dist::weibull_mean(0.8, 1000.0);
        assert!((d.mean() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn lognormal_mean_cv_constructor() {
        let d = Dist::lognormal_mean_cv(4.0, 1.5);
        assert!((d.mean() - 4.0).abs() < 1e-9);
        assert!((d.std_dev() / d.mean() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let dists = [
            Dist::exponential(2.0),
            Dist::weibull(1.5, 3.0),
            Dist::gamma(2.5, 1.0),
            Dist::lognormal(0.5, 1.0),
            Dist::normal(0.0, 1.0),
            Dist::pareto(2.0, 2.5),
            Dist::erlang(3, 0.5),
            Dist::uniform(1.0, 9.0),
        ];
        for d in &dists {
            for &q in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let x = d.quantile(q);
                let back = d.cdf(x);
                assert!(
                    (back - q).abs() < 1e-6,
                    "{}: q={q} -> x={x} -> cdf={back}",
                    d.describe()
                );
            }
        }
    }

    #[test]
    fn cdf_is_monotone_nondecreasing() {
        let d = Dist::mixture(vec![
            (0.3, Dist::exponential(1.0)),
            (0.7, Dist::gamma(2.0, 2.0)),
        ]);
        let mut last = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.2;
            let c = d.cdf(x);
            assert!(c >= last - 1e-12);
            last = c;
        }
        assert!(last > 0.9);
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let d = Dist::mixture(vec![
            (1.0, Dist::deterministic(2.0)),
            (3.0, Dist::deterministic(6.0)),
        ]);
        assert!((d.mean() - 5.0).abs() < 1e-12);
        assert_mc_mean_matches(&d, 0.02);
    }

    #[test]
    fn mixture_variance_law_of_total() {
        // Two point masses at 0 and 10 with equal weight: var = 25.
        let d = Dist::mixture(vec![
            (1.0, Dist::deterministic(0.0)),
            (1.0, Dist::deterministic(10.0)),
        ]);
        assert!((d.variance() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_dist() {
        let d = Dist::shifted(100.0, Dist::exponential(1.0));
        assert!((d.mean() - 101.0).abs() < 1e-12);
        assert!((d.variance() - 1.0).abs() < 1e-12);
        assert_eq!(d.cdf(99.0), 0.0);
        assert!((d.cdf(101.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        let mut rng = Stream::from_seed(3);
        assert!(d.sample(&mut rng) >= 100.0);
    }

    #[test]
    fn empirical_matches_data() {
        let d = Dist::empirical(vec![3.0, 1.0, 2.0, 4.0]);
        assert!((d.mean() - 2.5).abs() < 1e-12);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(2.0), 0.5);
        assert_eq!(d.cdf(10.0), 1.0);
        assert_eq!(d.quantile(0.5), 2.0);
        assert_eq!(d.quantile(1.0), 4.0);
        let mut rng = Stream::from_seed(1);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!([1.0, 2.0, 3.0, 4.0].contains(&s));
        }
    }

    #[test]
    fn pareto_infinite_moments() {
        assert_eq!(Dist::pareto(1.0, 0.9).mean(), f64::INFINITY);
        assert_eq!(Dist::pareto(1.0, 1.5).variance(), f64::INFINITY);
        assert!(Dist::pareto(1.0, 3.0).variance().is_finite());
    }

    #[test]
    fn deterministic_is_point_mass() {
        let d = Dist::deterministic(5.0);
        let mut rng = Stream::from_seed(1);
        assert_eq!(d.sample(&mut rng), 5.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.cdf(4.999), 0.0);
        assert_eq!(d.cdf(5.0), 1.0);
        assert_eq!(d.quantile(0.3), 5.0);
    }

    #[test]
    #[should_panic(expected = "rate > 0")]
    fn bad_exponential_rejected() {
        let _ = Dist::exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn bad_uniform_rejected() {
        let _ = Dist::uniform(5.0, 5.0);
    }

    #[test]
    fn erlang_equals_gamma_integer() {
        let e = Dist::erlang(4, 2.0);
        let g = Dist::gamma(4.0, 0.5);
        for &x in &[0.5, 1.0, 2.0, 4.0] {
            assert!((e.cdf(x) - g.cdf(x)).abs() < 1e-10);
        }
        assert!((e.mean() - g.mean()).abs() < 1e-12);
    }

    #[test]
    fn hazard_shapes_tell_the_weibull_story() {
        // Exponential: flat hazard equal to the rate.
        let e = Dist::exponential(0.5);
        for &x in &[0.5, 2.0, 10.0] {
            assert!((e.hazard(x) - 0.5).abs() < 1e-3, "exp hazard at {x}");
        }
        // Weibull k<1: decreasing hazard (infant mortality).
        let infant = Dist::weibull(0.7, 10.0);
        assert!(infant.hazard(1.0) > infant.hazard(5.0));
        assert!(infant.hazard(5.0) > infant.hazard(20.0));
        // Weibull k>1: increasing hazard (wear-out).
        let wear = Dist::weibull(2.5, 10.0);
        assert!(wear.hazard(1.0) < wear.hazard(5.0));
        assert!(wear.hazard(5.0) < wear.hazard(20.0));
    }

    #[test]
    fn survival_complements_cdf() {
        let d = Dist::gamma(2.0, 3.0);
        for &x in &[0.1, 1.0, 5.0, 20.0] {
            assert!((d.survival(x) + d.cdf(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn memoryless_exponential_residual_life() {
        // E[X − x | X > x] = mean, for every x: the memoryless property.
        let d = Dist::exponential(0.25);
        for &x in &[0.0_f64.max(1e-9), 2.0, 10.0] {
            let mrl = d.mean_residual_life(x);
            assert!(
                (mrl - 4.0).abs() / 4.0 < 0.01,
                "residual at {x} was {mrl}, want 4"
            );
        }
    }

    #[test]
    fn weibull_infant_mortality_residual_life_grows() {
        // Decreasing hazard => survivors are *better* than new (the
        // counter-intuitive fact behind burn-in): mean residual life
        // increases with age.
        let d = Dist::weibull(0.6, 10.0);
        let fresh = d.mean_residual_life(1e-6);
        let aged = d.mean_residual_life(20.0);
        assert!(
            aged > 1.5 * fresh,
            "aged {aged} should exceed fresh {fresh}"
        );
    }

    #[test]
    fn screen_threshold_splits_the_uniforms_at_the_limit() {
        let limit = 2.0;
        for d in [
            Dist::exponential(0.8),
            Dist::weibull(0.7, 3.0),
            Dist::weibull(6.0, 1.5),
            Dist::pareto(0.5, 2.5),
        ] {
            let below = d.screened(limit).below;
            let at = |u: f64| match d {
                Dist::Exponential { rate } => exponential_at(u, rate),
                Dist::Weibull { shape, scale } => weibull_at(u, shape, scale),
                Dist::Pareto { xm, alpha } => pareto_at(u, xm, alpha),
                _ => unreachable!("only falling transforms are screened"),
            };
            assert!(below > 0.0 && below < 1.0, "{}: {below}", d.describe());
            // Every screened uniform maps past the limit, the largest one
            // by a clear margin ...
            for u in [below * 1e-9, below * 0.5, below.next_down()] {
                assert!(at(u) > limit * (1.0 + 1e-9), "{}: u={u}", d.describe());
            }
            // ... while the exact survival maps onto the limit, and larger
            // uniforms map at or before it: those are never screened.
            let exact = below / (1.0 - SCREEN_GUARD);
            assert!(
                (at(exact) - limit).abs() < 1e-12 * limit,
                "{}",
                d.describe()
            );
            for u in [
                exact * (1.0 + 1e-9),
                (exact + 1.0) / 2.0,
                1.0f64.next_down(),
            ] {
                assert!(at(u) <= limit, "{}: u={u}", d.describe());
            }
        }
        // Families without a falling one-uniform transform screen nothing.
        assert_eq!(Dist::lognormal(0.0, 1.0).screened(limit).below, 0.0);
        assert_eq!(Dist::exponential(1.0).screened(0.0).below, 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let d = Dist::mixture(vec![
            (0.5, Dist::weibull(0.7, 1e5)),
            (0.5, Dist::shifted(60.0, Dist::lognormal(5.0, 1.2))),
        ]);
        let json = serde_json::to_string(&d).unwrap();
        let back: Dist = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_dist() -> impl Strategy<Value = Dist> {
        prop_oneof![
            (0.01f64..100.0).prop_map(Dist::exponential),
            (0.2f64..5.0, 0.1f64..100.0).prop_map(|(k, s)| Dist::weibull(k, s)),
            (0.2f64..5.0, 0.1f64..100.0).prop_map(|(k, s)| Dist::gamma(k, s)),
            (-2.0f64..2.0, 0.1f64..2.0).prop_map(|(m, s)| Dist::lognormal(m, s)),
            (0.1f64..10.0, 2.1f64..10.0).prop_map(|(xm, a)| Dist::pareto(xm, a)),
            (1u32..10, 0.1f64..10.0).prop_map(|(k, r)| Dist::erlang(k, r)),
        ]
    }

    proptest! {
        #[test]
        fn samples_are_in_support(d in arb_dist(), seed in any::<u64>()) {
            let mut rng = Stream::from_seed(seed);
            for _ in 0..20 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite());
                prop_assert!(x >= 0.0, "{} produced negative {x}", d.describe());
            }
        }

        #[test]
        fn cdf_bounds(d in arb_dist(), x in -10.0f64..1e4) {
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
        }

        #[test]
        fn quantile_inverts_cdf(d in arb_dist(), q in 0.01f64..0.99) {
            let x = d.quantile(q);
            prop_assert!((d.cdf(x) - q).abs() < 1e-5,
                "{}: quantile({q}) = {x}, cdf back = {}", d.describe(), d.cdf(x));
        }

        /// A screened draw consumes exactly the stream draws of
        /// `sample` and returns its bits up to the limit; past it, a
        /// value past the limit.
        #[test]
        fn screened_draws_match_sample_up_to_the_limit(
            d in prop_oneof![
                (0.01f64..100.0).prop_map(Dist::exponential),
                (0.3f64..8.0, 0.1f64..100.0).prop_map(|(k, s)| Dist::weibull(k, s)),
                (0.1f64..10.0, 0.5f64..10.0).prop_map(|(xm, a)| Dist::pareto(xm, a)),
                (-2.0f64..2.0, 0.1f64..2.0).prop_map(|(m, s)| Dist::lognormal(m, s)),
                (0.01f64..1.0, 0.3f64..3.0).prop_map(|(w, k)| Dist::mixture(vec![
                    (w, Dist::exponential(1.0)),
                    (1.0, Dist::weibull(k, 2.0)),
                ])),
            ],
            limit_q in 0.05f64..0.95,
            seed in any::<u64>(),
        ) {
            let limit = d.quantile(limit_q);
            let screen = d.screened(limit);
            let mut plain = Stream::from_seed(seed);
            let mut screened = plain.clone();
            for _ in 0..64 {
                let want = d.sample(&mut plain);
                let got = screen.sample(&mut screened);
                if want <= limit {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                } else {
                    prop_assert!(got > limit, "{}: {got} <= {limit}", d.describe());
                }
                prop_assert_eq!(screened.clone().next(), plain.clone().next());
            }
        }

        #[test]
        fn serde_roundtrips(d in arb_dist()) {
            let json = serde_json::to_string(&d).unwrap();
            let back: Dist = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(d, back);
        }
    }
}
