//! Operation mixes: what fraction of requests read, write or scan, and how
//! big they are.

use crate::request::Request;
use crate::zipf::Zipf;
use serde::{Deserialize, Serialize};
use wt_des::rng::Stream;
use wt_dist::Dist;

/// Kinds of operations a mix can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Point write.
    Write,
    /// Sequential scan.
    Scan,
}

/// An operation mix over a keyspace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mix {
    /// Relative weight of point reads.
    pub read_weight: f64,
    /// Relative weight of point writes.
    pub write_weight: f64,
    /// Relative weight of scans.
    pub scan_weight: f64,
    /// Point operation payload size distribution, bytes.
    pub value_size: Dist,
    /// Scan length distribution, bytes.
    pub scan_size: Dist,
    /// Number of keys in the tenant's dataset.
    pub keys: u64,
    /// Zipf skew over keys (0 = uniform).
    pub key_skew: f64,
}

impl Mix {
    /// YCSB workload A: 50% reads, 50% writes, 1 KB values, Zipf 0.99.
    pub fn ycsb_a(keys: u64) -> Self {
        Mix {
            read_weight: 0.5,
            write_weight: 0.5,
            scan_weight: 0.0,
            value_size: Dist::deterministic(1024.0),
            scan_size: Dist::deterministic(1024.0),
            keys,
            key_skew: 0.99,
        }
    }

    /// YCSB workload B: 95% reads, 5% writes.
    pub fn ycsb_b(keys: u64) -> Self {
        Mix {
            write_weight: 0.05,
            read_weight: 0.95,
            ..Self::ycsb_a(keys)
        }
    }

    /// YCSB workload C: read-only.
    pub fn ycsb_c(keys: u64) -> Self {
        Mix {
            read_weight: 1.0,
            write_weight: 0.0,
            ..Self::ycsb_a(keys)
        }
    }

    /// An analytics-style scan-heavy mix: 10% point reads, 90% large scans.
    pub fn scan_heavy(keys: u64) -> Self {
        Mix {
            read_weight: 0.1,
            write_weight: 0.0,
            scan_weight: 0.9,
            value_size: Dist::deterministic(1024.0),
            scan_size: Dist::lognormal_mean_cv(64.0 * 1024.0 * 1024.0, 1.0),
            keys,
            key_skew: 0.0,
        }
    }

    /// Checks what [`make_zipf`](Self::make_zipf) and
    /// [`draw_kind`](Self::draw_kind) assert on: at least one key, a
    /// finite `key_skew` in [0, 1), and finite, non-negative weights with
    /// a positive, finite sum.
    pub fn validate(&self) -> Result<(), String> {
        if self.keys == 0 {
            return Err("a mix needs at least one key".into());
        }
        if !(0.0..1.0).contains(&self.key_skew) {
            return Err(format!("key_skew must be in [0, 1), got {}", self.key_skew));
        }
        let weights = [self.read_weight, self.write_weight, self.scan_weight];
        let total: f64 = weights.iter().sum();
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) || !(total > 0.0 && total.is_finite())
        {
            return Err(format!(
                "mix weights must be finite and non-negative with a positive sum, \
                 got read {}, write {}, scan {}",
                self.read_weight, self.write_weight, self.scan_weight
            ));
        }
        Ok(())
    }

    /// Draws the next operation kind.
    pub fn draw_kind(&self, rng: &mut Stream) -> OpKind {
        let total = self.read_weight + self.write_weight + self.scan_weight;
        assert!(total > 0.0, "mix has no positive weights");
        let u = rng.uniform() * total;
        if u < self.read_weight {
            OpKind::Read
        } else if u < self.read_weight + self.write_weight {
            OpKind::Write
        } else {
            OpKind::Scan
        }
    }

    /// Generates one complete request for `tenant` using a prepared Zipf
    /// sampler (build it once with [`Mix::make_zipf`]).
    pub fn draw_request(&self, tenant: usize, zipf: &Zipf, rng: &mut Stream) -> Request {
        let key = zipf.sample_scrambled(rng);
        match self.draw_kind(rng) {
            OpKind::Read => Request::read(tenant, key, self.value_size.sample(rng) as u64),
            OpKind::Write => Request::write(tenant, key, self.value_size.sample(rng) as u64),
            OpKind::Scan => Request::scan(tenant, key, self.scan_size.sample(rng) as u64),
        }
    }

    /// The Zipf sampler matching this mix's keyspace.
    pub fn make_zipf(&self) -> Zipf {
        Zipf::new(self.keys, self.key_skew)
    }

    /// Fraction of operations that write.
    pub fn write_fraction(&self) -> f64 {
        self.write_weight / (self.read_weight + self.write_weight + self.scan_weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_presets() {
        assert_eq!(Mix::ycsb_a(100).write_fraction(), 0.5);
        assert!((Mix::ycsb_b(100).write_fraction() - 0.05).abs() < 1e-12);
        assert_eq!(Mix::ycsb_c(100).write_fraction(), 0.0);
    }

    #[test]
    fn draw_kind_respects_weights() {
        let mix = Mix::ycsb_b(1000);
        let mut rng = Stream::from_seed(1);
        let n = 100_000;
        let writes = (0..n)
            .filter(|_| mix.draw_kind(&mut rng) == OpKind::Write)
            .count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.005, "write frac {frac}");
    }

    #[test]
    fn read_only_never_writes() {
        let mix = Mix::ycsb_c(1000);
        let mut rng = Stream::from_seed(2);
        let zipf = mix.make_zipf();
        for _ in 0..1000 {
            let r = mix.draw_request(0, &zipf, &mut rng);
            assert!(!r.write);
            assert!(r.key < 1000);
            assert_eq!(r.bytes, 1024);
        }
    }

    #[test]
    fn scan_heavy_emits_large_scans() {
        let mix = Mix::scan_heavy(100);
        let mut rng = Stream::from_seed(3);
        let zipf = mix.make_zipf();
        let reqs: Vec<Request> = (0..1000)
            .map(|_| mix.draw_request(1, &zipf, &mut rng))
            .collect();
        let scans = reqs.iter().filter(|r| r.sequential).count();
        assert!((850..950).contains(&scans), "scan count {scans}");
        let avg_scan: f64 = reqs
            .iter()
            .filter(|r| r.sequential)
            .map(|r| r.bytes as f64)
            .sum::<f64>()
            / scans as f64;
        assert!(avg_scan > 10.0 * 1024.0 * 1024.0, "avg scan {avg_scan}");
    }

    #[test]
    fn validate_names_what_the_sampler_would_assert_on() {
        assert_eq!(Mix::ycsb_a(10).validate(), Ok(()));
        assert_eq!(Mix::scan_heavy(1).validate(), Ok(()));
        let bad = |edit: fn(&mut Mix)| {
            let mut mix = Mix::ycsb_a(10);
            edit(&mut mix);
            mix.validate().unwrap_err()
        };
        assert!(bad(|m| m.keys = 0).contains("at least one key"));
        for skew in [1.0, -0.5, f64::NAN, f64::INFINITY] {
            let mut mix = Mix::ycsb_a(10);
            mix.key_skew = skew;
            let err = mix.validate().unwrap_err();
            assert!(err.contains("key_skew must be in [0, 1)"), "{err}");
        }
        for edit in [
            (|m: &mut Mix| m.read_weight = -1.0) as fn(&mut Mix),
            |m| m.write_weight = f64::NAN,
            |m| m.scan_weight = f64::INFINITY,
            |m| (m.read_weight, m.write_weight) = (0.0, 0.0),
            |m| (m.read_weight, m.write_weight) = (f64::MAX, f64::MAX),
        ] {
            assert!(bad(edit).contains("mix weights must be finite"));
        }
    }

    #[test]
    fn tenant_id_propagates() {
        let mix = Mix::ycsb_a(10);
        let zipf = mix.make_zipf();
        let mut rng = Stream::from_seed(4);
        assert_eq!(mix.draw_request(7, &zipf, &mut rng).tenant, 7);
    }
}
