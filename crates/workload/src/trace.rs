//! Request traces: record, persist, characterize, and synthesize.
//!
//! §3's performance-SLA use case starts from *workload characterization* —
//! "identifying and carefully modeling the key characteristics (e.g., CPU,
//! Disk I/O, network, etc.)". This module closes that loop:
//!
//! 1. [`Trace::record`] captures a request stream from a live
//!    [`TenantWorkload`] (or a real system's log, via [`Trace::from_entries`]),
//! 2. [`Trace::characterize`] measures it — rate, mix, size and
//!    interarrival laws (fitted with `wt-dist`), key skew,
//! 3. [`Characterization::to_workload`] synthesizes a new tenant model
//!    whose statistics match, ready to feed back into the simulator.

use crate::generator::OpenLoop;
use crate::mix::Mix;
use crate::request::Request;
use crate::tenant::TenantWorkload;
use serde::{Deserialize, Serialize};
use wt_des::rng::Stream;
use wt_dist::fit::fit_best;
use wt_dist::Dist;

/// One timestamped request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Seconds since the trace epoch.
    pub at_s: f64,
    /// The request.
    pub request: Request,
}

/// A time-ordered request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

/// Summary statistics of a trace — the §3 "key characteristics".
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Number of requests.
    pub requests: usize,
    /// Trace duration, seconds.
    pub duration_s: f64,
    /// Mean arrival rate, requests/second.
    pub rate_rps: f64,
    /// Fraction of point reads.
    pub read_fraction: f64,
    /// Fraction of writes.
    pub write_fraction: f64,
    /// Fraction of scans.
    pub scan_fraction: f64,
    /// Mean payload size, bytes.
    pub mean_bytes: f64,
    /// Whether interarrivals are statistically consistent with Poisson
    /// (exponential interarrivals at 1% significance).
    pub poisson_like: bool,
    /// The best-fitting interarrival family name.
    pub interarrival_family: &'static str,
    /// Squared coefficient of variation of the interarrival times
    /// (1 = Poisson; larger = bursty).
    pub interarrival_scv: f64,
    /// Share of requests hitting the hottest 1% of keys (skew measure).
    pub hot_key_share: f64,
}

impl Trace {
    /// Records `duration_s` of a tenant's request stream.
    pub fn record(tenant: &TenantWorkload, duration_s: f64, seed: u64) -> Trace {
        assert!(duration_s > 0.0);
        let mut rng = Stream::from_seed(seed);
        let zipf = tenant.mix.make_zipf();
        let mut entries = Vec::new();
        let mut t = 0.0;
        loop {
            t += tenant.arrivals.next_gap(&mut rng);
            if t >= duration_s {
                break;
            }
            entries.push(TraceEntry {
                at_s: t,
                request: tenant.mix.draw_request(0, &zipf, &mut rng),
            });
        }
        Trace { entries }
    }

    /// Wraps pre-existing entries (e.g. parsed from a production log);
    /// sorts them by time.
    pub fn from_entries(mut entries: Vec<TraceEntry>) -> Trace {
        entries.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite times"));
        Trace { entries }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Trace duration (time of last request).
    pub fn duration_s(&self) -> f64 {
        self.entries.last().map(|e| e.at_s).unwrap_or(0.0)
    }

    /// The entries, in time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Serializes to JSON lines.
    pub fn save_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(path)?;
        for e in &self.entries {
            writeln!(
                f,
                "{}",
                serde_json::to_string(e).expect("entries serialize")
            )?;
        }
        Ok(())
    }

    /// Loads from JSON lines, one line at a time. Blank lines are
    /// skipped; a malformed line is an
    /// [`std::io::ErrorKind::InvalidData`] error.
    pub fn load_jsonl(path: &std::path::Path) -> std::io::Result<Trace> {
        use std::io::BufRead as _;
        let f = std::fs::File::open(path)?;
        let mut entries = Vec::new();
        for line in std::io::BufReader::new(f).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            entries.push(
                serde_json::from_str(&line)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
            );
        }
        Ok(Trace::from_entries(entries))
    }

    /// Measures the trace.
    pub fn characterize(&self) -> Characterization {
        assert!(self.entries.len() >= 10, "trace too short to characterize");
        let n = self.entries.len();
        let duration = self.duration_s();
        let reads = self
            .entries
            .iter()
            .filter(|e| !e.request.write && !e.request.sequential)
            .count();
        let writes = self.entries.iter().filter(|e| e.request.write).count();
        let scans = self
            .entries
            .iter()
            .filter(|e| e.request.sequential && !e.request.write)
            .count();
        let mean_bytes = self
            .entries
            .iter()
            .map(|e| e.request.bytes as f64)
            .sum::<f64>()
            / n as f64;

        // Interarrival law.
        let gaps: Vec<f64> = self
            .entries
            .windows(2)
            .map(|w| (w[1].at_s - w[0].at_s).max(1e-9))
            .collect();
        let fits = fit_best(&gaps);
        let exp_fit = fits
            .iter()
            .find(|f| f.family == "exponential")
            .expect("exponential always fitted");
        let poisson_like = exp_fit.ks.accepts(0.01);
        let gap_mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let gap_var = gaps
            .iter()
            .map(|g| (g - gap_mean) * (g - gap_mean))
            .sum::<f64>()
            / gaps.len() as f64;
        let interarrival_scv = gap_var / (gap_mean * gap_mean);

        // Key skew: share of the hottest 1% of distinct keys.
        let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for e in &self.entries {
            *counts.entry(e.request.key).or_insert(0) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top = (freqs.len().div_ceil(100)).max(1);
        let hot: u64 = freqs.iter().take(top).sum();
        let hot_key_share = hot as f64 / n as f64;

        Characterization {
            requests: n,
            duration_s: duration,
            rate_rps: n as f64 / duration,
            read_fraction: reads as f64 / n as f64,
            write_fraction: writes as f64 / n as f64,
            scan_fraction: scans as f64 / n as f64,
            mean_bytes,
            poisson_like,
            interarrival_family: fits[0].family,
            interarrival_scv,
            hot_key_share,
        }
    }
}

impl Characterization {
    /// Synthesizes a tenant whose statistics match the characterization —
    /// the trace → model → simulator loop. Key skew is mapped back to a
    /// Zipf exponent by matching the hot-1% share coarsely.
    pub fn to_workload(&self, name: &str, keys: u64, value_bytes: u64) -> TenantWorkload {
        // Coarse skew inversion: hot-1% share of ~1% → uniform; >30% → 0.99.
        let key_skew = if self.hot_key_share > 0.3 {
            0.99
        } else if self.hot_key_share > 0.1 {
            0.8
        } else if self.hot_key_share > 0.03 {
            0.5
        } else {
            0.0
        };
        // Preserve burstiness: a bursty source synthesized as Poisson
        // would understate every queueing tail downstream.
        let arrivals = if self.interarrival_scv > 1.5 {
            OpenLoop::bursty(self.rate_rps, self.interarrival_scv)
        } else {
            OpenLoop::poisson(self.rate_rps)
        };
        TenantWorkload {
            name: name.into(),
            mix: Mix {
                read_weight: self.read_fraction,
                write_weight: self.write_fraction,
                scan_weight: self.scan_fraction,
                value_size: Dist::deterministic(value_bytes as f64),
                scan_size: Dist::deterministic(self.mean_bytes.max(1.0)),
                keys,
                key_skew,
            },
            arrivals,
            object_bytes: 1 << 20,
            dataset_bytes: keys * value_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_trace_matches_source_statistics() {
        let tenant = TenantWorkload::oltp("shop", 200.0, 10_000);
        let trace = Trace::record(&tenant, 120.0, 1);
        assert!(trace.len() > 20_000, "len {}", trace.len());
        let c = trace.characterize();
        assert!((c.rate_rps - 200.0).abs() < 10.0, "rate {}", c.rate_rps);
        // YCSB-B: 5% writes.
        assert!(
            (c.write_fraction - 0.05).abs() < 0.01,
            "{}",
            c.write_fraction
        );
        assert_eq!(c.scan_fraction, 0.0);
        assert!(c.poisson_like, "oltp arrivals are Poisson");
        assert!(
            (c.interarrival_scv - 1.0).abs() < 0.1,
            "scv {}",
            c.interarrival_scv
        );
        // Zipf 0.99 over 10k keys: hot 1% draws a large share.
        assert!(c.hot_key_share > 0.3, "hot share {}", c.hot_key_share);
    }

    #[test]
    fn bursty_trace_detected_as_non_poisson() {
        let mut tenant = TenantWorkload::oltp("bursty", 200.0, 1_000);
        tenant.arrivals = OpenLoop::bursty(200.0, 16.0);
        let trace = Trace::record(&tenant, 120.0, 2);
        let c = trace.characterize();
        assert!(!c.poisson_like, "SCV-16 arrivals must reject exponential");
        assert!(c.interarrival_scv > 8.0, "scv {}", c.interarrival_scv);
        // Synthesis preserves the burstiness.
        let synth = c.to_workload("b", 1_000, 1024);
        let re = Trace::record(&synth, 120.0, 99).characterize();
        assert!(
            re.interarrival_scv > 8.0,
            "resynthesized scv {}",
            re.interarrival_scv
        );
    }

    #[test]
    fn uniform_keys_have_no_hot_share() {
        let mut tenant = TenantWorkload::oltp("flat", 100.0, 10_000);
        tenant.mix.key_skew = 0.0;
        let trace = Trace::record(&tenant, 120.0, 3);
        let c = trace.characterize();
        assert!(c.hot_key_share < 0.05, "hot share {}", c.hot_key_share);
    }

    #[test]
    fn jsonl_roundtrip() {
        let tenant = TenantWorkload::oltp("shop", 50.0, 100);
        let trace = Trace::record(&tenant, 10.0, 4);
        let dir = std::env::temp_dir().join("wt-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        trace.save_jsonl(&path).unwrap();
        let back = Trace::load_jsonl(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&path).ok();
    }

    /// No trailing newline and interior blank lines: the last line still
    /// loads and the blank line is skipped.
    #[test]
    fn jsonl_streaming_handles_ragged_files() {
        let tenant = TenantWorkload::oltp("ragged", 50.0, 100);
        let trace = Trace::record(&tenant, 5.0, 11);
        let dir = std::env::temp_dir().join("wt-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-ragged.jsonl");
        trace.save_jsonl(&path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Blank line in the middle, strip the final newline.
        if let Some(mid) = text[..text.len() / 2].rfind('\n') {
            text.insert(mid + 1, '\n');
        }
        while text.ends_with('\n') {
            text.pop();
        }
        std::fs::write(&path, &text).unwrap();
        assert_eq!(Trace::load_jsonl(&path).unwrap(), trace);
        std::fs::remove_file(&path).ok();
    }

    /// A malformed last line after many good ones: the loader returns
    /// the error, not the trace truncated before it.
    #[test]
    fn jsonl_surfaces_an_error_on_the_last_line() {
        let tenant = TenantWorkload::oltp("late-err", 50.0, 100);
        let trace = Trace::record(&tenant, 10.0, 21);
        let dir = std::env::temp_dir().join("wt-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-late-err.jsonl");
        trace.save_jsonl(&path).unwrap();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "{{\"not\": \"a trace entry\"}}").unwrap();
        drop(f);
        let err = Trace::load_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_streaming_surfaces_parse_errors() {
        let dir = std::env::temp_dir().join("wt-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-bad.jsonl");
        std::fs::write(&path, "{\"not\": \"a trace entry\"\n").unwrap();
        let err = Trace::load_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synthesized_workload_matches_characterization() {
        let tenant = TenantWorkload::oltp("shop", 150.0, 10_000);
        let trace = Trace::record(&tenant, 60.0, 5);
        let c = trace.characterize();
        let synth = c.to_workload("shop-synth", 10_000, 1024);
        assert!((synth.arrivals.rate() - c.rate_rps).abs() < 1e-9);
        assert!((synth.mix.write_fraction() - c.write_fraction).abs() < 0.02);
        // Skew recovered as heavy.
        assert!(synth.mix.key_skew > 0.9, "skew {}", synth.mix.key_skew);
        // And the re-recorded trace matches the original's rate.
        let trace2 = Trace::record(&synth, 60.0, 6);
        let c2 = trace2.characterize();
        assert!((c2.rate_rps - c.rate_rps).abs() / c.rate_rps < 0.1);
        assert!(c2.hot_key_share > 0.3);
    }

    #[test]
    fn from_entries_sorts() {
        let e = |t: f64| TraceEntry {
            at_s: t,
            request: Request::read(0, 1, 10),
        };
        let tr = Trace::from_entries(vec![e(3.0), e(1.0), e(2.0)]);
        let times: Vec<f64> = tr.entries().iter().map(|x| x.at_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
        assert_eq!(tr.duration_s(), 3.0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn tiny_trace_rejected() {
        let tr = Trace::from_entries(vec![TraceEntry {
            at_s: 1.0,
            request: Request::read(0, 1, 10),
        }]);
        let _ = tr.characterize();
    }
}
