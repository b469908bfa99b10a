//! Farm progress reporting: runs done/total, throughput, ETA, and —
//! when per-run telemetry is fed in — cumulative event throughput and a
//! sketch-derived p99 of per-run wall time.

use crate::sketch::QuantileSketch;
use std::time::Instant;

/// A progress reporter for a sweep of known size.
///
/// The farm's fold thread calls [`Heartbeat::tick`] once per completed
/// run and prints whatever line it returns to **stderr** — the heartbeat
/// never runs on workers and never touches stdout, so enabling it cannot
/// perturb results or their bytes. Lines are rate-limited to one per
/// [`Heartbeat::interval_s`] (plus a final line at completion).
///
/// The counting/formatting core is pure ([`Heartbeat::tick_at`] takes
/// elapsed seconds explicitly), so cadence and arithmetic are unit
/// testable without a clock.
#[derive(Debug)]
pub struct Heartbeat {
    total: usize,
    done: usize,
    interval_s: f64,
    last_emit_s: f64,
    started: Instant,
    /// Cumulative simulation events across observed runs (see
    /// [`Heartbeat::observe_run`]).
    events: u64,
    /// Per-run wall times in microseconds; drives the line's p99.
    wall_us: QuantileSketch,
}

impl Heartbeat {
    /// A heartbeat over `total` runs, emitting at most one line a second.
    pub fn start(total: usize) -> Self {
        Heartbeat::with_interval(total, 1.0)
    }

    /// A heartbeat emitting at most one line per `interval_s` seconds.
    pub fn with_interval(total: usize, interval_s: f64) -> Self {
        Heartbeat {
            total,
            done: 0,
            interval_s,
            last_emit_s: 0.0,
            started: Instant::now(),
            events: 0,
            wall_us: QuantileSketch::new(),
        }
    }

    /// Feeds one completed run's telemetry into the heartbeat: its
    /// simulation event count and its wall-clock duration in
    /// microseconds. Once any run has been observed, progress lines gain
    /// a cumulative `ev/s` figure and a sketch-derived p99 of per-run
    /// wall time; without observations the line format is unchanged.
    /// Purely observational — the heartbeat only ever writes to stderr,
    /// so feeding it cannot perturb results or their bytes.
    pub fn observe_run(&mut self, events: u64, wall_us: u64) {
        self.events += events;
        self.wall_us.record(wall_us as f64);
    }

    /// The emission interval in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Runs completed so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Records one completed run against the wall clock; returns a
    /// progress line when one is due.
    pub fn tick(&mut self) -> Option<String> {
        let elapsed = self.started.elapsed().as_secs_f64();
        self.tick_at(elapsed)
    }

    /// [`Heartbeat::tick`] with the clock injected: records one
    /// completed run at `elapsed_s` seconds since the sweep started.
    /// Emits when the interval has passed since the last line, or when
    /// the sweep completes.
    pub fn tick_at(&mut self, elapsed_s: f64) -> Option<String> {
        self.done += 1;
        let finished = self.done >= self.total;
        if !finished && elapsed_s - self.last_emit_s < self.interval_s {
            return None;
        }
        self.last_emit_s = elapsed_s;
        Some(self.line_at(elapsed_s))
    }

    /// The progress line for `elapsed_s` seconds in.
    pub fn line_at(&self, elapsed_s: f64) -> String {
        let pct = if self.total == 0 {
            100.0
        } else {
            100.0 * self.done as f64 / self.total as f64
        };
        let rate = if elapsed_s > 0.0 {
            self.done as f64 / elapsed_s
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(self.done);
        let eta = if remaining == 0 {
            format!("done in {elapsed_s:.1}s")
        } else if rate > 0.0 {
            format!("ETA {:.0}s", remaining as f64 / rate)
        } else {
            "ETA --".to_string()
        };
        let mut line = format!(
            "[farm] {}/{} runs ({pct:.0}%) · {rate:.1} runs/s · {eta}",
            self.done, self.total
        );
        if self.events > 0 && elapsed_s > 0.0 {
            line.push_str(&format!(
                " · {} ev/s",
                fmt_si(self.events as f64 / elapsed_s)
            ));
        }
        if self.wall_us.count() > 0 {
            line.push_str(&format!(" · p99 run {:.1}ms", self.wall_us.p99() / 1_000.0));
        }
        line
    }
}

/// Compact SI formatting for rates: `850`, `12.4k`, `3.1M`.
fn fmt_si(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.1}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_limits_to_interval() {
        let mut hb = Heartbeat::with_interval(100, 1.0);
        // 10 runs in the first half-second: silent.
        for i in 0..10 {
            assert_eq!(hb.tick_at(i as f64 * 0.05), None);
        }
        // Crossing the interval emits, then goes quiet again.
        let line = hb.tick_at(1.1).expect("line due");
        assert!(line.contains("11/100"), "{line}");
        assert!(line.contains("(11%)"), "{line}");
        assert_eq!(hb.tick_at(1.2), None);
    }

    #[test]
    fn completion_always_emits() {
        let mut hb = Heartbeat::with_interval(3, 1000.0);
        assert_eq!(hb.tick_at(0.1), None);
        assert_eq!(hb.tick_at(0.2), None);
        let line = hb.tick_at(0.3).expect("final line");
        assert!(line.contains("3/3"), "{line}");
        assert!(line.contains("done in 0.3s"), "{line}");
    }

    #[test]
    fn rate_and_eta_arithmetic() {
        let mut hb = Heartbeat::with_interval(60, 0.0);
        // 20 runs by t=10s → 2 runs/s, 40 left → ETA 20s.
        for i in 1..=19 {
            hb.tick_at(i as f64 * 0.5);
        }
        let line = hb.tick_at(10.0).expect("interval 0 always emits");
        assert!(line.contains("20/60"), "{line}");
        assert!(line.contains("2.0 runs/s"), "{line}");
        assert!(line.contains("ETA 20s"), "{line}");
    }

    #[test]
    fn zero_elapsed_has_no_rate() {
        let hb = Heartbeat::with_interval(5, 1.0);
        let line = hb.line_at(0.0);
        assert!(line.contains("ETA --"), "{line}");
    }

    #[test]
    fn unobserved_line_has_no_telemetry_segments() {
        let mut hb = Heartbeat::with_interval(2, 0.0);
        let line = hb.tick_at(1.0).expect("interval 0 always emits");
        assert!(!line.contains("ev/s"), "{line}");
        assert!(!line.contains("p99 run"), "{line}");
    }

    #[test]
    fn observed_runs_enrich_the_line() {
        let mut hb = Heartbeat::with_interval(4, 0.0);
        // 3 runs × 1000 events, wall times 2ms/2ms/10ms by t=2s.
        for _ in 0..3 {
            hb.observe_run(1_000, 2_000);
        }
        hb.tick_at(0.5);
        hb.tick_at(1.0);
        let line = hb.tick_at(2.0).expect("line due");
        assert!(line.contains("1.5k ev/s"), "{line}");
        // All wall samples equal → the p99 sits on the 2ms sample,
        // within DDSketch relative error.
        assert!((p99_ms(&line) - 2.0).abs() < 0.1, "{line}");
        // A slow straggler drags the p99.
        hb.observe_run(1_000, 10_000);
        let line = hb.tick_at(4.0).expect("final line");
        assert!(line.contains("1.0k ev/s"), "{line}");
        assert!((p99_ms(&line) - 10.0).abs() < 0.3, "{line}");
    }

    fn p99_ms(line: &str) -> f64 {
        line.split("p99 run ")
            .nth(1)
            .expect("p99 segment present")
            .trim_end_matches("ms")
            .parse()
            .expect("numeric p99")
    }

    #[test]
    fn si_rate_formatting() {
        assert_eq!(fmt_si(850.0), "850");
        assert_eq!(fmt_si(12_400.0), "12.4k");
        assert_eq!(fmt_si(3_100_000.0), "3.1M");
    }
}
