//! # wt-bench — the experiment harness
//!
//! One binary per experiment from EXPERIMENTS.md (`fig1`, `e2_repair_whatif`
//! … `e10_logmodel`), each regenerating the corresponding figure/use-case
//! of the paper, plus Criterion micro-benchmarks for the ablations listed
//! in DESIGN.md §8. This library holds the output formatting shared by the
//! binaries.

pub mod fig1;
pub mod knobs;
pub mod queuesim;

use windtunnel::farm::Farm;
use windtunnel::obs::{RunTelemetry, TraceProbe};
use windtunnel::sweep::SweepRunner;

// The table/formatting helpers moved into `windtunnel::report` when the
// sweep layer started rendering its own tables; re-exported here so the
// binaries keep one import path.
pub use windtunnel::report::{banner, fmt_p, fmt_secs, Table};

/// Returns the value following flag `name` in `args`, if present.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|pos| args.get(pos + 1))
}

/// The value of count flag `name` in `args` (see [`knobs`]), `None` when
/// absent. Exits with a usage error on a zero, non-numeric or
/// over-the-cap value.
fn count_flag(args: &[String], name: &str) -> Option<usize> {
    let flag = flag_value(args, name).map(String::as_str);
    knobs::parse_count(name, flag).unwrap_or_else(|reason| {
        eprintln!("error: {reason}");
        std::process::exit(2);
    })
}

/// The shared `--workers N` flag: an explicit pool size when given,
/// otherwise host cores ([`Farm::from_env`]). Either way `WT_PROGRESS`
/// sets the heartbeat ([`Farm::with_env_heartbeat`]). Exits with a usage
/// error on a zero, non-numeric or over-the-cap value.
pub fn farm_from_args(args: &[String]) -> Farm {
    count_flag(args, "--workers").map_or_else(Farm::from_env, |workers| {
        Farm::new(workers).with_env_heartbeat()
    })
}

/// A [`SweepRunner`] over the farm selected by `--workers` —
/// the standard way an experiment binary obtains its executor.
pub fn runner_from_args(args: &[String]) -> SweepRunner {
    SweepRunner::new(farm_from_args(args))
}

/// Peak resident set of this process so far, in KiB (Linux `VmHWM`);
/// 0 where `/proc/self/status` is unavailable.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Writes a recorded run as Chrome trace-event JSON (`--trace <path>`)
/// and reports the span/event round trip on stderr — stderr so that
/// experiment stdout stays byte-identical with tracing on or off.
///
/// Exits nonzero when the trace disagrees with the engine's event count
/// or the file cannot be written; the CI smoke job relies on this.
pub fn export_trace(path: &str, probe: &mut TraceProbe, telemetry: &RunTelemetry) {
    let spans = probe.span_count() as u64;
    if spans != telemetry.events {
        eprintln!(
            "error: trace holds {spans} span(s) but the engine executed {} event(s)",
            telemetry.events
        );
        std::process::exit(1);
    }
    let mut buf = Vec::new();
    probe
        .write_chrome_json(&mut buf)
        .expect("in-memory trace serialization cannot fail");
    if let Err(e) = std::fs::write(path, &buf) {
        eprintln!("error: failed to write --trace {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[trace] {spans} span(s), peak queue depth {}, stop: {} -> {path}",
        telemetry.peak_queue_depth, telemetry.stop_reason
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_from_args_honors_workers_flag() {
        let args: Vec<String> = vec!["prog".into(), "--workers".into(), "3".into()];
        assert_eq!(runner_from_args(&args).workers(), 3);
    }
}
