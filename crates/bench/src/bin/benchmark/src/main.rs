//! `benchmark` — times WTQL text to verdict table on four fixed
//! workloads, and splits the time per layer with a traced serial replay.
//!
//! ```text
//! benchmark [--seed S] [--smoke] [--out set.json] [--chrome-trace t.json]
//! benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke] [--chrome-trace t.json]
//! benchmark --compare base.json new.json
//! ```
//!
//! With no `--workload`, every workload runs: seven cold samples each,
//! interleaved round-robin, then one traced replay each; the results can
//! be saved with `--out` and two saved sets compared with `--compare`.
//! With `--workload`, one workload is sampled for `--seconds` (`--trace
//! 0`, end-to-end metrics) or replayed once (`--trace 1`, per-layer
//! metrics), and the last stdout line is one JSON result object.
//!
//! Every sample is a fresh child process of this binary, run one at a
//! time with one farm worker: a closed loop with one client who submits
//! a query and waits for the table. One more sample per workload runs
//! with one farm worker per core and is held to the same outputs, which
//! pins worker invariance. Output checks run on every sample; any
//! failure makes the exit code nonzero.

mod query;
mod replay;
mod report;
#[cfg(test)]
mod tests;
mod workloads;

use report::{RunSet, Stat, WorkloadResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::BufRead as _;
use std::process::{Command, Stdio};
use std::time::Instant;
use windtunnel::prelude::*;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 11;
/// Cold samples per workload in a full run.
const FULL_SAMPLES: usize = 7;
/// Fewest samples a timed run takes, however long they last.
const MIN_SAMPLES: usize = 3;
/// Farm workers of a timed sample. With one, the work a sample does and
/// the order it does it in are the same for every permutation of the
/// query, and the sample leaves the other cores to the parent and the
/// host. One per core would let plan order set the makespan and make the
/// workers contend with each other and the host for the cores.
const TIMED_WORKERS: usize = 1;
/// Set-up-only children spawned per sample, so set-up time has several
/// measurements per query.
const SETUP_REPEATS: usize = 3;
/// Verdict digest and event count of every workload, full size and smoke.
const EXPECTED: &str = include_str!("../expected.json");

/// The end-to-end metrics with their units, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("query_s", "s"),
    ("query_cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_events", "count"),
    ("peak_rss_mb", "MiB"),
];

/// What a cold child reports about its one query.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChildReport {
    query_s: f64,
    query_cpu_s: f64,
    peak_rss_mb: f64,
    /// Engine events over every stored record.
    sim_events: u64,
    /// The outcome's own event total, which omits perf-engine runs.
    total_sim_events: u64,
    availability_only: bool,
    planned: u64,
    failed_rows: u64,
    digest: String,
}

/// What the replay child reports: its serial untraced reference run and
/// the traced replay of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ReplayReport {
    reference: ChildReport,
    wall_s: f64,
    counts: replay::Counts,
    spans: Vec<replay::Span>,
    mismatches: Vec<String>,
}

/// One sample as the parent saw it.
struct Sample {
    /// Child start to its first query call, for this sample's child and
    /// for the set-up-only children spawned beside it.
    setup_s: Vec<f64>,
    report: ChildReport,
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    setup_only: bool,
    out: Option<String>,
    chrome_trace: Option<String>,
    child: Option<String>,
    replay: Option<String>,
    workers: Option<usize>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: not a number: {v}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut it)?),
            "--seed" => args.seed = Some(number(&flag, value(&flag, &mut it)?)?),
            "--seconds" => args.seconds = Some(number(&flag, value(&flag, &mut it)?)?),
            "--trace" => {
                args.trace = match value(&flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--setup-only" => args.setup_only = true,
            "--out" => args.out = Some(value(&flag, &mut it)?),
            "--chrome-trace" => args.chrome_trace = Some(value(&flag, &mut it)?),
            "--child" => args.child = Some(value(&flag, &mut it)?),
            "--replay" => args.replay = Some(value(&flag, &mut it)?),
            "--workers" => {
                args.workers = Some(number(&flag, value(&flag, &mut it)?)?.max(1) as usize)
            }
            "--compare" => {
                let base = value(&flag, &mut it)?;
                args.compare = Some((base, value(&flag, &mut it)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if let Some(name) = &args.child {
        child(
            name,
            seed,
            args.smoke,
            args.setup_only,
            args.workers.unwrap_or(1),
        )?;
        return Ok(true);
    }
    if let Some(name) = &args.replay {
        replay_child(name, seed, args.smoke)?;
        return Ok(true);
    }
    if let Some((base, new)) = &args.compare {
        let read = |p: &str| -> Result<RunSet, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
        };
        let bench = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        return report::compare(&bench, &read(base)?, &read(new)?);
    }
    match &args.workload {
        Some(name) => timed_run(name, seed, &args),
        None => full_run(seed, &args),
    }
}

/// Cores available to this process.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the workload and hands the program its inputs the way the
/// `wtql --base` path gets them: the scenario through a JSON round trip.
fn setup(
    name: &str,
    seed: u64,
    smoke: bool,
) -> Result<(workloads::Workload, Scenario, WindTunnel), String> {
    let w =
        workloads::build(name, seed, smoke).ok_or_else(|| format!("unknown workload {name}"))?;
    let json = serde_json::to_string(&w.base).map_err(|e| e.to_string())?;
    let base: Scenario = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    Ok((w, base, WindTunnel::new()))
}

/// Prints the line the parent timestamps as the end of set-up.
fn ready() {
    println!("ready");
}

fn child_report(run: &query::ScriptRun, tunnel: &WindTunnel) -> Result<ChildReport, String> {
    Ok(ChildReport {
        query_s: run.query_s,
        query_cpu_s: run.query_cpu_s,
        peak_rss_mb: query::peak_rss_mib()?,
        sim_events: query::store_events(tunnel),
        total_sim_events: run.outcome.total_sim_events,
        availability_only: query::availability_only(tunnel),
        planned: run.outcome.rows.len() as u64,
        failed_rows: query::failed_rows(&run.outcome) as u64,
        digest: query::digest(&run.query, &run.outcome),
    })
}

/// `--child`: one cold, untraced sample, or only its set-up.
fn child(
    name: &str,
    seed: u64,
    smoke: bool,
    setup_only: bool,
    workers: usize,
) -> Result<(), String> {
    let (w, base, tunnel) = setup(name, seed, smoke)?;
    ready();
    if setup_only {
        return Ok(());
    }
    let run = query::run_script(
        &w.script,
        &base,
        &tunnel,
        workers,
        &mut std::io::stdout().lock(),
    )?;
    let report = child_report(&run, &tunnel)?;
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `--replay`: the serial untraced reference run, then its traced replay.
fn replay_child(name: &str, seed: u64, smoke: bool) -> Result<(), String> {
    let (w, base, tunnel) = setup(name, seed, smoke)?;
    ready();
    let run = query::run_script(&w.script, &base, &tunnel, 1, &mut std::io::stdout().lock())?;
    let reference = child_report(&run, &tunnel)?;
    let reference_store = tunnel.store().snapshot();
    let r = replay::replay(&w.script, &base, &run.outcome, &reference_store)?;
    let report = ReplayReport {
        reference,
        wall_s: r.wall_s,
        counts: r.counts,
        spans: r.spans,
        mismatches: r.mismatches,
    };
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Runs this binary as a child and returns its last stdout line, and the
/// time from spawning it to its `ready` line.
fn spawn(args: &[String]) -> Result<(String, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut proc = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let stdout = proc.stdout.take().ok_or("child has no stdout")?;
    let (mut ready_s, mut last) = (None, String::new());
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if ready_s.is_none() && line == "ready" {
            ready_s = Some(started.elapsed().as_secs_f64());
        } else if !line.trim().is_empty() {
            last = line;
        }
    }
    let status = proc.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("child {args:?} failed: {status}"));
    }
    Ok((last, ready_s.ok_or("child never became ready")?))
}

fn child_args(mode: &str, name: &str, seed: u64, smoke: bool) -> Vec<String> {
    let mut a = vec![mode.into(), name.into(), "--seed".into(), seed.to_string()];
    if smoke {
        a.push("--smoke".into());
    }
    a
}

/// One cold sample on `workers` farm threads.
fn sample(name: &str, seed: u64, smoke: bool, workers: usize) -> Result<Sample, String> {
    let args = child_args("--child", name, seed, smoke);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut only = args.clone();
        only.push("--setup-only".into());
        setup_s.push(spawn(&only)?.1);
    }
    let mut full = args;
    full.extend(["--workers".into(), workers.to_string()]);
    let (line, s) = spawn(&full)?;
    setup_s.push(s);
    let report = serde_json::from_str(&line).map_err(|e| format!("child report: {e}"))?;
    Ok(Sample { setup_s, report })
}

/// One untimed sample on `cores()` workers, whose outputs must equal the
/// serial ones, and the serial reference run plus the traced replay, in
/// one child.
fn traced(name: &str, seed: u64, smoke: bool) -> Result<(Sample, ReplayReport), String> {
    let parallel = sample(name, seed, smoke, cores())?;
    let (line, _) = spawn(&child_args("--replay", name, seed, smoke))?;
    let replay = serde_json::from_str(&line).map_err(|e| format!("replay report: {e}"))?;
    Ok((parallel, replay))
}

/// A workload's recorded outputs, the same for every seed.
#[derive(Debug, Clone, PartialEq, Deserialize)]
struct Expected {
    digest: String,
    sim_events: u64,
}

fn expected(name: &str, smoke: bool) -> Result<Option<Expected>, String> {
    let mut sizes: BTreeMap<String, BTreeMap<String, Expected>> =
        serde_json::from_str(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    Ok(sizes
        .remove(if smoke { "smoke" } else { "full" })
        .and_then(|mut m| m.remove(name)))
}

/// Every output check on one workload's samples and replay: samples agree
/// with each other and with the serial reference, the replay reproduced
/// every row, no row errored, event totals agree where both count the
/// same runs, and the outputs equal the recorded ones.
fn check(
    name: &str,
    smoke: bool,
    samples: &[Sample],
    traced: Option<&(Sample, ReplayReport)>,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let mut reports: Vec<&ChildReport> = samples.iter().map(|s| &s.report).collect();
    if let Some((parallel, t)) = traced {
        reports.push(&parallel.report);
        reports.push(&t.reference);
        problems.extend(t.mismatches.iter().map(|m| format!("replay: {m}")));
    }
    for r in &reports {
        if r.failed_rows > 0 {
            problems.push(format!("{} of {} rows errored", r.failed_rows, r.planned));
        }
        if r.availability_only && r.sim_events != r.total_sim_events {
            problems.push(format!(
                "store telemetry counts {} events, the outcome {}",
                r.sim_events, r.total_sim_events
            ));
        }
    }
    if let Some(first) = reports.first() {
        if reports
            .iter()
            .any(|r| r.digest != first.digest || r.sim_events != first.sim_events)
        {
            problems.push("samples disagree on the verdict digest or event count".into());
        }
        let got = Expected {
            digest: first.digest.clone(),
            sim_events: first.sim_events,
        };
        match expected(name, smoke)? {
            Some(want) if want == got => {}
            want => problems.push(format!("outputs {got:?} differ from the recorded {want:?}")),
        }
    }
    Ok(problems)
}

fn end_to_end(samples: &[Sample]) -> BTreeMap<String, Stat> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let values = samples
                .iter()
                .flat_map(|s| match name {
                    "query_s" => vec![s.report.query_s],
                    "query_cpu_s" => vec![s.report.query_cpu_s],
                    "setup_s" => s.setup_s.clone(),
                    "sim_events" => vec![s.report.sim_events as f64],
                    _ => vec![s.report.peak_rss_mb],
                })
                .collect();
            (name.to_string(), Stat::new(unit, values))
        })
        .collect()
}

fn per_layer(t: &ReplayReport) -> BTreeMap<String, Stat> {
    replay::layer_metrics(&t.spans, &t.counts, t.wall_s, t.reference.query_s)
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), Stat::new(unit, vec![value])))
        .collect()
}

fn print_stats(workload: &str, stats: &BTreeMap<String, Stat>) {
    for (name, s) in stats {
        println!(
            "{workload:<13} {name:<24} {:>16.6} {:<6} [q1 {:.6}, q3 {:.6}, n {}]",
            s.median,
            s.unit,
            s.q1,
            s.q3,
            s.samples.len()
        );
    }
}

/// The per-workload run: one workload, sampled for `--seconds` or replayed
/// once, ending in one JSON result line.
fn timed_run(name: &str, seed: u64, args: &Args) -> Result<bool, String> {
    if !workloads::NAMES.contains(&name) {
        return Err(format!("unknown workload {name}"));
    }
    let seconds = args.seconds.ok_or("--workload needs --seconds")?;
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut replay = None;
    if args.trace {
        replay = Some(traced(name, seed, args.smoke)?);
    } else {
        // Samples until the next one would end past `seconds`, judged by
        // the mean so far, so a run lasts about `seconds` on every workload.
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            let next = elapsed / samples.len().max(1) as f64;
            if samples.len() >= MIN_SAMPLES && elapsed + next > seconds as f64 {
                break;
            }
            samples.push(sample(name, seed, args.smoke, TIMED_WORKERS)?);
        }
    }
    let problems = check(name, args.smoke, &samples, replay.as_ref())?;
    for p in &problems {
        eprintln!("check failed: {name}: {p}");
    }
    let stats = match &replay {
        Some((_, t)) => {
            if let Some(path) = &args.chrome_trace {
                report::write_chrome_trace(path, &[(name, &t.spans)])?;
            }
            per_layer(t)
        }
        None => end_to_end(&samples),
    };
    print_stats(name, &stats);
    let reports: Vec<&ChildReport> = samples
        .iter()
        .chain(replay.as_ref().map(|(p, _)| p))
        .map(|s| &s.report)
        .collect();
    let attempted: u64 = reports.iter().map(|r| r.planned).sum();
    let failed = if problems.is_empty() {
        reports.iter().map(|r| r.failed_rows).sum()
    } else {
        attempted
    };
    let metrics: BTreeMap<String, MetricValue> = stats
        .into_iter()
        .map(|(k, s)| {
            (
                k,
                MetricValue {
                    value: s.median,
                    unit: s.unit,
                },
            )
        })
        .collect();
    let result = ResultLine {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(problems.is_empty())
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

/// Every workload: interleaved cold samples, then a traced replay each.
fn full_run(seed: u64, args: &Args) -> Result<bool, String> {
    let rounds = if args.smoke { 1 } else { FULL_SAMPLES };
    let mut samples: BTreeMap<&str, Vec<Sample>> = BTreeMap::new();
    for round in 0..rounds {
        for name in workloads::NAMES {
            let s = sample(name, seed, args.smoke, TIMED_WORKERS)?;
            eprintln!("round {round} {name}: {:.3}s", s.report.query_s);
            samples.entry(name).or_default().push(s);
        }
    }
    let mut set = RunSet {
        seed,
        smoke: args.smoke,
        cpus: cores(),
        workloads: BTreeMap::new(),
    };
    let mut lanes = Vec::new();
    for name in workloads::NAMES {
        let t = traced(name, seed, args.smoke)?;
        let s = &samples[name];
        let problems = check(name, args.smoke, s, Some(&t))?;
        for p in &problems {
            eprintln!("check failed: {name}: {p}");
        }
        set.workloads.insert(
            name.to_string(),
            WorkloadResult {
                end_to_end: end_to_end(s),
                per_layer: per_layer(&t.1),
                problems,
            },
        );
        lanes.push((name, t.1));
    }
    println!(
        "seed {seed}, {} cores{}",
        set.cpus,
        if args.smoke { ", smoke" } else { "" }
    );
    for (name, w) in &set.workloads {
        print_stats(name, &w.end_to_end);
    }
    for (name, w) in &set.workloads {
        print_stats(name, &w.per_layer);
    }
    if let Some(path) = &args.chrome_trace {
        let refs: Vec<(&str, &[replay::Span])> =
            lanes.iter().map(|(n, t)| (*n, &t.spans[..])).collect();
        report::write_chrome_trace(path, &refs)?;
    }
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    let ok = set.workloads.values().all(|w| w.problems.is_empty());
    println!("checks: {}", if ok { "all passed" } else { "FAILED" });
    Ok(ok)
}
