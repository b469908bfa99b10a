//! The traced serial replay: re-drives one query through each layer's
//! public functions, timing every call from outside the library, and
//! checks that it reproduces the untraced run bit for bit.
//!
//! It parses and plans, then walks the reference outcome's rows in plan
//! order: bind every axis, screen (on `GUIDED`), cost, then each
//! replication's engine run with a probe that timestamps the first event,
//! which splits engine set-up from the event loop. Records go through a
//! `StoreShard` merged into the store per row, as the farm does. Spans
//! stay in memory; the caller writes them out at exit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;
use windtunnel::analytic::{Rel, ScreenVerdict};
use windtunnel::cluster::screen::availability_screen;
use windtunnel::des::time::SimDuration;
use windtunnel::obs::{Probe, RunTelemetry};
use windtunnel::prelude::*;
use windtunnel::store::{RecordSink, RunRecord, StoreShard};
use wt_wtql::bind::is_known_axis;
use wt_wtql::{
    apply_assignment, parse_script, store_stats, Assignment, Comparison, ExecOptions, Plan, Query,
    QueryOutcome, RunRow, Statement,
};

/// One timed call, in seconds since the replay started.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub dur_s: f64,
    /// Plan index of the row the call served.
    pub point: Option<usize>,
    /// Replication index of the engine run the call served.
    pub rep: Option<usize>,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn push(
        &mut self,
        name: &str,
        from: Instant,
        to: Instant,
        point: Option<usize>,
        rep: Option<usize>,
    ) {
        self.spans.push(Span {
            name: name.into(),
            start_s: (from - self.origin).as_secs_f64(),
            dur_s: (to - from).as_secs_f64(),
            point,
            rep,
        });
    }

    fn time<R>(&mut self, name: &str, point: Option<usize>, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.push(name, t0, Instant::now(), point, None);
        r
    }
}

/// Timestamps the first event the engine hands its probe: everything
/// before it is engine set-up, everything after is the event loop.
#[derive(Default)]
struct FirstEvent(Option<Instant>);

impl Probe for FirstEvent {
    fn on_event(&mut self, _label: &'static str, _now_s: f64, _queue_depth: usize) {
        if self.0.is_none() {
            self.0 = Some(Instant::now());
        }
    }
}

/// Work counts the replay observed.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Counts {
    pub points: u64,
    pub pruned: u64,
    pub screen_points: u64,
    pub screen_calls: u64,
    pub screened: u64,
    pub runs: u64,
    pub events: u64,
    pub peak_pending: u64,
    pub calendar_runs: u64,
    pub reps_run: u64,
    pub reps_budget: u64,
    pub records: u64,
    pub snapshot_bytes: u64,
}

/// The replay's result: spans, counts, and every way it diverged from
/// the reference run (empty when it reproduced it bit for bit).
pub struct Replay {
    pub spans: Vec<Span>,
    pub wall_s: f64,
    pub counts: Counts,
    pub mismatches: Vec<String>,
}

/// Replays `script` against `base`, checking it against `reference`: the
/// serial untraced outcome of the same script, whose records are in
/// `reference_store`.
pub fn replay(
    script: &str,
    base: &Scenario,
    reference: &QueryOutcome,
    reference_store: &[RunRecord],
) -> Result<Replay, String> {
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let tunnel = WindTunnel::new();
    let mut counts = Counts::default();
    let mut mismatches = Vec::new();

    let statements = tr
        .time("wtql.parse", None, || parse_script(script))
        .map_err(|e| e.to_string())?;
    let query = statements
        .into_iter()
        .find_map(|s| match s {
            Statement::Query(q) => Some(q),
            Statement::Stats => None,
        })
        .ok_or("script holds no query")?;
    if !query.injects.is_empty() {
        return Err("the replay does not re-drive INJECT clauses".into());
    }
    let (plan, opts) = tr.time("wtql.plan", None, || {
        (Plan::build(&query), ExecOptions::from_query(&query))
    });
    let plan = plan.map_err(|e| e.to_string())?;
    if plan.configs.len() != reference.rows.len() {
        return Err(format!(
            "plan has {} points, reference {}",
            plan.configs.len(),
            reference.rows.len()
        ));
    }
    counts.points = plan.configs.len() as u64;

    let failed = |r: &RunRow| !r.pruned && !r.passes && !query.constraints.is_empty();
    for (i, (config, row)) in plan.configs.iter().zip(&reference.rows).enumerate() {
        if *config != row.assignment {
            mismatches.push(format!("point {i}: plan order differs from the reference"));
            continue;
        }
        if opts.prune {
            let dominated = (0..i).any(|j| {
                failed(&reference.rows[j]) && plan.dominated_by_failure(config, &plan.configs[j])
            });
            if dominated != row.pruned {
                mismatches.push(format!(
                    "point {i}: pruned {}, expected {dominated}",
                    row.pruned
                ));
            }
        }
        if row.pruned {
            counts.pruned += 1;
            continue;
        }
        let scenario = tr
            .time("wtql.bind", Some(i), || bind(base, config))
            .map_err(|e| format!("point {i}: {e}"))?;
        let screened = tr.time("analytic.screen", Some(i), || {
            screen(&query, &opts, &scenario, &mut counts)
        });
        let cost = tr.time("hw.cost", Some(i), || {
            tunnel.cost_model().cost(&scenario.topology)
        });
        let mut metrics = BTreeMap::new();
        metrics.insert("tco_usd_per_year".to_string(), cost.tco_usd_per_year);
        metrics.insert(
            "usd_per_usable_gb_year".to_string(),
            cost.tco_usd_per_year / (cost.raw_storage_gb / scenario.redundancy.overhead()),
        );
        let shard = StoreShard::new();
        if let Some(passes) = screened {
            counts.screened += 1;
            if !row.screened || row.passes != passes {
                mismatches.push(format!("point {i}: screen verdict differs"));
            }
            tr.time("store.record", Some(i), || {
                let mut rec = RunRecord::new("screened", scenario.seed);
                for (k, v) in config {
                    rec = rec.param(k.clone(), v.clone());
                }
                rec = rec.param("verdict_source", "screened");
                for (k, v) in &metrics {
                    rec = rec.metric(k.clone(), *v);
                }
                shard.record(rec);
            });
        } else if row.screened || row.aborted {
            mismatches.push(format!(
                "point {i}: screened or aborted rows are not replayed"
            ));
        } else if !row.metrics.is_empty() {
            let events = simulate(
                &mut tr,
                &mut counts,
                &tunnel,
                &opts,
                &scenario,
                row,
                i,
                &mut metrics,
                &shard,
            );
            let avail = row.metrics.contains_key("availability");
            if avail && events != row.sim_events_executed {
                mismatches.push(format!(
                    "point {i}: {events} events, reference {}",
                    row.sim_events_executed
                ));
            }
        }
        if (row.screened || !row.metrics.is_empty()) && !same_bits(&metrics, &row.metrics) {
            mismatches.push(format!("point {i}: metric bits differ"));
        }
        tr.time("store.merge", Some(i), || tunnel.store().merge_shard(shard));
    }

    let table = tr.time("wtql.render", None, || {
        crate::query::render(&query, reference)
    });
    let stats = tr.time("store.stats", None, || store_stats(tunnel.store()));
    print!("{table}{stats}");
    let snapshot = tr.time("obs.snapshot", None, || {
        tunnel.store().metrics_snapshot().render()
    });
    counts.snapshot_bytes = snapshot.len() as u64;
    let wall_s = tr.origin.elapsed().as_secs_f64();

    let records = tunnel.store().snapshot();
    counts.records = records.len() as u64;
    if records.len() != reference_store.len() {
        mismatches.push(format!(
            "{} records, reference {}",
            records.len(),
            reference_store.len()
        ));
    } else if let Some(k) =
        (0..records.len()).find(|&k| !same_record(&records[k], &reference_store[k]))
    {
        mismatches.push(format!("record {k} differs from the reference"));
    }
    Ok(Replay {
        spans: tr.spans,
        wall_s,
        counts,
        mismatches,
    })
}

/// The per-layer metrics, as `(name, value, unit)`, from a replay's
/// spans and counts and the serial untraced query time it re-drove.
pub fn layer_metrics(
    spans: &[Span],
    counts: &Counts,
    wall_s: f64,
    serial_query_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .sum()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = |n: u64| n as f64;
    let loop_s = total("cluster.loop");
    let spanned: f64 = spans.iter().map(|s| s.dur_s).sum();
    vec![
        ("wtql.parse_s", total("wtql.parse"), "s"),
        ("wtql.plan_s", total("wtql.plan"), "s"),
        ("wtql.bind_s", total("wtql.bind"), "s"),
        ("wtql.render_s", total("wtql.render"), "s"),
        ("wtql.points", c(counts.points), "count"),
        (
            "wtql.pruned_ratio",
            ratio(c(counts.pruned), c(counts.points)),
            "ratio",
        ),
        ("analytic.screen_s", total("analytic.screen"), "s"),
        ("analytic.screen_calls", c(counts.screen_calls), "count"),
        (
            "analytic.screened_ratio",
            ratio(c(counts.screened), c(counts.screen_points)),
            "ratio",
        ),
        ("hw.cost_s", total("hw.cost"), "s"),
        ("cluster.runs", c(counts.runs), "count"),
        ("cluster.setup_s", total("cluster.setup"), "s"),
        ("cluster.loop_s", loop_s, "s"),
        ("cluster.events", c(counts.events), "count"),
        (
            "cluster.events_per_s",
            ratio(c(counts.events), loop_s),
            "1/s",
        ),
        ("des.peak_pending", c(counts.peak_pending), "count"),
        ("des.calendar_runs", c(counts.calendar_runs), "count"),
        (
            "core.reps_used_ratio",
            ratio(c(counts.reps_run), c(counts.reps_budget)),
            "ratio",
        ),
        ("core.unattributed_s", serial_query_s - wall_s, "s"),
        ("store.records", c(counts.records), "count"),
        ("store.record_s", total("store.record"), "s"),
        ("store.merge_s", total("store.merge"), "s"),
        ("store.stats_s", total("store.stats"), "s"),
        ("obs.snapshot_s", total("obs.snapshot"), "s"),
        ("obs.snapshot_bytes", c(counts.snapshot_bytes), "bytes"),
        ("trace.coverage", ratio(spanned, wall_s), "ratio"),
        ("trace.fidelity", ratio(wall_s, serial_query_s), "ratio"),
    ]
}

/// The grid point's scenario: the base with every known axis applied
/// and the assignment as its name.
fn bind(base: &Scenario, config: &Assignment) -> Result<Scenario, String> {
    let mut scenario = base.clone();
    for (axis, value) in config {
        if is_known_axis(axis) {
            apply_assignment(&mut scenario, axis, value).map_err(|e| e.to_string())?;
        }
    }
    scenario.name = config
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",");
    Ok(scenario)
}

/// The guided availability screen over every constraint: `Some(passes)`
/// when the screen settles the row, `None` when it must be simulated.
/// Only availability constraints have a screen on these workloads; any
/// other constraint stays undecided.
fn screen(
    query: &Query,
    opts: &ExecOptions,
    scenario: &Scenario,
    counts: &mut Counts,
) -> Option<bool> {
    if !opts.guided || !opts.screen || query.constraints.is_empty() {
        return None;
    }
    counts.screen_points += 1;
    let (mut all_pass, mut any_fail) = (true, false);
    for c in &query.constraints {
        let rel = match c.cmp {
            Comparison::Ge => Some(Rel::Ge),
            Comparison::Gt => Some(Rel::Gt),
            Comparison::Le => Some(Rel::Le),
            Comparison::Lt => Some(Rel::Lt),
            Comparison::Eq => None,
        };
        let verdict = match rel {
            Some(rel) if c.metric == "availability" => {
                counts.screen_calls += 1;
                availability_screen(scenario, opts.screen_min_failures).screen(
                    rel,
                    c.bound,
                    opts.screen_guard,
                )
            }
            _ => ScreenVerdict::Unknown,
        };
        match verdict {
            ScreenVerdict::Fail => any_fail = true,
            ScreenVerdict::Pass => {}
            ScreenVerdict::Unknown => all_pass = false,
        }
    }
    let exact_objective = query
        .objective
        .as_ref()
        .is_none_or(|o| o.metric == "tco_usd_per_year" || o.metric == "usd_per_usable_gb_year");
    if any_fail {
        Some(false)
    } else if all_pass && exact_objective {
        Some(true)
    } else {
        None
    }
}

/// Runs one row's replications and folds their mean into `metrics`.
/// Availability rows stop once the reference's executed event count is
/// reached, which reproduces replication early-stop without re-deriving
/// its confidence test. Returns the availability events executed.
#[allow(clippy::too_many_arguments)]
fn simulate(
    tr: &mut Tracer,
    counts: &mut Counts,
    tunnel: &WindTunnel,
    opts: &ExecOptions,
    scenario: &Scenario,
    row: &RunRow,
    point: usize,
    metrics: &mut BTreeMap<String, f64>,
    shard: &StoreShard,
) -> u64 {
    let avail = row.metrics.contains_key("availability");
    let perf =
        !scenario.tenants.is_empty() && row.metrics.keys().any(|k| k.ends_with("_throughput"));
    let budget = opts.replications.max(1);
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let (mut events, mut used) = (0u64, 0usize);
    for rep in 0..budget {
        let mut sc = scenario.clone();
        sc.seed = scenario.seed.wrapping_add(rep as u64 * 7919);
        let mut rep_metrics: BTreeMap<String, f64> = BTreeMap::new();
        if avail {
            let (r, tel) = engine(tr, counts, point, rep, |probe| {
                WindTunnel::availability_model(&sc).run_observed(
                    sc.seed,
                    SimDuration::from_years(sc.horizon_years),
                    Some(probe),
                )
            });
            events += r.sim_events;
            for (k, v) in [
                ("availability", r.availability),
                ("nines", r.nines),
                ("unavailability_events", r.unavailability_events as f64),
                ("objects_lost", r.objects_lost as f64),
                ("node_failures", r.node_failures as f64),
                ("rebuilds_completed", r.rebuilds_completed as f64),
                ("mean_rebuild_wait_s", r.mean_rebuild_wait_s),
                ("sim_events", r.sim_events as f64),
                ("peak_queue_depth", tel.peak_queue_depth as f64),
                ("mean_queue_depth", tel.mean_queue_depth),
            ] {
                rep_metrics.insert(k.into(), v);
            }
            let tco = tr.time("hw.cost", Some(point), || {
                tunnel.cost_model().cost(&sc.topology).tco_usd_per_year
            });
            tr.time("store.record", Some(point), || {
                shard.record(
                    base_record(&sc, "availability")
                        .metric("availability", r.availability)
                        .metric("unavailability_events", r.unavailability_events as f64)
                        .metric("objects_lost", r.objects_lost as f64)
                        .metric("node_failures", r.node_failures as f64)
                        .metric("tco_usd_per_year", tco)
                        .telemetry(tel),
                )
            });
        }
        if perf {
            let (r, tel) = engine(tr, counts, point, rep, |probe| {
                WindTunnel::perf_model(&sc, false).run_observed(sc.seed, Some(probe))
            });
            for t in &r.tenants {
                rep_metrics.insert(format!("{}_p50_s", t.name), t.p50_s);
                rep_metrics.insert(format!("{}_p95_s", t.name), t.p95_s);
                rep_metrics.insert(format!("{}_p99_s", t.name), t.p99_s);
                rep_metrics.insert(format!("{}_mean_s", t.name), t.mean_s);
                rep_metrics.insert(format!("{}_throughput", t.name), t.throughput);
                rep_metrics.insert(format!("{}_failed", t.name), t.failed as f64);
            }
            let tco = tr.time("hw.cost", Some(point), || {
                tunnel.cost_model().cost(&sc.topology).tco_usd_per_year
            });
            tr.time("store.record", Some(point), || {
                let mut rec = base_record(&sc, "perf")
                    .metric("tco_usd_per_year", tco)
                    .telemetry(tel);
                for t in &r.tenants {
                    rec = rec
                        .metric(format!("{}_p95_s", t.name), t.p95_s)
                        .metric(format!("{}_p99_s", t.name), t.p99_s)
                        .metric(format!("{}_throughput", t.name), t.throughput);
                }
                shard.record(rec)
            });
        }
        for (k, v) in rep_metrics {
            *sums.entry(k).or_insert(0.0) += v;
        }
        used += 1;
        if avail && events >= row.sim_events_executed {
            break;
        }
    }
    for (k, v) in sums {
        metrics.insert(k, v / used as f64);
    }
    counts.reps_run += used as u64;
    counts.reps_budget += budget as u64;
    events
}

/// One engine run: set-up and event-loop spans around `run`, which
/// receives the first-event probe.
fn engine<R>(
    tr: &mut Tracer,
    counts: &mut Counts,
    point: usize,
    rep: usize,
    run: impl FnOnce(&mut dyn Probe) -> (R, RunTelemetry),
) -> (R, RunTelemetry) {
    let mut first = FirstEvent::default();
    let t0 = Instant::now();
    let (result, mut tel) = run(&mut first);
    let t1 = Instant::now();
    tel.wall.wall_us = (t1 - t0).as_micros() as u64;
    let split = first.0.unwrap_or(t1);
    tr.push("cluster.setup", t0, split, Some(point), Some(rep));
    tr.push("cluster.loop", split, t1, Some(point), Some(rep));
    counts.runs += 1;
    counts.events += tel.events;
    counts.peak_pending = counts.peak_pending.max(tel.peak_queue_depth);
    if tel.queue.as_deref() == Some("calendar") {
        counts.calendar_runs += 1;
    }
    (result, tel)
}

/// The parameters `WindTunnel` attaches to every engine record.
fn base_record(sc: &Scenario, experiment: &str) -> RunRecord {
    RunRecord::new(experiment, sc.seed)
        .param("scenario", sc.name.as_str())
        .param("nodes", sc.topology.node_count())
        .param("racks", sc.topology.racks)
        .param("disk", sc.topology.node.disks[0].name.as_str())
        .param("nic_gbps", sc.topology.node.nic.bandwidth_gbps)
        .param("mem_gb", sc.topology.node.mem.capacity_gb)
        .param("redundancy", sc.redundancy.label().as_str())
        .param("placement", sc.placement.label())
        .param("repair_parallel", sc.repair.max_parallel)
        .param("objects", sc.objects as usize)
}

fn same_bits(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Records agree on everything but wall-clock telemetry.
fn same_record(a: &RunRecord, b: &RunRecord) -> bool {
    let masked = |r: &RunRecord| {
        let mut r = r.clone();
        if let Some(t) = r.telemetry.as_mut() {
            t.mask_wall();
        }
        r
    };
    masked(a) == masked(b)
}
