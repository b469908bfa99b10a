//! The query executor: parallel run dispatch, dominance pruning, early
//! abort (§4.2), and the guided execution mode (DESIGN.md §12).
//!
//! Dispatch is not bespoke: the planned configuration order becomes an
//! explicit [`windtunnel::sweep::SweepGrid`] and runs through
//! [`windtunnel::sweep::SweepRunner::run_points`] on the farm's one
//! ready-set scheduler — the same engine the experiment binaries use.
//! Dominance pruning hands the scheduler dependency edges: a
//! configuration starts only after every earlier-planned configuration
//! that could prune it has a verdict, so its prune check is a plain read.
//! This module adds only what queries need on top: the dominance edges,
//! probe-and-abort, replication averaging, and the constraint/objective
//! verdicts.
//!
//! The `GUIDED` clause (or `OPTIONS guided = TRUE`) arms three
//! cooperating stages on that same path, each individually toggleable
//! and each off by default:
//!
//! 1. **Analytic screening** — conservative closed-form bounds
//!    (`wt-analytic` via `wt-cluster`'s extraction) resolve a point's
//!    verdict without simulating it; such rows are marked `screened` and
//!    record a synthetic `verdict_source = "screened"` provenance record.
//! 2. **Surrogate ranking** — a ridge-regression surrogate over the
//!    numeric axes becomes the scheduler's rank, steering the unexecuted
//!    frontier toward likely-infeasible points so dominance pruning fires
//!    sooner. Ranking only reorders work; it never touches a verdict.
//! 3. **Early stopping** — a short sketch probe aborts hopeless perf
//!    runs at the probe horizon, and per-constraint confidence intervals
//!    stop replication loops once the verdict is already confident
//!    (never below two recorded replications).

use crate::ast::{Comparison, Constraint, Query};
use crate::bind::{apply_assignment, is_known_axis, resolve_injection};
use crate::error::WtqlError;
use crate::plan::{Assignment, Plan};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use windtunnel::analytic::screen::{Rel, ScreenVerdict};
use windtunnel::cluster::availability::{MAX_NODES, MAX_OBJECTS, MAX_WIDTH};
use windtunnel::cluster::screen::{availability_screen, perf_screen};
use windtunnel::cluster::Scenario;
use windtunnel::des::time::SimDuration;
use windtunnel::des::Tally;
use windtunnel::farm::{Farm, Rank};
use windtunnel::sw::Placer;
use windtunnel::sweep::{SweepGrid, SweepPoint, SweepRunner};
use windtunnel::{MeanInterval, Surrogate, WindTunnel};
use wt_store::{ParamValue, RecordSink};

/// The most replications one configuration may ask for: each is a full
/// simulation, so a larger count is a typo rather than a design study.
pub const MAX_REPLICATIONS: usize = 10_000;

/// The most worker threads a query may ask for: the farm starts one OS
/// thread per worker, up to the point count.
pub const MAX_THREADS: usize = 1_024;

/// Execution knobs (overridable from the query's OPTIONS clause).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads.
    pub threads: usize,
    /// Monotone dominance pruning on/off.
    pub prune: bool,
    /// Probe-and-abort hopeless runs.
    pub early_abort: bool,
    /// Fraction of the horizon the probe simulates.
    pub probe_fraction: f64,
    /// Availability slack below the bound before the heuristic abort
    /// fires (sound aborts on monotone metrics ignore this).
    pub abort_margin: f64,
    /// Independent replications per configuration; numeric metrics are
    /// averaged over seeds (variance reduction for the bursty availability
    /// metrics). 1 = single run.
    pub replications: usize,
    /// Guided execution: the master switch for screening and surrogate
    /// ranking. Set by the `GUIDED` clause, which also arms the four
    /// stage toggles below; each can then be disabled individually via
    /// OPTIONS.
    pub guided: bool,
    /// Analytic screening (guided stage 1): resolve points whose verdict
    /// a conservative closed-form bound already decides, without DES.
    pub screen: bool,
    /// Surrogate ranking (guided stage 2): visit likely-infeasible
    /// points first so dominance pruning fires sooner. Reorders only.
    pub rank: bool,
    /// Replication early-stop (guided stage 3): stop a replication loop
    /// once every constraint is confidently resolved (≥ 2 reps always).
    pub early_stop: bool,
    /// Sketch-driven probe abort (guided stage 3): abort a perf run
    /// whose probe-horizon sketch quantile already violates a latency
    /// ceiling by more than `abort_margin`.
    pub sketch_abort: bool,
    /// Extra margin an analytic bound must clear beyond the constraint
    /// threshold before a screen may decide (widens the Unknown band).
    pub screen_guard: f64,
    /// Minimum expected node failures over the horizon before
    /// availability screens arm (below it the DES may measure exactly
    /// 1.0 and an analytic Fail would be unsound).
    pub screen_min_failures: f64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            prune: true,
            early_abort: false,
            probe_fraction: 0.1,
            abort_margin: 0.01,
            replications: 1,
            guided: false,
            screen: false,
            rank: false,
            early_stop: false,
            sketch_abort: false,
            screen_guard: 0.0,
            screen_min_failures: 10.0,
        }
    }
}

impl ExecOptions {
    /// Reads overrides from the query's OPTIONS clause
    /// (`OPTIONS threads = 4, prune = FALSE, early_abort = TRUE`), in
    /// source order. An entry that does not apply — an unknown key or a
    /// value of the wrong type — is skipped here; [`run_query`] rejects
    /// the query for it.
    pub fn from_query(query: &Query) -> Self {
        let mut o = ExecOptions::default();
        if query.guided {
            o.set_guided(true);
        }
        for (key, value) in &query.options {
            let _ = o.apply(key, value);
        }
        o
    }

    /// The master switch: arms or disarms guided mode and every stage.
    fn set_guided(&mut self, on: bool) {
        self.guided = on;
        self.screen = on;
        self.rank = on;
        self.early_stop = on;
        self.sketch_abort = on;
    }

    /// Applies one OPTIONS entry; errs, naming the key, when the key is
    /// unknown or the value has the wrong type.
    fn apply(&mut self, key: &str, value: &ParamValue) -> Result<(), String> {
        let num = || {
            value
                .as_num()
                .ok_or_else(|| format!("option '{key}' needs a number, got '{value}'"))
        };
        let flag = || match value {
            ParamValue::Bool(b) => Ok(*b),
            _ => Err(format!("option '{key}' needs TRUE or FALSE, got '{value}'")),
        };
        // A count: a whole number from 1 to `max`.
        let count = |max: usize| {
            let v = num()?;
            if v.fract() == 0.0 && v >= 1.0 && v <= max as f64 {
                return Ok(v as usize);
            }
            Err(format!(
                "option '{key}' needs a whole number from 1 to {max}, got '{value}'"
            ))
        };
        // A number in `lo..=hi`; NaN is in no range.
        let within = |lo: f64, hi: f64| {
            let v = num()?;
            if (lo..=hi).contains(&v) {
                return Ok(v);
            }
            let range = if hi.is_finite() {
                format!("from {lo} to {hi}")
            } else {
                format!("of at least {lo}")
            };
            Err(format!(
                "option '{key}' needs a number {range}, got '{value}'"
            ))
        };
        match key {
            "threads" => self.threads = count(MAX_THREADS)?,
            "prune" => self.prune = flag()?,
            "early_abort" => self.early_abort = flag()?,
            "probe_fraction" => self.probe_fraction = within(0.01, 0.9)?,
            "abort_margin" => self.abort_margin = within(0.0, f64::INFINITY)?,
            "replications" => self.replications = count(MAX_REPLICATIONS)?,
            // The master switch mirrors the GUIDED clause: it arms every
            // stage. Options apply in source order, so a later
            // `screen = FALSE` can still disable one stage.
            "guided" => self.set_guided(flag()?),
            "screen" => self.screen = flag()?,
            "rank" => self.rank = flag()?,
            "early_stop" => self.early_stop = flag()?,
            "sketch_abort" => self.sketch_abort = flag()?,
            "screen_guard" => self.screen_guard = within(0.0, f64::INFINITY)?,
            "screen_min_failures" => self.screen_min_failures = within(0.0, f64::INFINITY)?,
            _ => return Err(format!("unknown option '{key}'")),
        }
        Ok(())
    }
}

/// One configuration's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// The configuration.
    pub assignment: Assignment,
    /// Output metrics (empty for pruned rows).
    pub metrics: BTreeMap<String, f64>,
    /// All constraints satisfied.
    pub passes: bool,
    /// Skipped without simulation (dominated by a failed config).
    pub pruned: bool,
    /// Aborted on the probe horizon.
    pub aborted: bool,
    /// Resolved analytically without simulation (guided screening).
    /// Screened rows carry only the exact cost metrics.
    pub screened: bool,
    /// The replication loop stopped early once every constraint was
    /// confidently resolved (guided early-stop; ≥ 2 reps always ran).
    pub early_stopped: bool,
    /// Discrete events this row actually executed, summed across every
    /// replication and probe. Unlike the averaged `sim_events` metric,
    /// this is the row's true simulation cost — zero for pruned and
    /// screened rows.
    pub sim_events_executed: u64,
    /// Why the configuration's scenario could not be built (e.g. more
    /// nodes than the availability engine can model); `None` for every
    /// other row. A rejected row is never simulated, carries no metrics
    /// and prunes nothing.
    pub rejected: Option<String>,
}

/// The result of executing a query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// One row per configuration, in plan order.
    pub rows: Vec<RunRow>,
    /// Index of the objective-best passing row, if any.
    pub best: Option<usize>,
    /// Runs fully simulated (rejected rows are not).
    pub executed: usize,
    /// Runs pruned by dominance.
    pub pruned: usize,
    /// Runs aborted on the probe.
    pub aborted: usize,
    /// Points resolved by analytic screening, without simulation.
    pub screened: usize,
    /// Points whose replication loop early-stopped.
    pub early_stopped: usize,
    /// Total discrete events actually simulated, summed across every
    /// row's replications and probes (cost proxy — what guided execution
    /// tries to shrink).
    pub total_sim_events: u64,
}

impl QueryOutcome {
    /// The best row, if an objective was given and some row passed.
    pub fn best_row(&self) -> Option<&RunRow> {
        self.best.map(|i| &self.rows[i])
    }

    /// Rows that satisfied all constraints.
    pub fn passing(&self) -> Vec<&RunRow> {
        self.rows.iter().filter(|r| r.passes).collect()
    }
}

const AVAIL_METRICS: &[&str] = &[
    "availability",
    "nines",
    "unavailability_events",
    "objects_lost",
    "node_failures",
    "rebuilds_completed",
    "mean_rebuild_wait_s",
    "sim_events",
    // Engine telemetry (wt-obs), queryable like any simulation output.
    "peak_queue_depth",
    "mean_queue_depth",
];

/// Metrics whose value can only grow as the horizon extends; a probe that
/// already violates an upper bound on one of these makes the full run's
/// violation certain — the *sound* early abort.
const MONOTONE_IN_TIME: &[&str] = &["objects_lost", "unavailability_events", "node_failures"];

fn is_perf_metric(name: &str) -> bool {
    name.ends_with("_p50_s")
        || name.ends_with("_p95_s")
        || name.ends_with("_p99_s")
        || name.ends_with("_mean_s")
        || name.ends_with("_throughput")
        || name.ends_with("_failed")
}

fn is_avail_metric(name: &str) -> bool {
    AVAIL_METRICS.contains(&name)
}

/// Rejects an OPTIONS entry [`ExecOptions::from_query`] had to skip: an
/// unknown key (a typo would otherwise run with the default silently)
/// or a value of the wrong type.
fn validate_options(query: &Query) -> Result<(), WtqlError> {
    let mut scratch = ExecOptions::default();
    for (key, value) in &query.options {
        scratch.apply(key, value).map_err(WtqlError::Semantic)?;
    }
    Ok(())
}

fn validate_metrics(query: &Query) -> Result<(), WtqlError> {
    let all: Vec<&str> = query
        .explore
        .iter()
        .map(String::as_str)
        .chain(query.constraints.iter().map(|c| c.metric.as_str()))
        .chain(query.objective.iter().map(|o| o.metric.as_str()))
        .collect();
    for m in all {
        if !(is_avail_metric(m)
            || is_perf_metric(m)
            || m == "tco_usd_per_year"
            || m == "usd_per_usable_gb_year")
        {
            return Err(WtqlError::Semantic(format!("unknown metric '{m}'")));
        }
    }
    Ok(())
}

/// Renders the result-store report behind the `STATS` statement (and the
/// interactive `.stats` command): record count, per-experiment counts,
/// and the store's sketch-derived distributions —
/// p50/p95/p99/p999 of every quantile summary in the store's
/// [`MetricsSnapshot`](wt_store::ResultStore::metrics_snapshot) (scalar
/// metrics across runs as `metric_<name>`, plus per-run telemetry
/// sketches merged label-wise) and the HLL distinct-key cardinalities.
/// Runs no simulation, never fails, and is a harmless no-op on an empty
/// store — safe anywhere in a script.
pub fn store_stats(store: &wt_store::SharedStore) -> String {
    store.with(|s| {
        let mut out = format!("store: {} record(s)\n", s.len());
        let counts = s.experiment_counts();
        if counts.is_empty() {
            out.push_str("  (no experiments recorded)\n");
        } else {
            for (exp, n) in counts {
                out.push_str(&format!("  {exp}: {n} run(s)\n"));
            }
        }
        let snap = s.metrics_snapshot();
        if !snap.quantiles.is_empty() {
            out.push_str("  sketch quantiles (p50 / p95 / p99 / p999):\n");
            for (label, sk) in &snap.quantiles {
                out.push_str(&format!(
                    "    {label}: {} / {} / {} / {} ({} obs)\n",
                    fmt_stat(sk.p50()),
                    fmt_stat(sk.p95()),
                    fmt_stat(sk.p99()),
                    fmt_stat(sk.p999()),
                    sk.count()
                ));
            }
        }
        if !snap.distincts.is_empty() {
            out.push_str("  distinct cardinalities (HLL):\n");
            for (label, h) in &snap.distincts {
                out.push_str(&format!("    {label}: ~{}\n", h.estimate().round() as u64));
            }
        }
        // Verdict provenance: guided execution writes records whose
        // `verdict_source` param says how the verdict was reached
        // ("screened", "aborted"); everything else was fully simulated.
        // Shown only when a guided run has actually contributed.
        let mut provenance: BTreeMap<String, usize> = BTreeMap::new();
        for rec in s.records() {
            let source = rec
                .params
                .get("verdict_source")
                .map(|v| v.to_string())
                .unwrap_or_else(|| "simulated".into());
            *provenance.entry(source).or_insert(0) += 1;
        }
        if provenance.keys().any(|k| k != "simulated") {
            out.push_str("  verdict sources:\n");
            for (source, count) in &provenance {
                out.push_str(&format!("    {source}: {count} record(s)\n"));
            }
        }
        out
    })
}

/// Compact stat formatting for the STATS view: scientific for the very
/// small, six significant digits otherwise.
fn fmt_stat(x: f64) -> String {
    if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{:.6}", (x * 1e6).round() / 1e6)
    }
}

/// Which simulation engines the query's metrics require.
fn needed_engines(query: &Query) -> (bool, bool) {
    let mentioned = || {
        query
            .explore
            .iter()
            .map(String::as_str)
            .chain(query.constraints.iter().map(|c| c.metric.as_str()))
            .chain(query.objective.iter().map(|o| o.metric.as_str()))
    };
    (
        mentioned().any(is_avail_metric),
        mentioned().any(is_perf_metric),
    )
}

/// Executes a query against a base scenario through a wind tunnel.
/// Errs on an unknown metric, an OPTIONS entry with an unknown key or a
/// wrong-typed value, or a plan that does not build; a grid point whose
/// scenario cannot be built is a `rejected` row instead.
///
/// Every simulated run lands in the tunnel's result store. Guided stages
/// (`opts.guided` with `screen`/`rank`) change how much simulation runs,
/// never the verdicts: screens are conservative (they only decide what
/// the DES would also decide), ranking only reorders execution, and a
/// screened pass is accepted only when the objective needs no simulated
/// metric.
pub fn run_query(
    query: &Query,
    base: &Scenario,
    tunnel: &WindTunnel,
    opts: &ExecOptions,
) -> Result<QueryOutcome, WtqlError> {
    validate_options(query)?;
    validate_metrics(query)?;
    let plan = Plan::build(query)?;
    let n = plan.len();

    // Pruning is deterministic: configuration `i` depends on every
    // earlier-planned configuration whose failure would prune it. The
    // farm starts `i` only after all of them finished, then `i` prunes
    // iff one of them failed — so verdicts depend only on plan order,
    // never on worker count, scheduling or rank. Dependencies are
    // strictly earlier by plan construction (the plan sorts best-first
    // on the monotone axes, and domination points "down" that order),
    // which is what the scheduler requires. A pruned configuration
    // deliberately does not count as failed: whatever failure dominated
    // it also dominates (by transitivity) everything it dominates.
    let deps: Vec<Vec<usize>> = if opts.prune {
        (0..n)
            .map(|i| {
                (0..i)
                    .filter(|&j| plan.dominated_by_failure(&plan.configs[i], &plan.configs[j]))
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    // Written before a configuration's item completes and read only by
    // its dependents, which the scheduler's lock orders after it.
    let failed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let ranker = (opts.guided && opts.rank)
        .then(|| Ranker::new(&plan))
        .flatten();
    let rank = |i: usize| ranker.as_ref().map_or(0.0, |r| r.rank(i));

    // The planned configuration order becomes an explicit `SweepGrid`
    // (execution order is the optimizer's, not the canonical
    // enumeration). Each configuration records into a private shard that
    // merges into the tunnel's store in plan order, so record ids are
    // deterministic for any thread count.
    let grid = SweepGrid::explicit("wtql-explore", base.seed, plan.configs.clone());
    let runner = SweepRunner::new(Farm::new(opts.threads));
    let rows: Vec<RunRow> = runner.run_points(
        &grid,
        tunnel.store(),
        &deps,
        ranker.is_some().then_some(&rank as Rank<'_>),
        |point, _ctx, sink| {
            let dominated = deps
                .get(point.index)
                .is_some_and(|ds| ds.iter().any(|&j| failed[j].load(Ordering::Relaxed)));
            if dominated {
                return RunRow {
                    pruned: true,
                    ..unsimulated_row(&point.assignment)
                };
            }
            // A configuration that cannot be built was never simulated:
            // it says nothing about the configurations it dominates.
            let row = match evaluate_point(query, base, tunnel, opts, point, sink) {
                Ok(row) => row,
                Err(e) => {
                    return RunRow {
                        rejected: Some(e.to_string()),
                        ..unsimulated_row(&point.assignment)
                    }
                }
            };
            if !row.passes && !query.constraints.is_empty() {
                failed[point.index].store(true, Ordering::Relaxed);
            }
            if let Some(r) = &ranker {
                r.observe(query, point.index, &row);
            }
            row
        },
    );
    Ok(summarize(query, rows))
}

/// One unpruned configuration: build its scenario once, let an armed
/// analytic screen settle the verdict when it can, and simulate it
/// otherwise. Errs when the configuration's scenario cannot be built.
fn evaluate_point(
    query: &Query,
    base: &Scenario,
    tunnel: &WindTunnel,
    opts: &ExecOptions,
    point: &SweepPoint,
    sink: &dyn RecordSink,
) -> Result<RunRow, WtqlError> {
    let assignment = &point.assignment;
    let scenario = build_scenario(query, base, assignment)?;
    let screened = if opts.guided && opts.screen && !query.constraints.is_empty() {
        screen_point(query, &scenario, opts)
    } else {
        None
    };
    Ok(match screened {
        // A screen may settle "pass" only when the objective needs no
        // simulated metric — otherwise the row could never win and the
        // best row would diverge from the exhaustive run's.
        Some(passes) if !passes || objective_is_exact(query) => {
            let metrics = cost_metrics(tunnel, &scenario);
            let mut rec = point
                .record("screened", scenario.seed)
                .param("verdict_source", "screened");
            for (k, v) in &metrics {
                rec = rec.metric(k.clone(), *v);
            }
            sink.record(rec);
            RunRow {
                assignment: assignment.clone(),
                metrics,
                passes,
                pruned: false,
                aborted: false,
                screened: true,
                early_stopped: false,
                sim_events_executed: 0,
                rejected: None,
            }
        }
        _ => evaluate(query, tunnel, &scenario, assignment, opts, sink),
    })
}

/// Guided surrogate ranking: a ridge regression over the axes that are
/// numeric across the whole grid, refit on every decided row's
/// constraint risk. Categorical axes are invisible to the model —
/// acceptable, since a bad fit only costs ordering, never verdicts.
struct Ranker {
    /// Each configuration's numeric axis values: the model's inputs.
    features: Vec<Vec<f64>>,
    state: Mutex<RankState>,
}

#[derive(Default)]
struct RankState {
    /// `(configuration, risk)` per decided row, in completion order.
    samples: Vec<(usize, f64)>,
    model: Option<Surrogate>,
}

impl Ranker {
    /// `None` when no axis is numeric: there is nothing to rank on.
    fn new(plan: &Plan) -> Option<Ranker> {
        let axes = plan.configs.first().map_or(0, |c| c.len());
        let numeric: Vec<usize> = (0..axes)
            .filter(|&k| {
                plan.configs
                    .iter()
                    .all(|c| matches!(c[k].1, ParamValue::Num(_)))
            })
            .collect();
        let features = plan
            .configs
            .iter()
            .map(|c| numeric.iter().filter_map(|&k| c[k].1.as_num()).collect())
            .collect();
        (!numeric.is_empty()).then(|| Ranker {
            features,
            state: Mutex::default(),
        })
    }

    /// Predicted constraint risk; the highest runs first. Until a model
    /// exists, `-index` preserves plan order.
    fn rank(&self, i: usize) -> f64 {
        match &self.state.lock().model {
            Some(model) => model.predict(&self.features[i]),
            None => -(i as f64),
        }
    }

    /// Feeds one decided row back into the surrogate: the response is
    /// the worst signed constraint violation, normalized per-constraint
    /// so availability gaps and latency overshoots share a scale.
    /// Screened failures and aborts count as full violations.
    fn observe(&self, query: &Query, i: usize, row: &RunRow) {
        if row.pruned {
            return;
        }
        let y = if row.aborted || (row.screened && !row.passes) {
            1.0
        } else {
            guided_risk(query, row)
        };
        let mut st = self.state.lock();
        st.samples.push((i, y));
        let xs: Vec<&[f64]> = st
            .samples
            .iter()
            .map(|&(j, _)| &self.features[j][..])
            .collect();
        let ys: Vec<f64> = st.samples.iter().map(|&(_, y)| y).collect();
        st.model = Surrogate::fit(&xs, &ys, 1e-3);
    }
}

/// Folds per-configuration rows into the query outcome: counters,
/// event totals, and the objective-best passing row.
fn summarize(query: &Query, rows: Vec<RunRow>) -> QueryOutcome {
    let executed = rows
        .iter()
        .filter(|r| !r.pruned && !r.aborted && !r.screened && r.rejected.is_none())
        .count();
    let pruned = rows.iter().filter(|r| r.pruned).count();
    let aborted = rows.iter().filter(|r| r.aborted).count();
    let screened = rows.iter().filter(|r| r.screened).count();
    let early_stopped = rows.iter().filter(|r| r.early_stopped).count();
    let total_sim_events = rows.iter().map(|r| r.sim_events_executed).sum();

    let best = query.objective.as_ref().and_then(|obj| {
        rows.iter()
            .enumerate()
            .filter(|(_, r)| r.passes && r.metrics.contains_key(&obj.metric))
            .min_by(|(_, a), (_, b)| {
                let (x, y) = (a.metrics[&obj.metric], b.metrics[&obj.metric]);
                let ord = x.partial_cmp(&y).expect("finite metrics");
                if obj.minimize {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .map(|(i, _)| i)
    });

    QueryOutcome {
        rows,
        best,
        executed,
        pruned,
        aborted,
        screened,
        early_stopped,
        total_sim_events,
    }
}

/// A row without metrics, a pass or any flag: the base of a pruned or a
/// rejected row.
fn unsimulated_row(assignment: &Assignment) -> RunRow {
    RunRow {
        assignment: assignment.clone(),
        metrics: BTreeMap::new(),
        passes: false,
        pruned: false,
        aborted: false,
        screened: false,
        early_stopped: false,
        sim_events_executed: 0,
        rejected: None,
    }
}

/// True when the query's objective can be computed without simulation
/// (absent, or one of the exact cost metrics) — the precondition for
/// letting a screen settle a *pass* verdict.
fn objective_is_exact(query: &Query) -> bool {
    query
        .objective
        .as_ref()
        .is_none_or(|o| o.metric == "tco_usd_per_year" || o.metric == "usd_per_usable_gb_year")
}

/// The worst signed, per-constraint-normalized violation in a decided
/// row: positive = violated, negative = satisfied with margin. This is
/// the surrogate's response variable — only an ordering signal.
fn guided_risk(query: &Query, row: &RunRow) -> f64 {
    let worst = query
        .constraints
        .iter()
        .filter_map(|c| {
            let v = *row.metrics.get(&c.metric)?;
            let scale = c.bound.abs().max(1e-9);
            Some(match c.cmp {
                Comparison::Ge | Comparison::Gt => (c.bound - v) / scale,
                Comparison::Le | Comparison::Lt => (v - c.bound) / scale,
                Comparison::Eq => 0.0,
            })
        })
        .fold(f64::NEG_INFINITY, f64::max);
    if worst.is_finite() {
        worst
    } else {
        0.0
    }
}

/// Screens every constraint analytically. `Some(false)` = some
/// constraint provably violated (the DES would fail this row too);
/// `Some(true)` = every constraint provably satisfied; `None` = at
/// least one constraint undecided, simulate. Conservatism is inherited
/// from the bounds: a screen decides only what the simulation would
/// also decide, so verdicts match the exhaustive path.
fn screen_point(query: &Query, scenario: &Scenario, opts: &ExecOptions) -> Option<bool> {
    let mut all_pass = true;
    let mut any_fail = false;
    for c in &query.constraints {
        match screen_constraint(c, scenario, opts) {
            ScreenVerdict::Fail => any_fail = true,
            ScreenVerdict::Pass => {}
            ScreenVerdict::Unknown => all_pass = false,
        }
    }
    if any_fail {
        Some(false)
    } else if all_pass {
        Some(true)
    } else {
        None
    }
}

/// One constraint through the closed-form screens: availability bounds
/// from the birth–death model, latency-quantile floors from M/M/c.
/// Anything else — including quantiles of tenants the scenario does not
/// run, whose exhaustive verdict is fail-by-missing-metric, not a model
/// question — is `Unknown`.
fn screen_constraint(c: &Constraint, scenario: &Scenario, opts: &ExecOptions) -> ScreenVerdict {
    let rel = match c.cmp {
        Comparison::Ge => Rel::Ge,
        Comparison::Gt => Rel::Gt,
        Comparison::Le => Rel::Le,
        Comparison::Lt => Rel::Lt,
        Comparison::Eq => return ScreenVerdict::Unknown,
    };
    if c.metric == "availability" {
        return availability_screen(scenario, opts.screen_min_failures).screen(
            rel,
            c.bound,
            opts.screen_guard,
        );
    }
    if let Some((tenant, q)) = quantile_metric(&c.metric) {
        if scenario.tenants.iter().any(|t| t.name == tenant) {
            if let Some(p) = perf_screen(scenario) {
                return p.screen(q, rel, c.bound, opts.screen_guard);
            }
        }
    }
    ScreenVerdict::Unknown
}

/// Builds one grid point's scenario: the base with the assignment's
/// known axes applied, the query's injections appended to any base fault
/// schedule, and the assignment itself as the scenario name. A node
/// count that overflows is a semantic error for every query, since every
/// row prices the hardware; so is a point an engine the query needs
/// would assert on: a placement the placer cannot build or a node
/// without disks (either engine), a topology that does not build (the
/// perf engine), or more nodes, a wider redundancy scheme or more
/// objects than the availability engine can model.
fn build_scenario(
    query: &Query,
    base: &Scenario,
    assignment: &Assignment,
) -> Result<Scenario, WtqlError> {
    let mut scenario = base.clone();
    for (axis, value) in assignment {
        // Chaos-only axes (swept but referenced solely from INJECT
        // arguments) are not scenario knobs; they reach the run below,
        // through the resolved fault schedule.
        if is_known_axis(axis) {
            apply_assignment(&mut scenario, axis, value)?;
        }
    }
    if !query.injects.is_empty() {
        let mut schedule = scenario.faults.clone().unwrap_or_default();
        for inj in &query.injects {
            schedule.rules.push(resolve_injection(inj, assignment)?);
        }
        scenario.faults = Some(schedule);
    }
    let (racks, per_rack) = (scenario.topology.racks, scenario.topology.nodes_per_rack);
    let Some(nodes) = racks.checked_mul(per_rack) else {
        return Err(WtqlError::Semantic(format!(
            "{racks} racks of {per_rack} nodes overflow the node count"
        )));
    };
    let (needs_avail, needs_perf) = needed_engines(query);
    let runs_perf = needs_perf && !scenario.tenants.is_empty();
    if runs_perf {
        scenario.topology.validate().map_err(WtqlError::Semantic)?;
    }
    let width = scenario.redundancy.width();
    if needs_avail || runs_perf {
        Placer::check(scenario.placement, nodes, width).map_err(WtqlError::Semantic)?;
        if scenario.topology.node.disks.is_empty() {
            return Err(WtqlError::Semantic("a node needs at least one disk".into()));
        }
    }
    if needs_avail && nodes > MAX_NODES {
        return Err(WtqlError::Semantic(format!(
            "{nodes} nodes exceed the availability engine's cap of {MAX_NODES}"
        )));
    }
    if needs_avail && width > MAX_WIDTH {
        return Err(WtqlError::Semantic(format!(
            "{width}-way redundancy exceeds the availability engine's cap of {MAX_WIDTH}"
        )));
    }
    if needs_avail && scenario.objects > MAX_OBJECTS {
        return Err(WtqlError::Semantic(format!(
            "{} objects exceed the availability engine's cap of {MAX_OBJECTS}",
            scenario.objects
        )));
    }
    scenario.name = assignment
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",");
    Ok(scenario)
}

/// The exact (simulation-free) cost metrics every row carries.
fn cost_metrics(tunnel: &WindTunnel, scenario: &Scenario) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let breakdown = tunnel.cost_model().cost(&scenario.topology);
    metrics.insert("tco_usd_per_year".into(), breakdown.tco_usd_per_year);
    // Cost per GB a customer can actually store: redundancy overhead eats
    // raw capacity, so rep5 *is* dearer than rep3 on identical hardware.
    let usable_gb = breakdown.raw_storage_gb / scenario.redundancy.overhead();
    metrics.insert(
        "usd_per_usable_gb_year".into(),
        breakdown.tco_usd_per_year / usable_gb,
    );
    metrics
}

/// Simulates one configuration and evaluates the constraints. Every
/// fully-simulated run records into `sink` — the caller's per-config
/// shard during parallel execution. `sim_events_executed` counts every
/// engine event the row cost: probes (aborting or not) and every
/// replication of either engine.
fn evaluate(
    query: &Query,
    tunnel: &WindTunnel,
    scenario: &Scenario,
    assignment: &Assignment,
    opts: &ExecOptions,
    sink: &dyn RecordSink,
) -> RunRow {
    let (needs_avail, needs_perf) = needed_engines(query);
    let mut metrics = cost_metrics(tunnel, scenario);

    let mut aborted = false;
    let mut events_executed: u64 = 0;
    // Probe phase (first replication only): abort hopeless runs early.
    if needs_avail && opts.early_abort {
        let model = WindTunnel::availability_model(scenario);
        let probe_horizon = SimDuration::from_years(scenario.horizon_years * opts.probe_fraction);
        let probe = model.run(scenario.seed, probe_horizon);
        events_executed += probe.sim_events;
        let hopeless = query.constraints.iter().any(|c| {
            probe_violates_surely(c, &probe) || probe_violates_heuristically(c, &probe, opts)
        });
        if hopeless {
            record_avail_metrics(&mut metrics, &probe);
            aborted = true;
        }
    }
    // Sketch probe (guided stage 3a): run the perf model over a fraction
    // of the horizon and abort when a streaming-sketch latency quantile
    // already violates a latency ceiling by more than the margin.
    if !aborted && needs_perf && opts.sketch_abort {
        let (hopeless, probe_events) = sketch_probe(query, scenario, opts, sink);
        events_executed += probe_events;
        aborted = hopeless;
    }
    let mut early_stopped = false;
    if !aborted {
        // Accumulate metric sums over replications, then average. With
        // early-stop armed, the loop ends once every constraint is
        // confidently resolved — but never before two recorded
        // replications, so confidence intervals always have support.
        let reps = opts.replications.max(1);
        let stop_eligible = opts.early_stop && reps >= 2 && !query.constraints.is_empty();
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        let mut tallies: BTreeMap<&str, Tally> = query
            .constraints
            .iter()
            .map(|c| (c.metric.as_str(), Tally::new()))
            .collect();
        let mut used = 0usize;
        let base_seed = scenario.seed;
        for rep in 0..reps {
            let mut rep_scenario = scenario.clone();
            rep_scenario.seed = base_seed.wrapping_add(rep as u64 * 7919);
            let mut rep_metrics: BTreeMap<String, f64> = BTreeMap::new();
            if needs_avail {
                let (result, telemetry) =
                    tunnel.run_availability_observed_into(&rep_scenario, sink, None);
                events_executed += result.sim_events;
                record_avail_metrics(&mut rep_metrics, &result);
                rep_metrics.insert("peak_queue_depth".into(), telemetry.peak_queue_depth as f64);
                rep_metrics.insert("mean_queue_depth".into(), telemetry.mean_queue_depth);
            }
            if needs_perf && !rep_scenario.tenants.is_empty() {
                let (result, telemetry) =
                    tunnel.run_perf_observed_into(&rep_scenario, false, sink, None);
                events_executed += telemetry.events;
                for t in &result.tenants {
                    rep_metrics.insert(format!("{}_p50_s", t.name), t.p50_s);
                    rep_metrics.insert(format!("{}_p95_s", t.name), t.p95_s);
                    rep_metrics.insert(format!("{}_p99_s", t.name), t.p99_s);
                    rep_metrics.insert(format!("{}_mean_s", t.name), t.mean_s);
                    rep_metrics.insert(format!("{}_throughput", t.name), t.throughput);
                    rep_metrics.insert(format!("{}_failed", t.name), t.failed as f64);
                }
            }
            for (k, v) in rep_metrics {
                if let Some(t) = tallies.get_mut(k.as_str()) {
                    t.record(v);
                }
                *sums.entry(k).or_insert(0.0) += v;
            }
            used += 1;
            if stop_eligible
                && used >= 2
                && used < reps
                && verdict_confident(query, &metrics, &tallies)
            {
                early_stopped = true;
                break;
            }
        }
        for (k, v) in sums {
            metrics.insert(k, v / used as f64);
        }
    }

    let passes = !aborted
        && query
            .constraints
            .iter()
            .all(|c| metrics.get(&c.metric).is_some_and(|&v| c.satisfied(v)));

    RunRow {
        assignment: assignment.clone(),
        metrics,
        passes,
        pruned: false,
        aborted,
        screened: false,
        early_stopped,
        sim_events_executed: events_executed,
        rejected: None,
    }
}

/// True when every constraint's verdict is already confident: either
/// some constraint is confidently violated (the row will fail no matter
/// what later replications say) or every constraint is confidently
/// satisfied. Exact (simulation-free) metrics decide outright; sampled
/// metrics need a resolved 95% confidence interval clear of the bound.
fn verdict_confident(
    query: &Query,
    exact: &BTreeMap<String, f64>,
    tallies: &BTreeMap<&str, Tally>,
) -> bool {
    let mut all_satisfied = !query.constraints.is_empty();
    for c in &query.constraints {
        let (violated, satisfied) = if let Some(&v) = exact.get(&c.metric) {
            (!c.satisfied(v), c.satisfied(v))
        } else {
            let Some(tally) = tallies.get(c.metric.as_str()) else {
                return false;
            };
            if tally.count() < 2 {
                return false; // metric absent from replications
            }
            let iv = MeanInterval::from_tally(tally);
            match c.cmp {
                Comparison::Ge => (
                    iv.confidently_below(c.bound),
                    iv.confidently_at_least(c.bound),
                ),
                Comparison::Gt => (
                    iv.confidently_at_most(c.bound),
                    iv.confidently_above(c.bound),
                ),
                Comparison::Le => (
                    iv.confidently_above(c.bound),
                    iv.confidently_at_most(c.bound),
                ),
                Comparison::Lt => (
                    iv.confidently_at_least(c.bound),
                    iv.confidently_below(c.bound),
                ),
                Comparison::Eq => (false, false),
            }
        };
        if violated {
            return true; // one certain violation decides the whole row
        }
        all_satisfied &= satisfied;
    }
    all_satisfied
}

/// Runs the perf model over `probe_fraction` of its horizon and returns
/// whether some streaming-sketch latency quantile already violates a
/// `≤`/`<` constraint by more than `abort_margin`, plus the events the
/// probe executed. On abort, the probe is recorded with
/// `verdict_source = "aborted"` provenance and an `abort_sketch_p99`
/// telemetry mark; a clean probe leaves no record.
fn sketch_probe(
    query: &Query,
    scenario: &Scenario,
    opts: &ExecOptions,
    sink: &dyn RecordSink,
) -> (bool, u64) {
    // Latency ceilings on quantiles of tenants this scenario actually
    // runs; anything else the probe cannot judge.
    let ceilings: Vec<(&Constraint, &str, f64)> = query
        .constraints
        .iter()
        .filter(|c| matches!(c.cmp, Comparison::Le | Comparison::Lt))
        .filter_map(|c| quantile_metric(&c.metric).map(|(t, q)| (c, t, q)))
        .filter(|(_, tenant, _)| scenario.tenants.iter().any(|t| t.name == *tenant))
        .collect();
    if ceilings.is_empty() || scenario.tenants.is_empty() {
        return (false, 0);
    }
    let mut model = WindTunnel::perf_model(scenario, false);
    model.horizon_s *= opts.probe_fraction;
    let (probe, mut telemetry) = model.run_observed(scenario.seed, None);
    let probe_events = telemetry.events;
    let hopeless = ceilings.iter().any(|(c, tenant, q)| {
        probe
            .tenant(tenant)
            .and_then(|t| {
                if *q == 0.50 {
                    t.sketch_p50_s
                } else if *q == 0.95 {
                    t.sketch_p95_s
                } else {
                    t.sketch_p99_s
                }
            })
            .is_some_and(|sketch_q| sketch_q > c.bound + opts.abort_margin)
    });
    if hopeless {
        telemetry.marks.insert("abort_sketch_p99".into(), 1);
        let mut rec = wt_store::RunRecord::new("perf-probe", scenario.seed)
            .param("scenario", scenario.name.clone())
            .param("verdict_source", "aborted")
            .metric("probe_horizon_s", model.horizon_s);
        for t in &probe.tenants {
            if let Some(p99) = t.sketch_p99_s {
                rec = rec.metric(format!("{}_sketch_p99_s", t.name), p99);
            }
        }
        sink.record(rec.telemetry(telemetry));
    }
    (hopeless, probe_events)
}

/// Parses `<tenant>_pXX_s` into the tenant name and quantile.
fn quantile_metric(name: &str) -> Option<(&str, f64)> {
    for (suffix, q) in [("_p50_s", 0.50), ("_p95_s", 0.95), ("_p99_s", 0.99)] {
        if let Some(tenant) = name.strip_suffix(suffix) {
            if !tenant.is_empty() {
                return Some((tenant, q));
            }
        }
    }
    None
}

fn record_avail_metrics(
    metrics: &mut BTreeMap<String, f64>,
    r: &windtunnel::cluster::AvailabilityResult,
) {
    metrics.insert("availability".into(), r.availability);
    metrics.insert("nines".into(), r.nines);
    metrics.insert(
        "unavailability_events".into(),
        r.unavailability_events as f64,
    );
    metrics.insert("objects_lost".into(), r.objects_lost as f64);
    metrics.insert("node_failures".into(), r.node_failures as f64);
    metrics.insert("rebuilds_completed".into(), r.rebuilds_completed as f64);
    metrics.insert("mean_rebuild_wait_s".into(), r.mean_rebuild_wait_s);
    metrics.insert("sim_events".into(), r.sim_events as f64);
}

/// Sound abort: the probe already violates an upper bound on a metric
/// that can only grow with the horizon.
fn probe_violates_surely(c: &Constraint, probe: &windtunnel::cluster::AvailabilityResult) -> bool {
    if !MONOTONE_IN_TIME.contains(&c.metric.as_str()) {
        return false;
    }
    let value = match c.metric.as_str() {
        "objects_lost" => probe.objects_lost as f64,
        "unavailability_events" => probe.unavailability_events as f64,
        "node_failures" => probe.node_failures as f64,
        _ => return false,
    };
    matches!(
        c.cmp,
        crate::ast::Comparison::Le | crate::ast::Comparison::Lt
    ) && !c.satisfied(value)
}

/// Heuristic abort: the probe's availability sits more than the margin
/// below an availability floor.
fn probe_violates_heuristically(
    c: &Constraint,
    probe: &windtunnel::cluster::AvailabilityResult,
    opts: &ExecOptions,
) -> bool {
    if c.metric != "availability" {
        return false;
    }
    matches!(
        c.cmp,
        crate::ast::Comparison::Ge | crate::ast::Comparison::Gt
    ) && probe.availability < c.bound - opts.abort_margin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use windtunnel::ScenarioBuilder;

    fn base() -> Scenario {
        ScenarioBuilder::new("base")
            .racks(1)
            .nodes_per_rack(10)
            .objects(200)
            .horizon_years(0.3)
            .seed(5)
            .build()
    }

    #[test]
    fn explore_runs_whole_grid() {
        let q =
            parse(r#"EXPLORE availability SWEEP replication IN [1, 3], placement IN ["R", "RR"]"#)
                .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.executed, 4);
        assert_eq!(out.pruned, 0);
        assert!(out
            .rows
            .iter()
            .all(|r| r.metrics.contains_key("availability")));
        // Store captured every run.
        assert_eq!(tunnel.store().len(), 4);
    }

    #[test]
    fn node_cap_rejects_oversized_points_that_need_the_availability_engine() {
        let point = |racks: f64, per_rack: f64| -> Assignment {
            vec![
                ("racks".into(), ParamValue::Num(racks)),
                ("nodes_per_rack".into(), ParamValue::Num(per_rack)),
            ]
        };
        let avail =
            parse("EXPLORE availability SWEEP racks IN [1], nodes_per_rack IN [1]").unwrap();
        // 134,217,728 racks × 40 nodes = 5,368,709,120 nodes, past the
        // `u32` node ids.
        let err = build_scenario(&avail, &base(), &point(134_217_728.0, 40.0)).unwrap_err();
        assert!(
            matches!(&err, WtqlError::Semantic(m)
                if m.contains("5368709120") && m.contains("4294967295")),
            "{err}"
        );
        // Exactly at the cap (65,537 × 65,535 = u32::MAX) still builds.
        assert!(build_scenario(&avail, &base(), &point(65_537.0, 65_535.0)).is_ok());
        // A query that never runs the availability engine is not capped.
        let cost =
            parse("EXPLORE tco_usd_per_year SWEEP racks IN [1], nodes_per_rack IN [1]").unwrap();
        assert!(build_scenario(&cost, &base(), &point(134_217_728.0, 40.0)).is_ok());
    }

    #[test]
    fn replication_improves_availability_in_results() {
        let q = parse("EXPLORE availability SWEEP replication IN [1, 3]").unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        // Force enough failures to matter.
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(30.0 * 86_400.0);
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        // Plan order: replication 3 first (monotone descending).
        let a3 = out.rows[0].metrics["availability"];
        let a1 = out.rows[1].metrics["availability"];
        assert!(a3 > a1, "rep3 {a3} should beat rep1 {a1}");
    }

    #[test]
    fn pruning_skips_dominated_configs() {
        // An unsatisfiable availability floor: the best config fails, so
        // everything dominated by it is pruned without simulation.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0; // repairs too slow
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 3);
        assert!(out.passing().is_empty());
        assert!(
            out.pruned >= 1,
            "dominated configs should be pruned: {out:?}"
        );
        assert!(out.executed < 3);
    }

    #[test]
    fn prune_disabled_runs_everything() {
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0 \
             OPTIONS prune = FALSE",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0;
        let opts = ExecOptions::from_query(&q);
        assert!(!opts.prune);
        let out = run_query(&q, &sc, &tunnel, &opts).unwrap();
        assert_eq!(out.executed, 3);
        assert_eq!(out.pruned, 0);
    }

    #[test]
    fn usable_gb_cost_separates_replication_factors() {
        let q = parse(
            "EXPLORE usd_per_usable_gb_year \
             SWEEP replication IN [2, 3] \
             MINIMIZE usd_per_usable_gb_year",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        // Same hardware, but rep3 stores 2/3 of what rep2 can.
        let cost = |n: f64| {
            out.rows
                .iter()
                .find(|r| r.assignment[0].1.as_num() == Some(n))
                .unwrap()
                .metrics["usd_per_usable_gb_year"]
        };
        assert!((cost(3.0) / cost(2.0) - 1.5).abs() < 1e-9);
        let best = out.best_row().unwrap();
        assert_eq!(best.assignment[0].1.as_num(), Some(2.0));
    }

    #[test]
    fn objective_selects_cheapest_passing() {
        let q = parse(
            "EXPLORE availability, tco_usd_per_year \
             SWEEP replication IN [1, 3], nodes_per_rack IN [10, 20] \
             SUBJECT TO availability >= 0.5 \
             MINIMIZE tco_usd_per_year",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        let best = out.best_row().expect("some config passes");
        // Cheapest = fewest nodes.
        let nodes = best
            .assignment
            .iter()
            .find(|(k, _)| k == "nodes_per_rack")
            .unwrap()
            .1
            .as_num()
            .unwrap();
        assert_eq!(nodes, 10.0);
        for r in out.passing() {
            assert!(r.metrics["tco_usd_per_year"] >= best.metrics["tco_usd_per_year"]);
        }
    }

    #[test]
    fn parallel_execution_matches_serial_passing_set() {
        let q = parse(
            r#"EXPLORE availability SWEEP replication IN [1, 3], placement IN ["R", "RR"] SUBJECT TO availability >= 0.0"#,
        )
        .unwrap();
        let tunnel_a = WindTunnel::new();
        let serial = run_query(&q, &base(), &tunnel_a, &ExecOptions::default()).unwrap();
        let tunnel_b = WindTunnel::new();
        let par = run_query(
            &q,
            &base(),
            &tunnel_b,
            &ExecOptions {
                threads: 4,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        // Same rows in the same plan order with identical metrics
        // (determinism is per-config, so thread interleaving is invisible).
        let key = |rows: &[RunRow]| {
            rows.iter()
                .filter(|r| !r.pruned)
                .map(|r| (r.assignment.clone(), r.metrics.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&serial.rows), key(&par.rows));
    }

    #[test]
    fn pruning_verdicts_are_worker_count_invariant() {
        // The old failed-set pruning skipped a config only when a
        // dominating failure happened to finish first — a race on worker
        // count. The verdict table keys decisions on plan order alone, so
        // every thread count must produce the identical pruned set.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3], repair_parallel IN [1, 2] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0",
        )
        .unwrap();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0;
        let run = |threads: usize| {
            let tunnel = WindTunnel::new();
            run_query(
                &q,
                &sc,
                &tunnel,
                &ExecOptions {
                    threads,
                    ..ExecOptions::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        assert!(serial.pruned >= 1, "{serial:?}");
        for threads in [2, 4, 8] {
            let par = run(threads);
            let flags = |out: &QueryOutcome| {
                out.rows
                    .iter()
                    .map(|r| (r.assignment.clone(), r.pruned, r.passes))
                    .collect::<Vec<_>>()
            };
            assert_eq!(flags(&serial), flags(&par), "threads = {threads}");
            assert_eq!(serial.pruned, par.pruned);
            assert_eq!(serial.executed, par.executed);
        }
    }

    #[test]
    fn inject_sweeps_chaos_parameters() {
        // Sweep the blast radius of a power-domain loss: the chaos-only
        // axis `blast` reaches the run through the INJECT clause. Zero
        // racks lost = no injection effect; the whole cluster dark for
        // ~42% of the horizon caps availability accordingly.
        let q = parse(
            "EXPLORE availability \
             SWEEP blast IN [0, 2] \
             INJECT power_loss(at = 1000000, first_rack = 0, racks = blast, restore = 4000000)",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 2);
        let avail = |blast: f64| {
            out.rows
                .iter()
                .find(|r| r.assignment[0].1.as_num() == Some(blast))
                .unwrap()
                .metrics["availability"]
        };
        assert!(
            avail(0.0) > avail(2.0) + 0.3,
            "blast=0 {} vs blast=2 {}",
            avail(0.0),
            avail(2.0)
        );
        // The injection fired and was recorded in run telemetry.
        tunnel.store().with(|s| {
            let fired: u64 = s
                .records()
                .filter_map(|r| r.telemetry.as_ref())
                .filter_map(|t| t.marks.get("inject_power_loss"))
                .sum();
            assert_eq!(fired, 2, "one injection per run, even at blast=0");
        });
    }

    #[test]
    fn inject_is_deterministic_across_threads() {
        let q = parse(
            "EXPLORE availability, unavailability_events \
             SWEEP blast IN [1, 2], replication IN [1, 3] \
             INJECT maintenance(at = 500000, first_node = 0, nodes = blast, duration = 250000)",
        )
        .unwrap();
        let run = |threads: usize| {
            let tunnel = WindTunnel::new();
            run_query(
                &q,
                &base(),
                &tunnel,
                &ExecOptions {
                    threads,
                    ..ExecOptions::default()
                },
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        let key = |out: &QueryOutcome| {
            out.rows
                .iter()
                .map(|r| (r.assignment.clone(), r.metrics.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn inject_composes_with_base_scenario_faults() {
        // A base scenario that already schedules chaos keeps it; the
        // query's injections are appended, not substituted.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             INJECT maintenance(at = 2000000, first_node = 0, nodes = 10, duration = 1000000)",
        )
        .unwrap();
        let mut sc = base();
        sc.faults = Some(windtunnel::cluster::FaultSchedule::new().rule(
            "planned",
            100_000.0,
            windtunnel::cluster::FaultKind::MaintenanceWindow {
                first_node: 0,
                nodes: 10,
                duration_s: 1_000_000.0,
            },
        ));
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        // Two full-cluster windows of 1e6 s out of a ~9.47e6 s horizon.
        let a = out.rows[0].metrics["availability"];
        assert!(a < 0.85, "both windows applied: {a}");
        tunnel.store().with(|s| {
            let fired: u64 = s
                .records()
                .filter_map(|r| r.telemetry.as_ref())
                .filter_map(|t| t.marks.get("inject_maintenance"))
                .sum();
            assert_eq!(fired, 2, "base rule + injected rule both fired");
        });
    }

    #[test]
    fn early_abort_saves_events() {
        // objects_lost is monotone in time: a dying cluster's probe already
        // violates the durability constraint, so the full run is skipped.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1] \
             SUBJECT TO objects_lost <= 0 \
             OPTIONS early_abort = TRUE, probe_fraction = 0.05",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        // A cluster that loses data almost immediately.
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(86_400.0);
        sc.topology.node.repair = windtunnel::dist::Dist::deterministic(30.0 * 86_400.0);
        sc.repair.detection_delay_s = 10.0 * 86_400.0;
        let opts = ExecOptions::from_query(&q);
        assert!(opts.early_abort);
        let out = run_query(&q, &sc, &tunnel, &opts).unwrap();
        assert_eq!(out.aborted, 1, "{out:?}");
        assert!(!out.rows[0].passes);
        // The aborted row still carries probe metrics.
        assert!(out.rows[0].metrics["objects_lost"] > 0.0);
    }

    #[test]
    fn replications_average_and_record_every_run() {
        let q = parse("EXPLORE availability SWEEP replication IN [3] OPTIONS replications = 3")
            .unwrap();
        let opts = ExecOptions::from_query(&q);
        assert_eq!(opts.replications, 3);
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &opts).unwrap();
        assert_eq!(out.rows.len(), 1);
        // Three availability runs landed in the store.
        assert_eq!(tunnel.store().len(), 3);
        // The averaged metric equals the mean of the recorded runs.
        let mean_recorded = tunnel.store().with(|s| {
            s.records()
                .map(|r| r.get_metric("availability").unwrap())
                .sum::<f64>()
                / 3.0
        });
        assert!((out.rows[0].metrics["availability"] - mean_recorded).abs() < 1e-12);
    }

    #[test]
    fn store_stats_reports_counts_and_is_safe_when_empty() {
        let tunnel = WindTunnel::new();
        let empty = store_stats(tunnel.store());
        assert!(empty.contains("0 record(s)"), "{empty}");
        assert!(empty.contains("no experiments"), "{empty}");
        let q = parse("EXPLORE availability SWEEP replication IN [1, 3]").unwrap();
        run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        let report = store_stats(tunnel.store());
        assert!(report.starts_with("store: 2 record(s)\n"), "{report}");
        assert!(report.contains("availability: 2 run(s)"), "{report}");
        // The sketch view: recorded metrics summarize as quantiles.
        assert!(
            report.contains("sketch quantiles (p50 / p95 / p99 / p999)"),
            "{report}"
        );
        assert!(report.contains("metric_availability:"), "{report}");
        assert!(report.contains("(2 obs)"), "{report}");
    }

    #[test]
    fn telemetry_metrics_are_queryable() {
        let q = parse(
            "EXPLORE peak_queue_depth, mean_queue_depth, availability \
             SWEEP replication IN [1, 3]",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(30.0 * 86_400.0);
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        for r in &out.rows {
            assert!(r.metrics["peak_queue_depth"] > 0.0, "{r:?}");
            assert!(r.metrics["mean_queue_depth"] > 0.0, "{r:?}");
        }
        // Every stored record carries the telemetry it was derived from.
        tunnel.store().with(|s| {
            for rec in s.records() {
                let t = rec.telemetry.as_ref().expect("telemetry attached");
                assert!(t.events > 0);
            }
        });
    }

    #[test]
    fn unknown_metric_rejected() {
        let q = parse("EXPLORE qubits SWEEP replication IN [3]").unwrap();
        let tunnel = WindTunnel::new();
        let e = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap_err();
        assert!(e.to_string().contains("unknown metric"));
    }

    /// A failure-heavy cluster the analytic screens can reason about:
    /// 30 nodes with ~40-day lifetimes over a quarter year (≈ 68 expected
    /// failures) and a 5-day failure-detection delay.
    fn stress_base() -> Scenario {
        let mut sc = ScenarioBuilder::new("stress")
            .racks(3)
            .nodes_per_rack(10)
            .objects(300)
            .horizon_years(0.25)
            .seed(42)
            .build();
        sc.topology.node.ttf = windtunnel::dist::Dist::weibull_mean(0.8, 40.0 * 86_400.0);
        sc.repair.detection_delay_s = 5.0 * 86_400.0;
        sc
    }

    #[test]
    fn guided_clause_arms_all_stages_and_options_override() {
        let q = parse("EXPLORE availability SWEEP replication IN [3] GUIDED").unwrap();
        let o = ExecOptions::from_query(&q);
        assert!(o.guided && o.screen && o.rank && o.early_stop && o.sketch_abort);
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] GUIDED \
             OPTIONS rank = FALSE, screen_guard = 0.001, screen_min_failures = 25",
        )
        .unwrap();
        let o = ExecOptions::from_query(&q);
        assert!(o.guided && o.screen && !o.rank && o.early_stop && o.sketch_abort);
        assert_eq!(o.screen_guard, 0.001);
        assert_eq!(o.screen_min_failures, 25.0);
        // The OPTIONS master switch mirrors the clause, in source order.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             OPTIONS guided = TRUE, sketch_abort = FALSE",
        )
        .unwrap();
        let o = ExecOptions::from_query(&q);
        assert!(o.guided && o.screen && o.rank && o.early_stop && !o.sketch_abort);
        assert!(!ExecOptions::from_query(&parse("EXPLORE a SWEEP x IN [1]").unwrap()).guided);
    }

    /// A one-point availability query with `options` as its OPTIONS.
    fn options_query(options: &str) -> Query {
        parse(&format!(
            "EXPLORE availability SWEEP replication IN [3] OPTIONS {options}"
        ))
        .unwrap()
    }

    /// Runs `q`, which must fail on its options before anything runs, and
    /// returns the error message.
    fn option_rejection(q: &Query) -> String {
        let tunnel = WindTunnel::new();
        let err = run_query(q, &base(), &tunnel, &ExecOptions::from_query(q)).unwrap_err();
        assert!(tunnel.store().is_empty(), "nothing runs");
        match err {
            WtqlError::Semantic(m) => m,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_threads_or_replications_are_rejected() {
        assert_eq!(
            option_rejection(&options_query("replications = 0")),
            "option 'replications' needs a whole number from 1 to 10000, got '0'"
        );
        assert_eq!(
            option_rejection(&options_query("threads = 0")),
            "option 'threads' needs a whole number from 1 to 1024, got '0'"
        );
    }

    #[test]
    fn negative_threads_or_replications_are_rejected() {
        // WTQL text cannot spell a negative number; a query built in code can.
        for key in ["replications", "threads"] {
            let mut q = options_query("prune = FALSE");
            q.options.push((key.to_string(), ParamValue::Num(-2.0)));
            let m = option_rejection(&q);
            assert!(
                m.starts_with(&format!("option '{key}' needs a whole number")),
                "{m}"
            );
            assert!(m.ends_with("got '-2'"), "{m}");
        }
    }

    #[test]
    fn fractional_threads_or_replications_are_rejected() {
        assert_eq!(
            option_rejection(&options_query("replications = 2.5")),
            "option 'replications' needs a whole number from 1 to 10000, got '2.5'"
        );
        assert_eq!(
            option_rejection(&options_query("threads = 1.5")),
            "option 'threads' needs a whole number from 1 to 1024, got '1.5'"
        );
    }

    #[test]
    fn replications_above_the_ceiling_are_rejected() {
        assert_eq!(
            option_rejection(&options_query("replications = 1e12")),
            "option 'replications' needs a whole number from 1 to 10000, got '1000000000000'"
        );
        assert_eq!(
            option_rejection(&options_query("replications = 10001")),
            "option 'replications' needs a whole number from 1 to 10000, got '10001'"
        );
        // The ceiling itself is a valid count (validated, not run here).
        let at_ceiling = options_query("replications = 10000");
        assert_eq!(validate_options(&at_ceiling), Ok(()));
        assert_eq!(
            ExecOptions::from_query(&at_ceiling).replications,
            MAX_REPLICATIONS
        );
    }

    #[test]
    fn threads_above_the_ceiling_are_rejected() {
        // A one-point query: were the check to regress, the farm would
        // still start one worker, not 1,025.
        assert_eq!(
            option_rejection(&options_query("threads = 1025")),
            "option 'threads' needs a whole number from 1 to 1024, got '1025'"
        );
        let at_ceiling = options_query("threads = 1024");
        assert_eq!(validate_options(&at_ceiling), Ok(()));
        assert_eq!(ExecOptions::from_query(&at_ceiling).threads, MAX_THREADS);
    }

    #[test]
    fn out_of_range_numeric_options_are_rejected_not_clamped() {
        for bad in ["0.001", "0.95"] {
            assert_eq!(
                option_rejection(&options_query(&format!("probe_fraction = {bad}"))),
                format!("option 'probe_fraction' needs a number from 0.01 to 0.9, got '{bad}'")
            );
        }
        // WTQL text cannot spell a negative number; a query built in code can.
        for key in ["abort_margin", "screen_guard", "screen_min_failures"] {
            let mut q = options_query("prune = FALSE");
            q.options.push((key.to_string(), ParamValue::Num(-0.5)));
            assert_eq!(
                option_rejection(&q),
                format!("option '{key}' needs a number of at least 0, got '-0.5'")
            );
        }
        // The range ends themselves are valid.
        let q = options_query("probe_fraction = 0.9, abort_margin = 0, screen_guard = 0");
        assert_eq!(validate_options(&q), Ok(()));
    }

    #[test]
    fn every_documented_option_applies_and_typos_are_errors() {
        // Every key of docs/wtql.md's Options table, with a value of its
        // type, is accepted.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             OPTIONS threads = 2, prune = FALSE, early_abort = TRUE, probe_fraction = 0.2, \
             abort_margin = 0.02, replications = 2, guided = TRUE, screen = FALSE, \
             rank = FALSE, early_stop = FALSE, sketch_abort = FALSE, screen_guard = 0.001, \
             screen_min_failures = 5",
        )
        .unwrap();
        assert_eq!(validate_options(&q), Ok(()));
        let o = ExecOptions::from_query(&q);
        assert_eq!((o.threads, o.replications), (2, 2));
        assert!(!o.prune && o.early_abort && o.guided);
        assert!(!o.screen && !o.rank && !o.early_stop && !o.sketch_abort);
        assert_eq!(
            (o.probe_fraction, o.abort_margin, o.screen_guard),
            (0.2, 0.02, 0.001)
        );
        assert_eq!(o.screen_min_failures, 5.0);

        let rejection = |options: &str| option_rejection(&options_query(options));
        // A misspelt key is an error that names it, not a silent default:
        // the first bad entry is reported.
        let m = rejection("replicatons = 5, prune = 1, early_abortt = TRUE");
        assert_eq!(m, "unknown option 'replicatons'");
        let m = rejection("replications = 5, early_abortt = TRUE");
        assert_eq!(m, "unknown option 'early_abortt'");
        // So is a value of the wrong type.
        let m = rejection("prune = 1");
        assert_eq!(m, "option 'prune' needs TRUE or FALSE, got '1'");
        let m = rejection("replications = TRUE");
        assert_eq!(m, "option 'replications' needs a number, got 'true'");
    }

    #[test]
    fn guided_matches_exhaustive_verdicts_and_metrics() {
        // Ranking + guided dispatch only (screens off): every verdict,
        // metric, and the pruned set must match the exhaustive run at
        // any worker count — ranking may only reorder execution.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3], repair_parallel IN [1, 2] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0 \
             OPTIONS guided = TRUE, screen = FALSE, sketch_abort = FALSE, early_stop = FALSE",
        )
        .unwrap();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0;
        let run = |threads: usize, guided: bool| {
            let tunnel = WindTunnel::new();
            let mut opts = ExecOptions::from_query(&q);
            opts.threads = threads;
            if !guided {
                opts.guided = false;
                opts.rank = false;
            }
            run_query(&q, &sc, &tunnel, &opts).unwrap()
        };
        let exhaustive = run(1, false);
        assert!(exhaustive.pruned >= 1, "{exhaustive:?}");
        let rows = |out: &QueryOutcome| {
            out.rows
                .iter()
                .map(|r| (r.assignment.clone(), r.metrics.clone(), r.passes, r.pruned))
                .collect::<Vec<_>>()
        };
        for threads in [1, 4] {
            let guided = run(threads, true);
            assert_eq!(rows(&exhaustive), rows(&guided), "threads = {threads}");
            assert_eq!(guided.screened, 0);
            assert_eq!(exhaustive.total_sim_events, guided.total_sim_events);
        }
    }

    #[test]
    fn guided_screens_cut_simulation_and_record_provenance() {
        // With a 5-day detection delay, replication 2 and 3 provably miss
        // a 0.99985 availability floor — the screen resolves them without
        // simulation; replication 5 is undecided and simulates. Pruning
        // is off so every point gets its own verdict.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [2, 3, 5] \
             SUBJECT TO availability >= 0.99985 \
             GUIDED OPTIONS prune = FALSE",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let guided = run_query(&q, &stress_base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert_eq!(guided.screened, 2, "{guided:?}");
        let exhaustive_tunnel = WindTunnel::new();
        let opts = ExecOptions {
            prune: false,
            ..ExecOptions::default()
        };
        let exhaustive = run_query(&q, &stress_base(), &exhaustive_tunnel, &opts).unwrap();
        // Same pass/fail verdicts on every point, and the screen's calls
        // agree with what the simulation measured.
        let flags = |out: &QueryOutcome| {
            out.rows
                .iter()
                .map(|r| (r.assignment.clone(), r.passes, r.pruned))
                .collect::<Vec<_>>()
        };
        assert_eq!(flags(&guided), flags(&exhaustive));
        // Screening saves real simulation work: the guided run only paid
        // for the one undecided point (replication 5).
        let rep5_events = exhaustive
            .rows
            .iter()
            .find(|r| {
                r.assignment
                    .contains(&("replication".to_string(), ParamValue::Num(5.0)))
            })
            .and_then(|r| r.metrics.get("sim_events").copied())
            .unwrap() as u64;
        assert_eq!(guided.total_sim_events, rep5_events);
        assert!(guided.total_sim_events < exhaustive.total_sim_events);
        // Screened rows still carry the exact cost metrics (so cost
        // objectives keep working) but no simulated ones.
        let screened: Vec<_> = guided.rows.iter().filter(|r| r.screened).collect();
        assert_eq!(screened.len(), 2);
        for r in &screened {
            assert!(r.metrics.contains_key("tco_usd_per_year"));
            assert!(!r.metrics.contains_key("availability"));
            assert!(!r.passes);
        }
        // Provenance landed in the store and surfaces through STATS.
        tunnel.store().with(|s| {
            let screened_recs = s
                .records()
                .filter(|r| {
                    r.params.get("verdict_source")
                        == Some(&wt_store::ParamValue::Str("screened".into()))
                })
                .count();
            assert_eq!(screened_recs, 2);
        });
        let stats = store_stats(tunnel.store());
        assert!(stats.contains("verdict sources:"), "{stats}");
        assert!(stats.contains("screened: 2 record(s)"), "{stats}");
        assert!(stats.contains("simulated:"), "{stats}");
        // An exhaustive store shows no provenance section at all.
        let stats = store_stats(exhaustive_tunnel.store());
        assert!(!stats.contains("verdict sources:"), "{stats}");
    }

    #[test]
    fn early_stop_floors_at_two_replications() {
        // A trivially-met floor: the interval resolves after two
        // replications and the loop stops — but never below two recorded
        // runs, the confidence floor the guided planner guarantees.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             SUBJECT TO availability >= 0.5 \
             OPTIONS early_stop = TRUE, replications = 6",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert_eq!(out.early_stopped, 1, "{out:?}");
        assert!(out.rows[0].early_stopped);
        assert!(out.rows[0].passes);
        assert_eq!(
            tunnel.store().len(),
            2,
            "early stop must leave exactly the two-replication floor"
        );

        // The violated direction stops just as early.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             SUBJECT TO availability >= 2.0 \
             OPTIONS early_stop = TRUE, replications = 6",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert!(out.rows[0].early_stopped && !out.rows[0].passes, "{out:?}");
        assert_eq!(tunnel.store().len(), 2);

        // Without the option the full replication budget runs.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             SUBJECT TO availability >= 0.5 \
             OPTIONS replications = 6",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert!(!out.rows[0].early_stopped);
        assert_eq!(tunnel.store().len(), 6);
    }

    #[test]
    fn sketch_abort_stops_hopeless_latency_runs() {
        // One HDD serving ~300 uncacheable req/s is hopelessly
        // overloaded: the probe's sketch p99 blows through the ceiling
        // and the full-horizon run is skipped.
        let q = parse(
            "EXPLORE shop_p99_s SWEEP replication IN [1] \
             SUBJECT TO shop_p99_s <= 0.05 \
             OPTIONS sketch_abort = TRUE",
        )
        .unwrap();
        let sc = ScenarioBuilder::new("hopeless")
            .racks(1)
            .nodes_per_rack(1)
            .disks_per_node(1)
            .replication(1)
            .objects(100)
            .tenant(windtunnel::workload::TenantWorkload::oltp(
                "shop", 300.0, 10_000,
            ))
            .horizon_years(0.0001)
            .seed(11)
            .build();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert_eq!(out.aborted, 1, "{out:?}");
        assert!(out.rows[0].aborted && !out.rows[0].passes);
        // The probe recorded its evidence: aborted provenance plus the
        // telemetry mark naming the trigger.
        tunnel.store().with(|s| {
            let probe = s
                .records()
                .find(|r| r.experiment == "perf-probe")
                .expect("probe record present");
            assert_eq!(
                probe.params.get("verdict_source"),
                Some(&wt_store::ParamValue::Str("aborted".into()))
            );
            let t = probe.telemetry.as_ref().expect("telemetry attached");
            assert_eq!(t.marks.get("abort_sketch_p99"), Some(&1));
            assert!(probe.get_metric("shop_sketch_p99_s").unwrap() > 0.05);
        });
        // Conservatism: the full run fails the same constraint.
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        assert!(!out.rows[0].passes && !out.rows[0].aborted, "{out:?}");
    }

    #[test]
    fn perf_metrics_runs_perf_engine() {
        let q = parse("EXPLORE shop_p95_s SWEEP disk IN [\"ssd\", \"hdd\"]").unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = ScenarioBuilder::new("perf-base")
            .racks(1)
            .nodes_per_rack(10)
            .disks_per_node(4)
            .tenant(windtunnel::workload::TenantWorkload::oltp(
                "shop", 100.0, 1_000,
            ))
            .horizon_years(0.00001)
            .build();
        sc.horizon_years = 0.00001; // ~5 simulated minutes
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 2);
        for r in &out.rows {
            assert!(r.metrics.contains_key("shop_p95_s"), "{r:?}");
        }
        // SSD beats HDD on p95 (plan puts them in deterministic order:
        // categorical tie-break is lexicographic on the debug string).
        let p95_of = |needle: &str| {
            out.rows
                .iter()
                .find(|r| r.assignment[0].1.to_string() == needle)
                .unwrap()
                .metrics["shop_p95_s"]
        };
        assert!(p95_of("ssd") < p95_of("hdd"));
    }

    /// Engine events over every record the store holds.
    fn stored_events(tunnel: &WindTunnel) -> u64 {
        tunnel.store().with(|s| {
            s.records()
                .filter_map(|r| r.telemetry.as_ref())
                .map(|t| t.events)
                .sum()
        })
    }

    #[test]
    fn perf_only_total_counts_every_stored_engine_event() {
        let q =
            parse("EXPLORE shop_p95_s SWEEP disk IN [\"ssd\", \"hdd\"] OPTIONS replications = 2")
                .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = ScenarioBuilder::new("perf-base")
            .racks(1)
            .nodes_per_rack(10)
            .disks_per_node(4)
            .tenant(windtunnel::workload::TenantWorkload::oltp(
                "shop", 100.0, 1_000,
            ))
            .build();
        sc.horizon_years = 0.00001;
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert_eq!(tunnel.store().len(), 4);
        let stored = stored_events(&tunnel);
        assert!(stored > 0);
        assert_eq!(out.total_sim_events, stored);
    }

    #[test]
    fn early_abort_probe_counts_even_when_it_does_not_abort() {
        // A floor nothing can miss: the probe runs, finds nothing
        // hopeless, and the full run follows. The row costs both.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             SUBJECT TO availability >= 0.0 \
             OPTIONS early_abort = TRUE, probe_fraction = 0.05",
        )
        .unwrap();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(30.0 * 86_400.0);
        let opts = ExecOptions::from_query(&q);
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &sc, &tunnel, &opts).unwrap();
        assert_eq!(out.aborted, 0, "{out:?}");
        let scenario = build_scenario(&q, &sc, &out.rows[0].assignment).unwrap();
        let probe = WindTunnel::availability_model(&scenario).run(
            scenario.seed,
            SimDuration::from_years(scenario.horizon_years * opts.probe_fraction),
        );
        assert!(probe.sim_events > 0);
        assert_eq!(
            out.rows[0].sim_events_executed,
            stored_events(&tunnel) + probe.sim_events
        );
    }

    #[test]
    fn guided_with_every_stage_off_matches_default_execution() {
        // GUIDED with every stage disabled is plain pruned execution: the
        // same rows and the same store bytes, at any worker count.
        let text = "EXPLORE availability \
                    SWEEP replication IN [1, 2, 3], repair_parallel IN [1, 2] \
                    SUBJECT TO availability >= 1.0 AND unavailability_events <= 0";
        let guided = format!(
            "{text} GUIDED OPTIONS screen = FALSE, rank = FALSE, \
             early_stop = FALSE, sketch_abort = FALSE"
        );
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0;
        let run = |text: &str, threads: usize| {
            let q = parse(text).unwrap();
            let mut opts = ExecOptions::from_query(&q);
            opts.threads = threads;
            let tunnel = WindTunnel::new();
            let out = run_query(&q, &sc, &tunnel, &opts).unwrap();
            let mut records = tunnel.store().snapshot();
            for r in &mut records {
                if let Some(t) = r.telemetry.as_mut() {
                    t.mask_wall();
                }
            }
            (opts, out.rows, records)
        };
        for threads in [1, 4] {
            let (default_opts, rows, records) = run(text, threads);
            let (guided_opts, guided_rows, guided_records) = run(&guided, threads);
            assert!(default_opts.prune && !default_opts.guided);
            assert!(guided_opts.prune && guided_opts.guided);
            assert!(rows.iter().any(|r| r.pruned), "fixture should prune");
            assert_eq!(rows, guided_rows, "threads = {threads}");
            assert_eq!(records, guided_records, "threads = {threads}");
        }
    }
}
