//! Declarative parameter sweeps (paper §4.1, "declarative simulation
//! processing").
//!
//! The paper's first research challenge is that a designer should *state*
//! a parameter exploration — "availability of 3 redundancy schemes over
//! 120 days, 3 replications each" — and have the system plan and execute
//! it. This module is that layer:
//!
//! * [`SweepSpec`] declares named axes and turns them into a
//!   deterministic grid. Canonicalization makes the grid — including
//!   every per-point seed — independent of the order in which axes or
//!   values were declared: axes are sorted by name, values are sorted
//!   and deduplicated, and each point's seed is a [`substream_seed`] of
//!   a content hash of its assignment, not of its enumeration index.
//! * [`SweepRunner`] executes a grid over the existing [`Farm`]: every
//!   (point × replication) pair becomes one farm item, records flow
//!   through per-worker [`wt_store::StoreShard`]s into the
//!   [`SharedStore`] in item
//!   order (ids bitwise-stable at any worker count), and replication
//!   metrics are aggregated per point with [`wt_des::Tally`] merges.
//! * [`SweepReport`] renders a [`SweepOutcome`] as the fixed-width
//!   [`Table`] the experiment binaries print.
//!
//! The WTQL executor (`wt-wtql`) runs its `EXPLORE` grids through
//! [`SweepRunner::run_points`], handing the farm its dominance edges as
//! dependencies and, in guided mode, a surrogate rank — the query
//! language and the `e*` binaries share this one execution path and the
//! farm's one scheduler.
//!
//! ```
//! use std::collections::BTreeMap;
//! use windtunnel::sweep::{SweepRunner, SweepSpec};
//! use wt_store::SharedStore;
//!
//! let spec = SweepSpec::new("doc")
//!     .axis("replication", [2usize, 3])
//!     .axis("parallel", [false, true])
//!     .seed(7)
//!     .replications(2);
//! let store = SharedStore::new();
//! let out = SweepRunner::serial().run(&spec, &store, |point, rep, sink| {
//!     let x = point.axis_num("replication") * (rep.seed % 5) as f64;
//!     sink.record(point.record("doc", rep.seed).metric("x", x));
//!     BTreeMap::from([("x".to_string(), x)])
//! });
//! assert_eq!(out.rows.len(), 4); // 2 × 2 grid
//! assert_eq!(store.len(), 8); // one record per (point × replication)
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use crate::farm::{substream_seed, Farm, Rank, RunCtx};
use crate::report::Table;
use wt_des::{QuantileSketch, Tally};
use wt_store::{ParamValue, RecordSink, RunRecord, SharedStore};

/// One grid point's configuration: `(axis name, value)` pairs.
pub type Assignment = Vec<(String, ParamValue)>;

/// How per-replication seeds are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Each point gets independent replication streams:
    /// `substream_seed(point.seed, rep)`. The statistical default.
    PerPoint,
    /// Common random numbers: replication `r` uses the *same* seed at
    /// every grid point, so arms face identical failure traces and
    /// their differences are attributable to the configuration alone —
    /// the variance-reduction technique the comparison experiments
    /// (e2, e8, e10, e11, e12) rely on.
    CommonRandomNumbers,
}

/// How a metric's replications collapse into the reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricAgg {
    /// Arithmetic mean over replications (the default).
    Mean,
    /// Sum over replications (event and loss counters).
    Sum,
    /// Minimum over replications.
    Min,
    /// Maximum over replications.
    Max,
    /// The given quantile over replications, estimated with a
    /// [`QuantileSketch`] fed in replication order — the sketch's
    /// order-independent bucket state plus the farm's ordered fold keep
    /// the result bitwise worker-count-invariant, and large replication
    /// counts stay constant-memory.
    Quantile(f64),
}

/// A declarative sweep: named axes × seeds × replications.
///
/// Declaration order never matters — [`SweepSpec::grid`] canonicalizes
/// axes and values, and seeds derive from assignment *content*.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    name: String,
    axes: Vec<(String, Vec<ParamValue>)>,
    root_seed: u64,
    replications: usize,
    seed_mode: SeedMode,
    aggs: Vec<(String, MetricAgg)>,
}

impl SweepSpec {
    /// A sweep named after its experiment family, with no axes yet,
    /// root seed 0, one replication, and per-point seeding.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            axes: Vec::new(),
            root_seed: 0,
            replications: 1,
            seed_mode: SeedMode::PerPoint,
            aggs: Vec::new(),
        }
    }

    /// Adds a named axis. Values may repeat or arrive unsorted — the
    /// grid deduplicates and canonically orders them.
    pub fn axis<V: Into<ParamValue>>(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        self.axes
            .push((name.into(), values.into_iter().map(Into::into).collect()));
        self
    }

    /// Sets the root seed all point and replication seeds derive from.
    pub fn seed(mut self, root: u64) -> Self {
        self.root_seed = root;
        self
    }

    /// Sets the number of replications per grid point (min 1).
    pub fn replications(mut self, n: usize) -> Self {
        self.replications = n.max(1);
        self
    }

    /// Switches replication seeding to common random numbers (see
    /// [`SeedMode::CommonRandomNumbers`]).
    pub fn common_random_numbers(mut self) -> Self {
        self.seed_mode = SeedMode::CommonRandomNumbers;
        self
    }

    /// Registers how `metric` aggregates across replications
    /// (unregistered metrics default to [`MetricAgg::Mean`]).
    pub fn aggregate(mut self, metric: impl Into<String>, agg: MetricAgg) -> Self {
        self.aggs.push((metric.into(), agg));
        self
    }

    /// The sweep's experiment-family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enumerates the canonical grid: axes sorted by name, values
    /// sorted and deduplicated, points in odometer order (last axis
    /// fastest), each point's seed derived from its assignment content.
    pub fn grid(&self) -> SweepGrid {
        let mut axes: Vec<(String, Vec<ParamValue>)> = self.axes.clone();
        axes.sort_by(|a, b| a.0.cmp(&b.0));
        for (_, values) in &mut axes {
            values.sort_by(cmp_values);
            values.dedup();
        }
        assert!(
            axes.iter().all(|(_, v)| !v.is_empty()),
            "sweep axis with no values"
        );
        let total: usize = axes.iter().map(|(_, v)| v.len()).product();
        let mut assignments = Vec::with_capacity(total);
        let mut odometer = vec![0usize; axes.len()];
        for _ in 0..total {
            assignments.push(
                axes.iter()
                    .zip(&odometer)
                    .map(|((name, values), &i)| (name.clone(), values[i].clone()))
                    .collect::<Assignment>(),
            );
            for d in (0..axes.len()).rev() {
                odometer[d] += 1;
                if odometer[d] < axes[d].1.len() {
                    break;
                }
                odometer[d] = 0;
            }
        }
        let mut grid = SweepGrid::explicit(&self.name, self.root_seed, assignments);
        grid.replications = self.replications;
        grid.seed_mode = self.seed_mode;
        grid.aggs = self.aggs.clone();
        grid
    }
}

/// One point of a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the grid's execution order.
    pub index: usize,
    /// The point's `(axis, value)` configuration.
    pub assignment: Assignment,
    /// The point's seed: `substream_seed(root, content_hash(assignment))`
    /// — a function of *what* the point is, not where it sits in the
    /// enumeration, so reordering or extending axes never reseeds an
    /// existing configuration.
    pub seed: u64,
}

impl SweepPoint {
    /// The value of axis `name`, if present.
    pub fn axis(&self, name: &str) -> Option<&ParamValue> {
        self.assignment
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// The string value of axis `name` (panics if absent; non-string
    /// values render via `Display`).
    pub fn axis_str(&self, name: &str) -> String {
        self.axis(name)
            .unwrap_or_else(|| panic!("sweep point has no axis '{name}'"))
            .to_string()
    }

    /// The numeric value of axis `name` (panics if absent or not
    /// numeric).
    pub fn axis_num(&self, name: &str) -> f64 {
        match self.axis(name) {
            Some(ParamValue::Num(x)) => *x,
            other => panic!("axis '{name}' is not numeric: {other:?}"),
        }
    }

    /// The boolean value of axis `name` (panics if absent or not
    /// boolean).
    pub fn axis_bool(&self, name: &str) -> bool {
        match self.axis(name) {
            Some(ParamValue::Bool(b)) => *b,
            other => panic!("axis '{name}' is not boolean: {other:?}"),
        }
    }

    /// `"axis=value, axis=value"` — the point's display label.
    pub fn label(&self) -> String {
        self.assignment
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// A [`RunRecord`] builder with every axis pre-filled as a param.
    pub fn record(&self, experiment: impl Into<String>, seed: u64) -> RunRecord {
        let mut r = RunRecord::new(experiment, seed);
        for (k, v) in &self.assignment {
            r = r.param(k.clone(), v.clone());
        }
        r
    }
}

/// An enumerated grid ready to execute: points in execution order plus
/// the seeding discipline.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Experiment-family name (used for progress/report labels).
    pub name: String,
    /// The root seed point and replication seeds derive from.
    pub root_seed: u64,
    /// Points in execution order.
    pub points: Vec<SweepPoint>,
    replications: usize,
    seed_mode: SeedMode,
    aggs: Vec<(String, MetricAgg)>,
}

/// Domain-separation tag for common-random-number replication streams,
/// so they cannot collide with any point's content-derived stream.
const CRN_STREAM: u64 = 0x4352_4e5f_5354_5245; // "CRN_STRE"

impl SweepGrid {
    /// A grid over caller-supplied assignments, *preserving their
    /// order* — the escape hatch for planners (like WTQL's best-first
    /// optimizer) that compute their own execution order. Seeds are
    /// still content-derived, so two routes to the same configuration
    /// agree on its seed.
    pub fn explicit(name: impl Into<String>, root_seed: u64, assignments: Vec<Assignment>) -> Self {
        let points = assignments
            .into_iter()
            .enumerate()
            .map(|(index, assignment)| {
                let seed = substream_seed(root_seed, assignment_hash(&assignment));
                SweepPoint {
                    index,
                    assignment,
                    seed,
                }
            })
            .collect();
        SweepGrid {
            name: name.into(),
            root_seed,
            points,
            replications: 1,
            seed_mode: SeedMode::PerPoint,
            aggs: Vec::new(),
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Replications per point.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// The seed replication `rep` of `point` runs with, per the grid's
    /// [`SeedMode`].
    pub fn rep_seed(&self, point: &SweepPoint, rep: usize) -> u64 {
        match self.seed_mode {
            SeedMode::PerPoint => substream_seed(point.seed, rep as u64),
            SeedMode::CommonRandomNumbers => {
                substream_seed(self.root_seed ^ CRN_STREAM, rep as u64)
            }
        }
    }

    fn agg_for(&self, metric: &str) -> MetricAgg {
        self.aggs
            .iter()
            .find(|(m, _)| m == metric)
            .map(|(_, a)| *a)
            .unwrap_or(MetricAgg::Mean)
    }
}

/// Stable content hash of an assignment: keys are visited in sorted
/// order, values hash by type tag + canonical bytes (`f64::to_bits` for
/// numbers), so any declaration order of the same configuration hashes
/// identically.
fn assignment_hash(assignment: &Assignment) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn feed(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(FNV_PRIME);
        }
    }
    let mut pairs: Vec<&(String, ParamValue)> = assignment.iter().collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = FNV_OFFSET;
    for (key, value) in pairs {
        feed(&mut h, key.as_bytes());
        feed(&mut h, &[0xff]);
        match value {
            ParamValue::Num(x) => {
                feed(&mut h, &[1]);
                feed(&mut h, &x.to_bits().to_le_bytes());
            }
            ParamValue::Str(s) => {
                feed(&mut h, &[2]);
                feed(&mut h, s.as_bytes());
            }
            ParamValue::Bool(b) => {
                feed(&mut h, &[3, *b as u8]);
            }
        }
        feed(&mut h, &[0xfe]);
    }
    h
}

fn value_rank(v: &ParamValue) -> u8 {
    match v {
        ParamValue::Num(_) => 0,
        ParamValue::Str(_) => 1,
        ParamValue::Bool(_) => 2,
    }
}

/// Canonical value order: numbers (by total order), then strings
/// (lexicographic), then booleans (`false` < `true`).
fn cmp_values(a: &ParamValue, b: &ParamValue) -> std::cmp::Ordering {
    match (a, b) {
        (ParamValue::Num(x), ParamValue::Num(y)) => x.total_cmp(y),
        (ParamValue::Str(x), ParamValue::Str(y)) => x.cmp(y),
        (ParamValue::Bool(x), ParamValue::Bool(y)) => x.cmp(y),
        _ => value_rank(a).cmp(&value_rank(b)),
    }
}

/// Per-replication context handed to the evaluation closure.
#[derive(Debug, Clone, Copy)]
pub struct RepCtx {
    /// Replication number within the point, `0..replications`.
    pub rep: usize,
    /// The replication's RNG seed (see [`SweepGrid::rep_seed`]).
    pub seed: u64,
}

/// One grid point's aggregated results.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The point this row aggregates.
    pub point: SweepPoint,
    /// Aggregated metrics (per the spec's [`MetricAgg`] registry).
    pub metrics: BTreeMap<String, f64>,
    /// Full replication statistics per metric, for spread inspection.
    pub tallies: BTreeMap<String, Tally>,
    /// Replication-value sketches, one per metric registered with
    /// [`MetricAgg::Quantile`], fed in replication order. Lets callers
    /// read further quantiles of the same metric without re-running.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl SweepRow {
    /// The display value of axis `name` (panics if absent).
    pub fn axis_display(&self, name: &str) -> String {
        self.point.axis_str(name)
    }

    /// Whether this row's point has `(axis, value)`.
    pub fn matches<V: Into<ParamValue>>(&self, axis: &str, value: V) -> bool {
        self.point.axis(axis) == Some(&value.into())
    }

    /// The aggregated value of `key` (panics with the metric name if
    /// the evaluation closure never produced it).
    pub fn metric(&self, key: &str) -> f64 {
        self.try_metric(key)
            .unwrap_or_else(|| panic!("sweep row has no metric '{key}'"))
    }

    /// The aggregated value of `key`, if produced.
    pub fn try_metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }
}

/// The result of executing a sweep: one aggregated row per grid point,
/// in grid order.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Aggregated rows, one per point, in grid order.
    pub rows: Vec<SweepRow>,
    /// Replications each point ran.
    pub replications: usize,
    /// Wall-clock seconds the farm spent (report on stderr only —
    /// stdout must stay byte-identical across worker counts).
    pub wall_s: f64,
}

impl SweepOutcome {
    /// The first row whose point has `(axis, value)` (panics if none).
    pub fn row_where<V: Into<ParamValue>>(&self, axis: &str, value: V) -> &SweepRow {
        let value = value.into();
        self.rows
            .iter()
            .find(|r| r.point.axis(axis) == Some(&value))
            .unwrap_or_else(|| panic!("no sweep row with {axis}={value}"))
    }

    /// The aggregated `metric` at the row where `axis == value`.
    pub fn metric_where<V: Into<ParamValue>>(&self, axis: &str, value: V, metric: &str) -> f64 {
        self.row_where(axis, value).metric(metric)
    }

    /// Starts a [`SweepReport`] over this outcome.
    pub fn report(&self) -> SweepReport<'_> {
        SweepReport::new(self)
    }
}

/// Executes sweep grids on a [`Farm`].
///
/// Every (point × replication) pair is one farm item; the farm's
/// deterministic fold keeps record ids and row order independent of the
/// worker count.
pub struct SweepRunner {
    farm: Farm,
}

impl SweepRunner {
    /// A runner over an explicit farm.
    pub fn new(farm: Farm) -> Self {
        SweepRunner { farm }
    }

    /// A single-worker runner (tests, doc examples).
    pub fn serial() -> Self {
        SweepRunner::new(Farm::new(1))
    }

    /// Worker count of the underlying farm.
    pub fn workers(&self) -> usize {
        self.farm.workers()
    }

    /// The underlying farm.
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// Declares-and-runs: enumerates `spec`'s grid, evaluates every
    /// (point × replication) on the farm with sharded recording into
    /// `store`, and aggregates each point's replications with
    /// [`Tally`] merges in replication order.
    ///
    /// The closure returns the metrics of one replication; the outcome
    /// holds their per-point aggregates (per the spec's
    /// [`MetricAgg`] registry, mean by default).
    pub fn run<F>(&self, spec: &SweepSpec, store: &SharedStore, eval: F) -> SweepOutcome
    where
        F: Fn(&SweepPoint, RepCtx, &dyn RecordSink) -> BTreeMap<String, f64> + Sync,
    {
        self.run_grid(&spec.grid(), store, eval)
    }

    /// [`SweepRunner::run`] over an already-enumerated grid.
    pub fn run_grid<F>(&self, grid: &SweepGrid, store: &SharedStore, eval: F) -> SweepOutcome
    where
        F: Fn(&SweepPoint, RepCtx, &dyn RecordSink) -> BTreeMap<String, f64> + Sync,
    {
        let reps = grid.replications;
        let items: Vec<(usize, usize)> = (0..grid.points.len())
            .flat_map(|p| (0..reps).map(move |r| (p, r)))
            .collect();
        let t0 = Instant::now();
        let per_rep: Vec<BTreeMap<String, f64>> =
            self.farm
                .run_recorded(grid.root_seed, &items, store, |&(p, r), _ctx, shard| {
                    let point = &grid.points[p];
                    let rep = RepCtx {
                        rep: r,
                        seed: grid.rep_seed(point, r),
                    };
                    eval(point, rep, shard)
                });
        let wall_s = t0.elapsed().as_secs_f64();

        // Aggregate per point, in replication order (farm output is in
        // item order, which is point-major), reusing the deterministic
        // wt-des Tally merge discipline.
        let rows = grid
            .points
            .iter()
            .zip(per_rep.chunks(reps))
            .map(|(point, chunk)| {
                let mut tallies: BTreeMap<String, Tally> = BTreeMap::new();
                let mut sketches: BTreeMap<String, QuantileSketch> = BTreeMap::new();
                for rep_metrics in chunk {
                    for (metric, value) in rep_metrics {
                        tallies.entry(metric.clone()).or_default().record(*value);
                        if matches!(grid.agg_for(metric), MetricAgg::Quantile(_)) {
                            sketches.entry(metric.clone()).or_default().record(*value);
                        }
                    }
                }
                let metrics = tallies
                    .iter()
                    .map(|(metric, tally)| {
                        let v = match grid.agg_for(metric) {
                            MetricAgg::Mean => tally.mean(),
                            MetricAgg::Sum => tally.sum(),
                            MetricAgg::Min => tally.min(),
                            MetricAgg::Max => tally.max(),
                            MetricAgg::Quantile(q) => sketches[metric].quantile(q),
                        };
                        (metric.clone(), v)
                    })
                    .collect();
                SweepRow {
                    point: point.clone(),
                    metrics,
                    tallies,
                    sketches,
                }
            })
            .collect();
        SweepOutcome {
            rows,
            replications: reps,
            wall_s,
        }
    }

    /// The generic recorded path: one closure call per grid *point*
    /// (no replication fan-out, no aggregation), returning whatever the
    /// closure returns, in grid order. WTQL's executor runs its planned
    /// configuration order through this.
    ///
    /// `deps` and `rank` pass straight to
    /// [`Farm::run_recorded_scheduled`]: a point starts only after its
    /// dependencies finished, and among ready points the highest-ranked
    /// (or, without a rank, the lowest index) runs next. Results and
    /// store bytes do not depend on either.
    pub fn run_points<R, F>(
        &self,
        grid: &SweepGrid,
        store: &SharedStore,
        deps: &[Vec<usize>],
        rank: Option<Rank<'_>>,
        eval: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(&SweepPoint, RunCtx, &dyn RecordSink) -> R + Sync,
    {
        self.farm.run_recorded_scheduled(
            grid.root_seed,
            &grid.points,
            store,
            deps,
            rank,
            |point, ctx, shard| eval(point, ctx, shard),
        )
    }

    /// The unrecorded path: one closure call per grid point with no
    /// result store (pure computations like fig1's analytic curves).
    pub fn map_points<R, F>(&self, grid: &SweepGrid, eval: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&SweepPoint, RunCtx) -> R + Sync,
    {
        self.farm.run(grid.root_seed, &grid.points, eval)
    }
}

type CellFn<'a> = Box<dyn Fn(&SweepRow) -> String + 'a>;

/// A column-by-column table builder over a [`SweepOutcome`], replacing
/// the per-binary row-formatting loops.
pub struct SweepReport<'a> {
    outcome: &'a SweepOutcome,
    headers: Vec<String>,
    cells: Vec<CellFn<'a>>,
}

impl<'a> SweepReport<'a> {
    fn new(outcome: &'a SweepOutcome) -> Self {
        SweepReport {
            outcome,
            headers: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// A column showing axis `axis` under header `header`.
    pub fn axis_column(self, header: &str, axis: &'a str) -> Self {
        self.column(header, move |row| row.axis_display(axis))
    }

    /// A column showing aggregated metric `key` formatted by `fmt`.
    pub fn metric_column(
        self,
        header: &str,
        key: &'a str,
        fmt: impl Fn(f64) -> String + 'a,
    ) -> Self {
        self.column(header, move |row| fmt(row.metric(key)))
    }

    /// A free-form column computed from the row.
    pub fn column(mut self, header: &str, cell: impl Fn(&SweepRow) -> String + 'a) -> Self {
        self.headers.push(header.to_string());
        self.cells.push(Box::new(cell));
        self
    }

    /// Renders the report as a [`Table`].
    pub fn table(&self) -> Table {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&headers);
        for row in &self.outcome.rows {
            table.row(self.cells.iter().map(|cell| cell(row)).collect());
        }
        table
    }

    /// Prints the report to stdout.
    pub fn print(&self) {
        self.table().print();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> SweepSpec {
        SweepSpec::new("t")
            .axis("b", [1usize, 2])
            .axis("a", ["y", "x"])
            .seed(42)
    }

    #[test]
    fn grid_is_declaration_order_independent() {
        let g1 = demo_spec().grid();
        let g2 = SweepSpec::new("t")
            .axis("a", ["x", "y"])
            .axis("b", [2usize, 1, 2]) // duplicate collapses
            .seed(42)
            .grid();
        assert_eq!(g1.points, g2.points);
        assert_eq!(g1.len(), 4);
        // Axes sorted by name, odometer order with last axis fastest.
        assert_eq!(g1.points[0].label(), "a=x, b=1");
        assert_eq!(g1.points[1].label(), "a=x, b=2");
        assert_eq!(g1.points[3].label(), "a=y, b=2");
    }

    #[test]
    fn point_seeds_are_content_derived() {
        let g = demo_spec().grid();
        // Same configuration via an explicit grid in reversed pair
        // order still lands on the same seed.
        let explicit = SweepGrid::explicit(
            "t",
            42,
            vec![vec![
                ("b".to_string(), ParamValue::Num(1.0)),
                ("a".to_string(), ParamValue::from("x")),
            ]],
        );
        assert_eq!(explicit.points[0].seed, g.points[0].seed);
        // Distinct configurations land on distinct seeds.
        let seeds: Vec<u64> = g.points.iter().map(|p| p.seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        // And the root seed matters.
        let other = demo_spec().seed(43).grid();
        assert_ne!(other.points[0].seed, g.points[0].seed);
    }

    #[test]
    fn rep_seeds_follow_seed_mode() {
        let per_point = demo_spec().replications(3).grid();
        let a = &per_point.points[0];
        let b = &per_point.points[1];
        assert_ne!(per_point.rep_seed(a, 0), per_point.rep_seed(b, 0));
        assert_ne!(per_point.rep_seed(a, 0), per_point.rep_seed(a, 1));

        let crn = demo_spec().replications(3).common_random_numbers().grid();
        let a = &crn.points[0];
        let b = &crn.points[1];
        assert_eq!(crn.rep_seed(a, 0), crn.rep_seed(b, 0));
        assert_ne!(crn.rep_seed(a, 0), crn.rep_seed(a, 1));
    }

    #[test]
    fn explicit_grid_preserves_caller_order() {
        let assignments: Vec<Assignment> = vec![
            vec![("k".to_string(), ParamValue::Num(9.0))],
            vec![("k".to_string(), ParamValue::Num(1.0))],
        ];
        let g = SweepGrid::explicit("t", 0, assignments);
        assert_eq!(g.points[0].axis_num("k"), 9.0);
        assert_eq!(g.points[1].axis_num("k"), 1.0);
        assert_eq!(g.points[0].index, 0);
    }

    #[test]
    fn run_aggregates_and_records() {
        let spec = SweepSpec::new("agg")
            .axis("x", [1usize, 2])
            .replications(3)
            .aggregate("events", MetricAgg::Sum)
            .aggregate("worst", MetricAgg::Max)
            .seed(5);
        let store = SharedStore::new();
        let out = SweepRunner::serial().run(&spec, &store, |point, rep, sink| {
            let x = point.axis_num("x");
            sink.record(point.record("agg", rep.seed).metric("v", x));
            BTreeMap::from([
                ("v".to_string(), x * (rep.rep + 1) as f64),
                ("events".to_string(), 1.0),
                ("worst".to_string(), rep.rep as f64),
            ])
        });
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.replications, 3);
        let r = out.row_where("x", 1usize);
        assert_eq!(r.metric("v"), 2.0); // mean of 1, 2, 3
        assert_eq!(r.metric("events"), 3.0); // sum
        assert_eq!(r.metric("worst"), 2.0); // max
        assert_eq!(r.tallies["v"].count(), 3);
        assert_eq!(out.metric_where("x", 2usize, "v"), 4.0);
        // One record per (point × replication), ids in item order.
        assert_eq!(store.len(), 6);
        let ids: Vec<u64> = store.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn quantile_agg_uses_sketch_and_exposes_it() {
        let spec = SweepSpec::new("q")
            .axis("x", [1usize])
            .replications(100)
            .aggregate("lat", MetricAgg::Quantile(0.95))
            .seed(3);
        let store = SharedStore::new();
        let out = SweepRunner::serial().run(&spec, &store, |_point, rep, _sink| {
            BTreeMap::from([("lat".to_string(), (rep.rep + 1) as f64)])
        });
        let row = &out.rows[0];
        // p95 of 1..=100 within the sketch's 1% relative error.
        let p95 = row.metric("lat");
        assert!((p95 - 95.0).abs() / 95.0 < 0.011, "p95 {p95}");
        // The sketch itself is exposed for further quantiles.
        let s = &row.sketches["lat"];
        assert_eq!(s.count(), 100);
        let p50 = s.p50();
        assert!((p50 - 50.0).abs() / 50.0 < 0.011, "p50 {p50}");
        // Non-quantile metrics don't pay for a sketch.
        assert_eq!(row.sketches.len(), 1);
    }

    #[test]
    fn quantile_agg_is_worker_count_invariant() {
        let spec = SweepSpec::new("qinv")
            .axis("n", 1usize..=4)
            .replications(8)
            .aggregate("v", MetricAgg::Quantile(0.99))
            .seed(11);
        let eval = |point: &SweepPoint, rep: RepCtx, _sink: &dyn RecordSink| {
            BTreeMap::from([(
                "v".to_string(),
                (point.axis_num("n") as u64 ^ rep.seed) as f64,
            )])
        };
        let store1 = SharedStore::new();
        let out1 = SweepRunner::new(Farm::new(1)).run(&spec, &store1, eval);
        let store4 = SharedStore::new();
        let out4 = SweepRunner::new(Farm::new(4)).run(&spec, &store4, eval);
        for (a, b) in out1.rows.iter().zip(&out4.rows) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.sketches, b.sketches);
        }
    }

    #[test]
    fn run_is_worker_count_invariant() {
        let spec = SweepSpec::new("inv")
            .axis("n", 1usize..=6)
            .replications(2)
            .seed(9);
        let eval = |point: &SweepPoint, rep: RepCtx, sink: &dyn RecordSink| {
            let v = (point.axis_num("n") as u64 ^ rep.seed) as f64;
            sink.record(point.record("inv", rep.seed).metric("v", v));
            BTreeMap::from([("v".to_string(), v)])
        };
        let store1 = SharedStore::new();
        let out1 = SweepRunner::new(Farm::new(1)).run(&spec, &store1, eval);
        let store4 = SharedStore::new();
        let out4 = SweepRunner::new(Farm::new(4)).run(&spec, &store4, eval);
        let rows = |o: &SweepOutcome| {
            o.rows
                .iter()
                .map(|r| (r.point.clone(), r.metrics.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&out1), rows(&out4));
        assert_eq!(store1.snapshot(), store4.snapshot());
    }

    #[test]
    fn report_renders_columns() {
        let spec = SweepSpec::new("rep").axis("mode", ["a", "b"]).seed(1);
        let store = SharedStore::new();
        let out = SweepRunner::serial().run(&spec, &store, |point, _rep, _sink| {
            BTreeMap::from([(
                "score".to_string(),
                if point.axis_str("mode") == "a" {
                    1.0
                } else {
                    2.0
                },
            )])
        });
        let rendered = out
            .report()
            .axis_column("mode", "mode")
            .metric_column("score", "score", |v| format!("{v:.1}"))
            .column("twice", |row| format!("{}", row.metric("score") * 2.0))
            .table()
            .render();
        assert!(rendered.contains("mode"));
        assert!(rendered.contains("1.0"));
        assert!(rendered.contains('4')); // 2.0 doubled
    }

    #[test]
    fn point_record_prefills_params() {
        let g = demo_spec().grid();
        let r = g.points[0].record("exp", 7);
        assert_eq!(r.params.len(), 2);
        assert_eq!(r.params["a"], ParamValue::from("x"));
        assert_eq!(r.params["b"], ParamValue::Num(1.0));
        assert_eq!(r.seed, 7);
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn empty_axis_rejected() {
        let _ = SweepSpec::new("t").axis("a", Vec::<f64>::new()).grid();
    }

    fn guided_demo_grid(n: usize) -> SweepGrid {
        let assignments: Vec<Assignment> = (0..n)
            .map(|i| vec![("k".to_string(), ParamValue::Num(i as f64))])
            .collect();
        SweepGrid::explicit("guided", 21, assignments)
    }

    fn guided_eval(point: &SweepPoint, ctx: RunCtx, sink: &dyn RecordSink) -> u64 {
        // Two records per point (exercises merge alignment) and a value
        // derived from the index-keyed seed.
        let v = ctx.seed ^ point.axis_num("k") as u64;
        sink.record(point.record("guided", ctx.seed).metric("v", v as f64));
        sink.record(
            point
                .record("guided", ctx.seed)
                .metric("v2", (v / 2) as f64),
        );
        v
    }

    #[test]
    fn guided_matches_exhaustive_for_any_workers_and_rank() {
        let grid = guided_demo_grid(20);
        // The oracle: a plain index-order loop, merging as it goes.
        let gold_store = SharedStore::new();
        let gold: Vec<u64> = grid
            .points
            .iter()
            .map(|point| {
                let shard = wt_store::StoreShard::new();
                let ctx = RunCtx {
                    index: point.index,
                    seed: substream_seed(grid.root_seed, point.index as u64),
                };
                let v = guided_eval(point, ctx, &shard);
                gold_store.merge_shard(shard);
                v
            })
            .collect();
        // Ranks that reverse, scramble and degenerate (NaN), with and
        // without dependencies: none may perturb results or record
        // bytes, at any worker count.
        let ranks: Vec<Box<dyn Fn(usize) -> f64 + Sync>> = vec![
            Box::new(|i| i as f64),
            Box::new(|i| -(i as f64)),
            Box::new(|i| ((i * 7919) % 13) as f64),
            Box::new(|_| f64::NAN),
        ];
        let chain: Vec<Vec<usize>> = (0..grid.len())
            .map(|i| (0..i).step_by(3).collect())
            .collect();
        for workers in [1, 4] {
            for deps in [&[][..], &chain[..]] {
                let ranked = ranks.iter().map(|r| Some(r.as_ref() as Rank<'_>));
                for rank in std::iter::once(None).chain(ranked) {
                    let store = SharedStore::new();
                    let out = SweepRunner::new(Farm::new(workers)).run_points(
                        &grid,
                        &store,
                        deps,
                        rank,
                        guided_eval,
                    );
                    assert_eq!(out, gold, "results diverged at {workers} workers");
                    assert_eq!(
                        store.snapshot(),
                        gold_store.snapshot(),
                        "records diverged at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn guided_rank_steers_serial_execution_order() {
        let grid = guided_demo_grid(6);
        let order_under = |rank: Option<Rank<'_>>| {
            let order = std::sync::Mutex::new(Vec::new());
            SweepRunner::serial().run_points(
                &grid,
                &SharedStore::new(),
                &[],
                rank,
                |point, _ctx, _sink| order.lock().unwrap().push(point.index),
            );
            order.into_inner().unwrap()
        };
        // Highest rank first: descending index order.
        assert_eq!(order_under(Some(&|i| i as f64)), vec![5, 4, 3, 2, 1, 0]);
        // A constant rank breaks ties toward the lowest index, which is
        // also the order without a rank.
        assert_eq!(order_under(Some(&|_| 0.0)), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(order_under(None), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn guided_deps_gate_execution() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let grid = guided_demo_grid(12);
        // Even points are free; each odd point depends on every earlier
        // even point. Rank pushes dependents first, so the scheduler must
        // actually hold them back.
        let deps: Vec<Vec<usize>> = (0..12)
            .map(|i| {
                if i % 2 == 1 {
                    (0..i).filter(|d| d % 2 == 0).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let finished: Vec<AtomicBool> = (0..12).map(|_| AtomicBool::new(false)).collect();
        for workers in [1, 4] {
            for f in &finished {
                f.store(false, Ordering::SeqCst);
            }
            SweepRunner::new(Farm::new(workers)).run_points(
                &grid,
                &SharedStore::new(),
                &deps,
                Some(&|i| if i % 2 == 1 { 1.0 } else { 0.0 }),
                |point, _ctx, _sink| {
                    for &d in &deps[point.index] {
                        assert!(
                            finished[d].load(Ordering::SeqCst),
                            "point {} ran before its dep {d} ({workers} workers)",
                            point.index
                        );
                    }
                    finished[point.index].store(true, Ordering::SeqCst);
                },
            );
        }
    }

    #[test]
    #[should_panic(expected = "not strictly earlier")]
    fn guided_rejects_forward_deps() {
        let grid = guided_demo_grid(2);
        let deps = vec![vec![1], Vec::new()];
        SweepRunner::serial().run_points(&grid, &SharedStore::new(), &deps, None, |_p, _c, _s| ());
    }
}
