//! Time-domain availability and durability simulation.
//!
//! Nodes fail with arbitrary TTF distributions (Weibull in the realistic
//! configurations, exponential when validating against the Markov model)
//! and are replaced after a repair time. A node failure destroys the
//! replicas/shards it held; after a detection delay each lost replica
//! becomes a rebuild task, executed under the scenario's
//! [`wt_sw::RepairPolicy`] concurrency cap. An object is *operable* while
//! its redundancy scheme's quorum predicate holds over its live holders,
//! and *lost* once too few holders remain to reconstruct it.
//!
//! Modeling choices (documented per DESIGN.md):
//!
//! * Failures are permanent for data: a replaced node returns empty. The
//!   transient-reboot case is representable with a `Timed` rebuild of the
//!   node-replace distribution.
//! * Rebuild targets are drawn uniformly from the *reachable* nodes that
//!   do not already hold the object. Under RackAware placement the draw
//!   prefers nodes in racks that hold no replica yet, and falls back to
//!   any candidate only when no such rack has a reachable node.
//! * A node failure destroys every replica on the node; with a
//!   [`DiskFailureModel`], a disk failure destroys only the replicas in
//!   that disk's slot. Switch outages and chaos windows make replicas
//!   unreachable but destroy nothing.

use crate::arena::{NodeLists, NodeSet};
use crate::chaos::{ChaosConfig, CompiledFault, FaultEffect};
use crate::results::AvailabilityResult;
use std::collections::HashMap;
use wt_des::obs::{Hll, QuantileSketch, SketchSet};
use wt_des::prelude::*;
use wt_des::rng::{RngFactory, Stream};
use wt_dist::Dist;
use wt_sw::repair::{RepairQueue, RepairTask};
use wt_sw::{Placement, Placer, RedundancyScheme, RepairPolicy};

/// Sketch-backed rebuild telemetry, armed only on observed runs.
///
/// These live in the model rather than behind the probe's
/// `Ctx::observe` path on purpose: rebuild starts are roughly half of
/// all events in a busy cluster, and routing each one through the
/// per-event emission buffer plus two virtual probe calls costs more
/// than the sketch update itself. Recording inline keeps the probed
/// run inside DESIGN.md §7's overhead budget; lower-rate engines (the
/// performance engine's request latencies) stay on the probe path.
#[derive(Debug, Default)]
struct RebuildSketches {
    wait_s: QuantileSketch,
    duration_s: QuantileSketch,
    objects: Hll,
    /// Run-length batch of the current (wait, duration) pair. One event
    /// starts every rebuild a freed slot (or a fresh failure's detection)
    /// allows, so bursts share one timestamp — and therefore bit-equal
    /// waits — and bandwidth-model durations repeat exactly. Identical
    /// pairs collapse to a counter bump here and reach the sketches via
    /// [`QuantileSketch::record_n`] when the pair changes.
    pend_wait_s: f64,
    pend_dur_s: f64,
    pend_n: u64,
}

impl RebuildSketches {
    /// Records one started rebuild (its queueing wait, stream duration,
    /// and object identity).
    fn record(&mut self, wait_s: f64, dur_s: f64, object: u64) {
        if wait_s == self.pend_wait_s && dur_s == self.pend_dur_s && self.pend_n > 0 {
            self.pend_n += 1;
        } else {
            self.flush();
            self.pend_wait_s = wait_s;
            self.pend_dur_s = dur_s;
            self.pend_n = 1;
        }
        self.objects.insert(object);
    }

    /// Pushes the pending run-length batch into the sketches.
    fn flush(&mut self) {
        if self.pend_n > 0 {
            self.wait_s.record_n(self.pend_wait_s, self.pend_n);
            self.duration_s.record_n(self.pend_dur_s, self.pend_n);
            self.pend_n = 0;
        }
    }

    /// True when the run never started a rebuild (nothing was recorded).
    fn is_empty(&self) -> bool {
        self.wait_s.count() == 0 && self.objects.estimate() == 0.0
    }

    /// Folds the sketches into a telemetry [`SketchSet`] under the same
    /// labels the probe path would have used.
    fn into_sketch_set(mut self, set: &mut SketchSet) {
        self.flush();
        set.values.insert("rebuild_wait_s".into(), self.wait_s);
        set.values
            .insert("rebuild_duration_s".into(), self.duration_s);
        set.distincts.insert("objects_rebuilt".into(), self.objects);
    }
}

/// How long one replica rebuild takes.
#[derive(Debug, Clone, PartialEq)]
pub enum RebuildModel {
    /// Drawn from a distribution (e.g. exponential for Markov validation,
    /// lognormal for field realism).
    Timed(Dist),
    /// Computed from the repair traffic over a link: the §1 "faster
    /// network shortens repair" knob.
    Bandwidth {
        /// Link speed available to one rebuild stream, Gbit/s.
        link_gbps: f64,
        /// Fraction of the link the rebuild may use.
        share: f64,
    },
}

impl RebuildModel {
    /// One rebuild stream's length: a draw from `rng` under `Timed`;
    /// under `Bandwidth`, one object's repair traffic over the stream's
    /// share of the link. Active gray storms stretch it by the product of
    /// their `slowdowns` (repair streams cross limping disks/NICs;
    /// per-component detail lives in the perf engine).
    fn stream_duration(
        &self,
        redundancy: RedundancyScheme,
        object_bytes: u64,
        slowdowns: impl IntoIterator<Item = f64>,
        rng: &mut Stream,
    ) -> SimDuration {
        let base = match self {
            RebuildModel::Timed(d) => d.sample(rng),
            RebuildModel::Bandwidth { link_gbps, share } => {
                let traffic = redundancy.repair_traffic_bytes(object_bytes);
                traffic as f64 / (link_gbps * 1e9 / 8.0 * share)
            }
        };
        let slow: f64 = slowdowns.into_iter().product();
        SimDuration::from_secs(base * slow)
    }
}

/// Rack-level correlated failures: a top-of-rack switch outage makes the
/// whole rack's replicas *unreachable* (but intact) until the switch is
/// repaired — the §2.1 class of behavior "harder to re-produce in a
/// smaller prototype cluster".
#[derive(Debug, Clone)]
pub struct SwitchFailureModel {
    /// Nodes per rack (node `i` lives in rack `i / nodes_per_rack`;
    /// must divide the node count).
    pub nodes_per_rack: usize,
    /// Switch time-to-failure distribution, seconds.
    pub ttf: Dist,
    /// Switch repair-time distribution, seconds.
    pub repair: Dist,
}

/// Per-disk failure granularity: each node carries `per_node` disks, an
/// object's replica lives on one of them (stable hash of object × holder),
/// and a disk failure destroys only that slice of the node's replicas.
/// Node failures still destroy everything on the node.
#[derive(Debug, Clone)]
pub struct DiskFailureModel {
    /// Disks per node.
    pub per_node: usize,
    /// Per-disk time-to-failure distribution, seconds.
    pub ttf: Dist,
    /// Disk replacement time, seconds (the slot is empty meanwhile; data
    /// comes back via re-replication, not the replacement).
    pub replace: Dist,
}

/// The most nodes one availability run can model: holder sets store node
/// ids as `u32`, and the reachability index (`arena::NodeSet`) keeps `u32`
/// Fenwick cells, so it stops one short of 2^32 nodes, whose last cell
/// would count all 2^32 of them. Callers that take node counts from user
/// input check against this before building a run.
pub const MAX_NODES: usize = u32::MAX as usize;

/// The widest redundancy scheme one availability run can model:
/// per-object holder counts are `u8`. Callers that take redundancy from
/// user input check against this before building a run.
pub const MAX_WIDTH: usize = u8::MAX as usize;

/// The most customer objects one availability run can model: object ids
/// are `u32`. Callers that take the object count from user input check
/// against this before building a run.
pub const MAX_OBJECTS: u64 = u32::MAX as u64 + 1;

/// Configuration for one availability run.
#[derive(Debug, Clone)]
pub struct AvailabilityModel {
    /// Number of nodes, at most [`MAX_NODES`].
    pub n_nodes: usize,
    /// Redundancy scheme.
    pub redundancy: RedundancyScheme,
    /// Placement policy.
    pub placement: Placement,
    /// Number of customer objects, at most [`MAX_OBJECTS`].
    pub objects: u64,
    /// Raw bytes per object.
    pub object_bytes: u64,
    /// Node time-to-failure distribution, seconds.
    pub node_ttf: Dist,
    /// Node replacement time distribution, seconds.
    pub node_replace: Dist,
    /// Rebuild-time model.
    pub rebuild: RebuildModel,
    /// Repair policy (concurrency cap + detection delay).
    pub repair: RepairPolicy,
    /// Optional correlated rack-level failures (ToR switch outages).
    pub switches: Option<SwitchFailureModel>,
    /// Optional per-disk failures (finer failure granularity than nodes).
    pub disks: Option<DiskFailureModel>,
    /// Optional declarative chaos: the fault schedule is compiled at setup
    /// (per run seed) into deterministic scheduled events. Chaos downtime
    /// makes nodes/racks *unreachable* (data intact, no repair traffic);
    /// gray storms slow rebuild streams; throttle rules clamp the repair
    /// queue's concurrency until they expire or their breaker trips.
    pub chaos: Option<ChaosConfig>,
}

impl AvailabilityModel {
    /// Runs the simulation for `horizon` and summarizes, with no
    /// telemetry.
    pub fn run(&self, seed: u64, horizon: SimDuration) -> AvailabilityResult {
        let end = SimTime::ZERO + horizon;
        let mut sim = self.seeded_sim(seed, end);
        sim.run_until(end, &mut wt_des::obs::NoProbe);
        let events = sim.events_executed();
        sim.into_model().finish(end, events)
    }

    /// Like [`run`](Self::run), but with a probe attached: returns the same
    /// result (probes are one-way and cannot perturb the simulation) plus a
    /// [`RunTelemetry`](wt_des::obs::RunTelemetry) summary. When `extra` is
    /// given (e.g. a `TraceProbe`), it observes the same event stream.
    pub fn run_observed(
        &self,
        seed: u64,
        horizon: SimDuration,
        extra: Option<&mut dyn wt_des::obs::Probe>,
    ) -> (AvailabilityResult, wt_des::obs::RunTelemetry) {
        let end = SimTime::ZERO + horizon;
        let mut sim = self.seeded_sim(seed, end);
        sim.model_mut().sketches = Some(Box::default());
        let mut telemetry = sim.run_observed(end, extra);
        let events = sim.events_executed();
        let mut model = sim.into_model();
        if let Some(s) = model.sketches.take() {
            if !s.is_empty() {
                s.into_sketch_set(telemetry.sketches.get_or_insert_with(SketchSet::default));
            }
        }
        (model.finish(end, events), telemetry)
    }

    /// Builds the simulation for a run that ends at `end` and seeds the
    /// initial failure events — the shared front half of
    /// [`run`](Self::run) and [`run_observed`](Self::run_observed), so
    /// the two paths cannot drift. The run declares `end` as its
    /// horizon, so the kernel parks every timer past it, and the initial
    /// draws skip the arithmetic of values that land past it.
    fn seeded_sim(&self, seed: u64, end: SimTime) -> Simulation<AvailState<'_>> {
        // Compile the fault schedule once per run: the per-rule streams
        // derive from this run's seed, so replications re-sample storms.
        let chaos_faults: Vec<CompiledFault> = self
            .chaos
            .as_ref()
            .map(|c| c.compile(self.n_nodes, seed))
            .unwrap_or_default();
        let n_chaos = chaos_faults.len();
        let mut sim = Simulation::new(AvailState::new(self, seed, chaos_faults));
        sim.declare_horizon(end);
        let end_s = end.as_secs();
        // Seed each node's first failure.
        let factory = RngFactory::new(seed);
        let mut rng = factory.stream("initial-failures");
        let node_ttf = self.node_ttf.screened(end_s);
        for node in 0..self.n_nodes {
            let ttf = SimDuration::from_secs(node_ttf.sample(&mut rng));
            sim.schedule_at(SimTime::ZERO + ttf, Ev::NodeFail(node));
        }
        if let Some(sw) = &self.switches {
            assert!(
                sw.nodes_per_rack >= 1 && self.n_nodes.is_multiple_of(sw.nodes_per_rack),
                "nodes_per_rack must divide n_nodes"
            );
            let racks = self.n_nodes / sw.nodes_per_rack;
            let mut sw_rng = factory.stream("initial-switch-failures");
            let switch_ttf = sw.ttf.screened(end_s);
            for rack in 0..racks {
                let ttf = SimDuration::from_secs(switch_ttf.sample(&mut sw_rng));
                sim.schedule_at(SimTime::ZERO + ttf, Ev::SwitchFail(rack));
            }
        }
        if let Some(dm) = &self.disks {
            assert!(dm.per_node >= 1, "need at least one disk per node");
            let mut disk_rng = factory.stream("initial-disk-failures");
            let disk_ttf = dm.ttf.screened(end_s);
            for node in 0..self.n_nodes {
                for slot in 0..dm.per_node {
                    let ttf = SimDuration::from_secs(disk_ttf.sample(&mut disk_rng));
                    sim.schedule_at(SimTime::ZERO + ttf, Ev::DiskFail { node, slot });
                }
            }
        }
        // The compiled chaos schedule is already content-ordered, so the
        // events' (time, seq) order is independent of rule declaration.
        // (The schedule now lives in the state; read the start times back
        // rather than cloning the whole compiled schedule.)
        for i in 0..n_chaos {
            let at_s = sim.model().chaos_faults[i].at_s;
            sim.schedule_at(
                SimTime::ZERO + SimDuration::from_secs(at_s),
                Ev::ChaosStart(i),
            );
        }
        sim
    }
}

/// Event alphabet of the availability simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A node dies, destroying its replicas.
    NodeFail(usize),
    /// A replaced node returns to service (empty).
    NodeBack(usize),
    /// Detection delay elapsed: the replica `object` lost on the failed
    /// node becomes a rebuild task.
    EnqueueRebuild { object: u32 },
    /// A rebuild stream finished for `object`.
    RebuildDone { object: u32 },
    /// A rebuild found no eligible target node; try again after `delay_s`
    /// (doubled on each attempt, capped at a day, so a dying cluster does
    /// not flood the event queue with retries).
    RetryPlace { object: u32, delay_s: f64 },
    /// A top-of-rack switch dies: the rack becomes unreachable.
    SwitchFail(usize),
    /// A switch is repaired: the rack is reachable again.
    SwitchBack(usize),
    /// One disk dies, destroying the replicas in its slot.
    DiskFail { node: usize, slot: usize },
    /// The replaced disk is back in service (empty).
    DiskBack { node: usize, slot: usize },
    /// Compiled chaos fault `i` fires.
    ChaosStart(usize),
    /// Compiled chaos fault `i` restores/heals.
    ChaosEnd(usize),
}

/// The availability engine's run state, laid out struct-of-arrays for
/// data-center scale (the §4.2 "million disks" regime): per-object state
/// lives in parallel flat arrays, holder sets in one fixed-stride `u32`
/// arena, per-node object lists in a chunked [`NodeLists`] pool, and the
/// immutable configuration is *borrowed* from the model for the run's
/// duration instead of cloned into it. All hot-path temporaries are
/// reusable scratch buffers, so steady-state event handling performs no
/// heap allocation.
struct AvailState<'a> {
    cfg: &'a AvailabilityModel,
    /// Redundancy width — also the holder arena's stride.
    width: usize,
    /// Cached switch-model rack size (0 = no switch-failure model).
    switch_npr: usize,
    node_up: Vec<bool>,
    /// Rack reachability (all true when switch failures are disabled).
    rack_up: Vec<bool>,
    /// Cached per-node reachability: `node_up[n] ∧ rack_up ∧ no chaos
    /// window`. Kept in lockstep with its inputs by the handlers (every
    /// site that flips a `node_up`/`rack_up`/chaos counter refreshes the
    /// affected span), so the hot paths read one bool per node instead
    /// of re-deriving the predicate — and rebuild-target draws select
    /// from its rank index instead of scanning every node.
    reachable: NodeSet,
    node_objects: NodeLists,
    // --- per-object state, struct-of-arrays -----------------------------
    /// Fixed-stride holder arena: object `o`'s live holders are
    /// `holders_pool[o*width .. o*width + holder_len[o]]`. A holder count
    /// can never exceed the width (each rebuild task replaces exactly one
    /// removed replica), so the stride never overflows.
    holders_pool: Vec<u32>,
    holder_len: Vec<u8>,
    operable: Vec<bool>,
    lost: Vec<bool>,
    /// When each currently unavailable object became so: an open
    /// interval per entry, inserted when the object goes down and removed
    /// when it comes back (a lost object's stays until `finish`). Most
    /// objects are available at any instant, so this costs far less than
    /// a time per object. Only ever looked up by key, never iterated, so
    /// no result depends on the map's order.
    became_unavailable: HashMap<u32, SimTime>,
    unavail_s: Vec<f64>,
    // --------------------------------------------------------------------
    queue: RepairQueue,
    rng: Stream,
    /// Compiled chaos schedule (empty without a fault schedule).
    chaos_faults: Vec<CompiledFault>,
    /// Per-node chaos-downtime counters (overlapping windows stack).
    chaos_node_down: Vec<u32>,
    /// Per-rack chaos-downtime counters, under the *chaos* rack geometry
    /// (independent of the switch-failure model's).
    chaos_rack_down: Vec<u32>,
    /// Nodes per chaos rack (0 = no chaos configured).
    chaos_npr: usize,
    /// Active gray-storm rebuild slowdowns: (fault index, aggregate).
    chaos_slowdowns: Vec<(usize, f64)>,
    // --- reusable hot-path scratch (zero per-event allocation) ----------
    /// Objects drained off a failed node/disk this event.
    scratch_hosted: Vec<u32>,
    /// Objects to re-assess after a reachability change (sorted+deduped).
    scratch_touched: Vec<u32>,
    /// Node spans assembled for chaos rack windows.
    scratch_nodes: Vec<usize>,
    /// A rebuild-target draw's excluded blocks: first node, reachable
    /// members.
    scratch_blocks: Vec<(usize, usize)>,
    // counters
    node_failures: u64,
    switch_failures: u64,
    disk_failures: u64,
    unavailability_events: u64,
    rebuilds_completed: u64,
    rebuild_waits: Tally,
    /// Per-rebuild quantile/distinct sketches; `None` on runs without
    /// telemetry, which pay one never-taken branch per rebuild.
    sketches: Option<Box<RebuildSketches>>,
}

impl<'a> AvailState<'a> {
    fn new(cfg: &'a AvailabilityModel, seed: u64, chaos_faults: Vec<CompiledFault>) -> Self {
        let width = cfg.redundancy.width();
        assert!(
            cfg.n_nodes <= MAX_NODES,
            "node ids are u32: n_nodes must be ≤ {MAX_NODES}"
        );
        assert!(
            width <= MAX_WIDTH,
            "holder counts are u8: redundancy width must be ≤ {MAX_WIDTH}"
        );
        assert!(
            cfg.objects <= MAX_OBJECTS,
            "object ids are u32: objects must be ≤ {MAX_OBJECTS}"
        );
        let factory = RngFactory::new(seed);
        let mut placer = Placer::new(
            cfg.placement,
            cfg.n_nodes,
            width,
            factory.stream("placement"),
        );
        let n_objects = cfg.objects as usize;
        let mut node_objects = NodeLists::with_capacity(cfg.n_nodes, n_objects * width);
        let mut holders_pool: Vec<u32> = Vec::with_capacity(n_objects * width);
        let mut holder_len: Vec<u8> = Vec::with_capacity(n_objects);
        let mut placed: Vec<usize> = Vec::with_capacity(width);
        for obj in 0..cfg.objects {
            placer.place_into(obj, &mut placed);
            for &n in &placed {
                holders_pool.push(n as u32);
                node_objects.push(n, obj as u32);
            }
            // Pad to the stride (placers yield exactly `width` nodes; the
            // resize is a no-op then, but keeps short sets representable).
            holders_pool.resize((obj as usize + 1) * width, 0);
            holder_len.push(placed.len() as u8);
        }
        let racks = cfg
            .switches
            .as_ref()
            .map(|sw| cfg.n_nodes / sw.nodes_per_rack)
            .unwrap_or(1);
        let switch_npr = cfg
            .switches
            .as_ref()
            .map(|sw| sw.nodes_per_rack)
            .unwrap_or(0);
        let chaos_npr = cfg
            .chaos
            .as_ref()
            .map(|c| c.nodes_per_rack.max(1))
            .unwrap_or(0);
        let chaos_racks = if chaos_npr > 0 {
            cfg.n_nodes.div_ceil(chaos_npr)
        } else {
            0
        };
        AvailState {
            cfg,
            width,
            switch_npr,
            node_up: vec![true; cfg.n_nodes],
            rack_up: vec![true; racks],
            reachable: NodeSet::full(cfg.n_nodes),
            node_objects,
            holders_pool,
            holder_len,
            operable: vec![true; n_objects],
            lost: vec![false; n_objects],
            became_unavailable: HashMap::new(),
            unavail_s: vec![0.0; n_objects],
            queue: RepairQueue::new(cfg.repair),
            rng: factory.stream("dynamics"),
            chaos_faults,
            chaos_node_down: vec![0; cfg.n_nodes],
            chaos_rack_down: vec![0; chaos_racks],
            chaos_npr,
            chaos_slowdowns: Vec::new(),
            scratch_hosted: Vec::new(),
            scratch_touched: Vec::new(),
            scratch_nodes: Vec::new(),
            scratch_blocks: Vec::new(),
            node_failures: 0,
            switch_failures: 0,
            disk_failures: 0,
            unavailability_events: 0,
            rebuilds_completed: 0,
            rebuild_waits: Tally::new(),
            sketches: None,
        }
    }

    /// Object `o`'s live holders (a view into the fixed-stride arena).
    #[inline]
    fn holders(&self, object: u32) -> &[u32] {
        let base = object as usize * self.width;
        &self.holders_pool[base..base + self.holder_len[object as usize] as usize]
    }

    /// Removes `node` from `object`'s holder set (order-preserving, like
    /// the old `Vec::retain`).
    fn holders_remove(&mut self, object: u32, node: usize) {
        let base = object as usize * self.width;
        let len = self.holder_len[object as usize] as usize;
        let mut k = 0;
        for i in 0..len {
            let h = self.holders_pool[base + i];
            if h as usize != node {
                self.holders_pool[base + k] = h;
                k += 1;
            }
        }
        self.holder_len[object as usize] = k as u8;
    }

    /// Appends `target` to `object`'s holder set.
    fn holders_push(&mut self, object: u32, target: u32) {
        let len = self.holder_len[object as usize] as usize;
        assert!(
            len < self.width,
            "holder set overflow: object {object} already has {len} holders"
        );
        self.holders_pool[object as usize * self.width + len] = target;
        self.holder_len[object as usize] = (len + 1) as u8;
    }

    /// The reachability predicate, computed from first principles: alive,
    /// rack switch up, no chaos window covering the node. The `reachable`
    /// vec caches this; every mutation site refreshes the affected span.
    fn compute_reachable(&self, node: usize) -> bool {
        if !self.node_up[node] {
            return false;
        }
        if self.chaos_node_down[node] > 0 {
            return false;
        }
        if self.chaos_npr > 0 && self.chaos_rack_down[node / self.chaos_npr] > 0 {
            return false;
        }
        self.switch_npr == 0 || self.rack_up[node / self.switch_npr]
    }

    #[inline]
    fn refresh_reachable(&mut self, node: usize) {
        let reachable = self.compute_reachable(node);
        self.reachable.set(node, reachable);
    }

    /// Re-evaluates operability/durability of `object` after a change.
    /// Operability counts *reachable* replicas (a rack behind a dead
    /// switch serves nothing); durability counts *intact* replicas (data
    /// behind a dead switch is not lost). Returns `true` iff the object
    /// became lost in this call (for the caller's `object_lost` mark).
    fn update_object(&mut self, object: u32, now: SimTime) -> bool {
        let i = object as usize;
        if self.lost[i] {
            return false;
        }
        let redundancy = self.cfg.redundancy;
        let width = self.width;
        let mut up = 0usize;
        for &h in self.holders(object) {
            if self.reachable.contains(h as usize) {
                up += 1;
            }
        }
        let up = up.min(width);
        let intact = (self.holder_len[i] as usize).min(width);
        let was_operable = self.operable[i];
        let operable = redundancy.operable(up);
        if was_operable && !operable {
            self.operable[i] = false;
            self.became_unavailable.insert(object, now);
            self.unavailability_events += 1;
        } else if !was_operable && operable {
            self.operable[i] = true;
            let since = self
                .became_unavailable
                .remove(&object)
                .expect("an unavailable object has an open interval");
            self.unavail_s[i] += now.since(since).as_secs();
        }
        // Durability: can the data still be reconstructed? A lost object
        // stays unavailable until the horizon (finish() closes the interval).
        let recoverable = match redundancy {
            RedundancyScheme::Replication(_) => intact >= 1,
            RedundancyScheme::Erasure(s) => intact >= s.k,
        };
        if !recoverable {
            self.lost[i] = true;
            // Cancel queued rebuilds for this object — its sources are gone.
            self.queue.cancel_all(u64::from(object));
        }
        !recoverable
    }

    /// Starts every rebuild the concurrency cap allows.
    fn start_rebuilds(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        while let Some(task) = self.queue.start_next() {
            let wait_s = now.since(task.queued_at).as_secs();
            self.rebuild_waits.record(wait_s);
            let cfg = self.cfg;
            let slowdowns = self.chaos_slowdowns.iter().map(|&(_, f)| f);
            let dur = cfg.rebuild.stream_duration(
                cfg.redundancy,
                cfg.object_bytes,
                slowdowns,
                &mut self.rng,
            );
            // Per-rebuild wait and duration quantiles, plus the distinct
            // objects repair ever touched — recorded inline (see
            // [`RebuildSketches`]) and absent from runs without telemetry.
            if let Some(s) = self.sketches.as_deref_mut() {
                s.record(wait_s, dur.as_secs(), task.object);
            }
            ctx.schedule_in(
                dur,
                Ev::RebuildDone {
                    object: task.object as u32,
                },
            );
        }
    }

    /// Picks a reachable node not already holding `object`. Under
    /// rack-aware placement, rebuilds also prefer racks that hold no
    /// replica yet — otherwise every repair would quietly erode the rack
    /// diversity the policy bought (a hardware/software interaction the
    /// wind tunnel surfaces; see experiment E11).
    fn pick_target(&mut self, object: u32) -> Option<u32> {
        if let Placement::RackAware { nodes_per_rack } = self.cfg.placement {
            if let Some(node) = self.draw_outside_holders(object, nodes_per_rack) {
                return Some(node);
            }
        }
        self.draw_outside_holders(object, 1)
    }

    /// Draws uniformly (one `rng.index` call) from the reachable nodes
    /// outside every holder's aligned block of `block` nodes — the holders
    /// themselves for `block = 1`, their whole racks for the rack size.
    /// Holders count whether reachable or not. With no such node it draws
    /// nothing and returns `None`.
    ///
    /// The distinct excluded blocks are listed once with their reachable
    /// members: a membership bit per node holder (node holders never
    /// repeat), two ranks per rack. The candidates number the reachable
    /// nodes less those, and [`NodeSet::select_outside`] finds the draw,
    /// counting every listed block that starts at or below its probe.
    /// For `block = 1` that is O(width) bit tests, then one `select` per
    /// step: 1.6 to 1.8 steps a draw on the benchmark's availability
    /// workloads.
    fn draw_outside_holders(&mut self, object: u32, block: usize) -> Option<u32> {
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        blocks.clear();
        for &h in self.holders(object) {
            let lo = h as usize / block * block;
            if block == 1 || blocks.iter().all(|&(seen, _)| seen != lo) {
                blocks.push((lo, self.reachable.count_in(lo, lo + block)));
            }
        }
        let count = self.reachable.len() - blocks.iter().map(|&(_, n)| n).sum::<usize>();
        let pick = (count > 0).then(|| {
            let k = self.rng.index(count);
            let excluded_to = |c: usize| {
                blocks
                    .iter()
                    .filter(|&&(lo, _)| lo <= c)
                    .map(|&(_, n)| n)
                    .sum()
            };
            self.reachable.select_outside(k, excluded_to) as u32
        });
        self.scratch_blocks = blocks;
        pick
    }

    fn finish(mut self, end: SimTime, sim_events: u64) -> AvailabilityResult {
        // Close out open unavailability intervals.
        let mut total_unavail = 0.0f64;
        let n_objects = self.operable.len();
        for i in 0..n_objects {
            if !self.operable[i] {
                let since = self.became_unavailable[&(i as u32)];
                self.unavail_s[i] += end.since(since).as_secs();
            }
            total_unavail += self.unavail_s[i];
        }
        let horizon_s = end.since(SimTime::ZERO).as_secs();
        let availability = 1.0 - total_unavail / (n_objects as f64 * horizon_s);
        AvailabilityResult {
            availability,
            nines: AvailabilityResult::nines_of(availability),
            unavailability_events: self.unavailability_events,
            objects_lost: self.lost.iter().filter(|&&l| l).count() as u64,
            node_failures: self.node_failures,
            switch_failures: self.switch_failures,
            disk_failures: self.disk_failures,
            rebuilds_completed: self.rebuilds_completed,
            mean_rebuild_wait_s: self.rebuild_waits.mean(),
            horizon_s,
            sim_events,
        }
    }
}

impl Model for AvailState<'_> {
    type Event = Ev;

    fn label(ev: &Ev) -> &'static str {
        match ev {
            Ev::NodeFail(_) => "NodeFail",
            Ev::NodeBack(_) => "NodeBack",
            Ev::EnqueueRebuild { .. } => "EnqueueRebuild",
            Ev::RebuildDone { .. } => "RebuildDone",
            Ev::RetryPlace { .. } => "RetryPlace",
            Ev::SwitchFail(_) => "SwitchFail",
            Ev::SwitchBack(_) => "SwitchBack",
            Ev::DiskFail { .. } => "DiskFail",
            Ev::DiskBack { .. } => "DiskBack",
            Ev::ChaosStart(_) => "ChaosStart",
            Ev::ChaosEnd(_) => "ChaosEnd",
        }
    }

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        match ev {
            Ev::NodeFail(node) => {
                if !self.node_up[node] {
                    return; // already down (stale event)
                }
                self.node_up[node] = false;
                self.refresh_reachable(node);
                self.node_failures += 1;
                // Destroy this node's replicas (drained in insertion order,
                // the same order the old Vec layout yielded).
                let mut hosted = std::mem::take(&mut self.scratch_hosted);
                hosted.clear();
                self.node_objects.drain_into(node, &mut hosted);
                for &object in &hosted {
                    self.holders_remove(object, node);
                    if self.update_object(object, now) {
                        ctx.mark("object_lost");
                    }
                    if !self.lost[object as usize] {
                        ctx.schedule_in(
                            SimDuration::from_secs(self.cfg.repair.detection_delay_s),
                            Ev::EnqueueRebuild { object },
                        );
                    }
                }
                self.scratch_hosted = hosted;
                // Machine replacement.
                let back = SimDuration::from_secs(self.node_replace_sample());
                ctx.schedule_in(back, Ev::NodeBack(node));
            }
            Ev::NodeBack(node) => {
                self.node_up[node] = true;
                self.refresh_reachable(node);
                // Next failure of the (fresh) machine.
                let ttf = SimDuration::from_secs(self.cfg.node_ttf.sample(&mut self.rng));
                ctx.schedule_in(ttf, Ev::NodeFail(node));
            }
            Ev::EnqueueRebuild { object } => {
                if self.lost[object as usize] {
                    return;
                }
                let task = RepairTask {
                    object: u64::from(object),
                    queued_at: now,
                };
                // Circuit breaker: a growing backlog under an active chaos
                // throttle trips it and restores full repair concurrency.
                if self.queue.enqueue(task) {
                    ctx.mark("chaos_breaker_trip");
                }
                self.start_rebuilds(now, ctx);
            }
            Ev::RebuildDone { object } => {
                self.queue.complete_one();
                if !self.lost[object as usize] {
                    match self.pick_target(object) {
                        Some(target) => {
                            self.holders_push(object, target);
                            self.node_objects.push(target as usize, object);
                            self.rebuilds_completed += 1;
                            self.update_object(object, now);
                        }
                        None => {
                            // No eligible node right now; retry with backoff.
                            ctx.schedule_in(
                                SimDuration::from_secs(60.0),
                                Ev::RetryPlace {
                                    object,
                                    delay_s: 60.0,
                                },
                            );
                        }
                    }
                }
                self.start_rebuilds(now, ctx);
            }
            Ev::RetryPlace { object, delay_s } => {
                if self.lost[object as usize] {
                    return;
                }
                match self.pick_target(object) {
                    Some(target) => {
                        self.holders_push(object, target);
                        self.node_objects.push(target as usize, object);
                        self.rebuilds_completed += 1;
                        self.update_object(object, now);
                    }
                    None => {
                        let next = (delay_s * 2.0).min(86_400.0);
                        ctx.schedule_in(
                            SimDuration::from_secs(next),
                            Ev::RetryPlace {
                                object,
                                delay_s: next,
                            },
                        );
                    }
                }
            }
            Ev::SwitchFail(rack) => {
                if !self.rack_up[rack] {
                    return;
                }
                self.rack_up[rack] = false;
                self.switch_failures += 1;
                let span = rack * self.switch_npr..(rack + 1) * self.switch_npr;
                for n in span.clone() {
                    self.refresh_reachable(n);
                }
                self.reassess_nodes(span, now);
                // Copy the `&'a` config reference out of `self` so its
                // distributions and `self.rng` can be borrowed together.
                let cfg = self.cfg;
                let sw = cfg.switches.as_ref().expect("switch event without model");
                let back = SimDuration::from_secs(sw.repair.sample(&mut self.rng));
                ctx.schedule_in(back, Ev::SwitchBack(rack));
            }
            Ev::SwitchBack(rack) => {
                self.rack_up[rack] = true;
                let span = rack * self.switch_npr..(rack + 1) * self.switch_npr;
                for n in span.clone() {
                    self.refresh_reachable(n);
                }
                self.reassess_nodes(span, now);
                let cfg = self.cfg;
                let sw = cfg.switches.as_ref().expect("switch event without model");
                let ttf = SimDuration::from_secs(sw.ttf.sample(&mut self.rng));
                ctx.schedule_in(ttf, Ev::SwitchFail(rack));
            }
            Ev::DiskFail { node, slot } => {
                self.disk_failures += 1;
                let per_node = self
                    .cfg
                    .disks
                    .as_ref()
                    .expect("disk event without model")
                    .per_node;
                // Destroy only the replicas living in this slot. A dead
                // node's replicas are already gone; skip it.
                if self.node_up[node] {
                    let mut hosted = std::mem::take(&mut self.scratch_hosted);
                    hosted.clear();
                    self.node_objects.drain_into(node, &mut hosted);
                    // Stable in-place partition: survivors go straight back
                    // to the node (insertion order preserved); hits compact
                    // to the buffer's front — same split the old two-Vec
                    // `partition` produced.
                    let mut n_hit = 0;
                    for i in 0..hosted.len() {
                        let obj = hosted[i];
                        if slot_of(obj, node, per_node) == slot {
                            hosted[n_hit] = obj;
                            n_hit += 1;
                        } else {
                            self.node_objects.push(node, obj);
                        }
                    }
                    hosted.truncate(n_hit);
                    for &object in &hosted {
                        self.holders_remove(object, node);
                        if self.update_object(object, now) {
                            ctx.mark("object_lost");
                        }
                        if !self.lost[object as usize] {
                            ctx.schedule_in(
                                SimDuration::from_secs(self.cfg.repair.detection_delay_s),
                                Ev::EnqueueRebuild { object },
                            );
                        }
                    }
                    self.scratch_hosted = hosted;
                }
                let cfg = self.cfg;
                let dm = cfg.disks.as_ref().expect("checked above");
                let back = SimDuration::from_secs(dm.replace.sample(&mut self.rng));
                ctx.schedule_in(back, Ev::DiskBack { node, slot });
            }
            Ev::DiskBack { node, slot } => {
                // The fresh disk carries no data; just arm its next failure.
                let cfg = self.cfg;
                let dm = cfg.disks.as_ref().expect("disk event without model");
                let ttf = SimDuration::from_secs(dm.ttf.sample(&mut self.rng));
                ctx.schedule_in(ttf, Ev::DiskFail { node, slot });
            }
            Ev::ChaosStart(i) => {
                ctx.mark(self.chaos_faults[i].mark);
                let until = self.chaos_faults[i].until_s;
                // Take the schedule out of `self` so the effect can be
                // matched by reference while the handlers mutate state (no
                // per-event clone; nothing below reads `chaos_faults`).
                let faults = std::mem::take(&mut self.chaos_faults);
                match &faults[i].effect {
                    FaultEffect::NodesDown { nodes } => {
                        for &n in nodes {
                            self.chaos_node_down[n] += 1;
                            self.refresh_reachable(n);
                        }
                        self.reassess_nodes(nodes.iter().copied(), now);
                    }
                    FaultEffect::RacksDown { racks } => {
                        let mut span = std::mem::take(&mut self.scratch_nodes);
                        span.clear();
                        for &r in racks {
                            self.chaos_rack_down[r] += 1;
                            let lo = (r * self.chaos_npr).min(self.cfg.n_nodes);
                            let hi = ((r + 1) * self.chaos_npr).min(self.cfg.n_nodes);
                            span.extend(lo..hi);
                        }
                        for &n in &span {
                            self.refresh_reachable(n);
                        }
                        self.reassess_nodes(span.iter().copied(), now);
                        self.scratch_nodes = span;
                    }
                    FaultEffect::Limp { aggregate, .. } => {
                        self.chaos_slowdowns.push((i, *aggregate));
                    }
                    FaultEffect::RepairThrottle {
                        max_parallel,
                        breaker_pending,
                    } => {
                        // One throttle at a time; later windows are no-ops
                        // while an earlier one is active.
                        self.queue.throttle(i, *max_parallel, *breaker_pending);
                    }
                }
                self.chaos_faults = faults;
                ctx.schedule_at(
                    SimTime::ZERO + SimDuration::from_secs(until.max(now.as_secs())),
                    Ev::ChaosEnd(i),
                );
            }
            Ev::ChaosEnd(i) => {
                ctx.mark("chaos_restore");
                let faults = std::mem::take(&mut self.chaos_faults);
                match &faults[i].effect {
                    FaultEffect::NodesDown { nodes } => {
                        for &n in nodes {
                            self.chaos_node_down[n] -= 1;
                            self.refresh_reachable(n);
                        }
                        self.reassess_nodes(nodes.iter().copied(), now);
                    }
                    FaultEffect::RacksDown { racks } => {
                        let mut span = std::mem::take(&mut self.scratch_nodes);
                        span.clear();
                        for &r in racks {
                            self.chaos_rack_down[r] -= 1;
                            let lo = (r * self.chaos_npr).min(self.cfg.n_nodes);
                            let hi = ((r + 1) * self.chaos_npr).min(self.cfg.n_nodes);
                            span.extend(lo..hi);
                        }
                        for &n in &span {
                            self.refresh_reachable(n);
                        }
                        self.reassess_nodes(span.iter().copied(), now);
                        self.scratch_nodes = span;
                    }
                    FaultEffect::Limp { .. } => {
                        self.chaos_slowdowns.retain(|&(idx, _)| idx != i);
                    }
                    FaultEffect::RepairThrottle { .. } => {
                        // Only restore if this window is still the active
                        // throttle (its breaker may have tripped already).
                        if self.queue.unthrottle(i) {
                            self.start_rebuilds(now, ctx);
                        }
                    }
                }
                self.chaos_faults = faults;
            }
        }
    }
}

/// Stable slot assignment: which disk of `node` holds `object`'s replica.
fn slot_of(object: u32, node: usize, per_node: usize) -> usize {
    let mut h = (u64::from(object) << 32) ^ (node as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h % per_node as u64) as usize
}

impl AvailState<'_> {
    fn node_replace_sample(&mut self) -> f64 {
        self.cfg.node_replace.sample(&mut self.rng)
    }

    /// Re-evaluates every object with a replica on one of `nodes` after
    /// their reachability changed (switch outages, chaos windows).
    fn reassess_nodes(&mut self, nodes: impl IntoIterator<Item = usize>, now: SimTime) {
        let mut touched = std::mem::take(&mut self.scratch_touched);
        touched.clear();
        for n in nodes {
            self.node_objects.extend_into(n, &mut touched);
        }
        touched.sort_unstable();
        touched.dedup();
        for &object in &touched {
            self.update_object(object, now);
        }
        self.scratch_touched = touched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.0 * DAY;

    fn base_model() -> AvailabilityModel {
        AvailabilityModel {
            n_nodes: 20,
            redundancy: RedundancyScheme::replication(3),
            placement: Placement::Random,
            objects: 200,
            object_bytes: 1 << 30,
            node_ttf: Dist::exponential_mean(0.5 * YEAR),
            node_replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
            rebuild: RebuildModel::Timed(Dist::exponential_mean(3600.0)),
            repair: RepairPolicy::parallel(16),
            switches: None,
            disks: None,
            chaos: None,
        }
    }

    #[test]
    fn stable_cluster_is_highly_available() {
        let r = base_model().run(1, SimDuration::from_years(2.0));
        assert!(r.availability > 0.999, "availability {}", r.availability);
        assert!(r.node_failures > 10, "failures {}", r.node_failures);
        assert!(r.rebuilds_completed > 0);
        assert_eq!(r.objects_lost, 0, "no data loss expected at these rates");
    }

    #[test]
    fn observed_run_matches_unobserved_and_accounts_for_every_event() {
        let m = base_model();
        let horizon = SimDuration::from_years(1.0);
        let plain = m.run(7, horizon);
        let (observed, t) = m.run_observed(7, horizon, None);
        assert_eq!(observed, plain, "probe must not perturb the simulation");
        assert_eq!(t.events, plain.sim_events);
        assert_eq!(
            t.events_by_label.values().sum::<u64>(),
            t.events,
            "per-label counts partition the event total"
        );
        assert_eq!(
            t.events_by_label.get("NodeFail"),
            Some(&plain.node_failures)
        );
        assert_eq!(t.stop_reason, "HorizonReached");
        assert!(t.horizon_s > 0.0);
        assert!(t.peak_queue_depth > 0);
        assert_eq!(t.wall.wall_us, 0, "engine does not fill wall time");
    }

    #[test]
    fn lost_objects_are_marked_in_telemetry() {
        // Single replica + rare repair: every destroyed replica is a loss.
        let mut m = base_model();
        m.redundancy = RedundancyScheme::replication(1);
        m.node_ttf = Dist::exponential_mean(10.0 * DAY);
        let (r, t) = m.run_observed(11, SimDuration::from_years(1.0), None);
        assert!(r.objects_lost > 0, "expected losses with replication(1)");
        assert_eq!(t.marks.get("object_lost"), Some(&r.objects_lost));
    }

    #[test]
    fn no_failures_means_perfect_availability() {
        let mut m = base_model();
        m.node_ttf = Dist::exponential_mean(1e9 * YEAR);
        let r = m.run(2, SimDuration::from_years(1.0));
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.unavailability_events, 0);
        assert_eq!(r.node_failures, 0);
    }

    #[test]
    fn slow_repair_hurts_availability() {
        let mut fast = base_model();
        fast.rebuild = RebuildModel::Timed(Dist::exponential_mean(600.0));
        let mut slow = base_model();
        slow.rebuild = RebuildModel::Timed(Dist::exponential_mean(7.0 * DAY));
        slow.repair = RepairPolicy {
            max_parallel: 1,
            ..RepairPolicy::serial()
        };
        let rf = fast.run(3, SimDuration::from_years(2.0));
        let rs = slow.run(3, SimDuration::from_years(2.0));
        assert!(
            rf.availability > rs.availability,
            "fast {} vs slow {}",
            rf.availability,
            rs.availability
        );
    }

    #[test]
    fn parallel_repair_beats_serial() {
        // The §1 claim, now in the time-domain simulator.
        let mk = |parallel: usize| {
            let mut m = base_model();
            m.node_ttf = Dist::exponential_mean(30.0 * DAY);
            m.rebuild = RebuildModel::Timed(Dist::exponential_mean(12.0 * 3600.0));
            m.repair = RepairPolicy {
                max_parallel: parallel,
                bandwidth_share: 0.5,
                detection_delay_s: 0.0,
            };
            m
        };
        let serial = mk(1).run(4, SimDuration::from_years(1.0));
        let parallel = mk(64).run(4, SimDuration::from_years(1.0));
        assert!(
            parallel.availability > serial.availability,
            "parallel {} vs serial {}",
            parallel.availability,
            serial.availability
        );
        assert!(parallel.mean_rebuild_wait_s <= serial.mean_rebuild_wait_s);
    }

    #[test]
    fn faster_network_shortens_rebuild_and_raises_availability() {
        // §1: the repair window (during which a second holder failure
        // causes quorum loss) scales inversely with link speed, so the
        // slow network accumulates many more unavailability episodes.
        let mk = |gbps: f64| {
            let mut m = base_model();
            m.node_ttf = Dist::exponential_mean(10.0 * DAY);
            m.node_replace = Dist::deterministic(3600.0);
            m.object_bytes = 256 << 30;
            m.rebuild = RebuildModel::Bandwidth {
                link_gbps: gbps,
                share: 0.5,
            };
            m.repair = RepairPolicy {
                max_parallel: 64,
                bandwidth_share: 0.5,
                detection_delay_s: 0.0,
            };
            m
        };
        let mut ev1 = 0u64;
        let mut ev10 = 0u64;
        for seed in 0..3 {
            ev1 += mk(1.0)
                .run(seed, SimDuration::from_days(100.0))
                .unavailability_events;
            ev10 += mk(10.0)
                .run(seed, SimDuration::from_days(100.0))
                .unavailability_events;
        }
        assert!(
            ev1 > 2 * ev10,
            "1G should see far more unavailability episodes: 1G={ev1} vs 10G={ev10}"
        );
    }

    #[test]
    fn extreme_failure_rate_loses_data() {
        let mut m = base_model();
        m.n_nodes = 10;
        m.objects = 100;
        m.node_ttf = Dist::exponential_mean(1.0 * DAY);
        m.node_replace = Dist::deterministic(5.0 * DAY);
        m.rebuild = RebuildModel::Timed(Dist::deterministic(2.0 * DAY));
        m.repair = RepairPolicy {
            max_parallel: 1,
            bandwidth_share: 0.5,
            detection_delay_s: 3600.0,
        };
        let r = m.run(6, SimDuration::from_days(60.0));
        assert!(r.objects_lost > 0, "expected data loss in a dying cluster");
        assert!(r.availability < 0.999);
    }

    #[test]
    fn erasure_vs_replication_durability() {
        // rs(6,3) tolerates 3 losses vs rep3's 2, with half the overhead.
        let mk = |red: RedundancyScheme| {
            let mut m = base_model();
            m.redundancy = red;
            m.n_nodes = 20;
            m.node_ttf = Dist::exponential_mean(10.0 * DAY);
            m.node_replace = Dist::deterministic(0.5 * DAY);
            // Rebuild capacity must exceed the replica-loss rate or the
            // repair queue diverges: ~30 lost replicas per failure, two
            // failures a day → ~60/day arriving; 16 parallel × 30 min
            // each → ~770/day capacity.
            m.rebuild = RebuildModel::Timed(Dist::deterministic(1800.0));
            m.repair = RepairPolicy {
                max_parallel: 16,
                bandwidth_share: 0.5,
                detection_delay_s: 600.0,
            };
            m
        };
        let rep = mk(RedundancyScheme::replication(3)).run(7, SimDuration::from_days(120.0));
        let rs = mk(RedundancyScheme::erasure(6, 3)).run(7, SimDuration::from_days(120.0));
        // Both should see failures; the comparison itself is the artifact
        // (E8 sweeps this properly) — here we just check both engines work
        // and produce sane numbers.
        assert!(rep.node_failures > 0 && rs.node_failures > 0);
        assert!(rep.availability > 0.5 && rs.availability > 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = base_model().run(9, SimDuration::from_days(100.0));
        let b = base_model().run(9, SimDuration::from_days(100.0));
        assert_eq!(a, b);
    }

    #[test]
    fn matches_markov_model_under_exponential_assumptions() {
        // §4.3 validation: 1 object, 5 replicas on a 10-node cluster,
        // exponential everything, parallel repair, majority quorum (3).
        // The Markov chain: per-replica fail rate λ (only holder failures
        // matter), rebuild rate μ each. n=5 keeps the absorbing data-loss
        // state (0 up) far below the unavailability threshold (≤2 up), so
        // the sim's loss-is-permanent semantics and the chain's recurrent
        // state 0 differ only at probability ~(λ/μ)² of the unavailable
        // mass — inside the tolerance.
        const LAMBDA: f64 = 1.0 / (30.0 * DAY);
        const MU: f64 = 1.0 / DAY;
        let m = AvailabilityModel {
            n_nodes: 10,
            redundancy: RedundancyScheme::replication(5),
            placement: Placement::Random,
            objects: 1,
            object_bytes: 1,
            node_ttf: Dist::exponential(LAMBDA),
            node_replace: Dist::deterministic(1.0), // near-instant replacement
            rebuild: RebuildModel::Timed(Dist::exponential(MU)),
            repair: RepairPolicy {
                max_parallel: 1024,
                bandwidth_share: 1.0,
                detection_delay_s: 0.0,
            },
            switches: None,
            disks: None,
            chaos: None,
        };
        // Average multiple long replications for a tight estimate.
        let mut avail = 0.0;
        let reps = 8;
        for seed in 0..reps {
            let r = m.run(seed, SimDuration::from_years(40.0));
            assert_eq!(r.objects_lost, 0, "seed {seed} lost data (p should be ~0)");
            avail += r.availability;
        }
        avail /= reps as f64;
        let markov = wt_analytic::RepairableReplicas::new(5, LAMBDA, MU, true);
        let want = markov.availability(3);
        let unavail_sim = 1.0 - avail;
        let unavail_markov = 1.0 - want;
        assert!(
            (unavail_sim - unavail_markov).abs() < 0.5 * unavail_markov,
            "simulated unavailability {unavail_sim:.2e} vs Markov {unavail_markov:.2e}"
        );
    }

    #[test]
    fn switch_outages_cause_correlated_unavailability() {
        // 3 racks x 10 nodes. Switches fail often; nodes are reliable, so
        // every unavailability episode is rack-correlated.
        let mk = |placement: Placement| AvailabilityModel {
            n_nodes: 30,
            redundancy: RedundancyScheme::replication(3),
            placement,
            objects: 500,
            object_bytes: 1 << 30,
            node_ttf: Dist::exponential_mean(10_000.0 * YEAR),
            node_replace: Dist::deterministic(3600.0),
            rebuild: RebuildModel::Timed(Dist::deterministic(600.0)),
            repair: RepairPolicy {
                max_parallel: 16,
                bandwidth_share: 0.5,
                detection_delay_s: 60.0,
            },
            switches: Some(SwitchFailureModel {
                nodes_per_rack: 10,
                ttf: Dist::exponential_mean(20.0 * DAY),
                repair: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
            }),
            disks: None,
            chaos: None,
        };
        let random = mk(Placement::Random).run(3, SimDuration::from_years(2.0));
        assert!(
            random.switch_failures > 50,
            "switches should fail: {random:?}"
        );
        assert_eq!(random.node_failures, 0);
        // Random placement sometimes puts 2+ of 3 replicas in one rack ->
        // a single switch outage kills those quorums.
        assert!(
            random.unavailability_events > 0,
            "correlated outages should cause unavailability: {random:?}"
        );
        // Nothing is lost - the data behind the dead switch is intact.
        assert_eq!(random.objects_lost, 0);

        // Rack-aware placement puts <=1 replica per rack: one switch outage
        // can never remove a majority of 3.
        let rack_aware =
            mk(Placement::RackAware { nodes_per_rack: 10 }).run(3, SimDuration::from_years(2.0));
        assert!(
            rack_aware.unavailability_events * 10 < random.unavailability_events.max(10),
            "rack-aware {} vs random {}",
            rack_aware.unavailability_events,
            random.unavailability_events
        );
        assert!(rack_aware.availability >= random.availability);
    }

    #[test]
    fn disk_failures_destroy_only_their_slot() {
        // Reliable nodes, failing disks: rebuilds happen without any node
        // failure, and only a fraction of each node's objects per event.
        let m = AvailabilityModel {
            n_nodes: 12,
            redundancy: RedundancyScheme::replication(3),
            placement: Placement::Random,
            objects: 600,
            object_bytes: 1 << 30,
            node_ttf: Dist::exponential_mean(1e6 * YEAR),
            node_replace: Dist::deterministic(1.0),
            rebuild: RebuildModel::Timed(Dist::deterministic(600.0)),
            repair: RepairPolicy {
                max_parallel: 64,
                bandwidth_share: 0.5,
                detection_delay_s: 60.0,
            },
            switches: None,
            disks: Some(DiskFailureModel {
                per_node: 8,
                ttf: Dist::weibull_mean(0.8, 60.0 * DAY),
                replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
            }),
            chaos: None,
        };
        let r = m.run(21, SimDuration::from_years(1.0));
        assert_eq!(r.node_failures, 0);
        assert!(r.disk_failures > 100, "disk failures {}", r.disk_failures);
        assert!(r.rebuilds_completed > 0);
        assert_eq!(r.objects_lost, 0, "triple-slot coincidences should be rare");
        assert!(r.availability > 0.9999, "availability {}", r.availability);
        // A disk failure destroys ~1/8 of a node's replicas, so rebuilds
        // per failure are far below objects×width/nodes.
        let per_failure = r.rebuilds_completed as f64 / r.disk_failures as f64;
        let whole_node = 600.0 * 3.0 / 12.0;
        assert!(
            per_failure < whole_node / 4.0,
            "per-failure rebuilds {per_failure} vs whole-node {whole_node}"
        );
    }

    #[test]
    fn initial_timers_past_the_horizon_are_counted_but_not_stored() {
        let mut m = base_model();
        m.switches = Some(SwitchFailureModel {
            nodes_per_rack: 5,
            ttf: Dist::exponential_mean(2.0 * YEAR),
            repair: Dist::deterministic(3600.0),
        });
        m.disks = Some(DiskFailureModel {
            per_node: 24,
            ttf: Dist::weibull(0.8, 3.0 * YEAR),
            replace: Dist::deterministic(3600.0),
        });
        let end = SimTime::ZERO + SimDuration::from_years(0.1);
        let sim = m.seeded_sim(5, end);
        // The oracle: redraw every initial timer with the plain sampler
        // and count those a 0.1-year run can fire.
        let factory = RngFactory::new(5);
        let in_horizon = |stream: &str, ttf: &Dist, n: usize| {
            let mut rng = factory.stream(stream);
            (0..n)
                .filter(|_| ttf.sample(&mut rng) <= end.as_secs())
                .count()
        };
        let disks = m.disks.as_ref().expect("disks configured");
        let stored = in_horizon("initial-failures", &m.node_ttf, 20)
            + in_horizon(
                "initial-switch-failures",
                &m.switches.as_ref().unwrap().ttf,
                4,
            )
            + in_horizon("initial-disk-failures", &disks.ttf, 20 * 24);
        assert_eq!(sim.pending_events(), 20 + 4 + 20 * 24);
        assert_eq!(sim.pending_events() - sim.parked_events(), stored);
        assert!(
            stored > 0 && sim.parked_events() > stored,
            "{stored} stored"
        );
    }

    #[test]
    fn disk_and_node_failures_compose() {
        let m = AvailabilityModel {
            n_nodes: 12,
            redundancy: RedundancyScheme::replication(3),
            placement: Placement::Random,
            objects: 200,
            object_bytes: 1 << 30,
            node_ttf: Dist::exponential_mean(60.0 * DAY),
            node_replace: Dist::deterministic(4.0 * 3600.0),
            rebuild: RebuildModel::Timed(Dist::deterministic(600.0)),
            repair: RepairPolicy {
                max_parallel: 64,
                bandwidth_share: 0.5,
                detection_delay_s: 60.0,
            },
            switches: None,
            disks: Some(DiskFailureModel {
                per_node: 8,
                ttf: Dist::weibull_mean(0.8, 90.0 * DAY),
                replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
            }),
            chaos: None,
        };
        let r = m.run(22, SimDuration::from_years(1.0));
        assert!(r.node_failures > 0 && r.disk_failures > 0);
        // Determinism still holds with all failure sources active.
        assert_eq!(r, m.run(22, SimDuration::from_years(1.0)));
    }

    #[test]
    fn switch_repair_restores_reachability() {
        // One rack, permanently reliable nodes, one switch that fails once
        // and repairs: availability = 1 - outage fraction.
        let m = AvailabilityModel {
            n_nodes: 10,
            redundancy: RedundancyScheme::replication(3),
            placement: Placement::Random,
            objects: 50,
            object_bytes: 1,
            node_ttf: Dist::exponential_mean(1e9 * YEAR),
            node_replace: Dist::deterministic(1.0),
            rebuild: RebuildModel::Timed(Dist::deterministic(1.0)),
            repair: RepairPolicy::parallel(8),
            switches: Some(SwitchFailureModel {
                nodes_per_rack: 10,
                ttf: Dist::deterministic(10.0 * DAY),
                repair: Dist::deterministic(1.0 * DAY),
            }),
            disks: None,
            chaos: None,
        };
        let r = m.run(4, SimDuration::from_days(11.0));
        // Down from day 10 to day 11 (the horizon): 1 of 11 days.
        assert!((r.availability - 10.0 / 11.0).abs() < 0.01, "{r:?}");
        assert_eq!(r.objects_lost, 0);
        assert_eq!(r.switch_failures, 1);
        // All 50 objects went unavailable exactly once.
        assert_eq!(r.unavailability_events, 50);
    }

    #[test]
    fn weibull_failures_diverge_from_exponential_markov() {
        // §2.2's argument: with Weibull(0.7) failures at the same mean, the
        // exponential Markov model's availability prediction is biased.
        // We check the two engines simply give different answers (the
        // detailed comparison is experiment E5).
        const MEAN_TTF: f64 = 10.0 * DAY;
        const MU: f64 = 1.0 / DAY;
        let mk = |ttf: Dist| AvailabilityModel {
            n_nodes: 10,
            redundancy: RedundancyScheme::replication(5),
            placement: Placement::Random,
            objects: 1,
            object_bytes: 1,
            node_ttf: ttf,
            node_replace: Dist::deterministic(1.0),
            rebuild: RebuildModel::Timed(Dist::exponential(MU)),
            repair: RepairPolicy {
                max_parallel: 1024,
                bandwidth_share: 1.0,
                detection_delay_s: 0.0,
            },
            switches: None,
            disks: None,
            chaos: None,
        };
        let mut exp_avail = 0.0;
        let mut weib_avail = 0.0;
        let reps = 6;
        for seed in 0..reps {
            exp_avail += mk(Dist::exponential_mean(MEAN_TTF))
                .run(seed, SimDuration::from_years(30.0))
                .availability;
            weib_avail += mk(Dist::weibull_mean(0.7, MEAN_TTF))
                .run(seed + 100, SimDuration::from_years(30.0))
                .availability;
        }
        exp_avail /= reps as f64;
        weib_avail /= reps as f64;
        // Same mean TTF, different law → measurably different availability.
        assert!(
            (exp_avail - weib_avail).abs() > 1e-5,
            "exp {exp_avail} vs weibull {weib_avail} indistinguishable"
        );
    }

    fn chaos(schedule: crate::chaos::FaultSchedule) -> Option<ChaosConfig> {
        Some(ChaosConfig {
            schedule,
            nodes_per_rack: 10,
        })
    }

    #[test]
    fn empty_fault_schedule_is_inert() {
        let mut with_empty = base_model();
        with_empty.chaos = chaos(crate::chaos::FaultSchedule::new());
        let plain = base_model().run(21, SimDuration::from_years(1.0));
        let r = with_empty.run(21, SimDuration::from_years(1.0));
        assert_eq!(r, plain, "empty schedule must be bit-identical to none");
    }

    #[test]
    fn power_loss_window_is_exact_downtime() {
        use crate::chaos::{FaultKind, FaultSchedule};
        let mut m = base_model();
        // No organic failures: the only downtime is the chaos window.
        m.node_ttf = Dist::exponential_mean(1e9 * YEAR);
        m.chaos = chaos(FaultSchedule::new().rule(
            "pdu",
            200_000.0,
            FaultKind::PowerDomainLoss {
                first_rack: 0,
                racks: 2,
                restore_s: 100_000.0,
            },
        ));
        let (r, t) = m.run_observed(5, SimDuration::from_secs(1_000_000.0), None);
        // Whole cluster dark for 10% of the horizon, data intact:
        // availability is exactly the complement — no losses, no repair
        // traffic, one unavailability episode per object.
        assert!(
            (r.availability - 0.9).abs() < 1e-9,
            "availability {}",
            r.availability
        );
        assert_eq!(r.objects_lost, 0);
        assert_eq!(r.rebuilds_completed, 0);
        assert_eq!(r.unavailability_events, 200);
        assert_eq!(t.marks.get("inject_power_loss"), Some(&1));
        assert_eq!(t.marks.get("chaos_restore"), Some(&1));
    }

    #[test]
    fn gray_storm_slows_rebuilds_and_hurts_availability() {
        use crate::chaos::{FaultKind, FaultSchedule};
        let mk = |stormy: bool| {
            let mut m = base_model();
            m.node_ttf = Dist::exponential_mean(20.0 * DAY);
            if stormy {
                // Every disk in the cluster limps 200× for the whole year:
                // rebuild streams crawl, widening every repair window.
                m.chaos = chaos(FaultSchedule::new().rule(
                    "storm",
                    0.0,
                    FaultKind::GrayStorm {
                        spec: wt_hw::LimpwareSpec::degraded_disk_fixed(1.0, 200.0),
                        center_rack: 0,
                        radius_racks: 1,
                        duration_s: YEAR,
                    },
                ));
            }
            m
        };
        let calm = mk(false).run(6, SimDuration::from_years(1.0));
        let stormy = mk(true).run(6, SimDuration::from_years(1.0));
        assert!(
            stormy.availability < calm.availability,
            "storm {} should undercut calm {}",
            stormy.availability,
            calm.availability
        );
    }

    #[test]
    fn repair_throttle_breaker_trips_on_backlog() {
        use crate::chaos::{FaultKind, FaultSchedule};
        let mut m = base_model();
        m.node_ttf = Dist::exponential_mean(5.0 * DAY);
        // Repair frozen for the whole horizon — but the breaker lifts the
        // freeze as soon as more than 3 rebuilds are pending.
        m.chaos = chaos(FaultSchedule::new().rule(
            "freeze",
            0.0,
            FaultKind::RepairThrottle {
                max_parallel: 0,
                duration_s: YEAR,
                breaker_pending: 3,
            },
        ));
        let (r, t) = m.run_observed(8, SimDuration::from_years(1.0), None);
        assert_eq!(t.marks.get("inject_repair_throttle"), Some(&1));
        assert_eq!(t.marks.get("chaos_breaker_trip"), Some(&1));
        assert!(
            r.rebuilds_completed > 0,
            "repair must resume after the trip"
        );
    }

    #[test]
    fn chaos_is_deterministic() {
        use crate::chaos::{FaultKind, FaultSchedule};
        let mut m = base_model();
        m.node_ttf = Dist::exponential_mean(20.0 * DAY);
        m.chaos = chaos(
            FaultSchedule::new()
                .rule(
                    "storm",
                    30.0 * DAY,
                    FaultKind::GrayStorm {
                        spec: wt_hw::LimpwareSpec::degraded_disk_fixed(0.5, 50.0),
                        center_rack: 0,
                        radius_racks: 0,
                        duration_s: 10.0 * DAY,
                    },
                )
                .rule(
                    "tor",
                    90.0 * DAY,
                    FaultKind::TorDeath {
                        rack: 1,
                        repair_s: DAY,
                    },
                ),
        );
        let a = m.run(9, SimDuration::from_years(1.0));
        let b = m.run(9, SimDuration::from_years(1.0));
        assert_eq!(a, b, "same seed must replay identically under chaos");
    }

    /// The linear scan `pick_target` used before the rank index, kept as
    /// its oracle: every reachable non-holder in ascending order (the
    /// reachability predicate recomputed from first principles), then,
    /// under RackAware, the subset in racks holding no replica.
    pub(super) fn pick_target_scan(st: &mut AvailState<'_>, object: u32) -> Option<u32> {
        let holders = st.holders(object).to_vec();
        let candidates: Vec<u32> = (0..st.cfg.n_nodes)
            .filter(|&n| st.compute_reachable(n) && !holders.contains(&(n as u32)))
            .map(|n| n as u32)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        if let Placement::RackAware { nodes_per_rack } = st.cfg.placement {
            let diverse: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|&n| {
                    !holders
                        .iter()
                        .any(|&h| h as usize / nodes_per_rack == n as usize / nodes_per_rack)
                })
                .collect();
            if !diverse.is_empty() {
                return Some(diverse[st.rng.index(diverse.len())]);
            }
        }
        Some(candidates[st.rng.index(candidates.len())])
    }

    /// `racks × nodes_per_rack` nodes with a switch model (so whole racks
    /// can go unreachable), one object of `width` replicas.
    pub(super) fn pick_model(
        racks: usize,
        nodes_per_rack: usize,
        width: usize,
        rack_aware: bool,
    ) -> AvailabilityModel {
        let mut m = base_model();
        m.n_nodes = racks * nodes_per_rack;
        m.redundancy = RedundancyScheme::replication(width);
        m.objects = 1;
        m.placement = if rack_aware {
            Placement::RackAware { nodes_per_rack }
        } else {
            Placement::Random
        };
        m.switches = Some(SwitchFailureModel {
            nodes_per_rack,
            ttf: Dist::exponential_mean(YEAR),
            repair: Dist::deterministic(DAY),
        });
        m
    }

    /// Overwrites object 0's holder set.
    pub(super) fn set_holders(st: &mut AvailState<'_>, holders: &[u32]) {
        st.holders_pool[..holders.len()].copy_from_slice(holders);
        st.holder_len[0] = holders.len() as u8;
    }

    /// Runs `pick_target` and the scan oracle on object 0 from the same
    /// RNG state; returns each pick with the RNG's next draw after it.
    pub(super) fn pick_both(st: &mut AvailState<'_>) -> [(Option<u32>, u64); 2] {
        let start = st.rng.clone();
        let fast = st.pick_target(0);
        let fast_next = st.rng.next();
        st.rng = start;
        let slow = pick_target_scan(st, 0);
        let slow_next = st.rng.next();
        [(fast, fast_next), (slow, slow_next)]
    }

    #[test]
    fn rack_aware_pick_falls_back_when_every_rack_holds_a_replica() {
        // Rack 2 is dark, so the only replica-free rack has no candidate.
        let m = pick_model(3, 3, 2, true);
        let mut st = AvailState::new(&m, 2, Vec::new());
        set_holders(&mut st, &[0, 4]);
        st.rack_up[2] = false;
        for n in 6..9 {
            st.refresh_reachable(n);
        }
        let [fast, slow] = pick_both(&mut st);
        assert_eq!(fast, slow);
        assert!(matches!(fast.0, Some(1 | 2 | 3 | 5)), "pick {:?}", fast.0);
    }

    #[test]
    fn pick_without_candidates_returns_none_and_draws_nothing() {
        // Every reachable node already holds the object; the unreachable
        // holder 2 is no candidate either.
        for rack_aware in [false, true] {
            let m = pick_model(2, 2, 3, rack_aware);
            let mut st = AvailState::new(&m, 3, Vec::new());
            set_holders(&mut st, &[0, 1, 2]);
            for n in [2, 3] {
                st.node_up[n] = false;
                st.refresh_reachable(n);
            }
            let untouched = st.rng.clone().next();
            let [fast, slow] = pick_both(&mut st);
            assert_eq!(fast, (None, untouched));
            assert_eq!(slow, (None, untouched));
        }
    }

    #[test]
    fn picks_past_the_old_u16_cap_match_the_scan() {
        // 2 racks × 40,000 nodes: node ids run past 65,535, and the
        // holders and (once the low ids are down) every candidate live
        // there.
        for rack_aware in [false, true] {
            let m = pick_model(2, 40_000, 3, rack_aware);
            let mut st = AvailState::new(&m, 4, Vec::new());
            set_holders(&mut st, &[65_536, 70_001, 79_999]);
            let [fast, slow] = pick_both(&mut st);
            assert_eq!(fast, slow);
            let pick = fast.0.expect("a candidate exists");
            assert!(![65_536, 70_001, 79_999].contains(&pick), "pick {pick}");
            if rack_aware {
                assert!(pick < 40_000, "the holders' rack is excluded: {pick}");
            }
            for n in 0..65_536 {
                st.node_up[n] = false;
                st.refresh_reachable(n);
            }
            for _ in 0..8 {
                let [fast, slow] = pick_both(&mut st);
                assert_eq!(fast, slow);
                let pick = fast.0.expect("a candidate exists");
                assert!((65_536..80_000).contains(&pick), "pick {pick}");
                assert!(![65_536, 70_001, 79_999].contains(&pick), "pick {pick}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const DAY: f64 = 86_400.0;

    #[allow(clippy::too_many_arguments)]
    fn arb_model(
        n_nodes: usize,
        n_rep: usize,
        objects: u64,
        ttf_days: f64,
        rebuild_hours: f64,
        parallel: usize,
        detection: f64,
    ) -> AvailabilityModel {
        AvailabilityModel {
            n_nodes,
            redundancy: RedundancyScheme::replication(n_rep),
            placement: Placement::Random,
            objects,
            object_bytes: 1 << 30,
            node_ttf: Dist::exponential_mean(ttf_days * DAY),
            node_replace: Dist::deterministic(3600.0),
            rebuild: RebuildModel::Timed(Dist::exponential_mean(rebuild_hours * 3600.0)),
            repair: RepairPolicy {
                max_parallel: parallel,
                bandwidth_share: 0.5,
                detection_delay_s: detection,
            },
            switches: None,
            disks: None,
            chaos: None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever the (sane) configuration, the engine's bookkeeping
        /// invariants hold: availability in [0,1], loss bounded by the
        /// object count, every completed rebuild implies a prior failure,
        /// and identical seeds replay identically.
        #[test]
        fn engine_invariants(
            n_nodes in 4usize..20,
            rep in 1usize..4,
            objects in 1u64..100,
            ttf_days in 2.0f64..60.0,
            rebuild_hours in 0.1f64..24.0,
            parallel in 1usize..32,
            detection in 0.0f64..7200.0,
            seed in 0u64..1000,
        ) {
            prop_assume!(rep <= n_nodes);
            let m = arb_model(n_nodes, rep, objects, ttf_days, rebuild_hours, parallel, detection);
            let r = m.run(seed, SimDuration::from_days(60.0));
            prop_assert!((0.0..=1.0).contains(&r.availability), "availability {}", r.availability);
            prop_assert!(r.objects_lost <= objects);
            if r.node_failures == 0 {
                prop_assert_eq!(r.rebuilds_completed, 0);
                prop_assert_eq!(r.unavailability_events, 0);
                prop_assert_eq!(r.availability, 1.0);
            }
            // Rebuilds can never exceed the replicas destroyed.
            prop_assert!(
                r.rebuilds_completed <= r.node_failures * objects * rep as u64,
                "rebuilds {} vs bound", r.rebuilds_completed
            );
            prop_assert!(r.mean_rebuild_wait_s >= 0.0);
            // Determinism.
            let r2 = m.run(seed, SimDuration::from_days(60.0));
            prop_assert_eq!(r, r2);
        }

        /// The SoA construction (fixed-stride holder arena + chunked
        /// `NodeLists`) lays out exactly what the old `Vec<Vec<_>>`
        /// representation held, for arbitrary placements and geometries:
        /// same holders per object (in order), same objects per node (in
        /// order).
        #[test]
        fn soa_construction_matches_vec_of_vecs(
            racks in 3usize..8,
            npr in 1usize..6,
            rep in 1usize..4,
            objects in 1u64..200,
            seed in any::<u64>(),
            placement_sel in 0usize..3,
        ) {
            let n_nodes = racks * npr;
            prop_assume!(rep <= n_nodes);
            let placement = match placement_sel {
                0 => Placement::Random,
                1 => Placement::RoundRobin,
                _ => Placement::RackAware { nodes_per_rack: npr },
            };
            let m = AvailabilityModel {
                n_nodes,
                redundancy: RedundancyScheme::replication(rep),
                placement,
                objects,
                object_bytes: 1 << 30,
                node_ttf: Dist::exponential_mean(30.0 * DAY),
                node_replace: Dist::deterministic(3600.0),
                rebuild: RebuildModel::Timed(Dist::deterministic(600.0)),
                repair: RepairPolicy::parallel(8),
                switches: None,
                disks: None,
                    chaos: None,
            };
            let st = AvailState::new(&m, seed, Vec::new());
            // Naive reference layout from an identically-seeded placer.
            let mut placer = Placer::new(
                placement,
                n_nodes,
                rep,
                RngFactory::new(seed).stream("placement"),
            );
            let mut naive: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
            for obj in 0..objects {
                let placed = placer.place(obj);
                let want: Vec<u32> = placed.iter().map(|&n| n as u32).collect();
                prop_assert_eq!(st.holders(obj as u32), want.as_slice());
                for &n in &placed {
                    naive[n].push(obj as u32);
                }
            }
            for (n, want) in naive.iter().enumerate() {
                let mut got = Vec::new();
                st.node_objects.extend_into(n, &mut got);
                prop_assert_eq!(&got, want);
            }
        }
    }

    /// One step of the pick-target equivalence check.
    #[derive(Debug, Clone)]
    enum PickOp {
        /// Toggle a node's liveness (index taken modulo the node count).
        FlipNode(u16),
        /// Toggle a rack's switch (index taken modulo the rack count).
        FlipRack(u16),
        /// Set object 0's holders (taken modulo the node count, repeats
        /// dropped, truncated to the width, left in the order drawn;
        /// unreachable nodes included) and pick a rebuild target.
        Pick(Vec<u16>),
        /// Set object 0's holders to the model's placement of this object
        /// id, in placement order, and pick a rebuild target.
        Place(u64),
    }

    /// Raw holders: scattered, or within 48 nodes of each other, so that
    /// they share racks and straddle 64-node words.
    fn arb_holders() -> impl Strategy<Value = Vec<u16>> {
        prop_oneof![
            proptest::collection::vec(any::<u16>(), 0..10),
            (any::<u16>(), proptest::collection::vec(0u16..48, 0..10))
                .prop_map(|(base, offs)| offs.into_iter().map(|o| base.wrapping_add(o)).collect()),
        ]
    }

    fn arb_pick_op() -> impl Strategy<Value = PickOp> {
        prop_oneof![
            any::<u16>().prop_map(PickOp::FlipNode),
            any::<u16>().prop_map(PickOp::FlipNode),
            any::<u16>().prop_map(PickOp::FlipRack),
            arb_holders().prop_map(PickOp::Pick),
            arb_holders().prop_map(PickOp::Pick),
            any::<u64>().prop_map(PickOp::Place),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rank-index `pick_target` draws exactly what the old linear
        /// scan drew — same node, same RNG state afterwards — over random
        /// geometries (1 to 1,024 nodes, so more than one 64-bit word and
        /// several Fenwick levels; racks of 1 to 32 nodes), widths 1 to 8,
        /// reachability flipped through `refresh_reachable`, holder sets
        /// in the order drawn or placed, not sorted, with unreachable
        /// holders, both placements, the RackAware fallback and the
        /// no-candidate case.
        #[test]
        fn pick_target_matches_linear_scan(
            racks in 1usize..33,
            nodes_per_rack in 1usize..33,
            width in 1usize..9,
            rack_aware in any::<bool>(),
            seed in any::<u64>(),
            ops in proptest::collection::vec(arb_pick_op(), 1..60),
        ) {
            let n = racks * nodes_per_rack;
            let width = width.min(n);
            let m = super::tests::pick_model(racks, nodes_per_rack, width, rack_aware);
            let mut st = AvailState::new(&m, seed, Vec::new());
            let mut placer = Placer::new(m.placement, n, width, RngFactory::new(seed).stream("pick"));
            let mut placed = Vec::new();
            for op in ops {
                let holders: Option<Vec<u32>> = match op {
                    PickOp::FlipNode(i) => {
                        let node = i as usize % n;
                        st.node_up[node] = !st.node_up[node];
                        st.refresh_reachable(node);
                        None
                    }
                    PickOp::FlipRack(i) => {
                        let rack = i as usize % racks;
                        st.rack_up[rack] = !st.rack_up[rack];
                        for node in rack * nodes_per_rack..(rack + 1) * nodes_per_rack {
                            st.refresh_reachable(node);
                        }
                        None
                    }
                    PickOp::Pick(raw) => {
                        let mut holders: Vec<u32> = Vec::new();
                        for h in raw.iter().map(|&h| (h as usize % n) as u32) {
                            if !holders.contains(&h) && holders.len() < width {
                                holders.push(h);
                            }
                        }
                        Some(holders)
                    }
                    PickOp::Place(object) => {
                        placer.place_into(object, &mut placed);
                        Some(placed.iter().map(|&h| h as u32).collect())
                    }
                };
                if let Some(holders) = holders {
                    super::tests::set_holders(&mut st, &holders);
                    let [fast, slow] = super::tests::pick_both(&mut st);
                    prop_assert_eq!(fast, slow, "holders {:?}", holders);
                }
                let reachable = (0..n).filter(|&node| st.compute_reachable(node)).count();
                prop_assert_eq!(st.reachable.len(), reachable);
            }
        }
    }
}
