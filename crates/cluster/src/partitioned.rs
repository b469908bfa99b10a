//! A topology-sharded availability engine for partitioned parallel
//! execution.
//!
//! One simulation run, many partitions: the cluster is sharded into
//! balanced contiguous rack spans, each shard owns its racks' state and
//! random streams outright, and the only traffic between shards is what
//! would cross the aggregation layer in the real datacenter:
//! replica-loss notifications and re-replication placements. Those all
//! ride network and detection latencies, which is exactly the
//! conservative lookahead [`wt_des::PartitionedSimulation`] synchronizes
//! on.
//!
//! **Partition-count invariance.** The engine is written so the number
//! of partitions is semantically invisible: every piece of mutable state
//! and every RNG stream is keyed by *rack* (derived by content hash from
//! the run seed, never from the partition index), all cross-rack
//! messages go through [`wt_des::Ctx::send`] even when sender and
//! receiver land in the same partition, and every message carries the
//! sender's rack id as its delivery tag. `--partitions 1` is therefore
//! the bitwise-determinism oracle for any partition/thread count —
//! results and merged telemetry agree byte-for-byte.
//!
//! **The shard model.** Objects are homed round-robin across racks
//! (`home = object % racks`); an object keeps `w - 1` replicas on
//! distinct nodes of its home rack plus one *mirror* replica in the buddy
//! rack `(home + 1) % racks`. All placement and repair of home replicas
//! is rack-local (same dynamics as [`crate::availability`]); losing the
//! mirror triggers the cross-partition protocol: `MirrorLost` → home
//! decides → buddy places a fresh mirror (`MirrorPlaceReq`/
//! `MirrorPlaced`), with retry backoff when the buddy has no live node.
//! Rack-wide chaos windows additionally publish `BuddyDark`/`BuddyLit` so
//! homes count an unreachable buddy against operability. Mirror
//! reachability is tracked at rack granularity (a full-rack outage
//! darkens hosted mirrors; a single node's chaos window does not) — the
//! fidelity note for this engine.

use crate::arena::NodeLists;
use crate::availability::RebuildModel;
use crate::chaos::{ChaosConfig, FaultEffect};
use crate::results::AvailabilityResult;
use std::ops::Range;
use std::sync::Arc;
use wt_des::obs::{NoProbe, RunTelemetry};
use wt_des::prelude::*;
use wt_des::rng::RngFactory;
use wt_dist::Dist;
use wt_sw::repair::{RepairQueue, RepairTask};
use wt_sw::{RedundancyScheme, RepairPolicy};

/// Balanced contiguous rack spans: partition `i` owns racks
/// `[i*racks/n, (i+1)*racks/n)`, with `n` clamped to `1..=racks` so no
/// span is empty and span sizes differ by at most one rack.
fn balanced_ranges(racks: usize, partitions: usize) -> Vec<Range<usize>> {
    let n = partitions.clamp(1, racks.max(1));
    (0..n)
        .map(|i| (i * racks / n)..((i + 1) * racks / n))
        .collect()
}

/// The owner table of `ranges`: rack `r` belongs to partition
/// `table[r]`.
fn part_of_rack_table(ranges: &[Range<usize>], racks: usize) -> Vec<u32> {
    let mut table = vec![0u32; racks];
    for (p, range) in ranges.iter().enumerate() {
        for r in range.clone() {
            table[r] = p as u32;
        }
    }
    table
}

/// Time-domain availability with rack-sharded state: the partitioned
/// counterpart of [`crate::AvailabilityModel`]. See the module docs for
/// the replica/mirror layout and the cross-partition protocol.
#[derive(Debug, Clone)]
pub struct PartitionedAvailability {
    /// Number of racks (the sharding unit).
    pub racks: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Total replicas per object: `w - 1` in the home rack plus one
    /// mirror in the buddy rack (all `w` local when `racks == 1`).
    pub replication: usize,
    /// Object count, homed round-robin across racks.
    pub objects: u64,
    /// Object size, bytes (drives bandwidth-model rebuild times).
    pub object_bytes: u64,
    /// Node time-to-failure distribution, seconds.
    pub node_ttf: Dist,
    /// Node replacement distribution, seconds.
    pub node_replace: Dist,
    /// Rebuild duration model for home-rack re-replication.
    pub rebuild: RebuildModel,
    /// Repair concurrency/detection policy (per rack).
    pub repair: RepairPolicy,
    /// One-way inter-rack network latency, seconds. Every cross-rack
    /// message costs at least this; it is the network half of the
    /// lookahead.
    pub wire_latency_s: f64,
    /// Optional chaos schedule, routed to owning racks at setup.
    pub chaos: Option<ChaosConfig>,
}

impl PartitionedAvailability {
    /// A small default: mostly useful as a test/bench starting point.
    pub fn example(racks: usize, nodes_per_rack: usize, objects: u64) -> Self {
        PartitionedAvailability {
            racks,
            nodes_per_rack,
            replication: 3,
            objects,
            object_bytes: 64 << 20,
            node_ttf: Dist::exponential_mean(30.0 * 86_400.0),
            node_replace: Dist::exponential_mean(6.0 * 3_600.0),
            rebuild: RebuildModel::Timed(Dist::exponential_mean(1_800.0)),
            repair: RepairPolicy::parallel(4),
            wire_latency_s: 1e-4,
            chaos: None,
        }
    }

    /// Transfer-time estimate for shipping one object cross-rack, used
    /// for mirror placement delays. Falls back to the detection delay
    /// for timed rebuild models (no link speed to derive it from).
    fn transfer_estimate_s(&self) -> f64 {
        match &self.rebuild {
            RebuildModel::Bandwidth { link_gbps, share } => {
                self.object_bytes as f64 * 8.0 / (link_gbps * 1e9 * share)
            }
            RebuildModel::Timed(_) => self.repair.detection_delay_s,
        }
    }

    /// The conservative lookahead: wire latency plus the fastest thing a
    /// cross-rack message ever rides (detection or transfer). Keeping
    /// detection in the floor keeps synchronization windows at protocol
    /// cadence — minutes, not microseconds.
    pub fn lookahead_s(&self) -> f64 {
        self.wire_latency_s
            + self
                .repair
                .detection_delay_s
                .min(self.transfer_estimate_s())
    }

    /// Runs and returns the folded result. `partitions == 1` (any
    /// `threads`) is the serial oracle; higher partition counts must
    /// match it bitwise.
    pub fn run(
        &self,
        seed: u64,
        horizon_s: f64,
        partitions: usize,
        threads: usize,
    ) -> AvailabilityResult {
        let mut sim = self.build(seed, horizon_s, partitions);
        let mut probes = vec![NoProbe; sim.parts()];
        sim.run_until(SimTime::from_secs(horizon_s), threads, &mut probes);
        self.finish(&sim)
    }

    /// [`PartitionedAvailability::run`] with per-partition probes folded
    /// into one [`RunTelemetry`] (order-deterministic merge, plus
    /// `partition/<i>` marks carrying each partition's event total).
    pub fn run_observed(
        &self,
        seed: u64,
        horizon_s: f64,
        partitions: usize,
        threads: usize,
    ) -> (AvailabilityResult, RunTelemetry) {
        let mut sim = self.build(seed, horizon_s, partitions);
        let telemetry = sim.run_observed(SimTime::from_secs(horizon_s), threads);
        (self.finish(&sim), telemetry)
    }

    /// Builds the sharded simulation for a run to `horizon_s`: rack cells
    /// with placement, boot failure timers, and the chaos schedule,
    /// compiled once and routed to the racks it touches. Every partition
    /// declares `horizon_s` as its horizon, so the kernel parks the
    /// timers past it, and the boot draws skip the arithmetic of values
    /// that land past it.
    /// [`run`](Self::run) is `build`, the kernel's `run_until` and
    /// [`finish`](Self::finish); a caller that times engine set-up apart
    /// from the window loop calls the three itself, with the same
    /// horizon.
    pub fn build(
        &self,
        seed: u64,
        horizon_s: f64,
        partitions: usize,
    ) -> PartitionedSimulation<AvailShard> {
        let ranges = balanced_ranges(self.racks, partitions);
        let shared = Arc::new(self.shared(part_of_rack_table(&ranges, self.racks)));
        let la_s = self.lookahead_s();
        assert!(la_s > 0.0, "lookahead must be positive (wire + detection)");

        // Build every rack cell in global rack order, then wire mirror
        // hosting (which spans rack pairs) before grouping into shards.
        let mut cells: Vec<RackCell> = self
            .route_chaos(seed)
            .into_iter()
            .enumerate()
            .map(|(r, faults)| self.build_cell(r, seed, &shared, faults))
            .collect();
        let chaos_starts: Vec<Vec<SimTime>> = cells
            .iter()
            .map(|c| {
                c.faults
                    .iter()
                    .map(|f| SimTime::from_secs(f.at_s))
                    .collect()
            })
            .collect();
        if shared.has_mirror {
            for rack in 0..self.racks {
                let n_local = local_object_count(self.objects, self.racks, rack);
                let buddy = (rack + 1) % self.racks;
                for lo in 0..n_local {
                    let g = lo as u64 * self.racks as u64 + rack as u64;
                    let node = lo % self.nodes_per_rack;
                    cells[buddy].hosted.push(node, g as u32);
                }
            }
        }

        let shards: Vec<AvailShard> = ranges
            .iter()
            .map(|range| AvailShard {
                shared: Arc::clone(&shared),
                first_rack: range.start,
                cells: cells.drain(..range.len()).collect(),
            })
            .collect();
        let mut sim = PartitionedSimulation::new(shards, Lookahead::from_secs(la_s));
        sim.declare_horizon(SimTime::from_secs(horizon_s));
        // Each rack's boot failure timers, then its chaos starts, rack by
        // rack in global order: that push order fixes every event's
        // tie-break `seq`. The rack's `boot` stream feeds only these draws.
        let node_ttf = self.node_ttf.screened(horizon_s);
        for (rack, starts) in chaos_starts.into_iter().enumerate() {
            let part = shared.part_of_rack[rack] as usize;
            let mut boot = RngFactory::new(seed)
                .subfactory("rack", rack as u64)
                .stream("boot");
            for node in 0..self.nodes_per_rack {
                let at = SimTime::from_secs(node_ttf.sample(&mut boot));
                let (rack, node) = (rack as u32, node as u16);
                sim.schedule_at(part, at, AvailEv::NodeFail { rack, node });
            }
            for (fault, at) in starts.into_iter().enumerate() {
                let (rack, fault) = (rack as u32, fault as u32);
                sim.schedule_at(part, at, AvailEv::ChaosStart { rack, fault });
            }
        }
        sim
    }

    /// The read-only config every shard shares, with rack `r` owned by
    /// partition `part_of_rack[r]`.
    fn shared(&self, part_of_rack: Vec<u32>) -> AvailShared {
        assert!(self.racks > 0 && self.nodes_per_rack > 0, "empty topology");
        assert!(self.replication >= 1, "replication >= 1");
        assert!(self.objects < u32::MAX as u64, "object ids must fit in u32");
        let local_w = if self.racks > 1 {
            self.replication - 1
        } else {
            self.replication
        };
        assert!(
            local_w <= self.nodes_per_rack,
            "home rack too small for {} local replicas",
            local_w
        );
        AvailShared {
            racks: self.racks,
            nodes_per_rack: self.nodes_per_rack,
            local_w,
            has_mirror: self.racks > 1,
            object_bytes: self.object_bytes,
            node_ttf: self.node_ttf.clone(),
            node_replace: self.node_replace.clone(),
            rebuild: self.rebuild.clone(),
            redundancy: RedundancyScheme::replication(self.replication),
            detection_s: self.repair.detection_delay_s,
            d_notify: SimDuration::from_secs(self.wire_latency_s + self.repair.detection_delay_s),
            d_place: SimDuration::from_secs(self.wire_latency_s + self.transfer_estimate_s()),
            part_of_rack,
        }
    }

    /// The chaos schedule, compiled once and routed in one pass:
    /// `routed[r]` holds rack `r`'s slice of every fault that touches it,
    /// in schedule order. Node and rack outages reach the racks they
    /// cover; gray storms and throttles act on every rack's repair
    /// machinery.
    fn route_chaos(&self, seed: u64) -> Vec<Vec<LocalFault>> {
        let npr = self.nodes_per_rack;
        let mut routed: Vec<Vec<LocalFault>> = (0..self.racks).map(|_| Vec::new()).collect();
        let Some(chaos) = &self.chaos else {
            return routed;
        };
        let n_nodes = self.racks * npr;
        let mut hits: Vec<(usize, u16)> = Vec::new();
        for fault in chaos.compile(n_nodes, seed) {
            hits.clear();
            let local = |effect| LocalFault {
                mark: fault.mark,
                at_s: fault.at_s,
                until_s: fault.until_s,
                effect,
            };
            let everywhere = match &fault.effect {
                FaultEffect::NodesDown { nodes } => {
                    hits.extend(nodes.iter().map(|&n| (n / npr, (n % npr) as u16)));
                    None
                }
                FaultEffect::RacksDown { racks } => {
                    // Chaos racks are spans of `chaos.nodes_per_rack`
                    // nodes; expand and regroup by hardware rack.
                    let cnpr = chaos.nodes_per_rack.max(1);
                    hits.extend(
                        racks
                            .iter()
                            .flat_map(|&cr| (cr * cnpr)..((cr + 1) * cnpr))
                            .filter(|&n| n < n_nodes)
                            .map(|n| (n / npr, (n % npr) as u16)),
                    );
                    None
                }
                FaultEffect::Limp { aggregate, .. } => Some(LocalEffect::Slowdown(*aggregate)),
                FaultEffect::RepairThrottle {
                    max_parallel,
                    breaker_pending,
                } => Some(LocalEffect::Throttle {
                    max_parallel: *max_parallel,
                    breaker_pending: *breaker_pending,
                }),
            };
            if let Some(effect) = everywhere {
                for faults in &mut routed {
                    faults.push(local(effect.clone()));
                }
                continue;
            }
            // A stable sort keeps each rack's nodes in schedule order.
            hits.sort_by_key(|&(rack, _)| rack);
            for group in hits.chunk_by(|a, b| a.0 == b.0) {
                let locals: Vec<u16> = group.iter().map(|&(_, n)| n).collect();
                let full_rack = locals.len() == npr;
                routed[group[0].0].push(local(LocalEffect::NodesDown { locals, full_rack }));
            }
        }
        routed
    }

    /// One rack's initial state: placement and the rack's slice of the
    /// chaos schedule. All streams are rack-keyed.
    fn build_cell(
        &self,
        rack: usize,
        seed: u64,
        shared: &AvailShared,
        faults: Vec<LocalFault>,
    ) -> RackCell {
        let npr = self.nodes_per_rack;
        let factory = RngFactory::new(seed).subfactory("rack", rack as u64);
        let mut place = factory.stream("placement");
        let n_local = local_object_count(self.objects, self.racks, rack);

        let mut cell = RackCell {
            node_up: vec![true; npr],
            chaos_down: vec![0; npr],
            node_objects: NodeLists::with_capacity(npr, n_local * shared.local_w),
            hosted: NodeLists::new(npr),
            holders: vec![0u16; n_local * shared.local_w],
            holder_len: vec![shared.local_w as u8; n_local],
            mirror_exists: vec![shared.has_mirror; n_local],
            operable: vec![true; n_local],
            lost: vec![false; n_local],
            became_unavailable: vec![SimTime::ZERO; n_local],
            unavail_s: vec![0.0; n_local],
            queue: RepairQueue::new(self.repair),
            rebuild_waits: Tally::new(),
            rng: factory.stream("dynamics"),
            buddy_dark: false,
            dark_windows: 0,
            faults,
            slowdowns: Vec::new(),
            node_failures: 0,
            unavailability_events: 0,
            rebuilds_completed: 0,
            scratch: Vec::new(),
        };

        // Home-rack replica placement: `local_w` distinct nodes per object.
        let mut picks = Vec::new();
        for lo in 0..n_local {
            place.sample_indices_into(npr, shared.local_w, &mut picks);
            for (k, &n) in picks.iter().enumerate() {
                cell.holders[lo * shared.local_w + k] = n as u16;
                cell.node_objects.push(n, lo as u32);
            }
        }
        cell
    }

    /// Folds the state of a run [`build`](Self::build) made into one
    /// result, racks in global order.
    pub fn finish(&self, sim: &PartitionedSimulation<AvailShard>) -> AvailabilityResult {
        let end = sim.now();
        let horizon_s = end.since(SimTime::ZERO).as_secs();
        let mut total_unavail = 0.0f64;
        let mut objects_lost = 0u64;
        let mut node_failures = 0u64;
        let mut unavailability_events = 0u64;
        let mut rebuilds_completed = 0u64;
        let mut waits = Tally::new();
        for shard in sim.models() {
            for cell in &shard.cells {
                for lo in 0..cell.operable.len() {
                    let mut u = cell.unavail_s[lo];
                    if !cell.operable[lo] {
                        u += end.since(cell.became_unavailable[lo]).as_secs();
                    }
                    total_unavail += u;
                }
                objects_lost += cell.lost.iter().filter(|&&l| l).count() as u64;
                node_failures += cell.node_failures;
                unavailability_events += cell.unavailability_events;
                rebuilds_completed += cell.rebuilds_completed;
                waits.merge(&cell.rebuild_waits);
            }
        }
        let denom = self.objects as f64 * horizon_s;
        let availability = if denom > 0.0 {
            1.0 - total_unavail / denom
        } else {
            1.0
        };
        AvailabilityResult {
            availability,
            nines: AvailabilityResult::nines_of(availability),
            unavailability_events,
            objects_lost,
            node_failures,
            switch_failures: 0,
            disk_failures: 0,
            rebuilds_completed,
            mean_rebuild_wait_s: waits.mean(),
            horizon_s,
            sim_events: sim.events_executed(),
        }
    }
}

/// Objects homed at `rack` under round-robin assignment.
fn local_object_count(objects: u64, racks: usize, rack: usize) -> usize {
    let (q, rem) = (objects / racks as u64, objects % racks as u64);
    (q + u64::from((rack as u64) < rem)) as usize
}

/// Config shared read-only by every shard.
#[derive(Debug)]
struct AvailShared {
    racks: usize,
    nodes_per_rack: usize,
    /// Replicas kept in the home rack.
    local_w: usize,
    /// False only for single-rack clusters (all replicas local).
    has_mirror: bool,
    object_bytes: u64,
    node_ttf: Dist,
    node_replace: Dist,
    rebuild: RebuildModel,
    redundancy: RedundancyScheme,
    detection_s: f64,
    /// Delay of loss/placement/dark notifications: wire + detection.
    d_notify: SimDuration,
    /// Delay of a mirror placement request: wire + transfer estimate.
    d_place: SimDuration,
    part_of_rack: Vec<u32>,
}

impl AvailShared {
    fn home_rack(&self, object: u64) -> usize {
        (object % self.racks as u64) as usize
    }
    fn local_of(&self, object: u64) -> usize {
        (object / self.racks as u64) as usize
    }
    fn buddy(&self, rack: usize) -> usize {
        (rack + 1) % self.racks
    }
    fn prev(&self, rack: usize) -> usize {
        (rack + self.racks - 1) % self.racks
    }
    fn part_of(&self, rack: usize) -> usize {
        self.part_of_rack[rack] as usize
    }
}

/// Availability events. Every variant either carries its destination
/// rack or derives it from the object id (home = `object % racks`).
#[derive(Debug, Clone)]
pub enum AvailEv {
    /// A home-rack node dies (replicas on it destroyed).
    NodeFail { rack: u32, node: u16 },
    /// The node returns to service (empty).
    NodeBack { rack: u32, node: u16 },
    /// Detection fires: queue a home-replica rebuild.
    EnqueueRebuild { object: u64 },
    /// A rebuild stream finished; place the new replica.
    RebuildDone { object: u64 },
    /// Placement retry with exponential backoff.
    RetryPlace { object: u64, delay_s: f64 },
    /// Buddy → home: the hosted mirror's node died.
    MirrorLost { object: u64 },
    /// Home → buddy: place a fresh mirror.
    MirrorPlaceReq { object: u64 },
    /// Buddy → home: placement verdict.
    MirrorPlaced { object: u64, ok: bool },
    /// Home-local backoff before re-requesting a mirror.
    MirrorRetry { object: u64 },
    /// Buddy → home-of-its-mirrors: a full-rack outage started there.
    BuddyDark { rack: u32 },
    /// ... and ended.
    BuddyLit { rack: u32 },
    /// A chaos window opens on this rack's slice of the fault.
    ChaosStart { rack: u32, fault: u32 },
    /// The window closes.
    ChaosEnd { rack: u32, fault: u32 },
}

#[derive(Debug)]
struct LocalFault {
    mark: &'static str,
    at_s: f64,
    until_s: f64,
    effect: LocalEffect,
}

#[derive(Debug, Clone)]
enum LocalEffect {
    /// Local nodes unreachable (data intact). `full_rack` windows also
    /// darken hosted mirrors via `BuddyDark`.
    NodesDown { locals: Vec<u16>, full_rack: bool },
    /// Rebuild streams stretched by this factor while active.
    Slowdown(f64),
    /// Repair concurrency clamp with a backlog breaker.
    Throttle {
        max_parallel: usize,
        breaker_pending: usize,
    },
}

/// One rack's entire mutable state. Object ids are rack-local (`lo`);
/// the global id is `lo * racks + rack`.
#[derive(Debug)]
struct RackCell {
    node_up: Vec<bool>,
    /// Overlapping chaos windows per node (reachability, not durability).
    chaos_down: Vec<u32>,
    /// node → local objects with a home replica there.
    node_objects: NodeLists,
    /// node → *global* object ids whose mirror this rack hosts.
    hosted: NodeLists,
    /// Home-replica holders, stride `local_w`.
    holders: Vec<u16>,
    holder_len: Vec<u8>,
    mirror_exists: Vec<bool>,
    operable: Vec<bool>,
    lost: Vec<bool>,
    became_unavailable: Vec<SimTime>,
    unavail_s: Vec<f64>,
    queue: RepairQueue,
    rebuild_waits: Tally,
    /// Rack dynamics stream (failure rearm, rebuild draws, target picks).
    rng: Stream,
    /// Our buddy rack (hosting our mirrors) is in a full-rack outage.
    buddy_dark: bool,
    /// Our own active full-rack chaos windows.
    dark_windows: u32,
    faults: Vec<LocalFault>,
    slowdowns: Vec<(u32, f64)>,
    node_failures: u64,
    unavailability_events: u64,
    rebuilds_completed: u64,
    scratch: Vec<u32>,
}

impl RackCell {
    fn reachable(&self, node: usize) -> bool {
        self.node_up[node] && self.chaos_down[node] == 0
    }

    /// Recomputes operability/durability of one object; returns true if
    /// it just became lost (caller marks and cancels repairs).
    fn update_object(&mut self, sh: &AvailShared, lo: usize, now: SimTime) -> bool {
        let len = self.holder_len[lo] as usize;
        let base = lo * sh.local_w;
        let mut up = 0usize;
        for k in 0..len {
            if self.reachable(self.holders[base + k] as usize) {
                up += 1;
            }
        }
        if self.mirror_exists[lo] && !self.buddy_dark {
            up += 1;
        }
        let operable = !self.lost[lo] && sh.redundancy.operable(up);
        if operable != self.operable[lo] {
            if operable {
                self.unavail_s[lo] += now.since(self.became_unavailable[lo]).as_secs();
            } else {
                self.became_unavailable[lo] = now;
                self.unavailability_events += 1;
            }
            self.operable[lo] = operable;
        }
        // Durability: all home replicas destroyed and no mirror. Zero
        // intact replicas also means zero reachable ones, so the
        // operability transition above has already fired.
        let newly_lost = !self.lost[lo] && len == 0 && !self.mirror_exists[lo];
        if newly_lost {
            self.lost[lo] = true;
        }
        newly_lost
    }

    fn remove_holder(&mut self, sh: &AvailShared, lo: usize, node: u16) {
        let base = lo * sh.local_w;
        let len = self.holder_len[lo] as usize;
        if let Some(k) = (0..len).position(|k| self.holders[base + k] == node) {
            self.holders[base + k] = self.holders[base + len - 1];
            self.holder_len[lo] -= 1;
        }
    }

    /// A live local node not already holding `lo`, drawn from the rack
    /// stream; `None` when the rack has no eligible node right now.
    fn pick_target(&mut self, sh: &AvailShared, lo: usize) -> Option<u16> {
        let base = lo * sh.local_w;
        let len = self.holder_len[lo] as usize;
        self.scratch.clear();
        for n in 0..sh.nodes_per_rack {
            let held = (0..len).any(|k| self.holders[base + k] as usize == n);
            if !held && self.reachable(n) {
                self.scratch.push(n as u32);
            }
        }
        if self.scratch.is_empty() {
            return None;
        }
        let pick = self.scratch[self.rng.index(self.scratch.len())] as u16;
        Some(pick)
    }

    fn place_replica(&mut self, sh: &AvailShared, lo: usize, node: u16, now: SimTime) {
        let base = lo * sh.local_w;
        let len = self.holder_len[lo] as usize;
        self.holders[base + len] = node;
        self.holder_len[lo] += 1;
        self.node_objects.push(node as usize, lo as u32);
        self.rebuilds_completed += 1;
        self.update_object(sh, lo, now);
    }
}

/// One partition's worth of racks.
#[derive(Debug)]
pub struct AvailShard {
    shared: Arc<AvailShared>,
    first_rack: usize,
    cells: Vec<RackCell>,
}

impl AvailShard {
    fn dest_rack(sh: &AvailShared, ev: &AvailEv) -> usize {
        match ev {
            AvailEv::NodeFail { rack, .. }
            | AvailEv::NodeBack { rack, .. }
            | AvailEv::ChaosStart { rack, .. }
            | AvailEv::ChaosEnd { rack, .. } => *rack as usize,
            AvailEv::BuddyDark { rack } | AvailEv::BuddyLit { rack } => sh.prev(*rack as usize),
            AvailEv::MirrorPlaceReq { object } => sh.buddy(sh.home_rack(*object)),
            AvailEv::EnqueueRebuild { object }
            | AvailEv::RebuildDone { object }
            | AvailEv::RetryPlace { object, .. }
            | AvailEv::MirrorLost { object }
            | AvailEv::MirrorPlaced { object, .. }
            | AvailEv::MirrorRetry { object } => sh.home_rack(*object),
        }
    }

    fn start_rebuilds(
        sh: &AvailShared,
        cell: &mut RackCell,
        now: SimTime,
        ctx: &mut Ctx<'_, AvailEv>,
    ) {
        while let Some(task) = cell.queue.start_next() {
            let wait = now.since(task.queued_at).as_secs();
            cell.rebuild_waits.record(wait);
            ctx.observe("rebuild_wait_s", wait);
            let slowdowns = cell.slowdowns.iter().map(|&(_, f)| f);
            let dur = sh.rebuild.stream_duration(
                sh.redundancy,
                sh.object_bytes,
                slowdowns,
                &mut cell.rng,
            );
            ctx.schedule_in(
                dur,
                AvailEv::RebuildDone {
                    object: task.object,
                },
            );
        }
    }
}

impl Model for AvailShard {
    type Event = AvailEv;

    fn label(ev: &AvailEv) -> &'static str {
        match ev {
            AvailEv::NodeFail { .. } => "node_fail",
            AvailEv::NodeBack { .. } => "node_back",
            AvailEv::EnqueueRebuild { .. } => "enqueue_rebuild",
            AvailEv::RebuildDone { .. } => "rebuild_done",
            AvailEv::RetryPlace { .. } => "retry_place",
            AvailEv::MirrorLost { .. } => "mirror_lost",
            AvailEv::MirrorPlaceReq { .. } => "mirror_place_req",
            AvailEv::MirrorPlaced { .. } => "mirror_placed",
            AvailEv::MirrorRetry { .. } => "mirror_retry",
            AvailEv::BuddyDark { .. } => "buddy_dark",
            AvailEv::BuddyLit { .. } => "buddy_lit",
            AvailEv::ChaosStart { .. } => "chaos_start",
            AvailEv::ChaosEnd { .. } => "chaos_end",
        }
    }

    fn handle(&mut self, ev: AvailEv, ctx: &mut Ctx<'_, AvailEv>) {
        let now = ctx.now();
        let sh = Arc::clone(&self.shared);
        let rack = Self::dest_rack(&sh, &ev);
        let cell = &mut self.cells[rack - self.first_rack];
        match ev {
            AvailEv::NodeFail { node, .. } => {
                let n = node as usize;
                if !cell.node_up[n] {
                    return;
                }
                cell.node_up[n] = false;
                cell.node_failures += 1;
                // Home replicas on the node are destroyed.
                let mut lost_objs = std::mem::take(&mut cell.scratch);
                lost_objs.clear();
                cell.node_objects.drain_into(n, &mut lost_objs);
                for &lo32 in &lost_objs {
                    let lo = lo32 as usize;
                    cell.remove_holder(&sh, lo, node);
                    let g = lo as u64 * sh.racks as u64 + rack as u64;
                    if cell.update_object(&sh, lo, now) {
                        ctx.mark("object_lost");
                        cell.queue.cancel_all(g);
                    } else if !cell.lost[lo] {
                        ctx.schedule_in(
                            SimDuration::from_secs(sh.detection_s),
                            AvailEv::EnqueueRebuild { object: g },
                        );
                    }
                }
                cell.scratch = lost_objs;
                // Hosted mirrors are destroyed too: notify each home.
                let mut mirrors = Vec::new();
                cell.hosted.drain_into(n, &mut mirrors);
                for &g32 in &mirrors {
                    let g = g32 as u64;
                    ctx.send(
                        sh.part_of(sh.home_rack(g)),
                        sh.d_notify,
                        rack as u64,
                        AvailEv::MirrorLost { object: g },
                    );
                }
                let back = SimDuration::from_secs(sh.node_replace.sample(&mut cell.rng));
                ctx.schedule_in(
                    back,
                    AvailEv::NodeBack {
                        rack: rack as u32,
                        node,
                    },
                );
            }
            AvailEv::NodeBack { node, .. } => {
                cell.node_up[node as usize] = true;
                let next = SimDuration::from_secs(sh.node_ttf.sample(&mut cell.rng));
                ctx.schedule_in(
                    next,
                    AvailEv::NodeFail {
                        rack: rack as u32,
                        node,
                    },
                );
            }
            AvailEv::EnqueueRebuild { object } => {
                let lo = sh.local_of(object);
                if cell.lost[lo] || cell.holder_len[lo] as usize >= sh.local_w {
                    return;
                }
                let task = RepairTask {
                    object,
                    queued_at: now,
                };
                if cell.queue.enqueue(task) {
                    ctx.mark("chaos_breaker_trip");
                }
                Self::start_rebuilds(&sh, cell, now, ctx);
            }
            AvailEv::RebuildDone { object } => {
                cell.queue.complete_one();
                let lo = sh.local_of(object);
                if !cell.lost[lo] && (cell.holder_len[lo] as usize) < sh.local_w {
                    match cell.pick_target(&sh, lo) {
                        Some(n) => {
                            cell.place_replica(&sh, lo, n, now);
                            ctx.touch("objects_rebuilt", object);
                        }
                        None => ctx.schedule_in(
                            SimDuration::from_secs(60.0),
                            AvailEv::RetryPlace {
                                object,
                                delay_s: 60.0,
                            },
                        ),
                    }
                }
                Self::start_rebuilds(&sh, cell, now, ctx);
            }
            AvailEv::RetryPlace { object, delay_s } => {
                let lo = sh.local_of(object);
                if cell.lost[lo] || cell.holder_len[lo] as usize >= sh.local_w {
                    return;
                }
                match cell.pick_target(&sh, lo) {
                    Some(n) => {
                        cell.place_replica(&sh, lo, n, now);
                        ctx.touch("objects_rebuilt", object);
                    }
                    None => {
                        let next = (delay_s * 2.0).min(86_400.0);
                        ctx.schedule_in(
                            SimDuration::from_secs(next),
                            AvailEv::RetryPlace {
                                object,
                                delay_s: next,
                            },
                        );
                    }
                }
            }
            AvailEv::MirrorLost { object } => {
                let lo = sh.local_of(object);
                if cell.lost[lo] {
                    return;
                }
                cell.mirror_exists[lo] = false;
                if cell.update_object(&sh, lo, now) {
                    ctx.mark("object_lost");
                    cell.queue.cancel_all(object);
                } else {
                    ctx.send(
                        sh.part_of(sh.buddy(rack)),
                        sh.d_place,
                        rack as u64,
                        AvailEv::MirrorPlaceReq { object },
                    );
                }
            }
            AvailEv::MirrorPlaceReq { object } => {
                // We are the buddy: host a fresh mirror on a live node.
                cell.scratch.clear();
                for n in 0..sh.nodes_per_rack {
                    if cell.reachable(n) {
                        cell.scratch.push(n as u32);
                    }
                }
                let ok = !cell.scratch.is_empty();
                if ok {
                    let n = cell.scratch[cell.rng.index(cell.scratch.len())] as usize;
                    cell.hosted.push(n, object as u32);
                }
                ctx.send(
                    sh.part_of(sh.home_rack(object)),
                    sh.d_notify,
                    rack as u64,
                    AvailEv::MirrorPlaced { object, ok },
                );
            }
            AvailEv::MirrorPlaced { object, ok } => {
                let lo = sh.local_of(object);
                if cell.lost[lo] {
                    return;
                }
                if ok {
                    cell.mirror_exists[lo] = true;
                    cell.update_object(&sh, lo, now);
                } else {
                    ctx.schedule_in(
                        SimDuration::from_secs(3_600.0),
                        AvailEv::MirrorRetry { object },
                    );
                }
            }
            AvailEv::MirrorRetry { object } => {
                let lo = sh.local_of(object);
                if cell.lost[lo] || cell.mirror_exists[lo] {
                    return;
                }
                ctx.send(
                    sh.part_of(sh.buddy(rack)),
                    sh.d_place,
                    rack as u64,
                    AvailEv::MirrorPlaceReq { object },
                );
            }
            AvailEv::BuddyDark { .. } => {
                cell.buddy_dark = true;
                for lo in 0..cell.operable.len() {
                    if cell.mirror_exists[lo] {
                        cell.update_object(&sh, lo, now);
                    }
                }
            }
            AvailEv::BuddyLit { .. } => {
                cell.buddy_dark = false;
                for lo in 0..cell.operable.len() {
                    if cell.mirror_exists[lo] {
                        cell.update_object(&sh, lo, now);
                    }
                }
            }
            AvailEv::ChaosStart { fault, .. } => {
                let lf = &cell.faults[fault as usize];
                ctx.mark(lf.mark);
                let until = lf.until_s;
                match lf.effect {
                    LocalEffect::NodesDown {
                        ref locals,
                        full_rack,
                    } => {
                        for &n in locals {
                            cell.chaos_down[n as usize] += 1;
                        }
                        reassess_nodes(&sh, cell, fault as usize, now);
                        if full_rack {
                            cell.dark_windows += 1;
                            if cell.dark_windows == 1 && sh.has_mirror {
                                ctx.send(
                                    sh.part_of(sh.prev(rack)),
                                    sh.d_notify,
                                    rack as u64,
                                    AvailEv::BuddyDark { rack: rack as u32 },
                                );
                            }
                        }
                    }
                    LocalEffect::Slowdown(f) => {
                        cell.slowdowns.push((fault, f));
                    }
                    LocalEffect::Throttle {
                        max_parallel,
                        breaker_pending,
                    } => {
                        cell.queue
                            .throttle(fault as usize, max_parallel, breaker_pending);
                    }
                }
                ctx.schedule_at(
                    SimTime::from_secs(until).max(now),
                    AvailEv::ChaosEnd {
                        rack: rack as u32,
                        fault,
                    },
                );
            }
            AvailEv::ChaosEnd { fault, .. } => {
                ctx.mark("chaos_restore");
                match cell.faults[fault as usize].effect {
                    LocalEffect::NodesDown {
                        ref locals,
                        full_rack,
                    } => {
                        for &n in locals {
                            cell.chaos_down[n as usize] -= 1;
                        }
                        reassess_nodes(&sh, cell, fault as usize, now);
                        if full_rack {
                            cell.dark_windows -= 1;
                            if cell.dark_windows == 0 && sh.has_mirror {
                                ctx.send(
                                    sh.part_of(sh.prev(rack)),
                                    sh.d_notify,
                                    rack as u64,
                                    AvailEv::BuddyLit { rack: rack as u32 },
                                );
                            }
                        }
                    }
                    LocalEffect::Slowdown(_) => {
                        cell.slowdowns.retain(|&(i, _)| i != fault);
                    }
                    LocalEffect::Throttle { .. } => {
                        if cell.queue.unthrottle(fault as usize) {
                            Self::start_rebuilds(&sh, cell, now, ctx);
                        }
                    }
                }
            }
        }
    }
}

/// Re-derives operability for every object with a home replica on a node
/// that chaos fault `fault` takes down (reachability changed; durability
/// did not). Takes the fault's index rather than its node list so the
/// list stays borrowed from the cell instead of being copied per window.
fn reassess_nodes(sh: &AvailShared, cell: &mut RackCell, fault: usize, now: SimTime) {
    let mut affected = std::mem::take(&mut cell.scratch);
    affected.clear();
    if let LocalEffect::NodesDown { locals, .. } = &cell.faults[fault].effect {
        for &n in locals {
            cell.node_objects.extend_into(n as usize, &mut affected);
        }
    }
    affected.sort_unstable();
    affected.dedup();
    for &lo in &affected {
        cell.update_object(sh, lo as usize, now);
    }
    cell.scratch = affected;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultSchedule, InjectionRule};

    fn avail_model() -> PartitionedAvailability {
        let mut m = PartitionedAvailability::example(6, 8, 300);
        m.node_ttf = Dist::exponential_mean(5.0 * 86_400.0);
        m.node_replace = Dist::exponential_mean(4.0 * 3_600.0);
        m
    }

    const HORIZON: f64 = 90.0 * 86_400.0;

    #[test]
    fn balanced_ranges_cover_every_rack_in_near_equal_spans() {
        assert_eq!(balanced_ranges(7, 2), vec![0..3, 3..7]);
        for racks in 1..=12 {
            for partitions in 0..=15 {
                let ranges = balanced_ranges(racks, partitions);
                // Clamped to 1..=racks: never more spans than racks.
                assert_eq!(
                    ranges.len(),
                    partitions.clamp(1, racks),
                    "{racks}/{partitions}"
                );
                // Contiguous and covering, in rack order.
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, racks);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{racks}/{partitions}");
                }
                // No empty span; sizes differ by at most one rack.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(*lo >= 1, "{racks}/{partitions}: {ranges:?}");
                assert!(hi - lo <= 1, "{racks}/{partitions}: {ranges:?}");
            }
        }
    }

    #[test]
    fn part_of_rack_table_agrees_with_the_spans() {
        for (racks, partitions) in [(5, 1), (5, 3), (7, 2), (7, 100), (12, 5)] {
            let ranges = balanced_ranges(racks, partitions);
            let table = part_of_rack_table(&ranges, racks);
            assert_eq!(table.len(), racks);
            for (rack, &part) in table.iter().enumerate() {
                assert!(ranges[part as usize].contains(&rack), "rack {rack}");
            }
        }
    }

    #[test]
    fn losing_an_object_cancels_every_queued_rebuild() {
        let m = avail_model();
        let sh = m.shared(vec![0; m.racks]);
        let mut cell = m.build_cell(0, 1, &sh, Vec::new());
        for (object, at) in [(0, 1.0), (3, 1.5), (0, 2.0)] {
            cell.queue.enqueue(RepairTask {
                object,
                queued_at: SimTime::from_secs(at),
            });
        }
        cell.queue.cancel_all(0);
        assert_eq!(cell.queue.pending_len(), 1, "a queued rebuild survived");
        assert_eq!(cell.queue.start_next().map(|t| t.object), Some(3));
    }

    #[test]
    fn availability_thread_count_is_bitwise_invisible() {
        let m = avail_model();
        let (serial, t_serial) = m.run_observed(7, HORIZON, 4, 1);
        for threads in [2, 4] {
            let (r, t) = m.run_observed(7, HORIZON, 4, threads);
            assert_eq!(serial, r, "threads={threads}");
            assert_eq!(t_serial.masked(), t.masked(), "threads={threads}");
        }
    }

    #[test]
    fn availability_partition_count_is_semantically_invisible() {
        let m = avail_model();
        let oracle = m.run(11, HORIZON, 1, 1);
        assert!(oracle.node_failures > 0, "dynamics exercised");
        assert!(oracle.rebuilds_completed > 0, "repairs exercised");
        for partitions in [2, 3, 6] {
            assert_eq!(oracle, m.run(11, HORIZON, partitions, 2), "N={partitions}");
        }
    }

    #[test]
    fn run_and_run_observed_agree() {
        // The no-telemetry entry and the observed one drive the same
        // loop under different probes: results and event totals match at
        // every partition and thread count.
        let m = avail_model();
        for partitions in [1, 3] {
            for threads in [1, 2] {
                let at = format!("partitions={partitions} threads={threads}");
                let plain = m.run(5, HORIZON, partitions, threads);
                let (observed, t) = m.run_observed(5, HORIZON, partitions, threads);
                assert!(plain.sim_events > 0, "{at}");
                assert_eq!(plain, observed, "{at}");
                assert_eq!(t.events, plain.sim_events, "{at}");
                let part_total: u64 = (0..partitions)
                    .map(|i| t.marks[&format!("partition/{i}")])
                    .sum();
                assert_eq!(part_total, t.events, "{at}");
            }
        }
    }

    #[test]
    fn availability_mirrors_flow() {
        let m = avail_model();
        let (r, t) = m.run_observed(3, HORIZON, 3, 2);
        // The cross-partition protocol actually ran.
        assert!(t.events_by_label["mirror_lost"] > 0);
        assert!(t.events_by_label["mirror_placed"] > 0);
        // Per-partition totals cover the whole run.
        let part_total: u64 = (0..3).map(|i| t.marks[&format!("partition/{i}")]).sum();
        assert_eq!(part_total, t.events);
        assert!(r.availability > 0.0 && r.availability <= 1.0);
        assert_eq!(t.events, r.sim_events);
    }

    #[test]
    fn cross_partition_power_domain_loss_is_partitioning_invariant() {
        // A power-domain loss spanning racks 2..4 — racks that land in
        // *different* partitions at N=3 (ranges [0,2), [2,4), [4,6) put
        // the domain inside one, but N=6 splits every rack apart) — must
        // fire identically to the serial path.
        let mut m = avail_model();
        m.chaos = Some(ChaosConfig {
            schedule: FaultSchedule {
                rules: vec![InjectionRule {
                    name: "power loss racks 2..4".into(),
                    at_s: 10.0 * 86_400.0,
                    fault: FaultKind::PowerDomainLoss {
                        first_rack: 2,
                        racks: 2,
                        restore_s: 12.0 * 3_600.0,
                    },
                }],
            },
            nodes_per_rack: m.nodes_per_rack,
        });
        let oracle = m.run_observed(5, HORIZON, 1, 1);
        assert!(
            oracle.1.marks.get("inject_power_loss").copied() == Some(2),
            "both affected racks mark the injection: {:?}",
            oracle.1.marks
        );
        assert!(oracle.0.unavailability_events > 0);
        for (partitions, threads) in [(2, 2), (3, 2), (6, 4)] {
            let got = m.run_observed(5, HORIZON, partitions, threads);
            assert_eq!(oracle.0, got.0, "N={partitions}");
            assert_partitioning_invariant(&oracle.1, &got.1, partitions);
        }
    }

    #[test]
    fn repair_throttle_breaker_and_gray_storm_are_partitioning_invariant() {
        // A 40-day full repair pause whose breaker trips once a rack's
        // backlog passes 30, and a disk gray storm that stretches rebuild
        // streams: the repair-side chaos paths (throttle, breaker,
        // slowdown) must fire identically at every partition count.
        const DAY: f64 = 86_400.0;
        let mut m = avail_model();
        let unscheduled = m.run(5, HORIZON, 1, 1);
        m.chaos = Some(ChaosConfig {
            schedule: FaultSchedule {
                rules: vec![
                    InjectionRule {
                        name: "repair pause".into(),
                        at_s: DAY,
                        fault: FaultKind::RepairThrottle {
                            max_parallel: 0,
                            duration_s: 40.0 * DAY,
                            breaker_pending: 30,
                        },
                    },
                    InjectionRule {
                        name: "disk gray storm".into(),
                        at_s: 2.0 * DAY,
                        fault: FaultKind::GrayStorm {
                            spec: wt_hw::LimpwareSpec::degraded_disk_fixed(0.5, 4.0),
                            center_rack: 2,
                            radius_racks: 1,
                            duration_s: 20.0 * DAY,
                        },
                    },
                ],
            },
            nodes_per_rack: m.nodes_per_rack,
        });
        let oracle = m.run_observed(5, HORIZON, 1, 1);
        let marks = &oracle.1.marks;
        assert!(marks.get("chaos_breaker_trip") > Some(&0), "{marks:?}");
        assert!(marks.get("inject_gray_storm") > Some(&0), "{marks:?}");
        assert!(
            oracle.0.mean_rebuild_wait_s > unscheduled.mean_rebuild_wait_s,
            "paused repair must wait longer: {} vs {}",
            oracle.0.mean_rebuild_wait_s,
            unscheduled.mean_rebuild_wait_s
        );
        for partitions in [2, 3] {
            let got = m.run_observed(5, HORIZON, partitions, 2);
            assert_eq!(oracle.0, got.0, "N={partitions}");
            assert_partitioning_invariant(&oracle.1, &got.1, partitions);
        }
    }

    /// Telemetry comparison across *partition counts*: event totals,
    /// labels, marks and sketch sample counts must agree exactly.
    /// Queue-depth gauges (one gauge per queue) and the sketches' f64
    /// running sums (summation order differs) are partitioning-dependent
    /// by construction and excluded — bitwise telemetry equality is
    /// pinned across *thread* counts at fixed partitioning instead.
    fn assert_partitioning_invariant(oracle: &RunTelemetry, got: &RunTelemetry, n: usize) {
        let (mut a, mut b) = (oracle.masked(), got.masked());
        for t in [&mut a, &mut b] {
            t.marks.retain(|k, _| !k.starts_with("partition/"));
            t.peak_queue_depth = 0;
            t.mean_queue_depth = 0.0;
        }
        let (sa, sb) = (a.sketches.take(), b.sketches.take());
        assert_eq!(a, b, "N={n}");
        match (sa, sb) {
            (Some(sa), Some(sb)) => {
                let counts = |s: &wt_des::obs::SketchSet| -> Vec<(String, u64)> {
                    s.values
                        .iter()
                        .map(|(k, v)| (k.clone(), v.count()))
                        .collect()
                };
                assert_eq!(counts(&sa), counts(&sb), "N={n}");
            }
            (sa, sb) => assert_eq!(sa.is_some(), sb.is_some(), "N={n}"),
        }
    }

    #[test]
    fn single_rack_cluster_degenerates_to_local_replication() {
        let mut m = avail_model();
        m.racks = 1;
        m.objects = 60;
        let r = m.run(2, HORIZON, 4, 2);
        assert_eq!(r, m.run(2, HORIZON, 1, 1));
        assert!(r.availability > 0.9);
    }
}
