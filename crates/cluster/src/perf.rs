//! Request-level performance simulation (performance SLAs, §3).
//!
//! Tenants generate open-loop request streams against objects placed on
//! the topology. A read queues at the serving node's disk array, then
//! streams back through its NIC; a write first pushes its copies out of
//! the client NIC, then commits on the write set's disks. Node failures
//! (optional) remove replicas from service *and* inject repair traffic
//! through surviving NICs — the cluster-event/performance coupling the
//! paper says pure prediction models miss. Limpware scales individual
//! components' service rates.
//!
//! Fidelity notes (DESIGN.md): disks are modeled as a per-node c-server
//! FIFO (c = disk count) using the catalog's latency/IOPS/bandwidth
//! envelope; NICs as a 1-server FIFO at line rate capped by the path
//! bottleneck; switch queueing is folded into the path bandwidth cap.
//! Placement granularity is a fixed pool of partitions per tenant (like
//! tablets), not individual keys. Memory acts as a buffer cache: a point
//! read hits DRAM with probability `cluster_mem / dataset_bytes` and skips
//! the disk stage — the first-order effect behind the paper's "invest in
//! storage or memory?" provisioning question (§3).
//!
//! State layout: in-flight requests live in a slot table of fixed-size
//! pages with a free list threaded through the free slots, and a request
//! id is its `u32` slot index. Events and the disk/NIC pools carry those
//! ids, and a write's target set sits at a fixed stride in its slot's
//! page, so admitting and finishing a request allocates nothing once the
//! table has grown to the run's peak number of requests in flight. Pages
//! never move, so growing the table copies nothing and its resident size
//! does not depend on what the allocator did earlier in the process. Ids
//! are opaque — nothing sorts, hashes or prints them — so which slot a
//! request gets cannot change any output.

use crate::chaos::{ChaosConfig, CompiledFault, FaultEffect};
use crate::results::{PerfResult, TenantPerf};
use wt_des::prelude::*;
use wt_des::rng::RngFactory;
use wt_des::ServerPool;
use wt_dist::Dist;
use wt_hw::limpware::{LimpState, LimpTarget};
use wt_hw::{LimpwareSpec, NodeId, Topology, TopologySpec};
use wt_sw::{Placement, Placer, RedundancyScheme};
use wt_workload::{TenantWorkload, Zipf};

/// Partitions per tenant: the placement granularity.
const PARTITIONS: u64 = 128;

/// Marker tenant index for background repair transfers.
const REPAIR_TENANT: usize = usize::MAX;

/// Configuration for one performance run.
#[derive(Debug, Clone)]
pub struct PerfModel {
    /// Hardware build-out.
    pub topology: TopologySpec,
    /// Redundancy scheme (reads hit one target, writes the write quorum).
    pub redundancy: RedundancyScheme,
    /// Partition placement policy.
    pub placement: Placement,
    /// Tenant workloads.
    pub tenants: Vec<TenantWorkload>,
    /// Optional limpware injection.
    pub limpware: Option<LimpwareSpec>,
    /// Inject node failures (and repair traffic) during the run.
    pub inject_failures: bool,
    /// Node TTF override; defaults to the topology's node spec.
    pub node_ttf: Option<Dist>,
    /// Simulated duration, seconds.
    pub horizon_s: f64,
    /// Optional declarative chaos (see [`crate::chaos`]). Node-scoped
    /// faults mark nodes unreachable without spawning repair traffic
    /// (planned windows / power loss leave data intact); gray storms limp
    /// individual components; repair throttles are an availability-engine
    /// resource and are no-ops here.
    pub chaos: Option<ChaosConfig>,
}

impl PerfModel {
    /// Runs the simulation and summarizes per-tenant latency, with no
    /// telemetry.
    pub fn run(&self, seed: u64) -> PerfResult {
        let mut sim = self.seeded_sim(seed);
        let end = SimTime::ZERO + SimDuration::from_secs(self.horizon_s);
        sim.run_until(end, &mut wt_des::obs::NoProbe);
        sim.into_model().finish(end)
    }

    /// Like [`run`](Self::run), but with a probe attached: returns the same
    /// result (probes are one-way and cannot perturb the simulation) plus a
    /// [`RunTelemetry`](wt_des::obs::RunTelemetry) summary. When `extra` is
    /// given (e.g. a `TraceProbe`), it observes the same event stream.
    pub fn run_observed(
        &self,
        seed: u64,
        extra: Option<&mut dyn wt_des::obs::Probe>,
    ) -> (PerfResult, wt_des::obs::RunTelemetry) {
        let mut sim = self.seeded_sim(seed);
        let end = SimTime::ZERO + SimDuration::from_secs(self.horizon_s);
        let telemetry = sim.run_observed(end, extra);
        (sim.into_model().finish(end), telemetry)
    }

    /// Builds the simulation and seeds initial arrivals/failures — the
    /// shared front half of [`run`](Self::run) and
    /// [`run_observed`](Self::run_observed), so the two paths cannot drift.
    fn seeded_sim(&self, seed: u64) -> Simulation<PerfState<'_>> {
        assert!(
            !self.tenants.is_empty(),
            "perf run needs at least one tenant"
        );
        // Compiled per run seed: gray-storm factors are sampled from
        // content-keyed substreams of this run's root seed.
        let chaos_faults = self
            .chaos
            .as_ref()
            .map(|c| c.compile(self.topology.node_count(), seed))
            .unwrap_or_default();
        let n_chaos = chaos_faults.len();
        let mut sim = Simulation::new(PerfState::new(self, seed, chaos_faults));
        // One pending arrival per tenant, one failure timer per node when
        // injection is on, start/end per chaos fault, plus in-flight
        // request stages.
        sim.reserve_events(
            self.tenants.len()
                + if self.inject_failures {
                    self.topology.node_count()
                } else {
                    0
                }
                + 2 * n_chaos,
        );
        // Chaos faults are content-ordered at compile time, so the
        // (time, seq) order here is independent of declaration order.
        // (The schedule lives in the state; read the start times back
        // rather than cloning the whole compiled schedule.)
        for i in 0..n_chaos {
            let at_s = sim.model().chaos_faults[i].at_s;
            sim.schedule_at(
                SimTime::ZERO + SimDuration::from_secs(at_s),
                Ev::ChaosStart { fault: i },
            );
        }
        // First arrival per tenant.
        for t in 0..self.tenants.len() {
            let gap = sim.model_mut().next_arrival_gap(t);
            sim.schedule_in(gap, Ev::Arrival { tenant: t });
        }
        // First failure per node, if enabled.
        if self.inject_failures {
            let ttf_dist = self
                .node_ttf
                .clone()
                .unwrap_or_else(|| self.topology.node.ttf.clone());
            let factory = RngFactory::new(seed);
            let mut rng = factory.stream("perf-failures");
            for node in 0..self.topology.node_count() {
                let ttf = SimDuration::from_secs(ttf_dist.sample(&mut rng));
                sim.schedule_in(ttf, Ev::NodeFail { node });
            }
        }
        sim
    }
}

/// Event alphabet of the performance simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Tenant issues its next request.
    Arrival { tenant: usize },
    /// A disk service completed at `node` for request `rid`.
    DiskDone { node: usize, rid: u32 },
    /// A NIC transfer completed at `node` for request `rid`.
    NicDone { node: usize, rid: u32 },
    /// Node failure (removes replicas from service, spawns repair traffic).
    NodeFail { node: usize },
    /// Node returns to service.
    NodeBack { node: usize },
    /// A compiled chaos fault fires (index into the compiled schedule).
    ChaosStart { fault: usize },
    /// A compiled chaos fault's effect is lifted.
    ChaosEnd { fault: usize },
}

/// Per-request runtime state.
struct Req {
    tenant: usize,
    /// Bytes moved in the NIC stage (w× payload for write fan-out).
    nic_bytes: u64,
    /// Bytes hitting each disk (payload, or shard for erasure).
    disk_bytes: u64,
    write: bool,
    sequential: bool,
    /// Far end of the NIC stage (the reading client for reads, the first
    /// write target for writes).
    nic_dst: usize,
    /// Remaining disk completions.
    pending_disks: usize,
    start: SimTime,
}

/// Request slots per page of the request table (56 KiB of slots on
/// 64-bit targets).
const PAGE_SLOTS: usize = 1 << 10;

/// End of the request table's free list; never a request id.
const NO_SLOT: u32 = u32::MAX;

/// One slot of the request table.
enum Slot {
    Live(Req),
    /// Finished; `next` is the slot freed before this one, or `NO_SLOT`.
    Free {
        next: u32,
    },
}

/// `PAGE_SLOTS` slots of the request table and their write sets.
struct Page {
    /// Allocated at full capacity and filled in id order, so adding a
    /// slot never moves the page.
    slots: Vec<Slot>,
    /// Write sets, `width` node ids per slot: slot `i`'s targets are
    /// `sets[i * width..][..w]`, written when the write is admitted and
    /// read when its NIC fan-out completes.
    sets: Box<[u32]>,
}

/// In-flight requests, indexed by request id.
///
/// Slots live in fixed-size pages that are allocated once and never move,
/// so growing the table adds a page and copies nothing. A `Vec` that
/// doubled would reallocate instead, and where the allocator put each
/// copy, and so the process's peak resident size, would depend on the
/// runs before it. A finished request's slot heads a free list threaded
/// through the free slots and the next request reuses it, so the table
/// never grows past the peak number of requests in flight.
struct ReqTable {
    /// Slot `rid` is `pages[rid / PAGE_SLOTS].slots[rid % PAGE_SLOTS]`.
    pages: Vec<Page>,
    /// Redundancy width: the write sets' stride.
    width: usize,
    /// The most recently freed slot, or `NO_SLOT`.
    free: u32,
    /// Requests in flight.
    live: usize,
}

impl ReqTable {
    fn new(width: usize) -> Self {
        ReqTable {
            pages: Vec::new(),
            width,
            free: NO_SLOT,
            live: 0,
        }
    }

    /// Page and in-page index of `rid`.
    #[inline]
    fn locate(rid: u32) -> (usize, usize) {
        (rid as usize / PAGE_SLOTS, rid as usize % PAGE_SLOTS)
    }

    /// Slots handed out so far: the table's size.
    fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |p| (self.pages.len() - 1) * PAGE_SLOTS + p.slots.len())
    }

    /// Puts `req` in the most recently freed slot, or in a new one when
    /// none is free, records `targets` as its write set (empty for reads
    /// and repair streams) and returns its id.
    fn admit(&mut self, req: Req, targets: &[usize]) -> u32 {
        let rid = if self.free == NO_SLOT {
            let len = self.len();
            assert!(len < NO_SLOT as usize, "request ids fit in u32");
            if len.is_multiple_of(PAGE_SLOTS) {
                self.pages.push(Page {
                    slots: Vec::with_capacity(PAGE_SLOTS),
                    sets: vec![0; PAGE_SLOTS * self.width].into_boxed_slice(),
                });
            }
            let page = self.pages.last_mut().expect("the table has a page");
            page.slots.push(Slot::Live(req));
            len as u32
        } else {
            let rid = self.free;
            let (p, i) = Self::locate(rid);
            let slot = &mut self.pages[p].slots[i];
            let Slot::Free { next } = *slot else {
                unreachable!("free slot {rid} holds a live request")
            };
            self.free = next;
            *slot = Slot::Live(req);
            rid
        };
        let (p, i) = Self::locate(rid);
        let set = &mut self.pages[p].sets[i * self.width..];
        for (s, &t) in set.iter_mut().zip(targets) {
            *s = t as u32;
        }
        self.live += 1;
        rid
    }

    /// The live request `rid`. Jobs are never cancelled, so no event can
    /// reach a request whose slot was already freed.
    #[inline]
    fn get(&self, rid: u32) -> &Req {
        let (p, i) = Self::locate(rid);
        match &self.pages[p].slots[i] {
            Slot::Live(req) => req,
            Slot::Free { .. } => unreachable!("request {rid} is not live"),
        }
    }

    /// The live request `rid`, mutably.
    #[inline]
    fn get_mut(&mut self, rid: u32) -> &mut Req {
        let (p, i) = Self::locate(rid);
        match &mut self.pages[p].slots[i] {
            Slot::Live(req) => req,
            Slot::Free { .. } => unreachable!("request {rid} is not live"),
        }
    }

    /// Node `i` of `rid`'s write set.
    #[inline]
    fn target(&self, rid: u32, i: usize) -> usize {
        let (p, s) = Self::locate(rid);
        self.pages[p].sets[s * self.width + i] as usize
    }

    /// Frees `rid`'s slot when the request finishes and returns the
    /// request's final state.
    fn retire(&mut self, rid: u32) -> Req {
        let (p, i) = Self::locate(rid);
        let freed = Slot::Free { next: self.free };
        let Slot::Live(req) = std::mem::replace(&mut self.pages[p].slots[i], freed) else {
            panic!("request {rid} freed twice")
        };
        self.free = rid;
        self.live -= 1;
        req
    }
}

struct PerfState<'a> {
    /// Immutable configuration, borrowed from the model for the run's
    /// duration (nothing here is mutated; cloning tenants/topology per run
    /// was pure overhead at scale).
    cfg: &'a PerfModel,
    topo: Topology,
    node_up: Vec<bool>,
    /// Redundancy width — the partition table's stride.
    width: usize,
    /// Flat fixed-stride partition table: tenant `t`, partition `p`'s
    /// holders are `partitions[(t * PARTITIONS + p) * width ..][..width]`.
    /// Placement is immutable in this engine (liveness is filtered at read
    /// time), so a CSR-style flat layout replaces the old triple-nested
    /// `Vec<Vec<Vec<usize>>>`.
    partitions: Vec<u32>,
    zipfs: Vec<Zipf>,
    disk_pools: Vec<ServerPool<u32>>,
    nic_pools: Vec<ServerPool<u32>>,
    disk_limp: LimpState,
    nic_limp: LimpState,
    /// Compiled chaos schedule (empty when no chaos is configured).
    chaos_faults: Vec<CompiledFault>,
    /// Per-node chaos unreachability counters (> 0 = drained/unpowered,
    /// data intact). Orthogonal to `node_up` so a chaos window can never
    /// swallow a node's organic failure timer.
    chaos_down: Vec<u32>,
    /// Indices of currently active gray-storm faults.
    chaos_limp_active: Vec<usize>,
    /// Per-node storm multipliers on top of the rolled limp states.
    /// All-1.0 when no storm is active (`x * 1.0` is exact in f64, so
    /// chaos-free runs stay bit-identical to pre-chaos builds).
    chaos_disk_mult: Vec<f64>,
    chaos_nic_mult: Vec<f64>,
    reqs: ReqTable,
    latencies: Vec<Histogram>,
    /// Per-tenant DDSketch latency quantiles, recorded alongside the
    /// exact histograms so the sketch pipeline can be validated against
    /// the retained-bucket oracle (`sketch_*` fields of `TenantPerf`).
    lat_sketches: Vec<QuantileSketch>,
    completed: Vec<u64>,
    failed: Vec<u64>,
    node_failures: u64,
    /// Probability a point read is served from the cluster-wide buffer
    /// cache (skipping the disk stage).
    cache_hit_p: f64,
    /// Reusable per-arrival buffer for a key's live holders.
    scratch_holders: Vec<usize>,
    rng: wt_des::rng::Stream,
}

impl<'a> PerfState<'a> {
    fn new(cfg: &'a PerfModel, seed: u64, chaos_faults: Vec<CompiledFault>) -> Self {
        let topo = cfg.topology.build();
        let n = topo.node_count();
        let factory = RngFactory::new(seed);
        let width = cfg.redundancy.width();

        let mut partitions: Vec<u32> =
            Vec::with_capacity(cfg.tenants.len() * PARTITIONS as usize * width);
        let mut placed: Vec<usize> = Vec::with_capacity(width);
        for (t, _) in cfg.tenants.iter().enumerate() {
            let mut placer = Placer::new(
                cfg.placement,
                n,
                width,
                factory.numbered("perf-placement", t as u64),
            );
            for p in 0..PARTITIONS {
                placer.place_into(p, &mut placed);
                assert_eq!(placed.len(), width, "placers yield exactly `width` nodes");
                partitions.extend(placed.iter().map(|&h| h as u32));
            }
        }
        let zipfs = cfg.tenants.iter().map(|t| t.mix.make_zipf()).collect();

        let mut limp_rng = factory.stream("limpware");
        let (disk_limp, nic_limp) = match &cfg.limpware {
            Some(spec) => match spec.target {
                LimpTarget::Disk => (
                    LimpState::roll_all(spec, n, &mut limp_rng),
                    LimpState::healthy(n),
                ),
                LimpTarget::Nic => (
                    LimpState::healthy(n),
                    LimpState::roll_all(spec, n, &mut limp_rng),
                ),
            },
            None => (LimpState::healthy(n), LimpState::healthy(n)),
        };

        let disks_per_node = cfg.topology.node.disks.len().max(1);
        // Buffer cache: cluster DRAM over the tenants' logical dataset.
        let dataset_bytes: f64 = cfg.tenants.iter().map(|t| t.dataset_bytes as f64).sum();
        let mem_bytes = cfg.topology.node.mem.capacity_gb * 1e9 * n as f64;
        let cache_hit_p = if dataset_bytes > 0.0 {
            (mem_bytes / dataset_bytes).min(1.0)
        } else {
            0.0
        };
        PerfState {
            cfg,
            topo,
            node_up: vec![true; n],
            width,
            partitions,
            zipfs,
            disk_pools: (0..n)
                .map(|_| ServerPool::new(disks_per_node, SimTime::ZERO))
                .collect(),
            nic_pools: (0..n).map(|_| ServerPool::new(1, SimTime::ZERO)).collect(),
            disk_limp,
            nic_limp,
            chaos_faults,
            chaos_down: vec![0; n],
            chaos_limp_active: Vec::new(),
            chaos_disk_mult: vec![1.0; n],
            chaos_nic_mult: vec![1.0; n],
            reqs: ReqTable::new(width),
            latencies: (0..cfg.tenants.len()).map(|_| Histogram::new()).collect(),
            lat_sketches: (0..cfg.tenants.len())
                .map(|_| QuantileSketch::new())
                .collect(),
            completed: vec![0; cfg.tenants.len()],
            failed: vec![0; cfg.tenants.len()],
            node_failures: 0,
            cache_hit_p,
            scratch_holders: Vec::with_capacity(width),
            rng: factory.stream("perf-dynamics"),
        }
    }

    fn next_arrival_gap(&mut self, tenant: usize) -> SimDuration {
        SimDuration::from_secs(self.cfg.tenants[tenant].arrivals.next_gap(&mut self.rng))
    }

    /// Disk service time at `node` for one disk job of `rid`.
    fn disk_service(&self, node: usize, rid: u32) -> SimDuration {
        let r = self.reqs.get(rid);
        let disk = &self.cfg.topology.node.disks[0];
        let t = disk.service_time(r.disk_bytes, r.sequential, r.write)
            * self.disk_limp.factor(node)
            * self.chaos_disk_mult[node];
        SimDuration::from_secs(t)
    }

    /// NIC transfer time at `src` for `rid` (toward the request's NIC
    /// destination). A limping NIC scales the *whole* service — the
    /// canonical limplock case is a link renegotiated to a lower speed,
    /// which inflates per-packet handling as well as throughput.
    fn nic_service(&self, src: usize, rid: u32) -> SimDuration {
        let r = self.reqs.get(rid);
        // path_info is the hop-free form: no per-transfer Vec for a hop
        // list nobody reads here.
        let path = self
            .topo
            .path_info(NodeId(src as u32), NodeId(r.nic_dst as u32));
        let nic = &self.cfg.topology.node.nic;
        let gbps = nic.bandwidth_gbps.min(path.bottleneck_gbps);
        let t = (nic.latency_s + path.latency_s + r.nic_bytes as f64 * 8.0 / (gbps * 1e9))
            * self.nic_limp.factor(src)
            * self.chaos_nic_mult[src];
        SimDuration::from_secs(t)
    }

    /// True when `node` is failed-up *and* outside any chaos window.
    fn node_available(&self, node: usize) -> bool {
        self.node_up[node] && self.chaos_down[node] == 0
    }

    /// Rebuilds the per-node storm multipliers from the set of active
    /// gray-storm faults. Recomputing from scratch (rather than
    /// multiplying on start / dividing on end) keeps overlapping storms
    /// exact: no floating-point residue survives the last restore.
    fn recompute_chaos_limp(&mut self) {
        self.chaos_disk_mult.fill(1.0);
        self.chaos_nic_mult.fill(1.0);
        for &i in &self.chaos_limp_active {
            if let FaultEffect::Limp {
                target, factors, ..
            } = &self.chaos_faults[i].effect
            {
                let mult = match target {
                    LimpTarget::Disk => &mut self.chaos_disk_mult,
                    LimpTarget::Nic => &mut self.chaos_nic_mult,
                };
                for &(node, f) in factors {
                    mult[node] *= f;
                }
            }
        }
    }

    /// Collects the live holders of (tenant, key) into `out` (cleared
    /// first) — the per-arrival hot path, so the buffer is caller-owned.
    fn holders_into(&self, tenant: usize, key: u64, out: &mut Vec<usize>) {
        out.clear();
        let part = (key % PARTITIONS) as usize;
        let base = (tenant * PARTITIONS as usize + part) * self.width;
        for &h in &self.partitions[base..base + self.width] {
            if self.node_available(h as usize) {
                out.push(h as usize);
            }
        }
    }

    /// Prefer a holder in the client's rack, else any live holder. Counts
    /// rack-local holders and picks the k-th in a second scan — same
    /// single RNG draw as the old buffered version, no temporary list.
    fn choose_serving(&mut self, client: usize, holders: &[usize]) -> usize {
        let topo = &self.topo;
        let is_local = |h: usize| topo.same_rack(NodeId(client as u32), NodeId(h as u32));
        let local = holders.iter().filter(|&&h| is_local(h)).count();
        if local > 0 {
            let k = self.rng.index(local);
            holders
                .iter()
                .copied()
                .filter(|&h| is_local(h))
                .nth(k)
                .expect("k < local count")
        } else {
            holders[self.rng.index(holders.len())]
        }
    }

    /// Enqueues a disk job; schedules completion if it starts immediately.
    fn submit_disk(&mut self, node: usize, rid: u32, ctx: &mut Ctx<'_, Ev>) {
        if let Some(started) = self.disk_pools[node].arrive(ctx.now(), rid) {
            let dur = self.disk_service(node, started);
            ctx.schedule_in(dur, Ev::DiskDone { node, rid: started });
        }
    }

    /// Enqueues a NIC job at `src`; schedules completion if it starts now.
    fn submit_nic(&mut self, src: usize, rid: u32, ctx: &mut Ctx<'_, Ev>) {
        if let Some(started) = self.nic_pools[src].arrive(ctx.now(), rid) {
            let dur = self.nic_service(src, started);
            ctx.schedule_in(
                dur,
                Ev::NicDone {
                    node: src,
                    rid: started,
                },
            );
        }
    }

    /// A tenant request finished: free its slot and record its latency.
    fn complete(&mut self, rid: u32, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let Req { tenant, start, .. } = self.reqs.retire(rid);
        debug_assert_ne!(tenant, REPAIR_TENANT, "repair streams end at their NIC");
        let latency = now.since(start).as_secs();
        self.latencies[tenant].record(latency);
        self.lat_sketches[tenant].record(latency);
        self.completed[tenant] += 1;
        ctx.observe("request_latency_s", latency);
    }

    fn finish(self, end: SimTime) -> PerfResult {
        let horizon_s = end.since(SimTime::ZERO).as_secs();
        let tenants = self
            .cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let h = &self.latencies[i];
                let s = &self.lat_sketches[i];
                TenantPerf {
                    name: t.name.clone(),
                    completed: self.completed[i],
                    failed: self.failed[i],
                    mean_s: h.mean(),
                    p50_s: h.p50(),
                    p95_s: h.p95(),
                    p99_s: h.p99(),
                    sketch_p50_s: Some(s.p50()),
                    sketch_p95_s: Some(s.p95()),
                    sketch_p99_s: Some(s.p99()),
                    throughput: self.completed[i] as f64 / horizon_s,
                }
            })
            .collect();
        let n = self.node_up.len() as f64;
        PerfResult {
            tenants,
            node_failures: self.node_failures,
            mean_disk_utilization: self
                .disk_pools
                .iter()
                .map(|p| p.utilization(end))
                .sum::<f64>()
                / n,
            mean_nic_utilization: self
                .nic_pools
                .iter()
                .map(|p| p.utilization(end))
                .sum::<f64>()
                / n,
            horizon_s,
        }
    }

    fn handle_arrival(&mut self, tenant: usize, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let zipf = &self.zipfs[tenant];
        let request = self.cfg.tenants[tenant]
            .mix
            .draw_request(tenant, zipf, &mut self.rng);
        let client = self.rng.index(self.topo.node_count());
        // Distinct working-set tracking: keyspaces are per-tenant, so mix
        // the tenant index into the high bits (zipf ranks stay far below
        // 2^48) before the HLL's own scramble.
        ctx.touch("request_keys", request.key ^ ((tenant as u64) << 48));
        let mut holders = std::mem::take(&mut self.scratch_holders);
        self.holders_into(tenant, request.key, &mut holders);

        if request.write {
            let (w, per_disk) = match self.cfg.redundancy {
                RedundancyScheme::Replication(q) => (q.w, request.bytes),
                RedundancyScheme::Erasure(s) => (s.total(), (request.bytes / s.k as u64).max(1)),
            };
            if holders.len() < w {
                self.failed[tenant] += 1;
                self.scratch_holders = holders;
                return;
            }
            let rid = self.reqs.admit(
                Req {
                    tenant,
                    nic_bytes: per_disk * w as u64,
                    disk_bytes: per_disk,
                    write: true,
                    sequential: request.sequential,
                    nic_dst: holders[0],
                    pending_disks: w,
                    start: now,
                },
                &holders[..w],
            );
            self.scratch_holders = holders;
            // Push all copies out the client NIC, then commit on disks.
            self.submit_nic(client, rid, ctx);
        } else {
            // Reads: replication serves from one replica; erasure coding
            // must gather k shards from k distinct holders (degraded or
            // not), then stream the reassembled object to the client.
            let (serving, fan, per_disk): (usize, usize, u64) = match self.cfg.redundancy {
                RedundancyScheme::Replication(_) => {
                    if holders.is_empty() {
                        self.failed[tenant] += 1;
                        self.scratch_holders = holders;
                        return;
                    }
                    (self.choose_serving(client, &holders), 1, request.bytes)
                }
                RedundancyScheme::Erasure(spec) => {
                    if holders.len() < spec.k {
                        self.failed[tenant] += 1;
                        self.scratch_holders = holders;
                        return;
                    }
                    (holders[0], spec.k, (request.bytes / spec.k as u64).max(1))
                }
            };
            let rid = self.reqs.admit(
                Req {
                    tenant,
                    nic_bytes: request.bytes,
                    disk_bytes: per_disk,
                    write: false,
                    sequential: request.sequential,
                    nic_dst: client,
                    pending_disks: fan,
                    start: now,
                },
                &[],
            );
            // Point reads may be served from the buffer cache (no disk I/O).
            if !request.sequential && self.rng.chance(self.cache_hit_p) {
                self.submit_nic(serving, rid, ctx);
            } else if fan == 1 {
                // Replication: the single chosen replica serves the read.
                self.submit_disk(serving, rid, ctx);
            } else {
                // Erasure: gather the first k shards.
                for &h in holders.iter().take(fan) {
                    self.submit_disk(h, rid, ctx);
                }
            }
            self.scratch_holders = holders;
        }
    }

    /// Spawns background repair streams after a node failure.
    fn spawn_repair_traffic(&mut self, now: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let total_bytes: u64 = self
            .cfg
            .tenants
            .iter()
            .map(|t| t.object_bytes * PARTITIONS)
            .sum::<u64>()
            .saturating_mul(self.cfg.redundancy.width() as u64)
            / self.topo.node_count().max(1) as u64;
        let streams = self.cfg.tenants.len().max(1) * 4;
        let per_stream = (total_bytes / streams as u64).max(1);
        let candidates: Vec<usize> = (0..self.topo.node_count())
            .filter(|&n| self.node_available(n))
            .collect();
        if candidates.is_empty() {
            return;
        }
        for _ in 0..streams {
            let src = candidates[self.rng.index(candidates.len())];
            let dst = candidates[self.rng.index(candidates.len())];
            let rid = self.reqs.admit(
                Req {
                    tenant: REPAIR_TENANT,
                    nic_bytes: per_stream,
                    disk_bytes: per_stream,
                    write: false,
                    sequential: true,
                    nic_dst: dst,
                    pending_disks: 0,
                    start: now,
                },
                &[],
            );
            self.submit_nic(src, rid, ctx);
        }
    }
}

impl Model for PerfState<'_> {
    type Event = Ev;

    fn label(ev: &Ev) -> &'static str {
        match ev {
            Ev::Arrival { .. } => "Arrival",
            Ev::DiskDone { .. } => "DiskDone",
            Ev::NicDone { .. } => "NicDone",
            Ev::NodeFail { .. } => "NodeFail",
            Ev::NodeBack { .. } => "NodeBack",
            Ev::ChaosStart { .. } => "ChaosStart",
            Ev::ChaosEnd { .. } => "ChaosEnd",
        }
    }

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        match ev {
            Ev::Arrival { tenant } => {
                // Schedule the next arrival first (open loop).
                let gap = self.next_arrival_gap(tenant);
                ctx.schedule_in(gap, Ev::Arrival { tenant });
                self.handle_arrival(tenant, now, ctx);
            }

            Ev::DiskDone { node, rid } => {
                // Free the disk and start the next queued job.
                if let Some(next) = self.disk_pools[node].depart(now) {
                    let dur = self.disk_service(node, next);
                    ctx.schedule_in(dur, Ev::DiskDone { node, rid: next });
                }
                let req = self.reqs.get_mut(rid);
                req.pending_disks = req.pending_disks.saturating_sub(1);
                if req.pending_disks == 0 {
                    if req.write {
                        self.complete(rid, now, ctx);
                    } else {
                        // Read: all shards gathered; stream the object back
                        // through this node's NIC.
                        self.submit_nic(node, rid, ctx);
                    }
                }
            }

            Ev::NicDone { node, rid } => {
                if let Some(next) = self.nic_pools[node].depart(now) {
                    let dur = self.nic_service(node, next);
                    ctx.schedule_in(dur, Ev::NicDone { node, rid: next });
                }
                let req = self.reqs.get(rid);
                if req.tenant == REPAIR_TENANT {
                    self.reqs.retire(rid);
                    return;
                }
                if req.write {
                    // Fan-out done; commit on each target disk. No disk
                    // job has run yet, so `pending_disks` is still the
                    // write set's size.
                    for i in 0..req.pending_disks {
                        self.submit_disk(self.reqs.target(rid, i), rid, ctx);
                    }
                } else {
                    self.complete(rid, now, ctx);
                }
            }

            Ev::NodeFail { node } => {
                if !self.node_up[node] {
                    return;
                }
                self.node_up[node] = false;
                self.node_failures += 1;
                self.spawn_repair_traffic(now, ctx);
                let back = self.cfg.topology.node.repair.sample(&mut self.rng);
                ctx.schedule_in(SimDuration::from_secs(back), Ev::NodeBack { node });
            }

            Ev::NodeBack { node } => {
                self.node_up[node] = true;
                let cfg = self.cfg;
                let ttf_dist = cfg.node_ttf.as_ref().unwrap_or(&cfg.topology.node.ttf);
                let ttf = ttf_dist.sample(&mut self.rng);
                ctx.schedule_in(SimDuration::from_secs(ttf), Ev::NodeFail { node });
            }

            Ev::ChaosStart { fault } => {
                ctx.mark(self.chaos_faults[fault].mark);
                let until = self.chaos_faults[fault].until_s;
                // Borrow the effect in place (it lives in `chaos_faults`,
                // the arms only touch `chaos_down`/`chaos_limp_active`);
                // `recompute_chaos_limp` re-reads `chaos_faults`, so it
                // runs after the borrow ends.
                let npr = self.cfg.topology.nodes_per_rack.max(1);
                let count = self.chaos_down.len();
                let mut limp_changed = false;
                match &self.chaos_faults[fault].effect {
                    FaultEffect::NodesDown { nodes } => {
                        for &n in nodes {
                            self.chaos_down[n] += 1;
                        }
                    }
                    FaultEffect::RacksDown { racks } => {
                        for &r in racks {
                            for n in (r * npr).min(count)..((r + 1) * npr).min(count) {
                                self.chaos_down[n] += 1;
                            }
                        }
                    }
                    FaultEffect::Limp { .. } => {
                        self.chaos_limp_active.push(fault);
                        limp_changed = true;
                    }
                    // Repair concurrency is an availability-engine
                    // resource; the perf engine's repair traffic is
                    // open-loop streams with no concurrency knob to clamp.
                    FaultEffect::RepairThrottle { .. } => {}
                }
                if limp_changed {
                    self.recompute_chaos_limp();
                }
                ctx.schedule_at(
                    SimTime::ZERO + SimDuration::from_secs(until.max(now.as_secs())),
                    Ev::ChaosEnd { fault },
                );
            }

            Ev::ChaosEnd { fault } => {
                ctx.mark("chaos_restore");
                let npr = self.cfg.topology.nodes_per_rack.max(1);
                let count = self.chaos_down.len();
                let mut limp_changed = false;
                match &self.chaos_faults[fault].effect {
                    FaultEffect::NodesDown { nodes } => {
                        for &n in nodes {
                            self.chaos_down[n] = self.chaos_down[n].saturating_sub(1);
                        }
                    }
                    FaultEffect::RacksDown { racks } => {
                        for &r in racks {
                            for n in (r * npr).min(count)..((r + 1) * npr).min(count) {
                                self.chaos_down[n] = self.chaos_down[n].saturating_sub(1);
                            }
                        }
                    }
                    FaultEffect::Limp { .. } => {
                        self.chaos_limp_active.retain(|&i| i != fault);
                        limp_changed = true;
                    }
                    FaultEffect::RepairThrottle { .. } => {}
                }
                if limp_changed {
                    self.recompute_chaos_limp();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_hw::catalog;

    fn topo(disk: wt_hw::DiskSpec, nic: wt_hw::NicSpec) -> TopologySpec {
        TopologySpec {
            racks: 2,
            nodes_per_rack: 5,
            node: catalog::node_storage_server(disk, 4, nic),
            tor: catalog::switch_tor_48x10g(),
            agg: catalog::switch_agg_32x40g(),
            oversubscription: 4.0,
        }
    }

    fn base(tenants: Vec<TenantWorkload>) -> PerfModel {
        PerfModel {
            topology: topo(catalog::ssd_sata_1t(), catalog::nic_10g()),
            redundancy: RedundancyScheme::replication(3),
            placement: Placement::Random,
            tenants,
            limpware: None,
            inject_failures: false,
            node_ttf: None,
            horizon_s: 120.0,
            chaos: None,
        }
    }

    #[test]
    fn light_load_fast_reads() {
        let m = base(vec![TenantWorkload::oltp("shop", 50.0, 10_000)]);
        let r = m.run(1);
        let t = &r.tenants[0];
        assert!(t.completed > 3_000, "completed {}", t.completed);
        assert_eq!(t.failed, 0);
        // SSD point reads over 10G: well under 10 ms at p95.
        assert!(t.p95_s < 0.010, "p95 {}", t.p95_s);
        assert!((t.throughput - 50.0).abs() < 5.0, "tput {}", t.throughput);
    }

    #[test]
    fn overload_blows_latency() {
        // HDD at high IOPS demand: queues explode vs the same load on SSD.
        let hdd = PerfModel {
            topology: topo(catalog::hdd_7200_4t(), catalog::nic_10g()),
            ..base(vec![TenantWorkload::oltp("shop", 2_000.0, 10_000)])
        };
        let ssd = base(vec![TenantWorkload::oltp("shop", 2_000.0, 10_000)]);
        let rh = hdd.run(2);
        let rs = ssd.run(2);
        assert!(
            rh.tenants[0].p95_s > 10.0 * rs.tenants[0].p95_s,
            "hdd p95 {} vs ssd p95 {}",
            rh.tenants[0].p95_s,
            rs.tenants[0].p95_s
        );
        assert!(rh.mean_disk_utilization > rs.mean_disk_utilization);
    }

    #[test]
    fn colocation_raises_tail_latency() {
        // §3: adding a scan-heavy tenant hurts the OLTP tenant's p95.
        let alone = base(vec![TenantWorkload::oltp("shop", 200.0, 10_000)]);
        let shared = base(vec![
            TenantWorkload::oltp("shop", 200.0, 10_000),
            TenantWorkload::analytics("reports", 8.0, 1_000),
        ]);
        let ra = alone.run(3);
        let rs = shared.run(3);
        let (alone_t, shared_t) = (ra.tenant("shop").unwrap(), rs.tenant("shop").unwrap());
        // A shop read occasionally queues behind a 64 MB scan: the mean
        // moves by the collision probability × scan residence, and the p99
        // jumps to scan-transfer scale.
        assert!(
            shared_t.mean_s > 2.0 * alone_t.mean_s,
            "co-location should hurt the mean: alone {} vs shared {}",
            alone_t.mean_s,
            shared_t.mean_s
        );
        assert!(
            shared_t.p99_s > 5.0 * alone_t.p99_s,
            "co-location should blow the tail: alone {} vs shared {}",
            alone_t.p99_s,
            shared_t.p99_s
        );
    }

    #[test]
    fn limpware_nic_hurts_tails() {
        let healthy = base(vec![TenantWorkload::oltp("shop", 200.0, 10_000)]);
        let mut limping = base(vec![TenantWorkload::oltp("shop", 200.0, 10_000)]);
        limping.limpware = Some(LimpwareSpec::degraded_nic(0.3));
        let rh = healthy.run(4);
        let rl = limping.run(4);
        // Reads served through a limping NIC take ~100× on the wire; with
        // ~30% of nodes limping both the mean and the tail move visibly.
        assert!(
            rl.tenants[0].mean_s > 1.5 * rh.tenants[0].mean_s,
            "limping mean {} should exceed healthy {}",
            rl.tenants[0].mean_s,
            rh.tenants[0].mean_s
        );
        assert!(
            rl.tenants[0].p99_s > rh.tenants[0].p99_s,
            "limping p99 {} should exceed healthy {}",
            rl.tenants[0].p99_s,
            rh.tenants[0].p99_s
        );
    }

    #[test]
    fn failures_inject_repair_traffic_and_hurt_latency() {
        let calm = base(vec![TenantWorkload::oltp("shop", 300.0, 10_000)]);
        let mut stormy = base(vec![TenantWorkload::oltp("shop", 300.0, 10_000)]);
        stormy.inject_failures = true;
        // Very short node lifetime so failures definitely occur in 120 s.
        stormy.node_ttf = Some(Dist::exponential_mean(30.0));
        let rc = calm.run(5);
        let rs = stormy.run(5);
        assert_eq!(rc.node_failures, 0);
        assert!(rs.node_failures > 0, "no failures injected");
        assert!(
            rs.tenants[0].p99_s >= rc.tenants[0].p99_s,
            "failures should not improve tails: {} vs {}",
            rs.tenants[0].p99_s,
            rc.tenants[0].p99_s
        );
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut m = base(vec![TenantWorkload::oltp("shop", 100.0, 10_000)]);
        m.tenants[0].mix.write_weight = 1.0;
        m.tenants[0].mix.read_weight = 0.0;
        let writes = m.run(6);
        let mut m2 = base(vec![TenantWorkload::oltp("shop", 100.0, 10_000)]);
        m2.tenants[0].mix.write_weight = 0.0;
        m2.tenants[0].mix.read_weight = 1.0;
        let reads = m2.run(6);
        assert!(
            writes.tenants[0].mean_s > reads.tenants[0].mean_s,
            "writes {} should cost more than reads {}",
            writes.tenants[0].mean_s,
            reads.tenants[0].mean_s
        );
    }

    /// Counts handled `Arrival` events.
    struct ArrivalCount(u64);

    impl wt_des::obs::Probe for ArrivalCount {
        fn on_event(&mut self, label: &'static str, _now_s: f64, _queue_depth: usize) {
            if label == "Arrival" {
                self.0 += 1;
            }
        }
    }

    #[test]
    fn requests_are_conserved_and_slots_reused() {
        // Overloaded: oltp writes and analytics scans through 1 Gb NICs,
        // while node failures every few seconds push repair streams
        // through the same NICs. Queues grow for the whole run.
        let mut m = PerfModel {
            topology: topo(catalog::ssd_sata_1t(), catalog::nic_1g()),
            ..base(vec![
                TenantWorkload::oltp("shop", 300.0, 10_000),
                TenantWorkload::analytics("bi", 8.0, 1_000),
            ])
        };
        m.tenants[0].mix.write_weight = 0.5;
        m.inject_failures = true;
        m.node_ttf = Some(Dist::exponential_mean(20.0));
        m.horizon_s = 30.0;
        let end = SimTime::ZERO + SimDuration::from_secs(m.horizon_s);
        let mut sim = m.seeded_sim(31);
        let mut arrivals = ArrivalCount(0);
        // A budget one event past the count so far runs one event per
        // call, so the number in flight is read after every handler.
        let mut peak_in_flight = 0;
        loop {
            sim.set_event_budget(sim.events_executed() + 1);
            match sim.run_until(end, &mut arrivals) {
                StopReason::EventBudgetExhausted => {}
                StopReason::HorizonReached => break,
                other => panic!("unexpected stop {other:?}"),
            }
            peak_in_flight = peak_in_flight.max(sim.model().reqs.live);
        }
        let s = sim.model();
        assert!(s.node_failures > 0, "no repair streams ran");
        let table = &s.reqs;
        assert!(table.pages.len() > 1, "the run must fill more than a page");
        let slots: Vec<&Slot> = table.pages.iter().flat_map(|p| &p.slots).collect();
        let live_tenant = slots
            .iter()
            .filter(|s| matches!(s, Slot::Live(r) if r.tenant != REPAIR_TENANT))
            .count() as u64;
        assert!(live_tenant > 0, "the run must end with requests queued");
        let (completed, failed): (u64, u64) = (s.completed.iter().sum(), s.failed.iter().sum());
        assert_eq!(
            arrivals.0,
            completed + failed + live_tenant,
            "every arrival completes, fails or is still in flight"
        );
        // The free list runs through exactly the free slots...
        let free = slots
            .iter()
            .filter(|s| matches!(s, Slot::Free { .. }))
            .count();
        assert_eq!(free + table.live, table.len());
        let (mut rid, mut walked) = (table.free, 0);
        while rid != NO_SLOT {
            assert!(walked < free, "the free list is longer than the free slots");
            let Slot::Free { next } = *slots[rid as usize] else {
                panic!("the free list reaches live request {rid}");
            };
            (rid, walked) = (next, walked + 1);
        }
        assert_eq!(walked, free);
        // ...so the table is exactly as large as the most requests ever
        // in flight at once.
        assert_eq!(table.len(), peak_in_flight);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn freeing_a_free_slot_asserts() {
        let mut table = ReqTable::new(3);
        let req = Req {
            tenant: 0,
            nic_bytes: 1,
            disk_bytes: 1,
            write: false,
            sequential: false,
            nic_dst: 0,
            pending_disks: 1,
            start: SimTime::ZERO,
        };
        let rid = table.admit(req, &[]);
        table.retire(rid);
        table.retire(rid);
    }

    #[test]
    fn write_sets_survive_slot_reuse_across_pages() {
        let mut table = ReqTable::new(3);
        let req = |tenant| Req {
            tenant,
            nic_bytes: 1,
            disk_bytes: 1,
            write: true,
            sequential: false,
            nic_dst: 0,
            pending_disks: 3,
            start: SimTime::ZERO,
        };
        // Fill a page and a half, each request writing to its own nodes.
        let n = PAGE_SLOTS + PAGE_SLOTS / 2;
        let rids: Vec<u32> = (0..n)
            .map(|t| table.admit(req(t), &[t, t + 1, t + 2]))
            .collect();
        assert_eq!(rids, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(table.pages.len(), 2);
        // Free two slots on different pages; the next two requests take
        // them back, most recently freed first, with their own write sets.
        table.retire(5);
        table.retire(PAGE_SLOTS as u32 + 7);
        assert_eq!(table.admit(req(n), &[9, 8, 7]), PAGE_SLOTS as u32 + 7);
        assert_eq!(table.admit(req(n + 1), &[6, 5, 4]), 5);
        assert_eq!(table.len(), n);
        assert_eq!(table.live, n);
        let set = |rid| (0..3).map(|i| table.target(rid, i)).collect::<Vec<_>>();
        assert_eq!(set(PAGE_SLOTS as u32 + 7), [9, 8, 7]);
        assert_eq!(set(5), [6, 5, 4]);
        assert_eq!(
            set(PAGE_SLOTS as u32 + 8),
            [PAGE_SLOTS + 8, PAGE_SLOTS + 9, PAGE_SLOTS + 10]
        );
        assert_eq!(table.get(5).tenant, n + 1);
        // A new slot is handed out only when none is free.
        assert_eq!(table.admit(req(0), &[]), n as u32);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = base(vec![TenantWorkload::oltp("shop", 100.0, 1_000)]);
        let a = m.run(7);
        let b = m.run(7);
        assert_eq!(a, b);
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let m = base(vec![TenantWorkload::oltp("shop", 100.0, 1_000)]);
        let plain = m.run(9);
        let (observed, t) = m.run_observed(9, None);
        assert_eq!(observed, plain, "probe must not perturb the simulation");
        assert!(t.events > 0);
        assert_eq!(t.events_by_label.values().sum::<u64>(), t.events);
        assert!(t.events_by_label.contains_key("Arrival"));
        assert!(t.events_by_label.contains_key("DiskDone"));
        assert_eq!(t.stop_reason, "HorizonReached");
    }

    #[test]
    fn erasure_reads_fan_to_k_shards() {
        // rs(4,2) reads gather 4 shards: roughly 4x the disk operations of
        // a replicated read (each smaller), visible as higher disk
        // utilization at equal request rate; and zero failures while >= k
        // shards are reachable.
        let mk = |red: RedundancyScheme| {
            let mut m = base(vec![TenantWorkload::oltp("shop", 300.0, 10_000)]);
            m.tenants[0].mix.write_weight = 0.0;
            m.tenants[0].mix.read_weight = 1.0;
            m.redundancy = red;
            m
        };
        let rep = mk(RedundancyScheme::replication(3)).run(11);
        let rs = mk(RedundancyScheme::erasure(4, 2)).run(11);
        assert_eq!(rs.tenants[0].failed, 0);
        assert!(rs.tenants[0].completed > 10_000);
        assert!(
            rs.mean_disk_utilization > 2.0 * rep.mean_disk_utilization,
            "rs disk util {} vs rep {}",
            rs.mean_disk_utilization,
            rep.mean_disk_utilization
        );
        // Reassembly also makes the read slower end-to-end.
        assert!(rs.tenants[0].mean_s >= rep.tenants[0].mean_s);
    }

    #[test]
    fn more_memory_lowers_latency_on_hdd() {
        // The E4 provisioning axis: DRAM absorbs point reads that would
        // otherwise pay an HDD seek.
        let mk = |mem_gb: f64| {
            let mut node =
                catalog::node_with_memory(catalog::hdd_7200_4t(), 4, catalog::nic_10g(), mem_gb);
            node.ttf =
                catalog::node_storage_server(catalog::hdd_7200_4t(), 4, catalog::nic_10g()).ttf;
            PerfModel {
                topology: TopologySpec {
                    racks: 2,
                    nodes_per_rack: 5,
                    node,
                    tor: catalog::switch_tor_48x10g(),
                    agg: catalog::switch_agg_32x40g(),
                    oversubscription: 4.0,
                },
                redundancy: RedundancyScheme::replication(3),
                placement: Placement::Random,
                tenants: vec![TenantWorkload::oltp("shop", 300.0, 100_000)],
                limpware: None,
                inject_failures: false,
                node_ttf: None,
                horizon_s: 60.0,
                chaos: None,
            }
        };
        let small = mk(16.0).run(8); // 160 GB cache vs 2 TB data: ~8% hits
        let big = mk(200.0).run(8); // 2 TB cache: ~100% hits
        assert!(
            big.tenants[0].mean_s < 0.5 * small.tenants[0].mean_s,
            "more DRAM should slash HDD read latency: {} vs {}",
            big.tenants[0].mean_s,
            small.tenants[0].mean_s
        );
        assert!(big.mean_disk_utilization < small.mean_disk_utilization);
    }

    fn chaos(schedule: crate::chaos::FaultSchedule) -> Option<ChaosConfig> {
        // The test topology is 2 racks × 5 nodes.
        Some(ChaosConfig {
            schedule,
            nodes_per_rack: 5,
        })
    }

    #[test]
    fn empty_fault_schedule_is_inert() {
        let mut with_empty = base(vec![TenantWorkload::oltp("shop", 100.0, 1_000)]);
        with_empty.chaos = chaos(crate::chaos::FaultSchedule::new());
        let plain = base(vec![TenantWorkload::oltp("shop", 100.0, 1_000)]).run(21);
        assert_eq!(
            with_empty.run(21),
            plain,
            "empty schedule must be bit-identical to none"
        );
    }

    #[test]
    fn maintenance_window_fails_requests_while_drained() {
        use crate::chaos::{FaultKind, FaultSchedule};
        let mut m = base(vec![TenantWorkload::oltp("shop", 100.0, 10_000)]);
        // Drain the entire cluster for half the horizon: every request in
        // the window finds no live holder, everything outside succeeds.
        m.chaos = chaos(FaultSchedule::new().rule(
            "drain",
            30.0,
            FaultKind::MaintenanceWindow {
                first_node: 0,
                nodes: 10,
                duration_s: 60.0,
            },
        ));
        let (r, t) = m.run_observed(22, None);
        let shop = &r.tenants[0];
        assert!(
            shop.failed > 2_000,
            "in-window requests fail: {}",
            shop.failed
        );
        assert!(
            shop.completed > 2_000,
            "out-of-window requests succeed: {}",
            shop.completed
        );
        assert_eq!(t.marks.get("inject_maintenance"), Some(&1));
        assert_eq!(t.marks.get("chaos_restore"), Some(&1));
        // Drained ≠ failed: no repair traffic, no failure-timer churn.
        assert_eq!(r.node_failures, 0);
    }

    #[test]
    fn gray_storm_inflates_latency() {
        use crate::chaos::{FaultKind, FaultSchedule};
        let calm = base(vec![TenantWorkload::oltp("shop", 200.0, 10_000)]);
        let mut stormy = base(vec![TenantWorkload::oltp("shop", 200.0, 10_000)]);
        stormy.chaos = chaos(FaultSchedule::new().rule(
            "storm",
            0.0,
            FaultKind::GrayStorm {
                spec: LimpwareSpec::degraded_nic(0.5),
                center_rack: 0,
                radius_racks: 1,
                duration_s: 120.0,
            },
        ));
        let rc = calm.run(23);
        let rs = stormy.run(23);
        assert!(
            rs.tenants[0].mean_s > rc.tenants[0].mean_s,
            "storm mean {} should exceed calm {}",
            rs.tenants[0].mean_s,
            rc.tenants[0].mean_s
        );
    }

    #[test]
    fn chaos_is_deterministic() {
        use crate::chaos::{FaultKind, FaultSchedule};
        let mut m = base(vec![TenantWorkload::oltp("shop", 150.0, 5_000)]);
        m.chaos = chaos(
            FaultSchedule::new()
                .rule(
                    "storm",
                    10.0,
                    FaultKind::GrayStorm {
                        spec: LimpwareSpec::degraded_nic(0.4),
                        center_rack: 1,
                        radius_racks: 0,
                        duration_s: 40.0,
                    },
                )
                .rule(
                    "tor",
                    70.0,
                    FaultKind::TorDeath {
                        rack: 0,
                        repair_s: 20.0,
                    },
                ),
        );
        let a = m.run(24);
        let b = m.run(24);
        assert_eq!(a, b, "same seed must replay identically under chaos");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wt_hw::catalog;

    fn model(
        rate: f64,
        keys: u64,
        replication: usize,
        racks: usize,
        per_rack: usize,
        horizon_s: f64,
    ) -> PerfModel {
        PerfModel {
            topology: TopologySpec {
                racks,
                nodes_per_rack: per_rack,
                node: catalog::node_storage_server(catalog::ssd_sata_1t(), 2, catalog::nic_10g()),
                tor: catalog::switch_tor_48x10g(),
                agg: catalog::switch_agg_32x40g(),
                oversubscription: 4.0,
            },
            redundancy: RedundancyScheme::replication(replication),
            placement: Placement::Random,
            tenants: vec![TenantWorkload::oltp("t", rate, keys)],
            limpware: None,
            inject_failures: false,
            node_ttf: None,
            horizon_s,
            chaos: None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Engine invariants across random (sane) configurations: latency
        /// percentiles are ordered and non-negative, completions are
        /// plausible for the offered load, and identical seeds replay
        /// identically.
        #[test]
        fn perf_engine_invariants(
            rate in 10.0f64..300.0,
            keys in 100u64..50_000,
            replication in 1usize..4,
            racks in 1usize..3,
            per_rack in 3usize..8,
            seed in 0u64..500,
        ) {
            prop_assume!(replication <= racks * per_rack);
            let m = model(rate, keys, replication, racks, per_rack, 30.0);
            let r = m.run(seed);
            let t = &r.tenants[0];
            prop_assert!(t.p50_s >= 0.0);
            prop_assert!(t.p50_s <= t.p95_s + 1e-12);
            prop_assert!(t.p95_s <= t.p99_s + 1e-12);
            prop_assert!(t.mean_s >= 0.0 && t.mean_s.is_finite());
            // Open-loop at light utilization: completed + failed + in-flight
            // tracks the arrivals; allow wide slack for Poisson noise.
            let expected = rate * 30.0;
            prop_assert!(
                (t.completed + t.failed) as f64 > expected * 0.7,
                "completed {} + failed {} vs expected ~{}",
                t.completed, t.failed, expected
            );
            prop_assert!((0.0..=1.0).contains(&r.mean_disk_utilization));
            prop_assert!((0.0..=1.0).contains(&r.mean_nic_utilization));
            // Determinism.
            let r2 = m.run(seed);
            prop_assert_eq!(r, r2);
        }
    }
}
