//! Engine-in-the-loop kernel benchmark, the only one: drives
//! [`Simulation`] itself — handler dispatch, RNG draws, probe plumbing
//! and the future-event list together — rather than raw queue push/pop
//! (the `des_kernel` microbench). Two workloads bracket the wind
//! tunnel's event profiles:
//!
//! * `churn` — a failure/repair churn model: every component always has
//!   exactly one pending timer, so the pending set stays at `COMPONENTS`
//!   (thousands) and the future-event list dominates per-event cost. This
//!   is the availability engine's steady-state shape at cluster scale.
//! * `mmc` — an M/M/c station: a handful of pending events (one arrival,
//!   c departures), handler and RNG cost dominate. This is the perf
//!   engine's shape.
//!
//! Arms are interleaved sample by sample with the order rotated so slow
//! drift penalizes each alike; best-of strips scheduler noise and the
//! median is reported alongside. Writes `BENCH_kernel.json` at the
//! workspace root (override with `BENCH_KERNEL_OUT=...`).

use std::fmt::Write as _;
use std::time::Instant;
use wt_cluster::availability::{AvailabilityModel, DiskFailureModel, RebuildModel};
use wt_des::obs::NoProbe;
use wt_des::prelude::*;
use wt_des::rng::RngFactory;
use wt_des::ServerPool;
use wt_dist::Dist;
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};

const SAMPLES: usize = 10;

/// A bench arm: label plus a thunk returning the run fingerprint
/// (events executed, final clock, model state hash).
type Arm<'a> = (&'a str, &'a dyn Fn() -> (u64, SimTime, u64));
const COMPONENTS: usize = 8192;
const CHURN_EVENTS: u64 = 1_500_000;
const MMC_EVENTS: u64 = 1_500_000;

// --- churn: COMPONENTS self-rescheduling failure/repair timers ----------

enum ChurnEv {
    Fail(u32),
    Repair(u32),
}

struct Churn {
    rng: wt_des::rng::Stream,
    mean_up: Dist,
    mean_down: Dist,
    failures: u64,
}

impl Model for Churn {
    type Event = ChurnEv;
    fn handle(&mut self, ev: ChurnEv, ctx: &mut Ctx<'_, ChurnEv>) {
        match ev {
            ChurnEv::Fail(c) => {
                self.failures += 1;
                let down = SimDuration::from_secs(self.mean_down.sample(&mut self.rng));
                ctx.schedule_in(down, ChurnEv::Repair(c));
            }
            ChurnEv::Repair(c) => {
                let up = SimDuration::from_secs(self.mean_up.sample(&mut self.rng));
                ctx.schedule_in(up, ChurnEv::Fail(c));
            }
        }
    }
    fn label(ev: &ChurnEv) -> &'static str {
        match ev {
            ChurnEv::Fail(_) => "Fail",
            ChurnEv::Repair(_) => "Repair",
        }
    }
}

/// Runs the churn workload for `CHURN_EVENTS` events; returns a state
/// fingerprint (events, final clock, failure count).
fn run_churn(seed: u64) -> (u64, SimTime, u64) {
    let factory = RngFactory::new(seed);
    let model = Churn {
        rng: factory.stream("churn"),
        mean_up: Dist::exponential_mean(1.0),
        mean_down: Dist::exponential_mean(0.05),
        failures: 0,
    };
    let mut sim = Simulation::new(model);
    sim.reserve_events(COMPONENTS);
    let mut seed_rng = factory.stream("phases");
    for c in 0..COMPONENTS {
        let phase = SimDuration::from_secs(seed_rng.uniform());
        sim.schedule_in(phase, ChurnEv::Fail(c as u32));
    }
    sim.set_event_budget(CHURN_EVENTS);
    sim.run_until(SimTime::MAX, &mut NoProbe);
    (sim.events_executed(), sim.now(), sim.model().failures)
}

// --- mmc: M/M/4 station, tiny pending set -------------------------------

enum MmcEv {
    Arrival,
    Departure,
}

struct Mmc {
    interarrival: Dist,
    service: Dist,
    pool: ServerPool<()>,
    rng: wt_des::rng::Stream,
}

impl Model for Mmc {
    type Event = MmcEv;
    fn handle(&mut self, ev: MmcEv, ctx: &mut Ctx<'_, MmcEv>) {
        let now = ctx.now();
        match ev {
            MmcEv::Arrival => {
                let gap = SimDuration::from_secs(self.interarrival.sample(&mut self.rng));
                ctx.schedule_in(gap, MmcEv::Arrival);
                if self.pool.arrive(now, ()).is_some() {
                    let s = SimDuration::from_secs(self.service.sample(&mut self.rng));
                    ctx.schedule_in(s, MmcEv::Departure);
                }
            }
            MmcEv::Departure => {
                if self.pool.depart(now).is_some() {
                    let s = SimDuration::from_secs(self.service.sample(&mut self.rng));
                    ctx.schedule_in(s, MmcEv::Departure);
                }
            }
        }
    }
    fn label(ev: &MmcEv) -> &'static str {
        match ev {
            MmcEv::Arrival => "Arrival",
            MmcEv::Departure => "Departure",
        }
    }
}

fn run_mmc(seed: u64) -> (u64, SimTime, u64) {
    let factory = RngFactory::new(seed);
    let model = Mmc {
        interarrival: Dist::exponential_mean(1.0),
        service: Dist::exponential_mean(3.6), // rho = 0.9 at c = 4
        pool: ServerPool::new(4, SimTime::ZERO),
        rng: factory.stream("mmc"),
    };
    let mut sim = Simulation::new(model);
    sim.schedule_at(SimTime::ZERO, MmcEv::Arrival);
    sim.set_event_budget(MMC_EVENTS);
    sim.run_until(SimTime::MAX, &mut NoProbe);
    (
        sim.events_executed(),
        sim.now(),
        sim.model().pool.completions(),
    )
}

// --- avail scale: the availability engine at 100k / 1M components --------
//
// Engine-in-the-loop at data-center scale: dense storage nodes (63 disk
// slots each, so components = 64 × nodes), half a replica-set of objects
// per component, realistic failure rates. Unlike `churn`/`mmc`, these
// arms time a *real* `AvailabilityModel::run` end to end — placement and
// initial-timer setup included — because setup cost is part of what the
// SoA layout buys at this size. Each sample runs in a re-exec'd child
// process so peak RSS (Linux `VmHWM`) is attributable per arm.

/// Disk slots per node in the scale arms; components = nodes × (1 + 63).
const SCALE_DISKS_PER_NODE: usize = 63;
/// 15_625 × 64 = exactly 1M components.
const SCALE_1M_NODES: usize = 15_625;
/// 1_563 × 64 = 100_032 components (the "100k" arm).
const SCALE_100K_NODES: usize = 1_563;
const SCALE_SAMPLES: usize = 3;
const SCALE_HORIZON_YEARS: f64 = 0.1;
const SCALE_SEED: u64 = 1;

fn scale_model(nodes: usize) -> AvailabilityModel {
    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.0 * DAY;
    AvailabilityModel {
        n_nodes: nodes,
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        // Half an object per component: 3 replicas land on ~1.5× the
        // disk-slot count, so a disk death destroys ~1.5 replicas.
        objects: (nodes * (1 + SCALE_DISKS_PER_NODE) / 2) as u64,
        object_bytes: 64 << 30,
        node_ttf: Dist::exponential_mean(20.0 * YEAR),
        node_replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
        rebuild: RebuildModel::Timed(Dist::exponential_mean(1800.0)),
        repair: RepairPolicy {
            max_parallel: 128,
            bandwidth_share: 0.5,
            detection_delay_s: 300.0,
        },
        switches: None,
        disks: Some(DiskFailureModel {
            per_node: SCALE_DISKS_PER_NODE,
            ttf: Dist::exponential_mean(2.0 * YEAR),
            replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
        }),
        chaos: None,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One end-to-end scale run; returns (events executed, result hash).
fn run_scale(nodes: usize) -> (u64, u64) {
    let m = scale_model(nodes);
    let r = m.run(SCALE_SEED, SimDuration::from_years(SCALE_HORIZON_YEARS));
    let json = serde_json::to_string(&r).expect("result serializes");
    (r.sim_events, fnv1a(json.as_bytes()))
}

/// Child-process entry: run one scale arm and report on stdout. The
/// parent re-execs itself with this env var so each sample's peak RSS
/// is the arm's own, not the max across every arm in one process.
const SCALE_CHILD_ENV: &str = "BENCH_KERNEL_SCALE_CHILD";

fn scale_child(spec: &str) -> ! {
    let t0 = Instant::now();
    let (events, fp) = run_scale(spec.parse().expect("child spec: <nodes>"));
    let elapsed = t0.elapsed().as_secs_f64();
    println!(
        "events={events} elapsed={elapsed} vmhwm_kb={} fp={fp:x}",
        wt_bench::peak_rss_kib()
    );
    std::process::exit(0);
}

struct ScaleStats {
    events: u64,
    elapsed: Vec<f64>,
    peak_rss_kb: u64,
    fp: String,
}

fn run_scale_arm(nodes: usize) -> ScaleStats {
    let exe = std::env::current_exe().expect("current_exe");
    let mut stats = ScaleStats {
        events: 0,
        elapsed: Vec::with_capacity(SCALE_SAMPLES),
        peak_rss_kb: 0,
        fp: String::new(),
    };
    for _ in 0..SCALE_SAMPLES {
        let out = std::process::Command::new(&exe)
            .env(SCALE_CHILD_ENV, nodes.to_string())
            .output()
            .expect("spawn scale child");
        assert!(out.status.success(), "scale child failed: {:?}", out.status);
        let text = String::from_utf8(out.stdout).expect("child stdout");
        let mut events = 0u64;
        let mut elapsed = 0.0f64;
        let mut rss = 0u64;
        let mut fp = String::new();
        for field in text.split_whitespace() {
            if let Some(v) = field.strip_prefix("events=") {
                events = v.parse().expect("events");
            } else if let Some(v) = field.strip_prefix("elapsed=") {
                elapsed = v.parse().expect("elapsed");
            } else if let Some(v) = field.strip_prefix("vmhwm_kb=") {
                rss = v.parse().expect("vmhwm");
            } else if let Some(v) = field.strip_prefix("fp=") {
                fp = v.to_string();
            }
        }
        assert!(
            events > 0 && elapsed > 0.0,
            "malformed child report: {text}"
        );
        if !stats.fp.is_empty() {
            assert_eq!(stats.fp, fp, "scale arm fingerprint drifted across samples");
        }
        stats.events = events;
        stats.elapsed.push(elapsed);
        stats.peak_rss_kb = stats.peak_rss_kb.max(rss);
        stats.fp = fp;
    }
    stats
}

// --- harness -------------------------------------------------------------

/// The measured source: `git rev-parse HEAD`, suffixed `-dirty` when
/// tracked files differ from it (as `git describe --dirty` marks it), or
/// `unknown` outside a git checkout.
fn source_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
    };
    let Some(head) = git(&["rev-parse", "HEAD"]).filter(|o| o.status.success()) else {
        return "unknown".to_string();
    };
    let head = String::from_utf8_lossy(&head.stdout).trim().to_string();
    let clean = git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| o.status.success());
    if clean {
        head
    } else {
        format!("{head}-dirty")
    }
}

fn best(v: &[f64]) -> f64 {
    v.iter().cloned().fold(f64::INFINITY, f64::min)
}

fn median(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[(sorted.len() - 1) / 2] + sorted[sorted.len() / 2]) / 2.0
}

/// Times `SAMPLES` runs of each arm, interleaved, returning per-arm
/// elapsed-seconds vectors.
fn time_arms(arms: &[Arm<'_>]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = arms.iter().map(|_| Vec::with_capacity(SAMPLES)).collect();
    for i in 0..SAMPLES {
        // Rotate the arm order each sample so drift hits all arms alike.
        for k in 0..arms.len() {
            let j = (k + i) % arms.len();
            let t0 = Instant::now();
            std::hint::black_box(arms[j].1());
            out[j].push(t0.elapsed().as_secs_f64());
        }
    }
    out
}

fn main() {
    // Re-exec'd child running one scale sample? Do that and nothing else.
    if let Ok(spec) = std::env::var(SCALE_CHILD_ENV) {
        scale_child(&spec);
    }
    // Warm-up, and a gate that each workload executes its full budget.
    assert_eq!(run_churn(1).0, CHURN_EVENTS, "churn drained early");
    assert_eq!(run_mmc(1).0, MMC_EVENTS, "mmc drained early");

    println!(
        "kernel_engine: {COMPONENTS} components, {CHURN_EVENTS} churn + {MMC_EVENTS} mmc events/sample, {SAMPLES} samples"
    );

    let arms: Vec<Arm<'_>> = vec![("churn", &|| run_churn(1)), ("mmc", &|| run_mmc(1))];
    let times = time_arms(&arms);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernel_engine\",");
    let _ = writeln!(
        json,
        "  \"host\": {{\"cpus\": {host_cpus}, \"commit\": \"{}\"}},",
        source_commit()
    );
    let _ = writeln!(
        json,
        "  \"metric\": \"full Simulation runs (engine loop + handlers + RNG) on the event list (a binary heap with one entry per run of equal-time pushes)\","
    );
    for ((name, _), (t, events)) in arms
        .iter()
        .zip(times.iter().zip([CHURN_EVENTS, MMC_EVENTS]))
    {
        let b = events as f64 / best(t);
        let m = events as f64 / median(t);
        println!("{name}: best {b:.0} ev/s, median {m:.0} ev/s");
        let _ = writeln!(json, "  \"{name}_events_per_s_best\": {b:.0},");
        let _ = writeln!(json, "  \"{name}_events_per_s_median\": {m:.0},");
    }
    // Availability engine at scale, one re-exec'd child per sample.
    println!();
    println!(
        "avail scale arms: {} samples each, horizon {SCALE_HORIZON_YEARS}y, \
         64 components/node ({SCALE_DISKS_PER_NODE} disks + the node)",
        SCALE_SAMPLES
    );
    for (label, nodes) in [("100k", SCALE_100K_NODES), ("1m", SCALE_1M_NODES)] {
        let s = run_scale_arm(nodes);
        let b = s.events as f64 / best(&s.elapsed);
        let m = s.events as f64 / median(&s.elapsed);
        let rss_mb = s.peak_rss_kb as f64 / 1024.0;
        println!(
            "avail_{label}: {} events, best {b:.0} ev/s, median {m:.0} ev/s, \
             peak RSS {rss_mb:.0} MiB",
            s.events
        );
        let _ = writeln!(json, "  \"avail_{label}_events\": {},", s.events);
        let _ = writeln!(json, "  \"avail_{label}_events_per_s_best\": {b:.0},");
        let _ = writeln!(json, "  \"avail_{label}_events_per_s_median\": {m:.0},");
        let _ = writeln!(json, "  \"avail_{label}_peak_rss_mb\": {rss_mb:.0},");
    }

    let _ = writeln!(json, "  \"samples\": {SAMPLES}");
    json.push_str("}\n");

    let out = std::env::var("BENCH_KERNEL_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json").to_string()
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("written to {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
