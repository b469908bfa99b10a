//! The four fixed workloads: a base scenario plus WTQL script text each.
//! The program under test receives only these two inputs. Names are
//! stable; the README records why each workload exists.
//!
//! The benchmark seed permutes the query text: the order of the sweep
//! axes and of the values inside each axis. The simulation seeds stay
//! fixed. Each grid has configurations close to its constraint
//! thresholds, so another simulation seed flips some verdicts, pruning
//! and early-stop then change the work by about ±20%, and no regression
//! bound could be told apart from that. A permuted query asks the same
//! design question: the same configurations simulate with the same
//! seeds, and only plan order, row order and farm scheduling move.

use windtunnel::prelude::*;

/// Workload names, in round-robin order.
pub const NAMES: [&str; 4] = ["avail_sweep", "guided_dense", "perf_sla", "scale_1m"];

/// Base-scenario seed of the first workload; workload `i` uses this + `i`.
const SCENARIO_SEED: u64 = 11;

/// One workload's inputs.
pub struct Workload {
    pub base: Scenario,
    pub script: String,
}

/// A query with its sweep clause kept apart, so the seed can permute it.
struct Query {
    head: &'static str,
    sweeps: Vec<(&'static str, Vec<&'static str>)>,
    tail: &'static str,
}

/// Builds the named workload; `seed` permutes its query text and `smoke`
/// shrinks it to well under a second. `None` for an unknown name.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let index = NAMES.iter().position(|n| *n == name)?;
    let scenario_seed = SCENARIO_SEED + index as u64;
    let (base, query) = match index {
        0 => avail_sweep(scenario_seed, smoke),
        1 => guided_dense(scenario_seed, smoke),
        2 => perf_sla(scenario_seed, smoke),
        _ => scale_1m(scenario_seed, smoke),
    };
    let mut rng = SplitMix(seed ^ ((index as u64) << 32));
    let mut sweeps = query.sweeps;
    for (_, values) in sweeps.iter_mut() {
        rng.shuffle(values);
    }
    rng.shuffle(&mut sweeps);
    let sweep: Vec<String> = sweeps
        .iter()
        .map(|(axis, values)| format!("{axis} IN [{}]", values.join(", ")))
        .collect();
    Some(Workload {
        base,
        // Every script ends in STATS, so the timed interval covers the
        // store report a user of the `wtql` CLI would see.
        script: format!(
            "{}\nSWEEP {}\n{}\nSTATS\n",
            query.head,
            sweep.join(", "),
            query.tail
        ),
    })
}

/// SplitMix64: a tiny deterministic generator for the permutations.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A constrained availability sweep with disk and switch failures on: the
/// availability event loop and the exhaustive executor's pruning.
fn avail_sweep(seed: u64, smoke: bool) -> (Scenario, Query) {
    let (racks, nodes, objects, years) = if smoke {
        (5, 10, 2_000, 0.5)
    } else {
        (20, 20, 20_000, 2.0)
    };
    let base = ScenarioBuilder::new("avail_sweep")
        .racks(racks)
        .nodes_per_rack(nodes)
        .disks_per_node(12)
        .switch_failures(true)
        .disk_failures(true)
        .objects(objects)
        .object_gb(4.0)
        .horizon_years(years)
        .seed(seed)
        .build();
    let query = Query {
        head: "EXPLORE availability, tco_usd_per_year",
        sweeps: vec![
            ("replication", vec!["2", "3"]),
            ("placement", vec![r#""R""#, r#""RR""#, r#""CS""#, r#""RA""#]),
            ("repair_parallel", vec!["1", "8"]),
            ("nic", vec![r#""1g""#, r#""10g""#]),
        ],
        tail: "SUBJECT TO availability >= 0.99995\nMINIMIZE tco_usd_per_year\nOPTIONS replications = 3",
    };
    (base, query)
}

/// The E16 stress cluster on a dense grid through the guided runner:
/// screening, early-stop, and many tiny runs.
fn guided_dense(seed: u64, smoke: bool) -> (Scenario, Query) {
    let mut base = ScenarioBuilder::new("guided_dense")
        .racks(3)
        .nodes_per_rack(10)
        .objects(1_000)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(seed)
        .build();
    base.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
    base.repair.detection_delay_s = 5.0 * 86_400.0;
    let sweeps = if smoke {
        vec![
            ("replication", vec!["1", "2", "3", "5"]),
            ("repair_parallel", vec!["1", "8"]),
            ("detection_delay_s", vec!["3600", "86400"]),
            ("nic", vec![r#""1g""#, r#""10g""#]),
        ]
    } else {
        vec![
            ("replication", vec!["1", "2", "3", "4", "5"]),
            ("repair_parallel", vec!["1", "2", "4", "8", "16"]),
            (
                "detection_delay_s",
                vec!["600", "3600", "21600", "86400", "259200", "432000"],
            ),
            ("nic", vec![r#""1g""#, r#""10g""#, r#""40g""#]),
        ]
    };
    let query = Query {
        head: "EXPLORE availability, tco_usd_per_year",
        sweeps,
        tail: "SUBJECT TO availability >= 0.99985, mean_rebuild_wait_s <= 60\n\
               MINIMIZE tco_usd_per_year\n\
               GUIDED OPTIONS prune = FALSE, replications = 10",
    };
    (base, query)
}

/// Two tenants on one rack: the perf engine and its latency sketches,
/// with the availability engine idle.
fn perf_sla(seed: u64, smoke: bool) -> (Scenario, Query) {
    // The perf engine caps its horizon at 600 simulated seconds, so one
    // year means exactly 600 s; the smoke run simulates one minute.
    let years = if smoke {
        60.0 / (365.0 * 86_400.0)
    } else {
        1.0
    };
    let base = ScenarioBuilder::new("perf_sla")
        .racks(1)
        .nodes_per_rack(10)
        .disks_per_node(8)
        .tenant(TenantWorkload::oltp("shop", 800.0, 1_000_000))
        .tenant(TenantWorkload::analytics("bi", 50.0, 1_000_000))
        .horizon_years(years)
        .seed(seed)
        .build();
    let query = Query {
        head: "EXPLORE shop_p95_s, bi_p99_s, tco_usd_per_year",
        sweeps: vec![
            ("disk", vec![r#""hdd""#, r#""ssd""#, r#""nvme""#]),
            ("mem_gb", vec!["32", "128", "512"]),
            ("nic", vec![r#""1g""#, r#""10g""#]),
        ],
        tail: "SUBJECT TO shop_p95_s <= 0.12\nMINIMIZE tco_usd_per_year",
    };
    (base, query)
}

/// The E14 build-out: about a million live failure domains, so engine
/// set-up, memory and the large-pending-set event loop dominate.
fn scale_1m(seed: u64, smoke: bool) -> (Scenario, Query) {
    let (racks, objects) = if smoke { (50, 20_000) } else { (500, 200_000) };
    let base = ScenarioBuilder::new("scale_1m")
        .racks(racks)
        .nodes_per_rack(40)
        .disk(catalog::hdd_7200_4t())
        .disks_per_node(48)
        .objects(objects)
        .object_gb(8.0)
        .repair(RepairPolicy::parallel(64))
        .switch_failures(true)
        .disk_failures(true)
        .horizon_years(0.1)
        .seed(seed)
        .build();
    let query = Query {
        head: "EXPLORE availability, objects_lost",
        sweeps: vec![
            ("replication", vec!["3"]),
            ("placement", vec![r#""R""#, r#""RA""#]),
        ],
        tail: "",
    };
    (base, query)
}
