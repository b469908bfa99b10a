//! Unit tests: the replay reproduces `run_query` bit for bit, the digest
//! ignores query order but not results, the quartiles match Python's
//! `statistics.quantiles`, and the metric lists match `BENCHMARK.json`.

use crate::query::{digest, run_script, ScriptRun};
use crate::replay::{layer_metrics, replay};
use crate::report::{classify, quartiles, Stat, Verdict};
use windtunnel::prelude::*;
use wt_wtql::QueryOutcome;

fn small_base() -> Scenario {
    let mut base = ScenarioBuilder::new("tiny")
        .racks(2)
        .nodes_per_rack(5)
        .objects(200)
        .horizon_years(0.3)
        .seed(5)
        .build();
    base.topology.node.ttf = Dist::exponential_mean(20.0 * 86_400.0);
    base
}

fn perf_base() -> Scenario {
    ScenarioBuilder::new("tiny-perf")
        .racks(1)
        .nodes_per_rack(5)
        .tenant(TenantWorkload::oltp("shop", 200.0, 10_000))
        .horizon_years(20.0 / (365.0 * 86_400.0))
        .seed(9)
        .build()
}

const EXHAUSTIVE: &str = "EXPLORE availability, tco_usd_per_year
SWEEP replication IN [1, 2, 3], repair_parallel IN [1, 4]
SUBJECT TO availability >= 0.9999
MINIMIZE tco_usd_per_year
OPTIONS replications = 2
STATS";

const GUIDED: &str = "EXPLORE availability, tco_usd_per_year
SWEEP replication IN [1, 2, 3], detection_delay_s IN [600, 432000]
SUBJECT TO availability >= 0.99985, mean_rebuild_wait_s <= 60
MINIMIZE tco_usd_per_year
GUIDED OPTIONS prune = FALSE, replications = 4";

const PERF: &str = r#"EXPLORE shop_p95_s, tco_usd_per_year
SWEEP nic IN ["1g", "10g"], disk IN ["hdd", "ssd"]
SUBJECT TO shop_p95_s <= 0.05
MINIMIZE tco_usd_per_year"#;

fn run(script: &str, base: &Scenario, workers: usize) -> (ScriptRun, WindTunnel) {
    let tunnel = WindTunnel::new();
    let run =
        run_script(script, base, &tunnel, workers, &mut std::io::sink()).expect("script runs");
    (run, tunnel)
}

#[test]
fn replay_reproduces_every_row_and_record() {
    // Each case must exercise the row kinds the replay handles.
    type Exercised = fn(&QueryOutcome) -> bool;
    let cases: [(&str, Scenario, Exercised); 3] = [
        (EXHAUSTIVE, small_base(), |o| o.pruned > 0),
        (GUIDED, small_base(), |o| {
            o.screened > 0 && o.early_stopped > 0
        }),
        (PERF, perf_base(), |o| o.executed > 0),
    ];
    for (script, base, exercised) in cases {
        let (reference, tunnel) = run(script, &base, 1);
        assert!(
            exercised(&reference.outcome),
            "{script}: {:?}",
            reference.outcome
        );
        let records = tunnel.store().snapshot();
        let r = replay(script, &base, &reference.outcome, &records).expect("replays");
        assert!(r.mismatches.is_empty(), "{script}: {:?}", r.mismatches);
        assert_eq!(r.counts.records as usize, records.len());
        let layers = layer_metrics(&r.spans, &r.counts, r.wall_s, reference.query_s);
        let coverage = layers
            .iter()
            .find(|l| l.0 == "trace.coverage")
            .expect("coverage")
            .1;
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
    }
}

#[test]
fn replay_flags_a_row_it_cannot_reproduce() {
    let base = small_base();
    let (mut reference, tunnel) = run(EXHAUSTIVE, &base, 1);
    let records = tunnel.store().snapshot();
    let row = reference
        .outcome
        .rows
        .iter_mut()
        .find(|r| !r.pruned)
        .expect("a simulated row");
    let a = row.metrics.get_mut("availability").expect("availability");
    *a = f64::from_bits(a.to_bits() ^ 1);
    let r = replay(EXHAUSTIVE, &base, &reference.outcome, &records).expect("replays");
    assert_eq!(r.mismatches.len(), 1, "{:?}", r.mismatches);
}

#[test]
fn digest_is_worker_and_order_invariant_but_result_sensitive() {
    let base = small_base();
    let (serial, _) = run(EXHAUSTIVE, &base, 1);
    let (parallel, _) = run(EXHAUSTIVE, &base, 2);
    let permuted = EXHAUSTIVE.replace(
        "replication IN [1, 2, 3], repair_parallel IN [1, 4]",
        "repair_parallel IN [4, 1], replication IN [3, 1, 2]",
    );
    let (reordered, _) = run(&permuted, &base, 2);
    let d = digest(&serial.query, &serial.outcome);
    assert_eq!(d, digest(&parallel.query, &parallel.outcome));
    assert_eq!(d, digest(&reordered.query, &reordered.outcome));
    assert_ne!(
        serial.outcome.rows[0].assignment,
        reordered.outcome.rows[0].assignment
    );

    let mut changed = serial.outcome.clone();
    let row = changed
        .rows
        .iter_mut()
        .find(|r| !r.pruned)
        .expect("a simulated row");
    let t = row.metrics.get_mut("tco_usd_per_year").expect("cost");
    *t = f64::from_bits(t.to_bits() ^ 1);
    assert_ne!(d, digest(&serial.query, &changed));
}

#[test]
fn workload_seeds_permute_text_only() {
    for name in crate::workloads::NAMES {
        let a = crate::workloads::build(name, 1, true).expect("known");
        let b = crate::workloads::build(name, 2, true).expect("known");
        let again = crate::workloads::build(name, 1, true).expect("known");
        assert_eq!(a.script, again.script);
        assert_eq!(a.base.seed, b.base.seed);
        let mut x: Vec<char> = a.script.chars().collect();
        let mut y: Vec<char> = b.script.chars().collect();
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y, "{name}: seeds may only reorder the query text");
    }
    assert!(crate::workloads::build("nope", 1, false).is_none());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
}

#[test]
fn compare_classifies_by_bound_and_spread() {
    let stat = |v: &[f64]| Stat::new("s", v.to_vec());
    let base = stat(&[1.00, 1.01, 0.99, 1.00, 1.02]);
    assert_eq!(
        classify(&base, &stat(&[1.00, 1.01, 0.99, 1.01, 1.00]), 0.1, true),
        Verdict::Unchanged
    );
    assert_eq!(
        classify(&base, &stat(&[1.30, 1.31, 1.29, 1.30, 1.32]), 0.1, true),
        Verdict::Regressed
    );
    assert_eq!(
        classify(&base, &stat(&[0.80, 0.81, 0.79, 0.80, 0.82]), 0.1, true),
        Verdict::Improved
    );
    // Higher-is-better flips the direction.
    assert_eq!(
        classify(&base, &stat(&[0.80, 0.81, 0.79, 0.80, 0.82]), 0.1, false),
        Verdict::Regressed
    );
    let noisy = stat(&[0.5, 1.5, 1.0, 0.7, 1.4]);
    assert_eq!(classify(&base, &noisy, 0.1, true), Verdict::Unresolved);
}

#[test]
fn metric_lists_match_benchmark_json() {
    let v: serde::Value =
        serde_json::from_str(include_str!("../../../../../../BENCHMARK.json")).expect("parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|l| l.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(|x| x.as_str())
                        .expect("string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let code: Vec<(String, String)> = crate::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), code);
    let layers: Vec<(String, String)> = layer_metrics(&[], &Default::default(), 1.0, 1.0)
        .into_iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}
