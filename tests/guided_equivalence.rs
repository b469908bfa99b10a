//! Guided execution equivalence: the guided planner (analytic screening,
//! surrogate ranking, early-stop) must reproduce the exhaustive sweep's
//! verdict table exactly — at any worker count. Guided mode may only
//! change *how much* simulation runs, never *what* the sweep concludes.

use windtunnel::prelude::*;
use wt_wtql::{parse, run_query, ExecOptions, QueryOutcome};

/// The failure-heavy cluster the analytic screens can bite on: ~40-day
/// node lifetimes and a 5-day detection delay give ≈ 68 expected failures
/// over the quarter, so weak replication provably misses tight floors.
fn stress_base() -> Scenario {
    let mut sc = ScenarioBuilder::new("guided-eq")
        .racks(3)
        .nodes_per_rack(10)
        .objects(300)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(42)
        .build();
    sc.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
    sc.repair.detection_delay_s = 5.0 * 86_400.0;
    sc
}

/// Per-point verdict flags, in grid order: (assignment, passes, pruned,
/// screened-or-simulated is deliberately *not* included — provenance may
/// differ, the verdict may not).
fn verdicts(out: &QueryOutcome) -> Vec<(String, bool, bool)> {
    out.rows
        .iter()
        .map(|r| {
            let desc: Vec<String> = r
                .assignment
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            (desc.join(","), r.passes, r.pruned)
        })
        .collect()
}

fn winning_row(out: &QueryOutcome) -> Option<String> {
    out.best_row().map(|r| {
        let desc: Vec<String> = r
            .assignment
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        desc.join(",")
    })
}

fn run(query_text: &str, sc: &Scenario, guided: bool, threads: usize) -> QueryOutcome {
    let query = parse(query_text).expect("parses");
    let tunnel = WindTunnel::new();
    let mut opts = ExecOptions::from_query(&query);
    opts.threads = threads;
    if guided {
        opts.guided = true;
        opts.screen = true;
        opts.rank = true;
        opts.early_stop = true;
        opts.sketch_abort = true;
    }
    run_query(&query, sc, &tunnel, &opts).expect("runs")
}

#[test]
fn guided_matches_exhaustive_across_workers() {
    // E4/E6-style sweep: redundancy × repair speed under a tight floor
    // with a cost objective. Pruning off so every point is individually
    // comparable.
    let text = "EXPLORE availability, tco_usd_per_year \
                SWEEP replication IN [2, 3, 5], repair_parallel IN [1, 4] \
                SUBJECT TO availability >= 0.99985 \
                MINIMIZE tco_usd_per_year \
                OPTIONS prune = FALSE";
    let sc = stress_base();
    let exhaustive = run(text, &sc, false, 1);
    assert_eq!(exhaustive.screened, 0);
    for workers in [1, 4] {
        let guided = run(text, &sc, true, workers);
        assert_eq!(
            verdicts(&exhaustive),
            verdicts(&guided),
            "workers {workers}"
        );
        assert_eq!(winning_row(&exhaustive), winning_row(&guided));
        // The screens actually fired and actually saved simulation.
        assert!(guided.screened >= 2, "workers {workers}: {guided:?}");
        assert!(guided.total_sim_events < exhaustive.total_sim_events);
    }
}

#[test]
fn guided_preserves_dominance_pruning() {
    // With pruning on, the guided run must reproduce the exhaustive
    // pruned set too: ranking reorders execution, but dominance edges
    // still gate each point on its dominators' verdicts.
    let text = "EXPLORE availability \
                SWEEP replication IN [2, 3, 5], repair_parallel IN [1, 4] \
                SUBJECT TO availability >= 0.99985";
    let sc = stress_base();
    let exhaustive = run(text, &sc, false, 1);
    assert!(
        exhaustive.pruned > 0,
        "fixture should exercise pruning: {exhaustive:?}"
    );
    for workers in [1, 4] {
        let guided = run(text, &sc, true, workers);
        assert_eq!(
            verdicts(&exhaustive),
            verdicts(&guided),
            "workers {workers}"
        );
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Conservatism: whenever the analytic screen resolves a point,
        /// force-simulating that same point yields the same pass/fail
        /// verdict. Screens may stay silent; they may never lie.
        #[test]
        fn screened_verdicts_survive_forced_simulation(
            replication in 2usize..5,
            detect_days in 3u64..7,
            life_days in 30u64..61,
            threshold_idx in 0usize..3,
        ) {
            let threshold = [0.995, 0.9995, 0.99985][threshold_idx];
            let mut sc = ScenarioBuilder::new("screen-conserve")
                .racks(3)
                .nodes_per_rack(10)
                .objects(150)
                .horizon_years(0.25)
                .seed(7)
                .build();
            sc.topology.node.ttf =
                Dist::weibull_mean(0.8, life_days as f64 * 86_400.0);
            sc.repair.detection_delay_s = detect_days as f64 * 86_400.0;

            let text = format!(
                "EXPLORE availability SWEEP replication IN [{replication}] \
                 SUBJECT TO availability >= {threshold}"
            );
            let query = parse(&text).expect("parses");
            let mut opts = ExecOptions::from_query(&query);
            opts.guided = true;
            opts.screen = true;
            let tunnel = WindTunnel::new();
            let guided = run_query(&query, &sc, &tunnel, &opts).expect("runs");
            let row = &guided.rows[0];
            if row.screened {
                // Force the simulation the screen skipped.
                let tunnel = WindTunnel::new();
                let forced =
                    run_query(&query, &sc, &tunnel, &ExecOptions::default()).expect("runs");
                prop_assert_eq!(
                    row.passes,
                    forced.rows[0].passes,
                    "screen said {} but simulation said {} \
                     (replication {}, detect {}d, life {}d, floor {})",
                    row.passes,
                    forced.rows[0].passes,
                    replication,
                    detect_days,
                    life_days,
                    threshold
                );
            }
        }
    }
}
