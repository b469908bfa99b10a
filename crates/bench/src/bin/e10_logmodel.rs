//! **E10 — operational logs → models → simulator (§4.4)**: generate a
//! synthetic operational log from known ground truth, fit distribution
//! models from the log, feed the fitted models back into the availability
//! simulator, and compare against the ground-truth run. Also show what
//! happens when the operator lazily fits an exponential (the §2.2 trap).
//!
//! The log generation and fitting are sequential (they are the pipeline
//! under test); the expensive part — 3 model sources × 30 replications
//! of the availability simulator — is a declarative [`SweepSpec`] on the
//! shared run farm with common random numbers, so every model source
//! faces identical failure traces. `--workers N` sizes the pool; stdout
//! is byte-identical for any value (timing goes to stderr).

use windtunnel::prelude::*;
use wt_bench::{banner, runner_from_args, Table};
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::rng::Stream;
use wt_des::time::SimDuration;
use wt_dist::fit::fit_exponential;
use wt_store::{generate_log, seed_models, SharedStore};

const DAY: f64 = 86_400.0;

fn avail_model(ttf: Dist, repair_time: Dist) -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 20,
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        objects: 300,
        object_bytes: 8 << 30,
        node_ttf: ttf,
        node_replace: Dist::deterministic(3600.0),
        rebuild: RebuildModel::Timed(repair_time),
        repair: RepairPolicy {
            max_parallel: 64,
            bandwidth_share: 0.5,
            detection_delay_s: 300.0,
        },
        switches: None,
        disks: None,
        chaos: None,
    }
}

fn main() {
    banner(
        "E10 — seeding simulator models from operational logs",
        "the pipeline recovers the Weibull/lognormal families and their \
         parameters from raw logs; the fitted models reproduce ground-truth \
         availability; and the naive exponential fit — right mean, wrong \
         shape — misstates early-failure risk by >2x (the §2.2 trap)",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);

    // Ground truth: the field-study laws.
    let ttf_truth = Dist::weibull_mean(0.7, 20.0 * DAY);
    let repair_truth = Dist::lognormal_mean_cv(12.0 * 3600.0, 1.2);

    // 1. Generate the "operational log" (what a real DC would export).
    let mut rng = Stream::from_seed(10);
    let log = generate_log(
        "node",
        500,
        3.0 * 365.0 * DAY,
        &ttf_truth,
        &repair_truth,
        &mut rng,
    );
    println!(
        "generated log: {} events from 500 components over 3 years",
        log.len()
    );

    // 2. Fit models from the log.
    let seeds = seed_models(&log);
    let seed = &seeds[0];
    let mut table = Table::new(&[
        "quantity",
        "family",
        "KS stat",
        "fit mean (d)",
        "truth mean (d)",
    ]);
    table.row(vec![
        "time-to-failure".into(),
        seed.best_ttf().family.into(),
        format!("{:.4}", seed.best_ttf().ks.statistic),
        format!("{:.2}", seed.best_ttf().dist.mean() / DAY),
        format!("{:.2}", ttf_truth.mean() / DAY),
    ]);
    table.row(vec![
        "repair time".into(),
        seed.best_repair().family.into(),
        format!("{:.4}", seed.best_repair().ks.statistic),
        format!("{:.2}", seed.best_repair().dist.mean() / DAY),
        format!("{:.2}", repair_truth.mean() / DAY),
    ]);
    table.print();

    // 3. Simulate with ground truth, fitted, and naive-exponential models.
    //    The repair_time drives the *rebuild* duration here, exercising the
    //    full log→model→simulator path.
    let ttf_samples: Vec<f64> = {
        // Re-extract raw TTF samples for the naive fit.
        let mut rng = Stream::from_seed(11);
        (0..5_000).map(|_| ttf_truth.sample(&mut rng)).collect()
    };
    let naive_ttf = fit_exponential(&ttf_samples);

    // Unavailability under bursty Weibull failures is heavy-tailed across
    // replications (single-run spread exceeds 10x), so average widely;
    // common random numbers give every model source the same traces.
    let sources: Vec<(&str, Dist, Dist)> = vec![
        ("ground truth", ttf_truth.clone(), repair_truth.clone()),
        (
            "fitted from log",
            seed.best_ttf().dist.clone(),
            seed.best_repair().dist.clone(),
        ),
        (
            "naive exponential TTF",
            naive_ttf.clone(),
            repair_truth.clone(),
        ),
    ];
    let spec = SweepSpec::new("e10-logmodel")
        .axis("model source", sources.iter().map(|(name, _, _)| *name))
        .seed(50)
        .replications(30)
        .common_random_numbers();
    let store = SharedStore::new();
    let out = runner.run(&spec, &store, |point, rep, sink| {
        let name = point.axis_str("model source");
        let (_, ttf, repair_time) = sources
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("model source");
        let m = avail_model(ttf.clone(), repair_time.clone());
        let (r, telemetry) = m.run_observed(rep.seed, SimDuration::from_days(200.0), None);
        sink.record(
            point
                .record(spec.name(), rep.seed)
                .metric("availability", r.availability)
                .telemetry(telemetry),
        );
        [("availability".to_string(), r.availability)].into()
    });
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    println!();
    out.report()
        .axis_column("model source", "model source")
        .metric_column("availability", "availability", |a| format!("{a:.6}"))
        .metric_column("unavail (1-A)", "availability", |a| {
            format!("{:.3e}", 1.0 - a)
        })
        .print();

    println!();
    let avail = |name: &str| out.metric_where("model source", name, "availability");
    let truth = avail("ground truth");
    let fitted = avail("fitted from log");
    let err_fit = ((1.0 - fitted) - (1.0 - truth)).abs() / (1.0 - truth);
    println!(
        "check: fitted-model availability reproduces ground truth within noise: {:.0}% error -> {}",
        err_fit * 100.0,
        err_fit < 0.3
    );

    // Where the exponential shortcut actually bites (§2.2): the hazard
    // shape. Weibull(0.7) front-loads failures; an exponential with the
    // same mean understates the chance a fresh device dies young.
    let horizon = 1.0 * DAY;
    let p_truth = ttf_truth.cdf(horizon);
    let p_fitted = seed.best_ttf().dist.cdf(horizon);
    let p_naive = naive_ttf.cdf(horizon);
    let mut table = Table::new(&["model source", "P(fail within 1 day)"]);
    table.row(vec!["ground truth".into(), format!("{p_truth:.4}")]);
    table.row(vec!["fitted from log".into(), format!("{p_fitted:.4}")]);
    table.row(vec!["naive exponential".into(), format!("{p_naive:.4}")]);
    table.print();
    println!(
        "check: fitted early-failure probability within 10% of truth -> {}",
        (p_fitted - p_truth).abs() / p_truth < 0.1
    );
    println!(
        "check: naive exponential understates early failures by {:.1}x -> {}",
        p_truth / p_naive,
        p_truth / p_naive > 2.0
    );
}
