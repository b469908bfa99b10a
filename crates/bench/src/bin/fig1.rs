//! **E1 — Figure 1**: probability of data unavailability vs. number of
//! node failures.
//!
//! Reproduces the paper's only quantitative artifact: 10,000 customers,
//! quorum protocol, series {Random, RoundRobin} × {n=3, n=5} ×
//! {N=10, N=30}. All curve points run on the shared `windtunnel::farm`
//! executor; `--workers N` sets the pool size (default: host cores) and
//! stdout is bitwise-identical for any value (timing and worker counts
//! go to stderr).
//!
//! Extra flags:
//! * `--smoke` — the smallest series at reduced trial count (the CI
//!   configuration), skipping the full-figure qualitative checks and
//!   appending a deterministic DES digest line (see below),
//! * `--trace <path>` — additionally run one representative DES
//!   availability run with the probe stack attached and write it as
//!   Chrome trace-event JSON (open in Perfetto / `about:tracing`),
//! * `--csv <path>` — write the raw series for plotting,
//! * `--metrics <path>` — run a small farm-recorded availability sweep
//!   through the observed (sketch-recording) path and write the merged
//!   store's [`MetricsSnapshot`] as Prometheus-style text exposition.
//!   The exposition is bitwise-identical for any `--workers` count,
//!   which CI's obs-smoke job diffs.
//!
//! [`MetricsSnapshot`]: windtunnel::obs::MetricsSnapshot

use windtunnel::obs::TraceProbe;
use windtunnel::prelude::*;
use wt_bench::fig1::{compute, Fig1Config};
use wt_bench::{banner, export_trace, flag_value, fmt_p, runner_from_args};
use wt_des::SimDuration;
use wt_store::SharedStore;

/// The figure itself is a Monte-Carlo quorum computation, so `--trace`
/// records one representative DES availability run instead: the default
/// 30-node storage cluster under failure pressure high enough to
/// exercise the full event vocabulary (failures, rebuild queueing,
/// repair completion).
fn trace_representative_run(path: &str) {
    let mut scenario = ScenarioBuilder::new("fig1-trace")
        .racks(3)
        .nodes_per_rack(10)
        .objects(200)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(2014)
        .build();
    scenario.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);

    let tunnel = WindTunnel::new();
    let mut probe = TraceProbe::new();
    let (result, telemetry) =
        tunnel.run_availability_observed_into(&scenario, tunnel.store(), Some(&mut probe));
    eprintln!(
        "[trace] representative availability run: A={:.6}, {} node failure(s), {} sim event(s)",
        result.availability, result.node_failures, telemetry.events
    );
    export_trace(path, &mut probe, &telemetry);
}

fn main() {
    banner(
        "E1 / Figure 1 — P(data unavailability) vs node failures",
        "probability grows with failures; n=5 far below n=3; Random >= RoundRobin; \
         N=10 saturates sooner than N=30",
    );

    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let runner = runner_from_args(&args);

    let config = if smoke {
        Fig1Config::smallest()
    } else {
        Fig1Config::paper()
    };
    let t0 = std::time::Instant::now();
    let curves = compute(&config, &runner);
    let wall = t0.elapsed().as_secs_f64();
    curves.table().print();
    eprintln!(
        "computed on {} farm worker(s) in {wall:.2}s",
        runner.workers()
    );

    // Optional: `fig1 --csv <path>` writes the raw series for plotting.
    if let Some(path) = flag_value(&args, "--csv") {
        if let Err(e) = std::fs::write(path, curves.csv()) {
            eprintln!("error: failed to write --csv {path}: {e}");
            std::process::exit(1);
        }
        println!("series written to {path}");
    }

    if let Some(path) = flag_value(&args, "--trace") {
        trace_representative_run(path);
    }

    // `--metrics`: a small sketch-bearing sweep (observed availability
    // runs on the farm, shards merged in item order) folded into one
    // MetricsSnapshot. Every byte of the exposition is derived from
    // simulation-determined state, so the file is identical for any
    // worker count.
    if let Some(path) = flag_value(&args, "--metrics") {
        let store = SharedStore::new();
        let spec = SweepSpec::new("fig1-metrics")
            .axis("ttf_days", [30.0, 60.0])
            .replications(2)
            .seed(2014);
        runner.run(&spec, &store, |point, rep, sink| {
            let mut sc = ScenarioBuilder::new("fig1-metrics")
                .racks(1)
                .nodes_per_rack(10)
                .objects(150)
                .object_gb(4.0)
                .horizon_years(0.25)
                .seed(rep.seed)
                .build();
            sc.topology.node.ttf = Dist::weibull_mean(0.8, point.axis_num("ttf_days") * 86_400.0);
            let tunnel = WindTunnel::new();
            let (r, _telemetry) = tunnel.run_availability_observed_into(&sc, sink, None);
            [("availability".to_string(), r.availability)].into()
        });
        if let Err(e) = std::fs::write(path, store.metrics_snapshot().render()) {
            eprintln!("error: failed to write --metrics {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics written to {path}");
    }

    if smoke {
        // The figure itself is a Monte-Carlo quorum computation that never
        // touches the event queue, so the smoke run adds one with teeth:
        // a deterministic DES availability run, its digest printed to
        // stdout and pinned by `tests/golden/fig1_smoke.txt`.
        let mut scenario = ScenarioBuilder::new("fig1-smoke-des")
            .racks(1)
            .nodes_per_rack(10)
            .objects(150)
            .object_gb(4.0)
            .horizon_years(0.25)
            .seed(2014)
            .build();
        scenario.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
        let model = WindTunnel::availability_model(&scenario);
        let r = model.run(
            scenario.seed,
            SimDuration::from_years(scenario.horizon_years),
        );
        println!();
        println!(
            "des digest: availability={:.9} node_failures={} rebuilds={} events={}",
            r.availability, r.node_failures, r.rebuilds_completed, r.sim_events
        );
        // The reduced grid has a single series; the full-figure
        // cross-series checks below would index columns it lacks.
        return;
    }

    // The qualitative checks the paper's Figure 1 makes visually.
    println!();
    // n=5 is safe where n=3 is already certain to lose someone (f=2).
    let r3 = curves.curves[curves.col(10, 3, "R")][2];
    let r5 = curves.curves[curves.col(10, 5, "R")][2];
    println!(
        "check: at f=2, Random n=5 below n=3: {} < {} -> {}",
        fmt_p(r5),
        fmt_p(r3),
        r5 < r3
    );
    let f = 3;
    let rr3_30 = curves.curves[curves.col(30, 3, "RR")][f];
    let r3_30 = curves.curves[curves.col(30, 3, "R")][f];
    println!(
        "check: at f={f}, Random >= RoundRobin on N=30 n=3: {} >= {} -> {}",
        fmt_p(r3_30),
        fmt_p(rr3_30),
        r3_30 >= rr3_30
    );
    let rr10 = curves.curves[curves.col(10, 3, "RR")][f];
    let rr30 = curves.curves[curves.col(30, 3, "RR")][f];
    println!(
        "check: at f={f}, RR on N=10 above RR on N=30: {} >= {} -> {}",
        fmt_p(rr10),
        fmt_p(rr30),
        rr10 >= rr30
    );
    // The paper's '*' series: with 10,000 users, Random placement occupies
    // essentially every replica set, so the N=10 and N=30 curves coincide
    // (the figure draws them as a single 'R-n-*' line).
    let star3 = (0..=config.max_f).all(|f| {
        (curves.curves[curves.col(10, 3, "R")][f] - curves.curves[curves.col(30, 3, "R")][f]).abs()
            < 0.02
    });
    println!("check: Random n=3 curves for N=10 and N=30 coincide ('*') -> {star3}");
}
