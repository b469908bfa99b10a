//! **E3 — performance SLAs (§3)**: what happens to a tenant's latency
//! when (a) a second workload moves in, and (b) cluster events — node
//! failures and the repair traffic they trigger — hit the same hardware.
//!
//! The paper's point: prediction models that ignore cluster events miss
//! the tail; "holistic simulation can capture the impact of these events
//! on the performance SLAs".
//!
//! The arm axis is a declarative [`SweepSpec`] executed by the shared
//! [`SweepRunner`] with sharded recording (`--workers N` sizes the pool,
//! default host cores); every arm lands in the result
//! store as an `e3-perf` record, exported with `--jsonl <path>`. Output
//! is byte-identical for any worker count. `--trace <path>` re-runs the
//! busiest arm with the probe stack attached and writes Chrome
//! trace-event JSON.

use windtunnel::obs::TraceProbe;
use windtunnel::prelude::*;
use wt_bench::{banner, export_trace, flag_value, fmt_secs, runner_from_args};
use wt_cluster::PerfModel;
use wt_hw::{catalog, TopologySpec};
use wt_store::SharedStore;

/// The shop tenant's latency SLA: p95 at most 50 ms.
const SLA_P95_S: f64 = 0.050;

fn topo() -> TopologySpec {
    TopologySpec {
        racks: 2,
        nodes_per_rack: 5,
        node: catalog::node_storage_server(catalog::ssd_sata_1t(), 4, catalog::nic_10g()),
        tor: catalog::switch_tor_48x10g(),
        agg: catalog::switch_agg_32x40g(),
        oversubscription: 4.0,
    }
}

fn model(tenants: Vec<TenantWorkload>) -> PerfModel {
    PerfModel {
        topology: topo(),
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        tenants,
        limpware: None,
        inject_failures: false,
        node_ttf: None,
        horizon_s: 180.0,
        chaos: None,
    }
}

fn arm_model(arm: &str) -> PerfModel {
    let oltp = || TenantWorkload::oltp("shop", 300.0, 100_000);
    let analytics = || TenantWorkload::analytics("reports", 8.0, 1_000);
    let mut m = match arm {
        "shop alone" | "shop + failures" => model(vec![oltp()]),
        "shop + analytics" | "shop + analytics + failures" => model(vec![oltp(), analytics()]),
        other => panic!("unknown arm '{other}'"),
    };
    if arm.ends_with("failures") {
        m.inject_failures = true;
        m.node_ttf = Some(Dist::exponential_mean(60.0));
    }
    m
}

fn main() {
    banner(
        "E3 — tenant latency under co-location and cluster events",
        "co-locating an analytics tenant inflates the OLTP tail; node \
         failures + repair traffic inflate it further — effects a \
         failure-blind prediction model cannot see",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    // The arms are the comparison, not seed replication: one CRN
    // replication means every arm simulates the same seed.
    let spec = SweepSpec::new("e3-perf")
        .axis(
            "arm",
            [
                "shop alone",
                "shop + analytics",
                "shop + failures",
                "shop + analytics + failures",
            ],
        )
        .seed(2014)
        .common_random_numbers();

    let out = runner.run(&spec, &store, |point, rep, sink| {
        let m = arm_model(&point.axis_str("arm"));
        let r = m.run(rep.seed);
        let shop = r.tenant("shop").expect("shop tenant present");
        // The reported percentiles come from the constant-memory sketch
        // path; the exact histogram stays recorded as the oracle, and
        // the two SLA verdicts must agree — a divergence would mean the
        // sketch's error band swallowed the SLA threshold.
        let sk_p50 = shop.sketch_p50_s.expect("sketch path present");
        let sk_p95 = shop.sketch_p95_s.expect("sketch path present");
        let sk_p99 = shop.sketch_p99_s.expect("sketch path present");
        let met = shop.p95_s <= SLA_P95_S;
        assert_eq!(
            sk_p95 <= SLA_P95_S,
            met,
            "sketch SLA verdict diverged from exact-histogram oracle"
        );
        let sla_met = if met { 1.0 } else { 0.0 };
        let record = point
            .record(spec.name(), rep.seed)
            .param("inject_failures", m.inject_failures)
            .param("tenants", m.tenants.len())
            .metric("shop_p50_s", sk_p50)
            .metric("shop_p95_s", sk_p95)
            .metric("shop_p99_s", sk_p99)
            .metric("shop_exact_p50_s", shop.p50_s)
            .metric("shop_exact_p95_s", shop.p95_s)
            .metric("shop_exact_p99_s", shop.p99_s)
            .metric("shop_failed", shop.failed as f64)
            .metric("node_failures", r.node_failures as f64)
            .metric("sla_met", sla_met);
        sink.record(record);
        [
            ("shop_p50_s".to_string(), sk_p50),
            ("shop_p95_s".to_string(), sk_p95),
            ("shop_p99_s".to_string(), sk_p99),
            ("shop_exact_p99_s".to_string(), shop.p99_s),
            ("shop_failed".to_string(), shop.failed as f64),
            ("node_failures".to_string(), r.node_failures as f64),
            ("sla_met".to_string(), sla_met),
        ]
        .into()
    });

    out.report()
        .axis_column("arm", "arm")
        .metric_column("p50", "shop_p50_s", fmt_secs)
        .metric_column("p95", "shop_p95_s", fmt_secs)
        .metric_column("p99", "shop_p99_s", fmt_secs)
        .metric_column("failed", "shop_failed", |v| format!("{}", v as u64))
        .metric_column("node failures", "node_failures", |v| {
            format!("{}", v as u64)
        })
        .column("SLA p95<=50ms", |row| match row.try_metric("sla_met") {
            Some(v) if v > 0.5 => "met".into(),
            Some(_) => "VIOLATED".into(),
            None => "-".into(),
        })
        .print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    if let Some(path) = flag_value(&args, "--jsonl") {
        if let Err(e) = store.with(|s| s.save_jsonl(std::path::Path::new(path))) {
            eprintln!("error: failed to write --jsonl {path}: {e}");
            std::process::exit(1);
        }
        println!("runs written to {path}");
    }

    // `--trace`: re-run the busiest arm (co-location + failures) with a
    // trace probe — the Chrome JSON shows tenant requests interleaving
    // with node failures and repair traffic on a shared timeline. Uses
    // the same CRN seed the sweep ran, so the trace matches the record.
    if let Some(path) = flag_value(&args, "--trace") {
        let arm = "shop + analytics + failures";
        let grid = spec.grid();
        let seed = grid.rep_seed(&grid.points[0], 0);
        let mut probe = TraceProbe::new();
        let (_, telemetry) = arm_model(arm).run_observed(seed, Some(&mut probe));
        eprintln!("[trace] arm '{arm}': {} sim event(s)", telemetry.events);
        export_trace(path, &mut probe, &telemetry);
    }

    println!();
    let p99 = |arm: &str| out.metric_where("arm", arm, "shop_p99_s");
    println!(
        "check: co-location inflates p99: {} -> {} ({}x)",
        fmt_secs(p99("shop alone")),
        fmt_secs(p99("shop + analytics")),
        (p99("shop + analytics") / p99("shop alone")).round()
    );
    println!(
        "check: cluster events inflate p99 beyond workload-only prediction: {} -> {}",
        fmt_secs(p99("shop + analytics")),
        fmt_secs(p99("shop + analytics + failures")),
    );
    // Sketch-vs-oracle accuracy: the reported (sketch) p99 must sit
    // within the DDSketch relative-error band of the exact histogram's.
    let worst_rel = out
        .rows
        .iter()
        .map(|row| {
            let exact = row.metric("shop_exact_p99_s");
            let sketch = row.metric("shop_p99_s");
            ((sketch - exact) / exact).abs()
        })
        .fold(0.0f64, f64::max);
    println!(
        "check: sketch p99 within {:.2}% of exact oracle across arms",
        worst_rel * 100.0
    );
}
