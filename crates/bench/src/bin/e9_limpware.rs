//! **E9 — limpware (§4.5, ref \[5\])**: a component that *degrades* is
//! worse than one that *dies*, because the system keeps routing work to
//! it. Compare healthy vs fail-stop vs limping-NIC tails.
//!
//! The three fault arms are a declarative [`SweepSpec`] on the shared
//! run farm (CRN: each arm replays the same seed), with per-run records
//! and telemetry in the result store. `--workers N` sizes the pool;
//! stdout is byte-identical for any value (timing goes to stderr).

use windtunnel::prelude::*;
use wt_bench::{banner, fmt_secs, runner_from_args};
use wt_cluster::PerfModel;
use wt_hw::{catalog, TopologySpec};
use wt_store::SharedStore;

fn model() -> PerfModel {
    PerfModel {
        topology: TopologySpec {
            racks: 2,
            nodes_per_rack: 5,
            node: catalog::node_storage_server(catalog::ssd_sata_1t(), 4, catalog::nic_10g()),
            tor: catalog::switch_tor_48x10g(),
            agg: catalog::switch_agg_32x40g(),
            oversubscription: 4.0,
        },
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        tenants: vec![TenantWorkload::oltp("shop", 400.0, 100_000)],
        limpware: None,
        inject_failures: false,
        node_ttf: None,
        horizon_s: 180.0,
        chaos: None,
    }
}

fn arm_model(arm: &str) -> PerfModel {
    let mut m = model();
    match arm {
        "healthy" => {}
        "fail-stop (1 node down)" => {
            m.inject_failures = true;
            // One early, long-lasting failure: node TTF ~5s once, repair slow.
            m.node_ttf = Some(Dist::pareto(5.0, 3.0));
            m.topology.node.repair = Dist::deterministic(1e6);
        }
        "limpware ~30% NICs ~100x slow" => {
            m.limpware = Some(LimpwareSpec::degraded_nic(0.30));
        }
        other => panic!("unknown arm '{other}'"),
    }
    m
}

fn main() {
    banner(
        "E9 — limpware vs fail-stop",
        "a NIC running 100x slow (but 'up') hurts tail latency more than a \
         cleanly failed node, because replica selection keeps using it — \
         the paper's argument for modeling performance-degradation faults",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    let spec = SweepSpec::new("e9-limpware")
        .axis(
            "arm",
            [
                "healthy",
                "fail-stop (1 node down)",
                "limpware ~30% NICs ~100x slow",
            ],
        )
        .seed(9)
        .common_random_numbers();

    let out = runner.run(&spec, &store, |point, rep, sink| {
        let arm = point.axis_str("arm");
        let (r, telemetry) = arm_model(&arm).run_observed(rep.seed, None);
        let t = &r.tenants[0];
        sink.record(
            point
                .record(spec.name(), rep.seed)
                .metric("p50_s", t.p50_s)
                .metric("p95_s", t.p95_s)
                .metric("p99_s", t.p99_s)
                .metric("mean_s", t.mean_s)
                .metric("failed", t.failed as f64)
                .telemetry(telemetry),
        );
        [
            ("p50_s".to_string(), t.p50_s),
            ("p95_s".to_string(), t.p95_s),
            ("p99_s".to_string(), t.p99_s),
            ("mean_s".to_string(), t.mean_s),
            ("failed".to_string(), t.failed as f64),
        ]
        .into()
    });

    out.report()
        .axis_column("arm", "arm")
        .metric_column("p50", "p50_s", fmt_secs)
        .metric_column("p95", "p95_s", fmt_secs)
        .metric_column("p99", "p99_s", fmt_secs)
        .metric_column("mean", "mean_s", fmt_secs)
        .metric_column("failed", "failed", |v| format!("{}", v as u64))
        .print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        out.wall_s,
        store.len()
    );

    println!();
    let p99 = |prefix: &str| {
        out.rows
            .iter()
            .find(|r| r.axis_display("arm").starts_with(prefix))
            .expect("arm")
            .metric("p99_s")
    };
    println!(
        "check: limpware p99 ({}) > fail-stop p99 ({}) -> {}",
        fmt_secs(p99("limpware")),
        fmt_secs(p99("fail-stop")),
        p99("limpware") > p99("fail-stop")
    );
    println!(
        "check: limpware p99 ({}) >> healthy p99 ({}) -> {}",
        fmt_secs(p99("limpware")),
        fmt_secs(p99("healthy")),
        p99("limpware") > 2.0 * p99("healthy")
    );
}
