//! End-to-end engine throughput: events/second of the availability and
//! performance simulators, and the repair-policy ablation (serial vs
//! parallel rebuild) from DESIGN.md §8.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wt_cluster::{AvailabilityModel, PerfModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_dist::Dist;
use wt_hw::{catalog, TopologySpec};
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};
use wt_workload::TenantWorkload;

const DAY: f64 = 86_400.0;

fn avail_model(parallel: usize) -> AvailabilityModel {
    AvailabilityModel {
        n_nodes: 30,
        redundancy: RedundancyScheme::replication(3),
        placement: Placement::Random,
        objects: 2_000,
        object_bytes: 8 << 30,
        node_ttf: Dist::weibull_mean(0.8, 60.0 * DAY),
        node_replace: Dist::lognormal_mean_cv(4.0 * 3600.0, 1.0),
        rebuild: RebuildModel::Bandwidth {
            link_gbps: 10.0,
            share: 0.5,
        },
        repair: RepairPolicy {
            max_parallel: parallel,
            bandwidth_share: 0.5,
            detection_delay_s: 300.0,
        },
        switches: None,
        disks: None,
        chaos: None,
    }
}

fn bench_availability(c: &mut Criterion) {
    let mut g = c.benchmark_group("availability_engine");
    for (name, parallel) in [("serial_repair", 1usize), ("parallel16_repair", 16)] {
        let model = avail_model(parallel);
        g.bench_function(format!("1y_30n_2k_objects_{name}"), |b| {
            b.iter(|| black_box(model.run(9, SimDuration::from_years(1.0))));
        });
    }
    g.finish();
}

fn bench_perf(c: &mut Criterion) {
    let model = PerfModel {
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
        tenants: vec![TenantWorkload::oltp("shop", 500.0, 100_000)],
        limpware: None,
        inject_failures: false,
        node_ttf: None,
        horizon_s: 60.0,
        chaos: None,
    };
    c.bench_function("perf_engine_60s_500rps", |b| {
        b.iter(|| black_box(model.run(4)));
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_availability, bench_perf
}
criterion_main!(benches);
