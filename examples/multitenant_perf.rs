//! Multi-tenant performance study (paper §3, performance SLAs): what does
//! co-locating an analytics tenant do to an OLTP tenant's latency SLA,
//! and does moving to NVMe buy it back?
//!
//! ```sh
//! cargo run --release -p wt-bench --example multitenant_perf
//! ```

use windtunnel::cluster::PerfModel;
use windtunnel::prelude::*;
use windtunnel::WindTunnel;

/// The shop tenant's latency SLA: p95 at most 50 ms.
const SLA_P95_S: f64 = 0.050;

fn perf(disk: windtunnel::hw::DiskSpec, tenants: Vec<TenantWorkload>) -> PerfModel {
    // 40G network so interference lands on the *disks*: the axis the
    // disk-upgrade what-if actually moves.
    let scenario = ScenarioBuilder::new("mt")
        .racks(2)
        .nodes_per_rack(5)
        .disk(disk)
        .disks_per_node(2)
        .nic(catalog::nic_40g())
        .horizon_years(1.0)
        .build();
    let mut model = WindTunnel::perf_model(
        &Scenario {
            tenants,
            ..scenario
        },
        false,
    );
    model.horizon_s = 180.0;
    model
}

fn main() {
    let oltp = || TenantWorkload::oltp("shop", 300.0, 100_000);
    let olap = || TenantWorkload::analytics("reports", 30.0, 1_000);

    let arms: Vec<(&str, PerfModel)> = vec![
        (
            "SATA-SSD, shop alone",
            perf(catalog::ssd_sata_1t(), vec![oltp()]),
        ),
        (
            "SATA-SSD, shop+reports",
            perf(catalog::ssd_sata_1t(), vec![oltp(), olap()]),
        ),
        (
            "NVMe,     shop+reports",
            perf(catalog::ssd_nvme_2t(), vec![oltp(), olap()]),
        ),
    ];

    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>12}",
        "arm", "p50", "p95", "p99", "p95 SLA 50ms"
    );
    for (name, model) in arms {
        let r = model.run(3);
        let shop = r.tenant("shop").expect("shop runs");
        println!(
            "{:<24} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>12}",
            name,
            shop.p50_s * 1e3,
            shop.p95_s * 1e3,
            shop.p99_s * 1e3,
            if shop.p95_s <= SLA_P95_S {
                "met"
            } else {
                "VIOLATED"
            }
        );
    }
    println!();
    println!(
        "takeaway: workload interactions are a first-class design axis — the\n\
         same OLTP tenant passes or misses its SLA depending on who shares\n\
         the hardware and what that hardware is."
    );
}
