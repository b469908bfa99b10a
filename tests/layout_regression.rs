//! Layout-swap regression oracle: the SoA/arena refactor of the cluster
//! engines must be invisible in every observable byte. Four locks:
//!
//! * `fig1 --smoke` stdout, pinned against a committed fixture at
//!   workers 1/4 (the fixture was captured on the pre-refactor
//!   `Vec<Vec<_>>` layout).
//! * `e13_chaos --smoke` stdout, same grid — chaos handlers ride the
//!   same hot path and must not drift either.
//! * full `e3_perf_sla` stdout at workers 1/4, pinned against
//!   `results/e3_perf_sla.txt` — co-location, node failures and repair
//!   traffic through the request-level perf engine.
//! * `RunRecord` JSON bytes for a mixed scenario batch (switch + disk
//!   failures, chaos, perf tenants), wall-clock masked.
//!
//! Regenerate the record fixture with `BLESS_GOLDEN=1` — but only on a
//! commit whose outputs are already known-good; blessing on a drifted
//! tree defeats the lock.

use std::process::Command;
use windtunnel::prelude::*;
use wt_cluster::chaos::{FaultKind, FaultSchedule};
use wt_store::SharedStore;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn golden_path(name: &str) -> String {
    format!("{GOLDEN_DIR}/{name}")
}

fn read_golden(name: &str) -> String {
    std::fs::read_to_string(golden_path(name))
        .unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

/// Runs `bin` with `args` plus the given worker count, returning stdout.
/// Stderr (timing lines) is intentionally dropped.
fn stdout_of(bin: &str, args: &[&str], workers: &str) -> String {
    let out = Command::new(bin)
        .args(args)
        .args(["--workers", workers])
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(out.status.success(), "{bin} failed: {:?}", out.status);
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn assert_stdout_pinned(bin: &str, args: &[&str], want: &str, fixture: &str) {
    for workers in ["1", "4"] {
        let got = stdout_of(bin, args, workers);
        assert_eq!(
            got, want,
            "stdout drifted from {fixture} at workers={workers}"
        );
    }
}

fn assert_smoke_pinned(bin: &str, fixture: &str) {
    assert_stdout_pinned(bin, &["--smoke"], &read_golden(fixture), fixture);
}

#[test]
fn fig1_smoke_stdout_pinned() {
    assert_smoke_pinned(env!("CARGO_BIN_EXE_fig1"), "fig1_smoke.txt");
}

#[test]
fn e13_chaos_smoke_stdout_pinned() {
    assert_smoke_pinned(env!("CARGO_BIN_EXE_e13_chaos"), "e13_chaos_smoke.txt");
}

#[test]
fn e3_perf_sla_stdout_pinned() {
    let path = format!("{RESULTS_DIR}/e3_perf_sla.txt");
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_e3_perf_sla"),
        &[],
        &want,
        "results/e3_perf_sla.txt",
    );
}

/// A scenario batch covering every engine feature the layout refactor
/// touches: plain replication, switch outages, disk slots, rack-aware
/// placement, erasure coding, and a chaos schedule.
fn scenarios() -> Vec<Scenario> {
    vec![
        ScenarioBuilder::new("layout-base")
            .racks(2)
            .nodes_per_rack(8)
            .objects(180)
            .object_gb(4.0)
            .horizon_years(0.2)
            .seed(4001)
            .build(),
        ScenarioBuilder::new("layout-switch-disk")
            .racks(3)
            .nodes_per_rack(6)
            .objects(150)
            .object_gb(2.0)
            .switch_failures(true)
            .disk_failures(true)
            .horizon_years(0.2)
            .seed(4002)
            .build(),
        ScenarioBuilder::new("layout-rackaware-ec")
            .racks(4)
            .nodes_per_rack(6)
            .erasure(4, 2)
            .placement(Placement::RackAware { nodes_per_rack: 6 })
            .objects(120)
            .object_gb(8.0)
            .horizon_years(0.2)
            .seed(4003)
            .build(),
        ScenarioBuilder::new("layout-chaos")
            .racks(2)
            .nodes_per_rack(10)
            .objects(160)
            .object_gb(4.0)
            .horizon_years(0.2)
            .seed(4004)
            .faults(
                FaultSchedule::new()
                    .rule(
                        "pdu",
                        900_000.0,
                        FaultKind::PowerDomainLoss {
                            first_rack: 0,
                            racks: 1,
                            restore_s: 50_000.0,
                        },
                    )
                    .rule(
                        "storm",
                        2_000_000.0,
                        FaultKind::GrayStorm {
                            spec: wt_hw::LimpwareSpec::degraded_disk_fixed(0.5, 40.0),
                            center_rack: 1,
                            radius_racks: 0,
                            duration_s: 400_000.0,
                        },
                    ),
            )
            .build(),
    ]
}

/// Serializes every stored record with only the wall clock masked —
/// everything else (results, telemetry counts, queue provenance) is
/// part of the pinned bytes.
fn record_bytes(store: &SharedStore) -> String {
    let snapshot = store.snapshot();
    assert!(!snapshot.is_empty());
    let mut lines: Vec<String> = snapshot
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if let Some(t) = r.telemetry.as_mut() {
                t.mask_wall();
            }
            serde_json::to_string(&r).expect("serializes")
        })
        .collect();
    lines.push(String::new()); // trailing newline
    lines.join("\n")
}

#[test]
fn run_record_bytes_pinned() {
    let tunnel = WindTunnel::new();
    let store = SharedStore::new();
    for mut sc in scenarios() {
        let (_r, _t) = tunnel.run_availability_observed_into(&sc, &store, None);
        sc.tenants = vec![TenantWorkload::oltp("t", 120.0, 5_000)];
        let (_r, _t) = tunnel.run_perf_observed_into(&sc, true, &store, None);
    }
    let got = record_bytes(&store);
    let path = golden_path("runrecords.jsonl");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("bless golden");
        return;
    }
    let want = read_golden("runrecords.jsonl");
    assert_eq!(
        got, want,
        "RunRecord bytes drifted from tests/golden/runrecords.jsonl"
    );
}
