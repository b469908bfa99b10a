//! Integration: the telemetry layer (`wt-obs`) end to end — sim-derived
//! telemetry is bitwise-identical across worker counts, survives JSONL
//! round trips, and the Chrome trace export agrees with the engine's
//! event count.

use windtunnel::farm::Farm;
use windtunnel::obs::TraceProbe;
use windtunnel::prelude::*;
use wt_store::{ResultStore, SharedStore};

fn scenarios() -> Vec<Scenario> {
    (0..10)
        .map(|i| {
            ScenarioBuilder::new(format!("obs-{i}"))
                .racks(1)
                .nodes_per_rack(6 + (i % 4))
                .objects(120)
                .horizon_years(0.1)
                .seed(500 + i as u64)
                .build()
        })
        .collect()
}

/// Every record's telemetry, wall masked, as JSON — the farm-level
/// pin: probes on, any worker count, same bytes.
fn telemetry_bytes(store: &SharedStore) -> String {
    store
        .snapshot()
        .iter()
        .map(|r| {
            let t = r.telemetry.as_ref().expect("all runs attach telemetry");
            serde_json::to_string(&t.masked()).expect("serializes")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn telemetry_bytes_identical_across_worker_counts() {
    let scenarios = scenarios();
    let sweep = |workers: usize| {
        let store = SharedStore::new();
        let tunnel = WindTunnel::new();
        Farm::new(workers).run_recorded(11, &scenarios, &store, |sc, _ctx, shard| {
            tunnel.run_availability_observed_into(sc, shard, None);
        });
        telemetry_bytes(&store)
    };

    let gold = sweep(1);
    assert!(!gold.is_empty());
    // Sim-derived fields must be present and meaningful, not all-zero.
    assert!(gold.contains("\"stop_reason\":\"HorizonReached\""));
    for workers in [4, 8] {
        assert_eq!(
            sweep(workers),
            gold,
            "telemetry bytes diverged at {workers} workers"
        );
    }
}

#[test]
fn telemetry_survives_jsonl_round_trip() {
    let store = SharedStore::new();
    let tunnel = WindTunnel::new();
    Farm::new(2).run_recorded(3, &scenarios()[..4], &store, |sc, _ctx, shard| {
        tunnel.run_availability_observed_into(sc, shard, None);
    });

    let dir = std::env::temp_dir().join(format!("wt_obs_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("telemetry.jsonl");
    store
        .with(|s: &ResultStore| s.save_jsonl(&path))
        .expect("saves");
    let loaded = ResultStore::load_jsonl(&path).expect("loads");
    std::fs::remove_dir_all(&dir).ok();

    let before = store.snapshot();
    let after = loaded.snapshot();
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        let bt = b.telemetry.as_ref().expect("saved with telemetry");
        let at = a.telemetry.as_ref().expect("loaded with telemetry");
        // The whole struct round-trips — including the wall-clock side.
        assert_eq!(bt, at, "record {} telemetry changed in flight", b.id);
        assert!(at.events > 0 || at.horizon_s > 0.0);
    }
}

#[test]
fn trace_span_count_matches_engine_events() {
    let scenario = ScenarioBuilder::new("obs-trace")
        .racks(1)
        .nodes_per_rack(8)
        .objects(150)
        .horizon_years(0.2)
        .seed(42)
        .build();
    let tunnel = WindTunnel::new();
    let mut probe = TraceProbe::new();
    let (_, telemetry) =
        tunnel.run_availability_observed_into(&scenario, tunnel.store(), Some(&mut probe));

    assert_eq!(probe.span_count() as u64, telemetry.events);

    // The JSON export carries exactly one "X" span per engine event.
    let mut buf = Vec::new();
    probe.write_chrome_json(&mut buf).expect("writes");
    let json = String::from_utf8(buf).expect("utf8");
    let spans = json.matches("\"ph\":\"X\"").count();
    assert_eq!(spans as u64, telemetry.events);

    // The tee'd SimProbe saw the same stream: label counts partition
    // the total.
    let by_label: u64 = telemetry.events_by_label.values().sum();
    assert_eq!(by_label, telemetry.events);
}
