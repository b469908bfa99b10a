//! Integration: scenario serialization and the §4.4 result-store loop —
//! run, persist, reload, similarity-search.

use windtunnel::prelude::*;
use wt_store::{ParamValue, ResultStore};

#[test]
fn scenario_json_roundtrip_preserves_semantics() {
    let scenario = ScenarioBuilder::new("roundtrip")
        .racks(2)
        .nodes_per_rack(8)
        .disk(catalog::ssd_nvme_2t())
        .erasure(6, 3)
        .placement(Placement::Copyset { scatter_width: 4 })
        .repair(RepairPolicy::parallel(8))
        .objects(100)
        .seed(5)
        .build();
    let json = serde_json::to_string_pretty(&scenario).expect("serializes");
    let back: Scenario = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.redundancy, scenario.redundancy);
    assert_eq!(back.placement, scenario.placement);
    assert_eq!(back.topology.node.disks[0].name, "ssd-nvme-2t");

    // Same scenario, same seed → byte-identical simulation results.
    let tunnel = WindTunnel::new();
    let (a, _) = tunnel.run_availability_observed_into(&scenario, tunnel.store(), None);
    let (b, _) = tunnel.run_availability_observed_into(&back, tunnel.store(), None);
    assert_eq!(a, b, "a deserialized scenario must replay identically");
}

#[test]
fn store_persists_and_answers_similarity_queries() {
    let tunnel = WindTunnel::new();
    for racks in [1usize, 4, 10] {
        let sc = ScenarioBuilder::new(format!("racks{racks}"))
            .racks(racks)
            .nodes_per_rack(10)
            .objects(100)
            .horizon_years(0.1)
            .seed(3)
            .build();
        tunnel.run_availability_observed_into(&sc, tunnel.store(), None);
    }
    assert_eq!(tunnel.store().len(), 3);

    // Persist and reload.
    let dir = std::env::temp_dir().join("windtunnel-integration");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("runs.jsonl");
    let snapshot = tunnel.store().snapshot();
    let mut disk_store = ResultStore::new();
    for mut rec in snapshot {
        rec.id = 0; // let the store reassign
        disk_store.append(rec);
    }
    disk_store.save_jsonl(&path).expect("saves");
    let loaded = ResultStore::load_jsonl(&path).expect("loads");
    assert_eq!(loaded.len(), 3);

    // "Have I explored a configuration similar to a 3-rack build?" —
    // the numeric racks axis ranks 4 closest, then 1, then 10.
    let mut target = loaded
        .records()
        .next()
        .expect("records loaded")
        .params
        .clone();
    // The scenario name is unique per record; drop it so the comparison is
    // about configuration, not labels.
    target.remove("scenario");
    target.insert("racks".to_string(), ParamValue::Num(3.0));
    target.insert("nodes".to_string(), ParamValue::Num(30.0));
    let similar = loaded.find_similar(&target, 3);
    let rack_order: Vec<f64> = similar
        .iter()
        .map(|(r, _)| r.params["racks"].as_num().expect("numeric"))
        .collect();
    assert_eq!(rack_order, vec![4.0, 1.0, 10.0], "similarity ranking");

    std::fs::remove_file(&path).ok();
}

#[test]
fn best_by_finds_cheapest_meeting_availability() {
    let tunnel = WindTunnel::new();
    for (n, racks) in [(3usize, 1usize), (3, 2), (5, 1)] {
        let sc = ScenarioBuilder::new(format!("rep{n}x{racks}"))
            .racks(racks)
            .nodes_per_rack(10)
            .replication(n)
            .objects(100)
            .horizon_years(0.1)
            .seed(4)
            .build();
        tunnel.run_availability_observed_into(&sc, tunnel.store(), None);
    }
    tunnel.store().with(|store| {
        let cheapest = store.best_by("tco_usd_per_year", true).expect("records");
        assert_eq!(cheapest.params["racks"], ParamValue::Num(1.0));
    });
}
