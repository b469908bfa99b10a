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

mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::io::ErrorKind;
    use std::path::Path;
    use wt_workload::Trace;

    /// Number literals that overflow, wrap or saturate the integer and
    /// float fields a record or trace line deserializes into.
    const HOSTILE: &[&str] = &[
        "-9223372036854775808",
        "-9223372036854775809",
        "-18446744073709551615",
        "18446744073709551615",
        "18446744073709551616",
        "4294967296",
        "1e400",
        "-1e400",
        "-1",
        "0.5",
    ];

    /// `text` with its `at`-th number literal (modulo the count; string
    /// contents are skipped) replaced by `token`.
    fn splice(text: &str, at: usize, token: &str) -> String {
        let b = text.as_bytes();
        let mut spans = Vec::new();
        let mut i = 0;
        while i < b.len() {
            if b[i] == b'"' {
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
            } else if b[i] == b'-' || b[i].is_ascii_digit() {
                let start = i;
                while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                spans.push(start..i);
                continue;
            }
            i += 1;
        }
        let mut out = text.to_string();
        out.replace_range(spans[at % spans.len()].clone(), token);
        out
    }

    /// Writes `text` to `path` and loads it: the load must succeed or
    /// fail with `InvalidData`, never panic.
    fn assert_ok_or_invalid<T>(path: &Path, text: &str, load: fn(&Path) -> std::io::Result<T>) {
        std::fs::write(path, text).expect("writes");
        if let Err(e) = load(path) {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}\n{text}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn jsonl_loaders_never_panic_on_hostile_numbers(
            at in 0usize..10_000,
            token in 0usize..HOSTILE.len(),
        ) {
            let dir = std::env::temp_dir().join("windtunnel-hostile-jsonl");
            std::fs::create_dir_all(&dir).expect("tempdir");

            // A real record, with telemetry and sketches, as a run writes it.
            let tunnel = WindTunnel::new();
            let sc = ScenarioBuilder::new("hostile")
                .racks(1)
                .nodes_per_rack(6)
                .objects(50)
                .horizon_years(0.05)
                .seed(8)
                .build();
            tunnel.run_availability_observed_into(&sc, tunnel.store(), None);
            let record = serde_json::to_string(&tunnel.store().snapshot()[0]).expect("serializes");
            let path = dir.join("records.jsonl");
            assert_ok_or_invalid(&path, &splice(&record, at, HOSTILE[token]), ResultStore::load_jsonl);

            let path = dir.join("trace.jsonl");
            let tenant = TenantWorkload::oltp("hostile", 20.0, 100);
            Trace::record(&tenant, 1.0, 8).save_jsonl(&path).expect("saves");
            let trace = std::fs::read_to_string(&path).expect("reads");
            assert_ok_or_invalid(&path, &splice(&trace, at, HOSTILE[token]), Trace::load_jsonl);
        }
    }
}
