//! The result store: append, query, persist, and similarity-search
//! simulation runs.
//!
//! The store is append-only and keeps records in id order (appends
//! assign increasing ids; a loaded file may leave gaps), which makes
//! `get` a binary search. Parallel producers never append here
//! directly: they record into lock-free [`crate::shard::StoreShard`]s
//! that are merged in deterministic run order (see [`crate::shard`]).

use crate::record::{ParamValue, RunRecord};
use crate::shard::StoreShard;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use wt_obs::MetricsSnapshot;

/// An append-only, in-memory store of run records with JSON-lines
/// persistence.
#[derive(Debug, Default)]
pub struct ResultStore {
    /// Records in ascending-id order.
    records: Vec<RunRecord>,
    /// The id the next append takes: past every stored id.
    next_id: u64,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, assigning its id. Returns the id.
    pub fn append(&mut self, mut record: RunRecord) -> u64 {
        let id = self.next_id;
        self.next_id = id.checked_add(1).expect("record ids stay below u64::MAX");
        record.id = id;
        self.records.push(record);
        id
    }

    /// Merges a worker shard: every buffered record is appended (ids
    /// assigned here, in shard order). Callers that merge shards in
    /// deterministic run order — as `windtunnel::farm` does — therefore
    /// get identical ids and snapshot order for any worker count.
    /// Returns the number of records merged.
    pub fn merge_shard(&mut self, shard: StoreShard) -> u64 {
        let records = shard.into_records();
        let n = records.len() as u64;
        for r in records {
            self.append(r);
        }
        n
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All stored records in id order.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.records.iter()
    }

    /// A full copy of the stored records, in id order.
    pub fn snapshot(&self) -> Vec<RunRecord> {
        self.records.to_vec()
    }

    /// Distills the stored records into a [`MetricsSnapshot`]: run and
    /// event counters, per-metric quantile summaries (`metric_<name>`,
    /// one observation per record), and every run's telemetry sketches
    /// merged label-wise. Records fold in id order — the same order the
    /// farm's deterministic shard merge assigns — so the snapshot (and
    /// its text exposition) is bitwise worker-count-invariant.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("runs_total", self.records.len() as u64);
        let mut events = 0u64;
        for r in &self.records {
            for (key, value) in &r.metrics {
                snap.quantiles
                    .entry(format!("metric_{key}"))
                    .or_default()
                    .record(*value);
            }
            if let Some(t) = &r.telemetry {
                events += t.events;
                if let Some(set) = &t.sketches {
                    snap.merge_sketch_set(set);
                }
            }
        }
        snap.add_counter("events_total", events);
        snap
    }

    /// Record by id: a binary search over the id-ordered records (a
    /// loaded file may have gaps, so an id is not an offset).
    pub fn get(&self, id: u64) -> Option<&RunRecord> {
        self.records
            .binary_search_by_key(&id, |r| r.id)
            .ok()
            .map(|i| &self.records[i])
    }

    /// Records of one experiment family, in id order.
    pub fn by_experiment(&self, experiment: &str) -> Vec<&RunRecord> {
        self.query(|r| r.experiment == experiment)
    }

    /// Records matching a predicate (a scan — predicates are opaque).
    pub fn query(&self, pred: impl Fn(&RunRecord) -> bool) -> Vec<&RunRecord> {
        self.records.iter().filter(|r| pred(r)).collect()
    }

    /// Record count per experiment family, sorted by name — the
    /// store-occupancy summary behind WTQL's `.stats`.
    pub fn experiment_counts(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &self.records {
            *counts.entry(&r.experiment).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(exp, n)| (exp.to_string(), n))
            .collect()
    }

    /// Best record by a metric (`minimize = true` for costs, `false` for
    /// availabilities), restricted to records that have the metric.
    pub fn best_by(&self, metric: &str, minimize: bool) -> Option<&RunRecord> {
        self.records
            .iter()
            .filter(|r| r.metrics.contains_key(metric))
            .min_by(|a, b| {
                let (x, y) = (a.metrics[metric], b.metrics[metric]);
                let ord = x.partial_cmp(&y).expect("finite metrics");
                if minimize {
                    ord
                } else {
                    ord.reverse()
                }
            })
    }

    /// The §4.4 similarity query: the `k` stored configurations closest to
    /// `target`. Distance per shared axis: normalized absolute difference
    /// for numeric values (scaled by the axis's value range across the
    /// store), 0/1 mismatch for categorical/boolean values; axes missing
    /// on either side cost 1. Lower is more similar.
    pub fn find_similar(
        &self,
        target: &BTreeMap<String, ParamValue>,
        k: usize,
    ) -> Vec<(&RunRecord, f64)> {
        // Pre-compute numeric ranges per axis for normalization.
        let mut ranges: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for r in &self.records {
            for (key, v) in &r.params {
                if let Some(x) = v.as_num() {
                    let e = ranges.entry(key).or_insert((x, x));
                    e.0 = e.0.min(x);
                    e.1 = e.1.max(x);
                }
            }
        }
        let mut scored: Vec<(&RunRecord, f64)> = self
            .records
            .iter()
            .map(|r| (r, Self::distance(&r.params, target, &ranges)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
        scored.truncate(k);
        scored
    }

    fn distance(
        a: &BTreeMap<String, ParamValue>,
        b: &BTreeMap<String, ParamValue>,
        ranges: &BTreeMap<&str, (f64, f64)>,
    ) -> f64 {
        let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        let mut total = 0.0;
        for key in keys {
            match (a.get(key.as_str()), b.get(key.as_str())) {
                (Some(x), Some(y)) => match (x, y) {
                    (ParamValue::Num(x), ParamValue::Num(y)) => {
                        let (lo, hi) = ranges
                            .get(key.as_str())
                            .copied()
                            .unwrap_or((x.min(*y), x.max(*y)));
                        let span = (hi - lo).max(f64::EPSILON);
                        total += ((x - y).abs() / span).min(1.0);
                    }
                    _ => total += if x == y { 0.0 } else { 1.0 },
                },
                _ => total += 1.0,
            }
        }
        total
    }

    /// Streams records of one experiment as CSV (params then metrics as
    /// columns; the union of keys across records, blank where absent) —
    /// the format the figures pipeline consumes. Writing directly to `w`
    /// lets large experiments go to disk without building the whole CSV
    /// in memory.
    pub fn write_csv(&self, experiment: &str, w: &mut impl Write) -> std::io::Result<()> {
        let records = self.by_experiment(experiment);
        let mut param_keys: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        let mut metric_keys: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for r in &records {
            param_keys.extend(r.params.keys().map(String::as_str));
            metric_keys.extend(r.metrics.keys().map(String::as_str));
        }
        write!(w, "id,seed")?;
        for k in &param_keys {
            write!(w, ",{k}")?;
        }
        for k in &metric_keys {
            write!(w, ",{k}")?;
        }
        writeln!(w)?;
        for r in &records {
            write!(w, "{},{}", r.id, r.seed)?;
            for k in &param_keys {
                w.write_all(b",")?;
                if let Some(v) = r.params.get(*k) {
                    let cell = v.to_string();
                    // Quote cells containing separators.
                    if cell.contains(',') || cell.contains('"') {
                        write!(w, "\"{}\"", cell.replace('"', "\"\""))?;
                    } else {
                        w.write_all(cell.as_bytes())?;
                    }
                }
            }
            for k in &metric_keys {
                w.write_all(b",")?;
                if let Some(v) = r.metrics.get(*k) {
                    write!(w, "{v}")?;
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// [`Self::write_csv`] into a `String`, for small experiments.
    pub fn export_csv(&self, experiment: &str) -> String {
        let mut buf = Vec::new();
        self.write_csv(experiment, &mut buf)
            .expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("CSV is UTF-8")
    }

    /// Persists all records as JSON lines (buffered, one line at a time —
    /// the store is never serialized as a whole).
    pub fn save_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for r in &self.records {
            let line = serde_json::to_string(r).expect("records serialize");
            writeln!(w, "{line}")?;
        }
        w.flush()
    }

    /// Loads records from a JSON-lines file (ids are preserved; the next
    /// id continues past the maximum loaded). Lines are parsed one at a
    /// time into a reused buffer, so peak memory is the records
    /// themselves, never a second copy of the file. A malformed line, or
    /// a record id of `u64::MAX` (which leaves no id for the next
    /// append), is an [`std::io::ErrorKind::InvalidData`] error.
    pub fn load_jsonl(path: &Path) -> std::io::Result<Self> {
        let invalid = std::io::ErrorKind::InvalidData;
        let mut reader = BufReader::with_capacity(1 << 16, std::fs::File::open(path)?);
        let mut store = ResultStore::new();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let r: RunRecord =
                serde_json::from_str(trimmed).map_err(|e| std::io::Error::new(invalid, e))?;
            let next = r.id.checked_add(1).ok_or_else(|| {
                std::io::Error::new(invalid, format!("record id {} leaves no next id", r.id))
            })?;
            store.next_id = store.next_id.max(next);
            // Files `save_jsonl` writes are id-ordered; a hand-edited
            // out-of-order line is inserted by id.
            if store.records.last().is_none_or(|b| b.id < r.id) {
                store.records.push(r);
            } else {
                let pos = store.records.partition_point(|x| x.id < r.id);
                store.records.insert(pos, r);
            }
        }
        Ok(store)
    }
}

/// A clonable, thread-safe handle to the *merged* store — what queries
/// read and what shard merges fold into. Parallel recording does not go
/// through this lock: workers buffer into [`StoreShard`]s and the fold
/// thread merges them one lock acquisition per shard (see
/// `windtunnel::farm::Farm::run_recorded`).
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    inner: Arc<RwLock<ResultStore>>,
}

impl SharedStore {
    /// A fresh shared store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record (takes the write lock — the contended path the
    /// sharded recording flow avoids).
    pub fn append(&self, record: RunRecord) -> u64 {
        self.inner.write().append(record)
    }

    /// Merges a worker shard under one write-lock acquisition.
    pub fn merge_shard(&self, shard: StoreShard) -> u64 {
        self.inner.write().merge_shard(shard)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Runs `f` over the locked store (read access).
    pub fn with<R>(&self, f: impl FnOnce(&ResultStore) -> R) -> R {
        f(&self.inner.read())
    }

    /// Extracts a full copy of the records.
    pub fn snapshot(&self) -> Vec<RunRecord> {
        self.inner.read().snapshot()
    }

    /// See [`ResultStore::metrics_snapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.read().metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(exp: &str, n: f64, placement: &str, avail: f64) -> RunRecord {
        RunRecord::new(exp, 1)
            .param("n", n)
            .param("placement", placement)
            .metric("availability", avail)
    }

    #[test]
    fn metrics_snapshot_folds_metrics_and_sketches() {
        use wt_obs::{RunTelemetry, SketchSet};
        let mut s = ResultStore::new();
        for i in 0..10u64 {
            let mut set = SketchSet::default();
            let mut q = wt_obs::QuantileSketch::new();
            q.record((i + 1) as f64);
            set.values.insert("wait_s".into(), q);
            let mut h = wt_obs::Hll::new();
            h.insert(i % 4); // 4 distinct keys across the store
            set.distincts.insert("objects".into(), h);
            let t = RunTelemetry {
                events: 100,
                sketches: Some(set),
                ..RunTelemetry::default()
            };
            s.append(rec("e", i as f64, "R", 0.9).telemetry(t));
        }
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counters["runs_total"], 10);
        assert_eq!(snap.counters["events_total"], 1000);
        // Per-record scalar metrics fold into a summary...
        assert_eq!(snap.quantiles["metric_availability"].count(), 10);
        // ...and telemetry sketches merge label-wise.
        assert_eq!(snap.quantiles["wait_s"].count(), 10);
        let distinct = snap.distincts["objects"].estimate().round() as u64;
        assert_eq!(distinct, 4);
        let text = snap.render();
        assert!(text.contains("wt_runs_total 10"));
        assert!(text.contains("# TYPE wt_wait_s summary"));
        assert!(text.contains("wt_objects_distinct 4"));
    }

    #[test]
    fn append_assigns_monotone_ids() {
        let mut s = ResultStore::new();
        let a = s.append(rec("fig1", 3.0, "R", 0.9));
        let b = s.append(rec("fig1", 5.0, "R", 0.99));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().params["n"], ParamValue::Num(5.0));
        assert!(s.get(99).is_none());
    }

    #[test]
    fn query_and_by_experiment() {
        let mut s = ResultStore::new();
        s.append(rec("fig1", 3.0, "R", 0.9));
        s.append(rec("fig1", 5.0, "RR", 0.99));
        s.append(rec("e2", 3.0, "R", 0.95));
        assert_eq!(s.by_experiment("fig1").len(), 2);
        assert!(s.by_experiment("nope").is_empty());
        let high = s.query(|r| r.get_metric("availability").unwrap_or(0.0) > 0.92);
        assert_eq!(high.len(), 2);
    }

    #[test]
    fn best_by_metric() {
        let mut s = ResultStore::new();
        s.append(rec("e4", 3.0, "R", 0.90));
        s.append(rec("e4", 5.0, "R", 0.99));
        let best = s.best_by("availability", false).unwrap();
        assert_eq!(best.params["n"], ParamValue::Num(5.0));
        let worst = s.best_by("availability", true).unwrap();
        assert_eq!(worst.params["n"], ParamValue::Num(3.0));
        assert!(s.best_by("nope", true).is_none());
    }

    #[test]
    fn similarity_prefers_nearby_configs() {
        let mut s = ResultStore::new();
        s.append(rec("fig1", 3.0, "R", 0.9));
        s.append(rec("fig1", 5.0, "R", 0.95));
        s.append(rec("fig1", 3.0, "RR", 0.92));
        let mut target = BTreeMap::new();
        target.insert("n".to_string(), ParamValue::Num(3.0));
        target.insert("placement".to_string(), ParamValue::Str("R".into()));
        let sims = s.find_similar(&target, 2);
        assert_eq!(sims.len(), 2);
        // Exact match first with distance 0.
        assert_eq!(sims[0].0.params["placement"], ParamValue::Str("R".into()));
        assert_eq!(sims[0].0.params["n"], ParamValue::Num(3.0));
        assert_eq!(sims[0].1, 0.0);
        assert!(sims[1].1 > 0.0);
    }

    #[test]
    fn similarity_normalizes_numeric_axes() {
        let mut s = ResultStore::new();
        // Axis "mem" spans 64..1024: a 64 GB difference is small.
        s.append(RunRecord::new("e4", 1).param("mem", 64.0));
        s.append(RunRecord::new("e4", 1).param("mem", 128.0));
        s.append(RunRecord::new("e4", 1).param("mem", 1024.0));
        let mut target = BTreeMap::new();
        target.insert("mem".to_string(), ParamValue::Num(96.0));
        let sims = s.find_similar(&target, 3);
        let mems: Vec<f64> = sims
            .iter()
            .map(|(r, _)| r.params["mem"].as_num().unwrap())
            .collect();
        assert_eq!(mems, vec![64.0, 128.0, 1024.0]);
    }

    #[test]
    fn missing_axes_cost_full_distance() {
        let mut s = ResultStore::new();
        s.append(RunRecord::new("x", 1).param("a", 1.0));
        let mut target = BTreeMap::new();
        target.insert("b".to_string(), ParamValue::Num(1.0));
        let sims = s.find_similar(&target, 1);
        assert_eq!(sims[0].1, 2.0); // both "a" and "b" unmatched
    }

    #[test]
    fn csv_export_has_union_of_columns() {
        let mut s = ResultStore::new();
        s.append(rec("fig1", 3.0, "R", 0.9));
        s.append(
            RunRecord::new("fig1", 2)
                .param("n", 5.0)
                .param("extra", "x,y") // needs quoting
                .metric("availability", 0.99)
                .metric("tco", 100.0),
        );
        s.append(rec("other", 1.0, "RR", 0.5));
        let csv = s.export_csv("fig1");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "{csv}");
        assert_eq!(lines[0], "id,seed,extra,n,placement,availability,tco");
        // First record has no 'extra'/'tco': blank cells.
        assert!(lines[1].starts_with("0,1,,3,R,0.9,"));
        // The comma-bearing value is quoted.
        assert!(lines[2].contains("\"x,y\""), "{}", lines[2]);
    }

    #[test]
    fn write_csv_streams_identically_to_export() {
        let mut s = ResultStore::new();
        s.append(rec("fig1", 3.0, "R", 0.9));
        s.append(rec("fig1", 5.0, "RR", 0.99));
        let mut streamed = Vec::new();
        s.write_csv("fig1", &mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), s.export_csv("fig1"));
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut s = ResultStore::new();
        s.append(rec("fig1", 3.0, "R", 0.9));
        s.append(rec("fig1", 5.0, "RR", 0.99));
        let dir = std::env::temp_dir().join("wt-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        s.save_jsonl(&path).unwrap();
        let loaded = ResultStore::load_jsonl(&path).unwrap();
        assert_eq!(loaded.snapshot(), s.snapshot());
        // Appending continues past the loaded ids.
        let mut loaded = loaded;
        let id = loaded.append(rec("fig1", 7.0, "R", 0.999));
        assert_eq!(id, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_sketch_jsonl_still_loads() {
        // Files written before telemetry grew its `sketches` field have
        // no such member at all; they must keep loading, with sketches
        // deserializing as `None` and every other field intact.
        let mut s = ResultStore::new();
        let t = wt_obs::RunTelemetry {
            events: 42,
            stop_reason: "HorizonReached".into(),
            ..Default::default()
        };
        s.append(
            RunRecord::new("old-format", 9)
                .metric("availability", 0.99)
                .telemetry(t),
        );
        let dir = std::env::temp_dir().join("wt-store-test-presketch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.jsonl");
        s.save_jsonl(&path).unwrap();
        // Rewrite the file as the pre-sketch format: drop the member.
        let text = std::fs::read_to_string(&path).unwrap();
        let stripped = text
            .replace("\"sketches\":null,", "")
            .replace(",\"sketches\":null", "");
        assert_ne!(stripped, text, "expected a sketches member to strip");
        std::fs::write(&path, &stripped).unwrap();
        let loaded = ResultStore::load_jsonl(&path).unwrap();
        let recs = loaded.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].metrics["availability"], 0.99);
        let t = recs[0].telemetry.as_ref().expect("telemetry still parses");
        assert_eq!(t.events, 42);
        assert_eq!(t.sketches, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn get_handles_id_gaps_after_load() {
        // Hand-pruning a JSONL file leaves gaps in the id sequence;
        // `get` must still resolve ids on both sides of a gap and miss
        // cleanly inside it.
        let mut s = ResultStore::new();
        for i in 0..6 {
            s.append(rec("gap", i as f64, "R", 0.9));
        }
        let dir = std::env::temp_dir().join("wt-store-test-gaps");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gappy.jsonl");
        s.save_jsonl(&path).unwrap();
        // Drop ids 2 and 3 from the file.
        let kept: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter(|l| !l.contains("\"id\":2") && !l.contains("\"id\":3"))
            .map(String::from)
            .collect();
        std::fs::write(&path, kept.join("\n")).unwrap();
        let loaded = ResultStore::load_jsonl(&path).unwrap();
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded.get(1).unwrap().params["n"], ParamValue::Num(1.0));
        assert_eq!(loaded.get(4).unwrap().params["n"], ParamValue::Num(4.0));
        assert!(loaded.get(2).is_none());
        assert!(loaded.get(3).is_none());
        // New ids continue past the loaded maximum, not into the gap.
        let mut loaded = loaded;
        assert_eq!(loaded.append(rec("gap", 9.0, "R", 0.9)), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_tolerates_out_of_order_lines() {
        let dir = std::env::temp_dir().join("wt-store-test-ooo");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shuffled.jsonl");
        let mut s = ResultStore::new();
        for i in 0..4 {
            s.append(rec("ooo", i as f64, "R", 0.9));
        }
        let mut lines: Vec<String> = {
            let mut buf = Vec::new();
            for r in s.records() {
                buf.push(serde_json::to_string(r).unwrap());
            }
            buf
        };
        lines.swap(1, 3); // file order: 0, 3, 2, 1
        std::fs::write(&path, lines.join("\n")).unwrap();
        let loaded = ResultStore::load_jsonl(&path).unwrap();
        let ids: Vec<u64> = loaded.records().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "store re-sorts by id");
        assert_eq!(loaded.by_experiment("ooo").len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_an_id_that_leaves_no_next_id() {
        // The next append takes the loaded maximum + 1, which does not
        // exist past u64::MAX: an InvalidData error, not an overflow.
        let dir = std::env::temp_dir().join("wt-store-test-max-id");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("max-id.jsonl");
        let mut r = rec("max", 1.0, "R", 0.9);
        r.id = u64::MAX;
        std::fs::write(&path, serde_json::to_string(&r).unwrap()).unwrap();
        let err = ResultStore::load_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("18446744073709551615"), "{err}");
        // One below is the largest id a file may hold.
        r.id = u64::MAX - 1;
        std::fs::write(&path, serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(ResultStore::load_jsonl(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_store_concurrent_appends() {
        let store = SharedStore::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        store.append(RunRecord::new("conc", t * 100 + i).param("t", t as f64));
                    }
                });
            }
        });
        assert_eq!(store.len(), 400);
        // All ids distinct.
        let mut ids: Vec<u64> = store.snapshot().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }
}
