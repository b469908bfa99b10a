//! The tunnel itself: run scenarios, attach cost, record runs.

use serde::{Deserialize, Serialize};
use wt_cluster::availability::{DiskFailureModel, SwitchFailureModel};
use wt_cluster::chaos::ChaosConfig;
use wt_cluster::{
    AvailabilityModel, AvailabilityResult, PerfModel, PerfResult, RebuildModel, Scenario,
};
use wt_des::obs::{Probe, RunTelemetry};
use wt_des::time::SimDuration;
use wt_hw::CostModel;
use wt_store::{RecordSink, RunRecord, SharedStore};

/// The wind tunnel: a facade over the simulation engines plus the result
/// store and cost model.
#[derive(Debug, Clone, Default)]
pub struct WindTunnel {
    store: SharedStore,
    cost: CostModel,
}

/// Student-t 97.5% quantile for `df` degrees of freedom (normal
/// approximation beyond 30 df) — the multiplier behind every 95%
/// confidence half-width in the tunnel.
pub fn t_quantile_975(df: usize) -> f64 {
    const T: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    assert!(df >= 1, "confidence interval needs at least 2 samples");
    if df <= 30 {
        T[df - 1]
    } else {
        1.96
    }
}

/// A sample mean with an approximate 95% confidence half-width — the
/// shape behind the guided planner's per-constraint early-stop
/// decisions over WTQL replications.
///
/// All `confidently_*` tests require a real interval (`n ≥ 2` and a
/// finite half-width); a degenerate interval resolves nothing, in either
/// direction — the PR-4 NaN-guard contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanInterval {
    /// Sample mean.
    pub mean: f64,
    /// Approximate 95% confidence half-width of the mean.
    pub half_width_95: f64,
    /// Number of samples.
    pub n: usize,
}

impl MeanInterval {
    /// Builds the interval from a tally of `n ≥ 2` samples.
    pub fn from_tally(tally: &wt_des::Tally) -> Self {
        let n = tally.count() as usize;
        assert!(n >= 2, "confidence intervals need at least 2 samples");
        let t = t_quantile_975(n - 1);
        MeanInterval {
            mean: tally.mean(),
            half_width_95: t * (tally.variance() / n as f64).sqrt(),
            n,
        }
    }

    /// Is there a usable interval at all?
    fn resolved(&self) -> bool {
        self.n >= 2 && self.half_width_95.is_finite() && self.mean.is_finite()
    }

    /// The whole interval sits at or above `bound`.
    pub fn confidently_at_least(&self, bound: f64) -> bool {
        self.resolved() && self.mean - self.half_width_95 >= bound
    }

    /// The whole interval sits strictly above `bound`.
    pub fn confidently_above(&self, bound: f64) -> bool {
        self.resolved() && self.mean - self.half_width_95 > bound
    }

    /// The whole interval sits at or below `bound`.
    pub fn confidently_at_most(&self, bound: f64) -> bool {
        self.resolved() && self.mean + self.half_width_95 <= bound
    }

    /// The whole interval sits strictly below `bound`.
    pub fn confidently_below(&self, bound: f64) -> bool {
        self.resolved() && self.mean + self.half_width_95 < bound
    }
}

impl WindTunnel {
    /// A tunnel with a fresh store and default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tunnel writing into an existing shared store.
    pub fn with_store(store: SharedStore) -> Self {
        WindTunnel {
            store,
            cost: CostModel::default(),
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The result store.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Derives the availability engine configuration from a scenario:
    /// node reliability from the node spec, rebuild bandwidth from the
    /// NIC and repair policy.
    pub fn availability_model(scenario: &Scenario) -> AvailabilityModel {
        AvailabilityModel {
            n_nodes: scenario.topology.node_count(),
            redundancy: scenario.redundancy,
            placement: scenario.placement,
            objects: scenario.objects,
            object_bytes: scenario.object_bytes,
            node_ttf: scenario.topology.node.ttf.clone(),
            node_replace: scenario.topology.node.repair.clone(),
            rebuild: RebuildModel::Bandwidth {
                link_gbps: scenario.topology.node.nic.bandwidth_gbps,
                share: scenario.repair.bandwidth_share,
            },
            repair: scenario.repair,
            switches: scenario.switch_failures.then(|| SwitchFailureModel {
                nodes_per_rack: scenario.topology.nodes_per_rack,
                ttf: scenario.topology.tor.ttf.clone(),
                repair: scenario.topology.tor.repair.clone(),
            }),
            disks: scenario.disk_failures.then(|| DiskFailureModel {
                per_node: scenario.topology.node.disks.len().max(1),
                ttf: scenario.topology.node.disks[0].ttf.clone(),
                replace: scenario.topology.node.disks[0].repair.clone(),
            }),
            chaos: Self::chaos_config(scenario),
        }
    }

    /// Derives the performance engine configuration from a scenario.
    pub fn perf_model(scenario: &Scenario, inject_failures: bool) -> PerfModel {
        PerfModel {
            topology: scenario.topology.clone(),
            redundancy: scenario.redundancy,
            placement: scenario.placement,
            tenants: scenario.tenants.clone(),
            limpware: scenario.limpware.clone(),
            inject_failures,
            node_ttf: None,
            horizon_s: (scenario.horizon_years * 365.0 * 86_400.0).min(600.0),
            chaos: Self::chaos_config(scenario),
        }
    }

    /// The chaos configuration both engines compile, when the scenario
    /// declares a non-empty fault schedule.
    fn chaos_config(scenario: &Scenario) -> Option<ChaosConfig> {
        scenario.fault_schedule().map(|s| ChaosConfig {
            schedule: s.clone(),
            nodes_per_rack: scenario.topology.nodes_per_rack,
        })
    }

    fn base_record(scenario: &Scenario, experiment: &str) -> RunRecord {
        RunRecord::new(experiment, scenario.seed)
            .param("scenario", scenario.name.as_str())
            .param("nodes", scenario.topology.node_count())
            .param("racks", scenario.topology.racks)
            .param("disk", scenario.topology.node.disks[0].name.as_str())
            .param("nic_gbps", scenario.topology.node.nic.bandwidth_gbps)
            .param("mem_gb", scenario.topology.node.mem.capacity_gb)
            .param("redundancy", scenario.redundancy.label().as_str())
            .param("placement", scenario.placement.label())
            .param("repair_parallel", scenario.repair.max_parallel)
            .param("objects", scenario.objects as usize)
    }

    /// Runs the availability engine over the scenario's horizon, records
    /// the outcome into `sink` — a farm worker's private `StoreShard`, so
    /// recording never contends on the shared store, or the tunnel's own
    /// [`store`](Self::store) — and returns the result with the run's
    /// [`RunTelemetry`] (also attached to the record).
    ///
    /// The event stream is forwarded to `extra` when given (e.g. a
    /// `TraceProbe`). The telemetry's simulation-derived fields are
    /// deterministic; only `telemetry.wall` carries wall-clock state,
    /// measured here around the engine call.
    pub fn run_availability_observed_into(
        &self,
        scenario: &Scenario,
        sink: &dyn RecordSink,
        extra: Option<&mut dyn Probe>,
    ) -> (AvailabilityResult, RunTelemetry) {
        let model = Self::availability_model(scenario);
        let horizon = SimDuration::from_years(scenario.horizon_years);
        let started = std::time::Instant::now();
        let (result, mut telemetry) = model.run_observed(scenario.seed, horizon, extra);
        telemetry.wall.wall_us = started.elapsed().as_micros() as u64;
        let record = Self::base_record(scenario, "availability")
            .metric("availability", result.availability)
            .metric("unavailability_events", result.unavailability_events as f64)
            .metric("objects_lost", result.objects_lost as f64)
            .metric("node_failures", result.node_failures as f64)
            .metric(
                "tco_usd_per_year",
                self.cost.cost(&scenario.topology).tco_usd_per_year,
            )
            .telemetry(telemetry.clone());
        sink.record(record);
        (result, telemetry)
    }

    /// Runs the performance engine (capped at 600 simulated seconds — a
    /// latency measurement, not a reliability horizon), records it into
    /// `sink` with per-tenant latency metrics, and returns the result with
    /// the run's telemetry (see [`Self::run_availability_observed_into`]).
    pub fn run_perf_observed_into(
        &self,
        scenario: &Scenario,
        inject_failures: bool,
        sink: &dyn RecordSink,
        extra: Option<&mut dyn Probe>,
    ) -> (PerfResult, RunTelemetry) {
        let model = Self::perf_model(scenario, inject_failures);
        let started = std::time::Instant::now();
        let (result, mut telemetry) = model.run_observed(scenario.seed, extra);
        telemetry.wall.wall_us = started.elapsed().as_micros() as u64;
        let mut record = Self::base_record(scenario, "perf")
            .metric(
                "tco_usd_per_year",
                self.cost.cost(&scenario.topology).tco_usd_per_year,
            )
            .telemetry(telemetry.clone());
        for t in &result.tenants {
            record = record
                .metric(format!("{}_p95_s", t.name), t.p95_s)
                .metric(format!("{}_p99_s", t.name), t.p99_s)
                .metric(format!("{}_throughput", t.name), t.throughput);
        }
        sink.record(record);
        (result, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScenarioBuilder;
    use wt_workload::TenantWorkload;

    /// One availability run recorded into the tunnel's own store.
    fn availability_of(tunnel: &WindTunnel, sc: &Scenario) -> AvailabilityResult {
        tunnel
            .run_availability_observed_into(sc, tunnel.store(), None)
            .0
    }

    /// One perf run recorded into the tunnel's own store.
    fn perf_of(tunnel: &WindTunnel, sc: &Scenario, inject_failures: bool) -> PerfResult {
        tunnel
            .run_perf_observed_into(sc, inject_failures, tunnel.store(), None)
            .0
    }

    /// Mean availability over `reps` replications of `sc` (seeds
    /// `seed + 7919·rep`) as a [`MeanInterval`].
    fn replicated_interval(tunnel: &WindTunnel, sc: &Scenario, reps: u64) -> MeanInterval {
        let mut tally = wt_des::Tally::new();
        for rep in 0..reps {
            let s = sc.with_seed(sc.seed.wrapping_add(rep * 7919));
            tally.record(availability_of(tunnel, &s).availability);
        }
        MeanInterval::from_tally(&tally)
    }

    fn small() -> Scenario {
        ScenarioBuilder::new("small")
            .racks(1)
            .nodes_per_rack(10)
            .objects(300)
            .horizon_years(0.5)
            .seed(11)
            .build()
    }

    #[test]
    fn run_availability_records() {
        let tunnel = WindTunnel::new();
        let r = availability_of(&tunnel, &small());
        assert!(r.availability > 0.9);
        assert_eq!(tunnel.store().len(), 1);
        let rec = tunnel.store().snapshot().pop().unwrap();
        assert_eq!(rec.experiment, "availability");
        assert!(rec.get_metric("availability").is_some());
        assert!(rec.get_metric("tco_usd_per_year").unwrap() > 0.0);
        // Every recorded run carries telemetry.
        let t = rec.telemetry.expect("telemetry attached");
        assert_eq!(t.events, r.sim_events);
        assert_eq!(t.stop_reason, "HorizonReached");
        assert!(t.wall.wall_us > 0, "runner measures wall time");
    }

    #[test]
    fn telemetry_sim_side_is_identical_across_repeats() {
        // The wall sub-struct is the only nondeterministic part: two runs
        // of the same scenario agree after mask_wall().
        let tunnel = WindTunnel::new();
        let (_, a) = tunnel.run_availability_observed_into(&small(), tunnel.store(), None);
        let (_, b) = tunnel.run_availability_observed_into(&small(), tunnel.store(), None);
        assert_eq!(a.masked(), b.masked());
    }

    #[test]
    fn run_perf_attaches_telemetry() {
        let tunnel = WindTunnel::new();
        let sc = ScenarioBuilder::new("perf-obs")
            .racks(1)
            .nodes_per_rack(10)
            .disk(wt_hw::catalog::ssd_sata_1t())
            .disks_per_node(4)
            .tenant(TenantWorkload::oltp("shop", 50.0, 1_000))
            .horizon_years(0.001)
            .build();
        perf_of(&tunnel, &sc, false);
        let rec = tunnel.store().snapshot().pop().unwrap();
        let t = rec.telemetry.expect("telemetry attached");
        assert!(t.events > 0);
        assert!(t.events_by_label.contains_key("Arrival"));
    }

    #[test]
    fn recorded_runs_carry_sketch_telemetry() {
        let tunnel = WindTunnel::new();
        // Availability engine: rebuild sketches + distinct objects.
        let mut sc = small();
        sc.topology.node.ttf = wt_dist::Dist::exponential_mean(15.0 * 86_400.0);
        availability_of(&tunnel, &sc);
        let rec = tunnel.store().snapshot().pop().unwrap();
        let set = rec
            .telemetry
            .expect("telemetry attached")
            .sketches
            .expect("sketches attached");
        assert!(set.values["rebuild_wait_s"].count() > 0);
        assert!(set.values.contains_key("rebuild_duration_s"));
        assert!(!set.distincts["objects_rebuilt"].is_empty());

        // Perf engine: request latency sketch + distinct keys.
        let psc = ScenarioBuilder::new("perf-sketch")
            .racks(1)
            .nodes_per_rack(10)
            .disk(wt_hw::catalog::ssd_sata_1t())
            .disks_per_node(4)
            .tenant(TenantWorkload::oltp("shop", 50.0, 1_000))
            .horizon_years(0.001)
            .build();
        let r = perf_of(&tunnel, &psc, false);
        let rec = tunnel.store().snapshot().pop().unwrap();
        let set = rec.telemetry.unwrap().sketches.expect("sketches attached");
        let lat = &set.values["request_latency_s"];
        assert_eq!(lat.count(), r.tenants[0].completed);
        // The sketch the telemetry carries is the same one TenantPerf's
        // sketch percentiles come from.
        assert_eq!(Some(lat.p99()), r.tenants[0].sketch_p99_s);
        assert!(!set.distincts["request_keys"].is_empty());
    }

    #[test]
    fn sketch_telemetry_is_worker_count_invariant() {
        // A sketch-bearing sweep — observed availability runs recorded
        // through farm shards — must merge to bitwise-identical records
        // and exposition text for any worker count. Only the wall-clock
        // sub-struct may differ (masked below).
        use crate::farm::Farm;
        use crate::sweep::{SweepRunner, SweepSpec};
        use wt_store::SharedStore;
        let run = |workers: usize| {
            let store = SharedStore::new();
            let spec = SweepSpec::new("wc-sketch")
                .axis("ttf_days", [20.0, 45.0])
                .replications(2)
                .seed(7);
            SweepRunner::new(Farm::new(workers)).run(&spec, &store, |point, rep, sink| {
                let mut sc = ScenarioBuilder::new("wc-sketch")
                    .racks(1)
                    .nodes_per_rack(10)
                    .objects(200)
                    .horizon_years(0.25)
                    .seed(rep.seed)
                    .build();
                sc.topology.node.ttf =
                    wt_dist::Dist::exponential_mean(point.axis_num("ttf_days") * 86_400.0);
                let tunnel = WindTunnel::new();
                let (r, _t) = tunnel.run_availability_observed_into(&sc, sink, None);
                [("availability".to_string(), r.availability)].into()
            });
            let exposition = store.metrics_snapshot().render();
            let mut records = store.snapshot();
            for rec in &mut records {
                if let Some(t) = &mut rec.telemetry {
                    t.mask_wall();
                }
            }
            (exposition, records)
        };
        let (gold_text, gold_records) = run(1);
        assert!(
            gold_records
                .iter()
                .any(|r| r.telemetry.as_ref().is_some_and(|t| t.sketches.is_some())),
            "sweep must actually produce sketch-bearing telemetry"
        );
        for workers in [4, 8] {
            let (text, records) = run(workers);
            assert_eq!(text, gold_text, "exposition diverged at {workers} workers");
            assert_eq!(
                records, gold_records,
                "records diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn run_perf_records_per_tenant_metrics() {
        let tunnel = WindTunnel::new();
        let sc = ScenarioBuilder::new("perf")
            .racks(1)
            .nodes_per_rack(10)
            .disk(wt_hw::catalog::ssd_sata_1t())
            .disks_per_node(4)
            .tenant(TenantWorkload::oltp("shop", 50.0, 1_000))
            .horizon_years(0.001)
            .build();
        let r = perf_of(&tunnel, &sc, false);
        assert_eq!(r.tenants.len(), 1);
        let rec = tunnel.store().snapshot().pop().unwrap();
        assert!(rec.get_metric("shop_p95_s").is_some());
    }

    #[test]
    fn mean_interval_resolves_both_directions() {
        let mut tally = wt_des::Tally::new();
        for x in [0.90, 0.92, 0.91, 0.93] {
            tally.record(x);
        }
        let iv = MeanInterval::from_tally(&tally);
        assert_eq!(iv.n, 4);
        assert!(iv.half_width_95 > 0.0);
        // Far bounds resolve confidently on the right side.
        assert!(iv.confidently_at_least(0.5) && iv.confidently_above(0.5));
        assert!(iv.confidently_at_most(0.99) && iv.confidently_below(0.99));
        // A bound inside the interval resolves neither way.
        assert!(!iv.confidently_at_least(iv.mean));
        assert!(!iv.confidently_at_most(iv.mean - 1e-12));
        // Degenerate intervals resolve nothing.
        let bad = MeanInterval {
            mean: 1.0,
            half_width_95: f64::NAN,
            n: 4,
        };
        assert!(!bad.confidently_at_least(0.0) && !bad.confidently_at_most(2.0));
        let single = MeanInterval {
            mean: 1.0,
            half_width_95: 0.0,
            n: 1,
        };
        assert!(!single.confidently_at_least(0.0));
        // For any one bound, "at least" and "below" never both hold.
        for bound in [0.0, 0.9, 0.91, iv.mean, 0.92, 0.93, 0.99, 1.0] {
            assert!(!(iv.confidently_at_least(bound) && iv.confidently_below(bound)));
        }
    }

    #[test]
    fn degenerate_confidence_interval_never_passes() {
        let tunnel = WindTunnel::new();
        let base = replicated_interval(&tunnel, &small(), 2);
        assert!(base.confidently_at_least(0.0), "sane interval passes");

        // 0 or 1 replications: no variance estimate, no confidence —
        // even a perfect mean with zero half-width must fail.
        let single = MeanInterval {
            mean: 1.0,
            half_width_95: 0.0,
            n: 1,
        };
        assert!(!single.confidently_at_least(0.999));
        let empty = MeanInterval { n: 0, ..single };
        assert!(!empty.confidently_at_least(0.0));

        // A NaN or infinite half-width (pathological variance) must fail,
        // not pass.
        let poisoned = MeanInterval {
            half_width_95: f64::NAN,
            ..base
        };
        assert!(!poisoned.confidently_at_least(0.0));
        let unbounded = MeanInterval {
            half_width_95: f64::INFINITY,
            ..base
        };
        assert!(!unbounded.confidently_at_least(0.0));

        // The same guard applies to the failing direction: neither
        // direction resolves, at bounds far on either side — no interval
        // means no confident pass and no confident fail.
        for degenerate in [single, empty, poisoned, unbounded] {
            for bound in [-1.0, 0.0, 0.5, 2.0] {
                assert!(!degenerate.confidently_at_least(bound), "{degenerate:?}");
                assert!(!degenerate.confidently_above(bound), "{degenerate:?}");
                assert!(!degenerate.confidently_at_most(bound), "{degenerate:?}");
                assert!(!degenerate.confidently_below(bound), "{degenerate:?}");
            }
        }
    }

    #[test]
    fn confidently_fails_is_the_dual_of_meets() {
        let tunnel = WindTunnel::new();
        let mut sc = small();
        // Guarantee real unavailability so the interval sits well below 1.
        sc.topology.node.ttf = wt_dist::Dist::weibull_mean(0.8, 10.0 * 86_400.0);
        sc.repair.detection_delay_s = 5.0 * 86_400.0;
        let r = replicated_interval(&tunnel, &sc, 4);
        // An unreachable floor is confidently failed, a trivial one is not.
        assert!(r.confidently_below(1.0 - 1e-12) || r.mean >= 1.0 - 1e-9);
        assert!(!r.confidently_below(0.0));
        // "At least" and "below" can never both hold for the same floor.
        for floor in [0.0, 0.9, 0.99, 0.999, 1.0] {
            assert!(!(r.confidently_at_least(floor) && r.confidently_below(floor)));
        }
    }

    #[test]
    fn t_quantile_matches_table_and_tail() {
        assert!((t_quantile_975(1) - 12.706).abs() < 1e-9);
        assert!((t_quantile_975(4) - 2.776).abs() < 1e-9);
        assert!((t_quantile_975(30) - 2.042).abs() < 1e-9);
        assert!((t_quantile_975(31) - 1.96).abs() < 1e-9);
        // Monotone decreasing toward the normal quantile.
        for df in 1..40 {
            assert!(t_quantile_975(df) >= t_quantile_975(df + 1));
        }
    }

    #[test]
    fn switch_failures_flow_through_the_scenario() {
        let mut sc = ScenarioBuilder::new("sw")
            .racks(3)
            .nodes_per_rack(10)
            .objects(200)
            .switch_failures(true)
            .horizon_years(2.0)
            .seed(13)
            .build();
        // Make ToR outages frequent enough to observe.
        sc.topology.tor.ttf = wt_dist::Dist::exponential_mean(30.0 * 86_400.0);
        let tunnel = WindTunnel::new();
        let r = availability_of(&tunnel, &sc);
        assert!(
            r.switch_failures > 10,
            "switch failures: {}",
            r.switch_failures
        );
        // Off by default.
        let mut calm = sc.clone();
        calm.switch_failures = false;
        let rc = availability_of(&tunnel, &calm);
        assert_eq!(rc.switch_failures, 0);
        assert!(rc.availability >= r.availability);
    }

    #[test]
    fn legacy_queue_key_in_scenario_json_loads_and_runs_identically() {
        // Scenario files written while the event list was selectable carry
        // a "queue" key (null, "Heap" or "Calendar"). It is ignored on
        // load: such a file runs exactly like the same scenario without it.
        let mut sc = small();
        sc.tenants = vec![TenantWorkload::oltp("shop", 50.0, 10_000)];
        let plain = serde_json::to_string(&sc).unwrap();
        assert!(!plain.contains("\"queue\""), "no queue key is written");
        let tunnel = WindTunnel::new();
        let avail = availability_of(&tunnel, &sc);
        let perf = perf_of(&tunnel, &sc, true);
        for legacy in ["null", "\"Heap\"", "\"Calendar\""] {
            let json = plain.replacen(
                ",\"faults\":",
                &format!(",\"queue\":{legacy},\"faults\":"),
                1,
            );
            assert_ne!(json, plain, "legacy key inserted");
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), plain);
            assert_eq!(availability_of(&tunnel, &back), avail, "queue: {legacy}");
            assert_eq!(perf_of(&tunnel, &back, true), perf, "queue: {legacy}");
        }
    }

    #[test]
    fn availability_model_mapping() {
        let sc = small();
        let m = WindTunnel::availability_model(&sc);
        assert_eq!(m.n_nodes, 10);
        assert_eq!(m.objects, 300);
        match m.rebuild {
            RebuildModel::Bandwidth { link_gbps, .. } => assert_eq!(link_gbps, 10.0),
            _ => panic!("expected bandwidth rebuild"),
        }
    }
}
