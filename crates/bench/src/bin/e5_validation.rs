//! **E5 — validating the simulator against analytical models (§4.3 /
//! §2.2)**: where closed forms exist, the DES must match them; where the
//! paper says closed forms break (non-exponential laws), show the
//! exponential-assuming model drifting while the simulator keeps going.
//!
//! Both validation batches — the queueing table and the availability
//! replications — are declarative [`SweepSpec`]s executed by the shared
//! [`windtunnel::sweep::SweepRunner`] with sharded recording into one
//! result store
//! (`--workers N` sizes the pool, default host cores).
//! Every run lands in the store (`e5-queue` / `e5-avail` records, the
//! latter with full engine telemetry attached), exported with
//! `--jsonl <path>`. stdout is byte-identical for any worker count.

use wt_analytic::{Mg1, Mm1, Mmc, RepairableReplicas};
use wt_bench::queuesim::QueueSim;
use wt_bench::{banner, flag_value, runner_from_args, Table};
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_dist::Dist;
use wt_store::SharedStore;
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};

use windtunnel::sweep::SweepSpec;

const DAY: f64 = 86_400.0;

fn queue_arm(model: &str) -> (QueueSim, f64) {
    match model {
        "M/M/1 (rho=0.8)" => (
            QueueSim {
                interarrival: Dist::exponential(8.0),
                service: Dist::exponential(10.0),
                servers: 1,
            },
            Mm1::new(8.0, 10.0).wq(),
        ),
        "M/M/4 (rho=0.625)" => (
            QueueSim {
                interarrival: Dist::exponential(10.0),
                service: Dist::exponential(4.0),
                servers: 4,
            },
            Mmc::new(10.0, 4.0, 4).wq(),
        ),
        "M/G/1 lognormal cv=1.5" => (
            QueueSim {
                interarrival: Dist::exponential(8.0),
                service: Dist::lognormal_mean_cv(0.08, 1.5),
                servers: 1,
            },
            Mg1::new(8.0, Dist::lognormal_mean_cv(0.08, 1.5)).wq(),
        ),
        "M/D/1 (P-K, zero var)" => (
            QueueSim {
                interarrival: Dist::exponential(8.0),
                service: Dist::deterministic(0.1),
                servers: 1,
            },
            Mg1::new(8.0, Dist::deterministic(0.1)).wq(),
        ),
        other => panic!("unknown queue model '{other}'"),
    }
}

fn main() {
    banner(
        "E5 — simulator vs analytical models",
        "DES matches M/M/1, M/M/c, M/G/1 and the exponential Markov chain \
         to within Monte-Carlo noise; with Weibull failures at the same \
         mean, the exponential Markov prediction is biased — the paper's \
         case for simulation",
    );

    let args: Vec<String> = std::env::args().collect();
    let runner = runner_from_args(&args);
    let store = SharedStore::new();

    // ---- Queueing validation -------------------------------------------
    // CRN: every queue model consumes the same arrival stream seed.
    let queue_spec = SweepSpec::new("e5-queue")
        .axis(
            "model",
            [
                "M/M/1 (rho=0.8)",
                "M/M/4 (rho=0.625)",
                "M/G/1 lognormal cv=1.5",
                "M/D/1 (P-K, zero var)",
            ],
        )
        .seed(5)
        .common_random_numbers();
    let queues = runner.run(&queue_spec, &store, |point, rep, sink| {
        let (sim, want) = queue_arm(&point.axis_str("model"));
        let stats = sim.run(300_000, rep.seed);
        sink.record(
            point
                .record(queue_spec.name(), rep.seed)
                .metric("sim_wq", stats.wq)
                .metric("formula_wq", want),
        );
        [
            ("sim_wq".to_string(), stats.wq),
            ("formula_wq".to_string(), want),
        ]
        .into()
    });
    queues
        .report()
        .axis_column("model", "model")
        .metric_column("sim Wq", "sim_wq", |v| format!("{v:.5}"))
        .metric_column("formula Wq", "formula_wq", |v| format!("{v:.5}"))
        .column("rel err", |row| {
            let (wq, want) = (row.metric("sim_wq"), row.metric("formula_wq"));
            format!("{:.1}%", 100.0 * (wq - want).abs() / want)
        })
        .print();

    // ---- Availability validation ---------------------------------------
    println!();
    const LAMBDA: f64 = 1.0 / (30.0 * DAY);
    const MU: f64 = 1.0 / DAY;
    let mk = |ttf: Dist| AvailabilityModel {
        n_nodes: 10,
        redundancy: RedundancyScheme::replication(5),
        placement: Placement::Random,
        objects: 1,
        object_bytes: 1,
        node_ttf: ttf,
        node_replace: Dist::deterministic(1.0),
        rebuild: RebuildModel::Timed(Dist::exponential(MU)),
        repair: RepairPolicy {
            max_parallel: 1024,
            bandwidth_share: 1.0,
            detection_delay_s: 0.0,
        },
        switches: None,
        disks: None,
        chaos: None,
    };
    // 8 CRN replications per failure law: both laws face the same seeds,
    // so the Weibull-vs-exponential gap is the law's, not the sampler's.
    let avail_spec = SweepSpec::new("e5-avail")
        .axis("ttf", ["exponential", "weibull"])
        .seed(5)
        .replications(8)
        .common_random_numbers();
    let avails = runner.run(&avail_spec, &store, |point, rep, sink| {
        let ttf = match point.axis_str("ttf").as_str() {
            "exponential" => Dist::exponential(LAMBDA),
            _ => Dist::weibull_mean(0.7, 30.0 * DAY),
        };
        let (r, t) = mk(ttf).run_observed(rep.seed, SimDuration::from_years(40.0), None);
        sink.record(
            point
                .record(avail_spec.name(), rep.seed)
                .metric("availability", r.availability)
                .metric("node_failures", r.node_failures as f64)
                .telemetry(t),
        );
        [("availability".to_string(), r.availability)].into()
    });
    let markov = RepairableReplicas::new(5, LAMBDA, MU, true).availability(3);
    let sim_exp = avails.metric_where("ttf", "exponential", "availability");
    let sim_weib = avails.metric_where("ttf", "weibull", "availability");

    let mut table = Table::new(&["model", "unavailability (1-A)"]);
    table.row(vec![
        "Markov chain (exp)".into(),
        format!("{:.3e}", 1.0 - markov),
    ]);
    table.row(vec![
        "DES, exponential TTF".into(),
        format!("{:.3e}", 1.0 - sim_exp),
    ]);
    table.row(vec![
        "DES, Weibull(0.7) TTF same mean".into(),
        format!("{:.3e}", 1.0 - sim_weib),
    ]);
    table.print();
    eprintln!(
        "computed on {} farm worker(s) in {:.2}s ({} recorded run(s))",
        runner.workers(),
        queues.wall_s + avails.wall_s,
        store.len()
    );

    if let Some(path) = flag_value(&args, "--jsonl") {
        if let Err(e) = store.with(|s| s.save_jsonl(std::path::Path::new(path))) {
            eprintln!("error: failed to write --jsonl {path}: {e}");
            std::process::exit(1);
        }
        println!("runs written to {path}");
    }

    println!();
    println!(
        "check: DES(exp) within 50% of Markov: {}",
        ((1.0 - sim_exp) - (1.0 - markov)).abs() < 0.5 * (1.0 - markov)
    );
    println!(
        "check: Weibull regime diverges from the exponential prediction: {}",
        ((1.0 - sim_weib) - (1.0 - markov)).abs() > 0.25 * (1.0 - markov)
    );
    println!(
        "bias if one trusted the exponential model under Weibull reality: {:.1}x",
        (1.0 - sim_weib) / (1.0 - markov)
    );
}
