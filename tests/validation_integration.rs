//! Integration: the §4.3 validation loop — DES vs closed forms — wired
//! through the public crate APIs (a compact version of experiment E5).

use wt_analytic::{Mg1, Mm1, RepairableReplicas};
use wt_bench::queuesim::QueueSim;
use wt_cluster::{AvailabilityModel, RebuildModel};
use wt_des::time::SimDuration;
use wt_dist::Dist;
use wt_sw::{Placement, RedundancyScheme, RepairPolicy};

const DAY: f64 = 86_400.0;

#[test]
fn queue_simulator_matches_mm1() {
    let sim = QueueSim {
        interarrival: Dist::exponential(5.0),
        service: Dist::exponential(8.0),
        servers: 1,
    };
    let stats = sim.run(150_000, 71);
    let formula = Mm1::new(5.0, 8.0);
    assert!(
        (stats.wq - formula.wq()).abs() / formula.wq() < 0.08,
        "sim {} vs formula {}",
        stats.wq,
        formula.wq()
    );
    assert!((stats.rho - formula.rho()).abs() < 0.02);
}

#[test]
fn queue_simulator_matches_pollaczek_khinchine_heavy_tail() {
    // The paper's §2.2 point in reverse: the simulator handles the heavy
    // tail, and where a formula exists (M/G/1) they agree.
    let service = Dist::lognormal_mean_cv(0.1, 2.0);
    let sim = QueueSim {
        interarrival: Dist::exponential(5.0),
        service: service.clone(),
        servers: 1,
    };
    let stats = sim.run(400_000, 72);
    let formula = Mg1::new(5.0, service);
    assert!(
        (stats.wq - formula.wq()).abs() / formula.wq() < 0.15,
        "sim {} vs P-K {}",
        stats.wq,
        formula.wq()
    );
}

#[test]
fn availability_engine_brackets_markov_prediction() {
    const LAMBDA: f64 = 1.0 / (30.0 * DAY);
    const MU: f64 = 1.0 / DAY;
    let model = AvailabilityModel {
        n_nodes: 10,
        redundancy: RedundancyScheme::replication(5),
        placement: Placement::Random,
        objects: 1,
        object_bytes: 1,
        node_ttf: Dist::exponential(LAMBDA),
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
    let mut avail = 0.0;
    let reps = 6;
    for seed in 0..reps {
        avail += model.run(seed, SimDuration::from_years(30.0)).availability;
    }
    avail /= reps as f64;
    let markov = RepairableReplicas::new(5, LAMBDA, MU, true).availability(3);
    let (sim_u, markov_u) = (1.0 - avail, 1.0 - markov);
    assert!(
        (sim_u - markov_u).abs() < 0.6 * markov_u,
        "sim unavailability {sim_u:.2e} vs Markov {markov_u:.2e}"
    );
}
