//! A G/G/c queue simulator on the DES kernel — the workhorse of the §4.3
//! validation experiment (E5): simulate M/M/1, M/M/c and M/G/1 stations
//! and compare against the closed forms in `wt-analytic`.

use wt_des::prelude::*;
use wt_des::ServerPool;
use wt_dist::Dist;

/// One queueing station: arbitrary interarrival and service distributions,
/// `c` identical servers, FIFO discipline.
pub struct QueueSim {
    /// Interarrival distribution, seconds.
    pub interarrival: Dist,
    /// Service distribution, seconds.
    pub service: Dist,
    /// Number of servers.
    pub servers: usize,
}

/// Steady-ish-state estimates from one run.
#[derive(Debug, Clone, Copy)]
pub struct QueueStats {
    /// Mean wait in queue (excluding service), seconds.
    pub wq: f64,
    /// Mean time in system, seconds.
    pub w: f64,
    /// Time-averaged queue length.
    pub lq: f64,
    /// Server utilization.
    pub rho: f64,
    /// Customers that completed service.
    pub completed: u64,
}

enum Ev {
    Arrival,
    Departure,
}

struct St {
    interarrival: Dist,
    service: Dist,
    pool: ServerPool<()>,
    rng: wt_des::rng::Stream,
    /// Completions after which the station stops the run.
    target: u64,
}

impl Model for St {
    type Event = Ev;
    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        match ev {
            Ev::Arrival => {
                let gap = SimDuration::from_secs(self.interarrival.sample(&mut self.rng));
                ctx.schedule_in(gap, Ev::Arrival);
                if self.pool.arrive(now, ()).is_some() {
                    let s = SimDuration::from_secs(self.service.sample(&mut self.rng));
                    ctx.schedule_in(s, Ev::Departure);
                }
            }
            Ev::Departure => {
                if self.pool.depart(now).is_some() {
                    // The next queued job starts service immediately.
                    let s = SimDuration::from_secs(self.service.sample(&mut self.rng));
                    ctx.schedule_in(s, Ev::Departure);
                }
            }
        }
        if self.pool.completions() >= self.target {
            ctx.stop();
        }
    }
}

impl QueueSim {
    /// Runs the station for `customers` completions and returns its
    /// statistics. Wait/utilization figures come from the server pool's
    /// exact time-weighted accounting (the initial empty-system transient
    /// is negligible at the run lengths the callers use).
    pub fn run(&self, customers: u64, seed: u64) -> QueueStats {
        assert!(customers > 100, "need a meaningful run length");
        let st = St {
            interarrival: self.interarrival.clone(),
            service: self.service.clone(),
            pool: ServerPool::new(self.servers, SimTime::ZERO),
            rng: wt_des::rng::RngFactory::new(seed).stream("queue"),
            target: customers,
        };
        let mut sim = Simulation::new(st);
        sim.schedule_at(SimTime::ZERO, Ev::Arrival);
        // The station stops the run at its completion target.
        sim.run_until(SimTime::MAX, &mut wt_des::obs::NoProbe);
        let now = sim.now();
        let st = sim.model();
        let wq = st.pool.waits().mean();
        let service_mean = self.service.mean();
        QueueStats {
            wq,
            w: wq + service_mean,
            lq: st.pool.avg_queue_len(now),
            rho: st.pool.utilization(now),
            completed: st.pool.completions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_analytic::{Mg1, Mm1, Mmc};

    #[test]
    fn mm1_sim_matches_formula() {
        let q = QueueSim {
            interarrival: Dist::exponential(8.0),
            service: Dist::exponential(10.0),
            servers: 1,
        };
        let stats = q.run(200_000, 1);
        let formula = Mm1::new(8.0, 10.0);
        assert!(
            (stats.wq - formula.wq()).abs() / formula.wq() < 0.05,
            "sim Wq {} vs formula {}",
            stats.wq,
            formula.wq()
        );
        assert!((stats.rho - 0.8).abs() < 0.01, "rho {}", stats.rho);
    }

    #[test]
    fn mmc_sim_matches_formula() {
        let q = QueueSim {
            interarrival: Dist::exponential(10.0),
            service: Dist::exponential(4.0),
            servers: 4,
        };
        let stats = q.run(200_000, 2);
        let formula = Mmc::new(10.0, 4.0, 4);
        assert!(
            (stats.wq - formula.wq()).abs() / formula.wq() < 0.1,
            "sim Wq {} vs formula {}",
            stats.wq,
            formula.wq()
        );
    }

    #[test]
    fn mg1_lognormal_matches_pollaczek_khinchine() {
        let service = Dist::lognormal_mean_cv(0.08, 1.5);
        let q = QueueSim {
            interarrival: Dist::exponential(8.0),
            service: service.clone(),
            servers: 1,
        };
        let stats = q.run(300_000, 3);
        let formula = Mg1::new(8.0, service);
        assert!(
            (stats.wq - formula.wq()).abs() / formula.wq() < 0.08,
            "sim Wq {} vs P-K {}",
            stats.wq,
            formula.wq()
        );
    }

    #[test]
    fn md1_half_of_mm1() {
        let det = QueueSim {
            interarrival: Dist::exponential(8.0),
            service: Dist::deterministic(0.1),
            servers: 1,
        };
        let exp = QueueSim {
            interarrival: Dist::exponential(8.0),
            service: Dist::exponential(10.0),
            servers: 1,
        };
        let sd = det.run(150_000, 4);
        let se = exp.run(150_000, 4);
        let ratio = sd.wq / se.wq;
        assert!((ratio - 0.5).abs() < 0.06, "M/D/1 / M/M/1 = {ratio}");
    }
}
