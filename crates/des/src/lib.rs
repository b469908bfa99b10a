//! # wt-des — discrete-event simulation kernel
//!
//! The substrate every other `windtunnel` crate builds on: a deterministic
//! discrete-event simulator with
//!
//! * a total-ordered [`SimTime`] clock ([`time`]),
//! * a stable-ordered pending-event queue ([`queue`]) that counts, but
//!   never stores, events past a run's declared horizon,
//! * an execution engine driving a user [`Model`] ([`engine`]),
//! * splittable, labeled random-number streams so that adding a new model
//!   does not perturb the draws of existing ones ([`rng`]),
//! * output statistics: tallies, time-weighted gauges and quantile
//!   histograms ([`stats`]),
//! * a reusable multi-server FIFO resource for queueing models ([`resource`]),
//! * one event loop, [`Simulation::run_until`], which feeds a
//!   `wt_obs::Probe` (re-exported here as [`obs`]) the label, time and
//!   queue depth of every handled event — one-way instrumentation that
//!   can never perturb results. Runs that want no telemetry pass
//!   `obs::NoProbe`; [`Simulation::run_observed`] distills a run's
//!   telemetry. The `wall-time` cargo feature additionally times each
//!   handler (kept off the determinism path).
//!
//! Determinism is a design invariant: two runs of the same model (with its
//! random streams seeded alike) to the same horizon produce byte-identical
//! event traces. Ties in event time are broken by insertion sequence number,
//! never by heap internals.
//!
//! ```
//! use wt_des::obs::NoProbe;
//! use wt_des::prelude::*;
//!
//! struct Counter { fired: u32 }
//! impl Model for Counter {
//!     type Event = ();
//!     fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             ctx.schedule_in(SimDuration::from_secs(1.0), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule_at(SimTime::ZERO, ());
//! sim.run_until(SimTime::MAX, &mut NoProbe);
//! assert_eq!(sim.model().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_secs(2.0));
//! ```

pub mod engine;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Ctx, Model, Simulation, StopReason};
pub use queue::EventQueue;
pub use resource::ServerPool;
pub use rng::{RngFactory, Stream};
pub use stats::{Histogram, Tally, TimeWeighted};
pub use time::{SimDuration, SimTime};
pub use wt_obs as obs;
/// Mergeable sketches (HyperLogLog, DDSketch-style quantiles) honoring
/// the same order-deterministic `merge` contract as [`stats`]. Defined
/// in `wt-obs` (the bottom of the dependency graph, so telemetry can
/// embed them) and re-exported here where model authors look for
/// statistics.
pub use wt_obs::sketch;
pub use wt_obs::sketch::{Hll, QuantileSketch};

/// Convenience re-exports for model authors.
pub mod prelude {
    pub use crate::engine::{Ctx, Model, Simulation, StopReason};
    pub use crate::rng::{RngFactory, Stream};
    pub use crate::stats::{Histogram, Tally, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime};
    pub use wt_obs::sketch::{Hll, QuantileSketch};
}
