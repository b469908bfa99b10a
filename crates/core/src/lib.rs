//! # windtunnel — a simulation-based wind tunnel for data center design
//!
//! An implementation of the system envisioned in *"Towards Building Wind
//! Tunnels for Data Center Design"* (Floratou, Bertsch, Patel, Laskaris —
//! PVLDB 7(9), 2014): an integrated hardware/software simulator in which
//! data center design becomes a systematic, queryable process.
//!
//! The facade exposes three layers:
//!
//! * **Scenario construction** — [`ScenarioBuilder`] assembles a design
//!   point: topology (racks × nodes × disk/NIC/switch models from
//!   [`hw::catalog`]), redundancy scheme, placement policy, repair policy,
//!   tenant workloads, limpware.
//! * **SLAs** are WTQL constraints (`SUBJECT TO availability >= 0.9999,
//!   objects_lost <= 0`), checked by the `wt-wtql` crate's `run_query`;
//!   this crate has no SLA type of its own.
//! * **The tunnel** — [`WindTunnel`] runs scenarios through the simulation
//!   engines (`wt-cluster`), attaches costs, and records every run into
//!   the result store (`wt-store`) for §4.4-style exploration.
//!
//! * **Declarative sweeps** — [`sweep::SweepSpec`] declares a parameter
//!   grid and [`sweep::SweepRunner`] executes it deterministically over
//!   the run [`farm`] with sharded recording; every experiment binary
//!   and the WTQL executor share this one execution path (paper §4.1).
//!
//! Declarative what-if *queries* over scenario spaces live one level up,
//! in the `wt-wtql` crate.
//!
//! ```
//! use windtunnel::prelude::*;
//!
//! let scenario = ScenarioBuilder::new("quick")
//!     .racks(1)
//!     .nodes_per_rack(10)
//!     .replication(3)
//!     .objects(500)
//!     .seed(7)
//!     .build();
//! let tunnel = WindTunnel::new();
//! let (result, telemetry) =
//!     tunnel.run_availability_observed_into(&scenario, tunnel.store(), None);
//! assert!(result.availability > 0.99);
//! assert_eq!(telemetry.events, result.sim_events);
//! assert_eq!(tunnel.store().len(), 1); // the run was recorded
//! ```

pub mod builder;
pub mod farm;
pub mod report;
pub mod runner;
pub mod surrogate;
pub mod sweep;

pub use builder::ScenarioBuilder;
pub use farm::{Farm, RunCtx};
pub use runner::{t_quantile_975, MeanInterval, WindTunnel};
pub use surrogate::Surrogate;
pub use sweep::{SweepOutcome, SweepReport, SweepRunner, SweepSpec};

// Re-export the subsystem crates under stable names so downstream users
// depend on `windtunnel` alone.
pub use wt_analytic as analytic;
pub use wt_cluster as cluster;
pub use wt_des as des;
pub use wt_dist as dist;
pub use wt_hw as hw;
pub use wt_obs as obs;
pub use wt_store as store;
pub use wt_sw as sw;
pub use wt_workload as workload;

/// Everything a scenario author typically needs.
pub mod prelude {
    pub use crate::builder::ScenarioBuilder;
    pub use crate::farm::{Farm, RunCtx};
    pub use crate::runner::WindTunnel;
    pub use crate::sweep::{MetricAgg, SweepRunner, SweepSpec};
    pub use wt_cluster::{AvailabilityResult, PerfResult, Scenario, UnavailabilityExperiment};
    pub use wt_dist::Dist;
    pub use wt_hw::catalog;
    pub use wt_hw::{CostModel, LimpwareSpec};
    pub use wt_sw::{Placement, RedundancyScheme, RepairPolicy};
    pub use wt_workload::TenantWorkload;
}
