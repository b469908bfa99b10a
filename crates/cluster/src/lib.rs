//! # wt-cluster — the integrated data center simulator (the wind tunnel's
//! test section)
//!
//! Composes the hardware models (`wt-hw`), software models (`wt-sw`) and
//! workloads (`wt-workload`) on the DES kernel (`wt-des`) into three
//! simulation engines, one per class of what-if question from the paper's
//! §3:
//!
//! * [`unavailability`] — the **Figure 1** experiment: a combinatorial
//!   Monte-Carlo over node-failure sets answering "with `f` of `N` nodes
//!   down, what is the probability that at least one customer has lost a
//!   quorum?" for each placement policy × replication factor.
//! * [`availability`] — time-domain availability and durability: failures
//!   arrive from arbitrary TTF distributions, repairs re-replicate data
//!   under a [`wt_sw::RepairPolicy`], and the output is operable-time
//!   fractions, unavailability episodes and data-loss counts
//!   (availability SLAs, §3).
//! * [`perf`] — request-level performance: tenant workloads queue at disk
//!   and NIC resources, with failures, repair traffic and limpware
//!   perturbing latency (performance SLAs, §3).
//!
//! [`scenario`] is the shared configuration surface the declarative layer
//! (`wt-wtql`) sweeps over, and [`results`] the serializable outputs the
//! result store (`wt-store`) persists.

pub mod arena;
pub mod availability;
pub mod chaos;
pub mod perf;
pub mod results;
pub mod scenario;
pub mod screen;
pub mod unavailability;

pub use arena::NodeLists;
pub use availability::{AvailabilityModel, RebuildModel};
pub use chaos::{ChaosGeometry, FaultKind, FaultSchedule, InjectionRule};
pub use perf::PerfModel;
pub use results::{AvailabilityResult, PerfResult, TenantPerf, UnavailabilityPoint};
pub use scenario::Scenario;
pub use unavailability::UnavailabilityExperiment;
