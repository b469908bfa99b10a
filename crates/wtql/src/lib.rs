//! # wt-wtql — declarative what-if queries over the wind tunnel
//!
//! The paper's §4.1–§4.2 research agenda, implemented:
//!
//! * **A declarative language** ([`lexer`], [`parser`], [`ast`]): WTQL, a
//!   small SQL-flavored language for design questions —
//!
//!   ```text
//!   EXPLORE availability, tco_usd_per_year
//!   SWEEP replication IN [3, 5],
//!         nic IN ["1g", "10g"],
//!         placement IN ["R", "RR"]
//!   SUBJECT TO availability >= 0.9999
//!   MINIMIZE tco_usd_per_year
//!   ```
//!
//! * **Scenario binding** ([`bind`]): sweep axes map onto the
//!   `windtunnel::Scenario` configuration surface (catalog parts,
//!   replication, placement, repair…).
//! * **Simulation at scale** ([`plan`], [`exec`]): the run-ordering
//!   optimizer exploits declared monotonicity for **dominance pruning**
//!   (the paper's "if the SLA fails on a 10 Gb network it will fail on
//!   1 Gb" example), runs configurations on the shared `windtunnel::farm`
//!   executor, and **aborts hopeless runs early** on a short probe horizon.
//!
//! Every executed run lands in the shared result store (`wt-store`).

pub mod ast;
pub mod bind;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::{Comparison, Constraint, Objective, Query, Statement, SweepAxis};
pub use bind::apply_assignment;
pub use error::WtqlError;
pub use exec::{run_query, store_stats, ExecOptions, QueryOutcome, RunRow};
pub use parser::{parse, parse_script};
pub use plan::{Assignment, Plan};
