//! # wt-store — managing the wind tunnel's data (paper §4.4)
//!
//! The paper identifies two data populations around the wind tunnel and
//! poses their management as an open problem; this crate implements both
//! halves:
//!
//! * **(a) data generated by simulations** — [`record`] defines a
//!   self-describing [`RunRecord`] (configuration parameters + output
//!   metrics), and [`store`] a queryable, append-only [`ResultStore`]
//!   with streaming JSON-lines persistence and
//!   **configuration similarity search** ("have I already explored a
//!   configuration similar to this target?", the paper's motivating
//!   query). [`shard`] adds the lock-free per-worker recording path
//!   ([`StoreShard`] + deterministic merge) that keeps a parallel run
//!   farm from serializing on the store.
//! * **(b) operational log data used to seed data-driven models** —
//!   [`logmodel`] parses component event logs into inter-event durations,
//!   fits candidate distributions (`wt-dist::fit`), and emits the model
//!   seeds the simulator consumes, with KS goodness-of-fit attached. A
//!   synthetic log generator closes the loop for validation (experiment
//!   E10).

pub mod logmodel;
pub mod record;
pub mod shard;
pub mod store;

pub use logmodel::{generate_log, seed_models, LogEvent, LogRecord, ModelSeed};
pub use record::{ParamValue, RunRecord};
pub use shard::{RecordSink, StoreShard};
pub use store::{ResultStore, SharedStore};
