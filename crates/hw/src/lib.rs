//! # wt-hw — hardware component models (paper §4.5)
//!
//! Every hardware axis the paper's what-if questions range over is a spec
//! type here: disks ([`disk`]), NICs and switches ([`net`]), CPUs and memory
//! ([`node`]), full rack/datacenter topologies ([`topology`]), performance
//! degradation faults a.k.a. *limpware* ([`limpware`], paper ref \[5\]), and
//! the cost side of every trade-off ([`cost`]).
//!
//! Specs are plain serializable data: failure and repair behavior is
//! expressed as [`wt_dist::Dist`] values (Weibull disk lifetimes, lognormal
//! repairs, …), and the *simulation* of failures happens in `wt-cluster`.
//! A [`catalog`] of realistically parameterized parts — seeded from the
//! published field studies the paper cites — makes scenarios concise.

pub mod catalog;
pub mod cost;
pub mod disk;
pub mod limpware;
pub mod net;
pub mod node;
pub mod topology;

pub use cost::CostModel;
pub use disk::{DiskClass, DiskSpec};
pub use limpware::LimpwareSpec;
pub use net::{NicSpec, SwitchSpec};
pub use node::{CpuSpec, MemSpec, NodeSpec};
pub use topology::{ComponentId, DiskId, NodeId, Path, PathInfo, SwitchId, Topology, TopologySpec};
