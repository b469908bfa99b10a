//! # wt-obs — observability for the wind tunnel
//!
//! The paper's "simulation at scale" and "validation" challenges (§4.2,
//! §4.3) both presuppose that you can *see inside* a sweep: where
//! simulated and wall-clock time go, which runs dominate cost, and
//! whether the simulator's internal behaviour (event rates, queue
//! depths) matches expectations. This crate is the shared vocabulary for
//! that: it sits at the bottom of the dependency graph (the DES kernel,
//! the farm, and the store all speak it) and defines
//!
//! * [`Probe`] — the hook the engine calls after every handled event.
//!   Implementations must not perturb the simulation: a probe sees the
//!   event stream, it never feeds back into it, so attaching one cannot
//!   change results.
//! * [`NoProbe`] — the probe that ignores every call, for runs that
//!   want no telemetry.
//! * [`SimProbe`] — the always-on summary probe: events by label, a
//!   time-weighted queue-depth gauge, peak depth, and (only when the
//!   engine's `wall-time` feature routes timings in) per-handler
//!   wall-time histograms. Finishes into a [`RunTelemetry`].
//! * [`RunTelemetry`] — the per-run summary attached to result-store
//!   records. Everything in it except the [`WallTelemetry`] sub-struct
//!   is a pure function of the event sequence, hence bitwise-identical
//!   across worker counts; determinism tests mask the wall side with
//!   [`RunTelemetry::masked`].
//! * [`TraceProbe`] — records one span per handled event and a queue
//!   depth counter track, exported as Chrome trace-event JSON loadable
//!   in `about:tracing` / [Perfetto](https://ui.perfetto.dev).
//! * [`Heartbeat`] — farm progress lines (done/total, runs/s, ETA) for
//!   the fold thread to print to stderr.

pub mod heartbeat;
pub mod probe;
pub mod sketch;
pub mod snapshot;
pub mod telemetry;
pub mod trace;

pub use heartbeat::Heartbeat;
pub use probe::{NoProbe, Probe, SimProbe, Tee};
pub use sketch::{Hll, QuantileSketch};
pub use snapshot::MetricsSnapshot;
pub use telemetry::{RunTelemetry, SketchSet, WallHist, WallTelemetry};
pub use trace::TraceProbe;
