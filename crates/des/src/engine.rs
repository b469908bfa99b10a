//! The simulation engine: drives a [`Model`] by repeatedly popping the
//! earliest pending event and handing it to the model together with a
//! scheduling context [`Ctx`].
//!
//! There is one event loop, [`Simulation::run_until`], generic over the
//! `wt_obs::Probe` that watches it. A run that wants no telemetry passes
//! `wt_obs::NoProbe`, whose empty methods inline away;
//! [`Simulation::run_observed`] runs the loop under a `SimProbe` and
//! distills the run's telemetry.
//!
//! A `Simulation` runs on one thread. Sweeps run many of them side by
//! side (see `wt-wtql`).

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use wt_obs::{Probe, RunTelemetry, SimProbe, Tee};

/// A simulation model: owns all mutable world state and reacts to events.
///
/// `Event` is typically an enum covering everything that can happen in the
/// modeled world (a disk fails, a request completes, a repair finishes, ...).
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Reacts to one event. New events are scheduled through `ctx`.
    fn handle(&mut self, ev: Self::Event, ctx: &mut Ctx<'_, Self::Event>);

    /// A static label for `ev`, used by probes to attribute events (and
    /// trace spans) to the model's alphabet. The default lumps everything
    /// under one label; models with an event enum should match on the
    /// variant.
    fn label(_ev: &Self::Event) -> &'static str {
        "event"
    }
}

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No pending events remain.
    QueueEmpty,
    /// The requested time horizon was reached; later events are still pending.
    HorizonReached,
    /// The model called [`Ctx::stop`].
    StoppedByModel,
    /// The configured event budget was exhausted (see
    /// [`Simulation::set_event_budget`]).
    EventBudgetExhausted,
}

impl StopReason {
    /// The variant name, for telemetry records.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::QueueEmpty => "QueueEmpty",
            StopReason::HorizonReached => "HorizonReached",
            StopReason::StoppedByModel => "StoppedByModel",
            StopReason::EventBudgetExhausted => "EventBudgetExhausted",
        }
    }
}

/// Scheduling context passed to [`Model::handle`]: the clock, the event
/// queue and the stop flag.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop: &'a mut bool,
    executed: u64,
    // Marks emitted by the handler, drained into the probe by the engine
    // after the handler returns. A plain buffer rather than `&mut dyn
    // Probe` so the trait object's invariant lifetime never entangles
    // `Ctx`'s borrows.
    marks: &'a mut Vec<&'static str>,
    // Scalar observations (label, value) emitted via `Ctx::observe`,
    // drained like marks.
    values: &'a mut Vec<(&'static str, f64)>,
    // Distinct-key touches (label, key) emitted via `Ctx::touch`,
    // drained like marks.
    touches: &'a mut Vec<(&'static str, u64)>,
}

impl<E> Ctx<'_, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at an absolute time. Panics if `at` is in the past —
    /// causality violations are model bugs, not recoverable conditions. The
    /// message carries the queue length and executed-event count so a trace
    /// of the offending run can be cut to size before replaying it.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {} (queue: {} pending, {} events executed)",
            self.now,
            self.queue.len(),
            self.executed
        );
        self.queue.push(at, event);
    }

    /// Requests that the engine stop after this event completes.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Number of events currently pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of events the run has executed so far (including this one).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Emits a custom counter mark to the run's probe (see
    /// `wt_obs::Probe::on_mark`). Buffered until the handler returns;
    /// `wt_obs::NoProbe` drops it. Never affects the simulation.
    pub fn mark(&mut self, label: &'static str) {
        self.marks.push(label);
    }

    /// Emits a scalar observation (a wait, a duration, a latency) to the
    /// run's probe; summary probes fold these into per-label quantile
    /// sketches (see `wt_obs::Probe::on_value`). Buffered like
    /// [`mark`](Self::mark); never affects the simulation.
    pub fn observe(&mut self, label: &'static str, value: f64) {
        self.values.push((label, value));
    }

    /// Emits an entity-key touch (an object id, a request key) to the
    /// run's probe; summary probes fold these into per-label HLL
    /// distinct counts (see `wt_obs::Probe::on_distinct`). Buffered like
    /// [`mark`](Self::mark); never affects the simulation.
    pub fn touch(&mut self, label: &'static str, key: u64) {
        self.touches.push((label, key));
    }
}

/// A single simulation run: a [`Model`], its future-event list (the
/// [`EventQueue`], a binary heap of equal-time runs), clock and execution
/// counters.
/// Models own their randomness (typically streams of a
/// [`crate::RngFactory`] seeded by the caller).
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    executed: u64,
    event_budget: Option<u64>,
}

impl<M: Model> Simulation<M> {
    /// Creates a run over `model` with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            executed: 0,
            event_budget: None,
        }
    }

    /// Declares the run's horizon: the instant after which none of its
    /// events can fire. Events scheduled strictly after it are counted in
    /// [`pending_events`](Self::pending_events) but never stored (see
    /// [`crate::queue`]), so set-up cost follows the events
    /// that can fire. Call it before the first event is scheduled (it
    /// panics otherwise); [`run_until`](Self::run_until) then panics on a
    /// horizon past this one, whose parked events would be lost.
    pub fn declare_horizon(&mut self, horizon: SimTime) {
        self.queue.declare_horizon(horizon);
    }

    /// Pre-allocates queue room for at least `additional` pending events.
    /// Engines that know their steady-state pending-set size call this
    /// once at setup so the hot loop never regrows the list; events past
    /// a declared horizon take no room.
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Caps the total number of events this run may execute; the engine
    /// returns [`StopReason::EventBudgetExhausted`] once reached. The
    /// kernel benches use it to run a fixed event count, and a test can
    /// step a run one event at a time with it. The sweeps' early abort
    /// does not: it runs a probe over a shorter horizon instead.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Schedules an initial event (typically called before the first `run_until`).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Schedules an initial event `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for setup and for reading out statistics).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Events currently pending in the future-event list, parked ones
    /// (past the declared horizon) included.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Pending events past the declared horizon: counted by
    /// [`pending_events`](Self::pending_events), never stored.
    pub fn parked_events(&self) -> usize {
        self.queue.parked()
    }

    /// Runs until `horizon` (exclusive: events strictly after it stay
    /// pending and the clock is left at `horizon`), the queue drains, the
    /// model stops, or the budget runs out — the engine's one event loop.
    /// Panics on a horizon past the
    /// [declared](Self::declare_horizon) one.
    ///
    /// `probe` observes every handled event, with the marks, values and
    /// touches its handler emitted. Probes are one-way (they cannot
    /// schedule or draw randomness), so results are identical under any
    /// probe; a run that wants no telemetry passes `wt_obs::NoProbe`.
    /// Only with the crate's `wall-time` feature does the engine
    /// additionally time each handler and report it via
    /// `Probe::on_handler_wall`.
    ///
    /// Generic over the probe type so a concrete probe gets its methods
    /// inlined into the loop — `NoProbe`'s vanish, and the virtual
    /// dispatch would otherwise rival the work `SimProbe`'s do.
    /// `&mut dyn Probe` still satisfies the bound for callers that only
    /// have a trait object.
    pub fn run_until<P: Probe + ?Sized>(&mut self, horizon: SimTime, probe: &mut P) -> StopReason {
        self.check_horizon(horizon);
        let mut mark_buf: Vec<&'static str> = Vec::new();
        let mut value_buf: Vec<(&'static str, f64)> = Vec::new();
        let mut touch_buf: Vec<(&'static str, u64)> = Vec::new();
        loop {
            if let Some(budget) = self.event_budget {
                if self.executed >= budget {
                    return StopReason::EventBudgetExhausted;
                }
            }
            let Some(next) = self.queue.peek_time() else {
                return StopReason::QueueEmpty;
            };
            if next > horizon {
                self.now = horizon;
                return StopReason::HorizonReached;
            }
            let (time, ev) = self.queue.pop().expect("peeked entry vanished");
            self.now = time;
            self.executed += 1;
            let label = M::label(&ev);
            #[cfg(feature = "wall-time")]
            let handler_start = std::time::Instant::now();
            let mut stop = false;
            let mut ctx = Ctx {
                now: self.now,
                queue: &mut self.queue,
                stop: &mut stop,
                executed: self.executed,
                marks: &mut mark_buf,
                values: &mut value_buf,
                touches: &mut touch_buf,
            };
            self.model.handle(ev, &mut ctx);
            for mark in mark_buf.drain(..) {
                probe.on_mark(mark);
            }
            for (label, value) in value_buf.drain(..) {
                probe.on_value(label, value);
            }
            for (label, key) in touch_buf.drain(..) {
                probe.on_distinct(label, key);
            }
            #[cfg(feature = "wall-time")]
            probe.on_handler_wall(label, handler_start.elapsed().as_nanos() as u64);
            probe.on_event(label, self.now.as_secs(), self.queue.len());
            if stop {
                return StopReason::StoppedByModel;
            }
        }
    }

    /// Panics when `horizon` is past the declared one: the events parked
    /// beyond the declaration were never stored, so the run cannot reach
    /// them.
    fn check_horizon(&self, horizon: SimTime) {
        let declared = self.queue.horizon();
        assert!(
            horizon <= declared,
            "run horizon {horizon} is past the declared horizon {declared}"
        );
    }

    /// Runs to `horizon` under a [`SimProbe`], teed with `extra` when
    /// given (e.g. a `TraceProbe`), and distills the run's telemetry,
    /// stamped with the event list it ran on. Wall-clock fields are the
    /// caller's to fill in.
    pub fn run_observed(
        &mut self,
        horizon: SimTime,
        extra: Option<&mut dyn Probe>,
    ) -> RunTelemetry {
        let mut sp = SimProbe::new();
        let reason = match extra {
            Some(p) => self.run_until(horizon, &mut Tee(&mut sp, p)),
            None => self.run_until(horizon, &mut sp),
        };
        let mut telemetry = sp.finish(self.now.as_secs(), reason.as_str());
        telemetry.queue = Some("heap".to_string());
        telemetry
    }

    /// Consumes the run and returns the model (for extracting final results).
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_obs::NoProbe;

    /// Runs `sim` with no telemetry until its queue drains or it stops.
    fn run<M: Model>(sim: &mut Simulation<M>) -> StopReason {
        sim.run_until(SimTime::MAX, &mut NoProbe)
    }

    /// A model that re-schedules itself `limit` times at a fixed period.
    struct Ticker {
        period: SimDuration,
        limit: u32,
        fired: u32,
        fire_times: Vec<SimTime>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
            self.fired += 1;
            self.fire_times.push(ctx.now());
            if self.fired < self.limit {
                ctx.schedule_in(self.period, ());
            }
        }
    }

    fn ticker(period: f64, limit: u32) -> Ticker {
        Ticker {
            period: SimDuration::from_secs(period),
            limit,
            fired: 0,
            fire_times: Vec::new(),
        }
    }

    #[test]
    fn runs_to_queue_empty() {
        let mut sim = Simulation::new(ticker(1.0, 5));
        sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(run(&mut sim), StopReason::QueueEmpty);
        assert_eq!(sim.model().fired, 5);
        assert_eq!(sim.now(), SimTime::from_secs(4.0));
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn horizon_stops_and_preserves_pending() {
        let mut sim = Simulation::new(ticker(1.0, 100));
        sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(
            sim.run_until(SimTime::from_secs(2.5), &mut NoProbe),
            StopReason::HorizonReached
        );
        assert_eq!(sim.model().fired, 3); // t = 0, 1, 2
        assert_eq!(sim.now(), SimTime::from_secs(2.5));
        // Resuming picks up where we left off.
        assert_eq!(
            sim.run_until(SimTime::from_secs(4.5), &mut NoProbe),
            StopReason::HorizonReached
        );
        assert_eq!(sim.model().fired, 5);
    }

    #[test]
    fn event_budget_aborts() {
        let mut sim = Simulation::new(ticker(1.0, 1000));
        sim.schedule_at(SimTime::ZERO, ());
        sim.set_event_budget(10);
        assert_eq!(run(&mut sim), StopReason::EventBudgetExhausted);
        assert_eq!(sim.events_executed(), 10);
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            if ev == 3 {
                ctx.stop();
            } else {
                ctx.schedule_in(SimDuration::from_secs(1.0), ev + 1);
            }
        }
    }

    #[test]
    fn model_can_stop() {
        let mut sim = Simulation::new(Stopper);
        sim.schedule_at(SimTime::ZERO, 0);
        assert_eq!(run(&mut sim), StopReason::StoppedByModel);
        assert_eq!(sim.now(), SimTime::from_secs(3.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new(ticker(1.0, 2));
        sim.schedule_at(SimTime::ZERO, ());
        run(&mut sim);
        sim.schedule_at(SimTime::ZERO, ());
    }

    /// Schedules forward until t=2, then tries to schedule back at t=0.
    struct PastScheduler;
    impl Model for PastScheduler {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            if ev == 2 {
                ctx.schedule_at(SimTime::ZERO, 99);
            } else {
                ctx.schedule_in(SimDuration::from_secs(1.0), ev + 1);
            }
        }
    }

    #[test]
    fn past_panic_reports_queue_and_executed_counts() {
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulation::new(PastScheduler);
            sim.schedule_at(SimTime::ZERO, 0);
            sim.schedule_at(SimTime::from_secs(10.0), 7); // stays pending
            run(&mut sim);
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("cannot schedule into the past"), "{msg}");
        // Events at t = 0, 1, 2 executed; the t = 10 event still queued.
        assert!(msg.contains("1 pending"), "{msg}");
        assert!(msg.contains("3 events executed"), "{msg}");
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let trace = || {
            let mut sim = Simulation::new(ticker(0.5, 50));
            sim.schedule_at(SimTime::ZERO, ());
            run(&mut sim);
            sim.into_model().fire_times
        };
        assert_eq!(trace(), trace());
    }

    // --- StopReason × counter interplay -----------------------------------

    #[test]
    fn queue_empty_leaves_no_pending_events() {
        let mut sim = Simulation::new(ticker(1.0, 5));
        sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(run(&mut sim), StopReason::QueueEmpty);
        assert_eq!(sim.events_executed(), 5);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn horizon_reached_preserves_exact_pending_count() {
        // One self-rescheduling chain plus two far-future events.
        let mut sim = Simulation::new(ticker(1.0, 100));
        sim.schedule_at(SimTime::ZERO, ());
        sim.schedule_at(SimTime::from_secs(50.0), ());
        sim.schedule_at(SimTime::from_secs(60.0), ());
        assert_eq!(
            sim.run_until(SimTime::from_secs(2.5), &mut NoProbe),
            StopReason::HorizonReached
        );
        // t = 0, 1, 2 fired; the chain's next tick and both far events wait.
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sim.pending_events(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(2.5));
    }

    #[test]
    fn stopped_by_model_counts_the_stopping_event() {
        let mut sim = Simulation::new(Stopper);
        sim.schedule_at(SimTime::ZERO, 0);
        sim.schedule_at(SimTime::from_secs(100.0), 9); // never reached
        assert_eq!(run(&mut sim), StopReason::StoppedByModel);
        // Events 0..=3 executed (the ev == 3 handler called stop).
        assert_eq!(sim.events_executed(), 4);
        // The stop event scheduled nothing; only the far event remains.
        assert_eq!(sim.pending_events(), 1);
    }

    #[test]
    fn budget_exhausted_counts_stop_at_the_cap() {
        let mut sim = Simulation::new(ticker(1.0, 1000));
        sim.schedule_at(SimTime::ZERO, ());
        sim.set_event_budget(10);
        assert_eq!(run(&mut sim), StopReason::EventBudgetExhausted);
        assert_eq!(sim.events_executed(), 10);
        // The chain's next tick is still queued: the budget cuts the run
        // mid-flight, it does not drain the queue.
        assert_eq!(sim.pending_events(), 1);
        // Re-running without a bigger budget stops immediately at the cap.
        assert_eq!(run(&mut sim), StopReason::EventBudgetExhausted);
        assert_eq!(sim.events_executed(), 10);
    }

    #[test]
    fn stop_reason_strings_cover_all_variants() {
        assert_eq!(StopReason::QueueEmpty.as_str(), "QueueEmpty");
        assert_eq!(StopReason::HorizonReached.as_str(), "HorizonReached");
        assert_eq!(StopReason::StoppedByModel.as_str(), "StoppedByModel");
        assert_eq!(
            StopReason::EventBudgetExhausted.as_str(),
            "EventBudgetExhausted"
        );
    }

    // --- Probe integration ------------------------------------------------

    /// Ticker with per-parity labels, a custom mark on odd ticks, and an
    /// observation and a key touch on every tick.
    struct LabeledTicker {
        limit: u32,
        fired: u32,
    }

    impl Model for LabeledTicker {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            self.fired += 1;
            if ev % 2 == 1 {
                ctx.mark("odd_tick");
            }
            ctx.observe("tick_s", ctx.now().as_secs());
            ctx.touch("tick", u64::from(ev));
            if self.fired < self.limit {
                ctx.schedule_in(SimDuration::from_secs(1.0), ev + 1);
            }
        }
        fn label(ev: &u32) -> &'static str {
            if ev.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        }
    }

    #[test]
    fn probe_observes_every_event_with_labels_and_marks() {
        let mut probe = wt_obs::SimProbe::new();
        let mut sim = Simulation::new(LabeledTicker { limit: 7, fired: 0 });
        sim.schedule_at(SimTime::ZERO, 0);
        let reason = sim.run_until(SimTime::MAX, &mut probe);
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(probe.events(), sim.events_executed());
        let t = probe.finish(sim.now().as_secs(), reason.as_str());
        assert_eq!(t.events, 7);
        assert_eq!(t.events_by_label["even"], 4); // 0, 2, 4, 6
        assert_eq!(t.events_by_label["odd"], 3); // 1, 3, 5
        assert_eq!(t.marks["odd_tick"], 3);
        assert_eq!(t.stop_reason, "QueueEmpty");
        assert_eq!(t.horizon_s, 6.0);
    }

    #[test]
    fn probed_and_unprobed_runs_are_identical() {
        // The same loop under NoProbe and SimProbe: the marks,
        // observations and touches this model emits are dropped by one
        // and folded by the other, and neither changes the run.
        let horizon = SimTime::from_secs(20.5);
        let run = |probed: bool| {
            let mut sim = Simulation::new(LabeledTicker {
                limit: 60,
                fired: 0,
            });
            sim.schedule_at(SimTime::ZERO, 0);
            let reason = if probed {
                let mut p = wt_obs::SimProbe::new();
                let reason = sim.run_until(horizon, &mut p);
                let t = p.finish(sim.now().as_secs(), reason.as_str());
                assert_eq!(t.events, 21);
                assert_eq!(t.marks["odd_tick"], 10);
                let sketches = t.sketches.expect("observations folded");
                assert_eq!(sketches.values["tick_s"].count(), 21);
                assert!(!sketches.distincts["tick"].is_empty());
                reason
            } else {
                sim.run_until(horizon, &mut NoProbe)
            };
            let (now, events, pending) = (sim.now(), sim.events_executed(), sim.pending_events());
            (reason, now, events, pending, sim.into_model().fired)
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(false), (StopReason::HorizonReached, horizon, 21, 1, 21));
    }

    #[test]
    fn probe_sees_queue_depth_after_each_handler() {
        struct Burst;
        impl Model for Burst {
            type Event = u8;
            fn handle(&mut self, ev: u8, ctx: &mut Ctx<'_, u8>) {
                if ev == 0 {
                    // Fan out three follow-ups.
                    for i in 1..=3 {
                        ctx.schedule_in(SimDuration::from_secs(i as f64), 1);
                    }
                }
            }
        }
        let mut probe = wt_obs::SimProbe::new();
        let mut sim = Simulation::new(Burst);
        sim.schedule_at(SimTime::ZERO, 0);
        sim.run_until(SimTime::MAX, &mut probe);
        // Depth right after the fan-out event was 3.
        assert_eq!(probe.peak_queue_depth(), 3);
        assert_eq!(probe.events(), 4);
    }

    #[test]
    fn ctx_sees_pending_events_inside_handlers() {
        struct Inspector {
            depths: Vec<usize>,
        }
        impl Model for Inspector {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
                self.depths.push(ctx.pending_events());
                if ev < 5 {
                    ctx.schedule_in(SimDuration::from_secs(1.0), ev + 1);
                }
            }
        }
        let mut sim = Simulation::new(Inspector { depths: Vec::new() });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.schedule_at(SimTime::from_secs(10.0), 9);
        assert_eq!(run(&mut sim), StopReason::QueueEmpty);
        // The far event waits behind the chain until the chain is done.
        assert_eq!(sim.model().depths, vec![1, 1, 1, 1, 1, 1, 0]);
    }

    /// A chain of 21 `near` events, each also scheduling a `far` event
    /// 10-50 s out: about half of those land past a 30 s horizon, and
    /// after the chain ends only they remain.
    struct Straddler;
    impl Model for Straddler {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            if ev >= 1000 || ev == 20 {
                return;
            }
            let near = 0.25 + 0.25 * f64::from(ev % 5);
            ctx.schedule_in(SimDuration::from_secs(near), ev + 1);
            ctx.schedule_in(SimDuration::from_secs(40.0 * near), ev + 1000);
        }
        fn label(ev: &u32) -> &'static str {
            if *ev >= 1000 {
                "far"
            } else {
                "near"
            }
        }
    }

    #[test]
    fn a_declared_horizon_changes_no_telemetry() {
        let horizon = SimTime::from_secs(30.0);
        let run = |declare: bool| {
            let mut sim = Simulation::new(Straddler);
            if declare {
                sim.declare_horizon(horizon);
            }
            sim.schedule_at(SimTime::ZERO, 0);
            sim.schedule_at(SimTime::from_secs(45.0), 1000);
            let t = sim.run_observed(horizon, None).masked();
            (t, sim.now(), sim.pending_events(), sim.parked_events())
        };
        let (plain, plain_now, plain_pending, plain_parked) = run(false);
        let (declared, now, pending, parked) = run(true);
        // The far events past the horizon were parked, and the heap
        // drained of everything else: the stop reason and the clock came
        // from the earliest parked time.
        assert_eq!(plain_parked, 0);
        assert!(parked > 0 && parked == pending, "{parked} of {pending}");
        assert_eq!(declared.stop_reason, "HorizonReached");
        assert_eq!(now, horizon);
        assert_eq!((plain_now, plain_pending), (now, pending));
        assert_eq!(plain.events, declared.events);
        assert_eq!(plain.events_by_label, declared.events_by_label);
        assert!(declared.events_by_label["far"] > 0);
        assert_eq!(plain.peak_queue_depth, declared.peak_queue_depth);
        assert_eq!(
            plain.mean_queue_depth.to_bits(),
            declared.mean_queue_depth.to_bits()
        );
        assert_eq!(plain, declared);
    }

    #[test]
    #[should_panic(expected = "past the declared horizon")]
    fn running_past_the_declared_horizon_panics() {
        let mut sim = Simulation::new(ticker(1.0, 100));
        sim.declare_horizon(SimTime::from_secs(10.0));
        sim.schedule_at(SimTime::ZERO, ());
        sim.run_until(SimTime::from_secs(10.5), &mut NoProbe);
    }

    #[test]
    fn marks_without_probe_are_free_and_safe() {
        let mut sim = Simulation::new(LabeledTicker { limit: 5, fired: 0 });
        sim.schedule_at(SimTime::ZERO, 0);
        assert_eq!(run(&mut sim), StopReason::QueueEmpty); // NoProbe drops the marks
        assert_eq!(sim.events_executed(), 5);
    }
}
