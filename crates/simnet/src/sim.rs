//! The discrete-event simulation engine.
//!
//! In-flight envelopes live in a slab: a free-list arena whose slots are
//! addressed by stable [`EnvelopeId`]s. Insertion and removal are O(1)
//! (no middle shifts), retired slots are pooled and reused, and the
//! [`Scheduler`] is kept in sync incrementally through its
//! `on_send`/`on_delivered` hooks — so a delivery step never allocates,
//! scans, or shifts anything proportional to the in-flight population.
//!
//! # What a step costs
//!
//! One delivery is a `choose` (O(log n) for [`crate::RandomScheduler`]:
//! a descent of a tree with one node per 64 envelopes, then a broadword
//! select in one word), a slab removal, the handler, and then, for each
//! message the handler queued, a slab insertion and an `on_send`.
//! Metering is paid per fan-out, not per copy: a
//! [`Context::broadcast`] or [`Context::multicast`] marks its run of
//! clones, so the engine calls [`WireMessage::kind`] and
//! [`bgla_codec::Wire::wire_size`] once for the run and records it as `n`
//! sends, and each run of same-kind sends of one event reaches
//! [`Metrics`] in one [`Metrics::record_sends`] call. An envelope keeps
//! the size metered at send, so a traced delivery does not size its
//! message again. The `e2e` benchmark reports the engine's time per
//! delivery, handlers excluded, as `simnet.step_self_ns`.

use crate::metrics::{Metrics, WireMessage};
use crate::process::{Context, Process, ProcessId};
use crate::scheduler::{EnvelopeId, FifoScheduler, InFlight, Scheduler};
use crate::trace::{Trace, TraceEvent};

struct Envelope<M> {
    meta: InFlight,
    msg: M,
    /// The message's size as metered at send, for the trace.
    bytes: usize,
    /// Causal depth: one more than the depth of the event during which the
    /// message was sent.
    depth: u64,
}

/// Consecutive sends of one kind by one sender, metered with one
/// [`Metrics::record_sends`] call.
#[derive(Default)]
struct KindRun {
    kind: &'static str,
    count: u64,
    bytes: u64,
    max: usize,
}

impl KindRun {
    /// Adds `copies` sends of `bytes` each. A new kind first meters the
    /// run so far.
    fn add(
        &mut self,
        metrics: &mut Metrics,
        from: ProcessId,
        kind: &'static str,
        copies: usize,
        bytes: usize,
    ) {
        if kind != self.kind {
            self.meter(metrics, from);
            self.kind = kind;
        }
        self.count += copies as u64;
        self.bytes += (copies * bytes) as u64;
        self.max = self.max.max(bytes);
    }

    /// Meters the run and empties it.
    fn meter(&mut self, metrics: &mut Metrics, from: ProcessId) {
        if self.count > 0 {
            metrics.record_sends(from, self.kind, self.count, self.bytes, self.max);
        }
        *self = KindRun::default();
    }
}

/// A free-list slab of in-flight envelopes: O(1) insert and remove under
/// stable ids, with slot (and thus allocation) reuse across the run.
struct Slab<M> {
    slots: Vec<Option<Envelope<M>>>,
    free: Vec<EnvelopeId>,
    live: usize,
}

impl<M> Slab<M> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, env: Envelope<M>) -> EnvelopeId {
        self.live += 1;
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id].is_none());
                self.slots[id] = Some(env);
                id
            }
            None => {
                self.slots.push(Some(env));
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, id: EnvelopeId) -> Envelope<M> {
        let env = self
            .slots
            .get_mut(id)
            .and_then(Option::take)
            .expect("scheduler returned an invalid envelope id");
        self.free.push(id);
        self.live -= 1;
        env
    }

    /// Drops every envelope failing `keep`; returns `(id, meta)` of the
    /// survivors in slot order. Used by [`Simulation::crash`] to sweep a
    /// victim's in-flight messages and re-feed the rest to the scheduler.
    fn retain(
        &mut self,
        mut keep: impl FnMut(&Envelope<M>) -> bool,
    ) -> Vec<(EnvelopeId, InFlight)> {
        let mut kept = Vec::with_capacity(self.live);
        for id in 0..self.slots.len() {
            match &self.slots[id] {
                Some(env) if !keep(env) => {
                    self.slots[id] = None;
                    self.free.push(id);
                    self.live -= 1;
                }
                Some(env) => kept.push((id, env.meta)),
                None => {}
            }
        }
        kept
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Deliveries performed.
    pub delivered: u64,
    /// True if the run ended because no messages remained in flight
    /// (the system quiesced), false if the delivery budget ran out.
    pub quiescent: bool,
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder<M: WireMessage> {
    procs: Vec<Box<dyn Process<M>>>,
    scheduler: Box<dyn Scheduler>,
}

impl<M: WireMessage + 'static> Default for SimulationBuilder<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: WireMessage + 'static> SimulationBuilder<M> {
    /// Starts an empty builder with a FIFO scheduler.
    pub fn new() -> Self {
        SimulationBuilder {
            procs: Vec::new(),
            scheduler: Box::new(FifoScheduler::new()),
        }
    }

    /// Appends a process; its id is its insertion index.
    #[allow(clippy::should_implement_trait)] // appends a process, not arithmetic
    pub fn add(mut self, p: Box<dyn Process<M>>) -> Self {
        self.procs.push(p);
        self
    }

    /// Appends many processes at once.
    pub fn add_all<I: IntoIterator<Item = Box<dyn Process<M>>>>(mut self, it: I) -> Self {
        self.procs.extend(it);
        self
    }

    /// Replaces the scheduler (network adversary).
    pub fn scheduler(mut self, s: Box<dyn Scheduler>) -> Self {
        self.scheduler = s;
        self
    }

    /// Finalizes the simulation (does not run `on_start` yet).
    pub fn build(self) -> Simulation<M> {
        let n = self.procs.len();
        Simulation {
            depths: vec![0; n],
            events: vec![0; n],
            crashed: vec![false; n],
            restarts: vec![0; n],
            procs: self.procs,
            inflight: Slab::new(),
            scheduler: self.scheduler,
            metrics: Metrics::new(n),
            seq: 0,
            delivered: 0,
            started: false,
            trace: None,
            outbox: Vec::new(),
            fanouts: Vec::new(),
        }
    }
}

/// A deterministic single-threaded simulation of `n` processes exchanging
/// messages over reliable, authenticated, asynchronous links.
pub struct Simulation<M: WireMessage> {
    procs: Vec<Box<dyn Process<M>>>,
    /// Causal clock per process (max depth observed).
    depths: Vec<u64>,
    /// Deliveries handled per process.
    events: Vec<u64>,
    /// Crash flags: a crashed process receives nothing (sends addressed
    /// to it are dropped at the wire) until [`Simulation::restart`].
    crashed: Vec<bool>,
    /// Restart generation per process: how many times each slot has been
    /// rebooted via [`Simulation::restart`]. Conformance observers diff
    /// this to notice a new incarnation and reset their per-process
    /// state-diffing memory (the old incarnation's announcements do not
    /// describe the restored state).
    restarts: Vec<u64>,
    inflight: Slab<M>,
    scheduler: Box<dyn Scheduler>,
    metrics: Metrics,
    seq: u64,
    delivered: u64,
    started: bool,
    trace: Option<Trace>,
    /// The one outbox buffer every event's [`Context`] borrows: lent by
    /// `context`, handed back (drained, capacity kept) by `flush_outbox`.
    outbox: Vec<(ProcessId, M)>,
    /// The fan-out marks every event's [`Context`] borrows, lent and
    /// handed back beside `outbox`.
    fanouts: Vec<(usize, usize)>,
}

impl<M: WireMessage + 'static> Simulation<M> {
    /// Enables delivery tracing (off by default: traces of long runs are
    /// large). Call before `run`.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::default());
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Mutable access to the recorded trace so a harness can append
    /// [`crate::trace::OpEvent`]s (protocol-level operations it observed
    /// between [`Simulation::step`] calls) without any engine hook.
    pub fn trace_mut(&mut self) -> Option<&mut Trace> {
        self.trace.as_mut()
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Accumulated metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Causal depth (message delays observed) of process `p`.
    pub fn depth_of(&self, p: ProcessId) -> u64 {
        self.depths[p]
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Borrow a process for post-run inspection (downcast via `as_any`).
    pub fn process(&self, p: ProcessId) -> &dyn Process<M> {
        self.procs[p].as_ref()
    }

    /// Convenience downcast to a concrete process type.
    pub fn process_as<T: 'static>(&self, p: ProcessId) -> Option<&T> {
        self.procs[p].as_any().downcast_ref::<T>()
    }

    /// Convenience downcast to a concrete scheduler type, for post-run
    /// inspection (e.g. [`crate::ReplayScheduler::divergences`]).
    pub fn scheduler_as<T: 'static>(&self) -> Option<&T> {
        self.scheduler.as_any().downcast_ref::<T>()
    }

    /// A context for an event at `p`, writing into the pooled outbox.
    fn context(&mut self, p: ProcessId) -> Context<M> {
        let mut ctx = Context::new(p, self.n());
        ctx.outbox = std::mem::take(&mut self.outbox);
        ctx.fanouts = Some(std::mem::take(&mut self.fanouts));
        ctx
    }

    fn flush_outbox(&mut self, from: ProcessId, ctx: Context<M>, depth: u64) {
        let Context {
            mut outbox,
            fanouts,
            ..
        } = ctx;
        let mut fanouts = fanouts.expect("the simulator lends each context its fan-out marks");
        let mut marks = fanouts.iter().peekable();
        let mut run = KindRun::default();
        // The message on the wire: sized once per fan-out, and the
        // copies of it still to come.
        let (mut kind, mut bytes, mut copies_left) = ("", 0, 0);
        for (i, (to, msg)) in outbox.drain(..).enumerate() {
            if copies_left == 0 {
                copies_left = marks
                    .next_if(|&&(start, _)| start == i)
                    .map_or(1, |&(_, copies)| copies);
                kind = msg.kind();
                bytes = msg.wire_size();
                // The sender pays for every copy either way (the bytes
                // hit the wire before anyone can know a peer is down)...
                run.add(&mut self.metrics, from, kind, copies_left, bytes);
            }
            copies_left -= 1;
            self.seq += 1;
            // ...but a message to a crashed process never enters
            // flight: it is dropped here rather than scheduled into a
            // dead process's inbox, so delivery counts, delivered-byte
            // traces and scheduler work are not inflated by traffic
            // nobody will ever handle.
            if self.crashed[to] {
                continue;
            }
            let meta = InFlight {
                from,
                to,
                seq: self.seq - 1,
                sent_at: self.delivered,
                kind,
            };
            let id = self.inflight.insert(Envelope {
                meta,
                msg,
                bytes,
                depth,
            });
            self.scheduler.on_send(&meta, id);
        }
        run.meter(&mut self.metrics, from);
        fanouts.clear();
        self.fanouts = fanouts;
        self.outbox = outbox;
    }

    /// Runs `on_start` on every process (idempotent). Processes crashed
    /// before the run starts never boot.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let n = self.n();
        for p in 0..n {
            if self.crashed[p] {
                continue;
            }
            let mut ctx = self.context(p);
            ctx.depth = 0;
            self.procs[p].on_start(&mut ctx);
            // Messages sent at start-up begin causal chains: depth 1.
            self.flush_outbox(p, ctx, 1);
        }
    }

    /// Crash-stops process `p`: every in-flight envelope addressed to it
    /// is dropped from the slab (a crashed process has no inbox), future
    /// sends to it are dropped at the wire, and it receives no further
    /// deliveries until [`Simulation::restart`]. The scheduler is reset
    /// and re-fed the surviving envelopes in `seq` order, preserving its
    /// documented re-feed contract.
    ///
    /// Crashing an already-crashed process is a no-op.
    pub fn crash(&mut self, p: ProcessId) {
        assert!(p < self.n(), "crash target {p} out of range");
        if self.crashed[p] {
            return;
        }
        self.crashed[p] = true;
        let mut survivors = self.inflight.retain(|env| env.meta.to != p);
        survivors.sort_by_key(|(_, meta)| meta.seq);
        self.scheduler.reset();
        for (id, meta) in &survivors {
            self.scheduler.on_send(meta, *id);
        }
    }

    /// Whether process `p` is currently crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed[p]
    }

    /// Restart generation of process `p` (number of completed
    /// [`Simulation::restart`]s of that slot).
    pub fn restarts_of(&self, p: ProcessId) -> u64 {
        self.restarts[p]
    }

    /// Restarts crashed process `p` as `proc` — typically rebuilt from
    /// its latest durable snapshot (see [`Process::snapshot`]), or from
    /// genesis when no usable snapshot exists. The recovered process is
    /// booted through `on_start` so it can re-announce itself; messages
    /// it sends continue the victim's causal chain (depth picks up from
    /// the crashed incarnation's clock — wall time kept passing while it
    /// was down).
    ///
    /// Panics if `p` is not crashed: replacing a live process mid-run
    /// would silently drop protocol state.
    pub fn restart(&mut self, p: ProcessId, proc: Box<dyn Process<M>>) {
        assert!(self.crashed[p], "restart of live process {p}");
        self.crashed[p] = false;
        self.restarts[p] += 1;
        self.procs[p] = proc;
        if self.started {
            let mut ctx = self.context(p);
            ctx.depth = self.depths[p];
            ctx.local_events = self.events[p];
            self.procs[p].on_start(&mut ctx);
            self.flush_outbox(p, ctx, self.depths[p] + 1);
        }
    }

    /// The durable snapshot of process `p`, if it supports one (see
    /// [`Process::snapshot`]). Callable while `p` is live or crashed —
    /// though a real deployment snapshots *before* the crash, which is
    /// what the recovery harness does.
    pub fn snapshot_of(&self, p: ProcessId) -> Option<Vec<u8>> {
        self.procs[p].snapshot()
    }

    /// Delivers exactly one message. Returns `false` when nothing is in
    /// flight.
    pub fn step(&mut self) -> bool {
        if !self.started {
            self.start();
        }
        if self.inflight.len() == 0 {
            return false;
        }
        let id = self.scheduler.choose(self.delivered);
        let env = self.inflight.remove(id);
        self.scheduler.on_delivered(id);
        let to = env.meta.to;

        // Advance the receiver's causal clock, then handle.
        self.depths[to] = self.depths[to].max(env.depth);
        self.events[to] += 1;
        let mut ctx = self.context(to);
        ctx.depth = self.depths[to];
        ctx.local_events = self.events[to];
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                step: self.delivered,
                from: env.meta.from,
                to,
                kind: env.meta.kind,
                depth: self.depths[to],
                bytes: env.bytes,
            });
        }
        self.procs[to].on_message(env.meta.from, env.msg, &mut ctx);
        let out_depth = self.depths[to] + 1;
        self.flush_outbox(to, ctx, out_depth);

        self.delivered += 1;
        self.metrics.delivered = self.delivered;
        true
    }

    /// Runs until quiescence or until `max_deliveries` is reached.
    pub fn run(&mut self, max_deliveries: u64) -> RunOutcome {
        self.start();
        while self.delivered < max_deliveries {
            if !self.step() {
                return RunOutcome {
                    delivered: self.delivered,
                    quiescent: true,
                };
            }
        }
        RunOutcome {
            delivered: self.delivered,
            quiescent: self.inflight.len() == 0,
        }
    }

    /// Runs until `pred` holds over the simulation (checked after every
    /// delivery), quiescence, or the budget. Returns `(outcome,
    /// pred_satisfied)`.
    pub fn run_until<F: FnMut(&Simulation<M>) -> bool>(
        &mut self,
        max_deliveries: u64,
        mut pred: F,
    ) -> (RunOutcome, bool) {
        self.start();
        if pred(self) {
            return (
                RunOutcome {
                    delivered: self.delivered,
                    quiescent: self.inflight.len() == 0,
                },
                true,
            );
        }
        while self.delivered < max_deliveries {
            if !self.step() {
                let sat = pred(self);
                return (
                    RunOutcome {
                        delivered: self.delivered,
                        quiescent: true,
                    },
                    sat,
                );
            }
            if pred(self) {
                return (
                    RunOutcome {
                        delivered: self.delivered,
                        quiescent: self.inflight.len() == 0,
                    },
                    true,
                );
            }
        }
        (
            RunOutcome {
                delivered: self.delivered,
                quiescent: self.inflight.len() == 0,
            },
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_codec::{CodecError, Reader, Wire, Writer};
    use std::any::Any;

    /// Relays a token `hops` times: p0 -> p1 -> p0 -> p1 ... Each hop adds
    /// one causal depth unit.
    struct PingPong {
        peer: ProcessId,
        remaining: u64,
        start_message: bool,
        final_depth: Option<u64>,
    }

    impl Process<u64> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            if self.start_message && self.remaining > 0 {
                ctx.send(self.peer, self.remaining - 1);
            }
        }
        fn on_message(&mut self, _from: ProcessId, msg: u64, ctx: &mut Context<u64>) {
            if msg == 0 {
                self.final_depth = Some(ctx.depth);
            } else {
                ctx.send(self.peer, msg - 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn pingpong_sim(hops: u64) -> Simulation<u64> {
        SimulationBuilder::new()
            .add(Box::new(PingPong {
                peer: 1,
                remaining: hops,
                start_message: true,
                final_depth: None,
            }))
            .add(Box::new(PingPong {
                peer: 0,
                remaining: 0,
                start_message: false,
                final_depth: None,
            }))
            .build()
    }

    #[test]
    fn depth_counts_message_delays_exactly() {
        let mut sim = pingpong_sim(5);
        let out = sim.run(1_000);
        assert!(out.quiescent);
        assert_eq!(out.delivered, 5);
        // The token hopped 5 times; final receiver observed depth 5.
        let d0 = sim.process_as::<PingPong>(0).unwrap().final_depth;
        let d1 = sim.process_as::<PingPong>(1).unwrap().final_depth;
        assert_eq!(d0.or(d1), Some(5));
    }

    #[test]
    fn metrics_count_sends() {
        let mut sim = pingpong_sim(4);
        sim.run(1_000);
        assert_eq!(sim.metrics().total_sent(), 4);
        assert_eq!(sim.metrics().sent_by_kind["u64"], 4);
    }

    #[test]
    fn budget_stops_run() {
        let mut sim = pingpong_sim(100);
        let out = sim.run(10);
        assert!(!out.quiescent);
        assert_eq!(out.delivered, 10);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = pingpong_sim(50);
        let (out, sat) = sim.run_until(1_000, |s| s.metrics().delivered >= 7);
        assert!(sat);
        assert_eq!(out.delivered, 7);
    }

    /// A process that broadcasts on start and counts receipts: checks that
    /// self-delivery works and that every process hears every broadcast.
    struct Gossip {
        got: u64,
    }
    impl Process<u64> for Gossip {
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(1);
        }
        fn on_message(&mut self, _from: ProcessId, _msg: u64, _ctx: &mut Context<u64>) {
            self.got += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn broadcast_delivers_n_squared() {
        let n = 5;
        let mut b = SimulationBuilder::new();
        for _ in 0..n {
            b = b.add(Box::new(Gossip { got: 0 }));
        }
        let mut sim = b.build();
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert_eq!(out.delivered, (n * n) as u64);
        for p in 0..n {
            assert_eq!(sim.process_as::<Gossip>(p).unwrap().got, n as u64);
        }
    }

    #[test]
    fn crash_drops_inflight_and_future_sends() {
        // Three gossipers; crash p2 before start. p2 never boots, and
        // the other two processes' broadcasts to it are dropped at the
        // wire: sends are still metered (the sender paid for them) but
        // nothing is ever delivered into a dead inbox.
        let mut b = SimulationBuilder::new();
        for _ in 0..3 {
            b = b.add(Box::new(Gossip { got: 0 }));
        }
        let mut sim = b.build();
        sim.enable_trace();
        sim.crash(2);
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert_eq!(sim.metrics().total_sent(), 6, "two live broadcasts of 3");
        assert_eq!(out.delivered, 4, "only the four live-to-live copies");
        assert!(
            sim.trace().unwrap().events().iter().all(|e| e.to != 2),
            "a delivery reached the crashed process"
        );
    }

    #[test]
    fn mid_run_crash_sweeps_pending_envelopes() {
        let n = 4;
        let mut b = SimulationBuilder::new();
        for _ in 0..n {
            b = b.add(Box::new(Gossip { got: 0 }));
        }
        let mut sim = b.build();
        sim.start();
        assert_eq!(sim.in_flight(), n * n);
        sim.crash(0);
        // p0's four pending deliveries vanished from the slab.
        assert_eq!(sim.in_flight(), n * n - n);
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert_eq!(out.delivered, (n * n - n) as u64);
        assert_eq!(sim.process_as::<Gossip>(0).unwrap().got, 0);
    }

    #[test]
    fn restart_boots_replacement_process() {
        let mut b = SimulationBuilder::new();
        for _ in 0..3 {
            b = b.add(Box::new(Gossip { got: 0 }));
        }
        let mut sim = b.build();
        sim.crash(1);
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert!(sim.is_crashed(1));
        // Recovered replacement re-broadcasts on restart and hears only
        // its own copy (the others' start-up traffic is long gone).
        sim.restart(1, Box::new(Gossip { got: 0 }));
        assert!(!sim.is_crashed(1));
        assert_eq!(sim.in_flight(), 3);
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert_eq!(sim.process_as::<Gossip>(1).unwrap().got, 1);
        // The survivors each heard: 2 live broadcasts + the restart one.
        assert_eq!(sim.process_as::<Gossip>(0).unwrap().got, 3);
    }

    /// A message of two kinds whose sizes differ by content, for the
    /// metering tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Toy {
        Short(u64),
        Long(Vec<u8>),
    }

    impl Wire for Toy {
        fn encode(&self, w: &mut Writer) {
            match self {
                Toy::Short(v) => {
                    w.u8(0);
                    w.var(*v);
                }
                Toy::Long(body) => {
                    w.u8(1);
                    w.usize(body.len());
                    w.bytes(body);
                }
            }
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            match r.u8()? {
                0 => Ok(Toy::Short(r.var()?)),
                1 => {
                    let len = r.seq_len()?;
                    Ok(Toy::Long(r.bytes(len)?.to_vec()))
                }
                _ => Err(CodecError::Invalid("toy tag")),
            }
        }
    }

    impl WireMessage for Toy {
        fn kind(&self) -> &'static str {
            match self {
                Toy::Short(_) => "short",
                Toy::Long(_) => "long",
            }
        }
    }

    /// Queues `script` at start; records every delivery it receives.
    struct Scripted {
        script: fn(&mut Context<Toy>),
        got: Vec<Toy>,
    }

    impl Process<Toy> for Scripted {
        fn on_start(&mut self, ctx: &mut Context<Toy>) {
            (self.script)(ctx);
        }
        fn on_message(&mut self, _from: ProcessId, msg: Toy, _ctx: &mut Context<Toy>) {
            self.got.push(msg);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Runs `script` as process 1's start-up event among four processes
    /// (process 3 crashed, so copies to it are metered and dropped), and
    /// checks the simulator's `Metrics` against `record_send` applied to
    /// every message the script queues, in order; and each traced
    /// delivery's bytes against its message's size.
    fn assert_metered_per_message(script: fn(&mut Context<Toy>)) {
        const N: usize = 4;
        let mut queued = Context::for_embedding(1, N, 0, 0);
        script(&mut queued);
        let mut expected = Metrics::new(N);
        for (_, msg) in queued.take_outbox() {
            expected.record_send(1, msg.kind(), msg.wire_size());
        }
        assert!(
            expected.sent_by_kind.len() > 1,
            "the script must send two kinds"
        );

        let mut b = SimulationBuilder::new();
        for p in 0..N {
            b = b.add(Box::new(Scripted {
                script: if p == 1 { script } else { |_| {} },
                got: Vec::new(),
            }));
        }
        let mut sim = b.build();
        sim.enable_trace();
        sim.crash(3);
        sim.run(1_000);
        expected.delivered = sim.metrics().delivered;
        assert_eq!(sim.metrics(), &expected);

        let events = sim.trace().unwrap().events();
        let got: Vec<&Toy> = (0..N)
            .flat_map(|p| &sim.process_as::<Scripted>(p).unwrap().got)
            .collect();
        assert_eq!(events.len(), got.len());
        let mut traced: Vec<(&str, usize)> = events.iter().map(|e| (e.kind, e.bytes)).collect();
        let mut sized: Vec<(&str, usize)> = got.iter().map(|m| (m.kind(), m.wire_size())).collect();
        traced.sort();
        sized.sort();
        assert_eq!(
            traced, sized,
            "a delivery traced with bytes other than its message's"
        );
    }

    /// One event mixing broadcasts, multicasts (one of a single target,
    /// one of none) and sends, of both kinds and several sizes: metered
    /// as if message by message.
    #[test]
    fn fan_outs_meter_as_their_copies() {
        assert_metered_per_message(|ctx| {
            ctx.broadcast(Toy::Short(300));
            ctx.send(0, Toy::Short(7));
            ctx.send(3, Toy::Short(1 << 40));
            ctx.multicast([0, 2, 3], Toy::Long(vec![1; 40]));
            ctx.send(2, Toy::Long(vec![2; 5]));
            ctx.broadcast(Toy::Long(vec![3; 200]));
            ctx.multicast([2], Toy::Short(1 << 20));
            ctx.multicast(std::iter::empty(), Toy::Short(9));
            ctx.broadcast(Toy::Short(2));
            ctx.broadcast(Toy::Short(2));
        });
    }

    /// A host that takes or drains its outbox and sends other messages
    /// in place of the fan-out it queued is metered by what it sends.
    #[test]
    fn taken_and_drained_outboxes_meter_per_message() {
        assert_metered_per_message(|ctx| {
            ctx.broadcast(Toy::Long(vec![0; 1]));
            for (i, (to, _)) in ctx.take_outbox().into_iter().enumerate() {
                ctx.send(to, Toy::Long(vec![0; 10 * i]));
            }
            ctx.multicast([0, 1, 2], Toy::Short(5));
            let drained: Vec<ProcessId> = ctx.drain_outbox().map(|(to, _)| to).collect();
            for (i, to) in drained.into_iter().enumerate() {
                ctx.send(to, Toy::Short(1 << (8 * i)));
            }
            ctx.broadcast(Toy::Long(vec![9; 3]));
        });
    }

    #[test]
    fn random_scheduler_same_seed_same_trace() {
        let trace = |seed: u64| -> u64 {
            let mut b = SimulationBuilder::new()
                .scheduler(Box::new(crate::scheduler::RandomScheduler::new(seed)));
            for _ in 0..4 {
                b = b.add(Box::new(Gossip { got: 0 }));
            }
            let mut sim = b.build();
            sim.run(10_000);
            sim.metrics().total_sent()
        };
        assert_eq!(trace(3), trace(3));
    }
}
