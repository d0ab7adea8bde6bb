//! The measurement hook: one thin [`Process`] wrapper that times ops and,
//! when tracing, records a span per handler call — from outside, with no
//! edit inside any library crate. It runs unchanged under `Simulation`
//! and `TcpRuntime`.
//!
//! After each forwarded call the wrapper compares two O(1) counters of the
//! wrapped process's public state ([`Probe::counts`]); only when one moved
//! does it read the clock and match ops. `as_any` returns the *inner*
//! process, so harness observers, reports and downcasts keep working — which
//! also means nobody can reach the wrapper after the run, so it hands its
//! records to a shared [`Sink`] when it is dropped with the system.
//!
//! `on_message` is a `byzantine-panic` entry point for `bgla-lint`: nothing
//! reachable from it may unwrap, index or assert.

use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the wrapper reads from the wrapped process. Implementations look
/// only at public state, so they keep compiling when internals move.
pub trait Probe<P>: Send + 'static {
    /// `(ops submitted so far, completion progress)`; both O(1). Progress
    /// is any counter that moves whenever submitted ops may have completed.
    fn counts(&self, p: &P) -> (usize, usize);
    /// Appends the keys of the ops at submit positions `from..`.
    fn submitted_keys(&self, p: &P, from: usize, out: &mut Vec<u64>);
    /// Whether the op `key` has completed.
    fn is_done(&self, p: &P, key: u64) -> bool;
    /// A size worth watching for growth, sampled per call when tracing.
    fn gauge(&self, _p: &P) -> u64 {
        0
    }
}

/// A message that may name the protocol round it belongs to, so spans of
/// one round can be grouped.
pub trait Rounded {
    /// The round the message carries, if any.
    fn round_of(&self) -> Option<u64>;
}

/// One completed op. Times are nanoseconds since the trial's epoch, taken
/// at the end of the handler call in which the change was seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRec {
    /// The op's key: the input value, or a client's op index.
    pub key: u64,
    /// When it entered the system.
    pub submit_ns: u64,
    /// When its proposer (or client) first saw it complete.
    pub done_ns: u64,
    /// Causal depth (message delays) at submit.
    pub submit_depth: u64,
    /// Causal depth at completion.
    pub done_depth: u64,
}

/// One handler call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The delivered message's `kind()`, or `"on_start"`.
    pub kind: &'static str,
    /// Start, nanoseconds since the trial's epoch.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// The causing delivery: its authenticated sender (self for start-up).
    pub from: ProcessId,
    /// The causing delivery's causal depth at this node.
    pub depth: u64,
    /// The round the message named, if it named one.
    pub round: Option<u64>,
}

/// Everything one wrapper recorded.
pub struct NodeRec<M> {
    /// The wrapped process's id.
    pub node: ProcessId,
    /// Completed ops in completion order.
    pub ops: Vec<OpRec>,
    /// Ops submitted but never seen complete.
    pub unfinished: usize,
    /// Handler spans (tracing only).
    pub spans: Vec<Span>,
    /// A sample of the delivered messages (tracing only).
    pub corpus: Vec<M>,
    /// Largest [`Probe::gauge`] seen (tracing only).
    pub gauge_max: u64,
}

impl<M> NodeRec<M> {
    fn empty(node: ProcessId) -> Self {
        NodeRec {
            node,
            ops: Vec::new(),
            unfinished: 0,
            spans: Vec::new(),
            corpus: Vec::new(),
            gauge_max: 0,
        }
    }
}

/// Where wrappers leave their records when the system is dropped.
pub type Sink<M> = Arc<Mutex<Vec<NodeRec<M>>>>;

/// Every `CORPUS_STRIDE`-th delivery at a node is cloned into its corpus,
/// up to `CORPUS_CAP` messages: enough for the codec kernels to see the
/// run's real size mix without holding every set alive.
const CORPUS_STRIDE: u64 = 16;
const CORPUS_CAP: usize = 4096;

struct Pending {
    key: u64,
    submit_ns: u64,
    submit_depth: u64,
}

/// The wrapper. See the module docs.
pub struct Observed<M, P, B> {
    inner: P,
    probe: B,
    node: ProcessId,
    epoch: Instant,
    traced: bool,
    submitted_seen: usize,
    progress_seen: usize,
    calls: u64,
    pending: Vec<Pending>,
    scratch: Vec<u64>,
    rec: NodeRec<M>,
    sink: Sink<M>,
    _msg: PhantomData<fn(M)>,
}

impl<M, P, B: Probe<P>> Observed<M, P, B> {
    /// Wraps `inner` as process `node`. Times are relative to `epoch`.
    pub fn new(
        node: ProcessId,
        inner: P,
        probe: B,
        epoch: Instant,
        traced: bool,
        sink: &Sink<M>,
    ) -> Self {
        Observed {
            inner,
            probe,
            node,
            epoch,
            traced,
            submitted_seen: 0,
            progress_seen: 0,
            calls: 0,
            pending: Vec::new(),
            scratch: Vec::new(),
            rec: NodeRec::empty(node),
            sink: Arc::clone(sink),
            _msg: PhantomData,
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The cheap check after every forwarded call, and the op matching
    /// behind it when a counter moved.
    fn after_call(&mut self, depth: u64) {
        let (submitted, progress) = self.probe.counts(&self.inner);
        if submitted == self.submitted_seen && progress == self.progress_seen {
            return;
        }
        let now = self.since_epoch(Instant::now());
        if submitted > self.submitted_seen {
            self.scratch.clear();
            self.probe
                .submitted_keys(&self.inner, self.submitted_seen, &mut self.scratch);
            for &key in &self.scratch {
                self.pending.push(Pending {
                    key,
                    submit_ns: now,
                    submit_depth: depth,
                });
            }
        }
        self.submitted_seen = submitted;
        if progress != self.progress_seen {
            self.progress_seen = progress;
            let (probe, inner, ops) = (&self.probe, &self.inner, &mut self.rec.ops);
            self.pending.retain(|p| {
                let done = probe.is_done(inner, p.key);
                if done {
                    ops.push(OpRec {
                        key: p.key,
                        submit_ns: p.submit_ns,
                        done_ns: now,
                        submit_depth: p.submit_depth,
                        done_depth: depth,
                    });
                }
                !done
            });
        }
    }

    fn close_span(
        &mut self,
        kind: &'static str,
        t0: Instant,
        from: ProcessId,
        depth: u64,
        round: Option<u64>,
    ) {
        let span = Span {
            kind,
            start_ns: self.since_epoch(t0),
            end_ns: self.since_epoch(Instant::now()),
            from,
            depth,
            round,
        };
        self.rec.spans.push(span);
        self.rec.gauge_max = self.rec.gauge_max.max(self.probe.gauge(&self.inner));
    }
}

impl<M, P, B> Process<M> for Observed<M, P, B>
where
    M: WireMessage + Rounded + 'static,
    P: Process<M> + 'static,
    B: Probe<P>,
{
    fn on_start(&mut self, ctx: &mut Context<M>) {
        let t0 = self.traced.then(Instant::now);
        self.inner.on_start(ctx);
        if let Some(t0) = t0 {
            self.close_span("on_start", t0, self.node, ctx.depth, None);
        }
        self.after_call(ctx.depth);
    }

    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>) {
        let Some(t0) = self.traced.then(Instant::now) else {
            self.inner.on_message(from, msg, ctx);
            self.after_call(ctx.depth);
            return;
        };
        let (kind, round) = (msg.kind(), msg.round_of());
        if self.calls.is_multiple_of(CORPUS_STRIDE) && self.rec.corpus.len() < CORPUS_CAP {
            self.rec.corpus.push(msg.clone());
        }
        self.calls += 1;
        self.inner.on_message(from, msg, ctx);
        self.close_span(kind, t0, from, ctx.depth, round);
        self.after_call(ctx.depth);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }
}

impl<M, P, B> Drop for Observed<M, P, B> {
    fn drop(&mut self) {
        self.rec.unfinished = self.pending.len();
        let rec = std::mem::replace(&mut self.rec, NodeRec::empty(self.node));
        // A poisoned sink means a node thread panicked; the trial is
        // already lost, and Drop must not panic on top of it.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(rec);
        }
    }
}

/// Drops `system` (flushing every wrapper into `sink`) and returns the
/// records ordered by node.
pub fn collect<S, M>(system: S, sink: &Sink<M>) -> Vec<NodeRec<M>> {
    drop(system);
    let mut recs = sink
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default();
    recs.sort_by_key(|r| r.node);
    recs
}

/// Self time of a parent span given the spans it contains: its duration
/// minus the part of it the children cover (overlapping children are
/// counted once). Children are clipped to the parent.
pub fn self_time_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = p0;
    for &(c0, c1) in children.iter() {
        let (c0, c1) = (c0.max(cursor), c1.min(p1));
        if c1 > c0 {
            covered += c1 - c0;
            cursor = c1;
        }
    }
    (p1.saturating_sub(p0)).saturating_sub(covered)
}
