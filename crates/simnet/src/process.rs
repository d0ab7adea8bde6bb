//! The process abstraction: event-driven state machines mirroring the
//! paper's `upon event` pseudocode style.

use std::any::Any;

/// Index of a process in the system (`p_i` in the paper).
pub type ProcessId = usize;

/// An event-driven process. Implementations hold all algorithm state;
/// the simulator inspects it after a run via [`Process::as_any`].
///
/// Byzantine behaviors are expressed by implementing this trait with
/// arbitrary logic — the harness guarantees (reliable delivery, sender
/// authentication) hold regardless.
pub trait Process<M>: Send {
    /// Called once before any delivery. Typically performs the initial
    /// broadcast (e.g. the value-disclosure phase of WTS).
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called on every message delivery. `from` is the **authenticated**
    /// sender id stamped by the harness.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>);

    /// Downcasting hook so harnesses can inspect concrete process state
    /// after a run (decisions, metrics, flags). Implement as `self`.
    fn as_any(&self) -> &dyn Any;

    /// Serializes this process's **durable** state for crash-recovery
    /// snapshots ([`crate::Simulation::snapshot_of`]). The default —
    /// `None` — marks the process as not snapshottable: a crash of such
    /// a process can only be recovered by rebuilding it from genesis.
    ///
    /// Implementations define their own durable/volatile split; the
    /// engine treats the bytes as opaque. The contract is only that the
    /// process's `from_snapshot`-style constructor accepts exactly what
    /// this produces.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Execution context handed to a process during an event. Collects
/// outgoing messages; the simulator assigns depths, applies the scheduler
/// and updates metrics.
pub struct Context<M> {
    /// This process's id.
    pub me: ProcessId,
    /// Total number of processes in the system.
    pub n: usize,
    pub(crate) outbox: Vec<(ProcessId, M)>,
    /// Fan-outs in `outbox`: `(start, copies)` for each run that
    /// [`Context::broadcast`] or [`Context::multicast`] filled with clones
    /// of one message, in outbox order. `Some` only in the simulator's
    /// contexts, which size such a run once; a context made by
    /// [`Context::for_embedding`] keeps no marks, so it allocates nothing
    /// for them.
    pub(crate) fanouts: Option<Vec<(usize, usize)>>,
    /// Causal depth of the event being handled (message delays elapsed on
    /// the longest chain leading to this event). Read-only for processes;
    /// algorithms record it when they decide.
    pub depth: u64,
    /// Count of deliveries processed so far at this process (a local step
    /// counter, useful for logging and adversary heuristics).
    pub local_events: u64,
}

impl<M> Context<M> {
    /// Creates a context for *embedding*: a host process that wraps an
    /// inner `Process<M2>` (e.g. an RSM replica wrapping a GWTS engine)
    /// builds an inner context with this, forwards the event, then remaps
    /// the inner outbox into its own message space. `depth` and
    /// `local_events` should be copied from the host context.
    pub fn for_embedding(me: ProcessId, n: usize, depth: u64, local_events: u64) -> Self {
        let mut ctx = Context::new(me, n);
        ctx.depth = depth;
        ctx.local_events = local_events;
        ctx
    }

    /// Drains the queued outbound messages (used by embedding hosts).
    /// Whatever the host sends next is sized message by message.
    pub fn take_outbox(&mut self) -> Vec<(ProcessId, M)> {
        self.forget_fanouts();
        std::mem::take(&mut self.outbox)
    }

    /// Drains the queued outbound messages in place, keeping the outbox's
    /// capacity: a host that keeps one inner context for all its events
    /// allocates it once.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, (ProcessId, M)> {
        self.forget_fanouts();
        self.outbox.drain(..)
    }

    fn forget_fanouts(&mut self) {
        if let Some(fanouts) = &mut self.fanouts {
            fanouts.clear();
        }
    }

    /// Marks `outbox[start..]` as copies of one message, when this
    /// context keeps marks.
    fn mark_fanout(&mut self, start: usize) {
        let copies = self.outbox.len() - start;
        if let Some(fanouts) = &mut self.fanouts {
            if copies > 1 {
                fanouts.push((start, copies));
            }
        }
    }

    pub(crate) fn new(me: ProcessId, n: usize) -> Self {
        Context {
            me,
            n,
            outbox: Vec::new(),
            fanouts: None,
            depth: 0,
            local_events: 0,
        }
    }

    /// Sends `msg` to process `to` over the (reliable, authenticated)
    /// point-to-point link.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        debug_assert!(to < self.n, "destination {to} out of range (n={})", self.n);
        self.outbox.push((to, msg));
    }

    /// Sends `msg` to every process, including `self`.
    ///
    /// Self-delivery goes through the network like any other message: the
    /// paper separates proposer and acceptor roles (possibly co-located),
    /// and its delay accounting counts the round trip even between
    /// co-located roles, so this is the faithful choice.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let start = self.outbox.len();
        for to in 0..self.n {
            self.outbox.push((to, msg.clone()));
        }
        self.mark_fanout(start);
    }

    /// Sends `msg` to every process in `targets` (used e.g. by RSM clients
    /// that contact only `f + 1` replicas).
    pub fn multicast<I: IntoIterator<Item = ProcessId>>(&mut self, targets: I, msg: M)
    where
        M: Clone,
    {
        let start = self.outbox.len();
        for to in targets {
            self.send(to, msg.clone());
        }
        self.mark_fanout(start);
    }

    /// Number of messages queued so far during this event.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_all_including_self() {
        let mut ctx: Context<u32> = Context::new(2, 5);
        ctx.broadcast(7);
        assert_eq!(ctx.outbox.len(), 5);
        assert!(ctx.outbox.iter().any(|(to, _)| *to == 2));
    }

    #[test]
    fn drained_outbox_keeps_its_capacity() {
        let mut ctx: Context<u32> = Context::new(0, 5);
        ctx.broadcast(1);
        let capacity = ctx.outbox.capacity();
        assert_eq!(ctx.drain_outbox().count(), 5);
        assert!(ctx.outbox.is_empty());
        assert_eq!(ctx.outbox.capacity(), capacity);
    }

    #[test]
    fn multicast_targets_subset() {
        let mut ctx: Context<u32> = Context::new(0, 5);
        ctx.multicast([1, 3], 9);
        assert_eq!(ctx.outbox, vec![(1, 9), (3, 9)]);
    }
}
