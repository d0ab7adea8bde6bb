//! Cross-node run coordination: the quiescence counters, start
//! barrier, delivery count, and the go/stop latches.
//!
//! # Generation-stamped quiescence
//!
//! A time heuristic — read `pending == 0`, sleep, read it again — is
//! unsound: a dispatcher whose enqueue straddles that beat (intent
//! formed before the first read, counter bumped after the second)
//! lets the runtime declare quiescence early. Quiescence is instead
//! confirmed by a generation-stamped counter pair with **no sleep in
//! the protocol**:
//!
//! * `generation` counts enqueue *intents*: a sender bumps it on every
//!   enqueue, **before** the message becomes visible anywhere else
//!   (before the `pending` increment, before any socket or channel).
//! * `retired` counts completions: bumped only after a message has
//!   been fully processed (or surfaced as undeliverable), **after**
//!   every outgoing copy it caused has had its own intent stamped.
//!
//! "Pending is zero" means `generation == retired`. Quiescence
//! requires two such reads with an unchanged generation
//! ([`SharedCounters::confirm_quiescent`]); because a completion can
//! only follow its own intent, `retired <= generation` always holds,
//! and a matching read pair proves that at the instant of the second
//! read nothing was buffered, in flight, or mid-dispatch — a slow
//! dispatcher is caught by its early intent stamp, not by hoping its
//! counter update lands inside a 2 ms window. The signed `pending`
//! gauge is kept for observability and for multi-process deployments
//! that only watch the balance.
//!
//! The start barrier: no zero may be trusted before every node has
//! registered its initial sends (`started == n`).

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Cross-node run coordination: the quiescence counters, start
/// barrier, delivery count, and the go/stop latches. One instance is
/// shared by every node of an in-process runtime; a multi-process
/// deployment gives each process its own (and coordinates by other
/// means).
#[derive(Debug, Default)]
pub struct SharedCounters {
    /// Protocol messages enqueued but not yet fully processed (the
    /// observable gauge: `generation - retired`).
    pub pending: AtomicI64,
    /// Enqueue intents, stamped before a message is visible anywhere.
    pub generation: AtomicU64,
    /// Fully processed (or surfaced-as-dropped) messages.
    pub retired: AtomicU64,
    /// Nodes whose initial sends are registered in `pending`.
    pub started: AtomicUsize,
    /// Total deliveries processed across all nodes.
    pub delivered: AtomicU64,
    /// Release latch: event threads hold `on_start` until this is set.
    pub go: AtomicBool,
    /// Shutdown latch: all threads drain and exit when set.
    pub stop: AtomicBool,
}

impl SharedCounters {
    /// Stamps one enqueue intent and raises the pending gauge. Call
    /// **before** the message is handed to any channel or socket.
    pub fn note_enqueue(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Retires one message: fully processed, surfaced as an overflow
    /// drop, or undeliverable. Call **after** any outgoing copies the
    /// message caused have had their own intents stamped — that order
    /// is the quiescence soundness argument.
    pub fn note_retired(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
        self.retired.fetch_add(1, Ordering::SeqCst);
    }

    /// Confirms quiescence: the start barrier is full and two reads of
    /// "pending is zero" (`generation == retired`) bracket an
    /// unchanged generation. Sound without any sleep: `retired` never
    /// exceeds `generation`, so if the generation did not move between
    /// the reads and both balanced, nothing was mid-dispatch either
    /// time.
    pub fn confirm_quiescent(&self, n_nodes: usize) -> bool {
        if self.started.load(Ordering::SeqCst) != n_nodes {
            return false;
        }
        // First read of "pending == 0", stamping the generation.
        let retired1 = self.retired.load(Ordering::SeqCst);
        let gen1 = self.generation.load(Ordering::SeqCst);
        if retired1 != gen1 {
            return false;
        }
        // Second read: still balanced, generation unchanged.
        let retired2 = self.retired.load(Ordering::SeqCst);
        let gen2 = self.generation.load(Ordering::SeqCst);
        gen2 == gen1 && retired2 == gen2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// The time heuristic the module docs rule out: `pending == 0`, a
    /// 2 ms beat, `pending == 0` again.
    fn legacy_beat_confirms(shared: &SharedCounters) -> bool {
        if shared.pending.load(Ordering::SeqCst) != 0 {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
        shared.pending.load(Ordering::SeqCst) == 0
    }

    #[test]
    fn slow_dispatcher_fools_the_time_beat_but_not_the_generation() {
        let shared = Arc::new(SharedCounters::default());
        // A dispatcher mid-enqueue: the intent is stamped now, but the
        // artificially slow dispatcher parks the pending increment far
        // past the 2 ms beat.
        shared.generation.fetch_add(1, Ordering::SeqCst);
        let s2 = shared.clone();
        let dispatcher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            s2.pending.fetch_add(1, Ordering::SeqCst);
        });
        // The time heuristic declares quiescence — wrongly: a message
        // is being dispatched right now.
        assert!(
            legacy_beat_confirms(&shared),
            "the 2 ms beat must be fooled by the slow dispatcher"
        );
        // The generation protocol sees intents != retirements and
        // refuses, no matter how slow the dispatcher is.
        assert!(!shared.confirm_quiescent(0));
        dispatcher.join().unwrap();
        assert!(!shared.confirm_quiescent(0), "still in flight");
        // The dispatch completes and is processed: now both agree.
        shared.note_retired();
        assert!(shared.confirm_quiescent(0));
    }

    #[test]
    fn enqueue_retire_balance_and_start_barrier() {
        let shared = SharedCounters::default();
        assert!(!shared.confirm_quiescent(1), "barrier empty: no trust");
        shared.started.fetch_add(1, Ordering::SeqCst);
        assert!(shared.confirm_quiescent(1));
        shared.note_enqueue();
        assert_eq!(shared.pending.load(Ordering::SeqCst), 1);
        assert!(!shared.confirm_quiescent(1));
        shared.note_enqueue();
        shared.note_retired();
        shared.note_retired();
        assert_eq!(shared.pending.load(Ordering::SeqCst), 0);
        assert!(shared.confirm_quiescent(1));
    }
}
