//! Deterministic discrete-event simulator for asynchronous message-passing
//! distributed algorithms with Byzantine participants.
//!
//! # Model
//!
//! This crate implements exactly the system model of Di Luna et al. (2019),
//! Section 3:
//!
//! * a fixed set of `n` processes `p_0 … p_{n-1}`,
//! * **reliable** point-to-point links: messages are never lost,
//! * **asynchronous** delivery: delays are unbounded and chosen by a
//!   pluggable [`Scheduler`] (the network adversary),
//!
//! # Engine shape
//!
//! In-flight envelopes are held in a slab (free-list arena) addressed by
//! stable [`EnvelopeId`]s, and schedulers are *incremental*: they are
//! notified of every send and delivery through [`Scheduler::on_send`] /
//! [`Scheduler::on_delivered`] and keep their own indexes, so one
//! delivery step costs O(log n) at worst — never a scan, shift, or
//! allocation proportional to the in-flight population. See the
//! [`scheduler`] module docs for the exact hook contract and the
//! fairness obligation custom schedulers must uphold.
//! * **authenticated** channels: the harness stamps the true sender id on
//!   every delivery, so a Byzantine process can lie about *content* but not
//!   about *identity* — precisely the "minimal assumption of authenticated
//!   channels" the paper builds on,
//! * a complete communication graph.
//!
//! Byzantine processes are ordinary [`Process`] implementations that simply
//! do arbitrary things; they cannot subvert the harness guarantees above.
//!
//! # Measuring "message delays"
//!
//! Theorems 3 and 8 of the paper bound decision latency in *message delays*
//! — the length of the longest causal chain of messages, the standard
//! asynchronous time measure. Wall-clock time cannot measure this; a
//! simulator can, exactly. Every envelope carries a causal depth:
//! a message sent while handling a delivery of depth `d` (or at start-up,
//! `d = 0`) has depth `d + 1`, and a process's clock is the max depth over
//! everything it has observed. See [`sim::Simulation`].
//!
//! # Metrics
//!
//! Per-process, per-kind message and byte counters ([`metrics::Metrics`])
//! regenerate the message-complexity claims (Sections 5.1.3, 6.4, 8.1).
#![warn(missing_docs)]

pub mod metrics;
pub mod process;
pub mod scheduler;
pub mod sim;
pub mod trace;
pub mod transport;

pub use metrics::{Metrics, ProofSizes, WireMessage, PROOF_REF_BYTES};
pub use process::{Context, Process, ProcessId};
pub use scheduler::{
    DelayScheduler, EnvelopeId, FifoScheduler, InFlight, LifoScheduler, PartitionScheduler,
    RandomScheduler, RecordingScheduler, ReplayScheduler, Scheduler, SearchScheduler,
    TargetedScheduler,
};
pub use sim::{RunOutcome, Simulation, SimulationBuilder};
pub use trace::{OpEvent, Trace, TraceEntry, TraceEvent};
pub use transport::{NodeObserver, Transport};
