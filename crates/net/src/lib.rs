//! Real `std::net` TCP runtime for the BGLA protocol core.
//!
//! The paper (Di Luna, Anceaume, Querzoni, *Byzantine Generalized
//! Lattice Agreement*) assumes **reliable authenticated point-to-point
//! links**. `bgla_simnet` discharges that assumption by construction;
//! this crate discharges it over real sockets, by *masking* the faults
//! a TCP deployment actually exhibits. The four algorithms run
//! unchanged — one protocol core, two runtimes, both behind
//! [`bgla_simnet::Transport`] — and every protocol message crosses the
//! wire through `bgla_codec`'s real framing, turning the simulator's
//! *modeled* byte counts into *measured* bytes
//! ([`bgla_simnet::Metrics::net_frame_bytes`]).
//!
//! # Architecture: event-driven, fixed thread budget
//!
//! The runtime is event-driven. A [`poller::PollerPool`] of
//! `min(4, cores)` threads owns **every socket** of a
//! runtime — listeners, inbound connections, outbound links — and
//! drives the per-link state machines as poll-driven steps over
//! nonblocking sockets, using an in-repo `poll(2)`-style readiness
//! sweep (no `epoll` binding: the workspace denies `unsafe`). Each
//! node contributes exactly one **event thread**, the only thread that
//! touches its protocol state.
//!
//! **Thread budget for an n-node runtime: pool (≤ 4) + n event
//! threads**, asserted by `tests/thread_budget.rs`.
//!
//! Two scheduling decisions follow from the pooled design:
//!
//! * **Ack batching** — the receive side acknowledges once per
//!   readiness wakeup with the cumulative next-expected sequence and
//!   its gap report, covering every DATA frame the wakeup drained,
//!   instead of one ACK frame per DATA frame. Cumulative acks make the
//!   coarser cadence free: any ack repairs all predecessors.
//! * **One timer queue** — every retransmit and redial timer of the
//!   runtime lives in a single deadline-ordered queue (`timers.rs`)
//!   with µs deadlines, looked at during pool sweeps and at least once
//!   per 1 ms idle beat. [`link::SenderLink`] owns the round-trip
//!   estimate and the timeout arithmetic; the queue only decides *when
//!   someone looks* — and a deadline that moves earlier (the estimate
//!   shrank, the window has a new front) is honoured, not just one
//!   that moves later.
//!
//! # The reliability contract
//!
//! **Masked** (invisible to the protocol, beyond latency):
//!
//! * **Frame loss** — per-peer sequence numbers; the sender keeps
//!   every unacknowledged frame (one encoded copy, shared with the
//!   write queue) and resends on evidence or on a measured clock,
//!   never on a constant ([`link::SenderLink`]). Every ACK reports the
//!   receiver's hole `[cum, held)`, which is resent exactly and at
//!   once: a loss followed by any other frame costs about two round
//!   trips. A loss nothing follows waits for the one timer, `SRTT +
//!   4·RTTVAR` past the oldest unacked frame's last send (Jacobson/
//!   Karels, first sample from the HELLO handshake, Karn's rule
//!   widened to whole acknowledged runs), which sends that one frame
//!   as a probe, again every timeout until an ACK answers. A link's
//!   first flight, before any ACK has come back, is timed at the
//!   timeout's ceiling: a fault-free start-up resends nothing.
//! * **Duplication** — injected duplicates and the rare probe that
//!   was not needed are discarded by receive-side dedup; every
//!   DATA-bearing wakeup is acknowledged, duplicates included, so a
//!   probe always learns what is missing ([`link::ReceiverLink`]).
//! * **Reordering / delay** — out-of-order frames are stashed and
//!   delivered in sequence (per link; cross-link order is unordered
//!   exactly as in the asynchronous model).
//! * **Connection resets, including mid-frame** — torn frames fail
//!   the checksum, the connection dies, the dialer reconnects with
//!   backoff and *resyncs*: a HELLO exchange tells it what the peer
//!   has, and the whole unseen tail goes back on the wire with the
//!   reply, not a burst now and the rest by timer.
//! * **Partitions that heal** — while a link is cut, traffic queues
//!   in the bounded unacked window; when it heals, retransmission and
//!   resync drain the backlog. Decisions already reached elsewhere
//!   propagate as soon as connectivity returns (graceful resumption).
//!
//! **Surfaced** (reported, not hidden — the contract's honest edge):
//!
//! * **Peer down past the bounded outbox horizon** — a sender buffers
//!   at most [`link::LinkConfig::max_unacked`] messages per peer;
//!   beyond that, new messages to the dead peer are dropped and
//!   counted ([`bgla_simnet::Metrics::net_outbox_dropped`]). This is
//!   deliberate: unbounded buffering would just trade a visible fault
//!   for an invisible OOM. The protocol layer tolerates it exactly as
//!   far as its `f`-resilience allows, which is the paper's own story
//!   for crashed processes.
//! * **Process crash** — this crate does not restart processes; the
//!   durable-snapshot machinery (PR 7) exists for that and composes at
//!   the layer above.
//!
//! # Quiescence
//!
//! "The system is done" is confirmed by a generation-stamped counter
//! protocol ([`counters::SharedCounters::confirm_quiescent`]): enqueue
//! *intents* and *retirements* are counted separately, and quiescence
//! is two balanced reads bracketing an unchanged generation — sound
//! with no sleep anywhere: a dispatcher that is slow to deliver cannot
//! fool it (see `counters` for the regression test).
//!
//! # Determinism
//!
//! Real sockets and threads are not deterministic; the *fault
//! schedule* is. [`fault::FaultPlan`] decides each frame's fate by a
//! pure hash of `(seed, link, frame index)` — see [`fault`] for what
//! that does and does not pin down. The pure state machines in
//! [`link`] are fully deterministic and unit-tested with exact
//! counter pins and a virtual-clock lossy pipe driven by the fault
//! plan's own verdicts; whole-system tests assert masking *invariants*
//! (everyone decides; traces pass the conformance checker; counters
//! non-zero) rather than byte-identical schedules.
//!
//! This crate is intentionally **not** in `bgla-lint`'s
//! trace-affecting set: it performs real I/O and reads real clocks by
//! design. Its decode surfaces (`frame::demux_frame` and the
//! `Wire::decode` impls) are held to the same hostile-input standard
//! as the rest of the workspace by the `byzantine-panic` and
//! `frame-demux-coverage` passes, and the poller module is held to
//! its nonblocking discipline by the `poller-nonblocking` pass.

#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod fault;
pub mod frame;
pub mod link;
pub mod node;
pub mod poller;
pub mod runtime;
pub(crate) mod timers;
pub mod trace_merge;

pub use config::NetConfig;
pub use counters::SharedCounters;
pub use fault::{FaultAction, FaultConfig, FaultPlan};
pub use frame::{demux_frame, Ack, Data, Hello, NetFrame, FK_ACK, FK_DATA, FK_HELLO};
pub use link::{Frame, LinkConfig, ReceiverLink, SenderLink};
pub use node::{NodeSpec, TcpNode};
pub use poller::PollerPool;
pub use runtime::{TcpRuntime, TcpRuntimeBuilder};
pub use trace_merge::{merge_traces, LocalDelivery, LocalOp, NodeLog};
