//! Byzantine-tolerant Replicated State Machine with commutative updates
//! (Section 7 of Di Luna, Anceaume, Querzoni, 2019).
//!
//! The construction applies Generalized Lattice Agreement to the power
//! set of update commands: replicas run GWTS over commands; an `update`
//! submits a command to `f + 1` replicas and completes once `f + 1`
//! distinct replicas name it back as committed, each once a decision of
//! its own holds it (the command, not the decided set: see "What an
//! update is told" in [`replica`]); a `read` is an update of a unique
//! `nop`, answered with the decided sets that hold it, followed by a
//! *confirmation* round proving the returned set was really decided
//! (Algorithms 5–7).
//!
//! Guarantees (Theorem 6): liveness, read validity, read consistency,
//! read monotonicity, update stability, update visibility — all
//! wait-free and linearizable for commutative updates, with up to
//! `f ≤ (n−1)/3` Byzantine replicas and **any number of Byzantine
//! clients** (Lemma 12).
//!
//! * [`cmd`] — the command algebra (unique, tagged commands; `nop`s).
//! * [`replica`] — GWTS replica + client interface + confirmation
//!   plug-in.
//! * [`client`] — honest clients ([`client::WorkloadClient`]) and
//!   Byzantine ones.
//! * [`checks`] — executable versions of the six RSM properties.
//! * [`state`] — commutative state machines (counter, set registry)
//!   folding decided command sets into application state.
#![warn(missing_docs)]
// Thresholds are written exactly as in the paper (`f + 1`, `2f + 1`,
// `⌊(n+f)/2⌋ + 1`); clippy's `x > y` rewrite would obscure the quorum math.
#![allow(clippy::int_plus_one)]

pub mod checks;
pub mod client;
pub mod cmd;
pub mod replica;
pub mod state;

pub use client::{ClientOp, WorkloadClient};
pub use cmd::{Cmd, Op};
pub use replica::{Replica, RsmMsg};
pub use state::CounterState;
