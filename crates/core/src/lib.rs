//! Byzantine (Generalized) Lattice Agreement — the algorithms of
//! Di Luna, Anceaume, Querzoni (2019).
//!
//! * [`wts`] — **Wait Till Safe** (Algorithms 1–2): one-shot Byzantine
//!   Lattice Agreement, optimal resilience `f ≤ (n−1)/3`, decision within
//!   `2f + 5` message delays, `O(n²)` messages per process.
//! * [`gwts`] — **Generalized WTS** (Algorithms 3–4): round-based
//!   agreement over infinite input streams; `O(f·n²)` messages per
//!   decision.
//! * [`sbs`] — **Safety by Signature** (Algorithms 8–10): one-shot LA
//!   with signatures, `O(n)` messages per proposer when `f = O(1)`,
//!   `5 + 4f` message delays.
//! * [`gsbs`] — the generalized signature-based variant sketched in
//!   Section 8.2, made concrete.
//! * [`spec`] — executable specification checkers for every property in
//!   the paper (Comparability, Inclusivity, Non-Triviality, Stability,
//!   Liveness, and their generalized forms).
//! * [`linearize`] — trace-level conformance: replays a recorded full
//!   history (deliveries + harness-observed propose/refine/decide ops)
//!   and verifies the safety battery at *every prefix*, producing a
//!   linearization witness against the sequential join object or a
//!   minimal violating prefix.
//! * [`search`] — adversarial schedule search: sweeps
//!   [`bgla_simnet::SearchScheduler`] seeds through the trace checker
//!   and shrinks any violation to a minimal, replayable
//!   counterexample schedule.
//! * [`adversary`] — a library of Byzantine behaviors aimed at each proof
//!   obligation.
//! * [`harness`] — scenario builders shared by tests, examples, and the
//!   benchmark suite.
//!
//! The algorithms are written against the paper's canonical semilattice:
//! sets of opaque *values* under union (every join semilattice embeds into
//! one of these — Section 3.1 of the paper). A decision is therefore
//! *logically* a set of values; physically it is a [`valueset::ValueSet`]
//! — an `Arc`-backed sorted vector with `O(1)` clone, copy-on-write
//! insert and `O(k + m)` merge-walk join/subset — because the algorithms
//! clone and join these sets on every send, receive and re-delivery, and
//! a node-per-element `BTreeSet` made the hot path `O(n² · |set|)`
//! allocations. Applications map decisions into their own lattice by
//! joining per-value contributions (see `bgla-rsm` for the RSM doing
//! exactly that).
//!
//! Proposal traffic additionally uses **delta messages**
//! ([`valueset::SetUpdate`]): once an acceptor has acked/nacked a
//! proposer's set, later `ack_req` rounds carry only the values added
//! since that reply, with a full-set fallback on first contact or a
//! detected gap. See [`valueset`] for the wire format.
//!
//! The signature algorithms ship their *signed-record* sets (safe_req
//! echoes, proven proposal/accepted sets) as the same
//! [`valueset::ValueSet`], over their own [`valueset::SetItem`]s, and
//! their proofs of safety as [`proof::Proof`] handles whose content
//! address ([`bgla_crypto::ProofId`]) is interned at construction. Each
//! distinct proof is then **verified once per process**: `AllSafe`
//! skips the signature checks of a proof the per-process
//! [`bgla_crypto::ProofResolver`] holds as verified, so redelivered or
//! re-shipped proofs cost a hash lookup plus pure comparisons. The
//! signed records a proposer waits for a threshold of — inits, safe-acks, acks — are **verified at
//! quorum**: held unverified until a threshold's worth has arrived, then
//! checked in one batch ([`held`]).
//!
//! Each distinct proof is also **transmitted once per peer**: the
//! proof-carrying payloads (`AckReq.proposed`, `Nack.accepted`) travel
//! as [`provendelta::ProvenUpdate`]s — the same delta ledger over the
//! proven set, each distinct proof said once per payload and the
//! records indexing it, with proofs the receiver demonstrably
//! holds named by [`bgla_crypto::ProofId`] reference and reconstructed
//! through a per-process [`bgla_crypto::ProofResolver`]. Unresolvable
//! proposals fall back to `Full` via a resync round trip (only Byzantine
//! senders trigger it).
//! Within a proof, the request set its safe-acks echo travels once, and
//! a safe-ack reply carries no echo at all: the proposer reads it as
//! signed over its own request ([`proof::Proof`]'s codec form).
#![warn(missing_docs)]
// Thresholds are written exactly as in the paper (`f + 1`, `2f + 1`,
// `⌊(n+f)/2⌋ + 1`); clippy's `x > y` rewrite would obscure the quorum math.
#![allow(clippy::int_plus_one)]

pub mod adversary;
pub mod config;
pub mod gsbs;
pub mod gwts;
pub mod harness;
pub mod held;
pub mod linearize;
pub mod proof;
pub mod provendelta;
pub mod recovery;
pub mod safetying;
pub mod sbs;
pub mod search;
pub mod spec;
pub mod value;
pub mod valueset;
pub mod wts;

pub use config::SystemConfig;
pub use proof::{Proof, ProofAck};
pub use provendelta::{Proven, ProvenUpdate};
pub use recovery::{
    CorruptingStore, CrashEvent, CrashPlan, CrashTactic, DirStore, MemStore, RecoveryRun,
    RollbackStore, SnapshotPolicy, SnapshotStore,
};
pub use value::Value;
pub use valueset::{SetItem, SetUpdate, ValueSet};
