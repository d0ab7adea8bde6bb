//! # bgla — Byzantine Generalized Lattice Agreement
//!
//! A full reproduction of *"Byzantine Generalized Lattice Agreement"*
//! (Di Luna, Anceaume, Querzoni, 2019): the WTS, GWTS, SbS and GSbS
//! agreement algorithms, a Byzantine-tolerant replicated state machine
//! with commutative updates built on top, and every substrate they need
//! (deterministic asynchronous network simulator, Bracha reliable
//! broadcast, from-scratch Ed25519).
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! * [`crypto`] — SHA-512 / Ed25519 / PKI.
//! * [`simnet`] — the asynchronous message-passing simulator.
//! * [`rbcast`] — Byzantine reliable broadcast.
//! * [`core`] — the agreement algorithms + spec checkers + adversaries.
//! * [`rsm`] — the replicated state machine of Section 7.
//! * [`codec`] — the durable wire codec (frames, checksums).
//! * [`net`] — the real TCP runtime with fault-masking reliable links.
//!
//! ## Quickstart
//!
//! ```
//! use bgla::core::{wts::WtsProcess, SystemConfig};
//! use bgla::simnet::SimulationBuilder;
//!
//! // Four processes, one of which may be Byzantine (here all honest),
//! // agree on comparable subsets of their proposals.
//! let config = SystemConfig::new(4, 1);
//! let mut b = SimulationBuilder::new();
//! for i in 0..4 {
//!     b = b.add(Box::new(WtsProcess::new(i, config, 100 + i as u64)));
//! }
//! let mut sim = b.build();
//! let outcome = sim.run(1_000_000);
//! assert!(outcome.quiescent);
//! for i in 0..4 {
//!     let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
//!     let decision = p.decision.as_ref().expect("every correct process decides");
//!     assert!(decision.contains(&(100 + i as u64))); // inclusivity
//! }
//! ```

pub use bgla_codec as codec;
pub use bgla_core as core;
pub use bgla_crypto as crypto;
pub use bgla_net as net;
pub use bgla_rbcast as rbcast;
pub use bgla_rsm as rsm;
pub use bgla_simnet as simnet;
