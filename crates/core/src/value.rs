//! The opaque *value* type the agreement algorithms operate on.
//!
//! WLOG (paper §3.1) the lattice is a lattice of sets of values under
//! union; algorithm messages carry sets of `V` and decisions are such
//! sets — physically a [`crate::valueset::ValueSet`] (O(1)-clone shared
//! sorted vector). Applications choose `V` (commands for the RSM,
//! integers in the examples).

use bgla_codec::Wire;

/// A proposable value. `Ord` keeps all collections deterministic, and
/// the [`Wire`] bound gives every value a real binary encoding — what
/// lets process state containing values be snapshotted durably (crash
/// recovery), shipped over a real transport, and metered by its encoded
/// length ([`Wire::wire_size`]).
pub trait Value: Clone + Ord + std::fmt::Debug + Send + Sync + 'static + Wire {}

impl Value for u64 {}
impl Value for u32 {}
impl Value for String {}
impl<A: Value, B: Value> Value for (A, B) {}
