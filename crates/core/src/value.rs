//! The opaque *value* type the agreement algorithms operate on.
//!
//! WLOG (paper §3.1) the lattice is a lattice of sets of values under
//! union; algorithm messages carry sets of `V` and decisions are such
//! sets — physically a [`crate::valueset::ValueSet`] (O(1)-clone shared
//! sorted vector). Applications choose `V` (commands for the RSM,
//! integers in the examples).

use bgla_codec::{var_len, Wire};
use bgla_crypto::ToBytes;

/// A proposable value. `Ord` keeps all collections deterministic,
/// `wire_size` feeds the byte-complexity experiments, and the
/// [`Wire`] bound gives every value a real binary encoding — which is
/// what lets process state containing values be snapshotted durably
/// (crash recovery) and, eventually, shipped over a real transport.
pub trait Value: Clone + Ord + std::fmt::Debug + Send + Sync + 'static + Wire {
    /// Length of the value's [`Wire`] encoding in bytes. The default is
    /// that of an opaque 64-bit word.
    fn wire_size(&self) -> usize {
        8
    }
}

impl Value for u64 {}
impl Value for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}
impl Value for String {
    fn wire_size(&self) -> usize {
        var_len(self.len() as u64) + self.len()
    }
}
impl<A: Value, B: Value> Value for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

/// Values usable with the signature-based algorithms: they additionally
/// need a canonical byte encoding to sign.
pub trait SignableValue: Value + ToBytes {}
impl<T: Value + ToBytes> SignableValue for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valueset::ValueSet;

    #[test]
    fn wire_sizes() {
        assert_eq!(7u64.wire_size(), 8);
        assert_eq!("abc".to_string().wire_size(), 1 + 3);
        assert_eq!("x".repeat(128).wire_size(), 2 + 128);
        let set: ValueSet<u64> = [1, 2, 3].into_iter().collect();
        assert_eq!(set.wire_size(), 1 + 24);
    }
}
