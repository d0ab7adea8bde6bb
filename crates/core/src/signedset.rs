//! `SignedSet` — the shared-ownership set representation for *signed
//! record* payloads (signed values, signed batches, proven values),
//! mirroring [`crate::valueset::ValueSet`].
//!
//! PR 1 moved plain value sets off `BTreeSet`, but the signature
//! algorithms still shipped their `safe_req` echoes and proven
//! proposal/accepted sets as `BTreeSet`s: every broadcast, ack echo and
//! redelivery paid a node-per-element deep clone, and set growth was
//! re-walked from scratch. `SignedSet` is the same Arc-backed sorted
//! `Vec` design, generic over any [`SignedItem`]:
//!
//! * **clone is `O(1)`** — echoing a `safe_req` set back inside a
//!   `safe_ack`, or broadcasting a proven proposal to `n` acceptors,
//!   costs refcounts, not tree copies;
//! * **join is `O(k + m)`** by merge-walk with fast paths for shared
//!   allocations, empty sides and already-contained peers (redelivered
//!   subsets are recognized *structurally* and join as a no-op; an
//!   empty side adopts the peer's allocation);
//! * **equality has an `Arc::ptr_eq` fast path** — the
//!   `ack.rcvd == safe_req` echo check is `O(1)` in the common case
//!   where the echo still shares the proposer's allocation;
//! * **`wire_size` is cached** at construction.
//!
//! On join, equal elements keep `self`'s representative — exactly
//! `BTreeSet`'s insert-does-not-replace semantics. For proven values
//! (whose ordering ignores the attached proof) this preserves *proof
//! identity* across joins: an element's proof handle — and therefore its
//! interned [`bgla_crypto::ProofId`] and its verification-cache hits —
//! survives any number of merges.

use bgla_codec::{var_len, CodecError, Reader, Wire, Writer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Element of a [`SignedSet`]: any ordered, cloneable record with a
/// modeled wire size (the set caches the sum).
pub trait SignedItem: Clone + Ord + std::fmt::Debug + Send + Sync + 'static {
    /// Modeled serialized size of this element in bytes.
    fn wire_size(&self) -> usize;
}

/// An immutable-by-sharing sorted set of signed records with `O(1)`
/// clone. Mutating operations are copy-on-write.
pub struct SignedSet<T: SignedItem> {
    /// Strictly-sorted, deduplicated elements.
    items: Arc<Vec<T>>,
    /// Cached `Σ wire_size(item)` (excludes the length prefix).
    // bgla-lint: allow(wire-coverage, "derived cache; from_sorted recomputes it when decode rebuilds the set")
    wire: usize,
}

impl<T: SignedItem> SignedSet<T> {
    /// The empty set.
    pub fn new() -> Self {
        SignedSet {
            items: Arc::new(Vec::new()),
            wire: 0,
        }
    }

    /// Builds from a vector that is already strictly sorted.
    fn from_sorted(items: Vec<T>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        let wire = items.iter().map(SignedItem::wire_size).sum();
        SignedSet {
            items: Arc::new(items),
            wire,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The elements as a sorted slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Membership test (binary search).
    pub fn contains(&self, v: &T) -> bool {
        self.items.binary_search(v).is_ok()
    }

    /// Modeled serialized size: varint length prefix + elements. `O(1)`.
    pub fn wire_size(&self) -> usize {
        var_len(self.len() as u64) + self.wire
    }

    /// Inserts `v`; returns whether the set changed. Copy-on-write: the
    /// allocation is reused when uniquely owned. An equal existing
    /// element is kept (`BTreeSet::insert` semantics).
    pub fn insert(&mut self, v: T) -> bool {
        match self.items.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.wire += v.wire_size();
                match Arc::get_mut(&mut self.items) {
                    Some(vec) => vec.insert(pos, v),
                    None => {
                        let mut vec = Vec::with_capacity(self.items.len() + 1);
                        // bgla-lint: allow(byzantine-panic, "pos <= len from binary_search Err")
                        vec.extend_from_slice(&self.items[..pos]);
                        vec.push(v);
                        // bgla-lint: allow(byzantine-panic, "pos <= len from binary_search Err")
                        vec.extend_from_slice(&self.items[pos..]);
                        self.items = Arc::new(vec);
                    }
                }
                true
            }
        }
    }

    /// `self ⊆ other`, by merge-walk (`O(k + m)`).
    pub fn is_subset(&self, other: &SignedSet<T>) -> bool {
        if Arc::ptr_eq(&self.items, &other.items) || self.is_empty() {
            return true;
        }
        if self.len() > other.len() {
            return false;
        }
        let (a, b) = (&self.items[..], &other.items[..]);
        let mut j = 0;
        for x in a {
            // bgla-lint: allow(byzantine-panic, "merge-walk cursor guarded by j < b.len()")
            while j < b.len() && b[j] < *x {
                j += 1;
            }
            // bgla-lint: allow(byzantine-panic, "merge-walk cursor guarded by the j == b.len() check")
            if j == b.len() || b[j] != *x {
                return false;
            }
            j += 1;
        }
        true
    }

    /// `self ⊇ other`.
    pub fn is_superset(&self, other: &SignedSet<T>) -> bool {
        other.is_subset(self)
    }

    /// Joins `other` into `self` (set union); returns whether `self`
    /// grew. Fast paths: adopting the peer's `Arc` when `self` is
    /// empty, no-op when a superset. Equal elements keep `self`'s
    /// representative — which is why, unlike
    /// [`crate::valueset::ValueSet`], a non-empty proper subset must
    /// merge-walk instead of adopting the peer's allocation: element
    /// equality may ignore attachments (a [`crate::sbs::ProvenValue`]'s
    /// proof), and the peer's equal element could carry a different
    /// attachment.
    pub fn join_with(&mut self, other: &SignedSet<T>) -> bool {
        if Arc::ptr_eq(&self.items, &other.items) || other.is_empty() {
            return false;
        }
        if self.is_empty() {
            self.items = Arc::clone(&other.items);
            self.wire = other.wire;
            return true;
        }
        if other.is_subset(self) {
            return false;
        }
        // True merge (equal elements keep self's representative).
        let (a, b) = (&self.items[..], &other.items[..]);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            // bgla-lint: allow(byzantine-panic, "merge cursors guarded by the while i/j < len condition")
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    // bgla-lint: allow(byzantine-panic, "merge cursors guarded by the while i/j < len condition")
                    out.push(a[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    // bgla-lint: allow(byzantine-panic, "merge cursors guarded by the while i/j < len condition")
                    out.push(b[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    // bgla-lint: allow(byzantine-panic, "merge cursors guarded by the while i/j < len condition")
                    out.push(a[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        // bgla-lint: allow(byzantine-panic, "i and j are <= len at loop exit; suffix slicing from a cursor is in-bounds")
        out.extend_from_slice(&a[i..]);
        // bgla-lint: allow(byzantine-panic, "i and j are <= len at loop exit; suffix slicing from a cursor is in-bounds")
        out.extend_from_slice(&b[j..]);
        let grew = out.len() > self.len();
        *self = SignedSet::from_sorted(out);
        grew
    }

    /// The join `self ∪ other` as a new handle.
    pub fn join(&self, other: &SignedSet<T>) -> SignedSet<T> {
        let mut out = self.clone();
        out.join_with(other);
        out
    }

    /// `self ∖ other`, by merge-walk. Removal is by element equality
    /// (`Eq` — which `Ord` implementors keep consistent with `cmp`, and
    /// which for proven records ignores the attached proof), the same
    /// test `is_subset`/`join_with` use — so the survivors keep `self`'s
    /// representatives, exactly what the delta encoder needs ("values
    /// the peer has not acknowledged, as I hold them").
    pub fn difference(&self, other: &SignedSet<T>) -> SignedSet<T> {
        if other.is_empty() {
            return self.clone();
        }
        if Arc::ptr_eq(&self.items, &other.items) {
            return SignedSet::new();
        }
        let (a, b) = (&self.items[..], &other.items[..]);
        let mut out = Vec::new();
        let mut j = 0;
        for x in a {
            // bgla-lint: allow(byzantine-panic, "merge-walk cursor guarded by j < b.len()")
            while j < b.len() && b[j] < *x {
                j += 1;
            }
            // bgla-lint: allow(byzantine-panic, "merge-walk cursor guarded by the j == b.len() check")
            if j == b.len() || b[j] != *x {
                out.push(x.clone());
            }
        }
        SignedSet::from_sorted(out)
    }

    /// Retains only the elements `keep` accepts (rebuilds; used by the
    /// conflict-pruning paths, which are rare and small).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        // Single pass: `keep` is `FnMut`, so a stateful predicate must
        // see each element exactly once.
        let kept: Vec<T> = self.items.iter().filter(|v| keep(v)).cloned().collect();
        if kept.len() < self.len() {
            *self = SignedSet::from_sorted(kept);
        }
    }
}

impl<T: SignedItem> Default for SignedSet<T> {
    fn default() -> Self {
        SignedSet::new()
    }
}

impl<T: SignedItem> Clone for SignedSet<T> {
    fn clone(&self) -> Self {
        SignedSet {
            items: Arc::clone(&self.items),
            wire: self.wire,
        }
    }
}

impl<T: SignedItem> PartialEq for SignedSet<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.items, &other.items) || self.items == other.items
    }
}
impl<T: SignedItem> Eq for SignedSet<T> {}

impl<T: SignedItem> PartialOrd for SignedSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: SignedItem> Ord for SignedSet<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.items, &other.items) {
            return std::cmp::Ordering::Equal;
        }
        self.items.cmp(&other.items)
    }
}

impl<T: SignedItem> std::fmt::Debug for SignedSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<T: SignedItem> FromIterator<T> for SignedSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items: Vec<T> = iter.into_iter().collect();
        items.sort();
        items.dedup();
        SignedSet::from_sorted(items)
    }
}

impl<T: SignedItem> From<BTreeSet<T>> for SignedSet<T> {
    fn from(set: BTreeSet<T>) -> Self {
        SignedSet::from_sorted(set.into_iter().collect())
    }
}

impl<'a, T: SignedItem> IntoIterator for &'a SignedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Canonical codec form: length-prefixed elements in strictly ascending
/// order. Decoding rejects out-of-order or duplicate elements, so every
/// byte string has at most one decoding — the same injectivity contract
/// as [`crate::valueset::ValueSet`]. Lives here because
/// [`SignedSet::from_sorted`] (which trusts its input) is private.
impl<T: SignedItem + Wire> Wire for SignedSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.items.len());
        for item in self.items.iter() {
            item.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let mut items: Vec<T> = Vec::with_capacity(n);
        for _ in 0..n {
            let item = T::decode(r)?;
            if let Some(prev) = items.last() {
                if *prev >= item {
                    return Err(CodecError::Invalid("signed set not strictly ascending"));
                }
            }
            items.push(item);
        }
        Ok(SignedSet::from_sorted(items))
    }
}

/// Convenience element for unit and property tests.
impl SignedItem for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ss(v: &[u64]) -> SignedSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = ss(&[3, 1, 2, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert!(s.contains(&2));
        assert!(!s.contains(&4));
        assert_eq!(s.wire_size(), 1 + 24);
    }

    #[test]
    fn clone_shares_and_insert_is_cow() {
        let a = ss(&[1, 3]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.items, &b.items));
        assert!(b.insert(2));
        assert!(!b.insert(2));
        assert_eq!(a.as_slice(), &[1, 3], "shared peer must not see the write");
        assert_eq!(b.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn join_fast_paths() {
        let small = ss(&[1, 2]);
        let big = ss(&[1, 2, 3]);
        let mut x = small.clone();
        assert!(x.join_with(&big));
        assert_eq!(x, big);
        let mut y = big.clone();
        assert!(!y.join_with(&small));
        assert!(Arc::ptr_eq(&y.items, &big.items), "superset is a no-op");
        let mut z: SignedSet<u64> = SignedSet::new();
        assert!(z.join_with(&big));
        assert!(
            Arc::ptr_eq(&z.items, &big.items),
            "only the empty side adopts the peer's allocation"
        );
    }

    #[test]
    fn retain_rebuilds_only_on_change() {
        let mut a = ss(&[1, 2, 3, 4]);
        let before = Arc::as_ptr(&a.items);
        a.retain(|_| true);
        assert_eq!(Arc::as_ptr(&a.items), before);
        a.retain(|v| v % 2 == 0);
        assert_eq!(a.as_slice(), &[2, 4]);
        assert_eq!(a.wire_size(), 1 + 16);
    }

    #[test]
    fn retain_calls_predicate_once_per_element() {
        // `keep` is FnMut: a stateful predicate must see each element
        // exactly once or it could keep the wrong subset.
        let mut a = ss(&[1, 2, 3, 4]);
        let mut calls = 0;
        a.retain(|_| {
            calls += 1;
            true
        });
        assert_eq!(calls, 4);
        let mut seen = Vec::new();
        a.retain(|v| {
            seen.push(*v);
            seen.len() % 2 == 1 // keep every other visited element
        });
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(a.as_slice(), &[1, 3]);
    }

    #[test]
    fn difference_by_merge_walk() {
        let a = ss(&[1, 2, 3, 4]);
        let b = ss(&[2, 4, 9]);
        assert_eq!(a.difference(&b).as_slice(), &[1, 3]);
        assert_eq!(b.difference(&a).as_slice(), &[9]);
        assert!(a.difference(&a.clone()).is_empty());
        assert_eq!(a.difference(&SignedSet::new()).as_slice(), a.as_slice());
    }

    #[test]
    fn eq_and_subset() {
        let a = ss(&[1, 2, 3]);
        let b = ss(&[1, 2, 3]);
        assert_eq!(a, b);
        assert!(ss(&[2]).is_subset(&a));
        assert!(a.is_superset(&ss(&[1, 3])));
        assert!(!a.is_subset(&ss(&[1, 3])));
    }
}
