//! `ValueSet` — the shared-ownership value-set representation all four
//! agreement algorithms ship in their messages, plus the delta-message
//! machinery built on top of it.
//!
//! # Why not `BTreeSet`
//!
//! The paper's algorithms are message-heavy by design (WTS is `O(n²)`
//! messages per process, GWTS `O(f·n²)` per decision) and every message
//! carries a value set. With `BTreeSet<V>` payloads each send, receive
//! and re-deliver pays an `O(|set|)` deep clone — node-per-element
//! allocation — so wall clock scales as `O(n² · |set|)` allocations
//! instead of the paper's message bound. `ValueSet` is an `Arc`-backed
//! sorted `Vec<V>`:
//!
//! * **clone is `O(1)`** (one atomic increment) — broadcasting a set to
//!   `n` processes costs `n` refcounts, not `n` tree copies;
//! * **join / union is `O(k + m)`** by merge-walk, with `O(1)` fast
//!   paths when either side already contains the other (the common case
//!   on the hot path: proposals grow monotonically);
//! * **subset / superset are `O(k + m)`** merge-walks (`BTreeSet`'s are
//!   `O(k · log m)` probes with pointer chasing);
//! * **`wire_size` is cached** at construction, so metering a message is
//!   `O(1)` instead of an `O(|set|)` fold per send.
//!
//! Decisions remain *logically* sets-of-values-under-union, exactly as
//! paper §3.1 prescribes — only the physical representation changed.
//!
//! # Delta messages
//!
//! Proposal traffic re-sends mostly-unchanged sets: a refinement adds a
//! handful of values to a set the acceptor has already seen. The
//! [`SetUpdate`] payload lets `Proposal`/`Accept` rounds carry only the
//! values added since the last set the receiver demonstrably holds:
//!
//! * the proposer ([`DeltaSender`]) snapshots `Proposed_set` at every
//!   timestamp it broadcasts (cheap: snapshots are `O(1)` clones) and
//!   remembers, per acceptor, the newest timestamp that acceptor has
//!   acked or nacked;
//! * a later broadcast to that acceptor carries
//!   `Delta { base_ts, added }` with `added = current − snapshot(base_ts)`;
//! * on **first contact** (no reply seen yet) or when the snapshot has
//!   been pruned, the proposer falls back to `Full`;
//! * the acceptor ([`DeltaReceiver`]) stores each proposal it actually
//!   consumed, keyed by `(proposer, ts)`, and reconstructs
//!   `full = base ∪ added`. A delta whose base it does not hold (only
//!   possible for Byzantine senders — a correct proposer deltas only
//!   against timestamps the acceptor itself replied to) is a detected
//!   **gap** and is dropped.
//!
//! ## Wire format
//!
//! `wire_size` is the length of the [`Wire`] encoding, byte for byte
//! (`var` is a `bgla_codec` varint: 1 byte below 128, 2 below 16 384):
//!
//! ```text
//! ValueSet                   : var(len) + Σ wire_size(v)
//! Full(set)                  : 1 (tag) + ValueSet
//! Delta { base_ts, added }   : 1 (tag) + var(base_ts) + ValueSet(added)
//! ```

use crate::value::Value;
use bgla_codec::{var_len, CodecError, Reader, Wire, Writer};
use bgla_simnet::ProcessId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An immutable-by-sharing sorted set of values with `O(1)` clone.
///
/// Mutating operations are copy-on-write: they reuse the allocation when
/// this handle is the only owner and copy otherwise.
pub struct ValueSet<V: Value> {
    /// Strictly-sorted, deduplicated elements.
    // bgla-lint: allow(wire-coverage, "encoded: encode walks the elements via iter(), which this field backs")
    items: Arc<Vec<V>>,
    /// Cached `Σ wire_size(item)` (excludes the length prefix).
    // bgla-lint: allow(wire-coverage, "derived cache; from_sorted recomputes it when decode rebuilds the set")
    wire: usize,
}

impl<V: Value> ValueSet<V> {
    /// The empty set.
    pub fn new() -> Self {
        ValueSet {
            items: Arc::new(Vec::new()),
            wire: 0,
        }
    }

    /// A one-element set.
    pub fn singleton(v: V) -> Self {
        let wire = v.wire_size();
        ValueSet {
            items: Arc::new(vec![v]),
            wire,
        }
    }

    /// Builds from a vector that is already strictly sorted.
    fn from_sorted(items: Vec<V>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        let wire = items.iter().map(Value::wire_size).sum();
        ValueSet {
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
    pub fn iter(&self) -> std::slice::Iter<'_, V> {
        self.items.iter()
    }

    /// The elements as a sorted slice.
    pub fn as_slice(&self) -> &[V] {
        &self.items
    }

    /// Membership test (binary search).
    pub fn contains(&self, v: &V) -> bool {
        self.items.binary_search(v).is_ok()
    }

    /// Encoded size: varint length prefix + elements. Cached — `O(1)`,
    /// unlike a per-send fold over a `BTreeSet`.
    pub fn wire_size(&self) -> usize {
        var_len(self.len() as u64) + self.wire
    }

    /// Inserts `v`; returns whether the set changed. Copy-on-write: the
    /// allocation is reused when uniquely owned.
    pub fn insert(&mut self, v: V) -> bool {
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
    pub fn is_subset(&self, other: &ValueSet<V>) -> bool {
        if Arc::ptr_eq(&self.items, &other.items) || self.is_empty() {
            return true;
        }
        if self.len() > other.len() {
            return false;
        }
        let (a, b) = (&self.items[..], &other.items[..]);
        let mut j = 0;
        for x in a {
            // Advance through `b` until x could be found.
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
    pub fn is_superset(&self, other: &ValueSet<V>) -> bool {
        other.is_subset(self)
    }

    /// Joins `other` into `self` (set union — the semilattice join);
    /// returns whether `self` grew. Fast paths: sharing the peer's `Arc`
    /// when `self` is a subset, no-op when `self` is a superset.
    pub fn join_with(&mut self, other: &ValueSet<V>) -> bool {
        if Arc::ptr_eq(&self.items, &other.items) || other.is_empty() {
            return false;
        }
        if self.is_empty() || self.is_subset(other) {
            let grew = self.len() < other.len();
            self.items = Arc::clone(&other.items);
            self.wire = other.wire;
            return grew;
        }
        if other.is_subset(self) {
            return false;
        }
        // True merge. Only what `other` brings is measured: the rest is
        // `self`, whose bytes are cached.
        let (a, b) = (&self.items[..], &other.items[..]);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let mut wire = self.wire;
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
                    let new = &b[j];
                    wire += new.wire_size();
                    out.push(new.clone());
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
        let rest = &b[j..];
        wire += rest.iter().map(Value::wire_size).sum::<usize>();
        out.extend_from_slice(rest);
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        debug_assert_eq!(wire, out.iter().map(Value::wire_size).sum::<usize>());
        *self = ValueSet {
            items: Arc::new(out),
            wire,
        };
        true
    }

    /// The join `self ∪ other` as a new handle.
    pub fn join(&self, other: &ValueSet<V>) -> ValueSet<V> {
        let mut out = self.clone();
        out.join_with(other);
        out
    }

    /// `self ∖ other`, by merge-walk.
    pub fn difference(&self, other: &ValueSet<V>) -> ValueSet<V> {
        if other.is_empty() {
            return self.clone();
        }
        if Arc::ptr_eq(&self.items, &other.items) {
            return ValueSet::new();
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
        ValueSet::from_sorted(out)
    }

    /// Whether `self` is exactly `a ∪ b` with `a ∩ b = ∅`, allocating
    /// nothing: this is how a set already held is confirmed to be the one
    /// a delta describes, instead of building it. Walks the smaller part;
    /// between two of its elements `self` must repeat a run of the larger
    /// part, which is one slice comparison.
    pub fn is_disjoint_union(&self, a: &ValueSet<V>, b: &ValueSet<V>) -> bool {
        if a.len() + b.len() != self.len() {
            return false;
        }
        let (few, many) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if Arc::ptr_eq(&self.items, &many.items) {
            return true; // the lengths say `few` is empty
        }
        let (mut rest, mut many) = (&self.items[..], &many.items[..]);
        for x in few.iter() {
            let Ok(at) = rest.binary_search(x) else {
                return false;
            };
            let (Some((run, tail)), Some((same, later))) =
                (rest.split_at_checked(at), many.split_at_checked(at))
            else {
                return false;
            };
            if run != same {
                return false;
            }
            (rest, many) = (tail.get(1..).unwrap_or_default(), later);
        }
        rest == many
    }

    /// Extends with the values of an iterator (sorts once).
    pub fn extend<I: IntoIterator<Item = V>>(&mut self, values: I) {
        let addition: ValueSet<V> = values.into_iter().collect();
        self.join_with(&addition);
    }
}

impl<V: Value> Default for ValueSet<V> {
    fn default() -> Self {
        ValueSet::new()
    }
}

impl<V: Value> Clone for ValueSet<V> {
    fn clone(&self) -> Self {
        ValueSet {
            items: Arc::clone(&self.items),
            wire: self.wire,
        }
    }
}

impl<V: Value> PartialEq for ValueSet<V> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.items, &other.items) || self.items == other.items
    }
}
impl<V: Value> Eq for ValueSet<V> {}

impl<V: Value> PartialOrd for ValueSet<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: Value> Ord for ValueSet<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.items, &other.items) {
            return std::cmp::Ordering::Equal;
        }
        self.items.cmp(&other.items)
    }
}

impl<V: Value + std::hash::Hash> std::hash::Hash for ValueSet<V> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.items.hash(state)
    }
}

impl<V: Value> std::fmt::Debug for ValueSet<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<V: Value> FromIterator<V> for ValueSet<V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        let mut items: Vec<V> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        ValueSet::from_sorted(items)
    }
}

impl<V: Value> From<BTreeSet<V>> for ValueSet<V> {
    fn from(set: BTreeSet<V>) -> Self {
        ValueSet::from_sorted(set.into_iter().collect())
    }
}

impl<'a, V: Value> IntoIterator for &'a ValueSet<V> {
    type Item = &'a V;
    type IntoIter = std::slice::Iter<'a, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<V: Value> IntoIterator for ValueSet<V> {
    type Item = V;
    type IntoIter = std::vec::IntoIter<V>;
    fn into_iter(self) -> Self::IntoIter {
        match Arc::try_unwrap(self.items) {
            Ok(vec) => vec.into_iter(),
            Err(arc) => (*arc).clone().into_iter(),
        }
    }
}

impl<V: Value + bgla_crypto::ToBytes> bgla_crypto::ToBytes for ValueSet<V> {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        (self.len() as u64).write_bytes(out);
        for v in self.iter() {
            v.write_bytes(out);
        }
    }
}

impl<V: Value> Wire for ValueSet<V> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for v in self.iter() {
            v.encode(w);
        }
    }
    /// Decoding enforces the strict-sort invariant rather than
    /// re-canonicalizing: a shuffled or duplicated encoding is rejected,
    /// keeping the codec injective (required by the content-addressed
    /// proof store) and the constructor's invariant airtight.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let mut items: Vec<V> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = V::decode(r)?;
            if let Some(prev) = items.last() {
                if *prev >= v {
                    return Err(CodecError::Invalid("value set not strictly ascending"));
                }
            }
            items.push(v);
        }
        Ok(ValueSet::from_sorted(items))
    }
}

impl<V: Value> Wire for SetUpdate<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            SetUpdate::Full(set) => {
                w.u8(0);
                set.encode(w);
            }
            SetUpdate::Delta { base_ts, added } => {
                w.u8(1);
                w.var(*base_ts);
                added.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(SetUpdate::Full(ValueSet::decode(r)?)),
            1 => Ok(SetUpdate::Delta {
                base_ts: r.var()?,
                added: ValueSet::decode(r)?,
            }),
            _ => Err(CodecError::Invalid("set update tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Delta messages
// ---------------------------------------------------------------------------

/// A proposal payload: either the full set or only the values added
/// since a base the receiver is known to hold. See the module docs for
/// the wire format.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SetUpdate<V: Value> {
    /// The whole set (first contact / gap fallback).
    Full(ValueSet<V>),
    /// Only the additions relative to the proposal this receiver
    /// consumed at `base_ts`.
    Delta {
        /// Timestamp of the base proposal the receiver already holds.
        base_ts: u64,
        /// `current ∖ base`.
        added: ValueSet<V>,
    },
}

impl<V: Value> SetUpdate<V> {
    /// Encoded size (see module docs).
    pub fn wire_size(&self) -> usize {
        match self {
            SetUpdate::Full(set) => 1 + set.wire_size(),
            SetUpdate::Delta { base_ts, added } => 1 + var_len(*base_ts) + added.wire_size(),
        }
    }

    /// Number of values carried (diagnostics).
    pub fn carried(&self) -> usize {
        match self {
            SetUpdate::Full(set) => set.len(),
            SetUpdate::Delta { added, .. } => added.len(),
        }
    }
}

/// Proposer-side delta bookkeeping: snapshots of `Proposed_set` by
/// timestamp plus each acceptor's newest replied-to timestamp.
#[derive(Debug, Default)]
pub struct DeltaSender<V: Value> {
    /// ts → `Proposed_set` at that ts (`O(1)` clones make this cheap).
    snapshots: BTreeMap<u64, ValueSet<V>>,
    /// Acceptor → newest ts it acked/nacked (proof it holds snapshot(ts)).
    last_replied: BTreeMap<ProcessId, u64>,
}

/// Snapshots retained by a [`DeltaSender`]; refinements are bounded (≤ f
/// per WTS instance, ≤ f per GWTS round) but GWTS timestamps grow with
/// the stream, so old snapshots must not accumulate. Must be ≥
/// [`RECEIVER_BASE_CAP`] so every base a correct sender may delta
/// against still has its snapshot.
const SENDER_SNAPSHOT_CAP: usize = 32;

/// Per-proposer reconstructed proposals retained by a [`DeltaReceiver`].
///
/// Resolvability invariant: a receiver records at most one base per
/// distinct timestamp of a proposer and prunes to the newest
/// `RECEIVER_BASE_CAP`, so a base at `base_ts` survives as long as
/// fewer than `RECEIVER_BASE_CAP` larger timestamps were consumed —
/// guaranteed while `current_ts − base_ts < RECEIVER_BASE_CAP`. The
/// sender enforces exactly that bound in [`DeltaSender::encode_for`]
/// (falling back to `Full` otherwise), which is why a delta gap at the
/// receiver can only come from a Byzantine sender.
const RECEIVER_BASE_CAP: usize = 8;

impl<V: Value> DeltaSender<V> {
    /// Fresh sender state: no snapshots, no reply seen.
    pub fn new() -> Self {
        DeltaSender {
            snapshots: BTreeMap::new(),
            last_replied: BTreeMap::new(),
        }
    }

    /// Records the proposal broadcast at `ts` (call once per broadcast).
    pub fn record_broadcast(&mut self, ts: u64, set: &ValueSet<V>) {
        self.snapshots.insert(ts, set.clone());
        while self.snapshots.len() > SENDER_SNAPSHOT_CAP {
            // bgla-lint: allow(byzantine-panic, "nonempty: the while condition holds only when len > SENDER_SNAPSHOT_CAP >= 1")
            let oldest = *self.snapshots.keys().next().expect("nonempty");
            self.snapshots.remove(&oldest);
        }
    }

    /// Records that `from` replied (ack or nack) to the proposal of
    /// `ts` — it therefore holds that proposal. Ignores timestamps we
    /// never broadcast (Byzantine claims).
    pub fn record_reply(&mut self, from: ProcessId, ts: u64) {
        if !self.snapshots.contains_key(&ts) {
            return;
        }
        let e = self.last_replied.entry(from).or_insert(ts);
        *e = (*e).max(ts);
    }

    /// Encodes the proposal `current` (broadcast at `ts`) for acceptor
    /// `to`: a delta against the newest set `to` replied to when
    /// possible; the full set on first contact, on a pruned base, or
    /// when the base is too far behind for the receiver to still hold
    /// it (see [`RECEIVER_BASE_CAP`] — this bound is what makes a
    /// receiver-side gap a reliable Byzantine signal).
    pub fn encode_for(&self, to: ProcessId, ts: u64, current: &ValueSet<V>) -> SetUpdate<V> {
        self.encode_with(to, ts, current, &mut Vec::new())
    }

    /// [`Self::encode_for`] for every acceptor `0..n` of one broadcast,
    /// indexed by acceptor. Acceptors on the same base share one set of
    /// additions: the difference is taken once per distinct base.
    pub fn encode_broadcast(&self, n: usize, ts: u64, current: &ValueSet<V>) -> Vec<SetUpdate<V>> {
        let mut added_since = Vec::new();
        (0..n)
            .map(|to| self.encode_with(to, ts, current, &mut added_since))
            .collect()
    }

    /// `added_since` holds `current ∖ snapshot(base_ts)` for the bases
    /// this broadcast has met so far.
    fn encode_with(
        &self,
        to: ProcessId,
        ts: u64,
        current: &ValueSet<V>,
        added_since: &mut Vec<(u64, ValueSet<V>)>,
    ) -> SetUpdate<V> {
        match self
            .last_replied
            .get(&to)
            .and_then(|base_ts| self.snapshots.get(base_ts).map(|s| (*base_ts, s)))
        {
            Some((base_ts, base)) if ts.saturating_sub(base_ts) < RECEIVER_BASE_CAP as u64 => {
                SetUpdate::Delta {
                    base_ts,
                    added: once_per_base(added_since, base_ts, || current.difference(base)),
                }
            }
            _ => SetUpdate::Full(current.clone()),
        }
    }
}

/// The value remembered for `base_ts`, made (and remembered) on first
/// use. A broadcast meets at most `n` bases: a scan beats a map.
pub(crate) fn once_per_base<S: Clone>(
    made: &mut Vec<(u64, S)>,
    base_ts: u64,
    make: impl FnOnce() -> S,
) -> S {
    if let Some((_, known)) = made.iter().find(|(at, _)| *at == base_ts) {
        return known.clone();
    }
    let fresh = make();
    made.push((base_ts, fresh.clone()));
    fresh
}

/// Acceptor-side delta bookkeeping: the proposals actually consumed,
/// keyed by `(proposer, ts)`, so later deltas can be resolved.
#[derive(Debug, Default)]
pub struct DeltaReceiver<V: Value> {
    bases: BTreeMap<(ProcessId, u64), ValueSet<V>>,
}

impl<V: Value> DeltaReceiver<V> {
    /// Fresh receiver state.
    pub fn new() -> Self {
        DeltaReceiver {
            bases: BTreeMap::new(),
        }
    }

    /// Resolves an update from `from` into the full proposal. `None`
    /// means a detected gap: a delta whose base we do not hold (only
    /// Byzantine senders produce these — drop the message).
    pub fn resolve(&self, from: ProcessId, update: &SetUpdate<V>) -> Option<ValueSet<V>> {
        match update {
            SetUpdate::Full(set) => Some(set.clone()),
            SetUpdate::Delta { base_ts, added } => {
                self.base(from, *base_ts).map(|base| base.join(added))
            }
        }
    }

    /// The proposal of `from` consumed at `ts`, while it is retained.
    pub fn base(&self, from: ProcessId, ts: u64) -> Option<&ValueSet<V>> {
        self.bases.get(&(from, ts))
    }

    /// Records that the proposal `set` from `from` at `ts` was consumed
    /// (we are about to reply to it), making it a valid delta base.
    pub fn record(&mut self, from: ProcessId, ts: u64, set: &ValueSet<V>) {
        self.bases.insert((from, ts), set.clone());
        // Retain only the newest few bases per proposer.
        let held: Vec<u64> = self
            .bases
            .range((from, 0)..=(from, u64::MAX))
            .map(|((_, t), _)| *t)
            .collect();
        if held.len() > RECEIVER_BASE_CAP {
            // bgla-lint: allow(byzantine-panic, "slice start bounded: guarded by held.len() > RECEIVER_BASE_CAP")
            for t in &held[..held.len() - RECEIVER_BASE_CAP] {
                self.bases.remove(&(from, *t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(v: &[u64]) -> ValueSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = vs(&[3, 1, 2, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&2));
        assert!(!s.contains(&4));
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = vs(&[1, 2, 3]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.items, &b.items));
        assert_eq!(a, b);
    }

    #[test]
    fn insert_is_copy_on_write() {
        let mut a = vs(&[1, 3]);
        let b = a.clone();
        assert!(a.insert(2));
        assert!(!a.insert(2));
        assert_eq!(a.as_slice(), &[1, 2, 3]);
        assert_eq!(b.as_slice(), &[1, 3], "shared peer must not see the write");
    }

    #[test]
    fn join_fast_paths_share() {
        let small = vs(&[1, 2]);
        let big = vs(&[1, 2, 3]);
        let mut x = small.clone();
        assert!(x.join_with(&big));
        assert!(
            Arc::ptr_eq(&x.items, &big.items),
            "subset join adopts the peer Arc"
        );
        let mut y = big.clone();
        assert!(!y.join_with(&small));
        assert!(Arc::ptr_eq(&y.items, &big.items));
    }

    #[test]
    fn join_merges_overlapping() {
        let mut a = vs(&[1, 3, 5]);
        assert!(a.join_with(&vs(&[2, 3, 6])));
        assert_eq!(a.as_slice(), &[1, 2, 3, 5, 6]);
    }

    #[test]
    fn subset_superset_difference() {
        let a = vs(&[1, 2, 3, 4]);
        let b = vs(&[2, 4]);
        assert!(b.is_subset(&a));
        assert!(a.is_superset(&b));
        assert!(!a.is_subset(&b));
        assert_eq!(a.difference(&b).as_slice(), &[1, 3]);
        assert_eq!(b.difference(&a).as_slice(), &[] as &[u64]);
    }

    /// Every split of 0..6 into `a`, `b` and neither, against every
    /// subset as `self`: true exactly when `self = a ∪ b` and `a ∩ b = ∅`.
    #[test]
    fn disjoint_union_is_exact() {
        let pick = |mask: u32| -> ValueSet<u64> { (0..6).filter(|i| mask >> i & 1 == 1).collect() };
        for a in 0..64u32 {
            for b in 0..64u32 {
                for s in 0..64u32 {
                    assert_eq!(
                        pick(s).is_disjoint_union(&pick(a), &pick(b)),
                        a & b == 0 && a | b == s,
                        "{a:06b} {b:06b} {s:06b}"
                    );
                }
            }
        }
    }

    #[test]
    fn wire_size_is_cached_and_correct() {
        let a = vs(&[1, 2, 3]);
        assert_eq!(a.wire_size(), 1 + 24);
        let mut b = a.clone();
        b.insert(4);
        assert_eq!(b.wire_size(), 1 + 32);
        assert_eq!(a.wire_size(), 1 + 24);
        // The prefix grows with the count, not with the cache.
        let big: ValueSet<u64> = (0..128).collect();
        assert_eq!(big.wire_size(), 2 + 128 * 8);
        assert_eq!(big.wire_size(), bgla_codec::encode_payload(&big).len());
    }

    #[test]
    fn update_wire_sizes() {
        let full = SetUpdate::Full(vs(&[1, 2, 3]));
        assert_eq!(full.wire_size(), 1 + 1 + 24);
        let delta = SetUpdate::Delta {
            base_ts: 4,
            added: vs(&[9]),
        };
        assert_eq!(delta.wire_size(), 1 + 1 + 1 + 8);
        let late = SetUpdate::Delta {
            base_ts: 300,
            added: vs(&[9]),
        };
        assert_eq!(late.wire_size(), 1 + 2 + 1 + 8);
        for update in [full, delta, late] {
            assert_eq!(
                update.wire_size(),
                bgla_codec::encode_payload(&update).len()
            );
        }
    }

    #[test]
    fn delta_roundtrip_through_sender_and_receiver() {
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        let mut rx: DeltaReceiver<u64> = DeltaReceiver::new();
        let s0 = vs(&[1, 2]);
        tx.record_broadcast(0, &s0);
        // First contact: full.
        let u0 = tx.encode_for(9, 0, &s0);
        assert!(matches!(u0, SetUpdate::Full(_)));
        let full0 = rx.resolve(9, &u0).unwrap();
        assert_eq!(full0, s0);
        rx.record(9, 0, &full0);
        tx.record_reply(9, 0);
        // Refinement: only the additions travel.
        let s1 = vs(&[1, 2, 7, 8]);
        tx.record_broadcast(1, &s1);
        let u1 = tx.encode_for(9, 1, &s1);
        match &u1 {
            SetUpdate::Delta { base_ts, added } => {
                assert_eq!(*base_ts, 0);
                assert_eq!(added.as_slice(), &[7, 8]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
        assert_eq!(rx.resolve(9, &u1).unwrap(), s1);
    }

    /// One broadcast to acceptors on three footings — never replied,
    /// replied at ts 0, replied at ts 1: each gets what `encode_for`
    /// gives it, and those on one base share one set of additions.
    #[test]
    fn broadcast_takes_one_difference_per_base() {
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        tx.record_broadcast(0, &vs(&[1]));
        tx.record_broadcast(1, &vs(&[1, 2]));
        for (acceptor, ts) in [(1, 0), (2, 0), (3, 1), (4, 1)] {
            tx.record_reply(acceptor, ts);
        }
        let current = vs(&[1, 2, 3]);
        tx.record_broadcast(2, &current);
        let all = tx.encode_broadcast(6, 2, &current);
        assert_eq!(all.len(), 6);
        for (to, update) in all.iter().enumerate() {
            assert_eq!(*update, tx.encode_for(to, 2, &current), "acceptor {to}");
        }
        let added = |to: usize| match &all[to] {
            SetUpdate::Delta { added, .. } => added,
            SetUpdate::Full(_) => panic!("acceptor {to} replied: expected a delta"),
        };
        assert!(Arc::ptr_eq(&added(1).items, &added(2).items));
        assert!(Arc::ptr_eq(&added(3).items, &added(4).items));
        assert_eq!(added(1).as_slice(), &[2, 3]);
        assert_eq!(added(3).as_slice(), &[3]);
    }

    #[test]
    fn unknown_base_is_a_detected_gap() {
        let rx: DeltaReceiver<u64> = DeltaReceiver::new();
        let bogus = SetUpdate::Delta {
            base_ts: 77,
            added: vs(&[1]),
        };
        assert!(rx.resolve(3, &bogus).is_none());
    }

    #[test]
    fn byzantine_reply_claims_are_ignored() {
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        tx.record_broadcast(0, &vs(&[1]));
        tx.record_reply(4, 999); // never broadcast: ignored
        assert!(matches!(
            tx.encode_for(4, 1, &vs(&[1, 2])),
            SetUpdate::Full(_)
        ));
    }

    #[test]
    fn sender_snapshots_are_bounded() {
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        for ts in 0..200u64 {
            tx.record_broadcast(ts, &vs(&[ts]));
        }
        assert!(tx.snapshots.len() <= SENDER_SNAPSHOT_CAP);
        // A reply to a pruned ts falls back to Full.
        tx.record_reply(2, 0);
        assert!(matches!(
            tx.encode_for(2, 199, &vs(&[1])),
            SetUpdate::Full(_)
        ));
    }

    /// A correct sender never deltas against a base the receiver may
    /// have pruned: once the base falls RECEIVER_BASE_CAP behind the
    /// current timestamp, encoding falls back to Full (regression for
    /// the slow-acceptor gap misclassification).
    #[test]
    fn stale_base_falls_back_to_full() {
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        tx.record_broadcast(0, &vs(&[1]));
        tx.record_reply(5, 0);
        // Within the window: delta against ts 0 is fine.
        let near = RECEIVER_BASE_CAP as u64 - 1;
        tx.record_broadcast(near, &vs(&[1, 2]));
        assert!(matches!(
            tx.encode_for(5, near, &vs(&[1, 2])),
            SetUpdate::Delta { base_ts: 0, .. }
        ));
        // At the window edge the receiver may have pruned base 0: Full.
        let far = RECEIVER_BASE_CAP as u64;
        tx.record_broadcast(far, &vs(&[1, 2, 3]));
        assert!(matches!(
            tx.encode_for(5, far, &vs(&[1, 2, 3])),
            SetUpdate::Full(_)
        ));
        // Mirror on the receiver: consuming CAP newer proposals evicts
        // base 0, so the sender's fallback is exactly what keeps
        // correct traffic resolvable.
        let mut rx: DeltaReceiver<u64> = DeltaReceiver::new();
        rx.record(9, 0, &vs(&[1]));
        for ts in 1..=RECEIVER_BASE_CAP as u64 {
            rx.record(9, ts, &vs(&[1, ts]));
        }
        let delta0 = SetUpdate::Delta {
            base_ts: 0,
            added: vs(&[7]),
        };
        assert!(rx.resolve(9, &delta0).is_none(), "base 0 must be pruned");
        let delta_recent = SetUpdate::Delta {
            base_ts: RECEIVER_BASE_CAP as u64,
            added: vs(&[7]),
        };
        assert!(rx.resolve(9, &delta_recent).is_some());
    }

    #[test]
    fn receiver_bases_are_bounded_per_proposer() {
        let mut rx: DeltaReceiver<u64> = DeltaReceiver::new();
        for ts in 0..100u64 {
            rx.record(5, ts, &vs(&[ts]));
        }
        assert!(rx.bases.len() <= RECEIVER_BASE_CAP);
        rx.record(6, 0, &vs(&[1]));
        assert_eq!(
            rx.bases.range((6, 0)..=(6, u64::MAX)).count(),
            1,
            "per-proposer cap must not evict other proposers' bases"
        );
    }
}
