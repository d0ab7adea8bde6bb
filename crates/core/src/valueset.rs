//! `ValueSet` — the one shared-ownership sorted set all four agreement
//! algorithms ship in their messages — plain values for WTS/GWTS; signed
//! values, signed batches and proven records for SbS/GSbS — plus the
//! delta ledger built on top of it.
//!
//! # Why not `BTreeSet`
//!
//! The paper's algorithms are message-heavy by design (WTS is `O(n²)`
//! messages per process, GWTS `O(f·n²)` per decision) and every message
//! carries a set. With `BTreeSet` payloads each send, receive, ack echo
//! and re-deliver pays an `O(|set|)` deep clone — node-per-element
//! allocation — so wall clock scales as `O(n² · |set|)` allocations
//! instead of the paper's message bound. `ValueSet` is an `Arc`-backed
//! sorted `Vec<T>`, generic over any [`SetItem`]:
//!
//! * **clone is `O(1)`** (one atomic increment) — broadcasting a set to
//!   `n` processes, or echoing a `safe_req` set back inside a `safe_ack`,
//!   costs refcounts, not tree copies;
//! * **join / union is `O(k + m)`** by merge-walk, with `O(1)` fast
//!   paths when either side already contains the other (the common case
//!   on the hot path: proposals grow monotonically);
//! * **subset / superset are `O(k + m)`** merge-walks (`BTreeSet`'s are
//!   `O(k · log m)` probes with pointer chasing);
//! * **equality has an `Arc::ptr_eq` fast path** — the
//!   `ack.rcvd == safe_req` echo check is `O(1)` while the echo still
//!   shares the proposer's allocation;
//! * **`wire_size` is cached**: metering a message is `O(1)` instead of
//!   an `O(|set|)` fold per send, and every operation that builds a set
//!   from one whose bytes are cached measures only the difference.
//!
//! Decisions remain *logically* sets-of-values-under-union, exactly as
//! paper §3.1 prescribes — only the physical representation changed.
//!
//! # Delta messages — who holds what
//!
//! Proposal traffic re-sends mostly-unchanged sets: a refinement adds a
//! handful of elements to a set the acceptor has already seen. One
//! ledger, generic over the set, lets `Proposal`/`Accept` rounds carry
//! only what was added since the last set the receiver demonstrably
//! holds ([`SetUpdate`]; [`crate::provendelta`] adds proofs by reference
//! on top of the same ledger):
//!
//! * the proposer ([`DeltaSender`]) snapshots `Proposed_set` at every
//!   timestamp it broadcasts (cheap: snapshots are `O(1)` clones) and
//!   remembers, per acceptor, the newest timestamp that acceptor has
//!   acked or nacked — a reply to `ts` is the evidence that the acceptor
//!   holds `snapshot(ts)`;
//! * a later broadcast to that acceptor carries
//!   `Delta { base_ts, added }` with `added = current − snapshot(base_ts)`;
//! * on **first contact** (no reply seen yet), when the snapshot has
//!   been pruned, or when the base is `BASE_WINDOW` or more timestamps
//!   behind, the proposer falls back to `Full`;
//! * the acceptor ([`DeltaReceiver`]) stores each proposal it actually
//!   consumed, keyed by `(proposer, ts)`, keeps the newest
//!   `BASE_WINDOW` per proposer, and reconstructs
//!   `full = base ∪ added`. A delta whose base it does not hold is a
//!   detected **gap**: a correct proposer deltas only against timestamps
//!   the acceptor itself replied to, and only inside the window.
//!
//! ## Wire format
//!
//! `wire_size` is the length of the [`Wire`] encoding, byte for byte
//! (`var` is a `bgla_codec` varint: 1 byte below 128, 2 below 16 384):
//!
//! ```text
//! ValueSet                   : var(len) + Σ wire_size(item)
//! Full(set)                  : 1 (tag) + ValueSet
//! Delta { base_ts, added }   : 1 (tag) + var(base_ts) + ValueSet(added)
//! ```

use crate::value::Value;
use bgla_codec::{var_len, CodecError, Reader, Wire, Writer};
use bgla_simnet::ProcessId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Element of a [`ValueSet`]: an ordered, cloneable record with a modeled
/// wire size (the set caches the sum). Every [`Value`] is one; the
/// signature algorithms add their signed and proven records.
pub trait SetItem: Clone + Ord {
    /// Whether `==` compares everything the item carries. On join, equal
    /// elements keep `self`'s representative (`BTreeSet`'s
    /// insert-does-not-replace semantics). Where `==` is identity
    /// (values, signed values, signed batches) that cannot be observed,
    /// and a subset joined with its superset simply adopts the
    /// superset's allocation. Where `==` ignores an attachment (a proven
    /// record's proof) the peer's equal element could carry a different
    /// one, so the subset merge-walks: an element's proof handle — and
    /// with it its interned [`bgla_crypto::ProofId`] and its
    /// verification-cache hits — survives any number of merges.
    const EQ_IS_IDENTITY: bool;

    /// Modeled serialized size of this element in bytes.
    fn wire_size(&self) -> usize;
}

impl<V: Value> SetItem for V {
    const EQ_IS_IDENTITY: bool = true;
    fn wire_size(&self) -> usize {
        Value::wire_size(self)
    }
}

/// An immutable-by-sharing sorted set with `O(1)` clone.
///
/// Mutating operations are copy-on-write: they reuse the allocation when
/// this handle is the only owner and copy otherwise.
pub struct ValueSet<T: SetItem> {
    /// Strictly-sorted, deduplicated elements.
    items: Arc<Vec<T>>,
    /// Cached `Σ wire_size(item)` (excludes the length prefix).
    // bgla-lint: allow(wire-coverage, "derived cache; from_sorted recomputes it when decode rebuilds the set")
    wire: usize,
}

impl<T: SetItem> ValueSet<T> {
    /// The empty set.
    pub fn new() -> Self {
        ValueSet {
            items: Arc::new(Vec::new()),
            wire: 0,
        }
    }

    /// A one-element set.
    pub fn singleton(v: T) -> Self {
        let wire = v.wire_size();
        ValueSet {
            items: Arc::new(vec![v]),
            wire,
        }
    }

    /// Builds from a vector that is already strictly sorted, measuring
    /// every element — for sets that arrive with no cached bytes to start
    /// from (decode, collection from an iterator).
    fn from_sorted(items: Vec<T>) -> Self {
        let wire = items.iter().map(SetItem::wire_size).sum();
        ValueSet::measured(items, wire)
    }

    /// Builds from a strictly sorted vector whose bytes the caller
    /// already knows.
    fn measured(items: Vec<T>, wire: usize) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        debug_assert_eq!(wire, items.iter().map(SetItem::wire_size).sum::<usize>());
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
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The elements as a sorted slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Whether both handles share one allocation (`O(1)`; implies `==`).
    pub fn ptr_eq(&self, other: &ValueSet<T>) -> bool {
        Arc::ptr_eq(&self.items, &other.items)
    }

    /// Membership test (binary search).
    pub fn contains(&self, v: &T) -> bool {
        self.items.binary_search(v).is_ok()
    }

    /// Encoded size: varint length prefix + elements. Cached — `O(1)`,
    /// unlike a per-send fold over a `BTreeSet`.
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
    pub fn is_subset(&self, other: &ValueSet<T>) -> bool {
        if self.ptr_eq(other) || self.is_empty() {
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

    /// Joins `other` into `self` (set union — the semilattice join);
    /// returns whether `self` grew. Equal elements keep `self`'s
    /// representative. Fast paths: no-op when `self` is a superset,
    /// sharing the peer's `Arc` when `self` is empty or — for items whose
    /// `==` is identity ([`SetItem::EQ_IS_IDENTITY`]) — a subset.
    pub fn join_with(&mut self, other: &ValueSet<T>) -> bool {
        if self.ptr_eq(other) || other.is_empty() {
            return false;
        }
        if self.is_empty() || (T::EQ_IS_IDENTITY && self.is_subset(other)) {
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
        wire += rest.iter().map(SetItem::wire_size).sum::<usize>();
        out.extend_from_slice(rest);
        *self = ValueSet::measured(out, wire);
        true
    }

    /// The join `self ∪ other` as a new handle.
    pub fn join(&self, other: &ValueSet<T>) -> ValueSet<T> {
        let mut out = self.clone();
        out.join_with(other);
        out
    }

    /// `self ∖ other`, by merge-walk. Removal is by element equality, the
    /// same test `is_subset`/`join_with` use, and the survivors are
    /// `self`'s representatives — exactly what the delta encoder needs
    /// ("what the peer has not acknowledged, as I hold it").
    pub fn difference(&self, other: &ValueSet<T>) -> ValueSet<T> {
        if other.is_empty() {
            return self.clone();
        }
        if self.ptr_eq(other) {
            return ValueSet::new();
        }
        let (a, b) = (&self.items[..], &other.items[..]);
        let mut out = Vec::new();
        let mut wire = 0;
        let mut j = 0;
        for x in a {
            // bgla-lint: allow(byzantine-panic, "merge-walk cursor guarded by j < b.len()")
            while j < b.len() && b[j] < *x {
                j += 1;
            }
            // bgla-lint: allow(byzantine-panic, "merge-walk cursor guarded by the j == b.len() check")
            if j == b.len() || b[j] != *x {
                wire += x.wire_size();
                out.push(x.clone());
            }
        }
        ValueSet::measured(out, wire)
    }

    /// Retains only the elements `keep` accepts, measuring only those it
    /// drops (used by the conflict-pruning paths, which are rare and drop
    /// little). A set that loses nothing keeps its allocation.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        // Single pass: `keep` is `FnMut`, so a stateful predicate must
        // see each element exactly once.
        let mut wire = self.wire;
        let kept: Vec<T> = self
            .items
            .iter()
            .filter(|v| {
                let stays = keep(v);
                if !stays {
                    wire -= v.wire_size();
                }
                stays
            })
            .cloned()
            .collect();
        if kept.len() < self.len() {
            *self = ValueSet::measured(kept, wire);
        }
    }

    /// Whether `self` is exactly `a ∪ b` with `a ∩ b = ∅`, allocating
    /// nothing: this is how a set already held is confirmed to be the one
    /// a delta describes, instead of building it. Walks the smaller part;
    /// between two of its elements `self` must repeat a run of the larger
    /// part, which is one slice comparison.
    pub fn is_disjoint_union(&self, a: &ValueSet<T>, b: &ValueSet<T>) -> bool {
        if a.len() + b.len() != self.len() {
            return false;
        }
        let (few, many) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if self.ptr_eq(many) {
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
}

impl<T: SetItem> Default for ValueSet<T> {
    fn default() -> Self {
        ValueSet::new()
    }
}

impl<T: SetItem> Clone for ValueSet<T> {
    fn clone(&self) -> Self {
        ValueSet {
            items: Arc::clone(&self.items),
            wire: self.wire,
        }
    }
}

impl<T: SetItem> PartialEq for ValueSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.items == other.items
    }
}
impl<T: SetItem> Eq for ValueSet<T> {}

impl<T: SetItem> PartialOrd for ValueSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: SetItem> Ord for ValueSet<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.ptr_eq(other) {
            return std::cmp::Ordering::Equal;
        }
        self.items.cmp(&other.items)
    }
}

impl<T: SetItem + std::hash::Hash> std::hash::Hash for ValueSet<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.items.hash(state)
    }
}

impl<T: SetItem + std::fmt::Debug> std::fmt::Debug for ValueSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<T: SetItem> FromIterator<T> for ValueSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items: Vec<T> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        ValueSet::from_sorted(items)
    }
}

impl<T: SetItem> From<BTreeSet<T>> for ValueSet<T> {
    fn from(set: BTreeSet<T>) -> Self {
        ValueSet::from_sorted(set.into_iter().collect())
    }
}

impl<'a, T: SetItem> IntoIterator for &'a ValueSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T: SetItem> IntoIterator for ValueSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        match Arc::try_unwrap(self.items) {
            Ok(vec) => vec.into_iter(),
            Err(arc) => (*arc).clone().into_iter(),
        }
    }
}

impl<T: SetItem + bgla_crypto::ToBytes> bgla_crypto::ToBytes for ValueSet<T> {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        (self.len() as u64).write_bytes(out);
        for v in self.iter() {
            v.write_bytes(out);
        }
    }
}

/// Canonical codec form: length-prefixed elements in strictly ascending
/// order.
impl<T: SetItem + Wire> Wire for ValueSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.items.len());
        for v in self.items.iter() {
            v.encode(w);
        }
    }
    /// Decoding enforces the strict-sort invariant rather than
    /// re-canonicalizing: a shuffled or duplicated encoding is rejected,
    /// keeping the codec injective (required by the content-addressed
    /// proof store) and the constructor's invariant airtight.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let mut items: Vec<T> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = T::decode(r)?;
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

impl<T: SetItem + Wire> Wire for SetUpdate<T> {
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

/// A proposal payload: either the full set or only the elements added
/// since a base the receiver is known to hold. See the module docs for
/// the wire format.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SetUpdate<T: SetItem> {
    /// The whole set (first contact / gap fallback).
    Full(ValueSet<T>),
    /// Only the additions relative to the proposal this receiver
    /// consumed at `base_ts`.
    Delta {
        /// Timestamp of the base proposal the receiver already holds.
        base_ts: u64,
        /// `current ∖ base`.
        added: ValueSet<T>,
    },
}

impl<T: SetItem> SetUpdate<T> {
    /// Encoded size (see module docs).
    pub fn wire_size(&self) -> usize {
        match self {
            SetUpdate::Full(set) => 1 + set.wire_size(),
            SetUpdate::Delta { base_ts, added } => 1 + var_len(*base_ts) + added.wire_size(),
        }
    }

    /// Number of elements carried (diagnostics).
    pub fn carried(&self) -> usize {
        match self {
            SetUpdate::Full(set) => set.len(),
            SetUpdate::Delta { added, .. } => added.len(),
        }
    }
}

/// Snapshots retained by a [`DeltaSender`]; refinements are bounded (≤ f
/// per one-shot instance, ≤ f per generalized round) but the generalized
/// algorithms' timestamps grow with the stream, so old snapshots must
/// not accumulate.
const SENDER_SNAPSHOT_CAP: usize = 32;

/// Per-proposer consumed proposals retained by a [`DeltaReceiver`], and
/// the freshness window within which a [`DeltaSender`] may delta.
///
/// Resolvability invariant: a receiver records at most one base per
/// distinct timestamp of a proposer and prunes to the newest
/// `BASE_WINDOW`, so a base at `base_ts` survives as long as fewer than
/// `BASE_WINDOW` larger timestamps were consumed — guaranteed while
/// `current_ts − base_ts < BASE_WINDOW`. The sender enforces exactly
/// that bound in [`DeltaSender::encode_for`] (falling back to `Full`
/// otherwise), which is why a gap on an unknown *base* can only come
/// from a Byzantine sender.
const BASE_WINDOW: usize = 8;

// Every base a correct sender may delta against still has its snapshot.
const _: () = assert!(SENDER_SNAPSHOT_CAP >= BASE_WINDOW);

/// Proposer-side delta bookkeeping: snapshots of `Proposed_set` by
/// timestamp plus each acceptor's newest replied-to timestamp.
#[derive(Debug, Default)]
pub struct DeltaSender<T: SetItem> {
    /// ts → `Proposed_set` at that ts (`O(1)` clones make this cheap).
    snapshots: BTreeMap<u64, ValueSet<T>>,
    /// Acceptor → newest ts it acked/nacked (proof it holds snapshot(ts)).
    last_replied: BTreeMap<ProcessId, u64>,
}

impl<T: SetItem> DeltaSender<T> {
    /// Fresh sender state: no snapshots, no reply seen.
    pub fn new() -> Self {
        DeltaSender {
            snapshots: BTreeMap::new(),
            last_replied: BTreeMap::new(),
        }
    }

    /// Records the proposal broadcast at `ts` (call once per broadcast,
    /// before encoding per-acceptor updates).
    pub fn record_broadcast(&mut self, ts: u64, set: &ValueSet<T>) {
        self.snapshots.insert(ts, set.clone());
        while self.snapshots.len() > SENDER_SNAPSHOT_CAP {
            self.snapshots.pop_first();
        }
    }

    /// The set broadcast at `ts`, while it is retained.
    pub fn snapshot(&self, ts: u64) -> Option<&ValueSet<T>> {
        self.snapshots.get(&ts)
    }

    /// Records that `from` replied (ack or nack) to the proposal of
    /// `ts` — it therefore holds that proposal, which is returned.
    /// Ignores (`None`) timestamps we never broadcast (Byzantine claims)
    /// or no longer retain.
    pub fn record_reply(&mut self, from: ProcessId, ts: u64) -> Option<&ValueSet<T>> {
        let snapshot = self.snapshots.get(&ts)?;
        let e = self.last_replied.entry(from).or_insert(ts);
        *e = (*e).max(ts);
        Some(snapshot)
    }

    /// Forgets what `to` replied to: until it replies again it is on
    /// first contact.
    pub fn forget_peer(&mut self, to: ProcessId) {
        self.last_replied.remove(&to);
    }

    /// Encodes the proposal `current` (broadcast at `ts`) for acceptor
    /// `to`: a delta against the newest set `to` replied to when
    /// possible; the full set on first contact, on a pruned base, or
    /// when the base is too far behind for the receiver to still hold
    /// it (see `BASE_WINDOW` — this bound is what makes a
    /// receiver-side gap a reliable Byzantine signal).
    pub fn encode_for(&self, to: ProcessId, ts: u64, current: &ValueSet<T>) -> SetUpdate<T> {
        self.encode_with(to, ts, current, &mut Vec::new())
    }

    /// [`Self::encode_for`] for every acceptor `0..n` of one broadcast,
    /// indexed by acceptor. Acceptors on the same base share one set of
    /// additions: the difference is taken once per distinct base.
    pub fn encode_broadcast(&self, n: usize, ts: u64, current: &ValueSet<T>) -> Vec<SetUpdate<T>> {
        let mut added_since = Vec::new();
        (0..n)
            .map(|to| self.encode_with(to, ts, current, &mut added_since))
            .collect()
    }

    /// `added_since` holds `current ∖ snapshot(base_ts)` for the bases
    /// this broadcast has met so far. A broadcast meets at most `n`
    /// bases: a scan beats a map.
    fn encode_with(
        &self,
        to: ProcessId,
        ts: u64,
        current: &ValueSet<T>,
        added_since: &mut Vec<(u64, ValueSet<T>)>,
    ) -> SetUpdate<T> {
        let base = self
            .last_replied
            .get(&to)
            .and_then(|base_ts| self.snapshots.get(base_ts).map(|s| (*base_ts, s)));
        let Some((base_ts, base)) =
            base.filter(|(at, _)| ts.saturating_sub(*at) < BASE_WINDOW as u64)
        else {
            return SetUpdate::Full(current.clone());
        };
        let added = match added_since.iter().find(|(at, _)| *at == base_ts) {
            Some((_, known)) => known.clone(),
            None => {
                let fresh = current.difference(base);
                added_since.push((base_ts, fresh.clone()));
                fresh
            }
        };
        SetUpdate::Delta { base_ts, added }
    }
}

/// Acceptor-side delta bookkeeping: the proposals actually consumed,
/// keyed by `(proposer, ts)`, so later deltas can be resolved.
#[derive(Debug, Default)]
pub struct DeltaReceiver<T: SetItem> {
    bases: BTreeMap<(ProcessId, u64), ValueSet<T>>,
}

impl<T: SetItem> DeltaReceiver<T> {
    /// Fresh receiver state.
    pub fn new() -> Self {
        DeltaReceiver {
            bases: BTreeMap::new(),
        }
    }

    /// Resolves an update from `from` into the full proposal. `None`
    /// means a detected gap: a delta whose base we do not hold (only
    /// Byzantine senders produce these — drop the message).
    pub fn resolve(&self, from: ProcessId, update: &SetUpdate<T>) -> Option<ValueSet<T>> {
        match update {
            SetUpdate::Full(set) => Some(set.clone()),
            SetUpdate::Delta { base_ts, added } => {
                self.base(from, *base_ts).map(|base| base.join(added))
            }
        }
    }

    /// The proposal of `from` consumed at `ts`, while it is retained.
    pub fn base(&self, from: ProcessId, ts: u64) -> Option<&ValueSet<T>> {
        self.bases.get(&(from, ts))
    }

    /// Records that the proposal `set` from `from` at `ts` was consumed
    /// (we are about to reply to it), making it a valid delta base.
    pub fn record(&mut self, from: ProcessId, ts: u64, set: &ValueSet<T>) {
        self.bases.insert((from, ts), set.clone());
        // Retain only the newest few bases per proposer.
        let of_proposer = (from, 0)..=(from, u64::MAX);
        let held = self.bases.range(of_proposer.clone()).count();
        for _ in BASE_WINDOW..held {
            if let Some((&oldest, _)) = self.bases.range(of_proposer.clone()).next() {
                self.bases.remove(&oldest);
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
    fn clone_shares_the_allocation() {
        let a = vs(&[1, 2, 3]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.items, &b.items));
        assert_eq!(a, b);
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
        let mut z: ValueSet<u64> = ValueSet::new();
        assert!(z.join_with(&big));
        assert!(Arc::ptr_eq(&z.items, &big.items), "so does an empty side");
    }

    #[test]
    fn subset_and_difference() {
        let a = vs(&[1, 2, 3, 4]);
        let b = vs(&[2, 4]);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert_eq!(a.difference(&b).as_slice(), &[1, 3]);
        assert_eq!(a.difference(&b).wire_size(), 1 + 16);
        assert_eq!(b.difference(&a).as_slice(), &[] as &[u64]);
        assert!(a.difference(&a.clone()).is_empty());
        assert!(a.difference(&ValueSet::new()).ptr_eq(&a));
    }

    #[test]
    fn retain_rebuilds_only_on_change() {
        let mut a = vs(&[1, 2, 3, 4]);
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
        let mut a = vs(&[1, 2, 3, 4]);
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
    /// have pruned: once the base falls BASE_WINDOW behind the
    /// current timestamp, encoding falls back to Full (regression for
    /// the slow-acceptor gap misclassification).
    #[test]
    fn stale_base_falls_back_to_full() {
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        tx.record_broadcast(0, &vs(&[1]));
        tx.record_reply(5, 0);
        // Within the window: delta against ts 0 is fine.
        let near = BASE_WINDOW as u64 - 1;
        tx.record_broadcast(near, &vs(&[1, 2]));
        assert!(matches!(
            tx.encode_for(5, near, &vs(&[1, 2])),
            SetUpdate::Delta { base_ts: 0, .. }
        ));
        // At the window edge the receiver may have pruned base 0: Full.
        let far = BASE_WINDOW as u64;
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
        for ts in 1..=BASE_WINDOW as u64 {
            rx.record(9, ts, &vs(&[1, ts]));
        }
        let delta0 = SetUpdate::Delta {
            base_ts: 0,
            added: vs(&[7]),
        };
        assert!(rx.resolve(9, &delta0).is_none(), "base 0 must be pruned");
        let delta_recent = SetUpdate::Delta {
            base_ts: BASE_WINDOW as u64,
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
        assert!(rx.bases.len() <= BASE_WINDOW);
        rx.record(6, 0, &vs(&[1]));
        assert_eq!(
            rx.bases.range((6, 0)..=(6, u64::MAX)).count(),
            1,
            "per-proposer cap must not evict other proposers' bases"
        );
    }
}
