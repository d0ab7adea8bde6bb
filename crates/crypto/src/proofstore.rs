//! Content-addressed proof-of-safety interning.
//!
//! The signature-based algorithms (paper Section 8) attach a *proof of
//! safety* — a quorum of signed safe-acks — to every value they propose.
//! Proofs are `O(n²)` bytes and travel with every `ack_req`/`nack`, and
//! Byzantine peers may re-send them arbitrarily often; verifying a proof
//! from scratch on every delivery multiplies the paper's already-stated
//! per-message cost by the redelivery count.
//!
//! This module gives every proof a stable **content address**:
//!
//! * [`ProofId`] — a 16-byte digest of the *multiset* of acks making up
//!   the proof. Two proofs with the same acks in any order get the same
//!   id; changing any byte of any ack (content or signature) changes it.
//! * [`ProofIdBuilder`] — the incremental hasher callers feed each ack's
//!   `Wire` encoding into (its echo and signature included).
//! * [`ProofCache`] — a bounded per-process LRU map `ProofId → verdict`
//!   memoizing the outcome of full-proof verification.
//! * [`ProofResolver`] — a bounded per-process LRU map `ProofId → proof
//!   handle` over which peers can ship proofs **by reference**: a
//!   proof-carrying delta names an already-delivered proof by its 16-byte
//!   id instead of re-shipping its `O(n²)` bytes, and the receiver
//!   reconstructs the full payload with one hash lookup per reference
//!   (no re-verification — the [`ProofCache`] verdict already covers a
//!   resolved proof).
//!
//! # Caching contract
//!
//! A cached verdict must depend **only** on the proof's content (and on
//! per-process constants such as the quorum size) — never on the value
//! the proof arrives attached to. Concretely, the verdict may fold in:
//!
//! * quorum size (`|acks| ≥ ⌊(n+f)/2⌋ + 1` — `n`, `f` are fixed per
//!   process),
//! * signer distinctness across the acks,
//! * signature validity of every ack.
//!
//! Checks that relate the proof to a *particular* value — "every ack
//! echoes this value", "no ack reports a conflict for it", "the ack
//! round matches the batch round" — are pair checks and must be re-run
//! per `(value, proof)` even on a cache hit. They are pure comparisons
//! (no crypto, no serialization), so re-running them is cheap.
//!
//! Negative verdicts are cached too: a forged proof costs one batched
//! signature verification the first time and a single hash lookup on
//! every redelivery. This is sound for the same reason positive caching
//! is — the verdict is a deterministic function of the content the id
//! binds.
//!
//! Note the relationship to [`crate::sigcache::SigCache`]: the sig-cache
//! memoizes *individual signature* verdicts keyed by
//! `(signer, msg-hash, sig)` — the message hash stays in that key so a
//! replayed signature cannot validate different content (the PR-1
//! soundness fix). The proof cache sits *above* it and memoizes the
//! aggregate verdict, eliminating even the serialize-and-hash work a
//! sig-cache hit still pays per ack.

use crate::lru::{LruMap, LruVerdicts};
use crate::sha512::sha512;

/// Content address of a proof of safety: digest of its ack multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProofId(pub [u8; 16]);

/// Incremental [`ProofId`] hasher.
///
/// Feed each ack's `Wire` encoding (content *and* signature) to
/// [`ProofIdBuilder::add_ack`]; [`ProofIdBuilder::finish`] sorts the
/// per-ack digests before the final hash, so the id is invariant under
/// ack reordering (a proof is a multiset, not a sequence).
#[derive(Debug, Default)]
pub struct ProofIdBuilder {
    digests: Vec<[u8; 16]>,
}

impl ProofIdBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        ProofIdBuilder::default()
    }

    /// Absorbs one ack's encoding.
    pub fn add_ack(&mut self, ack_bytes: &[u8]) {
        let d = sha512(ack_bytes);
        let mut out = [0u8; 16];
        out.copy_from_slice(&d[..16]);
        self.digests.push(out);
    }

    /// Finalizes the multiset digest.
    pub fn finish(mut self) -> ProofId {
        self.digests.sort_unstable();
        let mut cat = Vec::with_capacity(16 * self.digests.len() + 8);
        cat.extend_from_slice(&(self.digests.len() as u64).to_le_bytes());
        for d in &self.digests {
            cat.extend_from_slice(d);
        }
        let d = sha512(&cat);
        let mut out = [0u8; 16];
        out.copy_from_slice(&d[..16]);
        ProofId(out)
    }
}

/// Bounded LRU cache of full-proof verdicts, keyed by [`ProofId`].
///
/// Shares [`crate::sigcache::SigCache`]'s eviction mechanics (the
/// crate-internal `LruVerdicts`): when full, the least-recently-used
/// quarter is dropped in one amortized sweep, so a flood of distinct
/// forged proofs cannot grow the map without bound.
#[derive(Debug)]
pub struct ProofCache {
    map: LruVerdicts<ProofId>,
    hits: u64,
    misses: u64,
}

impl ProofCache {
    /// Cache with room for `cap` verdicts.
    pub fn new(cap: usize) -> Self {
        ProofCache {
            map: LruVerdicts::new(cap),
            hits: 0,
            misses: 0,
        }
    }

    /// Cached verdict for `id`, refreshing its recency.
    pub fn get(&mut self, id: ProofId) -> Option<bool> {
        let got = self.map.get(&id);
        match got {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        got
    }

    /// Stores a verdict, evicting the least-recently-used quarter of the
    /// cache when full.
    pub fn put(&mut self, id: ProofId, ok: bool) {
        self.map.put(id, ok);
    }

    /// Number of cached verdicts (diagnostics).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// `(hits, misses)` lookup counters (diagnostics / tests).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Default for ProofCache {
    /// Capacity suiting per-process protocol state: at most a few
    /// distinct proofs per proposer per refinement, times generous
    /// slack for Byzantine noise.
    fn default() -> Self {
        ProofCache::new(1024)
    }
}

/// Bounded per-process store of proof *handles*, keyed by [`ProofId`] —
/// the lookup table behind **proof-by-reference** delta payloads.
///
/// A process registers every proof it has verified and retained (its own
/// assembled proofs, plus those of every proposal or nack it consumed).
/// When a peer later ships a delta naming one of those proofs by id, the
/// receiver resolves the reference with one hash lookup and reattaches
/// its own handle; an unresolvable id is a **delta gap** — the receiver
/// falls back to requesting the full payload (correct senders only
/// reference proofs the receiver demonstrably delivered, so in practice
/// gaps come from Byzantine senders or from eviction on pathologically
/// long runs, and the fallback covers both).
///
/// The generic parameter is the caller's proof-handle type (e.g.
/// `bgla_core`'s `Proof<A>`, an `Arc`-backed handle with `O(1)` clone);
/// this crate only supplies the id-keyed storage and the shared LRU
/// mechanics. Entries hold the handle *strongly*: resolvability must not
/// depend on whether the protocol state still happens to share the
/// allocation, only on the bounded recency window — which is what makes
/// a reference by a correct sender reliable. When full, the
/// least-recently-used quarter is evicted in one amortized sweep, so a
/// flood of distinct Byzantine proofs cannot grow the store without
/// bound.
#[derive(Debug)]
pub struct ProofResolver<P: Clone> {
    map: LruMap<ProofId, P>,
}

impl<P: Clone> ProofResolver<P> {
    /// Resolver with room for `cap` proof handles.
    pub fn new(cap: usize) -> Self {
        ProofResolver {
            map: LruMap::new(cap),
        }
    }

    /// Registers a proof handle under its id (refreshing recency when
    /// already present).
    pub fn register(&mut self, id: ProofId, proof: P) {
        self.map.put(id, proof);
    }

    /// Resolves a reference to a registered handle, refreshing its
    /// recency. `None` is a detected delta gap.
    pub fn resolve(&mut self, id: ProofId) -> Option<P> {
        self.map.get(&id)
    }

    /// Number of registered proofs (diagnostics).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the resolver is empty.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// All registered `(id, handle)` pairs, least-recently-used first.
    ///
    /// This is the resolver's durable view: a crash-recovery snapshot
    /// serializes the pairs in this order, and re-[`register`]ing them
    /// in the same order on restore reproduces both the contents and
    /// the eviction (recency) ordering of the original resolver.
    ///
    /// [`register`]: ProofResolver::register
    pub fn entries(&self) -> Vec<(ProofId, P)> {
        self.map
            .entries_by_recency()
            .into_iter()
            .map(|(id, p)| (*id, p.clone()))
            .collect()
    }
}

impl<P: Clone> Default for ProofResolver<P> {
    /// Capacity sized like [`ProofCache`] but larger: the resolver must
    /// keep every proof a correct peer may still reference across the
    /// bounded delta window, Byzantine noise included.
    fn default() -> Self {
        ProofResolver::new(2048)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id_of(acks: &[&[u8]]) -> ProofId {
        let mut b = ProofIdBuilder::new();
        for a in acks {
            b.add_ack(a);
        }
        b.finish()
    }

    #[test]
    fn id_is_order_invariant() {
        assert_eq!(id_of(&[b"a", b"b", b"c"]), id_of(&[b"c", b"a", b"b"]));
    }

    #[test]
    fn id_binds_content_and_multiplicity() {
        assert_ne!(id_of(&[b"a", b"b"]), id_of(&[b"a", b"c"]));
        assert_ne!(id_of(&[b"a"]), id_of(&[b"a", b"a"]));
        assert_ne!(id_of(&[]), id_of(&[b"a"]));
    }

    #[test]
    fn cache_round_trips_both_verdicts() {
        let mut c = ProofCache::new(8);
        let good = id_of(&[b"good"]);
        let bad = id_of(&[b"bad"]);
        assert_eq!(c.get(good), None);
        c.put(good, true);
        c.put(bad, false);
        assert_eq!(c.get(good), Some(true));
        assert_eq!(c.get(bad), Some(false));
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn eviction_keeps_recent_entries() {
        let mut c = ProofCache::new(16);
        let ids: Vec<ProofId> = (0..40u8).map(|i| id_of(&[&[i]])).collect();
        for id in &ids {
            c.put(*id, true);
        }
        assert!(c.len() <= 16);
        assert_eq!(c.get(ids[39]), Some(true));
    }

    #[test]
    fn resolver_round_trips_handles() {
        let mut r: ProofResolver<&'static str> = ProofResolver::new(8);
        let id = id_of(&[b"ack"]);
        assert_eq!(r.resolve(id), None, "unknown id is a gap");
        r.register(id, "proof");
        assert_eq!(r.resolve(id), Some("proof"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn resolver_eviction_is_bounded_and_recency_based() {
        let mut r: ProofResolver<u8> = ProofResolver::new(16);
        let ids: Vec<ProofId> = (0..40u8).map(|i| id_of(&[&[i]])).collect();
        for (i, id) in ids.iter().enumerate() {
            r.register(*id, i as u8);
        }
        assert!(r.len() <= 16);
        assert_eq!(r.resolve(ids[39]), Some(39));
        assert_eq!(r.resolve(ids[0]), None, "oldest entries are evicted");
    }
}
