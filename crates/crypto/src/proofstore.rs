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
//! * [`ProofResolver`] — a bounded per-process LRU map `ProofId → proof
//!   handle` over which peers can ship proofs **by reference**: a
//!   proof-carrying delta names an already-delivered proof by its 16-byte
//!   id instead of re-shipping its `O(n²)` bytes, and the receiver
//!   reconstructs the full payload with one hash lookup per reference.
//!   It is also the process's one record of which proofs it verified.
//!
//! # Caching contract
//!
//! An entry's *verified* bit stands for the record-independent checks
//! of its proof only, which depend on nothing but the proof's content
//! (and on per-process constants such as the quorum size):
//!
//! * quorum size (`|acks| ≥ ⌊(n+f)/2⌋ + 1` — `n`, `f` are fixed per
//!   process),
//! * signer distinctness across the acks,
//! * signature validity of every ack and of every record the acks echo.
//!
//! [`ProofResolver::register`] sets it, for a proof that passed those
//! checks inside a set the process consumed, or that the process
//! assembled itself; [`ProofResolver::restore`] leaves it unset, so a
//! restarted process checks each restored proof once more. Checks that
//! relate the proof to a *particular* record — "every ack echoes this
//! record", "no ack reports a conflict for it", "the ack round matches
//! the batch round" — are pair checks and re-run per `(record, proof)`
//! even for a verified proof. They are pure comparisons (no crypto, no
//! serialization), so re-running them is cheap.
//!
//! Failures are not recorded here: a proof that fails is answered again
//! by the per-signature verdicts of [`crate::CachedVerifier`], keyed by
//! `(signer, msg-hash, sig)` — the message hash stays in that key so a
//! replayed signature cannot validate different content — so a forged
//! proof costs one batched verification the first time and no
//! signature work on any redelivery.

use crate::lru::LruMap;
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

/// Bounded per-process store of proof *handles*, keyed by [`ProofId`] —
/// the lookup table behind **proof-by-reference** delta payloads, and
/// the record of which proofs the process verified.
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
/// Each entry carries a *verified* bit (see the module's caching
/// contract): [`Self::register`] sets it, [`Self::restore`] does not.
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
    map: LruMap<ProofId, (P, bool)>,
}

impl<P: Clone> ProofResolver<P> {
    /// Resolver with room for `cap` proof handles.
    pub fn new(cap: usize) -> Self {
        ProofResolver {
            map: LruMap::new(cap),
        }
    }

    /// Registers a verified proof handle under its id (refreshing
    /// recency when already present).
    pub fn register(&mut self, id: ProofId, proof: P) {
        self.map.put(id, (proof, true));
    }

    /// Puts back a handle read from a snapshot, not yet verified by this
    /// process image.
    pub fn restore(&mut self, id: ProofId, proof: P) {
        self.map.put(id, (proof, false));
    }

    /// Whether `id` is held as verified. Leaves recency alone, so a
    /// check does not reorder what a snapshot writes.
    pub fn verified(&self, id: ProofId) -> bool {
        self.map.peek(&id).is_some_and(|(_, verified)| *verified)
    }

    /// Resolves a reference to a held handle, refreshing its recency.
    /// `None` is a detected delta gap.
    pub fn resolve(&mut self, id: ProofId) -> Option<P> {
        self.map.get(&id).map(|(proof, _)| proof)
    }

    /// All held `(id, handle)` pairs, least-recently-used first.
    ///
    /// This is the resolver's durable view: a crash-recovery snapshot
    /// serializes the pairs in this order, and [`Self::restore`]ing them
    /// in the same order reproduces both the contents and the eviction
    /// (recency) ordering of the original resolver.
    pub fn entries(&self) -> Vec<(ProofId, P)> {
        self.map
            .entries_by_recency()
            .into_iter()
            .map(|(id, (proof, _))| (*id, proof.clone()))
            .collect()
    }
}

impl<P: Clone> Default for ProofResolver<P> {
    /// Room for every proof a correct peer may still reference across
    /// the bounded delta window, Byzantine noise included.
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
    fn resolver_round_trips_handles() {
        let mut r: ProofResolver<&'static str> = ProofResolver::new(8);
        let id = id_of(&[b"ack"]);
        assert_eq!(r.resolve(id), None, "unknown id is a gap");
        r.register(id, "proof");
        assert_eq!(r.resolve(id), Some("proof"));
        assert_eq!(r.entries(), [(id, "proof")]);
    }

    #[test]
    fn only_registered_proofs_are_verified() {
        let mut r: ProofResolver<u8> = ProofResolver::new(8);
        let [a, b] = [id_of(&[b"a"]), id_of(&[b"b"])];
        r.restore(a, 1);
        r.register(b, 2);
        assert!(r.verified(b));
        assert!(!r.verified(id_of(&[b"c"])), "unknown");
        assert!(!r.verified(a), "a restored proof is checked again");
        // The check leaves recency alone; registering sets the bit.
        assert_eq!(r.entries(), [(a, 1), (b, 2)]);
        r.register(a, 1);
        assert!(r.verified(a));
        assert_eq!(r.entries(), [(b, 2), (a, 1)]);
    }

    #[test]
    fn resolver_eviction_is_bounded_and_recency_based() {
        let mut r: ProofResolver<u8> = ProofResolver::new(16);
        let ids: Vec<ProofId> = (0..40u8).map(|i| id_of(&[&[i]])).collect();
        for (i, id) in ids.iter().enumerate() {
            r.register(*id, i as u8);
        }
        assert!(r.entries().len() <= 16);
        assert_eq!(r.resolve(ids[39]), Some(39));
        assert_eq!(r.resolve(ids[0]), None, "oldest entries are evicted");
    }
}
