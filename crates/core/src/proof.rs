//! First-class, content-addressed proof-of-safety handles.
//!
//! A proof of safety is a quorum of signed safe-acks certifying one
//! safetying exchange; every value that exchange certified shares the
//! same proof (the paper's `<v, Safe_acks>` pairs). PR 1 shared proofs
//! through a bare `Arc<Vec<_>>`, which left two costs on the hot path:
//!
//! * deduplication (in `AllSafe` and in wire-size accounting) compared
//!   `Arc::as_ptr` identities with an `O(k²)` `Vec::contains` scan, and
//!   pointer identity misses *semantically identical* proofs arriving
//!   through different allocations;
//! * every verification re-serialized and re-hashed each ack just to
//!   probe the signature cache.
//!
//! [`Proof`] wraps the shared ack vector and **interns** its identity at
//! construction: a [`ProofId`] — the content hash of the ack multiset
//! (see [`bgla_crypto::proofstore`]) — plus the modeled wire size, both
//! computed exactly once. Because the only way to build a `Proof` is
//! [`Proof::new`], an id always matches its content — adversaries
//! construct through the same constructor and cannot attach a mismatched
//! id (the analogue of a receiver recomputing the hash after
//! deserializing).
//!
//! Downstream, deduplication becomes a hash lookup and the per-process
//! [`bgla_crypto::ProofCache`] memoizes full verification verdicts by
//! id — see the caching contract in [`bgla_crypto::proofstore`].

use crate::valueset::{SetItem, ValueSet};
use bgla_codec::{var_len, CodecError, Reader, Wire, Writer};
use bgla_crypto::{ProofId, ProofIdBuilder};
use std::sync::Arc;

/// An ack that can be part of a [`Proof`]: supplies the canonical bytes
/// the content address binds (content *and* signature) and its modeled
/// wire size.
pub trait ProofAck: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Writes the canonical bytes of this ack (everything verification
    /// depends on, including the signature).
    fn digest_bytes(&self, out: &mut Vec<u8>);

    /// Modeled serialized size of this ack in bytes.
    fn wire_size(&self) -> usize;
}

/// A shared proof of safety with an interned content address and cached
/// wire size. Clone is `O(1)`.
pub struct Proof<A: ProofAck> {
    acks: Arc<Vec<A>>,
    // bgla-lint: allow(wire-coverage, "content address; recomputed from the acks by Proof::new during decode")
    id: ProofId,
    // bgla-lint: allow(wire-coverage, "derived size cache; recomputed from the acks by Proof::new during decode")
    wire: usize,
}

impl<A: ProofAck> Proof<A> {
    /// Builds a proof, computing its content address and wire size once.
    pub fn new(acks: Vec<A>) -> Self {
        let mut builder = ProofIdBuilder::new();
        let mut buf = Vec::new();
        let mut wire = var_len(acks.len() as u64);
        for ack in &acks {
            buf.clear();
            ack.digest_bytes(&mut buf);
            builder.add_ack(&buf);
            wire += ack.wire_size();
        }
        Proof {
            acks: Arc::new(acks),
            id: builder.finish(),
            wire,
        }
    }

    /// The interned content address.
    pub fn id(&self) -> ProofId {
        self.id
    }

    /// Number of acks.
    pub fn len(&self) -> usize {
        self.acks.len()
    }

    /// Whether the proof is empty (never valid, but constructible).
    pub fn is_empty(&self) -> bool {
        self.acks.is_empty()
    }

    /// Iterates the acks.
    pub fn iter(&self) -> std::slice::Iter<'_, A> {
        self.acks.iter()
    }

    /// The acks as a slice.
    pub fn as_slice(&self) -> &[A] {
        &self.acks
    }

    /// Cached modeled wire size of the whole ack vector, its length
    /// prefix included (`O(1)`).
    pub fn wire_size(&self) -> usize {
        self.wire
    }
}

impl<A: ProofAck> Clone for Proof<A> {
    fn clone(&self) -> Self {
        Proof {
            acks: Arc::clone(&self.acks),
            id: self.id,
            wire: self.wire,
        }
    }
}

/// Proofs compare by content address: structurally identical proofs are
/// equal even through different allocations (ack order included — the id
/// is a multiset hash).
impl<A: ProofAck> PartialEq for Proof<A> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<A: ProofAck> Eq for Proof<A> {}

impl<A: ProofAck> std::fmt::Debug for Proof<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proof")
            .field("id", &self.id)
            .field("acks", &self.acks)
            .finish()
    }
}

impl<'a, A: ProofAck> IntoIterator for &'a Proof<A> {
    type Item = &'a A;
    type IntoIter = std::slice::Iter<'a, A>;
    fn into_iter(self) -> Self::IntoIter {
        self.acks.iter()
    }
}

/// Codec form: just the ack vector. The content address is *never* on
/// the wire — decoding rebuilds through [`Proof::new`], which recomputes
/// the id from the decoded acks, preserving the constructor's invariant
/// that an id always matches its content (a snapshot, like a network
/// peer, cannot attach a mismatched id).
impl<A: ProofAck + Wire> Wire for Proof<A> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.acks.len());
        for ack in self.acks.iter() {
            ack.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let mut acks = Vec::with_capacity(n);
        for _ in 0..n {
            acks.push(A::decode(r)?);
        }
        Ok(Proof::new(acks))
    }
}

/// A signed record two of which can contradict each other: one signer
/// vouching for two different contents — what a safe-ack reports and a
/// proof of safety must be free of.
pub trait Conflicting: SetItem {
    /// Whether `self` and `other` are such a pair (`VerifyConfPair`
    /// checks signatures too; that is done at verification sites).
    fn conflicts_with(&self, other: &Self) -> bool;
}

/// Lists the conflicting pairs within `set` (Algorithm 10's
/// `ReturnConflicts`).
pub fn return_conflicts<T: Conflicting>(set: &ValueSet<T>) -> Vec<(T, T)> {
    let mut out = Vec::new();
    for (i, a) in set.iter().enumerate() {
        for b in set.iter().skip(i + 1) {
            if a.conflicts_with(b) {
                out.push((a.clone(), b.clone()));
            }
        }
    }
    out
}

/// `set` without any member of a conflicting pair (Algorithm 10's
/// `RemoveConflicts`). Returns the input handle when nothing conflicts
/// (the common case).
pub fn remove_conflicts<T: Conflicting>(set: &ValueSet<T>) -> ValueSet<T> {
    let conflicts = return_conflicts(set);
    let mut out = set.clone();
    if !conflicts.is_empty() {
        out.retain(|x| !conflicts.iter().any(|(a, b)| a == x || b == x));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ProofAck for u64 {
        fn digest_bytes(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn identity_is_content_addressed() {
        let a = Proof::new(vec![1u64, 2, 3]);
        let b = Proof::new(vec![3u64, 1, 2]);
        let c = Proof::new(vec![1u64, 2, 4]);
        assert_eq!(a.id(), b.id(), "ack order must not matter");
        assert_eq!(a, b);
        assert_ne!(a.id(), c.id());
        assert_eq!(a.wire_size(), 1 + 24);
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = Proof::new(vec![7u64]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.acks, &b.acks));
        assert_eq!(a.id(), b.id());
    }
}
