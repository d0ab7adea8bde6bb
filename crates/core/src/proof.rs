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
//! (see [`bgla_crypto::proofstore`]) — plus the wire size, both
//! computed exactly once. On the wire a proof says its acks' shared
//! echo once (see the codec form on [`Proof`]'s `Wire` impl), and inside
//! a proven payload it does not say again what the payload says: an echo
//! element that is one of the payload's records is named by that
//! record's position ([`crate::provendelta`]'s wire format). Because
//! the only way to build a `Proof` is
//! [`Proof::new`], an id always matches its content — adversaries
//! construct through the same constructor and cannot attach a mismatched
//! id (the analogue of a receiver recomputing the hash after
//! deserializing).
//!
//! Downstream, deduplication becomes a hash lookup, and the per-process
//! [`bgla_crypto::ProofResolver`] records by id which proofs were
//! verified — see the caching contract in [`bgla_crypto::proofstore`].

use crate::valueset::{SetItem, ValueSet};
use bgla_codec::{encode_payload, CodecError, Reader, Wire, Writer};
use bgla_crypto::{ProofId, ProofIdBuilder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An ack that can be part of a [`Proof`]: a signed safe-ack
/// ([`crate::safetying::SafeAck`]), which echoes the request set it
/// answers. Its encoding — the echo, then the reply — is what the
/// content address binds (content *and* signature). Supplies its echo,
/// and its form without the echo: what a safe-ack reply ships, and what a
/// proof ships per ack beside a reference to its echo; and what checking
/// a proof takes ([`crate::provendelta::ProofPath`]): the values a record
/// carries and the pair check [`ProofAck::covers`].
pub trait ProofAck: Wire + Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Element type of the echoed request set: the signed record a
    /// proof certifies. Its `==` is identity ([`SetItem::EQ_IS_IDENTITY`]).
    type Echoed: SetItem + std::fmt::Debug;

    /// The plain values a signed record carries.
    type Value: SetItem;

    /// The ack without its echo.
    type Reply: Wire;

    /// The values `record` carries.
    fn values(record: &Self::Echoed) -> &[Self::Value];

    /// `AllSafe`'s pair check: whether this ack vouches for `record` —
    /// it echoes the record and reports no conflict on it (GSbS: and was
    /// signed for the record's round). Pure record comparisons, never
    /// cached (see the contract in [`bgla_crypto::proofstore`]).
    fn covers(&self, record: &Self::Echoed) -> bool;

    /// The request set this ack echoes (it is inside the signature).
    fn echo(&self) -> &ValueSet<Self::Echoed>;

    /// This ack without its echo.
    fn reply(&self) -> &Self::Reply;

    /// The ack `reply` stands for when it was signed over `echo`.
    fn from_reply(reply: Self::Reply, echo: ValueSet<Self::Echoed>) -> Self;
}

/// The distinct echoes of `acks` in first-use order, and each ack's index
/// into them: the shape of a proof on the wire. Honest acks share one
/// echo handle, so each lookup is one pointer comparison.
fn echo_table<A: ProofAck>(acks: &[A]) -> (Vec<&ValueSet<A::Echoed>>, Vec<usize>) {
    let mut index: BTreeMap<&ValueSet<A::Echoed>, usize> = BTreeMap::new();
    let mut echoes = Vec::new();
    let of = acks
        .iter()
        .map(|ack| {
            *index.entry(ack.echo()).or_insert_with(|| {
                echoes.push(ack.echo());
                echoes.len() - 1
            })
        })
        .collect();
    (echoes, of)
}

/// Writes `acks` in a proof's codec form (see its `Wire` impl), each
/// distinct echo as `write_echo` writes it: as a [`ValueSet`] alone, and
/// inside a proven payload naming the records it holds
/// ([`crate::provendelta`]).
pub(crate) fn encode_acks<A: ProofAck>(
    acks: &[A],
    w: &mut Writer,
    mut write_echo: impl FnMut(&ValueSet<A::Echoed>, &mut Writer),
) {
    let (echoes, of) = echo_table(acks);
    w.usize(echoes.len());
    for echo in echoes {
        write_echo(echo, w);
    }
    w.usize(acks.len());
    for (ack, i) in acks.iter().zip(of) {
        w.usize(i);
        ack.reply().encode(w);
    }
}

/// Reads acks [`encode_acks`] wrote, each distinct echo with
/// `read_echo`, checking and charging as the codec form says (see
/// [`Proof`]'s `Wire` impl).
pub(crate) fn decode_acks<A: ProofAck>(
    r: &mut Reader<'_>,
    mut read_echo: impl FnMut(&mut Reader<'_>) -> Result<ValueSet<A::Echoed>, CodecError>,
) -> Result<Vec<A>, CodecError> {
    let listed = r.seq_len()?;
    let mut echoes = Vec::with_capacity(listed);
    for _ in 0..listed {
        echoes.push(read_echo(r)?);
    }
    if echoes.iter().collect::<BTreeSet<_>>().len() != listed {
        return Err(CodecError::Invalid("proof echo listed twice"));
    }
    let n = r.seq_len()?;
    let mut acks = Vec::with_capacity(n);
    let mut used = 0;
    for _ in 0..n {
        let i = r.usize()?;
        let echo = echoes
            .get(i)
            .ok_or(CodecError::Invalid("proof echo index out of range"))?;
        if i > used {
            return Err(CodecError::Invalid("proof echoes out of first-use order"));
        }
        if i == used {
            used += 1;
        } else {
            r.reuse(echo.wire_size())?;
        }
        acks.push(A::from_reply(A::Reply::decode(r)?, echo.clone()));
    }
    if used != listed {
        return Err(CodecError::Invalid("proof echo never used"));
    }
    Ok(acks)
}

/// A shared proof of safety with an interned content address and cached
/// wire size. Clone is `O(1)`.
pub struct Proof<A: ProofAck> {
    acks: Arc<Vec<A>>,
    id: ProofId,
    wire: usize,
}

impl<A: ProofAck> Proof<A> {
    /// Builds a proof, computing its content address and the length of
    /// its encoding once.
    pub fn new(acks: Vec<A>) -> Self {
        let mut builder = ProofIdBuilder::new();
        for ack in &acks {
            builder.add_ack(&encode_payload(ack));
        }
        let mut wire = Writer::counting();
        encode_acks(&acks, &mut wire, |echo, w| echo.encode(w));
        Proof {
            acks: Arc::new(acks),
            id: builder.finish(),
            wire: wire.len(),
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

/// Codec form: the acks' echoes said once, then the acks without them.
///
/// ```text
/// var(#echoes) | echo… (each distinct echo once, in first-use order)
/// var(#acks)   | (var(echo index) | ack without its echo)…
/// ```
///
/// The acks of an honest proof all echo the proposer's request, so it
/// ships that set once instead of once per ack; a Byzantine proof whose
/// acks echo `k` different sets ships `k`. Inside a proven payload each
/// echo is written in two parts instead: the elements the payload carries
/// as records by their position, then the rest inline (see
/// [`crate::provendelta`]). A proof on its own, as a snapshot stores it,
/// is written as above. Decoding gives every ack a
/// shared handle of its echo and rejects an index past the echoes, an
/// echo listed twice or never used, and echoes out of first-use order, so
/// a proof has exactly one encoding.
///
/// The content address is *never* on the wire — decoding rebuilds
/// through [`Proof::new`], which recomputes the id from the decoded
/// acks, preserving the constructor's invariant that an id always
/// matches its content (a snapshot, like a network peer, cannot attach a
/// mismatched id).
///
/// Rebuilding the id hashes every ack with its echo, so each use of an
/// echo after its first is charged to the reader ([`Reader::reuse`])
/// before anything is hashed. A message whose proofs spelled out would
/// not fit one frame is refused while it is read: one large echo under
/// many small acks cannot buy a hash of each.
///
/// The length is cached: sizing a proof is `O(1)`.
impl<A: ProofAck> Wire for Proof<A> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            acks,
            // Content address; recomputed from the acks by Proof::new during decode.
            id: _,
            wire,
        } = self;
        if !w.counted(*wire) {
            encode_acks(acks, w, |echo, w| echo.encode(w));
        }
    }

    fn wire_size(&self) -> usize {
        self.wire
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let acks = decode_acks(r, ValueSet::decode)?;
        Ok(Proof::new(acks))
    }
}

/// A minimal ack for the unit tests of this crate: a number that echoes
/// a set of numbers.
#[cfg(test)]
pub(crate) mod testing {
    use super::ProofAck;
    use crate::valueset::ValueSet;
    use bgla_codec::{CodecError, Reader, Wire, Writer};

    #[derive(Debug, Clone)]
    pub(crate) struct TestAck {
        pub(crate) echo: ValueSet<u64>,
        pub(crate) n: u64,
    }

    impl ProofAck for TestAck {
        type Echoed = u64;
        type Value = u64;
        type Reply = u64;
        fn values(record: &u64) -> &[u64] {
            std::slice::from_ref(record)
        }
        fn covers(&self, record: &u64) -> bool {
            self.echo.contains(record)
        }
        fn echo(&self) -> &ValueSet<u64> {
            &self.echo
        }
        fn reply(&self) -> &u64 {
            &self.n
        }
        fn from_reply(n: u64, echo: ValueSet<u64>) -> Self {
            TestAck { echo, n }
        }
    }

    impl Wire for TestAck {
        fn encode(&self, w: &mut Writer) {
            self.echo.encode(w);
            self.n.encode(w);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            let echo = ValueSet::decode(r)?;
            Ok(TestAck { echo, n: r.u64()? })
        }
    }

    /// An ack `n` echoing the empty set.
    pub(crate) fn ack(n: u64) -> TestAck {
        TestAck {
            echo: ValueSet::new(),
            n,
        }
    }

    /// A proof of acks echoing the empty set.
    pub(crate) fn proof(ns: &[u64]) -> super::Proof<TestAck> {
        super::Proof::new(ns.iter().map(|&n| ack(n)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{proof, TestAck};
    use super::*;
    use bgla_codec::{decode_payload, encode_payload};

    fn echoing(echo: &ValueSet<u64>, n: u64) -> TestAck {
        TestAck {
            echo: echo.clone(),
            n,
        }
    }

    #[test]
    fn identity_is_content_addressed() {
        let a = proof(&[1, 2, 3]);
        let b = proof(&[3, 1, 2]);
        let c = proof(&[1, 2, 4]);
        assert_eq!(a.id(), b.id(), "ack order must not matter");
        assert_eq!(a, b);
        assert_ne!(a.id(), c.id());
        // One echo (the empty set), three acks of index 0 and 8 bytes.
        assert_eq!(a.wire_size(), 1 + 1 + 1 + 3 * 9);
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = proof(&[7]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.acks, &b.acks));
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn each_distinct_echo_ships_once() {
        let x: ValueSet<u64> = [1, 2, 3].into_iter().collect();
        let y: ValueSet<u64> = [4].into_iter().collect();
        let one = Proof::new((0..4).map(|n| echoing(&x, n)).collect());
        assert_eq!(one.wire_size(), 1 + x.wire_size() + 1 + 4 * 9);
        let two = Proof::new(vec![echoing(&y, 0), echoing(&x, 1), echoing(&y, 2)]);
        assert_eq!(
            two.wire_size(),
            1 + y.wire_size() + x.wire_size() + 1 + 3 * 9
        );
        for p in [one, two] {
            let bytes = encode_payload(&p);
            assert_eq!(bytes.len(), p.wire_size());
            let back: Proof<TestAck> = decode_payload(&bytes).unwrap();
            assert_eq!(back.id(), p.id());
            assert_eq!(encode_payload(&back), bytes);
            // Acks that echo one set share one handle of it.
            for a in back.iter() {
                for b in back.iter() {
                    assert_eq!(a.echo == b.echo, a.echo.ptr_eq(&b.echo));
                }
            }
        }
    }
}
