//! The init and safetying phases SbS and GSbS share — Algorithms 8–10's
//! first half, which SbS runs once on signed values and GSbS once per
//! round on signed round batches (§8.2) — and their one signed reply,
//! the [`SafeAck`].
//!
//! 1. **Init**: each proposer broadcasts its signed record and collects
//!    `n − f` of them into its safety set, removing conflicting pairs —
//!    two different records one signer signed for one round (`admit`).
//! 2. **Safetying**: the proposer sends that set to every acceptor in a
//!    `safe_req`; each acceptor answers with a signed safe-ack echoing
//!    the set and listing every conflict it knows of (`verified`,
//!    `answer`). A record that a quorum of safe-acks echo, none of
//!    which lists it as conflicted, is *safe*: by quorum intersection at
//!    most one record per signer and round can ever become safe
//!    (Lemma 13). The quorum the proposer collects
//!    (`SafeAcks::collect`) is the proof of safety the proving phase,
//!    [`crate::provendelta::ProofPath`], takes from there.
//!
//! A process supplies its record type ([`Safetied`]), its guards and
//! phases, and what it does with a signer whose safe-ack failed: SbS
//! flags it in `byz`, GSbS keeps no such set.
//!
//! # What is signed
//!
//! Every signed record — an init, a safe-ack, a GSbS ack — signs its
//! domain tag followed by its own `Wire` encoding without the trailing
//! signature ([`crate::held::Signed`]). A safe-ack's encoding is its
//! echo, then its reply: its round (GSbS only), its conflicts, signer
//! and signature. So its signature covers every echoed and conflicting
//! record in full, signature bytes included. A [`bgla_crypto::ProofId`]
//! hashes each ack's encoding. One encoding thus serves what travels,
//! what is metered, what is signed and what is hashed. A wire form that
//! leaves a part out (a reply without its echo) is rebuilt into the full
//! record before anything is verified, and verification re-encodes that
//! record rather than trusting the received bytes.
//!
//! # Echoes said once
//!
//! A safe-ack signs the request set it answers (`rcvd`), and a proposer
//! counts only safe-acks signed over its own request. So the echo tells
//! the proposer nothing it does not hold, and neither copy of it travels
//! more than once:
//!
//! * a safe-ack travels back as a [`SafeAckReply`], the ack without
//!   `rcvd`. The proposer attaches its own request before holding it. An
//!   acceptor that signed some other set has then signed bytes other
//!   than the ones checked, and its ack fails at quorum exactly as a
//!   forged signature does: it costs the failed batch and the fallback
//!   once, the verifier's cache answers a redelivery, and it is never
//!   counted. Comparing a shipped echo would catch it without a signature
//!   check, but any Byzantine acceptor can make the proposer pay that
//!   check with a forged signature anyway;
//! * a proof ships the set its acks echo once, and per ack an index into
//!   the distinct echoes ([`crate::proof::Proof`]'s codec form), instead
//!   of one copy per ack. A Byzantine proof whose acks echo `k` different
//!   sets decodes at `k` echoes' cost and is judged exactly as before;
//! * inside an `AckReq` or `Nack` payload, an echoed record that the
//!   payload also carries is named by its position among the records
//!   ([`crate::provendelta`]'s wire format), so a proposer's own proof
//!   echoes in a few positions.
//!
//! None of this changes what is signed, hashed and verified: the echo is
//! inside every safe-ack's signature and every [`bgla_crypto::ProofId`].
//!
//! # Verify at quorum
//!
//! A proposer acts only on `n − f` signed inits and on a quorum of
//! signed safe-acks, so it checks neither alone as it arrives
//! ([`crate::held`]). Each site runs its structural checks on arrival and
//! holds a record that passes them: an init whose signer is its sender
//! and that is not in yet, a safe-ack — read with the proposer's request
//! as its echo — whose signer is its sender, not yet counted, and whose
//! conflict pairs do conflict (the structural half of `VerifyConfPair`).
//! Once held plus verified reach the threshold, all held records of the
//! site are checked in one batch
//! ([`bgla_crypto::CachedVerifier::verify_groups`], a safe-ack with both
//! members of each conflict pair) and the valid ones join in arrival
//! order: inits one at a time with conflict removal after each, as on
//! arrival, so the outcome of an equivocation does not depend on how the
//! records were batched. A record arriving after its threshold is met is
//! never verified. Held records are durable: a snapshot stores each
//! site's next to the set it will join, because peers send their inits
//! once.
//!
//! A site holds at most [`crate::held::PER_SIGNER`] records per signer.
//! This differs from checking on arrival in one case: a signer whose
//! three or more different inits for one round are all held at once. On
//! arrival the first two removed each other as a conflict and the third
//! stayed; here the third is not held, so none stays. In both cases at
//! most one of the signer's records can become safe.

use crate::held::{self, hold, verify_held, Signed, UNSIGNED};
use crate::proof::ProofAck;
use crate::valueset::{SetItem, ValueSet};
use bgla_codec::{CodecError, Reader, Wire, Writer};
use bgla_crypto::{CachedVerifier, Keypair, Obligation, Signature};
use bgla_simnet::ProcessId;

/// The round a safe-ack carries: none in SbS (`()`, nothing on the
/// wire), the round being safetied in GSbS (`u64`, a varint).
pub trait Round: Copy + Ord + std::fmt::Debug + Send + Sync + 'static {
    /// Writes the round.
    fn write(self, w: &mut Writer);
    /// Reads a round [`Round::write`] wrote.
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

impl Round for () {
    fn write(self, _: &mut Writer) {}
    fn read(_: &mut Reader<'_>) -> Result<(), CodecError> {
        Ok(())
    }
}

impl Round for u64 {
    fn write(self, w: &mut Writer) {
        w.var(self);
    }
    fn read(r: &mut Reader<'_>) -> Result<u64, CodecError> {
        r.var()
    }
}

/// A signed record a proposer discloses in its init and a safe-ack
/// echoes: SbS's [`crate::sbs::SignedValue`], GSbS's
/// [`crate::gsbs::SignedBatch`]. Its `==` is identity
/// ([`SetItem::EQ_IS_IDENTITY`]).
pub trait Safetied: Signed + SetItem + std::fmt::Debug + Send + Sync + 'static {
    /// The tag a safe-ack echoing this record signs first.
    const ACK_DOMAIN: &'static [u8];

    /// The round the record belongs to.
    type Round: Round;

    /// The plain values the record carries.
    type Value: SetItem;

    /// The record's round.
    fn round(&self) -> Self::Round;

    /// The values the record carries.
    fn values(&self) -> &[Self::Value];

    /// Whether `self` and `other` contradict each other: one signer
    /// vouching for two different contents in one round — what a
    /// safe-ack reports and a proof of safety must be free of
    /// (`VerifyConfPair` checks the signatures too, at verification).
    fn conflicts_with(&self, other: &Self) -> bool;
}

/// Lists the conflicting pairs within `set` (Algorithm 10's
/// `ReturnConflicts`).
pub(crate) fn return_conflicts<E: Safetied>(set: &ValueSet<E>) -> Vec<(E, E)> {
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
pub(crate) fn remove_conflicts<E: Safetied>(set: &ValueSet<E>) -> ValueSet<E> {
    let conflicts = return_conflicts(set);
    let mut out = set.clone();
    if !conflicts.is_empty() {
        out.retain(|x| !conflicts.iter().any(|(a, b)| a == x || b == x));
    }
    out
}

/// A signed `safe_ack`: an acceptor's answer to a `safe_req` — the
/// request it echoes, then everything else it says, which is what travels
/// back to the proposer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeAck<E: Safetied> {
    /// Echo of the proposer's request.
    pub rcvd: ValueSet<E>,
    /// The rest of the ack.
    pub reply: SafeAckReply<E>,
}

/// A safe-ack without its echo: how it travels back to the proposer,
/// whose own request the echo is (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeAckReply<E: Safetied> {
    /// The round being safetied.
    pub round: E::Round,
    /// Conflicting pairs known to the acceptor.
    pub conflicts: Vec<(E, E)>,
    /// The acceptor that signed it.
    pub signer: ProcessId,
    /// Signature over the round, the echoed request, the conflicts and
    /// the signer.
    pub sig: Signature,
}

impl<E: Safetied> SafeAck<E> {
    /// Builds and signs a safe-ack as acceptor `signer`.
    pub fn sign(
        round: E::Round,
        rcvd: ValueSet<E>,
        conflicts: Vec<(E, E)>,
        signer: ProcessId,
        kp: &Keypair,
    ) -> Self {
        let reply = SafeAckReply {
            round,
            conflicts,
            signer,
            sig: UNSIGNED,
        };
        let mut ack = SafeAck { rcvd, reply };
        ack.reply.sig = kp.sign(&ack.signed_bytes());
        ack
    }
}

impl<E: Safetied> Signed for SafeAck<E> {
    const DOMAIN: &'static [u8] = E::ACK_DOMAIN;
    fn signer(&self) -> ProcessId {
        self.reply.signer
    }
    fn sig(&self) -> &Signature {
        &self.reply.sig
    }
    /// The ack's signature and those of both members of every conflict
    /// pair it reports (`VerifyConfPair`).
    fn obligations(&self) -> Vec<Obligation> {
        let mut out: Vec<Obligation> = (self.reply.conflicts.iter())
            .flat_map(|(a, b)| [a, b])
            .map(Signed::obligation)
            .collect();
        out.push(self.obligation());
        out
    }
}

impl<E: Safetied> ProofAck for SafeAck<E> {
    type Echoed = E;
    type Value = E::Value;
    type Reply = SafeAckReply<E>;
    fn values(record: &E) -> &[E::Value] {
        record.values()
    }
    fn covers(&self, record: &E) -> bool {
        let listed = |(a, b): &(E, E)| a == record || b == record;
        self.reply.round == record.round()
            && self.rcvd.contains(record)
            && !self.reply.conflicts.iter().any(listed)
    }
    fn echo(&self) -> &ValueSet<E> {
        &self.rcvd
    }
    fn reply(&self) -> &SafeAckReply<E> {
        &self.reply
    }
    fn from_reply(reply: SafeAckReply<E>, rcvd: ValueSet<E>) -> Self {
        SafeAck { rcvd, reply }
    }
}

/// Codec form: the round, the conflict pairs as a `Vec`, `var(signer)`,
/// the signature.
impl<E: Safetied> Wire for SafeAckReply<E> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            round,
            conflicts,
            signer,
            sig,
        } = self;
        round.write(w);
        conflicts.encode(w);
        w.usize(*signer);
        sig.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SafeAckReply {
            round: E::Round::read(r)?,
            conflicts: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

/// Codec form: the echo, then the reply.
impl<E: Safetied> Wire for SafeAck<E> {
    fn encode(&self, w: &mut Writer) {
        let Self { rcvd, reply } = self;
        rcvd.encode(w);
        reply.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SafeAck {
            rcvd: Wire::decode(r)?,
            reply: Wire::decode(r)?,
        })
    }
}

/// Admits the inits `held` for `set` once, with the ones in it, they
/// could reach `threshold`: verifies them in one batch and inserts the
/// valid ones in arrival order, conflict removal after each insert.
/// Returns whether `set` has reached `threshold`.
pub(crate) fn admit<E: Safetied>(
    verifier: &mut CachedVerifier,
    threshold: usize,
    set: &mut ValueSet<E>,
    held: &mut Vec<E>,
) -> bool {
    if set.len() + held.len() < threshold {
        return false;
    }
    for (record, ok) in verify_held(verifier, std::mem::take(held)) {
        if ok {
            set.insert(record);
            *set = remove_conflicts(set);
        }
    }
    set.len() >= threshold
}

/// The acceptor's check of a `safe_req` of `set` for `round`: every
/// record is of `round` (structural, first) and every signature holds,
/// checked in one batch.
pub(crate) fn verified<E: Safetied>(
    verifier: &mut CachedVerifier,
    round: E::Round,
    set: &ValueSet<E>,
) -> bool {
    set.iter().all(|record| record.round() == round) && {
        let obligations: Vec<Obligation> = set.iter().map(Signed::obligation).collect();
        verifier.verify_all(&obligations)
    }
}

/// The acceptor's answer to a [`verified`] `safe_req` of `set`: the
/// safety `candidates` grow by `set`, conflicts removed, and `me` signs
/// a safe-ack echoing `set` that lists the conflicts of both joined.
/// Apart from [`verified`] so that GSbS makes a round's candidates only
/// for a request it answers.
pub(crate) fn answer<E: Safetied>(
    verifier: &mut CachedVerifier,
    (me, keypair): (ProcessId, &Keypair),
    candidates: &mut ValueSet<E>,
    round: E::Round,
    set: ValueSet<E>,
) -> SafeAckReply<E> {
    // O(1) when the candidates already contain the request (redelivered
    // subsets), merge-walk else.
    let union = candidates.join(&set);
    let conflicts = return_conflicts(&union);
    *candidates = remove_conflicts(&union);
    let ack = SafeAck::sign(round, set, conflicts, me, keypair);
    verifier.record_own(&ack.obligation());
    ack.reply
}

/// The safe-acks a proposer has for its outstanding request: those
/// counted, and those held unverified until a quorum's worth has arrived.
/// Not [`Wire`]: every one echoes the request, which the owner stores
/// once, so [`SafeAcks::write`] leaves the echo out.
#[derive(Debug)]
pub(crate) struct SafeAcks<E: Safetied> {
    counted: Vec<SafeAck<E>>,
    held: Vec<SafeAck<E>>,
}

impl<E: Safetied> Default for SafeAcks<E> {
    fn default() -> Self {
        SafeAcks {
            counted: Vec::new(),
            held: Vec::new(),
        }
    }
}

impl<E: Safetied> SafeAcks<E> {
    /// The verified safe-acks, one per signer, in the order counted.
    pub(crate) fn counted(&self) -> &[SafeAck<E>] {
        &self.counted
    }

    /// Whether an ack of `signer` is counted.
    fn counts(&self, signer: ProcessId) -> bool {
        self.counted.iter().any(|ack| ack.reply.signer == signer)
    }

    /// Takes `reply` from `from` as signed over `request`: runs the
    /// structural checks and holds it; once held plus counted signers
    /// reach `quorum`, verifies every held ack in one batch and counts
    /// the valid ones, one per signer. Returns the processes that failed
    /// a check: `from` if its reply failed the structural checks or
    /// could not be held, and at quorum each signer whose held ack failed
    /// its signatures or came second.
    pub(crate) fn collect(
        &mut self,
        verifier: &mut CachedVerifier,
        quorum: usize,
        from: ProcessId,
        reply: SafeAckReply<E>,
        request: &ValueSet<E>,
    ) -> Vec<ProcessId> {
        let structural = reply.signer == from
            && !self.counts(from)
            && reply.conflicts.iter().all(|(a, b)| a.conflicts_with(b));
        let ack = SafeAck::from_reply(reply, request.clone());
        if !structural || !hold(&mut self.held, ack) {
            return vec![from];
        }
        if self.counted.len() + held::signers(&self.held) < quorum {
            return Vec::new();
        }
        let mut failed = Vec::new();
        for (ack, ok) in verify_held(verifier, std::mem::take(&mut self.held)) {
            if ok && !self.counts(ack.reply.signer) {
                self.counted.push(ack);
            } else {
                failed.push(ack.reply.signer);
            }
        }
        failed
    }

    /// Writes the counted acks, then the held acks, each without its
    /// echo.
    pub(crate) fn write(&self, w: &mut Writer) {
        let Self { counted, held } = self;
        let write_replies = |acks: &[SafeAck<E>], w: &mut Writer| {
            w.usize(acks.len());
            acks.iter().for_each(|ack| ack.reply.encode(w));
        };
        write_replies(counted, w);
        write_replies(held, w);
    }

    /// Reads what [`SafeAcks::write`] wrote, every ack signed over
    /// `request`.
    pub(crate) fn read(r: &mut Reader<'_>, request: &ValueSet<E>) -> Result<Self, CodecError> {
        let echoing = |r: &mut Reader<'_>| -> Result<Vec<SafeAck<E>>, CodecError> {
            let replies: Vec<SafeAckReply<E>> = Wire::decode(r)?;
            Ok(replies
                .into_iter()
                .map(|reply| SafeAck::from_reply(reply, request.clone()))
                .collect())
        };
        let counted = echoing(r)?;
        let held = echoing(r)?;
        Ok(SafeAcks { counted, held })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsbs::SignedBatch;
    use crate::sbs::SignedValue;
    use bgla_codec::encode_payload;
    use bgla_crypto::{Keyring, VerifierStats};

    fn value(v: u64, signer: ProcessId) -> SignedValue<u64> {
        SignedValue::sign(v, signer, &Keypair::for_process(signer))
    }

    fn batch(round: u64, v: u64, signer: ProcessId) -> SignedBatch<u64> {
        let batch = [v].into_iter().collect();
        SignedBatch::sign(round, batch, signer, &Keypair::for_process(signer))
    }

    fn verifier() -> CachedVerifier {
        CachedVerifier::new(Keyring::for_system(4))
    }

    /// A safe-ack's encoding is its echo, then its reply; an SbS reply
    /// carries no round, a GSbS reply its round as a varint first.
    #[test]
    fn a_safe_ack_encodes_its_echo_then_its_reply() {
        let rcvd: ValueSet<SignedValue<u64>> = [value(1, 0), value(2, 1)].into_iter().collect();
        let sbs = SafeAck::sign((), rcvd.clone(), vec![], 2, &Keypair::for_process(2));
        let reply = encode_payload(&sbs.reply);
        assert_eq!(
            reply.len(),
            1 + 1 + 64,
            "no round: no conflicts, signer, sig"
        );
        assert_eq!(
            encode_payload(&sbs),
            [encode_payload(&rcvd), reply].concat()
        );

        let rcvd: ValueSet<SignedBatch<u64>> = [batch(300, 1, 0)].into_iter().collect();
        let gsbs = SafeAck::sign(300, rcvd.clone(), vec![], 2, &Keypair::for_process(2));
        let reply = encode_payload(&gsbs.reply);
        assert_eq!(reply.len(), 2 + 1 + 1 + 64, "a two-byte varint round first");
        assert_eq!(
            encode_payload(&gsbs),
            [encode_payload(&rcvd), reply].concat()
        );
    }

    /// Inits wait until, with those admitted, they could reach the
    /// threshold; then one batch admits the valid ones, and a signer's
    /// two different values remove each other.
    #[test]
    fn held_inits_are_admitted_at_the_threshold() {
        let mut verifier = verifier();
        let mut set: ValueSet<SignedValue<u64>> = [value(10, 0)].into_iter().collect();
        let mut held = vec![value(11, 1)];
        assert!(!admit(&mut verifier, 3, &mut set, &mut held));
        assert_eq!((set.len(), held.len()), (1, 1));
        assert_eq!(verifier.stats(), VerifierStats::default());

        let mut forged = value(12, 2);
        forged.sig.s[0] ^= 1;
        held.extend([forged, value(13, 3), value(14, 3)]);
        assert!(!admit(&mut verifier, 3, &mut set, &mut held));
        assert!(held.is_empty());
        let signers: Vec<ProcessId> = set.iter().map(|sv| sv.signer).collect();
        assert_eq!(signers, [0, 1], "p2's forgery and p3's conflict are out");
        assert_eq!(verifier.stats().batch_verifications, 1);
    }

    /// The acceptor refuses a request with a record of another round
    /// before any signature work, and answers a valid one with the
    /// conflicts of its candidates joined with the request.
    #[test]
    fn the_acceptor_answers_with_the_conflicts_it_knows() {
        let mut verifier = verifier();
        let kp = Keypair::for_process(0);
        let other_round: ValueSet<SignedBatch<u64>> = [batch(1, 5, 1)].into_iter().collect();
        assert!(!verified(&mut verifier, 0, &other_round));
        assert_eq!(verifier.stats(), VerifierStats::default());

        let mut candidates: ValueSet<SignedBatch<u64>> = [batch(0, 5, 1)].into_iter().collect();
        let request: ValueSet<SignedBatch<u64>> =
            [batch(0, 6, 1), batch(0, 7, 2)].into_iter().collect();
        assert!(verified(&mut verifier, 0, &request));
        let reply = answer(&mut verifier, (0, &kp), &mut candidates, 0, request);
        assert_eq!(reply.conflicts, [(batch(0, 5, 1), batch(0, 6, 1))]);
        let left: Vec<ProcessId> = candidates.iter().map(|sb| sb.signer).collect();
        assert_eq!(left, [2], "both of p1's batches leave the candidates");
    }

    /// The proposer flags a reply whose signer is not its sender at once,
    /// holds the rest unverified until a quorum's worth has arrived, then
    /// counts the valid ones and names the signer that failed.
    #[test]
    fn safe_acks_are_verified_at_quorum() {
        let mut verifier = verifier();
        let request: ValueSet<SignedValue<u64>> = [value(1, 0)].into_iter().collect();
        let reply = |i: ProcessId| {
            let kp = Keypair::for_process(i);
            SafeAck::sign((), request.clone(), vec![], i, &kp).reply
        };
        let mut acks = SafeAcks::default();
        assert_eq!(acks.collect(&mut verifier, 3, 2, reply(1), &request), [2]);
        assert_eq!(acks.collect(&mut verifier, 3, 1, reply(1), &request), []);
        let mut forged = reply(2);
        forged.sig.s[0] ^= 1;
        assert_eq!(acks.collect(&mut verifier, 3, 2, forged, &request), []);
        assert_eq!(verifier.stats(), VerifierStats::default());
        assert_eq!(acks.collect(&mut verifier, 3, 3, reply(3), &request), [2]);
        let counted: Vec<ProcessId> = acks.counted().iter().map(|a| a.reply.signer).collect();
        assert_eq!(counted, [1, 3]);
        assert!(acks.held.is_empty());
    }
}
