//! Signed records held unverified until a threshold's worth has arrived.
//!
//! The signature algorithms act only on a threshold of signed records:
//! `n − f` disclosures before safetying, a quorum of safe-acks before
//! proposing, a quorum of acks before deciding ([`crate::sbs`],
//! [`crate::gsbs`]). A record below the threshold changes nothing, so
//! checking each one alone as it arrives (≈ 25 µs per signature, see
//! [`bgla_crypto`]) buys nothing over checking them together once enough
//! are in hand (≈ 15 µs per signature in a batch of five). Each
//! threshold site therefore:
//!
//! 1. runs its cheap structural checks on arrival and [`hold`]s a record
//!    that passes them, unverified, in arrival order;
//! 2. once *held plus verified* reaches the threshold, hands every held
//!    record to [`verify_held`] — one
//!    [`bgla_crypto::CachedVerifier::verify_groups`] call, one verdict per
//!    record — and admits the valid ones in arrival order.
//!
//! Held plus verified is an upper bound on the verified count, so on runs
//! where every record is valid each threshold is crossed at the same
//! delivery as checking on arrival would cross it. A record arriving after
//! its threshold is met is never verified. An invalid record fails alone:
//! its verdict drops it and nothing else, and the verifier's cache answers
//! its redelivery without new work.
//!
//! Held state is bounded: a site keeps at most [`PER_SIGNER`] records per
//! signer — enough to witness an equivocation — and admits only records
//! whose signer is the authenticated sender, so no process can fill
//! another's slots.
//!
//! Every such record is [`Signed`], which also fixes what its signature
//! covers: the record's own encoding.

use bgla_codec::{Wire, Writer};
use bgla_crypto::{CachedVerifier, Obligation, Signature};
use bgla_simnet::ProcessId;
use std::collections::BTreeSet;

/// Most records one signer may have held at one site.
pub const PER_SIGNER: usize = 2;

/// The signature a record carries while it is being built: `sign`
/// encodes the record with it in place, then overwrites it.
pub(crate) const UNSIGNED: Signature = Signature {
    r: [0; 32],
    s: [0; 32],
};

/// A record signed by one process — a signed init, safe-ack or ack.
///
/// # What is signed
///
/// A record's signature covers [`Signed::DOMAIN`] followed by the
/// record's own [`Wire`] encoding, which ends with the signature, minus
/// that signature ([`Signed::signed_bytes`]). So every field that
/// travels is signed, in the bytes it travels as; a field the encoding
/// leaves out would fail its round trip (the `wire-coverage` lint and
/// the codec round-trip tests). `Wire` encode is injective, since
/// decoding inverts it, and the domain tags are prefix-free, so two
/// records sign the same bytes only if they are the same record of the
/// same type. Verification re-encodes the record held in memory; it
/// never trusts the bytes the record arrived in.
pub trait Signed: Wire {
    /// Tag that keeps one record type's signed bytes apart from
    /// another's.
    const DOMAIN: &'static [u8];

    /// The process whose signature the record carries.
    fn signer(&self) -> ProcessId;

    /// The signature, which the record's encoding writes last.
    fn sig(&self) -> &Signature;

    /// What [`Signed::sig`] signs: the domain tag, then the record's
    /// encoding without its trailing signature.
    fn signed_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(Self::DOMAIN);
        self.encode(&mut w);
        let mut bytes = w.into_bytes();
        let body = bytes.len() - 64;
        debug_assert_eq!(
            bytes[body..],
            self.sig().to_bytes(),
            "a signed record encodes its signature last"
        );
        bytes.truncate(body);
        bytes
    }

    /// The record's own signature as a verification obligation.
    fn obligation(&self) -> Obligation {
        (self.signer(), self.signed_bytes(), *self.sig())
    }

    /// Every signature the record's validity rests on: by default its
    /// own.
    fn obligations(&self) -> Vec<Obligation> {
        vec![self.obligation()]
    }
}

/// Appends `record` to `held` unless its signer already has
/// [`PER_SIGNER`] records there. Returns whether it was held.
pub fn hold<T: Signed>(held: &mut Vec<T>, record: T) -> bool {
    let signer = record.signer();
    if held.iter().filter(|h| h.signer() == signer).count() >= PER_SIGNER {
        return false;
    }
    held.push(record);
    true
}

/// Number of distinct signers among `held`.
pub fn signers<T: Signed>(held: &[T]) -> usize {
    held.iter().map(T::signer).collect::<BTreeSet<_>>().len()
}

/// Verifies every held record in one batch and returns each with its
/// verdict, in arrival order.
pub fn verify_held<T: Signed>(
    verifier: &mut CachedVerifier,
    held: Vec<T>,
) -> impl Iterator<Item = (T, bool)> {
    let groups: Vec<Vec<Obligation>> = held.iter().map(T::obligations).collect();
    let verdicts = verifier.verify_groups(&groups);
    held.into_iter().zip(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsbs::{GSafeAck, SignedAck, SignedBatch};
    use crate::proof::Proof;
    use crate::sbs::{SafeAckBody, SignedSafeAck, SignedValue};
    use crate::valueset::ValueSet;
    use bgla_codec::encode_payload;
    use bgla_crypto::{digest, Keypair, Keyring};

    fn kp(i: ProcessId) -> Keypair {
        Keypair::for_process(i)
    }

    fn set(values: &[u64]) -> ValueSet<u64> {
        values.iter().copied().collect()
    }

    fn value(v: u64, signer: ProcessId) -> SignedValue<u64> {
        SignedValue::sign(v, signer, &kp(signer))
    }

    fn batch(round: u64, v: u64, signer: ProcessId) -> SignedBatch<u64> {
        SignedBatch::sign(round, set(&[v]), signer, &kp(signer))
    }

    fn verifies(record: &impl Signed) -> bool {
        let (signer, msg, sig) = record.obligation();
        Keyring::for_system(8).verify(signer, &msg, &sig)
    }

    /// A field's name and a change to it.
    type Mutation<T> = (&'static str, fn(&mut T));

    /// `record`'s signed bytes are its domain tag and its encoding
    /// without the encoding's last 64 bytes, which are its signature;
    /// the signature verifies; and each mutation of one field other than
    /// `sig` changes the signed bytes.
    fn pins_layout<T: Signed + Clone>(record: T, mutations: &[Mutation<T>]) {
        let encoded = encode_payload(&record);
        let (body, tail) = encoded.split_at(encoded.len() - 64);
        assert_eq!(tail, record.sig().to_bytes());
        assert_eq!(record.signed_bytes(), [T::DOMAIN, body].concat());
        assert!(verifies(&record));
        for (field, mutate) in mutations {
            let mut changed = record.clone();
            mutate(&mut changed);
            assert_ne!(
                changed.signed_bytes(),
                record.signed_bytes(),
                "changing `{field}` must change the signed bytes of a {}",
                std::any::type_name::<T>()
            );
        }
    }

    #[test]
    fn each_record_signs_its_domain_and_its_encoding_without_the_signature() {
        pins_layout(
            value(7, 1),
            &[("value", |r| r.value += 1), ("signer", |r| r.signer = 2)],
        );
        let body = SafeAckBody {
            rcvd: [value(1, 0), value(2, 1)].into_iter().collect(),
            conflicts: vec![(value(3, 2), value(4, 2))],
        };
        pins_layout(
            SignedSafeAck::sign(body, 3, &kp(3)),
            &[
                ("body.rcvd", |r| {
                    r.body.rcvd = [value(1, 0)].into_iter().collect()
                }),
                ("body.conflicts", |r| r.body.conflicts.clear()),
                ("signer", |r| r.signer = 4),
            ],
        );
        pins_layout(
            batch(2, 5, 1),
            &[
                ("round", |r| r.round = 3),
                ("batch", |r| r.batch = set(&[5, 6])),
                ("signer", |r| r.signer = 2),
            ],
        );
        let rcvd = [batch(0, 1, 0), batch(0, 2, 1)].into_iter().collect();
        let conflicts = vec![(batch(0, 3, 2), batch(0, 4, 2))];
        pins_layout(
            GSafeAck::sign(0, rcvd, conflicts, 3, &kp(3)),
            &[
                ("round", |r| r.round = 1),
                ("rcvd", |r| r.rcvd = [batch(0, 1, 0)].into_iter().collect()),
                ("conflicts", |r| r.conflicts.clear()),
                ("signer", |r| r.signer = 4),
            ],
        );
        pins_layout(
            SignedAck::sign(1, 2, 3, digest(&set(&[9])), 4, &kp(4)),
            &[
                ("destination", |r| r.destination = 0),
                ("ts", |r| r.ts = 3),
                ("round", |r| r.round = 4),
                ("digest", |r| r.digest = digest(&set(&[8]))),
                ("signer", |r| r.signer = 5),
            ],
        );
    }

    /// The incident behind the retired `sig-coverage` lint pass: a
    /// safe-ack's signature and its proof's id once bound each echoed
    /// record by its signature bytes only, so a record with swapped
    /// contents under the same signature inherited an honest proof's id
    /// and cached verdict. Both now cover the record's whole
    /// encoding, in the echo and in the conflict pairs alike.
    #[test]
    fn a_swapped_echo_or_conflict_changes_the_id_and_fails_the_signature() {
        let rcvd = [batch(0, 1, 0), batch(0, 2, 1)].into_iter().collect();
        let conflicts = vec![(batch(0, 3, 2), batch(0, 4, 2))];
        let honest = GSafeAck::sign(0, rcvd, conflicts, 3, &kp(3));
        let id = |ack: &GSafeAck<u64>| Proof::new(vec![ack.clone()]).id();
        assert!(verifies(&honest));

        // The last record, so that the set keeps its order.
        let mut echoed: Vec<SignedBatch<u64>> = honest.rcvd.iter().cloned().collect();
        echoed[1].batch = set(&[99]);
        let swapped_echo = GSafeAck {
            rcvd: echoed.into_iter().collect(),
            ..honest.clone()
        };

        let mut swapped_conflict = honest.clone();
        swapped_conflict.conflicts[0].1.batch = set(&[98]);

        for forged in [swapped_echo, swapped_conflict] {
            assert_ne!(id(&forged), id(&honest));
            assert!(!verifies(&forged));
        }
    }
}
