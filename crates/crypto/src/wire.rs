//! [`Wire`] codec impls for the crypto types that appear inside
//! durable snapshots and wire messages: signatures, public keys, proof
//! content addresses and content digests — and [`digest`], the one
//! function that hashes an encoding.
//!
//! Signatures decode through [`Signature::from_bytes`], which is
//! infallible by design — validity is a property checked by
//! [`crate::ed25519::PublicKey::verify`] at use time, not a parse-time
//! invariant. Secret keys deliberately have **no** `Wire` impl: the
//! simulation's PKI is deterministic ([`crate::Keypair::for_process`]),
//! so snapshots never need to persist key material and a restore
//! re-derives it.

use crate::ed25519::{PublicKey, Signature};
use crate::proofstore::ProofId;
use crate::sha512::sha512;
use bgla_codec::{encode_payload, CodecError, Reader, Wire, Writer};

/// SHA-512 of a [`Wire`] encoding: what a signed ack binds a value set
/// by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Digest(pub [u8; 64]);

/// The content digest of `value`: SHA-512 of its [`Wire`] encoding.
/// Barring a SHA-512 collision, two values share a digest only if they
/// share an encoding, and an encoding names one value
/// (`decode ∘ encode = id`), so the digest binds the value itself.
pub fn digest(value: &impl Wire) -> Digest {
    Digest(sha512(&encode_payload(value)))
}

impl Wire for Digest {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Digest(Wire::decode(r)?))
    }
}

impl Wire for Signature {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.to_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let raw: [u8; 64] = <[u8; 64]>::decode(r)?;
        Ok(Signature::from_bytes(&raw))
    }
}

impl Wire for PublicKey {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PublicKey(<[u8; 32]>::decode(r)?))
    }
}

impl Wire for ProofId {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProofId(<[u8; 16]>::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;
    use bgla_codec::{decode_payload, encode_payload};

    #[test]
    fn signature_roundtrip() {
        let sig = Keypair::for_process(3).sign(b"hello");
        let back: Signature = decode_payload(&encode_payload(&sig)).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn public_key_and_proof_id_roundtrip() {
        let pk = Keypair::for_process(1).public;
        assert_eq!(
            decode_payload::<PublicKey>(&encode_payload(&pk)).unwrap(),
            pk
        );
        let id = ProofId([7; 16]);
        assert_eq!(decode_payload::<ProofId>(&encode_payload(&id)).unwrap(), id);
    }
}
