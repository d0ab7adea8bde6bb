//! A process-indexed public-key infrastructure.
//!
//! Section 3 of the paper: "we assume that there exists a public-key
//! infrastructure, and that each process is able to sign a message, in
//! such a way that each other process is able to unambiguously verify
//! such signature." A [`Keyring`] is that assumption made concrete: it
//! holds everyone's *public* keys; each process additionally holds its own
//! [`crate::Keypair`]. Byzantine processes cannot forge because they are
//! only ever given their own secrets.
//!
//! The ring is also where public keys stop being bytes: construction
//! decodes each key once and keeps the point as a width-5 odd-multiples
//! table (1 280 bytes per entry, ≈ 270 field multiplications to build),
//! so [`Keyring::verify`] is one interleaved `[k]A + [−S]B` chain and
//! [`Keyring::verify_batch`] decodes nothing but each signature's `R`.
//! Both check the same cofactored equation (see [`crate::ed25519`]), so a
//! record has one verdict whichever of them — or whichever mix, through
//! [`crate::CachedVerifier`] — a process happens to run.

use crate::ed25519::{verify_batch_expanded, ExpandedKey, Keypair, PublicKey, Signature};

/// Public keys of all `n` processes, indexed by process id.
#[derive(Clone, Debug)]
pub struct Keyring {
    keys: Vec<ExpandedKey>,
}

impl Keyring {
    /// Builds the ring for `n` processes using the deterministic
    /// per-process keys (reproducible simulations).
    pub fn for_system(n: usize) -> Keyring {
        let expand = |i| {
            ExpandedKey::new(Keypair::for_process(i).public)
                .expect("a key this crate just generated decodes")
        };
        Keyring {
            keys: (0..n).map(expand).collect(),
        }
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty (clippy convention).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Public key of process `id`, if registered.
    pub fn key_of(&self, id: usize) -> Option<&PublicKey> {
        self.keys.get(id).map(|key| &key.public)
    }

    /// Verifies that `sig` over `msg` was produced by process `signer`.
    pub fn verify(&self, signer: usize, msg: &[u8], sig: &Signature) -> bool {
        self.keys
            .get(signer)
            .is_some_and(|key| key.verify(msg, sig))
    }

    /// Verifies many `(signer, msg, sig)` records at once through
    /// [`crate::ed25519::verify_batch`]'s machinery — one multi-scalar
    /// multiplication over the ring's cached key tables instead of a
    /// double-scalar multiplication per record. Returns false if any
    /// signer is unknown or any signature is invalid; the verdict is the
    /// conjunction of the per-record [`Keyring::verify`] verdicts, so
    /// callers needing to know *which* record failed fall back to those.
    pub fn verify_batch(&self, items: &[(usize, &[u8], Signature)]) -> bool {
        let expanded: Option<Vec<_>> = items
            .iter()
            .map(|(signer, msg, sig)| Some((self.keys.get(*signer)?, *msg, *sig)))
            .collect();
        expanded.is_some_and(|expanded| verify_batch_expanded(&expanded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_verifies_each_member() {
        let ring = Keyring::for_system(4);
        assert_eq!(ring.len(), 4);
        for i in 0..4 {
            let kp = Keypair::for_process(i);
            let sig = kp.sign(b"payload");
            assert!(ring.verify(i, b"payload", &sig));
            // Signature attributed to the wrong process fails.
            assert!(!ring.verify((i + 1) % 4, b"payload", &sig));
        }
    }

    #[test]
    fn ring_holds_exactly_the_process_keys() {
        let ring = Keyring::for_system(9);
        for i in 0..9 {
            assert_eq!(ring.key_of(i), Some(&Keypair::for_process(i).public));
        }
        assert_eq!(ring.key_of(9), None);
    }

    #[test]
    fn unknown_signer_rejected() {
        let ring = Keyring::for_system(2);
        let kp = Keypair::for_process(5);
        let sig = kp.sign(b"m");
        assert!(!ring.verify(5, b"m", &sig));
    }

    #[test]
    fn batch_verifies_and_rejects() {
        let ring = Keyring::for_system(4);
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 12]).collect();
        let mut items: Vec<(usize, &[u8], crate::Signature)> = (0..4)
            .map(|i| {
                (
                    i,
                    msgs[i].as_slice(),
                    Keypair::for_process(i).sign(&msgs[i]),
                )
            })
            .collect();
        assert!(ring.verify_batch(&items));
        assert!(ring.verify_batch(&[]));
        // One tampered signature fails the whole batch.
        items[2].2.s[3] ^= 0x10;
        assert!(!ring.verify_batch(&items));
        // Unknown signer fails.
        let sig = Keypair::for_process(9).sign(b"z");
        assert!(!ring.verify_batch(&[(9usize, b"z".as_slice(), sig)]));
    }
}
