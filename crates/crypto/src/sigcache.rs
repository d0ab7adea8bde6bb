//! Memoized, batched signature verification: [`CachedVerifier`].
//!
//! Byzantine processes can re-send the same signed records arbitrarily
//! often; without memoization every re-delivery costs a full Ed25519
//! verification (a double-scalar multiplication). The verifier keeps one
//! verdict per `(signer, message-hash, signature)` — **the message must
//! be part of the key**: a cache keyed by `(signer, signature)` alone
//! would let an adversary replay a valid signature attached to
//! *different* content and inherit the cached `true` verdict.
//!
//! Eviction is least-recently-used with a fixed capacity, so a flood of
//! distinct forgeries cannot grow the cache without bound.

use crate::ed25519::Signature;
use crate::lru::LruMap;
use crate::sha512::sha512;
use std::collections::BTreeMap;

/// Truncated message digest used in cache keys (16 bytes of SHA-512 —
/// collision resistance far beyond anything a simulation can exhaust).
type MsgKey = [u8; 16];

/// Digests a message into its cache-key form.
fn msg_key(msg: &[u8]) -> MsgKey {
    let d = sha512(msg);
    let mut out = [0u8; 16];
    out.copy_from_slice(&d[..16]);
    out
}

/// One verification obligation: `(signer, message, signature)`.
pub type Obligation = (usize, Vec<u8>, Signature);

/// A cache miss queued for verification: signer, message, signature and
/// the message's cache key.
type Pending<'a> = (usize, &'a [u8], Signature, MsgKey);

/// Counters of the *actual* cryptographic work a [`CachedVerifier`] has
/// performed — cache hits don't move them. Tests use these to pin
/// verify-once behavior (e.g. a redelivered forged proof must cost
/// exactly one batched verification, ever).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VerifierStats {
    /// Individual `Keyring::verify` calls (cache misses and batch-failure
    /// fallbacks).
    pub single_verifications: u64,
    /// Batched `Keyring::verify_batch` calls (each covers ≥ 2 records).
    pub batch_verifications: u64,
    /// Signatures covered by those batched calls, summed.
    pub batched_signatures: u64,
}

/// A [`Keyring`](crate::Keyring) paired with a bounded cache of
/// signature verdicts: the one verification entry point protocol
/// processes hold. Single checks are
/// memoized; multi-signature checks go through one batched
/// multi-scalar multiplication ([`crate::keyring::Keyring::verify_batch`])
/// with an individual-check fallback that caches the per-signature
/// verdicts, so Byzantine re-sends never force re-verification. Single
/// and batched checks decide the same (cofactored) equation, so which of
/// them a record meets — that depends on what else missed the cache —
/// never changes its verdict, and the fallback cannot contradict the
/// batch that triggered it.
#[derive(Debug)]
pub struct CachedVerifier {
    ring: crate::Keyring,
    /// One verdict per `(signer, message key, signature)`, room for a
    /// few quorums of records per round, times generous slack.
    cache: LruMap<(usize, MsgKey, Signature), bool>,
    stats: VerifierStats,
}

impl CachedVerifier {
    /// Wraps a keyring with a default-capacity cache.
    pub fn new(ring: crate::Keyring) -> Self {
        CachedVerifier {
            ring,
            cache: LruMap::new(4096),
            stats: VerifierStats::default(),
        }
    }

    /// Cryptographic-work counters (see [`VerifierStats`]).
    pub fn stats(&self) -> VerifierStats {
        self.stats
    }

    /// Cached single-signature verification.
    pub fn verify(&mut self, signer: usize, msg: &[u8], sig: &Signature) -> bool {
        let key = (signer, msg_key(msg), *sig);
        if let Some(ok) = self.cache.get(&key) {
            return ok;
        }
        self.stats.single_verifications += 1;
        let ok = self.ring.verify(signer, msg, sig);
        self.cache.put(key, ok);
        ok
    }

    /// Records that the owning process just produced `sig` over `msg`
    /// with its own key `me` — a `(me, msg, sig)` obligation whose verdict
    /// is known. The process's own batches, acks and safe-acks come back
    /// to it in broadcasts and inside proofs of safety, and are then
    /// answered from the cache instead of verified.
    pub fn record_own(&mut self, (me, msg, sig): &Obligation) {
        self.cache.put((*me, msg_key(msg), *sig), true);
    }

    /// Verifies every `(signer, msg, sig)` obligation, batching all
    /// cache misses into one batched Ed25519 verification. Returns
    /// whether **all** are valid: [`Self::verify_groups`] with one
    /// group.
    pub fn verify_all(&mut self, items: &[Obligation]) -> bool {
        self.verify_groups(&[items]).iter().all(|&ok| ok)
    }

    /// Verifies records a process held unverified until a threshold's
    /// worth of them had arrived: one group of obligations per record,
    /// one verdict per group, in order. A group is valid when all its
    /// obligations are.
    ///
    /// Cached verdicts answer first, and a group with a cached failure
    /// is settled without new work. Every remaining miss, deduplicated
    /// across groups, goes into **one** batched verification — or one
    /// single check when it is alone, which costs less than a batch of
    /// one. If the batch fails, the existing fallback checks each miss
    /// on its own and caches its verdict, so a bad record fails only its
    /// own group, and redelivering it later costs a cache lookup.
    pub fn verify_groups<G: AsRef<[Obligation]>>(&mut self, groups: &[G]) -> Vec<bool> {
        let mut verdicts = vec![true; groups.len()];
        let mut misses: Vec<(usize, Pending<'_>)> = Vec::new();
        for (g, (group, verdict)) in groups.iter().zip(verdicts.iter_mut()).enumerate() {
            for (signer, msg, sig) in group.as_ref() {
                let key = msg_key(msg);
                match self.cache.get(&(*signer, key, *sig)) {
                    Some(true) => {}
                    Some(false) => *verdict = false,
                    None => misses.push((g, (*signer, msg.as_slice(), *sig, key))),
                }
            }
        }
        // Queue each distinct miss of a still-undecided group once; each
        // obligation remembers its queue slot.
        let mut slots: BTreeMap<(usize, MsgKey, [u8; 64]), usize> = BTreeMap::new();
        let mut pending: Vec<Pending<'_>> = Vec::new();
        let mut owners: Vec<(usize, usize)> = Vec::new();
        for (g, miss) in misses {
            if verdicts.get(g) != Some(&true) {
                continue;
            }
            let (signer, _, sig, key) = miss;
            let slot = *slots
                .entry((signer, key, sig.to_bytes()))
                .or_insert_with(|| {
                    pending.push(miss);
                    pending.len() - 1
                });
            owners.push((g, slot));
        }
        let checked = self.check(&pending);
        for (g, slot) in owners {
            if checked.get(slot) != Some(&true) {
                if let Some(verdict) = verdicts.get_mut(g) {
                    *verdict = false;
                }
            }
        }
        verdicts
    }

    /// Verifies and caches each pending miss, returning its verdicts: a
    /// lone miss alone, several in one batch, and on batch failure each
    /// on its own.
    fn check(&mut self, pending: &[Pending<'_>]) -> Vec<bool> {
        if pending.len() >= 2 {
            let refs: Vec<(usize, &[u8], Signature)> =
                pending.iter().map(|(s, m, g, _)| (*s, *m, *g)).collect();
            self.stats.batch_verifications += 1;
            self.stats.batched_signatures += pending.len() as u64;
            if self.ring.verify_batch(&refs) {
                for (signer, _, sig, key) in pending {
                    self.cache.put((*signer, *key, *sig), true);
                }
                return vec![true; pending.len()];
            }
        }
        // A lone miss, or some signature in the batch is bad: find and
        // cache the culprits.
        pending
            .iter()
            .map(|(signer, msg, sig, key)| {
                self.stats.single_verifications += 1;
                let ok = self.ring.verify(*signer, msg, sig);
                self.cache.put((*signer, *key, *sig), ok);
                ok
            })
            .collect()
    }

    /// Cached-verdict count (diagnostics).
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed25519::Keypair;

    fn obligations(n: usize) -> Vec<Obligation> {
        (0..n)
            .map(|i| {
                let msg = vec![i as u8; 10];
                let sig = Keypair::for_process(i).sign(&msg);
                (i, msg, sig)
            })
            .collect()
    }

    #[test]
    fn cached_verifier_batches_and_caches() {
        let mut v = CachedVerifier::new(crate::Keyring::for_system(6));
        let items = obligations(6);
        assert!(v.verify_all(&items));
        assert_eq!(v.cached(), 6);
        // All hits now; result stable.
        assert!(v.verify_all(&items));
        assert!(v.verify(0, &items[0].1, &items[0].2));
    }

    #[test]
    fn cached_verifier_finds_culprits_on_batch_failure() {
        let mut v = CachedVerifier::new(crate::Keyring::for_system(6));
        let mut items = obligations(4);
        items[2].2.s[1] ^= 0x20;
        assert!(!v.verify_all(&items));
        // The three good ones are cached true, the bad one false.
        assert!(v.verify(0, &items[0].1, &items[0].2));
        assert!(!v.verify(2, &items[2].1, &items[2].2));
        // A later batch containing the known-bad one fails from cache.
        assert!(!v.verify_all(&items));
    }

    #[test]
    fn forged_content_with_replayed_signature_is_rejected() {
        // The soundness scenario the msg-hash key exists for: a valid
        // (signer, sig) pair re-attached to different content must not
        // inherit the cached `true` verdict.
        let mut v = CachedVerifier::new(crate::Keyring::for_system(2));
        let kp = Keypair::for_process(0);
        let sig = kp.sign(b"legit");
        assert!(v.verify(0, b"legit", &sig));
        assert!(!v.verify(0, b"forged", &sig));
        assert!(!v.verify_all(&[(0, b"forged".to_vec(), sig)]));
    }

    #[test]
    fn stats_count_real_work_not_cache_hits() {
        let mut v = CachedVerifier::new(crate::Keyring::for_system(4));
        let items = obligations(4);
        assert!(v.verify_all(&items));
        assert_eq!(v.stats().batch_verifications, 1);
        assert_eq!(v.stats().single_verifications, 0);
        // All cache hits now: no new cryptographic work.
        assert!(v.verify_all(&items));
        assert!(v.verify(0, &items[0].1, &items[0].2));
        assert_eq!(v.stats().batch_verifications, 1);
        assert_eq!(v.stats().single_verifications, 0);
        // A batch failure falls back to individual checks, once.
        let mut bad = obligations(3);
        for it in &mut bad {
            it.1.push(0xFF); // different messages: all misses
        }
        bad[1].2.s[0] ^= 1;
        assert!(!v.verify_all(&bad));
        assert_eq!(v.stats().batch_verifications, 2);
        assert_eq!(v.stats().single_verifications, 3);
        // Redelivery of the bad batch is answered from cache.
        assert!(!v.verify_all(&bad));
        assert_eq!(v.stats().batch_verifications, 2);
        assert_eq!(v.stats().single_verifications, 3);
        assert_eq!(v.stats().batched_signatures, 4 + 3);
    }

    #[test]
    fn groups_share_one_batch_and_fail_alone() {
        let mut v = CachedVerifier::new(crate::Keyring::for_system(5));
        let items = obligations(5);
        let mut forged = items[3].clone();
        forged.1.push(0xFF); // replayed signature over other content
                             // Groups: a good record, a record whose second obligation is
                             // forged, and a good record repeating the first group's signature.
        let groups = vec![
            vec![items[0].clone()],
            vec![items[1].clone(), forged.clone()],
            vec![items[0].clone(), items[2].clone()],
        ];
        assert_eq!(v.verify_groups(&groups), vec![true, false, true]);
        let s = v.stats();
        // One batch over the four distinct misses, then the fallback.
        assert_eq!(
            (
                s.batch_verifications,
                s.batched_signatures,
                s.single_verifications
            ),
            (1, 4, 4)
        );
        // The forged group is settled from the cache; its good sibling
        // obligation is never queued, and a lone miss is checked alone.
        let groups = vec![vec![forged, items[4].clone()], vec![items[4].clone()]];
        assert_eq!(v.verify_groups(&groups), vec![false, true]);
        let s = v.stats();
        assert_eq!(
            (
                s.batch_verifications,
                s.batched_signatures,
                s.single_verifications
            ),
            (1, 4, 5)
        );
        // Everything cached now: no work, and an empty call is trivially
        // empty.
        assert_eq!(v.verify_groups(&groups), vec![false, true]);
        assert_eq!(v.verify_groups::<Vec<Obligation>>(&[]), Vec::<bool>::new());
        assert_eq!(v.stats(), s);
    }

    #[test]
    fn own_signatures_are_never_verified() {
        let mut v = CachedVerifier::new(crate::Keyring::for_system(4));
        let items = obligations(4);
        v.record_own(&items[0]);
        assert!(v.verify(0, &items[0].1, &items[0].2));
        assert_eq!(v.stats(), VerifierStats::default());
        // The other three are one batch; the own record is not in it.
        assert!(v.verify_all(&items));
        assert_eq!(v.stats().batch_verifications, 1);
        assert_eq!(v.cached(), 4);
        // Only that exact (signer, message, signature) is vouched for.
        assert!(!v.verify(0, b"other", &items[0].2));
        assert!(!v.verify(1, &items[0].1, &items[0].2));
    }

    #[test]
    fn duplicate_obligations_verified_once() {
        let mut v = CachedVerifier::new(crate::Keyring::for_system(2));
        let items = obligations(1);
        let doubled = vec![items[0].clone(), items[0].clone(), items[0].clone()];
        assert!(v.verify_all(&doubled));
        assert_eq!(v.cached(), 1);
    }
}
