//! A bounded cache of already-verified signatures.
//!
//! Byzantine processes can re-send the same signed records arbitrarily
//! often; without memoization every re-delivery costs a full Ed25519
//! verification (a double-scalar multiplication). The cache is keyed by
//! `(signer, message-hash, signature)` — **the message must be part of
//! the key**: a cache keyed by `(signer, signature)` alone would let an
//! adversary replay a valid signature attached to *different* content
//! and inherit the cached `true` verdict.
//!
//! Eviction is least-recently-used with a fixed capacity, so a flood of
//! distinct forgeries cannot grow the cache without bound.

use crate::ed25519::Signature;
use crate::lru::LruVerdicts;
use crate::sha512::sha512;

/// Truncated message digest used in cache keys (16 bytes of SHA-512 —
/// collision resistance far beyond anything a simulation can exhaust).
pub type MsgKey = [u8; 16];

type Key = (usize, MsgKey, Signature);

/// LRU cache of signature-verification verdicts (mechanics shared with
/// the proof-verdict cache via the crate-internal `LruVerdicts`).
#[derive(Debug)]
pub struct SigCache {
    map: LruVerdicts<Key>,
}

impl SigCache {
    /// Cache with room for `cap` verdicts.
    pub fn new(cap: usize) -> Self {
        SigCache {
            map: LruVerdicts::new(cap),
        }
    }

    /// Digests a message into its cache-key form.
    pub fn msg_key(msg: &[u8]) -> MsgKey {
        let d = sha512(msg);
        let mut out = [0u8; 16];
        out.copy_from_slice(&d[..16]);
        out
    }

    /// Cached verdict for `(signer, msg, sig)`, refreshing its recency.
    pub fn get(&mut self, signer: usize, msg_key: MsgKey, sig: &Signature) -> Option<bool> {
        self.map.get(&(signer, msg_key, *sig))
    }

    /// Stores a verdict, evicting the least-recently-used quarter of the
    /// cache when full (amortizes eviction cost).
    pub fn put(&mut self, signer: usize, msg_key: MsgKey, sig: &Signature, ok: bool) {
        self.map.put((signer, msg_key, *sig), ok);
    }

    /// Number of cached verdicts (diagnostics).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }
}

impl Default for SigCache {
    /// A capacity suiting per-process protocol state (a few quorums of
    /// records per round, times generous slack).
    fn default() -> Self {
        SigCache::new(4096)
    }
}

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
}

/// A [`Keyring`](crate::Keyring) paired with a [`SigCache`]: the one
/// verification entry point protocol processes hold. Single checks are
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
    cache: SigCache,
    stats: VerifierStats,
}

impl CachedVerifier {
    /// Wraps a keyring with a default-capacity cache.
    pub fn new(ring: crate::Keyring) -> Self {
        CachedVerifier {
            ring,
            cache: SigCache::default(),
            stats: VerifierStats::default(),
        }
    }

    /// The underlying PKI.
    pub fn ring(&self) -> &crate::Keyring {
        &self.ring
    }

    /// Cryptographic-work counters (see [`VerifierStats`]).
    pub fn stats(&self) -> VerifierStats {
        self.stats
    }

    /// Cached single-signature verification.
    pub fn verify(&mut self, signer: usize, msg: &[u8], sig: &Signature) -> bool {
        let key = SigCache::msg_key(msg);
        if let Some(ok) = self.cache.get(signer, key, sig) {
            return ok;
        }
        self.stats.single_verifications += 1;
        let ok = self.ring.verify(signer, msg, sig);
        self.cache.put(signer, key, sig, ok);
        ok
    }

    /// Records that the owning process just produced `sig` over `msg`
    /// with its own key `me` — a `(me, msg, sig)` obligation whose verdict
    /// is known. The process's own batches, acks and safe-acks come back
    /// to it in broadcasts and inside proofs of safety, and are then
    /// answered from the cache instead of verified.
    pub fn record_own(&mut self, (me, msg, sig): &(usize, Vec<u8>, Signature)) {
        self.cache.put(*me, SigCache::msg_key(msg), sig, true);
    }

    /// Verifies every `(signer, msg, sig)` obligation, batching all
    /// cache misses into one batched Ed25519 verification. Returns
    /// whether **all** are valid. Duplicated obligations are verified
    /// once; on batch failure the fallback caches each individual
    /// verdict, so repeated attacks stay cheap.
    pub fn verify_all(&mut self, items: &[(usize, Vec<u8>, Signature)]) -> bool {
        let mut all_ok = true;
        let mut pending: Vec<(usize, &[u8], Signature, MsgKey)> = Vec::new();
        let mut queued: std::collections::BTreeSet<(usize, MsgKey, [u8; 64])> =
            std::collections::BTreeSet::new();
        for (signer, msg, sig) in items {
            let key = SigCache::msg_key(msg);
            match self.cache.get(*signer, key, sig) {
                Some(true) => {}
                Some(false) => all_ok = false,
                None => {
                    if queued.insert((*signer, key, sig.to_bytes())) {
                        pending.push((*signer, msg.as_slice(), *sig, key));
                    }
                }
            }
        }
        if !all_ok {
            return false;
        }
        match pending.len() {
            0 => true,
            1 => {
                let (signer, msg, sig, key) = &pending[0];
                self.stats.single_verifications += 1;
                let ok = self.ring.verify(*signer, msg, sig);
                self.cache.put(*signer, *key, sig, ok);
                ok
            }
            _ => {
                let refs: Vec<(usize, &[u8], Signature)> =
                    pending.iter().map(|(s, m, g, _)| (*s, *m, *g)).collect();
                self.stats.batch_verifications += 1;
                if self.ring.verify_batch(&refs) {
                    for (signer, _, sig, key) in &pending {
                        self.cache.put(*signer, *key, sig, true);
                    }
                    return true;
                }
                // Some signature is bad: find and cache the culprits.
                let mut ok_all = true;
                for (signer, msg, sig, key) in &pending {
                    self.stats.single_verifications += 1;
                    let ok = self.ring.verify(*signer, msg, sig);
                    self.cache.put(*signer, *key, sig, ok);
                    ok_all &= ok;
                }
                ok_all
            }
        }
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

    #[test]
    fn hit_returns_stored_verdict() {
        let kp = Keypair::for_process(0);
        let sig = kp.sign(b"m");
        let mut c = SigCache::new(8);
        let k = SigCache::msg_key(b"m");
        assert_eq!(c.get(0, k, &sig), None);
        c.put(0, k, &sig, true);
        assert_eq!(c.get(0, k, &sig), Some(true));
    }

    #[test]
    fn message_is_part_of_the_key() {
        // The forgery-replay scenario: a valid (signer, sig) pair cached
        // as true must NOT validate different content.
        let kp = Keypair::for_process(1);
        let sig = kp.sign(b"legit");
        let mut c = SigCache::new(8);
        c.put(1, SigCache::msg_key(b"legit"), &sig, true);
        assert_eq!(c.get(1, SigCache::msg_key(b"forged"), &sig), None);
    }

    #[test]
    fn eviction_keeps_recent_entries() {
        let kp = Keypair::for_process(2);
        let mut c = SigCache::new(16);
        let sigs: Vec<_> = (0..40u8).map(|i| kp.sign(&[i])).collect();
        for (i, sig) in sigs.iter().enumerate() {
            c.put(2, SigCache::msg_key(&[i as u8]), sig, true);
        }
        assert!(c.len() <= 16);
        // The most recent insert survives.
        assert_eq!(c.get(2, SigCache::msg_key(&[39]), &sigs[39]), Some(true));
    }

    #[test]
    fn negative_verdicts_are_cached_too() {
        let kp = Keypair::for_process(3);
        let mut sig = kp.sign(b"x");
        sig.s[0] ^= 1;
        let mut c = SigCache::new(8);
        let k = SigCache::msg_key(b"x");
        c.put(3, k, &sig, false);
        assert_eq!(c.get(3, k, &sig), Some(false));
    }

    fn obligations(n: usize) -> Vec<(usize, Vec<u8>, crate::Signature)> {
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
