//! HMAC-SHA-512 (RFC 2104).
//!
//! The base algorithms (WTS / GWTS) assume only *authenticated channels*;
//! in a real deployment those are realized with per-link MACs. The
//! simulator enforces sender authenticity structurally, but the byte-cost
//! experiments (E8) optionally account for MAC overhead.

use crate::sha512::{Sha512, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA512(key, message)`.
pub fn hmac_sha512(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let digest = crate::sha512::sha512(key);
        key_block[..DIGEST_LEN].copy_from_slice(&digest);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha512::new();
    inner.update(&ipad).update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha512::new();
    outer.update(&opad).update(&inner_digest);
    outer.finalize()
}

/// Constant-length comparison helper for MAC verification.
pub fn verify_hmac_sha512(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    if tag.len() != DIGEST_LEN {
        return false;
    }
    let expect = hmac_sha512(key, message);
    // Branch-free accumulate (not that timing matters in a simulator —
    // done for idiomatic completeness).
    let mut diff = 0u8;
    for (a, b) in expect.iter().zip(tag) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_test_case_1() {
        // Key = 0x0b * 20, Data = "Hi There".
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha512(&key, b"Hi There")),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        // Key = "Jefe", Data = "what do ya want for nothing?".
        assert_eq!(
            hex(&hmac_sha512(b"Jefe", b"what do ya want for nothing?")),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554\
             9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
        );
    }

    #[test]
    fn long_key_is_hashed_first() {
        let key = vec![0xaau8; 200]; // > block size
        let t1 = hmac_sha512(&key, b"m");
        let t2 = hmac_sha512(&crate::sha512::sha512(&key), b"m");
        assert_eq!(t1, t2);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha512(b"k", b"msg");
        assert!(verify_hmac_sha512(b"k", b"msg", &tag));
        assert!(!verify_hmac_sha512(b"k", b"msg2", &tag));
        assert!(!verify_hmac_sha512(b"k2", b"msg", &tag));
        assert!(!verify_hmac_sha512(b"k", b"msg", &tag[..10]));
    }
}
