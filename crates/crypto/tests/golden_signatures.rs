//! Ed25519 here is deterministic (RFC 8032): a signature is a function of
//! seed and message only, whatever arithmetic computes it. This test pins
//! that beyond the RFC's five vectors — the SHA-512 of 1 000 signatures by
//! the simulator's process keys over messages shaped like `GSafeAck`
//! signable bytes, every length from 0 to 300 — and checks that the same
//! signatures pass batch verification at the batch sizes the protocols
//! use, and fail it when one `S` is made non-canonical or one message
//! byte flips.

use bgla_crypto::scalar::L;
use bgla_crypto::{sha512, Keypair, Keyring, Signature};

const SIGNERS: usize = 16;
const MESSAGES: usize = 1_000;

/// SHA-512 of the 1 000 signatures' 64-byte encodings, in order —
/// computed when scalars were still reduced by binary long division.
const GOLDEN_DIGEST: &str = "235651a2705f0cc5b45376deb8c62d1b2fa351b33f010cfac44c9e1494e1f56e\
                             da7c9fb36e065891e4f8a7c5bf754c0c1fa1386d89ddf07375ef54d711ae0ee1";

/// Message `i`: the GSbS safe-ack domain, a round and a signer id, then
/// hash-chained filler, cut to `i · 7919 mod 301` bytes (7919 is prime to
/// 301, so the first 301 messages take every length in 0..=300).
fn message(i: usize) -> Vec<u8> {
    let mut m = b"bgla-gsbs-safeack:".to_vec();
    m.extend(((i / SIGNERS) as u64).to_le_bytes());
    m.extend(((i % SIGNERS) as u64).to_le_bytes());
    let len = i * 7919 % 301;
    while m.len() < len {
        let block = sha512(&m);
        m.extend(block);
    }
    m.truncate(len);
    m
}

fn signed() -> Vec<(usize, Vec<u8>, Signature)> {
    let keys: Vec<Keypair> = (0..SIGNERS).map(Keypair::for_process).collect();
    (0..MESSAGES)
        .map(|i| {
            let msg = message(i);
            let sig = keys[i % SIGNERS].sign(&msg);
            (i % SIGNERS, msg, sig)
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `s + ℓ` as 32 little-endian bytes: the same residue, non-canonical
/// (every reduced `s` is below 2^253, so no carry leaves the top byte).
fn plus_l(s: [u8; 32]) -> [u8; 32] {
    let l: Vec<u8> = L.iter().flat_map(|limb| limb.to_le_bytes()).collect();
    let mut out = [0u8; 32];
    let mut carry = 0u16;
    for i in 0..32 {
        let t = u16::from(s[i]) + u16::from(l[i]) + carry;
        out[i] = t as u8;
        carry = t >> 8;
    }
    assert_eq!(carry, 0);
    out
}

#[test]
fn signatures_match_the_golden_digest_and_batch_verify() {
    let records = signed();
    let lengths: std::collections::BTreeSet<usize> =
        records.iter().map(|(_, m, _)| m.len()).collect();
    assert_eq!(lengths, (0..=300).collect());
    let encoded: Vec<u8> = records.iter().flat_map(|(_, _, s)| s.to_bytes()).collect();
    assert_eq!(hex(&sha512(&encoded)), GOLDEN_DIGEST);

    let ring = Keyring::for_system(SIGNERS);
    for size in [1, 2, 5, 16] {
        for (b, batch) in records.chunks(size).enumerate() {
            let mut items: Vec<(usize, &[u8], Signature)> = batch
                .iter()
                .map(|(signer, msg, sig)| (*signer, msg.as_slice(), *sig))
                .collect();
            assert!(ring.verify_batch(&items), "size {size}, batch {b}");
            // Tamper with one record, a different one per batch.
            let victim = b % items.len();
            let honest = items[victim];
            items[victim].2.s = plus_l(honest.2.s);
            assert!(!ring.verify_batch(&items), "S + ℓ: size {size}, batch {b}");
            items[victim] = honest;
            if !honest.1.is_empty() {
                let mut flipped = honest.1.to_vec();
                let at = b % flipped.len();
                flipped[at] ^= 1;
                items[victim].1 = &flipped;
                assert!(!ring.verify_batch(&items), "flip: size {size}, batch {b}");
            }
        }
    }
}
