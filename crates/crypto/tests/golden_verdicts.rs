//! Every verification path must give every record the verdict it gave
//! before any change to the arithmetic under it. This test builds 1 000
//! records — valid ones and seven ways of being wrong or odd — runs them
//! through each public entry point, and pins the SHA-512 of the verdict
//! bits, together with the `VerifierStats` the cached path reports.
//!
//! Record kinds: valid; `S` with one bit flipped; `R` with one bit
//! flipped; a message other than the signed one; a signature whose `R`
//! carries the order-2 point and whose `S` answers that `R`'s challenge
//! (valid under the cofactored equation); `S + ℓ` (non-canonical); an `R`
//! that is not on the curve; a valid signature by a process outside the
//! ring.
//!
//! Paths: `Keyring::verify` per record, `Keyring::verify_batch` and the
//! bare-key `ed25519::verify_batch` over a fixed cut into sub-batches,
//! `CachedVerifier::verify_groups` over a fixed cut into groups, and the
//! bare-key `PublicKey::verify` per record.

use bgla_crypto::ed25519::verify_batch;
use bgla_crypto::edwards::Point;
use bgla_crypto::scalar::{Scalar, L};
use bgla_crypto::{
    sha512, CachedVerifier, Keypair, Keyring, Obligation, PublicKey, Sha512, Signature,
    VerifierStats,
};

const SIGNERS: usize = 8;
const RECORDS: usize = 1_000;

/// SHA-512 of the verdict bits of every path, in the order
/// [`verdict_bits`] lists them — computed while every verification still
/// walked a 253-position chain with width-5 key tables.
const GOLDEN_DIGEST: &str = "7719bd5b7bf99d256b657304ec05d8adab93f552834ec1cb93cbf63ed85fd98d\
                             ea706cd20dec0229ab02991577d800aa95706ed3cb365ae82e6049e7eb7fba6d";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Valid,
    FlipS,
    FlipR,
    OtherMessage,
    Torsion,
    NonCanonicalS,
    OffCurveR,
    UnknownSigner,
}

const KINDS: [Kind; 8] = [
    Kind::Valid,
    Kind::FlipS,
    Kind::FlipR,
    Kind::OtherMessage,
    Kind::Torsion,
    Kind::NonCanonicalS,
    Kind::OffCurveR,
    Kind::UnknownSigner,
];

/// Three records in four are valid; the fourth walks through every kind,
/// so a batch of a few records is sometimes clean and sometimes not.
fn kind(i: usize) -> Kind {
    if i.is_multiple_of(4) {
        KINDS[(i / 4) % KINDS.len()]
    } else {
        Kind::Valid
    }
}

/// The order-2 point `(0, −1)`.
fn order_two() -> Point {
    let mut enc = [0xffu8; 32];
    enc[0] = 0xec;
    enc[31] = 0x7f;
    Point::decompress(&enc).expect("(0, −1) is on the curve")
}

/// RFC 8032 signing with `R + (0, −1)` committed in place of `R`, from
/// the seed alone: what a Byzantine signer can do with its own key.
fn sign_with_torsion(kp: &Keypair, msg: &[u8]) -> Signature {
    let expanded = sha512(&kp.secret.0);
    let mut clamped = [0u8; 32];
    clamped.copy_from_slice(&expanded[..32]);
    clamped[0] &= 248;
    clamped[31] &= 127;
    clamped[31] |= 64;
    let secret = Scalar::from_bytes_mod_order(&clamped);
    let mut nonce = Sha512::new();
    nonce.update(&expanded[32..]).update(msg);
    let r = Scalar::from_bytes_mod_order_wide(&nonce.finalize());
    let r_enc = Point::mul_base(&r).add(&order_two()).compress();
    let mut challenge = Sha512::new();
    challenge.update(&r_enc).update(&kp.public.0).update(msg);
    let k = Scalar::from_bytes_mod_order_wide(&challenge.finalize());
    Signature {
        r: r_enc,
        s: r.add(k.mul(secret)).to_bytes(),
    }
}

/// `s + ℓ` as 32 little-endian bytes: the same residue, non-canonical.
fn plus_l(s: [u8; 32]) -> [u8; 32] {
    let l: Vec<u8> = L.iter().flat_map(|limb| limb.to_le_bytes()).collect();
    let mut out = [0u8; 32];
    let mut carry = 0u16;
    for i in 0..32 {
        let t = u16::from(s[i]) + u16::from(l[i]) + carry;
        out[i] = t as u8;
        carry = t >> 8;
    }
    out
}

/// Record `i`: `(signer, message, signature)`.
fn record(i: usize) -> Obligation {
    let kind = kind(i);
    let signer = match kind {
        Kind::UnknownSigner => SIGNERS + i % 3,
        _ => i % SIGNERS,
    };
    let kp = Keypair::for_process(signer);
    let mut msg = format!("golden verdict {i}").into_bytes();
    msg.resize(msg.len() + i % 37, (i % 251) as u8);
    let mut sig = match kind {
        Kind::Torsion => sign_with_torsion(&kp, &msg),
        _ => kp.sign(&msg),
    };
    match kind {
        Kind::FlipS => sig.s[i % 31] ^= 1 << (i % 8),
        Kind::FlipR => sig.r[i % 32] ^= 1 << (i % 7),
        Kind::OtherMessage => msg.push(b'!'),
        Kind::NonCanonicalS => sig.s = plus_l(sig.s),
        Kind::OffCurveR => {
            sig.r = [0; 32];
            sig.r[0] = 2; // y = 2 is not on the curve
        }
        Kind::Valid | Kind::Torsion | Kind::UnknownSigner => {}
    }
    (signer, msg, sig)
}

/// Sub-batch and group sizes, cycled over the records in order.
const CUTS: [usize; 7] = [1, 2, 3, 4, 5, 7, 16];

fn cut<T>(items: &[T]) -> Vec<&[T]> {
    let mut out = Vec::new();
    let mut rest = items;
    for size in CUTS.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at((*size).min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out
}

fn bare_key(signer: usize) -> PublicKey {
    Keypair::for_process(signer).public
}

/// The verdicts of every path, one byte each, and the cached path's
/// work counters.
fn verdict_bits(records: &[Obligation]) -> (Vec<u8>, VerifierStats) {
    let ring = Keyring::for_system(SIGNERS);
    let by_id: Vec<(usize, &[u8], Signature)> = records
        .iter()
        .map(|(signer, msg, sig)| (*signer, msg.as_slice(), *sig))
        .collect();
    let keyed: Vec<(PublicKey, &[u8], Signature)> = by_id
        .iter()
        .map(|(signer, msg, sig)| (bare_key(*signer), *msg, *sig))
        .collect();
    let mut bits: Vec<bool> = Vec::new();
    bits.extend(by_id.iter().map(|(s, m, g)| ring.verify(*s, m, g)));
    bits.extend(cut(&by_id).iter().map(|batch| ring.verify_batch(batch)));
    bits.extend(cut(&keyed).iter().map(|batch| verify_batch(batch)));
    // Each window is one `verify_groups` call over groups of two records;
    // the second pass redelivers every record in other windows, and the
    // cache answers it.
    let mut cached = CachedVerifier::new(ring);
    for window in cut(records) {
        let groups: Vec<&[Obligation]> = window.chunks(2).collect();
        bits.extend(cached.verify_groups(&groups));
    }
    for window in records.chunks(10) {
        let groups: Vec<&[Obligation]> = window.chunks(3).collect();
        bits.extend(cached.verify_groups(&groups));
    }
    bits.extend(keyed.iter().map(|(key, m, g)| key.verify(m, g)));
    (bits.into_iter().map(u8::from).collect(), cached.stats())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_path_gives_the_pinned_verdicts() {
    let records: Vec<Obligation> = (0..RECORDS).map(record).collect();
    let (bits, stats) = verdict_bits(&records);

    // The kinds' verdicts under the one cofactored equation, on the two
    // per-record paths.
    let ring_bits = &bits[..RECORDS];
    let bare_bits = &bits[bits.len() - RECORDS..];
    for (i, (ring, bare)) in ring_bits.iter().zip(bare_bits).enumerate() {
        let valid = matches!(kind(i), Kind::Valid | Kind::Torsion);
        assert_eq!(*ring == 1, valid, "Keyring::verify, record {i}");
        // A bare key is the signer's own, in the ring or not.
        let own_key_valid = valid || kind(i) == Kind::UnknownSigner;
        assert_eq!(*bare == 1, own_key_valid, "PublicKey::verify, record {i}");
    }

    assert_eq!(
        (
            stats.single_verifications,
            stats.batch_verifications,
            stats.batched_signatures
        ),
        (853, 160, 973),
        "VerifierStats of the cached path"
    );
    assert_eq!(hex(&sha512(&bits)), GOLDEN_DIGEST);
}
