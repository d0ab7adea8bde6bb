//! Ed25519 signatures (RFC 8032, "PureEdDSA" variant).
//!
//! # Signing
//!
//! [`Keypair::sign`] is RFC 8032 §5.1.6 verbatim — deterministic nonce
//! `r = H(prefix ‖ M)`, `R = r·B`, `S = r + H(R ‖ A ‖ M)·s` — so the bytes
//! of a signature are a function of seed and message only, whatever
//! arithmetic computes them. The one scalar multiplication is the
//! table-driven [`Point::mul_base`] (≈ 480 M) and the one encoding costs a
//! field inversion (≈ 190 M): **≈ 700 field multiplications per
//! signature**, and the same per key generation. Signing is
//! variable-time: the radix-16 table is indexed by digits of the secret
//! nonce. Fine for a simulator whose keys derive from public process ids;
//! not for deployment.
//!
//! # Verification: one equation
//!
//! Every path — [`PublicKey::verify`], [`verify_batch`], and through them
//! [`crate::Keyring`] and [`crate::CachedVerifier`] — accepts exactly the
//! signatures with canonical `S < ℓ`, decodable `A` and `R`, and
//!
//! ```text
//! [8]([S]B − [k]A − R) = identity,    k = H(R ‖ A ‖ M)
//! ```
//!
//! the *cofactored* equation (the ZIP-215 rule). RFC 8032 allows both this
//! and the cofactorless `[S]B = R + [k]A`, but only the cofactored one can
//! be checked in a batch: a random linear combination cannot see
//! small-order components, so a batch has to multiply them away. If single
//! verification were cofactorless, a Byzantine signer could add the
//! order-2 point `(0, −1)` to its `R`, and a record would be valid inside a
//! batch and invalid alone — two honest processes with different cache
//! contents would disagree about the same proof of safety. With one
//! equation a batch's verdict is the conjunction of its members' verdicts
//! (up to a 2^-125 chance of a blinded cancellation), whichever path runs.
//!
//! Costs, in field multiplications (squarings counted at 0.7):
//!
//! * single: decode `R` (≈ 200) + `[k]A + [−S]B` as one interleaved
//!   width-5/width-8 non-adjacent-form chain — 253 doublings (≈ 1 470),
//!   ≈ 42 additions from the key's table (≈ 340) and ≈ 28 from the `B`
//!   table (≈ 200) — plus adding `R`, three doublings and the identity
//!   test (≈ 40): **≈ 2 250 per verification** when the key arrives
//!   expanded (as it does from a [`crate::Keyring`]); a bare
//!   [`PublicKey::verify`] first pays ≈ 270 to decode `A` and build its
//!   table.
//! * batch of `n`: per signature decode `R` (≈ 200), its table (≈ 70),
//!   ≈ 21 additions for the 128-bit blinder `zᵢ` (≈ 170) and ≈ 42 for
//!   `[zᵢkᵢ]Aᵢ` (≈ 340) — **≈ 780 per signature** — plus one shared chain
//!   and one `B` term (≈ 1 700) per batch: ≈ 1 120 per signature at
//!   `n = 5`, ≈ 890 at `n = 16`.

use crate::edwards::{straus, OddMultiples, Point};
use crate::scalar::Scalar;
use crate::sha512::Sha512;

/// A 32-byte secret seed.
#[derive(Clone)]
pub struct SecretKey(pub [u8; 32]);

/// A compressed public key point `A = s·B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

/// A 64-byte signature `R ‖ S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature {
    /// Compressed commitment point.
    pub r: [u8; 32],
    /// Response scalar (canonical).
    pub s: [u8; 32],
}

impl Signature {
    /// Serializes to the standard 64-byte form.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }

    /// Parses the standard 64-byte form (no validity check yet — that
    /// happens in [`PublicKey::verify`]).
    pub fn from_bytes(bytes: &[u8; 64]) -> Signature {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        // bgla-lint: allow(byzantine-panic, "constant ranges into a fixed [u8; 64] cannot be out of bounds")
        r.copy_from_slice(&bytes[..32]);
        // bgla-lint: allow(byzantine-panic, "constant ranges into a fixed [u8; 64] cannot be out of bounds")
        s.copy_from_slice(&bytes[32..]);
        Signature { r, s }
    }
}

/// A key pair with the expanded secret scalar cached.
#[derive(Clone)]
pub struct Keypair {
    /// The seed.
    pub secret: SecretKey,
    /// The public point.
    pub public: PublicKey,
    /// Clamped secret scalar `s`.
    scalar: Scalar,
    /// The prefix used to derive deterministic nonces.
    prefix: [u8; 32],
}

fn clamp(mut b: [u8; 32]) -> [u8; 32] {
    b[0] &= 248;
    b[31] &= 127;
    b[31] |= 64;
    b
}

impl Keypair {
    /// Derives a key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> Keypair {
        let mut h = Sha512::new();
        h.update(&seed);
        let digest = h.finalize();
        let mut lo = [0u8; 32];
        let mut hi = [0u8; 32];
        lo.copy_from_slice(&digest[..32]);
        hi.copy_from_slice(&digest[32..]);
        let scalar_bytes = clamp(lo);
        // Reducing mod ℓ is safe: B has order ℓ, so s·B = (s mod ℓ)·B.
        let scalar = Scalar::from_bytes_mod_order(&scalar_bytes);
        let public = PublicKey(Point::mul_base(&scalar).compress());
        Keypair {
            secret: SecretKey(seed),
            public,
            scalar,
            prefix: hi,
        }
    }

    /// Deterministic keypair for process `id` — the simulator's PKI
    /// (every run derives the same keys, keeping traces reproducible).
    pub fn for_process(id: usize) -> Keypair {
        let mut h = Sha512::new();
        h.update(b"bgla-process-key");
        h.update(&(id as u64).to_le_bytes());
        let d = h.finalize();
        let mut seed = [0u8; 32];
        seed.copy_from_slice(&d[..32]);
        Keypair::from_seed(seed)
    }

    /// Signs `msg` (RFC 8032 §5.1.6).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix).update(msg);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());
        let r_point = Point::mul_base(&r).compress();
        let mut h2 = Sha512::new();
        h2.update(&r_point).update(&self.public.0).update(msg);
        let k = Scalar::from_bytes_mod_order_wide(&h2.finalize());
        let s = r.add(k.mul(self.scalar));
        Signature {
            r: r_point,
            s: s.to_bytes(),
        }
    }
}

/// `k = H(R ‖ A ‖ M)` as the raw digest (the batch transcript binds it)
/// and as a scalar.
fn challenge(r: &[u8; 32], a: &PublicKey, msg: &[u8]) -> ([u8; 64], Scalar) {
    let mut h = Sha512::new();
    h.update(r).update(&a.0).update(msg);
    let digest = h.finalize();
    (digest, Scalar::from_bytes_mod_order_wide(&digest))
}

/// A public key decoded once: the compressed bytes (hashed into every
/// challenge) and the width-5 table of the point `A` (1 280 bytes). This
/// is what a [`crate::Keyring`] keeps per process, so no verification
/// decompresses `A` again.
#[derive(Debug, Clone)]
pub(crate) struct ExpandedKey {
    pub(crate) public: PublicKey,
    table: OddMultiples,
}

impl ExpandedKey {
    /// `None` when the bytes do not decode to a curve point.
    pub(crate) fn new(public: PublicKey) -> Option<ExpandedKey> {
        let a = Point::decompress(&public.0)?;
        Some(ExpandedKey {
            public,
            table: OddMultiples::new(&a),
        })
    }

    /// The cofactored check `[8]([k]A + [−S]B + R) = identity` (the
    /// module's one equation, negated).
    pub(crate) fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let Some(s) = Scalar::from_canonical_bytes(&sig.s) else {
            return false; // non-canonical S: malleable, reject
        };
        let Some(r) = Point::decompress(&sig.r) else {
            return false;
        };
        let (_, k) = challenge(&sig.r, &self.public, msg);
        straus(&[(k, &self.table)], &s.neg())
            .add(&r)
            .mul_by_cofactor()
            .is_identity()
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg` (RFC 8032 §5.1.7, cofactored): checks
    /// `[8]([S]B − [k]A − R) = identity` with `k = H(R ‖ A ‖ msg)`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        ExpandedKey::new(*self).is_some_and(|key| key.verify(msg, sig))
    }
}

/// Batch verification (RFC 8032 §8.2 style): checks many signatures at
/// once with a random linear combination —
/// `[8](Σ zᵢkᵢ·Aᵢ + Σ zᵢ·Rᵢ − (Σ zᵢSᵢ)·B) = identity` — over one shared
/// doubling chain. Accepts exactly when every member passes
/// [`PublicKey::verify`] (see the module docs); used by SbS/GSbS when
/// checking whole proofs of safety.
///
/// The 128-bit blinders `zᵢ` are derived Fiat–Shamir-style from a
/// transcript of the whole batch (every challenge digest `H(R ‖ A ‖ M)`
/// and every `S`), so whoever crafted the signatures could not choose them
/// against known coefficients to force a cancellation, and runs stay
/// reproducible.
pub fn verify_batch(items: &[(PublicKey, &[u8], Signature)]) -> bool {
    let keys: Option<Vec<ExpandedKey>> = items
        .iter()
        .map(|(pk, _, _)| ExpandedKey::new(*pk))
        .collect();
    keys.is_some_and(|keys| {
        let items: Vec<_> = keys
            .iter()
            .zip(items)
            .map(|(key, (_, msg, sig))| (key, *msg, *sig))
            .collect();
        verify_batch_expanded(&items)
    })
}

/// [`verify_batch`] over keys that are already decoded — the entry
/// [`crate::Keyring::verify_batch`] uses. `R` is the only point
/// decompressed per signature.
pub(crate) fn verify_batch_expanded(items: &[(&ExpandedKey, &[u8], Signature)]) -> bool {
    let mut transcript = Sha512::new();
    transcript.update(b"bgla-batch-blinding");
    // Per signature: S, k, the table of R, the table of A.
    let mut parsed = Vec::with_capacity(items.len());
    for (key, msg, sig) in items {
        let Some(s) = Scalar::from_canonical_bytes(&sig.s) else {
            return false;
        };
        let Some(r) = Point::decompress(&sig.r) else {
            return false;
        };
        let (digest, k) = challenge(&sig.r, &key.public, msg);
        transcript.update(&digest).update(&sig.s);
        parsed.push((s, k, OddMultiples::new(&r), &key.table));
    }
    let seed = transcript.finalize();
    let mut terms: Vec<(Scalar, &OddMultiples)> = Vec::with_capacity(2 * parsed.len());
    let mut b_coeff = Scalar::ZERO;
    // One digest blinds four signatures: zᵢ is 16 bytes of
    // H(seed ‖ ⌊i/4⌋).
    for (block, chunk) in parsed.chunks(4).enumerate() {
        let mut h = Sha512::new();
        h.update(&seed).update(&(block as u64).to_le_bytes());
        let blinders = h.finalize();
        for ((s, k, r_table, a_table), z) in chunk.iter().zip(blinders.chunks_exact(16)) {
            let z = z
                .iter()
                .rev()
                .fold(0u128, |acc, &b| acc << 8 | u128::from(b));
            let z = Scalar([z as u64, (z >> 64) as u64, 0, 0]);
            b_coeff = b_coeff.add(z.mul(*s));
            terms.push((z, r_table));
            terms.push((z.mul(*k), *a_table));
        }
    }
    straus(&terms, &b_coeff.neg())
        .mul_by_cofactor()
        .is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test_1() {
        let seed: [u8; 32] =
            from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
                .try_into()
                .unwrap();
        let kp = Keypair::from_seed(seed);
        assert_eq!(
            kp.public.0.to_vec(),
            from_hex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = kp.sign(b"");
        assert_eq!(
            sig.to_bytes().to_vec(),
            from_hex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(kp.public.verify(b"", &sig));
    }

    /// RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test_2() {
        let seed: [u8; 32] =
            from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
                .try_into()
                .unwrap();
        let kp = Keypair::from_seed(seed);
        assert_eq!(
            kp.public.0.to_vec(),
            from_hex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = [0x72u8];
        let sig = kp.sign(&msg);
        assert_eq!(
            sig.to_bytes().to_vec(),
            from_hex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(kp.public.verify(&msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::for_process(0);
        let sig = kp.sign(b"hello");
        assert!(kp.public.verify(b"hello", &sig));
        assert!(!kp.public.verify(b"hellp", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp0 = Keypair::for_process(0);
        let kp1 = Keypair::for_process(1);
        let sig = kp0.sign(b"msg");
        assert!(!kp1.public.verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::for_process(2);
        let mut sig = kp.sign(b"msg");
        sig.s[0] ^= 1;
        assert!(!kp.public.verify(b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.r[0] ^= 1;
        assert!(!kp.public.verify(b"msg", &sig2));
    }

    #[test]
    fn non_canonical_s_rejected() {
        // S + ℓ encodes the same residue but must be rejected
        // (signature malleability defense).
        let kp = Keypair::for_process(3);
        let sig = kp.sign(b"m");
        let s = Scalar::from_canonical_bytes(&sig.s).unwrap();
        // Add ℓ with schoolbook byte arithmetic.
        let mut carry = 0u16;
        let mut s_plus_l = [0u8; 32];
        let l_bytes = {
            let mut b = [0u8; 32];
            for (i, limb) in crate::scalar::L.iter().enumerate() {
                b[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
            }
            b
        };
        for i in 0..32 {
            let t = s.to_bytes()[i] as u16 + l_bytes[i] as u16 + carry;
            s_plus_l[i] = t as u8;
            carry = t >> 8;
        }
        let forged = Signature {
            r: sig.r,
            s: s_plus_l,
        };
        assert!(!kp.public.verify(b"m", &forged));
    }

    #[test]
    fn process_keys_are_distinct_and_stable() {
        let a1 = Keypair::for_process(7);
        let a2 = Keypair::for_process(7);
        let b = Keypair::for_process(8);
        assert_eq!(a1.public, a2.public);
        assert_ne!(a1.public, b.public);
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = Keypair::for_process(9);
        assert_eq!(kp.sign(b"x").to_bytes(), kp.sign(b"x").to_bytes());
        assert_ne!(kp.sign(b"x").to_bytes(), kp.sign(b"y").to_bytes());
    }
}

#[cfg(test)]
mod more_vectors {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test_3() {
        let seed: [u8; 32] =
            from_hex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7")
                .try_into()
                .unwrap();
        let kp = Keypair::from_seed(seed);
        assert_eq!(
            kp.public.0.to_vec(),
            from_hex("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
        );
        let msg = from_hex("af82");
        let sig = kp.sign(&msg);
        assert_eq!(
            sig.to_bytes().to_vec(),
            from_hex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(kp.public.verify(&msg, &sig));
    }

    fn check_vector(seed: &str, public: &str, msg: &[u8], sig: &str) {
        let kp = Keypair::from_seed(from_hex(seed).try_into().unwrap());
        assert_eq!(kp.public.0.to_vec(), from_hex(public));
        let got = kp.sign(msg);
        assert_eq!(got.to_bytes().to_vec(), from_hex(sig));
        assert!(kp.public.verify(msg, &got));
        assert!(verify_batch(&[
            (kp.public, msg, got),
            (kp.public, msg, got)
        ]));
    }

    /// The 1023-byte message of RFC 8032 §7.1 TEST 1024.
    const TEST_1024_MSG: &str = "\
        08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98\
        fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8\
        79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d\
        658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc\
        1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe\
        ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e\
        06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef\
        efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7\
        aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1\
        85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2\
        d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24\
        554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270\
        88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc\
        2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07\
        07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba\
        b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a\
        ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e\
        c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7\
        51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c\
        42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8\
        ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df\
        f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08\
        d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649\
        de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4\
        88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3\
        2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e\
        6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f\
        b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5\
        0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1\
        369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d\
        b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c\
        0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0";

    /// RFC 8032 §7.1 TEST 1024 (a message spanning several SHA-512 blocks).
    #[test]
    fn rfc8032_test_1024() {
        let msg = from_hex(TEST_1024_MSG);
        assert_eq!(msg.len(), 1023);
        check_vector(
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e",
            &msg,
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
             aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03",
        );
    }

    /// RFC 8032 §7.1 TEST SHA(abc): the message is SHA-512("abc").
    #[test]
    fn rfc8032_test_sha_abc() {
        check_vector(
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            &crate::sha512(b"abc"),
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
             09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
        );
    }

    /// Cross-message/cross-key rejection matrix over several keys.
    #[test]
    fn rejection_matrix() {
        let keys: Vec<Keypair> = (0..4).map(Keypair::for_process).collect();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
        for (ki, kp) in keys.iter().enumerate() {
            for (mi, msg) in msgs.iter().enumerate() {
                let sig = kp.sign(msg);
                for (kj, other) in keys.iter().enumerate() {
                    for (mj, msg2) in msgs.iter().enumerate() {
                        let expect = ki == kj && mi == mj;
                        assert_eq!(
                            other.public.verify(msg2, &sig),
                            expect,
                            "key {ki}->{kj} msg {mi}->{mj}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use proptest::prelude::*;

    fn batch(n: usize) -> Vec<(PublicKey, Vec<u8>, Signature)> {
        (0..n)
            .map(|i| {
                let kp = Keypair::for_process(i);
                let msg = format!("message {i}").into_bytes();
                let sig = kp.sign(&msg);
                (kp.public, msg, sig)
            })
            .collect()
    }

    fn refs(b: &[(PublicKey, Vec<u8>, Signature)]) -> Vec<(PublicKey, &[u8], Signature)> {
        b.iter().map(|(p, m, s)| (*p, m.as_slice(), *s)).collect()
    }

    #[test]
    fn valid_batch_verifies() {
        let b = batch(8);
        assert!(verify_batch(&refs(&b)));
        assert!(verify_batch(&[]));
    }

    #[test]
    fn single_bad_signature_fails_the_batch() {
        for corrupt in 0..4 {
            let mut b = batch(4);
            b[corrupt].2.s[1] ^= 0x40;
            assert!(!verify_batch(&refs(&b)), "corrupt index {corrupt}");
        }
    }

    #[test]
    fn swapped_messages_fail_the_batch() {
        let mut b = batch(3);
        let tmp = b[0].1.clone();
        b[0].1 = b[1].1.clone();
        b[1].1 = tmp;
        assert!(!verify_batch(&refs(&b)));
    }

    #[test]
    fn batch_agrees_with_individual_verification() {
        let b = batch(6);
        let individually = b.iter().all(|(p, m, s)| p.verify(m, s));
        assert_eq!(verify_batch(&refs(&b)), individually);
    }

    /// The order-2 point (0, −1).
    fn order_two_point() -> Point {
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec;
        enc[31] = 0x7f;
        Point::decompress(&enc).expect("(0, −1) is on the curve")
    }

    /// What a Byzantine signer can do with its own key: commit to
    /// `R + (0, −1)` instead of `R` and answer the resulting challenge
    /// honestly. `[S]B − [k]A − R'` is then the order-2 point, not the
    /// identity: the cofactorless equation rejects, the cofactored accepts.
    fn sign_with_torsion(kp: &Keypair, msg: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&kp.prefix).update(msg);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());
        let r_enc = Point::mul_base(&r).add(&order_two_point()).compress();
        let (_, k) = challenge(&r_enc, &kp.public, msg);
        Signature {
            r: r_enc,
            s: r.add(k.mul(kp.scalar)).to_bytes(),
        }
    }

    /// Verdicts of every verification path on record 0 of `items`
    /// (signer = process id): alone, in a batch with the rest, and through
    /// a [`crate::CachedVerifier`] with the single and the batched entry
    /// in both orders.
    fn verdicts(items: &[(usize, Vec<u8>, Signature)]) -> [bool; 6] {
        let ring = crate::Keyring::for_system(8);
        let (signer, msg, sig) = &items[0];
        let keyed: Vec<(PublicKey, &[u8], Signature)> = items
            .iter()
            .map(|(i, m, s)| (*ring.key_of(*i).unwrap(), m.as_slice(), *s))
            .collect();
        let by_id: Vec<(usize, &[u8], Signature)> = items
            .iter()
            .map(|(i, m, s)| (*i, m.as_slice(), *s))
            .collect();
        let mut single_first = crate::CachedVerifier::new(ring.clone());
        let mut batch_first = crate::CachedVerifier::new(ring.clone());
        [
            keyed[0].0.verify(msg, sig),
            ring.verify(*signer, msg, sig),
            verify_batch(&keyed),
            ring.verify_batch(&by_id),
            single_first.verify(*signer, msg, sig) && single_first.verify_all(items),
            batch_first.verify_all(items) && batch_first.verify(*signer, msg, sig),
        ]
    }

    fn honest(i: usize, msg: &[u8]) -> (usize, Vec<u8>, Signature) {
        (i, msg.to_vec(), Keypair::for_process(i).sign(msg))
    }

    /// Regression: single verification used to check the cofactorless
    /// equation and batches the cofactored one, so this record was invalid
    /// alone and valid in a batch — and `CachedVerifier::verify_all`, which
    /// picks the path by how many records miss its cache, gave different
    /// processes different verdicts on it.
    #[test]
    fn torsion_in_r_gets_one_verdict_on_every_path() {
        let kp = Keypair::for_process(1);
        let crafted = (1, b"crafted".to_vec(), sign_with_torsion(&kp, b"crafted"));
        assert_ne!(crafted.2, kp.sign(b"crafted"));
        assert_eq!(verdicts(&[crafted, honest(2, b"honest")]), [true; 6]);
    }

    #[test]
    fn non_canonical_s_and_off_curve_r_are_rejected_on_every_path() {
        let good = honest(1, b"m");
        let mut big_s = good.clone();
        big_s.2.s = [0xff; 32];
        let mut off_curve = good.clone();
        off_curve.2.r = [0; 32];
        off_curve.2.r[0] = 2; // y = 2 is not on the curve
        assert!(Point::decompress(&off_curve.2.r).is_none());
        for bad in [big_s, off_curve] {
            assert_eq!(verdicts(&[bad, honest(2, b"honest")]), [false; 6]);
        }
    }

    /// How record `i` of a generated batch is tampered with.
    #[derive(Debug, Clone, Copy)]
    enum Tamper {
        No,
        FlipS,
        FlipR,
        OtherMessage,
        Torsion, // stays valid
    }

    fn arb_tamper() -> impl Strategy<Value = Tamper> {
        (0usize..5).prop_map(|i| {
            [
                Tamper::No,
                Tamper::FlipS,
                Tamper::FlipR,
                Tamper::OtherMessage,
                Tamper::Torsion,
            ][i]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::DIFFERENTIAL_CASES))]

        /// One equation on every path makes this a theorem: a batch is
        /// accepted exactly when each member is. Batches of every size
        /// with no, one and all records tampered with.
        #[test]
        fn batch_verdict_is_the_conjunction_of_single_verdicts(
            n in 1usize..7,
            tamper in arb_tamper(),
            which in 0usize..8, // ≥ n: every record; 7: none
            salt in any::<u64>(),
        ) {
            let items: Vec<(usize, Vec<u8>, Signature)> = (0..n)
                .map(|i| {
                    let kp = Keypair::for_process(i % 4); // signers repeat
                    let msg = format!("record {i} of {salt}").into_bytes();
                    let hit = which == i || (which >= n && which != 7);
                    let mut sig = match (hit, tamper) {
                        (true, Tamper::Torsion) => sign_with_torsion(&kp, &msg),
                        _ => kp.sign(&msg),
                    };
                    let mut signed_msg = msg;
                    match (hit, tamper) {
                        (true, Tamper::FlipS) => sig.s[(salt % 31) as usize] ^= 1,
                        (true, Tamper::FlipR) => sig.r[(salt % 32) as usize] ^= 1,
                        (true, Tamper::OtherMessage) => signed_msg.push(b'!'),
                        _ => {}
                    }
                    (i % 4, signed_msg, sig)
                })
                .collect();
            let ring = crate::Keyring::for_system(4);
            let by_id: Vec<(usize, &[u8], Signature)> =
                items.iter().map(|(i, m, s)| (*i, m.as_slice(), *s)).collect();
            let singles: Vec<bool> = by_id.iter().map(|(i, m, s)| ring.verify(*i, m, s)).collect();
            let tampered = !matches!(tamper, Tamper::No | Tamper::Torsion) && which != 7;
            prop_assert_eq!(singles.iter().all(|ok| *ok), !tampered);
            prop_assert_eq!(ring.verify_batch(&by_id), !tampered);
            let keyed: Vec<(PublicKey, &[u8], Signature)> = by_id
                .iter()
                .map(|(i, m, s)| (*ring.key_of(*i).unwrap(), *m, *s))
                .collect();
            prop_assert_eq!(verify_batch(&keyed), !tampered);
            prop_assert!(crate::CachedVerifier::new(ring).verify_all(&items) != tampered);
        }
    }
}
