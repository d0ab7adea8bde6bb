//! From-scratch cryptography for the signature-based algorithms (Section 8
//! of Di Luna et al., 2019).
//!
//! The paper's SbS algorithm assumes a public-key infrastructure with
//! unforgeable signatures; the reproduction plan calls for Ed25519. No
//! third-party crypto crates are on the approved dependency list, so this
//! crate implements the whole stack:
//!
//! * [`mod@sha512`] — FIPS 180-4 SHA-512. Round constants and initial state
//!   are *derived at first use* from the fractional parts of cube/square
//!   roots of primes (via exact integer n-th roots), eliminating the
//!   possibility of a mistyped constant table.
//! * [`field`] — arithmetic in GF(2^255 − 19), radix-2^51 limbs, lazy
//!   additions, a dedicated squaring and fixed addition chains for the
//!   inversion and the square root.
//! * [`scalar`] — arithmetic modulo the group order ℓ, and the signed
//!   digit recodings (radix 16, width-w non-adjacent form) the point
//!   multiplications walk.
//! * [`edwards`] — twisted-Edwards points, the three precomputed tables
//!   and the table-driven scalar multiplications.
//! * [`ed25519`] — RFC 8032 keygen / sign / verify / batch verify (tested
//!   against the RFC's five vectors).
//! * [`keyring`] — a process-id-indexed PKI as assumed by the paper; keeps
//!   every public key decoded.
//! * [`sigcache`] — memoized + batched verification ([`CachedVerifier`]),
//!   including the batch-then-attribute check of records held until a
//!   threshold's worth has arrived ([`CachedVerifier::verify_groups`]).
//! * [`proofstore`] — content-addressed proof-of-safety interning
//!   ([`ProofId`], [`ProofCache`]): each distinct proof is verified once
//!   per process and answered from cache thereafter.
//!
//! # Shape of the Ed25519 path
//!
//! A GSbS decide is almost entirely signature work, so the curve code is
//! organised around never repeating a computation whose result is fixed:
//!
//! | what is fixed | kept as | size | built |
//! |---|---|---|---|
//! | the base point `B`, for `k·B` (keygen, signing) | radix-16 table, 256 affine entries | 30 720 B, once per process image | first key generation (≈ 5 000 M) |
//! | the base point `B`, for `[S]B` (verification) | width-8 odd multiples, 64 affine entries | 7 680 B, once per process image | first verification (≈ 1 000 M) |
//! | each process's public key `A` | decoded point as width-5 odd multiples, 8 projective entries | 1 280 B per [`Keyring`] entry | [`Keyring::for_system`] (decode ≈ 200 M + table ≈ 70 M per key) |
//!
//! All three are computed from definitions (`B` is "the point with
//! `y = 4/5` and even `x`"), never transcribed. Under 40 KB of tables per
//! process image, plus 1.3 KB per keyring entry.
//!
//! There is **one verification equation** on every path — single, batch,
//! cached — the cofactored `[8]([S]B − [k]A − R) = identity`; see
//! [`ed25519`] for why a system that batches cannot afford two.
//!
//! Budget per operation, in field multiplications **M** (a squaring
//! counted as 0.7 M; measure `crypto.*` kernels of the `e2e` benchmark
//! against these — one M is ≈ 25 ns on the reference container):
//!
//! | operation | field work | scalar / hash work on top |
//! |---|---|---|
//! | [`Keypair::sign`] | ≈ 700 M (`r·B` ≈ 480, encode `R` ≈ 190) | 2 SHA-512, 2 wide reductions mod ℓ + 1 `Scalar::mul` |
//! | key generation | ≈ 700 M | 1–2 SHA-512, 1 reduction |
//! | [`Keyring::verify`] | ≈ 2 250 M (decode `R` ≈ 200, shared chain ≈ 1 470, `A` adds ≈ 340, `B` adds ≈ 200) | 1 SHA-512, 1 reduction |
//! | [`Keyring::verify_batch`], per signature | ≈ 780 M + ≈ 1 700 M / batch size | 1¼ SHA-512, 1 reduction + 2 `Scalar::mul` |
//!
//! Reductions mod ℓ are Barrett reductions (see [`scalar`]): ≈ 25 ns
//! each, ≈ 50 ns per `Scalar::mul` — under 1% of any row. The binary
//! long division they replaced cost ≈ 1.5 µs per reduction, a quarter of
//! a signature: `crypto.sign_us` went from 19.6 to 14.9 µs, batch
//! verification from 28.1 to 23.3 µs per signature at batch size 5 and
//! from 26.4 to 18.8 at 16, `crypto.verify_us` from 43.0 to 40.2.
//!
//! **Scope note**: this is an *algorithmic* implementation for a research
//! reproduction. It is not hardened — no zeroization, and **nothing is
//! constant-time**: signing and key generation index the radix-16 table by
//! digits of the secret nonce / secret scalar and skip zero digits;
//! verification is variable-time by design. That is acceptable for a
//! simulator whose keys derive from public process ids, and must not be
//! used to protect real data.
#![warn(missing_docs)]
// The field/scalar/point APIs intentionally mirror mathematical notation
// (`add`, `mul`, `neg`, ...) without implementing the operator traits —
// operator overloading on copy-heavy bignums invites accidental clones.
#![allow(clippy::should_implement_trait)]

pub mod ed25519;
pub mod edwards;
pub mod field;
pub mod keyring;
mod lru;
pub mod nroot;
pub mod proofstore;
pub mod scalar;
pub mod sha512;
pub mod sigcache;
pub mod tobytes;
pub mod wire;

/// Cases per property of the differential tests (new arithmetic against
/// the retained bit-by-bit oracles — long division mod ℓ among them — and
/// the generic `Fe::pow`). The oracles
/// are slow under the test profile's overflow checks, so tier-1 runs a few
/// dozen; the release CI step (`cargo test --release -p bgla-crypto`) runs
/// over a thousand.
#[cfg(test)]
pub(crate) const DIFFERENTIAL_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1024 };

pub use ed25519::{Keypair, PublicKey, SecretKey, Signature};
pub use keyring::Keyring;
pub use proofstore::{ProofCache, ProofId, ProofIdBuilder, ProofResolver};
pub use sha512::{sha512, Sha512};
pub use sigcache::{CachedVerifier, Obligation, SigCache, VerifierStats};
pub use tobytes::ToBytes;
