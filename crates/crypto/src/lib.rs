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
//!   ([`ProofId`], [`ProofResolver`]): a proof a peer already holds
//!   travels as its id and is resolved from the retained handles, and
//!   the resolver records which of them this process verified, so each
//!   distinct proof is verified once per process.
//! * [`mod@wire`] — the codec forms of signatures, keys and ids, and
//!   [`digest`], the content digest of an encoding.
//!
//! # One encoding
//!
//! This crate signs, verifies and hashes byte strings and has no
//! serializer of its own: every byte string it is given is a
//! `bgla_codec::Wire` encoding, the same bytes that travel and are
//! metered. A signed record signs its domain tag followed by its own
//! encoding without the trailing signature (`bgla_core::held::Signed`); a
//! [`ProofId`] hashes the encoding of each ack; [`digest`] hashes the
//! encoding of a value set. That is sound because `Wire` encode is
//! injective: decoding inverts it (`decode ∘ encode = id`), so two
//! values with one encoding would decode to one value. Verification
//! re-encodes the record held in memory; it never trusts the bytes the
//! record arrived in.
//!
//! # Shape of the Ed25519 path
//!
//! A GSbS decide is almost entirely signature work, so the curve code is
//! organised around never repeating a computation whose result is fixed:
//!
//! | what is fixed | kept as | size | built |
//! |---|---|---|---|
//! | the base point `B`, for `k·B` (keygen, signing) | radix-16 table, 256 affine entries | 30 720 B, once per process image | first key generation (≈ 210 µs) |
//! | the base point `B`, for `[S]B` (verification) | width-8 odd multiples of `B` and of `2^128·B`, 2 × 64 affine entries | 15 360 B, once per process image | first verification (≈ 60 µs) |
//! | each process's public key `A` | decoded point as width-8 odd multiples of `A` and of `2^128·A`, 2 × 64 affine entries | 15 360 B per [`Keyring`] entry, once per `n` and process image | first [`Keyring::for_system`] for that `n` (≈ 53 µs per key) |
//!
//! All three are computed from definitions (`B` is "the point with
//! `y = 4/5` and even `x`"), never transcribed. 46 KB of tables per
//! process image, plus 15 KB per key of each ring size in use.
//!
//! There is **one verification equation** on every path — single, batch,
//! cached — the cofactored `[8]([S]B − [k]A − R) = identity`; see
//! [`ed25519`] for why a system that batches cannot afford two. With
//! every key's tables fixed, each scalar is split at bit 128 and the
//! doubling chain shared by all terms is ≈ 128 positions long, not 253.
//!
//! Cost per operation, medians on a 2-core Xeon VM with the host quiet (a
//! busy host reads up to 20% slower; the `crypto.*` kernels of the `e2e`
//! benchmark measure the same calls):
//!
//! | operation | cost | of which |
//! |---|---|---|
//! | [`Keypair::sign`] | ≈ 13.5 µs | `r·B` ≈ 8 µs, encoding `R`, 2 SHA-512, 2 wide reductions mod ℓ + 1 `Scalar::mul` |
//! | key generation | ≈ 11.5 µs | `s·B` ≈ 8 µs, encoding `A`, 1–2 SHA-512 |
//! | [`Keyring::verify`] | ≈ 25 µs | decode `R` ≈ 3.6 µs, 1 SHA-512, one ≈ 128-position chain |
//! | [`Keyring::verify_batch`], per signature | ≈ 17 / 15 / 13 µs at 4 / 5 / 16 signatures | per signature decode `R` and build its table, 1¼ SHA-512, 2 `Scalar::mul`; per batch one chain |
//! | [`PublicKey::verify`] (bare key) | ≈ 42 µs | decodes `A`, builds a width-5 table of it, one 253-position chain |
//!
//! Reductions mod ℓ are Barrett reductions (see [`scalar`]): ≈ 25 ns
//! each, ≈ 50 ns per `Scalar::mul` — under 1% of any row.
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
pub use proofstore::{ProofId, ProofIdBuilder, ProofResolver};
pub use sha512::{sha512, Sha512};
pub use sigcache::{CachedVerifier, Obligation, VerifierStats};
pub use wire::{digest, Digest};
