//! Signed records held unverified until a threshold's worth has arrived.
//!
//! The signature algorithms act only on a threshold of signed records:
//! `n − f` disclosures before safetying, a quorum of safe-acks before
//! proposing, a quorum of acks before deciding ([`crate::sbs`],
//! [`crate::gsbs`]). A record below the threshold changes nothing, so
//! checking each one alone as it arrives (≈ 2 250 M per signature, see
//! [`bgla_crypto`]) buys nothing over checking them together once enough
//! are in hand (≈ 780 M per signature plus ≈ 1 700 M per batch). Each
//! threshold site therefore:
//!
//! 1. runs its cheap structural checks on arrival and [`hold`]s a record
//!    that passes them, unverified, in arrival order;
//! 2. once *held plus verified* reaches the threshold, hands every held
//!    record to [`verify_held`] — one
//!    [`bgla_crypto::CachedVerifier::verify_groups`] call, one verdict per
//!    record — and admits the valid ones in arrival order.
//!
//! Held plus verified is an upper bound on the verified count, so on runs
//! where every record is valid each threshold is crossed at the same
//! delivery as checking on arrival would cross it. A record arriving after
//! its threshold is met is never verified. An invalid record fails alone:
//! its verdict drops it and nothing else, and the verifier's cache answers
//! its redelivery without new work.
//!
//! Held state is bounded: a site keeps at most [`PER_SIGNER`] records per
//! signer — enough to witness an equivocation — and admits only records
//! whose signer is the authenticated sender, so no process can fill
//! another's slots.

use bgla_crypto::{CachedVerifier, Obligation};
use bgla_simnet::ProcessId;
use std::collections::BTreeSet;

/// Most records one signer may have held at one site.
pub const PER_SIGNER: usize = 2;

/// A signed record a threshold site can hold.
pub trait Held {
    /// The process whose signature the record carries.
    fn signer(&self) -> ProcessId;

    /// Every signature the record's validity rests on.
    fn obligations(&self) -> Vec<Obligation>;
}

/// Appends `record` to `held` unless its signer already has
/// [`PER_SIGNER`] records there. Returns whether it was held.
pub fn hold<T: Held>(held: &mut Vec<T>, record: T) -> bool {
    let signer = record.signer();
    if held.iter().filter(|h| h.signer() == signer).count() >= PER_SIGNER {
        return false;
    }
    held.push(record);
    true
}

/// Number of distinct signers among `held`.
pub fn signers<T: Held>(held: &[T]) -> usize {
    held.iter().map(T::signer).collect::<BTreeSet<_>>().len()
}

/// Verifies every held record in one batch and returns each with its
/// verdict, in arrival order.
pub fn verify_held<T: Held>(
    verifier: &mut CachedVerifier,
    held: Vec<T>,
) -> impl Iterator<Item = (T, bool)> {
    let groups: Vec<Vec<Obligation>> = held.iter().map(T::obligations).collect();
    let verdicts = verifier.verify_groups(&groups);
    held.into_iter().zip(verdicts)
}
