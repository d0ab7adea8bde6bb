//! Deterministic, seeded network fault injection.
//!
//! The injector sits in the connection writer, between the reliability
//! layer ([`crate::link`]) and the socket: every outgoing DATA frame
//! asks the [`FaultPlan`] for a verdict before it is written. Faults
//! are therefore injected *below* the masking machinery — exactly
//! where a real lossy network would bite — so every recovery path
//! (gap repair, probe, dedup, reconnect + resync) is exercised
//! by the same code that handles organic failures.
//!
//! # Determinism
//!
//! The verdict for a frame is a pure hash of `(seed, from, to,
//! frame_index)` — no RNG stream is consumed, so the decision for the
//! k-th write on a link is independent of thread interleaving and of
//! what other links are doing. Two consequences worth spelling out:
//!
//! * The *fault schedule* is reproducible per seed: the k-th write
//!   attempt on link `from → to` always meets the same fate.
//!   (Which frame *is* the k-th write can still vary with thread
//!   timing once recovery kicks in; integration tests therefore pin
//!   masking *invariants* — everyone decides, counters non-zero —
//!   while the pure link tests pin exact behavior.)
//! * A retransmission occupies a new frame index and thus gets a fresh
//!   verdict: a message can be unlucky repeatedly but not *forever*,
//!   so fault rates below 1 never livelock a link.
//!
//! Partition windows are frame-index intervals during which every
//! write on the link is swallowed. Retransmission attempts during the
//! window consume indexes (one probe per timeout once nothing else is
//! written), and the first attempt past the window restores the link —
//! modeling a partition that heals.
//!
//! # What `chaos()` must cost
//!
//! The masking layer cannot be faster than its evidence, so the chaos
//! profile implies a latency floor. Outside the partition window a
//! write is dropped with probability 0.08, parked behind its successor
//! 0.06, torn by a reset 0.015 (duplicates, 0.06, cost nothing). With
//! a link round trip `R` ≈ 0.6 ms (measured SRTT 0.3–0.9 ms: the 1 ms
//! sweep beat, not the wire), a timeout `RTO` ≈ 1.1 ms (`SRTT +
//! 4·RTTVAR` as it stands when the timer fires, mean of 160 000
//! firings; 1–3 ms) and bursts of about four frames, so that a quarter
//! of all writes have no successor to expose them:
//!
//! * a drop that something follows is reported by the successor's ACK
//!   and repaired at once: successor lands, ACK returns, repair lands
//!   — it arrives ≈ `2R` late;
//! * a drop or a parked frame that nothing follows waits for the
//!   timer's probe: ≈ `RTO` late;
//! * a reset costs redial + accept + HELLO reply (measured 0.3–1.9 ms,
//!   median 1.0) and the resent tail's trip, ≈ 1.6 ms, and every
//!   resent frame meets the injector again.
//!
//! Per write that is `0.08·(¾·2R + ¼·RTO) + 0.06·¼·RTO + 0.015·1.6`
//! ≈ 0.13 ms, and FIFO delivery charges it to everything queued
//! behind. A GWTS op is 25 message delays deep at the median
//! (`op_delays_p50`, since an acceptor says each `(round, set)` once;
//! 34 before); if each rode a single link, chaos would add 25 × 0.13
//! ≈ 3.4 ms to the 2.3 ms the same protocol takes without faults: a
//! ratio of 2.5. A delay really waits for a quorum, the second of three
//! remote copies, so a fault shows only while a second link is
//! recovering too — with ≈ 7 writes per link in a ≈ 3 ms round a link
//! recovers about a third of the time, so a little over half of them
//! show: ≈ 1.8 — and Lamport depth is an upper bound of the chain an
//! op really waited on. Measured `net.chaos_over_clean_p50` is 1.1–1.3
//! (1.7–1.8 before acks were said once; 17–26 while every loss waited
//! for a 40–150 ms constant). The
//! partition window — 10 consecutive writes on each link, once — is
//! paid by the first round's ops only and sits in p90, not here. It is
//! a count of writes, so a protocol that writes half as much stays in
//! it twice as long, and what pushes a link through once all are cut
//! and nothing is acknowledged is the probe alone: one per `RTO`, ten
//! timeouts at most. (With the span doubled per probe — 1, 2, 4, … ms —
//! the same window put `op_latency_p90_ms` at 29–37 ms; it reads
//! 8.2–8.6.)

/// What the injector decides for one frame write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Write the frame normally.
    Deliver,
    /// Swallow the frame (the peer never sees it).
    Drop,
    /// Write the frame twice back-to-back.
    Duplicate,
    /// Hold the frame and write it *after* the next one (reorder).
    Delay,
    /// Write only the first half of the frame, then hard-close the
    /// connection: a mid-frame reset, leaving torn bytes the receiver
    /// must reject by checksum.
    Reset,
}

/// Per-mille fault rates plus an optional partition window, applied to
/// every directed link a [`FaultPlan`] governs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Fraction of frames dropped, in per-mille.
    pub drop_per_mille: u16,
    /// Fraction of frames duplicated, in per-mille.
    pub dup_per_mille: u16,
    /// Fraction of frames delayed past their successor, in per-mille.
    pub delay_per_mille: u16,
    /// Fraction of frames torn by a mid-frame connection reset, in
    /// per-mille.
    pub reset_per_mille: u16,
    /// Frame-index window `[start, end)` during which the link is
    /// partitioned: every write is dropped.
    pub partition: Option<(u64, u64)>,
}

impl FaultConfig {
    /// A moderately hostile profile exercising every masking path:
    /// drops, duplicates, reorders, occasional mid-frame resets, and
    /// an early partition window.
    pub fn chaos() -> FaultConfig {
        FaultConfig {
            drop_per_mille: 80,
            dup_per_mille: 60,
            delay_per_mille: 60,
            reset_per_mille: 15,
            partition: Some((10, 20)),
        }
    }
}

/// A seeded fault schedule for the whole system. Cheap to copy into
/// every writer thread; stateless between calls.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

/// splitmix64-style finalizer: avalanche-mixes one word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan injecting faults per `cfg`, scheduled by `seed`.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan { seed, cfg }
    }

    /// A plan that never injects anything (production behavior).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            cfg: FaultConfig::default(),
        }
    }

    /// The verdict for the `frame_idx`-th write on link `from → to`.
    pub fn action(&self, from: usize, to: usize, frame_idx: u64) -> FaultAction {
        if let Some((a, b)) = self.cfg.partition {
            if (a..b).contains(&frame_idx) {
                return FaultAction::Drop;
            }
        }
        let h = mix(self.seed ^ mix(from as u64 ^ mix((to as u64) << 20 ^ frame_idx)));
        let roll = (h % 1000) as u16;
        let c = &self.cfg;
        if roll < c.drop_per_mille {
            FaultAction::Drop
        } else if roll < c.drop_per_mille + c.dup_per_mille {
            FaultAction::Duplicate
        } else if roll < c.drop_per_mille + c.dup_per_mille + c.delay_per_mille {
            FaultAction::Delay
        } else if roll < c.drop_per_mille + c.dup_per_mille + c.delay_per_mille + c.reset_per_mille
        {
            FaultAction::Reset
        } else {
            FaultAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_reproducible_per_seed() {
        let a = FaultPlan::new(42, FaultConfig::chaos());
        let b = FaultPlan::new(42, FaultConfig::chaos());
        for idx in 0..500 {
            assert_eq!(a.action(0, 1, idx), b.action(0, 1, idx));
        }
    }

    #[test]
    fn different_links_get_different_schedules() {
        let p = FaultPlan::new(42, FaultConfig::chaos());
        let l01: Vec<_> = (0..200).map(|i| p.action(0, 1, i)).collect();
        let l10: Vec<_> = (0..200).map(|i| p.action(1, 0, i)).collect();
        let l02: Vec<_> = (0..200).map(|i| p.action(0, 2, i)).collect();
        assert_ne!(l01, l10);
        assert_ne!(l01, l02);
    }

    #[test]
    fn none_always_delivers() {
        let p = FaultPlan::none();
        for idx in 0..100 {
            assert_eq!(p.action(3, 4, idx), FaultAction::Deliver);
        }
    }

    #[test]
    fn partition_window_swallows_everything_then_heals() {
        let cfg = FaultConfig {
            partition: Some((5, 9)),
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(1, cfg);
        for idx in 0..5 {
            assert_eq!(p.action(0, 1, idx), FaultAction::Deliver);
        }
        for idx in 5..9 {
            assert_eq!(p.action(0, 1, idx), FaultAction::Drop);
        }
        for idx in 9..20 {
            assert_eq!(p.action(0, 1, idx), FaultAction::Deliver);
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let cfg = FaultConfig {
            drop_per_mille: 100,
            dup_per_mille: 100,
            delay_per_mille: 0,
            reset_per_mille: 0,
            partition: None,
        };
        let p = FaultPlan::new(7, cfg);
        let n = 10_000;
        let mut drops = 0;
        let mut dups = 0;
        for idx in 0..n {
            match p.action(0, 1, idx) {
                FaultAction::Drop => drops += 1,
                FaultAction::Duplicate => dups += 1,
                _ => {}
            }
        }
        // 10% each, generous tolerance — this guards the bucketing
        // arithmetic, not the hash's statistical quality.
        assert!((600..1400).contains(&drops), "drops = {drops}");
        assert!((600..1400).contains(&dups), "dups = {dups}");
    }
}
