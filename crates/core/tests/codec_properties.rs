//! Property-based testing of the durable codec: round-trips for every
//! durable type — bare payloads, framed payloads, and the four
//! algorithm snapshots captured *mid-protocol* — plus universal
//! rejection of truncated and bit-flipped frames. The snapshot
//! properties drive a real simulation for a sampled number of steps so
//! the frames cover populated rbcast engines, signed sets, proofs and
//! delta codec state, not just genesis.

use std::collections::BTreeMap;

use bgla_codec::Wire;
use bgla_codec::{
    decode_frame, decode_payload, encode_frame, encode_payload, verify_frame, CodecError,
    FRAME_OVERHEAD,
};
use bgla_core::gsbs::{GsbsMsg, GsbsProcess};
use bgla_core::gwts::{AckRecord, GwtsMsg, GwtsProcess};
use bgla_core::sbs::{SbsMsg, SbsProcess};
use bgla_core::wts::{WtsMsg, WtsProcess};
use bgla_core::{SetUpdate, SystemConfig, ValueSet};
use bgla_rbcast::RbMsg;
use bgla_simnet::{Context, Process, ProcessId, RandomScheduler, SimulationBuilder, WireMessage};
use proptest::prelude::*;

const N: usize = 4;
const F: usize = 1;

/// A frame kind reserved for the tests below (outside every snapshot
/// kind range).
const TEST_KIND: u16 = 0x7e57;

fn vs(v: &[u64]) -> ValueSet<u64> {
    v.iter().copied().collect()
}

/// Every prefix of a frame must be rejected by [`verify_frame`].
fn assert_truncation_rejected(frame: &[u8], cut: usize) {
    let cut = cut % frame.len();
    assert!(
        verify_frame(&frame[..cut]).is_err(),
        "prefix of length {cut}/{} verified",
        frame.len()
    );
}

/// Flipping any single bit of a frame must be caught by the envelope
/// checks before (or instead of) deserialization.
fn assert_bitflip_rejected(frame: &[u8], pos: usize, bit: u8) {
    let pos = pos % frame.len();
    let mut evil = frame.to_vec();
    evil[pos] ^= 1 << (bit % 8);
    assert!(
        verify_frame(&evil).is_err(),
        "bit {} of byte {pos}/{} flipped yet the frame verified",
        bit % 8,
        frame.len()
    );
}

/// Byte-stable double round-trip of a snapshot frame, plus truncation
/// and bit-flip rejection at sampled offsets.
fn assert_snapshot_frame_sound<T>(
    frame: Vec<u8>,
    restore: impl Fn(&[u8]) -> Result<T, CodecError>,
    resnap: impl Fn(&T) -> Vec<u8>,
    cut: usize,
    pos: usize,
    bit: u8,
) {
    let restored = restore(&frame).expect("snapshot restores");
    assert_eq!(
        resnap(&restored),
        frame,
        "snapshot double round-trip is not byte-stable"
    );
    assert_truncation_rejected(&frame, cut);
    assert_bitflip_rejected(&frame, pos, bit);
}

/// Round-trips `value` through a bare payload, then asserts that any
/// non-empty extension of that payload is rejected as
/// [`CodecError::TrailingBytes`] — `Wire::decode` consumes exactly one
/// encoding, so the only way extra bytes could ever slip through is a
/// decoder that silently over- or under-reads.
fn assert_payload_rejects_extension<T: Wire>(value: &T, suffix: &[u8]) {
    let bytes = encode_payload(value);
    decode_payload::<T>(&bytes).expect("own encoding decodes");
    let mut extended = bytes;
    extended.extend_from_slice(suffix);
    assert!(
        matches!(
            decode_payload::<T>(&extended),
            Err(CodecError::TrailingBytes)
        ),
        "payload with {} trailing bytes decoded",
        suffix.len()
    );
}

/// Pads one encoded byte at a time as a writer of non-minimal varints
/// would — continuation bit set, a zero group after it — near both ends
/// of the payload, where every message family keeps a counter. Where the
/// byte ended a varint the decoder must say so; anywhere else the bytes
/// shift, and whatever still decodes must encode back to exactly the
/// bytes it came from: no accepted string has a second spelling.
fn assert_padded_varints_rejected<T: Wire>(value: &T) {
    let bytes = encode_payload(value);
    let mut refused_as_padding = 0;
    for at in (0..bytes.len()).filter(|at| *at < 48 || at + 16 >= bytes.len()) {
        let mut padded = bytes.clone();
        padded[at] |= 0x80;
        padded.insert(at + 1, 0);
        match decode_payload::<T>(&padded) {
            Err(CodecError::Invalid("varint not minimal")) => refused_as_padding += 1,
            Err(_) => {}
            Ok(other) => assert_eq!(encode_payload(&other), padded, "padding at byte {at}"),
        }
    }
    assert!(
        refused_as_padding > 0,
        "no varint in the first or last bytes"
    );
}

/// Drives `procs` as an embedded system (no simulator): boots every
/// process, then delivers each in-flight message for `rounds` rounds,
/// collecting every protocol message that crosses the (virtual) wire.
fn pump_messages<M: WireMessage + 'static>(
    procs: &mut [Box<dyn Process<M>>],
    rounds: u64,
) -> Vec<M> {
    let n = procs.len();
    let mut collected = Vec::new();
    let mut inflight: Vec<(ProcessId, ProcessId, M)> = Vec::new();
    for (i, p) in procs.iter_mut().enumerate() {
        let mut ctx = Context::for_embedding(i, n, 0, 0);
        p.on_start(&mut ctx);
        for (to, m) in ctx.take_outbox() {
            collected.push(m.clone());
            inflight.push((i, to, m));
        }
    }
    for depth in 1..=rounds {
        let batch = std::mem::take(&mut inflight);
        if batch.is_empty() {
            break;
        }
        for (from, to, m) in batch {
            let mut ctx = Context::for_embedding(to, n, depth, depth);
            procs[to].on_message(from, m, &mut ctx);
            for (t2, m2) in ctx.take_outbox() {
                collected.push(m2.clone());
                inflight.push((to, t2, m2));
            }
        }
    }
    collected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bare payload round-trip for the workhorse durable type.
    #[test]
    fn valueset_payload_roundtrip(a: Vec<u64>) {
        let set = vs(&a);
        let bytes = encode_payload(&set);
        let back: ValueSet<u64> = decode_payload(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &set);
        prop_assert_eq!(encode_payload(&back), bytes);
    }

    /// Both `SetUpdate` variants round-trip through a frame.
    #[test]
    fn setupdate_frame_roundtrip(a: Vec<u64>, b: Vec<u64>, base_ts: u64, full: bool) {
        let update: SetUpdate<u64> = if full {
            SetUpdate::Full(vs(&a))
        } else {
            SetUpdate::Delta { base_ts, added: vs(&b) }
        };
        let frame = encode_frame(TEST_KIND, &update);
        prop_assert_eq!(verify_frame(&frame).expect("frame verifies"), TEST_KIND);
        let back: SetUpdate<u64> = decode_frame(TEST_KIND, &frame).expect("frame decodes");
        prop_assert_eq!(encode_frame(TEST_KIND, &back), frame);
    }

    /// The envelope is sound for any kind tag and payload: it verifies,
    /// reports its kind, decodes, and rejects a kind mismatch.
    #[test]
    fn frame_envelope_roundtrip(kind: u16, a: Vec<u64>) {
        let set = vs(&a);
        let frame = encode_frame(kind, &set);
        prop_assert_eq!(frame.len(), FRAME_OVERHEAD + encode_payload(&set).len());
        prop_assert_eq!(verify_frame(&frame).expect("frame verifies"), kind);
        let back: ValueSet<u64> = decode_frame(kind, &frame).expect("frame decodes");
        prop_assert_eq!(&back, &set);
        let wrong = kind.wrapping_add(1);
        prop_assert!(matches!(
            decode_frame::<ValueSet<u64>>(wrong, &frame),
            Err(CodecError::BadKind { .. })
        ));
    }

    /// No strict prefix of a frame ever verifies.
    #[test]
    fn truncation_is_always_rejected(a: Vec<u64>, cut: usize) {
        let frame = encode_frame(TEST_KIND, &vs(&a));
        assert_truncation_rejected(&frame, cut);
    }

    /// No single-bit flip anywhere in a frame ever verifies — magic,
    /// version, kind, length, payload and the checksum itself are all
    /// covered.
    #[test]
    fn bitflip_is_always_rejected(a: Vec<u64>, pos: usize, bit: u8) {
        let frame = encode_frame(TEST_KIND, &vs(&a));
        assert_bitflip_rejected(&frame, pos, bit);
    }

    /// WTS snapshots taken at an arbitrary point of an arbitrary
    /// schedule round-trip byte-stably and reject corruption.
    #[test]
    fn wts_mid_run_snapshots_are_sound(seed: u64, steps: u64, cut: usize, pos: usize, bit: u8) {
        let config = SystemConfig::new(N, F);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..N {
            b = b.add(Box::new(WtsProcess::new(i, config, seed.wrapping_add(i as u64))));
        }
        let mut sim = b.build();
        sim.start();
        for _ in 0..steps {
            if !sim.step() {
                break;
            }
        }
        for i in 0..N {
            let p = sim.process_as::<WtsProcess<u64>>(i).expect("plain process");
            assert_snapshot_frame_sound(
                p.snapshot_bytes(),
                WtsProcess::<u64>::from_snapshot,
                |p| p.snapshot_bytes(),
                cut,
                pos,
                bit,
            );
        }
    }

    /// GWTS (multi-round) snapshots are sound mid-run.
    #[test]
    fn gwts_mid_run_snapshots_are_sound(seed: u64, steps: u64, cut: usize, pos: usize, bit: u8) {
        let config = SystemConfig::new(N, F);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..N {
            let schedule: BTreeMap<u64, Vec<u64>> =
                [(0, vec![i as u64]), (1, vec![100 + i as u64])].into_iter().collect();
            b = b.add(Box::new(GwtsProcess::new(i, config, schedule, 2)));
        }
        let mut sim = b.build();
        sim.start();
        for _ in 0..steps {
            if !sim.step() {
                break;
            }
        }
        for i in 0..N {
            let p = sim.process_as::<GwtsProcess<u64>>(i).expect("plain process");
            assert_snapshot_frame_sound(
                p.snapshot_bytes(),
                GwtsProcess::<u64>::from_snapshot,
                |p| p.snapshot_bytes(),
                cut,
                pos,
                bit,
            );
        }
        // The same with an ack parked for reassembly: additions of an
        // origin whose earlier records have not been delivered.
        let p = sim.process_as::<GwtsProcess<u64>>(0).expect("plain process");
        let mut p = GwtsProcess::<u64>::from_snapshot(&p.snapshot_bytes()).expect("restores");
        let value = AckRecord {
            round: 0,
            ts: seed,
            destination: 2,
            full: false,
            accepted: vs(&[seed]),
        };
        let mut ctx = Context::for_embedding(0, N, 0, 0);
        for from in 1..N {
            let (origin, tag, value) = (1, u64::MAX - 1, value.clone());
            p.on_message(from, GwtsMsg::Ack(RbMsg::Ready { origin, tag, value }), &mut ctx);
        }
        prop_assert!(p.ack_waiting_len() > 0);
        assert_snapshot_frame_sound(
            p.snapshot_bytes(),
            GwtsProcess::<u64>::from_snapshot,
            |p| p.snapshot_bytes(),
            cut,
            pos,
            bit,
        );
    }

    /// SbS snapshots (signed sets, proofs, proven-delta state) are
    /// sound mid-run.
    #[test]
    fn sbs_mid_run_snapshots_are_sound(seed: u64, steps: u64, cut: usize, pos: usize, bit: u8) {
        let config = SystemConfig::new(N, F);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..N {
            b = b.add(Box::new(SbsProcess::new(i, config, seed.wrapping_add(i as u64))));
        }
        let mut sim = b.build();
        sim.start();
        for _ in 0..steps {
            if !sim.step() {
                break;
            }
        }
        for i in 0..N {
            let p = sim.process_as::<SbsProcess<u64>>(i).expect("plain process");
            assert_snapshot_frame_sound(
                p.snapshot_bytes(),
                SbsProcess::<u64>::from_snapshot,
                |p| p.snapshot_bytes(),
                cut,
                pos,
                bit,
            );
        }
    }

    /// GSbS snapshots are sound mid-run.
    #[test]
    fn gsbs_mid_run_snapshots_are_sound(seed: u64, steps: u64, cut: usize, pos: usize, bit: u8) {
        let config = SystemConfig::new(N, F);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..N {
            let schedule: BTreeMap<u64, Vec<u64>> =
                [(0, vec![i as u64]), (1, vec![100 + i as u64])].into_iter().collect();
            b = b.add(Box::new(GsbsProcess::new(i, config, schedule, 2)));
        }
        let mut sim = b.build();
        sim.start();
        for _ in 0..steps {
            if !sim.step() {
                break;
            }
        }
        for i in 0..N {
            let p = sim.process_as::<GsbsProcess<u64>>(i).expect("plain process");
            assert_snapshot_frame_sound(
                p.snapshot_bytes(),
                GsbsProcess::<u64>::from_snapshot,
                |p| p.snapshot_bytes(),
                cut,
                pos,
                bit,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Trailing-bytes rejection: roundtrip-then-extend must fail for every
// durable type. The message enums are exercised with *real* protocol
// messages — each algorithm is booted and pumped for a few delivery
// rounds through an embedding context, so the battery covers populated
// proofs, signed sets, and delta updates, not just hand-built variants.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Plain containers reject extension.
    #[test]
    fn extended_container_payloads_are_rejected(
        a: Vec<u64>,
        base_ts: u64,
        sv: Vec<u8>,
        suffix: Vec<u8>,
        extra: u8,
    ) {
        let mut suffix = suffix;
        suffix.push(extra); // never empty
        let s: String = sv.iter().map(|&b| char::from(b)).collect();
        assert_payload_rejects_extension(&vs(&a), &suffix);
        assert_payload_rejects_extension(&SetUpdate::Full(vs(&a)), &suffix);
        assert_payload_rejects_extension(
            &SetUpdate::Delta { base_ts, added: vs(&a) },
            &suffix,
        );
        assert_payload_rejects_extension(&s, &suffix);
        assert_payload_rejects_extension(&Some(a.clone()), &suffix);
        assert_padded_varints_rejected(&vs(&a));
        assert_padded_varints_rejected(&SetUpdate::Delta { base_ts, added: vs(&a) });
        assert_padded_varints_rejected(&s);
    }

    /// Every WTS message on a live wire rejects extension.
    #[test]
    fn extended_wts_messages_are_rejected(
        rounds: u64,
        suffix: Vec<u8>,
        extra: u8,
    ) {
        let rounds = rounds % 4 + 1;
        let mut suffix = suffix;
        suffix.truncate(3);
        suffix.push(extra); // never empty
        let config = SystemConfig::new(N, F);
        let mut procs: Vec<Box<dyn Process<WtsMsg<u64>>>> = (0..N)
            .map(|i| Box::new(WtsProcess::new(i, config, 10 + i as u64)) as Box<_>)
            .collect();
        for m in pump_messages(&mut procs, rounds) {
            assert_payload_rejects_extension(&m, &suffix);
            assert_padded_varints_rejected(&m);
        }
    }

    /// Every GWTS message on a live wire rejects extension.
    #[test]
    fn extended_gwts_messages_are_rejected(
        rounds: u64,
        suffix: Vec<u8>,
        extra: u8,
    ) {
        let rounds = rounds % 4 + 1;
        let mut suffix = suffix;
        suffix.truncate(3);
        suffix.push(extra); // never empty
        let config = SystemConfig::new(N, F);
        let mut procs: Vec<Box<dyn Process<GwtsMsg<u64>>>> = (0..N)
            .map(|i| {
                let schedule: BTreeMap<u64, Vec<u64>> =
                    [(0, vec![i as u64])].into_iter().collect();
                Box::new(GwtsProcess::new(i, config, schedule, 2)) as Box<_>
            })
            .collect();
        for m in pump_messages(&mut procs, rounds) {
            assert_payload_rejects_extension(&m, &suffix);
            assert_padded_varints_rejected(&m);
        }
        // Acks lie deeper than the pump goes. Both forms of a record
        // reject extension, and the marker is one of two bytes.
        for full in [true, false] {
            let value = AckRecord {
                round: rounds,
                ts: 1,
                destination: 2,
                full,
                accepted: vs(&[1, 2 + u64::from(extra)]),
            };
            let mut bytes = encode_payload(&value);
            bytes[0] = 2 + extra % 254;
            prop_assert_eq!(
                decode_payload::<AckRecord<u64>>(&bytes).err(),
                Some(CodecError::Invalid("bool tag"))
            );
            let (origin, tag) = (1, rounds);
            let echo = GwtsMsg::Ack(RbMsg::Echo { origin, tag, value });
            assert_payload_rejects_extension(&echo, &suffix);
            assert_padded_varints_rejected(&echo);
        }
    }

    /// Every SbS message (signed sets, proofs) rejects extension.
    #[test]
    fn extended_sbs_messages_are_rejected(
        rounds: u64,
        suffix: Vec<u8>,
        extra: u8,
    ) {
        let rounds = rounds % 4 + 1;
        let mut suffix = suffix;
        suffix.truncate(3);
        suffix.push(extra); // never empty
        let config = SystemConfig::new(N, F);
        let mut procs: Vec<Box<dyn Process<SbsMsg<u64>>>> = (0..N)
            .map(|i| Box::new(SbsProcess::new(i, config, 10 + i as u64)) as Box<_>)
            .collect();
        for m in pump_messages(&mut procs, rounds) {
            assert_payload_rejects_extension(&m, &suffix);
            assert_padded_varints_rejected(&m);
        }
    }

    /// Every GSbS message rejects extension.
    #[test]
    fn extended_gsbs_messages_are_rejected(
        rounds: u64,
        suffix: Vec<u8>,
        extra: u8,
    ) {
        let rounds = rounds % 4 + 1;
        let mut suffix = suffix;
        suffix.truncate(3);
        suffix.push(extra); // never empty
        let config = SystemConfig::new(N, F);
        let mut procs: Vec<Box<dyn Process<GsbsMsg<u64>>>> = (0..N)
            .map(|i| {
                let schedule: BTreeMap<u64, Vec<u64>> =
                    [(0, vec![i as u64])].into_iter().collect();
                Box::new(GsbsProcess::new(i, config, schedule, 2)) as Box<_>
            })
            .collect();
        for m in pump_messages(&mut procs, rounds) {
            assert_payload_rejects_extension(&m, &suffix);
            assert_padded_varints_rejected(&m);
        }
    }

    /// Extending a snapshot *frame* is caught by the envelope (the
    /// length field no longer matches), before deserialization.
    #[test]
    fn extended_snapshot_frames_are_rejected(seed: u64, suffix: Vec<u8>, extra: u8) {
        let mut suffix = suffix;
        suffix.push(extra); // never empty
        let config = SystemConfig::new(N, F);
        let p = WtsProcess::new(0, config, seed);
        let mut frame = p.snapshot_bytes();
        frame.extend_from_slice(&suffix);
        prop_assert!(matches!(
            verify_frame(&frame),
            Err(CodecError::BadLength)
        ));
        prop_assert!(WtsProcess::<u64>::from_snapshot(&frame).is_err());
    }
}
