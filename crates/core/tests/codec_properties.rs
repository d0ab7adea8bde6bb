//! Property-based testing of the durable codec: round-trips for every
//! durable type — bare payloads, framed payloads, and the four
//! algorithm snapshots captured *mid-protocol* — plus universal
//! rejection of truncated and bit-flipped frames. The snapshot
//! properties drive a real simulation for a sampled number of steps so
//! the frames cover populated rbcast engines, signed sets, proofs and
//! delta codec state, not just genesis. Proofs of safety are also built
//! in the shapes a Byzantine proposer may give them — acks echoing
//! several request sets — and their one encoding is pinned, as is that
//! of a proven payload's proof table.

use std::collections::{BTreeMap, BTreeSet};

use bgla_codec::{
    decode_frame, decode_payload, encode_frame, encode_payload, verify_frame, CodecError,
    FRAME_OVERHEAD, MAX_SPELLED_OUT,
};
use bgla_codec::{Wire, Writer};
use bgla_core::gsbs::{
    DecidedCert, GSafeAck, GSafeAckReply, GsbsMsg, GsbsProcess, ProvenBatch, SignedAck, SignedBatch,
};
use bgla_core::gwts::{AckRecord, GwtsMsg, GwtsProcess};
use bgla_core::provendelta::ProvenDeltaReceiver;
use bgla_core::sbs::{ProvenValue, SafeAckBody, SbsMsg, SbsProcess, SignedSafeAck, SignedValue};
use bgla_core::wts::{WtsMsg, WtsProcess};
use bgla_core::{Proof, ProofAck, Proven, ProvenUpdate, SetUpdate, SystemConfig, ValueSet};
use bgla_crypto::{digest, ProofId, ProofResolver, Signature};
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

// ---------------------------------------------------------------------------
// Proofs of safety: each distinct echo once, and exactly one encoding.
// ---------------------------------------------------------------------------

/// Opaque signature bytes: the codec never verifies, so none is signed.
fn sig(a: usize, b: usize) -> Signature {
    Signature {
        r: [a as u8; 32],
        s: [b as u8; 32],
    }
}

/// The `e`-th of a family of distinct GSbS request sets.
fn batches(e: usize) -> ValueSet<SignedBatch<u64>> {
    (0..=e % 3)
        .map(|j| SignedBatch {
            round: 1,
            batch: vs(&[e as u64, 100 + j as u64]),
            signer: j,
            sig: sig(e, j),
        })
        .collect()
}

/// The `e`-th of a family of distinct SbS request sets.
fn values(e: usize) -> ValueSet<SignedValue<u64>> {
    (0..=e % 3)
        .map(|j| SignedValue {
            value: (e * 10 + j) as u64,
            signer: j,
            sig: sig(j, e),
        })
        .collect()
}

/// A GSbS proof whose acks echo `k` distinct sets, ack `i` echoing set
/// `picks[i] % k`: repeated and interleaved as `picks` says.
fn gsbs_proof(k: usize, picks: &[u8]) -> Proof<GSafeAck<u64>> {
    let echoes: Vec<_> = (0..k).map(batches).collect();
    let acks = picks
        .iter()
        .enumerate()
        .map(|(i, &p)| GSafeAck {
            round: 1,
            rcvd: echoes[p as usize % k].clone(),
            conflicts: vec![],
            signer: i,
            sig: sig(i, p as usize),
        })
        .collect();
    Proof::new(acks)
}

/// The SbS counterpart of [`gsbs_proof`], with a conflict pair reported
/// by every third ack.
fn sbs_proof(k: usize, picks: &[u8]) -> Proof<SignedSafeAck<u64>> {
    let echoes: Vec<_> = (0..k).map(values).collect();
    let pair = {
        let one = |v: u64| SignedValue {
            value: v,
            signer: 3,
            sig: sig(3, v as usize),
        };
        (one(7), one(8))
    };
    let acks = picks
        .iter()
        .enumerate()
        .map(|(i, &p)| SignedSafeAck {
            body: SafeAckBody {
                rcvd: echoes[p as usize % k].clone(),
                conflicts: if i % 3 == 2 {
                    vec![pair.clone()]
                } else {
                    vec![]
                },
            },
            signer: i,
            sig: sig(p as usize, i),
        })
        .collect();
    Proof::new(acks)
}

/// `proof` round-trips with its id, re-encodes byte for byte, caches the
/// length of its encoding, gives acks that echo one set one shared handle
/// of it, and refuses every strict prefix and any extension of its
/// encoding.
fn assert_proof_sound<A: ProofAck>(proof: &Proof<A>, suffix: &[u8]) {
    let bytes = encode_payload(proof);
    assert_eq!(bytes.len(), proof.wire_size(), "cached size");
    let back: Proof<A> = decode_payload(&bytes).expect("own encoding decodes");
    assert_eq!(back.id(), proof.id());
    assert_eq!(encode_payload(&back), bytes);
    for a in back.iter() {
        for b in back.iter() {
            assert_eq!(a.echo() == b.echo(), a.echo().ptr_eq(b.echo()));
        }
    }
    for cut in 0..bytes.len() {
        assert!(
            decode_payload::<Proof<A>>(&bytes[..cut]).is_err(),
            "prefix {cut}"
        );
    }
    assert_payload_rejects_extension(proof, suffix);
}

/// Each of `proof`'s acks round-trips on its own, in the form its
/// signature and the proof's id cover (its echo, then its reply):
/// re-encodes byte for byte, with its length as `wire_size`, and refuses
/// every strict prefix and any extension of its encoding.
fn assert_acks_sound<A: ProofAck + PartialEq>(proof: &Proof<A>, suffix: &[u8]) {
    for ack in proof.iter() {
        let bytes = encode_payload(ack);
        assert_eq!(bytes.len(), ack.wire_size());
        let back: A = decode_payload(&bytes).expect("own encoding decodes");
        assert_eq!(&back, ack);
        assert_eq!(encode_payload(&back), bytes);
        for cut in 0..bytes.len() {
            assert!(decode_payload::<A>(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        assert_payload_rejects_extension(ack, suffix);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Acks echoing 1 to 4 distinct sets, in any repetition and order:
    /// each distinct echo is shipped once and the proof survives the
    /// codec with its content address; each ack survives it alone too.
    #[test]
    fn byzantine_shaped_proofs_roundtrip(
        k in 1usize..=4,
        picks in any::<Vec<u8>>(),
        suffix in any::<Vec<u8>>(),
        extra in any::<u8>()
    ) {
        let mut picks = picks;
        picks.truncate(12);
        picks.push(extra);
        let mut suffix = suffix;
        suffix.truncate(3);
        suffix.push(extra); // never empty
        let gsbs = gsbs_proof(k, &picks);
        let sbs = sbs_proof(k, &picks);
        let used = picks.iter().map(|&p| p as usize % k).collect::<std::collections::BTreeSet<_>>();
        let echo_bytes: usize = used.iter().map(|&e| batches(e).wire_size()).sum();
        prop_assert!(gsbs.wire_size() > echo_bytes);
        prop_assert!(gsbs.wire_size() < echo_bytes + picks.len() * 200);
        assert_proof_sound(&gsbs, &suffix);
        assert_proof_sound(&sbs, &suffix);
        assert_acks_sound(&gsbs, &suffix);
        assert_acks_sound(&sbs, &suffix);
    }
}

/// A proof's bytes laid out by hand: `echoes`, then each ack as an echo
/// index and the ack without its echo.
fn laid_out(echoes: &[usize], acks: &[(usize, GSafeAckReply<u64>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(echoes.len());
    for &e in echoes {
        batches(e).encode(&mut w);
    }
    w.usize(acks.len());
    for (i, reply) in acks {
        w.usize(*i);
        reply.encode(&mut w);
    }
    w.into_bytes()
}

#[test]
fn proof_decoder_accepts_one_encoding_only() {
    let decode = |echoes: &[usize], indices: &[usize]| {
        let acks: Vec<_> = indices.iter().map(|&i| (i, reply(i))).collect();
        decode_payload::<Proof<GSafeAck<u64>>>(&laid_out(echoes, &acks)).map(|p| p.id())
    };
    let canonical = decode(&[4, 2], &[0, 1, 0, 1]).expect("canonical layout decodes");
    let spelled = [4, 2, 4, 2]
        .iter()
        .zip([0, 1, 0, 1])
        .map(|(&e, i)| GSafeAck::from_reply(reply(i), batches(e)))
        .collect();
    assert_eq!(
        canonical,
        Proof::new(spelled).id(),
        "and is the proof it spells"
    );
    let invalid = |what| Err(CodecError::Invalid(what));
    assert_eq!(
        decode(&[4], &[0, 1]),
        invalid("proof echo index out of range")
    );
    assert_eq!(decode(&[4, 2], &[0, 0]), invalid("proof echo never used"));
    assert_eq!(
        decode(&[4, 2], &[1, 0]),
        invalid("proof echoes out of first-use order")
    );
    assert_eq!(
        decode(&[4, 2, 5], &[0, 2, 1]),
        invalid("proof echoes out of first-use order")
    );
    assert_eq!(decode(&[4, 4], &[0, 1]), invalid("proof echo listed twice"));
    assert_eq!(
        decode(&[], &[]).map(|_| ()),
        Ok(()),
        "the empty proof has one form too"
    );
}

/// One echo of 1 MiB under 100 000 acks: 8 MB of input that, spelled
/// out, is 100 GiB. Rebuilding the proof's id hashes every ack with its
/// echo, which would not finish; the decoder refuses the input once the
/// echo's reuses pass [`MAX_SPELLED_OUT`], before anything is hashed.
#[test]
fn one_large_echo_under_many_acks_is_refused_while_read() {
    let echo: ValueSet<SignedBatch<u64>> = [SignedBatch {
        round: 1,
        batch: (0..1u64 << 17).collect(),
        signer: 0,
        sig: sig(0, 0),
    }]
    .into_iter()
    .collect();
    let laid_out = |acks: usize| {
        let mut w = Writer::new();
        w.usize(1);
        echo.encode(&mut w);
        w.usize(acks);
        for signer in 0..acks {
            w.usize(0);
            GSafeAckReply::<u64> {
                round: 1,
                conflicts: vec![],
                signer,
                sig: sig(signer, 1),
            }
            .encode(&mut w);
        }
        w.into_bytes()
    };
    let decode = |bytes: &[u8]| decode_payload::<Proof<GSafeAck<u64>>>(bytes).map(|p| p.len());
    let many = 100_000;
    let bytes = laid_out(many);
    assert!(bytes.len() < MAX_SPELLED_OUT / 4);
    assert!(echo.wire_size() * many > 1000 * MAX_SPELLED_OUT);
    assert_eq!(
        decode(&bytes),
        Err(CodecError::Invalid(
            "shared parts spelled out past the limit"
        ))
    );
    assert_eq!(decode(&laid_out(4)), Ok(4), "a few acks share it freely");
}

// ---------------------------------------------------------------------------
// Proven payloads: each distinct proof once, and exactly one encoding.
// ---------------------------------------------------------------------------

type Payload = ProvenUpdate<GSafeAck<u64>>;

/// The `i`-th of a family of distinct signed batches, in ascending order.
fn batch(i: usize) -> SignedBatch<u64> {
    SignedBatch {
        round: 1,
        batch: vs(&[i as u64]),
        signer: i % N,
        sig: sig(i, 7),
    }
}

/// Batch `i` proven by `proof`.
fn proven(i: usize, proof: &Proof<GSafeAck<u64>>) -> ProvenBatch<u64> {
    ProvenBatch {
        signed: batch(i),
        proof: proof.clone(),
    }
}

/// The `i`-th of a family of distinct signed values, in ascending order.
fn signed_value(i: usize) -> SignedValue<u64> {
    SignedValue {
        value: 1000 + i as u64,
        signer: i % N,
        sig: sig(7, i),
    }
}

/// A GSbS proof of three acks, each echoing `echo`.
fn gsbs_proof_over(echo: ValueSet<SignedBatch<u64>>, tag: usize) -> Proof<GSafeAck<u64>> {
    Proof::new(
        (0..3)
            .map(|signer| GSafeAck {
                round: 1,
                rcvd: echo.clone(),
                conflicts: vec![],
                signer,
                sig: sig(signer, tag),
            })
            .collect(),
    )
}

/// An SbS proof of three acks, each echoing `echo`.
fn sbs_proof_over(echo: ValueSet<SignedValue<u64>>, tag: usize) -> Proof<SignedSafeAck<u64>> {
    Proof::new(
        (0..3)
            .map(|signer| SignedSafeAck {
                body: SafeAckBody {
                    rcvd: echo.clone(),
                    conflicts: vec![],
                },
                signer,
                sig: sig(tag, signer),
            })
            .collect(),
    )
}

/// `update`, built from the records `new` with the proofs `refs` held,
/// round-trips byte for byte at its counted size with every record's
/// proof id, and refuses every strict prefix and any extension.
fn assert_payload_sound<A: ProofAck>(
    update: &ProvenUpdate<A>,
    new: &ValueSet<Proven<A>>,
    refs: &[ProofId],
    suffix: &[u8],
) {
    let bytes = encode_payload(update);
    assert_eq!(bytes.len(), update.wire_size());
    let back: ProvenUpdate<A> = decode_payload(&bytes).expect("own encoding decodes");
    assert_eq!(&encode_payload(&back), &bytes);
    assert_eq!(back.wire_size(), bytes.len());
    let base_ts = update.table().base_ts();
    let table = back.table();
    assert_eq!(table.base_ts(), base_ts);
    let mut inline = BTreeSet::new();
    for ((signed, proof), record) in table.records().zip(new.iter()) {
        let id = record.proof.id();
        let by_ref = base_ts.is_some() && refs.contains(&id);
        assert_eq!(signed, &record.signed);
        assert_eq!(proof.map(Proof::id), Some(id).filter(|_| !by_ref));
        assert_eq!(table.refs().contains(&id), by_ref);
        inline.extend(proof.map(|p| p.as_slice().as_ptr()));
    }
    let distinct: BTreeSet<_> = new.iter().map(|r| r.proof.id()).collect();
    assert_eq!(inline.len() + table.refs().len(), distinct.len());
    for cut in 0..bytes.len() {
        assert!(decode_payload::<ProvenUpdate<A>>(&bytes[..cut]).is_err());
    }
    assert_payload_rejects_extension(update, suffix);
}

/// The whole of `new`, or with a base the additions `new` with `refs`
/// held.
fn update<A: ProofAck>(
    base_ts: Option<u64>,
    new: &ValueSet<Proven<A>>,
    refs: &[ProofId],
) -> ProvenUpdate<A> {
    match base_ts {
        Some(base_ts) => ProvenUpdate::Delta {
            base_ts,
            new: new.clone(),
            refs: refs.to_vec(),
        },
        None => ProvenUpdate::Full(new.clone()),
    }
}

/// A decided certificate of `round` over `values` with `acks` acks, each
/// over the digest of `values`.
fn certificate(round: u64, values: ValueSet<u64>, acks: usize, ts: u64) -> DecidedCert<u64> {
    let digest = digest(&values);
    DecidedCert {
        round,
        values,
        acks: (0..acks)
            .map(|signer| SignedAck {
                destination: 200 - signer,
                ts,
                round,
                digest,
                signer,
                sig: sig(signer, 9),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Records sharing 1 to 4 proofs, some held by the receiver, in GSbS
    /// and SbS shapes: each inline proof travels once and each held one
    /// as its id, and a proof's acks echo none of the payload's records,
    /// all of them, or some and a value that is none. The payload
    /// round-trips byte for byte at its counted size with every proof id,
    /// refusing every strict prefix and any extension. A certificate
    /// round-trips too, 64 bytes an ack shorter than with its digests.
    #[test]
    fn proven_payloads_roundtrip(
        k in 1usize..=4,
        picks in any::<Vec<u8>>(),
        held in any::<u8>(),
        base_ts in any::<Option<u64>>(),
        suffix in any::<Vec<u8>>(),
        echoes in any::<[u16; 4]>(),
    ) {
        let m = picks.len().min(10);
        let mut suffix = suffix;
        suffix.truncate(3);
        suffix.push(held);
        // Which of the records `0..m` proof `p`'s acks echo: `None` for a
        // proof over other request sets.
        let echoed = |p: usize| -> Option<Vec<usize>> {
            match echoes[p] % 3 {
                0 => None,
                1 => Some((0..m).collect()),
                _ => Some((0..m).filter(|i| echoes[p] >> (2 + i) & 1 == 1).chain([100 + p]).collect()),
            }
        };
        let held_ids = |ids: &[ProofId]| -> Vec<ProofId> {
            ids.iter().copied().filter(|id| id.0[0] & held != 0).collect()
        };

        let proofs: Vec<_> = (0..k)
            .map(|p| match echoed(p) {
                None => gsbs_proof(p + 1, &[0, 1, 2]),
                Some(echo) => gsbs_proof_over(echo.into_iter().map(batch).collect(), p),
            })
            .collect();
        let new: ValueSet<_> = picks.iter().take(m).enumerate()
            .map(|(i, &p)| proven(i, &proofs[p as usize % k]))
            .collect();
        let refs = held_ids(&proofs.iter().map(Proof::id).collect::<Vec<_>>());
        assert_payload_sound(&update(base_ts, &new, &refs), &new, &refs, &suffix);

        let proofs: Vec<_> = (0..k)
            .map(|p| match echoed(p) {
                None => sbs_proof(p + 1, &[0, 1, 2]),
                Some(echo) => sbs_proof_over(echo.into_iter().map(signed_value).collect(), p),
            })
            .collect();
        let new: ValueSet<_> = picks.iter().take(m).enumerate()
            .map(|(i, &p)| ProvenValue { signed: signed_value(i), proof: proofs[p as usize % k].clone() })
            .collect();
        let refs = held_ids(&proofs.iter().map(Proof::id).collect::<Vec<_>>());
        assert_payload_sound(&update(base_ts, &new, &refs), &new, &refs, &suffix);

        let values = picks.iter().map(|&p| u64::from(p) << 40).collect();
        let cert = certificate(u64::from(held) * 300, values, k + 2, base_ts.unwrap_or(7));
        let bytes = encode_payload(&cert);
        prop_assert_eq!(bytes.len(), cert.wire_size());
        prop_assert_eq!(decode_payload::<DecidedCert<u64>>(&bytes), Ok(cert.clone()));
        let mut digests = Writer::counting();
        digests.var(cert.round);
        cert.values.encode(&mut digests);
        cert.acks.encode(&mut digests);
        prop_assert_eq!(bytes.len() + 64 * cert.acks.len(), digests.len());
        assert_payload_rejects_extension(&cert, &suffix);
    }
}

/// The reply of acceptor `signer` in the hand-laid-out proofs below.
fn reply(signer: usize) -> GSafeAckReply<u64> {
    GSafeAckReply {
        round: 1,
        conflicts: vec![],
        signer,
        sig: sig(signer, 0),
    }
}

/// Writes `proof` as a payload's table does when no element of its
/// echoes is a record of the payload: each echo names none, then spells
/// out all of its elements.
fn write_naming_none(proof: &Proof<GSafeAck<u64>>, w: &mut Writer) {
    let mut echoes: Vec<&ValueSet<SignedBatch<u64>>> = Vec::new();
    for ack in proof.iter() {
        if !echoes.contains(&ack.echo()) {
            echoes.push(ack.echo());
        }
    }
    w.usize(echoes.len());
    for echo in &echoes {
        w.usize(0);
        echo.encode(w);
    }
    w.usize(proof.len());
    for ack in proof.iter() {
        w.usize(echoes.iter().position(|e| *e == ack.echo()).unwrap());
        ack.encode_reply(w);
    }
}

/// The bytes of a delta at base 3: each `(index, i)` as a proof index
/// and batch `i`, then `proofs` inline, then `refs`.
fn table_laid_out(
    proofs: &[&Proof<GSafeAck<u64>>],
    refs: &[ProofId],
    records: &[(usize, usize)],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(1);
    w.var(3);
    w.usize(records.len());
    for &(index, i) in records {
        w.usize(index);
        batch(i).encode(&mut w);
    }
    w.usize(proofs.len());
    proofs.iter().for_each(|p| write_naming_none(p, &mut w));
    w.usize(refs.len());
    refs.iter().for_each(|id| id.encode(&mut w));
    w.into_bytes()
}

/// The bytes of a whole set of batches `0..m` under one inline proof of
/// three acks, whose one echo names the records at `named` and spells out
/// batches `spelled`.
fn naming_laid_out(m: usize, named: &[usize], spelled: &[usize]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(0);
    w.usize(m);
    for i in 0..m {
        w.usize(0);
        batch(i).encode(&mut w);
    }
    w.usize(1);
    w.usize(1);
    w.usize(named.len());
    named.iter().for_each(|&at| w.usize(at));
    w.usize(spelled.len());
    spelled.iter().for_each(|&i| batch(i).encode(&mut w));
    w.usize(3);
    for signer in 0..3 {
        w.usize(0);
        reply(signer).encode(&mut w);
    }
    w.usize(0);
    w.into_bytes()
}

#[test]
fn proven_payload_decoder_accepts_one_encoding_only() {
    let [p, q, r] = [1, 2, 3].map(|k| gsbs_proof(k, &[0, 1, 2]));
    let (a, b) = (q.id().min(r.id()), q.id().max(r.id()));
    let decode =
        |proofs: &[&Proof<GSafeAck<u64>>], refs: &[ProofId], records: &[(usize, usize)]| {
            decode_payload::<Payload>(&table_laid_out(proofs, refs, records)).map(|u| u.wire_size())
        };
    // `p` inline under records 0 and 3; `q` and `r` by reference, sorted.
    let at = |id| 1 + usize::from(id == b);
    let canonical = table_laid_out(
        &[&p],
        &[a, b],
        &[(0, 0), (at(q.id()), 1), (at(r.id()), 2), (0, 3)],
    );
    let update = ProvenUpdate::Delta {
        base_ts: 3,
        new: [(0, &p), (1, &q), (2, &r), (3, &p)]
            .into_iter()
            .map(|(i, pr)| proven(i, pr))
            .collect(),
        refs: vec![r.id(), q.id()],
    };
    assert_eq!(
        encode_payload(&update),
        canonical,
        "the layout the encoder writes"
    );
    assert_eq!(
        decode(&[&p], &[a, b], &[(0, 0), (1, 1), (2, 2), (0, 3)]),
        Ok(canonical.len())
    );

    let invalid = |what| Err(CodecError::Invalid(what));
    for (proofs, refs, records, what) in [
        (
            &[&p][..],
            &[][..],
            &[(1, 0)][..],
            "proof index past the table",
        ),
        (
            &[&p],
            &[a],
            &[(0, 0), (1, 1), (2, 2)],
            "proof index past the table",
        ),
        (
            &[&p, &q],
            &[],
            &[(0, 0), (0, 1)],
            "proof table entry never used",
        ),
        (&[], &[a, b], &[(0, 0)], "proof table entry never used"),
        (&[&p, &p], &[], &[(0, 0), (1, 1)], "proof listed twice"),
        (
            &[],
            &[a, a],
            &[(0, 0), (1, 1)],
            "set not strictly ascending",
        ),
        (
            &[],
            &[b, a],
            &[(0, 0), (1, 1)],
            "set not strictly ascending",
        ),
        (
            &[&q],
            &[q.id()],
            &[(0, 0), (1, 1)],
            "proof both inline and referenced",
        ),
        (
            &[&p, &q],
            &[],
            &[(1, 0), (0, 1)],
            "proofs out of first-use order",
        ),
        (
            &[&p],
            &[],
            &[(0, 1), (0, 0)],
            "proven records not strictly ascending",
        ),
        (
            &[&p],
            &[],
            &[(0, 0), (0, 0)],
            "proven records not strictly ascending",
        ),
    ] {
        assert_eq!(decode(proofs, refs, records), invalid(what));
    }
    for cut in 0..canonical.len() {
        assert!(decode_payload::<Payload>(&canonical[..cut]).is_err());
    }
    let trailing = [&canonical[..], &[0]].concat();
    assert_eq!(
        decode_payload::<Payload>(&trailing).err(),
        Some(CodecError::TrailingBytes)
    );
    assert_eq!(
        decode(&[], &[], &[]),
        Ok(5),
        "the empty delta has one form too"
    );

    // An echo names the records it holds, by ascending position, and
    // spells out only what is no record.
    let echo: ValueSet<_> = [0, 2, 5].map(batch).into_iter().collect();
    let proof = Proof::new(
        (0..3)
            .map(|signer| GSafeAck::from_reply(reply(signer), echo.clone()))
            .collect(),
    );
    let named = naming_laid_out(3, &[0, 2], &[5]);
    let set: ValueSet<_> = (0..3).map(|i| proven(i, &proof)).collect();
    assert_eq!(
        encode_payload(&ProvenUpdate::Full(set)),
        named,
        "the layout the encoder writes"
    );
    let back = decode_payload::<Payload>(&named).expect("canonical layout decodes");
    assert!(back.table().records().all(|(_, p)| p == Some(&proof)));
    let decode = |named: &[usize], spelled: &[usize]| {
        decode_payload::<Payload>(&naming_laid_out(3, named, spelled)).map(|u| u.wire_size())
    };
    assert_eq!(
        decode(&[0, 3], &[5]),
        invalid("echoed record past the records")
    );
    assert_eq!(
        decode(&[2, 0], &[5]),
        invalid("echoed records not strictly ascending")
    );
    assert_eq!(
        decode(&[0, 0], &[5]),
        invalid("echoed records not strictly ascending")
    );
    assert_eq!(decode(&[0], &[2, 5]), invalid("echoed record spelled out"));
    assert_eq!(
        decode(&[], &[0, 2, 5]),
        invalid("echoed record spelled out")
    );
    for cut in 0..named.len() {
        assert!(decode_payload::<Payload>(&named[..cut]).is_err());
    }

    // A certificate says no digest, so a cut or a padded one has nothing
    // to fall back on.
    let cert = certificate(130, vs(&[1, 1 << 40, u64::MAX]), 5, 200);
    let bytes = encode_payload(&cert);
    assert_eq!(decode_payload::<DecidedCert<u64>>(&bytes), Ok(cert.clone()));
    for cut in 0..bytes.len() {
        assert!(decode_payload::<DecidedCert<u64>>(&bytes[..cut]).is_err());
    }
    assert_eq!(
        decode_payload::<DecidedCert<u64>>(&[&bytes[..], &[0]].concat()).err(),
        Some(CodecError::TrailingBytes)
    );
    assert_padded_varints_rejected(&cert);
}

/// One proof with a 256 KiB echo under 100 records, 26 MiB spelled out:
/// the payload says it once, so the decoder reads and hashes it once, and
/// every resolved record shares the one decoded handle. Every record
/// walks its proof's acks when checked, so each use after the first is
/// charged: under 300 records, 77 MiB spelled out, the payload is refused
/// while it is read.
#[test]
fn one_proof_under_many_records_is_decoded_and_hashed_once() {
    let echo = [SignedBatch {
        round: 1,
        batch: (0..1u64 << 15).collect(),
        signer: 0,
        sig: sig(0, 0),
    }];
    let proof = Proof::new(vec![GSafeAck {
        round: 1,
        rcvd: echo.into_iter().collect(),
        conflicts: vec![],
        signer: 0,
        sig: sig(0, 1),
    }]);
    let payload = |records: usize| {
        let set = (0..records).map(|i| proven(i, &proof)).collect();
        let bytes = encode_payload(&ProvenUpdate::Full(set));
        assert!(bytes.len() < proof.wire_size() + records * 100);
        decode_payload::<Payload>(&bytes)
    };
    let back = payload(100).expect("said once, read once");
    let resolved = ProvenDeltaReceiver::default()
        .resolve(0, &back, &mut ProofResolver::default())
        .expect("every proof inline");
    let acks: std::collections::BTreeSet<_> = resolved
        .iter()
        .map(|pb| pb.proof.as_slice().as_ptr())
        .collect();
    assert_eq!(acks.len(), 1, "one decoded proof under every record");
    assert!(resolved.iter().all(|pb| pb.proof.id() == proof.id()));
    assert!(proof.wire_size() * 300 > MAX_SPELLED_OUT);
    assert_eq!(
        payload(300).err(),
        Some(CodecError::Invalid(
            "shared parts spelled out past the limit"
        ))
    );
}

/// Four records of 256 KiB batches, and under each of many small records
/// an inline proof whose echo names all four: a few bytes of positions
/// that the proof's id hashes as 1 MiB. Each named element is charged
/// its record's length while read, so 100 such proofs, 100 MiB spelled
/// out from about 1 MiB of input, are refused before their ids are
/// hashed past [`MAX_SPELLED_OUT`]; a few are read freely.
#[test]
fn named_echoes_are_charged_while_read() {
    const LARGE: usize = 4;
    let large = |i: usize| SignedBatch {
        round: 1,
        batch: (0..1u64 << 15).map(|v| (1 << 49) + v + i as u64).collect(),
        signer: i,
        sig: sig(i, 3),
    };
    let small = |k: usize| SignedBatch {
        round: 2,
        batch: vs(&[k as u64]),
        signer: k % N,
        sig: sig(k, 4),
    };
    // The large records under proof 0, then small record `k` under proof
    // `k`; every proof names the large records and has one ack.
    let laid_out = |proofs: usize| {
        let mut w = Writer::new();
        w.u8(0);
        w.usize(LARGE + proofs - 1);
        for i in 0..LARGE {
            w.usize(0);
            large(i).encode(&mut w);
        }
        for k in 1..proofs {
            w.usize(k);
            small(k).encode(&mut w);
        }
        w.usize(proofs);
        for signer in 0..proofs {
            w.usize(1);
            w.usize(LARGE);
            (0..LARGE).for_each(|at| w.usize(at));
            w.usize(0);
            w.usize(1);
            w.usize(0);
            reply(signer).encode(&mut w);
        }
        w.usize(0);
        w.into_bytes()
    };
    let named = LARGE * large(0).wire_size();
    assert!(named > LARGE << 18);
    let many = 100;
    let bytes = laid_out(many);
    assert!(bytes.len() < MAX_SPELLED_OUT / 32);
    assert!(named * many > MAX_SPELLED_OUT);
    assert_eq!(
        decode_payload::<Payload>(&bytes).err(),
        Some(CodecError::Invalid(
            "shared parts spelled out past the limit"
        ))
    );

    let few = decode_payload::<Payload>(&laid_out(4)).expect("a few proofs name them freely");
    let echo: ValueSet<_> = (0..LARGE).map(large).collect();
    let table = few.table();
    let ids: BTreeSet<_> = table
        .records()
        .filter_map(|(_, p)| p.map(Proof::id))
        .collect();
    let spelled: BTreeSet<_> = (0..4)
        .map(|signer| Proof::new(vec![GSafeAck::from_reply(reply(signer), echo.clone())]).id())
        .collect();
    assert_eq!(ids, spelled, "each names the records it echoes");
}
