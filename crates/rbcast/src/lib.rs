//! Byzantine reliable broadcast (Bracha 1987), the primitive WTS/GWTS use
//! for the value-disclosure phase and (in GWTS) for acceptor acks.
//!
//! Guarantees with `n ≥ 3f + 1`:
//!
//! * **Validity**: if a correct process broadcasts `(tag, v)`, every
//!   correct process eventually delivers `(origin, tag, v)`.
//! * **Agreement / no equivocation**: no two correct processes deliver
//!   different values for the same `(origin, tag)` — this is exactly what
//!   stops a Byzantine proposer from disclosing different initial values
//!   to different processes (Observation 1 of the paper).
//! * **Integrity**: at most one delivery per `(origin, tag)`.
//! * **Totality**: if any correct process delivers, all eventually do.
//!
//! The engine is *embeddable*: algorithm processes own an
//! [`RbcastEngine`] per message space and feed network events through it,
//! so one simulated process can run several protocols at once (as the
//! paper's proposer+acceptor co-location requires). The fast path is 3
//! message delays (`init → echo → ready → deliver`), which is where the
//! `2f + 5 = 3 + (2f + 2)` accounting of Theorem 3 comes from.
//!
//! Tags isolate *instances*: GWTS tags disclosures with the round number,
//! which is the "round based" disambiguation footnote 2 of the paper
//! attributes to Mendes et al.
//!
//! # Slots
//!
//! A message costs one map lookup, which lands in the *slot* of its
//! `(origin, tag)` instance: three guard flags, a voter bitset sized by
//! `n`, and one pair of counts per distinct payload. A slot is
//!
//! * **open** until this process has sent its ready: echoes and readies
//!   are counted, at most one of each per sender (a second vote, for the
//!   same or another payload, is ignored — so is any message naming a
//!   process outside `0..n`);
//! * **readied** after that: an echo can only ever trigger the ready, so
//!   echoes are no longer counted; readies still are;
//! * **delivered** at `2f + 1` readies: flags only. Delivering implies
//!   having readied (`2f + 1 ≥ f + 1`), so no later echo or ready can
//!   produce output and no count will be read again; the slot drops its
//!   bitset and every payload clone. The flags stay for good: they are
//!   what refuses a second delivery, and what gives a late init its one
//!   echo and no more.
#![warn(missing_docs)]
// Thresholds are written exactly as in the paper (`f + 1`, `2f + 1`,
// `⌊(n+f)/2⌋ + 1`); clippy's `x > y` rewrite would obscure the quorum math.
#![allow(clippy::int_plus_one)]

use bgla_codec::{CodecError, Reader, Wire, Writer};
use bgla_simnet::ProcessId;
use std::collections::BTreeMap;

/// Wire messages of the broadcast protocol, carried inside the host
/// algorithm's message enum.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum RbMsg<T> {
    /// First round: the origin sends its value to everyone.
    Init {
        /// Instance tag chosen by the origin (e.g. GWTS round).
        tag: u64,
        /// Broadcast payload.
        value: T,
    },
    /// Second round: witnesses echo the value they saw from the origin.
    Echo {
        /// Claimed origin.
        origin: ProcessId,
        /// Instance tag.
        tag: u64,
        /// Echoed payload.
        value: T,
    },
    /// Third round: processes commit to delivering the value.
    Ready {
        /// Claimed origin.
        origin: ProcessId,
        /// Instance tag.
        tag: u64,
        /// Payload to deliver.
        value: T,
    },
}

impl<T> RbMsg<T> {
    /// Short label for metrics bucketing.
    pub fn kind(&self) -> &'static str {
        match self {
            RbMsg::Init { .. } => "rb_init",
            RbMsg::Echo { .. } => "rb_echo",
            RbMsg::Ready { .. } => "rb_ready",
        }
    }

    /// The broadcast payload.
    pub fn value(&self) -> &T {
        match self {
            RbMsg::Init { value, .. } | RbMsg::Echo { value, .. } | RbMsg::Ready { value, .. } => {
                value
            }
        }
    }
}

/// A delivered broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<T> {
    /// The authenticated origin of the broadcast.
    pub origin: ProcessId,
    /// The instance tag.
    pub tag: u64,
    /// The agreed value.
    pub value: T,
}

/// Messages the engine wants broadcast to **all** processes.
pub type Outgoing<T> = Vec<RbMsg<T>>;

/// Slot flag: the origin's init was seen and echoed (first init wins).
const ECHOED: u8 = 1;
/// Slot flag: this process sent its ready.
const READIED: u8 = 2;
/// Slot flag: the instance delivered here.
const DELIVERED: u8 = 4;

/// One `(origin, tag)` instance; see the module docs for its lifecycle.
struct Slot<T> {
    flags: u8,
    /// Voter bitset, `2·⌈n/64⌉` words: senders whose echo was counted,
    /// then senders whose ready was counted. Empty until the first vote
    /// and again once delivered.
    voted: Vec<u64>,
    /// `(payload, echoes, readies)` per distinct payload: at most `2n`
    /// entries (one vote per sender and kind), exactly one in honest
    /// runs. Empty once delivered.
    tallies: Vec<(T, usize, usize)>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            flags: 0,
            voted: Vec::new(),
            tallies: Vec::new(),
        }
    }
}

impl<T: Clone + Eq> Slot<T> {
    /// Counts `from`'s echo (or ready) for `value`. Returns the value's
    /// new count, or `None` when `from` already cast that kind of vote
    /// in this instance — for whichever payload.
    fn vote(&mut self, n: usize, from: ProcessId, ready: bool, value: &T) -> Option<usize> {
        let words = n.div_ceil(64);
        if self.voted.is_empty() {
            self.voted = vec![0; 2 * words];
        }
        let bit = from + if ready { 64 * words } else { 0 };
        let word = self.voted.get_mut(bit / 64)?;
        let mask = 1u64 << (bit % 64);
        if *word & mask != 0 {
            return None;
        }
        *word |= mask;
        let known = self.tallies.iter().position(|(v, ..)| v == value);
        let at = known.unwrap_or_else(|| {
            self.tallies.push((value.clone(), 0, 0));
            self.tallies.len() - 1
        });
        let (_, echoes, readies) = self.tallies.get_mut(at)?;
        let count = if ready { readies } else { echoes };
        *count += 1;
        Some(*count)
    }
}

/// Per-process state of all reliable-broadcast instances.
///
/// `T` must be `Ord` so value classes can be told apart without hashing.
pub struct RbcastEngine<T: Clone + Ord> {
    n: usize,
    f: usize,
    /// `(origin, tag)` -> instance state: the one lookup a message costs.
    slots: BTreeMap<(ProcessId, u64), Slot<T>>,
}

impl<T: Clone + Ord> RbcastEngine<T> {
    /// Engine for a system of `n` processes tolerating `f` Byzantine.
    pub fn new(n: usize, f: usize) -> Self {
        // bgla-lint: allow(byzantine-panic, "precondition on locally chosen n and f; engine construction is not message-driven")
        assert!(n >= 3 * f + 1, "reliable broadcast requires n >= 3f+1");
        Self::new_unchecked(n, f)
    }

    /// Engine **without** the resilience check — only for the
    /// `3f+1`-necessity runs of `tests/necessity.rs`, which run under-provisioned
    /// systems on purpose to exhibit the failure.
    pub fn new_unchecked(n: usize, f: usize) -> Self {
        RbcastEngine {
            n,
            f,
            slots: BTreeMap::new(),
        }
    }

    /// Echo quorum: `⌈(n + f + 1) / 2⌉`.
    fn echo_threshold(&self) -> usize {
        (self.n + self.f + 1).div_ceil(2)
    }

    /// Starts broadcasting `value` under `tag`. Returns messages that must
    /// be sent to **all** processes (including self).
    pub fn broadcast(&mut self, tag: u64, value: T) -> Outgoing<T> {
        vec![RbMsg::Init { tag, value }]
    }

    /// Feeds one received protocol message. Returns `(to_broadcast,
    /// deliveries)`: messages to send to all processes, and zero or more
    /// deliveries that became final. Messages naming a process outside
    /// `0..n` (as sender or origin) are ignored.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: RbMsg<T>,
    ) -> (Outgoing<T>, Vec<Delivery<T>>) {
        let mut out = Vec::new();
        let mut dels = Vec::new();
        let (n, f, echo_threshold) = (self.n, self.f, self.echo_threshold());
        let (origin, tag) = match &msg {
            // The *authenticated* sender is the origin; a Byzantine
            // process cannot spoof someone else's init.
            RbMsg::Init { tag, .. } => (from, *tag),
            RbMsg::Echo { origin, tag, .. } | RbMsg::Ready { origin, tag, .. } => (*origin, *tag),
        };
        if from >= n || origin >= n {
            return (out, dels);
        }
        let slot = self.slots.entry((origin, tag)).or_default();
        match msg {
            RbMsg::Init { value, .. } => {
                if slot.flags & ECHOED == 0 {
                    slot.flags |= ECHOED;
                    out.push(RbMsg::Echo { origin, tag, value });
                }
            }
            // An echo can only ever trigger our ready: once that is
            // sent, echoes are not even counted.
            RbMsg::Echo { value, .. } if slot.flags & READIED == 0 => {
                let count = slot.vote(n, from, false, &value);
                if count.is_some_and(|count| count >= echo_threshold) {
                    slot.flags |= READIED;
                    out.push(RbMsg::Ready { origin, tag, value });
                }
            }
            RbMsg::Ready { value, .. } if slot.flags & DELIVERED == 0 => {
                let Some(count) = slot.vote(n, from, true, &value) else {
                    return (out, dels);
                };
                // Amplification: f+1 readies prove a correct process is
                // ready; join in (guards totality).
                if count >= f + 1 && slot.flags & READIED == 0 {
                    slot.flags |= READIED;
                    out.push(RbMsg::Ready {
                        origin,
                        tag,
                        value: value.clone(),
                    });
                }
                // Delivery at 2f+1 readies: the slot keeps its flags and
                // lets go of every payload and vote.
                if count >= 2 * f + 1 {
                    slot.flags |= DELIVERED;
                    slot.voted = Vec::new();
                    slot.tallies = Vec::new();
                    dels.push(Delivery { origin, tag, value });
                }
            }
            RbMsg::Echo { .. } | RbMsg::Ready { .. } => {}
        }
        (out, dels)
    }

    /// Whether `(origin, tag)` has been delivered here.
    pub fn has_delivered(&self, origin: ProcessId, tag: u64) -> bool {
        self.slots
            .get(&(origin, tag))
            .is_some_and(|slot| slot.flags & DELIVERED != 0)
    }
}

impl<T: Wire> Wire for RbMsg<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            RbMsg::Init { tag, value } => {
                w.u8(0);
                w.var(*tag);
                value.encode(w);
            }
            RbMsg::Echo { origin, tag, value } => {
                w.u8(1);
                w.usize(*origin);
                w.var(*tag);
                value.encode(w);
            }
            RbMsg::Ready { origin, tag, value } => {
                w.u8(2);
                w.usize(*origin);
                w.var(*tag);
                value.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(RbMsg::Init {
                tag: r.var()?,
                value: T::decode(r)?,
            }),
            1 => Ok(RbMsg::Echo {
                origin: r.usize()?,
                tag: r.var()?,
                value: T::decode(r)?,
            }),
            2 => Ok(RbMsg::Ready {
                origin: r.usize()?,
                tag: r.var()?,
                value: T::decode(r)?,
            }),
            _ => Err(CodecError::Invalid("rbmsg tag")),
        }
    }
}

impl<T: Wire> Wire for Slot<T> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            flags,
            voted,
            tallies,
        } = self;
        w.u8(*flags);
        voted.encode(w);
        tallies.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Slot {
            flags: r.u8()?,
            voted: Wire::decode(r)?,
            tallies: Wire::decode(r)?,
        })
    }
}

/// The engine's full instance state is durable: every slot's guard
/// flags, voter bitset and per-payload counts round-trip through the
/// codec, so a process restored from a snapshot neither re-echoes what
/// it already echoed (no equivocation amnesia) nor re-delivers what it
/// already delivered (integrity across restarts). What an engine loses
/// by crashing is only the *in-flight* messages addressed to it — the
/// surrounding algorithm recovers those through quorum redundancy, not
/// the codec.
impl<T: Clone + Ord + Wire> Wire for RbcastEngine<T> {
    fn encode(&self, w: &mut Writer) {
        let Self { n, f, slots } = self;
        w.usize(*n);
        w.usize(*f);
        slots.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.usize()?;
        let f = r.usize()?;
        if n == 0 {
            return Err(CodecError::Invalid("rbcast n == 0"));
        }
        let slots: BTreeMap<(ProcessId, u64), Slot<T>> = Wire::decode(r)?;
        let words = 2 * n.div_ceil(64);
        if slots.values().any(|slot| {
            slot.flags > (ECHOED | READIED | DELIVERED)
                || !(slot.voted.is_empty() || slot.voted.len() == words)
        }) {
            return Err(CodecError::Invalid("rbcast slot"));
        }
        Ok(RbcastEngine { n, f, slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_simnet::{
        Context, Process, ProcessId as Pid, RandomScheduler, SimulationBuilder, WireMessage,
    };
    use std::any::Any;

    impl WireMessage for RbMsg<u64> {
        fn kind(&self) -> &'static str {
            RbMsg::kind(self)
        }
    }

    /// Honest node: broadcasts its id as value (if `sender`), records
    /// deliveries.
    struct Node {
        engine: RbcastEngine<u64>,
        sender: bool,
        me: Pid,
        delivered: Vec<Delivery<u64>>,
    }

    impl Process<RbMsg<u64>> for Node {
        fn on_start(&mut self, ctx: &mut Context<RbMsg<u64>>) {
            if self.sender {
                let msgs = self.engine.broadcast(0, 100 + self.me as u64);
                for m in msgs {
                    ctx.broadcast(m);
                }
            }
        }
        fn on_message(&mut self, from: Pid, msg: RbMsg<u64>, ctx: &mut Context<RbMsg<u64>>) {
            let (out, dels) = self.engine.on_message(from, msg);
            for m in out {
                ctx.broadcast(m);
            }
            self.delivered.extend(dels);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Equivocator: sends different `Init` values to different halves.
    struct Equivocator;
    impl Process<RbMsg<u64>> for Equivocator {
        fn on_start(&mut self, ctx: &mut Context<RbMsg<u64>>) {
            let n = ctx.n;
            for to in 0..n {
                let value = if to < n / 2 { 666 } else { 777 };
                ctx.send(to, RbMsg::Init { tag: 0, value });
            }
        }
        fn on_message(&mut self, _f: Pid, _m: RbMsg<u64>, _c: &mut Context<RbMsg<u64>>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn honest(me: Pid, n: usize, f: usize, sender: bool) -> Box<dyn Process<RbMsg<u64>>> {
        Box::new(Node {
            engine: RbcastEngine::new(n, f),
            sender,
            me,
            delivered: Vec::new(),
        })
    }

    #[test]
    fn all_correct_deliver_sender_value() {
        let (n, f) = (4, 1);
        let mut b = SimulationBuilder::new();
        for i in 0..n {
            b = b.add(honest(i, n, f, i == 0));
        }
        let mut sim = b.build();
        let out = sim.run(100_000);
        assert!(out.quiescent);
        for i in 0..n {
            let node = sim.process_as::<Node>(i).unwrap();
            assert_eq!(node.delivered.len(), 1, "process {i}");
            assert_eq!(node.delivered[0].value, 100);
            assert_eq!(node.delivered[0].origin, 0);
        }
    }

    #[test]
    fn no_two_correct_deliver_different_values_under_equivocation() {
        for seed in 0..20 {
            let (n, f) = (4, 1);
            let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
            for i in 0..n - 1 {
                b = b.add(honest(i, n, f, false));
            }
            b = b.add(Box::new(Equivocator));
            let mut sim = b.build();
            sim.run(100_000);
            let mut seen: Option<u64> = None;
            for i in 0..n - 1 {
                let node = sim.process_as::<Node>(i).unwrap();
                assert!(node.delivered.len() <= 1);
                for d in &node.delivered {
                    match seen {
                        None => seen = Some(d.value),
                        Some(v) => {
                            assert_eq!(v, d.value, "equivocation leaked (seed {seed})")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn totality_if_one_delivers_all_deliver() {
        for seed in 0..20 {
            let (n, f) = (7, 2);
            let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
            for i in 0..n {
                b = b.add(honest(i, n, f, i < 3));
            }
            let mut sim = b.build();
            let out = sim.run(1_000_000);
            assert!(out.quiescent);
            let counts: Vec<usize> = (0..n)
                .map(|i| sim.process_as::<Node>(i).unwrap().delivered.len())
                .collect();
            // All three broadcasts from correct senders must reach all.
            assert!(
                counts.iter().all(|&c| c == 3),
                "counts {counts:?} (seed {seed})"
            );
        }
    }

    #[test]
    fn fast_path_is_three_message_delays() {
        let (n, f) = (4, 1);
        let mut b = SimulationBuilder::new();
        for i in 0..n {
            b = b.add(honest(i, n, f, i == 0));
        }
        let mut sim = b.build();
        sim.run(100_000);
        // Delivery happens upon receiving the (2f+1)-th ready: depth 3.
        for i in 0..n {
            assert!(sim.depth_of(i) >= 3);
            assert!(
                sim.depth_of(i) <= 4,
                "fast path exceeded: {}",
                sim.depth_of(i)
            );
        }
    }

    #[test]
    fn distinct_tags_are_independent_instances() {
        let mut e: RbcastEngine<u64> = RbcastEngine::new(4, 1);
        for tag in [0u64, 1] {
            for p in 0..3 {
                let (_, d) = e.on_message(
                    p,
                    RbMsg::Ready {
                        origin: 0,
                        tag,
                        value: 5,
                    },
                );
                if p == 2 {
                    assert_eq!(d.len(), 1, "tag {tag}");
                }
            }
        }
    }

    #[test]
    fn duplicate_ready_from_same_sender_does_not_count_twice() {
        let mut e: RbcastEngine<u64> = RbcastEngine::new(4, 1);
        for _ in 0..10 {
            let (_, d) = e.on_message(
                1,
                RbMsg::Ready {
                    origin: 0,
                    tag: 0,
                    value: 5,
                },
            );
            assert!(d.is_empty(), "one sender must never reach the quorum alone");
        }
    }

    #[test]
    fn delivery_happens_once() {
        let mut e: RbcastEngine<u64> = RbcastEngine::new(4, 1);
        let mut total = 0;
        for p in 0..4 {
            let (_, d) = e.on_message(
                p,
                RbMsg::Ready {
                    origin: 0,
                    tag: 0,
                    value: 5,
                },
            );
            total += d.len();
        }
        assert_eq!(total, 1);
        assert!(e.has_delivered(0, 0));
    }

    #[test]
    #[should_panic(expected = "n >= 3f+1")]
    fn rejects_insufficient_resilience() {
        let _ = RbcastEngine::<u64>::new(3, 1);
    }

    #[test]
    fn engine_state_roundtrips_and_preserves_guards() {
        use bgla_codec::{decode_payload, encode_payload};
        let mut e: RbcastEngine<u64> = RbcastEngine::new(4, 1);
        // Drive a partial instance: init echoed, two readies tallied.
        let _ = e.on_message(0, RbMsg::Init { tag: 0, value: 5 });
        for p in 0..2 {
            let _ = e.on_message(
                p,
                RbMsg::Ready {
                    origin: 0,
                    tag: 0,
                    value: 5,
                },
            );
        }
        let bytes = encode_payload(&e);
        let mut back: RbcastEngine<u64> = decode_payload(&bytes).unwrap();
        // The restored engine refuses to re-echo the same init...
        let (out, _) = back.on_message(0, RbMsg::Init { tag: 0, value: 5 });
        assert!(out.is_empty(), "restored engine re-echoed a seen init");
        // ...and its ready tally continues where it left off: one more
        // ready reaches 2f+1 = 3 and delivers exactly once.
        let (_, dels) = back.on_message(
            2,
            RbMsg::Ready {
                origin: 0,
                tag: 0,
                value: 5,
            },
        );
        assert_eq!(dels.len(), 1);
        assert!(back.has_delivered(0, 0));
    }

    #[test]
    fn messages_naming_a_process_outside_the_system_are_ignored() {
        let mut e: RbcastEngine<u64> = RbcastEngine::new(4, 1);
        let ready = |origin| RbMsg::Ready {
            origin,
            tag: 0,
            value: 5,
        };
        for from in 4..10 {
            assert_eq!(e.on_message(from, ready(0)), (vec![], vec![]));
            assert_eq!(
                e.on_message(from, RbMsg::Init { tag: 0, value: 5 }),
                (vec![], vec![])
            );
        }
        for from in 0..4 {
            assert_eq!(e.on_message(from, ready(4)), (vec![], vec![]));
        }
        assert!(!e.has_delivered(0, 0) && !e.has_delivered(4, 0));
    }

    #[test]
    fn a_sender_has_one_echo_and_one_ready_per_instance() {
        let mut e: RbcastEngine<u64> = RbcastEngine::new(4, 1);
        let vote = |ready, value| match ready {
            false => RbMsg::Echo {
                origin: 0,
                tag: 0,
                value,
            },
            true => RbMsg::Ready {
                origin: 0,
                tag: 0,
                value,
            },
        };
        // Sender 3 votes for 1000 payloads; only its first vote of each
        // kind is counted, and the slot holds two payloads, not 1000.
        for value in 0..1000 {
            assert_eq!(e.on_message(3, vote(false, value)), (vec![], vec![]));
            assert_eq!(e.on_message(3, vote(true, 1000 + value)), (vec![], vec![]));
        }
        assert_eq!(e.slots[&(0, 0)].tallies.len(), 2);
        // Its later vote for the honest payload 7 is one of the ignored:
        // two honest readies plus sender 3's are not a quorum of three.
        for from in 1..3 {
            let (out, dels) = e.on_message(from, vote(true, 7));
            assert_eq!((out.len(), dels.len()), (from - 1, 0), "amplify at f+1 = 2");
        }
        assert_eq!(e.on_message(3, vote(true, 7)), (vec![], vec![]));
        assert_eq!(e.on_message(0, vote(true, 7)).1.len(), 1);
    }

    #[test]
    fn malformed_slots_are_rejected_at_decode() {
        use bgla_codec::{decode_payload, encode_payload};
        let mut e: RbcastEngine<u64> = RbcastEngine::new(4, 1);
        let _ = e.on_message(
            1,
            RbMsg::Echo {
                origin: 0,
                tag: 0,
                value: 5,
            },
        );
        assert!(decode_payload::<RbcastEngine<u64>>(&encode_payload(&e)).is_ok());
        e.slots.get_mut(&(0, 0)).unwrap().voted.push(0);
        assert!(decode_payload::<RbcastEngine<u64>>(&encode_payload(&e)).is_err());
        e.slots.get_mut(&(0, 0)).unwrap().voted.pop();
        e.slots.get_mut(&(0, 0)).unwrap().flags = 8;
        assert!(decode_payload::<RbcastEngine<u64>>(&encode_payload(&e)).is_err());
    }

    #[test]
    fn rb_msgs_roundtrip() {
        use bgla_codec::{decode_payload, encode_payload};
        let msgs = [
            RbMsg::Init {
                tag: 7,
                value: 1u64,
            },
            RbMsg::Echo {
                origin: 2,
                tag: 7,
                value: 1,
            },
            RbMsg::Ready {
                origin: 2,
                tag: 7,
                value: 1,
            },
        ];
        for (m, header) in msgs.into_iter().zip([1 + 1, 1 + 1 + 1, 1 + 1 + 1]) {
            let bytes = encode_payload(&m);
            assert_eq!(bytes.len(), header + 8);
            assert_eq!(m.wire_size(), bytes.len());
            let back: RbMsg<u64> = decode_payload(&bytes).unwrap();
            assert_eq!(back, m);
        }
        // The header grows with what it says: a tag past one varint byte,
        // an origin past two.
        let late = RbMsg::Ready {
            origin: 20_000,
            tag: 128,
            value: 1u64,
        };
        assert_eq!(encode_payload(&late).len(), 1 + 3 + 2 + 8);
        assert_eq!(decode_payload(&encode_payload(&late)), Ok(late));
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use bgla_simnet::{Context, Process, ProcessId as Pid, RandomScheduler, SimulationBuilder};
    use std::any::Any;

    struct Node {
        engine: RbcastEngine<u64>,
        sender: bool,
        me: Pid,
        delivered: Vec<Delivery<u64>>,
    }

    impl Process<RbMsg<u64>> for Node {
        fn on_start(&mut self, ctx: &mut Context<RbMsg<u64>>) {
            if self.sender {
                for m in self.engine.broadcast(0, 100 + self.me as u64) {
                    ctx.broadcast(m);
                }
            }
        }
        fn on_message(&mut self, from: Pid, msg: RbMsg<u64>, ctx: &mut Context<RbMsg<u64>>) {
            let (out, dels) = self.engine.on_message(from, msg);
            for m in out {
                ctx.broadcast(m);
            }
            self.delivered.extend(dels);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    struct Crashed;
    impl Process<RbMsg<u64>> for Crashed {
        fn on_message(&mut self, _f: Pid, _m: RbMsg<u64>, _c: &mut Context<RbMsg<u64>>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// With f processes crash-silent, correct senders' broadcasts still
    /// deliver at all correct processes (validity + totality under the
    /// crash special-case of Byzantine behavior).
    #[test]
    fn delivers_despite_f_crashes() {
        for seed in 0..10 {
            let (n, f) = (7usize, 2usize);
            let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
            for i in 0..n - f {
                b = b.add(Box::new(Node {
                    engine: RbcastEngine::new(n, f),
                    sender: i == 0,
                    me: i,
                    delivered: Vec::new(),
                }));
            }
            for _ in 0..f {
                b = b.add(Box::new(Crashed));
            }
            let mut sim = b.build();
            let out = sim.run(1_000_000);
            assert!(out.quiescent);
            for i in 0..n - f {
                let node = sim.process_as::<Node>(i).unwrap();
                assert_eq!(node.delivered.len(), 1, "seed {seed} p{i}");
                assert_eq!(node.delivered[0].value, 100);
            }
        }
    }

    /// One crash short of the threshold: with f+1 crashes (more failures
    /// than the configured tolerance) delivery can stall — the bound is
    /// tight for this engine.
    #[test]
    fn too_many_crashes_stall_delivery() {
        let (n, f) = (4usize, 1usize);
        let mut b = SimulationBuilder::new();
        // Only 2 live processes; 2 crashed (f+1 failures).
        for i in 0..2 {
            b = b.add(Box::new(Node {
                engine: RbcastEngine::new(n, f),
                sender: i == 0,
                me: i,
                delivered: Vec::new(),
            }));
        }
        b = b.add(Box::new(Crashed));
        b = b.add(Box::new(Crashed));
        let mut sim = b.build();
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        // Echo threshold ⌈(n+f+1)/2⌉ = 3 > 2 live: nobody delivers.
        for i in 0..2 {
            let node = sim.process_as::<Node>(i).unwrap();
            assert!(node.delivered.is_empty(), "p{i} delivered impossibly");
        }
    }
}
