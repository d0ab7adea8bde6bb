//! Per-directed-link reliability state machines.
//!
//! [`SenderLink`] and [`ReceiverLink`] are the heart of the fault
//! masking contract: together they rebuild a reliable FIFO link on top
//! of a wire that drops, duplicates, delays, and resets. They are
//! deliberately **pure** — no sockets, no threads, no clocks. The
//! caller feeds in the current time as a microsecond count and carries
//! the returned frames to whatever wire it owns. That makes every
//! masking path (gap repair, probe-after-timeout, dedup,
//! resync-after-reconnect, bounded-outbox overflow) a plain function
//! of its inputs, pinned exactly by unit tests with no real I/O or
//! sleeps involved.
//!
//! The scheme is a cumulative-ack sliding window whose every resend is
//! driven by evidence or by a measured clock:
//!
//! * **Evidence.** The receiver delivers in order, stashes
//!   out-of-order arrivals, discards duplicates, and acknowledges
//!   every DATA-bearing wakeup with `(cum, held)`: the next sequence
//!   it expects and the lowest one it holds beyond that. `[cum, held)`
//!   is exactly what it is missing, and the sender resends exactly
//!   that, at once — each frame at most once per smoothed RTT, and
//!   never a frame the receiver reported holding.
//! * **Clock.** The sender keeps each frame's last send time and a
//!   Jacobson/Karels estimate of the round trip (SRTT, RTTVAR; RFC
//!   6298). The one timer is `last send of the oldest unacked frame +
//!   RTO`. When it fires nothing is known, so the sender asks: it
//!   resends that **one** frame as a probe — any DATA frame elicits an
//!   ACK whose gap report says what is really missing — and asks again
//!   one RTO later, at the same span. The span is not doubled: a probe
//!   is one frame per timeout, and a timeout is never under the
//!   poller's 1 ms beat, so there is no load to back off from;
//!   congestion control belongs to the TCP stream below, and a stream
//!   that died is redialled, not probed. (Doubled, a window that
//!   swallows `k` writes of a link nothing else is written to costs
//!   `2^k − 1` timeouts instead of `k`.) Until the link's first ACK has
//!   come back the clock has measured only the handshake, which is
//!   answered in the sweep that reads it and so says nothing of how
//!   long an ACK waits for the receiver's next look at its socket: the
//!   first flight is timed at the ceiling (a loss in it that anything
//!   follows is still repaired at once, on evidence).
//! * **Samples.** Karn's rule alone is not enough under cumulative
//!   acks: frames parked in the receiver's stash behind a hole are
//!   acknowledged when the hole fills, however long that took. A
//!   sample is taken only from an ACK whose *whole* newly covered run
//!   was never resent, and times the newest frame of the run.

use crate::frame::{Data, FrameKind};
use bgla_codec::encode_frame;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One encoded DATA frame. Encoded once at [`SenderLink::enqueue`];
/// the window, the write queue and every resend share these bytes.
pub type Frame = Arc<[u8]>;

/// Floor and ceiling of the retransmission timeout, in µs; each is
/// justified by the two numbers it trades (2 cores, loopback, GWTS).
///
/// The floor trades tail-loss latency — a lost last frame, or each
/// write a partition window swallows once traffic has stopped pushing
/// it, waits one timeout — against probes sent on a fault-free link
/// whose ACK is merely waiting for a CPU. At 1 / 2 / 4 ms,
/// `op_latency_p90_ms` under `chaos()` at n = 4 reads 8.2–8.6 / 13.7–14.1
/// / 23–24 ms (3 450–3 790 / 2 760–3 180 / 2 150–2 430 ops/s), and
/// `net.spurious_retransmit_ratio` on the same system without faults
/// 0.0002–0.0006 / 0.00003 (a probe is one frame, so a timeout that was
/// wrong is cheap). 1 ms is the poller's idle beat: no timer is looked
/// at more often, which is also what bounds the un-doubled probe rate.
///
/// The ceiling caps the estimate where a round trip really is long
/// because ACKs queue for a CPU — at 64 / 16 ms a fault-free run resends
/// 0.16% / 0.32% of its frames at n = 7, 0.07% / 0.14% at n = 10 and
/// 0.07% / 1.5% at n = 16 — and bounds how long a link whose estimate one
/// starved sample inflated stays silent after a tail loss.
/// It also times a link's first flight, before any ACK has been heard:
/// a receiver that has gone idle looks at its socket one beat later,
/// which the handshake's sample cannot know, and timing the flight by
/// that sample put a stray probe into 41 of 1 000 fault-free start-ups
/// (4 nodes, one frame per link; 11 with a 2 ms floor, 0 of 3 000 at
/// the ceiling) — for no gain under `chaos()`, where something follows
/// a lost first frame and reports it.
const RTO_MIN_US: u64 = 1_000;
const RTO_MAX_US: u64 = 64_000;

/// Per-link tuning. Timeouts are measured, not configured; what is
/// left is how much the sender may buffer.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Bounded outbox horizon: the maximum number of unacknowledged
    /// messages buffered for a peer. Beyond it the link stops masking
    /// and *surfaces* the fault by dropping new messages (counted in
    /// [`SenderLink::overflow_dropped`]) — the peer-down contract.
    pub max_unacked: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { max_unacked: 4_096 }
    }
}

/// One frame of the sender window.
#[derive(Debug)]
struct Sent {
    frame: Frame,
    /// When the frame was last handed to the wire (caller's µs clock).
    sent_at: u64,
    /// Karn: a resent frame's acknowledgment times nothing.
    resent: bool,
}

impl Sent {
    /// Hands the frame to the wire once more, at `now`.
    fn resend(&mut self, now: u64) -> Frame {
        self.sent_at = now;
        self.resent = true;
        self.frame.clone()
    }
}

/// Sending half of a reliable link: sequence assignment, the unacked
/// window, the round-trip estimator and its one timer, gap repair, and
/// reconnect resync.
#[derive(Debug)]
pub struct SenderLink {
    cfg: LinkConfig,
    next_seq: u64,
    /// Frames sent but not yet cumulatively acknowledged; the front
    /// has sequence `next_seq - unacked.len()`.
    unacked: VecDeque<Sent>,
    /// Smoothed round trip and its mean deviation in µs; 0 = no sample.
    srtt: u64,
    rttvar: u64,
    /// An ACK has come back on this link: the estimate now rests on
    /// more than the handshake.
    heard: bool,
    /// Total frames resent: gap repairs, probes and resync tails.
    pub retransmits: u64,
    /// Messages dropped because the window was full (peer down past
    /// the bounded outbox horizon) — the surfaced fault.
    pub overflow_dropped: u64,
    /// Resyncs performed after a reconnect.
    pub resyncs: u64,
}

impl SenderLink {
    /// A fresh link with an empty window and no round-trip sample.
    pub fn new(cfg: LinkConfig) -> SenderLink {
        SenderLink {
            cfg,
            next_seq: 0,
            unacked: VecDeque::new(),
            srtt: 0,
            rttvar: 0,
            heard: false,
            retransmits: 0,
            overflow_dropped: 0,
            resyncs: 0,
        }
    }

    /// Sequence number the next enqueued message will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Unacknowledged frames currently buffered.
    pub fn window_len(&self) -> usize {
        self.unacked.len()
    }

    /// Current timeout span in µs: `SRTT + 4·RTTVAR` within the floor
    /// and ceiling; the ceiling while no ACK has been heard yet.
    fn rto_us(&self) -> u64 {
        if !self.heard {
            return RTO_MAX_US;
        }
        (self.srtt + 4 * self.rttvar).clamp(RTO_MIN_US, RTO_MAX_US)
    }

    /// Deadline (caller-clock µs) of the one timer: the oldest unacked
    /// frame's last send plus the timeout; `None` when nothing is
    /// outstanding. It moves *earlier* when the estimate shrinks, and
    /// the caller must honour that.
    pub fn deadline(&self) -> Option<u64> {
        self.unacked.front().map(|f| f.sent_at + self.rto_us())
    }

    /// How many frames at the front of the window lie below `seq`.
    fn below(&self, seq: u64) -> usize {
        let base = self.next_seq - self.unacked.len() as u64;
        seq.saturating_sub(base).min(self.unacked.len() as u64) as usize
    }

    /// Feeds one round-trip measurement into the estimator.
    fn sample(&mut self, rtt: u64) {
        if self.srtt == 0 {
            self.srtt = rtt.max(1);
            self.rttvar = rtt / 2;
        } else {
            self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(rtt)) / 4;
            self.srtt = (7 * self.srtt + rtt) / 8;
        }
    }

    /// Accepts one protocol message for transmission. Returns the
    /// encoded DATA frame to put on the wire, or `None` if the peer is
    /// down past the bounded outbox horizon — the caller counts that
    /// as a surfaced drop and moves on.
    pub fn enqueue(&mut self, depth: u64, payload: Vec<u8>, now: u64) -> Option<Frame> {
        if self.unacked.len() >= self.cfg.max_unacked {
            self.overflow_dropped += 1;
            return None;
        }
        let data = Data {
            seq: self.next_seq,
            depth,
            payload,
        };
        let frame: Frame = encode_frame(FrameKind::Data.into(), &data).into();
        self.next_seq += 1;
        self.unacked.push_back(Sent {
            frame: frame.clone(),
            sent_at: now,
            resent: false,
        });
        Some(frame)
    }

    /// Processes an ACK `(cum, held)`: drops acknowledged frames — a run
    /// that was never resent yields a round-trip sample — then returns the repair for the
    /// reported hole: every frame of `[cum, held)` except those resent
    /// within the last smoothed RTT (that repair is still in flight).
    pub fn on_ack(&mut self, cum: u64, held: u64, now: u64) -> Vec<Frame> {
        self.heard = true;
        let covered = self.below(cum);
        if covered > 0 {
            let run = self.unacked.drain(..covered);
            let (clean, newest) = run.fold((true, 0), |(clean, newest), f| {
                (clean && !f.resent, newest.max(f.sent_at))
            });
            if clean {
                self.sample(now.saturating_sub(newest));
            }
        }
        let hole = self.below(held);
        // (No sample yet — the first connection died before its HELLO
        // reply: the floor stands in for the round trip.)
        let in_flight = match self.srtt {
            0 => RTO_MIN_US,
            srtt => srtt,
        };
        let repair: Vec<Frame> = (self.unacked.iter_mut().take(hole))
            .filter(|f| !f.resent || now.saturating_sub(f.sent_at) >= in_flight)
            .map(|f| f.resend(now))
            .collect();
        self.retransmits += repair.len() as u64;
        repair
    }

    /// Fires the timer if due: no gap report says what is missing, so
    /// the oldest unacked frame goes out once more as a probe (its ACK
    /// will say), which re-arms the timer one span on. `None` when the
    /// timer has not expired or nothing is outstanding.
    pub fn on_timer(&mut self, now: u64) -> Option<Frame> {
        if now < self.deadline()? {
            return None;
        }
        self.retransmits += 1;
        Some(self.unacked.front_mut()?.resend(now))
    }

    /// A HELLO reply arrived at `now`, announcing the peer's
    /// next-expected sequence; acknowledged frames are dropped and the
    /// rest restamped. `hello_rtt` is the handshake's round trip on the
    /// *first* connection only: it seeds the estimator, and the frames
    /// enqueued while dialling — still queued at the caller, never on
    /// a wire — go out as the first transmissions they are, so nothing
    /// is returned. A reconnect passes `None` (its handshake includes
    /// accept latency) and gets the whole unseen tail back to write at
    /// once, in place of whatever it had queued: a counted resync.
    pub fn on_hello(&mut self, peer_expected: u64, hello_rtt: Option<u64>, now: u64) -> Vec<Frame> {
        // What a handshake acknowledges times nothing: no sample.
        self.unacked.drain(..self.below(peer_expected));
        for f in &mut self.unacked {
            f.sent_at = now;
            f.resent = hello_rtt.is_none();
        }
        if let Some(rtt) = hello_rtt {
            self.sample(rtt);
            return Vec::new();
        }
        self.resyncs += 1;
        self.retransmits += self.unacked.len() as u64;
        self.unacked.iter().map(|f| f.frame.clone()).collect()
    }
}

/// Receiving half of a reliable link: in-order delivery, out-of-order
/// stashing, duplicate discard, and the `(cum, held)` an ACK reports.
#[derive(Debug, Default)]
pub struct ReceiverLink {
    /// Next sequence number to deliver.
    expected: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    stash: BTreeMap<u64, (u64, Vec<u8>)>,
    /// Duplicate DATA frames discarded.
    pub dups: u64,
}

impl ReceiverLink {
    /// A fresh receiver expecting sequence 0.
    pub fn new() -> ReceiverLink {
        ReceiverLink::default()
    }

    /// Next sequence this receiver expects — the cumulative ack value,
    /// and what a HELLO reply advertises for resync.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Lowest sequence held out of order — the ACK's gap report;
    /// equals [`Self::expected`] when nothing is stashed.
    pub fn held(&self) -> u64 {
        self.stash.keys().next().copied().unwrap_or(self.expected)
    }

    /// Processes one DATA frame. Returns the newly deliverable
    /// `(depth, payload)` messages in order (empty for duplicates and
    /// gap-leaving arrivals). The caller acks with [`Self::expected`]
    /// and [`Self::held`] afterwards regardless.
    pub fn on_data(&mut self, frame: Data) -> Vec<(u64, Vec<u8>)> {
        if frame.seq < self.expected || self.stash.contains_key(&frame.seq) {
            self.dups += 1;
            return Vec::new();
        }
        self.stash.insert(frame.seq, (frame.depth, frame.payload));
        let mut out = Vec::new();
        while let Some(msg) = self.stash.remove(&self.expected) {
            out.push(msg);
            self.expected += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultConfig, FaultPlan};
    use crate::frame::{demux_frame, NetFrame};

    fn sender(max_unacked: usize) -> SenderLink {
        SenderLink::new(LinkConfig { max_unacked })
    }

    fn payload(b: u8) -> Vec<u8> {
        vec![b; 3]
    }

    fn data(f: &Frame) -> Data {
        match demux_frame(f).expect("sender frames decode") {
            NetFrame::Data(d) => d,
            other => panic!("not a DATA frame: {other:?}"),
        }
    }

    fn seqs(frames: &[Frame]) -> Vec<u64> {
        frames.iter().map(|f| data(f).seq).collect()
    }

    /// Enqueues `n` frames at `now` and returns them.
    fn send(tx: &mut SenderLink, n: u8, now: u64) -> Vec<Frame> {
        (0..n)
            .map(|i| tx.enqueue(1, payload(i), now).expect("window has room"))
            .collect()
    }

    /// A link past its first flight: handshake sampled, an ACK heard.
    fn warm(max_unacked: usize, hello_rtt: u64) -> SenderLink {
        let mut tx = sender(max_unacked);
        tx.on_hello(0, Some(hello_rtt), 0);
        assert!(tx.on_ack(0, 0, 0).is_empty());
        tx
    }

    /// One frame out at `*now`, acknowledged `rtt` later.
    fn round_trip(tx: &mut SenderLink, now: &mut u64, rtt: u64) {
        tx.enqueue(1, payload(0), *now).unwrap();
        *now += rtt;
        assert!(tx.on_ack(tx.next_seq(), tx.next_seq(), *now).is_empty());
    }

    #[test]
    fn in_order_flow_never_resends() {
        let mut tx = sender(4);
        let mut rx = ReceiverLink::new();
        for i in 0..3u8 {
            let f = tx.enqueue(1, payload(i), 10).unwrap();
            assert_eq!(rx.on_data(data(&f)).len(), 1);
            assert_eq!(rx.held(), rx.expected(), "no hole to report");
            assert!(tx.on_ack(rx.expected(), rx.held(), 900).is_empty());
        }
        assert_eq!(tx.retransmits, 0);
        assert_eq!(tx.window_len(), 0);
        assert_eq!(rx.dups, 0);
        // Timer disarmed: nothing to probe for, however late.
        assert_eq!(tx.deadline(), None);
        assert!(tx.on_timer(u64::MAX).is_none());
    }

    #[test]
    fn estimator_converges_and_shapes_the_rto() {
        let mut tx = sender(4);
        let mut now = 0;
        // Nothing heard yet: the ceiling.
        assert_eq!((tx.srtt, tx.rto_us()), (0, RTO_MAX_US));
        // First sample R: SRTT = R, RTTVAR = R/2, RTO = R + 4·R/2.
        round_trip(&mut tx, &mut now, 5_000);
        assert_eq!((tx.srtt, tx.rto_us()), (5_000, 15_000));
        // A steady path: RTTVAR decays, RTO closes in on SRTT.
        for _ in 0..40 {
            round_trip(&mut tx, &mut now, 5_000);
        }
        assert_eq!(tx.srtt, 5_000);
        assert!((5_000..5_100).contains(&tx.rto_us()), "{}", tx.rto_us());
        // A path that alternates 5/15 ms: SRTT near 10, RTTVAR near 5.
        for i in 0..200 {
            round_trip(&mut tx, &mut now, if i % 2 == 0 { 5_000 } else { 15_000 });
        }
        assert!((9_000..11_000).contains(&tx.srtt), "{}", tx.srtt);
        assert!((25_000..35_000).contains(&tx.rto_us()), "{}", tx.rto_us());
        // Loopback speed: the floor holds. A second per trip: the ceiling.
        for _ in 0..100 {
            round_trip(&mut tx, &mut now, 300);
        }
        assert_eq!(tx.rto_us(), RTO_MIN_US);
        for _ in 0..100 {
            round_trip(&mut tx, &mut now, 1_000_000);
        }
        assert_eq!(tx.rto_us(), RTO_MAX_US);
    }

    #[test]
    fn frames_acknowledged_late_behind_a_hole_time_nothing() {
        // Trap (a). Frame 0 is lost, 1..4 wait in the receiver's stash;
        // when 0 finally lands the ACK covers five frames of which four
        // were never resent — and every one of them is ~50 ms old.
        let mut tx = warm(8, 500);
        let mut now = 1_000;
        send(&mut tx, 5, now);
        now += 500;
        assert_eq!(seqs(&tx.on_ack(0, 1, now)), [0], "repair, lost again");
        while now < 50_000 {
            now = tx.deadline().unwrap();
            assert_eq!(seqs(&[tx.on_timer(now).unwrap()]), [0]);
        }
        assert!(tx.on_ack(5, 5, now + 500).is_empty());
        assert_eq!(tx.srtt, 500, "a run holding a resent frame is no sample");
        // The same ACK for a run that was never resent is one.
        send(&mut tx, 5, now);
        tx.on_ack(10, 10, now + 4_500);
        assert_eq!(tx.srtt, 1_000, "7/8 · 500 + 1/8 · 4 500");
    }

    #[test]
    fn reported_hole_is_resent_exactly_and_once_per_srtt() {
        let mut tx = warm(16, 800);
        send(&mut tx, 7, 100);
        // The receiver has 0, 1 and holds 5: it misses exactly 2, 3, 4.
        assert_eq!(seqs(&tx.on_ack(2, 5, 900)), [2, 3, 4]);
        assert_eq!(tx.retransmits, 3);
        // ACKs written before the repair landed repeat the report:
        // nothing goes out twice within one smoothed RTT…
        assert!(tx.on_ack(2, 5, 1_000).is_empty());
        assert!(tx.on_ack(2, 5, 900 + tx.srtt - 1).is_empty());
        // …and after it the repair counts as lost, and goes again.
        assert_eq!(seqs(&tx.on_ack(2, 5, 900 + tx.srtt)), [2, 3, 4]);
        // Part of it lands: only what is still missing is repaired, and
        // neither 5 (reported held) nor 6 (unknown) was ever resent.
        assert_eq!(seqs(&tx.on_ack(4, 5, 5_000)), [4]);
        assert!(tx.on_ack(7, 7, 6_000).is_empty());
        assert_eq!((tx.retransmits, tx.window_len()), (7, 0));
    }

    #[test]
    fn timeout_without_evidence_sends_one_probe_per_rto() {
        let mut tx = warm(64, 1_000);
        send(&mut tx, 40, 0);
        let rto = tx.rto_us();
        assert_eq!(rto, 3_000, "SRTT 1 000 + 4 · RTTVAR 500");
        // Every ACK is lost. Before the deadline: nothing.
        assert_eq!(tx.deadline(), Some(rto));
        assert!(tx.on_timer(rto - 1).is_none());
        // At it, and at every span after it: the oldest frame alone, not
        // a burst, and the span stays what the estimate says.
        for firing in 1..=14 {
            let now = firing * rto;
            assert_eq!(seqs(&[tx.on_timer(now).unwrap()]), [0]);
            assert!(tx.on_timer(now).is_none(), "re-armed, not re-fired");
            assert_eq!(tx.deadline(), Some(now + rto));
        }
        assert_eq!(tx.retransmits, 14, "one frame per firing");
        // The probe's ACK is the evidence: frames 0..40 all missing but
        // for… nothing held, so nothing more is guessed at, and the
        // estimate is untouched (the acknowledged frame had been resent).
        assert!(tx.on_ack(1, 1, 14 * rto + 10).is_empty());
        assert_eq!(tx.rto_us(), rto);
        assert_eq!(tx.deadline(), Some(rto), "frame 1 was last sent at 0");
    }

    #[test]
    fn receiver_dedups_reorders_and_reports_its_hole() {
        let mut tx = sender(4);
        let frames = send(&mut tx, 4, 0);
        let [f0, f1, f2, f3] = [0, 1, 2, 3].map(|i| data(&frames[i]));
        let mut rx = ReceiverLink::new();
        // f1 and f3 arrive early: stashed, nothing deliverable.
        assert!(rx.on_data(f3.clone()).is_empty());
        assert!(rx.on_data(f1.clone()).is_empty());
        assert_eq!((rx.expected(), rx.held()), (0, 1), "misses exactly 0");
        // A duplicate of a stashed frame: counted, still nothing.
        assert!(rx.on_data(f1.clone()).is_empty());
        assert_eq!(rx.dups, 1);
        // f0 fills the gap: 0 and 1 deliver in order; now 2 is missing.
        let got = rx.on_data(f0.clone());
        assert_eq!(got.len(), 2);
        assert_eq!((&got[0].1, &got[1].1), (&payload(0), &payload(1)));
        assert_eq!((rx.expected(), rx.held()), (2, 3));
        // Stale resends of delivered frames are dup-dropped.
        assert!(rx.on_data(f0).is_empty());
        assert!(rx.on_data(f1).is_empty());
        assert_eq!(rx.dups, 3);
        // The tail still flows.
        assert_eq!(rx.on_data(f2).len(), 2);
        assert_eq!((rx.expected(), rx.held()), (4, 4));
        assert!(rx.on_data(f3).is_empty());
    }

    #[test]
    fn bounded_outbox_surfaces_peer_down() {
        let mut tx = sender(4);
        send(&mut tx, 4, 0);
        // Window full (max_unacked = 4): the masking stops.
        assert!(tx.enqueue(1, payload(9), 0).is_none());
        assert!(tx.enqueue(1, payload(9), 0).is_none());
        assert_eq!(tx.overflow_dropped, 2);
        // Sequence numbers were NOT consumed by the drops.
        assert_eq!(tx.next_seq(), 4);
        // Peer comes back: the window drains and sending resumes.
        tx.on_ack(4, 4, 100);
        assert!(tx.enqueue(1, payload(10), 100).is_some());
    }

    #[test]
    fn first_hello_seeds_the_estimator_and_stamps_the_window_uncounted() {
        // Frames queued while the link was still dialling were never on
        // a wire: the HELLO reply stamps them as the first sends they
        // are (the caller still has them queued: nothing is returned).
        let mut tx = sender(8);
        send(&mut tx, 3, 0);
        assert!(tx.on_hello(0, Some(700), 9_000).is_empty());
        assert_eq!((tx.retransmits, tx.resyncs, tx.window_len()), (0, 0, 3));
        assert_eq!(tx.srtt, 700);
        // The handshake is no ACK latency: the first flight is timed at
        // the ceiling, whatever the sample says…
        assert_eq!(tx.deadline(), Some(9_000 + RTO_MAX_US));
        assert!(tx.on_timer(9_000 + RTO_MAX_US - 1).is_none());
        // …while a loss in it that something follows is repaired at
        // once all the same; and with an ACK heard the estimate rules.
        assert_eq!(seqs(&tx.on_ack(0, 1, 9_900)), [0]);
        assert_eq!(tx.deadline(), Some(9_900 + 700 + 4 * 350));
        // The flight's ACK is a sample like any other.
        tx.on_ack(1, 1, 10_000); // covers the resent frame: none
        tx.on_ack(3, 3, 10_600);
        assert_eq!(tx.srtt, 7 * 700 / 8 + 1_600 / 8);
    }

    #[test]
    fn without_a_sample_the_floor_paces_the_repairs() {
        // The first connection died before its HELLO reply: no sample,
        // and repeated gap reports must still not resend per report.
        let mut tx = sender(8);
        send(&mut tx, 3, 0);
        assert_eq!(seqs(&tx.on_hello(0, None, 5_000)), [0, 1, 2]);
        assert!(tx.on_ack(0, 2, 5_400).is_empty(), "resync in flight");
        assert!(tx.on_ack(0, 2, 5_000 + RTO_MIN_US - 1).is_empty());
        assert_eq!(seqs(&tx.on_ack(0, 2, 5_000 + RTO_MIN_US)), [0, 1]);
        assert!(tx.on_ack(0, 2, 5_000 + RTO_MIN_US + 1).is_empty());
        assert_eq!(tx.srtt, 0);
    }

    #[test]
    fn reconnect_puts_the_whole_unseen_tail_back_at_once_and_times_nothing() {
        let mut tx = warm(64, 600);
        send(&mut tx, 40, 100);
        // One timeout: one probe.
        tx.on_timer(tx.deadline().unwrap()).unwrap();
        // Connection dies; the peer's HELLO on reconnect says it has
        // 0..3. The handshake took 30 ms (accept latency included).
        let tail = tx.on_hello(3, None, 30_000);
        assert_eq!(seqs(&tail), (3..40).collect::<Vec<_>>(), "no burst cap");
        assert_eq!(
            (tx.resyncs, tx.retransmits, tx.window_len()),
            (1, 1 + 37, 37)
        );
        // Neither the handshake nor the frames it acknowledged (never
        // resent, 30 ms old) nor the resent tail feed the estimator.
        tx.on_ack(40, 40, 31_000);
        assert_eq!(tx.srtt, 600);
        assert_eq!(tx.rto_us(), 600 + 4 * 300);
        // A peer that has everything gets nothing.
        send(&mut tx, 1, 40_000);
        assert!(tx.on_hello(41, None, 50_000).is_empty());
        assert_eq!((tx.resyncs, tx.retransmits), (2, 38));
        assert_eq!(tx.deadline(), None);
    }

    // -----------------------------------------------------------------
    // Both halves over a virtual-clock pipe that loses what a
    // `FaultPlan` says it loses.
    // -----------------------------------------------------------------

    /// One-way latency of the chaos pipe (a loopback-sized round trip,
    /// under the RTO floor) and the handshake time of a redial.
    const ONE_WAY: u64 = 400;
    const RTT: u64 = 2 * ONE_WAY;
    const REDIAL: u64 = 1_500;

    enum Ev {
        /// The application hands the sender a burst of messages.
        Burst(u64),
        /// A DATA frame reaches the receiver.
        Data(Frame),
        /// An ACK written on connection `.0` reaches the sender.
        Ack(u64, u64, u64),
        /// The HELLO reply of a redial reaches the sender.
        Hello,
    }

    /// One write through the injector, as the checks below read it.
    struct Write {
        seq: u64,
        at: u64,
        verdict: FaultAction,
        /// First transmission.
        first: bool,
        rto: u64,
    }

    struct Pipe {
        tx: SenderLink,
        rx: ReceiverLink,
        now: u64,
        events: BTreeMap<(u64, u64), Ev>,
        scheduled: u64,
        one_way: u64,
        verdict: Box<dyn Fn(u64) -> FaultAction>,
        /// Extra time the k-th ACK waits before it is written.
        ack_wait: Box<dyn Fn(u64) -> u64>,
        parked: Option<Frame>,
        /// Connection generation; `up` is false between a reset and the
        /// HELLO reply of the redial.
        conn: u64,
        up: bool,
        writes: Vec<Write>,
        /// First arrival time per sequence, and payloads as delivered.
        arrived: BTreeMap<u64, u64>,
        delivered: Vec<u64>,
    }

    impl Pipe {
        fn new(
            one_way: u64,
            verdict: impl Fn(u64) -> FaultAction + 'static,
            ack_wait: impl Fn(u64) -> u64 + 'static,
        ) -> Pipe {
            let mut tx = sender(4_096);
            tx.on_hello(0, Some(2 * one_way), 0);
            Pipe {
                tx,
                rx: ReceiverLink::new(),
                now: 0,
                events: BTreeMap::new(),
                scheduled: 0,
                one_way,
                verdict: Box::new(verdict),
                ack_wait: Box::new(ack_wait),
                parked: None,
                conn: 0,
                up: true,
                writes: Vec::new(),
                arrived: BTreeMap::new(),
                delivered: Vec::new(),
            }
        }

        fn at(&mut self, when: u64, ev: Ev) {
            self.scheduled += 1;
            self.events.insert((when, self.scheduled), ev);
        }

        /// The poller's injector, on virtual time.
        fn write(&mut self, f: Frame, first: bool) {
            if !self.up {
                return; // the resync after the redial carries it
            }
            let verdict = (self.verdict)(self.writes.len() as u64);
            self.writes.push(Write {
                seq: data(&f).seq,
                at: self.now,
                verdict,
                first,
                rto: self.tx.rto_us(),
            });
            let mut out = Vec::new();
            match verdict {
                FaultAction::Deliver => out.push(f),
                FaultAction::Drop => {}
                FaultAction::Duplicate => out.extend([f.clone(), f]),
                FaultAction::Delay => {
                    out.extend(self.parked.replace(f));
                }
                FaultAction::Reset => {
                    self.up = false;
                    self.parked = None;
                    self.at(self.now + REDIAL, Ev::Hello);
                    return;
                }
            }
            if !out.is_empty() {
                out.extend(self.parked.take());
            }
            for f in out {
                self.at(self.now + self.one_way, Ev::Data(f));
            }
        }

        /// Runs until nothing is scheduled and nothing is outstanding.
        fn run(&mut self) {
            loop {
                let next = self.events.keys().next().map(|&(at, _)| at);
                let timer = self.tx.deadline().filter(|_| self.up);
                match (next, timer) {
                    (None, None) => return,
                    (ev, Some(t)) if ev.is_none_or(|e| t < e) => {
                        self.now = t;
                        let probe = self.tx.on_timer(t).expect("deadline is exact");
                        self.write(probe, false);
                    }
                    _ => {
                        let ((at, _), ev) = self.events.pop_first().unwrap();
                        self.now = at;
                        self.step(ev);
                    }
                }
                assert!(self.now < 60_000_000, "pipe did not drain in a minute");
            }
        }

        fn step(&mut self, ev: Ev) {
            match ev {
                Ev::Burst(n) => {
                    for _ in 0..n {
                        let id = self.tx.next_seq().to_le_bytes().to_vec();
                        let f = self.tx.enqueue(1, id, self.now).unwrap();
                        self.write(f, true);
                    }
                }
                Ev::Data(f) => {
                    let d = data(&f);
                    self.arrived.entry(d.seq).or_insert(self.now);
                    for (_, p) in self.rx.on_data(d) {
                        self.delivered
                            .push(u64::from_le_bytes(p.try_into().unwrap()));
                    }
                    let ack = Ev::Ack(self.conn, self.rx.expected(), self.rx.held());
                    let wait = (self.ack_wait)(self.scheduled);
                    self.at(self.now + wait + self.one_way, ack);
                }
                // An ACK of a connection that has died reaches nobody.
                Ev::Ack(conn, cum, held) if conn == self.conn && self.up => {
                    for f in self.tx.on_ack(cum, held, self.now) {
                        self.write(f, false);
                    }
                }
                Ev::Ack(..) => {}
                Ev::Hello => {
                    self.conn += 1;
                    self.up = true;
                    for f in self.tx.on_hello(self.rx.expected(), None, self.now) {
                        self.write(f, false);
                    }
                }
            }
        }

        /// The first later write of the frame written at `i`, if the
        /// connection `i` was written on lived that long.
        fn repair_of(&self, i: usize) -> Option<&Write> {
            let later = self.writes.get(i + 1..)?;
            let repair = later.iter().position(|w| w.seq == self.writes[i].seq)?;
            let reset = |w: &Write| w.verdict == FaultAction::Reset;
            (!later[..=repair].iter().any(reset)).then(|| &later[repair])
        }
    }

    /// Bursts of 1–4 messages, `every` µs apart.
    fn bursty(pipe: &mut Pipe, bursts: u64, every: u64) -> u64 {
        let mut total = 0;
        for b in 0..bursts {
            let n = 1 + (b * 7 + b / 3) % 4;
            pipe.at(1_000 + b * every, Ev::Burst(n));
            total += n;
        }
        total
    }

    #[test]
    fn chaos_pipe_delivers_once_in_order_and_repairs_on_evidence_or_one_rto() {
        let arrives = |v| matches!(v, FaultAction::Deliver | FaultAction::Duplicate);
        let (mut by_gap, mut by_timer) = (0, 0);
        for seed in [1, 2, 3, 0xC0DE, 0xBEEF, 101] {
            let plan = FaultPlan::new(seed, FaultConfig::chaos());
            let mut pipe = Pipe::new(ONE_WAY, move |idx| plan.action(0, 1, idx), |_| 0);
            // 5 ms apart, well past an RTO: every burst has a tail that
            // only the timer can repair.
            let total = bursty(&mut pipe, 300, 5_000);
            pipe.run();
            let want: Vec<u64> = (0..total).collect();
            assert_eq!(pipe.delivered, want, "seed {seed}: once, in order");
            assert_eq!(pipe.tx.window_len(), 0);

            for (i, w) in pipe.writes.iter().enumerate() {
                // A first transmission lost, alone: the writes before it
                // and its repair arrive. (An ACK reports the *first*
                // hole; a second one waits its turn.)
                let before = &pipe.writes[i.saturating_sub(4)..i];
                let alone = w.first
                    && w.verdict == FaultAction::Drop
                    && before.iter().all(|b| arrives(b.verdict));
                let Some(repair) = pipe.repair_of(i).filter(|r| alone && arrives(r.verdict)) else {
                    continue;
                };
                let arrived = pipe.arrived[&w.seq];
                let next = &pipe.writes[i + 1];
                if next.first && next.at == w.at && next.seq == w.seq + 1 && arrives(next.verdict) {
                    // A loss followed by another frame: the hole is
                    // reported and repaired, two round trips all told.
                    assert!(
                        arrived <= w.at + 2 * RTT,
                        "seed {seed}: seq {} written {} arrived {arrived}",
                        w.seq,
                        w.at
                    );
                    by_gap += 1;
                } else if repair.at > w.at + RTT {
                    // A tail loss: nothing follows to expose it, so
                    // the timer's probe does, one RTO after the write.
                    assert!(
                        arrived <= w.at + w.rto + ONE_WAY,
                        "seed {seed}: seq {} written {} (rto {}) arrived {arrived}",
                        w.seq,
                        w.at,
                        w.rto
                    );
                    by_timer += 1;
                }
            }
        }
        assert!(by_gap >= 10 && by_timer >= 10, "{by_gap} / {by_timer}");
    }

    #[test]
    fn fault_free_pipe_with_jittered_acks_resends_nothing() {
        // A 10 ms path (so the floor decides nothing) whose ACKs wait
        // a further 0–5 ms for a CPU, seeded: round trips of 10–15 ms.
        let plan = FaultPlan::new(7, FaultConfig::chaos());
        let wait = move |k: u64| match plan.action(1, 0, k) {
            FaultAction::Deliver => (k * 7_919) % 5_000,
            _ => 5_000,
        };
        let mut pipe = Pipe::new(5_000, |_| FaultAction::Deliver, wait);
        let total = bursty(&mut pipe, 1_000, 7_000);
        pipe.run();
        assert_eq!(pipe.delivered.len() as u64, total);
        assert_eq!((pipe.tx.retransmits, pipe.rx.dups), (0, 0));
        assert!((11_000..14_000).contains(&pipe.tx.srtt));
    }
}
