//! Message and byte accounting.
//!
//! The paper's complexity claims are stated as messages *per process*
//! (Sections 5.1.3, 8.1) or per decision (6.4), sometimes distinguishing
//! message size (Section 8 trades O(n²) messages for O(n²)-sized ones).
//! [`Metrics`] tracks sends per process and per message kind, plus bytes
//! as each message's [`Wire`] encoding counts them.

use crate::process::ProcessId;
use bgla_codec::Wire;
use std::collections::BTreeMap;

/// Implemented by simulation message types so the harness can meter them:
/// `kind` buckets counters (e.g. `"ack_req"`, `"rb_echo"`).
///
/// Two rules make the simulator's byte counts a socket's:
///
/// * **Bytes are the encoding.** A send costs [`Wire::wire_size`], the
///   length of the message's encoding, counted without building it.
/// * **A broadcast meters `n` sends**, the copy to self included — though
///   a transport hands that copy over without a socket.
///
/// The simulator sizes a fan-out once: the clones a
/// [`crate::Context::broadcast`] or [`crate::Context::multicast`] queues
/// are one message, so it calls `kind` and `wire_size` for the first and
/// records the run as that many sends of that size. The counters read
/// exactly as if each copy had been sized and recorded on its own, which
/// is what a host that takes or drains an outbox and sends message by
/// message gets.
pub trait WireMessage: Wire + Clone + Send {
    /// Counter bucket for this message.
    fn kind(&self) -> &'static str;
}

/// Per-run message accounting, filled in by the simulator on every send.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Messages sent, indexed by sender.
    pub sent_by: Vec<u64>,
    /// Bytes sent, indexed by sender.
    pub bytes_by: Vec<u64>,
    /// Messages sent per kind (whole system).
    pub sent_by_kind: BTreeMap<&'static str, u64>,
    /// Bytes sent per kind (whole system).
    pub bytes_by_kind: BTreeMap<&'static str, u64>,
    /// Total deliveries performed.
    pub delivered: u64,
    /// Largest single message observed, in bytes.
    pub max_message_bytes: usize,
    /// Transport frames written to a real wire (DATA/ACK/HELLO), first
    /// transmissions and retransmissions alike. Zero under the
    /// simulator, which has no frame layer.
    pub net_frames: u64,
    /// *Measured* bytes written to a real wire: the serialized frame
    /// sizes, including codec framing overhead and retransmissions.
    pub net_frame_bytes: u64,
    /// DATA frames retransmitted after an ack timeout (the masking path
    /// for dropped or reset frames).
    pub net_retransmits: u64,
    /// Duplicate DATA frames discarded by receive-side dedup (injected
    /// duplicates and spurious retransmissions).
    pub net_dup_frames: u64,
    /// Connection (re)establishments after a reset or partition —
    /// counts the backoff/resync masking path, not the first dial.
    pub net_reconnects: u64,
    /// Protocol messages dropped because a peer stayed down past the
    /// bounded outbox horizon — the one fault the transport *surfaces*
    /// instead of masking (see `bgla_net`'s reliability contract).
    pub net_outbox_dropped: u64,
}

impl Metrics {
    /// Zeroed accounting for an `n`-process system. Public so real
    /// transports (which meter their own sends) can build one; the
    /// simulator builds its own.
    pub fn new(n: usize) -> Self {
        Metrics {
            sent_by: vec![0; n],
            bytes_by: vec![0; n],
            sent_by_kind: BTreeMap::new(),
            bytes_by_kind: BTreeMap::new(),
            delivered: 0,
            max_message_bytes: 0,
            net_frames: 0,
            net_frame_bytes: 0,
            net_retransmits: 0,
            net_dup_frames: 0,
            net_reconnects: 0,
            net_outbox_dropped: 0,
        }
    }

    /// Accounts one protocol-message send. The simulator calls this on
    /// every outbound message; a real transport calls it too (public
    /// for that reason), so per-kind counters stay comparable across
    /// runtimes.
    pub fn record_send(&mut self, from: ProcessId, kind: &'static str, bytes: usize) {
        self.record_sends(from, kind, 1, bytes as u64, bytes);
    }

    /// Accounts `count` sends of one kind by `from` at once: `bytes` in
    /// all, the largest of them `max` bytes. Equal to
    /// [`Metrics::record_send`] applied to each of them; the simulator
    /// folds each run of same-kind sends of an event into one call.
    pub fn record_sends(
        &mut self,
        from: ProcessId,
        kind: &'static str,
        count: u64,
        bytes: u64,
        max: usize,
    ) {
        self.sent_by[from] += count;
        self.bytes_by[from] += bytes;
        *self.sent_by_kind.entry(kind).or_insert(0) += count;
        *self.bytes_by_kind.entry(kind).or_insert(0) += bytes;
        self.max_message_bytes = self.max_message_bytes.max(max);
    }

    /// Total messages sent across all processes.
    pub fn total_sent(&self) -> u64 {
        self.sent_by.iter().sum()
    }

    /// Total bytes sent across all processes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by.iter().sum()
    }

    /// Messages sent by one process.
    pub fn sent_by_process(&self, p: ProcessId) -> u64 {
        self.sent_by[p]
    }

    /// Maximum messages sent by any single process — the paper's
    /// "per process" complexity measure.
    pub fn max_sent_per_process(&self) -> u64 {
        self.sent_by.iter().copied().max().unwrap_or(0)
    }

    /// Messages sent by processes in `set` only (e.g. correct ones).
    pub fn sent_by_subset(&self, set: &[ProcessId]) -> u64 {
        set.iter().map(|&p| self.sent_by[p]).sum()
    }

    /// Folds another run's accounting into this one — used by
    /// `TcpRuntime::metrics_snapshot` to fold its nodes' counters into one,
    /// and by the `e2e` benchmark to pool its per-trial runs. Runs with
    /// different process counts are aligned by index.
    pub fn merge(&mut self, other: &Metrics) {
        let Metrics {
            sent_by,
            bytes_by,
            sent_by_kind,
            bytes_by_kind,
            delivered,
            max_message_bytes,
            net_frames,
            net_frame_bytes,
            net_retransmits,
            net_dup_frames,
            net_reconnects,
            net_outbox_dropped,
        } = other;
        if sent_by.len() > self.sent_by.len() {
            self.sent_by.resize(sent_by.len(), 0);
            self.bytes_by.resize(bytes_by.len(), 0);
        }
        for (p, &v) in sent_by.iter().enumerate() {
            self.sent_by[p] += v;
        }
        for (p, &v) in bytes_by.iter().enumerate() {
            self.bytes_by[p] += v;
        }
        for (&k, &v) in sent_by_kind {
            *self.sent_by_kind.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in bytes_by_kind {
            *self.bytes_by_kind.entry(k).or_insert(0) += v;
        }
        self.delivered += delivered;
        self.max_message_bytes = self.max_message_bytes.max(*max_message_bytes);
        self.net_frames += net_frames;
        self.net_frame_bytes += net_frame_bytes;
        self.net_retransmits += net_retransmits;
        self.net_dup_frames += net_dup_frames;
        self.net_reconnects += net_reconnects;
        self.net_outbox_dropped += net_outbox_dropped;
    }
}

/// The message of the unit tests' toy processes.
impl WireMessage for u64 {
    fn kind(&self) -> &'static str {
        "u64"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut m = Metrics::new(3);
        m.record_send(0, "a", 10);
        m.record_send(0, "b", 20);
        m.record_send(2, "a", 5);
        assert_eq!(m.total_sent(), 3);
        assert_eq!(m.total_bytes(), 35);
        assert_eq!(m.sent_by_process(0), 2);
        assert_eq!(m.max_sent_per_process(), 2);
        assert_eq!(m.sent_by_kind["a"], 2);
        assert_eq!(m.bytes_by_kind["b"], 20);
        assert_eq!(m.max_message_bytes, 20);
        assert_eq!(m.sent_by_subset(&[0, 1]), 2);
    }

    /// Merging is associative and the empty Metrics is the identity —
    /// what lets the TCP runtime fold per-node counters, and the `e2e`
    /// benchmark per-trial runs, in any grouping.
    #[test]
    fn merge_is_associative_with_identity() {
        let mk = |from: usize, bytes: usize, delivered: u64| {
            let mut m = Metrics::new(from + 1);
            m.record_send(from, "ack_req", bytes);
            m.delivered = delivered;
            m
        };
        let (a, b, c) = (mk(0, 10, 6), mk(1, 20, 9), mk(2, 30, 12));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge is not associative");

        let mut with_identity = Metrics::default();
        with_identity.merge(&left);
        assert_eq!(with_identity, left, "empty Metrics is not the identity");
    }

    #[test]
    fn merge_aggregates_runs() {
        let mut a = Metrics::new(2);
        a.record_send(0, "a", 10);
        a.delivered = 1;
        let mut b = Metrics::new(3);
        b.record_send(2, "a", 30);
        b.record_send(1, "b", 5);
        b.delivered = 2;
        a.merge(&b);
        assert_eq!(a.sent_by, vec![1, 1, 1]);
        assert_eq!(a.total_bytes(), 45);
        assert_eq!(a.sent_by_kind["a"], 2);
        assert_eq!(a.delivered, 3);
        assert_eq!(a.max_message_bytes, 30);
    }
}
