//! Delivery schedulers — the *network adversary*.
//!
//! In the asynchronous model the network chooses, at every step, which
//! in-flight message to deliver next, subject only to reliability (every
//! message is eventually delivered). A [`Scheduler`] is exactly that
//! choice function. The algorithms must satisfy their specifications under
//! **every** scheduler; the test-suite exercises FIFO, seeded-random,
//! bounded-delay and targeted/starving adversaries.
//!
//! # The incremental scheduler contract
//!
//! Schedulers are *incremental*: instead of rescanning the full in-flight
//! set on every step (O(in-flight) per delivery), the engine streams
//! membership changes through hooks and each scheduler maintains its own
//! index, so a delivery step costs O(log n) or amortized O(1):
//!
//! * [`Scheduler::on_send`] — a message entered flight. Its
//!   [`EnvelopeId`] is stable until the matching `on_delivered`; the
//!   engine reuses ids afterwards (slab slots). Outside of a
//!   [`Scheduler::reset`]-triggered re-feed, `on_send` is invoked in
//!   strictly increasing `seq` order.
//! * [`Scheduler::choose`] — pick the next envelope among those sent and
//!   not yet delivered. Called exactly once per delivery; stateful
//!   schedulers (e.g. seeded RNGs) may advance their state here.
//! * [`Scheduler::on_delivered`] — the engine removed the envelope
//!   `choose` just returned. Always called with that exact id, so eager
//!   structures can simply pop. Wrapping schedulers forward it only for
//!   ids their inner scheduler has been fed.
//! * [`Scheduler::reset`] — drop all in-flight indexes (but keep
//!   time-independent state: RNG streams, recorded traces, phase flags).
//!   Wrappers use this to atomically re-partition their inner scheduler
//!   at phase changes (starvation release, partition heal) by resetting
//!   it and re-feeding every live message in `seq` order.
//!
//! **Fairness obligation.** Every message must eventually be chosen if
//! the run goes on long enough. All provided schedulers are fair by
//! construction; a custom scheduler must provide its own release valve
//! (see [`TargetedScheduler`] for the canonical pattern: starve freely,
//! but deliver the oldest starved message when nothing else is left).
//!
//! # Schedule search: exploration + shrinking
//!
//! [`SearchScheduler`] is the exploration half of the counterexample
//! pipeline: a seeded adversary that rotates through hostile delivery
//! *tactics* (oldest/newest/random picks, bounded reorder windows, and
//! hold-back windows keyed by message kind, sender, or receiver) in
//! windows whose lengths and parameters are all derived from the seed,
//! so one `u64` fully determines the schedule. The kind-targeted hold
//! windows are what flush out delta-encoding watermark bugs: delaying
//! every `ack`/`nack` while `ack_req` refinements race ahead drives the
//! `DeltaSender`/`DeltaReceiver` base-window edges (first contact, reply
//! watermarks, base eviction). Message *duplication* is deliberately not
//! a tactic — links in this model are reliable and exactly-once, so
//! duplication is a Byzantine *process* behavior (re-sending), not a
//! network power.
//!
//! The shrinking half lives with the checker (`bgla_core::search`): a
//! violating run is recorded through [`RecordingScheduler`], minimized
//! by replaying prefixes/subsets of the recorded schedule with
//! [`ReplayScheduler`] (whose unmatched-entry resync makes entry removal
//! safe), and reported as the seed plus the shrunk schedule — both
//! replayable on their own.

use crate::process::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
#[expect(
    clippy::disallowed_types,
    reason = "imported for the keyed-lookup maps below; iteration order is never observed"
)]
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

/// Stable handle to one in-flight envelope, assigned by the simulation's
/// slab store on send and retired (then reused) on delivery.
pub type EnvelopeId = usize;

/// Metadata about one undelivered message, visible to the scheduler.
/// (Content is deliberately *not* exposed: the network adversary acts on
/// routing information; content-aware attacks belong in Byzantine
/// *process* implementations, which see content legitimately.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Authenticated sender.
    pub from: ProcessId,
    /// Destination.
    pub to: ProcessId,
    /// Global send sequence number (unique, monotone).
    pub seq: u64,
    /// Value of the delivery counter when this message was sent.
    pub sent_at: u64,
    /// Message kind tag (copied from [`crate::WireMessage::kind`]).
    pub kind: &'static str,
}

/// Picks which in-flight message to deliver next, maintaining its own
/// incremental index of the in-flight set (see the module docs for the
/// full hook contract and fairness obligation).
pub trait Scheduler: Send {
    /// A message entered flight under the given (stable-until-delivery)
    /// id. Called in increasing `seq` order except during a post-`reset`
    /// re-feed, which is also in increasing `seq` order.
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId);

    /// Chooses the envelope to deliver next. `now` is the number of
    /// deliveries performed so far. Called exactly once per delivery,
    /// only when at least one message is in flight.
    fn choose(&mut self, now: u64) -> EnvelopeId;

    /// The engine delivered the envelope `choose` just returned; drop it
    /// from the index.
    fn on_delivered(&mut self, id: EnvelopeId);

    /// Drops all in-flight bookkeeping (keeping RNG streams, traces and
    /// phase flags) so a wrapper can re-feed the live set via `on_send`.
    fn reset(&mut self);

    /// Downcasting hook so harnesses can inspect scheduler state after a
    /// run (e.g. [`ReplayScheduler::divergences`]); implement as `self`,
    /// mirroring [`crate::Process::as_any`].
    fn as_any(&self) -> &dyn std::any::Any;
}

/// An insertion-ordered pool of envelope ids with O(log n) rank
/// selection ("the k-th oldest live entry") and amortized O(1) removal.
///
/// Backed by an append-only vector with tombstones and a Fenwick tree of
/// alive counts; compacts when more than half the entries are dead, so
/// memory stays O(live). Because the engine calls `on_send` in `seq`
/// order, insertion order *is* ascending-`seq` order — rank selection
/// therefore reproduces an index into the seq-sorted in-flight list,
/// which is what the golden traces pin for the random scheduler.
#[derive(Debug, Default)]
struct OrderedPool {
    /// (id, alive) in insertion order.
    entries: Vec<(EnvelopeId, bool)>,
    /// Fenwick tree over `entries`: prefix counts of alive entries.
    fenwick: Vec<i32>,
    /// Live id -> index into `entries` ([`ABSENT`] when not held),
    /// indexed by the slab's dense ids.
    pos_of: Vec<usize>,
    live: usize,
}

/// `pos_of` entry of an id the pool does not hold.
const ABSENT: usize = usize::MAX;

impl OrderedPool {
    fn len(&self) -> usize {
        self.live
    }

    fn fenwick_add(&mut self, mut i: usize, delta: i32) {
        // 1-based internally.
        i += 1;
        while i <= self.fenwick.len() {
            self.fenwick[i - 1] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Count of alive entries among the first `i` (1-based prefix).
    fn fenwick_prefix(&self, mut i: usize) -> i32 {
        let mut sum = 0;
        while i > 0 {
            sum += self.fenwick[i - 1];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    fn insert(&mut self, id: EnvelopeId) {
        let pos = self.entries.len();
        self.entries.push((id, true));
        // Appending node `i` (1-based): it covers `(i - lowbit(i), i]`,
        // so seed it with the alive count of the already-present part of
        // that range, plus one for the new entry.
        let i = pos + 1;
        let low = i & i.wrapping_neg();
        let init = self.fenwick_prefix(i - 1) - self.fenwick_prefix(i - low) + 1;
        self.fenwick.push(init);
        if self.pos_of.len() <= id {
            self.pos_of.resize(id + 1, ABSENT);
        }
        debug_assert_eq!(self.pos_of[id], ABSENT, "envelope id {id} inserted twice");
        self.pos_of[id] = pos;
        self.live += 1;
    }

    fn remove(&mut self, id: EnvelopeId) {
        let pos = self
            .pos_of
            .get_mut(id)
            .map_or(ABSENT, |pos| std::mem::replace(pos, ABSENT));
        assert!(
            pos != ABSENT,
            "removing an envelope id the pool does not hold"
        );
        self.entries[pos].1 = false;
        self.fenwick_add(pos, -1);
        self.live -= 1;
        if self.entries.len() > 64 && self.live * 2 <= self.entries.len() {
            self.compact();
        }
    }

    /// The id of the k-th oldest live entry (0-based).
    fn select(&self, k: usize) -> EnvelopeId {
        assert!(k < self.live, "rank {k} out of bounds (live {})", self.live);
        // Fenwick binary lifting: smallest prefix holding k+1 alive.
        let mut target = k as i32 + 1;
        let mut pos = 0usize; // 1-based prefix end
        let mut mask = self.fenwick.len().next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next <= self.fenwick.len() && self.fenwick[next - 1] < target {
                target -= self.fenwick[next - 1];
                pos = next;
            }
            mask >>= 1;
        }
        let (id, alive) = self.entries[pos];
        debug_assert!(alive);
        id
    }

    fn compact(&mut self) {
        self.entries.retain(|&(_, alive)| alive);
        self.fenwick = vec![0; self.entries.len()];
        for pos in 0..self.entries.len() {
            self.fenwick_add(pos, 1);
        }
        for (pos, &(id, _)) in self.entries.iter().enumerate() {
            self.pos_of[id] = pos;
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.fenwick.clear();
        self.pos_of.clear();
        self.live = 0;
    }
}

/// Delivers messages strictly in send order. The most benign network.
#[derive(Debug, Default)]
pub struct FifoScheduler {
    queue: VecDeque<EnvelopeId>,
}

impl FifoScheduler {
    /// A fresh FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn on_send(&mut self, _meta: &InFlight, id: EnvelopeId) {
        self.queue.push_back(id);
    }
    fn choose(&mut self, _now: u64) -> EnvelopeId {
        *self
            .queue
            .front()
            .expect("scheduler called with no in-flight messages")
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        let front = self.queue.pop_front();
        debug_assert_eq!(front, Some(id), "FIFO delivered a non-front envelope");
    }
    fn reset(&mut self) {
        self.queue.clear();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Delivers the *newest* in-flight message first — an aggressive
/// reordering adversary that starves old messages as long as fresh
/// traffic keeps arriving (fair because traffic is finite between
/// quiescent points).
#[derive(Debug, Default)]
pub struct LifoScheduler {
    stack: Vec<EnvelopeId>,
}

impl LifoScheduler {
    /// A fresh LIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LifoScheduler {
    fn on_send(&mut self, _meta: &InFlight, id: EnvelopeId) {
        self.stack.push(id);
    }
    fn choose(&mut self, _now: u64) -> EnvelopeId {
        *self
            .stack
            .last()
            .expect("scheduler called with no in-flight messages")
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "LIFO delivered a non-top envelope");
    }
    fn reset(&mut self) {
        self.stack.clear();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Delivers a uniformly random in-flight message. Unbounded reordering in
/// expectation; the workhorse for randomized schedule exploration. Fair
/// with probability 1.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
    pool: OrderedPool,
}

impl RandomScheduler {
    /// Seeded for reproducibility: the same seed yields the same run.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
            pool: OrderedPool::default(),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn on_send(&mut self, _meta: &InFlight, id: EnvelopeId) {
        self.pool.insert(id);
    }
    fn choose(&mut self, _now: u64) -> EnvelopeId {
        let k = self.rng.gen_range(0..self.pool.len());
        self.pool.select(k)
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        self.pool.remove(id);
    }
    fn reset(&mut self) {
        // The RNG stream survives: resets re-partition the in-flight
        // view, they do not restart the randomness.
        self.pool.clear();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Assigns each message a pseudo-random delay in `[0, max_skew]` derived
/// from its sequence number, then delivers in (virtual due time, seq)
/// order. Models a network with bounded per-message skew.
#[derive(Debug)]
pub struct DelayScheduler {
    seed: u64,
    /// Maximum extra reordering window, in delivery steps.
    pub max_skew: u64,
    /// Min-heap on (due time, seq).
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64, EnvelopeId)>>,
}

impl DelayScheduler {
    /// Creates a scheduler with the given seed and skew window.
    pub fn new(seed: u64, max_skew: u64) -> Self {
        DelayScheduler {
            seed,
            max_skew,
            heap: BinaryHeap::new(),
        }
    }

    fn delay_of(&self, seq: u64) -> u64 {
        if self.max_skew == 0 {
            return 0;
        }
        // splitmix64 — cheap, deterministic, well distributed.
        let mut z = seq
            .wrapping_add(self.seed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z % (self.max_skew + 1)
    }
}

impl Scheduler for DelayScheduler {
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId) {
        let due = meta.seq + self.delay_of(meta.seq);
        self.heap.push(std::cmp::Reverse((due, meta.seq, id)));
    }
    fn choose(&mut self, _now: u64) -> EnvelopeId {
        self.heap
            .peek()
            .expect("scheduler called with no in-flight messages")
            .0
             .2
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        let top = self.heap.pop();
        debug_assert_eq!(
            top.map(|std::cmp::Reverse((_, _, i))| i),
            Some(id),
            "delay scheduler delivered a non-due envelope"
        );
    }
    fn reset(&mut self) {
        self.heap.clear();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One hostile-delivery tactic of the [`SearchScheduler`], active for a
/// seed-derived window of deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchMode {
    /// Deliver the oldest in-flight message (FIFO-like calm phase).
    Oldest,
    /// Deliver the newest (LIFO-like aggressive reordering).
    Newest,
    /// Deliver uniformly at random.
    Random,
    /// Deliver randomly within the oldest `w`-message window (bounded
    /// reorder, like a skewed network).
    Window(usize),
    /// Hold back every message of one kind; oldest of the rest flows.
    HoldKind(&'static str),
    /// Hold back everything addressed *to* one process (starve its
    /// inbound replies/disclosures).
    HoldTo(ProcessId),
    /// Hold back everything *from* one process (its traffic arrives in
    /// a burst when the window ends).
    HoldFrom(ProcessId),
}

/// A seeded schedule-space explorer: rotates through hostile delivery
/// tactics (`SearchMode`) in windows whose lengths, targets and picks
/// all derive from the seed, so the whole schedule is a pure function
/// of `(seed, send sequence)` and any run it produces is replayable
/// from the seed alone. See the module docs for the exploration +
/// shrinking contract and for why duplication is not a tactic.
///
/// Fairness: hold tactics only bias selection among live messages — when
/// nothing but held traffic remains, the oldest held message is
/// delivered — and windows always expire, so every message is
/// eventually chosen.
///
/// Incremental contract: maintains seq-ordered `OrderedPool`s globally
/// and per kind / sender / receiver, so a delivery step costs
/// O(log n + #kinds) — never a scan of the in-flight set.
pub struct SearchScheduler {
    rng: StdRng,
    /// All live ids, insertion (= seq) order.
    pool: OrderedPool,
    /// Live metadata by id.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; the OrderedPools own every ordered walk"
    )]
    meta: HashMap<EnvelopeId, InFlight>,
    /// Live ids per message kind, seq order.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; the OrderedPools own every ordered walk"
    )]
    by_kind: HashMap<&'static str, OrderedPool>,
    /// Live ids per destination, seq order.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; the OrderedPools own every ordered walk"
    )]
    by_to: HashMap<ProcessId, OrderedPool>,
    /// Live ids per sender, seq order.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; the OrderedPools own every ordered walk"
    )]
    by_from: HashMap<ProcessId, OrderedPool>,
    /// Distinct kinds seen so far, in discovery order (deterministic:
    /// `on_send` order is deterministic).
    kinds_seen: Vec<&'static str>,
    /// Distinct process ids seen so far (senders and receivers).
    procs_seen: Vec<ProcessId>,
    mode: SearchMode,
    /// Deliveries left before the next tactic change.
    window_left: u64,
}

impl SearchScheduler {
    /// A fresh explorer; the same seed yields the same schedule.
    pub fn new(seed: u64) -> Self {
        SearchScheduler {
            rng: StdRng::seed_from_u64(seed ^ 0x05EA_2C45_C4ED_u64),
            pool: OrderedPool::default(),
            meta: Default::default(),
            by_kind: Default::default(),
            by_to: Default::default(),
            by_from: Default::default(),
            kinds_seen: Vec::new(),
            procs_seen: Vec::new(),
            mode: SearchMode::Oldest,
            window_left: 0,
        }
    }

    fn note_proc(&mut self, p: ProcessId) {
        if !self.procs_seen.contains(&p) {
            self.procs_seen.push(p);
        }
    }

    fn pick_mode(&mut self) -> SearchMode {
        match self.rng.gen_range(0..8u32) {
            0 => SearchMode::Oldest,
            1 => SearchMode::Newest,
            2 => SearchMode::Random,
            3 => SearchMode::Window(2 + self.rng.gen_range(0..15usize)),
            4 | 5 => {
                // Kind-targeted holds get double weight: they are the
                // tactic that drives delta watermark edges.
                let k = self.kinds_seen[self.rng.gen_range(0..self.kinds_seen.len())];
                SearchMode::HoldKind(k)
            }
            6 => {
                let p = self.procs_seen[self.rng.gen_range(0..self.procs_seen.len())];
                SearchMode::HoldTo(p)
            }
            _ => {
                let p = self.procs_seen[self.rng.gen_range(0..self.procs_seen.len())];
                SearchMode::HoldFrom(p)
            }
        }
    }

    /// Oldest live id over every pool in `pools` except the one keyed
    /// `held`; falls back to the held pool when nothing else is live.
    #[expect(
        clippy::disallowed_types,
        reason = "`meta` is looked up by key; `pools` is walked for the least of unique seqs, which no visiting order changes"
    )]
    fn oldest_excluding<K: std::hash::Hash + Eq + Copy>(
        meta: &HashMap<EnvelopeId, InFlight>,
        pools: &HashMap<K, OrderedPool>,
        held: K,
    ) -> Option<EnvelopeId> {
        let mut best: Option<(u64, EnvelopeId)> = None;
        for (k, pool) in pools {
            if *k == held || pool.len() == 0 {
                continue;
            }
            let id = pool.select(0);
            let seq = meta[&id].seq;
            if best.is_none_or(|(bseq, _)| seq < bseq) {
                best = Some((seq, id));
            }
        }
        best.map(|(_, id)| id)
    }
}

impl Scheduler for SearchScheduler {
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId) {
        self.pool.insert(id);
        self.meta.insert(id, *meta);
        if !self.kinds_seen.contains(&meta.kind) {
            self.kinds_seen.push(meta.kind);
        }
        self.note_proc(meta.from);
        self.note_proc(meta.to);
        self.by_kind.entry(meta.kind).or_default().insert(id);
        self.by_to.entry(meta.to).or_default().insert(id);
        self.by_from.entry(meta.from).or_default().insert(id);
    }

    fn choose(&mut self, _now: u64) -> EnvelopeId {
        if self.window_left == 0 {
            self.mode = self.pick_mode();
            self.window_left = 4 + self.rng.gen_range(0..61);
        }
        self.window_left -= 1;
        let live = self.pool.len();
        match self.mode {
            SearchMode::Oldest => self.pool.select(0),
            SearchMode::Newest => self.pool.select(live - 1),
            SearchMode::Random => self.pool.select(self.rng.gen_range(0..live)),
            SearchMode::Window(w) => self.pool.select(self.rng.gen_range(0..live.min(w))),
            SearchMode::HoldKind(k) => Self::oldest_excluding(&self.meta, &self.by_kind, k)
                .unwrap_or_else(|| self.by_kind[k].select(0)),
            SearchMode::HoldTo(p) => Self::oldest_excluding(&self.meta, &self.by_to, p)
                .unwrap_or_else(|| self.by_to[&p].select(0)),
            SearchMode::HoldFrom(p) => Self::oldest_excluding(&self.meta, &self.by_from, p)
                .unwrap_or_else(|| self.by_from[&p].select(0)),
        }
    }

    fn on_delivered(&mut self, id: EnvelopeId) {
        let meta = self
            .meta
            .remove(&id)
            .expect("delivered an envelope the search scheduler does not hold");
        self.pool.remove(id);
        self.by_kind
            .get_mut(meta.kind)
            .expect("kind pool exists")
            .remove(id);
        self.by_to
            .get_mut(&meta.to)
            .expect("to pool exists")
            .remove(id);
        self.by_from
            .get_mut(&meta.from)
            .expect("from pool exists")
            .remove(id);
    }

    fn reset(&mut self) {
        // The RNG stream, tactic state and seen kinds/processes survive:
        // a reset re-partitions the in-flight view only.
        self.pool.clear();
        self.meta.clear();
        for pool in self.by_kind.values_mut() {
            pool.clear();
        }
        for pool in self.by_to.values_mut() {
            pool.clear();
        }
        for pool in self.by_from.values_mut() {
            pool.clear();
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Shared plumbing for the two starvation wrappers
/// ([`TargetedScheduler`], [`PartitionScheduler`]): live messages are
/// split into an *eligible* pool owned by the inner scheduler and a
/// *held* pool keyed by `seq`; when the starvation phase ends the inner
/// scheduler is reset and re-fed the entire live set in `seq` order, so
/// its view matches what a full rescan would have produced.
struct StarvingPools {
    inner: Box<dyn Scheduler>,
    /// Starved messages, keyed by seq (ordered: fairness releases the
    /// oldest first).
    held: BTreeMap<u64, EnvelopeId>,
    /// All live messages (needed to re-feed the inner scheduler when the
    /// starvation phase ends).
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; release order comes from the BTreeMap of held seqs"
    )]
    live: HashMap<EnvelopeId, InFlight>,
    /// Messages currently indexed by the inner scheduler.
    inner_count: usize,
    /// True once the starvation phase has ended and everything flows to
    /// the inner scheduler directly.
    released: bool,
}

impl StarvingPools {
    fn new(inner: Box<dyn Scheduler>) -> Self {
        StarvingPools {
            inner,
            held: BTreeMap::new(),
            live: Default::default(),
            inner_count: 0,
            released: false,
        }
    }

    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId, starved: bool) {
        if self.released {
            // Phase over: no future re-feed, so skip the live-map
            // bookkeeping on the hot path.
            self.inner.on_send(meta, id);
            self.inner_count += 1;
            return;
        }
        self.live.insert(id, *meta);
        if starved {
            self.held.insert(meta.seq, id);
        } else {
            self.inner.on_send(meta, id);
            self.inner_count += 1;
        }
    }

    /// Ends the starvation phase: the inner scheduler takes over the full
    /// live set, re-fed in `seq` order.
    fn release_all(&mut self) {
        self.released = true;
        self.held.clear();
        self.inner.reset();
        let mut metas: Vec<(EnvelopeId, InFlight)> =
            self.live.iter().map(|(&id, &m)| (id, m)).collect();
        metas.sort_by_key(|(_, m)| m.seq);
        for (id, meta) in &metas {
            self.inner.on_send(meta, *id);
        }
        self.inner_count = metas.len();
        // Everything live is now owned by the inner scheduler; the
        // re-feed map has served its purpose.
        self.live.clear();
    }

    fn choose(&mut self, now: u64) -> EnvelopeId {
        if self.inner_count > 0 {
            self.inner.choose(now)
        } else {
            // Fairness: nothing eligible — release the oldest starved
            // message.
            *self
                .held
                .values()
                .next()
                .expect("scheduler called with no in-flight messages")
        }
    }

    fn on_delivered(&mut self, id: EnvelopeId) {
        // Pre-release messages sit in `live` (and possibly `held`);
        // post-release sends are known only to the inner scheduler.
        match self.live.remove(&id) {
            Some(meta) => {
                if self.held.remove(&meta.seq).is_none() {
                    self.inner.on_delivered(id);
                    self.inner_count -= 1;
                }
            }
            None => {
                debug_assert!(self.released, "delivered an envelope never seen");
                self.inner.on_delivered(id);
                self.inner_count -= 1;
            }
        }
    }

    fn reset(&mut self) {
        self.held.clear();
        self.live.clear();
        self.inner.reset();
        self.inner_count = 0;
    }
}

/// Starves selected links for as long as fairness allows: messages on
/// starved links are delivered only when nothing else is in flight.
///
/// This is the adversary used in the `3f+1`-necessity experiment (delay
/// all `p1 ↔ p2` traffic) and in the refinement-maximizing runs (delay a
/// victim's disclosure deliveries so it must learn values via nacks).
pub struct TargetedScheduler {
    /// Links `(from, to)` to starve.
    starved: Vec<(ProcessId, ProcessId)>,
    /// After this many deliveries the starvation lifts entirely.
    pub release_after: u64,
    pools: StarvingPools,
}

impl TargetedScheduler {
    /// Starves `links`, falling back to `inner` among eligible messages.
    pub fn new(links: Vec<(ProcessId, ProcessId)>, inner: Box<dyn Scheduler>) -> Self {
        TargetedScheduler {
            starved: links,
            release_after: u64::MAX,
            pools: StarvingPools::new(inner),
        }
    }

    /// Lifts starvation after `n` deliveries (for staged attacks).
    pub fn with_release_after(mut self, n: u64) -> Self {
        self.release_after = n;
        self
    }
}

impl Scheduler for TargetedScheduler {
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId) {
        let starved = self.starved.contains(&(meta.from, meta.to));
        self.pools.on_send(meta, id, starved);
    }
    fn choose(&mut self, now: u64) -> EnvelopeId {
        if !self.pools.released && now >= self.release_after {
            self.pools.release_all();
        }
        self.pools.choose(now)
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        self.pools.on_delivered(id);
    }
    fn reset(&mut self) {
        self.pools.reset();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Temporarily partitions the process set into two halves: cross-
/// partition messages are starved while the partition holds, then the
/// network heals after `heal_after` deliveries. Models the classic
/// "partition then heal" scenario; fair because healing is guaranteed
/// (and even before healing, starved messages flow when nothing else
/// can).
pub struct PartitionScheduler {
    /// Processes in the first partition (everything else is the second).
    pub left: Vec<ProcessId>,
    /// Deliveries after which the partition heals.
    pub heal_after: u64,
    pools: StarvingPools,
}

impl PartitionScheduler {
    /// Partitions `left` from the rest until `heal_after` deliveries.
    pub fn new(left: Vec<ProcessId>, heal_after: u64, inner: Box<dyn Scheduler>) -> Self {
        PartitionScheduler {
            left,
            heal_after,
            pools: StarvingPools::new(inner),
        }
    }

    fn crosses(&self, m: &InFlight) -> bool {
        self.left.contains(&m.from) != self.left.contains(&m.to)
    }
}

impl Scheduler for PartitionScheduler {
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId) {
        let crosses = self.crosses(meta);
        self.pools.on_send(meta, id, crosses);
    }
    fn choose(&mut self, now: u64) -> EnvelopeId {
        if !self.pools.released && now >= self.heal_after {
            self.pools.release_all();
        }
        self.pools.choose(now)
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        self.pools.on_delivered(id);
    }
    fn reset(&mut self) {
        self.pools.reset();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Shared handle to a recorded schedule (sequence numbers in delivery
/// order). The simulation consumes the scheduler, so the trace is read
/// back through this handle after the run.
pub type TraceHandle = std::sync::Arc<std::sync::Mutex<Vec<u64>>>;

/// Wraps any scheduler and records the `seq` of every chosen message so
/// the exact schedule can be replayed later with [`ReplayScheduler`] —
/// the mechanism behind reproducible counter-example shrinking.
pub struct RecordingScheduler {
    inner: Box<dyn Scheduler>,
    trace: TraceHandle,
    /// Live id -> seq, so choices can be recorded by seq.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; trace order follows the inner scheduler's choices"
    )]
    seqs: HashMap<EnvelopeId, u64>,
}

impl RecordingScheduler {
    /// Records `inner`'s choices; returns the scheduler and the handle
    /// the trace can be read from after the run.
    pub fn new(inner: Box<dyn Scheduler>) -> (Self, TraceHandle) {
        let trace: TraceHandle = Default::default();
        (
            RecordingScheduler {
                inner,
                trace: trace.clone(),
                seqs: Default::default(),
            },
            trace,
        )
    }
}

impl Scheduler for RecordingScheduler {
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId) {
        self.seqs.insert(id, meta.seq);
        self.inner.on_send(meta, id);
    }
    fn choose(&mut self, now: u64) -> EnvelopeId {
        let id = self.inner.choose(now);
        self.trace
            .lock()
            .expect("a holder of the schedule handle panicked")
            .push(self.seqs[&id]);
        id
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        self.seqs.remove(&id);
        self.inner.on_delivered(id);
    }
    fn reset(&mut self) {
        // The recorded trace survives; only the live index drops.
        self.seqs.clear();
        self.inner.reset();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Replays a schedule recorded by [`RecordingScheduler`]: delivers the
/// message whose `seq` matches the next trace entry. Falls back to FIFO
/// once the trace is exhausted.
///
/// If the expected message is not in flight (which can only happen when
/// the program under test changed), the unmatched entry is *skipped* —
/// counted in [`ReplayScheduler::divergences`] — and the replay resyncs
/// on the next matching entry, so a single gap does not poison the rest
/// of the schedule.
pub struct ReplayScheduler {
    trace: VecDeque<u64>,
    /// Number of trace entries that could not be matched to an in-flight
    /// message (skipped to resync).
    pub divergences: u64,
    /// Live messages by seq; ordered so the FIFO fallback is the first
    /// entry.
    live: BTreeMap<u64, EnvelopeId>,
    /// Seq of the message `choose` last returned (for `on_delivered`).
    last_seq: Option<u64>,
}

impl ReplayScheduler {
    /// Replays `trace`.
    pub fn new(trace: Vec<u64>) -> Self {
        ReplayScheduler {
            trace: trace.into(),
            divergences: 0,
            live: BTreeMap::new(),
            last_seq: None,
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId) {
        self.live.insert(meta.seq, id);
    }
    fn choose(&mut self, _now: u64) -> EnvelopeId {
        while let Some(&want) = self.trace.front() {
            self.trace.pop_front();
            if let Some(&id) = self.live.get(&want) {
                self.last_seq = Some(want);
                return id;
            }
            // Unmatched entry: skip it and try to resync on the next one.
            self.divergences += 1;
        }
        // Trace exhausted: FIFO fallback (oldest in flight).
        let (&seq, &id) = self
            .live
            .iter()
            .next()
            .expect("scheduler called with no in-flight messages");
        self.last_seq = Some(seq);
        id
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        let seq = self
            .last_seq
            .take()
            .expect("on_delivered without a preceding choose");
        let removed = self.live.remove(&seq);
        debug_assert_eq!(removed, Some(id), "replay bookkeeping out of sync");
    }
    fn reset(&mut self) {
        // Replay position and divergence count survive a re-feed.
        self.live.clear();
        self.last_seq = None;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seq: u64, from: ProcessId, to: ProcessId) -> InFlight {
        InFlight {
            from,
            to,
            seq,
            sent_at: 0,
            kind: "t",
        }
    }

    /// Feeds `metas` to `s` (ids = indexes), then delivers one message
    /// and returns the delivered meta index.
    fn feed(s: &mut dyn Scheduler, metas: &[InFlight]) {
        for (id, m) in metas.iter().enumerate() {
            s.on_send(m, id);
        }
    }

    fn deliver_one(s: &mut dyn Scheduler, now: u64) -> EnvelopeId {
        let id = s.choose(now);
        s.on_delivered(id);
        id
    }

    #[test]
    fn fifo_picks_lowest_seq() {
        let mut s = FifoScheduler::new();
        feed(&mut s, &[mk(2, 1, 0), mk(5, 0, 1), mk(9, 2, 0)]);
        assert_eq!(deliver_one(&mut s, 0), 0);
        assert_eq!(deliver_one(&mut s, 1), 1);
        assert_eq!(deliver_one(&mut s, 2), 2);
    }

    #[test]
    fn lifo_picks_highest_seq() {
        let mut s = LifoScheduler::new();
        feed(&mut s, &[mk(5, 0, 1), mk(2, 1, 0), mk(9, 2, 0)]);
        assert_eq!(deliver_one(&mut s, 0), 2);
        assert_eq!(deliver_one(&mut s, 1), 1);
        assert_eq!(deliver_one(&mut s, 2), 0);
    }

    #[test]
    fn random_is_reproducible() {
        let run = || -> Vec<EnvelopeId> {
            let mut s = RandomScheduler::new(42);
            let metas: Vec<InFlight> = (0..10).map(|i| mk(i, 0, 1)).collect();
            feed(&mut s, &metas);
            (0..10).map(|t| deliver_one(&mut s, t)).collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn delay_zero_skew_degenerates_to_fifo() {
        let mut s = DelayScheduler::new(7, 0);
        feed(&mut s, &[mk(2, 1, 0), mk(5, 0, 1)]);
        assert_eq!(deliver_one(&mut s, 0), 0);
        assert_eq!(deliver_one(&mut s, 1), 1);
    }

    #[test]
    fn targeted_starves_until_forced() {
        let mut s = TargetedScheduler::new(vec![(0, 1)], Box::new(FifoScheduler::new()));
        // Message on starved link 0->1 skipped in favor of 2->1.
        s.on_send(&mk(1, 0, 1), 0);
        s.on_send(&mk(2, 2, 1), 1);
        assert_eq!(deliver_one(&mut s, 0), 1);
        // Only starved messages left: fairness forces delivery.
        assert_eq!(deliver_one(&mut s, 1), 0);
    }

    #[test]
    fn targeted_release_lifts_starvation() {
        let mut s = TargetedScheduler::new(vec![(0, 1)], Box::new(FifoScheduler::new()))
            .with_release_after(10);
        s.on_send(&mk(1, 0, 1), 0);
        s.on_send(&mk(2, 2, 1), 1);
        // Before release: starved link skipped.
        assert_eq!(s.choose(5), 1);
        // After release: FIFO (lowest seq) wins, even on the old link.
        assert_eq!(s.choose(11), 0);
    }

    #[test]
    fn partition_blocks_cross_traffic_until_heal() {
        let mut s = PartitionScheduler::new(vec![0, 1], 100, Box::new(FifoScheduler::new()));
        s.on_send(&mk(1, 0, 2), 0); // cross
        s.on_send(&mk(2, 0, 1), 1); // intra
        assert_eq!(s.choose(0), 1);
        // After healing, FIFO order wins.
        assert_eq!(s.choose(100), 0);
    }

    #[test]
    fn partition_releases_when_only_cross_traffic_remains() {
        let mut s = PartitionScheduler::new(vec![0], 1_000, Box::new(FifoScheduler::new()));
        s.on_send(&mk(5, 0, 1), 0);
        assert_eq!(deliver_one(&mut s, 0), 0);
    }

    #[test]
    fn recorded_trace_replays_identically() {
        let metas: Vec<InFlight> = [5u64, 2, 9].iter().map(|&q| mk(q, 0, 1)).collect();
        let (mut rec, handle) = RecordingScheduler::new(Box::new(RandomScheduler::new(3)));
        feed(&mut rec, &metas);
        let picks: Vec<EnvelopeId> = (0..3).map(|t| deliver_one(&mut rec, t)).collect();

        let mut rep = ReplayScheduler::new(handle.lock().unwrap().clone());
        feed(&mut rep, &metas);
        let replayed: Vec<EnvelopeId> = (0..3).map(|t| deliver_one(&mut rep, t)).collect();
        assert_eq!(picks, replayed);
        assert_eq!(rep.divergences, 0);
    }

    #[test]
    fn replay_diverges_gracefully() {
        let mut rep = ReplayScheduler::new(vec![999]); // seq that never exists
        rep.on_send(&mk(5, 0, 1), 0);
        rep.on_send(&mk(2, 0, 1), 1);
        assert_eq!(deliver_one(&mut rep, 0), 1); // FIFO fallback: seq 2
        assert_eq!(rep.divergences, 1);
    }

    #[test]
    fn replay_resyncs_after_a_missing_seq() {
        // Trace expects 100 (never sent), then valid entries. The
        // scheduler must skip the one bad entry and replay the rest
        // exactly — the pre-fix behavior counted every later delivery as
        // a divergence and degraded to FIFO forever.
        let mut rep = ReplayScheduler::new(vec![100, 9, 2, 5]);
        let metas: Vec<InFlight> = [5u64, 2, 9].iter().map(|&q| mk(q, 0, 1)).collect();
        feed(&mut rep, &metas);
        assert_eq!(deliver_one(&mut rep, 0), 2); // resynced on seq 9
        assert_eq!(deliver_one(&mut rep, 1), 1); // seq 2
        assert_eq!(deliver_one(&mut rep, 2), 0); // seq 5
        assert_eq!(rep.divergences, 1);
    }

    #[test]
    fn search_scheduler_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<EnvelopeId> {
            let mut s = SearchScheduler::new(seed);
            let mut picks = Vec::new();
            let mut next_id = 0usize;
            // Streamed workload: keep a few messages in flight while
            // delivering, like a real run.
            for wave in 0..20u64 {
                for k in 0..4u64 {
                    let kind = ["ack_req", "ack", "nack", "rb_echo"][k as usize];
                    let m = InFlight {
                        from: (k % 3) as ProcessId,
                        to: ((k + 1) % 3) as ProcessId,
                        seq: wave * 4 + k,
                        sent_at: 0,
                        kind,
                    };
                    s.on_send(&m, next_id);
                    next_id += 1;
                }
                for t in 0..3 {
                    picks.push(deliver_one(&mut s, wave * 3 + t));
                }
            }
            picks
        };
        assert_eq!(run(11), run(11));
        assert_ne!(
            run(11),
            run(12),
            "different seeds should explore differently"
        );
    }

    #[test]
    fn search_scheduler_delivers_everything() {
        // Fairness valve: a finite batch fully drains no matter which
        // hold tactics the seed rotates through.
        for seed in 0..20u64 {
            let mut s = SearchScheduler::new(seed);
            let metas: Vec<InFlight> = (0..50u64)
                .map(|i| InFlight {
                    from: (i % 5) as ProcessId,
                    to: ((i + 1) % 5) as ProcessId,
                    seq: i,
                    sent_at: 0,
                    kind: ["a", "b", "c"][(i % 3) as usize],
                })
                .collect();
            feed(&mut s, &metas);
            let mut seen: Vec<bool> = vec![false; metas.len()];
            for t in 0..metas.len() {
                let id = deliver_one(&mut s, t as u64);
                assert!(!seen[id], "seed {seed}: envelope {id} delivered twice");
                seen[id] = true;
            }
            assert!(seen.iter().all(|&d| d), "seed {seed}: messages lost");
        }
    }

    #[test]
    fn search_scheduler_survives_reset_refeed() {
        // Wrapped in a starvation wrapper, the explorer must tolerate a
        // reset-and-refeed without losing or duplicating envelopes.
        let mut s = TargetedScheduler::new(vec![(0, 1)], Box::new(SearchScheduler::new(3)))
            .with_release_after(4);
        let metas: Vec<InFlight> = (0..12u64)
            .map(|i| InFlight {
                from: (i % 3) as ProcessId,
                to: ((i + 1) % 3) as ProcessId,
                seq: i,
                sent_at: 0,
                kind: "m",
            })
            .collect();
        feed(&mut s, &metas);
        let mut seen = vec![false; metas.len()];
        for t in 0..metas.len() {
            let id = deliver_one(&mut s, t as u64);
            assert!(!seen[id]);
            seen[id] = true;
        }
        assert!(seen.iter().all(|&d| d));
    }

    #[test]
    fn ordered_pool_rank_selects_and_compacts() {
        let mut pool = OrderedPool::default();
        for id in 0..200 {
            pool.insert(id);
        }
        // Remove all even ids: forces at least one compaction.
        for id in (0..200).step_by(2) {
            pool.remove(id);
        }
        assert_eq!(pool.len(), 100);
        assert!(pool.entries.len() <= 128, "pool failed to compact");
        // Ranks select the odd ids in insertion order.
        for k in 0..100 {
            assert_eq!(pool.select(k), 2 * k + 1);
        }
        assert_eq!(pool.select(0), 1);
        // Ids can be reused after removal.
        pool.remove(1);
        pool.insert(1);
        assert_eq!(pool.select(99), 1);
    }
}
