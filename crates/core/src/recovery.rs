//! Durable snapshots, crash-recovery scheduling, and restart-spanning
//! conformance.
//!
//! # Snapshot format
//!
//! Every process snapshot is one [`bgla_codec`] frame:
//!
//! ```text
//! "BGLA" | version u16 | kind u16 | len u64 | payload | FNV-1a-64 checksum
//! ```
//!
//! The `kind` field names the algorithm that wrote it — WTS `0x010D`,
//! GWTS `0x0108`, SbS `0x010E`, GSbS `0x010F` — so a snapshot can never
//! be decoded as the wrong process type (the kinds in
//! [`RETIRED_SNAPSHOT_KINDS`] are never to be reused: they name the WTS
//! and GWTS payload layouts from before the rbcast engine kept slots, the
//! GWTS layouts from before acks were per-origin delta streams and from
//! before quorums were counted per `(round, set)`, the SbS and GSbS
//! layouts from before signed records were held unverified until a
//! threshold's worth had arrived, from before safe-acks and proofs said
//! their echo once, and from before the safe-acks' signers and the
//! forwarded certificates' rounds stopped being stored beside the
//! records they are read from, and the WTS layout that still carried an
//! eager-proposing flag; such a snapshot must be rejected, not misread),
//! and the trailing
//! checksum makes truncation and bit-rot detectable before any field is
//! parsed. The `version` field is [`bgla_codec::FRAME_VERSION`] (9); a
//! snapshot written under any other payload layout carries another
//! version and is rejected as `BadVersion`, never mis-parsed. Version 4
//! made every length, id, round, timestamp and tag a varint: it
//! invalidates every snapshot stored before it, of all four kinds at
//! once, which is why no kind had to be retired for it. Version 5 ships a
//! proof's echoed request set once and a safe-ack reply without it, on
//! the wire as in snapshots. Version 8 changes no layout, but each
//! signature now covers its record's own encoding, so a record held in
//! an older snapshot would fail verification after a restore. Version 9
//! names each delivered disclosure batch inside GWTS acks, requests and
//! refusals, and a GWTS snapshot keeps those batches by name. The
//! payload serializes the *durable* protocol state in declaration order
//! (configuration, proposal/input schedule, phase, collected acks,
//! retained proofs-of-safety, decisions). Volatile machinery —
//! keypairs, signature caches, delta-encoding bookkeeping — is **not**
//! serialized: keys are re-derived from the PKI, caches re-warm, and
//! delta senders restart in full-set mode because amnesia invalidates
//! any claim about what peers hold (peers' stale claims about *us* are
//! covered by the protocols' resync fallback).
//!
//! # Recovery contract
//!
//! * Snapshots are written through a [`SnapshotStore`]; the durable
//!   [`DirStore`] writes `<dir>/p<id>.snap.tmp` and atomically renames
//!   it over `<dir>/p<id>.snap`, so a crash mid-write leaves the
//!   previous snapshot intact. [`SnapshotPolicy`] decides *when*: after
//!   every observed decision (the paper-level durability point) and/or
//!   every `k` deliveries.
//! * On restart the store is consulted; a frame that fails checksum or
//!   decode validation yields `None` and the process **rejoins from
//!   genesis**. A genesis rejoin may have lost a durable decision; the
//!   driver records it in [`RecoveryRun::genesis_rejoins`] and excludes
//!   the process from the conformance honest set — the loss is absorbed
//!   by the fault budget exactly like a Byzantine process (tests assert
//!   `genesis_rejoins.len() ≤ f`).
//! * A restored process reboots through `on_start`, which re-issues the
//!   in-flight request of its durable phase (re-`AckReq`, re-`SafeReq`,
//!   re-`Init`) so lost inbound traffic is re-solicited. Some phases
//!   cannot re-solicit (peers only ever send their `Init` once;
//!   Bracha echoes are not retransmitted): a process crashed there may
//!   stall without deciding, which the `n − f` disclosure threshold
//!   absorbs — liveness of the *survivors* never depends on the victim.
//! * GWTS ack streams ([`crate::gwts`]) are durable on both sides, but a
//!   snapshot can predate the victim's last acks. It then reuses
//!   `next_ack_tag` values its peers have delivered, and reliable
//!   broadcast delivers once per `(origin, tag)`: the re-issued acks,
//!   the full one a restored process starts with among them, are lost
//!   on those peers until the counter passes its old high-water mark
//!   (true before acks were deltas, too). The first fresh ack is then
//!   rebuilt from one the victim forgot, maybe into a set it never
//!   accepted. That wastes the victim's votes until its next full ack
//!   and nothing else: all peers rebuild the same set, a quorum needs
//!   that set acked for the same round by `⌊(n+f)/2⌋` others, correct
//!   acceptors ack only what a request proposed, and a victim that
//!   forgot acks is inside the fault budget already. A restored process
//!   also forgets for which rounds it said its set and says it again:
//!   one more vote of the same origin for the same `(round, set)`.
//!   Deliveries the crash swept leave gaps in the streams the victim
//!   reads; each resumes at its origin's next full ack.
//! * The conformance observers ([`crate::harness`]) watch the engine's
//!   restart generation, emit an [`crate::linearize::OP_RESTART`] op at
//!   each reboot, and re-announce the restored state. The trace checker
//!   resets its refine watermark at the boundary (refinement progress
//!   is legitimately volatile) but holds decisions across it: a
//!   restored decision smaller than the pre-crash one is reported as
//!   [`crate::linearize::TraceViolation::RestartRegression`] — the stale-snapshot
//!   rollback signature. [`RollbackStore`] and [`CorruptingStore`] are
//!   the planted adversaries tests aim at that detector.
//!
//! # Driver
//!
//! [`run_crash_conformance`] is the crash-aware twin of
//! [`crate::search::run_conformance`]: it steps the simulation one
//! delivery at a time, applies a [`CrashPlan`] (crash at a delivery
//! count, restart after a downtime), snapshots per policy, rebuilds
//! victims through the caller's [`RebuildFn`], and finally replays the
//! recorded restart-spanning history through the prefix checker.
//! [`search_crash_schedules`] sweeps adversarial schedules under a
//! fixed crash plan and shrinks any violation to a minimal replayable
//! schedule, exactly like the crash-free search.

use crate::linearize::{check_trace, CheckerConfig, PrefixViolation, Witness, OP_DECIDE};
use crate::search::{
    op_priority, run_traced, shrink_with, Counterexample, ObserverFactory, SearchReport,
    SystemFactory,
};
use bgla_codec::verify_frame;
use bgla_simnet::{
    OpEvent, Process, ProcessId, RecordingScheduler, ReplayScheduler, RunOutcome, Scheduler,
    SearchScheduler, Simulation, WireMessage,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Snapshot frame kinds no process reads any more, never to be reused:
/// each names a payload layout that has since changed (see the module
/// docs). A frame of one is refused as [`bgla_codec::CodecError::BadKind`].
pub const RETIRED_SNAPSHOT_KINDS: [u16; 11] = [
    0x0101, 0x0102, 0x0103, 0x0104, 0x0105, 0x0106, 0x0107, 0x0109, 0x010A, 0x010B, 0x010C,
];

// ---------------------------------------------------------------------------
// Snapshot stores
// ---------------------------------------------------------------------------

/// Where process snapshots live between a crash and the restart.
///
/// `load` returns the raw frame bytes; validation belongs to the caller's
/// [`RebuildFn`] (whose `from_snapshot` decode re-checks the checksum), so
/// a store serving garbage degrades to a genesis rejoin, never a panic.
/// [`DirStore`] additionally pre-validates on load, modeling a reader
/// that discards torn files.
pub trait SnapshotStore {
    /// Persists the latest snapshot of process `p`.
    fn save(&mut self, p: ProcessId, bytes: &[u8]);
    /// The snapshot this store is willing to serve for `p`, if any.
    fn load(&mut self, p: ProcessId) -> Option<Vec<u8>>;
}

/// In-memory store: latest snapshot per process. The default for sweeps
/// (no filesystem traffic in the hot loop).
#[derive(Debug, Default)]
pub struct MemStore {
    snaps: BTreeMap<ProcessId, Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of processes with a stored snapshot.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether no snapshot has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }
}

impl SnapshotStore for MemStore {
    fn save(&mut self, p: ProcessId, bytes: &[u8]) {
        self.snaps.insert(p, bytes.to_vec());
    }
    fn load(&mut self, p: ProcessId) -> Option<Vec<u8>> {
        self.snaps.get(&p).cloned()
    }
}

/// Durable directory store with atomic replace: writes
/// `<dir>/p<id>.snap.tmp` then renames over `<dir>/p<id>.snap`, so a
/// crash mid-save leaves the previous snapshot readable. `load`
/// validates the frame (magic, version, length, checksum) and returns
/// `None` for corrupt or truncated files — the caller rejoins from
/// genesis. I/O errors on save panic: this is a test harness store and
/// a broken tmpdir is a bug, not a scenario.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) a snapshot directory.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirStore { dir })
    }

    /// The final path of `p`'s snapshot.
    pub fn path(&self, p: ProcessId) -> PathBuf {
        self.dir.join(format!("p{p}.snap"))
    }
}

impl SnapshotStore for DirStore {
    fn save(&mut self, p: ProcessId, bytes: &[u8]) {
        let tmp = self.dir.join(format!("p{p}.snap.tmp"));
        std::fs::write(&tmp, bytes).expect("snapshot tmp write");
        std::fs::rename(&tmp, self.path(p)).expect("snapshot rename");
    }

    fn load(&mut self, p: ProcessId) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.path(p)).ok()?;
        verify_frame(&bytes).ok()?;
        Some(bytes)
    }
}

/// Rollback adversary: acknowledges every save but forever serves the
/// *first* snapshot it saw per process — the stale state a victim
/// restores from after losing later writes. Against a multi-round
/// algorithm this plants a guaranteed decision regression for the
/// checker to catch.
#[derive(Debug, Default)]
pub struct RollbackStore {
    first: BTreeMap<ProcessId, Vec<u8>>,
}

impl RollbackStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnapshotStore for RollbackStore {
    fn save(&mut self, p: ProcessId, bytes: &[u8]) {
        self.first.entry(p).or_insert_with(|| bytes.to_vec());
    }
    fn load(&mut self, p: ProcessId) -> Option<Vec<u8>> {
        self.first.get(&p).cloned()
    }
}

/// Corruption adversary: stores faithfully but flips one payload bit on
/// every load. The frame checksum catches it, `from_snapshot` fails,
/// and the victim rejoins from genesis — the detected-corruption path.
#[derive(Debug, Default)]
pub struct CorruptingStore {
    inner: MemStore,
}

impl CorruptingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnapshotStore for CorruptingStore {
    fn save(&mut self, p: ProcessId, bytes: &[u8]) {
        self.inner.save(p, bytes);
    }
    fn load(&mut self, p: ProcessId) -> Option<Vec<u8>> {
        let mut bytes = self.inner.load(p)?;
        // An empty stored blob has no bit to flip; serve it unmangled
        // (frame validation rejects it anyway) instead of panicking.
        let mid = bytes.len() / 2;
        if let Some(b) = bytes.get_mut(mid) {
            *b ^= 0x01;
        }
        Some(bytes)
    }
}

// ---------------------------------------------------------------------------
// Snapshot policy
// ---------------------------------------------------------------------------

/// When the driver persists snapshots. Both triggers may be active.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotPolicy {
    /// Snapshot every live snapshot-capable process each time this many
    /// further deliveries have completed.
    pub every_k: Option<u64>,
    /// Snapshot a process immediately after it is observed deciding —
    /// the paper-level durability point (a decision, once announced,
    /// must survive a crash).
    pub on_decide: bool,
}

impl SnapshotPolicy {
    /// Snapshot on every observed decision only.
    pub fn decide_triggered() -> Self {
        SnapshotPolicy {
            every_k: None,
            on_decide: true,
        }
    }

    /// Snapshot every `k` deliveries only.
    pub fn periodic(k: u64) -> Self {
        SnapshotPolicy {
            every_k: Some(k),
            on_decide: false,
        }
    }

    /// Both triggers: every `k` deliveries and on every decision.
    pub fn combined(k: u64) -> Self {
        SnapshotPolicy {
            every_k: Some(k),
            on_decide: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Crash plans and tactics
// ---------------------------------------------------------------------------

/// One planned crash: the victim stops at delivery count `step` and is
/// restarted (via the caller's [`RebuildFn`]) once `downtime` further
/// deliveries have completed — or immediately if the network quiesces
/// first, so a plan can never deadlock a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Process to crash.
    pub victim: ProcessId,
    /// Delivery count at which the crash fires.
    pub step: u64,
    /// Deliveries the victim stays down.
    pub downtime: u64,
}

/// A deterministic crash schedule for one run.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    /// Planned crashes; the driver applies them in `step` order.
    pub events: Vec<CrashEvent>,
}

impl CrashPlan {
    /// A plan with no crashes (the driver degenerates to
    /// [`crate::search::run_conformance`] plus snapshotting).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single crash event.
    pub fn single(victim: ProcessId, step: u64, downtime: u64) -> Self {
        CrashPlan {
            events: vec![CrashEvent {
                victim,
                step,
                downtime,
            }],
        }
    }
}

/// Phase-targeting crash tactics, resolved against a pilot run's
/// first-decide steps into a concrete [`CrashPlan`] by
/// [`resolve_tactics`]. Each aims at a distinct durability hazard.
#[derive(Debug, Clone, Copy)]
pub enum CrashTactic {
    /// Crash at a fixed delivery count — the baseline tactic (and the
    /// fallback the others degrade to when the pilot never decided).
    AtStep {
        /// Process to crash.
        victim: ProcessId,
        /// Delivery count of the crash.
        step: u64,
        /// Deliveries down.
        downtime: u64,
    },
    /// Crash `lead` deliveries *before* the victim's pilot first-decide
    /// step: mid-quorum, with collected acks in volatile state.
    BeforeDecide {
        /// Process to crash.
        victim: ProcessId,
        /// Deliveries before the pilot decide step.
        lead: u64,
        /// Deliveries down.
        downtime: u64,
    },
    /// Crash `lag` deliveries *after* the pilot first-decide step: the
    /// decision is announced and (under a decide-triggered policy)
    /// snapshotted — the restart must not lose it.
    AfterDecide {
        /// Process to crash.
        victim: ProcessId,
        /// Deliveries after the pilot decide step.
        lag: u64,
        /// Deliveries down.
        downtime: u64,
    },
    /// Crash twice: at `step`, and again `gap` deliveries after the
    /// first restart completes — recovery-of-a-recovery.
    DoubleCrash {
        /// Process to crash.
        victim: ProcessId,
        /// Delivery count of the first crash.
        step: u64,
        /// Deliveries between the first restart and the second crash.
        gap: u64,
        /// Deliveries down (per crash).
        downtime: u64,
    },
}

/// Resolves tactics into a concrete plan. `first_decide` maps each
/// process to the delivery step of its first decide in a pilot run of
/// the same system and scheduler (see [`first_decide_steps`]); tactics
/// referencing a process that never decided fall back to an early
/// fixed-step crash.
pub fn resolve_tactics(
    tactics: &[CrashTactic],
    first_decide: &BTreeMap<ProcessId, u64>,
) -> CrashPlan {
    let mut events = Vec::new();
    for t in tactics {
        match *t {
            CrashTactic::AtStep {
                victim,
                step,
                downtime,
            } => events.push(CrashEvent {
                victim,
                step,
                downtime,
            }),
            CrashTactic::BeforeDecide {
                victim,
                lead,
                downtime,
            } => {
                let step = first_decide
                    .get(&victim)
                    .map(|&s| s.saturating_sub(lead))
                    .unwrap_or(1)
                    .max(1);
                events.push(CrashEvent {
                    victim,
                    step,
                    downtime,
                });
            }
            CrashTactic::AfterDecide {
                victim,
                lag,
                downtime,
            } => {
                let step = first_decide.get(&victim).map(|&s| s + lag).unwrap_or(1);
                events.push(CrashEvent {
                    victim,
                    step,
                    downtime,
                });
            }
            CrashTactic::DoubleCrash {
                victim,
                step,
                gap,
                downtime,
            } => {
                events.push(CrashEvent {
                    victim,
                    step,
                    downtime,
                });
                events.push(CrashEvent {
                    victim,
                    // The second crash must land after the first restart
                    // (the driver skips crashes of already-down processes).
                    step: step + downtime + gap.max(1),
                    downtime,
                });
            }
        }
    }
    events.sort_by_key(|e| e.step);
    CrashPlan { events }
}

/// Pilot helper: runs the system crash-free and returns each process's
/// first-decide delivery step, for [`resolve_tactics`].
pub fn first_decide_steps<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    scheduler: Box<dyn Scheduler>,
    budget: u64,
) -> BTreeMap<ProcessId, u64> {
    let mut sim = build(scheduler);
    let mut observer = mk_observer();
    run_traced(&mut sim, budget, &mut observer);
    let mut first = BTreeMap::new();
    for op in sim.trace().expect("tracing enabled").ops_of_kind(OP_DECIDE) {
        first.entry(op.process).or_insert(op.step);
    }
    first
}

// ---------------------------------------------------------------------------
// The crash-recovery driver
// ---------------------------------------------------------------------------

/// Rebuilds a crashed process for [`Simulation::restart`]: given the
/// stored snapshot bytes (if the store had any), returns the process
/// plus whether it was rebuilt **from genesis** (no snapshot, or the
/// snapshot failed validation/decoding). Callers typically try
/// `from_snapshot` and fall back to the genesis constructor.
pub type RebuildFn<'a, M> =
    dyn FnMut(ProcessId, Option<Vec<u8>>) -> (Box<dyn Process<M>>, bool) + 'a;

/// Everything a crash-recovery conformance run produced.
pub struct RecoveryRun<M: WireMessage> {
    /// The finished simulation.
    pub sim: Simulation<M>,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Witness or minimal violating prefix over the restart-spanning
    /// history. Genesis rejoins are excluded from the honest set (their
    /// durable loss is charged to the fault budget); inclusivity is
    /// asserted only for quiescent runs.
    pub result: Result<Witness, PrefixViolation>,
    /// Processes that rejoined from genesis (no usable snapshot).
    pub genesis_rejoins: BTreeSet<ProcessId>,
    /// Snapshots persisted to the store during the run.
    pub snapshots_taken: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Runs a system under a crash plan with snapshotting, records the full
/// restart-spanning history, and checks it at every prefix. The crash
/// model is the engine's: a crashed process loses its in-flight inbox
/// and all traffic sent while it is down; recovery re-solicits what the
/// restored phase permits (see the module docs).
#[allow(clippy::too_many_arguments)] // the driver *is* the aggregation point
pub fn run_crash_conformance<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    rebuild: &mut RebuildFn<'_, M>,
    policy: SnapshotPolicy,
    store: &mut dyn SnapshotStore,
    plan: &CrashPlan,
    cfg: &CheckerConfig,
    scheduler: Box<dyn Scheduler>,
    budget: u64,
) -> RecoveryRun<M> {
    let mut sim = build(scheduler);
    let mut observer = mk_observer();
    sim.enable_trace();
    sim.start();

    let mut events = plan.events.clone();
    events.sort_by_key(|e| e.step);
    let mut next_event = 0usize;
    // (due delivery count, victim), kept sorted by due step.
    let mut pending: Vec<(u64, ProcessId)> = Vec::new();
    let mut genesis_rejoins: BTreeSet<ProcessId> = BTreeSet::new();
    let mut snapshots_taken = 0u64;
    let mut restarts = 0u64;
    let mut last_periodic = 0u64;
    let mut buf: Vec<OpEvent> = Vec::new();

    let do_restart = |sim: &mut Simulation<M>,
                      store: &mut dyn SnapshotStore,
                      rebuild: &mut RebuildFn<'_, M>,
                      genesis_rejoins: &mut BTreeSet<ProcessId>,
                      restarts: &mut u64,
                      victim: ProcessId| {
        let snap = store.load(victim);
        let (proc, from_genesis) = rebuild(victim, snap);
        if from_genesis {
            genesis_rejoins.insert(victim);
        }
        sim.restart(victim, proc);
        *restarts += 1;
    };

    let outcome = loop {
        let delivered = sim.metrics().delivered;

        // 1. Crashes due at this delivery count (a crash of an
        //    already-down process is skipped, not queued).
        while next_event < events.len() && events[next_event].step <= delivered {
            let ev = events[next_event];
            next_event += 1;
            if sim.is_crashed(ev.victim) {
                continue;
            }
            sim.crash(ev.victim);
            pending.push((delivered + ev.downtime, ev.victim));
            pending.sort_by_key(|&(due, _)| due);
        }

        // 2. Restarts whose downtime has elapsed.
        while let Some(&(due, victim)) = pending.first() {
            if due > delivered {
                break;
            }
            pending.remove(0);
            do_restart(
                &mut sim,
                store,
                rebuild,
                &mut genesis_rejoins,
                &mut restarts,
                victim,
            );
        }

        // 3. Observe: diff live process state into ops (restart markers
        //    first, then propose/refine/decide), then snapshot per
        //    policy — on-decide saves happen after the decide is in the
        //    trace, modeling announce-then-fsync.
        buf.clear();
        observer(&sim, &mut buf);
        let mut decided_now: Vec<ProcessId> = Vec::new();
        if !buf.is_empty() {
            buf.sort_by_key(|o| op_priority(o.kind));
            if policy.on_decide {
                decided_now.extend(
                    buf.iter()
                        .filter(|o| o.kind == OP_DECIDE)
                        .map(|o| o.process),
                );
            }
            let trace = sim.trace_mut().expect("tracing enabled");
            for ev in buf.drain(..) {
                trace.push_op(ev);
            }
        }
        for p in decided_now {
            if !sim.is_crashed(p) {
                if let Some(bytes) = sim.snapshot_of(p) {
                    store.save(p, &bytes);
                    snapshots_taken += 1;
                }
            }
        }
        if let Some(k) = policy.every_k {
            if delivered >= last_periodic + k {
                last_periodic = delivered;
                for p in 0..sim.n() {
                    if !sim.is_crashed(p) {
                        if let Some(bytes) = sim.snapshot_of(p) {
                            store.save(p, &bytes);
                            snapshots_taken += 1;
                        }
                    }
                }
            }
        }

        // 4. Advance.
        if delivered >= budget {
            break RunOutcome {
                delivered,
                quiescent: sim.in_flight() == 0,
            };
        }
        if !sim.step() {
            // Quiescent. Pending restarts can no longer wait out their
            // downtime in deliveries — fire the earliest now (restart
            // traffic usually un-quiesces the network). Remaining crash
            // events likewise fast-forward to "now".
            if let Some(&(_, victim)) = pending.first() {
                pending.remove(0);
                do_restart(
                    &mut sim,
                    store,
                    rebuild,
                    &mut genesis_rejoins,
                    &mut restarts,
                    victim,
                );
                continue;
            }
            if next_event < events.len() {
                events[next_event].step = delivered;
                continue;
            }
            break RunOutcome {
                delivered,
                quiescent: true,
            };
        }
    };

    let mut effective = if outcome.quiescent {
        cfg.clone()
    } else {
        cfg.clone().without_inclusivity()
    };
    // A genesis rejoin legitimately lost durable state; its post-rejoin
    // history is a fresh process's, not a continuation. Charge it to
    // the fault budget instead of the safety battery.
    effective.honest.retain(|p| !genesis_rejoins.contains(p));
    let result = check_trace(sim.trace().expect("tracing enabled"), &effective);
    RecoveryRun {
        sim,
        outcome,
        result,
        genesis_rejoins,
        snapshots_taken,
        restarts,
    }
}

/// Replays a recorded schedule under the same crash plan, policy, and a
/// fresh store.
#[allow(clippy::too_many_arguments)]
pub fn replay_crash_schedule<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    rebuild: &mut RebuildFn<'_, M>,
    policy: SnapshotPolicy,
    mk_store: &dyn Fn() -> Box<dyn SnapshotStore>,
    plan: &CrashPlan,
    cfg: &CheckerConfig,
    schedule: &[u64],
    budget: u64,
) -> RecoveryRun<M> {
    let mut store = mk_store();
    run_crash_conformance(
        build,
        mk_observer,
        rebuild,
        policy,
        store.as_mut(),
        plan,
        cfg,
        Box::new(ReplayScheduler::new(schedule.to_vec())),
        budget,
    )
}

/// Sweeps adversarial delivery schedules under a fixed crash plan —
/// the crash-recovery twin of [`crate::search::search_schedules`].
/// Every seed gets a fresh store from `mk_store` (snapshots must not
/// leak between runs); the first violation is shrunk to a minimal
/// replayable schedule with the crash plan held fixed.
#[allow(clippy::too_many_arguments)]
pub fn search_crash_schedules<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    rebuild: &mut RebuildFn<'_, M>,
    policy: SnapshotPolicy,
    mk_store: &dyn Fn() -> Box<dyn SnapshotStore>,
    plan: &CrashPlan,
    cfg: &CheckerConfig,
    seeds: std::ops::Range<u64>,
    budget: u64,
) -> SearchReport {
    let mut report = SearchReport::default();
    for seed in seeds {
        let (rec, handle) = RecordingScheduler::new(Box::new(SearchScheduler::new(seed)));
        let mut store = mk_store();
        let run = run_crash_conformance(
            build,
            mk_observer,
            rebuild,
            policy,
            store.as_mut(),
            plan,
            cfg,
            Box::new(rec),
            budget,
        );
        report.seeds_run += 1;
        report.deliveries += run.outcome.delivered;
        match run.result {
            Ok(w) => report.ops_checked += w.ops_checked as u64,
            Err(v) => {
                let recorded = handle
                    .lock()
                    .expect("a holder of the schedule handle panicked")
                    .clone();
                let (schedule, violation, replays) = shrink_with(
                    |sched, replays| {
                        *replays += 1;
                        replay_crash_schedule(
                            build,
                            mk_observer,
                            rebuild,
                            policy,
                            mk_store,
                            plan,
                            cfg,
                            sched,
                            budget,
                        )
                        .result
                        .err()
                    },
                    recorded,
                    v,
                );
                report.counterexample = Some(Counterexample {
                    seed,
                    schedule,
                    violation,
                    replays,
                });
                return report;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_codec::encode_frame;

    #[test]
    fn memstore_serves_latest() {
        let mut s = MemStore::new();
        assert!(s.load(0).is_none());
        s.save(0, b"one");
        s.save(0, b"two");
        assert_eq!(s.load(0).as_deref(), Some(&b"two"[..]));
        assert!(s.load(1).is_none());
    }

    #[test]
    fn rollback_store_serves_the_first_snapshot() {
        let mut s = RollbackStore::new();
        s.save(3, b"stale");
        s.save(3, b"fresh");
        assert_eq!(s.load(3).as_deref(), Some(&b"stale"[..]));
    }

    #[test]
    fn corrupting_store_breaks_the_checksum() {
        let frame = encode_frame(0x7777, &42u64);
        let mut s = CorruptingStore::new();
        s.save(0, &frame);
        let served = s.load(0).unwrap();
        assert_ne!(served, frame);
        assert!(verify_frame(&served).is_err(), "bit flip must be detected");
    }

    #[test]
    fn corrupting_store_survives_an_empty_blob() {
        let mut s = CorruptingStore::new();
        s.save(3, &[]);
        // Used to panic (`bytes[0]` on an empty vec); must serve the
        // blob instead and let frame validation reject it downstream.
        let served = s.load(3).expect("stored blob is served");
        assert!(served.is_empty());
        assert!(verify_frame(&served).is_err());
    }

    #[test]
    fn dirstore_roundtrips_and_rejects_corruption() {
        static UNIQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bgla-dirstore-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let mut s = DirStore::new(&dir).unwrap();
        assert!(s.load(0).is_none(), "empty dir has no snapshot");

        let frame = encode_frame(0x7777, &7u64);
        s.save(0, &frame);
        assert_eq!(s.load(0), Some(frame.clone()));

        // Truncation: the validated load refuses to serve it.
        std::fs::write(s.path(0), &frame[..frame.len() - 3]).unwrap();
        assert!(s.load(0).is_none(), "truncated snapshot must be rejected");

        // Bit rot, likewise.
        let mut rotten = frame.clone();
        rotten[frame.len() / 2] ^= 0x10;
        std::fs::write(s.path(0), &rotten).unwrap();
        assert!(s.load(0).is_none(), "corrupt snapshot must be rejected");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tactics_resolve_against_pilot_decides() {
        let mut first = BTreeMap::new();
        first.insert(1usize, 40u64);
        let plan = resolve_tactics(
            &[
                CrashTactic::BeforeDecide {
                    victim: 1,
                    lead: 5,
                    downtime: 10,
                },
                CrashTactic::AfterDecide {
                    victim: 1,
                    lag: 3,
                    downtime: 10,
                },
                // Never decided in the pilot: falls back to step 1.
                CrashTactic::BeforeDecide {
                    victim: 2,
                    lead: 5,
                    downtime: 10,
                },
                CrashTactic::DoubleCrash {
                    victim: 0,
                    step: 10,
                    gap: 4,
                    downtime: 6,
                },
            ],
            &first,
        );
        let steps: Vec<(ProcessId, u64)> = plan.events.iter().map(|e| (e.victim, e.step)).collect();
        assert_eq!(steps, vec![(2, 1), (0, 10), (0, 20), (1, 35), (1, 43)]);
    }
}
