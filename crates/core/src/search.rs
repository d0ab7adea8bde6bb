//! Adversarial schedule search with counterexample shrinking.
//!
//! The pipeline glues three pieces together:
//!
//! 1. **Observed runs** — [`run_traced`] drives a [`Simulation`] one
//!    delivery at a time and, between steps, lets an [`Observer`]
//!    closure diff process state and emit operation events
//!    ([`OpEvent`]) into the simulation's [`bgla_simnet::Trace`], so
//!    the trace becomes a full history (deliveries + ops). The stock
//!    observers for the four algorithms live in [`crate::harness`].
//! 2. **Prefix checking** — the recorded history is replayed through
//!    [`crate::linearize::check_trace`], which verifies the LA/GLA
//!    safety battery at every prefix and produces a linearization
//!    witness or a minimal violating prefix.
//! 3. **Exploration + shrinking** — [`search_schedules`] sweeps seeds
//!    of [`bgla_simnet::SearchScheduler`] (recording each schedule via
//!    [`RecordingScheduler`]); on a checker violation the recorded
//!    schedule is minimized by [`shrink`]: first the shortest violating
//!    prefix (binary search, FIFO tail via [`ReplayScheduler`]'s
//!    fallback), then greedy chunk deletion (safe because the replayer
//!    resyncs over unmatched entries). The result is a
//!    [`Counterexample`]: the seed (which alone reproduces the original
//!    run) plus the shrunk schedule (replayable on its own).
//!
//! Budgets: every replay is a fresh deterministic simulation, so
//! shrinking costs replays, not memory; the shrinker caps itself at a
//! few hundred replays.

use crate::linearize::{check_trace, CheckerConfig, PrefixViolation, Witness};
use bgla_simnet::{
    OpEvent, RecordingScheduler, ReplayScheduler, RunOutcome, Scheduler, SearchScheduler,
    Simulation, WireMessage,
};
use std::fmt;

/// A state-diffing callback: called after `on_start` and after every
/// delivery with the simulation and an output buffer; pushes one
/// [`OpEvent`] per newly observed protocol operation. The driver orders
/// each batch propose → refine → decide before appending to the trace.
pub type Observer<M> = Box<dyn FnMut(&Simulation<M>, &mut Vec<OpEvent>)>;

/// A factory producing a fresh [`Observer`] per run — the search and
/// shrink loops re-build the system many times.
pub type ObserverFactory<'a, M> = dyn Fn() -> Observer<M> + 'a;

/// A factory producing a fresh system per run, wired to the given
/// scheduler.
pub type SystemFactory<'a, M> = dyn FnMut(Box<dyn Scheduler>) -> Simulation<M> + 'a;

/// Orders op kinds that share a trace step: a restart sorts before
/// everything else in its batch (the reboot happened before the
/// restored state was observed, and the checker must see the boundary
/// before the re-announced refine/decide ops), then propose < refine <
/// decide. Public because trace producers outside the simulator — the
/// TCP runtime's log merge — need the same tiebreak to emit
/// checker-conformant traces.
pub fn op_priority(kind: &str) -> u8 {
    match kind {
        crate::linearize::OP_RESTART => 0,
        crate::linearize::OP_PROPOSE => 1,
        crate::linearize::OP_REFINE => 2,
        crate::linearize::OP_DECIDE => 3,
        _ => 4,
    }
}

/// Runs `sim` to quiescence (or `budget` deliveries), tracing enabled,
/// invoking `observer` between deliveries and appending its ops to the
/// trace. Within one observation batch, proposes are appended before
/// refines before decides, so causality ties (a value injected and
/// decided during the same delivery) read in the right order.
pub fn run_traced<M: WireMessage + 'static>(
    sim: &mut Simulation<M>,
    budget: u64,
    observer: &mut Observer<M>,
) -> RunOutcome {
    sim.enable_trace();
    sim.start();
    let mut buf: Vec<OpEvent> = Vec::new();
    loop {
        buf.clear();
        observer(sim, &mut buf);
        if !buf.is_empty() {
            buf.sort_by_key(|o| op_priority(o.kind));
            let trace = sim.trace_mut().expect("tracing was enabled");
            for ev in buf.drain(..) {
                trace.push_op(ev);
            }
        }
        if sim.metrics().delivered >= budget {
            return RunOutcome {
                delivered: sim.metrics().delivered,
                quiescent: sim.in_flight() == 0,
            };
        }
        if !sim.step() {
            return RunOutcome {
                delivered: sim.metrics().delivered,
                quiescent: true,
            };
        }
    }
}

/// Everything a checked run produced.
pub struct Conformance<M: WireMessage> {
    /// The finished simulation (for post-run inspection).
    pub sim: Simulation<M>,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Witness or minimal violating prefix. When the run hit the
    /// delivery budget without quiescing, inclusivity is *not* asserted
    /// (the run was truncated, not wrong).
    pub result: Result<Witness, PrefixViolation>,
}

/// Builds a system on `scheduler`, runs it observed, checks the trace.
pub fn run_conformance<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    cfg: &CheckerConfig,
    scheduler: Box<dyn Scheduler>,
    budget: u64,
) -> Conformance<M> {
    let mut sim = build(scheduler);
    let mut observer = mk_observer();
    let outcome = run_traced(&mut sim, budget, &mut observer);
    let effective = if outcome.quiescent {
        cfg.clone()
    } else {
        cfg.clone().without_inclusivity()
    };
    let result = check_trace(sim.trace().expect("tracing enabled"), &effective);
    Conformance {
        sim,
        outcome,
        result,
    }
}

/// Replays a recorded schedule (seqs in delivery order; FIFO after the
/// schedule is exhausted) through the conformance pipeline.
pub fn replay_schedule<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    cfg: &CheckerConfig,
    schedule: &[u64],
    budget: u64,
) -> Conformance<M> {
    run_conformance(
        build,
        mk_observer,
        cfg,
        Box::new(ReplayScheduler::new(schedule.to_vec())),
        budget,
    )
}

/// A shrunk, replayable conformance failure.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The [`SearchScheduler`] seed that found it — replays the *full*
    /// original run on its own.
    pub seed: u64,
    /// The shrunk schedule (send seqs in delivery order) — replays the
    /// violation via [`ReplayScheduler`] with FIFO tail.
    pub schedule: Vec<u64>,
    /// The violation the shrunk schedule still triggers.
    pub violation: PrefixViolation,
    /// Replays the shrinker spent.
    pub replays: u32,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conformance violation: {}", self.violation)?;
        writeln!(
            f,
            "  reproduce the full run : SearchScheduler::new({})",
            self.seed
        )?;
        write!(
            f,
            "  shrunk schedule ({} deliveries, {} shrink replays): ReplayScheduler::new(vec!{:?})",
            self.schedule.len(),
            self.replays,
            self.schedule
        )
    }
}

/// Aggregate result of a seed sweep.
#[derive(Debug, Default, Clone)]
pub struct SearchReport {
    /// Seeds explored (stops at the first counterexample).
    pub seeds_run: u64,
    /// Total deliveries simulated across explored seeds.
    pub deliveries: u64,
    /// Total operation events checked across explored seeds.
    pub ops_checked: u64,
    /// The first violation found, shrunk — `None` means the sweep is
    /// clean.
    pub counterexample: Option<Counterexample>,
}

fn violates<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    cfg: &CheckerConfig,
    schedule: &[u64],
    budget: u64,
    replays: &mut u32,
) -> Option<PrefixViolation> {
    *replays += 1;
    replay_schedule(build, mk_observer, cfg, schedule, budget)
        .result
        .err()
}

/// Cap on shrink replays; past it the current (already reduced)
/// schedule is reported.
const MAX_SHRINK_REPLAYS: u32 = 220;

/// Minimizes a recorded violating schedule: shortest violating prefix
/// first (binary search), then greedy chunk deletion at halving
/// granularity. Every candidate is validated by a full replay, so the
/// returned schedule is guaranteed to still violate.
pub fn shrink<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    cfg: &CheckerConfig,
    schedule: Vec<u64>,
    fallback: PrefixViolation,
    budget: u64,
) -> (Vec<u64>, PrefixViolation, u32) {
    shrink_with(
        |sched, replays| violates(build, mk_observer, cfg, sched, budget, replays),
        schedule,
        fallback,
    )
}

/// Schedule minimization over an arbitrary replay oracle — the shared
/// engine behind [`shrink`] and the crash-recovery shrinker in
/// [`crate::recovery`]. `violates` replays a candidate schedule and
/// returns the violation it still triggers (incrementing the replay
/// counter it is handed).
pub(crate) fn shrink_with(
    mut violates: impl FnMut(&[u64], &mut u32) -> Option<PrefixViolation>,
    schedule: Vec<u64>,
    fallback: PrefixViolation,
) -> (Vec<u64>, PrefixViolation, u32) {
    let mut replays = 0u32;
    let mut best = schedule;
    let mut best_v = match violates(&best, &mut replays) {
        Some(v) => v,
        // The recorded schedule did not reproduce (should not happen:
        // runs are deterministic) — report the original violation.
        None => return (best, fallback, replays),
    };

    // Phase 1: shortest violating prefix. Invariant: `best[..hi]`
    // violates.
    let mut lo = 0usize;
    let mut hi = best.len();
    while lo < hi && replays < MAX_SHRINK_REPLAYS / 2 {
        let mid = lo + (hi - lo) / 2;
        match violates(&best[..mid], &mut replays) {
            Some(v) => {
                hi = mid;
                best_v = v;
            }
            None => lo = mid + 1,
        }
    }
    best.truncate(hi);

    // Phase 2: greedy chunk deletion (ReplayScheduler resyncs over
    // removed entries, so any subset of the schedule is replayable).
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < best.len() {
            if replays >= MAX_SHRINK_REPLAYS {
                return (best, best_v, replays);
            }
            let end = (i + chunk).min(best.len());
            let mut cand = Vec::with_capacity(best.len() - (end - i));
            cand.extend_from_slice(&best[..i]);
            cand.extend_from_slice(&best[end..]);
            match violates(&cand, &mut replays) {
                Some(v) => {
                    best = cand;
                    best_v = v;
                }
                None => i = end,
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    (best, best_v, replays)
}

/// Explores `seeds` hostile schedules ([`SearchScheduler`]) against the
/// system `build` produces, checking every run's full history at every
/// prefix. Stops at the first violation and returns it shrunk; a clean
/// report means every explored schedule linearized.
pub fn search_schedules<M: WireMessage + 'static>(
    build: &mut SystemFactory<'_, M>,
    mk_observer: &ObserverFactory<'_, M>,
    cfg: &CheckerConfig,
    seeds: std::ops::Range<u64>,
    budget: u64,
) -> SearchReport {
    let mut report = SearchReport::default();
    for seed in seeds {
        let (rec, handle) = RecordingScheduler::new(Box::new(SearchScheduler::new(seed)));
        let run = run_conformance(build, mk_observer, cfg, Box::new(rec), budget);
        report.seeds_run += 1;
        report.deliveries += run.outcome.delivered;
        match run.result {
            Ok(w) => report.ops_checked += w.ops_checked as u64,
            Err(v) => {
                let recorded = handle
                    .lock()
                    .expect("a holder of the schedule handle panicked")
                    .clone();
                let (schedule, violation, replays) =
                    shrink(build, mk_observer, cfg, recorded, v, budget);
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
