//! Crash/recover conformance: every algorithm survives crash-restart
//! schedules with durable snapshots, the restart-spanning history passes
//! the prefix checker, and the planted snapshot adversaries (stale
//! rollback, bit rot) are either detected by the `RestartRegression`
//! rule or absorbed within the `f` fault budget.

use bgla::codec::{verify_frame, CodecError};
use bgla::core::gsbs::{GsbsMsg, GsbsProcess};
use bgla::core::gwts::{GwtsMsg, GwtsProcess};
use bgla::core::harness::{
    gsbs_observer, gsbs_system, gwts_observer, gwts_system, sbs_observer, sbs_system, wts_observer,
    wts_system,
};
use bgla::core::linearize::{CheckerConfig, TraceViolation, OP_DECIDE};
use bgla::core::recovery::{
    first_decide_steps, resolve_tactics, run_crash_conformance, search_crash_schedules,
    CorruptingStore, CrashPlan, CrashTactic, DirStore, MemStore, RebuildFn, RollbackStore,
    SnapshotPolicy, SnapshotStore,
};
use bgla::core::sbs::{SbsMsg, SbsProcess};
use bgla::core::search::{Observer, SystemFactory};
use bgla::core::wts::{WtsMsg, WtsProcess};
use bgla::core::SystemConfig;
use bgla::net::{demux_frame, Data, FK_DATA};
use bgla::simnet::{
    FifoScheduler, Process, ProcessId, RandomScheduler, Scheduler, SearchScheduler, WireMessage,
};
use std::collections::{BTreeMap, BTreeSet};

const BUDGET: u64 = 5_000_000;
const N: usize = 4;
const F: usize = 1;
const VICTIM: ProcessId = 0;

fn ident(v: &u64) -> u64 {
    *v
}

/// A snapshot directory no other test or process shares.
fn snapshot_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bgla-recovery-{tag}-{}", std::process::id()))
}

fn gen_schedule(i: usize) -> BTreeMap<u64, Vec<u64>> {
    let mut s = BTreeMap::new();
    s.insert(0, vec![100 + i as u64]);
    s
}

/// Inputs in rounds 0 *and* 1, so the round-1 decision is strictly
/// larger than the round-0 one — the gap a stale round-0 snapshot rolls
/// back over.
fn growing_schedule(i: usize) -> BTreeMap<u64, Vec<u64>> {
    let mut s = BTreeMap::new();
    s.insert(0, vec![100 + i as u64]);
    s.insert(1, vec![200 + i as u64]);
    s
}

// ---------------------------------------------------------------------------
// Rebuild closures: restore-from-snapshot with genesis fallback
// ---------------------------------------------------------------------------

fn wts_rebuild(config: SystemConfig) -> Box<RebuildFn<'static, WtsMsg<u64>>> {
    Box::new(
        move |p, snap| match snap.and_then(|b| WtsProcess::<u64>::from_snapshot(&b).ok()) {
            Some(proc) => (Box::new(proc) as Box<dyn Process<_>>, false),
            None => (
                Box::new(WtsProcess::new(p, config, 10 + p as u64)) as Box<dyn Process<_>>,
                true,
            ),
        },
    )
}

fn sbs_rebuild(config: SystemConfig) -> Box<RebuildFn<'static, SbsMsg<u64>>> {
    Box::new(
        move |p, snap| match snap.and_then(|b| SbsProcess::<u64>::from_snapshot(&b).ok()) {
            Some(proc) => (Box::new(proc) as Box<dyn Process<_>>, false),
            None => (
                Box::new(SbsProcess::new(p, config, 10 + p as u64)) as Box<dyn Process<_>>,
                true,
            ),
        },
    )
}

fn gwts_rebuild(
    config: SystemConfig,
    schedule: fn(usize) -> BTreeMap<u64, Vec<u64>>,
    rounds: u64,
) -> Box<RebuildFn<'static, GwtsMsg<u64>>> {
    Box::new(
        move |p, snap| match snap.and_then(|b| GwtsProcess::<u64>::from_snapshot(&b).ok()) {
            Some(proc) => (Box::new(proc) as Box<dyn Process<_>>, false),
            None => (
                Box::new(GwtsProcess::new(p, config, schedule(p), rounds)) as Box<dyn Process<_>>,
                true,
            ),
        },
    )
}

fn gsbs_rebuild(
    config: SystemConfig,
    schedule: fn(usize) -> BTreeMap<u64, Vec<u64>>,
    rounds: u64,
) -> Box<RebuildFn<'static, GsbsMsg<u64>>> {
    Box::new(
        move |p, snap| match snap.and_then(|b| GsbsProcess::<u64>::from_snapshot(&b).ok()) {
            Some(proc) => (Box::new(proc) as Box<dyn Process<_>>, false),
            None => (
                Box::new(GsbsProcess::new(p, config, schedule(p), rounds)) as Box<dyn Process<_>>,
                true,
            ),
        },
    )
}

// ---------------------------------------------------------------------------
// The honest sweep: scheduler grid × crash tactics, faithful store
// ---------------------------------------------------------------------------

/// Runs one algorithm over fifo/random/search schedules × the four
/// crash tactics with a faithful latest-snapshot store. Every cell must
/// quiesce, restart at least once, keep genesis rejoins within `f`, and
/// pass the restart-spanning prefix checker. Inclusivity is waived for
/// the victim only implicitly: a crashed process may stall in a phase
/// that cannot re-solicit lost traffic (see the recovery contract), so
/// the sweep checks the safety battery plus explicit survivor liveness.
/// A named scheduler grid: (label, scheduler factory) rows.
type SchedGrid<'a> = Vec<(&'a str, Box<dyn Fn() -> Box<dyn Scheduler>>)>;

fn crash_sweep<M: WireMessage + 'static>(
    label: &str,
    build: &mut SystemFactory<'_, M>,
    mk_observer: &dyn Fn() -> Observer<M>,
    rebuild: &mut RebuildFn<'_, M>,
    cfg: &CheckerConfig,
) {
    let grid: SchedGrid<'_> = vec![
        ("fifo", Box::new(|| Box::new(FifoScheduler::new()))),
        ("random", Box::new(|| Box::new(RandomScheduler::new(7)))),
        ("search", Box::new(|| Box::new(SearchScheduler::new(3)))),
    ];
    let safety_cfg = cfg.clone().without_inclusivity();
    for (sched_name, mk_sched) in &grid {
        let pilot = first_decide_steps(build, mk_observer, mk_sched(), BUDGET);
        let tactic_sets: Vec<(&str, Vec<CrashTactic>)> = vec![
            (
                "at-step",
                vec![CrashTactic::AtStep {
                    victim: VICTIM,
                    step: 5,
                    downtime: 30,
                }],
            ),
            (
                "before-decide",
                vec![CrashTactic::BeforeDecide {
                    victim: VICTIM,
                    lead: 3,
                    downtime: 25,
                }],
            ),
            (
                "after-decide",
                vec![CrashTactic::AfterDecide {
                    victim: VICTIM,
                    lag: 2,
                    downtime: 25,
                }],
            ),
            (
                "double-crash",
                vec![CrashTactic::DoubleCrash {
                    victim: VICTIM,
                    step: 6,
                    gap: 12,
                    downtime: 15,
                }],
            ),
        ];
        for (tactic_name, tactics) in &tactic_sets {
            let cell = format!("{label}/{sched_name}/{tactic_name}");
            let plan = resolve_tactics(tactics, &pilot);
            let mut store = MemStore::new();
            let run = run_crash_conformance(
                build,
                mk_observer,
                rebuild,
                SnapshotPolicy::combined(20),
                &mut store,
                &plan,
                &safety_cfg,
                mk_sched(),
                BUDGET,
            );
            assert!(run.outcome.quiescent, "{cell}: did not quiesce");
            assert!(run.restarts >= 1, "{cell}: the plan never restarted");
            assert!(
                run.genesis_rejoins.len() <= F,
                "{cell}: {} genesis rejoins exceed f={F}",
                run.genesis_rejoins.len()
            );
            match run.result {
                Ok(w) => w
                    .validate()
                    .unwrap_or_else(|e| panic!("{cell}: bad witness: {e}")),
                Err(v) => panic!("{cell}: conformance violation: {v}"),
            }
            // Survivor liveness: every honest non-victim decided on the
            // record, crashes notwithstanding.
            let decided: BTreeSet<ProcessId> = run
                .sim
                .trace()
                .expect("tracing enabled")
                .ops_of_kind(OP_DECIDE)
                .map(|o| o.process)
                .collect();
            for p in cfg.honest.iter().filter(|&&p| p != VICTIM) {
                assert!(decided.contains(p), "{cell}: survivor {p} never decided");
            }
        }
    }
}

#[test]
fn wts_crash_recovery_sweep_is_clean() {
    let config = SystemConfig::new(N, F);
    let mut build = |sched: Box<dyn Scheduler>| wts_system(N, F, |i| 10 + i as u64, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    crash_sweep(
        "wts",
        &mut build,
        &|| wts_observer(honest.clone(), ident),
        &mut *wts_rebuild(config),
        &CheckerConfig::honest_system(N, F),
    );
}

#[test]
fn gwts_crash_recovery_sweep_is_clean() {
    let config = SystemConfig::new(N, F);
    let rounds = 3u64;
    let mut build = |sched: Box<dyn Scheduler>| gwts_system(N, F, rounds, gen_schedule, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    crash_sweep(
        "gwts",
        &mut build,
        &|| gwts_observer(honest.clone(), ident),
        &mut *gwts_rebuild(config, gen_schedule, rounds),
        &CheckerConfig::honest_system(N, F),
    );
}

#[test]
fn sbs_crash_recovery_sweep_is_clean() {
    let config = SystemConfig::new(N, F);
    let mut build = |sched: Box<dyn Scheduler>| sbs_system(N, F, |i| 10 + i as u64, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    crash_sweep(
        "sbs",
        &mut build,
        &|| sbs_observer(honest.clone(), ident),
        &mut *sbs_rebuild(config),
        &CheckerConfig::honest_system(N, F),
    );
}

#[test]
fn gsbs_crash_recovery_sweep_is_clean() {
    let config = SystemConfig::new(N, F);
    let rounds = 3u64;
    let mut build = |sched: Box<dyn Scheduler>| gsbs_system(N, F, rounds, gen_schedule, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    crash_sweep(
        "gsbs",
        &mut build,
        &|| gsbs_observer(honest.clone(), ident),
        &mut *gsbs_rebuild(config, gen_schedule, rounds),
        &CheckerConfig::honest_system(N, F),
    );
}

// ---------------------------------------------------------------------------
// Durable files: the DirStore path end-to-end
// ---------------------------------------------------------------------------

#[test]
fn sbs_recovers_from_on_disk_snapshots() {
    let dir = snapshot_dir("sbs");
    let config = SystemConfig::new(N, F);
    let mut build = |sched: Box<dyn Scheduler>| sbs_system(N, F, |i| 10 + i as u64, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    let mk_observer = || sbs_observer(honest.clone(), ident);
    let mut rebuild = sbs_rebuild(config);

    let pilot = first_decide_steps(
        &mut build,
        &mk_observer,
        Box::new(FifoScheduler::new()),
        BUDGET,
    );
    let plan = resolve_tactics(
        &[CrashTactic::AfterDecide {
            victim: VICTIM,
            lag: 2,
            downtime: 25,
        }],
        &pilot,
    );
    let mut store = DirStore::new(&dir).expect("snapshot dir");
    let run = run_crash_conformance(
        &mut build,
        &mk_observer,
        &mut *rebuild,
        SnapshotPolicy::decide_triggered(),
        &mut store,
        &plan,
        &CheckerConfig::honest_system(N, F).without_inclusivity(),
        Box::new(FifoScheduler::new()),
        BUDGET,
    );
    assert!(run.outcome.quiescent);
    assert_eq!(run.restarts, 1);
    assert!(
        run.genesis_rejoins.is_empty(),
        "crash after the decide-triggered save must restore from disk"
    );
    assert!(store.path(VICTIM).exists(), "snapshot file persisted");
    run.result
        .unwrap_or_else(|v| panic!("on-disk recovery violated conformance: {v}"))
        .validate()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Planted adversaries
// ---------------------------------------------------------------------------

/// Multi-round GWTS under a rollback store: the victim's restored
/// snapshot predates its later decisions, and the re-announced stale
/// decision must surface as `RestartRegression`.
#[test]
fn gwts_stale_snapshot_rollback_is_detected() {
    let config = SystemConfig::new(N, F);
    let rounds = 3u64;
    let mut build =
        |sched: Box<dyn Scheduler>| gwts_system(N, F, rounds, growing_schedule, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    let mk_observer = || gwts_observer(honest.clone(), ident);
    let mut rebuild = gwts_rebuild(config, growing_schedule, rounds);

    // Crash once the whole run has quiesced (step = MAX fast-forwards to
    // end-of-run): every decision is in, the rollback gap is maximal.
    let plan = CrashPlan::single(VICTIM, u64::MAX, 1);
    let mut store = RollbackStore::new();
    let run = run_crash_conformance(
        &mut build,
        &mk_observer,
        &mut *rebuild,
        SnapshotPolicy::decide_triggered(),
        &mut store,
        &plan,
        &CheckerConfig::honest_system(N, F).without_inclusivity(),
        Box::new(FifoScheduler::new()),
        BUDGET,
    );
    let v = run
        .result
        .expect_err("a planted stale-snapshot rollback must be detected");
    assert!(
        matches!(
            v.violation,
            TraceViolation::RestartRegression {
                process: VICTIM,
                ..
            }
        ),
        "wrong violation class: {v}"
    );
    println!("planted rollback detected: {v}");
}

/// Same plant for GSbS, and through the schedule search: the violation
/// is schedule-independent, so the first seed finds it and the shrinker
/// reduces the repro to (near) nothing — the printed counterexample is
/// the shrunk, replayable artifact.
#[test]
fn gsbs_rollback_is_detected_and_shrunk_by_search() {
    let config = SystemConfig::new(N, F);
    let rounds = 3u64;
    let mut build =
        |sched: Box<dyn Scheduler>| gsbs_system(N, F, rounds, growing_schedule, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    let mk_observer = || gsbs_observer(honest.clone(), ident);
    let mut rebuild = gsbs_rebuild(config, growing_schedule, rounds);

    let plan = CrashPlan::single(VICTIM, u64::MAX, 1);
    let report = search_crash_schedules(
        &mut build,
        &mk_observer,
        &mut *rebuild,
        SnapshotPolicy::decide_triggered(),
        &|| Box::new(RollbackStore::new()) as Box<dyn SnapshotStore>,
        &plan,
        &CheckerConfig::honest_system(N, F).without_inclusivity(),
        0..2,
        BUDGET,
    );
    let cex = report
        .counterexample
        .expect("the rollback plant must produce a counterexample");
    assert!(
        matches!(
            cex.violation.violation,
            TraceViolation::RestartRegression {
                process: VICTIM,
                ..
            }
        ),
        "wrong violation class: {}",
        cex.violation
    );
    // Schedule-independent violation ⇒ the shrinker strips the schedule
    // essentially bare.
    assert!(
        cex.schedule.len() <= 4,
        "shrunk schedule is not minimal: {} entries",
        cex.schedule.len()
    );
    println!("{cex}");
}

/// One-shot WTS under the same rollback store: the only snapshot *is*
/// the decision, so the stale restore is faithful and the rollback is
/// absorbed — no violation, clean witness.
#[test]
fn wts_rollback_is_absorbed_by_one_shot_durability() {
    let config = SystemConfig::new(N, F);
    let mut build = |sched: Box<dyn Scheduler>| wts_system(N, F, |i| 10 + i as u64, sched).0;
    let honest: Vec<usize> = (0..N).collect();
    let mk_observer = || wts_observer(honest.clone(), ident);
    let mut rebuild = wts_rebuild(config);

    let plan = CrashPlan::single(VICTIM, u64::MAX, 1);
    let mut store = RollbackStore::new();
    let run = run_crash_conformance(
        &mut build,
        &mk_observer,
        &mut *rebuild,
        SnapshotPolicy::decide_triggered(),
        &mut store,
        &plan,
        &CheckerConfig::honest_system(N, F),
        Box::new(FifoScheduler::new()),
        BUDGET,
    );
    assert_eq!(run.restarts, 1);
    assert!(run.genesis_rejoins.is_empty());
    run.result
        .unwrap_or_else(|v| panic!("one-shot rollback must be absorbed: {v}"))
        .validate()
        .unwrap();
}

/// A frame that is sound in every respect except that its header says
/// `version`: the version field rewritten and the checksum recomputed.
fn as_version(version: u16, mut frame: Vec<u8>) -> Vec<u8> {
    frame[4..6].copy_from_slice(&version.to_le_bytes());
    let body = frame.len() - 8;
    let sum = bgla::codec::fnv1a64(&frame[..body]);
    frame[body..].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// Snapshots and transport frames written under another layout — version
/// 1, version 2 from before GWTS acks were delta streams, version 3 with
/// its fixed-width counters, version 4 with one echo per safe-ack,
/// version 5 with a proof per proven record, version 6 with echoed
/// records and certificate digests spelled out, or version 7 whose held
/// records were signed over another encoding — are refused by their
/// version, before any field is parsed.
#[test]
fn version_1_frames_are_rejected_as_bad_version() {
    let config = SystemConfig::new(N, F);
    for version in 1..=7 {
        let bad = Some(CodecError::BadVersion(version));
        let old = |frame| as_version(version, frame);

        let wts = old(WtsProcess::new(0, config, 10u64).snapshot_bytes());
        assert_eq!(verify_frame(&wts).err(), bad);
        assert_eq!(WtsProcess::<u64>::from_snapshot(&wts).err(), bad);
        let gwts = old(GwtsProcess::new(0, config, gen_schedule(0), 3).snapshot_bytes());
        assert_eq!(GwtsProcess::<u64>::from_snapshot(&gwts).err(), bad);
        let sbs = old(SbsProcess::new(0, config, 10u64).snapshot_bytes());
        assert_eq!(SbsProcess::<u64>::from_snapshot(&sbs).err(), bad);
        let gsbs = old(GsbsProcess::new(0, config, gen_schedule(0), 3).snapshot_bytes());
        assert_eq!(GsbsProcess::<u64>::from_snapshot(&gsbs).err(), bad);

        let data = bgla::codec::encode_frame(
            FK_DATA,
            &Data {
                seq: 0,
                depth: 1,
                payload: vec![7],
            },
        );
        assert!(demux_frame(&data).is_ok());
        assert_eq!(demux_frame(&old(data)).err(), bad);
    }
}

/// Unusable snapshots — bit rot that fails the frame checksum on every
/// load, or a file written under frame version 1 — make the victim
/// rejoin from genesis, and the loss is absorbed within `f`: the
/// survivors' history stays conformant.
#[test]
fn corrupt_snapshots_force_genesis_rejoin_within_f() {
    let dir = snapshot_dir("v1");
    let config = SystemConfig::new(N, F);
    // The v1 file is the only snapshot its store ever holds: that run
    // takes none of its own.
    let mut on_disk = DirStore::new(&dir).expect("snapshot dir");
    let v1 = as_version(1, WtsProcess::new(VICTIM, config, 10u64).snapshot_bytes());
    std::fs::write(on_disk.path(VICTIM), v1).expect("seed v1 snapshot");
    let mut bit_rot = CorruptingStore::new();
    let cases: [(&str, &mut dyn SnapshotStore, SnapshotPolicy); 2] = [
        ("bit rot", &mut bit_rot, SnapshotPolicy::decide_triggered()),
        ("version 1", &mut on_disk, SnapshotPolicy::default()),
    ];

    for (label, store, policy) in cases {
        let mut build = |sched: Box<dyn Scheduler>| wts_system(N, F, |i| 10 + i as u64, sched).0;
        let honest: Vec<usize> = (0..N).collect();
        let mk_observer = || wts_observer(honest.clone(), ident);
        let mut rebuild = wts_rebuild(config);

        let plan = CrashPlan::single(VICTIM, u64::MAX, 1);
        let run = run_crash_conformance(
            &mut build,
            &mk_observer,
            &mut *rebuild,
            policy,
            store,
            &plan,
            &CheckerConfig::honest_system(N, F).without_inclusivity(),
            Box::new(FifoScheduler::new()),
            BUDGET,
        );
        assert_eq!(run.restarts, 1, "{label}");
        assert_eq!(
            run.genesis_rejoins,
            [VICTIM].into_iter().collect::<BTreeSet<_>>(),
            "{label}: an unusable snapshot must force a genesis rejoin"
        );
        run.result
            .unwrap_or_else(|v| {
                panic!("{label}: genesis rejoin must stay within the fault budget: {v}")
            })
            .validate()
            .unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
