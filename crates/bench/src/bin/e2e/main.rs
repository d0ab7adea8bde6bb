//! `e2e` — the repository's one benchmark: propose→decide on the simulator,
//! on loopback TCP and through the RSM, with per-layer attribution taken
//! from outside the libraries. See `README.md` beside this file.
//!
//! ```text
//! e2e [--workload W] [--seed S] [--trials T] [--traced] [--selfcheck] [--out DIR]
//! e2e --workload W --seed S --seconds N --trace 0|1       (one gate run)
//! ```
//!
//! Each workload runs in a fresh child process (this binary re-executed
//! with `--child`), so peak RSS, CPU time and thread counts are per
//! workload, and a hung child is killed at its deadline with all its ops
//! counted as failed.
//!
//! # Compatibility surface
//!
//! The benchmark calls only public library items, and later changes may not
//! edit it — so these are the items that must keep their meaning:
//!
//! * `bgla_simnet`: `Process` (`on_start`, `on_message`, `as_any`,
//!   `snapshot`), `Context` (`me`, `depth`, `send`, `broadcast`),
//!   `WireMessage` (`kind`, `wire_size`), `ProcessId`, `Metrics`
//!   (`total_sent`, `total_bytes`, `sent_by_kind`, `bytes_by_kind`,
//!   `delivered`, `net_frames`, `net_frame_bytes`, `net_retransmits`,
//!   `net_dup_frames`, `net_reconnects`, `net_outbox_dropped`),
//!   `SimulationBuilder` (`new`, `scheduler`, `add`, `build`), `Simulation`
//!   (`start`, `step`, `run`, `metrics`, `process_as`, `trace`),
//!   `RandomScheduler::new`, `FifoScheduler::new`, `Trace`, `Transport`
//!   (`run_transport`, `with_process`, `metrics_snapshot`), `NodeObserver`.
//! * `bgla_net`: `NetConfig { faults, seed, deadline_ms, ..Default }`,
//!   `FaultPlan::{new, none}`, `FaultConfig::chaos`, `TcpRuntimeBuilder`
//!   (`new`, `add`, `add_observed`, `build`), `TcpRuntime` (`shutdown`,
//!   `take_trace`), `demux_frame`, `Data`, `FK_DATA`.
//! * `bgla_core`: `SystemConfig::new`, `ValueSet` (`len`, `contains`,
//!   `is_subset`, `join`, `as_slice`, `iter`, `clone`, `FromIterator`),
//!   `gwts::{GwtsProcess, GwtsMsg, AckRecord}` (`new`, `all_inputs`,
//!   `decisions`, `refinements`, `round`, `ack_history_len`,
//!   `snapshot_bytes`, `from_snapshot`), `gsbs::{GsbsProcess, GsbsMsg}`
//!   (same, minus `refinements`), `wts::WtsProcess` and `sbs::SbsProcess`
//!   (`decision_depth`), `harness::{gwts_observer, gsbs_observer,
//!   gwts_node_observer, gsbs_node_observer, wts_system, sbs_system}`,
//!   `search::{run_traced, op_priority, Observer}`,
//!   `linearize::{check_trace, CheckerConfig, Witness::validate}`,
//!   `adversary::gwts::{BatchEquivocator, RoundJumper}`,
//!   `adversary::gsbs::BogusRefSender`.
//! * `bgla_rsm`: `Replica` (`new`, `inner`), `WorkloadClient` (`new`,
//!   `results`, `finished`, `reads`, `client_id`), `ClientOp`, `Op`, `Cmd`,
//!   `RsmMsg`, `CounterState::execute`, `checks::{check_liveness,
//!   check_read_consistency, check_read_monotonicity,
//!   check_update_visibility, check_update_stability}`.
//! * `bgla_crypto`: `Keypair::{for_process, sign}`, `Keyring::{for_system,
//!   verify, verify_batch}`, `Signature`.
//! * `bgla_codec`: `Wire`, `encode_payload`, `decode_payload`,
//!   `encode_frame`.
//! * `bgla_rbcast`: `RbMsg`, `RbcastEngine::{new, on_message}`.
//!
//! Deliberately *not* used, because ROADMAP slates them for replacement:
//! `VerifierStats`, `proof_cache_stats`, `SharedCounters`, the `classic`
//! and `threaded` runtimes, `MidCrash`, `LinkConfig` fields,
//! `poller_threads`, and every `with_*` switch.

mod catalog;
mod kernels;
mod measure;
mod observed;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use catalog::{EndToEnd, END_TO_END, PER_LAYER};
use measure::{run_workload, Length, Metric, Outcome};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// Seconds one gate run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Workloads in the regression gate: those on which no op fails and whose
/// numbers repeat within the bounds today. Every full pass runs all six;
/// the README's first findings say why two gate nothing yet: `sim_rsm_read`
/// hangs clients on most seeds, and `tcp_gwts_n4`'s wall-clock metrics
/// spread by 18–28% between identical runs on two cores.
pub const GATED: [&str; 4] = [
    "sim_gwts_n10",
    "sim_gsbs_n7",
    "tcp_gwts_n4_chaos",
    "sim_rsm_update",
];

const DEFAULT_SEED: u64 = 1;

/// A gate run must be over inside the driver's 180 s limit, start-up
/// included.
const GATE_DEADLINE: Duration = Duration::from_secs(165);

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    trials: Option<usize>,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    selfcheck: bool,
    child: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--trials" => {
                a.trials = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?,
                )
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => a.out = Some(PathBuf::from(value("a directory")?)),
            "--traced" => a.traced = true,
            "--selfcheck" => a.selfcheck = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &a.workload {
        if Workload::by_name(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("e2e: {why}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return child(&args);
    }
    if args.seconds.is_some() || args.trace.is_some() {
        return gate_run(&args);
    }
    if args.selfcheck {
        return selfcheck(&args);
    }
    full_pass(&args)
}

// ---------------------------------------------------------------------------
// Child: run one workload, print its numbers line by line
// ---------------------------------------------------------------------------

/// Notes past this many are dropped: the parent reads the child's output
/// only after it exits, so it must fit the pipe.
const MAX_NOTES: usize = 24;

fn child(args: &Args) -> ExitCode {
    let Some(w) = args.workload.as_deref().and_then(Workload::by_name) else {
        eprintln!("e2e: --child needs --workload");
        return ExitCode::from(2);
    };
    let length = match (args.seconds, args.trials) {
        (Some(s), _) => Length::Seconds(s),
        (None, t) => Length::Trials(t.unwrap_or(w.trials)),
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let outcome = run_workload(w, seed, length, args.traced);
    if let (Some(dir), true) = (&args.out, args.traced) {
        if let Err(e) = write_spans(dir, w, seed, &outcome) {
            eprintln!("e2e: writing the span file: {e}");
        }
    }
    let mut text = String::new();
    for m in &outcome.metrics {
        let _ = writeln!(text, "metric {} {:?} {}", m.name, m.value, m.samples);
    }
    for note in outcome.notes.iter().take(MAX_NOTES) {
        let _ = writeln!(text, "note {}", note.replace('\n', " "));
    }
    if outcome.notes.len() > MAX_NOTES {
        let _ = writeln!(text, "note … and {} more", outcome.notes.len() - MAX_NOTES);
    }
    let _ = writeln!(
        text,
        "result {} {} {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    print!("{text}");
    ExitCode::SUCCESS
}

/// Spans kept in the span file; a `sim_gwts_n10` trial alone has ~550k.
const SPAN_FILE_CAP: usize = 200_000;

fn write_spans(dir: &Path, w: &Workload, seed: u64, outcome: &Outcome) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("trace_{}.json", w.name)))?;
    let mut f = std::io::BufWriter::new(file);
    let (layer, _) = w.algo();
    write!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trial\": \"last traced\", \
         \"spans_total\": {}, \"spans_written\": {}, \"spans\": [",
        w.name,
        outcome.spans.len(),
        outcome.spans.len().min(SPAN_FILE_CAP)
    )?;
    for (i, (node, s)) in outcome.spans.iter().take(SPAN_FILE_CAP).enumerate() {
        let name = match w.system {
            workloads::SystemKind::SimRsm { .. } if *node >= w.n => "rsm.client",
            workloads::SystemKind::SimRsm { .. } => "rsm.replica",
            _ => layer,
        };
        let round = s.round.map_or("null".to_string(), |r| r.to_string());
        write!(
            f,
            "{}\n{{\"name\": \"{name}\", \"kind\": \"{}\", \"node\": {node}, \"start_ns\": {}, \
             \"end_ns\": {}, \"cause_from\": {}, \"cause_depth\": {}, \"round\": {round}}}",
            if i == 0 { "" } else { "," },
            s.kind,
            s.start_ns,
            s.end_ns,
            s.from,
            s.depth
        )?;
    }
    writeln!(f, "\n]}}")?;
    f.flush()
}

// ---------------------------------------------------------------------------
// Parent: spawn a child per workload, with a deadline
// ---------------------------------------------------------------------------

struct ChildSpec<'a> {
    w: &'a Workload,
    seed: u64,
    length: Length,
    traced: bool,
    out: Option<&'a Path>,
    deadline: Duration,
}

/// Runs one workload in a fresh child and parses what it printed. A child
/// that overruns its deadline is killed; a child that dies or prints
/// nonsense yields an incorrect outcome with every expected op failed —
/// never a panic, never a silently missing workload.
fn run_child(spec: &ChildSpec<'_>) -> Outcome {
    let lost = |why: String| {
        let trials = match spec.length {
            Length::Trials(n) => n,
            Length::Seconds(_) => 1,
        };
        let attempted = (trials * spec.w.ops_per_trial(spec.w.n)).max(1);
        Outcome {
            correct: false,
            attempted,
            failed: attempted,
            notes: vec![why],
            ..Outcome::default()
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return lost(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", spec.w.name])
        .args(["--seed", &spec.seed.to_string()]);
    match spec.length {
        Length::Trials(n) => cmd.args(["--trials", &n.to_string()]),
        Length::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
    };
    if spec.traced {
        cmd.arg("--traced");
    }
    if let Some(dir) = spec.out {
        cmd.arg("--out").arg(dir);
    }
    let mut child = match cmd.stdout(Stdio::piped()).spawn() {
        Ok(c) => c,
        Err(e) => return lost(format!("spawn: {e}")),
    };
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if started.elapsed() < spec.deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return lost(format!(
                    "killed at its {} s deadline",
                    spec.deadline.as_secs()
                ));
            }
            Err(e) => return lost(format!("wait: {e}")),
        }
    }
    match child.wait_with_output() {
        Ok(o) if o.status.success() => parse_child(&String::from_utf8_lossy(&o.stdout))
            .unwrap_or_else(|| lost("child printed no result line".into())),
        Ok(o) => lost(format!("child exited with {}", o.status)),
        Err(e) => lost(format!("reading the child's output: {e}")),
    }
}

/// A metric's `(unit, good direction)` from the catalog.
fn meta_of(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map_or(("", ""), |(_, unit, better)| (unit, better.as_str()))
}

fn parse_child(text: &str) -> Option<Outcome> {
    let mut out = Outcome::default();
    let mut done = false;
    for line in text.lines() {
        let mut f = line.split_ascii_whitespace();
        match f.next() {
            Some("metric") => {
                let name = f.next()?;
                out.metrics.push(Metric {
                    name: name.into(),
                    unit: meta_of(name).0,
                    value: f.next()?.parse().ok()?,
                    samples: f.next()?.parse().ok()?,
                });
            }
            Some("note") => out
                .notes
                .push(line.strip_prefix("note ").unwrap_or_default().into()),
            Some("result") => {
                out.correct = f.next()?.parse().ok()?;
                out.attempted = f.next()?.parse().ok()?;
                out.failed = f.next()?.parse().ok()?;
                done = true;
            }
            _ => {}
        }
    }
    done.then_some(out)
}

// ---------------------------------------------------------------------------
// The gate run: one workload, one JSON line
// ---------------------------------------------------------------------------

fn gate_run(args: &Args) -> ExitCode {
    let Some(w) = args.workload.as_deref().and_then(Workload::by_name) else {
        eprintln!("e2e: a gate run needs --workload");
        return ExitCode::from(2);
    };
    let traced = args.trace.unwrap_or(false);
    let outcome = run_child(&ChildSpec {
        w,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        length: Length::Seconds(args.seconds.unwrap_or(RUN_SECONDS as f64)),
        traced,
        out: None,
        deadline: GATE_DEADLINE,
    });
    for note in &outcome.notes {
        eprintln!("e2e: {}: {note}", w.name);
    }
    println!("{}", gate_json(&outcome, traced));
    ExitCode::SUCCESS
}

/// The result line of a gate run: every metric of the pass by name, a lost
/// one as 0.
fn gate_json(outcome: &Outcome, traced: bool) -> String {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = outcome
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

// ---------------------------------------------------------------------------
// The full pass: every workload, every metric by name
// ---------------------------------------------------------------------------

fn selected(args: &Args) -> Vec<&'static Workload> {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect()
}

fn full_deadline(w: &Workload, trials: usize, traced: bool) -> Duration {
    let scale = trials.div_ceil(w.trials).max(1) as u64 * if traced { 3 } else { 1 };
    Duration::from_secs(w.deadline_s * scale)
}

fn run_pass(args: &Args, traced: bool) -> Vec<(&'static Workload, Outcome)> {
    selected(args)
        .into_iter()
        .map(|w| {
            // A traced pass runs every trial twice (timed, then traced), so
            // half the trials make it about as long as an untraced one.
            let default = if traced {
                (w.trials / 2).max(2)
            } else {
                w.trials
            };
            let trials = args.trials.unwrap_or(default);
            let outcome = run_child(&ChildSpec {
                w,
                seed: args.seed.unwrap_or(DEFAULT_SEED),
                length: Length::Trials(trials),
                traced,
                out: args.out.as_deref(),
                deadline: full_deadline(w, trials, traced),
            });
            (w, outcome)
        })
        .collect()
}

/// A value to four decimals, or to four significant digits when that
/// would print as zero (set-up of a simulated system takes microseconds).
fn shown(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn print_outcome(w: &Workload, o: &Outcome, traced: bool) {
    println!();
    println!(
        "== {} ({}) — {} ops attempted, {} failed, failed_ops_ratio {:.4}, outputs {}",
        w.name,
        if traced {
            "traced pass"
        } else {
            "untraced pass"
        },
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
        if o.correct { "correct" } else { "WRONG" }
    );
    println!("   why: {}", w.why);
    if !w.is_tcp() && !traced {
        println!("   (latencies on sim_* are processor time under instant delivery)");
    }
    // A per-layer metric of a layer the workload does not exercise reads 0.
    let exercised = |m: &&Metric| !traced || m.value != 0.0;
    let skipped = o.metrics.len() - o.metrics.iter().filter(exercised).count();
    if skipped > 0 {
        println!("   ({skipped} per-layer metrics this workload does not exercise read 0 and are not shown)");
    }
    for m in o.metrics.iter().filter(exercised) {
        let extra = if m.name == "op_delays_max" {
            format!(
                "   [paper: one decision within {} delays at f={}; an op may wait a round]",
                w.paper_delay_bound(),
                w.f
            )
        } else {
            String::new()
        };
        println!(
            "   {:<44} {:>16} {:<8} n={:<6} {} is better{extra}",
            m.name,
            shown(m.value),
            m.unit,
            m.samples,
            meta_of(&m.name).1
        );
    }
    for note in &o.notes {
        println!("   note: {note}");
    }
}

fn full_pass(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "e2e: seed {}, nproc {nproc}, {}",
        args.seed.unwrap_or(DEFAULT_SEED),
        if args.traced {
            "traced pass (per-layer metrics; end-to-end numbers come from the untraced pass only)"
        } else {
            "untraced pass (end-to-end metrics)"
        }
    );
    let results = run_pass(args, args.traced);
    let mut ok = true;
    for (w, o) in &results {
        print_outcome(w, o, args.traced);
        ok &= o.correct;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: at least one workload's outputs were wrong or its child was lost");
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// --selfcheck: two untraced passes of the same code must agree
// ---------------------------------------------------------------------------

/// How two passes of one metric compare: the relative difference, and
/// whether it is acceptable.
fn agreement(m: &EndToEnd, sim: bool, a: f64, b: f64) -> (f64, bool) {
    let spread = if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    };
    let ok = if sim && m.exact_on_sim {
        a.to_bits() == b.to_bits()
    } else {
        spread <= m.bound
    };
    (spread, ok)
}

fn selfcheck(args: &Args) -> ExitCode {
    println!("e2e --selfcheck: two untraced passes, same seed, fresh children");
    let first = run_pass(args, false);
    let second = run_pass(args, false);
    let mut ok = true;
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        println!();
        println!("== {}", w.name);
        if !(a.correct && b.correct) {
            println!("   outputs wrong or child lost in one of the passes");
            ok = false;
        }
        for m in &END_TO_END {
            let value = |o: &Outcome| o.metrics.iter().find(|x| x.name == m.name).map(|x| x.value);
            let (Some(va), Some(vb)) = (value(a), value(b)) else {
                println!("   {:<20} missing", m.name);
                ok = false;
                continue;
            };
            let (spread, agrees) = agreement(m, !w.is_tcp(), va, vb);
            ok &= agrees;
            println!(
                "   {:<20} {:>14} {:>14} {:<7} ({} is better)  spread {:>6.2}%  bound {:>4.0}%{}  {}",
                m.name,
                shown(va),
                shown(vb),
                m.unit,
                m.better.as_str(),
                spread * 100.0,
                m.bound * 100.0,
                if !w.is_tcp() && m.exact_on_sim { " (exact)" } else { "" },
                if agrees { "ok" } else { "DISAGREES" }
            );
        }
        if a.failed != b.failed {
            println!("   failed ops differ: {} vs {}", a.failed, b.failed);
            ok &= w.is_tcp();
        }
    }
    if ok {
        println!("\nselfcheck: the two passes agree");
        ExitCode::SUCCESS
    } else {
        println!("\nselfcheck: the two passes DISAGREE");
        ExitCode::FAILURE
    }
}
