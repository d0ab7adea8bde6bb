//! What is measured over a workload's trials, and how trials turn into the
//! named metrics of `catalog.rs`. Runs inside the workload's child process.
//!
//! A pass is: set-up samples, the untimed check trial (trial 0, which is
//! also the warm-up), then timed trials on seeds `S+1, S+2, …` until the
//! trial count or the time budget is reached. End-to-end metrics come from
//! the timed, untraced trials only. Counts are pooled over trials. Anything
//! timed is taken per trial and reported as the *better quartile* over
//! trials (the first quartile of a cost, the third of a rate): on a shared
//! machine interference only ever slows a trial down, and it comes in
//! episodes that can cover half a run, so the better quartile is the
//! steadier estimate of what the program itself costs. The largest op delay
//! is a tail, not a time: it is the third quartile over trials of each
//! trial's maximum (`end_to_end` says why). A traced pass interleaves one
//! traced trial after every timed one, so both see the same machine, and
//! adds the Byzantine check pass and the kernels attached to the workload.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::kernels::{self, Layer};
use crate::observed::self_time_ns;
use crate::stats::{grouped_median, median, peak_rss_mb, percentile};
use crate::workloads::{rsm_op_is_read, run_trial, Mode, SystemKind, Trial, Workload};
use bgla_simnet::Metrics;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// A fixed number of timed trials: counts repeat exactly on `sim_*`.
    Trials(usize),
    /// As many timed trials as start within this many seconds.
    Seconds(f64),
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (ops for percentiles, trials otherwise).
    pub samples: usize,
}

/// The result of one pass over one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Spans of the last traced trial, for the span file.
    pub spans: Vec<(usize, crate::observed::Span)>,
}

/// Set-up is sampled in small batches before every timed trial, so the
/// samples span the whole run rather than its first millisecond: up to
/// `SETUP_BATCH` builds, fewer (but at least `SETUP_BATCH_MIN`) when a build
/// is slow enough to use up `SETUP_BATCH_BUDGET`.
const SETUP_BATCH: usize = 15;
const SETUP_BATCH_MIN: usize = 3;
const SETUP_BATCH_BUDGET: Duration = Duration::from_millis(25);

fn sample_setup(w: &Workload, seed: u64, into: &mut Vec<f64>) {
    let t0 = Instant::now();
    for i in 0..SETUP_BATCH {
        if i >= SETUP_BATCH_MIN && t0.elapsed() >= SETUP_BATCH_BUDGET {
            break;
        }
        into.push(run_trial(w, seed, Mode::SetupOnly).setup.as_secs_f64());
    }
}

/// What a set of trials adds up to.
#[derive(Default)]
struct Totals {
    trials: usize,
    attempted: usize,
    completed: usize,
    failed: usize,
    run_s: f64,
    cpu_s: f64,
    cpu_user_s: f64,
    cpu_sys_s: f64,
    /// Every trial's accounting, merged.
    metrics: Metrics,
    latencies_ms: Vec<f64>,
    delays: Vec<u64>,
    delays_update: Vec<u64>,
    delays_read: Vec<u64>,
    /// Per sound trial: ops/s, latency p50 and p90 in ms, CPU ms per op,
    /// and the largest op delay.
    ops_per_s_each: Vec<f64>,
    p50_each: Vec<f64>,
    p90_each: Vec<f64>,
    cpu_ms_per_op_each: Vec<f64>,
    delays_max_each: Vec<f64>,
    run_each_s: Vec<f64>,
    /// Per trial, by name: what each trial put in its `layer` map.
    layer_each: BTreeMap<String, Vec<f64>>,
}

impl Totals {
    /// Folds one trial in. Ops of an unsound trial all count as failed, and
    /// none of its samples is kept.
    fn add(&mut self, w: &Workload, t: &Trial) {
        self.trials += 1;
        self.attempted += t.attempted;
        self.run_s += t.run.as_secs_f64();
        self.run_each_s.push(t.run.as_secs_f64());
        self.cpu_s += t.cpu.as_secs_f64();
        self.cpu_user_s += t.cpu_user.as_secs_f64();
        self.cpu_sys_s += t.cpu_sys.as_secs_f64();
        if let Some(m) = &t.metrics {
            self.metrics.merge(m);
        }
        for (k, v) in &t.layer {
            self.layer_each.entry(k.clone()).or_default().push(*v);
        }
        if !t.sound() {
            self.failed += t.attempted;
            return;
        }
        self.completed += t.ops.len();
        self.failed += t.attempted.saturating_sub(t.ops.len());
        let reads = matches!(w.system, SystemKind::SimRsm { reads: true });
        let mut lat = Vec::with_capacity(t.ops.len());
        let mut delay_max = 0;
        for op in &t.ops {
            let r = op.rec;
            lat.push(r.done_ns.saturating_sub(r.submit_ns) as f64 / 1e6);
            let d = r.done_depth.saturating_sub(r.submit_depth);
            delay_max = delay_max.max(d);
            self.delays.push(d);
            if matches!(w.system, SystemKind::SimRsm { .. }) {
                if rsm_op_is_read(reads, r.key) {
                    self.delays_read.push(d);
                } else {
                    self.delays_update.push(d);
                }
            }
        }
        if let (Some((p50, n)), Some((p90, _))) =
            (percentile(&mut lat, 50.0), percentile(&mut lat, 90.0))
        {
            self.p50_each.push(p50);
            self.p90_each.push(p90);
            self.ops_per_s_each.push(n as f64 / t.run.as_secs_f64());
            self.cpu_ms_per_op_each
                .push(t.cpu.as_secs_f64() * 1e3 / n as f64);
            self.delays_max_each.push(delay_max as f64);
        }
        self.latencies_ms.append(&mut lat);
    }

    fn per_op(&self, total: f64) -> f64 {
        total / self.completed.max(1) as f64
    }

    /// Third quartile over trials of each trial's completed ops per second.
    fn ops_per_s(&self) -> f64 {
        better_quartile(&self.ops_per_s_each, Better::Higher).0
    }

    fn layer(&self, key: &str) -> &[f64] {
        self.layer_each.get(key).map_or(&[], Vec::as_slice)
    }

    fn layer_sum(&self, key: &str) -> Option<f64> {
        let each = self.layer(key);
        (!each.is_empty()).then(|| each.iter().sum())
    }

    fn layer_median(&self, key: &str) -> Option<f64> {
        median(&mut self.layer(key).to_vec())
    }
}

/// Runs one pass of `w` and names its numbers.
pub fn run_workload(w: &Workload, seed: u64, length: Length, traced: bool) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setups = Vec::new();

    // Trial 0: the check trial. Untimed, and the warm-up.
    let check = run_trial(w, seed, Mode::Check);
    if let Some(Err(why)) = &check.verdict {
        out.correct = false;
        out.notes.push(format!("check trial (seed {seed}): {why}"));
    }
    out.notes.extend(check.notes.iter().cloned());

    let mut timed = Totals::default();
    let mut spanned = Totals::default();
    let mut span_stats = SpanStats::default();
    // The wrapper's own cost, on the workload where a call is cheapest: the
    // first trials' seeds run once more without it, back to back.
    let mut wrapper_cost = (0.0, 0.0);
    let started = Instant::now();
    let mut t = 0u64;
    loop {
        t += 1;
        sample_setup(w, seed.wrapping_add(t), &mut setups);
        let trial = run_trial(w, seed.wrapping_add(t), Mode::Timed);
        note_trial(&mut out, &trial);
        timed.add(w, &trial);
        if traced && w.system == SystemKind::SimGwts && t <= 3 {
            let bare = run_trial(w, seed.wrapping_add(t), Mode::Bare);
            wrapper_cost.0 += trial.run.as_secs_f64();
            wrapper_cost.1 += bare.run.as_secs_f64();
        }
        if traced {
            let kernels = t == 1;
            let trial = run_trial(w, seed.wrapping_add(t), Mode::Traced { kernels });
            note_trial(&mut out, &trial);
            spanned.add(w, &trial);
            span_stats.add(w, &trial);
            out.spans = trial.spans;
        }
        let done = match length {
            Length::Trials(n) => timed.trials >= n,
            Length::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }
    out.attempted = timed.attempted;
    out.failed = timed.failed;

    if traced {
        let mut layer = per_layer(w, &timed, &spanned, &span_stats, &check);
        if wrapper_cost.1 > 0.0 {
            layer.insert(
                "bench.observer_overhead_ratio".into(),
                wrapper_cost.0 / wrapper_cost.1,
            );
        }
        out.notes.push(span_stats.top_by_self_time(w, &spanned));
        attached_kernels(w, seed, &timed, &mut layer, &mut out);
        for m in PER_LAYER {
            out.metrics.push(Metric {
                name: m.name.into(),
                unit: m.unit,
                value: layer.get(m.name).copied().unwrap_or(0.0),
                samples: spanned.trials,
            });
        }
    } else {
        let values = end_to_end(w, &timed, &setups);
        for (m, (value, samples)) in END_TO_END.iter().zip(values) {
            out.metrics.push(Metric {
                name: m.name.into(),
                unit: m.unit,
                value,
                samples,
            });
        }
    }
    out
}

fn note_trial(out: &mut Outcome, trial: &Trial) {
    if let Some(Err(why)) = &trial.verdict {
        out.correct = false;
        out.notes.push(format!("trial failed its checks: {why}"));
    }
    // The traced twin of a timed trial finds the same things.
    for note in &trial.notes {
        if !out.notes.contains(note) {
            out.notes.push(note.clone());
        }
    }
}

/// The better quartile of per-trial samples, with the sample count: the
/// 25th percentile of a cost, the 75th of a rate. See the module docs.
fn better_quartile(each: &[f64], better: Better) -> (f64, usize) {
    let p = match better {
        Better::Lower => 25.0,
        Better::Higher => 75.0,
    };
    percentile(&mut each.to_vec(), p).unwrap_or_default()
}

/// The nine end-to-end values, in `END_TO_END` order, with sample counts
/// (ops behind a percentile, trials behind a quartile over trials).
fn end_to_end(w: &Workload, t: &Totals, setups: &[f64]) -> [(f64, usize); 9] {
    let over_trials = |each: &[f64]| better_quartile(each, Better::Lower);
    let ops = t.latencies_ms.len();
    let d50 = grouped_median(&mut t.delays.clone()).unwrap_or_default();
    // What a user of the wire pays: bytes written to sockets on TCP; the
    // modeled bytes under the simulator, which has no wire.
    let bytes = if w.is_tcp() {
        t.metrics.net_frame_bytes
    } else {
        t.metrics.total_bytes()
    };
    [
        // Thread spawn and bind have a long slow tail that moves with the
        // machine's other tenants; the 10th percentile of the builds does
        // not.
        percentile(&mut setups.to_vec(), 10.0).unwrap_or_default(),
        better_quartile(&t.ops_per_s_each, Better::Higher),
        (over_trials(&t.p50_each).0, ops),
        (over_trials(&t.p90_each).0, ops),
        d50,
        // Not a time, so no neighbour slows it; and bimodal: a trial in
        // which a few ops miss their round and wait for the next has about
        // twice the largest delay of one in which none does, and the share
        // of such trials (70% on `sim_gwts_n10`) moves with the seeds. The
        // quartile on the tail's side stays inside the slow mode; the first
        // quartile sat on the boundary and flipped between the two.
        (
            percentile(&mut t.delays_max_each.clone(), 75.0)
                .unwrap_or_default()
                .0,
            ops,
        ),
        (t.per_op(t.metrics.total_sent() as f64), t.trials),
        (t.per_op(bytes as f64), t.trials),
        (peak_rss_mb(), 1),
    ]
}

/// Handler spans of the traced trials, grouped the ways the per-layer
/// metrics need them.
#[derive(Default)]
struct SpanStats {
    busy_ns_by_kind: BTreeMap<&'static str, u64>,
    call_ns: Vec<f64>,
    replica_busy_ns: u64,
    client_busy_ns: u64,
    busy_ns: u64,
    /// Run time not covered by any handler span, summed over trials.
    engine_self_ns: u64,
}

impl SpanStats {
    fn add(&mut self, w: &Workload, t: &Trial) {
        let mut intervals = Vec::with_capacity(t.spans.len());
        for (node, s) in &t.spans {
            let d = s.end_ns.saturating_sub(s.start_ns);
            *self.busy_ns_by_kind.entry(s.kind).or_insert(0) += d;
            self.call_ns.push(d as f64);
            self.busy_ns += d;
            if *node < w.n {
                self.replica_busy_ns += d;
            } else {
                self.client_busy_ns += d;
            }
            intervals.push((s.start_ns, s.end_ns));
        }
        // Under the simulator handlers run one at a time inside `run`, so
        // the engine's self time is the run minus what the spans cover.
        if let Some(&(start, _)) = intervals.iter().min() {
            let run_ns = u64::try_from(t.run.as_nanos()).unwrap_or(u64::MAX);
            self.engine_self_ns += self_time_ns((start, start + run_ns), &mut intervals);
        }
    }
}

impl SpanStats {
    /// The three largest shares of the traced trials' time: handler spans by
    /// message kind, and what no handler span covers — the engine under the
    /// simulator, transport and kernel (as process CPU) over TCP.
    fn top_by_self_time(&self, w: &Workload, spanned: &Totals) -> String {
        let (algo, _) = w.algo();
        let mut parts: Vec<(String, f64)> = self
            .busy_ns_by_kind
            .iter()
            .map(|(k, ns)| (format!("{algo}:{k}"), *ns as f64))
            .collect();
        let total = if w.is_tcp() {
            let cpu_ns = spanned.cpu_s * 1e9;
            parts.push((
                "net+kernel (CPU outside handlers)".into(),
                cpu_ns - self.busy_ns as f64,
            ));
            cpu_ns
        } else {
            parts.push((
                "simnet (engine self time)".into(),
                self.engine_self_ns as f64,
            ));
            spanned.run_s * 1e9
        };
        parts.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = parts
            .iter()
            .take(3)
            .map(|(name, ns)| format!("{name} {:.1}%", 100.0 * ns / total))
            .collect();
        format!("top three by self time: {}", top.join(", "))
    }
}

fn per_layer(
    w: &Workload,
    timed: &Totals,
    spanned: &Totals,
    s: &SpanStats,
    check: &Trial,
) -> Layer {
    let mut l = Layer::new();
    let mut put = |name: &str, v: f64| {
        if v.is_finite() {
            l.insert(name.to_string(), v);
        }
    };
    let (algo, kinds) = w.algo();
    let m = &timed.metrics;
    let (sent, modeled) = (m.total_sent() as f64, m.total_bytes() as f64);

    // Protocol handlers, from spans; bytes per kind from the untraced pass.
    let algo_busy: u64 = kinds.iter().filter_map(|k| s.busy_ns_by_kind.get(k)).sum();
    let per_traced_op = |ns: u64| spanned.per_op(ns as f64);
    put(&format!("{algo}.busy_ns_per_op"), per_traced_op(algo_busy));
    let mut calls = s.call_ns.clone();
    if let Some((p50, _)) = percentile(&mut calls, 50.0) {
        put(&format!("{algo}.call_ns_p50"), p50);
    }
    if let Some((p99, _)) = percentile(&mut calls, 99.0) {
        put(&format!("{algo}.call_ns_p99"), p99);
    }
    let busy_base_s = if w.is_tcp() {
        spanned.cpu_s
    } else {
        spanned.run_s
    };
    put(
        &format!("{algo}.busy_share"),
        algo_busy as f64 / 1e9 / busy_base_s,
    );
    if let Some(r) = timed.layer_sum("refinements") {
        put(&format!("{algo}.refinements_per_op"), timed.per_op(r));
    }
    for k in kinds {
        let busy = s.busy_ns_by_kind.get(k).copied().unwrap_or(0);
        put(&format!("{algo}.busy_ns_per_op.{k}"), per_traced_op(busy));
        let bytes = m.bytes_by_kind.get(k).copied().unwrap_or(0);
        put(
            &format!("{algo}.bytes_per_op.{k}"),
            timed.per_op(bytes as f64),
        );
    }

    // Reliable broadcast's share of the traffic (GWTS and the RSM).
    if algo == "core.gwts" {
        let rb = |by_kind: &BTreeMap<&'static str, u64>| -> f64 {
            by_kind
                .iter()
                .filter(|(k, _)| {
                    k.starts_with("disc_") || k.starts_with("ack_") && **k != "ack_req"
                })
                .map(|(_, v)| *v as f64)
                .sum()
        };
        put("rbcast.msgs_share", rb(&m.sent_by_kind) / sent);
        put("rbcast.bytes_share", rb(&m.bytes_by_kind) / modeled);
    }

    // The check trial: checker cost, and what recording a history costs.
    for k in ["core.linearize.check_ms", "core.linearize.ops_checked"] {
        if let Some(v) = check.layer.get(k) {
            put(k, *v);
        }
    }

    if w.is_tcp() {
        let t = timed;
        put("net.frames_per_op", t.per_op(m.net_frames as f64));
        put("net.retransmits_per_op", t.per_op(m.net_retransmits as f64));
        put("net.dup_frames_per_op", t.per_op(m.net_dup_frames as f64));
        put("net.reconnects_per_op", t.per_op(m.net_reconnects as f64));
        put("net.outbox_dropped", m.net_outbox_dropped as f64);
        put(
            "net.wire_over_modeled_ratio",
            m.net_frame_bytes as f64 / modeled,
        );
        if w.system == (SystemKind::TcpGwts { chaos: false }) {
            put(
                "net.spurious_retransmit_ratio",
                m.net_retransmits as f64 / m.net_frames as f64,
            );
        }
        put("net.cpu_user_ms_per_op", t.per_op(t.cpu_user_s * 1e3));
        put("net.cpu_sys_ms_per_op", t.per_op(t.cpu_sys_s * 1e3));
        put(
            "net.nonhandler_cpu_share",
            1.0 - s.busy_ns as f64 / 1e9 / spanned.cpu_s,
        );
        if let Some(c) = t.layer_sum("ctx_switches") {
            put("net.ctx_switches_per_op", t.per_op(c));
        }
        for k in ["net.threads", "net.shutdown_ms"] {
            if let Some(v) = t.layer_median(k) {
                put(k, v);
            }
        }
        if let Some((p99, _)) = percentile(&mut t.latencies_ms.clone(), 99.0) {
            put("net.op_latency_p99_ms", p99);
        }
    } else {
        put(
            "simnet.step_self_ns",
            s.engine_self_ns as f64 / spanned.metrics.delivered.max(1) as f64,
        );
        put("simnet.deliveries_per_s", m.delivered as f64 / timed.run_s);
        if let Some(typical) = median(&mut timed.run_each_s.clone()) {
            put(
                "simnet.trace_overhead_ratio",
                check.run.as_secs_f64() / typical,
            );
        }
    }

    if let SystemKind::SimRsm { reads } = w.system {
        put(
            "rsm.replica_busy_ns_per_op",
            per_traced_op(s.replica_busy_ns),
        );
        put("rsm.client_busy_ns_per_op", per_traced_op(s.client_busy_ns));
        if let Some(r) = timed.layer_sum("rsm.rounds") {
            put("rsm.rounds_per_op", timed.per_op(r));
        }
        let name = if reads {
            "rsm.msgs_per_read"
        } else {
            "rsm.msgs_per_update"
        };
        put(name, timed.per_op(sent));
        if let Some((d, _)) = grouped_median(&mut timed.delays_update.clone()) {
            put("rsm.delays_per_update_p50", d);
        }
        if let Some((d, _)) = grouped_median(&mut timed.delays_read.clone()) {
            put("rsm.delays_per_read_p50", d);
        }
        if let Some(stuck) = timed.layer_sum("rsm.stuck_clients") {
            put("rsm.stuck_clients", stuck / timed.trials as f64);
        }
        let gauge = spanned
            .layer("gauge_max")
            .iter()
            .copied()
            .fold(0.0, f64::max);
        put("rsm.ack_history_len_max", gauge);
    }

    // Kernels that ran on the first traced trial's own corpus or final state.
    for m in PER_LAYER {
        let kernel = [
            "codec.",
            "core.valueset.",
            "core.recovery.",
            "rsm.state_execute",
        ]
        .iter()
        .any(|p| m.name.starts_with(p));
        if let (true, Some(v)) = (kernel, spanned.layer_median(m.name)) {
            put(m.name, v);
        }
    }

    put(
        "bench.cpu_ms_per_op",
        better_quartile(&timed.cpu_ms_per_op_each, Better::Lower).0,
    );
    put(
        "bench.trace_overhead_ratio",
        spanned.ops_per_s() / timed.ops_per_s(),
    );
    put(
        "bench.failed_ops_ratio",
        timed.failed as f64 / timed.attempted.max(1) as f64,
    );
    l
}

/// Work that rides on one workload's traced pass: the Byzantine check pass
/// on the agreement simulations, the fixed-input kernels, the ladders, the
/// transport toys, and the comparisons that need a second system.
fn attached_kernels(w: &Workload, seed: u64, timed: &Totals, layer: &mut Layer, out: &mut Outcome) {
    if matches!(w.system, SystemKind::SimGwts | SystemKind::SimGsbs) {
        let byz = run_trial(w, seed, Mode::Byz);
        if let Some(Err(why)) = &byz.verdict {
            out.correct = false;
            out.notes
                .push(format!("Byzantine check pass (seed {seed}): {why}"));
        }
        let done = if byz.sound() { byz.ops.len() } else { 0 };
        layer.insert(
            "byz.failed_ops_ratio".into(),
            byz.attempted.saturating_sub(done) as f64 / byz.attempted.max(1) as f64,
        );
        let max = byz
            .ops
            .iter()
            .map(|op| op.rec.done_depth.saturating_sub(op.rec.submit_depth))
            .max();
        layer.insert("byz.op_delays_max".into(), max.unwrap_or(0) as f64);
    }
    match w.system {
        SystemKind::SimGwts => {
            kernels::rbcast(layer);
            kernels::wts_ladder(layer);
        }
        SystemKind::SimGsbs => {
            kernels::crypto(layer);
            kernels::sbs_ladder(layer);
        }
        SystemKind::TcpGwts { chaos: false } => kernels::net_toys(layer),
        SystemKind::TcpGwts { chaos: true } => {
            // The same shape without faults, for the chaos floor.
            let clean = Workload {
                system: SystemKind::TcpGwts { chaos: false },
                ..*w
            };
            let mut base = Totals::default();
            for t in 1..=3 {
                base.add(
                    &clean,
                    &run_trial(&clean, seed.wrapping_add(t), Mode::Timed),
                );
            }
            let p50 = |t: &Totals| percentile(&mut t.latencies_ms.clone(), 50.0);
            if let (Some((chaos, _)), Some((clean, _))) = (p50(timed), p50(&base)) {
                layer.insert("net.chaos_over_clean_p50".into(), chaos / clean);
            }
        }
        SystemKind::SimRsm { .. } => {}
    }
}
