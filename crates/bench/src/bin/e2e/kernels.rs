//! Per-layer kernels: a layer's public function timed on its own, over the
//! workload's captured message corpus or end-of-run state, or on a fixed
//! input. Each kernel makes at least 1 000 calls where a call is cheap and
//! reports the median over 20 equal batches.
//!
//! Every kernel writes its metrics into the map it is handed, under the
//! names the per-layer catalog in `catalog.rs` lists.

use bgla_codec::{decode_payload, encode_frame, encode_payload, Wire};
use bgla_core::harness::{sbs_system, wts_system};
use bgla_core::sbs::SbsProcess;
use bgla_core::wts::WtsProcess;
use bgla_core::{Value, ValueSet};
use bgla_crypto::{Keypair, Keyring, Signature};
use bgla_net::{demux_frame, Data, NetConfig, TcpRuntimeBuilder, FK_DATA};
use bgla_rbcast::{RbMsg, RbcastEngine};
use bgla_rsm::{Cmd, CounterState};
use bgla_simnet::{Context, FifoScheduler, Process, ProcessId, Transport, WireMessage};
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{loglog_slope, median, percentile, process_cpu_fine};

pub type Layer = BTreeMap<String, f64>;

const BATCHES: usize = 20;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches that together
/// make at least `calls` calls.
pub fn ns_per_call<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    let per_batch = calls.div_ceil(BATCHES).max(1);
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&mut samples).unwrap_or(0.0)
}

/// `crypto`: sign, verify and batch-verify one 64-byte message; build a
/// keyring for a 7-process system.
pub fn crypto(out: &mut Layer) {
    let msg = [0x5au8; 64];
    let kp = Keypair::for_process(0);
    let ring = Keyring::for_system(16);
    let sig = kp.sign(&msg);
    out.insert(
        "crypto.sign_us".into(),
        ns_per_call(1000, || kp.sign(&msg)) / 1e3,
    );
    out.insert(
        "crypto.verify_us".into(),
        ns_per_call(1000, || ring.verify(0, &msg, &sig)) / 1e3,
    );
    for batch in [5usize, 16] {
        let items: Vec<(usize, &[u8], Signature)> = (0..batch)
            .map(|i| (i, &msg[..], Keypair::for_process(i).sign(&msg)))
            .collect();
        let ns = ns_per_call(1000usize.div_ceil(batch), || ring.verify_batch(&items));
        out.insert(
            format!("crypto.verify_batch_us_per_sig.{batch}"),
            ns / 1e3 / batch as f64,
        );
    }
    out.insert(
        "crypto.keyring_setup_ms".into(),
        ns_per_call(BATCHES, || Keyring::for_system(7)) / 1e6,
    );
}

/// At most this many corpus messages go through the codec kernels, picked
/// evenly, so the kernels cost the same whatever the run's length.
const CODEC_SAMPLE: usize = 1500;

/// `codec`: encode, decode and frame round-trip of the run's own messages,
/// per byte, and how encoded size compares with the modeled `wire_size`.
pub fn codec<M: Wire + WireMessage>(corpus: &[M], out: &mut Layer) {
    out.insert("codec.corpus_msgs".into(), corpus.len() as f64);
    if corpus.is_empty() {
        return;
    }
    let step = corpus.len().div_ceil(CODEC_SAMPLE);
    let sample: Vec<&M> = corpus.iter().step_by(step).collect();
    let encoded: Vec<Vec<u8>> = sample.iter().map(|m| encode_payload(*m)).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let modeled: usize = sample.iter().map(|m| m.wire_size()).sum();
    // One call is a pass over the whole sample; a few passes already make
    // thousands of encodes.
    let passes = 1000usize.div_ceil(sample.len()).max(BATCHES);
    let per_byte = |ns_per_pass: f64| ns_per_pass / bytes.max(1) as f64;
    let enc = ns_per_call(passes, || {
        sample
            .iter()
            .map(|m| encode_payload(*m).len())
            .sum::<usize>()
    });
    let dec = ns_per_call(passes, || {
        encoded
            .iter()
            .filter(|b| decode_payload::<M>(b).is_ok())
            .count()
    });
    let frames = ns_per_call(passes, || {
        encoded
            .iter()
            .filter(|payload| {
                let frame = encode_frame(
                    FK_DATA,
                    &Data {
                        seq: 7,
                        depth: 3,
                        payload: (*payload).clone(),
                    },
                );
                demux_frame(&frame).is_ok()
            })
            .count()
    });
    out.insert("codec.encode_ns_per_byte".into(), per_byte(enc));
    out.insert("codec.decode_ns_per_byte".into(), per_byte(dec));
    out.insert("codec.frame_roundtrip_ns_per_byte".into(), per_byte(frames));
    out.insert(
        "codec.encoded_over_modeled_ratio".into(),
        bytes as f64 / modeled.max(1) as f64,
    );
}

/// `core.valueset`: the four hot set operations at the size the run's final
/// decision reached.
pub fn valueset<V: Value>(last: &ValueSet<V>, out: &mut Layer) {
    let items = last.as_slice();
    let Some(probe) = items.get(items.len() / 2) else {
        return;
    };
    // A proposal one batch short of the decision: what joins and subset
    // tests see at the end of a run.
    let smaller: ValueSet<V> = items.iter().skip(4).cloned().collect();
    out.insert(
        "core.valueset.join_ns".into(),
        ns_per_call(2000, || smaller.join(last)),
    );
    out.insert(
        "core.valueset.is_subset_ns".into(),
        ns_per_call(2000, || smaller.is_subset(last)),
    );
    out.insert(
        "core.valueset.contains_ns".into(),
        ns_per_call(20_000, || last.contains(probe)),
    );
    out.insert(
        "core.valueset.clone_ns".into(),
        ns_per_call(20_000, || last.clone()),
    );
}

/// `core.recovery`: snapshot encode and decode of an end-of-run process.
pub fn recovery(
    algo: &str,
    encode: impl Fn() -> Vec<u8>,
    decodes: impl Fn(&[u8]) -> bool,
    out: &mut Layer,
) {
    let bytes = encode();
    out.insert(
        format!("core.recovery.snapshot_bytes.{algo}"),
        bytes.len() as f64,
    );
    out.insert(
        format!("core.recovery.snapshot_encode_us.{algo}"),
        ns_per_call(BATCHES, &encode) / 1e3,
    );
    out.insert(
        format!("core.recovery.snapshot_decode_us.{algo}"),
        ns_per_call(BATCHES, || decodes(&bytes)) / 1e3,
    );
}

/// `rbcast`: one engine of an n=10, f=3 system taken through whole
/// broadcast instances (init, n echoes, n readies), per delivery.
pub fn rbcast(out: &mut Layer) {
    let (n, f) = (10usize, 3usize);
    let mut engine: RbcastEngine<u64> = RbcastEngine::new(n, f);
    let mut tag = 0u64;
    let ns = ns_per_call(1000, || {
        tag += 1;
        let value = tag;
        let mut delivered = engine.on_message(0, RbMsg::Init { tag, value }).1.len();
        for from in 0..n {
            let echo = RbMsg::Echo {
                origin: 0,
                tag,
                value,
            };
            delivered += engine.on_message(from, echo).1.len();
        }
        for from in 0..n {
            let ready = RbMsg::Ready {
                origin: 0,
                tag,
                value,
            };
            delivered += engine.on_message(from, ready).1.len();
        }
        delivered
    });
    out.insert("rbcast.engine_ns_per_deliver".into(), ns);
}

/// `rsm`: executing the command set a read returned.
pub fn state_execute(read: &ValueSet<Cmd>, out: &mut Layer) {
    if read.is_empty() {
        return;
    }
    let ns = ns_per_call(1000, || CounterState::execute(read.iter()));
    out.insert(
        "rsm.state_execute_ns_per_cmd".into(),
        ns / read.len() as f64,
    );
}

/// `core` one-shot ladder: one FIFO instance of WTS at n=4 and n=16, with
/// the byte-growth exponent between them.
pub fn wts_ladder(out: &mut Layer) {
    let mut points = Vec::new();
    for n in [4usize, 16] {
        let f = (n - 1) / 3;
        let (mut sim, _) = wts_system(n, f, |i| 100 + i as u64, Box::new(FifoScheduler::new()));
        sim.run(u64::MAX);
        let delays = (0..n)
            .filter_map(|i| sim.process_as::<WtsProcess<u64>>(i)?.decision_depth)
            .max()
            .unwrap_or(0);
        let m = sim.metrics();
        out.insert(format!("core.wts.n{n}.delays"), delays as f64);
        out.insert(format!("core.wts.n{n}.msgs"), m.total_sent() as f64);
        out.insert(format!("core.wts.n{n}.bytes"), m.total_bytes() as f64);
        points.push((n as f64, m.total_bytes() as f64));
    }
    out.insert("core.wts.bytes_exponent".into(), loglog_slope(&points));
}

/// The same ladder for SbS at n=4 and n=10.
pub fn sbs_ladder(out: &mut Layer) {
    let mut points = Vec::new();
    for n in [4usize, 10] {
        let f = (n - 1) / 3;
        let (mut sim, _) = sbs_system(n, f, |i| 100 + i as u64, Box::new(FifoScheduler::new()));
        sim.run(u64::MAX);
        let delays = (0..n)
            .filter_map(|i| sim.process_as::<SbsProcess<u64>>(i)?.decision_depth)
            .max()
            .unwrap_or(0);
        let m = sim.metrics();
        out.insert(format!("core.sbs.n{n}.delays"), delays as f64);
        out.insert(format!("core.sbs.n{n}.msgs"), m.total_sent() as f64);
        out.insert(format!("core.sbs.n{n}.bytes"), m.total_bytes() as f64);
        points.push((n as f64, m.total_bytes() as f64));
    }
    out.insert("core.sbs.bytes_exponent".into(), loglog_slope(&points));
}

// ---------------------------------------------------------------------------
// Toy TCP runs: the transport with no protocol on top
// ---------------------------------------------------------------------------

/// Says hello to every peer once (so every link is dialled), then nothing.
struct Hello;

impl Process<u64> for Hello {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        ctx.broadcast(0);
    }
    fn on_message(&mut self, _from: ProcessId, _msg: u64, _ctx: &mut Context<u64>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Node 0 sends a counter to node 1, which returns it; node 0 notes when
/// each comes back and sends the next until `left` runs out.
struct PingPong {
    left: u64,
    arrivals: Vec<Instant>,
}

impl Process<u64> for PingPong {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        if ctx.me == 0 {
            self.arrivals.push(Instant::now());
            ctx.send(1, self.left);
        }
    }
    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Context<u64>) {
        if ctx.me != 0 {
            ctx.send(from, msg);
            return;
        }
        self.arrivals.push(Instant::now());
        if msg > 1 {
            ctx.send(1, msg - 1);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

const PINGPONG_TRIPS: u64 = 2000;

/// `net` toys: CPU burnt by four connected but silent nodes over one
/// second (the idle sweep), and the round-trip time of two nodes bouncing
/// one small message (the wake-to-deliver floor).
pub fn net_toys(out: &mut Layer) {
    let mut b = TcpRuntimeBuilder::<u64>::new(NetConfig::default());
    for _ in 0..4 {
        b = b.add(Box::new(Hello));
    }
    if let Ok(mut rt) = b.build() {
        rt.run_transport(u64::MAX);
        let c0 = process_cpu_fine();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_secs(1));
        let idle = t0.elapsed().as_secs_f64();
        let burnt = process_cpu_fine().saturating_sub(c0).as_secs_f64();
        rt.shutdown();
        out.insert("net.idle_cpu_ms_per_s".into(), burnt * 1e3 / idle);
    }

    let mut b = TcpRuntimeBuilder::<u64>::new(NetConfig::default());
    for _ in 0..2 {
        b = b.add(Box::new(PingPong {
            left: PINGPONG_TRIPS,
            arrivals: Vec::new(),
        }));
    }
    let Ok(mut rt) = b.build() else { return };
    rt.run_transport(u64::MAX);
    let mut trips: Vec<f64> = Vec::new();
    rt.with_process(0, &mut |p| {
        if let Some(p) = p.as_any().downcast_ref::<PingPong>() {
            trips = p
                .arrivals
                .windows(2)
                .filter_map(|w| Some(w.get(1)?.duration_since(*w.first()?).as_secs_f64() * 1e6))
                .collect();
        }
    });
    rt.shutdown();
    if let Some((p50, _)) = percentile(&mut trips, 50.0) {
        out.insert("net.pingpong_rtt_us_p50".into(), p50);
    }
    if let Some((p99, _)) = percentile(&mut trips, 99.0) {
        out.insert("net.pingpong_rtt_us_p99".into(), p99);
    }
}
