//! Multi-process localhost smoke for the TCP runtime.
//!
//! Unlike `crates/net`'s tests and the workspace conformance suite —
//! which run every node as a thread of one process — this binary
//! re-execs itself so each WTS node lives in its **own OS process**
//! with its own address space, sockets, and `SharedCounters`, talking
//! to its peers over real localhost TCP. That is the deployment shape
//! the in-process runtime models, so this is the end-to-end proof that
//! nothing secretly depends on shared memory.
//!
//! Coordination is by files in a scratch directory: each child binds
//! `127.0.0.1:0`, publishes its address as `addr.<i>` (atomic rename),
//! waits for all peers' addresses, runs agreement, and publishes its
//! decision as `done.<i>`. The parent validates the union of decisions
//! against the LA spec surface a parent can check from outside:
//! inclusivity (own input in own decision), comparability (decisions
//! form a chain), and non-triviality (every decided value is someone's
//! input).
//!
//! Passes: a clean run, then a fault-injected run (drops, duplicates,
//! reorders, mid-frame resets — the link layer must mask all of it).
//! `NET_SMOKE=1` keeps only the clean pass for a CI-sized check.

use bgla_core::wts::WtsProcess;
use bgla_core::SystemConfig;
use bgla_net::{FaultConfig, FaultPlan, NetConfig, NodeSpec, PollerPool, SharedCounters, TcpNode};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 4;
const F: usize = 1;
const DEADLINE: Duration = Duration::from_secs(60);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("node") => {
            let dir = PathBuf::from(&args[2]);
            let me: usize = args[3].parse().expect("node index");
            let faulty: bool = args[4].parse().expect("fault flag");
            child(&dir, me, faulty);
            ExitCode::SUCCESS
        }
        _ => parent(),
    }
}

// ---------------------------------------------------------------------------
// Parent: spawn, collect, validate
// ---------------------------------------------------------------------------

fn parent() -> ExitCode {
    let smoke = std::env::var("NET_SMOKE").is_ok();
    if let Err(why) = run_system("clean", false) {
        eprintln!("net_smoke: FAIL: {why}");
        return ExitCode::FAILURE;
    }
    if smoke {
        println!("net_smoke: NET_SMOKE set, skipping the fault-injected pass");
    } else if let Err(why) = run_system("faulty", true) {
        eprintln!("net_smoke: FAIL: {why}");
        return ExitCode::FAILURE;
    }
    println!("net_smoke: PASS");
    ExitCode::SUCCESS
}

fn run_system(label: &str, faulty: bool) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("bgla-net-smoke-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let exe = std::env::current_exe().expect("current_exe");
    let mut children: Vec<Child> = (0..N)
        .map(|i| {
            Command::new(&exe)
                .arg("node")
                .arg(&dir)
                .arg(i.to_string())
                .arg(faulty.to_string())
                .spawn()
                .expect("spawn node process")
        })
        .collect();

    let start = Instant::now();
    let decisions = loop {
        if let Some(d) = read_decisions(&dir) {
            break d;
        }
        let mut dead = None;
        for (i, c) in children.iter_mut().enumerate() {
            if let Ok(Some(status)) = c.try_wait() {
                if !status.success() {
                    dead = Some(format!("node {i} exited {status}"));
                    break;
                }
            }
        }
        if let Some(why) = dead {
            return Err(cleanup(&mut children, &dir, why));
        }
        if start.elapsed() > DEADLINE {
            return Err(cleanup(
                &mut children,
                &dir,
                "deadline waiting for decisions".to_string(),
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut failed = None;
    for c in &mut children {
        let status = c.wait().expect("wait child");
        if !status.success() && failed.is_none() {
            failed = Some(format!("node exited {status}"));
        }
    }
    if let Some(why) = failed {
        return Err(cleanup(&mut children, &dir, why));
    }
    let _ = std::fs::remove_dir_all(&dir);
    validate(label, &decisions);
    Ok(())
}

fn read_decisions(dir: &Path) -> Option<Vec<BTreeSet<u64>>> {
    let mut out = Vec::with_capacity(N);
    for i in 0..N {
        let text = std::fs::read_to_string(dir.join(format!("done.{i}"))).ok()?;
        out.push(
            text.split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.trim().parse().expect("decision value"))
                .collect(),
        );
    }
    Some(out)
}

fn validate(label: &str, decisions: &[BTreeSet<u64>]) {
    let inputs: BTreeSet<u64> = (0..N).map(|i| 100 + i as u64).collect();
    for (i, d) in decisions.iter().enumerate() {
        assert!(
            d.contains(&(100 + i as u64)),
            "{label}: node {i} decision {d:?} misses its own input (inclusivity)"
        );
        assert!(
            d.is_subset(&inputs),
            "{label}: node {i} decided a value nobody proposed (non-triviality)"
        );
    }
    for a in decisions {
        for b in decisions {
            assert!(
                a.is_subset(b) || b.is_subset(a),
                "{label}: incomparable decisions {a:?} / {b:?}"
            );
        }
    }
    println!(
        "net_smoke: {label} pass ok — {N} processes, decisions {:?}",
        decisions.iter().map(BTreeSet::len).collect::<Vec<_>>()
    );
}

/// Kills the remaining children, removes the scratch dir, and hands
/// the failure reason back to the caller.
fn cleanup(children: &mut [Child], dir: &Path, why: String) -> String {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    let _ = std::fs::remove_dir_all(dir);
    why
}

// ---------------------------------------------------------------------------
// Child: one node, one OS process
// ---------------------------------------------------------------------------

fn child(dir: &Path, me: usize, faulty: bool) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("local addr");
    publish(dir, &format!("addr.{me}"), &addr.to_string());

    let start = Instant::now();
    let mut peers: Vec<Option<SocketAddr>> = vec![None; N];
    while peers
        .iter()
        .enumerate()
        .any(|(i, p)| i != me && p.is_none())
    {
        for (i, slot) in peers.iter_mut().enumerate() {
            if i == me || slot.is_some() {
                continue;
            }
            if let Ok(text) = std::fs::read_to_string(dir.join(format!("addr.{i}"))) {
                *slot = Some(text.trim().parse().expect("peer addr"));
            }
        }
        assert!(
            start.elapsed() < DEADLINE,
            "node {me}: peers never appeared"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let faults = if faulty {
        // The per-mille chaos rates, minus the partition window: each
        // process only sees its own frame indices here, so a window
        // that is survivable in-process can starve a cross-process
        // handshake. Drops/dups/reorders/resets still exercise every
        // masking path.
        FaultPlan::new(
            0xD15C * (me as u64 + 1),
            FaultConfig {
                partition: None,
                ..FaultConfig::chaos()
            },
        )
    } else {
        FaultPlan::none()
    };
    let cfg = NetConfig {
        faults,
        seed: 0x5E0 + me as u64,
        ..NetConfig::default()
    };
    let config = SystemConfig::new(N, F);
    let spec = NodeSpec {
        me,
        n: N,
        proc: Box::new(WtsProcess::new(me, config, 100 + me as u64)),
        observer: None,
        listener,
        peers,
    };
    let shared = Arc::new(SharedCounters::default());
    let pool = PollerPool::spawn();
    let mut node = TcpNode::spawn(spec, cfg, shared.clone(), &pool).expect("spawn node threads");
    shared.go.store(true, Ordering::SeqCst);

    // Poll for the local decision, then publish it.
    let decision = loop {
        let mut d: Option<Vec<u64>> = None;
        node.with_process(&mut |p| {
            let w = p
                .as_any()
                .downcast_ref::<WtsProcess<u64>>()
                .expect("child process is a WtsProcess");
            d = w.decision.as_ref().map(|s| s.iter().copied().collect());
        });
        if let Some(d) = d {
            break d;
        }
        assert!(start.elapsed() < DEADLINE, "node {me}: no decision");
        std::thread::sleep(Duration::from_millis(10));
    };
    let text = decision
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    publish(dir, &format!("done.{me}"), &text);

    // Keep serving acks/retransmits until every peer has decided, plus
    // a short drain so in-flight frames land before the sockets die.
    while (0..N).any(|i| !dir.join(format!("done.{i}")).exists()) {
        assert!(start.elapsed() < DEADLINE, "node {me}: peers never decided");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    shared.stop.store(true, Ordering::SeqCst);
    node.join();
    pool.shutdown();
}

/// Writes `name` atomically (tmp + rename) so readers never observe a
/// half-written file.
fn publish(dir: &Path, name: &str, text: &str) {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, text).expect("write tmp");
    std::fs::rename(&tmp, dir.join(name)).expect("rename into place");
}
