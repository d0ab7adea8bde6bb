//! The event-driven core: a fixed pool of poller threads owning every
//! socket of a runtime, driving per-link state machines as
//! poll-driven steps.
//!
//! # Readiness loop
//!
//! There is no `epoll` here by design: the workspace denies `unsafe`
//! and the environment is offline, so the readiness loop is a
//! `poll(2)`-style sweep written in-repo. Every socket is
//! nonblocking; each poller thread repeatedly sweeps the entries
//! registered to its shard, attempting nonblocking reads/accepts and
//! flushing pending writes. When a sweep makes no progress the thread
//! parks (`park_timeout`, until the earliest timer deadline or a
//! short idle beat) — never a blocking sleep — and event threads
//! `unpark` it the moment they enqueue outbound work. Remote bytes
//! with no local wakeup are picked up by the bounded idle beat.
//!
//! # What a sweep does per entry
//!
//! * **Listener** — nonblocking `accept`; accepted sockets are made
//!   nonblocking and registered with the pool (no thread is ever
//!   spawned per connection, so reconnect churn cannot leak threads).
//! * **Inbound connection** — drain available bytes, demux frames,
//!   run HELLO identification and receive-side dedup/reorder, push
//!   raw deliveries to the owning node's event thread, then write
//!   **one** ACK — cumulative sequence plus gap report — covering
//!   everything the wakeup delivered (ack batching: one ACK per
//!   readiness wakeup, not per DATA frame).
//! * **Outbound link** — dial when the first frame is queued and
//!   redial when due, drain HELLO replies and ACKs (queueing the
//!   repair of any hole an ACK reports), move queued frames through
//!   the fault injector into the write buffer, and flush as far as the
//!   socket allows.
//!
//! # One timer queue
//!
//! All retransmit and redial timers of the runtime live in a single
//! deadline-ordered `Timers` queue with µs deadlines; sweeps never
//! poll `on_timer` per link. Each link has at most one *valid*
//! retransmit entry, the one whose deadline `OutLink::rto_armed`
//! names. The sender's deadline is offered to `arm_rto` after every
//! step that can move it (enqueue, ACK, HELLO reply, firing): one that
//! moved **earlier** — the estimate shrank, the window got a new front
//! — is scheduled at once and takes the slot over, so the entry it
//! displaced fizzles when it fires; one that moved later is found by
//! the valid entry when *it* fires, which re-arms there instead of
//! probing. The invariant that keeps recovery alive: while a link is
//! connected and its window non-empty, a valid entry at or before the
//! sender's deadline exists. A link that is down needs none — the
//! HELLO reply of its reconnect resends the window and arms again.
//!
//! # Locking
//!
//! Each connection's I/O state sits behind its own mutex so any poller
//! thread (a sweep or a timer firing) can service it. The ordering
//! rule: an `io` lock may nest the pure link-state locks
//! (`SenderLink` / `ReceiverLink`) and the timer queue, but **nothing
//! holds a link-state lock while taking an `io` lock** — the event thread
//! enqueues in two disjoint critical sections (assign a sequence
//! number, then queue the frame), which is what makes the nesting
//! one-directional and deadlock-free.

use crate::fault::{FaultAction, FaultPlan};
use crate::frame::{drain_frames, Ack, Hello, NetFrame, FK_ACK, FK_HELLO};
use crate::link::{Frame, LinkConfig, ReceiverLink, SenderLink};
use crate::timers::Timers;
use bgla_codec::encode_frame;
use bgla_simnet::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle park beat in µs: the upper bound on how stale a sweep can be
/// when only remote bytes (no local wakeup) are pending.
const IDLE_BEAT_US: u64 = 1_000;
/// Blocking budget for one dial attempt (localhost connects resolve
/// immediately; this only bounds pathological SYN loss).
const CONNECT_TIMEOUT_MS: u64 = 50;

/// Locks a mutex, riding through poisoning: a panicked thread must not
/// cascade into every poller of the runtime.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn now_us(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Node-wide measured wire accounting (every byte actually handed to
/// a socket buffer, framing included).
#[derive(Debug, Default)]
pub(crate) struct NodeStats {
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
}

/// Counts one frame into the node's measured-bytes accounting and
/// appends it to a connection's write buffer.
fn buffer_counted(wbuf: &mut Vec<u8>, bytes: &[u8], stats: &NodeStats) {
    wbuf.extend_from_slice(bytes);
    stats.frames.fetch_add(1, Ordering::Relaxed);
    stats.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
}

/// Raw (undecoded) delivery channel into a node's event thread:
/// `(from, depth, payload)`. Decoding happens on the event thread so
/// poller threads stay payload-agnostic.
pub(crate) type RawInboxTx = mpsc::Sender<(ProcessId, u64, Vec<u8>)>;

/// Receive-side state one node shares with the pool: the listener and
/// every inbound connection reference it.
pub(crate) struct NodeNet {
    pub me: ProcessId,
    pub rx_links: Vec<Mutex<ReceiverLink>>,
    pub sink: RawInboxTx,
    pub stats: Arc<NodeStats>,
}

/// What a sweep learned about one entry.
enum Sweep {
    /// Bytes moved or state advanced.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// The entry is finished; drop it from the shard.
    Dead,
}

// ---------------------------------------------------------------------------
// Outbound link (dialer side of `me → to`)
// ---------------------------------------------------------------------------

/// Connection state of an outbound link.
enum OutState {
    /// No socket; `next_dial_at` gates the next attempt.
    Down,
    /// Live socket. `helloed` flips when the peer's HELLO reply (with
    /// its next-expected sequence) has been processed; DATA flows only
    /// after that.
    Up {
        stream: TcpStream,
        rbuf: Vec<u8>,
        helloed: bool,
        /// When our HELLO went out, on the link's first connection
        /// only: its reply is the estimator's first round-trip sample.
        /// `None` on a reconnect, whose reply resyncs instead.
        first_hello_at: Option<u64>,
    },
}

/// I/O-side state of an outbound link, serviced by whichever poller
/// thread gets there first.
struct OutIo {
    state: OutState,
    /// Frames enqueued (new sends, gap repairs, probes, resync tails)
    /// not yet pushed through the fault injector.
    queue: VecDeque<Frame>,
    /// Bytes accepted by the injector, not yet written to the socket.
    wbuf: Vec<u8>,
    /// The fault injector's parked frame (Delay action).
    delayed: Option<Frame>,
    /// Write-attempt index driving the deterministic fault schedule.
    frame_idx: u64,
    /// Seeded jitter stream for the dial backoff.
    rng: StdRng,
    backoff_ms: u64,
    next_dial_at: u64,
    ever_connected: bool,
}

/// The sending side of one directed link `me → to`, owned by the pool.
pub(crate) struct OutLink {
    pub me: ProcessId,
    pub to: ProcessId,
    addr: SocketAddr,
    plan: FaultPlan,
    dial_backoff_ms: u64,
    dial_backoff_max_ms: u64,
    stats: Arc<NodeStats>,
    epoch: Instant,
    pub sender: Mutex<SenderLink>,
    pub reconnects: AtomicU64,
    /// Deadline of this link's one *valid* `Rto` timer entry
    /// (`u64::MAX`: none). Arming earlier than this schedules a new
    /// entry and takes the slot over; an entry that fires with any
    /// other deadline is stale and fizzles, so entries cannot pile up.
    rto_armed: AtomicU64,
    io: Mutex<OutIo>,
}

impl OutLink {
    /// Builds the link in the `Down` state; it dials when the first
    /// frame is queued, so a runtime that never runs opens no socket.
    #[allow(clippy::too_many_arguments)] // spawn-time plumbing, called once per link
    pub(crate) fn new(
        me: ProcessId,
        to: ProcessId,
        addr: SocketAddr,
        plan: FaultPlan,
        link_cfg: LinkConfig,
        link_seed: u64,
        dial_backoff_ms: u64,
        dial_backoff_max_ms: u64,
        stats: Arc<NodeStats>,
        epoch: Instant,
    ) -> Arc<OutLink> {
        Arc::new(OutLink {
            me,
            to,
            addr,
            plan,
            dial_backoff_ms,
            dial_backoff_max_ms,
            stats,
            epoch,
            sender: Mutex::new(SenderLink::new(link_cfg)),
            reconnects: AtomicU64::new(0),
            rto_armed: AtomicU64::new(u64::MAX),
            io: Mutex::new(OutIo {
                state: OutState::Down,
                queue: VecDeque::new(),
                wbuf: Vec::new(),
                delayed: None,
                frame_idx: 0,
                rng: StdRng::seed_from_u64(link_seed ^ 0x5742), // "WB": backoff stream
                backoff_ms: dial_backoff_ms,
                next_dial_at: 0,
                ever_connected: false,
            }),
        })
    }
}

/// Event-thread entry point: assign a sequence number and encode the
/// frame, queue it for the next sweep, and make sure a timer covers
/// the window. Returns `false` on bounded-outbox overflow (the caller
/// surfaces the drop). Two disjoint critical sections — never `sender`
/// nested around `io` (see the module-level locking rule). Takes an
/// `Arc` handle so the timer key can be derived.
pub(crate) fn enqueue_arc(
    link: &Arc<OutLink>,
    pool: &PoolInner,
    depth: u64,
    payload: Vec<u8>,
) -> bool {
    let (frame, arm) = {
        let mut s = lock(&link.sender);
        let frame = s.enqueue(depth, payload, now_us(link.epoch));
        (frame, s.deadline())
    };
    let Some(frame) = frame else { return false };
    lock(&link.io).queue.push_back(frame);
    arm_rto(link, pool, arm);
    true
}

/// Makes sure a timer entry fires at or before the sender's deadline.
/// Only a deadline *earlier* than the valid entry's schedules anything
/// (and takes over as the valid entry); one that moved later is picked
/// up when that entry fires and re-arms.
fn arm_rto(link: &Arc<OutLink>, pool: &PoolInner, deadline: Option<u64>) {
    let Some(at) = deadline else { return };
    if at < link.rto_armed.fetch_min(at, Ordering::AcqRel) {
        pool.schedule(at, TimerKey::Rto(Arc::downgrade(link)));
    }
}

/// Transitions an outbound link's connection to `Down` after a death:
/// buffered socket bytes are discarded (unacked frames survive in the
/// sender window and resync recovers them), and a redial is armed.
fn out_conn_died(link: &Arc<OutLink>, io: &mut OutIo, pool: &PoolInner, now: u64) {
    if let OutState::Up { stream, .. } = &io.state {
        let _ = stream.shutdown(Shutdown::Both);
    }
    io.state = OutState::Down;
    // Queued frames are shared with the sender window; the resync
    // after reconnect regenerates exactly the unacked tail in order.
    // Keeping them would bury the window head (the one frame the
    // receiver is waiting on) behind an ever-growing run of stale
    // duplicates — under reset-heavy plans that is a livelock.
    io.queue.clear();
    io.wbuf.clear();
    io.delayed = None;
    io.next_dial_at = now;
    pool.schedule(now, TimerKey::Redial(Arc::downgrade(link)));
}

/// One poll-driven step of the outbound link state machine: dial if
/// due, drain HELLO/ACK frames, move queued DATA through the fault
/// injector, flush. Never blocks beyond the bounded connect attempt.
fn out_service(link: &Arc<OutLink>, pool: &PoolInner) -> Sweep {
    let mut io_guard = lock(&link.io);
    // Reborrow: disjoint field borrows through the guard's deref.
    let io = &mut *io_guard;
    let now = now_us(link.epoch);
    let mut progress = false;

    // Dial when down and due — but not before there is something to
    // say: a link that never carried a frame opens no socket.
    if matches!(io.state, OutState::Down) {
        let unused = !io.ever_connected && io.queue.is_empty();
        if unused || now < io.next_dial_at {
            return Sweep::Idle;
        }
        match TcpStream::connect_timeout(&link.addr, Duration::from_millis(CONNECT_TIMEOUT_MS)) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                // (Stamped after the connect: the sample is the
                // HELLO's round trip, not the dial's.)
                let first_hello_at = (!io.ever_connected).then(|| now_us(link.epoch));
                if io.ever_connected {
                    link.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                io.ever_connected = true;
                io.backoff_ms = link.dial_backoff_ms;
                io.delayed = None;
                io.wbuf.clear();
                let hello = encode_frame(
                    FK_HELLO,
                    &Hello {
                        from: link.me as u64,
                        expected: 0,
                    },
                );
                buffer_counted(&mut io.wbuf, &hello, &link.stats);
                io.state = OutState::Up {
                    stream,
                    rbuf: Vec::new(),
                    helloed: false,
                    first_hello_at,
                };
                progress = true;
            }
            Err(_) => {
                let jitter = io.rng.gen_range(0..io.backoff_ms / 2 + 1);
                io.next_dial_at = now + (io.backoff_ms + jitter) * 1_000;
                io.backoff_ms = (io.backoff_ms * 2).min(link.dial_backoff_max_ms);
                pool.schedule(io.next_dial_at, TimerKey::Redial(Arc::downgrade(link)));
                return Sweep::Idle;
            }
        }
    }

    // Drain the read side: HELLO replies and cumulative ACKs.
    let mut died = false;
    let mut frames = Vec::new();
    if let OutState::Up { stream, rbuf, .. } = &mut io.state {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match stream.read(&mut tmp) {
                Ok(0) => {
                    died = true;
                    break;
                }
                Ok(k) => {
                    rbuf.extend_from_slice(&tmp[..k]);
                    progress = true;
                }
                Err(e) if would_block(&e) => break,
                Err(_) => {
                    died = true;
                    break;
                }
            }
        }
        if !died {
            match drain_frames(rbuf) {
                Ok(f) => frames = f,
                Err(_) => died = true,
            }
        }
    }
    if died {
        out_conn_died(link, io, pool, now);
        return Sweep::Progress;
    }
    for frame in frames {
        match frame {
            NetFrame::Hello(h) => {
                if let OutState::Up {
                    helloed: helloed @ false,
                    first_hello_at,
                    ..
                } = &mut io.state
                {
                    *helloed = true;
                    let hello_rtt = first_hello_at.map(|at| now - at);
                    let (tail, arm) = {
                        let mut s = lock(&link.sender);
                        (s.on_hello(h.expected, hello_rtt, now), s.deadline())
                    };
                    if hello_rtt.is_none() {
                        // A resync: the tail *is* the whole unacked
                        // window, in order; anything queued since the
                        // connection died is in it. (A first connection
                        // has written nothing yet and keeps its queue.)
                        io.queue.clear();
                        io.queue.extend(tail);
                    }
                    arm_rto(link, pool, arm);
                    progress = true;
                }
            }
            NetFrame::Ack(a) => {
                let (repair, arm) = {
                    let mut s = lock(&link.sender);
                    (s.on_ack(a.cum, a.held, now), s.deadline())
                };
                // A reported hole is repaired in this very sweep.
                io.queue.extend(repair);
                arm_rto(link, pool, arm);
                progress = true;
            }
            // DATA flows accepter-ward; one arriving here is noise.
            NetFrame::Data(_) => {}
        }
    }

    // Move queued frames through the fault injector once handshaken.
    if matches!(io.state, OutState::Up { helloed: true, .. }) {
        while let Some(d) = io.queue.pop_front() {
            progress = true;
            if !inject_frame(link, io, d) {
                out_conn_died(link, io, pool, now);
                return Sweep::Progress;
            }
        }
    }

    // Flush as far as the socket allows.
    if !io.wbuf.is_empty() {
        if let OutState::Up { stream, .. } = &mut io.state {
            let mut written = 0;
            let mut dead = false;
            while written < io.wbuf.len() {
                match stream.write(&io.wbuf[written..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(k) => {
                        written += k;
                        progress = true;
                    }
                    Err(e) if would_block(&e) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            io.wbuf.drain(..written);
            if dead {
                out_conn_died(link, io, pool, now);
                return Sweep::Progress;
            }
        }
    }

    if progress {
        Sweep::Progress
    } else {
        Sweep::Idle
    }
}

/// Runs one DATA frame through the deterministic fault injector,
/// buffering whatever survives. Returns `false` when the injected
/// action killed the connection (mid-frame reset).
fn inject_frame(link: &OutLink, io: &mut OutIo, bytes: Frame) -> bool {
    let idx = io.frame_idx;
    io.frame_idx += 1;
    let mut write_now: Vec<Frame> = Vec::new();
    match link.plan.action(link.me, link.to, idx) {
        FaultAction::Deliver => write_now.push(bytes),
        FaultAction::Drop => {}
        FaultAction::Duplicate => {
            write_now.push(bytes.clone());
            write_now.push(bytes);
        }
        FaultAction::Delay => {
            // Hold this frame; a previously held one is released first
            // so at most one frame is ever parked.
            if let Some(prev) = io.delayed.take() {
                write_now.push(prev);
            }
            io.delayed = Some(bytes);
        }
        FaultAction::Reset => {
            // Mid-frame reset: half a frame, then a hard close. The
            // receiver sees torn bytes and drops the connection too.
            let torn = bytes.get(..bytes.len() / 2).unwrap_or_default();
            buffer_counted(&mut io.wbuf, torn, &link.stats);
            if let OutState::Up { stream, .. } = &mut io.state {
                let _ = stream.write_all(&io.wbuf);
                let _ = stream.shutdown(Shutdown::Both);
            }
            io.wbuf.clear();
            io.delayed = None;
            return false;
        }
    }
    if !write_now.is_empty() {
        // Any held frame goes out *after* the current one: reorder.
        if let Some(prev) = io.delayed.take() {
            write_now.push(prev);
        }
    }
    for b in write_now {
        buffer_counted(&mut io.wbuf, &b, &link.stats);
    }
    true
}

/// The timer entry armed at `at` fired for this link. Stale entries
/// fizzle. The valid one first services the link — an ACK already in
/// the socket is evidence, and the thread that would have read it may
/// just be late — then sends the sender's probe if its deadline has
/// still come, and re-arms at wherever the deadline now is.
fn out_fire_rto(link: &Arc<OutLink>, pool: &PoolInner, at: u64) -> bool {
    // Give the slot up *first*, so that a concurrent arm (or our own
    // re-arm below) schedules the next entry.
    let valid = link
        .rto_armed
        .compare_exchange(at, u64::MAX, Ordering::AcqRel, Ordering::Acquire);
    if valid.is_err() {
        return false;
    }
    let serviced = matches!(out_service(link, pool), Sweep::Progress);
    {
        let mut io = lock(&link.io);
        if !matches!(io.state, OutState::Up { helloed: true, .. }) {
            // Down: the HELLO reply of the reconnect resends the window
            // and arms the timer again.
            return serviced;
        }
        let (probe, arm) = {
            let mut s = lock(&link.sender);
            (s.on_timer(now_us(link.epoch)), s.deadline())
        };
        arm_rto(link, pool, arm);
        let Some(probe) = probe else { return serviced };
        io.queue.push_back(probe);
    }
    // Put the probe on the wire now rather than at the next sweep.
    serviced | matches!(out_service(link, pool), Sweep::Progress)
}

// ---------------------------------------------------------------------------
// Inbound connection (accepter side)
// ---------------------------------------------------------------------------

/// One accepted connection, owned by the pool (never by a thread).
pub(crate) struct InConn {
    node: Arc<NodeNet>,
    io: Mutex<InIo>,
}

struct InIo {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    peer: Option<ProcessId>,
}

/// One poll-driven step of an inbound connection: drain bytes, demux,
/// identify (HELLO) or deliver (DATA), then write one batched
/// cumulative ACK per peer touched by this wakeup.
fn in_service(conn: &InConn) -> Sweep {
    let mut io_guard = lock(&conn.io);
    // Reborrow: disjoint field borrows through the guard's deref.
    let io = &mut *io_guard;
    let mut progress = false;
    let mut died = false;
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match io.stream.read(&mut tmp) {
            Ok(0) => {
                died = true;
                break;
            }
            Ok(k) => {
                io.rbuf.extend_from_slice(&tmp[..k]);
                progress = true;
            }
            Err(e) if would_block(&e) => break,
            Err(_) => {
                died = true;
                break;
            }
        }
    }
    let frames = if died {
        Vec::new()
    } else {
        match drain_frames(&mut io.rbuf) {
            Ok(f) => f,
            // Torn or corrupt bytes (mid-frame reset): drop the
            // connection; the dialer reconnects and resyncs.
            Err(_) => {
                died = true;
                Vec::new()
            }
        }
    };
    let mut data_seen = false;
    for frame in frames {
        match frame {
            NetFrame::Hello(h) => {
                let p = h.from as usize;
                if p >= conn.node.rx_links.len() {
                    died = true;
                    break;
                }
                io.peer = Some(p);
                let expected = lock(&conn.node.rx_links[p]).expected();
                let reply = encode_frame(
                    FK_HELLO,
                    &Hello {
                        from: conn.node.me as u64,
                        expected,
                    },
                );
                let InIo { wbuf, .. } = &mut *io;
                buffer_counted(wbuf, &reply, &conn.node.stats);
            }
            NetFrame::Data(d) => {
                // DATA before HELLO is a protocol violation.
                let Some(p) = io.peer else {
                    died = true;
                    break;
                };
                data_seen = true;
                let deliverable = lock(&conn.node.rx_links[p]).on_data(d);
                for (depth, payload) in deliverable {
                    let _ = conn.node.sink.send((p, depth, payload));
                }
            }
            // ACKs flow accepter → dialer; one arriving here is noise.
            NetFrame::Ack(_) => {}
        }
    }
    // Ack batching: one ACK per readiness wakeup that carried DATA,
    // covering every frame the batch delivered — not one ACK per
    // frame. Duplicates are answered too: a probe is a duplicate more
    // often than not, and its ACK's gap report is what it asks for.
    if data_seen {
        if let Some(p) = io.peer {
            let ack = {
                let rx = lock(&conn.node.rx_links[p]);
                Ack {
                    cum: rx.expected(),
                    held: rx.held(),
                }
            };
            let ack = encode_frame(FK_ACK, &ack);
            let InIo { wbuf, .. } = &mut *io;
            buffer_counted(wbuf, &ack, &conn.node.stats);
        }
    }
    // Flush replies/acks.
    if !io.wbuf.is_empty() && !died {
        let mut written = 0;
        while written < io.wbuf.len() {
            match io.stream.write(&io.wbuf[written..]) {
                Ok(0) => {
                    died = true;
                    break;
                }
                Ok(k) => {
                    written += k;
                    progress = true;
                }
                Err(e) if would_block(&e) => break,
                Err(_) => {
                    died = true;
                    break;
                }
            }
        }
        io.wbuf.drain(..written);
    }
    if died {
        let _ = io.stream.shutdown(Shutdown::Both);
        return Sweep::Dead;
    }
    if progress {
        Sweep::Progress
    } else {
        Sweep::Idle
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A listening socket registered with the pool: accepted connections
/// become [`InConn`] entries instead of threads.
pub(crate) struct ListenerEntry {
    pub listener: TcpListener,
    pub node: Arc<NodeNet>,
}

/// Everything a poller thread can own and sweep.
pub(crate) enum Entry {
    Listener(Arc<ListenerEntry>),
    Out(Arc<OutLink>),
    In(Arc<InConn>),
}

/// A timer key: which link, which timer. Weak so a torn-down runtime's
/// links die with it and stale entries fizzle.
pub(crate) enum TimerKey {
    Rto(Weak<OutLink>),
    Redial(Weak<OutLink>),
}

/// One poller thread's work queue and wake handle.
struct Shard {
    incoming: Mutex<Vec<Entry>>,
    handle: Mutex<Option<std::thread::Thread>>,
    kicked: AtomicBool,
}

/// Shared pool state: shards, the single timer queue, the clock epoch.
pub(crate) struct PoolInner {
    shards: Vec<Shard>,
    timers: Mutex<Timers<TimerKey>>,
    pub epoch: Instant,
    stop: AtomicBool,
    next_shard: AtomicUsize,
}

impl PoolInner {
    /// Registers an entry with the least-recently-assigned shard.
    pub(crate) fn register(&self, entry: Entry) {
        let i = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        lock(&self.shards[i].incoming).push(entry);
        self.wake_shard(i);
    }

    /// Schedules a timer on the single queue.
    pub(crate) fn schedule(&self, deadline_us: u64, key: TimerKey) {
        lock(&self.timers).schedule(deadline_us, key);
    }

    fn wake_shard(&self, i: usize) {
        let shard = &self.shards[i];
        shard.kicked.store(true, Ordering::SeqCst);
        if let Some(t) = lock(&shard.handle).as_ref() {
            t.unpark();
        }
    }

    /// Wakes every poller thread (event threads call this after
    /// enqueueing outbound frames; with at most four shards this is
    /// cheaper than tracking link→shard assignments).
    pub(crate) fn wake_all(&self) {
        for i in 0..self.shards.len() {
            self.wake_shard(i);
        }
    }
}

/// A fixed pool of poller threads owning all sockets of a runtime.
/// Clone-able handle; [`PollerPool::shutdown`] stops and joins the
/// workers (idempotent).
#[derive(Clone)]
pub struct PollerPool {
    inner: Arc<PoolInner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl PollerPool {
    /// Spawns the pool: `min(4, available cores)` poller threads.
    pub fn spawn() -> PollerPool {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4);
        let inner = Arc::new(PoolInner {
            shards: (0..threads)
                .map(|_| Shard {
                    incoming: Mutex::new(Vec::new()),
                    handle: Mutex::new(None),
                    kicked: AtomicBool::new(false),
                })
                .collect(),
            timers: Mutex::new(Timers::new()),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = inner.clone();
                std::thread::spawn(move || worker(inner, i))
            })
            .collect();
        PollerPool {
            inner,
            workers: Arc::new(Mutex::new(workers)),
        }
    }

    /// Number of poller threads in the pool.
    pub fn threads(&self) -> usize {
        self.inner.shards.len()
    }

    pub(crate) fn inner(&self) -> &Arc<PoolInner> {
        &self.inner
    }

    /// Stops and joins the poller threads (idempotent). Entries (and
    /// their sockets) are dropped by the exiting workers.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.wake_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

/// The readiness loop: sweep owned entries, fire due timers, park when
/// idle (until the earliest timer deadline or the idle beat).
fn worker(inner: Arc<PoolInner>, shard_idx: usize) {
    let shard = &inner.shards[shard_idx];
    *lock(&shard.handle) = Some(std::thread::current());
    let mut entries: Vec<Entry> = Vec::new();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        shard.kicked.store(false, Ordering::SeqCst);
        {
            let mut q = lock(&shard.incoming);
            entries.append(&mut q);
        }
        let mut progress = false;
        entries.retain(|entry| match sweep_entry(entry, &inner) {
            Sweep::Dead => false,
            Sweep::Progress => {
                progress = true;
                true
            }
            Sweep::Idle => true,
        });
        // Fire the timer queue: whichever shard looks first gets the
        // due timers; the io mutexes make cross-shard servicing safe.
        let due = lock(&inner.timers).expire(now_us(inner.epoch));
        for (at, key) in due {
            let fired = match key {
                TimerKey::Rto(weak) => weak
                    .upgrade()
                    .map(|l| out_fire_rto(&l, &inner, at))
                    .unwrap_or(false),
                TimerKey::Redial(weak) => weak
                    .upgrade()
                    .map(|l| matches!(out_service(&l, &inner), Sweep::Progress))
                    .unwrap_or(false),
            };
            progress |= fired;
        }
        if progress || shard.kicked.load(Ordering::SeqCst) {
            continue;
        }
        // Idle: park until the next timer, the idle beat, or a wake.
        let mut wait = IDLE_BEAT_US;
        if let Some(d) = lock(&inner.timers).next_deadline() {
            wait = wait.min(d.saturating_sub(now_us(inner.epoch)).max(1));
        }
        std::thread::park_timeout(Duration::from_micros(wait));
    }
}

/// Sweeps one entry; listener accepts register new inbound entries.
fn sweep_entry(entry: &Entry, inner: &PoolInner) -> Sweep {
    match entry {
        Entry::Listener(l) => {
            let mut any = false;
            while let Ok((stream, _)) = l.listener.accept() {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                inner.register(Entry::In(Arc::new(InConn {
                    node: l.node.clone(),
                    io: Mutex::new(InIo {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        peer: None,
                    }),
                })));
                any = true;
            }
            if any {
                Sweep::Progress
            } else {
                Sweep::Idle
            }
        }
        Entry::Out(link) => out_service(link, inner),
        Entry::In(conn) => in_service(conn),
    }
}
