//! No op is lost while a set names what a receiver has not delivered yet.
//!
//! GWTS acks, requests and refusals name each delivered disclosure batch
//! by `(origin, round)`, so a name can reach a process before the batch
//! it stands for. What it names is then not SAFE there yet, and the
//! message waits on the guard an unsafe one always waited on. This sweep
//! holds that no such wait is forever: every honest input is decided,
//! the run goes quiet, and nothing is left parked —
//! * under random schedules at n = 10, f = 3 and n = 4, f = 1;
//! * when one victim is handed every disclosure last, after everything
//!   else in flight, so every name reaches it before its batch;
//! * on the RSM write path (4 replicas, 8 clients), until every client
//!   has finished.
//!
//! Release builds sweep 128 seeds per cell (a CI step); debug builds 16.

use bgla::core::gwts::{GwtsMsg, GwtsProcess};
use bgla::core::{spec, SystemConfig};
use bgla::rsm::{ClientOp, Op, Replica, RsmMsg, WorkloadClient};
use bgla::simnet::{
    EnvelopeId, InFlight, ProcessId, RandomScheduler, Scheduler, Simulation, SimulationBuilder,
};
use std::any::Any;
use std::collections::BTreeMap;

fn seeds() -> u64 {
    if cfg!(debug_assertions) {
        16
    } else {
        128
    }
}

/// Holds every disclosure message addressed to `victim` back for the
/// first `release_after` deliveries, then hands them over, oldest first,
/// before anything else: acks, requests and refusals naming those
/// batches reach the victim first. Held messages also go whenever
/// nothing else is in flight. Everything else goes as the inner scheduler
/// picks.
struct DisclosuresLast {
    inner: Box<dyn Scheduler>,
    victim: ProcessId,
    release_after: u64,
    released: bool,
    /// Held disclosure traffic to the victim, by send sequence.
    held: BTreeMap<u64, EnvelopeId>,
    /// Held ids, for delivery bookkeeping.
    held_ids: BTreeMap<EnvelopeId, u64>,
    /// Messages the inner scheduler holds.
    inner_count: usize,
    /// Acks and requests to the victim sent while its disclosures are
    /// held back.
    early: BTreeMap<EnvelopeId, ()>,
    /// How many of those reached it while a disclosure was still held.
    pub overtaken: u64,
}

impl DisclosuresLast {
    fn new(victim: ProcessId, release_after: u64, inner: Box<dyn Scheduler>) -> Self {
        DisclosuresLast {
            inner,
            victim,
            release_after,
            released: false,
            held: BTreeMap::new(),
            held_ids: BTreeMap::new(),
            inner_count: 0,
            early: BTreeMap::new(),
            overtaken: 0,
        }
    }
}

impl Scheduler for DisclosuresLast {
    fn on_send(&mut self, meta: &InFlight, id: EnvelopeId) {
        if !self.released && meta.to == self.victim && meta.kind.starts_with("disc_") {
            self.held.insert(meta.seq, id);
            self.held_ids.insert(id, meta.seq);
        } else {
            if !self.released && meta.to == self.victim && meta.kind.starts_with("ack") {
                self.early.insert(id, ());
            }
            self.inner.on_send(meta, id);
            self.inner_count += 1;
        }
    }
    fn choose(&mut self, now: u64) -> EnvelopeId {
        self.released |= now >= self.release_after;
        match self.held.values().next() {
            Some(&id) if self.released || self.inner_count == 0 => id,
            _ => self.inner.choose(now),
        }
    }
    fn on_delivered(&mut self, id: EnvelopeId) {
        match self.held_ids.remove(&id) {
            Some(seq) => {
                self.held.remove(&seq);
            }
            None => {
                if self.early.remove(&id).is_some() && !self.held.is_empty() {
                    self.overtaken += 1;
                }
                self.inner.on_delivered(id);
                self.inner_count -= 1;
            }
        }
    }
    fn reset(&mut self) {
        self.held.clear();
        self.held_ids.clear();
        self.early.clear();
        self.inner.reset();
        self.inner_count = 0;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An all-correct GWTS system of `n` processes deciding `rounds` rounds,
/// each process disclosing `per_round` values in every round but the
/// last two (what the last rounds disclose may be decided only beyond
/// the horizon).
fn gwts(
    (n, f): (usize, usize),
    rounds: u64,
    per_round: u64,
    scheduler: Box<dyn Scheduler>,
) -> Simulation<GwtsMsg<u64>> {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        let schedule = (0..rounds - 2)
            .map(|r| {
                (
                    r,
                    (0..per_round)
                        .map(|k| (i as u64) << 32 | r << 8 | k)
                        .collect(),
                )
            })
            .collect();
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
    }
    b.build()
}

/// The run goes quiet with every round decided everywhere, every honest
/// input decided, the spec held, and nothing parked.
fn assert_live(mut sim: Simulation<GwtsMsg<u64>>, n: usize, rounds: u64, cell: &str) {
    assert!(sim.run(u64::MAX / 2).quiescent, "{cell}: not quiescent");
    let (mut seqs, mut inputs) = (Vec::new(), Vec::new());
    for i in 0..n {
        let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
        assert_eq!(p.decisions.len(), rounds as usize, "{cell}: p{i} decisions");
        assert_eq!(p.parked_len(), 0, "{cell}: p{i} left parked");
        seqs.push(p.decisions.clone());
        inputs.push(p.all_inputs.clone());
    }
    spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("{cell}: {e}"));
    spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("{cell}: {e}"));
    spec::check_generalized_inclusivity(&inputs, &seqs).unwrap_or_else(|e| panic!("{cell}: {e}"));
}

#[test]
fn gwts_decides_every_input_under_random_schedules() {
    for seed in 0..seeds() {
        for (system, rounds, per_round) in [((10, 3), 6, 3), ((4, 1), 10, 4)] {
            let sim = gwts(
                system,
                rounds,
                per_round,
                Box::new(RandomScheduler::new(seed)),
            );
            assert_live(
                sim,
                system.0,
                rounds,
                &format!("n={} seed {seed}", system.0),
            );
        }
    }
}

#[test]
fn gwts_decides_every_input_when_names_outrun_their_batches() {
    for seed in 0..seeds() {
        for (system, rounds, per_round) in [((10, 3), 6, 3), ((4, 1), 10, 4)] {
            let victim = seed as usize % system.0;
            // Up to about a round's worth of deliveries.
            let release_after = (1 + seed % 4) * 2 * system.0.pow(3) as u64;
            let inner = Box::new(RandomScheduler::new(seed));
            let scheduler = DisclosuresLast::new(victim, release_after, inner);
            let mut sim = gwts(system, rounds, per_round, Box::new(scheduler));
            let cell = format!("n={} victim p{victim} seed {seed}", system.0);
            assert!(sim.run(u64::MAX / 2).quiescent, "{cell}: not quiescent");
            let held = sim.scheduler_as::<DisclosuresLast>().unwrap();
            assert!(held.overtaken > 0, "{cell}: no ack overtook a disclosure");
            assert_live(sim, system.0, rounds, &cell);
        }
    }
}

#[test]
fn rsm_clients_all_finish() {
    let (n, f, clients) = (4usize, 1usize, 8u64);
    let updates = if cfg!(debug_assertions) { 12 } else { 100 };
    for seed in 0..seeds() {
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..n {
            b = b.add(Box::new(Replica::new(i, config, 600)));
        }
        for c in 0..clients {
            let script = (0..updates)
                .map(|k| ClientOp::Update(Op::Add(1 + (c * 7 + k) % 9)))
                .collect();
            b = b.add(Box::new(WorkloadClient::new(c, n, f, script)));
        }
        let mut sim: Simulation<RsmMsg> = b.build();
        let finished = |sim: &Simulation<RsmMsg>| {
            (n..n + clients as usize)
                .all(|i| sim.process_as::<WorkloadClient>(i).unwrap().finished())
        };
        sim.start();
        while !finished(&sim) && sim.step() {}
        for i in n..n + clients as usize {
            let c = sim.process_as::<WorkloadClient>(i).unwrap();
            assert!(c.finished(), "seed {seed}: client {} stuck", c.client_id);
        }
    }
}
