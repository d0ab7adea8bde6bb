//! End-to-end RSM runs: replicas + clients co-simulated, all six
//! properties checked, with and without Byzantine replicas and clients.

use bgla_core::SystemConfig;
use bgla_rsm::checks;
use bgla_rsm::client::{GarbageClient, OpResult, PipeliningClient, StingyClient};
use bgla_rsm::{ClientOp, Cmd, CounterState, Op, Replica, RsmMsg, WorkloadClient};
use bgla_simnet::{
    FifoScheduler, Process, RandomScheduler, Scheduler, Simulation, SimulationBuilder,
};

const MAX_ROUNDS: u64 = 40;

/// Byzantine replica: drops everything (crashed from the start).
struct DeadReplica;

impl Process<RsmMsg> for DeadReplica {
    fn on_message(&mut self, _f: usize, _m: RsmMsg, _c: &mut bgla_simnet::Context<RsmMsg>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Builds a sim with `n` replicas (`f` tolerance), the last `dead` of
/// them [`DeadReplica`]s, and the given clients.
fn rsm_sim(
    n: usize,
    f: usize,
    dead: usize,
    clients: Vec<Box<dyn Process<RsmMsg>>>,
    scheduler: Box<dyn Scheduler>,
) -> Simulation<RsmMsg> {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n - dead {
        b = b.add(Box::new(
            Replica::new(i, config, MAX_ROUNDS).with_validator(|c| c.client < 1000),
        ));
    }
    for _ in 0..dead {
        b = b.add(Box::new(DeadReplica));
    }
    for c in clients {
        b = b.add(c);
    }
    b.build()
}

fn workload(id: u64, n: usize, f: usize, script: Vec<ClientOp>) -> Box<dyn Process<RsmMsg>> {
    Box::new(WorkloadClient::new(id, n, f, script))
}

fn clients_of(sim: &Simulation<RsmMsg>, ids: &[usize]) -> Vec<WorkloadClient> {
    ids.iter()
        .map(|&i| {
            let c = sim.process_as::<WorkloadClient>(i).unwrap();
            // Clone the observable pieces into a fresh client for the
            // checkers (WorkloadClient has no Clone; rebuild).
            let mut copy = WorkloadClient::new(c.client_id, 0, 0, vec![]);
            copy.results = c.results.clone();
            copy
        })
        .collect()
}

#[test]
fn single_client_update_read() {
    let (n, f) = (4, 1);
    let script = vec![
        ClientOp::Update(Op::Add(5)),
        ClientOp::Read,
        ClientOp::Update(Op::Add(7)),
        ClientOp::Read,
    ];
    let mut sim = rsm_sim(
        n,
        f,
        0,
        vec![workload(1, n, f, script)],
        Box::new(FifoScheduler::new()),
    );
    sim.run(20_000_000);
    let client = sim.process_as::<WorkloadClient>(4).unwrap();
    assert!(
        client.finished(),
        "client did not finish: {:?}",
        client.results
    );
    let reads = client.reads();
    assert_eq!(reads.len(), 2);
    // First read sees the first add; second read sees both.
    assert_eq!(CounterState::execute(&reads[0]).total, 5);
    assert_eq!(CounterState::execute(&reads[1]).total, 12);
}

#[test]
fn multiple_clients_all_properties_hold() {
    for seed in 0..5 {
        let (n, f) = (4, 1);
        let scripts = vec![
            vec![
                ClientOp::Update(Op::Add(1)),
                ClientOp::Read,
                ClientOp::Update(Op::Add(2)),
                ClientOp::Read,
            ],
            vec![
                ClientOp::Update(Op::Put("a".into())),
                ClientOp::Read,
                ClientOp::Read,
            ],
            vec![
                ClientOp::Read,
                ClientOp::Update(Op::Add(10)),
                ClientOp::Read,
            ],
        ];
        let clients: Vec<Box<dyn Process<RsmMsg>>> = scripts
            .into_iter()
            .enumerate()
            .map(|(k, s)| workload(k as u64 + 1, n, f, s))
            .collect();
        let mut sim = rsm_sim(n, f, 0, clients, Box::new(RandomScheduler::new(seed)));
        sim.run(50_000_000);
        let snapshot = clients_of(&sim, &[4, 5, 6]);
        let refs: Vec<&WorkloadClient> = snapshot.iter().collect();
        checks::check_all(&refs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn byzantine_replica_does_not_break_clients() {
    // Replica 3 is silent (crashed from the start).
    for seed in 0..3 {
        let (n, f) = (4, 1);
        // Clients contact replicas 0..f+1 = 0..2 (correct ones here).
        let clients = vec![
            workload(1, n, f, vec![ClientOp::Update(Op::Add(3)), ClientOp::Read]),
            workload(2, n, f, vec![ClientOp::Read]),
        ];
        let mut sim = rsm_sim(n, f, 1, clients, Box::new(RandomScheduler::new(seed)));
        sim.run(50_000_000);
        let snapshot = clients_of(&sim, &[4, 5]);
        let refs: Vec<&WorkloadClient> = snapshot.iter().collect();
        checks::check_all(&refs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let c1 = &snapshot[0];
        let last_read = c1.reads().pop().unwrap();
        assert_eq!(CounterState::execute(&last_read).total, 3);
    }
}

/// All six properties hold for the honest clients while Byzantine
/// clients and, at `n = 7`, a Byzantine replica beside them misbehave.
#[test]
fn byzantine_clients_cannot_corrupt_state() {
    for (n, f, dead) in [(4, 1, 0), (7, 2, 1)] {
        let clients: Vec<Box<dyn Process<RsmMsg>>> = vec![
            workload(1, n, f, vec![ClientOp::Update(Op::Add(5)), ClientOp::Read]),
            workload(
                2,
                n,
                f,
                vec![
                    ClientOp::Read,
                    ClientOp::Update(Op::Put("k".into())),
                    ClientOp::Read,
                ],
            ),
            Box::new(GarbageClient {
                client_id: 50,
                n_replicas: n,
            }),
            Box::new(StingyClient {
                client_id: 60,
                target: 0,
                op: Op::Add(100),
            }),
            Box::new(PipeliningClient {
                client_id: 70,
                n_replicas: n,
                f,
                burst: 3,
            }),
        ];
        let mut sim = rsm_sim(n, f, dead, clients, Box::new(FifoScheduler::new()));
        sim.run(50_000_000);
        for id in [n, n + 1] {
            let client = sim.process_as::<WorkloadClient>(id).unwrap();
            assert!(client.finished(), "n={n}: client {id} never finished");
        }
        let honest = clients_of(&sim, &[n, n + 1]);
        let refs: Vec<&WorkloadClient> = honest.iter().collect();
        checks::check_all(&refs).unwrap_or_else(|e| panic!("n={n}: {e}"));
        let read = honest[0].reads().pop().unwrap();
        let st = CounterState::execute(&read);
        // Garbage rejected: the u64::MAX add never lands.
        assert!(read.iter().all(|c: &Cmd| c.client < 1000), "n={n}");
        // Honest value present.
        assert!(st.total >= 5, "n={n}");
        // Stingy client's command went to one *correct* replica: it is
        // eventually decided (may or may not be in this read's snapshot);
        // pipelined commands are treated as concurrent updates. Neither
        // can exceed the legal sum.
        assert!(st.total <= 5 + 100 + 3, "n={n}");
    }
}

#[test]
fn reads_reflect_quorum_confirmed_decisions_only() {
    // Read Validity, structurally: whatever a read returns must be a
    // set the replicas' public ack history committed. We verify via the
    // replicas themselves after quiescence.
    let (n, f) = (4, 1);
    let script = vec![ClientOp::Update(Op::Add(9)), ClientOp::Read];
    let mut sim = rsm_sim(
        n,
        f,
        0,
        vec![workload(1, n, f, script)],
        Box::new(FifoScheduler::new()),
    );
    sim.run(20_000_000);
    let client = sim.process_as::<WorkloadClient>(4).unwrap();
    let read_with_nops: bgla_core::ValueSet<Cmd> = {
        // Reconstruct: the client strips nops; ask replicas for a
        // committed superset instead.
        client.reads().pop().unwrap()
    };
    let mut confirmed = false;
    for i in 0..n {
        let r = sim.process_as::<Replica>(i).unwrap();
        if r.inner
            .decisions
            .iter()
            .any(|d| read_with_nops.iter().all(|c| d.contains(c)))
        {
            confirmed = true;
        }
    }
    assert!(
        confirmed,
        "read value not contained in any replica decision"
    );
}

/// Alg. 7's confirmation outlives `prune_old_rounds`: a `CnfReq` that the
/// scheduler holds until the replica has pruned the round its set was
/// committed in is answered from the replica's own decisions. (Answered
/// from the ack history alone, most of these seeds strand a client or
/// four for good: the read mix of the `sim_rsm_read` benchmark workload,
/// eight closed-loop clients, three reads per update.)
#[test]
fn reads_are_confirmed_after_their_round_was_pruned() {
    let (n, f, clients) = (4usize, 1usize, 8usize);
    let ops = if cfg!(debug_assertions) { 16 } else { 100 };
    let mut retained = Vec::new();
    for seed in 0..40u64 {
        let scripts = (0..clients).map(|c| {
            let script = (0..ops)
                .map(|j| match j % 4 {
                    0 => ClientOp::Update(Op::Add(1 + (seed + c as u64 + j) % 9)),
                    _ => ClientOp::Read,
                })
                .collect();
            workload(c as u64 + 1, n, f, script)
        });
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..n {
            b = b.add(Box::new(Replica::new(i, config, 600)));
        }
        let mut sim = scripts.fold(b, |b, c| b.add(c)).build();
        sim.start();
        let finished = |sim: &Simulation<RsmMsg>| {
            (n..n + clients).all(|id| sim.process_as::<WorkloadClient>(id).unwrap().finished())
        };
        let mut longest = 0;
        while !finished(&sim) {
            assert!(sim.step(), "seed {seed}: quiescent with a client waiting");
            let replica = |i| sim.process_as::<Replica>(i).unwrap();
            longest = (0..n).fold(longest, |m, i| m.max(replica(i).inner.ack_history_len()));
        }
        let ids: Vec<usize> = (n..n + clients).collect();
        let done = clients_of(&sim, &ids);
        let done: Vec<&WorkloadClient> = done.iter().collect();
        checks::check_read_monotonicity(&done).unwrap();
        checks::check_update_visibility(&done).unwrap();
        retained.push(longest);
    }
    // The answer keeps no round: the ack history never holds more than a
    // handful of sets, at 16 ops a client (debug) as at 100 (release).
    assert!(retained.iter().all(|len| *len <= 6), "{retained:?}");
}

/// Byzantine replica: an honest replica underneath, which also names every
/// command it is sent as committed at once, before any decision holds it.
struct PrematureReplica(Replica);

impl Process<RsmMsg> for PrematureReplica {
    fn on_start(&mut self, ctx: &mut bgla_simnet::Context<RsmMsg>) {
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, from: usize, msg: RsmMsg, ctx: &mut bgla_simnet::Context<RsmMsg>) {
        if let RsmMsg::NewValue(cmd) = &msg {
            ctx.send(from, RsmMsg::Committed(cmd.clone()));
        }
        self.0.on_message(from, msg, ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// An honest client that logs which replicas named which command.
struct Listener {
    client: WorkloadClient,
    committed: Vec<(usize, Cmd)>,
}

impl Process<RsmMsg> for Listener {
    fn on_start(&mut self, ctx: &mut bgla_simnet::Context<RsmMsg>) {
        self.client.on_start(ctx);
    }
    fn on_message(&mut self, from: usize, msg: RsmMsg, ctx: &mut bgla_simnet::Context<RsmMsg>) {
        if let RsmMsg::Committed(cmd) = &msg {
            self.committed.push((from, cmd.clone()));
        }
        self.client.on_message(from, msg, ctx);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A `Committed` from a Byzantine replica is one of the `f + 1` voices an
/// update needs, never all of them: with replica 0 naming every command
/// before it is decided, and clients submitting to replicas {0, 1}, each
/// update completes only once replica 1 has named it too, and by then an
/// honest replica's decision holds it.
#[test]
fn a_premature_committed_is_one_voice_of_f_plus_one() {
    let (n, f) = (4, 1);
    let config = SystemConfig::new(n, f);
    let mut lies_first = 0;
    for seed in 0..8 {
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        b = b.add(Box::new(PrematureReplica(Replica::new(
            0, config, MAX_ROUNDS,
        ))));
        for i in 1..n {
            b = b.add(Box::new(Replica::new(i, config, MAX_ROUNDS)));
        }
        for id in 1..=3u64 {
            let script = vec![
                ClientOp::Update(Op::Add(id)),
                ClientOp::Read,
                ClientOp::Update(Op::Add(10 * id)),
                ClientOp::Read,
            ];
            b = b.add(Box::new(Listener {
                client: WorkloadClient::new(id, n, f, script),
                committed: Vec::new(),
            }));
        }
        let mut sim = b.build();
        sim.start();
        let listeners = n..n + 3;
        let mut seen = [0; 3];
        while sim.step() {
            for (k, id) in listeners.clone().enumerate() {
                let l = sim.process_as::<Listener>(id).unwrap();
                for result in &l.client.results[seen[k]..] {
                    let OpResult::Updated(cmd) = result else {
                        continue;
                    };
                    let by = |r| {
                        l.committed
                            .iter()
                            .position(|(from, c)| *from == r && c == cmd)
                    };
                    let honest = by(1).unwrap_or_else(|| {
                        panic!("seed {seed}: {cmd:?} completed before replica 1 named it")
                    });
                    lies_first += usize::from(by(0).is_some_and(|lie| lie < honest));
                    let decided = (1..n).any(|i| {
                        let r = sim.process_as::<Replica>(i).unwrap();
                        r.inner.decisions.iter().any(|d| d.contains(cmd))
                    });
                    assert!(decided, "seed {seed}: {cmd:?} in no honest decision");
                }
                seen[k] = l.client.results.len();
            }
        }
        let done: Vec<WorkloadClient> = listeners
            .map(|id| {
                let l = sim.process_as::<Listener>(id).unwrap();
                let mut copy = WorkloadClient::new(l.client.client_id, 0, 0, vec![]);
                copy.results = l.client.results.clone();
                assert!(
                    l.client.finished(),
                    "seed {seed}: client {id} never finished"
                );
                copy
            })
            .collect();
        let refs: Vec<&WorkloadClient> = done.iter().collect();
        checks::check_all(&refs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    // The lie does arrive ahead of the honest reply, and is not enough.
    assert!(lies_first > 0);
}
