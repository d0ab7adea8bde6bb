//! RSM clients: the Update and Read procedures of Algorithms 5 and 6,
//! plus Byzantine client behaviors for Lemma 12's robustness claims.

use crate::cmd::{Cmd, Op};
use crate::replica::RsmMsg;
use bgla_core::ValueSet;
use bgla_simnet::{Context, Process, ProcessId};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// One step of a client workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// `update(op)`: completes when `f + 1` distinct replicas name the
    /// command in a [`RsmMsg::Committed`], each once a decision of its
    /// own holds it.
    Update(Op),
    /// `read()`: a nop update followed by the confirmation round;
    /// returns the confirmed command set.
    Read,
}

/// What a finished operation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Update acknowledged.
    Updated(Cmd),
    /// Read returned this (confirmed) command set.
    ReadValue(ValueSet<Cmd>),
}

/// Phase of the in-flight operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Update: waiting for f+1 distinct replicas to name `cmd` in a
    /// `Committed`.
    AwaitCommitted {
        cmd: Cmd,
        replicas: BTreeSet<ProcessId>,
    },
    /// Read: waiting for f+1 decide messages containing the read's `nop`.
    AwaitDecides {
        nop: Cmd,
        decides: BTreeMap<ProcessId, ValueSet<Cmd>>,
    },
    /// Read confirmation: waiting for f+1 CnfRep for one of the candidate
    /// sets this read asked about, which are the map's keys. A
    /// confirmation of any other set (say, a late one for an earlier
    /// read) is not counted.
    AwaitConfirm {
        confirms: BTreeMap<ValueSet<Cmd>, BTreeSet<ProcessId>>,
    },
    Done,
}

/// An honest sequential client: runs `script` one operation at a time,
/// starting each op only after the previous completed (the orderings the
/// RSM properties quantify over).
pub struct WorkloadClient {
    /// Client id used in command tags.
    pub client_id: u64,
    n_replicas: usize,
    f: usize,
    script: Vec<ClientOp>,
    next_op: usize,
    seq: u64,
    phase: Phase,
    /// Completed operations, in issue order.
    pub results: Vec<OpResult>,
}

impl WorkloadClient {
    /// New client. `client_id` should be unique across clients.
    pub fn new(client_id: u64, n_replicas: usize, f: usize, script: Vec<ClientOp>) -> Self {
        WorkloadClient {
            client_id,
            n_replicas,
            f,
            script,
            next_op: 0,
            seq: 0,
            phase: Phase::Idle,
            results: Vec::new(),
        }
    }

    /// Read results observed so far, in completion order.
    pub fn reads(&self) -> Vec<ValueSet<Cmd>> {
        self.results
            .iter()
            .filter_map(|r| match r {
                OpResult::ReadValue(v) => Some(v.clone()),
                _ => None,
            })
            .collect()
    }

    /// Whether the whole script completed.
    pub fn finished(&self) -> bool {
        self.next_op >= self.script.len() && matches!(self.phase, Phase::Idle | Phase::Done)
    }

    fn submit_next(&mut self, ctx: &mut Context<RsmMsg>) {
        let Some(op) = self.script.get(self.next_op).cloned() else {
            self.phase = Phase::Done;
            return;
        };
        self.next_op += 1;
        let cmd = match op {
            ClientOp::Update(op) => Cmd::new(self.client_id, self.seq, op),
            ClientOp::Read => Cmd::nop(self.client_id, self.seq),
        };
        self.seq += 1;
        // Alg. 5 line 3: any subset of f+1 replicas suffices.
        ctx.multicast(0..self.f + 1, RsmMsg::NewValue(cmd.clone()));
        self.phase = if cmd.is_nop() {
            Phase::AwaitDecides {
                nop: cmd,
                decides: BTreeMap::new(),
            }
        } else {
            Phase::AwaitCommitted {
                cmd,
                replicas: BTreeSet::new(),
            }
        };
    }

    /// Records the finished operation's result and starts the next one.
    fn complete(&mut self, result: OpResult, ctx: &mut Context<RsmMsg>) {
        self.results.push(result);
        self.phase = Phase::Idle;
        self.submit_next(ctx);
    }
}

impl Process<RsmMsg> for WorkloadClient {
    fn on_start(&mut self, ctx: &mut Context<RsmMsg>) {
        self.submit_next(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: RsmMsg, ctx: &mut Context<RsmMsg>) {
        if from >= self.n_replicas {
            return; // only replicas talk to clients
        }
        match (&mut self.phase, msg) {
            (Phase::AwaitCommitted { cmd, replicas }, RsmMsg::Committed(named)) => {
                if named != *cmd {
                    return;
                }
                replicas.insert(from);
                if replicas.len() >= self.f + 1 {
                    self.complete(OpResult::Updated(named), ctx);
                }
            }
            (Phase::AwaitDecides { nop, decides }, RsmMsg::Decide(set)) => {
                if !set.contains(nop) {
                    return;
                }
                decides.insert(from, set);
                if decides.len() >= self.f + 1 {
                    // Alg. 6: ask all replicas to confirm each of the f+1
                    // candidate decision values.
                    let confirms: BTreeMap<ValueSet<Cmd>, BTreeSet<ProcessId>> = decides
                        .values()
                        .map(|c| (c.clone(), BTreeSet::new()))
                        .collect();
                    for c in confirms.keys() {
                        ctx.multicast(0..self.n_replicas, RsmMsg::CnfReq(c.clone()));
                    }
                    self.phase = Phase::AwaitConfirm { confirms };
                }
            }
            (Phase::AwaitConfirm { confirms }, RsmMsg::CnfRep(set)) => {
                let Some(entry) = confirms.get_mut(&set) else {
                    return; // not a set this read asked about
                };
                entry.insert(from);
                if entry.len() >= self.f + 1 {
                    // First set confirmed by f+1 replicas is returned;
                    // execution strips the nops.
                    let value: ValueSet<Cmd> =
                        set.iter().filter(|c| !c.is_nop()).cloned().collect();
                    self.complete(OpResult::ReadValue(value), ctx);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Byzantine client: submits a command to only **one** replica instead of
/// `f + 1` (Lemma 12: a single correct replica receiving it suffices for
/// it to be decided — or, if that replica is Byzantine, the command may
/// be lost, which only hurts the misbehaving client).
pub struct StingyClient {
    /// Tag used in its commands.
    pub client_id: u64,
    /// The single replica contacted.
    pub target: ProcessId,
    /// The operation submitted.
    pub op: Op,
}

impl Process<RsmMsg> for StingyClient {
    fn on_start(&mut self, ctx: &mut Context<RsmMsg>) {
        ctx.send(
            self.target,
            RsmMsg::NewValue(Cmd::new(self.client_id, 0, self.op.clone())),
        );
    }
    fn on_message(&mut self, _f: ProcessId, _m: RsmMsg, _c: &mut Context<RsmMsg>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Byzantine client: floods updates without waiting for completion
/// ("invokes a sequence of updates without waiting" — handled as
/// concurrent operations).
pub struct PipeliningClient {
    /// Tag used in its commands.
    pub client_id: u64,
    /// Number of replicas (to address the fan-out).
    pub n_replicas: usize,
    /// `f` bound.
    pub f: usize,
    /// How many updates to blast at once.
    pub burst: u64,
}

impl Process<RsmMsg> for PipeliningClient {
    fn on_start(&mut self, ctx: &mut Context<RsmMsg>) {
        for seq in 0..self.burst {
            let cmd = Cmd::new(self.client_id, seq, Op::Add(1));
            ctx.multicast(0..self.f + 1, RsmMsg::NewValue(cmd));
        }
    }
    fn on_message(&mut self, _f: ProcessId, _m: RsmMsg, _c: &mut Context<RsmMsg>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Byzantine client: submits garbage commands (rejected by the replica
/// validator) and forged GWTS traffic (ignored: wrong id range).
pub struct GarbageClient {
    /// Tag used in its commands.
    pub client_id: u64,
    /// Number of replicas.
    pub n_replicas: usize,
}

impl Process<RsmMsg> for GarbageClient {
    fn on_start(&mut self, ctx: &mut Context<RsmMsg>) {
        // A command the validator rejects (validator in tests rejects
        // client ids >= 1000).
        let garbage = Cmd::new(1000 + self.client_id, 0, Op::Add(u64::MAX));
        ctx.multicast(0..self.n_replicas, RsmMsg::NewValue(garbage));
        // Forged agreement traffic.
        ctx.multicast(
            0..self.n_replicas,
            RsmMsg::Gwts(bgla_core::gwts::GwtsMsg::Nack {
                accepted: bgla_core::gwts::NamedSet::default(),
                ts: 999,
                round: 999,
            }),
        );
    }
    fn on_message(&mut self, _f: ProcessId, _m: RsmMsg, _c: &mut Context<RsmMsg>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::check_update_visibility;

    /// A client with sim id 4 beside replicas 0..4 (n = 4, f = 1).
    fn client(script: Vec<ClientOp>) -> (WorkloadClient, Vec<(ProcessId, RsmMsg)>) {
        let mut c = WorkloadClient::new(1, 4, 1, script);
        let mut ctx = Context::for_embedding(4, 5, 0, 0);
        c.on_start(&mut ctx);
        (c, ctx.take_outbox())
    }

    /// Delivers `msg` from `from` and returns what the client sent.
    fn deliver(c: &mut WorkloadClient, from: ProcessId, msg: RsmMsg) -> Vec<(ProcessId, RsmMsg)> {
        let mut ctx = Context::for_embedding(4, 5, 0, 0);
        c.on_message(from, msg, &mut ctx);
        ctx.take_outbox()
    }

    fn set(cmds: &[&Cmd]) -> ValueSet<Cmd> {
        cmds.iter().map(|c| (*c).clone()).collect()
    }

    #[test]
    fn an_update_completes_at_f_plus_one_replicas_naming_its_command() {
        let (mut c, sent) = client(vec![ClientOp::Update(Op::Add(7)), ClientOp::Read]);
        let cmd = Cmd::new(1, 0, Op::Add(7));
        let submit = RsmMsg::NewValue(cmd.clone());
        assert_eq!(sent, vec![(0, submit.clone()), (1, submit)]);
        // Another command, a decided set holding this one, a repeat and a
        // client's word count for nothing.
        let other = Cmd::new(1, 0, Op::Add(8));
        assert!(deliver(&mut c, 0, RsmMsg::Committed(other)).is_empty());
        assert!(deliver(&mut c, 1, RsmMsg::Decide(set(&[&cmd]))).is_empty());
        assert!(deliver(&mut c, 0, RsmMsg::Committed(cmd.clone())).is_empty());
        assert!(deliver(&mut c, 0, RsmMsg::Committed(cmd.clone())).is_empty());
        assert!(deliver(&mut c, 4, RsmMsg::Committed(cmd.clone())).is_empty());
        assert!(c.results.is_empty());
        let next = deliver(&mut c, 2, RsmMsg::Committed(cmd.clone()));
        assert_eq!(c.results, vec![OpResult::Updated(cmd)]);
        let nop = RsmMsg::NewValue(Cmd::nop(1, 1));
        assert_eq!(next, vec![(0, nop.clone()), (1, nop)]);
    }

    #[test]
    fn a_read_ignores_committed() {
        let (mut c, _) = client(vec![ClientOp::Read]);
        let nop = Cmd::nop(1, 0);
        for from in 0..4 {
            assert!(deliver(&mut c, from, RsmMsg::Committed(nop.clone())).is_empty());
        }
        assert!(deliver(&mut c, 0, RsmMsg::Decide(set(&[&nop]))).is_empty());
        let asks = deliver(&mut c, 1, RsmMsg::Decide(set(&[&nop])));
        assert_eq!(asks.len(), 4, "{asks:?}");
        assert!(c.results.is_empty());
    }

    /// Confirmations of an earlier read that arrive late cannot end a later
    /// read with the older set.
    #[test]
    fn a_late_confirmation_of_an_earlier_read_is_not_counted() {
        let script = vec![ClientOp::Read, ClientOp::Update(Op::Add(7)), ClientOp::Read];
        let (mut c, _) = client(script);
        let (nop0, add, nop2) = (Cmd::nop(1, 0), Cmd::new(1, 1, Op::Add(7)), Cmd::nop(1, 2));
        let s0 = set(&[&nop0]);
        deliver(&mut c, 0, RsmMsg::Decide(s0.clone()));
        deliver(&mut c, 1, RsmMsg::Decide(s0.clone()));
        deliver(&mut c, 0, RsmMsg::CnfRep(s0.clone()));
        deliver(&mut c, 1, RsmMsg::CnfRep(s0.clone()));
        deliver(&mut c, 0, RsmMsg::Committed(add.clone()));
        deliver(&mut c, 1, RsmMsg::Committed(add.clone()));
        let s1 = set(&[&nop0, &add, &nop2]);
        deliver(&mut c, 0, RsmMsg::Decide(s1.clone()));
        deliver(&mut c, 1, RsmMsg::Decide(s1.clone()));
        // Replicas 2 and 3 confirm the first read's set only now.
        deliver(&mut c, 2, RsmMsg::CnfRep(s0.clone()));
        deliver(&mut c, 3, RsmMsg::CnfRep(s0));
        assert_eq!(c.results.len(), 2, "{:?}", c.results);
        deliver(&mut c, 2, RsmMsg::CnfRep(s1.clone()));
        deliver(&mut c, 3, RsmMsg::CnfRep(s1));
        assert!(c.finished());
        assert_eq!(c.reads(), vec![ValueSet::new(), set(&[&add])]);
        assert_eq!(check_update_visibility(&[&c]), Ok(()));
    }
}
