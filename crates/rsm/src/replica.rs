//! The RSM replica: a GWTS participant plus the client-facing interface
//! and the confirmation plug-in of Algorithm 7.
//!
//! # What an update is told
//!
//! Alg. 5 completes an update once `f + 1` replicas report
//! `<decide, Accepted_set, replica>` with its command in the set. Here a
//! replica reports an update command by naming it
//! ([`RsmMsg::Committed`]) and keeps the decided set for the `nop` of a
//! read ([`RsmMsg::Decide`]), whose value that set is. The reply to an
//! update costs the command's bytes, not the history's.
//!
//! * *Assumption.* The update client only ever read `cmd ∈ set` from the
//!   reply. A Byzantine replica could always send some set that contains
//!   `cmd`, so the set was never more evidence than the replica's word.
//!   Any `f + 1` distinct replicas naming `cmd` still include a correct
//!   one, whose decision holds `cmd`; that is all Update Stability and
//!   Update Visibility (Theorem 6) use.
//! * *Guard.* `Replica::reply` picks the reply by `Cmd::is_nop`, for the
//!   subscribed clients of a fresh decision and for the already-decided
//!   fast path of `NewValue` alike; `WorkloadClient`'s update phase
//!   counts distinct replicas that name its exact command and nothing
//!   else.
//! * *Tests.* `update_reply_is_the_same_size_at_any_history`,
//!   `new_value_answers_with_the_first_decision_holding_it` (unit);
//!   `client.rs`'s phase tests; `rsm_e2e.rs`'s
//!   `a_premature_committed_is_one_voice_of_f_plus_one`, where a
//!   Byzantine replica names every command before it is decided.

use crate::cmd::Cmd;
use bgla_codec::{CodecError, Reader, Wire, Writer};
use bgla_core::gwts::{GwtsMsg, GwtsProcess};
use bgla_core::{SystemConfig, ValueSet};
use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// Messages of the replicated state machine deployment: GWTS traffic
/// among replicas plus the client protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmMsg {
    /// Replica ↔ replica: the agreement substrate.
    Gwts(GwtsMsg<Cmd>),
    /// Client → replica: submit a command (Alg. 5 line 3 / Alg. 6
    /// line 3).
    NewValue(Cmd),
    /// Replica → client: a decision containing the `nop` of the client's
    /// pending read (`<decide, Accepted_set, replica>`).
    Decide(ValueSet<Cmd>),
    /// Client → replica: confirm that a set was decided (Alg. 6 line 8).
    CnfReq(ValueSet<Cmd>),
    /// Replica → client: confirmation (Alg. 7 line 5).
    CnfRep(ValueSet<Cmd>),
    /// Replica → client: a decision holds this pending update command
    /// (see "What an update is told" in the module doc).
    Committed(Cmd),
}

impl WireMessage for RsmMsg {
    fn kind(&self) -> &'static str {
        match self {
            RsmMsg::Gwts(g) => g.kind(),
            RsmMsg::NewValue(_) => "new_value",
            RsmMsg::Decide(_) => "decide",
            RsmMsg::CnfReq(_) => "cnf_req",
            RsmMsg::CnfRep(_) => "cnf_rep",
            RsmMsg::Committed(_) => "committed",
        }
    }
}

impl Wire for RsmMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            RsmMsg::Gwts(g) => {
                w.u8(0);
                g.encode(w);
            }
            RsmMsg::NewValue(c) => {
                w.u8(1);
                c.encode(w);
            }
            RsmMsg::Decide(s) => {
                w.u8(2);
                s.encode(w);
            }
            RsmMsg::CnfReq(s) => {
                w.u8(3);
                s.encode(w);
            }
            RsmMsg::CnfRep(s) => {
                w.u8(4);
                s.encode(w);
            }
            RsmMsg::Committed(c) => {
                w.u8(5);
                c.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(RsmMsg::Gwts(Wire::decode(r)?)),
            1 => Ok(RsmMsg::NewValue(Wire::decode(r)?)),
            2 => Ok(RsmMsg::Decide(Wire::decode(r)?)),
            3 => Ok(RsmMsg::CnfReq(Wire::decode(r)?)),
            4 => Ok(RsmMsg::CnfRep(Wire::decode(r)?)),
            5 => Ok(RsmMsg::Committed(Wire::decode(r)?)),
            _ => Err(CodecError::Invalid("rsm msg tag")),
        }
    }
}

/// A correct replica.
///
/// Wraps a [`GwtsProcess`] over commands. The replica's id must be in
/// `0..n_replicas`; clients occupy higher simulation ids. All GWTS
/// traffic stays within the replica id range.
pub struct Replica {
    /// Agreement engine.
    pub inner: GwtsProcess<Cmd>,
    n_replicas: usize,
    /// Commands whose deciding clients still await notification:
    /// command -> clients.
    pending_notify: BTreeMap<Cmd, BTreeSet<ProcessId>>,
    /// Confirmation requests not yet satisfiable (Alg. 7's
    /// `Pending_conf`).
    pending_conf: Vec<(ProcessId, ValueSet<Cmd>)>,
    /// How many inner decisions have been broadcast to clients already.
    notified_upto: usize,
    /// Command validity filter (Lemma 12: garbage from Byzantine clients
    /// is discarded because it "is not an element of the lattice").
    validator: fn(&Cmd) -> bool,
    /// The context every event of `inner` runs in, re-stamped per event:
    /// its outbox is allocated once, not once per event.
    inner_ctx: Context<GwtsMsg<Cmd>>,
}

impl Replica {
    /// Creates replica `me` of `n_replicas` tolerating `f`, running
    /// `max_rounds` GWTS rounds.
    pub fn new(me: ProcessId, config: SystemConfig, max_rounds: u64) -> Replica {
        Replica {
            inner: GwtsProcess::new(me, config, BTreeMap::new(), max_rounds),
            n_replicas: config.n,
            pending_notify: BTreeMap::new(),
            pending_conf: Vec::new(),
            notified_upto: 0,
            validator: |_| true,
            inner_ctx: Context::for_embedding(me, config.n, 0, 0),
        }
    }

    /// Installs a command validity predicate.
    pub fn with_validator(mut self, v: fn(&Cmd) -> bool) -> Self {
        self.validator = v;
        self
    }

    /// Forwards an event to the inner GWTS process and remaps its outbox.
    fn run_inner<F>(&mut self, ctx: &mut Context<RsmMsg>, f: F)
    where
        F: FnOnce(&mut GwtsProcess<Cmd>, &mut Context<GwtsMsg<Cmd>>),
    {
        self.inner_ctx.depth = ctx.depth;
        self.inner_ctx.local_events = ctx.local_events;
        f(&mut self.inner, &mut self.inner_ctx);
        for (to, msg) in self.inner_ctx.drain_outbox() {
            ctx.send(to, RsmMsg::Gwts(msg));
        }
        self.after_inner(ctx);
    }

    /// The reply to a client whose command `cmd` the decision `decided`
    /// holds: a read's `nop` gets the set, which is the read's value; an
    /// update gets its command back.
    fn reply(cmd: &Cmd, decided: &ValueSet<Cmd>) -> RsmMsg {
        if cmd.is_nop() {
            RsmMsg::Decide(decided.clone())
        } else {
            RsmMsg::Committed(cmd.clone())
        }
    }

    /// Post-event hook: notify clients of fresh decisions, answer
    /// pending confirmations.
    fn after_inner(&mut self, ctx: &mut Context<RsmMsg>) {
        // Fresh decisions -> notify clients whose commands were included.
        while let Some(decision) = self.inner.decisions.get(self.notified_upto).cloned() {
            self.notified_upto += 1;
            let satisfied: Vec<Cmd> = self
                .pending_notify
                .keys()
                .filter(|c| decision.contains(c))
                .cloned()
                .collect();
            for cmd in satisfied {
                if let Some(clients) = self.pending_notify.remove(&cmd) {
                    for client in clients {
                        ctx.send(client, Self::reply(&cmd, &decision));
                    }
                }
            }
        }
        // Alg. 7: confirm sets that the public ack history proves
        // committed.
        let inner = &self.inner;
        self.pending_conf.retain(|(client, set)| {
            let committed = inner.has_committed(set);
            if committed {
                ctx.send(*client, RsmMsg::CnfRep(set.clone()));
            }
            !committed
        });
    }
}

impl Process<RsmMsg> for Replica {
    fn on_start(&mut self, ctx: &mut Context<RsmMsg>) {
        self.run_inner(ctx, |inner, ictx| inner.on_start(ictx));
    }

    fn on_message(&mut self, from: ProcessId, msg: RsmMsg, ctx: &mut Context<RsmMsg>) {
        match msg {
            RsmMsg::Gwts(g) => {
                // Only replicas speak GWTS; ignore client forgeries.
                if from < self.n_replicas {
                    self.run_inner(ctx, |inner, ictx| inner.on_message(from, g, ictx));
                }
            }
            RsmMsg::NewValue(cmd) => {
                if !(self.validator)(&cmd) {
                    return; // not an element of the lattice: discard
                }
                // If already decided, answer immediately as of the first
                // decision holding it; else submit and subscribe the
                // client. Decisions form a ⊆-chain, so once one holds
                // `cmd` every later one does.
                let decisions = &self.inner.decisions;
                let first = decisions.partition_point(|d| !d.contains(&cmd));
                if let Some(d) = decisions.get(first) {
                    ctx.send(from, Self::reply(&cmd, d));
                    return;
                }
                self.pending_notify
                    .entry(cmd.clone())
                    .or_default()
                    .insert(from);
                self.inner.new_value(cmd);
                self.after_inner(ctx);
            }
            RsmMsg::CnfReq(set) => {
                self.pending_conf.push((from, set));
                self.after_inner(ctx);
            }
            // Replies are for clients; a replica receiving them (e.g.
            // from a confused/Byzantine peer) ignores them.
            RsmMsg::Decide(_) | RsmMsg::CnfRep(_) | RsmMsg::Committed(_) => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::Op;
    use bgla_codec::{decode_payload, encode_payload};
    use bgla_core::gwts::{GwtsState, NamedSet};
    use bgla_core::SetUpdate;

    /// One message per variant, with commands of every op and counters on
    /// both sides of the one-byte varint boundary.
    fn one_of_each() -> Vec<RsmMsg> {
        let cmds: ValueSet<Cmd> = [
            Cmd::new(1, 0, Op::Add(5)),
            Cmd::new(300, 70_000, Op::Put("x".repeat(200))),
            Cmd::nop(2, 128),
        ]
        .into_iter()
        .collect();
        vec![
            RsmMsg::Gwts(GwtsMsg::AckReq {
                proposed: SetUpdate::Delta {
                    base_ts: 127,
                    added: NamedSet::new([(1, 0), (300, 128)].into(), cmds.clone()),
                },
                ts: 128,
                round: 3,
            }),
            RsmMsg::NewValue(Cmd::new(9, u64::MAX, Op::Add(u64::MAX))),
            RsmMsg::Decide(cmds.clone()),
            RsmMsg::CnfReq(ValueSet::new()),
            RsmMsg::CnfRep(cmds),
            RsmMsg::Committed(Cmd::new(300, 70_000, Op::Put("y".repeat(130)))),
        ]
    }

    #[test]
    fn every_variant_roundtrips_at_its_counted_size() {
        for msg in one_of_each() {
            let bytes = encode_payload(&msg);
            assert_eq!(bytes.len(), msg.wire_size(), "{}", msg.kind());
            assert_eq!(decode_payload::<RsmMsg>(&bytes), Ok(msg));
        }
    }

    #[test]
    fn bad_tags_and_trailing_bytes_are_rejected() {
        for msg in one_of_each() {
            let mut bytes = encode_payload(&msg);
            bytes.push(0);
            assert_eq!(
                decode_payload::<RsmMsg>(&bytes),
                Err(CodecError::TrailingBytes)
            );
            bytes.pop();
            bytes[0] = 6;
            assert_eq!(
                decode_payload::<RsmMsg>(&bytes),
                Err(CodecError::Invalid("rsm msg tag"))
            );
        }
        // A command's own tag is checked too, as is a padded counter.
        let mut bytes = encode_payload(&RsmMsg::NewValue(Cmd::nop(1, 2)));
        assert_eq!(bytes, [1, 1, 2, 2]);
        bytes[3] = 3;
        assert_eq!(
            decode_payload::<RsmMsg>(&bytes),
            Err(CodecError::Invalid("unknown Op tag"))
        );
        assert_eq!(
            decode_payload::<RsmMsg>(&[1, 0x81, 0, 2, 2]),
            Err(CodecError::Invalid("varint not minimal"))
        );
    }

    #[test]
    fn replica_rejects_invalid_commands() {
        let config = SystemConfig::new(4, 1);
        let mut r = Replica::new(0, config, 4).with_validator(|c| c.client < 100);
        let mut ctx = Context::for_embedding(0, 6, 0, 0);
        let bad = Cmd::new(500, 0, crate::cmd::Op::Add(1));
        r.on_message(5, RsmMsg::NewValue(bad), &mut ctx);
        assert!(r.pending_notify.is_empty());
        assert!(r.inner.all_inputs.is_empty());
    }

    #[test]
    fn replica_subscribes_clients() {
        let config = SystemConfig::new(4, 1);
        let mut r = Replica::new(0, config, 4);
        let mut ctx = Context::for_embedding(0, 6, 0, 0);
        let cmd = Cmd::new(1, 0, crate::cmd::Op::Add(1));
        r.on_message(5, RsmMsg::NewValue(cmd.clone()), &mut ctx);
        assert!(r.pending_notify.contains_key(&cmd));
        assert_eq!(r.inner.all_inputs, vec![cmd]);
        assert_eq!(r.inner.state(), GwtsState::Disclosing);
    }

    /// A decided command is answered at once: a read's `nop` with the
    /// first decision of the chain that holds it, an update with its
    /// command. One no decision holds is submitted.
    #[test]
    fn new_value_answers_with_the_first_decision_holding_it() {
        let config = SystemConfig::new(4, 1);
        let mut r = Replica::new(0, config, 4);
        let cmds: Vec<Cmd> = (0..6)
            .map(|i| match i % 2 {
                0 => Cmd::new(1, i, Op::Add(i)),
                _ => Cmd::nop(1, i),
            })
            .collect();
        for k in 1..=4 {
            r.inner.decisions.push(cmds[..k].iter().cloned().collect());
        }
        for (k, cmd) in cmds.iter().take(4).enumerate() {
            let mut ctx = Context::for_embedding(0, 6, 0, 0);
            r.on_message(5, RsmMsg::NewValue(cmd.clone()), &mut ctx);
            let reply = match cmd.is_nop() {
                true => RsmMsg::Decide(r.inner.decisions[k].clone()),
                false => RsmMsg::Committed(cmd.clone()),
            };
            assert_eq!(ctx.take_outbox(), vec![(5, reply)]);
        }
        assert!(r.pending_notify.is_empty());
        let undecided = cmds[5].clone();
        let mut ctx = Context::for_embedding(0, 6, 0, 0);
        r.on_message(5, RsmMsg::NewValue(undecided.clone()), &mut ctx);
        assert!(r.pending_notify.contains_key(&undecided));
        assert_eq!(r.inner.all_inputs, vec![undecided]);
    }

    /// The replies to an update — from a fresh decision and from the
    /// decided fast path — are as long with 10 000 decided commands as
    /// with one.
    #[test]
    fn update_reply_is_the_same_size_at_any_history() {
        let cmd = Cmd::new(7, 3, Op::Add(9));
        let replies = |history: u64| -> Vec<usize> {
            let decided: ValueSet<Cmd> = (1..history)
                .map(|i| Cmd::new(1, i, Op::Add(i)))
                .chain([cmd.clone()])
                .collect();
            assert_eq!(decided.len() as u64, history);
            let mut r = Replica::new(0, SystemConfig::new(4, 1), 4);
            let mut ctx = Context::for_embedding(0, 6, 0, 0);
            r.pending_notify.entry(cmd.clone()).or_default().insert(5);
            r.inner.decisions.push(decided);
            r.after_inner(&mut ctx);
            r.on_message(5, RsmMsg::NewValue(cmd.clone()), &mut ctx);
            let outbox = ctx.take_outbox();
            assert_eq!(outbox.len(), 2);
            outbox.iter().map(|(_, m)| m.wire_size()).collect()
        };
        let short = replies(1);
        assert_eq!(short[0], short[1]);
        assert_eq!(replies(10_000), short);
    }

    #[test]
    fn gwts_from_client_ids_is_ignored() {
        let config = SystemConfig::new(4, 1);
        let mut r = Replica::new(0, config, 4);
        let mut ctx = Context::for_embedding(0, 6, 0, 0);
        // A Byzantine client (id 5 >= n_replicas) tries to inject GWTS
        // traffic; the replica must not process it.
        let forged = GwtsMsg::Nack {
            accepted: NamedSet::default(),
            ts: 0,
            round: 0,
        };
        r.on_message(5, RsmMsg::Gwts(forged), &mut ctx);
        assert_eq!(ctx.pending(), 0);
    }
}
