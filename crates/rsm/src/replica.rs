//! The RSM replica: a GWTS participant plus the client-facing interface
//! and the confirmation plug-in of Algorithm 7.

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
    /// Replica → client: a decision containing one of the client's
    /// pending commands (`<decide, Accepted_set, replica>`).
    Decide(ValueSet<Cmd>),
    /// Client → replica: confirm that a set was decided (Alg. 6 line 8).
    CnfReq(ValueSet<Cmd>),
    /// Replica → client: confirmation (Alg. 7 line 5).
    CnfRep(ValueSet<Cmd>),
}

impl WireMessage for RsmMsg {
    fn kind(&self) -> &'static str {
        match self {
            RsmMsg::Gwts(g) => g.kind(),
            RsmMsg::NewValue(_) => "new_value",
            RsmMsg::Decide(_) => "decide",
            RsmMsg::CnfReq(_) => "cnf_req",
            RsmMsg::CnfRep(_) => "cnf_rep",
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
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(RsmMsg::Gwts(Wire::decode(r)?)),
            1 => Ok(RsmMsg::NewValue(Wire::decode(r)?)),
            2 => Ok(RsmMsg::Decide(Wire::decode(r)?)),
            3 => Ok(RsmMsg::CnfReq(Wire::decode(r)?)),
            4 => Ok(RsmMsg::CnfRep(Wire::decode(r)?)),
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
    me: ProcessId,
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
}

impl Replica {
    /// Creates replica `me` of `n_replicas` tolerating `f`, running
    /// `max_rounds` GWTS rounds.
    pub fn new(me: ProcessId, config: SystemConfig, max_rounds: u64) -> Replica {
        Replica {
            inner: GwtsProcess::new(me, config, BTreeMap::new(), max_rounds),
            n_replicas: config.n,
            me,
            pending_notify: BTreeMap::new(),
            pending_conf: Vec::new(),
            notified_upto: 0,
            validator: |_| true,
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
        let mut inner_ctx =
            Context::for_embedding(self.me, self.n_replicas, ctx.depth, ctx.local_events);
        f(&mut self.inner, &mut inner_ctx);
        for (to, msg) in inner_ctx.take_outbox() {
            ctx.send(to, RsmMsg::Gwts(msg));
        }
        self.after_inner(ctx);
    }

    /// Post-event hook: notify clients of fresh decisions, answer
    /// pending confirmations.
    fn after_inner(&mut self, ctx: &mut Context<RsmMsg>) {
        // Fresh decisions -> notify clients whose commands were included.
        while self.notified_upto < self.inner.decisions.len() {
            // bgla-lint: allow(byzantine-panic, "while condition bounds notified_upto")
            let decision = self.inner.decisions[self.notified_upto].clone();
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
                        ctx.send(client, RsmMsg::Decide(decision.clone()));
                    }
                }
            }
        }
        // Alg. 7: confirm sets that the public ack history proves
        // committed.
        let mut i = 0;
        while i < self.pending_conf.len() {
            // bgla-lint: allow(byzantine-panic, "while condition bounds i")
            let (client, set) = self.pending_conf[i].clone();
            if self.inner.has_committed(&set) {
                ctx.send(client, RsmMsg::CnfRep(set));
                self.pending_conf.remove(i);
            } else {
                i += 1;
            }
        }
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
                // If already decided, answer immediately; else submit and
                // subscribe the client.
                if let Some(d) = self
                    .inner
                    .decisions
                    .iter()
                    .find(|d| d.contains(&cmd))
                    .cloned()
                {
                    ctx.send(from, RsmMsg::Decide(d));
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
            RsmMsg::Decide(_) | RsmMsg::CnfRep(_) => {}
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
    use bgla_core::gwts::GwtsState;
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
                    added: cmds.clone(),
                },
                ts: 128,
                round: 3,
            }),
            RsmMsg::NewValue(Cmd::new(9, u64::MAX, Op::Add(u64::MAX))),
            RsmMsg::Decide(cmds.clone()),
            RsmMsg::CnfReq(ValueSet::new()),
            RsmMsg::CnfRep(cmds),
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
            bytes[0] = 5;
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

    #[test]
    fn gwts_from_client_ids_is_ignored() {
        let config = SystemConfig::new(4, 1);
        let mut r = Replica::new(0, config, 4);
        let mut ctx = Context::for_embedding(0, 6, 0, 0);
        // A Byzantine client (id 5 >= n_replicas) tries to inject GWTS
        // traffic; the replica must not process it.
        let forged = GwtsMsg::Nack {
            accepted: ValueSet::new(),
            ts: 0,
            round: 0,
        };
        r.on_message(5, RsmMsg::Gwts(forged), &mut ctx);
        assert_eq!(ctx.pending(), 0);
    }
}
