//! Merging per-node delivery logs into one `bgla_simnet::Trace`.
//!
//! The simulator produces a totally ordered trace for free — it *is*
//! the total order. A TCP run has no global clock, only per-node logs,
//! so conformance checking needs a linearization: a total order of all
//! deliveries consistent with causality, in the trace format the PR-5
//! checker already consumes.
//!
//! The causal depth shipped in every DATA frame provides one. Sorting
//! all deliveries by `(depth, node, local index)` is a valid causal
//! linearization:
//!
//! * **Cross-node edges** — if delivery `e₁` at node A causally
//!   precedes delivery `e₂` at node B (the message delivered at `e₂`
//!   was sent while handling `e₁`), then
//!   `depth(e₂) ≥ depth(e₁) + 1 > depth(e₁)`, because a message's
//!   depth is its sender's clock plus one and a receiver's clock joins
//!   to at least the message's depth. Strictly increasing depth means
//!   the sort can never flip such a pair.
//! * **Same-node order** — a node's clock is monotone non-decreasing
//!   over its delivery sequence, so `(depth, node, idx)` with the
//!   local index as tiebreak reproduces each node's log order exactly.
//!
//! Steps are then renumbered densely in sort order (the `Trace`
//! contract), and each op event lands at its parent delivery's global
//! step + 1 — the "between deliveries k−1 and k" convention the
//! checker expects — with boot-time ops at step 0. Ops sharing a step
//! are ordered by a caller-supplied kind priority, mirroring the
//! simulator-side observer batching.

use bgla_simnet::{OpEvent, ProcessId, Trace, TraceEvent};

/// One delivery as logged by the receiving node's event thread.
#[derive(Debug, Clone)]
pub struct LocalDelivery {
    /// Authenticated sender.
    pub from: ProcessId,
    /// Protocol message kind (metering bucket).
    pub kind: &'static str,
    /// Receiving node's causal clock *after* absorbing the message.
    pub depth: u64,
    /// Encoded size of the message (`Wire::wire_size`), as a simulator
    /// trace counts it: no frame overhead, no retransmissions — those
    /// live in the metrics.
    pub bytes: usize,
}

/// One protocol operation observed at a node, anchored to the delivery
/// that produced it.
#[derive(Debug, Clone)]
pub struct LocalOp {
    /// Index into the node's delivery log of the event this op was
    /// observed after, or `None` for boot-time (`on_start`) ops.
    pub after_delivery: Option<usize>,
    /// The op, with `step` unassigned (filled in by the merge).
    pub ev: OpEvent,
}

/// A node's complete local history, produced by its event thread.
#[derive(Debug, Default)]
pub struct NodeLog {
    /// Deliveries in processing order.
    pub deliveries: Vec<LocalDelivery>,
    /// Ops in observation order.
    pub ops: Vec<LocalOp>,
}

/// Merges per-node logs (indexed by node id) into a simulator-format
/// trace. `op_priority` orders ops that share a step (lower first) —
/// pass `bgla_core`'s op priority for conformance work.
pub fn merge_traces(logs: Vec<NodeLog>, op_priority: fn(&str) -> u8) -> Trace {
    // Sort key for every delivery in the system.
    let mut order: Vec<(u64, ProcessId, usize)> = Vec::new();
    for (node, log) in logs.iter().enumerate() {
        for (idx, d) in log.deliveries.iter().enumerate() {
            order.push((d.depth, node, idx));
        }
    }
    order.sort_unstable();

    // Global step of each (node, local idx).
    let mut step_of: Vec<Vec<u64>> = logs.iter().map(|l| vec![0; l.deliveries.len()]).collect();
    let mut trace = Trace::default();
    for (step, &(depth, node, idx)) in order.iter().enumerate() {
        step_of[node][idx] = step as u64;
        let d = &logs[node].deliveries[idx];
        trace.push(TraceEvent {
            step: step as u64,
            from: d.from,
            to: node,
            kind: d.kind,
            depth,
            bytes: d.bytes,
        });
    }

    // Ops: parent delivery's step + 1, boot ops at step 0. Built
    // node-by-node then stably sorted, so per-node observation order
    // survives for ops sharing (step, priority).
    let mut ops: Vec<OpEvent> = Vec::new();
    for (node, log) in logs.into_iter().enumerate() {
        for op in log.ops {
            let step = match op.after_delivery {
                None => 0,
                Some(k) => step_of[node][k] + 1,
            };
            let mut ev = op.ev;
            ev.step = step;
            ops.push(ev);
        }
    }
    ops.sort_by_key(|op| (op.step, op_priority(op.kind), op.process));
    for op in ops {
        trace.push_op(op);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(from: ProcessId, depth: u64) -> LocalDelivery {
        LocalDelivery {
            from,
            kind: "m",
            depth,
            bytes: 8,
        }
    }

    fn op(process: ProcessId, kind: &'static str, after: Option<usize>) -> LocalOp {
        LocalOp {
            after_delivery: after,
            ev: OpEvent {
                step: 0,
                process,
                kind,
                ts: 0,
                values: vec![],
            },
        }
    }

    #[test]
    fn merge_is_a_causal_linearization_with_dense_steps() {
        // Node 0: depths 1, 2; node 1: depths 1, 3.
        let logs = vec![
            NodeLog {
                deliveries: vec![d(1, 1), d(1, 2)],
                ops: vec![op(0, "propose", None), op(0, "decide", Some(1))],
            },
            NodeLog {
                deliveries: vec![d(0, 1), d(0, 3)],
                ops: vec![op(1, "decide", Some(1))],
            },
        ];
        let trace = merge_traces(logs, |k| if k == "propose" { 0 } else { 1 });
        // Dense steps in (depth, node, idx) order.
        let steps: Vec<u64> = trace.events().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![0, 1, 2, 3]);
        let depths: Vec<u64> = trace.events().iter().map(|e| e.depth).collect();
        assert_eq!(depths, vec![1, 1, 2, 3]);
        // Node 0's second delivery (depth 2) sits at step 2, so its
        // decide lands at step 3; node 1's decide after depth 3 -> 4.
        let ops: Vec<(u64, &str, ProcessId)> = trace
            .ops()
            .iter()
            .map(|o| (o.step, o.kind, o.process))
            .collect();
        assert_eq!(
            ops,
            vec![(0, "propose", 0), (3, "decide", 0), (4, "decide", 1)]
        );
    }

    #[test]
    fn same_node_log_order_is_preserved() {
        // Equal depths at one node: the local index breaks the tie.
        let logs = vec![NodeLog {
            deliveries: vec![d(1, 1), d(2, 1), d(1, 1)],
            ops: vec![],
        }];
        let trace = merge_traces(logs, |_| 0);
        let froms: Vec<ProcessId> = trace.events().iter().map(|e| e.from).collect();
        assert_eq!(froms, vec![1, 2, 1]);
    }

    #[test]
    fn cross_node_causality_never_flips() {
        // A chain 0 -> 1 -> 0: each hop's delivery has strictly larger
        // depth, so sort order equals causal order regardless of node
        // ids.
        let logs = vec![
            NodeLog {
                deliveries: vec![d(1, 2)],
                ops: vec![],
            },
            NodeLog {
                deliveries: vec![d(0, 1)],
                ops: vec![],
            },
        ];
        let trace = merge_traces(logs, |_| 0);
        assert_eq!(trace.events()[0].to, 1);
        assert_eq!(trace.events()[1].to, 0);
    }
}
