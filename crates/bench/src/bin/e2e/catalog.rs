//! The names every later issue uses: the end-to-end metrics with their
//! regression bounds, and the per-layer metrics. `BENCHMARK.json` at the
//! repository root lists exactly these (a unit test holds the two together).

/// Which direction is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports it, from the untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Repeats exactly on `sim_*` for a fixed seed and trial count.
    pub exact_on_sim: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact_on_sim: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact_on_sim,
    }
}

/// The nine gated metrics. Two of the issue's eleven are listed per layer
/// instead: `failed_ops_ratio` is zero on a healthy workload and a gated
/// metric may never read zero (the result line's `attempted`/`failed` carry
/// it); `cpu_ms_per_op` repeats within 4% under the simulator, where it says
/// what `ops_per_s` says, but only within 16–25% over TCP, where the poller's
/// idle sweeps make it follow the machine's other tenants.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("op_latency_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("op_latency_p90_ms", "ms", Better::Lower, 0.25, false),
    e2e("op_delays_p50", "delays", Better::Lower, 0.15, true),
    e2e("op_delays_max", "delays", Better::Lower, 0.25, true),
    e2e("msgs_per_op", "count", Better::Lower, 0.15, true),
    e2e("bytes_per_op", "bytes", Better::Lower, 0.15, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, false),
];

/// A per-layer metric: from the traced pass; no bound. A workload that does
/// not exercise the layer reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // crypto (kernels; sim_gsbs_n7)
    lo("crypto.sign_us", "us"),
    lo("crypto.verify_us", "us"),
    lo("crypto.verify_batch_us_per_sig.5", "us"),
    lo("crypto.verify_batch_us_per_sig.16", "us"),
    lo("crypto.keyring_setup_ms", "ms"),
    // codec (kernels over the captured corpus)
    lo("codec.encode_ns_per_byte", "ns/byte"),
    lo("codec.decode_ns_per_byte", "ns/byte"),
    lo("codec.frame_roundtrip_ns_per_byte", "ns/byte"),
    lo("codec.encoded_over_modeled_ratio", "ratio"),
    hi("codec.corpus_msgs", "count"),
    // core.valueset (kernels at the run's final set size)
    lo("core.valueset.join_ns", "ns"),
    lo("core.valueset.is_subset_ns", "ns"),
    lo("core.valueset.contains_ns", "ns"),
    lo("core.valueset.clone_ns", "ns"),
    // core.gwts (handler spans)
    lo("core.gwts.busy_ns_per_op", "ns"),
    lo("core.gwts.call_ns_p50", "ns"),
    lo("core.gwts.call_ns_p99", "ns"),
    lo("core.gwts.busy_share", "ratio"),
    lo("core.gwts.refinements_per_op", "count"),
    lo("core.gwts.busy_ns_per_op.disc_init", "ns"),
    lo("core.gwts.busy_ns_per_op.disc_echo", "ns"),
    lo("core.gwts.busy_ns_per_op.disc_ready", "ns"),
    lo("core.gwts.busy_ns_per_op.ack_req", "ns"),
    lo("core.gwts.busy_ns_per_op.ack_init", "ns"),
    lo("core.gwts.busy_ns_per_op.ack_echo", "ns"),
    lo("core.gwts.busy_ns_per_op.ack_ready", "ns"),
    lo("core.gwts.busy_ns_per_op.nack", "ns"),
    lo("core.gwts.bytes_per_op.disc_init", "bytes"),
    lo("core.gwts.bytes_per_op.disc_echo", "bytes"),
    lo("core.gwts.bytes_per_op.disc_ready", "bytes"),
    lo("core.gwts.bytes_per_op.ack_req", "bytes"),
    lo("core.gwts.bytes_per_op.ack_init", "bytes"),
    lo("core.gwts.bytes_per_op.ack_echo", "bytes"),
    lo("core.gwts.bytes_per_op.ack_ready", "bytes"),
    lo("core.gwts.bytes_per_op.nack", "bytes"),
    // core.gsbs (handler spans)
    lo("core.gsbs.busy_ns_per_op", "ns"),
    lo("core.gsbs.call_ns_p50", "ns"),
    lo("core.gsbs.call_ns_p99", "ns"),
    lo("core.gsbs.busy_share", "ratio"),
    lo("core.gsbs.refinements_per_op", "count"),
    lo("core.gsbs.busy_ns_per_op.init", "ns"),
    lo("core.gsbs.busy_ns_per_op.safe_req", "ns"),
    lo("core.gsbs.busy_ns_per_op.safe_ack", "ns"),
    lo("core.gsbs.busy_ns_per_op.ack_req", "ns"),
    lo("core.gsbs.busy_ns_per_op.ack", "ns"),
    lo("core.gsbs.busy_ns_per_op.nack", "ns"),
    lo("core.gsbs.busy_ns_per_op.decided", "ns"),
    lo("core.gsbs.busy_ns_per_op.resync", "ns"),
    lo("core.gsbs.bytes_per_op.init", "bytes"),
    lo("core.gsbs.bytes_per_op.safe_req", "bytes"),
    lo("core.gsbs.bytes_per_op.safe_ack", "bytes"),
    lo("core.gsbs.bytes_per_op.ack_req", "bytes"),
    lo("core.gsbs.bytes_per_op.ack", "bytes"),
    lo("core.gsbs.bytes_per_op.nack", "bytes"),
    lo("core.gsbs.bytes_per_op.decided", "bytes"),
    lo("core.gsbs.bytes_per_op.resync", "bytes"),
    // core one-shot ladder (sim, FIFO, one instance each)
    lo("core.wts.n4.delays", "delays"),
    lo("core.wts.n4.msgs", "count"),
    lo("core.wts.n4.bytes", "bytes"),
    lo("core.wts.n16.delays", "delays"),
    lo("core.wts.n16.msgs", "count"),
    lo("core.wts.n16.bytes", "bytes"),
    lo("core.wts.bytes_exponent", "exponent"),
    lo("core.sbs.n4.delays", "delays"),
    lo("core.sbs.n4.msgs", "count"),
    lo("core.sbs.n4.bytes", "bytes"),
    lo("core.sbs.n10.delays", "delays"),
    lo("core.sbs.n10.msgs", "count"),
    lo("core.sbs.n10.bytes", "bytes"),
    lo("core.sbs.bytes_exponent", "exponent"),
    // core.recovery (kernels on end-of-run state)
    lo("core.recovery.snapshot_encode_us.gwts", "us"),
    lo("core.recovery.snapshot_decode_us.gwts", "us"),
    lo("core.recovery.snapshot_bytes.gwts", "bytes"),
    lo("core.recovery.snapshot_encode_us.gsbs", "us"),
    lo("core.recovery.snapshot_decode_us.gsbs", "us"),
    lo("core.recovery.snapshot_bytes.gsbs", "bytes"),
    // core.linearize (check trial)
    lo("core.linearize.check_ms", "ms"),
    hi("core.linearize.ops_checked", "count"),
    // rbcast
    lo("rbcast.msgs_share", "ratio"),
    lo("rbcast.bytes_share", "ratio"),
    lo("rbcast.engine_ns_per_deliver", "ns"),
    // simnet
    lo("simnet.step_self_ns", "ns"),
    hi("simnet.deliveries_per_s", "1/s"),
    lo("simnet.trace_overhead_ratio", "ratio"),
    // net
    lo("net.frames_per_op", "count"),
    lo("net.retransmits_per_op", "count"),
    lo("net.dup_frames_per_op", "count"),
    lo("net.reconnects_per_op", "count"),
    lo("net.outbox_dropped", "count"),
    lo("net.wire_over_modeled_ratio", "ratio"),
    lo("net.spurious_retransmit_ratio", "ratio"),
    lo("net.cpu_user_ms_per_op", "ms"),
    lo("net.cpu_sys_ms_per_op", "ms"),
    lo("net.nonhandler_cpu_share", "ratio"),
    lo("net.ctx_switches_per_op", "count"),
    lo("net.threads", "count"),
    lo("net.shutdown_ms", "ms"),
    lo("net.idle_cpu_ms_per_s", "ms/s"),
    lo("net.pingpong_rtt_us_p50", "us"),
    lo("net.pingpong_rtt_us_p99", "us"),
    lo("net.chaos_over_clean_p50", "ratio"),
    lo("net.op_latency_p99_ms", "ms"),
    // rsm
    lo("rsm.replica_busy_ns_per_op", "ns"),
    lo("rsm.client_busy_ns_per_op", "ns"),
    lo("rsm.rounds_per_op", "count"),
    lo("rsm.msgs_per_update", "count"),
    lo("rsm.msgs_per_read", "count"),
    lo("rsm.delays_per_update_p50", "delays"),
    lo("rsm.delays_per_read_p50", "delays"),
    lo("rsm.stuck_clients", "count"),
    lo("rsm.ack_history_len_max", "count"),
    lo("rsm.state_execute_ns_per_cmd", "ns"),
    // bench (the instrument itself) and the Byzantine check pass
    lo("bench.cpu_ms_per_op", "ms"),
    hi("bench.trace_overhead_ratio", "ratio"),
    lo("bench.observer_overhead_ratio", "ratio"),
    lo("bench.failed_ops_ratio", "ratio"),
    lo("byz.failed_ops_ratio", "ratio"),
    lo("byz.op_delays_max", "delays"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` as this catalog defines it.
    fn render() -> String {
        let mut s = String::from("{\n");
        s.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \
             \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n",
        );
        s.push_str("  \"paths\": [\"crates/bench/src/bin/e2e\"],\n");
        s.push_str(&format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS));
        let rows = |rows: Vec<String>| rows.join(",\n");
        s.push_str("  \"workloads\": [\n");
        s.push_str(&rows(
            WORKLOADS
                .iter()
                .filter(|w| crate::GATED.contains(&w.name))
                .map(|w| {
                    let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                    format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, why)
                })
                .collect(),
        ));
        s.push_str("\n  ],\n  \"end_to_end\": [\n");
        s.push_str(&rows(
            END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                        m.name,
                        m.unit,
                        m.better.as_str(),
                        m.bound
                    )
                })
                .collect(),
        ));
        s.push_str("\n  ],\n  \"per_layer\": [\n");
        s.push_str(&rows(
            PER_LAYER
                .iter()
                .map(|m| {
                    format!(
                        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                        m.name,
                        m.unit,
                        m.better.as_str()
                    )
                })
                .collect(),
        ));
        s.push_str("\n  ]\n}\n");
        s
    }

    #[test]
    fn benchmark_json_is_this_catalog() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert!(
            committed == render(),
            "BENCHMARK.json and catalog.rs disagree; the catalog renders as:\n{}",
            render()
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
