//! Transport configuration of a node or a whole runtime.

use crate::fault::FaultPlan;
use crate::link::LinkConfig;

/// Transport tuning for a node or a whole runtime.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-link reliability bound (the unacked window).
    pub link: LinkConfig,
    /// Fault injection schedule ([`FaultPlan::none`] in production).
    pub faults: FaultPlan,
    /// Seed for the non-fault randomness: dial backoff jitter (mixed
    /// with link identity per stream).
    pub seed: u64,
    /// Initial dial/reconnect backoff in ms.
    pub dial_backoff_ms: u64,
    /// Cap for the dial/reconnect exponential backoff in ms.
    pub dial_backoff_max_ms: u64,
    /// Wall-clock safety deadline for a driven run, in ms.
    pub deadline_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::default(),
            faults: FaultPlan::none(),
            seed: 0,
            dial_backoff_ms: 10,
            dial_backoff_max_ms: 500,
            deadline_ms: 30_000,
        }
    }
}
