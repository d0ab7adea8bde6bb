//! The pass registry and shared pass utilities.
//!
//! Each pass targets one bug class this repo has actually shipped (or
//! structurally depends on not shipping); `LINTS.md` at the workspace
//! root documents the incident behind each one and its suppression
//! policy. Passes are pure functions over the parsed [`Model`] — they
//! emit findings and never apply suppressions themselves (the driver
//! does, so suppressed findings still show up in `--json` output with
//! their justification attached).

mod byzantine_panic;
mod determinism;
mod frame_demux;
mod merge_coverage;
mod poller_nonblocking;
mod wire_coverage;

use crate::lexer::TokKind;
use crate::parse::FnDef;
use crate::{Diagnostic, FileModel, Model};
use std::collections::BTreeSet;

/// One registered pass.
pub struct Pass {
    /// Stable identifier, used in diagnostics and `allow(...)`.
    pub name: &'static str,
    /// One-line description for `--list-passes`.
    pub description: &'static str,
    /// The pass body.
    pub run: fn(&Model, &mut Vec<Diagnostic>),
}

/// Every pass, in execution order.
pub const REGISTRY: &[Pass] = &[
    Pass {
        name: wire_coverage::NAME,
        description: "every struct field must appear in both Wire::encode and Wire::decode (silent state loss)",
        run: wire_coverage::run,
    },
    Pass {
        name: determinism::NAME,
        description: "no hash-order containers, wall clocks or OS randomness in trace-affecting crates",
        run: determinism::run,
    },
    Pass {
        name: byzantine_panic::NAME,
        description: "no panic paths reachable from decode/from_snapshot/on_message/demux_frame (hostile bytes must not crash)",
        run: byzantine_panic::run,
    },
    Pass {
        name: frame_demux::NAME,
        description: "every FK_* frame kind constant must have a match arm in its file's demux_frame",
        run: frame_demux::run,
    },
    Pass {
        name: merge_coverage::NAME,
        description: "every field of a struct with an inherent merge() must be folded by it (metrics aggregation)",
        run: merge_coverage::run,
    },
    Pass {
        name: poller_nonblocking::NAME,
        description: "no sleep or set_nonblocking(false) in poller code (one blocking call freezes a whole shard)",
        run: poller_nonblocking::run,
    },
];

/// All identifier texts appearing in `f`'s body.
pub(crate) fn body_idents<'a>(file: &'a FileModel, f: &FnDef) -> BTreeSet<&'a str> {
    file.tokens[f.body.clone()]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

/// Emits one finding.
pub(crate) fn emit(
    diags: &mut Vec<Diagnostic>,
    file: &FileModel,
    line: u32,
    pass: &'static str,
    message: String,
) {
    diags.push(Diagnostic {
        file: file.display.clone(),
        line,
        pass,
        message,
        suppressed: None,
    });
}
