//! `poller-nonblocking` — the poller core must never block a shard.
//!
//! **Bug class:** every socket of a runtime is serviced by a fixed
//! pool of poller threads; one blocking call stalls *every* connection
//! sharded onto that thread. The two ways this has nearly shipped:
//! `std::thread::sleep` inside a service step (a sleeping poller is a
//! frozen shard — parking belongs in the worker loop, via
//! `park_timeout`, where an `unpark` can cut it short), and flipping a
//! socket back to blocking mode with `set_nonblocking(false)` (the
//! next read parks the shard for as long as the peer stays quiet).
//!
//! **Rule:** in non-test code of any file whose path contains
//! `poller`, no mention of `sleep` and no `set_nonblocking(false)`
//! call. `set_nonblocking(true)` is the required setup call and passes.
//! The path scope is deliberate: the event threads and the runtime
//! wait loop own their whole thread and may sleep freely.
//!
//! **Suppression policy:** essentially none — a poller-side block is
//! never load-bearing. A waiver would need to argue the call cannot
//! run on a pool thread at all, at which point the code belongs in a
//! different file.

use super::emit;
use crate::lexer::TokKind;
use crate::{Diagnostic, Model};

/// Pass identifier.
pub const NAME: &str = "poller-nonblocking";

/// Runs the pass.
pub fn run(model: &Model, diags: &mut Vec<Diagnostic>) {
    for file in &model.files {
        if !file.display.contains("poller") {
            continue;
        }
        for (i, tok) in file.tokens.iter().enumerate() {
            if tok.kind != TokKind::Ident || file.in_test_range(i) {
                continue;
            }
            match tok.text.as_str() {
                "sleep" => emit(
                    diags,
                    file,
                    tok.line,
                    NAME,
                    "`sleep` in poller code: a sleeping poller thread freezes \
                     every connection on its shard — park in the worker loop \
                     (`park_timeout`) so an enqueue can unpark it, or move the \
                     wait onto the timer queue"
                        .to_string(),
                ),
                "set_nonblocking" => {
                    // Flag only the `(false)` form: re-blocking a pool-owned
                    // socket makes the next read stall the whole shard.
                    let mut it = file.tokens[i + 1..].iter();
                    let open = it.next();
                    let arg = it.next();
                    let reverts = matches!(open, Some(t) if t.kind == TokKind::Punct && t.text == "(")
                        && matches!(arg, Some(t) if t.kind == TokKind::Ident && t.text == "false");
                    if reverts {
                        emit(
                            diags,
                            file,
                            tok.line,
                            NAME,
                            "`set_nonblocking(false)` in poller code: a blocking \
                             socket parks whichever pool thread touches it next, \
                             stalling every connection on that shard"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}
