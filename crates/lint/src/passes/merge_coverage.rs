//! `metrics-merge-coverage` — aggregation must fold every field.
//!
//! **Bug class:** the sharded experiment driver aggregates per-seed
//! runs with `Metrics::merge`. Every time a new counter lands
//! (`net_retransmits`, `net_dup_frames`, …), forgetting to add it to
//! `merge` makes the sharded figures silently undercount — exactly the
//! kind of bug that survives because every per-run number still looks
//! plausible. Until now only a dynamic per-field test pinned it.
//!
//! **Rule:** for every struct with an *inherent* method named `merge`
//! (the aggregation idiom in this workspace — named for the `Metrics`
//! incident class, enforced for any future aggregate alike), every
//! named field must appear as an identifier in the `merge` body.
//!
//! **Suppression policy:** a field that genuinely must not aggregate
//! (an identity-carrying id, say) is waived at its declaration with
//! the reason it is excluded.

use super::{body_idents, emit};
use crate::{Diagnostic, Model};

/// Pass identifier.
pub const NAME: &str = "metrics-merge-coverage";

/// Runs the pass.
pub fn run(model: &Model, diags: &mut Vec<Diagnostic>) {
    for file in &model.files {
        for st in &file.items.structs {
            if st.in_test || st.fields.is_empty() {
                continue;
            }
            for f in &file.items.fns {
                if f.in_test
                    || f.name != "merge"
                    || f.trait_name.is_some()
                    || f.self_type.as_deref() != Some(st.name.as_str())
                {
                    continue;
                }
                let idents = body_idents(file, f);
                for fd in &st.fields {
                    if !idents.contains(fd.name.as_str()) {
                        emit(
                            diags,
                            file,
                            fd.line,
                            NAME,
                            format!(
                                "field `{}` of `{}` is not folded by `merge` — \
                                 sharded aggregation silently drops it",
                                fd.name, st.name
                            ),
                        );
                    }
                }
            }
        }
    }
}
