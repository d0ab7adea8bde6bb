//! `byzantine-panic` — no panic paths reachable from hostile input.
//!
//! **Bug class:** Byzantine tolerance assumes hostile bytes can never
//! crash an honest process. The hostile-input surfaces are
//! `Wire::decode` (bytes off the wire or disk), `from_snapshot`
//! (possibly rotten durable state), `on_message` (anything a
//! Byzantine peer sends) and `demux_frame` (raw TCP frames before any
//! validation). A reachable `unwrap`, `panic!` or unchecked
//! index on those paths turns one malformed message into a remote
//! crash — the cheapest possible denial of service against the quorum.
//!
//! **Rule:** starting from every non-test fn named `decode`,
//! `from_snapshot`, `on_message` or `demux_frame`, the pass computes the transitive
//! same-crate call closure (callee resolution is by name — an
//! over-approximation, which is the right direction for a safety
//! lint) and flags, in any reachable body:
//!
//! * `.unwrap()` / `.expect(…)`
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` and the
//!   always-on `assert!` family
//! * unchecked indexing/slicing `x[…]` (an identifier, `)` or `]`
//!   directly followed by `[`)
//!
//! `debug_assert!` is deliberately *not* flagged: it is the sanctioned
//! way to state internal invariants, compiled out of release builds
//! (and exercised by the strict test profile).
//!
//! **Suppression policy:** a site that is provably guarded (bounds
//! checked on the lines above, quorum size established by `verify`)
//! may be waived with the guard spelled out in the reason. Prefer
//! restructuring to `get(..)`/`ok_or(..)` where it costs nothing —
//! that is what `bgla_codec::Reader` does.

use crate::lexer::TokKind;
use crate::parse::FnDef;
use crate::{Diagnostic, FileModel, Model};
use std::collections::{BTreeMap, BTreeSet};

/// Pass identifier.
pub const NAME: &str = "byzantine-panic";

/// Function names treated as hostile-input entry points.
const ENTRY_FNS: &[&str] = &["decode", "from_snapshot", "on_message", "demux_frame"];

/// Macro names that panic unconditionally when hit.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Marks the tokens inside `debug_assert*!(...)` invocations: their
/// arguments are compiled out of release builds, so indexing there is
/// exempt for the same reason the macro itself is.
fn debug_assert_args(toks: &[crate::lexer::Token]) -> Vec<bool> {
    let mut skipped = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let is_da = toks[i].kind == TokKind::Ident
            && toks[i].text.starts_with("debug_assert")
            && toks.get(i + 1).map(|t| t.is_punct('!')) == Some(true);
        if !is_da {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < toks.len() {
            skipped[j] = true;
            match toks[j].kind {
                TokKind::Punct if "([{".contains(toks[j].text.as_str()) => depth += 1,
                TokKind::Punct if ")]}".contains(toks[j].text.as_str()) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
    skipped
}

/// Identifiers that may legitimately precede `[` without indexing
/// (slice patterns, array types/literals after keywords).
const NON_INDEX_PREFIX: &[&str] = &[
    "let", "in", "if", "while", "match", "return", "mut", "ref", "move", "else", "as", "box",
    "for", "where", "impl", "dyn", "break", "static", "const", "type",
];

/// Runs the pass.
pub fn run(model: &Model, diags: &mut Vec<Diagnostic>) {
    // Group fns by crate; resolve callees by name within the crate.
    let mut crates: BTreeSet<&str> = BTreeSet::new();
    for f in &model.files {
        crates.insert(f.crate_name.as_str());
    }
    for krate in crates {
        run_crate(model, krate, diags);
    }
}

fn run_crate(model: &Model, krate: &str, diags: &mut Vec<Diagnostic>) {
    // name -> every (file, fn) with that name in this crate.
    let mut by_name: BTreeMap<&str, Vec<(usize, &FnDef)>> = BTreeMap::new();
    for (fi, file) in model.files.iter().enumerate() {
        if file.crate_name != krate {
            continue;
        }
        for f in &file.items.fns {
            if !f.in_test {
                by_name.entry(f.name.as_str()).or_default().push((fi, f));
            }
        }
    }
    // BFS over the call graph from the entry fns. `reached` maps a
    // function (by file + body start) to the entry point that reaches
    // it, for the diagnostic.
    let mut reached: BTreeMap<(usize, usize), (&str, &str)> = BTreeMap::new(); // -> (entry, fn name)
    let mut queue: Vec<(usize, &FnDef, &str)> = Vec::new();
    for entry in ENTRY_FNS {
        for &(fi, f) in by_name.get(entry).into_iter().flatten() {
            if reached
                .insert((fi, f.body.start), (entry, f.name.as_str()))
                .is_none()
            {
                queue.push((fi, f, entry));
            }
        }
    }
    while let Some((fi, f, entry)) = queue.pop() {
        let file = &model.files[fi];
        let toks = &file.tokens[f.body.clone()];
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let is_call = toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true);
            if !is_call {
                continue;
            }
            for &(cfi, cf) in by_name.get(t.text.as_str()).into_iter().flatten() {
                if reached
                    .insert((cfi, cf.body.start), (entry, cf.name.as_str()))
                    .is_none()
                {
                    queue.push((cfi, cf, entry));
                }
            }
        }
    }
    // Scan every reached body.
    for (&(fi, body_start), &(entry, fn_name)) in &reached {
        let file = &model.files[fi];
        let f = file
            .items
            .fns
            .iter()
            .find(|f| f.body.start == body_start)
            .expect("reached fn exists");
        let toks = &file.tokens[f.body.clone()];
        let skipped = debug_assert_args(toks);
        let mut seen: BTreeSet<(u32, &str)> = BTreeSet::new();
        let via = if fn_name == entry {
            String::new()
        } else {
            format!(" (in `{fn_name}`, reached from `{entry}`)")
        };
        for (i, t) in toks.iter().enumerate() {
            if skipped[i] {
                continue;
            }
            match t.kind {
                TokKind::Ident
                    if (t.text == "unwrap" || t.text == "expect")
                        && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
                        && seen.insert((t.line, "unwrap")) =>
                {
                    emit(
                        diags,
                        file,
                        t.line,
                        format!(
                            "`{}()` on a hostile-input path{via} — malformed \
                             bytes must degrade to Err/None, never crash an \
                             honest process",
                            t.text
                        ),
                    );
                }
                TokKind::Ident
                    if PANIC_MACROS.contains(&t.text.as_str())
                        && toks.get(i + 1).map(|n| n.is_punct('!')) == Some(true)
                        && seen.insert((t.line, "panic")) =>
                {
                    emit(
                        diags,
                        file,
                        t.line,
                        format!(
                            "`{}!` on a hostile-input path{via} — malformed \
                             bytes must degrade to Err/None, never crash an \
                             honest process",
                            t.text
                        ),
                    );
                }
                TokKind::Punct if t.is_punct('[') && i > 0 => {
                    let prev = &toks[i - 1];
                    let indexing = match prev.kind {
                        TokKind::Ident => !NON_INDEX_PREFIX.contains(&prev.text.as_str()),
                        TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                        _ => false,
                    };
                    // `x[..]` (full-range slicing) cannot panic.
                    let full_range = toks.get(i + 1).map(|t| t.is_punct('.')) == Some(true)
                        && toks.get(i + 2).map(|t| t.is_punct('.')) == Some(true)
                        && toks.get(i + 3).map(|t| t.is_punct(']')) == Some(true);
                    if indexing && !full_range && seen.insert((t.line, "index")) {
                        emit(
                            diags,
                            file,
                            t.line,
                            format!(
                                "unchecked indexing on a hostile-input path{via} — \
                                 use get()/first()/pattern matching, or suppress \
                                 with the bounds guard spelled out"
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

fn emit(diags: &mut Vec<Diagnostic>, file: &FileModel, line: u32, message: String) {
    diags.push(Diagnostic {
        file: file.display.clone(),
        line,
        pass: NAME,
        message,
        suppressed: None,
    });
}
