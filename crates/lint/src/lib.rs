//! `bgla-lint` — the protocol-invariant check that rustc and clippy
//! cannot express.
//!
//! Byzantine tolerance assumes hostile bytes never crash an honest
//! process. The `byzantine-panic` pass ([`byzantine_panic`]) follows the
//! same-crate call closure from every hostile-input entry point
//! (`decode`, `from_snapshot`, `on_message`, `demux_frame`) and flags the
//! panics it reaches; clippy's panic lints are crate-wide and cannot
//! follow a call graph. It runs on a small in-repo lexer ([`lexer`]) and
//! function-level parser ([`parse`]), with no external dependencies.
//!
//! The invariants the toolchain can hold are held there, not here (see
//! `LINTS.md`):
//!
//! | invariant | held by |
//! |-----------|---------|
//! | `Wire::encode` covers every field | an exhaustive `let Self { .. } = self;` at its top |
//! | `Metrics::merge` folds every counter | an exhaustive `let Metrics { .. } = other;` |
//! | `demux_frame` handles every frame kind | a `match` on `FrameKind` with no `_` arm |
//! | no hash-order iteration or wall clocks in simulated crates | `disallowed-types` in the root `clippy.toml` |
//! | no blocking call on a poller thread | `disallowed-methods` in `crates/net/clippy.toml` |
//!
//! Findings print rustc-style (`file:line: pass: message`), `--json`
//! emits a machine-readable array, and any *unsuppressed* finding makes
//! the binary exit nonzero — it runs as a CI gate. Individual findings
//! are waived in source with a justified line comment:
//!
//! ```text
//! // bgla-lint: allow(byzantine-panic, "while condition bounds i")
//! ```
//!
//! placed on the offending line or the line(s) directly above it.
//!
//! # Scope
//!
//! The workspace scan (`--workspace`) lints `src/**/*.rs` of every
//! non-vendored member: shipped protocol code. Test modules
//! (`#[cfg(test)]`), integration tests, benches and the `vendor/`
//! stand-ins are deliberately out of scope — panics are fine in test
//! harnesses. Explicit file arguments are linted as one ad-hoc crate
//! (used by the fixture suite).

pub mod byzantine_panic;
pub mod lexer;
pub mod parse;

use parse::ParsedFile;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as displayed (relative to the workspace root when known).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Pass identifier (`byzantine-panic`).
    pub pass: &'static str,
    /// Human-readable description of the violated invariant.
    pub message: String,
    /// `Some(reason)` when waived by a `bgla-lint: allow` comment.
    pub suppressed: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

impl Diagnostic {
    /// Serializes one finding as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"file\":{},", json_str(&self.file)));
        out.push_str(&format!("\"line\":{},", self.line));
        out.push_str(&format!("\"pass\":{},", json_str(self.pass)));
        out.push_str(&format!("\"message\":{}", json_str(&self.message)));
        if let Some(reason) = &self.suppressed {
            out.push_str(&format!(",\"suppressed\":{}", json_str(reason)));
        }
        out.push('}');
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `// bgla-lint: allow(pass, "reason")` waiver parsed from source.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// 1-based line the waiver covers (its own line when trailing
    /// code, otherwise the first non-waiver line below).
    pub target: u32,
    /// Pass it waives.
    pub pass: String,
    /// Mandatory justification.
    pub reason: String,
}

/// One source file with everything the pass needs.
#[derive(Debug)]
pub struct FileModel {
    /// Path as displayed in diagnostics.
    pub display: String,
    /// Cargo package name the file belongs to (`adhoc` for explicit
    /// file arguments).
    pub crate_name: String,
    /// Lexed token stream.
    pub tokens: Vec<lexer::Token>,
    /// Parsed items.
    pub items: ParsedFile,
    /// Suppression comments.
    pub allows: Vec<Allow>,
}

/// The unit the pass runs over.
#[derive(Debug, Default)]
pub struct Model {
    /// All files, in scan order.
    pub files: Vec<FileModel>,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintResult {
    /// Every finding, suppressed ones included, sorted by
    /// (file, line, pass).
    pub diagnostics: Vec<Diagnostic>,
    /// `allow` comments that waived nothing — stale waivers worth
    /// deleting (reported on stderr, never fatal).
    pub unused_allows: Vec<(String, u32, String)>,
}

impl LintResult {
    /// Findings that actually gate (not suppressed).
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }
}

/// Parses the `bgla-lint: allow(pass, "reason")` waivers out of raw
/// source. A waiver trailing code covers its own line; a waiver alone
/// on a line covers the first following line that is not itself a
/// waiver line (so waivers stack).
pub fn parse_allows(src: &str) -> Vec<Allow> {
    let lines: Vec<&str> = src.lines().collect();
    let mut raw: Vec<(u32, bool, String, String)> = Vec::new(); // (line, own_line, pass, reason)
    let mut waiver_lines = vec![false; lines.len() + 2];
    for (idx, l) in lines.iter().enumerate() {
        let Some(cpos) = l.find("//") else { continue };
        let comment = &l[cpos..];
        // Doc comments don't waive: `///`/`//!` text is documentation
        // (and may *quote* waivers, as this crate's own docs do).
        if comment.starts_with("///") || comment.starts_with("//!") {
            continue;
        }
        let Some(mark) = comment.find("bgla-lint:") else {
            continue;
        };
        let rest = comment[mark + "bgla-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.rfind(')') else {
            continue;
        };
        let args = &args[..close];
        let Some((pass, reason)) = args.split_once(',') else {
            continue;
        };
        let reason = reason.trim();
        let reason = reason
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .unwrap_or(reason);
        if reason.trim().is_empty() {
            // A waiver without a justification is not a waiver.
            continue;
        }
        let own_line = !l[..cpos].trim().is_empty();
        raw.push((
            (idx + 1) as u32,
            own_line,
            pass.trim().to_string(),
            reason.trim().to_string(),
        ));
        if !own_line {
            waiver_lines[idx + 1] = true;
        }
    }
    raw.into_iter()
        .map(|(line, own_line, pass, reason)| {
            let target = if own_line {
                line
            } else {
                let mut t = line + 1;
                while (t as usize) < waiver_lines.len() && waiver_lines[t as usize] {
                    t += 1;
                }
                t
            };
            Allow {
                line,
                target,
                pass,
                reason,
            }
        })
        .collect()
}

/// Loads and parses one file into the model.
fn load_file(path: &Path, display: String, crate_name: String) -> std::io::Result<FileModel> {
    let src = std::fs::read_to_string(path)?;
    let tokens = lexer::lex(&src);
    let items = parse::parse(&tokens);
    let allows = parse_allows(&src);
    Ok(FileModel {
        display,
        crate_name,
        tokens,
        items,
        allows,
    })
}

/// Lints an explicit set of files (fixture mode).
pub fn lint_files(paths: &[PathBuf]) -> std::io::Result<LintResult> {
    let mut model = Model::default();
    for p in paths {
        let display = p.to_string_lossy().into_owned();
        model
            .files
            .push(load_file(p, display, "adhoc".to_string())?);
    }
    Ok(run(&model))
}

/// Discovers the workspace members under `root` (skipping `vendor/`)
/// and returns `(crate_name, src_file)` pairs for every `src/**/*.rs`.
fn discover_workspace(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut member_dirs: Vec<PathBuf> = vec![root.to_path_buf()]; // the root package
    let mut in_members = false;
    for line in manifest.lines() {
        let l = line.trim();
        if l.starts_with("members") && l.contains('[') {
            in_members = true;
        }
        if in_members {
            for piece in l.split(',') {
                let piece = piece.trim();
                if let Some(q) = piece.find('"') {
                    if let Some(q2) = piece[q + 1..].find('"') {
                        let member = &piece[q + 1..q + 1 + q2];
                        if !member.starts_with("vendor/") {
                            member_dirs.push(root.join(member));
                        }
                    }
                }
            }
            if l.contains(']') {
                in_members = false;
            }
        }
    }
    let mut out = Vec::new();
    for dir in member_dirs {
        let name = crate_name_of(&dir)?;
        let src = dir.join("src");
        if src.is_dir() {
            let mut files = Vec::new();
            collect_rs(&src, &mut files)?;
            files.sort();
            for f in files {
                out.push((name.clone(), f));
            }
        }
    }
    Ok(out)
}

fn crate_name_of(dir: &Path) -> std::io::Result<String> {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))?;
    let mut in_package = false;
    for line in manifest.lines() {
        let l = line.trim();
        if l.starts_with('[') {
            in_package = l == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = l.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Ok(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    Ok(dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unknown".to_string()))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs") == Some(true) {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintResult> {
    let mut model = Model::default();
    for (crate_name, path) in discover_workspace(root)? {
        let display = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        model.files.push(load_file(&path, display, crate_name)?);
    }
    Ok(run(&model))
}

/// Runs the pass, applies suppressions, and sorts.
fn run(model: &Model) -> LintResult {
    let mut diags: Vec<Diagnostic> = Vec::new();
    byzantine_panic::run(model, &mut diags);
    // Apply suppressions: a finding is waived by an allow comment for
    // its pass targeting its line.
    let mut used: BTreeMap<(usize, u32, String), bool> = BTreeMap::new();
    let by_display: BTreeMap<&str, usize> = model
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.display.as_str(), i))
        .collect();
    for d in &mut diags {
        let Some(&fi) = by_display.get(d.file.as_str()) else {
            continue;
        };
        for a in &model.files[fi].allows {
            if a.pass == d.pass && (a.target == d.line || a.line == d.line) {
                d.suppressed = Some(a.reason.clone());
                used.insert((fi, a.line, a.pass.clone()), true);
                break;
            }
        }
    }
    let mut unused = Vec::new();
    for (fi, f) in model.files.iter().enumerate() {
        for a in &f.allows {
            if !used.contains_key(&(fi, a.line, a.pass.clone())) {
                unused.push((f.display.clone(), a.line, a.pass.clone()));
            }
        }
    }
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.pass).cmp(&(b.file.as_str(), b.line, b.pass)));
    diags.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.pass == b.pass && a.message == b.message
    });
    LintResult {
        diagnostics: diags,
        unused_allows: unused,
    }
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_comments_parse_and_target() {
        // The marker is assembled at runtime so that this file's own
        // source never contains waiver-looking lines.
        let m = format!("bgla-{}:", "lint");
        let src = format!(
            "let x = v[0]; // {m} allow(byzantine-panic, \"trailing\")\n\
             // {m} allow(byzantine-panic, \"stacked one\")\n\
             // {m} allow(other-pass, \"stacked two\")\n\
             let y = v[1];\n\
             // {m} allow(byzantine-panic, )\n\
             /// {m} allow(byzantine-panic, \"doc comments never waive\")\n"
        );
        let allows = parse_allows(&src);
        // The reasonless waiver and the doc-comment one are dropped.
        assert_eq!(allows.len(), 3);
        assert_eq!(allows[0].target, 1);
        assert_eq!(allows[0].reason, "trailing");
        assert_eq!(allows[1].target, 4);
        assert_eq!(allows[2].target, 4);
        assert_eq!(allows[2].pass, "other-pass");
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic {
            file: "a\\b.rs".into(),
            line: 3,
            pass: "byzantine-panic",
            message: "say \"hi\"".into(),
            suppressed: None,
        };
        assert_eq!(
            d.to_json(),
            "{\"file\":\"a\\\\b.rs\",\"line\":3,\"pass\":\"byzantine-panic\",\"message\":\"say \\\"hi\\\"\"}"
        );
    }
}
