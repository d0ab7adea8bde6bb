//! Golden-file tests: each fixture under `fixtures/` reproduces one
//! historical bug class, and its rendered diagnostics must match the
//! checked-in expectation byte for byte. Plus the self-gate: the
//! shipped workspace must lint clean.

use bgla_lint::{lint_files, lint_workspace, LintResult};
use std::path::{Path, PathBuf};
use std::process::Command;

fn lint_fixture(name: &str) -> LintResult {
    // Integration tests run with cwd = the package root, so the
    // rendered paths are the repo-relative `fixtures/...` form.
    lint_files(&[PathBuf::from(format!("fixtures/{name}.rs"))]).expect("fixture readable")
}

fn assert_golden(name: &str, expected: &str) {
    let result = lint_fixture(name);
    let mut rendered = String::new();
    for d in result.unsuppressed() {
        rendered.push_str(&d.to_string());
        rendered.push('\n');
    }
    assert_eq!(
        rendered, expected,
        "diagnostics for fixtures/{name}.rs drifted from the golden file"
    );
}

#[test]
fn pr3_gsafeack_omission_is_flagged() {
    // The minimized PR-3 incident: `rcvd` unsigned, and the digest-side
    // asymmetry (`sig` exempt from signable_bytes, required by
    // digest_bytes).
    let expected = include_str!("../fixtures/expected/pr3_gsafeack.txt");
    assert!(expected.contains("field `rcvd` of `GSafeAck`"));
    assert!(expected.contains("field `sig` of `SignedRecord`"));
    assert_golden("pr3_gsafeack", expected);
}

#[test]
fn wire_field_drop_is_flagged() {
    let expected = include_str!("../fixtures/expected/wire_drop.txt");
    assert!(expected.contains("field `watermark` of `Snapshot`"));
    assert!(expected.contains("Wire::encode"));
    assert_golden("wire_drop", expected);
}

#[test]
fn determinism_sources_are_flagged_and_waivable() {
    let expected = include_str!("../fixtures/expected/determinism.txt");
    assert_golden("determinism", expected);
    // The justified waiver on the HashMap field suppressed exactly one.
    let result = lint_fixture("determinism");
    let suppressed: Vec<_> = result
        .diagnostics
        .iter()
        .filter(|d| d.suppressed.is_some())
        .collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(
        suppressed[0].suppressed.as_deref(),
        Some("lookup-only map; order never observed")
    );
}

#[test]
fn hostile_path_panics_are_flagged_transitively() {
    let expected = include_str!("../fixtures/expected/byz_panic.txt");
    // The helper is only dangerous because `decode` reaches it.
    assert!(expected.contains("in `first_byte`, reached from `decode`"));
    assert_golden("byz_panic", expected);
    // The debug_assert! argument's indexing is exempt: exactly two
    // findings, none on the debug_assert line.
    let result = lint_fixture("byz_panic");
    assert_eq!(result.diagnostics.len(), 2);
    assert!(result.diagnostics.iter().all(|d| d.line != 20));
}

#[test]
fn merge_field_drop_is_flagged() {
    let expected = include_str!("../fixtures/expected/metrics_merge.txt");
    assert!(expected.contains("field `max_message_bytes` of `Metrics`"));
    assert_golden("metrics_merge", expected);
}

#[test]
fn missing_demux_arm_is_flagged() {
    let expected = include_str!("../fixtures/expected/frame_demux.txt");
    assert!(expected.contains("frame kind `FK_PING` has no arm in `demux_frame`"));
    assert_golden("frame_demux", expected);
    // The two handled kinds produce nothing: exactly one finding.
    let result = lint_fixture("frame_demux");
    assert_eq!(result.diagnostics.len(), 1);
}

#[test]
fn poller_blocking_calls_are_flagged() {
    let expected = include_str!("../fixtures/expected/poller_sleep.txt");
    assert!(expected.contains("`sleep` in poller code"));
    assert!(expected.contains("`set_nonblocking(false)` in poller code"));
    assert_golden("poller_sleep", expected);
    // The `(true)` setup call and the test-module sleep are exempt:
    // exactly two findings, both in non-test code.
    let result = lint_fixture("poller_sleep");
    assert_eq!(result.diagnostics.len(), 2);
}

#[test]
fn clean_fixture_passes_every_pass() {
    let result = lint_fixture("clean");
    assert!(
        result.diagnostics.is_empty(),
        "clean fixture must produce no findings at all, got {:?}",
        result.diagnostics
    );
}

/// The shipped tree gates nothing, carries no stale waiver, and waives
/// exactly as many findings as LINTS.md's `Census: N waivers` says — so
/// the count moves only with an edit that says so.
#[test]
fn shipped_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let result = lint_workspace(root).expect("workspace lintable");
    let gating: Vec<_> = result.unsuppressed().collect();
    assert!(
        gating.is_empty(),
        "the shipped tree must lint clean (fix or justify-and-suppress):\n{}",
        gating
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        result.unused_allows.is_empty(),
        "stale waivers must be deleted: {:?}",
        result.unused_allows
    );
    let doc = std::fs::read_to_string(root.join("LINTS.md")).expect("LINTS.md readable");
    let census: usize = doc
        .split_once("Census: ")
        .and_then(|(_, rest)| rest.split_once(" waivers"))
        .and_then(|(n, _)| n.parse().ok())
        .expect("LINTS.md states `Census: N waivers`");
    let suppressed = result.diagnostics.len() - gating.len();
    assert_eq!(
        suppressed, census,
        "LINTS.md says {census} waivers, the tree has {suppressed}: update the census and say why"
    );
}

#[test]
fn cli_exit_codes_gate() {
    let bin = env!("CARGO_BIN_EXE_bgla-lint");
    let bad = Command::new(bin)
        .arg("fixtures/pr3_gsafeack.rs")
        .output()
        .expect("run lint binary");
    assert_eq!(bad.status.code(), Some(1), "findings must exit nonzero");
    let clean = Command::new(bin)
        .arg("fixtures/clean.rs")
        .output()
        .expect("run lint binary");
    assert_eq!(clean.status.code(), Some(0), "clean input must exit zero");
    let usage = Command::new(bin).output().expect("run lint binary");
    assert_eq!(usage.status.code(), Some(2), "no input is a usage error");
}

#[test]
fn cli_json_mode_is_parseable_shape() {
    let bin = env!("CARGO_BIN_EXE_bgla-lint");
    let out = Command::new(bin)
        .args(["--json", "fixtures/metrics_merge.rs"])
        .output()
        .expect("run lint binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = stdout.trim();
    assert!(line.starts_with('[') && line.ends_with(']'));
    assert!(line.contains("\"pass\":\"metrics-merge-coverage\""));
    assert!(line.contains("\"file\":\"fixtures/metrics_merge.rs\""));
}
