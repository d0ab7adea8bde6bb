//! Command-line driver for `bgla-lint`.
//!
//! ```text
//! bgla-lint --workspace            # lint every workspace member (CI gate)
//! bgla-lint path/to/file.rs ...    # lint explicit files
//! bgla-lint --workspace --json     # machine-readable findings
//! ```
//!
//! Exit status: 0 when no unsuppressed finding, 1 when at least one
//! finding gates, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: bgla-lint [--workspace] [--root DIR] [--json] [FILES...]\n\
     \n\
     --workspace    lint src/**/*.rs of every non-vendored workspace member\n\
     --root DIR     workspace root (default: walk up from cwd to [workspace])\n\
     --json         emit findings as a JSON array instead of rustc-style lines\n\
     FILES          lint explicit files (fixture mode)"
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("bgla-lint: --root requires a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("bgla-lint: unknown flag `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if !workspace && files.is_empty() {
        eprintln!("bgla-lint: pass --workspace or explicit files\n{}", usage());
        return ExitCode::from(2);
    }

    let result = if workspace {
        let root = root
            .or_else(|| {
                std::env::current_dir()
                    .ok()
                    .and_then(|d| bgla_lint::find_workspace_root(&d))
            })
            .unwrap_or_else(|| PathBuf::from("."));
        match bgla_lint::lint_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bgla-lint: {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        match bgla_lint::lint_files(&files) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bgla-lint: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let gating: Vec<_> = result.unsuppressed().collect();
    if json {
        let mut out = String::from("[");
        for (i, d) in result.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push(']');
        println!("{out}");
    } else {
        for d in &gating {
            println!("{d}");
        }
    }
    for (file, line, pass) in &result.unused_allows {
        eprintln!("warning: {file}:{line}: unused `bgla-lint: allow({pass}, ...)` waiver");
    }
    let suppressed = result.diagnostics.len() - gating.len();
    eprintln!(
        "bgla-lint: {} finding{} ({} suppressed)",
        gating.len(),
        if gating.len() == 1 { "" } else { "s" },
        suppressed
    );
    if gating.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
