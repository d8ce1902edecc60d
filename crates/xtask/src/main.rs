//! Workspace task runner. Currently one task:
//!
//! ```text
//! cargo run -p xtask -- lint [--json] [--root DIR]
//! ```
//!
//! Runs the project lint rules (see the library docs) and exits non-zero
//! when any violation is found. With `--json`, findings are emitted as one
//! JSON object per line (for CI annotation) instead of the human-readable
//! report. The ratchet file `xtask-lint-ratchet.txt` in the workspace root
//! (rule L10) pins the number of panic-lint exemption attributes.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::lint_workspace;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(task) = args.next() else {
        eprintln!("usage: cargo run -p xtask -- lint [--json] [--root DIR]");
        return ExitCode::FAILURE;
    };
    if task != "lint" {
        eprintln!("unknown task {task:?}; available tasks: lint");
        return ExitCode::FAILURE;
    }

    let mut root: Option<PathBuf> = None;
    let mut json = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json = true,
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    // `cargo run -p xtask` sets the cwd to the invoker's directory and
    // CARGO_MANIFEST_DIR to this checkout's crates/xtask; the workspace
    // root is two up. Read it at run time: a checkout copied with its
    // `target/` runs a binary whose compile-time path names the original
    // tree. The compile-time path covers a binary run outside cargo.
    let root = root.unwrap_or_else(|| {
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    match lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            if !json {
                println!("xtask lint: OK");
            }
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                if json {
                    println!("{}", v.to_json());
                } else {
                    println!("{v}");
                }
            }
            if !json {
                println!("xtask lint: {} violation(s)", violations.len());
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}
