//! Project-specific static analysis for the vmtherm workspace.
//!
//! `cargo run -p xtask -- lint` walks the workspace sources with a
//! dependency-light, line-oriented scanner and enforces the conventions
//! that are specific to this project, which `rustc`/`clippy` cannot
//! express for us:
//!
//! - **L1** — every crate manifest inherits the shared
//!   `[workspace.lints]` table via `[lints] workspace = true`, and the
//!   roots of the crates the compiler rules below cover still deny
//!   them: core, svm, sim and obs the panic lints, core, sim and svm the
//!   `clippy.toml` bans. Deleting one of those lines would otherwise
//!   leave clippy green, because each vetted site's `#[expect]` turns
//!   its lint on for its own scope. Likewise the root `clippy.toml` must
//!   still list every type and method those bans cover: clippy bans
//!   only what is listed.
//! - **L3** — no raw `f64` temperature/power/duration/utilization
//!   parameters in `pub fn` (or public trait) signatures of
//!   `vmtherm-core` and `vmtherm-sim`; such parameters must use the
//!   `vmtherm-units` newtypes (`Celsius`, `Watts`, `Seconds`,
//!   `Utilization`). Detection is by parameter-name suffix (`_c`,
//!   `_celsius`, `_w`, `_watts`, `_kw`, `_secs`, `_seconds`,
//!   `utilization`); slices and vectors of `f64` are exempt (bulk data,
//!   not single quantities).
//! - **L4** — no direct float `==`/`!=` between temperature-suffixed
//!   operands in `vmtherm-core` / `vmtherm-sim` library code; use
//!   `total_cmp` or epsilon helpers.
//! - **L5** — the paper constants (λ = 0.8, t_break = 600 s, Δ_update,
//!   Δ_gap) are defined exactly once, in `vmtherm-units::constants`,
//!   and imported everywhere else. Likewise metric, span and alert name
//!   constants (`METRIC_*`, `SPAN_*`, `ALERT_*`) live only in
//!   `crates/obs/src/names.rs` — nowhere else, not even elsewhere in
//!   `vmtherm-obs`.
//! - **L6** — no `Vec<Vec<f64>>` in `pub fn` (or public trait)
//!   signatures of `vmtherm-svm` and `vmtherm-core`: feature matrices
//!   cross public APIs as `DenseMatrix` (flat, row-major), keeping the
//!   pipeline on one contiguous allocation. The one exemption is the
//!   designated boundary constructor, `DenseMatrix::from_nested` in
//!   `crates/svm/src/matrix.rs`.
//! - **L10** — exemption ratchet: the number of `#[allow]`/`#[expect]`
//!   attributes naming `clippy::unwrap_used`, `clippy::expect_used` or
//!   `clippy::panic` in the library code of `vmtherm-core`,
//!   `vmtherm-svm`, `vmtherm-sim` and `vmtherm-obs` is pinned by
//!   `xtask-lint-ratchet.txt`, which may only be edited downward — the
//!   vetted panic sites can shrink but never silently grow.
//!
//! The rules the compiler can check with type information are left to
//! it (numbers L2, L7, L8 and L9 are retired with their scanners):
//!
//! - no `unsafe` anywhere, tests and bins included:
//!   `[workspace.lints.rust] unsafe_code = "forbid"`;
//! - panic-free library code: the roots of core, svm, sim and obs
//!   `#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]`,
//!   and each vetted site carries `#[expect(…, reason = "…")]`, which
//!   fails clippy as `unfulfilled_lint_expectations` once the site is
//!   gone; `clippy.toml` exempts test code;
//! - determinism and threads: `clippy.toml`'s `disallowed-types`
//!   (`HashMap`, `HashSet`, and `BinaryHeap`, so no event order rests on
//!   a hand-written `Ord`) and `disallowed-methods` (`Instant::now`,
//!   `SystemTime::now`, `thread::spawn`, `thread::scope`), denied in the
//!   roots of core, sim and svm. The two index-addressed merges that may
//!   spawn threads (`crates/svm/src/grid.rs`,
//!   `crates/sim/src/experiment.rs`) carry `#[expect]`. Unseeded RNGs cannot be written at all: the
//!   vendored `rand` has no `thread_rng`, `from_entropy`, `random` or
//!   `OsRng`.
//!
//! The scanner is deliberately line-oriented (no syn/proc-macro
//! dependency): rules are written so that the idioms they police are
//! recognizable on a single logical line, and `#[cfg(test)]` modules are
//! skipped by brace tracking.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules. Numbers L2, L7, L8 and L9 are retired: rustc and
/// clippy enforce those rules (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Crate hygiene: `[lints] workspace = true` in every manifest, the
    /// panic and determinism denies in the crate roots they cover, and
    /// the `clippy.toml` entries the determinism denies enforce.
    L1,
    /// No raw `f64` unit-suffixed parameters in public signatures.
    L3,
    /// No direct float equality on temperatures.
    L4,
    /// Paper constants defined exactly once (in `vmtherm-units`).
    L5,
    /// No nested `Vec<Vec<f64>>` matrices in public signatures.
    L6,
    /// Exemption ratchet: panic-lint exemptions only ever decrease.
    L10,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One finding: a rule fired at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// 1-based line number; 0 for file-level findings (a manifest, the
    /// ratchet file).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The offending source line, when there is one.
    pub source: String,
}

impl Violation {
    /// The finding as one machine-readable JSON object (no trailing
    /// newline) for `lint --json` / CI annotation.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"source\":\"{}\"}}",
            self.rule,
            json_escape(&self.path.display().to_string()),
            self.line,
            json_escape(&self.message),
            json_escape(self.source.trim()),
        )
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(
                f,
                "[{}] {}: {}",
                self.rule,
                self.path.display(),
                self.message
            )
        } else {
            write!(
                f,
                "[{}] {}:{}: {}",
                self.rule,
                self.path.display(),
                self.line,
                self.message
            )
        }
    }
}

/// Crates whose library code must be panic-free; rule L10 counts the
/// exemption attributes in their sources.
const PANIC_FREE_CRATES: [&str; 4] = ["core", "svm", "sim", "obs"];

/// The clippy lints whose exemption attributes rule L10 counts.
const PANIC_LINTS: [&str; 3] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
];

/// Crates whose public signatures must use unit newtypes (rules L3, L4).
const UNIT_SAFE_CRATES: [&str; 2] = ["core", "sim"];

/// Crates whose public signatures must pass feature matrices as
/// `DenseMatrix`, never `Vec<Vec<f64>>` (rule L6).
const MATRIX_SAFE_CRATES: [&str; 2] = ["svm", "core"];

/// Crates whose library code must be replay-deterministic: their roots
/// deny the `clippy.toml` bans, and those bans must stay listed (rule L1).
const DETERMINISTIC_CRATES: [&str; 3] = ["core", "sim", "svm"];

/// The one public signature allowed a nested matrix (rule L6): the
/// boundary constructor converting nested data to a flat `DenseMatrix`,
/// as `(workspace-relative file, signature prefix)`.
const NESTED_MATRIX_BOUNDARY: (&str, &str) = ("crates/svm/src/matrix.rs", "pub fn from_nested(");

/// Workspace-root file pinning the panic-lint exemption count (rule L10).
pub const RATCHET_FILE: &str = "xtask-lint-ratchet.txt";

/// Parameter-name suffixes that denote a single physical quantity, with
/// the newtype each must use.
const UNIT_SUFFIXES: [(&str, &str); 8] = [
    ("_celsius", "Celsius"),
    ("_c", "Celsius"),
    ("_watts", "Watts"),
    ("_kw", "Watts"),
    ("_w", "Watts"),
    ("_seconds", "Seconds"),
    ("_secs", "Seconds"),
    ("utilization", "Utilization"),
];

/// The four paper constants and the only module allowed to define them.
const PAPER_CONSTANT_NAMES: [&str; 4] = [
    "PAPER_LAMBDA",
    "PAPER_T_BREAK_SECS",
    "PAPER_DELTA_UPDATE_SECS",
    "PAPER_DELTA_GAP_SECS",
];

/// Runs every rule over the workspace at `root` and returns the
/// violations, sorted by rule then path then line.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    check_crate_hygiene(root, &mut violations)?;
    check_root_denies(root, &mut violations)?;
    check_clippy_bans(root, &mut violations);
    scan_crates(root, &UNIT_SAFE_CRATES, |rel, text| {
        check_unit_newtypes(rel, text, &mut violations);
        check_float_comparisons(rel, text, &mut violations);
    })?;
    scan_crates(root, &MATRIX_SAFE_CRATES, |rel, text| {
        check_nested_matrices(rel, text, &mut violations);
    })?;
    check_paper_constants(root, &mut violations)?;
    check_exemption_ratchet(root, &mut violations)?;
    violations.sort_by(|a, b| {
        (a.rule as u8)
            .cmp(&(b.rule as u8))
            .then(a.path.cmp(&b.path))
            .then(a.line.cmp(&b.line))
    });
    Ok(violations)
}

/// Calls `check` with the workspace-relative path and text of every
/// source file under `crates/<name>/src` for each of `crates`.
fn scan_crates(
    root: &Path,
    crates: &[&str],
    mut check: impl FnMut(&Path, &str),
) -> Result<(), String> {
    for name in crates {
        for file in rust_sources(&root.join("crates").join(name).join("src"))? {
            let text = read_source(root, &file)?;
            check(&relative(root, &file), &text);
        }
    }
    Ok(())
}

fn read_source(root: &Path, file: &Path) -> Result<String, String> {
    fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", relative(root, file).display()))
}

fn relative(root: &Path, file: &Path) -> PathBuf {
    file.strip_prefix(root).unwrap_or(file).to_path_buf()
}

/// All `.rs` files under `dir`, recursively, in stable order. A missing
/// directory yields an empty list (a fixture may omit a crate).
fn rust_sources(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    if !dir.exists() {
        return Ok(files);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| format!("reading dir {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading dir {}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The workspace crate directories: the root package (if `src/` exists)
/// plus every direct child of `crates/`.
fn crate_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = Vec::new();
    if root.join("src").exists() && root.join("Cargo.toml").exists() {
        dirs.push(root.to_path_buf());
    }
    let crates = root.join("crates");
    if crates.exists() {
        let entries =
            fs::read_dir(&crates).map_err(|e| format!("reading {}: {e}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", crates.display()))?;
            let path = entry.path();
            if path.is_dir() && path.join("Cargo.toml").exists() {
                dirs.push(path);
            }
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// L1: every crate manifest inherits the workspace lint table.
fn check_crate_hygiene(root: &Path, out: &mut Vec<Violation>) -> Result<(), String> {
    for dir in crate_dirs(root)? {
        let manifest_path = dir.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("reading {}: {e}", manifest_path.display()))?;
        if !inherits_workspace_lints(&manifest) {
            out.push(Violation {
                rule: Rule::L1,
                path: relative(root, &manifest_path),
                line: 0,
                message: "crate manifest does not inherit the workspace lint table \
                          (add `[lints]\\nworkspace = true`)"
                    .to_string(),
                source: String::new(),
            });
        }
    }
    Ok(())
}

/// The lints each crate group's root must deny (rule L1): the
/// panic-free crates deny the panic lints, the deterministic crates the
/// `clippy.toml` bans. An `#[expect]` turns its lint on for its own
/// scope, so deleting a root deny would leave clippy green with the
/// rule silently off.
const ROOT_DENIES: [(&[&str], &[&str]); 2] = [
    (&PANIC_FREE_CRATES, &PANIC_LINTS),
    (
        &DETERMINISTIC_CRATES,
        &["clippy::disallowed_types", "clippy::disallowed_methods"],
    ),
];

/// L1, second half: the root `src/lib.rs` of every manifest-bearing crate
/// in a [`ROOT_DENIES`] group denies (or forbids) that group's lints.
fn check_root_denies(root: &Path, out: &mut Vec<Violation>) -> Result<(), String> {
    for (crates, lints) in ROOT_DENIES {
        for name in crates {
            let dir = root.join("crates").join(name);
            let lib = dir.join("src").join("lib.rs");
            if !dir.join("Cargo.toml").exists() || !lib.exists() {
                continue;
            }
            let code: Vec<String> = read_source(root, &lib)?
                .lines()
                .map(strip_comment_and_strings)
                .collect();
            let denied: Vec<String> = attribute_lints(&code, &["#![deny(", "#![forbid("])
                .into_iter()
                .flat_map(|(_, lints)| lints)
                .collect();
            let missing: Vec<&str> = lints
                .iter()
                .copied()
                .filter(|lint| !denied.iter().any(|d| d == lint))
                .collect();
            if !missing.is_empty() {
                out.push(Violation {
                    rule: Rule::L1,
                    path: relative(root, &lib),
                    line: 0,
                    message: format!(
                        "crate root does not deny {} (add `#![deny({})]`)",
                        missing.join(", "),
                        lints.join(", ")
                    ),
                    source: String::new(),
                });
            }
        }
    }
    Ok(())
}

/// The types and methods `clippy.toml` must list for the deterministic
/// crates' root denies to ban them (rule L1). Clippy bans only what its
/// lists name, so a deleted entry would turn its ban off with every gate
/// green.
const CLIPPY_BANS: [&str; 7] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::collections::BinaryHeap",
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::thread::spawn",
    "std::thread::scope",
];

/// L1, third part: a workspace with a manifest-bearing deterministic
/// crate has a root `clippy.toml` that names every [`CLIPPY_BANS`] path,
/// quoted, on an uncommented line.
fn check_clippy_bans(root: &Path, out: &mut Vec<Violation>) {
    let guarded = DETERMINISTIC_CRATES
        .iter()
        .any(|name| root.join("crates").join(name).join("Cargo.toml").exists());
    if !guarded {
        return;
    }
    // A missing or unreadable file lists nothing.
    let config = root.join("clippy.toml");
    let text = fs::read_to_string(&config).unwrap_or_default();
    let missing: Vec<&str> = CLIPPY_BANS
        .into_iter()
        .filter(|ban| {
            let quoted = format!("\"{ban}\"");
            !text
                .lines()
                .any(|line| !line.trim_start().starts_with('#') && line.contains(&quoted))
        })
        .collect();
    if !missing.is_empty() {
        out.push(Violation {
            rule: Rule::L1,
            path: relative(root, &config),
            line: 0,
            message: format!(
                "clippy.toml does not list {}; the deterministic crates' root denies ban \
                 only what it lists",
                missing.join(", ")
            ),
            source: String::new(),
        });
    }
}

/// Whether a manifest contains `[lints]` with `workspace = true` inside.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        if in_lints {
            let no_space: String = line.chars().filter(|c| !c.is_whitespace()).collect();
            if no_space == "workspace=true" {
                return true;
            }
        }
    }
    false
}

/// Per-line classification shared by the source rules: strips line
/// comments and tracks `#[cfg(test)]` modules by brace depth so test code
/// is exempt. Block comments and raw strings containing braces can in
/// principle confuse the tracker; the codebase (and rustfmt) keeps those
/// off signature/call lines.
struct SourceLines<'a> {
    lines: Vec<(usize, &'a str, String)>,
}

impl<'a> SourceLines<'a> {
    /// Returns `(line_number, raw_line, code_part)` for every line that is
    /// neither test code nor comment-only. `code_part` has `//` comments
    /// and the contents of string literals removed.
    fn non_test(text: &'a str) -> SourceLines<'a> {
        let mut out = Vec::new();
        let mut test_depth: Option<i64> = None;
        let mut pending_cfg_test = false;
        for (idx, raw) in text.lines().enumerate() {
            let code = strip_comment_and_strings(raw);
            let trimmed = code.trim();
            let opens = code.matches('{').count() as i64;
            let closes = code.matches('}').count() as i64;
            if let Some(depth) = test_depth.as_mut() {
                *depth += opens - closes;
                if *depth <= 0 {
                    test_depth = None;
                }
                continue;
            }
            if trimmed == "#[cfg(test)]" {
                pending_cfg_test = true;
                continue;
            }
            if pending_cfg_test {
                // The attribute applies to the next item; when that item is
                // a module or function, its whole body is test code.
                pending_cfg_test = false;
                let depth = opens - closes;
                if depth > 0 {
                    test_depth = Some(depth);
                }
                continue;
            }
            if trimmed.is_empty() {
                continue;
            }
            out.push((idx + 1, raw, code));
        }
        SourceLines { lines: out }
    }
}

/// Removes `//` comments and blanks out the inside of `"…"` string
/// literals (keeping the quotes) so pattern matching cannot fire inside
/// text. Char literals and escapes are handled well enough for source
/// that compiles.
fn strip_comment_and_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            if c == '\\' {
                chars.next();
                continue;
            }
            if c == '"' {
                in_string = false;
                out.push('"');
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push('"');
            }
            '\'' => {
                // Char literal or lifetime; copy up to 3 chars verbatim to
                // skip a possible `'x'` without treating `'a` as a string.
                out.push('\'');
                if let Some(&n) = chars.peek() {
                    out.push(n);
                    chars.next();
                    if n == '\\' {
                        if let Some(e) = chars.next() {
                            out.push(e);
                        }
                    }
                    if chars.peek() == Some(&'\'') {
                        out.push('\'');
                        chars.next();
                    }
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// L3: unit-suffixed `f64` parameters in public signatures.
fn check_unit_newtypes(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    let lines = SourceLines::non_test(text).lines;
    // Track whether we are lexically inside a `pub trait { .. }` block:
    // methods there are public API even without a `pub` keyword.
    let mut trait_depth: Option<i64> = None;
    let mut i = 0;
    while i < lines.len() {
        let (line_no, _raw, code) = &lines[i];
        let trimmed = code.trim_start();
        let in_pub_trait = trait_depth.is_some();
        if let Some(depth) = trait_depth.as_mut() {
            *depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if *depth <= 0 {
                trait_depth = None;
            }
        } else if trimmed.starts_with("pub trait ") {
            let depth = code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if depth > 0 {
                trait_depth = Some(depth);
            }
            i += 1;
            continue;
        }

        let is_pub_fn = trimmed.starts_with("pub fn ");
        let is_trait_fn = in_pub_trait && trimmed.starts_with("fn ");
        if !(is_pub_fn || is_trait_fn) {
            i += 1;
            continue;
        }
        // Collect the whole signature (it may span lines, rustfmt-style).
        let mut signature = code.trim().to_string();
        let mut j = i;
        while !signature_complete(&signature) && j + 1 < lines.len() {
            j += 1;
            signature.push(' ');
            signature.push_str(lines[j].2.trim());
        }
        for (param, suffix, newtype) in raw_unit_params(&signature) {
            out.push(Violation {
                rule: Rule::L3,
                path: rel.to_path_buf(),
                line: *line_no,
                message: format!(
                    "public parameter `{param}: f64` has unit suffix `{suffix}`; \
                     take `{newtype}` from vmtherm-units instead"
                ),
                source: signature.clone(),
            });
        }
        i = j + 1;
    }
}

/// A signature is complete once its parameter list's parentheses balance.
fn signature_complete(sig: &str) -> bool {
    let opens = sig.matches('(').count();
    opens > 0 && opens == sig.matches(')').count()
}

/// Extracts `(name, suffix, newtype)` for every raw `f64` parameter in
/// `signature` whose name carries a unit suffix. `&[f64]` / `Vec<f64>`
/// parameters are bulk data and exempt.
fn raw_unit_params(signature: &str) -> Vec<(String, &'static str, &'static str)> {
    let mut found = Vec::new();
    let Some(open) = signature.find('(') else {
        return found;
    };
    let Some(close) = signature.rfind(')') else {
        return found;
    };
    if close <= open {
        return found;
    }
    let params = &signature[open + 1..close];
    for param in params.split(',') {
        let Some((name_part, ty_part)) = param.split_once(':') else {
            continue;
        };
        let name = name_part.trim().trim_start_matches("mut ").trim();
        let ty = ty_part.trim();
        if ty != "f64" {
            continue;
        }
        for (suffix, newtype) in UNIT_SUFFIXES {
            let matches = if suffix == "utilization" {
                name == "utilization" || name.ends_with("_utilization")
            } else {
                name.ends_with(suffix)
            };
            if matches {
                found.push((name.to_string(), suffix, newtype));
                break;
            }
        }
    }
    found
}

/// L6: `Vec<Vec<f64>>` in public signatures.
///
/// Walks `pub fn` items and methods of `pub trait` blocks (the same
/// signature collection as [`check_unit_newtypes`], so multi-line
/// rustfmt signatures and return types on the closing-paren line are
/// covered) and flags any whose text contains a nested `Vec<Vec<f64>>`.
/// Feature matrices cross these APIs as `DenseMatrix`; the one
/// sanctioned boundary is [`NESTED_MATRIX_BOUNDARY`].
fn check_nested_matrices(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    let lines = SourceLines::non_test(text).lines;
    let mut trait_depth: Option<i64> = None;
    let mut i = 0;
    while i < lines.len() {
        let (line_no, raw, code) = &lines[i];
        let trimmed = code.trim_start();
        let in_pub_trait = trait_depth.is_some();
        if let Some(depth) = trait_depth.as_mut() {
            *depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if *depth <= 0 {
                trait_depth = None;
            }
        } else if trimmed.starts_with("pub trait ") {
            let depth = code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if depth > 0 {
                trait_depth = Some(depth);
            }
            i += 1;
            continue;
        }

        let is_pub_fn = trimmed.starts_with("pub fn ");
        let is_trait_fn = in_pub_trait && trimmed.starts_with("fn ");
        if !(is_pub_fn || is_trait_fn) {
            i += 1;
            continue;
        }
        let mut signature = code.trim().to_string();
        let mut j = i;
        while !signature_complete(&signature) && j + 1 < lines.len() {
            j += 1;
            signature.push(' ');
            signature.push_str(lines[j].2.trim());
        }
        let compact: String = signature.chars().filter(|c| !c.is_whitespace()).collect();
        let (boundary_file, boundary_fn) = NESTED_MATRIX_BOUNDARY;
        let is_boundary = rel == Path::new(boundary_file) && signature.starts_with(boundary_fn);
        if compact.contains("Vec<Vec<f64>>") && !is_boundary {
            out.push(Violation {
                rule: Rule::L6,
                path: rel.to_path_buf(),
                line: *line_no,
                message: "public signature passes a nested `Vec<Vec<f64>>` matrix; \
                          use DenseMatrix (flat, row-major) instead"
                    .to_string(),
                source: (*raw).to_string(),
            });
        }
        i = j + 1;
    }
}

/// L4: float equality on temperatures.
fn check_float_comparisons(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    for (line, raw, code) in &SourceLines::non_test(text).lines {
        for op in ["==", "!="] {
            for (lhs, rhs) in comparison_operands(code, op) {
                if is_temperature_ident(&lhs) || is_temperature_ident(&rhs) {
                    out.push(Violation {
                        rule: Rule::L4,
                        path: rel.to_path_buf(),
                        line: *line,
                        message: format!(
                            "direct float `{op}` on a temperature (`{lhs}` {op} `{rhs}`); \
                             use total_cmp or an epsilon helper"
                        ),
                        source: (*raw).to_string(),
                    });
                }
            }
        }
    }
}

/// Identifier (possibly a field path) immediately left and right of each
/// `op` occurrence.
fn comparison_operands(code: &str, op: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(op) {
        let at = from + pos;
        from = at + op.len();
        // Skip `<=`, `>=`, `=>`, `===`-like neighborhoods.
        if at > 0 && matches!(bytes[at - 1], b'<' | b'>' | b'=' | b'!') && op == "==" {
            continue;
        }
        let lhs: String = code[..at]
            .chars()
            .rev()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        let rhs: String = code[at + op.len()..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        let lhs = lhs.trim().trim_matches('.').to_string();
        let rhs = rhs.trim().trim_matches('.').to_string();
        pairs.push((lhs, rhs));
    }
    pairs
}

/// Whether an operand names a temperature: last path segment ends in
/// `_c` or `_celsius`.
fn is_temperature_ident(ident: &str) -> bool {
    let last = ident.rsplit('.').next().unwrap_or(ident);
    last.ends_with("_c") || last.ends_with("_celsius")
}

/// Parses the ratchet file: the first non-comment, non-blank line must be
/// a single decimal count.
fn parse_ratchet(text: &str) -> Result<usize, String> {
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        return line
            .parse::<usize>()
            .map_err(|_| format!("ratchet line is not a count: {line:?}"));
    }
    Err("ratchet file has no count line".to_string())
}

/// Line numbers (1-based) of the `#[allow(..)]`/`#[expect(..)]`
/// attributes (inner or outer) in `text` that name one of
/// [`PANIC_LINTS`]. An attribute may span lines, as rustfmt wraps it;
/// comments and string contents (a `reason = "…"`) are ignored.
fn panic_exemption_lines(text: &str) -> Vec<usize> {
    let code: Vec<String> = text.lines().map(strip_comment_and_strings).collect();
    attribute_lints(&code, &["#[allow(", "#![allow(", "#[expect(", "#![expect("])
        .into_iter()
        .filter(|(_, lints)| {
            lints
                .iter()
                .any(|lint| PANIC_LINTS.contains(&lint.as_str()))
        })
        .map(|(line, _)| line)
        .collect()
}

/// Every attribute in `code` (lines with comments and string contents
/// stripped) that opens with one of `openers`, as its 1-based line and
/// the lint list up to the parenthesis closing it; an attribute may
/// wrap over several lines.
fn attribute_lints(code: &[String], openers: &[&str]) -> Vec<(usize, Vec<String>)> {
    let mut found = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        let trimmed = line.trim_start();
        let Some(rest) = openers.iter().find_map(|open| trimmed.strip_prefix(open)) else {
            continue;
        };
        let mut lints = String::new();
        let mut depth = 1;
        'scan: for part in std::iter::once(rest).chain(code[idx + 1..].iter().map(String::as_str)) {
            for c in part.chars() {
                depth += match c {
                    '(' => 1,
                    ')' => -1,
                    _ => 0,
                };
                if depth == 0 {
                    break 'scan;
                }
                lints.push(c);
            }
            lints.push(',');
        }
        let lints = lints
            .split(',')
            .map(|lint| lint.trim().to_string())
            .filter(|lint| !lint.is_empty())
            .collect();
        found.push((idx + 1, lints));
    }
    found
}

/// The rule L10 verdict for `sites` (the `path:line` of every exemption
/// attribute) against the pinned count, or `None` when they agree.
fn ratchet_message(sites: &[String], pinned: usize) -> Option<String> {
    let count = sites.len();
    if count > pinned {
        Some(format!(
            "{count} panic-lint exemption attributes but the ratchet pins {pinned}: \
             exemptions may never grow — return a Result instead ({})",
            sites.join(", ")
        ))
    } else if count < pinned {
        Some(format!(
            "ratchet pins {pinned} panic-lint exemption attributes but there are \
             {count}: lower the ratchet to {count} (it may only ever decrease)"
        ))
    } else {
        None
    }
}

/// L10: the count of panic-lint exemption attributes in the panic-free
/// crates equals the checked-in ratchet count — so retiring a vetted site
/// forces the ratchet down and adding one is always a visible diff on
/// both files.
fn check_exemption_ratchet(root: &Path, out: &mut Vec<Violation>) -> Result<(), String> {
    let mut sites = Vec::new();
    scan_crates(root, &PANIC_FREE_CRATES, |rel, text| {
        for line in panic_exemption_lines(text) {
            sites.push(format!("{}:{line}", rel.display()));
        }
    })?;
    let message = match fs::read_to_string(root.join(RATCHET_FILE)) {
        Ok(text) => {
            parse_ratchet(&text).map_or_else(Some, |pinned| ratchet_message(&sites, pinned))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => (!sites.is_empty()).then(|| {
            format!(
                "ratchet file is missing while {} panic-lint exemption attribute(s) \
                 exist; check in {RATCHET_FILE} pinning the count",
                sites.len()
            )
        }),
        Err(e) => return Err(format!("reading {RATCHET_FILE}: {e}")),
    };
    if let Some(message) = message {
        out.push(Violation {
            rule: Rule::L10,
            path: PathBuf::from(RATCHET_FILE),
            line: 0,
            message,
            source: String::new(),
        });
    }
    Ok(())
}

/// L5: paper constants live only in `vmtherm-units` and exactly once.
fn check_paper_constants(root: &Path, out: &mut Vec<Violation>) -> Result<(), String> {
    let units_src = root.join("crates").join("units").join("src");
    let obs_src = root.join("crates").join("obs").join("src");
    let mut unit_defs: Vec<(String, PathBuf, usize)> = Vec::new();
    for dir in crate_dirs(root)? {
        let src = dir.join("src");
        for file in rust_sources(&src)? {
            let rel = relative(root, &file);
            let text = read_source(root, &file)?;
            let in_units = file.starts_with(&units_src);
            let in_obs_names = file == obs_src.join("names.rs");
            for (line, raw, code) in &SourceLines::non_test(&text).lines {
                let Some(name) = const_definition_name(code) else {
                    continue;
                };
                let is_name_const = name.starts_with("METRIC_")
                    || name.starts_with("SPAN_")
                    || name.starts_with("ALERT_");
                if !in_obs_names && is_name_const {
                    out.push(Violation {
                        rule: Rule::L5,
                        path: rel.clone(),
                        line: *line,
                        message: format!(
                            "metric/span/alert name constant `{name}` defined outside \
                             `crates/obs/src/names.rs`, the single definition point"
                        ),
                        source: (*raw).to_string(),
                    });
                    continue;
                }
                let Some(paper) = PAPER_CONSTANT_NAMES.iter().find(|p| name == **p) else {
                    if !in_units && is_paper_constant_alias(&name) {
                        out.push(Violation {
                            rule: Rule::L5,
                            path: rel.clone(),
                            line: *line,
                            message: format!(
                                "`{name}` shadows a paper constant; import it from \
                                 vmtherm_units::constants instead of redefining it"
                            ),
                            source: (*raw).to_string(),
                        });
                    }
                    continue;
                };
                if in_units {
                    unit_defs.push(((*paper).to_string(), rel.clone(), *line));
                } else {
                    out.push(Violation {
                        rule: Rule::L5,
                        path: rel.clone(),
                        line: *line,
                        message: format!(
                            "paper constant `{paper}` redefined outside vmtherm-units"
                        ),
                        source: (*raw).to_string(),
                    });
                }
            }
        }
    }
    for paper in PAPER_CONSTANT_NAMES {
        let defs: Vec<_> = unit_defs.iter().filter(|(n, _, _)| n == paper).collect();
        if defs.is_empty() && units_src.exists() {
            out.push(Violation {
                rule: Rule::L5,
                path: PathBuf::from("crates/units/src"),
                line: 0,
                message: format!("paper constant `{paper}` is not defined in vmtherm-units"),
                source: String::new(),
            });
        }
        for extra in defs.iter().skip(1) {
            out.push(Violation {
                rule: Rule::L5,
                path: extra.1.clone(),
                line: extra.2,
                message: format!("paper constant `{paper}` defined more than once"),
                source: String::new(),
            });
        }
    }
    Ok(())
}

/// If the line defines a `const`, returns its identifier.
fn const_definition_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed
        .strip_prefix("pub const ")
        .or_else(|| trimmed.strip_prefix("pub(crate) const "))
        .or_else(|| trimmed.strip_prefix("const "))?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    // `const fn`, `const N: usize` in generics etc. yield non-screaming
    // names; constants we care about are SCREAMING_SNAKE_CASE.
    if name.is_empty() || name.chars().any(|c| c.is_lowercase()) {
        return None;
    }
    Some(name)
}

/// Names that denote one of the paper's four parameters under a local
/// alias (e.g. `DEFAULT_LAMBDA`, `T_BREAK_SECS`).
fn is_paper_constant_alias(name: &str) -> bool {
    name.contains("LAMBDA")
        || name.contains("T_BREAK")
        || name.contains("DELTA_UPDATE")
        || name.contains("DELTA_GAP")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratchet_parses_counts_comments_and_garbage() {
        assert_eq!(parse_ratchet("# pinned\n19\n"), Ok(19));
        assert_eq!(parse_ratchet("0"), Ok(0));
        assert!(parse_ratchet("nineteen").is_err());
        assert!(parse_ratchet("# only comments\n").is_err());
        assert_eq!(parse_ratchet("# crlf\r\n7\r\n"), Ok(7));
    }

    fn sites(n: usize) -> Vec<String> {
        (1..=n)
            .map(|line| format!("crates/core/src/a.rs:{line}"))
            .collect()
    }

    #[test]
    fn ratchet_passes_at_the_pin() {
        assert_eq!(ratchet_message(&sites(12), 12), None);
        assert_eq!(ratchet_message(&[], 0), None);
    }

    #[test]
    fn ratchet_fails_above_the_pin_and_lists_the_sites() {
        let message = ratchet_message(&sites(13), 12).expect("growth must fail");
        assert!(message.contains("never grow"), "{message}");
        assert!(message.contains("crates/core/src/a.rs:13"), "{message}");
    }

    #[test]
    fn ratchet_fails_below_the_pin() {
        let message = ratchet_message(&sites(11), 12).expect("a stale pin must fail");
        assert!(message.contains("lower the ratchet to 11"), "{message}");
    }

    #[test]
    fn exemption_attributes_are_counted_by_lint_name() {
        let text = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]\n\
             #[expect(clippy::expect_used, reason = \"clippy::unwrap_used in prose\")]\n\
             fn a() {}\n\
             #[allow(\n    clippy::unwrap_used,\n    reason = \"wrapped by rustfmt\"\n)]\n\
             fn b() {}\n\
             #![allow(clippy::panic)]\n\
             #[allow(clippy::panic_in_result_fn, clippy::needless_range_loop)]\n\
             // #[allow(clippy::unwrap_used)] in a comment\n\
             #[must_use]\n";
        assert_eq!(panic_exemption_lines(text), vec![2, 4, 9]);
    }

    #[test]
    fn json_record_escapes_quotes_and_backslashes() {
        let v = Violation {
            rule: Rule::L10,
            path: PathBuf::from("crates/core/src/a.rs"),
            line: 3,
            message: "needle `.expect(\"x\")` is stale".to_string(),
            source: "let p = \"a\\b\";".to_string(),
        };
        let json = v.to_json();
        assert!(json.contains("\"rule\":\"L10\""), "{json}");
        assert!(json.contains("\"line\":3"), "{json}");
        assert!(json.contains("\\\"x\\\""), "{json}");
        assert!(json.contains("\\\\b"), "{json}");
        // Still exactly one object on one line.
        assert!(!json.contains('\n'));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn comments_and_strings_do_not_fire_l4() {
        let text = "// a_c == b_c in prose\nfn f() { let s = \"a_c == b_c\"; }\n";
        let mut out = Vec::new();
        check_float_comparisons(Path::new("x.rs"), text, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(a_c: f64) -> bool { a_c == 1.0 }\n}\n";
        let mut out = Vec::new();
        check_float_comparisons(Path::new("x.rs"), text, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unit_suffix_matcher() {
        let sig = "pub fn observe(&mut self, t_secs: f64, measured_c: f64, raw: &[f64]) -> bool {";
        let hits = raw_unit_params(sig);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, "t_secs");
        assert_eq!(hits[1].0, "measured_c");
    }

    #[test]
    fn newtyped_params_pass() {
        let sig = "pub fn observe(&mut self, t_secs: Seconds, measured_c: Celsius) -> bool {";
        assert!(raw_unit_params(sig).is_empty());
    }

    #[test]
    fn trait_methods_are_public_api() {
        let text = "pub trait P {\n    fn observe(&mut self, t_secs: f64);\n}\n";
        let mut out = Vec::new();
        check_unit_newtypes(Path::new("x.rs"), text, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn nested_matrix_in_multiline_signature_fires() {
        let text = "pub fn train(\n    xs: Vec<Vec<f64>>,\n    ys: &[f64],\n) -> usize {\n    xs.len()\n}\n";
        let mut out = Vec::new();
        check_nested_matrices(Path::new("x.rs"), text, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::L6);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn flat_matrix_signatures_pass() {
        let text = "pub fn train(xs: &DenseMatrix, ys: &[f64]) -> usize {\n    xs.rows()\n}\nfn scratch(xs: Vec<Vec<f64>>) -> usize {\n    xs.len()\n}\n";
        let mut out = Vec::new();
        check_nested_matrices(Path::new("x.rs"), text, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn float_eq_on_temperature_fires() {
        let text = "fn f(a_c: f64, b: f64) { if a_c == b { } }\n";
        let mut out = Vec::new();
        check_float_comparisons(Path::new("x.rs"), text, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::L4);
    }

    #[test]
    fn float_eq_on_plain_floats_is_clippys_job() {
        let text = "fn f(a: f64, b: f64) { if a == b { } }\n";
        let mut out = Vec::new();
        check_float_comparisons(Path::new("x.rs"), text, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn const_name_extraction() {
        assert_eq!(
            const_definition_name("pub const PAPER_LAMBDA: f64 = 0.8;"),
            Some("PAPER_LAMBDA".to_string())
        );
        assert_eq!(const_definition_name("const fn foo() {}"), None);
        assert_eq!(const_definition_name("let x = 1;"), None);
    }
}
