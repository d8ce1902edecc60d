//! Project-specific static analysis for the vmtherm workspace.
//!
//! `cargo run -p xtask -- lint` walks the workspace sources with a
//! dependency-light, line-oriented scanner and enforces the correctness
//! conventions that `rustc`/`clippy` cannot express for us:
//!
//! - **L1** — every workspace crate root carries `#![deny(unsafe_code)]`
//!   or `#![forbid(unsafe_code)]` (L8 escalates the five library crates
//!   to `forbid`) and every crate manifest inherits the shared
//!   `[workspace.lints]` table via `[lints] workspace = true`.
//! - **L2** — no `unwrap()` / `expect()` / `panic!` in non-test library
//!   code of `vmtherm-core`, `vmtherm-svm` and `vmtherm-sim`. Vetted
//!   sites live in the allowlist file (`xtask-lint-allow.txt`) with a
//!   one-line justification each.
//! - **L3** — no raw `f64` temperature/power/duration/utilization
//!   parameters in `pub fn` (or public trait) signatures of
//!   `vmtherm-core` and `vmtherm-sim`; such parameters must use the
//!   `vmtherm-units` newtypes (`Celsius`, `Watts`, `Seconds`,
//!   `Utilization`). Detection is by parameter-name suffix (`_c`,
//!   `_celsius`, `_w`, `_watts`, `_kw`, `_secs`, `_seconds`,
//!   `utilization`); slices and vectors of `f64` are exempt (bulk data,
//!   not single quantities).
//! - **L4** — no direct float `==`/`!=` between temperature-suffixed
//!   operands and no `partial_cmp(..).unwrap()` in `vmtherm-core` /
//!   `vmtherm-sim` library code; use `total_cmp` or epsilon helpers.
//! - **L5** — the paper constants (λ = 0.8, t_break = 600 s, Δ_update,
//!   Δ_gap) are defined exactly once, in `vmtherm-units::constants`,
//!   and imported everywhere else. Likewise metric, span and alert name
//!   constants (`METRIC_*`, `SPAN_*`, `ALERT_*`) live only in
//!   `crates/obs/src/names.rs` — nowhere else, not even elsewhere in
//!   `vmtherm-obs`.
//! - **L6** — no `Vec<Vec<f64>>` in `pub fn` (or public trait)
//!   signatures of `vmtherm-svm` and `vmtherm-core`: feature matrices
//!   cross public APIs as `DenseMatrix` (flat, row-major), keeping the
//!   pipeline on one contiguous allocation. The designated boundary
//!   constructor `DenseMatrix::from_nested` is allowlisted.
//! - **L7** — determinism: library code of `vmtherm-core`,
//!   `vmtherm-sim` and `vmtherm-svm` must not use `HashMap`/`HashSet`
//!   (nondeterministic iteration order), read wall clocks
//!   (`Instant::now`, `SystemTime`), or construct unseeded RNGs
//!   (`thread_rng`, `from_entropy`, `rand::random`, `OsRng`). Use
//!   `BTreeMap`/`BTreeSet` or an explicitly documented sort (via the
//!   allowlist), take time from the simulation clock, and seed every
//!   RNG (`StdRng::seed_from_u64`). Files that use `BinaryHeap` must
//!   also give every local `impl Ord` a single total-order tuple key
//!   (the `(SimTime, server_index)` pattern — `(self.a, self.b)
//!   .cmp(&(other.a, other.b))`): a heap ordered on a partial or
//!   field-by-field key makes pop order depend on insertion history.
//!   `vmtherm-obs`, `vmtherm-bench` and test code are exempt.
//! - **L8** — unsafe hygiene: every library crate root
//!   (`core`/`sim`/`svm`/`units`/`obs`) carries `#![forbid(unsafe_code)]`
//!   (verified by attribute presence), and a workspace-wide token scan
//!   rejects any `unsafe fn`/`unsafe impl`/`unsafe trait`/
//!   `unsafe extern`/`unsafe {` in any crate's sources, test code
//!   included.
//! - **L9** — concurrency discipline: `thread::scope`/`thread::spawn`
//!   in library code of the deterministic crates may only appear in an
//!   allowlisted module whose merge step is *index-addressed* (every
//!   worker keeps results keyed by the job index it claimed and the
//!   merge sorts by it, as `grid.rs` does with its (γ, ε, fold) chains),
//!   so results are independent of thread count and completion order.
//! - **L10** — allowlist ratchet: every entry of `xtask-lint-allow.txt`
//!   must still match a live source line (stale entries fail the
//!   build), and the entry count is pinned by `xtask-lint-ratchet.txt`,
//!   which may only be edited downward — the allowlist can shrink but
//!   never silently grow.
//!
//! The scanner is deliberately line-oriented (no syn/proc-macro
//! dependency): rules are written so that the idioms they police are
//! recognizable on a single logical line, and `#[cfg(test)]` modules are
//! skipped by brace tracking. The false-positive escape hatch is the
//! allowlist, never weakening a rule — and rule L10 guarantees the
//! escape hatch itself only ever narrows.

#![deny(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Crate hygiene: `#![deny(unsafe_code)]` + `[lints] workspace = true`.
    L1,
    /// No `unwrap()`/`expect()`/`panic!` in library code.
    L2,
    /// No raw `f64` unit-suffixed parameters in public signatures.
    L3,
    /// No direct float equality / `partial_cmp().unwrap()` on temperatures.
    L4,
    /// Paper constants defined exactly once (in `vmtherm-units`).
    L5,
    /// No nested `Vec<Vec<f64>>` matrices in public signatures.
    L6,
    /// Determinism: no unordered maps, wall clocks, or unseeded RNG.
    L7,
    /// Unsafe hygiene: `#![forbid(unsafe_code)]` + workspace `unsafe` scan.
    L8,
    /// Concurrency discipline: threads only in index-addressed modules.
    L9,
    /// Allowlist ratchet: entries stay live, count only decreases.
    L10,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::L8 => "L8",
            Rule::L9 => "L9",
            Rule::L10 => "L10",
        };
        f.write_str(name)
    }
}

/// One finding: a rule fired at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// 1-based line number; 0 for file-level findings (e.g. a missing
    /// attribute).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The offending source line, when there is one (allowlist matching
    /// runs against this).
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

/// One allowlist entry: suppresses violations of `rule` in `path` whose
/// source line contains `needle`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule the entry applies to.
    pub rule: Rule,
    /// Workspace-relative path the entry applies to.
    pub path: PathBuf,
    /// Substring of the offending source line.
    pub needle: String,
    /// Why the site is acceptable (kept for the report, not matching).
    pub justification: String,
}

/// The parsed allowlist file.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the `rule | path | needle | justification` format.
    /// Blank lines and `#` comments are skipped. Malformed lines are
    /// reported as errors so typos cannot silently allow everything.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
            if parts.len() != 4 {
                return Err(format!(
                    "allowlist line {}: expected `rule | path | needle | justification`, got {:?}",
                    idx + 1,
                    raw
                ));
            }
            let rule = match parts[0] {
                "L1" => Rule::L1,
                "L2" => Rule::L2,
                "L3" => Rule::L3,
                "L4" => Rule::L4,
                "L5" => Rule::L5,
                "L6" => Rule::L6,
                "L7" => Rule::L7,
                "L8" => Rule::L8,
                "L9" => Rule::L9,
                "L10" => Rule::L10,
                other => {
                    return Err(format!(
                        "allowlist line {}: unknown rule {other:?}",
                        idx + 1
                    ))
                }
            };
            if parts[2].is_empty() {
                return Err(format!("allowlist line {}: empty needle", idx + 1));
            }
            entries.push(AllowEntry {
                rule,
                path: PathBuf::from(parts[1]),
                needle: parts[2].to_string(),
                justification: parts[3].to_string(),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Loads the allowlist from a file; a missing file is an empty list.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Whether a violation is covered by some entry.
    #[must_use]
    pub fn covers(&self, v: &Violation) -> bool {
        self.entries.iter().any(|e| {
            e.rule == v.rule
                && e.path == v.path
                && !v.source.is_empty()
                && v.source.contains(&e.needle)
        })
    }

    /// The parsed entries, in file order (rule L10 checks each is live).
    #[must_use]
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Crates whose library code must be panic-free (rule L2).
const PANIC_FREE_CRATES: [&str; 4] = ["core", "svm", "sim", "obs"];

/// Crates whose public signatures must use unit newtypes (rules L3, L4).
const UNIT_SAFE_CRATES: [&str; 2] = ["core", "sim"];

/// Crates whose public signatures must pass feature matrices as
/// `DenseMatrix`, never `Vec<Vec<f64>>` (rule L6).
const MATRIX_SAFE_CRATES: [&str; 2] = ["svm", "core"];

/// Crates whose library code must be replay-deterministic (rules L7, L9):
/// results depend only on inputs and seeds, never on hash order, wall
/// clocks, OS entropy, or thread scheduling. `obs` (timers are its job)
/// and `bench` are exempt.
const DETERMINISTIC_CRATES: [&str; 3] = ["core", "sim", "svm"];

/// Library crates whose root must carry `#![forbid(unsafe_code)]`
/// (rule L8). Binaries and tooling keep the `deny` floor from L1.
const FORBID_UNSAFE_CRATES: [&str; 5] = ["core", "sim", "svm", "units", "obs"];

/// The only library modules allowed to spawn threads (rule L9). Each must
/// merge worker results through index-addressed slots — every worker
/// writes its outcome keyed by the input index it claimed — so the merged
/// output is identical for any thread count and completion order.
const CONCURRENCY_ALLOWED_MODULES: [&str; 2] =
    ["crates/svm/src/grid.rs", "crates/sim/src/shard.rs"];

/// Workspace-root file pinning the allowlist entry count (rule L10).
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
/// violations not covered by `allow`, sorted by rule then path then line.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    check_crate_hygiene(root, &mut violations)?;
    for name in PANIC_FREE_CRATES {
        for file in rust_sources(&root.join("crates").join(name).join("src"))? {
            let text = read_source(root, &file)?;
            let rel = relative(root, &file);
            check_no_panics(&rel, &text, &mut violations);
        }
    }
    for name in UNIT_SAFE_CRATES {
        for file in rust_sources(&root.join("crates").join(name).join("src"))? {
            let text = read_source(root, &file)?;
            let rel = relative(root, &file);
            check_unit_newtypes(&rel, &text, &mut violations);
            check_float_comparisons(&rel, &text, &mut violations);
        }
    }
    for name in MATRIX_SAFE_CRATES {
        for file in rust_sources(&root.join("crates").join(name).join("src"))? {
            let text = read_source(root, &file)?;
            let rel = relative(root, &file);
            check_nested_matrices(&rel, &text, &mut violations);
        }
    }
    check_paper_constants(root, &mut violations)?;
    for name in DETERMINISTIC_CRATES {
        for file in rust_sources(&root.join("crates").join(name).join("src"))? {
            let text = read_source(root, &file)?;
            let rel = relative(root, &file);
            check_determinism(&rel, &text, &mut violations);
            check_concurrency(&rel, &text, &mut violations);
        }
    }
    check_unsafe_hygiene(root, &mut violations)?;
    check_allowlist_ratchet(root, allow, &mut violations);
    violations.retain(|v| !allow.covers(v));
    violations.sort_by(|a, b| {
        (a.rule as u8)
            .cmp(&(b.rule as u8))
            .then(a.path.cmp(&b.path))
            .then(a.line.cmp(&b.line))
    });
    Ok(violations)
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

/// L1: crate roots deny unsafe code and manifests inherit workspace lints.
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
        for name in ["lib.rs", "main.rs"] {
            let crate_root = dir.join("src").join(name);
            if !crate_root.exists() {
                continue;
            }
            let text = read_source(root, &crate_root)?;
            if !text.lines().any(|l| {
                let t = l.trim();
                t == "#![deny(unsafe_code)]" || t == "#![forbid(unsafe_code)]"
            }) {
                out.push(Violation {
                    rule: Rule::L1,
                    path: relative(root, &crate_root),
                    line: 0,
                    message: "crate root is missing `#![deny(unsafe_code)]` \
                              (or the stronger `#![forbid(unsafe_code)]`)"
                        .to_string(),
                    source: String::new(),
                });
            }
        }
    }
    Ok(())
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
/// off signature/call lines, and the allowlist covers any residue.
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

/// L2: panic-free library code.
fn check_no_panics(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    for (line, raw, code) in &SourceLines::non_test(text).lines {
        for (needle, what) in [
            (".unwrap()", "unwrap()"),
            (".expect(", "expect()"),
            ("panic!(", "panic!"),
        ] {
            if code.contains(needle) {
                out.push(Violation {
                    rule: Rule::L2,
                    path: rel.to_path_buf(),
                    line: *line,
                    message: format!(
                        "{what} in library code; return a Result or add an allowlist entry"
                    ),
                    source: (*raw).to_string(),
                });
            }
        }
    }
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
/// Feature matrices cross these APIs as `DenseMatrix`; the allowlist
/// carries the one sanctioned boundary (`DenseMatrix::from_nested`).
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
        if compact.contains("Vec<Vec<f64>>") {
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

/// L4: float equality / `partial_cmp().unwrap()` on temperatures.
fn check_float_comparisons(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    for (line, raw, code) in &SourceLines::non_test(text).lines {
        if code.contains(".partial_cmp(") && code.contains(".unwrap()") {
            out.push(Violation {
                rule: Rule::L4,
                path: rel.to_path_buf(),
                line: *line,
                message: "partial_cmp().unwrap() panics on NaN; use total_cmp".to_string(),
                source: (*raw).to_string(),
            });
        }
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

/// The `(needle, message)` pairs rule L7 scans deterministic library
/// code for. Each names an idiom whose output depends on something other
/// than inputs and seeds.
const DETERMINISM_BANS: [(&str, &str); 8] = [
    (
        "HashMap",
        "HashMap iteration order is nondeterministic; use BTreeMap, or sort \
         the keys explicitly and allowlist the documented sort",
    ),
    (
        "HashSet",
        "HashSet iteration order is nondeterministic; use BTreeSet, or sort \
         the elements explicitly and allowlist the documented sort",
    ),
    (
        "Instant::now",
        "wall-clock read in library code; take time from the simulation \
         clock or the caller so runs replay bit-identically",
    ),
    (
        "SystemTime",
        "wall-clock read in library code; take time from the simulation \
         clock or the caller so runs replay bit-identically",
    ),
    (
        "thread_rng",
        "unseeded RNG; construct from an explicit seed \
         (StdRng::seed_from_u64) so runs are reproducible",
    ),
    (
        "from_entropy",
        "OS-entropy RNG; construct from an explicit seed \
         (StdRng::seed_from_u64) so runs are reproducible",
    ),
    (
        "rand::random",
        "unseeded RNG; construct from an explicit seed \
         (StdRng::seed_from_u64) so runs are reproducible",
    ),
    (
        "OsRng",
        "OS-entropy RNG; construct from an explicit seed \
         (StdRng::seed_from_u64) so runs are reproducible",
    ),
];

/// The tuple-compare idiom every heap-feeding `Ord` must use: one
/// composite tuple key, total by construction, as in
/// `(self.at, self.seq).cmp(&(other.at, other.seq))`.
const HEAP_TUPLE_CMP: &str = ".cmp(&(";

/// How many lines after `impl Ord for` the tuple compare must appear —
/// generous enough for a rustfmt-wrapped `fn cmp`, tight enough that a
/// later unrelated compare cannot vouch for a field-by-field ordering.
const HEAP_ORD_WINDOW: usize = 10;

/// L7: deterministic library code — no unordered-map iteration, wall
/// clocks, or unseeded RNG in the deterministic crates; and in files
/// that feed a `BinaryHeap`, every local `Ord` must compare a single
/// total-order tuple key (see [`HEAP_TUPLE_CMP`]).
fn check_determinism(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    let source = SourceLines::non_test(text);
    for (line, raw, code) in &source.lines {
        for (needle, message) in DETERMINISM_BANS {
            if code.contains(needle) {
                out.push(Violation {
                    rule: Rule::L7,
                    path: rel.to_path_buf(),
                    line: *line,
                    message: message.to_string(),
                    source: (*raw).to_string(),
                });
            }
        }
    }
    // Heap-ordering discipline is file-scoped: an `Ord` in a file with no
    // heap cannot reorder pops, and a heap over std tuples (which already
    // compare lexicographically) needs no local impl at all.
    if !source
        .lines
        .iter()
        .any(|(_, _, c)| c.contains("BinaryHeap"))
    {
        return;
    }
    for (i, (line, raw, code)) in source.lines.iter().enumerate() {
        if !code.contains("impl Ord for") {
            continue;
        }
        let window_end = source.lines.len().min(i + 1 + HEAP_ORD_WINDOW);
        let has_tuple_key = source.lines[i..window_end]
            .iter()
            .any(|(_, _, c)| c.contains(HEAP_TUPLE_CMP));
        if !has_tuple_key {
            out.push(Violation {
                rule: Rule::L7,
                path: rel.to_path_buf(),
                line: *line,
                message: format!(
                    "`impl Ord` in a file that feeds a BinaryHeap must compare one \
                     total-order tuple key — `(self.a, self.b){HEAP_TUPLE_CMP}other.a, \
                     other.b))`, the (SimTime, server_index) pattern — within \
                     {HEAP_ORD_WINDOW} lines; field-by-field or partial comparisons \
                     make pop order depend on insertion history"
                ),
                source: (*raw).to_string(),
            });
        }
    }
}

/// L9: threads only in the allowlisted index-addressed-merge modules.
fn check_concurrency(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    if CONCURRENCY_ALLOWED_MODULES
        .iter()
        .any(|m| rel == Path::new(m))
    {
        return;
    }
    for (line, raw, code) in &SourceLines::non_test(text).lines {
        for needle in ["thread::scope(", "thread::spawn(", "scope.spawn("] {
            if code.contains(needle) {
                out.push(Violation {
                    rule: Rule::L9,
                    path: rel.to_path_buf(),
                    line: *line,
                    message: format!(
                        "`{needle}..)` outside the allowlisted concurrency modules \
                         ({CONCURRENCY_ALLOWED_MODULES:?}); library threading must \
                         merge results through index-addressed slots so outcomes \
                         are independent of completion order"
                    ),
                    source: (*raw).to_string(),
                });
            }
        }
    }
}

/// L8: library crate roots forbid unsafe code, and no crate's sources —
/// test code included — contain an `unsafe` item or block.
fn check_unsafe_hygiene(root: &Path, out: &mut Vec<Violation>) -> Result<(), String> {
    for name in FORBID_UNSAFE_CRATES {
        let crate_root = root.join("crates").join(name).join("src").join("lib.rs");
        if !crate_root.exists() {
            continue;
        }
        let text = read_source(root, &crate_root)?;
        if !text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") {
            out.push(Violation {
                rule: Rule::L8,
                path: relative(root, &crate_root),
                line: 0,
                message: "library crate root is missing `#![forbid(unsafe_code)]` \
                          (deny is not enough: forbid cannot be overridden locally)"
                    .to_string(),
                source: String::new(),
            });
        }
    }
    for dir in crate_dirs(root)? {
        for file in rust_sources(&dir.join("src"))? {
            let rel = relative(root, &file);
            let text = read_source(root, &file)?;
            for (idx, raw) in text.lines().enumerate() {
                let code = strip_comment_and_strings(raw);
                for needle in [
                    "unsafe fn",
                    "unsafe impl",
                    "unsafe trait",
                    "unsafe extern",
                    "unsafe {",
                ] {
                    if code.contains(needle) {
                        out.push(Violation {
                            rule: Rule::L8,
                            path: rel.clone(),
                            line: idx + 1,
                            message: format!(
                                "`{needle}` in workspace sources; the vmtherm \
                                 workspace is 100% safe Rust"
                            ),
                            source: raw.to_string(),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Parses the ratchet file: the first non-comment, non-blank line must be
/// a single decimal entry count.
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

/// L10: every allowlist entry still matches a live source line, and the
/// checked-in ratchet count equals the entry count — so retiring an entry
/// forces the ratchet down and adding one is always a visible diff on
/// both files.
fn check_allowlist_ratchet(root: &Path, allow: &Allowlist, out: &mut Vec<Violation>) {
    for entry in allow.entries() {
        let live = fs::read_to_string(root.join(&entry.path))
            .map(|text| text.lines().any(|l| l.contains(&entry.needle)))
            .unwrap_or(false);
        if !live {
            out.push(Violation {
                rule: Rule::L10,
                path: entry.path.clone(),
                line: 0,
                message: format!(
                    "stale allowlist entry `{} | {} | {}`: no source line matches \
                     the needle any more; delete the entry and lower the ratchet",
                    entry.rule,
                    entry.path.display(),
                    entry.needle
                ),
                source: String::new(),
            });
        }
    }
    let ratchet_path = root.join(RATCHET_FILE);
    let ratchet = match fs::read_to_string(&ratchet_path) {
        Ok(text) => match parse_ratchet(&text) {
            Ok(count) => count,
            Err(e) => {
                out.push(Violation {
                    rule: Rule::L10,
                    path: PathBuf::from(RATCHET_FILE),
                    line: 0,
                    message: e,
                    source: String::new(),
                });
                return;
            }
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            if !allow.is_empty() {
                out.push(Violation {
                    rule: Rule::L10,
                    path: PathBuf::from(RATCHET_FILE),
                    line: 0,
                    message: format!(
                        "ratchet file is missing while the allowlist has {} \
                         entr{}; check in {RATCHET_FILE} pinning the count",
                        allow.len(),
                        if allow.len() == 1 { "y" } else { "ies" }
                    ),
                    source: String::new(),
                });
            }
            return;
        }
        Err(e) => {
            out.push(Violation {
                rule: Rule::L10,
                path: PathBuf::from(RATCHET_FILE),
                line: 0,
                message: format!("reading {}: {e}", ratchet_path.display()),
                source: String::new(),
            });
            return;
        }
    };
    if allow.len() > ratchet {
        out.push(Violation {
            rule: Rule::L10,
            path: PathBuf::from(RATCHET_FILE),
            line: 0,
            message: format!(
                "allowlist has {} entries but the ratchet pins {ratchet}: the \
                 allowlist may never grow — fix the code instead of allowlisting it",
                allow.len()
            ),
            source: String::new(),
        });
    } else if allow.len() < ratchet {
        out.push(Violation {
            rule: Rule::L10,
            path: PathBuf::from(RATCHET_FILE),
            line: 0,
            message: format!(
                "ratchet pins {ratchet} entries but the allowlist has {}: lower \
                 the ratchet to {} (it may only ever decrease)",
                allow.len(),
                allow.len()
            ),
            source: String::new(),
        });
    }
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
    fn allowlist_parses_and_matches() {
        let text = "# comment\nL2 | crates/core/src/a.rs | .unwrap() | vetted\n";
        let allow = Allowlist::parse(text).expect("parse");
        assert_eq!(allow.len(), 1);
        let v = Violation {
            rule: Rule::L2,
            path: PathBuf::from("crates/core/src/a.rs"),
            line: 3,
            message: String::new(),
            source: "let x = y.unwrap();".to_string(),
        };
        assert!(allow.covers(&v));
        let other = Violation {
            path: PathBuf::from("crates/core/src/b.rs"),
            ..v
        };
        assert!(!allow.covers(&other));
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("L2 | missing fields").is_err());
        assert!(Allowlist::parse("L99 | a | b | c").is_err());
        assert!(Allowlist::parse("L2 | a |  | empty needle").is_err());
    }

    #[test]
    fn allowlist_parses_new_rule_tags() {
        let text = "L7 | a.rs | HashMap | sorted below\nL9 | b.rs | thread::scope | indexed\n";
        let allow = Allowlist::parse(text).expect("parse");
        assert_eq!(allow.len(), 2);
        assert_eq!(allow.entries()[0].rule, Rule::L7);
        assert_eq!(allow.entries()[1].rule, Rule::L9);
    }

    #[test]
    fn allowlist_handles_crlf_and_comment_lines() {
        let text = "# leading comment\r\n\r\nL2 | crates/core/src/a.rs | .unwrap() | vetted\r\n";
        let allow = Allowlist::parse(text).expect("CRLF allowlist must parse");
        assert_eq!(allow.len(), 1);
        let e = &allow.entries()[0];
        assert_eq!(e.needle, ".unwrap()");
        assert_eq!(e.justification, "vetted");
        let v = Violation {
            rule: Rule::L2,
            path: PathBuf::from("crates/core/src/a.rs"),
            line: 1,
            message: String::new(),
            source: "x.unwrap();".to_string(),
        };
        assert!(allow.covers(&v));
    }

    #[test]
    fn ratchet_parses_counts_comments_and_garbage() {
        assert_eq!(parse_ratchet("# pinned\n19\n"), Ok(19));
        assert_eq!(parse_ratchet("0"), Ok(0));
        assert!(parse_ratchet("nineteen").is_err());
        assert!(parse_ratchet("# only comments\n").is_err());
        assert_eq!(parse_ratchet("# crlf\r\n7\r\n"), Ok(7));
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
    fn determinism_bans_fire_outside_tests_only() {
        let text = "use std::collections::HashMap;\nfn f() { let _ = std::time::Instant::now(); }\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let mut out = Vec::new();
        check_determinism(Path::new("x.rs"), text, &mut out);
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out.iter().all(|v| v.rule == Rule::L7));
    }

    #[test]
    fn heap_ord_requires_a_tuple_key_only_next_to_a_heap() {
        let field_by_field = "use std::collections::BinaryHeap;\n\
             struct S { at: u64, seq: u64 }\n\
             impl Ord for S {\n\
             \tfn cmp(&self, other: &Self) -> std::cmp::Ordering {\n\
             \t\tself.at.cmp(&other.at)\n\
             \t}\n\
             }\n";
        let mut out = Vec::new();
        check_determinism(Path::new("x.rs"), field_by_field, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::L7);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("tuple key"), "{out:#?}");

        let tuple_key = field_by_field.replace(
            "self.at.cmp(&other.at)",
            "(self.at, self.seq).cmp(&(other.at, other.seq))",
        );
        out.clear();
        check_determinism(Path::new("x.rs"), &tuple_key, &mut out);
        assert!(out.is_empty(), "{out:#?}");

        // The same field-by-field Ord in a heap-free file is fine.
        let no_heap = field_by_field.replace("use std::collections::BinaryHeap;\n", "");
        out.clear();
        check_determinism(Path::new("x.rs"), &no_heap, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn concurrency_check_skips_allowlisted_modules() {
        let text = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let mut out = Vec::new();
        check_concurrency(Path::new("crates/svm/src/grid.rs"), text, &mut out);
        assert!(out.is_empty(), "{out:#?}");
        check_concurrency(Path::new("crates/core/src/anything.rs"), text, &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire_l2() {
        let text = "// calls .unwrap() in prose\nfn f() { let s = \".unwrap()\"; }\n";
        let mut out = Vec::new();
        check_no_panics(Path::new("x.rs"), text, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let mut out = Vec::new();
        check_no_panics(Path::new("x.rs"), text, &mut out);
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
