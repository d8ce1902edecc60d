//! Fixture tests for the lint rules: each seeded fixture must trip its
//! rule at the right path and line, the clean fixture must pass, and the
//! `xtask lint` binary must turn findings into a non-zero exit code.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::{lint_workspace, Rule, Violation};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Violation> {
    lint_workspace(&fixture(name)).expect("lint run")
}

/// Runs the real binary against a fixture and returns its exit success.
fn binary_passes(name: &str) -> bool {
    let status = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(fixture(name))
        .status()
        .expect("spawn xtask");
    status.success()
}

fn find<'a>(violations: &'a [Violation], rule: Rule, path: &str, line: usize) -> &'a Violation {
    violations
        .iter()
        .find(|v| v.rule == rule && v.path == Path::new(path) && v.line == line)
        .unwrap_or_else(|| panic!("no {rule:?} violation at {path}:{line} in {violations:#?}"))
}

#[test]
fn clean_fixture_passes() {
    let violations = lint_fixture("clean");
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(binary_passes("clean"));
}

#[test]
fn l1_missing_hygiene_fires() {
    let violations = lint_fixture("l1_hygiene");
    find(&violations, Rule::L1, "Cargo.toml", 0);
    assert_eq!(violations.len(), 1, "{violations:#?}");
    assert!(!binary_passes("l1_hygiene"));
}

#[test]
fn l1_missing_root_denies_fire() {
    // sim's panic deny is commented out and core denies only one of the
    // two determinism bans; obs forbids the panic lints, which passes.
    let violations = lint_fixture("l1_root_denies");
    let sim = find(&violations, Rule::L1, "crates/sim/src/lib.rs", 0);
    assert!(
        sim.message
            .contains("clippy::unwrap_used, clippy::expect_used, clippy::panic"),
        "{sim:#?}"
    );
    let core = find(&violations, Rule::L1, "crates/core/src/lib.rs", 0);
    assert!(
        core.message
            .contains("deny clippy::disallowed_methods (add"),
        "{core:#?}"
    );
    assert_eq!(violations.len(), 2, "{violations:#?}");
    assert!(!binary_passes("l1_root_denies"));
}

#[test]
fn l1_missing_clippy_bans_fire() {
    // sim denies both determinism lints, but clippy.toml's heap entry is
    // commented out, so clippy would accept a BinaryHeap there.
    let violations = lint_fixture("l1_clippy_bans");
    let config = find(&violations, Rule::L1, "clippy.toml", 0);
    assert!(
        config
            .message
            .contains("does not list std::collections::BinaryHeap;"),
        "{config:#?}"
    );
    assert_eq!(violations.len(), 1, "{violations:#?}");
    assert!(!binary_passes("l1_clippy_bans"));
}

#[test]
fn l3_raw_unit_parameters_fire() {
    let violations = lint_fixture("l3_raw_units");
    let inherent = find(&violations, Rule::L3, "crates/core/src/lib.rs", 6);
    assert!(
        inherent.message.contains("ambient_c") && inherent.message.contains("Celsius"),
        "{inherent:#?}"
    );
    let trait_fn = find(&violations, Rule::L3, "crates/core/src/lib.rs", 12);
    assert!(
        trait_fn.message.contains("t_secs") && trait_fn.message.contains("Seconds"),
        "{trait_fn:#?}"
    );
    // `series: &[f64]` is bulk data, not a single quantity.
    let l3: Vec<_> = violations.iter().filter(|v| v.rule == Rule::L3).collect();
    assert_eq!(l3.len(), 2, "{l3:#?}");
    assert!(!binary_passes("l3_raw_units"));
}

#[test]
fn l4_float_comparisons_fire() {
    let violations = lint_fixture("l4_float_cmp");
    let eq = find(&violations, Rule::L4, "crates/sim/src/lib.rs", 4);
    assert!(eq.message.contains("a_c"), "{eq:#?}");
    // `partial_cmp(..).unwrap()` is clippy::unwrap_used's to deny.
    let l4: Vec<_> = violations.iter().filter(|v| v.rule == Rule::L4).collect();
    assert_eq!(l4.len(), 1, "{l4:#?}");
    assert!(!binary_passes("l4_float_cmp"));
}

#[test]
fn l5_constant_redefinitions_fire() {
    let violations = lint_fixture("l5_constants");
    let redef = find(&violations, Rule::L5, "crates/core/src/lib.rs", 3);
    assert!(redef.message.contains("PAPER_LAMBDA"), "{redef:#?}");
    let alias = find(&violations, Rule::L5, "crates/core/src/lib.rs", 5);
    assert!(alias.message.contains("DEFAULT_LAMBDA"), "{alias:#?}");
    assert_eq!(violations.len(), 2, "{violations:#?}");
    assert!(!binary_passes("l5_constants"));
}

#[test]
fn l5_metric_names_outside_obs_fire() {
    let violations = lint_fixture("l5_metrics");
    let metric = find(&violations, Rule::L5, "crates/sim/src/lib.rs", 3);
    assert!(
        metric.message.contains("METRIC_LOCAL_STEPS") && metric.message.contains("names.rs"),
        "{metric:#?}"
    );
    let span = find(&violations, Rule::L5, "crates/sim/src/lib.rs", 5);
    assert!(span.message.contains("SPAN_LOCAL"), "{span:#?}");
    let alert = find(&violations, Rule::L5, "crates/sim/src/lib.rs", 7);
    assert!(alert.message.contains("ALERT_LOCAL_FIRED"), "{alert:#?}");
    // Even inside vmtherm-obs, only names.rs may define name constants.
    let in_obs = find(&violations, Rule::L5, "crates/obs/src/lib.rs", 5);
    assert!(in_obs.message.contains("METRIC_OBS_SIDE"), "{in_obs:#?}");
    // The definitions in crates/obs/src/names.rs are the canonical ones.
    assert_eq!(violations.len(), 4, "{violations:#?}");
    assert!(!binary_passes("l5_metrics"));
}

#[test]
fn l6_nested_matrix_signatures_fire() {
    let violations = lint_fixture("l6_matrix");
    // A pub fn parameter, a multi-line rustfmt signature, a pub trait
    // method return, and a `from_nested` outside crates/svm/src/matrix.rs
    // must all fire.
    find(&violations, Rule::L6, "crates/svm/src/lib.rs", 5);
    find(&violations, Rule::L6, "crates/svm/src/lib.rs", 10);
    find(&violations, Rule::L6, "crates/svm/src/lib.rs", 19);
    find(&violations, Rule::L6, "crates/svm/src/lib.rs", 23);
    // Private helpers, test modules, and &DenseMatrix signatures must not fire.
    assert_eq!(violations.len(), 4, "{violations:#?}");
    assert!(!binary_passes("l6_matrix"));
}

#[test]
fn l6_allowlist_covers_the_boundary_constructor() {
    // The rule names its one exemption itself: `from_nested` in
    // crates/svm/src/matrix.rs passes, the same signature elsewhere fires.
    let violations = lint_fixture("l6_matrix");
    assert!(
        !violations
            .iter()
            .any(|v| v.path == Path::new("crates/svm/src/matrix.rs")),
        "{violations:#?}"
    );
    let elsewhere = find(&violations, Rule::L6, "crates/svm/src/lib.rs", 23);
    assert!(
        elsewhere.source.contains("pub fn from_nested"),
        "{elsewhere:#?}"
    );
}

#[test]
fn l10_ratchet_growth_fires() {
    // Three exemption attributes (one wrapped over four lines) against a
    // pin of two; the crate-root `deny` is not an exemption.
    let violations = lint_fixture("l10_ratchet");
    let ratchet = find(&violations, Rule::L10, "xtask-lint-ratchet.txt", 0);
    assert!(ratchet.message.contains("never grow"), "{ratchet:#?}");
    for line in [4, 10, 18] {
        let site = format!("crates/core/src/lib.rs:{line}");
        assert!(ratchet.message.contains(&site), "{site}: {ratchet:#?}");
    }
    assert_eq!(violations.len(), 1, "{violations:#?}");
    assert!(!binary_passes("l10_ratchet"));
}

#[test]
fn json_output_emits_one_record_per_finding() {
    let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--json", "--root"])
        .arg(fixture("l5_metrics"))
        .output()
        .expect("spawn xtask");
    assert!(!output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let records: Vec<&str> = stdout.lines().collect();
    assert_eq!(records.len(), 4, "{stdout}");
    for record in &records {
        assert!(record.starts_with('{') && record.ends_with('}'), "{record}");
        assert!(record.contains("\"rule\":\"L5\""), "{record}");
        assert!(record.contains("\"path\":\""), "{record}");
        assert!(record.contains("\"line\":"), "{record}");
        assert!(record.contains("\"message\":\""), "{record}");
    }
    // Source lines with quotes must be escaped, never break the record format.
    assert!(stdout.contains("\\\"local_span\\\""), "{stdout}");
}

#[test]
fn workspace_itself_is_clean() {
    // The real repo (two levels up from crates/xtask) must lint clean —
    // the same invariant CI enforces.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let violations = lint_workspace(root).expect("lint run");
    assert!(violations.is_empty(), "{violations:#?}");
}
