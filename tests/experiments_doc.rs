//! EXPERIMENTS.md's Fig. 1 tables are hand-copied from the figure
//! binaries. `vmbench/goldens.txt` pins the same numbers bit for bit at
//! seed 42, so these tests read both files and check that each Fig. 1
//! table still shows the pinned value to the three decimals it prints.
//! A hand edit that drifts from the pins fails here.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The pinned f64 of `key` in the goldens file, decoded from its
/// `0x<bits>` field.
fn golden(goldens: &str, key: &str) -> f64 {
    let line = goldens
        .lines()
        .find(|l| l.split_whitespace().next() == Some(key))
        .unwrap_or_else(|| panic!("no `{key}` in vmbench/goldens.txt"));
    let hex = line
        .split_whitespace()
        .nth(1)
        .and_then(|field| field.strip_prefix("0x"))
        .unwrap_or_else(|| panic!("`{key}` has no 0x field: {line}"));
    let bits = u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("`{key}`: {e}"));
    f64::from_bits(bits)
}

/// The text of the EXPERIMENTS.md section whose heading starts with
/// `heading`, up to the next `## ` heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("no `{heading}` section in EXPERIMENTS.md"));
    let body = &doc[start + heading.len()..];
    &body[..body.find("\n## ").unwrap_or(body.len())]
}

/// The last cell (the measured column) of the table row labelled `label`.
fn measured_cell<'a>(section: &'a str, label: &str) -> &'a str {
    let prefix = format!("| {label} |");
    let row = section
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no `{label}` row"));
    row.trim_end_matches('|')
        .rsplit('|')
        .next()
        .unwrap_or_default()
        .trim()
}

/// `true` when `cell` contains `value` as a whole number, not as part of a
/// longer one (so `0.257` does not match `0.2571` or `10.257`).
fn shows(cell: &str, value: &str) -> bool {
    cell.match_indices(value).any(|(at, _)| {
        let before = cell[..at].chars().next_back();
        let after = cell[at + value.len()..].chars().next();
        !before.is_some_and(|c| c.is_ascii_digit() || c == '.')
            && !after.is_some_and(|c| c.is_ascii_digit())
    })
}

/// Asserts each `(row label, goldens key)` pair of one Fig. 1 section.
fn check(heading: &str, rows: &[(&str, &str)]) {
    let goldens = read("vmbench/goldens.txt");
    let doc = read("EXPERIMENTS.md");
    let section = section(&doc, heading);
    for (label, key) in rows {
        let want = format!("{:.3}", golden(&goldens, key));
        let cell = measured_cell(section, label);
        assert!(
            shows(cell, &want),
            "EXPERIMENTS.md `{heading}` row `{label}` shows `{cell}`, but {key} is {want}"
        );
    }
}

#[test]
fn fig1a_table_shows_the_pinned_goldens() {
    check(
        "## Fig. 1(a)",
        &[
            ("Average MSE over 20 cases", "paper-train.stable_mse"),
            ("Grid-search CV MSE", "paper-train.cv_mse"),
        ],
    );
}

#[test]
fn fig1b_table_shows_the_pinned_goldens() {
    check(
        "## Fig. 1(b)",
        &[
            ("With calibration", "paper-fast.fig1b_calibrated"),
            ("Without calibration", "paper-fast.fig1b_uncalibrated"),
        ],
    );
}

#[test]
fn fig1c_table_shows_the_pinned_goldens() {
    check(
        "## Fig. 1(c)",
        &[
            ("Grid MSE range", "paper-fast.fig1c_min"),
            ("Grid MSE range", "paper-fast.fig1c_max"),
        ],
    );
}

#[test]
fn shows_matches_whole_numbers_only() {
    assert!(shows("**0.257**", "0.257"));
    assert!(shows("0.475 – 2.010", "2.010"));
    assert!(!shows("0.2571", "0.257"));
    assert!(!shows("10.257", "0.257"));
}
