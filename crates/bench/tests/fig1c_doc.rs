//! EXPERIMENTS.md's Fig. 1(c) grid is copied by hand from the `fig1c`
//! binary. This test recomputes the grid and checks that each of the 20
//! cells shows the computed MSE to the three decimals `fig1c` prints, and
//! that the trend claims beside the table hold for the computed values.

use std::path::Path;
use vmtherm_bench::{fig1c_grid, FIG1C_GAPS, FIG1C_UPDATES};

/// The Fig. 1(c) section of EXPERIMENTS.md, up to the next `## ` heading.
fn fig1c_section() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let heading = "## Fig. 1(c)";
    let start = doc.find(heading).expect("no Fig. 1(c) section");
    let body = &doc[start + heading.len()..];
    body[..body.find("\n## ").unwrap_or(body.len())].to_string()
}

/// The cells after the label of the table row whose first cell is `label`.
fn row_cells<'a>(section: &'a str, label: &str) -> Vec<&'a str> {
    let line = section
        .lines()
        .find(|l| l.split('|').nth(1).map(str::trim) == Some(label))
        .unwrap_or_else(|| panic!("no `{label}` row in the Fig. 1(c) section"));
    let cells: Vec<&str> = line
        .trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect();
    cells[1..].to_vec()
}

#[test]
fn fig1c_doc_matches_the_computed_grid() {
    let grid = fig1c_grid();
    let section = fig1c_section();

    let header = row_cells(&section, "gap \\ update");
    let want_header: Vec<String> = FIG1C_UPDATES.iter().map(|u| format!("{u} s")).collect();
    assert_eq!(header, want_header, "column headers");
    for (gap, row) in FIG1C_GAPS.iter().zip(&grid) {
        let label = format!("{gap} s");
        let shown = row_cells(&section, &label);
        let want: Vec<String> = row.iter().map(|mse| format!("{mse:.3}")).collect();
        assert_eq!(shown, want, "EXPERIMENTS.md Fig. 1(c) row `{label}`");
    }

    let claims = [
        ("MSE grows with Δ_gap", "monotone in every column"),
        ("Frequent updates help", "monotone in every row"),
    ];
    for (label, claim) in claims {
        let cells = row_cells(&section, label);
        assert!(
            cells.last().is_some_and(|c| c.contains(claim)),
            "row `{label}` no longer says `{claim}`: {cells:?}"
        );
    }
    for (j, update) in FIG1C_UPDATES.iter().enumerate() {
        for pair in grid.windows(2) {
            assert!(
                pair[1][j] >= pair[0][j],
                "MSE falls with a longer gap at update {update} s: {grid:?}"
            );
        }
    }
    for (gap, row) in FIG1C_GAPS.iter().zip(&grid) {
        for pair in row.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "MSE falls with a longer update interval at gap {gap} s: {grid:?}"
            );
        }
    }
}
