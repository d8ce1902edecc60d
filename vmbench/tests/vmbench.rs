//! The benchmark definition agrees with the binary, and a full op of the
//! cheapest workload passes every check.

use vmbench::names;
use vmbench::run::{goldens, run, Options, DEFAULT_SECONDS};
use vmbench::workloads::{FleetIdleEvent, DEFAULT_SEED};
use vmtherm_obs::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(doc: &Json, key: &str) -> Vec<Json> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_match_the_emitted_names() {
    let doc = benchmark_json();
    let workloads: Vec<String> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    assert_eq!(workloads, names::WORKLOADS);

    for (key, emitted) in [
        ("end_to_end", &names::END_TO_END[..]),
        ("per_layer", &names::PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
            .collect();
        let emitted: Vec<(String, String)> = emitted
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, emitted, "{key}");
    }
    let mut all: Vec<&str> = workloads.iter().map(String::as_str).collect();
    all.extend(
        names::END_TO_END
            .iter()
            .chain(&names::PER_LAYER)
            .map(|(n, _)| *n),
    );
    for name in &all {
        assert!(well_formed(name), "bad name {name}");
    }
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_num),
        Some(DEFAULT_SECONDS)
    );
}

#[test]
fn every_workload_has_goldens() {
    for workload in names::WORKLOADS {
        assert!(!goldens(workload).is_empty(), "no goldens for {workload}");
    }
}

#[test]
fn a_full_fleet_idle_event_op_passes_every_check() {
    let report = run(
        &FleetIdleEvent { seed: DEFAULT_SEED },
        &Options {
            seed: DEFAULT_SEED,
            seconds: 1e-3,
            trace: false,
            spans: None,
        },
    );
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0, "{:?}", report.problems);
    assert!(report.end_to_end.iter().all(|v| *v > 0.0));
}
