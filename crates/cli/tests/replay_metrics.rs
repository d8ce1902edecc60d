//! `vmtherm replay --model M --metrics F` replays every scenario of a
//! corpus through its own fleet monitor; the metrics export describes the
//! last scenario's monitor only. Runs the binary, so the global metrics
//! registry starts empty.

use std::fs;
use std::path::Path;
use std::process::Command;
use vmtherm_sim::scenario::Scenario;
use vmtherm_sim::SimDuration;

/// Runs `vmtherm args` in `dir` and returns its stdout; fails the test
/// on a non-zero exit.
fn vmtherm(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vmtherm"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run vmtherm");
    assert!(
        out.status.success(),
        "vmtherm {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn replay_exports_only_the_last_scenarios_monitor() {
    let dir = std::env::temp_dir().join(format!("vmtherm-replay-metrics-{}", std::process::id()));
    let corpus = dir.join("corpus");
    fs::create_dir_all(&corpus).expect("corpus dir");
    // Replayed in file-name order: five servers, then three.
    for (name, servers) in [("a-five", 5), ("b-three", 3)] {
        let scenario = Scenario::quiet(name, 7, servers, SimDuration::from_secs(300));
        fs::write(
            corpus.join(format!("{name}.json")),
            scenario.to_json_string(),
        )
        .expect("write scenario");
    }
    vmtherm(
        &dir,
        &[
            "collect",
            "--out",
            "recs.svm",
            "--cases",
            "12",
            "--duration",
            "700",
            "--seed",
            "3",
        ],
    );
    vmtherm(
        &dir,
        &["train", "--records", "recs.svm", "--out", "model.txt"],
    );
    let summary = vmtherm(
        &dir,
        &[
            "replay",
            "--path",
            "corpus",
            "--model",
            "model.txt",
            "--metrics",
            "metrics.prom",
        ],
    );
    assert!(
        summary.contains("2 passed, 0 failed"),
        "unexpected: {summary}"
    );

    let prom = fs::read_to_string(dir.join("metrics.prom")).expect("metrics export");
    let monitor_series = |server: usize| {
        let label = format!("server=\"{server}\"");
        prom.lines()
            .filter(|l| l.starts_with("vmtherm_monitor_") && l.contains(&label))
            .count()
    };
    for server in 0..3 {
        assert!(
            monitor_series(server) > 0,
            "server {server} missing:\n{prom}"
        );
    }
    for server in [3, 4] {
        assert_eq!(
            monitor_series(server),
            0,
            "server {server} survived:\n{prom}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
