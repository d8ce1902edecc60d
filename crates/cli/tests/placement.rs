//! A VM set the demo server cannot hold fails `chaos` and `obs-serve`
//! alike, with the same `placement: ...` error and exit status 1, even in
//! `obs-serve`'s `--secs 0` smoke form. Runs the binary, so the exit
//! status is the one a shell sees.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

/// Runs `vmtherm args` in `dir`.
fn vmtherm(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vmtherm"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run vmtherm")
}

#[test]
fn an_overfull_vm_set_fails_chaos_and_obs_serve_with_one_placement_error() {
    let dir = std::env::temp_dir().join(format!("vmtherm-placement-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    for args in [
        &[
            "collect",
            "--out",
            "r.svm",
            "--cases",
            "8",
            "--duration",
            "700",
        ][..],
        &["train", "--records", "r.svm", "--out", "m.txt"],
    ] {
        let out = vmtherm(&dir, args);
        assert!(
            out.status.success(),
            "vmtherm {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let chaos = vmtherm(&dir, &["chaos", "--model", "m.txt", "--vms", "40"]);
    let serve = vmtherm(
        &dir,
        &[
            "obs-serve",
            "--addr",
            "127.0.0.1:0",
            "--secs",
            "0",
            "--vms",
            "40",
        ],
    );
    let _ = fs::remove_dir_all(&dir);
    let chaos_err = String::from_utf8_lossy(&chaos.stderr);
    assert_eq!(chaos.status.code(), Some(1), "chaos: {chaos_err}");
    assert!(
        chaos_err.starts_with("error: placement: "),
        "chaos: {chaos_err}"
    );
    assert_eq!(serve.status.code(), Some(1), "obs-serve exited 0");
    assert_eq!(String::from_utf8_lossy(&serve.stderr), chaos_err);
    assert!(serve.stdout.is_empty(), "obs-serve printed to stdout");
}
