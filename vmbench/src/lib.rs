//! `vmbench`: one end-to-end and per-layer benchmark over the vmtherm
//! paper pipeline (collect → scale → grid search with 10-fold CV → SVR →
//! dynamic prediction) and the fleet monitor.
//!
//! The benchmark times the workspace crates from outside, through their
//! public functions; per-layer numbers come from bench-side spans
//! ([`trace`]), public accessors and the counters the obs registry
//! already keeps. See `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod names;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Worker threads the host offers (what `nproc` prints).
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
#[must_use]
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .map(str::to_string)
        })
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build, host and config stamp printed with every workload's record.
#[must_use]
pub fn stamp(workload: &str, seed: u64, ops: usize, bench_threads: usize) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "stamp host_threads={} bench_threads={bench_threads} git_rev={} rustc=\"{}\" \
         profile={profile} workload={workload} seed={seed} ops={ops}",
        host_threads(),
        git_rev(),
        env!("VMBENCH_RUSTC"),
    )
}
