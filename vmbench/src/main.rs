//! `vmbench`: runs one workload of the vmtherm benchmark and prints every
//! metric as `name value unit`, then one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path vmbench/Cargo.toml -- \
//!     --workload <name> [--seed 42] [--seconds 10] [--trace 0|1] [--spans PATH]
//! cargo run --release --manifest-path vmbench/Cargo.toml -- --all [same flags]
//! ```
//!
//! `--all` runs the four workloads one after another, each in a child
//! process of its own so that peak memory is per workload.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use vmbench::names;
use vmbench::run::{run, Options, Report, DEFAULT_SECONDS};
use vmbench::workloads::{
    FleetDense, FleetIdleEvent, PaperFast, PaperTrain, Workload, DEFAULT_SEED,
};
use vmtherm_obs::Json;

const USAGE: &str =
    "usage: vmbench (--workload <paper-train|paper-fast|fleet-dense|fleet-idle-event> | --all)
               [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

struct Args {
    workload: Option<String>,
    all: bool,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        opts: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            spans: None,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            parsed.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !names::WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => {
                parsed.opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                parsed.opts.seconds = s;
            }
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            "--spans" => parsed.opts.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(parsed)
}

fn print<W: Workload>(opts: &Options, report: &Report) {
    println!("workload {}", W::NAME);
    println!(
        "{}",
        vmbench::stamp(W::NAME, opts.seed, report.attempted, W::THREADS)
    );
    for note in &report.notes {
        println!("{note}");
    }
    let mut metrics = Vec::new();
    for ((name, unit), value) in names::END_TO_END.iter().zip(&report.end_to_end) {
        println!("{name} {value} {unit}");
        if !opts.trace {
            metrics.push((*name, *value, *unit));
        }
    }
    for ((name, unit), value) in names::PER_LAYER.iter().zip(&report.per_layer) {
        println!("{name} {value} {unit}");
        metrics.push((*name, *value, *unit));
    }
    println!("ops {}", report.attempted);
    println!("ops_failed {}", report.failed);
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
}

fn bench<W: Workload>(workload: &W, opts: &Options) {
    print::<W>(opts, &run(workload, opts));
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("vmbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in names::WORKLOADS {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            workload,
            "--seed",
            &args.opts.seed.to_string(),
            "--seconds",
            &args.opts.seconds.to_string(),
            "--trace",
            if args.opts.trace { "1" } else { "0" },
        ]);
        if let Some(spans) = &args.opts.spans {
            let mut path = spans.clone().into_os_string();
            path.push(format!(".{workload}"));
            child.arg("--spans").arg(path);
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("vmbench: {workload} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("vmbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let seed = args.opts.seed;
    match args.workload.as_deref() {
        Some(names::PAPER_TRAIN) => bench(&PaperTrain { seed }, &args.opts),
        Some(names::PAPER_FAST) => bench(&PaperFast { seed }, &args.opts),
        Some(names::FLEET_DENSE) => bench(&FleetDense { seed }, &args.opts),
        Some(names::FLEET_IDLE_EVENT) => bench(&FleetIdleEvent { seed }, &args.opts),
        _ => unreachable!("parse accepts only listed workloads"),
    }
    ExitCode::SUCCESS
}
