//! `vmtherm` — the command-line front end: collect experiment records,
//! train and evaluate the stable-temperature model, and monitor a
//! simulated server with calibrated dynamic forecasts.
//!
//! See `vmtherm --help` (or [`commands::USAGE`]) for the command list.

mod args;
mod commands;

use std::io::Write as _;
use std::process::ExitCode;

/// Prints to stdout, ignoring a closed pipe (`vmtherm ... | head`).
fn emit(text: &str) {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = lock.write_all(text.as_bytes());
    if !text.ends_with('\n') {
        let _ = lock.write_all(b"\n");
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        emit(commands::USAGE);
        return ExitCode::SUCCESS;
    }
    let flags = match args::Flags::parse(argv) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match commands::run(&command, &flags) {
        Ok(output) => {
            emit(&output);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
