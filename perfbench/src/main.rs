//! Command line of the vecmem benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perfbench --workload <name> --print-pins [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every correctness pin held; usage errors exit with 2.

use std::process::ExitCode;
use std::time::Instant;

use vecmem_perfbench::workloads::{Kind, Scale};
use vecmem_perfbench::{print_pins, run, Options};

const USAGE: &str =
    "usage: perfbench --workload <verify_exhaustive|gather_long_period|pattern_mix> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--print-pins]";

/// Parsed command line: a run, or a pin dump.
enum Command {
    Run(Options),
    PrintPins(Kind, Scale),
}

fn parse(args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut kind = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut pins = false;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be a positive number".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => scale = Scale::Smoke,
            "--print-pins" => pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(if pins {
        Command::PrintPins(kind, scale)
    } else {
        Command::Run(Options {
            kind,
            seed,
            seconds,
            trace,
            scale,
        })
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    match parse(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::PrintPins(kind, scale)) => {
            print_pins(kind, scale);
            ExitCode::SUCCESS
        }
        Ok(Command::Run(options)) => match run(&options, start) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
