//! `perfbench` — the end-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_reads|hot_reads|read_write --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over TCP; `--trace 1` replays
//! the same operations layer by layer and reports the per-layer metrics,
//! writing its spans to `perfbench/out/`. The last line of standard output
//! is the result object. See `perfbench/README.md`.

mod drive;
mod inputs;
mod reference;
mod replay;
mod report;

use inputs::{Inputs, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid value `{value}` for {}", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    let result = if args.trace {
        replay::run(&inputs)
    } else {
        drive::run(&inputs)
    };
    match result {
        Ok((correct, tally, metrics)) => {
            report::print_result(correct, &tally, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
