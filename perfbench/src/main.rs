//! The repository benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-wresnet|train-decoder|serve-plans|recover-decoder> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run instead. See `perfbench/README.md`.

mod inputs;
mod layers;
mod ledger;
mod recover;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::process::ExitCode;

use report::{Outcome, Run};

/// Worker count of every timed training run.
pub const TRAIN_WIDTH: usize = 2;

const USAGE: &str = "usage: perfbench --workload <train-wresnet|train-decoder|serve-plans|\
                     recover-decoder> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if TRAIN_WIDTH > nproc {
        eprintln!(
            "refusing to time training at width {TRAIN_WIDTH} on {nproc} CPU(s): \
             timed widths must not exceed the host's CPUs"
        );
        return ExitCode::from(3);
    }
    let outcome: Outcome = match run.workload.as_str() {
        "train-wresnet" => train::run(&run, train::Model::WResNet),
        "train-decoder" => train::run(&run, train::Model::Decoder),
        "serve-plans" => serve::run(&run),
        "recover-decoder" => recover::run(&run),
        _ => unreachable!("workload validated by parse_args"),
    };
    report::finish(&run, nproc, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let r = parse_args(&args(
            "--workload serve-plans --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.trace),
            ("serve-plans", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-plans --seed x --seconds 1 --trace 0",
            "--workload serve-plans --seed 1 --seconds 0 --trace 0",
            "--workload serve-plans --seed 1 --seconds 1 --trace 2",
            "--workload serve-plans --seed 1 --seconds 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
