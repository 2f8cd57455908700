//! The planarity-DIP benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! pdip-perfbench --workload <serve-mixed|prove-verify-large|soundness-sweep>
//!                --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload with a fixed amount of work set
//! by `--seconds` and prints every end-to-end metric. `--trace 1` runs
//! each workload once with benchmark-owned recorders, prints every
//! per-layer metric and the tracing overhead; its operation counts are
//! those of the named workload. The last line of standard output is the
//! JSON result; violations of the output checks go to standard error.

mod checks;
mod large;
mod recorder;
mod report;
mod roundtrip;
mod serve;
mod stats;
mod sweep;

use report::Outcome;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve-mixed", "prove-verify-large", "soundness-sweep"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One untraced run of `workload`.
fn run(workload: &str, seed: u64, seconds: u64, nproc: usize) -> Outcome {
    match workload {
        "serve-mixed" => serve::run(seed, seconds, nproc),
        "prove-verify-large" => large::run(seed, seconds),
        _ => sweep::run(seed, seconds, nproc),
    }
}

/// The traced run: every workload once, the named one counted.
fn traced(workload: &str, seed: u64, nproc: usize) -> Outcome {
    let mut all = Outcome::default();
    for w in WORKLOADS {
        let primary = w == workload;
        let o = match w {
            "serve-mixed" => serve::traced(seed, nproc),
            "prove-verify-large" => large::traced(seed, primary),
            _ => sweep::traced(seed, nproc),
        };
        if primary {
            all.attempted = o.attempted;
            all.failed = o.failed;
        }
        all.checks.merge(o.checks);
        all.metrics.extend(o.metrics);
        all.notes.extend(o.notes);
    }
    all
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdip-perfbench: {e}");
            eprintln!(
                "usage: pdip-perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let out = if args.trace {
        traced(args.workload, args.seed, nproc)
    } else {
        run(args.workload, args.seed, args.seconds, nproc)
    };
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("checks: {} passed, {} violated", out.checks.passed(), out.checks.violations().len());
    for v in out.checks.violations() {
        eprintln!("CHECK FAILED: {v}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
