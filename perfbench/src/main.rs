//! SpotLake benchmark: seeded `ingest`, `scan` and `lookup` workloads run
//! through the product's public entry points.
//!
//! ```text
//! perfbench --workload <ingest|scan|lookup> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it also times every layer from outside, around each
//! layer's public functions, and reports the per-layer metrics. Either
//! way it checks the program's outputs and prints one JSON result object
//! as the last line of stdout. The exit code is nonzero when a
//! correctness check fails or the run cannot complete.

mod ingest;
mod plan;
mod recover;
mod report;
mod serving;
mod stats;
mod sys;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads. `BENCHMARK.json` lists `ingest` and `scan`; `lookup`
/// runs on request only, because on a host whose hypervisor steals CPU
/// time its figures swing more than any bound that means something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Durable full-catalog collection into a sharded archive.
    Ingest,
    /// Archive-wide history queries over TCP.
    Scan,
    /// Narrow lookups and operator endpoints over TCP.
    Lookup,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "scan" => Some(Workload::Scan),
            "lookup" => Some(Workload::Lookup),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Scan => "scan",
            Workload::Lookup => "lookup",
        }
    }
}

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: u64,
    /// Whether to run the traced per-layer pass too.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| {
                        format!("unknown workload {value:?} (ingest|scan|lookup)")
                    })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for one run, inside the package directory (ignored by
/// git) and removed when the run ends.
fn work_dir(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{}", args.workload.name(), args.seed))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(serving::CHILD_COMMAND) {
        return serving::child_main(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some(recover::CHILD_COMMAND) {
        return recover::child_main(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir(&args);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();
    let outcome = match args.workload {
        Workload::Ingest => ingest::run(&args, &work, &mut report),
        Workload::Scan | Workload::Lookup => serving::run(&args, &work, &mut report),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} run failed: {e}", args.workload.name());
        return ExitCode::from(1);
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.result_json(names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "scan",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::Scan);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "scan"])).is_err());
        assert!(parse_args(&strings(&["--workload", "scan", "--seed", "x"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "scan",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }
}
