//! The measured ledger: six workloads, four end-to-end metrics, per-layer
//! numbers from a traced run. See `README.md` and `../BENCHMARK.json`.
//!
//! ```text
//! dmp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     one run in this process; the last line of stdout is the result JSON
//! dmp-benchmark [--seed N] [--seconds S] [--sets K] [--smoke]
//!     every workload, untraced then traced, each in a child process;
//!     writes benchmark/out/results.json
//! dmp-benchmark --tables
//!     the README's number tables, from benchmark/out/results.json
//! ```

mod host;
mod metrics;
mod probes;
mod reference;
mod run;
mod span;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// Seed when none is given.
const DEFAULT_SEED: u64 = 2007;
/// Seconds a run measures when none are given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
    tables: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
        smoke: false,
        tables: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.seed = number(flag, value()?)?,
            "--seconds" => cli.seconds = number(flag, value()?)?,
            "--sets" => cli.sets = number(flag, value()?)?,
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--tables" => cli.tables = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds >= 0.0 && cli.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be within 0..=60, not {}",
            cli.seconds
        ));
    }
    if cli.smoke {
        // A pass runs at least one iteration: no time means exactly one.
        cli.seconds = 0.0;
    }
    if cli.sets == 0 {
        return Err("--sets must be at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cli.tables {
        return match suite::tables() {
            Ok(md) => {
                print!("{md}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    // Two workloads run two threads; with one core their numbers would be
    // time-slicing, not the program.
    if host::nproc() < 2 {
        eprintln!(
            "the benchmark needs 2 cores, this host offers {}",
            host::nproc()
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = host::check_profile() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let ok = match &cli.workload {
        Some(name) => {
            let Some(workload) = workloads::find(name) else {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name:?}; there are {names:?}");
                return ExitCode::from(2);
            };
            run::run(
                &run::Args {
                    workload,
                    seed: cli.seed,
                    seconds: cli.seconds,
                    trace: cli.trace,
                    smoke: cli.smoke,
                },
                started,
            )
        }
        None => suite::run(&suite::Args {
            seed: cli.seed,
            seconds: cli.seconds,
            sets: cli.sets,
            smoke: cli.smoke,
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
