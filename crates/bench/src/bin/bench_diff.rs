//! Cross-run regression differ over metrics documents.
//!
//! Usage:
//!
//! ```text
//! bench_diff <baseline> <candidate> [--json]
//! ```
//!
//! `<baseline>`/`<candidate>` are each either one JSON file (a
//! `metrics/<name>.json` snapshot, a `benchmark/out/results.json` capture —
//! any JSON document) or a directory of them (two `metrics/` trees; files pair by
//! name). Metrics are deterministic, so two runs of the same commit and
//! configuration must agree to the byte: any numeric leaf that moves is
//! drift. Exit code: 0 no drift, 1 drift, 2 incomparable runs (label /
//! config mismatch, missing metrics) or usage error.

use std::path::Path;

use dmp_bench::diff::diff_paths;

fn usage() -> ! {
    eprintln!("usage: bench_diff <baseline> <candidate> [--json]");
    std::process::exit(2);
}

fn main() {
    let mut paths = Vec::new();
    let mut as_json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => as_json = true,
            flag if flag.starts_with("--") => usage(),
            _ => paths.push(arg),
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        usage();
    };
    let report = match diff_paths(Path::new(baseline), Path::new(candidate)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    };
    if as_json {
        println!("{}", report.to_json().render_pretty());
    } else {
        print!("{}", report.render());
    }
    std::process::exit(report.verdict().exit_code());
}
