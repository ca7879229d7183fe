//! Cross-run regression differ over metrics documents.
//!
//! Usage:
//!
//! ```text
//! bench_diff <baseline> <candidate> [--threshold <rel>]
//!            [--threshold-for <path-prefix>=<rel>]... [--json]
//! ```
//!
//! `<baseline>`/`<candidate>` are each either one JSON file (a
//! `metrics/<name>.json` snapshot, a `benchmark/out/results.json` capture —
//! any JSON document) or a directory of them (two `metrics/` trees; files pair by
//! name). The default threshold is **0**: metrics are deterministic, so two
//! runs of the same commit and configuration must agree to the byte. Exit
//! code: 0 no drift, 1 drift past threshold, 2 incomparable runs (label /
//! config mismatch, missing metrics) or usage error.

use std::path::Path;

use dmp_bench::diff::{diff_paths, DiffOptions};

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff <baseline> <candidate> [--threshold <rel>] \
         [--threshold-for <path-prefix>=<rel>]... [--json]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut as_json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => as_json = true,
            "--threshold" => {
                i += 1;
                opts.default_rel = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threshold-for" => {
                i += 1;
                let Some((prefix, rel)) = args.get(i).and_then(|v| v.split_once('=')) else {
                    usage();
                };
                let Ok(rel) = rel.parse() else { usage() };
                opts.overrides.push((prefix.to_string(), rel));
            }
            flag if flag.starts_with("--") => usage(),
            path => paths.push(path.to_string()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        usage();
    }
    let report = match diff_paths(Path::new(&paths[0]), Path::new(&paths[1]), &opts) {
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
