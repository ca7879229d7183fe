//! Regenerate the committed flight-recorder example: one traced quick-scale
//! `ext_failover` replication plus its report, written to
//! `artifacts/traces/` (override with `--dir <path>`). The simulation and the
//! trace schema are deterministic, so re-running this binary on an unchanged
//! tree reproduces the committed files byte-for-byte — which is exactly what
//! `tests/trace_example.rs` asserts.

use std::path::PathBuf;

use dmp_bench::trace_example;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir: PathBuf = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("artifacts/traces"));
    let (trace_path, _out, report) = trace_example::generate(&dir);
    let report_path = dir.join(format!("{}.report.txt", trace_example::LABEL));
    std::fs::write(&report_path, &report).expect("write report");
    println!("wrote {}", trace_path.display());
    println!("wrote {}", report_path.display());
}
