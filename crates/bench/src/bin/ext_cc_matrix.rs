//! Standalone runner for the `ext_cc_matrix` extension target, plus the CI
//! smoke gate.
//!
//! * Default (`--quick`/`--full` as usual): compute the full headroom
//!   matrix and write `ext_cc_matrix.json` + `.meta.json` like every other
//!   target.
//! * `--quick-smoke`: the CI gate. Runs a reduced grid (one multiple, one
//!   replication, short runs) twice — on a 1-thread and an 8-thread runner,
//!   cache disabled — and asserts the rendered matrix JSON is byte-identical
//!   across the two thread counts. Then it re-derives the committed
//!   artifact's Reno + round-robin cell at the committed quick scale and
//!   asserts it matches `artifacts/ext_cc_matrix.json` byte-for-byte — the
//!   baseline row of the matrix is pinned exactly like the committed example
//!   trace.

use std::path::Path;

use dmp_bench::cc_matrix::{self, MatrixOptions};
use dmp_runner::{json, Cache, Runner};

fn committed_artifact() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/ext_cc_matrix.json")
}

/// Render one JSON cell of the committed artifact for byte comparison.
fn find_cell(parsed: &json::Json, cc: &str, strategy: &str) -> String {
    let cells = match parsed.get("cells") {
        Some(json::Json::Arr(cells)) => cells,
        _ => panic!("committed artifact has no cells array"),
    };
    cells
        .iter()
        .find(|c| {
            matches!(c.get("cc"), Some(json::Json::Str(s)) if s == cc)
                && matches!(c.get("strategy"), Some(json::Json::Str(s)) if s == strategy)
        })
        .unwrap_or_else(|| panic!("committed artifact lacks cell ({cc}, {strategy})"))
        .render()
}

fn quick_smoke() {
    // 1. Reduced grid, thread-count differential (cache off so the second
    //    pass actually recomputes).
    let opts = MatrixOptions::smoke();
    let one = cc_matrix::compute_matrix(
        &Runner::new(1, Cache::disabled()).with_progress(false),
        &opts,
    );
    let eight = cc_matrix::compute_matrix(
        &Runner::new(8, Cache::disabled()).with_progress(false),
        &opts,
    );
    let (a, b) = (one.to_json().render(), eight.to_json().render());
    assert_eq!(a, b, "matrix JSON differs between 1 and 8 runner threads");
    eprintln!(
        "[ext_cc_matrix --quick-smoke] smoke grid OK: {} cells, thread-invariant",
        one.cells.len()
    );

    // 2. Byte-gate the committed baseline cell (Reno + round-robin at the
    //    committed quick scale). Cached results are fine here: the cache key
    //    embeds cc, strategy and rate, so a hit is by definition the same
    //    bytes.
    let path = committed_artifact();
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "committed artifact missing at {}: {e}\n\
             regenerate with `cargo run --release -p dmp-bench --bin ext_cc_matrix -- --quick`",
            path.display()
        )
    });
    let parsed = json::parse(&committed).expect("committed artifact parses");
    let committed_cell = find_cell(&parsed, "reno", "round-robin");
    let full = MatrixOptions::from_scale(&dmp_bench::Scale::quick());
    let runner = Runner::from_env();
    let fresh = cc_matrix::compute_matrix_cell(
        &runner,
        cc::CcKind::Reno,
        dmp_core::spec::PullStrategy::RoundRobin,
        &full,
    );
    let fresh_cell = fresh.to_json().render();
    assert_eq!(
        fresh_cell, committed_cell,
        "Reno + round-robin baseline cell diverges from the committed artifact; \
         if the behaviour change is intended, regenerate with \
         `cargo run --release -p dmp-bench --bin ext_cc_matrix -- --quick` and commit"
    );
    eprintln!(
        "[ext_cc_matrix --quick-smoke] committed Reno/round-robin cell reproduced byte-for-byte"
    );
}

fn main() {
    if std::env::args().any(|a| a == "--quick-smoke") {
        quick_smoke();
        return;
    }
    dmp_bench::target::run_standalone(&[("ext_cc_matrix", dmp_bench::cc_matrix::ext_cc_matrix)]);
}
