//! The `ext_cc_matrix` gate: the headroom matrix is thread-invariant, and
//! the committed artifact's baseline cell is re-derived in process and
//! pinned byte for byte. The whole committed quick artifact, every cell of
//! it, is held by `tests/reproduction_gate.rs`.

use dmp_bench::cc_matrix::{self, MatrixOptions};
use dmp_runner::{json, Cache, Json, Runner};

/// A reduced grid (one multiple, one replication, short runs) computed on a
/// 1-thread and an 8-thread runner — cache disabled, so the second pass
/// actually recomputes — must render byte-identical matrix JSON.
#[test]
fn smoke_matrix_is_identical_across_runner_threads() {
    let opts = MatrixOptions::smoke();
    let one = cc_matrix::compute_matrix(
        &Runner::new(1, Cache::disabled()).with_progress(false),
        &opts,
    );
    let eight = cc_matrix::compute_matrix(
        &Runner::new(8, Cache::disabled()).with_progress(false),
        &opts,
    );
    assert!(!one.cells.is_empty());
    assert_eq!(
        one.to_json().render(),
        eight.to_json().render(),
        "matrix JSON differs between 1 and 8 runner threads"
    );
}

/// Render one JSON cell of the committed artifact for byte comparison.
fn find_cell(parsed: &Json, cc: &str, strategy: &str) -> String {
    let has =
        |cell: &Json, key: &str, want: &str| cell.get(key).and_then(Json::as_str) == Some(want);
    parsed
        .get("cells")
        .and_then(Json::as_arr)
        .expect("committed artifact has a cells array")
        .iter()
        .find(|c| has(c, "cc", cc) && has(c, "strategy", strategy))
        .unwrap_or_else(|| panic!("committed artifact lacks cell ({cc}, {strategy})"))
        .render()
}

/// Re-derive the committed artifact's Reno + round-robin cell at the
/// committed quick scale and compare it with `artifacts/ext_cc_matrix.json`.
#[test]
fn committed_reno_round_robin_cell_reproduces_byte_for_byte() {
    let path = dmp_bench::repo_path("artifacts/ext_cc_matrix.json");
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "committed artifact missing at {}: {e}\n\
             regenerate with `cargo run --release -p dmp-bench -- ext_cc_matrix --quick`",
            path.display()
        )
    });
    let parsed = json::parse(&committed).expect("committed artifact parses");
    let committed_cell = find_cell(&parsed, "reno", "round-robin");
    let fresh = cc_matrix::compute_matrix_cell(
        &Runner::new(2, Cache::disabled()).with_progress(false),
        cc::CcKind::Reno,
        dmp_core::spec::PullStrategy::RoundRobin,
        &MatrixOptions::from_scale(&dmp_bench::Scale::quick()),
    );
    assert_eq!(
        fresh.to_json().render(),
        committed_cell,
        "Reno + round-robin baseline cell diverges from the committed artifact; \
         if the behaviour change is intended, regenerate with \
         `cargo run --release -p dmp-bench -- ext_cc_matrix --quick` and commit"
    );
}
