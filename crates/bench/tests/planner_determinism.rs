//! The capacity planner's determinism contract: the quick heatmap and its
//! metrics are a pure function of the scale — byte-identical across runner
//! thread counts and across no, a cold and a warm cache — and equal to the
//! committed `artifacts/capacity_planner.json`, so planner drift is a tier-1
//! failure.

use dmp_bench::planner::capacity_planner;
use dmp_bench::Scale;
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, JsonCodec, Runner};

/// Render the quick heatmap target on `threads` workers with the given
/// cache: (artifact bytes as committed, metrics bytes).
fn render_heatmap(threads: usize, cache: Cache) -> (String, String) {
    let runner = Runner::new(threads, cache).with_progress(false);
    let report = capacity_planner(&runner, &Scale::quick());
    let metrics = report.metrics.expect("planner attaches metrics");
    (report.data.render_pretty(), metrics.to_json().render())
}

#[test]
fn quick_heatmap_is_deterministic_and_matches_the_committed_artifact() {
    let serial = render_heatmap(1, Cache::disabled());
    let threaded = render_heatmap(8, Cache::disabled());
    assert_eq!(serial, threaded, "planner changed with thread count");
    let tmp = TempDir::new("planner-determinism-cache");
    let cold = render_heatmap(8, Cache::new(tmp.path()));
    assert_eq!(serial, cold, "cold-cache planner diverged from uncached");
    let warm = render_heatmap(8, Cache::new(tmp.path()));
    assert_eq!(serial, warm, "warm-cache planner diverged from uncached");

    let path = dmp_bench::repo_path("artifacts/capacity_planner.json");
    let committed = std::fs::read_to_string(&path).expect("committed artifact is readable");
    assert_eq!(
        serial.0,
        committed,
        "quick planner heatmap diverges from {}; if the behaviour change is intended, regenerate \
         with `cargo run --release -p dmp-bench -- capacity_planner --quick` and commit",
        path.display()
    );
}
