//! The model cells through the runner cache, keyed the way the bench
//! targets key them: warm and cold runs must produce byte-identical
//! payloads.

use dmp_core::spec::PathSpec;
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, JobSpec, JsonCodec, Runner};
use tcp_model::LateCellSpec;

fn path() -> PathSpec {
    PathSpec::from_ms(0.02, 150.0, 3.0)
}

#[test]
fn warm_and_cold_runs_are_byte_identical_through_the_runner_cache() {
    let tmp = TempDir::new("model-cache-key");
    let jobs = || {
        (0..4).map(|i| {
            let cell = LateCellSpec {
                paths: vec![path(); 2],
                mu: 20.0 + f64::from(i),
                tau_s: 3.0,
                consumptions: 20_000,
                seed: 2007,
            };
            JobSpec::keyed(format!("late:{i}"), cell, 2007, LateCellSpec::run)
        })
    };
    let rendered = |cells: &[dmp_runner::Cell<f64>]| -> Vec<String> {
        cells
            .iter()
            .map(|c| c.ok().expect("cell ok").to_json().render())
            .collect()
    };

    let cold_runner = Runner::new(2, Cache::new(tmp.path())).with_progress(false);
    let cold = cold_runner.run_all(jobs().collect());
    assert!(cold.iter().all(|c| !c.from_cache), "first run must compute");

    let warm_runner = Runner::new(2, Cache::new(tmp.path())).with_progress(false);
    let warm = warm_runner.run_all(jobs().collect());
    assert!(
        warm.iter().all(|c| c.from_cache),
        "second run must be all cache hits"
    );
    assert_eq!(
        rendered(&cold),
        rendered(&warm),
        "cached payloads differ from computed ones"
    );

    // And a cache-disabled recompute agrees byte-for-byte too: the cache
    // never changes results, it only skips work.
    let none = Runner::new(2, Cache::disabled()).with_progress(false);
    assert_eq!(rendered(&cold), rendered(&none.run_all(jobs().collect())));
}
