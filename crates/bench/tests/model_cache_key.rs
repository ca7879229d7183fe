//! The model cells through the runner cache, keyed the way the bench
//! targets key them: warm and cold runs must produce byte-identical
//! payloads, and a typed solver failure must be cached like any other result
//! — a panic would waste a runner slot on every cold run, an error payload
//! is content-addressed.

use dmp_core::spec::PathSpec;
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, JobSpec, JsonCodec, Runner};
use tcp_model::{ExactCellSpec, ExactOutcome, LateCellSpec, SolveOptions};

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

#[test]
fn exact_solver_failure_is_cached_as_a_value() {
    let tmp = TempDir::new("model-cache-err");
    let job = || {
        let cell = ExactCellSpec {
            path: path(),
            wmax: 6,
            mu: 25.0,
            tau_s: 8.0,
            floor: -200,
            // Far too small for the joint space: the cell must fail.
            opts: SolveOptions {
                max_states: 50,
                ..SolveOptions::default()
            },
        };
        JobSpec::keyed("exact:overflow", cell, 0, ExactCellSpec::run)
    };
    let expect_error = |cell: &dmp_runner::Cell<ExactOutcome>| match cell.ok() {
        Some(ExactOutcome::Error { message }) => {
            assert!(message.contains("exceeds 50 states"), "{message}");
        }
        other => panic!("expected a typed error payload, got {other:?}"),
    };

    let r1 = Runner::new(1, Cache::new(tmp.path())).with_progress(false);
    let first = r1.run_all(vec![job()]);
    assert!(!first[0].from_cache);
    expect_error(&first[0]);

    let r2 = Runner::new(1, Cache::new(tmp.path())).with_progress(false);
    let second = r2.run_all(vec![job()]);
    assert!(
        second[0].from_cache,
        "typed failure was not served from the cache — overflow cells would \
         re-enumerate on every run"
    );
    expect_error(&second[0]);
}
