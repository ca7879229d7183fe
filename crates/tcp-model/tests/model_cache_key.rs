//! Cache-key hygiene for the batched model plane: versioned namespaces must
//! stay disjoint (a v2 workspace-reusing search result must never be served
//! for a v1 fresh-SSA key, or vice versa), warm and cold runs must produce
//! byte-identical payloads through the runner cache, and a typed solver
//! failure must be cached like any other result — a panic would waste a
//! runner slot on every cold run, an error payload is content-addressed.

use dmp_core::spec::PathSpec;
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, JsonCodec, Runner};
use tcp_model::{
    ExactCellSpec, ExactOutcome, LateCellSpec, MuCellSpec, PlannerOptions, PlannerScheme,
    SearchOptions, SolveOptions, TauSearchSpec,
};

fn path() -> PathSpec {
    PathSpec::from_ms(0.02, 150.0, 3.0)
}

#[test]
fn tau_search_repr_is_v2_and_never_collides_with_v1_keys() {
    let spec = TauSearchSpec {
        paths: vec![path(); 2],
        mu: 25.0,
        opts: SearchOptions::default(),
    };
    let repr = spec.config_repr();
    assert!(
        repr.starts_with("tcp-model-tau/v2/"),
        "tau search repr is not on the v2 namespace: {repr}"
    );
    // The pre-batching namespace must be unreachable from the v2 repr: a
    // cache populated before the model-plane rework holds v1 keys only, and
    // no v2 key may alias one of them.
    assert!(
        !repr.contains("tcp-model-tau/v1"),
        "v2 repr embeds the v1 namespace: {repr}"
    );
    let key_v2 = Cache::disabled().key(&repr, spec.opts.seed);
    let key_v1 = Cache::disabled().key(&repr.replacen("/v2/", "/v1/", 1), spec.opts.seed);
    assert_ne!(key_v2, key_v1, "version bump does not change the cache key");
}

#[test]
fn model_cell_namespaces_are_mutually_disjoint() {
    // One namespace per cell family; a collision between families would let
    // a late-fraction float answer a µ-bisection (or an exact-solver cell).
    let late = LateCellSpec {
        paths: vec![path(); 2],
        mu: 25.0,
        tau_s: 4.0,
        consumptions: 10_000,
        seed: 7,
    }
    .config_repr();
    let mu = MuCellSpec {
        paths: vec![path(); 2],
        tau_s: 4.0,
        scheme: PlannerScheme::Dmp,
        opts: PlannerOptions::default(),
    }
    .config_repr();
    let exact = ExactCellSpec {
        path: path(),
        wmax: 6,
        mu: 25.0,
        tau_s: 4.0,
        floor: -80,
        opts: SolveOptions::default(),
    }
    .config_repr();
    assert!(
        late.starts_with("model-late/v1/"),
        "legacy namespace moved: {late}"
    );
    assert!(mu.starts_with("tcp-model-mu/v1/"), "{mu}");
    assert!(exact.starts_with("tcp-model-exact/v2/"), "{exact}");
    let prefixes = ["model-late/", "tcp-model-mu/", "tcp-model-exact/"];
    for (i, r) in [&late, &mu, &exact].iter().enumerate() {
        for (j, p) in prefixes.iter().enumerate() {
            assert_eq!(i == j, r.starts_with(p), "{r} vs {p}");
        }
    }
}

#[test]
fn warm_and_cold_runs_are_byte_identical_through_the_runner_cache() {
    let tmp = TempDir::new("model-cache-key");
    let jobs = || {
        (0..4).map(|i| {
            LateCellSpec {
                paths: vec![path(); 2],
                mu: 20.0 + f64::from(i),
                tau_s: 3.0,
                consumptions: 20_000,
                seed: 2007,
            }
            .into_job(format!("late:{i}"))
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
        ExactCellSpec {
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
        }
        .into_job("exact:overflow")
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
