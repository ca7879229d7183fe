//! The fleet determinism contract: the deterministic artifact is a pure
//! function of the [`FleetSpec`] — byte-identical across runner thread
//! counts — and the churn plan is a pure function
//! of the spec seed. Every shard runs under the event queue's contract check
//! (debug builds), which fixes the event sequence any conforming scheduler
//! dispatches.

use dmp_fleet::{run_fleet, shard_plans, FleetOptions, FleetSpec};
use dmp_runner::{Cache, Runner};

/// Small enough to run in tier-1 debug builds (these tests execute the full
/// packet simulation many times over), large enough to exercise multiple
/// shards, a remainder shard, and contention on shared bottlenecks.
fn spec() -> FleetSpec {
    let mut spec = FleetSpec::new("det", 5, 2, 2007);
    spec.duration_s = 10.0;
    spec.warmup_s = 1.0;
    spec.arrival_rate_per_s = 0.5;
    spec.mean_hold_s = 5.0;
    spec.video = dmp_core::spec::VideoSpec::new(25.0);
    spec
}

fn artifact(threads: usize) -> String {
    let runner = Runner::new(threads, Cache::disabled());
    let spec = spec();
    run_fleet(&runner, &spec, &FleetOptions::default())
        .artifact(&spec)
        .render()
}

#[test]
fn artifact_is_byte_identical_across_thread_counts() {
    let reference = artifact(1);
    // Three shards on 2 and 8 threads cover contended and oversubscribed
    // pools (a host may have fewer cores than 8).
    for threads in [2, 8] {
        assert_eq!(
            reference,
            artifact(threads),
            "artifact changed at threads={threads}"
        );
    }
}

#[test]
fn engines_produce_identical_fleets() {
    // No spec names an engine, so the whole artifact — `config` line
    // included — is a function of the spec alone: the one scheduler runs it
    // under its contract check, inline on one thread.
    let artifact = artifact(1);
    let config = dmp_runner::Json::Str(format!("{:?}", spec())).render();
    assert!(artifact.contains(&config), "{artifact}");
}

#[test]
fn churn_is_a_pure_function_of_the_spec_seed() {
    let a = spec();
    for shard in 0..a.shard_count() {
        assert_eq!(shard_plans(&a, shard), shard_plans(&a, shard));
    }
    let mut b = a.clone();
    b.seed = a.seed + 1;
    assert_ne!(shard_plans(&a, 0), shard_plans(&b, 0));
}

#[test]
fn cache_round_trip_reproduces_the_artifact() {
    let dir = std::env::temp_dir().join(format!("fleet-det-cache-{}", std::process::id()));
    let spec = spec();
    let opts = FleetOptions::default();
    let cold = {
        let runner = Runner::new(2, Cache::new(&dir));
        run_fleet(&runner, &spec, &opts).artifact(&spec).render()
    };
    let warm_runner = Runner::new(2, Cache::new(&dir));
    let warm = run_fleet(&warm_runner, &spec, &opts)
        .artifact(&spec)
        .render();
    let stats = warm_runner.stats();
    assert_eq!(cold, warm, "cache hit changed the artifact");
    assert_eq!(
        stats.cache_misses, 0,
        "second run should be served entirely from cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
