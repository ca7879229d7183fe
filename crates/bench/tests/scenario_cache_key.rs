//! A scenario job's cache key carries its scenario (through the spec's
//! `Debug`): otherwise a cached steady-state run could be served for a
//! faulted one (or vice versa) and the resilience numbers would be silently
//! wrong.

use dmp_bench::scenarios::{failover_jobs, flashcrowd_jobs};
use dmp_bench::Scale;

#[test]
fn scenario_changes_the_cache_key_and_noop_does_not_collide() {
    // Same spec, different scenarios → different cache keys; and the
    // scenario-free default also hashes differently from a named no-op.
    let scale = Scale::quick();
    let fail: Vec<String> = failover_jobs(&scale)
        .into_iter()
        .map(|j| j.config_repr)
        .collect();
    let crowd: Vec<String> = flashcrowd_jobs(&scale)
        .into_iter()
        .map(|j| j.config_repr)
        .collect();
    for f in &fail {
        assert!(!crowd.contains(f), "failover and flash-crowd keys collide");
    }
}

/// A traced scenario job writes `<sanitized job label>.jsonl`; no engine
/// suffix disambiguates stems any more, so the labels alone must — within
/// each matrix and across the two (they share one trace directory).
#[test]
fn trace_stems_are_unique_across_the_scenario_job_matrices() {
    let scale = Scale::quick();
    let stems: Vec<String> = failover_jobs(&scale)
        .iter()
        .chain(&flashcrowd_jobs(&scale))
        .map(|job| obs::sanitize_label(&job.label))
        .collect();
    assert_eq!(stems.len(), 2 * 3 * scale.sim_runs);
    let distinct: std::collections::BTreeSet<&String> = stems.iter().collect();
    assert_eq!(distinct.len(), stems.len(), "colliding stems in {stems:?}");
}

#[test]
fn cc_and_strategy_pairs_never_collide_in_cache_keys() {
    use dmp_core::spec::{PullStrategy, SchedulerKind};
    use dmp_sim::experiment::{batch_jobs, ExperimentSpec};
    use dmp_sim::setting;

    // Every (cc, strategy) pair of the headroom matrix must map to a unique
    // cache key — a collision would let CUBIC runs be served Reno summaries
    // (or best-path runs round-robin ones) and silently corrupt the matrix.
    let mut keys = Vec::new();
    for kind in cc::CcKind::all() {
        for strategy in PullStrategy::all() {
            let mut spec =
                ExperimentSpec::new(*setting("2-2").unwrap(), SchedulerKind::Dynamic, 60.0, 2007);
            spec.cc = kind;
            spec.strategy = strategy;
            keys.push(batch_jobs(&spec, 1, &[4.0]).remove(0).config_repr);
        }
    }
    assert_eq!(keys.len(), 15);
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b, "two (cc, strategy) pairs share a cache key");
        }
    }

    // A saturation probe must never be keyed like a streaming summary of
    // the identical spec.
    let spec = ExperimentSpec::new(*setting("2-2").unwrap(), SchedulerKind::Dynamic, 60.0, 2007);
    let probe = &dmp_sim::probe::saturation_jobs(&spec, 1)[0];
    assert!(!keys.contains(&probe.config_repr));
}
