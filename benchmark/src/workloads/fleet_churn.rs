//! `fleet_churn`: many short simulations. A flash-crowd fleet of churning
//! DMP sessions, one runner job per shard on two threads — `Sim`
//! construction and teardown, churn sampling, the shard merge and the runner
//! pool matter here, and it is the only workload where thread fan-out can
//! win or lose.

use std::time::Instant;

use dmp_fleet::{run_fleet, run_shard, shard_plans, FleetOptions, FleetSpec};
use dmp_runner::{Cache, Runner};
use scenario::FleetTimeline;

use super::{derive_seed, Checks, Digest, LayerValues, NetsimTally, Outcome, Traced, Workload};
use crate::span::Tracer;
use crate::stats;

const SESSIONS: u32 = 1024;
const SHARD_SESSIONS: u32 = 16;
const DURATION_S: f64 = 60.0;
pub const THREADS: usize = 2;
/// Fleets planned from one run seed; the one of median load is run.
const CANDIDATES: u64 = 15;

/// The flash-crowd fleet of `bench_fleet.rs`, at this workload's size.
fn spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::new("bench", SESSIONS, SHARD_SESSIONS, seed);
    spec.duration_s = DURATION_S;
    spec.warmup_s = 2.0;
    spec.arrival_rate_per_s = f64::from(SHARD_SESSIONS) / DURATION_S * 1.8;
    spec.mean_hold_s = DURATION_S * 0.4;
    spec.timeline = FleetTimeline::named("flash").spike(0.3 * DURATION_S, 4.0, 0.25 * DURATION_S);
    spec
}

struct FleetChurn {
    spec: FleetSpec,
    runner: Runner,
    /// Artifact of a one-thread run: thread fan-out must not change a byte.
    reference: String,
}

/// Seconds the fleet's sessions stream inside the window, by its plans.
fn planned_stream_s(spec: &FleetSpec) -> f64 {
    (0..spec.shard_count())
        .flat_map(|shard| shard_plans(spec, shard))
        .map(|p| p.hold_s.min(spec.duration_s - p.arrival_s))
        .sum()
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    // A fleet's work is the sum of its sessions' sampled streaming times:
    // between ten fleets of 1024 sessions the simulations' events ranged
    // over 8 %, and `iter_s.p50` with them. Every run gets another seed, so
    // of the fleets the seed gives, the one of median planned load is run:
    // the input still depends on the seed, its size hardly.
    let mut fleets: Vec<(f64, FleetSpec)> = (0..CANDIDATES)
        .map(|i| spec(derive_seed(seed, i)))
        .map(|spec| (planned_stream_s(&spec), spec))
        .collect();
    fleets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, spec) = fleets.swap_remove(fleets.len() / 2);
    let serial = Runner::new(1, Cache::disabled());
    let reference = run_fleet(&serial, &spec, &FleetOptions::default())
        .artifact(&spec)
        .render();
    Box::new(FleetChurn {
        spec,
        runner: Runner::new(THREADS, Cache::disabled()),
        reference,
    })
}

impl Workload for FleetChurn {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut checks = Checks::default();
        let mut tally = NetsimTally::start();
        let busy_before = self.runner.stats().serial_equiv;
        let opts = FleetOptions::default();
        // A failed shard job panics inside `run_fleet`, which ends the run
        // with a non-zero exit: no cell can fail silently.
        let result = t.span("dmp-fleet.run_fleet", || {
            run_fleet(&self.runner, &self.spec, &opts)
        });
        let busy = self.runner.stats().serial_equiv - busy_before;
        let artifact = t.span("dmp-fleet.render", || result.artifact(&self.spec).render());

        let r = &result.report;
        checks.check(r.started >= r.completed && r.completed > 0, || {
            format!("{} sessions started, {} completed", r.started, r.completed)
        });
        checks.check(artifact == self.reference, || {
            format!("artifact differs from the 1-thread run's on {THREADS} threads")
        });

        tally.add(&result.metrics);
        let sim_s = (self.spec.warmup_s + DURATION_S) * f64::from(self.spec.shard_count());
        let mut counts = tally.finish(sim_s);
        counts.insert("fleet.events", result.total_events() as f64);
        counts.insert("fleet.sessions", f64::from(SESSIONS));
        Outcome {
            digest: Digest::default().bytes(artifact.as_bytes()).finish(),
            work: f64::from(SESSIONS),
            checks,
            counts,
            seconds: LayerValues::from([("dmp-runner.pool.busy", busy.as_secs_f64())]),
        }
    }

    fn layer_metrics(&mut self, traced: &Traced<'_>, out: &mut LayerValues) {
        let shards = self.spec.shard_count();
        let t0 = Instant::now();
        for shard in 0..shards {
            std::hint::black_box(shard_plans(&self.spec, shard));
        }
        out.insert(
            "fleet.plan_us_per_session",
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(SESSIONS),
        );

        // Each shard alone on this thread: what the pool has to schedule.
        let shard_s: Vec<f64> = (0..shards)
            .map(|shard| {
                let t0 = Instant::now();
                std::hint::black_box(run_shard(&self.spec, shard, None));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let serial_sum: f64 = shard_s.iter().sum();
        let fleet_wall = traced.seconds("dmp-fleet.run_fleet");
        out.insert("fleet.shard_s.p50", stats::median(&shard_s));
        out.insert("fleet.shard_s.max", stats::quantile(&shard_s, 1.0));
        out.insert("fleet.serial_sum_s", serial_sum);
        out.insert(
            "fleet.parallel_efficiency",
            serial_sum / (THREADS as f64 * fleet_wall),
        );
        out.insert("fleet.render_s", traced.seconds("dmp-fleet.render"));
        out.insert(
            "dmp-runner.pool.idle_share",
            1.0 - traced.seconds("dmp-runner.pool.busy") / (THREADS as f64 * fleet_wall),
        );
    }
}
