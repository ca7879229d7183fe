//! `video_2path`: the dense packet plane. Setting 2-2 multipath video under
//! the DMP scheduler with full background traffic — ~100 flows and thousands
//! of pending timers, the simulation `repro_all` spends its time in.

use dmp_core::spec::SchedulerKind;
use dmp_core::LatenessReport;
use dmp_sim::experiment::{self, ExperimentSpec};

use super::{derive_seed, Checks, Digest, LayerValues, NetsimTally, Outcome, Traced, Workload};
use crate::span::Tracer;

/// Replications per iteration.
const RUNS: u64 = 2;
/// Video seconds per replication (the default 20 s warm-up comes on top).
const DURATION_S: f64 = 250.0;
/// Startup delays the lateness report is evaluated at (the paper's four,
/// and a shorter one where packets are still late).
const TAUS_S: [f64; 5] = [2.0, 4.0, 6.0, 8.0, 10.0];

struct Video2Path {
    specs: Vec<ExperimentSpec>,
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let setting = *dmp_sim::configs::setting("2-2").expect("setting 2-2 exists");
    let specs = (0..RUNS)
        .map(|i| {
            ExperimentSpec::new(
                setting,
                SchedulerKind::Dynamic,
                DURATION_S,
                derive_seed(seed, i),
            )
        })
        .collect();
    Box::new(Video2Path { specs })
}

impl Workload for Video2Path {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let mut tally = NetsimTally::start();
        let mut sim_s = 0.0;
        let mut records = 0u64;
        for spec in &self.specs {
            let mut built = t.span("dmp-sim.build", || experiment::build(spec));
            let end = built.end();
            t.span("dmp-sim.advance_to", || built.advance_to(end));
            let out = t.span("dmp-sim.finish", || built.finish());
            let report = t.span("dmp-core.lateness", || {
                LatenessReport::from_trace(&out.trace, &TAUS_S)
            });

            let (generated, delivered) = (out.trace.generated(), out.trace.delivered());
            // Whatever the server still queues when the run ends is not
            // delivered, so only packets old enough to have arrived count:
            // the records the lateness report itself is made from.
            let stable = out.trace.stable_records(TAUS_S[TAUS_S.len() - 1]);
            let arrived = stable.iter().filter(|r| r.arrival_ns.is_some()).count();
            checks.check(arrived as f64 >= 0.99 * stable.len() as f64, || {
                let n = stable.len();
                format!(
                    "seed {}: {arrived} of {n} settled packets arrived",
                    spec.seed
                )
            });
            let shares: f64 = out.paths.iter().map(|p| p.share).sum();
            checks.check((shares - 1.0).abs() < 1e-9, || {
                format!("seed {}: path shares sum to {shares}", spec.seed)
            });
            let late: Vec<f64> = report.per_tau.iter().map(|l| l.playback_order).collect();
            checks.check(late.windows(2).all(|w| w[1] <= w[0]), || {
                format!("seed {}: late fraction rises with tau: {late:?}", spec.seed)
            });

            digest.u64(generated).u64(delivered);
            for p in &out.paths {
                digest.f64(p.share).f64(p.loss).f64(p.rtt_s);
            }
            for l in &report.per_tau {
                digest
                    .f64(l.playback_order)
                    .f64(l.arrival_order)
                    .u64(l.total);
            }
            records += report.per_tau.first().map_or(0, |l| l.total);
            tally.add(&out.metrics);
            sim_s += spec.warmup_s + spec.duration_s;
            t.span("dmp-sim.drop", || drop(out));
        }
        let mut counts = tally.finish(sim_s);
        digest.f64(counts["netsim.events"]);
        counts.insert("dmp-core.lateness_records", records as f64);
        Outcome {
            digest: digest.finish(),
            work: sim_s,
            checks,
            counts,
            seconds: LayerValues::new(),
        }
    }

    fn layer_metrics(&mut self, traced: &Traced<'_>, out: &mut LayerValues) {
        let run_until = traced.seconds("dmp-sim.advance_to");
        out.insert("netsim.run_until.self_s", run_until);
        out.insert(
            "netsim.ns_per_event",
            run_until * 1e9 / traced.count("netsim.events"),
        );
        out.insert("dmp-sim.build_s", traced.seconds("dmp-sim.build"));
        out.insert("dmp-sim.advance_s", run_until);
        out.insert("dmp-sim.finish_s", traced.seconds("dmp-sim.finish"));
        out.insert("dmp-sim.drop_s", traced.seconds("dmp-sim.drop"));
        out.insert(
            "dmp-core.lateness_ns_per_record",
            traced.seconds("dmp-core.lateness") * 1e9
                / (traced.count("dmp-core.lateness_records") * TAUS_S.len() as f64),
        );
    }
}
