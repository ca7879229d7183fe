//! `model_ssa`: the model plane's real traffic. A column of SSA late-fraction
//! estimates over τ and one required-startup-delay search — what Figs 8–11,
//! the headline and the planner's µ-cells are made of. netsim does nothing.

use dmp_core::spec::PathSpec;
use tcp_model::search::{required_startup_delay, SearchOptions, TauSearchSpec};
use tcp_model::{pftk, DmpModel};

use super::{derive_seed, Checks, Digest, LayerValues, Outcome, Traced, Workload};
use crate::span::Tracer;

const LOSS: f64 = 0.02;
const TO_RATIO: f64 = 4.0;
/// Video rate µ, packets per second.
const MU: f64 = 25.0;
/// Aggregate achievable throughput over µ (the paper's 1.6× headroom).
const HEADROOM: f64 = 1.6;
/// The τ column: 2, 4, … 30 s.
const TAU_POINTS: u64 = 15;
const TAU_STEP_S: f64 = 2.0;
/// Consumption events per column cell.
const CONSUMPTIONS: u64 = 400_000;

struct ModelSsa {
    paths: Vec<PathSpec>,
    /// One RNG seed per column cell.
    seeds: Vec<u64>,
    search: TauSearchSpec,
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let path = PathSpec {
        loss: LOSS,
        rtt_s: pftk::rtt_for_ratio(LOSS, TO_RATIO, 2, MU, HEADROOM),
        to_ratio: TO_RATIO,
    };
    let paths = vec![path; 2];
    Box::new(ModelSsa {
        seeds: (0..TAU_POINTS).map(|i| derive_seed(seed, i)).collect(),
        // The search keeps its default seed: its cost depends on which side
        // of the threshold each evaluation falls, and a run-to-run change in
        // that would be input noise, not host noise.
        search: TauSearchSpec {
            paths: paths.clone(),
            mu: MU,
            opts: SearchOptions::default(),
        },
        paths,
    })
}

impl Workload for ModelSsa {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let mut consumptions = 0u64;
        let mut column = Vec::with_capacity(self.seeds.len());
        for (i, &seed) in self.seeds.iter().enumerate() {
            let tau = TAU_STEP_S * (i + 1) as f64;
            let model = DmpModel::new(self.paths.clone(), MU, tau);
            let est = t.span("tcp-model.late_fraction", || {
                model.late_fraction(CONSUMPTIONS, seed)
            });
            checks.check((0.0..=1.0).contains(&est.f), || {
                format!("tau {tau}: late fraction {}", est.f)
            });
            consumptions += est.consumptions;
            digest.f64(est.f).u64(est.late).u64(est.consumptions);
            column.push(est);
        }
        // Three times the summed half-widths: the intervals come from a few
        // batch means, and a check that fails by chance once in a thousand
        // cells would fail some run of every comparison.
        checks.check(
            column
                .windows(2)
                .all(|w| w[1].f <= w[0].f + 3.0 * (w[0].ci95 + w[1].ci95)),
            || "late fraction rises with tau beyond its confidence interval".into(),
        );
        let tau = t.span("tcp-model.tau_search", || self.search.run());
        checks.check(tau.is_some(), || "startup-delay search found no tau".into());
        digest.f64(tau.unwrap_or(f64::NAN));
        Outcome {
            digest: digest.finish(),
            work: consumptions as f64,
            checks,
            counts: LayerValues::from([("tcp-model.ssa.consumptions", consumptions as f64)]),
            seconds: LayerValues::new(),
        }
    }

    fn layer_metrics(&mut self, traced: &Traced<'_>, out: &mut LayerValues) {
        out.insert(
            "tcp-model.ssa.ns_per_consumption",
            traced.seconds("tcp-model.late_fraction") * 1e9
                / traced.count("tcp-model.ssa.consumptions"),
        );
        out.insert(
            "tcp-model.search.s_per_search",
            traced.seconds("tcp-model.tau_search"),
        );
        // `TauSearchSpec::run` reports only τ; the same search through the
        // closure form counts the evaluations it makes.
        let mut evaluations = 0u64;
        let found = required_startup_delay(
            |tau| {
                evaluations += 1;
                DmpModel::new(self.search.paths.clone(), self.search.mu, tau)
            },
            &self.search.opts,
        );
        std::hint::black_box(found);
        out.insert("tcp-model.search.evaluations", evaluations as f64);
    }
}
