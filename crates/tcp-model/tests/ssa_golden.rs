//! Golden trajectories of the SSA event kernel.
//!
//! Every late fraction, τ and µ in the cache namespaces `model-late/v1`,
//! `tcp-model-tau/v2` and `tcp-model-mu/v1` is a function of the exact event
//! sequence [`DmpSsa`] draws, so a kernel rewrite has to reproduce that
//! sequence, not just its statistics. The K = 1–3 rows were recorded at the
//! commit before the flag-based kernel (the branchy recompute-`total` loop),
//! the K = 4 row at the commit before the const-K register kernel (each `K`
//! is its own instantiation of that kernel); each row is all integers, so a
//! match means the same draws selected the same events in the same order.

use dmp_core::spec::PathSpec;
use tcp_model::{DmpModel, DmpSsa};

struct Case {
    name: &'static str,
    /// `(loss, rtt_ms, T_O)` per path.
    paths: &'static [(f64, f64, f64)],
    mu: f64,
    tau_s: f64,
    seed: u64,
    consumptions: u64,
    /// Recorded: late, counted consumptions, packets produced per path,
    /// buffer level after the run.
    late: u64,
    counted: u64,
    produced: &'static [u64],
    buffer_level: i64,
}

const CASES: &[Case] = &[
    Case {
        name: "K=1",
        paths: &[(0.02, 100.0, 4.0)],
        mu: 30.0,
        tau_s: 4.0,
        seed: 101,
        consumptions: 200_000,
        late: 4489,
        counted: 200_000,
        produced: &[284_978],
        buffer_level: 117,
    },
    Case {
        name: "K=2 homogeneous",
        paths: &[(0.02, 150.0, 4.0), (0.02, 150.0, 4.0)],
        mu: 50.0,
        tau_s: 6.0,
        seed: 102,
        consumptions: 200_000,
        late: 26_437,
        counted: 200_000,
        produced: &[118_496, 121_515],
        buffer_level: -124,
    },
    Case {
        name: "K=2, 3x RTT spread",
        paths: &[(0.02, 100.0, 4.0), (0.02, 300.0, 4.0)],
        mu: 50.0,
        tau_s: 6.0,
        seed: 103,
        consumptions: 200_000,
        late: 24_762,
        counted: 200_000,
        produced: &[180_597, 58_138],
        buffer_level: 208,
    },
    Case {
        name: "K=3",
        paths: &[(0.01, 120.0, 2.0), (0.02, 180.0, 4.0), (0.04, 90.0, 3.0)],
        mu: 90.0,
        tau_s: 5.0,
        seed: 104,
        consumptions: 200_000,
        late: 785,
        counted: 200_000,
        produced: &[139_645, 53_467, 68_314],
        buffer_level: 215,
    },
    Case {
        // N_max = 5 under 4x headroom: the chains sit frozen at the cap for
        // most events, so the frozen `total = µ` select carries the run.
        name: "small tau, mostly frozen",
        paths: &[(0.01, 50.0, 2.0), (0.01, 50.0, 2.0)],
        mu: 25.0,
        tau_s: 0.2,
        seed: 105,
        consumptions: 200_000,
        late: 778,
        counted: 200_000,
        produced: &[513_498, 516_498],
        buffer_level: 4,
    },
    Case {
        // Heavy loss with a short T_O: the chains live in timeout backoff,
        // so the per-phase rate table and the re-summed `total` are exercised
        // on every exponent.
        name: "p=0.06, T_O=2, timeout backoff",
        paths: &[(0.06, 200.0, 2.0), (0.06, 200.0, 2.0)],
        mu: 20.0,
        tau_s: 8.0,
        seed: 106,
        consumptions: 200_000,
        late: 19_551,
        counted: 200_000,
        produced: &[115_547, 114_832],
        buffer_level: 125,
    },
    Case {
        // The largest K the repo runs (`ext_kpaths`), heterogeneous in loss,
        // RTT and T_O; every chain reaches timeout backoff (the p = 0.06
        // chain up to exponent 2). Recorded at the commit before the
        // const-K kernel.
        name: "K=4 heterogeneous, timeout backoff",
        paths: &[
            (0.01, 80.0, 2.0),
            (0.03, 150.0, 4.0),
            (0.06, 200.0, 2.0),
            (0.02, 250.0, 3.0),
        ],
        mu: 120.0,
        tau_s: 5.0,
        seed: 107,
        consumptions: 200_000,
        late: 153,
        counted: 200_000,
        produced: &[160_435, 35_959, 19_270, 31_616],
        buffer_level: 494,
    },
];

fn model(c: &Case) -> DmpModel {
    let paths = c
        .paths
        .iter()
        .map(|&(p, rtt_ms, to)| PathSpec::from_ms(p, rtt_ms, to))
        .collect();
    DmpModel::new(paths, c.mu, c.tau_s)
}

#[test]
fn kernel_reproduces_recorded_trajectories() {
    for c in CASES {
        let mut ssa = DmpSsa::new(&model(c), c.seed);
        let est = ssa.run(c.consumptions);
        assert_eq!(
            (
                est.late,
                est.consumptions,
                &ssa.produced[..],
                ssa.buffer_level()
            ),
            (c.late, c.counted, c.produced, c.buffer_level),
            "{}",
            c.name
        );
    }
}

/// `run` and the public `step` are one kernel: driving a workspace event by
/// event through `step()` for exactly the consumptions `run` observes
/// (warm-up + 20 batches) must leave it in the state `run` leaves, down to
/// the RNG — checked through the next estimate both produce.
#[test]
fn step_and_run_consume_identical_draws() {
    for c in CASES {
        let n = 40_000u64;
        let mut by_run = DmpSsa::new(&model(c), c.seed);
        let est = by_run.run(n);

        let mut by_step = DmpSsa::new(&model(c), c.seed);
        let (warmup, measured) = (n / 10, 20 * (n / 20));
        let (mut seen, mut late) = (0u64, 0u64);
        while seen < warmup + measured {
            if let Some(is_late) = by_step.step() {
                late += u64::from(is_late && seen >= warmup);
                seen += 1;
            }
        }
        assert_eq!(est.consumptions, measured, "{}", c.name);
        assert_eq!(est.late, late, "{}", c.name);
        assert_eq!(by_run.produced, by_step.produced, "{}", c.name);
        assert_eq!(by_run.buffer_level(), by_step.buffer_level(), "{}", c.name);
        let (a, b) = (by_run.run(5_000), by_step.run(5_000));
        assert_eq!(
            (a.late, a.f.to_bits()),
            (b.late, b.f.to_bits()),
            "{}",
            c.name
        );
    }
}

#[test]
fn reset_after_a_kernel_run_equals_a_fresh_build() {
    // Leave the workspace mid-backoff with a stale cached total, then reset
    // it onto every other case (same and different K).
    let mut ws = DmpSsa::new(&model(&CASES[5]), 1);
    let _ = ws.run(20_000);
    for c in CASES {
        ws.reset(&model(c), c.seed);
        let warm = ws.run(20_000);
        let mut fresh = DmpSsa::new(&model(c), c.seed);
        let cold = fresh.run(20_000);
        assert_eq!(
            (warm.late, warm.consumptions, warm.f.to_bits()),
            (cold.late, cold.consumptions, cold.f.to_bits()),
            "{}",
            c.name
        );
        assert_eq!(ws.produced, fresh.produced, "{}", c.name);
        assert_eq!(ws.buffer_level(), fresh.buffer_level(), "{}", c.name);
    }
}
