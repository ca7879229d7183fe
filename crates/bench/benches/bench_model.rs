//! Model-plane performance benchmark: the CSR stationary solver with
//! warm-started τ-grid sweeps, the parallel chunked "fast plane" those
//! sweeps compose into, the batched capacity-planner cells, and the SSA
//! event kernel on a Fig. 8 column.
//!
//! Modes (args after `--` reach this binary):
//!
//! * `--quick-smoke`, also what runs when no mode is named — (a) CSR +
//!   warm-start (serial and parallel-chunked) agrees with the reference
//!   transition-list solver (the oracle, held to 1e-15 — see `measure_grid`)
//!   within 1e-12 on a reduced τ grid with fewer warm than cold iterations,
//!   and (b) the quick capacity-planner heatmap is byte-identical across
//!   1-vs-8 runner threads and across a cold-vs-warm cache (CI gate;
//!   seconds).
//! * `--baseline <BENCH_model.json>` (combinable with `--quick-smoke`) —
//!   re-measure the fast-plane rate and the SSA consumption rate and fail
//!   (exit 1) when either collapses below half the recorded baseline. Loose
//!   on purpose: CI boxes are slower than the one that wrote the baseline;
//!   the gate catches order-of-magnitude regressions, not percent-level
//!   drift.
//! * `--json <path>` — measure the full grid (per-point cold reference vs
//!   cold CSR vs warm CSR vs the parallel plane, iteration counts, planner
//!   cells/sec, SSA ns per consumption) and write the `BENCH_model.json`
//!   perf-trajectory artifact.
//!
//! Paths are resolved via [`dmp_bench::repo_path`], so `BENCH_model.json`
//! reads/writes the workspace root regardless of cargo's bench CWD.

use std::time::Instant;

use dmp_bench::planner::capacity_planner;
use dmp_bench::Scale;
use dmp_core::spec::PathSpec;
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, Json, JsonCodec, Runner};
use tcp_model::exact::exact_tau_sweep;
use tcp_model::solver::solve_stationary_reference;
use tcp_model::{calibrate, DmpModel, ExactDmp, ExactLateFraction, SolveOptions, TcpChain};

/// The grid's single-flow instance: lossy 200 ms path, small window so the
/// joint (chain, buffer) space stays in exact-solver territory.
fn path() -> PathSpec {
    PathSpec::from_ms(0.06, 200.0, 2.0)
}

const WMAX: u32 = 6;
const FLOOR: i64 = -80;

/// Threads for the parallel plane (matches the CI runner class the recorded
/// baseline was measured on).
const PLANE_THREADS: usize = 8;

/// Tolerance the reference oracle is held to in accuracy comparisons —
/// tighter than the production 1e-12 because residual-based stopping leaves
/// the *oracle itself* a slow-mode bias of ≈ tolerance · r/(1−r), while the
/// Anderson-accelerated sweep under test converges past that bias. See
/// the note in `measure_grid`.
const REFERENCE_TOLERANCE: f64 = 1e-15;

/// µ at 80% of the chain's achievable throughput — marginal but feasible,
/// so the late fraction is neither 0 nor 1 and the solves are non-trivial.
/// Deterministic (fixed calibration seed).
fn mu() -> f64 {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
    0.8 * TcpChain::achievable_throughput(path(), WMAX, 300_000, &mut rng)
}

/// The dense τ grid `--json` measures (the smoke uses a prefix).
fn tau_grid(points: usize) -> Vec<f64> {
    (0..points).map(|i| 0.5 + 0.1 * i as f64).collect()
}

/// The fast plane: split the grid into one contiguous chunk per thread and
/// run a warm-started [`exact_tau_sweep`] per chunk. Each chunk pays one
/// cold solve at its head; every other point warm-starts from its left
/// neighbor. Returns per-point results in grid order.
fn plane_sweep(mu: f64, taus: &[f64], threads: usize) -> Vec<ExactLateFraction> {
    let opts = SolveOptions::default();
    let chunk = taus.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = taus
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    exact_tau_sweep(path(), WMAX, mu, c, FLOOR, opts).expect("grid enumerates")
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("plane worker"))
            .collect()
    })
}

struct GridMeasure {
    points: usize,
    /// Wall seconds: per-point reference solves (oracle, held to
    /// `REFERENCE_TOLERANCE`) / per-point cold CSR solves / serial warm CSR
    /// sweep / parallel chunked plane.
    reference_s: f64,
    csr_cold_s: f64,
    csr_warm_s: f64,
    plane_s: f64,
    /// Power-iteration totals across the grid (serial sweeps).
    cold_iterations: u64,
    warm_iterations: u64,
    /// Largest |f − f_reference| across the grid over all fast paths.
    max_abs_diff: f64,
    /// Largest enumerated state space on the grid.
    states_max: u64,
    /// Σ(states × iterations) / wall of the cold CSR solves — the solver's
    /// row-update throughput.
    row_updates_per_s: f64,
}

/// Measure the τ grid four ways: per-point reference (the historical
/// solver), per-point cold CSR, the serial warm-started CSR sweep, and the
/// parallel chunked plane.
fn measure_grid(points: usize) -> GridMeasure {
    let mu = mu();
    let taus = tau_grid(points);
    let opts = SolveOptions::default();

    let t0 = Instant::now();
    let warm = exact_tau_sweep(path(), WMAX, mu, &taus, FLOOR, opts).expect("grid enumerates");
    let csr_warm_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let plane = plane_sweep(mu, &taus, PLANE_THREADS);
    let plane_s = t0.elapsed().as_secs_f64();

    let mut cold_iterations = 0u64;
    let mut row_updates = 0u64;
    let mut states_max = 0u64;
    let t0 = Instant::now();
    for &tau in &taus {
        let model = ExactDmp::new(path(), WMAX, mu, tau, FLOOR);
        let sol = model.csr(&opts).expect("enumerates").solve(&opts, None);
        cold_iterations += u64::from(sol.iterations);
        row_updates += sol.states.len() as u64 * u64::from(sol.iterations);
        states_max = states_max.max(sol.states.len() as u64);
    }
    let csr_cold_s = t0.elapsed().as_secs_f64();

    // The oracle pass. The accelerated sweeps land essentially on the fixed
    // point (f error ≤ 2e-13 against a roundoff-floor reference), while
    // residual-based stopping leaves any plain solver a slow-mode bias of
    // ≈ tolerance · r/(1−r) — measured on this grid's f functional: ~1.5e-12
    // at 1e-14, i.e. *above* the 1e-12 agreement gate, and ~1.2e-13 at
    // 1e-15. Hold the oracle to 1e-15 so its bias sits an order below the
    // gate; that is still a safe decade above the ~2e-16 summation-noise
    // floor of the cancellation-free (all-nonnegative) sweep, at ~15% more
    // iterations than a 1e-14 solve.
    let ref_opts = SolveOptions {
        tolerance: REFERENCE_TOLERANCE,
        ..opts
    };
    let mut max_abs_diff = 0.0f64;
    let t0 = Instant::now();
    for ((&tau, w), p) in taus.iter().zip(&warm).zip(&plane) {
        let model = ExactDmp::new(path(), WMAX, mu, tau, FLOOR);
        let sol = solve_stationary_reference(&model, ref_opts);
        let r = model.summarise(&sol);
        max_abs_diff = max_abs_diff.max((r.f - w.f).abs()).max((r.f - p.f).abs());
    }
    let reference_s = t0.elapsed().as_secs_f64();

    GridMeasure {
        points: taus.len(),
        reference_s,
        csr_cold_s,
        csr_warm_s,
        plane_s,
        cold_iterations,
        warm_iterations: warm.iter().map(|r| u64::from(r.iterations)).sum(),
        max_abs_diff,
        states_max,
        row_updates_per_s: row_updates as f64 / csr_cold_s.max(1e-9),
    }
}

/// The SSA column: Fig. 8's `σ_a/µ = 1.6` curve — two homogeneous paths,
/// `p = 0.02`, `T_O = 4`, `µ = 25` pkt/s, τ = 2, 4, … 30 s.
const SSA_LOSS: f64 = 0.02;
const SSA_TO_RATIO: f64 = 4.0;
const SSA_MU: f64 = 25.0;
const SSA_RATIO: f64 = 1.6;
const SSA_TAU_POINTS: u64 = 15;
/// Timed passes over the column; the best one is reported.
const SSA_PASSES: usize = 3;

struct SsaMeasure {
    /// Counted (post-warm-up) consumption events per pass.
    consumptions: u64,
    /// Wall nanoseconds per counted consumption, best pass.
    ns_per_consumption: f64,
    /// (worst − best) / best over the passes.
    spread: f64,
}

/// One pass over the SSA column at `per_cell` consumptions per τ point:
/// (counted consumptions, wall seconds).
fn ssa_column(per_cell: u64) -> (u64, f64) {
    let rtt = calibrate::rtt_for_ratio(
        SSA_LOSS,
        SSA_TO_RATIO,
        DmpModel::DEFAULT_WMAX,
        2,
        SSA_MU,
        SSA_RATIO,
    );
    let paths = vec![
        PathSpec {
            loss: SSA_LOSS,
            rtt_s: rtt,
            to_ratio: SSA_TO_RATIO,
        };
        2
    ];
    let mut consumptions = 0u64;
    let t0 = Instant::now();
    for i in 1..=SSA_TAU_POINTS {
        let model = DmpModel::new(paths.clone(), SSA_MU, 2.0 * i as f64);
        let est = std::hint::black_box(model.late_fraction(per_cell, i));
        consumptions += est.consumptions;
    }
    (consumptions, t0.elapsed().as_secs_f64())
}

/// Warm-up pass (fills the calibration cache), then best of
/// [`SSA_PASSES`] timed passes.
fn measure_ssa(per_cell: u64) -> SsaMeasure {
    let _ = ssa_column(per_cell / 10);
    let passes: Vec<(u64, f64)> = (0..SSA_PASSES).map(|_| ssa_column(per_cell)).collect();
    let ns = |&(c, s): &(u64, f64)| s * 1e9 / c as f64;
    let best = passes.iter().map(ns).fold(f64::INFINITY, f64::min);
    let worst = passes.iter().map(ns).fold(0.0, f64::max);
    SsaMeasure {
        consumptions: passes[0].0,
        ns_per_consumption: best,
        spread: (worst - best) / best,
    }
}

/// Render the quick heatmap target on `threads` workers with the given
/// cache: (artifact bytes, metrics bytes).
fn render_heatmap(threads: usize, cache: Cache) -> (String, String) {
    let runner = Runner::new(threads, cache).with_progress(false);
    let report = capacity_planner(&runner, &Scale::quick());
    let metrics = report
        .metrics
        .as_ref()
        .expect("planner attaches metrics")
        .to_json()
        .render();
    (report.data.render(), metrics)
}

/// `--quick-smoke`: solver agreement + heatmap determinism, fast.
fn quick_smoke() {
    let g = measure_grid(6);
    assert!(
        g.max_abs_diff < 1e-12,
        "CSR/warm/plane solver diverged from the reference by {:.3e}",
        g.max_abs_diff
    );
    assert!(
        g.warm_iterations < g.cold_iterations,
        "warm sweep took {} iterations, cold {}",
        g.warm_iterations,
        g.cold_iterations
    );
    println!(
        "smoke solver: {} grid points agree within 1e-12 (max diff {:.2e}); warm {} vs cold {} \
         iterations",
        g.points, g.max_abs_diff, g.warm_iterations, g.cold_iterations
    );

    let (art_1, met_1) = render_heatmap(1, Cache::disabled());
    let (art_8, met_8) = render_heatmap(8, Cache::disabled());
    assert_eq!(
        art_1, art_8,
        "planner heatmap changed between 1 and 8 runner threads"
    );
    assert_eq!(met_1, met_8, "planner metrics changed with thread count");
    let tmp = TempDir::new("bench-model-cache");
    let (art_cold, _) = render_heatmap(8, Cache::new(tmp.path()));
    let (art_warm, met_warm) = render_heatmap(8, Cache::new(tmp.path()));
    assert_eq!(
        art_cold, art_warm,
        "planner heatmap changed between cold and warm cache"
    );
    assert_eq!(art_1, art_cold, "cached heatmap diverged from uncached");
    assert_eq!(met_1, met_warm, "cached metrics diverged from uncached");
    println!(
        "smoke heatmap: quick grid byte-identical across 1-vs-8 threads and cold-vs-warm cache"
    );
    println!("quick-smoke OK: model plane deterministic and exact");
}

/// `--json <path>`: measure the full grid + planner cells and write the
/// perf-trajectory artifact.
fn write_json(path: &str) {
    // The single-threaded SSA column first, before the 8-thread plane heats
    // the box.
    let ssa = measure_ssa(400_000);
    println!(
        "ssa: {} consumptions per pass, best of {SSA_PASSES}: {:.1} ns/consumption \
         ({:.2e} consumptions/s), spread {:.1}%",
        ssa.consumptions,
        ssa.ns_per_consumption,
        1e9 / ssa.ns_per_consumption,
        100.0 * ssa.spread
    );
    // Warm-up pass (page in code, fill the calibration cache), then timed.
    let _ = measure_grid(4);
    let g = measure_grid(32);
    let speedup_plane = g.reference_s / g.plane_s.max(1e-9);
    let speedup_warm_serial = g.reference_s / g.csr_warm_s.max(1e-9);
    let speedup_csr_only = g.reference_s / g.csr_cold_s.max(1e-9);
    // Tolerance-matched (both sides at the default 1e-12): the warm
    // Anderson-accelerated sweep vs per-point cold CSR solves of the same
    // grid — the purest "dense evaluation vs cold solves" number.
    let speedup_warm_vs_cold_csr = g.csr_cold_s / g.csr_warm_s.max(1e-9);
    println!(
        "tau grid: {} points, reference {:.2}s, cold CSR {:.2}s, warm CSR {:.2}s, \
         plane ({PLANE_THREADS} threads) {:.2}s",
        g.points, g.reference_s, g.csr_cold_s, g.csr_warm_s, g.plane_s
    );
    println!(
        "speedup vs per-point cold reference solves: {speedup_plane:.1}x plane, \
         {speedup_warm_serial:.1}x serial warm, {speedup_csr_only:.1}x CSR alone; \
         {speedup_warm_vs_cold_csr:.1}x warm sweep vs cold CSR (tolerance-matched)"
    );
    println!(
        "iterations: warm {} vs cold {} ({:.1}x fewer); max |Δf| {:.2e}; {:.2e} row-updates/s",
        g.warm_iterations,
        g.cold_iterations,
        g.cold_iterations as f64 / g.warm_iterations.max(1) as f64,
        g.max_abs_diff,
        g.row_updates_per_s
    );

    let t0 = Instant::now();
    let (_, metrics) = render_heatmap(1, Cache::disabled());
    let planner_s = t0.elapsed().as_secs_f64();
    let cells = dmp_runner::json::parse(&metrics)
        .and_then(|m| m.get("counters")?.get("planner.cells")?.as_f64())
        .unwrap_or(0.0);
    let cells_per_s = cells / planner_s.max(1e-9);
    println!("planner: {cells:.0} µ-bisection cells in {planner_s:.2}s ({cells_per_s:.1} cells/s)");

    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    let json = Json::obj([
        ("schema", Json::Str("bench_model/v1".into())),
        ("bench", Json::Str("bench_model".into())),
        (
            "solver",
            Json::obj([
                ("states_max", Json::Num(g.states_max as f64)),
                ("row_updates_per_s", Json::Num(g.row_updates_per_s.round())),
            ]),
        ),
        (
            "tau_grid",
            Json::obj([
                ("points", Json::Num(g.points as f64)),
                ("reference_cold_s", Json::Num(round2(g.reference_s))),
                ("csr_cold_s", Json::Num(round2(g.csr_cold_s))),
                ("csr_warm_s", Json::Num(round2(g.csr_warm_s))),
                (
                    "speedup_warm_serial",
                    Json::Num(round2(speedup_warm_serial)),
                ),
                ("speedup_csr_only", Json::Num(round2(speedup_csr_only))),
                (
                    "speedup_warm_vs_cold_csr",
                    Json::Num(round2(speedup_warm_vs_cold_csr)),
                ),
                ("reference_tolerance", Json::Str("1e-15".into())),
                ("warm_iterations", Json::Num(g.warm_iterations as f64)),
                ("cold_iterations", Json::Num(g.cold_iterations as f64)),
                ("max_abs_diff", Json::Num(g.max_abs_diff)),
            ]),
        ),
        (
            "plane",
            Json::obj([
                ("threads", Json::Num(PLANE_THREADS as f64)),
                ("wall_s", Json::Num(round2(g.plane_s))),
                (
                    "points_per_s",
                    Json::Num(round2(g.points as f64 / g.plane_s.max(1e-9))),
                ),
                (
                    "speedup_vs_cold_reference",
                    Json::Num(round2(speedup_plane)),
                ),
            ]),
        ),
        (
            "planner",
            Json::obj([
                ("cells", Json::Num(cells)),
                ("cells_per_s", Json::Num(round2(cells_per_s))),
                ("threads", Json::Num(1.0)),
            ]),
        ),
        (
            "ssa",
            Json::obj([
                ("paths", Json::Num(2.0)),
                ("loss", Json::Num(SSA_LOSS)),
                ("to_ratio", Json::Num(SSA_TO_RATIO)),
                ("sigma_a_over_mu", Json::Num(SSA_RATIO)),
                ("tau_points", Json::Num(SSA_TAU_POINTS as f64)),
                ("consumptions", Json::Num(ssa.consumptions as f64)),
                ("passes", Json::Num(SSA_PASSES as f64)),
                (
                    "ns_per_consumption",
                    Json::Num(round2(ssa.ns_per_consumption)),
                ),
                (
                    "consumptions_per_s",
                    Json::Num((1e9 / ssa.ns_per_consumption).round()),
                ),
                ("spread", Json::Num((ssa.spread * 1e4).round() / 1e4)),
            ]),
        ),
    ]);
    let path = dmp_bench::repo_path(path);
    std::fs::write(&path, json.render_pretty()).expect("write BENCH json");
    println!("wrote {}", path.display());
}

/// `--baseline <path>`: re-measure the fast-plane rate on a mid-size grid
/// and the SSA consumption rate on a short column, and compare each against
/// the recorded `BENCH_model.json` floor (baseline / 2).
fn compare_baseline(path: &str) -> Result<(), String> {
    const TOLERANCE: f64 = 2.0;
    let resolved = dmp_bench::repo_path(path);
    let text = std::fs::read_to_string(&resolved)
        .map_err(|e| format!("cannot read baseline {}: {e}", resolved.display()))?;
    let doc = dmp_runner::json::parse(&text)
        .ok_or_else(|| format!("baseline {path} is not valid JSON"))?;
    let recorded = |block: &str, field: &str| {
        doc.get(block)
            .and_then(|t| t.get(field))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline {path} has no {block}/{field}"))
    };
    let check = |what: &str, unit: &str, rate: f64, baseline_rate: f64| {
        let floor = baseline_rate / TOLERANCE;
        if rate < floor {
            Err(format!(
                "{what} collapse vs {path}: {rate:.2} {unit} < {floor:.2} \
                 ({baseline_rate:.2} / {TOLERANCE})"
            ))
        } else {
            println!(
                "baseline OK: {what} {rate:.2} {unit} vs recorded {baseline_rate:.2} \
                 (floor {floor:.2})"
            );
            Ok(())
        }
    };
    // Warm-up, then the timed pass (rates, so grid sizes need not match).
    let mu = mu();
    let _ = plane_sweep(mu, &tau_grid(4), PLANE_THREADS);
    let taus = tau_grid(16);
    let t0 = Instant::now();
    let _ = plane_sweep(mu, &taus, PLANE_THREADS);
    let rate = taus.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    check(
        "fast plane",
        "points/s",
        rate,
        recorded("plane", "points_per_s")?,
    )?;
    let ssa = measure_ssa(100_000);
    check(
        "SSA kernel",
        "consumptions/s",
        1e9 / ssa.ns_per_consumption,
        recorded("ssa", "consumptions_per_s")?,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    if flag("--quick-smoke") {
        quick_smoke();
        if let Some(path) = value("--baseline") {
            if let Err(e) = compare_baseline(&path) {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(path) = value("--baseline") {
        if let Err(e) = compare_baseline(&path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(path) = value("--json") {
        write_json(&path);
        return;
    }
    quick_smoke();
}
