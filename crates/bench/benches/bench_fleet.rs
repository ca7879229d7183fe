//! Fleet throughput benchmark: aggregate simulated events/sec across a
//! sharded fleet of churning DMP sessions, plus the thread-scaling
//! measurement the fleet layer exists for — shards fan across the runner's
//! work-stealing pool, so events/sec should grow with cores while the
//! artifact stays byte-identical.
//!
//! Modes (args after `--` reach this binary):
//!
//! * `--quick-smoke`, also what runs when no mode is named — tiny fleet
//!   asserting 1-thread and 8-thread runs produce byte-identical artifacts
//!   (CI gate; seconds).
//! * `--baseline <BENCH_fleet.json>` (combinable with `--quick-smoke`) —
//!   re-measure aggregate events/sec and fail (exit 1) on a collapse below
//!   half the recorded baseline. Loose on purpose: CI boxes are slower than
//!   the one that wrote the baseline; the gate catches order-of-magnitude
//!   regressions, not percent-level drift.
//! * `--json <path>` — measure events/sec at several fleet sizes and the
//!   1-vs-8-thread scaling ratio, and write the `BENCH_fleet.json`
//!   perf-trajectory artifact. The speedup is reported honestly: on a
//!   single-core machine it is ~1.0 by construction.

use std::time::Instant;

use dmp_fleet::{run_fleet, FleetOptions, FleetSpec};
use dmp_runner::{Cache, Json, Runner};
use scenario::FleetTimeline;

/// Fleet sizes measured by `--json` and the default bench:
/// (name, sessions, sessions per shard).
const FLEETS: [(&str, u32, u32); 3] = [("small", 8, 4), ("medium", 16, 4), ("large", 32, 8)];

/// The canonical fleet the baseline gate re-measures.
const GATE_FLEET: (&str, u32, u32) = FLEETS[1];

/// A churn fleet with a flash-crowd spike — the `ext_fleet` shape, scaled
/// for benching.
fn spec(sessions: u32, shard_sessions: u32, duration_s: f64) -> FleetSpec {
    let mut spec = FleetSpec::new("bench", sessions, shard_sessions, 2007);
    spec.duration_s = duration_s;
    spec.warmup_s = 2.0;
    spec.arrival_rate_per_s = shard_sessions as f64 / duration_s * 1.8;
    spec.mean_hold_s = duration_s * 0.4;
    spec.timeline = FleetTimeline::named("flash").spike(0.3 * duration_s, 4.0, 0.25 * duration_s);
    spec
}

/// One uncached fleet run: (artifact bytes, total engine events, wall secs).
fn run_once(threads: usize, spec: &FleetSpec) -> (String, u64, f64) {
    let runner = Runner::new(threads, Cache::disabled());
    let t0 = Instant::now();
    let result = run_fleet(&runner, spec, &FleetOptions::default());
    let wall = t0.elapsed().as_secs_f64();
    (result.artifact(spec).render(), result.total_events(), wall)
}

/// `--quick-smoke`: thread determinism, fast.
fn quick_smoke() {
    let s = spec(6, 3, 15.0);
    let (serial_art, events, _) = run_once(1, &s);
    let (threaded_art, _, _) = run_once(8, &s);
    assert_eq!(
        serial_art, threaded_art,
        "fleet artifact changed between 1 and 8 runner threads"
    );
    println!("quick-smoke OK: 1-thread and 8-thread artifacts byte-identical ({events} events)");
}

/// One timed measurement of a fleet: aggregate simulated events per
/// wall-clock second on `threads` runner threads.
fn measure(sessions: u32, shard_sessions: u32, threads: usize) -> (u64, f64) {
    let s = spec(sessions, shard_sessions, 30.0);
    let (_, events, wall) = run_once(threads, &s);
    (events, events as f64 / wall.max(1e-9))
}

/// `--json <path>`: measure the size sweep and the thread-scaling ratio and
/// write the perf-trajectory artifact.
fn write_json(path: &str) {
    // Warm-up pass (page in code and allocator), then timed passes.
    let _ = measure(4, 2, 1);
    let mut fleet_rows = Vec::new();
    for (name, sessions, shard_sessions) in FLEETS {
        let (events, eps) = measure(sessions, shard_sessions, 1);
        println!("fleet/{name}: {sessions} sessions, {events} events, {eps:.0} events/s");
        fleet_rows.push((
            name,
            Json::obj([
                ("sessions", Json::Num(f64::from(sessions))),
                (
                    "shards",
                    Json::Num(f64::from(sessions.div_ceil(shard_sessions))),
                ),
                ("events", Json::Num(events as f64)),
                ("events_per_s", Json::Num(eps.round())),
            ]),
        ));
    }
    let (_, sessions, shard_sessions) = GATE_FLEET;
    let scaling_spec = spec(sessions, shard_sessions, 30.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (art_1, events_1, wall_1) = run_once(1, &scaling_spec);
    let (art_8, _, wall_8) = run_once(8, &scaling_spec);
    let eps_1 = events_1 as f64 / wall_1.max(1e-9);
    let eps_8 = events_1 as f64 / wall_8.max(1e-9);
    let identical = art_1 == art_8;
    // The determinism half of the claim (byte-identical artifacts) holds on
    // any machine; the speedup half is only a measurement when the box can
    // actually run the 8 workers in parallel. On fewer than 8 cores the
    // ratio is scheduling noise, so it is reported as null rather than as a
    // number a reader might mistake for a scaling result.
    let speedup = if cores >= 8 {
        Some(eps_8 / eps_1.max(1e-9))
    } else {
        None
    };
    match speedup {
        Some(s) => println!(
            "thread scaling: {eps_1:.0} events/s on 1 thread, {eps_8:.0} on 8 \
             ({cores} cores, speedup {s:.2}x), artifacts {}",
            if identical { "identical" } else { "DIVERGED" }
        ),
        None => println!(
            "thread scaling: {cores} core(s) < 8 — speedup not measurable on this \
             machine (recorded as null); artifacts {}",
            if identical { "identical" } else { "DIVERGED" }
        ),
    }
    let json = Json::obj([
        // v2: thread_scaling gained "cores"; "speedup" became nullable
        // (null = the box had fewer than 8 cores, so no honest measurement).
        ("schema", Json::Str("bench_fleet/v2".into())),
        ("bench", Json::Str("bench_fleet".into())),
        ("fleets", Json::obj(fleet_rows)),
        (
            "thread_scaling",
            Json::obj([
                ("cores", Json::Num(cores as f64)),
                ("events_per_s_1_thread", Json::Num(eps_1.round())),
                ("events_per_s_8_threads", Json::Num(eps_8.round())),
                (
                    "speedup",
                    match speedup {
                        Some(s) => Json::Num((s * 100.0).round() / 100.0),
                        None => Json::Null,
                    },
                ),
                ("artifacts_identical", Json::Bool(identical)),
            ]),
        ),
    ]);
    let path = dmp_bench::repo_path(path);
    std::fs::write(&path, json.render_pretty()).expect("write BENCH json");
    println!("wrote {}", path.display());
}

/// `--baseline <path>`: re-measure the gate fleet and compare aggregate
/// events/sec against the recorded `BENCH_fleet.json` floor (baseline / 2).
fn compare_baseline(path: &str) -> Result<(), String> {
    const TOLERANCE: f64 = 2.0;
    let resolved = dmp_bench::repo_path(path);
    let text = std::fs::read_to_string(&resolved)
        .map_err(|e| format!("cannot read baseline {}: {e}", resolved.display()))?;
    let doc = dmp_runner::json::parse(&text)
        .ok_or_else(|| format!("baseline {path} is not valid JSON"))?;
    let (name, sessions, shard_sessions) = GATE_FLEET;
    let baseline_eps = doc
        .get("fleets")
        .and_then(|f| f.get(name))
        .and_then(|f| f.get("events_per_s"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("baseline {path} has no fleets/{name}/events_per_s"))?;
    // Warm-up, then the timed pass (rates, so durations need not match).
    let _ = measure(4, 2, 1);
    let (_, eps) = measure(sessions, shard_sessions, 1);
    let floor = baseline_eps / TOLERANCE;
    if eps < floor {
        Err(format!(
            "fleet throughput collapse vs {path}: {eps:.0} events/s < {floor:.0} \
             ({baseline_eps:.0} / {TOLERANCE})"
        ))
    } else {
        println!(
            "baseline OK: fleet/{name} {eps:.0} events/s vs recorded {baseline_eps:.0} \
             (floor {floor:.0})"
        );
        Ok(())
    }
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
