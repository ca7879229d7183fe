//! Engine throughput benchmark: events/sec on three canonical topologies,
//! under both the heap and calendar-queue schedulers.
//!
//! Modes (args after `--` reach this binary):
//!
//! * `--quick-smoke`, also what runs when no mode is named — tiny-scale run
//!   asserting both engines agree exactly (CI gate; seconds, not minutes).
//! * `--baseline <BENCH_netsim.json>` (combinable with `--quick-smoke`) —
//!   re-measure events/sec per topology and fail (exit 1) if any topology
//!   collapses below half of the recorded baseline. The 2x tolerance is
//!   deliberately loose: CI machines are slower and noisier than the box
//!   that wrote the baseline; the gate exists to catch order-of-magnitude
//!   engine regressions, not percent-level drift.
//! * `--json <path> [--repro-baseline-s X --repro-current-s Y]` — measure
//!   and write the `BENCH_netsim.json` perf-trajectory artifact, optionally
//!   recording the cold `dmp-bench all --quick` serial-equivalent seconds.

use std::time::Instant;

use dmp_core::spec::SchedulerKind;
use dmp_runner::Json;
use netsim::app::App;
use netsim::apps::{Ftp, HttpParams, HttpSession};
use netsim::link::LinkSpec;
use netsim::sim::{Sim, SimApi};
use netsim::tcp::{SinkConfig, TcpConfig};
use netsim::time::{secs, SECOND};
use netsim::{EngineKind, FlowId};

struct FtpStarter {
    flow: FlowId,
}
impl App for FtpStarter {
    fn start(&mut self, api: &mut SimApi<'_>) {
        api.set_backlogged(self.flow, None);
    }
}

/// Fingerprint of a run: must be identical across engines.
type Digest = (u64, u64, u64);

/// What a topology runner reports: scheduler events dispatched, packet
/// transits delivered (one event can carry several under coalesced
/// delivery — reporting both keeps the events/sec trajectory honest), and
/// the engine-invariant digest.
struct TopoRun {
    events: u64,
    transits: u64,
    digest: Digest,
}

/// Topology 1: two hosts, one clean 10 Mbps / 10 ms pipe, one backlogged
/// FTP. The minimal engine hot loop: serialisation + arrival + ACK events.
fn run_two_host(engine: EngineKind, dur_s: f64) -> TopoRun {
    let mut sim = Sim::with_engine(1, engine);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let (f, r) = sim.add_duplex(a, b, LinkSpec::from_table(10.0, 10.0, 100));
    sim.add_route(a, b, f);
    sim.add_route(b, a, r);
    let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
    sim.add_app(Box::new(FtpStarter { flow }));
    sim.run_until(secs(dur_s));
    TopoRun {
        events: sim.events_processed(),
        transits: sim.transits(),
        digest: (
            sim.sink(flow).stats.delivered,
            sim.sender(flow).stats.retransmits,
            sim.events_processed(),
        ),
    }
}

/// Topology 2: a congested Table 1 config-2-like bottleneck (3.7 Mbps, 1 ms,
/// 50-packet buffer) shared by 9 FTPs and 40 on/off HTTP sessions. Loss,
/// retransmission timers, and app timers all active — the background-traffic
/// workload that dominates the figure sweeps.
fn run_bottleneck_bg(engine: EngineKind, dur_s: f64) -> TopoRun {
    let mut sim = Sim::with_engine(2, engine);
    let a = sim.add_node("src");
    let b = sim.add_node("dst");
    let (f, r) = sim.add_duplex(a, b, LinkSpec::from_table(3.7, 1.0, 50));
    sim.add_route(a, b, f);
    sim.add_route(b, a, r);
    let bg_cfg = TcpConfig {
        max_wnd: 20,
        ..TcpConfig::default()
    };
    let mut flows = Vec::new();
    for i in 0..9u64 {
        let flow = sim.add_flow(a, b, bg_cfg, SinkConfig::default());
        flows.push(flow);
        sim.add_app(Box::new(Ftp::new(flow, i * SECOND / 10)));
    }
    for i in 0..40u64 {
        let flow = sim.add_flow(a, b, bg_cfg, SinkConfig::default());
        flows.push(flow);
        sim.add_app(Box::new(HttpSession::new(
            flow,
            HttpParams::default(),
            i * SECOND / 20,
        )));
    }
    sim.run_until(secs(dur_s));
    let mut delivered = 0;
    let mut dropped = 0;
    for &flow in &flows {
        delivered += sim.sink(flow).stats.delivered;
        dropped += sim.flow_counters(flow).data_dropped;
    }
    TopoRun {
        events: sim.events_processed(),
        transits: sim.transits(),
        digest: (delivered, dropped, sim.events_processed()),
    }
}

/// Topology 3: the paper's Setting 2-2 multipath video run (DMP scheduler,
/// two independent congested paths, full background traffic) — the workload
/// the paper targets actually spend their time in. Events counted via the
/// engine telemetry delta because `dmp_sim::experiment::run` owns the `Sim`.
fn run_multipath_video(engine: EngineKind, dur_s: f64) -> TopoRun {
    let setting = *dmp_sim::configs::setting("2-2").expect("setting 2-2 exists");
    let mut spec =
        dmp_sim::experiment::ExperimentSpec::new(setting, SchedulerKind::Dynamic, dur_s, 2007);
    spec.warmup_s = 10.0;
    let before = netsim::telemetry::snapshot();
    let out = netsim::scheduler::with_engine(engine, || dmp_sim::experiment::run(&spec));
    let delta = netsim::telemetry::snapshot().delta(&before);
    TopoRun {
        events: delta.events_processed,
        transits: delta.transits,
        digest: (
            out.trace.delivered(),
            out.trace.generated(),
            (out.paths.iter().map(|p| p.share).sum::<f64>() * 1e9) as u64,
        ),
    }
}

type TopoFn = fn(EngineKind, f64) -> TopoRun;

const TOPOLOGIES: [(&str, TopoFn, f64); 3] = [
    ("two_host", run_two_host, 60.0),
    ("bottleneck_bg", run_bottleneck_bg, 60.0),
    ("multipath_video", run_multipath_video, 60.0),
];

const ENGINES: [(&str, EngineKind); 2] = [
    ("heap", EngineKind::Heap),
    ("calendar", EngineKind::Calendar),
];

/// One timed measurement: `(run, events/s, transits/s)` per wall-clock
/// second. Best-of-3: the simulation is deterministic, so the fastest pass
/// is the least scheduler-perturbed estimate of the engine's cost — on the
/// shared boxes these run on, a single pass can be off by 2x.
fn measure(f: TopoFn, engine: EngineKind, dur_s: f64) -> (TopoRun, f64, f64) {
    let mut best: Option<(TopoRun, f64)> = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let run = f(engine, dur_s);
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        if best.as_ref().is_none_or(|(_, w)| wall < *w) {
            best = Some((run, wall));
        }
    }
    let (run, wall) = best.expect("three passes ran");
    let eps = run.events as f64 / wall;
    let tps = run.transits as f64 / wall;
    (run, eps, tps)
}

/// `--quick-smoke`: both engines must produce identical simulations, fast.
fn quick_smoke() {
    for (name, f, _) in TOPOLOGIES {
        let dur = if name == "multipath_video" {
            20.0
        } else {
            10.0
        };
        let heap = f(EngineKind::Heap, dur);
        let cal = f(EngineKind::Calendar, dur);
        assert_eq!(
            heap.digest, cal.digest,
            "{name}: engines disagree (heap vs calendar digest)"
        );
        assert_eq!(heap.transits, cal.transits, "{name}: transit counts differ");
        println!(
            "smoke {name}: engines agree, digest {:?}, {} transits",
            heap.digest, heap.transits
        );
    }
    println!("quick-smoke OK: heap and calendar engines agree on all topologies");
}

/// `--json <path>`: measure all topologies × engines and write the
/// perf-trajectory artifact.
fn write_json(path: &str, repro_baseline_s: Option<f64>, repro_current_s: Option<f64>) {
    let mut topo_rows = Vec::new();
    for (name, f, dur_s) in TOPOLOGIES {
        // Warm-up pass (page in code and allocator), then the timed pass.
        let _ = f(EngineKind::Calendar, 5.0);
        let mut engine_rows = Vec::new();
        for (ename, engine) in ENGINES {
            let (run, eps, tps) = measure(f, engine, dur_s);
            println!(
                "{name}/{ename}: {} events ({} transits), {eps:.0} events/s, {tps:.0} transits/s",
                run.events, run.transits
            );
            engine_rows.push((
                ename,
                Json::obj([
                    ("events", Json::Num(run.events as f64)),
                    ("events_per_s", Json::Num(eps.round())),
                    ("transits", Json::Num(run.transits as f64)),
                    ("transits_per_s", Json::Num(tps.round())),
                ]),
            ));
        }
        topo_rows.push((
            name,
            Json::obj([
                ("sim_duration_s", Json::Num(dur_s)),
                ("engines", Json::obj(engine_rows)),
            ]),
        ));
    }
    let mut fields = vec![
        // v2: coalesced link delivery — events shrank per transit, so the
        // artifact reports transits/sec alongside events/sec.
        ("schema", Json::Str("bench_netsim/v2".into())),
        ("bench", Json::Str("bench_engine".into())),
        ("topologies", Json::obj(topo_rows)),
    ];
    let mut repro = Vec::new();
    if let Some(b) = repro_baseline_s {
        repro.push(("baseline_serial_equiv_s", Json::Num(b)));
    }
    if let Some(c) = repro_current_s {
        repro.push(("current_serial_equiv_s", Json::Num(c)));
    }
    if let (Some(b), Some(c)) = (repro_baseline_s, repro_current_s) {
        repro.push(("speedup", Json::Num((b / c * 100.0).round() / 100.0)));
    }
    if !repro.is_empty() {
        fields.push(("repro_all_quick", Json::obj(repro)));
    }
    let json = Json::obj(fields);
    let path = dmp_bench::repo_path(path);
    std::fs::write(&path, json.render_pretty()).expect("write BENCH json");
    println!("wrote {}", path.display());
}

/// `--baseline <path>`: re-measure each topology × engine at smoke duration
/// and compare events/sec against the recorded `BENCH_netsim.json`. Only a
/// collapse below `1/TOLERANCE` of the baseline fails — the baseline was
/// written on one particular machine and CI runners are legitimately slower.
fn compare_baseline(path: &str) -> Result<(), String> {
    const TOLERANCE: f64 = 2.0;
    let resolved = dmp_bench::repo_path(path);
    let text = std::fs::read_to_string(&resolved)
        .map_err(|e| format!("cannot read baseline {}: {e}", resolved.display()))?;
    let doc = dmp_runner::json::parse(&text)
        .ok_or_else(|| format!("baseline {path} is not valid JSON"))?;
    let topologies = doc
        .get("topologies")
        .ok_or_else(|| format!("baseline {path} has no `topologies` object"))?;
    let mut failures = Vec::new();
    for (name, f, _) in TOPOLOGIES {
        // Warm-up, then a short timed pass (the gate compares rates, so the
        // measured duration need not match the baseline's).
        let _ = f(EngineKind::Calendar, 5.0);
        for (ename, engine) in ENGINES {
            let baseline_eps = topologies
                .get(name)
                .and_then(|t| t.get("engines"))
                .and_then(|e| e.get(ename))
                .and_then(|e| e.get("events_per_s"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline {path} has no {name}/{ename} events_per_s"))?;
            let (_, eps, _) = measure(f, engine, 20.0);
            let floor = baseline_eps / TOLERANCE;
            let verdict = if eps < floor { "COLLAPSE" } else { "ok" };
            println!(
                "baseline {name}/{ename}: {eps:.0} events/s vs recorded {baseline_eps:.0} \
                 (floor {floor:.0}) {verdict}"
            );
            if eps < floor {
                failures.push(format!(
                    "{name}/{ename}: {eps:.0} events/s < {floor:.0} ({baseline_eps:.0} / {TOLERANCE})"
                ));
            }
        }
    }
    if failures.is_empty() {
        println!("baseline OK: all topologies within {TOLERANCE}x of {path}");
        Ok(())
    } else {
        Err(format!(
            "throughput collapse vs {path}: {}",
            failures.join("; ")
        ))
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
        let base = value("--repro-baseline-s").and_then(|v| v.parse().ok());
        let cur = value("--repro-current-s").and_then(|v| v.parse().ok());
        write_json(&path, base, cur);
        return;
    }
    quick_smoke();
}
