//! Differential test for the simulation engine: every figure configuration
//! (all twelve paper settings: homogeneous, heterogeneous, and correlated)
//! is run under both the reference binary-heap scheduler and the calendar
//! queue, and the rendered result JSON must be **byte-identical**. The
//! calendar queue is a pure scheduling-order-preserving optimisation; any
//! divergence here is a bug in it.
//!
//! No spec names an engine: the heap side of every comparison runs the same
//! public job builders inside `netsim::scheduler::with_engine`, on a
//! one-thread, cache-less runner (jobs run inline on the calling thread, so
//! each simulator is built under the scope — and the scope panics if none
//! was).

use dmp_core::resilience::ResilienceSpec;
use dmp_core::spec::{PullStrategy, SchedulerKind};
use dmp_runner::{Cache, JsonCodec, Runner};
use dmp_sim::configs::{setting, CORRELATED, HETEROGENEOUS, HOMOGENEOUS};
use dmp_sim::experiment::{batch_jobs, scenario_batch_jobs, ExperimentSpec, RunSummary, TraceSpec};
use netsim::scheduler::{with_engine, EngineKind};
use scenario::Scenario;

/// One shortened replication of every setting with the given scenario,
/// executed through the runner, rendered to JSON bytes.
fn all_settings_rendered(scenario: &Scenario) -> Vec<(String, String)> {
    let runner = Runner::new(1, Cache::disabled()).with_progress(false);
    let mut jobs = Vec::new();
    let mut names = Vec::new();
    for s in HOMOGENEOUS.iter().chain(&HETEROGENEOUS).chain(&CORRELATED) {
        let mut spec = ExperimentSpec::new(*s, SchedulerKind::Dynamic, 60.0, 2007);
        spec.warmup_s = 10.0;
        spec.scenario = scenario.clone();
        names.push(s.name.to_string());
        jobs.extend(batch_jobs(&spec, 1, &[2.0, 6.0]));
    }
    let cells = runner.run_all(jobs);
    names
        .into_iter()
        .zip(cells)
        .map(|(name, cell)| {
            let summary: &RunSummary = cell.ok().expect("simulation job must not fail");
            (name, summary.to_json().render())
        })
        .collect()
}

#[test]
fn calendar_queue_matches_heap_reference_on_every_setting() {
    let heap = with_engine(EngineKind::Heap, || {
        all_settings_rendered(&Scenario::default())
    });
    let calendar = all_settings_rendered(&Scenario::default());
    assert_eq!(heap.len(), 12);
    for ((name_h, bytes_h), (name_c, bytes_c)) in heap.iter().zip(&calendar) {
        assert_eq!(name_h, name_c);
        assert_eq!(
            bytes_h, bytes_c,
            "setting {name_h}: calendar-queue artifact diverges from the heap reference"
        );
    }
}

/// A shortened failover scenario batch (two replications), traced or not.
/// Returns the rendered per-run summaries and, for traced runs, each run's
/// trace file contents keyed by job label (the process-wide obs registry is
/// drained, so callers must not run concurrently with other registry users).
fn failover_batch(
    threads: usize,
    trace_dir: Option<&std::path::Path>,
) -> (Vec<String>, Vec<(String, Vec<u8>)>) {
    let scn = Scenario::named("failover")
        .at(20.0, 0, scenario::Event::PathDown)
        .at(30.0, 0, scenario::Event::PathUp);
    let mut spec = ExperimentSpec::new(*setting("2-2").unwrap(), SchedulerKind::Dynamic, 60.0, 77);
    spec.warmup_s = 10.0;
    spec.scenario = scn;
    if let Some(dir) = trace_dir {
        spec.trace = TraceSpec::on(""); // per-run labels come from the jobs
        spec.trace.dir = Some(dir.to_path_buf());
    }
    let res = ResilienceSpec {
        tau_s: 4.0,
        window_s: 10.0,
        fail_at_s: Some(20.0),
    };
    let runner = Runner::new(threads, Cache::disabled()).with_progress(false);
    let cells = runner.run_all(scenario_batch_jobs(&spec, 2, &[4.0], res));
    let rendered = cells
        .iter()
        .map(|c| {
            c.ok()
                .expect("simulation job must not fail")
                .to_json()
                .render()
        })
        .collect();
    let traces = obs::drain_trace_files()
        .into_iter()
        .map(|f| {
            let bytes = std::fs::read(&f.path).expect("trace file exists");
            assert_eq!(
                bytes.iter().filter(|&&b| b == b'\n').count() as u64,
                f.events,
                "registered event count must match the file"
            );
            (f.label, bytes)
        })
        .collect();
    (rendered, traces)
}

/// The flight recorder must be invisible in every deterministic result and
/// the trace itself must be byte-identical across scheduler engines and
/// runner thread counts. One test function, because the obs registry is
/// process-global and tests in one binary run concurrently.
#[test]
fn tracing_is_result_neutral_and_trace_bytes_are_engine_and_thread_invariant() {
    let base = std::env::temp_dir().join(format!("dmp-sim-trace-diff-{}", std::process::id()));
    let dir_cal = base.join("cal");
    let dir_heap = base.join("heap");
    let dir_mt = base.join("mt");

    let (untraced, none) = failover_batch(1, None);
    assert!(
        none.is_empty(),
        "untraced runs must register no trace files"
    );

    let (traced, cal) = failover_batch(1, Some(&dir_cal));
    assert_eq!(
        untraced, traced,
        "tracing changed a deterministic result (it must be behaviour-neutral)"
    );
    assert_eq!(cal.len(), 2, "one trace file per replication");

    // Engine invariance: the heap reference dispatches the same events in
    // the same order, so the trace bytes cannot differ.
    let (_, heap) = with_engine(EngineKind::Heap, || failover_batch(1, Some(&dir_heap)));
    assert_eq!(cal, heap, "trace bytes diverge between scheduler engines");

    // Thread-count invariance: each run writes its own file and the registry
    // drain sorts by label, so 8 workers produce the same bytes as 1.
    let (_, mt) = failover_batch(8, Some(&dir_mt));
    assert_eq!(cal, mt, "trace bytes depend on runner thread count");

    // The trace actually contains the layers' events: header, TCP state,
    // queue samples, scheduler decisions, deliveries, and the scripted fault.
    let text = String::from_utf8(cal[0].1.clone()).unwrap();
    for needle in [
        "\"ev\":\"path_conn\"",
        "\"ev\":\"cwnd\"",
        "\"ev\":\"link_q\"",
        "\"ev\":\"pull\"",
        "\"ev\":\"gen\"",
        "\"ev\":\"dlv\"",
        "\"ev\":\"path_ev\"",
        "\"action\":\"down\"",
        "\"action\":\"up\"",
    ] {
        assert!(text.contains(needle), "trace is missing {needle}");
    }

    std::fs::remove_dir_all(&base).ok();
}

/// A named-but-empty scenario takes a different cache key (so it never
/// collides with the scenario-free baseline) but must not perturb a single
/// byte of any rendered artifact, under either engine.
#[test]
fn noop_scenario_is_byte_identical_to_baseline_on_every_setting() {
    let noop = Scenario::named("noop");
    for engine in [EngineKind::Calendar, EngineKind::Heap] {
        let (baseline, scripted) = with_engine(engine, || {
            (
                all_settings_rendered(&Scenario::default()),
                all_settings_rendered(&noop),
            )
        });
        assert_eq!(baseline.len(), 12);
        for ((name_b, bytes_b), (name_s, bytes_s)) in baseline.iter().zip(&scripted) {
            assert_eq!(name_b, name_s);
            assert_eq!(
                bytes_b, bytes_s,
                "setting {name_b} ({engine:?}): a no-op scenario changed the artifact"
            );
        }
    }
}

/// One shortened "2-2" run with the given congestion control and pull
/// strategy, rendered to JSON bytes.
fn rendered_22(kind: cc::CcKind, strategy: PullStrategy) -> String {
    let mut spec =
        ExperimentSpec::new(*setting("2-2").unwrap(), SchedulerKind::Dynamic, 60.0, 2007);
    spec.warmup_s = 10.0;
    spec.cc = kind;
    spec.strategy = strategy;
    let runner = Runner::new(1, Cache::disabled()).with_progress(false);
    let cells = runner.run_all(batch_jobs(&spec, 1, &[2.0, 6.0]));
    cells[0]
        .ok()
        .expect("simulation job must not fail")
        .to_json()
        .render()
}

/// Every congestion-control algorithm must be engine-invariant: the cc logic
/// consumes only simulated time and the ACK stream, so any divergence between
/// the heap reference and the calendar queue is an engine bug. The grid also
/// proves the `cc` knob is actually wired through: the three algorithms must
/// not all produce the same artifact.
#[test]
fn cc_algorithms_are_engine_invariant_and_distinct() {
    let mut by_kind = Vec::new();
    for kind in cc::CcKind::all() {
        let heap = with_engine(EngineKind::Heap, || {
            rendered_22(kind, PullStrategy::RoundRobin)
        });
        let calendar = rendered_22(kind, PullStrategy::RoundRobin);
        assert_eq!(
            heap, calendar,
            "cc {kind:?}: calendar-queue artifact diverges from the heap reference"
        );
        by_kind.push(heap);
    }
    assert!(
        by_kind.windows(2).any(|w| w[0] != w[1]),
        "all congestion-control algorithms rendered identical artifacts — the knob is not wired"
    );
}

/// Every pull strategy must be engine-invariant, and the non-default
/// strategies must actually change scheduling (RoundRobin is the historical
/// baseline; RedundantDuplicate at minimum must differ, since it duplicates
/// packets across paths).
#[test]
fn pull_strategies_are_engine_invariant_and_wired() {
    let mut by_strategy = Vec::new();
    for strategy in PullStrategy::all() {
        let heap = with_engine(EngineKind::Heap, || rendered_22(cc::CcKind::Reno, strategy));
        let calendar = rendered_22(cc::CcKind::Reno, strategy);
        assert_eq!(
            heap, calendar,
            "strategy {strategy:?}: calendar-queue artifact diverges from the heap reference"
        );
        by_strategy.push((strategy, heap));
    }
    let rr = &by_strategy[0].1;
    assert_eq!(by_strategy[0].0, PullStrategy::RoundRobin);
    let dup = by_strategy
        .iter()
        .find(|(s, _)| *s == PullStrategy::RedundantDuplicate)
        .map(|(_, b)| b)
        .expect("grid covers RedundantDuplicate");
    assert_ne!(
        rr, dup,
        "redundant duplication rendered the round-robin artifact — the strategy is not wired"
    );
}
