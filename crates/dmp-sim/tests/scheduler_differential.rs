//! Whole-experiment invariance tests for the simulation engine and the
//! scheme: every figure configuration (all twelve paper settings:
//! homogeneous, heterogeneous, and correlated), the cc × strategy grids and
//! the traced failover batch, each rendered to bytes and held to what must
//! not change it — a no-op scenario, the flight recorder, the runner's
//! thread count — or to digests read off earlier code.
//!
//! Every simulation here runs under the event queue's contract check (debug
//! builds, `netsim::scheduler`): each pop is held to strictly increasing
//! `(time, seq)` order and each refusal to "nothing due", which fixes the
//! event sequence any conforming queue dispatches: where a test name below
//! says engine-invariant, that check is what makes it so.

use std::path::Path;

use dmp_core::resilience::ResilienceSpec;
use dmp_core::spec::{PullStrategy, SchedulerKind};
use dmp_runner::hash::hex_digest;
use dmp_runner::{Cache, JsonCodec, Runner};
use dmp_sim::configs::{setting, CORRELATED, HETEROGENEOUS, HOMOGENEOUS};
use dmp_sim::experiment::{batch_jobs, scenario_batch_jobs, ExperimentSpec, RunSummary, TraceSpec};
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

/// A shortened failover scenario batch (two replications) under
/// `scheduler`, traced or not. Returns the rendered per-run summaries and
/// the trace files the runs returned, as (label, contents) — each checked
/// to hold the event count its reference names.
fn failover_batch(
    scheduler: SchedulerKind,
    threads: usize,
    trace_dir: Option<&Path>,
) -> (Vec<String>, Vec<(String, Vec<u8>)>) {
    let scn = Scenario::named("failover")
        .at(20.0, 0, scenario::Event::PathDown)
        .at(30.0, 0, scenario::Event::PathUp);
    let mut spec = ExperimentSpec::new(*setting("2-2").unwrap(), scheduler, 60.0, 77);
    spec.warmup_s = 10.0;
    spec.scenario = scn;
    // Per-run labels come from the jobs.
    spec.trace = trace_dir.map(|dir| TraceSpec::new("", dir));
    let res = ResilienceSpec {
        tau_s: 4.0,
        window_s: 10.0,
        fail_at_s: Some(20.0),
    };
    let runner = Runner::new(threads, Cache::disabled()).with_progress(false);
    let cells = runner.run_all(scenario_batch_jobs(&spec, 2, &[4.0], res));
    let summaries: Vec<_> = cells
        .iter()
        .map(|c| c.ok().expect("simulation job must not fail"))
        .collect();
    let rendered = summaries.iter().map(|s| s.to_json().render()).collect();
    let traces = summaries
        .iter()
        .filter_map(|s| s.summary.trace_file.as_ref())
        .map(|f| (f.label.clone(), trace_bytes(f)))
        .collect();
    (rendered, traces)
}

/// The file a trace reference names, checked to hold `events` lines.
fn trace_bytes(f: &obs::TraceFileRef) -> Vec<u8> {
    let bytes = std::fs::read(&f.path).expect("trace file exists");
    assert_eq!(
        bytes.iter().filter(|&&b| b == b'\n').count() as u64,
        f.events,
        "{}: the returned event count must match the file",
        f.label
    );
    bytes
}

/// The flight recorder must be invisible in every deterministic result and
/// the trace itself must be byte-identical across runner thread counts;
/// engine invariance is the contract check's (module docs).
#[test]
fn tracing_is_result_neutral_and_trace_bytes_are_engine_and_thread_invariant() {
    let base = std::env::temp_dir().join(format!("dmp-sim-trace-diff-{}", std::process::id()));
    let dir_one = base.join("one");
    let dir_mt = base.join("mt");

    let dynamic = SchedulerKind::Dynamic;
    let (untraced, none) = failover_batch(dynamic, 1, None);
    assert!(none.is_empty(), "untraced runs must return no trace files");

    let (traced, one) = failover_batch(dynamic, 1, Some(&dir_one));
    assert_eq!(
        untraced, traced,
        "tracing changed a deterministic result (it must be behaviour-neutral)"
    );
    assert_eq!(one.len(), 2, "one trace file per replication");

    // Thread-count invariance: each run writes its own file and returns it
    // in its own result, so 8 workers produce the same bytes as 1.
    let (_, mt) = failover_batch(dynamic, 8, Some(&dir_mt));
    assert_eq!(one, mt, "trace bytes depend on runner thread count");

    // The trace actually contains the layers' events: header, TCP state,
    // queue samples, scheduler decisions, deliveries, and the scripted fault.
    let text = String::from_utf8(one[0].1.clone()).unwrap();
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

/// Two different traced batches at once, from two threads: each result lists
/// exactly its own trace files — its own labels, each file holding the event
/// count it names — whichever batch finishes first.
#[test]
fn concurrent_traced_batches_each_return_their_own_trace_files() {
    let base = std::env::temp_dir().join(format!("dmp-sim-trace-pair-{}", std::process::id()));
    let schedulers = [SchedulerKind::Dynamic, SchedulerKind::Static];
    let start = std::sync::Barrier::new(schedulers.len());
    let batches = std::thread::scope(|s| {
        let runs = schedulers.map(|sched| {
            let (dir, start) = (base.join(format!("{sched:?}")), &start);
            s.spawn(move || {
                start.wait(); // both batches record at once
                failover_batch(sched, 1, Some(&dir)).1
            })
        });
        runs.map(|run| run.join().expect("batch thread"))
    });
    for (sched, traces) in schedulers.iter().zip(&batches) {
        let labels: Vec<&str> = traces.iter().map(|(label, _)| label.as_str()).collect();
        let want: Vec<String> = (0..2)
            .map(|i| format!("scn:failover:2-2:{sched:?}:run{i}"))
            .collect();
        assert_eq!(labels, want, "{sched:?} returned another batch's traces");
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A named-but-empty scenario takes a different cache key (so it never
/// collides with the scenario-free baseline) but must not perturb a single
/// byte of any rendered artifact. The baseline is every paper setting's
/// run, under the contract check.
#[test]
fn noop_scenario_is_byte_identical_to_baseline_on_every_setting() {
    let baseline = all_settings_rendered(&Scenario::default());
    let scripted = all_settings_rendered(&Scenario::named("noop"));
    assert_eq!(baseline.len(), 12);
    for ((name_b, bytes_b), (name_s, bytes_s)) in baseline.iter().zip(&scripted) {
        assert_eq!(name_b, name_s);
        assert_eq!(
            bytes_b, bytes_s,
            "setting {name_b}: a no-op scenario changed the artifact"
        );
    }
}

/// The shortened "2-2" spec of the cc × strategy grids.
fn spec_22(scheduler: SchedulerKind, kind: cc::CcKind, strategy: PullStrategy) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(*setting("2-2").unwrap(), scheduler, 60.0, 2007);
    spec.warmup_s = 10.0;
    spec.cc = kind;
    spec.strategy = strategy;
    spec
}

/// One replication of `spec`, rendered to JSON bytes.
fn rendered(spec: &ExperimentSpec) -> String {
    let runner = Runner::new(1, Cache::disabled()).with_progress(false);
    let cells = runner.run_all(batch_jobs(spec, 1, &[2.0, 6.0]));
    cells[0]
        .ok()
        .expect("simulation job must not fail")
        .to_json()
        .render()
}

/// One shortened "2-2" run with the given scheduler, congestion control and
/// pull strategy, rendered to JSON bytes.
fn rendered_22(scheduler: SchedulerKind, kind: cc::CcKind, strategy: PullStrategy) -> String {
    rendered(&spec_22(scheduler, kind, strategy))
}

/// Every congestion-control algorithm runs under the contract check (the cc
/// logic consumes only simulated time and the ACK stream, so that fixes its
/// run), and the `cc` knob is actually wired through: the three algorithms
/// must not all produce the same artifact.
#[test]
fn cc_algorithms_are_engine_invariant_and_distinct() {
    let by_kind: Vec<String> = cc::CcKind::all()
        .into_iter()
        .map(|kind| rendered_22(SchedulerKind::Dynamic, kind, PullStrategy::RoundRobin))
        .collect();
    assert!(
        by_kind.windows(2).any(|w| w[0] != w[1]),
        "all congestion-control algorithms rendered identical artifacts — the knob is not wired"
    );
}

/// Every pull strategy runs under the contract check, and the non-default
/// strategies must actually change scheduling (RoundRobin is the historical
/// baseline; RedundantDuplicate at minimum must differ, since it duplicates
/// packets across paths).
#[test]
fn pull_strategies_are_engine_invariant_and_wired() {
    let by_strategy: Vec<(PullStrategy, String)> = PullStrategy::all()
        .into_iter()
        .map(|s| (s, rendered_22(SchedulerKind::Dynamic, cc::CcKind::Reno, s)))
        .collect();
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

/// FNV digests of one traced replication of `spec`: the rendered
/// `RunSummary` and the JSONL bytes of the trace file it returned.
fn golden_digests(mut spec: ExperimentSpec, dir: &Path) -> (String, String) {
    spec.trace = Some(TraceSpec::new("golden", dir));
    let summary = dmp_sim::run_summary(&spec, &[2.0, 6.0]);
    let jsonl = trace_bytes(
        summary
            .trace_file
            .as_ref()
            .expect("a traced run returns its file"),
    );
    let json = summary.to_json().render();
    (hex_digest(json.as_bytes()), hex_digest(&jsonl))
}

/// The shortened run with both paths down from 10 s to 25 s of the video:
/// whatever is generated meanwhile waits at the server, the oldest of it for
/// longer than `PULL_DEADLINE_S`, and is served (or dropped) once the paths
/// are back.
fn spec_outage(scheduler: SchedulerKind, strategy: PullStrategy) -> ExperimentSpec {
    let mut spec = spec_22(scheduler, cc::CcKind::Reno, strategy);
    spec.scenario = (0..2).fold(Scenario::named("outage"), |scn, path| {
        scn.at(10.0, path, scenario::Event::PathDown)
            .at(25.0, path, scenario::Event::PathUp)
    });
    spec
}

/// The whole scheduler × strategy grid, pinned: summary and trace digests
/// read off the commit that still had `DmpServer`'s five `fill_*` loops and
/// a separate `StaticServer` (PR 21), before the policy moved into
/// `dmp_core::scheme`. A changed digest means the one server loop hands a
/// packet to a different path, at a different time, or traces it
/// differently than the code it replaced.
#[test]
fn every_scheduler_strategy_cell_matches_the_pre_move_digests() {
    use PullStrategy::{BestPath, DeadlineAware, RedundantDuplicate, RoundRobin, Weighted};
    use SchedulerKind::{Dynamic, Static};
    const GRID: [(SchedulerKind, PullStrategy, &str, &str); 10] = [
        (
            Dynamic,
            RoundRobin,
            "6c6713c61d60fc4ec6e079cfec15594b",
            "2b3123bcbdadc5103fd8729c722e25af",
        ),
        (
            Dynamic,
            Weighted,
            "a4c73cce4024d9f0874208ff36f6c051",
            "ae5093a75acaf635898f2871c99f8868",
        ),
        (
            Dynamic,
            BestPath,
            "3f09ea862cbfc958389739077dd33c55",
            "5da88c4d52f27c59c8a49f61142ba014",
        ),
        (
            Dynamic,
            RedundantDuplicate,
            "d1de3ed21494fbfbae101f8b766a5480",
            "284da90aca00168f9ef5a45eeacdd636",
        ),
        (
            Dynamic,
            DeadlineAware,
            "549437320f6cee7e3f013efa87a4fb05",
            "d420c9911d0fcf2aba98f8b3172e03e3",
        ),
        (
            Static,
            RoundRobin,
            "6cf2f73015d4e2b56452b6406b185e0a",
            "15e606bcc2fb169b66d9b2c2f537b41a",
        ),
        (
            Static,
            Weighted,
            "f5a16cb2bc1cc897f72bf68fcc3fae22",
            "bb4e36735b3056ab2fd03ae6675c97f4",
        ),
        (
            Static,
            BestPath,
            "657bf5260aab3863d8158b8ca70c7c9c",
            "932be1df0fdb4dda5df18a4119258477",
        ),
        (
            Static,
            RedundantDuplicate,
            "29603f1764d478ae59f706328b6992cf",
            "b2628fab63eeb10eefae6fd0ac981237",
        ),
        (
            Static,
            DeadlineAware,
            "2a94b069b1a3ca3dff406cf6a19c4dc0",
            "86b9aa35cd9774857780ce3dda1cb97e",
        ),
    ];
    // Under the outage `DeadlineAware` really drops (on the plain run above
    // it never does: its rows differ from round-robin's only in the strategy
    // label).
    const OUTAGE: [(SchedulerKind, PullStrategy, &str, &str); 4] = [
        (
            Dynamic,
            RoundRobin,
            "11d1cd5941645a356bb08e7dfcb42674",
            "1e7e80267627963b808ff657942f79a8",
        ),
        (
            Dynamic,
            DeadlineAware,
            "9c0c934c3dc932272c02873cf19cc64a",
            "2d52f899125a940f8484700f9c753fee",
        ),
        (
            Static,
            RoundRobin,
            "98523007459f04fa47a0725f53b658a5",
            "8e6c0735d51b4188ae83da0eb1d62fcd",
        ),
        (
            Static,
            DeadlineAware,
            "0c6233463c56c745a76ccb7a88f92b74",
            "483ef5586872f936e0707a3d99b8921d",
        ),
    ];
    assert_eq!(GRID.map(|r| r.1)[..5], PullStrategy::all());

    let dir = std::env::temp_dir().join(format!("dmp-sim-golden-grid-{}", std::process::id()));
    let plain =
        GRID.map(|(sched, strat, s, t)| ("plain", spec_22(sched, cc::CcKind::Reno, strat), s, t));
    let outage = OUTAGE.map(|(sched, strat, s, t)| ("outage", spec_outage(sched, strat), s, t));
    // Every moved cell in one failure message, as a ready-to-paste row.
    let mut moved = Vec::new();
    for (run, spec, summary, trace) in plain.into_iter().chain(outage) {
        let cell = format!("{run} {:?} × {:?}", spec.scheduler, spec.strategy);
        let got = golden_digests(spec, &dir);
        if (got.0.as_str(), got.1.as_str()) != (summary, trace) {
            moved.push(format!("{cell}: \"{}\", \"{}\"", got.0, got.1));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));

    // What the outage rows are for: relabelled, the deadline-aware summary
    // *is* the round-robin one on the plain run, and is not under the outage.
    let drops = |spec: fn(SchedulerKind, PullStrategy) -> ExperimentSpec, sched| {
        let deadline = rendered(&spec(sched, DeadlineAware));
        deadline.replace(DeadlineAware.name(), RoundRobin.name())
            != rendered(&spec(sched, RoundRobin))
    };
    for sched in [Dynamic, Static] {
        assert!(!drops(|s, p| spec_22(s, cc::CcKind::Reno, p), sched));
        assert!(
            drops(spec_outage, sched),
            "{sched:?}: the outage must age the server queue into deadline-aware drops"
        );
    }
}
