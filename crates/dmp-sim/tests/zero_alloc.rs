//! The engine's zero-allocation claim as a tier-1 test: once arenas, rings
//! and the scheduler's slab have reached their peak sizes, dispatching events
//! never touches the heap. When it does, the failure names the first
//! offending site: the allocator captures a backtrace there.
//!
//! The same allocator bounds what a cached run weighs once decoded: a warm
//! reproduction holds hundreds of decoded `RunSummary`s at once.
//!
//! The counter is armed per thread, so the test harness's own threads and
//! the other tests in this binary never show up in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};

use dmp_core::spec::SchedulerKind;
use dmp_runner::json::Tape;
use dmp_runner::JsonCodec;
use dmp_sim::experiment::{self, ExperimentSpec, RunSummary};
use netsim::scheduler::EventQueue;
use netsim::EngineKind;

thread_local! {
    /// `Some((allocations, bytes))` while this thread is being measured.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    /// Where the first counted allocation of the current measurement came from.
    static FIRST_SITE: RefCell<Option<Backtrace>> = const { RefCell::new(None) };
}

/// System allocator that counts `alloc` and `realloc` — a `Vec` growing in
/// place is exactly the steady-state heap traffic the gate exists to catch.
struct CountingAlloc;

fn record(bytes: usize) {
    COUNT.with(|c| {
        // `take` disarms the counter: capturing a backtrace allocates, and
        // those allocations re-enter this function.
        if let Some((n, b)) = c.take() {
            if n == 0 {
                FIRST_SITE.set(Some(Backtrace::force_capture()));
            }
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised `Cell` without a destructor, so touching it from inside
// the allocator neither allocates nor runs after thread teardown.
// `FIRST_SITE` does have a destructor, and is touched only while the counter
// is armed — inside `allocations_in`, on a live thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RUN_SUMMARY: &str = include_str!("../../base/tests/fixtures/run_summary.json");

/// `(allocations, bytes)` this thread requested while `f` ran, and the
/// backtrace of the first one.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, (u64, u64), Option<Backtrace>) {
    COUNT.set(Some((0, 0)));
    let out = f();
    let counted = COUNT.replace(None).expect("armed above");
    (out, counted, FIRST_SITE.take())
}

/// Setting 2-2 under DMP, the shape every figure and fleet shard runs: build,
/// run the first half of the video as warm-up (growth allowed), then the
/// second half must not allocate. Splitting `advance_to` is behaviour-neutral.
#[test]
fn steady_state_event_loop_never_allocates() {
    const VIDEO_S: f64 = 60.0;
    let setting = *dmp_sim::configs::setting("2-2").expect("setting 2-2 exists");
    let mut spec = ExperimentSpec::new(setting, SchedulerKind::Dynamic, VIDEO_S, 2007);
    spec.warmup_s = 10.0;
    let mut built = experiment::build(&spec);
    let end = built.end();
    built.advance_to(netsim::secs(spec.warmup_s + VIDEO_S / 2.0));

    let events_before = built.events_processed();
    let ((), (allocs, bytes), first_site) = allocations_in(|| built.advance_to(end));
    let steady_events = built.events_processed() - events_before;

    assert!(
        steady_events > 50_000,
        "steady window too short: {steady_events} events"
    );
    assert_eq!(
        allocs,
        0,
        "{allocs} heap allocations ({bytes} bytes) over {steady_events} steady-state events; \
         the first one came from:\n{}",
        first_site.expect("captured with the first counted allocation")
    );
    assert!(
        built.finish().trace.delivered() > 0,
        "run delivered nothing"
    );
}

/// What `experiment::build` asks the allocator for on Setting 2-2 (100 flows,
/// 52 links) is arenas, rings and the scheduler's slab — sized by the entities:
/// 714 allocations, 847 815 bytes. The bound sits just above that reading:
/// the three per-entity `Vec<Option<SimTime>>` tracked-event tables the `Sim`
/// used to keep beside its links, senders and sinks read 731 allocations,
/// 851 815 bytes, and fail it. The always-on metrics are three histograms
/// per `Sim`; with one per link and two per sender (252 of them) the same
/// build read 980 allocations, 2 064 775 bytes.
#[test]
fn building_setting_2_2_is_sized_by_entities_not_histograms() {
    let setting = *dmp_sim::configs::setting("2-2").expect("setting 2-2 exists");
    let spec = ExperimentSpec::new(setting, SchedulerKind::Dynamic, 60.0, 2007);
    let (built, (allocs, bytes), _) = allocations_in(|| experiment::build(&spec));
    assert!(built.end() > 0);
    assert!(
        allocs < 725 && bytes < 850_000,
        "experiment::build made {allocs} allocations, {bytes} bytes"
    );
}

/// Building the production queue is a constant number of allocations (the
/// head table and the slab), not one per wheel bucket.
#[test]
fn building_the_event_queue_is_a_handful_of_allocations() {
    let (queue, (allocs, _), _) = allocations_in(|| EventQueue::<u64>::new(EngineKind::default()));
    assert!(queue.is_empty());
    assert!(
        (1..=4).contains(&allocs),
        "EventQueue::new made {allocs} allocations"
    );
}

/// Decoding the pinned `RunSummary` from its tape, as a cache hit does, asks
/// for at most 7 000 bytes: its four histograms are sized up to their
/// highest occupied bucket (20–143 of 496). It reads 5 933 bytes in 34
/// allocations; a dense `vec![0; BUCKETS]` per histogram in
/// `Histogram::from_json` reads 19 709 and fails it.
#[test]
fn a_decoded_run_summary_holds_only_its_occupied_buckets() {
    let tape = Tape::parse(RUN_SUMMARY.trim_end()).expect("the fixture scans");
    let (summary, (allocs, bytes), _) = allocations_in(|| RunSummary::from_json(tape.root()));
    assert!(summary.is_some(), "the fixture decodes");
    assert!(
        bytes <= 7_000,
        "decoding the fixture made {allocs} allocations, {bytes} bytes"
    );
}

/// Re-encoding the decoded fixture with `RunSummary::to_json`, as a warm
/// replay's check does, builds one `Vec` per JSON array or object and
/// allocates no literal key: each of the four histograms writes its buckets
/// as one array, and an object key is borrowed unless it is a run-time
/// name. It makes 44 allocations, 10 101 bytes; the bound is 48. With every
/// key copied into a `String` it made 119 allocations, 10 526 bytes; written
/// as one `[index, count]` array per occupied bucket, the same summary made
/// 251 allocations, 20 574 bytes.
#[test]
fn re_encoding_a_decoded_run_summary_is_one_array_per_histogram() {
    let tape = Tape::parse(RUN_SUMMARY.trim_end()).expect("the fixture scans");
    let summary = RunSummary::from_json(tape.root()).expect("the fixture decodes");
    let (json, (allocs, bytes), _) = allocations_in(|| summary.to_json());
    assert!(
        allocs <= 48,
        "encoding the fixture made {allocs} allocations, {bytes} bytes"
    );
    assert_eq!(
        json.render(),
        RUN_SUMMARY.trim_end(),
        "the fixture re-encodes to itself"
    );
}
