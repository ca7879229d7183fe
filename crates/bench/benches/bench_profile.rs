//! Hot-path cost profile and zero-allocation gate for the netsim event loop.
//!
//! Runs the paper's Setting 2-2 multipath video experiment (the workload
//! the paper targets spend their time in) split into build → warm-up →
//! steady-state phases via `dmp_sim::experiment::build`, with a counting
//! global allocator watching the steady-state phase. The engine's claim is
//! that after arenas and rings reach their peak sizes, dispatching events
//! allocates nothing; this binary is the proof.
//!
//! Modes (args after `--` reach this binary):
//!
//! * default — a 120 s-video run: steady-state allocation report,
//!   events/sec and transits/sec, and (when compiled with
//!   `--features profile`) the per-event-kind dispatch-count / cycle-share
//!   breakdown from `netsim::telemetry::profile`.
//! * `--quick-smoke` — a short run asserting **zero** steady-state heap
//!   allocations (exit 1 otherwise); the CI gate. With the `profile`
//!   feature it also checks every dispatched event landed in a profiler
//!   bin.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dmp_core::spec::SchedulerKind;
use dmp_sim::experiment::ExperimentSpec;

/// System allocator wrapped with relaxed counters. `alloc` and `realloc`
/// both count as allocations — a `Vec` growing in place is exactly the kind
/// of steady-state heap traffic the gate exists to catch.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// When the gate regresses, run with `ALLOC_TRACE=1` (and `RUST_BACKTRACE=1`)
/// to print a backtrace for every steady-state allocation. Armed only for the
/// measured phase; the counters keep ticking while it prints (capturing a
/// backtrace allocates), so the reported totals are meaningless in this mode —
/// it exists to name the allocation sites, not to measure.
static DEBUG_TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
thread_local! { static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) }; }

fn debug_backtrace(what: &str, bytes: usize) {
    if !DEBUG_TRACE.load(Ordering::Relaxed) {
        return;
    }
    // Re-entrancy guard: capturing the backtrace allocates, which would
    // otherwise recurse straight back into this hook.
    IN_HOOK.with(|f| {
        if !f.get() {
            f.set(true);
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("{what} {bytes} bytes\n{bt}\n----");
            f.set(false);
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        debug_backtrace("ALLOC", layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        debug_backtrace("REALLOC to", new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one phased run measured.
struct GateRun {
    /// Heap allocations during the steady-state phase.
    steady_allocs: u64,
    /// Bytes requested by those allocations.
    steady_bytes: u64,
    /// Events dispatched during the steady-state phase.
    steady_events: u64,
    /// Packet transits delivered during the steady-state phase.
    steady_transits: u64,
    /// Wall-clock seconds of the steady-state phase.
    steady_wall_s: f64,
    /// Events dispatched over the whole run.
    total_events: u64,
}

/// Build the experiment, run the first half of the video as warm-up (arena
/// and ring growth allowed), then measure the second half under the
/// allocation counters. Splitting `run_until` is behaviour-neutral: the
/// event sequence is identical to one uninterrupted run.
fn phased_run(video_s: f64) -> GateRun {
    let setting = *dmp_sim::configs::setting("2-2").expect("setting 2-2 exists");
    let mut spec = ExperimentSpec::new(setting, SchedulerKind::Dynamic, video_s, 2007);
    spec.warmup_s = 10.0;
    let mut built = dmp_sim::experiment::build(&spec);
    let end = built.end();
    let warm_until = netsim::secs(spec.warmup_s) + netsim::secs(video_s / 2.0);
    built.advance_to(warm_until);

    let events_before = built.events_processed();
    let transits_before = built.transits();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    if std::env::var_os("ALLOC_TRACE").is_some() {
        DEBUG_TRACE.store(true, Ordering::Relaxed);
    }
    let t0 = Instant::now();
    built.advance_to(end);
    let steady_wall_s = t0.elapsed().as_secs_f64();
    DEBUG_TRACE.store(false, Ordering::Relaxed);
    let steady_allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let steady_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    let steady_events = built.events_processed() - events_before;
    let steady_transits = built.transits() - transits_before;
    let total_events = built.events_processed();

    let out = built.finish();
    assert!(out.trace.delivered() > 0, "run delivered nothing");
    GateRun {
        steady_allocs,
        steady_bytes,
        steady_events,
        steady_transits,
        steady_wall_s,
        total_events,
    }
}

fn report(run: &GateRun) {
    println!(
        "steady state: {} events, {} transits in {:.2} s ({:.0} events/s, {:.0} transits/s)",
        run.steady_events,
        run.steady_transits,
        run.steady_wall_s,
        run.steady_events as f64 / run.steady_wall_s.max(1e-9),
        run.steady_transits as f64 / run.steady_wall_s.max(1e-9),
    );
    println!(
        "steady-state heap allocations: {} ({} bytes)",
        run.steady_allocs, run.steady_bytes
    );
}

#[cfg(feature = "profile")]
fn profile_breakdown(total_events: u64) {
    use netsim::telemetry::profile;
    let snap = profile::snapshot();
    let total_ticks: u64 = snap.ticks.iter().sum();
    let binned: u64 = snap.counts.iter().sum();
    println!("\nper-event-kind cost profile (cumulative, this process):");
    println!(
        "{:<14} {:>12} {:>16} {:>8}",
        "kind", "count", "ticks", "share"
    );
    for (i, &name) in profile::KIND_NAMES.iter().enumerate() {
        let share = if total_ticks > 0 {
            snap.ticks[i] as f64 / total_ticks as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<14} {:>12} {:>16} {:>7.1}%",
            name, snap.counts[i], snap.ticks[i], share
        );
    }
    assert_eq!(
        binned, total_events,
        "every dispatched event must land in exactly one profiler bin"
    );
    println!("profiler bins account for all {binned} dispatched events");
}

#[cfg(not(feature = "profile"))]
fn profile_breakdown(_total_events: u64) {
    println!("(compile with --features profile for the per-event-kind breakdown)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick-smoke");
    // Harness flags (--bench, --quiet, ...) may be passed by cargo; this
    // binary only distinguishes quick-smoke from the full run.
    let video_s = if quick { 60.0 } else { 240.0 };
    let run = phased_run(video_s);
    report(&run);
    profile_breakdown(run.total_events);
    if run.steady_allocs > 0 {
        eprintln!(
            "zero-alloc gate FAILED: {} heap allocations ({} bytes) in the steady-state \
             event loop",
            run.steady_allocs, run.steady_bytes
        );
        std::process::exit(1);
    }
    println!("zero-alloc gate OK: steady-state event loop never touched the heap");
}
