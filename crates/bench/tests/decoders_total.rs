//! Every cached payload's decoder is total, and reads a tape as it reads a
//! tree.
//!
//! Each payload below is a real encoding: the `RunSummary` fixture (whole,
//! its `metrics` snapshot, one of its histograms) and one encoded value of
//! every other job family's payload (`ScenarioSummary`, tcp-model's
//! `ExactOutcome`, fleet's `ShardOutput`, the saturation probe's
//! `SaturationReport`, `dmp-bench`'s `LiveSummary`). Each is fed to its
//! decoder intact, cut at every prefix, with every byte replaced by each of
//! a set of bytes that JSON gives a meaning to, and with each object's
//! first key given a second pair (the second pair's value) right after the
//! first. On every input the decoder must return, not panic, and decoding
//! from `json::Tape` and from the `Json` tree must give the same value
//! (compared by re-encoding). The intact payload must decode and re-encode
//! to its own bytes. One line of a committed flight-recorder trace gets the
//! same mutations through `TraceEvent::parse_line`: no panic, and the intact
//! line reads back to itself. A whole cache entry, header line included,
//! written by `Cache::store`, gets every prefix and every substitution
//! through `Cache::load_with`: each lookup is a miss or a hit equal to the
//! stored value, and the cache counts each once.
//!
//! Mutations seen to turn this file red: a tape `get` that returns the last
//! of two pairs with one key (the duplicate-key inputs then decode the
//! second value from the tape and the first from the tree), dropping
//! `Histogram::from_json`'s refusal of `min > max` (a substituted `min` then
//! decodes, and re-encoding it panics in `f64::clamp`), and a lookup that
//! serves the payload line without comparing the header above it (a
//! substituted digit in the payload is then a hit with another value).

use dmp_bench::live_fig::LiveSummary;
use dmp_core::{ResilienceReport, SessionOutcome};
use dmp_fleet::ShardOutput;
use dmp_runner::json::{self, Json, Tape};
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, JsonCodec};
use dmp_sim::experiment::{RunSummary, ScenarioSummary};
use dmp_sim::probe::SaturationReport;
use netsim::EngineTelemetry;
use obs::{Histogram, MetricsSnapshot, TraceEvent};
use tcp_model::batch::ExactOutcome;

const RUN_SUMMARY: &str = include_str!("../../base/tests/fixtures/run_summary.json");
const TRACE: &str = include_str!("../../../artifacts/traces/ext_failover_quick_run0.jsonl");

/// Bytes substituted at every position: every structural byte, a zero,
/// another digit, sign, point, exponent, the first letters of the literals,
/// whitespace, and a byte that belongs nowhere.
const SUBSTITUTES: &[u8] = b"\"\\,:[]{}09-+.entf x";

/// `text` decoded by `T` from the tape and from the tree; they must agree.
/// Returns the decoded value's re-encoding.
fn decode<T: JsonCodec>(text: &str) -> Option<String> {
    let tree = json::parse(text).and_then(|doc| T::from_json(&doc));
    let tape = Tape::parse(text).and_then(|tape| T::from_json(tape.root()));
    let tree = tree.map(|v| v.to_json().render());
    let tape = tape.map(|v| v.to_json().render());
    assert_eq!(
        tape,
        tree,
        "{}: the tape and the tree decode {text:?} differently",
        std::any::type_name::<T>()
    );
    tree
}

/// Every prefix of `bytes` and every substitution of one of its bytes by
/// one of [`SUBSTITUTES`], each passed to `check`.
fn byte_mutations(bytes: &[u8], mut check: impl FnMut(&[u8])) {
    for end in 0..=bytes.len() {
        check(&bytes[..end]);
    }
    let mut bytes = bytes.to_vec();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for &b in SUBSTITUTES.iter().filter(|&&b| b != original) {
            bytes[i] = b;
            check(&bytes);
        }
        bytes[i] = original;
    }
}

/// Every mutation of `payload` that is still UTF-8, each passed to `check`.
fn mutations(payload: &str, mut check: impl FnMut(&str)) {
    byte_mutations(payload.as_bytes(), |bytes| {
        if let Ok(text) = std::str::from_utf8(bytes) {
            check(text);
        }
    });
    if let Some(doc) = json::parse(payload) {
        for variant in duplicate_key_variants(&doc) {
            check(&variant.render());
        }
    }
}

/// One variant per object with at least two pairs: a copy of the second
/// pair's value under the first pair's key, inserted between the two.
fn duplicate_key_variants(doc: &Json) -> Vec<Json> {
    let mut out = Vec::new();
    match doc {
        Json::Obj(pairs) => {
            if pairs.len() >= 2 {
                let mut dup = pairs.clone();
                dup.insert(1, (pairs[0].0.clone(), pairs[1].1.clone()));
                out.push(Json::Obj(dup));
            }
            for (i, (_, value)) in pairs.iter().enumerate() {
                for variant in duplicate_key_variants(value) {
                    let mut pairs = pairs.clone();
                    pairs[i].1 = variant;
                    out.push(Json::Obj(pairs));
                }
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                for variant in duplicate_key_variants(item) {
                    let mut items = items.clone();
                    items[i] = variant;
                    out.push(Json::Arr(items));
                }
            }
        }
        _ => {}
    }
    out
}

/// `payload` round-trips through `T`, and no mutation of it panics or
/// decodes differently from the tape and the tree.
fn total<T: JsonCodec>(payload: &str) {
    assert_eq!(
        decode::<T>(payload).as_deref(),
        Some(payload),
        "{} does not round-trip",
        std::any::type_name::<T>()
    );
    let mut decoded = 0usize;
    mutations(payload, |text| {
        decoded += usize::from(decode::<T>(text).is_some());
    });
    // Digit swaps and the duplicate keys the decoder never reads still
    // decode; a test whose every mutation missed would check nothing.
    assert!(decoded > 0, "no mutation decoded");
}

fn fixture() -> Json {
    json::parse(RUN_SUMMARY).expect("the fixture parses")
}

/// A small snapshot: the fixture's labels and one counter.
fn small_metrics() -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new().with_label("cc", "reno");
    m.counter_add("frame.generated", 250);
    m
}

#[test]
fn run_summary_fixture() {
    total::<RunSummary>(RUN_SUMMARY.trim_end());
}

#[test]
fn metrics_snapshot_of_the_fixture() {
    let metrics = fixture().get("metrics").expect("metrics").render();
    total::<MetricsSnapshot>(&metrics);
}

#[test]
fn histogram_of_the_fixture() {
    let doc = fixture();
    let hist = doc
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("net.cwnd_pkts"))
        .expect("a histogram");
    total::<Histogram>(&hist.render());
}

#[test]
fn run_summary_cache_entry() {
    let tmp = TempDir::new("decoders-total-entry");
    let cache = Cache::new(tmp.path());
    let key = cache.key("decoders_total", 2008);
    let stored = RunSummary::from_json(&fixture())
        .expect("decodes")
        .to_json();
    cache.store(&key, &stored);
    let stored = stored.render();
    let path = tmp.path().join(&key[..2]).join(format!("{key}.json"));
    let entry = std::fs::read(&path).expect("store wrote the entry");
    let lookup = || cache.load_with(&key, |payload| RunSummary::from_json(payload));
    assert_eq!(
        lookup().map(|s| s.to_json().render()).as_deref(),
        Some(stored.as_str()),
        "the intact entry is a hit"
    );

    let (mut lookups, mut hits) = (1u64, 1u64);
    byte_mutations(&entry, |bytes| {
        std::fs::write(&path, bytes).expect("rewrite the entry");
        lookups += 1;
        if let Some(summary) = lookup() {
            hits += 1;
            assert_eq!(
                summary.to_json().render(),
                stored,
                "a damaged entry is a hit with another value: {:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    });
    assert_eq!(cache.counters(), (hits, lookups - hits));
    assert!(lookups - hits > entry.len() as u64, "damage is a miss");
}

#[test]
fn scenario_and_live_summaries() {
    let mut summary = RunSummary::from_json(&fixture()).expect("decodes");
    summary.metrics = small_metrics();
    let scenario = ScenarioSummary {
        summary: summary.clone(),
        resilience: ResilienceReport {
            tau_s: 8.0,
            glitch_count: 3,
            total_glitch_s: 1.25,
            max_glitch_s: 0.75,
            worst_window_late: 0.0625,
            worst_window_start_s: 41.5,
            time_to_recover_s: Some(2.5),
            recovered: true,
        },
    };
    total::<ScenarioSummary>(&scenario.to_json().render());
    let live = LiveSummary {
        summary,
        timelines: Vec::new(),
    };
    total::<LiveSummary>(&live.to_json().render());
}

#[test]
fn exact_outcomes() {
    let solved = ExactOutcome::Solved {
        f: 1.25e-3,
        floor_mass: 1e-9,
        states: 12_345,
        iterations: 113,
    };
    let error = ExactOutcome::Error {
        message: "state space exceeds 10 states".into(),
    };
    total::<ExactOutcome>(&solved.to_json().render());
    total::<ExactOutcome>(&error.to_json().render());
}

#[test]
fn fleet_shard_output() {
    let outcome = |session: u32, completed: bool| SessionOutcome {
        session,
        arrival_s: 1.5 * f64::from(session),
        hold_s: 30.0,
        started: true,
        completed,
        generated: 900,
        delivered: 897,
        late_fraction: 0.003_333_333_333_333_333,
        glitch_count: 1,
        headroom: -0.25,
    };
    let shard = ShardOutput {
        shard: 1,
        outcomes: vec![outcome(4, true), outcome(5, false)],
        events_processed: 123_456,
        telemetry: EngineTelemetry {
            events_processed: 123_456,
            transits: 98_765,
            stale_timer_pops: 12,
            deferred_timer_pushes: 3,
            wheel_hwm: 64,
            far_hwm: 5,
            ring_hwm: 17,
            random_loss_drops: 0,
        },
        metrics: small_metrics(),
        trace_file: None,
    };
    total::<ShardOutput>(&shard.to_json().render());
}

#[test]
fn saturation_report() {
    let report = SaturationReport {
        aggregate_pps: 187.25,
        per_path_pps: vec![101.5, 85.75],
        delivered: 56_175,
        duration_s: 300.0,
    };
    total::<SaturationReport>(&report.to_json().render());
}

#[test]
fn trace_event_lines() {
    let line = TRACE
        .lines()
        .find(|l| l.contains("\"ev\":\"cwnd\""))
        .expect("the trace has a cwnd line");
    let event = TraceEvent::parse_line(line).expect("the intact line parses");
    assert_eq!(event.to_line(), line);
    let mut parsed = 0usize;
    mutations(line, |text| {
        parsed += usize::from(TraceEvent::parse_line(text).is_some());
    });
    assert!(parsed > 0, "no mutation parsed");
}
