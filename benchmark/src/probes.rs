//! Direct calls into layers that no workload's spans can isolate: the
//! scheduler hold model, the `CcAlgo` and codec loops, the cache's store
//! path. They run once, after the traced iterations and outside them, so
//! they add nothing to the tracing overhead figure. Inputs come from the
//! run's seed; the JSON, cache and `obs` probes work on the summary of a
//! real (short) simulation, not on a synthetic payload.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use cc::{AckCtx, Cc, CcAlgo, CcConfig, CcKind};
use dmp_core::spec::SchedulerKind;
use dmp_core::{DynamicQueue, ReorderBuffer, StreamPacket};
use dmp_live::wire::{self, Frame};
use dmp_runner::pool::{self, Job};
use dmp_runner::{json, Cache, JsonCodec};
use dmp_sim::experiment::{run_summary, ExperimentSpec, RunSummary};
use netsim::scheduler::EventQueue;
use netsim::EngineKind;
use obs::{Histogram, MetricsSnapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::host::ScratchDir;
use crate::stats::median;
use crate::workloads::LayerValues;

/// Median nanoseconds per operation over `reps` batches of `ops` operations.
fn ns_per_op(reps: usize, ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// MB/s of an operation that takes `ns` nanoseconds over `bytes` bytes.
fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns * 1e-9)
}

/// Run every probe; `reps` batches each (1 in smoke mode).
pub fn run(seed: u64, reps: usize, out: &mut LayerValues) {
    scheduler_hold(seed, reps, out);
    cc_on_ack(reps, out);
    scheme(reps, out);
    pool_dispatch(reps, out);
    wire_codec(reps, out);

    let setting = *dmp_sim::configs::setting("2-2").expect("setting 2-2 exists");
    let spec = ExperimentSpec::new(setting, SchedulerKind::Dynamic, 20.0, seed);
    let summary = run_summary(&spec, &[4.0, 6.0, 8.0, 10.0]);
    obs_metrics(&summary.metrics, reps, out);
    json_codec(&summary, reps, out);
    cache(&summary, &spec.config_repr(), seed, reps, out);
}

/// The classic hold model on the default engine's queue: pop the earliest
/// event, push one a random increment later, with `n` events pending.
fn scheduler_hold(seed: u64, reps: usize, out: &mut LayerValues) {
    const OPS: u64 = 200_000;
    /// Increments up to 200 ms keep the events inside the near wheel, where
    /// the simulations' link and ACK events live.
    const MAX_INCREMENT_NS: u64 = 200_000_000;
    for (n, metric) in [
        (64u64, "netsim.scheduler.hold_ns.n64"),
        (4096, "netsim.scheduler.hold_ns.n4096"),
    ] {
        let mut rng = SmallRng::seed_from_u64(seed ^ n);
        let mut queue: EventQueue<u64> = EventQueue::new(EngineKind::default());
        let mut seq = 0u64;
        for _ in 0..n {
            seq += 1;
            queue.push(rng.gen_range(0..MAX_INCREMENT_NS), seq, seq);
        }
        let ns = ns_per_op(reps, OPS, || {
            for _ in 0..OPS {
                let e = queue.pop_at_or_before(u64::MAX).expect("queue stays full");
                seq += 1;
                queue.push(e.time + rng.gen_range(0..MAX_INCREMENT_NS), seq, e.payload);
            }
        });
        black_box(queue.len());
        out.insert(metric, ns);
    }
}

/// `CcAlgo::on_ack` on a synthetic ACK clock: one segment per millisecond at
/// a jittered 50 ms RTT, a loss every thousandth ACK so windows keep moving.
fn cc_on_ack(reps: usize, out: &mut LayerValues) {
    const OPS: u64 = 500_000;
    let cfg = CcConfig {
        initial_cwnd: 2.0,
        max_wnd: 64.0,
    };
    for (kind, metric) in [
        (CcKind::Reno, "cc.reno.on_ack_ns"),
        (CcKind::Cubic, "cc.cubic.on_ack_ns"),
        (CcKind::BbrLite, "cc.bbr.on_ack_ns"),
    ] {
        let mut algo = Cc::new(kind, cfg);
        let mut now_ns = 0u64;
        let ns = ns_per_op(reps, OPS, || {
            for i in 0..OPS {
                now_ns += 1_000_000;
                let rtt_s = 0.05 + (i % 7) as f64 * 1e-3;
                algo.on_ack(&AckCtx {
                    now_ns,
                    newly_acked: 1,
                    rtt_sample_s: Some(rtt_s),
                    srtt_s: Some(0.053),
                    inflight: algo.cwnd() as u64,
                    cwnd_limited: true,
                });
                if i % 1000 == 999 {
                    algo.on_dupack_loss();
                    algo.on_exit_recovery();
                }
            }
        });
        black_box(algo.cwnd());
        out.insert(metric, ns);
    }
}

/// The DMP scheme's data path per packet: server queue push and pull, then
/// the client's reorder buffer, with neighbouring packets swapped as two
/// paths would deliver them.
fn scheme(reps: usize, out: &mut LayerValues) {
    const OPS: u64 = 200_000;
    let ns = ns_per_op(reps, OPS, || {
        let mut queue = DynamicQueue::new();
        let mut reorder = ReorderBuffer::new();
        let mut played = 0u64;
        for seq in (0..OPS).step_by(2) {
            for s in [seq, seq + 1] {
                queue.push(StreamPacket {
                    seq: s,
                    gen_ns: s * 20_000_000,
                });
            }
            let first = queue.pull_one().expect("pushed above");
            let second = queue.pull_one().expect("pushed above");
            reorder.insert(second);
            reorder.insert(first);
            while reorder.pop_ready().is_some() {
                played += 1;
            }
        }
        assert_eq!(played, OPS);
    });
    out.insert("dmp-core.scheme.ns_per_pkt", ns);
}

/// Pool overhead per job: empty jobs on two threads.
fn pool_dispatch(reps: usize, out: &mut LayerValues) {
    const JOBS: u64 = 10_000;
    let ns = ns_per_op(reps, JOBS, || {
        let jobs: Vec<Job<'static, u64>> = (0..JOBS)
            .map(|i| Box::new(move || i) as Job<'static, u64>)
            .collect();
        black_box(pool::run_ordered(jobs, 2));
    });
    out.insert("dmp-runner.pool.dispatch_ns_per_job", ns);
}

/// `dmp-live`'s framing on 1500-byte frames. Streaming itself is paced by
/// the wall clock and is no timed workload; the codec is its only pure part.
fn wire_codec(reps: usize, out: &mut LayerValues) {
    const OPS: u64 = 20_000;
    const FRAME_BYTES: usize = 1500;
    let mut buf = BytesMut::with_capacity(FRAME_BYTES * OPS as usize);
    let encode_ns = ns_per_op(reps, OPS, || {
        buf.clear();
        for seq in 0..OPS {
            let frame = Frame {
                seq,
                gen_ns: seq * 20_000_000,
            };
            wire::encode(&frame, FRAME_BYTES, &mut buf);
        }
    });
    out.insert("dmp-live.wire.encode_ns", encode_ns);
    // Decoding consumes its buffer: each batch gets its own encoded copy,
    // made outside the clock.
    let encoded = buf;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut src = BytesMut::with_capacity(encoded.len());
            src.extend_from_slice(&encoded);
            let t0 = Instant::now();
            for seq in 0..OPS {
                let frame = wire::decode(&mut src).expect("frame just encoded");
                assert_eq!(frame.seq, seq);
            }
            t0.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    out.insert("dmp-live.wire.decode_ns", median(&samples));
}

/// `obs` on a real run's snapshot.
fn obs_metrics(snapshot: &MetricsSnapshot, reps: usize, out: &mut LayerValues) {
    const RECORDS: u64 = 1_000_000;
    let mut hist = Histogram::new();
    let ns = ns_per_op(reps, RECORDS, || {
        for i in 0..RECORDS {
            hist.record(black_box(i.wrapping_mul(2_654_435_761) % 1_000_000));
        }
    });
    black_box(hist.count());
    out.insert("obs.hist_record_ns", ns);

    const MERGES: u64 = 200;
    let ns = ns_per_op(reps, MERGES, || {
        let mut total = MetricsSnapshot::new();
        for _ in 0..MERGES {
            total.merge(black_box(snapshot));
        }
        black_box(total);
    });
    out.insert("obs.snapshot_merge_us", ns * 1e-3);
    out.insert(
        "obs.snapshot_json_bytes",
        snapshot.to_json().render().len() as f64,
    );
}

/// The JSON codec on a cache payload.
fn json_codec(summary: &RunSummary, reps: usize, out: &mut LayerValues) {
    const OPS: u64 = 100;
    let doc = summary.to_json();
    let text = doc.render();
    let per_op = |f: &mut dyn FnMut()| {
        ns_per_op(reps, OPS, || {
            for _ in 0..OPS {
                f();
            }
        })
    };
    let parse_ns = per_op(&mut || {
        black_box(json::parse(black_box(&text)));
    });
    let render_ns = per_op(&mut || {
        black_box(black_box(&doc).render());
    });
    let pretty = doc.render_pretty();
    let pretty_ns = per_op(&mut || {
        black_box(black_box(&doc).render_pretty());
    });
    out.insert("dmp-runner.json.parse_mb_s", mb_per_s(text.len(), parse_ns));
    out.insert(
        "dmp-runner.json.render_mb_s",
        mb_per_s(text.len(), render_ns),
    );
    out.insert(
        "dmp-runner.json.render_pretty_mb_s",
        mb_per_s(pretty.len(), pretty_ns),
    );
    let from_ns = per_op(&mut || {
        black_box(RunSummary::from_json(black_box(&doc)));
    });
    let to_ns = per_op(&mut || {
        black_box(black_box(summary).to_json());
    });
    out.insert("dmp-sim.summary_from_json_us", from_ns * 1e-3);
    out.insert("dmp-sim.summary_to_json_us", to_ns * 1e-3);
}

/// The cache's key, store and load paths on a scratch directory. Store is
/// informational: it swings with the file system.
fn cache(summary: &RunSummary, config_repr: &str, seed: u64, reps: usize, out: &mut LayerValues) {
    const KEYS: u64 = 64;
    let dir = ScratchDir::new("cache-probe");
    let cache = Cache::new(dir.path());
    let payload = summary.to_json();
    let reprs: Vec<String> = (0..KEYS)
        .map(|k| format!("{config_repr}/probe{k}"))
        .collect();

    let key_ns = ns_per_op(reps, KEYS, || {
        for r in &reprs {
            black_box(cache.key(black_box(r), seed));
        }
    });
    let keys: Vec<String> = reprs.iter().map(|r| cache.key(r, seed)).collect();
    let store_ns = ns_per_op(reps, KEYS, || {
        for k in &keys {
            cache.store(k, &payload);
        }
    });
    let load_ns = ns_per_op(reps, KEYS, || {
        for k in &keys {
            assert!(cache.load(k).is_some(), "entry just stored");
        }
    });
    out.insert("dmp-runner.cache.key_ns", key_ns);
    out.insert("dmp-runner.cache.store_us", store_ns * 1e-3);
    out.insert("dmp-runner.cache.load_us", load_ns * 1e-3);
    out.insert(
        "dmp-runner.cache.entry_bytes",
        dir_bytes(dir.path()) as f64 / KEYS as f64,
    );
}

/// Bytes of the regular files under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.expect("scratch dir entry").path())
        .map(|p| {
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                p.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}
