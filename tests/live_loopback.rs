//! End-to-end tests of the real-socket implementation (tokio): the complete
//! scheme — shared queue, per-path senders with small kernel buffers, path
//! emulators, client reassembly — over loopback TCP.

use std::time::Duration;

use dmp_core::spec::VideoSpec;
use dmp_live::{run_experiment, LiveExperiment, PathProfile};

fn exp(rates: [f64; 2], mu: f64, packets: u64) -> LiveExperiment {
    LiveExperiment {
        video: VideoSpec {
            rate_pps: mu,
            packet_bytes: 1448,
        },
        packets,
        paths: vec![
            PathProfile::steady(rates[0], Duration::from_millis(25)),
            PathProfile::steady(rates[1], Duration::from_millis(25)),
        ],
        send_buf_bytes: 16 * 1024,
        seed: 9,
        time_dilation: 1.0,
        schedules: None,
        trace: None,
    }
}

#[test]
fn full_stream_is_reassembled_exactly_once() {
    tokio::runtime::Runtime::new().unwrap().block_on(async {
        // Demand (≈1.16 Mbps) exceeds either path alone (800 kbps), so both
        // paths must participate in the reassembled stream.
        let e = exp([800_000.0, 800_000.0], 100.0, 500);
        let run = run_experiment(&e, &[2.0]).await.unwrap();
        let trace = &run.output.trace;
        assert_eq!(trace.generated(), 500);
        assert_eq!(trace.delivered(), 500, "everything arrives");
        // Each sequence number delivered exactly once across the two sockets.
        let mut seen = vec![false; 500];
        for r in trace.records() {
            assert!(!seen[r.seq as usize]);
            seen[r.seq as usize] = true;
        }
        // Both paths participate when they are symmetric and fast.
        assert!(run.output.per_path_packets.iter().all(|&n| n > 50));
    })
}

#[test]
fn dead_path_degrades_to_single_path_streaming() {
    tokio::runtime::Runtime::new().unwrap().block_on(async {
        // One path is an order of magnitude slower than the stream needs — the
        // paper's extreme-heterogeneity discussion: DMP degenerates gracefully
        // into (mostly) single-path streaming instead of stalling.
        let e = exp([2_000_000.0, 60_000.0], 70.0, 400);
        let run = run_experiment(&e, &[3.0]).await.unwrap();
        let shares = run.output.trace.path_shares(2);
        // The slow path still carries whatever fits in the in-flight buffers
        // (SO_SNDBUF + kernel receive buffer + emulator queue) plus its trickle
        // of drained packets, and kernel buffer autotuning makes that amount
        // host-dependent. "Degenerates gracefully into mostly single-path"
        // therefore means a clear fast-path majority, not a fixed 85% cut.
        assert!(
            shares[0] > 2.0 * shares[1],
            "fast path must carry the clear majority: {shares:?}"
        );
        // Packets parked in the slow path's in-flight buffers (~90 at 60 kbps:
        // 64 KiB emulator queue + kernel send/receive buffers) cannot drain
        // within the run, on any host — so full delivery is not the invariant
        // here. The invariant is *no stall*: the fast path alone must move far
        // more than the slow path ever could (~45 packets in this window).
        assert!(
            run.output.trace.delivered() >= 250,
            "stream stalled: delivered only {}",
            run.output.trace.delivered()
        );
        // Packets that went over the healthy path arrived promptly; only the
        // slow path's trickle is tardy (those packets sat in its buffers for
        // seconds — unavoidable once committed to a 60 kbps pipe).
        let fast: Vec<_> = run
            .output
            .trace
            .records()
            .iter()
            .filter(|r| r.path == 0 && r.arrival_ns.is_some())
            .map(|r| (r.arrival_ns.unwrap(), r.gen_ns))
            .collect();
        assert!(!fast.is_empty());
        let late = fast
            .iter()
            .filter(|(arr, gen)| arr.saturating_sub(*gen) > 3_000_000_000)
            .count();
        let f = late as f64 / fast.len() as f64;
        assert!(f < 0.05, "late fraction on the fast path {f}");
    })
}

#[test]
fn lateness_reflects_headroom_in_live_runs() {
    tokio::runtime::Runtime::new().unwrap().block_on(async {
        // ~1.1× aggregate headroom: needs a real buffer; 2.5×: clean at once.
        let tight = exp([450_000.0, 450_000.0], 69.0, 350);
        let roomy = exp([1_000_000.0, 1_000_000.0], 69.0, 350);
        let run_tight = run_experiment(&tight, &[0.3]).await.unwrap();
        let run_roomy = run_experiment(&roomy, &[0.3]).await.unwrap();
        let f_tight = run_tight.report.per_tau[0].playback_order;
        let f_roomy = run_roomy.report.per_tau[0].playback_order;
        assert!(
            f_roomy <= f_tight,
            "roomy {f_roomy} should not be later than tight {f_tight}"
        );
        assert!(
            f_roomy < 0.02,
            "roomy run should be nearly clean: {f_roomy}"
        );
    })
}

#[test]
fn asymmetric_delays_reorder_across_paths_but_metrics_agree() {
    tokio::runtime::Runtime::new().unwrap().block_on(async {
        // 10 ms vs 120 ms one-way delays: packets constantly overtake each other
        // across paths. The Section 4.1 claim — arrival-order playback is a good
        // proxy for playback-time order — must survive heavy cross-path
        // reordering on real sockets.
        let e = LiveExperiment {
            video: VideoSpec {
                rate_pps: 80.0,
                packet_bytes: 1448,
            },
            packets: 400,
            // Tight aggregate headroom (≈1.08×) forces both paths into use, so
            // the 10 ms vs 120 ms delay gap produces real reordering.
            paths: vec![
                PathProfile::steady(500_000.0, Duration::from_millis(10)),
                PathProfile::steady(500_000.0, Duration::from_millis(120)),
            ],
            send_buf_bytes: 16 * 1024,
            seed: 77,
            time_dilation: 1.0,
            schedules: None,
            trace: None,
        };
        let run = run_experiment(&e, &[1.0]).await.unwrap();
        let trace = &run.output.trace;
        assert!(trace.delivered() >= 390, "delivered {}", trace.delivered());

        // Verify cross-path reordering actually happened: some packet with a
        // larger seq arrived before a smaller one.
        let mut arrivals: Vec<(u64, u64)> = trace
            .records()
            .iter()
            .filter_map(|r| r.arrival_ns.map(|a| (a, r.seq)))
            .collect();
        arrivals.sort_unstable();
        let inversions = arrivals.windows(2).filter(|w| w[1].1 < w[0].1).count();
        assert!(
            inversions > 5,
            "expected cross-path reordering, got {inversions} inversions"
        );

        // The two lateness views stay close (absolute difference small).
        let lf = &run.report.per_tau[0];
        assert!(
            (lf.playback_order - lf.arrival_order).abs() < 0.05,
            "playback {} vs arrival {}",
            lf.playback_order,
            lf.arrival_order
        );
    })
}
