//! Ablations of the design choices DESIGN.md calls out, run end-to-end in
//! the packet simulator.

use dmp_core::spec::SchedulerKind;
use dmp_sim::{run, setting, ExperimentSpec};

fn spec_with(send_buf: usize, seed: u64) -> ExperimentSpec {
    let mut s = ExperimentSpec::new(
        *setting("2-2").unwrap(),
        SchedulerKind::Dynamic,
        300.0,
        seed,
    );
    s.warmup_s = 15.0;
    s.send_buf_pkts = send_buf;
    s
}

/// DMP's implicit inference relies on *finite* send buffers, but the paper
/// never tunes their size — the scheme should not be sensitive to it within
/// a sane range.
#[test]
fn send_buffer_size_is_not_critical() {
    let mut delivered = Vec::new();
    for &buf in &[8usize, 32, 128] {
        let out = run(&spec_with(buf, 99));
        delivered.push(out.trace.delivered() as f64 / out.trace.generated() as f64);
    }
    for (i, d) in delivered.iter().enumerate() {
        assert!(*d > 0.95, "send_buf index {i}: delivered fraction {d}");
    }
    let spread = delivered.iter().cloned().fold(f64::MIN, f64::max)
        - delivered.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 0.05,
        "delivery too sensitive to send buffer: {delivered:?}"
    );
}

/// A *huge* send buffer weakens the dynamic allocation (packets committed to
/// a path long before transmission). The delivered share split should become
/// closer to static even when one path is slower; with small buffers DMP
/// shifts load. This exercises the mechanism rather than asserting a strong
/// quantitative claim.
#[test]
fn small_buffers_shift_load_away_from_slow_path_faster() {
    // Heterogeneous 1-3 (different capacity classes).
    let run_with = |buf: usize| {
        let mut s = ExperimentSpec::new(*setting("1-3").unwrap(), SchedulerKind::Dynamic, 300.0, 7);
        s.warmup_s = 15.0;
        s.send_buf_pkts = buf;
        run(&s)
    };
    let small = run_with(8);
    let large = run_with(256);
    // Both must deliver; the small-buffer run must not do worse.
    let d_small = small.trace.delivered() as f64 / small.trace.generated() as f64;
    let d_large = large.trace.delivered() as f64 / large.trace.generated() as f64;
    assert!(d_small > 0.95 && d_large > 0.9, "{d_small} {d_large}");
}

/// Every delivered packet arrives exactly once at the client app (TCP
/// reliability end-to-end through the scheme: no duplicates, no holes below
/// the delivered horizon).
#[test]
fn exactly_once_delivery_through_the_scheme() {
    let out = run(&spec_with(32, 123));
    let mut seen = vec![false; out.trace.generated() as usize];
    for r in out.trace.records() {
        if r.arrival_ns.is_some() {
            assert!(!seen[r.seq as usize], "duplicate stream seq {}", r.seq);
            seen[r.seq as usize] = true;
        }
    }
    // Arrival times are never before generation.
    for r in out.trace.records() {
        if let Some(a) = r.arrival_ns {
            assert!(a >= r.gen_ns, "packet {} arrived before generation", r.seq);
        }
    }
}

/// The single-path baseline uses exactly one flow and (all else equal) can
/// only do worse than DMP over two such paths at the same bitrate.
#[test]
fn two_paths_help_at_the_same_bitrate() {
    let mut single = ExperimentSpec::new(
        *setting("2-2").unwrap(),
        SchedulerKind::SinglePath,
        300.0,
        5,
    );
    single.warmup_s = 15.0;
    let mut dual = single.clone();
    dual.scheduler = SchedulerKind::Dynamic;

    let out_single = run(&single);
    let out_dual = run(&dual);
    let frac = |o: &dmp_sim::RunOutput| o.trace.delivered() as f64 / o.trace.generated() as f64;
    // 600 kbps over ONE config-2 path is beyond its achievable throughput;
    // over two paths it fits.
    assert!(frac(&out_dual) > 0.97, "dual {}", frac(&out_dual));
    assert!(
        frac(&out_dual) >= frac(&out_single) - 0.01,
        "single {} vs dual {}",
        frac(&out_single),
        frac(&out_dual)
    );
}

/// Three paths end-to-end in the packet simulator (the paper's K > 2 future
/// work): a video too big for any two of the paths streams over three.
#[test]
fn three_paths_carry_what_two_cannot() {
    use dmp_core::scheme::Scheme;
    use dmp_core::spec::{PullStrategy, VideoSpec};
    use dmp_sim::topology::{attach_background, build_independent, video_tcp};
    use dmp_sim::video::{shared_trace, VideoClient, VideoServer};
    use netsim::{secs, Sim};

    let run_k = |k: usize| {
        let mut sim = Sim::new(17);
        let cfgs: Vec<_> = (0..k).map(|_| dmp_sim::config(2)).collect();
        let topo = build_independent(&mut sim, &cfgs, video_tcp(1500, 32), false, &[]);
        attach_background(&mut sim, &topo, &cfgs, 17);
        // 75 pkt/s = 900 kbps: more than two config-2 paths comfortably carry.
        let video = VideoSpec::new(75.0);
        let end = secs(220.0);
        let trace = shared_trace(video, end);
        let flows: Vec<_> = topo.paths.iter().map(|p| p.video_flow).collect();
        let packets = (200.0 * video.rate_pps) as u64;
        sim.add_app(Box::new(VideoServer::new(
            Scheme::new(SchedulerKind::Dynamic, PullStrategy::RoundRobin, k, packets),
            flows.clone(),
            video,
            trace.clone(),
            secs(15.0),
            packets,
        )));
        sim.add_app(Box::new(VideoClient::new(&flows, trace.clone())));
        sim.run_until(end);
        let t = trace.borrow();
        let report = dmp_core::metrics::LatenessReport::from_trace(&t, &[8.0]);
        (
            t.delivered() as f64 / t.generated() as f64,
            report.per_tau[0].playback_order,
            t.path_shares(k),
        )
    };

    let (d2, f2, _) = run_k(2);
    let (d3, f3, shares3) = run_k(3);
    assert!(d3 > 0.99, "3 paths must deliver: {d3}");
    assert!(f3 <= f2 + 1e-9, "3 paths late {f3} vs 2 paths {f2}");
    assert!(d3 >= d2 - 1e-9);
    // All three paths participate.
    for (k, s) in shares3.iter().enumerate() {
        assert!(*s > 0.1, "path {k} share {s} too small: {shares3:?}");
    }
}
