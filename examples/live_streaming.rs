//! Live streaming over **real TCP sockets**: a server stripes a CBR video
//! over two emulated access paths (different bandwidths), and the client
//! reassembles and scores it. Streams ~14 s of video in ~4 s of wall clock
//! (the emulation runs 4× faster than real time).
//!
//! ```sh
//! cargo run --release --example live_streaming
//! ```

use std::time::{Duration, Instant};

use mptcp_streaming::dmp_live::{run_experiment, LiveExperiment, PathProfile};
use mptcp_streaming::prelude::*;

fn main() -> std::io::Result<()> {
    // Two asymmetric "ADSL" paths: 700 kbps and 450 kbps, with fluctuating
    // service rate (±35%) — together ≈1.4× the video bitrate.
    let video = VideoSpec {
        rate_pps: 70.0,
        packet_bytes: 1448,
    }; // ≈ 810 kbps
    let exp = LiveExperiment {
        video,
        packets: 1_000, // ≈ 14 s of video
        paths: vec![
            PathProfile {
                rate_bps: 700_000.0,
                variability: 0.35,
                resample_every: Duration::from_millis(800),
                delay: Duration::from_millis(30),
                queue_bytes: 48 * 1024,
            },
            PathProfile {
                rate_bps: 450_000.0,
                variability: 0.35,
                resample_every: Duration::from_millis(800),
                delay: Duration::from_millis(70),
                queue_bytes: 48 * 1024,
            },
        ],
        send_buf_bytes: 16 * 1024,
        seed: 7,
        // Run the emulation 4× faster than real time (timestamps are scaled
        // back): ~14 s of video streams in ~3.5 s of wall clock.
        time_dilation: 4.0,
        trace: None,
    };

    println!(
        "streaming {:.0} kbps over 700 + 450 kbps emulated paths (σa/µ ≈ {:.2})…",
        video.bitrate_bps() / 1e3,
        exp.aggregate_ratio()
    );
    let t0 = Instant::now();
    let run = run_experiment(&exp, &[1.0, 2.0, 4.0, 8.0])?;

    let trace = &run.output.trace;
    println!(
        "\ndelivered {}/{} packets in {:.1} s of wall clock",
        trace.delivered(),
        trace.generated(),
        t0.elapsed().as_secs_f64()
    );
    let shares = trace.path_shares(2);
    let capacity: Vec<f64> = exp.paths.iter().map(|p| p.rate_bps).collect();
    let total: f64 = capacity.iter().sum();
    for (k, (share, rate)) in shares.iter().zip(&capacity).enumerate() {
        println!(
            "path {k}: carried {:>4.1}% of the stream; {:>4.1}% of the capacity",
            share * 100.0,
            rate / total * 100.0
        );
    }
    // Each path alone can carry half the stream (405 kbps ≤ 450 kbps), so
    // neither send buffer stays full for long and the pull race splits the
    // packets about evenly. Backpressure moves load to the faster path only
    // where half the stream exceeds the slower one: at µ = 100 pkt/s
    // (≈ 1.16 Mbps) the split reads about 58/42.
    println!("\nstartup delay → fraction of late packets:");
    for lf in &run.report.per_tau {
        println!("  τ = {:>4.1} s → {:>9.2e}", lf.tau_s, lf.playback_order);
    }
    Ok(())
}
