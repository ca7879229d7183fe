//! The paper's two motivating questions, answered with the analytical model:
//!
//! **(i)** If one access link supports a video, can it be replaced by two
//! links of half the bandwidth?
//!
//! **(ii)** If a user subscribes to a *second* access link like the first,
//! can they watch videos of twice the bitrate?
//!
//! ```sh
//! cargo run --release --example multipath_vs_single
//! ```

use mptcp_streaming::prelude::*;
use mptcp_streaming::tcp_model::calibrate;

const THRESHOLD: f64 = 1e-4; // "satisfactory": < 0.01% late packets

fn required_tau(paths: Vec<PathSpec>, mu: f64) -> Option<f64> {
    let opts = SearchOptions {
        threshold: THRESHOLD,
        max_consumptions: 600_000,
        block: 150_000,
        ..SearchOptions::default()
    };
    required_startup_delay(|tau| DmpModel::new(paths.clone(), mu, tau), &opts)
}

fn main() {
    let (p, to) = (0.02, 4.0);

    // A single path dialled to σ/µ = 2 — the single-path rule of thumb of
    // Wang et al. 2004 — for a 25 pkt/s (300 kbps) video.
    let mu = 25.0;
    let rtt_single = calibrate::rtt_for_ratio(p, to, 1, mu, 2.0);
    let single = PathSpec {
        loss: p,
        rtt_s: rtt_single,
        to_ratio: to,
    };
    let sigma_single = calibrate::chain_throughput_pps(&single);
    println!(
        "single path: σ = {:.1} pkt/s at p = {p}, R = {:.0} ms (σ/µ = 2.0)",
        sigma_single,
        rtt_single * 1e3
    );
    println!(
        "  required startup delay: {:?} s",
        required_tau(vec![single], mu)
    );

    // (i) Two paths with HALF the achievable throughput each (same aggregate).
    let half = PathSpec {
        loss: p,
        rtt_s: 2.0 * rtt_single,
        to_ratio: to,
    };
    println!(
        "\n(i) two half-rate paths (σ_k = {:.1} pkt/s each, same aggregate):",
        sigma_single / 2.0
    );
    println!(
        "  required startup delay: {:?} s",
        required_tau(vec![half; 2], mu)
    );
    println!("  → yes: the same video streams over two half-rate links.");

    // (ii) Two paths like the original, video bitrate DOUBLED.
    println!(
        "\n(ii) two full-rate paths, video bitrate doubled (µ = {} pkt/s):",
        2.0 * mu
    );
    println!(
        "  required startup delay: {:?} s",
        required_tau(vec![single; 2], 2.0 * mu)
    );
    println!("  → yes: doubling the subscription doubles the watchable bitrate.");

    // The reason: multipath needs σa/µ ≈ 1.6, single path ≈ 2. Show the
    // margin at the multipath rule.
    let mu_at_1_6 = calibrate::mu_for_ratio(p, rtt_single, to, 2, 1.6);
    println!(
        "\nat σa/µ = 1.6 the same two paths even support µ = {:.1} pkt/s (> 2×{mu}):",
        mu_at_1_6
    );
    println!(
        "  required startup delay: {:?} s",
        required_tau(vec![single; 2], mu_at_1_6)
    );
}
