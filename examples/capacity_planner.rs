//! Capacity planner: a downstream-user tool built on the model. Given the
//! TCP-level characteristics of your paths (loss, RTT, timeout ratio), it
//! reports the maximum video bitrate each startup-delay budget supports —
//! for single-path, static multipath, and DMP streaming.
//!
//! This is the interactive face of the `capacity_planner` reproduction
//! target (`cargo run --release -p dmp-bench -- capacity_planner`), which
//! renders the same cells as dense cached heatmaps. Here each cell is a
//! [`MuCellSpec`] evaluated in-process via the library's `max_mu` bisection.
//!
//! ```sh
//! cargo run --release --example capacity_planner [loss] [rtt_ms] [to_ratio]
//! ```
//!
//! A loss, RTT or timeout ratio that is not a finite number prints the usage
//! and exits 2.

use mptcp_streaming::prelude::*;
use mptcp_streaming::tcp_model::{
    calibrate, MuCellSpec, PlannerOptions, PlannerScheme, SearchOptions,
};

/// The `n`th argument as a finite number, `default` when it is absent.
fn arg(n: usize, default: f64) -> f64 {
    let Some(s) = std::env::args().nth(n) else {
        return default;
    };
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => v,
        _ => {
            eprintln!(
                "capacity_planner: `{s}` is not a finite number\n\
                 usage: capacity_planner [loss] [rtt_ms] [to_ratio]"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let path = PathSpec::from_ms(arg(1, 0.02), arg(2, 150.0), arg(3, 3.0));
    let wmax = DmpModel::DEFAULT_WMAX;
    let sigma = calibrate::chain_throughput_pps(&path, wmax);
    let pkt_kbps = 1500.0 * 8.0 / 1e3;
    // The library's planner defaults (µ bracket, resolution, f < 1e-4
    // threshold) at an example-sized SSA budget.
    let opts = PlannerOptions {
        search: SearchOptions {
            block: 125_000,
            max_consumptions: 250_000,
            seed: 11,
            ..SearchOptions::default()
        },
        ..PlannerOptions::default()
    };

    println!(
        "path: loss {:.3}, RTT {:.0} ms, T_O {:.1}  →  achievable TCP throughput ≈ {:.1} pkt/s ({:.0} kbps)",
        path.loss,
        path.rtt_s * 1e3,
        path.to_ratio,
        sigma,
        sigma * pkt_kbps
    );
    println!(
        "\nmax supported video bitrate (kbps at 1500 B packets), f < {:.0e}:\n",
        opts.search.threshold
    );
    println!(
        "{:>8}  {:>12}  {:>16}  {:>12}",
        "τ (s)", "single path", "static 2-path", "DMP 2-path"
    );

    let kbps = |m: Option<f64>| m.map_or("-".to_string(), |mu| format!("{:.0}", mu * pkt_kbps));
    for tau in [6.0, 10.0, 16.0, 24.0] {
        let cell = |scheme| {
            MuCellSpec {
                paths: vec![path; 2],
                tau_s: tau,
                scheme,
                opts,
            }
            .run()
        };
        println!(
            "{:>8.0}  {:>12}  {:>16}  {:>12}",
            tau,
            kbps(cell(PlannerScheme::SinglePath)),
            kbps(cell(PlannerScheme::Static)),
            kbps(cell(PlannerScheme::Dmp))
        );
    }
    println!(
        "\nDMP-streaming turns the second path into usable capacity: its supported\n\
         bitrate approaches the full aggregate (σa/µ → 1.6) while static splitting\n\
         keeps per-path reserves and single-path needs σ/µ ≈ 2."
    );
}
