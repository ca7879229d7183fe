//! Cross-crate validation in the spirit of the paper's Section 5: run the
//! packet-level simulator, feed the measured path parameters into the
//! analytical model, and check that the two views of DMP-streaming agree on
//! ordering and rough magnitude. Also checks the simulator-level scheme
//! comparisons that the model claims (DMP ≥ static, multipath helps).

use dmp_core::spec::{PathSpec, SchedulerKind};
use dmp_runner::{Cache, Runner};
use dmp_sim::{batch_jobs, setting, BatchOutput, ExperimentSpec, RunSummary};
use tcp_model::DmpModel;

/// Four replications of `name` under `scheduler`, through the runner and
/// the reduce every target uses.
fn batch(name: &str, scheduler: SchedulerKind, taus: &[f64]) -> BatchOutput {
    let mut spec = ExperimentSpec::new(*setting(name).unwrap(), scheduler, 600.0, 41);
    spec.warmup_s = 15.0;
    let runner = Runner::new(2, Cache::disabled()).with_progress(false);
    let cells = runner.run_all(batch_jobs(&spec, 4, taus));
    let summaries: Vec<RunSummary> = cells.iter().map(|c| c.unwrap().clone()).collect();
    BatchOutput::from_summaries(taus, &summaries)
}

#[test]
fn measured_parameters_look_like_table2() {
    let b = batch("2-2", SchedulerKind::Dynamic, &[]);
    for k in 0..2 {
        let p = b.loss[k].mean();
        let r = b.rtt[k].mean();
        let to = b.to_ratio[k].mean();
        assert!((0.003..0.08).contains(&p), "p_{k} = {p}");
        assert!((0.05..0.40).contains(&r), "R_{k} = {r}");
        assert!((1.2..4.5).contains(&to), "TO_{k} = {to}");
    }
    // Homogeneous paths: losses within a factor ~3 of each other on average.
    let ratio = b.loss[0].mean() / b.loss[1].mean();
    assert!((0.3..3.0).contains(&ratio), "path loss asymmetry {ratio}");
}

#[test]
fn sim_lateness_is_monotone_in_tau_and_model_tracks_it() {
    let taus = [3.0, 5.0, 8.0];
    let b = batch("2-2", SchedulerKind::Dynamic, &taus);
    let f: Vec<f64> = b.late_playback.iter().map(|(_, s)| s.mean()).collect();
    assert!(f[0] >= f[1] && f[1] >= f[2], "not monotone: {f:?}");
    assert!(f[0] > 0.0, "setting 2-2 must show some lateness at τ = 3 s");

    // Model at the measured parameters. The reconstruction is conservative
    // (it can over-predict lateness by up to about an order of magnitude at
    // comfortable throughput ratios — see EXPERIMENTS.md); we require the
    // paper's qualitative claim: same ordering, magnitudes within two orders.
    let paths: Vec<PathSpec> = (0..2)
        .map(|k| PathSpec {
            loss: b.loss[k].mean().max(1e-5),
            rtt_s: b.rtt[k].mean(),
            to_ratio: b.to_ratio[k].mean().max(1.0),
        })
        .collect();
    let video_mu = setting("2-2").unwrap().video.rate_pps;
    for (i, &tau) in taus.iter().enumerate() {
        let fm = DmpModel::new(paths.clone(), video_mu, tau)
            .late_fraction(400_000, 5)
            .f;
        if f[i] > 1e-3 {
            let ratio = fm / f[i];
            assert!(
                (0.01..=100.0).contains(&ratio),
                "τ={tau}: model {fm:.2e} vs sim {:.2e}",
                f[i]
            );
        }
    }
}

#[test]
fn out_of_order_effect_is_negligible_in_sim() {
    // The Section 4.1 assumption, checked on real simulation traces: playing
    // back in arrival order gives (nearly) the same late fraction.
    let taus = [3.0, 6.0];
    let b = batch("1-2", SchedulerKind::Dynamic, &taus);
    for (i, tau) in taus.iter().enumerate() {
        let fp = b.late_playback[i].1.mean();
        let fa = b.late_arrival[i].1.mean();
        if fp > 1e-3 {
            let ratio = fa / fp;
            assert!(
                (0.3..=1.5).contains(&ratio),
                "τ={tau}: arrival-order {fa:.2e} vs playback-order {fp:.2e}"
            );
        }
    }
}

#[test]
fn dmp_beats_static_in_the_simulator_too() {
    // Fig. 11 is a model result; verify the same ordering end-to-end in the
    // packet simulator on a congested setting.
    let taus = [2.0, 4.0, 6.0];
    let dynamic = batch("2-2", SchedulerKind::Dynamic, &taus);
    let static_ = batch("2-2", SchedulerKind::Static, &taus);
    let fd: f64 = dynamic.late_playback.iter().map(|(_, s)| s.mean()).sum();
    let fs: f64 = static_.late_playback.iter().map(|(_, s)| s.mean()).sum();
    assert!(
        fd <= fs * 1.3 + 1e-6,
        "dynamic (sum f = {fd:.3e}) should not lose clearly to static (sum f = {fs:.3e})"
    );
}

/// Setting 1-3: path 2 uses config 3 (5 Mbps, 19 FTPs) vs config 1
/// (3.7 Mbps, 9 FTPs). Whatever the exact shares, DMP must keep both paths
/// in use and deliver the stream, and the capacity-blind equal static split
/// must lose, by a margin: at seed 41 static is late 2.5×, 13× and ∞× as
/// often as DMP at τ = 2, 4, 6 s (f = 0.099 vs 0.039, 0.026 vs 0.002,
/// 0.0056 vs 0), and this asserts at least 1.5×. Unlike the "not clearly
/// worse" check above, this one fails when the two schedulers are the same
/// code (`tools/mutants/static_as_dynamic.patch`).
#[test]
fn dynamic_split_follows_capacity_in_heterogeneous_setting() {
    let taus = [2.0, 4.0, 6.0];
    let dynamic = batch("1-3", SchedulerKind::Dynamic, &taus);
    for k in 0..2 {
        let share = dynamic.share[k].mean();
        assert!((0.15..0.85).contains(&share), "share_{k} = {share}");
    }
    let static_ = batch("1-3", SchedulerKind::Static, &taus);
    let pairs = dynamic.late_playback.iter().zip(&static_.late_playback);
    for ((tau, d), (_, s)) in pairs {
        let (fd, fs) = (d.mean(), s.mean());
        assert!(
            fs > 0.0 && 1.5 * fd < fs,
            "tau {tau}: static f = {fs:.3e} must be over 1.5x dynamic f = {fd:.3e}"
        );
    }
}
