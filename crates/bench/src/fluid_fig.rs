//! The Section 7.3 fluid example: DMP vs single-path streaming over
//! periodically congested paths (the paper states the result in text; we
//! regenerate the underlying curves).

use dmp_runner::{Json, Runner};
use tcp_model::fluid::{single_path_late_fraction, two_path_late_fraction};

use crate::report::Table;
use crate::scale::Scale;
use crate::target::TargetReport;

/// Print `f(x)` for the single path and for DMP (aligned and anti-aligned
/// phases) across the split `x ∈ (0, µ]` and a few startup delays. The
/// paper's period of 10 s and playback rate µ = 50 pkt/s are used.
/// Evaluated inline, no jobs: 63 Euler integrations of 400 k steps each
/// (≈ 0.3 s), the single-path curve once per τ since it depends on neither
/// the split nor the alignment.
pub fn fig_fluid(_r: &Runner, _scale: &Scale) -> TargetReport {
    let mu = 50.0;
    let period = 10.0;
    let mut text = String::new();
    let mut tau_blocks = Vec::new();
    for &tau in &[3.0, 4.0, 5.0] {
        let mut t = Table::new(
            format!("Sec 7.3 fluid example: fraction late vs split x (tau = {tau} s, period 10 s)"),
            &[
                "x (pkts ps)",
                "single path",
                "DMP aligned",
                "DMP anti-aligned",
            ],
        );
        let mut points = Vec::new();
        let f_single = single_path_late_fraction(mu, period, tau);
        for i in 1..=10 {
            let x = mu * i as f64 / 10.0;
            let f_aligned = two_path_late_fraction(mu, x, period, tau, false);
            let f_anti = two_path_late_fraction(mu, x, period, tau, true);
            t.row(vec![
                format!("{x:.0}"),
                format!("{f_single:.4}"),
                format!("{f_aligned:.4}"),
                format!("{f_anti:.4}"),
            ]);
            points.push(Json::obj([
                ("x_pps", Json::Num(x)),
                ("f_single", Json::Num(f_single)),
                ("f_dmp_aligned", Json::Num(f_aligned)),
                ("f_dmp_anti_aligned", Json::Num(f_anti)),
            ]));
        }
        text.push_str(&t.render());
        text.push('\n');
        tau_blocks.push(Json::obj([
            ("tau_s", Json::Num(tau)),
            ("points", Json::Arr(points)),
        ]));
    }
    text.push_str(
        "Claim check: DMP <= single path for every split and alignment; anti-aligned\n\
         paths (alternating congestion) are strictly better whenever tau is below the\n\
         congested interval (tau < 5 s here).\n",
    );
    let data = Json::obj([
        ("mu_pps", Json::Num(mu)),
        ("period_s", Json::Num(period)),
        ("curves", Json::Arr(tau_blocks)),
    ]);
    TargetReport::new(text, data)
}
