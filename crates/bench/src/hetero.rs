//! Figure 10: the impact of path heterogeneity (Section 7.2).
//!
//! Two scenario families, each compared against a homogeneous scenario with
//! the **same aggregate achievable throughput**:
//!
//! * Case 1 — paths differ only in RTT: `R₁ = γRᵒ`, `R₂ = Rᵒ/(2 − 1/γ)`;
//! * Case 2 — paths differ only in loss: `p₁ = γpᵒ`, `p₂` solved from the
//!   PFTK formula so `σ₁ + σ₂ = 2σᵒ`.
//!
//! For each setting the figure plots the required startup delay under
//! homogeneous paths against the heterogeneous one; points near the diagonal
//! mean DMP-streaming is insensitive to heterogeneity.

use dmp_core::spec::PathSpec;
use dmp_runner::{JobSpec, Json, Runner};
use tcp_model::{pftk, TauSearchSpec};

use crate::report::{tau, Table};
use crate::scale::Scale;
use crate::target::{opt_num, TargetReport};

/// One heterogeneity comparison setting.
#[derive(Debug, Clone, Copy)]
pub struct HeteroSetting {
    /// "rtt" (Case 1) or "loss" (Case 2).
    pub case: &'static str,
    /// Heterogeneity factor γ.
    pub gamma: f64,
    /// Homogeneous loss rate `pᵒ`.
    pub p_o: f64,
    /// Homogeneous RTT `Rᵒ`, seconds.
    pub r_o: f64,
    /// Target `σ_a/µ` ratio.
    pub ratio: f64,
}

/// The 24 settings of the paper: Case 1 with pᵒ ∈ {0.01, 0.04} and Case 2
/// with Rᵒ ∈ {100, 300} ms, γ ∈ {1.5, 2}, ratio ∈ {1.4, 1.6, 1.8}; Rᵒ =
/// 150 ms / pᵒ = 0.02 for the respective fixed parameter, T_O = 4.
pub fn paper_settings() -> Vec<HeteroSetting> {
    let mut v = Vec::new();
    for &gamma in &[1.5, 2.0] {
        for &ratio in &[1.4, 1.6, 1.8] {
            for &p_o in &[0.01, 0.04] {
                v.push(HeteroSetting {
                    case: "rtt",
                    gamma,
                    p_o,
                    r_o: 0.150,
                    ratio,
                });
            }
            for &r_o in &[0.100, 0.300] {
                v.push(HeteroSetting {
                    case: "loss",
                    gamma,
                    p_o: 0.02,
                    r_o,
                    ratio,
                });
            }
        }
    }
    v
}

/// The paths of the heterogeneous scenario for a setting (T_O = 4).
pub fn hetero_paths(s: &HeteroSetting) -> Vec<PathSpec> {
    let to = 4.0;
    match s.case {
        "rtt" => {
            let r1 = s.gamma * s.r_o;
            let r2 = s.r_o / (2.0 - 1.0 / s.gamma);
            vec![
                PathSpec {
                    loss: s.p_o,
                    rtt_s: r1,
                    to_ratio: to,
                },
                PathSpec {
                    loss: s.p_o,
                    rtt_s: r2,
                    to_ratio: to,
                },
            ]
        }
        "loss" => {
            let p1 = s.gamma * s.p_o;
            let sigma_o = pftk::throughput_pps(&PathSpec {
                loss: s.p_o,
                rtt_s: s.r_o,
                to_ratio: to,
            });
            let sigma_1 = pftk::throughput_pps(&PathSpec {
                loss: p1,
                rtt_s: s.r_o,
                to_ratio: to,
            });
            let p2 = pftk::loss_for_throughput(2.0 * sigma_o - sigma_1, s.r_o, to);
            vec![
                PathSpec {
                    loss: p1,
                    rtt_s: s.r_o,
                    to_ratio: to,
                },
                PathSpec {
                    loss: p2,
                    rtt_s: s.r_o,
                    to_ratio: to,
                },
            ]
        }
        other => panic!("unknown case {other}"),
    }
}

/// The playback rate µ that puts the homogeneous scenario at the setting's
/// `σ_a/µ` ratio.
pub fn mu_for(s: &HeteroSetting) -> f64 {
    tcp_model::calibrate::mu_for_ratio(s.p_o, s.r_o, 4.0, 2, s.ratio)
}

/// Fig. 10: required startup delay under homogeneous vs heterogeneous paths.
pub fn fig10(r: &Runner, scale: &Scale) -> TargetReport {
    let settings = paper_settings();
    let opts = scale.search_options();
    // Two τ-searches per setting: the homogeneous baseline and the
    // heterogeneous scenario with the same aggregate throughput.
    let mut jobs = Vec::with_capacity(2 * settings.len());
    for (i, s) in settings.iter().enumerate() {
        let mu = mu_for(s);
        let homo = vec![
            PathSpec {
                loss: s.p_o,
                rtt_s: s.r_o,
                to_ratio: 4.0
            };
            2
        ];
        for (kind, paths) in [("homo", homo), ("hetero", hetero_paths(s))] {
            let search = TauSearchSpec { paths, mu, opts };
            let label = format!("fig10:{i}:{}:g{}:{kind}", s.case, s.gamma);
            jobs.push(JobSpec::keyed(label, search, opts.seed, TauSearchSpec::run));
        }
    }
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Fig 10: required startup delay (s), homogeneous vs heterogeneous paths (TO=4)",
        &[
            "case",
            "gamma",
            "p_o",
            "R_o (ms)",
            "ratio",
            "tau homo",
            "tau hetero",
        ],
    );
    let mut points = Vec::new();
    for (i, s) in settings.iter().enumerate() {
        let tau_homo = *cells[2 * i].unwrap();
        let tau_het = *cells[2 * i + 1].unwrap();
        t.row(vec![
            s.case.to_string(),
            format!("{:.1}", s.gamma),
            format!("{:.3}", s.p_o),
            format!("{:.0}", s.r_o * 1e3),
            format!("{:.1}", s.ratio),
            tau(tau_homo),
            tau(tau_het),
        ]);
        points.push(Json::obj([
            ("case", Json::Str(s.case.to_string())),
            ("gamma", Json::Num(s.gamma)),
            ("p_o", Json::Num(s.p_o)),
            ("r_o_s", Json::Num(s.r_o)),
            ("ratio", Json::Num(s.ratio)),
            ("tau_homo_s", opt_num(tau_homo)),
            ("tau_hetero_s", opt_num(tau_het)),
        ]));
    }
    let data = Json::obj([("points", Json::Arr(points)), ("table", t.to_json())]);
    TargetReport::new(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_has_24_settings() {
        assert_eq!(paper_settings().len(), 24);
    }

    #[test]
    fn case1_rtts_match_paper() {
        // γ = 2, Rᵒ = 150 ms → R₁ = 300 ms, R₂ = 100 ms.
        let s = HeteroSetting {
            case: "rtt",
            gamma: 2.0,
            p_o: 0.01,
            r_o: 0.150,
            ratio: 1.6,
        };
        let p = hetero_paths(&s);
        assert!((p[0].rtt_s - 0.300).abs() < 1e-12);
        assert!((p[1].rtt_s - 0.100).abs() < 1e-12);
        // γ = 1.5 → 225 ms and 112.5 ms.
        let s = HeteroSetting { gamma: 1.5, ..s };
        let p = hetero_paths(&s);
        assert!((p[0].rtt_s - 0.225).abs() < 1e-12);
        assert!((p[1].rtt_s - 0.1125).abs() < 1e-12);
    }

    #[test]
    fn aggregate_throughput_is_preserved() {
        for s in paper_settings() {
            let homo = PathSpec {
                loss: s.p_o,
                rtt_s: s.r_o,
                to_ratio: 4.0,
            };
            let sigma_o = pftk::throughput_pps(&homo);
            let agg: f64 = hetero_paths(&s).iter().map(pftk::throughput_pps).sum();
            assert!(
                (agg - 2.0 * sigma_o).abs() / (2.0 * sigma_o) < 1e-6,
                "{s:?}: {agg} vs {}",
                2.0 * sigma_o
            );
        }
    }

    #[test]
    fn case2_losses_match_paper() {
        // γ = 2, Rᵒ = 100 ms, pᵒ = 0.02 → p₁ = 0.04, p₂ ≈ 0.012.
        let s = HeteroSetting {
            case: "loss",
            gamma: 2.0,
            p_o: 0.02,
            r_o: 0.100,
            ratio: 1.6,
        };
        let p = hetero_paths(&s);
        assert!((p[0].loss - 0.04).abs() < 1e-12);
        assert!((p[1].loss - 0.012).abs() < 0.002, "p₂ = {}", p[1].loss);
    }
}
