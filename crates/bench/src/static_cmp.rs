//! Figure 11: DMP-streaming versus the static allocation scheme
//! (Section 7.4), in the model.
//!
//! With two homogeneous paths, static streaming is two independent
//! single-path streams of rate µ/2; its required startup delay is computed
//! with the single-path (K = 1, µ/2) model and compared against DMP's.

use dmp_core::spec::PathSpec;
use dmp_runner::{JobSpec, Json, Runner};
use tcp_model::{calibrate, TauSearchSpec};

use crate::report::{tau, Table};
use crate::scale::Scale;
use crate::target::{opt_num, TargetReport};

/// One comparison column of Fig. 11.
#[derive(Debug, Clone, Copy)]
pub struct StaticSetting {
    /// RTT, seconds.
    pub rtt_s: f64,
    /// Target `σ_a/µ`.
    pub ratio: f64,
}

/// The figure's five setting groups: R ∈ {100, 200, 300} ms at
/// `σ_a/µ = 1.6`, plus R = 300 ms at 1.8 and 2.0; loss ∈ {0.004, 0.02,
/// 0.04} within each group, T_O = 4.
pub fn paper_settings() -> Vec<StaticSetting> {
    vec![
        StaticSetting {
            rtt_s: 0.100,
            ratio: 1.6,
        },
        StaticSetting {
            rtt_s: 0.200,
            ratio: 1.6,
        },
        StaticSetting {
            rtt_s: 0.300,
            ratio: 1.6,
        },
        StaticSetting {
            rtt_s: 0.300,
            ratio: 1.8,
        },
        StaticSetting {
            rtt_s: 0.300,
            ratio: 2.0,
        },
    ]
}

/// Fig. 11: required startup delay, static vs DMP, across the paper's
/// representative settings.
pub fn fig11(r: &Runner, scale: &Scale) -> TargetReport {
    let opts = scale.search_options();
    let losses = [0.004, 0.02, 0.04];
    // Per (setting, p): a static search (K=1 at µ/2) and a DMP search
    // (K=2 at µ). Static streaming over two identical paths is two
    // independent single-path streams, so one K=1 search covers it.
    let mut grid = Vec::new();
    let mut jobs = Vec::new();
    for s in paper_settings() {
        for &p in &losses {
            let mu = calibrate::mu_for_ratio(p, s.rtt_s, 4.0, 2, s.ratio);
            let path = PathSpec {
                loss: p,
                rtt_s: s.rtt_s,
                to_ratio: 4.0,
            };
            for (scheme, paths, mu) in
                [("static", vec![path], mu / 2.0), ("dmp", vec![path; 2], mu)]
            {
                let search = TauSearchSpec { paths, mu, opts };
                let label = format!("fig11:R{}:r{}:p{p}:{scheme}", s.rtt_s, s.ratio);
                jobs.push(JobSpec::keyed(label, search, opts.seed, TauSearchSpec::run));
            }
            grid.push((s, p));
        }
    }
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Fig 11: required startup delay (s), static-streaming vs DMP-streaming (TO=4)",
        &["R (ms)", "sigma_a/mu", "p", "static", "DMP"],
    );
    let mut points = Vec::new();
    for (i, (s, p)) in grid.iter().enumerate() {
        let t_static = *cells[2 * i].unwrap();
        let t_dmp = *cells[2 * i + 1].unwrap();
        t.row(vec![
            format!("{:.0}", s.rtt_s * 1e3),
            format!("{:.1}", s.ratio),
            format!("{p:.3}"),
            tau(t_static),
            tau(t_dmp),
        ]);
        points.push(Json::obj([
            ("rtt_s", Json::Num(s.rtt_s)),
            ("ratio", Json::Num(s.ratio)),
            ("p", Json::Num(*p)),
            ("tau_static_s", opt_num(t_static)),
            ("tau_dmp_s", opt_num(t_dmp)),
        ]));
    }
    let data = Json::obj([("points", Json::Arr(points)), ("table", t.to_json())]);
    TargetReport::new(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn dmp_needs_no_more_delay_than_static() {
        // One representative point, quick search budget.
        let scale = Scale::quick();
        let opts = scale.search_options();
        let p = 0.02;
        let s = StaticSetting {
            rtt_s: 0.200,
            ratio: 1.6,
        };
        let mu = calibrate::mu_for_ratio(p, s.rtt_s, 4.0, 2, s.ratio);
        let path = PathSpec {
            loss: p,
            rtt_s: s.rtt_s,
            to_ratio: 4.0,
        };
        // The two cells `fig11` submits: static is K = 1 at µ/2, DMP K = 2 at µ.
        let static_cell = TauSearchSpec {
            paths: vec![path],
            mu: mu / 2.0,
            opts,
        };
        let dmp_cell = TauSearchSpec {
            paths: vec![path; 2],
            mu,
            opts,
        };
        let t_static = static_cell.run().expect("static reachable");
        let t_dmp = dmp_cell.run().expect("dmp reachable");
        assert!(
            t_dmp <= t_static,
            "DMP τ = {t_dmp} should not exceed static τ = {t_static}"
        );
    }
}
