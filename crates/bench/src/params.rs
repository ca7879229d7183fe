//! Figures 8 and 9 plus the headline result: exploring the parameter space
//! with the model (Section 7.1).

use dmp_core::spec::PathSpec;
use dmp_runner::{JobSpec, Json, Runner};
use tcp_model::{calibrate, LateCellSpec, TauSearchSpec};

use crate::report::{frac, tau, Leaf, RenderError, Table};
use crate::scale::Scale;
use crate::target::{opt_num, TargetReport};

fn homo_paths(p: f64, rtt_s: f64, to: f64, k: usize) -> Vec<PathSpec> {
    vec![
        PathSpec {
            loss: p,
            rtt_s,
            to_ratio: to
        };
        k
    ]
}

fn search_job(label: String, paths: Vec<PathSpec>, mu: f64, scale: &Scale) -> JobSpec<Option<f64>> {
    let opts = scale.search_options();
    let search = TauSearchSpec { paths, mu, opts };
    JobSpec::keyed(label, search, opts.seed, TauSearchSpec::run)
}

/// Fig. 8: diminishing gain from increasing `σ_a/µ`. Fixed `p = 0.02`,
/// `T_O = 4`, `µ = 25` pkt/s; the RTT is varied to sweep the ratio (exactly
/// the paper's manner (1)).
pub fn fig8(r: &Runner, scale: &Scale) -> TargetReport {
    let (p, to, mu) = (0.02, 4.0, 25.0);
    let ratios = [1.2, 1.4, 1.6, 1.8, 2.0];
    let taus: Vec<f64> = (1..=15).map(|i| 2.0 * i as f64).collect();
    // Precompute per-ratio RTTs, then one model job per (τ, ratio) cell.
    let rtts: Vec<f64> = ratios
        .iter()
        .map(|&ratio| calibrate::rtt_for_ratio(p, to, 2, mu, ratio))
        .collect();
    let mut jobs = Vec::with_capacity(taus.len() * ratios.len());
    for &tau_s in &taus {
        for (&ratio, &rtt) in ratios.iter().zip(&rtts) {
            let cell = LateCellSpec {
                paths: homo_paths(p, rtt, to, 2),
                mu,
                tau_s,
                consumptions: scale.model_consumptions,
                seed: scale.seed,
            };
            let label = format!("fig8:ratio{ratio}:tau{tau_s}");
            jobs.push(JobSpec::keyed(label, cell, scale.seed, LateCellSpec::run));
        }
    }
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Fig 8: fraction of late packets vs startup delay, sigma_a/mu in 1.2..2.0 \
         (p=0.02, TO=4, mu=25)",
        &["tau (s)", "1.2", "1.4", "1.6", "1.8", "2.0"],
    );
    let mut series = Vec::new();
    for (ti, &tau_s) in taus.iter().enumerate() {
        let mut row = vec![format!("{tau_s:.0}")];
        let mut fs = Vec::new();
        for ri in 0..ratios.len() {
            let f = *cells[ti * ratios.len() + ri].unwrap();
            row.push(frac(f));
            fs.push(f);
        }
        t.row(row);
        series.push(Json::obj([
            ("tau_s", Json::Num(tau_s)),
            ("f_by_ratio", Json::nums(fs)),
        ]));
    }
    let data = Json::obj([
        ("ratios", Json::nums(ratios)),
        ("points", Json::Arr(series)),
        ("table", t.to_json()),
    ]);
    TargetReport::new(data)
}

/// Fig. 9(a): required startup delay for `f < 10⁻⁴` at `σ_a/µ = 1.6`,
/// `T_O = 4`, varying the RTT; µ ∈ {25, 50, 100}, p ∈ {0.004, 0.02, 0.04}.
/// The (p = 0.004, µ = 25) cell is omitted exactly as in the paper (its RTT
/// exceeds 600 ms).
pub fn fig9a(r: &Runner, scale: &Scale) -> TargetReport {
    let to = 4.0;
    let ratio = 1.6;
    let mus = [25.0, 50.0, 100.0];
    let ps = [0.004, 0.02, 0.04];
    // A `None` slot marks a paper-style omitted cell (RTT > 600 ms).
    let mut jobs = Vec::new();
    let mut included = Vec::new();
    for &mu in &mus {
        for &p in &ps {
            let rtt = calibrate::rtt_for_ratio(p, to, 2, mu, ratio);
            if rtt > 0.6 {
                included.push(false);
            } else {
                included.push(true);
                jobs.push(search_job(
                    format!("fig9a:mu{mu}:p{p}"),
                    homo_paths(p, rtt, to, 2),
                    mu,
                    scale,
                ));
            }
        }
    }
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Fig 9(a): required startup delay (s) for f < 1e-4, sigma_a/mu=1.6, TO=4 (vary R)",
        &["mu (pkts ps)", "p=0.004", "p=0.02", "p=0.04"],
    );
    let mut points = Vec::new();
    let mut next = 0usize;
    for (mi, &mu) in mus.iter().enumerate() {
        let mut row = vec![format!("{mu:.0}")];
        for (pi, &p) in ps.iter().enumerate() {
            if !included[mi * ps.len() + pi] {
                row.push("(RTT>600ms)".to_string());
                points.push(Json::obj([
                    ("mu", Json::Num(mu)),
                    ("p", Json::Num(p)),
                    ("tau_s", Json::Null),
                    ("omitted", Json::Bool(true)),
                ]));
                continue;
            }
            let req = *cells[next].unwrap();
            next += 1;
            row.push(tau(req));
            points.push(Json::obj([
                ("mu", Json::Num(mu)),
                ("p", Json::Num(p)),
                ("tau_s", opt_num(req)),
                ("omitted", Json::Bool(false)),
            ]));
        }
        t.row(row);
    }
    let data = Json::obj([("points", Json::Arr(points)), ("table", t.to_json())]);
    TargetReport::new(data)
}

/// Fig. 9(b): same, but fixing R ∈ {100, 200, 300} ms and varying µ.
pub fn fig9b(r: &Runner, scale: &Scale) -> TargetReport {
    let to = 4.0;
    let ratio = 1.6;
    let rtts_ms = [100.0, 200.0, 300.0];
    let ps = [0.004, 0.02, 0.04];
    let mut jobs = Vec::new();
    for &rtt_ms in &rtts_ms {
        for &p in &ps {
            let mu = calibrate::mu_for_ratio(p, rtt_ms / 1e3, to, 2, ratio);
            jobs.push(search_job(
                format!("fig9b:R{rtt_ms}:p{p}"),
                homo_paths(p, rtt_ms / 1e3, to, 2),
                mu,
                scale,
            ));
        }
    }
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Fig 9(b): required startup delay (s) for f < 1e-4, sigma_a/mu=1.6, TO=4 (vary mu)",
        &["R (ms)", "p=0.004", "p=0.02", "p=0.04"],
    );
    let mut points = Vec::new();
    for (ri, &rtt_ms) in rtts_ms.iter().enumerate() {
        let mut row = vec![format!("{rtt_ms:.0}")];
        for (pi, &p) in ps.iter().enumerate() {
            let req = *cells[ri * ps.len() + pi].unwrap();
            row.push(tau(req));
            points.push(Json::obj([
                ("rtt_ms", Json::Num(rtt_ms)),
                ("p", Json::Num(p)),
                ("tau_s", opt_num(req)),
            ]));
        }
        t.row(row);
    }
    let data = Json::obj([("points", Json::Arr(points)), ("table", t.to_json())]);
    TargetReport::new(data)
}

/// The headline comparison: the smallest `σ_a/µ` ratio at which streaming is
/// satisfactory (f < 10⁻⁴ within ~10 s of startup delay), for K = 1 (the
/// single-path result of Wang et al. 2004: ≈ 2) and K = 2 (this paper's
/// result: ≈ 1.6).
pub fn headline(r: &Runner, scale: &Scale) -> TargetReport {
    let (p, to, mu) = (0.02, 4.0, 25.0);
    let ratios: Vec<f64> = (0..=8).map(|i| 1.2 + 0.1 * i as f64).collect();

    // Framing 1: the RTT is scaled so each K reaches the target ratio.
    // Framing 2: identical fixed paths, the video rate µ_k is scaled.
    let fixed_path = PathSpec {
        loss: p,
        rtt_s: 0.150,
        to_ratio: to,
    };
    let sigma = calibrate::chain_throughput_pps(&fixed_path);
    let mut jobs = Vec::new();
    for &ratio in &ratios {
        for k in [1usize, 2] {
            let rtt = calibrate::rtt_for_ratio(p, to, k, mu, ratio);
            jobs.push(search_job(
                format!("headline:rtt-framing:ratio{ratio:.1}:K{k}"),
                homo_paths(p, rtt, to, k),
                mu,
                scale,
            ));
        }
    }
    for &ratio in &ratios {
        for k in [1usize, 2] {
            let mu_k = k as f64 * sigma / ratio;
            jobs.push(search_job(
                format!("headline:fixed-path:ratio{ratio:.1}:K{k}"),
                vec![fixed_path; k],
                mu_k,
                scale,
            ));
        }
    }
    let cells = r.run_all(jobs);
    let taus: Vec<Option<f64>> = cells.iter().map(|c| *c.unwrap()).collect();

    let mut t = Table::new(
        "Headline: required startup delay (s) vs sigma_a/mu, K=1 vs K=2 (p=0.02, TO=4, mu=25)",
        &["sigma_a/mu", "K=1 (single path)", "K=2 (DMP)"],
    );
    let mut min_ratio = [None::<f64>, None::<f64>];
    let mut rows_rtt = Vec::new();
    for (i, &ratio) in ratios.iter().enumerate() {
        let t1 = taus[2 * i];
        let t2 = taus[2 * i + 1];
        for (idx, req) in [t1, t2].into_iter().enumerate() {
            if let Some(v) = req {
                if v <= 10.0 && min_ratio[idx].is_none() {
                    min_ratio[idx] = Some(ratio);
                }
            }
        }
        t.row(vec![format!("{ratio:.1}"), tau(t1), tau(t2)]);
        rows_rtt.push(Json::obj([
            ("ratio", Json::Num(ratio)),
            ("tau_k1_s", opt_num(t1)),
            ("tau_k2_s", opt_num(t2)),
        ]));
    }
    let mut t2 = Table::new(
        "Headline, fixed-path framing: identical paths (p=0.02, R=150 ms, TO=4), \
         required startup delay (s)",
        &["sigma_a/mu", "K=1", "K=2"],
    );
    let base = 2 * ratios.len();
    let mut rows_fixed = Vec::new();
    for (i, &ratio) in ratios.iter().enumerate() {
        let t1 = taus[base + 2 * i];
        let t2v = taus[base + 2 * i + 1];
        t2.row(vec![format!("{ratio:.1}"), tau(t1), tau(t2v)]);
        rows_fixed.push(Json::obj([
            ("ratio", Json::Num(ratio)),
            ("tau_k1_s", opt_num(t1)),
            ("tau_k2_s", opt_num(t2v)),
        ]));
    }
    let data = Json::obj([
        ("rtt_framing", Json::Arr(rows_rtt)),
        ("fixed_path_framing", Json::Arr(rows_fixed)),
        (
            "min_ratio_tau10",
            Json::obj([("k1", opt_num(min_ratio[0])), ("k2", opt_num(min_ratio[1]))]),
        ),
        ("tables", Json::arr([t.to_json(), t2.to_json()])),
    ]);
    TargetReport::new(data)
}

/// The headline's text: its two tables, the smallest ratios between them.
pub fn render_headline(doc: &Json) -> Result<String, RenderError> {
    let [rtt, fixed] = doc.items("tables")? else {
        return Err(RenderError("`tables` does not hold two tables".into()));
    };
    let min = doc.at("min_ratio_tau10")?;
    let ratio = |k| Ok::<_, RenderError>(min.opt_num(k)?.map_or("-".into(), |v| format!("{v:.1}")));
    Ok(format!(
        "{}\nSmallest ratio with tau <= 10 s:  K=1: {}   K=2: {}\n\
         Caveat: matching the aggregate throughput by scaling the RTT doubles the\n\
         two-path RTT (and timeout stalls), which offsets part of the diversity gain.\n\
         \n{}\
         The paper's rule drops out of this table: two paths at sigma_a/mu = 1.6 need\n\
         about the startup delay one path needs at 2.0 — multipath converts the same\n\
         hardware into ~25% more watchable bitrate.\n",
        Table::from_json(rtt)?.render(),
        ratio("k1")?,
        ratio("k2")?,
        Table::from_json(fixed)?.render(),
    ))
}
