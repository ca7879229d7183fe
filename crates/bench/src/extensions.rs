//! Beyond the paper: the extensions its conclusion points to (more than two
//! paths, stored video) and ablations of the design choices DESIGN.md calls
//! out (send-buffer size, queue discipline, TCP flavour).

use dmp_core::spec::{PathSpec, SchedulerKind};
use dmp_core::stats::OnlineStats;
use dmp_runner::{JobSpec, Json, Runner};
use dmp_sim::{run_summary, setting, ExperimentSpec, RunSummary};
use netsim::tcp::TcpFlavor;
use tcp_model::{calibrate, stored_video_late_fraction, DmpModel, LateCellSpec, TauSearchSpec};

use crate::report::{frac, tables, tau, RenderError, Table};
use crate::scale::Scale;
use crate::target::{opt_num, TargetReport};

/// Extension 1 — `K > 2` paths (the paper: "performance study under larger
/// number of paths is left as future work"): required startup delay at a
/// fixed aggregate ratio as the same capacity is spread over more paths.
pub fn ext_kpaths(r: &Runner, scale: &Scale) -> TargetReport {
    let (p, to) = (0.02, 4.0);
    let path = PathSpec {
        loss: p,
        rtt_s: 0.150,
        to_ratio: to,
    };
    let sigma = calibrate::chain_throughput_pps(&path);
    let ratios = [1.4, 1.6, 1.8];
    let opts = scale.search_options();
    let mut jobs = Vec::new();
    for k in 1..=4usize {
        for &ratio in &ratios {
            let search = TauSearchSpec {
                paths: vec![path; k],
                mu: k as f64 * sigma / ratio,
                opts,
            };
            let label = format!("ext_kpaths:K{k}:ratio{ratio}");
            jobs.push(JobSpec::keyed(label, search, opts.seed, TauSearchSpec::run));
        }
    }
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Extension: K identical paths (p=0.02, R=150ms, TO=4), video scaled to keep \
         sigma_a/mu fixed — the paper's question (ii) generalised",
        &[
            "K",
            "mu (pkts ps) @1.6",
            "ratio 1.4",
            "ratio 1.6",
            "ratio 1.8",
        ],
    );
    let mut points = Vec::new();
    for k in 1..=4usize {
        let mut row = vec![k.to_string(), format!("{:.0}", k as f64 * sigma / 1.6)];
        for (ri, &ratio) in ratios.iter().enumerate() {
            let req = *cells[(k - 1) * ratios.len() + ri].unwrap();
            row.push(tau(req));
            points.push(Json::obj([
                ("k", Json::Num(k as f64)),
                ("ratio", Json::Num(ratio)),
                ("tau_s", opt_num(req)),
            ]));
        }
        t.row(row);
    }
    let data = Json::obj([("points", Json::Arr(points)), ("table", t.to_json())]);
    TargetReport::new(data)
}

/// `ext_kpaths`'s text: its table and how to read it.
pub fn render_kpaths(doc: &Json) -> Result<String, RenderError> {
    Ok(tables(doc)?
        + "Reading: every added subscription adds its full throughput to the watchable\n\
           bitrate at the same ratio, and the required startup delay shrinks with K:\n\
           with more independent paths, one path's timeout stalls a smaller share of\n\
           the stream while the survivors keep filling the buffer (path diversity).\n")
}

/// Extension 2 — stored-video streaming: live vs stored late fraction at the
/// same paths, µ and τ (the stored sender may work arbitrarily far ahead).
pub fn ext_stored(r: &Runner, scale: &Scale) -> TargetReport {
    let (p, to, mu) = (0.02, 4.0, 25.0);
    let taus = [2.0, 4.0, 8.0, 12.0];
    let rtt = calibrate::rtt_for_ratio(p, to, 2, mu, 1.3);
    let paths = vec![
        PathSpec {
            loss: p,
            rtt_s: rtt,
            to_ratio: to
        };
        2
    ];
    // One job per τ returning `[f_live, f_stored]` at the model point of a
    // late cell; the payload type keeps it apart from the cell's own `f`.
    let seed = scale.seed;
    let jobs: Vec<JobSpec<Vec<f64>>> = taus
        .iter()
        .map(|&tau_s| {
            let cell = LateCellSpec {
                paths: paths.clone(),
                mu,
                tau_s,
                consumptions: scale.model_consumptions,
                seed,
            };
            JobSpec::keyed(format!("ext_stored:tau{tau_s}"), cell, seed, |c| {
                let model = DmpModel::new(c.paths.clone(), c.mu, c.tau_s);
                let live = model.late_fraction(c.consumptions, c.seed).f;
                let stored = stored_video_late_fraction(
                    &model,
                    (c.consumptions / 20).max(10_000),
                    10,
                    c.seed,
                );
                vec![live, stored.f]
            })
        })
        .collect();
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Extension: live vs stored video (p=0.02, TO=4, mu=25, sigma_a/mu=1.3)",
        &["tau (s)", "f live", "f stored"],
    );
    let mut points = Vec::new();
    for (i, &tau_s) in taus.iter().enumerate() {
        let fs = cells[i].unwrap();
        t.row(vec![format!("{tau_s:.0}"), frac(fs[0]), frac(fs[1])]);
        points.push(Json::obj([
            ("tau_s", Json::Num(tau_s)),
            ("f_live", Json::Num(fs[0])),
            ("f_stored", Json::Num(fs[1])),
        ]));
    }
    let data = Json::obj([("points", Json::Arr(points)), ("table", t.to_json())]);
    TargetReport::new(data)
}

/// `ext_stored`'s text: its table and how to read it.
pub fn render_stored(doc: &Json) -> Result<String, RenderError> {
    Ok(tables(doc)?
        + "Reading: the generation constraint is what makes live streaming hard; a\n\
           stored video with the same startup delay buffers ahead and suffers less.\n")
}

/// Ablations in the packet simulator: send-buffer size, RED vs drop-tail,
/// Reno vs NewReno for the video flows (Setting 2-2).
pub fn ext_ablations(r: &Runner, scale: &Scale) -> TargetReport {
    let taus = [3.0, 6.0, 9.0];
    let base = || {
        let mut s = ExperimentSpec::new(
            *setting("2-2").expect("built-in"),
            SchedulerKind::Dynamic,
            scale.sim_duration_s,
            scale.seed,
        );
        s.warmup_s = 15.0;
        s
    };
    let runs = scale.sim_runs.max(2);

    let mut variants: Vec<(String, ExperimentSpec)> = Vec::new();
    variants.push(("baseline (drop-tail, Reno, buf 32)".into(), base()));
    for &buf in &[8usize, 128] {
        let mut s = base();
        s.send_buf_pkts = buf;
        variants.push((format!("send buffer {buf} pkts"), s));
    }
    let mut s = base();
    s.red = true;
    variants.push(("RED bottlenecks".into(), s));
    let mut s = base();
    s.video_flavor = TcpFlavor::NewReno;
    variants.push(("NewReno video flows".into(), s));
    let mut s = base();
    s.scheduler = SchedulerKind::Static;
    variants.push(("static splitting".into(), s));

    // One job per (variant, replication), keyed like `batch_jobs`'s; the
    // ablations keep their original seed schedule (`seed + 7919·i`).
    let mut jobs = Vec::with_capacity(variants.len() * runs);
    for (vi, (_, spec)) in variants.iter().enumerate() {
        for i in 0..runs {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(7919 * i as u64);
            let seed = s.seed;
            jobs.push(JobSpec::keyed(
                format!("ablate:v{vi}:run{i}"),
                (s, taus.to_vec()),
                seed,
                |(s, taus)| run_summary(s, taus),
            ));
        }
    }
    let cells = r.run_all(jobs);

    let mut t = Table::new(
        "Ablations on Setting 2-2 (mean over runs)",
        &[
            "variant",
            "video loss p",
            "f(tau=3)",
            "f(tau=6)",
            "f(tau=9)",
        ],
    );
    let mut points = Vec::new();
    for (vi, (name, _)) in variants.iter().enumerate() {
        let summaries: Vec<&RunSummary> = cells[vi * runs..(vi + 1) * runs]
            .iter()
            .map(|c| c.unwrap())
            .collect();
        let mut loss = OnlineStats::new();
        let mut f = vec![OnlineStats::new(); taus.len()];
        for summary in &summaries {
            for p in &summary.paths {
                loss.push(p.loss);
            }
            for (slot, lf) in f.iter_mut().zip(&summary.per_tau) {
                slot.push(lf.playback_order);
            }
        }
        let f_means: Vec<f64> = f.iter().map(OnlineStats::mean).collect();
        t.row(vec![
            name.clone(),
            format!("{:.4}", loss.mean()),
            frac(f_means[0]),
            frac(f_means[1]),
            frac(f_means[2]),
        ]);
        points.push(Json::obj([
            ("variant", Json::Str(name.clone())),
            ("loss_mean", Json::Num(loss.mean())),
            ("tau_s", Json::nums(taus)),
            ("f_mean", Json::nums(f_means)),
        ]));
    }

    let data = Json::obj([("variants", Json::Arr(points)), ("table", t.to_json())]);
    TargetReport::new(data)
}

/// `ext_ablations`'s text: its table and notes on each variant.
pub fn render_ablations(doc: &Json) -> Result<String, RenderError> {
    Ok(tables(doc)?
        + "Notes: the send buffer shifts where packets queue (a huge buffer commits\n\
           packets to a path early and behaves more like static splitting). RED\n\
           equalises loss rates across flows — which *hurts* the paced video stream:\n\
           under drop-tail (+RTT diversity) a low-rate paced flow sees less loss than\n\
           the fair-share equilibrium, and the video depends on that. NewReno's\n\
           multi-loss recovery shaves the lateness tail.\n")
}
