//! The Section 7.3 fluid example: DMP vs single-path streaming over
//! periodically congested paths (the paper states the result in text; we
//! regenerate the underlying curves).

use dmp_runner::{JobSpec, Json, Runner};
use tcp_model::FluidCellSpec;

use crate::report::{Leaf, RenderError, Table};
use crate::scale::Scale;
use crate::target::TargetReport;

/// The startup delays, seconds, one table each.
const TAUS: [f64; 3] = [3.0, 4.0, 5.0];
/// Splits `x = µ·i/10` for `i = 1..=SPLITS`.
const SPLITS: usize = 10;

/// Print `f(x)` for the single path and for DMP (aligned and anti-aligned
/// phases) across the split `x ∈ (0, µ]` and a few startup delays. The
/// paper's period of 10 s and playback rate µ = 50 pkt/s are used. Each of
/// the 63 Euler integrations (400 k steps) is a keyed job — the single-path
/// curve once per τ, since it depends on neither the split nor the
/// alignment — so a cold run fans them over the pool and a warm one reads
/// them all from the cache.
pub fn fig_fluid(r: &Runner, _scale: &Scale) -> TargetReport {
    let mu = 50.0;
    let period_s = 10.0;
    let x_at = |i: usize| mu * i as f64 / 10.0;
    // Per τ: the single path, then (aligned, anti-aligned) for each split.
    let mut jobs = Vec::with_capacity(TAUS.len() * (1 + 2 * SPLITS));
    for tau_s in TAUS {
        let cell = |split| FluidCellSpec {
            mu,
            period_s,
            tau_s,
            split,
        };
        let job = |label: String, c: FluidCellSpec| JobSpec::keyed(label, c, 0, FluidCellSpec::run);
        jobs.push(job(format!("fig_fluid:tau{tau_s}:single"), cell(None)));
        for i in 1..=SPLITS {
            for anti in [false, true] {
                let label = format!("fig_fluid:tau{tau_s}:x{}:anti{anti}", x_at(i));
                jobs.push(job(label, cell(Some((x_at(i), anti)))));
            }
        }
    }
    let cells = r.run_all(jobs);
    let f = |k: usize| *cells[k].unwrap();

    let mut tau_blocks = Vec::new();
    for (ti, tau) in TAUS.into_iter().enumerate() {
        let base = ti * (1 + 2 * SPLITS);
        let f_single = f(base);
        let mut points = Vec::new();
        for i in 1..=SPLITS {
            let x = x_at(i);
            let (f_aligned, f_anti) = (f(base + 2 * i - 1), f(base + 2 * i));
            points.push(Json::obj([
                ("x_pps", Json::Num(x)),
                ("f_single", Json::Num(f_single)),
                ("f_dmp_aligned", Json::Num(f_aligned)),
                ("f_dmp_anti_aligned", Json::Num(f_anti)),
            ]));
        }
        tau_blocks.push(Json::obj([
            ("tau_s", Json::Num(tau)),
            ("points", Json::Arr(points)),
        ]));
    }
    let data = Json::obj([
        ("mu_pps", Json::Num(mu)),
        ("period_s", Json::Num(period_s)),
        ("curves", Json::Arr(tau_blocks)),
    ]);
    TargetReport::new(data)
}

/// The fluid example's text: one table of `f(x)` per startup delay, then
/// the claim they check.
pub fn render_fig_fluid(doc: &Json) -> Result<String, RenderError> {
    let mut text = String::new();
    for curve in doc.items("curves")? {
        let mut t = Table::new(
            format!(
                "Sec 7.3 fluid example: fraction late vs split x (tau = {} s, period {} s)",
                curve.num("tau_s")?,
                doc.num("period_s")?
            ),
            &[
                "x (pkts ps)",
                "single path",
                "DMP aligned",
                "DMP anti-aligned",
            ],
        );
        for p in curve.items("points")? {
            t.row(vec![
                format!("{:.0}", p.num("x_pps")?),
                format!("{:.4}", p.num("f_single")?),
                format!("{:.4}", p.num("f_dmp_aligned")?),
                format!("{:.4}", p.num("f_dmp_anti_aligned")?),
            ]);
        }
        text.push_str(&t.render());
        text.push('\n');
    }
    text.push_str(
        "Claim check: DMP <= single path for every split and alignment; anti-aligned\n\
         paths (alternating congestion) are strictly better whenever tau is below the\n\
         congested interval (tau < 5 s here).\n",
    );
    Ok(text)
}
