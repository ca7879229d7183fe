//! The whole ledger in one command: every workload's untraced and traced run,
//! each in a fresh child process (so peak memory and allocator state do not
//! leak between workloads), `--sets K` of them back to back, collected into
//! `benchmark/out/results.json` with the noise between sets.

use std::process::{Command, Stdio};

use dmp_runner::{json, Json};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::record_name;
use crate::workloads::{Info, ALL};
use crate::{host, stats};

/// What to run.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub sets: usize,
    pub smoke: bool,
}

/// Run one workload once in a child process; its record, if it passed.
fn child(info: &Info, args: &Args, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", info.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("start the workload's process");
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    // The last line is the driver's JSON; the rest are `name value unit`.
    for line in lines.iter().take(lines.len().saturating_sub(1)) {
        println!("{} {line}", info.name);
    }
    if !out.status.success() {
        eprintln!("{}: run failed ({})", info.name, out.status);
        return None;
    }
    let path = host::out_dir().join(record_name(info.name, trace));
    let record = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| json::parse(&t));
    if record.is_none() {
        eprintln!("{}: no record at {}", info.name, path.display());
    }
    record
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One metric of one workload's untraced or traced runs, a value per set.
/// `sets` is the `sets` list of `results.json`.
fn across_sets(sets: &[Json], workload: &str, traced: bool, name: &str) -> Vec<f64> {
    let pass = if traced { "traced" } else { "untraced" };
    sets.iter()
        .filter_map(|set| metric(set.get(workload)?.get(pass)?, name))
        .collect()
}

/// Run the suite; whether every run passed and every count repeated.
pub fn run(args: &Args) -> bool {
    let mut ok = true;
    let mut sets = Vec::new();
    for set in 0..args.sets {
        eprintln!("set {} of {}", set + 1, args.sets);
        let mut runs = Vec::new();
        for info in &ALL {
            match (child(info, args, false), child(info, args, true)) {
                (Some(untraced), Some(traced)) => runs.push((
                    info.name,
                    Json::obj([("untraced", untraced), ("traced", traced)]),
                )),
                _ => ok = false,
            }
        }
        sets.push(Json::obj(runs));
    }

    // Noise ledger: each set's value per end-to-end metric and workload, and
    // how far the sets are apart.
    let mut noise = Vec::new();
    for info in &ALL {
        for d in &END_TO_END {
            let values = across_sets(&sets, info.name, false, d.name);
            if values.len() < 2 {
                continue;
            }
            let (median, spread) = (stats::median(&values), stats::range_share(&values));
            println!(
                "noise {} {} sets {values:?} median {median} spread {spread:.4}",
                info.name, d.name
            );
            noise.push(Json::obj([
                ("workload", Json::Str(info.name.into())),
                ("metric", Json::Str(d.name.into())),
                ("values", Json::nums(values.iter().copied())),
                ("median", Json::Num(median)),
                ("spread", Json::Num(spread)),
                ("iqr_share", Json::Num(stats::iqr_share(&values))),
            ]));
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let values = across_sets(&sets, info.name, true, d.name);
            if values.windows(2).any(|w| w[0] != w[1]) {
                eprintln!("{}: {} does not repeat: {values:?}", info.name, d.name);
                ok = false;
            }
        }
    }

    let results = Json::obj([
        ("schema", Json::Str("benchmark-results/v1".into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("sets", Json::Arr(sets)),
        ("noise", Json::Arr(noise)),
    ]);
    let path = host::out_dir().join("results.json");
    std::fs::write(&path, results.render_pretty()).expect("write results.json");
    eprintln!("wrote {}", path.display());
    ok
}

/// The README's number tables as markdown, from `results.json` alone.
pub fn tables() -> Result<String, String> {
    use std::fmt::Write as _;
    let path = host::out_dir().join("results.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run the suite first)", path.display()))?;
    let results = json::parse(&text).ok_or("results.json is not JSON")?;
    let sets = results
        .get("sets")
        .and_then(Json::as_arr)
        .filter(|sets| !sets.is_empty())
        .ok_or("results.json holds no sets")?;
    let seconds = results.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
    let mut md = String::new();

    let _ = writeln!(
        md,
        "End to end: median of {} sets of {seconds} s runs, and how far the sets are apart \
         ((max − min) / median).\n",
        sets.len()
    );
    let _ = write!(md, "| workload | iterations per run ");
    for d in &END_TO_END {
        let _ = write!(md, "| `{}` {} ", d.name, d.unit);
    }
    let _ = writeln!(md, "|\n|---|---|{}", "---|".repeat(END_TO_END.len()));
    for info in &ALL {
        let iterations: Vec<f64> = sets
            .iter()
            .filter_map(|set| {
                set.get(info.name)?
                    .get("untraced")?
                    .get("iterations")?
                    .as_f64()
            })
            .collect();
        if iterations.is_empty() {
            return Err(format!("no runs of {} in results.json", info.name));
        }
        let _ = write!(md, "| `{}` | {:.0} ", info.name, stats::median(&iterations));
        for d in &END_TO_END {
            let v = across_sets(sets, info.name, false, d.name);
            let (median, apart) = (stats::median(&v), stats::range_share(&v));
            let _ = write!(md, "| {median:.4} ({:.1} %) ", apart * 100.0);
        }
        let _ = writeln!(md, "|");
    }

    let _ = writeln!(
        md,
        "\nWhere an iteration goes: self seconds per iteration by span (median over the traced \
         iterations, then over the sets) and the share of the iteration they are.\n"
    );
    let _ = writeln!(
        md,
        "| workload | span | self s | share of iteration |\n|---|---|---|---|"
    );
    for info in &ALL {
        let mut by_span: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for set in sets {
            let spans = set
                .get(info.name)
                .and_then(|r| r.get("traced")?.get("span_self_s"));
            let Some(Json::Obj(spans)) = spans else {
                return Err(format!("no spans for {}", info.name));
            };
            for (name, s) in spans {
                // Worker busy time overlaps the spans; it is no part of the sum.
                if let (Some(s), false) = (s.as_f64(), name == "dmp-runner.pool.busy") {
                    by_span.entry(name).or_default().push(s);
                }
            }
        }
        let spans: Vec<(&str, f64)> = by_span
            .iter()
            .map(|(name, s)| (*name, stats::median(s)))
            .collect();
        let total: f64 = spans.iter().map(|(_, s)| s).sum();
        for (name, s) in spans {
            let share = 100.0 * s / total;
            let _ = writeln!(md, "| `{}` | `{name}` | {s:.5} | {share:.1} % |", info.name);
        }
    }

    let _ = writeln!(
        md,
        "\nPer-layer metrics from the traced runs (median over the sets; `·` is 0: the workload \
         does not call the layer).\n"
    );
    let _ = write!(md, "| metric | unit ");
    for info in &ALL {
        let _ = write!(md, "| `{}` ", info.name);
    }
    let _ = writeln!(md, "|\n|---|---|{}", "---|".repeat(ALL.len()));
    for d in &PER_LAYER {
        let _ = write!(md, "| `{}` | {} ", d.name, d.unit);
        for info in &ALL {
            let v = across_sets(sets, info.name, true, d.name);
            let _ = match stats::median(&v) {
                0.0 => write!(md, "| · "),
                m if m.abs() >= 100.0 => write!(md, "| {m:.0} "),
                m if m.abs() >= 1.0 => write!(md, "| {m:.2} "),
                m => write!(md, "| {m:.4} "),
            };
        }
        let _ = writeln!(md, "|");
    }
    Ok(md)
}
