//! One run of one workload in this process: set-up, the timed pass and, when
//! tracing, the traced pass and the probes. Prints every metric by name and,
//! last, the one-line JSON result the driver reads; also leaves a fuller
//! record in `benchmark/out` for the suite to collect.

use std::collections::BTreeMap;
use std::time::Instant;

use dmp_runner::Json;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::reference::{self, Reference};
use crate::span::{self, Tracer};
use crate::workloads::{Checks, Info, LayerValues, Outcome, Traced, Workload};
use crate::{host, probes, stats};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Batches per probe.
const PROBE_REPS: usize = 5;
/// Share of `--seconds` the traced run gives its untraced and its traced
/// pass each; the rest is left to the probes.
const TRACED_PASS_SHARE: f64 = 0.4;

/// What to run.
pub struct Args {
    pub workload: &'static Info,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One timed and one traced iteration, one set-up, one batch per probe.
    pub smoke: bool,
}

/// Iterations of one pass.
struct Pass {
    /// Wall seconds of each iteration at the reference's nominal speed.
    iter_s: Vec<f64>,
    /// The same, as the clock read them.
    raw_iter_s: Vec<f64>,
    /// Each iteration and its teardown — the output checks, the wait for
    /// the pool's threads to end — at nominal speed.
    lap_s: Vec<f64>,
    /// The reference's readings, ns per operation.
    ref_ns: Vec<f64>,
    /// Wall and CPU seconds of the pass, the reference loop's left out.
    wall_s: f64,
    cpu_s: f64,
    /// Work of one iteration (every iteration does the same).
    work: f64,
    /// What each iteration reported in [`Outcome::seconds`].
    reported_s: Vec<LayerValues>,
    /// Counts of the last iteration.
    counts: LayerValues,
}

/// Run iterations until `seconds` have passed (at least one), the reference
/// loop between them. Every iteration's digest must equal `digest`, the
/// warm-up's.
fn pass(
    w: &mut dyn Workload,
    seconds: f64,
    digest: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let (mut iter_s, mut raw_iter_s, mut lap_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reported_s = Vec::new();
    let mut reference = Reference::new();
    host::wait_for_threads();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let ref_s0 = reference.spent_s();
    let mut ref_ns = vec![reference.measure()];
    let (work, counts) = loop {
        t.begin_iteration(iter_s.len() as u32);
        let t0 = Instant::now();
        let root = t.enter("iteration");
        let out = w.iterate(t);
        t.exit(root);
        let raw = t0.elapsed().as_secs_f64();
        reported_s.push(out.seconds);
        checks.check(out.digest == digest, || {
            format!(
                "iteration {} digest {:016x} differs from the first's {digest:016x}",
                iter_s.len() + 1,
                out.digest
            )
        });
        checks.absorb(out.checks);
        host::wait_for_threads();
        let lap = t0.elapsed().as_secs_f64();

        let before = ref_ns[ref_ns.len() - 1];
        ref_ns.push(reference.measure());
        let scale = reference::scale(before, ref_ns[ref_ns.len() - 1]);
        iter_s.push(raw * scale);
        raw_iter_s.push(raw);
        lap_s.push(lap * scale);
        if start.elapsed().as_secs_f64() >= seconds {
            break (out.work, out.counts);
        }
    };
    // The reference loop keeps one thread busy; it is not the workload's.
    let ref_s = reference.spent_s() - ref_s0;
    Pass {
        iter_s,
        raw_iter_s,
        lap_s,
        ref_ns,
        wall_s: start.elapsed().as_secs_f64() - ref_s,
        cpu_s: host::cpu_seconds() - cpu0 - ref_s,
        work,
        reported_s,
        counts,
    }
}

/// Per name, the median over the traced iterations of the seconds spent:
/// span self times plus what each iteration reported itself.
fn seconds_by_name(spans: &[span::Span], reported: &[LayerValues]) -> LayerValues {
    let mut per_iteration = span::self_seconds_by_name(spans);
    for (i, r) in reported.iter().enumerate() {
        per_iteration.entry(i as u32).or_default().extend(r);
    }
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for names in per_iteration.values() {
        for (&name, &s) in names {
            samples.entry(name).or_default().push(s);
        }
    }
    samples
        .into_iter()
        .map(|(name, s)| (name, stats::median(&s)))
        .collect()
}

/// A reported metric: name, value, unit.
type Value = (&'static str, f64, &'static str);

/// Set up `reps` times: input generation, priming (less the time spent
/// creating files, [`Workload::setup_fs_s`]), one warm-up iteration, each
/// between two readings of the reference. The first sample is timed
/// from `started`, so it carries process start-up. Returns the last workload
/// made, its warm-up outcome and every set-up's seconds at nominal speed.
fn set_up(
    info: &Info,
    seed: u64,
    reps: usize,
    started: Instant,
) -> (Box<dyn Workload>, Outcome, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(reps);
    let mut made = None;
    // Warming the reference up and reading it is no part of start-up.
    let begun = Instant::now();
    let mut reference = Reference::new();
    let mut before = reference.measure();
    let mut t0 = started + begun.elapsed();
    for _ in 0..reps {
        if made.take().is_some() {
            t0 = Instant::now();
        }
        let mut w = (info.setup)(seed);
        host::wait_for_threads();
        let warm = w.iterate(&mut Tracer::off());
        let raw = t0.elapsed().as_secs_f64() - w.setup_fs_s();
        let after = reference.measure();
        setup_s.push(raw * reference::scale(before, after));
        before = after;
        made = Some((w, warm));
    }
    let (w, warm) = made.expect("at least one set-up");
    (w, warm, setup_s)
}

/// The traced pass, the workload's own layer timings and the probes: every
/// per-layer metric, and the seconds per span name for the record. Writes
/// the span file.
fn per_layer(
    w: &mut dyn Workload,
    args: &Args,
    digest: u64,
    timed: &Pass,
    checks: &mut Checks,
) -> (Vec<Value>, Json) {
    let info = args.workload;
    let mut t = Tracer::on();
    let traced = pass(w, args.seconds * TRACED_PASS_SHARE, digest, &mut t, checks);
    let (p50, traced_p50) = (stats::median(&timed.iter_s), stats::median(&traced.iter_s));
    let seconds_by_name = seconds_by_name(t.spans(), &traced.reported_s);

    let mut layer: LayerValues = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    w.layer_metrics(
        &Traced {
            seconds: &seconds_by_name,
            counts: &traced.counts,
        },
        &mut layer,
    );
    // Counts named like a metric are that metric; the rest only feed
    // `layer_metrics`.
    for (name, v) in &traced.counts {
        if let Some(slot) = layer.get_mut(name) {
            *slot = *v;
        }
    }
    probes::run(
        args.seed,
        if args.smoke { 1 } else { PROBE_REPS },
        &mut layer,
    );
    layer.extend([
        ("trace.iter_s.p50", traced_p50),
        ("trace.overhead_share", traced_p50 / p50 - 1.0),
        ("trace.iterations", traced.iter_s.len() as f64),
        ("host.nproc", host::nproc() as f64),
        ("host.iterations", timed.iter_s.len() as f64),
        ("host.ref_ns_per_op", stats::median(&timed.ref_ns)),
        ("host.iter_s.min", stats::quantile(&timed.raw_iter_s, 0.0)),
        ("host.iter_s.p50", stats::median(&timed.raw_iter_s)),
        ("host.iter_s.p75", stats::quantile(&timed.raw_iter_s, 0.75)),
        ("host.iter_s.max", stats::quantile(&timed.raw_iter_s, 1.0)),
        (
            "host.cpu_share",
            timed.cpu_s / (timed.wall_s * info.threads as f64),
        ),
    ]);

    std::fs::write(
        host::out_dir().join(format!("trace-{}.json", info.name)),
        span::to_json(info.name, t.spans()).render(),
    )
    .expect("write span file");
    let values = PER_LAYER
        .iter()
        .map(|d| (d.name, layer[d.name], d.unit))
        .collect();
    let span_self_s = Json::obj(seconds_by_name.iter().map(|(k, v)| (*k, Json::Num(*v))));
    (values, span_self_s)
}

/// Run as `args` says. `started` is the process's start. Returns whether
/// every check held.
pub fn run(args: &Args, started: Instant) -> bool {
    let info = args.workload;
    let out_dir = host::out_dir();
    std::fs::create_dir_all(&out_dir).expect("create benchmark/out");
    let mut checks = Checks::default();

    let reps = if args.smoke || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let (mut w, warm, setup_s) = set_up(info, args.seed, reps, started);
    checks.absorb(warm.checks);

    let untraced_share = if args.trace { TRACED_PASS_SHARE } else { 1.0 };
    let timed = pass(
        w.as_mut(),
        args.seconds * untraced_share,
        warm.digest,
        &mut Tracer::off(),
        &mut checks,
    );

    let mut record = vec![
        ("schema", Json::Str("benchmark-run/v1".into())),
        ("workload", Json::Str(info.name.into())),
        ("work_unit", Json::Str(info.work_unit.into())),
        ("threads", Json::Num(info.threads as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("digest", Json::Str(format!("{:016x}", warm.digest))),
        ("iterations", Json::Num(timed.iter_s.len() as f64)),
        ("setup_s", Json::nums(setup_s.iter().copied())),
        ("iter_s", Json::nums(timed.iter_s.iter().copied())),
        ("raw_iter_s", Json::nums(timed.raw_iter_s.iter().copied())),
        ("ref_ns_per_op", Json::nums(timed.ref_ns.iter().copied())),
    ];

    let values: Vec<Value> = if args.trace {
        let (values, span_self_s) = per_layer(w.as_mut(), args, warm.digest, &timed, &mut checks);
        record.push(("span_self_s", span_self_s));
        values
    } else {
        let e2e = [
            stats::median(&timed.iter_s),
            timed.work / stats::median(&timed.lap_s),
            stats::median(&setup_s),
            host::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(d, v)| (d.name, v, d.unit))
            .collect()
    };
    // The workload's scratch files go before the result is reported.
    drop(w);

    let samples = timed.iter_s.len();
    for (name, v, unit) in &values {
        // JSON has no NaN: a metric that is not a number is a failed check.
        checks.check(v.is_finite(), || format!("{name} is {v}"));
        println!("{name} {v} {unit}");
    }
    println!("samples {samples} count");
    if !args.trace {
        // What the clock read, and how fast the host was (a traced run
        // reports both as metrics).
        println!("host.iter_s.p50 {} s", stats::median(&timed.raw_iter_s));
        println!("host.ref_ns_per_op {} ns", stats::median(&timed.ref_ns));
    }
    if let Some(p) = stats::tail_percentile(samples) {
        let v = stats::quantile(&timed.iter_s, p as f64 / 100.0);
        println!("iter_s.p{p} {v} s");
    }
    println!("digest {:016x} -", warm.digest);
    if let Some(why) = &checks.first_failure {
        eprintln!("{}: check failed: {why}", info.name);
    }

    let result = result(&checks, &values);
    record.extend(result.iter().cloned());
    std::fs::write(
        out_dir.join(record_name(info.name, args.trace)),
        Json::obj(record).render_pretty(),
    )
    .expect("write run record");
    println!("{}", Json::obj(result).render());
    checks.failed == 0
}

/// The result object the driver reads: exactly these four keys.
fn result(checks: &Checks, values: &[Value]) -> [(&'static str, Json); 4] {
    let metrics = Json::obj(values.iter().map(|(name, v, unit)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*v)),
                ("unit", Json::Str((*unit).into())),
            ]),
        )
    }));
    [
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics),
    ]
}

/// File in `benchmark/out` that holds a run's record.
pub fn record_name(workload: &str, trace: bool) -> String {
    format!("run-{workload}-t{}.json", u8::from(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_runner::json;

    #[test]
    fn result_line_round_trips_through_the_repo_parser() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        let values = [
            ("iter_s.p50", 0.1234567890123, "s"),
            ("work_per_s", 2932.5, "work/s"),
        ];
        let line = Json::obj(result(&checks, &values)).render();
        assert!(!line.contains('\n'), "the driver reads one line");
        let back = json::parse(&line).expect("the result is JSON");
        let Json::Obj(pairs) = &back else {
            panic!("the result is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(1));
        let p50 = back
            .get("metrics")
            .and_then(|m| m.get("iter_s.p50"))
            .unwrap();
        assert_eq!(
            p50.get("value").and_then(Json::as_f64),
            Some(0.1234567890123)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn seconds_by_name_takes_the_median_over_iterations() {
        let span = |name, start, end, parent, iteration| span::Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration,
        };
        let spans = [
            span("iteration", 0, 1_000, None, 0),
            span("layer", 100, 400, Some(0), 0),
            span("iteration", 2_000, 3_000, None, 1),
            span("layer", 2_100, 2_600, Some(2), 1),
        ];
        let reported = [
            LayerValues::from([("busy", 1.0)]),
            LayerValues::from([("busy", 3.0)]),
        ];
        let got = seconds_by_name(&spans, &reported);
        assert!((got["layer"] - 400e-9).abs() < 1e-15);
        assert!((got["iteration"] - 600e-9).abs() < 1e-15);
        assert_eq!(got["busy"], 2.0);
    }
}
