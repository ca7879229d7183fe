//! Post-process an [`obs`] flight-recorder JSONL trace into paper-style
//! diagnostics: cwnd-evolution and per-path throughput timelines, queue-depth
//! percentiles, and a per-glitch "why" report correlating each playback stall
//! with the scripted path events and TCP recovery activity around it.
//!
//! Usage:
//!
//! ```text
//! trace_report <trace.jsonl> [--rate <pkts/s>] [--tau <s>] [--window <s>]
//!              [--bucket <s>] [--out <report.txt>]
//! ```
//!
//! Traces are recorded by running any scenario/live target with `--trace`
//! (files land under `target/artifacts/traces/`, and each target's
//! `.meta.json` sidecar lists them under `trace_files`).
//!
//! An unknown flag, a flag without its value and a value that is not a
//! positive number exit 2, naming the offender; a trace that cannot be read
//! or parsed, or a report that cannot be written, exits 1.

use dmp_bench::trace_report::{render_report, ReportOptions};
use obs::Trace;

const USAGE: &str = "usage: trace_report <trace.jsonl> [--rate <pkts/s>] [--tau <s>] \
                     [--window <s>] [--bucket <s>] [--out <report.txt>]";

/// What a command line asks for: the trace, the report knobs, and where
/// the report goes (`None`: stdout).
#[derive(Debug, PartialEq)]
struct Args {
    trace: String,
    opts: ReportOptions,
    out: Option<String>,
}

/// The whole command-line grammar: one trace path, and flags that each
/// take a value. An unknown flag, a flag without its value and a value that
/// is not a finite positive number are refused by name.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut opts = ReportOptions::default();
    let (mut trace, mut out) = (None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            if trace.replace(arg.clone()).is_some() {
                return Err(format!("a second trace `{arg}`"));
            }
            continue;
        }
        let slot = match arg.as_str() {
            "--rate" => &mut opts.rate_pps,
            "--tau" => &mut opts.tau_s,
            "--window" => &mut opts.window_s,
            "--bucket" => &mut opts.bucket_s,
            "--out" => {
                out = Some(args.next().ok_or(format!("`{arg}` needs a value"))?.clone());
                continue;
            }
            _ => return Err(format!("unknown flag `{arg}`")),
        };
        let value = args.next().ok_or(format!("`{arg}` needs a value"))?;
        *slot = value
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or(format!("`{arg} {value}`: not a positive number"))?;
    }
    let trace = trace.ok_or("no trace given")?;
    Ok(Args { trace, opts, out })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { trace, opts, out } = parse(&args).unwrap_or_else(|e| {
        eprintln!("trace_report: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let fail = |what: String| -> ! {
        eprintln!("trace_report: {what}");
        std::process::exit(1);
    };
    let text = std::fs::read_to_string(&trace)
        .unwrap_or_else(|e| fail(format!("cannot read {trace}: {e}")));
    let parsed = Trace::parse(&text).unwrap_or_else(|e| fail(format!("cannot parse {trace}: {e}")));
    let report = render_report(&parsed, &opts);
    match out {
        Some(out) => match std::fs::write(&out, &report) {
            Ok(()) => println!("wrote {out}"),
            Err(e) => fail(format!("cannot write {out}: {e}")),
        },
        None => print!("{report}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_trace_and_its_flags_parse_in_any_order() {
        let args = parse_strs(&["--tau", "8", "t.jsonl", "--out", "r.txt", "--rate", "50"]);
        let want = ReportOptions {
            rate_pps: 50.0,
            tau_s: 8.0,
            ..ReportOptions::default()
        };
        assert_eq!(
            args,
            Ok(Args {
                trace: "t.jsonl".into(),
                opts: want,
                out: Some("r.txt".into()),
            })
        );
        let defaults = parse_strs(&["t.jsonl"]).expect("parses");
        assert_eq!(
            (defaults.opts, defaults.out),
            (ReportOptions::default(), None)
        );
    }

    #[test]
    fn anything_else_is_refused_by_name() {
        for (args, offender) in [
            (&[][..], "no trace"),
            (&["t.jsonl", "--tua", "5"][..], "`--tua`"),
            (&["t.jsonl", "--tau"][..], "`--tau` needs a value"),
            (&["t.jsonl", "--out"][..], "`--out` needs a value"),
            (&["t.jsonl", "--tau", "abc"][..], "`--tau abc`"),
            (&["t.jsonl", "--rate", "inf"][..], "`--rate inf`"),
            (&["t.jsonl", "--bucket", "0"][..], "`--bucket 0`"),
            (&["t.jsonl", "--window", "-3"][..], "`--window -3`"),
            (&["a.jsonl", "b.jsonl"][..], "`b.jsonl`"),
        ] {
            let err = parse_strs(args).expect_err("must be refused");
            assert!(err.contains(offender), "{args:?}: {err}");
        }
    }
}
