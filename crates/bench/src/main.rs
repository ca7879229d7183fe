//! `dmp-bench <target>… [--quick] [--trace]` — run the named targets of
//! [`dmp_bench::target::TARGETS`], in the order given, on one shared parallel
//! runner: one JSON artifact (+ `.meta.json` sidecar, + `metrics/` snapshot)
//! per target, then a telemetry summary row per target.
//!
//! `all` stands for the paper's tables and figures in paper order; extension
//! targets are named one by one (`dmp-bench all ext_failover --quick`).
//! `--quick` selects [`Scale::quick`] (seconds per target) instead of the
//! paper-fidelity default. `--trace` records [`obs`] flight-recorder traces
//! for the scenario and live targets under `target/artifacts/traces/`,
//! listed in each target's sidecar and readable with the `trace_report`
//! binary — traced jobs bypass the result cache, and tracing never changes
//! an artifact byte. A second invocation at the same scale answers from the
//! content-addressed cache (`target/dmp-cache`); delete the directory or set
//! `DMP_NO_CACHE=1` to recompute.

use std::time::Instant;

use dmp_bench::target::{self, TargetFn, TARGETS};
use dmp_bench::Scale;
use dmp_runner::{ArtifactWriter, Runner};

/// What a command line selects: `(name, function)` per target, in run order.
type Selection = Vec<(&'static str, TargetFn)>;

/// The whole command-line grammar. Anything it does not know is an error —
/// a typo must not silently start the hours-long full-scale run.
fn parse(args: &[String]) -> Result<(Selection, Scale), String> {
    let mut picked = Selection::new();
    let (mut quick, mut trace) = (false, false);
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            word => {
                let before = picked.len();
                for &(name, run, paper) in TARGETS {
                    if name == word || (word == "all" && paper) {
                        if picked.iter().any(|(n, _)| *n == name) {
                            return Err(if word == "all" {
                                format!("`all` repeats target `{name}`")
                            } else {
                                format!("target `{name}` given twice")
                            });
                        }
                        picked.push((name, run));
                    }
                }
                if picked.len() == before {
                    return Err(format!("unknown target `{word}`"));
                }
            }
        }
    }
    if picked.is_empty() {
        return Err("no target given".to_string());
    }
    let mut scale = if quick { Scale::quick() } else { Scale::full() };
    scale.trace = trace;
    Ok((picked, scale))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (targets, scale) = parse(&args).unwrap_or_else(|e| {
        let names = |paper: bool| {
            let of_kind = TARGETS.iter().filter(|t| t.2 == paper).map(|t| t.0);
            of_kind.collect::<Vec<_>>().join(" ")
        };
        eprintln!(
            "dmp-bench: {e}\nusage: dmp-bench <target>... [--quick] [--trace]\n\
             paper targets (`all` = these, in order): {}\nextension targets: {}",
            names(true),
            names(false)
        );
        std::process::exit(2);
    });
    let runner = Runner::from_env();
    let artifacts = ArtifactWriter::from_env();
    let t0 = Instant::now();
    let outcomes: Vec<_> = targets
        .into_iter()
        .map(|(name, run)| target::execute(name, &runner, &artifacts, &scale, run))
        .collect();
    println!(
        "{}",
        target::summary_table(&outcomes, runner.threads(), t0.elapsed())
    );
    println!(
        "Artifacts: {}   Cache: {}",
        artifacts.dir().display(),
        if runner.cache().is_enabled() {
            runner.cache().dir().display().to_string()
        } else {
            "disabled".to_string()
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<(Vec<&'static str>, Scale), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(targets, scale)| (targets.into_iter().map(|t| t.0).collect(), scale))
    }

    #[test]
    fn targets_and_the_two_flags_parse() {
        assert_eq!(
            parse_strs(&["fig8", "--quick"]),
            Ok((vec!["fig8"], Scale::quick()))
        );
        let (names, scale) = parse_strs(&["all", "ext_failover", "--trace"]).expect("parses");
        assert_eq!(names.len(), 16);
        assert_eq!(
            (names[0], names[14], names[15]),
            ("fig1", "headline", "ext_failover")
        );
        assert_eq!(
            scale,
            Scale {
                trace: true,
                ..Scale::full()
            }
        );
        // Flags are position-free and targets keep the order given.
        assert_eq!(
            parse_strs(&["--quick", "ext_fleet", "fig4"]),
            Ok((vec!["ext_fleet", "fig4"], Scale::quick()))
        );
    }

    #[test]
    fn anything_else_is_refused_by_name() {
        for (args, offender) in [
            (&[][..], "no target"),
            (&["--quick"][..], "no target"),
            (&["fig8", "--quik"][..], "`--quik`"),
            (&["fig8", "--full"][..], "`--full`"),
            (&["nope"][..], "`nope`"),
            (&["fig8", "fig8"][..], "`fig8`"),
            (&["all", "fig8"][..], "`fig8`"),
            (&["fig8", "all"][..], "`all`"),
            (&["all", "all"][..], "`all`"),
        ] {
            let err = parse_strs(args).expect_err("must be refused");
            assert!(err.contains(offender), "{args:?}: {err}");
        }
    }
}
