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
//! listed in each target's sidecar and read with `dmp-bench render` —
//! traced jobs bypass the result cache, and tracing never changes an
//! artifact byte. A second invocation at the same scale answers from the
//! content-addressed cache (`target/dmp-cache`); delete the directory or set
//! `DMP_NO_CACHE=1` to recompute.
//!
//! `dmp-bench render <file|dir>…` runs nothing: it prints what the run that
//! wrote each artifact printed — a target's `<name>.json` as that target, a
//! `metrics/<name>.json` snapshot as percentile tables with sparklines, a
//! `.jsonl` flight-recorder trace as its report (cwnd and throughput
//! timelines, queue percentiles, each glitch and its likely cause), a
//! directory as each `*.json` and `*.jsonl` in it but the `.meta.json`
//! sidecars — one blank line between files. It exits 1 if any file does not
//! render.

use std::path::PathBuf;
use std::time::Instant;

use dmp_bench::target::{self, Target, TARGETS};
use dmp_bench::Scale;
use dmp_runner::{ArtifactWriter, Runner};

/// What a command line asks for.
#[derive(Debug)]
enum Command {
    /// Run these targets, in this order, at this scale.
    Run(Vec<&'static Target>, Scale),
    /// Render these artifact files and directories.
    Render(Vec<PathBuf>),
}

/// The whole command-line grammar. Anything it does not know is an error —
/// a typo must not silently start the hours-long full-scale run.
fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().is_some_and(|a| a == "render") {
        let paths = &args[1..];
        if let Some(flag) = paths.iter().find(|p| p.starts_with('-')) {
            return Err(format!("unknown flag `{flag}`"));
        }
        if paths.is_empty() {
            return Err("`render` needs an artifact file or directory".to_string());
        }
        return Ok(Command::Render(paths.iter().map(PathBuf::from).collect()));
    }
    let mut picked: Vec<&'static Target> = Vec::new();
    let (mut quick, mut trace) = (false, false);
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            word => {
                let before = picked.len();
                for t in TARGETS {
                    if t.name == word || (word == "all" && t.paper) {
                        if picked.iter().any(|p| p.name == t.name) {
                            return Err(if word == "all" {
                                format!("`all` repeats target `{}`", t.name)
                            } else {
                                format!("target `{}` given twice", t.name)
                            });
                        }
                        picked.push(t);
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
    Ok(Command::Run(picked, scale))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&args).unwrap_or_else(|e| {
        let names = |paper: bool| {
            let of_kind = TARGETS.iter().filter(|t| t.paper == paper).map(|t| t.name);
            of_kind.collect::<Vec<_>>().join(" ")
        };
        eprintln!(
            "dmp-bench: {e}\nusage: dmp-bench <target>... [--quick] [--trace]\n\
             \x20      dmp-bench render <artifact.json | trace.jsonl | dir>...\n\
             paper targets (`all` = these, in order): {}\nextension targets: {}",
            names(true),
            names(false)
        );
        std::process::exit(2);
    });
    match command {
        Command::Run(targets, scale) => run(&targets, &scale),
        Command::Render(paths) => std::process::exit(render(&paths)),
    }
}

fn run(targets: &[&Target], scale: &Scale) {
    let runner = Runner::from_env();
    let artifacts = ArtifactWriter::from_env();
    let t0 = Instant::now();
    let outcomes: Vec<_> = targets
        .iter()
        .map(|t| target::execute(t, &runner, &artifacts, scale))
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

/// Print every artifact `paths` name, a blank line between two; the exit
/// code is 1 if one does not render (the others still print).
fn render(paths: &[PathBuf]) -> i32 {
    let (mut code, mut separator) = (0, "");
    for path in paths {
        let files = target::artifact_files(path).unwrap_or_else(|e| {
            eprintln!("dmp-bench: cannot list {}: {e}", path.display());
            code = 1;
            Vec::new()
        });
        for file in &files {
            match target::render_file(file) {
                Ok(text) => print!("{}{text}", std::mem::replace(&mut separator, "\n")),
                Err(e) => {
                    eprintln!("dmp-bench: {e}");
                    code = 1;
                }
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<(Vec<&'static str>, Scale), String> {
        match parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())? {
            Command::Run(targets, scale) => Ok((targets.iter().map(|t| t.name).collect(), scale)),
            Command::Render(paths) => Err(format!("parsed as render {paths:?}")),
        }
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
            (&["render"][..], "needs an artifact"),
            (&["render", "artifacts", "--quick"][..], "`--quick`"),
        ] {
            let err = parse_strs(args).expect_err("must be refused");
            assert!(err.contains(offender), "{args:?}: {err}");
        }
    }

    #[test]
    fn render_takes_paths_and_only_in_first_place() {
        let args = ["render", "artifacts", "target/artifacts/metrics"].map(String::from);
        let Ok(Command::Render(paths)) = parse(&args) else {
            panic!("`render` with paths must parse as a render");
        };
        assert_eq!(
            paths,
            [
                PathBuf::from("artifacts"),
                "target/artifacts/metrics".into()
            ]
        );
        // Elsewhere it is a word like any other, and no target is called so.
        assert_eq!(
            parse_strs(&["fig8", "render"]),
            Err("unknown target `render`".into())
        );
    }
}
