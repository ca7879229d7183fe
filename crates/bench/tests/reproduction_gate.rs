//! The reproduction gate: every committed file under `artifacts/` comes out
//! of a fresh `dmp-bench` process byte for byte.
//!
//! The package's own binary runs as child processes, each with its
//! environment set on its `Command` (temporary cache and artifact
//! directories, `DMP_THREADS=8`, `DMP_QUIET=1`, no `DMP_NO_CACHE`), so the
//! gate checks what a command line does, exit code included:
//!
//! * a cold run of every registered target but [`WALL_CLOCK`] writes
//!   exactly the committed data files and `metrics/` snapshots, each byte
//!   for byte, at 8 runner threads (they were recorded at 2): a committed
//!   file it does not write and a file it writes that is not committed
//!   both fail. Every file it writes renders, and `ext_fleet`'s sidecar
//!   carries the per-session histograms and the shards;
//! * a warm run, a second process on the same cache, serves every job from
//!   the cache and writes every file of the cold run again, byte for byte;
//! * a traced `ext_failover` leaves its data file as committed, its
//!   sidecar lists exactly the trace files it wrote, and each of them
//!   renders as `dmp-bench render` reports it;
//! * a misspelt flag exits 2 and writes nothing.
//!
//! The targets are read off the registry, `target::TARGETS`, so a newly
//! registered target fails until its quick files are committed. A moved,
//! missing or uncommitted file fails with its moved leaves
//! (`diff::diff_docs`) and the one command that re-records its targets.
//!
//! Seen red: one step off `fig9a`'s τ grid (each searched τ reported 0.5 s
//! later, `req.map(|t| t + 0.5)` in `params::fig9a`) names
//! `artifacts/fig9a.json` and its 16 moved leaves, the eight
//! `points[i].tau_s` and their eight table cells; one seed changed in
//! `ext_cc_matrix` (`scale.seed + 1` in `MatrixOptions::from_scale`) names
//! `artifacts/ext_cc_matrix.json` (the cells' `tried` lists) and
//! `artifacts/metrics/ext_cc_matrix.json` (45 drifted counters); a drop-tail
//! bottleneck one packet deeper (`cfg.buffer_pkts + 1` in
//! `dmp_sim::topology`) names `table2.json` (Table 2's p, R and T_O cells),
//! `table3.json`, `fig1.json`, `fig4.json`, `fig5.json`,
//! `correlated_validation.json` and the three snapshots beside them, and
//! the scenario, `ext_ablations` and `ext_cc_matrix` files. Each prints
//! `DMP_ARTIFACT_DIR=artifacts dmp-bench <targets> --quick`. A deleted
//! `artifacts/table2.json` is reported as `table2.json is written but not
//! committed`, with `DMP_ARTIFACT_DIR=artifacts dmp-bench table2 --quick`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dmp_bench::diff::{self, diff_docs};
use dmp_bench::{repo_path, target};
use dmp_runner::test_util::TempDir;
use dmp_runner::{json, Json, JsonCodec};

/// The one registered target the gate does not run: `fig7` streams over
/// wall-clock sockets, so its late counts and timelines differ run to run.
const WALL_CLOCK: &str = "fig7";

/// `dmp-bench args…` with its cache under `cache` and its artifacts under
/// `out`.
fn dmp_bench(cache: &Path, out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmp-bench"))
        .args(args)
        .env("DMP_CACHE_DIR", cache)
        .env("DMP_ARTIFACT_DIR", out)
        .env("DMP_THREADS", "8")
        .env("DMP_QUIET", "1")
        .env_remove("DMP_NO_CACHE")
        .output()
        .expect("dmp-bench starts")
}

/// Run `dmp-bench args…` to exit 0; the `[jobs, hits, misses, failed]` of
/// its closing `Totals:` line.
fn run(cache: &Path, out: &Path, args: &[&str]) -> [u64; 4] {
    let output = dmp_bench(cache, out, args);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "dmp-bench {args:?} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let totals = stdout.lines().find_map(|l| l.strip_prefix("Totals: "));
    let numbers: Vec<u64> = totals
        .unwrap_or_else(|| panic!("dmp-bench {args:?} printed no totals:\n{stdout}"))
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    numbers.try_into().expect("jobs, hits, misses, failed")
}

/// The data files and `metrics/` snapshots of an artifact directory,
/// relative to it, as `dmp-bench render` lists them.
fn files(dir: &Path) -> BTreeSet<PathBuf> {
    [dir.to_path_buf(), dir.join("metrics")]
        .iter()
        .flat_map(|sub| target::artifact_files(sub).expect("artifact directory"))
        .map(|f| f.strip_prefix(dir).unwrap().to_path_buf())
        .collect()
}

/// The parsed `<name>.meta.json` under `dir`.
fn sidecar(dir: &Path, name: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(format!("{name}.meta.json"))).expect("sidecar");
    json::parse(&text).expect("sidecar JSON")
}

fn stem(file: &Path) -> String {
    file.file_stem().unwrap().to_string_lossy().into_owned()
}

/// How `fresh` differs from `expected`, `None` when they are byte-identical:
/// the first differing line and the leaves that moved.
fn moved(expected: &Path, fresh: &Path) -> Option<String> {
    let want = std::fs::read_to_string(expected).expect("expected file");
    let Ok(got) = std::fs::read_to_string(fresh) else {
        return Some(format!("{} was not written", fresh.display()));
    };
    if want == got {
        return None;
    }
    let line = want.lines().zip(got.lines()).take_while(|(a, b)| a == b);
    let leaves = match (json::parse(&want), json::parse(&got)) {
        (Some(a), Some(b)) => diff::render(&diff_docs(&a, &b)),
        _ => "not JSON\n".to_string(),
    };
    Some(format!(
        "{} differs from {} from line {} on:\n{leaves}",
        fresh.display(),
        expected.display(),
        line.count() + 1
    ))
}

#[test]
fn committed_artifacts_reproduce_cold_warm_and_traced() {
    let committed = repo_path("artifacts").canonicalize().expect("artifacts/");
    let committed_files = files(&committed);
    let tmp = TempDir::new("reproduction-gate");
    let [cache, cold, warm, traced] =
        ["cache", "cold", "warm", "traced"].map(|d| tmp.path().join(d));
    let mut args: Vec<&str> = target::TARGETS
        .iter()
        .map(|t| t.name)
        .filter(|&name| name != WALL_CLOCK)
        .collect();
    args.push("--quick");
    let mut failures = Vec::new();
    let mut rerecord = BTreeSet::new();

    let [_, _, _, failed] = run(&cache, &cold, &args);
    if failed > 0 {
        failures.push(format!("the cold run failed {failed} jobs"));
    }
    let cold_files = files(&cold);
    for file in committed_files.union(&cold_files) {
        let why = if committed_files.contains(file) {
            moved(&committed.join(file), &cold.join(file))
        } else {
            Some(format!("{} is written but not committed", file.display()))
        };
        if let Some(why) = why {
            failures.push(why);
            rerecord.insert(stem(file));
        }
    }
    for file in &cold_files {
        if let Err(e) = target::render_file(&cold.join(file)) {
            failures.push(format!("does not render: {e}"));
        }
    }
    let fleet_meta = sidecar(&cold, "ext_fleet");
    let snapshot = fleet_meta
        .get("metrics")
        .and_then(obs::MetricsSnapshot::from_json);
    for h in ["fleet.session_late_ppm", "fleet.session_headroom_milli"] {
        let histogram = snapshot.as_ref().and_then(|s| s.histograms.get(h));
        if histogram.is_none_or(|h| h.count() == 0) {
            failures.push(format!("ext_fleet.meta.json has no samples of {h}"));
        }
    }
    if fleet_meta.get("shards").is_none() {
        failures.push("ext_fleet.meta.json lists no shards".to_string());
    }
    // The target's engine counters and its shards' absorbed total are one
    // spelling of the same simulations.
    let events = |doc: Option<&Json>| doc?.get("events_processed")?.as_u64();
    let engine = events(fleet_meta.get("engine"));
    let shards = events(fleet_meta.get("shards").and_then(|s| s.get("total")));
    if engine.is_none_or(|n| n == 0) || engine != shards {
        failures.push(format!(
            "ext_fleet.meta.json: engine events {engine:?}, shard total {shards:?}"
        ));
    }

    let [jobs, hits, misses, failed] = run(&cache, &warm, &args);
    if (hits, misses, failed) != (jobs, 0, 0) {
        failures.push(format!(
            "the warm run of {jobs} jobs had {hits} hits, {misses} misses, {failed} failed"
        ));
    }
    for file in &cold_files {
        failures.extend(moved(&cold.join(file), &warm.join(file)));
    }

    run(&cache, &traced, &["ext_failover", "--quick", "--trace"]);
    let failover = Path::new("ext_failover.json");
    failures.extend(moved(&committed.join(failover), &traced.join(failover)));
    let listed: BTreeSet<PathBuf> = sidecar(&traced, "ext_failover")
        .get("trace_files")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|f| f.get("path").and_then(Json::as_str).map(PathBuf::from))
        .collect();
    let written: BTreeSet<PathBuf> = std::fs::read_dir(traced.join("traces"))
        .expect("traces/")
        .map(|e| e.expect("trace entry").path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("scn_failover_")
        })
        .collect();
    if written.is_empty() || listed != written {
        failures.push(format!(
            "the traced ext_failover wrote {written:?} and its sidecar lists {listed:?}"
        ));
    }
    for trace in &written {
        if let Err(e) = target::render_file(trace) {
            failures.push(format!("does not render: {e}"));
        }
    }

    if !rerecord.is_empty() {
        let targets: Vec<String> = rerecord.into_iter().collect();
        failures.push(format!(
            "if the change is meant to move them, re-record with\n  \
             DMP_ARTIFACT_DIR=artifacts dmp-bench {} --quick",
            targets.join(" ")
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn a_misspelt_flag_exits_2_and_writes_nothing() {
    let tmp = TempDir::new("reproduction-gate-refused");
    let [cache, out] = ["cache", "artifacts"].map(|d| tmp.path().join(d));
    let output = dmp_bench(&cache, &out, &["fig8", "--quik"]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("`--quik`"), "{stderr}");
    let written: Vec<_> = std::fs::read_dir(tmp.path()).expect("temp dir").collect();
    assert!(
        written.is_empty(),
        "a refused command line wrote {written:?}"
    );
}
