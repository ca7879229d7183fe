//! The committed `artifacts/` are checked by CI and readable as a run
//! printed them (that a fresh run writes them byte for byte is
//! `tests/reproduction_gate.rs`):
//!
//! * every `artifacts/metrics/<stem>.json` has its data sibling, and the
//!   workflow runs the workspace's tests, the gate among them, with nothing
//!   excluded or skipped (the gate itself holds the committed files to
//!   exactly those a quick run of every registered target but `fig7`
//!   writes);
//! * every committed file renders through `dmp-bench render`, the example
//!   trace as its committed report, byte for byte;
//! * rendering is total: a damaged committed artifact gives `render` an
//!   `Err` or a string, never a panic. One mutation per render: each object
//!   member deleted, then each number replaced with a string and each string
//!   with a number — every member of every committed file under 10 KB, data
//!   and metrics snapshots alike, and the top-level members of the two large
//!   scenario dumps, `ext_failover.json` and `ext_flashcrowd.json`; and the
//!   example trace with each line deleted, each numeric field turned into
//!   strings in every line, and cut short at 64 offsets. A `seq` of 2^62
//!   must not size an allocation, and a trace with no packet rate is
//!   refused.
//!
//! Seen red: reading a leaf with `.expect` instead of `?`
//! (`c.opt_num("headroom").expect("headroom")` in
//! `cc_matrix::render_cc_matrix`) fails `damaged_artifacts_render_or_refuse`
//! with each file and mutation that panicked.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use dmp_bench::trace_report::Trace;
use dmp_bench::{repo_path, target};
use dmp_runner::{json, Json};

/// The artifacts of a committed directory, as `dmp-bench render` lists them.
fn json_files(dir: &str) -> Vec<PathBuf> {
    let files = target::artifact_files(&repo_path(dir)).expect("committed artifacts");
    assert!(!files.is_empty(), "{dir} holds no artifact");
    files
}

fn stem(path: &Path) -> String {
    path.file_stem().unwrap().to_string_lossy().into_owned()
}

/// Whether the workflow runs every crate's tests, `reproduction_gate.rs`
/// included: a `cargo test --workspace` line that excludes no package and
/// skips no test.
fn ci_runs_the_gate() -> bool {
    let ci = std::fs::read_to_string(repo_path(".github/workflows/ci.yml")).expect("ci.yml");
    ci.lines().any(|l| {
        let words: Vec<&str> = l
            .trim()
            .trim_start_matches("run:")
            .split_whitespace()
            .collect();
        words.starts_with(&["cargo", "test"])
            && words.contains(&"--workspace")
            && !words
                .iter()
                .any(|w| w.starts_with("--exclude") || w.starts_with("--skip"))
    })
}

#[test]
fn every_committed_artifact_is_a_target_that_ci_compares() {
    assert!(
        ci_runs_the_gate(),
        "no CI line runs `cargo test --workspace`, so no CI step compares a fresh run \
         against artifacts/"
    );
}

#[test]
fn every_committed_metrics_snapshot_has_data_and_a_ci_check() {
    for file in json_files("artifacts/metrics") {
        let stem = stem(&file);
        assert!(
            repo_path(&format!("artifacts/{stem}.json")).is_file(),
            "artifacts/metrics/{stem}.json has no data artifact beside it"
        );
    }
    assert!(
        ci_runs_the_gate(),
        "no CI line runs `cargo test --workspace`, so no CI step compares a fresh run \
         against artifacts/metrics/"
    );
}

/// The committed flight-recorder example.
const EXAMPLE_TRACE: &str = "artifacts/traces/ext_failover_quick_run0.jsonl";

/// A trace line: packet `seq` generated at `t` ns.
fn gen(t: u64, seq: u64) -> String {
    format!("{{\"t\":{t},\"ev\":\"gen\",\"seq\":{seq}}}\n")
}

#[test]
fn the_example_trace_renders_as_its_committed_report() {
    let report = target::render_file(&repo_path(EXAMPLE_TRACE)).unwrap_or_else(|e| panic!("{e}"));
    let committed = EXAMPLE_TRACE.replace(".jsonl", ".report.txt");
    assert_eq!(
        report,
        std::fs::read_to_string(repo_path(&committed)).unwrap()
    );
}

#[test]
fn every_committed_file_renders() {
    for file in json_files("artifacts")
        .into_iter()
        .chain(json_files("artifacts/metrics"))
    {
        let text = target::render_file(&file).unwrap_or_else(|e| panic!("{e}"));
        assert!(!text.trim().is_empty(), "{} renders empty", file.display());
    }
}

/// Files at least this large are mutated at the top level only.
const SMALL_BYTES: u64 = 10 * 1024;

/// The path of child indices to every node below the root, depth first;
/// `max_depth` 1 keeps the root's members only.
fn node_paths(doc: &Json, max_depth: usize) -> Vec<Vec<usize>> {
    fn walk(node: &Json, path: &mut Vec<usize>, max_depth: usize, out: &mut Vec<Vec<usize>>) {
        if path.len() == max_depth {
            return;
        }
        let children: Vec<&Json> = match node {
            Json::Arr(items) => items.iter().collect(),
            Json::Obj(pairs) => pairs.iter().map(|(_, v)| v).collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            out.push(path.clone());
            walk(child, path, max_depth, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(doc, &mut Vec::new(), max_depth, &mut out);
    out
}

fn node_mut<'a>(doc: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(doc, |node, &i| match node {
        Json::Arr(items) => &mut items[i],
        Json::Obj(pairs) => &mut pairs[i].1,
        _ => unreachable!("a path runs through containers only"),
    })
}

/// Every single-step mutation of `doc` at the nodes `paths` name, with a
/// description of each.
fn mutations(doc: &Json, paths: &[Vec<usize>]) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for path in paths {
        let (last, parent) = path.split_last().expect("below the root");
        let mut deleted = doc.clone();
        if let Json::Obj(pairs) = node_mut(&mut deleted, parent) {
            let (key, _) = pairs.remove(*last);
            out.push((format!("delete `{key}` at {path:?}"), deleted));
        }
        let mut swapped = doc.clone();
        let node = node_mut(&mut swapped, path);
        let swap = match node {
            Json::Num(v) => Some(Json::Str(v.to_string())),
            Json::Str(s) => Some(Json::Num(s.len() as f64)),
            _ => None,
        };
        if let Some(swap) = swap {
            *node = swap;
            out.push((format!("swap the kind of {path:?}"), swapped));
        }
    }
    out
}

/// How deep a committed file is mutated: all the way when small, the top
/// level for the two scenario dumps, not at all for any other large file.
fn depth(path: &Path) -> usize {
    let bytes = std::fs::metadata(path).expect("artifact").len();
    let top_level_only = ["ext_failover.json", "ext_flashcrowd.json"];
    if bytes < SMALL_BYTES {
        usize::MAX
    } else if path.parent().is_some_and(|p| p.ends_with("artifacts"))
        && top_level_only.iter().any(|f| path.ends_with(f))
    {
        1
    } else {
        0
    }
}

#[test]
fn damaged_artifacts_render_or_refuse() {
    let mut panics = Vec::new();
    let mut rendered = 0usize;
    for file in json_files("artifacts")
        .into_iter()
        .chain(json_files("artifacts/metrics"))
    {
        let doc = json::parse(&std::fs::read_to_string(&file).unwrap()).expect("committed JSON");
        assert!(
            target::render_file(&file).is_ok(),
            "{} does not render undamaged",
            file.display()
        );
        for (what, damaged) in mutations(&doc, &node_paths(&doc, depth(&file))) {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                target::render_artifact(&file, &damaged.render_pretty())
            }));
            match outcome {
                Ok(_) => rendered += 1,
                Err(_) => panics.push(format!("{}: {what}", file.display())),
            }
        }
    }
    let trace = repo_path(EXAMPLE_TRACE);
    let text = std::fs::read_to_string(&trace).expect("example trace");
    let mut damaged: Vec<(String, String)> = (0..64)
        .map(|k| {
            (
                format!("cut at {k}/64"),
                text[..text.len() * k / 64].to_string(),
            )
        })
        .collect();
    // Each number-valued key's numbers become strings, in every line.
    let events: Vec<Json> = text.lines().filter_map(json::parse).collect();
    let mut keys = BTreeSet::new();
    for e in &events {
        if let Json::Obj(pairs) = e {
            let numeric = pairs.iter().filter(|(_, v)| matches!(v, Json::Num(_)));
            keys.extend(numeric.map(|(k, _)| k.clone()));
        }
    }
    for key in keys {
        let mut swapped = events.clone();
        for (k, v) in swapped.iter_mut().flat_map(|e| match e {
            Json::Obj(pairs) => pairs.iter_mut(),
            _ => [].iter_mut(),
        }) {
            if let (true, Json::Num(n)) = (*k == key, &*v) {
                *v = Json::Str(n.to_string());
            }
        }
        let swapped: Vec<String> = swapped.iter().map(Json::render).collect();
        damaged.push((format!("`{key}` a string"), swapped.join("\n")));
    }
    damaged.push(("seq 2^62".into(), gen(0, 0) + &gen(1, 1 << 62)));
    for (what, damaged) in damaged {
        let render = || target::render_artifact(&trace, &damaged);
        match catch_unwind(AssertUnwindSafe(render)) {
            Ok(_) => rendered += 1,
            Err(_) => panics.push(format!("{}: {what}", trace.display())),
        }
    }
    // `Trace::parse` reads each line on its own: deleting a line is
    // deleting its event, and parsing 7 000 copies would take half a minute.
    let parsed = Trace::parse(&text).expect("example trace");
    for i in 0..parsed.events.len() {
        let mut events = parsed.events.clone();
        events.remove(i);
        let render = || dmp_bench::trace_report::render_report(&Trace { events });
        match catch_unwind(AssertUnwindSafe(render)) {
            Ok(_) => rendered += 1,
            Err(_) => panics.push(format!("{}: delete line {i}", trace.display())),
        }
    }
    // One `gen` has no packet rate; two must not size a `Vec` by 2^62.
    for refused in [gen(0, 1 << 62), gen(0, 0), String::new()] {
        assert!(
            target::render_artifact(&trace, &refused).is_err(),
            "{refused}"
        );
    }
    assert!(
        panics.is_empty(),
        "render panicked on:\n{}",
        panics.join("\n")
    );
    // Thousands of mutations, so the walk cannot silently have covered none.
    assert!(rendered > 1_000, "only {rendered} mutations rendered");
}
