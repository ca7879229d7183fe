//! The committed `artifacts/` are checked by CI and readable as a run
//! printed them:
//!
//! * every `artifacts/<stem>.json` is a registered target's artifact and the
//!   workflow `cmp`s a fresh run's file against it;
//! * every `artifacts/metrics/<stem>.json` has its data sibling and a
//!   `bench_diff` or `cmp` line in the workflow;
//! * every committed file renders through `dmp-bench render`;
//! * rendering is total: a damaged committed artifact gives `render` an
//!   `Err` or a string, never a panic. One mutation per render: each object
//!   member deleted, then each number replaced with a string and each string
//!   with a number — every member of every committed file under 10 KB, data
//!   and metrics snapshots alike, and the top-level members of the two large
//!   scenario dumps, `ext_failover.json` and `ext_flashcrowd.json`.
//!
//! Seen red: deleting the `cmp artifacts/ext_fleet.json …` line from
//! `.github/workflows/ci.yml` fails
//! `every_committed_artifact_is_a_target_that_ci_compares`, naming
//! `ext_fleet`; reading a leaf with `.expect` instead of `?`
//! (`c.opt_num("headroom").expect("headroom")` in
//! `cc_matrix::render_cc_matrix`) fails `damaged_artifacts_render_or_refuse`
//! with each file and mutation that panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

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

/// The workflow's shell lines: continuation lines joined, and every
/// `for name in …; do … done` loop unrolled with `$name` substituted.
fn ci_lines() -> Vec<String> {
    let ci = std::fs::read_to_string(repo_path(".github/workflows/ci.yml")).expect("ci.yml");
    let joined = ci.replace("\\\n", " ");
    let mut lines = joined.lines();
    let mut out = Vec::new();
    while let Some(line) = lines.next() {
        let words = line.trim().strip_prefix("for name in ");
        match words.and_then(|w| w.strip_suffix("; do")) {
            Some(words) => {
                let body: Vec<&str> = lines.by_ref().take_while(|l| l.trim() != "done").collect();
                for word in words.split_whitespace() {
                    out.extend(body.iter().map(|l| l.replace("$name", word)));
                }
            }
            None => out.push(line.to_string()),
        }
    }
    out
}

#[test]
fn every_committed_artifact_is_a_target_that_ci_compares() {
    let lines = ci_lines();
    for file in json_files("artifacts") {
        let stem = stem(&file);
        assert!(
            target::find(&stem).is_some(),
            "artifacts/{stem}.json is no registered target's artifact"
        );
        let cmp = format!("cmp artifacts/{stem}.json ");
        assert!(
            lines.iter().any(|l| l.trim_start().starts_with(&cmp)),
            "no CI line compares a fresh run against artifacts/{stem}.json"
        );
    }
}

#[test]
fn every_committed_metrics_snapshot_has_data_and_a_ci_check() {
    let lines = ci_lines();
    for file in json_files("artifacts/metrics") {
        let stem = stem(&file);
        assert!(
            repo_path(&format!("artifacts/{stem}.json")).is_file(),
            "artifacts/metrics/{stem}.json has no data artifact beside it"
        );
        let committed = format!("artifacts/metrics/{stem}.json");
        let checked = lines.iter().any(|l| {
            let mut words = l.split_whitespace();
            let tool = words.next().unwrap_or_default();
            (tool == "cmp" || tool.ends_with("bench_diff")) && words.any(|w| w == committed)
        });
        assert!(
            checked,
            "no CI `bench_diff` or `cmp` line reads {committed}"
        );
    }
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
            target::render_artifact(&file, &doc).is_ok(),
            "{} does not render undamaged",
            file.display()
        );
        for (what, damaged) in mutations(&doc, &node_paths(&doc, depth(&file))) {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                target::render_artifact(&file, &damaged)
            }));
            match outcome {
                Ok(_) => rendered += 1,
                Err(_) => panics.push(format!("{}: {what}", file.display())),
            }
        }
    }
    assert!(
        panics.is_empty(),
        "render panicked on:\n{}",
        panics.join("\n")
    );
    // Thousands of mutations, so the walk cannot silently have covered none.
    assert!(rendered > 1_000, "only {rendered} mutations rendered");
}
