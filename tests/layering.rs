//! Dependencies point downward: a workspace crate links exactly the
//! workspace crates this table allows it, so the packet simulator builds
//! without the scheme crate or the job runner, `obs` without anything above
//! the leaf, the model plane without the flight recorder, the live plane
//! without the packet simulator. Every vendored shim and every root
//! `[workspace.dependencies]` entry has a user. And where a run writes is its
//! input: below the harness, no source reads the environment. Reads
//! manifests and sources; runs no `cargo`.
//!
//! Each of these turns it red: `scenario` allowed in `dmp-live`'s row;
//! `netsim` added to `dmp-live`'s manifest and row; `obs` added to
//! `tcp-model`'s; a `vendor/parking_lot` shim with, or without, its root
//! `[workspace.dependencies]` line and no user.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// `crate → workspace crates it names under [dependencies]`, bottom up.
const ALLOWED: &[(&str, &str)] = &[
    ("dmp-base", ""),
    ("cc", ""),
    ("obs", "dmp-base"),
    ("netsim", "cc obs"),
    ("scenario", "dmp-base netsim obs"),
    ("dmp-core", "dmp-base"),
    ("dmp-runner", "dmp-base"),
    ("tcp-model", "dmp-core"),
    ("dmp-sim", "cc dmp-core dmp-runner netsim obs scenario"),
    ("dmp-live", "dmp-core obs tcp-model"),
    (
        "dmp-fleet",
        "cc dmp-core dmp-runner dmp-sim netsim obs scenario tcp-model",
    ),
    (
        "dmp-bench",
        "cc dmp-core dmp-fleet dmp-live dmp-runner dmp-sim netsim obs scenario tcp-model",
    ),
];

/// DESIGN.md's planes: the crates at each plane's top, and the workspace
/// crates none of them may reach through `[dependencies]`.
const PLANES: &[(&str, &[&str], &[&str])] = &[
    (
        "packet",
        &["netsim", "scenario"],
        &["dmp-core", "dmp-runner"],
    ),
    ("model", &["tcp-model"], &["obs", "dmp-runner"]),
    ("live", &["dmp-live"], &["dmp-runner", "netsim"]),
];

/// What a manifest names: its package name, the keys of its
/// `[dependencies]` table, those of every dependency table it uses (dev and
/// build ones too) and those of its `[workspace.dependencies]` list.
#[derive(Default)]
struct Manifest {
    name: String,
    deps: Vec<String>,
    uses: Vec<String>,
    workspace_deps: Vec<String>,
}

fn manifest(path: &Path) -> Manifest {
    let text = std::fs::read_to_string(path).expect("readable manifest");
    let mut section = "";
    let mut m = Manifest::default();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            // `netsim.workspace = true` and `netsim = { … }` both name `netsim`.
            let dep = key.split('.').next().unwrap_or(key).to_string();
            if section == "[package]" && key == "name" {
                m.name = value.trim().trim_matches('"').to_string();
            } else if section == "[workspace.dependencies]" {
                m.workspace_deps.push(dep);
            } else if section.ends_with("dependencies]") {
                if section == "[dependencies]" {
                    m.deps.push(dep.clone());
                }
                m.uses.push(dep);
            }
        }
    }
    m
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The manifest of every directory under `dir` that has one.
fn manifests_under(dir: &Path) -> Vec<Manifest> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path().join("Cargo.toml"))
        .filter(|path| path.exists())
        .map(|path| manifest(&path))
        .collect()
}

#[test]
fn workspace_edges_match_the_layer_table() {
    let crates = manifests_under(&root().join("crates"));
    let in_workspace = |dep: &str| crates.iter().any(|m| m.name == dep);
    let mut wrong = Vec::new();
    for m in &crates {
        let Some((_, allowed)) = ALLOWED.iter().find(|(c, _)| *c == m.name) else {
            wrong.push(format!("{}: not in the layer table", m.name));
            continue;
        };
        let allowed: Vec<&str> = allowed.split_whitespace().collect();
        for dep in m.deps.iter().filter(|d| in_workspace(d)) {
            if !allowed.contains(&dep.as_str()) {
                wrong.push(format!("{} -> {dep}: edge not in the layer table", m.name));
            }
        }
        for dep in allowed {
            if !m.deps.iter().any(|d| d == dep) {
                wrong.push(format!(
                    "{} -> {dep}: allowed, but its manifest does not name it",
                    m.name
                ));
            }
        }
    }
    for (krate, _) in ALLOWED {
        if !in_workspace(krate) {
            wrong.push(format!(
                "{krate}: in the layer table, but not a workspace crate"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Every workspace crate reachable from `tops` through `[dependencies]`,
/// the tops included.
fn closure(crates: &[Manifest], tops: &[&str]) -> BTreeSet<String> {
    let mut reached = BTreeSet::new();
    let mut todo: Vec<String> = tops.iter().map(|t| t.to_string()).collect();
    while let Some(krate) = todo.pop() {
        let Some(m) = crates.iter().find(|m| m.name == krate) else {
            continue; // an external crate
        };
        if reached.insert(krate) {
            todo.extend(m.deps.iter().cloned());
        }
    }
    reached
}

/// DESIGN.md's plane claims, on what the manifests really link: the packet
/// plane builds without the scheme or the runner, the model plane without
/// the flight recorder or the runner, the live plane without the runner or
/// the packet simulator.
#[test]
fn each_plane_builds_without_what_design_md_keeps_out_of_it() {
    let crates = manifests_under(&root().join("crates"));
    let mut wrong = Vec::new();
    for (plane, tops, excluded) in PLANES {
        let reached = closure(&crates, tops);
        for top in *tops {
            assert!(reached.contains(*top), "{top}: not a workspace crate");
        }
        for krate in *excluded {
            if reached.contains(*krate) {
                wrong.push(format!(
                    "the {plane} plane {tops:?} links {krate}: {reached:?}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// A shim whose last user leaves, or a workspace dependency no member
/// names, fails here instead of lingering: some manifest (the root's,
/// a crate's or the benchmark's) names every `vendor/*` crate, and some
/// member names every root `[workspace.dependencies]` entry.
#[test]
fn every_vendored_shim_and_workspace_dependency_has_a_user() {
    let root_manifest = manifest(&root().join("Cargo.toml"));
    let crates = manifests_under(&root().join("crates"));
    let benchmark = manifest(&root().join("benchmark/Cargo.toml"));
    let mut wrong = Vec::new();

    let every = || {
        std::iter::once(&root_manifest)
            .chain(&crates)
            .chain([&benchmark])
    };
    for shim in manifests_under(&root().join("vendor")) {
        let names =
            |m: &Manifest| m.uses.contains(&shim.name) || m.workspace_deps.contains(&shim.name);
        if !every().any(names) {
            wrong.push(format!("vendor crate {}: no manifest names it", shim.name));
        }
    }

    // The members are the root package and `crates/*`.
    let members = || std::iter::once(&root_manifest).chain(&crates);
    assert!(
        !root_manifest.workspace_deps.is_empty(),
        "no [workspace.dependencies]"
    );
    for dep in &root_manifest.workspace_deps {
        if !members().any(|m| m.uses.contains(dep)) {
            wrong.push(format!("[workspace.dependencies] {dep}: no member uses it"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// Only the runner, which owns the artifact directory, and the harness above
/// every job may name `ArtifactWriter` or read `std::env::var`.
#[test]
fn below_the_harness_no_source_reads_the_environment() {
    let crates = root().join("crates");
    let mut wrong = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ exists") {
        let krate = entry.expect("dir entry").path();
        if krate.ends_with("dmp-runner") || krate.ends_with("bench") {
            continue;
        }
        for file in rust_files(&krate.join("src")) {
            let text = std::fs::read_to_string(&file).expect("readable source");
            // Unit tests live in the trailing `#[cfg(test)]` module.
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            for name in ["ArtifactWriter", "std::env::var"] {
                if code.contains(name) {
                    wrong.push(format!("{}: names `{name}`", file.display()));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
