//! Dependencies point downward: a workspace crate may link only the workspace
//! crates this table allows it, so the packet simulator builds without the
//! scheme crate or the job runner, `obs` without anything above the leaf, the
//! model plane without the flight recorder. Reads manifests; runs no `cargo`.

use std::path::Path;

/// `crate → workspace crates it may name under [dependencies]`, bottom up.
const ALLOWED: &[(&str, &str)] = &[
    ("dmp-base", ""),
    ("cc", ""),
    ("obs", "dmp-base"),
    ("netsim", "cc obs"),
    ("scenario", "dmp-base netsim obs"),
    ("dmp-core", "dmp-base"),
    ("dmp-runner", "dmp-base"),
    ("tcp-model", "dmp-base dmp-core"),
    ("dmp-sim", "cc dmp-core dmp-runner netsim obs scenario"),
    ("dmp-live", "dmp-core dmp-runner obs scenario tcp-model"),
    (
        "dmp-fleet",
        "cc dmp-core dmp-runner dmp-sim netsim obs scenario tcp-model",
    ),
    (
        "dmp-bench",
        "cc dmp-core dmp-fleet dmp-live dmp-runner dmp-sim netsim obs scenario tcp-model",
    ),
];

/// A manifest's package name and the keys of its `[dependencies]` table.
fn manifest(path: &Path) -> (String, Vec<String>) {
    let text = std::fs::read_to_string(path).expect("readable manifest");
    let mut section = "";
    let mut name = String::new();
    let mut deps = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if section == "[package]" && key == "name" {
                name = value.trim().trim_matches('"').to_string();
            } else if section == "[dependencies]" {
                // `netsim.workspace = true` and `netsim = { … }` both name `netsim`.
                deps.push(key.split('.').next().unwrap_or(key).to_string());
            }
        }
    }
    (name, deps)
}

#[test]
fn workspace_edges_match_the_layer_table() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let manifests: Vec<(String, Vec<String>)> = std::fs::read_dir(&crates)
        .expect("crates/ exists")
        .map(|entry| entry.expect("dir entry").path().join("Cargo.toml"))
        .filter(|path| path.exists())
        .map(|path| manifest(&path))
        .collect();
    let mut wrong = Vec::new();
    for (name, deps) in &manifests {
        let Some((_, allowed)) = ALLOWED.iter().find(|(c, _)| c == name) else {
            wrong.push(format!("{name}: not in the layer table"));
            continue;
        };
        for dep in deps {
            let in_workspace = manifests.iter().any(|(n, _)| n == dep);
            if in_workspace && !allowed.split(' ').any(|a| a == dep) {
                wrong.push(format!("{name} -> {dep}: edge not in the layer table"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
