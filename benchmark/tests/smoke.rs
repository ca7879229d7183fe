//! `--smoke`: one timed and one traced iteration of every workload, all
//! checks on. Drives the built binary, as a CI step would.

use std::process::Command;

use dmp_runner::{json, Json};

const WORKLOADS: [&str; 6] = [
    "video_2path",
    "bulk_tcp",
    "fleet_churn",
    "model_ssa",
    "model_exact",
    "cache_replay",
];

fn read(name: &str) -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|| panic!("{} is not JSON", path.display()))
}

#[test]
fn smoke_suite_passes_and_writes_a_complete_ledger() {
    let out = Command::new(env!("CARGO_BIN_EXE_dmp-benchmark"))
        .args(["--smoke", "--seed", "11"])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "smoke run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let results = read("results.json");
    let sets = results.get("sets").and_then(Json::as_arr).expect("sets");
    assert_eq!(sets.len(), 1);
    for w in WORKLOADS {
        let runs = sets[0].get(w).unwrap_or_else(|| panic!("{w} missing"));
        for (pass, metrics) in [("untraced", 4), ("traced", 74)] {
            let run = runs.get(pass).expect("both passes recorded");
            assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(run.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let Some(Json::Obj(m)) = run.get("metrics") else {
                panic!("{w} {pass}: no metrics")
            };
            assert_eq!(m.len(), metrics, "{w} {pass}");
            for (name, v) in m {
                let value = v.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{w} {name}: {value:?}");
            }
        }

        // The span file tiles: per iteration, self times sum to the root's
        // duration (within the 2 % the acceptance criteria allow).
        let trace = read(&format!("trace-{w}.json"));
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).expect("span field");
        let roots: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("parent") == Some(&Json::Null))
            .collect();
        assert!(!roots.is_empty(), "{w}: no iteration span");
        for root in roots {
            let iteration = num(root, "iteration");
            let total: f64 = spans
                .iter()
                .filter(|s| num(s, "iteration") == iteration)
                .map(|s| num(s, "self_ns"))
                .sum();
            let duration = num(root, "end_ns") - num(root, "start_ns");
            assert!(
                (total - duration).abs() <= 0.02 * duration,
                "{w}: self times {total} vs iteration {duration}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dmp-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
