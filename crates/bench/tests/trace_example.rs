//! The committed flight-recorder example (`artifacts/traces/`) must stay
//! reproducible byte-for-byte, its report must correlate the failover glitch
//! with the scripted `PathDown`, and recording the trace must not perturb
//! the simulation itself.

use std::path::Path;

use dmp_bench::trace_example;

fn committed(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../artifacts/traces")
        .join(name)
}

#[test]
fn committed_example_is_reproducible_and_report_explains_the_glitch() {
    let dir = std::env::temp_dir().join(format!("dmp-trace-example-{}", std::process::id()));
    let (trace_path, traced_out, report) = trace_example::generate(&dir);

    let fresh = std::fs::read(&trace_path).expect("regenerated trace exists");
    let reference_path = committed(&format!("{}.jsonl", trace_example::LABEL));
    let reference = std::fs::read(&reference_path).unwrap_or_else(|e| {
        panic!(
            "committed example missing at {}: {e}\n\
             regenerate with `cargo run --release -p dmp-bench --bin trace_example`",
            reference_path.display()
        )
    });
    assert_eq!(
        fresh, reference,
        "regenerated trace differs from the committed example; if the \
         behaviour change is intended, re-run \
         `cargo run --release -p dmp-bench --bin trace_example` and commit"
    );
    let committed_report =
        std::fs::read_to_string(committed(&format!("{}.report.txt", trace_example::LABEL)))
            .expect("committed report exists");
    assert_eq!(report, committed_report, "committed report is stale");

    // The acceptance check: the glitch is correlated with its scripted cause.
    assert!(report.contains("glitch 0"), "no glitch in:\n{report}");
    assert!(
        report.contains("cause: scripted `down` on path 0"),
        "glitch not correlated with the PathDown script in:\n{report}"
    );
    assert!(
        report.contains("RTO expired"),
        "no RTO activity in:\n{report}"
    );

    // Behaviour neutrality: the identical spec with tracing off produces the
    // identical simulation (the full-matrix version of this lives in
    // dmp-sim's scheduler_differential test).
    let untraced = dmp_sim::experiment::run(&trace_example::example_spec(None));
    assert_eq!(untraced.trace.records(), traced_out.trace.records());
    assert_eq!(
        format!("{:?}", untraced.paths),
        format!("{:?}", traced_out.paths)
    );

    std::fs::remove_dir_all(&dir).ok();
}
