//! Cross-run regression differ: compare two metrics documents (or whole
//! `metrics/` directories) leaf-by-leaf.
//!
//! The comparison model is deliberately simple because the inputs are
//! deterministic by construction: a metrics snapshot is a pure function of
//! the run, so two runs of the same configuration must agree to the byte,
//! and any numeric leaf that moves at all is drift. A change that is meant
//! to move a metric re-records the committed baseline instead.
//!
//! Three-way verdict, one exit code each (see [`Verdict::exit_code`]):
//!
//! * **Ok** (0) — every compared leaf agrees;
//! * **Drift** (1) — at least one numeric leaf moved;
//! * **Incomparable** (2) — the documents do not describe the same
//!   configuration: a string/bool leaf (labels: `cc`, `strategy`, `engine`,
//!   `backend`…) differs, or a leaf/file exists on one side only. Refusing
//!   beats reporting nonsense drift between, say, a Reno run and a CUBIC run.
//!
//! Histogram bucket dumps (paths ending `.buckets`) are skipped: the exact
//! moments and percentiles serialized next to them already witness any
//! change, and bucket-level diffs would just repeat it hundreds of times.

use std::fmt::Write as _;
use std::path::Path;

use dmp_runner::Json;

use crate::target::artifact_files;

/// Outcome of a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All compared leaves agree.
    Ok,
    /// At least one numeric leaf moved.
    Drift,
    /// The runs are not comparable (config mismatch / missing leaves).
    Incomparable,
}

impl Verdict {
    /// Process exit code for the CLI: 0 ok, 1 drift, 2 incomparable.
    pub fn exit_code(self) -> i32 {
        match self {
            Verdict::Ok => 0,
            Verdict::Drift => 1,
            Verdict::Incomparable => 2,
        }
    }

    /// Machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Drift => "drift",
            Verdict::Incomparable => "incomparable",
        }
    }
}

/// One numeric leaf that moved.
#[derive(Debug, Clone)]
pub struct Drift {
    /// Dotted leaf path (`<file>:` prefixed in directory mode).
    pub path: String,
    /// Baseline value.
    pub before: f64,
    /// Candidate value.
    pub after: f64,
    /// Relative change `|after-before| / max(|before|,|after|)`.
    pub rel: f64,
}

/// The full machine-readable result of a diff.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Numeric leaves compared (agreeing or not).
    pub compared: usize,
    /// Leaves that moved, first-seen order.
    pub drifted: Vec<Drift>,
    /// Reasons the runs are not comparable (empty when they are).
    pub incomparable: Vec<String>,
}

impl DiffReport {
    /// Fold this report's facts into a verdict. Incomparability dominates:
    /// drift between mismatched configs is meaningless.
    pub fn verdict(&self) -> Verdict {
        if !self.incomparable.is_empty() {
            Verdict::Incomparable
        } else if !self.drifted.is_empty() {
            Verdict::Drift
        } else {
            Verdict::Ok
        }
    }

    /// The machine-readable verdict document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("verdict", Json::Str(self.verdict().name().to_string())),
            ("compared", Json::Num(self.compared as f64)),
            (
                "drifted",
                Json::arr(self.drifted.iter().map(|d| {
                    Json::obj([
                        ("path", Json::Str(d.path.clone())),
                        ("before", Json::Num(d.before)),
                        ("after", Json::Num(d.after)),
                        ("rel", Json::Num(d.rel)),
                    ])
                })),
            ),
            (
                "incomparable",
                Json::arr(self.incomparable.iter().map(|r| Json::Str(r.clone()))),
            ),
        ])
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.incomparable {
            let _ = writeln!(out, "incomparable: {r}");
        }
        for d in &self.drifted {
            let _ = writeln!(
                out,
                "drift: {} {} -> {} (rel {:.3e})",
                d.path, d.before, d.after, d.rel
            );
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} leaves compared, {} drifted, {} incomparable)",
            self.verdict().name(),
            self.compared,
            self.drifted.len(),
            self.incomparable.len()
        );
        out
    }
}

/// A comparable leaf value.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    /// Strings, bools, and nulls: configuration-shaped, compared exactly.
    Text(String),
}

/// Flatten a JSON document into `(dotted path, leaf)` pairs in document
/// order. Arrays index as `path[i]`; paths ending `.buckets` are skipped
/// (see module docs).
fn flatten(doc: &Json) -> Vec<(String, Leaf)> {
    fn walk(path: &str, node: &Json, out: &mut Vec<(String, Leaf)>) {
        match node {
            Json::Obj(pairs) => {
                for (k, v) in pairs {
                    if k == "buckets" {
                        continue;
                    }
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(&p, v, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(&format!("{path}[{i}]"), v, out);
                }
            }
            Json::Num(n) => out.push((path.to_string(), Leaf::Num(*n))),
            Json::Str(s) => out.push((path.to_string(), Leaf::Text(s.clone()))),
            Json::Bool(b) => out.push((path.to_string(), Leaf::Text(b.to_string()))),
            Json::Null => out.push((path.to_string(), Leaf::Text("null".to_string()))),
        }
    }
    let mut out = Vec::new();
    walk("", doc, &mut out);
    out
}

/// Relative change between two different values: `|b-a| / max(|a|,|b|)` —
/// symmetric, and 1.0 when one side is zero.
fn rel_change(a: f64, b: f64) -> f64 {
    (b - a).abs() / a.abs().max(b.abs())
}

/// Diff two documents into `report`, prefixing every path with `prefix`
/// (directory mode passes the file stem; single-document mode passes "").
fn diff_into(report: &mut DiffReport, prefix: &str, a: &Json, b: &Json) {
    let la = flatten(a);
    let lb = flatten(b);
    let full = |p: &str| {
        if prefix.is_empty() {
            p.to_string()
        } else {
            format!("{prefix}:{p}")
        }
    };
    let mb: std::collections::BTreeMap<&str, &Leaf> =
        lb.iter().map(|(p, l)| (p.as_str(), l)).collect();
    let ma: std::collections::BTreeMap<&str, &Leaf> =
        la.iter().map(|(p, l)| (p.as_str(), l)).collect();
    for (p, _) in &lb {
        if !ma.contains_key(p.as_str()) {
            report
                .incomparable
                .push(format!("{} only in candidate", full(p)));
        }
    }
    for (p, leaf_a) in &la {
        let Some(leaf_b) = mb.get(p.as_str()) else {
            report
                .incomparable
                .push(format!("{} only in baseline", full(p)));
            continue;
        };
        match (leaf_a, leaf_b) {
            (Leaf::Num(x), Leaf::Num(y)) => {
                report.compared += 1;
                if x != y {
                    report.drifted.push(Drift {
                        path: full(p),
                        before: *x,
                        after: *y,
                        rel: rel_change(*x, *y),
                    });
                }
            }
            (Leaf::Text(x), Leaf::Text(y)) => {
                if x != y {
                    report.incomparable.push(format!(
                        "{} differs: {x:?} vs {y:?} (config mismatch)",
                        full(p)
                    ));
                }
            }
            _ => report
                .incomparable
                .push(format!("{} changed type", full(p))),
        }
    }
}

/// Diff two in-memory documents.
pub fn diff_docs(a: &Json, b: &Json) -> DiffReport {
    let mut report = DiffReport::default();
    diff_into(&mut report, "", a, b);
    report
}

fn parse_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    dmp_runner::json::parse(&text).ok_or_else(|| format!("cannot parse {}", path.display()))
}

/// Diff two paths, each either a JSON file or a directory of JSON files
/// (e.g. two `target/artifacts/metrics/` trees, or two
/// `benchmark/out/results.json` captures). In directory mode the files
/// [`artifact_files`] lists pair up by name; a file present on one side
/// only makes the runs incomparable.
pub fn diff_paths(a: &Path, b: &Path) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    match (a.is_dir(), b.is_dir()) {
        (true, true) => {
            let list = |dir: &Path| {
                artifact_files(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))
            };
            let (fa, fb) = (list(a)?, list(b)?);
            let name = |p: &Path| p.file_name().unwrap_or_default().to_os_string();
            let nb: Vec<_> = fb.iter().map(|p| name(p)).collect();
            for p in &fb {
                if !fa.iter().any(|q| name(q) == name(p)) {
                    report
                        .incomparable
                        .push(format!("{} only in candidate", p.display()));
                }
            }
            for pa in &fa {
                let n = name(pa);
                let Some(i) = nb.iter().position(|m| *m == n) else {
                    report
                        .incomparable
                        .push(format!("{} only in baseline", pa.display()));
                    continue;
                };
                let stem = pa
                    .file_stem()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned();
                diff_into(&mut report, &stem, &parse_file(pa)?, &parse_file(&fb[i])?);
            }
        }
        (false, false) => diff_into(&mut report, "", &parse_file(a)?, &parse_file(b)?),
        _ => {
            report.incomparable.push(format!(
                "{} and {} are not both files or both directories",
                a.display(),
                b.display()
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_runner::JsonCodec;

    fn snapshot() -> obs::MetricsSnapshot {
        let mut m = obs::MetricsSnapshot::new().with_label("cc", "reno");
        m.counter_add("frame.delivered", 100);
        m.gauge_max("net.peak_queue_pkts", 12.0);
        for v in [3, 5, 5, 9, 40] {
            m.histogram("frame.delay_ms").record(v);
        }
        m
    }

    #[test]
    fn identical_documents_report_zero_drift() {
        let doc = snapshot().to_json();
        let r = diff_docs(&doc, &doc);
        assert_eq!(r.verdict(), Verdict::Ok);
        assert!(r.compared > 0);
        assert!(r.drifted.is_empty() && r.incomparable.is_empty());
        assert_eq!(r.verdict().exit_code(), 0);
    }

    /// The budget is zero: the smallest move of one leaf is drift, and
    /// only that leaf is reported.
    #[test]
    fn perturbation_past_threshold_is_drift() {
        let a = snapshot();
        let mut b = snapshot();
        b.counter_add("frame.delivered", 1); // 100 -> 101
        let report = diff_docs(&a.to_json(), &b.to_json());
        assert_eq!(report.verdict(), Verdict::Drift);
        assert_eq!(report.verdict().exit_code(), 1);
        assert_eq!(report.drifted.len(), 1);
        let d = &report.drifted[0];
        assert_eq!(d.path, "counters.frame.delivered");
        assert_eq!((d.before, d.after), (100.0, 101.0));
        assert!((d.rel - 1.0 / 101.0).abs() < 1e-12, "rel {}", d.rel);
    }

    /// Incomparability dominates drift: a label mismatch is reported as
    /// such even where numbers moved as well.
    #[test]
    fn label_mismatch_is_incomparable_even_with_loose_thresholds() {
        let a = snapshot();
        let mut b = snapshot().with_label("cc", "cubic");
        b.counter_add("frame.delivered", 10);
        let report = diff_docs(&a.to_json(), &b.to_json());
        assert_eq!(report.drifted.len(), 1);
        assert_eq!(report.verdict(), Verdict::Incomparable);
        assert_eq!(report.verdict().exit_code(), 2);
        assert!(report.incomparable[0].contains("labels.cc"));
    }

    #[test]
    fn missing_leaf_is_incomparable() {
        let a = snapshot();
        let mut b = snapshot();
        b.counter_add("net.retransmits", 1); // candidate-only leaf
        let report = diff_docs(&a.to_json(), &b.to_json());
        assert_eq!(report.verdict(), Verdict::Incomparable);
    }

    #[test]
    fn bucket_dumps_are_skipped() {
        let a = snapshot();
        let mut b = snapshot();
        // Same count/min/max but different interior values: buckets differ,
        // and so do sum/mean/percentiles — the skipped bucket paths must not
        // be the *only* witnesses.
        let doc_a = a.to_json();
        for (p, _) in flatten(&doc_a) {
            assert!(!p.contains("buckets"), "bucket path {p} leaked into diff");
        }
        b.histogram("frame.delay_ms").record(5);
        let report = diff_docs(&doc_a, &b.to_json());
        assert_eq!(report.verdict(), Verdict::Drift);
    }

    #[test]
    fn directory_mode_pairs_files_by_name() {
        let tmp = std::env::temp_dir().join(format!("bench_diff_test_{}", std::process::id()));
        let (da, db) = (tmp.join("a"), tmp.join("b"));
        std::fs::create_dir_all(&da).unwrap();
        std::fs::create_dir_all(&db).unwrap();
        let doc = snapshot().to_json().render_pretty();
        std::fs::write(da.join("ext_fleet.json"), &doc).unwrap();
        std::fs::write(db.join("ext_fleet.json"), &doc).unwrap();
        let r = diff_paths(&da, &db).unwrap();
        assert_eq!(r.verdict(), Verdict::Ok);
        // An extra candidate file breaks comparability.
        std::fs::write(db.join("extra.json"), &doc).unwrap();
        let r = diff_paths(&da, &db).unwrap();
        assert_eq!(r.verdict(), Verdict::Incomparable);
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
