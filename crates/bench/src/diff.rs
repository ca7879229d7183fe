//! Cross-run regression differ: compare two metrics documents (or whole
//! `metrics/` directories) leaf-by-leaf with per-metric relative-change
//! thresholds.
//!
//! The comparison model is deliberately simple because the inputs are
//! deterministic by construction: a metrics snapshot is a pure function of
//! the run, so two runs of the same configuration must agree to the byte and
//! the default threshold is **zero**. Thresholds exist for the cross-commit
//! use — diffing today's `metrics/` against a committed baseline after a
//! change that legitimately shifts a metric (e.g. a congestion-control fix
//! moving `net.rtt_us.p90`) — where the reviewer raises the budget for the
//! metrics the change is supposed to move and everything else stays gated at
//! zero.
//!
//! Three-way verdict, one exit code each (see [`Verdict::exit_code`]):
//!
//! * **Ok** (0) — every compared leaf within its threshold;
//! * **Drift** (1) — at least one numeric leaf moved past its threshold;
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

/// Outcome of a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All compared leaves within threshold.
    Ok,
    /// At least one numeric leaf moved past its threshold.
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

/// Per-metric relative-change budgets.
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    /// Budget for every leaf without a more specific override. Zero (the
    /// default) demands byte-level agreement — right for same-commit
    /// determinism gates.
    pub default_rel: f64,
    /// `(path prefix, budget)` overrides; the **longest** matching prefix
    /// wins, so `("net.", 0.02)` can sit under `("net.rtt_us", 0.10)`.
    pub overrides: Vec<(String, f64)>,
}

impl DiffOptions {
    /// The budget applying to `path`.
    pub fn threshold_for(&self, path: &str) -> f64 {
        self.overrides
            .iter()
            .filter(|(prefix, _)| path.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map_or(self.default_rel, |&(_, rel)| rel)
    }
}

/// One numeric leaf that moved past its budget.
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
    /// The budget the change exceeded.
    pub threshold: f64,
}

/// The full machine-readable result of a diff.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Numeric leaves compared (within or past budget).
    pub compared: usize,
    /// Leaves past their budget, first-seen order.
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
                        ("threshold", Json::Num(d.threshold)),
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
                "drift: {} {} -> {} (rel {:.3e} > {:.3e})",
                d.path, d.before, d.after, d.rel, d.threshold
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

/// Relative change between two values: 0 when equal (including both zero),
/// else `|b-a| / max(|a|,|b|)` — symmetric, and 1.0 when one side is zero.
fn rel_change(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (b - a).abs() / scale
    }
}

/// Diff two documents into `report`, prefixing every path with `prefix`
/// (directory mode passes the file stem; single-document mode passes "").
fn diff_into(report: &mut DiffReport, prefix: &str, a: &Json, b: &Json, opts: &DiffOptions) {
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
                let rel = rel_change(*x, *y);
                let threshold = opts.threshold_for(p);
                if rel > threshold {
                    report.drifted.push(Drift {
                        path: full(p),
                        before: *x,
                        after: *y,
                        rel,
                        threshold,
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
pub fn diff_docs(a: &Json, b: &Json, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    diff_into(&mut report, "", a, b, opts);
    report
}

fn parse_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    dmp_runner::json::parse(&text).ok_or_else(|| format!("cannot parse {}", path.display()))
}

/// JSON files directly inside `dir`, sorted by file name.
fn json_files(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    Ok(files)
}

/// Diff two paths, each either a JSON file or a directory of JSON files
/// (e.g. two `target/artifacts/metrics/` trees, or two
/// `benchmark/out/results.json` captures). In directory mode files pair up by name; a file present on one
/// side only makes the runs incomparable.
pub fn diff_paths(a: &Path, b: &Path, opts: &DiffOptions) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    match (a.is_dir(), b.is_dir()) {
        (true, true) => {
            let fa = json_files(a)?;
            let fb = json_files(b)?;
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
                diff_into(
                    &mut report,
                    &stem,
                    &parse_file(pa)?,
                    &parse_file(&fb[i])?,
                    opts,
                );
            }
        }
        (false, false) => diff_into(&mut report, "", &parse_file(a)?, &parse_file(b)?, opts),
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
        let r = diff_docs(&doc, &doc, &DiffOptions::default());
        assert_eq!(r.verdict(), Verdict::Ok);
        assert!(r.compared > 0);
        assert!(r.drifted.is_empty() && r.incomparable.is_empty());
        assert_eq!(r.verdict().exit_code(), 0);
    }

    #[test]
    fn perturbation_past_threshold_is_drift() {
        let a = snapshot();
        let mut b = snapshot();
        b.counter_add("frame.delivered", 10); // 100 -> 110: rel ≈ 0.091
        let report = diff_docs(
            &a.to_json(),
            &b.to_json(),
            &DiffOptions {
                default_rel: 0.05,
                overrides: vec![],
            },
        );
        assert_eq!(report.verdict(), Verdict::Drift);
        assert_eq!(report.verdict().exit_code(), 1);
        assert_eq!(report.drifted.len(), 1);
        assert_eq!(report.drifted[0].path, "counters.frame.delivered");
        // A generous override on that one metric absorbs the change.
        let report = diff_docs(
            &a.to_json(),
            &b.to_json(),
            &DiffOptions {
                default_rel: 0.05,
                overrides: vec![("counters.frame.delivered".into(), 0.2)],
            },
        );
        assert_eq!(report.verdict(), Verdict::Ok);
    }

    #[test]
    fn label_mismatch_is_incomparable_even_with_loose_thresholds() {
        let a = snapshot();
        let b = snapshot().with_label("cc", "cubic");
        let report = diff_docs(
            &a.to_json(),
            &b.to_json(),
            &DiffOptions {
                default_rel: 10.0,
                overrides: vec![],
            },
        );
        assert_eq!(report.verdict(), Verdict::Incomparable);
        assert_eq!(report.verdict().exit_code(), 2);
        assert!(report.incomparable[0].contains("labels.cc"));
    }

    #[test]
    fn missing_leaf_is_incomparable() {
        let a = snapshot();
        let mut b = snapshot();
        b.counter_add("net.retransmits", 1); // candidate-only leaf
        let report = diff_docs(&a.to_json(), &b.to_json(), &DiffOptions::default());
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
        let report = diff_docs(&doc_a, &b.to_json(), &DiffOptions::default());
        assert_eq!(report.verdict(), Verdict::Drift);
    }

    #[test]
    fn longest_prefix_override_wins() {
        let opts = DiffOptions {
            default_rel: 0.0,
            overrides: vec![
                ("histograms.".into(), 0.02),
                ("histograms.net.rtt_us".into(), 0.5),
            ],
        };
        assert_eq!(opts.threshold_for("histograms.net.rtt_us.p90"), 0.5);
        assert_eq!(opts.threshold_for("histograms.frame.delay_ms.p90"), 0.02);
        assert_eq!(opts.threshold_for("counters.frame.lost"), 0.0);
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
        let r = diff_paths(&da, &db, &DiffOptions::default()).unwrap();
        assert_eq!(r.verdict(), Verdict::Ok);
        // An extra candidate file breaks comparability.
        std::fs::write(db.join("extra.json"), &doc).unwrap();
        let r = diff_paths(&da, &db, &DiffOptions::default()).unwrap();
        assert_eq!(r.verdict(), Verdict::Incomparable);
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
