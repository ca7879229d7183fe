//! Leaf-by-leaf difference of two JSON documents: the moved leaves the
//! reproduction gate lists when a regenerated artifact is not byte-identical
//! to the committed one.
//!
//! A leaf is a number, or any other scalar (a string, bool or null) compared
//! as its JSON text, at a dotted path (`points[3].tau_s`). A leaf moves when
//! its value differs, or when it exists in one document only; every kind of
//! move is reported the same way, since which leaves moved is all a reader
//! of a failed gate needs. Histogram bucket dumps (paths ending `.buckets`)
//! are skipped: the moments and percentiles beside them witness any change,
//! and bucket-level lines would repeat it hundreds of times.

use std::collections::BTreeMap;
use std::fmt;

use dmp_runner::Json;

/// One leaf where two documents differ.
#[derive(Debug, Clone, PartialEq)]
pub enum Moved {
    /// A number on both sides, with the relative change
    /// `|after-before| / max(|before|,|after|)`.
    Num {
        /// Dotted leaf path.
        path: String,
        /// Value in the first document.
        before: f64,
        /// Value in the second document.
        after: f64,
        /// Relative change; 1.0 when one side is zero.
        rel: f64,
    },
    /// Any other leaf on both sides, as JSON text (a string keeps its
    /// quotes, so a number that became a string shows as such).
    Text {
        /// Dotted leaf path.
        path: String,
        /// JSON text in the first document.
        before: String,
        /// JSON text in the second document.
        after: String,
    },
    /// A leaf present in one document only.
    OneSide {
        /// Dotted leaf path.
        path: String,
        /// Its JSON text.
        value: String,
        /// Whether the first document holds it (else the second does).
        in_before: bool,
    },
}

impl fmt::Display for Moved {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Moved::Num {
                path,
                before,
                after,
                rel,
            } => write!(f, "{path}: {before} -> {after} (rel {rel:.3e})"),
            Moved::Text {
                path,
                before,
                after,
            } => write!(f, "{path}: {before} -> {after}"),
            Moved::OneSide {
                path,
                value,
                in_before,
            } => {
                let side = if *in_before { "before" } else { "after" };
                write!(f, "{path}: {value} only {side}")
            }
        }
    }
}

/// The leaves of `doc` in document order, each with its dotted path.
fn leaves(doc: &Json) -> Vec<(String, &Json)> {
    fn walk<'a>(path: String, node: &'a Json, out: &mut Vec<(String, &'a Json)>) {
        match node {
            Json::Obj(pairs) => {
                for (k, v) in pairs.iter().filter(|(k, _)| k != "buckets") {
                    let p = if path.is_empty() {
                        k.to_string()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(p, v, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(format!("{path}[{i}]"), v, out);
                }
            }
            leaf => out.push((path, leaf)),
        }
    }
    let mut out = Vec::new();
    walk(String::new(), doc, &mut out);
    out
}

/// The leaves where `before` and `after` differ: those of `before` in its
/// document order, then those only `after` holds.
pub fn diff_docs(before: &Json, after: &Json) -> Vec<Moved> {
    let (a, b) = (leaves(before), leaves(after));
    let index = |leaves: &[(String, &Json)]| -> BTreeMap<String, Json> {
        leaves
            .iter()
            .map(|(p, v)| (p.clone(), (*v).clone()))
            .collect()
    };
    let (in_a, in_b) = (index(&a), index(&b));
    let mut moved = Vec::new();
    for (path, x) in a {
        match (x, in_b.get(&path)) {
            (x, Some(y)) if x == y => {}
            (&Json::Num(before), Some(&Json::Num(after))) => moved.push(Moved::Num {
                path,
                before,
                after,
                rel: (after - before).abs() / before.abs().max(after.abs()),
            }),
            (x, Some(y)) => moved.push(Moved::Text {
                path,
                before: x.render(),
                after: y.render(),
            }),
            (x, None) => moved.push(Moved::OneSide {
                path,
                value: x.render(),
                in_before: true,
            }),
        }
    }
    for (path, y) in b {
        if !in_a.contains_key(&path) {
            moved.push(Moved::OneSide {
                path,
                value: y.render(),
                in_before: false,
            });
        }
    }
    moved
}

/// One line per moved leaf, then their count.
pub fn render(moved: &[Moved]) -> String {
    let mut out: String = moved.iter().map(|m| format!("  {m}\n")).collect();
    out.push_str(&format!("{} leaves moved\n", moved.len()));
    out
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
        assert!(!leaves(&doc).is_empty());
        assert_eq!(diff_docs(&doc, &doc), []);
    }

    /// The budget is zero: the smallest move of one number is drift, and
    /// only that leaf is reported.
    #[test]
    fn perturbation_past_threshold_is_drift() {
        let mut b = snapshot();
        b.counter_add("frame.delivered", 1); // 100 -> 101
        let moved = diff_docs(&snapshot().to_json(), &b.to_json());
        let [Moved::Num {
            path,
            before,
            after,
            rel,
        }] = moved.as_slice()
        else {
            panic!("{moved:?}");
        };
        assert_eq!(
            (path.as_str(), *before, *after),
            ("counters.frame.delivered", 100.0, 101.0)
        );
        assert!((rel - 1.0 / 101.0).abs() < 1e-12, "rel {rel}");
    }

    /// A table cell is a string leaf: a moved cell is a moved leaf like any
    /// other, and so is a label.
    #[test]
    fn a_moved_string_is_a_moved_leaf() {
        let cell = |c: &str| Json::obj([("rows", Json::arr([Json::arr([Json::Str(c.into())])]))]);
        let moved = diff_docs(&cell("8.0"), &cell("8.5"));
        assert_eq!(
            render(&moved),
            "  rows[0][0]: \"8.0\" -> \"8.5\"\n1 leaves moved\n"
        );
        let b = snapshot().with_label("cc", "cubic");
        let moved = diff_docs(&snapshot().to_json(), &b.to_json());
        assert!(matches!(&moved[..], [Moved::Text { path, .. }] if path == "labels.cc"));
    }

    #[test]
    fn a_leaf_on_one_side_only_names_its_side() {
        let mut b = snapshot();
        b.counter_add("net.retransmits", 1);
        let (a, b) = (snapshot().to_json(), b.to_json());
        let only_after = Moved::OneSide {
            path: "counters.net.retransmits".into(),
            value: "1".into(),
            in_before: false,
        };
        assert_eq!(diff_docs(&a, &b), [only_after]);
        assert!(matches!(
            &diff_docs(&b, &a)[..],
            [Moved::OneSide {
                in_before: true,
                ..
            }]
        ));
    }

    #[test]
    fn bucket_dumps_are_skipped() {
        let doc_a = snapshot().to_json();
        for (p, _) in leaves(&doc_a) {
            assert!(!p.contains("buckets"), "bucket path {p} leaked into diff");
        }
        // The skipped buckets are not the only witnesses of a new sample.
        let mut b = snapshot();
        b.histogram("frame.delay_ms").record(5);
        assert!(!diff_docs(&doc_a, &b.to_json()).is_empty());
    }
}
