//! Render an always-on metrics snapshot (`metrics/<name>.json`) for humans:
//! label lines, counter/gauge listings, and one percentile row plus a
//! sparkline bucket dump per histogram.

use obs::{Histogram, MetricsSnapshot};

use crate::report::Table;

/// The Unicode block ramp sparklines draw with.
const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Sparkline over a histogram's non-empty bucket range: one glyph per
/// occupied-to-occupied bucket, height proportional to the bucket count
/// relative to the fullest bucket. Empty histogram → empty string.
pub fn sparkline(h: &Histogram) -> String {
    let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
    let (Some(&(first, _)), Some(&(last, _))) = (buckets.first(), buckets.last()) else {
        return String::new();
    };
    let peak = buckets.iter().map(|&(_, n)| n).max().unwrap_or(1);
    let mut counts = vec![0u64; last - first + 1];
    for (i, n) in buckets {
        counts[i - first] = n;
    }
    counts
        .iter()
        .map(|&n| {
            if n == 0 {
                ' '
            } else {
                // Ceil-map counts onto the ramp so a single sample still
                // shows as the lowest block, never as a blank.
                RAMP[((n * RAMP.len() as u64).div_ceil(peak) as usize - 1).min(RAMP.len() - 1)]
            }
        })
        .collect()
}

/// Render one snapshot under a heading (the file stem in directory mode).
pub fn render_snapshot(heading: &str, snap: &MetricsSnapshot) -> String {
    let mut out = format!("== {heading} ==\n");
    if !snap.labels.is_empty() {
        let labels: Vec<String> = snap
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!("labels: {}\n", labels.join(" ")));
    }
    if !snap.histograms.is_empty() {
        let mut t = Table::new(
            format!("{heading}: histograms"),
            &[
                "metric", "count", "mean", "p50", "p90", "p99", "max", "shape",
            ],
        );
        for (name, h) in &snap.histograms {
            let d = h.distribution();
            t.row(vec![
                name.clone(),
                h.count().to_string(),
                format!("{:.1}", d.mean),
                format!("{:.1}", d.p50),
                format!("{:.1}", d.p90),
                format!("{:.1}", d.p99),
                format!("{:.0}", d.max),
                sparkline(h),
            ]);
        }
        out.push_str(&t.render());
    }
    if !snap.counters.is_empty() {
        let mut t = Table::new(format!("{heading}: counters"), &["counter", "value"]);
        for (name, v) in &snap.counters {
            t.row(vec![name.clone(), v.to_string()]);
        }
        out.push_str(&t.render());
    }
    if !snap.gauges.is_empty() {
        let mut t = Table::new(format!("{heading}: gauges (max)"), &["gauge", "value"]);
        for (name, v) in &snap.gauges {
            t.row(vec![name.clone(), format!("{v}")]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new().with_label("cc", "reno");
        m.counter_add("frame.delivered", 42);
        m.gauge_max("net.peak_queue_pkts", 7.0);
        for v in [2u64, 2, 3, 3, 3, 9, 120] {
            m.histogram("frame.delay_ms").record(v);
        }
        m
    }

    #[test]
    fn sparkline_spans_occupied_buckets_only() {
        let snap = snapshot();
        let s = sparkline(&snap.histograms["frame.delay_ms"]);
        assert!(!s.is_empty());
        // Peak bucket (the three 3s) renders the full block; singleton
        // buckets render a visible (non-blank) glyph.
        assert!(s.contains('█'));
        assert!(s.contains('▃'));
        assert!(!s.starts_with(' ') && !s.ends_with(' '));
        assert!(sparkline(&Histogram::new()).is_empty());
    }

    #[test]
    fn render_mentions_every_section() {
        let text = render_snapshot("sample", &snapshot());
        assert!(text.contains("cc=reno"));
        assert!(text.contains("frame.delay_ms"));
        assert!(text.contains("frame.delivered"));
        assert!(text.contains("net.peak_queue_pkts"));
        assert!(text.contains("p99"));
    }
}
