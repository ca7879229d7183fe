//! Always-on mergeable metrics: counters, gauges, and fixed-log-bucket
//! histograms that every layer of the stack feeds on its hot path.
//!
//! Unlike the flight-recorder traces (heavy, uncacheable, off by default),
//! metrics are **always on** and **cache-compatible**: a snapshot is a pure
//! function of the run — no RNG draws, no scheduled events, no clocks — so
//! it rides inside cached job results and replays byte-identically from the
//! cache. Three properties make the layer safe to leave enabled everywhere:
//!
//! * **behaviour-neutral** — recording a sample is an array increment plus
//!   integer moment updates; it never perturbs the simulation, so metrics-on
//!   artifacts are byte-identical to a build that never heard of metrics;
//! * **exactly mergeable** — counters add, gauges take the max, histogram
//!   buckets and moments add as integers, so merging shard snapshots is
//!   commutative and associative: any merge order produces the identical
//!   snapshot (the same discipline as `EngineTelemetry::absorb`);
//! * **deterministic serialisation** — snapshots serialise with sorted keys
//!   and exact integer bucket counts, so two equal snapshots render the
//!   same bytes across runner thread counts and trace on/off.
//!
//! The histogram is HDR-style log-linear: values `< 8` get exact unit
//! buckets; every power-of-two octave above splits into 8 sub-buckets
//! (≤ 12.5 % relative bucket width). Alongside the buckets each histogram
//! keeps exact integer moments (`count`, `sum`, `sum_sq` in `u128`, `min`,
//! `max`), from which [`dmp_base::Distribution`] reconstructs mean, p50,
//! p90, p99, max, and stddev — the repo's single percentile implementation.

use std::collections::BTreeMap;

use dmp_base::{Distribution, Json, JsonCodec};

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = SUB as usize * (64 - SUB_BITS as usize + 1);

/// Bucket index of a value: exact below [`SUB`], log-linear above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let shift = top - SUB_BITS;
        let sub = ((v >> shift) & (SUB - 1)) as usize;
        SUB as usize + shift as usize * SUB as usize + sub
    }
}

/// `[lo, hi)` value range of bucket `i` (inverse of [`bucket_index`]). The
/// top bucket would end at 2^64: its `hi` saturates at `u64::MAX`, which it
/// includes.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        (i as u64, i as u64 + 1)
    } else {
        let j = i - SUB as usize;
        let shift = (j / SUB as usize) as u32;
        let sub = (j % SUB as usize) as u64;
        let lo = (SUB + sub) << shift;
        (lo, lo.saturating_add(1u64 << shift))
    }
}

/// A mergeable fixed-log-bucket histogram over `u64` samples.
///
/// Callers pick the unit when recording (microseconds for RTTs,
/// milliseconds for frame delays, packets for queue depths, …) and encode
/// it in the metric name (`net.rtt_us`). All state is integer, so merges
/// are exact and order-independent.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram. Allocates its bucket array once; recording never
    /// allocates (the steady-state event loop stays zero-alloc).
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.sum_sq += u128::from(v) * u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.sum_sq += u128::from(v) * u128::from(v) * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`. Exact integer arithmetic: commutative and
    /// associative, so any merge order yields the identical histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as ascending `(index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Non-empty buckets as ascending `(lo, hi, count)` value-range triples.
    pub fn bounds_buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.nonzero_buckets().map(|(i, c)| {
            let (lo, hi) = bucket_bounds(i);
            (lo as f64, hi as f64, c)
        })
    }

    /// Reconstruct the summary distribution (mean/p50/p90/p99/max/stddev)
    /// from the buckets and exact moments.
    pub fn distribution(&self) -> Distribution {
        Distribution::from_histogram(
            self.count,
            self.sum as f64,
            self.sum_sq as f64,
            self.min() as f64,
            self.max as f64,
            self.bounds_buckets(),
        )
    }
}

impl JsonCodec for Histogram {
    fn to_json(&self) -> Json {
        let d = self.distribution();
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            ("sum_sq", Json::Num(self.sum_sq as f64)),
            ("min", Json::Num(self.min() as f64)),
            ("max", Json::Num(self.max as f64)),
            ("mean", Json::Num(d.mean)),
            ("p50", Json::Num(d.p50)),
            ("p90", Json::Num(d.p90)),
            ("p99", Json::Num(d.p99)),
            ("stddev", Json::Num(d.stddev)),
            (
                "buckets",
                Json::arr(
                    self.nonzero_buckets()
                        .map(|(i, c)| Json::nums([i as f64, c as f64])),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let mut h = Histogram::new();
        h.count = json.get("count")?.as_u64()?;
        if h.count == 0 {
            return Some(h);
        }
        h.sum = json.get("sum")?.as_f64()? as u128;
        h.sum_sq = json.get("sum_sq")?.as_f64()? as u128;
        h.min = json.get("min")?.as_u64()?;
        h.max = json.get("max")?.as_u64()?;
        for pair in json.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            let idx = pair.first()?.as_u64()? as usize;
            if idx >= BUCKETS {
                return None;
            }
            h.counts[idx] = pair.get(1)?.as_u64()?;
        }
        Some(h)
    }
}

/// One frozen, serialisable, mergeable metrics reading.
///
/// `labels` carry configuration identity (`cc`, `strategy`, `engine`);
/// `bench_diff` refuses to compare snapshots whose labels disagree instead
/// of reporting spurious drift. Merging two snapshots with conflicting
/// label values records the literal value `"mixed"`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Configuration identity labels, e.g. `cc → reno`.
    pub labels: BTreeMap<String, String>,
    /// Monotone event counts; merges add.
    pub counters: BTreeMap<String, u64>,
    /// Level readings; merges take the maximum (the only commutative choice
    /// without a sample count).
    pub gauges: BTreeMap<String, f64>,
    /// Sample distributions; merges add buckets and moments exactly.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Label value recorded when merged snapshots disagree on a label.
pub const MIXED_LABEL: &str = "mixed";

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Raise gauge `name` to at least `v`.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if v > *g {
            *g = v;
        }
    }

    /// Mutable access to histogram `name` (created empty on first use).
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Set configuration label `key` to `value`.
    pub fn set_label(&mut self, key: &str, value: impl Into<String>) {
        self.labels.insert(key.to_string(), value.into());
    }

    /// Builder-style [`set_label`](Self::set_label).
    pub fn with_label(mut self, key: &str, value: impl Into<String>) -> Self {
        self.set_label(key, value);
        self
    }

    /// Fold `other` into `self`: counters add, gauges max, histograms merge
    /// exactly, and conflicting labels collapse to [`MIXED_LABEL`]. The
    /// operation is commutative and associative, so shard merges are
    /// order-deterministic — the same path `EngineTelemetry::absorb` takes
    /// for engine counters.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.labels {
            match self.labels.get(k) {
                Some(mine) if mine != v => {
                    self.labels.insert(k.clone(), MIXED_LABEL.to_string());
                }
                Some(_) => {}
                None => {
                    self.labels.insert(k.clone(), v.clone());
                }
            }
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauge_max(k, v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

impl JsonCodec for MetricsSnapshot {
    /// Deterministic rendering: `BTreeMap` iteration sorts every section by
    /// key, and histograms serialise exact integer state, so equal
    /// snapshots produce identical bytes.
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "labels",
                Json::obj(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v as f64))),
                ),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Json::Num(v)))),
            ),
            (
                "histograms",
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json())),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let pairs = |key: &str| -> Option<&[(String, Json)]> {
            match json.get(key)? {
                Json::Obj(pairs) => Some(pairs),
                _ => None,
            }
        };
        let mut s = MetricsSnapshot::new();
        for (k, v) in pairs("labels")? {
            s.labels.insert(k.clone(), v.as_str()?.to_string());
        }
        for (k, v) in pairs("counters")? {
            s.counters.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in pairs("gauges")? {
            s.gauges.insert(k.clone(), v.as_f64()?);
        }
        for (k, v) in pairs("histograms")? {
            s.histograms.insert(k.clone(), Histogram::from_json(v)?);
        }
        Some(s)
    }
}

/// Record the frame-level metrics every backend shares — the DMP scheme's
/// per-packet delivery trace, as one `(gen_ns, arrival_ns, path)` frame per
/// generated packet, folded into counters and histograms:
///
/// * `frame.generated` / `frame.delivered` / `frame.lost` counters;
/// * `frame.delay_ms` — delivery delay (arrival − generation) per
///   delivered packet, the τ-independent lateness distribution (a packet is
///   late at startup delay τ iff its delay exceeds τ);
/// * `sched.pull_path<k>` — delivered packets per path, counting the pull
///   scheduler's striping decisions.
///
/// Shared by `dmp-sim` (sim time), `fleet` shards (per session), and
/// `dmp-live` (nominal time), so all three layers report comparable
/// distributions.
pub fn record_frame_metrics(
    snap: &mut MetricsSnapshot,
    frames: impl IntoIterator<Item = (u64, Option<u64>, u8)>,
) {
    let mut generated = 0u64;
    let mut delivered = 0u64;
    let hist = snap.histograms.entry("frame.delay_ms".into()).or_default();
    let mut per_path = [0u64; 16];
    for (gen_ns, arrival_ns, path) in frames {
        generated += 1;
        if let Some(arrival) = arrival_ns {
            delivered += 1;
            hist.record(arrival.saturating_sub(gen_ns) / 1_000_000);
            per_path[(path as usize).min(per_path.len() - 1)] += 1;
        }
    }
    snap.counter_add("frame.generated", generated);
    snap.counter_add("frame.delivered", delivered);
    snap.counter_add("frame.lost", generated.saturating_sub(delivered));
    for (k, &n) in per_path.iter().enumerate() {
        if n > 0 {
            snap.counter_add(&format!("sched.pull_path{k}"), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        for v in (0..2048u64).chain([4095, 4096, 1 << 20, (1 << 20) + 137, u64::MAX / 2, u64::MAX])
        {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v, "lo {lo} > v {v}");
            assert!(v < hi || hi == u64::MAX, "v {v} outside [{lo}, {hi})");
        }
        // Bucket bounds tile the value space in index order.
        let mut prev_hi = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, prev_hi, "gap before bucket {i}");
            assert!(hi > lo, "bucket {i} is empty");
            prev_hi = hi;
        }
        assert_eq!(prev_hi, u64::MAX, "the buckets cover all of u64");
    }

    #[test]
    fn the_largest_sample_renders_in_every_profile() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        let max = u64::MAX as f64;
        let d = h.distribution();
        assert_eq!((d.p50, d.p99, d.max), (max, max, max));
        assert_eq!(h.to_json().get("p50").and_then(Json::as_f64), Some(max));
    }

    #[test]
    fn histogram_moments_are_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 10, 100] {
            h.record(v);
        }
        h.record_n(7, 2);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 100);
        let d = h.distribution();
        assert!((d.mean - 130.0 / 6.0).abs() < 1e-12);
        assert_eq!(d.max, 100.0);
        assert!(d.p50 >= 3.0 && d.p50 <= 8.0, "p50 {}", d.p50);
    }

    #[test]
    fn histogram_merge_is_order_invariant() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 17 % 3000);
        }
        for v in 0..300u64 {
            b.record(v * 31 % 50_000);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab.to_json().render(),
            ba.to_json().render(),
            "merged histograms must serialise identically"
        );
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 8, 9, 1023, 65_536, 12_345_678] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).expect("round-trip");
        assert_eq!(h, back);
        let empty = Histogram::from_json(&Histogram::new().to_json()).expect("empty");
        assert!(empty.is_empty());
    }

    #[test]
    fn snapshot_merges_and_round_trips() {
        let mut a = MetricsSnapshot::new().with_label("cc", "reno");
        a.counter_add("net.retransmits", 3);
        a.gauge_max("net.flows", 4.0);
        a.histogram("net.rtt_us").record(150_000);
        let mut b = MetricsSnapshot::new().with_label("cc", "reno");
        b.counter_add("net.retransmits", 5);
        b.gauge_max("net.flows", 2.0);
        b.histogram("net.rtt_us").record(90_000);
        b.histogram("frame.delay_ms").record(12);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["net.retransmits"], 8);
        assert_eq!(ab.gauges["net.flows"], 4.0);
        assert_eq!(ab.labels["cc"], "reno");
        assert_eq!(ab.histograms["net.rtt_us"].count(), 2);

        let back = MetricsSnapshot::from_json(&ab.to_json()).expect("round-trip");
        assert_eq!(ab, back);
        assert_eq!(ab.to_json().render(), back.to_json().render());
    }

    #[test]
    fn conflicting_labels_merge_to_mixed() {
        let a = MetricsSnapshot::new().with_label("cc", "reno");
        let b = MetricsSnapshot::new()
            .with_label("cc", "cubic")
            .with_label("strategy", "round-robin");
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.labels["cc"], MIXED_LABEL);
        assert_eq!(m.labels["strategy"], "round-robin");
    }

    #[test]
    fn frame_metrics_fold_a_delivery_trace() {
        let frames = (0..10u64).map(|seq| {
            let gen_ns = seq * 20_000_000;
            let arrival_ns = (seq < 8).then_some(gen_ns + 250_000_000);
            (gen_ns, arrival_ns, (seq % 2) as u8)
        });
        let mut s = MetricsSnapshot::new();
        record_frame_metrics(&mut s, frames);
        assert_eq!(s.counters["frame.generated"], 10);
        assert_eq!(s.counters["frame.delivered"], 8);
        assert_eq!(s.counters["frame.lost"], 2);
        assert_eq!(s.counters["sched.pull_path0"], 4);
        assert_eq!(s.counters["sched.pull_path1"], 4);
        let h = &s.histograms["frame.delay_ms"];
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 250);
    }
}
