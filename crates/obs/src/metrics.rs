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
//!   snapshot (the same discipline as `EngineTelemetry::absorb`). The one
//!   moment that can outgrow its integer, `sum_sq`, saturates at
//!   `u128::MAX` (see [`Histogram`]), and a saturating sum is still
//!   commutative and associative;
//! * **deterministic serialisation** — snapshots serialise with sorted keys,
//!   so two equal snapshots render the same bytes across runner thread
//!   counts and trace on/off. Every integer is written exactly: a
//!   histogram's `sum` and `sum_sq` (`u128` in memory, past 2^53 in long
//!   RTT histograms), `min` and `max` as a JSON number below 2^53 and as a
//!   string of digits from there on, so a snapshot decoded from the cache
//!   and merged is byte-identical to the cold merge.
//!
//! The histogram is HDR-style log-linear: values `< 8` get exact unit
//! buckets; every power-of-two octave above splits into 8 sub-buckets
//! (≤ 12.5 % relative bucket width). Alongside the buckets each histogram
//! keeps exact integer moments (`count`, `sum`, `sum_sq` in `u128`, `min`,
//! `max`), from which [`dmp_base::Distribution`] reconstructs mean, p50,
//! p90, p99, max, and stddev — the repo's single percentile implementation.
//!
//! A histogram being recorded into holds all [`BUCKETS`] buckets, so a
//! sample never allocates. A histogram at rest — a clone, a decoded one —
//! holds its buckets only up to the highest occupied one: a cached
//! `RunSummary` fills 20–143 of the 496, and a warm replay holds hundreds of
//! them at once. Both are one type with one meaning: equality, merges and
//! the JSON bytes ignore how many trailing empty buckets are stored. The
//! JSON carries the at-rest array itself, from the bucket of `min` on: one
//! number per bucket, not an `[index, count]` array per occupied one.

use std::collections::BTreeMap;

use dmp_base::{Distribution, Json, JsonCodec, JsonRead};

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
///
/// `sum` cannot overflow its `u128` (it is at most `count · max`, below
/// 2^128 while `count` is a `u64`), but `sum_sq` can: two samples of
/// `u64::MAX` square past it. Every update of `sum_sq` — the `v²·n` of
/// [`record_n`](Self::record_n) included — saturates at `u128::MAX`
/// instead of wrapping (release) or panicking (dev profile), so such a
/// histogram keeps every other moment exact, a finite (understated)
/// `stddev`, merges in any order to the same value, and round-trips through
/// its JSON. A `sum_sq` of `u128::MAX` means "at least that".
pub struct Histogram {
    /// Bucket counts, at least up to `bucket_index(max)` once a sample is
    /// in; every bucket past that one is zero.
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

/// A clone is at rest: it copies the buckets up to the highest occupied one.
impl Clone for Histogram {
    fn clone(&self) -> Self {
        Self {
            counts: self.occupied().to_vec(),
            count: self.count,
            sum: self.sum,
            sum_sq: self.sum_sq,
            min: self.min,
            max: self.max,
        }
    }
}

/// Equal moments and equal buckets; how many empty buckets each side stores
/// past its highest occupied one does not matter.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        (self.count, self.sum, self.sum_sq, self.min, self.max)
            == (other.count, other.sum, other.sum_sq, other.min, other.max)
            && self.occupied() == other.occupied()
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
    /// An empty histogram to record into. Allocates all [`BUCKETS`] buckets
    /// once, so recording never allocates (the steady-state event loop stays
    /// zero-alloc). A clone or a decoded histogram is at rest instead: it
    /// holds its buckets only up to the highest occupied one, and the first
    /// sample recorded past them widens it to all [`BUCKETS`].
    pub fn new() -> Self {
        Self::with_counts(vec![0; BUCKETS])
    }

    /// An empty histogram over `counts`.
    fn with_counts(counts: Vec<u64>) -> Self {
        Self {
            counts,
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
        self.bump(bucket_index(v), 1);
        self.count += 1;
        self.sum += u128::from(v);
        self.sum_sq = self.sum_sq.saturating_add(u128::from(v) * u128::from(v));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.bump(bucket_index(v), n);
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        let sq = u128::from(v) * u128::from(v);
        self.sum_sq = self.sum_sq.saturating_add(sq.saturating_mul(u128::from(n)));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Add `n` to bucket `i`, widening an at-rest histogram that stops
    /// short of it. The widening takes and returns the bucket `Vec` by
    /// value, so the call sees nothing of `self`: in a caller's tight loop
    /// `sum` and `sum_sq` can stay in registers across it. It adds `n`
    /// itself, so the common path checks `i` once.
    #[inline]
    fn bump(&mut self, i: usize, n: u64) {
        match self.counts.get_mut(i) {
            Some(c) => *c += n,
            None => self.counts = widened(std::mem::take(&mut self.counts), i, n),
        }
    }

    /// The buckets up to the highest occupied one (none when empty).
    fn occupied(&self) -> &[u64] {
        let width = if self.count == 0 {
            0
        } else {
            bucket_index(self.max) + 1
        };
        &self.counts[..width.min(self.counts.len())]
    }

    /// The buckets from the one holding `min` to the one holding `max`,
    /// the empty ones between included (none when empty): the array the
    /// JSON carries.
    fn span(&self) -> &[u64] {
        let occupied = self.occupied();
        let first = if self.count == 0 {
            0
        } else {
            bucket_index(self.min)
        };
        &occupied[first..]
    }

    /// Fold `other` into `self`. Exact integer arithmetic: commutative and
    /// associative, so any merge order yields the identical histogram.
    /// `self` widens only as far as `other`'s highest occupied bucket.
    pub fn merge(&mut self, other: &Histogram) {
        let theirs = other.occupied();
        if let Some(extra) = theirs.len().checked_sub(self.counts.len()) {
            self.counts.reserve_exact(extra);
            self.counts.resize(theirs.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(theirs) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
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
        self.occupied()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
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
            self.nonzero_buckets().map(|(i, c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo as f64, hi as f64, c)
            }),
        )
    }
}

impl JsonCodec for Histogram {
    /// `"buckets"` is the histogram's at-rest array from the bucket of
    /// `min` on: one count per bucket up to that of `max`, the empty ones
    /// between included (`[]` when there is no sample). `sum`, `sum_sq`,
    /// `min` and `max` are exact, one form per value (see `exact_json`).
    fn to_json(&self) -> Json {
        let d = self.distribution();
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", exact_json(self.sum)),
            ("sum_sq", exact_json(self.sum_sq)),
            ("min", exact_json(self.min().into())),
            ("max", exact_json(self.max.into())),
            ("mean", Json::Num(d.mean)),
            ("p50", Json::Num(d.p50)),
            ("p90", Json::Num(d.p90)),
            ("p99", Json::Num(d.p99)),
            ("stddev", Json::Num(d.stddev)),
            ("buckets", Json::nums(self.span().iter().map(|&c| c as f64))),
        ])
    }

    /// Accepts exactly what [`to_json`](Self::to_json) writes: whole,
    /// non-negative moments in `exact_json`'s one form each, `min ≤ max`,
    /// and one whole count per bucket from that of `min` to that of `max`,
    /// the two ends non-zero, adding up to `count`. An empty histogram is
    /// all zeros with no buckets. The decoded histogram is at rest: its
    /// bucket array ends at the bucket of `max`, allocated once at that size.
    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        let count = json.get("count")?.as_u64()?;
        let exact = |key: &str| exact_from_json(json.get(key)?);
        let (sum, sum_sq) = (exact("sum")?, exact("sum_sq")?);
        let min = u64::try_from(exact("min")?).ok()?;
        let max = u64::try_from(exact("max")?).ok()?;
        let mut buckets = json.get("buckets")?.items()?;
        if count == 0 {
            return ((sum, sum_sq, min, max) == (0, 0, 0, 0) && buckets.next().is_none())
                .then(|| Histogram::with_counts(Vec::new()));
        }
        // The percentiles are clamped to `[min, max]`; no recorded
        // histogram has them the other way round.
        if min > max {
            return None;
        }
        let (first, last) = (bucket_index(min), bucket_index(max));
        let mut counts = vec![0; last + 1];
        let mut slots = counts[first..].iter_mut();
        let mut total = 0u64;
        for entry in buckets {
            // No entry past the bucket of `max`.
            let slot = slots.next()?;
            *slot = entry.as_u64()?;
            total = total.checked_add(*slot)?;
        }
        // The first entry holds `min` and the last `max`: a list that stops
        // short leaves the bucket of `max` empty.
        if counts[first] == 0 || counts[last] == 0 || total != count {
            return None;
        }
        Some(Histogram {
            counts,
            count,
            sum,
            sum_sq,
            min,
            max,
        })
    }
}

/// Integers below this are written as JSON numbers, which an `f64` holds
/// exactly; from it on, as strings of decimal digits.
const EXACT_NUM: u128 = 1 << 53;

/// A histogram's `sum`, `sum_sq`, `min` or `max` as a snapshot writes it: a
/// JSON number below 2^53, the integer's decimal digits as a JSON string
/// from there on.
fn exact_json(v: u128) -> Json {
    if v < EXACT_NUM {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

/// Reads an integer in the one form [`exact_json`] gives its value: a whole
/// number below 2^53, or a digit string without sign or leading zero that
/// fits a `u128` and is at least 2^53. Each value then has one encoding, so
/// an accepted one re-encodes to its own text.
fn exact_from_json<'a>(json: impl JsonRead<'a>) -> Option<u128> {
    if let Some(x) = json.as_f64() {
        return (x >= 0.0 && x < EXACT_NUM as f64 && x.fract() == 0.0).then_some(x as u128);
    }
    let digits = json.as_str()?;
    if digits.starts_with('0') || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().filter(|&v| v >= EXACT_NUM)
}

/// The bucket array of an at-rest histogram, widened to all [`BUCKETS`]
/// for recording, with `n` added to bucket `i`. Out of line and by value:
/// see [`Histogram::bump`].
#[cold]
#[inline(never)]
fn widened(mut counts: Vec<u64>, i: usize, n: u64) -> Vec<u64> {
    counts.reserve_exact(BUCKETS - counts.len());
    counts.resize(BUCKETS, 0);
    counts[i] += n;
    counts
}

/// One frozen, serialisable, mergeable metrics reading.
///
/// `labels` carry configuration identity (`cc`, `strategy`, `engine`), so
/// snapshots of two configurations never read alike, and a changed label
/// shows in a diff of two runs. Merging two snapshots with conflicting
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
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

impl JsonCodec for MetricsSnapshot {
    /// Deterministic rendering: `BTreeMap` iteration sorts every section by
    /// key, so equal snapshots produce identical bytes, and the decoded
    /// snapshot is the one that was encoded, histogram moments included.
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

    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        let pairs = |key: &str| json.get(key)?.pairs();
        let mut s = MetricsSnapshot::new();
        for (k, v) in pairs("labels")? {
            s.labels.insert(k.to_string(), v.as_str()?.to_string());
        }
        for (k, v) in pairs("counters")? {
            s.counters.insert(k.to_string(), v.as_u64()?);
        }
        for (k, v) in pairs("gauges")? {
            s.gauges.insert(k.to_string(), v.as_f64()?);
        }
        for (k, v) in pairs("histograms")? {
            s.histograms.insert(k.to_string(), Histogram::from_json(v)?);
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

    /// A histogram as a cache hit returns it: rendered, scanned, decoded
    /// from the tape.
    fn replayed(h: &Histogram) -> Histogram {
        let text = h.to_json().render();
        let tape = dmp_base::json::Tape::parse(&text).expect("parses");
        Histogram::from_json(tape.root()).expect("decodes")
    }

    #[test]
    fn a_histogram_whose_min_exceeds_its_max_is_refused() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(9);
        let text = h.to_json().render();
        assert!(replayed(&h) == h);
        let swapped = text.replace("\"min\":5", "\"min\":10");
        assert_ne!(swapped, text, "the min field is present");
        let doc = dmp_base::json::parse(&swapped).expect("parses");
        assert!(Histogram::from_json(&doc).is_none());
    }

    /// 100 seeded merges of three 9-sample parts for each of two ranges of
    /// a part's `sum_sq`: 8.6e15–9.5e15, across 2^53, and 1.4e16–3.2e16,
    /// past it. While the moments were written as `f64`, 19 and 14 of those
    /// merges rendered differently replayed than cold.
    #[test]
    fn replay_then_merge_equals_the_cold_merge_past_2_pow_53() {
        const TWO_53: u128 = 1 << 53;
        let mut parts_past = 0;
        for (lo, hi) in [(8.6e15, 9.5e15), (1.4e16, 3.2e16)] {
            // Every sample's square in [lo, hi] / 9, so every part's
            // `sum_sq` in [lo, hi].
            let (vlo, vhi) = ((lo / 9f64).sqrt().ceil() as u64, (hi / 9f64).sqrt() as u64);
            for seed in 0..100u64 {
                let parts: Vec<Histogram> = (0..3u64)
                    .map(|k| {
                        let mut h = Histogram::new();
                        for x in samples(3 * seed + k, 9, 32) {
                            h.record(vlo + x % (vhi - vlo + 1));
                        }
                        assert!((lo..=hi).contains(&(h.sum_sq as f64)), "{}", h.sum_sq);
                        h
                    })
                    .collect();
                let mut cold = Histogram::new();
                let mut warm = Histogram::new();
                for h in &parts {
                    cold.merge(h);
                    warm.merge(&replayed(h));
                }
                parts_past += parts.iter().filter(|h| h.sum_sq >= TWO_53).count();
                assert!(warm == cold, "seed {seed} in {lo:e}..{hi:e}");
                assert_eq!(warm.to_json().render(), cold.to_json().render());
            }
        }
        assert!(parts_past > 300, "{parts_past} of 600 parts are past 2^53");
    }

    /// `n` samples from a seeded xorshift, spread over `bits` bits.
    fn samples(seed: u64, n: usize, bits: u32) -> Vec<u64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> (64 - bits)
            })
            .collect()
    }

    #[test]
    fn recorded_cloned_decoded_and_merged_histograms_are_one_histogram() {
        for (seed, n, bits) in [
            (1, 1, 3),
            (2, 40, 8),
            (3, 500, 20),
            (4, 2_000, 16),
            (5, 3, 25),
        ] {
            let values = samples(seed, n, bits);
            let mut recorded = Histogram::new();
            values.iter().for_each(|&v| recorded.record(v));
            let cloned = recorded.clone();
            let decoded = Histogram::from_json(&recorded.to_json()).expect("decodes");
            let mut merged = Histogram::new();
            for part in values.chunks(n.div_ceil(3)) {
                let mut h = Histogram::new();
                part.iter().for_each(|&v| h.record(v));
                merged.merge(&h.clone());
            }
            let bytes = recorded.to_json().render();
            for (what, h) in [
                ("clone", &cloned),
                ("decoded", &decoded),
                ("merge", &merged),
            ] {
                assert!(*h == recorded, "seed {seed}: the {what} differs");
                assert_eq!(
                    h.to_json().render(),
                    bytes,
                    "seed {seed}: the {what}'s bytes"
                );
            }
            // At rest: a clone and a decoded histogram end at the bucket of
            // `max`, recording ones hold all of them.
            let width = bucket_index(recorded.max()) + 1;
            assert_eq!((cloned.counts.len(), decoded.counts.len()), (width, width));
            assert_eq!(
                (recorded.counts.len(), merged.counts.len()),
                (BUCKETS, BUCKETS)
            );
        }
        let empty = Histogram::new();
        assert!(empty.clone().counts.is_empty());
        assert!(Histogram::from_json(&empty.to_json()).expect("decodes") == empty);
    }

    #[test]
    fn recording_past_an_at_rest_histogram_widens_it() {
        let mut dense = Histogram::new();
        dense.record(5);
        let mut at_rest = dense.clone();
        assert_eq!(at_rest.counts.len(), bucket_index(5) + 1);
        for v in [1_000_000, 3, u64::MAX] {
            dense.record(v);
            at_rest.record(v);
        }
        dense.record_n(7_777, 4);
        let mut empty = Histogram::from_json(&Histogram::new().to_json()).expect("decodes");
        empty.record_n(7_777, 4);
        at_rest.merge(&empty);
        assert!(at_rest == dense);
        assert_eq!(at_rest.to_json().render(), dense.to_json().render());

        // A merge widens only as far as the other side's highest bucket.
        let mut small = Histogram::new();
        small.record(2);
        let mut grown = small.clone();
        let mut wide = Histogram::new();
        wide.record(100);
        grown.merge(&wide.clone());
        assert_eq!(grown.counts.len(), bucket_index(100) + 1);
    }

    /// A recorded histogram's JSON with member `key` replaced by `value`.
    fn tampered(key: &str, value: Json) -> Json {
        let mut h = Histogram::new();
        for v in [3u64, 3, 10, 100, 100, 100] {
            h.record(v);
        }
        let Json::Obj(mut pairs) = h.to_json() else {
            unreachable!("a histogram renders an object")
        };
        pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("a member")
            .1 = value;
        Json::Obj(pairs)
    }

    /// A `buckets` member with one entry per bucket from `first` to `last`:
    /// the counts `at` lists, zero elsewhere.
    fn span(first: usize, last: usize, at: &[(usize, f64)]) -> Json {
        Json::nums(
            (first..=last).map(|i| at.iter().find(|&&(j, _)| j == i).map_or(0.0, |&(_, c)| c)),
        )
    }

    fn refused(doc: &Json) -> bool {
        Histogram::from_json(doc).is_none()
    }

    #[test]
    fn the_tampering_helper_rebuilds_what_the_encoder_writes() {
        let (b3, b10, b100) = (bucket_index(3), bucket_index(10), bucket_index(100));
        let doc = tampered(
            "buckets",
            span(b3, b100, &[(b3, 2.0), (b10, 1.0), (b100, 3.0)]),
        );
        assert_eq!(doc, tampered("count", Json::Num(6.0)));
        assert!(!refused(&doc));
    }

    #[test]
    fn a_bucket_list_one_entry_short_or_long_is_refused() {
        let (b3, b10, b100) = (bucket_index(3), bucket_index(10), bucket_index(100));
        // Each list has non-zero ends adding up to `count` with the middle.
        for (first, last) in [
            (b3, b100 - 1),
            (b3 + 1, b100),
            (b3, b100 + 1),
            (b3 - 1, b100),
        ] {
            let doc = tampered(
                "buckets",
                span(first, last, &[(first, 2.0), (b10, 1.0), (last, 3.0)]),
            );
            assert!(refused(&doc), "buckets {first}..={last}");
        }
    }

    #[test]
    fn a_zero_first_or_last_bucket_entry_is_refused() {
        let (b3, b10, b100) = (bucket_index(3), bucket_index(10), bucket_index(100));
        let doc = tampered(
            "buckets",
            span(b3, b100, &[(b3 + 1, 2.0), (b10, 1.0), (b100, 3.0)]),
        );
        assert!(refused(&doc));
        let doc = tampered(
            "buckets",
            span(b3, b100, &[(b3, 2.0), (b10, 1.0), (b100 - 1, 3.0)]),
        );
        assert!(refused(&doc));
    }

    #[test]
    fn a_fractional_or_negative_bucket_entry_is_refused() {
        let (b3, b10, b100) = (bucket_index(3), bucket_index(10), bucket_index(100));
        for (a, b) in [(1.5, 1.5), (-1.0, 3.0), (1.0, 2.0 + 1e-9)] {
            let doc = tampered(
                "buckets",
                span(b3, b100, &[(b3, 2.0), (b10, a), (b10 + 1, b), (b100, 3.0)]),
            );
            assert!(refused(&doc), "entries {a} and {b}");
        }
        let doc = tampered("buckets", Json::arr([Json::Str("2".into())]));
        assert!(refused(&doc));
    }

    #[test]
    fn bucket_counts_that_miss_the_count_are_refused() {
        let (b3, b10, b100) = (bucket_index(3), bucket_index(10), bucket_index(100));
        let doc = tampered(
            "buckets",
            span(b3, b100, &[(b3, 2.0), (b10, 1.0), (b100, 4.0)]),
        );
        assert!(refused(&doc));
        let empty = Histogram::new().to_json().render();
        let doc = dmp_base::json::parse(&empty.replace("[]", "[1]")).expect("parses");
        assert!(refused(&doc), "an empty histogram with a bucket");
    }

    #[test]
    fn a_bucket_list_longer_than_every_bucket_is_refused() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let Json::Obj(mut pairs) = h.to_json() else {
            unreachable!("a histogram renders an object")
        };
        let at = pairs
            .iter()
            .position(|(k, _)| k == "buckets")
            .expect("a member");
        let entries = |n: usize| Json::nums((0..n).map(|i| f64::from(i == 0 || i == n - 1)));
        assert_eq!(
            pairs[at].1,
            entries(BUCKETS),
            "every bucket, the ends occupied"
        );
        pairs[at].1 = entries(BUCKETS + 1);
        assert!(refused(&Json::Obj(pairs)));
    }

    #[test]
    fn an_empty_histogram_with_a_nonzero_moment_is_refused() {
        let empty = Histogram::new().to_json();
        assert!(!refused(&empty));
        for key in ["sum", "sum_sq", "min", "max"] {
            let Json::Obj(mut pairs) = empty.clone() else {
                unreachable!("a histogram renders an object")
            };
            pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("a member")
                .1 = Json::Num(5.0);
            assert!(refused(&Json::Obj(pairs)), "{key} = 5");
        }
    }

    #[test]
    fn negative_or_fractional_moments_are_refused() {
        for key in ["sum", "sum_sq"] {
            for bad in [-1.0, 0.5, 1e3 + 0.25] {
                let doc = tampered(key, Json::Num(bad));
                assert!(refused(&doc), "{key} = {bad}");
            }
        }
    }

    /// A moment is a whole number below 2^53 and a canonical digit string
    /// from 2^53 on, never the other form, so each accepted moment
    /// re-encodes to its own text.
    #[test]
    fn each_moment_is_read_in_its_one_form() {
        let two_53 = 1u128 << 53;
        let string = |v: &str| Json::Str(v.to_string());
        let accepted = [
            Json::Num(0.0),
            Json::Num((two_53 - 1) as f64),
            string(&two_53.to_string()),
            string(&u128::MAX.to_string()),
        ];
        let refused_forms = [
            Json::Num(two_53 as f64),
            Json::Num(1e20),
            string("5"),
            string(&(two_53 - 1).to_string()),
            string(&format!("0{two_53}")),
            string(&format!("+{two_53}")),
            string(&format!("-{two_53}")),
            string(&format!("{two_53}.0")),
            string("9.1e15"),
            string(""),
            string(" 9007199254740993"),
            string("340282366920938463463374607431768211456"),
            string(&format!("1{}", u128::MAX)),
            Json::Null,
        ];
        for key in ["sum", "sum_sq"] {
            for form in &accepted {
                let doc = tampered(key, form.clone());
                let h = Histogram::from_json(&doc).unwrap_or_else(|| panic!("{key} = {form:?}"));
                assert_eq!(h.to_json().get(key), Some(form), "{key} re-encodes");
            }
            for form in &refused_forms {
                assert!(refused(&tampered(key, form.clone())), "{key} = {form:?}");
            }
        }
    }

    #[test]
    fn a_first_bucket_that_does_not_hold_min_is_refused() {
        for min in [2.0, 4.0, 8.0] {
            assert!(refused(&tampered("min", Json::Num(min))), "min {min}");
        }
    }

    #[test]
    fn a_last_bucket_that_does_not_hold_max_is_refused() {
        for max in [95.0, 104.0, 1e6] {
            assert!(refused(&tampered("max", Json::Num(max))), "max {max}");
        }
    }

    /// Empty, one sample, both ends of the `u64` range, wide sparse spans
    /// and dense ones: each histogram decodes alike from the tree and from
    /// the tape, and re-encodes to its own bytes.
    #[test]
    fn generated_histograms_round_trip_through_tree_and_tape() {
        let mut cases: Vec<Vec<u64>> = vec![vec![], vec![0], vec![u64::MAX], vec![0, u64::MAX]];
        cases.extend([1, 7, 8, 9, 1 << 20, u64::MAX - 1].map(|v| vec![v]));
        for seed in 0..40u64 {
            let bits = 1 + (seed * 13 % 64) as u32;
            let n = [2, 3, 5, 40, 500][seed as usize % 5];
            cases.push(samples(seed, n, bits));
        }
        for values in cases {
            let mut h = Histogram::new();
            values.iter().for_each(|&v| h.record(v));
            let text = h.to_json().render();
            let tree = dmp_base::json::parse(&text).expect("parses");
            let tape = dmp_base::json::Tape::parse(&text).expect("scans");
            for (from, back) in [
                ("tree", Histogram::from_json(&tree)),
                ("tape", Histogram::from_json(tape.root())),
            ] {
                let back = back.unwrap_or_else(|| panic!("{values:?} from the {from}"));
                assert!(back == h, "{values:?} from the {from}");
                assert_eq!(back.to_json().render(), text, "{values:?} from the {from}");
            }
        }
    }

    /// `u64::MAX` recorded twice, recorded three times at once, and two such
    /// histograms merged: each `sum_sq` passes `u128::MAX` and saturates
    /// there, with no overflow panic, a finite `stddev`, and the tree and
    /// the tape decoding it back to its own bytes.
    #[test]
    fn a_sum_of_squares_past_u128_saturates() {
        let mut twice = Histogram::new();
        twice.record(u64::MAX);
        twice.record(u64::MAX);
        let mut thrice = Histogram::new();
        thrice.record_n(u64::MAX, 3);
        let mut merged = twice.clone();
        merged.merge(&thrice);
        for (what, h, count) in [
            ("twice", &twice, 2),
            ("thrice", &thrice, 3),
            ("merged", &merged, 5),
        ] {
            assert_eq!((h.count(), h.sum_sq), (count, u128::MAX), "{what}");
            assert_eq!(h.sum, u128::from(u64::MAX) * u128::from(count), "{what}");
            assert!(h.distribution().stddev.is_finite(), "{what}");
            let text = h.to_json().render();
            let tree = dmp_base::json::parse(&text).expect("parses");
            let tape = dmp_base::json::Tape::parse(&text).expect("scans");
            for (from, back) in [
                ("tree", Histogram::from_json(&tree)),
                ("tape", Histogram::from_json(tape.root())),
            ] {
                let back = back.unwrap_or_else(|| panic!("{what} from the {from}"));
                assert!(back == *h, "{what} from the {from}");
                assert_eq!(back.to_json().render(), text, "{what} from the {from}");
            }
        }
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
