//! Per-packet delivery traces.
//!
//! Both backends (simulator and real-socket implementation) record, for every
//! video packet, when it was generated and when the client application
//! received it. All of the paper's empirical metrics are computed from such
//! traces.

use crate::spec::VideoSpec;

/// Delivery record for one video packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Stream sequence number (0-based).
    pub seq: u64,
    /// Generation time at the server, ns.
    pub gen_ns: u64,
    /// Arrival time at the client application (after in-order TCP delivery
    /// on its path), ns. `None` if the packet never arrived before the
    /// experiment ended.
    pub arrival_ns: Option<u64>,
    /// Index of the path that carried the packet.
    pub path: u8,
}

/// A complete delivery trace for one streaming run.
#[derive(Debug, Clone)]
pub struct StreamTrace {
    video: VideoSpec,
    records: Vec<DeliveryRecord>,
    /// End of the observation window, ns (used to discard the tail whose
    /// packets had no chance to arrive).
    end_ns: u64,
    /// Run label quoted in panic messages. Experiments run inside a worker
    /// pool with panic isolation; "which of the 120 jobs blew up" must be
    /// readable from the panic text alone.
    label: String,
}

impl StreamTrace {
    /// Create an empty trace for a run of the given video. `end_ns` is the
    /// experiment end time.
    pub fn new(video: VideoSpec, end_ns: u64) -> Self {
        // Reserve for the whole observation window up front (generation can
        // never outpace `rate_pps × end`): the per-packet push on the
        // steady-state path must not reallocate, both for throughput and for
        // the zero-allocation gate (`dmp-sim/tests/zero_alloc.rs`). Capacity
        // is an upper bound — generation usually starts after a warmup — and
        // capacity alone never changes a recorded byte.
        // Clamped: callers may pass `end_ns = u64::MAX` for an unbounded
        // trace, and a multi-hour window should grow normally rather than
        // reserve gigabytes up front.
        const MAX_RESERVE: usize = 1 << 22;
        let cap = ((video.rate_pps * (end_ns as f64 / 1e9)).ceil() as usize).saturating_add(1);
        let cap = cap.min(MAX_RESERVE);
        Self {
            video,
            records: Vec::with_capacity(cap),
            end_ns,
            label: String::new(),
        }
    }

    /// Tag the trace with a run label (quoted in panic messages).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The run label (empty if untagged).
    pub fn label(&self) -> &str {
        &self.label
    }

    fn label_for_panics(&self) -> &str {
        if self.label.is_empty() {
            "<unlabelled>"
        } else {
            &self.label
        }
    }

    /// Record the generation of packet `seq` at `gen_ns`. Records must be
    /// appended in sequence order.
    ///
    /// # Panics
    /// Panics if `seq` is not exactly the next expected sequence number.
    pub fn on_generated(&mut self, seq: u64, gen_ns: u64) {
        assert_eq!(
            seq as usize,
            self.records.len(),
            "generation out of order: got seq {seq}, expected seq {} (run {})",
            self.records.len(),
            self.label_for_panics()
        );
        self.records.push(DeliveryRecord {
            seq,
            gen_ns,
            arrival_ns: None,
            path: 0,
        });
    }

    /// Record the arrival of packet `seq` at the client via `path`.
    /// Later duplicates are ignored (first arrival wins).
    ///
    /// # Panics
    /// Panics if `seq` was never generated.
    pub fn on_arrival(&mut self, seq: u64, arrival_ns: u64, path: u8) {
        let generated = self.records.len();
        let label = if self.label.is_empty() {
            "<unlabelled>"
        } else {
            self.label.as_str()
        };
        let Some(rec) = self.records.get_mut(seq as usize) else {
            panic!(
                "arrival for ungenerated packet: got seq {seq}, \
                 only {generated} packets generated so far (run {label})"
            );
        };
        if rec.arrival_ns.is_none() {
            rec.arrival_ns = Some(arrival_ns);
            rec.path = path;
        }
    }

    /// The video this trace belongs to.
    pub fn video(&self) -> VideoSpec {
        self.video
    }

    /// All records, in sequence order.
    pub fn records(&self) -> &[DeliveryRecord] {
        &self.records
    }

    /// End of the observation window, ns.
    pub fn end_ns(&self) -> u64 {
        self.end_ns
    }

    /// One `(gen_ns, arrival_ns, path)` frame per generated packet, in
    /// sequence order: the plain shape `obs::record_frame_metrics` folds.
    pub fn frames(&self) -> impl Iterator<Item = (u64, Option<u64>, u8)> + '_ {
        self.records
            .iter()
            .map(|r| (r.gen_ns, r.arrival_ns, r.path))
    }

    /// Number of packets generated.
    pub fn generated(&self) -> u64 {
        self.records.len() as u64
    }

    /// Number of packets that arrived within the window.
    pub fn delivered(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.arrival_ns.is_some())
            .count() as u64
    }

    /// Fraction of the delivered packets carried by each path. This is how
    /// we observe DMP's implicit bandwidth inference: the share should track
    /// the paths' achievable throughputs.
    pub fn path_shares(&self, paths: usize) -> Vec<f64> {
        let mut counts = vec![0u64; paths];
        let mut total = 0u64;
        for r in &self.records {
            if r.arrival_ns.is_some() {
                counts[r.path as usize] += 1;
                total += 1;
            }
        }
        if total == 0 {
            return vec![0.0; paths];
        }
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// Records restricted to packets generated early enough that a packet
    /// could still be `max_tau_s` late and be observed before the window end.
    /// Keeps lateness statistics unbiased by end-of-run truncation.
    pub fn stable_records(&self, max_tau_s: f64) -> &[DeliveryRecord] {
        let margin_ns = ((max_tau_s + 5.0) * 1e9) as u64;
        let cutoff = self.end_ns.saturating_sub(margin_ns);
        let n = self.records.partition_point(|r| r.gen_ns < cutoff);
        &self.records[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VideoSpec {
        VideoSpec::new(10.0) // 100 ms between packets
    }

    #[test]
    fn trace_records_generation_and_arrival() {
        let mut t = StreamTrace::new(spec(), 10_000_000_000);
        t.on_generated(0, 0);
        t.on_generated(1, 100_000_000);
        t.on_arrival(1, 250_000_000, 1);
        t.on_arrival(0, 300_000_000, 0);
        assert_eq!(t.generated(), 2);
        assert_eq!(t.delivered(), 2);
        assert_eq!(t.records()[1].path, 1);
    }

    #[test]
    fn first_arrival_wins() {
        let mut t = StreamTrace::new(spec(), 10_000_000_000);
        t.on_generated(0, 0);
        t.on_arrival(0, 200, 0);
        t.on_arrival(0, 100, 1);
        assert_eq!(t.records()[0].arrival_ns, Some(200));
        assert_eq!(t.records()[0].path, 0);
    }

    #[test]
    #[should_panic(expected = "generation out of order")]
    fn generation_must_be_sequential() {
        let mut t = StreamTrace::new(spec(), 1);
        t.on_generated(1, 0);
    }

    #[test]
    #[should_panic(expected = "got seq 3, expected seq 1 (run scn:failover:Dmp:run0)")]
    fn generation_panic_names_seqs_and_run() {
        let mut t = StreamTrace::new(spec(), 1).with_label("scn:failover:Dmp:run0");
        t.on_generated(0, 0);
        t.on_generated(3, 100);
    }

    #[test]
    #[should_panic(expected = "got seq 7, only 1 packets generated so far (run live:seed4)")]
    fn arrival_panic_names_seq_and_run() {
        let mut t = StreamTrace::new(spec(), 1).with_label("live:seed4");
        t.on_generated(0, 0);
        t.on_arrival(7, 50, 0);
    }

    #[test]
    #[should_panic(expected = "(run <unlabelled>)")]
    fn unlabelled_traces_say_so() {
        let mut t = StreamTrace::new(spec(), 1);
        t.on_arrival(0, 0, 0);
    }

    #[test]
    fn path_shares_sum_to_one() {
        let mut t = StreamTrace::new(spec(), 10_000_000_000);
        for i in 0..10 {
            t.on_generated(i, i * 100_000_000);
            t.on_arrival(i, i * 100_000_000 + 50, (i % 2) as u8);
        }
        let shares = t.path_shares(2);
        assert!((shares[0] - 0.5).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stable_records_drops_tail() {
        let mut t = StreamTrace::new(spec(), 20_000_000_000);
        for i in 0..200 {
            t.on_generated(i, i * 100_000_000);
        }
        // max τ = 4 s → margin 9 s → cutoff at 11 s → 110 packets kept.
        assert_eq!(t.stable_records(4.0).len(), 110);
    }
}
