//! Trace post-processing: parse a JSONL trace back into events and compute
//! the paper-style diagnostics (cwnd evolution, per-path throughput
//! timelines, queue-depth percentiles, event windows around a glitch).
//!
//! The resilience-specific "why" report lives in `dmp-bench`'s
//! `trace_report` module (what `dmp-bench render` prints for a trace), which
//! combines these primitives with `dmp-core`'s glitch model. A trace is
//! outside input: what these allocate is bounded by the events it holds,
//! never by a sequence number or a timestamp read from it.

use crate::event::{EventKind, TraceEvent};
use dmp_base::Distribution;

const SECOND_NS: f64 = 1e9;

/// A parsed trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in file order (which is emission order).
    pub events: Vec<TraceEvent>,
}

/// Depth percentiles of one queue's occupancy samples, computed by
/// [`Distribution::from_values`] — the repo's single percentile
/// implementation (linear interpolation between order statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Number of samples.
    pub samples: usize,
    /// Median depth.
    pub p50: f64,
    /// 90th-percentile depth.
    pub p90: f64,
    /// 99th-percentile depth.
    pub p99: f64,
    /// Maximum sampled depth.
    pub max: f64,
}

/// One reconstructed video-packet delivery: generation and arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketTimes {
    /// Video packet sequence number.
    pub seq: u64,
    /// Generation time, the trace's nanoseconds.
    pub gen_ns: u64,
    /// Arrival time, the trace's nanoseconds (`None`: never arrived in the
    /// trace window).
    pub arrival_ns: Option<u64>,
    /// Path it arrived over (`None` until it arrives).
    pub path: Option<u32>,
}

impl Trace {
    /// Parse JSONL text. Unknown or malformed lines are skipped (forward
    /// compatibility); returns an error only if *nothing* parsed from a
    /// non-empty input, which indicates the wrong file.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut events = Vec::new();
        let mut lines = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            lines += 1;
            if let Some(ev) = TraceEvent::parse_line(line) {
                events.push(ev);
            }
        }
        if events.is_empty() && lines > 0 {
            return Err(format!("no trace events in {lines} non-empty lines"));
        }
        Ok(Trace { events })
    }

    /// Timestamp of the last event, in seconds.
    pub fn duration_s(&self) -> f64 {
        self.events.iter().map(|e| e.t).max().unwrap_or(0) as f64 / SECOND_NS
    }

    /// `(path, conn)` pairs from the header events, sorted by path.
    pub fn path_conn_map(&self) -> Vec<(u32, u32)> {
        let mut map: Vec<(u32, u32)> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PathConn { path, conn } => Some((path, conn)),
                _ => None,
            })
            .collect();
        map.sort_unstable();
        map.dedup();
        map
    }

    /// `(conn, algorithm name)` pairs from the `cc_algo` header events,
    /// sorted by connection.
    pub fn cc_algo_map(&self) -> Vec<(u32, String)> {
        let mut map: Vec<(u32, String)> = self
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::CcAlgo { conn, algo } => Some((*conn, algo.clone())),
                _ => None,
            })
            .collect();
        map.sort_unstable();
        map.dedup();
        map
    }

    /// Pull-strategy name from the header events, if the trace recorded one.
    pub fn strategy(&self) -> Option<String> {
        self.events.iter().find_map(|e| match &e.kind {
            EventKind::Strategy { name } => Some(name.clone()),
            _ => None,
        })
    }

    /// Connection ids that have cwnd events, ascending.
    pub fn conns(&self) -> Vec<u32> {
        let mut conns: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Cwnd { conn, .. } => Some(conn),
                _ => None,
            })
            .collect();
        conns.sort_unstable();
        conns.dedup();
        conns
    }

    /// Cwnd evolution of one connection: `(t_s, cwnd, ssthresh)` per change.
    pub fn cwnd_series(&self, conn: u32) -> Vec<(f64, f64, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Cwnd {
                    conn: c,
                    cwnd,
                    ssthresh,
                } if c == conn => Some((e.t as f64 / SECOND_NS, cwnd, ssthresh)),
                _ => None,
            })
            .collect()
    }

    /// Per-path delivered-packet counts in fixed time buckets:
    /// `(path, counts)` with `counts[i]` covering
    /// `[i*bucket_s, (i+1)*bucket_s)`. Paths sorted ascending; every path
    /// gets the same number of buckets (covering the full trace). `None`
    /// when that would be more buckets than the trace has events: one
    /// timestamp far past the rest must not size the timeline.
    pub fn path_throughput(&self, bucket_s: f64) -> Option<Vec<(u32, Vec<u64>)>> {
        assert!(bucket_s > 0.0, "bucket width must be positive");
        let last = (self.duration_s() / bucket_s).floor();
        if last >= self.events.len() as f64 {
            return None;
        }
        let buckets = last as usize + 1;
        let mut paths: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Delivered { path, .. } => Some(path),
                _ => None,
            })
            .collect();
        paths.sort_unstable();
        paths.dedup();
        let mut out: Vec<(u32, Vec<u64>)> = paths
            .into_iter()
            .map(|p| (p, vec![0u64; buckets]))
            .collect();
        for e in &self.events {
            if let EventKind::Delivered { path, .. } = e.kind {
                let b = ((e.t as f64 / SECOND_NS) / bucket_s) as usize;
                if let Some((_, counts)) = out.iter_mut().find(|(p, _)| *p == path) {
                    counts[b.min(buckets - 1)] += 1;
                }
            }
        }
        Some(out)
    }

    /// Occupancy percentiles of one link queue.
    pub fn link_queue_stats(&self, link: u32) -> QueueStats {
        self.queue_stats(|k| match k {
            EventKind::LinkQueue { link: l, depth } if *l == link => Some(*depth),
            _ => None,
        })
    }

    /// Link ids with queue samples, ascending.
    pub fn sampled_links(&self) -> Vec<u32> {
        let mut links: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::LinkQueue { link, .. } => Some(link),
                _ => None,
            })
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// Occupancy percentiles of the DMP server's shared pull queue.
    pub fn srv_queue_stats(&self) -> QueueStats {
        self.queue_stats(|k| match k {
            EventKind::SrvQueue { depth } => Some(*depth),
            _ => None,
        })
    }

    fn queue_stats(&self, f: impl Fn(&EventKind) -> Option<u32>) -> QueueStats {
        let depths: Vec<f64> = self
            .events
            .iter()
            .filter_map(|e| f(&e.kind).map(f64::from))
            .collect();
        let d = Distribution::from_values(&depths);
        QueueStats {
            samples: depths.len(),
            p50: d.p50,
            p90: d.p90,
            p99: d.p99,
            max: d.max,
        }
    }

    /// Recovery-relevant events (retransmits, RTO expirations, fast-recovery
    /// transitions, scripted path events) inside `[t0_s, t1_s]`.
    pub fn recovery_events_in(&self, t0_s: f64, t1_s: f64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| {
                let t = e.t as f64 / SECOND_NS;
                t >= t0_s
                    && t <= t1_s
                    && matches!(
                        e.kind,
                        EventKind::Retransmit { .. }
                            | EventKind::RtoTimeout { .. }
                            | EventKind::FastRecovery { .. }
                            | EventKind::PathEvent { .. }
                    )
            })
            .collect()
    }

    /// Scripted path events in file order.
    pub fn path_events(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PathEvent { .. }))
            .collect()
    }

    /// Reconstruct per-packet generation/arrival times from the `gen` and
    /// `dlv` events, ordered by sequence number: one per sequence number a
    /// `gen` event names (its last generation), with the first `dlv` of it.
    /// Deliveries of packets with no recorded generation (trace started
    /// late) are skipped.
    pub fn packet_times(&self) -> Vec<PacketTimes> {
        let mut by_seq: Vec<PacketTimes> = self
            .events
            .iter()
            .rev()
            .filter_map(|e| match e.kind {
                EventKind::Generated { seq } => Some(PacketTimes {
                    seq,
                    gen_ns: e.t,
                    arrival_ns: None,
                    path: None,
                }),
                _ => None,
            })
            .collect();
        // Stable, so the last `gen` of a repeated sequence number comes first.
        by_seq.sort_by_key(|p| p.seq);
        by_seq.dedup_by_key(|p| p.seq);
        for e in &self.events {
            if let EventKind::Delivered { path, seq } = e.kind {
                if let Ok(i) = by_seq.binary_search_by_key(&seq, |p| p.seq) {
                    let p = &mut by_seq[i];
                    if p.arrival_ns.is_none() {
                        p.arrival_ns = Some(e.t);
                        p.path = Some(path);
                    }
                }
            }
        }
        by_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PathAction;

    fn ev(t_s: f64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t: (t_s * SECOND_NS).round() as u64,
            kind,
        }
    }

    fn sample_trace() -> Trace {
        let mut events = vec![
            ev(0.0, EventKind::PathConn { path: 0, conn: 0 }),
            ev(0.0, EventKind::PathConn { path: 1, conn: 1 }),
        ];
        for i in 0..10u64 {
            let t = i as f64;
            events.push(ev(
                t,
                EventKind::Cwnd {
                    conn: 0,
                    cwnd: 2.0 + i as f64,
                    ssthresh: 8.0,
                },
            ));
            events.push(ev(t, EventKind::Generated { seq: i }));
            events.push(ev(
                t + 0.1,
                EventKind::Delivered {
                    path: (i % 2) as u32,
                    seq: i,
                },
            ));
            events.push(ev(
                t,
                EventKind::LinkQueue {
                    link: 3,
                    depth: i as u32,
                },
            ));
        }
        events.push(ev(
            5.0,
            EventKind::PathEvent {
                path: 1,
                action: PathAction::Down,
            },
        ));
        events.push(ev(
            5.2,
            EventKind::RtoTimeout {
                conn: 1,
                seq: 3,
                backoff_exp: 1,
            },
        ));
        Trace { events }
    }

    #[test]
    fn parse_round_trips_through_text() {
        let t = sample_trace();
        let text: String = t
            .events
            .iter()
            .map(|e| format!("{}\n", e.to_line()))
            .collect();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back.events, t.events);
    }

    #[test]
    fn cwnd_series_filters_by_conn() {
        let t = sample_trace();
        let s = t.cwnd_series(0);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], (0.0, 2.0, 8.0));
        assert!(t.cwnd_series(9).is_empty());
    }

    #[test]
    fn throughput_buckets_split_paths() {
        let t = sample_trace();
        let th = t.path_throughput(2.0).expect("10 s in 2-s buckets");
        assert_eq!(th.len(), 2);
        let total: u64 = th.iter().flat_map(|(_, c)| c.iter()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn queue_percentiles_are_order_statistics() {
        let t = sample_trace();
        let q = t.link_queue_stats(3);
        assert_eq!(q.samples, 10);
        assert_eq!(q.max, 9.0);
        assert!((q.p50 - 4.5).abs() < 1e-12, "p50 {}", q.p50);
        assert!((q.p99 - 8.91).abs() < 1e-12, "p99 {}", q.p99);
        assert_eq!(t.link_queue_stats(99).samples, 0);
        assert_eq!(t.sampled_links(), vec![3]);
    }

    #[test]
    fn recovery_window_catches_path_event_and_rto() {
        let t = sample_trace();
        let w = t.recovery_events_in(4.5, 5.5);
        assert_eq!(w.len(), 2);
        assert!(matches!(w[0].kind, EventKind::PathEvent { path: 1, .. }));
        assert!(matches!(w[1].kind, EventKind::RtoTimeout { conn: 1, .. }));
        assert!(t.recovery_events_in(8.0, 9.0).is_empty());
    }

    #[test]
    fn packet_times_pair_generation_with_arrival() {
        let t = sample_trace();
        let pkts = t.packet_times();
        assert_eq!(pkts.len(), 10);
        assert_eq!(pkts[4].seq, 4);
        assert_eq!(pkts[4].gen_ns, 4_000_000_000);
        assert_eq!(pkts[4].arrival_ns, Some(4_100_000_000));
        assert_eq!(pkts[4].path, Some(0));
    }

    /// A sequence number allocates one packet, not a slot per number below
    /// it: 2^62 slots overflow `Vec`'s capacity.
    #[test]
    fn a_huge_seq_is_one_packet() {
        let t = Trace::parse(r#"{"t":0,"ev":"gen","seq":4611686018427387904}"#).unwrap();
        assert_eq!(t.packet_times().len(), 1);
    }

    #[test]
    fn a_far_timestamp_is_refused_not_allocated() {
        let mut t = sample_trace();
        t.events
            .push(ev(1e9, EventKind::Delivered { path: 0, seq: 0 }));
        assert_eq!(t.path_throughput(5.0), None);
        assert!(sample_trace().path_throughput(5.0).is_some());
    }

    #[test]
    fn empty_input_parses_to_empty_trace_but_garbage_errors() {
        assert!(Trace::parse("").unwrap().events.is_empty());
        assert!(Trace::parse("junk\nmore junk\n").is_err());
    }
}
