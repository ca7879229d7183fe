//! The flight-recorder report `dmp-bench render` prints for a `.jsonl`
//! trace (see the [`obs`] crate): the trace read back into its events,
//! cwnd-evolution and per-path throughput timelines, queue-depth
//! percentiles, the [`dmp_core::resilience`] summary, and a per-glitch "why"
//! report that correlates each playback stall with the scripted path events
//! and TCP recovery activity (RTO expirations, fast-recovery transitions) in
//! the surrounding window.
//!
//! A trace is outside input, so nothing here allocates by a value read from
//! it: a trace whose `gen` events do not advance, or whose timeline would
//! outnumber its events, is refused with a [`RenderError`].

use dmp_core::resilience::{glitches, ResilienceReport, ResilienceSpec, WINDOW_S};
use dmp_core::trace::DeliveryRecord;
use dmp_core::Distribution;
use obs::{EventKind, TraceEvent};

use crate::report::{RenderError, Table};
use crate::scenarios::TAU_S;

/// Bucket width of the per-path throughput timeline, seconds.
const BUCKET_S: f64 = 5.0;

/// Most rows of the glitch table: a glitch storm (thousands of short stalls
/// on a congested static split) lists its first glitches and counts the
/// rest.
const MAX_GLITCH_ROWS: usize = 30;

/// A parsed trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events in file order (which is emission order).
    pub events: Vec<TraceEvent>,
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
    fn duration_s(&self) -> f64 {
        self.events.iter().map(|e| e.t).max().unwrap_or(0) as f64 / 1e9
    }

    /// The distinct values `pick` reads off the events, ascending.
    fn distinct<T: Ord>(&self, pick: impl Fn(&EventKind) -> Option<T>) -> Vec<T> {
        let mut values: Vec<T> = self.events.iter().filter_map(|e| pick(&e.kind)).collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// Pull-strategy name from the header events, if the trace recorded one.
    fn strategy(&self) -> Option<String> {
        self.events.iter().find_map(|e| match &e.kind {
            EventKind::Strategy { name } => Some(name.clone()),
            _ => None,
        })
    }

    /// Cwnd evolution of one connection: `(t_s, cwnd, ssthresh)` per change.
    fn cwnd_series(&self, conn: u32) -> Vec<(f64, f64, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Cwnd {
                    conn: c,
                    cwnd,
                    ssthresh,
                } if c == conn => Some((e.t as f64 / 1e9, cwnd, ssthresh)),
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
    fn path_throughput(&self, bucket_s: f64) -> Option<Vec<(u32, Vec<u64>)>> {
        assert!(bucket_s > 0.0, "bucket width must be positive");
        let last = (self.duration_s() / bucket_s).floor();
        if last >= self.events.len() as f64 {
            return None;
        }
        let buckets = last as usize + 1;
        let paths = self.distinct(|k| match k {
            EventKind::Delivered { path, .. } => Some(*path),
            _ => None,
        });
        let mut out: Vec<(u32, Vec<u64>)> = paths
            .into_iter()
            .map(|p| (p, vec![0u64; buckets]))
            .collect();
        for e in &self.events {
            if let EventKind::Delivered { path, .. } = e.kind {
                let b = ((e.t as f64 / 1e9) / bucket_s) as usize;
                if let Some((_, counts)) = out.iter_mut().find(|(p, _)| *p == path) {
                    counts[b.min(buckets - 1)] += 1;
                }
            }
        }
        Some(out)
    }

    /// Sample count and depth percentiles of the queue samples `pick`
    /// selects: the DMP server's pull queue (`srv_q`) or one link's
    /// (`link_q`).
    fn queue_stats(&self, pick: impl Fn(&EventKind) -> Option<u32>) -> (usize, Distribution) {
        let depths: Vec<f64> = self
            .events
            .iter()
            .filter_map(|e| pick(&e.kind).map(f64::from))
            .collect();
        (depths.len(), Distribution::from_values(&depths))
    }

    /// Recovery-relevant events (retransmits, RTO expirations, fast-recovery
    /// transitions, scripted path events) inside `[t0_s, t1_s]`.
    fn recovery_events_in(&self, t0_s: f64, t1_s: f64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| {
                let t = e.t as f64 / 1e9;
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
    fn path_events(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PathEvent { .. }))
            .collect()
    }

    /// The video packets' deliveries from the `gen` and `dlv` events,
    /// ordered by sequence number: one per sequence number a `gen` event
    /// names (its last generation), with the first `dlv` of it (path 0 until
    /// one arrives). Deliveries of packets with no recorded generation
    /// (trace started late) are skipped.
    fn deliveries(&self) -> Vec<DeliveryRecord> {
        let mut by_seq: Vec<DeliveryRecord> = self
            .events
            .iter()
            .rev()
            .filter_map(|e| match e.kind {
                EventKind::Generated { seq } => Some(DeliveryRecord {
                    seq,
                    gen_ns: e.t,
                    arrival_ns: None,
                    path: 0,
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
                        p.path = path as u8;
                    }
                }
            }
        }
        by_seq
    }
}

/// The video packet rate µ (pkts/s) of the trace: the sequence numbers the
/// first and last `gen` events span over the nanoseconds between them. The
/// `gen` events must rise in sequence number at non-decreasing times, the
/// order in which the glitch report reads them.
fn packet_rate(trace: &Trace) -> Result<f64, RenderError> {
    let mut gens = trace.events.iter().filter_map(|e| match e.kind {
        EventKind::Generated { seq } => Some((seq, e.t)),
        _ => None,
    });
    let first = gens.next();
    let mut last = first;
    for (seq, t) in gens {
        if last.is_some_and(|(s, t0)| seq <= s || t < t0) {
            return Err(RenderError(format!(
                "`gen` of seq {seq} at t {t} does not follow the one before"
            )));
        }
        last = Some((seq, t));
    }
    match (first, last) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Ok((s1 - s0) as f64 * 1e9 / (t1 - t0) as f64)
        }
        _ => Err(RenderError(
            "fewer than two `gen` events a time apart: no packet rate".into(),
        )),
    }
}

/// One-line rendering of a recovery-relevant event for the "why" listing.
fn describe(e: &TraceEvent) -> String {
    let t = e.t as f64 / 1e9;
    match &e.kind {
        EventKind::PathEvent { path, action } => {
            format!("{t:10.3}s  path {path} {}", action.name())
        }
        EventKind::RtoTimeout {
            conn,
            seq,
            backoff_exp,
        } => format!("{t:10.3}s  conn {conn} RTO expired (seq {seq}, backoff 2^{backoff_exp})"),
        EventKind::Retransmit { conn, seq, fast } => format!(
            "{t:10.3}s  conn {conn} {} seq {seq}",
            if *fast {
                "fast-retransmit"
            } else {
                "retransmit"
            }
        ),
        EventKind::FastRecovery { conn, entered } => format!(
            "{t:10.3}s  conn {conn} {} fast recovery",
            if *entered { "entered" } else { "left" }
        ),
        other => format!("{t:10.3}s  {other:?}"),
    }
}

/// Evenly sample up to `max` points of a series (always keeping the ends).
fn downsample<T: Copy>(series: &[T], max: usize) -> Vec<T> {
    if series.len() <= max || max < 2 {
        return series.to_vec();
    }
    (0..max)
        .map(|i| series[i * (series.len() - 1) / (max - 1)])
        .collect()
}

/// Render the full text report for one parsed trace, at the `ext_failover`
/// study's τ and window.
pub fn render_report(trace: &Trace) -> Result<String, RenderError> {
    let rate_pps = packet_rate(trace)?;
    let mut out = String::new();
    out.push_str(&format!(
        "flight-recorder report: {} events over {:.1} s\n",
        trace.events.len(),
        trace.duration_s()
    ));
    let algos = trace.distinct(|k| match k {
        EventKind::CcAlgo { conn, algo } => Some((*conn, algo.clone())),
        _ => None,
    });
    let algo_of = |conn: u32| -> &str {
        algos
            .iter()
            .find(|(c, _)| *c == conn)
            .map_or("?", |(_, a)| a.as_str())
    };
    let path_conns = trace.distinct(|k| match k {
        EventKind::PathConn { path, conn } => Some((*path, *conn)),
        _ => None,
    });
    for (path, conn) in path_conns {
        if algos.is_empty() {
            out.push_str(&format!("  path {path} <-> conn {conn}\n"));
        } else {
            out.push_str(&format!(
                "  path {path} <-> conn {conn} ({})\n",
                algo_of(conn)
            ));
        }
    }
    if let Some(strategy) = trace.strategy() {
        out.push_str(&format!("  pull strategy: {strategy}\n"));
    }

    // Cwnd evolution: per-connection summary plus a sampled timeline.
    let mut cwnd = Table::new(
        "cwnd evolution (sampled; full series in the trace)",
        &["conn", "algo", "t (s)", "cwnd", "ssthresh"],
    );
    let mut recovery = Table::new(
        "TCP recovery activity per connection",
        &[
            "conn",
            "cwnd samples",
            "retx",
            "fast retx",
            "RTO",
            "fastrec entries",
        ],
    );
    let conns = trace.distinct(|k| match k {
        EventKind::Cwnd { conn, .. } => Some(*conn),
        _ => None,
    });
    for conn in conns {
        let series = trace.cwnd_series(conn);
        for (t, w, ss) in downsample(&series, 8) {
            cwnd.row(vec![
                conn.to_string(),
                algo_of(conn).to_string(),
                format!("{t:.3}"),
                format!("{w:.2}"),
                format!("{ss:.1}"),
            ]);
        }
        let count =
            |f: &dyn Fn(&EventKind) -> bool| trace.events.iter().filter(|e| f(&e.kind)).count();
        recovery.row(vec![
            conn.to_string(),
            series.len().to_string(),
            count(
                &|k| matches!(k, EventKind::Retransmit { conn: c, fast: false, .. } if *c == conn),
            )
            .to_string(),
            count(
                &|k| matches!(k, EventKind::Retransmit { conn: c, fast: true, .. } if *c == conn),
            )
            .to_string(),
            count(&|k| matches!(k, EventKind::RtoTimeout { conn: c, .. } if *c == conn))
                .to_string(),
            count(
                &|k| matches!(k, EventKind::FastRecovery { conn: c, entered: true } if *c == conn),
            )
            .to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&cwnd.render());
    out.push('\n');
    out.push_str(&recovery.render());

    // Per-path throughput timeline.
    let mut tp = Table::new(
        format!("per-path delivered packets per {BUCKET_S:.0}-s bucket"),
        &["path", "timeline"],
    );
    // Refusing a timeline longer than the trace also keeps every timestamp
    // far below where the resilience report's `gen + τ` (ns) overflows.
    let timeline = trace.path_throughput(BUCKET_S).ok_or_else(|| {
        RenderError(format!(
            "a {:.1}-s trace of {} events: more {BUCKET_S:.0}-s buckets than events",
            trace.duration_s(),
            trace.events.len()
        ))
    })?;
    for (path, counts) in timeline {
        tp.row(vec![
            path.to_string(),
            counts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    out.push('\n');
    out.push_str(&tp.render());

    // Queue-depth percentiles.
    let mut q = Table::new(
        "queue occupancy (packets)",
        &["queue", "samples", "p50", "p90", "p99", "max"],
    );
    let mut queue_row = |name: String, (samples, d): (usize, Distribution)| {
        q.row(vec![
            name,
            samples.to_string(),
            d.p50.to_string(),
            d.p90.to_string(),
            d.p99.to_string(),
            d.max.to_string(),
        ]);
    };
    let srv = trace.queue_stats(|k| match k {
        EventKind::SrvQueue { depth } => Some(*depth),
        _ => None,
    });
    if srv.0 > 0 {
        queue_row("server pull queue".to_string(), srv);
    }
    let links = trace.distinct(|k| match k {
        EventKind::LinkQueue { link, .. } => Some(*link),
        _ => None,
    });
    for link in links {
        let stats = trace.queue_stats(|k| match k {
            EventKind::LinkQueue { link: l, depth } if *l == link => Some(*depth),
            _ => None,
        });
        queue_row(format!("link {link}"), stats);
    }
    out.push('\n');
    out.push_str(&q.render());

    // Resilience summary over the reconstructed deliveries, anchored at the
    // first scripted "down" if the trace has one. The tail is trimmed the
    // way `StreamTrace::stable_records` trims it: a packet generated within
    // τ+5 s of the end may look "never arrived" only because the run ended,
    // and would otherwise fabricate an end-of-trace glitch.
    let mut records = trace.deliveries();
    let end_ns = records.iter().map(|p| p.gen_ns).max().unwrap_or(0);
    let tail_ns = ((TAU_S + 5.0) * 1e9) as u64;
    records.retain(|p| p.gen_ns < end_ns.saturating_sub(tail_ns));
    if records.is_empty() {
        out.push_str("\nno (stable) gen/dlv events in the trace; skipping the glitch report\n");
        return Ok(out);
    }
    let path_events = trace.path_events();
    let fail_at_s = path_events.iter().find_map(|e| match e.kind {
        EventKind::PathEvent {
            action: obs::PathAction::Down,
            ..
        } => Some(e.t as f64 / 1e9),
        _ => None,
    });
    let spec = ResilienceSpec {
        tau_s: TAU_S,
        fail_at_s,
    };
    let res = ResilienceReport::from_records(&records, rate_pps, spec);
    out.push_str(&format!(
        "\nresilience @ tau={:.0}s (mu={:.0} pkt/s): {} glitch(es), {:.1} s stalled total, \
         worst {:.0}-s window {:.1}% late, recovered: {}{}\n",
        res.tau_s,
        rate_pps,
        res.glitch_count,
        res.total_glitch_s,
        WINDOW_S,
        res.worst_window_late * 100.0,
        res.recovered,
        match res.time_to_recover_s {
            Some(ttr) => format!(", time to recover {ttr:.1} s"),
            None => String::new(),
        },
    ));

    // The per-glitch "why". The first `MAX_GLITCH_ROWS` glitches get one
    // table row each with its most plausible cause — the last scripted path
    // event shortly before (or within τ of) the stall's onset; the full
    // recovery-event windows are spelled out only for the longest stalls,
    // which keeps reports on glitch-storm traces readable.
    let glitch_list = glitches(&records, TAU_S, rate_pps);
    let cause_of = |start_s: f64| {
        path_events.iter().rev().find(|e| {
            let t = e.t as f64 / 1e9;
            t <= start_s + TAU_S && t >= start_s - WINDOW_S
        })
    };
    let mut gt = Table::new(
        "glitches and their causes",
        &["glitch", "start (s)", "end (s)", "stalled (s)", "cause"],
    );
    for (i, &(start_s, end_s)) in glitch_list.iter().enumerate().take(MAX_GLITCH_ROWS) {
        let cause = match cause_of(start_s).map(|e| &e.kind) {
            Some(EventKind::PathEvent { path, action }) => {
                format!("scripted `{}` on path {path}", action.name())
            }
            _ => "congestion (no scripted path event nearby)".to_string(),
        };
        gt.row(vec![
            i.to_string(),
            format!("{start_s:.2}"),
            format!("{end_s:.2}"),
            format!("{:.2}", end_s - start_s),
            cause,
        ]);
    }
    if glitch_list.is_empty() {
        out.push_str("\nno glitches at this tau; nothing to explain\n");
        return Ok(out);
    }
    out.push('\n');
    out.push_str(&gt.render());
    if glitch_list.len() > MAX_GLITCH_ROWS {
        let unlisted = glitch_list.len() - MAX_GLITCH_ROWS;
        out.push_str(&format!("... {unlisted} more glitch(es) not listed\n"));
    }

    const MAX_DETAILED: usize = 3;
    let mut by_duration: Vec<(usize, (f64, f64))> = glitch_list.into_iter().enumerate().collect();
    by_duration.sort_by(|(ia, (sa, ea)), (ib, (sb, eb))| {
        let (da, db) = (ea - sa, eb - sb);
        db.partial_cmp(&da).unwrap().then(ia.cmp(ib))
    });
    by_duration.truncate(MAX_DETAILED);
    by_duration.sort_by_key(|(i, _)| *i);
    for (i, (start_s, end_s)) in by_duration {
        out.push_str(&format!(
            "\nglitch {i}: generation time [{start_s:.2} s, {end_s:.2} s] ({:.2} s stalled)\n",
            end_s - start_s
        ));
        match cause_of(start_s).map(|e| (e.t as f64 / 1e9, &e.kind)) {
            Some((t, EventKind::PathEvent { path, action })) => out.push_str(&format!(
                "  cause: scripted `{}` on path {path} at {t:.2} s\n",
                action.name(),
            )),
            _ => out.push_str("  cause: no scripted path event nearby (congestion-driven)\n"),
        }
        let (w0, w1) = ((start_s - WINDOW_S).max(0.0), end_s + WINDOW_S);
        let window = trace.recovery_events_in(w0, w1);
        out.push_str(&format!(
            "  {} recovery-relevant event(s) in [{w0:.2} s, {w1:.2} s]:\n",
            window.len(),
        ));
        const MAX_LISTED: usize = 12;
        for e in window.iter().take(MAX_LISTED) {
            out.push_str(&format!("  {}\n", describe(e)));
        }
        if window.len() > MAX_LISTED {
            out.push_str(&format!("    ... {} more\n", window.len() - MAX_LISTED));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::PathAction;

    fn ev(t_s: f64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t: (t_s * 1e9).round() as u64,
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
        let link = |want: u32| {
            t.queue_stats(move |k| match k {
                EventKind::LinkQueue { link, depth } if *link == want => Some(*depth),
                _ => None,
            })
        };
        let (samples, q) = link(3);
        assert_eq!(samples, 10);
        assert_eq!(q.max, 9.0);
        assert!((q.p50 - 4.5).abs() < 1e-12, "p50 {}", q.p50);
        assert!((q.p99 - 8.91).abs() < 1e-12, "p99 {}", q.p99);
        assert_eq!(link(99).0, 0);
        let links = t.distinct(|k| match k {
            EventKind::LinkQueue { link, .. } => Some(*link),
            _ => None,
        });
        assert_eq!(links, vec![3]);
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
    fn deliveries_pair_generation_with_arrival() {
        let t = sample_trace();
        let pkts = t.deliveries();
        assert_eq!(pkts.len(), 10);
        assert_eq!(
            pkts[5],
            DeliveryRecord {
                seq: 5,
                gen_ns: 5_000_000_000,
                arrival_ns: Some(5_100_000_000),
                path: 1,
            }
        );
    }

    /// A sequence number allocates one packet, not a slot per number below
    /// it: 2^62 slots overflow `Vec`'s capacity.
    #[test]
    fn a_huge_seq_is_one_packet() {
        let t = Trace::parse(r#"{"t":0,"ev":"gen","seq":4611686018427387904}"#).unwrap();
        assert_eq!(t.deliveries().len(), 1);
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

    /// 40 packets at 1 pkt/s; path 0 goes down at t=10 and packets 10..=14
    /// arrive `late_s` late over path 1, the rest arrive at once.
    fn failover_trace(late_s: f64) -> Trace {
        let mut events = vec![
            ev(0.0, EventKind::PathConn { path: 0, conn: 0 }),
            ev(0.0, EventKind::PathConn { path: 1, conn: 1 }),
        ];
        for i in 0..40u64 {
            let t = i as f64;
            events.push(ev(t, EventKind::Generated { seq: i }));
            let (lateness, path) = if (10..15).contains(&i) {
                (late_s, 1)
            } else {
                (0.01, 0)
            };
            events.push(ev(t + lateness, EventKind::Delivered { path, seq: i }));
        }
        events.push(ev(
            10.0,
            EventKind::PathEvent {
                path: 0,
                action: PathAction::Down,
            },
        ));
        events.push(ev(
            10.4,
            EventKind::RtoTimeout {
                conn: 0,
                seq: 10,
                backoff_exp: 1,
            },
        ));
        events.sort_by_key(|e| e.t);
        Trace { events }
    }

    #[test]
    fn glitches_are_maximal_late_runs() {
        let t = failover_trace(8.0);
        let g = glitches(&t.deliveries(), 4.0, 1.0);
        assert_eq!(g.len(), 1);
        assert!((g[0].0 - 10.0).abs() < 1e-9);
        assert!((g[0].1 - 15.0).abs() < 1e-9, "end {}", g[0].1);
    }

    /// 8 s late misses τ = 6 s: one glitch, at the packet rate the `gen`
    /// events show.
    #[test]
    fn report_correlates_glitch_with_scripted_down_and_rto() {
        let text = render_report(&failover_trace(8.0)).expect("renders");
        assert!(text.contains("(mu=1 pkt/s): 1 glitch(es)"), "{text}");
        assert!(
            text.contains("cause: scripted `down` on path 0 at 10.00 s"),
            "{text}"
        );
        assert!(text.contains("RTO expired"), "{text}");
        assert!(text.contains("path 0 <-> conn 0"), "{text}");
    }

    /// 400 packets at 1 pkt/s, every other one 8 s late: one glitch per
    /// late packet, far more than the table lists.
    #[test]
    fn a_glitch_storm_lists_its_first_glitches_and_counts_the_rest() {
        let mut events = vec![ev(0.0, EventKind::PathConn { path: 0, conn: 0 })];
        for i in 0..400u64 {
            let t = i as f64;
            let lateness = if i % 2 == 0 { 8.0 } else { 0.01 };
            events.push(ev(t, EventKind::Generated { seq: i }));
            events.push(ev(t + lateness, EventKind::Delivered { path: 0, seq: i }));
        }
        events.sort_by_key(|e| e.t);
        let text = render_report(&Trace { events }).expect("renders");
        let count: usize = text
            .split(" glitch(es),")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("the glitch count");
        assert!(count > 2 * MAX_GLITCH_ROWS, "{text}");
        let rows = text
            .split("== glitches and their causes ==\n")
            .nth(1)
            .expect("a glitch table")
            .lines()
            .skip(2) // header and rule
            .take_while(|l| !l.is_empty() && !l.starts_with("..."))
            .count();
        assert_eq!(rows, MAX_GLITCH_ROWS, "{text}");
        let unlisted = count - MAX_GLITCH_ROWS;
        let tail = format!("\n... {unlisted} more glitch(es) not listed\n");
        assert!(text.contains(&tail), "{text}");
    }

    #[test]
    fn clean_trace_reports_nothing_to_explain() {
        let text = render_report(&failover_trace(2.0)).expect("renders");
        assert!(text.contains("0 glitch(es)"), "{text}");
        assert!(text.contains("nothing to explain"), "{text}");
    }

    #[test]
    fn a_trace_without_a_packet_rate_is_refused() {
        let mut t = failover_trace(8.0);
        t.events
            .retain(|e| !matches!(e.kind, EventKind::Generated { seq } if seq > 0));
        assert!(render_report(&t).unwrap_err().0.contains("fewer than two"));
        // Generation running backwards is refused too.
        let mut t = failover_trace(8.0);
        for e in &mut t.events {
            if let EventKind::Generated { seq: seq @ 0 } = &mut e.kind {
                *seq = 99;
            }
        }
        assert!(render_report(&t).unwrap_err().0.contains("seq 1 "));
        // So is a timeline longer than the trace has events.
        let mut t = failover_trace(8.0);
        t.events
            .push(ev(1e5, EventKind::Strategy { name: "x".into() }));
        assert!(render_report(&t)
            .unwrap_err()
            .0
            .contains("more 5-s buckets"));
    }
}
