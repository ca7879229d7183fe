//! The flight-recorder report `dmp-bench render` prints for a `.jsonl`
//! trace (see the [`obs`] crate): cwnd-evolution and per-path throughput
//! timelines, queue-depth percentiles, the [`dmp_core::resilience`] summary,
//! and a per-glitch "why" report that correlates each playback stall with
//! the scripted path events and TCP recovery activity (RTO expirations,
//! fast-recovery transitions) in the surrounding window.
//!
//! A trace is outside input, so nothing here allocates by a value read from
//! it: a trace whose `gen` events do not advance, or whose timeline would
//! outnumber its events, is refused with a [`RenderError`].

use dmp_core::resilience::{glitches, ResilienceReport, ResilienceSpec, WINDOW_S};
use dmp_core::trace::DeliveryRecord;
use obs::report::PacketTimes;
use obs::{EventKind, Trace, TraceEvent};

use crate::report::{RenderError, Table};
use crate::scenarios::TAU_S;

/// Bucket width of the per-path throughput timeline, seconds.
const BUCKET_S: f64 = 5.0;

/// Most rows of the glitch table: a glitch storm (thousands of short stalls
/// on a congested static split) lists its first glitches and counts the
/// rest.
const MAX_GLITCH_ROWS: usize = 30;

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

fn records(pkts: &[PacketTimes]) -> Vec<DeliveryRecord> {
    pkts.iter()
        .map(|p| DeliveryRecord {
            seq: p.seq,
            gen_ns: p.gen_ns,
            arrival_ns: p.arrival_ns,
            path: p.path.unwrap_or(0) as u8,
        })
        .collect()
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
    let algos = trace.cc_algo_map();
    let algo_of = |conn: u32| -> &str {
        algos
            .iter()
            .find(|(c, _)| *c == conn)
            .map_or("?", |(_, a)| a.as_str())
    };
    for (path, conn) in trace.path_conn_map() {
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
    for conn in trace.conns() {
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
    let srv = trace.srv_queue_stats();
    if srv.samples > 0 {
        q.row(vec![
            "server pull queue".to_string(),
            srv.samples.to_string(),
            srv.p50.to_string(),
            srv.p90.to_string(),
            srv.p99.to_string(),
            srv.max.to_string(),
        ]);
    }
    for link in trace.sampled_links() {
        let s = trace.link_queue_stats(link);
        q.row(vec![
            format!("link {link}"),
            s.samples.to_string(),
            s.p50.to_string(),
            s.p90.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&q.render());

    // Resilience summary over the reconstructed deliveries, anchored at the
    // first scripted "down" if the trace has one. The tail is trimmed the
    // way `StreamTrace::stable_records` trims it: a packet generated within
    // τ+5 s of the end may look "never arrived" only because the run ended,
    // and would otherwise fabricate an end-of-trace glitch.
    let mut pkts = trace.packet_times();
    let end_ns = pkts.iter().map(|p| p.gen_ns).max().unwrap_or(0);
    let tail_ns = ((TAU_S + 5.0) * 1e9) as u64;
    pkts.retain(|p| p.gen_ns < end_ns.saturating_sub(tail_ns));
    if pkts.is_empty() {
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
    let records = records(&pkts);
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
        let g = glitches(&records(&t.packet_times()), 4.0, 1.0);
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
