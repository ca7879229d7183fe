//! Resilience metrics: how a stream *experiences* a path-dynamics scenario.
//!
//! The average late fraction ([`crate::metrics`]) hides the structure of a
//! failure: a stream that is 2% late uniformly is watchable; a stream that is
//! perfect except for a 20-second freeze is not. These metrics expose that
//! structure:
//!
//! * **glitches** — maximal runs of consecutive late packets, i.e. playback
//!   stalls the viewer actually sees, with their count and durations;
//! * **worst window** — the highest late fraction over any sliding window of
//!   [`WINDOW_S`] seconds, the "how bad did it get" number;
//! * **time to recover** — for scripted failures at a known instant, how long
//!   until the stream is late-free again (and stays that way).

use crate::trace::DeliveryRecord;

/// Window of the worst-window late fraction and of the recovery check, s.
pub const WINDOW_S: f64 = 10.0;

/// Parameters for a resilience evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceSpec {
    /// Startup delay τ in seconds; packet `i` is late iff it misses
    /// `gen_i + τ`.
    pub tau_s: f64,
    /// When the scripted failure happened (same clock as `gen_ns`, in
    /// seconds), if the scenario has a designated failure to recover from.
    pub fail_at_s: Option<f64>,
}

impl Default for ResilienceSpec {
    fn default() -> Self {
        Self {
            tau_s: 4.0,
            fail_at_s: None,
        }
    }
}

/// Resilience metrics computed from one delivery trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The τ the report was evaluated at, seconds.
    pub tau_s: f64,
    /// Number of glitches (maximal runs of consecutive late packets).
    pub glitch_count: u64,
    /// Total stalled time across all glitches, seconds.
    pub total_glitch_s: f64,
    /// Longest single glitch, seconds.
    pub max_glitch_s: f64,
    /// Highest late fraction over any [`WINDOW_S`] sliding window.
    pub worst_window_late: f64,
    /// Start of that worst window (generation clock), seconds.
    pub worst_window_start_s: f64,
    /// Seconds from the scripted failure to the end of the last glitch that
    /// starts at or after it. `None` when `fail_at_s` was not given, no
    /// glitch follows the failure, or the stream never recovers.
    pub time_to_recover_s: Option<f64>,
    /// True when the stream is late-free for the tail of the trace (no late
    /// packet in the final [`WINDOW_S`] of generation time).
    pub recovered: bool,
}

/// Whether `r` misses its playback deadline `gen + τ` (`tau_ns`).
fn is_late(r: &DeliveryRecord, tau_ns: u64) -> bool {
    r.arrival_ns.is_none_or(|a| a > r.gen_ns + tau_ns)
}

/// The glitches of `records` at startup delay `tau_s`: maximal runs of
/// consecutive late packets in playback (sequence) order, as `(start_s,
/// end_s)` on the generation clock. A run lasts its generation span plus one
/// playback slot `1/rate_pps` (a single late packet stalls for ~1/µ).
pub fn glitches(records: &[DeliveryRecord], tau_s: f64, rate_pps: f64) -> Vec<(f64, f64)> {
    let tau_ns = (tau_s * 1e9) as u64;
    let slot_s = 1.0 / rate_pps;
    let mut out = Vec::new();
    let mut run: Option<(u64, u64)> = None;
    for r in records {
        if is_late(r, tau_ns) {
            run.get_or_insert((r.gen_ns, r.gen_ns)).1 = r.gen_ns;
        } else if let Some((s, e)) = run.take() {
            out.push((s as f64 / 1e9, e as f64 / 1e9 + slot_s));
        }
    }
    if let Some((s, e)) = run {
        out.push((s as f64 / 1e9, e as f64 / 1e9 + slot_s));
    }
    out
}

impl ResilienceReport {
    /// Evaluate `spec` over a trace's (stable) records. `rate_pps` is the
    /// video packet rate µ, used to convert packet runs into seconds.
    pub fn from_records(records: &[DeliveryRecord], rate_pps: f64, spec: ResilienceSpec) -> Self {
        let tau_ns = (spec.tau_s * 1e9) as u64;
        let slot_s = 1.0 / rate_pps;
        let late = |r: &DeliveryRecord| is_late(r, tau_ns);
        let glitches = glitches(records, spec.tau_s, rate_pps);
        let total_glitch_s: f64 = glitches.iter().map(|(s, e)| e - s).sum();
        let max_glitch_s = glitches.iter().map(|(s, e)| e - s).fold(0.0, f64::max);

        // Worst sliding window, anchored at each packet's generation time.
        let win_ns = (WINDOW_S * 1e9) as u64;
        let mut worst = 0.0_f64;
        let mut worst_start = 0.0_f64;
        let mut lo = 0usize;
        let mut late_in_win = 0u64;
        let late_flags: Vec<bool> = records.iter().map(late).collect();
        for hi in 0..records.len() {
            if late_flags[hi] {
                late_in_win += 1;
            }
            while records[hi].gen_ns - records[lo].gen_ns >= win_ns {
                if late_flags[lo] {
                    late_in_win -= 1;
                }
                lo += 1;
            }
            let frac = late_in_win as f64 / (hi - lo + 1) as f64;
            if frac > worst {
                worst = frac;
                worst_start = records[lo].gen_ns as f64 / 1e9;
            }
        }

        // Recovery: late-free over the final window of generation time.
        let recovered = match (records.last(), records.first()) {
            (Some(last), Some(_)) => {
                let tail_from = last.gen_ns.saturating_sub(win_ns);
                !records
                    .iter()
                    .rev()
                    .take_while(|r| r.gen_ns >= tail_from)
                    .any(late)
            }
            _ => true,
        };

        // Time to recover: from the scripted failure to the end of the last
        // glitch at/after it — only meaningful if the stream then stays
        // clean to the end of the trace.
        let time_to_recover_s = spec.fail_at_s.and_then(|fail_at| {
            if !recovered {
                return None;
            }
            glitches
                .iter()
                .filter(|(s, _)| *s >= fail_at - slot_s)
                .map(|(_, e)| e - fail_at)
                .fold(None, |acc: Option<f64>, t| {
                    Some(acc.map_or(t, |a| a.max(t)))
                })
        });

        Self {
            tau_s: spec.tau_s,
            glitch_count: glitches.len() as u64,
            total_glitch_s,
            max_glitch_s,
            worst_window_late: worst,
            worst_window_start_s: worst_start,
            time_to_recover_s,
            recovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::VideoSpec;
    use crate::trace::StreamTrace;

    /// 10 pkt/s trace; packets listed in `late` arrive 10 s after generation
    /// (late for any τ < 10), the rest 0.1 s after.
    fn trace_with_late(n: u64, late: &[u64]) -> StreamTrace {
        let mut t = StreamTrace::new(VideoSpec::new(10.0), u64::MAX);
        for i in 0..n {
            t.on_generated(i, i * 100_000_000);
        }
        for i in 0..n {
            let delay = if late.contains(&i) {
                10_000_000_000
            } else {
                100_000_000
            };
            t.on_arrival(i, i * 100_000_000 + delay, 0);
        }
        t
    }

    #[test]
    fn clean_trace_has_no_glitches_and_recovers() {
        let t = trace_with_late(200, &[]);
        let r = ResilienceReport::from_records(t.records(), 10.0, ResilienceSpec::default());
        assert_eq!(r.glitch_count, 0);
        assert_eq!(r.total_glitch_s, 0.0);
        assert_eq!(r.worst_window_late, 0.0);
        assert!(r.recovered);
        assert_eq!(r.time_to_recover_s, None);
    }

    #[test]
    fn consecutive_late_packets_form_one_glitch() {
        // Packets 50..80 late: one glitch, 3 s of generation span + 1 slot.
        let late: Vec<u64> = (50..80).collect();
        let t = trace_with_late(300, &late);
        let r = ResilienceReport::from_records(t.records(), 10.0, ResilienceSpec::default());
        assert_eq!(r.glitch_count, 1);
        assert!((r.max_glitch_s - 3.0).abs() < 0.11, "{}", r.max_glitch_s);
        assert!(r.recovered);
    }

    #[test]
    fn separated_late_runs_count_separately() {
        let late: Vec<u64> = (20..25).chain(60..70).collect();
        let t = trace_with_late(200, &late);
        let r = ResilienceReport::from_records(t.records(), 10.0, ResilienceSpec::default());
        assert_eq!(r.glitch_count, 2);
        assert!((r.max_glitch_s - 1.0).abs() < 0.11);
        assert!((r.total_glitch_s - 1.5).abs() < 0.25);
    }

    #[test]
    fn worst_window_finds_the_dense_patch() {
        // 100 s of traffic; 40..90 late → within a 10 s window starting at
        // 4 s in, all 100 packets are late.
        let late: Vec<u64> = (40..140).collect();
        let t = trace_with_late(1000, &late);
        let r = ResilienceReport::from_records(t.records(), 10.0, ResilienceSpec::default());
        assert!(
            (r.worst_window_late - 1.0).abs() < 1e-9,
            "{}",
            r.worst_window_late
        );
        assert!(
            (4.0..=5.1).contains(&r.worst_window_start_s),
            "{}",
            r.worst_window_start_s
        );
    }

    #[test]
    fn time_to_recover_measures_from_the_failure() {
        // Failure scripted at t = 5 s; glitch spans packets 50..130
        // (5 s .. 13 s), so recovery ≈ 8 s after the failure.
        let late: Vec<u64> = (50..130).collect();
        let t = trace_with_late(400, &late);
        let spec = ResilienceSpec {
            fail_at_s: Some(5.0),
            ..ResilienceSpec::default()
        };
        let r = ResilienceReport::from_records(t.records(), 10.0, spec);
        assert!(r.recovered);
        let ttr = r.time_to_recover_s.expect("should have recovered");
        assert!((ttr - 8.0).abs() < 0.2, "{ttr}");
    }

    #[test]
    fn unrecovered_stream_reports_none() {
        // Late through the end of the trace.
        let late: Vec<u64> = (100..200).collect();
        let t = trace_with_late(200, &late);
        let spec = ResilienceSpec {
            fail_at_s: Some(10.0),
            ..ResilienceSpec::default()
        };
        let r = ResilienceReport::from_records(t.records(), 10.0, spec);
        assert!(!r.recovered);
        assert_eq!(r.time_to_recover_s, None);
    }

    #[test]
    fn empty_records_are_clean() {
        let r = ResilienceReport::from_records(&[], 10.0, ResilienceSpec::default());
        assert_eq!(r.glitch_count, 0);
        assert!(r.recovered);
    }
}
