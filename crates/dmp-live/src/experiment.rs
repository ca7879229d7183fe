//! The Section 6 experiment, rebuilt in-process: stream a live video over
//! two emulated paths with real TCP sockets, measure the fraction of late
//! packets, and compare against the analytical model with path parameters
//! estimated from the run — the paper's Fig. 7 methodology with the
//! PlanetLab hosts replaced by the path emulator.
//!
//! Parameter estimation substitution (documented in DESIGN.md): the paper
//! read `p`, `R`, `T_O` off tcpdump traces. Loss cannot be observed on an
//! emulated path (congestion appears as throughput variation instead), so we
//! estimate an **effective** loss rate by inverting the PFTK formula at the
//! path's achievable throughput and RTT. The model then sees a TCP flow with
//! the same achievable throughput as the emulated path.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use dmp_core::metrics::LatenessReport;
use dmp_core::spec::{PathSpec, VideoSpec};
use obs::{TraceFileRef, TraceSpec};

use crate::emulator::{AppliedPoint, PathEmulator, PathProfile};
use crate::stream::{listen, run_stream, LiveConfig, LiveOutput};

/// Default timeout ratio assumed when inverting PFTK (mid-range of the
/// paper's measured 1.6–3.3).
pub const ASSUMED_TO_RATIO: f64 = 2.0;

/// One live validation experiment.
#[derive(Debug, Clone)]
pub struct LiveExperiment {
    /// The video to stream.
    pub video: VideoSpec,
    /// Number of packets to generate (duration = packets / µ).
    pub packets: u64,
    /// Emulated path profiles (one TCP connection each).
    pub paths: Vec<PathProfile>,
    /// Kernel send-buffer bytes per sender socket.
    pub send_buf_bytes: u32,
    /// Seed for the emulators' rate processes.
    pub seed: u64,
    /// Time-dilation factor `F ≥ 1`: the experiment is *executed* `F`× faster
    /// than its nominal timeline (path rates and the video rate ×F, delays
    /// and resample intervals ÷F) and every recorded timestamp is scaled back
    /// by `F`, so the trace and all derived metrics stay in nominal time.
    /// Byte-denominated state (shaper queue, kernel socket buffers) is
    /// untouched, which preserves the backpressure dynamics the scheme
    /// relies on. `1.0` = real time. Keep the dilated event spacing (nominal
    /// spacing ÷ F) well above tokio's ~1 ms timer granularity.
    pub time_dilation: f64,
    /// Scripted per-path shaping schedules (from
    /// [`scenario::compile_live`]), replacing the emulators' random rate
    /// resamplers. `None` = the profiles' own random processes. Step times
    /// are nominal; dilation is applied internally.
    pub schedules: Option<Vec<scenario::PathSchedule>>,
    /// When set, record an [`obs`] flight-recorder trace to this
    /// destination: the same JSONL schema the simulator emits, timestamped
    /// in *nominal* nanoseconds (dilated runs are rescaled), returned in
    /// [`LiveRun::trace_file`].
    pub trace: Option<TraceSpec>,
}

impl LiveExperiment {
    /// Estimated achievable TCP throughput per path, packets per second
    /// (the shaper rate divided by the packet size).
    pub fn path_throughput_pps(&self, k: usize) -> f64 {
        self.paths[k].rate_bps / (f64::from(self.video.packet_bytes) * 8.0)
    }

    /// Effective [`PathSpec`] for the model: RTT from the configured delay
    /// plus half-full shaper queue, loss from PFTK inversion at the path's
    /// achievable throughput.
    pub fn effective_path_spec(&self, k: usize) -> PathSpec {
        let p = &self.paths[k];
        let queueing_s = (p.queue_bytes as f64 / 2.0) * 8.0 / p.rate_bps;
        let rtt_s = 2.0 * p.delay.as_secs_f64() + queueing_s;
        let sigma = self.path_throughput_pps(k);
        let loss = tcp_model::pftk::loss_for_throughput(sigma, rtt_s, ASSUMED_TO_RATIO);
        PathSpec {
            loss,
            rtt_s,
            to_ratio: ASSUMED_TO_RATIO,
        }
    }

    /// Aggregate achievable throughput over the video bitrate, `σ_a/µ`.
    pub fn aggregate_ratio(&self) -> f64 {
        let sigma: f64 = (0..self.paths.len())
            .map(|k| self.path_throughput_pps(k))
            .sum();
        sigma / self.video.rate_pps
    }
}

/// Result of a live experiment run.
#[derive(Debug)]
pub struct LiveRun {
    /// Raw streaming output (trace, per-path counts).
    pub output: LiveOutput,
    /// Measured lateness at the requested startup delays.
    pub report: LatenessReport,
    /// Model-facing path estimates.
    pub est_paths: Vec<PathSpec>,
    /// Per path, the shaping states its emulator applied, nominal time.
    pub timelines: Vec<Vec<AppliedPoint>>,
    /// The trace file [`LiveExperiment::trace`] asked for.
    pub trace_file: Option<TraceFileRef>,
}

/// Scale a nominal path profile to run `f`× faster than real time.
fn dilate_profile(p: &PathProfile, f: f64) -> PathProfile {
    PathProfile {
        rate_bps: p.rate_bps * f,
        variability: p.variability,
        resample_every: p.resample_every.div_f64(f),
        delay: p.delay.div_f64(f),
        queue_bytes: p.queue_bytes,
    }
}

/// Map a trace recorded on the dilated (`f`× fast) clock back to nominal
/// time: every timestamp and the observation window stretch by `f`.
fn undilate_trace(
    trace: &dmp_core::trace::StreamTrace,
    video: VideoSpec,
    f: f64,
) -> dmp_core::trace::StreamTrace {
    let mut t =
        dmp_core::trace::StreamTrace::new(video, (trace.end_ns() as f64 * f).round() as u64);
    for r in trace.records() {
        t.on_generated(r.seq, (r.gen_ns as f64 * f).round() as u64);
        if let Some(a) = r.arrival_ns {
            t.on_arrival(r.seq, (a as f64 * f).round() as u64, r.path);
        }
    }
    t
}

/// Execute the experiment and evaluate lateness at each τ in `taus_s`.
///
/// A `time_dilation` below 1 (or not finite) and a schedule count other
/// than the path count are `InvalidInput` errors.
pub async fn run_experiment(exp: &LiveExperiment, taus_s: &[f64]) -> io::Result<LiveRun> {
    let f = exp.time_dilation;
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    if !(f.is_finite() && f >= 1.0) {
        return invalid(format!("time_dilation must be finite and ≥ 1, not {f}"));
    }
    let paths = exp.paths.len();
    let schedules = exp.schedules.as_ref().map_or(paths, Vec::len);
    if schedules != paths {
        return invalid(format!("{schedules} schedules for {paths} paths"));
    }
    let loopback = vec![SocketAddr::from(([127, 0, 0, 1], 0)); paths];
    let (listeners, client_addrs) = listen(&loopback).await?;
    let mut emus = Vec::new();
    for (k, profile) in exp.paths.iter().enumerate() {
        let dilated = dilate_profile(profile, f);
        // Dilate scripted step times; factors are relative, so they carry
        // over unchanged.
        let schedule = exp.schedules.as_ref().map(|s| scenario::PathSchedule {
            steps: s[k]
                .steps
                .iter()
                .map(|st| scenario::LiveStep {
                    at: st.at.div_f64(f),
                    ..*st
                })
                .collect(),
        });
        emus.push(
            PathEmulator::spawn_scripted(dilated, client_addrs[k], exp.seed ^ k as u64, schedule)
                .await?,
        );
    }
    let addrs: Vec<_> = emus.iter().map(|e| e.addr()).collect();
    let cfg = LiveConfig {
        video: VideoSpec {
            rate_pps: exp.video.rate_pps * f,
            packet_bytes: exp.video.packet_bytes,
        },
        packets: exp.packets,
        send_buf_bytes: exp.send_buf_bytes,
        trace: exp.trace.is_some(),
    };
    let max_tau = taus_s.iter().cloned().fold(1.0, f64::max);
    let grace = Duration::from_secs_f64((max_tau.min(15.0) + 2.0) / f);
    let mut output = run_stream(cfg, &addrs, listeners, grace).await?;
    if f != 1.0 {
        output.trace = undilate_trace(&output.trace, exp.video, f);
        output.elapsed = output.elapsed.mul_f64(f);
    }
    // What each emulated path actually applied (rate/delay/down timeline),
    // rescaled to nominal time.
    let timelines = emus
        .iter()
        .map(|emu| {
            emu.timeline()
                .into_iter()
                .map(|p| AppliedPoint {
                    t: p.t.mul_f64(f),
                    rate_bps: p.rate_bps / f,
                    delay: p.delay.mul_f64(f),
                    down: p.down,
                })
                .collect()
        })
        .collect();
    let mut trace_file = None;
    if let Some(trace) = &exp.trace {
        // Rescale event timestamps to nominal time, prepend the path↔conn
        // header (live "connections" are the path socket indices), and sort:
        // tasks interleave, so collection order is not time order.
        let mut events: Vec<obs::TraceEvent> = (0..exp.paths.len())
            .map(|k| obs::TraceEvent {
                t: 0,
                kind: obs::EventKind::PathConn {
                    path: k as u32,
                    conn: k as u32,
                },
            })
            .collect();
        events.extend(output.trace_events.drain(..).map(|mut e| {
            if f != 1.0 {
                e.t = (e.t as f64 * f).round() as u64;
            }
            e
        }));
        events.sort_by_key(|e| e.t);
        let path = trace.path();
        let mut rec = obs::Recorder::to_file(obs::TraceConfig::default(), &path)?;
        for e in &events {
            rec.emit(e.t, e.kind.clone());
        }
        trace_file = Some(TraceFileRef {
            label: trace.label.clone(),
            path,
            events: rec.finish()?.events,
        });
        output.trace_events = events;
    }
    let report = LatenessReport::from_trace(&output.trace, taus_s);
    let est_paths = (0..exp.paths.len())
        .map(|k| exp.effective_path_spec(k))
        .collect();
    Ok(LiveRun {
        output,
        report,
        est_paths,
        timelines,
        trace_file,
    })
}

/// Model prediction of the late fraction for this experiment at startup
/// delay `tau_s` (used for the Fig. 7(b) scatter).
pub fn model_prediction(exp: &LiveExperiment, tau_s: f64, consumptions: u64) -> f64 {
    let paths: Vec<PathSpec> = (0..exp.paths.len())
        .map(|k| exp.effective_path_spec(k))
        .collect();
    let model = tcp_model::DmpModel::new(paths, exp.video.rate_pps, tau_s);
    model.late_fraction(consumptions, exp.seed).f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_path_exp(rate0: f64, rate1: f64, mu: f64, packets: u64) -> LiveExperiment {
        LiveExperiment {
            video: VideoSpec {
                rate_pps: mu,
                packet_bytes: 1448,
            },
            packets,
            paths: vec![
                PathProfile::steady(rate0, Duration::from_millis(20)),
                PathProfile::steady(rate1, Duration::from_millis(20)),
            ],
            send_buf_bytes: 16 * 1024,
            seed: 3,
            time_dilation: 1.0,
            schedules: None,
            trace: None,
        }
    }

    #[test]
    fn effective_spec_is_plausible() {
        let exp = two_path_exp(600_000.0, 600_000.0, 50.0, 100);
        let spec = exp.effective_path_spec(0);
        assert!(spec.loss > 1e-4 && spec.loss < 0.3, "p = {}", spec.loss);
        assert!(spec.rtt_s > 0.04 && spec.rtt_s < 1.0, "R = {}", spec.rtt_s);
        // σa/µ = 2 × 600k / (50 pkt/s × 1448 B × 8) ≈ 2.07.
        assert!((exp.aggregate_ratio() - 2.07).abs() < 0.05);
    }

    #[test]
    fn ample_live_run_has_no_late_packets_at_modest_tau() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            // 2× headroom, ~4 s of video.
            let exp = two_path_exp(1_200_000.0, 1_200_000.0, 100.0, 400);
            let run = run_experiment(&exp, &[0.5, 2.0]).await.unwrap();
            assert!(run.output.trace.delivered() >= 399);
            let f2 = run.report.per_tau[1].playback_order;
            assert_eq!(f2, 0.0, "2 s of buffer with 2× headroom must be clean");
        })
    }

    #[test]
    fn starved_live_run_is_late() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            // Aggregate ≈ 0.7× bitrate: lateness is unavoidable. The run must be
            // long enough that the lateness backlog reaches the *stable* region
            // of the trace: `stable_records` discards packets generated within
            // τ+5 s of the window end, and starvation needs a couple of seconds
            // before delivery falls ~1 s behind generation. 8 s of video leaves
            // a 5 s stable prefix whose tail is deeply late.
            let exp = two_path_exp(300_000.0, 300_000.0, 75.0, 600);
            let run = run_experiment(&exp, &[1.0]).await.unwrap();
            let f = run.report.per_tau[0].playback_order;
            assert!(f > 0.1, "f = {f}");
        })
    }

    #[test]
    fn dilated_run_matches_real_time_semantics() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            // Same ample-headroom experiment as above, executed 8× faster.
            // The nominal-time trace must still show a complete, punctual
            // delivery: everything arrives, nothing is late at τ = 2 s, and
            // the rescaled generation span matches the nominal schedule.
            let mut exp = two_path_exp(1_200_000.0, 1_200_000.0, 100.0, 400);
            exp.time_dilation = 8.0;
            let run = run_experiment(&exp, &[2.0]).await.unwrap();
            assert!(run.output.trace.delivered() >= 399);
            assert_eq!(run.report.per_tau[0].playback_order, 0.0);
            let records = run.output.trace.records();
            let span_s = (records.last().unwrap().gen_ns - records[0].gen_ns) as f64 / 1e9;
            let nominal_s = (exp.packets - 1) as f64 * exp.video.gen_interval_s();
            assert!(
                (span_s - nominal_s).abs() < 0.1 * nominal_s,
                "generation span {span_s:.2}s vs nominal {nominal_s:.2}s"
            );
        })
    }

    #[test]
    fn traced_live_run_writes_nominal_time_jsonl_and_registers_it() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let dir = std::env::temp_dir().join(format!("dmp-live-trace-{}", std::process::id()));
            let mut exp = two_path_exp(1_200_000.0, 1_200_000.0, 100.0, 200);
            exp.time_dilation = 4.0; // exercise the nominal-time rescale
            exp.trace = Some(TraceSpec::new("live:test:seed3", &dir));
            let run = run_experiment(&exp, &[2.0]).await.unwrap();

            let f = run
                .trace_file
                .as_ref()
                .expect("the run returns its trace file");
            assert_eq!(f.label, "live:test:seed3");
            assert_eq!(run.timelines.len(), 2, "one applied timeline per path");
            let text = std::fs::read_to_string(&f.path).unwrap();
            let trace = obs::Trace::parse(&text).unwrap();
            assert_eq!(f.events, text.lines().count() as u64);
            // Nominal-time check: 200 packets at a nominal 100 pkt/s span
            // ~2 s; on the 4×-dilated execution clock they'd span ~0.5 s.
            let span = trace.duration_s();
            assert!(
                span > 1.5 && span < 8.0,
                "trace span {span} s is not on the nominal clock"
            );
            // The schema mirrors the simulator: header + scheduler + client.
            assert_eq!(trace.path_conn_map(), vec![(0, 0), (1, 1)]);
            assert!(text.contains("\"ev\":\"pull\""));
            assert!(text.contains("\"ev\":\"gen\""));
            assert!(text.contains("\"ev\":\"dlv\""));
            // Events came from concurrent tasks but the file is time-sorted.
            let ts: Vec<u64> = trace.events.iter().map(|e| e.t).collect();
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "trace must be time-sorted"
            );
            assert!(run.output.trace.delivered() >= 199);
            std::fs::remove_dir_all(&dir).ok();
        })
    }

    /// `run_experiment`'s error on `exp`, which must be `InvalidInput`.
    fn invalid_input(exp: &LiveExperiment) -> String {
        let run = tokio::runtime::Runtime::new()
            .unwrap()
            .block_on(run_experiment(exp, &[1.0]));
        let err = run.expect_err("the input must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        err.to_string()
    }

    #[test]
    fn a_dilation_below_one_is_an_input_error() {
        for f in [0.5, f64::NAN, f64::INFINITY] {
            let mut exp = two_path_exp(600_000.0, 600_000.0, 50.0, 100);
            exp.time_dilation = f;
            assert!(invalid_input(&exp).contains("time_dilation"));
        }
    }

    #[test]
    fn a_schedule_per_path_is_required() {
        let mut exp = two_path_exp(600_000.0, 600_000.0, 50.0, 100);
        exp.schedules = Some(vec![scenario::PathSchedule { steps: Vec::new() }]);
        assert!(invalid_input(&exp).contains("1 schedules for 2 paths"));
    }

    #[test]
    fn model_prediction_orders_with_headroom() {
        let tight = two_path_exp(450_000.0, 450_000.0, 50.0, 100);
        let roomy = two_path_exp(700_000.0, 700_000.0, 50.0, 100);
        let f_tight = model_prediction(&tight, 6.0, 150_000);
        let f_roomy = model_prediction(&roomy, 6.0, 150_000);
        assert!(f_roomy < f_tight, "{f_roomy} !< {f_tight}");
    }
}
