//! End-to-end experiment runner: builds a topology for a paper setting,
//! streams a video with the chosen scheduler, and reports the delivery trace
//! plus the measured per-path TCP parameters (the `p`, `R`, `T_O`, µ columns
//! of Tables 2 and 3).

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use dmp_core::metrics::{LateFractions, LatenessReport};
use dmp_core::resilience::{ResilienceReport, ResilienceSpec};
use dmp_core::scheme::Scheme;
use dmp_core::spec::{PullStrategy, SchedulerKind};
use dmp_core::stats::OnlineStats;
use dmp_core::trace::StreamTrace;
use dmp_runner::{JobSpec, Json, JsonCodec, JsonRead};
use netsim::{secs, FlowId, LinkId, Sim, SimTracer};
use obs::{Recorder, TraceFileRef};
use scenario::{PathBinding, Scenario, ScenarioDriver};

use crate::configs::Setting;
use crate::topology::{
    attach_background, build_correlated, build_independent, video_tcp, Topology,
};
use crate::video::{shared_trace, VideoClient, VideoServer};

/// Where [`ExperimentSpec::trace`] sends a run's flight-recorder trace.
pub use obs::TraceSpec;

/// Specification of one simulation run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Which paper setting to simulate.
    pub setting: Setting,
    /// Scheduler to drive the video (DMP / static / single-path).
    pub scheduler: SchedulerKind,
    /// Video duration, seconds (paper: 10 000 s; tests use less).
    pub duration_s: f64,
    /// Background warm-up before the video starts, seconds.
    pub warmup_s: f64,
    /// Video TCP socket send buffer, packets.
    pub send_buf_pkts: usize,
    /// Use RED instead of drop-tail on the bottlenecks (ablation; the paper
    /// always uses drop-tail).
    pub red: bool,
    /// Loss-recovery flavour of the video TCP flows (ablation; the paper
    /// uses Reno).
    pub video_flavor: netsim::tcp::TcpFlavor,
    /// Congestion-control algorithm of the video TCP flows (extension; the
    /// paper derives everything under Reno). Background traffic always runs
    /// Reno — the question is how the *video* flows behave among it.
    pub cc: cc::CcKind,
    /// Striping strategy layered on the scheduler (extension; the paper's
    /// implicit policy is `RoundRobin`).
    pub strategy: PullStrategy,
    /// Scripted path dynamics replayed during the run (empty = steady-state,
    /// exactly the paper's setups). Event times are relative to the start of
    /// the video, i.e. `warmup_s` is added on top.
    pub scenario: Scenario,
    /// Where to write a flight-recorder trace of the video flows, queues,
    /// scheduler decisions and scripted events (`None` by default), returned
    /// as [`RunOutput::trace_file`]. Batch jobs relabel it with the job label
    /// and are not cached. Recording never changes a result.
    pub trace: Option<TraceSpec>,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// A spec with the defaults used throughout the reproduction.
    pub fn new(setting: Setting, scheduler: SchedulerKind, duration_s: f64, seed: u64) -> Self {
        Self {
            setting,
            scheduler,
            duration_s,
            warmup_s: 20.0,
            send_buf_pkts: 32,
            red: false,
            video_flavor: netsim::tcp::TcpFlavor::Reno,
            cc: cc::CcKind::Reno,
            strategy: PullStrategy::RoundRobin,
            scenario: Scenario::default(),
            trace: None,
            seed,
        }
    }
}

impl ExperimentSpec {
    /// The spec's `Debug` — every field, the scenario included — which is
    /// what it contributes to a [`JobSpec::keyed`] cache key.
    pub fn config_repr(&self) -> String {
        format!("{self:?}")
    }
}

/// Per-path measurements extracted from a run (one row of Table 2/3).
#[derive(Debug, Clone, Copy)]
pub struct MeasuredPath {
    /// Loss probability `p` (drops / transmissions of the video flow).
    pub loss: f64,
    /// Average RTT `R`, seconds.
    pub rtt_s: f64,
    /// Timeout ratio `T_O = R_TO / R`.
    pub to_ratio: f64,
    /// Fraction of the delivered video carried by this path.
    pub share: f64,
}

/// Everything one run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The per-packet delivery trace.
    pub trace: StreamTrace,
    /// Measured per-path TCP parameters.
    pub paths: Vec<MeasuredPath>,
    /// Always-on metrics: netsim sender/link distributions plus frame-level
    /// delivery metrics, labelled with the run's `cc`/`strategy`.
    pub metrics: obs::MetricsSnapshot,
    /// The flight-recorder file this run wrote (traced runs only).
    pub trace_file: Option<TraceFileRef>,
}

/// An experiment built but not yet run: topology, background traffic,
/// scheduler/client apps, scripted scenario, and (optionally) the flight
/// recorder, all wired into a [`Sim`]. [`run`] is [`build`] + drive +
/// [`BuiltExperiment::finish`]; the phases are public so harnesses can
/// instrument the event loop itself — the zero-allocation gate in
/// `tests/zero_alloc.rs` builds first (arena growth allowed), warms up, then
/// asserts the steady-state loop never touches the heap.
pub struct BuiltExperiment {
    sim: Sim,
    end: netsim::SimTime,
    trace: Rc<RefCell<StreamTrace>>,
    flows: Vec<netsim::FlowId>,
    recording: Option<Recording>,
    /// `cc`/`strategy` label values stamped into the metrics snapshot.
    labels: [(&'static str, String); 2],
}

impl BuiltExperiment {
    /// End of the run (warmup + video) on the simulation clock.
    pub fn end(&self) -> netsim::SimTime {
        self.end
    }

    /// Events processed so far (progress/perf metric).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Drive the event loop to simulated time `t`, capped at [`end`]
    /// (self's, not the trait's). Call repeatedly to split a run into
    /// instrumented phases; the split points change nothing — the event
    /// sequence is identical to one uninterrupted run.
    ///
    /// [`end`]: Self::end
    pub fn advance_to(&mut self, t: netsim::SimTime) {
        self.sim.run_until(t.min(self.end));
    }

    /// Extract the delivery trace and per-path measurements, flushing the
    /// flight-recorder file if one was attached and naming it in the
    /// output. The caller is expected to have driven the run to
    /// [`Self::end`] (an early finish just reports the partial trace).
    pub fn finish(self) -> RunOutput {
        let BuiltExperiment {
            sim,
            trace,
            flows,
            recording,
            labels,
            ..
        } = self;
        let trace = trace.borrow().clone();
        let shares = trace.path_shares(flows.len());
        let paths = flows
            .iter()
            .zip(shares)
            .map(|(&f, share)| {
                let sender = sim.sender(f);
                MeasuredPath {
                    loss: sim.flow_loss_rate(f),
                    rtt_s: sender.rtt.mean_rtt_secs().unwrap_or(0.0),
                    to_ratio: sender.rtt.to_ratio().unwrap_or(0.0),
                    share,
                }
            })
            .collect();

        let mut metrics = sim.metrics_snapshot();
        obs::record_frame_metrics(&mut metrics, trace.frames());
        for (k, v) in labels {
            metrics.set_label(k, v);
        }

        RunOutput {
            trace,
            paths,
            metrics,
            trace_file: recording.map(|r| r.finish(sim)),
        }
    }
}

/// A flight recorder wired into a [`Sim`], as [`build`] and the fleet's
/// shards attach it to a traced run.
pub struct Recording {
    rec: Rc<RefCell<Recorder>>,
    label: String,
    path: PathBuf,
}

impl Recording {
    /// Create the trace file at `path` and make `sim` record into it: queue
    /// samples of `links`; the TCP state of each `(path index, flow)` of
    /// `flows`, announced with its path and `cc`; the pull `strategy`. It
    /// reads state but never mutates it, draws no randomness, and schedules
    /// no events.
    pub fn attach(
        sim: &mut Sim,
        label: &str,
        path: &Path,
        links: impl IntoIterator<Item = LinkId>,
        flows: impl IntoIterator<Item = (u32, FlowId)>,
        cc: cc::CcKind,
        strategy: PullStrategy,
    ) -> Self {
        let rec = Rc::new(RefCell::new(
            Recorder::to_file(path).expect("create trace file"),
        ));
        let mut tracer = SimTracer::new(Rc::clone(&rec));
        for link in links {
            tracer.trace_link(link);
        }
        for (k, conn) in flows {
            tracer.trace_flow(conn);
            tracer.emit(0, obs::EventKind::PathConn { path: k, conn });
            let algo = cc.name().to_string();
            tracer.emit(0, obs::EventKind::CcAlgo { conn, algo });
        }
        let name = strategy.name().to_string();
        tracer.emit(0, obs::EventKind::Strategy { name });
        sim.set_tracer(tracer);
        Self {
            rec,
            label: label.to_string(),
            path: path.to_path_buf(),
        }
    }

    /// Drop `sim` (its tracer holds the other recorder handle), flush the
    /// file, and name what it holds.
    pub fn finish(self, sim: Sim) -> TraceFileRef {
        drop(sim);
        let rec = Rc::try_unwrap(self.rec)
            .ok()
            .expect("sim dropped its recorder handle")
            .into_inner();
        TraceFileRef {
            label: self.label,
            path: self.path,
            events: rec.finish().expect("flush trace file").events,
        }
    }
}

/// Run one experiment.
pub fn run(spec: &ExperimentSpec) -> RunOutput {
    let mut built = build(spec);
    built.advance_to(built.end());
    built.finish()
}

/// Build one experiment (topology, apps, tracer) without running it.
pub fn build(spec: &ExperimentSpec) -> BuiltExperiment {
    let setting = &spec.setting;
    let k = spec.scheduler.paths_used(setting.configs.len());
    spec.scenario
        .validate(k)
        .expect("scenario does not fit this experiment's path count");
    let flash_per_path: Vec<usize> = (0..k).map(|p| spec.scenario.flash_flows_for(p)).collect();

    let mut sim = Sim::new(spec.seed);
    let mut video_cfg = video_tcp(setting.video.packet_bytes, spec.send_buf_pkts);
    video_cfg.flavor = spec.video_flavor;
    video_cfg.cc = spec.cc;

    let cfgs: Vec<_> = if setting.correlated {
        vec![&setting.configs[0]]
    } else {
        setting.configs[..k].iter().collect()
    };
    let topo: Topology = if setting.correlated {
        // Correlated paths share one bottleneck: provision the union of all
        // paths' flash crowds on it.
        let flash_total: usize = flash_per_path.iter().sum();
        build_correlated(&mut sim, cfgs[0], k, video_cfg, flash_total)
    } else {
        build_independent(&mut sim, &cfgs, video_cfg, spec.red, &flash_per_path)
    };
    attach_background(&mut sim, &topo, &cfgs, spec.seed);

    // Flight recorder: every flow and link exists by now, so the tracer can
    // opt the video flows and bottlenecks in before anything runs.
    let recording = spec.trace.as_ref().map(|trace| {
        Recording::attach(
            &mut sim,
            &trace.label,
            &trace.path(),
            topo.paths.iter().map(|h| h.bottleneck),
            (0..).zip(topo.paths.iter().map(|h| h.video_flow)),
            spec.cc,
            spec.strategy,
        )
    });

    if !spec.scenario.is_empty() {
        // On correlated topologies every path shares one flash-flow pool;
        // hand out disjoint slices so concurrent crowds don't collide.
        let mut flash_cursor = topo.paths[0].first_flash_flow;
        let bindings: Vec<PathBinding> = topo
            .paths
            .iter()
            .enumerate()
            .map(|(p, h)| {
                let n = flash_per_path[p] as u32;
                let first = if setting.correlated {
                    let f = flash_cursor;
                    flash_cursor += n;
                    f
                } else {
                    h.first_flash_flow
                };
                PathBinding {
                    links: vec![h.bottleneck, h.bottleneck_rev],
                    flash_flows: (first..first + n).collect(),
                }
            })
            .collect();
        sim.add_app(Box::new(ScenarioDriver::new(
            &spec.scenario,
            bindings,
            secs(spec.warmup_s),
        )));
    }

    let end = secs(spec.warmup_s + spec.duration_s);
    let trace = shared_trace(setting.video, end);
    let flows: Vec<_> = topo.paths.iter().map(|p| p.video_flow).collect();
    let n_packets = (spec.duration_s * setting.video.rate_pps) as u64;

    sim.add_app(Box::new(VideoServer::new(
        Scheme::new(spec.scheduler, spec.strategy, flows.len(), n_packets),
        flows.clone(),
        setting.video,
        trace.clone(),
        secs(spec.warmup_s),
        n_packets,
    )));
    sim.add_app(Box::new(VideoClient::new(&flows, trace.clone())));

    BuiltExperiment {
        sim,
        end,
        trace,
        flows,
        recording,
        labels: [
            ("cc", spec.cc.name().to_string()),
            ("strategy", spec.strategy.name().to_string()),
        ],
    }
}

/// Compact, serialisable result of one run: everything `BatchOutput` needs,
/// nothing it does not. This is what [`batch_jobs`] jobs return, so it is
/// also what the runner's content-addressed cache stores — a few hundred
/// bytes per run instead of the multi-megabyte packet trace.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Measured per-path TCP parameters.
    pub paths: Vec<MeasuredPath>,
    /// Late fractions at each requested τ (in request order).
    pub per_tau: Vec<LateFractions>,
    /// Always-on metrics snapshot. Serialised with the summary, so cached
    /// jobs replay the exact metrics of the original run.
    pub metrics: obs::MetricsSnapshot,
    /// The flight-recorder file the run wrote. Never serialised: a traced
    /// job is not cached, and a decoded summary names no file.
    pub trace_file: Option<TraceFileRef>,
}

impl RunSummary {
    /// Summarise a finished run at the given startup delays.
    fn of(out: RunOutput, taus_s: &[f64]) -> Self {
        Self {
            per_tau: LatenessReport::from_trace(&out.trace, taus_s).per_tau,
            paths: out.paths,
            metrics: out.metrics,
            trace_file: out.trace_file,
        }
    }

    /// Rebuild the per-run lateness report (e.g. for Fig. 4a scatters).
    pub fn report(&self) -> LatenessReport {
        LatenessReport {
            per_tau: self.per_tau.clone(),
        }
    }
}

impl JsonCodec for RunSummary {
    fn to_json(&self) -> Json {
        let paths = self
            .paths
            .iter()
            .map(|p| {
                Json::obj([
                    ("loss", Json::Num(p.loss)),
                    ("rtt_s", Json::Num(p.rtt_s)),
                    ("to_ratio", Json::Num(p.to_ratio)),
                    ("share", Json::Num(p.share)),
                ])
            })
            .collect();
        let per_tau = self
            .per_tau
            .iter()
            .map(|lf| {
                Json::obj([
                    ("tau_s", Json::Num(lf.tau_s)),
                    ("playback_order", Json::Num(lf.playback_order)),
                    ("arrival_order", Json::Num(lf.arrival_order)),
                    ("total", Json::Num(lf.total as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("paths", Json::Arr(paths)),
            ("per_tau", Json::Arr(per_tau)),
            ("metrics", self.metrics.to_json()),
        ])
    }

    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        let paths = json
            .get("paths")?
            .items()?
            .map(|p| {
                Some(MeasuredPath {
                    loss: p.get("loss")?.as_f64()?,
                    rtt_s: p.get("rtt_s")?.as_f64()?,
                    to_ratio: p.get("to_ratio")?.as_f64()?,
                    share: p.get("share")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let per_tau = json
            .get("per_tau")?
            .items()?
            .map(|lf| {
                Some(LateFractions {
                    tau_s: lf.get("tau_s")?.as_f64()?,
                    playback_order: lf.get("playback_order")?.as_f64()?,
                    arrival_order: lf.get("arrival_order")?.as_f64()?,
                    total: lf.get("total")?.as_f64()? as u64,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let metrics = obs::MetricsSnapshot::from_json(json.get("metrics")?)?;
        Some(Self {
            paths,
            per_tau,
            metrics,
            trace_file: None,
        })
    }
}

/// Run one experiment and summarise it at the given startup delays.
pub fn run_summary(spec: &ExperimentSpec, taus_s: &[f64]) -> RunSummary {
    RunSummary::of(run(spec), taus_s)
}

/// A [`RunSummary`] plus resilience metrics — what scenario experiments
/// cache per run.
#[derive(Debug, Clone)]
pub struct ScenarioSummary {
    /// The ordinary lateness/path summary.
    pub summary: RunSummary,
    /// Glitch/recovery metrics at the scenario's evaluation τ.
    pub resilience: ResilienceReport,
}

impl JsonCodec for ScenarioSummary {
    fn to_json(&self) -> Json {
        let r = &self.resilience;
        Json::obj([
            ("summary", self.summary.to_json()),
            (
                "resilience",
                Json::obj([
                    ("tau_s", Json::Num(r.tau_s)),
                    ("glitch_count", Json::Num(r.glitch_count as f64)),
                    ("total_glitch_s", Json::Num(r.total_glitch_s)),
                    ("max_glitch_s", Json::Num(r.max_glitch_s)),
                    ("worst_window_late", Json::Num(r.worst_window_late)),
                    ("worst_window_start_s", Json::Num(r.worst_window_start_s)),
                    (
                        "time_to_recover_s",
                        r.time_to_recover_s.map_or(Json::Null, Json::Num),
                    ),
                    ("recovered", Json::Bool(r.recovered)),
                ]),
            ),
        ])
    }

    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        let summary = RunSummary::from_json(json.get("summary")?)?;
        let r = json.get("resilience")?;
        let resilience = ResilienceReport {
            tau_s: r.get("tau_s")?.as_f64()?,
            glitch_count: r.get("glitch_count")?.as_f64()? as u64,
            total_glitch_s: r.get("total_glitch_s")?.as_f64()?,
            max_glitch_s: r.get("max_glitch_s")?.as_f64()?,
            worst_window_late: r.get("worst_window_late")?.as_f64()?,
            worst_window_start_s: r.get("worst_window_start_s")?.as_f64()?,
            time_to_recover_s: Option::<f64>::from_json(r.get("time_to_recover_s")?)?,
            recovered: r.get("recovered")?.as_bool()?,
        };
        Some(Self {
            summary,
            resilience,
        })
    }
}

/// Run one experiment and evaluate both lateness and resilience.
///
/// `resilience.fail_at_s` is interpreted on the scenario clock (seconds after
/// video start) and shifted by `spec.warmup_s` internally, matching how the
/// trace records generation times.
pub fn run_scenario_summary(
    spec: &ExperimentSpec,
    taus_s: &[f64],
    resilience: ResilienceSpec,
) -> ScenarioSummary {
    let out = run(spec);
    let shifted = ResilienceSpec {
        fail_at_s: resilience.fail_at_s.map(|t| t + spec.warmup_s),
        ..resilience
    };
    let records = out.trace.stable_records(resilience.tau_s);
    let res = ResilienceReport::from_records(records, spec.setting.video.rate_pps, shifted);
    ScenarioSummary {
        summary: RunSummary::of(out, taus_s),
        resilience: res,
    }
}

/// Like [`batch_jobs`], but for scenario experiments: each job returns a
/// [`ScenarioSummary`] and is keyed on `(spec, taus, resilience)`.
pub fn scenario_batch_jobs(
    spec: &ExperimentSpec,
    runs: usize,
    taus_s: &[f64],
    resilience: ResilienceSpec,
) -> Vec<JobSpec<ScenarioSummary>> {
    let label = |i| {
        format!(
            "scn:{}:{}:{:?}:run{i}",
            spec.scenario.name, spec.setting.name, spec.scheduler
        )
    };
    replica_jobs(spec, runs, label, |label, seed, s| {
        let input = (s, taus_s.to_vec(), resilience);
        JobSpec::keyed(label, input, seed, |(s, taus, res)| {
            run_scenario_summary(s, taus, *res)
        })
    })
}

/// Build one cacheable [`JobSpec`] per replication of `spec` (seeds
/// `spec.seed + i`), for submission to a [`dmp_runner::Runner`], keyed on
/// `(spec, taus)` — a run evaluated at different startup delays is a
/// different result.
pub fn batch_jobs(spec: &ExperimentSpec, runs: usize, taus_s: &[f64]) -> Vec<JobSpec<RunSummary>> {
    let label = |i| format!("sim:{}:{:?}:run{i}", spec.setting.name, spec.scheduler);
    replica_jobs(spec, runs, label, |label, seed, s| {
        JobSpec::keyed(label, (s, taus_s.to_vec()), seed, |(s, taus)| {
            run_summary(s, taus)
        })
    })
}

/// One job per replication `i` of `spec`, built by `job(label(i), seed, s)`
/// from the replica `s` with seed `spec.seed + i`; `label(i)` also names the
/// trace of a traced replica. A traced job is not cached: a hit would skip
/// the simulation and write no trace file.
fn replica_jobs<T>(
    spec: &ExperimentSpec,
    runs: usize,
    label: impl Fn(usize) -> String,
    job: impl Fn(String, u64, ExperimentSpec) -> JobSpec<T>,
) -> Vec<JobSpec<T>> {
    (0..runs)
        .map(|i| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(i as u64);
            let label = label(i);
            let traced = s.trace.is_some();
            if let Some(trace) = &mut s.trace {
                trace.label = label.clone();
            }
            let job = job(label, s.seed, s);
            if traced {
                job.uncacheable()
            } else {
                job
            }
        })
        .collect()
}

/// Aggregates over a batch of independent runs (the paper's "30 runs with
/// 95% confidence intervals").
#[derive(Debug)]
pub struct BatchOutput {
    /// Mean/CI of the loss rate per path.
    pub loss: Vec<OnlineStats>,
    /// Mean/CI of the RTT per path (seconds).
    pub rtt: Vec<OnlineStats>,
    /// Mean/CI of `T_O` per path.
    pub to_ratio: Vec<OnlineStats>,
    /// Mean/CI of the delivered share per path.
    pub share: Vec<OnlineStats>,
    /// For each requested τ: mean/CI of the playback-order late fraction.
    pub late_playback: Vec<(f64, OnlineStats)>,
    /// For each requested τ: mean/CI of the arrival-order late fraction.
    pub late_arrival: Vec<(f64, OnlineStats)>,
    /// Each run's lateness report (for scatter plots like Fig. 4a).
    pub reports: Vec<LatenessReport>,
    /// All runs' metrics merged into one snapshot (order-invariant).
    pub metrics: obs::MetricsSnapshot,
}

impl BatchOutput {
    /// Aggregate per-run summaries (in submission order) into batch
    /// statistics. This is the reduce step of a batch: [`batch_jobs`] fans
    /// out, the runner executes, `from_summaries` folds the results back.
    pub fn from_summaries(taus_s: &[f64], summaries: &[RunSummary]) -> Self {
        let k = summaries.first().map_or(0, |s| s.paths.len());
        let mut out = BatchOutput {
            loss: vec![OnlineStats::new(); k],
            rtt: vec![OnlineStats::new(); k],
            to_ratio: vec![OnlineStats::new(); k],
            share: vec![OnlineStats::new(); k],
            late_playback: taus_s.iter().map(|&t| (t, OnlineStats::new())).collect(),
            late_arrival: taus_s.iter().map(|&t| (t, OnlineStats::new())).collect(),
            reports: Vec::with_capacity(summaries.len()),
            metrics: obs::MetricsSnapshot::new(),
        };
        for summary in summaries {
            out.metrics.merge(&summary.metrics);
            for (j, p) in summary.paths.iter().enumerate() {
                out.loss[j].push(p.loss);
                out.rtt[j].push(p.rtt_s);
                out.to_ratio[j].push(p.to_ratio);
                out.share[j].push(p.share);
            }
            for (slot, lf) in out.late_playback.iter_mut().zip(&summary.per_tau) {
                slot.1.push(lf.playback_order);
            }
            for (slot, lf) in out.late_arrival.iter_mut().zip(&summary.per_tau) {
                slot.1.push(lf.arrival_order);
            }
            out.reports.push(summary.report());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::setting;

    fn quick_spec(name: &str, scheduler: SchedulerKind, seed: u64) -> ExperimentSpec {
        let mut s = ExperimentSpec::new(*setting(name).unwrap(), scheduler, 120.0, seed);
        s.warmup_s = 10.0;
        s
    }

    #[test]
    fn dmp_run_delivers_nearly_everything() {
        let out = run(&quick_spec("2-2", SchedulerKind::Dynamic, 11));
        let generated = out.trace.generated();
        assert_eq!(generated, 6_000); // 120 s × 50 pkt/s
        let delivered = out.trace.delivered();
        assert!(
            delivered as f64 > 0.97 * generated as f64,
            "delivered {delivered}/{generated}"
        );
        // Both paths carry a nontrivial share under DMP.
        for p in &out.paths {
            assert!(p.share > 0.15, "share {:?}", out.paths);
        }
    }

    #[test]
    fn measured_parameters_are_in_paper_ballpark() {
        let out = run(&quick_spec("2-2", SchedulerKind::Dynamic, 13));
        for p in &out.paths {
            // Table 2 row 2-2: p ≈ 0.037, R ≈ 150 ms, TO ≈ 1.7. Accept wide
            // bands — our background traffic is a reconstruction.
            assert!(p.loss > 0.002 && p.loss < 0.15, "loss {}", p.loss);
            assert!(p.rtt_s > 0.015 && p.rtt_s < 0.5, "rtt {}", p.rtt_s);
            assert!(p.to_ratio > 1.0 && p.to_ratio < 8.0, "TO {}", p.to_ratio);
        }
    }

    #[test]
    fn single_path_uses_one_flow() {
        let out = run(&quick_spec("2-2", SchedulerKind::SinglePath, 17));
        assert_eq!(out.paths.len(), 1);
        assert!((out.paths[0].share - 1.0).abs() < 1e-12);
        assert!(out.trace.delivered() > 0);
    }

    #[test]
    fn static_split_is_even_for_equal_weights() {
        let out = run(&quick_spec("2-2", SchedulerKind::Static, 19));
        // Static assignment is 50/50 by generation; delivered share can only
        // deviate through losses in flight at the end.
        for p in &out.paths {
            assert!((p.share - 0.5).abs() < 0.02, "share {}", p.share);
        }
    }

    #[test]
    fn correlated_setting_runs() {
        let out = run(&quick_spec("corr-2", SchedulerKind::Dynamic, 23));
        assert!(out.trace.delivered() > 0);
        assert_eq!(out.paths.len(), 2);
    }

    /// `runs` replications of `spec` as every target runs them: [`batch_jobs`]
    /// on a two-thread runner, folded by [`BatchOutput::from_summaries`].
    fn batch(spec: &ExperimentSpec, runs: usize, taus: &[f64]) -> BatchOutput {
        let runner = dmp_runner::Runner::new(2, dmp_runner::Cache::disabled()).with_progress(false);
        let cells = runner.run_all(batch_jobs(spec, runs, taus));
        let summaries: Vec<RunSummary> = cells.iter().map(|c| c.unwrap().clone()).collect();
        BatchOutput::from_summaries(taus, &summaries)
    }

    #[test]
    fn batch_jobs_match_serial_run_summaries() {
        let mut spec = quick_spec("2-2", SchedulerKind::Dynamic, 31);
        spec.duration_s = 60.0;
        let taus = [2.0, 6.0];
        let replica = |i: u64| ExperimentSpec {
            seed: spec.seed + i,
            ..spec.clone()
        };
        let summaries: Vec<RunSummary> = (0..2).map(|i| run_summary(&replica(i), &taus)).collect();
        let serial = BatchOutput::from_summaries(&taus, &summaries);
        let parallel = batch(&spec, 2, &taus);

        for j in 0..2 {
            assert_eq!(serial.loss[j].mean(), parallel.loss[j].mean());
            assert_eq!(serial.share[j].mean(), parallel.share[j].mean());
        }
        for i in 0..taus.len() {
            assert_eq!(
                serial.late_playback[i].1.mean(),
                parallel.late_playback[i].1.mean()
            );
        }
    }

    #[test]
    fn run_summary_json_roundtrip() {
        let mut spec = quick_spec("2-2", SchedulerKind::Dynamic, 37);
        spec.duration_s = 30.0;
        let summary = run_summary(&spec, &[2.0, 6.0]);
        let json = summary.to_json();
        let back = RunSummary::from_json(&dmp_runner::json::parse(&json.render()).unwrap())
            .expect("roundtrip");
        assert_eq!(summary.paths.len(), back.paths.len());
        for (a, b) in summary.paths.iter().zip(&back.paths) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.share, b.share);
        }
        for (a, b) in summary.per_tau.iter().zip(&back.per_tau) {
            assert_eq!(a.playback_order, b.playback_order);
            assert_eq!(a.total, b.total);
        }
        // The metrics snapshot rides in the cached payload: it must survive
        // the round trip bit-for-bit, or cached jobs would replay different
        // metrics than the original run.
        assert_eq!(summary.metrics, back.metrics);
        assert_eq!(summary.metrics.labels["cc"], "reno");
        assert!(summary.metrics.counters["frame.delivered"] > 0);
        assert!(summary.metrics.histograms["net.rtt_us"].count() > 0);
        assert!(summary.metrics.histograms["frame.delay_ms"].count() > 0);
    }

    #[test]
    fn noop_scenario_matches_scenario_free_run() {
        // A named-but-empty scenario changes the cache key, not the results.
        let base = quick_spec("2-2", SchedulerKind::Dynamic, 41);
        let mut noop = base.clone();
        noop.scenario = Scenario::named("noop");
        assert_ne!(base.config_repr(), noop.config_repr());
        let a = run_summary(&base, &[2.0, 6.0]);
        let b = run_summary(&noop, &[2.0, 6.0]);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn identity_path_up_is_behavior_neutral() {
        // A PathUp on a path that is up attaches the driver and injects real
        // AppTimer events; they shift `event_seq` but must not change any
        // outcome.
        let base = quick_spec("2-2", SchedulerKind::Dynamic, 43);
        let mut ident = base.clone();
        ident.scenario = Scenario::named("ident")
            .at(30.0, 0, scenario::Event::PathUp)
            .at(60.0, 1, scenario::Event::PathUp);
        let mut a = run_summary(&base, &[2.0, 6.0]);
        let mut b = run_summary(&ident, &[2.0, 6.0]);
        // The scheduler-event counter is the one place the two scripted
        // timers are allowed — and required — to show.
        let events_a = a.metrics.counters.remove("engine.events").unwrap();
        let events_b = b.metrics.counters.remove("engine.events").unwrap();
        assert_eq!(events_b - events_a, ident.scenario.events.len() as u64);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn config_repr_is_engine_free_and_fresh() {
        let repr = batch_jobs(&quick_spec("2-2", SchedulerKind::Dynamic, 1), 1, &[4.0])
            .remove(0)
            .config_repr;
        for word in ["Calendar", "Heap", "engine"] {
            assert!(!repr.contains(word), "{word} in {repr}");
        }
    }

    #[test]
    fn scripted_failure_hurts_single_path_but_dmp_recovers() {
        let fail_at = 40.0;
        let scn = Scenario::named("failover")
            .at(fail_at, 0, scenario::Event::PathDown)
            .at(fail_at + 15.0, 0, scenario::Event::PathUp);
        let res = ResilienceSpec {
            tau_s: 4.0,
            fail_at_s: Some(fail_at),
        };

        let mut single = quick_spec("2-2", SchedulerKind::SinglePath, 47);
        single.scenario = scn.clone();
        let s = run_scenario_summary(&single, &[4.0], res);
        assert!(
            s.resilience.worst_window_late > 0.9,
            "single path should collapse during the outage: {:?}",
            s.resilience
        );

        let mut dmp = quick_spec("2-2", SchedulerKind::Dynamic, 47);
        dmp.scenario = scn;
        // With per-ACK cwnd validation (RFC 2861) the video flows hold no
        // inflated window going into the outage, so draining the backlog
        // happens at fair share and needs more post-restore runway than the
        // 120 s quick scale allows.
        dmp.duration_s = 240.0;
        let d = run_scenario_summary(&dmp, &[4.0], res);
        assert!(
            d.resilience.recovered,
            "DMP should recover after the outage: {:?}",
            d.resilience
        );
        assert!(
            d.resilience.total_glitch_s < s.resilience.total_glitch_s,
            "DMP should stall less than single path: {:?} vs {:?}",
            d.resilience,
            s.resilience
        );
    }

    #[test]
    fn scenario_summary_json_roundtrip() {
        let mut spec = quick_spec("2-2", SchedulerKind::Dynamic, 53);
        spec.duration_s = 30.0;
        spec.scenario = Scenario::named("rt").at(10.0, 0, scenario::Event::PathDown);
        let res = ResilienceSpec {
            fail_at_s: Some(10.0),
            ..ResilienceSpec::default()
        };
        let summary = run_scenario_summary(&spec, &[2.0, 6.0], res);
        let json = summary.to_json();
        let back = ScenarioSummary::from_json(&dmp_runner::json::parse(&json.render()).unwrap())
            .expect("roundtrip");
        assert_eq!(
            format!("{:?}", summary.resilience),
            format!("{:?}", back.resilience)
        );
        assert_eq!(summary.summary.paths.len(), back.summary.paths.len());
    }

    #[test]
    fn batch_aggregates_runs() {
        let spec = quick_spec("2-2", SchedulerKind::Dynamic, 29);
        let batch = batch(&spec, 3, &[2.0, 6.0]);
        assert_eq!(batch.reports.len(), 3);
        assert_eq!(batch.loss[0].count(), 3);
        let (tau, stats) = &batch.late_playback[1];
        assert_eq!(*tau, 6.0);
        assert_eq!(stats.count(), 3);
        // Late fraction at τ=6 should not exceed the one at τ=2.
        assert!(batch.late_playback[1].1.mean() <= batch.late_playback[0].1.mean() + 1e-9);
    }
}
