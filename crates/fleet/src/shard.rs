//! One shard: a self-contained netsim `Sim` hosting a slice of the fleet.
//!
//! Every shard builds its own topology — `bottlenecks_per_shard` shared
//! router pairs, one server node per session, one client node per path (the
//! multihoming idiom `dmp-sim` uses for independent paths) — attaches one
//! [`VideoServer`]/[`VideoClient`] pair per session according to the shard's
//! churn plan, runs to the end of the window, and reads per-session
//! [`SessionOutcome`]s off the delivery traces. Congestion is *endogenous*:
//! sessions contend with each other on the shared bottlenecks (no synthetic
//! background flows), so a flash-crowd arrival spike directly translates
//! into loss, lateness, and headroom erosion for the sessions caught in it.
//!
//! A shard is a **pure function of `(spec, shard index)`**: its RNG streams
//! derive from the spec seed and the shard index alone, and nothing in here
//! reads clocks, thread IDs, or global state — which is what lets the run
//! layer fan shards across any number of worker threads and still merge
//! byte-identical results.

use std::path::Path;

use dmp_core::metrics::late_fraction_playback;
use dmp_core::resilience::{ResilienceReport, ResilienceSpec};
use dmp_core::scheme::Scheme;
use dmp_core::spec::{PathSpec, SchedulerKind};
use dmp_core::SessionOutcome;
use dmp_runner::{Json, JsonCodec};
use dmp_sim::experiment::Recording;
use dmp_sim::topology::video_tcp;
use dmp_sim::video::{shared_trace, SharedTrace, VideoClient, VideoServer};
use netsim::link::LinkSpec;
use netsim::tcp::SinkConfig;
use netsim::{secs, App, EngineTelemetry, FlowId, Sim, SimApi, SimTime};
use obs::EventKind;

use crate::churn::{shard_plans, SessionPlan};
use crate::spec::FleetSpec;

/// Domain tag for the shard's simulation seed (TCP tie-breaks, random loss
/// draws), distinct from the churn sampler's stream.
const SIM_TAG: u64 = 0x51ad_a51d_5eed_f00d;

/// Access-link one-way delays, ms: sessions cycle through these so paths in
/// one shard have diverse RTTs (identical-RTT flows synchronise on a
/// drop-tail queue and the contention model collapses).
const ACCESS_TIERS_MS: [f64; 5] = [2.0, 5.0, 10.0, 20.0, 35.0];

/// Extra simulated time after the arrival window closes, seconds, so
/// sessions that arrived late can drain their queues before measurement
/// stops. Scaled with τ because the stable-record margin is τ-derived.
fn drain_s(spec: &FleetSpec) -> f64 {
    spec.tau_s + 6.0
}

/// One fleet shard's results: everything the run layer needs to merge the
/// fleet, split into the deterministic part (`outcomes`, `events_processed`
/// — byte-identical across thread counts and shard chunking) and the
/// engine's bookkeeping (`telemetry` — its HWM fields describe the event
/// queue's storage, not the simulated system, and only ever reach volatile
/// meta sidecars), plus the trace file of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutput {
    /// Which shard this is.
    pub shard: u32,
    /// Per-session outcomes, in global session order.
    pub outcomes: Vec<SessionOutcome>,
    /// Events the shard's simulation dispatched.
    pub events_processed: u64,
    /// The shard simulation's engine counters (volatile meta only).
    pub telemetry: EngineTelemetry,
    /// Always-on metrics: the shard sim's sender/link distributions, frame
    /// metrics over every session's delivery trace, and per-session
    /// lateness/headroom/glitch histograms. No HWMs, so it merges and
    /// serialises byte-identically across thread counts and chunking.
    pub metrics: obs::MetricsSnapshot,
    /// The flight-recorder file this shard wrote. Never serialised: a traced
    /// job is not cached, and a decoded output names no file.
    pub trace_file: Option<obs::TraceFileRef>,
}

/// Marks a session's lifecycle in the flight-recorder stream. Attached to
/// every session whether or not the run is traced: the marker schedules
/// timers, and a traced run must process exactly the event sequence an
/// untraced one does.
struct SessionMarker {
    session: u32,
    start_at: SimTime,
    stop_at: SimTime,
}

impl App for SessionMarker {
    fn start(&mut self, api: &mut SimApi<'_>) {
        api.schedule_in(self.start_at, 0);
    }

    fn on_timer(&mut self, api: &mut SimApi<'_>, tag: u64) {
        if api.trace_enabled() {
            api.trace_emit(EventKind::Session {
                session: self.session,
                up: tag == 0,
            });
        }
        if tag == 0 {
            api.schedule_in(self.stop_at - self.start_at, 1);
        }
    }
}

/// Per-session handles needed after the simulation finishes.
struct SessionHandles {
    session: u32,
    plan: SessionPlan,
    budget: u64,
    flows: Vec<FlowId>,
    trace: SharedTrace,
}

/// Run shard `shard` of `spec`. When `trace` is given, a flight recorder
/// writes the shard's JSONL trace to that path, returned under the given
/// label in [`ShardOutput::trace_file`].
pub fn run_shard(spec: &FleetSpec, shard: u32, trace: Option<(&Path, &str)>) -> ShardOutput {
    let n = spec.sessions_in_shard(shard) as usize;
    let k = spec.paths_per_session as usize;
    let b = spec.bottlenecks_per_shard as usize;
    let plans = shard_plans(spec, shard);

    // Exact entity counts: 2 router nodes and one duplex per bottleneck,
    // plus per session one server node, K client nodes, and 2K access
    // duplexes (server side + client side).
    let sim_seed = spec.seed ^ SIM_TAG ^ u64::from(shard).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut sim = Sim::with_capacity(sim_seed, 2 * b + n * (1 + k), 2 * (b + n * 2 * k), n * k);

    // Shared bottlenecks: b router pairs r1[i] --bottleneck--> r2[i].
    let bneck_spec = LinkSpec::from_table(
        spec.bottleneck_mbps,
        spec.bottleneck_delay_ms,
        spec.buffer_pkts,
    );
    let mut r1 = Vec::with_capacity(b);
    let mut r2 = Vec::with_capacity(b);
    let mut bnecks = Vec::with_capacity(b);
    for i in 0..b {
        let a = sim.add_node(format!("r{i}1"));
        let z = sim.add_node(format!("r{i}2"));
        let (fwd, rev) = sim.add_duplex(a, z, bneck_spec);
        r1.push(a);
        r2.push(z);
        bnecks.push((fwd, rev));
    }

    let access = |delay_ms: f64| LinkSpec::from_table(100.0, delay_ms, 4_000);
    let mut tcp = video_tcp(spec.video.packet_bytes, spec.send_buf_pkts);
    tcp.cc = spec.cc;
    let first = spec.first_session(shard);
    let mut sessions = Vec::with_capacity(n);
    for (local, plan) in plans.iter().enumerate() {
        let g = first + local as u32;
        let server = sim.add_node(format!("srv{g}"));
        let mut flows = Vec::with_capacity(k);
        for path in 0..k {
            // Paths of one session land on distinct bottlenecks (validate()
            // guarantees b ≥ k); the global session index rotates the
            // assignment so bottleneck populations are balanced and
            // heterogeneous across sessions.
            let bi = (g as usize + path) % b;
            let tier = ACCESS_TIERS_MS[(g as usize * k + path) % ACCESS_TIERS_MS.len()];
            let client = sim.add_node(format!("cl{g}p{path}"));
            let (sv_r1, r1_sv) = sim.add_duplex(server, r1[bi], access(tier));
            let (r2_cl, cl_r2) = sim.add_duplex(r2[bi], client, access(tier));
            // Destination routing: data sv→r1→r2→cl, ACKs cl→r2→r1→sv.
            sim.add_route(server, client, sv_r1);
            sim.add_route(r1[bi], client, bnecks[bi].0);
            sim.add_route(r1[bi], server, r1_sv);
            sim.add_route(r2[bi], client, r2_cl);
            sim.add_route(r2[bi], server, bnecks[bi].1);
            sim.set_default_route(client, cl_r2);
            flows.push(sim.add_flow(server, client, tcp, SinkConfig::default()));
        }
        sessions.push(SessionHandles {
            session: g,
            plan: *plan,
            budget: ((plan.hold_s * spec.video.rate_pps).ceil() as u64).max(1),
            flows,
            trace: shared_trace(
                spec.video,
                secs(spec.warmup_s + spec.duration_s + drain_s(spec)),
            ),
        });
    }

    let recording = trace.map(|(path, label)| {
        Recording::attach(
            &mut sim,
            label,
            path,
            bnecks.iter().map(|&(fwd, _)| fwd),
            sessions
                .iter()
                .flat_map(|s| (0..).zip(s.flows.iter().copied())),
            spec.cc,
            spec.strategy,
        )
    });

    for s in &sessions {
        let start_at = secs(spec.warmup_s + s.plan.arrival_s);
        let equal = vec![1.0; s.flows.len()];
        sim.add_app(Box::new(VideoServer::new(
            Scheme::new(SchedulerKind::Dynamic, spec.strategy, &equal, s.budget),
            s.flows.clone(),
            spec.video,
            s.trace.clone(),
            start_at,
            s.budget,
        )));
        sim.add_app(Box::new(VideoClient::new(&s.flows, s.trace.clone())));
        sim.add_app(Box::new(SessionMarker {
            session: s.session,
            start_at,
            stop_at: start_at + secs(s.plan.hold_s),
        }));
    }

    sim.run_until(secs(spec.warmup_s + spec.duration_s + drain_s(spec)));

    // Bottleneck capacity in packets/s bounds each path's achievable rate:
    // PFTK with near-zero measured loss otherwise predicts throughputs the
    // link could never carry.
    let capacity_pps = spec.bottleneck_mbps * 1e6 / 8.0 / f64::from(spec.video.packet_bytes);
    let outcomes: Vec<SessionOutcome> = sessions
        .iter()
        .map(|s| outcome_of(&sim, spec, s, capacity_pps))
        .collect();

    let events_processed = sim.events_processed();
    let telemetry = sim.counters();

    // Always-on metrics: netsim distributions plus frame metrics over every
    // session's trace and per-session outcome histograms (lateness in ppm,
    // PFTK headroom in milli-multiples, glitch counts — integer units so the
    // buckets merge exactly). Sessions are visited in global session order,
    // and every operation is commutative, so the snapshot is identical
    // however shards are chunked into jobs.
    let mut metrics = sim.metrics_snapshot();
    for (s, o) in sessions.iter().zip(&outcomes) {
        obs::record_frame_metrics(&mut metrics, s.trace.borrow().frames());
        if o.started {
            metrics.counter_add("fleet.sessions_started", 1);
            metrics
                .histogram("fleet.session_late_ppm")
                .record((o.late_fraction * 1e6).round() as u64);
            metrics
                .histogram("fleet.session_headroom_milli")
                .record((o.headroom.max(0.0) * 1e3).round() as u64);
            metrics
                .histogram("fleet.session_glitches")
                .record(o.glitch_count);
        }
        if o.completed {
            metrics.counter_add("fleet.sessions_completed", 1);
        }
    }
    metrics.set_label("cc", spec.cc.name());
    metrics.set_label("strategy", spec.strategy.name());

    ShardOutput {
        shard,
        outcomes,
        events_processed,
        telemetry,
        metrics,
        trace_file: recording.map(|r| r.finish(sim)),
    }
}

/// Read one session's outcome off its delivery trace and its flows' TCP
/// state.
fn outcome_of(
    sim: &Sim,
    spec: &FleetSpec,
    s: &SessionHandles,
    capacity_pps: f64,
) -> SessionOutcome {
    let trace = s.trace.borrow();
    let generated = trace.generated();
    let delivered = trace.delivered();
    let started = generated > 0;
    let stable = trace.stable_records(spec.tau_s);
    let resilience = ResilienceReport::from_records(
        stable,
        spec.video.rate_pps,
        ResilienceSpec {
            tau_s: spec.tau_s,
            ..ResilienceSpec::default()
        },
    );
    // Aggregate achievable throughput over the session's paths, from the
    // *measured* per-flow loss and RTT through the PFTK model — the same
    // σ_a/µ the paper's Section 7.3 headroom rule is stated in.
    let headroom = if started {
        s.flows
            .iter()
            .filter_map(|&f| {
                let sender = sim.sender(f);
                let rtt_s = sender.rtt.mean_rtt_secs()?;
                let path = PathSpec {
                    loss: sim.flow_loss_rate(f).clamp(1e-6, 0.5),
                    rtt_s,
                    to_ratio: sender.rtt.to_ratio().unwrap_or(1.0).max(1.0),
                };
                Some(tcp_model::pftk::throughput_pps(&path).min(capacity_pps))
            })
            .sum::<f64>()
            / spec.video.rate_pps
    } else {
        0.0
    };
    SessionOutcome {
        session: s.session,
        arrival_s: s.plan.arrival_s,
        hold_s: s.plan.hold_s,
        started,
        completed: generated == s.budget,
        generated,
        delivered,
        late_fraction: late_fraction_playback(stable, spec.tau_s),
        glitch_count: resilience.glitch_count,
        headroom,
    }
}

/// One simulation's engine counters, as cached and as the sidecar shows them.
pub(crate) fn telemetry_json(t: &EngineTelemetry) -> Json {
    Json::obj([
        ("events_processed", Json::Num(t.events_processed as f64)),
        ("transits", Json::Num(t.transits as f64)),
        ("stale_timer_pops", Json::Num(t.stale_timer_pops as f64)),
        (
            "deferred_timer_pushes",
            Json::Num(t.deferred_timer_pushes as f64),
        ),
        ("wheel_hwm", Json::Num(t.wheel_hwm as f64)),
        ("far_hwm", Json::Num(t.far_hwm as f64)),
        ("ring_hwm", Json::Num(t.ring_hwm as f64)),
        ("random_loss_drops", Json::Num(t.random_loss_drops as f64)),
    ])
}

impl JsonCodec for ShardOutput {
    fn to_json(&self) -> Json {
        let outcomes = self.outcomes.iter().map(|o| {
            Json::obj([
                ("session", Json::Num(f64::from(o.session))),
                ("arrival_s", Json::Num(o.arrival_s)),
                ("hold_s", Json::Num(o.hold_s)),
                ("started", Json::Bool(o.started)),
                ("completed", Json::Bool(o.completed)),
                ("generated", Json::Num(o.generated as f64)),
                ("delivered", Json::Num(o.delivered as f64)),
                ("late_fraction", Json::Num(o.late_fraction)),
                ("glitches", Json::Num(o.glitch_count as f64)),
                ("headroom", Json::Num(o.headroom)),
            ])
        });
        Json::obj([
            ("shard", Json::Num(f64::from(self.shard))),
            ("events", Json::Num(self.events_processed as f64)),
            ("metrics", self.metrics.to_json()),
            ("outcomes", Json::arr(outcomes)),
            ("telemetry", telemetry_json(&self.telemetry)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let outcomes = json
            .get("outcomes")?
            .as_arr()?
            .iter()
            .map(|o| {
                Some(SessionOutcome {
                    session: o.get("session")?.as_u64()? as u32,
                    arrival_s: o.get("arrival_s")?.as_f64()?,
                    hold_s: o.get("hold_s")?.as_f64()?,
                    started: o.get("started")?.as_bool()?,
                    completed: o.get("completed")?.as_bool()?,
                    generated: o.get("generated")?.as_u64()?,
                    delivered: o.get("delivered")?.as_u64()?,
                    late_fraction: o.get("late_fraction")?.as_f64()?,
                    glitch_count: o.get("glitches")?.as_u64()?,
                    headroom: o.get("headroom")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let t = json.get("telemetry")?;
        let field = |name: &str| t.get(name).and_then(Json::as_u64);
        Some(ShardOutput {
            shard: json.get("shard")?.as_u64()? as u32,
            events_processed: json.get("events")?.as_u64()?,
            metrics: obs::MetricsSnapshot::from_json(json.get("metrics")?)?,
            outcomes,
            trace_file: None,
            telemetry: EngineTelemetry {
                events_processed: field("events_processed")?,
                transits: field("transits")?,
                stale_timer_pops: field("stale_timer_pops")?,
                deferred_timer_pushes: field("deferred_timer_pushes")?,
                wheel_hwm: field("wheel_hwm")?,
                far_hwm: field("far_hwm")?,
                ring_hwm: field("ring_hwm")?,
                random_loss_drops: field("random_loss_drops")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FleetSpec {
        let mut spec = FleetSpec::new("tiny", 4, 2, 11);
        spec.duration_s = 20.0;
        spec.warmup_s = 1.0;
        spec.arrival_rate_per_s = 0.5;
        spec.mean_hold_s = 8.0;
        spec.video = dmp_core::spec::VideoSpec::new(25.0);
        spec
    }

    #[test]
    fn shard_sessions_stream_and_deliver() {
        let out = run_shard(&tiny_spec(), 0, None);
        assert_eq!(out.outcomes.len(), 2);
        assert!(out.events_processed > 0);
        for o in &out.outcomes {
            assert!(o.started, "session {} never started", o.session);
            assert!(o.generated > 0);
            assert!(o.delivered > 0, "session {} delivered nothing", o.session);
            assert!(o.delivered <= o.generated);
            assert!(o.headroom > 0.0);
        }
        // Global session indices: shard 0 holds sessions 0 and 1.
        assert_eq!(out.outcomes[0].session, 0);
        assert_eq!(out.outcomes[1].session, 1);
    }

    /// Shard 1, once, under the event queue's contract check (debug builds):
    /// it holds every pop to `(time, seq)` order, which fixes the outcomes
    /// and metrics any conforming queue produces.
    #[test]
    fn engines_agree_byte_for_byte_on_outcomes() {
        let out = run_shard(&tiny_spec(), 1, None);
        let sessions: Vec<u32> = out.outcomes.iter().map(|o| o.session).collect();
        assert_eq!(sessions, [2, 3]);
        assert!(out.events_processed > 0);
    }

    #[test]
    fn shard_output_json_round_trips() {
        let out = run_shard(&tiny_spec(), 0, None);
        let back = ShardOutput::from_json(&out.to_json()).expect("round-trip");
        assert_eq!(out, back);
    }

    #[test]
    fn traced_run_matches_untraced() {
        let dir = std::env::temp_dir().join("fleet-shard-trace-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("shard0.jsonl");
        let spec = tiny_spec();
        let plain = run_shard(&spec, 0, None);
        let traced = run_shard(&spec, 0, Some((&path, "fleet:tiny:shard0")));
        let file = traced.trace_file.expect("a traced shard returns its file");
        assert_eq!(
            (file.label.as_str(), file.path),
            ("fleet:tiny:shard0", path.clone())
        );
        assert_eq!(plain.outcomes, traced.outcomes);
        assert_eq!(plain.events_processed, traced.events_processed);
        assert_eq!(
            plain.metrics, traced.metrics,
            "enabling the flight recorder must not perturb metrics"
        );
        let text = std::fs::read_to_string(&path).expect("trace written");
        assert!(
            text.contains("\"ev\":\"session\""),
            "trace should carry session markers"
        );
        assert_eq!(text.lines().count() as u64, file.events);
        let _ = std::fs::remove_file(&path);
    }
}
