//! Every cache key in the workspace is `JobSpec::keyed`'s: the type name of
//! `(input, payload)` followed by the input's `Debug`. One property over one
//! job of every job family — the library builders called as they are, the
//! families built inside a bench target (`fig1`, `ext_stored`, `fig7`, the
//! model cells, `fig_fluid`'s among them, the fleet's shard jobs;
//! `ext_ablations` is `batch_jobs`'s family) keyed with the (input, payload)
//! types the target uses:
//!
//! 1. keys are pairwise distinct across the families;
//! 2. perturbing any field of a family's input moves its key (one
//!    perturbation per field, counted off the input's pretty `Debug`, so a
//!    field added without one fails here), down to each field of a
//!    setting's Table 1 configurations and of their HTTP sessions;
//! 3. a `TraceSpec`'s label and directory do not move it;
//! 4. the same input under another payload type gets another key: the late
//!    cell and `ext_stored` share their input, so (1) covers it.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::time::Duration;

use cc::CcKind;
use dmp_bench::live_fig::LiveSummary;
use dmp_core::spec::{PathSpec, PullStrategy, SchedulerKind};
use dmp_core::ResilienceSpec;
use dmp_fleet::{FleetSpec, ShardOutput};
use dmp_live::LiveExperiment;
use dmp_runner::JobSpec;
use dmp_sim::probe::saturation_jobs;
use dmp_sim::{
    batch_jobs, scenario_batch_jobs, setting, BottleneckConfig, ExperimentSpec, TraceSpec,
};
use netsim::apps::HttpParams;
use netsim::tcp::TcpFlavor;
use scenario::{FleetTimeline, Scenario};
use tcp_model::{
    FluidCellSpec, LateCellSpec, MuCellSpec, PlannerOptions, PlannerScheme, SearchOptions,
    TauSearchSpec,
};

/// The key `JobSpec::keyed` gives `input` under payload type `T`.
fn key<S: Debug + Send + 'static, T>(input: S) -> String {
    JobSpec::keyed("", input, 0, |_: &S| -> T { unreachable!() }).config_repr
}

/// Top-level fields of a struct, read off its pretty `Debug`.
fn field_count(v: &impl Debug) -> usize {
    format!("{v:#?}")
        .lines()
        .filter(|l| {
            l.strip_prefix("    ")
                .is_some_and(|f| !f.starts_with(' ') && f.contains(": "))
        })
        .count()
}

/// `perturb` holds one change per field of `base`, and each moves `key`.
fn every_field_moves<S: Clone + Debug>(
    base: &S,
    perturb: &[fn(&mut S)],
    key: impl Fn(S) -> String,
) {
    let name = std::any::type_name::<S>();
    assert_eq!(
        perturb.len(),
        field_count(base),
        "one perturbation per field of {name}"
    );
    let k0 = key(base.clone());
    for (i, p) in perturb.iter().enumerate() {
        let mut s = base.clone();
        p(&mut s);
        assert_ne!(key(s), k0, "field {i} of {name} is not in the key");
    }
}

const SPEC_FIELDS: [fn(&mut ExperimentSpec); 12] = [
    |s| s.setting.video.rate_pps += 1.0,
    |s| s.scheduler = SchedulerKind::Static,
    |s| s.duration_s += 1.0,
    |s| s.warmup_s += 1.0,
    |s| s.send_buf_pkts += 1,
    |s| s.red = true,
    |s| s.video_flavor = TcpFlavor::NewReno,
    |s| s.cc = CcKind::Cubic,
    |s| s.strategy = PullStrategy::BestPath,
    |s| s.scenario = Scenario::named("noop"),
    |s| s.trace = Some(TraceSpec::new("t", "d")),
    |s| s.seed += 1,
];

const BOTTLENECK_FIELDS: [fn(&mut BottleneckConfig); 8] = [
    |c| c.id += 1,
    |c| c.ftp_flows += 1,
    |c| c.http_flows += 1,
    |c| c.delay_ms += 1.0,
    |c| c.bandwidth_mbps += 1.0,
    |c| c.buffer_pkts += 1,
    |c| c.bg_wnd += 1,
    |c| c.http.mean_think_s += 1.0,
];

const HTTP_FIELDS: [fn(&mut HttpParams); 4] = [
    |h| h.mean_page_pkts += 1.0,
    |h| h.pareto_shape += 0.1,
    |h| h.max_page_pkts += 1,
    |h| h.mean_think_s += 1.0,
];

const FLEET_FIELDS: [fn(&mut FleetSpec); 19] = [
    |f| f.name.push('x'),
    |f| f.sessions += 1,
    |f| f.shard_sessions += 1,
    |f| f.bottlenecks_per_shard += 1,
    |f| f.bottleneck_mbps += 1.0,
    |f| f.bottleneck_delay_ms += 1.0,
    |f| f.buffer_pkts += 1,
    |f| f.duration_s += 1.0,
    |f| f.warmup_s += 1.0,
    |f| f.arrival_rate_per_s += 1.0,
    |f| f.mean_hold_s += 1.0,
    |f| f.video.packet_bytes += 1,
    |f| f.send_buf_pkts += 1,
    |f| f.paths_per_session += 1,
    |f| f.timeline = FleetTimeline::named("surge").spike(10.0, 5.0, 20.0),
    |f| f.tau_s += 1.0,
    |f| f.cc = CcKind::BbrLite,
    |f| f.strategy = PullStrategy::Weighted,
    |f| f.seed += 1,
];

const LIVE_FIELDS: [fn(&mut LiveExperiment); 7] = [
    |e| e.video.rate_pps += 1.0,
    |e| e.packets += 1,
    |e| e.paths[0].delay += Duration::from_millis(1),
    |e| e.send_buf_bytes += 1,
    |e| e.seed += 1,
    |e| e.time_dilation += 1.0,
    |e| e.trace = Some(TraceSpec::new("t", "d")),
];

const LATE_FIELDS: [fn(&mut LateCellSpec); 5] = [
    |c| c.paths[0].loss *= 2.0,
    |c| c.mu += 1.0,
    |c| c.tau_s += 1.0,
    |c| c.consumptions += 1,
    |c| c.seed += 1,
];

#[test]
fn every_job_family_keys_every_field_of_its_input_and_nothing_else() {
    let spec = ExperimentSpec::new(*setting("2-2").unwrap(), SchedulerKind::Dynamic, 60.0, 2007);
    let taus = vec![4.0, 6.0];
    let res = ResilienceSpec::default();
    let fleet = FleetSpec::new("f", 8, 4, 1);
    let live = dmp_bench::live_fig::experiment_set(&dmp_bench::Scale::quick()).remove(0);
    let path = PathSpec::from_ms(0.02, 150.0, 3.0);
    let late = LateCellSpec {
        paths: vec![path; 2],
        mu: 25.0,
        tau_s: 4.0,
        consumptions: 10_000,
        seed: 7,
    };
    let mu = MuCellSpec {
        paths: vec![path; 2],
        tau_s: 4.0,
        scheme: PlannerScheme::Dmp,
        opts: PlannerOptions::default(),
    };
    let search = TauSearchSpec {
        paths: vec![path; 2],
        mu: 25.0,
        opts: SearchOptions::default(),
    };
    let fluid = FluidCellSpec {
        mu: 50.0,
        period_s: 10.0,
        tau_s: 3.0,
        split: Some((20.0, true)),
    };

    let batch = |s: ExperimentSpec, t: &[f64]| batch_jobs(&s, 1, t).remove(0).config_repr;
    let scn =
        |s: ExperimentSpec, t: &[f64], r| scenario_batch_jobs(&s, 1, t, r).remove(0).config_repr;
    let sat = |s: ExperimentSpec| saturation_jobs(&s, 1).remove(0).config_repr;
    let fig1 = |s: ExperimentSpec, tau: f64| key::<_, Vec<f64>>((s, tau));
    let shard = |f: FleetSpec, shard: u32| key::<_, ShardOutput>((f, shard));
    let fig7 = |e: LiveExperiment, t: Vec<f64>| key::<_, LiveSummary>((e, t));
    let fig7_model = |e: LiveExperiment, tau: f64, n: u64| key::<_, f64>((e, tau, n));

    // (1) and (4): one job per family, pairwise distinct.
    let keys = [
        batch(spec.clone(), &taus),
        scn(spec.clone(), &taus, res),
        sat(spec.clone()),
        fig1(spec.clone(), 4.0),
        shard(fleet.clone(), 0),
        fig7(live.clone(), taus.clone()),
        fig7_model(live.clone(), 4.0, 1000),
        key::<_, f64>(late.clone()),
        key::<_, Vec<f64>>(late.clone()),
        key::<_, Option<f64>>(mu.clone()),
        key::<_, Option<f64>>(search.clone()),
        key::<_, f64>(fluid),
    ];
    assert_eq!(
        keys.iter().collect::<BTreeSet<_>>().len(),
        keys.len(),
        "{keys:#?}"
    );

    // (2): every field of every input.
    every_field_moves(&spec, &SPEC_FIELDS, |s| batch(s, &taus));
    every_field_moves(&spec, &SPEC_FIELDS, |s| scn(s, &taus, res));
    every_field_moves(&spec, &SPEC_FIELDS, sat);
    every_field_moves(&spec, &SPEC_FIELDS, |s| fig1(s, 4.0));
    // A setting carries its Table 1 configurations, and each of them its
    // HTTP sessions, by value: on either path, each field is in the key.
    for k in 0..2 {
        let on_path = |c: BottleneckConfig| {
            let mut s = spec.clone();
            s.setting.configs[k] = c;
            batch(s, &taus)
        };
        let config = spec.setting.configs[k];
        every_field_moves(&config, &BOTTLENECK_FIELDS, on_path);
        every_field_moves(&config.http, &HTTP_FIELDS, |http| {
            on_path(BottleneckConfig { http, ..config })
        });
    }
    let res_fields: [fn(&mut ResilienceSpec); 2] =
        [|r| r.tau_s += 1.0, |r| r.fail_at_s = Some(1.0)];
    every_field_moves(&res, &res_fields, |r| scn(spec.clone(), &taus, r));
    every_field_moves(&fleet, &FLEET_FIELDS, |f| shard(f, 0));
    every_field_moves(&live, &LIVE_FIELDS, |e| fig7(e, taus.clone()));
    every_field_moves(&live, &LIVE_FIELDS, |e| fig7_model(e, 4.0, 1000));
    every_field_moves(&late, &LATE_FIELDS, key::<_, f64>);
    every_field_moves(&late, &LATE_FIELDS, key::<_, Vec<f64>>);
    let mu_fields: [fn(&mut MuCellSpec); 4] = [
        |c| c.paths.truncate(1),
        |c| c.tau_s += 1.0,
        |c| c.scheme = PlannerScheme::Static,
        |c| c.opts.mu_rel_resolution *= 2.0,
    ];
    every_field_moves(&mu, &mu_fields, key::<_, Option<f64>>);
    let search_fields: [fn(&mut TauSearchSpec); 3] = [
        |c| c.paths.truncate(1),
        |c| c.mu += 1.0,
        |c| c.opts.threshold *= 2.0,
    ];
    every_field_moves(&search, &search_fields, key::<_, Option<f64>>);
    let fluid_fields: [fn(&mut FluidCellSpec); 4] = [
        |c| c.mu += 1.0,
        |c| c.period_s += 1.0,
        |c| c.tau_s += 1.0,
        |c| c.split = None,
    ];
    every_field_moves(&fluid, &fluid_fields, key::<_, f64>);
    // ... and the tuple components beside the structs.
    let pairs = [
        (batch(spec.clone(), &taus), batch(spec.clone(), &taus[..1])),
        (
            scn(spec.clone(), &taus, res),
            scn(spec.clone(), &taus[..1], res),
        ),
        (fig1(spec.clone(), 4.0), fig1(spec.clone(), 5.0)),
        (shard(fleet.clone(), 0), shard(fleet, 1)),
        (
            fig7(live.clone(), taus.clone()),
            fig7(live.clone(), vec![4.0]),
        ),
        (
            fig7_model(live.clone(), 4.0, 1000),
            fig7_model(live.clone(), 5.0, 1000),
        ),
        (
            fig7_model(live.clone(), 4.0, 1000),
            fig7_model(live, 4.0, 1001),
        ),
    ];
    for (a, b) in pairs {
        assert_ne!(a, b);
    }

    // (3): the trace's label and directory name a file, not a simulation.
    let mut traced = spec.clone();
    traced.trace = Some(TraceSpec::new("a", "here"));
    let mut moved = spec.clone();
    moved.trace = Some(TraceSpec::new("b", "elsewhere"));
    assert_eq!(sat(traced), sat(moved));
}
