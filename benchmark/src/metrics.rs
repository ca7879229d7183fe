//! Every metric the benchmark reports, by name. `BENCHMARK.json` lists the
//! same names with the same units and directions; a test holds the two
//! together.

/// One metric's definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. The reviewer of a later change reads it from
    /// `BENCHMARK.json`; here only the test that compares the two does.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// A count that is a function of the inputs alone: it must repeat
    /// exactly between runs of one commit on one seed.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
        exact: false,
    }
}

const fn exact(d: Def) -> Def {
    Def { exact: true, ..d }
}

/// What a user of the system sees, measured with tracing off. The same four
/// are reported for every workload. Failed operations are not a metric here
/// (a metric may never read 0): they are the `failed` count of every result.
pub const END_TO_END: [Def; 4] = [
    lower("iter_s.p50", "s"),
    higher("work_per_s", "work/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, from the traced pass and the direct probes. A layer the
/// workload never calls reports 0 for its span and count metrics.
pub const PER_LAYER: [Def; 74] = [
    // netsim.scheduler: hold model on the default engine's queue
    lower("netsim.scheduler.hold_ns.n64", "ns"),
    lower("netsim.scheduler.hold_ns.n4096", "ns"),
    // netsim.sim
    lower("netsim.run_until.self_s", "s"),
    lower("netsim.ns_per_event", "ns"),
    exact(lower("netsim.events", "count")),
    exact(lower("netsim.transits", "count")),
    exact(lower("netsim.events_per_sim_s", "1/s")),
    exact(lower("netsim.retransmits", "count")),
    exact(lower("netsim.rtos", "count")),
    exact(lower("netsim.drops", "count")),
    exact(lower("netsim.stale_timer_pops", "count")),
    exact(lower("netsim.wheel_hwm", "count")),
    lower("netsim.build_us_per_flow", "us"),
    // cc
    lower("cc.reno.ns_per_transit", "ns"),
    lower("cc.cubic.ns_per_transit", "ns"),
    lower("cc.bbr.ns_per_transit", "ns"),
    lower("cc.reno.on_ack_ns", "ns"),
    lower("cc.cubic.on_ack_ns", "ns"),
    lower("cc.bbr.on_ack_ns", "ns"),
    // dmp-sim
    lower("dmp-sim.build_s", "s"),
    lower("dmp-sim.advance_s", "s"),
    lower("dmp-sim.finish_s", "s"),
    lower("dmp-sim.drop_s", "s"),
    lower("dmp-sim.summary_from_json_us", "us"),
    lower("dmp-sim.summary_to_json_us", "us"),
    // dmp-core
    lower("dmp-core.lateness_ns_per_record", "ns"),
    lower("dmp-core.scheme.ns_per_pkt", "ns"),
    // obs
    lower("obs.hist_record_ns", "ns"),
    lower("obs.snapshot_merge_us", "us"),
    exact(lower("obs.snapshot_json_bytes", "bytes")),
    // fleet
    lower("fleet.plan_us_per_session", "us"),
    lower("fleet.shard_s.p50", "s"),
    lower("fleet.shard_s.max", "s"),
    lower("fleet.serial_sum_s", "s"),
    higher("fleet.parallel_efficiency", "ratio"),
    lower("fleet.render_s", "s"),
    exact(lower("fleet.events", "count")),
    exact(higher("fleet.sessions", "count")),
    // dmp-runner.pool
    lower("dmp-runner.pool.dispatch_ns_per_job", "ns"),
    lower("dmp-runner.pool.idle_share", "ratio"),
    // dmp-runner.cache
    lower("dmp-runner.cache.key_ns", "ns"),
    lower("dmp-runner.cache.load_us", "us"),
    lower("dmp-runner.cache.store_us", "us"),
    lower("dmp-runner.cache.prime_s", "s"),
    exact(lower("dmp-runner.cache.entry_bytes", "bytes")),
    exact(higher("dmp-runner.cache.hits", "count")),
    exact(lower("dmp-runner.cache.misses", "count")),
    // dmp-runner.json
    higher("dmp-runner.json.parse_mb_s", "MB/s"),
    higher("dmp-runner.json.render_mb_s", "MB/s"),
    higher("dmp-runner.json.render_pretty_mb_s", "MB/s"),
    // tcp-model.dmp
    lower("tcp-model.ssa.ns_per_consumption", "ns"),
    exact(higher("tcp-model.ssa.consumptions", "count")),
    lower("tcp-model.search.s_per_search", "s"),
    exact(lower("tcp-model.search.evaluations", "count")),
    // tcp-model.solver
    lower("tcp-model.solver.enumerate_s", "s"),
    exact(lower("tcp-model.solver.states", "count")),
    exact(lower("tcp-model.solver.nnz", "count")),
    exact(lower("tcp-model.solver.cold_iterations", "count")),
    exact(lower("tcp-model.solver.warm_iterations", "count")),
    exact(lower("tcp-model.solver.warm_iteration_ratio", "ratio")),
    higher("tcp-model.solver.row_updates_per_s", "1/s"),
    // dmp-live.wire
    lower("dmp-live.wire.encode_ns", "ns"),
    lower("dmp-live.wire.decode_ns", "ns"),
    // the traced pass itself
    lower("trace.iter_s.p50", "s"),
    lower("trace.overhead_share", "ratio"),
    higher("trace.iterations", "count"),
    // host: how far to trust the run
    higher("host.nproc", "count"),
    higher("host.iterations", "count"),
    lower("host.ref_ns_per_op", "ns"),
    lower("host.iter_s.min", "s"),
    lower("host.iter_s.p50", "s"),
    lower("host.iter_s.p75", "s"),
    lower("host.iter_s.max", "s"),
    higher("host.cpu_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_runner::{json, Json};

    fn listed<'a>(doc: &'a Json, section: &str) -> Vec<(&'a str, &'a str, &'a str)> {
        let field = |m: &'a Json, k: &str| m.get(k).and_then(Json::as_str).expect("string field");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = crate::host::package_dir().join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let ours = |defs: &[Def]| -> Vec<(&str, &str, &str)> {
            defs.iter().map(|d| (d.name, d.unit, d.better)).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
