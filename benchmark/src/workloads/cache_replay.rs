//! `cache_replay`: a warm `repro_all`. Every job is a cache hit, so key
//! hashing, the file read, `json::parse`, the checksum, `from_json` and pool
//! dispatch do all the work and the simulators none. Reads only: a store per
//! iteration swings with the file system, so the write path is a layer
//! metric instead.

use std::sync::Arc;
use std::time::Instant;

use dmp_core::spec::SchedulerKind;
use dmp_runner::{Cache, JobSpec, JsonCodec, Runner};
use dmp_sim::experiment::{batch_jobs, ExperimentSpec, RunSummary};

use super::{Checks, Digest, LayerValues, Outcome, Traced, Workload};
use crate::host::ScratchDir;
use crate::span::Tracer;

/// Distinct simulation results behind the cache entries.
const SUMMARIES: usize = 32;
/// Cache keys per result (a sweep replays one result under many configs).
const KEYS_PER_SUMMARY: usize = 16;
const SIM_DURATION_S: f64 = 20.0;
const TAUS_S: [f64; 4] = [4.0, 6.0, 8.0, 10.0];
pub const THREADS: usize = 2;

/// What one cache entry replays.
struct Entry {
    config_repr: String,
    seed: u64,
    summary: Arc<RunSummary>,
    /// The summary's payload as stored; a replay must re-encode to it.
    stored: Arc<String>,
}

struct CacheReplay {
    entries: Vec<Entry>,
    runner: Runner,
    /// Seconds set-up spent filling the cache directory.
    prime_s: f64,
    /// Holds the cache files; removed when the workload drops.
    _dir: ScratchDir,
}

impl CacheReplay {
    /// The job list of one replay. On a hit `work` never runs; on a miss it
    /// returns the kept summary, which is how set-up fills the cache.
    fn jobs(&self) -> Vec<JobSpec<RunSummary>> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let summary = Arc::clone(&e.summary);
                JobSpec::new(
                    format!("replay:{i}"),
                    e.config_repr.clone(),
                    e.seed,
                    move || (*summary).clone(),
                )
            })
            .collect()
    }
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let setting = *dmp_sim::configs::setting("2-2").expect("setting 2-2 exists");
    let spec = ExperimentSpec::new(setting, SchedulerKind::Dynamic, SIM_DURATION_S, seed);
    let sims = batch_jobs(&spec, SUMMARIES, &TAUS_S);
    let ids: Vec<(String, u64)> = sims
        .iter()
        .map(|j| (j.config_repr.clone(), j.seed))
        .collect();
    let cells = Runner::new(THREADS, Cache::disabled()).run_all(sims);

    let mut entries = Vec::with_capacity(SUMMARIES * KEYS_PER_SUMMARY);
    for (cell, (config_repr, seed)) in cells.iter().zip(ids) {
        let summary = Arc::new(cell.ok().expect("set-up simulation ran").clone());
        let stored = Arc::new(summary.to_json().render());
        for k in 0..KEYS_PER_SUMMARY {
            entries.push(Entry {
                config_repr: format!("{config_repr}/replay{k}"),
                seed,
                summary: Arc::clone(&summary),
                stored: Arc::clone(&stored),
            });
        }
    }

    // The simulations' pool must be gone before the next one starts.
    crate::host::wait_for_threads();
    let t0 = Instant::now();
    let dir = ScratchDir::new("cache-replay");
    let mut workload = CacheReplay {
        entries,
        runner: Runner::new(THREADS, Cache::new(dir.path())),
        prime_s: 0.0,
        _dir: dir,
    };
    // Prime: every job misses, runs its `work` and is stored.
    let primed = workload.runner.run_all(workload.jobs());
    assert!(
        primed.iter().all(|c| c.ok().is_some() && !c.from_cache),
        "priming a fresh cache directory must miss and succeed"
    );
    crate::host::wait_for_threads();
    workload.prime_s = t0.elapsed().as_secs_f64();
    Box::new(workload)
}

impl Workload for CacheReplay {
    fn setup_fs_s(&self) -> f64 {
        self.prime_s
    }

    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let (hits_before, misses_before) = self.runner.cache().counters();
        let busy_before = self.runner.stats().serial_equiv;
        let jobs = t.span("benchmark.job_specs", || self.jobs());
        let cells = t.span("dmp-runner.run_all", || self.runner.run_all(jobs));
        let busy = self.runner.stats().serial_equiv - busy_before;
        let (hits, misses) = self.runner.cache().counters();
        let (hits, misses) = (hits - hits_before, misses - misses_before);

        checks.check(hits == self.entries.len() as u64 && misses == 0, || {
            format!("{hits} hits and {misses} misses on a primed cache")
        });
        let open = t.enter("benchmark.verify");
        for (cell, entry) in cells.iter().zip(&self.entries) {
            let replayed = cell.ok().filter(|_| cell.from_cache);
            let encoded = replayed.map(|s| s.to_json().render());
            checks.check(encoded.as_deref() == Some(entry.stored.as_str()), || {
                format!("{}: replay differs from what was stored", cell.label)
            });
            digest.bytes(encoded.unwrap_or_default().as_bytes());
        }
        t.exit(open);
        Outcome {
            digest: digest.finish(),
            work: self.entries.len() as f64,
            checks,
            counts: LayerValues::from([
                ("dmp-runner.cache.hits", hits as f64),
                ("dmp-runner.cache.misses", misses as f64),
            ]),
            seconds: LayerValues::from([("dmp-runner.pool.busy", busy.as_secs_f64())]),
        }
    }

    fn layer_metrics(&mut self, traced: &Traced<'_>, out: &mut LayerValues) {
        out.insert("dmp-runner.cache.prime_s", self.prime_s);
        out.insert(
            "dmp-runner.pool.idle_share",
            1.0 - traced.seconds("dmp-runner.pool.busy")
                / (THREADS as f64 * traced.seconds("dmp-runner.run_all")),
        );
    }
}
