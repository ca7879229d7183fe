//! The job runner: parallel execution + caching + panic isolation.

use crate::cache::Cache;
use crate::pool;
use crate::JsonCodec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One schedulable unit of work: a pure, seeded computation.
pub struct JobSpec<T> {
    /// Human-readable identity, e.g. `"table2/homogeneous/run3"`.
    pub label: String,
    /// Stable, complete textual representation of the job's configuration.
    /// Every field that influences the result must appear here — it is the
    /// cache key (together with `seed` and the code-version salt);
    /// [`JobSpec::keyed`] derives it from the job's input.
    pub config_repr: String,
    /// RNG seed for this job.
    pub seed: u64,
    /// Whether the result may be cached (false for wall-clock-dependent
    /// work such as real-time-paced live streaming).
    pub cacheable: bool,
    /// The computation. Must be deterministic in (`config_repr`, `seed`) if
    /// `cacheable` is true.
    pub work: Box<dyn FnOnce() -> T + Send>,
}

impl<T> JobSpec<T> {
    /// A cacheable job whose identity is derived from its input, the way
    /// every job in the workspace is built: `config_repr` is the type name of
    /// `(S, T)` followed by `input`'s `Debug`, so the namespace is the input
    /// and payload type and every field of the input is in the key (derived
    /// `Debug` prints `f64`s so they round-trip exactly). `work` runs on the
    /// input. A change of what the computation returns for the same input
    /// is [`crate::cache::CODE_SALT`]'s business, not the key's.
    pub fn keyed<S>(
        label: impl Into<String>,
        input: S,
        seed: u64,
        work: impl FnOnce(&S) -> T + Send + 'static,
    ) -> Self
    where
        S: std::fmt::Debug + Send + 'static,
    {
        let config_repr = format!("{}{input:?}", std::any::type_name::<(S, T)>());
        Self::new(label, config_repr, seed, move || work(&input))
    }

    /// A cacheable job under a hand-written `config_repr`, which must carry
    /// every input of `work`. Prefer [`JobSpec::keyed`].
    pub fn new(
        label: impl Into<String>,
        config_repr: impl Into<String>,
        seed: u64,
        work: impl FnOnce() -> T + Send + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            config_repr: config_repr.into(),
            seed,
            cacheable: true,
            work: Box::new(work),
        }
    }

    /// Mark the job as not cacheable.
    pub fn uncacheable(mut self) -> Self {
        self.cacheable = false;
        self
    }
}

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue<T> {
    /// The job completed.
    Ok(T),
    /// The job panicked; the message is preserved, the sweep continued.
    Failed(String),
}

/// A completed sweep cell: outcome plus execution metadata.
#[derive(Debug, Clone)]
pub struct Cell<T> {
    /// Label copied from the job spec.
    pub label: String,
    /// Outcome.
    pub value: CellValue<T>,
    /// True if the value came from the cache rather than execution.
    pub from_cache: bool,
    /// Time spent producing the value (near-zero for cache hits).
    pub wall: Duration,
}

impl<T> Cell<T> {
    /// The value, if the job succeeded.
    pub fn ok(&self) -> Option<&T> {
        match &self.value {
            CellValue::Ok(v) => Some(v),
            CellValue::Failed(_) => None,
        }
    }

    /// The panic message, if the job failed.
    pub fn failure(&self) -> Option<&str> {
        match &self.value {
            CellValue::Ok(_) => None,
            CellValue::Failed(msg) => Some(msg),
        }
    }

    /// The value of a job that must have succeeded: a failed one panics
    /// with `{label} failed: {message}`.
    pub fn unwrap(&self) -> &T {
        match &self.value {
            CellValue::Ok(v) => v,
            CellValue::Failed(msg) => panic!("{} failed: {msg}", self.label),
        }
    }
}

/// Counters accumulated across every batch a [`Runner`] executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Cacheable jobs that had to execute.
    pub cache_misses: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// Sum of per-job execution time — what a serial run would have cost
    /// (cache hits contribute their small lookup time).
    pub serial_equiv: Duration,
}

/// Parallel, caching job executor.
pub struct Runner {
    threads: usize,
    cache: Cache,
    progress: bool,
    stats: Mutex<RunnerStats>,
}

impl Runner {
    /// Runner with explicit thread count and cache.
    pub fn new(threads: usize, cache: Cache) -> Self {
        Self {
            threads: threads.max(1),
            cache,
            progress: false,
            stats: Mutex::new(RunnerStats::default()),
        }
    }

    /// Runner configured from the environment: `DMP_THREADS` overrides the
    /// worker count (default: available parallelism), cache per
    /// [`Cache::from_env`], `DMP_QUIET=1` suppresses progress lines.
    pub fn from_env() -> Self {
        let threads = std::env::var("DMP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let mut runner = Self::new(threads, Cache::from_env());
        runner.progress = !std::env::var("DMP_QUIET").is_ok_and(|v| v == "1");
        runner
    }

    /// Enable or disable per-job progress lines on stderr.
    pub fn with_progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The cache in use.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> RunnerStats {
        *self.stats.lock().unwrap()
    }

    /// Execute a batch of cacheable jobs. Results are in submission order
    /// regardless of thread count; panicking jobs become `Failed` cells.
    pub fn run_all<T>(&self, jobs: Vec<JobSpec<T>>) -> Vec<Cell<T>>
    where
        T: JsonCodec + Send + 'static,
    {
        let total = jobs.len();
        let completed = AtomicUsize::new(0);
        let completed = &completed;
        let pool_jobs: Vec<pool::Job<'_, Cell<T>>> = jobs
            .into_iter()
            .map(|spec| {
                let cell_fn = move || {
                    let cell = self.execute(spec);
                    self.report_progress(&cell, completed, total);
                    cell
                };
                Box::new(cell_fn) as pool::Job<'_, Cell<T>>
            })
            .collect();
        let cells = pool::run_ordered(pool_jobs, self.threads);
        self.accumulate(&cells);
        cells
    }

    fn execute<T: JsonCodec>(&self, spec: JobSpec<T>) -> Cell<T> {
        let start = Instant::now();
        if spec.cacheable && self.cache.is_enabled() {
            let key = self.cache.key(&spec.config_repr, spec.seed);
            if let Some(value) = self.cache.load_with(&key, |p| T::from_json(p)) {
                return Cell {
                    label: spec.label,
                    value: CellValue::Ok(value),
                    from_cache: true,
                    wall: start.elapsed(),
                };
            }
            let cell = run_isolated(spec.label, spec.work, start);
            if let CellValue::Ok(value) = &cell.value {
                self.cache.store(&key, &value.to_json());
            }
            return cell;
        }
        run_isolated(spec.label, spec.work, start)
    }

    fn report_progress<T>(&self, cell: &Cell<T>, completed: &AtomicUsize, total: usize) {
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.progress {
            return;
        }
        let status = match (&cell.value, cell.from_cache) {
            (CellValue::Failed(_), _) => "FAILED",
            (CellValue::Ok(_), true) => "cached",
            (CellValue::Ok(_), false) => "ran",
        };
        eprintln!(
            "[{done}/{total}] {} ({status}, {:.2}s)",
            cell.label,
            cell.wall.as_secs_f64()
        );
    }

    fn accumulate<T>(&self, cells: &[Cell<T>]) {
        let mut stats = self.stats.lock().unwrap();
        for cell in cells {
            stats.jobs += 1;
            stats.serial_equiv += cell.wall;
            if cell.from_cache {
                stats.cache_hits += 1;
            } else if matches!(cell.value, CellValue::Failed(_)) {
                stats.failed += 1;
            } else {
                stats.cache_misses += 1;
            }
        }
    }
}

/// Run one job with panic isolation.
fn run_isolated<T>(label: String, work: Box<dyn FnOnce() -> T + Send>, start: Instant) -> Cell<T> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
    let value = match outcome {
        Ok(v) => CellValue::Ok(v),
        Err(payload) => CellValue::Failed(panic_message(&*payload)),
    };
    Cell {
        label,
        value,
        from_cache: false,
        wall: start.elapsed(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;
    use crate::Json;

    fn runner(threads: usize, tmp: &TempDir) -> Runner {
        Runner::new(threads, Cache::new(tmp.path())).with_progress(false)
    }

    fn job(i: u64) -> JobSpec<f64> {
        JobSpec::new(format!("job{i}"), format!("square i={i}"), i, move || {
            (i * i) as f64
        })
    }

    #[test]
    fn batch_results_in_submission_order() {
        let tmp = TempDir::new("runner-order");
        for threads in [1, 4] {
            let r = runner(threads, &tmp);
            let cells = r.run_all((0..20).map(job).collect());
            let values: Vec<f64> = cells.iter().map(|c| *c.ok().unwrap()).collect();
            assert_eq!(
                values,
                (0..20).map(|i: u64| (i * i) as f64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn second_run_is_served_from_cache() {
        let tmp = TempDir::new("runner-cache");
        let r = runner(2, &tmp);
        let first = r.run_all((0..6).map(job).collect());
        assert!(first.iter().all(|c| !c.from_cache));
        let second = r.run_all((0..6).map(job).collect());
        assert!(second.iter().all(|c| c.from_cache), "all hits on rerun");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.ok(), b.ok());
        }
        let stats = r.stats();
        assert_eq!(stats.jobs, 12);
        assert_eq!(stats.cache_hits, 6);
        assert_eq!(stats.cache_misses, 6);
    }

    #[test]
    fn undecodable_entry_is_one_miss_in_both_ledgers_and_is_overwritten() {
        let tmp = TempDir::new("runner-drift");
        let r = runner(1, &tmp);
        // Schema drift without a salt bump: the entry verifies, but holds a
        // string where an `f64` job expects a number.
        let key = r.cache().key("square i=3", 3);
        r.cache().store(&key, &Json::Str("nine".into()));

        let cells = r.run_all(vec![job(3)]);
        assert_eq!(cells[0].ok(), Some(&9.0));
        assert!(!cells[0].from_cache, "the job re-ran");
        assert_eq!(r.cache().counters(), (0, 1));
        assert_eq!(r.stats().cache_misses, 1);
        assert_eq!(r.stats().cache_hits, 0);
        assert_eq!(r.cache().load(&key), Some(Json::Num(9.0)), "overwritten");
    }

    #[test]
    fn panicking_job_becomes_failed_cell_and_sweep_completes() {
        let tmp = TempDir::new("runner-panic");
        let r = runner(4, &tmp);
        let mut jobs: Vec<JobSpec<f64>> = (0..5).map(job).collect();
        jobs.insert(
            2,
            JobSpec::new("boom", "boom config", 9, || -> f64 {
                panic!("simulated divergence at cell 2")
            }),
        );
        let cells = r.run_all(jobs);
        assert_eq!(cells.len(), 6);
        assert_eq!(
            cells[2].failure(),
            Some("simulated divergence at cell 2"),
            "panic message preserved"
        );
        // Every other cell still completed.
        assert_eq!(cells.iter().filter(|c| c.ok().is_some()).count(), 5);
        assert_eq!(r.stats().failed, 1);
        // The failure was not cached: rerunning executes it again.
        let cells2 = r.run_all(vec![JobSpec::new("boom", "boom config", 9, || -> f64 {
            panic!("still failing")
        })]);
        assert_eq!(cells2[0].failure(), Some("still failing"));
        // Reading a failed cell as a value names the job and its panic.
        let read = std::panic::catch_unwind(|| *cells[2].unwrap());
        let panic = read.expect_err("a failed cell has no value");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("boom failed: simulated divergence at cell 2")
        );
        assert_eq!(*cells[3].unwrap(), 4.0);
    }

    #[test]
    fn uncacheable_jobs_always_execute() {
        let tmp = TempDir::new("runner-uncacheable");
        let r = runner(1, &tmp);
        for _ in 0..2 {
            let cells = r.run_all(vec![
                JobSpec::new("live", "live cfg", 0, || 1.0).uncacheable()
            ]);
            assert!(!cells[0].from_cache);
        }
        assert_eq!(r.stats().cache_hits, 0);
    }
}
