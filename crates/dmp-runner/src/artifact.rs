//! Structured artifact emission: one JSON file per figure/table.
//!
//! Each artifact is split in two files so the *data* stays byte-identical
//! across runs, thread counts, and cache states:
//!
//! * `<name>.json` — the deterministic payload (series, per-run values,
//!   confidence intervals). The determinism regression test compares these
//!   byte-for-byte between `--threads 1` and `--threads 8` runs.
//! * `<name>.meta.json` — volatile execution telemetry (wall-clock, cache
//!   hit/miss counts, thread count).

use crate::json::Json;
use crate::runner::RunnerStats;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Writes artifacts into a target directory.
#[derive(Debug, Clone)]
pub struct ArtifactWriter {
    dir: PathBuf,
}

impl ArtifactWriter {
    /// Writer rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// Writer configured from the environment: `DMP_ARTIFACT_DIR` overrides
    /// the location; default `target/artifacts` (respecting
    /// `CARGO_TARGET_DIR`).
    pub fn from_env() -> Self {
        let dir = std::env::var_os("DMP_ARTIFACT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::var_os("CARGO_TARGET_DIR")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("target"))
                    .join("artifacts")
            });
        Self::new(dir)
    }

    /// Directory artifacts are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the harness sends its runs' JSONL trace files: `traces/`
    /// beside the artifacts they explain.
    pub fn trace_dir(&self) -> PathBuf {
        self.dir.join("traces")
    }

    /// Write the deterministic `data` payload as `<name>.json`, returning
    /// its path.
    pub fn write(&self, name: &str, data: &Json) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{name}.json"));
        std::fs::write(&path, data.render_pretty())?;
        Ok(path)
    }

    /// Write a deterministic metrics snapshot as `metrics/<name>.json`,
    /// returning its path. Standalone files (rather than a section of the
    /// main artifact) let `bench_diff` compare two runs' metrics directories
    /// without parsing figure-specific payloads.
    pub fn write_metrics(&self, name: &str, metrics: &Json) -> io::Result<PathBuf> {
        let dir = self.dir.join("metrics");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, metrics.render_pretty())?;
        Ok(path)
    }

    /// Write volatile execution telemetry as `<name>.meta.json`. `extra`
    /// key/value pairs (e.g. simulation-engine counters) are appended after
    /// the standard runner fields.
    pub fn write_meta(
        &self,
        name: &str,
        stats: &RunnerStats,
        threads: usize,
        wall: Duration,
        extra: Vec<(&str, Json)>,
    ) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{name}.meta.json"));
        let mut fields = vec![
            ("target", Json::Str(name.to_string())),
            ("wall_s", Json::Num(wall.as_secs_f64())),
            (
                "serial_equiv_s",
                Json::Num(stats.serial_equiv.as_secs_f64()),
            ),
            ("threads", Json::Num(threads as f64)),
            ("jobs", Json::Num(stats.jobs as f64)),
            ("cache_hits", Json::Num(stats.cache_hits as f64)),
            ("cache_misses", Json::Num(stats.cache_misses as f64)),
            ("failed_jobs", Json::Num(stats.failed as f64)),
        ];
        fields.extend(extra);
        let meta = Json::obj(fields);
        std::fs::write(&path, meta.render_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;

    #[test]
    fn writes_data_and_meta_side_by_side() {
        let tmp = TempDir::new("artifact");
        let w = ArtifactWriter::new(tmp.path());
        let data = Json::obj([("series", Json::nums([1.0, 2.0]))]);
        let data_path = w.write("fig_test", &data).unwrap();
        let meta_path = w
            .write_meta(
                "fig_test",
                &RunnerStats::default(),
                4,
                Duration::from_millis(1500),
                vec![("engine_events", Json::Num(123.0))],
            )
            .unwrap();
        assert_eq!(data_path, tmp.path().join("fig_test.json"));
        assert_eq!(meta_path, tmp.path().join("fig_test.meta.json"));
        let read_back = crate::json::parse(&std::fs::read_to_string(&data_path).unwrap());
        assert_eq!(read_back, Some(data));
        let meta = crate::json::parse(&std::fs::read_to_string(&meta_path).unwrap()).unwrap();
        assert_eq!(meta.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(meta.get("engine_events").unwrap().as_u64(), Some(123));
    }

    #[test]
    fn writes_metrics_under_metrics_subdir() {
        let tmp = TempDir::new("artifact_metrics");
        let w = ArtifactWriter::new(tmp.path());
        let metrics = Json::obj([("counters", Json::obj([("x", Json::Num(3.0))]))]);
        let path = w.write_metrics("fig_test", &metrics).unwrap();
        assert_eq!(path, tmp.path().join("metrics").join("fig_test.json"));
        let read_back = crate::json::parse(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(read_back, Some(metrics));
    }
}
