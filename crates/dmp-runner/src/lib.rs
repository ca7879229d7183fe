//! # dmp-runner — parallel experiment orchestration
//!
//! Infrastructure shared by every reproduction target in this workspace:
//!
//! * [`runner::Runner`] executes batches of pure, seeded [`runner::JobSpec`]s
//!   on a work-stealing thread pool ([`pool`]), with deterministic result
//!   ordering regardless of thread count and per-job panic isolation (a
//!   panicking job becomes a [`runner::CellValue::Failed`] cell; the sweep
//!   completes).
//! * [`cache::Cache`] is a content-addressed on-disk result cache keyed by
//!   `hash(config repr, seed, code-version salt)`, so re-running `dmp-bench all`
//!   recomputes only what changed and interrupted sweeps resume where they
//!   stopped. Corrupt or stale entries are misses, never errors. The config
//!   repr is derived by [`runner::JobSpec::keyed`] from the job's input and
//!   payload types and the input's `Debug`; no key is written by hand.
//! * [`artifact::ArtifactWriter`] emits one structured JSON file per
//!   figure/table under `target/artifacts/`, split into a deterministic data
//!   payload and a volatile `.meta.json` telemetry sidecar.
//! * [`json::Json`], [`JsonCodec`] and [`hash::StableHasher`] (cache-entry
//!   and artifact values, cache-key digest) are `dmp-base`'s, re-exported.
//!
//! Environment knobs: `DMP_THREADS`, `DMP_CACHE_DIR`, `DMP_NO_CACHE=1`,
//! `DMP_ARTIFACT_DIR`, `DMP_QUIET=1`.

#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod pool;
pub mod runner;

#[doc(hidden)]
pub mod test_util;

pub use artifact::ArtifactWriter;
pub use cache::Cache;
pub use dmp_base::{hash, json, Json, JsonCodec, JsonRead};
pub use runner::{Cell, CellValue, JobSpec, Runner, RunnerStats};
