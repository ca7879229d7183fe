//! # dmp-base — the leaf under every layer
//!
//! What the packet simulator, the observability layer, the scheme crate and
//! the job runner all need, and nothing that runs jobs: the [`Json`] value
//! with deterministic rendering, the flat [`json::Tape`] a cache hit is read
//! from, the [`JsonCodec`] round-trip contract, whose decoders read a tree
//! or a tape through one [`JsonRead`] body, the fixed FNV-1a
//! [`hash::StableHasher`] behind cache keys and scenario hashes, and [`Distribution`] (mean/percentiles of a sample or of mergeable
//! histogram state). It depends on nothing; `dmp-runner` and `dmp-core`
//! re-export these names under their historical paths.

#![warn(missing_docs)]

mod codec;
mod distribution;
pub mod hash;
pub mod json;

pub use codec::JsonCodec;
pub use distribution::Distribution;
pub use json::{Json, JsonRead};
