//! A format-2 cache entry written before hits were decoded from a tape is
//! still a hit, and replays its payload byte for byte.
//!
//! The entry is written here the way that writer wrote it: its header
//! rendered by hand, `{"v":2,"salt":…,"key":…,"crc":…}`, above the pinned
//! `RunSummary` payload. A `Runner` job with the entry's key must be served
//! from it without running, and re-encode to exactly the stored bytes.

use dmp_runner::cache::CODE_SALT;
use dmp_runner::hash::hex_digest;
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, JobSpec, JsonCodec, Runner};
use dmp_sim::experiment::RunSummary;

const RUN_SUMMARY: &str = include_str!("../../base/tests/fixtures/run_summary.json");

#[test]
fn a_format_2_entry_is_a_hit_that_replays_its_bytes() {
    let payload = RUN_SUMMARY.trim_end();
    let tmp = TempDir::new("format-2-entry");
    let job = JobSpec::keyed("fixture", "format 2", 2008, |_| -> RunSummary {
        panic!("a hit never runs its job")
    });
    let cache = Cache::new(tmp.path());
    let key = cache.key(&job.config_repr, job.seed);
    // Every workspace crate shares one version, the salt's prefix.
    let salt = format!("{}/{CODE_SALT}", env!("CARGO_PKG_VERSION"));
    let crc = hex_digest(payload.as_bytes());
    let header = format!("{{\"v\":2,\"salt\":\"{salt}\",\"key\":\"{key}\",\"crc\":\"{crc}\"}}");
    let path = tmp.path().join(&key[..2]).join(format!("{key}.json"));
    std::fs::create_dir_all(path.parent().expect("a fan-out directory")).expect("mkdir");
    std::fs::write(&path, format!("{header}\n{payload}")).expect("write the entry");

    let runner = Runner::new(1, cache).with_progress(false);
    let cells = runner.run_all(vec![job]);
    assert!(cells[0].from_cache, "the entry was not a hit");
    let summary = cells[0].ok().expect("a hit carries a value");
    assert_eq!(summary.to_json().render(), payload);
    assert_eq!(runner.cache().counters(), (1, 0));
}
