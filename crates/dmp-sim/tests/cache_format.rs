//! The cache's entry format on disk, written by hand above the pinned
//! `RunSummary` payload: a format-3 entry (`{"v":3,"salt":…,"key":…,"crc":…}`,
//! `crc` the word-wise digest) is a hit that replays its payload byte for
//! byte; a format-2 entry (`"v":2`, `crc` the byte-serial digest) is a miss
//! that the run overwrites with a format-3 one.

use dmp_runner::cache::CODE_SALT;
use dmp_runner::hash::{hex_digest, word_digest};
use dmp_runner::json::Tape;
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, JobSpec, JsonCodec, Runner};
use dmp_sim::experiment::RunSummary;
use std::path::PathBuf;

const RUN_SUMMARY: &str = include_str!("../../base/tests/fixtures/run_summary.json");

/// The fixture's payload, as a stored entry holds it.
fn payload() -> &'static str {
    RUN_SUMMARY.trim_end()
}

/// Writes `version`'s entry for a job keyed like the fixture's under `cache`
/// and returns the job (which returns the fixture, decoded, if it runs) and
/// the entry's path.
fn write_entry(
    cache: &Cache,
    dir: &TempDir,
    version: u8,
    crc: &str,
) -> (JobSpec<RunSummary>, PathBuf) {
    let job = JobSpec::keyed("fixture", "format", 2008, |_| -> RunSummary {
        let tape = Tape::parse(payload()).expect("the fixture scans");
        RunSummary::from_json(tape.root()).expect("the fixture decodes")
    });
    let key = cache.key(&job.config_repr, job.seed);
    // Every workspace crate shares one version, the salt's prefix.
    let salt = format!("{}/{CODE_SALT}", env!("CARGO_PKG_VERSION"));
    let header =
        format!("{{\"v\":{version},\"salt\":\"{salt}\",\"key\":\"{key}\",\"crc\":\"{crc}\"}}");
    let path = dir.path().join(&key[..2]).join(format!("{key}.json"));
    std::fs::create_dir_all(path.parent().expect("a fan-out directory")).expect("mkdir");
    std::fs::write(&path, format!("{header}\n{}", payload())).expect("write the entry");
    (job, path)
}

#[test]
fn a_format_3_entry_is_a_hit_that_replays_its_bytes() {
    let tmp = TempDir::new("format-3-entry");
    let cache = Cache::new(tmp.path());
    let (job, path) = write_entry(&cache, &tmp, 3, &word_digest(payload().as_bytes()));
    let written = std::fs::read(&path).expect("the entry");

    let runner = Runner::new(1, cache).with_progress(false);
    let cells = runner.run_all(vec![job]);
    assert!(cells[0].from_cache, "the entry was not a hit");
    let summary = cells[0].ok().expect("a hit carries a value");
    assert_eq!(summary.to_json().render(), payload());
    assert_eq!(runner.cache().counters(), (1, 0));
    assert_eq!(std::fs::read(&path).expect("the entry"), written);
}

#[test]
fn a_format_2_entry_is_a_miss_that_the_run_overwrites() {
    let tmp = TempDir::new("format-2-entry");
    let cache = Cache::new(tmp.path());
    let (job, path) = write_entry(&cache, &tmp, 2, &hex_digest(payload().as_bytes()));

    let runner = Runner::new(1, cache).with_progress(false);
    let cells = runner.run_all(vec![job]);
    assert!(!cells[0].from_cache, "a format-2 entry was served");
    assert_eq!(runner.cache().counters(), (0, 1));
    let stored = std::fs::read_to_string(&path).expect("the entry");
    let (header, body) = stored.split_once('\n').expect("two lines");
    assert!(header.starts_with("{\"v\":3,"), "{header}");
    assert!(
        header.ends_with(&format!(
            "\"crc\":\"{}\"}}",
            word_digest(payload().as_bytes())
        )),
        "{header}"
    );
    assert_eq!(body, payload());
}
