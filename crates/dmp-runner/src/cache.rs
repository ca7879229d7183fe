//! Content-addressed on-disk result cache.
//!
//! Key = hash(config representation, seed, code-version salt). The
//! representation is [`crate::JobSpec::keyed`]'s — input and payload type
//! names plus the input's `Debug` — so a new field or a new job family can
//! never be served an old entry. What the representation cannot see is a
//! change of the *code*: bump [`CODE_SALT`] whenever a cached computation's
//! output changes for the same input; it is the one invalidation point, and
//! `DMP_NO_CACHE=1` re-measures without touching it. Entries live
//! one-per-file, two lines each: a header `{"v":3,"salt":…,"key":…,"crc":…}`,
//! then the payload's compact render. `crc` is [`word_digest`] of the
//! payload bytes as stored, which reads them eight at a time, so a lookup
//! writes the header `store` would have written above those bytes under this
//! salt and key, and compares it with the first line byte for byte — the
//! header is never parsed —, then scans only the payload, into a
//! [`json::Tape`] that borrows the file's text, and decodes from that: a hit
//! is one read, one word-wise digest pass, one scan into one node array, and
//! no `Json` tree ([`Cache::load`], which returns the tree, builds it from
//! the same tape). Any mismatch, truncation, parse or decode failure, or an
//! entry of another format version, is a *miss*, never an error — a corrupt
//! or stale cache can only cost time.
//!
//! Layout: `<dir>/<key[0..2]>/<key>.json` (fan-out keeps directories small).
//! Writes are atomic (`.tmp` + rename) so an interrupted sweep never leaves
//! a truncated entry that later reads would trust.

use crate::hash::{word_digest, StableHasher};
use crate::json::{self, Json, Tape, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry format version; bump when the on-disk layout changes (entries of
/// any other version are misses and get overwritten). Format 3 digests the
/// payload a word at a time.
const FORMAT_VERSION: f64 = 3.0;

/// Code-version salt: bump it whenever a cached computation's output
/// changes for the same input (the input itself is in the key).
pub const CODE_SALT: &str = "dmp-runner-2026-10-a";

/// Handle to a cache directory (cheap to clone; counters are shared).
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    salt: String,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Cache {
    /// Cache rooted at `dir` with the default code-version salt.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_salt(dir, default_salt())
    }

    /// Cache rooted at `dir` with an explicit salt (tests use this to model
    /// "code changed since this entry was written").
    pub fn with_salt(dir: impl Into<PathBuf>, salt: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            salt: salt.into(),
            enabled: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache configured from the environment:
    /// `DMP_CACHE_DIR` overrides the location (default `target/dmp-cache`),
    /// `DMP_NO_CACHE=1` disables reads and writes.
    pub fn from_env() -> Self {
        let dir = std::env::var_os("DMP_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(default_dir);
        let mut cache = Self::new(dir);
        if std::env::var("DMP_NO_CACHE").is_ok_and(|v| v == "1") {
            cache.enabled = false;
        }
        cache
    }

    /// A disabled cache: every lookup misses, stores are dropped.
    pub fn disabled() -> Self {
        let mut cache = Self::new(default_dir());
        cache.enabled = false;
        cache
    }

    /// Whether lookups/stores are active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Directory entries are written under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content key for a job: every byte of `config_repr`, the `seed`, and
    /// the code-version salt participate.
    pub fn key(&self, config_repr: &str, seed: u64) -> String {
        let mut h = StableHasher::new();
        h.write_str(&self.salt);
        h.write_str(config_repr);
        h.write_u64(seed);
        h.finish_hex()
    }

    /// Look up `key`; `Some(payload)` only for a well-formed entry written
    /// under the same salt. Increments the hit/miss counters.
    pub fn load(&self, key: &str) -> Option<Json> {
        self.load_with(key, |payload| Some(payload.to_tree()))
    }

    /// Look up `key` and decode its payload from the tape, without building
    /// a tree. An entry that verifies but does not decode is a miss like any
    /// other, counted once.
    pub fn load_with<T>(
        &self,
        key: &str,
        decode: impl FnOnce(Value<'_>) -> Option<T>,
    ) -> Option<T> {
        let text = self.read_entry(key);
        let result = text
            .as_deref()
            .and_then(|text| self.verified_payload(key, text))
            .and_then(|payload| decode(Tape::parse(payload)?.root()));
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn read_entry(&self, key: &str) -> Option<String> {
        if !self.enabled {
            return None;
        }
        std::fs::read_to_string(self.entry_path(key)).ok()
    }

    /// The payload line of an entry's `text`, if its header is the one
    /// [`store`](Self::store) writes above it under this salt and key.
    fn verified_payload<'t>(&self, key: &str, text: &'t str) -> Option<&'t str> {
        let (header, payload) = text.split_once('\n')?;
        (header == self.header(key, payload)).then_some(payload)
    }

    /// The header line [`store`](Self::store) writes above `payload`; a hit
    /// must carry exactly these bytes. Written field by field, it is the
    /// render of `{"v":…,"salt":…,"key":…,"crc":…}` as a [`Json`] object.
    fn header(&self, key: &str, payload: &str) -> String {
        let crc = word_digest(payload.as_bytes());
        let mut line = String::with_capacity(40 + self.salt.len() + key.len() + crc.len());
        line.push_str("{\"v\":");
        json::render_num(FORMAT_VERSION, &mut line);
        line.push_str(",\"salt\":");
        json::escape_into(&self.salt, &mut line);
        line.push_str(",\"key\":");
        json::escape_into(key, &mut line);
        line.push_str(",\"crc\":");
        json::escape_into(&crc, &mut line);
        line.push('}');
        line
    }

    /// Persist `payload` under `key`. I/O errors are swallowed (a read-only
    /// cache directory degrades to a no-op cache, it doesn't fail the sweep).
    pub fn store(&self, key: &str, payload: &Json) {
        if !self.enabled {
            return;
        }
        let path = self.entry_path(key);
        let Some(parent) = path.parent() else {
            return;
        };
        if std::fs::create_dir_all(parent).is_err() {
            return;
        }
        let payload = payload.render();
        let header = self.header(key, &payload);
        // Unique tmp name per thread so concurrent stores of different keys
        // (or even the same key) never interleave partial writes.
        let tmp = parent.join(format!(".{}.{:?}.tmp", key, std::thread::current().id()));
        if std::fs::write(&tmp, format!("{header}\n{payload}")).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// (hits, misses) observed through this handle.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let fan = key.get(0..2).unwrap_or("xx");
        self.dir.join(fan).join(format!("{key}.json"))
    }
}

fn default_salt() -> String {
    format!("{}/{}", env!("CARGO_PKG_VERSION"), CODE_SALT)
}

fn default_dir() -> PathBuf {
    if let Some(target) = std::env::var_os("CARGO_TARGET_DIR") {
        return PathBuf::from(target).join("dmp-cache");
    }
    PathBuf::from("target").join("dmp-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;

    fn payload() -> Json {
        Json::obj([("mean", Json::Num(0.25)), ("runs", Json::Num(3.0))])
    }

    #[test]
    fn store_then_load_round_trips() {
        let tmp = TempDir::new("cache-roundtrip");
        let cache = Cache::new(tmp.path());
        let key = cache.key("spec{duration=300}", 42);
        assert!(cache.load(&key).is_none(), "cold cache misses");
        cache.store(&key, &payload());
        assert_eq!(cache.load(&key), Some(payload()));
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn the_header_is_the_render_of_its_json_object() {
        let tmp = TempDir::new("cache-header");
        let salts = [
            default_salt(),
            "quote\"d".to_string(),
            "back\\slash".to_string(),
            "control\u{1}\n\t\u{1f}".to_string(),
            "non-ASCII τ é \u{1f3ac}".to_string(),
            String::new(),
        ];
        for salt in salts {
            let cache = Cache::with_salt(tmp.path(), salt.clone());
            for key in [cache.key("spec", 1), "k\"\\\u{0}\u{7f}τ".to_string()] {
                for payload in ["", "{\"mean\":0.25}"] {
                    let rendered = Json::obj([
                        ("v", Json::Num(FORMAT_VERSION)),
                        ("salt", Json::Str(salt.clone())),
                        ("key", Json::Str(key.clone())),
                        ("crc", Json::Str(word_digest(payload.as_bytes()))),
                    ])
                    .render();
                    assert_eq!(cache.header(&key, payload), rendered, "{salt:?} {key:?}");
                }
            }
        }
    }

    #[test]
    fn key_depends_on_every_input() {
        let tmp = TempDir::new("cache-keys");
        let cache = Cache::new(tmp.path());
        let base = cache.key("spec{duration=300,loss=0.01}", 42);
        // Any config field change produces a different key.
        assert_ne!(base, cache.key("spec{duration=301,loss=0.01}", 42));
        assert_ne!(base, cache.key("spec{duration=300,loss=0.02}", 42));
        // Seed changes produce a different key.
        assert_ne!(base, cache.key("spec{duration=300,loss=0.01}", 43));
        // Salt changes produce a different key.
        let other_salt = Cache::with_salt(tmp.path(), "other");
        assert_ne!(base, other_salt.key("spec{duration=300,loss=0.01}", 42));
    }

    #[test]
    fn stale_salt_entries_are_ignored() {
        let tmp = TempDir::new("cache-salt");
        let old = Cache::with_salt(tmp.path(), "code-v1");
        let new = Cache::with_salt(tmp.path(), "code-v2");
        // Force the same on-disk location despite differing salts, modelling
        // an entry left behind by an older build.
        let key = old.key("spec", 1);
        old.store(&key, &payload());
        assert_eq!(old.load(&key), Some(payload()));
        assert!(
            new.load(&key).is_none(),
            "entry written under a different salt must be a miss"
        );
    }

    #[test]
    fn corrupt_entries_are_misses_not_panics() {
        let tmp = TempDir::new("cache-corrupt");
        let cache = Cache::new(tmp.path());
        let key = cache.key("spec", 7);
        cache.store(&key, &payload());
        let path = tmp.path().join(&key[0..2]).join(format!("{key}.json"));

        for garbage in [
            "",                              // truncated to nothing
            "not json at all",               // unparseable
            "{\"v\":2}\n{}",                 // missing fields
            "{\"v\":99,\"salt\":\"x\"}\n{}", // wrong version
        ] {
            std::fs::write(&path, garbage).unwrap();
            assert!(cache.load(&key).is_none(), "garbage {garbage:?} must miss");
        }

        // Valid entry whose payload was tampered with: checksum rejects it.
        cache.store(&key, &payload());
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("0.25", "0.75");
        assert_ne!(text, tampered, "tamper target present");
        std::fs::write(&path, tampered).unwrap();
        assert!(cache.load(&key).is_none(), "bad checksum must miss");
    }

    #[test]
    fn disabled_cache_never_hits() {
        let tmp = TempDir::new("cache-disabled");
        let mut cache = Cache::new(tmp.path());
        cache.enabled = false;
        let key = cache.key("spec", 1);
        cache.store(&key, &payload());
        assert!(cache.load(&key).is_none());
    }
}
