//! "A corrupt cache can only cost time": whatever sits at an entry's path,
//! `Cache::load` answers with the stored payload or with a miss, never with
//! a panic, an abort or another payload.

use dmp_runner::hash::{hex_digest, word_digest};
use dmp_runner::test_util::TempDir;
use dmp_runner::{Cache, Json};
use std::path::PathBuf;

const SALT: &str = "corruption-τ";

fn payload() -> Json {
    Json::obj([
        ("mean", Json::Num(0.25)),
        ("label", Json::Str("τ \"quick\"".into())),
        (
            "buckets",
            Json::arr([Json::nums([1.0, 0.0, 3.0]), Json::Null]),
        ),
    ])
}

/// A cache, one of its keys, and the documented path of that key's entry.
fn entry(tmp: &TempDir) -> (Cache, String, PathBuf) {
    let cache = Cache::with_salt(tmp.path(), SALT);
    let key = cache.key("spec{duration=300}", 7);
    let path = tmp.path().join(&key[0..2]).join(format!("{key}.json"));
    (cache, key, path)
}

#[test]
fn every_prefix_and_every_bit_flip_of_an_entry_is_a_miss() {
    let tmp = TempDir::new("cache-flips");
    let (cache, key, path) = entry(&tmp);
    cache.store(&key, &payload());
    let intact = std::fs::read(&path).unwrap();
    assert_eq!(cache.load(&key), Some(payload()));

    for len in 0..intact.len() {
        std::fs::write(&path, &intact[..len]).unwrap();
        assert_eq!(cache.load(&key), None, "prefix of {len} bytes");
    }
    for at in 0..intact.len() {
        for bit in 0..8 {
            let mut flipped = intact.clone();
            flipped[at] ^= 1 << bit;
            std::fs::write(&path, &flipped).unwrap();
            assert_eq!(cache.load(&key), None, "bit {bit} of byte {at}");
        }
    }

    let attempts = (intact.len() * 9) as u64;
    assert_eq!(cache.counters(), (1, attempts));
    std::fs::write(&path, &intact).unwrap();
    assert_eq!(cache.load(&key), Some(payload()));
}

#[test]
fn v1_envelope_is_a_miss_and_the_next_store_replaces_it() {
    let tmp = TempDir::new("cache-v1");
    let (cache, key, path) = entry(&tmp);
    // What format 1 wrote for this key: one pretty envelope, the checksum
    // taken over the payload's compact render.
    let v1 = Json::obj([
        ("v", Json::Num(1.0)),
        ("salt", Json::Str(SALT.into())),
        ("key", Json::Str(key.clone())),
        ("crc", Json::Str(hex_digest(payload().render().as_bytes()))),
        ("payload", payload()),
    ]);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    for text in [v1.render_pretty(), v1.render()] {
        std::fs::write(&path, text).unwrap();
        assert_eq!(cache.load(&key), None, "format 1 is no longer read");
    }

    cache.store(&key, &payload());
    assert_eq!(cache.load(&key), Some(payload()));
    let stored = std::fs::read_to_string(&path).unwrap();
    assert!(stored.starts_with("{\"v\":3,"), "{stored}");
    assert_eq!(stored.lines().count(), 2);
}

#[test]
fn header_fields_are_each_checked() {
    let tmp = TempDir::new("cache-header");
    let (cache, key, path) = entry(&tmp);
    let body = payload().render();
    let write = |v: &str, salt: &str, key: &str, crc: &str, body: &str| {
        let header =
            format!("{{\"v\":{v},\"salt\":\"{salt}\",\"key\":\"{key}\",\"crc\":\"{crc}\"}}");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{header}\n{body}")).unwrap();
    };
    let crc = word_digest(body.as_bytes());
    let other_key = cache.key("spec{duration=301}", 7);

    write("3", SALT, &key, &crc, &body);
    assert_eq!(cache.load(&key), Some(payload()), "hand-written entry hits");
    for (what, v, salt, k, c, b) in [
        ("version", "2", SALT, &key, &crc, &body),
        ("salt", "3", "other", &key, &crc, &body),
        ("key", "3", SALT, &other_key, &crc, &body),
        ("checksum", "3", SALT, &key, &word_digest(b"else"), &body),
        (
            "format 2's checksum",
            "3",
            SALT,
            &key,
            &hex_digest(body.as_bytes()),
            &body,
        ),
        (
            "payload",
            "3",
            SALT,
            &key,
            &word_digest(b"{\"mean\":"),
            &"{\"mean\":".to_string(),
        ),
    ] {
        write(v, salt, k, c, b);
        assert_eq!(cache.load(&key), None, "wrong {what} must miss");
    }
}

#[test]
fn deeply_nested_entries_are_misses_on_a_small_stack() {
    let tmp = TempDir::new("cache-deep");
    let held = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let (cache, key, path) = entry(&tmp);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            for hostile in ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 18)] {
                // As the whole file, as the header line, and as a payload
                // whose header verifies, so that `load` goes on to parse it.
                let crc = word_digest(hostile.as_bytes());
                let header =
                    format!("{{\"v\":3,\"salt\":\"{SALT}\",\"key\":\"{key}\",\"crc\":\"{crc}\"}}");
                for text in [
                    hostile.clone(),
                    format!("{hostile}\n{hostile}"),
                    format!("{header}\n{hostile}"),
                ] {
                    std::fs::write(&path, text).unwrap();
                    if cache.load(&key).is_some() {
                        return false;
                    }
                }
            }
            true
        })
        .expect("spawn")
        .join()
        .expect("no panic, no overflow");
    assert!(held);
}
