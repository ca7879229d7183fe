//! The JSON codec's contracts: render/parse round-trip on seeded random
//! documents, digit-for-digit agreement with `Display for f64` (every
//! committed artifact and cache digest depends on it), parsing in linear
//! time, and a nesting limit instead of a stack overflow.

mod common;

use common::{document, number, Rng, FRAGMENTS, NUMBERS};
use dmp_base::json::{self, Json, MAX_DEPTH};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The renderer as it was before the whole-number fast path: every number
/// through `Display for f64`. Compact form only.
fn reference_render(doc: &Json, out: &mut String) {
    match doc {
        Json::Num(v) if v.is_finite() => write!(out, "{v}").unwrap(),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_render(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&Json::Str(key.clone()).render());
                out.push(':');
                reference_render(value, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.render()),
    }
}

fn assert_round_trips(doc: &Json) {
    let compact = doc.render();
    let mut reference = String::new();
    reference_render(doc, &mut reference);
    assert_eq!(compact, reference, "digits drifted from Display for f64");

    let back = json::parse(&compact).unwrap_or_else(|| panic!("does not parse: {compact}"));
    assert_eq!(&back, doc, "parse(render(x)) != x for {compact}");
    // `Json`'s equality cannot tell -0 from 0; the bytes can.
    assert_eq!(back.render(), compact, "render(parse(render(x))) moved");
    assert_eq!(
        json::parse(&doc.render_pretty()).as_ref(),
        Some(doc),
        "parse(render_pretty(x)) != x for {compact}"
    );
}

#[test]
fn seeded_documents_round_trip_byte_for_byte() {
    for seed in 1..=4u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for _ in 0..500 {
            assert_round_trips(&document(&mut rng, 6));
        }
    }
    for v in NUMBERS {
        assert_round_trips(&Json::Num(v));
    }
    for s in FRAGMENTS {
        assert_round_trips(&Json::obj([(s, Json::Str(s.into()))]));
    }
    assert_eq!(Json::Num(-0.0).render(), "-0");
    assert_eq!(Json::Str("\u{0001}τ".into()).render(), "\"\\u0001τ\"");
}

#[test]
fn whole_numbers_render_as_display_does() {
    let mut rng = Rng(2008);
    let check = |v: f64| assert_eq!(Json::Num(v).render(), format!("{v}"), "{v:e}");
    for exp in 0..64 {
        let power = (1u64 << exp) as f64;
        for v in [power - 1.0, power, power + 1.0] {
            check(v);
            check(-v);
        }
    }
    for digits in 1..=19 {
        let ten = 10f64.powi(digits);
        for v in [ten - 1.0, ten, ten + 1.0] {
            check(v);
            check(-v);
        }
    }
    for _ in 0..20_000 {
        check(number(&mut rng));
    }
}

/// A real `RunSummary` payload (Setting 2-2, seed 2008) as the parent
/// commit rendered it, every number through `Display for f64`.
const RUN_SUMMARY: &str = include_str!("fixtures/run_summary.json");

#[test]
fn run_summary_golden_renders_to_the_pinned_bytes() {
    let pinned = RUN_SUMMARY.trim_end();
    let doc = json::parse(pinned).expect("fixture parses");
    assert_eq!(doc.render(), pinned);
    assert_round_trips(&doc);
}

fn nested(open: &str, close: &str, depth: usize) -> String {
    format!("{}{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn nesting_is_accepted_up_to_the_limit_and_refused_beyond() {
    // (opening text, closing text, levels each repetition opens)
    for (open, close, levels) in [("[", "]", 1), ("{\"a\":[", "]}", 2)] {
        let at_limit = nested(open, close, MAX_DEPTH / levels);
        let doc = json::parse(&at_limit).expect("nesting at the limit parses");
        assert_eq!(doc.render(), at_limit);
        assert_round_trips(&doc);
        assert_eq!(
            json::parse(&nested(open, close, MAX_DEPTH / levels + 1)),
            None
        );
    }
}

#[test]
fn unbounded_nesting_is_refused_on_a_small_stack() {
    // The parser recurses per level: without the limit a megabyte of `[`
    // overflows even the main thread's stack, which aborts the process.
    let held = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let hostile = [
                "[".repeat(1 << 20),
                "{\"a\":".repeat(1 << 18),
                nested("[", "]", MAX_DEPTH + 1),
            ];
            let refused = hostile.iter().all(|text| json::parse(text).is_none());
            // The limit itself must fit the same stack.
            refused && json::parse(&nested("[", "]", MAX_DEPTH)).is_some()
        })
        .expect("spawn")
        .join()
        .expect("no panic, no overflow");
    assert!(held);
}

/// The quadratic scan this guards against re-validated the rest of the input
/// for every character: minutes for these sizes, against milliseconds.
const LINEAR_BUDGET: Duration = Duration::from_secs(10);

#[test]
fn many_short_strings_parse_in_linear_time() {
    let items: Vec<String> = (0..200_000).map(|i| format!("\"key-{i:011}τ\"")).collect();
    let text = format!("[{}]", items.join(","));
    assert!(text.len() >= 4_000_000);
    let start = Instant::now();
    let doc = json::parse(&text).expect("parses");
    assert!(start.elapsed() < LINEAR_BUDGET, "{:?}", start.elapsed());
    assert_eq!(doc.as_arr().map(<[Json]>::len), Some(200_000));
}

#[test]
fn one_long_string_parses_in_linear_time() {
    let body = "τ\\n01234567".repeat(200_000);
    let text = format!("\"{body}\"");
    assert!(text.len() >= 2_000_000);
    let start = Instant::now();
    let doc = json::parse(&text).expect("parses");
    assert!(start.elapsed() < LINEAR_BUDGET, "{:?}", start.elapsed());
    assert_eq!(doc.as_str().map(str::len), Some(11 * 200_000));
}
