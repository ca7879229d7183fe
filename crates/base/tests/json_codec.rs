//! The JSON codec's contracts: render/parse round-trip on seeded random
//! documents, digit-for-digit agreement with `Display for f64` (every
//! committed artifact and cache digest depends on it), byte-for-byte
//! agreement of both renderings with a plain reference renderer, parsing in
//! linear time, and a nesting limit instead of a stack overflow.

mod common;

use common::{document, number, string, Rng, FRAGMENTS, NUMBERS};
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
                out.push_str(&Json::Str(key.to_string()).render());
                out.push(':');
                reference_render(value, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.render()),
    }
}

/// The renderer written plainly: every string escaped byte by byte, every
/// number through `Display for f64`, both layouts. `render` and
/// `render_pretty` must write exactly its bytes.
mod plain {
    use dmp_base::json::Json;
    use std::fmt::Write as _;

    pub fn render(doc: &Json, indent: Option<usize>) -> String {
        let mut out = String::new();
        value(doc, indent, 0, &mut out);
        if indent.is_some() {
            out.push('\n');
        }
        out
    }

    fn value(doc: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
        match doc {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Num(v) if v.is_finite() => write!(out, "{v}").unwrap(),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => string(s, out),
            Json::Arr(items) => {
                let items: Vec<_> = items.iter().map(|v| (None, v)).collect();
                seq(&items, ('[', ']'), indent, depth, out);
            }
            Json::Obj(pairs) => {
                let pairs: Vec<_> = pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                seq(&pairs, ('{', '}'), indent, depth, out);
            }
        }
    }

    fn seq(
        items: &[(Option<&str>, &Json)],
        (open, close): (char, char),
        indent: Option<usize>,
        depth: usize,
        out: &mut String,
    ) {
        out.push(open);
        for (i, (key, item)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(step) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(step * (depth + 1)));
            }
            if let Some(key) = key {
                string(key, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
            }
            value(item, indent, depth + 1, out);
        }
        if let (Some(step), false) = (indent, items.is_empty()) {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
        out.push(close);
    }

    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\0'..='\u{1f}' => write!(out, "\\u{:04x}", u32::from(c)).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
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

/// Numbers at the edges of both number paths, and those JSON cannot hold.
const EDGE_NUMBERS: [f64; 15] = [
    0.0,
    -0.0,
    5e-324,
    -2.225_073_858_507_201e-308,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    -9_007_199_254_740_993.0,
    1e15,
    1e17,
    1e21,
    1e22,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A string that needs no escape, or one byte of a single escape class (or
/// 0x20, 0x7f, a non-ASCII letter) at any place of a clean run long enough
/// to span several of the scan's blocks.
fn clean_or_one_escape(rng: &mut Rng) -> String {
    let mut s: String = "abcdefghijklmnopqrstuvwxyz0123456789-._"
        .chars()
        .take(rng.below(48) as usize)
        .collect();
    if rng.below(3) > 0 {
        let class = rng.below(0x25) as u8;
        let c = match class {
            0..=0x1f => char::from(class),
            0x20 => ' ',
            0x21 => '"',
            0x22 => '\\',
            0x23 => '\u{7f}',
            _ => 'τ',
        };
        let at = rng.below(s.len() as u64 + 1) as usize;
        s.insert(at, c);
    }
    s
}

/// A tree whose keys and strings are drawn from both generators and whose
/// numbers include [`EDGE_NUMBERS`].
fn edge_tree(rng: &mut Rng, depth: usize) -> Json {
    let text = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            string(rng)
        } else {
            clean_or_one_escape(rng)
        }
    };
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(number(rng)),
        3 => Json::Num(rng.pick(&EDGE_NUMBERS)),
        4 => Json::Str(text(rng)),
        5 => Json::arr((0..rng.below(5)).map(|_| edge_tree(rng, depth - 1))),
        _ => Json::obj((0..rng.below(5)).map(|_| (text(rng), edge_tree(rng, depth - 1)))),
    }
}

/// Both renderings of seeded random trees are the plain renderer's bytes.
/// Letting the one-copy path take a string that holds 0x1f (`< 0x1f` in
/// `needs_escape`) turns it red, as does any other escape class dropped.
#[test]
fn both_renderings_match_the_plain_renderer_byte_for_byte() {
    let check = |doc: &Json| {
        assert_eq!(doc.render(), plain::render(doc, None));
        assert_eq!(doc.render_pretty(), plain::render(doc, Some(2)));
    };
    for seed in 1..=4u64 {
        let mut rng = Rng(seed.wrapping_mul(0xd1b5_4a32_d192_ed03));
        for _ in 0..500 {
            check(&edge_tree(&mut rng, 6));
        }
    }
    for b in 0..=0x7fu8 {
        let s = char::from(b).to_string();
        check(&Json::obj([(s.clone(), Json::Str(s))]));
    }
    for v in EDGE_NUMBERS {
        check(&Json::Num(v));
    }
    check(&Json::arr([]));
    check(&Json::obj::<_, String>([]));
    check(&json::parse(RUN_SUMMARY.trim_end()).expect("fixture parses"));
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
