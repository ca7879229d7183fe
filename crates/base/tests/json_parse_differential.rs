//! The one-pass parser, and the tape it builds its tree from, against the
//! parser they replaced.
//!
//! `reference` below is that parser, kept verbatim as an oracle: every
//! container grows its own `Vec`, every string its own `String`, and every
//! number goes through `str::parse::<f64>`. On each input `json::parse` must
//! return the same `Option<Json>`, and equal documents must re-render to the
//! same bytes (`Json`'s equality cannot tell `-0` from `0`; the bytes can).
//! `Tape::parse` must accept the same inputs, and reading the tape through
//! `JsonRead` alone must give what the reference tree holds: every accessor
//! on every value (floats by their bits), the items and pairs in order, and
//! `get` the first pair of a key. The one allowed difference is the `\u`
//! fix: the reference takes a `+` after `\u` (`u16::from_str_radix` does),
//! the parser and the tape refuse it.
//!
//! Mutations that turn this file red: raising `FAST_DIGITS` to 20 (the
//! `u64` accumulator wraps on 18446744073709551616, which then reads as 0),
//! dropping the `continues` check (`1.5` stops after `1`), negating the
//! fast path's magnitude as `0.0 - magnitude` (`-0` becomes `0`), and a
//! tape `get` that returns the last of two pairs with one key (the seeded
//! documents repeat keys, and substituting `0` into the fixture's `"p99"`
//! makes a second `"p90"`).

mod common;

use common::seeded_documents;
use dmp_base::json::{self, Json, JsonRead, Tape, Value};

const RUN_SUMMARY: &str = include_str!("fixtures/run_summary.json");

/// The parent commit's parser.
mod reference {
    use dmp_base::json::{Json, MAX_DEPTH};

    pub fn parse(input: &str) -> Option<Json> {
        let mut p = Parser {
            src: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos == input.len() {
            Some(value)
        } else {
            None
        }
    }

    struct Parser<'a> {
        src: &'a str,
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.src.as_bytes().get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Option<()> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Some(())
            } else {
                None
            }
        }

        fn eat_lit(&mut self, lit: &str) -> Option<()> {
            if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Some(())
            } else {
                None
            }
        }

        fn value(&mut self) -> Option<Json> {
            match self.peek()? {
                b'n' => self.eat_lit("null").map(|_| Json::Null),
                b't' => self.eat_lit("true").map(|_| Json::Bool(true)),
                b'f' => self.eat_lit("false").map(|_| Json::Bool(false)),
                b'"' => self.string().map(Json::Str),
                b'[' => self.nested(Self::array),
                b'{' => self.nested(Self::object),
                b'-' | b'0'..=b'9' => self.number(),
                _ => None,
            }
        }

        fn nested(&mut self, container: fn(&mut Self) -> Option<Json>) -> Option<Json> {
            if self.depth == MAX_DEPTH {
                return None;
            }
            self.depth += 1;
            let value = container(self);
            self.depth -= 1;
            value
        }

        fn number(&mut self) -> Option<Json> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            self.src[start..self.pos].parse::<f64>().ok().map(Json::Num)
        }

        fn string(&mut self) -> Option<String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let run = self.pos;
                let delimiter = loop {
                    match self.peek()? {
                        b @ (b'"' | b'\\') => break b,
                        _ => self.pos += 1,
                    }
                };
                out.push_str(&self.src[run..self.pos]);
                self.pos += 1;
                if delimiter == b'"' {
                    return Some(out);
                }
                match self.peek()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let code = self.hex4_after_u()?;
                        out.push(char::from_u32(code as u32)?);
                        continue;
                    }
                    _ => return None,
                }
                self.pos += 1;
            }
        }

        fn hex4_after_u(&mut self) -> Option<u16> {
            self.pos += 1;
            let hex = self.src.get(self.pos..self.pos + 4)?;
            let code = u16::from_str_radix(hex, 16).ok()?;
            self.pos += 4;
            Some(code)
        }

        fn array(&mut self) -> Option<Json> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }

        fn object(&mut self) -> Option<Json> {
            self.eat(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Some(Json::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                pairs.push((key.into(), value));
                self.skip_ws();
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Some(Json::Obj(pairs));
                    }
                    _ => return None,
                }
            }
        }
    }
}

/// Whether `input` has a `+` right after a `\u`, the one thing the
/// reference accepts (`u16::from_str_radix` takes a sign) and the parser
/// refuses.
fn signed_unicode_escape(input: &str) -> bool {
    input.contains("\\u+")
}

/// Both parsers and the tape on `input`; returns whether it parsed.
fn agree(input: &str) -> bool {
    let new = json::parse(input);
    let old = reference::parse(input);
    let tape = Tape::parse(input);
    if new.is_none() && old.is_some() && signed_unicode_escape(input) {
        assert!(tape.is_none(), "the tape took a signed \\u in {input:?}");
        return false;
    }
    assert_eq!(new, old, "parsers disagree on {input:?}");
    assert_eq!(
        new.as_ref().map(Json::render),
        old.as_ref().map(Json::render),
        "equal documents render differently for {input:?}"
    );
    assert_eq!(
        tape.is_some(),
        old.is_some(),
        "the tape and the reference disagree on accepting {input:?}"
    );
    if let (Some(tape), Some(old)) = (&tape, &old) {
        reads_as(tape.root(), old, input);
    }
    new.is_some()
}

/// The tape value read through [`JsonRead`] against the reference's value:
/// every accessor, the items and the pairs in order, recursively, and for
/// each key, `get` must find the value of its first pair.
fn reads_as(tape: Value<'_>, tree: &Json, input: &str) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(bits(tape.as_f64()), bits(tree.as_f64()), "{input:?}");
    assert_eq!(tape.as_u64(), tree.as_u64(), "{input:?}");
    assert_eq!(tape.as_str(), tree.as_str(), "{input:?}");
    assert_eq!(tape.as_bool(), tree.as_bool(), "{input:?}");
    assert_eq!(tape.is_null(), *tree == Json::Null, "{input:?}");
    match tree {
        Json::Arr(items) => {
            let read: Vec<_> = tape.items().expect("an array").collect();
            assert_eq!(read.len(), items.len(), "{input:?}");
            for (t, j) in read.into_iter().zip(items) {
                reads_as(t, j, input);
            }
        }
        _ => assert!(tape.items().is_none(), "{input:?}"),
    }
    match tree {
        Json::Obj(pairs) => {
            let read: Vec<_> = tape.pairs().expect("an object").collect();
            assert_eq!(read.len(), pairs.len(), "{input:?}");
            for ((tk, tv), (jk, jv)) in read.into_iter().zip(pairs) {
                assert_eq!(tk, jk, "{input:?}");
                reads_as(tv, jv, input);
                let first = tree.get(jk).expect("the key is present");
                let got = tape.get(jk).expect("the key is present");
                assert_eq!(got.to_tree().render(), first.render(), "{input:?}");
            }
            assert!(tape.get("\u{0}absent").is_none(), "{input:?}");
        }
        _ => {
            assert!(tape.pairs().is_none(), "{input:?}");
            assert!(tape.get("").is_none(), "{input:?}");
        }
    }
}

#[test]
fn seeded_documents_parse_as_the_reference_does() {
    for doc in seeded_documents() {
        for text in [doc.render(), doc.render_pretty()] {
            assert!(agree(&text), "{text}");
        }
    }
}

#[test]
fn every_prefix_of_a_payload_parses_as_the_reference_does() {
    let pinned = RUN_SUMMARY.trim_end();
    let parsed = (0..=RUN_SUMMARY.len())
        .filter(|&end| agree(&RUN_SUMMARY[..end]))
        .count();
    // The whole payload, with or without its trailing newline.
    assert_eq!(parsed, RUN_SUMMARY.len() - pinned.len() + 1);
}

#[test]
fn single_byte_substitutions_parse_as_the_reference_does() {
    // Every structural byte, one of each kind of byte a number may hold
    // (a zero, another digit, sign, point, exponent), the first letters of
    // the literals, whitespace, and a byte that belongs nowhere. The
    // fixture is ASCII, so each result is a `str`.
    const SUBSTITUTES: &[u8] = b"\"\\,:[]{}09-+.entf x";
    assert!(RUN_SUMMARY.is_ascii());
    let mut text = RUN_SUMMARY.as_bytes().to_vec();
    let mut parsed = 0;
    for i in 0..text.len() {
        let original = text[i];
        for &b in SUBSTITUTES.iter().filter(|&&b| b != original) {
            text[i] = b;
            parsed += usize::from(agree(std::str::from_utf8(&text).expect("ASCII")));
        }
        text[i] = original;
    }
    // Digit-for-digit swaps, whitespace and in-string bytes keep parsing.
    assert!(parsed > 10_000, "only {parsed} substitutions parsed");
}

#[test]
fn the_number_grammar_parses_as_the_reference_does() {
    let two_53 = 1u64 << 53;
    let owned = [
        format!("{}", two_53 - 1),
        format!("{two_53}"),
        format!("{}", two_53 + 1),
        format!("-{}", two_53 + 1),
        "9".repeat(400),
        format!("0.{}1", "0".repeat(400)),
    ];
    let numbers = [
        "0",
        "-0",
        "-",
        "--1",
        "+1",
        ".5",
        "-.5",
        "00012",
        "-00012",
        "1-2",
        "1+2",
        "1e5",
        "1E5",
        "1e+5",
        "-1e-5",
        "1e",
        "1.5e",
        "1.",
        "1..2",
        "1e5.5",
        "0x10",
        "1.5",
        "-0.0",
        "999999999999999",
        "-999999999999999",
        "123456789012345",
        "1234567890123456",
        "12345678901234567",
        "1000000000000000",
        "18446744073709551615",
        "18446744073709551616",
        "0000000000000000000001",
    ];
    for number in numbers
        .iter()
        .copied()
        .chain(owned.iter().map(String::as_str))
    {
        for text in [
            number.to_string(),
            format!("[{number}]"),
            format!("[{number},{number}]"),
            format!("{{\"n\":{number}}}"),
            format!(" {number} "),
            format!("{number}x"),
        ] {
            agree(&text);
        }
    }
}

#[test]
fn only_a_signed_unicode_escape_is_refused_where_the_reference_took_it() {
    assert_eq!(reference::parse("\"\\u+041\""), Some(Json::Str("A".into())));
    assert_eq!(json::parse("\"\\u+041\""), None);
    assert!(Tape::parse("\"\\u+041\"").is_none());
    assert!(!agree("\"\\u-041\""));
    assert!(agree("\"\\u0041\""));
}
