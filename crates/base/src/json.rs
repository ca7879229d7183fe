//! Dependency-free JSON value with deterministic rendering.
//!
//! Artifacts and cache entries must be byte-identical across runs and thread
//! counts, so rendering is fully deterministic: object keys keep insertion
//! order (callers control it), `f64` uses Rust's shortest-roundtrip `Display`,
//! and non-finite floats render as `null` (JSON has no NaN/Inf).

use std::fmt::Write as _;

/// A JSON document. Objects preserve insertion order (no sorting, no maps) so
/// that rendering is deterministic and mirrors construction order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; rendered with shortest-roundtrip formatting.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Numeric array from `f64` values.
    pub fn nums<I: IntoIterator<Item = f64>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Json::Num).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which no `u64` holds. In
            // range, the cast truncates, so it round-trips only whole numbers.
            Json::Num(v) if *v >= 0.0 && *v < u64::MAX as f64 && (*v as u64) as f64 == *v => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation (still deterministic).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => render_num(*v, out),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                render_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].render_into(out, indent, d);
                });
            }
            Json::Obj(pairs) => {
                render_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    escape_into(&pairs[i].0, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.render_into(out, indent, d);
                });
            }
        }
    }
}

/// Whole numbers below 2^53 are most of a payload (counters, histogram
/// bucket pairs). Their shortest round-trip digits are the integer's own, so
/// they take a digit loop; everything else (`-0`, fractions, larger
/// magnitudes, where `Display` pads shortest digits with zeros) goes through
/// `Display for f64`. Both paths emit the same bytes.
fn render_num(v: f64, out: &mut String) {
    const EXACT: u64 = 1 << 53;
    let i = v as i64;
    if i as f64 == v && i.unsigned_abs() < EXACT && (i != 0 || v.is_sign_positive()) {
        if i < 0 {
            out.push('-');
        }
        push_digits(i.unsigned_abs(), out);
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The decimal digits of `n`, as `Display for u64` writes them.
fn push_digits(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &digit in &buf[start..] {
        out.push(char::from(digit));
    }
}

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            push_spaces(step * (depth + 1), out);
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        push_spaces(step * depth, out);
    }
    out.push(close);
}

/// `n` spaces of indentation, pushed in runs instead of one char at a time.
fn push_spaces(mut n: usize, out: &mut String) {
    const SPACES: &str = "                                ";
    while n > 0 {
        let run = n.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        n -= run;
    }
}

/// `s` as a JSON string literal. Runs between escapes are copied whole, so a
/// string with nothing to escape is one copy. Every escaped byte is ASCII,
/// which makes each cut a char boundary.
fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses per
/// level, so without a bound a file of `[`s overflows the stack and aborts
/// the process; a `RunSummary` payload nests 6 deep.
pub const MAX_DEPTH: usize = 128;

/// Longest integer literal [`parse`] accumulates in a `u64`: below 10^15 <
/// 2^53 the conversion to `f64` is exact, so it yields `str::parse`'s bits.
const FAST_DIGITS: usize = 15;

/// Parse a JSON document in one linear pass. Returns `None` on any syntax
/// error or nesting beyond [`MAX_DEPTH`] (the cache treats unparseable files
/// as misses, never as panics).
///
/// Array items and object pairs collect on two stacks the parse owns; each
/// finished container moves out of its stack into one exact-size `Vec`.
pub fn parse(input: &str) -> Option<Json> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
        items: Vec::new(),
        pairs: Vec::new(),
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
    /// Arrays and objects currently open.
    depth: usize,
    /// Items of the open arrays, innermost on top.
    items: Vec<Json>,
    /// Pairs of the open objects, innermost on top.
    pairs: Vec<(String, Json)>,
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

    /// A number the way `str::parse::<f64>` reads the longest run of number
    /// characters. A plain integer of at most [`FAST_DIGITS`] digits is
    /// accumulated on the way instead; anything else is rescanned.
    fn number(&mut self) -> Option<Json> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let digits_start = start + usize::from(negative);
        let mut end = digits_start;
        let mut n = 0u64;
        while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            end += 1;
        }
        let digits = end - digits_start;
        let continues = matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if (1..=FAST_DIGITS).contains(&digits) && !continues {
            self.pos = end;
            let magnitude = n as f64;
            return Some(Json::Num(if negative { -magnitude } else { magnitude }));
        }
        self.pos = digits_start;
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
            // Copy the run up to the next delimiter in one piece (a string
            // without escapes is one exact allocation). Both delimiters are
            // ASCII, so the cut is a char boundary.
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
                    // Accept lone escapes only for BMP scalars; this
                    // renderer never emits surrogate pairs.
                    out.push(char::from_u32(code as u32)?);
                    continue;
                }
                _ => return None,
            }
            self.pos += 1;
        }
    }

    /// The four hex digits after `\u`, exactly four: no sign, no fewer.
    fn hex4_after_u(&mut self) -> Option<u16> {
        // self.pos is at 'u'
        self.pos += 1;
        let hex = self.src.as_bytes().get(self.pos..self.pos + 4)?;
        let mut code = 0u16;
        for &b in hex {
            code = code << 4 | char::from(b).to_digit(16)? as u16;
        }
        self.pos += 4;
        Some(code)
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Json::Arr(Vec::new()));
        }
        let base = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(self.items.drain(base..).collect()));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(Vec::new()));
        }
        let base = self.pairs.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.pairs.push((key, value));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(self.pairs.drain(base..).collect()));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let doc = Json::obj([
            ("name", Json::Str("fig8 τ-sweep \"quick\"".into())),
            ("ok", Json::Bool(true)),
            ("vals", Json::nums([1.5, -0.25, 3e-7, 42.0])),
            (
                "nested",
                Json::obj([("empty", Json::arr([])), ("null", Json::Null)]),
            ),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&text).expect("parses"), doc);
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let doc = Json::obj([("a", Json::Num(0.1 + 0.2)), ("b", Json::Num(1e300))]);
        assert_eq!(doc.render(), doc.render());
        // Shortest-roundtrip: parsing the rendering recovers the exact bits.
        let back = parse(&doc.render()).unwrap();
        assert_eq!(back.get("a").unwrap().as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn non_finite_renders_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn malformed_inputs_return_none() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{}{}",
        ] {
            assert!(parse(bad).is_none(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse("\"\\u0041\""), Some(Json::Str("A".into())));
        assert_eq!(parse("\"\\u00e9\\u00C9\""), Some(Json::Str("éÉ".into())));
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
            "\"\\u",
        ] {
            assert_eq!(parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn as_u64_refuses_what_no_u64_holds() {
        // The largest f64 below 2^64, and 2^64 itself.
        let largest = 18_446_744_073_709_549_568.0;
        assert_eq!(
            Json::Num(largest).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        for v in [-1.0, 0.5, -0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(Json::Num(v).as_u64(), None, "{v}");
        }
        assert_eq!(Json::Num(-0.0).as_u64(), Some(0));
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"n": 3, "s": "x", "b": false, "a": [1, 2]}"#).unwrap();
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
    }
}
