//! Dependency-free JSON value with deterministic rendering, and one scanner
//! that reads it back.
//!
//! Artifacts and cache entries must be byte-identical across runs and thread
//! counts, so rendering is fully deterministic: object keys keep insertion
//! order (callers control it), `f64` uses Rust's shortest-roundtrip `Display`,
//! and non-finite floats render as `null` (JSON has no NaN/Inf).
//!
//! Writing is what a warm replay repeats for every cached result, so it
//! copies as little as it can: an object [`Key`] borrows a literal key
//! instead of allocating it, and [`escape_into`] writes a string with
//! nothing to escape in one piece.
//!
//! Reading has one grammar, in one scanner: [`Tape::parse`] writes a
//! document into a flat, borrowed [`Tape`] in one pass, and [`parse`] builds
//! the owned [`Json`] tree from that tape. Decoders read either through
//! [`JsonRead`], which `&Json` and the tape's [`Value`] both implement; a
//! cache hit decodes straight from the tape and never builds a tree.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Deref;

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
    Obj(Vec<(Key, Json)>),
}

/// An object key. A literal key is borrowed, so building an object from
/// literals allocates no key; a key read from a document or made at run
/// time (a metric name, a label) is owned. It reads as a `str`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key(Cow<'static, str>);

impl Key {
    /// The key's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&'static str> for Key {
    fn from(key: &'static str) -> Key {
        Key(Cow::Borrowed(key))
    }
}

impl From<String> for Key {
    fn from(key: String) -> Key {
        Key(Cow::Owned(key))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The quoted text, as a `String` key was written, so that a `Json`'s
/// `Debug` reads as before.
impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<Key> for str {
    fn eq(&self, other: &Key) -> bool {
        *self == *other.0
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<Key>,
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
        self.as_f64().and_then(whole_u64)
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
/// `Display for f64`. Both paths emit the same bytes, those
/// [`Json::render`] writes for `Json::Num(v)`.
pub fn render_num(v: f64, out: &mut String) {
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

/// Append `s` as a JSON string literal, the bytes [`Json::render`] writes
/// for `Json::Str(s)`. A string with no byte to escape (every key and almost
/// every value) is found by one pass and copied in one piece; otherwise the
/// runs between escapes are copied whole. Every escaped byte
/// is ASCII, which makes each cut a char boundary. Non-ASCII and 0x7f go out
/// as they are.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    if !needs_escape(s.as_bytes()) {
        out.push_str(s);
        out.push('"');
        return;
    }
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

/// Whether any byte of `bytes` is one [`escape_into`] escapes: a control
/// byte (`< 0x20`), `"` or `\`. An `or` over every byte, with no branch per
/// byte: on a payload's short keys it beat both the escaping loop and an
/// early-exit scan.
#[inline]
fn needs_escape(bytes: &[u8]) -> bool {
    bytes.iter().fold(false, |any, &b| {
        any | (b < 0x20) | (b == b'"') | (b == b'\\')
    })
}

/// Deepest array/object nesting [`Tape::parse`] accepts. The scanner
/// recurses per level, so without a bound a file of `[`s overflows the stack
/// and aborts the process; a `RunSummary` payload nests 6 deep.
pub const MAX_DEPTH: usize = 128;

/// Longest integer literal the scanner accumulates in a `u64`: below 10^15 <
/// 2^53 the conversion to `f64` is exact, so it yields `str::parse`'s bits.
const FAST_DIGITS: usize = 15;

/// Parse a JSON document into an owned tree. Returns `None` on any syntax
/// error or nesting beyond [`MAX_DEPTH`] (the cache treats unparseable files
/// as misses, never as panics).
///
/// The grammar is [`Tape::parse`]'s: the tree is built from the tape, each
/// container into one exact-size `Vec`.
pub fn parse(input: &str) -> Option<Json> {
    Tape::parse(input).map(|tape| tape.root().to_tree())
}

/// Read access to a parsed value, shared by the tree (`&Json`) and the tape
/// ([`Value`]), so a decoder has one body for both. `'a` is the lifetime of
/// the document the strings are borrowed from.
pub trait JsonRead<'a>: Copy {
    /// An array's items, in document order.
    type Items: Iterator<Item = Self>;
    /// An object's `(key, value)` pairs, in document order.
    type Pairs: Iterator<Item = (&'a str, Self)>;

    /// The value of the first pair with this key, if this is an object.
    fn get(self, key: &str) -> Option<Self>;
    /// Whether this is `null`.
    fn is_null(self) -> bool;
    /// Numeric value, if this is a number.
    fn as_f64(self) -> Option<f64>;
    /// String value, if this is a string.
    fn as_str(self) -> Option<&'a str>;
    /// Bool value, if this is a bool.
    fn as_bool(self) -> Option<bool>;
    /// The items, if this is an array.
    fn items(self) -> Option<Self::Items>;
    /// The pairs, if this is an object.
    fn pairs(self) -> Option<Self::Pairs>;

    /// Non-negative integer value, if this is a whole number.
    #[inline(always)]
    fn as_u64(self) -> Option<u64> {
        self.as_f64().and_then(whole_u64)
    }
}

/// `v` as a `u64`, if it is a whole number one holds.
#[inline(always)]
fn whole_u64(v: f64) -> Option<u64> {
    // `u64::MAX as f64` rounds up to 2^64, which no `u64` holds. In range,
    // the cast truncates, so it round-trips only whole numbers.
    (v >= 0.0 && v < u64::MAX as f64 && (v as u64) as f64 == v).then_some(v as u64)
}

impl<'a> JsonRead<'a> for &'a Json {
    type Items = std::slice::Iter<'a, Json>;
    type Pairs = TreePairs<'a>;

    fn get(self, key: &str) -> Option<Self> {
        Json::get(self, key)
    }
    fn is_null(self) -> bool {
        matches!(self, Json::Null)
    }
    fn as_f64(self) -> Option<f64> {
        Json::as_f64(self)
    }
    fn as_str(self) -> Option<&'a str> {
        Json::as_str(self)
    }
    fn as_bool(self) -> Option<bool> {
        Json::as_bool(self)
    }
    fn items(self) -> Option<Self::Items> {
        self.as_arr().map(<[Json]>::iter)
    }
    fn pairs(self) -> Option<Self::Pairs> {
        match self {
            Json::Obj(pairs) => Some(TreePairs(pairs.iter())),
            _ => None,
        }
    }
}

/// The pairs of a tree object, keys as `&str`.
#[derive(Debug, Clone)]
pub struct TreePairs<'a>(std::slice::Iter<'a, (Key, Json)>);

impl<'a> Iterator for TreePairs<'a> {
    type Item = (&'a str, &'a Json);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.as_str(), v))
    }
}

/// A parsed document as one flat array of nodes, borrowing its text.
///
/// One pass over the text writes every value into a node array sized up
/// front, in document order, a container ahead of its contents. A number is
/// parsed on the way to the exact bits `str::parse::<f64>` gives it; a
/// string is a byte range of the text, or of one side buffer if the literal
/// had escapes; a container records its item count and where it ends, so a
/// reader steps over it in O(1). Reading a value through [`Value`] allocates
/// nothing; [`parse`] builds its tree from the same tape.
#[derive(Debug)]
pub struct Tape<'a> {
    src: &'a str,
    nodes: Vec<Node>,
    /// The contents of the string literals that had escapes, decoded, one
    /// after the other.
    unescaped: String,
}

/// One value on a [`Tape`] (24 bytes).
#[derive(Debug, Clone, Copy)]
enum Node {
    Null,
    Bool(bool),
    Num(f64),
    /// A string's contents: `start..end` of the source text, or of the
    /// tape's unescaped text when the literal had escapes.
    Str {
        start: usize,
        end: usize,
        unescaped: bool,
    },
    /// `len` items follow, each one node or one container's nodes; `end` is
    /// the index one past the array's last node.
    Arr {
        len: usize,
        end: usize,
    },
    /// `len` pairs follow, each a `Str` key node, then the value's nodes.
    Obj {
        len: usize,
        end: usize,
    },
}

impl<'a> Tape<'a> {
    /// Scan `input` in one pass. Returns `None` on any syntax error or
    /// nesting beyond [`MAX_DEPTH`].
    pub fn parse(input: &'a str) -> Option<Tape<'a>> {
        let mut s = Scanner {
            pos: 0,
            depth: 0,
            tape: Tape {
                src: input,
                nodes: Vec::with_capacity(node_bound(input)),
                unescaped: String::new(),
            },
        };
        s.skip_ws();
        s.value()?;
        s.skip_ws();
        (s.pos == input.len()).then_some(s.tape)
    }

    /// The document's top-level value.
    pub fn root(&self) -> Value<'_> {
        Value { tape: self, at: 0 }
    }

    /// The value whose first node is at `*next`, as a tree; leaves `*next`
    /// one past its last node. The nodes are in document order, so this is
    /// one forward walk.
    fn tree(&self, next: &mut usize) -> Json {
        let at = *next;
        *next += 1;
        match self.nodes[at] {
            Node::Null => Json::Null,
            Node::Bool(b) => Json::Bool(b),
            Node::Num(v) => Json::Num(v),
            Node::Str { .. } => Json::Str(self.text(at).unwrap_or_default().to_owned()),
            Node::Arr { len, .. } => Json::Arr((0..len).map(|_| self.tree(next)).collect()),
            Node::Obj { len, .. } => Json::Obj(
                (0..len)
                    .map(|_| {
                        let key = self.text(*next).unwrap_or_default().to_owned();
                        *next += 1;
                        (Key::from(key), self.tree(next))
                    })
                    .collect(),
            ),
        }
    }

    /// The index one past the last node of the value at `at`.
    #[inline(always)]
    fn skip(&self, at: usize) -> usize {
        match self.nodes[at] {
            Node::Arr { end, .. } | Node::Obj { end, .. } => end,
            _ => at + 1,
        }
    }

    /// The contents of the string at `at`.
    #[inline(always)]
    fn text(&self, at: usize) -> Option<&str> {
        match self.nodes[at] {
            Node::Str {
                start,
                end,
                unescaped: false,
            } => Some(&self.src[start..end]),
            Node::Str { start, end, .. } => Some(&self.unescaped[start..end]),
            _ => None,
        }
    }
}

/// An upper bound on the nodes of a valid document: one for the top-level
/// value, one per object key (each follows a `:`), and one per container
/// item, each of which follows a `,` or its container's opening bracket.
/// Bytes inside strings only raise the bound. Counted in `u8` lanes over
/// chunks of at most 255 bytes, which the compiler vectorises.
fn node_bound(input: &str) -> usize {
    let count = |chunk: &[u8]| {
        chunk.iter().fold(0u8, |n, &b| {
            n + u8::from((b == b',') | (b == b':') | (b == b'[') | (b == b'{'))
        })
    };
    1 + input
        .as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(count(chunk)))
        .sum::<usize>()
}

/// A handle on one value of a [`Tape`]: what a cache hit is decoded
/// through.
#[derive(Debug, Clone, Copy)]
pub struct Value<'t> {
    tape: &'t Tape<'t>,
    at: usize,
}

impl<'t> Value<'t> {
    /// This value as an owned tree, every container in one exact-size `Vec`.
    pub fn to_tree(self) -> Json {
        self.tape.tree(&mut { self.at })
    }

    /// The values after this container's own node, up to `end`.
    #[inline(always)]
    fn children(self, end: usize) -> Items<'t> {
        Items {
            tape: self.tape,
            next: self.at + 1,
            end,
        }
    }
}

// The accessors are forced inline: the decoders that call them are
// instantiated in other crates, and out of line they left decoding a
// `Histogram` from the tape at 3.5× the cost of decoding it from the tree.
impl<'t> JsonRead<'t> for Value<'t> {
    type Items = Items<'t>;
    type Pairs = Pairs<'t>;

    #[inline(always)]
    fn get(self, key: &str) -> Option<Self> {
        self.pairs()?.find(|&(k, _)| k == key).map(|(_, v)| v)
    }
    #[inline(always)]
    fn is_null(self) -> bool {
        matches!(self.tape.nodes[self.at], Node::Null)
    }
    #[inline(always)]
    fn as_f64(self) -> Option<f64> {
        match self.tape.nodes[self.at] {
            Node::Num(v) => Some(v),
            _ => None,
        }
    }
    #[inline(always)]
    fn as_str(self) -> Option<&'t str> {
        self.tape.text(self.at)
    }
    #[inline(always)]
    fn as_bool(self) -> Option<bool> {
        match self.tape.nodes[self.at] {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }
    #[inline(always)]
    fn items(self) -> Option<Items<'t>> {
        match self.tape.nodes[self.at] {
            Node::Arr { end, .. } => Some(self.children(end)),
            _ => None,
        }
    }
    #[inline(always)]
    fn pairs(self) -> Option<Pairs<'t>> {
        match self.tape.nodes[self.at] {
            Node::Obj { end, .. } => Some(Pairs(self.children(end))),
            _ => None,
        }
    }
}

/// The items of a tape array.
#[derive(Debug, Clone)]
pub struct Items<'t> {
    tape: &'t Tape<'t>,
    next: usize,
    end: usize,
}

impl<'t> Iterator for Items<'t> {
    type Item = Value<'t>;

    #[inline(always)]
    fn next(&mut self) -> Option<Value<'t>> {
        if self.next >= self.end {
            return None;
        }
        let item = Value {
            tape: self.tape,
            at: self.next,
        };
        self.next = self.tape.skip(self.next);
        Some(item)
    }
}

/// The pairs of a tape object: each a key node, then a value.
#[derive(Debug, Clone)]
pub struct Pairs<'t>(Items<'t>);

impl<'t> Iterator for Pairs<'t> {
    type Item = (&'t str, Value<'t>);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let key = self.0.next()?.as_str()?;
        Some((key, self.0.next()?))
    }
}

/// The one JSON scanner: writes a [`Tape`].
struct Scanner<'a> {
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    tape: Tape<'a>,
}

impl Scanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.tape.src.as_bytes().get(self.pos).copied()
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

    fn eat_lit(&mut self, lit: &str, node: Node) -> Option<Node> {
        if self.tape.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(node)
        } else {
            None
        }
    }

    /// One value and everything in it, appended to the tape.
    fn value(&mut self) -> Option<()> {
        let node = match self.peek()? {
            b'n' => self.eat_lit("null", Node::Null)?,
            b't' => self.eat_lit("true", Node::Bool(true))?,
            b'f' => self.eat_lit("false", Node::Bool(false))?,
            b'"' => self.string()?,
            b'[' => return self.container(b']'),
            b'{' => return self.container(b'}'),
            b'-' | b'0'..=b'9' => Node::Num(self.number()?),
            _ => return None,
        };
        self.tape.nodes.push(node);
        Some(())
    }

    /// An array (`close` is `]`) or an object (`}`), from its opening
    /// bracket. Its node goes on the tape first and learns its length and
    /// end once the closing bracket is read.
    fn container(&mut self, close: u8) -> Option<()> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        self.pos += 1;
        let at = self.tape.nodes.len();
        self.tape.nodes.push(Node::Null);
        self.skip_ws();
        let mut len = 0;
        if self.eat(close).is_none() {
            loop {
                self.skip_ws();
                if close == b'}' {
                    let key = self.string()?;
                    self.tape.nodes.push(key);
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                }
                self.value()?;
                len += 1;
                self.skip_ws();
                match self.peek()? {
                    b',' => self.pos += 1,
                    b if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return None,
                }
            }
        }
        let end = self.tape.nodes.len();
        self.tape.nodes[at] = if close == b']' {
            Node::Arr { len, end }
        } else {
            Node::Obj { len, end }
        };
        self.depth -= 1;
        Some(())
    }

    /// A number the way `str::parse::<f64>` reads the longest run of number
    /// characters. A plain integer of at most [`FAST_DIGITS`] digits is
    /// accumulated on the way instead; anything else is rescanned.
    fn number(&mut self) -> Option<f64> {
        let src = self.tape.src;
        let bytes = src.as_bytes();
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
            return Some(if negative { -magnitude } else { magnitude });
        }
        self.pos = digits_start;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        src[start..self.pos].parse::<f64>().ok()
    }

    /// A string literal, from its opening quote. Without escapes it is the
    /// byte range between the quotes; the first escape moves it, decoded,
    /// onto the tape's unescaped text.
    fn string(&mut self) -> Option<Node> {
        self.eat(b'"')?;
        let src = self.tape.src;
        let start = self.pos;
        // Where the decoded contents begin, once an escape has been seen.
        let mut from = None;
        loop {
            // Both delimiters are ASCII, so every cut is a char boundary.
            let run = self.pos;
            let delimiter = loop {
                match self.peek()? {
                    b @ (b'"' | b'\\') => break b,
                    _ => self.pos += 1,
                }
            };
            let out = &mut self.tape.unescaped;
            if delimiter == b'"' && from.is_none() {
                self.pos += 1;
                return Some(Node::Str {
                    start,
                    end: self.pos - 1,
                    unescaped: false,
                });
            }
            let from = *from.get_or_insert(out.len());
            out.push_str(&src[run..self.pos]);
            self.pos += 1;
            if delimiter == b'"' {
                return Some(Node::Str {
                    start: from,
                    end: out.len(),
                    unescaped: true,
                });
            }
            let c = match self.peek()? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{0008}',
                b'f' => '\u{000c}',
                b'u' => {
                    let code = self.hex4_after_u()?;
                    // Accept lone escapes only for BMP scalars; this
                    // renderer never emits surrogate pairs.
                    self.tape.unescaped.push(char::from_u32(code as u32)?);
                    continue;
                }
                _ => return None,
            };
            self.tape.unescaped.push(c);
            self.pos += 1;
        }
    }

    /// The four hex digits after `\u`, exactly four: no sign, no fewer.
    fn hex4_after_u(&mut self) -> Option<u16> {
        // self.pos is at 'u'
        self.pos += 1;
        let hex = self.tape.src.as_bytes().get(self.pos..self.pos + 4)?;
        let mut code = 0u16;
        for &b in hex {
            code = code << 4 | char::from(b).to_digit(16)? as u16;
        }
        self.pos += 4;
        Some(code)
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
    fn the_tape_reads_what_the_tree_holds() {
        let text = r#"{"a":"x\"y","a":2,"b":[1,{"c":null}],"d":"plain","e":"\u00e9t\u00e9"}"#;
        let tape = Tape::parse(text).expect("parses");
        let root = tape.root();
        // The first of two pairs with one key, as `Json::get` finds it.
        assert_eq!(root.get("a").and_then(JsonRead::as_str), Some("x\"y"));
        assert_eq!(root.get("d").and_then(JsonRead::as_str), Some("plain"));
        assert_eq!(root.get("e").and_then(JsonRead::as_str), Some("été"));
        let b: Vec<_> = root
            .get("b")
            .and_then(JsonRead::items)
            .expect("array")
            .collect();
        assert_eq!(b[0].as_u64(), Some(1));
        assert!(b[1].get("c").is_some_and(JsonRead::is_null));
        assert_eq!(root.to_tree(), parse(text).expect("parses"));
        assert!(tape.nodes.len() <= node_bound(text));
        assert_eq!(std::mem::size_of::<Node>(), 24);
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
