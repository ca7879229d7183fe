//! Seeded random JSON documents, shared by the codec tests.

#![allow(dead_code)]

use dmp_base::json::Json;

/// xorshift64*: the crate has no dependencies, and the documents only need
/// to be varied and reproducible.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Numbers on every side of the renderer's whole-number fast path.
pub const NUMBERS: [f64; 24] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    42.0,
    250.0,
    128_159.0,
    -899_992_188.0,
    191_822_918_454_356.0,
    TWO_53 - 1.0,
    TWO_53,
    TWO_53 + 2.0,
    -(TWO_53 - 1.0),
    -TWO_53,
    1e15,
    1e16,
    1e23,
    1e300,
    -1e300,
    0.1 + 0.2,
    298.304_573_804_573_8,
    3e-7,
    f64::MIN_POSITIVE,
    5e-324,
];

/// Every escape the renderer emits, raw characters it must pass through,
/// and multi-byte UTF-8 next to both.
pub const FRAGMENTS: [&str; 16] = [
    "",
    "tau",
    "τ",
    "τ-sweep",
    "日本",
    "🎥",
    "\"",
    "\\",
    "/",
    "\n",
    "\r",
    "\t",
    "\u{0008}",
    "\u{000c}",
    "\u{0000}\u{001f}",
    "\u{007f}é",
];

pub fn string(rng: &mut Rng) -> String {
    (0..rng.below(5)).map(|_| rng.pick(&FRAGMENTS)).collect()
}

pub fn number(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => rng.pick(&NUMBERS),
        // Whole numbers of every digit count up to and beyond 2^53.
        1 => {
            let magnitude = (rng.next() >> rng.below(64)) as f64;
            if rng.below(2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        }
        2 => rng.below(2000) as f64 / 8.0 - 100.0,
        // Any finite bit pattern, subnormals included.
        _ => loop {
            let v = f64::from_bits(rng.next());
            if v.is_finite() {
                break v;
            }
        },
    }
}

pub fn document(rng: &mut Rng, depth: usize) -> Json {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::arr((0..rng.below(5)).map(|_| document(rng, depth - 1))),
        _ => Json::obj((0..rng.below(5)).map(|_| (string(rng), document(rng, depth - 1)))),
    }
}

/// The documents the round-trip test draws: 500 on each of seeds 1–4.
pub fn seeded_documents() -> impl Iterator<Item = Json> {
    (1..=4u64).flat_map(|seed| {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (0..500).map(move |_| document(&mut rng, 6))
    })
}
