//! Seq-indexed ring buffer for window-bounded TCP state.
//!
//! The sink's out-of-order buffer keys on segment sequence numbers that live
//! inside a window of at most `max_wnd` consecutive values, most of them
//! absent. A `BTreeMap` pays pointer chasing and node allocation for a key
//! space that is bounded; this ring buffer stores value `seq` at slot
//! `seq & (capacity - 1)` in a flat `Vec<Option<T>>`. (The sender's in-flight
//! window is dense as well as bounded, and keeps a plain array instead.)
//!
//! Invariant: every live sequence number lies in `[base, base + capacity)`,
//! so residues are collision-free and a slot unambiguously belongs to one
//! sequence number. `base` only moves forward ([`SeqRing::advance_to`]); the
//! ring grows (power-of-two doubling) if a window ever outruns the capacity.

/// A map from sequence numbers to `T` over a sliding, bounded window.
#[derive(Debug)]
pub struct SeqRing<T> {
    base: u64,
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SeqRing<T> {
    const INITIAL_CAP: usize = 64;

    /// An empty ring with `base = 0`.
    pub fn new() -> Self {
        Self::with_window(Self::INITIAL_CAP)
    }

    /// An empty ring with `base = 0` that holds any `window` consecutive
    /// sequence numbers without growing.
    pub fn with_window(window: usize) -> Self {
        Self {
            base: 0,
            slots: (0..window.next_power_of_two()).map(|_| None).collect(),
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & (self.slots.len() as u64 - 1)) as usize
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lowest sequence number the ring can currently hold.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Insert `value` at `seq`, returning the previous value at that exact
    /// sequence number (like `BTreeMap::insert`). `seq` must be `>= base`;
    /// the ring grows if `seq` is beyond the current window.
    pub fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        debug_assert!(
            seq >= self.base,
            "insert below base ({seq} < {})",
            self.base
        );
        if seq - self.base >= self.slots.len() as u64 {
            self.grow(seq);
        }
        let slot = self.slot(seq);
        let old = self.slots[slot].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value stored at `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&T> {
        if seq < self.base || seq - self.base >= self.slots.len() as u64 {
            return None;
        }
        self.slots[self.slot(seq)].as_ref()
    }

    /// Remove and return the value at `seq`, if any.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        // The sink probes on every in-order segment; its buffer is empty
        // unless a loss is being repaired.
        if self.len == 0 || seq < self.base || seq - self.base >= self.slots.len() as u64 {
            return None;
        }
        let slot = self.slot(seq);
        let old = self.slots[slot].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Slide the window forward: drop every entry with `seq < new_base` and
    /// make `new_base` the new lower bound. No-op if `new_base <= base`.
    pub fn advance_to(&mut self, new_base: u64) {
        if new_base <= self.base {
            return;
        }
        if self.len > 0 {
            let end = new_base.min(self.base + self.slots.len() as u64);
            for seq in self.base..end {
                let slot = self.slot(seq);
                if self.slots[slot].take().is_some() {
                    self.len -= 1;
                }
            }
        }
        self.base = new_base;
    }

    /// Double capacity until `seq` fits, re-placing live entries at their
    /// residues modulo the new capacity.
    fn grow(&mut self, seq: u64) {
        let old_cap = self.slots.len();
        let mut new_cap = old_cap * 2;
        while seq - self.base >= new_cap as u64 {
            new_cap *= 2;
        }
        let old = std::mem::replace(
            &mut self.slots,
            (0..new_cap).map(|_| None).collect::<Vec<_>>(),
        );
        let old_mask = old_cap as u64 - 1;
        for (i, v) in old.into_iter().enumerate() {
            if let Some(v) = v {
                // Recover the absolute seq from the old residue: the unique
                // value ≡ i (mod old_cap) inside [base, base + old_cap).
                let offset = (i as u64).wrapping_sub(self.base) & old_mask;
                let seq = self.base + offset;
                let slot = (seq & (new_cap as u64 - 1)) as usize;
                self.slots[slot] = Some(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut r = SeqRing::new();
        assert_eq!(r.insert(5, "a"), None);
        assert_eq!(r.insert(5, "b"), Some("a"), "insert returns the old value");
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(5), Some(&"b"));
        assert_eq!(r.get(6), None);
        assert_eq!(r.remove(5), Some("b"));
        assert_eq!(r.remove(5), None);
        assert!(r.is_empty());
    }

    #[test]
    fn advance_drops_below_base() {
        let mut r = SeqRing::new();
        for s in 0..10u64 {
            r.insert(s, s);
        }
        r.advance_to(7);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(6), None);
        assert_eq!(r.get(7), Some(&7));
        // Re-inserting at the freed residues must work after wrap-around.
        for s in 10..70u64 {
            r.insert(s, s);
        }
        assert_eq!(r.get(69), Some(&69));
        assert_eq!(r.len(), 63);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut r = SeqRing::new();
        for s in 0..500u64 {
            r.insert(s, s * 10);
        }
        assert_eq!(r.len(), 500);
        for s in 0..500u64 {
            assert_eq!(r.get(s), Some(&(s * 10)));
        }
    }

    /// Drive the ring and a `BTreeMap` reference through seeded random
    /// TCP-shaped traffic — inserts at the window head, removals at holes
    /// (retransmit fills), cumulative advances, and occasional window jumps
    /// far enough to force growth and residue wrap-around — and require
    /// identical observable behaviour throughout.
    #[test]
    fn matches_btreemap_reference_under_random_window_traffic() {
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ring: SeqRing<u64> = SeqRing::new();
            let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
            let mut base = 0u64;
            let mut head = 0u64;
            for step in 0..4_000 {
                match rng.gen_range(0..10u32) {
                    // Send new segments at the head (dense insert).
                    0..=3 => {
                        let n = rng.gen_range(1..8u64);
                        for _ in 0..n {
                            let v = rng.gen_range(0..u64::MAX);
                            assert_eq!(ring.insert(head, v), reference.insert(head, v));
                            head += 1;
                        }
                    }
                    // Re-insert somewhere inside the window (retransmit
                    // bookkeeping / duplicate out-of-order segment).
                    4 | 5 => {
                        if head > base {
                            let seq = rng.gen_range(base..head);
                            let v = rng.gen_range(0..u64::MAX);
                            assert_eq!(ring.insert(seq, v), reference.insert(seq, v));
                        }
                    }
                    // Remove a specific seq (ooo drain hits a hole or not).
                    6 | 7 => {
                        if head > base {
                            let seq = rng.gen_range(base..head);
                            assert_eq!(ring.remove(seq), reference.remove(&seq));
                        }
                    }
                    // Cumulative ACK: advance the window.
                    8 => {
                        if head > base {
                            base = rng.gen_range(base..=head);
                            ring.advance_to(base);
                            reference.retain(|&k, _| k >= base);
                        }
                    }
                    // Rare: idle-period jump far ahead (forces the window
                    // across many multiples of the capacity).
                    _ => {
                        if rng.gen_bool(0.1) {
                            let jump = rng.gen_range(0..1000u64);
                            base = head.max(base) + jump;
                            head = base;
                            ring.advance_to(base);
                            reference.retain(|&k, _| k >= base);
                        }
                    }
                }
                assert_eq!(ring.len(), reference.len(), "seed {seed} step {step}");
                // Spot-check random probes across the whole window.
                for _ in 0..4 {
                    let seq = rng.gen_range(base.saturating_sub(5)..head + 5);
                    assert_eq!(
                        ring.get(seq),
                        if seq >= base {
                            reference.get(&seq)
                        } else {
                            None
                        },
                        "seed {seed} step {step} probe {seq}"
                    );
                }
            }
        }
    }
}
