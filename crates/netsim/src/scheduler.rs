//! The pending-event queue of the simulation engine.
//!
//! [`EventQueue`] is a two-level calendar queue in the spirit of ns-2's: a
//! *near wheel* of fine-grained time buckets covering the next ~270 ms of
//! simulated time plus a *far heap* for distant timers. At the event
//! densities of the paper's sweeps almost every event (link serialisations,
//! arrivals, delayed ACKs) lands in the wheel, where push and pop are `O(1)`
//! amortised; only long retransmission timeouts touch the far heap. It is
//! the one scheduler a [`crate::sim::Sim`] runs on.
//!
//! # The contract, and the check that holds the queue to it
//!
//! Events pop in strictly increasing `(time, seq)` order, where `seq` is the
//! global push counter — exact FIFO among simultaneous events — and
//! [`EventQueue::pop_at_or_before`] declines only when no pending event is
//! due by its horizon.
//!
//! In builds with debug assertions (the dev profile, so every `cargo test`
//! without `--release`) the queue checks that contract itself, on every
//! simulation that runs:
//!
//! * **every pop**, in `O(1)`: the popped `(time, seq)` is strictly greater
//!   than the previous pop's, and at most the horizon;
//! * **every refusal**, in one walk of the wheel lists and a peek at the far
//!   heap (a `Sim` refuses once per `run_until`): no pending event is due at
//!   or before the horizon, and the events pending are as many as were
//!   pushed and not popped.
//!
//! As `seq` is the global push counter, the two together mean the pops come
//! out sorted, a refusal happens only when nothing is due, and no event is
//! lost or duplicated. The check allocates nothing. Release builds compile
//! it out, so the benchmark and `dmp-bench` do not pay for it; the unit tests
//! below also hold the queue to an explicit sorted reference, which runs
//! with debug assertions off too.
//!
//! # How the wheel is stored
//!
//! The wheel is three flat pieces:
//!
//! * `heads` — one `u32` per bucket (2048 × 4 B = 8 KB): the slab index of
//!   the bucket's first event, `NIL` when the bucket is empty;
//! * the *slab* — every wheel event in one `Vec<Entry>`, with a parallel
//!   `Vec<u32>` of `next` links that thread each bucket's events into a
//!   singly-linked list, and the unused nodes into a LIFO free list;
//! * `occupied` — one bit per bucket, so a pop finds the earliest non-empty
//!   bucket 64 buckets per word.
//!
//! A push takes a node off the free list (the one the last pop vacated, so it
//! is still in cache) and links it at its bucket's head. A pop walks the one
//! bucket the bitmap names, keeps the `(time, seq)` minimum and its
//! predecessor, unlinks it and puts the node back on the free list. List
//! order never matters — the minimum is searched, not assumed — so neither
//! operation sorts or shifts anything. The slab is reserved once and grows
//! only while a run is still climbing to its peak number of pending events
//! (≈ 100 in the paper's densest settings): the steady-state event loop
//! allocates nothing (`dmp-sim/tests/zero_alloc.rs`).
//!
//! The far heap is not asked on the way: the queue caches the bucket of its
//! earliest event (`far_min`, `u64::MAX` when it is empty; lowered by a far
//! push, re-read after a drain), so a pop compares one integer with the
//! window's end and peeks the `BinaryHeap` only when that event has come
//! inside the window — or when the wheel has run dry and the window must jump
//! to it.
//!
//! # What is inlined, and what is not
//!
//! [`EventQueue::push`] and [`EventQueue::pop_at_or_before`] are
//! `#[inline(always)]`, and so is `push_wheel` behind them: in a simulation
//! they are the event loop, one pop and about one push per event, and as
//! calls they were a quarter of a `video_2path` iteration. Inlined, a pushed
//! event's three fields go from registers into the slab node (see
//! `push_wheel` for why that needed saying in code) and a popped one's come
//! back in registers. What happens once per many events stays a call — a far
//! push, the drain, the window jump, slab growth, and the check's refusal
//! walk.
//!
//! Why not a `Vec` per bucket: with ~100 pending events that puts a 24 B
//! header and a heap buffer behind each of 2048 buckets — 48 KB + 1 MiB
//! spread under a few KB of live data. An isolated hold-model probe hides
//! the cost (under 20 ns per operation); in a running simulation, where
//! links, senders and rings compete for the cache, that layout made the
//! scheduler a quarter of an iteration and cost every `Sim::new` 2048
//! allocations (`zero_alloc.rs` pins construction to a handful).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The kind of queue [`EventQueue::new`] builds; there is one. The type and
/// that parameter stay only for `benchmark/src/probes.rs`, which builds its
/// hold-model queue with `EventQueue::new(EngineKind::default())` and is
/// edited only together with the benchmark ledger — the deferral
/// `dmp_runner::JobSpec::new` has for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Two-level calendar queue (near wheel + far heap).
    #[default]
    Calendar,
}

/// One queued event: a timestamp, the global push sequence number that breaks
/// ties FIFO, and an opaque payload the queue never inspects.
#[derive(Debug, Clone, Copy)]
pub struct Entry<T> {
    /// Due time.
    pub time: SimTime,
    /// Global push counter (unique; breaks ties among simultaneous events).
    pub seq: u64,
    /// Payload.
    pub payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An entry's `(time, seq)` as one integer, ordered the same way.
#[inline(always)]
fn key<T>(e: &Entry<T>) -> u128 {
    (u128::from(e.time) << 64) | u128::from(e.seq)
}

/// High-water marks a queue reports for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueHwm {
    /// Peak number of events resident in the near wheel.
    pub wheel: u64,
    /// Peak number of events resident in the far heap.
    pub far: u64,
}

/// log2 of the bucket width: 2^17 ns ≈ 131 µs per bucket.
const BUCKET_SHIFT: u32 = 17;
/// Number of wheel buckets (power of two). Span = 2048 × 131 µs ≈ 268 ms,
/// which covers serialisation times, propagation delays, and delayed-ACK
/// timers; only RTO-scale timers overflow to the far heap.
const BUCKETS: usize = 2048;
const BUCKET_MASK: u64 = (BUCKETS as u64) - 1;
const WORDS: usize = BUCKETS / 64;

/// Absolute bucket index of a timestamp.
#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t >> BUCKET_SHIFT
}

/// End-of-list / empty-bucket / empty-free-list marker for slab indices.
const NIL: u32 = u32::MAX;
/// Nodes reserved when the queue is built (36 B each for the simulator's
/// payload). The paper's densest settings keep ~100 events in the wheel, so
/// steady state never grows the slab; a denser run grows it like any `Vec`
/// and keeps the capacity. Only nodes that were ever linked are touched, so
/// the unused part of the reserve costs address space, not resident memory.
const SLAB_RESERVE: usize = 1024;

/// The pending-event queue: a two-level calendar queue, near wheel + far
/// heap (module docs).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The near wheel: `heads[b & BUCKET_MASK]` is the slab index of the
    /// first event whose absolute bucket is `b` (`NIL` = empty bucket); the
    /// window invariant (every resident bucket is in `[base, base + BUCKETS)`)
    /// makes the mapping unambiguous. The fixed-size array (not a slice) lets
    /// masked indexing skip the bounds check in the push/pop hot paths.
    heads: Box<[u32; BUCKETS]>,
    /// The slab: every wheel event, in one allocation. Node `i` is
    /// `slab[i]` + `next[i]`.
    slab: Vec<Entry<T>>,
    /// `next[i]` links node `i` to the next node of its bucket, in no
    /// particular order (pop takes the `(time, seq)` minimum), or to the next
    /// unused node while `i` is on the free list. Kept beside the entries,
    /// not inside them: a list walk then chases indices through 4 B per node
    /// and the entry loads do not depend on each other.
    next: Vec<u32>,
    /// Head of the LIFO list of unused nodes, so the node an event just
    /// vacated — still in cache — carries the next one.
    free: u32,
    /// One bit per slot: is the bucket non-empty? Lets the pop path skip
    /// runs of empty buckets 64 at a time.
    occupied: [u64; WORDS],
    /// Absolute bucket index of the window start. Monotonically advances;
    /// never ahead of the current simulated time's bucket.
    base: u64,
    wheel_len: usize,
    /// Events too far in the future for the wheel, ordered by `(time, seq)`.
    far: BinaryHeap<Reverse<Entry<T>>>,
    /// Bucket of the far heap's earliest event, `u64::MAX` when the heap is
    /// empty: lowered by a far push, re-read after a drain. A pop compares
    /// this one integer with the window's end instead of peeking the heap.
    far_min: u64,
    wheel_hwm: usize,
    far_hwm: usize,
    /// What the contract check remembers between operations.
    #[cfg(debug_assertions)]
    check: ContractCheck,
}

/// The debug-build contract check's memory (module docs).
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct ContractCheck {
    /// The previous pop's [`key`]; `None` before the first pop.
    last_pop: Option<u128>,
    pushes: u64,
    pops: u64,
}

impl<T: Copy> EventQueue<T> {
    /// An empty queue (there is one [`EngineKind`]).
    pub fn new(_: EngineKind) -> Self {
        Self {
            heads: Box::new([NIL; BUCKETS]),
            slab: Vec::with_capacity(SLAB_RESERVE),
            next: Vec::with_capacity(SLAB_RESERVE),
            free: NIL,
            occupied: [0; WORDS],
            base: 0,
            wheel_len: 0,
            far: BinaryHeap::new(),
            far_min: u64::MAX,
            wheel_hwm: 0,
            far_hwm: 0,
            #[cfg(debug_assertions)]
            check: ContractCheck::default(),
        }
    }

    /// Queue an event. `time` must be at or after the time of the last popped
    /// event (events are never scheduled in the past), and `seq` must be
    /// newer than every earlier push's.
    #[inline(always)]
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        #[cfg(debug_assertions)]
        {
            self.check.pushes += 1;
        }
        let b = bucket_of(time);
        debug_assert!(b >= self.base, "event scheduled behind the wheel window");
        if b < self.base + BUCKETS as u64 {
            self.push_wheel(time, seq, payload);
        } else {
            self.push_far(Entry { time, seq, payload }, b);
        }
    }

    /// Takes the event as its three fields, not as an `Entry`: inlined into
    /// the simulator's `schedule`, each then goes from its register straight
    /// into the slab node. An `Entry` assembled on the stack first is written
    /// with four narrow stores and copied out with two 16-byte loads that
    /// straddle them, which no store buffer forwards — that stall was 6 % of
    /// a `video_2path` iteration.
    #[inline(always)]
    fn push_wheel(&mut self, time: SimTime, seq: u64, payload: T) {
        let slot = (bucket_of(time) & BUCKET_MASK) as usize;
        let head = self.heads[slot];
        let i = self.free;
        if i != NIL {
            self.free = self.next[i as usize];
            let node = &mut self.slab[i as usize];
            node.time = time;
            node.seq = seq;
            node.payload = payload;
            self.next[i as usize] = head;
            self.heads[slot] = i;
        } else {
            self.heads[slot] = self.grow_slab(Entry { time, seq, payload }, head);
        }
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        self.wheel_len += 1;
        self.wheel_hwm = self.wheel_hwm.max(self.wheel_len);
    }

    /// The free list is empty: append a node. Within [`SLAB_RESERVE`] this
    /// does not allocate; past it the `Vec`s double.
    #[cold]
    fn grow_slab(&mut self, e: Entry<T>, next: u32) -> u32 {
        let i = self.slab.len();
        assert!(i < NIL as usize, "slab indices are u32 and NIL is taken");
        self.slab.push(e);
        self.next.push(next);
        i as u32
    }

    /// An event in bucket `b`, past the wheel window, goes to the far heap.
    #[inline(never)]
    fn push_far(&mut self, e: Entry<T>, b: u64) {
        self.far.push(Reverse(e));
        self.far_min = self.far_min.min(b);
        self.far_hwm = self.far_hwm.max(self.far.len());
    }

    /// Move far-heap events that now fall inside the wheel window, and
    /// re-read the cached minimum. Called only when the cache says the
    /// earliest far event is inside the window.
    #[inline(never)]
    fn drain_far(&mut self) {
        let horizon = self.base + BUCKETS as u64;
        self.far_min = loop {
            match self.far.peek() {
                None => break u64::MAX,
                Some(&Reverse(e)) => {
                    let b = bucket_of(e.time);
                    if b >= horizon {
                        break b;
                    }
                    self.far.pop();
                    self.push_wheel(e.time, e.seq, e.payload);
                }
            }
        };
    }

    /// First non-empty bucket at or after `base` in circular window order.
    /// Requires `wheel_len > 0`.
    fn first_occupied_from_base(&self) -> u64 {
        let start = (self.base & BUCKET_MASK) as usize;
        // Partial first word.
        let w = self.occupied[start >> 6] & (!0u64 << (start & 63));
        let slot = if w != 0 {
            (start & !63) + w.trailing_zeros() as usize
        } else {
            let mut found = None;
            for i in 1..=WORDS {
                let wi = ((start >> 6) + i) % WORDS;
                // The wrap-around word needs no end-masking: any bit before
                // `start` in it belongs to a bucket < base + BUCKETS too.
                let w = self.occupied[wi];
                if w != 0 {
                    found = Some((wi << 6) + w.trailing_zeros() as usize);
                    break;
                }
            }
            found.expect("wheel_len > 0 but no occupied bucket")
        };
        self.base + ((slot + BUCKETS - start) & (BUCKETS - 1)) as u64
    }

    /// The wheel is empty: jump the window to the far heap's earliest bucket
    /// and pull that event (and its neighbours) in. `false`, and the window
    /// stays, when the far heap is empty too or its earliest event is past
    /// `t_end`.
    #[cold]
    fn jump_to_far(&mut self, t_end: SimTime) -> bool {
        match self.far.peek() {
            Some(&Reverse(e)) if e.time <= t_end => {
                self.base = bucket_of(e.time);
                self.drain_far();
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest event if it is due at or before
    /// `t_end`; `None` otherwise (the event stays queued).
    #[inline(always)]
    pub fn pop_at_or_before(&mut self, t_end: SimTime) -> Option<Entry<T>> {
        let popped = self.take_earliest(t_end);
        #[cfg(debug_assertions)]
        match &popped {
            Some(e) => self.check_pop(key(e), t_end),
            None => self.check_refusal(t_end),
        }
        popped
    }

    #[inline(always)]
    fn take_earliest(&mut self, t_end: SimTime) -> Option<Entry<T>> {
        if self.far_min < self.base + BUCKETS as u64 {
            self.drain_far();
        }
        if self.wheel_len == 0 && !self.jump_to_far(t_end) {
            return None;
        }
        let b_min = self.first_occupied_from_base();
        if b_min > bucket_of(t_end) {
            // The earliest event is beyond the horizon. Advance the
            // window only to t_end's bucket: the caller will set
            // `now = t_end`, so later pushes stay inside the window.
            self.base = self.base.max(bucket_of(t_end));
            return None;
        }
        // The global minimum lives in bucket `b_min`: it is the wheel's
        // earliest bucket, and no far event can precede it — advancing
        // the window to it admits only far events in buckets at or past
        // the *old* horizon, which is past `b_min` (it was inside the
        // old window). They are picked up by the next pop's drain; no
        // re-drain loop is needed here.
        self.base = b_min;
        let slot = (self.base & BUCKET_MASK) as usize;
        // Walk the bucket's list for the `(time, seq)` minimum, keeping
        // its predecessor so it can be unlinked. The key is one integer
        // so that the update compiles to selects: which node of a bucket
        // is earliest is a coin flip no branch predictor learns.
        let head = self.heads[slot];
        let (mut min, mut min_prev) = (head, NIL);
        let mut min_key = key(&self.slab[head as usize]);
        let (mut prev, mut cur) = (head, self.next[head as usize]);
        while cur != NIL {
            let k = key(&self.slab[cur as usize]);
            if k < min_key {
                (min_key, min, min_prev) = (k, cur, prev);
            }
            (prev, cur) = (cur, self.next[cur as usize]);
        }
        let e = self.slab[min as usize];
        if e.time > t_end {
            return None;
        }
        let after = std::mem::replace(&mut self.next[min as usize], self.free);
        self.free = min;
        if min_prev == NIL {
            self.heads[slot] = after;
            if after == NIL {
                self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
            }
        } else {
            self.next[min_prev as usize] = after;
        }
        self.wheel_len -= 1;
        Some(e)
    }

    /// A pop of the event with [`key`] `k` at horizon `t_end`: it is due by
    /// then and comes strictly after the previous pop. Takes the key, not
    /// the entry, so that the popped event need not leave its registers.
    #[cfg(debug_assertions)]
    #[inline(always)]
    fn check_pop(&mut self, k: u128, t_end: SimTime) {
        let (time, seq) = ((k >> 64) as SimTime, k as u64);
        assert!(
            time <= t_end,
            "event queue contract: popped ({time} ns, seq {seq}) past the horizon {t_end} ns"
        );
        if let Some(last) = self.check.last_pop {
            assert!(
                k > last,
                "event queue contract: popped ({time} ns, seq {seq}) after ({} ns, seq {})",
                last >> 64,
                last as u64
            );
        }
        self.check.last_pop = Some(k);
        self.check.pops += 1;
    }

    /// A refusal at `t_end`: nothing pending is due by then, and exactly the
    /// events pushed and not popped are pending.
    #[cfg(debug_assertions)]
    #[cold]
    fn check_refusal(&self, t_end: SimTime) {
        let expected = self.check.pushes - self.check.pops;
        let mut pending = self.far.len() as u64;
        let mut earliest = self.far.peek().map(|Reverse(e)| key(e));
        for &head in self.heads.iter() {
            let mut i = head;
            while i != NIL {
                pending += 1;
                // Also ends the walk of a list that loops.
                assert!(
                    pending <= expected,
                    "event queue contract: more than the {expected} events pushed and not popped are pending"
                );
                let k = key(&self.slab[i as usize]);
                earliest = Some(earliest.map_or(k, |m| m.min(k)));
                i = self.next[i as usize];
            }
        }
        assert_eq!(
            pending, expected,
            "event queue contract: {pending} events pending after {} pushes and {} pops",
            self.check.pushes, self.check.pops
        );
        if let Some(k) = earliest {
            assert!(
                (k >> 64) as SimTime > t_end,
                "event queue contract: refused at the horizon {t_end} ns with ({} ns, seq {}) due",
                k >> 64,
                k as u64
            );
        }
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy high-water marks.
    pub fn hwm(&self) -> QueueHwm {
        QueueHwm {
            wheel: self.wheel_hwm as u64,
            far: self.far_hwm as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn queue() -> EventQueue<u32> {
        EventQueue::new(EngineKind::Calendar)
    }

    fn payloads(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop_at_or_before(SimTime::MAX))
            .map(|e| e.payload)
            .collect()
    }

    /// The storage invariant: the slab only grows when every node is linked,
    /// so it is exactly as long as the wheel's high-water mark.
    fn slab_len(q: &EventQueue<u32>) -> (usize, usize) {
        (q.slab.len(), q.wheel_hwm)
    }

    /// Is the next pop going to take the `base` jump: wheel empty, far heap
    /// not, and its earliest event outside the window?
    fn about_to_jump(q: &EventQueue<u32>) -> bool {
        q.wheel_len == 0 && !q.far.is_empty() && q.far_min >= q.base + BUCKETS as u64
    }

    /// Push a random schedule into the queue and into a test-local binary
    /// heap of the same events — the sorted reference — interleaving pops the
    /// way the simulator does (events scheduled relative to the last popped
    /// time, a share of the pops stopped by a `run_until` horizon), and
    /// require every pop to match the reference — including FIFO among ties
    /// — and every refusal too. The reference keeps this a check of the
    /// contract where debug assertions are off. The schedule runs the wheel
    /// round several times, so nearly every push lands on a node a pop
    /// returned to the free list; now and then the pushes pause until the
    /// queue has run dry, so the wheel empties with only far timers left and
    /// the window has to jump to them.
    #[test]
    fn heap_and_calendar_pop_identically() {
        const WHEEL_SPAN_NS: u64 = (BUCKETS as u64) << BUCKET_SHIFT;
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut heap = BinaryHeap::new();
            let mut cal = queue();
            let mut seq = 0u64;
            let mut now: SimTime = 0;
            let (mut pops, mut refused, mut jumps) = (0usize, 0u32, 0u32);
            let mut push_both = |heap: &mut BinaryHeap<_>, cal: &mut EventQueue<u32>, time| {
                seq += 1;
                heap.push(Reverse((time, seq, seq as u32)));
                cal.push(time, seq, seq as u32);
            };
            // Pop both queues up to `t_end`. A refusal must be mutual, and
            // leaves the caller at the horizon, as `run_until` does.
            let mut pop_both = |heap: &mut BinaryHeap<Reverse<(SimTime, u64, u32)>>,
                                cal: &mut EventQueue<u32>,
                                now: &mut SimTime,
                                t_end: SimTime| {
                jumps += u32::from(about_to_jump(cal));
                let want = match heap.peek() {
                    Some(&Reverse(e)) if e.0 <= t_end => heap.pop().map(|Reverse(e)| e),
                    _ => None,
                };
                let got = cal.pop_at_or_before(t_end);
                assert_eq!(
                    got.map(|e| (e.time, e.seq, e.payload)),
                    want,
                    "seed {seed}: horizon {t_end}"
                );
                match want {
                    Some((time, _, _)) => {
                        *now = time;
                        pops += 1;
                    }
                    None => {
                        *now = t_end;
                        refused += 1;
                    }
                }
            };
            for step in 0..40_000u32 {
                if step % 8_000 == 7_999 {
                    // The pushes pause behind two timers later than any
                    // other: pop until both queues are dry, every pop under
                    // a horizon at most two wheel spans out — the wheel runs
                    // empty before each of the two, and the jump to it is
                    // refused until the horizon has crept up to it.
                    for dt in [6_000_000_000, 8_000_000_000] {
                        push_both(&mut heap, &mut cal, now + dt);
                    }
                    while !heap.is_empty() {
                        let t_end = now + rng.gen_range(0..2 * WHEEL_SPAN_NS);
                        pop_both(&mut heap, &mut cal, &mut now, t_end);
                    }
                    assert!(cal.is_empty(), "seed {seed}: calendar kept events");
                    continue;
                }
                // Hover around 150 pending events so that pops, and with
                // them simulated time, keep pace with the pushes.
                let p_push = if heap.len() < 150 { 0.6 } else { 0.4 };
                if rng.gen_bool(p_push) || heap.is_empty() {
                    // Mix of near events (sub-bucket to a few ms), deliberate
                    // ties, far timers (beyond the wheel span) that migrate
                    // onto reused nodes, and now and then a burst of 40
                    // simultaneous events in one bucket.
                    let (dt, copies): (u64, u32) = match rng.gen_range(0..100u32) {
                        0..=59 => (rng.gen_range(0..5_000_000), 1),
                        60..=78 => (0, 1),
                        79 => (rng.gen_range(0..5_000_000), 40),
                        80..=89 => (rng.gen_range(0..300_000_000), 1),
                        _ => (rng.gen_range(250_000_000..5_000_000_000), 1),
                    };
                    for _ in 0..copies {
                        push_both(&mut heap, &mut cal, now + dt);
                    }
                } else {
                    // One pop in four stops at a horizon a bucket or two
                    // ahead: refused in the earliest bucket's walk, or
                    // before it, about as often as it is served.
                    let t_end = if rng.gen_bool(0.25) {
                        now + rng.gen_range(0..2u64 << BUCKET_SHIFT)
                    } else {
                        SimTime::MAX
                    };
                    pop_both(&mut heap, &mut cal, &mut now, t_end);
                }
            }
            while !heap.is_empty() {
                pop_both(&mut heap, &mut cal, &mut now, SimTime::MAX);
            }
            assert!(cal.is_empty(), "seed {seed}: calendar kept events");
            assert!(
                now >= 3 * WHEEL_SPAN_NS,
                "seed {seed}: only {now} ns of interleaved pops"
            );
            assert!(
                refused >= 1_000 && jumps >= 20,
                "seed {seed}: {refused} refusals, {jumps} window jumps"
            );
            let (slab, hwm) = slab_len(&cal);
            assert_eq!(slab, hwm, "seed {seed}: a push skipped the free list");
            assert!(
                (40..pops / 4).contains(&slab),
                "seed {seed}: {slab} nodes carried {pops} events"
            );
        }
    }

    /// An event pushed behind the last pop, in the bucket that pop was
    /// taken from — so the wheel-window assertion does not fire first —
    /// pops next, out of order. A queue compared only with another queue
    /// (the same push, the same pop) would agree with it; the contract
    /// check refuses the pop.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(
        expected = "event queue contract: popped (500 ns, seq 2) after (1000 ns, seq 1)"
    )]
    fn a_pop_behind_the_previous_one_breaks_the_contract() {
        let mut q = queue();
        q.push(1_000, 1, 1);
        assert_eq!(q.pop_at_or_before(SimTime::MAX).unwrap().payload, 1);
        q.push(500, 2, 2);
        q.pop_at_or_before(SimTime::MAX);
    }

    /// A far push that undercuts the cached far minimum must lower it. Here
    /// the cache was just re-read by a drain (5 s), the undercutting timer
    /// (4.5 s) goes to the far heap, and it is due between two wheel events:
    /// it comes out between them only if the pop that moves the window over
    /// 4.5 s sees a cache that says so.
    #[test]
    fn far_push_below_the_refreshed_minimum_pops_in_order() {
        const MS: u64 = 1_000_000;
        let mut q = queue();
        q.push(4_000 * MS, 1, 1u32);
        q.push(5_000 * MS, 2, 2);
        assert_eq!(q.far.len(), 2);
        // Empty wheel: the window jumps to 4 s, the drain takes event 1 and
        // re-reads the minimum from event 2.
        assert_eq!(q.pop_at_or_before(SimTime::MAX).unwrap().payload, 1);
        q.push(4_500 * MS, 3, 3);
        assert_eq!(
            q.far.len(),
            2,
            "4.5 s is past the window that starts at 4 s"
        );
        q.push(4_250 * MS, 4, 4);
        assert_eq!(q.far.len(), 2, "4.25 s is inside it");
        assert_eq!(q.pop_at_or_before(SimTime::MAX).unwrap().payload, 4);
        // The window now starts at 4.25 s and covers 4.5 s and 4.51 s.
        q.push(4_510 * MS, 5, 5);
        assert_eq!(q.far.len(), 2);
        assert_eq!(payloads(&mut q), vec![3, 5, 2]);
    }

    /// A far-heap event migrates onto the node the previous pop freed.
    #[test]
    fn far_event_migrates_onto_a_reused_node() {
        let mut q = queue();
        q.push(10, 1, 1u32);
        q.push(5_000_000_000, 2, 2);
        assert_eq!(payloads(&mut q), vec![1, 2]);
        assert_eq!(slab_len(&q), (1, 1));
        assert_eq!(q.hwm().far, 1);
    }

    /// A pop that finds the earliest bucket's minimum past `t_end` returns
    /// `None` and leaves the bucket's list and its `occupied` bit as they
    /// were: the same events come out afterwards, in order.
    #[test]
    fn refused_pop_leaves_the_bucket_intact() {
        let mut q = queue();
        // One bucket (all below 2^17 ns), linked in an order that puts the
        // minimum in the middle of the list.
        for (seq, time) in [(1, 3_000), (2, 1_000), (3, 2_000)] {
            q.push(time, seq, seq as u32);
        }
        assert!(q.pop_at_or_before(999).is_none());
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_at_or_before(1_500).unwrap().payload, 2);
        assert!(q.pop_at_or_before(1_999).is_none());
        assert_eq!(q.len(), 2);
        // The bucket still accepts pushes, and ties pop FIFO.
        q.push(2_000, 4, 4);
        assert_eq!(payloads(&mut q), vec![3, 4, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_respects_horizon() {
        let mut q = queue();
        q.push(100, 1, 1u32);
        q.push(5_000_000_000, 2, 2); // far heap
        assert!(q.pop_at_or_before(99).is_none());
        assert_eq!(q.pop_at_or_before(100).unwrap().payload, 1);
        assert!(q.pop_at_or_before(4_999_999_999).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::MAX).unwrap().payload, 2);
        assert!(q.is_empty());
        // Pushing near-term events after the window advanced past a horizon
        // check must still work (base never outruns simulated time).
        q.push(5_000_000_100, 3, 3);
        assert_eq!(q.pop_at_or_before(SimTime::MAX).unwrap().payload, 3);
    }

    #[test]
    fn far_events_migrate_in_order() {
        let mut q = queue();
        // Two far events in adjacent buckets beyond the span, plus a near one.
        q.push(10, 1, 1u32);
        q.push(400_000_000, 2, 2);
        q.push(300_000_000, 3, 3);
        assert_eq!(payloads(&mut q), vec![1, 3, 2]);
    }

    #[test]
    fn hwm_tracks_occupancy() {
        let mut q = queue();
        for i in 0..10u64 {
            q.push(i * 1000, i + 1, i as u32);
        }
        q.push(10_000_000_000, 99, 99);
        let hwm = q.hwm();
        assert_eq!(hwm.wheel, 10);
        assert_eq!(hwm.far, 1);
    }
}
