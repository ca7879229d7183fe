//! The scheme itself: [`Scheme`], the one place that decides which path sends
//! which packet, with the queues it is built from and the client-side
//! reorder buffer.
//!
//! The paper's scheme (Fig. 2) is two decisions: **who holds the lock next**
//! among the senders with buffer room ([`Scheme::next_holder`]) and **what
//! the holder takes** ([`Scheme::take`], [`Scheme::next_copy`]). Static
//! streaming adds **where a generated packet is assigned**
//! ([`Scheme::on_generated`]). A [`PullStrategy`] varies all three.
//!
//! `Scheme` is pure: it sees its transport through [`PathView`], time as a
//! `now_ns` argument, and allocates nothing per call. The simulator's server
//! (`dmp_sim::video`) asks all of it — a discrete-event server must itself
//! name the blocked sender that wakes first. The live server
//! (`dmp_live::stream`) keeps one behind a mutex and asks only
//! `on_generated` and `take`: its senders are threads blocked in `write_all`,
//! so the kernel's send buffers arbitrate the lock, as in the paper.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use crate::spec::{PullStrategy, SchedulerKind};

/// One video packet as it moves through the system: a stream sequence number
/// (its position, and therefore its playback instant) plus the time it was
/// generated at the server, in nanoseconds of the backend's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPacket {
    /// Position in the stream, starting from 0. Packet `seq` plays back at
    /// `t₀ + seq/µ + τ`.
    pub seq: u64,
    /// Generation timestamp in nanoseconds.
    pub gen_ns: u64,
}

/// A server queue: a FIFO of generated-but-unsent packets. DMP-streaming has
/// one, shared by all TCP senders; static streaming one per path.
///
/// Packets with earlier playback times sit at the head. A sender that can
/// accept data takes the lock and drains from the head, one
/// [`pull_one`](DynamicQueue::pull_one) at a time, until it is full; this is
/// the entire scheduling policy of DMP-streaming.
#[derive(Debug, Default, Clone)]
pub struct DynamicQueue {
    q: VecDeque<StreamPacket>,
    total_generated: u64,
}

impl DynamicQueue {
    /// Create an empty server queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty server queue with room for `packets` packets, for a
    /// caller that knows how many the source will ever generate: the backlog
    /// cannot exceed that, so [`push`](Self::push) never reallocates. The
    /// reserve is clamped (1 Mi packets), so "generate forever" grows
    /// normally instead of reserving gigabytes.
    pub fn with_capacity(packets: u64) -> Self {
        const MAX_RESERVE: u64 = 1 << 20;
        Self {
            q: VecDeque::with_capacity(packets.min(MAX_RESERVE) as usize),
            total_generated: 0,
        }
    }

    /// Append a freshly generated packet (called once per `1/µ` seconds by
    /// the video source).
    pub fn push(&mut self, pkt: StreamPacket) {
        self.total_generated += 1;
        self.q.push_back(pkt);
    }

    /// Fetch the packet at the head of the queue (allocation-free, so a
    /// server's steady state never touches the heap).
    pub fn pull_one(&mut self) -> Option<StreamPacket> {
        self.q.pop_front()
    }

    /// Packets currently waiting in the queue.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no packet is waiting.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Total number of packets ever generated into this queue.
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }
}

/// [`PullStrategy::DeadlineAware`] drops a packet that has waited at the
/// server longer than this when a sender reaches it: it has missed any
/// practical playout deadline and would only delay rescuable packets.
pub const PULL_DEADLINE_S: f64 = 10.0;

/// What the scheme may ask its transport about paths `0..K`.
pub trait PathView {
    /// Free slots in the path's send buffer, packets.
    fn space(&self, path: usize) -> usize;
    /// How good the path looks, smaller first: smoothed RTT in ns
    /// (`u64::MAX` while unmeasured), then the *negated* congestion-window
    /// headroom (window minus packets in flight).
    fn quality(&self, path: usize) -> (u64, i64);
}

/// A transport that arbitrates the lock itself and so reports nothing (the
/// live senders: whichever task's `write_all` returned holds the lock).
impl PathView for () {
    fn space(&self, _: usize) -> usize {
        0
    }
    fn quality(&self, _: usize) -> (u64, i64) {
        (u64::MAX, 0)
    }
}

/// The paths `waker, waker + 1, …` round the ring of `k`.
fn rotation(waker: usize, k: usize) -> impl Iterator<Item = usize> {
    (waker..k).chain(0..waker)
}

/// The scheme's decisions (module docs). DMP-streaming
/// ([`SchedulerKind::Dynamic`], [`SchedulerKind::SinglePath`]) keeps one
/// queue shared by all senders and allocates no rates. The static baseline
/// ([`SchedulerKind::Static`], Section 7.4) gives each path its own and
/// assigns every packet ahead of time, so a congested path cannot shed load
/// onto the others — the weakness that section quantifies.
#[derive(Debug, Clone)]
pub struct Scheme {
    strategy: PullStrategy,
    /// The queue all senders share — inline, because every wake-up of a
    /// sender looks at it. Unused under static streaming.
    shared: DynamicQueue,
    /// Static streaming: `own[k]` is path `k`'s queue. Empty otherwise.
    own: Vec<DynamicQueue>,
    /// Packets taken per path under `Weighted` (its deficit counters).
    taken: Vec<u64>,
    /// Generation events so far, modulo `k`: who gets the next one's first
    /// go at the lock, or (static, counting down) which path it goes to.
    rr: usize,
    dropped_late: u64,
}

impl Scheme {
    /// A scheme over `k` paths for a stream of `packets` packets: the shared
    /// queue reserves that much, so a late backlog peak never reallocates.
    ///
    /// # Panics
    /// Panics if `k` is 0.
    pub fn new(scheduler: SchedulerKind, strategy: PullStrategy, k: usize, packets: u64) -> Self {
        assert!(k > 0, "at least one path required");
        let per_path = scheduler == SchedulerKind::Static;
        Self {
            strategy,
            shared: DynamicQueue::with_capacity(if per_path { 0 } else { packets }),
            own: vec![DynamicQueue::new(); if per_path { k } else { 0 }],
            taken: vec![0; k],
            rr: 0,
            dropped_late: 0,
        }
    }

    /// Number of paths.
    pub fn paths(&self) -> usize {
        self.taken.len()
    }

    /// Whether every path has its own queue (static streaming).
    fn per_path(&self) -> bool {
        !self.own.is_empty()
    }

    /// Depth of the shared queue; `None` when every path has its own.
    pub fn shared_depth(&self) -> Option<usize> {
        (!self.per_path()).then(|| self.shared.len())
    }

    /// Stale packets dropped by [`PullStrategy::DeadlineAware`] so far.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Whether a lock holder drains the queue until its buffer is full (the
    /// paper's rule) rather than the lock being re-arbitrated after every
    /// packet. A transport tracing the shared queue samples it whenever the
    /// lock is released: per holder here, once per wake-up otherwise.
    pub fn holder_drains(&self) -> bool {
        match self.strategy {
            PullStrategy::RoundRobin | PullStrategy::DeadlineAware => true,
            PullStrategy::Weighted | PullStrategy::BestPath | PullStrategy::RedundantDuplicate => {
                self.per_path()
            }
        }
    }

    /// A packet was generated. Returns the paths whose own queue got it
    /// (none: it joined the shared queue) and the sender that gets the first
    /// go at the lock. Dynamic: the rotation says which blocked sender that
    /// is. Static: the packet is assigned for good — in turn, paths `k − 1,
    /// …, 0` and round again (the paper's odd/even split at `k = 2`, and the
    /// split of `RoundRobin`, `Weighted` and `DeadlineAware` alike), to the
    /// best-looking path, or to every path — and the first assignee wakes.
    pub fn on_generated(
        &mut self,
        pkt: StreamPacket,
        paths: &impl PathView,
    ) -> (Range<usize>, usize) {
        let k = self.paths();
        let turn = self.rr;
        self.rr = (turn + 1) % k;
        if !self.per_path() {
            self.shared.push(pkt);
            return (0..0, turn);
        }
        let assigned = match self.strategy {
            PullStrategy::RoundRobin | PullStrategy::Weighted | PullStrategy::DeadlineAware => {
                let p = k - 1 - turn;
                p..p + 1
            }
            PullStrategy::BestPath => {
                let best = (0..k).min_by_key(|&p| (paths.quality(p), p));
                let best = best.expect("at least one path");
                best..best + 1
            }
            PullStrategy::RedundantDuplicate => 0..k,
        };
        assigned.clone().for_each(|p| self.own[p].push(pkt));
        (assigned.clone(), assigned.start)
    }

    /// Who holds the lock next, `waker` being the sender whose wake-up
    /// started this round: among the paths with buffer space and something
    /// to take, the first in rotation order from the waker, the one that has
    /// taken the fewest packets, or the best-looking one. Static senders
    /// only ever compete for their own queue, so there it is always the
    /// rotation. `None`: nobody can take anything.
    pub fn next_holder(&self, waker: usize, paths: &impl PathView) -> Option<usize> {
        if !self.per_path() && self.shared.is_empty() {
            return None; // the common wake-up: nothing is waiting
        }
        let ready =
            |p: &usize| paths.space(*p) > 0 && self.own.get(*p).is_none_or(|q| !q.is_empty());
        match self.strategy {
            PullStrategy::Weighted if !self.per_path() => (0..self.paths())
                .filter(ready)
                .min_by_key(|&p| (self.taken[p], p)),
            PullStrategy::BestPath if !self.per_path() => (0..self.paths())
                .filter(ready)
                .min_by_key(|&p| (paths.quality(p), p)),
            _ => rotation(waker, self.paths()).find(ready),
        }
    }

    /// What the lock holder `path` takes: the head of the shared queue, or
    /// of its own. Under [`PullStrategy::DeadlineAware`] heads that have
    /// waited longer than [`PULL_DEADLINE_S`] at `now_ns` are dropped and
    /// counted on the way. `None`: the queue ran dry.
    pub fn take(&mut self, path: usize, now_ns: u64) -> Option<StreamPacket> {
        const DEADLINE_NS: u64 = (PULL_DEADLINE_S * 1e9) as u64;
        loop {
            let pkt = self
                .own
                .get_mut(path)
                .unwrap_or(&mut self.shared)
                .pull_one()?;
            if self.strategy == PullStrategy::DeadlineAware
                && now_ns.saturating_sub(pkt.gen_ns) > DEADLINE_NS
            {
                self.dropped_late += 1;
                continue;
            }
            if self.strategy == PullStrategy::Weighted {
                self.taken[path] += 1;
            }
            return Some(pkt);
        }
    }

    /// Who else sends a copy of what the holder just took. Dynamic
    /// [`PullStrategy::RedundantDuplicate`] hands the packet to every path
    /// with buffer space, in rotation order from `waker` (the client keeps
    /// the first arrival): this is the next such path after `last`, the
    /// holder or the previous copy's path. Always `None` otherwise.
    pub fn next_copy(&self, waker: usize, last: usize, paths: &impl PathView) -> Option<usize> {
        if self.strategy != PullStrategy::RedundantDuplicate || self.per_path() {
            return None;
        }
        let k = self.paths();
        let served = (last + k - waker) % k + 1;
        rotation(waker, k)
            .skip(served)
            .find(|&p| paths.space(p) > 0)
    }
}

/// Client-side reassembly: merges the per-path in-order TCP byte streams back
/// into a single stream ordered by sequence number, tracking duplicates.
///
/// `pop_ready` yields packets in strict sequence order (what a player
/// consuming by playback position would read); `drain_arrival_order` is used
/// by the "play back in arrival order" analysis of Section 4.1.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    next_seq: u64,
    pending: BTreeMap<u64, StreamPacket>,
    duplicates: u64,
}

impl ReorderBuffer {
    /// Create a buffer expecting sequence numbers from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a packet received from any path. Returns `true` if it was new,
    /// `false` if it was a duplicate (already delivered or already pending).
    pub fn insert(&mut self, pkt: StreamPacket) -> bool {
        if pkt.seq < self.next_seq || self.pending.contains_key(&pkt.seq) {
            self.duplicates += 1;
            return false;
        }
        self.pending.insert(pkt.seq, pkt);
        true
    }

    /// Remove and return the next in-sequence packet, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<StreamPacket> {
        let pkt = self.pending.remove(&self.next_seq)?;
        self.next_seq += 1;
        Some(pkt)
    }

    /// Sequence number the player is waiting for.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Packets received out of order and still waiting for a gap to fill.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Duplicate packets seen so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64) -> StreamPacket {
        StreamPacket {
            seq,
            gen_ns: seq * 1_000,
        }
    }

    #[test]
    fn dynamic_queue_pull_respects_space_and_order() {
        let mut q = DynamicQueue::new();
        for i in 0..5 {
            q.push(pkt(i));
        }
        let got: Vec<u64> = (0..3).filter_map(|_| q.pull_one()).map(|p| p.seq).collect();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
        assert_eq!(std::iter::from_fn(|| q.pull_one()).count(), 2);
        assert!(q.is_empty());
        assert_eq!(q.pull_one(), None);
        assert_eq!(q.total_generated(), 5);
    }

    /// A static round-robin scheme over `k` paths, and the path each of `n`
    /// generated packets is assigned to.
    fn static_split(k: usize, n: u64) -> (Scheme, Vec<usize>) {
        let mut s = Scheme::new(SchedulerKind::Static, PullStrategy::RoundRobin, k, n);
        let paths = (0..n).map(|i| {
            let (assigned, waker) = s.on_generated(pkt(i), &());
            assert_eq!(assigned, waker..waker + 1, "one path, and it wakes");
            waker
        });
        let paths = paths.collect();
        (s, paths)
    }

    #[test]
    fn static_splitter_equal_weights_alternates() {
        let (_, paths) = static_split(2, 6);
        // Two paths strictly alternate.
        assert_eq!(paths.iter().filter(|&&p| p == 0).count(), 3);
        for w in paths.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    /// The static split is the rotation `k − 1, …, 0`. It replaced a
    /// weighted round-robin over equal float credits, whose order this test
    /// replays: the same at `k` = 1, 2 and 4, where `1/k` is exact, and at
    /// `k` = 3 `2, 1, 0, 0, 2, 1, 0, …` — `fl(1/3)` credits gave path 0 the
    /// third and the fourth packet. Production only splits statically over
    /// two paths.
    #[test]
    fn static_splitter_respects_weights() {
        let credit_split = |k: usize, n: usize| {
            let mut credit = vec![0.0_f64; k];
            let mut turn = move || {
                credit.iter_mut().for_each(|c| *c += 1.0 / k as f64);
                let richest = credit.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
                let p = richest.expect("a path").0;
                credit[p] -= 1.0;
                p
            };
            (0..n).map(|_| turn()).collect::<Vec<_>>()
        };
        for k in 1..=4 {
            let (_, paths) = static_split(k, 1000);
            let rotation: Vec<usize> = (0..1000).map(|i| k - 1 - i % k).collect();
            assert_eq!(paths, rotation, "k = {k}");
            if k != 3 {
                assert_eq!(paths, credit_split(k, 1000), "k = {k}");
            }
        }
        assert_eq!(credit_split(3, 8), [2, 1, 0, 0, 2, 1, 0, 2]);
    }

    #[test]
    fn static_splitter_pull_is_per_path() {
        let (mut s, paths) = static_split(2, 4);
        assert_eq!(s.shared_depth(), None);
        let a: Vec<_> = std::iter::from_fn(|| s.take(0, 0)).collect();
        let b: Vec<_> = std::iter::from_fn(|| s.take(1, 0)).collect();
        assert_eq!((a.len(), b.len()), (2, 2));
        // Each path is served exactly what was assigned to it.
        assert!(a.iter().all(|p| paths[p.seq as usize] == 0));
        assert!(b.iter().all(|p| paths[p.seq as usize] == 1));
    }

    #[test]
    #[should_panic(expected = "at least one path required")]
    fn static_splitter_rejects_zero_weight() {
        static_split(0, 0);
    }

    #[test]
    fn reorder_buffer_merges_two_paths() {
        let mut rb = ReorderBuffer::new();
        // Path A delivers 0, 2, 4; path B delivers 1, 3.
        assert!(rb.insert(pkt(0)));
        assert!(rb.insert(pkt(2)));
        assert_eq!(rb.pop_ready().map(|p| p.seq), Some(0));
        assert_eq!(rb.pop_ready(), None); // waiting for 1
        assert!(rb.insert(pkt(1)));
        assert_eq!(rb.pop_ready().map(|p| p.seq), Some(1));
        assert_eq!(rb.pop_ready().map(|p| p.seq), Some(2));
        assert!(rb.insert(pkt(4)));
        assert!(rb.insert(pkt(3)));
        assert_eq!(rb.pop_ready().map(|p| p.seq), Some(3));
        assert_eq!(rb.pop_ready().map(|p| p.seq), Some(4));
        assert_eq!(rb.duplicates(), 0);
    }

    #[test]
    fn reorder_buffer_counts_duplicates() {
        let mut rb = ReorderBuffer::new();
        assert!(rb.insert(pkt(0)));
        assert!(!rb.insert(pkt(0))); // pending duplicate
        rb.pop_ready();
        assert!(!rb.insert(pkt(0))); // already-delivered duplicate
        assert_eq!(rb.duplicates(), 2);
    }
}
