//! Server-side packet schedulers and the client-side reorder buffer.
//!
//! These types capture the *logic* of the schemes; the event loops that drive
//! them live in `dmp-sim` (discrete-event time) and `dmp-live` (tokio).

use std::collections::{BTreeMap, VecDeque};

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

/// The DMP-streaming server queue: a single FIFO of generated-but-unsent
/// packets, shared by all TCP senders.
///
/// Packets with earlier playback times sit at the head. A sender that can
/// accept data takes the lock and drains from the head until it is full
/// ([`DynamicQueue::pull`]); this is the entire scheduling policy of
/// DMP-streaming.
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

    /// A sender with `space` free slots in its send buffer takes the lock and
    /// fetches packets from the head of the queue. Returns the packets
    /// fetched (at most `space`, fewer if the queue runs dry).
    pub fn pull(&mut self, space: usize) -> Vec<StreamPacket> {
        let n = space.min(self.q.len());
        self.q.drain(..n).collect()
    }

    /// Fetch a single packet from the head of the queue. The allocation-free
    /// counterpart of [`pull`](Self::pull) for per-packet consumers (the
    /// simulator's DMP server pulls this way so its steady state never
    /// touches the heap).
    pub fn pull_one(&mut self) -> Option<StreamPacket> {
        self.q.pop_front()
    }

    /// Peek at the next packet without removing it.
    pub fn peek(&self) -> Option<&StreamPacket> {
        self.q.front()
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

/// The static-streaming baseline: packets are assigned to paths ahead of
/// time, in proportion to fixed weights (long-term average path bandwidths,
/// measured beforehand). With equal weights over two paths this is the
/// odd/even split the paper analyses.
///
/// Each path gets its own unbounded server-side queue; a path's sender only
/// ever pulls from its own queue, so a congested path cannot shed load onto
/// the others — exactly the weakness Section 7.4 quantifies.
#[derive(Debug, Clone)]
pub struct StaticSplitter {
    weights: Vec<f64>,
    /// Weighted-round-robin deficit counters.
    credit: Vec<f64>,
    queues: Vec<VecDeque<StreamPacket>>,
    assigned: Vec<u64>,
}

impl StaticSplitter {
    /// Create a splitter for `weights.len()` paths. Weights must be positive;
    /// they are normalised internally.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a non-positive weight.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "at least one path required");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let sum: f64 = weights.iter().sum();
        let weights: Vec<f64> = weights.iter().map(|w| w / sum).collect();
        let n = weights.len();
        Self {
            weights,
            credit: vec![0.0; n],
            queues: vec![VecDeque::new(); n],
            assigned: vec![0; n],
        }
    }

    /// Number of paths.
    pub fn paths(&self) -> usize {
        self.weights.len()
    }

    /// Assign a freshly generated packet to a path (weighted round-robin:
    /// the path with the largest accumulated credit receives it). Returns the
    /// chosen path index.
    pub fn push(&mut self, pkt: StreamPacket) -> usize {
        for (c, w) in self.credit.iter_mut().zip(&self.weights) {
            *c += w;
        }
        let k = self
            .credit
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("credits are finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        self.credit[k] -= 1.0;
        self.queues[k].push_back(pkt);
        self.assigned[k] += 1;
        k
    }

    /// A sender on path `k` with `space` free slots pulls from *its own*
    /// queue only.
    pub fn pull(&mut self, k: usize, space: usize) -> Vec<StreamPacket> {
        let q = &mut self.queues[k];
        let n = space.min(q.len());
        q.drain(..n).collect()
    }

    /// Fetch a single packet assigned to path `k` (allocation-free
    /// counterpart of [`pull`](Self::pull)).
    pub fn pull_one(&mut self, k: usize) -> Option<StreamPacket> {
        self.queues[k].pop_front()
    }

    /// Peek at the next packet assigned to path `k` without removing it.
    pub fn peek(&self, k: usize) -> Option<&StreamPacket> {
        self.queues[k].front()
    }

    /// Assign a packet to an explicitly chosen path, bypassing the
    /// weighted-round-robin credit counters (used by the non-default pull
    /// strategies, which make their own placement decisions).
    pub fn assign(&mut self, k: usize, pkt: StreamPacket) {
        self.queues[k].push_back(pkt);
        self.assigned[k] += 1;
    }

    /// Packets waiting for path `k`.
    pub fn queued(&self, k: usize) -> usize {
        self.queues[k].len()
    }

    /// Total packets ever assigned to path `k`.
    pub fn assigned(&self, k: usize) -> u64 {
        self.assigned[k]
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
        let got = q.pull(3);
        assert_eq!(got.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
        let got = q.pull(10);
        assert_eq!(got.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.total_generated(), 5);
    }

    #[test]
    fn dynamic_queue_pull_zero_is_noop() {
        let mut q = DynamicQueue::new();
        q.push(pkt(0));
        assert!(q.pull(0).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek().map(|p| p.seq), Some(0));
    }

    #[test]
    fn static_splitter_equal_weights_alternates() {
        let mut s = StaticSplitter::new(&[1.0, 1.0]);
        let paths: Vec<usize> = (0..6).map(|i| s.push(pkt(i))).collect();
        // Weighted round-robin with equal weights strictly alternates.
        assert_eq!(s.assigned(0), 3);
        assert_eq!(s.assigned(1), 3);
        for w in paths.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn static_splitter_respects_weights() {
        let mut s = StaticSplitter::new(&[3.0, 1.0]);
        for i in 0..4000 {
            s.push(pkt(i));
        }
        let share0 = s.assigned(0) as f64 / 4000.0;
        assert!((share0 - 0.75).abs() < 0.01, "share0 = {share0}");
    }

    #[test]
    fn static_splitter_pull_is_per_path() {
        let mut s = StaticSplitter::new(&[1.0, 1.0]);
        for i in 0..4 {
            s.push(pkt(i));
        }
        let a = s.pull(0, 10);
        let b = s.pull(1, 10);
        assert_eq!(a.len() + b.len(), 4);
        // Every packet appears exactly once across the two pulls.
        let mut seqs: Vec<u64> = a.iter().chain(&b).map(|p| p.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn static_splitter_rejects_zero_weight() {
        StaticSplitter::new(&[1.0, 0.0]);
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
