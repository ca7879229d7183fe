//! Unidirectional links: a transmitter serialising packets at a fixed
//! bandwidth, a drop-tail FIFO queue in front of it, and a propagation delay.
//!
//! This mirrors ns-2's `SimpleLink` + `DropTail` queue, which is where all
//! packet loss in the paper's simulations happens (buffer overflow at the
//! bottleneck).
//!
//! # Coalesced delivery
//!
//! The link keeps one ring of packets: the front segment is *on the wire*
//! (departed, each stamped with its arrival time), the back segment is
//! *queued* behind the transmitter. Nothing is scheduled per packet —
//! [`Link::advance`] lazily drains queue → wire up to the current time, and
//! the simulator keeps a single tracked delivery event per link aimed at the
//! wire head. A link's rate and delay are fixed when it is built, so with
//! FIFO serialisation the arrival stamps are monotone: the head's arrival
//! time never moves once stamped, and that one event never goes stale.
//! Compared to the classic two-events-per-transit (`LinkTxDone` +
//! `Arrival`) design this roughly halves scheduler traffic on transit-heavy
//! topologies.
//!
//! Laziness keeps an admin-down exact: it advances the link to `now` first
//! (as every offer and delivery does), so it flushes precisely the packets
//! that have not yet started.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::packet::{NodeId, Packet, PacketKind};
use crate::red::{RedParams, RedState, RedVerdict};
use crate::time::{round_ns, SimTime};

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Transmission rate in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimTime,
    /// Drop-tail queue capacity, in packets (not counting the packet being
    /// transmitted).
    pub queue_pkts: usize,
    /// Random (Bernoulli) loss applied to every offered packet, for fault
    /// injection and controlled-loss experiments. 0 = lossless link.
    pub random_loss: f64,
    /// Optional RED active queue management (None = plain drop-tail, as in
    /// all of the paper's experiments).
    pub red: Option<RedParams>,
}

impl LinkSpec {
    /// Convenience constructor from Mbps / ms / packets — the units used in
    /// Table 1 of the paper.
    pub fn from_table(bandwidth_mbps: f64, delay_ms: f64, queue_pkts: usize) -> Self {
        Self {
            bandwidth_bps: bandwidth_mbps * 1e6,
            delay: crate::time::millis(delay_ms),
            queue_pkts,
            random_loss: 0.0,
            red: None,
        }
    }

    /// The same link with Bernoulli packet loss `p` applied on entry.
    pub fn with_random_loss(self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss must be in [0,1)");
        Self {
            random_loss: p,
            ..self
        }
    }

    /// The same link with RED active queue management.
    pub fn with_red(self, params: RedParams) -> Self {
        Self {
            red: Some(params),
            ..self
        }
    }

    /// Time to serialise `bytes` onto the wire, ns. Computed as a single
    /// multiply by the per-byte cost so it agrees bit-for-bit with the
    /// cached hot path in [`Link`].
    pub fn tx_time(&self, bytes: u32) -> SimTime {
        round_ns(f64::from(bytes) * (8e9 / self.bandwidth_bps))
    }
}

/// Counters kept per link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets accepted (transmitted or queued).
    pub accepted: u64,
    /// Packets dropped at the queue.
    pub dropped: u64,
    /// Data packets dropped (subset of `dropped`).
    pub data_dropped: u64,
    /// Packets dropped by the Bernoulli random-loss process (subset of
    /// `dropped`).
    pub random_dropped: u64,
    /// Packets dropped because the link was administratively down, including
    /// queued packets flushed when it went down (subset of `dropped`).
    pub admin_dropped: u64,
    /// Bytes transmitted.
    pub bytes_tx: u64,
    /// Peak queue occupancy observed (packets waiting behind the
    /// transmitter, excluding the wire).
    pub peak_queue: usize,
    /// Peak ring occupancy (queued + on the wire) — the per-link analogue of
    /// the retired global packet-slab high-water mark.
    pub peak_ring: usize,
    /// Sum of queue lengths sampled at packet arrivals (divide by
    /// `queue_samples` for the arrival-averaged queue).
    pub queue_len_sum: u64,
    /// Number of arrival samples taken.
    pub queue_samples: u64,
}

impl LinkStats {
    /// Arrival-averaged queue length, packets.
    pub fn mean_queue(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_len_sum as f64 / self.queue_samples as f64
        }
    }
}

/// One slot of the link ring: within the wire segment `at` is the stamped
/// arrival time; within the queued segment it is meaningless (0).
#[derive(Debug, Clone, Copy)]
struct WireEntry {
    at: SimTime,
    pkt: Packet,
}

/// A unidirectional link. The simulator drives it lazily: `advance` to the
/// current time before every touch, then `offer` to inject a packet and
/// `pop_due` to collect arrivals at the tracked delivery time.
#[derive(Debug)]
pub struct Link {
    /// Static parameters, fixed when the link is built. Only the admin
    /// state ([`Link::set_admin_down`]) changes at runtime.
    pub spec: LinkSpec,
    /// Node at the transmitting end (used to validate routing tables).
    pub from: NodeId,
    /// Node at the receiving end.
    pub to: NodeId,
    admin_down: bool,
    /// `ring[..started]` is the wire (departed, arrival-stamped, arrival
    /// times monotone non-decreasing); `ring[started..]` is the queue.
    ring: VecDeque<WireEntry>,
    started: usize,
    /// When the transmitter finishes serialising the last started packet.
    free_at: SimTime,
    /// Nanoseconds per byte (`8e9 / bandwidth_bps`), cached so a memo miss
    /// is one multiply, not a divide.
    ns_per_byte: f64,
    /// `(size_bytes, tx_ns)` of the two packet sizes serialised most
    /// recently (a flow has two: data and ACK). Size 0 serialises in 0 ns,
    /// so the zeroed memo is already valid.
    tx_memo: [(u32, SimTime); 2],
    /// Per-link random stream (Bernoulli loss, RED). Seeded per link so
    /// loss-free links never draw and lossy links never perturb each other.
    rng: SmallRng,
    red: Option<RedState>,
    /// Engine bookkeeping: is the simulator's one delivery event for this
    /// link in its queue? Its time needs no field — the event always targets
    /// the wire head, whose stamp never moves.
    pub(crate) deliver_ev: bool,
    /// Statistics.
    pub stats: LinkStats,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// The link was idle; the packet departed onto the wire immediately.
    Started,
    /// The packet was queued behind the current transmission.
    Queued,
    /// The queue was full (or the link down/lossy); the packet is gone.
    Dropped(Packet),
}

impl Link {
    /// Serialisation time; identical to `self.spec.tx_time(bytes)` by
    /// construction — a memo hit returns what the same expression produced
    /// for the same size.
    #[inline]
    fn tx_ns(&mut self, bytes: u32) -> SimTime {
        let [a, b] = self.tx_memo;
        if a.0 == bytes {
            return a.1;
        }
        if b.0 == bytes {
            return b.1;
        }
        let ns = round_ns(f64::from(bytes) * self.ns_per_byte);
        self.tx_memo = [(bytes, ns), a];
        ns
    }

    /// Create an idle link from `from` delivering to `to`. `seed` starts the
    /// link's private random stream (derive it from the sim seed and the
    /// link's index for determinism).
    pub fn new(spec: LinkSpec, from: NodeId, to: NodeId, seed: u64) -> Self {
        Self {
            spec,
            from,
            to,
            admin_down: false,
            ring: VecDeque::new(),
            started: 0,
            free_at: 0,
            ns_per_byte: 8e9 / spec.bandwidth_bps,
            tx_memo: [(0, 0); 2],
            rng: SmallRng::seed_from_u64(seed),
            red: spec.red.map(RedState::new),
            deliver_ev: false,
            stats: LinkStats::default(),
        }
    }

    /// Drain queue → wire up to `now`: every queued packet whose
    /// serialisation starts at or before `now` departs.
    /// `on_depart(start, queue_len)` fires per departure (for
    /// queue-occupancy tracing) with the queue length remaining after the
    /// pop.
    ///
    /// Postcondition: queued packets remain only if the transmitter is still
    /// busy (`free_at > now`).
    #[inline(always)]
    pub fn advance(&mut self, now: SimTime, on_depart: impl FnMut(SimTime, usize)) {
        // Most touches find nothing to start (empty queue, or a transmitter
        // still busy): those pay this test, not a call.
        if self.started < self.ring.len() && self.free_at <= now {
            self.start_due(now, on_depart);
        }
    }

    /// The body of [`advance`](Self::advance), entered only with a packet to
    /// start.
    #[inline(never)]
    fn start_due(&mut self, now: SimTime, mut on_depart: impl FnMut(SimTime, usize)) {
        while self.started < self.ring.len() && self.free_at <= now {
            let start = self.free_at;
            let size = self.ring[self.started].pkt.size_bytes;
            let done = start + self.tx_ns(size);
            let arrive = done + self.spec.delay;
            self.debug_assert_fifo(arrive);
            let entry = &mut self.ring[self.started];
            entry.at = arrive;
            self.free_at = done;
            self.stats.bytes_tx += u64::from(entry.pkt.size_bytes);
            self.started += 1;
            on_depart(start, self.ring.len() - self.started);
        }
    }

    /// Offer a packet for transmission at `now`. The caller must have
    /// [`advance`](Self::advance)d the link to `now` first.
    pub fn offer(&mut self, now: SimTime, pkt: Packet) -> Offer {
        debug_assert!(
            self.started == self.ring.len() || self.free_at > now,
            "offer on un-advanced link"
        );
        let queued = self.ring.len() - self.started;
        self.stats.queue_len_sum += queued as u64;
        self.stats.queue_samples += 1;
        if self.admin_down {
            self.stats.dropped += 1;
            self.stats.admin_dropped += 1;
            if pkt.kind == PacketKind::Data {
                self.stats.data_dropped += 1;
            }
            return Offer::Dropped(pkt);
        }
        if self.spec.random_loss > 0.0 && self.rng.gen_range(0.0..1.0) < self.spec.random_loss {
            self.stats.dropped += 1;
            self.stats.random_dropped += 1;
            if pkt.kind == PacketKind::Data {
                self.stats.data_dropped += 1;
            }
            return Offer::Dropped(pkt);
        }
        if let Some(red) = &mut self.red {
            if red.on_arrival(queued, &mut self.rng) == RedVerdict::Drop {
                self.stats.dropped += 1;
                if pkt.kind == PacketKind::Data {
                    self.stats.data_dropped += 1;
                }
                return Offer::Dropped(pkt);
            }
        }
        if self.free_at <= now {
            // Transmitter idle (and, post-advance, the queue is empty):
            // depart immediately.
            let done = now + self.tx_ns(pkt.size_bytes);
            let arrive = done + self.spec.delay;
            self.debug_assert_fifo(arrive);
            self.free_at = done;
            self.ring.push_back(WireEntry { at: arrive, pkt });
            self.started += 1;
            self.stats.accepted += 1;
            self.stats.bytes_tx += u64::from(pkt.size_bytes);
            self.stats.peak_ring = self.stats.peak_ring.max(self.ring.len());
            Offer::Started
        } else if queued < self.spec.queue_pkts {
            self.ring.push_back(WireEntry { at: 0, pkt });
            self.stats.accepted += 1;
            self.stats.peak_queue = self.stats.peak_queue.max(queued + 1);
            self.stats.peak_ring = self.stats.peak_ring.max(self.ring.len());
            Offer::Queued
        } else {
            self.stats.dropped += 1;
            if pkt.kind == PacketKind::Data {
                self.stats.data_dropped += 1;
            }
            Offer::Dropped(pkt)
        }
    }

    /// A departure stamped `arrive` lands no earlier than the wire tail:
    /// serialisation is FIFO and the delay constant, so stamps are monotone
    /// and the simulator's one delivery event per link, aimed at the wire
    /// head, never goes stale.
    #[inline(always)]
    fn debug_assert_fifo(&self, arrive: SimTime) {
        debug_assert!(
            self.started == 0 || self.ring[self.started - 1].at <= arrive,
            "wire stamps out of order"
        );
    }

    /// Pop the wire head if it has arrived by `now`. The simulator calls
    /// this in a loop at the tracked delivery time (arrivals stamped equal
    /// coalesce into one event).
    pub fn pop_due(&mut self, now: SimTime) -> Option<Packet> {
        if self.started > 0 {
            let head = self.ring.front().expect("wire segment non-empty");
            if head.at <= now {
                let pkt = head.pkt;
                self.ring.pop_front();
                self.started -= 1;
                return Some(pkt);
            }
        }
        None
    }

    /// Arrival time of the wire head (what the simulator's tracked delivery
    /// event must aim at), if anything is in flight.
    pub fn next_arrival(&self) -> Option<SimTime> {
        if self.started > 0 {
            Some(self.ring.front().expect("wire segment non-empty").at)
        } else {
            None
        }
    }

    /// Administratively down (or up) the link. The caller must `advance` to
    /// `now` first. Going down flushes the queue (packets that have not
    /// started serialising) and returns the flushed packets so the caller
    /// can account per-flow drops; while down every offered packet is
    /// dropped. Packets already on the wire complete and propagate — as on a
    /// real link where bits already sent still arrive. Going up returns an
    /// empty Vec.
    pub fn set_admin_down(&mut self, down: bool) -> Vec<Packet> {
        self.admin_down = down;
        if !down {
            return Vec::new();
        }
        let flushed: Vec<Packet> = self.ring.drain(self.started..).map(|e| e.pkt).collect();
        for pkt in &flushed {
            self.stats.dropped += 1;
            self.stats.admin_dropped += 1;
            if pkt.kind == PacketKind::Data {
                self.stats.data_dropped += 1;
            }
        }
        flushed
    }

    /// Packets currently queued (excluding any on the wire).
    pub fn queue_len(&self) -> usize {
        self.ring.len() - self.started
    }

    /// Packets departed but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.started
    }

    /// Is a transmission in progress at `now`? (Meaningful after `advance`.)
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.free_at > now
    }

    /// Average utilisation given total elapsed time.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        (self.stats.bytes_tx as f64 * 8.0)
            / (self.spec.bandwidth_bps * crate::time::to_secs(elapsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::AppChunk;

    fn pkt(seq: u64) -> Packet {
        Packet::data(0, seq, 1460, 0, 1, AppChunk::synthetic(seq, 0), false)
    }

    fn link(cap: usize) -> Link {
        Link::new(LinkSpec::from_table(1.0, 10.0, cap), 0, 1, 1)
    }

    /// Advance with no tracing and drain every arrival due by `now`.
    fn drain(l: &mut Link, now: SimTime) -> Vec<(SimTime, u64)> {
        l.advance(now, |_, _| {});
        let mut out = Vec::new();
        while let Some(at) = l.next_arrival() {
            if at > now {
                break;
            }
            let p = l.pop_due(now).unwrap();
            out.push((at, p.seq));
        }
        out
    }

    #[test]
    fn tx_time_is_exact() {
        let spec = LinkSpec::from_table(1.5, 0.0, 10);
        // 1500 B at 1.5 Mbps = 8 ms.
        assert_eq!(spec.tx_time(1500), 8_000_000);
    }

    #[test]
    fn memoised_serialisation_time_is_the_spec_formula() {
        // Four sizes in rotation over a two-entry memo: hits, misses and
        // evictions all answer what `LinkSpec::tx_time` computes afresh.
        for mbps in [3.7, 1.234_567] {
            let mut l = Link::new(LinkSpec::from_table(mbps, 1.0, 10), 0, 1, 1);
            for round in 0..3 {
                for bytes in [40, 40, 1_040, 1_500, 1_500, 40, 9_000] {
                    assert_eq!(
                        l.tx_ns(bytes),
                        l.spec.tx_time(bytes),
                        "{bytes} B at {mbps} Mbps, round {round}"
                    );
                }
            }
        }
        // The memo starts out answering for size 0, correctly.
        let mut fresh = link(1);
        assert_eq!(fresh.tx_ns(0), fresh.spec.tx_time(0));
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut l = link(2);
        assert_eq!(l.offer(0, pkt(0)), Offer::Started);
        assert!(l.is_busy(0));
        // 1460 B payload + 40 B header at 1 Mbps = 12 ms tx + 10 ms delay.
        assert_eq!(l.next_arrival(), Some(22_000_000));
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut l = link(2);
        assert_eq!(l.offer(0, pkt(0)), Offer::Started);
        assert_eq!(l.offer(0, pkt(1)), Offer::Queued);
        assert_eq!(l.offer(0, pkt(2)), Offer::Queued);
        assert!(matches!(l.offer(0, pkt(3)), Offer::Dropped(_)));
        assert_eq!(l.stats.dropped, 1);
        assert_eq!(l.stats.data_dropped, 1);
        assert_eq!(l.queue_len(), 2);
        assert_eq!(l.stats.peak_ring, 3);
    }

    #[test]
    fn back_to_back_transmissions_space_arrivals_by_tx_time() {
        // Three packets offered together: the wire serialises them
        // back-to-back, so arrivals are spaced by exactly one tx time.
        let mut l = link(5);
        let tx = l.spec.tx_time(1500);
        let delay = l.spec.delay;
        l.offer(0, pkt(0));
        l.offer(0, pkt(1));
        l.offer(0, pkt(2));
        let end = 3 * tx + delay;
        let got = drain(&mut l, end);
        assert_eq!(
            got,
            vec![(tx + delay, 0), (2 * tx + delay, 1), (3 * tx + delay, 2)]
        );
        assert!(!l.is_busy(end));
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn advance_is_lazy_and_exact() {
        let mut l = link(5);
        let tx = l.spec.tx_time(1500);
        l.offer(0, pkt(0));
        l.offer(0, pkt(1));
        // Advance to just before the first tx completes: nothing new departs.
        l.advance(tx - 1, |_, _| {});
        assert_eq!(l.in_flight(), 1);
        assert_eq!(l.queue_len(), 1);
        // At exactly tx the second packet departs, starting at `tx`.
        let mut starts = Vec::new();
        l.advance(tx, |s, q| starts.push((s, q)));
        assert_eq!(starts, vec![(tx, 0)]);
        assert_eq!(l.in_flight(), 2);
    }

    #[test]
    fn peak_queue_tracked() {
        let mut l = link(5);
        l.offer(0, pkt(0));
        for i in 1..=4 {
            l.offer(0, pkt(i));
        }
        assert_eq!(l.stats.peak_queue, 4);
        assert_eq!(l.stats.peak_ring, 5);
    }

    #[test]
    fn admin_down_flushes_queue_and_blackholes_offers() {
        let mut l = link(5);
        let tx = l.spec.tx_time(1500);
        let delay = l.spec.delay;
        assert_eq!(l.offer(0, pkt(0)), Offer::Started);
        l.offer(0, pkt(1));
        l.offer(0, pkt(2));
        // Down mid-serialisation: queued packets flush, the wire survives.
        l.advance(tx / 2, |_, _| {});
        let flushed = l.set_admin_down(true);
        assert_eq!(flushed.len(), 2);
        assert_eq!(l.queue_len(), 0);
        assert_eq!(l.stats.admin_dropped, 2);
        assert!(matches!(l.offer(tx / 2, pkt(3)), Offer::Dropped(_)));
        // The in-flight departure still arrives on time.
        let got = drain(&mut l, tx + delay);
        assert_eq!(got, vec![(tx + delay, 0)]);
        assert!(!l.is_busy(tx + delay));
        // Back up: traffic flows again, starting from the up time.
        assert!(l.set_admin_down(false).is_empty());
        let t_up = tx + delay;
        assert_eq!(l.offer(t_up, pkt(4)), Offer::Started);
        assert_eq!(l.next_arrival(), Some(t_up + tx + delay));
    }

    #[test]
    fn random_loss_drops_at_configured_rate() {
        let spec = LinkSpec::from_table(100.0, 1.0, 1000).with_random_loss(0.25);
        let mut l = Link::new(spec, 0, 1, 7);
        let mut dropped = 0u64;
        let mut now = 0;
        for i in 0..20_000 {
            l.advance(now, |_, _| {});
            if matches!(l.offer(now, pkt(i)), Offer::Dropped(_)) {
                dropped += 1;
            }
            now += l.spec.tx_time(1500) + 1;
        }
        let rate = dropped as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate}");
    }
}
