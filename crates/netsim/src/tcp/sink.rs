//! TCP receiver (sink): cumulative ACKs with the delayed-ACK algorithm and
//! out-of-order segment buffering.
//!
//! The delayed-ACK behaviour matters for fidelity to the paper's model, whose
//! per-flow state carries an explicit delayed-ACK component `C` (window
//! growth of one segment every two rounds in congestion avoidance).

use crate::packet::{AppChunk, FlowId, NodeId, Packet};
use crate::tcp::ring::SeqRing;
use crate::time::{SimTime, MILLISECOND};

/// Sink tunables.
#[derive(Debug, Clone, Copy)]
pub struct SinkConfig {
    /// Acknowledge every `ack_every`-th in-order segment (2 = standard
    /// delayed ACKs; 1 = ack every segment).
    pub ack_every: u32,
    /// Fire a pending delayed ACK after this much time even if no second
    /// segment shows up (RFC 1122 suggests ≤ 500 ms; common stacks ~100 ms).
    pub delack_timeout: SimTime,
}

impl Default for SinkConfig {
    fn default() -> Self {
        Self {
            ack_every: 2,
            delack_timeout: 100 * MILLISECOND,
        }
    }
}

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkStats {
    /// In-order segments delivered to the application.
    pub delivered: u64,
    /// Segments received more than once.
    pub duplicates: u64,
    /// Segments that arrived out of order (buffered).
    pub out_of_order: u64,
}

/// A TCP sink endpoint.
#[derive(Debug)]
pub struct TcpSink {
    /// Flow this sink terminates.
    pub flow: FlowId,
    /// Node the sink lives on.
    pub node: NodeId,
    /// Sender's node (destination for ACKs).
    pub peer: NodeId,
    /// Configuration.
    pub cfg: SinkConfig,

    rcv_next: u64,
    /// Segments received ahead of `rcv_next`, keyed by segment number. The
    /// sender's window bounds how far ahead a segment can be, so a
    /// seq-indexed ring of that many slots never grows.
    ooo: SeqRing<AppChunk>,
    delack_count: u32,

    /// Statistics.
    pub stats: SinkStats,

    // --- interaction with the simulator ---
    /// ACK packets emitted since the last flush.
    pub outbox: Vec<Packet>,
    /// In-order chunks delivered to the application since the last flush.
    pub delivered: Vec<AppChunk>,
    /// Desired delayed-ACK timer deadline.
    pub timer_deadline: Option<SimTime>,
    /// Set when `timer_deadline` changed.
    pub timer_dirty: bool,
    /// Engine bookkeeping: time of this sink's one outstanding timer event
    /// (None = none queued). The endpoint never reads it.
    pub(crate) timer_ev: Option<SimTime>,
}

impl TcpSink {
    /// Create a sink for `flow` on `node` acking back to `peer`, whose sender
    /// keeps at most `max_wnd` segments in flight.
    pub fn new(flow: FlowId, node: NodeId, peer: NodeId, cfg: SinkConfig, max_wnd: u32) -> Self {
        Self {
            flow,
            node,
            peer,
            cfg,
            rcv_next: 0,
            ooo: SeqRing::with_window(max_wnd as usize),
            delack_count: 0,
            stats: SinkStats::default(),
            outbox: Vec::new(),
            delivered: Vec::new(),
            timer_deadline: None,
            timer_dirty: false,
            timer_ev: None,
        }
    }

    /// Next expected segment number.
    pub fn rcv_next(&self) -> u64 {
        self.rcv_next
    }

    /// Segments currently buffered out of order.
    pub fn ooo_len(&self) -> usize {
        self.ooo.len()
    }

    fn send_ack(&mut self) {
        self.outbox
            .push(Packet::ack(self.flow, self.rcv_next, self.node, self.peer));
        self.delack_count = 0;
        if self.timer_deadline.is_some() {
            self.timer_deadline = None;
            self.timer_dirty = true;
        }
    }

    /// Handle an arriving data segment.
    pub fn on_data(&mut self, pkt: &Packet, now: SimTime) {
        let chunk = pkt.chunk.expect("data packets carry a chunk");
        if pkt.seq == self.rcv_next {
            let had_gap = !self.ooo.is_empty();
            self.rcv_next += 1;
            self.delivered.push(chunk);
            self.stats.delivered += 1;
            while let Some(c) = self.ooo.remove(self.rcv_next) {
                self.delivered.push(c);
                self.stats.delivered += 1;
                self.rcv_next += 1;
            }
            self.ooo.advance_to(self.rcv_next);
            if had_gap {
                // Filling (part of) a gap: ack immediately so the sender's
                // recovery makes progress (RFC 5681 §4.2).
                self.send_ack();
            } else {
                self.delack_count += 1;
                if self.delack_count >= self.cfg.ack_every {
                    self.send_ack();
                } else if self.timer_deadline.is_none() {
                    self.timer_deadline = Some(now + self.cfg.delack_timeout);
                    self.timer_dirty = true;
                }
            }
        } else if pkt.seq > self.rcv_next {
            // Out of order: buffer and emit an immediate duplicate ACK.
            if self.ooo.insert(pkt.seq, chunk).is_some() {
                self.stats.duplicates += 1;
            } else {
                self.stats.out_of_order += 1;
            }
            self.send_ack();
        } else {
            // Already received: duplicate; re-ack immediately.
            self.stats.duplicates += 1;
            self.send_ack();
        }
    }

    /// The delayed-ACK timer fired.
    pub fn on_delack_timer(&mut self) {
        self.timer_deadline = None;
        if self.delack_count > 0 {
            self.send_ack();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn data(seq: u64) -> Packet {
        Packet::data(0, seq, 1460, 0, 1, AppChunk::synthetic(seq, 0), false)
    }

    fn sink() -> TcpSink {
        TcpSink::new(0, 1, 0, SinkConfig::default(), 64)
    }

    #[test]
    fn delayed_ack_coalesces_pairs() {
        let mut s = sink();
        s.on_data(&data(0), 0);
        assert!(s.outbox.is_empty(), "first segment is delayed");
        assert!(s.timer_deadline.is_some());
        s.on_data(&data(1), 10);
        assert_eq!(s.outbox.len(), 1);
        assert_eq!(s.outbox[0].seq, 2);
        assert!(s.timer_deadline.is_none(), "ack cancels the delack timer");
    }

    #[test]
    fn delack_timer_flushes_odd_segment() {
        let mut s = sink();
        s.on_data(&data(0), 0);
        s.on_delack_timer();
        assert_eq!(s.outbox.len(), 1);
        assert_eq!(s.outbox[0].seq, 1);
    }

    #[test]
    fn out_of_order_generates_immediate_dupacks() {
        let mut s = sink();
        s.on_data(&data(0), 0);
        s.on_data(&data(1), 1); // ack 2 sent
        s.outbox.clear();
        // Segment 2 lost; 3, 4, 5 arrive.
        for seq in [3, 4, 5] {
            s.on_data(&data(seq), 10);
        }
        assert_eq!(s.outbox.len(), 3);
        assert!(s.outbox.iter().all(|a| a.seq == 2), "all dupacks for 2");
        assert_eq!(s.ooo_len(), 3);
        // Retransmission of 2 fills the gap: cumulative ack jumps to 6.
        s.outbox.clear();
        s.on_data(&data(2), 20);
        assert_eq!(s.outbox.len(), 1);
        assert_eq!(s.outbox[0].seq, 6);
        assert_eq!(s.ooo_len(), 0);
        // Application got everything in order.
        let seqs: Vec<u64> = s.delivered.iter().map(|c| c.stream_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn below_window_duplicate_is_reacked() {
        let mut s = sink();
        s.on_data(&data(0), 0);
        s.on_data(&data(1), 1);
        s.outbox.clear();
        s.on_data(&data(0), 5); // spurious retransmission
        assert_eq!(s.outbox.len(), 1);
        assert_eq!(s.outbox[0].seq, 2);
        assert_eq!(s.stats.duplicates, 1);
    }

    #[test]
    fn ack_every_one_disables_delay() {
        let mut s = TcpSink::new(
            0,
            1,
            0,
            SinkConfig {
                ack_every: 1,
                ..SinkConfig::default()
            },
            64,
        );
        s.on_data(&data(0), 0);
        assert_eq!(s.outbox.len(), 1);
    }
}
