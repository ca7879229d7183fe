//! TCP Reno sender with a finite socket send buffer.
//!
//! Modelled after ns-2's segment-counting TCP agents: sequence numbers count
//! whole segments, and all segments of a flow have the same payload size.
//! Implements slow start, congestion avoidance, fast retransmit / fast
//! recovery (Reno), retransmission timeouts with exponential backoff (capped
//! at 2⁶, matching the model's backoff state `E`), and Karn-compliant RTT
//! sampling.
//!
//! The **finite send buffer** is what DMP-streaming leans on: a sender whose
//! buffer (unsent + unacknowledged segments) is full blocks, and the
//! application learns about freed space through a wake notification. A path
//! with higher achievable throughput frees space faster and therefore pulls
//! more packets from the shared server queue.

use std::collections::VecDeque;

use cc::{AckCtx, Cc, CcAlgo, CcConfig, CcKind};
use obs::{EventKind, TraceEvent};

use crate::packet::{AppChunk, FlowId, NodeId, Packet};
use crate::tcp::rtt::RttEstimator;
use crate::time::{secs, SimTime};

/// Loss-recovery flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TcpFlavor {
    /// Classic Reno: exit fast recovery on the first new ACK (multi-loss
    /// windows often end in timeout). The paper's video streams use Reno.
    #[default]
    Reno,
    /// NewReno (RFC 3782): stay in recovery across partial ACKs,
    /// retransmitting one hole per RTT.
    NewReno,
}

/// Maximum RTO backoff exponent: the model's backoff state `E` caps at 6,
/// so the timer stops doubling at 64× the RTO.
const MAX_BACKOFF_EXP: u32 = 6;

/// Tunables of a TCP sender.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Segment payload size, bytes (1460 gives 1500-byte packets on the wire).
    pub payload_bytes: u32,
    /// Socket send buffer capacity, in segments (unsent + unacked).
    pub send_buf_pkts: usize,
    /// Maximum window (also stands in for the receiver's advertised window).
    pub max_wnd: u32,
    /// Initial congestion window, segments.
    pub initial_cwnd: f64,
    /// Loss-recovery flavour (Reno or NewReno).
    pub flavor: TcpFlavor,
    /// Congestion-control algorithm (window growth/decrease response).
    pub cc: CcKind,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            payload_bytes: 1460,
            send_buf_pkts: 64,
            max_wnd: 64,
            initial_cwnd: 2.0,
            flavor: TcpFlavor::Reno,
            cc: CcKind::Reno,
        }
    }
}

/// Where the sender's data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppMode {
    /// Application pushes explicit chunks into the send buffer (video).
    Buffered,
    /// Sender synthesises data: infinitely (FTP) while `remaining` is `None`,
    /// or until `remaining` segments have been handed to TCP (HTTP page).
    Backlogged { remaining: Option<u64> },
    /// No data until the application acts again (between HTTP transfers).
    Idle,
}

/// Counters a sender keeps for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// First transmissions of data segments.
    pub data_sent: u64,
    /// Retransmitted segments (timeout + fast retransmit).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
}

/// A TCP Reno sender endpoint.
#[derive(Debug)]
pub struct TcpSender {
    /// Flow this sender belongs to.
    pub flow: FlowId,
    /// Node the sender lives on.
    pub node: NodeId,
    /// Node of the receiving sink.
    pub peer: NodeId,
    /// Configuration.
    pub cfg: TcpConfig,

    // --- connection state ---
    next_seq: u64,
    snd_una: u64,
    /// Pluggable congestion-control algorithm: owns cwnd/ssthresh and every
    /// growth/decrease decision (loss *detection* stays here).
    cc: Cc,
    dupacks: u32,
    in_recovery: bool,
    /// Highest sequence outstanding when recovery began (NewReno's
    /// `recover` variable: recovery ends when this is cumulatively acked).
    recover: u64,
    backoff_exp: u32,
    /// One in-flight RTT sample: (segment, first-transmission time).
    sample: Option<(u64, SimTime)>,

    // --- data ---
    mode: AppMode,
    tx_buf: VecDeque<AppChunk>,
    /// Chunks sent but not yet cumulatively acked: segment `seq` lives at
    /// `inflight[seq & (len - 1)]`. The live range `[snd_una, next_seq)` is
    /// dense and never wider than `cfg.max_wnd`, which the power-of-two
    /// length covers — so residues cannot collide and no slot needs a
    /// presence flag: a slot below `snd_una` is simply never read again.
    inflight: Box<[AppChunk]>,

    // --- estimator & stats ---
    /// RTT estimator (public for measurement reports).
    pub rtt: RttEstimator,
    /// Counters.
    pub stats: SenderStats,

    // --- interaction with the simulator ---
    /// Packets emitted since the last flush.
    pub outbox: Vec<Packet>,
    /// Desired retransmission-timer deadline (None = cancelled).
    pub timer_deadline: Option<SimTime>,
    /// Set when `timer_deadline` changed and must be (re)scheduled.
    pub timer_dirty: bool,
    /// Engine bookkeeping: time of this sender's one outstanding timer event
    /// (None = none queued). The endpoint never reads it.
    pub(crate) timer_ev: Option<SimTime>,
    /// Set when send-buffer space became available (Buffered mode).
    pub wake_app: bool,
    /// Always-on metrics: `(RTT in µs, cwnd in whole packets)` of the RTT
    /// measurement the last new ACK completed (Karn-filtered, so about one
    /// per round trip). The engine takes it on flush and records it in the
    /// `Sim`'s histograms; an ACK completes at most one measurement and the
    /// engine flushes after every ACK, so one slot loses nothing.
    pub metric_sample: Option<(u64, u64)>,
    /// Set once when a sized backlogged transfer is fully acknowledged.
    pub transfer_complete: bool,
    /// Flight-recorder opt-in: when set, state transitions push trace
    /// events, stamped with this sender's `flow` as their `conn`, that the
    /// engine drains into the recorder on flush. Off by default, so an
    /// untraced sender takes one predictable branch per transition.
    pub trace_on: bool,
    /// Trace events since the last flush (empty unless `trace_on`).
    pub marks: Vec<TraceEvent>,
}

impl TcpSender {
    /// Create an idle sender for `flow` from `node` to `peer`.
    pub fn new(flow: FlowId, node: NodeId, peer: NodeId, cfg: TcpConfig) -> Self {
        let inflight_cap = (cfg.max_wnd as usize).next_power_of_two();
        Self {
            flow,
            node,
            peer,
            cfg,
            next_seq: 0,
            snd_una: 0,
            cc: Cc::new(
                cfg.cc,
                CcConfig {
                    initial_cwnd: cfg.initial_cwnd,
                    max_wnd: f64::from(cfg.max_wnd),
                },
            ),
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            backoff_exp: 0,
            sample: None,
            mode: AppMode::Buffered,
            tx_buf: VecDeque::new(),
            inflight: vec![AppChunk::synthetic(0, 0); inflight_cap].into_boxed_slice(),
            rtt: RttEstimator::default(),
            stats: SenderStats::default(),
            // One flush routes at most a window's worth of segments, so
            // reserving up front keeps the steady-state loop off the heap.
            outbox: Vec::with_capacity(cfg.max_wnd as usize + 1),
            timer_deadline: None,
            timer_dirty: false,
            timer_ev: None,
            wake_app: false,
            metric_sample: None,
            transfer_complete: false,
            trace_on: false,
            marks: Vec::new(),
        }
    }

    /// Take a trace event for this sender's connection (`trace_on` only).
    fn mark(&mut self, t: SimTime, kind: EventKind) {
        self.marks.push(TraceEvent { t, kind });
    }

    /// Note the current cwnd/ssthresh as a trace event (call after a change).
    fn mark_cwnd(&mut self, t: SimTime) {
        if self.trace_on {
            self.mark(
                t,
                EventKind::Cwnd {
                    conn: self.flow,
                    cwnd: self.cc.cwnd(),
                    ssthresh: self.cc.ssthresh(),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Application-facing API
    // ------------------------------------------------------------------

    /// Free space in the send buffer (Buffered mode), in segments.
    pub fn free_space(&self) -> usize {
        self.cfg
            .send_buf_pkts
            .saturating_sub(self.tx_buf.len() + self.unacked() as usize)
    }

    /// Push one chunk into the send buffer. Returns `false` (and drops the
    /// chunk) if the buffer is full. Call [`TcpSender::try_send`] afterwards.
    pub fn push_chunk(&mut self, chunk: AppChunk) -> bool {
        if self.free_space() == 0 {
            return false;
        }
        self.mode = AppMode::Buffered;
        self.tx_buf.push_back(chunk);
        true
    }

    /// Make the sender backlogged: infinite data (`None`) or a sized transfer
    /// of `Some(n)` segments.
    pub fn set_backlogged(&mut self, remaining: Option<u64>) {
        self.mode = AppMode::Backlogged { remaining };
    }

    /// Reset congestion state as if a fresh connection had been opened for a
    /// new transfer (used by the HTTP session generator). The RTT estimator
    /// is kept — a fresh handshake would re-measure it within one round trip.
    pub fn restart_connection(&mut self) {
        self.cc.reset();
        self.dupacks = 0;
        self.in_recovery = false;
        self.backoff_exp = 0;
    }

    /// Unacknowledged segments in flight.
    pub fn unacked(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    /// Highest cumulatively acknowledged segment (i.e., segments delivered).
    pub fn acked(&self) -> u64 {
        self.snd_una
    }

    /// Current congestion window (segments, fractional).
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Current slow-start threshold (segments).
    pub fn ssthresh(&self) -> f64 {
        self.cc.ssthresh()
    }

    /// True if a sized transfer is finished and the sender has gone idle.
    pub fn is_idle(&self) -> bool {
        self.mode == AppMode::Idle && self.unacked() == 0 && self.tx_buf.is_empty()
    }

    /// Total data transmissions (first + retransmissions); the denominator of
    /// the measured loss rate `p`.
    pub fn total_transmissions(&self) -> u64 {
        self.stats.data_sent + self.stats.retransmits
    }

    // ------------------------------------------------------------------
    // Protocol machinery
    // ------------------------------------------------------------------

    fn effective_wnd(&self) -> u64 {
        // The saturating cast is `floor` for every window (negatives and NaN
        // go to 0 either way) without the libm call baseline x86-64 needs.
        (self.cc.pacing_window() as u64).clamp(1, u64::from(self.cfg.max_wnd))
    }

    /// Data the application could still hand to TCP right now, segments.
    fn pending_app_data(&self) -> u64 {
        match self.mode {
            AppMode::Buffered => self.tx_buf.len() as u64,
            AppMode::Backlogged { remaining: None } => u64::MAX,
            AppMode::Backlogged { remaining: Some(n) } => n,
            AppMode::Idle => 0,
        }
    }

    /// RFC 2861 congestion-window validation, re-evaluated per ACK: the
    /// window (not the application) is the limit iff flight plus queued data
    /// could fill it. Without this check an application-limited stream
    /// inflates its window far beyond use and becomes artificially immune to
    /// halvings; with the old latched-until-next-send variant a single
    /// window-limited transmission kept an idle flow growing across
    /// arbitrarily many ACKs.
    fn is_cwnd_limited(&self) -> bool {
        self.unacked().saturating_add(self.pending_app_data()) >= self.effective_wnd()
    }

    fn next_chunk(&mut self, now: SimTime) -> Option<AppChunk> {
        match &mut self.mode {
            AppMode::Buffered => self.tx_buf.pop_front(),
            AppMode::Backlogged { remaining } => match remaining {
                None => Some(AppChunk::synthetic(self.next_seq, now)),
                Some(0) => None,
                Some(n) => {
                    *n -= 1;
                    Some(AppChunk::synthetic(self.next_seq, now))
                }
            },
            AppMode::Idle => None,
        }
    }

    #[inline]
    fn inflight_slot(&self, seq: u64) -> usize {
        (seq & (self.inflight.len() as u64 - 1)) as usize
    }

    /// Transmit as much as the window and available data allow.
    pub fn try_send(&mut self, now: SimTime) {
        let wnd = self.effective_wnd();
        while self.next_seq < self.snd_una + wnd {
            let Some(chunk) = self.next_chunk(now) else {
                break;
            };
            let slot = self.inflight_slot(self.next_seq);
            self.inflight[slot] = chunk;
            self.emit(self.next_seq, chunk, false);
            if self.sample.is_none() {
                self.sample = Some((self.next_seq, now));
            }
            self.stats.data_sent += 1;
            self.next_seq += 1;
        }
        if self.unacked() > 0 && self.timer_deadline.is_none() {
            self.arm_timer(now);
        }
    }

    fn emit(&mut self, seq: u64, chunk: AppChunk, retx: bool) {
        self.outbox.push(Packet::data(
            self.flow,
            seq,
            self.cfg.payload_bytes,
            self.node,
            self.peer,
            chunk,
            retx,
        ));
    }

    fn retransmit_head(&mut self) {
        assert!(
            self.unacked() > 0,
            "snd_una must be in flight when retransmitting"
        );
        let chunk = self.inflight[self.inflight_slot(self.snd_una)];
        self.emit(self.snd_una, chunk, true);
        self.stats.retransmits += 1;
        // Karn: never sample a segment that has been retransmitted.
        if let Some((s, _)) = self.sample {
            if s == self.snd_una {
                self.sample = None;
            }
        }
    }

    fn current_rto_secs(&self) -> f64 {
        (self.rtt.rto_secs() * f64::from(1u32 << self.backoff_exp)).min(self.rtt.max_rto)
    }

    fn arm_timer(&mut self, now: SimTime) {
        self.timer_deadline = Some(now + secs(self.current_rto_secs()));
        self.timer_dirty = true;
    }

    fn cancel_timer(&mut self) {
        if self.timer_deadline.is_some() {
            self.timer_deadline = None;
            self.timer_dirty = true;
        }
    }

    /// Handle a cumulative ACK for segment `ack` (next expected by the sink).
    pub fn on_ack(&mut self, ack: u64, now: SimTime) {
        // An ACK can never cover data that was not sent; clamp defensively.
        let ack = ack.min(self.next_seq);
        if ack > self.snd_una {
            self.handle_new_ack(ack, now);
        } else if ack == self.snd_una && self.unacked() > 0 {
            self.handle_dupack(now);
        }
        // ACKs below snd_una are stale; ignore.
        self.try_send(now);
        self.check_transfer_complete();
    }

    fn handle_new_ack(&mut self, ack: u64, now: SimTime) {
        // Window validation must look at the pre-ACK state: was the flight
        // that produced this ACK limited by the window?
        let cwnd_limited = self.is_cwnd_limited();
        let inflight_before = self.unacked();
        // RTT sample (Karn-compliant: sample is cleared on retransmission of
        // the timed segment and on timeouts).
        let mut rtt_sample_s = None;
        if let Some((s, t0)) = self.sample {
            if ack > s {
                self.rtt.update(now - t0);
                rtt_sample_s = Some((now - t0) as f64 / 1e9);
                self.sample = None;
                self.metric_sample = Some(((now - t0) / 1_000, self.cc.cwnd() as u64));
            }
        }
        let newly_acked = ack - self.snd_una;
        self.snd_una = ack;
        self.dupacks = 0;
        self.backoff_exp = 0;

        if self.in_recovery {
            if self.cfg.flavor == TcpFlavor::NewReno && ack < self.recover {
                // NewReno partial ACK: the next hole is now at snd_una —
                // retransmit it, deflate by the amount acked, stay in
                // recovery.
                self.cc.on_partial_ack(newly_acked);
                self.retransmit_head();
                if self.trace_on {
                    self.mark(
                        now,
                        EventKind::Retransmit {
                            conn: self.flow,
                            seq: self.snd_una,
                            fast: true,
                        },
                    );
                }
                self.mark_cwnd(now);
                self.arm_timer(now);
                self.try_send(now);
                self.note_send_space();
                return;
            }
            // Full ACK (or classic Reno): deflate and exit.
            self.cc.on_exit_recovery();
            self.in_recovery = false;
            if self.trace_on {
                self.mark(
                    now,
                    EventKind::FastRecovery {
                        conn: self.flow,
                        entered: false,
                    },
                );
            }
            self.mark_cwnd(now);
        } else {
            let before = self.cc.cwnd();
            self.cc.on_ack(&AckCtx {
                now_ns: now,
                newly_acked,
                rtt_sample_s,
                srtt_s: self.rtt.srtt_secs(),
                inflight: inflight_before,
                cwnd_limited,
            });
            if self.cc.cwnd() != before {
                self.mark_cwnd(now);
            }
        }

        if self.unacked() == 0 {
            self.cancel_timer();
        } else {
            self.arm_timer(now); // restart RTO on forward progress
        }
        self.note_send_space();
    }

    /// A new ACK freed send-buffer space. Only a buffered sender has a send
    /// buffer the application fills; a backlogged or idle one synthesises
    /// its own data, so there is nobody to wake.
    fn note_send_space(&mut self) {
        if self.mode == AppMode::Buffered {
            self.wake_app = true;
        }
    }

    fn handle_dupack(&mut self, now: SimTime) {
        self.dupacks += 1;
        if self.in_recovery {
            // Window inflation lets new data out during recovery.
            self.cc.on_dupack_inflate();
        } else if self.dupacks == 3 {
            self.recover = self.next_seq;
            self.retransmit_head();
            self.cc.on_dupack_loss();
            self.in_recovery = true;
            self.stats.fast_retransmits += 1;
            self.arm_timer(now);
            if self.trace_on {
                self.mark(
                    now,
                    EventKind::Retransmit {
                        conn: self.flow,
                        seq: self.snd_una,
                        fast: true,
                    },
                );
                self.mark(
                    now,
                    EventKind::FastRecovery {
                        conn: self.flow,
                        entered: true,
                    },
                );
            }
            self.mark_cwnd(now);
        }
    }

    /// The retransmission timer fired.
    pub fn on_timeout(&mut self, now: SimTime) {
        self.timer_deadline = None;
        if self.unacked() == 0 {
            return;
        }
        self.stats.timeouts += 1;
        self.cc.on_rto();
        self.in_recovery = false;
        self.dupacks = 0;
        self.sample = None;
        self.backoff_exp = (self.backoff_exp + 1).min(MAX_BACKOFF_EXP);
        self.retransmit_head();
        self.arm_timer(now);
        if self.trace_on {
            self.mark(
                now,
                EventKind::RtoTimeout {
                    conn: self.flow,
                    seq: self.snd_una,
                    backoff_exp: self.backoff_exp,
                },
            );
            self.mark(
                now,
                EventKind::Retransmit {
                    conn: self.flow,
                    seq: self.snd_una,
                    fast: false,
                },
            );
        }
        self.mark_cwnd(now);
        self.check_transfer_complete();
    }

    fn check_transfer_complete(&mut self) {
        if let AppMode::Backlogged { remaining: Some(0) } = self.mode {
            if self.unacked() == 0 {
                self.mode = AppMode::Idle;
                self.transfer_complete = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::time::SECOND;

    fn sender() -> TcpSender {
        TcpSender::new(0, 0, 1, TcpConfig::default())
    }

    fn drain(s: &mut TcpSender) -> Vec<Packet> {
        std::mem::take(&mut s.outbox)
    }

    #[test]
    fn initial_window_limits_burst() {
        let mut s = sender();
        s.set_backlogged(None);
        s.try_send(0);
        let pkts = drain(&mut s);
        assert_eq!(pkts.len(), 2); // initial cwnd = 2
        assert!(pkts.iter().all(|p| p.kind == PacketKind::Data));
        assert!(s.timer_deadline.is_some());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender();
        s.set_backlogged(None);
        s.try_send(0);
        drain(&mut s);
        // ACK both segments (one cumulative ACK as a delayed-ack sink would).
        s.on_ack(2, SECOND / 10);
        let pkts = drain(&mut s);
        // cwnd 2 → 3; window 3, nothing in flight → 3 new segments.
        assert_eq!(pkts.len(), 3);
        assert_eq!(s.cwnd().floor() as u64, 3);
    }

    #[test]
    fn buffered_mode_respects_send_buffer() {
        let mut s = TcpSender::new(
            0,
            0,
            1,
            TcpConfig {
                send_buf_pkts: 4,
                ..TcpConfig::default()
            },
        );
        for i in 0..4 {
            assert!(s.push_chunk(AppChunk::synthetic(i, 0)));
        }
        assert!(!s.push_chunk(AppChunk::synthetic(4, 0)), "buffer full");
        s.try_send(0);
        drain(&mut s);
        // Two in flight + two still buffered = 4; still no space.
        assert_eq!(s.free_space(), 0);
        s.on_ack(2, SECOND / 10);
        assert!(s.wake_app);
        assert!(s.free_space() > 0);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = sender();
        s.set_backlogged(None);
        s.try_send(0);
        s.on_ack(2, SECOND / 10); // cwnd 3
        s.on_ack(5, 2 * SECOND / 10); // cwnd 4... grow window a bit
        s.on_ack(9, 3 * SECOND / 10);
        drain(&mut s);
        let cwnd_before = s.cwnd();
        // Segment 9 lost: three dupacks for 9.
        s.on_ack(9, 4 * SECOND / 10);
        s.on_ack(9, 4 * SECOND / 10 + 1);
        s.on_ack(9, 4 * SECOND / 10 + 2);
        let pkts = drain(&mut s);
        assert!(pkts.iter().any(|p| p.seq == 9 && p.is_retransmit));
        assert_eq!(s.stats.fast_retransmits, 1);
        assert!(s.in_recovery);
        // New ACK deflates to ssthresh = cwnd_before/2.
        s.on_ack(14, 5 * SECOND / 10);
        assert!(!s.in_recovery);
        assert!((s.cwnd() - (cwnd_before / 2.0).max(2.0)).abs() < 1e-9);
    }

    #[test]
    fn timeout_backs_off_exponentially() {
        let mut s = sender();
        s.set_backlogged(None);
        s.try_send(0);
        drain(&mut s);
        let d1 = s.timer_deadline.unwrap();
        s.on_timeout(d1);
        let pkts = drain(&mut s);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].is_retransmit);
        assert_eq!(pkts[0].seq, 0);
        assert!((s.cwnd() - 1.0).abs() < 1e-12);
        let gap1 = s.timer_deadline.unwrap() - d1;
        s.on_timeout(s.timer_deadline.unwrap());
        let gap2 = s.timer_deadline.unwrap() - (d1 + gap1);
        assert_eq!(gap2, gap1 * 2, "second timeout doubles the RTO");
        assert_eq!(s.stats.timeouts, 2);
    }

    /// A traced sender's events carry its own flow id as `conn`, in the
    /// order its transitions happened; an untraced one takes none.
    #[test]
    fn a_traced_sender_stamps_its_flow_as_conn() {
        let run = |trace_on: bool| {
            let mut s = TcpSender::new(7, 0, 1, TcpConfig::default());
            s.trace_on = trace_on;
            s.set_backlogged(None);
            s.try_send(0);
            s.on_ack(2, SECOND / 10);
            s.on_ack(5, 2 * SECOND / 10);
            for i in 0..3 {
                s.on_ack(5, 3 * SECOND / 10 + i);
            }
            s.on_timeout(SECOND);
            s.marks
        };
        assert!(run(false).is_empty());
        let marks = run(true);
        let kinds: Vec<&str> = marks
            .iter()
            .map(|m| match m.kind {
                EventKind::Cwnd { conn: 7, .. } => "cwnd",
                EventKind::Retransmit {
                    conn: 7,
                    fast: true,
                    ..
                } => "fast retx",
                EventKind::Retransmit {
                    conn: 7,
                    fast: false,
                    ..
                } => "retx",
                EventKind::FastRecovery {
                    conn: 7,
                    entered: true,
                } => "fastrec",
                EventKind::RtoTimeout { conn: 7, .. } => "rto",
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "cwnd",
                "cwnd",
                "fast retx",
                "fastrec",
                "cwnd",
                "rto",
                "retx",
                "cwnd"
            ]
        );
        assert!(marks.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn backoff_caps_at_configured_exponent() {
        let mut s = sender();
        s.set_backlogged(None);
        s.try_send(0);
        drain(&mut s);
        for _ in 0..10 {
            s.on_timeout(s.timer_deadline.unwrap());
        }
        assert_eq!(s.backoff_exp, MAX_BACKOFF_EXP);
        // RTO multiplier is 64×, clamped to max_rto.
        assert!(s.current_rto_secs() <= s.rtt.max_rto);
    }

    #[test]
    fn sized_transfer_completes_once() {
        let mut s = sender();
        s.set_backlogged(Some(3));
        s.try_send(0);
        drain(&mut s);
        s.on_ack(2, SECOND / 10);
        drain(&mut s);
        assert!(!s.transfer_complete);
        s.on_ack(3, 2 * SECOND / 10);
        assert!(s.transfer_complete);
        assert!(s.is_idle());
        s.transfer_complete = false;
        s.on_ack(3, 3 * SECOND / 10);
        assert!(!s.transfer_complete, "completion latches");
    }

    #[test]
    fn new_ack_resets_backoff() {
        let mut s = sender();
        s.set_backlogged(None);
        s.try_send(0);
        drain(&mut s);
        s.on_timeout(s.timer_deadline.unwrap());
        assert_eq!(s.backoff_exp, 1);
        s.on_ack(1, SECOND);
        assert_eq!(s.backoff_exp, 0);
    }

    #[test]
    fn newreno_recovers_multiple_losses_without_timeout() {
        let mut s = TcpSender::new(
            0,
            0,
            1,
            TcpConfig {
                flavor: TcpFlavor::NewReno,
                ..TcpConfig::default()
            },
        );
        s.cc.set_ssthresh(2.0); // straight to CA for stable windows
        s.set_backlogged(None);
        s.try_send(0);
        drain(&mut s);
        // Grow a ~6-packet window.
        let mut t = SECOND / 10;
        for _ in 0..30 {
            s.on_ack(s.acked() + 1, t);
            t += SECOND / 100;
            drain(&mut s);
        }
        let una = s.acked();
        assert!(
            s.unacked() >= 5,
            "need several in flight, have {}",
            s.unacked()
        );
        // Segments una and una+1 are lost; dupacks arrive for una.
        s.on_ack(una, t);
        s.on_ack(una, t + 1);
        s.on_ack(una, t + 2);
        let pkts = drain(&mut s);
        assert!(pkts.iter().any(|p| p.seq == una && p.is_retransmit));
        assert!(s.in_recovery);
        // The retransmission of `una` is acked up to the NEXT hole (partial).
        s.on_ack(una + 1, t + 10);
        let pkts = drain(&mut s);
        assert!(
            pkts.iter().any(|p| p.seq == una + 1 && p.is_retransmit),
            "partial ACK must trigger retransmission of the next hole: {pkts:?}"
        );
        assert!(s.in_recovery, "NewReno stays in recovery on partial ACKs");
        // Acking everything outstanding ends recovery.
        let recover_point = s.acked() + s.unacked(); // == next_seq
        s.on_ack(recover_point, t + 20);
        assert!(!s.in_recovery);
        assert_eq!(s.stats.timeouts, 0, "no timeout needed");
    }

    #[test]
    fn reno_exits_recovery_on_first_new_ack() {
        let mut s = sender(); // default = Reno
        s.cc.set_ssthresh(2.0);
        s.set_backlogged(None);
        s.try_send(0);
        drain(&mut s);
        let mut t = SECOND / 10;
        for _ in 0..30 {
            s.on_ack(s.acked() + 1, t);
            t += SECOND / 100;
            drain(&mut s);
        }
        let una = s.acked();
        s.on_ack(una, t);
        s.on_ack(una, t + 1);
        s.on_ack(una, t + 2);
        drain(&mut s);
        assert!(s.in_recovery);
        s.on_ack(una + 1, t + 10); // partial in NewReno terms
        assert!(!s.in_recovery, "classic Reno deflates on any new ACK");
    }

    #[test]
    fn app_limited_flow_stops_growing_cwnd() {
        // RFC 2861 validation, re-evaluated per ACK: a buffered flow with
        // less data than its window must not grow the window, no matter how
        // many ACKs it receives.
        let mut s = sender();
        let mut t = 0;
        for burst in 0..20u64 {
            assert!(s.push_chunk(AppChunk::synthetic(burst, t)));
            s.try_send(t);
            drain(&mut s);
            t += SECOND / 10;
            s.on_ack(burst + 1, t);
        }
        assert_eq!(
            s.cwnd(),
            s.cfg.initial_cwnd,
            "one chunk in flight against a window of 2 is app-limited"
        );
        // The same flow becomes window-limited when its buffer fills; growth
        // resumes on the very next ACK burst.
        for i in 0..8u64 {
            assert!(s.push_chunk(AppChunk::synthetic(100 + i, t)));
        }
        s.try_send(t);
        drain(&mut s);
        s.on_ack(s.acked() + 2, t + SECOND / 10);
        assert!(s.cwnd() > s.cfg.initial_cwnd, "window-limited ACKs grow");
    }

    /// Drive a buffered sender through seeded sends, cumulative ACKs,
    /// fast retransmits and timeouts, mirroring every first transmission in
    /// a `BTreeMap`: each retransmission must carry the chunk its sequence
    /// number was first sent with, however often the ring has wrapped.
    #[test]
    fn dense_inflight_ring_matches_a_btreemap_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        for (seed, wnd) in [(1u64, 4u32), (2, 20), (3, 64)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = TcpSender::new(
                0,
                0,
                1,
                TcpConfig {
                    max_wnd: wnd,
                    send_buf_pkts: wnd as usize,
                    initial_cwnd: f64::from(wnd),
                    ..TcpConfig::default()
                },
            );
            let mut reference: BTreeMap<u64, AppChunk> = BTreeMap::new();
            let mut pushed = VecDeque::new();
            let (mut now, mut retransmits) = (0, 0u64);
            let wraps = |s: &TcpSender| s.acked() / u64::from(wnd.next_power_of_two());
            while wraps(&s) < 40 {
                now += SECOND / 100;
                while s.free_space() > 0 {
                    let chunk = AppChunk::synthetic(rng.gen_range(0..u64::MAX), now);
                    assert!(s.push_chunk(chunk));
                    pushed.push_back(chunk);
                }
                match rng.gen_range(0..10u32) {
                    0 => s.on_timeout(now),
                    1 => (0..3).for_each(|_| s.on_ack(s.acked(), now)),
                    _ if s.unacked() > 0 => {
                        let ack = s.acked() + rng.gen_range(1..=s.unacked());
                        s.on_ack(ack, now);
                        reference.retain(|&seq, _| seq >= ack);
                    }
                    _ => s.try_send(now),
                }
                assert!(s.unacked() <= u64::from(wnd), "flight outgrew max_wnd");
                for pkt in drain(&mut s) {
                    let chunk = pkt.chunk.expect("data");
                    if pkt.is_retransmit {
                        retransmits += 1;
                        assert_eq!(pkt.seq, s.acked(), "only the head is resent");
                        assert_eq!(Some(&chunk), reference.get(&pkt.seq), "wnd {wnd}");
                    } else {
                        assert_eq!(Some(chunk), pushed.pop_front(), "wnd {wnd}");
                        assert_eq!(reference.insert(pkt.seq, chunk), None);
                    }
                }
                assert_eq!(reference.len() as u64, s.unacked());
            }
            assert!(retransmits > 10, "wnd {wnd}: {retransmits} retransmits");
        }
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut s = sender();
        s.cc.set_ssthresh(2.0); // force CA immediately
        s.set_backlogged(None);
        s.try_send(0);
        drain(&mut s);
        let w0 = s.cwnd();
        s.on_ack(1, SECOND / 10);
        assert!((s.cwnd() - (w0 + 1.0 / w0)).abs() < 1e-12);
    }
}
