//! Flight-recorder integration: the hooks through which a simulation feeds
//! the `obs` event bus.
//!
//! A [`SimTracer`] is attached with [`crate::Sim::set_tracer`] and holds a
//! shared handle to the run's [`obs::Recorder`]. Tracing is strictly opt-in
//! per entity: only flows registered with [`SimTracer::trace_flow`] emit TCP
//! state transitions and only links registered with
//! [`SimTracer::trace_link`] emit queue-occupancy samples — a traced
//! experiment records its two video connections and two bottlenecks, not the
//! packet storm of forty background flows.
//!
//! Determinism: emission reads simulation state but never mutates it, never
//! touches the RNG, and never schedules events, so a traced run makes
//! exactly the same decisions as an untraced one, and the event order (hence
//! the trace bytes) is the one the event queue's `(time, seq)` contract
//! fixes.

use std::cell::RefCell;
use std::rc::Rc;

use obs::{EventKind, Recorder};

use crate::packet::{FlowId, LinkId};
use crate::time::SimTime;

/// Compile-time recording mode: the engine's dispatch loop is monomorphized
/// over this marker so an untraced run carries *zero* tracer branches on the
/// hot path — "zero-cost-when-off" is literal, not a predictable-branch
/// euphemism. [`crate::Sim::run_until`] branches once per call on whether a
/// tracer is installed and enters the [`Recorded`] or [`Unrecorded`]
/// instantiation of the whole event loop.
pub trait RecordMode {
    /// Whether tracer hooks are compiled into this instantiation.
    const ENABLED: bool;
}

/// Recording instantiation: tracer hooks compiled in (each still checks the
/// runtime `Option` — a sim without a tracer behaves identically here).
#[derive(Debug, Clone, Copy)]
pub struct Recorded;

/// Non-recording instantiation: tracer hooks compiled out entirely.
#[derive(Debug, Clone, Copy)]
pub struct Unrecorded;

impl RecordMode for Recorded {
    const ENABLED: bool = true;
}

impl RecordMode for Unrecorded {
    const ENABLED: bool = false;
}

/// A deferred trace note a [`crate::tcp::TcpSender`] takes while handling an
/// ACK or timeout; the engine drains these into the recorder when it flushes
/// the sender (the sender itself has no recorder handle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceMark {
    /// cwnd or ssthresh changed.
    Cwnd {
        /// When.
        t: SimTime,
        /// New congestion window, segments.
        cwnd: f64,
        /// New slow-start threshold, segments.
        ssthresh: f64,
    },
    /// Fast recovery entered or exited.
    FastRecovery {
        /// When.
        t: SimTime,
        /// Entered (true) or exited.
        entered: bool,
    },
    /// A segment was retransmitted.
    Retransmit {
        /// When.
        t: SimTime,
        /// Segment number.
        seq: u64,
        /// Triggered by dupacks (true) or by the RTO (false).
        fast: bool,
    },
    /// The retransmission timer expired.
    Timeout {
        /// When.
        t: SimTime,
        /// Oldest outstanding segment.
        seq: u64,
        /// Backoff exponent after this expiry.
        backoff_exp: u32,
    },
}

/// Per-traced-link decimation state.
#[derive(Debug, Clone, Copy, Default)]
struct LinkGate {
    traced: bool,
    /// Occupancy changes since the last emitted sample.
    pending: u32,
}

/// The simulation-side trace hook: shared recorder plus per-entity opt-in
/// and decimation state.
pub struct SimTracer {
    rec: Rc<RefCell<Recorder>>,
    decimation: u32,
    links: Vec<LinkGate>,
    flows: Vec<bool>,
    srv_pending: u32,
}

impl SimTracer {
    /// Tracer feeding `rec`; queue decimation comes from the recorder's
    /// config.
    pub fn new(rec: Rc<RefCell<Recorder>>) -> Self {
        let decimation = rec.borrow().config().queue_decimation.max(1);
        Self {
            rec,
            decimation,
            links: Vec::new(),
            flows: Vec::new(),
            srv_pending: 0,
        }
    }

    /// Opt link `id` into queue-occupancy sampling.
    pub fn trace_link(&mut self, id: LinkId) {
        let idx = id as usize;
        if self.links.len() <= idx {
            self.links.resize(idx + 1, LinkGate::default());
        }
        self.links[idx].traced = true;
    }

    /// Opt flow `id` into TCP state-transition tracing. The engine also
    /// flips the sender's `trace_on` flag when the tracer is installed.
    pub fn trace_flow(&mut self, id: FlowId) {
        let idx = id as usize;
        if self.flows.len() <= idx {
            self.flows.resize(idx + 1, false);
        }
        self.flows[idx] = true;
    }

    /// Whether `flow` is opted in.
    pub fn flow_traced(&self, flow: FlowId) -> bool {
        self.flows.get(flow as usize).copied().unwrap_or(false)
    }

    pub(crate) fn link_traced(&self, link: LinkId) -> bool {
        self.links
            .get(link as usize)
            .map(|g| g.traced)
            .unwrap_or(false)
    }

    /// Record one occupancy change of `link` (depth after the change);
    /// emits every Nth change per the decimation setting.
    pub(crate) fn link_queue_changed(&mut self, t: SimTime, link: LinkId, depth: usize) {
        let Some(gate) = self.links.get_mut(link as usize) else {
            return;
        };
        if !gate.traced {
            return;
        }
        gate.pending += 1;
        if gate.pending >= self.decimation {
            gate.pending = 0;
            self.rec.borrow_mut().emit(
                t,
                EventKind::LinkQueue {
                    link,
                    depth: depth as u32,
                },
            );
        }
    }

    /// Record one occupancy change of the DMP server's shared pull queue,
    /// decimated like link queues.
    pub fn srv_queue_changed(&mut self, t: SimTime, depth: usize) {
        self.srv_pending += 1;
        if self.srv_pending >= self.decimation {
            self.srv_pending = 0;
            self.rec.borrow_mut().emit(
                t,
                EventKind::SrvQueue {
                    depth: depth as u32,
                },
            );
        }
    }

    /// Emit an event directly (scheduler decisions, scripted path events,
    /// deliveries).
    pub fn emit(&mut self, t: SimTime, kind: EventKind) {
        self.rec.borrow_mut().emit(t, kind);
    }

    /// Drain a sender's deferred marks for connection `conn`.
    pub(crate) fn drain_marks(&mut self, conn: u32, marks: &mut Vec<TraceMark>) {
        let mut rec = self.rec.borrow_mut();
        for m in marks.drain(..) {
            match m {
                TraceMark::Cwnd { t, cwnd, ssthresh } => rec.emit(
                    t,
                    EventKind::Cwnd {
                        conn,
                        cwnd,
                        ssthresh,
                    },
                ),
                TraceMark::FastRecovery { t, entered } => {
                    rec.emit(t, EventKind::FastRecovery { conn, entered })
                }
                TraceMark::Retransmit { t, seq, fast } => {
                    rec.emit(t, EventKind::Retransmit { conn, seq, fast })
                }
                TraceMark::Timeout {
                    t,
                    seq,
                    backoff_exp,
                } => rec.emit(
                    t,
                    EventKind::RtoTimeout {
                        conn,
                        seq,
                        backoff_exp,
                    },
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::TraceConfig;

    fn tracer(decimation: u32) -> (SimTracer, Rc<RefCell<Recorder>>) {
        let rec = Rc::new(RefCell::new(Recorder::in_memory(TraceConfig {
            ring_capacity: 8,
            queue_decimation: decimation,
        })));
        (SimTracer::new(Rc::clone(&rec)), rec)
    }

    fn finish(rec: Rc<RefCell<Recorder>>) -> String {
        let rec = Rc::try_unwrap(rec)
            .ok()
            .expect("sole recorder handle")
            .into_inner();
        String::from_utf8(rec.finish().unwrap().bytes.unwrap()).unwrap()
    }

    #[test]
    fn untraced_entities_emit_nothing() {
        let (mut tr, rec) = tracer(1);
        tr.trace_link(2);
        tr.trace_flow(5);
        tr.link_queue_changed(1, 0, 9); // link 0 untraced
        assert!(!tr.flow_traced(0));
        assert!(tr.flow_traced(5));
        assert!(tr.link_traced(2));
        drop(tr);
        assert!(finish(rec).is_empty());
    }

    #[test]
    fn decimation_keeps_every_nth_change() {
        let (mut tr, rec) = tracer(4);
        tr.trace_link(0);
        for depth in 1..=10usize {
            tr.link_queue_changed(depth as u64, 0, depth);
        }
        drop(tr);
        let text = finish(rec);
        let depths: Vec<&str> = text.lines().collect();
        assert_eq!(depths.len(), 2, "10 changes / decimation 4 → 2 samples");
        assert!(depths[0].contains("\"depth\":4"));
        assert!(depths[1].contains("\"depth\":8"));
    }

    #[test]
    fn marks_drain_in_order_with_conn_id() {
        let (mut tr, rec) = tracer(1);
        let mut marks = vec![
            TraceMark::Timeout {
                t: 5,
                seq: 7,
                backoff_exp: 2,
            },
            TraceMark::Cwnd {
                t: 5,
                cwnd: 1.0,
                ssthresh: 4.0,
            },
        ];
        tr.drain_marks(3, &mut marks);
        assert!(marks.is_empty());
        drop(tr);
        let text = finish(rec);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"rto\"") && lines[0].contains("\"conn\":3"));
        assert!(lines[1].contains("\"ev\":\"cwnd\"") && lines[1].contains("\"conn\":3"));
    }
}
