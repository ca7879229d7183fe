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

use obs::{EventKind, Recorder, TraceEvent};

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

/// Queue samples keep every `QUEUE_DECIMATION`th occupancy change per
/// queue (each traced link, and the DMP server's pull queue).
pub const QUEUE_DECIMATION: u32 = 32;

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
    links: Vec<LinkGate>,
    flows: Vec<bool>,
    srv_pending: u32,
}

impl SimTracer {
    /// Tracer feeding `rec`.
    pub fn new(rec: Rc<RefCell<Recorder>>) -> Self {
        Self {
            rec,
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
    /// emits every [`QUEUE_DECIMATION`]th change.
    pub(crate) fn link_queue_changed(&mut self, t: SimTime, link: LinkId, depth: usize) {
        let Some(gate) = self.links.get_mut(link as usize) else {
            return;
        };
        if !gate.traced {
            return;
        }
        gate.pending += 1;
        if gate.pending >= QUEUE_DECIMATION {
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
        if self.srv_pending >= QUEUE_DECIMATION {
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

    /// Drain the events a traced sender took since its last flush.
    pub(crate) fn drain_marks(&mut self, marks: &mut Vec<TraceEvent>) {
        let mut rec = self.rec.borrow_mut();
        for TraceEvent { t, kind } in marks.drain(..) {
            rec.emit(t, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> (SimTracer, Rc<RefCell<Recorder>>) {
        let rec = Rc::new(RefCell::new(Recorder::in_memory()));
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
        let (mut tr, rec) = tracer();
        tr.trace_link(2);
        tr.trace_flow(5);
        for depth in 1..=2 * QUEUE_DECIMATION as usize {
            tr.link_queue_changed(depth as u64, 0, depth); // link 0 untraced
        }
        assert!(!tr.flow_traced(0));
        assert!(tr.flow_traced(5));
        assert!(tr.link_traced(2));
        drop(tr);
        assert!(finish(rec).is_empty());
    }

    #[test]
    fn decimation_keeps_every_nth_change() {
        let (mut tr, rec) = tracer();
        tr.trace_link(0);
        let n = QUEUE_DECIMATION;
        // Two and a half periods of changes on a traced link and on the
        // server queue: each keeps its `n`th and `2n`th change.
        for change in 1..=2 * n + n / 2 {
            tr.link_queue_changed(u64::from(change), 0, change as usize);
            tr.srv_queue_changed(u64::from(change), 1000 + change as usize);
        }
        drop(tr);
        let samples: Vec<TraceEvent> = finish(rec)
            .lines()
            .map(|l| TraceEvent::parse_line(l).unwrap())
            .collect();
        let expected: Vec<TraceEvent> = [n, 2 * n]
            .into_iter()
            .flat_map(|change| {
                let t = u64::from(change);
                [
                    TraceEvent {
                        t,
                        kind: EventKind::LinkQueue {
                            link: 0,
                            depth: change,
                        },
                    },
                    TraceEvent {
                        t,
                        kind: EventKind::SrvQueue {
                            depth: 1000 + change,
                        },
                    },
                ]
            })
            .collect();
        assert_eq!(samples, expected);
    }

    #[test]
    fn marks_drain_in_order_with_conn_id() {
        let (mut tr, rec) = tracer();
        let mut marks = vec![
            TraceEvent {
                t: 5,
                kind: EventKind::RtoTimeout {
                    conn: 3,
                    seq: 7,
                    backoff_exp: 2,
                },
            },
            TraceEvent {
                t: 5,
                kind: EventKind::Cwnd {
                    conn: 3,
                    cwnd: 1.0,
                    ssthresh: 4.0,
                },
            },
        ];
        let expected = marks.clone();
        tr.drain_marks(&mut marks);
        assert!(marks.is_empty());
        drop(tr);
        let text = finish(rec);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"rto\"") && lines[0].contains("\"conn\":3"));
        assert!(lines[1].contains("\"ev\":\"cwnd\"") && lines[1].contains("\"conn\":3"));
        let back: Vec<TraceEvent> = lines
            .iter()
            .map(|l| TraceEvent::parse_line(l).unwrap())
            .collect();
        assert_eq!(back, expected);
    }
}
