//! Video applications for the simulator: the streaming server and the
//! recording client.
//!
//! The scheme — who holds the server queue's lock next, what the holder
//! takes, where static streaming assigns a packet, under every
//! [`PullStrategy`](dmp_core::spec::PullStrategy) — is
//! [`dmp_core::scheme::Scheme`]. [`VideoServer`] is its discrete-event
//! transport: it generates packets on a timer, answers the scheme's questions
//! about the TCP senders, moves what it decides into their send buffers and
//! traces the decisions.

use std::cell::RefCell;
use std::rc::Rc;

use dmp_core::scheme::{PathView, Scheme, StreamPacket};
use dmp_core::spec::VideoSpec;
use dmp_core::trace::StreamTrace;
use netsim::packet::AppChunk;
use netsim::{App, FlowId, SimApi, SimTime};

/// Shared, interiorly mutable delivery trace: written by both the server
/// (generation) and the client (arrivals).
pub type SharedTrace = Rc<RefCell<StreamTrace>>;

/// Create a fresh shared trace for a run ending at `end_ns`.
pub fn shared_trace(video: VideoSpec, end_ns: SimTime) -> SharedTrace {
    Rc::new(RefCell::new(StreamTrace::new(video, end_ns)))
}

/// The TCP senders as the scheme sees them: `flows[k]` is path `k`.
struct Senders<'a, 'b>(&'a SimApi<'b>, &'a [FlowId]);

impl PathView for Senders<'_, '_> {
    fn space(&self, path: usize) -> usize {
        self.0.free_space(self.1[path])
    }

    fn quality(&self, path: usize) -> (u64, i64) {
        let s = self.0.sender(self.1[path]);
        let srtt_ns = s
            .rtt
            .srtt_secs()
            .map_or(u64::MAX, |x| (x * 1e9).round() as u64);
        let headroom = s.cwnd().floor() as i64 - s.unacked() as i64;
        (srtt_ns, -headroom)
    }
}

/// The streaming server (Fig. 2 of the paper, and the static baseline of
/// Section 7.4): a CBR generator feeding a [`Scheme`], and one loop that
/// serves the TCP senders from it whenever a packet is generated or a send
/// buffer frees space.
pub struct VideoServer {
    scheme: Scheme,
    flows: Vec<FlowId>,
    trace: SharedTrace,
    start_at: SimTime,
    stop_after: u64,
    interval: SimTime,
    next_seq: u64,
}

impl VideoServer {
    /// A server striping `video` over `flows` (`flows[k]` is the scheme's
    /// path `k`), generating from `start_at` until `stop_after` packets have
    /// been produced. Size the scheme for `stop_after` packets too (the
    /// zero-allocation gate: a late backlog peak must not reallocate).
    ///
    /// # Panics
    /// Panics if the scheme was built for another number of paths.
    pub fn new(
        scheme: Scheme,
        flows: Vec<FlowId>,
        video: VideoSpec,
        trace: SharedTrace,
        start_at: SimTime,
        stop_after: u64,
    ) -> Self {
        assert_eq!(scheme.paths(), flows.len(), "one flow per scheme path");
        Self {
            scheme,
            flows,
            trace,
            start_at,
            stop_after,
            interval: netsim::secs(video.gen_interval_s()),
            next_seq: 0,
        }
    }

    /// Sample the shared queue's depth into the trace (static streaming has
    /// no shared queue and samples nothing).
    fn trace_queue(&self, api: &mut SimApi<'_>) {
        if let Some(depth) = self.scheme.shared_depth() {
            api.trace_srv_queue(depth);
        }
    }

    /// Trace one pull from the shared queue and hand the packet to `path`'s
    /// sender.
    fn send(&self, api: &mut SimApi<'_>, path: usize, p: StreamPacket) {
        if let (true, Some(queued)) = (api.trace_enabled(), self.scheme.shared_depth()) {
            api.trace_emit(obs::EventKind::Pull {
                path: path as u32,
                seq: p.seq,
                queued: queued as u32,
            });
        }
        let chunk = AppChunk {
            stream_seq: p.seq,
            gen_ns: p.gen_ns,
        };
        let ok = api.push_chunk(self.flows[path], chunk);
        debug_assert!(ok, "the scheme only picks paths with space");
    }

    /// The one loop: pick the lock holder, take what it takes, hand it over,
    /// until nobody can take anything. `waker` is the sender whose wake-up
    /// (freed buffer space, or winning the race on a generation event)
    /// started the round. The shared queue is sampled at each lock release.
    fn serve(&mut self, api: &mut SimApi<'_>, waker: usize) {
        let now = api.now();
        let per_holder = self.scheme.holder_drains();
        let mut holder = None;
        while let Some(path) = self.scheme.next_holder(waker, &Senders(api, &self.flows)) {
            if per_holder && holder.is_some_and(|h| h != path) {
                self.trace_queue(api);
            }
            holder = Some(path);
            let Some(pkt) = self.scheme.take(path, now) else {
                continue;
            };
            let mut to = Some(path);
            while let Some(path) = to {
                self.send(api, path, pkt);
                to = self
                    .scheme
                    .next_copy(waker, path, &Senders(api, &self.flows));
            }
        }
        if holder.is_some() || !per_holder {
            self.trace_queue(api);
        }
    }
}

impl App for VideoServer {
    fn start(&mut self, api: &mut SimApi<'_>) {
        for &f in &self.flows {
            api.own_flow(f);
        }
        api.schedule_in(self.start_at, 0);
    }

    fn on_timer(&mut self, api: &mut SimApi<'_>, _tag: u64) {
        if self.next_seq >= self.stop_after {
            return;
        }
        let pkt = StreamPacket {
            seq: self.next_seq,
            gen_ns: api.now(),
        };
        self.next_seq += 1;
        self.trace.borrow_mut().on_generated(pkt.seq, pkt.gen_ns);
        let (assigned, waker) = self.scheme.on_generated(pkt, &Senders(api, &self.flows));
        if api.trace_enabled() {
            api.trace_emit(obs::EventKind::Generated { seq: pkt.seq });
            self.trace_queue(api);
            for path in assigned {
                api.trace_emit(obs::EventKind::Stripe {
                    path: path as u32,
                    seq: pkt.seq,
                });
            }
        }
        self.serve(api, waker);
        api.schedule_in(self.interval, 0);
    }

    fn on_send_space(&mut self, api: &mut SimApi<'_>, flow: FlowId) {
        // The sender that freed space grabs the queue lock first.
        let path = self
            .flows
            .iter()
            .position(|&f| f == flow)
            .expect("owned flow");
        self.serve(api, path);
    }
}

/// The client: subscribes to every path's sink and records arrival times
/// into the shared trace (reassembly order does not matter for the metrics;
/// `dmp_core::metrics` evaluates both playback- and arrival-order lateness).
/// Duplicate deliveries (redundant duplication) keep the first copy to
/// arrive.
pub struct VideoClient {
    trace: SharedTrace,
    /// `flows[k]` is path `k`. K is tiny (2-4 paths), so a linear scan on
    /// every delivery beats hashing the flow id.
    flows: Vec<FlowId>,
}

impl VideoClient {
    /// A client receiving `flows`, where `flows[k]` is path `k`.
    pub fn new(flows: &[FlowId], trace: SharedTrace) -> Self {
        Self {
            trace,
            flows: flows.to_vec(),
        }
    }
}

impl App for VideoClient {
    fn start(&mut self, api: &mut SimApi<'_>) {
        for k in 0..self.flows.len() {
            api.receive_flow(self.flows[k]);
        }
    }

    fn on_receive(&mut self, api: &mut SimApi<'_>, flow: FlowId, chunks: &[AppChunk]) {
        let path = self
            .flows
            .iter()
            .position(|&f| f == flow)
            .expect("subscribed flow") as u8;
        let now = api.now();
        let mut trace = self.trace.borrow_mut();
        for c in chunks {
            trace.on_arrival(c.stream_seq, now, path);
        }
        if api.trace_enabled() {
            for c in chunks {
                api.trace_emit(obs::EventKind::Delivered {
                    path: u32::from(path),
                    seq: c.stream_seq,
                });
            }
        }
    }
}
