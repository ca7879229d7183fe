//! The discrete-event simulation engine.
//!
//! The simulator owns flat arenas of nodes, links, TCP endpoints, and
//! applications; events reference entities by index, so dispatch is a match
//! plus an array access — no trait objects on the hot path (applications are
//! the exception; they are boxed but called out of band).
//!
//! # Scheduling
//!
//! Pending events live in an [`EventQueue`], the two-level calendar queue of
//! [`crate::scheduler`]; events are tiny `Copy` payloads. In builds with
//! debug assertions the queue checks its `(time, seq)` contract on every pop
//! and every refusal (the module docs say what that covers), so every
//! simulation a test runs is checked event by event.
//!
//! # Coalesced link delivery
//!
//! Packet transits are *not* events. Each [`Link`] keeps its own in-flight
//! ring (queued packets plus packets on the wire, arrival-stamped and
//! monotone); the engine holds a single tracked `LinkDeliver` event per link
//! aimed at the wire head and advances the link lazily on every touch. One
//! event then delivers every packet due at that instant, instead of the
//! classic two events (`LinkTxDone` + `Arrival`) per transit. Packet-transit
//! throughput is counted separately ([`SimCounters::transits`]) so
//! events/sec comparisons across engine generations stay honest.
//!
//! What the engine tracks about that event lives in the link: one bit, "a
//! delivery event is in the queue". Its time is not stored — it is the wire
//! head's arrival stamp, which never moves once set.
//!
//! # Timers
//!
//! TCP retransmission and delayed-ACK timers are *lazy*: each endpoint has at
//! most one timer event outstanding. Restarting the RTO on every ACK (the
//! common case) just moves the endpoint's desired deadline; when the old
//! event pops, it is re-queued at the new deadline (a *deferral*) or
//! discarded (a *stale pop*) — instead of pushing one event per restart and
//! letting generation-dead entries pile up in the queue. The time of that one
//! outstanding event is a field of the endpoint itself (`timer_ev`, written
//! by the engine only), beside the deadline it is compared with; flow `f`'s
//! endpoints are `senders[f]` and `sinks[f]`, so an event or a packet reaches
//! them with one index and no side table.
//!
//! # One loop body
//!
//! `run_loop` pops through the calendar queue's inlined pop, and what every
//! event runs is inlined into it and into `offer_to_link`: `advance_link`
//! (untraced it is `Link::advance`'s "anything to start?" test and nothing
//! else, and the compiler inlines it unasked), `sync_link_deliver` with the
//! push behind it, and `drain_pending`'s emptiness test; `sync_timer` and its
//! push are forced into the endpoint flushes (left to the compiler, it became
//! a call on every flush and cost `video_2path` 2 %). Their rare halves —
//! starting queued packets, running queued app callbacks, everything about
//! the far heap — stay calls.
//!
//! # Tracing
//!
//! The event loop is monomorphized over [`RecordMode`]: [`Sim::run_until`]
//! branches once on whether a tracer is installed, and the untraced
//! instantiation compiles every tracer hook out of `dispatch`,
//! `offer_to_link`, and the endpoint flushes.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::app::App;
use crate::link::{Link, LinkSpec, Offer};
use crate::node::Node;
use crate::packet::{AppChunk, FlowId, LinkId, NodeId, Packet, PacketKind};
use crate::scheduler::{EngineKind, EventQueue};
use crate::tcp::{SinkConfig, TcpConfig, TcpSender, TcpSink};
use crate::telemetry;
use crate::time::SimTime;
use crate::trace::{RecordMode, Recorded, SimTracer, Unrecorded};

/// Index of an application in the simulator's arena.
pub type AppId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// The wire head of a link arrives (delivers every packet due at that
    /// instant; the engine keeps exactly one of these per link).
    LinkDeliver(LinkId),
    /// A sender's retransmission timer.
    SenderTimer(u32),
    /// A sink's delayed-ACK timer.
    SinkTimer(u32),
    /// An application timer with a user tag.
    AppTimer { app: AppId, tag: u64 },
}

#[cfg(feature = "profile")]
impl EventKind {
    /// Profiler bin, matching `telemetry::profile::KIND_NAMES` order.
    fn profile_bin(&self) -> usize {
        match self {
            EventKind::LinkDeliver(_) => 0,
            EventKind::SenderTimer(_) => 1,
            EventKind::SinkTimer(_) => 2,
            EventKind::AppTimer { .. } => 3,
        }
    }
}

/// One TCP connection's app subscriptions. Its endpoints need no index:
/// flow `f` is `senders[f]` and `sinks[f]`, by construction in `add_flow`.
#[derive(Debug)]
struct Flow {
    owner_app: Option<AppId>,
    receiver_app: Option<AppId>,
}

/// Per-flow counters maintained by the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowCounters {
    /// Data packets of this flow dropped at any queue.
    pub data_dropped: u64,
    /// ACK packets of this flow dropped at any queue.
    pub acks_dropped: u64,
}

/// Cheap engine-health counters a simulation accumulates while running:
/// the same eight fields as the process-wide [`crate::telemetry`] totals
/// they are merged into when the `Sim` is dropped, so one reading can be
/// `absorb`ed and `delta`ed with another (a fleet's per-shard breakdown).
pub type SimCounters = crate::telemetry::EngineTelemetry;

#[derive(Debug, Clone, Copy)]
enum AppCall {
    SendSpace(AppId, FlowId),
    TransferComplete(AppId, FlowId),
}

/// The formatted no-route panic, kept out of the hot routing path so
/// `route_from` carries no format machinery.
#[cold]
#[inline(never)]
fn no_route_panic(node: NodeId, label: &str, dst: NodeId) -> ! {
    panic!("no route from node {node} ({label}) to node {dst}")
}

/// The simulator.
pub struct Sim {
    now: SimTime,
    events: EventQueue<EventKind>,
    event_seq: u64,
    nodes: Vec<Node>,
    links: Vec<Link>,
    senders: Vec<TcpSender>,
    sinks: Vec<TcpSink>,
    flows: Vec<Flow>,
    flow_counters: Vec<FlowCounters>,
    apps: Vec<Option<Box<dyn App>>>,
    pending_calls: Vec<AppCall>,
    /// Sim-wide RNG for applications (per-link loss uses each link's own
    /// stream; see [`Link::new`]).
    rng: SmallRng,
    /// Seed this sim was built with — link streams derive from it.
    base_seed: u64,
    events_processed: u64,
    transits: u64,
    stale_timer_pops: u64,
    deferred_timer_pushes: u64,
    /// Always-on metrics, one ledger for the whole simulation: recording is
    /// an array increment plus integer sums, draws no randomness and
    /// schedules nothing, so it never perturbs the run. RTT samples, µs.
    rtt_hist: obs::Histogram,
    /// Congestion window in whole packets, sampled with each RTT measurement.
    cwnd_hist: obs::Histogram,
    /// Queue depth (packets waiting, excluding the wire) seen by every
    /// offered packet — the occupancy distribution behind
    /// `LinkStats::mean_queue`.
    queue_hist: obs::Histogram,
    /// Flight recorder (None = tracing off; the untraced `run_until`
    /// instantiation compiles every hook out).
    tracer: Option<SimTracer>,
    #[cfg(feature = "profile")]
    profile: telemetry::profile::SimProfile,
}

impl Sim {
    /// Create an empty simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            now: 0,
            events: EventQueue::new(EngineKind::Calendar),
            event_seq: 0,
            nodes: Vec::new(),
            links: Vec::new(),
            senders: Vec::new(),
            sinks: Vec::new(),
            flows: Vec::new(),
            flow_counters: Vec::new(),
            apps: Vec::new(),
            pending_calls: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            base_seed: seed,
            events_processed: 0,
            transits: 0,
            stale_timer_pops: 0,
            deferred_timer_pushes: 0,
            rtt_hist: obs::Histogram::new(),
            cwnd_hist: obs::Histogram::new(),
            queue_hist: obs::Histogram::new(),
            tracer: None,
            #[cfg(feature = "profile")]
            profile: telemetry::profile::SimProfile::default(),
        }
    }

    /// Create a simulator with pre-sized entity arenas: `nodes`, `links`,
    /// and `flows` are expected final counts (flows also size the TCP
    /// sender/sink arenas). Sharded fleet experiments know their exact
    /// topology up front; reserving once here means building a shard never
    /// reallocates an arena mid-construction. Capacity is an optimisation
    /// only — an under-estimate still grows normally and changes no
    /// simulation byte.
    pub fn with_capacity(seed: u64, nodes: usize, links: usize, flows: usize) -> Self {
        let mut sim = Self::new(seed);
        sim.nodes.reserve(nodes);
        sim.links.reserve(links);
        sim.flows.reserve(flows);
        sim.flow_counters.reserve(flows);
        sim.senders.reserve(flows);
        sim.sinks.reserve(flows);
        sim
    }

    /// Install a flight recorder. Flows the tracer opted in (see
    /// [`SimTracer::trace_flow`]) have their senders flipped to mark-taking
    /// mode; register flows and links on the tracer *before* installing it.
    /// Tracing never consumes RNG draws or schedules events, so a traced run
    /// is behaviourally identical to an untraced one.
    pub fn set_tracer(&mut self, tracer: SimTracer) {
        for sender in self.senders.iter_mut() {
            if tracer.flow_traced(sender.flow) {
                sender.trace_on = true;
            }
        }
        self.tracer = Some(tracer);
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Add a node; returns its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        self.nodes.push(Node::new(label));
        (self.nodes.len() - 1) as NodeId
    }

    /// Add a unidirectional link from `from` to `to`; returns its id. No
    /// route is installed automatically. The link's private random stream is
    /// derived from the sim seed and the link index, so loss-free links
    /// consume no randomness and lossy links never perturb each other.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        let index = self.links.len() as u64;
        let seed = self
            .base_seed
            .wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.links.push(Link::new(spec, from, to, seed));
        (self.links.len() - 1) as LinkId
    }

    /// Add a duplex link (two unidirectional links with the same spec) and
    /// return `(forward, reverse)` link ids.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        (self.add_link(a, b, spec), self.add_link(b, a, spec))
    }

    /// Install a route on `node`: packets for `dst` leave on `link`. The
    /// link must originate at `node`.
    pub fn add_route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        debug_assert_eq!(
            self.links[link as usize].from, node,
            "route on node {node} uses link {link}, which leaves node {}",
            self.links[link as usize].from
        );
        self.nodes[node as usize].add_route(dst, link);
    }

    /// Install `node`'s default route. The link must originate at `node`.
    pub fn set_default_route(&mut self, node: NodeId, link: LinkId) {
        debug_assert_eq!(
            self.links[link as usize].from, node,
            "default route on node {node} uses link {link}, which leaves node {}",
            self.links[link as usize].from
        );
        self.nodes[node as usize].set_default_route(link);
    }

    /// Create a TCP connection from `src` to `dst`; returns the flow id.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tcp: TcpConfig,
        sink: SinkConfig,
    ) -> FlowId {
        assert!(
            tcp.max_wnd >= 1,
            "TcpConfig::max_wnd must be at least 1 segment"
        );
        assert!(
            tcp.send_buf_pkts >= 1,
            "TcpConfig::send_buf_pkts must be at least 1 segment"
        );
        let flow = self.flows.len() as FlowId;
        self.senders.push(TcpSender::new(flow, src, dst, tcp));
        self.sinks
            .push(TcpSink::new(flow, dst, src, sink, tcp.max_wnd));
        // A gap fill can deliver up to a window of buffered segments in one
        // arrival, and each arrival acks at most once; reserving here (where
        // the sender's window bound is in scope) keeps sink flushes off the
        // heap in steady state.
        {
            let sk = self.sinks.last_mut().expect("just pushed");
            sk.delivered.reserve(tcp.max_wnd as usize + 1);
            sk.outbox.reserve(8);
        }
        self.flows.push(Flow {
            owner_app: None,
            receiver_app: None,
        });
        self.flow_counters.push(FlowCounters::default());
        // `handle_arrival` indexes both endpoint arenas by `pkt.flow`.
        debug_assert!(
            self.senders.len() == self.flows.len() && self.sinks.len() == self.flows.len(),
            "flow {flow}: sender, sink and flow arenas out of step"
        );
        flow
    }

    /// Attach an application; `start` is invoked immediately.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        self.apps.push(Some(app));
        let id = (self.apps.len() - 1) as AppId;
        self.with_app(id, |app, api| app.start(api));
        self.drain_pending();
        id
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed so far (a cheap progress/perf metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Packet transits delivered so far.
    pub fn transits(&self) -> u64 {
        self.transits
    }

    /// Engine-health counters accumulated so far.
    pub fn counters(&self) -> SimCounters {
        let hwm = self.events.hwm();
        SimCounters {
            events_processed: self.events_processed,
            transits: self.transits,
            stale_timer_pops: self.stale_timer_pops,
            deferred_timer_pushes: self.deferred_timer_pushes,
            wheel_hwm: hwm.wheel,
            far_hwm: hwm.far,
            ring_hwm: self
                .links
                .iter()
                .map(|l| l.stats.peak_ring as u64)
                .max()
                .unwrap_or(0),
            random_loss_drops: self.links.iter().map(|l| l.stats.random_dropped).sum(),
        }
    }

    /// Fold the simulation's always-on metrics into one mergeable snapshot:
    /// the RTT, cwnd and queue-depth histograms this `Sim` recorded for all
    /// of its senders and links, their retransmission and drop counters
    /// summed, plus the engine event totals. A histogram is a set of exact
    /// integer sums, so the order samples were recorded in leaves no mark
    /// and the snapshot is a pure function of the simulated system —
    /// byte-identical across runner thread counts and trace on/off. The RTT and cwnd histograms appear once the `Sim` has a
    /// flow, the queue-depth one once it has a link.
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        let mut snap = obs::MetricsSnapshot::new();
        if !self.senders.is_empty() {
            snap.histograms
                .insert("net.rtt_us".to_string(), self.rtt_hist.clone());
            snap.histograms
                .insert("net.cwnd_pkts".to_string(), self.cwnd_hist.clone());
        }
        for s in &self.senders {
            snap.counter_add("net.data_sent", s.stats.data_sent);
            snap.counter_add("net.retransmits", s.stats.retransmits);
            snap.counter_add("net.rto_timeouts", s.stats.timeouts);
            snap.counter_add("net.fast_retransmits", s.stats.fast_retransmits);
        }
        if !self.links.is_empty() {
            snap.histograms
                .insert("net.queue_depth_pkts".to_string(), self.queue_hist.clone());
        }
        for l in &self.links {
            snap.counter_add("net.queue_drops", l.stats.dropped);
            snap.counter_add("net.random_loss_drops", l.stats.random_dropped);
            snap.gauge_max("net.peak_queue_pkts", l.stats.peak_queue as f64);
        }
        snap.counter_add("engine.events", self.events_processed);
        snap.counter_add("engine.transits", self.transits);
        snap
    }

    /// Immutable access to a link (for stats).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id as usize]
    }

    /// Immutable access to a flow's sender.
    pub fn sender(&self, flow: FlowId) -> &TcpSender {
        &self.senders[flow as usize]
    }

    /// Immutable access to a flow's sink.
    pub fn sink(&self, flow: FlowId) -> &TcpSink {
        &self.sinks[flow as usize]
    }

    /// Engine counters for a flow.
    pub fn flow_counters(&self, flow: FlowId) -> FlowCounters {
        self.flow_counters[flow as usize]
    }

    /// Measured loss probability of a flow: data packets dropped at queues
    /// divided by data packets transmitted (first + retransmissions).
    pub fn flow_loss_rate(&self, flow: FlowId) -> f64 {
        let tx = self.sender(flow).total_transmissions();
        if tx == 0 {
            0.0
        } else {
            self.flow_counters[flow as usize].data_dropped as f64 / tx as f64
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    #[inline(always)]
    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.event_seq += 1;
        self.events.push(time, self.event_seq, kind);
    }

    /// Run the simulation until simulated time `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        if self.tracer.is_some() {
            self.run_loop::<Recorded>(t_end);
        } else {
            self.run_loop::<Unrecorded>(t_end);
        }
    }

    fn run_loop<M: RecordMode>(&mut self, t_end: SimTime) {
        while let Some(ev) = self.events.pop_at_or_before(t_end) {
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.events_processed += 1;
            #[cfg(feature = "profile")]
            {
                let bin = ev.payload.profile_bin();
                let t0 = telemetry::profile::timestamp();
                self.dispatch::<M>(ev.time, ev.payload);
                self.drain_pending();
                self.profile
                    .record(bin, telemetry::profile::timestamp().wrapping_sub(t0));
            }
            #[cfg(not(feature = "profile"))]
            {
                self.dispatch::<M>(ev.time, ev.payload);
                self.drain_pending();
            }
        }
        self.now = t_end;
        // Settle every link to t_end: packets whose serialisation started by
        // now depart (bytes_tx, queue samples at their true times), exactly
        // as the eager per-transit design accounted them. Their arrivals are
        // provably past t_end — the delivery chain would otherwise have
        // fired — so no delivery is owed and the tracked events stay valid.
        for l in 0..self.links.len() {
            self.advance_link::<M>(l as LinkId);
        }
    }

    /// Advance `l` to the current time, retro-emitting queue-occupancy
    /// samples at the true departure times when the link is traced.
    fn advance_link<M: RecordMode>(&mut self, l: LinkId) {
        let now = self.now;
        let link = &mut self.links[l as usize];
        if M::ENABLED {
            if let Some(tr) = self.tracer.as_mut() {
                if tr.link_traced(l) {
                    link.advance(now, |t, q| tr.link_queue_changed(t, l, q));
                    return;
                }
            }
        }
        link.advance(now, |_, _| {});
    }

    /// Runtime-dispatched advance for out-of-loop callers (`SimApi` link
    /// mutation hooks).
    fn advance_link_dyn(&mut self, l: LinkId) {
        if self.tracer.is_some() {
            self.advance_link::<Recorded>(l);
        } else {
            self.advance_link::<Unrecorded>(l);
        }
    }

    /// Reconcile the link's single tracked delivery event with its wire
    /// head. Arrival stamps are monotone per link, so an outstanding event
    /// always targets the head and never goes stale; a push is needed only
    /// when no event is outstanding (`Link::deliver_ev` clear; the wire must
    /// then be empty, except transiently inside a delivery dispatch).
    #[inline(always)]
    fn sync_link_deliver(&mut self, l: LinkId) {
        let link = &mut self.links[l as usize];
        if !link.deliver_ev {
            if let Some(at) = link.next_arrival() {
                link.deliver_ev = true;
                self.schedule(at, EventKind::LinkDeliver(l));
            }
        }
    }

    fn dispatch<M: RecordMode>(&mut self, time: SimTime, kind: EventKind) {
        match kind {
            EventKind::LinkDeliver(l) => {
                debug_assert!(self.links[l as usize].deliver_ev);
                // The outstanding event targets the wire head.
                debug_assert_eq!(self.links[l as usize].next_arrival(), Some(time));
                self.advance_link::<M>(l);
                // Deliver everything due at this instant. The bit stays set
                // until the loop ends so reentrant offers to this link
                // (possible through app callbacks) cannot schedule a
                // duplicate event for a head we are about to pop.
                while let Some(pkt) = self.links[l as usize].pop_due(time) {
                    self.transits += 1;
                    let node = self.links[l as usize].to;
                    #[cfg(feature = "profile")]
                    let (bin, t0) = (
                        Self::arrival_profile_bin(node, &pkt),
                        telemetry::profile::timestamp(),
                    );
                    self.handle_arrival::<M>(node, pkt);
                    #[cfg(feature = "profile")]
                    self.profile
                        .record(bin, telemetry::profile::timestamp().wrapping_sub(t0));
                }
                self.links[l as usize].deliver_ev = false;
                self.sync_link_deliver(l);
            }
            EventKind::SenderTimer(sender) => {
                let s = sender as usize;
                if self.senders[s].timer_ev != Some(time) {
                    // Superseded by a later push for an earlier deadline.
                    self.stale_timer_pops += 1;
                    return;
                }
                self.senders[s].timer_ev = None;
                match self.senders[s].timer_deadline {
                    Some(d) if d == time => {
                        self.senders[s].on_timeout(time);
                        self.flush_sender::<M>(sender);
                    }
                    Some(d) => {
                        // Deadline moved later (RTO restarted on an ACK):
                        // defer by re-queueing one event at the new deadline.
                        debug_assert!(d > time, "tracked event after its deadline");
                        self.schedule(d, EventKind::SenderTimer(sender));
                        self.senders[s].timer_ev = Some(d);
                        self.deferred_timer_pushes += 1;
                    }
                    None => self.stale_timer_pops += 1, // cancelled
                }
            }
            EventKind::SinkTimer(sink) => {
                let s = sink as usize;
                if self.sinks[s].timer_ev != Some(time) {
                    self.stale_timer_pops += 1;
                    return;
                }
                self.sinks[s].timer_ev = None;
                match self.sinks[s].timer_deadline {
                    Some(d) if d == time => {
                        self.sinks[s].on_delack_timer();
                        self.flush_sink::<M>(sink);
                    }
                    Some(d) => {
                        debug_assert!(d > time, "tracked event after its deadline");
                        self.schedule(d, EventKind::SinkTimer(sink));
                        self.sinks[s].timer_ev = Some(d);
                        self.deferred_timer_pushes += 1;
                    }
                    None => self.stale_timer_pops += 1,
                }
            }
            EventKind::AppTimer { app, tag } => {
                self.with_app(app, |a, api| a.on_timer(api, tag));
            }
        }
    }

    /// Profiler bin of the `handle_arrival` arm `pkt` will take at `node`,
    /// matching `telemetry::profile::KIND_NAMES` order.
    #[cfg(feature = "profile")]
    fn arrival_profile_bin(node: NodeId, pkt: &Packet) -> usize {
        telemetry::profile::EVENT_KINDS
            + match (pkt.dst != node, pkt.kind) {
                (true, _) => 0,
                (false, PacketKind::Data) => 1,
                (false, PacketKind::Ack) => 2,
            }
    }

    fn handle_arrival<M: RecordMode>(&mut self, node: NodeId, pkt: Packet) {
        if pkt.dst != node {
            self.route_from::<M>(node, pkt);
            return;
        }
        match pkt.kind {
            PacketKind::Data => {
                self.sinks[pkt.flow as usize].on_data(&pkt, self.now);
                self.flush_sink::<M>(pkt.flow);
            }
            PacketKind::Ack => {
                self.senders[pkt.flow as usize].on_ack(pkt.seq, self.now);
                self.flush_sender::<M>(pkt.flow);
            }
        }
    }

    fn route_from<M: RecordMode>(&mut self, node: NodeId, pkt: Packet) {
        match self.nodes[node as usize].route_to(pkt.dst) {
            Some(l) => {
                debug_assert_eq!(
                    self.links[l as usize].from, node,
                    "routing table on node {node} points at a foreign link"
                );
                self.offer_to_link::<M>(l, pkt);
            }
            None => no_route_panic(node, &self.nodes[node as usize].label, pkt.dst),
        }
    }

    fn offer_to_link<M: RecordMode>(&mut self, l: LinkId, pkt: Packet) {
        self.advance_link::<M>(l);
        let now = self.now;
        // The depth `offer` is about to meet (and sum into `LinkStats`).
        self.queue_hist
            .record(self.links[l as usize].queue_len() as u64);
        match self.links[l as usize].offer(now, pkt) {
            Offer::Started => self.sync_link_deliver(l),
            Offer::Queued => {
                if M::ENABLED {
                    if let Some(tr) = self.tracer.as_mut() {
                        if tr.link_traced(l) {
                            tr.link_queue_changed(now, l, self.links[l as usize].queue_len());
                        }
                    }
                }
            }
            Offer::Dropped(p) => {
                let c = &mut self.flow_counters[p.flow as usize];
                match p.kind {
                    PacketKind::Data => c.data_dropped += 1,
                    PacketKind::Ack => c.acks_dropped += 1,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Endpoint flushing (outboxes, timers, app notifications)
    // ------------------------------------------------------------------

    /// Reconcile an endpoint's desired deadline with its single tracked
    /// timer event. An event is pushed only when the deadline is *earlier*
    /// than the tracked event (or there is none); a later deadline is
    /// reached by deferral at pop time, a cancelled one by a stale pop.
    #[inline(always)]
    fn sync_timer(
        events: &mut EventQueue<EventKind>,
        event_seq: &mut u64,
        tracked: &mut Option<SimTime>,
        deadline: Option<SimTime>,
        kind: EventKind,
    ) {
        if let Some(d) = deadline {
            match *tracked {
                Some(t) if t <= d => {}
                _ => {
                    *event_seq += 1;
                    events.push(d, *event_seq, kind);
                    *tracked = Some(d);
                }
            }
        }
    }

    fn flush_sender<M: RecordMode>(&mut self, sender_id: u32) {
        let s = sender_id as usize;
        let (node, flow) = (self.senders[s].node, self.senders[s].flow);
        // Drain trace marks before routing the outbox: the state transitions
        // they describe logically precede the packets they caused.
        if M::ENABLED {
            if !self.senders[s].marks.is_empty() {
                match self.tracer.as_mut() {
                    Some(tr) => tr.drain_marks(flow, &mut self.senders[s].marks),
                    None => self.senders[s].marks.clear(),
                }
            }
        } else {
            // Untraced instantiation: no tracer, so no sender takes marks.
            debug_assert!(self.senders[s].marks.is_empty());
        }
        let mut pkts = std::mem::take(&mut self.senders[s].outbox);
        for pkt in pkts.drain(..) {
            self.route_from::<M>(node, pkt);
        }
        // Nothing below route_from can touch this outbox, so hand the
        // allocation back instead of churning a fresh Vec per flush.
        std::mem::swap(&mut self.senders[s].outbox, &mut pkts);
        debug_assert!(pkts.is_empty());
        let sender = &mut self.senders[s];
        if sender.timer_dirty {
            sender.timer_dirty = false;
            Self::sync_timer(
                &mut self.events,
                &mut self.event_seq,
                &mut sender.timer_ev,
                sender.timer_deadline,
                EventKind::SenderTimer(sender_id),
            );
        }
        if let Some((rtt_us, cwnd_pkts)) = self.senders[s].metric_sample.take() {
            self.rtt_hist.record(rtt_us);
            self.cwnd_hist.record(cwnd_pkts);
        }
        if std::mem::take(&mut self.senders[s].wake_app) {
            if let Some(app) = self.flows[flow as usize].owner_app {
                self.pending_calls.push(AppCall::SendSpace(app, flow));
            }
        }
        if std::mem::take(&mut self.senders[s].transfer_complete) {
            if let Some(app) = self.flows[flow as usize].owner_app {
                self.pending_calls
                    .push(AppCall::TransferComplete(app, flow));
            }
        }
    }

    /// Runtime-dispatched flush for out-of-loop callers (`SimApi` app entry
    /// points): one branch, then the monomorphized body.
    fn flush_sender_dyn(&mut self, sender_id: u32) {
        if self.tracer.is_some() {
            self.flush_sender::<Recorded>(sender_id);
        } else {
            self.flush_sender::<Unrecorded>(sender_id);
        }
    }

    fn flush_sink<M: RecordMode>(&mut self, sink_id: u32) {
        let s = sink_id as usize;
        let (node, flow) = (self.sinks[s].node, self.sinks[s].flow);
        let mut pkts = std::mem::take(&mut self.sinks[s].outbox);
        for pkt in pkts.drain(..) {
            self.route_from::<M>(node, pkt);
        }
        std::mem::swap(&mut self.sinks[s].outbox, &mut pkts);
        debug_assert!(pkts.is_empty());
        let sink = &mut self.sinks[s];
        if sink.timer_dirty {
            sink.timer_dirty = false;
            Self::sync_timer(
                &mut self.events,
                &mut self.event_seq,
                &mut sink.timer_ev,
                sink.timer_deadline,
                EventKind::SinkTimer(sink_id),
            );
        }
        if !self.sinks[s].delivered.is_empty() {
            let mut chunks = std::mem::take(&mut self.sinks[s].delivered);
            if let Some(app) = self.flows[flow as usize].receiver_app {
                self.with_app(app, |a, api| a.on_receive(api, flow, &chunks));
            }
            // The app may push data on *other* flows but never appends to
            // this sink's delivery buffer, so the capacity comes back too.
            chunks.clear();
            std::mem::swap(&mut self.sinks[s].delivered, &mut chunks);
            debug_assert!(chunks.is_empty());
        }
    }

    /// Run the app callbacks the last dispatch queued. Every event ends
    /// here and most queued none: those pay the emptiness test, not a call.
    #[inline(always)]
    fn drain_pending(&mut self) {
        if !self.pending_calls.is_empty() {
            self.run_pending();
        }
    }

    #[inline(never)]
    fn run_pending(&mut self) {
        while let Some(call) = self.pending_calls.pop() {
            match call {
                AppCall::SendSpace(app, flow) => {
                    self.with_app(app, |a, api| a.on_send_space(api, flow));
                }
                AppCall::TransferComplete(app, flow) => {
                    self.with_app(app, |a, api| a.on_transfer_complete(api, flow));
                }
            }
        }
    }

    fn with_app(&mut self, id: AppId, f: impl FnOnce(&mut dyn App, &mut SimApi<'_>)) {
        let mut app = self.apps[id as usize].take().expect("app reentrancy");
        {
            let mut api = SimApi { sim: self, app: id };
            f(app.as_mut(), &mut api);
        }
        self.apps[id as usize] = Some(app);
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        telemetry::merge(&self.counters());
        #[cfg(feature = "profile")]
        telemetry::profile::merge(&self.profile);
    }
}

/// Handle through which applications interact with the simulator.
pub struct SimApi<'a> {
    sim: &'a mut Sim,
    app: AppId,
}

impl SimApi<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Deterministic RNG shared by the whole simulation (application use;
    /// link loss draws come from per-link streams).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    /// Schedule `on_timer(tag)` for this app after `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, tag: u64) {
        let t = self.sim.now + delay;
        self.sim
            .schedule(t, EventKind::AppTimer { app: self.app, tag });
    }

    /// Subscribe this app to send-side notifications of `flow`
    /// (`on_send_space`, `on_transfer_complete`).
    pub fn own_flow(&mut self, flow: FlowId) {
        self.sim.flows[flow as usize].owner_app = Some(self.app);
    }

    /// Subscribe this app to in-order data delivered by `flow`'s sink.
    pub fn receive_flow(&mut self, flow: FlowId) {
        self.sim.flows[flow as usize].receiver_app = Some(self.app);
    }

    /// Free send-buffer space on `flow`, in segments.
    pub fn free_space(&self, flow: FlowId) -> usize {
        self.sim.sender(flow).free_space()
    }

    /// Push a chunk into `flow`'s send buffer and transmit what the window
    /// allows. Returns `false` if the buffer was full.
    pub fn push_chunk(&mut self, flow: FlowId, chunk: AppChunk) -> bool {
        let now = self.sim.now;
        let ok = self.sim.senders[flow as usize].push_chunk(chunk);
        if ok {
            self.sim.senders[flow as usize].try_send(now);
            self.sim.flush_sender_dyn(flow);
        }
        ok
    }

    /// Make `flow` backlogged (infinite data or a sized transfer) and start
    /// transmitting.
    pub fn set_backlogged(&mut self, flow: FlowId, remaining: Option<u64>) {
        let now = self.sim.now;
        self.sim.senders[flow as usize].set_backlogged(remaining);
        self.sim.senders[flow as usize].try_send(now);
        self.sim.flush_sender_dyn(flow);
    }

    /// Reset `flow`'s congestion state as a fresh connection (HTTP restart).
    pub fn restart_connection(&mut self, flow: FlowId) {
        self.sim.senders[flow as usize].restart_connection();
    }

    /// Read-only view of the sender of `flow` (stats, RTT estimator).
    pub fn sender(&self, flow: FlowId) -> &TcpSender {
        self.sim.sender(flow)
    }

    // ------------------------------------------------------------------
    // Flight-recorder hooks. All are no-ops when no tracer is installed,
    // so apps can call them unconditionally on the hot path.
    // ------------------------------------------------------------------

    /// Whether a flight recorder is installed (lets apps skip building
    /// event payloads entirely when tracing is off).
    pub fn trace_enabled(&self) -> bool {
        self.sim.tracer.is_some()
    }

    /// Emit a trace event stamped with the current simulated time.
    pub fn trace_emit(&mut self, kind: obs::EventKind) {
        let now = self.sim.now;
        if let Some(tr) = self.sim.tracer.as_mut() {
            tr.emit(now, kind);
        }
    }

    /// Record a depth change of the streaming server's shared pull queue
    /// (decimated per the trace configuration).
    pub fn trace_srv_queue(&mut self, depth: usize) {
        let now = self.sim.now;
        if let Some(tr) = self.sim.tracer.as_mut() {
            tr.srv_queue_changed(now, depth);
        }
    }

    // ------------------------------------------------------------------
    // Link mutation (fault injection / path dynamics). Scheduled from an
    // app timer these become ordinary engine events, so scripted scenarios
    // stay byte-identical across scheduler implementations. Every hook
    // advances the link to `now` first, so the change applies exactly to
    // packets that start serialising after this instant.
    // ------------------------------------------------------------------

    /// Current spec of `link` (base values for relative scenario factors).
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        self.sim.links[link as usize].spec
    }

    /// Change `link`'s transmission rate; applies to future transmissions.
    pub fn set_link_rate(&mut self, link: LinkId, bps: f64) {
        self.sim.advance_link_dyn(link);
        self.sim.links[link as usize].set_bandwidth_bps(bps);
    }

    /// Change `link`'s propagation delay; applies to future transmissions.
    pub fn set_link_delay(&mut self, link: LinkId, delay: SimTime) {
        self.sim.advance_link_dyn(link);
        self.sim.links[link as usize].set_delay(delay);
    }

    /// Change `link`'s Bernoulli random-loss probability.
    pub fn set_link_loss(&mut self, link: LinkId, p: f64) {
        self.sim.advance_link_dyn(link);
        self.sim.links[link as usize].set_random_loss(p);
    }

    /// Administratively down `link`: flush its queue (the flushed packets are
    /// charged to their flows' drop counters) and blackhole every packet
    /// offered until [`SimApi::set_link_up`]. Packets already on the wire
    /// still arrive, as on a real link failure.
    pub fn set_link_down(&mut self, link: LinkId) {
        self.sim.advance_link_dyn(link);
        let flushed = self.sim.links[link as usize].set_admin_down(true);
        let emptied = !flushed.is_empty();
        for pkt in flushed {
            let c = &mut self.sim.flow_counters[pkt.flow as usize];
            match pkt.kind {
                PacketKind::Data => c.data_dropped += 1,
                PacketKind::Ack => c.acks_dropped += 1,
            }
        }
        if emptied {
            let now = self.sim.now;
            if let Some(tr) = self.sim.tracer.as_mut() {
                if tr.link_traced(link) {
                    tr.link_queue_changed(now, link, 0);
                }
            }
        }
    }

    /// Bring an administratively-downed `link` back up.
    pub fn set_link_up(&mut self, link: LinkId) {
        self.sim.advance_link_dyn(link);
        let flushed = self.sim.links[link as usize].set_admin_down(false);
        debug_assert!(flushed.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{Ftp, HttpParams, HttpSession};
    use crate::time::{millis, secs, SECOND};

    /// Two hosts, one duplex link. An FTP transfers data; check delivery and
    /// throughput plausibility.
    fn two_host_sim(bw_mbps: f64, delay_ms: f64, queue: usize) -> (Sim, FlowId) {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (f, r) = sim.add_duplex(a, b, LinkSpec::from_table(bw_mbps, delay_ms, queue));
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        (sim, flow)
    }

    struct FtpStarter {
        flow: FlowId,
    }
    impl App for FtpStarter {
        fn start(&mut self, api: &mut SimApi<'_>) {
            api.set_backlogged(self.flow, None);
        }
    }

    #[test]
    fn backlogged_flow_fills_the_pipe() {
        let (mut sim, flow) = two_host_sim(10.0, 10.0, 100);
        sim.add_app(Box::new(FtpStarter { flow }));
        sim.run_until(10 * SECOND);
        // 10 Mbps, 1500 B packets → 833 pkt/s max. Expect ≥ 70% utilisation
        // after slow start in 10 s, and no loss (huge queue, window-limited).
        let delivered = sim.sink(flow).stats.delivered;
        assert!(delivered > 4_000, "delivered {delivered}");
        assert_eq!(sim.flow_counters(flow).data_dropped, 0);
        // RTT samples should hover around the two-way propagation delay.
        let rtt = sim.sender(flow).rtt.mean_rtt_secs().unwrap();
        assert!(rtt > 0.019 && rtt < 0.2, "rtt {rtt}");
    }

    #[test]
    fn window_limited_throughput_matches_formula() {
        // Large BDP: throughput ≈ max_wnd / RTT.
        let (mut sim, flow) = two_host_sim(100.0, 50.0, 1000);
        sim.add_app(Box::new(FtpStarter { flow }));
        sim.run_until(30 * SECOND);
        let delivered = sim.sink(flow).stats.delivered as f64 / 30.0;
        let rtt = 0.1 + 0.00012 * 2.0; // 2×50 ms + serialisation
        let expect = 64.0 / rtt;
        assert!(
            (delivered - expect).abs() / expect < 0.15,
            "delivered {delivered:.1} pkt/s, expected ≈ {expect:.1}"
        );
    }

    #[test]
    fn bottleneck_losses_trigger_recovery_not_collapse() {
        // Small queue forces drops; the flow must keep making progress.
        let (mut sim, flow) = two_host_sim(2.0, 20.0, 10);
        sim.add_app(Box::new(FtpStarter { flow }));
        sim.run_until(60 * SECOND);
        let delivered = sim.sink(flow).stats.delivered as f64 / 60.0;
        // 2 Mbps ≈ 167 pkt/s; Reno should reach at least half of that.
        assert!(delivered > 80.0, "delivered {delivered:.1} pkt/s");
        assert!(sim.flow_counters(flow).data_dropped > 0, "expected drops");
        let p = sim.flow_loss_rate(flow);
        assert!(p > 0.0 && p < 0.2, "loss {p}");
        // Everything delivered exactly once to the app despite losses.
        let sent_beyond = sim.sender(flow).acked();
        assert_eq!(sim.sink(flow).stats.delivered, sim.sink(flow).rcv_next());
        assert!(sent_beyond <= sim.sink(flow).rcv_next());
    }

    #[test]
    fn two_competing_flows_share_fairly() {
        let mut sim = Sim::new(7);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (f, r) = sim.add_duplex(a, b, LinkSpec::from_table(4.0, 20.0, 30));
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        let f1 = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        let f2 = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        sim.add_app(Box::new(FtpStarter { flow: f1 }));
        sim.add_app(Box::new(FtpStarter { flow: f2 }));
        sim.run_until(120 * SECOND);
        let d1 = sim.sink(f1).stats.delivered as f64;
        let d2 = sim.sink(f2).stats.delivered as f64;
        let ratio = d1.max(d2) / d1.min(d2);
        assert!(ratio < 1.6, "unfair split: {d1} vs {d2}");
        // Combined they should use most of the 4 Mbps ≈ 333 pkt/s.
        assert!((d1 + d2) / 120.0 > 250.0, "aggregate too low");
    }

    #[test]
    fn app_timers_fire_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct TimerApp {
            fired: Rc<RefCell<Vec<(u64, SimTime)>>>,
        }
        impl App for TimerApp {
            fn start(&mut self, api: &mut SimApi<'_>) {
                api.schedule_in(secs(2.0), 2);
                api.schedule_in(secs(1.0), 1);
                api.schedule_in(millis(1500.0), 15);
            }
            fn on_timer(&mut self, api: &mut SimApi<'_>, tag: u64) {
                self.fired.borrow_mut().push((tag, api.now()));
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(1);
        sim.add_app(Box::new(TimerApp {
            fired: Rc::clone(&fired),
        }));
        sim.run_until(10 * SECOND);
        assert_eq!(
            *fired.borrow(),
            vec![(1, secs(1.0)), (15, millis(1500.0)), (2, secs(2.0))]
        );
    }

    /// A lossy two-host topology that actually consumes link RNG streams
    /// (Bernoulli link loss), so outcomes are a function of the seed.
    fn lossy_sim(seed: u64) -> (Sim, FlowId) {
        let mut sim = Sim::new(seed);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let spec = LinkSpec::from_table(2.0, 20.0, 30).with_random_loss(0.02);
        let (f, r) = sim.add_duplex(a, b, spec);
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        sim.add_app(Box::new(FtpStarter { flow }));
        sim.run_until(30 * SECOND);
        (sim, flow)
    }

    fn lossy_run(seed: u64) -> (u64, u64, u64) {
        let (sim, flow) = lossy_sim(seed);
        (
            sim.sink(flow).stats.delivered,
            sim.flow_counters(flow).data_dropped,
            sim.events_processed(),
        )
    }

    /// On the `Sim` itself, not the process-wide atomics other tests share.
    #[cfg(feature = "profile")]
    #[test]
    fn every_dispatched_event_lands_in_exactly_one_profiler_bin() {
        let (sim, _) = lossy_sim(1);
        let (events, arrivals) = sim.profile.counts.split_at(telemetry::profile::EVENT_KINDS);
        assert!(
            events[0] > 0 && events[1] > 0,
            "link deliveries and retransmission timers must both have fired: {events:?}"
        );
        assert_eq!(events.iter().sum::<u64>(), sim.events_processed());
        // Two hosts, no router: every transit reaches a sink or a sender.
        assert!(
            arrivals[0] == 0 && arrivals[1] > 0 && arrivals[2] > 0,
            "{arrivals:?}"
        );
        assert_eq!(arrivals.iter().sum::<u64>(), sim.transits());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        assert_eq!(lossy_run(1), lossy_run(1));
        assert_eq!(lossy_run(2007), lossy_run(2007));
    }

    #[test]
    fn different_seeds_diverge() {
        // With Bernoulli loss on the link, the per-link RNG streams provably
        // shape the run: different seeds must produce different loss
        // patterns and event counts. (Identical triples across 1→2 would
        // mean the seed is not wired through to the links.)
        assert_ne!(lossy_run(1), lossy_run(2));
    }

    /// One backlogged flow over a lossy pipe: serialisation, delivery, ACK
    /// and retransmission-timer events.
    fn two_host() -> Sim {
        let mut sim = Sim::new(3);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let spec = LinkSpec::from_table(2.0, 20.0, 10).with_random_loss(0.01);
        let (f, r) = sim.add_duplex(a, b, spec);
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        sim.add_app(Box::new(FtpStarter { flow }));
        sim.run_until(60 * SECOND);
        sim
    }

    /// The figure sweeps' background traffic on a bare `Sim`: a congested
    /// Table 1 config-2-like bottleneck shared by 9 FTPs and 40 on/off HTTP
    /// sessions, so app timers, think times and 49 flows' worth of
    /// same-instant ties pass the queue's contract check too.
    fn bottleneck_bg() -> Sim {
        let mut sim = Sim::new(2);
        let a = sim.add_node("src");
        let b = sim.add_node("dst");
        let (f, r) = sim.add_duplex(a, b, LinkSpec::from_table(3.7, 1.0, 50));
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        let cfg = TcpConfig {
            max_wnd: 20,
            ..TcpConfig::default()
        };
        for i in 0..49u64 {
            let flow = sim.add_flow(a, b, cfg, SinkConfig::default());
            let app: Box<dyn App> = if i < 9 {
                Box::new(Ftp::new(flow, i * SECOND / 10))
            } else {
                let start = (i - 9) * SECOND / 20;
                Box::new(HttpSession::new(flow, HttpParams::default(), start))
            };
            sim.add_app(app);
        }
        sim.run_until(10 * SECOND);
        sim
    }

    #[test]
    fn zero_random_loss_is_byte_identical_to_no_knob() {
        // The Bernoulli loss process must consume no RNG when p = 0, so a
        // link configured with `.with_random_loss(0.0)` is indistinguishable
        // from one that never heard of the knob: same deliveries, same drop
        // pattern, same event count.
        let run = |zero_loss_knob: bool| {
            let mut sim = Sim::new(11);
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            let mut spec = LinkSpec::from_table(2.0, 20.0, 10);
            if zero_loss_knob {
                spec = spec.with_random_loss(0.0);
            }
            let (f, r) = sim.add_duplex(a, b, spec);
            sim.add_route(a, b, f);
            sim.add_route(b, a, r);
            let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
            sim.add_app(Box::new(FtpStarter { flow }));
            sim.run_until(60 * SECOND);
            (
                sim.sink(flow).stats.delivered,
                sim.sender(flow).stats.retransmits,
                sim.flow_counters(flow).data_dropped,
                sim.events_processed(),
                sim.counters().random_loss_drops,
            )
        };
        let (without, with) = (run(false), run(true));
        assert_eq!(without, with);
        assert_eq!(with.4, 0, "p = 0 must never drop");
    }

    #[test]
    fn delivery_events_are_coalesced() {
        // The classic pipeline spent two events per transit (tx-done +
        // arrival); coalesced delivery must spend strictly less per transit,
        // even counting every timer event in the run.
        let (mut sim, flow) = two_host_sim(10.0, 10.0, 100);
        sim.add_app(Box::new(FtpStarter { flow }));
        sim.run_until(10 * SECOND);
        let c = sim.counters();
        assert!(c.transits > 8_000, "transits {}", c.transits);
        assert!(
            c.events_processed < 2 * c.transits,
            "no coalescing win: {} events for {} transits",
            c.events_processed,
            c.transits
        );
    }

    #[test]
    fn link_mutation_hooks_reshape_a_running_flow() {
        // An app timer downs the bottleneck mid-run, then restores it at a
        // lower rate: delivery must stall during the outage and resume after.
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Mutator {
            fwd: LinkId,
            rev: LinkId,
            flow: FlowId,
            delivered_at: Rc<RefCell<Vec<u64>>>,
        }
        impl App for Mutator {
            fn start(&mut self, api: &mut SimApi<'_>) {
                api.schedule_in(10 * SECOND, 0); // down
                api.schedule_in(16 * SECOND, 1); // up at half rate
                api.schedule_in(15 * SECOND, 2); // sample mid-outage
                api.schedule_in(36 * SECOND, 3); // sample after recovery
            }
            fn on_timer(&mut self, api: &mut SimApi<'_>, tag: u64) {
                match tag {
                    0 => {
                        api.set_link_down(self.fwd);
                        api.set_link_down(self.rev);
                    }
                    1 => {
                        let base = api.link_spec(self.fwd).bandwidth_bps;
                        api.set_link_up(self.fwd);
                        api.set_link_up(self.rev);
                        api.set_link_rate(self.fwd, base / 2.0);
                        api.set_link_delay(self.fwd, millis(40.0));
                    }
                    _ => {
                        let d = api.sender(self.flow).acked();
                        self.delivered_at.borrow_mut().push(d);
                    }
                }
            }
        }
        let mut sim = Sim::new(3);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (f, r) = sim.add_duplex(a, b, LinkSpec::from_table(2.0, 20.0, 30));
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        sim.add_app(Box::new(FtpStarter { flow }));
        let delivered_at = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(Box::new(Mutator {
            fwd: f,
            rev: r,
            flow,
            delivered_at: Rc::clone(&delivered_at),
        }));
        sim.run_until(40 * SECOND);
        let samples = delivered_at.borrow();
        let at_10s_rate = samples[0]; // acked by t=15 (outage began at 10)
        let after = samples[1]; // acked by t=36 (the outage ended at 16)
                                // Progress after recovery (the RTO backoff delays the first
                                // successful retransmit), but at a visibly reduced pace (half rate).
        assert!(after > at_10s_rate + 400, "no recovery: {samples:?}");
        let full_rate_pps = 167.0; // 2 Mbps / 1500 B
        let resumed_pps = (after - at_10s_rate) as f64 / 21.0;
        assert!(
            resumed_pps < 0.75 * full_rate_pps,
            "rate cut not applied: {resumed_pps:.0} pkt/s"
        );
        assert!(sim.link(f).stats.admin_dropped > 0);
    }

    /// Tracing must not perturb a run. Engine invariance is the queue's own
    /// contract check now: it holds both runs' pops to `(time, seq)` order,
    /// which fixes the event sequence any conforming queue dispatches.
    #[test]
    fn tracing_is_behaviour_neutral_and_engine_invariant() {
        use crate::trace::SimTracer;
        use obs::{Recorder, TraceConfig};
        use std::cell::RefCell;
        use std::rc::Rc;

        // A lossy run exercises retransmits, timeouts, and queue dynamics.
        let run = |traced: bool| {
            let mut sim = Sim::new(9);
            let a = sim.add_node("a");
            let b = sim.add_node("b");
            let spec = LinkSpec::from_table(2.0, 20.0, 10).with_random_loss(0.01);
            let (f, r) = sim.add_duplex(a, b, spec);
            sim.add_route(a, b, f);
            sim.add_route(b, a, r);
            let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
            let rec = traced.then(|| {
                let rec = Rc::new(RefCell::new(Recorder::in_memory(TraceConfig {
                    ring_capacity: 64,
                    queue_decimation: 2,
                })));
                let mut tr = SimTracer::new(Rc::clone(&rec));
                tr.trace_flow(flow);
                tr.trace_link(f);
                sim.set_tracer(tr);
                rec
            });
            sim.add_app(Box::new(FtpStarter { flow }));
            sim.run_until(60 * SECOND);
            let outcome = (
                sim.sink(flow).stats.delivered,
                sim.sender(flow).stats.retransmits,
                sim.sender(flow).stats.timeouts,
                sim.flow_counters(flow).data_dropped,
                sim.events_processed(),
                sim.transits(),
            );
            drop(sim); // release the tracer's recorder handle
            let text = rec.map(|rec| {
                let rec = Rc::try_unwrap(rec).ok().expect("sole handle").into_inner();
                String::from_utf8(rec.finish().unwrap().bytes.unwrap()).unwrap()
            });
            (outcome, text)
        };

        let (plain, none) = run(false);
        assert!(none.is_none());
        let (traced, trace) = run(true);
        assert_eq!(plain, traced, "tracing must not perturb the run");
        let tc = trace.unwrap();
        assert!(tc.contains("\"ev\":\"cwnd\""), "missing cwnd events");
        assert!(tc.contains("\"ev\":\"link_q\""), "missing queue samples");
        assert!(tc.contains("\"ev\":\"retx\""), "missing retransmit events");
    }

    #[test]
    fn counters_reflect_timer_reclamation() {
        let (mut sim, flow) = two_host_sim(2.0, 20.0, 10);
        sim.add_app(Box::new(FtpStarter { flow }));
        sim.run_until(60 * SECOND);
        let c = sim.counters();
        assert_eq!(c.events_processed, sim.events_processed());
        assert!(c.wheel_hwm > 0);
        assert!(c.ring_hwm > 0);
        assert!(c.transits > 0);
        // A lossy Reno flow restarts its RTO on every ACK; lazy timers must
        // turn those into deferrals/stale pops instead of queued events. The
        // queue HWM staying near the pipe size (not the ACK count) is the
        // point of the scheme.
        assert!(
            c.stale_timer_pops + c.deferred_timer_pushes > 0,
            "expected reclaimed timer events: {c:?}"
        );
        assert!(
            c.wheel_hwm + c.far_hwm < 200,
            "queue should stay small: {c:?}"
        );
    }

    /// Digest of the rendered always-on metrics.
    fn snapshot_digest(sim: &Sim) -> String {
        use dmp_base::JsonCodec;
        let mut h = dmp_base::hash::StableHasher::new();
        h.write_str(&sim.metrics_snapshot().to_json().render());
        h.finish_hex()
    }

    #[test]
    fn one_ledger_per_sim_reproduces_the_merged_per_entity_histograms() {
        // Read off the commit that still kept one histogram per link and two
        // per sender and merged them in `metrics_snapshot`.
        assert_eq!(
            snapshot_digest(&two_host()),
            "2178191aebec2fda9e2eb7ab9fa81e1f"
        );
        assert_eq!(
            snapshot_digest(&bottleneck_bg()),
            "edd625913cecae1832961e788eb5aff1"
        );
    }

    #[test]
    fn every_offer_records_the_queue_depth_it_meets() {
        // A 200-segment initial window hits a slow link with a 4 000-packet
        // queue in one burst: the first segment departs, the second finds
        // the queue empty, every later one finds one more waiting.
        const BURST: u64 = 200;
        let mut sim = Sim::new(5);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let spec = LinkSpec::from_table(1.0, 50.0, 4_000);
        let (f, r) = sim.add_duplex(a, b, spec);
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        let cfg = TcpConfig {
            max_wnd: BURST as u32,
            initial_cwnd: BURST as f64,
            ..TcpConfig::default()
        };
        let flow = sim.add_flow(a, b, cfg, SinkConfig::default());
        sim.add_app(Box::new(FtpStarter { flow }));
        // Stop before the first segment arrives: no ACK has been offered.
        sim.run_until(spec.tx_time(1500));
        let mut direct = obs::Histogram::new();
        direct.record(0);
        for depth in 0..BURST - 1 {
            direct.record(depth);
        }
        assert_eq!(
            sim.metrics_snapshot().histograms["net.queue_depth_pkts"],
            direct
        );
        // Under full dynamics the ledger still holds one sample per offer.
        sim.run_until(30 * SECOND);
        let depth = &sim.metrics_snapshot().histograms["net.queue_depth_pkts"];
        let offers = sim.link(f).stats.queue_samples + sim.link(r).stats.queue_samples;
        assert_eq!(depth.count(), offers);
        assert_eq!(depth.max() + 1, sim.link(f).stats.peak_queue as u64);
    }

    #[test]
    fn only_a_buffered_sender_wakes_its_application() {
        use std::cell::Cell;
        use std::rc::Rc;
        #[derive(Default)]
        struct Calls {
            send_space: Cell<u64>,
            complete: Cell<u64>,
        }
        /// Owns a sized backlogged transfer (an HTTP page, an FTP file).
        struct SizedTransfer {
            flow: FlowId,
            calls: Rc<Calls>,
        }
        impl App for SizedTransfer {
            fn start(&mut self, api: &mut SimApi<'_>) {
                api.own_flow(self.flow);
                api.set_backlogged(self.flow, Some(500));
            }
            fn on_send_space(&mut self, _: &mut SimApi<'_>, _: FlowId) {
                self.calls.send_space.set(self.calls.send_space.get() + 1);
            }
            fn on_transfer_complete(&mut self, _: &mut SimApi<'_>, _: FlowId) {
                self.calls.complete.set(self.calls.complete.get() + 1);
            }
        }
        let (mut sim, flow) = two_host_sim(10.0, 10.0, 100);
        let calls = Rc::new(Calls::default());
        sim.add_app(Box::new(SizedTransfer {
            flow,
            calls: Rc::clone(&calls),
        }));
        sim.run_until(10 * SECOND);
        assert_eq!(sim.sender(flow).acked(), 500);
        assert_eq!(calls.send_space.get(), 0, "no send buffer to refill");
        assert_eq!(calls.complete.get(), 1);
    }

    #[test]
    #[should_panic(expected = "max_wnd")]
    fn a_zero_window_is_refused_when_the_flow_is_added() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let cfg = TcpConfig {
            max_wnd: 0,
            ..TcpConfig::default()
        };
        sim.add_flow(a, b, cfg, SinkConfig::default());
    }
}
