//! Video applications for the simulator: the DMP-streaming server, the
//! static-streaming server, and the recording client.
//!
//! Both servers layer a [`PullStrategy`] on top of their queue structure:
//! `RoundRobin` reproduces the paper's implicit rotation byte-for-byte; the
//! other strategies (deficit-weighted, best-path, redundant duplication,
//! deadline-aware dropping) are extensions evaluated by the `ext_cc_matrix`
//! bench target.

use std::cell::RefCell;
use std::rc::Rc;

use dmp_core::scheme::{DynamicQueue, StaticSplitter, StreamPacket};
use dmp_core::spec::{PullStrategy, VideoSpec};
use dmp_core::trace::StreamTrace;
use netsim::packet::AppChunk;
use netsim::{App, FlowId, SimApi, SimTime};

/// Shared, interiorly mutable delivery trace: written by both the server
/// (generation) and the client (arrivals).
pub type SharedTrace = Rc<RefCell<StreamTrace>>;

/// Packets older than this at pull time are dropped by the
/// [`PullStrategy::DeadlineAware`] strategies: a packet stuck at the server
/// this long has already missed any practical playout deadline, so spending
/// path capacity on it only delays rescuable packets behind it.
pub const PULL_DEADLINE_S: f64 = 10.0;

/// Create a fresh shared trace for a run ending at `end_ns`.
pub fn shared_trace(video: VideoSpec, end_ns: SimTime) -> SharedTrace {
    Rc::new(RefCell::new(StreamTrace::new(video, end_ns)))
}

fn chunk_of(p: StreamPacket) -> AppChunk {
    AppChunk {
        stream_seq: p.seq,
        gen_ns: p.gen_ns,
    }
}

/// Sort key for [`PullStrategy::BestPath`]: lowest smoothed RTT first
/// (unmeasured paths last), congestion-window headroom breaking ties, path
/// index as the final deterministic tie-break.
fn best_path_key(api: &SimApi<'_>, flow: FlowId, path: usize) -> (u64, i64, usize) {
    let s = api.sender(flow);
    let srtt_ns = s
        .rtt
        .srtt_secs()
        .map_or(u64::MAX, |x| (x * 1e9).round() as u64);
    let headroom = s.cwnd().floor() as i64 - s.unacked() as i64;
    (srtt_ns, -headroom, path)
}

/// The DMP-streaming server (Fig. 2 of the paper): a CBR generator feeding a
/// single shared queue; every TCP sender pulls from the head whenever its
/// send buffer has room. The [`PullStrategy`] decides which sender gets the
/// head packet when several could take it.
pub struct DmpServer {
    flows: Vec<FlowId>,
    queue: DynamicQueue,
    video: VideoSpec,
    trace: SharedTrace,
    start_at: SimTime,
    stop_after: u64,
    interval: SimTime,
    next_seq: u64,
    rr: usize,
    strategy: PullStrategy,
    /// Normalised per-path shares for [`PullStrategy::Weighted`].
    weights: Vec<f64>,
    /// Packets pulled per path (the deficit counters of `Weighted`).
    pulled: Vec<u64>,
    /// Stale packets dropped by [`PullStrategy::DeadlineAware`].
    dropped_late: u64,
    deadline_ns: SimTime,
}

impl DmpServer {
    /// A server striping over `flows` with the baseline round-robin
    /// strategy, generating from `start_at` until `stop_after` packets have
    /// been produced.
    pub fn new(
        flows: Vec<FlowId>,
        video: VideoSpec,
        trace: SharedTrace,
        start_at: SimTime,
        stop_after: u64,
    ) -> Self {
        let interval = netsim::secs(video.gen_interval_s());
        let k = flows.len();
        Self {
            flows,
            // Sized for the whole stream, like the trace: a backlog that
            // first peaks late in a run must not reallocate on the
            // steady-state path (the zero-allocation gate).
            queue: DynamicQueue::with_capacity(stop_after),
            video,
            trace,
            start_at,
            stop_after,
            interval,
            next_seq: 0,
            rr: 0,
            strategy: PullStrategy::RoundRobin,
            weights: vec![1.0 / k as f64; k],
            pulled: vec![0; k],
            dropped_late: 0,
            deadline_ns: netsim::secs(PULL_DEADLINE_S),
        }
    }

    /// Select the pull strategy (builder style; default `RoundRobin`).
    pub fn with_strategy(mut self, strategy: PullStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Per-path bandwidth shares for [`PullStrategy::Weighted`] (normalised
    /// internally; ignored by the other strategies).
    ///
    /// # Panics
    /// Panics if `weights` length mismatches the flows or a weight is not
    /// positive.
    pub fn with_weights(mut self, weights: &[f64]) -> Self {
        assert_eq!(weights.len(), self.flows.len());
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let sum: f64 = weights.iter().sum();
        self.weights = weights.iter().map(|w| w / sum).collect();
        self
    }

    /// Stale packets dropped by the deadline-aware strategy so far.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Trace one pull decision and hand the packet to `path`'s sender.
    fn send_one(&mut self, api: &mut SimApi<'_>, path: usize, p: StreamPacket) {
        if api.trace_enabled() {
            api.trace_emit(obs::EventKind::Pull {
                path: path as u32,
                seq: p.seq,
                queued: self.queue.len() as u32,
            });
        }
        let ok = api.push_chunk(self.flows[path], chunk_of(p));
        debug_assert!(ok, "space was checked");
    }

    /// Pop queue heads until one is young enough to still matter.
    fn pull_fresh(&mut self, now: SimTime) -> Option<StreamPacket> {
        while let Some(p) = self.queue.pull_one() {
            if now.saturating_sub(p.gen_ns) <= self.deadline_ns {
                return Some(p);
            }
            self.dropped_late += 1;
        }
        None
    }

    fn fill(&mut self, api: &mut SimApi<'_>, start: usize) {
        match self.strategy {
            PullStrategy::RoundRobin => self.fill_rotation(api, start),
            PullStrategy::Weighted => self.fill_weighted(api),
            PullStrategy::BestPath => self.fill_best_path(api),
            PullStrategy::RedundantDuplicate => self.fill_redundant(api, start),
            PullStrategy::DeadlineAware => self.fill_deadline(api, start),
        }
    }

    /// One sender takes the lock and drains the head of the queue until its
    /// buffer fills; then the next sender gets a chance (the rotation models
    /// which blocked sender wins the lock first on a generation event).
    /// This is the paper baseline and must stay byte-identical to the
    /// historical implementation.
    fn fill_rotation(&mut self, api: &mut SimApi<'_>, start: usize) {
        let k = self.flows.len();
        for i in 0..k {
            let path = (start + i) % k;
            let flow = self.flows[path];
            loop {
                let space = api.free_space(flow);
                if space == 0 || self.queue.is_empty() {
                    break;
                }
                // Pull one packet at a time (allocation-free; the batch
                // `pull` would build a Vec per lock acquisition). Each pull
                // decision is traced before its data enters the stack.
                for _ in 0..space {
                    let Some(p) = self.queue.pull_one() else {
                        break;
                    };
                    if api.trace_enabled() {
                        api.trace_emit(obs::EventKind::Pull {
                            path: path as u32,
                            seq: p.seq,
                            queued: self.queue.len() as u32,
                        });
                    }
                    let ok = api.push_chunk(flow, chunk_of(p));
                    debug_assert!(ok, "space was checked");
                }
                if api.trace_enabled() {
                    api.trace_srv_queue(self.queue.len());
                }
            }
            if self.queue.is_empty() {
                break;
            }
        }
    }

    /// Deficit-weighted: each packet goes to the path (with buffer space)
    /// furthest behind its configured share, i.e. minimising
    /// `(pulled + 1) / weight`.
    fn fill_weighted(&mut self, api: &mut SimApi<'_>) {
        while !self.queue.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for (p, &flow) in self.flows.iter().enumerate() {
                if api.free_space(flow) == 0 {
                    continue;
                }
                let key = (self.pulled[p] + 1) as f64 / self.weights[p];
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, p));
                }
            }
            let Some((_, p)) = best else {
                break;
            };
            let Some(pkt) = self.queue.pull_one() else {
                break;
            };
            self.send_one(api, p, pkt);
            self.pulled[p] += 1;
        }
        if api.trace_enabled() {
            api.trace_srv_queue(self.queue.len());
        }
    }

    /// Greedy path quality: each packet goes to the best-looking path with
    /// buffer space (lowest srtt, then most cwnd headroom).
    fn fill_best_path(&mut self, api: &mut SimApi<'_>) {
        while !self.queue.is_empty() {
            let mut best: Option<((u64, i64, usize), usize)> = None;
            for (p, &flow) in self.flows.iter().enumerate() {
                if api.free_space(flow) == 0 {
                    continue;
                }
                let key = best_path_key(api, flow, p);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, p));
                }
            }
            let Some((_, p)) = best else {
                break;
            };
            let Some(pkt) = self.queue.pull_one() else {
                break;
            };
            self.send_one(api, p, pkt);
        }
        if api.trace_enabled() {
            api.trace_srv_queue(self.queue.len());
        }
    }

    /// Redundant duplication: the head packet goes to the first path in
    /// rotation order with space, and a copy to every other path that can
    /// take one (the client keeps the first arrival).
    fn fill_redundant(&mut self, api: &mut SimApi<'_>, start: usize) {
        let k = self.flows.len();
        while !self.queue.is_empty() {
            let Some(primary) = (0..k)
                .map(|i| (start + i) % k)
                .find(|&p| api.free_space(self.flows[p]) > 0)
            else {
                break;
            };
            let Some(pkt) = self.queue.pull_one() else {
                break;
            };
            self.send_one(api, primary, pkt);
            for i in 0..k {
                let p = (start + i) % k;
                if p != primary && api.free_space(self.flows[p]) > 0 {
                    self.send_one(api, p, pkt);
                }
            }
        }
        if api.trace_enabled() {
            api.trace_srv_queue(self.queue.len());
        }
    }

    /// Rotation order like the baseline, but stale heads (older than
    /// [`PULL_DEADLINE_S`]) are dropped instead of transmitted, freeing the
    /// window for packets that can still make their playout slot.
    fn fill_deadline(&mut self, api: &mut SimApi<'_>, start: usize) {
        let now = api.now();
        let k = self.flows.len();
        for i in 0..k {
            let path = (start + i) % k;
            let flow = self.flows[path];
            loop {
                let space = api.free_space(flow);
                if space == 0 || self.queue.is_empty() {
                    break;
                }
                for _ in 0..space {
                    let Some(p) = self.pull_fresh(now) else {
                        break;
                    };
                    self.send_one(api, path, p);
                }
                if api.trace_enabled() {
                    api.trace_srv_queue(self.queue.len());
                }
            }
            if self.queue.is_empty() {
                break;
            }
        }
    }

    fn flow_index(&self, flow: FlowId) -> usize {
        self.flows
            .iter()
            .position(|&f| f == flow)
            .expect("owned flow")
    }
}

impl App for DmpServer {
    fn start(&mut self, api: &mut SimApi<'_>) {
        let _ = self.video;
        for &f in &self.flows {
            api.own_flow(f);
        }
        api.schedule_in(self.start_at, 0);
    }

    fn on_timer(&mut self, api: &mut SimApi<'_>, _tag: u64) {
        if self.next_seq >= self.stop_after {
            return;
        }
        let now = api.now();
        self.trace.borrow_mut().on_generated(self.next_seq, now);
        self.queue.push(StreamPacket {
            seq: self.next_seq,
            gen_ns: now,
        });
        if api.trace_enabled() {
            api.trace_emit(obs::EventKind::Generated { seq: self.next_seq });
            api.trace_srv_queue(self.queue.len());
        }
        self.next_seq += 1;
        let start = self.rr;
        self.rr = (self.rr + 1) % self.flows.len();
        self.fill(api, start);
        api.schedule_in(self.interval, 0);
    }

    fn on_send_space(&mut self, api: &mut SimApi<'_>, flow: FlowId) {
        // The sender that freed space grabs the queue lock first.
        let k = self.flow_index(flow);
        self.fill(api, k);
    }
}

/// The static-streaming baseline (Section 7.4): packets are pre-assigned to
/// paths; each sender only ever pulls from its own queue. The default
/// (`RoundRobin`/`Weighted`) assignment is the weighted round-robin split of
/// the paper; the extension strategies change where a packet is *assigned*
/// (the per-path queues stay private to their senders).
pub struct StaticServer {
    flows: Vec<FlowId>,
    splitter: StaticSplitter,
    trace: SharedTrace,
    start_at: SimTime,
    stop_after: u64,
    interval: SimTime,
    next_seq: u64,
    strategy: PullStrategy,
    dropped_late: u64,
    deadline_ns: SimTime,
}

impl StaticServer {
    /// A static server with per-path `weights` (long-term average path
    /// bandwidths, measured beforehand — equal for homogeneous paths).
    pub fn new(
        flows: Vec<FlowId>,
        weights: &[f64],
        video: VideoSpec,
        trace: SharedTrace,
        start_at: SimTime,
        stop_after: u64,
    ) -> Self {
        assert_eq!(flows.len(), weights.len());
        let interval = netsim::secs(video.gen_interval_s());
        Self {
            flows,
            splitter: StaticSplitter::new(weights),
            trace,
            start_at,
            stop_after,
            interval,
            next_seq: 0,
            strategy: PullStrategy::RoundRobin,
            dropped_late: 0,
            deadline_ns: netsim::secs(PULL_DEADLINE_S),
        }
    }

    /// Select the assignment strategy (builder style; default the paper's
    /// weighted round-robin, which `RoundRobin` and `Weighted` both map to).
    pub fn with_strategy(mut self, strategy: PullStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Stale packets dropped by the deadline-aware strategy so far.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    fn pull_fresh(&mut self, k: usize, now: SimTime) -> Option<StreamPacket> {
        if self.strategy != PullStrategy::DeadlineAware {
            return self.splitter.pull_one(k);
        }
        while let Some(p) = self.splitter.pull_one(k) {
            if now.saturating_sub(p.gen_ns) <= self.deadline_ns {
                return Some(p);
            }
            self.dropped_late += 1;
        }
        None
    }

    fn fill_path(&mut self, api: &mut SimApi<'_>, k: usize) {
        let now = api.now();
        loop {
            let space = api.free_space(self.flows[k]);
            if space == 0 || self.splitter.queued(k) == 0 {
                break;
            }
            for _ in 0..space {
                let Some(p) = self.pull_fresh(k, now) else {
                    break;
                };
                let ok = api.push_chunk(self.flows[k], chunk_of(p));
                debug_assert!(ok, "space was checked");
            }
        }
    }
}

impl App for StaticServer {
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
        let now = api.now();
        self.trace.borrow_mut().on_generated(self.next_seq, now);
        let pkt = StreamPacket {
            seq: self.next_seq,
            gen_ns: now,
        };
        match self.strategy {
            // The configured weights *are* the strategy for the baseline
            // pair; both map to the paper's weighted round-robin split.
            PullStrategy::RoundRobin | PullStrategy::Weighted | PullStrategy::DeadlineAware => {
                let k = self.splitter.push(pkt);
                if api.trace_enabled() {
                    api.trace_emit(obs::EventKind::Generated { seq: pkt.seq });
                    api.trace_emit(obs::EventKind::Stripe {
                        path: k as u32,
                        seq: pkt.seq,
                    });
                }
                self.next_seq += 1;
                self.fill_path(api, k);
            }
            // Assign to the currently best-looking path (static in the
            // sense that the assignment is final once made).
            PullStrategy::BestPath => {
                let k = (0..self.flows.len())
                    .min_by_key(|&p| best_path_key(api, self.flows[p], p))
                    .expect("at least one path");
                self.splitter.assign(k, pkt);
                if api.trace_enabled() {
                    api.trace_emit(obs::EventKind::Generated { seq: pkt.seq });
                    api.trace_emit(obs::EventKind::Stripe {
                        path: k as u32,
                        seq: pkt.seq,
                    });
                }
                self.next_seq += 1;
                self.fill_path(api, k);
            }
            // Every path gets a copy; the client keeps the first arrival.
            PullStrategy::RedundantDuplicate => {
                if api.trace_enabled() {
                    api.trace_emit(obs::EventKind::Generated { seq: pkt.seq });
                }
                for k in 0..self.flows.len() {
                    self.splitter.assign(k, pkt);
                    if api.trace_enabled() {
                        api.trace_emit(obs::EventKind::Stripe {
                            path: k as u32,
                            seq: pkt.seq,
                        });
                    }
                }
                self.next_seq += 1;
                for k in 0..self.flows.len() {
                    self.fill_path(api, k);
                }
            }
        }
        api.schedule_in(self.interval, 0);
    }

    fn on_send_space(&mut self, api: &mut SimApi<'_>, flow: FlowId) {
        let k = self
            .flows
            .iter()
            .position(|&f| f == flow)
            .expect("owned flow");
        self.fill_path(api, k);
    }
}

/// The client: subscribes to every path's sink and records arrival times
/// into the shared trace (reassembly order does not matter for the metrics;
/// `dmp_core::metrics` evaluates both playback- and arrival-order lateness).
/// Duplicate deliveries (from [`PullStrategy::RedundantDuplicate`]) keep the
/// first copy to arrive.
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
