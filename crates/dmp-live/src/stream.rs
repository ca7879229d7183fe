//! The live DMP-streaming endpoints over real TCP sockets.
//!
//! [`serve`] is the server: a CBR generator feeds a
//! [`dmp_core::scheme::Scheme`] — the type the simulator's server runs —
//! behind a mutex, and one sender task per path takes from it and
//! `write_all`s into its socket. Only *what the lock holder takes* is asked
//! of the scheme; *who holds the lock next* is not ours to decide: a sender
//! blocked on a full kernel send buffer simply stops taking while the others
//! drain the queue — the paper's scheme verbatim, with the socket buffer
//! playing the role it plays in Fig. 2.
//!
//! [`receive`] is the client: one reader per path decodes fixed-size frames
//! and reports each arrival. [`run_stream`] joins the two in one process
//! around a [`StreamTrace`]; the `dmp-server` and `dmp-client` binaries run
//! one half each.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use dmp_core::scheme::{Scheme, StreamPacket};
use dmp_core::spec::{PullStrategy, SchedulerKind, VideoSpec};
use dmp_core::trace::StreamTrace;
use obs::{EventKind, TraceEvent};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpSocket, TcpStream};
use tokio::sync::Notify;
use tokio::task::JoinHandle;
use tokio::time::Instant;

use crate::wire;

/// The paper's server queue with its lock, as the sender tasks share it.
struct ServerQueue {
    scheme: Mutex<Scheme>,
    notify: Notify,
    /// Set once generation is finished (senders drain and exit).
    done: AtomicBool,
}

impl ServerQueue {
    /// The paper's scheme over `paths` equal paths, for `packets` packets.
    fn new(paths: usize, packets: u64) -> Self {
        let (dmp, paper) = (SchedulerKind::Dynamic, PullStrategy::RoundRobin);
        let scheme = Scheme::new(dmp, paper, &vec![1.0; paths], packets);
        Self {
            scheme: Mutex::new(scheme),
            notify: Notify::new(),
            done: AtomicBool::new(false),
        }
    }

    /// Queue a generated packet; returns the queue depth after the push.
    fn push(&self, pkt: StreamPacket) -> usize {
        let mut scheme = self.scheme.lock().unwrap_or_else(PoisonError::into_inner);
        scheme.on_generated(pkt, &());
        let depth = scheme.shared_depth().unwrap_or(0);
        drop(scheme);
        self.notify.notify_waiters();
        depth
    }

    /// Take the lock for `path`: what it takes, and the depth left behind.
    fn take(&self, path: usize, now_ns: u64) -> Option<(StreamPacket, usize)> {
        let mut scheme = self.scheme.lock().unwrap_or_else(PoisonError::into_inner);
        let pkt = scheme.take(path, now_ns)?;
        Some((pkt, scheme.shared_depth().unwrap_or(0)))
    }

    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.notify.notify_waiters();
    }
}

/// Configuration of a live streaming run.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// The video to stream.
    pub video: VideoSpec,
    /// Number of packets to generate.
    pub packets: u64,
    /// Kernel send-buffer size per path socket, bytes. Small values make the
    /// implicit bandwidth inference sharp (the paper relies on the sender
    /// blocking when the buffer fills).
    pub send_buf_bytes: u32,
    /// Collect an [`obs`] event trace (generation, pull decisions, server
    /// queue depth, deliveries) in [`LiveOutput::trace_events`]. Timestamps
    /// are on the run's execution clock; time-dilated experiments rescale
    /// them to nominal time afterwards.
    pub trace: bool,
}

/// Outcome of a live run.
#[derive(Debug)]
pub struct LiveOutput {
    /// The delivery trace (generation + arrival per packet).
    pub trace: StreamTrace,
    /// Packets received per path.
    pub per_path_packets: Vec<u64>,
    /// Duration of the run on the trace's clock: wall-clock as produced by
    /// [`run_stream`], rescaled to the nominal timeline by time-dilated
    /// experiments (see `LiveExperiment::time_dilation`).
    pub elapsed: Duration,
    /// Collected [`obs`] events (empty unless [`LiveConfig::trace`] was set).
    /// Unsorted — producers on different tasks interleave; sort by timestamp
    /// before writing.
    pub trace_events: Vec<TraceEvent>,
}

/// The clock and the event log the tasks of one run share. Unlike the
/// simulator there is no single-threaded dispatch loop to serialise
/// emission, so events are sorted by timestamp when they are written out.
#[derive(Clone)]
pub struct Session {
    epoch: Instant,
    events: Option<Arc<Mutex<Vec<TraceEvent>>>>,
}

impl Session {
    /// Start the clock; `trace` turns the event log on.
    pub fn start(trace: bool) -> Self {
        Self {
            epoch: Instant::now(),
            events: trace.then(Arc::default),
        }
    }

    /// Time since the session started.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn now_ns(&self) -> u64 {
        self.elapsed().as_nanos() as u64
    }

    fn emit(&self, t: u64, kind: EventKind) {
        if let Some(events) = &self.events {
            events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(TraceEvent { t, kind });
        }
    }
}

/// Wait for one of [`receive`]'s readers (or a sender); with a `grace`, give
/// up on one still running after it (`TimedOut`).
pub async fn settle(task: JoinHandle<io::Result<u64>>, grace: Option<Duration>) -> io::Result<u64> {
    let joined = match grace {
        Some(grace) => tokio::time::timeout(grace, task).await,
        None => Ok(task.await),
    };
    joined
        .map_err(|_| io::Error::from(io::ErrorKind::TimedOut))?
        .map_err(io::Error::other)?
}

/// Bind one listener per address (`127.0.0.1:0` picks a free loopback port)
/// and report where each ended up.
pub async fn listen(addrs: &[SocketAddr]) -> io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::new();
    let mut bound = Vec::new();
    for &addr in addrs {
        let l = TcpListener::bind(addr).await?;
        bound.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok((listeners, bound))
}

/// One path's sender: take from the head of the server queue and write; a
/// blocked `write_all` keeps this sender away from the queue while the
/// others take. Returns the packets written.
async fn send_path(
    mut sock: TcpStream,
    path: u32,
    packet_bytes: usize,
    queue: Arc<ServerQueue>,
    session: Session,
) -> io::Result<u64> {
    let mut out = bytes::BytesMut::with_capacity(packet_bytes);
    let mut sent = 0;
    loop {
        // Register for the next push *before* looking at the queue, so one
        // landing between an empty `take` and the wait ends the wait at once
        // instead of costing a wait chunk of server-queue delay. (The
        // vendored `Notify` snapshots its epoch here; under real tokio this
        // is the pinned-and-`enable()`d `Notified` idiom.)
        let pushed = queue.notify.notified();
        let now_ns = session.now_ns();
        match queue.take(path as usize, now_ns) {
            Some((pkt, left)) => {
                let (seq, queued) = (pkt.seq, left as u32);
                session.emit(now_ns, EventKind::Pull { path, seq, queued });
                out.clear();
                wire::encode(&pkt, packet_bytes, &mut out);
                if sock.write_all(&out).await.is_err() {
                    break;
                }
                sent += 1;
            }
            None if queue.done.load(Ordering::SeqCst) => break,
            None => pushed.await,
        }
    }
    let _ = sock.shutdown().await;
    Ok(sent)
}

/// The server half: connect one socket per path (`path_addrs[k]` is where
/// path `k` leads), generate `cfg.packets` CBR packets on the tokio clock
/// into the shared queue — `on_generated` sees each one — and let the
/// per-path senders drain it. Returns the packets each path sent, once every
/// sender is done or, with a `grace`, has had that long after generation.
pub async fn serve(
    cfg: LiveConfig,
    path_addrs: &[SocketAddr],
    grace: Option<Duration>,
    session: &Session,
    mut on_generated: impl FnMut(StreamPacket),
) -> io::Result<Vec<u64>> {
    let packet_bytes = cfg.video.packet_bytes as usize;
    if packet_bytes < wire::HEADER_BYTES {
        return Err(io::Error::other("packet smaller than the frame header"));
    }
    let queue = Arc::new(ServerQueue::new(path_addrs.len(), cfg.packets));
    let mut senders = Vec::new();
    for (path, &addr) in path_addrs.iter().enumerate() {
        let socket = TcpSocket::new_v4()?;
        socket.set_send_buffer_size(cfg.send_buf_bytes)?;
        let sock = socket.connect(addr).await?;
        sock.set_nodelay(true)?;
        let (queue, session) = (Arc::clone(&queue), session.clone());
        senders.push(tokio::spawn(send_path(
            sock,
            path as u32,
            packet_bytes,
            queue,
            session,
        )));
    }

    // Paced from here, not from the session start: connecting took a while.
    let interval = Duration::from_secs_f64(cfg.video.gen_interval_s());
    let mut next = Instant::now();
    for seq in 0..cfg.packets {
        next += interval;
        tokio::time::sleep_until(next).await;
        let gen_ns = session.now_ns();
        on_generated(StreamPacket { seq, gen_ns });
        let depth = queue.push(StreamPacket { seq, gen_ns }) as u32;
        session.emit(gen_ns, EventKind::Generated { seq });
        session.emit(gen_ns, EventKind::SrvQueue { depth });
    }
    queue.finish();

    let mut sent = Vec::new();
    for task in senders {
        sent.push(settle(task, grace).await.unwrap_or(0));
    }
    Ok(sent)
}

/// One frame as a reader saw it: the path whose socket delivered it, the
/// header (sequence number, the server's generation stamp) and when it was
/// decoded, ns on the session clock.
pub type Arrival = (u32, StreamPacket, u64);

/// One path's reader: accept, then decode frames until the stream ends.
/// Returns the packets received; a corrupt stream is an error.
async fn read_path(
    listener: TcpListener,
    path: u32,
    session: Session,
    on_arrival: impl Fn(Arrival),
) -> io::Result<u64> {
    let (mut sock, _) = listener.accept().await?;
    sock.set_nodelay(true)?;
    let mut buf = bytes::BytesMut::with_capacity(64 * 1024);
    let mut tmp = vec![0u8; 16 * 1024];
    let mut received = 0;
    loop {
        match sock.read(&mut tmp).await {
            Ok(0) | Err(_) => return Ok(received),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
        }
        loop {
            match wire::decode(&mut buf) {
                Ok(pkt) => {
                    let (at_ns, seq) = (session.now_ns(), pkt.seq);
                    on_arrival((path, pkt, at_ns));
                    session.emit(at_ns, EventKind::Delivered { path, seq });
                    received += 1;
                }
                Err(wire::DecodeError::Incomplete) => break,
                Err(wire::DecodeError::Corrupt) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt frame"));
                }
            }
        }
    }
}

/// The client half: one reader task per listener (`listeners[k]` is path
/// `k`), each accepting one connection and handing every decoded frame to
/// `on_arrival`. Returns the readers at once; [`settle`] each for its count.
pub fn receive(
    listeners: Vec<TcpListener>,
    session: &Session,
    on_arrival: impl Fn(Arrival) + Clone + Send + 'static,
) -> Vec<JoinHandle<io::Result<u64>>> {
    let paths = listeners.into_iter().zip(0..);
    let reader = |(l, path)| tokio::spawn(read_path(l, path, session.clone(), on_arrival.clone()));
    paths.map(reader).collect()
}

/// Stream a video from an in-process server to an in-process client over the
/// given path endpoints. `path_addrs[k]` is where the server connects for
/// path `k` (typically a [`crate::emulator::PathEmulator`]); the client
/// accepts on the listeners supplied alongside.
///
/// Returns once every generated packet has been delivered or `grace` elapses
/// after generation ends.
pub async fn run_stream(
    cfg: LiveConfig,
    path_addrs: &[SocketAddr],
    listeners: Vec<TcpListener>,
    grace: Duration,
) -> io::Result<LiveOutput> {
    assert_eq!(path_addrs.len(), listeners.len());
    let session = Session::start(cfg.trace);
    let horizon_ns =
        (cfg.packets as f64 * cfg.video.gen_interval_s() * 1e9) as u64 + grace.as_nanos() as u64;
    let trace = Arc::new(Mutex::new(StreamTrace::new(cfg.video, horizon_ns)));

    // The client accepts before the server connects.
    let arrivals = Arc::clone(&trace);
    let arrived = move |(path, pkt, at): Arrival| {
        arrivals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .on_arrival(pkt.seq, at, path as u8)
    };
    let readers = receive(listeners, &session, arrived);
    let generated = |pkt: StreamPacket| {
        trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .on_generated(pkt.seq, pkt.gen_ns)
    };
    serve(cfg, path_addrs, Some(grace), &session, generated).await?;
    // A reader still blocked after the grace (its tail in flight) counts
    // nothing; its arrivals so far are already in the trace.
    let mut per_path_packets = Vec::new();
    for reader in readers {
        per_path_packets.push(settle(reader, Some(grace)).await.unwrap_or(0));
    }

    let trace = trace.lock().unwrap_or_else(PoisonError::into_inner).clone();
    // Snapshot rather than unwrap the Arc: a reader still blocked on a
    // straggling tail holds its clone past the grace timeout.
    let events = session.events.as_ref();
    let trace_events =
        events.map(|e| std::mem::take(&mut *e.lock().unwrap_or_else(PoisonError::into_inner)));
    Ok(LiveOutput {
        trace,
        per_path_packets,
        elapsed: session.elapsed(),
        trace_events: trace_events.unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::{PathEmulator, PathProfile};

    async fn listeners(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
        let loopback = vec!["127.0.0.1:0".parse().unwrap(); n];
        listen(&loopback).await.unwrap()
    }

    /// A push that lands after a sender registered for it but before the
    /// sender waits must end the wait at once, not after the vendored
    /// `Notify`'s 50 ms liveness chunk.
    #[test]
    fn a_push_between_the_empty_take_and_the_wait_is_not_lost() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let queue = ServerQueue::new(1, 8);
            for seq in 0..8 {
                let pushed = queue.notify.notified();
                assert_eq!(queue.take(0, 0), None);
                assert_eq!(queue.push(StreamPacket { seq, gen_ns: 0 }), 1);
                let waiting = std::time::Instant::now();
                pushed.await;
                assert!(
                    waiting.elapsed() < Duration::from_millis(25),
                    "the wait slept through a push it had registered for"
                );
                assert_eq!(
                    queue.take(0, 0).map(|(p, left)| (p.seq, left)),
                    Some((seq, 0))
                );
            }
        })
    }

    fn cfg(mu: f64, packets: u64) -> LiveConfig {
        LiveConfig {
            video: VideoSpec {
                rate_pps: mu,
                packet_bytes: 1448,
            },
            packets,
            send_buf_bytes: 16 * 1024,
            trace: false,
        }
    }

    #[test]
    fn direct_loopback_delivers_everything() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let (ls, addrs) = listeners(2).await;
            let out = run_stream(cfg(100.0, 200), &addrs, ls, Duration::from_secs(2))
                .await
                .unwrap();
            assert_eq!(out.trace.generated(), 200);
            assert_eq!(out.trace.delivered(), 200);
            assert_eq!(out.per_path_packets.iter().sum::<u64>(), 200);
        })
    }

    #[test]
    fn traced_loopback_mirrors_the_sim_schema() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let (ls, addrs) = listeners(2).await;
            let mut c = cfg(100.0, 100);
            c.trace = true;
            let out = run_stream(c, &addrs, ls, Duration::from_secs(2))
                .await
                .unwrap();
            assert_eq!(out.trace.delivered(), 100);
            let gens = out
                .trace_events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Generated { .. }))
                .count();
            let pulls = out
                .trace_events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Pull { .. }))
                .count();
            let dlvs = out
                .trace_events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Delivered { .. }))
                .count();
            assert_eq!(gens, 100);
            assert_eq!(pulls, 100, "every packet is pulled exactly once");
            assert_eq!(dlvs, 100);
            assert!(out
                .trace_events
                .iter()
                .any(|e| matches!(e.kind, EventKind::SrvQueue { .. })));
        })
    }

    #[test]
    fn untraced_loopback_collects_nothing() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let (ls, addrs) = listeners(1).await;
            let out = run_stream(cfg(100.0, 50), &addrs, ls, Duration::from_secs(2))
                .await
                .unwrap();
            assert!(out.trace_events.is_empty());
        })
    }

    #[test]
    fn faster_path_carries_more() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            // Path 0: 4 Mbps; path 1: 120 kbps. Video 800 kbps. The slow path
            // must sit well below *half* the demand: in the pull race each path
            // is offered up to half the stream, so a 400 kbps path (= exactly
            // half of 800 kbps) would legitimately keep up and earn ~50% — no
            // dominance to observe. At 120 kbps the slow path saturates, its
            // send buffer backs up, and path 0 takes the rest.
            let (ls, client_addrs) = listeners(2).await;
            let e0 = PathEmulator::spawn(
                PathProfile::steady(4_000_000.0, Duration::from_millis(5)),
                client_addrs[0],
                1,
            )
            .await
            .unwrap();
            let e1 = PathEmulator::spawn(
                PathProfile::steady(120_000.0, Duration::from_millis(5)),
                client_addrs[1],
                2,
            )
            .await
            .unwrap();
            let out = run_stream(
                cfg(69.0, 350), // ≈ 800 kbps for ~5 s
                &[e0.addr(), e1.addr()],
                ls,
                Duration::from_secs(3),
            )
            .await
            .unwrap();
            // Packets committed to the slow path's in-flight buffers (its queue
            // plus kernel send/receive buffers, ~60 packets) drain at only
            // ~10 pkt/s, so the tail cannot arrive within the grace window; the
            // invariant is that the fast path keeps the stream moving.
            let delivered = out.trace.delivered();
            assert!(delivered > 270, "delivered {delivered}");
            let shares = out.trace.path_shares(2);
            assert!(
                shares[0] > 1.5 * shares[1],
                "expected path 0 to dominate: {shares:?}"
            );
        })
    }

    #[test]
    fn constrained_paths_cause_late_packets_only_at_small_tau() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            // Aggregate capacity ≈ 1.25× bitrate over two slow paths: delivery
            // works but needs buffering; τ = 0.05 s should show late packets,
            // τ = 10 s none.
            let (ls, client_addrs) = listeners(2).await;
            let mut addrs = Vec::new();
            for (i, &ca) in client_addrs.iter().enumerate() {
                let e = PathEmulator::spawn(
                    PathProfile::steady(500_000.0, Duration::from_millis(20)),
                    ca,
                    i as u64,
                )
                .await
                .unwrap();
                addrs.push(e.addr());
            }
            let out = run_stream(cfg(69.0, 300), &addrs, ls, Duration::from_secs(4))
                .await
                .unwrap();
            let report = dmp_core::metrics::LatenessReport::from_trace(&out.trace, &[0.05, 10.0]);
            let f_small = report.per_tau[0].playback_order;
            let f_large = report.per_tau[1].playback_order;
            assert!(f_large <= f_small);
            assert_eq!(f_large, 0.0, "10 s of buffer must absorb everything");
        })
    }
}
