//! In-process network-path emulator: a TCP proxy that forwards bytes through
//! a bandwidth shaper with propagation delay and a bounded queue.
//!
//! This substitutes for the paper's Internet paths (PlanetLab + ADSL hosts).
//! Packet loss cannot be injected into a kernel TCP stream without root
//! privileges, so congestion is emulated where it actually bites a TCP
//! streamer: as **time-varying achievable throughput**. The shaper's service
//! rate is resampled at random intervals from a configurable band; the
//! bounded queue plus TCP flow control push backpressure all the way to the
//! server's send buffer — exactly the signal DMP-streaming schedules on.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sock::{self, Cutoff};

/// Emulated path characteristics.
#[derive(Debug, Clone, Copy)]
pub struct PathProfile {
    /// Mean service rate, bits per second.
    pub rate_bps: f64,
    /// Relative rate variability: each resample draws uniformly from
    /// `rate_bps × [1−v, 1+v]`. 0 = constant-rate path.
    pub variability: f64,
    /// Mean time between rate resamples.
    pub resample_every: Duration,
    /// One-way propagation delay added after shaping.
    pub delay: Duration,
    /// Shaper queue bound, bytes (the "router buffer" of the path).
    pub queue_bytes: usize,
}

impl PathProfile {
    /// A steady path: fixed rate, fixed delay, 64 KiB queue.
    pub fn steady(rate_bps: f64, delay: Duration) -> Self {
        Self {
            rate_bps,
            variability: 0.0,
            resample_every: Duration::from_secs(1),
            delay,
            queue_bytes: 64 * 1024,
        }
    }
}

/// One service rate the emulator actually applied, with when it took
/// effect (relative to the proxy accepting its connection). The delay is
/// the profile's throughout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedPoint {
    /// When this rate took effect.
    pub t: Duration,
    /// Service rate in force, bits per second.
    pub rate_bps: f64,
}

/// Every rate a path applied, in order: the initial rate and each random
/// resample. This is the ground truth of what the emulated path did during
/// a run.
type Timeline = Arc<Mutex<Vec<AppliedPoint>>>;

/// A running path emulator: connect the upstream (server) to
/// [`PathEmulator::addr`]; bytes come out at `downstream_addr` shaped by the
/// profile. The proxy runs on threads of its own until either side closes;
/// [`PathEmulator::finish`] (or dropping the emulator) stops and joins them.
pub struct PathEmulator {
    addr: SocketAddr,
    timeline: Timeline,
    /// The proxy's two sockets, once it has them, and its stages' sleeps.
    cutoff: Arc<Cutoff>,
    proxy: Option<JoinHandle<()>>,
}

impl PathEmulator {
    /// Spawn an emulator forwarding one inbound connection to
    /// `downstream_addr`. Returns as soon as it listens.
    pub fn spawn(profile: PathProfile, downstream_addr: SocketAddr, seed: u64) -> io::Result<Self> {
        // Cap the upstream receive buffer: kernel autotuning would otherwise
        // grow it to hundreds of KB on loopback, letting a slow path absorb
        // most of a short stream into in-flight kernel buffers and blunting
        // the backpressure signal DMP schedules on. 16 KiB (the kernel
        // doubles it) keeps the path's queue the dominant buffer, so results
        // do not depend on host tcp_rmem settings.
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let listener = sock::listen_with_rcvbuf(loopback, UPSTREAM_RCVBUF, 8)?;
        let addr = listener.local_addr()?;
        let (timeline, cutoff) = (Timeline::default(), Arc::new(Cutoff::new()));
        let (applied, cut) = (Arc::clone(&timeline), Arc::clone(&cutoff));
        let proxy = thread::spawn(move || {
            if let Ok((upstream, _)) = listener.accept() {
                let _ = run_proxy(upstream, downstream_addr, profile, seed, &applied, &cut);
            }
        });
        Ok(Self {
            addr,
            timeline,
            cutoff,
            proxy: Some(proxy),
        })
    }

    /// Address the upstream should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the proxy and return every rate it applied. A panic on one of
    /// its threads resumes here.
    pub fn finish(mut self) -> Vec<AppliedPoint> {
        if let Err(panic) = self.stop() {
            std::panic::resume_unwind(panic);
        }
        let mut applied = self.timeline.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *applied)
    }

    /// Cut the proxy loose — both its sockets and its stages' sleeps — so
    /// every stage ends at once, and join its threads. A proxy still waiting for its upstream is woken by a
    /// connection of our own and, finding the cut, ends.
    fn stop(&mut self) -> thread::Result<()> {
        let Some(proxy) = self.proxy.take() else {
            return Ok(());
        };
        self.cutoff.cut();
        let _ = TcpStream::connect(self.addr);
        proxy.join()
    }
}

impl Drop for PathEmulator {
    /// Stops the proxy as [`PathEmulator::finish`] does, but drops a panic
    /// of its threads: only `finish` resumes one.
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Chunk size forwarded through the shaper (one video packet fits).
const CHUNK: usize = 2048;

/// `SO_RCVBUF` for the upstream (server-facing) side of the proxy; see
/// [`PathEmulator::spawn`].
const UPSTREAM_RCVBUF: u32 = 16 * 1024;

/// The three stages of one path, each on its own thread: the reader
/// (upstream → queue), the shaper (queue → serialisation) and, on this
/// thread, the delay stage (→ downstream).
fn run_proxy(
    upstream: TcpStream,
    downstream_addr: SocketAddr,
    profile: PathProfile,
    seed: u64,
    timeline: &Mutex<Vec<AppliedPoint>>,
    cutoff: &Cutoff,
) -> io::Result<()> {
    cutoff.watch(&upstream)?;
    let downstream = TcpStream::connect(downstream_addr)?;
    cutoff.watch(&downstream)?;
    downstream.set_nodelay(true)?;
    upstream.set_nodelay(true)?;

    // Bounded channel = the path's queue. The reader applies backpressure to
    // the upstream TCP connection simply by not reading while it is full.
    let depth = (profile.queue_bytes / CHUNK).max(2);
    let (tx, rx) = mpsc::sync_channel(depth);
    // Shaper → delay stage. Kept separate from the shaper so the delay does
    // not leak into the pacing (a transmitted chunk propagates while the
    // next one is already being serialised, as on a real link).
    let (dtx, drx) = mpsc::sync_channel(depth.max(64));
    thread::scope(|s| {
        s.spawn(|| read_upstream(upstream, tx));
        s.spawn(|| shape(rx, dtx, profile, seed, timeline, cutoff));
        delay(drx, downstream, cutoff);
    });
    Ok(())
}

/// Reader: upstream → queue, until the upstream ends or the shaper is gone.
fn read_upstream(mut upstream: TcpStream, tx: SyncSender<Vec<u8>>) {
    let mut buf = vec![0u8; CHUNK];
    while let Ok(n @ 1..) = upstream.read(&mut buf) {
        if tx.send(buf[..n].to_vec()).is_err() {
            break;
        }
    }
}

/// Shaper: queue → serialisation discipline → (release time, chunk), with
/// the service rate resampled at jittered intervals and every rate applied
/// recorded in `timeline`. The stage paces itself with sleeps the cut ends.
fn shape(
    rx: Receiver<Vec<u8>>,
    dtx: SyncSender<(Instant, Vec<u8>)>,
    profile: PathProfile,
    seed: u64,
    timeline: &Mutex<Vec<AppliedPoint>>,
    cutoff: &Cutoff,
) {
    let start = Instant::now();
    let record = |t: Duration, rate_bps: f64| {
        let point = AppliedPoint { t, rate_bps };
        timeline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(point);
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rate = profile.rate_bps;
    let mut next_resample = Instant::now() + profile.resample_every;
    record(Duration::ZERO, rate);
    // Virtual transmit clock for the serialisation discipline.
    let mut vclock = Instant::now();
    while let Ok(chunk) = rx.recv() {
        let now = Instant::now();
        if profile.variability > 0.0 && now >= next_resample {
            let v = profile.variability;
            rate = profile.rate_bps * rng.gen_range(1.0 - v..=1.0 + v);
            record(start.elapsed(), rate);
            // Jitter the resample interval ±50% so paths decorrelate.
            let jitter = rng.gen_range(0.5..1.5);
            next_resample = now + profile.resample_every.mul_f64(jitter);
        }
        let tx_time = Duration::from_secs_f64(chunk.len() as f64 * 8.0 / rate);
        vclock = vclock.max(now) + tx_time;
        if !cutoff.sleep_until(vclock) || dtx.send((vclock + profile.delay, chunk)).is_err() {
            break;
        }
    }
}

/// Delay stage: release each chunk `delay` after it finished serialising
/// (release times are monotone, so FIFO order is preserved).
fn delay(drx: Receiver<(Instant, Vec<u8>)>, mut downstream: TcpStream, cutoff: &Cutoff) {
    while let Ok((release_at, chunk)) = drx.recv() {
        if !cutoff.sleep_until(release_at) || downstream.write_all(&chunk).is_err() {
            break;
        }
    }
    let _ = downstream.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Pump `n` bytes through an emulator and return the elapsed time.
    fn pump(profile: PathProfile, n: usize) -> Duration {
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let emu = PathEmulator::spawn(profile, sink.local_addr().unwrap(), 7).unwrap();
        thread::scope(|s| {
            let recv = s.spawn(|| {
                let (mut s, _) = sink.accept().unwrap();
                let mut total = 0usize;
                let mut buf = vec![0u8; 8192];
                while total < n {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(k) => total += k,
                    }
                }
                total
            });
            let mut up = TcpStream::connect(emu.addr()).unwrap();
            let send_start = Instant::now();
            up.write_all(&vec![0xabu8; n]).unwrap();
            up.shutdown(Shutdown::Write).unwrap();
            assert_eq!(recv.join().unwrap(), n);
            send_start.elapsed()
        })
    }

    #[test]
    fn shaper_enforces_rate() {
        // 400 kbps, 100 KB → ≥ 2.0 s.
        let profile = PathProfile::steady(400_000.0, Duration::from_millis(1));
        let secs = pump(profile, 100_000).as_secs_f64();
        assert!(secs > 1.7, "took {secs:.2}s, shaping too loose");
        assert!(secs < 4.0, "took {secs:.2}s, shaping too tight");
    }

    #[test]
    fn fast_path_is_fast() {
        let profile = PathProfile::steady(50_000_000.0, Duration::from_millis(1));
        let elapsed = pump(profile, 100_000);
        assert!(elapsed.as_secs_f64() < 1.0, "took {:?}", elapsed);
    }

    #[test]
    fn delay_is_applied() {
        // Tiny transfer: elapsed ≈ one-way delay.
        let profile = PathProfile::steady(10_000_000.0, Duration::from_millis(150));
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let emu = PathEmulator::spawn(profile, sink.local_addr().unwrap(), 1).unwrap();
        let mut up = TcpStream::connect(emu.addr()).unwrap();
        let (mut down, _) = sink.accept().unwrap();
        let t0 = Instant::now();
        up.write_all(&[0u8; 16]).unwrap();
        down.read_exact(&mut [0u8; 16]).unwrap();
        let owd = t0.elapsed().as_secs_f64();
        assert!(owd > 0.14, "one-way delay {owd:.3}s");
        assert!(owd < 0.5, "one-way delay {owd:.3}s");
    }

    /// An emulator nobody connected to, and one whose upstream still holds
    /// its connection open: dropping either returns at once, its threads
    /// joined.
    #[test]
    fn finishing_an_idle_or_open_emulator_joins_its_threads() {
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let profile = PathProfile::steady(1_000_000.0, Duration::from_millis(1));
        let idle = PathEmulator::spawn(profile, sink.local_addr().unwrap(), 1).unwrap();
        let t0 = Instant::now();
        assert_eq!(idle.finish(), []);
        let open = PathEmulator::spawn(profile, sink.local_addr().unwrap(), 2).unwrap();
        let mut up = TcpStream::connect(open.addr()).unwrap();
        let (mut down, _) = sink.accept().unwrap();
        up.write_all(&[0u8; 16]).unwrap();
        down.read_exact(&mut [0u8; 16]).unwrap();
        let applied = open.finish();
        assert_eq!(applied.len(), 1, "a steady path applies its one rate");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_eq!(down.read(&mut [0u8; 16]).unwrap(), 0, "the proxy closed");
    }
}
