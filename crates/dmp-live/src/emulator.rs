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

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpSocket, TcpStream};
use tokio::sync::mpsc;
use tokio::time::Instant;

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
/// profile.
pub struct PathEmulator {
    addr: std::net::SocketAddr,
    timeline: Timeline,
}

impl PathEmulator {
    /// Spawn an emulator forwarding one inbound connection to
    /// `downstream_addr`. Returns immediately; the proxy runs until either
    /// side closes.
    pub async fn spawn(
        profile: PathProfile,
        downstream_addr: std::net::SocketAddr,
        seed: u64,
    ) -> std::io::Result<Self> {
        // Cap the upstream receive buffer: kernel autotuning would otherwise
        // grow it to hundreds of KB on loopback, letting a slow path absorb
        // most of a short stream into in-flight kernel buffers and blunting
        // the backpressure signal DMP schedules on. 16 KiB (the kernel
        // doubles it) keeps the path's queue the dominant buffer, so results
        // do not depend on host tcp_rmem settings.
        let socket = TcpSocket::new_v4()?;
        socket.set_recv_buffer_size(UPSTREAM_RCVBUF)?;
        socket.bind("127.0.0.1:0".parse().expect("literal addr"))?;
        let listener = socket.listen(8)?;
        let addr = listener.local_addr()?;
        let timeline = Timeline::default();
        let applied = Arc::clone(&timeline);
        tokio::spawn(async move {
            if let Ok((upstream, _)) = listener.accept().await {
                let _ = run_proxy(upstream, downstream_addr, profile, seed, applied).await;
            }
        });
        Ok(Self { addr, timeline })
    }

    /// Address the upstream should connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Snapshot of the applied rate timeline so far.
    pub fn timeline(&self) -> Vec<AppliedPoint> {
        self.timeline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Chunk size forwarded through the shaper (one video packet fits).
const CHUNK: usize = 2048;

/// `SO_RCVBUF` for the upstream (server-facing) side of the proxy; see
/// [`PathEmulator::spawn`].
const UPSTREAM_RCVBUF: u32 = 16 * 1024;

async fn run_proxy(
    mut upstream: TcpStream,
    downstream_addr: std::net::SocketAddr,
    profile: PathProfile,
    seed: u64,
    timeline: Timeline,
) -> std::io::Result<()> {
    let mut downstream = TcpStream::connect(downstream_addr).await?;
    downstream.set_nodelay(true)?;
    upstream.set_nodelay(true)?;

    // Bounded channel = the path's queue. Reader applies backpressure to the
    // upstream TCP connection simply by not reading while the queue is full.
    let depth = (profile.queue_bytes / CHUNK).max(2);
    let (tx, mut rx) = mpsc::channel::<Vec<u8>>(depth);

    // Reader: upstream → queue.
    let reader = tokio::spawn(async move {
        let mut buf = vec![0u8; CHUNK];
        loop {
            match upstream.read(&mut buf).await {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if tx.send(buf[..n].to_vec()).await.is_err() {
                        break;
                    }
                }
            }
        }
    });

    // Shaper: queue → serialisation discipline → (release time, chunk).
    // Kept separate from the propagation-delay stage so the delay does not
    // leak into the pacing (a transmitted chunk propagates while the next
    // one is already being serialised, as on a real link).
    let (dtx, mut drx) = mpsc::channel::<(Instant, Vec<u8>)>(depth.max(64));
    let shaper = tokio::spawn(async move {
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
        while let Some(chunk) = rx.recv().await {
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
            tokio::time::sleep_until(vclock).await;
            if dtx.send((vclock + profile.delay, chunk)).await.is_err() {
                break;
            }
        }
    });

    // Delay stage: release each chunk `delay` after it finished serialising
    // (release times are monotone, so FIFO order is preserved).
    while let Some((release_at, chunk)) = drx.recv().await {
        tokio::time::sleep_until(release_at).await;
        if downstream.write_all(&chunk).await.is_err() {
            break;
        }
    }
    let _ = downstream.shutdown().await;
    shaper.abort();
    reader.abort();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::net::TcpListener;

    /// Pump `n` bytes through an emulator and return the elapsed time.
    async fn pump(profile: PathProfile, n: usize) -> Duration {
        let sink = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let emu = PathEmulator::spawn(profile, sink_addr, 7).await.unwrap();

        let recv = tokio::spawn(async move {
            let (mut s, _) = sink.accept().await.unwrap();
            let mut total = 0usize;
            let mut buf = vec![0u8; 8192];
            let start = Instant::now();
            while total < n {
                match s.read(&mut buf).await {
                    Ok(0) | Err(_) => break,
                    Ok(k) => total += k,
                }
            }
            (start.elapsed(), total)
        });

        let mut up = TcpStream::connect(emu.addr()).await.unwrap();
        let data = vec![0xabu8; n];
        let send_start = Instant::now();
        up.write_all(&data).await.unwrap();
        up.shutdown().await.unwrap();
        let (_elapsed_recv, total) = recv.await.unwrap();
        assert_eq!(total, n);
        send_start.elapsed()
    }

    #[test]
    fn shaper_enforces_rate() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            // 400 kbps, 100 KB → ≥ 2.0 s.
            let profile = PathProfile::steady(400_000.0, Duration::from_millis(1));
            let elapsed = pump(profile, 100_000).await;
            let secs = elapsed.as_secs_f64();
            assert!(secs > 1.7, "took {secs:.2}s, shaping too loose");
            assert!(secs < 4.0, "took {secs:.2}s, shaping too tight");
        })
    }

    #[test]
    fn fast_path_is_fast() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            let profile = PathProfile::steady(50_000_000.0, Duration::from_millis(1));
            let elapsed = pump(profile, 100_000).await;
            assert!(elapsed.as_secs_f64() < 1.0, "took {:?}", elapsed);
        })
    }

    #[test]
    fn delay_is_applied() {
        tokio::runtime::Runtime::new().unwrap().block_on(async {
            // Tiny transfer: elapsed ≈ one-way delay.
            let profile = PathProfile::steady(10_000_000.0, Duration::from_millis(150));
            let sink = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let sink_addr = sink.local_addr().unwrap();
            let emu = PathEmulator::spawn(profile, sink_addr, 1).await.unwrap();
            let accept = tokio::spawn(async move {
                let (mut s, _) = sink.accept().await.unwrap();
                let mut buf = [0u8; 16];
                let _ = s.read_exact(&mut buf).await;
                Instant::now()
            });
            let mut up = TcpStream::connect(emu.addr()).await.unwrap();
            let t0 = Instant::now();
            up.write_all(&[0u8; 16]).await.unwrap();
            let t1 = accept.await.unwrap();
            let owd = (t1 - t0).as_secs_f64();
            assert!(owd > 0.14, "one-way delay {owd:.3}s");
            assert!(owd < 0.5, "one-way delay {owd:.3}s");
        })
    }
}
