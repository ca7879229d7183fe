//! Randomized property tests on the core data structures and invariants,
//! spanning the crates. Each property is exercised over many seeded-RNG
//! cases, so failures are reproducible from the printed case seed.

use dmp_core::metrics::{buffer_occupancy, late_fraction_arrival_order, late_fraction_playback};
use dmp_core::scheme::{
    DynamicQueue, PathView, ReorderBuffer, Scheme, StreamPacket, PULL_DEADLINE_S,
};
use dmp_core::spec::{PathSpec, PullStrategy, SchedulerKind, VideoSpec};
use dmp_core::stats::summarize;
use dmp_core::trace::StreamTrace;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use tcp_model::chain::TcpChain;
use tcp_model::pftk;

const CASES: u64 = 64;

/// One RNG per case, derived from the property name and case index, so any
/// failure is reproducible in isolation.
fn case_rng(property: &str, case: u64) -> SmallRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in property.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SmallRng::seed_from_u64(h ^ case)
}

fn usize_in(rng: &mut SmallRng, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() as usize) % (hi - lo)
}

fn pkt(seq: u64) -> StreamPacket {
    StreamPacket {
        seq,
        gen_ns: seq * 1_000_000,
    }
}

/// The reorder buffer releases exactly the inserted set, in order,
/// regardless of arrival permutation, and counts every duplicate.
#[test]
fn reorder_buffer_is_a_sorting_network() {
    for case in 0..CASES {
        let mut rng = case_rng("reorder_buffer", case);
        let len = usize_in(&mut rng, 1, 200);
        let mut order: Vec<u64> = (0..len).map(|_| rng.next_u64() % 64).collect();
        let unique: std::collections::BTreeSet<u64> = order.iter().copied().collect();
        let dups = order.len() - unique.len();
        order.sort_by_key(|&s| s.wrapping_mul(0x9e3779b97f4a7c15)); // deterministic shuffle
        let mut rb = ReorderBuffer::new();
        let mut released = Vec::new();
        for s in &order {
            rb.insert(pkt(*s));
            while let Some(p) = rb.pop_ready() {
                released.push(p.seq);
            }
        }
        // Released = the maximal contiguous prefix of `unique` starting at 0.
        let mut expect = Vec::new();
        for (i, &s) in unique.iter().enumerate() {
            if s == i as u64 {
                expect.push(s)
            } else {
                break;
            }
        }
        assert_eq!(released, expect, "case {case}");
        assert_eq!(rb.duplicates(), dups as u64, "case {case}");
    }
}

/// The static split over `k` = 1…4 paths conserves packets and gives every
/// path its even share within one packet.
#[test]
fn splitter_conserves_and_balances() {
    for case in 0..CASES {
        let mut rng = case_rng("splitter", case);
        let k = 1 + (case % 4) as usize;
        let n = 1 + rng.next_u64() % 1999;
        let mut s = Scheme::new(SchedulerKind::Static, PullStrategy::RoundRobin, k, n);
        let mut to_path = vec![0usize; k];
        (0..n).for_each(|i| to_path[s.on_generated(pkt(i), &()).1] += 1);
        let ideal = n as f64 / k as f64;
        assert!(
            to_path.iter().all(|&c| (c as f64 - ideal).abs() <= 1.0),
            "case {case}: {to_path:?}"
        );
        // Pulling everything returns each packet exactly once.
        let got: Vec<usize> = (0..k)
            .map(|p| std::iter::from_fn(|| s.take(p, 0)).count())
            .collect();
        assert_eq!(got, to_path, "case {case}");
    }
}

/// The dynamic queue is strictly FIFO under arbitrary interleavings of
/// pushes and pulls.
#[test]
fn dynamic_queue_fifo() {
    for case in 0..CASES {
        let mut rng = case_rng("dynamic_queue", case);
        let ops = usize_in(&mut rng, 1, 300);
        let mut q = DynamicQueue::new();
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for _ in 0..ops {
            let amount = usize_in(&mut rng, 0, 8);
            if rng.gen_bool(0.5) {
                q.push(pkt(next_push));
                next_push += 1;
            } else {
                for p in (0..amount).map_while(|_| q.pull_one()) {
                    assert_eq!(p.seq, next_pop, "case {case}");
                    next_pop += 1;
                }
            }
        }
        assert_eq!(q.total_generated(), next_push, "case {case}");
        assert_eq!(next_push - next_pop, q.len() as u64, "case {case}");
    }
}

/// A transport whose paths have whatever space and quality the test last
/// rolled for them.
struct FakePaths {
    space: Vec<usize>,
    quality: Vec<(u64, i64)>,
}

impl PathView for FakePaths {
    fn space(&self, path: usize) -> usize {
        self.space[path]
    }
    fn quality(&self, path: usize) -> (u64, i64) {
        self.quality[path]
    }
}

/// One scheme under a random transport, with the bookkeeping the
/// conformance property checks against.
struct Harness {
    scheme: Scheme,
    strategy: PullStrategy,
    paths: FakePaths,
    now_ns: u64,
    /// Per queue (one shared, or one per path): sequence numbers generated
    /// into it and neither handed out nor dropped yet.
    pending: Vec<std::collections::BTreeSet<u64>>,
    /// Per sequence number: when it was generated, where it was assigned,
    /// and the paths it went to.
    gen_ns: Vec<u64>,
    assigned: Vec<std::ops::Range<usize>>,
    handed: Vec<Vec<usize>>,
    dropped: u64,
}

impl Harness {
    /// The server's one loop, checking every decision on the way.
    fn serve(&mut self, waker: usize, case: &str) {
        const DEADLINE_NS: u64 = (PULL_DEADLINE_S * 1e9) as u64;
        while let Some(path) = self.scheme.next_holder(waker, &self.paths) {
            let taken = self.scheme.take(path, self.now_ns);
            // Whatever sat in the holder's queue ahead of what it got (all
            // of it, if it got nothing) was dropped: allowed only to the
            // deadline-aware strategy, only for packets past the deadline.
            // (Queue 0 is the shared one; otherwise queue `path` is the path's.)
            let queues = self.pending.len();
            let queue = &mut self.pending[path % queues];
            let kept = taken.map_or_else(Default::default, |pkt| queue.split_off(&pkt.seq));
            for stale in std::mem::replace(queue, kept) {
                assert_eq!(self.strategy, PullStrategy::DeadlineAware, "{case}");
                assert!(
                    self.now_ns - self.gen_ns[stale as usize] > DEADLINE_NS,
                    "{case}"
                );
                self.dropped += 1;
            }
            let Some(taken) = taken else { continue };
            assert_eq!(queue.pop_first(), Some(taken.seq), "{case}: not the head");
            if self.strategy == PullStrategy::DeadlineAware {
                assert!(self.now_ns - taken.gen_ns <= DEADLINE_NS, "{case}");
            }
            let mut next = Some(path);
            while let Some(to) = next {
                assert!(self.paths.space[to] > 0, "{case}: path {to} has no space");
                self.paths.space[to] -= 1;
                let seq = taken.seq as usize;
                assert!(!self.handed[seq].contains(&to), "{case}: twice to {to}");
                let own = &self.assigned[seq];
                assert!(
                    own.is_empty() || own.contains(&to),
                    "{case}: served by {to}"
                );
                self.handed[seq].push(to);
                next = self.scheme.next_copy(waker, to, &self.paths);
            }
        }
    }
}

/// The scheme's contract, for every scheduler × strategy, under a transport
/// whose per-path space is random at every step: every sequence number is
/// handed out exactly once (redundant: at least once, never twice to one
/// path, and the client's first-arrival rule leaves one); nothing goes to a
/// path without space; only `DeadlineAware` drops, only packets older than
/// the deadline, and its count is what went missing; a static assignment is
/// never served by another path.
#[test]
fn scheme_conformance() {
    // Each scheduler with the most paths a case may draw.
    let schedulers = [
        (SchedulerKind::Dynamic, 4),
        (SchedulerKind::Static, 4),
        (SchedulerKind::SinglePath, 1),
    ];
    // The property must not hold vacuously: the runs drop and duplicate.
    let (mut drops, mut duplicates) = (0, 0);
    for (scheduler, max_k) in schedulers {
        for strategy in PullStrategy::all() {
            for case in 0..CASES / 4 {
                let name = format!("{scheduler:?} × {strategy:?}, case {case}");
                let mut rng = case_rng(&format!("{scheduler:?}{strategy:?}"), case);
                let k = usize_in(&mut rng, 1, max_k + 1);
                let shared = scheduler != SchedulerKind::Static;
                let mut h = Harness {
                    scheme: Scheme::new(scheduler, strategy, k, 0),
                    strategy,
                    paths: FakePaths {
                        space: vec![0; k],
                        quality: vec![(u64::MAX, 0); k],
                    },
                    now_ns: 0,
                    pending: vec![Default::default(); if shared { 1 } else { k }],
                    gen_ns: Vec::new(),
                    assigned: Vec::new(),
                    handed: Vec::new(),
                    dropped: 0,
                };
                let steps = usize_in(&mut rng, 20, 200);
                for step in 0..=steps {
                    // The last step drains: room for everything, every waker.
                    let drain = step == steps;
                    for p in 0..k {
                        h.paths.space[p] = match rng.next_u64() % 8 {
                            _ if drain => 1 << 20,
                            roll @ 0..=1 => roll as usize + 1,
                            _ => 0,
                        };
                        h.paths.quality[p] = (rng.next_u64() % 4, rng.gen_range(-3i64..3));
                    }
                    h.now_ns += rng.next_u64() % 4_000_000_000;
                    let waker = if !drain && rng.gen_bool(0.5) {
                        let seq = h.handed.len() as u64;
                        let made = StreamPacket {
                            seq,
                            gen_ns: h.now_ns,
                        };
                        let (assigned, waker) = h.scheme.on_generated(made, &h.paths);
                        assert_eq!(assigned.is_empty(), shared, "{name}");
                        let queues = if shared { 0..1 } else { assigned.clone() };
                        queues.for_each(|q| assert!(h.pending[q].insert(seq)));
                        h.gen_ns.push(h.now_ns);
                        h.assigned.push(assigned);
                        h.handed.push(Vec::new());
                        waker
                    } else {
                        usize_in(&mut rng, 0, k)
                    };
                    h.serve(waker, &name);
                    if drain {
                        (0..k).for_each(|w| h.serve(w, &name));
                    }
                }
                assert!(
                    h.pending.iter().all(|q| q.is_empty()),
                    "{name}: left queued"
                );
                assert_eq!(h.scheme.dropped_late(), h.dropped, "{name}");
                let missing = h.handed.iter().filter(|to| to.is_empty()).count() as u64;
                let redundant = strategy == PullStrategy::RedundantDuplicate;
                if redundant {
                    assert_eq!(missing, 0, "{name}");
                } else {
                    assert_eq!(missing, h.dropped, "{name}");
                    assert!(h.handed.iter().all(|to| to.len() <= 1), "{name}");
                }
                // Client side: the first arrival of each sequence number is
                // new, every later copy a counted duplicate.
                let mut client = ReorderBuffer::new();
                let copies = h
                    .handed
                    .iter()
                    .enumerate()
                    .flat_map(|(seq, to)| to.iter().map(move |_| seq));
                let fresh = copies.filter(|&seq| client.insert(pkt(seq as u64))).count() as u64;
                assert_eq!(fresh, h.handed.len() as u64 - missing, "{name}");
                let total: u64 = h.handed.iter().map(|to| to.len() as u64).sum();
                assert_eq!(client.duplicates(), total - fresh, "{name}");
                assert!(redundant || client.duplicates() == 0, "{name}");
                drops += h.dropped;
                duplicates += client.duplicates();
            }
        }
    }
    assert!(
        drops > 100 && duplicates > 100,
        "{drops} drops, {duplicates} duplicates"
    );
}

/// Late fractions are in [0,1] and monotone non-increasing in τ for any
/// delivery pattern.
#[test]
fn lateness_bounds_and_monotonicity() {
    for case in 0..CASES {
        let mut rng = case_rng("lateness", case);
        let n = usize_in(&mut rng, 5, 150);
        let delays: Vec<Option<u64>> = (0..n)
            .map(|_| rng.gen_bool(0.8).then(|| rng.next_u64() % 5_000))
            .collect();
        let mu = 20.0;
        let mut trace = StreamTrace::new(VideoSpec::new(mu), u64::MAX);
        for (i, d) in delays.iter().enumerate() {
            let gen = i as u64 * 50_000_000;
            trace.on_generated(i as u64, gen);
            if let Some(ms) = d {
                trace.on_arrival(i as u64, gen + ms * 1_000_000, 0);
            }
        }
        let mut prev = f64::INFINITY;
        for tau in [0.1, 0.5, 1.0, 2.0, 5.0] {
            let f = late_fraction_playback(trace.records(), tau);
            assert!((0.0..=1.0).contains(&f), "case {case}");
            assert!(f <= prev + 1e-12, "case {case}");
            prev = f;
            let fa = late_fraction_arrival_order(trace.records(), mu, tau);
            assert!((0.0..=1.0).contains(&fa), "case {case}");
        }
    }
}

/// Live-streaming invariant (paper §2.1): the client buffer never holds
/// more than µτ packets, for any delivery pattern.
#[test]
fn buffer_occupancy_respects_mu_tau() {
    for case in 0..CASES {
        let mut rng = case_rng("occupancy", case);
        let n = usize_in(&mut rng, 5, 150);
        let tau = (1 + rng.next_u64() % 79) as f64 / 10.0;
        let mu = 20.0;
        let mut trace = StreamTrace::new(VideoSpec::new(mu), u64::MAX);
        for i in 0..n {
            let gen = i as u64 * 50_000_000;
            let d = rng.next_u64() % 10_000;
            trace.on_generated(i as u64, gen);
            trace.on_arrival(i as u64, gen + d * 1_000_000, 0);
        }
        let occ = buffer_occupancy(trace.records(), tau);
        let cap = (mu * tau).ceil() as u64 + 1;
        assert!(
            occ.peak_pkts <= cap,
            "case {case}: peak {} > µτ {}",
            occ.peak_pkts,
            cap
        );
        assert!(occ.mean_pkts <= occ.peak_pkts as f64 + 1e-9, "case {case}");
    }
}

/// PFTK throughput is monotone decreasing in loss, RTT, and timeout.
#[test]
fn pftk_is_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng("pftk", case);
        let p = rng.gen_range(0.001f64..0.2);
        let r = rng.gen_range(0.02f64..0.5);
        let to = rng.gen_range(1.0f64..4.0);
        let base = pftk::throughput_pps(&PathSpec {
            loss: p,
            rtt_s: r,
            to_ratio: to,
        });
        assert!(base > 0.0, "case {case}");
        let worse_p = pftk::throughput_pps(&PathSpec {
            loss: (p * 1.5).min(0.9),
            rtt_s: r,
            to_ratio: to,
        });
        let worse_r = pftk::throughput_pps(&PathSpec {
            loss: p,
            rtt_s: r * 1.5,
            to_ratio: to,
        });
        let worse_to = pftk::throughput_pps(&PathSpec {
            loss: p,
            rtt_s: r,
            to_ratio: to + 1.0,
        });
        assert!(worse_p < base, "case {case}");
        assert!(worse_r < base, "case {case}");
        assert!(worse_to <= base + 1e-12, "case {case}");
    }
}

/// The TCP chain's state stays within bounds and its outcome distributions
/// are proper for arbitrary loss rates.
#[test]
fn chain_state_invariants() {
    for case in 0..32 {
        let mut rng = case_rng("chain", case);
        let p = rng.gen_range(0.001f64..0.5);
        let steps = usize_in(&mut rng, 100, 2000);
        let mut step_rng = SmallRng::seed_from_u64(rng.next_u64());
        let wmax = 16;
        let mut chain = TcpChain::new(PathSpec::from_ms(p, 120.0, 2.5), wmax);
        for _ in 0..steps {
            let st = chain.state();
            assert!(st.w >= 1 && st.w <= wmax, "case {case}");
            assert!(st.ssthresh >= 2 && st.ssthresh <= wmax, "case {case}");
            assert!(st.stage < TcpChain::STAGES, "case {case}");
            let total: f64 = chain.outcomes(st).iter().map(|&(_, pr, _)| pr).sum();
            assert!((total - 1.0).abs() < 1e-9, "case {case}");
            let t = chain.step(&mut step_rng);
            assert!(t.delivered <= st.w.max(1), "case {case}");
            assert!(chain.rate() > 0.0, "case {case}");
        }
    }
}

/// Welford statistics agree with naive formulas.
#[test]
fn stats_match_naive() {
    for case in 0..CASES {
        let mut rng = case_rng("stats", case);
        let n = usize_in(&mut rng, 2, 100);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6f64..1e6)).collect();
        let s = summarize(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(
            (s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "case {case}"
        );
        assert!(
            (s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()),
            "case {case}"
        );
    }
}
