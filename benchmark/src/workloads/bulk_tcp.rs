//! `bulk_tcp`: the sparse-event counterpart of `video_2path`. One backlogged
//! flow per congestion-control algorithm on a bare `netsim::Sim`, on a clean
//! and on a lossy link: a handful of pending events, so the scheduler's
//! constant factors and the per-ACK `CcAlgo` work dominate.

use cc::CcKind;
use netsim::app::App;
use netsim::link::LinkSpec;
use netsim::sim::{Sim, SimApi};
use netsim::tcp::{SinkConfig, TcpConfig};
use netsim::time::secs;
use netsim::FlowId;

use super::{derive_seed, Checks, Digest, LayerValues, NetsimTally, Outcome, Traced, Workload};
use crate::span::Tracer;

/// Simulated seconds per flow.
const DURATION_S: f64 = 250.0;
const LINK_MBPS: f64 = 10.0;
const LINK_DELAY_MS: f64 = 10.0;
const LINK_QUEUE_PKTS: usize = 100;
/// Bernoulli loss of the lossy link (both directions).
const RANDOM_LOSS: f64 = 0.01;

/// The names one algorithm's flows are booked under.
struct CcNames {
    cc: CcKind,
    /// Span around `Sim::run_until`: one per algorithm, so the trace
    /// attributes the time.
    run_span: &'static str,
    /// Count of packet transits.
    transits: &'static str,
    /// Metric: the span's time over the transits.
    ns_per_transit: &'static str,
}

const CC_NAMES: [CcNames; 3] = [
    CcNames {
        cc: CcKind::Reno,
        run_span: "netsim.run_until.reno",
        transits: "cc.reno.transits",
        ns_per_transit: "cc.reno.ns_per_transit",
    },
    CcNames {
        cc: CcKind::Cubic,
        run_span: "netsim.run_until.cubic",
        transits: "cc.cubic.transits",
        ns_per_transit: "cc.cubic.ns_per_transit",
    },
    CcNames {
        cc: CcKind::BbrLite,
        run_span: "netsim.run_until.bbr",
        transits: "cc.bbr.transits",
        ns_per_transit: "cc.bbr.ns_per_transit",
    },
];

fn names(cc: CcKind) -> &'static CcNames {
    CC_NAMES
        .iter()
        .find(|n| n.cc == cc)
        .expect("every CcKind has its names")
}

struct FtpStarter(FlowId);

impl App for FtpStarter {
    fn start(&mut self, api: &mut SimApi<'_>) {
        api.set_backlogged(self.0, None);
    }
}

struct Flow {
    cc: CcKind,
    loss: f64,
    seed: u64,
}

struct BulkTcp {
    flows: Vec<Flow>,
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let flows = CcKind::all()
        .into_iter()
        .flat_map(|cc| [0.0, RANDOM_LOSS].map(|loss| (cc, loss)))
        .zip(0..)
        .map(|((cc, loss), i)| Flow {
            cc,
            loss,
            seed: derive_seed(seed, i),
        })
        .collect();
    Box::new(BulkTcp { flows })
}

impl Workload for BulkTcp {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let mut tally = NetsimTally::start();
        let mut counts = LayerValues::new();
        for f in &self.flows {
            let (mut sim, flow) = t.span("netsim.build", || {
                let mut sim = Sim::new(f.seed);
                let a = sim.add_node("a");
                let b = sim.add_node("b");
                let spec = LinkSpec::from_table(LINK_MBPS, LINK_DELAY_MS, LINK_QUEUE_PKTS)
                    .with_random_loss(f.loss);
                let (fwd, rev) = sim.add_duplex(a, b, spec);
                sim.add_route(a, b, fwd);
                sim.add_route(b, a, rev);
                let cfg = TcpConfig {
                    cc: f.cc,
                    ..TcpConfig::default()
                };
                let flow = sim.add_flow(a, b, cfg, SinkConfig::default());
                sim.add_app(Box::new(FtpStarter(flow)));
                (sim, flow)
            });
            t.span(names(f.cc).run_span, || sim.run_until(secs(DURATION_S)));

            let delivered = sim.sink(flow).stats.delivered;
            let sender = sim.sender(flow).stats;
            let label = || format!("{} loss {}", f.cc.name(), f.loss);
            checks.check(delivered > 0, || format!("{}: nothing delivered", label()));
            if f.loss > 0.0 {
                checks.check(sender.retransmits > 0, || {
                    format!("{}: lossy link, no retransmit", label())
                });
            } else if f.cc == CcKind::Reno {
                let payload_bits = f64::from(TcpConfig::default().payload_bytes) * 8.0;
                let goodput = delivered as f64 * payload_bits / DURATION_S;
                checks.check(goodput >= 0.9 * LINK_MBPS * 1e6, || {
                    format!("{}: goodput {goodput:.0} b/s on a clean link", label())
                });
            }
            digest
                .u64(delivered)
                .u64(sender.retransmits)
                .u64(sender.timeouts)
                .u64(sim.flow_counters(flow).data_dropped)
                .u64(sim.events_processed());
            *counts.entry(names(f.cc).transits).or_insert(0.0) += sim.transits() as f64;
            tally.add(&sim.metrics_snapshot());
            t.span("netsim.drop", || drop(sim));
        }
        let sim_s = DURATION_S * self.flows.len() as f64;
        counts.extend(tally.finish(sim_s));
        counts.insert("netsim.flows", self.flows.len() as f64);
        Outcome {
            digest: digest.finish(),
            work: sim_s,
            checks,
            counts,
            seconds: LayerValues::new(),
        }
    }

    fn layer_metrics(&mut self, traced: &Traced<'_>, out: &mut LayerValues) {
        let mut run_until = 0.0;
        for n in &CC_NAMES {
            let s = traced.seconds(n.run_span);
            run_until += s;
            out.insert(n.ns_per_transit, s * 1e9 / traced.count(n.transits));
        }
        out.insert("netsim.run_until.self_s", run_until);
        out.insert(
            "netsim.ns_per_event",
            run_until * 1e9 / traced.count("netsim.events"),
        );
        out.insert(
            "netsim.build_us_per_flow",
            traced.seconds("netsim.build") * 1e6 / traced.count("netsim.flows"),
        );
    }
}
