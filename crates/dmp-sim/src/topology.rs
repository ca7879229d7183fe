//! Topology builders for the paper's validation setups: independent paths
//! (Fig. 3) and correlated paths sharing one bottleneck (Fig. 6).
//!
//! Each path's bottleneck `(r_k1, r_k2)` is crossed by the video stream plus
//! FTP and HTTP background flows; all other links are fast (100 Mbps) and
//! deep-buffered, so losses happen only at the bottleneck — as in the paper.
//!
//! For independent paths the video server is multihomed and, mirroring the
//! paper's Internet methodology ("we emulate multipath streaming by streaming
//! from a server to two clients and combining the traces"), the client side
//! is one *logical* client with one node per path.

use netsim::link::LinkSpec;
use netsim::tcp::{SinkConfig, TcpConfig};
use netsim::{FlowId, NodeId, Sim};

use crate::configs::BottleneckConfig;

/// Handles to one built path.
#[derive(Debug, Clone, Copy)]
pub struct PathHandles {
    /// The video stream's TCP flow on this path.
    pub video_flow: FlowId,
    /// Forward bottleneck link (for queue statistics).
    pub bottleneck: netsim::LinkId,
    /// Reverse bottleneck link (so scenario faults can cut both directions).
    pub bottleneck_rev: netsim::LinkId,
    /// Background flows crossing this bottleneck.
    pub first_bg_flow: FlowId,
    /// Number of background flows.
    pub bg_flows: usize,
    /// First pre-provisioned flash-crowd flow (idle until a scenario starts
    /// it); meaningless when `flash_flows == 0`.
    pub first_flash_flow: FlowId,
    /// Number of pre-provisioned flash-crowd flows.
    pub flash_flows: usize,
}

/// A built validation topology.
#[derive(Debug)]
pub struct Topology {
    /// The video server node.
    pub server: NodeId,
    /// Client node(s): one per path for independent paths, a single node for
    /// correlated paths.
    pub clients: Vec<NodeId>,
    /// Per-path handles.
    pub paths: Vec<PathHandles>,
}

/// Fast access/edge link used everywhere except the bottleneck.
fn access(delay_ms: f64) -> LinkSpec {
    LinkSpec::from_table(100.0, delay_ms, 4_000)
}

/// TCP configuration for the video stream: payload sized so packets are the
/// video packet size on the wire, finite send buffer (the DMP mechanism).
pub fn video_tcp(packet_bytes: u32, send_buf_pkts: usize) -> TcpConfig {
    TcpConfig {
        payload_bytes: packet_bytes - netsim::packet::HEADER_BYTES,
        send_buf_pkts,
        ..TcpConfig::default()
    }
}

/// Build one path's infrastructure (routers, bottleneck, background hosts &
/// flows) between `server` and a fresh client node. Returns the handles.
#[allow(clippy::too_many_arguments)]
fn build_path(
    sim: &mut Sim,
    server: NodeId,
    client: NodeId,
    cfg: &BottleneckConfig,
    video_flows: usize,
    video_tcp_cfg: TcpConfig,
    red: bool,
    flash_flows: usize,
) -> Vec<PathHandles> {
    let r1 = sim.add_node(format!("r{}1", cfg.id));
    let r2 = sim.add_node(format!("r{}2", cfg.id));

    let (srv_r1, r1_srv) = sim.add_duplex(server, r1, access(10.0));
    let mut bottleneck_spec =
        LinkSpec::from_table(cfg.bandwidth_mbps, cfg.delay_ms, cfg.buffer_pkts);
    if red {
        bottleneck_spec =
            bottleneck_spec.with_red(netsim::red::RedParams::for_buffer(cfg.buffer_pkts));
    }
    let (r1_r2, r2_r1) = sim.add_duplex(r1, r2, bottleneck_spec);
    let (r2_cl, cl_r2) = sim.add_duplex(r2, client, access(10.0));

    // Background hosts come in several tiers with different access delays:
    // RTT diversity desynchronises the background flows (with identical
    // RTTs, ack-clocked flows lock a drop-tail queue at full occupancy and
    // starve any paced newcomer — a well-known drop-tail artefact).
    const BG_TIER_DELAY_MS: [f64; 5] = [2.0, 5.0, 10.0, 20.0, 35.0];
    let mut bg_pairs = Vec::new();
    for (t, &d) in BG_TIER_DELAY_MS.iter().enumerate() {
        let bg_src = sim.add_node(format!("bgsrc{}t{t}", cfg.id));
        let bg_dst = sim.add_node(format!("bgdst{}t{t}", cfg.id));
        let (bgs_r1, r1_bgs) = sim.add_duplex(bg_src, r1, access(d));
        let (r2_bgd, bgd_r2) = sim.add_duplex(r2, bg_dst, access(d));
        sim.add_route(r1, bg_dst, r1_r2);
        sim.add_route(r1, bg_src, r1_bgs);
        sim.add_route(r2, bg_dst, r2_bgd);
        sim.add_route(r2, bg_src, r2_r1);
        sim.set_default_route(bg_src, bgs_r1);
        sim.set_default_route(bg_dst, bgd_r2);
        bg_pairs.push((bg_src, bg_dst));
    }

    // Routes. Stub hosts use defaults; routers route by destination.
    sim.add_route(server, client, srv_r1);
    sim.add_route(r1, client, r1_r2);
    sim.add_route(r1, server, r1_srv);
    sim.add_route(r2, client, r2_cl);
    sim.add_route(r2, server, r2_r1);
    sim.set_default_route(client, cl_r2);

    // Video flow(s) over this path.
    let mut handles = Vec::new();
    let bg_total = cfg.ftp_flows + cfg.http_flows;
    for _ in 0..video_flows {
        let video_flow = sim.add_flow(server, client, video_tcp_cfg, SinkConfig::default());
        handles.push(PathHandles {
            video_flow,
            bottleneck: r1_r2,
            bottleneck_rev: r2_r1,
            first_bg_flow: 0, // patched below
            bg_flows: bg_total,
            first_flash_flow: 0, // patched below
            flash_flows,
        });
    }

    // Background flows (FTP first, then HTTP) spread round-robin over the
    // delay tiers. The window cap is calibrated per configuration (ns-2's
    // default was 20).
    let bg_tcp = TcpConfig {
        max_wnd: cfg.bg_wnd,
        ..TcpConfig::default()
    };
    let mut first_bg = None;
    for i in 0..bg_total {
        let (bg_src, bg_dst) = bg_pairs[i % bg_pairs.len()];
        let f = sim.add_flow(bg_src, bg_dst, bg_tcp, SinkConfig::default());
        first_bg.get_or_insert(f);
    }
    let first_bg = first_bg.unwrap_or(0);
    // Flash-crowd flows: same hosts and TCP config as the background FTPs,
    // but idle until a scenario back-logs them mid-run.
    let mut first_flash = None;
    for i in 0..flash_flows {
        let (bg_src, bg_dst) = bg_pairs[i % bg_pairs.len()];
        let f = sim.add_flow(bg_src, bg_dst, bg_tcp, SinkConfig::default());
        first_flash.get_or_insert(f);
    }
    let first_flash = first_flash.unwrap_or(0);
    for h in &mut handles {
        h.first_bg_flow = first_bg;
        h.first_flash_flow = first_flash;
    }
    handles
}

/// Build the independent-paths topology of Fig. 3: one bottleneck per path,
/// a shared multihomed server, one client node per path. `red` puts RED
/// queues on the bottlenecks (the ablation of the paper's drop-tail loss
/// process); `flash_per_path[k]` idle TCP flows are pre-provisioned across
/// path `k`'s bottleneck (missing entries mean zero), for a scenario to
/// start mid-run.
pub fn build_independent(
    sim: &mut Sim,
    cfgs: &[&BottleneckConfig],
    video_tcp_cfg: TcpConfig,
    red: bool,
    flash_per_path: &[usize],
) -> Topology {
    let server = sim.add_node("video-server");
    let mut clients = Vec::new();
    let mut paths = Vec::new();
    for cfg in cfgs {
        let k = paths.len();
        let client = sim.add_node(format!("client{}", k + 1));
        let flash = flash_per_path.get(k).copied().unwrap_or(0);
        let hs = build_path(sim, server, client, cfg, 1, video_tcp_cfg, red, flash);
        paths.extend(hs);
        clients.push(client);
    }
    Topology {
        server,
        clients,
        paths,
    }
}

/// Build the correlated-paths topology of Fig. 6: `k_flows` video TCP flows
/// from the server to a single client over **one** bottleneck, plus
/// `flash_flows` pre-provisioned idle flash-crowd flows across it (every
/// path handle reports the same set, since correlated paths share their
/// infrastructure).
pub fn build_correlated(
    sim: &mut Sim,
    cfg: &BottleneckConfig,
    k_flows: usize,
    video_tcp_cfg: TcpConfig,
    flash_flows: usize,
) -> Topology {
    let server = sim.add_node("video-server");
    let client = sim.add_node("client");
    let paths = build_path(
        sim,
        server,
        client,
        cfg,
        k_flows,
        video_tcp_cfg,
        false,
        flash_flows,
    );
    Topology {
        server,
        clients: vec![client],
        paths,
    }
}

/// Attach the background applications (FTP + HTTP with staggered starts) for
/// every path of a topology. `cfgs[k]` must be the configuration used to
/// build path `k` (for correlated topologies pass one entry).
pub fn attach_background(sim: &mut Sim, topo: &Topology, cfgs: &[&BottleneckConfig], seed: u64) {
    use netsim::apps::{Ftp, HttpSession};
    use rand::Rng;
    use rand::SeedableRng;
    // Stagger times are derived from the run seed: every replication gets a
    // fresh background phase, so per-path parameters average out across a
    // batch (homogeneous paths must look homogeneous in the mean).
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xb06_0ff5e7);
    // Deduplicate: correlated topologies share one bottleneck (one bg set).
    let mut seen = std::collections::HashSet::new();
    for (k, path) in topo.paths.iter().enumerate() {
        if !seen.insert(path.first_bg_flow) {
            continue;
        }
        let cfg = cfgs[k.min(cfgs.len() - 1)];
        let mut flow = path.first_bg_flow;
        for _ in 0..cfg.ftp_flows {
            let start = netsim::secs(rng.gen_range(0.0..5.0));
            sim.add_app(Box::new(Ftp::new(flow, start)));
            flow += 1;
        }
        for _ in 0..cfg.http_flows {
            let start = netsim::secs(rng.gen_range(0.0..10.0));
            sim.add_app(Box::new(HttpSession::new(flow, cfg.http, start)));
            flow += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::config;
    use netsim::SECOND;

    #[test]
    fn independent_topology_has_one_client_per_path() {
        let mut sim = Sim::new(1);
        let topo = build_independent(
            &mut sim,
            &[config(1), config(2)],
            video_tcp(1500, 32),
            false,
            &[],
        );
        assert_eq!(topo.clients.len(), 2);
        assert_eq!(topo.paths.len(), 2);
        assert_ne!(topo.paths[0].video_flow, topo.paths[1].video_flow);
    }

    #[test]
    fn correlated_topology_shares_one_client_and_bottleneck() {
        let mut sim = Sim::new(1);
        let topo = build_correlated(&mut sim, config(2), 2, video_tcp(1500, 32), 0);
        assert_eq!(topo.clients.len(), 1);
        assert_eq!(topo.paths.len(), 2);
        assert_eq!(topo.paths[0].bottleneck, topo.paths[1].bottleneck);
        assert_eq!(topo.paths[0].first_bg_flow, topo.paths[1].first_bg_flow);
    }

    #[test]
    fn background_saturates_the_bottleneck() {
        let mut sim = Sim::new(5);
        let topo = build_independent(&mut sim, &[config(2)], video_tcp(1500, 32), false, &[]);
        attach_background(&mut sim, &topo, &[config(2)], 5);
        sim.run_until(60 * SECOND);
        let link = sim.link(topo.paths[0].bottleneck);
        let util = link.utilization(60 * SECOND);
        assert!(util > 0.75, "bottleneck utilisation {util}");
        assert!(link.stats.dropped > 0, "expected congestion losses");
    }
}
