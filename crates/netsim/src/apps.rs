//! Built-in traffic generators: backlogged FTP and on/off HTTP sessions.
//!
//! These are the paper's background flows (Table 1 configures 5–19 FTP plus
//! 20–40 HTTP flows per bottleneck). The HTTP model follows the classic
//! web-traffic shape used with ns-2: a session repeatedly downloads a
//! Pareto-sized page over its connection (fresh slow start each time), then
//! thinks for an exponentially distributed time.

use rand::Rng;

use crate::app::App;
use crate::packet::FlowId;
use crate::sim::SimApi;
use crate::time::{secs, SimTime};

/// A backlogged file transfer: once started, always has data to send.
#[derive(Debug)]
pub struct Ftp {
    flow: FlowId,
    start_at: SimTime,
}

impl Ftp {
    /// An FTP on `flow` that starts sending at `start_at`.
    pub fn new(flow: FlowId, start_at: SimTime) -> Self {
        Self { flow, start_at }
    }
}

impl App for Ftp {
    fn start(&mut self, api: &mut SimApi<'_>) {
        api.own_flow(self.flow);
        api.schedule_in(self.start_at, 0);
    }

    fn on_timer(&mut self, api: &mut SimApi<'_>, _tag: u64) {
        api.set_backlogged(self.flow, None);
    }
}

/// Parameters of an HTTP session. The simulations' values are part of each
/// bottleneck's configuration (`dmp_sim::configs::WEB_SESSIONS`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpParams {
    /// Mean page size, in segments. Pages are Pareto-distributed.
    pub mean_page_pkts: f64,
    /// Pareto shape parameter (α > 1; classic web models use 1.2–1.5).
    pub pareto_shape: f64,
    /// Page size cap, segments (keeps the heavy tail from degenerating into
    /// a second FTP).
    pub max_page_pkts: u64,
    /// Mean think time between downloads, seconds (exponential).
    pub mean_think_s: f64,
}

/// An on/off web session over one persistent flow: download a page (with the
/// congestion state reset, as a new connection would be), then idle.
#[derive(Debug)]
pub struct HttpSession {
    flow: FlowId,
    params: HttpParams,
    start_at: SimTime,
}

impl HttpSession {
    /// A session on `flow` beginning its first download at `start_at`.
    pub fn new(flow: FlowId, params: HttpParams, start_at: SimTime) -> Self {
        Self {
            flow,
            params,
            start_at,
        }
    }

    fn sample_page(&self, rng: &mut impl Rng) -> u64 {
        // Pareto with mean m and shape α has scale x_m = m(α-1)/α.
        let alpha = self.params.pareto_shape;
        let xm = self.params.mean_page_pkts * (alpha - 1.0) / alpha;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let size = xm / u.powf(1.0 / alpha);
        (size.ceil() as u64).clamp(1, self.params.max_page_pkts)
    }

    fn sample_think(&self, rng: &mut impl Rng) -> SimTime {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        secs(-self.params.mean_think_s * u.ln())
    }
}

impl App for HttpSession {
    fn start(&mut self, api: &mut SimApi<'_>) {
        api.own_flow(self.flow);
        api.schedule_in(self.start_at, 0);
    }

    fn on_timer(&mut self, api: &mut SimApi<'_>, _tag: u64) {
        let pkts = self.sample_page(api.rng());
        api.restart_connection(self.flow);
        api.set_backlogged(self.flow, Some(pkts));
    }

    fn on_transfer_complete(&mut self, api: &mut SimApi<'_>, _flow: FlowId) {
        let think = self.sample_think(api.rng());
        api.schedule_in(think, 0);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Sim;
    use crate::tcp::{SinkConfig, TcpConfig};
    use crate::time::SECOND;

    /// The Table 1 configurations' sessions.
    pub(crate) const WEB: HttpParams = HttpParams {
        mean_page_pkts: 8.0,
        pareto_shape: 1.3,
        max_page_pkts: 200,
        mean_think_s: 4.0,
    };

    fn duplex_pair(sim: &mut Sim, bw: f64, delay: f64, q: usize) -> (u32, u32) {
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (f, r) = sim.add_duplex(a, b, LinkSpec::from_table(bw, delay, q));
        sim.add_route(a, b, f);
        sim.add_route(b, a, r);
        (a, b)
    }

    #[test]
    fn ftp_waits_for_start_time() {
        let mut sim = Sim::new(3);
        let (a, b) = duplex_pair(&mut sim, 10.0, 5.0, 100);
        let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        sim.add_app(Box::new(Ftp::new(flow, 5 * SECOND)));
        sim.run_until(4 * SECOND);
        assert_eq!(sim.sink(flow).stats.delivered, 0);
        sim.run_until(10 * SECOND);
        assert!(sim.sink(flow).stats.delivered > 1000);
    }

    #[test]
    fn http_session_alternates_transfer_and_think() {
        let mut sim = Sim::new(4);
        let (a, b) = duplex_pair(&mut sim, 10.0, 5.0, 100);
        let flow = sim.add_flow(a, b, TcpConfig::default(), SinkConfig::default());
        let params = HttpParams {
            mean_page_pkts: 10.0,
            mean_think_s: 0.2,
            ..WEB
        };
        sim.add_app(Box::new(HttpSession::new(flow, params, 0)));
        sim.run_until(60 * SECOND);
        let delivered = sim.sink(flow).stats.delivered;
        // Rough sanity: tens of pages in a minute, far below FTP volume.
        assert!(delivered > 300, "delivered {delivered}");
        assert!(
            delivered < 40_000,
            "should be think-time limited: {delivered}"
        );
    }

    #[test]
    fn pareto_pages_have_requested_mean() {
        let sess = HttpSession::new(0, WEB, 0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| sess.sample_page(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        // Ceil + cap bias the mean a little; accept ±20%.
        assert!((mean - WEB.mean_page_pkts).abs() < 4.0, "mean page {mean}");
        use rand::SeedableRng;
    }

    #[test]
    fn think_times_are_exponential_with_mean() {
        use rand::SeedableRng;
        let params = HttpParams {
            mean_think_s: 2.0,
            ..WEB
        };
        let sess = HttpSession::new(0, params, 0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| sess.sample_think(&mut rng)).sum();
        let mean_s = crate::time::to_secs(sum) / n as f64;
        assert!((mean_s - 2.0).abs() < 0.05, "mean think {mean_s}");
    }
}
