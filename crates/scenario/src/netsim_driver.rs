//! The netsim backend: compile a [`Scenario`] into a [`ScenarioDriver`] app
//! that replays the script inside the discrete-event simulator.
//!
//! Every scripted action is scheduled through [`netsim::SimApi::schedule_in`],
//! i.e. as an ordinary `AppTimer` engine event. That keeps the replay on the
//! engine's own clock and tie-break order: the event queue's `(time, seq)`
//! contract orders scripted actions exactly like the traffic around them.

use netsim::app::App;
use netsim::link::LinkSpec;
use netsim::sim::SimApi;
use netsim::time::{secs, SimTime};
use netsim::{FlowId, LinkId};

use crate::timeline::{Event, Scenario};

/// How one scenario path maps onto simulator objects.
#[derive(Debug, Clone, Default)]
pub struct PathBinding {
    /// Links that carry the path's traffic (typically the bottleneck link and
    /// its reverse direction). Down/rate/delay/loss events apply to all of
    /// them; rate events scale each link's own base rate.
    pub links: Vec<LinkId>,
    /// Pre-provisioned idle flows reserved for [`Event::FlashCrowd`] events
    /// on this path, in the order crowds appear in the script. Must hold at
    /// least [`Scenario::flash_flows_for`] entries.
    pub flash_flows: Vec<FlowId>,
}

/// One compiled, timestamped action.
#[derive(Debug, Clone, Copy)]
enum ActionKind {
    Down,
    Up,
    /// Set every bound link's rate to `factor ×` its captured base rate.
    Rate(f64),
    /// Set every bound link's delay to `factor ×` its captured base delay.
    Delay(f64),
    /// Set absolute random loss on every bound link.
    Loss(f64),
    /// Restore every bound link's base random loss.
    LossClear,
    /// Un-idle `n` pre-provisioned flash flows starting at index `first`.
    FlashStart {
        first: usize,
        n: usize,
    },
    /// Drain and stop the same flows.
    FlashStop {
        first: usize,
        n: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Action {
    at: SimTime,
    path: usize,
    kind: ActionKind,
}

/// A [`netsim`] app that replays a [`Scenario`] against bound links/flows.
///
/// Attach it with `Sim::add_app` after building the topology:
///
/// ```ignore
/// sim.add_app(Box::new(ScenarioDriver::new(scenario, bindings, secs(warmup_s))));
/// ```
#[derive(Debug)]
pub struct ScenarioDriver {
    bindings: Vec<PathBinding>,
    actions: Vec<Action>,
    /// Base [`LinkSpec`] per binding link, captured at `start()` — factors in
    /// the script are always relative to these, never cumulative.
    base: Vec<Vec<LinkSpec>>,
    offset: SimTime,
}

impl ScenarioDriver {
    /// Compile `scenario` against `bindings`. `offset` shifts every event
    /// time (which is relative to video start) onto the simulation clock —
    /// pass the warm-up duration.
    ///
    /// Panics if the script fails [`Scenario::validate`] for the bound path
    /// count or a path has fewer pre-provisioned flash flows than the script
    /// needs.
    pub fn new(scenario: &Scenario, bindings: Vec<PathBinding>, offset: SimTime) -> Self {
        scenario
            .validate(bindings.len())
            .expect("scenario does not fit the bound topology");
        for (p, b) in bindings.iter().enumerate() {
            assert!(
                b.flash_flows.len() >= scenario.flash_flows_for(p),
                "path {p}: {} flash flows bound, script needs {}",
                b.flash_flows.len(),
                scenario.flash_flows_for(p)
            );
        }

        let mut actions = Vec::new();
        // Current scripted rate factor per path, so ramps interpolate from
        // wherever the script last left the rate.
        let mut rate_factor = vec![1.0_f64; bindings.len()];
        // Next free pre-provisioned flash flow per path.
        let mut flash_cursor = vec![0_usize; bindings.len()];

        for e in &scenario.events {
            let at = secs(e.at_s);
            let path = e.path;
            match e.event {
                Event::PathDown => actions.push(Action {
                    at,
                    path,
                    kind: ActionKind::Down,
                }),
                Event::PathUp => actions.push(Action {
                    at,
                    path,
                    kind: ActionKind::Up,
                }),
                Event::RateStep { factor } => {
                    rate_factor[path] = factor;
                    actions.push(Action {
                        at,
                        path,
                        kind: ActionKind::Rate(factor),
                    });
                }
                Event::RateRamp {
                    factor,
                    over_s,
                    steps,
                } => {
                    let from = rate_factor[path];
                    for i in 1..=steps {
                        let frac = f64::from(i) / f64::from(steps);
                        actions.push(Action {
                            at: at + secs(over_s * frac),
                            path,
                            kind: ActionKind::Rate(from + (factor - from) * frac),
                        });
                    }
                    rate_factor[path] = factor;
                }
                Event::DelayStep { factor } => {
                    actions.push(Action {
                        at,
                        path,
                        kind: ActionKind::Delay(factor),
                    });
                }
                Event::LossEpisode { loss, duration_s } => {
                    actions.push(Action {
                        at,
                        path,
                        kind: ActionKind::Loss(loss),
                    });
                    actions.push(Action {
                        at: at + secs(duration_s),
                        path,
                        kind: ActionKind::LossClear,
                    });
                }
                Event::FlashCrowd {
                    n_flows,
                    duration_s,
                } => {
                    let first = flash_cursor[path];
                    let n = n_flows as usize;
                    flash_cursor[path] += n;
                    actions.push(Action {
                        at,
                        path,
                        kind: ActionKind::FlashStart { first, n },
                    });
                    actions.push(Action {
                        at: at + secs(duration_s),
                        path,
                        kind: ActionKind::FlashStop { first, n },
                    });
                }
            }
        }

        Self {
            bindings,
            actions,
            base: Vec::new(),
            offset,
        }
    }

    /// Number of compiled actions (ramps and episodes expand to several).
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    fn apply(&self, api: &mut SimApi<'_>, idx: usize) {
        let Action { path, kind, .. } = self.actions[idx];
        let b = &self.bindings[path];
        if api.trace_enabled() {
            // Announce the scripted cause before its effects (e.g. the queue
            // flush a PathDown triggers) hit the trace.
            let action = match kind {
                ActionKind::Down => obs::PathAction::Down,
                ActionKind::Up => obs::PathAction::Up,
                ActionKind::Rate(_) => obs::PathAction::Rate,
                ActionKind::Delay(_) => obs::PathAction::Delay,
                ActionKind::Loss(_) => obs::PathAction::Loss,
                ActionKind::LossClear => obs::PathAction::LossClear,
                ActionKind::FlashStart { .. } => obs::PathAction::FlashStart,
                ActionKind::FlashStop { .. } => obs::PathAction::FlashStop,
            };
            api.trace_emit(obs::EventKind::PathEvent {
                path: path as u32,
                action,
            });
        }
        match kind {
            ActionKind::Down => {
                for &l in &b.links {
                    api.set_link_down(l);
                }
            }
            ActionKind::Up => {
                for &l in &b.links {
                    api.set_link_up(l);
                }
            }
            ActionKind::Rate(factor) => {
                for (i, &l) in b.links.iter().enumerate() {
                    api.set_link_rate(l, self.base[path][i].bandwidth_bps * factor);
                }
            }
            ActionKind::Delay(factor) => {
                for (i, &l) in b.links.iter().enumerate() {
                    let base = self.base[path][i].delay;
                    api.set_link_delay(l, (base as f64 * factor).round() as SimTime);
                }
            }
            ActionKind::Loss(p) => {
                for &l in &b.links {
                    api.set_link_loss(l, p);
                }
            }
            ActionKind::LossClear => {
                for (i, &l) in b.links.iter().enumerate() {
                    api.set_link_loss(l, self.base[path][i].random_loss);
                }
            }
            ActionKind::FlashStart { first, n } => {
                for &flow in &b.flash_flows[first..first + n] {
                    api.set_backlogged(flow, None);
                }
            }
            ActionKind::FlashStop { first, n } => {
                for &flow in &b.flash_flows[first..first + n] {
                    // remaining = Some(0): stop generating, drain in-flight.
                    api.set_backlogged(flow, Some(0));
                }
            }
        }
    }
}

impl App for ScenarioDriver {
    fn start(&mut self, api: &mut SimApi<'_>) {
        self.base = self
            .bindings
            .iter()
            .map(|b| b.links.iter().map(|&l| api.link_spec(l)).collect())
            .collect();
        for (idx, a) in self.actions.iter().enumerate() {
            api.schedule_in(self.offset + a.at, idx as u64);
        }
    }

    fn on_timer(&mut self, api: &mut SimApi<'_>, tag: u64) {
        self.apply(api, tag as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::LinkSpec;
    use netsim::sim::Sim;
    use netsim::tcp::{SinkConfig, TcpConfig};
    use netsim::time::{millis, SECOND};

    /// Two nodes joined by a duplex bottleneck. Returns
    /// (sim, video_flow, flash_flows, fwd, rev).
    fn build(n_flash: usize) -> (Sim, FlowId, Vec<FlowId>, LinkId, LinkId) {
        let mut sim = Sim::new(7);
        let src = sim.add_node("src");
        let dst = sim.add_node("dst");
        let (fwd, rev) = sim.add_duplex(src, dst, LinkSpec::from_table(2.0, 5.0, 50));
        sim.add_route(src, dst, fwd);
        sim.add_route(dst, src, rev);
        let video = sim.add_flow(src, dst, TcpConfig::default(), SinkConfig::default());
        let flash: Vec<FlowId> = (0..n_flash)
            .map(|_| sim.add_flow(src, dst, TcpConfig::default(), SinkConfig::default()))
            .collect();
        (sim, video, flash, fwd, rev)
    }

    struct Backlog(FlowId);
    impl App for Backlog {
        fn start(&mut self, api: &mut SimApi<'_>) {
            api.set_backlogged(self.0, None);
        }
    }

    fn delivered(sim: &Sim, flow: FlowId) -> u64 {
        sim.sink(flow).stats.delivered
    }

    #[test]
    fn ramp_expands_from_current_factor() {
        let s = Scenario::named("r")
            .at(0.0, 0, Event::RateStep { factor: 0.5 })
            .at(
                10.0,
                0,
                Event::RateRamp {
                    factor: 1.0,
                    over_s: 4.0,
                    steps: 4,
                },
            );
        let d = ScenarioDriver::new(
            &s,
            vec![PathBinding {
                links: vec![],
                flash_flows: vec![],
            }],
            0,
        );
        // 1 step + 4 ramp sub-steps.
        assert_eq!(d.action_count(), 5);
        let factors: Vec<f64> = d
            .actions
            .iter()
            .filter_map(|a| match a.kind {
                ActionKind::Rate(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(factors, vec![0.5, 0.625, 0.75, 0.875, 1.0]);
    }

    #[test]
    fn scripted_down_and_recovery_shapes_throughput() {
        let (mut sim, video, _, fwd, rev) = build(0);
        sim.add_app(Box::new(Backlog(video)));
        let s = Scenario::named("failover")
            .at(10.0, 0, Event::PathDown)
            .at(16.0, 0, Event::PathUp);
        sim.add_app(Box::new(ScenarioDriver::new(
            &s,
            vec![PathBinding {
                links: vec![fwd, rev],
                flash_flows: vec![],
            }],
            0,
        )));
        sim.run_until(10 * SECOND);
        let before = delivered(&sim, video);
        sim.run_until(15 * SECOND);
        let mid = delivered(&sim, video);
        sim.run_until(40 * SECOND);
        let after = delivered(&sim, video);
        assert!(before > 500, "no traffic before outage: {before}");
        assert!(mid - before < 20, "outage not enforced: {before}..{mid}");
        assert!(
            after - mid > 500,
            "no recovery after PathUp: {mid}..{after}"
        );
    }

    #[test]
    fn flash_crowd_steals_bandwidth_then_returns_it() {
        let (mut sim, video, flash, fwd, rev) = build(4);
        sim.add_app(Box::new(Backlog(video)));
        let s = Scenario::named("crowd").at(
            20.0,
            0,
            Event::FlashCrowd {
                n_flows: 4,
                duration_s: 20.0,
            },
        );
        sim.add_app(Box::new(ScenarioDriver::new(
            &s,
            vec![PathBinding {
                links: vec![fwd, rev],
                flash_flows: flash,
            }],
            0,
        )));
        sim.run_until(20 * SECOND);
        let t20 = delivered(&sim, video);
        sim.run_until(40 * SECOND);
        let t40 = delivered(&sim, video);
        sim.run_until(60 * SECOND);
        let t60 = delivered(&sim, video);
        let alone = t20; // pkts/20s with the path to itself
        let crowded = t40 - t20;
        let recovered = t60 - t40;
        assert!(
            (crowded as f64) < 0.55 * alone as f64,
            "crowd did not bite: alone={alone} crowded={crowded}"
        );
        assert!(
            (recovered as f64) > 0.8 * alone as f64,
            "bandwidth not returned: alone={alone} recovered={recovered}"
        );
    }

    #[test]
    fn loss_episode_applies_and_clears() {
        let (mut sim, video, _, fwd, _) = build(0);
        sim.add_app(Box::new(Backlog(video)));
        let s = Scenario::named("lossy").at(
            5.0,
            0,
            Event::LossEpisode {
                loss: 0.05,
                duration_s: 10.0,
            },
        );
        sim.add_app(Box::new(ScenarioDriver::new(
            &s,
            // Loss on the forward (data) direction only.
            vec![PathBinding {
                links: vec![fwd],
                flash_flows: vec![],
            }],
            0,
        )));
        sim.run_until(30 * SECOND);
        let drops = sim.counters().random_loss_drops;
        assert!(drops > 10, "loss episode injected nothing: {drops}");
        assert_eq!(sim.link(fwd).stats.random_dropped, drops);
        // After the episode the spec is restored to lossless.
        assert_eq!(sim.link(fwd).spec.random_loss, 0.0);
    }

    #[test]
    fn offset_shifts_the_whole_script() {
        let (mut sim, video, _, fwd, rev) = build(0);
        sim.add_app(Box::new(Backlog(video)));
        let s = Scenario::named("late").at(0.0, 0, Event::PathDown);
        sim.add_app(Box::new(ScenarioDriver::new(
            &s,
            vec![PathBinding {
                links: vec![fwd, rev],
                flash_flows: vec![],
            }],
            12 * SECOND,
        )));
        sim.run_until(12 * SECOND - millis(1.0));
        let before = delivered(&sim, video);
        assert!(
            before > 1000,
            "traffic should flow until the offset: {before}"
        );
        sim.run_until(30 * SECOND);
        let after = delivered(&sim, video);
        assert!(
            after - before < 20,
            "down should fire at offset: {before}..{after}"
        );
    }
}
