//! The timeline DSL: scripted network events, a canonical serialized text
//! form, and a stable hash of it that artifacts carry as the script's
//! identity.

use dmp_base::hash::StableHasher;
use std::fmt;

/// One scripted network event, applied to a path at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Administratively fail the path: its bottleneck queue is flushed and
    /// every subsequent packet is blackholed until [`Event::PathUp`].
    PathDown,
    /// Restore a failed path.
    PathUp,
    /// Set the path's bottleneck rate to `factor ×` its configured base rate
    /// (a step; `factor` is absolute w.r.t. the base, not cumulative).
    RateStep {
        /// Multiplier on the base bottleneck rate (must be > 0).
        factor: f64,
    },
    /// Ramp the rate factor linearly from its current scripted value to
    /// `factor`, in `steps` equal sub-steps over `over_s` seconds.
    RateRamp {
        /// Target multiplier on the base bottleneck rate (must be > 0).
        factor: f64,
        /// Ramp duration, seconds.
        over_s: f64,
        /// Number of discrete sub-steps the ramp is quantised into.
        steps: u32,
    },
    /// Set the path's one-way propagation delay to `factor ×` its base value.
    DelayStep {
        /// Multiplier on the base propagation delay (must be ≥ 0).
        factor: f64,
    },
    /// Add Bernoulli random loss `loss` on the path for `duration_s` seconds,
    /// after which the base loss rate is restored.
    LossEpisode {
        /// Loss probability during the episode, in `[0, 1)`.
        loss: f64,
        /// Episode length, seconds.
        duration_s: f64,
    },
    /// A flash crowd: `n_flows` extra backlogged TCP flows join the path's
    /// bottleneck for `duration_s` seconds, then stop.
    FlashCrowd {
        /// Number of competing flows that join.
        n_flows: u32,
        /// How long they stay, seconds.
        duration_s: f64,
    },
}

/// An [`Event`] bound to a path and a time (seconds after video start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// When the event fires, seconds after the video starts.
    pub at_s: f64,
    /// Which path it applies to (0-based).
    pub path: usize,
    /// What happens.
    pub event: Event,
}

/// A named, serializable timeline of network events.
///
/// The default scenario is empty (no name, no events) and compiles to a
/// no-op on both backends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// Scenario name (no whitespace; part of the stable hash).
    pub name: String,
    /// The timeline, in script order. Events need not be sorted; both
    /// backends order them by `(at_s, script position)`.
    pub events: Vec<TimedEvent>,
}

impl Scenario {
    /// An empty scenario with a name.
    pub fn named(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.chars().any(char::is_whitespace),
            "scenario name must be non-empty and whitespace-free: {name:?}"
        );
        Self {
            name,
            events: Vec::new(),
        }
    }

    /// Append an event (builder style).
    pub fn at(mut self, at_s: f64, path: usize, event: Event) -> Self {
        assert!(at_s >= 0.0 && at_s.is_finite(), "event time {at_s} invalid");
        self.events.push(TimedEvent { at_s, path, event });
        self
    }

    /// True when the timeline is empty (the scenario is a no-op).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the script against a topology with `n_paths` paths; returns a
    /// description of the first invalid entry.
    pub fn validate(&self, n_paths: usize) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            let fail = |msg: String| Err(format!("event {i} (at {}s): {msg}", e.at_s));
            if e.path >= n_paths {
                return fail(format!("path {} out of range (< {n_paths})", e.path));
            }
            match e.event {
                Event::RateStep { factor } | Event::RateRamp { factor, .. } if factor <= 0.0 => {
                    return fail(format!("rate factor {factor} must be > 0"));
                }
                Event::RateRamp { over_s, steps, .. } if over_s <= 0.0 || steps == 0 => {
                    return fail(format!(
                        "ramp needs over_s > 0 and steps > 0, got {over_s}/{steps}"
                    ));
                }
                Event::DelayStep { factor } if factor < 0.0 => {
                    return fail(format!("delay factor {factor} must be ≥ 0"));
                }
                Event::LossEpisode { loss, duration_s } => {
                    if !(0.0..1.0).contains(&loss) {
                        return fail(format!("loss {loss} must be in [0,1)"));
                    }
                    if duration_s <= 0.0 {
                        return fail(format!("loss episode duration {duration_s} must be > 0"));
                    }
                }
                Event::FlashCrowd {
                    n_flows,
                    duration_s,
                } if n_flows == 0 || duration_s <= 0.0 => {
                    return fail(format!(
                        "flash crowd needs n_flows > 0 and duration > 0, got {n_flows}/{duration_s}"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Total flash-crowd flows the script ever starts on `path`. Each
    /// [`Event::FlashCrowd`] gets its own disjoint set of pre-provisioned
    /// flows, so overlapping crowds compose; this is how many the topology
    /// must provision.
    pub fn flash_flows_for(&self, path: usize) -> usize {
        self.events
            .iter()
            .filter(|e| e.path == path)
            .map(|e| match e.event {
                Event::FlashCrowd { n_flows, .. } => n_flows as usize,
                _ => 0,
            })
            .sum()
    }

    /// Canonical text form: one header line, then one line per event in
    /// script order. `f64` fields use Rust's `{:?}`, which prints the
    /// shortest text that reads back to the same bits, so two scenarios
    /// share a canonical form only if they are equal.
    pub fn canonical(&self) -> String {
        let mut out = format!(
            "scenario {}\n",
            if self.name.is_empty() {
                "-"
            } else {
                &self.name
            }
        );
        for e in &self.events {
            out.push_str(&format!("{:?} {} {}\n", e.at_s, e.path, e.event));
        }
        out
    }

    /// Stable 64-bit hash of the canonical form (FNV-1a): the
    /// `scenario_hash` leaf of the `ext_failover` / `ext_flashcrowd`
    /// artifacts. Cache keys do not use it: they come from the experiment
    /// spec's `Debug`, which prints the scenario itself.
    pub fn stable_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write(self.canonical().as_bytes());
        h.finish_u64()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::PathDown => write!(f, "down"),
            Event::PathUp => write!(f, "up"),
            Event::RateStep { factor } => write!(f, "rate {factor:?}"),
            Event::RateRamp {
                factor,
                over_s,
                steps,
            } => {
                write!(f, "ramp {factor:?} {over_s:?} {steps}")
            }
            Event::DelayStep { factor } => write!(f, "delay {factor:?}"),
            Event::LossEpisode { loss, duration_s } => write!(f, "loss {loss:?} {duration_s:?}"),
            Event::FlashCrowd {
                n_flows,
                duration_s,
            } => {
                write!(f, "flash {n_flows} {duration_s:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario::named("kitchen-sink")
            .at(10.0, 0, Event::PathDown)
            .at(25.5, 0, Event::PathUp)
            .at(30.0, 1, Event::RateStep { factor: 0.5 })
            .at(
                40.0,
                1,
                Event::RateRamp {
                    factor: 1.0,
                    over_s: 12.0,
                    steps: 6,
                },
            )
            .at(55.0, 0, Event::DelayStep { factor: 3.0 })
            .at(
                60.0,
                1,
                Event::LossEpisode {
                    loss: 0.03,
                    duration_s: 20.0,
                },
            )
            .at(
                90.0,
                0,
                Event::FlashCrowd {
                    n_flows: 8,
                    duration_s: 45.0,
                },
            )
    }

    #[test]
    fn canonical_form_is_pinned() {
        let text = "scenario kitchen-sink\n\
                    10.0 0 down\n\
                    25.5 0 up\n\
                    30.0 1 rate 0.5\n\
                    40.0 1 ramp 1.0 12.0 6\n\
                    55.0 0 delay 3.0\n\
                    60.0 1 loss 0.03 20.0\n\
                    90.0 0 flash 8 45.0\n";
        assert_eq!(sample().canonical(), text);
        // Awkward floats print the bits they hold.
        let s = Scenario::named("f").at(0.1 + 0.2, 3, Event::RateStep { factor: 1.0 / 3.0 });
        let text = "scenario f\n0.30000000000000004 3 rate 0.3333333333333333\n";
        assert_eq!(s.canonical(), text);
        // And the empty/default scenario.
        assert_eq!(Scenario::default().canonical(), "scenario -\n");
    }

    #[test]
    fn hash_is_stable_and_discriminating() {
        assert_eq!(sample().stable_hash(), sample().stable_hash());
        let mut other = sample();
        other.events[0].at_s = 10.000001;
        assert_ne!(sample().stable_hash(), other.stable_hash());
        assert_ne!(
            Scenario::named("a").stable_hash(),
            Scenario::named("b").stable_hash()
        );
        // Golden: the `scenario_hash` committed in artifacts/ext_failover.json.
        let failover = Scenario::named("failover").at(105.0, 0, Event::PathDown);
        assert_eq!(failover.stable_hash(), 0xc9d4_7b91_b40b_5b95);
    }

    #[test]
    fn validate_catches_bad_scripts() {
        assert!(sample().validate(2).is_ok());
        assert!(sample().validate(1).is_err(), "path 1 out of range");
        let bad = Scenario::named("x").at(1.0, 0, Event::RateStep { factor: 0.0 });
        assert!(bad.validate(2).is_err());
        let bad = Scenario::named("x").at(
            1.0,
            0,
            Event::LossEpisode {
                loss: 1.0,
                duration_s: 5.0,
            },
        );
        assert!(bad.validate(2).is_err());
        let bad = Scenario::named("x").at(
            1.0,
            0,
            Event::FlashCrowd {
                n_flows: 0,
                duration_s: 5.0,
            },
        );
        assert!(bad.validate(2).is_err());
    }

    #[test]
    fn flash_flow_provisioning_sums_per_path() {
        let s = Scenario::named("x")
            .at(
                5.0,
                0,
                Event::FlashCrowd {
                    n_flows: 3,
                    duration_s: 10.0,
                },
            )
            .at(
                8.0,
                0,
                Event::FlashCrowd {
                    n_flows: 2,
                    duration_s: 10.0,
                },
            )
            .at(
                5.0,
                1,
                Event::FlashCrowd {
                    n_flows: 7,
                    duration_s: 10.0,
                },
            );
        assert_eq!(s.flash_flows_for(0), 5);
        assert_eq!(s.flash_flows_for(1), 7);
        assert_eq!(s.flash_flows_for(2), 0);
    }
}
