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
/// no-op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// Scenario name (no whitespace; part of the stable hash).
    pub name: String,
    /// The timeline, in script order. Events need not be sorted; the
    /// driver orders them by `(at_s, script position)`.
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

    /// Append an event (builder style). [`Scenario::validate`] checks it.
    pub fn at(mut self, at_s: f64, path: usize, event: Event) -> Self {
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
            if !(e.at_s >= 0.0 && e.at_s.is_finite()) {
                return fail(format!("time {} must be finite and ≥ 0", e.at_s));
            }
            if let Event::FlashCrowd {
                n_flows,
                duration_s,
            } = e.event
            {
                if n_flows == 0 || !(duration_s > 0.0 && duration_s.is_finite()) {
                    return fail(format!(
                        "flash crowd needs n_flows > 0 and a finite duration > 0, \
                         got {n_flows}/{duration_s}"
                    ));
                }
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
            .at(
                90.0,
                1,
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
                    90.0 1 flash 8 45.0\n";
        assert_eq!(sample().canonical(), text);
        // Awkward floats print the bits they hold.
        let s = Scenario::named("f").at(
            0.1 + 0.2,
            3,
            Event::FlashCrowd {
                n_flows: 1,
                duration_s: 1.0 / 3.0,
            },
        );
        let text = "scenario f\n0.30000000000000004 3 flash 1 0.3333333333333333\n";
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
        // A time that is not a point on the run's clock is refused.
        for at_s in [f64::NAN, -1.0, f64::INFINITY] {
            let bad = Scenario::named("x").at(at_s, 0, Event::PathDown);
            assert!(bad.validate(2).is_err(), "at_s = {at_s}");
        }
        assert!(Scenario::named("x")
            .at(1e12, 0, Event::PathDown)
            .validate(2)
            .is_ok());
        let bad = Scenario::named("x").at(
            1.0,
            0,
            Event::FlashCrowd {
                n_flows: 0,
                duration_s: 5.0,
            },
        );
        assert!(bad.validate(2).is_err());
        for duration_s in [0.0, f64::NAN, f64::INFINITY] {
            let bad = Scenario::named("x").at(
                1.0,
                0,
                Event::FlashCrowd {
                    n_flows: 1,
                    duration_s,
                },
            );
            assert!(bad.validate(2).is_err(), "duration_s = {duration_s}");
        }
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
