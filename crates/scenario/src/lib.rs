//! `scenario` — a deterministic fault-injection and path-dynamics engine.
//!
//! The paper's central claim — that DMP-streaming needs no bandwidth probing
//! because TCP backpressure *implicitly* reallocates the stream — only shows
//! its teeth when path conditions change. This crate scripts the two changes
//! the experiments study, a path failing (and coming back) and a flash crowd
//! of competing flows, as a serializable **timeline DSL** ([`Scenario`]) and
//! replays them on the packet simulator: a
//! [`netsim_driver::ScenarioDriver`] app schedules every scripted action as
//! an ordinary engine event (an app timer) and applies it through the
//! simulator's link down/up calls and flow controls, so the replay follows the
//! event queue's `(time, seq)` order like every other event. The
//! real-socket plane (`dmp-live`) runs unscripted, as the paper's §6
//! Internet paths did, and does not link this crate.
//!
//! Scenario event times are **seconds relative to the start of the video**
//! (the driver offsets them past any warm-up itself).
//!
//! # Example
//!
//! ```
//! use scenario::{Event, Scenario};
//!
//! let s = Scenario::named("failover")
//!     .at(60.0, 0, Event::PathDown)
//!     .at(120.0, 0, Event::PathUp);
//! assert_eq!(s.canonical(), "scenario failover\n60.0 0 down\n120.0 0 up\n");
//! assert_ne!(s.stable_hash(), Scenario::default().stable_hash());
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod netsim_driver;
pub mod timeline;

pub use fleet::{FleetTimeline, RateSpike};
pub use netsim_driver::{PathBinding, ScenarioDriver};
pub use timeline::{Event, Scenario, TimedEvent};
