//! `scenario` — a deterministic fault-injection and path-dynamics engine.
//!
//! The paper's central claim — that DMP-streaming needs no bandwidth probing
//! because TCP backpressure *implicitly* reallocates the stream — only shows
//! its teeth when path conditions change: cross-traffic surges, degradation,
//! outright failure. This crate scripts those changes as a serializable,
//! seeded **timeline DSL** ([`Scenario`]) and compiles the same script onto
//! both experiment backends:
//!
//! * **netsim** ([`netsim_driver`]): a [`netsim_driver::ScenarioDriver`] app
//!   schedules every scripted action as an ordinary engine event (an app
//!   timer) and applies it through the simulator's link-mutation API, so the
//!   replay is byte-identical on the calendar queue and on netsim's
//!   reference heap (the driver's own tests run both);
//! * **dmp-live** ([`live`]): the timeline compiles to a piecewise-constant
//!   rate/delay/down schedule per path ([`live::PathSchedule`]) that replaces
//!   the path emulator's random rate resampler.
//!
//! Scenario event times are **seconds relative to the start of the video**
//! (both backends offset them past any warm-up themselves).
//!
//! # Example
//!
//! ```
//! use scenario::{Event, Scenario};
//!
//! let s = Scenario::named("failover")
//!     .at(60.0, 0, Event::PathDown)
//!     .at(120.0, 1, Event::RateStep { factor: 0.5 });
//! let text = s.canonical();
//! assert_eq!(Scenario::parse(&text).unwrap(), s);
//! assert_ne!(s.stable_hash(), Scenario::default().stable_hash());
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod live;
pub mod netsim_driver;
pub mod timeline;

pub use fleet::{FleetTimeline, RateSpike};
pub use live::{compile_live, LiveStep, PathSchedule};
pub use netsim_driver::{PathBinding, ScenarioDriver};
pub use timeline::{Event, Scenario, TimedEvent};
