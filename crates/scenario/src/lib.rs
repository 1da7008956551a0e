//! Drift-and-churn scenario engine for GRAFICS fleets.
//!
//! The paper's §III-A motivation — *"APs could be replaced, added, or
//! removed at any time"* — is a statement about deployments evolving
//! **over months**, not about any single inference. This crate turns
//! that sentence into a measurable workload:
//!
//! - [`Scenario`] — a typed timeline: a [`FleetPreset`]-generated world
//!   plus a sequence of [`Epoch`]s, each applying [`Event`]s (AP churn,
//!   transmit-power drift, device-population mixes, cross-building
//!   signal bleed) before a fresh absorb stream and a held-out probe
//!   set. Scenarios are plain `serde` values with JSON load/save, so a
//!   reproduction is a shareable artifact, and every draw comes from a
//!   seeded ChaCha stream — the same seed replays bit-identically.
//! - [`ScenarioWorld`] — the mutable deployment state a scenario
//!   evolves: per-building layouts drifted in place via
//!   `BuildingModel::drift_layout`, plus the population and bleed state
//!   the generators consult.
//! - [`replay`] / [`replay_http`] — drive a trained
//!   [`GraficsFleet`](grafics_core::GraficsFleet) through the timeline
//!   (in-process, or through a real `grafics-serve` HTTP server for
//!   end-to-end parity) and emit a [`ScenarioReport`]: accuracy,
//!   floor-margin quantiles, resident records and
//!   refresh/publish counts per epoch.
//! - [`RefreshMode`] — what closes the loop: replay the same timeline
//!   under a fixed refresh cadence or under
//!   [`RefreshTrigger::MarginDrop`](grafics_types::RefreshTrigger) and
//!   compare the accuracy-over-time curves refresh for refresh.
//!
//! # Example
//!
//! ```
//! use grafics_scenario::{replay, ReplayConfig, Scenario};
//!
//! let mut scenario = Scenario::preset("stable").unwrap();
//! scenario.epochs.truncate(2); // keep the doctest fast
//! for e in &mut scenario.epochs {
//!     e.absorb_per_building = 5;
//!     e.probe_per_building = 10;
//! }
//! scenario.buildings = 2;
//! scenario.records_per_floor = 30;
//! let report = replay(&scenario, &ReplayConfig::default()).unwrap();
//! assert_eq!(report.epochs.len(), 2);
//! assert!(report.epochs[0].accuracy > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod replay;
mod world;

pub use model::{Epoch, Event, Scenario, Schedule};
pub use replay::{
    prune_removed_macs, replay, replay_http, EpochReport, PruneOutcome, RefreshMode, ReplayConfig,
    ScenarioReport,
};
pub use world::{EpochChanges, ScenarioWorld};

// Re-exported so scenario callers name the preset without a direct
// `grafics-data` dependency.
pub use grafics_data::FleetPreset;

use rand::Rng;

/// Box–Muller standard normal (the workspace avoids `rand_distr`; this
/// mirrors the data crate's internal helper).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}
