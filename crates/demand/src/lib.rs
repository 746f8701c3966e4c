//! Geo-aware user population and time-varying demand synthesis.
//!
//! The paper's roadmap (§5) asks for "modelling a potential user base
//! along with potential user traffic patterns" before any federation
//! economics can be evaluated. This crate supplies that workload layer:
//!
//! - [`grid::PopulationGrid`] — a lat/lon grid of cells whose user
//!   counts are synthesized deterministically from a seed (latitude
//!   density bands, a coherent pseudo-land mask, Zipf-sized city
//!   hotspots). No external data sets are consulted, so two builds of
//!   the same config are bitwise-identical on any machine.
//! - [`diurnal::DiurnalProfile`] — 24-hour activity curves evaluated in
//!   *local solar time* per cell, so the load peak sweeps westward over
//!   a simulated day exactly as real demand does.
//! - [`mix::AppMix`] — an application mix (streaming / web / voice /
//!   IoT) mapping each class onto an arrival process and per-user rate
//!   and packet-size parameters.
//! - [`model::DemandModel`] — aggregates millions of users into
//!   per-cell offered load and emits deterministic per-cell, per-class
//!   flow descriptions: [`model::DemandModel::flows_at`] for one
//!   instant and [`model::DemandModel::demand_timeline`] for a whole
//!   horizon, built through `parallel_map_seeded` so the parallel
//!   build is bitwise-identical to the serial one.
//!
//! The crate depends only on `openspace-sim` (rng, exec, config) and
//! `openspace-telemetry`; mapping cells onto constellation nodes lives
//! upstream in `openspace-core::demand` so this layer stays reusable by
//! anything that needs a synthetic user base.

#![deny(missing_docs)]

pub mod diurnal;
pub mod grid;
pub mod mix;
pub mod model;

/// Convenience re-exports of the main demand-layer types.
pub mod prelude {
    pub use crate::diurnal::DiurnalProfile;
    pub use crate::grid::{PopulationConfig, PopulationGrid};
    pub use crate::mix::{AppClass, AppMix, ClassSpec};
    pub use crate::model::{DemandConfig, DemandFlow, DemandModel, DemandTick};
}
