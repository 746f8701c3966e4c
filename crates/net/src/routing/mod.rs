//! Routing over topology snapshots.
//!
//! Three layers, matching §2.2's progression, over one search kernel:
//!
//! * [`dijkstra`] — [`shortest_path`] with pluggable weights: the
//!   proactive precomputed routing a "beginner system" uses.
//! * [`qos`] — congestion-aware weights and bandwidth floors: the
//!   end-to-end reactive routing the paper says a scaled system needs.
//!   A QoS route is a [`shortest_path`] under
//!   [`QosRequirement::weight`], filtered by its latency bound.
//! * [`planner`] — the batched per-source [`RoutePlanner`]: one
//!   settled-predecessor tree per distinct source, one recycled buffer
//!   set per worker, and weight rows shared across a generation's trees
//!   for replan-heavy workloads. Its tree
//!   search is the only shortest-path search in the crate:
//!   [`shortest_path`] is a single-request batch on a fresh planner.
//!
//! [`shortest_path`], [`qos_route`] and the planner report their
//! `routing.*` work counters through a `&mut dyn Recorder`; pass
//! `&mut NullRecorder` for none.

pub mod dijkstra;
pub mod planner;
pub mod qos;

pub use dijkstra::{hop_weight, latency_weight, shortest_path, Path};
pub use planner::RoutePlanner;
pub use qos::{congestion_weight, qos_route, residual_bps, QosRequirement};
