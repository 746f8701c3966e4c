//! Routing over topology snapshots.
//!
//! Three layers, matching §2.2's progression, over one search kernel:
//!
//! * [`dijkstra`] — [`shortest_path_to_any`] with pluggable weights:
//!   the cheapest path from one source to the nearest of several
//!   destinations (§2.2's "satellite that will relay that signal to the
//!   ground station"), the proactive precomputed routing a "beginner
//!   system" uses. [`shortest_path`] is its one-destination case.
//! * [`qos`] — congestion-aware weights and bandwidth floors: the
//!   end-to-end reactive routing the paper says a scaled system needs.
//!   A QoS route is a [`shortest_path`] under
//!   [`QosRequirement::weight`], filtered by its latency bound.
//! * [`planner`] — the batched per-source [`RoutePlanner`]: one
//!   settled-predecessor tree per distinct source, one recycled buffer
//!   set per worker, weight rows shared across a generation's trees
//!   for replan-heavy workloads, and caller-built [`GoalBounds`] that
//!   prune a tree toward its one destination without changing a path
//!   or a cost bit. Its tree
//!   search is the only shortest-path search in the crate:
//!   [`shortest_path_to_any`] is a single-source batch on a fresh
//!   planner, one tree for all its destinations.
//!
//! [`shortest_path`], [`qos_route`] and the planner report their
//! `routing.*` work counters through a `&mut dyn Recorder`; pass
//! `&mut NullRecorder` for none.

pub mod dijkstra;
pub mod planner;
pub mod qos;

pub use dijkstra::{hop_weight, latency_weight, shortest_path, shortest_path_to_any, Path};
pub use planner::{GoalBounds, RoutePlanner};
pub use qos::{congestion_weight, qos_route, residual_bps, QosRequirement};
