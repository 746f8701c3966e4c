//! # openspace-net
//!
//! The network layer of the OpenSpace stack: time-varying topology,
//! inter-satellite link feasibility, routing, and handover prediction.
//!
//! * [`topology`] — the snapshot graph (satellites + ground stations,
//!   per-direction operator ownership, capacities, loads).
//! * [`isl`] — snapshot construction from orbital state: range,
//!   line-of-sight, terminal budgets, RF/optical capacity selection.
//! * [`routing`] — proactive shortest paths ([`routing::dijkstra`]),
//!   k-shortest alternatives ([`routing::yen`]), the congestion/QoS
//!   machinery ([`routing::qos`]) that §2.2 says a scaled system needs,
//!   and the batched per-source [`routing::planner`] that serves
//!   replan-heavy simulations one shortest-path tree per distinct
//!   source.
//! * [`contact`] — precomputable contact plans over ground points.
//! * [`handover`] — successor prediction and handover cost accounting
//!   (the every-15-seconds problem).
//! * [`dtn`] — contact plans as a *graph* plus earliest-arrival
//!   (contact-graph) routing: the store-and-forward fallback for
//!   operators whose satellites are scheduled to be disconnected (§2).
//! * [`policy`] — regulation-aware routing: jurisdictions, downlink
//!   licenses, and per-user privacy policies (§5's open problem (3)).
//! * [`timeline`] — precomputed snapshot sequences: one graph per tick,
//!   bit-identical to on-demand snapshot builds (§2.2's known-and-public
//!   topology as a first-class [`timeline::TopologyProvider`]
//!   capability).
//!
//! Public node/operator identities are typed ([`topology::NodeId`],
//! [`topology::SatId`], [`topology::GsId`], [`topology::OperatorId`] —
//! re-exported from `openspace_sim::ids`); plain `usize` indices still
//! convert implicitly at call sites via `impl Into<NodeId>` parameters.

//! ## Example
//!
//! ```
//! use openspace_net::prelude::*;
//! use openspace_orbit::prelude::*;
//!
//! // Build a topology snapshot of the Iridium constellation and route
//! // across it.
//! let sats: Vec<SatNode> = walker_star(&iridium_params())
//!     .unwrap()
//!     .into_iter()
//!     .map(|el| SatNode {
//!         propagator: Propagator::new(el, PerturbationModel::TwoBody),
//!         operator: 0,
//!         has_optical: false,
//!     })
//!     .collect();
//! let graph = build_snapshot(0.0, &sats, &[], &SnapshotParams::default(), &mut NullRecorder);
//! let path = shortest_path(&graph, 0, 35, latency_weight, &mut NullRecorder).unwrap();
//! assert!(path.hops() >= 1);
//! ```

pub mod contact;
pub mod dtn;
pub mod handover;
pub mod isl;
pub mod policy;
pub mod routing;
pub mod timeline;
pub mod topology;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::contact::{
        contact_plan, contact_plan_dense, coverage_time_fraction, longest_outage_s, ContactWindow,
    };
    pub use crate::dtn::{
        earliest_arrival, sample_contacts, Contact, DtnError, DtnRoute, NodeOutageWindow,
        RetryPolicy,
    };
    pub use crate::handover::{
        service_schedule, HandoverCost, SatOutageWindow, ServiceInterval, ServiceSchedule,
    };
    pub use crate::isl::{
        best_access_from_ecef, best_access_satellite, build_snapshot, build_snapshot_from_samples,
        build_snapshot_from_samples_dense, build_snapshot_from_samples_recorded, isl_capacity_bps,
        GroundNode, SatNode, SnapshotParams,
    };
    pub use crate::policy::{
        audit_path, policy_route, DownlinkLicense, Jurisdiction, PolicyRoute, RoutePolicy,
        StationAttrs,
    };
    pub use crate::routing::{
        congestion_weight, hop_weight, k_shortest_paths, latency_weight, qos_route, residual_bps,
        shortest_path, widest_path, Path, QosRequirement, RoutePlanner,
    };
    pub use crate::timeline::{TimelineError, TopologyProvider, TopologyTimeline};
    pub use crate::topology::{
        Edge, Graph, GraphDelta, GsId, LinkTech, NoSuchEdge, NodeId, NodeKind, OperatorId, SatId,
        TopologyError,
    };
    pub use openspace_telemetry::{NullRecorder, Recorder};
}
