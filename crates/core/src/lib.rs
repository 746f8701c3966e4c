//! # openspace-core
//!
//! The OpenSpace architecture assembled: a federation of independent
//! satellite operators that together deliver a global LEO Internet
//! service — the primary contribution of *A Roadmap for the
//! Democratization of Space-Based Communications* (HotNets '24) as a
//! runnable system.
//!
//! * [`operator`] — operators, satellites (with hardware classes), and
//!   the shared ground segment.
//! * [`federation`] — the roster and its topology: federated and solo
//!   snapshots, contact plans, the Iridium-split construction of §4 and
//!   the monolithic baseline.
//! * [`roaming`] — §2.2 end to end: beacon-based association, RADIUS-like
//!   auth through the home ISP over ISLs, certificate issuance, and
//!   successor-predicted handover with no re-authentication.
//! * [`delivery`] — end-to-end packet delivery across operator
//!   boundaries, emitting the §3 cross-verifiable accounting records.
//! * [`demand`] — §5(1)'s user base: attaches `openspace-demand`
//!   population cells to covering operators, maps demand ticks onto
//!   simulator flows, and turns demand-weighted traffic into ledgers.
//! * [`study`] — the §4 simulation study (Figure 2): latency and coverage
//!   versus constellation size under the paper's exact methodology.
//! * [`security`] — §5(6)'s open problem: ledger-dispute-driven bad-actor
//!   detection with quarantine and rehabilitation, feeding the routing
//!   layer's carrier blocklist.
//! * [`netsim`] — §5(2)'s open problem: a packet-level discrete-event
//!   simulation with per-link queues, comparing proactive (load-blind)
//!   against adaptive (utilization-replanned) routing; consumes compiled
//!   fault plans ([`openspace_sim::fault`]) for graceful-degradation
//!   studies.
//!
//! ## Quick start
//!
//! ```
//! use openspace_core::prelude::*;
//! use openspace_phy::hardware::SatelliteClass;
//! use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
//!
//! // Four small firms share an Iridium-like constellation (§4).
//! let mut fed = iridium_federation(
//!     4,
//!     &[SatelliteClass::SmallSat],
//!     &default_station_sites(),
//! );
//! let home = fed.operator_ids()[0];
//! let user = fed.register_user(home).expect("home is a member");
//!
//! // Associate from Nairobi: nearest satellite of *any* operator serves.
//! let pos = geodetic_to_ecef(Geodetic::from_degrees(-1.3, 36.8, 1_700.0));
//! let assoc = associate(&mut fed, &user, pos, 0.0, 1).unwrap();
//! assert!(assoc.association_latency_s < 0.5);
//! ```

pub mod delivery;
pub mod demand;
pub mod federation;
pub mod netsim;
pub mod operator;
pub mod roaming;
pub mod security;
pub mod study;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::delivery::{carrier_ledger_secret, deliver, Delivery, DeliveryError};
    pub use crate::demand::{
        attach_cells, demand_flows_for, demand_ledgers, BridgeStats, CellAttachment, CellCoverage,
    };
    pub use crate::federation::{
        default_station_sites, iridium_federation, Federation, FederationError, User, Withdrawal,
    };
    pub use crate::netsim::{
        DemandWorkload, FaultImpact, FlowSpec, NetSim, NetSimConfig, NetSimReport, RoutingMode,
        TrafficKind,
    };
    pub use crate::operator::{make_satellite, GroundStation, Operator, Satellite};
    pub use crate::roaming::{
        associate, execute_handover, Association, AssociationError, HandoverOutcome,
    };
    pub use crate::security::{ReputationPolicy, ReputationTracker, TrustState};
    pub use crate::study::{
        study_constellation, study_snapshot_params, CoveragePoint, LatencyPoint, ScenarioRunner,
        StudyConfig, StudyModel,
    };
}
