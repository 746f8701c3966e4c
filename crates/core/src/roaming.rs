//! User association and handover — §2.2's roaming machinery, end to end.
//!
//! Association: evaluate beacons → associate with the nearest OpenSpace
//! satellite (regardless of owner) → authenticate through the home ISP's
//! AAA over ISLs → receive a roaming certificate.
//!
//! Handover: the serving satellite predicts its successor from public
//! orbits and mints a session token; the user commits to the successor
//! without touching the home AAA again.

use crate::federation::{Federation, FederationError, User};
use openspace_net::isl::best_access_satellite;
use openspace_net::routing::{latency_weight, shortest_path_to_any};
use openspace_net::topology::{Graph, NodeId};
use openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S;
use openspace_orbit::frames::{eci_to_ecef, Vec3};
use openspace_protocol::auth::make_access_request;
use openspace_protocol::certificate::Certificate;
use openspace_protocol::handover::{derive_session_token, validate_commit, HandoverCommit};
use openspace_protocol::types::{OperatorId, SatelliteId};
use openspace_telemetry::NullRecorder;

/// Why association failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssociationError {
    /// No OpenSpace satellite above the elevation mask.
    NoSatelliteInView,
    /// The home operator's AAA is unreachable (no route to any of its
    /// ground stations).
    HomeAaaUnreachable,
    /// The home AAA rejected the credentials.
    AuthRejected,
    /// The user's home operator has withdrawn from the federation; the
    /// user must re-register with a surviving member.
    HomeOperatorWithdrawn,
}

impl std::fmt::Display for AssociationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSatelliteInView => write!(f, "no OpenSpace satellite in view"),
            Self::HomeAaaUnreachable => write!(f, "home AAA unreachable over ISLs"),
            Self::AuthRejected => write!(f, "home AAA rejected credentials"),
            Self::HomeOperatorWithdrawn => {
                write!(f, "home operator has withdrawn from the federation")
            }
        }
    }
}

impl std::error::Error for AssociationError {}

/// A successful association.
#[derive(Debug, Clone)]
pub struct Association {
    /// Serving satellite.
    pub serving: SatelliteId,
    /// Whether the serving satellite belongs to the user's home operator
    /// (false = "roaming", which §2.2 expects to be rampant).
    pub roaming: bool,
    /// The roaming certificate issued by the home AAA.
    pub certificate: Certificate,
    /// User↔satellite one-way propagation delay (s).
    pub access_delay_s: f64,
    /// Total association latency (s): beacon evaluation is free (already
    /// listening); this is the auth round trip over ISLs plus access legs.
    pub association_latency_s: f64,
    /// ISL hops between the serving satellite and the home ground station
    /// used for authentication.
    pub auth_path_hops: usize,
}

/// Run the §2.2 association procedure for `user` standing at
/// `user_ecef`, at simulation time `t_s` (certificates are stamped in ms).
///
/// The AAA round trip is routed over the federated snapshot from the
/// serving satellite to the nearest ground station owned by the home
/// operator.
pub fn associate(
    fed: &mut Federation,
    user: &User,
    user_ecef: Vec3,
    t_s: f64,
    nonce: u64,
) -> Result<Association, AssociationError> {
    let sat_nodes = fed.sat_nodes();
    let (sat_idx, slant_m) = best_access_satellite(
        user_ecef,
        &sat_nodes,
        t_s,
        fed.snapshot_params.min_elevation_rad,
    )
    .ok_or(AssociationError::NoSatelliteInView)?;
    let serving = fed.satellites()[sat_idx];
    let access_delay_s = slant_m / SPEED_OF_LIGHT_M_PER_S;

    // Route serving satellite → nearest home-operator ground station.
    let graph = fed.snapshot(t_s);
    let auth_path = route_to_operator_station(&graph, fed, sat_idx, user.home)
        .ok_or(AssociationError::HomeAaaUnreachable)?;
    let (auth_one_way_s, hops) = auth_path;

    // The RADIUS exchange: request up, verdict down.
    let req = make_access_request(user.id, user.home, nonce, &user.secret);
    let now_ms = (t_s * 1000.0) as u64;
    let accept = fed
        .operator_mut(user.home)
        .ok_or(AssociationError::HomeOperatorWithdrawn)?
        .auth
        .handle_request(&req, now_ms)
        .map_err(|_| AssociationError::AuthRejected)?;

    Ok(Association {
        serving: serving.id,
        roaming: serving.owner != user.home,
        certificate: accept.certificate,
        access_delay_s,
        association_latency_s: 2.0 * (access_delay_s + auth_one_way_s),
        auth_path_hops: hops,
    })
}

/// Shortest-latency route from a satellite node to any ground station of
/// `op`; returns (one-way latency, hop count).
fn route_to_operator_station(
    graph: &Graph,
    fed: &Federation,
    sat_idx: usize,
    op: OperatorId,
) -> Option<(f64, usize)> {
    let dsts: Vec<NodeId> = fed
        .stations()
        .iter()
        .enumerate()
        .filter(|(_, station)| station.owner == op)
        .map(|(gi, _)| graph.station_node(gi))
        .collect();
    let from = graph.sat_node(sat_idx);
    let (_, p) = shortest_path_to_any(graph, from, &dsts, latency_weight, &mut NullRecorder)?;
    Some((p.total_cost, p.hops()))
}

/// One handover step executed with the OpenSpace successor-prediction
/// protocol.
#[derive(Debug, Clone, Copy)]
pub struct HandoverOutcome {
    /// The new serving satellite.
    pub successor: SatelliteId,
    /// Interruption experienced by the user (s): one access round trip to
    /// the successor, since no re-authentication happens.
    pub interruption_s: f64,
    /// Whether the successor accepted the session token.
    pub accepted: bool,
}

/// Execute a predicted handover: the serving satellite mints a session
/// token bound to (certificate, successor, time); the user commits to the
/// successor; the successor validates offline against the home operator's
/// federation secret. Fails when the user's home operator has left the
/// federation (its secret — and so its certificates — are gone with it).
pub fn execute_handover(
    fed: &Federation,
    user: &User,
    certificate: &Certificate,
    serving: SatelliteId,
    successor: SatelliteId,
    user_ecef: Vec3,
    t_s: f64,
) -> Result<HandoverOutcome, FederationError> {
    let effective_ms = (t_s * 1000.0) as u64;
    let home_secret = fed.federation_secret(user.home)?;
    let token = derive_session_token(certificate, successor, effective_ms, home_secret);
    let commit = HandoverCommit {
        user: user.id,
        from: serving,
        session_token: token,
    };
    let accepted = validate_commit(
        &commit,
        certificate,
        successor,
        effective_ms,
        home_secret,
        effective_ms,
    );
    // Interruption: one round trip to the successor.
    let interruption_s = fed
        .satellite_index(successor)
        .map(|idx| {
            let sat = &fed.satellites()[idx];
            let sat_ecef = eci_to_ecef(sat.propagator.position_eci(t_s), t_s);
            2.0 * user_ecef.distance(sat_ecef) / SPEED_OF_LIGHT_M_PER_S
        })
        .unwrap_or(f64::INFINITY);
    Ok(HandoverOutcome {
        successor,
        interruption_s,
        accepted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{default_station_sites, iridium_federation};
    use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
    use openspace_phy::hardware::SatelliteClass;

    fn fed() -> Federation {
        iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites())
    }

    fn equator_user() -> Vec3 {
        geodetic_to_ecef(Geodetic::from_degrees(5.0, 15.0, 0.0))
    }

    #[test]
    fn association_succeeds_on_iridium() {
        let mut f = fed();
        let op = f.operator_ids()[0];
        let u = f.register_user(op).expect("member operator");
        let a = associate(&mut f, &u, equator_user(), 0.0, 1).expect("association");
        assert!(a.access_delay_s > 0.0 && a.access_delay_s < 0.02);
        assert!(a.association_latency_s >= 2.0 * a.access_delay_s);
        let fed_secret = *f.federation_secret(op).expect("member operator");
        assert!(a.certificate.verify(&fed_secret, 1));
    }

    #[test]
    fn roaming_flag_reflects_ownership() {
        let mut f = fed();
        let op = f.operator_ids()[0];
        let u = f.register_user(op).expect("member operator");
        let a = associate(&mut f, &u, equator_user(), 0.0, 2).unwrap();
        let serving_owner = f.satellite(a.serving).unwrap().owner;
        assert_eq!(a.roaming, serving_owner != op);
    }

    #[test]
    fn replayed_nonce_fails_second_association() {
        let mut f = fed();
        let op = f.operator_ids()[0];
        let u = f.register_user(op).expect("member operator");
        associate(&mut f, &u, equator_user(), 0.0, 7).unwrap();
        let err = associate(&mut f, &u, equator_user(), 1.0, 7).unwrap_err();
        assert_eq!(err, AssociationError::AuthRejected);
    }

    #[test]
    fn unregistered_user_rejected() {
        let mut f = fed();
        let op = f.operator_ids()[0];
        let ghost = User {
            id: openspace_protocol::types::UserId(999),
            home: op,
            secret: openspace_protocol::crypto::SharedSecret::derive(999, "x"),
        };
        let err = associate(&mut f, &ghost, equator_user(), 0.0, 1).unwrap_err();
        assert_eq!(err, AssociationError::AuthRejected);
    }

    #[test]
    fn no_satellite_in_view_without_constellation() {
        let mut f = Federation::new();
        let op = f.add_operator("lonely");
        let u = f.register_user(op).expect("member operator");
        let err = associate(&mut f, &u, equator_user(), 0.0, 1).unwrap_err();
        assert_eq!(err, AssociationError::NoSatelliteInView);
    }

    #[test]
    fn handover_token_accepted_and_fast() {
        let mut f = fed();
        let op = f.operator_ids()[0];
        let u = f.register_user(op).expect("member operator");
        let a = associate(&mut f, &u, equator_user(), 0.0, 3).unwrap();
        // Pick any other satellite as successor.
        let successor = f
            .satellites()
            .iter()
            .find(|s| s.id != a.serving)
            .unwrap()
            .id;
        let h = execute_handover(
            &f,
            &u,
            &a.certificate,
            a.serving,
            successor,
            equator_user(),
            10.0,
        )
        .expect("member operator");
        assert!(h.accepted, "valid token must be accepted");
        // Interruption is a single round trip — far below the
        // re-authentication path.
        assert!(h.interruption_s < a.association_latency_s);
    }

    #[test]
    fn association_after_home_withdrawal_fails_cleanly() {
        let mut f = fed();
        let op = f.operator_ids()[0];
        // A user whose snapshot predates the withdrawal (the federation's
        // own registry migrates users; this stale handle does not).
        let u = f.register_user(op).expect("member operator");
        f.withdraw_operator(op).expect("survivors exist");
        let err = associate(&mut f, &u, equator_user(), 0.0, 11).unwrap_err();
        // Either the AAA is gone entirely or its stations no longer
        // terminate the auth route — both are clean errors, not panics.
        assert!(matches!(
            err,
            AssociationError::HomeOperatorWithdrawn | AssociationError::HomeAaaUnreachable
        ));
        // The migrated registration works against the new home.
        let migrated = *f.user(u.id).expect("user survived migration");
        assert_ne!(migrated.home, op);
        let a = associate(&mut f, &migrated, equator_user(), 0.0, 12).expect("re-associates");
        assert!(a.association_latency_s > 0.0);
    }

    #[test]
    fn handover_with_foreign_certificate_rejected() {
        let mut f = fed();
        let op = f.operator_ids()[0];
        let u = f.register_user(op).expect("member operator");
        let a = associate(&mut f, &u, equator_user(), 0.0, 4).unwrap();
        // Forge: certificate for a different user id.
        let mut forged = a.certificate;
        forged.user = openspace_protocol::types::UserId(4_242);
        let successor = f.satellites()[5].id;
        let h = execute_handover(&f, &u, &forged, a.serving, successor, equator_user(), 10.0)
            .expect("member operator");
        assert!(!h.accepted, "forged certificate must fail validation");
    }
}
