//! End-to-end packet delivery across the federation, with §3 accounting.
//!
//! A delivery runs: user → access satellite → (ISL hops, possibly across
//! several operators) → ground station → Internet. Every hop whose
//! carrier differs from the user's home operator generates a signed
//! accounting record; both the carrier's and the origin's ledgers are
//! fed, which is what makes the §3 cross-verification meaningful.

use crate::federation::{Federation, User};
use openspace_economics::ledger::TrafficLedger;
use openspace_net::isl::best_access_satellite;
use openspace_net::routing::{latency_weight, shortest_path_to_any, Path, QosRequirement};
use openspace_net::topology::{Graph, NodeKind};
use openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S;
use openspace_orbit::frames::Vec3;
use openspace_protocol::accounting::AccountingRecord;
use openspace_protocol::crypto::SharedSecret;
use openspace_protocol::types::{OperatorId, SatelliteId};
use openspace_telemetry::NullRecorder;
use std::collections::BTreeMap;

/// Why a delivery failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryError {
    /// No satellite above the user.
    NoAccessSatellite,
    /// No route from the access satellite to any ground station meeting
    /// the QoS requirement.
    NoRoute,
}

impl std::fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoAccessSatellite => write!(f, "no access satellite in view"),
            Self::NoRoute => write!(f, "no compliant route to a ground station"),
        }
    }
}

impl std::error::Error for DeliveryError {}

/// The result of delivering one flow segment.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Access satellite.
    pub access_satellite: SatelliteId,
    /// Space-segment path (node indices in the snapshot graph).
    pub path: Path,
    /// End-to-end one-way latency (s): user uplink + space path.
    pub latency_s: f64,
    /// Ground station node the flow exited at.
    pub exit_station_node: openspace_net::topology::NodeId,
    /// Operators that carried at least one hop.
    pub carriers: Vec<OperatorId>,
    /// Signed per-hop accounting records.
    pub records: Vec<AccountingRecord>,
}

/// Deliver `bytes` of flow `flow_id` from `user` at `user_ecef` to the
/// best-reachable ground station at `t_s`, under `qos`.
///
/// `ledgers` (one per operator) are updated: the carrier of every hop
/// logs its own record, and the user's home operator logs its
/// route-knowledge view of the same hops.
#[allow(clippy::too_many_arguments)]
pub fn deliver(
    fed: &Federation,
    graph: &Graph,
    user: &User,
    user_ecef: Vec3,
    t_s: f64,
    flow_id: u64,
    bytes: u64,
    qos: &QosRequirement,
    ledgers: &mut BTreeMap<OperatorId, TrafficLedger>,
) -> Result<Delivery, DeliveryError> {
    let sat_nodes = fed.sat_nodes();
    let (sat_idx, slant_m) = best_access_satellite(
        user_ecef,
        &sat_nodes,
        t_s,
        fed.snapshot_params.min_elevation_rad,
    )
    .ok_or(DeliveryError::NoAccessSatellite)?;
    let access = fed.satellites()[sat_idx];

    // Best compliant route to any station: QoS-aware when a floor or a
    // bound is set. The bound is on the cost being minimised, so when the
    // cheapest path misses it every other path does too.
    let (from, dsts) = (graph.sat_node(sat_idx), graph.station_nodes());
    let rec = &mut NullRecorder;
    let path = if qos.min_bandwidth_bps > 0.0 || qos.max_latency_s.is_finite() {
        shortest_path_to_any(graph, from, &dsts, qos.weight(12_000.0), rec)
            .and_then(|(_, p)| qos.admit(p))
    } else {
        shortest_path_to_any(graph, from, &dsts, latency_weight, rec).map(|(_, p)| p)
    };
    let path = path.ok_or(DeliveryError::NoRoute)?;
    let Some(&exit_station_node) = path.nodes.last() else {
        return Err(DeliveryError::NoRoute);
    };
    debug_assert!(matches!(
        graph.node_kind(exit_station_node),
        NodeKind::GroundStation(_)
    ));

    // Latency: user uplink leg + propagation along the path.
    // A just-computed path sums cleanly; a vanished edge yields infinity
    // (visibly broken) rather than a panic.
    let latency_s = slant_m / SPEED_OF_LIGHT_M_PER_S
        + path
            .sum_metric(graph, |e| e.latency_s)
            .unwrap_or(f64::INFINITY);

    // Accounting: one record per hop, keyed to the transmitting node's
    // operator.
    let interval_ms = (t_s * 1000.0) as u64;
    let mut carriers: Vec<OperatorId> = Vec::new();
    let mut records = Vec::new();
    for w in path.nodes.windows(2) {
        // The path was just computed on this graph; a vanished edge can
        // only mean the graph changed underneath us — skip its billing
        // rather than abort the delivered flow.
        let Some(edge) = graph.find_edge(w[0], w[1]) else {
            continue;
        };
        let carrier = edge.operator;
        let carrier_node = match graph.node_kind(w[0]) {
            NodeKind::Satellite(si) => fed.satellites()[si.index()].id,
            // Ground-originated hop: bill under a pseudo node id derived
            // from the station index (stations don't have SatelliteIds).
            NodeKind::GroundStation(gi) => SatelliteId(1_000_000 + gi.index() as u64),
        };
        let carrier_secret = carrier_ledger_secret(carrier);
        let rec = AccountingRecord::create(
            flow_id,
            user.home,
            carrier,
            carrier_node,
            bytes,
            interval_ms,
            interval_ms + 1,
            &carrier_secret,
        );
        // Carrier logs its own signed record.
        ledgers.entry(carrier).or_default().record(&rec);
        // The origin operator, with full route visibility (§3), logs its
        // independent view of the same hop.
        ledgers
            .entry(user.home)
            .or_default()
            .record_raw(openspace_economics::ledger::BillingKey::of(&rec), bytes);
        if !carriers.contains(&carrier) {
            carriers.push(carrier);
        }
        records.push(rec);
    }

    Ok(Delivery {
        access_satellite: access.id,
        path,
        latency_s,
        exit_station_node,
        carriers,
        records,
    })
}

/// The secret an operator signs accounting records with. Derived
/// deterministically, like the other simulation credentials.
pub fn carrier_ledger_secret(op: OperatorId) -> SharedSecret {
    SharedSecret::derive(op.0 as u64, "openspace-accounting")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{default_station_sites, iridium_federation};
    use openspace_economics::ledger::reconcile;
    use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
    use openspace_phy::hardware::SatelliteClass;

    fn setup() -> (Federation, User, Vec3) {
        let mut fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
        let home = fed.operator_ids()[0];
        let user = fed.register_user(home).expect("member operator");
        let pos = geodetic_to_ecef(Geodetic::from_degrees(-1.3, 36.8, 1_700.0)); // Nairobi
        (fed, user, pos)
    }

    #[test]
    fn delivery_succeeds_with_sane_latency() {
        let (fed, user, pos) = setup();
        let graph = fed.snapshot(0.0);
        let mut ledgers = BTreeMap::new();
        let d = deliver(
            &fed,
            &graph,
            &user,
            pos,
            0.0,
            1,
            1_000_000,
            &QosRequirement::best_effort(),
            &mut ledgers,
        )
        .expect("delivery");
        assert!(
            d.latency_s > 0.002 && d.latency_s < 0.2,
            "latency {}",
            d.latency_s
        );
        assert!(d.path.hops() >= 1);
    }

    #[test]
    fn accounting_covers_every_hop() {
        let (fed, user, pos) = setup();
        let graph = fed.snapshot(0.0);
        let mut ledgers = BTreeMap::new();
        let d = deliver(
            &fed,
            &graph,
            &user,
            pos,
            0.0,
            1,
            500,
            &QosRequirement::best_effort(),
            &mut ledgers,
        )
        .unwrap();
        assert_eq!(d.records.len(), d.path.hops());
        for r in &d.records {
            assert!(r.verify(&carrier_ledger_secret(r.carrier_operator)));
            assert_eq!(r.origin_operator, user.home);
        }
    }

    #[test]
    fn origin_and_carrier_ledgers_reconcile() {
        let (fed, user, pos) = setup();
        let graph = fed.snapshot(0.0);
        let mut ledgers = BTreeMap::new();
        let d = deliver(
            &fed,
            &graph,
            &user,
            pos,
            0.0,
            9,
            12_345,
            &QosRequirement::best_effort(),
            &mut ledgers,
        )
        .unwrap();
        // Every foreign carrier's ledger must agree with the home ledger.
        for &carrier in &d.carriers {
            if carrier == user.home {
                continue;
            }
            let r = reconcile(
                ledgers.get(&user.home).unwrap(),
                ledgers.get(&carrier).unwrap(),
                user.home,
                carrier,
            );
            assert!(r.is_clean(), "dispute with {carrier}: {:?}", r.disputes);
            assert!(r.agreed > 0);
        }
    }

    #[test]
    fn multi_operator_paths_involve_foreign_carriers() {
        // Round-robin ownership on Iridium means almost any multi-hop path
        // crosses operators — the "roaming is rampant" premise.
        let (fed, user, pos) = setup();
        let graph = fed.snapshot(0.0);
        let mut ledgers = BTreeMap::new();
        let d = deliver(
            &fed,
            &graph,
            &user,
            pos,
            0.0,
            2,
            100,
            &QosRequirement::best_effort(),
            &mut ledgers,
        )
        .unwrap();
        if d.path.hops() >= 3 {
            assert!(
                d.carriers.len() >= 2,
                "a {}-hop path on round-robin Iridium should cross operators",
                d.path.hops()
            );
        }
    }

    #[test]
    fn impossible_qos_yields_no_route() {
        let (fed, user, pos) = setup();
        let graph = fed.snapshot(0.0);
        let mut ledgers = BTreeMap::new();
        let err = deliver(
            &fed,
            &graph,
            &user,
            pos,
            0.0,
            3,
            100,
            &QosRequirement {
                min_bandwidth_bps: 1e15,
                max_latency_s: f64::INFINITY,
            },
            &mut ledgers,
        )
        .unwrap_err();
        assert_eq!(err, DeliveryError::NoRoute);
    }

    #[test]
    fn no_constellation_no_access() {
        let mut fed = Federation::new();
        let op = fed.add_operator("x");
        let user = fed.register_user(op).expect("member operator");
        let graph = fed.snapshot(0.0);
        let mut ledgers = BTreeMap::new();
        let err = deliver(
            &fed,
            &graph,
            &user,
            geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0)),
            0.0,
            1,
            1,
            &QosRequirement::best_effort(),
            &mut ledgers,
        )
        .unwrap_err();
        assert_eq!(err, DeliveryError::NoAccessSatellite);
    }
}
