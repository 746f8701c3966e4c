//! Cross-crate governance loop: accounting disputes → reputation →
//! quarantine → policy routing, plus DTN fallback for the solo case.
//! Exercises §3, §5(3), §5(6), and the §2 disconnection claim together.

use openspace_core::prelude::*;
use openspace_core::security::{ReputationPolicy, ReputationTracker, TrustState};
use openspace_economics::ledger::{reconcile, BillingKey, TrafficLedger};
use openspace_net::dtn::{earliest_arrival, sample_contacts, RetryPolicy};
use openspace_net::policy::{
    policy_route, DownlinkLicense, Jurisdiction, PolicyRoute, RoutePolicy, StationAttrs,
};
use openspace_net::routing::latency_weight;
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
use openspace_phy::hardware::SatelliteClass;
use openspace_protocol::types::OperatorId;
use openspace_telemetry::NullRecorder;

/// Build ledgers where `cheater` systematically over-reports.
fn ledgers_with_cheater(honest: OperatorId, cheater: OperatorId) -> (TrafficLedger, TrafficLedger) {
    let mut origin = TrafficLedger::new();
    let mut carrier = TrafficLedger::new();
    for flow in 0..40u64 {
        let key = BillingKey {
            flow_id: flow,
            origin: honest,
            carrier: cheater,
            interval_start_ms: flow * 1000,
        };
        origin.record_raw(key, 10_000);
        // The cheater inflates every fourth record by 50%.
        let claim = if flow % 4 == 0 { 15_000 } else { 10_000 };
        carrier.record_raw(key, claim);
    }
    (origin, carrier)
}

#[test]
fn dispute_to_quarantine_to_rerouting_loop() {
    let fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
    let graph = fed.snapshot(0.0);
    let ops = fed.operator_ids();
    let (honest, cheater) = (ops[0], ops[1]);

    // 1. Accounting reveals the cheating.
    let (origin_ledger, carrier_ledger) = ledgers_with_cheater(honest, cheater);
    let recon = reconcile(&origin_ledger, &carrier_ledger, honest, cheater);
    assert_eq!(recon.disputes.len(), 10);

    // 2. Reputation quarantines the carrier.
    let mut tracker = ReputationTracker::new(ReputationPolicy::default());
    tracker.record_reconciliation(cheater, &recon);
    assert_eq!(tracker.state(cheater), TrustState::Quarantined);

    // 3. Routing avoids the quarantined carrier's hops.
    let attrs: Vec<StationAttrs> = fed
        .stations()
        .iter()
        .map(|_| StationAttrs {
            jurisdiction: Jurisdiction(1),
        })
        .collect();
    let licenses: Vec<DownlinkLicense> = ops
        .iter()
        .map(|op| DownlinkLicense {
            operator: op.0,
            jurisdiction: Jurisdiction(1),
        })
        .collect();
    let pos = geodetic_to_ecef(Geodetic::from_degrees(-1.3, 36.8, 0.0));
    let (sat, _) = openspace_net::isl::best_access_satellite(
        pos,
        &fed.sat_nodes(),
        0.0,
        fed.snapshot_params.min_elevation_rad,
    )
    .unwrap();
    let policy = RoutePolicy {
        allowed_exit: vec![],
        blocked_carriers: tracker.quarantined_operators(),
    };
    match policy_route(
        &graph,
        &attrs,
        &licenses,
        graph.sat_node(sat),
        &policy,
        latency_weight,
    ) {
        PolicyRoute::Compliant { path, .. } => {
            // No hop may be carried by the cheater.
            for w in path.nodes.windows(2) {
                let e = graph.find_edge(w[0], w[1]).unwrap();
                assert_ne!(e.operator, cheater, "route crossed the quarantined carrier");
            }
        }
        other => panic!("a compliant route should exist around one operator: {other:?}"),
    }
}

#[test]
fn rehabilitated_operator_routes_again() {
    let mut tracker = ReputationTracker::new(ReputationPolicy::default());
    let op = OperatorId(2);
    tracker.record_outcome(op, 60, 40);
    assert_eq!(tracker.state(op), TrustState::Quarantined);
    tracker.record_outcome(op, 60, 0); // clean streak past the bar
    assert_eq!(tracker.state(op), TrustState::Trusted);
    assert!(tracker.quarantined_operators().is_empty());
}

#[test]
fn solo_operator_falls_back_to_dtn_when_cut_off() {
    // An operator distrusted by everyone (or refusing to collaborate)
    // still reaches its own ground segment — via store-and-forward.
    let fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
    let op = fed.operator_ids()[2];
    let sats = fed.sat_nodes_of(op);
    let stations = fed.ground_nodes_of(op);
    assert!(!stations.is_empty(), "operator owns at least one station");
    let contacts = sample_contacts(
        &sats,
        &stations,
        0.0,
        6.0 * 3600.0,
        20.0,
        &fed.snapshot_params,
    );
    let n = sats.len() + stations.len();
    let route = (0..stations.len())
        .filter_map(|gi| {
            let (dst, retry) = (sats.len() + gi, RetryPolicy::default());
            earliest_arrival(
                &contacts,
                n,
                0,
                dst,
                0.0,
                1e6,
                &[],
                retry,
                &mut NullRecorder,
            )
            .ok()
        })
        .min_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).unwrap());
    let route = route.expect("a pass happens within six hours");
    assert!(
        route.arrival_s < 6.0 * 3600.0,
        "bundle delivered within the horizon: {}",
        route.arrival_s
    );
    // And the delay is macroscopic — the cost of not collaborating.
    assert!(
        route.arrival_s > 1.0,
        "solo delivery should not be instantaneous: {}",
        route.arrival_s
    );
}
