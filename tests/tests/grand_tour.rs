//! The grand tour: a day in the life of the OpenSpace federation, in one
//! test. Association → roaming deliveries with accounting → handovers →
//! ledger reconciliation → settlement → peering → reputation. If this
//! passes, the whole §2+§3 pipeline holds together.

use openspace_core::prelude::*;
use openspace_core::security::{ReputationPolicy, ReputationTracker, TrustState};
use openspace_economics::prelude::*;
use openspace_net::handover::service_schedule;
use openspace_net::routing::QosRequirement;
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
use openspace_phy::hardware::SatelliteClass;
use openspace_protocol::types::OperatorId;
use openspace_telemetry::NullRecorder;
use std::collections::BTreeMap;

#[test]
fn a_day_in_the_federation() {
    let mut fed = iridium_federation(
        4,
        &[SatelliteClass::CubeSat, SatelliteClass::SmallSat],
        &default_station_sites(),
    );
    let ops = fed.operator_ids();

    // Three users on three continents, subscribed to different operators.
    let user_specs = [
        ((-1.3, 36.8), ops[0]),
        ((52.5, 13.4), ops[1]),
        ((-33.9, 151.2), ops[2]),
    ];
    let users: Vec<(User, _)> = user_specs
        .iter()
        .map(|&((lat, lon), home)| {
            let u = fed.register_user(home).expect("member operator");
            (u, geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 0.0)))
        })
        .collect();

    // 1. Morning: everyone associates; certificates verify under the
    // issuing operator's federation secret.
    let mut assocs = Vec::new();
    for (i, (user, pos)) in users.iter().enumerate() {
        let a = associate(&mut fed, user, *pos, 0.0, 1 + i as u64).expect("association");
        let secret = *fed.federation_secret(user.home).expect("member operator");
        assert!(a.certificate.verify(&secret, 1));
        assocs.push(a);
    }

    // 2. All day: six delivery rounds, one hour apart, accumulating
    // cross-verified accounting on both sides of every hop.
    let mut ledgers: BTreeMap<OperatorId, TrafficLedger> = BTreeMap::new();
    let mut deliveries = 0u32;
    for round in 0..6u64 {
        let t = round as f64 * 3_600.0;
        let graph = fed.snapshot(t);
        for (i, (user, pos)) in users.iter().enumerate() {
            if deliver(
                &fed,
                &graph,
                user,
                *pos,
                t,
                round * 10 + i as u64,
                250_000_000,
                &QosRequirement::best_effort(),
                &mut ledgers,
            )
            .is_ok()
            {
                deliveries += 1;
            }
        }
    }
    assert!(
        deliveries >= 15,
        "most delivery rounds succeed: {deliveries}"
    );

    // 3. Handovers all day: the schedule hands over every few minutes
    // and every token commit validates without touching the home AAA.
    let (user, pos) = &users[0];
    let windows = fed.contact_plan(*pos, 0.0, 4.0 * 3_600.0, 10.0, &mut NullRecorder);
    let schedule = service_schedule(&windows, &[], 0.0, 4.0 * 3_600.0, &mut NullRecorder)
        .expect("valid horizon");
    assert!(schedule.handovers >= 10, "handovers {}", schedule.handovers);
    let mut prev = fed.satellites()[schedule.intervals[0].sat_index.index()].id;
    for iv in schedule.intervals.iter().skip(1).take(10) {
        let succ = fed.satellites()[iv.sat_index.index()].id;
        let h = execute_handover(
            &fed,
            user,
            &assocs[0].certificate,
            prev,
            succ,
            *pos,
            iv.start_s,
        )
        .expect("member operator");
        assert!(h.accepted, "token handover at t={}", iv.start_s);
        prev = succ;
    }

    // 4. Evening: books close. Every bilateral ledger pair reconciles,
    // settlement conserves money, and the reputation tracker finds
    // everyone clean.
    let mut tracker = ReputationTracker::new(ReputationPolicy::default());
    for (i, &a) in ops.iter().enumerate() {
        for &b in &ops[i + 1..] {
            if let (Some(la), Some(lb)) = (ledgers.get(&a), ledgers.get(&b)) {
                let r = reconcile(la, lb, a, b);
                assert!(r.is_clean(), "{a} vs {b}: {:?}", r.disputes.first());
                tracker.record_reconciliation(b, &r);
            }
        }
    }
    for &op in &ops {
        assert_eq!(tracker.state(op), TrustState::Trusted);
    }
    let matrix = SettlementMatrix::from_ledgers(&ledgers, &PriceBook::new(4.0));
    assert!(matrix.total_imbalance().abs() < 1e-6);

    // 5. And at least one pair has enough symmetric traffic to peer under
    // a generous policy.
    let policy = PeeringPolicy {
        max_asymmetry: 0.8,
        min_bytes_each_way: 100_000_000,
    };
    let mut peerable = 0;
    for (i, &a) in ops.iter().enumerate() {
        for &b in &ops[i + 1..] {
            if let Some(l) = ledgers.get(&a) {
                if matches!(
                    evaluate_peering(l, a, b, &policy),
                    PeeringVerdict::RecommendPeering { .. }
                ) {
                    peerable += 1;
                }
            }
        }
    }
    assert!(
        peerable >= 1,
        "a day of mesh traffic should justify a peering"
    );
}
