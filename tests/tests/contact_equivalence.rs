//! Property test pinning the horizon-skip contact scanner's contract:
//! [`contact_plan`] emits windows **bitwise
//! identical** to the dense reference scan [`contact_plan_dense`].
//!
//! The scanner's correctness argument (see `crates/net/src/contact.rs`
//! module docs) is an escape-time bound: a sample far enough below the
//! elevation mask proves that every grid sample inside the bound's
//! horizon is also below the mask, so skipping them cannot change the
//! open/close state machine. These cases exercise the claim over seeded
//! random constellations (circular and eccentric, both perturbation
//! models), ground sites, masks (including negative and extreme ones),
//! steps, and scan horizons — and check that the skip machinery
//! actually engages across the suite rather than silently degrading to
//! dense everywhere.

use openspace_net::prelude::*;
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
use openspace_orbit::kepler::OrbitalElements;
use openspace_orbit::propagator::{PerturbationModel, Propagator};
use openspace_sim::prelude::SimRng;
use openspace_telemetry::MemoryRecorder;

const CASES: u64 = 160;

fn random_sats(rng: &mut SimRng) -> Vec<SatNode> {
    let n = 1 + rng.index(6);
    (0..n)
        .map(|_| {
            let altitude_m = rng.uniform_range(350_000.0, 1_600_000.0);
            let ecc = if rng.chance(0.3) {
                rng.uniform_range(0.0, 0.04)
            } else {
                0.0
            };
            let el = OrbitalElements::new(
                6_378_137.0 + altitude_m,
                ecc,
                rng.uniform_range(0.0, std::f64::consts::PI),
                rng.uniform_range(0.0, std::f64::consts::TAU),
                rng.uniform_range(0.0, std::f64::consts::TAU),
                rng.uniform_range(0.0, std::f64::consts::TAU),
            )
            .unwrap();
            let model = if rng.chance(0.5) {
                PerturbationModel::SecularJ2
            } else {
                PerturbationModel::TwoBody
            };
            SatNode {
                propagator: Propagator::new(el, model),
                operator: 0,
                has_optical: false,
            }
        })
        .collect()
}

#[test]
fn gated_scan_is_bitwise_equal_to_dense_scan() {
    let mut total_skipped = 0u64;
    let mut total_evaluated = 0u64;
    for case in 0..CASES {
        let mut rng = SimRng::substream(0xC0_47AC7, case);
        let sats = random_sats(&mut rng);
        let ground = geodetic_to_ecef(Geodetic::from_degrees(
            rng.uniform_range(-80.0, 80.0),
            rng.uniform_range(-180.0, 180.0),
            rng.uniform_range(0.0, 3_000.0),
        ));
        // Masks from below-horizon (everything visible more often) to
        // near-zenith (nothing visible, maximal skipping).
        let mask = rng.uniform_range(-10.0, 70.0).to_radians();
        let step = rng.uniform_range(1.0, 45.0);
        let t_start = rng.uniform_range(0.0, 5_000.0);
        let horizon = rng.uniform_range(600.0, 10_800.0);
        let mut rec = MemoryRecorder::new();
        let gated = contact_plan(
            &sats,
            ground,
            t_start,
            t_start + horizon,
            step,
            mask,
            &mut rec,
        );
        let dense = contact_plan_dense(&sats, ground, t_start, t_start + horizon, step, mask);
        assert_eq!(
            gated.len(),
            dense.len(),
            "case {case}: window count {} vs {}",
            gated.len(),
            dense.len()
        );
        for (k, (a, b)) in gated.iter().zip(&dense).enumerate() {
            assert_eq!(a.sat_index, b.sat_index, "case {case}, window {k}");
            assert_eq!(
                a.start_s.to_bits(),
                b.start_s.to_bits(),
                "case {case}, window {k}: start {} vs {}",
                a.start_s,
                b.start_s
            );
            assert_eq!(
                a.end_s.to_bits(),
                b.end_s.to_bits(),
                "case {case}, window {k}: end {} vs {}",
                a.end_s,
                b.end_s
            );
        }
        total_skipped += rec.counter("contact.samples_skipped");
        total_evaluated += rec.counter("contact.samples_evaluated");
    }
    // The point of the fast path: across the suite, most grid samples
    // are proven below-mask without being propagated.
    assert!(
        total_skipped > total_evaluated,
        "horizon skip barely engaged: {total_skipped} skipped vs {total_evaluated} evaluated"
    );
}

#[test]
fn plain_contact_plan_is_the_gated_scanner() {
    // Without telemetry (a `NullRecorder`) the public entry point must
    // still match dense — a guard against the recorder changing the
    // answer.
    let mut rng = SimRng::new(0x5EED);
    let sats = random_sats(&mut rng);
    let ground = geodetic_to_ecef(Geodetic::from_degrees(12.0, -45.0, 100.0));
    let mask = 15f64.to_radians();
    let plain = contact_plan(&sats, ground, 0.0, 7_200.0, 5.0, mask, &mut NullRecorder);
    let dense = contact_plan_dense(&sats, ground, 0.0, 7_200.0, 5.0, mask);
    assert_eq!(plain, dense);
}
