//! Shared scenario setup for the `exp_*` binaries.
//!
//! Every experiment used to open with the same boilerplate: build the §4
//! Iridium-split federation, place the Nairobi reference user and find
//! the access satellite. This module is that boilerplate, written once,
//! plus the [`ScenarioRunner`] the Figure 2 sweeps run on.

use openspace_core::prelude::*;
use openspace_net::isl::{best_access_satellite, SatNode};
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic, Vec3};
use openspace_orbit::kepler::OrbitalElements;
use openspace_orbit::propagator::{PerturbationModel, Propagator};
use openspace_orbit::walker::{iridium_params, random_constellation, walker_star, WalkerParams};
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::exec::default_threads;
use std::time::{Duration, Instant};

/// Constellation sizes swept by Figure 2(b).
pub const FIG2B_SIZES: [usize; 14] = [2, 4, 6, 8, 12, 16, 20, 25, 30, 40, 50, 65, 80, 100];

/// Constellation sizes swept by Figure 2(c).
pub const FIG2C_SIZES: [usize; 13] = [2, 5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 85, 100];

/// Wall-clock a closure; returns its result and the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The §4 deployment every experiment starts from: an Iridium-like
/// constellation split among `members` operators over the default shared
/// ground segment.
pub fn standard_federation(members: usize, classes: &[SatelliteClass]) -> Federation {
    iridium_federation(members, classes, &default_station_sites())
}

/// ECEF position of a ground user.
pub fn ground_user(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Vec3 {
    geodetic_to_ecef(Geodetic::from_degrees(lat_deg, lon_deg, alt_m))
}

/// The Nairobi reference user shared across experiments (the paper's
/// remote-connectivity stand-in).
pub fn nairobi_user() -> Vec3 {
    ground_user(-1.3, 36.8, 1_700.0)
}

/// Index and slant range (m) of the federation satellite best serving a
/// user at `user_ecef`, under the federation's elevation mask.
pub fn access_satellite(fed: &Federation, user_ecef: Vec3, t_s: f64) -> Option<(usize, f64)> {
    best_access_satellite(
        user_ecef,
        &fed.sat_nodes(),
        t_s,
        fed.snapshot_params.min_elevation_rad,
    )
}

/// A parallel [`ScenarioRunner`] over the default §4 study scenario with
/// the given sampling depth.
pub fn study_runner(trials: u64, epochs_per_trial: usize) -> ScenarioRunner {
    let cfg = StudyConfig {
        trials,
        epochs_per_trial,
        ..Default::default()
    };
    ScenarioRunner::new(cfg, default_threads()).expect("the default study scenario is valid")
}

/// The paper's 66-satellite Iridium-like Walker Star, as raw elements.
pub fn iridium_elements() -> Vec<OrbitalElements> {
    walker_star(&iridium_params()).expect("iridium parameters are valid")
}

/// Propagators for an arbitrary Walker Star configuration.
pub fn walker_propagators(params: &WalkerParams, model: PerturbationModel) -> Vec<Propagator> {
    walker_star(params)
        .expect("walker parameters are valid")
        .into_iter()
        .map(|el| Propagator::new(el, model))
        .collect()
}

/// Single-operator [`SatNode`]s for a random constellation — the density
/// sweeps' repeated setup block.
pub fn random_sat_nodes(
    n: usize,
    altitude_m: f64,
    inclination_deg: f64,
    seed: u64,
    model: PerturbationModel,
) -> Vec<SatNode> {
    random_constellation(n, altitude_m, inclination_deg, seed)
        .expect("valid constellation parameters")
        .into_iter()
        .map(|el| SatNode {
            propagator: Propagator::new(el, model),
            operator: 0,
            has_optical: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_net::routing::{latency_weight, shortest_path, shortest_path_to_any};
    use openspace_telemetry::NullRecorder;

    #[test]
    fn standard_federation_splits_the_iridium_fleet() {
        let fed = standard_federation(4, &[SatelliteClass::SmallSat]);
        assert_eq!(fed.satellites().len(), 66);
        assert_eq!(fed.operator_ids().len(), 4);
        assert!(!fed.stations().is_empty());
    }

    #[test]
    fn nairobi_user_has_an_access_satellite_and_a_route() {
        let fed = standard_federation(4, &[SatelliteClass::SmallSat]);
        let (sat, slant) = access_satellite(&fed, nairobi_user(), 0.0).expect("coverage");
        assert!(slant > 0.0);
        let graph = fed.snapshot(0.0);
        let (src, stations) = (graph.sat_node(sat), graph.station_nodes());
        let (gi, path) =
            shortest_path_to_any(&graph, src, &stations, latency_weight, &mut NullRecorder)
                .expect("connected");
        assert!(gi < fed.stations().len());
        assert!(path.total_cost > 0.0);
        // It really is the minimum over stations.
        for &other in &stations {
            if let Some(p) = shortest_path(&graph, src, other, latency_weight, &mut NullRecorder) {
                assert!(path.total_cost <= p.total_cost);
            }
        }
    }

    #[test]
    fn study_runner_is_parallel_over_the_default_scenario() {
        let r = study_runner(3, 2);
        assert_eq!(r.config().trials, 3);
        assert_eq!(r.config().epochs_per_trial, 2);
        assert!(r.threads() >= 1);
    }

    #[test]
    fn iridium_elements_count_matches_the_paper() {
        assert_eq!(iridium_elements().len(), 66);
    }

    #[test]
    fn random_sat_nodes_are_reproducible() {
        let a = random_sat_nodes(8, 550_000.0, 53.0, 7, PerturbationModel::TwoBody);
        let b = random_sat_nodes(8, 550_000.0, 53.0, 7, PerturbationModel::TwoBody);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.propagator.position_eci(100.0),
                y.propagator.position_eci(100.0)
            );
        }
    }
}
