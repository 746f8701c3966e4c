//! Ground tracks: the sub-satellite path over the rotating Earth.
//!
//! Used by Figure 2(a)-style constellation plots and by the federation
//! study to reason about when a satellite overflies its owner's ground
//! segment.

use crate::frames::{ecef_to_geodetic, eci_to_ecef, Geodetic};
use crate::propagator::Propagator;

/// A sampled ground track point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPoint {
    /// Simulation time (s).
    pub t_s: f64,
    /// Sub-satellite geodetic point (altitude = satellite altitude).
    pub geodetic: Geodetic,
}

/// Sample the ground track of a satellite from `t_start_s` to `t_end_s`
/// (inclusive of the start, exclusive of the end) at `step_s` intervals.
///
/// # Panics
/// Panics if `step_s <= 0` or `t_end_s < t_start_s`.
pub fn ground_track(
    sat: &Propagator,
    t_start_s: f64,
    t_end_s: f64,
    step_s: f64,
) -> Vec<TrackPoint> {
    assert!(step_s > 0.0, "step must be positive");
    assert!(t_end_s >= t_start_s, "end before start");
    let n = ((t_end_s - t_start_s) / step_s).ceil() as usize;
    (0..n)
        .map(|k| {
            let t = t_start_s + k as f64 * step_s;
            let ecef = eci_to_ecef(sat.position_eci(t), t);
            TrackPoint {
                t_s: t,
                geodetic: ecef_to_geodetic(ecef),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;
    use crate::kepler::OrbitalElements;
    use crate::propagator::PerturbationModel;

    fn sat(inc_deg: f64) -> Propagator {
        Propagator::new(
            OrbitalElements::circular(km_to_m(780.0), inc_deg, 10.0, 0.0).unwrap(),
            PerturbationModel::TwoBody,
        )
    }

    #[test]
    fn track_has_expected_length() {
        let tr = ground_track(&sat(86.4), 0.0, 600.0, 60.0);
        assert_eq!(tr.len(), 10);
        assert_eq!(tr[0].t_s, 0.0);
        assert_eq!(tr[9].t_s, 540.0);
    }

    #[test]
    fn track_latitude_bounded_by_inclination() {
        let tr = ground_track(&sat(53.0), 0.0, 7000.0, 30.0);
        // Geodetic latitude can exceed geocentric slightly; allow 0.5 deg.
        for p in &tr {
            assert!(
                p.geodetic.lat_deg() <= 53.5 && p.geodetic.lat_deg() >= -53.5,
                "lat {}",
                p.geodetic.lat_deg()
            );
        }
        // And the track actually reaches near the bound.
        let max_lat = tr
            .iter()
            .map(|p| p.geodetic.lat_deg().abs())
            .fold(0.0, f64::max);
        assert!(max_lat > 50.0, "max lat {max_lat}");
    }

    #[test]
    fn polar_orbit_reaches_high_latitude() {
        let tr = ground_track(&sat(86.4), 0.0, 7000.0, 30.0);
        let max_lat = tr
            .iter()
            .map(|p| p.geodetic.lat_deg().abs())
            .fold(0.0, f64::max);
        assert!(max_lat > 80.0, "max lat {max_lat}");
    }

    #[test]
    fn track_altitude_near_orbit_altitude() {
        let tr = ground_track(&sat(86.4), 0.0, 3000.0, 300.0);
        for p in &tr {
            // Geodetic altitude over the ellipsoid wobbles ±~20 km for a
            // sphere-radius circular orbit.
            assert!(
                (p.geodetic.alt_m - km_to_m(780.0)).abs() < km_to_m(25.0),
                "alt {}",
                p.geodetic.alt_m
            );
        }
    }

    #[test]
    fn track_drifts_westward_due_to_earth_rotation() {
        // Sample successive equator crossings (ascending): longitude must
        // shift westward by roughly period * rotation rate ≈ 25 deg.
        let s = sat(86.4);
        let period = s.elements().period_s();
        let p0 = ground_track(&s, 0.0, 1.0, 1.0)[0].geodetic;
        let p1 = ground_track(&s, period, period + 1.0, 1.0)[0].geodetic;
        let dlon = crate::frames::normalize_lon(p1.lon_rad - p0.lon_rad).to_degrees();
        assert!(
            (-28.0..-22.0).contains(&dlon),
            "westward drift per orbit {dlon} deg"
        );
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        ground_track(&sat(86.4), 0.0, 100.0, 0.0);
    }
}
