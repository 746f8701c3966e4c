//! Eclipse (Earth-shadow) model.
//!
//! The power subsystem in `openspace-phy` needs to know when a satellite's
//! solar panels are dark. A cylindrical-shadow model against a
//! mean-motion solar ephemeris is plenty: LEO eclipse fractions are
//! dominated by geometry, not penumbra subtleties.

use crate::constants::{EARTH_RADIUS_M, ECLIPTIC_OBLIQUITY_RAD};
use crate::frames::Vec3;
use crate::propagator::Propagator;

/// Length of the tropical year in seconds, for the toy solar ephemeris.
const YEAR_S: f64 = 365.242_19 * 86_400.0;

/// Direction from the Earth to the Sun (unit vector, ECI) at simulation
/// time `t_s`. Simulation epoch is taken as a northern vernal equinox, so
/// the Sun starts on +X in the equatorial plane and moves along the
/// ecliptic.
pub fn sun_direction_eci(t_s: f64) -> Vec3 {
    let mean_lon = std::f64::consts::TAU * (t_s / YEAR_S);
    let (sl, cl) = mean_lon.sin_cos();
    let (so, co) = ECLIPTIC_OBLIQUITY_RAD.sin_cos();
    // Ecliptic -> equatorial rotation about +X.
    Vec3::new(cl, sl * co, sl * so)
}

/// True when the satellite at ECI position `sat_pos` is inside the Earth's
/// cylindrical shadow at time `t_s`.
pub fn in_eclipse(sat_pos: Vec3, t_s: f64) -> bool {
    let sun_dir = sun_direction_eci(t_s);
    // Must be on the anti-sun side…
    let along = sat_pos.dot(sun_dir);
    if along >= 0.0 {
        return false;
    }
    // …and within one Earth radius of the shadow axis.
    let radial = sat_pos - sun_dir * along;
    radial.norm() < EARTH_RADIUS_M
}

/// Fraction of the orbit (sampled at `samples` points over one period)
/// that a satellite spends in eclipse starting from `t_start_s`.
///
/// # Panics
/// Panics if `samples == 0`.
pub fn eclipse_fraction(sat: &Propagator, t_start_s: f64, samples: usize) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let period = sat.elements().period_s();
    let dark = (0..samples)
        .filter(|&k| {
            let t = t_start_s + period * k as f64 / samples as f64;
            in_eclipse(sat.position_eci(t), t)
        })
        .count();
    dark as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;
    use crate::kepler::OrbitalElements;
    use crate::propagator::PerturbationModel;

    #[test]
    fn sun_direction_is_unit() {
        for t in [0.0, 1e6, 1e7, 2e7] {
            assert!((sun_direction_eci(t).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sun_starts_on_x_axis() {
        let s = sun_direction_eci(0.0);
        assert!((s.x - 1.0).abs() < 1e-9 && s.y.abs() < 1e-9 && s.z.abs() < 1e-9);
    }

    #[test]
    fn sun_returns_after_one_year() {
        let a = sun_direction_eci(0.0);
        let b = sun_direction_eci(YEAR_S);
        assert!(a.distance(b) < 1e-6);
    }

    #[test]
    fn sun_reaches_north_of_equator_in_summer() {
        // A quarter year after the vernal equinox the Sun is at +obliquity
        // declination.
        let s = sun_direction_eci(YEAR_S / 4.0);
        assert!(s.z > 0.35 && s.z < 0.45, "z={}", s.z);
    }

    #[test]
    fn sunlit_side_is_not_in_eclipse() {
        let sat = Vec3::new(EARTH_RADIUS_M + km_to_m(780.0), 0.0, 0.0);
        // Sun on +X at t=0, satellite on +X: fully lit.
        assert!(!in_eclipse(sat, 0.0));
    }

    #[test]
    fn anti_sun_side_is_in_eclipse() {
        let sat = Vec3::new(-(EARTH_RADIUS_M + km_to_m(780.0)), 0.0, 0.0);
        assert!(in_eclipse(sat, 0.0));
    }

    #[test]
    fn off_axis_anti_sun_point_is_lit() {
        // Behind the Earth but far off the shadow axis.
        let sat = Vec3::new(
            -(EARTH_RADIUS_M + km_to_m(780.0)),
            3.0 * EARTH_RADIUS_M,
            0.0,
        );
        assert!(!in_eclipse(sat, 0.0));
    }

    #[test]
    fn equatorial_leo_eclipse_fraction_is_about_a_third() {
        // A 780 km equatorial orbit with the Sun in the equatorial plane:
        // shadow half-angle = asin(R/(R+h)) → fraction ≈ 0.35.
        let el = OrbitalElements::circular(km_to_m(780.0), 0.0, 0.0, 0.0).unwrap();
        let sat = Propagator::new(el, PerturbationModel::TwoBody);
        let f = eclipse_fraction(&sat, 0.0, 720);
        assert!((0.30..0.40).contains(&f), "eclipse fraction {f}");
    }

    #[test]
    fn dawn_dusk_orbit_can_avoid_eclipse() {
        // A polar orbit whose plane contains the terminator (RAAN 90° puts
        // the orbit normal along the Sun line at t=0) never crosses the
        // shadow cylinder at 780 km.
        let el = OrbitalElements::circular(km_to_m(780.0), 90.0, 90.0, 0.0).unwrap();
        let sat = Propagator::new(el, PerturbationModel::TwoBody);
        let f = eclipse_fraction(&sat, 0.0, 720);
        assert_eq!(f, 0.0, "dawn-dusk orbit should be eclipse-free, got {f}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let el = OrbitalElements::circular(km_to_m(780.0), 0.0, 0.0, 0.0).unwrap();
        let sat = Propagator::new(el, PerturbationModel::TwoBody);
        eclipse_fraction(&sat, 0.0, 0);
    }
}
