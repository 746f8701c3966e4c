//! Orbit propagation: two-body Keplerian motion with optional secular J2
//! perturbations.
//!
//! The OpenSpace study needs orbital *predictability* over hours to days,
//! which secular J2 captures (nodal regression and apsidal rotation are the
//! dominant LEO perturbations). Short-period J2 oscillations, drag, and
//! higher harmonics are below the fidelity needed to evaluate coverage and
//! routing and are deliberately out of scope (documented substitution in
//! DESIGN.md).

use crate::constants::{EARTH_J2, EARTH_MU_M3_PER_S2, EARTH_RADIUS_M};
use crate::frames::Vec3;
use crate::kepler::{elements_to_state, OrbitalElements};

/// Propagation model selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PerturbationModel {
    /// Pure two-body motion: only the mean anomaly advances.
    TwoBody,
    /// Two-body plus secular J2 drift of RAAN, argument of perigee, and
    /// mean anomaly. The default: this is what makes polar constellations
    /// precess realistically.
    #[default]
    SecularJ2,
}

/// A deterministic orbit propagator for one satellite.
///
/// Cheap to copy; the per-step cost is one Kepler solve plus a rotation.
#[derive(Debug, Clone, Copy)]
pub struct Propagator {
    elements: OrbitalElements,
    model: PerturbationModel,
    /// Secular rates (rad/s), precomputed at construction.
    raan_rate: f64,
    argp_rate: f64,
    mean_anomaly_rate: f64,
}

impl Propagator {
    /// Build a propagator from epoch elements with the given model.
    pub fn new(elements: OrbitalElements, model: PerturbationModel) -> Self {
        let n = elements.mean_motion_rad_per_s();
        let a = elements.semi_major_axis_m;
        let e = elements.eccentricity;
        let i = elements.inclination_rad;
        let (raan_rate, argp_rate, mn_corr) = match model {
            PerturbationModel::TwoBody => (0.0, 0.0, 0.0),
            PerturbationModel::SecularJ2 => {
                let p = a * (1.0 - e * e);
                let factor = 1.5 * EARTH_J2 * (EARTH_RADIUS_M / p).powi(2) * n;
                let ci = i.cos();
                let si2 = i.sin().powi(2);
                let raan_dot = -factor * ci;
                let argp_dot = factor * (2.0 - 2.5 * si2);
                let mn_dot = factor * (1.0 - 1.5 * si2) * (1.0 - e * e).sqrt();
                (raan_dot, argp_dot, mn_dot)
            }
        };
        Self {
            elements,
            model,
            raan_rate,
            argp_rate,
            mean_anomaly_rate: n + mn_corr,
        }
    }

    /// Epoch elements this propagator was built from.
    pub fn elements(&self) -> &OrbitalElements {
        &self.elements
    }

    /// The perturbation model in use.
    pub fn model(&self) -> PerturbationModel {
        self.model
    }

    /// Tight geocentric radius bounds `(r_min, r_max)` in metres over the
    /// whole trajectory.
    ///
    /// Exact, not approximate: both propagation models keep the shape
    /// elements (`a`, `e`) fixed and only advance angles, so the radius
    /// always lies in `[a(1−e), a(1+e)]` — the perigee and apogee radii —
    /// and attains both endpoints each revolution.
    pub fn radius_bounds_m(&self) -> (f64, f64) {
        (
            self.elements.perigee_radius_m(),
            self.elements.apogee_radius_m(),
        )
    }

    /// A sound upper bound (m/s) on the inertial (ECI) speed of this
    /// satellite, valid for all times.
    ///
    /// Decompose the motion of [`Self::position_eci`]: the in-plane part
    /// is the Kepler ellipse traversed with the mean anomaly advancing at
    /// `ṁ` instead of `n`, i.e. the two-body trajectory with time scaled
    /// by `ṁ/n`, so its speed is at most `v_perigee · max(ṁ/n, 1)` with
    /// `v_perigee = sqrt(μ·(2/r_min − 1/a))` (vis-viva at the ellipse's
    /// fastest point; the `max` with 1 only ever loosens the bound).
    /// The secular drifts rotate that ellipse about fixed axes at rates
    /// `Ω̇` and `ω̇`; a rotation at rate `w` moves a point at radius `r`
    /// at speed at most `w·r`, adding at most `(|Ω̇| + |ω̇|)·r_max`.
    ///
    /// The horizon-skip contact scanner divides this (plus the Earth-
    /// rotation term for the ECEF frame) by a minimum slant range to
    /// bound the elevation-angle rate — see `openspace-net::contact`.
    pub fn max_speed_m_per_s(&self) -> f64 {
        let a = self.elements.semi_major_axis_m;
        let (r_min, r_max) = self.radius_bounds_m();
        let n = self.elements.mean_motion_rad_per_s();
        let v_perigee = (EARTH_MU_M3_PER_S2 * (2.0 / r_min - 1.0 / a)).sqrt();
        let time_scale = (self.mean_anomaly_rate.abs() / n).max(1.0);
        v_perigee * time_scale + (self.raan_rate.abs() + self.argp_rate.abs()) * r_max
    }

    /// Osculating elements at time `t_s` after epoch.
    pub fn elements_at(&self, t_s: f64) -> OrbitalElements {
        let mut el = self.elements;
        el.raan_rad = (el.raan_rad + self.raan_rate * t_s).rem_euclid(std::f64::consts::TAU);
        el.arg_perigee_rad =
            (el.arg_perigee_rad + self.argp_rate * t_s).rem_euclid(std::f64::consts::TAU);
        el.mean_anomaly_rad =
            (el.mean_anomaly_rad + self.mean_anomaly_rate * t_s).rem_euclid(std::f64::consts::TAU);
        el
    }

    /// ECI position (m) at time `t_s` after epoch.
    pub fn position_eci(&self, t_s: f64) -> Vec3 {
        elements_to_state(&self.elements_at(t_s)).0
    }

    /// ECI position and velocity at time `t_s` after epoch.
    pub fn state_eci(&self, t_s: f64) -> (Vec3, Vec3) {
        elements_to_state(&self.elements_at(t_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;

    fn leo(inc_deg: f64) -> OrbitalElements {
        OrbitalElements::circular(km_to_m(780.0), inc_deg, 0.0, 0.0).unwrap()
    }

    #[test]
    fn two_body_returns_to_start_after_one_period() {
        let prop = Propagator::new(leo(86.4), PerturbationModel::TwoBody);
        let p0 = prop.position_eci(0.0);
        let p1 = prop.position_eci(prop.elements().period_s());
        assert!(p0.distance(p1) < 1.0, "drift {} m", p0.distance(p1));
    }

    #[test]
    fn radius_stays_constant_for_circular_orbit() {
        let prop = Propagator::new(leo(53.0), PerturbationModel::SecularJ2);
        let r0 = prop.position_eci(0.0).norm();
        for k in 1..100 {
            let r = prop.position_eci(k as f64 * 60.0).norm();
            assert!((r - r0).abs() < 1.0, "t={}min r drift {}", k, r - r0);
        }
    }

    #[test]
    fn j2_regresses_node_westward_for_prograde_orbit() {
        let prop = Propagator::new(leo(53.0), PerturbationModel::SecularJ2);
        assert!(prop.raan_rate < 0.0, "prograde orbits regress westward");
        // Published magnitude for 780 km / 53 deg is ~ -4.1e-7 rad/s
        // (≈ -2 deg/day). Check the ballpark.
        let deg_per_day = prop.raan_rate.to_degrees() * 86_400.0;
        assert!(
            (-6.0..-2.0).contains(&deg_per_day),
            "RAAN rate {deg_per_day} deg/day out of LEO ballpark"
        );
    }

    #[test]
    fn j2_advances_node_eastward_for_retrograde_orbit() {
        let el = OrbitalElements::circular(km_to_m(780.0), 98.0, 0.0, 0.0).unwrap();
        let prop = Propagator::new(el, PerturbationModel::SecularJ2);
        assert!(prop.raan_rate > 0.0);
    }

    #[test]
    fn near_polar_orbit_has_small_nodal_regression() {
        let prop_polar = Propagator::new(leo(89.9), PerturbationModel::SecularJ2);
        let prop_mid = Propagator::new(leo(45.0), PerturbationModel::SecularJ2);
        assert!(prop_polar.raan_rate.abs() < prop_mid.raan_rate.abs() / 10.0);
    }

    #[test]
    fn two_body_and_j2_agree_at_epoch() {
        let el = leo(86.4);
        let a = Propagator::new(el, PerturbationModel::TwoBody).position_eci(0.0);
        let b = Propagator::new(el, PerturbationModel::SecularJ2).position_eci(0.0);
        assert!(a.distance(b) < 1e-6);
    }

    #[test]
    fn propagation_is_deterministic() {
        let prop = Propagator::new(leo(86.4), PerturbationModel::SecularJ2);
        let a = prop.position_eci(12_345.6);
        let b = prop.position_eci(12_345.6);
        assert_eq!(a, b);
    }

    #[test]
    fn radius_bounds_contain_sampled_radii() {
        let el = OrbitalElements::new(7.2e6, 0.02, 1.2, 0.5, 0.3, 0.1).unwrap();
        for model in [PerturbationModel::TwoBody, PerturbationModel::SecularJ2] {
            let prop = Propagator::new(el, model);
            let (r_min, r_max) = prop.radius_bounds_m();
            assert!(r_min <= r_max);
            for k in 0..500 {
                let r = prop.position_eci(k as f64 * 37.0).norm();
                assert!(
                    (r_min * (1.0 - 1e-9)..=r_max * (1.0 + 1e-9)).contains(&r),
                    "t={} r={r} outside [{r_min}, {r_max}]",
                    k as f64 * 37.0
                );
            }
        }
    }

    #[test]
    fn max_speed_bounds_finite_difference_speed() {
        // Sample the trajectory densely (including an eccentric orbit so
        // the perigee term binds) and check that no chord speed exceeds
        // the bound. Chord speed <= true max speed, so this is a valid
        // one-sided check of soundness.
        let els = [
            leo(86.4),
            OrbitalElements::new(7.2e6, 0.05, 1.7, 0.5, 0.3, 0.1).unwrap(),
        ];
        for el in els {
            for model in [PerturbationModel::TwoBody, PerturbationModel::SecularJ2] {
                let prop = Propagator::new(el, model);
                let v_max = prop.max_speed_m_per_s();
                assert!(v_max.is_finite() && v_max > 0.0);
                let h = 0.25;
                for k in 0..4000 {
                    let t = k as f64 * 1.7;
                    let v = prop.position_eci(t).distance(prop.position_eci(t + h)) / h;
                    assert!(v <= v_max, "t={t}: chord speed {v} > bound {v_max}");
                }
                // And the bound is tight-ish: within 25% of the fastest
                // observed chord speed (it is a bound, not an estimate).
                let fastest = (0..4000)
                    .map(|k| {
                        let t = k as f64 * 1.7;
                        prop.position_eci(t).distance(prop.position_eci(t + h)) / h
                    })
                    .fold(0.0, f64::max);
                assert!(
                    v_max < fastest * 1.25,
                    "bound {v_max} vs observed {fastest}"
                );
            }
        }
    }

    #[test]
    fn elements_at_preserves_shape_parameters() {
        let el = OrbitalElements::new(7.2e6, 0.01, 1.2, 0.5, 0.3, 0.1).unwrap();
        let prop = Propagator::new(el, PerturbationModel::SecularJ2);
        let later = prop.elements_at(10_000.0);
        assert_eq!(later.semi_major_axis_m, el.semi_major_axis_m);
        assert_eq!(later.eccentricity, el.eccentricity);
        assert_eq!(later.inclination_rad, el.inclination_rad);
    }
}
