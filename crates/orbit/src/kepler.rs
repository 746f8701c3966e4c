//! Classical (Keplerian) orbital elements and the Kepler-equation solver.
//!
//! Elements follow the conventional set `(a, e, i, Ω, ω, M)`:
//! semi-major axis, eccentricity, inclination, right ascension of the
//! ascending node (RAAN), argument of perigee, and mean anomaly.

use crate::constants::{orbital_period_s, EARTH_MU_M3_PER_S2, EARTH_RADIUS_M};
use crate::frames::Vec3;
use std::f64::consts::TAU;

/// Error returned when a set of orbital elements is physically invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementsError {
    /// Semi-major axis must be strictly positive (elliptical orbits only).
    NonPositiveSemiMajorAxis(f64),
    /// Eccentricity must be in `[0, 1)` — this stack models bound orbits.
    EccentricityOutOfRange(f64),
    /// Perigee must clear the Earth's surface.
    PerigeeBelowSurface { perigee_m: f64 },
    /// Inclination must be in `[0, π]`.
    InclinationOutOfRange(f64),
}

impl std::fmt::Display for ElementsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositiveSemiMajorAxis(a) => {
                write!(f, "semi-major axis must be positive, got {a} m")
            }
            Self::EccentricityOutOfRange(e) => {
                write!(f, "eccentricity must be in [0,1), got {e}")
            }
            Self::PerigeeBelowSurface { perigee_m } => {
                write!(
                    f,
                    "perigee radius {perigee_m} m is below the Earth's surface"
                )
            }
            Self::InclinationOutOfRange(i) => {
                write!(f, "inclination must be in [0,pi], got {i} rad")
            }
        }
    }
}

impl std::error::Error for ElementsError {}

/// Classical orbital elements of a bound Earth orbit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitalElements {
    /// Semi-major axis (m).
    pub semi_major_axis_m: f64,
    /// Eccentricity, in `[0, 1)`.
    pub eccentricity: f64,
    /// Inclination (rad), in `[0, π]`.
    pub inclination_rad: f64,
    /// Right ascension of the ascending node (rad).
    pub raan_rad: f64,
    /// Argument of perigee (rad).
    pub arg_perigee_rad: f64,
    /// Mean anomaly at epoch (rad).
    pub mean_anomaly_rad: f64,
}

impl OrbitalElements {
    /// Validate and construct a set of elements.
    pub fn new(
        semi_major_axis_m: f64,
        eccentricity: f64,
        inclination_rad: f64,
        raan_rad: f64,
        arg_perigee_rad: f64,
        mean_anomaly_rad: f64,
    ) -> Result<Self, ElementsError> {
        // NaN must fail too, hence the negated comparison spelled out.
        if semi_major_axis_m.is_nan() || semi_major_axis_m <= 0.0 {
            return Err(ElementsError::NonPositiveSemiMajorAxis(semi_major_axis_m));
        }
        if !(0.0..1.0).contains(&eccentricity) {
            return Err(ElementsError::EccentricityOutOfRange(eccentricity));
        }
        if !(0.0..=std::f64::consts::PI).contains(&inclination_rad) {
            return Err(ElementsError::InclinationOutOfRange(inclination_rad));
        }
        let perigee = semi_major_axis_m * (1.0 - eccentricity);
        if perigee < EARTH_RADIUS_M {
            return Err(ElementsError::PerigeeBelowSurface { perigee_m: perigee });
        }
        Ok(Self {
            semi_major_axis_m,
            eccentricity,
            inclination_rad,
            raan_rad: raan_rad.rem_euclid(TAU),
            arg_perigee_rad: arg_perigee_rad.rem_euclid(TAU),
            mean_anomaly_rad: mean_anomaly_rad.rem_euclid(TAU),
        })
    }

    /// Circular orbit at the given altitude — the constellation-building
    /// common case. Angles in degrees, matching how constellations are
    /// specified in the literature (e.g. "780 km at 86.4°").
    pub fn circular(
        altitude_m: f64,
        inclination_deg: f64,
        raan_deg: f64,
        mean_anomaly_deg: f64,
    ) -> Result<Self, ElementsError> {
        Self::new(
            EARTH_RADIUS_M + altitude_m,
            0.0,
            inclination_deg.to_radians(),
            raan_deg.to_radians(),
            0.0,
            mean_anomaly_deg.to_radians(),
        )
    }

    /// Orbital period (s) via Kepler's third law.
    pub fn period_s(&self) -> f64 {
        orbital_period_s(self.semi_major_axis_m)
    }

    /// Mean motion (rad/s).
    pub fn mean_motion_rad_per_s(&self) -> f64 {
        TAU / self.period_s()
    }

    /// Perigee radius (m).
    pub fn perigee_radius_m(&self) -> f64 {
        self.semi_major_axis_m * (1.0 - self.eccentricity)
    }

    /// Apogee radius (m).
    pub fn apogee_radius_m(&self) -> f64 {
        self.semi_major_axis_m * (1.0 + self.eccentricity)
    }

    /// Altitude of a circular orbit (m above the equatorial radius).
    pub fn altitude_m(&self) -> f64 {
        self.semi_major_axis_m - EARTH_RADIUS_M
    }
}

/// Solve Kepler's equation `M = E - e·sin(E)` for the eccentric anomaly `E`.
///
/// Newton–Raphson with a third-order starter; converges in ≤ 5 iterations
/// for all `e < 0.99`. Input and output in radians.
pub fn solve_kepler(mean_anomaly_rad: f64, eccentricity: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&eccentricity));
    let m = mean_anomaly_rad.rem_euclid(TAU);
    // Starter from Danby (1987): E0 = M + 0.85·e·sign(sin M)
    let mut e_anom = m + 0.85 * eccentricity * m.sin().signum();
    for _ in 0..10 {
        let f = e_anom - eccentricity * e_anom.sin() - m;
        let fp = 1.0 - eccentricity * e_anom.cos();
        let delta = f / fp;
        e_anom -= delta;
        if delta.abs() < 1e-14 {
            break;
        }
    }
    e_anom
}

/// True anomaly (rad) from eccentric anomaly.
pub fn true_anomaly_from_eccentric(e_anom_rad: f64, eccentricity: f64) -> f64 {
    let half = e_anom_rad / 2.0;
    2.0 * (((1.0 + eccentricity) / (1.0 - eccentricity)).sqrt() * half.tan()).atan()
}

/// ECI position and velocity at a given set of elements (epoch state).
///
/// Standard perifocal-to-ECI rotation via the 3-1-3 Euler sequence
/// `Rz(-Ω)·Rx(-i)·Rz(-ω)`.
pub fn elements_to_state(el: &OrbitalElements) -> (Vec3, Vec3) {
    let e = el.eccentricity;
    let e_anom = solve_kepler(el.mean_anomaly_rad, e);
    let nu = true_anomaly_from_eccentric(e_anom, e);
    let p = el.semi_major_axis_m * (1.0 - e * e); // semi-latus rectum
    let r = p / (1.0 + e * nu.cos());

    // Perifocal coordinates.
    let (snu, cnu) = nu.sin_cos();
    let r_pf = Vec3::new(r * cnu, r * snu, 0.0);
    let vf = (EARTH_MU_M3_PER_S2 / p).sqrt();
    let v_pf = Vec3::new(-vf * snu, vf * (e + cnu), 0.0);

    let (so, co) = el.raan_rad.sin_cos();
    let (si, ci) = el.inclination_rad.sin_cos();
    let (sw, cw) = el.arg_perigee_rad.sin_cos();

    // Rotation matrix rows (perifocal -> ECI).
    let r11 = co * cw - so * sw * ci;
    let r12 = -co * sw - so * cw * ci;
    let r21 = so * cw + co * sw * ci;
    let r22 = -so * sw + co * cw * ci;
    let r31 = sw * si;
    let r32 = cw * si;

    let rot = |v: Vec3| {
        Vec3::new(
            r11 * v.x + r12 * v.y,
            r21 * v.x + r22 * v.y,
            r31 * v.x + r32 * v.y,
        )
    };
    (rot(r_pf), rot(v_pf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;

    fn iridium_like() -> OrbitalElements {
        OrbitalElements::circular(km_to_m(780.0), 86.4, 0.0, 0.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            OrbitalElements::new(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            Err(ElementsError::NonPositiveSemiMajorAxis(_))
        ));
        assert!(matches!(
            OrbitalElements::new(7e6, 1.5, 0.0, 0.0, 0.0, 0.0),
            Err(ElementsError::EccentricityOutOfRange(_))
        ));
        assert!(matches!(
            OrbitalElements::new(7e6, 0.5, 0.0, 0.0, 0.0, 0.0),
            Err(ElementsError::PerigeeBelowSurface { .. })
        ));
        assert!(matches!(
            OrbitalElements::new(7.2e6, 0.0, -0.1, 0.0, 0.0, 0.0),
            Err(ElementsError::InclinationOutOfRange(_))
        ));
        assert!(iridium_like().period_s() > 0.0);
    }

    #[test]
    fn angles_are_normalized_on_construction() {
        let el = OrbitalElements::new(7.2e6, 0.0, 1.0, -1.0, 7.0, 13.0).unwrap();
        assert!((0.0..TAU).contains(&el.raan_rad));
        assert!((0.0..TAU).contains(&el.arg_perigee_rad));
        assert!((0.0..TAU).contains(&el.mean_anomaly_rad));
    }

    #[test]
    fn kepler_solver_circular_is_identity() {
        for m in [0.0, 0.5, 1.0, 3.0, 6.0] {
            assert!((solve_kepler(m, 0.0) - m).abs() < 1e-14);
        }
    }

    #[test]
    fn kepler_solver_satisfies_equation() {
        for e in [0.01, 0.1, 0.5, 0.9, 0.97] {
            for m in [0.1, 1.0, 2.0, 3.3, 4.5, 6.0] {
                let big_e = solve_kepler(m, e);
                let back = big_e - e * big_e.sin();
                assert!(
                    (back - m.rem_euclid(TAU)).abs() < 1e-10,
                    "e={e} m={m}: residual {}",
                    back - m
                );
            }
        }
    }

    #[test]
    fn circular_state_has_circular_speed_and_radius() {
        let el = iridium_like();
        let (r, v) = elements_to_state(&el);
        let expect_r = EARTH_RADIUS_M + km_to_m(780.0);
        assert!((r.norm() - expect_r).abs() < 1.0, "radius {}", r.norm());
        let expect_v = (EARTH_MU_M3_PER_S2 / expect_r).sqrt();
        assert!((v.norm() - expect_v).abs() < 0.1, "speed {}", v.norm());
    }

    #[test]
    fn position_velocity_orthogonal_for_circular_orbit() {
        let el = OrbitalElements::circular(km_to_m(550.0), 53.0, 30.0, 120.0).unwrap();
        let (r, v) = elements_to_state(&el);
        assert!(r.dot(v).abs() / (r.norm() * v.norm()) < 1e-9);
    }

    #[test]
    fn angular_momentum_matches_vis_viva() {
        let el = OrbitalElements::new(7.2e6, 0.1, 1.0, 0.5, 0.3, 2.0).unwrap();
        let (r, v) = elements_to_state(&el);
        let h = r.cross(v).norm();
        let p = el.semi_major_axis_m * (1.0 - el.eccentricity * el.eccentricity);
        let expect = (EARTH_MU_M3_PER_S2 * p).sqrt();
        assert!((h - expect).abs() / expect < 1e-10);
    }

    #[test]
    fn energy_matches_semi_major_axis() {
        let el = OrbitalElements::new(7.5e6, 0.05, 0.7, 1.0, 2.0, 4.0).unwrap();
        let (r, v) = elements_to_state(&el);
        let energy = v.norm_sq() / 2.0 - EARTH_MU_M3_PER_S2 / r.norm();
        let expect = -EARTH_MU_M3_PER_S2 / (2.0 * el.semi_major_axis_m);
        assert!((energy - expect).abs() / expect.abs() < 1e-10);
    }

    #[test]
    fn inclination_recovered_from_state() {
        let el = OrbitalElements::circular(km_to_m(780.0), 86.4, 45.0, 10.0).unwrap();
        let (r, v) = elements_to_state(&el);
        let h = r.cross(v);
        let inc = (h.z / h.norm()).acos();
        assert!((inc - 86.4f64.to_radians()).abs() < 1e-9);
    }

    #[test]
    fn perigee_apogee_bracket_orbit() {
        let el = OrbitalElements::new(7.5e6, 0.08, 1.2, 0.0, 0.0, 0.0).unwrap();
        assert!(el.perigee_radius_m() < el.semi_major_axis_m);
        assert!(el.apogee_radius_m() > el.semi_major_axis_m);
        let (r, _) = elements_to_state(&el);
        assert!(r.norm() >= el.perigee_radius_m() - 1e-3);
        assert!(r.norm() <= el.apogee_radius_m() + 1e-3);
    }

    #[test]
    fn true_anomaly_at_perigee_and_apogee() {
        assert!((true_anomaly_from_eccentric(0.0, 0.3)).abs() < 1e-12);
        let nu_apogee = true_anomaly_from_eccentric(std::f64::consts::PI - 1e-9, 0.3);
        assert!((nu_apogee.abs() - std::f64::consts::PI).abs() < 1e-4);
    }
}
