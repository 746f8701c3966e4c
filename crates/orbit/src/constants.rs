//! Physical and geodetic constants used throughout the orbit crate.
//!
//! All values follow the WGS84 geodetic system and CODATA where applicable.
//! Internal units are SI: meters, seconds, radians, kilograms.

/// Standard gravitational parameter of the Earth, `GM` (m³/s²), WGS84.
pub const EARTH_MU_M3_PER_S2: f64 = 3.986_004_418e14;

/// Mean equatorial radius of the Earth (m), WGS84 semi-major axis.
pub const EARTH_RADIUS_M: f64 = 6_378_137.0;

/// First eccentricity squared of the WGS84 reference ellipsoid.
pub const EARTH_ECCENTRICITY_SQ: f64 = 6.694_379_990_14e-3;

/// Mean volumetric radius of the Earth (m). Used for spherical-cap coverage
/// area computations where an ellipsoid adds nothing.
pub const EARTH_MEAN_RADIUS_M: f64 = 6_371_000.0;

/// Earth's rotation rate (rad/s) relative to the stars (sidereal).
pub const EARTH_ROTATION_RATE_RAD_PER_S: f64 = 7.292_115_146_7e-5;

/// Second zonal harmonic (J2) of Earth's gravity field (dimensionless).
/// Drives the secular drift of RAAN and argument of perigee that the
/// propagator models.
pub const EARTH_J2: f64 = 1.082_626_68e-3;

/// Speed of light in vacuum (m/s). Exact by SI definition.
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// Boltzmann constant (J/K). Exact by SI definition. Re-exported here so the
/// PHY crate shares a single source of truth.
pub const BOLTZMANN_J_PER_K: f64 = 1.380_649e-23;

/// Obliquity of the ecliptic (rad) at epoch J2000, used by the toy solar
/// ephemeris in the eclipse model.
pub const ECLIPTIC_OBLIQUITY_RAD: f64 = 0.409_092_804_2;

/// Convert kilometers to meters.
#[inline]
pub fn km_to_m(km: f64) -> f64 {
    km * 1_000.0
}

/// Convert meters to kilometers.
#[inline]
pub fn m_to_km(m: f64) -> f64 {
    m / 1_000.0
}

/// Orbital period (s) of a circular or elliptical orbit with semi-major axis
/// `a_m`, via Kepler's third law.
///
/// # Panics
/// Panics if `a_m` is not strictly positive.
#[inline]
pub fn orbital_period_s(a_m: f64) -> f64 {
    assert!(a_m > 0.0, "semi-major axis must be positive, got {a_m}");
    std::f64::consts::TAU * (a_m.powi(3) / EARTH_MU_M3_PER_S2).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iridium_orbital_period_is_about_100_minutes() {
        // Iridium: 780 km altitude. Published period ~100.4 min.
        let a = EARTH_RADIUS_M + km_to_m(780.0);
        let period_min = orbital_period_s(a) / 60.0;
        assert!(
            (period_min - 100.4).abs() < 0.5,
            "got {period_min} min, expected ~100.4 min"
        );
    }

    #[test]
    fn km_m_round_trip() {
        assert_eq!(m_to_km(km_to_m(780.0)), 780.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_sma_period_panics() {
        orbital_period_s(-1.0);
    }

    #[test]
    fn sidereal_day_consistent_with_rotation_rate() {
        // Rotation rate consistent with sidereal day length (which is
        // shorter than the 86 400 s solar day).
        let derived = std::f64::consts::TAU / EARTH_ROTATION_RATE_RAD_PER_S;
        // One sidereal day is 86 164.0905 s.
        assert!((derived - 86_164.090_5).abs() < 1.0);
        assert!(derived < 86_400.0);
    }
}
