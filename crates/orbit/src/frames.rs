//! Coordinate frames and conversions.
//!
//! Three frames are used in the stack:
//!
//! * **ECI** (Earth-Centered Inertial): where orbital mechanics happens.
//!   A pseudo-J2000 frame; we ignore precession/nutation, which is far below
//!   the fidelity the OpenSpace study needs.
//! * **ECEF** (Earth-Centered Earth-Fixed): rotates with the Earth; ground
//!   stations and users are fixed here.
//! * **Geodetic** (latitude, longitude, altitude over the WGS84 ellipsoid):
//!   the human-facing frame.
//!
//! The ECI↔ECEF conversion uses a single rotation about the Z axis by the
//! Earth Rotation Angle, with the epoch chosen so that the two frames
//! coincide at simulation time `t = 0`.

use crate::constants::{EARTH_ECCENTRICITY_SQ, EARTH_RADIUS_M, EARTH_ROTATION_RATE_RAD_PER_S};

/// A 3-vector in meters (position) or meters/second (velocity).
///
/// Deliberately frame-agnostic at the type level; the functions below name
/// their frames explicitly. A newtype-per-frame scheme was considered and
/// rejected: the simulation passes millions of these through hot loops and
/// the conversion sites are few and well-audited.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Squared Euclidean norm (avoids the sqrt in comparisons).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Self) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Self) -> Self {
        Self::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Unit vector in the same direction.
    ///
    /// # Panics
    /// Panics if the vector is (numerically) zero.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        self * (1.0 / n)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Self) -> f64 {
        (self - other).norm()
    }

    /// Angle (rad) between this vector and another, in `[0, π]`.
    ///
    /// # Panics
    /// Panics if either vector is zero.
    pub fn angle_to(self, other: Self) -> f64 {
        let denom = self.norm() * other.norm();
        assert!(denom > 0.0, "angle with a zero vector is undefined");
        (self.dot(other) / denom).clamp(-1.0, 1.0).acos()
    }
}

impl std::ops::Add for Vec3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }
}

impl std::ops::Neg for Vec3 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

/// A geodetic position over the WGS84 ellipsoid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geodetic {
    /// Latitude in radians, positive north, in `[-π/2, π/2]`.
    pub lat_rad: f64,
    /// Longitude in radians, positive east, in `(-π, π]`.
    pub lon_rad: f64,
    /// Altitude above the ellipsoid in meters.
    pub alt_m: f64,
}

impl Geodetic {
    /// Construct from degrees and meters — the form the literature uses.
    ///
    /// # Panics
    /// Panics if latitude is outside `[-90°, 90°]`.
    pub fn from_degrees(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Self {
        assert!(
            (-90.0..=90.0).contains(&lat_deg),
            "latitude must be in [-90, 90], got {lat_deg}"
        );
        Self {
            lat_rad: lat_deg.to_radians(),
            lon_rad: normalize_lon(lon_deg.to_radians()),
            alt_m,
        }
    }

    /// Latitude in degrees.
    pub fn lat_deg(&self) -> f64 {
        self.lat_rad.to_degrees()
    }

    /// Longitude in degrees.
    pub fn lon_deg(&self) -> f64 {
        self.lon_rad.to_degrees()
    }
}

/// Normalize a longitude into `(-π, π]`.
#[inline]
pub fn normalize_lon(lon_rad: f64) -> f64 {
    let mut l = lon_rad.rem_euclid(std::f64::consts::TAU);
    if l > std::f64::consts::PI {
        l -= std::f64::consts::TAU;
    }
    l
}

/// Earth Rotation Angle (rad) at simulation time `t_s`, with ERA(0) = 0 so
/// that ECI and ECEF coincide at the simulation epoch.
#[inline]
pub fn earth_rotation_angle_rad(t_s: f64) -> f64 {
    (EARTH_ROTATION_RATE_RAD_PER_S * t_s).rem_euclid(std::f64::consts::TAU)
}

/// Rotate an ECI position into ECEF at simulation time `t_s`.
pub fn eci_to_ecef(p_eci: Vec3, t_s: f64) -> Vec3 {
    let theta = earth_rotation_angle_rad(t_s);
    let (s, c) = theta.sin_cos();
    // ECEF = Rz(+theta) * ECI  (frame rotates with the Earth)
    Vec3::new(
        c * p_eci.x + s * p_eci.y,
        -s * p_eci.x + c * p_eci.y,
        p_eci.z,
    )
}

/// Rotate an ECEF position into ECI at simulation time `t_s`.
pub fn ecef_to_eci(p_ecef: Vec3, t_s: f64) -> Vec3 {
    let theta = earth_rotation_angle_rad(t_s);
    let (s, c) = theta.sin_cos();
    Vec3::new(
        c * p_ecef.x - s * p_ecef.y,
        s * p_ecef.x + c * p_ecef.y,
        p_ecef.z,
    )
}

/// Convert a geodetic position to ECEF using the WGS84 ellipsoid.
pub fn geodetic_to_ecef(g: Geodetic) -> Vec3 {
    let (slat, clat) = g.lat_rad.sin_cos();
    let (slon, clon) = g.lon_rad.sin_cos();
    // Prime-vertical radius of curvature.
    let n = EARTH_RADIUS_M / (1.0 - EARTH_ECCENTRICITY_SQ * slat * slat).sqrt();
    Vec3::new(
        (n + g.alt_m) * clat * clon,
        (n + g.alt_m) * clat * slon,
        (n * (1.0 - EARTH_ECCENTRICITY_SQ) + g.alt_m) * slat,
    )
}

/// Convert an ECEF position to geodetic coordinates.
///
/// Uses Bowring's iterative method; converges to sub-millimeter for any
/// point above the Earth's core.
pub fn ecef_to_geodetic(p: Vec3) -> Geodetic {
    let lon = p.y.atan2(p.x);
    let rho = (p.x * p.x + p.y * p.y).sqrt();
    // Initial guess: spherical latitude.
    let mut lat = p.z.atan2(rho * (1.0 - EARTH_ECCENTRICITY_SQ));
    let mut alt = 0.0;
    for _ in 0..8 {
        let slat = lat.sin();
        let n = EARTH_RADIUS_M / (1.0 - EARTH_ECCENTRICITY_SQ * slat * slat).sqrt();
        alt = if lat.cos().abs() > 1e-9 {
            rho / lat.cos() - n
        } else {
            p.z.abs() - n * (1.0 - EARTH_ECCENTRICITY_SQ)
        };
        let new_lat =
            p.z.atan2(rho * (1.0 - EARTH_ECCENTRICITY_SQ * n / (n + alt)));
        if (new_lat - lat).abs() < 1e-13 {
            lat = new_lat;
            break;
        }
        lat = new_lat;
    }
    Geodetic {
        lat_rad: lat,
        lon_rad: normalize_lon(lon),
        alt_m: alt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        assert!((a - b).abs() < tol, "{what}: {a} vs {b}");
    }

    #[test]
    fn vec3_basic_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_close(a.dot(b), 12.0, 1e-12, "dot");
        assert_eq!(a.cross(b), Vec3::new(27.0, 6.0, -13.0));
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert_close(c.dot(a), 0.0, 1e-9, "c·a");
        assert_close(c.dot(b), 0.0, 1e-9, "c·b");
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = Vec3::new(3.0, 4.0, 12.0).normalized();
        assert_close(v.norm(), 1.0, 1e-12, "norm");
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_panics() {
        Vec3::zero().normalized();
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 2.0, 0.0);
        assert_close(x.angle_to(y), FRAC_PI_2, 1e-12, "angle");
    }

    #[test]
    fn eci_ecef_round_trip() {
        let p = Vec3::new(7.0e6, -1.0e6, 2.0e6);
        for t in [0.0, 1.0, 3600.0, 86_400.0] {
            let back = ecef_to_eci(eci_to_ecef(p, t), t);
            assert_close(back.distance(p), 0.0, 1e-6, "round trip");
        }
    }

    #[test]
    fn frames_coincide_at_epoch() {
        let p = Vec3::new(7.0e6, 1.0e6, -2.0e6);
        assert_eq!(eci_to_ecef(p, 0.0), p);
    }

    #[test]
    fn quarter_sidereal_day_rotates_ninety_degrees() {
        let p = Vec3::new(7.0e6, 0.0, 0.0);
        // A quarter of the 86 164.0905 s sidereal day.
        let t = 86_164.090_5 / 4.0;
        let q = eci_to_ecef(p, t);
        // After a quarter turn, the inertial +X point appears near ECEF -Y.
        assert_close(q.x / 7.0e6, 0.0, 1e-4, "x");
        assert_close(q.y / 7.0e6, -1.0, 1e-4, "y");
    }

    #[test]
    fn geodetic_ecef_round_trip() {
        for (lat, lon, alt) in [
            (0.0, 0.0, 0.0),
            (45.0, 45.0, 1_000.0),
            (-33.9, 18.4, 50.0),
            (89.0, -179.0, 500_000.0),
            (-89.5, 10.0, 780_000.0),
        ] {
            let g = Geodetic::from_degrees(lat, lon, alt);
            let back = ecef_to_geodetic(geodetic_to_ecef(g));
            assert_close(back.lat_deg(), lat, 1e-6, "lat");
            assert_close(back.lon_deg(), lon, 1e-6, "lon");
            assert_close(back.alt_m, alt, 1e-3, "alt");
        }
    }

    #[test]
    fn equator_ecef_is_on_equatorial_radius() {
        let p = geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0));
        assert_close(p.x, EARTH_RADIUS_M, 1e-6, "x");
        assert_close(p.y, 0.0, 1e-6, "y");
        assert_close(p.z, 0.0, 1e-6, "z");
    }

    #[test]
    fn pole_ecef_is_on_polar_radius() {
        let p = geodetic_to_ecef(Geodetic::from_degrees(90.0, 0.0, 0.0));
        // The WGS84 semi-minor axis.
        assert_close(p.z, 6_356_752.314_245, 1e-3, "z");
    }

    #[test]
    fn longitude_normalization() {
        assert_close(normalize_lon(PI + 0.1), -PI + 0.1, 1e-12, "wrap+");
        assert_close(normalize_lon(-PI - 0.1), PI - 0.1, 1e-12, "wrap-");
        assert_close(normalize_lon(3.0 * PI), PI, 1e-9, "3pi");
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn bad_latitude_panics() {
        Geodetic::from_degrees(91.0, 0.0, 0.0);
    }
}
