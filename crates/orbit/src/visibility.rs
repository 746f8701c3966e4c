//! Visibility geometry: line-of-sight between satellites, elevation angles
//! from ground points, slant ranges, and footprint half-angles.
//!
//! These are the geometric primitives behind user association, ISL
//! feasibility, and the coverage study.
//!
//! # Earth-radius conventions
//!
//! Two radii coexist in this module, deliberately:
//!
//! * [`line_of_sight`]/[`line_of_sight_with_clearance`] (and therefore
//!   every ISL feasibility test) treat the Earth as a sphere of
//!   [`EARTH_RADIUS_M`] — the *equatorial* radius. A grazing ray is
//!   blocked by the widest part of the planet, so the equatorial radius
//!   is the conservative occluder.
//! * Footprint math ([`coverage_half_angle_rad`], [`cap_fraction`]) uses
//!   [`EARTH_MEAN_RADIUS_M`]: coverage fractions integrate over the whole
//!   globe, where the mean radius minimizes area error.
//!
//! The two constants differ by ~7.1 km. Code that *prunes* candidates by
//! range (the gated snapshot builder and horizon-skip contact scanner in
//! `openspace-net`) must not silently assume either convention: those
//! paths derive their gates from [`slant_range_at_elevation_m`] using the
//! **actual** geocentric radii of the ground point and satellite
//! (`|ground|`, `|sat|`), so the convention split cannot make a gate
//! optimistic. A regression test below
//! (`slant_range_pivot_is_convention_independent`) pins that the pivot
//! formula evaluated at the true site radius bounds the true slant range
//! no matter which constant the site position was generated from.

use crate::constants::{EARTH_MEAN_RADIUS_M, EARTH_RADIUS_M};
use crate::frames::Vec3;

/// True when the straight segment between two ECI/ECEF points clears the
/// Earth (modeled as a sphere of `EARTH_RADIUS_M`), i.e. an inter-satellite
/// link is geometrically feasible.
///
/// Both endpoints must be *outside* the sphere; if either is inside, the
/// answer is `false`.
pub fn line_of_sight(a: Vec3, b: Vec3) -> bool {
    line_of_sight_with_clearance(a, b, 0.0)
}

/// Like [`line_of_sight`] but requires the ray to clear the surface by an
/// extra `clearance_m` — used to keep optical ISLs out of the densest
/// atmosphere (grazing links suffer refraction and attenuation).
pub fn line_of_sight_with_clearance(a: Vec3, b: Vec3, clearance_m: f64) -> bool {
    let r_min = EARTH_RADIUS_M + clearance_m;
    let r_min_sq = r_min * r_min;
    if a.norm_sq() < r_min_sq || b.norm_sq() < r_min_sq {
        return false;
    }
    let ab = b - a;
    let ab_len_sq = ab.norm_sq();
    if ab_len_sq == 0.0 {
        return true; // coincident points above the surface
    }
    // Closest point of the segment to the origin.
    let t = (-a.dot(ab) / ab_len_sq).clamp(0.0, 1.0);
    let closest = a + ab * t;
    closest.norm_sq() >= r_min_sq
}

/// Elevation angle (rad) of a satellite as seen from a ground point.
///
/// `ground` and `sat` must be in the same frame (use ECEF). Positive when
/// the satellite is above the local horizon. Returns values in
/// `[-π/2, π/2]`, or NaN for a non-finite position.
///
/// # Panics
/// Panics if the two positions coincide.
pub fn elevation_angle_rad(ground: Vec3, sat: Vec3) -> f64 {
    let up = ground.normalized();
    let to_sat = sat - ground;
    let n = to_sat.norm();
    assert!(n != 0.0, "satellite coincides with ground point");
    (up.dot(to_sat) / n).clamp(-1.0, 1.0).asin()
}

/// Slant range (m) between a ground point and a satellite (same frame).
pub fn slant_range_m(ground: Vec3, sat: Vec3) -> f64 {
    ground.distance(sat)
}

/// True when the satellite is visible from the ground point at an elevation
/// of at least `min_elevation_rad`.
pub fn is_visible(ground: Vec3, sat: Vec3, min_elevation_rad: f64) -> bool {
    elevation_angle_rad(ground, sat) >= min_elevation_rad
}

/// Earth-central half-angle (rad) of the coverage cap of a satellite at
/// altitude `altitude_m` serving users down to elevation `min_elevation_rad`.
///
/// Standard geometry: with `ρ = R/(R+h)`, the half-angle is
/// `λ = acos(ρ·cos ε) − ε`. At `ε = 0` this is the horizon-limited
/// footprint.
pub fn coverage_half_angle_rad(altitude_m: f64, min_elevation_rad: f64) -> f64 {
    assert!(altitude_m > 0.0, "altitude must be positive");
    let rho = EARTH_MEAN_RADIUS_M / (EARTH_MEAN_RADIUS_M + altitude_m);
    (rho * min_elevation_rad.cos()).acos() - min_elevation_rad
}

/// Fraction of the Earth's surface covered by one spherical cap.
pub fn cap_fraction(half_angle_rad: f64) -> f64 {
    (1.0 - half_angle_rad.cos()) / 2.0
}

/// Slant range (m) from a ground point at geocentric radius
/// `site_radius_m` to a satellite at geocentric radius `sat_radius_m`
/// seen at exactly `elevation_rad` above the local (geocentric) horizon.
///
/// Law of cosines in the Earth-center/ground/satellite triangle: the
/// angle at the ground vertex between the local up direction and the
/// line of sight is `π/2 − e`, so
/// `r² = R² + d² + 2·R·d·sin e`, giving
/// `d = sqrt(r² − R²·cos²e) − R·sin e`.
///
/// The slant range is **strictly decreasing in elevation** and
/// **increasing in satellite radius**, which makes this single formula
/// the pivot for both geometric gates used by the fast kernels in
/// `openspace-net`:
///
/// * a satellite at elevation **≥** `e` is at distance **≤**
///   `slant_range_at_elevation_m(R, r_max, e)` — the ground-link range
///   prune in the snapshot builder;
/// * a satellite at elevation **≤** `e` is at distance **≥**
///   `slant_range_at_elevation_m(R, r_min, e)` — the minimum-distance
///   denominator in the horizon-skip elevation-rate bound.
///
/// Returns `NaN` when `sat_radius_m < site_radius_m·|cos e|` (no such
/// triangle exists); callers gate on finiteness.
pub fn slant_range_at_elevation_m(
    site_radius_m: f64,
    sat_radius_m: f64,
    elevation_rad: f64,
) -> f64 {
    let (se, ce) = elevation_rad.sin_cos();
    (sat_radius_m * sat_radius_m - (site_radius_m * ce).powi(2)).sqrt() - site_radius_m * se
}

/// Combined visibility test and slant range: `Some(range_m)` when `sat`
/// is at elevation of at least `min_elevation_rad` above `ground`'s
/// horizon, `None` otherwise (including for a non-finite position).
///
/// Costs a single vector norm per call, where calling [`is_visible`]
/// followed by [`slant_range_m`] costs two. The visibility decision and
/// the returned range are **bitwise identical** to that two-call
/// sequence: the elevation expression is the same as
/// [`elevation_angle_rad`]'s, and `|sat − ground|` equals
/// `|ground − sat|` exactly in IEEE arithmetic (negation is exact, and
/// squaring erases the sign before the sum).
///
/// # Panics
/// Panics if the two positions coincide.
pub fn visible_slant_range_m(ground: Vec3, sat: Vec3, min_elevation_rad: f64) -> Option<f64> {
    let up = ground.normalized();
    let to_sat = sat - ground;
    let n = to_sat.norm();
    assert!(n != 0.0, "satellite coincides with ground point");
    let elevation = (up.dot(to_sat) / n).clamp(-1.0, 1.0).asin();
    (elevation >= min_elevation_rad).then_some(n)
}

/// Look angles from a ground site to a satellite: azimuth (rad, clockwise
/// from true north) and elevation (rad). Both positions in ECEF.
///
/// This is what a ground antenna actually slews to — the terminal-side
/// counterpart of the satellite-side pointing in `openspace-phy`.
///
/// # Panics
/// Panics if the two positions coincide or the ground point is at the
/// Earth's center.
pub fn look_angles_rad(ground_ecef: Vec3, sat_ecef: Vec3) -> (f64, f64) {
    let up = ground_ecef.normalized();
    // Local East-North-Up basis at the ground point.
    let east = Vec3::new(-ground_ecef.y, ground_ecef.x, 0.0);
    assert!(
        east.norm() > 0.0,
        "look angles are undefined exactly at the poles' axis"
    );
    let east = east.normalized();
    let north = up.cross(east);
    let los = sat_ecef - ground_ecef;
    let n = los.norm();
    assert!(n > 0.0, "satellite coincides with ground point");
    let e = los.dot(east) / n;
    let nn = los.dot(north) / n;
    let u = los.dot(up) / n;
    let azimuth = e.atan2(nn).rem_euclid(std::f64::consts::TAU);
    (azimuth, u.clamp(-1.0, 1.0).asin())
}

/// Maximum geometric ISL range (m) between two satellites at altitudes
/// `h1_m` and `h2_m` whose connecting ray must clear the surface by
/// `clearance_m`.
pub fn max_isl_range_m(h1_m: f64, h2_m: f64, clearance_m: f64) -> f64 {
    let rc = EARTH_RADIUS_M + clearance_m;
    let r1 = EARTH_RADIUS_M + h1_m;
    let r2 = EARTH_RADIUS_M + h2_m;
    assert!(r1 >= rc && r2 >= rc, "satellites below clearance shell");
    (r1 * r1 - rc * rc).sqrt() + (r2 * r2 - rc * rc).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;
    use std::f64::consts::FRAC_PI_2;

    const H780: f64 = 780_000.0;

    #[test]
    fn opposite_satellites_have_no_los() {
        let a = Vec3::new(EARTH_RADIUS_M + H780, 0.0, 0.0);
        let b = Vec3::new(-(EARTH_RADIUS_M + H780), 0.0, 0.0);
        assert!(!line_of_sight(a, b));
    }

    #[test]
    fn adjacent_satellites_have_los() {
        let r = EARTH_RADIUS_M + H780;
        let a = Vec3::new(r, 0.0, 0.0);
        let th = 20f64.to_radians();
        let b = Vec3::new(r * th.cos(), r * th.sin(), 0.0);
        assert!(line_of_sight(a, b));
    }

    #[test]
    fn los_clearance_tightens_the_test() {
        // Two satellites whose connecting chord grazes ~100 km above the
        // surface: visible with zero clearance, blocked with 200 km.
        let r = EARTH_RADIUS_M + H780;
        // Chord at central angle 2θ has minimum radius r·cos(θ).
        // Pick θ with r·cosθ = EARTH_RADIUS_M + 100 km.
        let theta = ((EARTH_RADIUS_M + km_to_m(100.0)) / r).acos();
        let a = Vec3::new(r * theta.cos(), -r * theta.sin(), 0.0);
        let b = Vec3::new(r * theta.cos(), r * theta.sin(), 0.0);
        assert!(line_of_sight_with_clearance(a, b, 0.0));
        assert!(!line_of_sight_with_clearance(a, b, km_to_m(200.0)));
    }

    #[test]
    fn endpoint_inside_earth_has_no_los() {
        let a = Vec3::new(1.0e6, 0.0, 0.0);
        let b = Vec3::new(EARTH_RADIUS_M + H780, 0.0, 0.0);
        assert!(!line_of_sight(a, b));
    }

    #[test]
    fn coincident_points_have_los() {
        let a = Vec3::new(EARTH_RADIUS_M + H780, 0.0, 0.0);
        assert!(line_of_sight(a, a));
    }

    #[test]
    fn zenith_satellite_has_90_deg_elevation() {
        let g = Vec3::new(EARTH_RADIUS_M, 0.0, 0.0);
        let s = Vec3::new(EARTH_RADIUS_M + H780, 0.0, 0.0);
        // asin near 1 amplifies rounding; 1e-6 rad is still sub-arcsecond.
        assert!((elevation_angle_rad(g, s) - FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn antipodal_satellite_has_negative_elevation() {
        let g = Vec3::new(EARTH_RADIUS_M, 0.0, 0.0);
        let s = Vec3::new(-(EARTH_RADIUS_M + H780), 0.0, 0.0);
        assert!(elevation_angle_rad(g, s) < 0.0);
    }

    #[test]
    fn horizon_elevation_is_near_zero() {
        // Satellite at the geometric horizon of the ground point.
        let r = EARTH_RADIUS_M;
        let rs = EARTH_RADIUS_M + H780;
        let theta = (r / rs).acos(); // central angle to horizon
        let g = Vec3::new(r, 0.0, 0.0);
        let s = Vec3::new(rs * theta.cos(), rs * theta.sin(), 0.0);
        assert!(elevation_angle_rad(g, s).abs() < 1e-6);
    }

    #[test]
    fn footprint_half_angle_sane_for_leo() {
        // 780 km, 0° min elevation: lambda = acos(R/(R+h)) ≈ 27.5°—ish
        // (with mean radius). At 10° it shrinks.
        let lam0 = coverage_half_angle_rad(H780, 0.0);
        let lam10 = coverage_half_angle_rad(H780, 10f64.to_radians());
        assert!(
            (lam0.to_degrees() - 27.0).abs() < 1.5,
            "{}",
            lam0.to_degrees()
        );
        assert!(lam10 < lam0);
        assert!(lam10 > 0.0);
    }

    #[test]
    fn cap_fraction_of_hemisphere_is_half() {
        assert!((cap_fraction(FRAC_PI_2) - 0.5).abs() < 1e-12);
        assert!((cap_fraction(std::f64::consts::PI) - 1.0).abs() < 1e-12);
        assert_eq!(cap_fraction(0.0), 0.0);
    }

    #[test]
    fn max_slant_range_decreases_with_elevation() {
        let r = EARTH_MEAN_RADIUS_M;
        let r0 = slant_range_at_elevation_m(r, r + H780, 0.0);
        let r25 = slant_range_at_elevation_m(r, r + H780, 25f64.to_radians());
        let r90 = slant_range_at_elevation_m(r, r + H780, FRAC_PI_2);
        assert!(r0 > r25 && r25 > r90);
        // At 90° the slant range is exactly the altitude.
        assert!((r90 - H780).abs() < 1.0);
        // At 0°, roughly sqrt(2Rh + h^2) ≈ 3300 km for 780 km altitude.
        assert!((r0 / 1000.0 - 3_290.0).abs() < 60.0, "{}", r0 / 1000.0);
    }

    #[test]
    fn slant_range_pivot_monotone_in_elevation_and_radius() {
        let r_site = EARTH_RADIUS_M;
        let r_sat = EARTH_RADIUS_M + H780;
        let mut prev = f64::INFINITY;
        for k in 0..=20 {
            let e = -FRAC_PI_2 + k as f64 * (std::f64::consts::PI / 20.0);
            let d = slant_range_at_elevation_m(r_site, r_sat, e);
            assert!(d <= prev, "slant range must not increase with elevation");
            prev = d;
        }
        // Increasing in satellite radius at fixed elevation.
        let lo = slant_range_at_elevation_m(r_site, r_sat, 0.2);
        let hi = slant_range_at_elevation_m(r_site, r_sat + 100_000.0, 0.2);
        assert!(hi > lo);
        // Endpoint identities: overhead = radius difference, nadir = sum.
        let over = slant_range_at_elevation_m(r_site, r_sat, FRAC_PI_2);
        assert!((over - H780).abs() < 1e-6 * H780);
    }

    #[test]
    fn slant_range_pivot_is_convention_independent() {
        // The gated paths in openspace-net compute their range gates from
        // the *actual* geocentric radii, not from either Earth-radius
        // constant. Pin that this makes the gate sound regardless of
        // which convention generated the site: for sites on both the
        // equatorial and the mean-radius sphere, every satellite at or
        // above the mask elevation sits within the gate computed from
        // |ground| and |sat| — while a gate computed from the *wrong*
        // constant could be short by up to the ~7.1 km convention split,
        // which is exactly why the pruned paths never take that shortcut.
        let mask = 10f64.to_radians();
        let r_sat = EARTH_RADIUS_M + H780;
        for &r_site in &[EARTH_RADIUS_M, EARTH_MEAN_RADIUS_M] {
            let gate = slant_range_at_elevation_m(r_site, r_sat, mask);
            let g = Vec3::new(r_site, 0.0, 0.0);
            // Sweep satellites across the sky; every one at el >= mask
            // must fall inside the gate (with the fast paths' relative
            // margin of 1e-9, which dwarfs rounding).
            for k in 0..=180 {
                let th = k as f64 * std::f64::consts::PI / 180.0;
                let s = Vec3::new(r_sat * th.cos(), r_sat * th.sin(), 0.0);
                if elevation_angle_rad(g, s) >= mask {
                    assert!(
                        g.distance(s) <= gate * (1.0 + 1e-9),
                        "visible satellite outside gate at theta={th}"
                    );
                }
            }
        }
        // The convention split itself: ~7.1 km of gate difference — large
        // enough that a fixed-constant gate would be unsound, and far
        // beyond the fp margin the pruned paths actually rely on.
        let split = slant_range_at_elevation_m(EARTH_RADIUS_M, r_sat, mask)
            - slant_range_at_elevation_m(EARTH_MEAN_RADIUS_M, r_sat, mask);
        assert!(
            split.abs() > 1_000.0 && split.abs() < 20_000.0,
            "convention split {split} m"
        );
    }

    #[test]
    fn visible_slant_range_matches_two_call_sequence_bitwise() {
        use crate::frames::{geodetic_to_ecef, Geodetic};
        let g = geodetic_to_ecef(Geodetic::from_degrees(12.0, 34.0, 0.0));
        for k in 0..50 {
            let lat = -60.0 + 2.5 * k as f64;
            let lon = 30.0 + 3.0 * k as f64;
            let s = geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 780_000.0));
            let mask = 10f64.to_radians();
            match visible_slant_range_m(g, s, mask) {
                Some(d) => {
                    assert!(is_visible(g, s, mask));
                    assert_eq!(d.to_bits(), slant_range_m(g, s).to_bits());
                }
                None => assert!(!is_visible(g, s, mask)),
            }
        }
    }

    #[test]
    fn max_isl_range_for_iridium_shell() {
        // Two 780 km satellites, 80 km clearance: ≈ 2 * sqrt((R+780k)^2-(R+80k)^2)
        let d = max_isl_range_m(H780, H780, km_to_m(80.0));
        assert!((d / 1000.0 - 6_000.0).abs() < 300.0, "{}", d / 1000.0);
    }

    #[test]
    fn look_angles_cardinal_directions() {
        use crate::frames::{geodetic_to_ecef, Geodetic};
        let g = geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0));
        // A satellite due east of the site at the same latitude.
        let east_sat = geodetic_to_ecef(Geodetic::from_degrees(0.0, 10.0, 780_000.0));
        let (az, el) = look_angles_rad(g, east_sat);
        assert!(
            (az.to_degrees() - 90.0).abs() < 1.0,
            "azimuth {}",
            az.to_degrees()
        );
        assert!(el > 0.0);
        // A satellite due north.
        let north_sat = geodetic_to_ecef(Geodetic::from_degrees(10.0, 0.0, 780_000.0));
        let (az, _) = look_angles_rad(g, north_sat);
        assert!(
            az.to_degrees() < 5.0 || az.to_degrees() > 355.0,
            "azimuth {}",
            az.to_degrees()
        );
    }

    #[test]
    fn look_elevation_agrees_with_elevation_angle() {
        use crate::frames::{geodetic_to_ecef, Geodetic};
        let g = geodetic_to_ecef(Geodetic::from_degrees(30.0, 50.0, 0.0));
        let s = geodetic_to_ecef(Geodetic::from_degrees(35.0, 55.0, 780_000.0));
        let (_, el) = look_angles_rad(g, s);
        assert!((el - elevation_angle_rad(g, s)).abs() < 1e-9);
    }

    #[test]
    fn zenith_look_angle_is_90_elevation() {
        let g = Vec3::new(EARTH_RADIUS_M, 0.0, 0.0);
        let s = Vec3::new(EARTH_RADIUS_M + H780, 0.0, 0.0);
        let (_, el) = look_angles_rad(g, s);
        assert!((el - FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn visibility_threshold_applies() {
        let g = Vec3::new(EARTH_RADIUS_M, 0.0, 0.0);
        let s = Vec3::new(EARTH_RADIUS_M + H780, 0.0, 0.0);
        assert!(is_visible(g, s, 80f64.to_radians()));
        let theta = 25f64.to_radians();
        let rs = EARTH_RADIUS_M + H780;
        let low = Vec3::new(rs * theta.cos(), rs * theta.sin(), 0.0);
        assert!(!is_visible(g, low, 40f64.to_radians()));
    }
}
