//! Coverage evaluation over the globe.
//!
//! Two estimators are provided:
//!
//! * [`grid_coverage_fraction`] — an equal-area lat/lon grid test: a grid
//!   point counts as covered when at least one satellite sees it above the
//!   minimum elevation. This is the honest estimator.
//! * [`worst_case_coverage_fraction`] — the paper's §4 model: "if there
//!   is any overlap between a pair of satellite ranges, their effective
//!   coverage will be reduced to that of a single satellite". We read
//!   this as pairwise merging: overlapping satellites are matched into
//!   pairs, each matched pair contributes one footprint, unmatched
//!   satellites contribute their own. Coverage is the effective footprint
//!   count times the single-cap fraction, capped at 1. This reproduces
//!   Figure 2(c)'s "total earth coverage by about 50 satellites" (a
//!   1/0.056-cap sphere needs ~18 effective footprints; 50 random
//!   satellites pair down to ~25-30).
//! * [`disjoint_packing_coverage_fraction`] — a strictly pessimistic
//!   alternative: only a greedily chosen set of mutually non-overlapping
//!   footprints counts at all. A true lower bound on the union.
//!
//! Figure 2(c) uses the worst-case (pairwise) model; EXPERIMENTS.md
//! reports all three.

use crate::frames::{eci_to_ecef, Vec3};
use crate::propagator::Propagator;
use crate::visibility::{cap_fraction, coverage_half_angle_rad, is_visible};

/// An equal-area sample grid on the unit sphere (geodesic-ish: uniform in
/// `sin(lat)` and longitude), in ECEF direction vectors.
#[derive(Debug, Clone)]
pub struct SphereGrid {
    points: Vec<Vec3>,
}

impl SphereGrid {
    /// Build a grid with roughly `n_target` points, equal-area by
    /// construction (uniform in z = sin(lat), uniform in lon). Points are on
    /// the unit sphere; scale by the Earth radius to get surface positions.
    ///
    /// # Panics
    /// Panics if `n_target < 8`.
    pub fn new(n_target: usize) -> Self {
        assert!(n_target >= 8, "grid needs at least 8 points");
        // rows ~ sqrt(n/2), cols ~ 2*rows keeps cells roughly square at the
        // equator.
        let rows = ((n_target as f64 / 2.0).sqrt().round() as usize).max(2);
        let cols = 2 * rows;
        let mut points = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            // Band centers uniform in sin(lat) for equal area.
            let z = -1.0 + 2.0 * (i as f64 + 0.5) / rows as f64;
            let lat = z.asin();
            let (slat, clat) = lat.sin_cos();
            for j in 0..cols {
                let lon = std::f64::consts::TAU * (j as f64 + 0.5) / cols as f64;
                let (slon, clon) = lon.sin_cos();
                points.push(Vec3::new(clat * clon, clat * slon, slat));
            }
        }
        Self { points }
    }

    /// The grid's unit-sphere direction vectors.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Fraction of the sample grid covered by at least one satellite above
/// `min_elevation_rad`, at simulation time `t_s`.
pub fn grid_coverage_fraction(
    grid: &SphereGrid,
    sats: &[Propagator],
    t_s: f64,
    min_elevation_rad: f64,
) -> f64 {
    let sat_ecef: Vec<Vec3> = sats
        .iter()
        .map(|p| eci_to_ecef(p.position_eci(t_s), t_s))
        .collect();
    grid_coverage_fraction_from_ecef(grid, &sat_ecef, min_elevation_rad)
}

/// [`grid_coverage_fraction`] over already-computed satellite ECEF
/// positions (e.g. from an ephemeris cache).
pub fn grid_coverage_fraction_from_ecef(
    grid: &SphereGrid,
    sat_ecef: &[Vec3],
    min_elevation_rad: f64,
) -> f64 {
    if grid.is_empty() {
        return 0.0;
    }
    let covered = grid
        .points()
        .iter()
        .filter(|&&dir| {
            let ground = dir * crate::constants::EARTH_RADIUS_M;
            sat_ecef
                .iter()
                .any(|&s| is_visible(ground, s, min_elevation_rad))
        })
        .count();
    covered as f64 / grid.len() as f64
}

/// Footprint descriptors (sub-satellite direction, half-angle) at `t_s`.
fn footprints(sats: &[Propagator], t_s: f64, min_elevation_rad: f64) -> Vec<(Vec3, f64)> {
    let pos: Vec<Vec3> = sats.iter().map(|p| p.position_eci(t_s)).collect();
    footprints_from_eci(&pos, min_elevation_rad)
}

/// Footprint descriptors from already-computed ECI positions. Directions
/// keep the ECI frame; footprint *angles* are frame-independent, which is
/// all the overlap models consume.
fn footprints_from_eci(pos_eci: &[Vec3], min_elevation_rad: f64) -> Vec<(Vec3, f64)> {
    pos_eci
        .iter()
        .map(|&pos| {
            let lam = coverage_half_angle_rad(
                pos.norm() - crate::constants::EARTH_MEAN_RADIUS_M,
                min_elevation_rad,
            );
            (pos.normalized(), lam)
        })
        .collect()
}

/// The paper's worst-case overlap model (§4): overlapping satellites are
/// greedily matched into pairs, each pair contributing one footprint
/// ("their effective coverage will be reduced to that of a single
/// satellite"); unmatched satellites contribute their own footprint.
/// Returns the summed cap fraction of the effective footprints, clamped
/// to 1.0. Deterministic: matching proceeds in satellite index order.
///
/// Footprints overlap when the central angle between sub-satellite points
/// is below the sum of their half-angles.
pub fn worst_case_coverage_fraction(sats: &[Propagator], t_s: f64, min_elevation_rad: f64) -> f64 {
    worst_case_from_footprints(footprints(sats, t_s, min_elevation_rad))
}

/// [`worst_case_coverage_fraction`] over already-computed ECI positions.
pub fn worst_case_coverage_fraction_from_eci(pos_eci: &[Vec3], min_elevation_rad: f64) -> f64 {
    worst_case_from_footprints(footprints_from_eci(pos_eci, min_elevation_rad))
}

fn worst_case_from_footprints(fp: Vec<(Vec3, f64)>) -> f64 {
    let mut matched = vec![false; fp.len()];
    let mut frac = 0.0;
    for i in 0..fp.len() {
        if matched[i] {
            continue;
        }
        // Find the first unmatched later satellite overlapping i.
        let partner = ((i + 1)..fp.len())
            .find(|&j| !matched[j] && fp[i].0.angle_to(fp[j].0) < fp[i].1 + fp[j].1);
        if let Some(j) = partner {
            matched[j] = true;
            // The pair counts as the larger of the two footprints.
            frac += cap_fraction(fp[i].1.max(fp[j].1));
        } else {
            frac += cap_fraction(fp[i].1);
        }
        matched[i] = true;
    }
    frac.min(1.0)
}

/// A strictly pessimistic estimator: only a greedily selected set of
/// mutually non-overlapping footprints counts; every footprint that
/// overlaps a kept one contributes nothing. This is a true lower bound on
/// the union coverage.
pub fn disjoint_packing_coverage_fraction(
    sats: &[Propagator],
    t_s: f64,
    min_elevation_rad: f64,
) -> f64 {
    disjoint_packing_from_footprints(footprints(sats, t_s, min_elevation_rad))
}

/// [`disjoint_packing_coverage_fraction`] over already-computed ECI
/// positions.
pub fn disjoint_packing_coverage_fraction_from_eci(
    pos_eci: &[Vec3],
    min_elevation_rad: f64,
) -> f64 {
    disjoint_packing_from_footprints(footprints_from_eci(pos_eci, min_elevation_rad))
}

fn disjoint_packing_from_footprints(fp: Vec<(Vec3, f64)>) -> f64 {
    let mut kept: Vec<(Vec3, f64)> = Vec::new();
    for (dir, lam) in fp {
        let overlaps = kept
            .iter()
            .any(|&(kdir, klam)| dir.angle_to(kdir) < lam + klam);
        if !overlaps {
            kept.push((dir, lam));
        }
    }
    let frac: f64 = kept.iter().map(|&(_, lam)| cap_fraction(lam)).sum();
    frac.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;
    use crate::propagator::PerturbationModel;
    use crate::walker::{iridium_params, random_constellation, walker_star};

    fn props(els: Vec<crate::kepler::OrbitalElements>) -> Vec<Propagator> {
        els.into_iter()
            .map(|e| Propagator::new(e, PerturbationModel::TwoBody))
            .collect()
    }

    #[test]
    fn grid_is_roughly_requested_size() {
        let g = SphereGrid::new(1000);
        assert!((800..=1400).contains(&g.len()), "{}", g.len());
    }

    #[test]
    fn grid_points_are_unit_vectors() {
        for &p in SphereGrid::new(200).points() {
            assert!((p.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_is_equal_area_in_z() {
        // Mean z over an equal-area grid should vanish.
        let g = SphereGrid::new(2000);
        let mean_z: f64 = g.points().iter().map(|p| p.z).sum::<f64>() / g.len() as f64;
        assert!(mean_z.abs() < 1e-9, "{mean_z}");
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn tiny_grid_panics() {
        SphereGrid::new(4);
    }

    #[test]
    fn no_satellites_no_coverage() {
        let g = SphereGrid::new(500);
        assert_eq!(grid_coverage_fraction(&g, &[], 0.0, 0.0), 0.0);
        assert_eq!(worst_case_coverage_fraction(&[], 0.0, 0.0), 0.0);
    }

    #[test]
    fn single_satellite_covers_about_its_cap() {
        let els = random_constellation(1, km_to_m(780.0), 86.4, 3).unwrap();
        let sats = props(els);
        let g = SphereGrid::new(4000);
        let got = grid_coverage_fraction(&g, &sats, 0.0, 0.0);
        let expect = cap_fraction(coverage_half_angle_rad(km_to_m(780.0), 0.0));
        assert!(
            (got - expect).abs() < 0.02,
            "grid {got} vs analytic {expect}"
        );
    }

    #[test]
    fn iridium_gives_high_coverage() {
        let sats = props(walker_star(&iridium_params()).unwrap());
        let g = SphereGrid::new(3000);
        let frac = grid_coverage_fraction(&g, &sats, 0.0, 10f64.to_radians());
        assert!(frac > 0.9, "Iridium at 10 deg min elevation: {frac}");
    }

    #[test]
    fn coverage_increases_with_satellites() {
        let g = SphereGrid::new(2000);
        let mut last = 0.0;
        for n in [5, 20, 60] {
            let sats = props(random_constellation(n, km_to_m(780.0), 86.4, 11).unwrap());
            let f = grid_coverage_fraction(&g, &sats, 0.0, 0.0);
            assert!(f >= last - 0.02, "n={n}: {f} < {last}");
            last = f;
        }
    }

    #[test]
    fn disjoint_packing_is_pessimistic_vs_grid() {
        let sats = props(random_constellation(30, km_to_m(780.0), 86.4, 5).unwrap());
        let g = SphereGrid::new(3000);
        let honest = grid_coverage_fraction(&g, &sats, 0.0, 0.0);
        let lower = disjoint_packing_coverage_fraction(&sats, 0.0, 0.0);
        assert!(
            lower <= honest + 0.03,
            "packing bound {lower} should not exceed honest {honest}"
        );
    }

    #[test]
    fn worst_case_single_sat_equals_cap() {
        let sats = props(random_constellation(1, km_to_m(780.0), 86.4, 9).unwrap());
        let expect = cap_fraction(coverage_half_angle_rad(km_to_m(780.0), 0.0));
        for got in [
            worst_case_coverage_fraction(&sats, 0.0, 0.0),
            disjoint_packing_coverage_fraction(&sats, 0.0, 0.0),
        ] {
            assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
        }
    }

    #[test]
    fn pairwise_model_at_most_halves_the_count() {
        // n satellites yield between n/2 and n effective footprints, so
        // the estimate is bounded by [n/2, n] caps (before clamping).
        let sats = props(random_constellation(20, km_to_m(780.0), 86.4, 4).unwrap());
        let got = worst_case_coverage_fraction(&sats, 0.0, 0.0);
        let cap = cap_fraction(coverage_half_angle_rad(km_to_m(780.0), 0.0));
        assert!(got >= 10.0 * cap - 1e-9, "{got} below half-count bound");
        assert!(got <= 20.0 * cap + 1e-9, "{got} above full-count bound");
    }

    #[test]
    fn pairwise_dominates_disjoint_packing() {
        // Merging pairs keeps at least as many footprints as discarding
        // every overlapped satellite.
        for seed in [1, 2, 3, 4] {
            let sats = props(random_constellation(40, km_to_m(780.0), 86.4, seed).unwrap());
            let pairwise = worst_case_coverage_fraction(&sats, 0.0, 0.0);
            let packing = disjoint_packing_coverage_fraction(&sats, 0.0, 0.0);
            assert!(
                pairwise >= packing - 1e-9,
                "seed {seed}: {pairwise} < {packing}"
            );
        }
    }

    #[test]
    fn paper_shape_total_coverage_near_fifty_sats() {
        // Figure 2(c): total Earth coverage by about 50 satellites under
        // the worst-case model. Average over seeds at the horizon mask.
        let mean_at = |n: usize| {
            let mut sum = 0.0;
            for seed in 0..8u64 {
                let sats =
                    props(random_constellation(n, km_to_m(780.0), 86.4, 100 + seed).unwrap());
                sum += worst_case_coverage_fraction(&sats, 0.0, 0.0);
            }
            sum / 8.0
        };
        assert!(mean_at(10) < 0.8, "10 sats should not cover the Earth");
        assert!(mean_at(60) > 0.97, "60 sats should reach ~total coverage");
    }

    #[test]
    fn worst_case_clamps_at_one() {
        let sats = props(random_constellation(400, km_to_m(780.0), 86.4, 2).unwrap());
        assert!(worst_case_coverage_fraction(&sats, 0.0, 0.0) <= 1.0);
    }
}
