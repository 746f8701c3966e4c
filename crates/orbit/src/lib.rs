//! # openspace-orbit
//!
//! Orbital-mechanics substrate for the OpenSpace LEO simulation stack.
//!
//! The OpenSpace paper (HotNets '24) leans on one physical fact: LEO
//! orbital paths are deterministic and publicly known, which makes the
//! network topology predictable and routing precomputable. This crate
//! supplies that substrate:
//!
//! * [`constants`] — WGS84/CODATA constants and small unit helpers.
//! * [`frames`] — ECI/ECEF/geodetic coordinate frames and conversions.
//! * [`kepler`] — classical orbital elements and the Kepler solver.
//! * [`propagator`] — two-body + secular-J2 deterministic propagation.
//! * [`walker`] — Walker Star/Delta and seeded random constellations.
//! * [`visibility`] — line-of-sight, elevation, slant range, footprints.
//! * [`coverage`] — global coverage estimators, including the paper's
//!   worst-case overlap model from §4.
//! * [`groundtrack`] — sub-satellite tracks over the rotating Earth.
//! * [`eclipse`] — Earth-shadow model feeding the power subsystem.
//! * [`tle`] — Two-Line Element parsing/generation: the public-catalog
//!   format (§2.2's "radar-tracked orbital paths … readily available on
//!   public websites") for ingesting and publishing constellations.
//!
//! Everything is deterministic: given the same elements and times, every
//! function returns bit-identical results, which is what makes the
//! experiment harness a reproduction artefact rather than a demo.
//!
//! ## Example
//!
//! ```
//! use openspace_orbit::prelude::*;
//!
//! // The Figure 2(a) constellation: Iridium-like Walker Star.
//! let els = walker_star(&iridium_params()).unwrap();
//! let sats: Vec<Propagator> = els
//!     .into_iter()
//!     .map(|e| Propagator::new(e, PerturbationModel::SecularJ2))
//!     .collect();
//!
//! // Global coverage at t=0 with a 10-degree mask.
//! let grid = SphereGrid::new(2000);
//! let frac = grid_coverage_fraction(&grid, &sats, 0.0, 10f64.to_radians());
//! assert!(frac > 0.9);
//! ```

pub mod constants;
pub mod coverage;
pub mod eclipse;
pub mod ephemeris;
pub mod frames;
pub mod groundtrack;
pub mod kepler;
pub mod propagator;
pub mod tle;
pub mod visibility;
pub mod walker;

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::constants::{
        km_to_m, m_to_km, orbital_period_s, EARTH_MEAN_RADIUS_M, EARTH_RADIUS_M,
        SPEED_OF_LIGHT_M_PER_S,
    };
    pub use crate::coverage::{
        disjoint_packing_coverage_fraction, disjoint_packing_coverage_fraction_from_eci,
        grid_coverage_fraction, grid_coverage_fraction_from_ecef, worst_case_coverage_fraction,
        worst_case_coverage_fraction_from_eci, SphereGrid,
    };
    pub use crate::eclipse::{eclipse_fraction, in_eclipse};
    pub use crate::ephemeris::{EphemerisCache, EphemerisSample, SampleKey};
    pub use crate::frames::{
        ecef_to_eci, ecef_to_geodetic, eci_to_ecef, geodetic_to_ecef, Geodetic, Vec3,
    };
    pub use crate::groundtrack::{ground_track, TrackPoint};
    pub use crate::kepler::{ElementsError, OrbitalElements};
    pub use crate::propagator::{PerturbationModel, Propagator};
    pub use crate::tle::{elements_to_tle, parse_tle, Tle, TleError};
    pub use crate::visibility::{
        cap_fraction, coverage_half_angle_rad, elevation_angle_rad, is_visible, line_of_sight,
        line_of_sight_with_clearance, look_angles_rad, max_isl_range_m, slant_range_at_elevation_m,
        slant_range_m, visible_slant_range_m,
    };
    pub use crate::walker::{
        cbo_params, iridium_params, random_constellation, walker_delta, walker_star, WalkerParams,
    };
}
