//! Contact plans: when each satellite is visible from a ground point.
//!
//! Because orbits are public and deterministic (§2.2), contact windows
//! are computable arbitrarily far ahead. The handover predictor and the
//! federation study both consume these plans.
//!
//! # Horizon-skip scanning
//!
//! A LEO satellite is below a ground site's elevation mask for most of
//! each orbit, so a dense scan wastes the bulk of its propagations on
//! samples that cannot open or close a window. [`contact_plan`] (and the
//! instrumented [`contact_plan`]) therefore skip ahead when a
//! sample is far below the mask, by an amount derived from a **sound
//! bound on the elevation-angle rate** — and produce output **bitwise
//! identical** to the dense reference scan [`contact_plan_dense`]. The
//! argument, in full:
//!
//! 1. *Geometry.* Work in ECEF, where the ground point is fixed. The
//!    elevation is `el = π/2 − θ` with `θ` the angle between the fixed
//!    up direction and the moving line-of-sight direction `ŵ`. The angle
//!    to a fixed direction is 1-Lipschitz in arc length on the sphere,
//!    so `|d el/dt| ≤ |ŵ′| ≤ |v_rel| / d`, the satellite's ECEF speed
//!    over the slant range.
//! 2. *Speed.* `|v_rel| ≤ v_eci_max + ω_⊕ · r_max`:
//!    [`Propagator::max_speed_m_per_s`] bounds the inertial speed, and
//!    the ECI→ECEF rotation adds at most the Earth-rotation rate times
//!    the satellite's maximum geocentric radius.
//! 3. *Distance.* While `el ≤ mask`, the slant range is minimized at
//!    `el = mask` and at the satellite's minimum radius (the range is
//!    decreasing in elevation, increasing in radius — see
//!    [`slant_range_at_elevation_m`]), so `d ≥ d_lo =
//!    slant_range_at_elevation_m(R_site, r_min, mask)`.
//! 4. *Escape time.* Combining 1–3 gives a rate bound `L` valid on the
//!    whole region `el ≤ mask`. If a sample reads `el = mask − Δ` with
//!    `Δ > ε`, the true elevation cannot reach the mask for at least
//!    `(Δ − ε)/L` seconds (a first-crossing argument: until the first
//!    crossing the trajectory stays in the region where `L` applies).
//!    Every grid sample in that span is therefore *not visible*, and —
//!    because the scanner only ever skips while no window is open — the
//!    open/close state machine treats them exactly as the dense scan
//!    would. Skipping lands on the *same* grid, so emitted windows are
//!    identical to the last bit.
//! 5. *Rounding.* The margin `ε = 1e-9` rad dwarfs the few-ulp error of
//!    the elevation evaluation (`≲ 1e-15` rad), and `L` is inflated by
//!    `1e-9` relative to absorb rounding in the bound itself; a skipped
//!    sample's *computed* elevation is thus below the mask with margin
//!    `≈ ε`, never flipping a visibility decision. Whenever the bound's
//!    preconditions fail (site at the geocenter, orbit below the site
//!    radius, non-finite inputs), the scanner falls back to dense
//!    stepping for that satellite — same output, no speedup.
//!
//! The equivalence is pinned by `tests/tests/contact_equivalence.rs`
//! over ≥128 seeded random scenarios (constellation, ground site, mask,
//! step, horizon, perturbation model).

use crate::isl::SatNode;
use openspace_orbit::constants::EARTH_ROTATION_RATE_RAD_PER_S;
use openspace_orbit::frames::{eci_to_ecef, Vec3};
use openspace_orbit::propagator::Propagator;
use openspace_orbit::visibility::{elevation_angle_rad, is_visible, slant_range_at_elevation_m};
use openspace_sim::ids::SatId;
use openspace_telemetry::Recorder;

/// One visibility window of one satellite over a ground point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactWindow {
    /// Index into the satellite array.
    pub sat_index: SatId,
    /// Window start (s); clamped to the scan start when already visible.
    pub start_s: f64,
    /// Window end (s); clamped to the scan end when still visible.
    pub end_s: f64,
}

impl ContactWindow {
    /// Window duration (s).
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t_s: f64) -> bool {
        (self.start_s..self.end_s).contains(&t_s)
    }
}

/// Deficit margin (rad) a sample must show below the mask before the
/// scanner skips: far larger than elevation-evaluation rounding
/// (~1e-15 rad), far smaller than any deficit worth skipping over.
const SKIP_EPSILON_RAD: f64 = 1e-9;

/// Relative inflation applied to the elevation-rate bound so fp rounding
/// in the bound's own computation can never make it optimistic.
const RATE_MARGIN: f64 = 1e-9;

/// A sound per-satellite bound (rad/s) on the elevation-angle rate seen
/// from a ground point at geocentric radius `site_radius_m`, valid
/// everywhere in the region `el ≤ mask`. `None` when the preconditions
/// fail and the caller must scan densely (see the module docs).
fn elevation_rate_bound(prop: &Propagator, site_radius_m: f64, mask_rad: f64) -> Option<f64> {
    if site_radius_m.is_nan() || site_radius_m <= 0.0 {
        return None;
    }
    let (r_min, r_max) = prop.radius_bounds_m();
    // Minimum slant range over the region el <= mask: clamping the mask
    // into the formula's domain only ever *lowers* the pivot elevation,
    // which lowers d_lo — conservative.
    let mask = mask_rad.clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
    let d_lo = slant_range_at_elevation_m(site_radius_m, r_min, mask);
    if !d_lo.is_finite() || d_lo <= 0.0 {
        return None;
    }
    let v_rel = prop.max_speed_m_per_s() + EARTH_ROTATION_RATE_RAD_PER_S * r_max;
    let rate = v_rel / d_lo * (1.0 + RATE_MARGIN);
    rate.is_finite().then_some(rate)
}

/// Compute all contact windows of `sats` over `ground_ecef` in
/// `[t_start_s, t_end_s)`, sampling visibility at `step_s`.
///
/// Windows are sorted by `(start, sat_index)`. Sampling granularity means
/// windows are accurate to ±`step_s`; the experiments use 1–10 s steps,
/// well below LEO pass durations (minutes).
///
/// Uses the horizon-skip fast path (see the module docs); the result is
/// bitwise identical to [`contact_plan_dense`].
///
/// Counts `contact.samples_evaluated` (grid samples actually
/// propagated) and `contact.samples_skipped` (grid samples proven
/// below-mask without propagation) on `rec`.
///
/// # Panics
/// Panics if `step_s <= 0` or the interval is inverted.
pub fn contact_plan(
    sats: &[SatNode],
    ground_ecef: Vec3,
    t_start_s: f64,
    t_end_s: f64,
    step_s: f64,
    min_elevation_rad: f64,
    rec: &mut dyn Recorder,
) -> Vec<ContactWindow> {
    assert!(step_s > 0.0, "step must be positive");
    assert!(t_end_s >= t_start_s, "interval inverted");
    let steps = ((t_end_s - t_start_s) / step_s).ceil() as usize;
    let site_radius_m = ground_ecef.norm();
    let mut evaluated: u64 = 0;
    let mut skipped: u64 = 0;
    let mut windows = Vec::new();
    for (si, sat) in sats.iter().enumerate() {
        let rate_bound = elevation_rate_bound(&sat.propagator, site_radius_m, min_elevation_rad);
        let mut open: Option<f64> = None;
        let mut k = 0usize;
        while k <= steps {
            let t = (t_start_s + k as f64 * step_s).min(t_end_s);
            let sat_ecef = eci_to_ecef(sat.propagator.position_eci(t), t);
            let elevation = elevation_angle_rad(ground_ecef, sat_ecef);
            evaluated += 1;
            // Same decision as `is_visible`: it compares this exact
            // elevation expression against the mask.
            let vis = elevation >= min_elevation_rad;
            match (open, vis) {
                (None, true) => open = Some(t),
                (Some(start), false) => {
                    windows.push(ContactWindow {
                        sat_index: SatId(si),
                        start_s: start,
                        end_s: t,
                    });
                    open = None;
                }
                _ => {}
            }
            if t >= t_end_s {
                break;
            }
            // Horizon skip: only with no window open (so skipped samples
            // are state-machine no-ops) and a deficit beyond the fp
            // margin. Skipped samples sit at unclamped-or-later times, so
            // the escape-time guarantee covers them; if the skip clears
            // the horizon, the remaining samples are all below-mask and
            // the dense loop would end with `open == None` too.
            if let (None, Some(rate)) = (open, rate_bound) {
                let deficit = min_elevation_rad - elevation;
                if deficit > SKIP_EPSILON_RAD {
                    let m = ((deficit - SKIP_EPSILON_RAD) / (rate * step_s))
                        .floor()
                        .min((steps - k) as f64);
                    if m >= 1.0 {
                        let m = m as usize;
                        skipped += m as u64;
                        k += m;
                    }
                }
            }
            k += 1;
        }
        if let Some(start) = open {
            windows.push(ContactWindow {
                sat_index: SatId(si),
                start_s: start,
                end_s: t_end_s,
            });
        }
    }
    rec.add("contact.samples_evaluated", evaluated);
    rec.add("contact.samples_skipped", skipped);
    windows.sort_by(|a, b| {
        a.start_s
            .total_cmp(&b.start_s)
            .then(a.sat_index.cmp(&b.sat_index))
    });
    windows
}

/// The dense reference scan: every grid sample propagated and tested.
///
/// Kept as the ground truth for the horizon-skip equivalence property
/// test and the paired bench kernels; production callers use
/// [`contact_plan`].
///
/// # Panics
/// Panics if `step_s <= 0` or the interval is inverted.
pub fn contact_plan_dense(
    sats: &[SatNode],
    ground_ecef: Vec3,
    t_start_s: f64,
    t_end_s: f64,
    step_s: f64,
    min_elevation_rad: f64,
) -> Vec<ContactWindow> {
    assert!(step_s > 0.0, "step must be positive");
    assert!(t_end_s >= t_start_s, "interval inverted");
    let steps = ((t_end_s - t_start_s) / step_s).ceil() as usize;
    let mut windows = Vec::new();
    for (si, sat) in sats.iter().enumerate() {
        let mut open: Option<f64> = None;
        for k in 0..=steps {
            let t = (t_start_s + k as f64 * step_s).min(t_end_s);
            let sat_ecef = eci_to_ecef(sat.propagator.position_eci(t), t);
            let vis = is_visible(ground_ecef, sat_ecef, min_elevation_rad);
            match (open, vis) {
                (None, true) => open = Some(t),
                (Some(start), false) => {
                    windows.push(ContactWindow {
                        sat_index: SatId(si),
                        start_s: start,
                        end_s: t,
                    });
                    open = None;
                }
                _ => {}
            }
            if t >= t_end_s {
                break;
            }
        }
        if let Some(start) = open {
            windows.push(ContactWindow {
                sat_index: SatId(si),
                start_s: start,
                end_s: t_end_s,
            });
        }
    }
    windows.sort_by(|a, b| {
        a.start_s
            .total_cmp(&b.start_s)
            .then(a.sat_index.cmp(&b.sat_index))
    });
    windows
}

/// Fraction of `[t_start, t_end)` during which at least one satellite is
/// visible (union of windows).
pub fn coverage_time_fraction(windows: &[ContactWindow], t_start_s: f64, t_end_s: f64) -> f64 {
    assert!(t_end_s > t_start_s, "empty interval");
    // Sweep over sorted window boundaries.
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(windows.len() * 2);
    for w in windows {
        events.push((w.start_s.max(t_start_s), 1));
        events.push((w.end_s.min(t_end_s), -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut covered = 0.0;
    let mut depth = 0;
    let mut last = t_start_s;
    for (t, d) in events {
        if depth > 0 {
            covered += (t - last).max(0.0);
        }
        last = t.max(last);
        depth += d;
    }
    covered / (t_end_s - t_start_s)
}

/// The longest gap (s) with no satellite visible in `[t_start, t_end)`.
pub fn longest_outage_s(windows: &[ContactWindow], t_start_s: f64, t_end_s: f64) -> f64 {
    assert!(t_end_s > t_start_s, "empty interval");
    let mut intervals: Vec<(f64, f64)> = windows
        .iter()
        .map(|w| (w.start_s.max(t_start_s), w.end_s.min(t_end_s)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut gap: f64 = 0.0;
    let mut horizon = t_start_s;
    for (s, e) in intervals {
        if s > horizon {
            gap = gap.max(s - horizon);
        }
        horizon = horizon.max(e);
    }
    gap.max(t_end_s - horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_orbit::constants::km_to_m;
    use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
    use openspace_orbit::kepler::OrbitalElements;
    use openspace_orbit::propagator::{PerturbationModel, Propagator};
    use openspace_orbit::walker::{iridium_params, walker_star};
    use openspace_telemetry::NullRecorder;

    fn one_sat() -> Vec<SatNode> {
        vec![SatNode {
            propagator: Propagator::new(
                OrbitalElements::circular(km_to_m(780.0), 86.4, 0.0, 0.0).unwrap(),
                PerturbationModel::TwoBody,
            ),
            operator: 0,
            has_optical: false,
        }]
    }

    fn iridium() -> Vec<SatNode> {
        walker_star(&iridium_params())
            .unwrap()
            .into_iter()
            .map(|el| SatNode {
                propagator: Propagator::new(el, PerturbationModel::TwoBody),
                operator: 0,
                has_optical: false,
            })
            .collect()
    }

    fn equator_ground() -> Vec3 {
        geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0))
    }

    /// The contact plan over `equator_ground()` for `[0, t_end_s)`.
    fn equator_plan(sats: &[SatNode], t_end_s: f64, step_s: f64, mask: f64) -> Vec<ContactWindow> {
        contact_plan(
            sats,
            equator_ground(),
            0.0,
            t_end_s,
            step_s,
            mask,
            &mut NullRecorder,
        )
    }

    #[test]
    fn single_sat_has_periodic_windows() {
        let sats = one_sat();
        let day = 86_400.0;
        let windows = equator_plan(&sats, day, 5.0, 10f64.to_radians());
        assert!(
            (2..=10).contains(&windows.len()),
            "one LEO sat over a day: got {} windows",
            windows.len()
        );
        for w in &windows {
            assert!(w.duration_s() > 60.0, "pass too short: {}", w.duration_s());
            assert!(
                w.duration_s() < 1_000.0,
                "pass too long: {}",
                w.duration_s()
            );
        }
    }

    #[test]
    fn windows_are_sorted_and_disjoint_per_sat() {
        let sats = one_sat();
        let windows = equator_plan(&sats, 86_400.0, 5.0, 0.1);
        for w in windows.windows(2) {
            assert!(w[0].start_s <= w[1].start_s);
            assert!(w[0].end_s <= w[1].start_s, "overlap for one satellite");
        }
    }

    #[test]
    fn iridium_has_continuous_coverage() {
        let sats = iridium();
        let windows = equator_plan(&sats, 7_200.0, 10.0, 10f64.to_radians());
        let frac = coverage_time_fraction(&windows, 0.0, 7_200.0);
        assert!(frac > 0.99, "Iridium equatorial coverage fraction {frac}");
        assert!(longest_outage_s(&windows, 0.0, 7_200.0) < 60.0);
    }

    #[test]
    fn single_sat_coverage_is_sparse() {
        let sats = one_sat();
        let windows = equator_plan(&sats, 86_400.0, 10.0, 0.1);
        let frac = coverage_time_fraction(&windows, 0.0, 86_400.0);
        assert!(frac < 0.2, "one sat cannot cover much of a day: {frac}");
        assert!(longest_outage_s(&windows, 0.0, 86_400.0) > 3_600.0);
    }

    #[test]
    fn empty_plan_means_full_outage() {
        assert_eq!(coverage_time_fraction(&[], 0.0, 100.0), 0.0);
        assert_eq!(longest_outage_s(&[], 0.0, 100.0), 100.0);
    }

    #[test]
    fn contains_and_duration() {
        let w = ContactWindow {
            sat_index: SatId(0),
            start_s: 10.0,
            end_s: 20.0,
        };
        assert_eq!(w.duration_s(), 10.0);
        assert!(w.contains(10.0));
        assert!(w.contains(19.999));
        assert!(!w.contains(20.0));
        assert!(!w.contains(9.0));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        equator_plan(&one_sat(), 10.0, 0.0, 0.0);
    }

    #[test]
    fn gated_scan_matches_dense_and_skips() {
        use openspace_telemetry::MemoryRecorder;
        let sats = iridium();
        let ground = equator_ground();
        let mask = 25f64.to_radians();
        let mut rec = MemoryRecorder::new();
        let gated = contact_plan(&sats, ground, 0.0, 7_200.0, 5.0, mask, &mut rec);
        let dense = contact_plan_dense(&sats, ground, 0.0, 7_200.0, 5.0, mask);
        assert_eq!(gated.len(), dense.len());
        for (a, b) in gated.iter().zip(&dense) {
            assert_eq!(a.sat_index, b.sat_index);
            assert_eq!(a.start_s.to_bits(), b.start_s.to_bits());
            assert_eq!(a.end_s.to_bits(), b.end_s.to_bits());
        }
        let skipped = rec.counter("contact.samples_skipped");
        let evaluated = rec.counter("contact.samples_evaluated");
        assert!(
            skipped > evaluated,
            "horizon skip should dominate on a sparse scan: {skipped} skipped vs {evaluated} evaluated"
        );
        // Accounting: every grid index the dense scan would visit is
        // either evaluated or skipped, exactly once.
        assert_eq!(evaluated + skipped, 66 * (7_200 / 5 + 1));
    }

    #[test]
    fn site_above_orbit_falls_back_to_dense() {
        // A "ground" point whose geocentric radius exceeds the orbit
        // radius breaks the slant-range pivot's triangle (NaN d_lo): the
        // fast path must refuse the bound and agree with the dense scan
        // rather than skip on an unsound rate.
        let sats = one_sat();
        let high_site = Vec3::new(8.0e6, 0.0, 0.0);
        let gated = contact_plan(&sats, high_site, 0.0, 3_600.0, 5.0, 0.1, &mut NullRecorder);
        let dense = contact_plan_dense(&sats, high_site, 0.0, 3_600.0, 5.0, 0.1);
        assert_eq!(gated, dense);
    }

    // --- coverage_time_fraction / longest_outage_s edge cases --------
    // Pinned before the scanner rework so the reductions' behavior on
    // boundary windows is locked down independently of how the windows
    // were produced.

    fn w(sat: usize, start: f64, end: f64) -> ContactWindow {
        ContactWindow {
            sat_index: SatId(sat),
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn touching_windows_merge_seamlessly() {
        // end == next.start: no gap between them, full coverage.
        let ws = [w(0, 0.0, 50.0), w(1, 50.0, 100.0)];
        assert_eq!(coverage_time_fraction(&ws, 0.0, 100.0), 1.0);
        assert_eq!(longest_outage_s(&ws, 0.0, 100.0), 0.0);
    }

    #[test]
    fn windows_outside_interval_do_not_count() {
        // Entirely before and entirely after [t_start, t_end).
        let ws = [w(0, -100.0, -10.0), w(1, 200.0, 300.0)];
        assert_eq!(coverage_time_fraction(&ws, 0.0, 100.0), 0.0);
        assert_eq!(longest_outage_s(&ws, 0.0, 100.0), 100.0);
        // A window straddling the start clamps to it.
        let straddle = [w(0, -50.0, 25.0)];
        assert!((coverage_time_fraction(&straddle, 0.0, 100.0) - 0.25).abs() < 1e-12);
        assert_eq!(longest_outage_s(&straddle, 0.0, 100.0), 75.0);
    }

    #[test]
    fn zero_length_windows_are_inert() {
        let ws = [w(0, 40.0, 40.0)];
        assert_eq!(coverage_time_fraction(&ws, 0.0, 100.0), 0.0);
        assert_eq!(longest_outage_s(&ws, 0.0, 100.0), 100.0);
        // Mixed with a real window, the zero-length one adds nothing.
        let mixed = [w(0, 40.0, 40.0), w(1, 10.0, 30.0)];
        assert!((coverage_time_fraction(&mixed, 0.0, 100.0) - 0.2).abs() < 1e-12);
        assert_eq!(longest_outage_s(&mixed, 0.0, 100.0), 70.0);
    }
}
