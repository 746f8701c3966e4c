//! The §4 simulation study: the machinery behind Figure 2.
//!
//! Methodology, quoting the paper: "We run a simplified simulation,
//! fixing the user and ground station coordinates and randomly
//! distributing satellites['] orbital paths. We then compute the shortest
//! path between the satellite that picks up the user's signal, and the
//! satellite that will relay that signal to the ground station, and use
//! this path length to estimate latency. To get a realistic coverage
//! estimate, we assume that if there is any overlap between a pair of
//! satellite ranges, their effective coverage will be reduced to that of
//! a single satellite."
//!
//! ## The scenario harness
//!
//! [`ScenarioRunner`] is the shared execution engine behind the sweeps
//! (and behind the `exp_*` binaries in `openspace-bench`). It adds two
//! things over naive loops, neither of which changes a single output
//! bit:
//!
//! * **Ephemeris memoization.** `random_constellation(n, seed)` draws
//!   satellites sequentially, so for a fixed trial seed the size-`n`
//!   constellation is a *prefix* of every larger size point, and all
//!   size points sample the same epoch grid. The runner routes every
//!   propagation through an [`EphemerisCache`] keyed by exact element
//!   bits, so each distinct (satellite, epoch) is propagated once per
//!   sweep instead of once per size point.
//! * **Deterministic parallelism.** Size points are independent, so the
//!   runner fans them out over a `std::thread::scope` pool via
//!   [`parallel_map_seeded`], which hands task `i` the RNG substream
//!   `SimRng::substream(cfg.seed, i)` and collects results in task
//!   order. Worker count affects wall-clock only: a parallel sweep is
//!   bitwise-identical to a serial one.
//!
//! [`ScenarioRunner::new`] is the one way to get a runner: it validates
//! the [`StudyConfig`] and takes the worker count, 1 being the serial
//! reference semantics.
//!
//! The geometry kernels underneath inherit the gated fast paths of
//! `openspace-net` transparently: [`build_snapshot_from_samples`]
//! runs its nearest-first neighbour search when `max_isl_range_m` is
//! finite (the *Physical* study regime), and falls back to the
//! exhaustive pair sweep for the paper's simplified regime, which sets
//! the range to `f64::INFINITY`; [`best_access_from_ecef`] costs one
//! vector norm per candidate. Both are bitwise-identical to the dense
//! reference kernels (see `crates/net/src/isl.rs`), so study outputs
//! are unchanged to the last bit.

use openspace_net::isl::{
    best_access_from_ecef, build_snapshot_from_samples, SatNode, SnapshotParams,
};
use openspace_net::routing::{latency_weight, shortest_path};
use openspace_orbit::constants::{km_to_m, SPEED_OF_LIGHT_M_PER_S};
use openspace_orbit::coverage::{
    disjoint_packing_coverage_fraction_from_eci, grid_coverage_fraction_from_ecef,
    worst_case_coverage_fraction_from_eci, SphereGrid,
};
use openspace_orbit::ephemeris::{EphemerisCache, EphemerisSample};
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic, Vec3};
use openspace_orbit::propagator::{PerturbationModel, Propagator};
use openspace_orbit::visibility::max_isl_range_m;
use openspace_orbit::walker::random_constellation;
use openspace_sim::config::{require_non_negative, require_positive, ConfigError};
use openspace_sim::exec::parallel_map_seeded;
use openspace_telemetry::NullRecorder;

/// Fidelity level of the latency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StudyModel {
    /// The paper's §4 "simplified simulation": the *nearest* satellite
    /// picks up the user's signal regardless of range (coverage
    /// feasibility is the separate Figure 2(c) analysis), and the ISL
    /// graph is purely distance-based with no Earth-occlusion check or
    /// range cap. With few satellites the nearest pickup is thousands of
    /// kilometres down-range and the inter-satellite leg spans a large
    /// arc — which is exactly what makes Figure 2(b) fall dramatically
    /// until ~25 satellites and then plateau near 30 ms.
    #[default]
    PaperSimplified,
    /// Physical model: pickup requires elevation above
    /// `min_elevation_rad`, ISLs require line of sight; samples without
    /// coverage count as unreachable. Reported alongside the paper model
    /// in EXPERIMENTS.md.
    Physical,
}

/// Configuration of the Figure 2 sweeps.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Fixed user site (paper: fixed coordinates).
    pub user: Geodetic,
    /// Fixed ground-station site.
    pub station: Geodetic,
    /// Constellation altitude (m).
    pub altitude_m: f64,
    /// Constellation inclination (degrees).
    pub inclination_deg: f64,
    /// Fidelity level for the latency sweep (see [`StudyModel`]).
    pub model: StudyModel,
    /// Elevation mask for user/station access (rad) under
    /// [`StudyModel::Physical`]. The paper's geometric "range" notion
    /// corresponds to the horizon (0).
    pub min_elevation_rad: f64,
    /// Number of random constellation draws averaged per point.
    pub trials: u64,
    /// Time samples per trial. Satellites *orbit*: a constellation that
    /// misses the user at one instant covers it minutes later, which is
    /// why the paper speaks of "a satellite \[that\] will orbit in range".
    /// Reachability is the fraction of (trial, epoch) samples connected.
    pub epochs_per_trial: usize,
    /// Spacing between time samples (s).
    pub epoch_spacing_s: f64,
    /// Base RNG seed; trial `k` uses `seed + k`. Doubles as the root
    /// seed from which the runner derives per-task substreams.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            // A remote-connectivity scenario: user in Nairobi, gateway in
            // Bavaria — the inter-continental relay the paper's remote-user
            // discussion implies.
            user: Geodetic::from_degrees(-1.3, 36.8, 1_700.0),
            station: Geodetic::from_degrees(48.0, 11.0, 500.0),
            altitude_m: km_to_m(780.0),
            inclination_deg: 86.4,
            model: StudyModel::PaperSimplified,
            min_elevation_rad: 0.0,
            trials: 10,
            epochs_per_trial: 8,
            epoch_spacing_s: 900.0,
            seed: 1,
        }
    }
}

/// One point of the Figure 2(b) latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Constellation size.
    pub n_satellites: usize,
    /// Fraction of (trial, epoch) samples in which user and station both
    /// had a satellite in range *and* a connected ISL path existed — a
    /// service-availability measure.
    pub reachability: f64,
    /// Mean end-to-end propagation latency over reachable trials (ms);
    /// NaN-free: `None` when nothing was reachable.
    pub mean_latency_ms: Option<f64>,
    /// Mean ISL hop count over reachable trials.
    pub mean_hops: Option<f64>,
}

/// One point of the Figure 2(c) coverage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// Constellation size.
    pub n_satellites: usize,
    /// The paper's worst-case (pairwise-overlap) estimate, mean over trials.
    pub worst_case: f64,
    /// Honest grid-union coverage, mean over trials.
    pub grid: f64,
    /// Disjoint-packing lower bound, mean over trials.
    pub packing: f64,
}

/// Topology parameters per fidelity level.
pub fn study_snapshot_params(cfg: &StudyConfig) -> SnapshotParams {
    match cfg.model {
        // The paper's simplified graph: purely distance-based ISLs with
        // no range cap and no occlusion check — a complete geometric
        // graph, in which the shortest path between pickup and relay
        // satellite is their straight-line separation. With few
        // satellites the pickup sits thousands of kilometres down-range
        // from the user and the inter-satellite leg spans a large arc, so
        // latency starts high; as the constellation grows both effects
        // shrink toward the geometric floor — the Figure 2(b)
        // drop-then-plateau, with every sample connected ("a minimum of
        // about four satellites guarantees a satellite in range").
        StudyModel::PaperSimplified => SnapshotParams {
            max_isl_range_m: f64::INFINITY,
            max_isl_per_sat: usize::MAX,
            require_los: false,
            min_elevation_rad: cfg.min_elevation_rad,
            ..SnapshotParams::default()
        },
        // Physical: line-of-sight ISLs to any visible neighbour.
        StudyModel::Physical => SnapshotParams {
            max_isl_range_m: max_isl_range_m(cfg.altitude_m, cfg.altitude_m, 80_000.0),
            max_isl_per_sat: usize::MAX,
            min_elevation_rad: cfg.min_elevation_rad,
            ..SnapshotParams::default()
        },
    }
}

/// The trial's random constellation as topology nodes.
///
/// Note the seed is `cfg.seed + trial`, *independent of the size point*:
/// together with `random_constellation`'s sequential draws this makes
/// the size-`n` constellation a prefix of the size-`m > n` one, which is
/// what lets the ephemeris cache pay off across a sweep.
pub fn study_constellation(cfg: &StudyConfig, n: usize, trial: u64) -> Vec<SatNode> {
    // Invalid parameters (non-positive altitude) yield an empty
    // constellation — every sample then counts as unreachable instead of
    // aborting a sweep. [`ScenarioRunner::new`] rejects such configs up
    // front.
    random_constellation(n, cfg.altitude_m, cfg.inclination_deg, cfg.seed + trial)
        .unwrap_or_default()
        .into_iter()
        .map(|el| SatNode {
            propagator: Propagator::new(el, PerturbationModel::TwoBody),
            operator: 0,
            has_optical: false,
        })
        .collect()
}

/// Nearest satellite to an ECEF point by straight-line distance, with no
/// visibility requirement — the paper's simplified pickup.
fn nearest_any_range(ground_ecef: Vec3, sat_ecef: &[Vec3]) -> Option<(usize, f64)> {
    sat_ecef
        .iter()
        .enumerate()
        .map(|(i, &se)| (i, ground_ecef.distance(se)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The shared scenario harness: memoized ephemeris + deterministic
/// parallel sweep execution (see the module docs).
#[derive(Debug)]
pub struct ScenarioRunner {
    cfg: StudyConfig,
    threads: usize,
    cache: EphemerisCache,
}

impl ScenarioRunner {
    /// A runner for `cfg` on `threads` workers (clamped to ≥ 1; pass
    /// [`default_threads`](openspace_sim::exec::default_threads)`()` for
    /// all available cores). Worker count never changes results, only
    /// wall-clock time.
    ///
    /// # Errors
    /// A non-positive or non-finite `altitude_m` or `epoch_spacing_s`, an
    /// `inclination_deg` outside `[0, 180]` (or NaN), a negative or
    /// non-finite `min_elevation_rad`, and zero `trials` or
    /// `epochs_per_trial` come back as a [`ConfigError`] naming the
    /// field.
    pub fn new(cfg: StudyConfig, threads: usize) -> Result<Self, ConfigError> {
        require_positive("altitude_m", cfg.altitude_m)?;
        if !(0.0..=180.0).contains(&cfg.inclination_deg) {
            return Err(ConfigError::OutOfRange {
                field: "inclination_deg",
                value: cfg.inclination_deg,
                min: 0.0,
                max: 180.0,
            });
        }
        require_positive("epoch_spacing_s", cfg.epoch_spacing_s)?;
        require_non_negative("min_elevation_rad", cfg.min_elevation_rad)?;
        if cfg.trials == 0 {
            return Err(ConfigError::NonPositive {
                field: "trials",
                value: 0.0,
            });
        }
        if cfg.epochs_per_trial == 0 {
            return Err(ConfigError::NonPositive {
                field: "epochs_per_trial",
                value: 0.0,
            });
        }
        Ok(Self {
            cfg,
            threads: threads.max(1),
            cache: EphemerisCache::new(),
        })
    }

    /// The sweep configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// Worker count used for sweeps.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The ephemeris memo shared by all of this runner's sweeps (hit and
    /// miss counters included — useful for reporting cache efficacy).
    pub fn cache(&self) -> &EphemerisCache {
        &self.cache
    }

    /// Figure 2(b): propagation latency vs constellation size.
    ///
    /// For each trial: place `n` satellites on random orbits, find the
    /// satellite picking up the user and the satellite over the ground
    /// station, compute the shortest ISL path between them, and charge
    /// the geometric path length at the speed of light (plus both access
    /// legs). Size points run on the worker pool; output order and
    /// content match a serial run exactly.
    pub fn latency_vs_satellites(&self, sizes: &[usize]) -> Vec<LatencyPoint> {
        let user_ecef = geodetic_to_ecef(self.cfg.user);
        let station_ecef = geodetic_to_ecef(self.cfg.station);
        let params = study_snapshot_params(&self.cfg);
        parallel_map_seeded(sizes, self.threads, self.cfg.seed, |&n, _rng| {
            self.latency_point(n, user_ecef, station_ecef, &params)
        })
    }

    fn latency_point(
        &self,
        n: usize,
        user_ecef: Vec3,
        station_ecef: Vec3,
        params: &SnapshotParams,
    ) -> LatencyPoint {
        let cfg = &self.cfg;
        let mut samples_total = 0u64;
        let mut reachable = 0u64;
        let mut latency_sum = 0.0;
        let mut hops_sum = 0usize;
        for trial in 0..cfg.trials {
            let sats = study_constellation(cfg, n, trial);
            let props: Vec<Propagator> = sats.iter().map(|s| s.propagator).collect();
            for epoch in 0..cfg.epochs_per_trial {
                let t = epoch as f64 * cfg.epoch_spacing_s;
                let eph = self.cache.samples(&props, t);
                samples_total += 1;
                if let Some((lat_s, hops)) =
                    self.one_sample_latency(&sats, &eph, user_ecef, station_ecef, params)
                {
                    reachable += 1;
                    latency_sum += lat_s;
                    hops_sum += hops;
                }
            }
        }
        LatencyPoint {
            n_satellites: n,
            reachability: reachable as f64 / samples_total as f64,
            mean_latency_ms: (reachable > 0).then(|| latency_sum / reachable as f64 * 1_000.0),
            mean_hops: (reachable > 0).then(|| hops_sum as f64 / reachable as f64),
        }
    }

    fn one_sample_latency(
        &self,
        sats: &[SatNode],
        eph: &[EphemerisSample],
        user_ecef: Vec3,
        station_ecef: Vec3,
        params: &SnapshotParams,
    ) -> Option<(f64, usize)> {
        let ecef: Vec<Vec3> = eph.iter().map(|s| s.ecef).collect();
        let pick = |ground: Vec3| match self.cfg.model {
            StudyModel::PaperSimplified => nearest_any_range(ground, &ecef),
            StudyModel::Physical => {
                best_access_from_ecef(ground, &ecef, self.cfg.min_elevation_rad)
            }
        };
        let (user_sat, user_slant) = pick(user_ecef)?;
        let (gs_sat, gs_slant) = pick(station_ecef)?;
        let graph = build_snapshot_from_samples(sats, eph, &[], params);
        let path = shortest_path(&graph, user_sat, gs_sat, latency_weight, &mut NullRecorder)?;
        let latency = (user_slant + gs_slant) / SPEED_OF_LIGHT_M_PER_S + path.total_cost;
        Some((latency, path.hops()))
    }

    /// Figure 2(c): Earth coverage vs constellation size, under the
    /// paper's worst-case overlap model (plus the honest and lower-bound
    /// estimators for context). Coverage is evaluated at the horizon
    /// (0° mask), as in the paper's geometric "satellite range" notion.
    pub fn coverage_vs_satellites(&self, sizes: &[usize]) -> Vec<CoveragePoint> {
        let grid = SphereGrid::new(2_000);
        parallel_map_seeded(sizes, self.threads, self.cfg.seed, |&n, _rng| {
            self.coverage_point(&grid, n)
        })
    }

    fn coverage_point(&self, grid: &SphereGrid, n: usize) -> CoveragePoint {
        let cfg = &self.cfg;
        let mut wc = 0.0;
        let mut gr = 0.0;
        let mut pk = 0.0;
        for trial in 0..cfg.trials {
            let props: Vec<Propagator> = study_constellation(cfg, n, trial)
                .into_iter()
                .map(|s| s.propagator)
                .collect();
            let eph = self.cache.samples(&props, 0.0);
            let eci: Vec<Vec3> = eph.iter().map(|s| s.eci).collect();
            let ecef: Vec<Vec3> = eph.iter().map(|s| s.ecef).collect();
            wc += worst_case_coverage_fraction_from_eci(&eci, 0.0);
            gr += grid_coverage_fraction_from_ecef(grid, &ecef, 0.0);
            pk += disjoint_packing_coverage_fraction_from_eci(&eci, 0.0);
        }
        let t = cfg.trials as f64;
        CoveragePoint {
            n_satellites: n,
            worst_case: wc / t,
            grid: gr / t,
            packing: pk / t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> StudyConfig {
        StudyConfig {
            trials: 4,
            epochs_per_trial: 4,
            ..Default::default()
        }
    }

    fn serial(cfg: StudyConfig) -> ScenarioRunner {
        ScenarioRunner::new(cfg, 1).expect("valid config")
    }

    fn latency_vs_satellites(cfg: &StudyConfig, sizes: &[usize]) -> Vec<LatencyPoint> {
        serial(*cfg).latency_vs_satellites(sizes)
    }

    fn coverage_vs_satellites(cfg: &StudyConfig, sizes: &[usize]) -> Vec<CoveragePoint> {
        serial(*cfg).coverage_vs_satellites(sizes)
    }

    #[test]
    fn latency_drops_then_plateaus() {
        let cfg = quick_cfg();
        let pts = latency_vs_satellites(&cfg, &[8, 25, 60, 100]);
        // Under the paper's simplified model every sample connects.
        for p in &pts {
            assert_eq!(p.reachability, 1.0, "n={}", p.n_satellites);
        }
        let l8 = pts[0].mean_latency_ms.unwrap();
        let l60 = pts[2].mean_latency_ms.unwrap();
        let l100 = pts[3].mean_latency_ms.unwrap();
        assert!(l60 < l8, "latency should fall: {l8} -> {l60}");
        // Plateau: 60 → 100 changes little.
        assert!((l60 - l100).abs() / l60 < 0.35, "plateau: {l60} vs {l100}");
    }

    #[test]
    fn plateau_latency_is_tens_of_ms() {
        // The paper reports ~30 ms. Our geometry (Nairobi→Bavaria) should
        // land in the same band.
        let cfg = quick_cfg();
        let pts = latency_vs_satellites(&cfg, &[80]);
        let l = pts[0].mean_latency_ms.expect("80 sats must connect");
        assert!((15.0..60.0).contains(&l), "plateau latency {l} ms");
    }

    #[test]
    fn tiny_constellations_often_unreachable_physically() {
        // Under the physical model (elevation-masked pickup, line-of-
        // sight ISLs), two satellites rarely serve both endpoints.
        let cfg = StudyConfig {
            model: StudyModel::Physical,
            ..quick_cfg()
        };
        let pts = latency_vs_satellites(&cfg, &[2]);
        assert!(
            pts[0].reachability < 0.75,
            "2 satellites should rarely connect user and station: {}",
            pts[0].reachability
        );
    }

    #[test]
    fn coverage_curve_rises_to_total() {
        let cfg = quick_cfg();
        let pts = coverage_vs_satellites(&cfg, &[5, 20, 60]);
        assert!(pts[0].worst_case < pts[1].worst_case);
        assert!(pts[1].worst_case < pts[2].worst_case + 0.05);
        assert!(
            pts[2].worst_case > 0.95,
            "60 sats should reach ~total coverage, got {}",
            pts[2].worst_case
        );
    }

    #[test]
    fn packing_bound_is_lowest_estimator() {
        let cfg = quick_cfg();
        for p in coverage_vs_satellites(&cfg, &[15, 40]) {
            assert!(p.packing <= p.worst_case + 1e-9);
            assert!(p.packing <= p.grid + 0.05);
        }
    }

    #[test]
    fn study_is_deterministic() {
        let cfg = quick_cfg();
        let a = latency_vs_satellites(&cfg, &[20]);
        let b = latency_vs_satellites(&cfg, &[20]);
        assert_eq!(a[0].reachability, b[0].reachability);
        assert_eq!(a[0].mean_latency_ms, b[0].mean_latency_ms);
    }

    /// Bitwise field-level equality for the determinism assertions.
    fn assert_points_bitwise_eq(a: &[LatencyPoint], b: &[LatencyPoint]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.n_satellites, y.n_satellites);
            assert_eq!(x.reachability.to_bits(), y.reachability.to_bits());
            assert_eq!(
                x.mean_latency_ms.map(f64::to_bits),
                y.mean_latency_ms.map(f64::to_bits)
            );
            assert_eq!(x.mean_hops.map(f64::to_bits), y.mean_hops.map(f64::to_bits));
        }
    }

    #[test]
    fn parallel_sweep_is_bitwise_identical_to_serial() {
        let cfg = quick_cfg();
        let sizes = [4, 8, 16, 25, 40];
        let serial = serial(cfg).latency_vs_satellites(&sizes);
        for threads in [2, 3, 8] {
            let par = ScenarioRunner::new(cfg, threads)
                .expect("valid config")
                .latency_vs_satellites(&sizes);
            assert_points_bitwise_eq(&serial, &par);
        }
    }

    #[test]
    fn parallel_coverage_matches_serial() {
        let cfg = quick_cfg();
        let sizes = [5, 15, 30];
        let serial = serial(cfg).coverage_vs_satellites(&sizes);
        let par = ScenarioRunner::new(cfg, 4)
            .expect("valid config")
            .coverage_vs_satellites(&sizes);
        for (x, y) in serial.iter().zip(&par) {
            assert_eq!(x.n_satellites, y.n_satellites);
            assert_eq!(x.worst_case.to_bits(), y.worst_case.to_bits());
            assert_eq!(x.grid.to_bits(), y.grid.to_bits());
            assert_eq!(x.packing.to_bits(), y.packing.to_bits());
        }
    }

    #[test]
    fn sweep_reuses_ephemeris_across_size_points() {
        // With the per-trial seed independent of size, the size-8
        // constellation is a prefix of the size-16/24 ones — the second
        // and third size points must hit the cache for every satellite
        // the smaller points already propagated.
        let runner = serial(quick_cfg());
        runner.latency_vs_satellites(&[8]);
        let misses_after_first = runner.cache().misses();
        assert_eq!(runner.cache().hits(), 0, "first sweep point cannot hit");
        runner.latency_vs_satellites(&[8, 16]);
        // The size-8 point re-runs entirely from cache; size-16 reuses
        // its first 8 satellites per trial and epoch.
        let expected_hits = 2 * misses_after_first;
        assert_eq!(runner.cache().hits(), expected_hits);
        // Distinct samples overall: 16 sats × trials × epochs.
        let cfg = quick_cfg();
        assert_eq!(
            runner.cache().misses(),
            16 * cfg.trials * cfg.epochs_per_trial as u64
        );
    }

    #[test]
    fn new_clamps_threads_and_matches_serial() {
        let cfg = quick_cfg();
        assert_eq!(ScenarioRunner::new(cfg, 0).unwrap().threads(), 1);
        let two = ScenarioRunner::new(cfg, 2).expect("valid config");
        assert_eq!(two.threads(), 2);
        let a = two.latency_vs_satellites(&[10]);
        assert_points_bitwise_eq(&a, &latency_vs_satellites(&cfg, &[10]));
    }

    /// Zero trials used to divide 0 by 0 into a NaN reachability and NaN
    /// coverage.
    #[test]
    fn zero_trials_is_a_config_error() {
        let err = ScenarioRunner::new(
            StudyConfig {
                trials: 0,
                ..quick_cfg()
            },
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::NonPositive {
                field: "trials",
                value: 0.0
            }
        );
    }

    /// An inclination outside [0°, 180°] used to draw empty
    /// constellations and report 0 reachability as if it were a result;
    /// both ends of the range are orbits.
    #[test]
    fn inclination_outside_0_to_180_degrees_is_a_config_error() {
        let with = |inclination_deg| StudyConfig {
            inclination_deg,
            ..quick_cfg()
        };
        for bad in [-0.5, 180.5, f64::NAN, f64::INFINITY] {
            let err = ScenarioRunner::new(with(bad), 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::OutOfRange {
                        field: "inclination_deg",
                        min: 0.0,
                        max: 180.0,
                        value,
                    } if value.to_bits() == bad.to_bits()
                ),
                "{bad}: {err:?}"
            );
        }
        for edge in [0.0, 180.0] {
            assert!(ScenarioRunner::new(with(edge), 1).is_ok(), "{edge}");
            assert_eq!(study_constellation(&with(edge), 3, 0).len(), 3, "{edge}");
        }
    }

    /// A below-ground altitude used to draw empty constellations and
    /// report 0 reachability as if it were a result.
    #[test]
    fn below_ground_altitude_is_a_config_error() {
        let err = ScenarioRunner::new(
            StudyConfig {
                altitude_m: -1.0,
                ..quick_cfg()
            },
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::NonPositive {
                field: "altitude_m",
                value: -1.0
            }
        );
    }
}
