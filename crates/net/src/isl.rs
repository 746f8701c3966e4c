//! ISL feasibility and snapshot construction.
//!
//! Turns orbital state + hardware classes into the [`Graph`] the routers
//! run on: which satellite pairs can link (range, line of sight, terminal
//! count), at what capacity (RF vs optical link budgets from
//! `openspace-phy`), and which satellites see which ground stations.
//!
//! # Nearest-first ISL neighbour search
//!
//! Testing all `N(N−1)/2` satellite pairs per snapshot is the scaling
//! wall for mega-constellation runs, and most of that work is wasted:
//! each satellite keeps only its `k = max_isl_per_sat` nearest in-range,
//! in-sight peers. [`build_snapshot_from_samples`] therefore searches
//! outward from each satellite, nearest cells first, and stops as soon
//! as no unvisited satellite can enter its list. The neighbour lists —
//! and so the graph — are **provably identical** to the exhaustive sweep
//! in [`build_snapshot_from_samples_dense`]:
//!
//! * **Grid.** Satellites are bucketed into a dense uniform grid over
//!   the fleet's bounding box, stored in counting-sort (CSR) order:
//!   satellites contiguous by cell, ascending index within a cell. The
//!   cell edge `c` is the box's largest extent over `⌈∛N⌉` cells (capped
//!   at `MAX_CELLS_PER_AXIS`, and at least 1 m so that squared
//!   coordinate gaps never underflow), so a cell holds O(1) satellites
//!   on average whatever the ISL range.
//! * **Ring termination.** Satellite `i` visits the Chebyshev rings of
//!   cells around its own cell, `r = 0, 1, 2, …`. After ring `r`, every
//!   unvisited satellite's cell differs from `i`'s by at least `r + 1`
//!   along some axis, so that coordinate differs by more than `r·c`, and
//!   so does the distance. In floating point: each axis has at most
//!   `MAX_CELLS_PER_AXIS + 1` cells, so a computed cell quotient is off
//!   from the exact one by at most `1025 · 4·2⁻⁵³ < 1e-12` (clamping to
//!   the last cell only moves an index toward the exact quotient), and
//!   a computed distance is at most four ulps short of the exact one.
//!   Shrinking the reach to `r·c·(1 − CELL_MARGIN)` with
//!   `CELL_MARGIN = 1e-9` covers both with three orders of magnitude
//!   to spare: every unvisited satellite's *computed* distance exceeds
//!   the reach. The search stops after ring `r` when its list holds `k`
//!   entries whose worst distance is below the reach (no unvisited peer
//!   can displace one), when the reach exceeds `max_isl_range_m` (no
//!   unvisited peer is in range), or when the rings cover the grid.
//! * **Each pair once.** Satellites search in index order, and each
//!   records the last ring it visited. When `i` meets a peer `j < i` in
//!   its ring `r`, `j`'s search already tested the pair exactly when
//!   `r ≤` `j`'s last ring (Chebyshev distance between two cells is
//!   symmetric), so `i` skips it. A tested pair is offered to both
//!   satellites' lists, whether or not the other satellite's search
//!   has finished. Range is checked first; the line-of-sight predicate
//!   — evaluated with the lower index first, as the dense loops do —
//!   runs only if the pair can enter at least one list right now. A
//!   list's worst entry only ever improves, so a pair that cannot enter
//!   now never could.
//! * **Bounded top-k equals sort-then-truncate.** Each list keeps at
//!   most `k` entries ordered by `(distance, peer index)`. The dense
//!   sweep pushes peers in ascending index order and then stable-sorts
//!   by distance — the same lexicographic order. That order is strict
//!   on one satellite's peers, so the `k` smallest of a set do not
//!   depend on the order they arrive in. Every peer in `i`'s true top
//!   `k` is offered to `i`: if `i`'s search reached the peer's cell, one
//!   of the two searches tested the pair; if not, `i` stopped early and
//!   the peer could not be in its top `k`. Everything else offered is a
//!   true candidate too. The sorted lists therefore equal the dense lists after
//!   truncation, entry for entry, and mutual selection sees
//!   bit-identical input. (Distance bits don't depend on operand order:
//!   `|a−b|` and `|b−a|` agree exactly in IEEE arithmetic.)
//! * **Fallback.** With a non-finite range (`f64::INFINITY` is how the
//!   "simplified simulation" study disables the range cut) or non-finite
//!   positions, the builder runs the exhaustive sweep instead: same
//!   output, no pruning.
//!
//! `snapshot.pairs_tested` counts the satellite pairs whose distance the
//! builder computed — each at most once — and `snapshot.pairs_pruned`
//! the rest of the `N(N−1)/2`.
//!
//! The ground-link loop keeps its dense station×satellite shape but
//! hoists a per-station **max-slant-range prune** in front of the
//! `asin`-based elevation test: a satellite visible at elevation
//! `≥ mask` from a site at geocentric radius `R` is within
//! `slant_range_at_elevation_m(R, r_max, mask)` of it, where `r_max` is
//! the fleet's maximum geocentric radius (the pivot range grows with
//! satellite radius and shrinks with elevation). The gate is computed
//! from the *actual* `|ground|` and `|sat|` radii — immune to the
//! equatorial/mean Earth-radius convention split documented in
//! `openspace_orbit::visibility` — and inflated by `1e-9` relative,
//! several orders of magnitude beyond the fp error of a squared-norm
//! comparison, so no visible satellite is ever pruned (a mask outside
//! `[−π/2, π/2]` is clamped toward zero, which only widens the gate).
//! Pairs that survive pruning are decided by the same elevation
//! expression as before via [`visible_slant_range_m`], which also
//! returns the slant range from the one vector norm it computes.
//!
//! Equivalence is pinned by `tests/tests/snapshot_equivalence.rs`:
//! graph equality (including edge bit patterns) between the gated and
//! dense builders over ≥128 seeded random scenarios, Walker-Delta
//! shells up to 1,584 satellites, every terminal count from 0 to
//! `usize::MAX`, and exact distance ties.

use crate::topology::{Graph, LinkTech};
use openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S;
use openspace_orbit::ephemeris::EphemerisSample;
use openspace_orbit::frames::{ecef_to_eci, eci_to_ecef, Vec3};
use openspace_orbit::propagator::Propagator;
use openspace_orbit::visibility::{
    is_visible, line_of_sight_with_clearance, slant_range_at_elevation_m, visible_slant_range_m,
};
use openspace_phy::bands::RfBand;
use openspace_phy::linkbudget::{RfLink, RfTerminal};
use openspace_phy::optical::{achievable_rate_bps as optical_rate_bps, OpticalTerminal};
use openspace_telemetry::{NullRecorder, Recorder};

/// A satellite as the topology builder sees it.
#[derive(Debug, Clone, Copy)]
pub struct SatNode {
    /// Its orbit.
    pub propagator: Propagator,
    /// Owning operator (plain id; the core crate maps identities).
    pub operator: u32,
    /// Whether it carries laser terminals.
    pub has_optical: bool,
}

/// A ground station as the topology builder sees it.
#[derive(Debug, Clone, Copy)]
pub struct GroundNode {
    /// ECEF position (m).
    pub position_ecef: Vec3,
    /// Owning operator.
    pub operator: u32,
}

/// Parameters governing snapshot construction.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotParams {
    /// Hard ISL range limit (m) — beyond this no pairing is attempted
    /// even with line of sight (beam budgets close the link first).
    pub max_isl_range_m: f64,
    /// Required ray clearance above the surface (m) for ISLs.
    pub los_clearance_m: f64,
    /// Whether ISLs require line of sight at all. `true` for physical
    /// operation; `false` reproduces "simplified simulation" setups that
    /// treat the ISL graph as purely distance-based (the paper's §4).
    pub require_los: bool,
    /// Maximum ISL neighbours per satellite (terminal count). Nearest
    /// neighbours win.
    pub max_isl_per_sat: usize,
    /// Minimum elevation (rad) for ground links.
    pub min_elevation_rad: f64,
    /// RF terminal class used for RF ISL budgets.
    pub rf_terminal: RfTerminal,
    /// RF band for ISLs.
    pub isl_band: RfBand,
    /// Optical terminal class used when both ends have lasers.
    pub optical_terminal: OpticalTerminal,
    /// Ground-link capacity (bit/s) — gateway-class, modeled as constant
    /// (the gateway dish dominates the budget).
    pub ground_link_bps: f64,
}

impl Default for SnapshotParams {
    fn default() -> Self {
        Self {
            max_isl_range_m: 5_000_000.0,
            los_clearance_m: 80_000.0,
            require_los: true,
            max_isl_per_sat: 4,
            min_elevation_rad: 10f64.to_radians(),
            rf_terminal: RfTerminal::midsat(),
            isl_band: RfBand::S,
            optical_terminal: OpticalTerminal::conlct80_class(),
            ground_link_bps: 500.0e6,
        }
    }
}

/// Capacity (bit/s) of an ISL between two satellites `distance_m` apart,
/// choosing optical when both ends have terminals, RF otherwise.
pub fn isl_capacity_bps(
    a_optical: bool,
    b_optical: bool,
    distance_m: f64,
    params: &SnapshotParams,
) -> (f64, LinkTech) {
    if a_optical && b_optical {
        let rate = optical_rate_bps(
            &params.optical_terminal,
            &params.optical_terminal,
            distance_m,
        );
        (rate, LinkTech::Optical)
    } else {
        let link = RfLink {
            tx: params.rf_terminal,
            rx: params.rf_terminal,
            band: params.isl_band,
            distance_m,
            extra_loss_db: 0.0,
        };
        (link.achievable_rate_bps(), LinkTech::Rf)
    }
}

/// Build the topology snapshot at time `t_s`.
///
/// Satellite nodes come first (`0..sats.len()`), then stations. ISLs are
/// chosen greedily: each satellite ranks in-range, in-sight peers by
/// distance and keeps at most `max_isl_per_sat`; a link exists when
/// *both* ends keep each other (mutual selection, matching how terminal
/// budgets bind on both spacecraft) and are apart: satellites at the
/// same position get no ISL.
///
/// Reports the builder's counters through `rec` (see
/// [`build_snapshot_from_samples_recorded`]); pass `&mut NullRecorder`
/// for none.
pub fn build_snapshot(
    t_s: f64,
    sats: &[SatNode],
    stations: &[GroundNode],
    params: &SnapshotParams,
    rec: &mut dyn Recorder,
) -> Graph {
    let samples: Vec<EphemerisSample> = sats
        .iter()
        .map(|s| {
            let eci = s.propagator.position_eci(t_s);
            EphemerisSample {
                eci,
                ecef: eci_to_ecef(eci, t_s),
            }
        })
        .collect();
    build_snapshot_from_samples_recorded(sats, &samples, stations, params, rec)
}

/// [`build_snapshot`] with the per-satellite ephemeris already in hand —
/// the entry point for callers holding an
/// [`openspace_orbit::ephemeris::EphemerisCache`], which skips the
/// propagation and frame rotations entirely on cache hits.
///
/// `samples[i]` must be satellite `i`'s state at the snapshot instant;
/// the result is identical to [`build_snapshot`] at that instant.
pub fn build_snapshot_from_samples(
    sats: &[SatNode],
    samples: &[EphemerisSample],
    stations: &[GroundNode],
    params: &SnapshotParams,
) -> Graph {
    build_snapshot_from_samples_recorded(sats, samples, stations, params, &mut NullRecorder)
}

/// Relative shrink of a search ring's reach: several orders of
/// magnitude above the fp error of the cell quotients and distances it
/// guards (see the module docs), so an early stop never drops a peer.
const CELL_MARGIN: f64 = 1e-9;

/// Cap on the grid's cells per axis, which bounds every cell quotient
/// by `MAX_CELLS_PER_AXIS + 1` and its rounding error below `1e-12`,
/// comfortably inside [`CELL_MARGIN`].
const MAX_CELLS_PER_AXIS: usize = 1024;

/// Relative inflation of the ground-link range gate: several orders of
/// magnitude above the fp error of the squared-norm comparison it
/// guards, several below anything that would admit extra work.
const GROUND_GATE_MARGIN: f64 = 1e-9;

/// One satellite's ISL candidates: `(peer index, distance)`.
type Candidates = Vec<(usize, f64)>;

/// `(distance, peer index)` order — the order the dense sweep's stable
/// distance sort leaves its index-ascending pushes in.
fn nearer(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Whether `peer` belongs in a list bounded at `k` entries. A list
/// below `k` is unsorted; a full one is sorted, worst last.
fn admits(list: &Candidates, k: usize, peer: (usize, f64)) -> bool {
    list.len() < k || list.last().is_some_and(|w| nearer(&peer, w).is_lt())
}

/// Insert an admitted `peer`, evicting the worst entry of a full list.
fn offer(list: &mut Candidates, k: usize, peer: (usize, f64)) {
    if list.len() < k {
        list.push(peer);
        if list.len() == k {
            list.sort_unstable_by(nearer);
        }
    } else {
        list.pop();
        let at = list.partition_point(|e| nearer(e, &peer).is_lt());
        list.insert(at, peer);
    }
}

/// The satellites bucketed into a dense uniform grid over their
/// bounding box, in counting-sort (CSR) layout.
struct CellGrid {
    /// Cell edge (m).
    cell_m: f64,
    /// Cells per axis.
    dims: [usize; 3],
    /// `members[start[c]..start[c + 1]]` are cell `c`'s satellites.
    start: Vec<usize>,
    /// Satellite indices, contiguous by cell, ascending within a cell.
    members: Vec<usize>,
    /// Each satellite's cell coordinates.
    cell_of: Vec<[usize; 3]>,
}

impl CellGrid {
    /// The grid over `pos`, or `None` when a position (or the box
    /// extent) is not finite and the builder must fall back to the
    /// exhaustive sweep.
    fn new(pos: &[Vec3]) -> Option<CellGrid> {
        let coords = |p: &Vec3| [p.x, p.y, p.z];
        if !pos.iter().flat_map(coords).all(f64::is_finite) {
            return None;
        }
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in pos {
            for (a, v) in coords(p).into_iter().enumerate() {
                lo[a] = lo[a].min(v);
                hi[a] = hi[a].max(v);
            }
        }
        let extent = (0..3).map(|a| hi[a] - lo[a]).fold(0.0, f64::max);
        let per_axis = (pos.len() as f64)
            .cbrt()
            .ceil()
            .clamp(1.0, MAX_CELLS_PER_AXIS as f64);
        let cell_m = (extent / per_axis).max(1.0);
        if !cell_m.is_finite() {
            return None;
        }
        let dims: [usize; 3] =
            std::array::from_fn(|a| ((hi[a] - lo[a]) / cell_m).floor() as usize + 1);
        let cell_of: Vec<[usize; 3]> = pos
            .iter()
            .map(|p| {
                let v = coords(p);
                std::array::from_fn(|a| {
                    (((v[a] - lo[a]) / cell_m).floor() as usize).min(dims[a] - 1)
                })
            })
            .collect();
        let id = |c: [usize; 3]| (c[0] * dims[1] + c[1]) * dims[2] + c[2];
        let mut start = vec![0usize; dims.iter().product::<usize>() + 1];
        for &c in &cell_of {
            start[id(c) + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut fill = start.clone();
        let mut members = vec![0usize; pos.len()];
        for (i, &c) in cell_of.iter().enumerate() {
            members[fill[id(c)]] = i;
            fill[id(c)] += 1;
        }
        Some(CellGrid {
            cell_m,
            dims,
            start,
            members,
            cell_of,
        })
    }

    /// Call `visit` with the satellites of every cell at Chebyshev
    /// distance exactly `r` from `c`, one contiguous run of cells along
    /// the last axis at a time.
    fn for_each_in_ring(&self, c: [usize; 3], r: usize, mut visit: impl FnMut(&[usize])) {
        let [dx, dy, dz] = self.dims;
        let span = |ci: usize, d: usize| ci.saturating_sub(r)..=(ci + r).min(d - 1);
        let mut run = |x: usize, y: usize, z0: usize, z1: usize| {
            let row = (x * dy + y) * dz;
            visit(&self.members[self.start[row + z0]..self.start[row + z1 + 1]]);
        };
        for x in span(c[0], dx) {
            for y in span(c[1], dy) {
                if x.abs_diff(c[0]) == r || y.abs_diff(c[1]) == r {
                    let zs = span(c[2], dz);
                    run(x, y, *zs.start(), *zs.end());
                } else {
                    if c[2] >= r {
                        run(x, y, c[2] - r, c[2] - r);
                    }
                    if c[2] + r < dz {
                        run(x, y, c[2] + r, c[2] + r);
                    }
                }
            }
        }
    }
}

/// Every satellite's nearest `max_isl_per_sat` in-range, in-sight peers
/// by the ring search of the module docs, sorted by [`nearer`], plus the
/// number of pairs whose distance was computed.
fn ring_search_candidates(
    pos: &[Vec3],
    grid: &CellGrid,
    params: &SnapshotParams,
) -> (Vec<Candidates>, u64) {
    let k = params.max_isl_per_sat;
    let range = params.max_isl_range_m;
    let n = pos.len();
    let last_ring = grid.dims.iter().max().map_or(0, |d| d - 1);
    let mut lists: Vec<Candidates> = vec![Vec::new(); n];
    // The last ring each satellite's search visited.
    let mut final_ring = vec![0usize; n];
    let mut tested: u64 = 0;
    for i in 0..n {
        let mut r = 0;
        loop {
            grid.for_each_in_ring(grid.cell_of[i], r, |run| {
                for &j in run {
                    if j == i || (j < i && final_ring[j] >= r) {
                        continue;
                    }
                    tested += 1;
                    let (lo, hi) = (i.min(j), i.max(j));
                    let d = pos[lo].distance(pos[hi]);
                    if d > range {
                        continue;
                    }
                    let to_i = admits(&lists[i], k, (j, d));
                    let to_j = admits(&lists[j], k, (i, d));
                    if (to_i || to_j)
                        && (!params.require_los
                            || line_of_sight_with_clearance(
                                pos[lo],
                                pos[hi],
                                params.los_clearance_m,
                            ))
                    {
                        if to_i {
                            offer(&mut lists[i], k, (j, d));
                        }
                        if to_j {
                            offer(&mut lists[j], k, (i, d));
                        }
                    }
                }
            });
            // Every satellite not yet visited is farther than `reach`.
            let reach = r as f64 * grid.cell_m * (1.0 - CELL_MARGIN);
            let settled = lists[i].len() == k && lists[i].last().is_none_or(|w| w.1 < reach);
            if r == last_ring || reach > range || settled {
                break;
            }
            r += 1;
        }
        final_ring[i] = r;
    }
    for list in &mut lists {
        if list.len() < k {
            list.sort_unstable_by(nearer);
        }
    }
    (lists, tested)
}

/// The exhaustive candidate sweep: every `i < j` pair tested, lists
/// stable-sorted by distance and truncated to `max_isl_per_sat`.
fn dense_candidates(pos: &[Vec3], params: &SnapshotParams) -> Vec<Candidates> {
    let mut candidates: Vec<Candidates> = vec![Vec::new(); pos.len()];
    for i in 0..pos.len() {
        for j in (i + 1)..pos.len() {
            let d = pos[i].distance(pos[j]);
            if d <= params.max_isl_range_m
                && (!params.require_los
                    || line_of_sight_with_clearance(pos[i], pos[j], params.los_clearance_m))
            {
                candidates[i].push((j, d));
                candidates[j].push((i, d));
            }
        }
    }
    for c in candidates.iter_mut() {
        c.sort_by(|a, b| a.1.total_cmp(&b.1));
        c.truncate(params.max_isl_per_sat);
    }
    candidates
}

/// Mutual selection: an ISL exists when both ends keep each other.
fn add_mutual_isls(
    g: &mut Graph,
    sats: &[SatNode],
    candidates: &[Candidates],
    params: &SnapshotParams,
) {
    for (i, list) in candidates.iter().enumerate() {
        for &(j, d) in list {
            // Coincident satellites have no link budget (path loss
            // needs a positive distance), so they get no ISL.
            if j > i && d > 0.0 && candidates[j].iter().any(|&(k, _)| k == i) {
                let (cap, tech) =
                    isl_capacity_bps(sats[i].has_optical, sats[j].has_optical, d, params);
                if cap > 0.0 {
                    g.add_bidirectional(
                        i,
                        j,
                        d / SPEED_OF_LIGHT_M_PER_S,
                        cap,
                        sats[i].operator,
                        sats[j].operator,
                        tech,
                    );
                }
            }
        }
    }
}

/// [`build_snapshot_from_samples`] with telemetry: counts
/// `snapshot.pairs_tested` / `snapshot.pairs_pruned` (satellite pairs
/// whose distance the neighbour search did / did not compute) and
/// `snapshot.ground_tested` / `snapshot.ground_pruned` (station–satellite
/// pairs that reached / never reached the elevation test).
pub fn build_snapshot_from_samples_recorded(
    sats: &[SatNode],
    samples: &[EphemerisSample],
    stations: &[GroundNode],
    params: &SnapshotParams,
    rec: &mut dyn Recorder,
) -> Graph {
    assert_eq!(sats.len(), samples.len(), "one sample per satellite");
    let n = sats.len();
    let mut g = Graph::new(n, stations.len());
    let pos_eci: Vec<Vec3> = samples.iter().map(|s| s.eci).collect();

    let total_pairs = (n as u64) * (n as u64).saturating_sub(1) / 2;
    let grid = params
        .max_isl_range_m
        .is_finite()
        .then(|| CellGrid::new(&pos_eci))
        .flatten();
    let (candidates, tested) = match grid {
        Some(grid) => ring_search_candidates(&pos_eci, &grid, params),
        None => (dense_candidates(&pos_eci, params), total_pairs),
    };
    rec.add("snapshot.pairs_tested", tested);
    rec.add("snapshot.pairs_pruned", total_pairs - tested);
    add_mutual_isls(&mut g, sats, &candidates, params);

    // Ground links: every station links to every visible satellite,
    // behind the per-station max-slant-range prune (module docs).
    let r_max_fleet = samples
        .iter()
        .map(|s| s.ecef.norm())
        .fold(f64::NEG_INFINITY, f64::max);
    let mask = params
        .min_elevation_rad
        .clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
    let mut ground_tested: u64 = 0;
    let mut ground_pruned: u64 = 0;
    for (gi, st) in stations.iter().enumerate() {
        let gs_node = g.station_node(gi);
        let site_radius = st.position_ecef.norm();
        let gate_sq = if site_radius > 0.0 && r_max_fleet >= site_radius {
            let gate = slant_range_at_elevation_m(site_radius, r_max_fleet, mask)
                * (1.0 + GROUND_GATE_MARGIN);
            gate.is_finite().then_some(gate * gate)
        } else {
            None
        };
        for (si, _s) in sats.iter().enumerate() {
            let sat_ecef = samples[si].ecef;
            if let Some(gate_sq) = gate_sq {
                if (sat_ecef - st.position_ecef).norm_sq() > gate_sq {
                    ground_pruned += 1;
                    continue;
                }
            }
            ground_tested += 1;
            if let Some(d) =
                visible_slant_range_m(st.position_ecef, sat_ecef, params.min_elevation_rad)
            {
                g.add_bidirectional(
                    si,
                    gs_node,
                    d / SPEED_OF_LIGHT_M_PER_S,
                    params.ground_link_bps,
                    sats[si].operator,
                    st.operator,
                    LinkTech::Rf,
                );
            }
        }
    }
    rec.add("snapshot.ground_tested", ground_tested);
    rec.add("snapshot.ground_pruned", ground_pruned);
    g
}

/// The exhaustive reference builder: all `N(N−1)/2` satellite pairs
/// tested, every station×satellite elevation evaluated — the original
/// quadratic sweep, kept as ground truth for the equivalence property
/// test and the paired bench kernels (its pair sweep is also the
/// fallback for non-finite input). Production callers use
/// [`build_snapshot_from_samples`].
pub fn build_snapshot_from_samples_dense(
    sats: &[SatNode],
    samples: &[EphemerisSample],
    stations: &[GroundNode],
    params: &SnapshotParams,
) -> Graph {
    assert_eq!(sats.len(), samples.len(), "one sample per satellite");
    let mut g = Graph::new(sats.len(), stations.len());
    let pos_eci: Vec<Vec3> = samples.iter().map(|s| s.eci).collect();
    add_mutual_isls(&mut g, sats, &dense_candidates(&pos_eci, params), params);

    // Ground links: every station links to every visible satellite.
    for (gi, st) in stations.iter().enumerate() {
        let gs_node = g.station_node(gi);
        for (si, _s) in sats.iter().enumerate() {
            let sat_ecef = samples[si].ecef;
            if is_visible(st.position_ecef, sat_ecef, params.min_elevation_rad) {
                let d = st.position_ecef.distance(sat_ecef);
                g.add_bidirectional(
                    si,
                    gs_node,
                    d / SPEED_OF_LIGHT_M_PER_S,
                    params.ground_link_bps,
                    sats[si].operator,
                    st.operator,
                    LinkTech::Rf,
                );
            }
        }
    }
    g
}

/// The satellite (index into `sats`) nearest to a ground ECEF point that
/// is visible above `min_elevation_rad` at `t_s`, with its slant range.
pub fn best_access_satellite(
    ground_ecef: Vec3,
    sats: &[SatNode],
    t_s: f64,
    min_elevation_rad: f64,
) -> Option<(usize, f64)> {
    let ecefs: Vec<Vec3> = sats
        .iter()
        .map(|s| eci_to_ecef(s.propagator.position_eci(t_s), t_s))
        .collect();
    best_access_from_ecef(ground_ecef, &ecefs, min_elevation_rad)
}

/// [`best_access_satellite`] over already-computed satellite ECEF
/// positions (e.g. from an ephemeris cache).
///
/// Each candidate costs a single vector norm: the combined
/// [`visible_slant_range_m`] helper makes the visibility decision and
/// returns the slant range from the same `|sat − ground|` evaluation
/// (bitwise equal to the former `is_visible`-then-`distance` pair of
/// calls).
pub fn best_access_from_ecef(
    ground_ecef: Vec3,
    sat_ecef: &[Vec3],
    min_elevation_rad: f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &se) in sat_ecef.iter().enumerate() {
        if let Some(d) = visible_slant_range_m(ground_ecef, se, min_elevation_rad) {
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
    }
    best
}

/// Convenience: the ECI position of a ground ECEF point at time `t_s`
/// (for mixing ground points into ECI-frame computations).
pub fn ground_eci(ground_ecef: Vec3, t_s: f64) -> Vec3 {
    ecef_to_eci(ground_ecef, t_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
    use openspace_orbit::propagator::PerturbationModel;
    use openspace_orbit::walker::{iridium_params, walker_star};

    fn iridium_nodes(optical: bool) -> Vec<SatNode> {
        walker_star(&iridium_params())
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, el)| SatNode {
                propagator: Propagator::new(el, PerturbationModel::TwoBody),
                operator: (i % 4) as u32,
                has_optical: optical,
            })
            .collect()
    }

    fn station(lat: f64, lon: f64) -> GroundNode {
        GroundNode {
            position_ecef: geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 0.0)),
            operator: 99,
        }
    }

    /// The snapshot at `t = 0` under default parameters.
    fn snapshot_now(sats: &[SatNode], stations: &[GroundNode]) -> Graph {
        build_snapshot(
            0.0,
            sats,
            stations,
            &SnapshotParams::default(),
            &mut NullRecorder,
        )
    }

    #[test]
    fn iridium_snapshot_is_connected() {
        let sats = iridium_nodes(false);
        let g = snapshot_now(&sats, &[]);
        let reach = g.reachable_from(0);
        let count = reach.iter().filter(|&&r| r).count();
        assert_eq!(count, 66, "Iridium ISL mesh must be connected");
    }

    #[test]
    fn degree_bounded_by_terminal_count() {
        let sats = iridium_nodes(false);
        let p = SnapshotParams::default();
        let g = build_snapshot(0.0, &sats, &[], &p, &mut NullRecorder);
        for i in 0..66 {
            assert!(
                g.degree(i) <= p.max_isl_per_sat,
                "sat {i} degree {}",
                g.degree(i)
            );
        }
    }

    #[test]
    fn isl_links_are_mutual() {
        let sats = iridium_nodes(false);
        let g = snapshot_now(&sats, &[]);
        for i in 0..66 {
            for e in g.edges(i) {
                assert!(
                    g.find_edge(e.to, i).is_some(),
                    "edge {i}->{} not mirrored",
                    e.to
                );
            }
        }
    }

    #[test]
    fn optical_fleet_gets_optical_links() {
        let sats = iridium_nodes(true);
        let g = snapshot_now(&sats, &[]);
        let mut saw_optical = false;
        for i in 0..g.satellite_count() {
            for e in g.edges(i) {
                if e.to < g.satellite_count() {
                    assert_eq!(e.technology, LinkTech::Optical);
                    saw_optical = true;
                }
            }
        }
        assert!(saw_optical);
    }

    #[test]
    fn optical_capacity_beats_rf() {
        let p = SnapshotParams::default();
        let d = 2_000_000.0;
        let (rf, t1) = isl_capacity_bps(false, false, d, &p);
        let (opt, t2) = isl_capacity_bps(true, true, d, &p);
        assert_eq!(t1, LinkTech::Rf);
        assert_eq!(t2, LinkTech::Optical);
        assert!(opt > rf * 10.0, "optical {opt} vs rf {rf}");
    }

    #[test]
    fn mixed_pair_falls_back_to_rf() {
        let p = SnapshotParams::default();
        let (_, tech) = isl_capacity_bps(true, false, 1e6, &p);
        assert_eq!(tech, LinkTech::Rf);
    }

    #[test]
    fn stations_link_to_overhead_satellites() {
        let sats = iridium_nodes(false);
        let st = [station(0.0, 0.0), station(45.0, 90.0)];
        let g = snapshot_now(&sats, &st);
        for gi in 0..2 {
            let node = g.station_node(gi);
            assert!(
                g.degree(node) >= 1,
                "station {gi} sees no satellite (degree 0)"
            );
        }
    }

    #[test]
    fn ground_links_respect_elevation_mask() {
        let sats = iridium_nodes(false);
        let st = [station(0.0, 0.0)];
        let strict = SnapshotParams {
            min_elevation_rad: 85f64.to_radians(),
            ..SnapshotParams::default()
        };
        let g_strict = build_snapshot(0.0, &sats, &st, &strict, &mut NullRecorder);
        let g_loose = snapshot_now(&sats, &st);
        assert!(
            g_strict.degree(g_strict.station_node(0)) <= g_loose.degree(g_loose.station_node(0))
        );
    }

    #[test]
    fn best_access_satellite_finds_nearest() {
        let sats = iridium_nodes(false);
        let ground = geodetic_to_ecef(Geodetic::from_degrees(10.0, 20.0, 0.0));
        let got = best_access_satellite(ground, &sats, 0.0, 10f64.to_radians());
        if let Some((idx, dist)) = got {
            assert!(idx < sats.len());
            // Nearest visible: verify no other visible sat is closer.
            for (i, s) in sats.iter().enumerate() {
                let se = eci_to_ecef(s.propagator.position_eci(0.0), 0.0);
                if is_visible(ground, se, 10f64.to_radians()) {
                    assert!(ground.distance(se) >= dist - 1e-6, "sat {i} closer");
                }
            }
        } else {
            panic!("Iridium leaves no coverage gap at 10 deg mask");
        }
    }

    #[test]
    fn gated_builder_matches_dense_and_prunes() {
        use openspace_telemetry::MemoryRecorder;
        let sats = iridium_nodes(false);
        let samples: Vec<EphemerisSample> = sats
            .iter()
            .map(|s| {
                let eci = s.propagator.position_eci(1234.0);
                EphemerisSample {
                    eci,
                    ecef: eci_to_ecef(eci, 1234.0),
                }
            })
            .collect();
        let st = [station(0.0, 0.0), station(45.0, 90.0)];
        let params = SnapshotParams::default();
        let mut rec = MemoryRecorder::new();
        let gated = build_snapshot_from_samples_recorded(&sats, &samples, &st, &params, &mut rec);
        let dense = build_snapshot_from_samples_dense(&sats, &samples, &st, &params);
        assert_eq!(gated, dense);
        let tested = rec.counter("snapshot.pairs_tested");
        let pruned = rec.counter("snapshot.pairs_pruned");
        assert_eq!(tested + pruned, 66 * 65 / 2);
        assert!(pruned > 0, "the search should skip far-apart pairs");
        assert!(
            rec.counter("snapshot.ground_pruned") > 0,
            "most of the shell is beyond each station's slant-range gate"
        );
    }

    #[test]
    fn infinite_range_falls_back_to_exhaustive_sweep() {
        use openspace_telemetry::MemoryRecorder;
        // The "simplified simulation" study disables the range cut with
        // an infinite max_isl_range_m; the builder then falls back to
        // testing every pair.
        let sats = iridium_nodes(false);
        let params = SnapshotParams {
            max_isl_range_m: f64::INFINITY,
            require_los: false,
            ..SnapshotParams::default()
        };
        let mut rec = MemoryRecorder::new();
        let gated = build_snapshot(0.0, &sats, &[], &params, &mut rec);
        let samples: Vec<EphemerisSample> = sats
            .iter()
            .map(|s| {
                let eci = s.propagator.position_eci(0.0);
                EphemerisSample {
                    eci,
                    ecef: eci_to_ecef(eci, 0.0),
                }
            })
            .collect();
        let dense = build_snapshot_from_samples_dense(&sats, &samples, &[], &params);
        assert_eq!(gated, dense);
        assert_eq!(rec.counter("snapshot.pairs_tested"), 66 * 65 / 2);
        assert_eq!(rec.counter("snapshot.pairs_pruned"), 0);
    }

    #[test]
    fn empty_constellation_gives_empty_graph() {
        let g = snapshot_now(&[], &[station(0.0, 0.0)]);
        assert_eq!(g.edge_count(), 0);
        assert!(best_access_satellite(station(0.0, 0.0).position_ecef, &[], 0.0, 0.0).is_none());
    }
}
