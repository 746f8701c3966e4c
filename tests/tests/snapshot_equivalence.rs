//! Property test pinning the nearest-first snapshot builder's contract:
//! [`build_snapshot_from_samples_recorded`] (the ring search behind
//! [`build_snapshot_from_samples`]) produces a graph equal to the
//! exhaustive reference [`build_snapshot_from_samples_dense`] — down to
//! the bit patterns of every edge's latency and capacity.
//!
//! The correctness argument (see `crates/net/src/isl.rs` module docs)
//! is that a satellite's search stops only when no unvisited satellite
//! can enter its bounded neighbour list, and that keeping the `k`
//! smallest candidates by `(distance, peer index)` reproduces the dense
//! sweep's stable sort and truncation exactly. These cases exercise the
//! search and its fallbacks over seeded random constellations,
//! Walker-Delta shells up to the benchmark's 1,584 satellites, snapshot
//! times, ISL ranges (including the infinite range used by the
//! simplified study, which must fall back to the exhaustive sweep),
//! every terminal count from 0 to `usize::MAX`, exact distance ties,
//! flat and tiny fleets, LOS settings, elevation masks (including
//! negative), and station sets.

use openspace_net::prelude::*;
use openspace_orbit::ephemeris::EphemerisSample;
use openspace_orbit::frames::{eci_to_ecef, geodetic_to_ecef, Geodetic, Vec3};
use openspace_orbit::propagator::{PerturbationModel, Propagator};
use openspace_orbit::walker::{random_constellation, walker_delta, WalkerParams};
use openspace_sim::prelude::SimRng;
use openspace_telemetry::MemoryRecorder;

const CASES: u64 = 144;

fn assert_graphs_bitwise_equal(a: &Graph, b: &Graph, case: u64) {
    assert_eq!(a, b, "case {case}: graphs differ structurally");
    // PartialEq on f64 ignores sign-of-zero and would accept -0.0 ==
    // 0.0; pin the actual bits too.
    assert_eq!(a.node_count(), b.node_count());
    for u in 0..a.node_count() {
        for (ea, eb) in a.edges(u).iter().zip(b.edges(u)) {
            assert_eq!(ea.to, eb.to, "case {case}: edge target at node {u}");
            assert_eq!(
                ea.latency_s.to_bits(),
                eb.latency_s.to_bits(),
                "case {case}: latency bits on {u}->{:?}",
                ea.to
            );
            assert_eq!(
                ea.capacity_bps.to_bits(),
                eb.capacity_bps.to_bits(),
                "case {case}: capacity bits on {u}->{:?}",
                ea.to
            );
        }
    }
}

fn samples_at(sats: &[SatNode], t_s: f64) -> Vec<EphemerisSample> {
    sats.iter()
        .map(|s| {
            let eci = s.propagator.position_eci(t_s);
            EphemerisSample {
                eci,
                ecef: eci_to_ecef(eci, t_s),
            }
        })
        .collect()
}

/// Build with both builders, assert bitwise equality and exact pair
/// accounting, and return `(gated graph, pairs pruned)`.
fn assert_matches_dense(
    sats: &[SatNode],
    samples: &[EphemerisSample],
    stations: &[GroundNode],
    params: &SnapshotParams,
    case: u64,
) -> (Graph, u64) {
    let n = sats.len() as u64;
    let mut rec = MemoryRecorder::new();
    let gated = build_snapshot_from_samples_recorded(sats, samples, stations, params, &mut rec);
    let dense = build_snapshot_from_samples_dense(sats, samples, stations, params);
    assert_graphs_bitwise_equal(&gated, &dense, case);
    let tested = rec.counter("snapshot.pairs_tested");
    let pruned = rec.counter("snapshot.pairs_pruned");
    assert_eq!(
        tested + pruned,
        n * n.saturating_sub(1) / 2,
        "case {case}: pair accounting"
    );
    (gated, pruned)
}

fn stations_at(sites: &[(f64, f64)]) -> Vec<GroundNode> {
    sites
        .iter()
        .enumerate()
        .map(|(k, &(lat, lon))| GroundNode {
            position_ecef: geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 0.0)),
            operator: 10 + k as u32,
        })
        .collect()
}

fn walker_shell(
    planes: usize,
    per_plane: usize,
    phasing: usize,
    alt_m: f64,
    inc: f64,
) -> Vec<SatNode> {
    walker_delta(&WalkerParams {
        total_satellites: planes * per_plane,
        planes,
        phasing,
        altitude_m: alt_m,
        inclination_deg: inc,
    })
    .unwrap()
    .into_iter()
    .enumerate()
    .map(|(i, el)| SatNode {
        propagator: Propagator::new(el, PerturbationModel::SecularJ2),
        operator: (i % 4) as u32,
        has_optical: i % 3 != 0,
    })
    .collect()
}

/// Satellites placed at `positions` directly (the propagators are
/// never consulted: the builders read only the samples).
fn fleet_at(positions: &[Vec3]) -> (Vec<SatNode>, Vec<EphemerisSample>) {
    let els = random_constellation(positions.len(), 550_000.0, 53.0, 1).unwrap();
    let sats = els
        .into_iter()
        .enumerate()
        .map(|(i, el)| SatNode {
            propagator: Propagator::new(el, PerturbationModel::TwoBody),
            operator: (i % 2) as u32,
            has_optical: i % 2 == 0,
        })
        .collect();
    let samples = positions
        .iter()
        .map(|&p| EphemerisSample { eci: p, ecef: p })
        .collect();
    (sats, samples)
}

#[test]
fn gated_build_is_equal_to_quadratic_build() {
    let mut grid_runs = 0u64;
    let mut total_pruned = 0u64;
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x5A_905407, case);
        let n = 2 + rng.index(60);
        let altitude_m = rng.uniform_range(400_000.0, 1_400_000.0);
        let els = random_constellation(n, altitude_m, rng.uniform_range(40.0, 98.0), case).unwrap();
        let sats: Vec<SatNode> = els
            .into_iter()
            .enumerate()
            .map(|(i, el)| SatNode {
                propagator: Propagator::new(
                    el,
                    if rng.chance(0.5) {
                        PerturbationModel::SecularJ2
                    } else {
                        PerturbationModel::TwoBody
                    },
                ),
                operator: (i % 3) as u32,
                has_optical: rng.chance(0.4),
            })
            .collect();
        let t_s = rng.uniform_range(0.0, 86_400.0);
        let samples = samples_at(&sats, t_s);
        let n_stations = rng.index(4);
        let sites: Vec<(f64, f64)> = (0..n_stations)
            .map(|_| {
                (
                    rng.uniform_range(-75.0, 75.0),
                    rng.uniform_range(-180.0, 180.0),
                )
            })
            .collect();
        let stations = stations_at(&sites);
        let params = SnapshotParams {
            max_isl_range_m: if rng.chance(0.15) {
                f64::INFINITY
            } else {
                rng.uniform_range(1_000_000.0, 8_000_000.0)
            },
            require_los: rng.chance(0.7),
            max_isl_per_sat: 1 + rng.index(6),
            min_elevation_rad: rng.uniform_range(-5.0, 45.0).to_radians(),
            ..SnapshotParams::default()
        };
        let (_, pruned) = assert_matches_dense(&sats, &samples, &stations, &params, case);
        if params.max_isl_range_m.is_finite() {
            grid_runs += 1;
            total_pruned += pruned;
        } else {
            assert_eq!(pruned, 0, "case {case}: infinite range must not prune");
        }
    }
    // The grid path must have engaged and actually cut work somewhere.
    assert!(grid_runs > CASES / 2, "grid path rarely exercised");
    assert!(total_pruned > 0, "grid never pruned a single pair");
}

#[test]
fn plain_build_is_the_gated_builder() {
    // The public entry points delegate to the gated path; pin one
    // end-to-end case against the dense reference through them.
    let els = random_constellation(40, 550_000.0, 53.0, 7).unwrap();
    let sats: Vec<SatNode> = els
        .into_iter()
        .map(|el| SatNode {
            propagator: Propagator::new(el, PerturbationModel::SecularJ2),
            operator: 0,
            has_optical: true,
        })
        .collect();
    let stations = [GroundNode {
        position_ecef: geodetic_to_ecef(Geodetic::from_degrees(40.0, -3.0, 0.0)),
        operator: 9,
    }];
    let params = SnapshotParams::default();
    let samples = samples_at(&sats, 900.0);
    let via_plain = build_snapshot(900.0, &sats, &stations, &params);
    let dense = build_snapshot_from_samples_dense(&sats, &samples, &stations, &params);
    assert_graphs_bitwise_equal(&via_plain, &dense, 0);
}

#[test]
fn walker_delta_shells_match_dense() {
    // The benchmark's 72×22 shell at default params and its default
    // ground segment, at several instants: the search must prune most
    // of the 1.25M pairs and still agree with the dense sweep.
    let big = walker_shell(72, 22, 1, 550e3, 53.0);
    let sites = [(48.0, 11.0), (39.0, -77.0), (-33.9, 18.4), (1.35, 103.8)];
    let stations = stations_at(&sites);
    let params = SnapshotParams::default();
    let all_pairs = 1584 * 1583 / 2;
    for (case, t_s) in [0.0, 1_234.0, 5_400.0].into_iter().enumerate() {
        let (g, pruned) = assert_matches_dense(
            &big,
            &samples_at(&big, t_s),
            &stations,
            &params,
            case as u64,
        );
        assert!(g.edge_count() > 0, "case {case}: the shell has ISLs");
        assert!(
            pruned * 10 > all_pairs * 9,
            "case {case}: the search should test under a tenth of the pairs"
        );
    }
    // Smaller shells across ranges, terminal counts, and LOS settings.
    let mut rng = SimRng::substream(0x5A_905408, 0);
    let shells = [
        (24, 8, 3, 1_200e3, 87.0),
        (40, 10, 7, 700e3, 70.0),
        (12, 12, 0, 550e3, 53.0),
        (30, 20, 11, 1_100e3, 45.0),
    ];
    for (case, &(planes, per_plane, phasing, alt, inc)) in shells.iter().enumerate() {
        let sats = walker_shell(planes, per_plane, phasing, alt, inc);
        for sub in 0..4u64 {
            let params = SnapshotParams {
                max_isl_range_m: rng.uniform_range(500_000.0, 9_000_000.0),
                require_los: rng.chance(0.7),
                max_isl_per_sat: 1 + rng.index(6),
                ..SnapshotParams::default()
            };
            let t_s = rng.uniform_range(0.0, 86_400.0);
            assert_matches_dense(
                &sats,
                &samples_at(&sats, t_s),
                &stations,
                &params,
                100 + 10 * case as u64 + sub,
            );
        }
    }
}

#[test]
fn every_terminal_count_matches_dense() {
    // k = 0 must not panic and yields no ISLs; usize::MAX (the study's
    // setting) keeps every in-range peer, so only the range stops the
    // search.
    let random: Vec<SatNode> = random_constellation(150, 780_000.0, 86.0, 3)
        .unwrap()
        .into_iter()
        .map(|el| SatNode {
            propagator: Propagator::new(el, PerturbationModel::TwoBody),
            operator: 0,
            has_optical: true,
        })
        .collect();
    let shell = walker_shell(24, 11, 5, 550e3, 53.0);
    let stations = stations_at(&[(10.0, 20.0)]);
    for (f, sats) in [&random, &shell].into_iter().enumerate() {
        let samples = samples_at(sats, 777.0);
        for (c, k) in [0, 1, 2, 3, 4, 5, 6, usize::MAX].into_iter().enumerate() {
            for (l, require_los) in [true, false].into_iter().enumerate() {
                let params = SnapshotParams {
                    max_isl_range_m: 3_000_000.0,
                    max_isl_per_sat: k,
                    require_los,
                    ..SnapshotParams::default()
                };
                let case = (100 * f + 10 * c + l) as u64;
                let (g, _) = assert_matches_dense(sats, &samples, &stations, &params, case);
                let isls: usize = (0..sats.len())
                    .map(|i| g.edges(i).iter().filter(|e| e.to.0 < sats.len()).count())
                    .sum();
                if k == 0 {
                    assert_eq!(isls, 0, "case {case}: k = 0 keeps no ISLs");
                } else {
                    assert!(isls > 0, "case {case}: k = {k} keeps some ISLs");
                }
            }
        }
    }
}

#[test]
fn exact_distance_ties_break_by_peer_index() {
    // Base points copied by exact isometries — quarter turns about z
    // and the mirror z → −z, which only swap and negate coordinates —
    // so many pairs share a distance bit for bit. Hubs on the z axis
    // are exactly equidistant from all four turns of a base point.
    // Indices are shuffled so the tie-break by peer index, not the
    // construction order, decides which tied peers a satellite keeps.
    let r = 6_971_000.0;
    let base: [(f64, f64); 4] = [(0.21, 0.37), (0.5, 0.11), (0.33, 0.33), (0.08, 0.61)];
    let mut positions = vec![Vec3::new(0.0, 0.0, r), Vec3::new(0.0, 0.0, -r)];
    for (a, b) in base {
        let z = r * (1.0 - a * a - b * b).sqrt();
        let (x, y) = (r * a, r * b);
        for (px, py) in [(x, y), (-y, x), (-x, -y), (y, -x)] {
            positions.push(Vec3::new(px, py, z));
            positions.push(Vec3::new(px, py, -z));
        }
    }
    // The four turns of each base point tie exactly as seen from a hub.
    for turns in positions[2..].chunks(8) {
        let d: Vec<u64> = turns
            .iter()
            .map(|&p| positions[0].distance(p).to_bits())
            .collect();
        assert!(d[0] == d[2] && d[0] == d[4] && d[0] == d[6], "hub ties");
    }
    let mut rng = SimRng::substream(0x5A_905409, 0);
    for case in 0..24u64 {
        let mut shuffled = positions.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.index(i + 1));
        }
        let (sats, samples) = fleet_at(&shuffled);
        let params = SnapshotParams {
            max_isl_range_m: rng.uniform_range(2_000_000.0, 12_000_000.0),
            require_los: rng.chance(0.5),
            max_isl_per_sat: 1 + rng.index(5),
            ..SnapshotParams::default()
        };
        assert_matches_dense(&sats, &samples, &[], &params, case);
    }
}

#[test]
fn tiny_flat_and_non_finite_fleets_match_dense() {
    let stations = stations_at(&[(0.0, 0.0), (45.0, 90.0)]);
    let params = SnapshotParams::default();
    // N = 0, 1, 2 (the pair in range, then out of range).
    let r = 6_921_000.0;
    let fleets: [Vec<Vec3>; 4] = [
        vec![],
        vec![Vec3::new(r, 0.0, 0.0)],
        vec![Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, r, 0.0)],
        vec![Vec3::new(r, 0.0, 0.0), Vec3::new(-r, 0.0, 0.0)],
    ];
    for (case, positions) in fleets.iter().enumerate() {
        let (sats, samples) = fleet_at(positions);
        assert_matches_dense(&sats, &samples, &stations, &params, case as u64);
    }
    // An equatorial ring: zero extent along z, one cell thick.
    let ring: Vec<Vec3> = (0..90)
        .map(|i| {
            let th = i as f64 * std::f64::consts::TAU / 90.0;
            Vec3::new(r * th.cos(), r * th.sin(), 0.0)
        })
        .collect();
    let (sats, samples) = fleet_at(&ring);
    for k in [1, 2, 4] {
        let params = SnapshotParams {
            max_isl_per_sat: k,
            ..SnapshotParams::default()
        };
        let (_, pruned) = assert_matches_dense(&sats, &samples, &stations, &params, 10 + k as u64);
        assert!(pruned > 0, "k = {k}: the flat ring still prunes");
    }
    // A non-finite position falls back to the exhaustive sweep.
    let mut broken = ring.clone();
    broken[7] = Vec3::new(f64::NAN, 0.0, 0.0);
    let (sats, samples) = fleet_at(&broken);
    // (No stations: the elevation test cannot place a NaN satellite.)
    let (_, pruned) = assert_matches_dense(&sats, &samples, &[], &params, 20);
    assert_eq!(pruned, 0, "non-finite input takes the exhaustive sweep");
}

#[test]
fn coincident_satellites_get_no_isl() {
    // Satellites 0 and 1 share a position: each is the other's nearest
    // peer at distance zero, where no link budget exists. The second
    // case pairs satellites 0 and 2 instead, both optical in
    // `fleet_at`, so the optical model sees the zero distance too.
    let r = 6_921_000.0;
    let ring: Vec<Vec3> = (0..12)
        .map(|i| {
            let th = i as f64 * 0.1;
            Vec3::new(r * th.cos(), r * th.sin(), 0.0)
        })
        .collect();
    for (case, twin) in [1usize, 2].into_iter().enumerate() {
        let mut positions = ring.clone();
        positions[twin] = positions[0];
        let (sats, samples) = fleet_at(&positions);
        let (g, _) = assert_matches_dense(
            &sats,
            &samples,
            &[],
            &SnapshotParams::default(),
            case as u64,
        );
        assert!(g.find_edge(0usize, twin).is_none(), "no 0-{twin} edge");
        assert!(g.find_edge(twin, 0usize).is_none(), "no {twin}-0 edge");
        assert!(g.edge_count() > 0, "the rest of the ring still links");
    }
}

#[test]
fn clustered_fleets_match_dense() {
    // Dense clusters next to sparse stragglers: a cluster member's
    // search stops after a ring or two, while a straggler a few cells
    // away must still find it — the case the skip-an-already-tested
    // pair rule has to get exactly right. Indices are shuffled so
    // stragglers and members meet in both index orders.
    let mut rng = SimRng::substream(0x5A_90540A, 0);
    for case in 0..160u64 {
        let mut positions = Vec::new();
        for _ in 0..1 + rng.index(6) {
            let lat = rng.uniform_range(-1.2, 1.2);
            let lon = rng.uniform_range(-3.1, 3.1);
            let r = rng.uniform_range(6_800_000.0, 7_800_000.0);
            let center = Vec3::new(
                r * lat.cos() * lon.cos(),
                r * lat.cos() * lon.sin(),
                r * lat.sin(),
            );
            let spread = rng.uniform_range(2_000.0, 1_500_000.0);
            for _ in 0..1 + rng.index(60) {
                let offset = Vec3::new(
                    rng.uniform_range(-spread, spread),
                    rng.uniform_range(-spread, spread),
                    rng.uniform_range(-spread, spread),
                );
                positions.push(center + offset);
            }
            // Stragglers one to a few thousand kilometres out.
            for _ in 0..rng.index(5) {
                let reach = rng.uniform_range(800_000.0, 6_000_000.0);
                let dir = Vec3::new(
                    rng.uniform_range(-1.0, 1.0),
                    rng.uniform_range(-1.0, 1.0),
                    rng.uniform_range(-1.0, 1.0),
                );
                positions.push(center + dir * (reach / dir.norm()));
            }
        }
        for i in (1..positions.len()).rev() {
            positions.swap(i, rng.index(i + 1));
        }
        let (sats, samples) = fleet_at(&positions);
        let params = SnapshotParams {
            max_isl_range_m: rng.uniform_range(300_000.0, 9_000_000.0),
            require_los: rng.chance(0.6),
            max_isl_per_sat: 1 + rng.index(6),
            ..SnapshotParams::default()
        };
        assert_matches_dense(&sats, &samples, &[], &params, case);
    }
}
