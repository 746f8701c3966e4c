//! Property tests pinning the [`TopologyTimeline`] contract: the
//! stored per-tick snapshots reproduce the provider's fresh snapshot
//! sequence **bitwise** — same edge order, same float bits — and the
//! parallel build is indistinguishable from the serial one.
//!
//! Graphs are compared with an empty [`GraphDelta`], which checks every
//! adjacency row in order and every `f64` field by bit pattern. The
//! cases run over seeded random evolving topologies: chords that flip
//! on random periods, latencies and loads that drift with time,
//! isolated nodes, and ground stations.

use openspace_net::prelude::*;
use openspace_net::topology::{GraphDelta, LinkTech};
use openspace_sim::prelude::SimRng;

const CASES: u64 = 128;

/// One seeded evolving topology: a fixed roster whose link set and link
/// parameters are a pure function of `t`. Chord `i` exists only while
/// `floor(t / period_i)` is even; every latency drifts linearly in `t`.
struct EvolvingTopology {
    n_sats: usize,
    n_stations: usize,
    spine: Vec<(usize, usize, f64, f64)>,
    chords: Vec<(usize, usize, f64, f64, f64)>,
}

impl EvolvingTopology {
    fn random(rng: &mut SimRng) -> Self {
        let n_sats = 3 + rng.index(20);
        let n_stations = rng.index(3);
        let n = n_sats + n_stations;
        let mut taken: Vec<(usize, usize)> = Vec::new();
        let spine_len = 1 + rng.index(n - 1);
        let spine: Vec<(usize, usize, f64, f64)> = (0..spine_len)
            .map(|i| {
                taken.push((i, i + 1));
                (
                    i,
                    i + 1,
                    rng.uniform_range(1e-4, 2e-2),
                    rng.uniform_range(1e6, 1e9),
                )
            })
            .collect();
        let mut chords = Vec::new();
        for _ in 0..rng.index(2 * n) {
            let u = rng.index(n);
            let v = rng.index(n);
            if u == v || taken.contains(&(u, v)) || taken.contains(&(v, u)) {
                continue;
            }
            taken.push((u, v));
            chords.push((
                u,
                v,
                rng.uniform_range(1e-4, 2e-2),
                rng.uniform_range(1e6, 1e9),
                // Flip period; some chords flip within any horizon, some
                // never do.
                rng.uniform_range(5.0, 200.0),
            ));
        }
        Self {
            n_sats,
            n_stations,
            spine,
            chords,
        }
    }

    fn at(&self, t: f64) -> Graph {
        let mut g = Graph::new(self.n_sats, self.n_stations);
        for &(u, v, lat, cap) in &self.spine {
            // Latency drift makes almost every delta non-empty.
            g.add_bidirectional(u, v, lat + t * 1e-7, cap, 0u32, 0u32, LinkTech::Rf);
        }
        for &(u, v, lat, cap, period) in &self.chords {
            if (t / period).floor() as i64 % 2 == 0 {
                g.add_bidirectional(u, v, lat + t * 1e-7, cap, 0u32, 0u32, LinkTech::Optical);
            }
        }
        g
    }
}

fn graphs_bitwise_equal(a: &Graph, b: &Graph) -> bool {
    GraphDelta::between(a, b)
        .map(|d| d.is_empty())
        .unwrap_or(false)
}

#[test]
fn delta_replay_matches_fresh_snapshots_bitwise() {
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x7110, case);
        let topo = EvolvingTopology::random(&mut rng);
        let step = rng.uniform_range(1.0, 30.0);
        let horizon = step * (1 + rng.index(12)) as f64;
        let provider = |t: f64| topo.at(t);
        let tl = TopologyTimeline::build(&provider, 0.0, step, horizon, 1)
            .expect("valid build parameters");
        // Look up every tick and compare against a fresh snapshot.
        for &t in tl.tick_times() {
            assert!(
                graphs_bitwise_equal(&topo.at(t), &tl.graph_at(t)),
                "case {case}: stored snapshot diverged at t={t}"
            );
        }
    }
}

#[test]
fn timeline_build_is_thread_count_invariant() {
    for case in 0..24 {
        let mut rng = SimRng::substream(0x7111, case);
        let topo = EvolvingTopology::random(&mut rng);
        let provider = |t: f64| topo.at(t);
        let reference = TopologyTimeline::build(&provider, 0.0, 7.5, 90.0, 1).expect("serial");
        for threads in [2usize, 4, 8] {
            let parallel =
                TopologyTimeline::build(&provider, 0.0, 7.5, 90.0, threads).expect("parallel");
            assert_eq!(parallel.tick_count(), reference.tick_count());
            assert_eq!(
                parallel.total_changed_rows(),
                reference.total_changed_rows(),
                "case {case}: {threads}-thread build changed different rows"
            );
            for &t in reference.tick_times() {
                assert!(
                    graphs_bitwise_equal(&reference.graph_at(t), &parallel.graph_at(t)),
                    "case {case}: {threads}-thread build diverged at t={t}"
                );
            }
        }
    }
}

#[test]
fn timeline_replays_real_constellation_motion() {
    // The same property on a real Iridium-derived constellation: a
    // timeline over `build_snapshot` reproduces every fresh build
    // bitwise.
    use openspace_orbit::propagator::{PerturbationModel, Propagator};
    use openspace_orbit::walker::{iridium_params, walker_star};

    let elements = walker_star(&iridium_params()).expect("valid walker parameters");
    let sats: Vec<SatNode> = elements
        .into_iter()
        .take(22)
        .enumerate()
        .map(|(i, el)| SatNode {
            propagator: Propagator::new(el, PerturbationModel::TwoBody),
            operator: (i % 3) as u32,
            has_optical: true,
        })
        .collect();
    let stations: Vec<GroundNode> = Vec::new();
    let params = SnapshotParams::default();
    let provider = |t: f64| build_snapshot(t, &sats, &stations, &params, &mut NullRecorder);
    let tl = TopologyTimeline::build(&provider, 0.0, 60.0, 600.0, 2).expect("valid horizon");
    assert_eq!(tl.delta_count(), 10);
    for &t in tl.tick_times() {
        assert!(
            graphs_bitwise_equal(&provider(t), &tl.graph_at(t)),
            "stored snapshot diverged from fresh build at t={t}"
        );
    }
}
