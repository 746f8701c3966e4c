//! Seeded brute-force oracle for `k_shortest_paths`.
//!
//! On small random graphs every loopless `src → dst` path is enumerated
//! by depth-first search. Yen's `k` answers must be the `k` cheapest:
//!
//! * under latency and hop weights, its costs equal the `k` smallest
//!   oracle costs (Yen sums a path as root cost plus spur cost, the
//!   oracle hop by hop, so latency sums agree up to rounding);
//! * under continuous random latencies no two paths tie, so its node
//!   sequences equal the oracle's too. Hop weights tie everywhere, and
//!   there only the costs are pinned.

use openspace_net::prelude::*;
use openspace_net::topology::LinkTech;
use openspace_sim::prelude::SimRng;

const CASES: u64 = 200;

/// A random graph small enough to enumerate: a spine over a prefix of
/// 3–7 nodes plus a few chords, with continuous random latencies.
fn small_graph(rng: &mut SimRng) -> Graph {
    let n = 3 + rng.index(5);
    let mut g = Graph::new(n, 0);
    for i in 0..rng.index(n) {
        let latency = rng.uniform_range(1e-4, 2e-2);
        g.add_bidirectional(i, i + 1, latency, 1e6, 0u32, 0u32, LinkTech::Rf);
    }
    for _ in 0..rng.index(n + 2) {
        let (u, v) = (rng.index(n), rng.index(n));
        if u != v && g.find_edge(u, v).is_none() {
            let latency = rng.uniform_range(1e-4, 2e-2);
            g.add_bidirectional(u, v, latency, 1e6, 0u32, 0u32, LinkTech::Rf);
        }
    }
    g
}

/// Every loopless `src → dst` path with its hop-by-hop cost, cheapest
/// first (ties by node sequence).
fn all_paths(g: &Graph, src: NodeId, dst: NodeId, weight: fn(&Edge) -> f64) -> Vec<Path> {
    fn walk(g: &Graph, dst: NodeId, weight: fn(&Edge) -> f64, at: &mut Path, out: &mut Vec<Path>) {
        let here = *at.nodes.last().unwrap();
        if here == dst {
            out.push(at.clone());
            return;
        }
        for e in g.edges(here) {
            if !at.nodes.contains(&e.to) {
                let cost = at.total_cost;
                at.nodes.push(e.to);
                at.total_cost = cost + weight(e);
                walk(g, dst, weight, at, out);
                at.nodes.pop();
                at.total_cost = cost;
            }
        }
    }
    let mut out = Vec::new();
    let mut at = Path {
        nodes: vec![src],
        total_cost: 0.0,
    };
    walk(g, dst, weight, &mut at, &mut out);
    out.sort_by(|a, b| {
        a.total_cost
            .total_cmp(&b.total_cost)
            .then_with(|| a.nodes.cmp(&b.nodes))
    });
    out
}

/// Check Yen against the oracle for every `k`; returns the paths checked.
fn check(g: &Graph, src: NodeId, dst: NodeId, weight: fn(&Edge) -> f64, nodes_too: bool) -> usize {
    let oracle = all_paths(g, src, dst, weight);
    let mut checked = 0;
    for k in [1, 3, 6] {
        let yen = k_shortest_paths(g, src, dst, k, weight);
        let what = format!("{src:?}->{dst:?}, k = {k}");
        assert_eq!(yen.len(), k.min(oracle.len()), "{what}: path count");
        for (got, want) in yen.iter().zip(&oracle) {
            let tol = 1e-12 * want.total_cost.max(1.0);
            assert!(
                (got.total_cost - want.total_cost).abs() <= tol,
                "{what}: cost {} vs oracle {}",
                got.total_cost,
                want.total_cost
            );
            if nodes_too {
                assert_eq!(got.nodes, want.nodes, "{what}: node sequence");
            }
        }
        checked += yen.len();
    }
    checked
}

#[test]
fn yen_returns_the_k_cheapest_loopless_paths() {
    let mut checked = 0;
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x7E4, case);
        let g = small_graph(&mut rng);
        let n = g.node_count();
        let (src, dst) = (NodeId(rng.index(n)), NodeId(rng.index(n)));
        checked += check(&g, src, dst, latency_weight, true);
        checked += check(&g, src, dst, hop_weight, false);
    }
    assert!(checked > 1_000, "only {checked} paths checked");
}
