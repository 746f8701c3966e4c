//! Yen's algorithm: k shortest loopless paths.
//!
//! QoS-aware route selection (§2.2) needs alternatives to the single
//! shortest path — when the primary is congested or bandwidth-starved,
//! the router falls back along this list.

use crate::routing::dijkstra::{shortest_path, Path};
use crate::topology::{Edge, Graph, NodeId};
use openspace_telemetry::NullRecorder;

/// Up to `k` loopless shortest paths from `src` to `dst` under `weight`,
/// ascending by cost. Returns fewer when the graph has fewer distinct
/// paths. Determinstic: ties break by node sequence.
pub fn k_shortest_paths(
    graph: &Graph,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
    k: usize,
    weight: impl Fn(&Edge) -> f64 + Copy,
) -> Vec<Path> {
    let (src, dst) = (src.into(), dst.into());
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = shortest_path(graph, src, dst, weight, &mut NullRecorder) else {
        return Vec::new();
    };
    let mut found = vec![first];
    // Candidate set: (cost, nodes) — kept sorted on extraction.
    let mut candidates: Vec<Path> = Vec::new();

    for _ in 1..k {
        let Some(last) = found.last() else { break };
        // Each node of the previous path (except the terminal) is a spur.
        for spur_idx in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[spur_idx];
            let root: Vec<NodeId> = last.nodes[..=spur_idx].to_vec();

            // Suppress the next hops of found paths sharing this root
            // (all leave the spur node) and every edge back into a root
            // node (looplessness), on a filtered copy of the graph.
            let banned_nodes = &root[..root.len() - 1];
            let banned_first_hops: Vec<NodeId> = found
                .iter()
                .filter(|p| p.nodes.len() > spur_idx + 1 && p.nodes[..=spur_idx] == root[..])
                .map(|p| p.nodes[spur_idx + 1])
                .collect();
            let mut spur_graph = graph.clone();
            spur_graph.retain_edges(|u, e| {
                let banned_hop = u == spur_node && banned_first_hops.contains(&e.to);
                !(banned_nodes.contains(&e.to) || banned_hop)
            });
            let spur_path = shortest_path(&spur_graph, spur_node, dst, weight, &mut NullRecorder);

            if let Some(sp) = spur_path {
                let mut nodes = root.clone();
                nodes.extend_from_slice(&sp.nodes[1..]);
                // Total cost: root cost + spur cost. Root edges come from
                // a found path, so they exist; an infinite sum (never in
                // practice) would simply sink the candidate in the sort.
                let root_cost: f64 = root
                    .windows(2)
                    .map(|w| {
                        graph
                            .find_edge(w[0], w[1])
                            .map(weight)
                            .unwrap_or(f64::INFINITY)
                    })
                    .sum();
                let candidate = Path {
                    nodes,
                    total_cost: root_cost + sp.total_cost,
                };
                if !found.iter().any(|p| p.nodes == candidate.nodes)
                    && !candidates.iter().any(|p| p.nodes == candidate.nodes)
                {
                    candidates.push(candidate);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Extract the cheapest candidate (stable by node sequence).
        candidates.sort_by(|a, b| {
            a.total_cost
                .total_cmp(&b.total_cost)
                .then_with(|| a.nodes.cmp(&b.nodes))
        });
        found.push(candidates.remove(0));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::dijkstra::latency_weight;
    use crate::topology::LinkTech;

    /// 0—1—3 (2ms), 0—2—3 (4ms), 0—3 (10ms direct)
    fn triple() -> Graph {
        let mut g = Graph::new(4, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(1, 3, 0.001, 1e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.002, 1e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(2, 3, 0.002, 1e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(0, 3, 0.010, 1e6, 0, 0, LinkTech::Rf);
        g
    }

    #[test]
    fn finds_three_distinct_paths_in_order() {
        let g = triple();
        let paths = k_shortest_paths(&g, 0, 3, 3, latency_weight);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].nodes, vec![0usize, 1, 3]);
        assert_eq!(paths[1].nodes, vec![0usize, 2, 3]);
        assert_eq!(paths[2].nodes, vec![0usize, 3]);
        assert!(paths[0].total_cost <= paths[1].total_cost);
        assert!(paths[1].total_cost <= paths[2].total_cost);
    }

    #[test]
    fn k_larger_than_path_count() {
        let g = triple();
        let paths = k_shortest_paths(&g, 0, 3, 50, latency_weight);
        // Loopless paths: the graph has more than 3 (e.g. 0-1-3 variants
        // via 2), but all must be distinct and sorted.
        for w in paths.windows(2) {
            assert!(w[0].total_cost <= w[1].total_cost + 1e-12);
            assert_ne!(w[0].nodes, w[1].nodes);
        }
    }

    #[test]
    fn paths_are_loopless() {
        let g = triple();
        for p in k_shortest_paths(&g, 0, 3, 10, latency_weight) {
            let mut seen = p.nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), p.nodes.len(), "loop in {:?}", p.nodes);
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(k_shortest_paths(&triple(), 0, 3, 0, latency_weight).is_empty());
    }

    #[test]
    fn unreachable_returns_empty() {
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0, 0, LinkTech::Rf);
        assert!(k_shortest_paths(&g, 0, 2, 3, latency_weight).is_empty());
    }

    #[test]
    fn k_one_matches_dijkstra() {
        let g = triple();
        let y = k_shortest_paths(&g, 0, 3, 1, latency_weight);
        let d = shortest_path(&g, 0, 3, latency_weight, &mut NullRecorder).unwrap();
        assert_eq!(y.len(), 1);
        assert_eq!(y[0], d);
    }

    #[test]
    fn deterministic_output() {
        let g = triple();
        let a = k_shortest_paths(&g, 0, 3, 5, latency_weight);
        let b = k_shortest_paths(&g, 0, 3, 5, latency_weight);
        assert_eq!(a, b);
    }
}
