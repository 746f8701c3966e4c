//! Dijkstra shortest paths with pluggable edge weights.
//!
//! The proactive routing of §2.2 is exactly this: the topology is known,
//! so routes are precomputed shortest paths. The weight function is a
//! parameter so the same machinery serves latency-optimal, hop-count, and
//! the QoS-aware costs in [`crate::routing::qos`].

use crate::routing::RoutePlanner;
use crate::topology::{Edge, Graph, NodeId};
use openspace_telemetry::Recorder;

/// A computed path.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Node sequence, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Total weight under the cost function used.
    pub total_cost: f64,
}

impl Path {
    /// Hop count (edges traversed).
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Sum a per-edge metric along the path (e.g. latency when the route
    /// was computed under a different cost). Returns `None` when an edge
    /// of the path no longer exists in `graph` — a stale route after the
    /// topology changed under it.
    pub fn sum_metric(&self, graph: &Graph, metric: impl Fn(&Edge) -> f64) -> Option<f64> {
        self.nodes
            .windows(2)
            .map(|w| graph.find_edge(w[0], w[1]).map(&metric))
            .sum()
    }

    /// Minimum capacity along the path (the bottleneck, bit/s), or
    /// `None` for a stale path whose edges vanished.
    pub fn bottleneck_bps(&self, graph: &Graph) -> Option<f64> {
        self.nodes
            .windows(2)
            .map(|w| graph.find_edge(w[0], w[1]).map(|e| e.capacity_bps))
            .try_fold(f64::INFINITY, |acc, c| c.map(|c| acc.min(c)))
    }
}

/// Shortest path from `src` to `dst` under `weight`: the
/// one-destination case of [`shortest_path_to_any`].
///
/// Edges for which `weight` returns `f64::INFINITY` are skipped (that is
/// how QoS filters express "this link does not qualify"). Returns `None`
/// when `dst` is unreachable.
///
/// Bumps the `routing.recomputes` counter once per call and
/// `routing.nodes_visited` by the number of heap pops the search
/// performed (the work metric that distinguishes a cheap local route
/// from a constellation-crossing one); pass `&mut NullRecorder` for no
/// telemetry.
///
/// # Panics
/// Panics if `weight` returns a negative or NaN value for a usable edge,
/// or on out-of-range endpoints.
pub fn shortest_path(
    graph: &Graph,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
    weight: impl Fn(&Edge) -> f64,
    rec: &mut dyn Recorder,
) -> Option<Path> {
    shortest_path_to_any(graph, src, &[dst.into()], weight, rec).map(|(_, p)| p)
}

/// Cheapest path from `src` to any of `dsts` under `weight`, with its
/// index in `dsts`; on equal cost the earlier destination wins. `None`
/// when no destination is reachable (or `dsts` is empty).
///
/// A single-source batch on a fresh [`RoutePlanner`]: one tree grows
/// until the last destination settles, and each candidate path is
/// bitwise-identical to what [`shortest_path`] returns for it alone.
/// Telemetry is the batch's: `routing.recomputes` counts one per
/// destination, `routing.planner.trees` one.
///
/// # Panics
/// As [`shortest_path`].
pub fn shortest_path_to_any(
    graph: &Graph,
    src: impl Into<NodeId>,
    dsts: &[NodeId],
    weight: impl Fn(&Edge) -> f64,
    rec: &mut dyn Recorder,
) -> Option<(usize, Path)> {
    let src = src.into();
    let requests: Vec<(NodeId, NodeId)> = dsts.iter().map(|&dst| (src, dst)).collect();
    RoutePlanner::new()
        .plan_recorded(graph, &requests, weight, rec)
        .into_iter()
        .enumerate()
        .filter_map(|(i, p)| Some((i, p?)))
        .reduce(|best, next| {
            if next.1.total_cost < best.1.total_cost {
                next
            } else {
                best
            }
        })
}

/// Latency edge weight: pure propagation delay.
pub fn latency_weight(e: &Edge) -> f64 {
    e.latency_s
}

/// Hop-count edge weight.
pub fn hop_weight(_e: &Edge) -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkTech;
    use openspace_telemetry::{MemoryRecorder, NullRecorder};

    /// Build:  0 --1ms-- 1 --1ms-- 2
    ///          \________5ms_______/
    fn diamond() -> Graph {
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(1, 2, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.005, 1e9, 0u32, 0u32, LinkTech::Rf);
        g
    }

    #[test]
    fn picks_lower_latency_two_hop() {
        let g = diamond();
        let p = shortest_path(&g, 0, 2, latency_weight, &mut NullRecorder).unwrap();
        assert_eq!(p.nodes, vec![0usize, 1, 2]);
        assert!((p.total_cost - 0.002).abs() < 1e-12);
    }

    #[test]
    fn hop_weight_prefers_direct() {
        let g = diamond();
        let p = shortest_path(&g, 0, 2, hop_weight, &mut NullRecorder).unwrap();
        assert_eq!(p.nodes, vec![0usize, 2]);
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn source_equals_destination() {
        let g = diamond();
        let p = shortest_path(&g, 1, 1, latency_weight, &mut NullRecorder).unwrap();
        assert_eq!(p.nodes, vec![1usize]);
        assert_eq!(p.total_cost, 0.0);
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        assert!(shortest_path(&g, 0, 2, latency_weight, &mut NullRecorder).is_none());
    }

    #[test]
    fn infinite_weight_excludes_edge() {
        let g = diamond();
        // Exclude the 0-1 edge: forced onto the direct path.
        let weight = |e: &Edge| {
            if e.latency_s < 0.002 && e.to != 2usize {
                f64::INFINITY
            } else {
                e.latency_s
            }
        };
        let p = shortest_path(&g, 0, 2, weight, &mut NullRecorder);
        // With 0->1 excluded, path is the direct 0->2.
        assert_eq!(p.unwrap().nodes, vec![0usize, 2]);
    }

    #[test]
    fn bottleneck_and_metric_sum() {
        let g = diamond();
        let p = shortest_path(&g, 0, 2, latency_weight, &mut NullRecorder).unwrap();
        assert_eq!(p.bottleneck_bps(&g), Some(1e6));
        let lat = p.sum_metric(&g, |e| e.latency_s).unwrap();
        assert!((lat - 0.002).abs() < 1e-12);
    }

    #[test]
    fn stale_path_metrics_are_none_not_a_panic() {
        let mut g = diamond();
        let p = shortest_path(&g, 0, 2, latency_weight, &mut NullRecorder).unwrap();
        g.retain_edges(|u, e| u != NodeId(1) && e.to != NodeId(1));
        assert_eq!(p.sum_metric(&g, |e| e.latency_s), None);
        assert_eq!(p.bottleneck_bps(&g), None);
    }

    #[test]
    fn recorded_variant_counts_work_without_changing_the_path() {
        let g = diamond();
        let mut rec = MemoryRecorder::new();
        let recorded = shortest_path(&g, 0, 2, latency_weight, &mut rec).unwrap();
        let plain = shortest_path(&g, 0, 2, latency_weight, &mut NullRecorder).unwrap();
        assert_eq!(recorded, plain);
        assert_eq!(rec.counter("routing.recomputes"), 1);
        // src, the intermediate node, and dst all pop from the heap.
        assert!(rec.counter("routing.nodes_visited") >= 2);
    }

    #[test]
    fn unreachable_search_still_counts_a_recompute() {
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        let mut rec = MemoryRecorder::new();
        assert!(shortest_path(&g, 0, 2, latency_weight, &mut rec).is_none());
        assert_eq!(rec.counter("routing.recomputes"), 1);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost paths: 0-1-3 and 0-2-3. Lower node index wins the
        // heap tie, so the result must be stable across runs.
        let mut g = Graph::new(4, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(1, 3, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(2, 3, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        let a = shortest_path(&g, 0, 3, latency_weight, &mut NullRecorder).unwrap();
        let b = shortest_path(&g, 0, 3, latency_weight, &mut NullRecorder).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn large_line_graph_traversal() {
        let n = 500;
        let mut g = Graph::new(n, 0);
        for i in 0..n - 1 {
            g.add_bidirectional(i, i + 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        }
        let p = shortest_path(&g, 0, n - 1, latency_weight, &mut NullRecorder).unwrap();
        assert_eq!(p.hops(), n - 1);
        assert!((p.total_cost - 0.001 * (n - 1) as f64).abs() < 1e-9);
    }
}
