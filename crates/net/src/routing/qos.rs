//! QoS- and congestion-aware routing.
//!
//! §2.2: proactive routes are computable from orbits alone, but "the cost
//! of a path cannot be fully predicted since ISL congestion cannot be
//! anticipated". The reactive router here extends the edge weight with a
//! queueing term and filters links that cannot meet a flow's bandwidth
//! floor — the two effects the paper names.

use crate::routing::dijkstra::{shortest_path, Path};
use crate::topology::{Edge, Graph, NodeId};
use openspace_telemetry::Recorder;

/// A flow's QoS requirements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosRequirement {
    /// Minimum usable residual bandwidth on every hop (bit/s).
    pub min_bandwidth_bps: f64,
    /// Maximum acceptable end-to-end latency (s), including the
    /// congestion estimate; `f64::INFINITY` for best-effort.
    pub max_latency_s: f64,
}

impl QosRequirement {
    /// Best-effort: any link qualifies.
    pub fn best_effort() -> Self {
        Self {
            min_bandwidth_bps: 0.0,
            max_latency_s: f64::INFINITY,
        }
    }

    /// The edge weight QoS routing searches under: [`congestion_weight`]
    /// for `packet_bits`-bit packets, and `f64::INFINITY` (filtered) on
    /// links whose residual bandwidth misses the floor.
    pub fn weight(&self, packet_bits: f64) -> impl Fn(&Edge) -> f64 + Copy {
        let min_bw = self.min_bandwidth_bps;
        move |e| {
            if residual_bps(e) < min_bw {
                f64::INFINITY
            } else {
                congestion_weight(e, packet_bits)
            }
        }
    }

    /// `path` when its cost under [`weight`](Self::weight) meets the
    /// latency bound, else `None`.
    pub fn admit(&self, path: Path) -> Option<Path> {
        (path.total_cost <= self.max_latency_s).then_some(path)
    }
}

/// Congestion-aware edge weight: propagation latency plus an M/M/1-style
/// queueing estimate that blows up as the link saturates:
/// `w = latency + service_time / (1 − load)`, with `service_time` the
/// serialization time of `packet_bits` at the link rate.
pub fn congestion_weight(e: &Edge, packet_bits: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&e.load_fraction));
    let service_s = packet_bits / e.capacity_bps;
    e.latency_s + service_s / (1.0 - e.load_fraction)
}

/// Residual capacity of an edge (bit/s).
pub fn residual_bps(e: &Edge) -> f64 {
    e.capacity_bps * (1.0 - e.load_fraction)
}

/// QoS-aware route: congestion-weighted shortest path over links whose
/// residual capacity meets the flow's floor; `None` when no compliant
/// path exists or the best one violates the latency bound.
///
/// [`shortest_path`] under [`QosRequirement::weight`], filtered by
/// [`QosRequirement::admit`]; the search reports `routing.recomputes` /
/// `routing.nodes_visited` through `rec`.
pub fn qos_route(
    graph: &Graph,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
    requirement: &QosRequirement,
    packet_bits: f64,
    rec: &mut dyn Recorder,
) -> Option<Path> {
    shortest_path(graph, src, dst, requirement.weight(packet_bits), rec)
        .and_then(|p| requirement.admit(p))
}

/// Widest path (maximum bottleneck residual bandwidth) via a modified
/// Dijkstra. Used to answer "what is the best QoS we can advertise to
/// users in this region" (§2.2's preemptive QoS adjustment).
pub fn widest_path(
    graph: &Graph,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
) -> Option<(Path, f64)> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry {
        width: f64,
        node: NodeId,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap by width; tie-break on node for determinism.
            self.width
                .total_cmp(&other.width)
                .then(other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let (src, dst) = (src.into(), dst.into());
    assert!(src.0 < graph.node_count() && dst.0 < graph.node_count());
    let n = graph.node_count();
    let mut best = vec![0.0f64; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    best[src.0] = f64::INFINITY;
    heap.push(Entry {
        width: f64::INFINITY,
        node: src,
    });

    while let Some(Entry { width, node }) = heap.pop() {
        if width < best[node.0] {
            continue;
        }
        if node == dst {
            break;
        }
        for e in graph.edges(node) {
            let w = width.min(residual_bps(e));
            if w > best[e.to.0] {
                best[e.to.0] = w;
                prev[e.to.0] = Some(node);
                heap.push(Entry {
                    width: w,
                    node: e.to,
                });
            }
        }
    }
    if best[dst.0] <= 0.0 {
        return None;
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[cur.0] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    if nodes[0] != src {
        return None; // dst == src with zero width handled above
    }
    let path = Path {
        total_cost: 0.0,
        nodes,
    };
    Some((path, best[dst.0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkTech, OperatorId};
    use openspace_telemetry::NullRecorder;

    /// 0 —fast/loaded→ 1 → 3 and 0 —slow/idle→ 2 → 3.
    fn loaded_diamond(load: f64) -> Graph {
        let mut g = Graph::new(4, 0);
        g.add_bidirectional(0, 1, 0.001, 1e7, 0, 0, LinkTech::Rf);
        g.add_bidirectional(1, 3, 0.001, 1e7, 0, 0, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.004, 1e7, 0, 0, LinkTech::Rf);
        g.add_bidirectional(2, 3, 0.004, 1e7, 0, 0, LinkTech::Rf);
        g.set_load(0, 1, load).unwrap();
        g.set_load(1, 3, load).unwrap();
        g
    }

    const PKT: f64 = 12_000.0;

    /// The QoS route across the diamond, `0 → 3`.
    fn route(g: &Graph, req: &QosRequirement) -> Option<Path> {
        qos_route(g, 0, 3, req, PKT, &mut NullRecorder)
    }

    #[test]
    fn idle_network_prefers_low_latency() {
        let g = loaded_diamond(0.0);
        let p = route(&g, &QosRequirement::best_effort()).unwrap();
        assert_eq!(p.nodes, vec![0usize, 1, 3]);
    }

    #[test]
    fn congestion_diverts_to_idle_path() {
        // At 99.9% load the fast path's queueing term dominates.
        let g = loaded_diamond(0.999);
        let p = route(&g, &QosRequirement::best_effort()).unwrap();
        assert_eq!(
            p.nodes,
            vec![0usize, 2, 3],
            "router must avoid the hot path"
        );
    }

    #[test]
    fn bandwidth_floor_filters_links() {
        let g = loaded_diamond(0.95); // residual on fast path = 0.5 Mbit/s
        let req = QosRequirement {
            min_bandwidth_bps: 1e6,
            max_latency_s: f64::INFINITY,
        };
        let p = route(&g, &req).unwrap();
        assert_eq!(p.nodes, vec![0usize, 2, 3]);
    }

    #[test]
    fn unmeetable_floor_returns_none() {
        let g = loaded_diamond(0.0);
        let req = QosRequirement {
            min_bandwidth_bps: 1e12,
            max_latency_s: f64::INFINITY,
        };
        assert!(route(&g, &req).is_none());
    }

    #[test]
    fn latency_bound_rejects_slow_best_path() {
        let g = loaded_diamond(0.999);
        // Only the slow path qualifies (8+ ms); a 5 ms bound kills it, and
        // the fast path's queueing blows past the bound too.
        let req = QosRequirement {
            min_bandwidth_bps: 0.0,
            max_latency_s: 0.005,
        };
        assert!(route(&g, &req).is_none());
    }

    #[test]
    fn congestion_weight_blows_up_near_saturation() {
        let mut e = Edge {
            to: NodeId(1),
            latency_s: 0.001,
            capacity_bps: 1e7,
            operator: OperatorId(0),
            technology: LinkTech::Rf,
            load_fraction: 0.0,
        };
        let idle = congestion_weight(&e, PKT);
        e.load_fraction = 0.99;
        let hot = congestion_weight(&e, PKT);
        assert!(hot > idle * 10.0, "idle {idle}, hot {hot}");
    }

    #[test]
    fn widest_path_tracks_residual() {
        let g = loaded_diamond(0.5);
        let (p, width) = widest_path(&g, 0, 3).unwrap();
        // Fast path residual 5 Mbit/s, slow path 10 Mbit/s: widest is slow.
        assert_eq!(p.nodes, vec![0usize, 2, 3]);
        assert!((width - 1e7).abs() < 1.0);
    }

    #[test]
    fn widest_path_unreachable_is_none() {
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0, 0, LinkTech::Rf);
        assert!(widest_path(&g, 0, 2).is_none());
    }
}
