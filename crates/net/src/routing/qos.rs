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
}
