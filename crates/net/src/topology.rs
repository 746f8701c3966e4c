//! The time-varying network graph.
//!
//! §2.2's central observation: "the topology of the satellite network is
//! both known and public, allowing for pre-computation of static routes".
//! A [`Graph`] is one snapshot of that topology at an instant; the
//! [`SnapshotBuilder`](crate::isl::build_snapshot) derives it from orbital
//! state, and the routing modules consume it.
//!
//! Node indexing convention: satellites occupy indices `0..n_sats`,
//! ground stations `n_sats..n_sats+n_stations`. [`Graph::node_kind`]
//! recovers the kind. Public signatures use the typed identifiers from
//! [`openspace_sim::ids`] ([`NodeId`], [`SatId`], [`GsId`]), so a
//! satellite-array index can't silently be used as a graph-node index.
//!
//! Faults never edit a graph: the packet simulator keeps the current
//! snapshot whole and plans on a copy filtered by
//! [`Graph::retain_edges`] to the elements that are up.

pub use openspace_sim::ids::{GsId, NodeId, OperatorId, SatId};

/// Error addressing an edge that is not in the graph — on dynamic
/// topologies a contact can expire between snapshot and update, so this
/// is a recoverable condition, not a programming bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSuchEdge {
    /// Source node of the missing edge.
    pub from: NodeId,
    /// Destination node of the missing edge.
    pub to: NodeId,
}

impl std::fmt::Display for NoSuchEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no edge {} -> {}", self.from, self.to)
    }
}

impl std::error::Error for NoSuchEdge {}

/// Error from diffing snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Two graphs with different node rosters cannot be diffed against
    /// each other.
    ShapeMismatch {
        /// `(satellites, stations)` of the first graph.
        expected: (usize, usize),
        /// `(satellites, stations)` of the second graph.
        found: (usize, usize),
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::ShapeMismatch { expected, found } => write!(
                f,
                "graph shape mismatch: delta built for {}+{} nodes, found {}+{}",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Link technology of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTech {
    /// RF inter-satellite or ground link.
    Rf,
    /// Optical inter-satellite link.
    Optical,
}

/// What a node index refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Satellite with the given satellite-array index.
    Satellite(SatId),
    /// Ground station with the given station-array index.
    GroundStation(GsId),
}

/// A directed edge of the snapshot graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Destination node index.
    pub to: NodeId,
    /// One-way propagation latency (s).
    pub latency_s: f64,
    /// Achievable capacity (bit/s).
    pub capacity_bps: f64,
    /// Operator owning the *transmitting* node (the carrier that bills
    /// for this hop in the §3 cost model).
    pub operator: OperatorId,
    /// Link technology.
    pub technology: LinkTech,
    /// Current utilization in `[0, 1)`; 0 in a fresh snapshot, set by the
    /// traffic simulation for QoS-aware routing.
    pub load_fraction: f64,
}

/// Bit-exact equality of two edges (`f64` fields compared by bit
/// pattern, so `-0.0 != 0.0` and a NaN equals itself — the right notion
/// for reproducibility arguments, unlike IEEE `==`).
fn edge_bits_eq(a: &Edge, b: &Edge) -> bool {
    a.to == b.to
        && a.latency_s.to_bits() == b.latency_s.to_bits()
        && a.capacity_bps.to_bits() == b.capacity_bps.to_bits()
        && a.operator == b.operator
        && a.technology == b.technology
        && a.load_fraction.to_bits() == b.load_fraction.to_bits()
}

fn row_bits_eq(a: &[Edge], b: &[Edge]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| edge_bits_eq(x, y))
}

/// The adjacency rows that differ between two topology snapshots of
/// the *same* node roster.
///
/// Rows are compared bit for bit, in adjacency order — every `f64`
/// field by bit pattern, so `-0.0 != 0.0` — which makes an empty delta
/// the bitwise graph-equality check the equivalence suites use.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDelta {
    /// Changed nodes in ascending order.
    rows: Vec<NodeId>,
}

impl GraphDelta {
    /// Extract the delta from `before` to `after`. Fails with
    /// [`TopologyError::ShapeMismatch`] when the node rosters differ —
    /// a timeline's roster is fixed over its horizon.
    pub fn between(before: &Graph, after: &Graph) -> Result<GraphDelta, TopologyError> {
        if (before.n_sats, before.n_stations) != (after.n_sats, after.n_stations) {
            return Err(TopologyError::ShapeMismatch {
                expected: (before.n_sats, before.n_stations),
                found: (after.n_sats, after.n_stations),
            });
        }
        let rows = (0..before.node_count())
            .filter(|&u| !row_bits_eq(&before.adj[u], &after.adj[u]))
            .map(NodeId)
            .collect();
        Ok(GraphDelta { rows })
    }

    /// `true` when the two graphs are bit-identical.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of adjacency rows that differ.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// A snapshot of the network at one instant.
#[derive(Debug, PartialEq)]
pub struct Graph {
    n_sats: usize,
    n_stations: usize,
    adj: Vec<Vec<Edge>>,
}

/// Written out so that [`clone_from`](Clone::clone_from) refills the
/// target's existing rows: a work graph re-copied from its source on
/// every fault event allocates only where a row outgrows its capacity.
impl Clone for Graph {
    fn clone(&self) -> Self {
        Self {
            n_sats: self.n_sats,
            n_stations: self.n_stations,
            adj: self.adj.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n_sats = source.n_sats;
        self.n_stations = source.n_stations;
        self.adj.clone_from(&source.adj);
    }
}

impl Graph {
    /// An edgeless graph with the given node counts.
    pub fn new(n_sats: usize, n_stations: usize) -> Self {
        Self {
            n_sats,
            n_stations,
            adj: vec![Vec::new(); n_sats + n_stations],
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Satellite count.
    pub fn satellite_count(&self) -> usize {
        self.n_sats
    }

    /// Ground-station count.
    pub fn station_count(&self) -> usize {
        self.n_stations
    }

    /// What `node` refers to.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn node_kind(&self, node: impl Into<NodeId>) -> NodeKind {
        let node = node.into();
        assert!(node.0 < self.node_count(), "node {node} out of range");
        if node.0 < self.n_sats {
            NodeKind::Satellite(SatId(node.0))
        } else {
            NodeKind::GroundStation(GsId(node.0 - self.n_sats))
        }
    }

    /// Node index of satellite `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn sat_node(&self, i: impl Into<SatId>) -> NodeId {
        let i = i.into();
        assert!(i.0 < self.n_sats, "satellite {i} out of range");
        NodeId(i.0)
    }

    /// Node index of ground station `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn station_node(&self, i: impl Into<GsId>) -> NodeId {
        let i = i.into();
        assert!(i.0 < self.n_stations, "station {i} out of range");
        NodeId(self.n_sats + i.0)
    }

    /// Node indices of every ground station, in station order.
    pub fn station_nodes(&self) -> Vec<NodeId> {
        (self.n_sats..self.node_count()).map(NodeId).collect()
    }

    /// Add a directed edge.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or non-positive
    /// capacity/latency.
    pub fn add_edge(&mut self, from: impl Into<NodeId>, edge: Edge) {
        let from = from.into();
        assert!(from.0 < self.node_count(), "from {from} out of range");
        assert!(edge.to.0 < self.node_count(), "to {} out of range", edge.to);
        assert!(from != edge.to, "self-loop at {from}");
        assert!(edge.latency_s > 0.0, "latency must be positive");
        assert!(edge.capacity_bps > 0.0, "capacity must be positive");
        assert!(
            (0.0..1.0).contains(&edge.load_fraction),
            "load fraction must be in [0,1)"
        );
        self.adj[from.0].push(edge);
    }

    /// Add the same link in both directions (symmetric ISLs/ground links),
    /// with per-direction operators taken from the transmitting side.
    #[allow(clippy::too_many_arguments)] // a link is genuinely 7 facts
    pub fn add_bidirectional(
        &mut self,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
        latency_s: f64,
        capacity_bps: f64,
        operator_a: impl Into<OperatorId>,
        operator_b: impl Into<OperatorId>,
        technology: LinkTech,
    ) {
        let (a, b) = (a.into(), b.into());
        self.add_edge(
            a,
            Edge {
                to: b,
                latency_s,
                capacity_bps,
                operator: operator_a.into(),
                technology,
                load_fraction: 0.0,
            },
        );
        self.add_edge(
            b,
            Edge {
                to: a,
                latency_s,
                capacity_bps,
                operator: operator_b.into(),
                technology,
                load_fraction: 0.0,
            },
        );
    }

    /// Out-edges of `node`.
    pub fn edges(&self, node: impl Into<NodeId>) -> &[Edge] {
        &self.adj[node.into().0]
    }

    /// Mutable out-edges (the traffic simulation updates loads in place).
    pub fn edges_mut(&mut self, node: impl Into<NodeId>) -> &mut [Edge] {
        &mut self.adj[node.into().0]
    }

    /// Total directed edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Find the edge `from → to`, if present.
    pub fn find_edge(&self, from: impl Into<NodeId>, to: impl Into<NodeId>) -> Option<&Edge> {
        let to = to.into();
        self.adj[from.into().0].iter().find(|e| e.to == to)
    }

    /// Set the utilization of the edge `from → to`. Returns
    /// [`NoSuchEdge`] when the edge is absent (e.g. the contact expired
    /// since the caller last looked at the topology).
    ///
    /// # Panics
    /// Panics if the load is out of range (a caller bug, unlike a
    /// missing edge, which is a property of the evolving topology).
    pub fn set_load(
        &mut self,
        from: impl Into<NodeId>,
        to: impl Into<NodeId>,
        load_fraction: f64,
    ) -> Result<(), NoSuchEdge> {
        assert!(
            (0.0..1.0).contains(&load_fraction),
            "load fraction must be in [0,1)"
        );
        let (from, to) = (from.into(), to.into());
        let e = self.adj[from.0]
            .iter_mut()
            .find(|e| e.to == to)
            .ok_or(NoSuchEdge { from, to })?;
        e.load_fraction = load_fraction;
        Ok(())
    }

    /// Nodes reachable from `start` (BFS over directed edges).
    pub fn reachable_from(&self, start: impl Into<NodeId>) -> Vec<bool> {
        let start = start.into();
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start.0] = true;
        while let Some(u) = stack.pop() {
            for e in &self.adj[u.0] {
                if !seen[e.to.0] {
                    seen[e.to.0] = true;
                    stack.push(e.to);
                }
            }
        }
        seen
    }

    /// Keep only the edges `(from, edge)` for which `keep` holds. Every
    /// row keeps its surviving edges in their original order, so a
    /// filtered copy of a snapshot is bit-identical to the snapshot with
    /// those edges never added.
    pub fn retain_edges(&mut self, mut keep: impl FnMut(NodeId, &Edge) -> bool) {
        for (u, row) in self.adj.iter_mut().enumerate() {
            row.retain(|e| keep(NodeId(u), e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> Graph {
        // sat0 - sat1 - gs0
        let mut g = Graph::new(2, 1);
        g.add_bidirectional(0usize, 1usize, 0.005, 1e6, 1u32, 2u32, LinkTech::Rf);
        g.add_bidirectional(1usize, 2usize, 0.003, 1e7, 2u32, 9u32, LinkTech::Rf);
        g
    }

    #[test]
    fn indexing_convention() {
        let g = line_graph();
        assert_eq!(g.node_kind(0usize), NodeKind::Satellite(SatId(0)));
        assert_eq!(g.node_kind(2usize), NodeKind::GroundStation(GsId(0)));
        assert_eq!(g.station_node(0usize), NodeId(2));
        assert_eq!(g.sat_node(1usize), NodeId(1));
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let g = line_graph();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.edges(1usize).len(), 2);
        assert!(g.find_edge(0usize, 1usize).is_some());
        assert!(g.find_edge(1usize, 0usize).is_some());
        assert!(g.find_edge(0usize, 2usize).is_none());
    }

    #[test]
    fn per_direction_operators() {
        let g = line_graph();
        assert_eq!(g.find_edge(0usize, 1usize).unwrap().operator, OperatorId(1));
        assert_eq!(g.find_edge(1usize, 0usize).unwrap().operator, OperatorId(2));
    }

    #[test]
    fn reachability() {
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0usize, 1usize, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        let r = g.reachable_from(0usize);
        assert_eq!(r, vec![true, true, false]);
    }

    #[test]
    fn set_load_updates_edge() {
        let mut g = line_graph();
        g.set_load(0usize, 1usize, 0.75).unwrap();
        assert_eq!(g.find_edge(0usize, 1usize).unwrap().load_fraction, 0.75);
        assert_eq!(g.find_edge(1usize, 0usize).unwrap().load_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2, 0);
        g.add_edge(
            0usize,
            Edge {
                to: NodeId(0),
                latency_s: 1.0,
                capacity_bps: 1.0,
                operator: OperatorId(0),
                technology: LinkTech::Rf,
                load_fraction: 0.0,
            },
        );
    }

    #[test]
    fn set_load_missing_edge_is_an_error_not_a_panic() {
        let mut g = line_graph();
        let err = g.set_load(0usize, 2usize, 0.5).unwrap_err();
        assert_eq!(
            err,
            NoSuchEdge {
                from: NodeId(0),
                to: NodeId(2)
            }
        );
        assert_eq!(err.to_string(), "no edge 0 -> 2");
        // The graph is untouched by the failed update.
        assert_eq!(g.find_edge(0usize, 1usize).unwrap().load_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_kind_panics() {
        line_graph().node_kind(99usize);
    }

    #[test]
    fn retain_edges_keeps_row_order() {
        let mut g = line_graph();
        g.add_bidirectional(0usize, 2usize, 0.004, 1e6, 1u32, 9u32, LinkTech::Optical);
        // Drop everything touching sat1: what is left is the 0-2 link
        // alone, as if it had been the only one added.
        g.retain_edges(|u, e| u != NodeId(1) && e.to != NodeId(1));
        let mut only = Graph::new(2, 1);
        only.add_bidirectional(0usize, 2usize, 0.004, 1e6, 1u32, 9u32, LinkTech::Optical);
        assert_eq!(g, only);
    }

    #[test]
    fn clone_from_refills_rows_in_place() {
        let src = shifted_graph();
        let mut work = line_graph();
        work.add_bidirectional(0usize, 2usize, 0.001, 1e6, 1u32, 9u32, LinkTech::Rf);
        let rows: Vec<*const Edge> = (0..3).map(|u| work.edges(u).as_ptr()).collect();
        work.clone_from(&src);
        assert_eq!(work, src);
        for (u, &row) in rows.iter().enumerate() {
            assert_eq!(work.edges(u).as_ptr(), row, "row {u} reallocated");
        }
        // A different roster is copied whole.
        let mut small = Graph::new(1, 0);
        small.clone_from(&src);
        assert_eq!(small, src);
        assert_eq!(small.satellite_count(), 2);
    }

    /// `line_graph` with the 0-1 link dropped, a new 0-2 link added, and
    /// the 1-2 latency changed.
    fn shifted_graph() -> Graph {
        let mut g = Graph::new(2, 1);
        g.add_bidirectional(0usize, 2usize, 0.004, 1e6, 1u32, 9u32, LinkTech::Optical);
        g.add_bidirectional(1usize, 2usize, 0.002, 1e7, 2u32, 9u32, LinkTech::Rf);
        g
    }

    #[test]
    fn delta_roundtrip_is_bitwise() {
        let a = line_graph();
        let b = shifted_graph();
        let d = GraphDelta::between(&a, &b).unwrap();
        assert!(!d.is_empty());
        assert_eq!(d.row_count(), 3, "all three nodes' rows changed");
        assert_eq!(GraphDelta::between(&b, &a).unwrap(), d);
    }

    #[test]
    fn empty_delta_between_identical_graphs() {
        let a = line_graph();
        let d = GraphDelta::between(&a, &a.clone()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.row_count(), 0);
    }

    #[test]
    fn delta_detects_negative_zero_and_nan_are_distinct_bits() {
        let a = line_graph();
        let mut b = a.clone();
        b.edges_mut(0usize)[0].load_fraction = -0.0;
        let d = GraphDelta::between(&a, &b).unwrap();
        assert_eq!(d.row_count(), 1, "-0.0 differs from 0.0 bitwise");
    }

    #[test]
    fn delta_rejects_shape_mismatch() {
        let a = line_graph();
        let small = Graph::new(1, 1);
        let err = GraphDelta::between(&a, &small).unwrap_err();
        assert_eq!(
            err,
            TopologyError::ShapeMismatch {
                expected: (2, 1),
                found: (1, 1)
            }
        );
    }
}
