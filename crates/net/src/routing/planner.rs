//! Batched per-source route planning with reusable search state.
//!
//! The replan-heavy workloads of §5(2) — adaptive re-routing every tick,
//! fault re-association, topology refreshes — ask for routes for *many*
//! flows at once, and real traffic concentrates: thousands of flows share
//! a handful of gateway or hotspot sources. Running one from-scratch
//! Dijkstra per flow redoes identical work once per flow. The
//! [`RoutePlanner`] instead:
//!
//! * **groups requests by source** and grows one settled-predecessor
//!   shortest-path tree per distinct source, answering every destination
//!   from that tree;
//! * **reuses scratch buffers** (node marks, `(dist, prev)` labels and
//!   the frontier heap) across trees, with generation stamps so resetting
//!   a buffer set is O(1) instead of O(nodes);
//! * **shares compiled weight rows** between the trees of one generation
//!   (see below);
//! * **caches trees between calls** until [`RoutePlanner::invalidate`]
//!   declares the topology or the edge weights changed.
//!
//! The one-shot [`shortest_path`](crate::routing::shortest_path) and
//! [`qos_route`](crate::routing::qos_route) are single-request batches on
//! a fresh planner, so one-shot queries and batched plans run this one
//! kernel.
//!
//! # Bitwise equivalence to per-flow search
//!
//! The search is Dijkstra with a globally deterministic frontier order —
//! entries compare by `(cost, node)` with no randomness — that stops as
//! soon as the requested destination settles. Its pop/relax sequence is a
//! pure function of `(graph, source, weight)`; the destination only
//! decides *when to stop*. A tree grown for destination set
//! `{d₁, …, dₖ}` is therefore an exact prefix of the per-flow run for each
//! `dᵢ`, and once a node settles its `(dist, prev)` label is final
//! (non-negative weights), so the predecessor chain extracted for any
//! settled destination — and its total cost — is **bit-for-bit
//! identical** to what a from-scratch per-flow search returns. The
//! planner buys its speedup by not repeating pops, never by changing
//! them. `tests/tests/planner_equivalence.rs` pins paths, cost bits and
//! `routing.nodes_visited` against an independent test-only reference
//! Dijkstra (a `BinaryHeap` ordered by `f64::total_cmp`, then node),
//! including tie-heavy hop-count shells.
//!
//! # The frontier key
//!
//! A frontier entry is one `u128`, `cost.to_bits() << 64 | node`, in a
//! min-heap. Unsigned order on that key is `(cost, node)` order under
//! `f64::total_cmp` because of what a cost can be:
//!
//! * every cost is `+0.0` (the source) plus a sum of weights the search
//!   asserts are `>= 0` and not NaN, so a cost is never NaN; and since
//!   `+0.0 + -0.0 == +0.0`, a `-0.0` weight never makes a cost `-0.0`;
//! * on non-negative, non-NaN `f64`s (including `+∞`) `total_cmp` is
//!   exactly the unsigned order of the bit patterns;
//! * the node index in the low 64 bits breaks cost ties toward the
//!   smaller index, as the per-flow search always has.
//!
//! # Weight rows and their generations
//!
//! The first time any tree of the current *row generation* settles a
//! node, the planner calls the weight closure on that node's out-edges
//! in order, relaxing each arc as before and also appending it to a
//! packed `(weight, to)` row (arcs weighted `INFINITY` — filtered — are
//! dropped). Every later tree of the generation that settles the node
//! reads the packed row instead of the 48-byte `Edge`s and the closure
//! (for the congestion weight, two divisions per edge). Rows are compiled
//! lazily, node by node, never for the whole graph up front, so a
//! one-shot search pays only for the rows it reads. The weights are
//! stored as returned and checked on every relaxation, so a NaN or
//! negative weight panics in exactly the searches that reach it, as
//! before.
//!
//! Rows carry a generation stamp like the tree buffers, and a new row
//! generation starts whenever the cached trees stop being trustworthy:
//! on [`invalidate`](RoutePlanner::invalidate) and on a node-count
//! change. Trees and rows always start over together.
//!
//! # Telemetry
//!
//! Through a [`Recorder`] the planner reports, alongside the established
//! `routing.recomputes` (one per route *request*, preserving the metric's
//! meaning) and `routing.nodes_visited` (heap pops actually performed —
//! now counted once per tree, not once per flow):
//!
//! * `routing.planner.trees` — shortest-path trees grown;
//! * `routing.planner.path_extractions` — paths read out of a tree;
//! * `routing.planner.scratch_reuses` — trees that recycled a pooled
//!   buffer set instead of allocating.

use crate::routing::dijkstra::Path;
use crate::routing::qos::{congestion_weight, residual_bps, QosRequirement};
use crate::topology::{Edge, Graph, NodeId};
use openspace_telemetry::{NullRecorder, Recorder};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Frontier key of a `(cost, node)` pair: the cost's bits above the
/// node index, so unsigned order is `(cost, node)` order for every cost
/// the search can produce (see the [module docs](self)).
fn frontier_key(cost: f64, node: NodeId) -> u128 {
    (u128::from(cost.to_bits()) << 64) | node.0 as u128
}

/// Inverse of [`frontier_key`].
fn frontier_entry(key: u128) -> (f64, NodeId) {
    (
        f64::from_bits((key >> 64) as u64),
        NodeId(key as u64 as usize),
    )
}

/// Out-rows compiled under the current row generation's weight: packed
/// `(weight, to)` arcs with the `INFINITY` (filtered) arcs dropped,
/// written the first time any tree settles a node and then read by every
/// later tree of the generation instead of the edges and the closure.
struct Rows {
    gen: u32,
    /// Per node `(stamp, start, end)`: when `stamp == gen`, the node's
    /// row is `arcs[start..end]`.
    slots: Vec<(u32, u32, u32)>,
    arcs: Vec<(f64, NodeId)>,
}

impl Rows {
    fn new() -> Rows {
        Rows {
            gen: 0,
            slots: Vec::new(),
            arcs: Vec::new(),
        }
    }

    /// Start a new row generation over `n` nodes: every compiled row goes
    /// stale in O(1), with a hard clear on wrap or a node-count change.
    fn reset(&mut self, n: usize) {
        self.arcs.clear();
        if self.gen == u32::MAX || self.slots.len() != n {
            self.gen = 1;
            self.slots.clear();
            self.slots.resize(n, (0, 0, 0));
        } else {
            self.gen += 1;
        }
    }

    /// The row of `node`, if compiled in this generation.
    fn get(&self, node: NodeId) -> Option<&[(f64, NodeId)]> {
        let (stamp, start, end) = self.slots[node.0];
        (stamp == self.gen).then(|| &self.arcs[start as usize..end as usize])
    }

    /// Open a row for compiling: returns its start in `arcs`.
    fn open(&mut self, graph: &Graph) -> usize {
        if self.arcs.capacity() == 0 {
            // One allocation sized for the whole graph, kept across
            // generations.
            self.arcs.reserve(graph.edge_count());
        }
        self.arcs.len()
    }

    /// Mark the arcs pushed since [`open`](Self::open) as `node`'s row.
    fn seal(&mut self, node: NodeId, start: usize) {
        let end = u32::try_from(self.arcs.len()).expect("row arena holds at most u32::MAX arcs");
        // `start <= end`, so it fits too.
        self.slots[node.0] = (self.gen, start as u32, end);
    }
}

/// One shortest-path tree rooted at a source, pausable and resumable:
/// the heap keeps its frontier so a later request for a deeper
/// destination continues the same search instead of restarting it.
struct Tree {
    src: NodeId,
    /// Stamp generation, always even: `mark[i] == gen` ⇒ node `i` was
    /// touched (its label is live), `mark[i] == gen + 1` ⇒ it also
    /// settled with its final cost. Older generations' marks are `< gen`.
    gen: u32,
    mark: Vec<u32>,
    /// `(dist, prev)` of a touched node; `prev` is meaningless for `src`.
    label: Vec<(f64, NodeId)>,
    /// Min-heap of [`frontier_key`]s.
    heap: BinaryHeap<Reverse<u128>>,
    /// The frontier ran dry: every reachable node is settled.
    exhausted: bool,
}

impl Tree {
    fn start(mut buffers: Tree, n: usize, src: NodeId) -> Tree {
        buffers.src = src;
        buffers.heap.clear();
        buffers.exhausted = false;
        // Generation bump invalidates every mark in O(1); on wrap (or a
        // resize) fall back to a hard clear so stale marks can't alias.
        if buffers.gen >= u32::MAX - 3 || buffers.mark.len() != n {
            buffers.gen = 2;
            buffers.mark.clear();
            buffers.mark.resize(n, 0);
            buffers.label.resize(n, (f64::INFINITY, NodeId(0)));
            buffers.heap.reserve(n);
        } else {
            buffers.gen += 2;
        }
        buffers.touch(src, 0.0, src);
        buffers.heap.push(Reverse(frontier_key(0.0, src)));
        buffers
    }

    fn empty() -> Tree {
        Tree {
            src: NodeId(0),
            gen: u32::MAX, // force the hard-clear path on first start
            mark: Vec::new(),
            label: Vec::new(),
            heap: BinaryHeap::new(),
            exhausted: false,
        }
    }

    fn touch(&mut self, node: NodeId, dist: f64, prev: NodeId) {
        self.mark[node.0] = self.gen;
        self.label[node.0] = (dist, prev);
    }

    fn dist_of(&self, node: NodeId) -> f64 {
        if self.mark[node.0] >= self.gen {
            self.label[node.0].0
        } else {
            f64::INFINITY
        }
    }

    fn is_settled(&self, node: NodeId) -> bool {
        self.mark[node.0] == self.gen + 1
    }

    /// Offer `to` the cost `cost + w` through `node`. The weight check
    /// runs here, on every relaxation, so an edge no search reaches never
    /// panics.
    #[inline(always)]
    fn relax(&mut self, cost: f64, w: f64, node: NodeId, to: NodeId) {
        assert!(w >= 0.0 && !w.is_nan(), "edge weight must be non-negative");
        let next = cost + w;
        if next < self.dist_of(to) {
            self.touch(to, next, node);
            self.heap.push(Reverse(frontier_key(next, to)));
        }
    }

    /// Run (or resume) the search until `dst` settles or the frontier is
    /// exhausted. Returns the number of heap pops performed now — the
    /// same work metric the per-flow search reports.
    fn settle(
        &mut self,
        graph: &Graph,
        rows: &mut Rows,
        dst: NodeId,
        weight: &impl Fn(&Edge) -> f64,
    ) -> u64 {
        if self.is_settled(dst) || self.exhausted {
            return 0;
        }
        let mut visited = 0u64;
        loop {
            let Some(Reverse(key)) = self.heap.pop() else {
                self.exhausted = true;
                break;
            };
            let (cost, node) = frontier_entry(key);
            if cost > self.dist_of(node) {
                continue; // stale entry
            }
            visited += 1;
            self.mark[node.0] = self.gen + 1;
            if let Some(row) = rows.get(node) {
                for &(w, to) in row {
                    self.relax(cost, w, node, to);
                }
            } else {
                // First settle of `node` this row generation: compile its
                // row while relaxing it, in edge order as always.
                let start = rows.open(graph);
                for e in graph.edges(node) {
                    let w = weight(e);
                    if w != f64::INFINITY {
                        rows.arcs.push((w, e.to));
                        self.relax(cost, w, node, e.to);
                    }
                }
                rows.seal(node, start);
            }
            if node == dst {
                break;
            }
        }
        visited
    }

    /// Read the path to a settled (or unreachable) destination.
    fn extract(&self, dst: NodeId) -> Option<Path> {
        if self.dist_of(dst).is_infinite() {
            return None;
        }
        debug_assert!(self.is_settled(dst), "extract() before settle()");
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != self.src {
            cur = self.label[cur.0].1;
            nodes.push(cur);
        }
        nodes.reverse();
        Some(Path {
            nodes,
            total_cost: self.label[dst.0].0,
        })
    }
}

/// Batched per-source shortest-path planner (see the [module
/// docs](self) for the equivalence argument and telemetry keys).
///
/// # Cache contract
///
/// Cached trees and compiled weight rows are valid for one *topology
/// generation*: after any change to the graph's structure **or** to
/// anything an edge-weight function reads (e.g. `load_fraction` before
/// QoS routing), call [`invalidate`](Self::invalidate) before planning
/// again. Planning with a different weight function within one
/// generation likewise requires an `invalidate` in between — the planner
/// cannot see inside the closure, and even a new source's tree would read
/// rows compiled under the old weight.
pub struct RoutePlanner {
    /// Trees grown in the current generation, in first-request order.
    trees: Vec<Tree>,
    /// Retired buffer sets awaiting reuse.
    pool: Vec<Tree>,
    /// Out-rows compiled for the current generation, shared by its trees.
    rows: Rows,
    /// Node count the cached trees were built against.
    n: usize,
}

impl Default for RoutePlanner {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutePlanner {
    /// A planner with no cached state.
    pub fn new() -> Self {
        Self {
            trees: Vec::new(),
            pool: Vec::new(),
            rows: Rows::new(),
            n: 0,
        }
    }

    /// Drop every cached tree and compiled row (buffers are retained for
    /// reuse). Call whenever the topology or the edge weights change.
    pub fn invalidate(&mut self) {
        self.pool.append(&mut self.trees);
        self.rows.reset(self.n);
    }

    /// Number of trees cached for the current generation.
    pub fn cached_trees(&self) -> usize {
        self.trees.len()
    }

    /// Plan a batch of `(src, dst)` route requests under `weight`,
    /// returning one `Option<Path>` per request in request order (`None`
    /// when the destination is unreachable). Requests sharing a source
    /// share one shortest-path tree; each answer is bitwise-identical to
    /// what [`shortest_path`](crate::routing::shortest_path) returns for
    /// that request alone.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or a negative/NaN edge weight,
    /// exactly like the per-flow search.
    pub fn plan(
        &mut self,
        graph: &Graph,
        requests: &[(NodeId, NodeId)],
        weight: impl Fn(&Edge) -> f64,
    ) -> Vec<Option<Path>> {
        self.plan_recorded(graph, requests, weight, &mut NullRecorder)
    }

    /// [`plan`](Self::plan) with telemetry (see the [module docs](self)
    /// for the keys).
    pub fn plan_recorded(
        &mut self,
        graph: &Graph,
        requests: &[(NodeId, NodeId)],
        weight: impl Fn(&Edge) -> f64,
        rec: &mut dyn Recorder,
    ) -> Vec<Option<Path>> {
        self.plan_mapped_recorded(graph, requests, weight, Some, rec)
    }

    /// [`plan_recorded`](Self::plan_recorded) with a caller-supplied
    /// extraction map: each found [`Path`] is passed to `map` *as it is
    /// extracted*, and the mapped value is returned in its place.
    ///
    /// This lets a caller compile paths straight into its own route
    /// representation (e.g. the packet simulator's link-index form)
    /// without materializing an intermediate `Vec<Path>`. `map`
    /// returning `None` demotes the request to unroutable (used by the
    /// QoS latency bound); the `routing.planner.path_extractions`
    /// counter still counts the raw extraction, so telemetry is
    /// identical whether or not a map filters.
    pub fn plan_mapped_recorded<T>(
        &mut self,
        graph: &Graph,
        requests: &[(NodeId, NodeId)],
        weight: impl Fn(&Edge) -> f64,
        mut map: impl FnMut(Path) -> Option<T>,
        rec: &mut dyn Recorder,
    ) -> Vec<Option<T>> {
        let n = graph.node_count();
        if n != self.n {
            // A different-sized graph can only mean a new topology.
            self.n = n;
            self.invalidate();
        }
        let mut visited = 0u64;
        let mut trees_built = 0u64;
        let mut scratch_reuses = 0u64;
        let mut extractions = 0u64;
        let paths: Vec<Option<T>> = requests
            .iter()
            .map(|&(src, dst)| {
                assert!(src.0 < n, "src out of range");
                assert!(dst.0 < n, "dst out of range");
                let idx = match self.trees.iter().position(|t| t.src == src) {
                    Some(idx) => idx,
                    None => {
                        let buffers = match self.pool.pop() {
                            Some(b) => {
                                scratch_reuses += 1;
                                b
                            }
                            None => Tree::empty(),
                        };
                        trees_built += 1;
                        self.trees.push(Tree::start(buffers, n, src));
                        self.trees.len() - 1
                    }
                };
                let tree = &mut self.trees[idx];
                visited += tree.settle(graph, &mut self.rows, dst, &weight);
                let path = tree.extract(dst);
                if path.is_some() {
                    extractions += 1;
                }
                path.and_then(&mut map)
            })
            .collect();
        // `routing.recomputes` keeps its historical meaning — one per
        // route request — so dashboards and tests stay comparable; the
        // planner's win shows up in `routing.nodes_visited` shrinking.
        rec.add("routing.recomputes", requests.len() as u64);
        rec.add("routing.nodes_visited", visited);
        rec.add("routing.planner.trees", trees_built);
        rec.add("routing.planner.path_extractions", extractions);
        rec.add("routing.planner.scratch_reuses", scratch_reuses);
        paths
    }

    /// Single-request convenience over [`plan_recorded`](Self::plan_recorded):
    /// the form [`shortest_path`](crate::routing::shortest_path) and
    /// [`qos_route`](crate::routing::qos_route) wrap.
    pub fn route_recorded(
        &mut self,
        graph: &Graph,
        src: impl Into<NodeId>,
        dst: impl Into<NodeId>,
        weight: impl Fn(&Edge) -> f64,
        rec: &mut dyn Recorder,
    ) -> Option<Path> {
        self.plan_recorded(graph, &[(src.into(), dst.into())], weight, rec)
            .pop()
            .flatten()
    }

    /// Batched QoS routing: the planner analogue of
    /// [`qos_route`](crate::routing::qos_route). Links whose residual
    /// bandwidth misses the requirement's floor are filtered, paths are
    /// costed by [`congestion_weight`], and answers that violate the
    /// latency bound come back as `None`.
    pub fn plan_qos_recorded(
        &mut self,
        graph: &Graph,
        requests: &[(NodeId, NodeId)],
        requirement: &QosRequirement,
        packet_bits: f64,
        rec: &mut dyn Recorder,
    ) -> Vec<Option<Path>> {
        self.plan_qos_mapped_recorded(graph, requests, requirement, packet_bits, Some, rec)
    }

    /// [`plan_qos_recorded`](Self::plan_qos_recorded) with a
    /// caller-supplied extraction map (see
    /// [`plan_mapped_recorded`](Self::plan_mapped_recorded)). The QoS
    /// latency bound is applied *before* `map`, so `map` only ever sees
    /// admissible paths.
    pub fn plan_qos_mapped_recorded<T>(
        &mut self,
        graph: &Graph,
        requests: &[(NodeId, NodeId)],
        requirement: &QosRequirement,
        packet_bits: f64,
        mut map: impl FnMut(Path) -> Option<T>,
        rec: &mut dyn Recorder,
    ) -> Vec<Option<T>> {
        let min_bw = requirement.min_bandwidth_bps;
        let max_latency = requirement.max_latency_s;
        self.plan_mapped_recorded(
            graph,
            requests,
            |e| {
                if residual_bps(e) < min_bw {
                    f64::INFINITY
                } else {
                    congestion_weight(e, packet_bits)
                }
            },
            |p| {
                if p.total_cost <= max_latency {
                    map(p)
                } else {
                    None
                }
            },
            rec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{latency_weight, qos_route, shortest_path};
    use crate::topology::LinkTech;
    use openspace_telemetry::MemoryRecorder;

    /// 0 —1ms— 1 —1ms— 2  plus a 5 ms direct 0 — 2, and a stub 3.
    fn diamond() -> Graph {
        let mut g = Graph::new(4, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(1, 2, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.005, 1e9, 0u32, 0u32, LinkTech::Rf);
        g
    }

    #[test]
    fn batch_matches_per_flow_search_bitwise() {
        let g = diamond();
        let reqs = [
            (NodeId(0), NodeId(2)),
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(2)),
            (NodeId(0), NodeId(2)),
        ];
        let mut planner = RoutePlanner::new();
        let batched = planner.plan(&g, &reqs, latency_weight);
        for (req, got) in reqs.iter().zip(&batched) {
            let solo = shortest_path(&g, req.0, req.1, latency_weight);
            let (got, solo) = (got.as_ref().unwrap(), solo.unwrap());
            assert_eq!(got.nodes, solo.nodes);
            assert_eq!(got.total_cost.to_bits(), solo.total_cost.to_bits());
        }
    }

    #[test]
    fn shared_source_grows_one_tree() {
        let g = diamond();
        let reqs: Vec<(NodeId, NodeId)> = (1..4).map(|d| (NodeId(0), NodeId(d))).collect();
        let mut planner = RoutePlanner::new();
        let mut rec = MemoryRecorder::new();
        planner.plan_recorded(&g, &reqs, latency_weight, &mut rec);
        assert_eq!(rec.counter("routing.planner.trees"), 1);
        assert_eq!(rec.counter("routing.recomputes"), 3);
        assert_eq!(planner.cached_trees(), 1);
    }

    #[test]
    fn unreachable_destination_is_none() {
        let g = diamond(); // node 3 is isolated
        let mut planner = RoutePlanner::new();
        let out = planner.plan(
            &g,
            &[(NodeId(0), NodeId(3)), (NodeId(0), NodeId(2))],
            latency_weight,
        );
        assert!(out[0].is_none());
        // The exhausted tree still answers reachable destinations.
        assert!(out[1].is_some());
    }

    #[test]
    fn source_equals_destination() {
        let g = diamond();
        let mut planner = RoutePlanner::new();
        let p = planner
            .route_recorded(&g, 1, 1, latency_weight, &mut NullRecorder)
            .unwrap();
        assert_eq!(p.nodes, vec![NodeId(1)]);
        assert_eq!(p.total_cost, 0.0);
    }

    #[test]
    fn cache_survives_calls_and_invalidate_resets_it() {
        let g = diamond();
        let mut planner = RoutePlanner::new();
        let mut rec = MemoryRecorder::new();
        planner.plan_recorded(&g, &[(NodeId(0), NodeId(2))], latency_weight, &mut rec);
        planner.plan_recorded(&g, &[(NodeId(0), NodeId(1))], latency_weight, &mut rec);
        assert_eq!(rec.counter("routing.planner.trees"), 1, "cache hit");
        planner.invalidate();
        planner.plan_recorded(&g, &[(NodeId(0), NodeId(2))], latency_weight, &mut rec);
        assert_eq!(rec.counter("routing.planner.trees"), 2);
        assert_eq!(
            rec.counter("routing.planner.scratch_reuses"),
            1,
            "the invalidated tree's buffers were recycled"
        );
    }

    #[test]
    fn qos_batch_matches_qos_route() {
        let mut g = diamond();
        g.set_load(0, 1, 0.9).unwrap();
        g.set_load(1, 2, 0.9).unwrap();
        let req = QosRequirement {
            min_bandwidth_bps: 2e5,
            max_latency_s: f64::INFINITY,
        };
        let mut planner = RoutePlanner::new();
        let batched = planner.plan_qos_recorded(
            &g,
            &[(NodeId(0), NodeId(2))],
            &req,
            12_000.0,
            &mut NullRecorder,
        );
        let solo = qos_route(&g, 0, 2, &req, 12_000.0).unwrap();
        let got = batched[0].as_ref().unwrap();
        assert_eq!(got.nodes, solo.nodes);
        assert_eq!(got.total_cost.to_bits(), solo.total_cost.to_bits());
    }

    #[test]
    fn qos_latency_bound_filters_answers() {
        let g = diamond();
        let req = QosRequirement {
            min_bandwidth_bps: 0.0,
            max_latency_s: 1e-9, // unmeetable
        };
        let mut planner = RoutePlanner::new();
        let out = planner.plan_qos_recorded(
            &g,
            &[(NodeId(0), NodeId(2))],
            &req,
            12_000.0,
            &mut NullRecorder,
        );
        assert!(out[0].is_none());
    }

    #[test]
    fn node_count_change_invalidates_automatically() {
        let small = diamond();
        let mut planner = RoutePlanner::new();
        planner.plan(&small, &[(NodeId(0), NodeId(2))], latency_weight);
        let mut big = Graph::new(6, 0);
        big.add_bidirectional(0, 5, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        let out = planner.plan(&big, &[(NodeId(0), NodeId(5))], latency_weight);
        assert_eq!(out[0].as_ref().unwrap().nodes, vec![NodeId(0), NodeId(5)]);
    }

    /// The panic message of `f`, or `None` when it returns normally.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        err.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
    }

    #[test]
    fn bad_weights_panic_only_when_the_search_relaxes_them() {
        // 0 —1ms— 1 —1ms— 2 —bad— 3
        let mut g = Graph::new(4, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(1, 2, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        g.add_bidirectional(2, 3, 0.002, 1e6, 0u32, 0u32, LinkTech::Rf);
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let weight = move |e: &Edge| {
                if e.latency_s == 0.002 {
                    bad
                } else {
                    e.latency_s
                }
            };
            let mut planner = RoutePlanner::new();
            // Searches that stop before node 2 settles never relax a bad
            // edge, whichever tree compiled the rows they read.
            let out = planner.plan(
                &g,
                &[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))],
                weight,
            );
            assert!(out.iter().all(Option::is_some), "weight {bad}");
            // Relaxing one panics with the per-flow search's message, in
            // each tree that settles node 2.
            for src in [0, 1] {
                let msg = panic_message(|| {
                    planner.plan(&g, &[(NodeId(src), NodeId(2))], weight);
                });
                assert_eq!(
                    msg.as_deref(),
                    Some("edge weight must be non-negative"),
                    "weight {bad}, source {src}"
                );
            }
        }
    }

    #[test]
    fn visited_work_shrinks_for_shared_sources() {
        // A line graph: every per-flow search from node 0 re-walks the
        // prefix; the tree walks it once.
        let n = 64;
        let mut g = Graph::new(n, 0);
        for i in 0..n - 1 {
            g.add_bidirectional(i, i + 1, 0.001, 1e6, 0u32, 0u32, LinkTech::Rf);
        }
        let reqs: Vec<(NodeId, NodeId)> = (1..n).map(|d| (NodeId(0), NodeId(d))).collect();
        let mut solo_visited = 0;
        for &(s, d) in &reqs {
            let mut rec = MemoryRecorder::new();
            crate::routing::shortest_path_recorded(&g, s, d, latency_weight, &mut rec);
            solo_visited += rec.counter("routing.nodes_visited");
        }
        let mut rec = MemoryRecorder::new();
        RoutePlanner::new().plan_recorded(&g, &reqs, latency_weight, &mut rec);
        let batched_visited = rec.counter("routing.nodes_visited");
        assert!(
            batched_visited * 2 <= solo_visited,
            "batched {batched_visited} vs per-flow {solo_visited}"
        );
    }
}
