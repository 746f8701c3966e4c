//! Property test pinning the batched [`RoutePlanner`] against an
//! **independent** reference search: every answer — path nodes, cost
//! bits — and the work it reports (`routing.nodes_visited`) must equal
//! what a plain per-flow Dijkstra produces.
//!
//! `shortest_path` and `qos_route` are thin wrappers over the planner,
//! so comparing the planner with them would be circular. The oracle
//! here is the search the planner replaced, kept test-only: a
//! lazy-deletion `BinaryHeap` ordered by `(cost.total_cmp, node)` over
//! `graph.edges`, calling the weight closure on every edge it relaxes
//! and stopping when the destination settles. The planner's correctness
//! argument (see `crates/net/src/routing/planner.rs`) is that one tree
//! grown for many destinations pops exactly the oracle's sequence, so
//! paths, costs and pop counts cannot drift.
//!
//! The cases cover seeded random topologies with random loads under the
//! latency and the congestion/QoS costs, Walker-Delta shells under
//! `hop_weight` (where costs tie everywhere, so the node tie-break
//! decides every path), zero and `-0.0` weights, `INFINITY`-filtered
//! edges and isolated nodes, and trees resumed across batches.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use openspace_net::prelude::*;
use openspace_net::routing::{congestion_weight, residual_bps, RoutePlanner};
use openspace_net::topology::LinkTech;
use openspace_orbit::propagator::{PerturbationModel, Propagator};
use openspace_orbit::walker::{walker_delta, WalkerParams};
use openspace_sim::prelude::SimRng;
use openspace_telemetry::MemoryRecorder;

const CASES: u64 = 128;
const PKT_BITS: f64 = 12_000.0;

/// Frontier entry of the reference search: a min-heap item ordered by
/// `(cost, node)` through `f64::total_cmp`.
#[derive(PartialEq)]
struct Entry {
    cost: f64,
    node: NodeId,
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then(other.node.cmp(&self.node))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The outcome of one reference search from `src`.
struct Reference {
    dist: Vec<f64>,
    prev: Vec<NodeId>,
    /// Heap pops performed (stale entries excluded).
    pops: u64,
}

impl Reference {
    /// Dijkstra from `src` until `dst` settles, or to exhaustion when
    /// `dst` is `None` or unreachable.
    fn search(
        graph: &Graph,
        src: NodeId,
        dst: Option<NodeId>,
        weight: &dyn Fn(&Edge) -> f64,
    ) -> Reference {
        let n = graph.node_count();
        let mut r = Reference {
            dist: vec![f64::INFINITY; n],
            prev: vec![NodeId(0); n],
            pops: 0,
        };
        r.dist[src.0] = 0.0;
        let mut heap = BinaryHeap::from([Entry {
            cost: 0.0,
            node: src,
        }]);
        while let Some(Entry { cost, node }) = heap.pop() {
            if cost > r.dist[node.0] {
                continue;
            }
            r.pops += 1;
            for e in graph.edges(node) {
                let w = weight(e);
                if w == f64::INFINITY {
                    continue;
                }
                assert!(w >= 0.0 && !w.is_nan(), "edge weight must be non-negative");
                let next = cost + w;
                if next < r.dist[e.to.0] {
                    r.dist[e.to.0] = next;
                    r.prev[e.to.0] = node;
                    heap.push(Entry {
                        cost: next,
                        node: e.to,
                    });
                }
            }
            if Some(node) == dst {
                break;
            }
        }
        r
    }

    /// Path nodes and cost bits to `dst`, `None` when unreachable.
    fn path(&self, src: NodeId, dst: NodeId) -> Option<(Vec<NodeId>, u64)> {
        if self.dist[dst.0].is_infinite() {
            return None;
        }
        let mut nodes = vec![dst];
        while *nodes.last().unwrap() != src {
            nodes.push(self.prev[nodes.last().unwrap().0]);
        }
        nodes.reverse();
        Some((nodes, self.dist[dst.0].to_bits()))
    }
}

/// The planner's QoS cost, restated for the oracle.
fn qos_weight(req: &QosRequirement) -> impl Fn(&Edge) -> f64 + '_ {
    move |e| {
        if residual_bps(e) < req.min_bandwidth_bps {
            f64::INFINITY
        } else {
            congestion_weight(e, PKT_BITS)
        }
    }
}

/// The cost function one batch is planned under.
#[derive(Clone, Copy)]
enum Cost<'a> {
    Plain(&'a dyn Fn(&Edge) -> f64),
    Qos(&'a QosRequirement),
}

/// Oracle-side model of one planner generation: the number of pops
/// each source's tree has performed so far. Trees pop the oracle's
/// sequence, so a request costs `max(0, oracle pops to dst − pops so
/// far)` — zero when the destination already settled or the tree ran
/// dry.
#[derive(Default)]
struct Model {
    popped: BTreeMap<NodeId, u64>,
}

/// Plan `requests` on `planner` and check every answer and the batch's
/// `routing.nodes_visited` against the reference search.
fn check_batch(
    planner: &mut RoutePlanner,
    model: &mut Model,
    graph: &Graph,
    requests: &[(NodeId, NodeId)],
    cost: Cost,
    what: &str,
) {
    let mut rec = MemoryRecorder::new();
    let qos;
    let (got, weight, max_latency): (_, &dyn Fn(&Edge) -> f64, _) = match cost {
        Cost::Plain(w) => (
            planner.plan_recorded(graph, requests, w, &mut rec),
            w,
            f64::INFINITY,
        ),
        Cost::Qos(req) => {
            qos = qos_weight(req);
            (
                planner.plan_qos_recorded(graph, requests, req, PKT_BITS, &mut rec),
                &qos,
                req.max_latency_s,
            )
        }
    };
    let mut want_visited = 0u64;
    for (&(s, d), got) in requests.iter().zip(&got) {
        let reference = Reference::search(graph, s, Some(d), weight);
        let want = reference
            .path(s, d)
            .filter(|&(_, bits)| f64::from_bits(bits) <= max_latency);
        let got = got
            .as_ref()
            .map(|p| (p.nodes.clone(), p.total_cost.to_bits()));
        assert_eq!(got, want, "{what}: answer for {s:?}->{d:?}");
        let popped = model.popped.entry(s).or_insert(0);
        want_visited += reference.pops.saturating_sub(*popped);
        *popped = (*popped).max(reference.pops);
    }
    assert_eq!(
        rec.counter("routing.nodes_visited"),
        want_visited,
        "{what}: nodes_visited"
    );
}

/// A fresh planner and model checked on one batch.
fn check_fresh(graph: &Graph, requests: &[(NodeId, NodeId)], cost: Cost, what: &str) {
    check_batch(
        &mut RoutePlanner::new(),
        &mut Model::default(),
        graph,
        requests,
        cost,
        what,
    );
}

/// A random connected-ish graph: a scrambled spine plus random chords,
/// with random per-direction loads. Some cases leave isolated nodes so
/// unreachable destinations are exercised too.
fn random_graph(rng: &mut SimRng) -> Graph {
    let n = 2 + rng.index(38);
    let mut g = Graph::new(n, 0);
    // Spine over a prefix of the nodes (the rest stay isolated).
    let spine = 1 + rng.index(n - 1);
    for i in 0..spine {
        let latency = rng.uniform_range(1e-4, 2e-2);
        let cap = rng.uniform_range(1e6, 1e9);
        g.add_bidirectional(i, i + 1, latency, cap, 0u32, 0u32, LinkTech::Rf);
    }
    // Random chords.
    for _ in 0..rng.index(2 * n) {
        let u = rng.index(n);
        let v = rng.index(n);
        if u == v || g.find_edge(u, v).is_some() {
            continue;
        }
        let latency = rng.uniform_range(1e-4, 2e-2);
        let cap = rng.uniform_range(1e6, 1e9);
        g.add_bidirectional(u, v, latency, cap, 0u32, 0u32, LinkTech::Rf);
    }
    // Random loads (strictly below 1.0: the congestion weight's domain).
    for u in 0..n {
        let targets: Vec<NodeId> = g.edges(u).iter().map(|e| e.to).collect();
        for v in targets {
            if rng.uniform() < 0.5 {
                let load = rng.uniform_range(0.0, 0.99);
                g.set_load(u, v, load).unwrap();
            }
        }
    }
    g
}

fn random_requests(rng: &mut SimRng, n: usize, max: usize) -> Vec<(NodeId, NodeId)> {
    (0..1 + rng.index(max))
        .map(|_| (NodeId(rng.index(n)), NodeId(rng.index(n))))
        .collect()
}

/// A pseudo-random bucket of an edge, stable for the edge's bits: lets
/// a weight closure single out edges without any state.
fn edge_bucket(e: &Edge, buckets: u64) -> u64 {
    (e.latency_s.to_bits() ^ (e.to.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % buckets
}

/// A Walker-Delta shell's ISL snapshot (no ground segment).
fn walker_graph(planes: usize, per_plane: usize, t_s: f64) -> Graph {
    let sats: Vec<SatNode> = walker_delta(&WalkerParams {
        total_satellites: planes * per_plane,
        planes,
        phasing: 1,
        altitude_m: 550e3,
        inclination_deg: 53.0,
    })
    .unwrap()
    .into_iter()
    .enumerate()
    .map(|(i, el)| SatNode {
        propagator: Propagator::new(el, PerturbationModel::SecularJ2),
        operator: (i % 4) as u32,
        has_optical: i % 3 != 0,
    })
    .collect();
    build_snapshot(t_s, &sats, &[], &SnapshotParams::default())
}

#[test]
fn planner_batch_is_bitwise_equal_to_per_flow_shortest_path() {
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x9E37, case);
        let g = random_graph(&mut rng);
        let requests = random_requests(&mut rng, g.node_count(), 12);
        let what = format!("case {case}");
        check_fresh(&g, &requests, Cost::Plain(&latency_weight), &what);
        // The one-shot wrapper is the same kernel on a one-request batch.
        for &(s, d) in &requests {
            check_fresh(&g, &[(s, d)], Cost::Plain(&latency_weight), &what);
            let want = Reference::search(&g, s, Some(d), &latency_weight).path(s, d);
            let solo = shortest_path(&g, s, d, latency_weight);
            assert_eq!(
                solo.map(|p| (p.nodes, p.total_cost.to_bits())),
                want,
                "{what}: shortest_path {s:?}->{d:?}"
            );
        }
    }
}

#[test]
fn planner_qos_batch_is_bitwise_equal_to_qos_route() {
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x9E38, case);
        let g = random_graph(&mut rng);
        // Random requirement: sometimes filtering, sometimes best-effort.
        let req = QosRequirement {
            min_bandwidth_bps: if rng.uniform() < 0.5 {
                rng.uniform_range(0.0, 5e8)
            } else {
                0.0
            },
            max_latency_s: if rng.uniform() < 0.3 {
                rng.uniform_range(1e-3, 5e-2)
            } else {
                f64::INFINITY
            },
        };
        let requests = random_requests(&mut rng, g.node_count(), 12);
        let what = format!("case {case}");
        check_fresh(&g, &requests, Cost::Qos(&req), &what);
        for &(s, d) in &requests {
            let want = Reference::search(&g, s, Some(d), &qos_weight(&req))
                .path(s, d)
                .filter(|&(_, bits)| f64::from_bits(bits) <= req.max_latency_s);
            let solo = qos_route(&g, s, d, &req, PKT_BITS);
            assert_eq!(
                solo.map(|p| (p.nodes, p.total_cost.to_bits())),
                want,
                "{what}: qos_route {s:?}->{d:?}"
            );
        }
    }
}

#[test]
fn cached_trees_stay_correct_across_repeated_batches() {
    // Replan-style usage: the same planner answers several batches over
    // one topology generation, resuming its trees; every batch must
    // match the reference and pop only what the trees had not popped.
    for case in 0..32 {
        let mut rng = SimRng::substream(0x9E39, case);
        let g = random_graph(&mut rng);
        let n = g.node_count();
        let mut planner = RoutePlanner::new();
        let mut model = Model::default();
        for batch in 0..3 {
            let requests = random_requests(&mut rng, n, 8);
            let what = format!("case {case} batch {batch}");
            check_batch(
                &mut planner,
                &mut model,
                &g,
                &requests,
                Cost::Plain(&latency_weight),
                &what,
            );
        }
        // After an invalidate the next batch starts from scratch, under
        // a different weight.
        planner.invalidate();
        let mut model = Model::default();
        for batch in 3..5 {
            let requests = random_requests(&mut rng, n, 8);
            let what = format!("case {case} batch {batch}");
            check_batch(
                &mut planner,
                &mut model,
                &g,
                &requests,
                Cost::Plain(&hop_weight),
                &what,
            );
        }
    }
}

#[test]
fn walker_shells_under_hop_weight_tie_break_by_node_index() {
    // Every ISL costs 1 hop, so most destinations have many equal-cost
    // paths and the frontier ties constantly: the node tie-break alone
    // decides each path.
    for (case, &(planes, per_plane, t_s)) in [(12, 8, 0.0), (24, 11, 300.0), (36, 18, 1_234.0)]
        .iter()
        .enumerate()
    {
        let g = walker_graph(planes, per_plane, t_s);
        let n = g.node_count();
        let mut rng = SimRng::substream(0x9E3A, case as u64);
        let requests: Vec<(NodeId, NodeId)> = (0..24)
            .map(|k| (NodeId((k % 4) * n / 4), NodeId(rng.index(n))))
            .collect();
        let mut planner = RoutePlanner::new();
        let mut model = Model::default();
        let what = format!("walker {planes}x{per_plane}");
        check_batch(
            &mut planner,
            &mut model,
            &g,
            &requests,
            Cost::Plain(&hop_weight),
            &what,
        );
        // A second batch resumes the same trees.
        let more: Vec<(NodeId, NodeId)> = (0..24)
            .map(|k| (NodeId((k % 6) * n / 6), NodeId(rng.index(n))))
            .collect();
        check_batch(
            &mut planner,
            &mut model,
            &g,
            &more,
            Cost::Plain(&hop_weight),
            &what,
        );
    }
}

#[test]
fn zero_and_negative_zero_weights_match_the_reference() {
    // `+0.0` and `-0.0` weights both pass the non-negative check; a cost
    // sum starting at `+0.0` stays `+0.0` across either, and ties
    // between zero-cost nodes fall to the node index.
    let weights: [&dyn Fn(&Edge) -> f64; 3] = [
        &|e: &Edge| match edge_bucket(e, 5) {
            0 => 0.0,
            1 => -0.0,
            _ => e.latency_s,
        },
        &|e: &Edge| match edge_bucket(e, 4) {
            0 => 0.0,
            1 => -0.0,
            _ => 1.0,
        },
        &|_: &Edge| -0.0,
    ];
    for case in 0..64 {
        let mut rng = SimRng::substream(0x9E3B, case);
        let g = random_graph(&mut rng);
        let requests = random_requests(&mut rng, g.node_count(), 12);
        for (i, w) in weights.iter().enumerate() {
            check_fresh(
                &g,
                &requests,
                Cost::Plain(*w),
                &format!("case {case} weight {i}"),
            );
        }
    }
}

#[test]
fn infinite_weights_and_isolated_nodes_match_the_reference() {
    // `INFINITY` removes an edge from the search; isolated nodes (the
    // tail beyond each random spine, plus appended ones here) are
    // unreachable sources and destinations that exhaust their trees.
    let filtered = |e: &Edge| {
        if edge_bucket(e, 3) == 0 {
            f64::INFINITY
        } else {
            e.latency_s
        }
    };
    for case in 0..64 {
        let mut rng = SimRng::substream(0x9E3C, case);
        let base = random_graph(&mut rng);
        let n = base.node_count() + 1 + rng.index(4);
        let mut g = Graph::new(n, 0);
        for u in 0..base.node_count() {
            for e in base.edges(u) {
                g.add_edge(u, *e);
            }
        }
        let requests = random_requests(&mut rng, n, 16);
        let what = format!("case {case}");
        check_fresh(&g, &requests, Cost::Plain(&filtered), &what);
        check_fresh(&g, &requests, Cost::Plain(&|_: &Edge| f64::INFINITY), &what);
    }
}
