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
//! edges and isolated nodes, several batches on one planner (whose
//! trees live only for their batch, so every batch must match the
//! reference from scratch), and a batch large enough to grow its trees
//! in parallel. `shortest_path_to_any` is checked against the first
//! strictly cheapest of its destinations' reference paths, ties included.
//!
//! Batches planned with [`GoalBounds`] must return the reference's paths,
//! cost bits and `None`s too, while popping no more nodes than the same
//! batch unbounded: on random graphs under latency bounds (the tightest
//! case, where the search weight is the bound's own), on tie-heavy
//! Walker shells under hop-count bounds, after loads rose and edges were
//! masked under bounds built before, and where no bound applies
//! (unreachable goals, and a greedy walk that dead-ends or loops).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use openspace_net::prelude::*;
use openspace_net::routing::planner::PARALLEL_GRAIN;
use openspace_net::routing::{
    congestion_weight, residual_bps, shortest_path_to_any, GoalBounds, RoutePlanner,
};
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

/// Plan `requests` on `planner` and check every answer and the batch's
/// `routing.nodes_visited` against the reference search. A batch grows
/// one tree per source that pops the reference's sequence, so a request
/// costs `max(0, reference pops to dst − pops its source's tree already
/// made in this batch)`: zero when the destination already settled or
/// the tree ran dry.
fn check_batch(
    planner: &mut RoutePlanner,
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
                planner.plan_mapped(
                    graph,
                    requests,
                    req.weight(PKT_BITS),
                    None,
                    |p| req.admit(p),
                    &mut rec,
                ),
                &qos,
                req.max_latency_s,
            )
        }
    };
    let mut popped: BTreeMap<NodeId, u64> = BTreeMap::new();
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
        let popped = popped.entry(s).or_insert(0);
        want_visited += reference.pops.saturating_sub(*popped);
        *popped = (*popped).max(reference.pops);
    }
    assert_eq!(
        rec.counter("routing.nodes_visited"),
        want_visited,
        "{what}: nodes_visited"
    );
}

/// A fresh planner checked on one batch.
fn check_fresh(graph: &Graph, requests: &[(NodeId, NodeId)], cost: Cost, what: &str) {
    check_batch(&mut RoutePlanner::new(), graph, requests, cost, what);
}

/// Check `shortest_path_to_any(src, dsts)` against the reference: the
/// first destination whose reference path is strictly cheaper than all
/// before it wins, with that path's nodes and cost bits, and the one tree
/// pops what the reference pops for the last destination to settle.
fn check_to_any(
    graph: &Graph,
    src: NodeId,
    dsts: &[NodeId],
    weight: &dyn Fn(&Edge) -> f64,
    what: &str,
) -> Option<usize> {
    let mut want: Option<(usize, Vec<NodeId>, u64)> = None;
    let mut want_visited = 0u64;
    for (i, &d) in dsts.iter().enumerate() {
        let reference = Reference::search(graph, src, Some(d), weight);
        want_visited = want_visited.max(reference.pops);
        if let Some((nodes, bits)) = reference.path(src, d) {
            if want
                .as_ref()
                .is_none_or(|&(_, _, best)| f64::from_bits(bits) < f64::from_bits(best))
            {
                want = Some((i, nodes, bits));
            }
        }
    }
    let mut rec = MemoryRecorder::new();
    let got = shortest_path_to_any(graph, src, dsts, weight, &mut rec);
    let got = got.map(|(i, p)| (i, p.nodes, p.total_cost.to_bits()));
    assert_eq!(got, want, "{what}: {src:?} -> any of {dsts:?}");
    assert_eq!(
        rec.counter("routing.nodes_visited"),
        want_visited,
        "{what}: nodes_visited"
    );
    let trees = u64::from(!dsts.is_empty());
    assert_eq!(rec.counter("routing.planner.trees"), trees, "{what}: trees");
    assert_eq!(rec.counter("routing.recomputes"), dsts.len() as u64);
    want.map(|(i, _, _)| i)
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
    let params = SnapshotParams::default();
    build_snapshot(t_s, &sats, &[], &params, &mut NullRecorder)
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
            let solo = shortest_path(&g, s, d, latency_weight, &mut NullRecorder);
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
            let solo = qos_route(&g, s, d, &req, PKT_BITS, &mut NullRecorder);
            assert_eq!(
                solo.map(|p| (p.nodes, p.total_cost.to_bits())),
                want,
                "{what}: qos_route {s:?}->{d:?}"
            );
        }
    }
}

#[test]
fn repeated_batches_on_one_planner_match_the_reference() {
    // Replan-style usage: the same planner answers several batches over
    // one topology generation, sharing compiled rows but growing every
    // batch's trees afresh; each batch must match the reference and pop
    // exactly what a fresh search would.
    for case in 0..32 {
        let mut rng = SimRng::substream(0x9E39, case);
        let g = random_graph(&mut rng);
        let n = g.node_count();
        let mut planner = RoutePlanner::new();
        for batch in 0..3 {
            let requests = random_requests(&mut rng, n, 8);
            let what = format!("case {case} batch {batch}");
            check_batch(
                &mut planner,
                &g,
                &requests,
                Cost::Plain(&latency_weight),
                &what,
            );
        }
        // After an invalidate the next batches run under a different
        // weight.
        planner.invalidate();
        for batch in 3..5 {
            let requests = random_requests(&mut rng, n, 8);
            let what = format!("case {case} batch {batch}");
            check_batch(&mut planner, &g, &requests, Cost::Plain(&hop_weight), &what);
        }
    }
}

#[test]
fn back_to_back_batches_without_invalidate_are_identical() {
    // Nothing a batch grows outlives it, so planning the same batch again
    // on the same planner, with no invalidate between, repeats every
    // path, cost bit and counter; so does a fresh planner.
    for case in 0..33 {
        let mut rng = SimRng::substream(0x9E3E, case);
        let g = if case < 32 {
            random_graph(&mut rng)
        } else {
            walker_graph(24, 11, 300.0)
        };
        let requests = random_requests(&mut rng, g.node_count(), 24);
        let run = |planner: &mut RoutePlanner| {
            let mut rec = MemoryRecorder::new();
            let paths: Vec<_> = planner
                .plan_recorded(&g, &requests, latency_weight, &mut rec)
                .into_iter()
                .map(|p| p.map(|p| (p.nodes, p.total_cost.to_bits())))
                .collect();
            let counters = [
                "routing.recomputes",
                "routing.nodes_visited",
                "routing.planner.trees",
                "routing.planner.path_extractions",
            ]
            .map(|key| rec.counter(key));
            (paths, counters)
        };
        let mut planner = RoutePlanner::new();
        let first = run(&mut planner);
        assert_eq!(run(&mut planner), first, "case {case}: second batch");
        assert_eq!(run(&mut planner), first, "case {case}: third batch");
        assert_eq!(run(&mut RoutePlanner::new()), first, "case {case}: fresh");
        check_batch(
            &mut planner,
            &g,
            &requests,
            Cost::Plain(&latency_weight),
            &format!("case {case}"),
        );
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
        let what = format!("walker {planes}x{per_plane}");
        check_batch(&mut planner, &g, &requests, Cost::Plain(&hop_weight), &what);
        // A second batch on the same planner, sharing two sources with
        // the first, reads the first batch's rows but grows its own
        // trees.
        let more: Vec<(NodeId, NodeId)> = (0..24)
            .map(|k| (NodeId((k % 6) * n / 6), NodeId(rng.index(n))))
            .collect();
        check_batch(&mut planner, &g, &more, Cost::Plain(&hop_weight), &what);
    }
}

#[test]
fn batch_above_the_parallel_grain_matches_the_reference() {
    // 128 sources on a 648-node shell cross the planner's grain, so the
    // batch compiles its rows up front and grows its trees on worker
    // threads; answers and pop counts must still be the reference's.
    let g = walker_graph(36, 18, 600.0);
    let n = g.node_count();
    let sources = 128;
    assert!(sources * n >= PARALLEL_GRAIN);
    let mut rng = SimRng::substream(0x9E3D, 0);
    let requests: Vec<(NodeId, NodeId)> = (0..2 * sources)
        .map(|k| (NodeId((k % sources) * n / sources), NodeId(rng.index(n))))
        .collect();
    check_fresh(&g, &requests, Cost::Plain(&hop_weight), "above the grain");
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

#[test]
fn shortest_path_to_any_is_the_first_cheapest_reference_path() {
    // Random destination sets, with repeats, the source itself and (past
    // each random spine, plus appended nodes) unreachable destinations;
    // every fourth case also asks for an empty set.
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x9E3F, case);
        let base = random_graph(&mut rng);
        let n = base.node_count() + rng.index(3);
        let mut g = Graph::new(n, 0);
        for u in 0..base.node_count() {
            for e in base.edges(u) {
                g.add_edge(u, *e);
            }
        }
        let src = NodeId(rng.index(n));
        let len = if case % 4 == 0 { 0 } else { 1 + rng.index(8) };
        let mut dsts: Vec<NodeId> = (0..len).map(|_| NodeId(rng.index(n))).collect();
        let what = format!("case {case}");
        check_to_any(&g, src, &dsts, &latency_weight, &what);
        // Every latency is positive, so the source itself, once asked
        // for, is the cheapest destination: its first occurrence wins.
        dsts.insert(rng.index(dsts.len() + 1), src);
        let got = check_to_any(&g, src, &dsts, &latency_weight, &what);
        assert_eq!(got, dsts.iter().position(|&d| d == src), "{what}");
        // Only unreachable destinations: no route.
        let reachable = g.reachable_from(src);
        let cut: Vec<NodeId> = (0..n).map(NodeId).filter(|d| !reachable[d.0]).collect();
        assert_eq!(check_to_any(&g, src, &cut, &latency_weight, &what), None);
    }
}

#[test]
fn shortest_path_to_any_ties_go_to_the_earlier_destination() {
    // Under `hop_weight` on a Walker shell many destinations lie the same
    // number of hops away: whichever of two tied destinations is listed
    // first wins, in either order, behind a farther destination listed
    // before both.
    for (case, &(planes, per_plane, t_s)) in [(12, 8, 0.0), (24, 11, 300.0)].iter().enumerate() {
        let g = walker_graph(planes, per_plane, t_s);
        let n = g.node_count();
        let mut rng = SimRng::substream(0x9E40, case as u64);
        for _ in 0..8 {
            let src = NodeId(rng.index(n));
            let full = Reference::search(&g, src, None, &hop_weight);
            // Two distinct nodes at the same (finite, non-zero) hop count,
            // and one farther node.
            let level = 1.0 + rng.index(3) as f64;
            let tied: Vec<NodeId> = (0..n)
                .map(NodeId)
                .filter(|d| full.dist[d.0] == level)
                .collect();
            let far = (0..n).map(NodeId).find(|d| full.dist[d.0] > level);
            assert!(
                tied.len() >= 2,
                "walker {planes}x{per_plane}: no tie at {level}"
            );
            let (a, b) = (tied[0], tied[tied.len() - 1]);
            let what = format!("walker {planes}x{per_plane} {src:?}");
            for dsts in [[far, Some(a), Some(b)], [far, Some(b), Some(a)]] {
                let dsts: Vec<NodeId> = dsts.into_iter().flatten().collect();
                let first = usize::from(far.is_some());
                assert_eq!(
                    check_to_any(&g, src, &dsts, &hop_weight, &what),
                    Some(first)
                );
            }
        }
    }
}

/// Plan `requests` under `weight` with `bounds` and check every answer
/// against the reference search — path nodes, cost bits and `None`s —
/// and every counter against the same batch unbounded: the bounded batch
/// pops at most as many nodes and grows, asks and extracts exactly as
/// many. Returns the bounded and unbounded `routing.nodes_visited`.
fn check_bounded(
    graph: &Graph,
    requests: &[(NodeId, NodeId)],
    weight: &dyn Fn(&Edge) -> f64,
    bounds: &GoalBounds,
    what: &str,
) -> (u64, u64) {
    let mut rec = MemoryRecorder::new();
    let got =
        RoutePlanner::new().plan_mapped(graph, requests, weight, Some(bounds), Some, &mut rec);
    for (&(s, d), got) in requests.iter().zip(&got) {
        let want = Reference::search(graph, s, Some(d), weight).path(s, d);
        let got = got
            .as_ref()
            .map(|p| (p.nodes.clone(), p.total_cost.to_bits()));
        assert_eq!(got, want, "{what}: bounded answer for {s:?}->{d:?}");
    }
    let mut plain = MemoryRecorder::new();
    RoutePlanner::new().plan_recorded(graph, requests, weight, &mut plain);
    for key in [
        "routing.recomputes",
        "routing.planner.trees",
        "routing.planner.path_extractions",
    ] {
        assert_eq!(rec.counter(key), plain.counter(key), "{what}: {key}");
    }
    let visited = |r: &MemoryRecorder| r.counter("routing.nodes_visited");
    let (bounded, unbounded) = (visited(&rec), visited(&plain));
    assert!(
        bounded <= unbounded,
        "{what}: bounded {bounded} > unbounded {unbounded} nodes visited"
    );
    (bounded, unbounded)
}

/// Requests shaped like adaptive replans: most sources send to one of a
/// few goals (bounded groups, some asking twice), a few to two goals
/// (unbounded groups).
fn goal_requests(rng: &mut SimRng, n: usize, goals: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut requests = Vec::new();
    for _ in 0..1 + rng.index(16) {
        let src = NodeId(rng.index(n));
        let dst = goals[rng.index(goals.len())];
        requests.push((src, dst));
        match rng.index(4) {
            0 => requests.push((src, dst)),
            1 => requests.push((src, goals[rng.index(goals.len())])),
            _ => {}
        }
    }
    requests
}

#[test]
fn bounded_batches_match_the_reference_on_random_graphs() {
    let best_effort = QosRequirement::best_effort();
    let qos = qos_weight(&best_effort);
    let floor = QosRequirement {
        min_bandwidth_bps: 2e8,
        max_latency_s: f64::INFINITY,
    };
    let filtered = qos_weight(&floor);
    let (mut bounded, mut unbounded) = (0, 0);
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x9E41, case);
        let mut g = random_graph(&mut rng);
        let n = g.node_count();
        let goals: Vec<NodeId> = (0..1 + rng.index(3))
            .map(|_| NodeId(rng.index(n)))
            .collect();
        let requests = goal_requests(&mut rng, n, &goals);
        let bounds = GoalBounds::new(&g, goals.iter().copied(), latency_weight);
        let what = |w: &str| format!("case {case} {w}");
        // Under the bounds' own weight, the tightest case; under the
        // congestion weight; and under a bandwidth floor that filters.
        let (b, u) = check_bounded(&g, &requests, &latency_weight, &bounds, &what("latency"));
        (bounded, unbounded) = (bounded + b, unbounded + u);
        check_bounded(&g, &requests, &qos, &bounds, &what("congestion"));
        check_bounded(&g, &requests, &filtered, &bounds, &what("floor"));
        // Loads raised after the bounds were built.
        for u in 0..n {
            for e in g.edges_mut(u) {
                e.load_fraction = e.load_fraction.max(rng.uniform_range(0.0, 0.99));
            }
        }
        check_bounded(&g, &requests, &qos, &bounds, &what("loads raised"));
        // Edges masked after the bounds were built.
        g.retain_edges(|_, e| edge_bucket(e, 4) != 0);
        check_bounded(&g, &requests, &latency_weight, &bounds, &what("masked"));
        check_bounded(&g, &requests, &qos, &bounds, &what("masked, loaded"));
    }
    assert!(
        bounded < unbounded,
        "bounds saved nothing: {bounded} of {unbounded} nodes visited"
    );
}

#[test]
fn bounded_walker_shells_keep_every_tie() {
    // Under hop-count bounds every cost is a small integer, exact in
    // either summation order, so every tie between equal-hop paths
    // reaches the bound test and must pass it: the node tie-break decides
    // each path exactly as unbounded. Latency bounds on the same shells
    // exercise the margin on long paths.
    for (case, &(planes, per_plane, t_s)) in [(12, 8, 0.0), (24, 11, 300.0), (36, 18, 1_234.0)]
        .iter()
        .enumerate()
    {
        let g = walker_graph(planes, per_plane, t_s);
        let n = g.node_count();
        let mut rng = SimRng::substream(0x9E42, case as u64);
        let goals: Vec<NodeId> = (0..6).map(|_| NodeId(rng.index(n))).collect();
        let requests: Vec<(NodeId, NodeId)> = (0..64)
            .map(|k| (NodeId(rng.index(n)), goals[k % goals.len()]))
            .collect();
        let what = format!("walker {planes}x{per_plane}");
        for (name, weight) in [
            ("hop", &hop_weight as &dyn Fn(&Edge) -> f64),
            ("latency", &latency_weight),
        ] {
            let bounds = GoalBounds::new(&g, goals.iter().copied(), weight);
            let (bounded, unbounded) =
                check_bounded(&g, &requests, weight, &bounds, &format!("{what} {name}"));
            assert!(
                bounded < unbounded,
                "{what} {name}: bounded {bounded} of {unbounded} nodes visited"
            );
        }
    }
}

#[test]
fn a_dead_end_loop_or_unreachable_goal_leaves_the_tree_unbounded() {
    // 0 —1 ms→ 1 —1 ms→ 3 and 0 —1.5 ms→ 2 —5 ms→ 3, plus an isolated 4;
    // the bounds are built with `1 → 3` present, then it is masked.
    let arc = |to: usize, latency_s: f64| Edge {
        to: NodeId(to),
        latency_s,
        capacity_bps: 1e6,
        operator: OperatorId(0),
        technology: LinkTech::Rf,
        load_fraction: 0.0,
    };
    for back in [false, true] {
        let mut g = Graph::new(5, 0);
        g.add_edge(0, arc(1, 0.001));
        g.add_edge(1, arc(3, 0.001));
        g.add_edge(0, arc(2, 0.0015));
        g.add_edge(2, arc(3, 0.005));
        if back {
            g.add_edge(1, arc(0, 0.001));
        }
        let goals = [NodeId(3), NodeId(4)];
        let bounds = GoalBounds::new(&g, goals, latency_weight);
        let reqs = [(NodeId(0), NodeId(3))];
        // With `1 → 3` the bound keeps node 2 (1.5 ms out, 5 ms short)
        // out of the tree.
        let (bounded, unbounded) = check_bounded(&g, &reqs, &latency_weight, &bounds, "intact");
        assert!(bounded < unbounded, "{bounded} of {unbounded}");
        // Without it the greedy walk reaches 1 and dead-ends there, or
        // (with `1 → 0`) loops between 0 and 1: no bound, so the tree
        // pops exactly the unbounded search's nodes.
        g.retain_edges(|u, e| (u.0, e.to.0) != (1, 3));
        let what = if back { "loop" } else { "dead end" };
        let (bounded, unbounded) = check_bounded(&g, &reqs, &latency_weight, &bounds, what);
        assert_eq!(bounded, unbounded, "{what}");
        // An unreachable goal, from a connected and an isolated source.
        let lost = [(NodeId(0), NodeId(4)), (NodeId(4), NodeId(3))];
        let (bounded, unbounded) = check_bounded(&g, &lost, &latency_weight, &bounds, "lost");
        assert_eq!(bounded, unbounded, "unreachable");
    }
}
