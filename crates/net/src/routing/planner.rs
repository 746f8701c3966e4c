//! Batched per-source route planning with reusable search state.
//!
//! The replan-heavy workloads of §5(2) — adaptive re-routing every tick,
//! fault re-association, topology refreshes — ask for routes for *many*
//! flows at once, and real traffic concentrates: thousands of flows share
//! a handful of gateway or hotspot sources. Running one from-scratch
//! Dijkstra per flow redoes identical work once per flow. The
//! [`RoutePlanner`] instead:
//!
//! * **groups requests by source** through a per-node index and grows
//!   one settled-predecessor shortest-path tree per distinct source,
//!   answering every destination from that tree;
//! * **keeps a tree only for its batch**: above the shared-buffer grain
//!   the batch grows its sources' trees one after another on a single
//!   recycled buffer set (node marks, `(dist, prev)` labels and the
//!   frontier heap), so a large batch holds `nodes` labels, not
//!   `trees × nodes`; below it a batch's trees hold fewer than
//!   [`SHARED_BUFFER_GRAIN`] labels together. Generation stamps make a
//!   restart O(1) instead of O(nodes);
//! * **shares compiled weight rows** between all the trees of one
//!   generation, across calls until [`RoutePlanner::invalidate`]
//!   declares the edge weights changed (see below).
//! * **prunes a tree toward its one destination** with caller-built
//!   [`GoalBounds`], without changing a path or a cost bit (see below).
//!
//! The one-shot
//! [`shortest_path_to_any`](crate::routing::shortest_path_to_any) is a
//! single-source batch on a fresh planner, and
//! [`shortest_path`](crate::routing::shortest_path) — and so
//! [`qos_route`](crate::routing::qos_route) — is its one-destination
//! anycast, so every shortest-path search in the crate runs this one
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
//! A row is a node's out-edges packed as `(weight, to)` arcs under the
//! current *row generation*'s weight closure, with the arcs weighted
//! `INFINITY` (filtered) dropped. Every tree that settles a node after
//! its row exists reads the packed row instead of the 48-byte `Edge`s
//! and the closure (for the congestion weight, two divisions per edge).
//! A row is compiled the first time any tree of the generation settles
//! its node: the planner calls the weight closure on that node's
//! out-edges in order, relaxing each arc as it packs it, so a row read
//! and a row compiled relax the same arcs in the same order, and a batch
//! pays only for the rows its trees read. The weights are stored as
//! returned and checked on every relaxation, so a NaN or negative weight
//! panics in exactly the searches that reach it.
//!
//! Rows carry a generation stamp like the tree buffers, and a new row
//! generation starts on [`invalidate`](RoutePlanner::invalidate) (the
//! weights changed) and on a node-count change. Rows are the only search
//! state that outlives a batch.
//!
//! # Goal bounds
//!
//! A caller that plans batch after batch toward a few destinations (the
//! packet simulator's adaptive replans send every flow to one of a
//! handful of gateways) can pass [`GoalBounds`]: for each destination
//! `d`, `lb(v)`, a lower bound on the cost from `v` to `d`. They are one
//! Dijkstra tree per destination on the transposed graph under a *lower
//! weight*, one never above the search's weight on any edge, with every
//! cost times `1 − GOAL_MARGIN` (`GOAL_MARGIN = 1e-9`). A group whose
//! requests all name one covered destination grows a *bounded* tree;
//! groups with several destinations stay unbounded.
//!
//! * **Upper bound.** Before the tree starts, a greedy walk from the
//!   source takes, at each node, the arc of least `w + lb(to)`, and sums
//!   the `w`s forward from `+0.0` exactly as the search sums costs. It is
//!   a real walk, so its sum `G` is at least the answer's cost `C`: a
//!   float Dijkstra label is the least float sum over all walks, since
//!   adding a non-negative float is monotone and never decreases.
//!   `ub = G · (1 + GOAL_MARGIN)`. A dead end, more than `n` steps (`n`
//!   the node count), or `G` below the least normal `f64` gives
//!   `ub = +∞`.
//! * **One relax.** An offer that would lower a label is refused when
//!   `next + lb(to) > ub`. With `ub = +∞` nothing is refused, so an
//!   unbounded tree runs the same kernel with a bound that never bites.
//!
//! **The answer is the same bits.** Let `D(v)` be the unbounded search's
//! final label and call `u` a *min-predecessor* of `v` when
//! `fl(D(u) + w(u, v)) = D(v)`. Let `A` be the answer's chain `s … d`,
//! closed under min-predecessors.
//!
//! 1. *Every node of `A` passes the test at its final label.* From
//!    `u ∈ A`, min-predecessor arcs lead forward to the chain and along
//!    it to `d` in at most `2n` float additions, which turn `D(u)` into
//!    `C` exactly. Each rounds down by at most a factor `1 − 2⁻⁵³`, so
//!    `D(u) + W ≤ C / (1 − 2⁻⁵³)²ⁿ`, with `W` the exact sum of that
//!    walk's weights. The walk with its cycles cut is a path from `u` to
//!    `d` in the bounds' graph (a mask only removes edges) whose lower
//!    weights sum to at most `W`, and `lb(u)` is at most that path's
//!    float sum, at most `(1 + 2⁻⁵³)ⁿ` times the exact one. So
//!    `fl(D(u) + lb(u)) ≤ C · (1 + 2⁻⁵³)ⁿ⁺¹ / (1 − 2⁻⁵³)²ⁿ`, while
//!    `ub ≥ C · (1 + GOAL_MARGIN)(1 − 2⁻⁵³)`, and the test passes once
//!    `(3n + 3) · 2⁻⁵³ < GOAL_MARGIN`. Bounds cover graphs of at most
//!    `MAX_GOAL_NODES` (2¹⁹) nodes, where that error stays below
//!    `GOAL_MARGIN / 2`; on the 1,590 nodes of a 1,584-satellite shell it
//!    is 5 · 10⁻¹³, over three orders of magnitude inside the margin.
//!    In exact arithmetic (hop counts) every tie passes with no margin.
//! 2. *A refused offer is strictly worse than the final label.* Refusal
//!    is monotone in `next`, so an offer refused at `v ∈ A` has
//!    `fl(next + lb(v)) > ub ≥ fl(D(v) + lb(v))`, hence `next > D(v)`.
//!    A node outside `A` never offers a node of `A` as little as its
//!    final label either (a bounded label is never below the unbounded
//!    one): if it did, it would be a min-predecessor.
//!
//! So, in the unbounded search's settle order, each node of `A` receives
//! its final label first from the same min-predecessor and settles in the
//! same order relative to the rest of `A`: all its min-predecessors are
//! in `A`, and every other offer it sees is strictly worse. `d` settles
//! with the same label and the same predecessor chain, so the path and
//! its cost bits are the unbounded search's. Nodes outside `A` may settle
//! later, differently or never; that is the saving.
//!
//! **Contract.** Bounds hold for any search graph that is a subgraph of
//! the one they were built on, under any weight at or above theirs on
//! every edge. The packet simulator builds them on its unfaulted snapshot
//! under `latency_weight`: a fault mask only removes edges, and the
//! congestion weight `latency + service / (1 − load)` adds a
//! non-negative term to the latency, which float addition cannot round
//! below the latency. So the bounds outlive every load change (which
//! invalidates the rows) and every fault, but not a new snapshot, which
//! is why they are the caller's, passed to each plan, not planner state.
//!
//! **What moves.** Only `routing.nodes_visited` falls; `recomputes`,
//! `planner.trees` and `planner.path_extractions` are unchanged. On
//! perfbench's `shell_adaptive` (seed 1) a run's trees popped 904,791
//! nodes instead of 16,059,046.
//!
//! # Two buffer modes
//!
//! A batch first groups its requests by source: each distinct source, in
//! first-request order, gets a group, found through a per-node index.
//! Every tree grows on the calling thread. The grain,
//! `groups × graph.node_count() >= `[`SHARED_BUFFER_GRAIN`] (2¹⁶),
//! decides only how many buffer sets the batch holds:
//!
//! * **At or above it** one buffer set serves every group in turn: the
//!   planner starts a tree on it, settles the group's destinations in
//!   request order, extracts each path into the group's answers, and
//!   restarts the same buffers for the next group. Then it hands the
//!   answers to `map` in request order. A buffer set per group would
//!   hold `groups × nodes` labels at once, 256 × 1,590 in the packet
//!   simulator's first plan on a 1,584-satellite shell.
//! * **Below it** each group starts a tree on its own buffer set, and the
//!   planner walks the requests in order, resuming each request's tree
//!   until its destination settles and passing the path to `map` as soon
//!   as it is extracted. The trees are few and small by the grain's
//!   definition, and no path waits in a buffer: `demand_day`'s one batch
//!   maps 41,460 paths from 46 sources on a 72-node graph, and holding
//!   those paths until the map lifted its peak RSS by 0.8–2.8 MiB in each
//!   of the four buffered layouts measured.
//!
//! The output cannot depend on the mode. A tree's pop sequence is a pure
//! function of `(graph, weight, source)` (see above), and a tree grows
//! until the last of its destinations settles in either mode. `map` is
//! called in request order, so a caller that allocates ids as it maps
//! (the packet simulator's link table) allocates them in the same order.
//! The `routing.*` counters are integer sums. So paths, cost bits and
//! every counter are the same in either mode and from one call to the
//! next.
//!
//! # Telemetry
//!
//! Through a [`Recorder`] the planner reports, alongside the established
//! `routing.recomputes` (one per route *request*, preserving the metric's
//! meaning) and `routing.nodes_visited` (heap pops actually performed —
//! now counted once per tree, not once per flow, and fewer in a bounded
//! tree):
//!
//! * `routing.planner.trees` — shortest-path trees grown;
//! * `routing.planner.path_extractions` — paths read out of a tree.

use crate::routing::dijkstra::Path;
use crate::topology::{Edge, Graph, NodeId};
use openspace_telemetry::{NullRecorder, Recorder};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shared-buffer grain: a batch whose `trees × graph.node_count()`
/// reaches this grows its trees one after another on one buffer set and
/// maps their paths afterwards; below it each tree keeps its own buffer
/// set and each path is mapped as it is found (see the [module
/// docs](self)).
pub const SHARED_BUFFER_GRAIN: usize = 1 << 16;

/// Relative margin of a goal bound: lower bounds shrink by it and upper
/// bounds grow by it. Orders of magnitude above the fp error of any path
/// of at most [`MAX_GOAL_NODES`] hops (see the [module docs](self)).
const GOAL_MARGIN: f64 = 1e-9;

/// Largest graph [`GoalBounds`] cover: `(3n + 3) · 2⁻⁵³`, the relative
/// error the margin must absorb, stays below `GOAL_MARGIN / 2`.
const MAX_GOAL_NODES: usize = 1 << 19;

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

    /// Compile `node`'s row: the weight closure runs on its out-edges in
    /// edge order, and every arc it does not filter is kept and passed to
    /// `each`.
    #[inline(always)]
    fn compile(
        &mut self,
        graph: &Graph,
        weight: &impl Fn(&Edge) -> f64,
        node: NodeId,
        mut each: impl FnMut(f64, NodeId),
    ) {
        let start = self.open(graph);
        for e in graph.edges(node) {
            let w = weight(e);
            if w != f64::INFINITY {
                self.arcs.push((w, e.to));
                each(w, e.to);
            }
        }
        self.seal(node, start);
    }

    /// Compile `node`'s row unless this generation already has.
    fn ensure(&mut self, graph: &Graph, weight: &impl Fn(&Edge) -> f64, node: NodeId) {
        if self.get(node).is_none() {
            self.compile(graph, weight, node, |_, _| {});
        }
    }

    /// Run (or resume) `tree` until `dst` settles, relaxing each settled
    /// node's row under `goal`; a row this generation lacks is compiled
    /// as it is relaxed. Returns the heap pops.
    fn settle(
        &mut self,
        graph: &Graph,
        weight: &impl Fn(&Edge) -> f64,
        tree: &mut Tree,
        dst: NodeId,
        goal: Goal,
    ) -> u64 {
        tree.settle(dst, |tree, cost, node| {
            if let Some(row) = self.get(node) {
                for &(w, to) in row {
                    tree.relax(cost, w, node, to, goal);
                }
            } else {
                self.compile(graph, weight, node, |w, to| {
                    tree.relax(cost, w, node, to, goal)
                });
            }
        })
    }

    /// The upper half of a goal bound from `src` to `dst`: walk from
    /// `src`, each step along the arc of least `w + lb[to]`, and sum the
    /// walk's weights forward from `+0.0` as the search does, compiling
    /// the rows it reads. The sum is a real walk's cost, so at least the
    /// cheapest path's; it returns that sum times `1 + GOAL_MARGIN`, or
    /// `+∞` (no bound) on a dead end, a walk longer than the node count,
    /// or a sum below the least normal `f64` (see the [module
    /// docs](self)).
    fn upper_bound(
        &mut self,
        graph: &Graph,
        weight: &impl Fn(&Edge) -> f64,
        (src, dst): (NodeId, NodeId),
        lb: &[f64],
    ) -> f64 {
        let (mut node, mut cost) = (src, 0.0);
        for _ in 0..graph.node_count() {
            if node == dst {
                break;
            }
            self.ensure(graph, weight, node);
            let mut best = (f64::INFINITY, 0.0, node);
            for &(w, to) in self.get(node).expect("row compiled above") {
                // A negative or NaN weight is the search's to panic on,
                // never the walk's to take.
                let estimate = w + lb[to.0];
                if w >= 0.0 && estimate < best.0 {
                    best = (estimate, w, to);
                }
            }
            if best.0 == f64::INFINITY {
                return f64::INFINITY;
            }
            cost += best.1;
            node = best.2;
        }
        if node == dst && cost >= f64::MIN_POSITIVE {
            cost * (1.0 + GOAL_MARGIN)
        } else {
            f64::INFINITY
        }
    }
}

/// One tree's goal bound: an offer of cost `next` to node `to` is
/// refused when `next + lb[to] > ub` (see the [module docs](self)).
#[derive(Clone, Copy)]
struct Goal<'b> {
    /// Lower bounds on the cost from each node to the goal.
    lb: &'b [f64],
    /// Upper bound on the cost of the answer, `+∞` for none.
    ub: f64,
}

impl Goal<'_> {
    /// No bound: every offer passes, and `lb` is never read.
    const NONE: Goal<'static> = Goal {
        lb: &[],
        ub: f64::INFINITY,
    };

    /// Whether an offer of cost `next` to `to` can still lie on a path
    /// to the goal that costs at most `ub`.
    #[inline(always)]
    fn admits(self, next: f64, to: NodeId) -> bool {
        self.ub == f64::INFINITY || next + self.lb[to.0] <= self.ub
    }
}

/// One buffer set for shortest-path trees: a tree from one source at a
/// time, pausable and resumable — the heap keeps its frontier, so a later
/// destination of the same source continues the search instead of
/// restarting it — then restarted in O(1) for the next source.
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

    /// Start a new tree from `src` over `n` nodes on these buffers.
    fn restart(&mut self, n: usize, src: NodeId) {
        self.src = src;
        self.heap.clear();
        self.exhausted = false;
        // Generation bump invalidates every mark in O(1); on wrap (or a
        // resize) fall back to a hard clear so stale marks can't alias.
        if self.gen >= u32::MAX - 3 || self.mark.len() != n {
            self.gen = 2;
            self.mark.clear();
            self.mark.resize(n, 0);
            self.label.resize(n, (f64::INFINITY, NodeId(0)));
            self.heap.reserve(n);
        } else {
            self.gen += 2;
        }
        self.touch(src, 0.0, src);
        self.heap.push(Reverse(frontier_key(0.0, src)));
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

    /// Offer `to` the cost `cost + w` through `node`, unless `goal`
    /// refuses it. The weight check runs here, on every relaxation, so an
    /// edge no search reaches never panics.
    #[inline(always)]
    fn relax(&mut self, cost: f64, w: f64, node: NodeId, to: NodeId, goal: Goal) {
        assert!(w >= 0.0 && !w.is_nan(), "edge weight must be non-negative");
        let next = cost + w;
        if next < self.dist_of(to) && goal.admits(next, to) {
            self.touch(to, next, node);
            self.heap.push(Reverse(frontier_key(next, to)));
        }
    }

    /// Run (or resume) the search until `dst` settles or the frontier is
    /// exhausted, relaxing each settled node's out-arcs through
    /// `relax_out` (which compiles the node's row if it must). Returns
    /// the number of heap pops performed now — the same work metric the
    /// per-flow search reports.
    fn settle(&mut self, dst: NodeId, mut relax_out: impl FnMut(&mut Tree, f64, NodeId)) -> u64 {
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
            relax_out(self, cost, node);
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

/// The requests of a batch above the grain that share a source: one tree
/// answers them all before any is mapped.
struct Group<'b> {
    src: NodeId,
    /// The tree's goal bound ([`Goal::NONE`] when unbounded).
    goal: Goal<'b>,
    /// Destinations, in request order.
    dsts: Vec<NodeId>,
    /// Answers, in request order.
    paths: Vec<Option<Path>>,
    /// Answers handed out so far.
    taken: usize,
}

impl Group<'_> {
    /// Grow a tree from `src` on `tree`'s buffers until each destination
    /// settles, in request order, and extract each path. Returns the heap
    /// pops.
    fn answer(
        &mut self,
        tree: &mut Tree,
        rows: &mut Rows,
        graph: &Graph,
        weight: &impl Fn(&Edge) -> f64,
    ) -> u64 {
        tree.restart(graph.node_count(), self.src);
        let goal = self.goal;
        let mut visited = 0u64;
        self.paths.reserve_exact(self.dsts.len());
        for &dst in &self.dsts {
            visited += rows.settle(graph, weight, tree, dst, goal);
            self.paths.push(tree.extract(dst));
        }
        visited
    }

    /// The next answer, in request order.
    fn take(&mut self) -> Option<Path> {
        self.taken += 1;
        self.paths[self.taken - 1].take()
    }
}

/// Lower bounds on the cost still to go toward each of a set of
/// destinations, for bounding a batch's trees (see the [module
/// docs](self)): built once by the caller, passed to
/// [`RoutePlanner::plan_mapped`], and valid for as long as the weights
/// the batches search under stay at or above the weight the bounds were
/// built under, on a subgraph of the graph they were built on.
pub struct GoalBounds {
    /// Node count of the graph the bounds were built on.
    n: usize,
    /// The destinations, ascending and distinct; destination `i`'s
    /// bounds are `lb[i * n..(i + 1) * n]`.
    dsts: Vec<NodeId>,
    lb: Vec<f64>,
}

impl GoalBounds {
    /// Bounds toward every node in `dsts` on `graph` under `weight`: one
    /// tree per distinct destination on the transposed graph, its costs
    /// scaled by `1 − GOAL_MARGIN`. An arc `weight` filters
    /// (`f64::INFINITY`) is absent, as in a search. On a graph too large
    /// for the margin the bounds cover no destination.
    ///
    /// # Panics
    /// Panics on an out-of-range destination or a negative/NaN weight.
    pub fn new(
        graph: &Graph,
        dsts: impl IntoIterator<Item = NodeId>,
        weight: impl Fn(&Edge) -> f64,
    ) -> GoalBounds {
        let n = graph.node_count();
        let mut dsts: Vec<NodeId> = dsts.into_iter().collect();
        assert!(dsts.iter().all(|d| d.0 < n), "dst out of range");
        dsts.sort_unstable();
        dsts.dedup();
        if n > MAX_GOAL_NODES {
            dsts.clear();
        }
        // In-rows: arc `u → v` packed in `v`'s row as `(weight, u)`,
        // `v`'s row at `arcs[start[v]..start[v + 1]]`.
        let mut start = vec![0usize; n + 1];
        for u in 0..n {
            for e in graph.edges(u) {
                start[e.to.0 + 1] += 1;
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut arcs = vec![(0.0, NodeId(0)); start[n]];
        for u in 0..n {
            for e in graph.edges(u) {
                arcs[fill[e.to.0]] = (weight(e), NodeId(u));
                fill[e.to.0] += 1;
            }
        }
        let mut tree = Tree::empty();
        let mut lb = Vec::with_capacity(dsts.len() * n);
        for &d in &dsts {
            tree.restart(n, d);
            // Settling every node in turn grows the whole tree.
            for v in (0..n).map(NodeId) {
                tree.settle(v, |tree, cost, node| {
                    for &(w, from) in &arcs[start[node.0]..start[node.0 + 1]] {
                        if w != f64::INFINITY {
                            tree.relax(cost, w, node, from, Goal::NONE);
                        }
                    }
                });
            }
            lb.extend((0..n).map(|v| tree.dist_of(NodeId(v)) * (1.0 - GOAL_MARGIN)));
        }
        GoalBounds { n, dsts, lb }
    }

    /// The bounds toward `dst` on an `n`-node graph, if built.
    fn toward(&self, dst: NodeId, n: usize) -> Option<&[f64]> {
        let i = self.dsts.binary_search(&dst).ok().filter(|_| n == self.n)?;
        Some(&self.lb[i * n..(i + 1) * n])
    }
}

/// Batched per-source shortest-path planner (see the [module
/// docs](self) for the equivalence argument and telemetry keys).
///
/// # Weight contract
///
/// A batch's trees live only for the batch; what the planner keeps
/// between calls is its last batch's buffer sets and the compiled weight
/// rows. Rows are valid for one *row generation*: after
/// any change to the graph's structure **or** to anything an edge-weight
/// function reads (e.g. `load_fraction` before QoS routing), call
/// [`invalidate`](Self::invalidate) before planning again. Planning with
/// a different weight function likewise requires an `invalidate` in
/// between — the planner cannot see inside the closure, and a tree would
/// read rows compiled under the old weight. [`GoalBounds`] are the
/// caller's and follow their own contract: a load change that
/// invalidates the rows can leave the bounds valid.
pub struct RoutePlanner {
    /// The last batch's tree buffers, kept for the next: one above the
    /// grain, one per source below it.
    trees: Vec<Tree>,
    /// Out-rows compiled for the current generation, shared by its trees.
    rows: Rows,
    /// Node count the rows were compiled for.
    n: usize,
}

impl Default for RoutePlanner {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutePlanner {
    /// A planner with no compiled rows.
    pub fn new() -> Self {
        Self {
            trees: Vec::new(),
            rows: Rows::new(),
            n: 0,
        }
    }

    /// Start a new row generation: every compiled weight row goes stale
    /// (buffers are retained for reuse). Call whenever the topology or
    /// the edge weights change.
    pub fn invalidate(&mut self) {
        self.rows.reset(self.n);
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
        self.plan_mapped(graph, requests, weight, None, Some, rec)
    }

    /// [`plan_recorded`](Self::plan_recorded) with goal bounds and a
    /// caller-supplied map: each found [`Path`] is passed to `map`, in
    /// request order, and the mapped value is returned in its place.
    ///
    /// With `bounds`, every group of requests that shares one source and
    /// one destination the bounds cover grows a bounded tree (see the
    /// [module docs](self)); answers are the same bits either way, and
    /// only `routing.nodes_visited` falls. The bounds must hold for
    /// `graph` under `weight` (see [`GoalBounds`]).
    ///
    /// The map lets a caller compile paths straight into its own route
    /// representation (e.g. the packet simulator's link-index form,
    /// whose ids are allocated in the order `map` sees the paths)
    /// without keeping an intermediate `Vec<Path>`. `map` returning
    /// `None` demotes the request to unroutable (e.g.
    /// [`QosRequirement::admit`](crate::routing::QosRequirement::admit)
    /// for a QoS latency bound); the `routing.planner.path_extractions`
    /// counter still counts the raw extraction, so telemetry is
    /// identical whether or not a map filters.
    pub fn plan_mapped<T>(
        &mut self,
        graph: &Graph,
        requests: &[(NodeId, NodeId)],
        weight: impl Fn(&Edge) -> f64,
        bounds: Option<&GoalBounds>,
        mut map: impl FnMut(Path) -> Option<T>,
        rec: &mut dyn Recorder,
    ) -> Vec<Option<T>> {
        let n = graph.node_count();
        if n != self.n {
            // A different-sized graph can only mean a new topology.
            self.n = n;
            self.invalidate();
        }
        // Group: each distinct source, in first-request order, with its
        // one destination (`None` once it has two), and a per-node index
        // to its group.
        let mut group_of = vec![usize::MAX; n];
        let mut sources: Vec<(NodeId, Option<NodeId>)> = Vec::new();
        for &(src, dst) in requests {
            assert!(src.0 < n, "src out of range");
            assert!(dst.0 < n, "dst out of range");
            if group_of[src.0] == usize::MAX {
                group_of[src.0] = sources.len();
                sources.push((src, Some(dst)));
            } else {
                let one = &mut sources[group_of[src.0]].1;
                if *one != Some(dst) {
                    *one = None;
                }
            }
        }
        let shared = sources.len() * n >= SHARED_BUFFER_GRAIN;
        let rows = &mut self.rows;
        let goals: Vec<Goal> = sources
            .iter()
            .map(|&(src, one)| {
                let lb = one
                    .zip(bounds)
                    .and_then(|(dst, b)| Some((dst, b.toward(dst, n)?)));
                lb.map_or(Goal::NONE, |(dst, lb)| Goal {
                    lb,
                    ub: rows.upper_bound(graph, &weight, (src, dst), lb),
                })
            })
            .collect();
        let mut groups = Vec::new();
        let mut visited = 0u64;
        if shared {
            // Answer every group on one buffer set before mapping any.
            groups = sources
                .iter()
                .zip(&goals)
                .map(|(&(src, _), &goal)| Group {
                    src,
                    goal,
                    dsts: Vec::new(),
                    paths: Vec::new(),
                    taken: 0,
                })
                .collect();
            for &(src, dst) in requests {
                groups[group_of[src.0]].dsts.push(dst);
            }
            self.trees.resize_with(1, Tree::empty);
            let tree = &mut self.trees[0];
            for group in &mut groups {
                visited += group.answer(tree, rows, graph, &weight);
            }
        } else {
            // Below the grain the groups' trees hold fewer than
            // `SHARED_BUFFER_GRAIN` labels together: each keeps its own
            // buffers for the batch, so no path waits to be mapped.
            self.trees.resize_with(sources.len(), Tree::empty);
            for (tree, &(src, _)) in self.trees.iter_mut().zip(&sources) {
                tree.restart(n, src);
            }
        }
        // Map, in request order; below the grain each answer is grown and
        // extracted here.
        let trees = &mut self.trees;
        let mut extractions = 0u64;
        let paths: Vec<Option<T>> = requests
            .iter()
            .map(|&(src, dst)| {
                let g = group_of[src.0];
                let path = if shared {
                    groups[g].take()
                } else {
                    let (tree, goal) = (&mut trees[g], goals[g]);
                    visited += rows.settle(graph, &weight, tree, dst, goal);
                    tree.extract(dst)
                };
                extractions += u64::from(path.is_some());
                path.and_then(&mut map)
            })
            .collect();
        // `routing.recomputes` keeps its historical meaning — one per
        // route request — so dashboards and tests stay comparable; the
        // planner's win shows up in `routing.nodes_visited` shrinking.
        rec.add("routing.recomputes", requests.len() as u64);
        rec.add("routing.nodes_visited", visited);
        rec.add("routing.planner.trees", sources.len() as u64);
        rec.add("routing.planner.path_extractions", extractions);
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{hop_weight, latency_weight, qos_route, shortest_path, QosRequirement};
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
            let solo = shortest_path(&g, req.0, req.1, latency_weight, &mut NullRecorder);
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
        // The tree lives only for its batch: a second batch grows it again.
        planner.plan_recorded(&g, &reqs, latency_weight, &mut rec);
        assert_eq!(rec.counter("routing.planner.trees"), 2);
        assert_eq!(planner.trees.len(), 1, "one buffer set, recycled");
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
            .plan(&g, &[(NodeId(1), NodeId(1))], latency_weight)
            .pop()
            .flatten()
            .unwrap();
        assert_eq!(p.nodes, vec![NodeId(1)]);
        assert_eq!(p.total_cost, 0.0);
    }

    #[test]
    fn rows_outlive_calls_until_invalidate() {
        let g = diamond();
        let req = [(NodeId(0), NodeId(2))];
        let mut planner = RoutePlanner::new();
        let first = |out: Vec<Option<Path>>| out.into_iter().next().flatten().unwrap();
        let via_1 = first(planner.plan(&g, &req, latency_weight));
        assert_eq!(via_1.nodes, [0, 1, 2].map(NodeId));
        // Without an invalidate the next call reads the rows compiled
        // under the latency weight, whatever closure it passes: the
        // reason a weight change must invalidate.
        assert_eq!(first(planner.plan(&g, &req, hop_weight)), via_1);
        planner.invalidate();
        let direct = first(planner.plan(&g, &req, hop_weight));
        assert_eq!(direct.nodes, [0, 2].map(NodeId));
        assert_eq!(direct.total_cost, 1.0);
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
        let batched = planner.plan_mapped(
            &g,
            &[(NodeId(0), NodeId(2))],
            req.weight(12_000.0),
            None,
            |p| req.admit(p),
            &mut NullRecorder,
        );
        let solo = qos_route(&g, 0, 2, &req, 12_000.0, &mut NullRecorder).unwrap();
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
        let out = planner.plan_mapped(
            &g,
            &[(NodeId(0), NodeId(2))],
            req.weight(12_000.0),
            None,
            |p| req.admit(p),
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

    /// A 36×18 Walker-Delta shell's ISL snapshot plus one isolated node
    /// (the last), so some destinations are unreachable.
    fn walker_shell_with_island() -> Graph {
        use crate::isl::{build_snapshot, SatNode, SnapshotParams};
        use openspace_orbit::propagator::{PerturbationModel, Propagator};
        use openspace_orbit::walker::{walker_delta, WalkerParams};
        let sats: Vec<SatNode> = walker_delta(&WalkerParams {
            total_satellites: 36 * 18,
            planes: 36,
            phasing: 1,
            altitude_m: 550e3,
            inclination_deg: 53.0,
        })
        .unwrap()
        .into_iter()
        .map(|el| SatNode {
            propagator: Propagator::new(el, PerturbationModel::TwoBody),
            operator: 0,
            has_optical: true,
        })
        .collect();
        let shell = build_snapshot(
            0.0,
            &sats,
            &[],
            &SnapshotParams::default(),
            &mut NullRecorder,
        );
        let mut g = Graph::new(shell.node_count() + 1, 0);
        for u in 0..shell.node_count() {
            for e in shell.edges(u) {
                g.add_edge(u, *e);
            }
        }
        g
    }

    #[test]
    fn one_batch_above_the_grain_matches_sub_grain_batches() {
        let g = walker_shell_with_island();
        let n = g.node_count();
        let island = NodeId(n - 1);
        let goals: Vec<NodeId> = (0..6)
            .map(|k| NodeId(k * 101 + 7))
            .chain([island])
            .collect();
        let bounds = GoalBounds::new(&g, goals.iter().copied(), latency_weight);
        // Sixteen runs of sixteen sources, each run's requests together:
        // sources `5k` ask for three destinations each (every fourth
        // third one the island) and grow unbounded trees, sources
        // `5k + 2` ask for one goal each and grow bounded ones.
        let per_run = 8;
        let runs: Vec<Vec<(NodeId, NodeId)>> = (0..16)
            .map(|r| {
                let ks = r * per_run..(r + 1) * per_run;
                let mut run = Vec::new();
                for round in 0..3 {
                    for k in ks.clone() {
                        let dst = match round {
                            0 => NodeId((k * 37) % (n - 1)),
                            1 => NodeId((k * 101 + 13) % (n - 1)),
                            _ if k % 4 == 0 => island,
                            _ => NodeId((k * 11 + 3) % (n - 1)),
                        };
                        run.push((NodeId(k * 5), dst));
                    }
                }
                run.extend(ks.map(|k| (NodeId(k * 5 + 2), goals[k % goals.len()])));
                run
            })
            .collect();
        let batch = runs.concat();
        assert!(2 * per_run * n < SHARED_BUFFER_GRAIN);
        assert!(runs.len() * 2 * per_run * n >= SHARED_BUFFER_GRAIN);
        let plan = |batches: &[Vec<(NodeId, NodeId)>]| {
            let mut planner = RoutePlanner::new();
            let mut rec = MemoryRecorder::new();
            let mut paths = Vec::new();
            for batch in batches {
                paths.extend(
                    planner
                        .plan_mapped(&g, batch, latency_weight, Some(&bounds), Some, &mut rec)
                        .into_iter()
                        .map(|p| p.map(|p| (p.nodes, p.total_cost.to_bits()))),
                );
            }
            let counters = [
                "routing.recomputes",
                "routing.nodes_visited",
                "routing.planner.trees",
                "routing.planner.path_extractions",
            ]
            .map(|key| rec.counter(key));
            (paths, counters)
        };
        let (paths, counters) = plan(std::slice::from_ref(&batch));
        let (sub_paths, sub_counters) = plan(&runs);
        assert_eq!(sub_paths, paths, "paths and cost bits");
        assert_eq!(sub_counters, counters, "routing counters");
        assert!(
            paths.iter().any(Option::is_none),
            "the island is unreachable"
        );
        // And every answer is the one-shot search's.
        for (&(s, d), got) in batch.iter().zip(&paths) {
            let solo = shortest_path(&g, s, d, latency_weight, &mut NullRecorder);
            assert_eq!(
                solo.map(|p| (p.nodes, p.total_cost.to_bits())).as_ref(),
                got.as_ref()
            );
        }
    }

    #[test]
    fn one_buffer_set_above_the_grain_one_per_source_below_it() {
        let g = walker_shell_with_island();
        let n = g.node_count();
        let sources = 128;
        let reqs: Vec<(NodeId, NodeId)> = (0..2 * sources)
            .map(|k| (NodeId((k % sources) * 5), NodeId((k * 37) % (n - 1))))
            .collect();
        assert!(sources * n >= SHARED_BUFFER_GRAIN && 4 * n < SHARED_BUFFER_GRAIN);
        let mut planner = RoutePlanner::new();
        for (batch, sets) in [(&reqs[..], 1), (&reqs[..4], 4), (&reqs[..], 1)] {
            planner.plan(&g, batch, latency_weight);
            assert_eq!(planner.trees.len(), sets, "{} requests", batch.len());
        }
    }

    #[test]
    fn a_bounded_batch_above_the_grain_weighs_only_the_rows_it_reads() {
        let g = walker_shell_with_island();
        let goals = [NodeId(7), NodeId(100)];
        let bounds = GoalBounds::new(&g, goals, latency_weight);
        // The first 128 satellites, each bound for one of two goals
        // among them.
        let reqs: Vec<(NodeId, NodeId)> = (0..128).map(|k| (NodeId(k), goals[k % 2])).collect();
        assert!(reqs.len() * g.node_count() >= SHARED_BUFFER_GRAIN);
        let weighed = std::cell::Cell::new(0);
        let weight = |e: &Edge| {
            weighed.set(weighed.get() + 1);
            latency_weight(e)
        };
        let out = RoutePlanner::new().plan_mapped(
            &g,
            &reqs,
            weight,
            Some(&bounds),
            Some,
            &mut NullRecorder,
        );
        assert!(out.iter().all(Option::is_some));
        assert!(
            weighed.get() < g.edge_count(),
            "{} of {} edges weighed",
            weighed.get(),
            g.edge_count()
        );
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
            shortest_path(&g, s, d, latency_weight, &mut rec);
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
