//! Packet-level network simulation over a constellation snapshot.
//!
//! §5(2): "Can we design new routing protocols that factor in the more
//! unpredictable components of user traffic, which cannot be accounted
//! for by proactive routing protocols computed based on known satellite
//! trajectories?" Answering that requires more than the analytic
//! queueing estimate in `openspace-net` — it needs packets in queues.
//!
//! This module runs a store-and-forward discrete-event simulation on a
//! topology snapshot: every directed link has a byte-bounded
//! [`DropTailQueue`] and a serialization rate; every flow injects
//! packets under its [`Arrivals`] process (CBR, Poisson or on/off — the
//! sim crate's one traffic model, re-exported here as [`TrafficKind`]);
//! the router is either **proactive** (routes fixed from the known
//! topology, load-blind — §2.2's beginner system) or **adaptive**
//! (periodically re-planned against measured link utilization — the
//! end-to-end approach the paper calls for). Deterministic under a seed.
//!
//! All capabilities compose through one driver, [`NetSim`]: a validated
//! [`NetSimConfig`], an optional fault plan ([`NetSim::with_faults`] —
//! packets queued on or in flight toward failed elements are lost,
//! surviving flows re-route, and the report's [`FaultImpact`] section
//! accounts for availability, repair time, and flow re-association),
//! and one topology source — a static snapshot
//! ([`NetSim::with_snapshot`]), an on-demand
//! [`TopologyProvider`] ([`NetSim::with_provider`]), or a precomputed
//! [`TopologyTimeline`] ([`NetSim::with_timeline`]). Faults compose with
//! every source.
//!
//! The engine is one `SimState` — flows, link table, packet slab,
//! planner and accounting — with one handler per event kind (`inject`,
//! `demand_tick`, `depart`, `hop_arrive`, `replan`, `resnapshot`,
//! `fault`) and a `finish` that builds the report; the event loop only
//! dispatches.
//!
//! The topology source only decides where the next graph comes from.
//! A timeline run clones the snapshot the timeline stored for the tick,
//! bitwise what a fresh provider call returns (the timeline stores
//! fresh builds). Every resnapshot then syncs the link table to the new
//! graph, invalidates the route planner and replans, so a timeline
//! run's [`NetSimReport`] is bit-for-bit the provider run's, pinned by
//! `tests/tests/netsim_delta_equivalence.rs`. There is no incremental
//! link patch or planner-tree retention: a moving shell changes every
//! adjacency row at every tick, and on perfbench's `shell_motion` both
//! together measured slower than this full sync (0.410 s against
//! 0.359 s median `run_s`, 2-core host).
//!
//! A fault is a mask, not a graph edit. The run keeps the current
//! snapshot whole (with the loads replans write into it), the set of
//! down nodes and the set of down links; after every fault event and
//! every resnapshot the graph routes are planned on is rebuilt as that
//! snapshot minus every edge touching a down node or link, and the link
//! table is synced to it. So a failed satellite stays failed when the
//! next snapshot arrives, and a restored link returns with the load it
//! had when it failed (a dead link takes no load samples). Whether a
//! packet dropped at a dead link was lost to a fault is read from the
//! mask at that moment.
//!
//! Absolute reports are pinned by `tests/tests/netsim_golden.rs`.

use openspace_net::routing::{latency_weight, Path, QosRequirement, RoutePlanner};
use openspace_net::timeline::{TopologyProvider, TopologyTimeline};
use openspace_net::topology::{Graph, NodeId};
use openspace_sim::config::{require_index, require_non_negative, require_positive, ConfigError};
use openspace_sim::engine::EventQueue;
use openspace_sim::fault::{TopologyEvent, TopologyEventKind};
use openspace_sim::queue::DropTailQueue;
use openspace_sim::rng::SimRng;
use openspace_sim::stats::Summary;
use openspace_sim::traffic::Arrivals;
use openspace_telemetry::{NullRecorder, Recorder, SpanTimer};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::rc::Rc;

pub use openspace_sim::traffic::TrafficKind;

/// One simulated flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Injection node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Offered rate (bit/s).
    pub rate_bps: f64,
    /// Packet size (bytes).
    pub packet_bytes: u32,
    /// Arrival process.
    pub kind: TrafficKind,
}

impl FlowSpec {
    /// A flow between two nodes (any `usize`/`NodeId` mix).
    pub fn new(
        src: impl Into<NodeId>,
        dst: impl Into<NodeId>,
        rate_bps: f64,
        packet_bytes: u32,
        kind: TrafficKind,
    ) -> Self {
        Self {
            src: src.into(),
            dst: dst.into(),
            rate_bps,
            packet_bytes,
            kind,
        }
    }
}

/// A time-varying workload: batches of flows activated at demand-tick
/// boundaries. Each entry is `(t_s, flows)` — at `t_s` the previous
/// batch retires (its flows stop injecting; packets already in flight
/// still drain) and the new batch activates with fresh arrival phases.
/// Tick times must be finite, non-negative and strictly increasing.
/// Build one from demand-model output (one batch per `DemandTick`) and
/// attach it with [`NetSim::with_demand`].
#[derive(Debug, Clone, Default)]
pub struct DemandWorkload {
    ticks: Vec<(f64, Vec<FlowSpec>)>,
}

impl DemandWorkload {
    /// Validate and wrap tick batches.
    pub fn new(ticks: Vec<(f64, Vec<FlowSpec>)>) -> Result<Self, ConfigError> {
        for (t, _) in &ticks {
            require_non_negative("demand.tick_s", *t)?;
        }
        for w in ticks.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(ConfigError::InvertedInterval {
                    field: "demand.ticks",
                    start: w[0].0,
                    end: w[1].0,
                });
            }
        }
        Ok(Self { ticks })
    }

    /// The tick batches, time-ascending.
    pub fn ticks(&self) -> &[(f64, Vec<FlowSpec>)] {
        &self.ticks
    }

    /// Total flows across all batches.
    pub fn flow_count(&self) -> usize {
        self.ticks.iter().map(|(_, f)| f.len()).sum()
    }

    /// Whether the workload carries no flows at all.
    pub fn is_empty(&self) -> bool {
        self.flow_count() == 0
    }
}

/// Routing discipline under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingMode {
    /// Routes computed once from propagation latency and never changed —
    /// the proactive protocol of §2.2.
    Proactive,
    /// Routes re-planned every `replan_interval_s` against measured link
    /// utilization (EWMA), using the congestion-aware cost.
    Adaptive {
        /// Re-planning period (s).
        replan_interval_s: f64,
    },
}

/// Simulation configuration. Build one with [`NetSimConfig::builder`]
/// or with [`Default`] and struct update; either way a run checks it
/// with [`NetSimConfig::validate`].
#[derive(Debug, Clone, Copy)]
pub struct NetSimConfig {
    /// Simulated duration (s).
    pub duration_s: f64,
    /// Per-link queue capacity (bytes).
    pub queue_capacity_bytes: u64,
    /// Routing discipline.
    pub routing: RoutingMode,
    /// Seed for all arrival processes.
    pub seed: u64,
}

impl Default for NetSimConfig {
    fn default() -> Self {
        Self {
            duration_s: 30.0,
            queue_capacity_bytes: 256 * 1024,
            routing: RoutingMode::Proactive,
            seed: 1,
        }
    }
}

impl NetSimConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> NetSimConfigBuilder {
        NetSimConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Check the config: a positive duration, a non-zero queue
    /// capacity, and a positive replan interval in adaptive mode. Both
    /// [`NetSimConfigBuilder::build`] and [`NetSim::run`] apply it, so a
    /// struct-literal config is held to the same rules.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_positive("duration_s", self.duration_s)?;
        if self.queue_capacity_bytes == 0 {
            return Err(ConfigError::NonPositive {
                field: "queue_capacity_bytes",
                value: 0.0,
            });
        }
        if let RoutingMode::Adaptive { replan_interval_s } = self.routing {
            require_positive("replan_interval_s", replan_interval_s)?;
        }
        Ok(())
    }
}

/// Validating builder for [`NetSimConfig`].
#[derive(Debug, Clone)]
pub struct NetSimConfigBuilder {
    cfg: NetSimConfig,
}

impl NetSimConfigBuilder {
    /// Simulated duration (s).
    pub fn duration_s(mut self, v: f64) -> Self {
        self.cfg.duration_s = v;
        self
    }

    /// Per-link queue capacity (bytes).
    pub fn queue_capacity_bytes(mut self, v: u64) -> Self {
        self.cfg.queue_capacity_bytes = v;
        self
    }

    /// Routing discipline.
    pub fn routing(mut self, v: RoutingMode) -> Self {
        self.cfg.routing = v;
        self
    }

    /// Arrival-process seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<NetSimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Fault accounting appended to [`NetSimReport`] by a [`NetSim`] run
/// with a fault plan ([`NetSim::with_faults`]). A fault-free run
/// carries the default value (full availability, nothing lost), so
/// reports stay comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultImpact {
    /// Topology events applied during the run.
    pub events_applied: u64,
    /// Packets lost to faults specifically: queued on a failed link,
    /// in flight toward a dead node, or forwarded onto a faulted link.
    pub packets_lost: u64,
    /// Time-weighted fraction of node-uptime over the run
    /// (1.0 = no node was ever down).
    pub node_availability: f64,
    /// Mean time to repair (s) over outages that recovered in-run;
    /// `None` when nothing recovered (e.g. only permanent failures).
    pub mttr_s: Option<f64>,
    /// Times a flow was re-routed because a fault broke its path.
    pub reassociations: u64,
    /// Mean delay (s) between losing a route to a fault and having one
    /// again; 0 for immediate failover, `None` with no re-associations.
    pub mean_reassociation_latency_s: Option<f64>,
}

impl Default for FaultImpact {
    fn default() -> Self {
        Self {
            events_applied: 0,
            packets_lost: 0,
            node_availability: 1.0,
            mttr_s: None,
            reassociations: 0,
            mean_reassociation_latency_s: None,
        }
    }
}

/// Aggregate results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetSimReport {
    /// Packets injected.
    pub generated: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Packets lost inside the network: dropped at full queues, lost to
    /// faults (also counted in `fault.packets_lost`), flushed from the
    /// queues of links a resnapshot removed, or forwarded onto a link
    /// that has vanished since the route was planned.
    pub dropped: u64,
    /// Packets unroutable at injection time.
    pub unroutable: u64,
    /// delivered / generated.
    pub delivery_ratio: f64,
    /// Mean end-to-end latency of delivered packets (s).
    pub mean_latency_s: f64,
    /// 95th-percentile latency (s).
    pub p95_latency_s: f64,
    /// Highest utilization sample measured across links, as an unclamped
    /// fraction of capacity (a saturated link reports ~1.0). Each link is
    /// sampled at every adaptive replan (over the elapsed replan
    /// interval) and once at the end of the run over its *actual*
    /// remaining measurement window — the time since its last replan
    /// reset, or since the link's mid-run creation on dynamic/faulted
    /// topologies — so short final windows and late-created links are
    /// not averaged down over time they did not exist.
    pub max_link_utilization: f64,
    /// Fault accounting (default for fault-free runs).
    pub fault: FaultImpact,
}

/// Dense index of a directed link in the run's [`LinkTable`]. Within
/// one run a `LinkId` names one `(u, v)` pair *forever* — slots are
/// never recycled for a different pair (see [`LinkTable`]), so compiled
/// routes and in-flight `Depart` events can never be misdirected by
/// churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LinkId(u32);

/// Slab index of an in-flight packet (see [`PktSlab`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PktId(u32);

/// An in-flight packet, slab-resident. Events reference it by [`PktId`]
/// so the event queue moves 8-byte payloads, not fat packet structs.
struct Pkt {
    bytes: u32,
    created_s: f64,
    route: CompiledRoute,
    /// Hops done: the packet is on, or queued for, `route.links[hop]`.
    hop: u32,
    /// Index into the flow list, for per-flow latency telemetry.
    flow: u32,
}

/// A route compiled against the run's [`LinkTable`]: the planner's node
/// path (for arrival-node and delivery checks) plus the [`LinkId`] of
/// every hop, so hop `h` forwards on `links[h]` by array index. Compiled
/// once per (re)plan; packets carry `Rc` clones of both arrays.
#[derive(Clone)]
struct CompiledRoute {
    nodes: Rc<[NodeId]>,
    links: Rc<[LinkId]>,
}

/// Simulation events. Every variant is ≤ 8 bytes of payload — packet
/// state lives in the [`PktSlab`] — so the schedulers move 24-byte
/// `(time, seq, event)` entries through the hot loop.
enum Ev {
    Inject(u32),
    /// Demand-tick boundary `k`: retire batch `k-1`, activate batch `k`.
    DemandTick(u32),
    /// Transmission of the head-of-queue packet on a link completed.
    Depart(LinkId),
    /// Packet finished propagating to its next hop.
    HopArrive(PktId),
    Replan,
    /// Topology refresh (dynamic mode): satellites have moved.
    Resnapshot,
    /// A fault-plan event (index into the event list) takes effect.
    Fault(u32),
}

struct Link {
    capacity_bps: f64,
    latency_s: f64,
    /// Packets waiting or in transmission; the head is on the wire, so
    /// the link is busy exactly when the queue is non-empty.
    queue: DropTailQueue<PktId>,
    bits_sent: f64, // since `measured_since_s` (for utilization samples)
    /// Start of the current measurement window: link creation or the
    /// last replan reset — the divisor for utilization samples.
    measured_since_s: f64,
    util_ewma: f64,
    /// Whether the link is in the work graph: forwards onto a dead slot
    /// drop, pending `Depart`s fizzle.
    alive: bool,
}

/// Slab of in-flight packets with a freelist. A packet is referenced by
/// exactly one owner at a time — one link queue entry or one `HopArrive`
/// event — so `free` after delivery/drop cannot double-release.
#[derive(Default)]
struct PktSlab {
    pkts: Vec<Pkt>,
    free: Vec<u32>,
    /// Most packets ever in flight at once (`netsim.engine.slab_high_water`).
    high_water: usize,
}

impl PktSlab {
    fn alloc(&mut self, pkt: Pkt) -> PktId {
        let id = match self.free.pop() {
            Some(i) => {
                self.pkts[i as usize] = pkt;
                PktId(i)
            }
            None => {
                self.pkts.push(pkt);
                PktId((self.pkts.len() - 1) as u32)
            }
        };
        self.high_water = self.high_water.max(self.pkts.len() - self.free.len());
        id
    }

    #[inline]
    fn get(&self, id: PktId) -> &Pkt {
        &self.pkts[id.0 as usize]
    }

    #[inline]
    fn get_mut(&mut self, id: PktId) -> &mut Pkt {
        &mut self.pkts[id.0 as usize]
    }

    /// Return a slot to the freelist. The stale `Pkt` (and its route
    /// `Rc`s) stays in place until the slot is reused — a deliberate
    /// trade: no drop work on the hot path.
    #[inline]
    fn free(&mut self, id: PktId) {
        self.free.push(id.0);
    }

    /// Free every packet of a dying link queue, emptying it.
    fn free_queue(&mut self, queue: &mut DropTailQueue<PktId>) {
        self.free.extend(queue.drain().map(|(id, _)| id.0));
    }
}

/// The dense link table: every directed link the run has *ever* seen
/// occupies one slot, addressed by [`LinkId`]. The `(u, v) → LinkId`
/// index is **append-only**: a pair maps to the same slot for the whole
/// run, and topology churn flips the slot's `alive` flag (re-created
/// links *revive* their old slot with fresh state) instead of ever
/// reusing a slot for a different pair.
///
/// Pair-stable slots make `alive` exactly pair-presence, so every event
/// and route acts on *the link of its pair* or finds it absent — also
/// when a link vanishes and its pair is re-created while a stale
/// `Depart` is in flight (it pops the revived link's queue early, as a
/// `HashMap` keyed by pair would). A freelist would instead let the
/// stale `Depart` act on an unrelated pair's link.
struct LinkTable {
    slots: Vec<Link>,
    /// Pair of each slot (parallel to `slots`).
    pairs: Vec<(NodeId, NodeId)>,
    /// Append-only pair index; values are stable for the whole run.
    index: HashMap<(NodeId, NodeId), LinkId>,
    /// Every slot in pair order, re-sorted only after
    /// [`id_for`](Self::id_for) has appended slots.
    by_pair: Vec<LinkId>,
    /// Byte capacity of every link queue.
    queue_capacity_bytes: u64,
}

impl LinkTable {
    fn new(queue_capacity_bytes: u64) -> Self {
        Self {
            slots: Vec::new(),
            pairs: Vec::new(),
            index: HashMap::new(),
            by_pair: Vec::new(),
            queue_capacity_bytes,
        }
    }

    #[inline]
    fn link(&self, id: LinkId) -> &Link {
        &self.slots[id.0 as usize]
    }

    #[inline]
    fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.slots[id.0 as usize]
    }

    /// The slot for `pair`, allocating a dead one on first sight (a
    /// route compiled onto it drops its packets there).
    fn id_for(&mut self, pair: (NodeId, NodeId)) -> LinkId {
        if let Some(&id) = self.index.get(&pair) {
            return id;
        }
        let id = LinkId(self.slots.len() as u32);
        self.slots.push(Link {
            capacity_bps: 0.0,
            latency_s: 0.0,
            queue: DropTailQueue::new(self.queue_capacity_bytes),
            bits_sent: 0.0,
            measured_since_s: 0.0,
            util_ewma: 0.0,
            alive: false,
        });
        self.pairs.push(pair);
        self.index.insert(pair, id);
        id
    }

    /// Bring the dead slot `id` alive with fresh-link state: EWMA reset,
    /// measurement window starting now. Its queue is already empty: a
    /// slot is born dead with an empty queue, and [`kill`](Self::kill)
    /// drains it.
    fn revive(&mut self, id: LinkId, capacity_bps: f64, latency_s: f64, now_s: f64) {
        let link = &mut self.slots[id.0 as usize];
        debug_assert!(
            !link.alive && link.queue.is_empty(),
            "revive of a live slot"
        );
        link.capacity_bps = capacity_bps;
        link.latency_s = latency_s;
        link.bits_sent = 0.0;
        link.measured_since_s = now_s;
        link.util_ewma = 0.0;
        link.alive = true;
    }

    /// Kill the live slot `id`, freeing its queued packets into `slab`.
    /// Returns how many packets died with the queue.
    fn kill(&mut self, id: LinkId, slab: &mut PktSlab) -> u64 {
        let link = &mut self.slots[id.0 as usize];
        debug_assert!(link.alive, "kill of a dead slot");
        let queued = link.queue.len() as u64;
        slab.free_queue(&mut link.queue);
        link.alive = false;
        queued
    }

    /// Visit every alive link with its pair, in sorted pair order — the
    /// deterministic iteration the replan path needs.
    fn for_each_alive_sorted(&mut self, mut f: impl FnMut((NodeId, NodeId), &mut Link)) {
        if self.by_pair.len() < self.slots.len() {
            // Slots are append-only, so only new ones need placing.
            let pairs = &self.pairs;
            self.by_pair
                .extend((self.by_pair.len()..self.slots.len()).map(|i| LinkId(i as u32)));
            self.by_pair.sort_by_key(|id| pairs[id.0 as usize]);
        }
        for &id in &self.by_pair {
            let link = &mut self.slots[id.0 as usize];
            if link.alive {
                f(self.pairs[id.0 as usize], link);
            }
        }
    }

    /// Sync the table to the work graph: links present in both keep
    /// queue/EWMA (capacity and latency refreshed), links only in the
    /// graph come up fresh, links only in the table die and lose their
    /// queues. Returns `(links_kept, links_churned, packets_dropped)`.
    fn rebuild_sync(&mut self, graph: &Graph, now: f64, slab: &mut PktSlab) -> (u64, u64, u64) {
        let preexisting = self.slots.len();
        let mut seen = vec![false; preexisting];
        let mut kept = 0u64;
        let mut churned = 0u64;
        for u in 0..graph.node_count() {
            for e in graph.edges(u) {
                let id = self.id_for((NodeId(u), e.to));
                if (id.0 as usize) < preexisting {
                    seen[id.0 as usize] = true;
                }
                if self.slots[id.0 as usize].alive {
                    kept += 1;
                    let link = &mut self.slots[id.0 as usize];
                    link.capacity_bps = e.capacity_bps;
                    link.latency_s = e.latency_s;
                } else {
                    churned += 1;
                    self.revive(id, e.capacity_bps, e.latency_s, now);
                }
            }
        }
        let mut lost = 0u64;
        for (idx, &was_seen) in seen.iter().enumerate() {
            if self.slots[idx].alive && !was_seen {
                churned += 1;
                lost += self.kill(LinkId(idx as u32), slab);
            }
        }
        (kept, churned, lost)
    }

    /// Compile a planner path into per-hop [`LinkId`]s.
    fn compile(&mut self, nodes: Vec<NodeId>) -> CompiledRoute {
        let links: Vec<LinkId> = nodes
            .windows(2)
            .map(|w| self.id_for((w[0], w[1])))
            .collect();
        CompiledRoute {
            nodes: Rc::from(nodes.into_boxed_slice()),
            links: Rc::from(links.into_boxed_slice()),
        }
    }
}

/// Where the simulation gets its topology from.
#[derive(Clone, Copy)]
enum TopologySource<'a> {
    /// One frozen snapshot for the whole run.
    Static(&'a Graph),
    /// Fresh snapshots on demand, every `interval_s` seconds.
    Provider {
        provider: &'a dyn TopologyProvider,
        interval_s: f64,
    },
    /// A precomputed timeline, one stored snapshot per refresh.
    Timeline(&'a TopologyTimeline),
}

/// The packet-level simulation driver: one builder for every
/// combination of routing mode, fault plan, and topology source that
/// used to be a separate `run_netsim*` entry point.
///
/// ```
/// use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, TrafficKind};
/// use openspace_net::topology::{Graph, LinkTech};
///
/// let mut g = Graph::new(2, 0);
/// g.add_bidirectional(0, 1, 0.002, 1e6, 0, 0, LinkTech::Rf);
/// let flows = [FlowSpec::new(0, 1, 1e5, 1_500, TrafficKind::Cbr)];
/// let report = NetSim::new(NetSimConfig::default())
///     .with_snapshot(&g)
///     .run(&flows)
///     .unwrap();
/// assert!(report.delivery_ratio > 0.99);
/// ```
///
/// Exactly one topology source must be set before
/// [`run`](Self::run) — [`with_snapshot`](Self::with_snapshot),
/// [`with_provider`](Self::with_provider), or
/// [`with_timeline`](Self::with_timeline); setting another replaces the
/// previous one. Faults ([`with_faults`](Self::with_faults)) compose
/// with any source.
#[derive(Clone, Copy)]
pub struct NetSim<'a> {
    cfg: NetSimConfig,
    topology: Option<TopologySource<'a>>,
    events: &'a [TopologyEvent],
    demand: Option<&'a DemandWorkload>,
}

impl<'a> NetSim<'a> {
    /// A driver with the given config and no topology source yet.
    pub fn new(cfg: NetSimConfig) -> Self {
        Self {
            cfg,
            topology: None,
            events: &[],
            demand: None,
        }
    }

    /// Simulate on one static topology snapshot. The graph supplies
    /// topology, capacities and latencies; queues and measured loads
    /// live inside the simulator.
    pub fn with_snapshot(mut self, graph: &'a Graph) -> Self {
        self.topology = Some(TopologySource::Static(graph));
        self
    }

    /// Simulate over a *moving* constellation: `provider` supplies
    /// fresh snapshots every `resnapshot_interval_s`, modeling the
    /// "rapidly changing network topology" of the paper's Figure 1.
    /// Links that persist across a refresh keep their queues; packets
    /// queued on a vanished link are dropped (the handover cost of ISL
    /// churn, counted under `netsim.resnapshot.packets_dropped`), and
    /// all routes are recomputed on the new snapshot.
    pub fn with_provider(
        mut self,
        provider: &'a dyn TopologyProvider,
        resnapshot_interval_s: f64,
    ) -> Self {
        self.topology = Some(TopologySource::Provider {
            provider,
            interval_s: resnapshot_interval_s,
        });
        self
    }

    /// Simulate over a precomputed [`TopologyTimeline`]: behaves
    /// exactly like [`with_provider`](Self::with_provider) at the
    /// timeline's step, but each refresh *clones the stored snapshot*
    /// instead of rebuilding it — bit-identical reports, without the
    /// orbit propagation and link tests. The timeline must start at
    /// `t = 0` and cover the configured duration.
    pub fn with_timeline(mut self, timeline: &'a TopologyTimeline) -> Self {
        self.topology = Some(TopologySource::Timeline(timeline));
        self
    }

    /// Consume a fault plan during the run: `events` is the
    /// time-ordered output of
    /// [`FaultPlan::compile`](openspace_sim::fault::FaultPlan::compile).
    /// Failed links lose their queued packets; packets in flight toward
    /// a dead node are lost on arrival; flows whose path broke are
    /// re-routed on the degraded topology (in both routing modes —
    /// failure detection is not congestion adaptation). Recoveries
    /// restore links with empty queues. Faults compose with every
    /// topology source: a down node or link stays masked out of every
    /// later snapshot until its recovery event. An empty stream changes
    /// nothing, bit for bit.
    pub fn with_faults(mut self, events: &'a [TopologyEvent]) -> Self {
        self.events = events;
        self
    }

    /// Attach a time-varying demand workload: each batch in `demand`
    /// activates at its tick boundary (retiring the previous batch)
    /// with fresh arrival phases, on top of whatever base `flows` the
    /// run was given. With a demand workload attached, the base flow
    /// list may be empty. Demand flows draw their arrival RNG from the
    /// same per-flow substream family as base flows (stable global
    /// indices), so runs are bit-reproducible for any tick content.
    pub fn with_demand(mut self, demand: &'a DemandWorkload) -> Self {
        self.demand = Some(demand);
        self
    }

    /// Run the simulation.
    ///
    /// Fails with [`ConfigError`] on a missing topology source, empty
    /// flows (unless a non-empty demand workload is attached),
    /// out-of-range nodes, non-positive
    /// durations/rates/intervals, or a timeline that starts after
    /// `t = 0` or ends before the configured duration.
    pub fn run(&self, flows: &[FlowSpec]) -> Result<NetSimReport, ConfigError> {
        self.run_recorded(flows, &mut NullRecorder)
    }

    /// [`run`](Self::run) with telemetry: packet counters
    /// (`netsim.generated` / `delivered` / `dropped` / `unroutable`),
    /// the end-to-end latency histogram (`netsim.latency_s`, plus a
    /// `netsim.flow.<i>.latency_s` histogram per flow when the recorder
    /// is enabled), re-plan / re-snapshot counters
    /// (`netsim.resnapshot.links_kept` / `links_churned` /
    /// `packets_dropped`, and `netsim.timeline.deltas_applied` on the
    /// timeline path), the fault block when faults are present
    /// (`netsim.fault.*`), routing work from the underlying searches,
    /// and the engine's event count and queue-depth high-water mark.
    /// The returned report is bit-identical to [`run`](Self::run)'s —
    /// recording never perturbs the simulation.
    pub fn run_recorded(
        &self,
        flows: &[FlowSpec],
        rec: &mut dyn Recorder,
    ) -> Result<NetSimReport, ConfigError> {
        let source = self.topology.ok_or(ConfigError::Empty {
            field: "netsim.topology",
        })?;
        match source {
            TopologySource::Static(_) => {}
            TopologySource::Provider { interval_s, .. } => {
                require_positive("resnapshot_interval_s", interval_s)?;
            }
            TopologySource::Timeline(tl) => {
                if tl.start_s() != 0.0 {
                    return Err(ConfigError::OutOfRange {
                        field: "timeline.start_s",
                        value: tl.start_s(),
                        min: 0.0,
                        max: 0.0,
                    });
                }
                // The coverage test reads `duration_s`, so it must be
                // finite first.
                self.cfg.validate()?;
                // Resnapshot k fires at `times[k]` (both accumulate
                // `t += step` from 0). The one after the last tick
                // would fire at `last + step`, so the timeline is short
                // if that instant lies inside the run.
                let last = tl.tick_times()[tl.delta_count()];
                if last + tl.step_s() <= self.cfg.duration_s {
                    return Err(ConfigError::IndexOutOfRange {
                        field: "timeline.delta_count",
                        index: tl.delta_count(),
                        len: tl.delta_count(),
                    });
                }
            }
        }
        run_netsim_core(source, flows, &self.cfg, self.events, self.demand, rec)
    }
}

/// Check the flows (base flows, then every demand batch, borrowed in
/// place) and the fault events against `graph`, and the config.
fn validate<'f>(
    graph: &Graph,
    flows: impl Iterator<Item = &'f FlowSpec>,
    cfg: &NetSimConfig,
    events: &[TopologyEvent],
) -> Result<(), ConfigError> {
    let mut flows = flows.peekable();
    if flows.peek().is_none() {
        return Err(ConfigError::Empty { field: "flows" });
    }
    cfg.validate()?;
    let n = graph.node_count();
    for f in flows {
        require_index("flow.src", f.src.0, n)?;
        require_index("flow.dst", f.dst.0, n)?;
        require_positive("flow.rate_bps", f.rate_bps)?;
        if f.packet_bytes == 0 {
            return Err(ConfigError::NonPositive {
                field: "flow.packet_bytes",
                value: 0.0,
            });
        }
        // A subnormal rate passes the check above but overflows the
        // packet gap to infinity.
        if !(f.packet_bytes as f64 * 8.0 / f.rate_bps).is_finite() {
            return Err(ConfigError::NotFinite {
                field: "flow.rate_bps",
            });
        }
        if let TrafficKind::OnOff {
            mean_on_s,
            mean_off_s,
        } = f.kind
        {
            require_positive("flow.mean_on_s", mean_on_s)?;
            require_positive("flow.mean_off_s", mean_off_s)?;
        }
    }
    let field = "fault_event.node";
    for ev in events {
        match ev.kind {
            TopologyEventKind::NodeDown(a) | TopologyEventKind::NodeUp(a) => {
                require_index(field, a.0, n)?
            }
            TopologyEventKind::LinkDown(a, b) | TopologyEventKind::LinkUp(a, b) => {
                require_index(field, a.0, n)?;
                require_index(field, b.0, n)?;
            }
            TopologyEventKind::OperatorWithdrawn(_) => {}
        }
    }
    Ok(())
}

/// Validate, set up, and run the event loop: each event goes to the
/// [`SimState`] handler for its kind.
fn run_netsim_core(
    source: TopologySource<'_>,
    flows: &[FlowSpec],
    cfg: &NetSimConfig,
    events: &[TopologyEvent],
    demand: Option<&DemandWorkload>,
    rec: &mut dyn Recorder,
) -> Result<NetSimReport, ConfigError> {
    let graph = match source {
        TopologySource::Static(g) => g.clone(),
        TopologySource::Provider { provider, .. } => provider.topology_at(0.0),
        TopologySource::Timeline(tl) => tl.base().clone(),
    };
    let ticks = demand.map_or(&[][..], DemandWorkload::ticks);
    let all_flows = flows.iter().chain(ticks.iter().flat_map(|(_, b)| b));
    validate(&graph, all_flows, cfg, events)?;
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut state = SimState::new(source, graph, flows, ticks, cfg, events, rec);
    state.start(&mut q);
    q.run_until(cfg.duration_s, |q, now, ev| match ev {
        Ev::Inject(i) => state.inject(q, now, i as usize),
        Ev::DemandTick(k) => state.demand_tick(q, now, k as usize),
        Ev::Depart(lid) => state.depart(q, now, lid),
        Ev::HopArrive(pid) => state.hop_arrive(q, now, pid),
        Ev::Replan => state.replan(q, now),
        Ev::Resnapshot => state.resnapshot(q, now),
        Ev::Fault(idx) => state.fault(now, idx as usize),
    });
    Ok(state.finish(&q))
}

/// The state of one run — flows, network, and accounting — with one
/// handler per [`Ev`] kind.
struct SimState<'a, 'r> {
    cfg: NetSimConfig,
    source: TopologySource<'a>,
    events: &'a [TopologyEvent],
    rec: &'r mut dyn Recorder,

    // Flows: base flows, then each demand batch's, by stable index.
    /// `(src, dst)` per flow — the planner's request list.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Flow `i` draws `SimRng::substream(seed, i)` whenever (or
    /// whether) its batch activates, so reports are bit-reproducible
    /// for any demand content.
    arrivals: Vec<Arrivals>,
    /// Base flows start active; a demand batch is active from its tick
    /// to the next.
    active: Vec<bool>,
    /// Tick time and flow-index range of each demand batch.
    batches: Vec<(f64, Range<usize>)>,
    routes: Vec<Option<CompiledRoute>>,
    /// When a fault left each flow without a route, until it has one.
    route_lost_at: Vec<Option<f64>>,
    /// Per-flow histogram keys: empty for a disabled recorder, else
    /// formatted on a flow's first delivery.
    flow_latency_keys: Vec<Option<String>>,

    // Network.
    /// The current snapshot, unfaulted, with the loads replans write.
    full: Graph,
    /// The graph routes are planned on and the link table mirrors:
    /// `full` minus every edge touching a down node or link, rebuilt by
    /// [`remask`](Self::remask).
    work_graph: Graph,
    slab: PktSlab,
    table: LinkTable,
    /// One batched planner for every recompute: flows sharing a source
    /// share a tree, and scratch buffers persist across events.
    planner: RoutePlanner,
    /// Links down now, each as its `(min, max)` endpoint pair.
    down_links: BTreeSet<(NodeId, NodeId)>,
    replan_interval: Option<f64>,
    resnapshot_interval: Option<f64>,
    /// Node count of the initial snapshot, the availability divisor.
    node_count: usize,

    // Accounting.
    /// The report under construction: counts, the running utilization
    /// maximum and the fault books accumulate here during the run, and
    /// [`finish`](Self::finish) fills in the rest.
    report: NetSimReport,
    latency: Summary,
    /// Start of each open node outage, so its keys are the nodes down
    /// now. Ordered so the open outages close in `NodeId` order at run
    /// end: float addition is not associative.
    down_since: BTreeMap<NodeId, f64>,
    /// Summed outage time: the recovered outages' repair times until
    /// [`finish`](Self::finish) adds the open ones.
    downtime_total: f64,
    repairs: u64,
    reassoc_latency_total: f64,
}

impl<'a, 'r> SimState<'a, 'r> {
    /// Build the link table from `graph`, draw the arrival stream of
    /// every base flow and demand-batch flow, and plan the initial
    /// proactive latency routes.
    fn new(
        source: TopologySource<'a>,
        graph: Graph,
        base: &[FlowSpec],
        ticks: &[(f64, Vec<FlowSpec>)],
        cfg: &NetSimConfig,
        events: &'a [TopologyEvent],
        rec: &'r mut dyn Recorder,
    ) -> Self {
        let (endpoints, arrivals): (Vec<_>, Vec<_>) = base
            .iter()
            .chain(ticks.iter().flat_map(|(_, b)| b))
            .enumerate()
            .map(|(i, f)| {
                let rng = SimRng::substream(cfg.seed, i as u64);
                (
                    (f.src, f.dst),
                    Arrivals::new(f.kind, f.rate_bps, f.packet_bytes, rng),
                )
            })
            .collect();
        let n_flows = endpoints.len();
        let mut next = base.len();
        let batches = ticks
            .iter()
            .map(|(t, b)| {
                next += b.len();
                (*t, next - b.len()..next)
            })
            .collect();
        // Syncing an empty table brings every edge of `graph` alive.
        let mut slab = PktSlab::default();
        let mut table = LinkTable::new(cfg.queue_capacity_bytes);
        table.rebuild_sync(&graph, 0.0, &mut slab);
        let mut state = Self {
            cfg: *cfg,
            source,
            events,
            flow_latency_keys: if rec.enabled() {
                vec![None; n_flows]
            } else {
                Vec::new()
            },
            rec,
            endpoints,
            arrivals,
            active: (0..n_flows).map(|i| i < base.len()).collect(),
            batches,
            routes: Vec::new(),
            route_lost_at: vec![None; n_flows],
            node_count: graph.node_count(),
            work_graph: graph.clone(),
            full: graph,
            slab,
            table,
            planner: RoutePlanner::new(),
            down_links: BTreeSet::new(),
            replan_interval: match cfg.routing {
                RoutingMode::Adaptive { replan_interval_s } => Some(replan_interval_s),
                RoutingMode::Proactive => None,
            },
            resnapshot_interval: match source {
                TopologySource::Static(_) => None,
                TopologySource::Provider { interval_s, .. } => Some(interval_s),
                TopologySource::Timeline(tl) => Some(tl.step_s()),
            },
            report: NetSimReport::default(),
            latency: Summary::new(),
            down_since: BTreeMap::new(),
            downtime_total: 0.0,
            repairs: 0,
            reassoc_latency_total: 0.0,
        };
        state.routes = state.plan_routes(None, false);
        state
    }

    /// Schedule the opening events: the base flows' first arrivals,
    /// the first replan and resnapshot, the fault events and the demand
    /// ticks that fall inside the run.
    fn start(&mut self, q: &mut EventQueue<Ev>) {
        for i in (0..self.arrivals.len()).filter(|&i| self.active[i]) {
            q.schedule(self.arrivals[i].start(0.0), Ev::Inject(i as u32));
        }
        if let Some(interval) = self.replan_interval {
            q.schedule(interval, Ev::Replan);
        }
        if let Some(interval) = self.resnapshot_interval {
            q.schedule(interval, Ev::Resnapshot);
        }
        let duration = self.cfg.duration_s;
        for (idx, ev) in self.events.iter().enumerate() {
            if ev.at_s < duration {
                q.schedule(ev.at_s.max(0.0), Ev::Fault(idx as u32));
            }
        }
        for (k, (t, _)) in self.batches.iter().enumerate() {
            if *t < duration {
                q.schedule(*t, Ev::DemandTick(k as u32));
            }
        }
    }

    /// A flow's packet arrives: forward it (or count it unroutable) and
    /// schedule the flow's next arrival.
    fn inject(&mut self, q: &mut EventQueue<Ev>, now: f64, i: usize) {
        if !self.active[i] {
            return; // flow retired at a demand tick: stop injecting
        }
        self.report.generated += 1;
        if let Some(route) = &self.routes[i] {
            let pid = self.slab.alloc(Pkt {
                bytes: self.arrivals[i].packet_bytes(),
                created_s: now,
                route: route.clone(),
                hop: 0,
                flow: i as u32,
            });
            self.forward(q, now, pid);
        } else {
            self.report.unroutable += 1;
        }
        // A gap drawn so long that the next arrival overflows to
        // infinity lands after `duration_s` anyway: the flow is done.
        let next = self.arrivals[i].next(now);
        if next.is_finite() {
            q.schedule(next, Ev::Inject(i as u32));
        }
    }

    /// Demand-tick boundary `k`: retire batch `k - 1` (its in-flight
    /// packets still drain), then activate batch `k` with fresh phases.
    fn demand_tick(&mut self, q: &mut EventQueue<Ev>, now: f64, k: usize) {
        if k > 0 {
            let mut retired = 0u64;
            for i in self.batches[k - 1].1.clone() {
                if self.active[i] {
                    self.active[i] = false;
                    retired += 1;
                }
            }
            self.rec.add("netsim.demand.flows_retired", retired);
        }
        let range = self.batches[k].1.clone();
        for i in range.clone() {
            self.active[i] = true;
            let at = self.arrivals[i].start(now);
            if at.is_finite() {
                q.schedule(at, Ev::Inject(i as u32));
            }
        }
        self.rec.add("netsim.demand.ticks", 1);
        self.rec
            .add("netsim.demand.flows_activated", range.len() as u64);
    }

    /// The head-of-queue packet of `lid` finished transmitting: send it
    /// propagating and start the next transmission.
    fn depart(&mut self, q: &mut EventQueue<Ev>, now: f64, lid: LinkId) {
        // The link can vanish (fault, resnapshot) between the Depart
        // being scheduled and firing; its queue died with it.
        let link = self.table.link_mut(lid);
        if !link.alive {
            return;
        }
        let Some((pid, bytes)) = link.queue.dequeue() else {
            return;
        };
        link.bits_sent += bytes as f64 * 8.0;
        let arrive_at = now + link.latency_s;
        // Start the next transmission if any. Scheduled *before* the
        // HopArrive: the relative seq numbers decide tie order when
        // serialization equals propagation time.
        if let Some(&(_, next_bytes)) = link.queue.front() {
            let tx = next_bytes as f64 * 8.0 / link.capacity_bps;
            q.schedule(now + tx, Ev::Depart(lid));
        }
        q.schedule(arrive_at, Ev::HopArrive(pid));
    }

    /// A packet reached the end of its current hop: lose it to a dead
    /// receiver, deliver it, or forward it on.
    fn hop_arrive(&mut self, q: &mut EventQueue<Ev>, now: f64, pid: PktId) {
        // The arrival node is the hop's endpoint, `nodes[hop + 1]`.
        let (hop, node) = {
            let p = self.slab.get(pid);
            (p.hop, p.route.nodes[p.hop as usize + 1])
        };
        if self.down_since.contains_key(&node) {
            // The receiver died while the packet was in flight.
            self.report.dropped += 1;
            self.report.fault.packets_lost += 1;
            self.slab.free(pid);
            return;
        }
        let p = self.slab.get_mut(pid);
        p.hop = hop + 1;
        if p.hop as usize + 1 == p.route.nodes.len() {
            let lat = now - p.created_s;
            let flow = p.flow as usize;
            self.slab.free(pid);
            self.report.delivered += 1;
            self.latency.add(lat);
            if self.rec.enabled() {
                self.rec.observe("netsim.latency_s", lat);
                let key = self.flow_latency_keys[flow]
                    .get_or_insert_with(|| format!("netsim.flow.{flow}.latency_s"));
                self.rec.observe(key, lat);
            }
        } else {
            self.forward(q, now, pid);
        }
    }

    /// Adaptive re-plan: sample every link's utilization, fold it into
    /// the EWMA that loads the work graph, and re-route every flow on
    /// the congestion weight.
    fn replan(&mut self, q: &mut EventQueue<Ev>, now: f64) {
        let Some(interval) = self.replan_interval else {
            return; // replan only ticks in adaptive mode
        };
        // Sorted pair order, not the per-process hash order: a future
        // order-sensitive edit here cannot break reproducibility.
        self.table.for_each_alive_sorted(|(u, v), link| {
            let util = link.bits_sent / interval / link.capacity_bps;
            // The report's max takes the raw sample (matching the
            // end-of-run sample); only the EWMA feeding `Graph::set_load`
            // is clamped, since a load fraction must stay below 1.
            self.report.max_link_utilization = self.report.max_link_utilization.max(util);
            link.util_ewma = 0.5 * link.util_ewma + 0.5 * util.min(0.98);
            link.bits_sent = 0.0;
            link.measured_since_s = now;
            // A live link is in both graphs; `full` keeps the load for
            // the next remask.
            let load = link.util_ewma.min(0.98);
            let _ = self.work_graph.set_load(u, v, load);
            let _ = self.full.set_load(u, v, load);
        });
        // Loads changed under the QoS weight: cached trees are stale.
        self.planner.invalidate();
        let fresh = self.plan_routes(None, true);
        for (route, r) in self.routes.iter_mut().zip(fresh) {
            if r.is_some() {
                *route = r;
            }
        }
        self.rec.add("netsim.replans", 1);
        // An interval so long that the next replan overflows to
        // infinity lands after `duration_s` anyway.
        let next = now + interval;
        if next.is_finite() {
            q.schedule(next, Ev::Replan);
        }
    }

    /// Topology refresh: satellites have moved. Take the new snapshot,
    /// mask the faults out of it, and re-route every flow.
    fn resnapshot(&mut self, q: &mut EventQueue<Ev>, now: f64) {
        let Some(interval) = self.resnapshot_interval else {
            return; // resnapshot only ticks in dynamic mode
        };
        match self.source {
            TopologySource::Static(_) => return, // unscheduled; unreachable
            TopologySource::Provider { provider, .. } => {
                self.full = provider.topology_at(now);
            }
            TopologySource::Timeline(tl) => {
                // `now` is the tick's instant bit for bit, so this is
                // the tick's stored snapshot.
                self.full = tl.topology_at(now);
                self.rec.add("netsim.timeline.deltas_applied", 1);
            }
        }
        let (kept, churned, lost) = self.remask(now);
        self.report.dropped += lost;
        self.rec.add("netsim.resnapshot.links_kept", kept);
        self.rec.add("netsim.resnapshot.links_churned", churned);
        self.rec.add("netsim.resnapshot.packets_dropped", lost);
        // A fresh graph resets the loads and may reshape any tree.
        self.planner.invalidate();
        let adaptive = self.replan_interval.is_some();
        self.routes = self.plan_routes(None, adaptive);
        self.rec.add("netsim.resnapshots", 1);
        let next = now + interval;
        if next.is_finite() {
            q.schedule(next, Ev::Resnapshot);
        }
    }

    /// Fault-plan event `idx` takes effect: update the mask, keep the
    /// availability books, and re-route the flows whose path broke.
    ///
    /// A duplicate down is idempotent, an unmatched up is ignored, and a
    /// `LinkDown` on a down endpoint or on a link absent from the
    /// current snapshot is ignored (so its `LinkUp` is unmatched).
    fn fault(&mut self, now: f64, idx: usize) {
        let changed = match self.events[idx].kind {
            TopologyEventKind::NodeDown(n) => {
                let fresh = !self.down_since.contains_key(&n);
                if fresh {
                    self.down_since.insert(n, now);
                }
                fresh
            }
            TopologyEventKind::NodeUp(n) => match self.down_since.remove(&n) {
                Some(t0) => {
                    self.downtime_total += now - t0;
                    self.repairs += 1;
                    true
                }
                None => false,
            },
            TopologyEventKind::LinkDown(a, b) => {
                let present =
                    self.full.find_edge(a, b).is_some() || self.full.find_edge(b, a).is_some();
                present && !self.masked(a, b) && self.down_links.insert((a.min(b), a.max(b)))
            }
            TopologyEventKind::LinkUp(a, b) => self.down_links.remove(&(a.min(b), a.max(b))),
            // Membership bookkeeping, not a topology change: the compiler
            // emits explicit NodeDown events for the operator's assets.
            TopologyEventKind::OperatorWithdrawn(_) => false,
        };
        self.report.fault.events_applied += 1;
        if !changed {
            return;
        }
        let (_, churned, lost) = self.remask(now);
        self.report.dropped += lost;
        self.report.fault.packets_lost += lost;
        if churned == 0 {
            return;
        }
        // Graceful degradation: flows whose path broke re-route on the
        // degraded topology immediately (failure detection); flows that
        // lost all connectivity re-associate when a recovery gives them
        // a route again. Broken flows are re-planned in one batch —
        // flows that lost the same access satellite or gateway share a
        // source, hence a tree.
        self.planner.invalidate();
        let adaptive = self.replan_interval.is_some();
        let broken: Vec<usize> = (0..self.routes.len())
            .filter(|&i| match &self.routes[i] {
                Some(route) => route.links.iter().any(|&lid| !self.table.link(lid).alive),
                None => true,
            })
            .collect();
        let fresh = self.plan_routes(Some(&broken), adaptive);
        for (&i, r) in broken.iter().zip(fresh) {
            let had_route = self.routes[i].is_some();
            self.routes[i] = r;
            match (&self.routes[i], self.route_lost_at[i]) {
                (Some(_), Some(lost_at)) => {
                    self.report.fault.reassociations += 1;
                    self.reassoc_latency_total += now - lost_at;
                    self.route_lost_at[i] = None;
                }
                (Some(_), None) if had_route => {
                    // Immediate failover onto a surviving path.
                    self.report.fault.reassociations += 1;
                }
                (None, None) if had_route => {
                    self.route_lost_at[i] = Some(now);
                }
                _ => {}
            }
        }
    }

    /// Whether a fault masks the link between `u` and `v` (either
    /// direction): an endpoint or the link itself is down.
    fn masked(&self, u: NodeId, v: NodeId) -> bool {
        self.down_since.contains_key(&u)
            || self.down_since.contains_key(&v)
            || self.down_links.contains(&(u.min(v), u.max(v)))
    }

    /// Rebuild the work graph as `full` minus every masked edge and sync
    /// the link table to it. Returns `rebuild_sync`'s
    /// `(links_kept, links_churned, packets_dropped)`.
    fn remask(&mut self, now: f64) -> (u64, u64, u64) {
        let mut graph = self.full.clone();
        if !self.down_since.is_empty() || !self.down_links.is_empty() {
            graph.retain_edges(|u, e| !self.masked(u, e.to));
        }
        self.work_graph = graph;
        self.table
            .rebuild_sync(&self.work_graph, now, &mut self.slab)
    }

    /// Route the flows named by `idxs` (every flow for `None`) in one
    /// planner batch — on propagation latency (proactive) or the
    /// congestion weight with a best-effort QoS floor (adaptive) — and
    /// compile each path into [`LinkId`] form as it is extracted. Route
    /// work counts toward the recorder's `routing.*` counters, and each
    /// batch is one `netsim.plan_routes` span (wall time, 0 sim-seconds).
    fn plan_routes(
        &mut self,
        idxs: Option<&[usize]>,
        adaptive: bool,
    ) -> Vec<Option<CompiledRoute>> {
        let subset: Vec<(NodeId, NodeId)>;
        let requests = match idxs {
            Some(idxs) => {
                subset = idxs.iter().map(|&i| self.endpoints[i]).collect();
                &subset
            }
            None => &self.endpoints,
        };
        let timer = SpanTimer::start(0.0);
        let table = &mut self.table;
        let compile = |p: Path| Some(table.compile(p.nodes));
        let routes = if adaptive {
            let weight = QosRequirement::best_effort().weight(12_000.0);
            self.planner
                .plan_mapped(&self.work_graph, requests, weight, compile, self.rec)
        } else {
            self.planner.plan_mapped(
                &self.work_graph,
                requests,
                latency_weight,
                compile,
                self.rec,
            )
        };
        timer.finish(self.rec, "netsim.plan_routes", 0.0);
        routes
    }

    /// Enqueue the packet on its next-hop link, starting transmission if
    /// the link was idle. One array index replaces a per-hop pair hash.
    fn forward(&mut self, q: &mut EventQueue<Ev>, now: f64, pid: PktId) {
        let (bytes, lid) = {
            let p = self.slab.get(pid);
            (p.bytes, p.route.links[p.hop as usize])
        };
        if !self.table.link(lid).alive {
            // Route references a vanished link (possible after replans on
            // a changed snapshot, or right after a fault); count as a drop,
            // and as a fault loss if a fault masks the link now.
            self.report.dropped += 1;
            let (u, v) = self.table.pairs[lid.0 as usize];
            if self.masked(u, v) {
                self.report.fault.packets_lost += 1;
            }
            self.slab.free(pid);
            return;
        }
        let link = self.table.link_mut(lid);
        let idle = link.queue.is_empty();
        if link.queue.enqueue(pid, bytes).is_err() {
            self.report.dropped += 1;
            self.slab.free(pid);
            return;
        }
        if idle {
            let tx = bytes as f64 * 8.0 / link.capacity_bps;
            q.schedule(now + tx, Ev::Depart(lid));
        }
    }

    /// Close the books: still-open outages, the final utilization
    /// sample, run-level telemetry, and the report.
    fn finish(mut self, q: &EventQueue<Ev>) -> NetSimReport {
        let duration = self.cfg.duration_s;
        let r = &mut self.report;
        let fault = &mut r.fault;
        // Before the open outages are added, the downtime is exactly the
        // recovered outages' summed repair time.
        fault.mttr_s = (self.repairs > 0).then(|| self.downtime_total / self.repairs as f64);
        for t0 in self.down_since.values() {
            self.downtime_total += duration - t0;
        }
        let node_time = duration * self.node_count as f64;
        fault.node_availability = if node_time > 0.0 {
            1.0 - self.downtime_total / node_time
        } else {
            1.0
        };
        fault.mean_reassociation_latency_s = (fault.reassociations > 0)
            .then(|| self.reassoc_latency_total / fault.reassociations as f64);

        // Final utilization sample over each link's own window since its
        // last replan reset or creation, so links created mid-run or
        // already sampled are not diluted by the full run duration.
        for link in self.table.slots.iter().filter(|l| l.alive) {
            let window = duration - link.measured_since_s;
            if window > 0.0 {
                r.max_link_utilization = r
                    .max_link_utilization
                    .max(link.bits_sent / window / link.capacity_bps);
            }
        }
        if r.generated > 0 {
            r.delivery_ratio = r.delivered as f64 / r.generated as f64;
        }
        r.mean_latency_s = self.latency.mean();
        if !self.latency.is_empty() {
            r.p95_latency_s = self.latency.p95();
        }

        // Run-level telemetry: totals, gauges, and the engine's own load
        // counters. Recorded after the loop so a run contributes one
        // value per key regardless of event interleaving.
        let rec = self.rec;
        rec.add("netsim.generated", r.generated);
        rec.add("netsim.delivered", r.delivered);
        rec.add("netsim.dropped", r.dropped);
        rec.add("netsim.unroutable", r.unroutable);
        rec.gauge("netsim.delivery_ratio", r.delivery_ratio);
        rec.gauge_max("netsim.max_link_utilization", r.max_link_utilization);
        rec.add("engine.events_processed", q.processed());
        rec.gauge_max("engine.queue_depth_high_water", q.depth_high_water() as f64);
        // Peak in-flight packets.
        rec.gauge_max("netsim.engine.slab_high_water", self.slab.high_water as f64);
        if !self.events.is_empty() {
            let fault = &r.fault;
            rec.add("netsim.fault.events_applied", fault.events_applied);
            rec.add("netsim.fault.packets_lost", fault.packets_lost);
            rec.add("netsim.fault.reassociations", fault.reassociations);
            rec.gauge("netsim.fault.node_availability", fault.node_availability);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_net::topology::{Graph, LinkTech};
    use openspace_sim::fault::{FaultPlan, FaultTopology};
    use openspace_sim::ids::OperatorId;
    use openspace_telemetry::MemoryRecorder;

    /// 0 —fast— 1 —fast— 3   plus a slow bypass 0 — 2 — 3.
    fn diamond(fast_bps: f64) -> Graph {
        let mut g = Graph::new(4, 0);
        g.add_bidirectional(0, 1, 0.002, fast_bps, 0, 0, LinkTech::Rf);
        g.add_bidirectional(1, 3, 0.002, fast_bps, 0, 0, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.006, fast_bps, 0, 0, LinkTech::Rf);
        g.add_bidirectional(2, 3, 0.006, fast_bps, 0, 0, LinkTech::Rf);
        g
    }

    fn flow(src: usize, dst: usize, rate: f64) -> FlowSpec {
        FlowSpec::new(src, dst, rate, 1_500, TrafficKind::Cbr)
    }

    /// The default config run for `duration_s`.
    fn secs(duration_s: f64) -> NetSimConfig {
        NetSimConfig {
            duration_s,
            ..Default::default()
        }
    }

    #[test]
    fn replan_order_is_pair_order_as_slots_are_appended() {
        // What the replan loop must see: the alive entries of the pair
        // index, sorted by pair.
        fn reference(t: &LinkTable) -> Vec<(NodeId, NodeId)> {
            let mut pairs: Vec<_> = t
                .index
                .iter()
                .filter(|(_, &id)| t.link(id).alive)
                .map(|(&pair, _)| pair)
                .collect();
            pairs.sort_unstable();
            pairs
        }
        fn visited(t: &mut LinkTable) -> Vec<(NodeId, NodeId)> {
            let mut pairs = Vec::new();
            t.for_each_alive_sorted(|pair, _| pairs.push(pair));
            pairs
        }
        let mut slab = PktSlab::default();
        let mut table = LinkTable::new(1 << 20);
        let mut g = Graph::new(5, 0);
        g.add_bidirectional(3, 4, 0.001, 1e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0, 0, LinkTech::Rf);
        table.rebuild_sync(&g, 0.0, &mut slab);
        assert_eq!(visited(&mut table), reference(&table));
        // The next snapshot drops 3 — 4 and adds pairs that sort before
        // and between the old ones, so slots are appended out of order.
        let mut g = Graph::new(5, 0);
        g.add_bidirectional(1, 4, 0.001, 1e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.001, 1e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0, 0, LinkTech::Rf);
        table.rebuild_sync(&g, 1.0, &mut slab);
        let got = visited(&mut table);
        assert_eq!(got.len(), 6);
        assert_eq!(got, reference(&table));
    }

    #[test]
    fn light_load_delivers_everything_at_propagation_latency() {
        let g = diamond(10e6);
        let r = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .run(&[flow(0, 3, 1e5)])
            .unwrap();
        assert!(r.delivery_ratio > 0.99, "ratio {}", r.delivery_ratio);
        assert_eq!(r.dropped, 0);
        // 2 hops x 2 ms + 2 serializations of 12 kbit at 10 Mbit/s.
        let expect = 0.004 + 2.0 * 1_500.0 * 8.0 / 10e6;
        assert!(
            (r.mean_latency_s - expect).abs() < 5e-4,
            "latency {} vs {}",
            r.mean_latency_s,
            expect
        );
    }

    #[test]
    fn overload_drops_packets() {
        let g = diamond(1e6);
        // 3 Mbit/s offered into a 1 Mbit/s path.
        let r = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .run(&[flow(0, 3, 3e6)])
            .unwrap();
        assert!(r.dropped > 0);
        assert!(r.delivery_ratio < 0.5, "ratio {}", r.delivery_ratio);
        assert!(r.max_link_utilization > 0.9);
    }

    #[test]
    fn conservation_holds() {
        let g = diamond(2e6);
        let r = NetSim::new(secs(10.0))
            .with_snapshot(&g)
            .run(&[flow(0, 3, 1.5e6), flow(3, 0, 0.5e6)])
            .unwrap();
        // Everything generated is delivered, dropped, unroutable, or
        // still in flight (bounded by queue depth + links).
        let in_flight = r.generated - r.delivered - r.dropped - r.unroutable;
        assert!(in_flight < 500, "in flight {in_flight}");
    }

    #[test]
    fn adaptive_routing_offloads_the_hot_path() {
        // Two flows share the fast path under proactive routing and
        // overload it; adaptive re-planning moves one to the bypass.
        let g = diamond(2e6);
        let flows = [flow(0, 3, 1.4e6), flow(0, 3, 1.4e6)];
        let pro = NetSim::new(secs(20.0))
            .with_snapshot(&g)
            .run(&flows)
            .unwrap();
        let ada = NetSim::new(NetSimConfig {
            routing: RoutingMode::Adaptive {
                replan_interval_s: 1.0,
            },
            ..secs(20.0)
        })
        .with_snapshot(&g)
        .run(&flows)
        .unwrap();
        assert!(
            ada.delivery_ratio > pro.delivery_ratio + 0.1,
            "adaptive {} vs proactive {}",
            ada.delivery_ratio,
            pro.delivery_ratio
        );
    }

    #[test]
    fn poisson_and_cbr_offer_the_same_mean_load() {
        let g = diamond(10e6);
        let mk = |kind| FlowSpec::new(0, 3, 1e6, 1_500, kind);
        let sim = NetSim::new(secs(30.0)).with_snapshot(&g);
        let cbr = sim.run(&[mk(TrafficKind::Cbr)]).unwrap();
        let poi = sim.run(&[mk(TrafficKind::Poisson)]).unwrap();
        let ratio = poi.generated as f64 / cbr.generated as f64;
        assert!((ratio - 1.0).abs() < 0.1, "ratio {ratio}");
        // Poisson burstiness raises p95 latency.
        assert!(poi.p95_latency_s >= cbr.p95_latency_s);
    }

    #[test]
    fn unroutable_flow_is_counted_not_crashed() {
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.001, 1e6, 0, 0, LinkTech::Rf);
        let r = NetSim::new(secs(5.0))
            .with_snapshot(&g)
            .run(&[flow(0, 2, 1e5)])
            .unwrap();
        assert_eq!(r.delivered, 0);
        assert!(r.unroutable > 0);
        assert_eq!(r.unroutable, r.generated);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = diamond(2e6);
        let flows = [FlowSpec::new(0, 3, 1e6, 1_200, TrafficKind::Poisson)];
        let sim = NetSim::new(NetSimConfig {
            seed: 7,
            ..secs(10.0)
        })
        .with_snapshot(&g);
        let a = sim.run(&flows).unwrap();
        let b = sim.run(&flows).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_flows_is_a_config_error() {
        let g = diamond(1e6);
        let err = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .run(&[])
            .unwrap_err();
        assert_eq!(err, ConfigError::Empty { field: "flows" });
    }

    #[test]
    fn missing_topology_is_a_config_error() {
        let err = NetSim::new(NetSimConfig::default())
            .run(&[flow(0, 1, 1e5)])
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::Empty {
                field: "netsim.topology"
            }
        );
    }

    #[test]
    fn out_of_range_flow_is_a_config_error() {
        let g = diamond(1e6);
        let err = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .run(&[flow(0, 9, 1e5)])
            .unwrap_err();
        assert!(matches!(err, ConfigError::IndexOutOfRange { .. }));
    }

    #[test]
    fn builder_validates() {
        assert!(NetSimConfig::builder()
            .duration_s(10.0)
            .seed(3)
            .build()
            .is_ok());
        assert!(NetSimConfig::builder().duration_s(0.0).build().is_err());
        assert!(NetSimConfig::builder()
            .routing(RoutingMode::Adaptive {
                replan_interval_s: -1.0
            })
            .build()
            .is_err());
    }

    #[test]
    fn dynamic_static_topology_matches_static_run() {
        // A provider that always returns the same snapshot must behave
        // like the static simulator (modulo identical results).
        let g = diamond(5e6);
        let flows = [flow(0, 3, 1e6)];
        let cfg = secs(10.0);
        let stat = NetSim::new(cfg).with_snapshot(&g).run(&flows).unwrap();
        let provider = |_t: f64| g.clone();
        let dynamic = NetSim::new(cfg)
            .with_provider(&provider, 2.0)
            .run(&flows)
            .unwrap();
        assert_eq!(stat.generated, dynamic.generated);
        assert_eq!(stat.delivered, dynamic.delivered);
        assert_eq!(stat.dropped, dynamic.dropped);
    }

    #[test]
    fn vanishing_link_drops_queued_packets_and_reroutes() {
        // Topology: fast path 0-1-3 exists before t=5, vanishes after.
        let with_fast = diamond(5e6);
        let without_fast = {
            let mut g = Graph::new(4, 0);
            g.add_bidirectional(0, 2, 0.006, 5e6, 0, 0, LinkTech::Rf);
            g.add_bidirectional(2, 3, 0.006, 5e6, 0, 0, LinkTech::Rf);
            g
        };
        let provider = |t: f64| {
            if t < 5.0 {
                with_fast.clone()
            } else {
                without_fast.clone()
            }
        };
        let flows = [flow(0, 3, 1e6)];
        let r = NetSim::new(secs(20.0))
            .with_provider(&provider, 1.0)
            .run(&flows)
            .unwrap();
        // The flow keeps delivering after the handover to the slow path.
        assert!(
            r.delivery_ratio > 0.95,
            "rerouted flow should keep flowing: {}",
            r.delivery_ratio
        );
        assert!(r.delivered > 0);
        // Mean latency sits between the fast-only and slow-only values.
        assert!(r.mean_latency_s > 0.004 && r.mean_latency_s < 0.02);
    }

    #[test]
    fn total_blackout_counts_unroutable() {
        let g = diamond(5e6);
        let empty = Graph::new(4, 0);
        let provider = |t: f64| if t < 2.0 { g.clone() } else { empty.clone() };
        let flows = [flow(0, 3, 1e6)];
        let r = NetSim::new(secs(10.0))
            .with_provider(&provider, 1.0)
            .run(&flows)
            .unwrap();
        assert!(r.unroutable > 0, "post-blackout packets are unroutable");
        assert!(r.delivered > 0, "pre-blackout packets were delivered");
    }

    #[test]
    fn zero_resnapshot_interval_is_a_config_error() {
        let g = diamond(1e6);
        let provider = |_t: f64| g.clone();
        let err = NetSim::new(NetSimConfig::default())
            .with_provider(&provider, 0.0)
            .run(&[flow(0, 3, 1e5)])
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::NonPositive {
                field: "resnapshot_interval_s",
                value: 0.0
            }
        );
    }

    #[test]
    fn recorded_run_reproduces_the_plain_report_bit_for_bit() {
        let g = diamond(2e6);
        let flows = [
            FlowSpec::new(0, 3, 1e6, 1_200, TrafficKind::Poisson),
            flow(3, 0, 0.5e6),
        ];
        let sim = NetSim::new(NetSimConfig {
            seed: 11,
            ..secs(10.0)
        })
        .with_snapshot(&g);
        let plain = sim.run(&flows).unwrap();
        let mut rec = MemoryRecorder::new();
        let recorded = sim.run_recorded(&flows, &mut rec).unwrap();
        assert_eq!(plain, recorded, "telemetry must not perturb the sim");
        assert_eq!(
            plain.mean_latency_s.to_bits(),
            recorded.mean_latency_s.to_bits()
        );
        // Counters mirror the report.
        assert_eq!(rec.counter("netsim.generated"), plain.generated);
        assert_eq!(rec.counter("netsim.delivered"), plain.delivered);
        assert_eq!(rec.counter("netsim.dropped"), plain.dropped);
        // One latency sample per delivered packet, split across flows.
        let overall = rec.histogram("netsim.latency_s").unwrap();
        assert_eq!(overall.count() as u64, plain.delivered);
        let f0 = rec.histogram("netsim.flow.0.latency_s").unwrap().count();
        let f1 = rec.histogram("netsim.flow.1.latency_s").unwrap().count();
        assert_eq!((f0 + f1) as u64, plain.delivered);
        // The engine counters made it out.
        assert!(rec.counter("engine.events_processed") > 0);
        assert!(rec.maximum("engine.queue_depth_high_water").unwrap() >= 1.0);
        // Initial routing for two flows.
        assert!(rec.counter("routing.recomputes") >= 2);
    }

    #[test]
    fn recorded_adaptive_run_counts_replans() {
        let g = diamond(2e6);
        let flows = [flow(0, 3, 1.4e6), flow(0, 3, 1.4e6)];
        let sim = NetSim::new(NetSimConfig {
            routing: RoutingMode::Adaptive {
                replan_interval_s: 1.0,
            },
            ..secs(10.0)
        })
        .with_snapshot(&g);
        let plain = sim.run(&flows).unwrap();
        let mut rec = MemoryRecorder::new();
        let recorded = sim.run_recorded(&flows, &mut rec).unwrap();
        assert_eq!(plain, recorded);
        assert!(rec.counter("netsim.replans") >= 9, "one per interval");
        // Every replan re-routes both flows, plus the initial pass.
        assert!(rec.counter("routing.recomputes") >= 2 + 9 * 2);
        // The initial plan and every replan are one planner span each.
        let plans = rec.span_agg("netsim.plan_routes").unwrap();
        assert_eq!(plans.count, 1 + rec.counter("netsim.replans"));
        assert_eq!(plans.sim_s, 0.0);
    }

    // ---- timeline-driven runs ----

    /// A provider whose fast path flips between snapshots, plus a
    /// latency drift, so consecutive snapshots differ.
    fn churning_provider(t: f64) -> Graph {
        let mut g = Graph::new(4, 0);
        g.add_bidirectional(0, 2, 0.006, 5e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(2, 3, 0.006 + t * 1e-7, 5e6, 0, 0, LinkTech::Rf);
        if (t / 4.0).floor() as i64 % 2 == 0 {
            g.add_bidirectional(0, 1, 0.002, 5e6, 0, 0, LinkTech::Rf);
            g.add_bidirectional(1, 3, 0.002, 5e6, 0, 0, LinkTech::Rf);
        }
        g
    }

    #[test]
    fn timeline_run_matches_provider_run_bit_for_bit() {
        let flows = [flow(0, 3, 1e6), flow(3, 0, 0.5e6)];
        for routing in [
            RoutingMode::Proactive,
            RoutingMode::Adaptive {
                replan_interval_s: 2.5,
            },
        ] {
            let cfg = NetSimConfig {
                routing,
                ..secs(20.0)
            };
            let via_provider = NetSim::new(cfg)
                .with_provider(&churning_provider, 1.0)
                .run(&flows)
                .unwrap();
            let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 20.0, 2).unwrap();
            let via_timeline = NetSim::new(cfg).with_timeline(&tl).run(&flows).unwrap();
            assert_eq!(via_provider, via_timeline, "routing {routing:?}");
            assert_eq!(
                via_provider.mean_latency_s.to_bits(),
                via_timeline.mean_latency_s.to_bits()
            );
            assert_eq!(
                via_provider.p95_latency_s.to_bits(),
                via_timeline.p95_latency_s.to_bits()
            );
            assert_eq!(
                via_provider.max_link_utilization.to_bits(),
                via_timeline.max_link_utilization.to_bits()
            );
        }
    }

    #[test]
    fn timeline_run_with_faults_matches_provider_run() {
        let plan = FaultPlan::builder()
            .sat_outage(1usize, 3.0, 6.0)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 4);
        let flows = [flow(0, 3, 1e6)];
        let cfg = secs(15.0);
        let via_provider = NetSim::new(cfg)
            .with_provider(&churning_provider, 1.0)
            .with_faults(&events)
            .run(&flows)
            .unwrap();
        let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 15.0, 1).unwrap();
        let via_timeline = NetSim::new(cfg)
            .with_timeline(&tl)
            .with_faults(&events)
            .run(&flows)
            .unwrap();
        assert_eq!(via_provider, via_timeline);
    }

    #[test]
    fn faults_persist_across_resnapshots() {
        // Node 1 (on the fast path) fails for good at 2 s. A refresh to
        // the same graph must not bring it back: provider and timeline
        // runs equal the static run. Seed 2 puts no packet in flight
        // toward node 1 at 2 s, so the static run loses none to the
        // fault, and a dynamic run that loses any has routed over the
        // failed node again.
        let g = diamond(5e6);
        let plan = FaultPlan::builder()
            .sat_failure(1usize, 2.0)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 4);
        let flows = [flow(0, 3, 1.5e5)];
        let sim = NetSim::new(NetSimConfig {
            seed: 2,
            ..secs(10.0)
        })
        .with_faults(&events);
        let stat = sim.with_snapshot(&g).run(&flows).unwrap();
        let provider = |_t: f64| g.clone();
        let tl = TopologyTimeline::build(&provider, 0.0, 1.0, 10.0, 1).unwrap();
        for (name, dynamic) in [
            ("provider", sim.with_provider(&provider, 1.0)),
            ("timeline", sim.with_timeline(&tl)),
        ] {
            let r = dynamic.run(&flows).unwrap();
            assert_eq!(r.fault.packets_lost, 0, "{name}");
            assert_eq!(r, stat, "{name}");
        }
        assert_eq!((stat.fault.packets_lost, stat.generated), (0, 125));
        assert_eq!(stat.fault.reassociations, 1, "failover onto the bypass");
    }

    #[test]
    fn timeline_run_reports_delta_counters() {
        let flows = [flow(0, 3, 1e6)];
        let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 10.0, 1).unwrap();
        let mut rec = MemoryRecorder::new();
        NetSim::new(secs(10.0))
            .with_timeline(&tl)
            .run_recorded(&flows, &mut rec)
            .unwrap();
        let resnapshots = rec.counter("netsim.resnapshots");
        assert_eq!(resnapshots, 10);
        assert_eq!(rec.counter("netsim.timeline.deltas_applied"), resnapshots);
        assert!(
            rec.counter("netsim.resnapshot.links_kept") > 0,
            "the slow path persists across every refresh"
        );
        assert!(
            rec.counter("netsim.resnapshot.links_churned") > 0,
            "the fast path flips every 4 s"
        );
    }

    #[test]
    fn resnapshot_packet_drops_are_counted_dedicated() {
        // A saturated link that vanishes at the first resnapshot: its
        // queue dies with it and must show up under the dedicated
        // counter on both dynamic paths.
        let full = diamond(1e6);
        let empty = Graph::new(4, 0);
        let provider = move |t: f64| if t < 1.0 { full.clone() } else { empty.clone() };
        let flows = [flow(0, 3, 3e6)];
        let cfg = secs(4.0);
        let mut rec_p = MemoryRecorder::new();
        let via_provider = NetSim::new(cfg)
            .with_provider(&provider, 1.0)
            .run_recorded(&flows, &mut rec_p)
            .unwrap();
        assert!(
            rec_p.counter("netsim.resnapshot.packets_dropped") > 0,
            "the saturated queue died at the refresh"
        );
        let tl = TopologyTimeline::build(&provider, 0.0, 1.0, 4.0, 1).unwrap();
        let mut rec_t = MemoryRecorder::new();
        let via_timeline = NetSim::new(cfg)
            .with_timeline(&tl)
            .run_recorded(&flows, &mut rec_t)
            .unwrap();
        assert_eq!(via_provider, via_timeline);
        assert_eq!(
            rec_p.counter("netsim.resnapshot.packets_dropped"),
            rec_t.counter("netsim.resnapshot.packets_dropped"),
            "both dynamic paths account the same churn losses"
        );
    }

    #[test]
    fn short_timeline_is_a_config_error() {
        let flows = [flow(0, 3, 1e6)];
        // Covers only 5 s of a 20 s run.
        let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 5.0, 1).unwrap();
        let err = NetSim::new(secs(20.0))
            .with_timeline(&tl)
            .run(&flows)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::IndexOutOfRange {
                field: "timeline.delta_count",
                index: 5,
                len: 5
            }
        );
    }

    #[test]
    fn long_run_on_a_short_timeline_fails_fast() {
        let flows = [flow(0, 3, 1e6)];
        let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 4.0, 1).unwrap();
        let err = NetSim::new(secs(1e11))
            .with_timeline(&tl)
            .run(&flows)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::IndexOutOfRange {
                field: "timeline.delta_count",
                index: 4,
                len: 4
            }
        );
    }

    #[test]
    fn infinite_duration_with_a_timeline_is_a_config_error() {
        let flows = [flow(0, 3, 1e6)];
        let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 4.0, 1).unwrap();
        let err = NetSim::new(secs(f64::INFINITY))
            .with_timeline(&tl)
            .run(&flows)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::NotFinite {
                field: "duration_s"
            }
        );
    }

    #[test]
    fn offset_timeline_is_a_config_error() {
        let flows = [flow(0, 3, 1e6)];
        let tl = TopologyTimeline::build(&churning_provider, 5.0, 1.0, 40.0, 1).unwrap();
        let err = NetSim::new(NetSimConfig::default())
            .with_timeline(&tl)
            .run(&flows)
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::OutOfRange {
                field: "timeline.start_s",
                ..
            }
        ));
    }

    /// One flow over a single 1 Mb/s link, default config.
    fn run_one_link(f: FlowSpec) -> Result<NetSimReport, ConfigError> {
        let mut g = Graph::new(2, 0);
        g.add_bidirectional(0, 1, 0.002, 1e6, 0, 0, LinkTech::Rf);
        NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .run(&[f])
    }

    #[test]
    fn subnormal_cbr_rate_is_a_config_error() {
        // The gap `packet_bytes·8 / rate_bps` overflows to infinity.
        let f = FlowSpec::new(0, 1, 1e-310, 1_500, TrafficKind::Cbr);
        assert_eq!(
            run_one_link(f).unwrap_err(),
            ConfigError::NotFinite {
                field: "flow.rate_bps"
            }
        );
    }

    #[test]
    fn subnormal_poisson_rate_is_a_config_error() {
        let f = FlowSpec::new(0, 1, 1e-310, 1_500, TrafficKind::Poisson);
        assert_eq!(
            run_one_link(f).unwrap_err(),
            ConfigError::NotFinite {
                field: "flow.rate_bps"
            }
        );
    }

    #[test]
    fn onoff_flow_whose_next_burst_overflows_stops_injecting() {
        // Under the default seed the first OFF draw pushes the next
        // arrival past f64::MAX: it is never scheduled, and the report
        // counts the opening burst alone.
        let kind = TrafficKind::OnOff {
            mean_on_s: 1e-3,
            mean_off_s: 1e308,
        };
        let r = run_one_link(FlowSpec::new(0, 1, 1e6, 1_500, kind)).unwrap();
        assert!(r.generated >= 1);
        assert_eq!(r.generated, r.delivered);
    }

    // ---- fault-injection runs ----

    fn compile_plan(plan: &FaultPlan, n_nodes: usize) -> Vec<TopologyEvent> {
        let topo = FaultTopology::homogeneous(n_nodes, 0, OperatorId(0));
        plan.compile(&topo).unwrap()
    }

    #[test]
    fn empty_fault_plan_reproduces_the_report_bit_for_bit() {
        let g = diamond(2e6);
        let flows = [FlowSpec::new(0, 3, 1e6, 1_200, TrafficKind::Poisson)];
        let sim = NetSim::new(NetSimConfig {
            seed: 5,
            ..secs(10.0)
        })
        .with_snapshot(&g);
        let plain = sim.run(&flows).unwrap();
        let faulted = sim.with_faults(&[]).run(&flows).unwrap();
        assert_eq!(plain, faulted);
        assert_eq!(
            plain.mean_latency_s.to_bits(),
            faulted.mean_latency_s.to_bits()
        );
        assert_eq!(faulted.fault, FaultImpact::default());
    }

    #[test]
    fn transient_outage_reroutes_and_recovers() {
        // Node 1 (on the fast path) dies at t=5 and recovers at t=15.
        let g = diamond(5e6);
        let plan = FaultPlan::builder()
            .sat_outage(1usize, 5.0, 10.0)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 4);
        let flows = [flow(0, 3, 1e6)];
        let r = NetSim::new(secs(30.0))
            .with_snapshot(&g)
            .with_faults(&events)
            .run(&flows)
            .unwrap();
        assert_eq!(r.fault.events_applied, 2);
        assert!(r.fault.reassociations >= 1, "flow re-routed around node 1");
        assert!(
            r.delivery_ratio > 0.95,
            "bypass keeps the flow alive: {}",
            r.delivery_ratio
        );
        // Availability: 1 of 4 nodes down for 10 of 30 s.
        let expect = 1.0 - 10.0 / (30.0 * 4.0);
        assert!((r.fault.node_availability - expect).abs() < 1e-9);
        assert_eq!(r.fault.mttr_s, Some(10.0));
    }

    #[test]
    fn permanent_failure_of_the_only_route_strands_the_flow() {
        // Chain 0-1-2: node 1 is a single point of failure.
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.002, 5e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(1, 2, 0.002, 5e6, 0, 0, LinkTech::Rf);
        let plan = FaultPlan::builder()
            .sat_failure(1usize, 5.0)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 3);
        let flows = [flow(0, 2, 1e6)];
        let r = NetSim::new(secs(20.0))
            .with_snapshot(&g)
            .with_faults(&events)
            .run(&flows)
            .unwrap();
        assert!(r.unroutable > 0, "post-fault packets have no route");
        assert!(r.delivered > 0, "pre-fault packets were delivered");
        assert!(r.delivery_ratio < 0.5);
        assert!(r.fault.node_availability < 1.0);
        assert_eq!(r.fault.mttr_s, None, "nothing recovered");
    }

    #[test]
    fn link_flap_loses_only_the_flapping_links_packets() {
        let g = diamond(5e6);
        // Flap the 1-3 link; flow re-routes during down phases.
        let plan = FaultPlan::builder()
            .link_flap(1usize, 3usize, 5.0, 2.0, 3.0, 3)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 4);
        let flows = [flow(0, 3, 1e6)];
        let r = NetSim::new(secs(30.0))
            .with_snapshot(&g)
            .with_faults(&events)
            .run(&flows)
            .unwrap();
        assert!(r.delivery_ratio > 0.9, "ratio {}", r.delivery_ratio);
        assert!(r.fault.reassociations >= 1);
        // Links, not nodes, failed: availability is untouched.
        assert_eq!(r.fault.node_availability, 1.0);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let g = diamond(2e6);
        let plan = FaultPlan::builder()
            .seed(9)
            .random_sat_outages(200.0, 3.0, 0.0, 20.0)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 4);
        let flows = [FlowSpec::new(0, 3, 1e6, 1_200, TrafficKind::Poisson)];
        let sim = NetSim::new(NetSimConfig {
            seed: 3,
            ..secs(20.0)
        })
        .with_snapshot(&g)
        .with_faults(&events);
        let a = sim.run(&flows).unwrap();
        let b = sim.run(&flows).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_faulted_run_reports_the_fault_block() {
        let g = diamond(5e6);
        let plan = FaultPlan::builder()
            .sat_outage(1usize, 5.0, 10.0)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 4);
        let flows = [flow(0, 3, 1e6)];
        let sim = NetSim::new(secs(30.0))
            .with_snapshot(&g)
            .with_faults(&events);
        let plain = sim.run(&flows).unwrap();
        let mut rec = MemoryRecorder::new();
        let recorded = sim.run_recorded(&flows, &mut rec).unwrap();
        assert_eq!(plain, recorded);
        assert_eq!(rec.counter("netsim.fault.events_applied"), 2);
        assert_eq!(
            rec.gauge_value("netsim.fault.node_availability").unwrap(),
            plain.fault.node_availability
        );
        assert_eq!(
            rec.counter("netsim.fault.reassociations"),
            plain.fault.reassociations
        );
    }

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n, 0);
        for i in 0..n {
            g.add_bidirectional(i, (i + 1) % n, 0.004, 1e9, 0, 0, LinkTech::Rf);
        }
        g
    }

    /// The work graph after the fault handler applied `kinds`, in order,
    /// to a static run on `g`.
    fn masked_after(g: &Graph, kinds: &[TopologyEventKind]) -> Graph {
        let events: Vec<TopologyEvent> = kinds
            .iter()
            .map(|&kind| TopologyEvent {
                at_s: 1.0,
                seq: 0,
                kind,
            })
            .collect();
        let cfg = NetSimConfig::default();
        let mut rec = NullRecorder;
        let source = TopologySource::Static(g);
        let mut state = SimState::new(source, g.clone(), &[], &[], &cfg, &events, &mut rec);
        for idx in 0..events.len() {
            state.fault(1.0, idx);
        }
        state.work_graph
    }

    #[test]
    fn fault_mask_removes_and_restores_a_node() {
        use TopologyEventKind::{NodeDown, NodeUp};
        let g = ring(5);
        let down = masked_after(&g, &[NodeDown(NodeId(2))]);
        assert_eq!(down.degree(2usize), 0);
        assert_eq!(down.edge_count(), g.edge_count() - 4);
        assert_eq!(
            masked_after(&g, &[NodeDown(NodeId(2)), NodeUp(NodeId(2))]),
            g
        );
    }

    #[test]
    fn fault_mask_duplicate_down_is_idempotent() {
        use TopologyEventKind::{NodeDown, NodeUp};
        let g = ring(4);
        // One up restores a node that went down twice.
        let twice = [NodeDown(NodeId(1)), NodeDown(NodeId(1)), NodeUp(NodeId(1))];
        assert_eq!(masked_after(&g, &twice), g);
    }

    #[test]
    fn fault_mask_up_without_down_is_a_no_op() {
        use TopologyEventKind::{LinkDown, LinkUp, NodeUp};
        let g = ring(4);
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        // Ups with no matching down, and a down of a link the snapshot
        // does not have.
        assert_eq!(masked_after(&g, &[NodeUp(n0), LinkUp(n0, n1)]), g);
        assert_eq!(masked_after(&g, &[LinkDown(n0, n2)]), g);
    }

    #[test]
    fn fault_mask_link_fault_on_dead_node_is_a_no_op() {
        use TopologyEventKind::{LinkDown, LinkUp, NodeDown, NodeUp};
        let g = ring(4);
        let (n0, n1) = (NodeId(0), NodeId(1));
        // A link fault on a down endpoint is ignored: its up does not
        // bring back edges the node outage holds, and the node's own up
        // restores the link.
        let shadowed = masked_after(&g, &[NodeDown(n0), LinkDown(n0, n1), LinkUp(n0, n1)]);
        assert_eq!(shadowed.degree(0usize), 0);
        assert!(shadowed.find_edge(1usize, 0usize).is_none());
        let restored = [NodeDown(n0), LinkDown(n0, n1), NodeUp(n0)];
        assert_eq!(masked_after(&g, &restored), g);
    }

    #[test]
    fn fault_mask_link_keys_are_direction_insensitive() {
        use TopologyEventKind::{LinkDown, LinkUp};
        let g = ring(4);
        let down = masked_after(&g, &[LinkDown(NodeId(2), NodeId(1))]);
        assert!(down.find_edge(1usize, 2usize).is_none());
        assert!(down.find_edge(2usize, 1usize).is_none());
        assert_eq!(down.edge_count(), g.edge_count() - 2);
        let flap = [LinkDown(NodeId(2), NodeId(1)), LinkUp(NodeId(1), NodeId(2))];
        assert_eq!(masked_after(&g, &flap), g);
    }

    #[test]
    fn forward_onto_a_failed_link_is_a_fault_loss() {
        // Chain 0 - 1 - 2 with a 10 ms first hop. When link 1-2 fails,
        // the packets still propagating on 0 -> 1 arrive at a dead next
        // hop, and each is a fault loss, not only a drop.
        let mut g = Graph::new(3, 0);
        g.add_bidirectional(0, 1, 0.010, 1e9, 0, 0, LinkTech::Rf);
        g.add_bidirectional(1, 2, 0.002, 1e9, 0, 0, LinkTech::Rf);
        let events = [TopologyEvent {
            at_s: 5.0,
            seq: 0,
            kind: TopologyEventKind::LinkDown(NodeId(1), NodeId(2)),
        }];
        let r = NetSim::new(secs(10.0))
            .with_snapshot(&g)
            .with_faults(&events)
            .run(&[flow(0, 2, 5e6)])
            .unwrap();
        assert!(r.fault.packets_lost >= 3, "lost {}", r.fault.packets_lost);
        assert_eq!(r.dropped, r.fault.packets_lost);
    }

    #[test]
    fn out_of_range_fault_event_is_a_config_error() {
        let g = diamond(1e6);
        let events = [TopologyEvent {
            at_s: 1.0,
            seq: 0,
            kind: TopologyEventKind::NodeDown(NodeId(77)),
        }];
        let err = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .with_faults(&events)
            .run(&[flow(0, 3, 1e5)])
            .unwrap_err();
        assert!(matches!(err, ConfigError::IndexOutOfRange { .. }));
    }

    #[test]
    fn onoff_flow_preserves_long_run_mean_rate() {
        let g = diamond(10e6);
        // Peak 2 Mbit/s with 1:3 on/off duty → 500 kbit/s mean.
        let f = FlowSpec::new(
            0,
            3,
            2e6,
            1_500,
            TrafficKind::OnOff {
                mean_on_s: 1.0,
                mean_off_s: 3.0,
            },
        );
        let cfg = secs(400.0);
        let r = NetSim::new(cfg).with_snapshot(&g).run(&[f]).unwrap();
        assert!(r.delivery_ratio > 0.99, "ratio {}", r.delivery_ratio);
        let measured = r.generated as f64 * 1_500.0 * 8.0 / 400.0;
        assert!(
            (measured - 5e5).abs() / 5e5 < 0.2,
            "mean rate {measured} vs 500k"
        );
        // A pure-CBR flow at the same peak would generate ~4x as much.
        let cbr = NetSim::new(cfg)
            .with_snapshot(&g)
            .run(&[flow(0, 3, 2e6)])
            .unwrap();
        assert!(cbr.generated as f64 > 2.5 * r.generated as f64);
    }

    #[test]
    fn onoff_flow_rejects_nonpositive_periods() {
        let g = diamond(1e6);
        let f = FlowSpec::new(
            0,
            3,
            1e6,
            1_500,
            TrafficKind::OnOff {
                mean_on_s: 0.0,
                mean_off_s: 1.0,
            },
        );
        let err = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .run(&[f])
            .unwrap_err();
        assert!(matches!(err, ConfigError::NonPositive { .. }));
    }

    #[test]
    fn demand_workload_validates_tick_times() {
        assert!(DemandWorkload::new(vec![(0.0, vec![]), (5.0, vec![])]).is_ok());
        assert!(DemandWorkload::new(vec![(5.0, vec![]), (5.0, vec![])]).is_err());
        assert!(DemandWorkload::new(vec![(-1.0, vec![])]).is_err());
        assert!(DemandWorkload::new(vec![(f64::NAN, vec![])]).is_err());
    }

    #[test]
    fn empty_flows_need_a_demand_workload() {
        let g = diamond(1e6);
        let err = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .run(&[])
            .unwrap_err();
        assert!(matches!(err, ConfigError::Empty { field: "flows" }));
        let demand = DemandWorkload::new(vec![(0.0, vec![flow(0, 3, 1e5)])]).unwrap();
        let r = NetSim::new(NetSimConfig::default())
            .with_snapshot(&g)
            .with_demand(&demand)
            .run(&[])
            .unwrap();
        assert!(r.delivered > 0);
    }

    #[test]
    fn demand_batches_activate_and_retire() {
        let g = diamond(10e6);
        // Batch 0 runs [0, 8), batch 1 runs [8, 20): rates differ 4x,
        // so per-phase generation rates must differ accordingly.
        let demand = DemandWorkload::new(vec![
            (0.0, vec![flow(0, 3, 4e5)]),
            (8.0, vec![flow(0, 3, 1e5)]),
        ])
        .unwrap();
        let mut rec = MemoryRecorder::new();
        let r = NetSim::new(secs(20.0))
            .with_snapshot(&g)
            .with_demand(&demand)
            .run_recorded(&[], &mut rec)
            .unwrap();
        assert_eq!(rec.counter("netsim.demand.ticks"), 2);
        assert_eq!(rec.counter("netsim.demand.flows_activated"), 2);
        assert_eq!(rec.counter("netsim.demand.flows_retired"), 1);
        // Phase 0: 8 s at 400 kbit/s ≈ 267 pkts; phase 1: 12 s at
        // 100 kbit/s ≈ 100 pkts. A run that never retired batch 0
        // would generate ~660.
        let expect = (8.0 * 4e5 + 12.0 * 1e5) / (1_500.0 * 8.0);
        assert!(
            (r.generated as f64 - expect).abs() < 0.1 * expect,
            "generated {} vs {expect}",
            r.generated
        );
        assert!(r.delivery_ratio > 0.99);
    }

    #[test]
    fn demand_ticks_past_duration_never_activate() {
        let g = diamond(1e6);
        let demand = DemandWorkload::new(vec![
            (0.0, vec![flow(0, 3, 1e5)]),
            (100.0, vec![flow(0, 3, 9e6)]),
        ])
        .unwrap();
        let r = NetSim::new(secs(10.0))
            .with_snapshot(&g)
            .with_demand(&demand)
            .run(&[])
            .unwrap();
        // Only the first batch ever injects: ~83 packets, not
        // thousands from the 9 Mbit/s late batch.
        assert!(r.generated < 120, "generated {}", r.generated);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn demand_arrival_past_f64_max_is_never_scheduled() {
        // A batch activating just below f64::MAX with a ~1e308 s packet
        // gap: its first arrival (phase drawn from the gap) overflows.
        let g = diamond(1e6);
        let slow = FlowSpec::new(0, 3, 1.2e-304, 1_500, TrafficKind::Cbr);
        let demand = DemandWorkload::new(vec![(1.79e308, vec![slow])]).unwrap();
        let r = NetSim::new(secs(f64::MAX))
            .with_snapshot(&g)
            .with_demand(&demand)
            .run(&[])
            .unwrap();
        assert_eq!(r.generated, 0);
    }

    #[test]
    fn demand_runs_are_seed_deterministic() {
        let g = diamond(10e6);
        let demand = DemandWorkload::new(vec![
            (
                0.0,
                vec![
                    flow(0, 3, 3e5),
                    FlowSpec::new(
                        1,
                        2,
                        8e5,
                        1_200,
                        TrafficKind::OnOff {
                            mean_on_s: 0.5,
                            mean_off_s: 1.5,
                        },
                    ),
                ],
            ),
            (
                6.0,
                vec![FlowSpec::new(2, 0, 2e5, 900, TrafficKind::Poisson)],
            ),
        ])
        .unwrap();
        let cfg = NetSimConfig {
            seed: 77,
            ..secs(15.0)
        };
        let base = [flow(3, 1, 1e5)];
        let run = || {
            NetSim::new(cfg)
                .with_snapshot(&g)
                .with_demand(&demand)
                .run(&base)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.generated > 0 && a.delivered > 0);
    }
}
