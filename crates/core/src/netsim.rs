//! Packet-level network simulation over a constellation snapshot.
//!
//! §5(2): "Can we design new routing protocols that factor in the more
//! unpredictable components of user traffic, which cannot be accounted
//! for by proactive routing protocols computed based on known satellite
//! trajectories?" Answering that requires more than the analytic
//! queueing estimate in `openspace-net` — it needs packets in queues.
//!
//! This module runs a store-and-forward discrete-event simulation on a
//! topology snapshot: every directed link has a finite drop-tail queue
//! and a serialization rate; flows inject CBR or Poisson packets; the
//! router is either **proactive** (routes fixed from the known topology,
//! load-blind — §2.2's beginner system) or **adaptive** (periodically
//! re-planned against measured link utilization — the end-to-end
//! approach the paper calls for). Deterministic under a seed.
//!
//! All capabilities compose through one driver, [`NetSim`]: a validated
//! [`NetSimConfig`], an optional fault plan ([`NetSim::with_faults`] —
//! packets queued on or in flight toward failed elements are lost,
//! surviving flows re-route, and the report's [`FaultImpact`] section
//! accounts for availability, repair time, and flow re-association),
//! and one topology source — a static snapshot
//! ([`NetSim::with_snapshot`]), an on-demand
//! [`TopologyProvider`] ([`NetSim::with_provider`]), or a precomputed
//! [`TopologyTimeline`] ([`NetSim::with_timeline`]).
//!
//! The timeline path replays compact
//! [`GraphDelta`](openspace_net::topology::GraphDelta)s at every
//! `Ev::Resnapshot` instead of rebuilding the snapshot from orbital
//! state: the patched graph is bitwise-identical to a fresh provider
//! call (the timeline extracts its deltas *from* fresh builds), link
//! state is reused for untouched links, and the route planner is
//! invalidated selectively where a conservative soundness argument
//! allows (see [`RoutePlanner::retain_for_changed_rows`]) — so the
//! resulting [`NetSimReport`] is bit-for-bit the one the full-rebuild
//! path produces, pinned by `tests/tests/netsim_delta_equivalence.rs`.

use openspace_net::outage::OutageTracker;
use openspace_net::routing::{latency_weight, QosRequirement, RoutePlanner};
use openspace_net::timeline::{TopologyProvider, TopologyTimeline};
use openspace_net::topology::{Graph, NodeId};
use openspace_sim::config::{require_positive, ConfigError};
use openspace_sim::engine::EventQueue;
use openspace_sim::fault::{TopologyEvent, TopologyEventKind};
use openspace_sim::rng::SimRng;
use openspace_sim::stats::Summary;
use openspace_telemetry::{NullRecorder, Recorder};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Traffic model of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficKind {
    /// Constant bit rate.
    Cbr,
    /// Poisson arrivals at the same mean rate.
    Poisson,
    /// Exponential on/off bursts: during an ON period packets leave
    /// back-to-back at `rate_bps` (the *peak* rate); OFF periods are
    /// silent. The first packet of every ON period goes out the
    /// instant the period opens, matching `sim::traffic::OnOffSource`.
    OnOff {
        /// Mean ON-period duration (s).
        mean_on_s: f64,
        /// Mean OFF-period duration (s).
        mean_off_s: f64,
    },
}

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
            if !t.is_finite() {
                return Err(ConfigError::NotFinite {
                    field: "demand.tick_s",
                });
            }
            if *t < 0.0 {
                return Err(ConfigError::Negative {
                    field: "demand.tick_s",
                    value: *t,
                });
            }
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
/// for validated construction, or use [`Default`] and struct update.
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
        let cfg = self.cfg;
        require_positive("duration_s", cfg.duration_s)?;
        if cfg.queue_capacity_bytes == 0 {
            return Err(ConfigError::NonPositive {
                field: "queue_capacity_bytes",
                value: 0.0,
            });
        }
        if let RoutingMode::Adaptive { replan_interval_s } = cfg.routing {
            require_positive("replan_interval_s", replan_interval_s)?;
        }
        Ok(cfg)
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
#[derive(Debug, Clone, PartialEq)]
pub struct NetSimReport {
    /// Packets injected.
    pub generated: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Packets dropped at full queues (includes fault losses).
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
    /// The node sequence of the compiled route (for arrival-node and
    /// delivery checks).
    nodes: Rc<[NodeId]>,
    /// The per-hop link indices of the compiled route: hop `h` forwards
    /// on `links[h]`, by array index instead of hashing a node pair.
    links: Rc<[LinkId]>,
    hop: u32,
    /// Index into the flow list, for per-flow latency telemetry.
    flow: u32,
}

/// A route compiled against the run's [`LinkTable`]: the planner's node
/// path plus the [`LinkId`] of every hop. Compiled once per (re)plan;
/// packets carry `Rc` clones of both arrays.
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
    queue: VecDeque<PktId>,
    occupancy_bytes: u64,
    busy: bool,
    bits_sent: f64, // since `measured_since_s` (for utilization samples)
    /// Start of the current measurement window: link creation or the
    /// last replan reset — the divisor for utilization samples.
    measured_since_s: f64,
    util_ewma: f64,
    /// Whether the link currently exists in the topology. A dead slot
    /// is what a missing `(u, v)` key was in the old hash-map design:
    /// forwards onto it drop, pending `Depart`s fizzle.
    alive: bool,
    /// Mirror of the old `fault_removed` set membership: set when fault
    /// surgery removes the pair, cleared only by a fault *restore*
    /// (resnapshot revival intentionally leaves it, exactly like the
    /// set used to).
    fault_removed: bool,
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
}

/// The dense link table: every directed link the run has *ever* seen
/// occupies one slot, addressed by [`LinkId`]. The `(u, v) → LinkId`
/// index is **append-only**: a pair maps to the same slot for the whole
/// run, and topology churn flips the slot's `alive` flag (re-created
/// links *revive* their old slot with fresh state) instead of ever
/// reusing a slot for a different pair.
///
/// # Why pair-stable slots preserve hash-map semantics bit for bit
///
/// The old design keyed links by `(u, v)` in a `HashMap`; events and
/// routes named links by pair. Its observable semantics at every
/// lookup site were: *the pair is present* (act on its current state) or
/// *absent* (drop / fizzle). With pair-stable slots, `alive` is
/// exactly pair-presence — including the corner where a link vanishes
/// and the same pair is re-created while a stale `Depart` is still in
/// flight: the old code would find the *new* link under the old key and
/// pop its queue early, and the revived slot reproduces precisely that.
/// A freelist design would instead let the stale `Depart` act on an
/// unrelated pair's link — a silent divergence this design makes
/// impossible by construction.
struct LinkTable {
    slots: Vec<Link>,
    /// Pair of each slot (parallel to `slots`).
    pairs: Vec<(NodeId, NodeId)>,
    /// Append-only pair index; values are stable for the whole run.
    index: HashMap<(NodeId, NodeId), LinkId>,
    /// Number of alive slots — the old `links.len()`.
    alive_count: usize,
}

impl LinkTable {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            pairs: Vec::new(),
            index: HashMap::new(),
            alive_count: 0,
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

    /// The slot for `pair`, allocating a dead one on first sight.
    /// (Compilation of a freshly planned route only ever sees alive
    /// pairs — the table is synced to the graph before planning — but a
    /// dead allocation is still semantically exact: it is the "absent
    /// key", and forwards onto it drop.)
    fn id_for(&mut self, pair: (NodeId, NodeId)) -> LinkId {
        if let Some(&id) = self.index.get(&pair) {
            return id;
        }
        let id = LinkId(self.slots.len() as u32);
        self.slots.push(Link {
            capacity_bps: 0.0,
            latency_s: 0.0,
            queue: VecDeque::new(),
            occupancy_bytes: 0,
            busy: false,
            bits_sent: 0.0,
            measured_since_s: 0.0,
            util_ewma: 0.0,
            alive: false,
            fault_removed: false,
        });
        self.pairs.push(pair);
        self.index.insert(pair, id);
        id
    }

    /// Bring `pair` alive with fresh-link state (the old
    /// `insert(fresh_link(..))`): empty queue, EWMA reset, measurement
    /// window starting now. Like the map insert it replaces, this also
    /// covers overwriting a still-alive link (a fault restore can race a
    /// resnapshot revival): the old queue's packets are discarded
    /// uncounted, exactly as the dropped map entry's were. Preserves
    /// `fault_removed` — the old design's fault set was independent of
    /// the link map.
    fn revive(
        &mut self,
        pair: (NodeId, NodeId),
        capacity_bps: f64,
        latency_s: f64,
        now_s: f64,
        slab: &mut PktSlab,
    ) {
        let id = self.id_for(pair);
        if !self.slots[id.0 as usize].alive {
            self.alive_count += 1;
        }
        let link = &mut self.slots[id.0 as usize];
        for pid in link.queue.drain(..) {
            slab.free.push(pid.0);
        }
        link.capacity_bps = capacity_bps;
        link.latency_s = latency_s;
        link.occupancy_bytes = 0;
        link.busy = false;
        link.bits_sent = 0.0;
        link.measured_since_s = now_s;
        link.util_ewma = 0.0;
        link.alive = true;
    }

    /// Kill `pair`'s slot if alive (the old `remove(&pair)`), freeing
    /// its queued packets into `slab`. Returns how many packets died
    /// with the queue, or `None` if the pair was not alive.
    fn kill(&mut self, pair: (NodeId, NodeId), slab: &mut PktSlab) -> Option<u64> {
        let &id = self.index.get(&pair)?;
        let link = &mut self.slots[id.0 as usize];
        if !link.alive {
            return None;
        }
        let queued = link.queue.len() as u64;
        for pid in link.queue.drain(..) {
            slab.free.push(pid.0);
        }
        link.occupancy_bytes = 0;
        link.busy = false;
        link.alive = false;
        self.alive_count -= 1;
        Some(queued)
    }

    /// Alive `(pair, id)` entries in sorted pair order — the
    /// deterministic iteration the replan path needs (the old code
    /// sorted the hash map's keys for the same reason).
    fn sorted_alive(&self) -> Vec<((NodeId, NodeId), LinkId)> {
        let mut out: Vec<((NodeId, NodeId), LinkId)> = self
            .index
            .iter()
            .filter(|(_, &id)| self.slots[id.0 as usize].alive)
            .map(|(&pair, &id)| (pair, id))
            .collect();
        out.sort_unstable();
        out
    }

    /// Sync the table to a fresh snapshot — the old `rebuild_links`:
    /// links present in both keep queue/EWMA (capacity and latency
    /// refreshed), links only in the graph come up fresh, links only in
    /// the table die and lose their queues. Returns
    /// `(links_kept, links_churned, packets_dropped)`.
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
                    self.revive((NodeId(u), e.to), e.capacity_bps, e.latency_s, now, slab);
                }
            }
        }
        let mut lost = 0u64;
        for (idx, &was_seen) in seen.iter().enumerate() {
            if self.slots[idx].alive && !was_seen {
                churned += 1;
                lost += self
                    .kill(self.pairs[idx], slab)
                    .expect("alive slot kills cleanly");
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
    /// A precomputed timeline replayed by delta application.
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
    /// timeline's step, but each refresh *applies the precomputed
    /// delta* instead of rebuilding the snapshot — bit-identical
    /// reports, a fraction of the work. The timeline must start at
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
    /// restore links with empty queues. An empty stream changes
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
                // Replay the event-schedule accumulation to count the
                // resnapshots this run will fire; the timeline must
                // hold a delta for each.
                let mut needed = 0usize;
                let mut t = tl.step_s();
                while t <= self.cfg.duration_s {
                    needed += 1;
                    let next = t + tl.step_s();
                    if next == t {
                        break; // fp-stalled accumulation cannot fire more events
                    }
                    t = next;
                }
                if tl.delta_count() < needed {
                    return Err(ConfigError::IndexOutOfRange {
                        field: "timeline.delta_count",
                        index: needed,
                        len: tl.delta_count(),
                    });
                }
            }
        }
        run_netsim_core(source, flows, &self.cfg, self.events, self.demand, rec)
    }
}

fn validate(
    graph: &Graph,
    flows: &[FlowSpec],
    cfg: &NetSimConfig,
    events: &[TopologyEvent],
) -> Result<(), ConfigError> {
    if flows.is_empty() {
        return Err(ConfigError::Empty { field: "flows" });
    }
    require_positive("duration_s", cfg.duration_s)?;
    let n = graph.node_count();
    for f in flows {
        for (field, node) in [("flow.src", f.src), ("flow.dst", f.dst)] {
            if node.0 >= n {
                return Err(ConfigError::IndexOutOfRange {
                    field,
                    index: node.0,
                    len: n,
                });
            }
        }
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
    if let RoutingMode::Adaptive { replan_interval_s } = cfg.routing {
        require_positive("replan_interval_s", replan_interval_s)?;
    }
    for ev in events {
        let check = |node: NodeId| -> Result<(), ConfigError> {
            if node.0 >= n {
                return Err(ConfigError::IndexOutOfRange {
                    field: "fault_event.node",
                    index: node.0,
                    len: n,
                });
            }
            Ok(())
        };
        match ev.kind {
            TopologyEventKind::NodeDown(a) | TopologyEventKind::NodeUp(a) => check(a)?,
            TopologyEventKind::LinkDown(a, b) | TopologyEventKind::LinkUp(a, b) => {
                check(a)?;
                check(b)?;
            }
            TopologyEventKind::OperatorWithdrawn(_) => {}
        }
    }
    Ok(())
}

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
    let graph = &graph;
    // Base flows plus demand batches, concatenated with stable global
    // indices: flow `i` always draws `SimRng::substream(cfg.seed, i)`
    // no matter when (or whether) its batch activates, so reports are
    // bit-reproducible for any demand content.
    let base_count = flows.len();
    let mut all_flows: Vec<FlowSpec> = flows.to_vec();
    let mut demand_ranges: Vec<(f64, std::ops::Range<usize>)> = Vec::new();
    if let Some(demand) = demand {
        for (t, batch) in demand.ticks() {
            let start = all_flows.len();
            all_flows.extend_from_slice(batch);
            demand_ranges.push((*t, start..all_flows.len()));
        }
    }
    let flows: &[FlowSpec] = &all_flows;
    validate(graph, flows, cfg, events)?;
    let resnapshot_interval = match source {
        TopologySource::Static(_) => None,
        TopologySource::Provider { interval_s, .. } => Some(interval_s),
        TopologySource::Timeline(tl) => Some(tl.step_s()),
    };
    // The timeline path patches a *pristine* mirror of the provider's
    // snapshots — never touched by load writes or fault surgery — so
    // `pristine.clone()` at a resnapshot reproduces, bit for bit, the
    // `provider.topology_at(now)` assignment of the rebuild path.
    let mut pristine: Option<Graph> = match source {
        TopologySource::Timeline(tl) => Some(tl.base().clone()),
        _ => None,
    };
    // Cursor into the timeline's delta sequence: the k-th resnapshot
    // event applies delta k (coverage validated by the driver).
    let mut tick: usize = 0;

    // Per-flow histogram keys are only materialized when someone is
    // listening — a NullRecorder run never formats a string — and even
    // then lazily, on a flow's first delivery: a million-flow demand
    // run allocates strings only for flows that actually deliver.
    let mut flow_latency_keys: Vec<Option<String>> = if rec.enabled() {
        vec![None; flows.len()]
    } else {
        Vec::new()
    };

    // Packet slab and the dense link table (see their docs for the
    // equivalence argument vs the old `HashMap<(NodeId, NodeId), Link>`).
    let mut slab = PktSlab::default();
    let mut table = LinkTable::new();
    for u in 0..graph.node_count() {
        for e in graph.edges(u) {
            table.revive(
                (NodeId(u), e.to),
                e.capacity_bps,
                e.latency_s,
                0.0,
                &mut slab,
            );
        }
    }

    // All route computation goes through one batched planner: requests
    // are grouped by source, flows sharing a source share one
    // shortest-path tree, and the planner's scratch buffers persist
    // across replan/resnapshot/fault events. Every recompute site
    // invalidates the planner's tree cache first (loads or topology
    // changed); the recorder is threaded through so route work counts
    // toward `routing.recomputes` / `routing.nodes_visited` and the
    // `routing.planner.*` counters.
    let mut planner = RoutePlanner::new();
    let flow_idxs: Vec<usize> = (0..flows.len()).collect();
    // Initial routes: proactive latency paths for every flow, compiled
    // to LinkId form against the table.
    let mut work_graph = graph.clone();
    let mut routes: Vec<Option<CompiledRoute>> = plan_flow_routes(
        &mut planner,
        &work_graph,
        &mut table,
        flows,
        &flow_idxs,
        false,
        rec,
    );

    // Arrival processes.
    let mut rngs: Vec<SimRng> = (0..flows.len())
        .map(|i| SimRng::substream(cfg.seed, i as u64))
        .collect();

    // Activation flags and per-flow ON-period horizons (on/off flows
    // only). Base flows start active at t = 0; demand-batch flows
    // activate at their tick boundary and retire at the next one.
    let mut active: Vec<bool> = (0..flows.len()).map(|i| i < base_count).collect();
    let mut on_until: Vec<f64> = vec![0.0; flows.len()];

    let mut q: EventQueue<Ev> = EventQueue::new();
    for i in 0..base_count {
        let at = start_flow(&flows[i], &mut rngs[i], 0.0, &mut on_until[i]);
        q.schedule(at, Ev::Inject(i as u32));
    }
    let replan_interval = match cfg.routing {
        RoutingMode::Adaptive { replan_interval_s } => {
            q.schedule(replan_interval_s, Ev::Replan);
            Some(replan_interval_s)
        }
        RoutingMode::Proactive => None,
    };
    if let Some(interval) = resnapshot_interval {
        q.schedule(interval, Ev::Resnapshot);
    }
    for (idx, ev) in events.iter().enumerate() {
        if ev.at_s < cfg.duration_s {
            q.schedule(ev.at_s.max(0.0), Ev::Fault(idx as u32));
        }
    }
    for (k, (t, _)) in demand_ranges.iter().enumerate() {
        if *t < cfg.duration_s {
            q.schedule(*t, Ev::DemandTick(k as u32));
        }
    }

    let mut generated = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut unroutable = 0u64;
    let mut latency = Summary::new();
    let mut max_util: f64 = 0.0;

    // Fault machinery.
    let mut tracker = OutageTracker::new();
    let mut fault = FaultImpact::default();
    let mut down_nodes: HashSet<NodeId> = HashSet::new();
    // Ordered so the still-open outages close in `NodeId` order at run
    // end: float addition is not associative, and a hash order would
    // make `node_availability` vary from run to run.
    let mut down_since: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut downtime_total = 0.0f64;
    let mut repairs = 0u64;
    let mut repair_total = 0.0f64;
    let mut reassoc_latency_total = 0.0f64;
    let mut route_lost_at: Vec<Option<f64>> = vec![None; flows.len()];

    q.run_until(cfg.duration_s, |q, now, ev| match ev {
        Ev::Inject(i) => {
            let i = i as usize;
            if !active[i] {
                return; // flow retired at a demand tick: stop injecting
            }
            let f = &flows[i];
            generated += 1;
            if let Some(route) = &routes[i] {
                let pid = slab.alloc(Pkt {
                    bytes: f.packet_bytes,
                    created_s: now,
                    nodes: Rc::clone(&route.nodes),
                    links: Rc::clone(&route.links),
                    hop: 0,
                    flow: i as u32,
                });
                forward(
                    q,
                    &mut table,
                    &mut slab,
                    pid,
                    now,
                    cfg.queue_capacity_bytes,
                    &mut dropped,
                    &mut fault.packets_lost,
                );
            } else {
                unroutable += 1;
            }
            // Next arrival.
            let mean_gap = f.packet_bytes as f64 * 8.0 / f.rate_bps;
            let gap = match f.kind {
                TrafficKind::Cbr => mean_gap,
                TrafficKind::Poisson => rngs[i].exponential(1.0 / mean_gap),
                TrafficKind::OnOff {
                    mean_on_s,
                    mean_off_s,
                } => {
                    // Next slot one peak-interval on; if that falls past
                    // the ON horizon, jump OFF gaps until a slot lands
                    // inside an ON period — the first packet of each ON
                    // period goes out the instant the period opens
                    // (mirroring `sim::traffic::OnOffSource`).
                    let mut at = now + mean_gap;
                    while at > on_until[i] {
                        let off = rngs[i].exponential(1.0 / mean_off_s);
                        let on = rngs[i].exponential(1.0 / mean_on_s);
                        at = on_until[i] + off;
                        on_until[i] = at + on;
                    }
                    at - now
                }
            };
            // A gap drawn so long that the next arrival overflows to
            // infinity lands after `duration_s` anyway: the flow is done.
            let next = now + gap;
            if next.is_finite() {
                q.schedule(next, Ev::Inject(i as u32));
            }
        }
        Ev::DemandTick(k) => {
            let k = k as usize;
            // Retire the previous batch (its in-flight packets still
            // drain), then activate this one with fresh phases.
            if k > 0 {
                let (_, prev) = &demand_ranges[k - 1];
                let mut retired = 0u64;
                for i in prev.clone() {
                    if active[i] {
                        active[i] = false;
                        retired += 1;
                    }
                }
                rec.add("netsim.demand.flows_retired", retired);
            }
            let (_, range) = &demand_ranges[k];
            for i in range.clone() {
                active[i] = true;
                let at = start_flow(&flows[i], &mut rngs[i], now, &mut on_until[i]);
                if at.is_finite() {
                    q.schedule(at, Ev::Inject(i as u32));
                }
            }
            rec.add("netsim.demand.ticks", 1);
            rec.add("netsim.demand.flows_activated", range.len() as u64);
        }
        Ev::Depart(lid) => {
            // The link can vanish (fault, resnapshot) between the Depart
            // being scheduled and firing; its queue died with it. A dead
            // slot is the old map's missing key.
            let link = table.link_mut(lid);
            if !link.alive {
                return;
            }
            let Some(pid) = link.queue.pop_front() else {
                return;
            };
            let bytes = slab.get(pid).bytes;
            // Exact subtraction: occupancy is the byte-sum of the queue
            // by construction; a shortfall is an accounting bug that
            // must surface, not saturate away.
            debug_assert!(
                link.occupancy_bytes >= bytes as u64,
                "link occupancy {} under departing packet size {}",
                link.occupancy_bytes,
                bytes
            );
            link.occupancy_bytes -= bytes as u64;
            link.bits_sent += bytes as f64 * 8.0;
            let arrive_at = now + link.latency_s;
            // Start the next transmission if any. Scheduled *before* the
            // HopArrive: the relative seq numbers decide tie order when
            // serialization equals propagation time.
            if let Some(&next) = link.queue.front() {
                let tx = slab.get(next).bytes as f64 * 8.0 / link.capacity_bps;
                q.schedule(now + tx, Ev::Depart(lid));
            } else {
                link.busy = false;
            }
            q.schedule(arrive_at, Ev::HopArrive(pid));
        }
        Ev::HopArrive(pid) => {
            // The arrival node is the hop's endpoint, `nodes[hop + 1]` —
            // identical to the node the old fat event carried, since
            // planner paths are simple (each node appears once).
            let (hop, node) = {
                let p = slab.get(pid);
                (p.hop, p.nodes[p.hop as usize + 1])
            };
            if down_nodes.contains(&node) {
                // The receiver died while the packet was in flight.
                dropped += 1;
                fault.packets_lost += 1;
                slab.free(pid);
                return;
            }
            let p = slab.get_mut(pid);
            p.hop = hop + 1;
            if p.hop as usize + 1 == p.nodes.len() {
                let lat = now - p.created_s;
                let flow = p.flow as usize;
                slab.free(pid);
                delivered += 1;
                latency.add(lat);
                if rec.enabled() {
                    rec.observe("netsim.latency_s", lat);
                    let key = flow_latency_keys[flow]
                        .get_or_insert_with(|| format!("netsim.flow.{flow}.latency_s"));
                    rec.observe(key, lat);
                }
            } else {
                forward(
                    q,
                    &mut table,
                    &mut slab,
                    pid,
                    now,
                    cfg.queue_capacity_bytes,
                    &mut dropped,
                    &mut fault.packets_lost,
                );
            }
        }
        Ev::Replan => {
            let Some(interval) = replan_interval else {
                return; // replan only ticks in adaptive mode
            };
            // Measure utilization, fold into EWMA, push into the graph.
            // The per-link effects are independent today, but iterate in
            // sorted pair order anyway (the table's pair index is a
            // `HashMap` with a per-instance random hasher), so a future
            // non-commutative edit inside this loop cannot silently
            // break bit-reproducibility across processes.
            for ((u, v), lid) in table.sorted_alive() {
                let link = table.link_mut(lid);
                let util = link.bits_sent / interval / link.capacity_bps;
                // The report's max takes the raw sample (matching the
                // end-of-run sample); only the EWMA feeding
                // `Graph::set_load` is clamped, since a load fraction
                // must stay below 1.
                max_util = max_util.max(util);
                link.util_ewma = 0.5 * link.util_ewma + 0.5 * util.min(0.98);
                link.bits_sent = 0.0;
                link.measured_since_s = now;
                // A link can leave the topology between replans (contact
                // expiry on dynamic graphs); skip the stale entry
                // instead of dying inside the event loop.
                if work_graph.set_load(u, v, link.util_ewma.min(0.98)).is_err() {
                    continue;
                }
            }
            // Loads changed under the QoS weight: cached trees are stale.
            planner.invalidate();
            let fresh = plan_flow_routes(
                &mut planner,
                &work_graph,
                &mut table,
                flows,
                &flow_idxs,
                true,
                rec,
            );
            for (i, r) in fresh.into_iter().enumerate() {
                if let Some(r) = r {
                    routes[i] = Some(r);
                }
            }
            rec.add("netsim.replans", 1);
            q.schedule(now + interval, Ev::Replan);
        }
        Ev::Resnapshot => {
            let Some(interval) = resnapshot_interval else {
                return; // resnapshot only ticks in dynamic mode
            };
            let adaptive = replan_interval.is_some();
            match source {
                TopologySource::Static(_) => return, // unscheduled; unreachable
                TopologySource::Provider { provider, .. } => {
                    // Full rebuild: fresh snapshot, link state carried
                    // over by pair.
                    work_graph = provider.topology_at(now);
                    let (kept, churned, lost) = table.rebuild_sync(&work_graph, now, &mut slab);
                    dropped += lost;
                    rec.add("netsim.resnapshot.links_kept", kept);
                    rec.add("netsim.resnapshot.links_churned", churned);
                    rec.add("netsim.resnapshot.packets_dropped", lost);
                    // Recompute every route on the new topology.
                    planner.invalidate();
                }
                TopologySource::Timeline(tl) => {
                    let delta = tl
                        .delta(tick)
                        .expect("delta coverage validated before the run");
                    tick += 1;
                    let mirror = pristine
                        .as_mut()
                        .expect("timeline runs keep a pristine mirror");
                    mirror
                        .apply_delta(delta)
                        .expect("consecutive timeline deltas always chain");
                    rec.add("netsim.timeline.deltas_applied", 1);
                    if events.is_empty() {
                        // No fault surgery has touched the link table,
                        // so its alive pairs mirror the previous
                        // snapshot's edges exactly and the delta's edge
                        // views are a complete description of the churn:
                        // patch the table in place instead of rebuilding.
                        let removed = delta.edges_removed();
                        let added = delta.edges_added();
                        let kept = (table.alive_count - removed.len()) as u64;
                        let mut lost = 0u64;
                        for &(u, v) in &removed {
                            if let Some(queued) = table.kill((u, v), &mut slab) {
                                lost += queued;
                            }
                        }
                        dropped += lost;
                        for (u, e) in &added {
                            table.revive((*u, e.to), e.capacity_bps, e.latency_s, now, &mut slab);
                        }
                        for (u, e) in delta.edges_changed() {
                            if let Some(&id) = table.index.get(&(u, e.to)) {
                                let link = table.link_mut(id);
                                if link.alive {
                                    link.capacity_bps = e.capacity_bps;
                                    link.latency_s = e.latency_s;
                                }
                            }
                        }
                        rec.add("netsim.resnapshot.links_kept", kept);
                        rec.add(
                            "netsim.resnapshot.links_churned",
                            (removed.len() + added.len()) as u64,
                        );
                        rec.add("netsim.resnapshot.packets_dropped", lost);
                        work_graph = mirror.clone();
                        if adaptive {
                            // Loads were reset by the fresh work graph
                            // and cached trees were grown under the old
                            // loads: nothing can be kept.
                            planner.invalidate();
                        } else if !delta.is_empty() {
                            planner.retain_for_changed_rows(&delta.changed_nodes(), rec);
                        }
                        // Empty delta in proactive mode: the graph is
                        // bit-identical, every cached tree stays valid.
                    } else {
                        // Fault surgery may have removed links the
                        // fresh snapshot resurrects; fall back to the
                        // full pair-carrying rebuild (still skipping the
                        // from-orbital-state snapshot build).
                        work_graph = mirror.clone();
                        let (kept, churned, lost) = table.rebuild_sync(&work_graph, now, &mut slab);
                        dropped += lost;
                        rec.add("netsim.resnapshot.links_kept", kept);
                        rec.add("netsim.resnapshot.links_churned", churned);
                        rec.add("netsim.resnapshot.packets_dropped", lost);
                        planner.invalidate();
                    }
                }
            }
            routes = plan_flow_routes(
                &mut planner,
                &work_graph,
                &mut table,
                flows,
                &flow_idxs,
                adaptive,
                rec,
            );
            rec.add("netsim.resnapshots", 1);
            q.schedule(now + interval, Ev::Resnapshot);
        }
        Ev::Fault(idx) => {
            let event = &events[idx as usize];
            // Mutate the topology *before* any bookkeeping: events were
            // range-checked up front so application cannot fail here,
            // but if it ever did, returning first keeps `down_nodes` /
            // `down_since` consistent with the graph instead of
            // corrupting availability/MTTR accounting with a
            // half-applied event.
            let Ok(delta) = tracker.apply(&mut work_graph, event) else {
                return;
            };
            // Availability / MTTR bookkeeping from the (normalized)
            // event stream: Down/Up alternate per node.
            match event.kind {
                TopologyEventKind::NodeDown(n) => {
                    down_nodes.insert(n);
                    down_since.entry(n).or_insert(now);
                }
                TopologyEventKind::NodeUp(n) => {
                    down_nodes.remove(&n);
                    if let Some(t0) = down_since.remove(&n) {
                        let span = now - t0;
                        downtime_total += span;
                        repairs += 1;
                        repair_total += span;
                    }
                }
                _ => {}
            }
            fault.events_applied += 1;
            for &(u, v) in &delta.removed_links {
                // Mark first (the old `fault_removed.insert`), then kill:
                // the mark outlives the slot's death, so a later forward
                // onto the dead slot counts as a fault loss.
                let id = table.id_for((u, v));
                table.link_mut(id).fault_removed = true;
                if let Some(queued) = table.kill((u, v), &mut slab) {
                    dropped += queued;
                    fault.packets_lost += queued;
                }
            }
            for (u, e) in &delta.restored_links {
                let id = table.id_for((*u, e.to));
                table.link_mut(id).fault_removed = false;
                table.revive((*u, e.to), e.capacity_bps, e.latency_s, now, &mut slab);
            }
            if delta.is_empty() {
                return;
            }
            // Graceful degradation: flows whose path broke re-route on
            // the degraded topology immediately (failure detection);
            // flows that lost all connectivity re-associate when a
            // recovery gives them a route again. Broken flows are
            // re-planned in one batch — flows that lost the same access
            // satellite or gateway share a source, hence a tree.
            planner.invalidate();
            let adaptive = replan_interval.is_some();
            let broken_idxs: Vec<usize> = (0..flows.len())
                .filter(|&i| match &routes[i] {
                    Some(route) => route.links.iter().any(|&lid| !table.link(lid).alive),
                    None => true,
                })
                .collect();
            let fresh = plan_flow_routes(
                &mut planner,
                &work_graph,
                &mut table,
                flows,
                &broken_idxs,
                adaptive,
                rec,
            );
            for (&i, r) in broken_idxs.iter().zip(fresh) {
                let had_route = routes[i].is_some();
                routes[i] = r;
                match (&routes[i], route_lost_at[i]) {
                    (Some(_), Some(lost_at)) => {
                        fault.reassociations += 1;
                        reassoc_latency_total += now - lost_at;
                        route_lost_at[i] = None;
                    }
                    (Some(_), None) if had_route => {
                        // Immediate failover onto a surviving path.
                        fault.reassociations += 1;
                    }
                    (None, None) if had_route => {
                        route_lost_at[i] = Some(now);
                    }
                    _ => {}
                }
            }
        }
    });

    // Close availability accounting for still-open outages.
    for t0 in down_since.into_values() {
        downtime_total += cfg.duration_s - t0;
    }
    let node_time = cfg.duration_s * graph.node_count() as f64;
    fault.node_availability = if node_time > 0.0 {
        1.0 - downtime_total / node_time
    } else {
        1.0
    };
    fault.mttr_s = (repairs > 0).then(|| repair_total / repairs as f64);
    fault.mean_reassociation_latency_s =
        (fault.reassociations > 0).then(|| reassoc_latency_total / fault.reassociations as f64);

    // Final utilization sample: whatever accumulated since each link's
    // last reset (or its creation), divided by that actual window — not
    // the full run duration, which would dilute links created mid-run
    // (fault restores, resnapshots) or already sampled by a replan.
    for link in table.slots.iter().filter(|l| l.alive) {
        let window = cfg.duration_s - link.measured_since_s;
        if window > 0.0 {
            max_util = max_util.max(link.bits_sent / window / link.capacity_bps);
        }
    }

    // Run-level telemetry: totals, gauges, and the engine's own load
    // counters. Recorded after the loop so a run contributes one value
    // per key regardless of event interleaving.
    rec.add("netsim.generated", generated);
    rec.add("netsim.delivered", delivered);
    rec.add("netsim.dropped", dropped);
    rec.add("netsim.unroutable", unroutable);
    rec.gauge(
        "netsim.delivery_ratio",
        if generated > 0 {
            delivered as f64 / generated as f64
        } else {
            0.0
        },
    );
    rec.gauge_max("netsim.max_link_utilization", max_util);
    rec.add("engine.events_processed", q.processed());
    rec.gauge_max("engine.queue_depth_high_water", q.depth_high_water() as f64);
    // Peak in-flight packets.
    rec.gauge_max("netsim.engine.slab_high_water", slab.high_water as f64);
    if !events.is_empty() {
        rec.add("netsim.fault.events_applied", fault.events_applied);
        rec.add("netsim.fault.packets_lost", fault.packets_lost);
        rec.add("netsim.fault.reassociations", fault.reassociations);
        rec.gauge("netsim.fault.node_availability", fault.node_availability);
    }

    let mean = latency.mean();
    let p95 = if latency.is_empty() {
        0.0
    } else {
        latency.p95()
    };
    Ok(NetSimReport {
        generated,
        delivered,
        dropped,
        unroutable,
        delivery_ratio: if generated > 0 {
            delivered as f64 / generated as f64
        } else {
            0.0
        },
        mean_latency_s: mean,
        p95_latency_s: p95,
        max_link_utilization: max_util,
        fault,
    })
}

/// Draw a flow's arrival phase (desynchronizing same-rate flows, as
/// the driver has always done for CBR) and, for on/off flows, the
/// first ON-period horizon. Returns the absolute time of the first
/// injection.
fn start_flow(f: &FlowSpec, rng: &mut SimRng, now: f64, on_until: &mut f64) -> f64 {
    let phase = rng.uniform() * f.packet_bytes as f64 * 8.0 / f.rate_bps;
    let at = now + phase;
    if let TrafficKind::OnOff { mean_on_s, .. } = f.kind {
        *on_until = at + rng.exponential(1.0 / mean_on_s);
    }
    at
}

/// Route the flows named by `idxs` through the batched planner in one
/// call: requests sharing a source share one shortest-path tree.
/// Proactive mode routes on pure propagation latency; adaptive mode on
/// the congestion weight with a best-effort QoS floor — both exactly the
/// per-flow costs this simulator has always used, so the extracted paths
/// are bit-for-bit those of the old one-search-per-flow code. Each path
/// is compiled into [`LinkId`] form against `table` as it is extracted —
/// no intermediate `Vec<Path>` is materialized.
fn plan_flow_routes(
    planner: &mut RoutePlanner,
    graph: &Graph,
    table: &mut LinkTable,
    flows: &[FlowSpec],
    idxs: &[usize],
    adaptive: bool,
    rec: &mut dyn Recorder,
) -> Vec<Option<CompiledRoute>> {
    let requests: Vec<(NodeId, NodeId)> =
        idxs.iter().map(|&i| (flows[i].src, flows[i].dst)).collect();
    if adaptive {
        planner.plan_qos_mapped_recorded(
            graph,
            &requests,
            &QosRequirement::best_effort(),
            12_000.0,
            |p| Some(table.compile(p.nodes)),
            rec,
        )
    } else {
        planner.plan_mapped_recorded(
            graph,
            &requests,
            latency_weight,
            |p| Some(table.compile(p.nodes)),
            rec,
        )
    }
}

/// Enqueue the packet on its next-hop link, starting transmission if
/// idle. One array index replaces the old per-hop pair hash.
#[allow(clippy::too_many_arguments)] // engine + link/packet state + loss counters, all load-bearing
fn forward(
    q: &mut EventQueue<Ev>,
    table: &mut LinkTable,
    slab: &mut PktSlab,
    pid: PktId,
    now: f64,
    queue_capacity_bytes: u64,
    dropped: &mut u64,
    lost_to_faults: &mut u64,
) {
    let (bytes, lid) = {
        let p = slab.get(pid);
        (p.bytes, p.links[p.hop as usize])
    };
    let link = table.link_mut(lid);
    if !link.alive {
        // Route references a vanished link (possible after replans on a
        // changed snapshot, or right after a fault); count as a drop.
        *dropped += 1;
        if link.fault_removed {
            *lost_to_faults += 1;
        }
        slab.free(pid);
        return;
    }
    if link.occupancy_bytes + bytes as u64 > queue_capacity_bytes {
        *dropped += 1;
        slab.free(pid);
        return;
    }
    link.occupancy_bytes += bytes as u64;
    let tx = bytes as f64 * 8.0 / link.capacity_bps;
    link.queue.push_back(pid);
    if !link.busy {
        link.busy = true;
        q.schedule(now + tx, Ev::Depart(lid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_net::topology::{Graph, LinkTech};
    use openspace_sim::fault::{FaultPlan, FaultTopology};
    use openspace_sim::ids::OperatorId;

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
        let cfg = NetSimConfig {
            duration_s: 10.0,
            ..Default::default()
        };
        let r = NetSim::new(cfg)
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
        let pro = NetSim::new(NetSimConfig {
            duration_s: 20.0,
            ..Default::default()
        })
        .with_snapshot(&g)
        .run(&flows)
        .unwrap();
        let ada = NetSim::new(NetSimConfig {
            duration_s: 20.0,
            routing: RoutingMode::Adaptive {
                replan_interval_s: 1.0,
            },
            ..Default::default()
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
        let cfg = NetSimConfig {
            duration_s: 30.0,
            ..Default::default()
        };
        let sim = NetSim::new(cfg).with_snapshot(&g);
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
        let r = NetSim::new(NetSimConfig {
            duration_s: 5.0,
            ..Default::default()
        })
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
            duration_s: 10.0,
            seed: 7,
            ..Default::default()
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
        let cfg = NetSimConfig {
            duration_s: 10.0,
            ..Default::default()
        };
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
        let cfg = NetSimConfig {
            duration_s: 20.0,
            ..Default::default()
        };
        let r = NetSim::new(cfg)
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
        let cfg = NetSimConfig {
            duration_s: 10.0,
            ..Default::default()
        };
        let r = NetSim::new(cfg)
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
        use openspace_telemetry::MemoryRecorder;
        let g = diamond(2e6);
        let flows = [
            FlowSpec::new(0, 3, 1e6, 1_200, TrafficKind::Poisson),
            flow(3, 0, 0.5e6),
        ];
        let sim = NetSim::new(NetSimConfig {
            duration_s: 10.0,
            seed: 11,
            ..Default::default()
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
        use openspace_telemetry::MemoryRecorder;
        let g = diamond(2e6);
        let flows = [flow(0, 3, 1.4e6), flow(0, 3, 1.4e6)];
        let sim = NetSim::new(NetSimConfig {
            duration_s: 10.0,
            routing: RoutingMode::Adaptive {
                replan_interval_s: 1.0,
            },
            ..Default::default()
        })
        .with_snapshot(&g);
        let plain = sim.run(&flows).unwrap();
        let mut rec = MemoryRecorder::new();
        let recorded = sim.run_recorded(&flows, &mut rec).unwrap();
        assert_eq!(plain, recorded);
        assert!(rec.counter("netsim.replans") >= 9, "one per interval");
        // Every replan re-routes both flows, plus the initial pass.
        assert!(rec.counter("routing.recomputes") >= 2 + 9 * 2);
    }

    // ---- timeline-driven runs ----

    /// A provider whose fast path flips between snapshots, plus a
    /// latency drift, so consecutive snapshots have non-empty deltas.
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
                duration_s: 20.0,
                routing,
                ..Default::default()
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
        let cfg = NetSimConfig {
            duration_s: 15.0,
            ..Default::default()
        };
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
    fn timeline_run_reports_delta_counters() {
        use openspace_telemetry::MemoryRecorder;
        let flows = [flow(0, 3, 1e6)];
        let cfg = NetSimConfig {
            duration_s: 10.0,
            ..Default::default()
        };
        let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 10.0, 1).unwrap();
        let mut rec = MemoryRecorder::new();
        NetSim::new(cfg)
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
        use openspace_telemetry::MemoryRecorder;
        // A saturated link that vanishes at the first resnapshot: its
        // queue dies with it and must show up under the dedicated
        // counter on both dynamic paths.
        let full = diamond(1e6);
        let empty = Graph::new(4, 0);
        let provider = move |t: f64| if t < 1.0 { full.clone() } else { empty.clone() };
        let flows = [flow(0, 3, 3e6)];
        let cfg = NetSimConfig {
            duration_s: 4.0,
            ..Default::default()
        };
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
        let cfg = NetSimConfig {
            duration_s: 20.0,
            ..Default::default()
        };
        // Covers only 5 s of a 20 s run.
        let tl = TopologyTimeline::build(&churning_provider, 0.0, 1.0, 5.0, 1).unwrap();
        let err = NetSim::new(cfg).with_timeline(&tl).run(&flows).unwrap_err();
        assert_eq!(
            err,
            ConfigError::IndexOutOfRange {
                field: "timeline.delta_count",
                index: 20,
                len: 5
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
            duration_s: 10.0,
            seed: 5,
            ..Default::default()
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
        let r = NetSim::new(NetSimConfig {
            duration_s: 30.0,
            ..Default::default()
        })
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
        let r = NetSim::new(NetSimConfig {
            duration_s: 20.0,
            ..Default::default()
        })
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
        let r = NetSim::new(NetSimConfig {
            duration_s: 30.0,
            ..Default::default()
        })
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
            duration_s: 20.0,
            seed: 3,
            ..Default::default()
        })
        .with_snapshot(&g)
        .with_faults(&events);
        let a = sim.run(&flows).unwrap();
        let b = sim.run(&flows).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_faulted_run_reports_the_fault_block() {
        use openspace_telemetry::MemoryRecorder;
        let g = diamond(5e6);
        let plan = FaultPlan::builder()
            .sat_outage(1usize, 5.0, 10.0)
            .build()
            .unwrap();
        let events = compile_plan(&plan, 4);
        let flows = [flow(0, 3, 1e6)];
        let sim = NetSim::new(NetSimConfig {
            duration_s: 30.0,
            ..Default::default()
        })
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
        let cfg = NetSimConfig {
            duration_s: 400.0,
            ..Default::default()
        };
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
        use openspace_telemetry::MemoryRecorder;
        let g = diamond(10e6);
        // Batch 0 runs [0, 8), batch 1 runs [8, 20): rates differ 4x,
        // so per-phase generation rates must differ accordingly.
        let demand = DemandWorkload::new(vec![
            (0.0, vec![flow(0, 3, 4e5)]),
            (8.0, vec![flow(0, 3, 1e5)]),
        ])
        .unwrap();
        let cfg = NetSimConfig {
            duration_s: 20.0,
            ..Default::default()
        };
        let mut rec = MemoryRecorder::new();
        let r = NetSim::new(cfg)
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
        let cfg = NetSimConfig {
            duration_s: 10.0,
            ..Default::default()
        };
        let r = NetSim::new(cfg)
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
        let cfg = NetSimConfig {
            duration_s: f64::MAX,
            ..Default::default()
        };
        let r = NetSim::new(cfg)
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
            duration_s: 15.0,
            seed: 77,
            ..Default::default()
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
