//! Deterministic fault injection: compile a [`FaultPlan`] into a
//! time-ordered stream of [`TopologyEvent`]s.
//!
//! The paper's resilience argument (§2.2, §5) is that a federation of
//! many small operators degrades gracefully where a monolith fails hard.
//! Testing that claim requires *unhealthy* constellations: satellites
//! dying mid-run, inter-satellite links flapping, ground stations going
//! dark, whole operators withdrawing from the federation. A `FaultPlan`
//! describes those disturbances declaratively — scheduled outages plus
//! seeded-stochastic ones — and [`FaultPlan::compile`] lowers the plan
//! against a concrete [`FaultTopology`] into an ordered event sequence
//! the network simulator can consume.
//!
//! Determinism is a hard requirement: compilation of the same plan
//! against the same topology yields byte-identical events, and all
//! randomness flows from [`SimRng::substream`] keyed by the plan seed
//! and the spec's position in the plan, never from global state.

use crate::config::{require_index, require_non_negative, require_positive, ConfigError};
use crate::ids::{GsId, NodeId, OperatorId, SatId};
use crate::rng::SimRng;

/// What a single topology event does.
///
/// Node identifiers are *graph node* indices (satellites first, then
/// ground stations), so the consumer can apply them to a
/// `net::topology::Graph` without re-deriving offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TopologyEventKind {
    /// A node (satellite or ground station) fails: all incident links drop.
    NodeDown(NodeId),
    /// A previously failed node recovers: its links in the current
    /// topology come back.
    NodeUp(NodeId),
    /// The bidirectional link between two nodes drops.
    LinkDown(NodeId, NodeId),
    /// A previously dropped link recovers.
    LinkUp(NodeId, NodeId),
    /// An operator leaves the federation permanently. Emitted alongside
    /// `NodeDown` events for every node the operator owned; consumers
    /// that track membership (user migration, settlement) react to this
    /// marker, consumers that only track the graph may ignore it.
    OperatorWithdrawn(OperatorId),
}

/// One scheduled topology change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyEvent {
    /// Simulation time at which the event takes effect (s).
    pub at_s: f64,
    /// Stable tie-break for events at the same instant: events are
    /// applied in ascending `seq`. Assigned by [`FaultPlan::compile`].
    pub seq: u64,
    /// The change itself.
    pub kind: TopologyEventKind,
}

/// The entity layout a plan is compiled against: how many satellites and
/// stations exist and who owns each. Build one by hand or via
/// `Federation::fault_topology`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTopology {
    n_sats: usize,
    n_stations: usize,
    sat_operators: Vec<OperatorId>,
    station_operators: Vec<OperatorId>,
}

impl FaultTopology {
    /// Describe a topology from per-entity operator ownership.
    pub fn new(sat_operators: Vec<OperatorId>, station_operators: Vec<OperatorId>) -> Self {
        Self {
            n_sats: sat_operators.len(),
            n_stations: station_operators.len(),
            sat_operators,
            station_operators,
        }
    }

    /// A topology where one operator owns everything (a monolith).
    pub fn homogeneous(n_sats: usize, n_stations: usize, operator: OperatorId) -> Self {
        Self::new(vec![operator; n_sats], vec![operator; n_stations])
    }

    /// Number of satellites.
    pub fn n_sats(&self) -> usize {
        self.n_sats
    }

    /// Number of ground stations.
    pub fn n_stations(&self) -> usize {
        self.n_stations
    }

    /// Total graph node count (satellites + stations).
    pub fn node_count(&self) -> usize {
        self.n_sats + self.n_stations
    }

    /// Graph node index of a satellite.
    pub fn sat_node(&self, sat: SatId) -> NodeId {
        NodeId(sat.0)
    }

    /// Graph node index of a ground station.
    pub fn station_node(&self, station: GsId) -> NodeId {
        NodeId(self.n_sats + station.0)
    }

    /// All graph nodes owned by `operator` (satellites first).
    pub fn nodes_of_operator(&self, operator: OperatorId) -> Vec<NodeId> {
        let sats = self
            .sat_operators
            .iter()
            .enumerate()
            .filter(|(_, op)| **op == operator)
            .map(|(i, _)| NodeId(i));
        let stations = self
            .station_operators
            .iter()
            .enumerate()
            .filter(|(_, op)| **op == operator)
            .map(|(i, _)| NodeId(self.n_sats + i));
        sats.chain(stations).collect()
    }
}

/// One fault specification inside a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// A satellite fails at `at_s`; recovers after `duration_s` if given,
    /// otherwise stays dead for the rest of the run.
    SatOutage {
        /// Which satellite fails.
        sat: SatId,
        /// Failure time (s).
        at_s: f64,
        /// Outage length (s); `None` means permanent.
        duration_s: Option<f64>,
    },
    /// A ground station goes dark at `at_s`, optionally recovering.
    StationOutage {
        /// Which station fails.
        station: GsId,
        /// Failure time (s).
        at_s: f64,
        /// Outage length (s); `None` means permanent.
        duration_s: Option<f64>,
    },
    /// A link flaps: starting at `first_down_s` it cycles
    /// `down_s` seconds dead, `up_s` seconds alive, `cycles` times.
    LinkFlap {
        /// One endpoint (graph node).
        a: NodeId,
        /// Other endpoint (graph node).
        b: NodeId,
        /// Start of the first down period (s).
        first_down_s: f64,
        /// Length of each down period (s).
        down_s: f64,
        /// Length of each up period between downs (s).
        up_s: f64,
        /// Number of down periods.
        cycles: u32,
    },
    /// An operator permanently leaves the federation at `at_s`; every
    /// node it owns goes down and never recovers.
    OperatorWithdrawal {
        /// The withdrawing operator.
        operator: OperatorId,
        /// Withdrawal time (s).
        at_s: f64,
    },
    /// Seeded-stochastic satellite outages: each satellite independently
    /// fails as a Poisson process at `rate_per_sat_hour`, staying down
    /// for an exponential time with mean `mean_outage_s`, within the
    /// given window.
    RandomSatOutages {
        /// Expected failures per satellite per hour.
        rate_per_sat_hour: f64,
        /// Mean outage duration (s).
        mean_outage_s: f64,
        /// Window start (s); failures begin no earlier.
        window_start_s: f64,
        /// Window end (s); no new failures start after this.
        window_end_s: f64,
    },
}

/// A declarative fault schedule, compiled against a topology into
/// [`TopologyEvent`]s. Construct via [`FaultPlan::builder`] (validated)
/// or [`FaultPlan::empty`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    seed: u64,
}

impl FaultPlan {
    /// A plan with no faults: compiles to zero events for any topology,
    /// so a faulted run reproduces a healthy run bit-for-bit.
    pub fn empty() -> Self {
        Self {
            specs: Vec::new(),
            seed: 0,
        }
    }

    /// Start building a plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// The validated fault specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Seed for the plan's stochastic specs.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Lower the plan against `topo` into a time-ordered event sequence.
    ///
    /// Events are sorted by time with a stable, content-based tie-break
    /// (so compilation is a pure function of plan + topology), then
    /// numbered with ascending `seq`. Stochastic specs draw from
    /// `SimRng::substream(plan_seed, spec_index)`, making each spec's
    /// randomness independent of the others and of spec reordering
    /// *after* it in the plan.
    ///
    /// Fails with [`ConfigError::IndexOutOfRange`] when a spec names a
    /// satellite, station, or node the topology doesn't have.
    pub fn compile(&self, topo: &FaultTopology) -> Result<Vec<TopologyEvent>, ConfigError> {
        let mut raw: Vec<(f64, TopologyEventKind)> = Vec::new();
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            match spec {
                FaultSpec::SatOutage {
                    sat,
                    at_s,
                    duration_s,
                } => {
                    require_index("sat_outage.sat", sat.0, topo.n_sats)?;
                    let node = topo.sat_node(*sat);
                    raw.push((*at_s, TopologyEventKind::NodeDown(node)));
                    if let Some(d) = duration_s {
                        raw.push((*at_s + *d, TopologyEventKind::NodeUp(node)));
                    }
                }
                FaultSpec::StationOutage {
                    station,
                    at_s,
                    duration_s,
                } => {
                    require_index("station_outage.station", station.0, topo.n_stations)?;
                    let node = topo.station_node(*station);
                    raw.push((*at_s, TopologyEventKind::NodeDown(node)));
                    if let Some(d) = duration_s {
                        raw.push((*at_s + *d, TopologyEventKind::NodeUp(node)));
                    }
                }
                FaultSpec::LinkFlap {
                    a,
                    b,
                    first_down_s,
                    down_s,
                    up_s,
                    cycles,
                } => {
                    require_index("link_flap.a", a.0, topo.node_count())?;
                    require_index("link_flap.b", b.0, topo.node_count())?;
                    let period = down_s + up_s;
                    for k in 0..*cycles {
                        let t_down = first_down_s + k as f64 * period;
                        raw.push((t_down, TopologyEventKind::LinkDown(*a, *b)));
                        raw.push((t_down + down_s, TopologyEventKind::LinkUp(*a, *b)));
                    }
                }
                FaultSpec::OperatorWithdrawal { operator, at_s } => {
                    raw.push((*at_s, TopologyEventKind::OperatorWithdrawn(*operator)));
                    for node in topo.nodes_of_operator(*operator) {
                        raw.push((*at_s, TopologyEventKind::NodeDown(node)));
                    }
                }
                FaultSpec::RandomSatOutages {
                    rate_per_sat_hour,
                    mean_outage_s,
                    window_start_s,
                    window_end_s,
                } => {
                    let mut rng = SimRng::substream(self.seed, spec_idx as u64);
                    let rate_per_s = rate_per_sat_hour / 3600.0;
                    for sat in 0..topo.n_sats {
                        let node = NodeId(sat);
                        let mut t = window_start_s + rng.exponential(rate_per_s);
                        while t < *window_end_s {
                            let outage = rng.exponential(1.0 / mean_outage_s);
                            raw.push((t, TopologyEventKind::NodeDown(node)));
                            raw.push((t + outage, TopologyEventKind::NodeUp(node)));
                            t = t + outage + rng.exponential(rate_per_s);
                        }
                    }
                }
            }
        }
        // Content-based ordering: time first, then kind (Down before Up
        // at the same instant, markers first), so compilation output is
        // independent of floating-point tie accidents.
        raw.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        Ok(normalize(raw))
    }
}

/// Collapse overlapping faults on the same entity to the *union* of
/// their down intervals: a `Down` is emitted only when the entity
/// transitions up→down, an `Up` only when the last overlapping fault
/// clears. A permanent failure (a `Down` with no `Up`) therefore
/// suppresses every later event for that entity. Input must be sorted.
fn normalize(raw: Vec<(f64, TopologyEventKind)>) -> Vec<TopologyEvent> {
    use std::collections::HashMap;
    #[derive(PartialEq, Eq, Hash)]
    enum Entity {
        Node(NodeId),
        Link(NodeId, NodeId),
    }
    let link = |a: NodeId, b: NodeId| Entity::Link(a.min(b), a.max(b));
    let mut depth: HashMap<Entity, u32> = HashMap::new();
    let mut out = Vec::with_capacity(raw.len());
    for (at_s, kind) in raw {
        let entity = match kind {
            TopologyEventKind::NodeDown(n) | TopologyEventKind::NodeUp(n) => Entity::Node(n),
            TopologyEventKind::LinkDown(a, b) | TopologyEventKind::LinkUp(a, b) => link(a, b),
            TopologyEventKind::OperatorWithdrawn(_) => {
                out.push((at_s, kind)); // marker: always kept
                continue;
            }
        };
        let d = depth.entry(entity).or_insert(0);
        let keep = match kind {
            TopologyEventKind::NodeDown(_) | TopologyEventKind::LinkDown(_, _) => {
                *d += 1;
                *d == 1
            }
            _ => {
                let was = *d;
                *d = was.saturating_sub(1);
                was == 1
            }
        };
        if keep {
            out.push((at_s, kind));
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(i, (at_s, kind))| TopologyEvent {
            at_s,
            seq: i as u64,
            kind,
        })
        .collect()
}

/// Validating builder for [`FaultPlan`].
///
/// Shape errors (negative times, zero rates, inverted windows) surface
/// at [`build`](FaultPlanBuilder::build); entity-range errors surface at
/// [`FaultPlan::compile`], which is when a topology is first known.
#[derive(Debug, Clone, Default)]
pub struct FaultPlanBuilder {
    specs: Vec<FaultSpec>,
    seed: u64,
}

impl FaultPlanBuilder {
    /// Seed for stochastic specs (defaults to 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedule a recoverable satellite outage.
    pub fn sat_outage(mut self, sat: impl Into<SatId>, at_s: f64, duration_s: f64) -> Self {
        self.specs.push(FaultSpec::SatOutage {
            sat: sat.into(),
            at_s,
            duration_s: Some(duration_s),
        });
        self
    }

    /// Schedule a permanent satellite failure.
    pub fn sat_failure(mut self, sat: impl Into<SatId>, at_s: f64) -> Self {
        self.specs.push(FaultSpec::SatOutage {
            sat: sat.into(),
            at_s,
            duration_s: None,
        });
        self
    }

    /// Schedule a recoverable ground-station outage.
    pub fn station_outage(mut self, station: impl Into<GsId>, at_s: f64, duration_s: f64) -> Self {
        self.specs.push(FaultSpec::StationOutage {
            station: station.into(),
            at_s,
            duration_s: Some(duration_s),
        });
        self
    }

    /// Schedule a permanent ground-station failure.
    pub fn station_failure(mut self, station: impl Into<GsId>, at_s: f64) -> Self {
        self.specs.push(FaultSpec::StationOutage {
            station: station.into(),
            at_s,
            duration_s: None,
        });
        self
    }

    /// Schedule a flapping link: `cycles` repetitions of `down_s` dead
    /// then `up_s` alive, starting at `first_down_s`.
    pub fn link_flap(
        mut self,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
        first_down_s: f64,
        down_s: f64,
        up_s: f64,
        cycles: u32,
    ) -> Self {
        self.specs.push(FaultSpec::LinkFlap {
            a: a.into(),
            b: b.into(),
            first_down_s,
            down_s,
            up_s,
            cycles,
        });
        self
    }

    /// Schedule a permanent operator withdrawal.
    pub fn operator_withdrawal(mut self, operator: impl Into<OperatorId>, at_s: f64) -> Self {
        self.specs.push(FaultSpec::OperatorWithdrawal {
            operator: operator.into(),
            at_s,
        });
        self
    }

    /// Add seeded-stochastic satellite outages over a time window.
    pub fn random_sat_outages(
        mut self,
        rate_per_sat_hour: f64,
        mean_outage_s: f64,
        window_start_s: f64,
        window_end_s: f64,
    ) -> Self {
        self.specs.push(FaultSpec::RandomSatOutages {
            rate_per_sat_hour,
            mean_outage_s,
            window_start_s,
            window_end_s,
        });
        self
    }

    /// Validate every spec's shape and produce the plan.
    pub fn build(self) -> Result<FaultPlan, ConfigError> {
        for spec in &self.specs {
            match spec {
                FaultSpec::SatOutage {
                    at_s, duration_s, ..
                }
                | FaultSpec::StationOutage {
                    at_s, duration_s, ..
                } => {
                    require_non_negative("outage.at_s", *at_s)?;
                    if let Some(d) = duration_s {
                        require_positive("outage.duration_s", *d)?;
                    }
                }
                FaultSpec::LinkFlap {
                    first_down_s,
                    down_s,
                    up_s,
                    cycles,
                    ..
                } => {
                    require_non_negative("link_flap.first_down_s", *first_down_s)?;
                    require_positive("link_flap.down_s", *down_s)?;
                    require_positive("link_flap.up_s", *up_s)?;
                    if *cycles == 0 {
                        return Err(ConfigError::NonPositive {
                            field: "link_flap.cycles",
                            value: 0.0,
                        });
                    }
                }
                FaultSpec::OperatorWithdrawal { at_s, .. } => {
                    require_non_negative("operator_withdrawal.at_s", *at_s)?;
                }
                FaultSpec::RandomSatOutages {
                    rate_per_sat_hour,
                    mean_outage_s,
                    window_start_s,
                    window_end_s,
                } => {
                    require_positive("random_sat_outages.rate_per_sat_hour", *rate_per_sat_hour)?;
                    require_positive("random_sat_outages.mean_outage_s", *mean_outage_s)?;
                    require_non_negative("random_sat_outages.window_start_s", *window_start_s)?;
                    if window_end_s <= window_start_s {
                        return Err(ConfigError::InvertedInterval {
                            field: "random_sat_outages.window",
                            start: *window_start_s,
                            end: *window_end_s,
                        });
                    }
                }
            }
        }
        Ok(FaultPlan {
            specs: self.specs,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FaultTopology {
        // 4 sats, 2 stations; operator 0 owns sats 0-1 + station 0,
        // operator 1 owns sats 2-3 + station 1.
        FaultTopology::new(
            vec![OperatorId(0), OperatorId(0), OperatorId(1), OperatorId(1)],
            vec![OperatorId(0), OperatorId(1)],
        )
    }

    #[test]
    fn empty_plan_compiles_to_no_events() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.compile(&topo()).unwrap(), vec![]);
    }

    #[test]
    fn scheduled_outage_produces_down_then_up() {
        let plan = FaultPlan::builder()
            .sat_outage(1usize, 10.0, 5.0)
            .build()
            .unwrap();
        let events = plan.compile(&topo()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TopologyEventKind::NodeDown(NodeId(1)));
        assert_eq!(events[0].at_s, 10.0);
        assert_eq!(events[1].kind, TopologyEventKind::NodeUp(NodeId(1)));
        assert_eq!(events[1].at_s, 15.0);
    }

    #[test]
    fn station_nodes_are_offset_past_satellites() {
        let plan = FaultPlan::builder()
            .station_failure(1usize, 3.0)
            .build()
            .unwrap();
        let events = plan.compile(&topo()).unwrap();
        assert_eq!(
            events,
            vec![TopologyEvent {
                at_s: 3.0,
                seq: 0,
                kind: TopologyEventKind::NodeDown(NodeId(5)),
            }]
        );
    }

    #[test]
    fn link_flap_expands_to_cycles() {
        let plan = FaultPlan::builder()
            .link_flap(0usize, 2usize, 1.0, 2.0, 3.0, 3)
            .build()
            .unwrap();
        let events = plan.compile(&topo()).unwrap();
        assert_eq!(events.len(), 6);
        let downs: Vec<f64> = events
            .iter()
            .filter(|e| matches!(e.kind, TopologyEventKind::LinkDown(..)))
            .map(|e| e.at_s)
            .collect();
        assert_eq!(downs, vec![1.0, 6.0, 11.0]);
        let ups: Vec<f64> = events
            .iter()
            .filter(|e| matches!(e.kind, TopologyEventKind::LinkUp(..)))
            .map(|e| e.at_s)
            .collect();
        assert_eq!(ups, vec![3.0, 8.0, 13.0]);
    }

    #[test]
    fn withdrawal_downs_every_owned_node() {
        let plan = FaultPlan::builder()
            .operator_withdrawal(1u32, 7.0)
            .build()
            .unwrap();
        let events = plan.compile(&topo()).unwrap();
        // Marker + sats 2,3 + station node 5.
        assert_eq!(events.len(), 4);
        assert!(events
            .iter()
            .any(|e| e.kind == TopologyEventKind::OperatorWithdrawn(OperatorId(1))));
        for node in [2usize, 3, 5] {
            assert!(events
                .iter()
                .any(|e| e.kind == TopologyEventKind::NodeDown(NodeId(node))));
        }
        assert!(events.iter().all(|e| e.at_s == 7.0));
    }

    #[test]
    fn events_are_time_ordered_with_ascending_seq() {
        let plan = FaultPlan::builder()
            .sat_outage(3usize, 50.0, 10.0)
            .sat_outage(0usize, 5.0, 1.0)
            .link_flap(1usize, 2usize, 20.0, 5.0, 5.0, 2)
            .build()
            .unwrap();
        let events = plan.compile(&topo()).unwrap();
        for pair in events.windows(2) {
            assert!(pair[0].at_s <= pair[1].at_s);
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn stochastic_compile_is_deterministic() {
        let build = |seed| {
            FaultPlan::builder()
                .seed(seed)
                .random_sat_outages(20.0, 60.0, 0.0, 3_600.0)
                .build()
                .unwrap()
        };
        let a = build(42).compile(&topo()).unwrap();
        let b = build(42).compile(&topo()).unwrap();
        assert_eq!(a, b);
        let c = build(43).compile(&topo()).unwrap();
        assert_ne!(a, c, "different seeds should give different schedules");
        assert!(
            !a.is_empty(),
            "20 failures/sat-hour over an hour: expect events"
        );
    }

    #[test]
    fn stochastic_downs_pair_with_ups() {
        let plan = FaultPlan::builder()
            .seed(7)
            .random_sat_outages(10.0, 120.0, 0.0, 7_200.0)
            .build()
            .unwrap();
        let events = plan.compile(&topo()).unwrap();
        let downs = events
            .iter()
            .filter(|e| matches!(e.kind, TopologyEventKind::NodeDown(_)))
            .count();
        let ups = events
            .iter()
            .filter(|e| matches!(e.kind, TopologyEventKind::NodeUp(_)))
            .count();
        assert_eq!(downs, ups, "every stochastic outage recovers");
    }

    #[test]
    fn builder_rejects_bad_shapes() {
        assert!(matches!(
            FaultPlan::builder().sat_outage(0usize, -1.0, 5.0).build(),
            Err(ConfigError::Negative { .. })
        ));
        assert!(matches!(
            FaultPlan::builder().sat_outage(0usize, 1.0, 0.0).build(),
            Err(ConfigError::NonPositive { .. })
        ));
        assert!(matches!(
            FaultPlan::builder()
                .link_flap(0usize, 1usize, 0.0, 1.0, 1.0, 0)
                .build(),
            Err(ConfigError::NonPositive {
                field: "link_flap.cycles",
                ..
            })
        ));
        assert!(matches!(
            FaultPlan::builder()
                .random_sat_outages(1.0, 60.0, 100.0, 50.0)
                .build(),
            Err(ConfigError::InvertedInterval { .. })
        ));
        assert!(matches!(
            FaultPlan::builder()
                .random_sat_outages(0.0, 60.0, 0.0, 100.0)
                .build(),
            Err(ConfigError::NonPositive { .. })
        ));
    }

    #[test]
    fn compile_rejects_out_of_range_entities() {
        let plan = FaultPlan::builder()
            .sat_outage(99usize, 0.0, 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            plan.compile(&topo()),
            Err(ConfigError::IndexOutOfRange { len: 4, .. })
        ));
        let plan = FaultPlan::builder()
            .station_outage(9usize, 0.0, 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            plan.compile(&topo()),
            Err(ConfigError::IndexOutOfRange { len: 2, .. })
        ));
    }

    #[test]
    fn homogeneous_topology_owns_everything() {
        let t = FaultTopology::homogeneous(3, 2, OperatorId(9));
        assert_eq!(t.nodes_of_operator(OperatorId(9)).len(), 5);
        assert!(t.nodes_of_operator(OperatorId(1)).is_empty());
        assert_eq!(t.station_node(GsId(0)), NodeId(3));
    }
}
