//! The federation: the set of collaborating operators and their combined
//! infrastructure.
//!
//! This is the paper's core object — "networking satellites and ground
//! platforms owned by a heterogeneous group of small, medium, and large
//! firms … together results in global coverage". It owns the roster,
//! derives topology snapshots, and answers coverage questions both for
//! the whole federation and for each operator alone (the §2 claim that
//! solo operators get patchwork coverage).

use crate::operator::{make_satellite, GroundStation, Operator, Satellite};
use openspace_net::contact::{contact_plan, ContactWindow};
use openspace_net::isl::{build_snapshot, GroundNode, SatNode, SnapshotParams};
use openspace_net::timeline::{TimelineError, TopologyProvider, TopologyTimeline};
use openspace_net::topology::Graph;
use openspace_orbit::frames::{Geodetic, Vec3};
use openspace_orbit::kepler::OrbitalElements;
use openspace_phy::hardware::SatelliteClass;
use openspace_protocol::crypto::SharedSecret;
use openspace_protocol::types::{GroundStationId, OperatorId, SatelliteId, UserId};
use openspace_sim::fault::FaultTopology;
use openspace_telemetry::{NullRecorder, Recorder};
use std::collections::BTreeMap;

/// Why a federation operation failed.
///
/// Operators can depart a federation (that is the point of a voluntary
/// consortium), so looking one up is fallible by nature — not a
/// programming error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationError {
    /// The referenced operator is not (or no longer) a member.
    UnknownOperator(OperatorId),
    /// An operator withdrawal would leave nobody to serve its users.
    NoSurvivingOperator,
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownOperator(op) => write!(f, "unknown operator {op}"),
            Self::NoSurvivingOperator => {
                write!(f, "withdrawal would leave no surviving operator")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// Record of a completed operator withdrawal: who left, where their
/// subscribers went, and what infrastructure went dark with them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Withdrawal {
    /// The departed operator.
    pub operator: OperatorId,
    /// Each migrated subscriber and their new home operator.
    pub migrated: Vec<(UserId, OperatorId)>,
    /// Satellites stranded by the departure (kept in the roster for
    /// index stability, but no longer operated by a member).
    pub orphaned_satellites: usize,
    /// Ground stations stranded by the departure.
    pub orphaned_stations: usize,
}

/// A registered ground user.
#[derive(Debug, Clone, Copy)]
pub struct User {
    /// User id.
    pub id: UserId,
    /// Home operator (the ISP the user subscribes to).
    pub home: OperatorId,
    /// The user's AAA shared secret.
    pub secret: SharedSecret,
}

/// The assembled OpenSpace federation.
#[derive(Debug, Default)]
pub struct Federation {
    operators: BTreeMap<OperatorId, Operator>,
    satellites: Vec<Satellite>,
    stations: Vec<GroundStation>,
    users: Vec<User>,
    next_operator: u32,
    next_satellite: u64,
    next_station: u32,
    next_user: u64,
    /// Topology parameters shared by all snapshot builds.
    pub snapshot_params: SnapshotParams,
}

impl Federation {
    /// An empty federation with default topology parameters.
    pub fn new() -> Self {
        Self {
            snapshot_params: SnapshotParams::default(),
            ..Default::default()
        }
    }

    /// Admit an operator; returns its id.
    pub fn add_operator(&mut self, name: impl Into<String>) -> OperatorId {
        self.next_operator += 1;
        let id = OperatorId(self.next_operator);
        self.operators.insert(id, Operator::new(id, name));
        id
    }

    /// Launch a satellite for `owner`. Fails with
    /// [`FederationError::UnknownOperator`] when `owner` is not a member.
    pub fn add_satellite(
        &mut self,
        owner: OperatorId,
        class: SatelliteClass,
        elements: OrbitalElements,
    ) -> Result<SatelliteId, FederationError> {
        if !self.operators.contains_key(&owner) {
            return Err(FederationError::UnknownOperator(owner));
        }
        self.next_satellite += 1;
        let sat = make_satellite(self.next_satellite, owner, class, elements);
        let id = sat.id;
        self.satellites.push(sat);
        Ok(id)
    }

    /// Build a ground station for `owner` at `site`. Fails with
    /// [`FederationError::UnknownOperator`] when `owner` is not a member.
    pub fn add_ground_station(
        &mut self,
        owner: OperatorId,
        site: Geodetic,
    ) -> Result<GroundStationId, FederationError> {
        if !self.operators.contains_key(&owner) {
            return Err(FederationError::UnknownOperator(owner));
        }
        self.next_station += 1;
        let id = GroundStationId(self.next_station);
        self.stations.push(GroundStation::new(id, owner, site));
        Ok(id)
    }

    /// Register a subscriber with their home operator's AAA. Fails with
    /// [`FederationError::UnknownOperator`] when `home` is not (or no
    /// longer) a member — user IDs are only consumed on success.
    pub fn register_user(&mut self, home: OperatorId) -> Result<User, FederationError> {
        let op = self
            .operators
            .get_mut(&home)
            .ok_or(FederationError::UnknownOperator(home))?;
        self.next_user += 1;
        let id = UserId(self.next_user);
        let secret = SharedSecret::derive(id.0, "openspace-subscriber");
        op.auth.register_user(id, secret);
        let user = User { id, home, secret };
        self.users.push(user);
        Ok(user)
    }

    /// All registered subscribers (home assignments reflect migrations).
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// A subscriber by id.
    pub fn user(&self, id: UserId) -> Option<&User> {
        self.users.iter().find(|u| u.id == id)
    }

    /// Remove `op` from the federation: its certificates stop verifying,
    /// its infrastructure is orphaned (kept in the roster so node indices
    /// stay stable for compiled fault plans), and its subscribers are
    /// migrated round-robin to the surviving members, each re-keyed with
    /// a fresh AAA secret at their new home.
    ///
    /// Fails with [`FederationError::UnknownOperator`] when `op` is not a
    /// member and [`FederationError::NoSurvivingOperator`] when `op` is
    /// the last one (the federation refuses to strand its users).
    pub fn withdraw_operator(&mut self, op: OperatorId) -> Result<Withdrawal, FederationError> {
        if !self.operators.contains_key(&op) {
            return Err(FederationError::UnknownOperator(op));
        }
        let survivors: Vec<OperatorId> = self
            .operators
            .keys()
            .copied()
            .filter(|&id| id != op)
            .collect();
        let orphans: Vec<UserId> = self
            .users
            .iter()
            .filter(|u| u.home == op)
            .map(|u| u.id)
            .collect();
        if survivors.is_empty() && !self.users.is_empty() {
            return Err(FederationError::NoSurvivingOperator);
        }
        self.operators.remove(&op);
        let mut migrated = Vec::with_capacity(orphans.len());
        for (i, uid) in orphans.into_iter().enumerate() {
            let new_home = survivors[i % survivors.len()];
            let secret = SharedSecret::derive(uid.0, "openspace-migrated");
            if let Some(new_op) = self.operators.get_mut(&new_home) {
                new_op.auth.register_user(uid, secret);
            }
            if let Some(user) = self.users.iter_mut().find(|u| u.id == uid) {
                user.home = new_home;
                user.secret = secret;
            }
            migrated.push((uid, new_home));
        }
        Ok(Withdrawal {
            operator: op,
            migrated,
            orphaned_satellites: self.satellites.iter().filter(|s| s.owner == op).count(),
            orphaned_stations: self.stations.iter().filter(|s| s.owner == op).count(),
        })
    }

    /// The entity layout fault plans compile against: per-satellite and
    /// per-station ownership in topology-graph node order.
    pub fn fault_topology(&self) -> FaultTopology {
        FaultTopology::new(
            self.satellites.iter().map(|s| s.owner).collect(),
            self.stations.iter().map(|s| s.owner).collect(),
        )
    }

    /// Member count.
    pub fn operator_count(&self) -> usize {
        self.operators.len()
    }

    /// All member ids, ascending.
    pub fn operator_ids(&self) -> Vec<OperatorId> {
        self.operators.keys().copied().collect()
    }

    /// Access an operator.
    pub fn operator(&self, id: OperatorId) -> Option<&Operator> {
        self.operators.get(&id)
    }

    /// Mutable access to an operator (e.g. to drive its AAA).
    pub fn operator_mut(&mut self, id: OperatorId) -> Option<&mut Operator> {
        self.operators.get_mut(&id)
    }

    /// The federation secret of `op` — what every member uses to verify
    /// that operator's roaming certificates. Fails with
    /// [`FederationError::UnknownOperator`] for departed operators (whose
    /// certificates must no longer verify anywhere).
    pub fn federation_secret(&self, op: OperatorId) -> Result<&SharedSecret, FederationError> {
        self.operators
            .get(&op)
            .map(|o| &o.federation_secret)
            .ok_or(FederationError::UnknownOperator(op))
    }

    /// All satellites.
    pub fn satellites(&self) -> &[Satellite] {
        &self.satellites
    }

    /// All ground stations.
    pub fn stations(&self) -> &[GroundStation] {
        &self.stations
    }

    /// Satellites of one operator.
    pub fn satellites_of(&self, op: OperatorId) -> Vec<&Satellite> {
        self.satellites.iter().filter(|s| s.owner == op).collect()
    }

    /// Topology-builder views of all satellites (federated operation).
    pub fn sat_nodes(&self) -> Vec<SatNode> {
        self.satellites.iter().map(Satellite::as_sat_node).collect()
    }

    /// Topology-builder views of one operator's satellites only (solo
    /// operation — no collaboration).
    pub fn sat_nodes_of(&self, op: OperatorId) -> Vec<SatNode> {
        self.satellites
            .iter()
            .filter(|s| s.owner == op)
            .map(Satellite::as_sat_node)
            .collect()
    }

    /// Topology-builder views of all stations.
    pub fn ground_nodes(&self) -> Vec<GroundNode> {
        self.stations
            .iter()
            .map(GroundStation::as_ground_node)
            .collect()
    }

    /// Topology-builder views of one operator's stations only.
    pub fn ground_nodes_of(&self, op: OperatorId) -> Vec<GroundNode> {
        self.stations
            .iter()
            .filter(|s| s.owner == op)
            .map(GroundStation::as_ground_node)
            .collect()
    }

    /// The federated topology snapshot at `t_s`.
    pub fn snapshot(&self, t_s: f64) -> Graph {
        self.snapshot_recorded(t_s, &mut NullRecorder)
    }

    /// [`Self::snapshot`] with telemetry: surfaces the snapshot
    /// builder's `snapshot.pairs_tested` / `snapshot.pairs_pruned`
    /// counters on `rec` — the ordered satellite pairs whose distance
    /// its nearest-first neighbour search computed / never computed —
    /// and the ground-prune counters.
    pub fn snapshot_recorded(&self, t_s: f64, rec: &mut dyn Recorder) -> Graph {
        build_snapshot(
            t_s,
            &self.sat_nodes(),
            &self.ground_nodes(),
            &self.snapshot_params,
            rec,
        )
    }

    /// Precompute the federation's topology as a [`TopologyTimeline`]:
    /// one snapshot every `step_s` seconds over `[0, horizon_s]`, built
    /// on `threads` workers (serial and parallel builds are
    /// bitwise-identical).
    ///
    /// The result is a [`TopologyProvider`] like the federation itself.
    /// [`NetSim::with_timeline`](crate::netsim::NetSim::with_timeline)
    /// refreshes it every `step_s`, looking each stored snapshot up
    /// instead of rebuilding it from orbit propagation; a run at any
    /// other refresh interval, or longer than `horizon_s`, is refused.
    pub fn timeline(
        &self,
        step_s: f64,
        horizon_s: f64,
        threads: usize,
    ) -> Result<TopologyTimeline, TimelineError> {
        TopologyTimeline::build(self, 0.0, step_s, horizon_s, threads)
    }

    /// A solo snapshot: only `op`'s own satellites and stations — the
    /// no-collaboration counterfactual of §2.
    pub fn solo_snapshot(&self, op: OperatorId, t_s: f64) -> Graph {
        build_snapshot(
            t_s,
            &self.sat_nodes_of(op),
            &self.ground_nodes_of(op),
            &self.snapshot_params,
            &mut NullRecorder,
        )
    }

    /// Contact plan of the whole federation over a ground point; the
    /// horizon-skip scanner's `contact.samples_evaluated` /
    /// `contact.samples_skipped` counters go to `rec`.
    pub fn contact_plan(
        &self,
        ground_ecef: Vec3,
        t_start_s: f64,
        t_end_s: f64,
        step_s: f64,
        rec: &mut dyn Recorder,
    ) -> Vec<ContactWindow> {
        contact_plan(
            &self.sat_nodes(),
            ground_ecef,
            t_start_s,
            t_end_s,
            step_s,
            self.snapshot_params.min_elevation_rad,
            rec,
        )
    }

    /// Contact plan restricted to one operator's satellites.
    pub fn contact_plan_of(
        &self,
        op: OperatorId,
        ground_ecef: Vec3,
        t_start_s: f64,
        t_end_s: f64,
        step_s: f64,
    ) -> Vec<ContactWindow> {
        contact_plan(
            &self.sat_nodes_of(op),
            ground_ecef,
            t_start_s,
            t_end_s,
            step_s,
            self.snapshot_params.min_elevation_rad,
            &mut NullRecorder,
        )
    }

    /// Satellite by id.
    pub fn satellite(&self, id: SatelliteId) -> Option<&Satellite> {
        self.satellites.iter().find(|s| s.id == id)
    }

    /// Satellite array index by id (the index used in topology graphs).
    pub fn satellite_index(&self, id: SatelliteId) -> Option<usize> {
        self.satellites.iter().position(|s| s.id == id)
    }
}

/// A federation *is* a topology source: `topology_at` is
/// [`Federation::snapshot`]. This lets a federation drive
/// [`NetSim::with_provider`](crate::netsim::NetSim::with_provider)
/// directly and lets [`TopologyTimeline::build`] precompute its
/// snapshot sequence.
impl TopologyProvider for Federation {
    fn topology_at(&self, t_s: f64) -> Graph {
        self.snapshot(t_s)
    }
}

/// Build a federation in which one Iridium-like Walker Star constellation
/// is split round-robin among `n_operators` member firms, with each firm
/// also owning one ground station from the provided list (cycled).
///
/// This is the paper's hypothetical OpenSpace deployment of §4 ("we use
/// [Iridium's] specifications to demonstrate a hypothetical OpenSpace
/// constellation of independently owned satellites and ground stations").
pub fn iridium_federation(
    n_operators: usize,
    classes: &[SatelliteClass],
    station_sites: &[Geodetic],
) -> Federation {
    assert!(n_operators > 0, "need at least one operator");
    assert!(!classes.is_empty(), "need at least one satellite class");
    let mut fed = Federation::new();
    let ops: Vec<OperatorId> = (0..n_operators)
        .map(|i| fed.add_operator(format!("operator-{}", i + 1)))
        .collect();
    // Iridium's published parameters are valid by construction; an empty
    // constellation here would only mean the hard-coded params regressed.
    let els = openspace_orbit::walker::walker_star(&openspace_orbit::walker::iridium_params())
        .unwrap_or_default();
    for (i, el) in els.into_iter().enumerate() {
        let owner = ops[i % n_operators];
        let class = classes[i % classes.len()];
        // Cannot fail: every owner was admitted above.
        let _ = fed.add_satellite(owner, class, el);
    }
    for (i, site) in station_sites.iter().enumerate() {
        let _ = fed.add_ground_station(ops[i % n_operators], *site);
    }
    fed
}

/// A representative shared ground-segment: six sites spread over
/// continents (rough locations of real teleport clusters).
pub fn default_station_sites() -> Vec<Geodetic> {
    vec![
        Geodetic::from_degrees(48.0, 11.0, 500.0),  // Bavaria
        Geodetic::from_degrees(39.0, -77.0, 100.0), // Virginia
        Geodetic::from_degrees(-33.9, 18.4, 50.0),  // Cape Town
        Geodetic::from_degrees(1.35, 103.8, 20.0),  // Singapore
        Geodetic::from_degrees(-31.9, 115.9, 30.0), // Perth
        Geodetic::from_degrees(64.1, -21.9, 40.0),  // Reykjavik
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_protocol::auth::make_access_request;

    fn small_fed() -> Federation {
        iridium_federation(
            4,
            &[SatelliteClass::CubeSat, SatelliteClass::SmallSat],
            &default_station_sites(),
        )
    }

    #[test]
    fn iridium_federation_splits_fleet_evenly() {
        let fed = small_fed();
        assert_eq!(fed.operator_count(), 4);
        assert_eq!(fed.satellites().len(), 66);
        let counts: Vec<usize> = fed
            .operator_ids()
            .iter()
            .map(|&op| fed.satellites_of(op).len())
            .collect();
        assert!(counts.iter().all(|&c| (16..=17).contains(&c)), "{counts:?}");
    }

    #[test]
    fn stations_cycle_across_operators() {
        let fed = small_fed();
        assert_eq!(fed.stations().len(), 6);
        let owners: std::collections::BTreeSet<u32> =
            fed.stations().iter().map(|s| s.owner.0).collect();
        assert!(owners.len() >= 2, "stations spread over operators");
    }

    #[test]
    fn federated_snapshot_is_connected_solo_is_not() {
        let fed = small_fed();
        let g = fed.snapshot(0.0);
        let reach = g.reachable_from(0);
        assert!(
            reach.iter().filter(|&&r| r).count() == g.node_count(),
            "federated graph fully connected"
        );

        let op = fed.operator_ids()[0];
        let solo = fed.solo_snapshot(op, 0.0);
        // A 16-satellite slice of Iridium (every 4th slot) is too sparse
        // for a complete ISL mesh at the default range limit.
        let solo_reach = solo.reachable_from(0);
        let reached = solo_reach.iter().filter(|&&r| r).count();
        assert!(
            reached < solo.node_count(),
            "solo slice should fragment: reached {reached}/{}",
            solo.node_count()
        );
    }

    #[test]
    fn users_register_with_their_home_aaa() {
        let mut fed = small_fed();
        let op = fed.operator_ids()[1];
        let u = fed.register_user(op).unwrap();
        assert_eq!(u.home, op);
        // The home AAA now knows the user's secret.
        let req = make_access_request(u.id, op, 1, &u.secret);
        let aaa = &mut fed.operator_mut(op).unwrap().auth;
        assert!(aaa.handle_request(&req, 0).is_ok());
    }

    #[test]
    fn register_user_with_unknown_operator_is_an_error() {
        let mut fed = small_fed();
        let err = fed.register_user(OperatorId(99)).unwrap_err();
        assert_eq!(err, FederationError::UnknownOperator(OperatorId(99)));
        assert_eq!(err.to_string(), "unknown operator op-99");
        // No user id was burned by the failed registration.
        let u = fed.register_user(fed.operator_ids()[0]).unwrap();
        assert_eq!(u.id, UserId(1));
    }

    #[test]
    fn federation_secret_of_unknown_operator_is_an_error() {
        let fed = small_fed();
        assert_eq!(
            fed.federation_secret(OperatorId(42)).unwrap_err(),
            FederationError::UnknownOperator(OperatorId(42))
        );
    }

    #[test]
    fn federation_secrets_are_per_operator() {
        let fed = small_fed();
        let ids = fed.operator_ids();
        assert_ne!(
            fed.federation_secret(ids[0]).unwrap(),
            fed.federation_secret(ids[1]).unwrap()
        );
    }

    #[test]
    fn monolithic_has_one_owner() {
        let fed = iridium_federation(1, &[SatelliteClass::BroadbandBus], &default_station_sites());
        assert_eq!(fed.operator_count(), 1);
        let op = fed.operator_ids()[0];
        assert_eq!(fed.satellites_of(op).len(), 66);
    }

    #[test]
    fn satellite_lookup_by_id() {
        let fed = small_fed();
        let sat = fed.satellites()[10];
        assert_eq!(fed.satellite(sat.id).unwrap().id, sat.id);
        assert_eq!(fed.satellite_index(sat.id), Some(10));
        assert!(fed.satellite(SatelliteId(9_999)).is_none());
    }

    #[test]
    fn satellite_for_unknown_operator_is_an_error() {
        let mut fed = Federation::new();
        let err = fed
            .add_satellite(
                OperatorId(99),
                SatelliteClass::CubeSat,
                OrbitalElements::circular(780_000.0, 86.4, 0.0, 0.0).unwrap(),
            )
            .unwrap_err();
        assert_eq!(err, FederationError::UnknownOperator(OperatorId(99)));
        assert!(fed.satellites().is_empty());
        let err = fed
            .add_ground_station(OperatorId(99), default_station_sites()[0])
            .unwrap_err();
        assert_eq!(err, FederationError::UnknownOperator(OperatorId(99)));
    }

    #[test]
    fn withdrawal_migrates_users_to_survivors() {
        let mut fed = small_fed();
        let ids = fed.operator_ids();
        let leaver = ids[0];
        let u1 = fed.register_user(leaver).unwrap();
        let u2 = fed.register_user(leaver).unwrap();
        let u3 = fed.register_user(ids[1]).unwrap();
        let w = fed.withdraw_operator(leaver).unwrap();
        assert_eq!(w.operator, leaver);
        assert_eq!(w.migrated.len(), 2);
        assert!(w.orphaned_satellites > 0);
        // Every migrated user has a surviving home and a fresh secret.
        for (uid, new_home) in &w.migrated {
            assert_ne!(*new_home, leaver);
            let user = fed.user(*uid).unwrap();
            assert_eq!(user.home, *new_home);
            let req = make_access_request(*uid, *new_home, 1, &user.secret);
            let aaa = &mut fed.operator_mut(*new_home).unwrap().auth;
            assert!(aaa.handle_request(&req, 0).is_ok());
        }
        assert_ne!(fed.user(u1.id).unwrap().secret, u1.secret);
        assert_ne!(fed.user(u2.id).unwrap().home, leaver);
        // Unaffected users keep their registration.
        assert_eq!(fed.user(u3.id).unwrap().home, ids[1]);
        // The leaver's certificates no longer verify.
        assert!(fed.federation_secret(leaver).is_err());
        assert_eq!(fed.operator_count(), 3);
        // Node indices stayed stable: the fleet roster is untouched.
        assert_eq!(fed.satellites().len(), 66);
    }

    #[test]
    fn withdrawing_the_last_operator_with_users_is_refused() {
        let mut fed = iridium_federation(1, &[SatelliteClass::SmallSat], &default_station_sites());
        let op = fed.operator_ids()[0];
        fed.register_user(op).unwrap();
        assert_eq!(
            fed.withdraw_operator(op).unwrap_err(),
            FederationError::NoSurvivingOperator
        );
        // The roster is untouched by the refused withdrawal.
        assert_eq!(fed.operator_count(), 1);
    }

    #[test]
    fn withdrawing_an_unknown_operator_is_an_error() {
        let mut fed = small_fed();
        assert_eq!(
            fed.withdraw_operator(OperatorId(77)).unwrap_err(),
            FederationError::UnknownOperator(OperatorId(77))
        );
    }

    #[test]
    fn timeline_reproduces_snapshots_bitwise() {
        let fed = small_fed();
        let tl = fed.timeline(60.0, 300.0, 4).unwrap();
        assert_eq!(tl.delta_count(), 5);
        for &t in tl.tick_times() {
            let fresh = fed.snapshot(t);
            assert!(
                openspace_net::topology::GraphDelta::between(&fresh, tl.graph_at(t))
                    .unwrap()
                    .is_empty(),
                "timeline diverged from fresh snapshot at t={t}"
            );
        }
        // Thread count cannot change the result.
        let serial = fed.timeline(60.0, 300.0, 1).unwrap();
        assert!(
            openspace_net::topology::GraphDelta::between(serial.base(), tl.base())
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn fault_topology_mirrors_the_roster() {
        let fed = small_fed();
        let topo = fed.fault_topology();
        assert_eq!(topo.n_sats(), 66);
        assert_eq!(topo.n_stations(), 6);
        // Ownership round-robins exactly like the roster.
        let ops = fed.operator_ids();
        assert_eq!(
            topo.nodes_of_operator(ops[0]).len(),
            fed.satellites_of(ops[0]).len()
                + fed.stations().iter().filter(|s| s.owner == ops[0]).count()
        );
    }
}
