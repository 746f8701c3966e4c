//! Regulation-aware routing.
//!
//! §5(3): "Different countries and regions have varying policies on
//! satellite communications, such as different spectrum allocation
//! policies, as well as independent licensing requirements. The ability
//! to use satellites located in some regions as relays for user traffic
//! can also be impeded by diverse user data privacy regulations … there
//! is the question of how to maintain a user's data privacy requirements
//! when their traffic is routed to a groundstation outside their region."
//!
//! Model: ground stations carry a jurisdiction; operators hold downlink
//! licenses per jurisdiction; users carry a privacy policy constraining
//! which jurisdictions may terminate their traffic and which carriers
//! may transit it. [`policy_route`] finds the best compliant route — or
//! proves none exists, which is itself the §5(3) finding.

use crate::routing::dijkstra::{shortest_path_to_any, Path};
use crate::topology::{Edge, Graph, NodeId, NodeKind};
use openspace_telemetry::NullRecorder;

/// A legal jurisdiction (country/region code, opaque).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Jurisdiction(pub u8);

/// Regulatory attributes of one ground station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationAttrs {
    /// Where the station stands.
    pub jurisdiction: Jurisdiction,
}

/// A downlink license: `operator` may transmit to ground in
/// `jurisdiction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownlinkLicense {
    /// Licensed operator.
    pub operator: u32,
    /// Licensed jurisdiction.
    pub jurisdiction: Jurisdiction,
}

/// A user's (or flow's) routing policy.
#[derive(Debug, Clone, Default)]
pub struct RoutePolicy {
    /// Jurisdictions allowed to terminate the traffic; empty = any.
    pub allowed_exit: Vec<Jurisdiction>,
    /// Operators that must not carry any hop (distrust, sanctions).
    pub blocked_carriers: Vec<u32>,
}

impl RoutePolicy {
    /// The permissive default: any exit, any carrier.
    pub fn permissive() -> Self {
        Self::default()
    }

    /// Whether `j` is an acceptable exit jurisdiction.
    pub fn exit_allowed(&self, j: Jurisdiction) -> bool {
        self.allowed_exit.is_empty() || self.allowed_exit.contains(&j)
    }

    /// Whether `op` may carry a hop.
    pub fn carrier_allowed(&self, op: u32) -> bool {
        !self.blocked_carriers.contains(&op)
    }
}

/// Outcome of a policy-constrained route search.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyRoute {
    /// A compliant route exists.
    Compliant {
        /// The route.
        path: Path,
        /// Exit station's index in the station array.
        exit_station: usize,
    },
    /// Connectivity exists but every route violates policy.
    OnlyNonCompliant,
    /// No route at all.
    Unreachable,
}

/// Best (lowest-weight) route from satellite node `src` to any ground
/// station that satisfies `policy` and the operators' `licenses`.
///
/// `station_attrs[i]` describes the station at node `graph.station_node(i)`.
///
/// # Panics
/// Panics if `station_attrs` does not match the graph's station count.
pub fn policy_route(
    graph: &Graph,
    station_attrs: &[StationAttrs],
    licenses: &[DownlinkLicense],
    src: impl Into<NodeId>,
    policy: &RoutePolicy,
    weight: impl Fn(&Edge) -> f64,
) -> PolicyRoute {
    let src = src.into();
    assert_eq!(
        station_attrs.len(),
        graph.station_count(),
        "one StationAttrs per station"
    );
    let n_sats = graph.satellite_count();
    let licensed = |op: u32, j: Jurisdiction| {
        licenses
            .iter()
            .any(|l| l.operator == op && l.jurisdiction == j)
    };

    let compliant = |e: &Edge| {
        if !policy.carrier_allowed(e.operator.0) {
            return f64::INFINITY;
        }
        // A hop terminating at a ground station is a downlink: the
        // transmitting operator must hold a license there.
        if e.to >= n_sats {
            let j = station_attrs[e.to.0 - n_sats].jurisdiction;
            if !licensed(e.operator.0, j) {
                return f64::INFINITY;
            }
        }
        weight(e)
    };
    let exits: Vec<usize> = (0..station_attrs.len())
        .filter(|&gi| policy.exit_allowed(station_attrs[gi].jurisdiction))
        .collect();
    let exit_nodes: Vec<NodeId> = exits.iter().map(|&gi| graph.station_node(gi)).collect();
    let rec = &mut NullRecorder;
    if let Some((i, path)) = shortest_path_to_any(graph, src, &exit_nodes, compliant, rec) {
        return PolicyRoute::Compliant {
            path,
            exit_station: exits[i],
        };
    }
    // No compliant route: tell a policy block from no connectivity.
    match shortest_path_to_any(graph, src, &graph.station_nodes(), weight, rec) {
        Some(_) => PolicyRoute::OnlyNonCompliant,
        None => PolicyRoute::Unreachable,
    }
}

/// Convenience check: does a computed path keep the user's traffic out of
/// blocked carriers and exit in an allowed jurisdiction? Used to audit
/// routes produced by policy-unaware routers. A path with a hop the graph
/// no longer carries (e.g. stale after a fault) fails the audit.
pub fn audit_path(
    graph: &Graph,
    station_attrs: &[StationAttrs],
    path: &Path,
    policy: &RoutePolicy,
) -> bool {
    // Carrier check on every hop.
    for w in path.nodes.windows(2) {
        match graph.find_edge(w[0], w[1]) {
            Some(e) if policy.carrier_allowed(e.operator.0) => {}
            _ => return false,
        }
    }
    // Exit check on the terminal node.
    let Some(&last) = path.nodes.last() else {
        return true; // empty path: vacuously compliant
    };
    match graph.node_kind(last) {
        NodeKind::GroundStation(gi) => policy.exit_allowed(station_attrs[gi.index()].jurisdiction),
        NodeKind::Satellite(_) => true, // not an exit path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{latency_weight, shortest_path};
    use crate::topology::LinkTech;

    /// sat0 —(op1)— sat1 —(op1)→ gs0 (juris A, near)
    ///   \—(op2)——— sat2 —(op2)→ gs1 (juris B, far)
    fn testnet() -> (Graph, Vec<StationAttrs>) {
        let mut g = Graph::new(3, 2);
        g.add_bidirectional(0, 1, 0.001, 1e7, 1, 1, LinkTech::Rf);
        g.add_bidirectional(0, 2, 0.002, 1e7, 2, 2, LinkTech::Rf);
        g.add_bidirectional(1, 3, 0.001, 1e8, 1, 9, LinkTech::Rf); // gs0
        g.add_bidirectional(2, 4, 0.002, 1e8, 2, 9, LinkTech::Rf); // gs1
        let attrs = vec![
            StationAttrs {
                jurisdiction: Jurisdiction(b'A'),
            },
            StationAttrs {
                jurisdiction: Jurisdiction(b'B'),
            },
        ];
        (g, attrs)
    }

    fn all_licenses() -> Vec<DownlinkLicense> {
        vec![
            DownlinkLicense {
                operator: 1,
                jurisdiction: Jurisdiction(b'A'),
            },
            DownlinkLicense {
                operator: 1,
                jurisdiction: Jurisdiction(b'B'),
            },
            DownlinkLicense {
                operator: 2,
                jurisdiction: Jurisdiction(b'A'),
            },
            DownlinkLicense {
                operator: 2,
                jurisdiction: Jurisdiction(b'B'),
            },
        ]
    }

    #[test]
    fn permissive_policy_picks_nearest_exit() {
        let (g, attrs) = testnet();
        let r = policy_route(
            &g,
            &attrs,
            &all_licenses(),
            0,
            &RoutePolicy::permissive(),
            latency_weight,
        );
        match r {
            PolicyRoute::Compliant { exit_station, .. } => assert_eq!(exit_station, 0),
            other => panic!("expected compliant, got {other:?}"),
        }
    }

    #[test]
    fn exit_restriction_forces_farther_station() {
        let (g, attrs) = testnet();
        let policy = RoutePolicy {
            allowed_exit: vec![Jurisdiction(b'B')],
            blocked_carriers: vec![],
        };
        let r = policy_route(&g, &attrs, &all_licenses(), 0, &policy, latency_weight);
        match r {
            PolicyRoute::Compliant { exit_station, path } => {
                assert_eq!(exit_station, 1);
                assert_eq!(path.nodes, vec![0usize, 2, 4]);
            }
            other => panic!("expected compliant via B, got {other:?}"),
        }
    }

    #[test]
    fn blocked_carrier_forces_detour_or_failure() {
        let (g, attrs) = testnet();
        // Block op2: the B exit becomes unreachable; A exit still works.
        let policy = RoutePolicy {
            allowed_exit: vec![],
            blocked_carriers: vec![2],
        };
        let r = policy_route(&g, &attrs, &all_licenses(), 0, &policy, latency_weight);
        match r {
            PolicyRoute::Compliant { exit_station, .. } => assert_eq!(exit_station, 0),
            other => panic!("{other:?}"),
        }
        // Block op1 too: connectivity exists but nothing complies.
        let policy = RoutePolicy {
            allowed_exit: vec![],
            blocked_carriers: vec![1, 2],
        };
        assert_eq!(
            policy_route(&g, &attrs, &all_licenses(), 0, &policy, latency_weight),
            PolicyRoute::OnlyNonCompliant
        );
    }

    #[test]
    fn missing_downlink_license_blocks_exit() {
        let (g, attrs) = testnet();
        // Only op2 is licensed anywhere: the op1 downlink at gs0 is out.
        let licenses = vec![DownlinkLicense {
            operator: 2,
            jurisdiction: Jurisdiction(b'B'),
        }];
        let r = policy_route(
            &g,
            &attrs,
            &licenses,
            0,
            &RoutePolicy::permissive(),
            latency_weight,
        );
        match r {
            PolicyRoute::Compliant { exit_station, .. } => assert_eq!(exit_station, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn privacy_plus_licensing_can_leave_no_route() {
        let (g, attrs) = testnet();
        // User insists on exiting in A, but nobody is licensed in A.
        let licenses = vec![DownlinkLicense {
            operator: 2,
            jurisdiction: Jurisdiction(b'B'),
        }];
        let policy = RoutePolicy {
            allowed_exit: vec![Jurisdiction(b'A')],
            blocked_carriers: vec![],
        };
        assert_eq!(
            policy_route(&g, &attrs, &licenses, 0, &policy, latency_weight),
            PolicyRoute::OnlyNonCompliant
        );
    }

    #[test]
    fn unreachable_distinguished_from_noncompliant() {
        let mut g = Graph::new(2, 1);
        // Satellite 1 exists but has no links at all.
        g.add_bidirectional(0, 2, 0.001, 1e8, 1, 9, LinkTech::Rf);
        let attrs = vec![StationAttrs {
            jurisdiction: Jurisdiction(b'A'),
        }];
        let r = policy_route(
            &g,
            &attrs,
            &all_licenses(),
            1,
            &RoutePolicy::permissive(),
            latency_weight,
        );
        assert_eq!(r, PolicyRoute::Unreachable);
    }

    #[test]
    fn audit_agrees_with_policy_router() {
        let (g, attrs) = testnet();
        let policy = RoutePolicy {
            allowed_exit: vec![Jurisdiction(b'B')],
            blocked_carriers: vec![1],
        };
        if let PolicyRoute::Compliant { path, .. } =
            policy_route(&g, &attrs, &all_licenses(), 0, &policy, latency_weight)
        {
            assert!(audit_path(&g, &attrs, &path, &policy));
        } else {
            panic!("route expected");
        }
        // A policy-unaware path through op1 fails the audit.
        let naive = shortest_path(&g, 0, 3, latency_weight, &mut NullRecorder).unwrap();
        assert!(!audit_path(&g, &attrs, &naive, &policy));
    }
}
