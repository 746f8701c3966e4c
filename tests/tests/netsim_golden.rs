//! Golden reports of the packet-level simulator.
//!
//! Every other netsim suite compares two runs with each other (plain vs
//! recorded, provider vs timeline, faulted vs fault-free) or checks a
//! loose bound, so a change that shifts every run the same way passes
//! them all. This suite pins absolute outputs: eight scenarios that
//! between them fire every event kind of the engine (injection, demand
//! tick, hop arrival, replan, resnapshot, fault), each
//! asserting every [`NetSimReport`] field bit for bit, plus the engine's
//! event count, event-queue high-water mark and packet-slab high-water
//! mark.
//!
//! The expected values were recorded from the simulator and are meant to
//! change only with a deliberate change of the simulated model. When one
//! does, the failure message prints the new values in the form this file
//! uses.

use openspace_core::netsim::{
    DemandWorkload, FlowSpec, NetSim, NetSimConfig, NetSimReport, RoutingMode, TrafficKind,
};
use openspace_net::timeline::TopologyTimeline;
use openspace_net::topology::{Graph, LinkTech};
use openspace_sim::fault::{FaultPlan, FaultTopology, TopologyEvent};
use openspace_sim::ids::OperatorId;
use openspace_telemetry::MemoryRecorder;

/// Everything a run is pinned on. Floats are compared by `to_bits`.
#[derive(Debug)]
struct Golden {
    generated: u64,
    delivered: u64,
    dropped: u64,
    unroutable: u64,
    delivery_ratio: f64,
    mean_latency_s: f64,
    p95_latency_s: f64,
    max_link_utilization: f64,
    events_applied: u64,
    packets_lost: u64,
    node_availability: f64,
    mttr_s: Option<f64>,
    reassociations: u64,
    mean_reassociation_latency_s: Option<f64>,
    events_processed: u64,
    queue_depth_high_water: f64,
    slab_high_water: f64,
}

impl Golden {
    fn of(r: &NetSimReport, rec: &MemoryRecorder) -> Self {
        Self {
            generated: r.generated,
            delivered: r.delivered,
            dropped: r.dropped,
            unroutable: r.unroutable,
            delivery_ratio: r.delivery_ratio,
            mean_latency_s: r.mean_latency_s,
            p95_latency_s: r.p95_latency_s,
            max_link_utilization: r.max_link_utilization,
            events_applied: r.fault.events_applied,
            packets_lost: r.fault.packets_lost,
            node_availability: r.fault.node_availability,
            mttr_s: r.fault.mttr_s,
            reassociations: r.fault.reassociations,
            mean_reassociation_latency_s: r.fault.mean_reassociation_latency_s,
            events_processed: rec.counter("engine.events_processed"),
            queue_depth_high_water: rec.maximum("engine.queue_depth_high_water").unwrap(),
            slab_high_water: rec.maximum("netsim.engine.slab_high_water").unwrap(),
        }
    }

    /// Every field as `(name, bits)`, floats by `to_bits` and an absent
    /// option as `u64::MAX` (no finite or NaN float has those bits
    /// in the simulator's outputs).
    fn bits(&self) -> Vec<(&'static str, u64)> {
        let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        vec![
            ("generated", self.generated),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("unroutable", self.unroutable),
            ("delivery_ratio", self.delivery_ratio.to_bits()),
            ("mean_latency_s", self.mean_latency_s.to_bits()),
            ("p95_latency_s", self.p95_latency_s.to_bits()),
            ("max_link_utilization", self.max_link_utilization.to_bits()),
            ("events_applied", self.events_applied),
            ("packets_lost", self.packets_lost),
            ("node_availability", self.node_availability.to_bits()),
            ("mttr_s", opt(self.mttr_s)),
            ("reassociations", self.reassociations),
            (
                "mean_reassociation_latency_s",
                opt(self.mean_reassociation_latency_s),
            ),
            ("events_processed", self.events_processed),
            (
                "queue_depth_high_water",
                self.queue_depth_high_water.to_bits(),
            ),
            ("slab_high_water", self.slab_high_water.to_bits()),
        ]
    }
}

/// Run `sim` recorded and compare the outcome with `expected`, field by
/// field. The plain run must reproduce the recorded report.
fn check(name: &str, sim: NetSim<'_>, flows: &[FlowSpec], expected: Golden) {
    let mut rec = MemoryRecorder::new();
    let report = sim.run_recorded(flows, &mut rec).expect("valid scenario");
    assert_eq!(
        report,
        sim.run(flows).unwrap(),
        "{name}: recording perturbed"
    );
    let actual = Golden::of(&report, &rec);
    for ((field, want), (_, got)) in expected.bits().into_iter().zip(actual.bits()) {
        assert_eq!(got, want, "{name}: {field} differs; actual {actual:#?}");
    }
}

/// 0 —fast— 1 —fast— 3   plus a slower bypass 0 — 2 — 3.
fn diamond(bps: f64) -> Graph {
    let mut g = Graph::new(4, 0);
    g.add_bidirectional(0, 1, 0.002, bps, 0, 0, LinkTech::Rf);
    g.add_bidirectional(1, 3, 0.002, bps, 0, 0, LinkTech::Rf);
    g.add_bidirectional(0, 2, 0.006, bps, 0, 0, LinkTech::Rf);
    g.add_bidirectional(2, 3, 0.006, bps, 0, 0, LinkTech::Rf);
    g
}

/// The diamond whose fast path exists for 4 s out of every 8 and whose
/// bypass latency drifts, so consecutive snapshots differ.
fn churning(t: f64) -> Graph {
    let mut g = Graph::new(4, 0);
    g.add_bidirectional(0, 2, 0.006, 3e6, 0, 0, LinkTech::Rf);
    g.add_bidirectional(2, 3, 0.006 + t * 1e-7, 3e6, 0, 0, LinkTech::Rf);
    if (t / 4.0).floor() as i64 % 2 == 0 {
        g.add_bidirectional(0, 1, 0.002, 3e6, 0, 0, LinkTech::Rf);
        g.add_bidirectional(1, 3, 0.002, 3e6, 0, 0, LinkTech::Rf);
    }
    g
}

fn onoff(mean_on_s: f64, mean_off_s: f64) -> TrafficKind {
    TrafficKind::OnOff {
        mean_on_s,
        mean_off_s,
    }
}

fn cfg(duration_s: f64, routing: RoutingMode, seed: u64) -> NetSimConfig {
    NetSimConfig {
        duration_s,
        queue_capacity_bytes: 64 * 1024,
        routing,
        seed,
    }
}

const ADAPTIVE: RoutingMode = RoutingMode::Adaptive {
    replan_interval_s: 1.0,
};

/// A recovered outage of node 1, a flapping 2–3 link, and a permanent
/// failure of node 1 that is still open when the run ends.
fn fault_events() -> Vec<TopologyEvent> {
    let plan = FaultPlan::builder()
        .sat_outage(1usize, 3.0, 4.0)
        .link_flap(2usize, 3usize, 9.0, 1.0, 1.5, 2)
        .sat_failure(1usize, 14.0)
        .build()
        .unwrap();
    plan.compile(&FaultTopology::homogeneous(4, 0, OperatorId(0)))
        .unwrap()
}

/// The three traffic kinds side by side on a static snapshot.
fn mixed_flows() -> [FlowSpec; 3] {
    [
        FlowSpec::new(0, 3, 6e5, 1_500, TrafficKind::Cbr),
        FlowSpec::new(3, 0, 5e5, 1_200, TrafficKind::Poisson),
        FlowSpec::new(1, 2, 1e6, 1_000, onoff(0.5, 1.0)),
    ]
}

#[test]
fn golden_mixed_traffic_proactive() {
    let g = diamond(2e6);
    let sim = NetSim::new(cfg(20.0, RoutingMode::Proactive, 7)).with_snapshot(&g);
    check(
        "mixed_traffic_proactive",
        sim,
        &mixed_flows(),
        Golden {
            generated: 2455,
            delivered: 2453,
            dropped: 0,
            unroutable: 0,
            delivery_ratio: 0.9991853360488798,
            mean_latency_s: 0.016011855684031396,
            p95_latency_s: 0.021113083498620896,
            max_link_utilization: 0.3318,
            events_applied: 0,
            packets_lost: 0,
            node_availability: 1.0,
            mttr_s: None,
            reassociations: 0,
            mean_reassociation_latency_s: None,
            events_processed: 7362,
            queue_depth_high_water: 13.0,
            slab_high_water: 10.0,
        },
    );
}

#[test]
fn golden_adaptive_replans_under_overload() {
    // Flows from three sources load the fast path past capacity; each
    // replan weighs the links by their smoothed utilization, so the
    // route sequence depends on the utilization history.
    let g = diamond(2e6);
    let flows = [
        FlowSpec::new(0, 3, 1.4e6, 1_500, TrafficKind::Cbr),
        FlowSpec::new(1, 3, 8e5, 1_200, TrafficKind::Poisson),
        FlowSpec::new(2, 3, 5e5, 1_500, TrafficKind::Cbr),
    ];
    let sim = NetSim::new(cfg(20.0, ADAPTIVE, 3)).with_snapshot(&g);
    check(
        "adaptive_replans_under_overload",
        sim,
        &flows,
        Golden {
            generated: 4838,
            delivered: 4786,
            dropped: 6,
            unroutable: 0,
            delivery_ratio: 0.9892517569243489,
            mean_latency_s: 0.05782838564508327,
            p95_latency_s: 0.16628888851036905,
            max_link_utilization: 0.9996,
            events_applied: 0,
            packets_lost: 0,
            node_availability: 1.0,
            mttr_s: None,
            reassociations: 0,
            mean_reassociation_latency_s: None,
            events_processed: 12129,
            queue_depth_high_water: 65.0,
            slab_high_water: 61.0,
        },
    );
}

#[test]
fn golden_overloaded_link_drops() {
    let mut g = Graph::new(2, 0);
    g.add_bidirectional(0, 1, 0.001, 1e6, 0, 0, LinkTech::Rf);
    let flows = [FlowSpec::new(0, 1, 3e6, 1_500, TrafficKind::Poisson)];
    let mut config = cfg(10.0, RoutingMode::Proactive, 5);
    config.queue_capacity_bytes = 16 * 1024;
    let sim = NetSim::new(config).with_snapshot(&g);
    check(
        "overloaded_link_drops",
        sim,
        &flows,
        Golden {
            generated: 2517,
            delivered: 833,
            dropped: 1675,
            unroutable: 0,
            delivery_ratio: 0.33094954310687325,
            mean_latency_s: 0.1154262042789731,
            p95_latency_s: 0.12080300388153681,
            max_link_utilization: 0.9996,
            events_applied: 0,
            packets_lost: 0,
            node_availability: 1.0,
            mttr_s: None,
            reassociations: 0,
            mean_reassociation_latency_s: None,
            events_processed: 3350,
            queue_depth_high_water: 12.0,
            slab_high_water: 12.0,
        },
    );
}

#[test]
fn golden_fault_plan_with_open_outage() {
    let g = diamond(5e6);
    let events = fault_events();
    let sim = NetSim::new(cfg(20.0, RoutingMode::Proactive, 9))
        .with_snapshot(&g)
        .with_faults(&events);
    check(
        "fault_plan_with_open_outage",
        sim,
        &mixed_flows(),
        Golden {
            generated: 2879,
            delivered: 2472,
            dropped: 0,
            unroutable: 407,
            delivery_ratio: 0.8586314692601598,
            mean_latency_s: 0.012847892689316447,
            p95_latency_s: 0.01680000000000348,
            max_link_utilization: 0.10168,
            events_applied: 7,
            packets_lost: 0,
            node_availability: 0.875,
            mttr_s: Some(4.0),
            reassociations: 7,
            mean_reassociation_latency_s: Some(0.5714285714285714),
            events_processed: 7830,
            queue_depth_high_water: 16.0,
            slab_high_water: 7.0,
        },
    );
}

#[test]
fn golden_provider_adaptive() {
    let sim = NetSim::new(cfg(20.0, ADAPTIVE, 11)).with_provider(&churning, 1.0);
    check(
        "provider_adaptive",
        sim,
        &mixed_flows(),
        Golden {
            generated: 3250,
            delivered: 2778,
            dropped: 2,
            unroutable: 470,
            delivery_ratio: 0.8547692307692307,
            mean_latency_s: 0.01443323992834227,
            p95_latency_s: 0.02000129999999878,
            max_link_utilization: 0.5002666666666666,
            events_applied: 0,
            packets_lost: 0,
            node_availability: 1.0,
            mttr_s: None,
            reassociations: 0,
            mean_reassociation_latency_s: None,
            events_processed: 8860,
            queue_depth_high_water: 14.0,
            slab_high_water: 7.0,
        },
    );
}

#[test]
fn golden_timeline_proactive() {
    let tl = TopologyTimeline::build(&churning, 0.0, 1.0, 20.0, 1).unwrap();
    let sim = NetSim::new(cfg(20.0, RoutingMode::Proactive, 13)).with_timeline(&tl);
    check(
        "timeline_proactive",
        sim,
        &mixed_flows(),
        Golden {
            generated: 2705,
            delivered: 2620,
            dropped: 1,
            unroutable: 84,
            delivery_ratio: 0.9685767097966729,
            mean_latency_s: 0.014368578873219727,
            p95_latency_s: 0.02000129999999878,
            max_link_utilization: 0.16306666666666667,
            events_applied: 0,
            packets_lost: 0,
            node_availability: 1.0,
            mttr_s: None,
            reassociations: 0,
            mean_reassociation_latency_s: None,
            events_processed: 7968,
            queue_depth_high_water: 12.0,
            slab_high_water: 7.0,
        },
    );
}

#[test]
fn golden_timeline_adaptive_with_faults() {
    let tl = TopologyTimeline::build(&churning, 0.0, 1.0, 20.0, 1).unwrap();
    let events = fault_events();
    let sim = NetSim::new(cfg(20.0, ADAPTIVE, 17))
        .with_timeline(&tl)
        .with_faults(&events);
    check(
        "timeline_adaptive_with_faults",
        sim,
        &mixed_flows(),
        Golden {
            generated: 2837,
            delivered: 2278,
            dropped: 3,
            unroutable: 554,
            delivery_ratio: 0.8029608741628481,
            mean_latency_s: 0.016227083882584915,
            p95_latency_s: 0.020001815000003018,
            max_link_utilization: 0.4544,
            events_applied: 7,
            packets_lost: 2,
            node_availability: 0.875,
            mttr_s: Some(4.0),
            reassociations: 2,
            mean_reassociation_latency_s: Some(0.0),
            events_processed: 7448,
            queue_depth_high_water: 19.0,
            slab_high_water: 8.0,
        },
    );
}

#[test]
fn golden_two_tick_demand() {
    let g = diamond(2e6);
    let demand = DemandWorkload::new(vec![
        (
            0.0,
            vec![
                FlowSpec::new(0, 3, 4e5, 1_500, TrafficKind::Cbr),
                FlowSpec::new(1, 2, 8e5, 1_200, onoff(0.5, 1.5)),
            ],
        ),
        (
            6.0,
            vec![
                FlowSpec::new(2, 0, 2e5, 900, TrafficKind::Poisson),
                FlowSpec::new(3, 1, 3e5, 1_500, TrafficKind::Cbr),
            ],
        ),
    ])
    .unwrap();
    let base = [FlowSpec::new(3, 0, 1e5, 1_000, TrafficKind::Poisson)];
    let sim = NetSim::new(cfg(15.0, RoutingMode::Proactive, 77))
        .with_snapshot(&g)
        .with_demand(&demand);
    check(
        "two_tick_demand",
        sim,
        &base,
        Golden {
            generated: 957,
            delivered: 955,
            dropped: 0,
            unroutable: 0,
            delivery_ratio: 0.9979101358411703,
            mean_latency_s: 0.012006780102116038,
            p95_latency_s: 0.01760000000000026,
            max_link_utilization: 0.1344,
            events_applied: 0,
            packets_lost: 0,
            node_availability: 1.0,
            mttr_s: None,
            reassociations: 0,
            mean_reassociation_latency_s: None,
            events_processed: 2384,
            queue_depth_high_water: 10.0,
            slab_high_water: 6.0,
        },
    );
}
