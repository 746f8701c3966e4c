//! Validation of the packet-level simulator against queueing theory and
//! cross-crate scenarios on real constellation snapshots.

use openspace_core::netsim::{
    DemandWorkload, FlowSpec, NetSim, NetSimConfig, RoutingMode, TrafficKind,
};
use openspace_core::prelude::*;
use openspace_net::timeline::TopologyProvider;
use openspace_net::topology::{Graph, LinkTech, NodeId};
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::config::ConfigError;
use openspace_sim::fault::{TopologyEvent, TopologyEventKind};

/// One directed link of capacity `bps` between two nodes.
fn single_link(bps: f64) -> Graph {
    let mut g = Graph::new(2, 0);
    g.add_bidirectional(0, 1, 0.001, bps, 0, 0, LinkTech::Rf);
    g
}

#[test]
fn mm1_mean_delay_matches_theory() {
    // M/M/1-ish check: Poisson arrivals, fixed-size packets (so strictly
    // M/D/1) at utilization ρ. M/D/1 waiting time: W = ρ/(2μ(1−ρ)),
    // plus service 1/μ and propagation. Simulated mean latency must land
    // on the M/D/1 prediction, which is a sharp test of the queueing
    // machinery (event ordering, busy chains, FIFO service).
    let capacity = 1.0e6;
    let packet_bytes = 1_250u32; // 10 kbit → μ = 100 pkt/s
    let service_s = packet_bytes as f64 * 8.0 / capacity;
    for rho in [0.3, 0.6, 0.8] {
        let g = single_link(capacity);
        let r = NetSim::new(NetSimConfig {
            duration_s: 400.0,
            queue_capacity_bytes: 64 * 1024 * 1024, // effectively infinite
            routing: RoutingMode::Proactive,
            seed: 3,
        })
        .with_snapshot(&g)
        .run(&[FlowSpec::new(
            0,
            1,
            rho * capacity,
            packet_bytes,
            TrafficKind::Poisson,
        )])
        .expect("valid netsim config");
        assert!(r.dropped == 0, "rho={rho}: drops {}", r.dropped);
        let wait_theory = rho * service_s / (2.0 * (1.0 - rho));
        let latency_theory = wait_theory + service_s + 0.001;
        let rel_err = (r.mean_latency_s - latency_theory).abs() / latency_theory;
        assert!(
            rel_err < 0.08,
            "rho={rho}: simulated {} vs M/D/1 {} (err {:.1}%)",
            r.mean_latency_s,
            latency_theory,
            rel_err * 100.0
        );
    }
}

#[test]
fn utilization_measurement_matches_offered_load() {
    let g = single_link(2.0e6);
    let r = NetSim::new(NetSimConfig {
        duration_s: 60.0,
        ..Default::default()
    })
    .with_snapshot(&g)
    .run(&[FlowSpec::new(0, 1, 1.0e6, 1_500, TrafficKind::Cbr)])
    .expect("valid netsim config");
    assert!(
        (r.max_link_utilization - 0.5).abs() < 0.05,
        "measured {}",
        r.max_link_utilization
    );
}

#[test]
fn final_utilization_sample_divides_by_actual_window_after_restore() {
    use openspace_sim::fault::{FaultPlan, FaultTopology};
    use openspace_sim::ids::OperatorId;

    // Flap the only link down at t=5 and back up at t=8 of a 10 s run.
    // The restore creates a fresh link whose measurement window is the
    // final 2 s; at 1 Mbit/s offered over a 2 Mbit/s link the correct
    // sample is ~0.5. Dividing by the full duration (the old bug) would
    // dilute it to ~0.1.
    let g = single_link(2.0e6);
    let topo = FaultTopology::new(vec![OperatorId(0); 2], vec![]);
    let events = FaultPlan::builder()
        .link_flap(0, 1, 5.0, 3.0, 1.0, 1)
        .build()
        .expect("valid plan")
        .compile(&topo)
        .expect("plan fits topology");
    let r = NetSim::new(NetSimConfig {
        duration_s: 10.0,
        ..Default::default()
    })
    .with_snapshot(&g)
    .with_faults(&events)
    .run(&[FlowSpec::new(0, 1, 1.0e6, 1_500, TrafficKind::Cbr)])
    .expect("valid netsim config");
    assert!(
        (r.max_link_utilization - 0.5).abs() < 0.1,
        "restored link must be sampled over its own window, got {}",
        r.max_link_utilization
    );
}

#[test]
fn max_link_utilization_reports_saturation_unclamped() {
    // A 3 Mbit/s flow over a 1 Mbit/s link saturates it: per-replan
    // samples sit at ~1.0. The report must surface that raw measurement;
    // only the load fed back into the routing graph is clamped below
    // 1.0 (the congestion weight's domain). The old code folded the
    // clamped value into the report, capping it at 0.98.
    let g = single_link(1.0e6);
    let r = NetSim::new(NetSimConfig {
        duration_s: 5.0,
        routing: RoutingMode::Adaptive {
            replan_interval_s: 1.0,
        },
        ..Default::default()
    })
    .with_snapshot(&g)
    .run(&[FlowSpec::new(0, 1, 3.0e6, 1_500, TrafficKind::Cbr)])
    .expect("valid netsim config");
    assert!(
        r.max_link_utilization > 0.98,
        "saturated link must report >0.98, got {}",
        r.max_link_utilization
    );
    assert!(r.max_link_utilization < 1.1);
}

#[test]
fn netsim_on_real_iridium_snapshot_delivers() {
    let fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
    let graph = fed.snapshot(0.0);
    let pos = geodetic_to_ecef(Geodetic::from_degrees(-1.3, 36.8, 0.0));
    let (sat, _) = openspace_net::isl::best_access_satellite(
        pos,
        &fed.sat_nodes(),
        0.0,
        fed.snapshot_params.min_elevation_rad,
    )
    .unwrap();
    let r = NetSim::new(NetSimConfig {
        duration_s: 10.0,
        ..Default::default()
    })
    .with_snapshot(&graph)
    .run(&[FlowSpec::new(
        graph.sat_node(sat),
        graph.station_node(0),
        2.0e6,
        1_500,
        TrafficKind::Poisson,
    )])
    .expect("valid netsim config");
    assert!(r.delivery_ratio > 0.99, "ratio {}", r.delivery_ratio);
    // Latency is propagation-dominated on an optical Iridium mesh.
    assert!(
        r.mean_latency_s > 0.005 && r.mean_latency_s < 0.2,
        "latency {}",
        r.mean_latency_s
    );
}

#[test]
fn adaptive_routing_beats_proactive_under_hotspot_on_iridium() {
    // The §5(2) claim on the real topology: several flows through one
    // access satellite, RF-only capacities.
    let fed = iridium_federation(4, &[SatelliteClass::CubeSat], &default_station_sites());
    let graph = fed.snapshot(0.0);
    let pos = geodetic_to_ecef(Geodetic::from_degrees(-1.3, 36.8, 0.0));
    let (sat, _) = openspace_net::isl::best_access_satellite(
        pos,
        &fed.sat_nodes(),
        0.0,
        fed.snapshot_params.min_elevation_rad,
    )
    .unwrap();
    let flows: Vec<FlowSpec> = (0..4)
        .map(|_| {
            FlowSpec::new(
                graph.sat_node(sat),
                graph.station_node(0),
                12.0e6,
                1_500,
                TrafficKind::Poisson,
            )
        })
        .collect();
    let base = NetSimConfig {
        duration_s: 15.0,
        queue_capacity_bytes: 512 * 1024,
        routing: RoutingMode::Proactive,
        seed: 11,
    };
    let pro = NetSim::new(base)
        .with_snapshot(&graph)
        .run(&flows)
        .expect("valid netsim config");
    let ada = NetSim::new(NetSimConfig {
        routing: RoutingMode::Adaptive {
            replan_interval_s: 1.0,
        },
        ..base
    })
    .with_snapshot(&graph)
    .run(&flows)
    .expect("valid netsim config");
    assert!(
        pro.delivery_ratio < 0.95,
        "the hotspot must actually overload: {}",
        pro.delivery_ratio
    );
    assert!(
        ada.delivery_ratio > pro.delivery_ratio + 0.05,
        "adaptive {} vs proactive {}",
        ada.delivery_ratio,
        pro.delivery_ratio
    );
    assert!(ada.p95_latency_s < pro.p95_latency_s);
}

/// A one-link run to `f64::MAX` whose only flow a demand tick retires
/// at t = 1: it ends once the periodic events stop re-arming.
fn run_to_f64_max(routing: RoutingMode, provider: Option<&dyn TopologyProvider>) {
    let g = single_link(1e6);
    let flow = FlowSpec::new(0, 1, 1e5, 1_500, TrafficKind::Cbr);
    let demand = DemandWorkload::new(vec![(0.0, vec![flow]), (1.0, vec![])]).unwrap();
    let cfg = NetSimConfig {
        duration_s: f64::MAX,
        routing,
        ..Default::default()
    };
    let sim = match provider {
        Some(p) => NetSim::new(cfg).with_provider(p, 1e308),
        None => NetSim::new(cfg).with_snapshot(&g),
    };
    let r = sim.with_demand(&demand).run(&[]).expect("valid config");
    assert!(r.generated > 0);
    assert_eq!(r.generated, r.delivered);
}

#[test]
fn replan_rearm_past_f64_max_is_never_scheduled() {
    // The second replan would fall at 2e308 = ∞, after the run anyway.
    let replan_interval_s = 1e308;
    run_to_f64_max(RoutingMode::Adaptive { replan_interval_s }, None);
}

#[test]
fn resnapshot_rearm_past_f64_max_is_never_scheduled() {
    let g = single_link(1e6);
    run_to_f64_max(RoutingMode::Proactive, Some(&|_: f64| g.clone()));
}

#[test]
fn subnormal_link_capacity_never_schedules_an_infinite_departure() {
    // `add_edge` accepts any positive capacity, but a packet's
    // transmission time on a 1e-320 bit/s link overflows to infinity:
    // the packet stays on the wire, and the run still ends.
    let g = single_link(1e-320);
    let r = NetSim::new(NetSimConfig {
        duration_s: 1.0,
        routing: RoutingMode::Proactive,
        ..Default::default()
    })
    .with_snapshot(&g)
    .run(&[FlowSpec::new(0, 1, 1e5, 1_500, TrafficKind::Cbr)])
    .expect("valid netsim config");
    assert!(r.generated > 0);
    assert_eq!(r.delivered, 0);
    assert_eq!(r.unroutable, 0);
    assert!(r.dropped < r.generated, "the head packet stays in flight");
}

#[test]
fn a_link_killed_and_revived_mid_transmission_serves_at_its_capacity() {
    // A 1,500 B packet takes 1 s on a 12 kbit/s link, and a 24 kbit/s
    // flow keeps the link busy for the whole run, so at most
    // `duration / service` = 20 transmissions can finish. A fault flaps
    // the link within one transmission: the packets on its wire are lost,
    // and the revived link must start idle. (With a departure event per
    // packet, the dead link's pending departure kept firing on the
    // revived slot beside the new link's own chain: 33 delivered.)
    let g = single_link(12e3);
    let service_s = 1_500.0 * 8.0 / 12e3;
    let duration_s = 20.0;
    let flap = [
        TopologyEvent {
            at_s: 5.6,
            seq: 0,
            kind: TopologyEventKind::LinkDown(NodeId(0), NodeId(1)),
        },
        TopologyEvent {
            at_s: 5.62,
            seq: 1,
            kind: TopologyEventKind::LinkUp(NodeId(0), NodeId(1)),
        },
    ];
    let sim = NetSim::new(NetSimConfig {
        duration_s,
        ..Default::default()
    })
    .with_snapshot(&g);
    let flows = [FlowSpec::new(0, 1, 24e3, 1_500, TrafficKind::Cbr)];
    let steady = sim.run(&flows).expect("valid netsim config");
    let flapped = sim
        .with_faults(&flap)
        .run(&flows)
        .expect("valid netsim config");
    let most = (duration_s / service_s) as u64;
    assert!(steady.delivered <= most, "steady {}", steady.delivered);
    assert!(
        flapped.delivered <= most,
        "the flapped link delivered {} packets, more than its capacity allows ({most})",
        flapped.delivered
    );
    assert!(
        flapped.fault.packets_lost > 0,
        "the flap lost the packets on the wire"
    );
}

#[test]
fn zero_queue_capacity_is_a_config_error() {
    // A struct-literal config skips the builder; the run applies the
    // same check instead of dropping every packet.
    let expected = ConfigError::NonPositive {
        field: "queue_capacity_bytes",
        value: 0.0,
    };
    let cfg = NetSimConfig {
        queue_capacity_bytes: 0,
        ..Default::default()
    };
    let flow = FlowSpec::new(0, 1, 1e5, 1_500, TrafficKind::Cbr);
    let err = NetSim::new(cfg)
        .with_snapshot(&single_link(1e6))
        .run(&[flow]);
    assert_eq!(err.unwrap_err(), expected);
    assert_eq!(cfg.validate(), Err(expected));
}
