//! Cross-crate properties of the fault-injection subsystem: outage
//! apply/revert is lossless on the snapshot graph, an empty fault plan
//! is invisible to the packet simulator bit-for-bit, faulted sweeps are
//! bitwise-deterministic across thread counts, and the federation's
//! graceful-degradation claim holds on the real Iridium topology.
//!
//! Cases are drawn from a seeded [`SimRng`] stream — deterministic,
//! dependency-free property testing.

use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, NetSimReport, TrafficKind};
use openspace_core::prelude::*;
use openspace_net::outage::OutageTracker;
use openspace_net::topology::{Graph, LinkTech};
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::exec::parallel_map_seeded;
use openspace_sim::fault::{FaultPlan, FaultTopology};
use openspace_sim::ids::OperatorId;
use openspace_sim::rng::SimRng;

const CASES: u64 = 128;

fn for_cases(seed: u64, mut f: impl FnMut(&mut SimRng)) {
    for case in 0..CASES {
        let mut rng = SimRng::substream(seed, case);
        f(&mut rng);
    }
}

/// A random small constellation snapshot: a satellite ring plus stations
/// hanging off random satellites.
fn arb_graph(rng: &mut SimRng, n_sats: usize, n_stations: usize) -> Graph {
    let mut g = Graph::new(n_sats, n_stations);
    for i in 0..n_sats {
        let j = (i + 1) % n_sats;
        g.add_bidirectional(
            i,
            j,
            rng.uniform_range(0.001, 0.02),
            rng.uniform_range(1e6, 1e9),
            0,
            0,
            LinkTech::Rf,
        );
    }
    // A few random chords.
    for _ in 0..rng.index(4) {
        let a = rng.index(n_sats);
        let b = rng.index(n_sats);
        if a != b && g.find_edge(a, b).is_none() {
            g.add_bidirectional(a, b, 0.005, 1e8, 0, 0, LinkTech::Optical);
        }
    }
    for s in 0..n_stations {
        let up = rng.index(n_sats);
        g.add_bidirectional(
            n_sats + s,
            up,
            rng.uniform_range(0.002, 0.01),
            rng.uniform_range(1e6, 1e8),
            0,
            0,
            LinkTech::Rf,
        );
    }
    g
}

#[test]
fn apply_then_revert_restores_the_exact_pre_fault_graph() {
    for_cases(0xFA01, |rng| {
        let n_sats = 4 + rng.index(8);
        let n_stations = 1 + rng.index(3);
        let mut graph = arb_graph(rng, n_sats, n_stations);
        let pristine = graph.clone();

        // A busy random plan: stochastic sat outages, a scheduled station
        // outage, and a flap on one ring link.
        let flap_a = rng.index(n_sats);
        let flap_b = (flap_a + 1) % n_sats;
        let plan = FaultPlan::builder()
            .seed(rng.next_u64())
            .random_sat_outages(2_000.0, 40.0, 0.0, 300.0)
            .station_outage(0usize, rng.uniform_range(0.0, 200.0), 50.0)
            .link_flap(flap_a, flap_b, rng.uniform_range(0.0, 100.0), 20.0, 15.0, 3)
            .sat_failure(rng.index(n_sats), rng.uniform_range(0.0, 300.0))
            .build()
            .expect("valid plan");
        let events = plan
            .compile(&FaultTopology::homogeneous(
                n_sats,
                n_stations,
                OperatorId(0),
            ))
            .expect("plan fits topology");
        assert!(!events.is_empty(), "the plan should generate events");

        let mut tracker = OutageTracker::new();
        let mut touched = 0usize;
        for ev in &events {
            let delta = tracker.apply(&mut graph, ev).expect("in-range event");
            touched += delta.removed_links.len() + delta.restored_links.len();
        }
        assert!(touched > 0, "faults should actually change the graph");

        // Whatever is still down comes back, and the graph — edge order,
        // loads, capacities, everything — is exactly the pre-fault one.
        tracker.revert_all(&mut graph);
        assert_eq!(graph, pristine);
        assert_eq!(tracker.open_outages(), 0);
    });
}

#[test]
fn empty_fault_plan_is_invisible_on_a_real_snapshot() {
    let fed = iridium_federation(3, &[SatelliteClass::SmallSat], &default_station_sites());
    let graph = fed.snapshot(0.0);
    let flows = vec![
        FlowSpec::new(
            graph.sat_node(5),
            graph.station_node(1),
            1.0e6,
            1_500,
            TrafficKind::Poisson,
        ),
        FlowSpec::new(
            graph.sat_node(40),
            graph.station_node(4),
            5.0e5,
            1_500,
            TrafficKind::Cbr,
        ),
    ];
    let cfg = NetSimConfig {
        duration_s: 20.0,
        ..Default::default()
    };
    let sim = NetSim::new(cfg).with_snapshot(&graph);
    let plain = sim.run(&flows).expect("valid config");
    let events = FaultPlan::empty()
        .compile(&fed.fault_topology())
        .expect("empty plan compiles");
    assert!(events.is_empty());
    let faulted = sim.with_faults(&events).run(&flows).expect("valid config");
    // Bit-for-bit: same floats, same counters, untouched fault block.
    assert_eq!(plain, faulted);
    assert_eq!(faulted.fault.node_availability.to_bits(), 1.0f64.to_bits());
    assert_eq!(
        plain.mean_latency_s.to_bits(),
        faulted.mean_latency_s.to_bits()
    );
}

#[test]
fn faulted_sweep_is_bitwise_deterministic_across_thread_counts() {
    let fed = iridium_federation(3, &[SatelliteClass::SmallSat], &default_station_sites());
    let graph = fed.snapshot(0.0);
    let plan = FaultPlan::builder()
        .seed(9)
        .random_sat_outages(8.0, 10.0, 0.0, 30.0)
        .operator_withdrawal(fed.operator_ids()[0], 12.0)
        .build()
        .expect("valid plan");
    let events = plan
        .compile(&fed.fault_topology())
        .expect("plan fits topology");
    let seeds: Vec<u64> = (0..6).collect();
    let run_seed = |&s: &u64| -> NetSimReport {
        let cfg = NetSimConfig {
            duration_s: 30.0,
            seed: s,
            ..Default::default()
        };
        let flows = vec![FlowSpec::new(
            graph.sat_node(30),
            graph.station_node(2),
            2.0e6,
            1_500,
            TrafficKind::Poisson,
        )];
        NetSim::new(cfg)
            .with_snapshot(&graph)
            .with_faults(&events)
            .run(&flows)
            .expect("valid config")
    };
    let serial: Vec<NetSimReport> = seeds.iter().map(run_seed).collect();
    for threads in [2usize, 5] {
        let par = parallel_map_seeded(&seeds, threads, 77, |s, _rng| run_seed(s));
        assert_eq!(serial, par, "threads={threads} must match serial bitwise");
    }
}

#[test]
fn availability_with_outages_open_at_run_end_is_bit_reproducible() {
    // Five satellites of a six-satellite ring fail for good mid-run, so
    // five outages are still open when the run ends and their downtimes
    // are summed then. The failure times make that floating-point sum
    // depend on its order, and availability is low enough that a
    // one-ulp change in the sum shows in `node_availability`: only a
    // fixed summation order gives the same bits on every run.
    let mut rng = SimRng::new(0xA7A1);
    let graph = arb_graph(&mut rng, 6, 1);
    let mut plan = FaultPlan::builder();
    for (sat, at_s) in [(0usize, 0.1), (1, 1.3), (2, 2.7), (4, 4.9), (5, 7.31)] {
        plan = plan.sat_failure(sat, at_s);
    }
    let events = plan
        .build()
        .expect("valid plan")
        .compile(&FaultTopology::homogeneous(6, 1, OperatorId(0)))
        .expect("plan fits topology");
    let flows = vec![FlowSpec::new(
        graph.sat_node(3),
        graph.station_node(0),
        1.0e5,
        1_500,
        TrafficKind::Poisson,
    )];
    let availability = || {
        let cfg = NetSimConfig {
            duration_s: 20.0,
            ..Default::default()
        };
        let report = NetSim::new(cfg)
            .with_snapshot(&graph)
            .with_faults(&events)
            .run(&flows)
            .expect("valid config");
        report.fault.node_availability.to_bits()
    };
    let first = availability();
    assert!(f64::from_bits(first) < 0.5, "most of the ring is down");
    for run in 1..8 {
        assert_eq!(availability(), first, "run {run}: availability bits");
    }
}

#[test]
fn federation_degrades_more_gracefully_than_the_monolith() {
    // The exp_fault claim as a regression test: same fault plan (operator
    // 1 withdraws mid-run), plane-contiguous ownership, and the 3-member
    // federation keeps delivering while the monolith goes dark.
    let elements = openspace_orbit::walker::walker_star(&openspace_orbit::walker::iridium_params())
        .expect("iridium parameters are valid");
    let build = |members: usize| -> Federation {
        let mut fed = Federation::new();
        let ops: Vec<_> = (0..members)
            .map(|i| fed.add_operator(format!("m{i}")))
            .collect();
        let planes_per_member = 6 / members;
        for (i, el) in elements.iter().enumerate() {
            fed.add_satellite(
                ops[(i / 11) / planes_per_member],
                SatelliteClass::SmallSat,
                *el,
            )
            .expect("member operator");
        }
        for (i, site) in default_station_sites().into_iter().enumerate() {
            fed.add_ground_station(ops[i % members], site)
                .expect("member operator");
        }
        fed
    };
    let run = |members: usize| -> NetSimReport {
        let fed = build(members);
        let plan = FaultPlan::builder()
            .operator_withdrawal(fed.operator_ids()[0], 10.0)
            .build()
            .expect("valid plan");
        let events = plan
            .compile(&fed.fault_topology())
            .expect("plan fits topology");
        let graph = fed.snapshot(0.0);
        // Sources in the last plane (the last member's), stations 1 and 5
        // (never member 1's when members > 1).
        let flows = vec![
            FlowSpec::new(56usize, 66usize + 1, 5.0e5, 1_500, TrafficKind::Poisson),
            FlowSpec::new(61usize, 66usize + 5, 5.0e5, 1_500, TrafficKind::Poisson),
        ];
        let cfg = NetSimConfig {
            duration_s: 30.0,
            seed: 4,
            ..Default::default()
        };
        NetSim::new(cfg)
            .with_snapshot(&graph)
            .with_faults(&events)
            .run(&flows)
            .expect("valid config")
    };
    let monolith = run(1);
    let federated = run(3);
    assert!(
        monolith.delivery_ratio < 0.6,
        "the withdrawal must cripple the monolith: {}",
        monolith.delivery_ratio
    );
    assert!(
        federated.delivery_ratio > monolith.delivery_ratio + 0.2,
        "federation {} vs monolith {}",
        federated.delivery_ratio,
        monolith.delivery_ratio
    );
    assert!(federated.fault.node_availability > monolith.fault.node_availability);
}
