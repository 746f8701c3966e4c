//! Cross-crate properties of the fault-injection subsystem: faults hold
//! across resnapshots (permanent failures on a constant provider give
//! the static run bit for bit), an empty fault plan is invisible to the
//! packet simulator bit-for-bit, faulted sweeps are bitwise-deterministic
//! across thread counts, and the federation's graceful-degradation claim
//! holds on the real Iridium topology.
//!
//! Cases are drawn from a seeded [`SimRng`] stream — deterministic,
//! dependency-free property testing.

use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, NetSimReport, TrafficKind};
use openspace_core::prelude::*;
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

/// Redraw every directed edge's latency, so shortest paths are unique
/// and a fresh plan picks the same path as a route that survived.
fn distinct_latencies(rng: &mut SimRng, g: &mut Graph) {
    for u in 0..g.node_count() {
        for e in g.edges_mut(u) {
            e.latency_s = rng.uniform_range(0.001, 0.02);
        }
    }
}

#[test]
fn permanent_failures_on_a_constant_provider_match_the_static_run() {
    // A resnapshot to the same graph must not bring a failed element
    // back: with only permanent failures and unique shortest paths, the
    // proactive provider run replans every flow onto the route the
    // static run kept, so the reports are equal bit for bit.
    for_cases(0xFA02, |rng| {
        let n_sats = 4 + rng.index(8);
        let n_stations = 1 + rng.index(3);
        let mut graph = arb_graph(rng, n_sats, n_stations);
        distinct_latencies(rng, &mut graph);
        let mut plan = FaultPlan::builder()
            .sat_failure(rng.index(n_sats), rng.uniform_range(0.0, 20.0))
            .station_failure(rng.index(n_stations), rng.uniform_range(0.0, 20.0));
        if rng.index(2) == 0 {
            plan = plan.sat_failure(rng.index(n_sats), rng.uniform_range(0.0, 20.0));
        }
        let events = plan
            .build()
            .expect("valid plan")
            .compile(&FaultTopology::homogeneous(
                n_sats,
                n_stations,
                OperatorId(0),
            ))
            .expect("plan fits topology");
        let n = n_sats + n_stations;
        let flows: Vec<FlowSpec> = (0..3)
            .map(|_| {
                let src = rng.index(n);
                let dst = (src + 1 + rng.index(n - 1)) % n;
                FlowSpec::new(
                    src,
                    dst,
                    rng.uniform_range(1e5, 1e6),
                    1_500,
                    TrafficKind::Poisson,
                )
            })
            .collect();
        let cfg = NetSimConfig {
            duration_s: 20.0,
            seed: rng.next_u64(),
            ..Default::default()
        };
        let stat = NetSim::new(cfg)
            .with_snapshot(&graph)
            .with_faults(&events)
            .run(&flows)
            .expect("valid config");
        let provider = |_t: f64| graph.clone();
        let dynamic = NetSim::new(cfg)
            .with_provider(&provider, 1.0)
            .with_faults(&events)
            .run(&flows)
            .expect("valid config");
        assert_eq!(stat, dynamic);
        assert_eq!(
            stat.mean_latency_s.to_bits(),
            dynamic.mean_latency_s.to_bits()
        );
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
