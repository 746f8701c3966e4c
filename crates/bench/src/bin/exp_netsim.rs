//! E11: packet-level routing study (§5 open problem (2)).
//!
//! The paper asks for "routing protocols that factor in the more
//! unpredictable components of user traffic, which cannot be accounted
//! for by proactive routing protocols computed based on known satellite
//! trajectories". This experiment runs actual packets with finite queues
//! over the Iridium federation snapshot: several uplink flows enter at
//! the *same* access satellite (a regional hotspot — e.g. a disaster
//! zone) and head for the same gateway, so the proactive router stacks
//! them all on one shortest path while the adaptive router spreads them
//! over the ISL mesh as queues build.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_netsim`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{access_satellite, nairobi_user, print_header, standard_federation, ExpRun};
use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, RoutingMode, TrafficKind};
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::{JsonValue, MemoryRecorder};

fn main() {
    let mut run = ExpRun::from_args("exp_netsim", 11);
    run.digest_config(
        "flows=4 packet=1500 duration_s=20 queue=512KiB seed=11 sweep=[5,10,20,40,60]Mbps",
    );

    // RF-only fleet: S-band ISL capacities (~27 Mbit/s) make congestion
    // real at megabit flow rates.
    run.phase("setup");
    let fed = standard_federation(4, &[SatelliteClass::CubeSat]);
    let graph = fed.snapshot(0.0);

    // A regional hotspot: all flows uplink through the satellite over
    // Nairobi and exit at the Bavaria gateway.
    let pos = nairobi_user();
    let (src_sat, _) = access_satellite(&fed, pos, 0.0).expect("coverage over Nairobi");
    let src = graph.sat_node(src_sat);
    let dst = graph.station_node(0);

    let n_flows = 4usize;
    if run.human() {
        println!(
            "E11: packet-level proactive vs adaptive routing \
             ({n_flows} Poisson flows through one access satellite -> {})",
            fed.stations()[0].id
        );
        print_header(
            "Aggregate offered load sweep (1500 B packets, 20 s runs)",
            &format!(
                "{:<12} {:>12} {:>12} {:>14} {:>14} {:>10}",
                "offered", "pro deliv", "ada deliv", "pro p95 (ms)", "ada p95 (ms)", "pro drops"
            ),
        );
    }
    run.phase("load sweep");
    let mut sweep = Vec::new();
    for aggregate in [5.0e6, 10.0e6, 20.0e6, 40.0e6, 60.0e6] {
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|_| FlowSpec {
                src,
                dst,
                rate_bps: aggregate / n_flows as f64,
                packet_bytes: 1_500,
                kind: TrafficKind::Poisson,
            })
            .collect();
        let base = NetSimConfig {
            duration_s: 20.0,
            queue_capacity_bytes: 512 * 1024,
            routing: RoutingMode::Proactive,
            seed: 11,
        };
        let pro = NetSim::new(base)
            .with_snapshot(&graph)
            .run_recorded(&flows, run.rec())
            .expect("valid config");
        let ada = NetSim::new(NetSimConfig {
            routing: RoutingMode::Adaptive {
                replan_interval_s: 1.0,
            },
            ..base
        })
        .with_snapshot(&graph)
        .run_recorded(&flows, run.rec())
        .expect("valid netsim config");
        sweep.push(JsonValue::object([
            ("offered_bps", JsonValue::Num(aggregate)),
            ("proactive_delivery", JsonValue::Num(pro.delivery_ratio)),
            ("adaptive_delivery", JsonValue::Num(ada.delivery_ratio)),
            ("proactive_p95_s", JsonValue::Num(pro.p95_latency_s)),
            ("adaptive_p95_s", JsonValue::Num(ada.p95_latency_s)),
            ("proactive_drops", JsonValue::Uint(pro.dropped)),
        ]));
        if run.human() {
            println!(
                "{:<12} {:>11.1}% {:>11.1}% {:>14.1} {:>14.1} {:>10}",
                format!("{:.0} Mb/s", aggregate / 1e6),
                pro.delivery_ratio * 100.0,
                ada.delivery_ratio * 100.0,
                pro.p95_latency_s * 1e3,
                ada.p95_latency_s * 1e3,
                pro.dropped,
            );
        }
    }
    run.push_extra("sweep", JsonValue::Array(sweep));
    if run.human() {
        println!(
            "\nshape check: identical at light load; once the shared shortest \
             path saturates, the proactive router drops what the adaptive \
             router re-routes across the mesh (§5(2))."
        );
    }

    // Event-engine load (manifest only): the mid-sweep proactive point
    // re-run on its own recorder, so the counters are one run's.
    {
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|_| FlowSpec {
                src,
                dst,
                rate_bps: 20.0e6 / n_flows as f64,
                packet_bytes: 1_500,
                kind: TrafficKind::Poisson,
            })
            .collect();
        let mut rec = MemoryRecorder::new();
        NetSim::new(NetSimConfig {
            duration_s: 20.0,
            queue_capacity_bytes: 512 * 1024,
            routing: RoutingMode::Proactive,
            seed: 11,
        })
        .with_snapshot(&graph)
        .run_recorded(&flows, &mut rec)
        .expect("valid netsim config");
        run.push_extra(
            "engine",
            JsonValue::object([
                (
                    "events_processed",
                    JsonValue::Uint(rec.counter("engine.events_processed")),
                ),
                (
                    "queue_depth_high_water",
                    JsonValue::Num(rec.maximum("engine.queue_depth_high_water").unwrap_or(0.0)),
                ),
                (
                    "slab_high_water",
                    JsonValue::Num(rec.maximum("netsim.engine.slab_high_water").unwrap_or(0.0)),
                ),
            ]),
        );
    }

    // Planner batching demo (manifest only): the replan-heavy shape —
    // many flows, few sources — that the batched RoutePlanner exists
    // for. 96 flows from 3 access satellites; the per-flow baseline
    // re-runs Dijkstra per flow, the planner grows one tree per source.
    // Only deterministic work counters go into the manifest (wall clock
    // stays in the quarantined "wall" block).
    run.phase("planner batching");
    {
        use openspace_net::routing::{latency_weight, shortest_path, RoutePlanner};
        use openspace_net::topology::NodeId;

        let n = graph.node_count();
        let n_sats = graph.satellite_count();
        let sources = [
            src,
            graph.sat_node((src_sat + 5) % n_sats),
            graph.sat_node((src_sat + 11) % n_sats),
        ];
        let requests: Vec<(NodeId, NodeId)> = (0..96)
            .map(|i| (sources[i % sources.len()], NodeId((i * 11) % n)))
            .collect();

        let mut per_flow = MemoryRecorder::new();
        for &(s, d) in &requests {
            shortest_path(&graph, s, d, latency_weight, &mut per_flow);
        }
        let mut batched = MemoryRecorder::new();
        RoutePlanner::new().plan_recorded(&graph, &requests, latency_weight, &mut batched);

        let solo_visited = per_flow.counter("routing.nodes_visited");
        let plan_visited = batched.counter("routing.nodes_visited");
        // One adaptive netsim replan cycle through the same planner, so
        // the manifest shows the integration counters too.
        let mut netsim_rec = MemoryRecorder::new();
        let flows: Vec<FlowSpec> = (0..24)
            .map(|i| FlowSpec {
                src: sources[i % sources.len()],
                dst,
                rate_bps: 2.0e5,
                packet_bytes: 1_500,
                kind: TrafficKind::Poisson,
            })
            .collect();
        NetSim::new(NetSimConfig {
            duration_s: 10.0,
            queue_capacity_bytes: 512 * 1024,
            routing: RoutingMode::Adaptive {
                replan_interval_s: 1.0,
            },
            seed: 11,
        })
        .with_snapshot(&graph)
        .run_recorded(&flows, &mut netsim_rec)
        .expect("valid netsim config");

        run.push_extra(
            "planner",
            JsonValue::object([
                ("flows", JsonValue::Uint(requests.len() as u64)),
                ("sources", JsonValue::Uint(sources.len() as u64)),
                ("per_flow_nodes_visited", JsonValue::Uint(solo_visited)),
                ("planner_nodes_visited", JsonValue::Uint(plan_visited)),
                (
                    "visited_reduction",
                    JsonValue::Num(solo_visited as f64 / plan_visited.max(1) as f64),
                ),
                (
                    "netsim_trees",
                    JsonValue::Uint(netsim_rec.counter("routing.planner.trees")),
                ),
                (
                    "netsim_recomputes",
                    JsonValue::Uint(netsim_rec.counter("routing.recomputes")),
                ),
                (
                    "netsim_nodes_visited",
                    JsonValue::Uint(netsim_rec.counter("routing.nodes_visited")),
                ),
            ]),
        );
        assert!(
            plan_visited * 2 <= solo_visited,
            "planner must at least halve visited work for this shape \
             ({plan_visited} vs {solo_visited})"
        );
    }
    run.finish();
}
