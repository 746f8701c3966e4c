//! Disaster relief: the paper's motivating scenario.
//!
//! §1: satellite Internet "is often the only connectivity option for
//! regions that … are prone to natural disasters that are likely to
//! damage equipment." We simulate a coastal disaster that takes the two
//! nearest ground stations offline and floods the constellation with
//! relief traffic, and compare proactive (orbit-only) routing against the
//! QoS-aware routing of §2.2.
//!
//! Run with:
//! ```sh
//! cargo run -p openspace-examples --example disaster_relief
//! ```

use openspace_core::prelude::*;
use openspace_net::routing::{latency_weight, shortest_path_to_any, QosRequirement};
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::rng::SimRng;
use openspace_telemetry::NullRecorder;

fn main() {
    // An RF-only cubesat federation: the accessible low-entry-barrier fleet
    // of §2.1, where ISL capacity is S-band-scale and congestion bites.
    let mut fed = iridium_federation(4, &[SatelliteClass::CubeSat], &default_station_sites());
    // Disaster zone: coastal Philippines after a typhoon.
    let zone = geodetic_to_ecef(Geodetic::from_degrees(11.2, 125.0, 5.0));
    let home = fed.operator_ids()[1];
    let user = fed.register_user(home).expect("member operator");

    println!("== Disaster relief scenario: Leyte, Philippines ==");
    let assoc = associate(&mut fed, &user, zone, 0.0, 1).expect("satellites overhead");
    println!(
        "relief team associates with {} ({} ISL hops to home AAA, {:.1} ms)",
        assoc.serving,
        assoc.auth_path_hops,
        assoc.association_latency_s * 1e3
    );

    // Build the snapshot, then knock out the Singapore station (the
    // regional gateway) by treating its links as saturated, and load the
    // nearby ISLs with relief traffic.
    let mut graph = fed.snapshot(0.0);
    let mut rng = SimRng::new(7);
    let sat_idx = fed.satellite_index(assoc.serving).expect("serving exists");
    let (src, stations) = (graph.sat_node(sat_idx), graph.station_nodes());
    let rec = &mut NullRecorder;

    // Baseline: proactive routing on the idle network.
    let (idle_gi, proactive) =
        shortest_path_to_any(&graph, src, &stations, latency_weight, rec).expect("connected");
    println!(
        "\npre-disaster proactive route exits at {} ({:.1} ms)",
        fed.stations()[idle_gi].id,
        proactive.total_cost * 1e3
    );

    // Disaster: the regional gateway is swamped (0.99 load on its ground
    // links) and relief traffic puts a heterogeneous surge on the ISLs.
    let hot_station = graph.station_node(idle_gi);
    let n = graph.node_count();
    for node in 0..n {
        let loads: Vec<(openspace_net::topology::NodeId, f64)> = graph
            .edges(node)
            .iter()
            .map(|e| {
                let surge = if node == hot_station || e.to == hot_station {
                    0.99
                } else {
                    0.3 + 0.62 * rng.uniform()
                };
                (e.to, surge)
            })
            .collect();
        for (to, load) in loads {
            graph
                .set_load(node, to, load)
                .expect("edges enumerated from this same graph");
        }
    }

    // Proactive routing ignores load: same path, now with queueing pain.
    let proactive_latency = proactive
        .sum_metric(&graph, |e| {
            e.latency_s + 12_000.0 / e.capacity_bps / (1.0 - e.load_fraction)
        })
        .unwrap_or(f64::INFINITY);

    // QoS-aware routing sees the congestion and detours.
    let req = QosRequirement {
        min_bandwidth_bps: 64_000.0, // voice-grade floor for relief comms
        max_latency_s: f64::INFINITY,
    };
    let best_qos = shortest_path_to_any(&graph, src, &stations, req.weight(12_000.0), rec);

    println!("\n-- after the surge --");
    println!(
        "proactive (orbit-only) route: {} hops, effective latency {:.1} ms",
        proactive.hops(),
        proactive_latency * 1e3
    );
    match best_qos {
        Some((gi, p)) => {
            println!(
                "QoS-aware route: exits at {} via {} hops, effective latency {:.1} ms",
                fed.stations()[gi].id,
                p.hops(),
                p.total_cost * 1e3
            );
            if p.total_cost < proactive_latency {
                println!(
                    "=> congestion-aware routing saves {:.1} ms per packet",
                    (proactive_latency - p.total_cost) * 1e3
                );
            }
        }
        None => println!("QoS-aware route: no path meets the 64 kbit/s floor"),
    }
}
