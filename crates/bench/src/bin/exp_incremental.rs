//! E18: incremental deployment (§4).
//!
//! "Our objective is to understand how small initial deployments can be
//! across a small number of initial players to achieve a starting point
//! from which the system can scale, much like in the early days of the
//! Internet … We use simulations to chart the path for such a system to
//! incrementally progress towards global coverage."
//!
//! We grow the federation plane by plane — each new member launches one
//! 11-satellite Iridium plane and one ground station — and measure, at
//! every stage: service-time coverage at three latitudes, end-to-end
//! latency, cumulative capex, and what each newcomer's membership is
//! worth to the users already on board.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_incremental`

use openspace_bench::{access_satellite, fmt_opt, ground_user, iridium_elements, print_header};
use openspace_core::prelude::*;
use openspace_economics::capex::{fleet_cost_usd, LaunchPricing};
use openspace_net::contact::coverage_time_fraction;
use openspace_net::routing::{latency_weight, shortest_path_to_any};
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::NullRecorder;

fn main() {
    let all_elements = iridium_elements();
    let sites = default_station_sites();
    let users = [
        ("equator", ground_user(-1.3, 36.8, 0.0)),
        ("mid-lat", ground_user(48.0, 11.0, 0.0)),
        ("polar", ground_user(78.2, 15.6, 0.0)),
    ];
    let horizon = 3.0 * 3600.0;
    let launch = LaunchPricing::rideshare();

    println!("E18: incremental deployment — one 11-satellite plane per new member");
    print_header(
        "Growth path",
        &format!(
            "{:<8} {:>6} {:>10} {:>10} {:>10} {:>14} {:>12}",
            "members", "sats", "equator", "mid-lat", "polar", "latency (ms)", "capex ($M)"
        ),
    );
    for members in 1..=6usize {
        // Build the partial federation: `members` planes.
        let mut fed = Federation::new();
        let ops: Vec<_> = (0..members)
            .map(|i| fed.add_operator(format!("member-{}", i + 1)))
            .collect();
        for (i, el) in all_elements.iter().take(members * 11).enumerate() {
            fed.add_satellite(ops[i / 11], SatelliteClass::SmallSat, *el)
                .expect("member operator");
        }
        for (i, &op) in ops.iter().enumerate() {
            fed.add_ground_station(op, sites[i % sites.len()])
                .expect("member operator");
        }

        // Coverage at the three latitudes.
        let mut cov = Vec::new();
        for (_, ground) in &users {
            // Gated kernels under the hood: horizon-skip contact scan
            // here, nearest-first snapshot in fed.snapshot() below.
            let w = fed.contact_plan(*ground, 0.0, horizon, 20.0, &mut NullRecorder);
            cov.push(coverage_time_fraction(&w, 0.0, horizon));
        }

        // Best end-to-end latency for the equatorial user right now.
        let graph = fed.snapshot(0.0);
        let latency = access_satellite(&fed, users[0].1, 0.0).and_then(|(sat, slant)| {
            let (src, stations) = (graph.sat_node(sat), graph.station_nodes());
            let rec = &mut NullRecorder;
            shortest_path_to_any(&graph, src, &stations, latency_weight, rec).map(|(_, p)| {
                (slant / openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S + p.total_cost) * 1e3
            })
        });

        let capex = fleet_cost_usd(SatelliteClass::SmallSat, members * 11, &launch);
        println!(
            "{:<8} {:>6} {:>9.0}% {:>9.0}% {:>9.0}% {:>14} {:>12.0}",
            members,
            members * 11,
            cov[0] * 100.0,
            cov[1] * 100.0,
            cov[2] * 100.0,
            fmt_opt(latency, 1),
            capex / 1e6
        );
    }
    println!(
        "\nshape check: polar service is continuous from the first plane \
         (Walker Star planes converge at the poles); equatorial service is \
         what each additional member buys — the \"starting point from which \
         the system can scale\" is 1-2 members for high latitudes and ~5-6 \
         for everywhere, each member paying only its own plane."
    );
}
