//! Federation coverage: the paper's central claim made measurable.
//!
//! §2: "Without meaningful collaboration, many smaller satellite networks
//! would simply have coverage for a patchwork of regions around the globe
//! rather than continuous global coverage on their own. Furthermore, some
//! satellites owned by a given firm may be completely disconnected from
//! the rest of their infrastructure for significant periods of time."
//!
//! This example quantifies both effects for each member of a 4-operator
//! federation, then for the federation as a whole.
//!
//! Run with:
//! ```sh
//! cargo run -p openspace-examples --example federation_coverage
//! ```

use openspace_core::prelude::*;
use openspace_net::contact::{coverage_time_fraction, longest_outage_s};
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::NullRecorder;

fn main() {
    let fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
    let horizon_s = 6.0 * 3600.0; // quarter day
    let step_s = 10.0;

    // Three user sites at different latitudes.
    let sites = [
        (
            "Nairobi  (-1.3N)",
            Geodetic::from_degrees(-1.3, 36.8, 1_700.0),
        ),
        ("Berlin   (52.5N)", Geodetic::from_degrees(52.5, 13.4, 50.0)),
        (
            "Longyearbyen (78N)",
            Geodetic::from_degrees(78.2, 15.6, 0.0),
        ),
    ];

    println!("== Solo vs federated service over {horizon_s:.0} s ==");
    println!(
        "{:<20} {:>12} {:>16} {:>16}",
        "site / owner", "coverage", "longest outage", ""
    );
    for (name, site) in &sites {
        let ground = geodetic_to_ecef(*site);
        println!("--- {name} ---");
        for op in fed.operator_ids() {
            let windows = fed.contact_plan_of(op, ground, 0.0, horizon_s, step_s);
            let cov = coverage_time_fraction(&windows, 0.0, horizon_s);
            let outage = longest_outage_s(&windows, 0.0, horizon_s);
            println!(
                "{:<20} {:>11.1}% {:>14.0} s",
                format!("  solo {op}"),
                cov * 100.0,
                outage
            );
        }
        let windows = fed.contact_plan(ground, 0.0, horizon_s, step_s, &mut NullRecorder);
        let cov = coverage_time_fraction(&windows, 0.0, horizon_s);
        let outage = longest_outage_s(&windows, 0.0, horizon_s);
        println!(
            "{:<20} {:>11.1}% {:>14.0} s   <= collaboration",
            "  FEDERATED",
            cov * 100.0,
            outage
        );
    }

    // Ground-segment disconnection: how long is each operator's satellite
    // out of sight of its OWN stations vs any federation station?
    println!("\n== Ground-segment reachability (satellite 0 of each operator) ==");
    for op in fed.operator_ids() {
        let sat = fed.satellites_of(op)[0];
        // Sample: fraction of time the satellite sees at least one ground
        // station (own vs federated).
        let mut own_visible = 0u32;
        let mut fed_visible = 0u32;
        let samples = 720;
        for k in 0..samples {
            let t = horizon_s * k as f64 / samples as f64;
            let sat_ecef = openspace_orbit::frames::eci_to_ecef(sat.propagator.position_eci(t), t);
            let mask = fed.snapshot_params.min_elevation_rad;
            let sees = |stations: &[&GroundStation]| {
                stations.iter().any(|st| {
                    openspace_orbit::visibility::is_visible(st.position_ecef, sat_ecef, 0.0)
                        && openspace_orbit::visibility::elevation_angle_rad(
                            st.position_ecef,
                            sat_ecef,
                        ) >= mask
                })
            };
            let own: Vec<&GroundStation> =
                fed.stations().iter().filter(|s| s.owner == op).collect();
            let all: Vec<&GroundStation> = fed.stations().iter().collect();
            if sees(&own) {
                own_visible += 1;
            }
            if sees(&all) {
                fed_visible += 1;
            }
        }
        println!(
            "{op}: own ground segment visible {:>5.1}% of the time, federated {:>5.1}%",
            own_visible as f64 / samples as f64 * 100.0,
            fed_visible as f64 / samples as f64 * 100.0
        );
    }
}
