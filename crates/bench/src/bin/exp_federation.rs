//! E8: the federation benefit — patchwork vs continuous coverage.
//!
//! §2: "Without meaningful collaboration, many smaller satellite networks
//! would simply have coverage for a patchwork of regions around the globe
//! rather than continuous global coverage on their own. Furthermore, some
//! satellites owned by a given firm may be completely disconnected from
//! the rest of their infrastructure for significant periods of time."
//!
//! Sweep the number of federation members splitting the same 66-satellite
//! constellation and measure, per member and federated: service-time
//! coverage, longest outage, and the capex entry barrier.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_federation`

use openspace_bench::{nairobi_user, print_header, standard_federation};
use openspace_economics::capex::{entry_barrier, LaunchPricing};
use openspace_net::contact::{coverage_time_fraction, longest_outage_s};
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::NullRecorder;

fn main() {
    let ground = nairobi_user();
    let horizon_s = 6.0 * 3600.0;
    let step_s = 10.0;

    println!("E8: solo vs federated coverage (Nairobi user, 6 h window)");
    print_header(
        "Members splitting the 66-satellite constellation",
        &format!(
            "{:<9} {:>14} {:>16} {:>16} {:>18}",
            "members", "solo cover", "solo outage (s)", "federated", "entry cost ratio"
        ),
    );
    for k in [1usize, 2, 4, 6, 11] {
        let fed = standard_federation(k, &[SatelliteClass::SmallSat]);
        // Mean solo coverage over members.
        let mut solo_cov = 0.0;
        let mut solo_out = 0.0f64;
        for op in fed.operator_ids() {
            // contact_plan{,_of} run the horizon-skip scanner (see
            // net::contact): bitwise-identical windows, ~10x fewer
            // propagations at this mask.
            let w = fed.contact_plan_of(op, ground, 0.0, horizon_s, step_s);
            solo_cov += coverage_time_fraction(&w, 0.0, horizon_s);
            solo_out = solo_out.max(longest_outage_s(&w, 0.0, horizon_s));
        }
        solo_cov /= k as f64;
        let w = fed.contact_plan(ground, 0.0, horizon_s, step_s, &mut NullRecorder);
        let fed_cov = coverage_time_fraction(&w, 0.0, horizon_s);
        let barrier = entry_barrier(SatelliteClass::SmallSat, 66, k, &LaunchPricing::rideshare());
        println!(
            "{:<9} {:>13.1}% {:>16.0} {:>15.1}% {:>17.1}x",
            k,
            solo_cov * 100.0,
            solo_out,
            fed_cov * 100.0,
            barrier.monolithic_usd / barrier.federated_usd
        );
    }

    // Ground-segment disconnection: fraction of time a member's satellite
    // can see its own stations vs any station.
    print_header(
        "Ground-segment visibility (4 members, satellite 0 of each, 6 h)",
        &format!("{:<8} {:>16} {:>16}", "op", "own stations", "federated"),
    );
    let fed = standard_federation(4, &[SatelliteClass::SmallSat]);
    let mask = fed.snapshot_params.min_elevation_rad;
    let samples = 720;
    for op in fed.operator_ids() {
        let sat = fed.satellites_of(op)[0];
        let mut own = 0u32;
        let mut all = 0u32;
        for kk in 0..samples {
            let t = horizon_s * kk as f64 / samples as f64;
            let sat_ecef = openspace_orbit::frames::eci_to_ecef(sat.propagator.position_eci(t), t);
            let visible = |owner_filter: Option<_>| {
                fed.stations()
                    .iter()
                    .filter(|s| owner_filter.is_none_or(|o| s.owner == o))
                    .any(|s| {
                        openspace_orbit::visibility::is_visible(s.position_ecef, sat_ecef, mask)
                    })
            };
            if visible(Some(op)) {
                own += 1;
            }
            if visible(None) {
                all += 1;
            }
        }
        println!(
            "{:<8} {:>15.1}% {:>15.1}%",
            op.to_string(),
            own as f64 / samples as f64 * 100.0,
            all as f64 / samples as f64 * 100.0
        );
    }
    println!(
        "\nshape check: solo coverage shrinks roughly as 1/members while the \
         federated union stays ~100%; the shared ground segment multiplies \
         each satellite's backhaul windows."
    );
}
