//! Handover trace: two hours in the life of a roaming user.
//!
//! Shows §2.2's handover machinery end to end: the contact plan, the
//! serving schedule with predicted successors, the per-handover
//! interruption with session tokens, and what the same trace would cost
//! with full re-authentication at every switch.
//!
//! Run with:
//! ```sh
//! cargo run -p openspace-examples --example handover_trace
//! ```

use openspace_core::prelude::*;
use openspace_net::handover::{service_schedule, HandoverCost};
use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::NullRecorder;

fn main() {
    let mut fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
    let home = fed.operator_ids()[2];
    let user = fed.register_user(home).expect("member operator");
    let pos = geodetic_to_ecef(Geodetic::from_degrees(46.9, 7.45, 550.0)); // Bern

    let horizon_s = 2.0 * 3600.0;
    println!("== Two-hour handover trace (user in Bern, home {home}) ==");

    // Initial association (once!).
    let assoc = associate(&mut fed, &user, pos, 0.0, 1).expect("association");
    println!(
        "initial association: {} ({:.1} ms including home-AAA auth)\n",
        assoc.serving,
        assoc.association_latency_s * 1e3
    );

    // The precomputable serving schedule.
    let windows = fed.contact_plan(pos, 0.0, horizon_s, 5.0, &mut NullRecorder);
    let schedule =
        service_schedule(&windows, &[], 0.0, horizon_s, &mut NullRecorder).expect("valid horizon");
    println!(
        "schedule: {} serving intervals, {} handovers, {:.0} s outage",
        schedule.intervals.len(),
        schedule.handovers,
        schedule.outage_s
    );
    if let Some(mtbh) = schedule.mean_time_between_handovers_s() {
        println!("mean time between handovers: {:.0} s", mtbh);
    }

    // Walk the schedule, executing a token handover at each switch. The
    // az/el columns are where the user's antenna points at acquisition.
    println!(
        "\n{:<10} {:<10} {:>8} {:>8} {:>8} {:>14}",
        "t (s)", "satellite", "owner", "az", "el", "interrupt (ms)"
    );
    let mut certificate = assoc.certificate;
    let mut total_predicted = 0.0;
    let mut total_reauth = 0.0;
    let mut prev_sat = None::<openspace_protocol::types::SatelliteId>;
    for (k, iv) in schedule.intervals.iter().enumerate().take(12) {
        let sat = fed.satellites()[iv.sat_index.index()];
        let interruption_ms = if let Some(prev) = prev_sat {
            let h = execute_handover(&fed, &user, &certificate, prev, sat.id, pos, iv.start_s)
                .expect("member operator");
            assert!(h.accepted, "token handover must be accepted");
            total_predicted += h.interruption_s;
            // What re-auth would have cost at this instant.
            let cost = HandoverCost {
                access_rtt_s: h.interruption_s,
                home_auth_rtt_s: assoc.association_latency_s,
            };
            total_reauth += cost.reauth_interruption_s();
            h.interruption_s * 1e3
        } else {
            0.0
        };
        let sat_ecef = openspace_orbit::frames::eci_to_ecef(
            sat.propagator.position_eci(iv.start_s),
            iv.start_s,
        );
        let (az, el) = openspace_orbit::visibility::look_angles_rad(pos, sat_ecef);
        println!(
            "{:<10.0} {:<10} {:>8} {:>7.0}° {:>7.0}° {:>14.2}",
            iv.start_s,
            sat.id.to_string(),
            sat.owner.to_string(),
            az.to_degrees(),
            el.to_degrees(),
            interruption_ms
        );
        prev_sat = Some(sat.id);
        // Certificates outlive the trace; re-issue only if expired.
        let now_ms = (iv.start_s * 1000.0) as u64;
        let fed_secret = *fed.federation_secret(user.home).expect("member operator");
        if !certificate.verify(&fed_secret, now_ms) {
            let renewed = associate(&mut fed, &user, pos, iv.start_s, 100 + k as u64)
                .expect("re-association");
            certificate = renewed.certificate;
            println!("  (certificate renewed)");
        }
    }

    println!(
        "\ncumulative interruption over the trace: {:.1} ms with prediction, \
         {:.1} ms with per-handover re-authentication ({:.0}x better)",
        total_predicted * 1e3,
        total_reauth * 1e3,
        total_reauth / total_predicted.max(1e-9)
    );
}
