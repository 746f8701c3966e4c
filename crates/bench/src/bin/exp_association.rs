//! E10: the association and roaming-authentication flow of §2.2.
//!
//! Paper claims quantified:
//! * association requires a home-AAA round trip over ISLs; the cost
//!   depends on how far the user roams from the home operator's ground
//!   segment;
//! * "re-authentication is a rare event relative to satellite handoffs"
//!   — we count both over a simulated day;
//! * handovers ride the session token and cost one access round trip.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_association`

use openspace_bench::{ground_user, print_header, standard_federation};
use openspace_core::prelude::*;
use openspace_net::handover::service_schedule;
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::NullRecorder;

fn main() {
    let mut fed = standard_federation(4, &[SatelliteClass::SmallSat]);
    let home = fed.operator_ids()[0];

    println!("E10: association and roaming authentication");
    print_header(
        "Association cost by user location (home operator op-1)",
        &format!(
            "{:<24} {:>10} {:>12} {:>16} {:>10}",
            "user site", "roaming", "auth hops", "assoc (ms)", "access(ms)"
        ),
    );
    let sites = [
        ("Bavaria (home GS)", 48.1, 11.2),
        ("Nairobi", -1.3, 36.8),
        ("Tokyo", 35.7, 139.7),
        ("mid-Pacific", -5.0, -150.0),
        ("McMurdo (78S)", -77.8, 166.7),
    ];
    for (i, (name, lat, lon)) in sites.iter().enumerate() {
        let user = fed.register_user(home).expect("member operator");
        let pos = ground_user(*lat, *lon, 0.0);
        match associate(&mut fed, &user, pos, 0.0, 1 + i as u64) {
            Ok(a) => println!(
                "{:<24} {:>10} {:>12} {:>16.1} {:>10.2}",
                name,
                if a.roaming { "yes" } else { "no" },
                a.auth_path_hops,
                a.association_latency_s * 1e3,
                a.access_delay_s * 1e3
            ),
            Err(e) => println!("{:<24} FAILED: {e}", name),
        }
    }

    // Re-auth rarity: handovers vs re-associations over a day. A user
    // moves between cities every 8 hours (very mobile!); satellites hand
    // over every few minutes.
    print_header(
        "Events over 24 h (user relocates every 8 h; certificate: 24 h)",
        &format!("{:<28} {:>10}", "event", "count"),
    );
    let day = 86_400.0;
    let mut handovers = 0usize;
    let mut reassociations = 0usize;
    for (k, (_, lat, lon)) in sites.iter().take(3).enumerate() {
        let pos = ground_user(*lat, *lon, 0.0);
        let t0 = k as f64 * day / 3.0;
        let t1 = (k + 1) as f64 * day / 3.0;
        // Day-scale plans are where the horizon-skip scanner pays off:
        // identical windows, most below-mask samples never propagated.
        let windows = fed.contact_plan(pos, t0, t1, 10.0, &mut NullRecorder);
        let sched = service_schedule(&windows, &[], t0, t1, &mut NullRecorder)
            .expect("valid service window");
        handovers += sched.handovers;
        reassociations += 1; // one re-auth per relocation
    }
    println!("{:<28} {:>10}", "satellite handovers", handovers);
    println!("{:<28} {:>10}", "re-authentications", reassociations);
    println!(
        "{:<28} {:>10.0}",
        "handovers per re-auth",
        handovers as f64 / reassociations as f64
    );
    println!(
        "\nshape check: association costs one ISL-routed AAA round trip that \
         grows with distance from the home ground segment; handovers \
         outnumber re-authentications by orders of magnitude, which is \
         what makes token handover worth designing for."
    );
}
