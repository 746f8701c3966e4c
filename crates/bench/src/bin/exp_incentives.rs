//! E14: collaboration incentives (§5 open problem (4)).
//!
//! "How can larger satellite provider companies be incentivized to join
//! OpenSpace and collaborate with smaller providers?" We build the
//! coalition game the federation actually plays — coalition value =
//! service-time coverage its combined fleet provides to a user base,
//! monetized superlinearly because continuous coverage sells and
//! patchwork does not — and split revenue by exact Shapley value.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_incentives`

use openspace_bench::{ground_user, iridium_elements, print_header};
use openspace_core::prelude::*;
use openspace_economics::incentives::{collaboration_surplus, shapley_shares};
use openspace_net::contact::coverage_time_fraction;
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::NullRecorder;

fn main() {
    // An asymmetric federation: operator 1 is the incumbent with most of
    // the fleet; three small entrants split the rest.
    let mut fed = Federation::new();
    let big = fed.add_operator("incumbent");
    let smalls: Vec<_> = (0..3)
        .map(|i| fed.add_operator(format!("entrant-{}", i + 1)))
        .collect();
    for (i, el) in iridium_elements().into_iter().enumerate() {
        // 36 satellites to the incumbent, 10 to each entrant.
        let owner = if i < 36 { big } else { smalls[(i - 36) / 10] };
        fed.add_satellite(owner, SatelliteClass::SmallSat, el)
            .expect("member operator");
    }
    let members = fed.operator_ids();

    // Value of a coalition: mean service-time coverage over three user
    // sites, monetized as revenue ∝ coverage² (continuous coverage is
    // what subscriptions pay for; 50% patchwork is near-worthless).
    let sites = [
        ground_user(-1.3, 36.8, 0.0),
        ground_user(52.5, 13.4, 0.0),
        ground_user(35.7, 139.7, 0.0),
    ];
    let horizon = 3.0 * 3600.0;
    let coverage_of = |mask: u32| -> f64 {
        let sats: Vec<_> = fed
            .satellites()
            .iter()
            .filter(|s| {
                members
                    .iter()
                    .position(|&m| m == s.owner)
                    .is_some_and(|idx| mask & (1 << idx) != 0)
            })
            .map(|s| s.as_sat_node())
            .collect();
        if sats.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for &site in &sites {
            let windows = openspace_net::contact::contact_plan(
                &sats,
                site,
                0.0,
                horizon,
                30.0,
                fed.snapshot_params.min_elevation_rad,
                &mut NullRecorder,
            );
            sum += coverage_time_fraction(&windows, 0.0, horizon);
        }
        sum / sites.len() as f64
    };
    const MARKET_USD_M: f64 = 100.0; // total annual market at full coverage
    let value = |mask: u32| {
        let c = coverage_of(mask);
        MARKET_USD_M * c * c
    };

    println!("E14: Shapley revenue sharing (incumbent 36 sats, entrants 10 each)");
    println!("(coalition value = $100M x coverage^2 over 3 sites, 3 h window)\n");
    let shares = shapley_shares(&members, value);
    let grand = value((1 << members.len()) - 1);

    print_header(
        "Shares",
        &format!(
            "{:<12} {:>6} {:>14} {:>14} {:>12} {:>10}",
            "member", "sats", "solo ($M)", "shapley ($M)", "gain ($M)", "rational?"
        ),
    );
    for s in &shares {
        let n_sats = fed.satellites_of(s.member).len();
        println!(
            "{:<12} {:>6} {:>14.1} {:>14.1} {:>+12.1} {:>10}",
            s.member.to_string(),
            n_sats,
            s.standalone_value,
            s.shapley_value,
            s.collaboration_gain(),
            if s.joining_is_rational() { "yes" } else { "NO" }
        );
    }
    println!(
        "\ngrand coalition value: ${grand:.1}M; collaboration surplus: ${:.1}M",
        collaboration_surplus(&shares, grand)
    );
    println!(
        "shape check: superlinear monetization of continuous coverage makes \
         joining rational for the incumbent too — the §5(4) incentive the \
         paper says the §3 cost model needs."
    );
}
