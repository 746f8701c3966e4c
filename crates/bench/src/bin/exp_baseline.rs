//! E19: the monolithic baseline — what does federation cost the user?
//!
//! The paper's pitch stands or falls on this: "While these firms may
//! individually not be capable of offering a connected global network,
//! we envision connecting their satellites … together results in global
//! coverage." A skeptic's question is what the federated architecture
//! *loses* versus a vertically-integrated incumbent flying the same
//! constellation. Answer: nothing in coverage or data-plane latency
//! (the physics is identical), a bounded control-plane cost (roaming
//! authentication rides ISLs to the home AAA), and a 4× lower entry
//! barrier per firm.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_baseline`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{ground_user, print_header, standard_federation, ExpRun};
use openspace_core::prelude::*;
use openspace_net::contact::coverage_time_fraction;
use openspace_net::routing::QosRequirement;
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::{JsonValue, Recorder};
use std::collections::BTreeMap;

fn main() {
    let mut run = ExpRun::from_args("exp_baseline", 1);
    run.digest_config(
        "sites=[Nairobi,Berlin,Sydney] systems=[monolith:1,federated:4] horizon_s=3600",
    );
    let sites = [
        ("Nairobi", -1.3, 36.8),
        ("Berlin", 52.5, 13.4),
        ("Sydney", -33.9, 151.2),
    ];
    if run.human() {
        println!("E19: monolithic incumbent vs 4-member federation, same 66 satellites");
        print_header(
            "Service comparison",
            &format!(
                "{:<10} {:<12} {:>10} {:>14} {:>14} {:>12}",
                "user", "system", "coverage", "assoc (ms)", "deliver (ms)", "roaming"
            ),
        );
    }

    run.phase("site comparison");
    let mut comparison = Vec::new();
    for (name, lat, lon) in sites {
        let pos = ground_user(lat, lon, 0.0);
        for (label, members) in [("monolith", 1usize), ("federated", 4)] {
            let mut fed = standard_federation(members, &[SatelliteClass::SmallSat]);
            let home = fed.operator_ids()[0];
            let user = fed.register_user(home).expect("member operator");

            // Recorded variants surface the horizon-skip scanner's and
            // the nearest-first snapshot builder's counters in the
            // manifest; outputs are bitwise-identical to the plain
            // calls.
            let windows = fed.contact_plan_recorded(pos, 0.0, 3_600.0, 10.0, run.rec());
            let cov = coverage_time_fraction(&windows, 0.0, 3_600.0);

            let assoc = associate(&mut fed, &user, pos, 0.0, 1).expect("association");
            let graph = fed.snapshot_recorded(0.0, run.rec());
            let mut ledgers = BTreeMap::new();
            let delivery = deliver(
                &fed,
                &graph,
                &user,
                pos,
                0.0,
                1,
                1 << 20,
                &QosRequirement::best_effort(),
                &mut ledgers,
            )
            .expect("delivery");

            run.rec().add("baseline.deliveries", 1);
            run.rec().observe("baseline.coverage", cov);
            run.rec()
                .observe("baseline.assoc_latency_s", assoc.association_latency_s);
            run.rec()
                .observe("baseline.delivery_latency_s", delivery.latency_s);
            comparison.push(JsonValue::object([
                ("site", JsonValue::Str(name.into())),
                ("system", JsonValue::Str(label.into())),
                ("coverage", JsonValue::Num(cov)),
                (
                    "assoc_latency_s",
                    JsonValue::Num(assoc.association_latency_s),
                ),
                ("delivery_latency_s", JsonValue::Num(delivery.latency_s)),
                ("roaming", JsonValue::Bool(assoc.roaming)),
            ]));
            if run.human() {
                println!(
                    "{:<10} {:<12} {:>9.1}% {:>14.1} {:>14.1} {:>12}",
                    name,
                    label,
                    cov * 100.0,
                    assoc.association_latency_s * 1e3,
                    delivery.latency_s * 1e3,
                    if assoc.roaming { "yes" } else { "no" }
                );
            }
        }
    }
    run.push_extra("comparison", JsonValue::Array(comparison));

    if run.human() {
        println!(
            "\nshape check: coverage and data-plane latency are identical — the \
             constellation physics does not care who owns which satellite. The \
             federated column pays only a control-plane tax (association may \
             route to a farther home-operator ground station) and gains the \
             1/members entry barrier of exp_federation."
        );
    }
    run.finish();
}
