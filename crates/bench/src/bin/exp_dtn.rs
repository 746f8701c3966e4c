//! E12: the price of flying solo — store-and-forward vs federated relay.
//!
//! §2: a non-collaborating operator's satellites are "completely
//! disconnected from the rest of their infrastructure for significant
//! periods of time". Because orbits are public, the disconnections are
//! scheduled, and the solo operator's only recourse is delay-tolerant
//! store-and-forward along its own contact plan. This experiment
//! measures bundle delivery latency from a satellite to the operator's
//! ground segment: solo (DTN over its own contacts) vs federated
//! (instant multi-hop relay over the shared mesh).
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_dtn`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{fmt_opt, print_header, standard_federation, ExpRun};
use openspace_net::dtn::{earliest_arrival, sample_contacts, RetryPolicy};
use openspace_net::routing::{latency_weight, shortest_path};
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::JsonValue;

fn main() {
    let mut run = ExpRun::from_args("exp_dtn", 0);
    run.digest_config("members=4 horizon_s=10800 bundle_bits=8e7 starts=[0,1800,3600,5400]");
    let fed = standard_federation(4, &[SatelliteClass::SmallSat]);
    let horizon_s = 3.0 * 3600.0;
    let bundle_bits = 80.0 * 1e6; // a 10 MB sensor bundle

    if run.human() {
        println!("E12: solo store-and-forward vs federated relay (10 MB bundle, 3 h plan)");
        print_header(
            "Per-operator bundle delivery from its first satellite",
            &format!(
                "{:<8} {:>20} {:>22} {:>16}",
                "op", "solo DTN (s)", "federated relay (ms)", "speedup"
            ),
        );
    }

    run.phase("per-operator comparison");
    let mut operators = Vec::new();
    for op in fed.operator_ids() {
        // Solo: the operator's own satellites + own stations only.
        let solo_sats = fed.sat_nodes_of(op);
        let solo_stations = fed.ground_nodes_of(op);
        let contacts = sample_contacts(
            &solo_sats,
            &solo_stations,
            0.0,
            horizon_s,
            10.0,
            &fed.snapshot_params,
        );
        let n_nodes = solo_sats.len() + solo_stations.len();
        // Mean delivery delay over bundle creation times spread through
        // the plan (a single start time can luck into an overhead pass).
        let starts: Vec<f64> = (0..4).map(|k| k as f64 * 1_800.0).collect();
        let mut delays = Vec::new();
        for &t0 in &starts {
            let best = (0..solo_stations.len())
                .filter_map(|gi| {
                    earliest_arrival(
                        &contacts,
                        n_nodes,
                        0, // the operator's first satellite
                        solo_sats.len() + gi,
                        t0,
                        bundle_bits,
                        &[],
                        RetryPolicy::default(),
                        run.rec(),
                    )
                    .ok()
                })
                .map(|r| r.arrival_s - t0)
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() {
                delays.push(best);
            }
        }
        let solo = (!delays.is_empty()).then(|| delays.iter().sum::<f64>() / delays.len() as f64);

        // Federated: immediate relay over the full snapshot, charged at
        // the chosen path's bottleneck rate.
        let graph = fed.snapshot(0.0);
        let global_index = fed
            .satellites()
            .iter()
            .position(|s| s.owner == op)
            .expect("operator has satellites");
        let fed_latency = (0..fed.stations().len())
            .filter_map(|gi| {
                shortest_path(
                    &graph,
                    graph.sat_node(global_index),
                    graph.station_node(gi),
                    latency_weight,
                    run.rec(),
                )
            })
            .map(|p| p.total_cost + bundle_bits / p.bottleneck_bps(&graph).unwrap_or(f64::INFINITY))
            .fold(f64::INFINITY, f64::min);

        let speedup = solo.map(|s| s.max(1e-3) / fed_latency);
        operators.push(JsonValue::object([
            ("operator", JsonValue::Str(op.to_string())),
            ("solo_dtn_s", solo.map_or(JsonValue::Null, JsonValue::Num)),
            ("federated_relay_s", JsonValue::Num(fed_latency)),
            ("speedup", speedup.map_or(JsonValue::Null, JsonValue::Num)),
        ]));
        if run.human() {
            println!(
                "{:<8} {:>20} {:>22.1} {:>15}x",
                op.to_string(),
                fmt_opt(solo, 1),
                fed_latency * 1e3,
                fmt_opt(speedup, 0)
            );
        }
    }
    run.push_extra("operators", JsonValue::Array(operators));

    if run.human() {
        println!(
            "\nshape check: solo operators wait minutes-to-hours for their next \
             own-ground-station pass; the federation relays the same bundle in \
             a few hundred milliseconds — the paper's core collaboration \
             argument in one table."
        );
    }
    run.finish();
}
