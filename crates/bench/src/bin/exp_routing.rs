//! E9: proactive vs QoS-aware routing under load.
//!
//! §2.2: "Such a proactive routing protocol will be effective for a
//! beginner system. However, as more players join … there will be a need
//! for routing protocols that take an end-to-end approach … considering
//! factors such as queuing delays at ISLs and at the ground station."
//!
//! We load the Iridium federation's links with increasing background
//! traffic and compare proactive (latency-only) routes against
//! congestion-aware routes on effective latency (propagation + queueing)
//! and on meeting a bandwidth floor.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_routing`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{access_satellite, nairobi_user, print_header, standard_federation, ExpRun};
use openspace_net::routing::{
    congestion_weight, latency_weight, shortest_path_to_any, QosRequirement,
};
use openspace_net::topology::NodeId;
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::rng::SimRng;
use openspace_telemetry::JsonValue;

const PKT_BITS: f64 = 12_000.0;

fn main() {
    let mut run = ExpRun::from_args("exp_routing", 9);
    run.digest_config(
        "loads=[0,0.3,0.5,0.7,0.85,0.95] reps=5 seed=9 pkt_bits=12000 floor_bps=256000",
    );
    let fed = standard_federation(4, &[SatelliteClass::CubeSat]);
    let user_pos = nairobi_user();
    let (src_sat, _) = access_satellite(&fed, user_pos, 0.0).expect("coverage");

    if run.human() {
        println!("E9: routing under load (RF-only federation, Nairobi uplink)");
        print_header(
            "Background load sweep (mean link utilization)",
            &format!(
                "{:<8} {:>18} {:>18} {:>14} {:>14}",
                "load", "proactive (ms)", "QoS-aware (ms)", "saving", "floor met"
            ),
        );
    }

    run.phase("load sweep");
    let mut sweep = Vec::new();
    for mean_load in [0.0, 0.3, 0.5, 0.7, 0.85, 0.95] {
        // Average over several load placements.
        let mut pro_sum = 0.0;
        let mut qos_sum = 0.0;
        let mut qos_ok = 0usize;
        let reps = 5u64;
        for rep in 0..reps {
            let mut graph = fed.snapshot(0.0);
            let mut rng = SimRng::substream(9, rep);
            // Beta-ish load around the mean: clamp(mean + u*0.3 - 0.15).
            for node in 0..graph.node_count() {
                let loads: Vec<(NodeId, f64)> = graph
                    .edges(node)
                    .iter()
                    .map(|e| {
                        let l = (mean_load + rng.uniform() * 0.3 - 0.15).clamp(0.0, 0.98);
                        (e.to, l)
                    })
                    .collect();
                for (to, l) in loads {
                    graph
                        .set_load(node, to, l)
                        .expect("edges enumerated from this same graph");
                }
            }
            let (src, stations) = (graph.sat_node(src_sat), graph.station_nodes());
            // Proactive picks its station and path by *propagation*
            // latency alone (orbits are public, loads are not); we then
            // charge the chosen path at its effective (queueing-aware)
            // cost.
            if let Some((_, p)) =
                shortest_path_to_any(&graph, src, &stations, latency_weight, run.rec())
            {
                pro_sum += p
                    .sum_metric(&graph, |e| congestion_weight(e, PKT_BITS))
                    .unwrap_or(f64::INFINITY);
            }
            let req = QosRequirement {
                min_bandwidth_bps: 256_000.0,
                max_latency_s: f64::INFINITY,
            };
            let weight = req.weight(PKT_BITS);
            if let Some((_, p)) = shortest_path_to_any(&graph, src, &stations, weight, run.rec()) {
                qos_sum += p.total_cost;
                qos_ok += 1;
            }
        }
        let pro = pro_sum / reps as f64 * 1e3;
        let qos = if qos_ok > 0 {
            qos_sum / qos_ok as f64 * 1e3
        } else {
            f64::NAN
        };
        sweep.push(JsonValue::object([
            ("mean_load", JsonValue::Num(mean_load)),
            ("proactive_effective_s", JsonValue::Num(pro / 1e3)),
            (
                "qos_aware_s",
                if qos_ok > 0 {
                    JsonValue::Num(qos / 1e3)
                } else {
                    JsonValue::Null
                },
            ),
            ("floor_met", JsonValue::Uint(qos_ok as u64)),
            ("reps", JsonValue::Uint(reps)),
        ]));
        if run.human() {
            println!(
                "{:<8.2} {:>18.2} {:>18.2} {:>13.1}% {:>11}/{}",
                mean_load,
                pro,
                qos,
                (1.0 - qos / pro) * 100.0,
                qos_ok,
                reps
            );
        }
    }
    run.push_extra("sweep", JsonValue::Array(sweep));

    if run.human() {
        println!(
            "\nshape check: the two routers agree on an idle network; as load \
             grows, congestion-aware routing increasingly undercuts the \
             proactive route's effective latency (§2.2's scaling argument)."
        );
    }
    run.finish();
}
