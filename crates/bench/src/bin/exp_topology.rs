//! E17: routing in a rapidly changing topology (Figure 1, item 2).
//!
//! The paper's overview promises "routing in a rapidly changing network
//! topology". Three measurements:
//!
//! 1. **ISL churn**: how many links appear/disappear per minute as the
//!    Walker constellation rotates (cross-plane links churn; same-plane
//!    links persist), and how long a precomputed route survives.
//! 2. **Timeline**: the same churn, precomputed once as a
//!    [`TopologyTimeline`](openspace_net::timeline::TopologyTimeline)
//!    — one snapshot per tick — with the share of adjacency rows that
//!    change between ticks in the manifest.
//! 3. **Packets over a moving constellation**: the dynamic packet
//!    simulator re-snapshots the topology as satellites move; delivery
//!    continues across route handovers. The run is driven twice — once
//!    rebuilding every snapshot from orbit propagation, once looking
//!    up the precomputed snapshots — and the reports are asserted
//!    bitwise-identical.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_topology`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{access_satellite, nairobi_user, print_header, standard_federation, ExpRun};
use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, RoutingMode, TrafficKind};
use openspace_net::routing::{latency_weight, shortest_path};
use openspace_net::timeline::TopologyProvider;
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::exec::default_threads;
use openspace_telemetry::{JsonValue, NullRecorder, Recorder};
use std::collections::BTreeSet;

fn main() {
    let mut run = ExpRun::from_args("exp_topology", 21);
    run.digest_config(
        "iridium members=4 class=SmallSat churn_step_s=60 timeline_step_s=30 \
         horizon_s=240 duration_s=240 seed=21",
    );
    run.phase("setup");
    let fed = standard_federation(4, &[SatelliteClass::SmallSat]);

    // 1. ISL churn over one orbital period.
    let period = fed.satellites()[0].propagator.elements().period_s();
    let step = 60.0;
    if run.human() {
        println!(
            "E17: topology dynamics (Iridium federation, {:.0} min period)",
            period / 60.0
        );
        print_header(
            "ISL churn per minute",
            &format!(
                "{:<10} {:>8} {:>10} {:>10}",
                "t (min)", "links", "appeared", "vanished"
            ),
        );
    }
    run.phase("churn scan");
    let edge_set = |t: f64| -> BTreeSet<(usize, usize)> {
        let g = fed.snapshot(t);
        let mut s = BTreeSet::new();
        for u in 0..g.satellite_count() {
            for e in g.edges(u) {
                if e.to < g.satellite_count() && e.to > u {
                    s.insert((u, e.to.index()));
                }
            }
        }
        s
    };
    let mut prev = edge_set(0.0);
    let mut total_churn = 0usize;
    for k in 1..=10 {
        let t = k as f64 * step;
        let cur = edge_set(t);
        let appeared = cur.difference(&prev).count();
        let vanished = prev.difference(&cur).count();
        total_churn += appeared + vanished;
        if run.human() {
            println!(
                "{:<10.0} {:>8} {:>10} {:>10}",
                t / 60.0,
                cur.len(),
                appeared,
                vanished
            );
        }
        prev = cur;
    }
    run.rec().add("churn.link_events", total_churn as u64);
    if run.human() {
        println!(
            "mean churn: {:.1} link events/min",
            total_churn as f64 / 10.0
        );
    }

    // Route survival: how long does the t=0 route stay valid?
    let pos = nairobi_user();
    let (sat0, _) = access_satellite(&fed, pos, 0.0).expect("coverage");
    let g0 = fed.snapshot(0.0);
    let (from, to) = (g0.sat_node(sat0), g0.station_node(0));
    let route0 =
        shortest_path(&g0, from, to, latency_weight, &mut NullRecorder).expect("route exists");
    let mut survival = 0.0;
    for k in 1..=60 {
        let t = k as f64 * 30.0;
        let g = fed.snapshot(t);
        let alive = route0
            .nodes
            .windows(2)
            .all(|w| g.find_edge(w[0], w[1]).is_some());
        if alive {
            survival = t;
        } else {
            break;
        }
    }
    run.rec().add("route.survival_s", survival as u64);
    if run.human() {
        println!(
            "the t=0 route ({} hops) survives {:.0} s of constellation motion",
            route0.hops(),
            survival
        );
    }

    // 2. The same churn, precomputed as a timeline: one snapshot per
    // tick, built in parallel (the build is bitwise
    // thread-count-invariant).
    run.phase("timeline build");
    let horizon = 240.0;
    let interval = 30.0;
    let tl = fed
        .timeline(interval, horizon, default_threads())
        .expect("valid timeline horizon");
    let nodes = g0.node_count();
    let changed = tl.total_changed_rows();
    let full_rows = nodes * tl.delta_count();
    run.rec().add("timeline.deltas", tl.delta_count() as u64);
    run.rec().add("timeline.changed_rows", changed as u64);
    if run.human() {
        println!(
            "\ntimeline: {} deltas over {horizon:.0} s touch {changed} adjacency \
             rows ({:.1}% of the {} a full rebuild would copy)",
            tl.delta_count(),
            100.0 * changed as f64 / full_rows.max(1) as f64,
            full_rows
        );
    }
    run.push_extra(
        "timeline",
        JsonValue::object([
            ("step_s", JsonValue::Num(tl.step_s())),
            ("deltas", JsonValue::Uint(tl.delta_count() as u64)),
            ("changed_rows", JsonValue::Uint(changed as u64)),
            ("full_rebuild_rows", JsonValue::Uint(full_rows as u64)),
        ]),
    );

    // 3. Packets over the moving constellation: the provider path
    // rebuilds every snapshot from orbit propagation; the timeline path
    // looks up the precomputed snapshots. Same packets, bit for bit.
    if run.human() {
        print_header(
            "Dynamic packet simulation (240 s, re-snapshot every 30 s)",
            &format!(
                "{:<14} {:>12} {:>12} {:>14}",
                "mode", "delivery", "drops", "mean lat (ms)"
            ),
        );
    }
    run.phase("dynamic packets");
    let flows = [FlowSpec {
        src: g0.sat_node(sat0),
        dst: g0.station_node(0),
        rate_bps: 2.0e6,
        packet_bytes: 1_500,
        kind: TrafficKind::Poisson,
    }];
    let mut modes = Vec::new();
    for (label, routing) in [
        ("proactive", RoutingMode::Proactive),
        (
            "adaptive",
            RoutingMode::Adaptive {
                replan_interval_s: 5.0,
            },
        ),
    ] {
        let cfg = NetSimConfig {
            duration_s: horizon,
            queue_capacity_bytes: 512 * 1024,
            routing,
            seed: 21,
        };
        let rebuilt = NetSim::new(cfg)
            .with_provider(&fed, interval)
            .run(&flows)
            .expect("valid netsim config");
        let replayed = NetSim::new(cfg)
            .with_timeline(&tl)
            .run_recorded(&flows, run.rec())
            .expect("valid netsim config");
        assert_eq!(
            rebuilt, replayed,
            "timeline run must be bitwise-identical to full rebuild ({label})"
        );
        modes.push(JsonValue::object([
            ("mode", JsonValue::Str(label.into())),
            ("delivery_ratio", JsonValue::Num(replayed.delivery_ratio)),
            ("dropped", JsonValue::Uint(replayed.dropped)),
            ("mean_latency_s", JsonValue::Num(replayed.mean_latency_s)),
        ]));
        if run.human() {
            println!(
                "{:<14} {:>11.1}% {:>12} {:>14.1}",
                label,
                replayed.delivery_ratio * 100.0,
                replayed.dropped,
                replayed.mean_latency_s * 1e3
            );
        }
    }
    run.push_extra("dynamic", JsonValue::Array(modes));
    // Shape check: a federation is itself a topology provider, so the
    // timeline base must equal the t=0 snapshot.
    assert_eq!(fed.topology_at(0.0).edge_count(), tl.base().edge_count());
    if run.human() {
        println!(
            "\nshape check: same-plane ISLs persist while cross-plane links churn \
             steadily; periodic route recomputation (possible because orbits are \
             public) keeps packet delivery near 100% across the motion, and the \
             delta-replay refresh reproduces the rebuild run bit for bit."
        );
    }
    run.finish();
}
