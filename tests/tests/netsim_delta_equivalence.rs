//! Property suite pinning the resnapshot contract of the [`NetSim`]
//! driver: a run that refreshes topology from a precomputed
//! [`TopologyTimeline`]'s stored snapshots is **bitwise-identical** to
//! the run that rebuilds every snapshot from the provider — same report
//! floats to the last ulp, same counters — across routing modes and
//! under fault injection.
//!
//! Both sources feed the same resnapshot path (full link-table sync,
//! planner invalidation, replan); only the next graph comes from a
//! different place. So this suite pins the timeline's tick lookup at
//! each resnapshot instant, and pins the `netsim.resnapshot.*` and
//! `routing.*` telemetry as independent of the topology source: only
//! `netsim.timeline.deltas_applied` differs.

use openspace_core::netsim::{
    FlowSpec, NetSim, NetSimConfig, NetSimReport, RoutingMode, TrafficKind,
};
use openspace_net::prelude::*;
use openspace_net::topology::LinkTech;
use openspace_sim::fault::{FaultPlan, FaultTopology};
use openspace_sim::ids::OperatorId;
use openspace_sim::prelude::SimRng;
use openspace_telemetry::{JsonValue, MemoryRecorder};

const CASES: u64 = 64;

/// A seeded evolving mesh: fixed roster, chords that flip on random
/// periods, latencies that drift with time (see the twin generator in
/// `timeline_equivalence.rs`).
struct EvolvingMesh {
    n: usize,
    spine: Vec<(usize, usize, f64, f64)>,
    chords: Vec<(usize, usize, f64, f64, f64)>,
}

impl EvolvingMesh {
    fn random(rng: &mut SimRng) -> Self {
        let n = 4 + rng.index(12);
        let mut taken: Vec<(usize, usize)> = Vec::new();
        // Full spine: keeps most destinations reachable most of the time.
        let spine: Vec<(usize, usize, f64, f64)> = (0..n - 1)
            .map(|i| {
                taken.push((i, i + 1));
                (
                    i,
                    i + 1,
                    rng.uniform_range(1e-3, 1e-2),
                    rng.uniform_range(1e6, 1e7),
                )
            })
            .collect();
        let mut chords = Vec::new();
        for _ in 0..rng.index(n) {
            let u = rng.index(n);
            let v = rng.index(n);
            if u == v || taken.contains(&(u, v)) || taken.contains(&(v, u)) {
                continue;
            }
            taken.push((u, v));
            chords.push((
                u,
                v,
                rng.uniform_range(1e-3, 1e-2),
                rng.uniform_range(1e6, 1e7),
                rng.uniform_range(3.0, 40.0),
            ));
        }
        Self { n, spine, chords }
    }

    fn at(&self, t: f64) -> Graph {
        let mut g = Graph::new(self.n, 0);
        for &(u, v, lat, cap) in &self.spine {
            g.add_bidirectional(u, v, lat + t * 1e-7, cap, 0u32, 0u32, LinkTech::Rf);
        }
        for &(u, v, lat, cap, period) in &self.chords {
            if (t / period).floor() as i64 % 2 == 0 {
                g.add_bidirectional(u, v, lat + t * 1e-7, cap, 0u32, 0u32, LinkTech::Optical);
            }
        }
        g
    }
}

fn random_flows(rng: &mut SimRng, n: usize) -> Vec<FlowSpec> {
    (0..1 + rng.index(4))
        .map(|_| {
            let src = rng.index(n);
            let dst = (src + 1 + rng.index(n - 1)) % n;
            FlowSpec::new(
                src,
                dst,
                rng.uniform_range(1e5, 3e6),
                1_500,
                if rng.uniform() < 0.5 {
                    TrafficKind::Poisson
                } else {
                    TrafficKind::Cbr
                },
            )
        })
        .collect()
}

fn assert_reports_bitwise(a: &NetSimReport, b: &NetSimReport, ctx: &str) {
    assert_eq!(a, b, "{ctx}: reports differ");
    assert_eq!(
        a.delivery_ratio.to_bits(),
        b.delivery_ratio.to_bits(),
        "{ctx}: delivery_ratio bits"
    );
    assert_eq!(
        a.mean_latency_s.to_bits(),
        b.mean_latency_s.to_bits(),
        "{ctx}: mean_latency_s bits"
    );
    assert_eq!(
        a.p95_latency_s.to_bits(),
        b.p95_latency_s.to_bits(),
        "{ctx}: p95_latency_s bits"
    );
    assert_eq!(
        a.max_link_utilization.to_bits(),
        b.max_link_utilization.to_bits(),
        "{ctx}: max_link_utilization bits"
    );
}

/// Every counter `rec` holds, in key order.
fn counters(rec: &mut MemoryRecorder) -> Vec<(String, JsonValue)> {
    match rec.deterministic_json().get("counters") {
        Some(JsonValue::Object(fields)) => fields.clone(),
        other => panic!("dump without a counters object: {other:?}"),
    }
}

/// The timeline run counts one applied delta per resnapshot and the
/// provider run none; every other counter is equal.
fn assert_counters_match(rebuilt: &mut MemoryRecorder, replayed: &mut MemoryRecorder, ctx: &str) {
    const APPLIED: &str = "netsim.timeline.deltas_applied";
    assert_eq!(
        rebuilt.counter(APPLIED),
        0,
        "{ctx}: provider applied deltas"
    );
    assert_eq!(
        replayed.counter(APPLIED),
        replayed.counter("netsim.resnapshots"),
        "{ctx}: one delta per resnapshot"
    );
    assert!(replayed.counter(APPLIED) > 0, "{ctx}: no resnapshot fired");
    let mut timeline = counters(replayed);
    timeline.retain(|(k, _)| k != APPLIED);
    assert_eq!(counters(rebuilt), timeline, "{ctx}: counters differ");
}

#[test]
fn delta_resnapshot_run_is_bitwise_identical_to_full_rebuild() {
    for case in 0..CASES {
        let mut rng = SimRng::substream(0xDE17A, case);
        let mesh = EvolvingMesh::random(&mut rng);
        let flows = random_flows(&mut rng, mesh.n);
        let step = rng.uniform_range(0.5, 4.0);
        let duration = step * (2 + rng.index(10)) as f64;
        let routing = if case % 2 == 0 {
            RoutingMode::Proactive
        } else {
            RoutingMode::Adaptive {
                replan_interval_s: rng.uniform_range(0.5, 3.0),
            }
        };
        let cfg = NetSimConfig {
            duration_s: duration,
            queue_capacity_bytes: 128 * 1024,
            routing,
            seed: case,
        };
        let provider = |t: f64| mesh.at(t);
        let mut rebuilt_rec = MemoryRecorder::new();
        let rebuilt = NetSim::new(cfg)
            .with_provider(&provider, step)
            .run_recorded(&flows, &mut rebuilt_rec)
            .expect("valid provider run");
        let tl = TopologyTimeline::build(&provider, 0.0, step, duration, 4)
            .expect("valid timeline build");
        let mut replayed_rec = MemoryRecorder::new();
        let replayed = NetSim::new(cfg)
            .with_timeline(&tl)
            .run_recorded(&flows, &mut replayed_rec)
            .expect("valid timeline run");
        let ctx = format!("case {case} ({routing:?})");
        assert_reports_bitwise(&rebuilt, &replayed, &ctx);
        assert_counters_match(&mut rebuilt_rec, &mut replayed_rec, &ctx);
    }
}

#[test]
fn delta_resnapshot_run_with_faults_is_bitwise_identical_to_full_rebuild() {
    for case in 0..24 {
        let mut rng = SimRng::substream(0xDE17B, case);
        let mesh = EvolvingMesh::random(&mut rng);
        let flows = random_flows(&mut rng, mesh.n);
        let duration = 12.0;
        // A random node outage plus a random link flap inside the run.
        let victim = rng.index(mesh.n);
        let (lu, lv, ..) = mesh.spine[rng.index(mesh.spine.len())];
        let plan = FaultPlan::builder()
            .seed(case)
            .sat_outage(victim, rng.uniform_range(1.0, 5.0), 4.0)
            .link_flap(lu, lv, rng.uniform_range(1.0, 6.0), 1.5, 1.5, 2)
            .build()
            .expect("valid fault plan");
        let events = plan
            .compile(&FaultTopology::homogeneous(mesh.n, 0, OperatorId(0)))
            .expect("plan fits topology");
        let cfg = NetSimConfig {
            duration_s: duration,
            queue_capacity_bytes: 128 * 1024,
            routing: RoutingMode::Proactive,
            seed: case,
        };
        let provider = |t: f64| mesh.at(t);
        let mut rebuilt_rec = MemoryRecorder::new();
        let rebuilt = NetSim::new(cfg)
            .with_provider(&provider, 1.0)
            .with_faults(&events)
            .run_recorded(&flows, &mut rebuilt_rec)
            .expect("valid provider run");
        let tl = TopologyTimeline::build(&provider, 0.0, 1.0, duration, 2).expect("valid timeline");
        let mut replayed_rec = MemoryRecorder::new();
        let replayed = NetSim::new(cfg)
            .with_timeline(&tl)
            .with_faults(&events)
            .run_recorded(&flows, &mut replayed_rec)
            .expect("valid timeline run");
        let ctx = format!("faulted case {case}");
        assert_reports_bitwise(&rebuilt, &replayed, &ctx);
        assert_counters_match(&mut rebuilt_rec, &mut replayed_rec, &ctx);
    }
}

#[test]
fn timeline_runs_on_a_real_federation_match_the_rebuild_path() {
    use openspace_core::prelude::*;
    use openspace_phy::hardware::SatelliteClass;

    let fed = iridium_federation(3, &[SatelliteClass::SmallSat], &default_station_sites());
    let g0 = fed.snapshot(0.0);
    let flows = [
        FlowSpec::new(
            g0.sat_node(10),
            g0.station_node(0),
            2.0e6,
            1_500,
            TrafficKind::Poisson,
        ),
        FlowSpec::new(
            g0.sat_node(40),
            g0.station_node(2),
            1.0e6,
            1_500,
            TrafficKind::Cbr,
        ),
    ];
    let tl = fed.timeline(30.0, 120.0, 4).expect("valid horizon");
    for routing in [
        RoutingMode::Proactive,
        RoutingMode::Adaptive {
            replan_interval_s: 5.0,
        },
    ] {
        let cfg = NetSimConfig {
            duration_s: 120.0,
            queue_capacity_bytes: 512 * 1024,
            routing,
            seed: 17,
        };
        let rebuilt = NetSim::new(cfg)
            .with_provider(&fed, 30.0)
            .run(&flows)
            .expect("valid provider run");
        let replayed = NetSim::new(cfg)
            .with_timeline(&tl)
            .run(&flows)
            .expect("valid timeline run");
        assert_reports_bitwise(&rebuilt, &replayed, &format!("iridium {routing:?}"));
    }
}
