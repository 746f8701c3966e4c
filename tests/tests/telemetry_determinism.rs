//! The telemetry subsystem's headline contract, asserted end to end:
//! recording never perturbs a simulation, and per-worker recorders
//! merged in item order reproduce the serial metric dump bit for bit —
//! regardless of worker-pool size.

use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, RoutingMode, TrafficKind};
use openspace_net::topology::{Graph, LinkTech};
use openspace_sim::exec::parallel_map_seeded;
use openspace_telemetry::json::parse;
use openspace_telemetry::manifest::jsonl_lines;
use openspace_telemetry::{JsonValue, MemoryRecorder, RunManifest};

/// A small two-path mesh under enough load that routing, queueing and
/// drops all exercise the recorder.
fn mesh() -> Graph {
    let mut g = Graph::new(4, 0);
    g.add_bidirectional(0, 1, 0.002, 2.0e6, 0, 0, LinkTech::Rf);
    g.add_bidirectional(1, 3, 0.002, 2.0e6, 0, 0, LinkTech::Rf);
    g.add_bidirectional(0, 2, 0.004, 2.0e6, 0, 0, LinkTech::Rf);
    g.add_bidirectional(2, 3, 0.004, 2.0e6, 0, 0, LinkTech::Rf);
    g
}

fn scenario(seed: u64) -> (Graph, Vec<FlowSpec>, NetSimConfig) {
    let flows = vec![
        FlowSpec::new(0, 3, 1.2e6, 1_500, TrafficKind::Poisson),
        FlowSpec::new(0, 3, 8.0e5, 1_500, TrafficKind::Cbr),
    ];
    let cfg = NetSimConfig {
        duration_s: 10.0,
        queue_capacity_bytes: 64 * 1024,
        routing: RoutingMode::Adaptive {
            replan_interval_s: 1.0,
        },
        seed,
    };
    (mesh(), flows, cfg)
}

/// One work item of the fan-out: run the scenario for `seed`, return
/// the recorder its metrics landed in.
fn run_one(seed: u64) -> MemoryRecorder {
    let (g, flows, cfg) = scenario(seed);
    let mut rec = MemoryRecorder::new();
    NetSim::new(cfg)
        .with_snapshot(&g)
        .run_recorded(&flows, &mut rec)
        .expect("valid netsim config");
    rec
}

#[test]
fn recording_does_not_perturb_the_simulation() {
    let (g, flows, cfg) = scenario(7);
    let sim = NetSim::new(cfg).with_snapshot(&g);
    let plain = sim.run(&flows).expect("valid netsim config");
    let mut rec = MemoryRecorder::new();
    let recorded = sim
        .run_recorded(&flows, &mut rec)
        .expect("valid netsim config");
    assert_eq!(plain, recorded, "recording must be a pure observer");
    assert_eq!(rec.counter("netsim.delivered"), recorded.delivered);
    assert_eq!(rec.counter("netsim.generated"), recorded.generated);
}

#[test]
fn same_seed_adaptive_runs_dump_identical_metrics() {
    // The replan handler walks a HashMap of links whose iteration order
    // differs between recorder instances (std's RandomState is
    // per-instance); the handler must sort before touching telemetry or
    // routing state. Two same-seed runs in one process already exercise
    // two different hash orders, so dump equality pins the fix.
    let a = run_one(42).deterministic_json().to_string();
    let b = run_one(42).deterministic_json().to_string();
    assert_eq!(a, b, "same seed, same config, different dumps");
}

#[test]
fn merged_metric_dump_is_bit_identical_across_thread_counts() {
    let seeds: [u64; 6] = [3, 7, 11, 13, 17, 23];

    // Serial reference: one recorder fed by every run in item order.
    let mut serial = MemoryRecorder::new();
    for &s in &seeds {
        let (g, flows, cfg) = scenario(s);
        NetSim::new(cfg)
            .with_snapshot(&g)
            .run_recorded(&flows, &mut serial)
            .expect("valid netsim config");
    }
    let reference = serial.deterministic_json().to_string();
    assert!(!reference.is_empty());

    // Fan the same runs over pools of every size; merging the per-item
    // recorders in item order must reproduce the serial dump exactly.
    for threads in [1usize, 2, 4, 8] {
        let recorders: Vec<MemoryRecorder> =
            parallel_map_seeded(&seeds, threads, 99, |&s, _rng| run_one(s));
        let mut merged = MemoryRecorder::new();
        for r in &recorders {
            merged.merge(r);
        }
        assert_eq!(
            merged.deterministic_json().to_string(),
            reference,
            "{threads}-thread merge diverged from the serial dump"
        );
    }
}

#[test]
fn jsonl_export_round_trips_through_the_parser() {
    let mut rec = run_one(7);
    let lines = jsonl_lines(&mut rec);
    assert!(!lines.is_empty());
    for line in &lines {
        let v = parse(line).expect("each JSONL line parses");
        assert!(v.get("key").is_some(), "line missing key: {line}");
        assert!(v.get("kind").is_some(), "line missing kind: {line}");
    }
}

#[test]
fn run_manifest_carries_the_required_keys_and_separates_wall_clock() {
    let mut manifest = RunManifest::new("exp_integration", 7);
    manifest.digest_config("scenario=mesh flows=2 duration_s=10");
    manifest.metrics.merge(&run_one(7));
    manifest.push_phase("sweep", 0.25);
    manifest.push_extra("note", JsonValue::Str("integration".into()));

    let v = parse(&manifest.to_json()).expect("manifest parses");
    for key in [
        "schema",
        "experiment",
        "seed",
        "config_digest",
        "metrics",
        "extra",
        "wall",
    ] {
        assert!(v.get(key).is_some(), "missing {key}");
    }
    assert_eq!(
        v.get("schema").and_then(JsonValue::as_str),
        Some("openspace.run_manifest.v1")
    );
    // Wall-clock state lives only under "wall"; the deterministic
    // section must not mention it and must be reproducible.
    let det = manifest.deterministic_json();
    assert!(!det.contains("\"wall\""));
    assert!(!det.contains("span_wall_s"));
    let mut again = RunManifest::new("exp_integration", 7);
    again.digest_config("scenario=mesh flows=2 duration_s=10");
    again.metrics.merge(&run_one(7));
    again.push_phase("sweep", 99.0); // different wall-clock, same determinism
    again.push_extra("note", JsonValue::Str("integration".into()));
    assert_eq!(det, again.deterministic_json());
}
