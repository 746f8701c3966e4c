//! The benchmark's own tests: a tiny variant of every workload runs
//! through the same set-up, timed section and checks as the measured
//! size.

use openspace_perfbench::{
    check, heavy_layers, layer_metrics, plan_probe, run, setup, Inputs, Ops, Run, Size, Workload,
    PER_LAYER,
};
use openspace_telemetry::json::{parse, JsonValue};
use openspace_telemetry::{MemoryRecorder, NullRecorder};

fn tiny(workload: Workload, seed: u64) -> Inputs {
    setup(workload, Size::Tiny, seed, &mut NullRecorder).expect("tiny set-up")
}

fn run_clean(inputs: &Inputs, rec: &mut MemoryRecorder) -> Run {
    let mut ops = Ops::default();
    let out = run(inputs, rec, &mut ops).expect("every call succeeds");
    assert_eq!(ops.failed, 0, "{:?}", ops.errors);
    assert!(ops.attempted >= 2, "a run makes several calls");
    out
}

#[test]
fn tiny_workloads_pass_the_output_checks() {
    for workload in Workload::ALL {
        let inputs = tiny(workload, 7);
        let out = run_clean(&inputs, &mut MemoryRecorder::new());
        assert_eq!(check(&inputs, &out), Vec::<String>::new(), "{workload:?}");
        assert!(out.report.delivered > 0, "{workload:?} delivers packets");
    }
}

#[test]
fn same_seed_gives_the_same_digest_traced_or_not() {
    for workload in Workload::ALL {
        let (a, b) = (tiny(workload, 3), tiny(workload, 3));
        assert_eq!(a.digest(), b.digest(), "{workload:?} inputs");
        let mut ops = Ops::default();
        let plain = run(&a, &mut NullRecorder, &mut ops).expect("untraced run");
        assert_eq!(ops.failed, 0, "{:?}", ops.errors);
        let traced = run_clean(&b, &mut MemoryRecorder::new());
        assert_eq!(plain.digest(), traced.digest(), "{workload:?} outputs");
    }
}

#[test]
fn different_seeds_generate_different_inputs() {
    for workload in Workload::ALL {
        assert_ne!(
            tiny(workload, 1).digest(),
            tiny(workload, 2).digest(),
            "{workload:?}"
        );
    }
}

#[test]
fn traced_runs_report_each_workloads_layers() {
    for workload in Workload::ALL {
        let inputs = tiny(workload, 5);
        let mut rec = MemoryRecorder::new();
        let out = run_clean(&inputs, &mut rec);
        plan_probe(&inputs, &out, 2, &mut rec);
        let m = layer_metrics(&rec, &out.report);
        for name in m.keys() {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name} unlisted");
        }
        for name in heavy_layers(workload) {
            assert!(m[name] > 0.0, "{workload:?}: heavy layer {name} is empty");
        }
        let positive = match workload {
            Workload::ShellMotion => &[
                "net.timeline.deltas",
                "netsim.timeline.deltas_applied",
                "orbit.propagations",
            ][..],
            Workload::DemandDay => &[
                "core.demand.flows_mapped",
                "ledger.records",
                "settlement.records_settled",
            ][..],
            Workload::ShellAdaptive => &["netsim.replans", "netsim.fault.events_applied"][..],
        };
        for name in positive {
            assert!(m[name] > 0.0, "{workload:?}: {name} is zero");
        }
    }
}

#[test]
fn benchmark_json_names_the_workloads_and_per_layer_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        match json.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .filter_map(|i| i.get("name").and_then(JsonValue::as_str))
                .map(str::to_string)
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names("workloads"), workloads);
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names("per_layer"), per_layer);
}
