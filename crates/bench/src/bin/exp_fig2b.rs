//! E2 / Figure 2(b): propagation latency vs constellation size.
//!
//! Paper: "increasing the number of satellites in the simulation
//! dramatically reduces the inter-satellite latency up to about 25
//! satellites, after which latency values average about 30ms", and the
//! caption: "the constellation requires a minimum of about four
//! satellites to guarantee that a satellite will orbit in range."
//!
//! We regenerate the curve under the paper's simplified model and, for
//! honesty, under the physical model (elevation-masked pickup and
//! line-of-sight ISLs), where the same sweep shows up as an availability
//! curve. The sweep runs on the shared [`ScenarioRunner`] harness:
//! ephemeris samples are memoized across size points and the points fan
//! out over a worker pool, with output bitwise-identical to a serial run.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_fig2b`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{fmt_opt, print_header, study_runner, timed, ExpRun, FIG2B_SIZES};
use openspace_core::prelude::*;
use openspace_telemetry::{JsonValue, Recorder};

fn print_points(points: &[LatencyPoint]) {
    for p in points {
        println!(
            "{:<6} {:>8.2} {:>14} {:>10}",
            p.n_satellites,
            p.reachability,
            fmt_opt(p.mean_latency_ms, 1),
            fmt_opt(p.mean_hops, 2)
        );
    }
}

fn points_json(points: &[LatencyPoint]) -> JsonValue {
    JsonValue::Array(
        points
            .iter()
            .map(|p| {
                JsonValue::object([
                    ("n_satellites", JsonValue::Uint(p.n_satellites as u64)),
                    ("reachability", JsonValue::Num(p.reachability)),
                    (
                        "mean_latency_ms",
                        p.mean_latency_ms.map_or(JsonValue::Null, JsonValue::Num),
                    ),
                    (
                        "mean_hops",
                        p.mean_hops.map_or(JsonValue::Null, JsonValue::Num),
                    ),
                ])
            })
            .collect(),
    )
}

fn main() {
    let mut run = ExpRun::from_args("exp_fig2b", 20);
    run.digest_config("trials=20 epochs=8 sizes=FIG2B models=[simplified,physical]");
    let runner = study_runner(20, 8);
    let cfg = *runner.config();
    run.set_threads(runner.threads());

    if run.human() {
        println!("Figure 2(b): propagation latency vs constellation size");
        println!(
            "user {:.1}N {:.1}E -> station {:.1}N {:.1}E, {} trials x {} epochs",
            cfg.user.lat_deg(),
            cfg.user.lon_deg(),
            cfg.station.lat_deg(),
            cfg.station.lon_deg(),
            cfg.trials,
            cfg.epochs_per_trial,
        );
        // Host-dependent lines go to stderr, so stdout is the same on
        // every host and thread count.
        eprintln!("{} worker threads", runner.threads());

        print_header(
            "Paper's simplified model (nearest pickup, distance-graph ISLs)",
            &format!(
                "{:<6} {:>8} {:>14} {:>10}",
                "n", "reach", "latency (ms)", "mean hops"
            ),
        );
    }
    run.phase("simplified sweep");
    let (points, harness_time) = timed(|| runner.latency_vs_satellites(&FIG2B_SIZES));
    run.rec().add("fig2b.points", points.len() as u64);
    run.push_extra("simplified", points_json(&points));
    if run.human() {
        print_points(&points);
    }

    run.phase("physical sweep");
    let phys_cfg = StudyConfig {
        model: StudyModel::Physical,
        ..cfg
    };
    let phys = ScenarioRunner::new(phys_cfg, runner.threads()).expect("valid study config");
    if run.human() {
        print_header(
            "Physical model (horizon-masked pickup, line-of-sight ISLs)",
            &format!(
                "{:<6} {:>8} {:>14} {:>10}",
                "n", "avail", "latency (ms)", "mean hops"
            ),
        );
    }
    let phys_points = phys.latency_vs_satellites(&FIG2B_SIZES);
    run.rec().add("fig2b.points", phys_points.len() as u64);
    run.push_extra("physical", points_json(&phys_points));
    if run.human() {
        print_points(&phys_points);
    }

    // Harness accounting: what memoization + the worker pool buy over the
    // pre-harness loop (a fresh serial propagation per size point), and
    // that they buy it without changing a single output bit.
    run.phase("legacy serial comparison");
    let (legacy_points, legacy_time) = timed(|| {
        FIG2B_SIZES
            .iter()
            .flat_map(|&n| {
                let serial = ScenarioRunner::new(cfg, 1).expect("valid study config");
                serial.latency_vs_satellites(&[n])
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        points, legacy_points,
        "harness output must be bitwise-identical to the per-point serial loop"
    );
    run.rec().add("fig2b.cache_hits", runner.cache().hits());
    run.rec().add("fig2b.cache_misses", runner.cache().misses());
    if run.human() {
        eprintln!(
            "harness timing (simplified model): per-point serial {:.2}s -> cached parallel {:.2}s ({:.1}x), {} cache hits / {} misses, identical output",
            legacy_time.as_secs_f64(),
            harness_time.as_secs_f64(),
            legacy_time.as_secs_f64() / harness_time.as_secs_f64().max(1e-9),
            runner.cache().hits(),
            runner.cache().misses(),
        );

        println!(
            "\nshape check: latency falls steeply to ~25 satellites, then \
             plateaus near 30 ms; availability under the physical model is \
             what small constellations actually lack."
        );
    }
    run.finish();
}
