//! E21: a million users wake up (§5 open problem (1)).
//!
//! The paper's democratized constellation exists to serve people, and
//! people are not uniform: they cluster in cities, sleep at night, and
//! stream in the evening. This experiment synthesizes a 1.2M-user
//! population grid (no external data — seeded land-mass and Zipf city
//! synthesis), sweeps a full diurnal day of offered load, attaches
//! every populated cell to the federation's covering satellites and
//! gateways, and then contrasts the four-member federation against a
//! single member going it alone on three axes:
//!
//! 1. demand-weighted coverage (fraction of *users*, not area, served),
//! 2. packet delivery over a compressed simulated day with flows that
//!    activate and retire at demand-tick boundaries, and
//! 3. the settlement ledgers the demand-weighted traffic generates.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_demand`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{print_header, standard_federation, ExpRun};
use openspace_core::demand::record_coverage;
use openspace_core::netsim::{DemandWorkload, FlowSpec, NetSim, NetSimConfig, RoutingMode};
use openspace_core::prelude::demand_flows_for;
use openspace_core::prelude::demand_ledgers;
use openspace_demand::grid::{PopulationConfig, PopulationGrid};
use openspace_demand::mix::AppMix;
use openspace_demand::model::{DemandConfig, DemandModel, DemandTick};
use openspace_economics::settlement::{PriceBook, SettlementMatrix};
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::exec::default_threads;
use openspace_telemetry::{JsonValue, NullRecorder, Recorder};

fn main() {
    let mut run = ExpRun::from_args("exp_demand", 13);
    run.digest_config(
        "grid=36x72 users=1.2M cities=160 seed=13 mix=broadband step=3600s horizon=86400s \
         members=4 netsim[scale=1.5e-3 min_flow=2e3 cap=96 tick=5s dur=125s]",
    );
    let threads = default_threads();
    run.set_threads(threads);

    // ---- Population & diurnal day ------------------------------------
    run.phase("population");
    let grid = PopulationGrid::build(&PopulationConfig {
        lat_cells: 36,
        lon_cells: 72,
        total_users: 1_200_000,
        cities: 160,
        seed: 13,
        ..Default::default()
    })
    .expect("valid population config");
    let populated = grid.populated_cell_count();
    let top = grid.top_cells(5);
    let model = DemandModel::new(grid.clone(), AppMix::broadband(), DemandConfig::default())
        .expect("valid demand config");
    if run.human() {
        println!(
            "E21: demand-aware federation study ({} users in {} populated cells)",
            grid.total_users(),
            populated,
        );
        print_header(
            "Diurnal day (UTC, broadband mix, 10% cell jitter)",
            &format!(
                "{:<6} {:>14} {:>14} {:>10} {:>10}",
                "hour", "offered (Gb/s)", "active users", "cells", "flows"
            ),
        );
    }

    run.phase("diurnal day");
    let ticks: Vec<DemandTick> = model
        .demand_timeline_recorded(3_600.0, 86_400.0, threads, run.rec())
        .expect("valid timeline bounds");
    let mut day = Vec::new();
    let mut peak = f64::MIN;
    let mut trough = f64::MAX;
    for tick in &ticks {
        peak = peak.max(tick.offered_bps);
        trough = trough.min(tick.offered_bps);
        day.push(JsonValue::object([
            ("hour", JsonValue::Num(tick.t_s / 3_600.0)),
            ("offered_bps", JsonValue::Num(tick.offered_bps)),
            ("active_users", JsonValue::Num(tick.active_users)),
            ("active_cells", JsonValue::Uint(tick.active_cells)),
            ("flows", JsonValue::Uint(tick.flows.len() as u64)),
        ]));
        if run.human() && (tick.t_s as u64).is_multiple_of(10_800) {
            println!(
                "{:<6} {:>14.3} {:>14.0} {:>10} {:>10}",
                format!("{:02}:00", (tick.t_s / 3_600.0) as u64 % 24),
                tick.offered_bps / 1e9,
                tick.active_users,
                tick.active_cells,
                tick.flows.len(),
            );
        }
    }
    let swing = peak / trough;
    run.push_extra("diurnal_day", JsonValue::Array(day));
    run.push_extra(
        "population",
        JsonValue::object([
            ("users", JsonValue::Uint(grid.total_users())),
            ("populated_cells", JsonValue::Uint(populated as u64)),
            ("top_cell_users", JsonValue::Uint(top[0].1)),
            ("diurnal_swing", JsonValue::Num(swing)),
        ]),
    );
    if run.human() {
        println!("\ndiurnal swing (peak/trough offered load): {swing:.2}x");
    }

    // ---- Demand-weighted coverage: federation vs solo ----------------
    run.phase("attach");
    let mut fed = standard_federation(4, &[SatelliteClass::SmallSat]);
    let coverage = fed.attach_demand_cells(&grid, 0.0);
    record_coverage(&coverage, run.rec());
    let users = fed
        .register_cell_users(&coverage)
        .expect("covering operators are members");
    run.rec().add("demand.users_registered", users.len() as u64);

    let ids = fed.operator_ids();
    let mut solo_fracs = Vec::new();
    let mut solo_json = Vec::new();
    let mut largest_solo = (ids[0], 0u64);
    for &op in &ids {
        let solo = fed.attach_demand_cells_solo(op, &grid, 0.0);
        if solo.covered_users > largest_solo.1 {
            largest_solo = (op, solo.covered_users);
        }
        solo_fracs.push(solo.covered_fraction());
        solo_json.push(JsonValue::object([
            ("operator", JsonValue::Uint(op.0 as u64)),
            ("covered_fraction", JsonValue::Num(solo.covered_fraction())),
            ("covered_users", JsonValue::Uint(solo.covered_users)),
        ]));
    }
    let mean_solo = solo_fracs.iter().sum::<f64>() / solo_fracs.len() as f64;
    let by_op = coverage.users_by_operator();
    run.push_extra(
        "coverage",
        JsonValue::object([
            (
                "federated_fraction",
                JsonValue::Num(coverage.covered_fraction()),
            ),
            ("federated_users", JsonValue::Uint(coverage.covered_users)),
            ("mean_solo_fraction", JsonValue::Num(mean_solo)),
            ("solo", JsonValue::Array(solo_json)),
        ]),
    );
    if run.human() {
        print_header(
            "Demand-weighted coverage at t=0 (fraction of users, not area)",
            &format!("{:<22} {:>12} {:>14}", "fleet", "covered", "users"),
        );
        println!(
            "{:<22} {:>11.1}% {:>14}",
            "federation (4 ops)",
            coverage.covered_fraction() * 100.0,
            coverage.covered_users,
        );
        println!(
            "{:<22} {:>11.1}% {:>14}",
            "mean solo member",
            mean_solo * 100.0,
            largest_solo.1,
        );
        for (op, n) in &by_op {
            println!("  home users op {:<6} {:>26}", op.0, n);
        }
    }

    // ---- Compressed simulated day on the packet simulator ------------
    // One real day cannot run at packet granularity, so hour h of the
    // demand model becomes simulated second 5·h: the flow *population*
    // follows the diurnal day while rates are scaled to the transport
    // budget. Offered-load accounting stays unscaled throughout.
    run.phase("netsim day");
    let sim_model = DemandModel::new(
        grid.clone(),
        AppMix::broadband(),
        DemandConfig {
            transport_scale: 1.5e-3,
            min_flow_bps: 2.0e3,
            max_flows_per_tick: 96,
            ..Default::default()
        },
    )
    .expect("valid demand config");
    let cfg = NetSimConfig {
        duration_s: 125.0,
        queue_capacity_bytes: 512 * 1024,
        routing: RoutingMode::Proactive,
        seed: 13,
    };

    let full_graph = fed.snapshot(0.0);
    let solo_op = largest_solo.0;
    let solo_cov = fed.attach_demand_cells_solo(solo_op, &grid, 0.0);
    let solo_graph = fed.solo_snapshot(solo_op, 0.0);

    let build = |cov: &openspace_core::demand::CellCoverage,
                 graph: &openspace_net::topology::Graph| {
        let mut batches: Vec<(f64, Vec<FlowSpec>)> = Vec::new();
        let mut mapped = 0u64;
        let mut unserved_bps = 0.0;
        for h in 0..24u64 {
            let tick = sim_model.flows_at(h as f64 * 3_600.0, &mut NullRecorder);
            let (flows, stats) = demand_flows_for(cov, &tick, graph);
            mapped += stats.flows_mapped;
            unserved_bps += stats.unserved_bps;
            batches.push((h as f64 * 5.0, flows));
        }
        let workload = DemandWorkload::new(batches).expect("ticks strictly increasing");
        (workload, mapped, unserved_bps)
    };
    let (full_workload, full_mapped, full_unserved) = build(&coverage, &full_graph);
    let (solo_workload, solo_mapped, solo_unserved) = build(&solo_cov, &solo_graph);

    let full_report = NetSim::new(cfg)
        .with_snapshot(&full_graph)
        .with_demand(&full_workload)
        .run_recorded(&[], run.rec())
        .expect("valid netsim config");
    let solo_report = NetSim::new(cfg)
        .with_snapshot(&solo_graph)
        .with_demand(&solo_workload)
        .run_recorded(&[], run.rec())
        .expect("valid netsim config");

    run.push_extra(
        "netsim_day",
        JsonValue::object([
            ("federated_flows", JsonValue::Uint(full_mapped)),
            (
                "federated_delivered",
                JsonValue::Uint(full_report.delivered),
            ),
            (
                "federated_delivery",
                JsonValue::Num(full_report.delivery_ratio),
            ),
            ("federated_p95_s", JsonValue::Num(full_report.p95_latency_s)),
            (
                "federated_unroutable",
                JsonValue::Uint(full_report.unroutable),
            ),
            ("federated_unserved_bps", JsonValue::Num(full_unserved)),
            ("solo_flows", JsonValue::Uint(solo_mapped)),
            ("solo_delivered", JsonValue::Uint(solo_report.delivered)),
            ("solo_delivery", JsonValue::Num(solo_report.delivery_ratio)),
            ("solo_unroutable", JsonValue::Uint(solo_report.unroutable)),
            ("solo_unserved_bps", JsonValue::Num(solo_unserved)),
        ]),
    );
    if run.human() {
        print_header(
            "Compressed diurnal day on the packet simulator (hour = 5 s)",
            &format!(
                "{:<22} {:>10} {:>12} {:>10} {:>16}",
                "fleet", "flows", "delivered", "deliv %", "unserved (Gb/s)"
            ),
        );
        println!(
            "{:<22} {:>10} {:>12} {:>9.1}% {:>16.3}",
            "federation (4 ops)",
            full_mapped,
            full_report.delivered,
            full_report.delivery_ratio * 100.0,
            full_unserved / 1e9,
        );
        println!(
            "{:<22} {:>10} {:>12} {:>9.1}% {:>16.3}",
            format!("solo op {}", solo_op.0),
            solo_mapped,
            solo_report.delivered,
            solo_report.delivery_ratio * 100.0,
            solo_unserved / 1e9,
        );
        println!(
            "\nunroutable packets: federation {}, solo {} — the lone fleet's \
             ISL mesh is too sparse to reach its gateways (§2's case for pooling)",
            full_report.unroutable, solo_report.unroutable,
        );
    }

    // ---- Settlement: who carried whose demand ------------------------
    run.phase("economics");
    let (ledgers, intra_bytes) = demand_ledgers(&coverage, &ticks[..24], 3_600.0);
    let matrix = SettlementMatrix::from_ledgers_recorded(&ledgers, &PriceBook::new(2.0), run.rec());
    let mut cross_bytes = 0u64;
    for &a in &ids {
        for &b in &ids {
            if a == b {
                continue;
            }
            let origin_view = ledgers.get(&a).map_or(0, |l| l.bytes_carried(a, b));
            let carrier_view = ledgers.get(&b).map_or(0, |l| l.bytes_carried(a, b));
            assert_eq!(
                origin_view, carrier_view,
                "§3 cross-verification failed for {a:?}->{b:?}"
            );
            cross_bytes += origin_view;
        }
    }
    let mut positions = Vec::new();
    if run.human() {
        print_header(
            "Daily demand-weighted settlement (hourly items, 2.0 /GB)",
            &format!("{:<12} {:>16}", "operator", "net position"),
        );
    }
    for &op in &ids {
        let net = matrix.net_position(op);
        positions.push(JsonValue::object([
            ("operator", JsonValue::Uint(op.0 as u64)),
            ("net_position", JsonValue::Num(net)),
        ]));
        if run.human() {
            println!("{:<12} {:>16.2}", format!("op {}", op.0), net);
        }
    }
    let net_sum: f64 = ids.iter().map(|&op| matrix.net_position(op)).sum();
    run.push_extra(
        "settlement",
        JsonValue::object([
            ("cross_operator_bytes", JsonValue::Uint(cross_bytes)),
            ("intra_operator_bytes", JsonValue::Uint(intra_bytes)),
            ("net_positions", JsonValue::Array(positions)),
        ]),
    );
    if run.human() {
        println!(
            "\ncross-operator demand: {:.2} GB/day billed, {:.2} GB/day stays in-network",
            cross_bytes as f64 / 1e9,
            intra_bytes as f64 / 1e9,
        );
    }

    // ---- Headline claims, enforced -----------------------------------
    assert!(
        grid.total_users() >= 1_000_000,
        "the study must aggregate at least a million users"
    );
    assert!(
        swing >= 1.15,
        "diurnal swing must be visible in aggregate offered load ({swing:.3})"
    );
    assert!(
        coverage.covered_fraction() > mean_solo,
        "federated coverage must beat the mean solo member ({:.3} vs {mean_solo:.3})",
        coverage.covered_fraction()
    );
    assert!(
        full_mapped > solo_mapped,
        "the federation must serve more demand flows than the largest solo member"
    );
    assert!(
        full_report.delivered > solo_report.delivered,
        "the federation must deliver more packets than the largest solo member \
         ({} vs {})",
        full_report.delivered,
        solo_report.delivered
    );
    assert!(
        net_sum.abs() < 1e-6,
        "settlement must be zero-sum ({net_sum})"
    );
    run.finish();
}
