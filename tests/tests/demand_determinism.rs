//! Cross-crate determinism guarantees of the demand subsystem.
//!
//! The demand model is the input to every federation-vs-solo claim the
//! experiments make, so its output must be a pure function of the seed:
//! bitwise-stable across runs, across worker-thread counts, and exactly
//! decomposable (the per-cell aggregate replays as the in-order sum of
//! the per-class loads, with no tolerance).

use openspace_core::prelude::*;
use openspace_demand::prelude::*;
use openspace_phy::hardware::SatelliteClass;
use openspace_telemetry::NullRecorder;

fn grid(seed: u64) -> PopulationGrid {
    PopulationGrid::build(&PopulationConfig {
        lat_cells: 18,
        lon_cells: 36,
        total_users: 250_000,
        cities: 64,
        seed,
        ..Default::default()
    })
    .expect("valid population config")
}

fn model(seed: u64) -> DemandModel {
    DemandModel::new(grid(seed), AppMix::broadband(), DemandConfig::default())
        .expect("valid demand config")
}

fn assert_ticks_bitwise_eq(a: &[DemandTick], b: &[DemandTick]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.t_s.to_bits(), y.t_s.to_bits());
        assert_eq!(x.offered_bps.to_bits(), y.offered_bps.to_bits());
        assert_eq!(x.active_users.to_bits(), y.active_users.to_bits());
        assert_eq!(x.active_cells, y.active_cells);
        assert_eq!(x.flows.len(), y.flows.len());
        for (f, g) in x.flows.iter().zip(&y.flows) {
            assert_eq!(f.cell, g.cell);
            assert_eq!(f.class, g.class);
            assert_eq!(f.offered_bps.to_bits(), g.offered_bps.to_bits());
            assert_eq!(f.rate_bps.to_bits(), g.rate_bps.to_bits());
        }
    }
}

#[test]
fn same_seed_rebuild_is_bitwise_identical() {
    let (a, b) = (grid(7), grid(7));
    assert_eq!(a.total_users(), b.total_users());
    assert_eq!(a.populated_cell_count(), b.populated_cell_count());
    for idx in 0..a.cell_count() {
        assert_eq!(a.users(idx), b.users(idx), "cell {idx}");
    }
    let ta = model(7).demand_timeline(7_200.0, 86_400.0, 2).unwrap();
    let tb = model(7).demand_timeline(7_200.0, 86_400.0, 2).unwrap();
    assert_ticks_bitwise_eq(&ta, &tb);
}

#[test]
fn different_seeds_diverge() {
    let (a, b) = (grid(7), grid(8));
    assert_eq!(a.total_users(), b.total_users(), "users are conserved");
    let differing = (0..a.cell_count())
        .filter(|&i| a.users(i) != b.users(i))
        .count();
    assert!(
        differing > a.cell_count() / 16,
        "seeds must reshape the population ({differing} cells differ)"
    );
}

#[test]
fn timeline_is_worker_count_invariant() {
    let m = model(11);
    let reference = m.demand_timeline(3_600.0, 43_200.0, 1).unwrap();
    for threads in [2, 4, 8] {
        let t = m.demand_timeline(3_600.0, 43_200.0, threads).unwrap();
        assert_ticks_bitwise_eq(&reference, &t);
    }
}

#[test]
fn cell_aggregate_replays_as_class_sum_exactly() {
    let m = model(13);
    for t in [0.0, 3_600.0, 45_000.0, 86_399.0] {
        for (cell, _) in m.grid().populated_cells() {
            let total = m.cell_offered_bps(cell, t);
            let by_class: f64 = m
                .cell_class_offered(cell, t)
                .iter()
                .map(|&(_, _, bps)| bps)
                .sum();
            assert_eq!(
                total.to_bits(),
                by_class.to_bits(),
                "cell {cell} at t={t}: aggregate must replay bitwise"
            );
        }
    }
}

#[test]
fn apportionment_conserves_users_exactly() {
    for seed in [1, 5, 9, 42] {
        let g = grid(seed);
        let sum: u64 = (0..g.cell_count()).map(|i| g.users(i)).sum();
        assert_eq!(sum, g.total_users(), "seed {seed}");
    }
}

#[test]
fn attachment_and_flows_are_stable_end_to_end() {
    // The full pipeline — grid, attach, flow mapping — replayed twice
    // against the same federation must agree on every node index.
    let fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
    let g = grid(3);
    let m = DemandModel::new(g.clone(), AppMix::broadband(), DemandConfig::default()).unwrap();
    let graph = fed.snapshot(300.0);
    let run = || {
        let cov = fed.attach_demand_cells(&g, 300.0);
        let tick = m.flows_at(20.0 * 3_600.0, &mut NullRecorder);
        demand_flows_for(&cov, &tick, &graph)
    };
    let (fa, sa) = run();
    let (fb, sb) = run();
    assert_eq!(sa, sb);
    assert_eq!(fa.len(), fb.len());
    for (x, y) in fa.iter().zip(&fb) {
        assert_eq!(x.src, y.src);
        assert_eq!(x.dst, y.dst);
        assert_eq!(x.rate_bps.to_bits(), y.rate_bps.to_bits());
    }
}
