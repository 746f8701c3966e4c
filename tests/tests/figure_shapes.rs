//! Shape tests for the paper's Figure 2: the bench binaries regenerate
//! the full curves; these tests pin the qualitative claims so a
//! regression in any underlying crate is caught by `cargo test`.

use openspace_core::study::{CoveragePoint, LatencyPoint, ScenarioRunner, StudyConfig, StudyModel};

fn latency_vs_satellites(cfg: &StudyConfig, sizes: &[usize]) -> Vec<LatencyPoint> {
    let runner = ScenarioRunner::new(*cfg, 1).expect("valid study config");
    runner.latency_vs_satellites(sizes)
}

fn coverage_vs_satellites(cfg: &StudyConfig, sizes: &[usize]) -> Vec<CoveragePoint> {
    let runner = ScenarioRunner::new(*cfg, 1).expect("valid study config");
    runner.coverage_vs_satellites(sizes)
}

fn cfg() -> StudyConfig {
    StudyConfig {
        trials: 8,
        epochs_per_trial: 6,
        ..Default::default()
    }
}

#[test]
fn fig2b_latency_decreases_dramatically_then_plateaus_around_30ms() {
    let pts = latency_vs_satellites(&cfg(), &[4, 12, 25, 50, 100]);

    // The paper's simplified model always connects ("a minimum of about
    // four satellites guarantees a satellite in range").
    for p in &pts {
        assert_eq!(p.reachability, 1.0, "n={}", p.n_satellites);
    }

    let lat: Vec<f64> = pts.iter().map(|p| p.mean_latency_ms.unwrap()).collect();

    // Monotone decreasing (within a small noise margin).
    for w in lat.windows(2) {
        assert!(
            w[1] <= w[0] + 2.0,
            "latency should not rise with density: {} then {}",
            w[0],
            w[1]
        );
    }

    // Dramatic early decline: 4 → 50 satellites cuts latency by ≥25%.
    assert!(
        lat[3] < lat[0] * 0.75,
        "drop from {} to {} is not dramatic",
        lat[0],
        lat[3]
    );

    // Plateau near the paper's ~30 ms: 50 and 100 satellites within a
    // tight band of each other and inside 20..50 ms for this geometry.
    assert!(
        (lat[3] - lat[4]).abs() / lat[3] < 0.25,
        "curve should flatten: {} vs {}",
        lat[3],
        lat[4]
    );
    assert!(
        (20.0..50.0).contains(&lat[4]),
        "plateau latency {} ms outside the expected band",
        lat[4]
    );
}

#[test]
fn fig2b_physical_model_reachability_rises_with_density() {
    // The honest counterpart: with elevation-masked pickup and
    // line-of-sight ISLs, availability — not latency — is what a small
    // constellation lacks.
    let cfg = StudyConfig {
        model: StudyModel::Physical,
        ..cfg()
    };
    let pts = latency_vs_satellites(&cfg, &[3, 25, 100]);
    assert!(
        pts[0].reachability < 0.5,
        "3 satellites: {}",
        pts[0].reachability
    );
    assert!(
        pts[2].reachability > 0.9,
        "100 satellites: {}",
        pts[2].reachability
    );
    assert!(pts[0].reachability <= pts[1].reachability + 0.1);
    assert!(pts[1].reachability <= pts[2].reachability + 0.1);
}

#[test]
fn fig2c_total_coverage_reached_near_fifty_sats() {
    let pts = coverage_vs_satellites(&cfg(), &[10, 25, 50, 70]);

    // Monotone increasing (within noise).
    for w in pts.windows(2) {
        assert!(
            w[1].worst_case >= w[0].worst_case - 0.05,
            "coverage should rise: {} then {}",
            w[0].worst_case,
            w[1].worst_case
        );
    }
    // The paper's claim: total Earth coverage by about 50 satellites.
    assert!(
        pts[2].worst_case > 0.9,
        "50 sats should approach total coverage: {}",
        pts[2].worst_case
    );
    assert!(
        pts[3].worst_case > 0.97,
        "70 sats should saturate: {}",
        pts[3].worst_case
    );
    // And 10 satellites are nowhere near.
    assert!(pts[0].worst_case < 0.7, "10 sats: {}", pts[0].worst_case);
}

#[test]
fn fig2c_estimator_ordering() {
    // packing ≤ worst-case everywhere; all estimators stay in [0, 1].
    let pts = coverage_vs_satellites(&cfg(), &[15, 35, 60]);
    for p in &pts {
        assert!(
            p.packing <= p.worst_case + 1e-9,
            "n={}: packing {} > worst-case {}",
            p.n_satellites,
            p.packing,
            p.worst_case
        );
        assert!(p.grid <= 1.0 && p.worst_case <= 1.0 && p.packing <= 1.0);
    }
}

#[test]
fn cbo_72_sat_estimate_holds_on_grid_coverage() {
    // §4 cites the CBO: 72 satellites at 80° inclination give ≈95% global
    // coverage. Check the honest estimator against the CBO's own
    // configuration (Walker star, 12/plane).
    use openspace_orbit::prelude::*;
    let els = walker_star(&cbo_params()).unwrap();
    let sats: Vec<Propagator> = els
        .into_iter()
        .map(|e| Propagator::new(e, PerturbationModel::TwoBody))
        .collect();
    let grid = SphereGrid::new(3000);
    let frac = grid_coverage_fraction(&grid, &sats, 0.0, 0.0);
    assert!(
        frac > 0.93,
        "CBO 72-sat configuration should give ~95% coverage, got {frac}"
    );
}
