//! E1 / Figure 2(a): the simulated OpenSpace constellation.
//!
//! The paper illustrates an Iridium-like Walker Star (66 satellites, 6
//! planes, 780 km) that "achieves global coverage while maintaining
//! inter-satellite distances and trajectories that allow for simple and
//! sustained ISLs." This binary regenerates that configuration and
//! reports the quantities the caption claims: coverage, ISL distance
//! distribution, and link sustainability (same-plane vs cross-plane).
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_fig2a`

use openspace_bench::{print_header, walker_propagators};
use openspace_net::isl::{build_snapshot, SatNode, SnapshotParams};
use openspace_orbit::prelude::*;
use openspace_telemetry::NullRecorder;

fn main() {
    let params = iridium_params();
    let sats = walker_propagators(&params, PerturbationModel::SecularJ2);

    println!("Figure 2(a): simulated OpenSpace constellation");
    println!(
        "Walker Star {}:{}/{}/{} at {:.0} km",
        params.inclination_deg,
        params.total_satellites,
        params.planes,
        params.phasing,
        m_to_km(params.altitude_m)
    );

    // Global coverage of the configuration.
    let grid = SphereGrid::new(4000);
    for mask_deg in [0.0, 10.0] {
        let frac = grid_coverage_fraction(&grid, &sats, 0.0, f64::to_radians(mask_deg));
        println!(
            "global coverage at {mask_deg:>2}° elevation mask: {:.1}%",
            frac * 100.0
        );
    }

    // ISL geometry over one orbital period.
    let nodes: Vec<SatNode> = sats
        .iter()
        .map(|&p| SatNode {
            propagator: p,
            operator: 0,
            has_optical: false,
        })
        .collect();
    let snap_params = SnapshotParams::default();
    let period = sats[0].elements().period_s();

    print_header(
        "ISL sustainability over one orbital period",
        &format!(
            "{:<8} {:>7} {:>12} {:>12} {:>12}",
            "t (min)", "links", "min (km)", "mean (km)", "max (km)"
        ),
    );
    for k in 0..=6 {
        let t = period * k as f64 / 6.0;
        let g = build_snapshot(t, &nodes, &[], &snap_params, &mut NullRecorder);
        let mut dists = Vec::new();
        for i in 0..g.satellite_count() {
            for e in g.edges(i) {
                if e.to > i {
                    dists.push(e.latency_s * SPEED_OF_LIGHT_M_PER_S / 1000.0);
                }
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = dists.iter().sum::<f64>() / dists.len() as f64;
        println!(
            "{:<8.1} {:>7} {:>12.0} {:>12.0} {:>12.0}",
            t / 60.0,
            dists.len(),
            dists.first().unwrap(),
            mean,
            dists.last().unwrap()
        );
    }

    // Ground-track sample of one plane (the "trajectories" of the
    // caption), for plotting.
    print_header(
        "Ground track, satellite 0 (first 100 minutes)",
        &format!("{:<8} {:>10} {:>10}", "t (min)", "lat (deg)", "lon (deg)"),
    );
    for p in ground_track(&sats[0], 0.0, 6000.0, 600.0) {
        println!(
            "{:<8.0} {:>10.2} {:>10.2}",
            p.t_s / 60.0,
            p.geodetic.lat_deg(),
            p.geodetic.lon_deg()
        );
    }

    // Connectivity check: the mesh is one component.
    let g = build_snapshot(0.0, &nodes, &[], &snap_params, &mut NullRecorder);
    let reached = g.reachable_from(0).iter().filter(|&&r| r).count();
    println!(
        "\nISL mesh connectivity: {reached}/{} satellites in one component",
        g.satellite_count()
    );
}
