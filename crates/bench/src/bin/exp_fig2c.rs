//! E3 / Figure 2(c): Earth coverage vs constellation size.
//!
//! Paper: "total earth coverage is achieved by about 50 satellites. The
//! additional satellites ensure redundancy…" under the worst-case model
//! where "if there is any overlap between a pair of satellite ranges,
//! their effective coverage will be reduced to that of a single
//! satellite."
//!
//! We regenerate the worst-case curve and print the honest grid-union
//! and disjoint-packing estimators alongside, plus the CBO's 72-satellite
//! ≈95% reference point that §4 cites. The sweep runs on the shared
//! [`ScenarioRunner`](openspace_core::study::ScenarioRunner) harness
//! (memoized ephemeris, parallel size points).
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_fig2c`

use openspace_bench::{print_header, study_runner, walker_propagators, FIG2C_SIZES};
use openspace_orbit::prelude::*;

fn main() {
    let runner = study_runner(20, 8);
    let cfg = runner.config();

    println!(
        "Figure 2(c): coverage vs constellation size ({} trials/point)",
        cfg.trials
    );
    // The worker count depends on the host, so it goes to stderr.
    eprintln!("{} worker threads", runner.threads());
    print_header(
        "Random constellations, 780 km, 86.4 deg",
        &format!(
            "{:<6} {:>18} {:>14} {:>18}",
            "n", "worst-case (paper)", "grid union", "disjoint packing"
        ),
    );
    for p in runner.coverage_vs_satellites(&FIG2C_SIZES) {
        println!(
            "{:<6} {:>17.1}% {:>13.1}% {:>17.1}%",
            p.n_satellites,
            p.worst_case * 100.0,
            p.grid * 100.0,
            p.packing * 100.0
        );
    }

    // The CBO reference point quoted in §4.
    let sats = walker_propagators(&cbo_params(), PerturbationModel::TwoBody);
    let grid = SphereGrid::new(4000);
    println!("\nCBO reference: 72 satellites, 6 planes, 80 deg inclination (CBO: ~95%)");
    for mask_deg in [0.0f64, 10.0, 15.0] {
        let frac = grid_coverage_fraction(&grid, &sats, 0.0, mask_deg.to_radians());
        println!(
            "  grid coverage at {mask_deg:>2}° elevation mask: {:.1}%",
            frac * 100.0
        );
    }
    println!(
        "shape check: worst-case coverage reaches ~100% near 50 satellites; \
         additional satellites buy redundancy, not area."
    );
}
