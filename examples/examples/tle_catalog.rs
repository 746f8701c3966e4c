//! TLE catalog round trip: the public-topology workflow of §2.2.
//!
//! "The radar-tracked orbital paths of satellites are well-known and
//! readily available on public websites. This means that all firms that
//! contribute satellites to OpenSpace have a full public view of the
//! topology of the entire network."
//!
//! An operator publishes its constellation as standard TLEs; any other
//! firm ingests the catalog and reconstructs the topology — positions,
//! contact windows, routes — without ever talking to the publisher.
//!
//! Run with:
//! ```sh
//! cargo run -p openspace-examples --example tle_catalog
//! ```

use openspace_net::isl::{build_snapshot, SatNode, SnapshotParams};
use openspace_orbit::prelude::*;
use openspace_telemetry::NullRecorder;

fn main() {
    // The publishing operator's fleet: one Iridium plane.
    let els: Vec<OrbitalElements> = walker_star(&iridium_params())
        .unwrap()
        .into_iter()
        .take(11)
        .collect();

    println!("== Operator publishes its plane as TLEs ==");
    let mut catalog = Vec::new();
    for (i, el) in els.iter().enumerate() {
        let (l1, l2) = elements_to_tle(30_000 + i as u32, "26010A", 2026, 185.0, el);
        if i < 2 {
            println!("{l1}\n{l2}");
        }
        catalog.push((l1, l2));
    }
    println!("… {} satellites total\n", catalog.len());

    // A different firm ingests the catalog.
    println!("== Competitor ingests the catalog ==");
    let mut reconstructed = Vec::new();
    for (l1, l2) in &catalog {
        let tle = parse_tle(l1, l2).expect("published TLEs are well-formed");
        let el = tle.to_elements().expect("orbit is physical");
        reconstructed.push(SatNode {
            propagator: Propagator::new(el, PerturbationModel::SecularJ2),
            operator: 1,
            has_optical: false,
        });
    }
    println!("parsed {} TLEs", reconstructed.len());

    // Verify the reconstruction predicts the same positions.
    let originals: Vec<Propagator> = els
        .iter()
        .map(|&e| Propagator::new(e, PerturbationModel::SecularJ2))
        .collect();
    let mut worst = 0.0f64;
    for t in [0.0, 1_800.0, 3_600.0, 43_200.0] {
        for (a, b) in originals.iter().zip(&reconstructed) {
            worst = worst.max(a.position_eci(t).distance(b.propagator.position_eci(t)));
        }
    }
    println!("worst position error over 12 h of prediction: {worst:.0} m");

    // …and the same topology.
    let params = SnapshotParams::default();
    let g = build_snapshot(0.0, &reconstructed, &[], &params, &mut NullRecorder);
    println!(
        "reconstructed ISL topology: {} satellites, {} directed links",
        g.satellite_count(),
        g.edge_count()
    );
    println!(
        "\nThe competitor can now precompute routes and contact plans against \
         this fleet — §2.2's \"full public view of the topology\" in practice."
    );
}
