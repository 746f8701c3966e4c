//! Experiment: graceful degradation under faults — federation vs monolith.
//!
//! The democratization claim has a resilience corollary: when one member
//! firm of an OpenSpace federation fails or walks away, the survivors
//! keep serving (users migrate, traffic re-routes); when the single
//! owner of a vertically-integrated monolith fails, everything it owns
//! goes dark at once. This experiment makes that comparison with one
//! seeded [`FaultPlan`] — operator 1 withdraws a third of the way into
//! the run, on top of background random satellite outages — compiled
//! against federations of 1 (the monolith), 2, 3, and 6 members.
//!
//! Ownership is plane-contiguous, matching the incremental-deployment
//! story (each member launches whole Iridium planes): with `m` members,
//! member 1 owns the first `6/m` planes, so its withdrawal darkens
//! `1/m` of the sky. Node indices are identical across member counts
//! (same 66-satellite constellation, same 6 stations), so every run
//! injects the *same* flows and the same background outages; the only
//! difference is how much of the sky "operator 1" owns. Runs are
//! bitwise-deterministic: the sweep executes serially and in parallel
//! and asserts the reports are identical.
//!
//! Run: `cargo run -p openspace-bench --release --bin exp_fault`
//! (add `--json` for a machine-readable run manifest on stdout).

use openspace_bench::{iridium_elements, print_header, ExpRun};
use openspace_core::prelude::*;
use openspace_phy::hardware::SatelliteClass;
use openspace_sim::exec::{default_threads, parallel_map_seeded};
use openspace_sim::fault::FaultPlan;
use openspace_telemetry::{JsonValue, NullRecorder, Recorder};

/// Member counts swept; index 0 is the monolithic baseline. All divide
/// the six Iridium planes evenly.
const MEMBERS: [usize; 4] = [1, 2, 3, 6];

/// The Iridium fleet split plane-contiguously among `members` operators,
/// stations round-robin over the default shared ground segment.
fn plane_federation(members: usize) -> Federation {
    let mut fed = Federation::new();
    let ops: Vec<_> = (0..members)
        .map(|i| fed.add_operator(format!("member-{}", i + 1)))
        .collect();
    let planes_per_member = 6 / members;
    for (i, el) in iridium_elements().into_iter().enumerate() {
        let plane = i / 11;
        fed.add_satellite(ops[plane / planes_per_member], SatelliteClass::SmallSat, el)
            .expect("member operator");
    }
    for (i, site) in default_station_sites().into_iter().enumerate() {
        fed.add_ground_station(ops[i % members], site)
            .expect("member operator");
    }
    fed
}

/// Flows chosen to survive the withdrawal in every *federated* layout:
/// the source satellites sit in the last two planes (always the last
/// member's) and the destination stations 1 and 5 are never owned by
/// member 1 when there is more than one member. Under the monolith,
/// member 1 owns all of them.
fn flows() -> Vec<FlowSpec> {
    let station = |gi: usize| 66 + gi;
    vec![
        FlowSpec::new(45usize, station(1), 4.0e5, 1_500, TrafficKind::Poisson),
        FlowSpec::new(50usize, station(5), 4.0e5, 1_500, TrafficKind::Poisson),
        FlowSpec::new(56usize, station(1), 4.0e5, 1_500, TrafficKind::Poisson),
        FlowSpec::new(61usize, station(5), 4.0e5, 1_500, TrafficKind::Poisson),
    ]
}

fn run_members(members: usize, rec: &mut dyn Recorder) -> (usize, NetSimReport) {
    let fed = plane_federation(members);
    let withdrawing = fed.operator_ids()[0];
    let plan = FaultPlan::builder()
        .seed(42)
        .operator_withdrawal(withdrawing, 20.0)
        .random_sat_outages(5.0, 6.0, 0.0, 60.0)
        .build()
        .expect("valid fault plan");
    let events = plan
        .compile(&fed.fault_topology())
        .expect("plan fits topology");
    let cfg = NetSimConfig {
        duration_s: 60.0,
        seed: 7,
        ..NetSimConfig::default()
    };
    let g0 = fed.snapshot(0.0);
    let report = NetSim::new(cfg)
        .with_snapshot(&g0)
        .with_faults(&events)
        .run_recorded(&flows(), rec)
        .expect("valid faulted run");
    (events.len(), report)
}

fn main() {
    let mut run = ExpRun::from_args("exp_fault", 7);
    run.digest_config("members=[1,2,3,6] fault_seed=42 sim_seed=7 duration_s=60 withdraw_at_s=20");
    if run.human() {
        println!("== Fault injection: operator withdrawal at t=20 s of 60 s, plus");
        println!("   seeded random satellite outages — identical plan, varying");
        println!("   federation size (1 member = the monolithic incumbent) ==");

        print_header(
            "Delivery under the same seeded fault plan",
            &format!(
                "{:<10} {:>8} {:>10} {:>12} {:>12} {:>10} {:>10}",
                "members", "events", "delivered", "fault loss", "avail", "mttr (s)", "reassoc"
            ),
        );
    }
    run.phase("serial sweep");
    let serial: Vec<(usize, NetSimReport)> =
        MEMBERS.iter().map(|&m| run_members(m, run.rec())).collect();
    for (m, (events, r)) in MEMBERS.iter().zip(&serial) {
        if run.human() {
            println!(
                "{:<10} {:>8} {:>9.1}% {:>12} {:>12.4} {:>10} {:>10}",
                m,
                events,
                r.delivery_ratio * 100.0,
                r.fault.packets_lost,
                r.fault.node_availability,
                r.fault
                    .mttr_s
                    .map(|t| format!("{t:.1}"))
                    .unwrap_or_else(|| "-".into()),
                r.fault.reassociations,
            );
        }
    }
    // The acceptance-relevant fault block: availability / MTTR /
    // re-association per federation size, in the deterministic section.
    run.push_extra(
        "fault",
        JsonValue::Array(
            MEMBERS
                .iter()
                .zip(&serial)
                .map(|(&m, (events, r))| {
                    JsonValue::object([
                        ("members", JsonValue::Uint(m as u64)),
                        ("events", JsonValue::Uint(*events as u64)),
                        ("delivery_ratio", JsonValue::Num(r.delivery_ratio)),
                        ("packets_lost", JsonValue::Uint(r.fault.packets_lost)),
                        (
                            "node_availability",
                            JsonValue::Num(r.fault.node_availability),
                        ),
                        (
                            "mttr_s",
                            r.fault.mttr_s.map_or(JsonValue::Null, JsonValue::Num),
                        ),
                        ("reassociations", JsonValue::Uint(r.fault.reassociations)),
                    ])
                })
                .collect(),
        ),
    );

    // Determinism: the same sweep on a worker pool must be bitwise equal.
    run.phase("parallel sweep");
    let parallel: Vec<(usize, NetSimReport)> =
        parallel_map_seeded(&MEMBERS, default_threads().max(2), 42, |&m, _rng| {
            run_members(m, &mut NullRecorder)
        });
    assert_eq!(serial, parallel, "parallel sweep must match serial bitwise");
    if run.human() {
        println!("\ndeterminism: serial and parallel sweeps bitwise-identical ✓");
    }

    // The resilience claim, asserted: every federated layout beats the
    // monolith under the identical fault plan.
    let monolith = &serial[0].1;
    for (m, (_, r)) in MEMBERS.iter().zip(&serial).skip(1) {
        assert!(
            r.delivery_ratio > monolith.delivery_ratio,
            "{m}-member federation ({:.3}) must beat the monolith ({:.3})",
            r.delivery_ratio,
            monolith.delivery_ratio
        );
    }
    if run.human() {
        println!(
            "resilience: federation delivery strictly above monolith ({:.1}% vs {:.1}%) ✓",
            serial
                .last()
                .map(|(_, r)| r.delivery_ratio * 100.0)
                .unwrap_or(0.0),
            monolith.delivery_ratio * 100.0
        );
    }

    // Federation-level view of the same withdrawal: subscribers migrate
    // to the survivors; the monolith has nowhere to send them.
    run.phase("migration");
    if run.human() {
        print_header(
            "Subscriber migration at the withdrawal",
            &format!("{:<10} {:>12} {:>40}", "members", "migrated", "outcome"),
        );
    }
    for &m in &MEMBERS {
        let mut fed = plane_federation(m);
        let leaver = fed.operator_ids()[0];
        for _ in 0..6 {
            fed.register_user(leaver).expect("member operator");
        }
        match fed.withdraw_operator(leaver) {
            Ok(w) => {
                run.rec()
                    .add("federation.subscribers_migrated", w.migrated.len() as u64);
                if run.human() {
                    println!(
                        "{:<10} {:>12} {:>40}",
                        m,
                        w.migrated.len(),
                        format!("{} surviving operators", fed.operator_count())
                    );
                }
            }
            Err(e) => {
                if run.human() {
                    println!("{:<10} {:>12} {:>40}", m, 0, e.to_string());
                }
            }
        }
    }
    if run.human() {
        println!(
            "\nshape check: the monolith loses every flow the moment its only \
             operator leaves; federations lose only the departing member's \
             planes, re-route around the gap, and migrate the stranded \
             subscribers to the survivors — the more members, the smaller \
             the hole."
        );
    }
    run.finish();
}
