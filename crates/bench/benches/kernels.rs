//! Micro-benchmarks for the computational kernels behind every
//! experiment: orbit propagation, snapshot construction, routing,
//! coverage estimation, MAC simulation, wire codec, and settlement.
//!
//! These exist to keep the simulation substrate fast enough that the
//! experiment sweeps stay interactive, and to catch performance
//! regressions; the *scientific* outputs come from the `exp_*` binaries.
//!
//! Run: `cargo bench -p openspace-bench --bench kernels`, or only the
//! kernels whose names contain a filter: `cargo bench -p
//! openspace-bench --bench kernels -- snapshot_`
//!
//! Self-contained harness (no external bench framework): each kernel is
//! warmed up, then timed over five equal sub-windows that together make
//! a fixed measurement window, each running at least one iteration. The
//! table reports the mean wall-clock per iteration over the whole
//! window. Set `OPENSPACE_BENCH_WINDOW_MS` to shrink the window (CI
//! smoke runs use a few milliseconds just to prove every kernel still
//! executes).
//!
//! `--json` replaces the table with one JSON object per selected kernel
//! and line: `name`, the `median_s`, `q1_s` and `q3_s` of the five
//! sub-windows' seconds per iteration (linear interpolation between
//! order statistics, so the quartiles are the second and fourth), the
//! `iters` run and the `host_cores` available
//! (`cargo bench -p openspace-bench --bench kernels -- --json equeue_`).

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use openspace_core::federation::{default_station_sites, Federation};
use openspace_core::study::{ScenarioRunner, StudyConfig};
use openspace_economics::prelude::*;
use openspace_mac::prelude::*;
use openspace_net::prelude::*;
use openspace_orbit::prelude::*;
use openspace_phy::hardware::SatelliteClass;
use openspace_protocol::prelude::*;

/// Time `f` for at least `window`, after a short warmup, and print the
/// mean wall-clock per iteration (or, with `--json`, the sub-window
/// median and quartiles); a kernel the filter leaves out is skipped.
fn bench(name: &str, window: Duration, mut f: impl FnMut()) {
    if !selected(name) {
        return;
    }
    // Warmup: a few iterations to populate caches and branch predictors.
    let warmup_until = Instant::now() + window / 10;
    while Instant::now() < warmup_until {
        f();
    }
    let mut per_iter = [0.0f64; SUB_WINDOWS];
    let mut iters: u64 = 0;
    let mut elapsed = 0.0;
    for slot in &mut per_iter {
        let start = Instant::now();
        let mut n: u64 = 0;
        while n == 0 || start.elapsed() < window / SUB_WINDOWS as u32 {
            f();
            n += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        *slot = secs / n as f64;
        iters += n;
        elapsed += secs;
    }
    if json() {
        per_iter.sort_by(f64::total_cmp);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "{{\"name\": \"{name}\", \"median_s\": {:e}, \"q1_s\": {:e}, \"q3_s\": {:e}, \
             \"iters\": {iters}, \"host_cores\": {cores}}}",
            per_iter[2], per_iter[1], per_iter[3]
        );
        return;
    }
    let per_iter = elapsed / iters as f64;
    let (value, unit) = if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else if per_iter >= 1e-6 {
        (per_iter * 1e6, "µs")
    } else {
        (per_iter * 1e9, "ns")
    };
    println!("{name:<40} {value:>10.3} {unit}/iter  ({iters} iters)");
}

/// Equal sub-windows per measurement window; `--json` reports their
/// median and quartiles, indices 2, 1 and 3 once sorted.
const SUB_WINDOWS: usize = 5;

/// Whether `--json` was passed.
fn json() -> bool {
    static JSON: OnceLock<bool> = OnceLock::new();
    *JSON.get_or_init(|| std::env::args().skip(1).any(|a| a == "--json"))
}

/// Whether kernel `name` runs: it contains one of the command line's
/// filters, or none was given. Flags (such as the `--bench` cargo
/// passes) are not filters.
fn selected(name: &str) -> bool {
    static FILTERS: OnceLock<Vec<String>> = OnceLock::new();
    let filters = FILTERS.get_or_init(|| {
        std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect()
    });
    filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()))
}

/// Measurement window per kernel: 300 ms by default, overridable down
/// to a smoke run via the `OPENSPACE_BENCH_WINDOW_MS` environment
/// variable.
fn window() -> Duration {
    static WINDOW: OnceLock<Duration> = OnceLock::new();
    *WINDOW.get_or_init(|| {
        std::env::var("OPENSPACE_BENCH_WINDOW_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(300))
    })
}

fn iridium_props() -> Vec<Propagator> {
    walker_star(&iridium_params())
        .unwrap()
        .into_iter()
        .map(|e| Propagator::new(e, PerturbationModel::SecularJ2))
        .collect()
}

fn iridium_nodes() -> Vec<SatNode> {
    iridium_props()
        .into_iter()
        .enumerate()
        .map(|(i, p)| SatNode {
            propagator: p,
            operator: (i % 4) as u32,
            has_optical: false,
        })
        .collect()
}

fn bench_propagation() {
    let sats = iridium_props();
    bench("propagate_66_sats_one_epoch", window(), || {
        for s in &sats {
            black_box(s.position_eci(black_box(1234.5)));
        }
    });
    bench("kepler_solve_e0p1", window(), || {
        black_box(openspace_orbit::kepler::solve_kepler(black_box(2.7), 0.1));
    });
}

fn bench_snapshot() {
    let nodes = iridium_nodes();
    let stations: Vec<GroundNode> = [(48.0, 11.0), (-33.9, 18.4), (1.35, 103.8)]
        .iter()
        .map(|&(lat, lon)| GroundNode {
            position_ecef: geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 0.0)),
            operator: 9,
        })
        .collect();
    let params = SnapshotParams::default();
    bench("build_snapshot_iridium", window(), || {
        black_box(build_snapshot(
            black_box(0.0),
            &nodes,
            &stations,
            &params,
            &mut NullRecorder,
        ));
    });

    // Dense vs nearest-first neighbour search at a Starlink-shell scale,
    // where the O(n²) pair sweep matters. Each pair of kernels gets the
    // same params and the same precomputed ephemeris, so the neighbour
    // search is the only difference; the property suite
    // (`snapshot_equivalence`) proves the graphs bitwise equal. The
    // per-candidate LoS and capacity work is shared, so the time gap
    // understates the pair gap.
    //
    // First a random 1,500-satellite shell at an S-band-grade 2000 km
    // ISL range: the search tests ~3% of the 2.2M ordered pairs.
    let big_params = SnapshotParams {
        max_isl_range_m: 2_000_000.0,
        ..SnapshotParams::default()
    };
    let big =
        openspace_bench::random_sat_nodes(1500, 550_000.0, 53.0, 7, PerturbationModel::TwoBody);
    bench_snapshot_pair("1500sats", &big, &stations, &big_params);

    // Then the benchmark's `shell_motion` fleet — a 72×22 Walker-Delta
    // shell at 550 km and 53°, four operators, the default ground
    // segment — at default `SnapshotParams`: the search tests
    // ~3% of the 2.5M ordered pairs.
    let shell = walker_shell_federation();
    bench_snapshot_pair(
        "walker_1584",
        &shell.sat_nodes(),
        &shell.ground_nodes(),
        &shell.snapshot_params,
    );
}

/// The `snapshot_dense_<label>` / `snapshot_gated_<label>` kernel pair
/// on one precomputed ephemeris.
fn bench_snapshot_pair(
    label: &str,
    sats: &[SatNode],
    stations: &[GroundNode],
    params: &SnapshotParams,
) {
    let t_s = 1_234.0;
    let samples: Vec<openspace_orbit::ephemeris::EphemerisSample> = sats
        .iter()
        .map(|s| {
            let eci = s.propagator.position_eci(t_s);
            openspace_orbit::ephemeris::EphemerisSample {
                eci,
                ecef: eci_to_ecef(eci, t_s),
            }
        })
        .collect();
    bench(&format!("snapshot_dense_{label}"), window(), || {
        black_box(build_snapshot_from_samples_dense(
            sats, &samples, stations, params,
        ));
    });
    bench(&format!("snapshot_gated_{label}"), window(), || {
        black_box(build_snapshot_from_samples(
            sats, &samples, stations, params,
        ));
    });
}

/// A 1,584-satellite Walker-Delta shell (72 planes × 22, 550 km, 53°)
/// split round-robin among four operators over the default ground
/// segment.
fn walker_shell_federation() -> Federation {
    let elements = walker_delta(&WalkerParams {
        total_satellites: 72 * 22,
        planes: 72,
        phasing: 1,
        altitude_m: 550e3,
        inclination_deg: 53.0,
    })
    .unwrap();
    let mut fed = Federation::new();
    let ops: Vec<_> = (1..=4)
        .map(|i| fed.add_operator(format!("operator-{i}")))
        .collect();
    for (i, el) in elements.into_iter().enumerate() {
        fed.add_satellite(ops[i % ops.len()], SatelliteClass::SmallSat, el)
            .unwrap();
    }
    for (i, site) in default_station_sites().into_iter().enumerate() {
        fed.add_ground_station(ops[i % ops.len()], site).unwrap();
    }
    fed
}

fn bench_contact_scan() {
    // Dense vs horizon-skip contact scanning: the Iridium shell against
    // one mid-latitude site at a broadband-grade mask, where almost all
    // grid samples sit far below the horizon. The windows are bitwise
    // identical (see the `contact_equivalence` property suite); only the
    // number of propagations differs.
    let sats = iridium_nodes();
    let ground = geodetic_to_ecef(Geodetic::from_degrees(47.0, 8.0, 400.0));
    let mask = 25f64.to_radians();
    bench("contact_scan_dense_iridium_2h", window(), || {
        black_box(contact_plan_dense(
            &sats,
            black_box(ground),
            0.0,
            7_200.0,
            5.0,
            mask,
        ));
    });
    bench("contact_scan_gated_iridium_2h", window(), || {
        black_box(contact_plan(
            &sats,
            black_box(ground),
            0.0,
            7_200.0,
            5.0,
            mask,
            &mut NullRecorder,
        ));
    });
}

fn bench_routing() {
    let nodes = iridium_nodes();
    let params = SnapshotParams::default();
    let graph = build_snapshot(0.0, &nodes, &[], &params, &mut NullRecorder);
    bench("dijkstra_iridium_crossing", window(), || {
        black_box(shortest_path(
            &graph,
            black_box(0),
            black_box(35),
            latency_weight,
            &mut NullRecorder,
        ));
    });
    let req = QosRequirement {
        min_bandwidth_bps: 1e5,
        max_latency_s: f64::INFINITY,
    };
    bench("qos_route_iridium", window(), || {
        black_box(qos_route(&graph, 0, 35, &req, 12_000.0, &mut NullRecorder));
    });

    // The replan-heavy shape: 64 flows leaving 4 gateway sources. The
    // baseline runs one early-exit Dijkstra per flow; the planner grows
    // one tree per distinct source and answers the rest from cache.
    let n = graph.node_count();
    let requests: Vec<(NodeId, NodeId)> = (0..64)
        .map(|i| (NodeId(i % 4), NodeId(4 + (i * 7) % (n - 4))))
        .collect();
    bench("route_64flows_4src_per_flow", window(), || {
        for &(s, d) in &requests {
            let rec = &mut NullRecorder;
            black_box(shortest_path(&graph, s, d, latency_weight, rec));
        }
    });
    bench("route_64flows_4src_planner", window(), || {
        let mut planner = RoutePlanner::new();
        black_box(planner.plan(&graph, &requests, latency_weight));
    });
    bench("qos_64flows_4src_per_flow", window(), || {
        for &(s, d) in &requests {
            black_box(qos_route(&graph, s, d, &req, 12_000.0, &mut NullRecorder));
        }
    });
    bench("qos_64flows_4src_planner", window(), || {
        let mut planner = RoutePlanner::new();
        black_box(planner.plan_mapped(
            &graph,
            &requests,
            req.weight(12_000.0),
            None,
            |p| req.admit(p),
            &mut NullRecorder,
        ));
    });

    // The adaptive-replan shape at shell scale: 256 flows from
    // satellites spread around the 72×22 shell to the gateways, costed
    // by the congestion weight over seeded per-edge loads. The planner
    // variant is one replan tick: `invalidate` + one batched plan on a
    // reused planner.
    let mut graph = walker_shell_federation().snapshot(0.0);
    let mut rng = openspace_sim::prelude::SimRng::new(7);
    for u in 0..graph.node_count() {
        for e in graph.edges_mut(u) {
            e.load_fraction = rng.uniform_range(0.0, 0.9);
        }
    }
    let n_sats = 72 * 22;
    let n_stations = graph.node_count() - n_sats;
    let requests: Vec<(NodeId, NodeId)> = (0..256)
        .map(|k| (NodeId(k * n_sats / 256), NodeId(n_sats + k % n_stations)))
        .collect();
    let req = QosRequirement::best_effort();
    bench("qos_256flows_walker_1584_per_flow", window(), || {
        for &(s, d) in &requests {
            black_box(qos_route(&graph, s, d, &req, 12_000.0, &mut NullRecorder));
        }
    });
    let mut planner = RoutePlanner::new();
    bench("qos_256flows_walker_1584_planner", window(), || {
        planner.invalidate();
        black_box(planner.plan_mapped(
            &graph,
            &requests,
            req.weight(12_000.0),
            None,
            |p| req.admit(p),
            &mut NullRecorder,
        ));
    });
    // The same tick with goal bounds toward the gateways, built outside
    // the timed closure as the packet simulator builds them once per
    // snapshot. Every source has one destination, so every tree is
    // bounded; the paths are the planner variant's, bit for bit.
    let bounds = GoalBounds::new(&graph, requests.iter().map(|&(_, d)| d), latency_weight);
    bench("qos_256flows_walker_1584_bounded", window(), || {
        planner.invalidate();
        black_box(planner.plan_mapped(
            &graph,
            &requests,
            req.weight(12_000.0),
            Some(&bounds),
            |p| req.admit(p),
            &mut NullRecorder,
        ));
    });
}

fn bench_coverage() {
    let sats = iridium_props();
    let grid = SphereGrid::new(2000);
    bench("grid_coverage_2000pts_66sats", window(), || {
        black_box(grid_coverage_fraction(&grid, &sats, 0.0, 0.0));
    });
    bench("worst_case_coverage_66sats", window(), || {
        black_box(worst_case_coverage_fraction(&sats, 0.0, 0.0));
    });
}

fn bench_mac() {
    let params = MacParams::s_band_isl();
    for n in [4usize, 16] {
        bench(&format!("csma_sim_1s/{n}"), window(), || {
            black_box(simulate_csma_ca(&params, n, 1.0, 42));
        });
    }
}

fn bench_wire() {
    let frame = Frame {
        sender: 42,
        message: Message::Beacon(Beacon {
            satellite: SatelliteId(42),
            operator: OperatorId(7),
            capabilities: Capabilities::rf_and_optical(),
            timestamp_ms: 123,
            semi_major_axis_m: 7.158e6,
            eccentricity: 0.0,
            inclination_rad: 1.5,
            raan_rad: 0.5,
            arg_perigee_rad: 0.0,
            mean_anomaly_rad: 2.2,
        }),
    };
    let bytes = frame.encode();
    bench("beacon_encode", window(), || {
        black_box(frame.encode());
    });
    bench("beacon_decode", window(), || {
        black_box(Frame::decode(black_box(&bytes)).unwrap());
    });
}

fn bench_economics() {
    // A thousand billing items across 4 operators.
    let mut ledgers = std::collections::BTreeMap::new();
    for op in 1u32..=4 {
        let mut l = TrafficLedger::new();
        for k in 0..250u64 {
            l.record_raw(
                BillingKey {
                    flow_id: k,
                    origin: OperatorId(1 + ((op + 1) % 4)),
                    carrier: OperatorId(op),
                    interval_start_ms: k * 60_000,
                },
                1_000_000 + k,
            );
        }
        ledgers.insert(OperatorId(op), l);
    }
    let prices = PriceBook::new(4.0);
    bench("settlement_1000_items", window(), || {
        black_box(SettlementMatrix::from_ledgers(&ledgers, &prices));
    });
    let la = ledgers.get(&OperatorId(1)).unwrap();
    let lb = ledgers.get(&OperatorId(2)).unwrap();
    bench("reconcile_pair", window(), || {
        black_box(reconcile(la, lb, OperatorId(1), OperatorId(2)));
    });
}

fn bench_extensions() {
    // DAMA MAC simulation.
    let dama = DamaParams::s_band_isl();
    bench("dama_sim_1s_8nodes", window(), || {
        black_box(simulate_dama(&dama, 8, 5e5, 1.0, 42));
    });

    // TLE parse.
    let el = OrbitalElements::circular(780_000.0, 86.4, 10.0, 20.0).unwrap();
    let (l1, l2) = elements_to_tle(10_001, "26001A", 2026, 185.5, &el);
    bench("tle_parse", window(), || {
        black_box(parse_tle(black_box(&l1), black_box(&l2)).unwrap());
    });

    // DTN earliest-arrival over a day-long single-sat plan.
    let sat = SatNode {
        propagator: Propagator::new(el, PerturbationModel::TwoBody),
        operator: 0,
        has_optical: false,
    };
    let st = GroundNode {
        position_ecef: geodetic_to_ecef(Geodetic::from_degrees(10.0, 20.0, 0.0)),
        operator: 0,
    };
    let contacts = openspace_net::dtn::sample_contacts(
        &[sat],
        &[st],
        0.0,
        86_400.0,
        60.0,
        &SnapshotParams::default(),
    );
    bench("dtn_earliest_arrival_day_plan", window(), || {
        let (retry, rec) = (RetryPolicy::default(), &mut NullRecorder);
        let arrival = earliest_arrival(&contacts, 2, 0, 1, 0.0, 1e6, &[], retry, rec);
        black_box(arrival).ok();
    });

    // Shapley over an 8-member game.
    let members: Vec<OperatorId> = (1..=8).map(OperatorId).collect();
    bench("shapley_8_members", window(), || {
        black_box(openspace_economics::incentives::shapley_shares(
            &members,
            |mask: u32| (mask.count_ones() as f64).sqrt(),
        ));
    });

    // Packet simulation, one second of a loaded link.
    use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, TrafficKind};
    let mut g = Graph::new(2, 0);
    g.add_bidirectional(0, 1, 0.001, 1e7, 0, 0, LinkTech::Rf);
    let flows = [FlowSpec::new(0, 1, 8e6, 1_500, TrafficKind::Poisson)];
    let cfg = NetSimConfig {
        duration_s: 1.0,
        ..Default::default()
    };
    bench("netsim_1s_loaded_link", window(), || {
        black_box(NetSim::new(cfg).with_snapshot(&g).run(&flows)).ok();
    });

    // The resnapshot-heavy dynamic pair: 30 s over the moving Iridium
    // constellation, topology refreshed every second. The rebuild
    // kernel re-propagates orbits and re-tests every pair at each
    // refresh; the timeline kernel looks each refresh up in the timeline
    // precomputed once outside the loop. Same packets bit for bit —
    // the lookup is the saving the timeline subsystem exists for.
    let sats = iridium_nodes();
    let stations: Vec<GroundNode> = Vec::new();
    let params = SnapshotParams::default();
    let dyn_provider = |t: f64| build_snapshot(t, &sats, &stations, &params, &mut NullRecorder);
    let g0 = dyn_provider(0.0);
    let dyn_flows = [FlowSpec {
        src: 0.into(),
        dst: g0.sat_node(33),
        rate_bps: 2e5,
        packet_bytes: 1_500,
        kind: TrafficKind::Poisson,
    }];
    let dyn_cfg = NetSimConfig {
        duration_s: 30.0,
        ..Default::default()
    };
    bench("netsim_dynamic_rebuild", window(), || {
        black_box(
            NetSim::new(dyn_cfg)
                .with_provider(&dyn_provider, 1.0)
                .run(&dyn_flows),
        )
        .ok();
    });
    let tl =
        TopologyTimeline::build(&dyn_provider, 0.0, 1.0, 30.0, 1).expect("valid timeline horizon");
    bench("netsim_dynamic_timeline", window(), || {
        black_box(NetSim::new(dyn_cfg).with_timeline(&tl).run(&dyn_flows)).ok();
    });
    // Building the timeline itself (amortized once per horizon).
    bench("timeline_build_30ticks_serial", window(), || {
        black_box(TopologyTimeline::build(&dyn_provider, 0.0, 1.0, 30.0, 1)).ok();
    });
}

fn bench_engine() {
    use openspace_sim::prelude::{EventQueue, SimRng};

    // Event-queue churn in isolation: hold `depth` pending events and
    // run a steady-state pop-one/schedule-one loop — the access pattern
    // the packet engine produces (each `HopArrive` schedules the
    // packet's next hop at a short offset). 1,024 is a mid-size queue;
    // 4,675 is the peak depth of the benchmark's `demand_day` packet day.
    for (name, depth) in [("equeue_churn", 1024u64), ("equeue_churn_4675", 4675)] {
        bench(name, window(), || {
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(42);
            for i in 0..depth {
                q.schedule(rng.uniform_range(0.0, 1.0), i);
            }
            for _ in 0..8192u64 {
                let (t, e) = q.pop().expect("queue stays loaded");
                q.schedule(t + rng.uniform_range(1e-5, 2e-3), e);
            }
            while let Some(x) = q.pop() {
                black_box(x);
            }
        });
    }

    // `demand_day`'s mix: about 4,200 pending far events (each flow's
    // next injection, re-armed up to 2 s ahead when popped) and about
    // 500 in flight near (each injection starts a packet that arrives
    // three times, hops ≤ 80 ms apart), so three near pops per far pop.
    // The one-lane kernel runs the same schedule with every event far.
    for (name, two_lanes) in [
        ("equeue_one_lane_4675", false),
        ("equeue_two_lane_4675", true),
    ] {
        bench(name, window(), || {
            // A payload below `FLOWS` is a flow; above, a packet with
            // `e / FLOWS` arrivals left.
            const FLOWS: u64 = 4_200;
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(42);
            for i in 0..FLOWS {
                q.schedule(rng.uniform_range(0.0, 2.0), i);
            }
            for _ in 0..16_384u64 {
                let (t, e) = q.pop().expect("queue stays loaded");
                let next_arrival = if e < FLOWS {
                    q.schedule(t + rng.uniform_range(0.0, 2.0), e);
                    Some(3 * FLOWS)
                } else {
                    (e >= 2 * FLOWS).then_some(e - FLOWS)
                };
                if let Some(pkt) = next_arrival {
                    let at = t + rng.uniform_range(0.0, 0.08);
                    if two_lanes {
                        q.schedule_near(at, pkt);
                    } else {
                        q.schedule(at, pkt);
                    }
                }
            }
            while let Some(x) = q.pop() {
                black_box(x);
            }
        });
    }
}

fn bench_telemetry() {
    use openspace_core::netsim::{FlowSpec, NetSim, NetSimConfig, TrafficKind};
    use openspace_telemetry::{MemoryRecorder, NullRecorder, Recorder};

    // The acceptance-relevant pair: the netsim kernel through the
    // recorded API with the null recorder must sit within noise of the
    // plain `netsim_1s_loaded_link` kernel above; the memory recorder
    // shows what full observability costs.
    let mut g = Graph::new(2, 0);
    g.add_bidirectional(0, 1, 0.001, 1e7, 0, 0, LinkTech::Rf);
    let flows = [FlowSpec::new(0, 1, 8e6, 1_500, TrafficKind::Poisson)];
    let cfg = NetSimConfig {
        duration_s: 1.0,
        ..Default::default()
    };
    bench("netsim_1s_recorded_null", window(), || {
        black_box(
            NetSim::new(cfg)
                .with_snapshot(&g)
                .run_recorded(&flows, &mut NullRecorder),
        )
        .ok();
    });
    bench("netsim_1s_recorded_memory", window(), || {
        let mut rec = MemoryRecorder::new();
        black_box(
            NetSim::new(cfg)
                .with_snapshot(&g)
                .run_recorded(&flows, &mut rec),
        )
        .ok();
        black_box(&rec);
    });

    // Raw recorder primitives.
    let mut mem = MemoryRecorder::new();
    let mut i = 0u64;
    bench("memory_recorder_observe", window(), || {
        mem.observe("kernel.sample", (i % 1000) as f64);
        i += 1;
    });
    black_box(&mem);
    bench("null_recorder_observe", window(), || {
        NullRecorder.observe(black_box("kernel.sample"), black_box(1.5));
    });
}

fn bench_demand() {
    use openspace_demand::prelude::*;

    // The demand hot loop: one full-planet snapshot of per-cell,
    // per-class offered load for a million-user grid. `flows_at` is
    // pure in `t`, so a whole diurnal timeline is N of these.
    let grid = PopulationGrid::build(&PopulationConfig {
        total_users: 1_000_000,
        ..Default::default()
    })
    .expect("valid population config");
    let model = DemandModel::new(grid, AppMix::broadband(), DemandConfig::default())
        .expect("valid demand config");
    let mut hour = 0u64;
    bench("demand_flows_1m_users", window(), || {
        let t = (hour % 24) as f64 * 3_600.0;
        hour += 1;
        black_box(model.flows_at(t, &mut NullRecorder));
    });
}

fn bench_study() {
    // One small figure-2(b) point end to end — the unit of experiment work.
    let cfg = StudyConfig {
        trials: 2,
        epochs_per_trial: 2,
        ..Default::default()
    };
    bench("fig2b_point_n25", window(), || {
        let runner = ScenarioRunner::new(cfg, 1).expect("valid study config");
        black_box(runner.latency_vs_satellites(&[25]));
    });
}

fn main() {
    if !json() {
        println!("{:<40} {:>10}", "kernel", "time");
        println!("{}", "-".repeat(72));
    }
    bench_propagation();
    bench_snapshot();
    bench_contact_scan();
    bench_routing();
    bench_coverage();
    bench_mac();
    bench_wire();
    bench_economics();
    bench_extensions();
    bench_engine();
    bench_telemetry();
    bench_demand();
    bench_study();
}
