//! End-to-end benchmark of the openspace stack.
//!
//! Each workload is one seeded scenario run to completion through the
//! stack's public entry points only — `Federation`,
//! `TopologyTimeline::build`, the `NetSim` builder, `RoutePlanner`,
//! `DemandModel`, `core::demand`, `FaultPlan` and `SettlementMatrix`.
//! Layers are timed from outside, around those calls, so the benchmark
//! touches no library code:
//!
//! * `shell_motion` — a Starlink-shell Walker-Delta fleet split among
//!   four operators: a delta timeline over three minutes, then a light
//!   proactive packet load replayed over it. Propagation, snapshot builds
//!   and delta extraction do the work.
//! * `demand_day` — E21's 1.2M-user population on the four-member
//!   Iridium federation: diurnal demand timeline, cell attach, flow
//!   mapping, a packet day with thousands of concurrent flows on one
//!   snapshot, then ledgers and settlement. The event loop, demand and
//!   economics do the work.
//! * `shell_adaptive` — the same shell as one static snapshot, with
//!   adaptive routing replanning many flows from many sources under
//!   seeded random satellite outages. The route planner does the work.
//!
//! [`setup`] makes a workload's inputs from a seed, [`run`] is the timed
//! section, [`check`] verifies its outputs and [`layer_metrics`] turns a
//! traced run's recorder into the per-layer figures.

use openspace_core::demand::{demand_flows_for, demand_ledgers, CellCoverage};
use openspace_core::federation::{default_station_sites, iridium_federation, Federation};
use openspace_core::netsim::{
    DemandWorkload, FlowSpec, NetSim, NetSimConfig, NetSimReport, RoutingMode, TrafficKind,
};
use openspace_demand::grid::{PopulationConfig, PopulationGrid};
use openspace_demand::mix::AppMix;
use openspace_demand::model::{DemandConfig, DemandModel};
use openspace_economics::ledger::TrafficLedger;
use openspace_economics::settlement::{PriceBook, SettlementMatrix};
use openspace_net::isl::{
    build_snapshot_from_samples_recorded, GroundNode, SatNode, SnapshotParams,
};
use openspace_net::routing::{latency_weight, RoutePlanner};
use openspace_net::timeline::TopologyTimeline;
use openspace_net::topology::{Graph, GraphDelta, NodeId};
use openspace_orbit::ephemeris::EphemerisSample;
use openspace_orbit::frames::eci_to_ecef;
use openspace_orbit::walker::{walker_delta, WalkerParams};
use openspace_phy::hardware::SatelliteClass;
use openspace_protocol::types::OperatorId;
use openspace_sim::fault::FaultPlan;
use openspace_sim::rng::SimRng;
use openspace_telemetry::manifest::fnv1a_64;
use openspace_telemetry::{MemoryRecorder, Recorder, SpanTimer};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// The recorder a run reports into. `Send` so the timeline's topology
/// provider, which must be `Sync`, can share it behind a mutex.
pub type Rec = dyn Recorder + Send;

/// The seed whose full-size output digests are stored in
/// [`stored_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads for the parallel entry points (`TopologyTimeline::build`,
/// `DemandModel::demand_timeline`). One worker keeps the provider spans
/// summing to wall time, so `net.timeline.delta_s` is build time minus
/// callback time, and keeps runs steady on a shared host.
const WORKERS: usize = 1;

const HOUR_S: f64 = 3_600.0;
const DAY_S: f64 = 86_400.0;
const PACKET_BYTES: u32 = 1_200;
const QUEUE_BYTES: u64 = 512 * 1024;
const PRICE_PER_GIB: f64 = 2.0;
/// RNG stream of the shell workloads' flow endpoints.
const FLOW_STREAM: u64 = 0xF10A;
/// E21's population seed. `demand_day` keeps E21's population, so a
/// run's work does not swing with the geography a seed would draw; its
/// seed drives the packet day's arrival processes instead.
const E21_POPULATION_SEED: u64 = 13;

/// Logical CPUs of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker count handed to every parallel entry point: never more
/// than [`nproc`].
pub fn workers() -> usize {
    WORKERS.min(nproc())
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Timeline-heavy: orbit, snapshot and delta work on a moving shell.
    ShellMotion,
    /// Event-loop, demand and economics work on the Iridium federation.
    DemandDay,
    /// Planner-heavy: adaptive replans under faults on a static shell.
    ShellAdaptive,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ShellMotion,
        Workload::DemandDay,
        Workload::ShellAdaptive,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShellMotion => "shell_motion",
            Workload::DemandDay => "demand_day",
            Workload::ShellAdaptive => "shell_adaptive",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is what the benchmark measures; `Tiny` runs the
/// same code in milliseconds, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A test-sized variant of the same scenario.
    Tiny,
}

/// The stored digest of a workload's deterministic outputs at
/// [`DEFAULT_SEED`] and full size. A change that moves any simulated
/// statistic changes it.
pub fn stored_digest(workload: Workload) -> u64 {
    match workload {
        Workload::ShellMotion => 0x8fc6_6987_e10f_3045,
        Workload::DemandDay => 0x5b2b_3cce_1358_8078,
        Workload::ShellAdaptive => 0xaf86_4fad_d132_a684,
    }
}

#[derive(Debug, Clone, Copy)]
struct ShellSpec {
    planes: usize,
    per_plane: usize,
    flows: usize,
    flow_bps: f64,
    /// Simulated seconds of the packet run (and the timeline horizon).
    duration_s: f64,
    routing: RoutingMode,
    /// Resnapshot step of the delta timeline; `None` runs on one static
    /// snapshot.
    step_s: Option<f64>,
    /// Random outages per satellite-hour; `None` runs fault-free.
    outages_per_sat_hour: Option<f64>,
}

impl ShellSpec {
    fn of(workload: Workload, size: Size) -> ShellSpec {
        let (planes, per_plane) = match size {
            Size::Full => (72, 22),
            Size::Tiny => (12, 10),
        };
        let motion = ShellSpec {
            planes,
            per_plane,
            flows: 8,
            flow_bps: 20e3,
            duration_s: 180.0,
            routing: RoutingMode::Proactive,
            step_s: Some(3.0),
            outages_per_sat_hour: None,
        };
        let adaptive = ShellSpec {
            flows: 256,
            duration_s: 20.0,
            routing: RoutingMode::Adaptive {
                replan_interval_s: 0.25,
            },
            step_s: None,
            outages_per_sat_hour: Some(10.0),
            ..motion
        };
        match (workload, size) {
            (Workload::ShellAdaptive, Size::Full) => adaptive,
            (Workload::ShellAdaptive, Size::Tiny) => ShellSpec {
                flows: 16,
                duration_s: 4.0,
                routing: RoutingMode::Adaptive {
                    replan_interval_s: 0.5,
                },
                outages_per_sat_hour: Some(600.0),
                ..adaptive
            },
            (_, Size::Full) => motion,
            (_, Size::Tiny) => ShellSpec {
                flows: 4,
                duration_s: 20.0,
                step_s: Some(2.0),
                ..motion
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DemandSpec {
    lat_cells: usize,
    lon_cells: usize,
    users: u64,
    cities: usize,
    transport_scale: f64,
    max_flows_per_tick: usize,
    /// Simulated packet-day seconds per demand hour.
    hour_s: f64,
}

impl DemandSpec {
    fn of(size: Size) -> DemandSpec {
        match size {
            Size::Full => DemandSpec {
                lat_cells: 36,
                lon_cells: 72,
                users: 1_200_000,
                cities: 160,
                transport_scale: 0.1,
                max_flows_per_tick: 3_000,
                hour_s: 5.0,
            },
            Size::Tiny => DemandSpec {
                lat_cells: 12,
                lon_cells: 24,
                users: 60_000,
                cities: 20,
                transport_scale: 0.1,
                max_flows_per_tick: 64,
                hour_s: 0.5,
            },
        }
    }
}

enum Body {
    Shell {
        spec: ShellSpec,
        flows: Vec<FlowSpec>,
        faults: Option<FaultPlan>,
    },
    Demand {
        spec: DemandSpec,
        grid: PopulationGrid,
        day: Box<DemandModel>,
        sim: Box<DemandModel>,
    },
}

/// A workload's inputs, generated from its seed before the timed section.
pub struct Inputs {
    workload: Workload,
    size: Size,
    seed: u64,
    fed: Federation,
    body: Body,
}

/// Generate `workload`'s inputs from `seed`: fleet elements and
/// `Federation`, plus the population grid, flow list and fault plan the
/// workload needs. The population build is timed as `demand.population`.
pub fn setup(workload: Workload, size: Size, seed: u64, rec: &mut Rec) -> Result<Inputs, String> {
    let (fed, body) = match workload {
        Workload::DemandDay => setup_demand(DemandSpec::of(size), rec)?,
        _ => setup_shell(ShellSpec::of(workload, size), seed)?,
    };
    Ok(Inputs {
        workload,
        size,
        seed,
        fed,
        body,
    })
}

fn setup_shell(spec: ShellSpec, seed: u64) -> Result<(Federation, Body), String> {
    let elements = walker_delta(&WalkerParams {
        total_satellites: spec.planes * spec.per_plane,
        planes: spec.planes,
        phasing: 1,
        altitude_m: 550e3,
        inclination_deg: 53.0,
    })
    .map_err(|e| e.to_string())?;
    let mut fed = Federation::new();
    let ops: Vec<OperatorId> = (1..=4)
        .map(|i| fed.add_operator(format!("operator-{i}")))
        .collect();
    for (i, el) in elements.into_iter().enumerate() {
        fed.add_satellite(ops[i % ops.len()], SatelliteClass::SmallSat, el)
            .map_err(|e| e.to_string())?;
    }
    for (i, site) in default_station_sites().into_iter().enumerate() {
        fed.add_ground_station(ops[i % ops.len()], site)
            .map_err(|e| e.to_string())?;
    }

    // User traffic to the gateways: sources spread evenly around the
    // shell from a seeded offset, gateways round-robin from another. The
    // seed moves every endpoint while the routing work per run stays
    // nearly the same.
    let (n_sats, n_stations) = (fed.satellites().len(), fed.stations().len());
    let mut rng = SimRng::substream(seed, FLOW_STREAM);
    let (sat0, gateway0) = (rng.index(n_sats), rng.index(n_stations));
    let flows = (0..spec.flows)
        .map(|k| {
            FlowSpec::new(
                (sat0 + k * n_sats / spec.flows) % n_sats,
                n_sats + (gateway0 + k) % n_stations,
                spec.flow_bps,
                PACKET_BYTES,
                TrafficKind::Poisson,
            )
        })
        .collect();
    // Outages start in the first half of the run and last a thirtieth of
    // it on average, so every one recovers before the run ends: the
    // simulator sums still-open outages in hash order, which is not
    // bit-reproducible.
    let faults = spec
        .outages_per_sat_hour
        .map(|rate| {
            FaultPlan::builder()
                .seed(seed)
                .random_sat_outages(rate, spec.duration_s / 30.0, 0.0, spec.duration_s / 2.0)
                .build()
        })
        .transpose()
        .map_err(|e| e.to_string())?;
    Ok((
        fed,
        Body::Shell {
            spec,
            flows,
            faults,
        },
    ))
}

fn setup_demand(spec: DemandSpec, rec: &mut Rec) -> Result<(Federation, Body), String> {
    let timer = SpanTimer::start(0.0);
    let grid = PopulationGrid::build(&PopulationConfig {
        lat_cells: spec.lat_cells,
        lon_cells: spec.lon_cells,
        total_users: spec.users,
        cities: spec.cities,
        seed: E21_POPULATION_SEED,
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    timer.finish(rec, "demand.population", 0.0);
    let fed = iridium_federation(4, &[SatelliteClass::SmallSat], &default_station_sites());
    let day = DemandModel::new(grid.clone(), AppMix::broadband(), DemandConfig::default())
        .map_err(|e| e.to_string())?;
    let sim = DemandModel::new(
        grid.clone(),
        AppMix::broadband(),
        DemandConfig {
            transport_scale: spec.transport_scale,
            min_flow_bps: 1e3,
            max_flows_per_tick: spec.max_flows_per_tick,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    Ok((
        fed,
        Body::Demand {
            spec,
            grid,
            day: Box::new(day),
            sim: Box::new(sim),
        },
    ))
}

impl Inputs {
    /// Digest of the generated inputs: the arrival-process seed, plus
    /// flow endpoints and fault seed for the shell workloads and the
    /// population grid for `demand_day`.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.u(self.seed).u(self.fed.satellites().len() as u64);
        match &self.body {
            Body::Shell { flows, faults, .. } => {
                for f in flows {
                    d.u(f.src.0 as u64).u(f.dst.0 as u64).f(f.rate_bps);
                }
                d.u(faults.as_ref().map_or(0, FaultPlan::seed));
            }
            Body::Demand { grid, .. } => {
                for (cell, users) in grid.populated_cells() {
                    d.u(cell as u64).u(users);
                }
            }
        }
        d.finish()
    }
}

/// Attempted and failed top-level calls into the stack. A call fails on
/// `Err`, on a panic, or when a check of its output fails.
#[derive(Debug, Default)]
pub struct Ops {
    /// Calls made.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Ops {
    /// Count one failure.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// The timed section's view of a recorder and the operation count.
struct Ctx<'a> {
    rec: &'a mut Rec,
    ops: &'a mut Ops,
}

impl Ctx<'_> {
    /// One infallible top-level call, timed as span `key`.
    fn call<T>(&mut self, key: &str, f: impl FnOnce(&mut Rec) -> T) -> Option<T> {
        self.try_call(key, |rec| Ok::<T, std::convert::Infallible>(f(rec)))
    }

    /// One top-level call, timed as span `key`; `Err` or a panic counts
    /// as a failed operation.
    fn try_call<T, E: Display>(
        &mut self,
        key: &str,
        f: impl FnOnce(&mut Rec) -> Result<T, E>,
    ) -> Option<T> {
        self.ops.attempted += 1;
        let timer = SpanTimer::start(0.0);
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut *self.rec)));
        timer.finish(&mut *self.rec, key, 0.0);
        match out {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                self.ops.fail(format!("{key}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.ops.fail(format!("{key}: panicked: {msg}"));
                None
            }
        }
    }
}

/// The fleet as the snapshot builder sees it.
struct Fleet {
    sats: Vec<SatNode>,
    stations: Vec<GroundNode>,
    params: SnapshotParams,
}

impl Fleet {
    fn of(fed: &Federation) -> Fleet {
        Fleet {
            sats: fed.sat_nodes(),
            stations: fed.ground_nodes(),
            params: fed.snapshot_params,
        }
    }

    /// `Federation::snapshot` split at its public boundary: propagation
    /// (`orbit.propagate`) and the gated ISL build (`net.isl.snapshot`)
    /// are timed apart.
    fn snapshot(&self, t_s: f64, rec: &mut dyn Recorder) -> Graph {
        let timer = SpanTimer::start(0.0);
        let samples: Vec<EphemerisSample> = self
            .sats
            .iter()
            .map(|s| {
                let eci = s.propagator.position_eci(t_s);
                EphemerisSample {
                    eci,
                    ecef: eci_to_ecef(eci, t_s),
                }
            })
            .collect();
        timer.finish(rec, "orbit.propagate", 0.0);
        rec.add("orbit.propagations", samples.len() as u64);
        let timer = SpanTimer::start(0.0);
        let graph = build_snapshot_from_samples_recorded(
            &self.sats,
            &samples,
            &self.stations,
            &self.params,
            rec,
        );
        timer.finish(rec, "net.isl.snapshot", 0.0);
        rec.add("net.isl.snapshots", 1);
        graph
    }
}

enum Topology {
    Timeline(TopologyTimeline),
    Static(Graph),
}

struct DemandOut {
    workload: DemandWorkload,
    flows_mapped: u64,
    flows_unserved: u64,
    ledgers: BTreeMap<OperatorId, TrafficLedger>,
    intra_bytes: u64,
    matrix: SettlementMatrix,
}

/// What one timed run produced.
pub struct Run {
    /// The packet simulator's report.
    pub report: NetSimReport,
    /// Simulated seconds the packet run covered.
    pub sim_s: f64,
    topology: Topology,
    demand: Option<DemandOut>,
}

/// The timed section: every call into the stack after set-up.
/// Returns `None` when a call failed (already counted in `ops`).
pub fn run(inputs: &Inputs, rec: &mut Rec, ops: &mut Ops) -> Option<Run> {
    let mut cx = Ctx { rec, ops };
    let fed = &inputs.fed;
    match &inputs.body {
        Body::Shell {
            spec,
            flows,
            faults,
        } => run_shell(&mut cx, fed, spec, flows, faults.as_ref(), inputs.seed),
        Body::Demand {
            spec,
            grid,
            day,
            sim,
        } => run_demand(&mut cx, fed, spec, grid, day, sim, inputs.seed),
    }
}

fn run_shell(
    cx: &mut Ctx,
    fed: &Federation,
    spec: &ShellSpec,
    flows: &[FlowSpec],
    faults: Option<&FaultPlan>,
    seed: u64,
) -> Option<Run> {
    let fleet = Fleet::of(fed);
    let cfg = NetSimConfig {
        duration_s: spec.duration_s,
        queue_capacity_bytes: QUEUE_BYTES,
        routing: spec.routing,
        seed,
        ..Default::default()
    };
    let (topology, report) = match spec.step_s {
        Some(step_s) => {
            let timeline = cx.try_call("net.timeline.build", |rec| {
                build_timeline(&fleet, step_s, spec.duration_s, rec)
            })?;
            let report = cx.try_call("core.netsim.run", |rec| {
                NetSim::new(cfg)
                    .with_timeline(&timeline)
                    .run_recorded(flows, rec)
            })?;
            (Topology::Timeline(timeline), report)
        }
        None => {
            let graph = cx.call("net.snapshot", |rec| fleet.snapshot(0.0, rec))?;
            let events = match faults {
                Some(plan) => {
                    cx.try_call("sim.fault.compile", |_| plan.compile(&fed.fault_topology()))?
                }
                None => Vec::new(),
            };
            let report = cx.try_call("core.netsim.run", |rec| {
                NetSim::new(cfg)
                    .with_snapshot(&graph)
                    .with_faults(&events)
                    .run_recorded(flows, rec)
            })?;
            (Topology::Static(graph), report)
        }
    };
    Some(Run {
        report,
        sim_s: spec.duration_s,
        topology,
        demand: None,
    })
}

/// `TopologyTimeline::build` over a benchmark-owned provider that times
/// each snapshot's propagation and ISL build; what the build spends
/// outside those callbacks (delta extraction) is `net.timeline.delta`.
fn build_timeline(
    fleet: &Fleet,
    step_s: f64,
    horizon_s: f64,
    rec: &mut Rec,
) -> Result<TopologyTimeline, String> {
    let started = Instant::now();
    let shared = Mutex::new((rec, 0.0f64));
    let built = {
        let provider = |t_s: f64| {
            let t0 = Instant::now();
            let mut guard = shared.lock().expect("a provider callback panicked");
            let graph = fleet.snapshot(t_s, &mut *guard.0);
            guard.1 += t0.elapsed().as_secs_f64();
            graph
        };
        TopologyTimeline::build(&provider, 0.0, step_s, horizon_s, workers())
    };
    let (rec, callbacks_s) = shared.into_inner().expect("a provider callback panicked");
    rec.span(
        "net.timeline.delta",
        started.elapsed().as_secs_f64() - callbacks_s,
        0.0,
    );
    let timeline = built.map_err(|e| e.to_string())?;
    rec.add("net.timeline.deltas", timeline.delta_count() as u64);
    rec.add(
        "net.timeline.changed_rows",
        timeline.total_changed_rows() as u64,
    );
    Ok(timeline)
}

fn run_demand(
    cx: &mut Ctx,
    fed: &Federation,
    spec: &DemandSpec,
    grid: &PopulationGrid,
    day: &DemandModel,
    sim: &DemandModel,
    seed: u64,
) -> Option<Run> {
    let threads = workers();
    // The unscaled day bills the ledgers; the scaled, capped model
    // drives the packet day, hour h at simulated second h·hour_s.
    let day_ticks = cx.try_call("demand.timeline", |rec| {
        day.demand_timeline_recorded(HOUR_S, DAY_S, threads, rec)
    })?;
    let sim_ticks = cx.try_call("demand.timeline", |rec| {
        sim.demand_timeline_recorded(HOUR_S, DAY_S - HOUR_S, threads, rec)
    })?;
    let coverage: CellCoverage =
        cx.call("core.demand.attach", |_| fed.attach_demand_cells(grid, 0.0))?;
    let fleet = Fleet::of(fed);
    let graph = cx.call("net.snapshot", |rec| fleet.snapshot(0.0, rec))?;
    let (workload, flows_mapped, flows_unserved) = cx.try_call("core.demand.map", |rec| {
        let mut batches = Vec::with_capacity(sim_ticks.len());
        let (mut mapped, mut unserved) = (0u64, 0u64);
        for (h, tick) in sim_ticks.iter().enumerate() {
            let (flows, stats) = demand_flows_for(&coverage, tick, &graph);
            mapped += stats.flows_mapped;
            unserved += stats.flows_unserved;
            batches.push((h as f64 * spec.hour_s, flows));
        }
        rec.add("core.demand.flows_mapped", mapped);
        rec.add("core.demand.flows_unserved", unserved);
        DemandWorkload::new(batches).map(|w| (w, mapped, unserved))
    })?;
    let sim_s = sim_ticks.len() as f64 * spec.hour_s;
    let cfg = NetSimConfig {
        duration_s: sim_s,
        queue_capacity_bytes: QUEUE_BYTES,
        routing: RoutingMode::Proactive,
        seed,
        ..Default::default()
    };
    let report = cx.try_call("core.netsim.run", |rec| {
        NetSim::new(cfg)
            .with_snapshot(&graph)
            .with_demand(&workload)
            .run_recorded(&[], rec)
    })?;
    let billed = &day_ticks[..day_ticks.len().min(24)];
    let (ledgers, intra_bytes) = cx.call("economics.ledgers", |rec| {
        let out = demand_ledgers(&coverage, billed, HOUR_S);
        for ledger in out.0.values() {
            ledger.metrics_into(rec);
        }
        out
    })?;
    let matrix = cx.call("economics.settle", |rec| {
        SettlementMatrix::from_ledgers_recorded(&ledgers, &PriceBook::new(PRICE_PER_GIB), rec)
    })?;
    Some(Run {
        report,
        sim_s,
        topology: Topology::Static(graph),
        demand: Some(DemandOut {
            workload,
            flows_mapped,
            flows_unserved,
            ledgers,
            intra_bytes,
            matrix,
        }),
    })
}

impl Run {
    /// The topology the packet run started from.
    fn base(&self) -> &Graph {
        match &self.topology {
            Topology::Timeline(tl) => tl.base(),
            Topology::Static(g) => g,
        }
    }

    /// Digest of the run's deterministic outputs: report scalars by bit
    /// pattern, timeline row counts, demand mapping and net positions.
    pub fn digest(&self) -> u64 {
        let r = &self.report;
        let mut d = Digest::default();
        d.u(r.generated)
            .u(r.delivered)
            .u(r.dropped)
            .u(r.unroutable)
            .f(r.delivery_ratio)
            .f(r.mean_latency_s)
            .f(r.p95_latency_s)
            .f(r.max_link_utilization)
            .u(r.fault.events_applied)
            .u(r.fault.packets_lost)
            .f(r.fault.node_availability)
            .f(r.fault.mttr_s.unwrap_or(-1.0))
            .u(r.fault.reassociations)
            .f(r.fault.mean_reassociation_latency_s.unwrap_or(-1.0))
            .f(self.sim_s);
        d.u(self.base().edge_count() as u64);
        if let Topology::Timeline(tl) = &self.topology {
            d.u(tl.tick_count() as u64)
                .u(tl.delta_count() as u64)
                .u(tl.total_changed_rows() as u64);
        }
        if let Some(out) = &self.demand {
            d.u(out.workload.flow_count() as u64)
                .u(out.flows_mapped)
                .u(out.flows_unserved)
                .u(out.intra_bytes);
            for op in out.matrix.operators() {
                d.u(op.0 as u64).f(out.matrix.net_position(op));
            }
        }
        d.finish()
    }

    /// The `(src, dst)` of every flow the packet run routed.
    fn requests(&self, inputs: &Inputs) -> Vec<(NodeId, NodeId)> {
        let flows: Vec<&FlowSpec> = match (&self.demand, &inputs.body) {
            (Some(out), _) => out.workload.ticks().iter().flat_map(|(_, f)| f).collect(),
            (None, Body::Shell { flows, .. }) => flows.iter().collect(),
            (None, Body::Demand { .. }) => Vec::new(),
        };
        flows.iter().map(|f| (f.src, f.dst)).collect()
    }
}

/// Check a run's outputs; returns one line per failed check. The base
/// topology must equal `Federation::snapshot(0)` edge for edge; a
/// settlement must be zero-sum with origin and carrier views agreeing;
/// at [`DEFAULT_SEED`] and full size the digest must match the stored
/// one.
pub fn check(inputs: &Inputs, run: &Run) -> Vec<String> {
    let mut failures = Vec::new();
    let fresh = inputs.fed.snapshot(0.0);
    if !GraphDelta::between(run.base(), &fresh).is_ok_and(|d| d.is_empty()) {
        failures.push("base topology differs from Federation::snapshot(0)".to_string());
    }
    if let Some(out) = &run.demand {
        let ids = inputs.fed.operator_ids();
        let (mut net_sum, mut net_abs) = (0.0f64, 0.0f64);
        for &a in &ids {
            let net = out.matrix.net_position(a);
            net_sum += net;
            net_abs += net.abs();
            for &b in ids.iter().filter(|&&b| b != a) {
                let origin = out.ledgers.get(&a).map_or(0, |l| l.bytes_carried(a, b));
                let carrier = out.ledgers.get(&b).map_or(0, |l| l.bytes_carried(a, b));
                if origin != carrier {
                    failures.push(format!(
                        "ledgers disagree on {a}->{b}: origin {origin} B, carrier {carrier} B"
                    ));
                }
            }
        }
        if net_sum.abs() > 1e-9 * net_abs {
            failures.push(format!("settlement is not zero-sum: {net_sum}"));
        }
    }
    if inputs.seed == DEFAULT_SEED && inputs.size == Size::Full {
        let (got, want) = (run.digest(), stored_digest(inputs.workload));
        if got != want {
            failures.push(format!(
                "output digest {got:016x} differs from the stored {want:016x}"
            ));
        }
    }
    failures
}

/// Time `RoutePlanner::plan` on the run's own graph and `(src, dst)`
/// set, once per plan the packet run made (`plans`), as span
/// `net.routing.plan_probe`. Each plan starts from an invalidated cache,
/// as an adaptive replan does.
pub fn plan_probe(inputs: &Inputs, run: &Run, plans: u64, rec: &mut dyn Recorder) {
    let requests = run.requests(inputs);
    let mut planner = RoutePlanner::new();
    let timer = SpanTimer::start(0.0);
    for _ in 0..plans {
        planner.invalidate();
        std::hint::black_box(planner.plan(run.base(), &requests, latency_weight));
    }
    timer.finish(rec, "net.routing.plan_probe", 0.0);
}

/// Every per-layer metric as `(name, unit)`, in report order.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("orbit.propagate_s", "s"),
    ("orbit.propagations", "count"),
    ("net.isl.snapshot_s", "s"),
    ("net.isl.snapshots", "count"),
    ("net.isl.pairs_tested", "count"),
    ("net.isl.pairs_pruned", "count"),
    ("net.isl.ground_tested", "count"),
    ("net.timeline.build_s", "s"),
    ("net.timeline.delta_s", "s"),
    ("net.timeline.deltas", "count"),
    ("net.timeline.changed_rows", "count"),
    ("netsim.timeline.deltas_applied", "count"),
    ("netsim.resnapshot.links_churned", "count"),
    ("net.routing.plan_probe_s", "s"),
    ("routing.recomputes", "count"),
    ("routing.planner.trees", "count"),
    ("routing.planner.trees_reused", "count"),
    ("routing.planner.path_extractions", "count"),
    ("routing.nodes_visited", "count"),
    ("netsim.replans", "count"),
    ("net.routing.tree_reuse_ratio", "ratio"),
    ("core.netsim.run_s", "s"),
    ("engine.events_processed", "count"),
    ("core.netsim.ns_per_event", "ns"),
    ("engine.queue_depth_high_water", "count"),
    ("netsim.engine.slab_high_water", "count"),
    ("netsim.generated", "count"),
    ("netsim.delivered", "count"),
    ("netsim.dropped", "count"),
    ("netsim.unroutable", "count"),
    ("core.netsim.delivery_ratio", "ratio"),
    ("sim.fault.compile_s", "s"),
    ("netsim.fault.events_applied", "count"),
    ("netsim.fault.packets_lost", "count"),
    ("netsim.fault.reassociations", "count"),
    ("demand.population_s", "s"),
    ("demand.timeline_s", "s"),
    ("demand.flows_emitted", "count"),
    ("demand.flows_folded", "count"),
    ("core.demand.attach_s", "s"),
    ("core.demand.map_s", "s"),
    ("core.demand.flows_mapped", "count"),
    ("core.demand.flows_unserved", "count"),
    ("economics.ledgers_s", "s"),
    ("economics.settle_s", "s"),
    ("ledger.records", "count"),
    ("settlement.records_settled", "count"),
    ("trace.run_s", "s"),
    ("trace.run_wall_s", "s"),
    ("host.reference_s", "s"),
    ("telemetry.overhead_frac", "fraction"),
    ("trace.heavy_share", "fraction"),
];

/// The per-layer metrics one traced run's recorder yields, keyed by
/// name. `trace.run_s`, `trace.run_wall_s`, `host.reference_s`,
/// `telemetry.overhead_frac` and `trace.heavy_share` compare runs, so
/// the caller adds them.
pub fn layer_metrics(rec: &MemoryRecorder, report: &NetSimReport) -> BTreeMap<&'static str, f64> {
    let span = |key: &str| rec.span_agg(key).map_or(0.0, |s| s.wall_s);
    let count = |key: &str| rec.counter(key) as f64;
    let max = |key: &str| rec.maximum(key).unwrap_or(0.0);
    let trees = count("routing.planner.trees");
    let reused = count("routing.planner.trees_reused");
    let events = count("engine.events_processed");
    let netsim_s = span("core.netsim.run");
    let mut m = BTreeMap::new();
    m.insert("orbit.propagate_s", span("orbit.propagate"));
    m.insert("orbit.propagations", count("orbit.propagations"));
    m.insert("net.isl.snapshot_s", span("net.isl.snapshot"));
    m.insert("net.isl.snapshots", count("net.isl.snapshots"));
    m.insert("net.isl.pairs_tested", count("snapshot.pairs_tested"));
    m.insert("net.isl.pairs_pruned", count("snapshot.pairs_pruned"));
    m.insert("net.isl.ground_tested", count("snapshot.ground_tested"));
    m.insert("net.timeline.build_s", span("net.timeline.build"));
    m.insert("net.timeline.delta_s", span("net.timeline.delta"));
    m.insert("net.timeline.deltas", count("net.timeline.deltas"));
    m.insert(
        "net.timeline.changed_rows",
        count("net.timeline.changed_rows"),
    );
    for key in [
        "netsim.timeline.deltas_applied",
        "netsim.resnapshot.links_churned",
        "routing.recomputes",
        "routing.planner.trees",
        "routing.planner.trees_reused",
        "routing.planner.path_extractions",
        "routing.nodes_visited",
        "netsim.replans",
        "engine.events_processed",
        "netsim.generated",
        "netsim.delivered",
        "netsim.dropped",
        "netsim.unroutable",
        "netsim.fault.events_applied",
        "netsim.fault.packets_lost",
        "netsim.fault.reassociations",
        "demand.flows_emitted",
        "demand.flows_folded",
        "core.demand.flows_mapped",
        "core.demand.flows_unserved",
        "ledger.records",
        "settlement.records_settled",
    ] {
        m.insert(key, count(key));
    }
    m.insert("net.routing.plan_probe_s", span("net.routing.plan_probe"));
    m.insert(
        "net.routing.tree_reuse_ratio",
        if trees + reused > 0.0 {
            reused / (trees + reused)
        } else {
            0.0
        },
    );
    m.insert("core.netsim.run_s", netsim_s);
    m.insert(
        "core.netsim.ns_per_event",
        if events > 0.0 {
            netsim_s * 1e9 / events
        } else {
            0.0
        },
    );
    m.insert(
        "engine.queue_depth_high_water",
        max("engine.queue_depth_high_water"),
    );
    m.insert(
        "netsim.engine.slab_high_water",
        max("netsim.engine.slab_high_water"),
    );
    m.insert("core.netsim.delivery_ratio", report.delivery_ratio);
    m.insert("sim.fault.compile_s", span("sim.fault.compile"));
    m.insert("demand.population_s", span("demand.population"));
    m.insert("demand.timeline_s", span("demand.timeline"));
    m.insert("core.demand.attach_s", span("core.demand.attach"));
    m.insert("core.demand.map_s", span("core.demand.map"));
    m.insert("economics.ledgers_s", span("economics.ledgers"));
    m.insert("economics.settle_s", span("economics.settle"));
    m
}

/// The layer-time metrics a workload is built to stress; their sum over
/// `trace.run_s` is `trace.heavy_share`.
pub fn heavy_layers(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::ShellMotion => &[
            "orbit.propagate_s",
            "net.isl.snapshot_s",
            "net.timeline.delta_s",
        ],
        Workload::DemandDay => &[
            "core.netsim.run_s",
            "demand.timeline_s",
            "core.demand.attach_s",
            "core.demand.map_s",
            "economics.ledgers_s",
            "economics.settle_s",
        ],
        Workload::ShellAdaptive => &["net.routing.plan_probe_s", "sim.fault.compile_s"],
    }
}

/// FNV-1a over little-endian words.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }

    fn finish(&self) -> u64 {
        fnv1a_64(&self.0)
    }
}
