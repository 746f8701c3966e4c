//! Aggregating a user population into deterministic flow workloads.
//!
//! A [`DemandModel`] combines a [`PopulationGrid`], an [`AppMix`] and a
//! [`DemandConfig`] into per-cell, per-class offered load at any
//! instant. [`DemandModel::flows_at`] is a *pure function of the query
//! time* — cell jitter comes from an RNG substream keyed on
//! `(seed, cell, t)` rather than from any mutable generator state — so
//! [`DemandModel::demand_timeline`] can fan ticks out over
//! `parallel_map_seeded` and the result is bitwise-identical for any
//! worker count, the same contract `net::timeline` gives topology
//! snapshots.
//!
//! # Determinism argument
//!
//! Three properties compose into the bitwise guarantee:
//! 1. grid synthesis is a pure function of `PopulationConfig`;
//! 2. per-cell activity at time `t` draws from
//!    `SimRng::substream(jitter_seed, mix(cell, t))` — no draw order
//!    dependence between cells or ticks;
//! 3. aggregation iterates cells ascending and classes in mix order,
//!    so floating-point summation order is fixed.
//!
//! Everything downstream (folding, capping, telemetry totals) is
//! ordinary deterministic arithmetic over that fixed order.

use crate::diurnal::local_solar_hour;
use crate::grid::PopulationGrid;
use crate::mix::{AppClass, AppMix};
use openspace_sim::config::{require_non_negative, require_positive, ConfigError};
use openspace_sim::exec::parallel_map_seeded;
use openspace_sim::rng::SimRng;
use openspace_sim::traffic::TrafficKind;
use openspace_telemetry::recorder::{NullRecorder, Recorder};

/// Salt separating the per-cell jitter stream family from other users
/// of the master seed.
const JITTER_SALT: u64 = 0x000D_EA4D_0001;

/// Knobs controlling how offered load becomes emitted flows.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandConfig {
    /// Relative per-cell activity jitter amplitude in `[0, 1)`: the
    /// activity of a cell at time `t` is scaled by a factor drawn
    /// uniformly from `[1 - jitter, 1 + jitter)`.
    pub jitter: f64,
    /// Scale factor applied to emitted flow rates (`rate_bps`) so a
    /// million-user offered load can be transported through a
    /// packet-level simulation as a sampled workload. Offered-load
    /// accounting (`offered_bps`) is always unscaled.
    pub transport_scale: f64,
    /// Emitted flows whose **scaled** rate falls below this threshold
    /// are folded into the tick's `folded_bps` instead of being
    /// emitted (their offered load still counts).
    pub min_flow_bps: f64,
    /// Hard cap on flows emitted per tick; the largest-offered flows
    /// are kept (total order: offered desc, then cell, then class) and
    /// the remainder folded. `usize::MAX` disables the cap.
    pub max_flows_per_tick: usize,
}

impl Default for DemandConfig {
    fn default() -> Self {
        Self {
            jitter: 0.1,
            transport_scale: 1.0,
            min_flow_bps: 0.0,
            max_flows_per_tick: usize::MAX,
        }
    }
}

impl DemandConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if !self.jitter.is_finite() || !(0.0..1.0).contains(&self.jitter) {
            return Err(ConfigError::OutOfRange {
                field: "jitter",
                value: self.jitter,
                min: 0.0,
                max: 1.0,
            });
        }
        require_positive("transport_scale", self.transport_scale)?;
        require_non_negative("min_flow_bps", self.min_flow_bps)?;
        Ok(())
    }
}

/// One emitted per-cell, per-class flow description.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandFlow {
    /// Source cell index in the population grid.
    pub cell: usize,
    /// Application class the flow aggregates.
    pub class: AppClass,
    /// Unscaled mean offered bits/s this flow represents.
    pub offered_bps: f64,
    /// Simulation rate in bits/s: offered load times
    /// `transport_scale`, times the class's peak factor for bursty
    /// (on-off) processes.
    pub rate_bps: f64,
    /// Packet size for the emitted flow.
    pub packet_bytes: u32,
    /// Arrival process for the emitted flow.
    pub process: TrafficKind,
}

/// The demand snapshot at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTick {
    /// Query time in seconds (UTC; `0` is midnight).
    pub t_s: f64,
    /// Emitted flows, cells ascending then classes in mix order
    /// (possibly reordered by the per-tick cap, still deterministic).
    pub flows: Vec<DemandFlow>,
    /// Total unscaled offered bits/s across all cells and classes.
    pub offered_bps: f64,
    /// Expected number of active users (fractional: sum of per-class
    /// user-activity products).
    pub active_users: f64,
    /// Number of cells with nonzero offered load.
    pub active_cells: u64,
    /// Flows folded away by `min_flow_bps` or the per-tick cap.
    pub flows_folded: u64,
    /// Unscaled offered bits/s carried by folded flows.
    pub folded_bps: f64,
}

/// Aggregates a population grid and app mix into flow workloads.
#[derive(Debug, Clone)]
pub struct DemandModel {
    grid: PopulationGrid,
    mix: AppMix,
    cfg: DemandConfig,
    seed: u64,
}

impl DemandModel {
    /// Build a model; the grid's seed becomes the demand seed.
    pub fn new(grid: PopulationGrid, mix: AppMix, cfg: DemandConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let seed = grid.seed();
        Ok(Self {
            grid,
            mix,
            cfg,
            seed,
        })
    }

    /// The underlying population grid.
    pub fn grid(&self) -> &PopulationGrid {
        &self.grid
    }

    /// The application mix.
    pub fn mix(&self) -> &AppMix {
        &self.mix
    }

    /// The emission configuration.
    pub fn config(&self) -> &DemandConfig {
        &self.cfg
    }

    /// The cell-jitter factor at `(cell, t)`: a pure function of the
    /// model seed, the cell index and the bit pattern of `t_s`.
    fn jitter_factor(&self, cell: usize, t_s: f64) -> f64 {
        if self.cfg.jitter == 0.0 {
            return 1.0;
        }
        let stream = (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t_s.to_bits();
        let mut rng = SimRng::substream(self.seed ^ JITTER_SALT, stream);
        1.0 + self.cfg.jitter * (2.0 * rng.uniform() - 1.0)
    }

    /// Per-class unscaled offered load for one cell at `t_s`, in mix
    /// order, as `(class, active_users, offered_bps)` triples.
    pub fn cell_class_offered(&self, cell: usize, t_s: f64) -> Vec<(AppClass, f64, f64)> {
        let users = self.grid.users(cell) as f64;
        let (_, lon) = self.grid.cell_center_deg(cell);
        let local = local_solar_hour(t_s, lon);
        let factor = self.jitter_factor(cell, t_s);
        self.mix
            .classes()
            .iter()
            .map(|c| {
                let active = users * c.share * c.diurnal.activity(local) * factor;
                (c.class, active, active * c.per_user_bps)
            })
            .collect()
    }

    /// Total unscaled offered load for one cell at `t_s` — by
    /// construction exactly the in-order sum of
    /// [`Self::cell_class_offered`] loads (bit-replayable, no
    /// tolerance needed).
    pub fn cell_offered_bps(&self, cell: usize, t_s: f64) -> f64 {
        self.cell_class_offered(cell, t_s)
            .iter()
            .map(|&(_, _, bps)| bps)
            .sum()
    }

    /// The demand snapshot at `t_s`: per-cell, per-class flows plus
    /// offered-load accounting. Pure in `t_s` — calling twice yields
    /// bitwise-identical ticks. Records the tick's `demand.*` telemetry
    /// (flows emitted and folded, offered-load and active-cell peaks) on
    /// `rec`.
    pub fn flows_at(&self, t_s: f64, rec: &mut dyn Recorder) -> DemandTick {
        let mut flows = Vec::new();
        let mut offered_bps = 0.0;
        let mut active_users = 0.0;
        let mut active_cells = 0u64;
        let mut flows_folded = 0u64;
        let mut folded_bps = 0.0;

        for (cell, _) in self.grid.populated_cells() {
            let per_class = self.cell_class_offered(cell, t_s);
            let mut cell_offered = 0.0;
            for (i, &(class, active, class_bps)) in per_class.iter().enumerate() {
                cell_offered += class_bps;
                active_users += active;
                if class_bps <= 0.0 {
                    continue;
                }
                let spec = &self.mix.classes()[i];
                let rate_bps = class_bps * self.cfg.transport_scale * spec.peak_factor();
                if class_bps * self.cfg.transport_scale < self.cfg.min_flow_bps {
                    flows_folded += 1;
                    folded_bps += class_bps;
                    continue;
                }
                flows.push(DemandFlow {
                    cell,
                    class,
                    offered_bps: class_bps,
                    rate_bps,
                    packet_bytes: spec.packet_bytes,
                    process: spec.process,
                });
            }
            offered_bps += cell_offered;
            if cell_offered > 0.0 {
                active_cells += 1;
            }
        }

        // Per-tick cap: keep the largest offered loads under a total
        // order so the surviving set is deterministic.
        if flows.len() > self.cfg.max_flows_per_tick {
            flows.sort_by(|a, b| {
                b.offered_bps
                    .total_cmp(&a.offered_bps)
                    .then(a.cell.cmp(&b.cell))
                    .then(a.class.cmp(&b.class))
            });
            for f in flows.drain(self.cfg.max_flows_per_tick..) {
                flows_folded += 1;
                folded_bps += f.offered_bps;
            }
        }

        if rec.enabled() {
            rec.add("demand.flows_emitted", flows.len() as u64);
            rec.add("demand.flows_folded", flows_folded);
            rec.gauge_max("demand.offered_bps_peak", offered_bps);
            rec.gauge_max("demand.active_cells_peak", active_cells as f64);
        }
        DemandTick {
            t_s,
            flows,
            offered_bps,
            active_users,
            active_cells,
            flows_folded,
            folded_bps,
        }
    }

    /// Demand snapshots at `0, step, 2·step, …` up to and including
    /// `horizon` (times accumulate iteratively, mirroring
    /// `net::timeline`), built on `threads` workers through
    /// `parallel_map_seeded`. Bitwise-identical for any worker count.
    pub fn demand_timeline(
        &self,
        step_s: f64,
        horizon_s: f64,
        threads: usize,
    ) -> Result<Vec<DemandTick>, ConfigError> {
        require_positive("step_s", step_s)?;
        require_non_negative("horizon_s", horizon_s)?;
        let mut times = Vec::new();
        let mut t = 0.0;
        while t <= horizon_s + 1e-9 {
            times.push(t);
            t += step_s;
        }
        // flows_at is pure in t, so the per-task rng is deliberately
        // unused — thread-count invariance falls out of purity.
        Ok(parallel_map_seeded(
            &times,
            threads,
            self.seed,
            |&t, _rng| self.flows_at(t, &mut NullRecorder),
        ))
    }

    /// [`Self::demand_timeline`] plus aggregate `demand.*` telemetry.
    pub fn demand_timeline_recorded(
        &self,
        step_s: f64,
        horizon_s: f64,
        threads: usize,
        rec: &mut dyn Recorder,
    ) -> Result<Vec<DemandTick>, ConfigError> {
        let ticks = self.demand_timeline(step_s, horizon_s, threads)?;
        if rec.enabled() {
            rec.add("demand.users", self.grid.total_users());
            rec.add("demand.ticks", ticks.len() as u64);
            for tick in &ticks {
                rec.add("demand.flows_emitted", tick.flows.len() as u64);
                rec.add("demand.flows_folded", tick.flows_folded);
                rec.gauge_max("demand.offered_bps_peak", tick.offered_bps);
                rec.gauge_max("demand.active_cells_peak", tick.active_cells as f64);
            }
        }
        Ok(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PopulationConfig;
    use openspace_telemetry::recorder::MemoryRecorder;

    fn small_model(cfg: DemandConfig) -> DemandModel {
        let grid = PopulationGrid::build(&PopulationConfig {
            lat_cells: 12,
            lon_cells: 24,
            total_users: 50_000,
            cities: 24,
            ..Default::default()
        })
        .unwrap();
        DemandModel::new(grid, AppMix::broadband(), cfg).unwrap()
    }

    #[test]
    fn flows_at_is_pure_in_time() {
        let m = small_model(DemandConfig::default());
        let a = m.flows_at(7.5 * 3600.0, &mut NullRecorder);
        let b = m.flows_at(7.5 * 3600.0, &mut NullRecorder);
        assert_eq!(a, b);
        assert_ne!(a, m.flows_at(8.0 * 3600.0, &mut NullRecorder));
    }

    #[test]
    fn offered_accounting_is_exact() {
        let m = small_model(DemandConfig {
            min_flow_bps: 50.0,
            transport_scale: 1.0,
            ..Default::default()
        });
        let tick = m.flows_at(13.0 * 3600.0, &mut NullRecorder);
        let emitted: f64 = tick.flows.iter().map(|f| f.offered_bps).sum();
        // Emitted + folded must cover all offered load; exactness of
        // the per-cell decomposition is asserted in the cross-crate
        // property suite, here we bound the summation reordering.
        assert!((emitted + tick.folded_bps - tick.offered_bps).abs() < 1e-6 * tick.offered_bps);
        assert!(tick.flows_folded > 0, "threshold should fold tiny flows");
    }

    #[test]
    fn per_cell_loads_match_class_sums_exactly() {
        let m = small_model(DemandConfig::default());
        let t = 17.25 * 3600.0;
        for (cell, _) in m.grid().populated_cells() {
            let total = m.cell_offered_bps(cell, t);
            let by_class: f64 = m
                .cell_class_offered(cell, t)
                .iter()
                .map(|&(_, _, bps)| bps)
                .sum();
            assert_eq!(total.to_bits(), by_class.to_bits());
        }
    }

    #[test]
    fn diurnal_swing_is_visible_over_a_day() {
        let m = small_model(DemandConfig {
            jitter: 0.0,
            ..Default::default()
        });
        let ticks = m.demand_timeline(3600.0, 86400.0 - 1.0, 1).unwrap();
        assert_eq!(ticks.len(), 24);
        let max = ticks.iter().map(|t| t.offered_bps).fold(f64::MIN, f64::max);
        let min = ticks.iter().map(|t| t.offered_bps).fold(f64::MAX, f64::min);
        assert!(
            max / min > 1.2,
            "expected a diurnal swing, got peak/trough {}",
            max / min
        );
    }

    #[test]
    fn timeline_is_thread_count_invariant() {
        let m = small_model(DemandConfig::default());
        let serial = m.demand_timeline(7200.0, 86400.0, 1).unwrap();
        for threads in [2, 4, 8] {
            assert_eq!(m.demand_timeline(7200.0, 86400.0, threads).unwrap(), serial);
        }
    }

    #[test]
    fn per_tick_cap_keeps_the_largest_flows() {
        let uncapped =
            small_model(DemandConfig::default()).flows_at(20.0 * 3600.0, &mut NullRecorder);
        let m = small_model(DemandConfig {
            max_flows_per_tick: 10,
            ..Default::default()
        });
        let capped = m.flows_at(20.0 * 3600.0, &mut NullRecorder);
        assert_eq!(capped.flows.len(), 10);
        let mut best: Vec<f64> = uncapped.flows.iter().map(|f| f.offered_bps).collect();
        best.sort_by(|a, b| b.total_cmp(a));
        let kept_min = capped
            .flows
            .iter()
            .map(|f| f.offered_bps)
            .fold(f64::MAX, f64::min);
        assert!(kept_min >= best[9] - 1e-9);
        assert_eq!(
            capped.offered_bps.to_bits(),
            uncapped.offered_bps.to_bits(),
            "capping must not change offered-load accounting"
        );
    }

    #[test]
    fn transport_scale_only_touches_sim_rates() {
        let base = small_model(DemandConfig {
            jitter: 0.0,
            ..Default::default()
        });
        let scaled = small_model(DemandConfig {
            jitter: 0.0,
            transport_scale: 1e-3,
            ..Default::default()
        });
        let a = base.flows_at(12.0 * 3600.0, &mut NullRecorder);
        let b = scaled.flows_at(12.0 * 3600.0, &mut NullRecorder);
        assert_eq!(a.offered_bps.to_bits(), b.offered_bps.to_bits());
        assert!((b.flows[0].rate_bps - a.flows[0].rate_bps * 1e-3).abs() < 1e-9);
    }

    #[test]
    fn onoff_flows_carry_peak_rates() {
        let m = small_model(DemandConfig {
            jitter: 0.0,
            ..Default::default()
        });
        let tick = m.flows_at(21.0 * 3600.0, &mut NullRecorder);
        let streaming = tick
            .flows
            .iter()
            .find(|f| f.class == AppClass::Streaming)
            .expect("streaming active at 21:00 somewhere");
        match streaming.process {
            TrafficKind::OnOff {
                mean_on_s,
                mean_off_s,
            } => {
                let duty = mean_on_s / (mean_on_s + mean_off_s);
                assert!((streaming.rate_bps * duty - streaming.offered_bps).abs() < 1e-6);
            }
            _ => panic!("streaming should emit on-off flows"),
        }
    }

    #[test]
    fn recorded_timeline_emits_demand_counters() {
        let m = small_model(DemandConfig::default());
        let mut rec = MemoryRecorder::new();
        let ticks = m
            .demand_timeline_recorded(21600.0, 86400.0, 2, &mut rec)
            .unwrap();
        assert_eq!(ticks.len(), 5);
        assert_eq!(rec.counter("demand.users"), 50_000);
        assert_eq!(rec.counter("demand.ticks"), 5);
        assert!(rec.counter("demand.flows_emitted") > 0);
        assert!(rec.maximum("demand.offered_bps_peak").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn invalid_demand_configs_are_rejected() {
        let grid = PopulationGrid::build(&PopulationConfig::default()).unwrap();
        let bad = DemandConfig {
            jitter: 1.0,
            ..Default::default()
        };
        assert!(DemandModel::new(grid.clone(), AppMix::broadband(), bad).is_err());
        let bad = DemandConfig {
            transport_scale: 0.0,
            ..Default::default()
        };
        assert!(DemandModel::new(grid, AppMix::broadband(), bad).is_err());
    }
}
