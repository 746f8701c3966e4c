//! Precomputed topology timelines.
//!
//! §2.2 of the paper argues that satellite-network topology is "both
//! known and public, allowing for pre-computation of static routes".
//! This module exploits that predictability one level below routes: a
//! [`TopologyTimeline`] precomputes the *snapshot sequence* for a whole
//! simulation horizon — one [`Graph`] per tick — so a dynamic
//! simulation looks each resnapshot up instead of rebuilding the
//! constellation graph from orbital state.
//!
//! The timeline stores whole snapshots, not row deltas: satellite
//! motion moves every link's latency bits, so on a moving shell every
//! adjacency row changes at every tick (1,590 of 1,590 per tick on
//! perfbench's `shell_motion`), and a delta holding each changed row
//! would be as large as the snapshot it patches. The changed-row count
//! is still measured once at build time
//! ([`total_changed_rows`](TopologyTimeline::total_changed_rows)).
//!
//! # Determinism contract
//!
//! Snapshots are built concurrently via
//! [`openspace_sim::exec::parallel_map_seeded`], whose output is a pure
//! function of the inputs — the timeline is bitwise-identical for any
//! worker count, pinned by `tests/tests/timeline_equivalence.rs` across
//! 1/2/4/8 threads.
//!
//! Tick times are produced by *iterative accumulation* (`t += step`),
//! never by `start + k * step` multiplication: the event-driven
//! simulation in `openspace-core` schedules each resnapshot at
//! `now + interval`, and only the accumulated form reproduces those
//! times bit-for-bit, so every resnapshot looks up exactly the tick the
//! provider would have been called at.
//!
//! # Providers
//!
//! [`TopologyProvider`] is the typed capability "can produce the
//! topology at time t". Any `Fn(f64) -> Graph` closure gets it for free
//! (the blanket impl), and [`TopologyTimeline`] implements it by
//! looking up the stored snapshot, so precomputed and on-demand
//! dynamics are interchangeable everywhere a provider is accepted.

use crate::topology::{Graph, GraphDelta, TopologyError};
use openspace_sim::config::ConfigError;
use openspace_sim::exec::parallel_map_seeded;
use std::fmt;

/// A source of topology snapshots over time.
///
/// Implemented by every `Fn(f64) -> Graph` closure and by
/// [`TopologyTimeline`]. Implementations must be *deterministic*: two
/// calls with bit-equal `t_s` must return bit-equal graphs, and every
/// snapshot must keep the same node roster (satellite and station
/// counts) over the horizon it is queried on.
pub trait TopologyProvider {
    /// The network snapshot at simulation time `t_s` (seconds).
    fn topology_at(&self, t_s: f64) -> Graph;
}

impl<F: Fn(f64) -> Graph> TopologyProvider for F {
    fn topology_at(&self, t_s: f64) -> Graph {
        self(t_s)
    }
}

/// Why a [`TopologyTimeline`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineError {
    /// Invalid horizon parameters (step, horizon, start).
    Config(ConfigError),
    /// The provider's snapshots could not be diffed (roster changed
    /// mid-horizon).
    Topology(TopologyError),
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::Config(e) => write!(f, "timeline config: {e}"),
            TimelineError::Topology(e) => write!(f, "timeline topology: {e}"),
        }
    }
}

impl std::error::Error for TimelineError {}

impl From<ConfigError> for TimelineError {
    fn from(e: ConfigError) -> Self {
        TimelineError::Config(e)
    }
}

impl From<TopologyError> for TimelineError {
    fn from(e: TopologyError) -> Self {
        TimelineError::Topology(e)
    }
}

/// The precomputed snapshot sequence for a simulation horizon: one
/// [`Graph`] per tick.
///
/// Memory is [`tick_count`](Self::tick_count) snapshots (the module
/// docs say why not row deltas). [`graph_at`](Self::graph_at) returns any instant's snapshot
/// bit-identically to what the provider returned at the nearest
/// preceding tick.
#[derive(Debug, Clone)]
pub struct TopologyTimeline {
    start_s: f64,
    step_s: f64,
    /// `times[k]` is tick `k`'s instant, accumulated `start + k·step`
    /// additions (see the module docs for why accumulation matters).
    times: Vec<f64>,
    /// `graphs[k]` is the provider's snapshot at `times[k]`.
    graphs: Vec<Graph>,
    /// Adjacency rows that differ between consecutive snapshots, summed
    /// over the horizon.
    changed_rows: usize,
}

impl TopologyTimeline {
    /// Precompute the timeline for `[start_s, start_s + horizon_s]`
    /// with one tick every `step_s` seconds, building snapshots on
    /// `threads` workers (any count gives bit-identical output).
    ///
    /// The tick instants are `start_s`, then repeated `t += step_s`
    /// while `t <= start_s + horizon_s` — exactly the instants an
    /// event-driven run with resnapshot interval `step_s` observes.
    pub fn build<P: TopologyProvider + Sync>(
        provider: &P,
        start_s: f64,
        step_s: f64,
        horizon_s: f64,
        threads: usize,
    ) -> Result<TopologyTimeline, TimelineError> {
        if !start_s.is_finite() {
            return Err(ConfigError::NotFinite {
                field: "timeline.start_s",
            }
            .into());
        }
        if !step_s.is_finite() {
            return Err(ConfigError::NotFinite {
                field: "timeline.step_s",
            }
            .into());
        }
        if step_s <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "timeline.step_s",
                value: step_s,
            }
            .into());
        }
        if !horizon_s.is_finite() {
            return Err(ConfigError::NotFinite {
                field: "timeline.horizon_s",
            }
            .into());
        }
        if horizon_s < 0.0 {
            return Err(ConfigError::Negative {
                field: "timeline.horizon_s",
                value: horizon_s,
            }
            .into());
        }

        let end = start_s + horizon_s;
        let mut times = vec![start_s];
        let mut t = start_s;
        loop {
            let next = t + step_s;
            if next > end {
                break;
            }
            if next == t {
                // The step vanished into fp granularity at this
                // magnitude; accumulation would never terminate (and an
                // event-driven run with this interval would not either).
                return Err(ConfigError::NonPositive {
                    field: "timeline.step_s (at horizon magnitude)",
                    value: step_s,
                }
                .into());
            }
            times.push(next);
            t = next;
        }

        // Fan the snapshot builds out; output is in tick order and
        // independent of the worker count (the RNG substream is unused —
        // providers are deterministic functions of time).
        let graphs: Vec<Graph> =
            parallel_map_seeded(&times, threads, 0, |&t, _rng| provider.topology_at(t));
        let pairs: Vec<usize> = (1..graphs.len()).collect();
        let changed_rows = parallel_map_seeded(&pairs, threads, 0, |&k, _rng| {
            GraphDelta::between(&graphs[k - 1], &graphs[k]).map(|d| d.row_count())
        })
        .into_iter()
        .sum::<Result<usize, _>>()?;

        Ok(TopologyTimeline {
            start_s,
            step_s,
            times,
            graphs,
            changed_rows,
        })
    }

    /// The first tick's instant.
    pub fn start_s(&self) -> f64 {
        self.start_s
    }

    /// Seconds between consecutive ticks.
    pub fn step_s(&self) -> f64 {
        self.step_s
    }

    /// Number of precomputed instants (≥ 1; the base counts).
    pub fn tick_count(&self) -> usize {
        self.times.len()
    }

    /// Number of tick-to-tick transitions (`tick_count() - 1`).
    pub fn delta_count(&self) -> usize {
        self.graphs.len() - 1
    }

    /// The precomputed tick instants, ascending.
    pub fn tick_times(&self) -> &[f64] {
        &self.times
    }

    /// The snapshot at the first tick.
    pub fn base(&self) -> &Graph {
        &self.graphs[0]
    }

    /// Adjacency rows that differ between consecutive snapshots, summed
    /// over every transition of the horizon.
    pub fn total_changed_rows(&self) -> usize {
        self.changed_rows
    }

    /// Index of the last tick at or before `t_s` (clamped to the first
    /// tick for earlier instants).
    pub fn tick_index_at(&self, t_s: f64) -> usize {
        self.times
            .partition_point(|&tt| tt <= t_s)
            .saturating_sub(1)
    }

    /// The snapshot governing instant `t_s`: the provider's graph at
    /// the last tick at or before `t_s`.
    pub fn graph_at(&self, t_s: f64) -> Graph {
        self.graphs[self.tick_index_at(t_s)].clone()
    }
}

impl TopologyProvider for TopologyTimeline {
    fn topology_at(&self, t_s: f64) -> Graph {
        self.graph_at(t_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkTech;

    /// A deterministic synthetic provider: a 4-node ring whose "moving"
    /// chord flips endpoints every 10 s and whose latency drifts with t.
    fn provider(t: f64) -> Graph {
        let mut g = Graph::new(3, 1);
        g.add_bidirectional(
            0usize,
            1usize,
            0.001 + t * 1e-6,
            1e6,
            0u32,
            0u32,
            LinkTech::Rf,
        );
        g.add_bidirectional(1usize, 2usize, 0.002, 1e6, 0u32, 0u32, LinkTech::Rf);
        if (t / 10.0).floor() as i64 % 2 == 0 {
            g.add_bidirectional(2usize, 3usize, 0.003, 1e7, 0u32, 1u32, LinkTech::Rf);
        } else {
            g.add_bidirectional(0usize, 3usize, 0.004, 1e7, 0u32, 1u32, LinkTech::Rf);
        }
        g
    }

    #[test]
    fn ticks_cover_the_horizon_inclusively() {
        let tl = TopologyTimeline::build(&provider, 0.0, 10.0, 30.0, 1).unwrap();
        assert_eq!(tl.tick_times(), &[0.0, 10.0, 20.0, 30.0]);
        assert_eq!(tl.tick_count(), 4);
        assert_eq!(tl.delta_count(), 3);
        // A horizon that is not a multiple of the step stops short.
        let tl = TopologyTimeline::build(&provider, 0.0, 10.0, 29.0, 1).unwrap();
        assert_eq!(tl.tick_times(), &[0.0, 10.0, 20.0]);
        // Zero horizon: just the base.
        let tl = TopologyTimeline::build(&provider, 5.0, 10.0, 0.0, 1).unwrap();
        assert_eq!(tl.tick_count(), 1);
        assert_eq!(tl.base(), &provider(5.0));
    }

    #[test]
    fn graph_at_matches_provider_at_every_tick() {
        let tl = TopologyTimeline::build(&provider, 0.0, 10.0, 50.0, 2).unwrap();
        for &t in tl.tick_times() {
            assert_eq!(tl.graph_at(t), provider(t), "tick at t={t}");
        }
        // Between ticks the floor tick governs; before the start the
        // base governs.
        assert_eq!(tl.graph_at(14.9), provider(10.0));
        assert_eq!(tl.graph_at(-3.0), provider(0.0));
        assert_eq!(tl.graph_at(1e9), provider(50.0));
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let serial = TopologyTimeline::build(&provider, 0.0, 5.0, 60.0, 1).unwrap();
        for threads in [2, 4, 8] {
            let par = TopologyTimeline::build(&provider, 0.0, 5.0, 60.0, threads).unwrap();
            assert_eq!(par.base(), serial.base(), "threads={threads}");
            assert_eq!(par.tick_times(), serial.tick_times());
            for &t in serial.tick_times() {
                assert_eq!(
                    par.graph_at(t),
                    serial.graph_at(t),
                    "t={t}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn provider_trait_is_interchangeable() {
        fn sample<P: TopologyProvider>(p: &P, t: f64) -> Graph {
            p.topology_at(t)
        }
        let tl = TopologyTimeline::build(&provider, 0.0, 10.0, 40.0, 1).unwrap();
        assert_eq!(sample(&provider, 20.0), sample(&tl, 20.0));
        // Dyn-compatible too (the driver holds `&dyn TopologyProvider`).
        let dynamic: &dyn TopologyProvider = &tl;
        assert_eq!(dynamic.topology_at(20.0), provider(20.0));
    }

    #[test]
    fn build_rejects_bad_horizons() {
        let err = |r: Result<TopologyTimeline, TimelineError>| r.unwrap_err();
        assert!(matches!(
            err(TopologyTimeline::build(&provider, 0.0, 0.0, 10.0, 1)),
            TimelineError::Config(ConfigError::NonPositive { .. })
        ));
        assert!(matches!(
            err(TopologyTimeline::build(&provider, 0.0, -1.0, 10.0, 1)),
            TimelineError::Config(ConfigError::NonPositive { .. })
        ));
        assert!(matches!(
            err(TopologyTimeline::build(&provider, 0.0, f64::NAN, 10.0, 1)),
            TimelineError::Config(ConfigError::NotFinite { .. })
        ));
        assert!(matches!(
            err(TopologyTimeline::build(&provider, 0.0, 10.0, -1.0, 1)),
            TimelineError::Config(ConfigError::Negative { .. })
        ));
        assert!(matches!(
            err(TopologyTimeline::build(
                &provider,
                f64::INFINITY,
                10.0,
                1.0,
                1
            )),
            TimelineError::Config(ConfigError::NotFinite { .. })
        ));
        // A step that vanishes at the horizon's magnitude is rejected,
        // not an infinite loop.
        assert!(matches!(
            err(TopologyTimeline::build(&provider, 1e18, 1e-3, 10.0, 1)),
            TimelineError::Config(ConfigError::NonPositive { .. })
        ));
        let display = format!(
            "{}",
            err(TopologyTimeline::build(&provider, 0.0, 0.0, 10.0, 1))
        );
        assert!(display.contains("timeline.step_s"), "{display}");
    }

    #[test]
    fn build_rejects_roster_changes() {
        let shrinking = |t: f64| {
            if t < 5.0 {
                provider(t)
            } else {
                Graph::new(1, 0)
            }
        };
        assert!(matches!(
            TopologyTimeline::build(&shrinking, 0.0, 10.0, 20.0, 1),
            Err(TimelineError::Topology(TopologyError::ShapeMismatch { .. }))
        ));
    }

    #[test]
    fn total_changed_rows_reflects_churn() {
        let tl = TopologyTimeline::build(&provider, 0.0, 10.0, 40.0, 1).unwrap();
        assert!(tl.total_changed_rows() > 0);
        let frozen = |_t: f64| provider(0.0);
        let tl = TopologyTimeline::build(&frozen, 0.0, 10.0, 40.0, 1).unwrap();
        assert_eq!(tl.total_changed_rows(), 0);
    }
}
