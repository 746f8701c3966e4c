//! # openspace-sim
//!
//! A deterministic discrete-event simulation engine for the OpenSpace
//! stack.
//!
//! * [`engine`] — the time-ordered event queue with stable tie-breaking
//!   (same inputs + same seed ⇒ bit-identical runs),
//!   [`engine::EventQueue`]: two 4-ary heap lanes, far and near, merged
//!   at the pop by `(time, seq)`, so the lane an event takes changes
//!   speed, never order.
//! * [`rng`] — seeded RNG with substreams and the distributions traffic
//!   models need.
//! * [`queue`] — the byte-bounded drop-tail FIFO server every simulated
//!   link transmits through.
//! * [`traffic`] — the one traffic model: [`traffic::TrafficKind`]
//!   (CBR / Poisson / on-off) and the per-flow [`traffic::Arrivals`]
//!   process the packet simulator and the demand layer share (§5's call
//!   for user traffic modelling).
//! * [`stats`] — summary statistics for the experiment reports.
//! * [`exec`] — deterministic parallel map over independent tasks with
//!   per-task RNG substreams (parallel output ≡ serial output).
//! * [`ids`] — typed entity identifiers (`NodeId`, `SatId`, `GsId`,
//!   `OperatorId`) shared by every layer of the stack.
//! * [`config`] — the shared [`config::ConfigError`] all builders
//!   return from `build()`.
//! * [`fault`] — declarative fault plans (scheduled + seeded-stochastic
//!   outages, link flaps, operator withdrawals) compiled into
//!   time-ordered topology events (§2.2's graceful-degradation story).
//!
//! Intentionally not async: this is CPU-bound simulation, where an async
//! runtime adds overhead and nondeterminism for zero benefit. Parallelism
//! happens at the level of independent runs (one thread per seed).

//! ## Example
//!
//! ```
//! use openspace_sim::prelude::*;
//!
//! let mut q = EventQueue::new();
//! q.schedule(1.0, "ping");
//! q.schedule(0.5, "pong");
//! let mut order = Vec::new();
//! q.run_until(2.0, |_, _, e| order.push(e));
//! assert_eq!(order, vec!["pong", "ping"]);
//! ```

pub mod config;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod ids;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod traffic;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::ConfigError;
    pub use crate::engine::{EventQueue, SimTime};
    pub use crate::exec::{default_threads, parallel_map_seeded};
    pub use crate::fault::{
        FaultPlan, FaultPlanBuilder, FaultSpec, FaultTopology, TopologyEvent, TopologyEventKind,
    };
    pub use crate::ids::{GsId, NodeId, OperatorId, SatId};
    pub use crate::queue::DropTailQueue;
    pub use crate::rng::SimRng;
    pub use crate::stats::Summary;
    pub use crate::traffic::{Arrivals, TrafficKind};
}
