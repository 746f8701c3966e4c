//! # openspace-economics
//!
//! §3 of the paper ("Cost Models") as executable machinery:
//!
//! * [`ledger`] — per-operator traffic ledgers built from the signed
//!   accounting records in `openspace-protocol`, with bilateral
//!   cross-verification (the "easily cross-verifiable account").
//! * [`settlement`] — bilateral price books and net settlement positions
//!   ("precise monetary amounts … left to agreements between individual
//!   ISPs, much like in BGP").
//! * [`peering`] — the symmetric-flows ⇒ peer rule.
//! * [`capex`] — fleet costs: hardware, launch, and the FCC's $12,145
//!   small-sat fee; the entry-barrier comparison between monolithic and
//!   federated deployment.
//! * [`pricing`] — hardware-aware hop pricing: RF hops cheap in capex,
//!   laser hops cheap per byte.
//! * [`incentives`] — §5(4)'s open problem: exact Shapley-value revenue
//!   sharing and the join-or-go-alone rationality test.

//! ## Example
//!
//! ```
//! use openspace_economics::prelude::*;
//! use openspace_phy::hardware::SatelliteClass;
//!
//! // The §1 entry-barrier argument in two lines: a six-member
//! // federation divides the up-front cost of a 66-satellite
//! // constellation by six.
//! let b = entry_barrier(SatelliteClass::SmallSat, 66, 6, &LaunchPricing::rideshare());
//! assert!(b.monolithic_usd / b.federated_usd > 5.5);
//! ```

pub mod capex;
pub mod incentives;
pub mod ledger;
pub mod peering;
pub mod pricing;
pub mod settlement;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::capex::{
        entry_barrier, fleet_cost_usd, satellite_cost, EntryBarrier, LaunchPricing, SatelliteCost,
        FCC_SMALLSAT_FEE_USD,
    };
    pub use crate::incentives::{collaboration_surplus, shapley_shares, Share};
    pub use crate::ledger::{reconcile, BillingKey, Dispute, Reconciliation, TrafficLedger};
    pub use crate::peering::{evaluate_peering, PeeringPolicy, PeeringVerdict};
    pub use crate::pricing::HopEconomics;
    pub use crate::settlement::{PriceBook, SettlementMatrix};
}
