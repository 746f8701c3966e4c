//! # openspace-phy
//!
//! Physical-layer models for the OpenSpace stack: everything §2.1 of the
//! paper ("Standardizing Physical Links") needs quantified.
//!
//! * [`bands`] — the UHF/S/X/Ku/Ka RF bands and the 1550 nm optical carrier.
//! * [`linkbudget`] — EIRP/FSPL/G-T chains producing SNR and achievable
//!   rate for RF links (ISL and ground).
//! * [`capacity`] — Shannon + implementation-gap rate model.
//! * [`antenna`] — aperture gain, beamwidth, pointing loss.
//! * [`atmosphere`] — gaseous and rain attenuation for ground links.
//! * [`optical`] — laser ISL link budget and the PAT (pointing,
//!   acquisition, tracking) delay of each terminal.
//! * [`power`] — solar/battery energy budget; the power constraint that
//!   limits how many ISLs a satellite can afford (§2.2).
//! * [`hardware`] — the cost/mass/volume catalogue behind the paper's
//!   $500k-laser-terminal and minimal-RF-requirement arguments.
//!
//! The network layer consumes exactly two numbers from here per link —
//! achievable rate and energy per bit — plus the PAT delay for optical
//! link setup; the rest exists to derive those honestly from physics.
//!
//! ## Example
//!
//! ```
//! use openspace_phy::prelude::*;
//!
//! // An S-band ISL between two mid-class satellites, 1500 km apart.
//! let link = RfLink {
//!     tx: RfTerminal::midsat(),
//!     rx: RfTerminal::midsat(),
//!     band: RfBand::S,
//!     distance_m: 1_500_000.0,
//!     extra_loss_db: 0.0,
//! };
//! let rf_rate = link.achievable_rate_bps();
//! assert!(rf_rate > 1.0e6);
//!
//! // The optical alternative moves orders of magnitude more bits.
//! let t = OpticalTerminal::conlct80_class();
//! let laser_rate =
//!     openspace_phy::optical::achievable_rate_bps(&t, &t, 1_500_000.0);
//! assert!(laser_rate > 100.0 * rf_rate);
//! ```

pub mod antenna;
pub mod atmosphere;
pub mod bands;
pub mod capacity;
pub mod hardware;
pub mod linkbudget;
pub mod optical;
pub mod power;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::antenna::{beamwidth_rad, pointing_loss_db};
    pub use crate::atmosphere::{gas_loss_db, rain_loss_db, total_atmospheric_loss_db};
    pub use crate::bands::{RfBand, OPTICAL_WAVELENGTH_M};
    pub use crate::capacity::{
        achievable_rate_bps, shannon_capacity_bps, DEFAULT_IMPLEMENTATION_GAP_DB,
    };
    pub use crate::hardware::{
        laser_terminal_spec, rf_terminal_spec, SatelliteClass, TerminalSpec,
    };
    pub use crate::linkbudget::{free_space_path_loss_db, from_db, to_db, RfLink, RfTerminal};
    pub use crate::optical::OpticalTerminal;
    pub use crate::power::{slew_energy_j, InsufficientPower, PowerBudget, PowerSystem};
}
