//! Hardware catalogue: the cost/mass/volume figures the paper's cost model
//! (§3) and ISL-tradeoff discussion (§2.1) quote.
//!
//! Three satellite classes span the "small, medium, and large firms" the
//! paper wants to coexist, each with a terminal fit and a launch cost.

use crate::linkbudget::RfTerminal;

/// Cost/mass/volume of one communication terminal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminalSpec {
    /// Unit cost (USD).
    pub cost_usd: f64,
    /// Mass (kg).
    pub mass_kg: f64,
    /// Volume (m³).
    pub volume_m3: f64,
}

/// The ConLCT80-class laser terminal the paper cites: "$500,000 per
/// terminal and occupying 0.0234 sq.m of volume and at least 15 kg".
/// (The paper's "sq.m" is a typo for m³ — it is a volume figure.)
pub fn laser_terminal_spec() -> TerminalSpec {
    TerminalSpec {
        cost_usd: 500_000.0,
        mass_kg: 15.0,
        volume_m3: 0.0234,
    }
}

/// A small-satellite S-band/UHF transceiver: commodity hardware, the low
/// entry bar the paper's minimal hardware requirement is built around.
pub fn rf_terminal_spec() -> TerminalSpec {
    TerminalSpec {
        cost_usd: 45_000.0,
        mass_kg: 1.5,
        volume_m3: 0.001,
    }
}

/// Satellite platform classes available to OpenSpace operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SatelliteClass {
    /// 6U cubesat: RF ISLs only. The smallest viable OpenSpace member.
    CubeSat,
    /// ESPA-class smallsat: RF + optionally one or two laser terminals.
    SmallSat,
    /// Broadband-constellation bus: RF + four laser terminals.
    BroadbandBus,
}

impl SatelliteClass {
    /// RF terminal fitted to this class.
    pub fn rf_terminal(self) -> RfTerminal {
        match self {
            Self::CubeSat => RfTerminal::smallsat(),
            Self::SmallSat => RfTerminal::midsat(),
            Self::BroadbandBus => RfTerminal::midsat(),
        }
    }

    /// Number of laser terminals fitted (0 = RF-only).
    pub fn laser_terminal_count(self) -> usize {
        match self {
            Self::CubeSat => 0,
            Self::SmallSat => 1,
            Self::BroadbandBus => 4,
        }
    }

    /// Bus dry mass (kg), excluding terminals.
    pub fn bus_mass_kg(self) -> f64 {
        match self {
            Self::CubeSat => 10.0,
            Self::SmallSat => 150.0,
            Self::BroadbandBus => 750.0,
        }
    }

    /// Bus manufacturing cost (USD), excluding terminals.
    pub fn bus_cost_usd(self) -> f64 {
        match self {
            Self::CubeSat => 350_000.0,
            Self::SmallSat => 4_000_000.0,
            Self::BroadbandBus => 1_000_000.0, // mass-production economics
        }
    }

    /// Total satellite mass including terminals (kg).
    pub fn total_mass_kg(self) -> f64 {
        self.bus_mass_kg()
            + rf_terminal_spec().mass_kg
            + self.laser_terminal_count() as f64 * laser_terminal_spec().mass_kg
    }

    /// Total hardware cost including terminals (USD).
    pub fn hardware_cost_usd(self) -> f64 {
        self.bus_cost_usd()
            + rf_terminal_spec().cost_usd
            + self.laser_terminal_count() as f64 * laser_terminal_spec().cost_usd
    }

    /// All classes.
    pub fn all() -> [SatelliteClass; 3] {
        [Self::CubeSat, Self::SmallSat, Self::BroadbandBus]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_laser_figures() {
        let s = laser_terminal_spec();
        assert_eq!(s.cost_usd, 500_000.0);
        assert_eq!(s.mass_kg, 15.0);
        assert_eq!(s.volume_m3, 0.0234);
    }

    #[test]
    fn cubesat_cannot_carry_lasers() {
        assert_eq!(SatelliteClass::CubeSat.laser_terminal_count(), 0);
    }

    #[test]
    fn laser_mass_dominates_cubesat_budget() {
        // The paper's point: 15 kg terminals are "infeasible specifications
        // for smaller spacecraft". A single terminal outweighs the bus.
        assert!(laser_terminal_spec().mass_kg > SatelliteClass::CubeSat.bus_mass_kg());
    }

    #[test]
    fn broadband_bus_carries_four_lasers() {
        let c = SatelliteClass::BroadbandBus;
        assert_eq!(c.laser_terminal_count(), 4);
        assert!(c.hardware_cost_usd() > 4.0 * 500_000.0);
    }

    #[test]
    fn mass_and_cost_increase_with_terminals() {
        for c in SatelliteClass::all() {
            assert!(c.total_mass_kg() > c.bus_mass_kg());
            assert!(c.hardware_cost_usd() > c.bus_cost_usd());
        }
    }

    #[test]
    fn every_class_has_an_rf_terminal() {
        // The OpenSpace minimal requirement: RF at minimum.
        for c in SatelliteClass::all() {
            let t = c.rf_terminal();
            assert!(t.tx_power_w > 0.0);
        }
    }
}
