//! Capital-expenditure model.
//!
//! §3: "Manufacturing and launching satellites poses a significant cost,
//! due to cost of materials, the expertise required for designing and
//! building hardware and software systems, paying for licensing
//! requirements, and launching and maneuvering satellites into the
//! desired orbit. As an example of licensing requirements, the FCC has
//! proposed small satellite regulatory fees of about $12,145."
//!
//! The model prices an operator's fleet from the hardware catalogue in
//! `openspace-phy`, a per-kilogram launch rate, and the FCC fee — the
//! numbers behind the paper's barrier-to-entry argument.

use openspace_phy::hardware::SatelliteClass;

/// The FCC small-satellite regulatory fee the paper quotes (USD).
pub const FCC_SMALLSAT_FEE_USD: f64 = 12_145.0;

/// Launch pricing.
#[derive(Debug, Clone, Copy)]
pub struct LaunchPricing {
    /// Price per kilogram to LEO (USD/kg).
    pub usd_per_kg: f64,
    /// Fixed integration cost per satellite (USD).
    pub integration_usd: f64,
}

impl LaunchPricing {
    /// Rideshare-class pricing (Falcon 9 Transporter era: ~$5,500/kg).
    pub fn rideshare() -> Self {
        Self {
            usd_per_kg: 5_500.0,
            integration_usd: 60_000.0,
        }
    }
}

/// Cost breakdown for one satellite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatelliteCost {
    /// Bus + terminals (USD).
    pub hardware_usd: f64,
    /// Launch (USD).
    pub launch_usd: f64,
    /// Licensing (USD).
    pub licensing_usd: f64,
}

impl SatelliteCost {
    /// Total cost (USD).
    pub fn total_usd(&self) -> f64 {
        self.hardware_usd + self.launch_usd + self.licensing_usd
    }
}

/// Cost of building, launching, and licensing one satellite of `class`.
pub fn satellite_cost(class: SatelliteClass, launch: &LaunchPricing) -> SatelliteCost {
    SatelliteCost {
        hardware_usd: class.hardware_cost_usd(),
        launch_usd: class.total_mass_kg() * launch.usd_per_kg + launch.integration_usd,
        licensing_usd: FCC_SMALLSAT_FEE_USD,
    }
}

/// Up-front cost of a fleet of `n` identical satellites.
pub fn fleet_cost_usd(class: SatelliteClass, n: usize, launch: &LaunchPricing) -> f64 {
    satellite_cost(class, launch).total_usd() * n as f64
}

/// The paper's barrier-to-entry comparison: up-front capex of a full
/// monolithic constellation vs one operator's slice of a shared
/// federation.
#[derive(Debug, Clone, Copy)]
pub struct EntryBarrier {
    /// Cost of going it alone (full constellation).
    pub monolithic_usd: f64,
    /// Cost of contributing `share` of the federated constellation.
    pub federated_usd: f64,
}

/// Compare entry costs: a monolithic entrant must launch
/// `constellation_size` satellites; a federation member launches only its
/// share.
pub fn entry_barrier(
    class: SatelliteClass,
    constellation_size: usize,
    federation_members: usize,
    launch: &LaunchPricing,
) -> EntryBarrier {
    assert!(federation_members > 0, "federation needs members");
    let per_member = constellation_size.div_ceil(federation_members);
    EntryBarrier {
        monolithic_usd: fleet_cost_usd(class, constellation_size, launch),
        federated_usd: fleet_cost_usd(class, per_member, launch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcc_fee_matches_paper() {
        assert_eq!(FCC_SMALLSAT_FEE_USD, 12_145.0);
    }

    #[test]
    fn cubesat_is_cheapest_to_field() {
        let launch = LaunchPricing::rideshare();
        let cube = satellite_cost(SatelliteClass::CubeSat, &launch).total_usd();
        let small = satellite_cost(SatelliteClass::SmallSat, &launch).total_usd();
        let bus = satellite_cost(SatelliteClass::BroadbandBus, &launch).total_usd();
        assert!(cube < small);
        assert!(cube < bus);
    }

    #[test]
    fn cubesat_fleet_is_sub_million_per_sat() {
        // The accessibility premise: an RF-only cubesat costs well under
        // $1M fielded, vs $500k for a single laser terminal alone.
        let launch = LaunchPricing::rideshare();
        let c = satellite_cost(SatelliteClass::CubeSat, &launch);
        assert!(
            c.total_usd() < 1_000_000.0,
            "cubesat fielded cost {}",
            c.total_usd()
        );
    }

    #[test]
    fn launch_cost_scales_with_mass() {
        let launch = LaunchPricing::rideshare();
        let cube = satellite_cost(SatelliteClass::CubeSat, &launch);
        let bus = satellite_cost(SatelliteClass::BroadbandBus, &launch);
        assert!(bus.launch_usd > cube.launch_usd * 10.0);
    }

    #[test]
    fn federation_cuts_entry_cost_by_member_count() {
        let launch = LaunchPricing::rideshare();
        let b = entry_barrier(SatelliteClass::SmallSat, 66, 6, &launch);
        let ratio = b.monolithic_usd / b.federated_usd;
        assert!((ratio - 6.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn uneven_split_rounds_up() {
        let launch = LaunchPricing::rideshare();
        let b = entry_barrier(SatelliteClass::CubeSat, 66, 5, &launch);
        // 66/5 → 14 sats per member.
        let per_sat = satellite_cost(SatelliteClass::CubeSat, &launch).total_usd();
        assert!((b.federated_usd - 14.0 * per_sat).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "federation needs members")]
    fn zero_members_panics() {
        entry_barrier(SatelliteClass::CubeSat, 10, 0, &LaunchPricing::rideshare());
    }
}
