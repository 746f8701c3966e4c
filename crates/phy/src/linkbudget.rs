//! RF link budgets.
//!
//! The standard chain: EIRP − path loss + receive gain → received power;
//! against thermal noise this gives SNR, and [`crate::capacity`] turns SNR
//! into an achievable data rate. OpenSpace routing consumes the *rate* and
//! *energy per bit*; everything else here exists to compute those two
//! numbers honestly.

use crate::bands::RfBand;
use openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S;

/// Convert a linear power ratio to decibels.
///
/// # Panics
/// Panics if `ratio` is not strictly positive.
#[inline]
pub fn to_db(ratio: f64) -> f64 {
    assert!(ratio > 0.0, "dB of non-positive ratio {ratio}");
    10.0 * ratio.log10()
}

/// Convert decibels to a linear power ratio.
#[inline]
pub fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert watts to dBW.
#[inline]
pub fn watts_to_dbw(w: f64) -> f64 {
    to_db(w)
}

/// Free-space path loss (dB) over `distance_m` at `frequency_hz`.
///
/// `FSPL = 20 log10(4π d f / c)`.
///
/// # Panics
/// Panics unless both arguments are strictly positive.
pub fn free_space_path_loss_db(distance_m: f64, frequency_hz: f64) -> f64 {
    assert!(distance_m > 0.0, "distance must be positive");
    assert!(frequency_hz > 0.0, "frequency must be positive");
    20.0 * (4.0 * std::f64::consts::PI * distance_m * frequency_hz / SPEED_OF_LIGHT_M_PER_S).log10()
}

/// One end of an RF link: transmit power and antenna gains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfTerminal {
    /// Transmit power (W) fed to the antenna.
    pub tx_power_w: f64,
    /// Transmit antenna gain (dBi).
    pub tx_gain_dbi: f64,
    /// Receive antenna gain (dBi).
    pub rx_gain_dbi: f64,
    /// Receiver system noise temperature (K), including antenna and LNA.
    pub system_noise_temp_k: f64,
    /// Implementation and pointing losses lumped together (dB, ≥ 0).
    pub implementation_loss_db: f64,
}

impl RfTerminal {
    /// A small-satellite S-band/UHF class terminal — the paper's minimal
    /// hardware bar for joining OpenSpace.
    pub fn smallsat() -> Self {
        Self {
            tx_power_w: 2.0,
            tx_gain_dbi: 8.0,
            rx_gain_dbi: 8.0,
            system_noise_temp_k: 615.0,
            implementation_loss_db: 2.0,
        }
    }

    /// A mid-class LEO bus terminal with a steerable phased array.
    pub fn midsat() -> Self {
        Self {
            tx_power_w: 10.0,
            tx_gain_dbi: 25.0,
            rx_gain_dbi: 25.0,
            system_noise_temp_k: 500.0,
            implementation_loss_db: 2.0,
        }
    }

    /// A ground-station gateway terminal (large dish, cooled front end).
    pub fn gateway() -> Self {
        Self {
            tx_power_w: 50.0,
            tx_gain_dbi: 43.0,
            rx_gain_dbi: 43.0,
            system_noise_temp_k: 150.0,
            implementation_loss_db: 1.5,
        }
    }

    /// EIRP (dBW) of this terminal.
    pub fn eirp_dbw(&self) -> f64 {
        watts_to_dbw(self.tx_power_w) + self.tx_gain_dbi
    }
}

/// A fully-specified RF link at one instant: geometry + both terminals.
#[derive(Debug, Clone, Copy)]
pub struct RfLink {
    /// Transmitting terminal.
    pub tx: RfTerminal,
    /// Receiving terminal.
    pub rx: RfTerminal,
    /// Operating band.
    pub band: RfBand,
    /// Link distance (m).
    pub distance_m: f64,
    /// Extra propagation losses beyond free space (dB, e.g. atmosphere).
    pub extra_loss_db: f64,
}

impl RfLink {
    /// Received carrier power (dBW).
    pub fn received_power_dbw(&self) -> f64 {
        self.tx.eirp_dbw()
            - free_space_path_loss_db(self.distance_m, self.band.center_frequency_hz())
            - self.extra_loss_db
            - self.tx.implementation_loss_db
            - self.rx.implementation_loss_db
            + self.rx.rx_gain_dbi
    }

    /// Noise power (dBW) in the band's channel bandwidth:
    /// `N = k·T·B`.
    pub fn noise_power_dbw(&self) -> f64 {
        to_db(
            openspace_orbit::constants::BOLTZMANN_J_PER_K
                * self.rx.system_noise_temp_k
                * self.band.channel_bandwidth_hz(),
        )
    }

    /// Carrier-to-noise ratio (dB).
    pub fn cnr_db(&self) -> f64 {
        self.received_power_dbw() - self.noise_power_dbw()
    }

    /// Linear SNR.
    pub fn snr_linear(&self) -> f64 {
        from_db(self.cnr_db())
    }

    /// Achievable data rate (bit/s) via the capacity model in
    /// [`crate::capacity`], with the default coded-modulation gap; zero
    /// when `distance_m` is not positive and finite (no link budget).
    pub fn achievable_rate_bps(&self) -> f64 {
        if !(self.distance_m > 0.0 && self.distance_m.is_finite()) {
            return 0.0;
        }
        crate::capacity::achievable_rate_bps(
            self.band.channel_bandwidth_hz(),
            self.snr_linear(),
            crate::capacity::DEFAULT_IMPLEMENTATION_GAP_DB,
        )
    }

    /// Transmit energy per delivered bit (J/bit) at the achievable rate.
    ///
    /// Returns `f64::INFINITY` when the link supports no positive rate.
    pub fn energy_per_bit_j(&self) -> f64 {
        let rate = self.achievable_rate_bps();
        if rate > 0.0 {
            self.tx.tx_power_w / rate
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for r in [0.001, 0.5, 1.0, 2.0, 1000.0] {
            assert!((from_db(to_db(r)) - r).abs() / r < 1e-12);
        }
    }

    #[test]
    fn three_db_is_factor_two() {
        assert!((from_db(3.0103) - 2.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn db_of_zero_panics() {
        to_db(0.0);
    }

    #[test]
    fn fspl_textbook_value() {
        // Classic check: 1 km at 2.4 GHz ≈ 100 dB.
        let fspl = free_space_path_loss_db(1_000.0, 2.4e9);
        assert!((fspl - 100.05).abs() < 0.1, "{fspl}");
    }

    #[test]
    fn fspl_grows_6db_per_distance_doubling() {
        let l1 = free_space_path_loss_db(1.0e6, 2.2e9);
        let l2 = free_space_path_loss_db(2.0e6, 2.2e9);
        assert!((l2 - l1 - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn eirp_combines_power_and_gain() {
        let t = RfTerminal::smallsat();
        assert!((t.eirp_dbw() - (to_db(2.0) + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn s_band_isl_closes_at_short_range() {
        // Two smallsats 500 km apart on S-band should achieve megabit-class
        // rates — the paper's "tried and tested" RF ISL regime.
        let link = RfLink {
            tx: RfTerminal::smallsat(),
            rx: RfTerminal::smallsat(),
            band: RfBand::S,
            distance_m: 500_000.0,
            extra_loss_db: 0.0,
        };
        let rate = link.achievable_rate_bps();
        assert!(
            (1.0e5..5.0e7).contains(&rate),
            "S-band 500 km rate {rate} b/s"
        );
    }

    #[test]
    fn rate_decreases_with_distance() {
        let mk = |d| RfLink {
            tx: RfTerminal::smallsat(),
            rx: RfTerminal::smallsat(),
            band: RfBand::S,
            distance_m: d,
            extra_loss_db: 0.0,
        };
        assert!(mk(500_000.0).achievable_rate_bps() > mk(2_000_000.0).achievable_rate_bps());
    }

    #[test]
    fn gateway_outperforms_smallsat() {
        let small = RfLink {
            tx: RfTerminal::smallsat(),
            rx: RfTerminal::smallsat(),
            band: RfBand::Ku,
            distance_m: 1_000_000.0,
            extra_loss_db: 0.0,
        };
        let gw = RfLink {
            tx: RfTerminal::gateway(),
            rx: RfTerminal::gateway(),
            band: RfBand::Ku,
            distance_m: 1_000_000.0,
            extra_loss_db: 0.0,
        };
        assert!(gw.achievable_rate_bps() > small.achievable_rate_bps() * 10.0);
    }

    #[test]
    fn extra_loss_reduces_cnr_by_that_amount() {
        let mut link = RfLink {
            tx: RfTerminal::midsat(),
            rx: RfTerminal::midsat(),
            band: RfBand::Ku,
            distance_m: 1_000_000.0,
            extra_loss_db: 0.0,
        };
        let c0 = link.cnr_db();
        link.extra_loss_db = 3.0;
        assert!((c0 - link.cnr_db() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_per_bit_finite_on_closing_link() {
        let link = RfLink {
            tx: RfTerminal::midsat(),
            rx: RfTerminal::midsat(),
            band: RfBand::S,
            distance_m: 1_000_000.0,
            extra_loss_db: 0.0,
        };
        let e = link.energy_per_bit_j();
        assert!(e.is_finite() && e > 0.0);
    }

    #[test]
    fn degenerate_distance_has_zero_rate() {
        for d in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let link = RfLink {
                tx: RfTerminal::midsat(),
                rx: RfTerminal::midsat(),
                band: RfBand::S,
                distance_m: d,
                extra_loss_db: 0.0,
            };
            assert_eq!(
                link.achievable_rate_bps().to_bits(),
                0.0f64.to_bits(),
                "d = {d}"
            );
            assert_eq!(link.energy_per_bit_j(), f64::INFINITY, "d = {d}");
        }
    }
}
