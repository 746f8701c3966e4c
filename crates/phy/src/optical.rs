//! Optical (laser) inter-satellite links.
//!
//! §2.1: laser ISLs offer higher throughput at lower energy cost than RF,
//! but the terminals are expensive (~$500k, ≥15 kg, 0.0234 m³ — the
//! ConLCT80-class numbers the paper cites) and the narrow beams demand a
//! pointing-acquisition-tracking (PAT) phase before data flows.
//!
//! The model: a Gaussian-beam link budget (free-space spreading of a
//! diffraction-limited beam between telescope apertures) plus a
//! configurable PAT acquisition time per terminal. Receiver sensitivity is
//! expressed in photons/bit, the standard figure for coherent/APD optical
//! receivers.

use crate::antenna::{beamwidth_rad, pointing_loss_db};
use crate::bands::OPTICAL_WAVELENGTH_M;

/// Planck constant (J·s).
const PLANCK_J_S: f64 = 6.626_070_15e-34;

/// An optical ISL terminal (one end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalTerminal {
    /// Optical transmit power (W).
    pub tx_power_w: f64,
    /// Telescope aperture diameter (m).
    pub aperture_m: f64,
    /// Receiver sensitivity (photons per bit at the target BER).
    pub photons_per_bit: f64,
    /// Residual RMS pointing error (rad) once in tracking.
    pub pointing_error_rad: f64,
    /// Time to acquire the peer after pairing (s): the PAT spiral-scan +
    /// lock phase.
    pub acquisition_time_s: f64,
    /// Modem ceiling (bit/s): at short range the photon budget exceeds
    /// what the electronics can modulate; the link rate clamps here.
    pub max_data_rate_bps: f64,
}

impl OpticalTerminal {
    /// A ConLCT80-class commercial terminal — the unit the paper costs at
    /// $500k / 15 kg / 0.0234 m³.
    pub fn conlct80_class() -> Self {
        Self {
            tx_power_w: 2.0,
            aperture_m: 0.08,
            photons_per_bit: 300.0, // DPSK + APD class sensitivity
            pointing_error_rad: 2.0e-6,
            acquisition_time_s: 30.0,
            max_data_rate_bps: 100.0e9,
        }
    }

    /// Transmit beam divergence (half-power full width, rad).
    pub fn beam_divergence_rad(&self) -> f64 {
        beamwidth_rad(self.aperture_m, OPTICAL_WAVELENGTH_M)
    }
}

/// Geometric + pointing link efficiency (linear) between two terminals at
/// `distance_m`: the fraction of transmitted photons collected by the
/// receive aperture, or zero (no link) unless `distance_m` is strictly
/// positive.
pub fn optical_link_efficiency(tx: &OpticalTerminal, rx: &OpticalTerminal, distance_m: f64) -> f64 {
    if distance_m.is_nan() || distance_m <= 0.0 {
        return 0.0;
    }
    // Beam radius at the receiver (half-power cone).
    let spot_radius_m = tx.beam_divergence_rad() / 2.0 * distance_m;
    let rx_radius_m = rx.aperture_m / 2.0;
    // Fraction of the (uniform-approximated) spot captured.
    let geometric = (rx_radius_m / spot_radius_m).powi(2).min(1.0);
    // Residual pointing jitter of both ends.
    let jitter = tx.pointing_error_rad.hypot(rx.pointing_error_rad);
    let pointing = 10f64.powf(-pointing_loss_db(jitter, tx.beam_divergence_rad()) / 10.0);
    geometric * pointing
}

/// Received optical power (W).
pub fn received_power_w(tx: &OpticalTerminal, rx: &OpticalTerminal, distance_m: f64) -> f64 {
    tx.tx_power_w * optical_link_efficiency(tx, rx, distance_m)
}

/// Achievable data rate (bit/s): received photon flux divided by the
/// receiver's photons-per-bit sensitivity; zero when `distance_m` is not
/// positive and finite (no link budget).
pub fn achievable_rate_bps(tx: &OpticalTerminal, rx: &OpticalTerminal, distance_m: f64) -> f64 {
    let photon_energy_j =
        PLANCK_J_S * openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S / OPTICAL_WAVELENGTH_M;
    let photon_rate = received_power_w(tx, rx, distance_m) / photon_energy_j;
    (photon_rate / rx.photons_per_bit).min(rx.max_data_rate_bps)
}

/// Transmit energy per delivered bit (J/bit).
pub fn energy_per_bit_j(tx: &OpticalTerminal, rx: &OpticalTerminal, distance_m: f64) -> f64 {
    let rate = achievable_rate_bps(tx, rx, distance_m);
    if rate > 0.0 {
        tx.tx_power_w / rate
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term() -> OpticalTerminal {
        OpticalTerminal::conlct80_class()
    }

    #[test]
    fn efficiency_below_one_and_decreasing() {
        let t = term();
        let e1 = optical_link_efficiency(&t, &t, 500_000.0);
        let e2 = optical_link_efficiency(&t, &t, 3_000_000.0);
        assert!(e1 <= 1.0 && e1 > 0.0);
        assert!(e2 < e1);
    }

    #[test]
    fn gbps_class_at_leo_ranges() {
        // The paper's premise: laser ISLs deliver far more than RF. A
        // ConLCT80-class pair at 2000 km should be in the Gbps regime.
        let t = term();
        let rate = achievable_rate_bps(&t, &t, 2_000_000.0);
        assert!(
            (1.0e8..1.0e12).contains(&rate),
            "optical rate at 2000 km: {rate} b/s"
        );
    }

    #[test]
    fn optical_beats_rf_on_energy_per_bit() {
        use crate::bands::RfBand;
        use crate::linkbudget::{RfLink, RfTerminal};
        let d = 1_500_000.0;
        let rf = RfLink {
            tx: RfTerminal::midsat(),
            rx: RfTerminal::midsat(),
            band: RfBand::S,
            distance_m: d,
            extra_loss_db: 0.0,
        };
        let t = term();
        assert!(
            energy_per_bit_j(&t, &t, d) < rf.energy_per_bit_j() / 10.0,
            "optical {} vs RF {}",
            energy_per_bit_j(&t, &t, d),
            rf.energy_per_bit_j()
        );
    }

    #[test]
    fn rate_inverse_square_in_distance_below_modem_cap() {
        let t = term();
        let r1 = achievable_rate_bps(&t, &t, 3_000_000.0);
        let r2 = achievable_rate_bps(&t, &t, 6_000_000.0);
        assert!(
            r1 < t.max_data_rate_bps,
            "test distances must be photon-limited"
        );
        assert!((r1 / r2 - 4.0).abs() < 0.01, "ratio {}", r1 / r2);
    }

    #[test]
    fn short_range_rate_clamps_at_modem_ceiling() {
        let t = term();
        assert_eq!(achievable_rate_bps(&t, &t, 200_000.0), t.max_data_rate_bps);
    }

    #[test]
    fn no_photons_arrive_without_a_positive_distance() {
        let t = term();
        for d in [0.0, -0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(optical_link_efficiency(&t, &t, d).to_bits(), 0, "d = {d}");
            assert_eq!(received_power_w(&t, &t, d).to_bits(), 0, "d = {d}");
        }
    }

    #[test]
    fn degenerate_distance_has_zero_rate() {
        let t = term();
        for d in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rate = achievable_rate_bps(&t, &t, d);
            assert_eq!(rate.to_bits(), 0.0f64.to_bits(), "d = {d}");
            assert_eq!(energy_per_bit_j(&t, &t, d), f64::INFINITY, "d = {d}");
        }
    }
}
