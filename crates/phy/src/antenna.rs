//! Antenna beamwidth and pointing-loss models.
//!
//! Used to compute the beam divergences and pointing losses that drive the
//! optical link budget.

/// Half-power beamwidth (rad) of a circular aperture:
/// `θ ≈ 1.22 λ / D` (diffraction limit, full width ≈ 70° λ/D in degrees).
pub fn beamwidth_rad(diameter_m: f64, wavelength_m: f64) -> f64 {
    assert!(diameter_m > 0.0 && wavelength_m > 0.0);
    1.22 * wavelength_m / diameter_m
}

/// Pointing loss (dB) for a Gaussian beam: offset `offset_rad` from
/// boresight with half-power beamwidth `beamwidth_rad`.
///
/// `L = 12 (θ/θ₃dB)²` dB — the standard parabolic approximation, valid to
/// about one beamwidth.
pub fn pointing_loss_db(offset_rad: f64, beamwidth_rad: f64) -> f64 {
    assert!(beamwidth_rad > 0.0, "beamwidth must be positive");
    12.0 * (offset_rad / beamwidth_rad).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beamwidth_shrinks_with_aperture() {
        assert!(beamwidth_rad(1.0, 0.025) < beamwidth_rad(0.5, 0.025));
    }

    #[test]
    fn optical_beam_is_microradians() {
        // 8 cm telescope at 1550 nm: θ ≈ 1.22·1.55e-6/0.08 ≈ 24 µrad.
        let bw = beamwidth_rad(0.08, 1.55e-6);
        assert!((bw * 1e6 - 23.6).abs() < 1.0, "{} urad", bw * 1e6);
    }

    #[test]
    fn boresight_has_no_pointing_loss() {
        assert_eq!(pointing_loss_db(0.0, 1e-3), 0.0);
    }

    #[test]
    fn half_beamwidth_offset_costs_3_db() {
        assert!((pointing_loss_db(0.5e-3, 1e-3) - 3.0).abs() < 1e-12);
    }
}
