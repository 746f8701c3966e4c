//! Channel capacity and achievable-rate models.
//!
//! Shannon capacity gives the ceiling; real modems operate some dB away
//! from it. We model the achievable rate as Shannon capacity evaluated at
//! an SNR backed off by an implementation gap, then clamped by the highest
//! spectral efficiency the modem supports (a DVB-S2X-like 4096APSK ceiling
//! of ~6 bit/s/Hz for RF; optical terminals are treated separately in
//! [`crate::optical`]).

/// Default gap to capacity (dB) of a modern coded modem (LDPC + APSK).
pub const DEFAULT_IMPLEMENTATION_GAP_DB: f64 = 3.0;

/// Maximum spectral efficiency (bit/s/Hz) of the RF modem model.
pub const MAX_SPECTRAL_EFFICIENCY: f64 = 6.0;

/// Shannon capacity (bit/s) of an AWGN channel.
///
/// `C = B · log2(1 + SNR)`. Negative SNR (linear) is treated as zero
/// capacity rather than a panic: deep fades are normal operating input.
pub fn shannon_capacity_bps(bandwidth_hz: f64, snr_linear: f64) -> f64 {
    assert!(bandwidth_hz >= 0.0, "bandwidth must be non-negative");
    if snr_linear <= 0.0 {
        return 0.0;
    }
    bandwidth_hz * (1.0 + snr_linear).log2()
}

/// Achievable rate (bit/s) after an implementation gap (dB) and the modem's
/// spectral-efficiency ceiling.
pub fn achievable_rate_bps(bandwidth_hz: f64, snr_linear: f64, gap_db: f64) -> f64 {
    assert!(gap_db >= 0.0, "implementation gap must be non-negative");
    let effective_snr = snr_linear / 10f64.powf(gap_db / 10.0);
    let c = shannon_capacity_bps(bandwidth_hz, effective_snr);
    c.min(bandwidth_hz * MAX_SPECTRAL_EFFICIENCY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_at_zero_snr_is_zero() {
        assert_eq!(shannon_capacity_bps(1e6, 0.0), 0.0);
        assert_eq!(shannon_capacity_bps(1e6, -1.0), 0.0);
    }

    #[test]
    fn snr_one_gives_one_bit_per_hz() {
        assert!((shannon_capacity_bps(1e6, 1.0) - 1e6).abs() < 1.0);
    }

    #[test]
    fn capacity_monotone_in_snr_and_bandwidth() {
        assert!(shannon_capacity_bps(1e6, 10.0) > shannon_capacity_bps(1e6, 5.0));
        assert!(shannon_capacity_bps(2e6, 5.0) > shannon_capacity_bps(1e6, 5.0));
    }

    #[test]
    fn gap_reduces_rate() {
        let no_gap = achievable_rate_bps(1e6, 100.0, 0.0);
        let gapped = achievable_rate_bps(1e6, 100.0, 3.0);
        assert!(gapped < no_gap);
    }

    #[test]
    fn rate_saturates_at_spectral_ceiling() {
        let r = achievable_rate_bps(1e6, 1e12, 0.0);
        assert_eq!(r, 1e6 * MAX_SPECTRAL_EFFICIENCY);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_gap_panics() {
        achievable_rate_bps(1e6, 1.0, -1.0);
    }
}
