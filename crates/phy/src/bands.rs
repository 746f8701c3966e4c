//! Frequency bands used in the OpenSpace architecture.
//!
//! §2.1 of the paper: RF ISLs reuse the S- and UHF-band spectra flown on
//! prior small-satellite missions \[23\]; ground links follow today's
//! satellite-broadband practice in the Ku-band \[18\]; Ka is included for
//! completeness (gateway feeder links in modern constellations).

/// An RF band with its OpenSpace-assigned center frequency and bandwidth.
///
/// The numbers are representative values from the cited literature, not a
/// regulatory allocation table: UHF and S from the small-sat ISL survey
/// (Radhakrishnan et al. 2016), Ku from the Starlink downlink structure
/// paper (Humphreys et al. 2023).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfBand {
    /// UHF band: 435 MHz class, the minimal small-sat transceiver.
    Uhf,
    /// S band: 2.2 GHz class, the paper's preferred common ISL band.
    S,
    /// X band: 8.4 GHz class, mid-tier downlinks.
    X,
    /// Ku band: 12 GHz class, user/ground links (Starlink practice).
    Ku,
    /// Ka band: 27 GHz class, gateway feeder links.
    Ka,
}

impl RfBand {
    /// Representative center frequency (Hz).
    pub fn center_frequency_hz(self) -> f64 {
        match self {
            Self::Uhf => 435.0e6,
            Self::S => 2.2e9,
            Self::X => 8.4e9,
            Self::Ku => 12.0e9,
            Self::Ka => 27.0e9,
        }
    }

    /// Representative channel bandwidth (Hz) available to one link.
    pub fn channel_bandwidth_hz(self) -> f64 {
        match self {
            Self::Uhf => 25.0e3,
            Self::S => 5.0e6,
            Self::X => 50.0e6,
            Self::Ku => 240.0e6, // Starlink Ku downlink channel width
            Self::Ka => 500.0e6,
        }
    }

    /// All bands, ascending in frequency.
    pub fn all() -> [RfBand; 5] {
        [Self::Uhf, Self::S, Self::X, Self::Ku, Self::Ka]
    }

    /// Human-readable band name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Uhf => "UHF",
            Self::S => "S",
            Self::X => "X",
            Self::Ku => "Ku",
            Self::Ka => "Ka",
        }
    }
}

impl std::fmt::Display for RfBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Optical carrier used by laser ISL terminals (1550 nm telecom C-band,
/// the wavelength the commercial terminals the paper costs out operate at).
pub const OPTICAL_WAVELENGTH_M: f64 = 1_550e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_ascend_in_frequency() {
        let all = RfBand::all();
        for w in all.windows(2) {
            assert!(w[0].center_frequency_hz() < w[1].center_frequency_hz());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(RfBand::Ku.to_string(), "Ku");
        assert_eq!(RfBand::Uhf.to_string(), "UHF");
    }

    #[test]
    fn higher_bands_offer_more_bandwidth() {
        assert!(RfBand::S.channel_bandwidth_hz() > RfBand::Uhf.channel_bandwidth_hz());
        assert!(RfBand::Ka.channel_bandwidth_hz() > RfBand::Ku.channel_bandwidth_hz());
    }
}
