//! Shared MAC-layer parameter types.

/// Timing and framing parameters common to the contention-based schemes.
///
/// Defaults are 802.11-flavored values scaled to a satellite channel: the
/// paper's §2.1 observation is that CSMA/CA's Inter-Frame Spacing and
/// backoff windows cost real latency at orbital propagation delays, so
/// these constants are the knobs the E5 experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacParams {
    /// Channel bit rate (bit/s).
    pub bit_rate_bps: f64,
    /// Slot time (s) — the backoff quantum.
    pub slot_time_s: f64,
    /// Short inter-frame space (s), before ACKs.
    pub sifs_s: f64,
    /// Distributed inter-frame space (s), before contention.
    pub difs_s: f64,
    /// Minimum contention window (slots), power of two minus one.
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// MAC payload size (bits).
    pub payload_bits: u32,
    /// Per-frame header overhead (bits).
    pub header_bits: u32,
    /// ACK frame size (bits).
    pub ack_bits: u32,
    /// Maximum retransmissions before a frame is dropped.
    pub max_retries: u32,
    /// One-way propagation delay (s). For ISLs this is milliseconds —
    /// orders of magnitude beyond the terrestrial channels CSMA/CA was
    /// designed for, which is exactly the paper's concern.
    pub propagation_delay_s: f64,
}

impl MacParams {
    /// An S-band ISL channel: 5 Mbit/s, 1000 km hop (3.3 ms propagation).
    pub fn s_band_isl() -> Self {
        Self {
            bit_rate_bps: 5.0e6,
            slot_time_s: 20e-6,
            sifs_s: 10e-6,
            difs_s: 50e-6,
            cw_min: 15,
            cw_max: 1023,
            payload_bits: 12_000,
            header_bits: 400,
            ack_bits: 112,
            max_retries: 7,
            propagation_delay_s: 3.3e-3,
        }
    }

    /// Time (s) to serialize a payload frame.
    pub fn frame_tx_time_s(&self) -> f64 {
        (self.payload_bits + self.header_bits) as f64 / self.bit_rate_bps
    }

    /// Time (s) to serialize an ACK.
    pub fn ack_tx_time_s(&self) -> f64 {
        self.ack_bits as f64 / self.bit_rate_bps
    }

    /// Validate invariants; called by the simulators.
    ///
    /// # Panics
    /// Panics on non-positive rates/times or `cw_min > cw_max`.
    pub fn validate(&self) {
        assert!(self.bit_rate_bps > 0.0, "bit rate must be positive");
        assert!(self.slot_time_s > 0.0, "slot time must be positive");
        assert!(self.sifs_s >= 0.0 && self.difs_s >= 0.0);
        assert!(self.cw_min <= self.cw_max, "cw_min must not exceed cw_max");
        assert!(self.payload_bits > 0, "payload must be non-empty");
        assert!(self.propagation_delay_s >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MacParams::s_band_isl().validate();
    }

    #[test]
    fn frame_time_consistent() {
        let p = MacParams::s_band_isl();
        assert!((p.frame_tx_time_s() - 12_400.0 / 5.0e6).abs() < 1e-12);
        assert!(p.ack_tx_time_s() < p.frame_tx_time_s());
    }

    #[test]
    #[should_panic(expected = "cw_min")]
    fn inverted_cw_panics() {
        let mut p = MacParams::s_band_isl();
        p.cw_min = 2048;
        p.validate();
    }
}
