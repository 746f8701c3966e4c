//! Beacon scheduling.
//!
//! §2.2: "all OpenSpace satellites advertise their presence via
//! standardized periodic beacons that include orbital information". This
//! module answers the two engineering questions beacons raise: how much
//! airtime do they cost, and how long does a newcomer wait to discover a
//! neighbor?

/// A periodic beacon schedule on a broadcast RF channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconSchedule {
    /// Beacon repetition period (s).
    pub period_s: f64,
    /// Beacon frame length (bits) — orbital elements + capability TLVs.
    pub beacon_bits: u32,
    /// Broadcast channel bit rate (bit/s).
    pub bit_rate_bps: f64,
}

impl BeaconSchedule {
    /// OpenSpace default: a 1 s beacon period on the S-band common
    /// channel, with a ~1 kbit beacon (the wire format in
    /// `openspace-protocol` is ~100 bytes).
    pub fn openspace_default() -> Self {
        Self {
            period_s: 1.0,
            beacon_bits: 1_024,
            bit_rate_bps: 5.0e6,
        }
    }

    /// Airtime of one beacon (s).
    pub fn beacon_airtime_s(&self) -> f64 {
        assert!(self.bit_rate_bps > 0.0, "bit rate must be positive");
        self.beacon_bits as f64 / self.bit_rate_bps
    }

    /// Fraction of channel time spent on beacons from `n_neighbors`
    /// satellites sharing the broadcast channel.
    pub fn overhead_fraction(&self, n_neighbors: usize) -> f64 {
        assert!(self.period_s > 0.0, "period must be positive");
        (self.beacon_airtime_s() * n_neighbors as f64 / self.period_s).min(1.0)
    }

    /// Expected discovery latency (s) for a newcomer that starts listening
    /// at a uniformly random phase: half the period plus the airtime.
    pub fn mean_discovery_latency_s(&self) -> f64 {
        self.period_s / 2.0 + self.beacon_airtime_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_overhead_is_negligible() {
        let b = BeaconSchedule::openspace_default();
        // Even with 50 neighbors in range the beacon tax stays ~1%.
        assert!(b.overhead_fraction(50) < 0.02);
    }

    #[test]
    fn overhead_scales_linearly_then_clamps() {
        let b = BeaconSchedule::openspace_default();
        let o10 = b.overhead_fraction(10);
        let o20 = b.overhead_fraction(20);
        assert!((o20 / o10 - 2.0).abs() < 1e-9);
        assert_eq!(b.overhead_fraction(10_000_000), 1.0);
    }

    #[test]
    fn discovery_latency_bounds() {
        let b = BeaconSchedule::openspace_default();
        assert!(b.mean_discovery_latency_s() > b.period_s / 2.0);
    }

    #[test]
    fn faster_beacons_are_found_faster() {
        let slow = BeaconSchedule {
            period_s: 10.0,
            ..BeaconSchedule::openspace_default()
        };
        let fast = BeaconSchedule::openspace_default();
        assert!(fast.mean_discovery_latency_s() < slow.mean_discovery_latency_s());
    }
}
