//! The traffic model: one flow's packet arrival process.
//!
//! §5(1) of the paper calls for "modelling a potential user base along
//! with potential user traffic patterns". A flow offers fixed-size
//! packets at a rate under one of three classic arrival processes
//! ([`TrafficKind`]), and [`Arrivals`] draws its arrival times from a
//! seeded [`SimRng`], so a flow's arrivals are a pure function of its
//! parameters and its stream:
//!
//! * CBR — constant bit rate (voice, telemetry).
//! * Poisson — memoryless arrivals at the same mean rate (aggregate web
//!   traffic).
//! * On/off — exponential ON/OFF bursts at a peak rate (video, bulk
//!   sync), the heavy-tailed-ish load that stresses reactive routing.
//!
//! The packet simulator (`core::netsim`) drives one [`Arrivals`] per
//! flow, and the demand layer (`openspace-demand`) tags each emitted
//! flow with its [`TrafficKind`].

use crate::rng::SimRng;

/// Arrival process of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficKind {
    /// Constant bit rate.
    Cbr,
    /// Poisson arrivals at the same mean rate.
    Poisson,
    /// Exponential on/off bursts: during an ON period packets leave
    /// back-to-back at the flow's rate (the *peak* rate); OFF periods
    /// are silent. The first packet of every ON period goes out the
    /// instant the period opens.
    OnOff {
        /// Mean ON-period duration (s).
        mean_on_s: f64,
        /// Mean OFF-period duration (s).
        mean_off_s: f64,
    },
}

/// The arrival process of one flow: its packet size, rate, kind and
/// random stream. [`start`](Self::start) gives the first arrival,
/// [`next`](Self::next) each one after.
///
/// Every flow starts at a random phase within one packet gap, which
/// keeps same-rate flows from injecting in lockstep.
#[derive(Debug, Clone)]
pub struct Arrivals {
    kind: TrafficKind,
    rate_bps: f64,
    packet_bytes: u32,
    /// End of the current ON period (on/off flows only).
    on_until_s: f64,
    rng: SimRng,
}

impl Arrivals {
    /// The arrivals of a flow offering `rate_bps` (the peak rate for
    /// on/off) in `packet_bytes` packets, drawing from `rng`.
    ///
    /// # Panics
    /// Panics unless the rate and packet size are positive and the
    /// packet gap `packet_bytes·8/rate_bps` is finite.
    pub fn new(kind: TrafficKind, rate_bps: f64, packet_bytes: u32, rng: SimRng) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        assert!(packet_bytes > 0, "packets must be non-empty");
        let flow = Self {
            kind,
            rate_bps,
            packet_bytes,
            on_until_s: 0.0,
            rng,
        };
        assert!(flow.gap_s().is_finite(), "packet gap must be finite");
        flow
    }

    /// Packet size (bytes).
    pub fn packet_bytes(&self) -> u32 {
        self.packet_bytes
    }

    /// Mean gap between packets at the flow's rate (s).
    pub fn gap_s(&self) -> f64 {
        self.packet_bytes as f64 * 8.0 / self.rate_bps
    }

    /// Start the flow at `now_s`: draw its phase and, for on/off flows,
    /// its first ON period, which opens with the first packet. Returns
    /// the first arrival time. Restarting a flow draws a fresh phase.
    pub fn start(&mut self, now_s: f64) -> f64 {
        let phase = self.rng.uniform() * self.packet_bytes as f64 * 8.0 / self.rate_bps;
        let at = now_s + phase;
        if let TrafficKind::OnOff { mean_on_s, .. } = self.kind {
            self.on_until_s = at + self.rng.exponential(1.0 / mean_on_s);
        }
        at
    }

    /// The arrival after the one at `now_s`. May overflow to infinity
    /// when a gap is drawn near `f64::MAX`.
    pub fn next(&mut self, now_s: f64) -> f64 {
        let gap = self.gap_s();
        let delay = match self.kind {
            TrafficKind::Cbr => gap,
            TrafficKind::Poisson => self.rng.exponential(1.0 / gap),
            TrafficKind::OnOff {
                mean_on_s,
                mean_off_s,
            } => {
                // Next slot one peak gap on; if that falls past the ON
                // horizon, jump OFF gaps until a slot lands inside an
                // ON period, whose first packet goes out the instant it
                // opens.
                let mut at = now_s + gap;
                while at > self.on_until_s {
                    let off = self.rng.exponential(1.0 / mean_off_s);
                    let on = self.rng.exponential(1.0 / mean_on_s);
                    at = self.on_until_s + off;
                    self.on_until_s = at + on;
                }
                at - now_s
            }
        };
        now_s + delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(kind: TrafficKind, rate_bps: f64, packet_bytes: u32, seed: u64) -> Arrivals {
        Arrivals::new(kind, rate_bps, packet_bytes, SimRng::new(seed))
    }

    fn onoff(mean_on_s: f64, mean_off_s: f64) -> TrafficKind {
        TrafficKind::OnOff {
            mean_on_s,
            mean_off_s,
        }
    }

    /// Every arrival from a start at 0 up to `horizon_s`.
    fn times_until(a: &mut Arrivals, horizon_s: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = a.start(0.0);
        while t <= horizon_s {
            out.push(t);
            t = a.next(t);
        }
        out
    }

    #[test]
    fn cbr_is_evenly_spaced() {
        let mut a = flow(TrafficKind::Cbr, 8_000.0, 100, 1); // 10 pkts/s
        let arr = times_until(&mut a, 1.0);
        // The phase lies within the first gap.
        assert!(arr[0] < 0.1);
        assert_eq!(arr.len(), 10);
        for w in arr.windows(2) {
            assert!((w[1] - w[0] - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn cbr_offered_load_exact() {
        let a = flow(TrafficKind::Cbr, 1_000_000.0, 1250, 0);
        assert_eq!(a.gap_s(), 0.01);
    }

    #[test]
    fn poisson_mean_rate_converges() {
        let mut a = flow(TrafficKind::Poisson, 80_000.0, 1000, 9); // 10 pkts/s
        let arr = times_until(&mut a, 1_000.0);
        let rate = arr.len() as f64 / 1_000.0;
        assert!((rate - 10.0).abs() < 0.5, "rate {rate}");
    }

    #[test]
    fn poisson_is_seed_deterministic() {
        let a = times_until(&mut flow(TrafficKind::Poisson, 1e5, 500, 3), 10.0);
        let b = times_until(&mut flow(TrafficKind::Poisson, 1e5, 500, 3), 10.0);
        assert_eq!(a, b);
    }

    #[test]
    fn onoff_long_run_load_matches_duty_cycle() {
        let mut a = flow(onoff(1.0, 3.0), 1e6, 1250, 5);
        let horizon = 2_000.0;
        let arr = times_until(&mut a, horizon);
        let measured = arr.len() as f64 * 1250.0 * 8.0 / horizon;
        // 1 Mbit/s at a 1-in-4 duty cycle: 250 kbit/s.
        let expected = 250_000.0;
        assert!(
            (measured - expected).abs() / expected < 0.15,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn onoff_has_silent_gaps() {
        let mut a = flow(onoff(0.5, 2.0), 1e6, 1250, 8);
        let arr = times_until(&mut a, 200.0);
        let max_gap = arr.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max);
        // With mean OFF of 2 s, gaps far beyond the 10 ms packet spacing
        // must appear.
        assert!(max_gap > 1.0, "max gap {max_gap}");
    }

    #[test]
    fn onoff_first_packet_is_at_on_period_start() {
        // The first ON period opens with a packet, at the flow's phase:
        // an on/off flow and a CBR flow on the same stream draw the same
        // phase, so their first arrivals agree bit for bit.
        for seed in 0..16 {
            let start = 2.5;
            let first = flow(onoff(1.0, 3.0), 1e6, 1250, seed).start(start);
            let cbr = flow(TrafficKind::Cbr, 1e6, 1250, seed).start(start);
            assert_eq!(first.to_bits(), cbr.to_bits(), "seed {seed}");
            assert!(first >= start && first < start + 0.01, "seed {seed}");
        }
    }

    #[test]
    fn onoff_packets_within_a_burst_stay_evenly_spaced() {
        let mut a = flow(onoff(5.0, 1.0), 1e6, 1250, 11);
        let interval = a.gap_s();
        let arr = times_until(&mut a, 50.0);
        // Consecutive packets are either one interval apart (same
        // burst) or separated by an OFF gap that lands on a fresh ON
        // start; nothing in between.
        for w in arr.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                (gap - interval).abs() < 1e-12 || gap > interval,
                "gap {gap}"
            );
        }
    }

    #[test]
    fn arrivals_are_time_monotone() {
        let mut a = flow(onoff(1.0, 1.0), 1e6, 1250, 2);
        let arr = times_until(&mut a, 100.0);
        for w in arr.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn cbr_zero_rate_panics() {
        flow(TrafficKind::Cbr, 0.0, 100, 0);
    }
}
