//! Hop price formation.
//!
//! §3: "This cost model has the advantage of being adaptive to different
//! technical specifications of the underlying satellite links, since
//! awareness of hardware constraints of different satellites is inbuilt
//! into the cost of a specific routing path. Since RF-based ISLs are
//! likely to offer less bandwidth availability, these routes will likely
//! be cheaper … and will have looser QoS guarantees."
//!
//! The model: a hop's price per GiB is its amortized capex divided by the
//! traffic it can move over its amortization window. Laser hops
//! amortize a $500k terminal but move orders of magnitude more bits, so
//! their *price per GiB* can undercut RF while their *absolute* price per
//! hop-hour is higher — exactly the "adaptive to hardware" property.

/// Link-technology pricing inputs for one hop.
#[derive(Debug, Clone, Copy)]
pub struct HopEconomics {
    /// Terminal capex allocated to this link (USD) — both ends.
    pub terminal_capex_usd: f64,
    /// Link capacity (bit/s).
    pub capacity_bps: f64,
    /// Amortization window (s) — terminal lifetime on orbit.
    pub amortization_s: f64,
    /// Expected long-run utilization in `(0, 1]` (links don't sell 100%).
    pub expected_utilization: f64,
}

impl HopEconomics {
    /// An RF ISL hop: two $45k transceivers, 5-year life.
    pub fn rf_isl(capacity_bps: f64) -> Self {
        Self {
            terminal_capex_usd: 2.0 * 45_000.0,
            capacity_bps,
            amortization_s: 5.0 * 365.25 * 86_400.0,
            expected_utilization: 0.3,
        }
    }

    /// A laser ISL hop: two $500k terminals (the paper's figure), 5-year
    /// life.
    pub fn laser_isl(capacity_bps: f64) -> Self {
        Self {
            terminal_capex_usd: 2.0 * 500_000.0,
            capacity_bps,
            amortization_s: 5.0 * 365.25 * 86_400.0,
            expected_utilization: 0.3,
        }
    }

    /// Break-even price (USD per GiB) at the expected utilization.
    pub fn base_price_usd_per_gib(&self) -> f64 {
        assert!(self.capacity_bps > 0.0, "capacity must be positive");
        assert!(
            self.expected_utilization > 0.0 && self.expected_utilization <= 1.0,
            "utilization must be in (0,1]"
        );
        assert!(self.amortization_s > 0.0, "amortization must be positive");
        let lifetime_bytes =
            self.capacity_bps * self.expected_utilization * self.amortization_s / 8.0;
        self.terminal_capex_usd / (lifetime_bytes / (1024.0 * 1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RF_BPS: f64 = 5.0e6; // S-band class
    const LASER_BPS: f64 = 10.0e9; // optical class

    #[test]
    fn laser_per_gib_undercuts_rf_despite_capex() {
        // $1M of laser terminals moving 10 Gbit/s beats $90k of RF moving
        // 5 Mbit/s on price per byte.
        let rf = HopEconomics::rf_isl(RF_BPS).base_price_usd_per_gib();
        let laser = HopEconomics::laser_isl(LASER_BPS).base_price_usd_per_gib();
        assert!(laser < rf / 10.0, "laser {laser} vs rf {rf}");
    }

    #[test]
    fn rf_hop_is_cheaper_in_absolute_capex() {
        // The paper's other side: the RF terminal itself is the accessible
        // investment.
        assert!(
            HopEconomics::rf_isl(RF_BPS).terminal_capex_usd
                < HopEconomics::laser_isl(LASER_BPS).terminal_capex_usd / 10.0
        );
    }

    #[test]
    fn base_price_is_positive_and_finite() {
        for h in [
            HopEconomics::rf_isl(RF_BPS),
            HopEconomics::laser_isl(LASER_BPS),
        ] {
            let p = h.base_price_usd_per_gib();
            assert!(p.is_finite() && p > 0.0, "price {p}");
        }
    }

    #[test]
    fn rf_price_is_dollars_not_micros() {
        // Sanity on magnitude: an S-band ISL at 30% utilization for 5
        // years moves ~29k GiB; $90k capex → an order of $3/GiB.
        let p = HopEconomics::rf_isl(RF_BPS).base_price_usd_per_gib();
        assert!((0.5..20.0).contains(&p), "RF price {p} USD/GiB");
    }
}
