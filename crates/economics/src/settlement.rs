//! Settlement: turning reconciled byte counts into money.
//!
//! §3: "The precise monetary amounts that ISPs charge to carry said
//! traffic is left to agreements between individual ISPs in OpenSpace,
//! much like in BGP." A [`PriceBook`] holds those bilateral rates; a
//! [`SettlementMatrix`] nets invoices into per-operator positions.

use crate::ledger::TrafficLedger;
use openspace_protocol::types::OperatorId;
use std::collections::BTreeMap;

/// Bilateral transit prices (USD per GiB carried).
#[derive(Debug, Clone, Default)]
pub struct PriceBook {
    /// `(carrier, origin) → USD/GiB` the carrier charges that origin.
    rates: BTreeMap<(OperatorId, OperatorId), f64>,
    /// Rate used when no bilateral agreement exists.
    pub default_rate_usd_per_gib: f64,
}

impl PriceBook {
    /// A price book with the given default rate.
    pub fn new(default_rate_usd_per_gib: f64) -> Self {
        assert!(default_rate_usd_per_gib >= 0.0, "negative default rate");
        Self {
            rates: BTreeMap::new(),
            default_rate_usd_per_gib,
        }
    }

    /// Set the rate `carrier` charges `origin`.
    pub fn set_rate(&mut self, carrier: OperatorId, origin: OperatorId, usd_per_gib: f64) {
        assert!(usd_per_gib >= 0.0, "negative rate");
        self.rates.insert((carrier, origin), usd_per_gib);
    }

    /// The rate `carrier` charges `origin`.
    pub fn rate(&self, carrier: OperatorId, origin: OperatorId) -> f64 {
        self.rates
            .get(&(carrier, origin))
            .copied()
            .unwrap_or(self.default_rate_usd_per_gib)
    }
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Net settlement positions computed from a set of ledgers.
#[derive(Debug, Clone, Default)]
pub struct SettlementMatrix {
    /// `(payer, payee) → USD owed`.
    invoices: BTreeMap<(OperatorId, OperatorId), f64>,
}

impl SettlementMatrix {
    /// Build the matrix from the *agreed* traffic in each operator's
    /// ledger. Uses the carrier's own ledger as the billing source (the
    /// cross-verification step in [`crate::ledger::reconcile`] is what
    /// makes that trustworthy).
    pub fn from_ledgers(ledgers: &BTreeMap<OperatorId, TrafficLedger>, prices: &PriceBook) -> Self {
        Self::from_ledgers_recorded(ledgers, prices, &mut openspace_telemetry::NullRecorder)
    }

    /// [`from_ledgers`](Self::from_ledgers) with telemetry: counts the
    /// billable ledger items it turned into invoice lines
    /// (`settlement.records_settled`) and reports the gross invoiced
    /// volume across all operator pairs (`settlement.gross_usd` gauge).
    pub fn from_ledgers_recorded(
        ledgers: &BTreeMap<OperatorId, TrafficLedger>,
        prices: &PriceBook,
        rec: &mut dyn openspace_telemetry::Recorder,
    ) -> Self {
        let mut m = Self::default();
        let mut settled = 0u64;
        let mut gross = 0.0f64;
        for (&carrier, ledger) in ledgers {
            for (key, &bytes) in ledger.iter() {
                // Bill only items where this ledger's owner is the carrier
                // and someone else pays.
                if key.carrier == carrier && key.origin != carrier {
                    let usd = bytes as f64 / GIB * prices.rate(carrier, key.origin);
                    *m.invoices.entry((key.origin, carrier)).or_insert(0.0) += usd;
                    settled += 1;
                    gross += usd;
                }
            }
        }
        rec.add("settlement.records_settled", settled);
        rec.gauge("settlement.gross_usd", gross);
        m
    }

    /// Gross amount `payer` owes `payee`.
    pub fn owed(&self, payer: OperatorId, payee: OperatorId) -> f64 {
        self.invoices.get(&(payer, payee)).copied().unwrap_or(0.0)
    }

    /// Net position of one operator across the federation: positive means
    /// it receives money overall.
    pub fn net_position(&self, op: OperatorId) -> f64 {
        let mut net = 0.0;
        for (&(payer, payee), &usd) in &self.invoices {
            if payee == op {
                net += usd;
            }
            if payer == op {
                net -= usd;
            }
        }
        net
    }

    /// All operators appearing in the matrix.
    pub fn operators(&self) -> Vec<OperatorId> {
        let mut ops: Vec<OperatorId> = self.invoices.keys().flat_map(|&(a, b)| [a, b]).collect();
        ops.sort_unstable();
        ops.dedup();
        ops
    }

    /// Sum of net positions — must be zero (money is conserved).
    pub fn total_imbalance(&self) -> f64 {
        self.operators()
            .iter()
            .map(|&op| self.net_position(op))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::BillingKey;

    fn key(flow: u64, origin: u32, carrier: u32) -> BillingKey {
        BillingKey {
            flow_id: flow,
            origin: OperatorId(origin),
            carrier: OperatorId(carrier),
            interval_start_ms: 0,
        }
    }

    fn ledgers_two_ops() -> BTreeMap<OperatorId, TrafficLedger> {
        let mut l1 = TrafficLedger::new();
        let mut l2 = TrafficLedger::new();
        // Op 2 carried 2 GiB of op 1's traffic.
        l2.record_raw(key(1, 1, 2), 2 * 1024 * 1024 * 1024);
        // Op 1 carried 1 GiB of op 2's traffic.
        l1.record_raw(key(2, 2, 1), 1024 * 1024 * 1024);
        BTreeMap::from([(OperatorId(1), l1), (OperatorId(2), l2)])
    }

    #[test]
    fn invoices_follow_carrier_ledgers() {
        let prices = PriceBook::new(10.0);
        let m = SettlementMatrix::from_ledgers(&ledgers_two_ops(), &prices);
        assert!((m.owed(OperatorId(1), OperatorId(2)) - 20.0).abs() < 1e-9);
        assert!((m.owed(OperatorId(2), OperatorId(1)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn netting_works() {
        let prices = PriceBook::new(10.0);
        let m = SettlementMatrix::from_ledgers(&ledgers_two_ops(), &prices);
        assert!((m.net_position(OperatorId(1)) + 10.0).abs() < 1e-9);
        assert!((m.net_position(OperatorId(2)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn money_is_conserved() {
        let prices = PriceBook::new(7.5);
        let m = SettlementMatrix::from_ledgers(&ledgers_two_ops(), &prices);
        assert!(m.total_imbalance().abs() < 1e-9);
    }

    #[test]
    fn bilateral_rates_override_default() {
        let mut prices = PriceBook::new(10.0);
        prices.set_rate(OperatorId(2), OperatorId(1), 3.0); // discount deal
        let m = SettlementMatrix::from_ledgers(&ledgers_two_ops(), &prices);
        assert!((m.owed(OperatorId(1), OperatorId(2)) - 6.0).abs() < 1e-9);
        assert!((m.owed(OperatorId(2), OperatorId(1)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn own_traffic_not_billed() {
        let mut l1 = TrafficLedger::new();
        l1.record_raw(key(5, 1, 1), GIB as u64); // op 1 carrying its own flow
        let ledgers = BTreeMap::from([(OperatorId(1), l1)]);
        let m = SettlementMatrix::from_ledgers(&ledgers, &PriceBook::new(10.0));
        assert!(m.operators().is_empty());
    }

    #[test]
    fn rf_cheaper_than_laser_rates_express_paper_claim() {
        // §3: RF routes are cheaper with looser QoS. Encode as rates and
        // check the arithmetic holds through settlement.
        let mut prices = PriceBook::new(0.0);
        prices.set_rate(OperatorId(2), OperatorId(1), 2.0); // RF carrier
        prices.set_rate(OperatorId(3), OperatorId(1), 8.0); // laser carrier
        let mut l2 = TrafficLedger::new();
        let mut l3 = TrafficLedger::new();
        l2.record_raw(key(1, 1, 2), GIB as u64);
        l3.record_raw(key(2, 1, 3), GIB as u64);
        let ledgers = BTreeMap::from([(OperatorId(2), l2), (OperatorId(3), l3)]);
        let m = SettlementMatrix::from_ledgers(&ledgers, &prices);
        assert!(m.owed(OperatorId(1), OperatorId(3)) > m.owed(OperatorId(1), OperatorId(2)) * 3.0);
    }

    #[test]
    #[should_panic(expected = "negative rate")]
    fn negative_rate_panics() {
        PriceBook::new(1.0).set_rate(OperatorId(1), OperatorId(2), -1.0);
    }

    #[test]
    fn recorded_settlement_counts_items_and_gross() {
        use openspace_telemetry::{JsonValue, MemoryRecorder};
        let prices = PriceBook::new(10.0);
        let ledgers = ledgers_two_ops();
        let plain = SettlementMatrix::from_ledgers(&ledgers, &prices);
        let mut rec = MemoryRecorder::new();
        let recorded = SettlementMatrix::from_ledgers_recorded(&ledgers, &prices, &mut rec);
        assert_eq!(
            plain.owed(OperatorId(1), OperatorId(2)).to_bits(),
            recorded.owed(OperatorId(1), OperatorId(2)).to_bits()
        );
        assert_eq!(rec.counter("settlement.records_settled"), 2);
        // 2 GiB @ 10 + 1 GiB @ 10 = 30 USD gross.
        let dump = rec.deterministic_json();
        let gross = dump
            .get("gauges")
            .and_then(|g| g.get("settlement.gross_usd"));
        let Some(&JsonValue::Num(gross)) = gross else {
            panic!("no gross settlement gauge");
        };
        assert!((gross - 30.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_metrics_report_records_and_bytes() {
        use openspace_telemetry::MemoryRecorder;
        let mut l = TrafficLedger::new();
        l.record_raw(key(1, 1, 2), 100);
        l.record_raw(key(2, 2, 1), 50);
        let mut rec = MemoryRecorder::new();
        l.metrics_into(&mut rec);
        assert_eq!(rec.counter("ledger.records"), 2);
        assert_eq!(rec.counter("ledger.bytes"), 150);
    }
}
