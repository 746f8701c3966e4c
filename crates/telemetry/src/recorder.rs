//! The [`Recorder`] trait and its three implementations.
//!
//! Instrumented code paths take `&mut dyn Recorder` and call it with
//! string keys. Keys are dot-separated, lowercase, and stable — they are
//! the public schema of the metric dump (see DESIGN.md §4,
//! "Observability").
//!
//! * [`NullRecorder`] — every method is an empty body; the compiler
//!   reduces instrumentation to a virtual call that does nothing.
//! * [`MemoryRecorder`] — in-process aggregation with a deterministic
//!   dump and a replay-based [`merge`](MemoryRecorder::merge) so
//!   per-worker recorders fold into the same bits a serial run
//!   produces.
//! * [`JsonlExporter`](crate::manifest::jsonl_lines) — one JSON line
//!   per metric, derived from a `MemoryRecorder`.

use crate::json::JsonValue;
use openspace_sim::stats::Summary;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sink for instrumentation events.
///
/// All methods take `&mut self`: instrumented layers are
/// single-threaded (parallelism happens at the level of independent
/// tasks, each with its own recorder — see
/// [`openspace_sim::exec::parallel_map_seeded`]).
pub trait Recorder {
    /// Whether records are kept. Hot paths may skip building dynamic
    /// keys (e.g. per-flow histogram names) when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Increment the monotonic counter `key` by `delta`.
    fn add(&mut self, key: &str, delta: u64);

    /// Set the gauge `key` to `value` (last write wins).
    fn gauge(&mut self, key: &str, value: f64);

    /// Raise the high-water mark `key` to `value` if higher.
    fn gauge_max(&mut self, key: &str, value: f64);

    /// Add one sample to the histogram `key`.
    fn observe(&mut self, key: &str, value: f64);

    /// Record one completed span: `wall_s` of wall-clock time and
    /// `sim_s` of simulated time under `key`. Wall time lands in the
    /// non-deterministic section of dumps; sim time is deterministic.
    fn span(&mut self, key: &str, wall_s: f64, sim_s: f64);
}

/// The no-op recorder instrumented paths use by default.
///
/// Every method body is empty, so the cost of instrumentation on an
/// unrecorded run is one virtual call per event — within measurement
/// noise on the netsim kernel (see `benches/kernels.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&mut self, _key: &str, _delta: u64) {}
    fn gauge(&mut self, _key: &str, _value: f64) {}
    fn gauge_max(&mut self, _key: &str, _value: f64) {}
    fn observe(&mut self, _key: &str, _value: f64) {}
    fn span(&mut self, _key: &str, _wall_s: f64, _sim_s: f64) {}
}

/// Aggregated wall/sim time of one span key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Completed spans under this key.
    pub count: u64,
    /// Total wall-clock seconds (non-deterministic).
    pub wall_s: f64,
    /// Total simulated seconds (deterministic).
    pub sim_s: f64,
}

/// In-process aggregation with a deterministic dump.
///
/// Every key space lives in a `BTreeMap`, so iteration (and therefore
/// the JSON dump) is ordered by key, independent of insertion order.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    maxima: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Summary>,
    spans: BTreeMap<String, SpanAgg>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter value; 0 when never incremented.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// High-water mark, if ever raised.
    pub fn maximum(&self, key: &str) -> Option<f64> {
        self.maxima.get(key).copied()
    }

    /// Span aggregate under `key`, if any span completed.
    pub fn span_agg(&self, key: &str) -> Option<SpanAgg> {
        self.spans.get(key).copied()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.maxima.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Fold `other` into `self`.
    ///
    /// Merging per-task recorders **in task order** yields bit-identical
    /// aggregates to a single recorder fed the same events serially:
    /// counters add exactly (integers), maxima take `f64::max`
    /// (exact), gauges last-write-win (the later task overwrites), and
    /// histograms *replay* the other recorder's samples through
    /// [`Summary::merge`] rather than combining moments with Chan's
    /// formula, which would round differently than sequential
    /// accumulation.
    pub fn merge(&mut self, other: &MemoryRecorder) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.maxima {
            let slot = self.maxima.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *slot = slot.max(*v);
        }
        for (k, s) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(s);
        }
        for (k, s) in &other.spans {
            let slot = self.spans.entry(k.clone()).or_default();
            slot.count += s.count;
            slot.wall_s += s.wall_s;
            slot.sim_s += s.sim_s;
        }
    }

    /// The deterministic section of the dump: counters, gauges, maxima,
    /// histogram summaries, and span counts + sim time. No wall-clock
    /// field appears here; with a fixed seed this value is bit-identical
    /// across worker counts.
    pub fn deterministic_json(&mut self) -> JsonValue {
        let counters: Vec<(String, JsonValue)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Uint(*v)))
            .collect();
        let gauges: Vec<(String, JsonValue)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
            .collect();
        let maxima: Vec<(String, JsonValue)> = self
            .maxima
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
            .collect();
        let histograms: Vec<(String, JsonValue)> = self
            .histograms
            .iter_mut()
            .map(|(k, s)| {
                let body = JsonValue::object([
                    ("count", JsonValue::Uint(s.count() as u64)),
                    ("mean", JsonValue::Num(s.mean())),
                    ("min", JsonValue::Num(s.min())),
                    ("max", JsonValue::Num(s.max())),
                    ("p50", JsonValue::Num(s.median())),
                    ("p95", JsonValue::Num(s.p95())),
                    ("p99", JsonValue::Num(s.p99())),
                ]);
                (k.clone(), body)
            })
            .collect();
        let spans: Vec<(String, JsonValue)> = self
            .spans
            .iter()
            .map(|(k, s)| {
                let body = JsonValue::object([
                    ("count", JsonValue::Uint(s.count)),
                    ("sim_s", JsonValue::Num(s.sim_s)),
                ]);
                (k.clone(), body)
            })
            .collect();
        JsonValue::Object(vec![
            ("counters".into(), JsonValue::Object(counters)),
            ("gauges".into(), JsonValue::Object(gauges)),
            ("maxima".into(), JsonValue::Object(maxima)),
            ("histograms".into(), JsonValue::Object(histograms)),
            ("spans".into(), JsonValue::Object(spans)),
        ])
    }

    /// The non-deterministic wall-clock section: total wall seconds per
    /// span key. Kept apart from [`deterministic_json`] by contract.
    ///
    /// [`deterministic_json`]: MemoryRecorder::deterministic_json
    pub fn wall_json(&self) -> JsonValue {
        let spans: Vec<(String, JsonValue)> = self
            .spans
            .iter()
            .map(|(k, s)| (k.clone(), JsonValue::Num(s.wall_s)))
            .collect();
        JsonValue::Object(spans)
    }
}

impl Recorder for MemoryRecorder {
    fn add(&mut self, key: &str, delta: u64) {
        match self.counters.get_mut(key) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(key.to_owned(), delta);
            }
        }
    }

    fn gauge(&mut self, key: &str, value: f64) {
        match self.gauges.get_mut(key) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(key.to_owned(), value);
            }
        }
    }

    fn gauge_max(&mut self, key: &str, value: f64) {
        match self.maxima.get_mut(key) {
            Some(v) => *v = v.max(value),
            None => {
                self.maxima.insert(key.to_owned(), value);
            }
        }
    }

    fn observe(&mut self, key: &str, value: f64) {
        match self.histograms.get_mut(key) {
            Some(s) => s.add(value),
            None => {
                let mut s = Summary::new();
                s.add(value);
                self.histograms.insert(key.to_owned(), s);
            }
        }
    }

    fn span(&mut self, key: &str, wall_s: f64, sim_s: f64) {
        if !self.spans.contains_key(key) {
            self.spans.insert(key.to_owned(), SpanAgg::default());
        }
        let slot = self.spans.get_mut(key).expect("just ensured present");
        slot.count += 1;
        slot.wall_s += wall_s;
        slot.sim_s += sim_s;
    }
}

/// Times a span: captures the wall clock (and optionally a sim-time
/// origin) at construction, reports into a [`Recorder`] on
/// [`finish`](SpanTimer::finish).
///
/// ```
/// use openspace_telemetry::prelude::*;
/// let mut rec = MemoryRecorder::new();
/// let t = SpanTimer::start(0.0);
/// // ... do work, advancing sim time to 12.5 ...
/// t.finish(&mut rec, "phase.route", 12.5);
/// assert_eq!(rec.span_agg("phase.route").unwrap().count, 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    started: Instant,
    sim_start_s: f64,
}

impl SpanTimer {
    /// Start timing at sim time `sim_start_s` (use 0.0 when the span
    /// has no simulated extent).
    pub fn start(sim_start_s: f64) -> Self {
        Self {
            started: Instant::now(),
            sim_start_s,
        }
    }

    /// Record the completed span under `key`, ending at sim time
    /// `sim_end_s`.
    pub fn finish(self, rec: &mut dyn Recorder, key: &str, sim_end_s: f64) {
        rec.span(
            key,
            self.started.elapsed().as_secs_f64(),
            sim_end_s - self.sim_start_s,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(rec: &mut dyn Recorder) {
        rec.add("c.events", 2);
        rec.add("c.events", 3);
        rec.gauge("g.ratio", 0.5);
        rec.gauge_max("m.depth", 4.0);
        rec.gauge_max("m.depth", 2.0);
        for x in [1.0, 2.0, 3.0] {
            rec.observe("h.latency", x);
        }
        rec.span("s.run", 0.001, 30.0);
    }

    #[test]
    fn memory_recorder_aggregates() {
        let mut rec = MemoryRecorder::new();
        feed(&mut rec);
        assert_eq!(rec.counter("c.events"), 5);
        assert_eq!(rec.gauges["g.ratio"], 0.5);
        assert_eq!(rec.maximum("m.depth"), Some(4.0));
        assert_eq!(rec.histograms["h.latency"].count(), 3);
        let s = rec.span_agg("s.run").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.sim_s, 30.0);
    }

    #[test]
    fn null_recorder_is_silent_and_disabled() {
        let mut rec = NullRecorder;
        feed(&mut rec);
        assert!(!rec.enabled());
    }

    #[test]
    fn unknown_keys_read_as_empty() {
        let rec = MemoryRecorder::new();
        assert_eq!(rec.counter("nope"), 0);
        assert_eq!(rec.maximum("nope"), None);
        assert!(rec.is_empty());
    }

    #[test]
    fn merge_equals_sequential_feed_bitwise() {
        // One recorder fed a+b sequentially...
        let mut serial = MemoryRecorder::new();
        feed(&mut serial);
        feed(&mut serial);
        // ...must match two recorders merged in order, bit for bit.
        let mut a = MemoryRecorder::new();
        let mut b = MemoryRecorder::new();
        feed(&mut a);
        feed(&mut b);
        a.merge(&b);
        assert_eq!(
            serial.deterministic_json().to_string(),
            a.deterministic_json().to_string()
        );
    }

    #[test]
    fn merge_gauge_is_last_write_wins() {
        let mut a = MemoryRecorder::new();
        let mut b = MemoryRecorder::new();
        a.gauge("g", 1.0);
        b.gauge("g", 2.0);
        a.merge(&b);
        assert_eq!(a.gauges["g"], 2.0);
    }

    #[test]
    fn deterministic_json_is_sorted_and_stable() {
        let mut a = MemoryRecorder::new();
        a.add("z.last", 1);
        a.add("a.first", 1);
        let dump = a.deterministic_json().to_string();
        let za = dump.find("z.last").unwrap();
        let aa = dump.find("a.first").unwrap();
        assert!(aa < za, "keys must dump in sorted order");
    }

    #[test]
    fn wall_time_never_reaches_the_deterministic_dump() {
        let mut a = MemoryRecorder::new();
        a.span("s", 123.456, 1.0);
        let det = a.deterministic_json().to_string();
        assert!(!det.contains("123.456"), "wall leaked: {det}");
        let wall = a.wall_json().to_string();
        assert!(wall.contains("123.456"));
    }

    #[test]
    fn span_timer_reports_both_clocks() {
        let mut rec = MemoryRecorder::new();
        let t = SpanTimer::start(10.0);
        t.finish(&mut rec, "s", 40.0);
        let agg = rec.span_agg("s").unwrap();
        assert_eq!(agg.sim_s, 30.0);
        assert!(agg.wall_s >= 0.0);
    }
}
