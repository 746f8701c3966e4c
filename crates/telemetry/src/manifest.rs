//! Machine-readable run manifests.
//!
//! Every `exp_*` binary can describe its run as a [`RunManifest`]:
//! what experiment ran, under which seed and config, what the metrics
//! were, and how long each phase took. The schema splits cleanly into a
//! **deterministic** part (bit-identical for a fixed seed, any worker
//! count) and a **wall** part (threads, phase timings, span wall time)
//! that is honest about being machine-dependent.
//!
//! Schema (`openspace.run_manifest.v1`):
//!
//! ```json
//! {
//!   "schema": "openspace.run_manifest.v1",
//!   "experiment": "exp_fault",
//!   "seed": 42,
//!   "config_digest": "fnv1a64:9cbfb33a9e9f7035",
//!   "metrics": {"counters": {}, "gauges": {}, "maxima": {},
//!               "histograms": {}, "spans": {}},
//!   "extra": {},
//!   "wall": {"threads": 8, "phases": [{"name": "sweep", "wall_s": 0.5}],
//!            "span_wall_s": {}}
//! }
//! ```
//!
//! Everything above `"wall"` is deterministic; `"wall"` is not.

use crate::json::JsonValue;
use crate::recorder::MemoryRecorder;

/// FNV-1a 64-bit hash — the config digest function. Stable across
/// platforms and runs; collisions are irrelevant at "did the config
/// change" granularity.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Wall-clock duration of one named experiment phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name, unique within a run.
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub wall_s: f64,
}

/// A complete description of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Experiment name (the binary name by convention).
    pub experiment: String,
    /// Root seed of the run.
    pub seed: u64,
    /// `fnv1a64:<hex>` digest of the run's configuration description;
    /// empty until [`digest_config`](RunManifest::digest_config).
    pub config_digest: String,
    /// Aggregated metrics (deterministic section, minus span wall time).
    pub metrics: MemoryRecorder,
    /// Experiment-specific deterministic extras (e.g. `exp_fault`'s
    /// availability/MTTR fault block), dumped in insertion order.
    pub extra: Vec<(String, JsonValue)>,
    /// Worker threads the run used (wall section).
    pub threads: usize,
    /// Per-phase wall-clock timings (wall section).
    pub phases: Vec<PhaseTiming>,
}

impl RunManifest {
    /// An empty manifest for `experiment` under `seed`.
    pub fn new(experiment: &str, seed: u64) -> Self {
        Self {
            experiment: experiment.to_owned(),
            seed,
            ..Self::default()
        }
    }

    /// Set the config digest from a human-readable description of every
    /// input that shapes the run (sizes, durations, rates, flags). Two
    /// runs with the same digest claim to be comparable.
    pub fn digest_config(&mut self, description: &str) {
        self.config_digest = format!("fnv1a64:{:016x}", fnv1a_64(description.as_bytes()));
    }

    /// Append a phase timing (wall section).
    pub fn push_phase(&mut self, name: &str, wall_s: f64) {
        self.phases.push(PhaseTiming {
            name: name.to_owned(),
            wall_s,
        });
    }

    /// Attach a deterministic extra block.
    pub fn push_extra(&mut self, key: &str, value: JsonValue) {
        self.extra.push((key.to_owned(), value));
    }

    /// The deterministic section only, as a compact JSON string. Two
    /// runs of the same experiment with the same seed and config must
    /// produce byte-identical output here, regardless of worker count.
    pub fn deterministic_json(&mut self) -> String {
        self.deterministic_value().to_string()
    }

    fn deterministic_value(&mut self) -> JsonValue {
        JsonValue::object([
            ("schema", JsonValue::Str("openspace.run_manifest.v1".into())),
            ("experiment", JsonValue::Str(self.experiment.clone())),
            ("seed", JsonValue::Uint(self.seed)),
            ("config_digest", JsonValue::Str(self.config_digest.clone())),
            ("metrics", self.metrics.deterministic_json()),
            ("extra", JsonValue::Object(self.extra.clone())),
        ])
    }

    /// The full manifest (deterministic section plus the `wall` block)
    /// as a compact JSON string — what `--json` prints to stdout.
    pub fn to_json(&mut self) -> String {
        let mut v = self.deterministic_value();
        let phases: Vec<JsonValue> = self
            .phases
            .iter()
            .map(|p| {
                JsonValue::object([
                    ("name", JsonValue::Str(p.name.clone())),
                    ("wall_s", JsonValue::Num(p.wall_s)),
                ])
            })
            .collect();
        let wall = JsonValue::object([
            ("threads", JsonValue::Uint(self.threads as u64)),
            ("phases", JsonValue::Array(phases)),
            ("span_wall_s", self.metrics.wall_json()),
        ]);
        if let JsonValue::Object(fields) = &mut v {
            fields.push(("wall".into(), wall));
        }
        v.to_string()
    }
}

/// Serialize a recorder as JSON Lines: one self-describing object per
/// metric, deterministic section first (sorted keys within each kind),
/// then one `span_wall` line per span. Suitable for appending runs to a
/// log file that `jq`/pandas can ingest.
pub fn jsonl_lines(rec: &mut MemoryRecorder) -> Vec<String> {
    let mut lines = Vec::new();
    let det = rec.deterministic_json();
    let JsonValue::Object(sections) = det else {
        unreachable!("deterministic dump is an object");
    };
    for (section, body) in &sections {
        let JsonValue::Object(entries) = body else {
            continue;
        };
        // Section names are plural ("counters"); each line carries the
        // singular kind tag.
        let kind = section.trim_end_matches('s');
        for (key, value) in entries {
            lines.push(
                JsonValue::object([
                    ("kind", JsonValue::Str(kind.to_owned())),
                    ("key", JsonValue::Str(key.clone())),
                    ("value", value.clone()),
                ])
                .to_string(),
            );
        }
    }
    let JsonValue::Object(walls) = rec.wall_json() else {
        unreachable!("wall dump is an object");
    };
    for (key, value) in walls {
        lines.push(
            JsonValue::object([
                ("kind", JsonValue::Str("span_wall".into())),
                ("key", JsonValue::Str(key)),
                ("value", value),
            ])
            .to_string(),
        );
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::recorder::Recorder;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("exp_test", 7);
        m.digest_config("n=3 duration=10");
        m.metrics.add("pkts", 12);
        m.metrics.observe("lat", 0.5);
        m.metrics.span("run", 0.25, 10.0);
        m.threads = 4;
        m.push_phase("sweep", 0.125);
        m.push_extra(
            "fault",
            JsonValue::object([("mttr_s", JsonValue::Num(3.0))]),
        );
        m
    }

    #[test]
    fn manifest_has_required_keys_and_parses() {
        let mut m = sample_manifest();
        let v = parse(&m.to_json()).unwrap();
        for key in [
            "schema",
            "experiment",
            "seed",
            "config_digest",
            "metrics",
            "extra",
            "wall",
        ] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some("openspace.run_manifest.v1")
        );
        assert_eq!(v.get("seed"), Some(&JsonValue::Uint(7)));
        let wall = v.get("wall").unwrap();
        assert_eq!(wall.get("threads"), Some(&JsonValue::Uint(4)));
        let extra = v.get("extra").unwrap();
        assert_eq!(
            extra.get("fault").and_then(|f| f.get("mttr_s")),
            Some(&JsonValue::Num(3.0))
        );
    }

    #[test]
    fn deterministic_json_excludes_wall_block() {
        let mut m = sample_manifest();
        let det = m.deterministic_json();
        assert!(!det.contains("\"wall\""));
        assert!(!det.contains("wall_s"));
        assert!(det.contains("\"sim_s\": 10.0"));
        parse(&det).unwrap();
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = RunManifest::new("x", 1);
        let mut b = RunManifest::new("x", 1);
        a.digest_config("cfg v1");
        b.digest_config("cfg v1");
        assert_eq!(a.config_digest, b.config_digest);
        b.digest_config("cfg v2");
        assert_ne!(a.config_digest, b.config_digest);
        assert!(a.config_digest.starts_with("fnv1a64:"));
    }

    #[test]
    fn jsonl_lines_cover_every_metric_and_parse() {
        let mut rec = MemoryRecorder::new();
        rec.add("c", 1);
        rec.gauge("g", 2.0);
        rec.gauge_max("m", 3.0);
        rec.observe("h", 4.0);
        rec.span("s", 0.5, 6.0);
        let lines = jsonl_lines(&mut rec);
        // counter, gauge, maximum, histogram, span, span_wall.
        assert_eq!(lines.len(), 6);
        for line in &lines {
            let v = parse(line).unwrap();
            assert!(v.get("kind").is_some());
            assert!(v.get("key").is_some());
            assert!(v.get("value").is_some());
        }
        assert!(lines.iter().any(|l| l.contains("\"span_wall\"")));
    }
}
