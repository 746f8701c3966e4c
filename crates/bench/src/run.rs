//! Experiment-run harness: shared `--json` flag handling and
//! [`RunManifest`] assembly for the `exp_*` binaries.
//!
//! Every experiment binary constructs one [`ExpRun`] at startup. In the
//! default (human) mode the binary prints its tables exactly as before
//! and the harness stays silent. With `--json` on the command line the
//! binary suppresses its tables (guard prints with [`ExpRun::human`])
//! and [`ExpRun::finish`] emits the run's manifest — seed, config
//! digest, metric dump, phase wall-clock timings — as a single JSON
//! object on stdout, parseable by the in-tree
//! [`openspace_telemetry::json::parse`] or any JSON tool.
//!
//! The manifest's deterministic section (everything except `"wall"`) is
//! bit-identical across runs for a fixed seed; wall-clock phase timings
//! and the thread count live only in the `"wall"` block.

use openspace_sim::exec::default_threads;
use openspace_telemetry::{JsonValue, MemoryRecorder, RunManifest};
use std::time::Instant;

/// One experiment run: manifest under construction plus output-mode
/// state.
pub struct ExpRun {
    manifest: RunManifest,
    json: bool,
    phase: Option<(String, Instant)>,
}

impl ExpRun {
    /// Construct from the process arguments: `--json` anywhere on the
    /// command line selects manifest output.
    pub fn from_args(experiment: &str, seed: u64) -> Self {
        let json = std::env::args().skip(1).any(|a| a == "--json");
        Self::new(experiment, seed, json)
    }

    /// Construct with an explicit output mode (tests use this).
    pub fn new(experiment: &str, seed: u64, json: bool) -> Self {
        let mut manifest = RunManifest::new(experiment, seed);
        manifest.threads = default_threads();
        Self {
            manifest,
            json,
            phase: None,
        }
    }

    /// Whether `--json` was requested.
    pub fn json(&self) -> bool {
        self.json
    }

    /// Whether the binary should print its human tables (the default).
    pub fn human(&self) -> bool {
        !self.json
    }

    /// Digest the run's configuration description into the manifest (see
    /// [`RunManifest::digest_config`]).
    pub fn digest_config(&mut self, description: &str) {
        self.manifest.digest_config(description);
    }

    /// The run's metric recorder — pass `run.rec()` to any API that
    /// takes a `&mut dyn Recorder`, or record directly.
    pub fn rec(&mut self) -> &mut MemoryRecorder {
        &mut self.manifest.metrics
    }

    /// Record the worker-thread count actually used (wall section);
    /// defaults to [`default_threads`].
    pub fn set_threads(&mut self, threads: usize) {
        self.manifest.threads = threads;
    }

    /// Start a named phase, closing the previous one. Phase wall-clock
    /// durations land in the manifest's `wall.phases` list.
    pub fn phase(&mut self, name: &str) {
        self.close_phase();
        self.phase = Some((name.to_owned(), Instant::now()));
    }

    fn close_phase(&mut self) {
        if let Some((name, started)) = self.phase.take() {
            self.manifest
                .push_phase(&name, started.elapsed().as_secs_f64());
        }
    }

    /// Attach a deterministic experiment-specific block (e.g. the fault
    /// availability/MTTR table) to the manifest's `extra` section.
    pub fn push_extra(&mut self, key: &str, value: JsonValue) {
        self.manifest.push_extra(key, value);
    }

    /// Direct access to the manifest under construction.
    pub fn manifest_mut(&mut self) -> &mut RunManifest {
        &mut self.manifest
    }

    /// Close the final phase and, in `--json` mode, print the manifest
    /// to stdout. Call last in `main`.
    pub fn finish(mut self) {
        self.close_phase();
        if self.json {
            println!("{}", self.manifest.to_json());
        }
    }

    /// Like [`finish`](Self::finish) but returning the JSON string
    /// (empty in human mode) instead of printing — for tests.
    pub fn finish_to_string(mut self) -> String {
        self.close_phase();
        if self.json {
            self.manifest.to_json()
        } else {
            String::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_telemetry::json::parse;
    use openspace_telemetry::Recorder;

    #[test]
    fn human_mode_prints_no_manifest() {
        let run = ExpRun::new("exp_test", 1, false);
        assert!(run.human());
        assert_eq!(run.finish_to_string(), "");
    }

    #[test]
    fn json_mode_emits_a_parseable_manifest_with_required_keys() {
        let mut run = ExpRun::new("exp_test", 9, true);
        run.digest_config("n=2");
        run.phase("setup");
        run.rec().add("pkts", 3);
        run.phase("sweep");
        run.push_extra("note", JsonValue::Str("x".into()));
        let out = run.finish_to_string();
        let v = parse(&out).expect("manifest parses");
        for key in [
            "schema",
            "experiment",
            "seed",
            "config_digest",
            "metrics",
            "extra",
            "wall",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            v.get("experiment").and_then(JsonValue::as_str),
            Some("exp_test")
        );
        // Both phases were closed and recorded.
        let wall = v.get("wall").unwrap();
        let Some(JsonValue::Array(phases)) = wall.get("phases") else {
            panic!("wall.phases missing");
        };
        assert_eq!(phases.len(), 2);
    }

    #[test]
    fn deterministic_section_is_stable_across_runs() {
        let build = || {
            let mut run = ExpRun::new("exp_test", 5, true);
            run.digest_config("cfg");
            run.rec().add("a", 1);
            run.rec().observe("h", 2.5);
            run
        };
        let a = build().manifest_mut().deterministic_json();
        let b = build().manifest_mut().deterministic_json();
        assert_eq!(a, b);
    }
}
