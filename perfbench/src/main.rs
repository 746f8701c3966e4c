//! Command-line entry point of the openspace benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload shell_motion --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Sets the workload up several times (median `setup_s`), runs one
//! untimed warm-up, then repeats the timed section for `--seconds` and
//! reports medians. Every timed interval is bracketed by a fixed
//! reference kernel ([`reference`]), and `setup_s` and `run_s` are
//! normalised by it so that a shared host's swings cancel. With
//! `--trace 0` the last stdout line is a JSON object with the end-to-end
//! metrics; with `--trace 1` untraced and traced runs alternate and it
//! carries the per-layer metrics instead. Every run's outputs are
//! checked; a failed check or call counts toward `failed`.

mod reference;

use openspace_perfbench::{
    check, heavy_layers, layer_metrics, nproc, plan_probe, run, setup, workers, Inputs, Ops, Rec,
    Run, Size, Workload, PER_LAYER,
};
use openspace_telemetry::{JsonValue, MemoryRecorder, NullRecorder};
use reference::{Reference, NOMINAL_S};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <shell_motion|demand_day|shell_adaptive> --seed <n> --seconds <n> --trace <0|1>";

/// Timed samples of set-up per process; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;

/// Set-ups timed together in one sample, so a sample lasts long enough
/// to time against the reference kernel.
const SETUP_BATCH: usize = 20;

/// Fewest timed runs a median is taken over, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One timed interval: its wall seconds and the reference kernel's
/// seconds around it.
#[derive(Clone, Copy)]
struct Timing {
    wall_s: f64,
    reference_s: f64,
}

impl Timing {
    /// Wall seconds scaled to the reference host's speed.
    fn normalised_s(self) -> f64 {
        self.wall_s * NOMINAL_S / self.reference_s
    }
}

/// Runs the timed section and checks each run's outputs against the
/// checks and against the first run, so traced and untraced runs, and
/// every repeat, must agree bit for bit.
struct Bench<'a> {
    inputs: &'a Inputs,
    ops: Ops,
    host: Reference,
    first_digest: Option<u64>,
}

impl Bench<'_> {
    /// One timed run: its timing and outputs, `None` if a call failed.
    fn once(&mut self, rec: &mut Rec) -> Option<(Timing, Run)> {
        let (inputs, ops) = (self.inputs, &mut self.ops);
        let (out, wall_s, reference_s) = self.host.around(|| run(inputs, rec, ops));
        let out = out?;
        for failure in check(self.inputs, &out) {
            self.ops.fail(failure);
        }
        let digest = out.digest();
        match self.first_digest {
            None => self.first_digest = Some(digest),
            Some(first) if first != digest => self.ops.fail(format!(
                "outputs differ between runs: digest {digest:016x} vs {first:016x}"
            )),
            Some(_) => {}
        }
        Some((
            Timing {
                wall_s,
                reference_s,
            },
            out,
        ))
    }
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::object([
        ("value", JsonValue::Num(value)),
        ("unit", JsonValue::Str(unit.to_string())),
    ])
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={} nproc={} profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers(),
        nproc(),
    );

    // Set-up, repeated in timed batches for a steady median; every
    // repeat must generate the same inputs.
    let mut host = Reference::default();
    let mut setup_times = Vec::with_capacity(SETUP_SAMPLES);
    let mut built: Option<(Inputs, MemoryRecorder)> = None;
    let mut setup_digests = Vec::with_capacity(SETUP_SAMPLES * SETUP_BATCH);
    for _ in 0..SETUP_SAMPLES {
        let (batch, wall_s, reference_s) = host.around(|| {
            (0..SETUP_BATCH)
                .map(|_| {
                    let mut rec = MemoryRecorder::new();
                    setup(args.workload, Size::Full, args.seed, &mut rec).map(|i| (i, rec))
                })
                .collect::<Result<Vec<_>, String>>()
        });
        setup_times.push(Timing {
            wall_s: wall_s / SETUP_BATCH as f64,
            reference_s,
        });
        match batch {
            Ok(batch) => {
                setup_digests.extend(batch.iter().map(|(inputs, _)| inputs.digest()));
                built = batch.into_iter().last();
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some((inputs, setup_rec)) = built else {
        return ExitCode::FAILURE;
    };
    let mut bench = Bench {
        inputs: &inputs,
        ops: Ops::default(),
        host,
        first_digest: None,
    };
    if setup_digests.windows(2).any(|w| w[0] != w[1]) {
        bench
            .ops
            .fail("set-up generated different inputs from one seed".to_string());
    }

    // Warm-up: fills caches and the allocator, and fixes the first
    // digest every later run must reproduce. Peak RSS is read after it:
    // set-up plus one run, before repeats can ratchet the allocator's
    // high-water mark by a varying amount.
    bench.once(&mut NullRecorder);
    let peak_rss = peak_rss_mib();

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers: Vec<BTreeMap<&str, f64>> = Vec::new();
    let mut sim_s = 0.0;
    let mut rounds = 0;
    while rounds < MIN_RUNS || started.elapsed() < budget {
        rounds += 1;
        if let Some((timing, out)) = bench.once(&mut NullRecorder) {
            plain_s.push(timing);
            sim_s = out.sim_s;
        }
        if !args.trace {
            continue;
        }
        let mut rec = MemoryRecorder::new();
        if let Some((timing, out)) = bench.once(&mut rec) {
            traced_s.push(timing);
            let plans = 1 + rec.counter("netsim.replans");
            plan_probe(&inputs, &out, plans, &mut rec);
            rec.merge(&setup_rec);
            layers.push(layer_metrics(&rec, &out.report));
        }
    }

    let times = |v: &[Timing]| {
        v.iter()
            .map(|t| format!("{:.3}", t.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let wall = |v: &[Timing]| median(&v.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let normalised = |v: &[Timing]| median(&v.iter().map(|t| t.normalised_s()).collect::<Vec<_>>());
    let reference_s = median(
        &plain_s
            .iter()
            .chain(&traced_s)
            .map(|t| t.reference_s)
            .collect::<Vec<_>>(),
    );
    println!("  timed runs (wall s): {}", times(&plain_s));
    if args.trace {
        println!("  traced runs (wall s): {}", times(&traced_s));
    }
    let ops = &bench.ops;
    for e in &ops.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let correct = ops.failed == 0 && !plain_s.is_empty();
    let run_s = normalised(&plain_s);
    let mut metrics: Vec<(&str, JsonValue)> = Vec::new();
    if args.trace {
        let trace_run_s = wall(&traced_s);
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let samples: Vec<f64> = layers.iter().filter_map(|m| m.get(name).copied()).collect();
            values.insert(name, median(&samples));
        }
        let heavy: f64 = heavy_layers(args.workload)
            .iter()
            .map(|name| values[name])
            .sum();
        values.insert("trace.run_s", trace_run_s);
        values.insert("trace.run_wall_s", wall(&plain_s));
        values.insert("host.reference_s", reference_s);
        values.insert(
            "telemetry.overhead_frac",
            normalised(&traced_s) / run_s - 1.0,
        );
        values.insert("trace.heavy_share", heavy / trace_run_s);
        for (name, unit) in PER_LAYER {
            let value = values[name];
            if unit == "s"
                && !matches!(
                    name,
                    "trace.run_s" | "trace.run_wall_s" | "host.reference_s"
                )
            {
                println!(
                    "  {name:<34} {value:>12.6} s  ({:5.1}% of traced run)",
                    100.0 * value / trace_run_s
                );
            } else {
                println!("  {name:<34} {value:>12.6} {unit}");
            }
            metrics.push((name, metric(value, unit)));
        }
    } else {
        let rss = match peak_rss {
            Ok(rss) => rss,
            Err(e) => {
                eprintln!("perfbench: cannot read peak RSS: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  {:<16} {:>12.6} s  (raw wall time; reference kernel {:.6} s)",
            "run_wall_s",
            wall(&plain_s),
            reference_s
        );
        let e2e = [
            ("setup_s", normalised(&setup_times), "s"),
            ("run_s", run_s, "s"),
            ("realtime_factor", sim_s / run_s, "sim_s/wall_s"),
            ("peak_rss_mib", rss, "MiB"),
        ];
        for (name, value, unit) in e2e {
            println!("  {name:<16} {value:>12.6} {unit}");
            metrics.push((name, metric(value, unit)));
        }
        println!(
            "  {:<16} {:>12.6} fraction ({} of {} calls, {} timed runs)",
            "failed_frac",
            ops.failed as f64 / ops.attempted.max(1) as f64,
            ops.failed,
            ops.attempted,
            plain_s.len(),
        );
    }
    let result = JsonValue::object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Uint(ops.attempted.max(1))),
        ("failed", JsonValue::Uint(ops.failed)),
        ("metrics", JsonValue::object(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
