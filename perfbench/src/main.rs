//! The repository benchmark. `perfbench/run.py` builds the program and
//! this binary, then drives it in two steps:
//!
//! ```text
//! perfbench gen --workload <w> --dir <inputs>
//! perfbench run --workload <w> --seed <n> --seconds <s> --trace <0|1>
//!               --input <inputs> --work <dir> --xks <xks binary> --trace-out <file>
//! ```
//!
//! `gen` writes the workload's XML and query text. `run` sets up from
//! those files, checks the program's outputs, measures, and prints one
//! JSON result line last. The metric names and units come from
//! `BENCHMARK.json`; a run that emits anything else is a bug and fails.

mod common;
mod engine_mem;
mod gen;
mod heap;
mod http;
mod mutate_mixed;
mod serve_disk;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use xks::store::json::{self, Value};

use crate::common::{cpu_ticks, say};
use crate::stats::Metrics;
use crate::trace::Tracer;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeDisk,
    EngineMem,
    MutateMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-disk" => Some(Workload::ServeDisk),
            "engine-mem" => Some(Workload::EngineMem),
            "mutate-mixed" => Some(Workload::MutateMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeDisk => "serve-disk",
            Workload::EngineMem => "engine-mem",
            Workload::MutateMixed => "mutate-mixed",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub input: PathBuf,
    pub work: PathBuf,
    pub xks: PathBuf,
    pub trace_out: PathBuf,
}

/// What a workload hands back: the counts of the result line, the
/// metrics of the run's mode, and the layer-name prefixes that are not
/// on this workload's path (their per-layer metrics read zero).
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub not_on_path: &'static [&'static str],
}

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn workload_flag(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload")?;
    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn seed_flag(args: &[String]) -> Result<u64, String> {
    flag(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))
}

/// `(name, unit)` of every metric of one mode in `BENCHMARK.json`.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    spec.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("malformed {key} entry"))
        })
        .collect()
}

/// Checks the emitted metrics against the declared ones, filling the
/// declared metrics of layers not on the workload's path with zero.
fn finish_metrics(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared = declared(trace)?;
    let emitted: BTreeMap<&str, (&str, f64)> = outcome
        .metrics
        .iter()
        .map(|(n, u, v)| (n, (u, v)))
        .collect();
    for name in emitted.keys() {
        if !declared.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    let mut out = Metrics::new();
    for (name, unit) in &declared {
        match emitted.get(name.as_str()) {
            Some(&(u, v)) if u == unit => out.value(name, u, v),
            Some(&(u, _)) => {
                return Err(format!("metric {name} emitted in {u}, declared in {unit}"))
            }
            None if trace && outcome.not_on_path.iter().any(|p| name.starts_with(p)) => {
                out.value(name, unit, 0.0);
            }
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(out.to_json())
}

fn run(args: &[String]) -> Result<(Outcome, bool), String> {
    let run = Args {
        workload: workload_flag(args)?,
        seed: seed_flag(args)?,
        seconds: Duration::from_secs_f64(
            flag(args, "--seconds")?
                .parse::<f64>()
                .map_err(|e| format!("--seconds: {e}"))?,
        ),
        trace: match flag(args, "--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        input: flag(args, "--input")?.into(),
        work: flag(args, "--work")?.into(),
        xks: flag(args, "--xks")?.into(),
        trace_out: flag(args, "--trace-out")?.into(),
    };
    // Fail before any work when the declaration is unreadable.
    declared(run.trace)?;
    say(format!(
        "provenance: workload={} seed={} seconds={} trace={} available_parallelism={}",
        run.workload.name(),
        run.seed,
        run.seconds.as_secs_f64(),
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    ));
    let mut tracer = Tracer::new(run.trace);
    let ticks_before = cpu_ticks();
    let outcome = match run.workload {
        Workload::ServeDisk => serve_disk::run(&run, &mut tracer)?,
        Workload::EngineMem => engine_mem::run(&run, &mut tracer)?,
        Workload::MutateMixed => mutate_mixed::run(&run, &mut tracer)?,
    };
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks_before, cpu_ticks()) {
        say(format!(
            "machine: CPU steal was {:.1}% of all CPU time during the run",
            100.0 * (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64
        ));
    }
    if run.trace {
        tracer
            .write(&run.trace_out, run.workload.name(), run.seed)
            .map_err(|e| format!("writing {}: {e}", run.trace_out.display()))?;
        say(format!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            run.trace_out.display()
        ));
    }
    Ok((outcome, run.trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            let made = workload_flag(&args).and_then(|w| {
                let dir = flag(&args, "--dir")?;
                gen::generate(w, Path::new(&dir)).map_err(|e| format!("gen: {e}"))
            });
            match made {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("run") => match run(&args) {
            Ok((outcome, trace)) => match finish_metrics(&outcome, trace) {
                Ok(metrics) => {
                    println!(
                        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                        outcome.correct,
                        outcome.attempted.max(1),
                        outcome.failed,
                    );
                    if outcome.correct {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("perfbench: a correctness check failed during the run");
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                // A failed correctness gate or a broken set-up: no
                // measurement is valid, so no result line is printed.
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        },
        _ => {
            eprintln!("usage: perfbench gen|run --workload <name> --seed <n> ...");
            ExitCode::from(2)
        }
    }
}
