//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --make-reference
//! ```
//!
//! Runs one seeded workload for about `--seconds` and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Every output is checked against the committed
//! `reference.json`; `--make-reference` regenerates it. See
//! `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod reference;
mod rusage;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use benchsuite::DataSize;
use jrpm::pipeline::{run_pipeline, PipelineConfig};
use reference::{Reference, ReplaySummary, Summary};
use workloads::{Report, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --make-reference",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

fn result_json(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                obs::json::quote(name),
                obs::json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0 && rep.attempted > 0,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    )
}

/// Regenerates `reference.json` from this build's outputs.
fn make_reference() -> ExitCode {
    let mut r = Reference::default();
    for size in [DataSize::Small, DataSize::Default] {
        let label = workloads::size_name(size);
        for b in benchsuite::all() {
            let report = run_pipeline(&(b.build)(size), &PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{label}/{}: pipeline failed: {e}", b.name));
            r.pipeline.insert(
                (label.to_string(), b.name.to_string()),
                Summary::of(&report),
            );
        }
    }
    let dir = std::path::Path::new(".bench_data");
    std::fs::create_dir_all(dir).expect("create the recording directory");
    for b in benchsuite::all() {
        let path = dir.join(format!("{}.tvmr", b.name));
        let (enters, iters) =
            traced::save_annotated_recording(&(b.build)(DataSize::Default), &path)
                .unwrap_or_else(|e| panic!("{}: recording failed: {e}", b.name));
        let profile = traced::replay_file(&path, &mut traced::Spans::default())
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", b.name));
        std::fs::remove_file(&path).expect("remove the recording");
        r.recordings.insert(
            b.name.to_string(),
            ReplaySummary::of(&profile, enters, iters),
        );
    }
    let _ = std::fs::remove_dir(dir);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
    std::fs::write(out, r.to_json()).expect("write reference.json");
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--make-reference"] {
        return make_reference();
    }
    let Some(args) = parse_args(&args) else {
        return usage();
    };
    let reference = Reference::committed();
    let rep = if args.trace {
        workloads::run_traced(args.workload, args.seed, args.seconds, &reference)
    } else {
        workloads::run_untraced(args.workload, args.seed, args.seconds, &reference)
    };
    for line in &rep.lines {
        println!("{line}");
    }
    for (name, value, unit) in &rep.metrics {
        println!("  {name} = {value} {unit}");
    }
    if rep.failed > 0 {
        eprintln!("{} of {} outputs were wrong", rep.failed, rep.attempted);
    }
    println!("{}", result_json(&rep));
    ExitCode::SUCCESS
}
