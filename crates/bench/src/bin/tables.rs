//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p jrpm-bench --bin tables -- all
//! cargo run --release -p jrpm-bench --bin tables -- table6 fig11
//! cargo run --release -p jrpm-bench --bin tables -- --small all
//! cargo run --release -p jrpm-bench --bin tables -- --small quick --obs-json obs.json
//! cargo run --release -p jrpm-bench --bin tables -- --small obs --trace-out trace.json
//! ```
//!
//! `--trace-out FILE` writes a Chrome trace-event JSON (open it in
//! Perfetto or `chrome://tracing`) and switches the pipeline runs to
//! span tracing. `--metrics-json FILE` dumps every run's raw metrics
//! registry.
//!
//! Exits 0 on success, 1 when an export cannot be written or the
//! agreement report finds a soundness violation, and 2 on an unknown
//! section or flag or an export flag without its FILE.

use benchsuite::DataSize;
use jrpm::pipeline::PipelineConfig;
use jrpm_bench::render::{self, Columns};
use jrpm_bench::runner::{run_benchmark_with, BenchResult};
use jrpm_bench::tables;
use std::collections::BTreeMap;

/// Renders a section from the data size alone.
type FromSize = fn(DataSize) -> String;

/// Renders a section or export from pipeline runs of the suite.
type FromRuns = fn(&[BenchResult]) -> String;

/// Sections printed without a suite run, in print order. `quick` is a
/// CI smoke artifact, deliberately not part of `all`.
const STANDALONE: [(&str, FromSize); 10] = [
    ("table1", |_| tables::table1()),
    ("table2", |_| tables::table2()),
    ("table4", |_| tables::table4()),
    ("table5", |_| tables::table5()),
    ("table3", tables::table3),
    ("fig9", |_| tables::fig9()),
    ("softslow", tables::softslow),
    ("ablation", jrpm_bench::ablation::all),
    ("quick", jrpm_bench::ablation::quick),
    ("methods", tables::methods),
];

/// Sections computed from their own rows, printed and exported from one
/// computation.
const ROWS: [&str; 5] = ["prescreen", "rescue", "tier", "scev", "agreement"];

/// Sections rendered from pipeline runs of the whole suite, in print
/// order.
const SUITE: [(&str, FromRuns); 6] = [
    ("table6", tables::table6),
    ("fig6", tables::fig6),
    ("fig10", tables::fig10),
    ("fig11", tables::fig11),
    ("scorecard", tables::scorecard),
    ("obs", tables::obs),
];

/// Every `FLAG FILE` export and the report it writes.
const EXPORTS: [(&str, &str); 8] = [
    ("--obs-json", "obs"),
    ("--trace-out", "trace"),
    ("--metrics-json", "metrics"),
    ("--agreement-json", "agreement"),
    ("--prescreen-json", "prescreen"),
    ("--rescue-json", "rescue"),
    ("--tier-json", "tier"),
    ("--scev-json", "scev"),
];

/// The exports written from pipeline runs of the suite; every other
/// export comes from its own section's rows.
const RUN_EXPORTS: [(&str, FromRuns); 3] = [
    ("obs", tables::obs_json),
    ("trace", tables::chrome_trace),
    ("metrics", tables::metrics_json),
];

/// Every section name the command line accepts.
fn sections() -> impl Iterator<Item = &'static str> {
    let standalone = STANDALONE.iter().map(|(name, _)| *name);
    let suite = SUITE.iter().map(|(name, _)| *name);
    std::iter::once("all")
        .chain(standalone)
        .chain(ROWS)
        .chain(suite)
}

/// The parsed command line.
struct Cli {
    size: DataSize,
    sections: Vec<String>,
    /// Export path per report, keyed by the report in [`EXPORTS`].
    exports: BTreeMap<&'static str, String>,
}

impl Cli {
    /// Parses the arguments, or prints the usage line and exits 2.
    fn parse(args: impl IntoIterator<Item = String>) -> Cli {
        let mut cli = Cli {
            size: DataSize::Default,
            sections: Vec::new(),
            exports: BTreeMap::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&(flag, report)) = EXPORTS.iter().find(|(flag, _)| *flag == arg) {
                match args.next() {
                    Some(path) if !path.starts_with("--") => {
                        cli.exports.insert(report, path);
                    }
                    _ => usage(&format!("{flag} needs a FILE")),
                }
            } else if arg == "--small" {
                cli.size = DataSize::Small;
            } else if arg == "--large" {
                cli.size = DataSize::Large;
            } else if arg.starts_with("--") {
                usage(&format!("unknown flag {arg}"));
            } else if sections().any(|s| s == arg) {
                cli.sections.push(arg);
            } else {
                usage(&format!("unknown section {arg}"));
            }
        }
        // a bare export of a section's own rows (CI smoke) should not
        // drag in every table
        let run_export = |r: &&str| RUN_EXPORTS.iter().any(|(name, _)| name == r);
        if cli.sections.is_empty() && cli.exports.keys().all(run_export) {
            cli.sections.push("all".into());
        }
        cli
    }

    /// Whether `section` was named, or named through `all` (which
    /// leaves out `quick`).
    fn want(&self, section: &str) -> bool {
        let all = section != "quick";
        self.sections
            .iter()
            .any(|a| a == section || (all && a == "all"))
    }

    /// The path `report` is exported to, if any.
    fn export(&self, report: &str) -> Option<&str> {
        self.exports.get(report).map(String::as_str)
    }

    /// Prints a flat section's table when asked for and writes its JSON
    /// when exported, computing the rows once for both.
    fn flat<R: Columns>(
        &self,
        section: &str,
        rows: fn(DataSize) -> Vec<R>,
        text: fn(&[R]) -> String,
    ) {
        let path = self.export(section);
        if !self.want(section) && path.is_none() {
            return;
        }
        let rows = rows(self.size);
        if self.want(section) {
            println!("{}", text(&rows));
        }
        if let Some(path) = path {
            write(path, &render::json(&rows));
        }
    }
}

/// Prints the problem and the usage line, then exits 2.
fn usage(problem: &str) -> ! {
    let flags: Vec<String> = EXPORTS
        .iter()
        .map(|(flag, _)| format!("[{flag} FILE]"))
        .collect();
    eprintln!("tables: {problem}");
    eprintln!(
        "usage: tables [--small|--large] {} [section…], sections: {}",
        flags.join(" "),
        sections().collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

/// Writes one export, or prints the path and the error and exits 1.
fn write(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("tables: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    let (size, want) = (cli.size, |section: &str| cli.want(section));

    println!("{}", tables::banner());

    for (section, text) in STANDALONE {
        if want(section) {
            println!("{}", text(size));
        }
    }
    cli.flat("prescreen", tables::prescreen_rows, tables::prescreen);
    cli.flat("rescue", tables::rescue_rows, tables::rescue);
    cli.flat("tier", tables::tier_rows, tables::tier);
    cli.flat("scev", tables::scev_rows, tables::scev_table);
    // The agreement report force-annotates every candidate and replays
    // each benchmark's trace, so it runs on demand: the full suite for
    // the `agreement` table, or just the quick-smoke set when only the
    // JSON artifact was requested. A soundness violation (a statically
    // disjoint pair that aliased dynamically) fails the process.
    if want("agreement") || cli.export("agreement").is_some() {
        let names: &[&str] = if want("agreement") { &[] } else { &["Huffman"] };
        let results = tables::agreement_results(names, size);
        if want("agreement") {
            println!("{}", tables::agreement(&results));
        }
        if let Some(path) = cli.export("agreement") {
            write(path, &tables::agreement_json(&results));
        }
        let unsound: Vec<&str> = results
            .iter()
            .filter(|(_, r)| !r.sound())
            .map(|(n, _)| *n)
            .collect();
        if !unsound.is_empty() {
            eprintln!(
                "agreement: SOUNDNESS VIOLATION — statically-disjoint pairs aliased \
                 dynamically in: {}",
                unsound.join(", ")
            );
            std::process::exit(1);
        }
    }

    let needs_full_suite = SUITE.iter().any(|(section, _)| want(section));
    let needs_any_run = RUN_EXPORTS.iter().any(|(r, _)| cli.export(r).is_some());
    if needs_full_suite || needs_any_run {
        let suite = if needs_full_suite {
            benchsuite::all()
        } else {
            // an export flag without a suite artifact: a one-benchmark
            // smoke run is enough to produce the file
            vec![benchsuite::by_name("Huffman").expect("suite has Huffman")]
        };
        // span tracing costs a little time and memory, so it is only
        // switched on when someone asked for the trace file
        let cfg = PipelineConfig {
            obs: jrpm::pipeline::ObsConfig {
                trace: cli.export("trace").is_some(),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut results: Vec<BenchResult> = Vec::new();
        for b in &suite {
            eprint!("running {:<14}... ", b.name);
            match run_benchmark_with(b, size, &cfg) {
                Ok(r) => {
                    eprintln!(
                        "ok ({} loops, {} selected, pred {:.2}, act {:.2})",
                        r.report.candidates.total_loops(),
                        r.report.selection.chosen.len(),
                        r.report.predicted_normalized(),
                        r.report.actual_normalized()
                    );
                    results.push(r);
                }
                Err(e) => eprintln!("FAILED: {e}"),
            }
        }
        for (section, text) in SUITE {
            if want(section) {
                println!("{}", text(&results));
            }
        }
        for (report, to_json) in RUN_EXPORTS {
            if let Some(path) = cli.export(report) {
                write(path, &to_json(&results));
            }
        }
    }
}
