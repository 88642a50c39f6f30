//! One regression gate over the committed baselines.
//!
//! ```text
//! cargo run --release -p jrpm-bench --bin gate -- <section> <paths…> [--update]
//! ```
//!
//! Every gate is one section of a table: the fields it compares
//! and how, where its current document comes from, and the named
//! invariants that document must satisfy. The engine parses documents
//! into typed errors, flattens them into `name -> field -> value` rows,
//! fails on any gated field out of tolerance, missing or new, runs the
//! invariants, and on `--update` rewrites the baseline only when every
//! invariant holds.

use obs::json::{parse, ParseError, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;
use Invariant::{Against, Each, Live, Suite};

mod live;
mod sections;
#[cfg(test)]
mod tests;

use sections::SECTIONS;

/// One row's numeric fields by dotted path (`config.workers`,
/// `events_by_kind.heap_load`, `sinks.0.events`), plus derived fields.
type Row = BTreeMap<String, f64>;

/// Every row of one document, by benchmark name.
type Rows = BTreeMap<String, Row>;

/// Name of the single row of a [`Shape::OneRow`] document.
const DOCUMENT: &str = "document";

/// How the current value of one field is held against its baseline.
#[derive(Debug, Clone, Copy)]
enum Cmp {
    /// Any difference fails.
    Exact,
    /// `|cur - base| / base` at most this (zero admits only zero).
    Rel(f64),
    /// `|cur - base|` at most this.
    Abs(f64),
    /// At most this fraction below a positive baseline; a baseline that
    /// is not positive fails.
    Drop(f64),
    /// At most this fraction above the baseline; a baseline that is not
    /// positive is not checked.
    Rise(f64),
    /// Not gated: both values are printed for the trajectory.
    Echo,
}

impl Cmp {
    /// Whether `cur` is within tolerance of `base`.
    fn admits(self, base: f64, cur: f64) -> bool {
        match self {
            Cmp::Exact => cur == base,
            Cmp::Rel(x) => cur == base || (base != 0.0 && ((cur - base) / base).abs() <= x),
            Cmp::Abs(x) => (cur - base).abs() <= x,
            Cmp::Drop(x) => base.is_finite() && base > 0.0 && cur >= base * (1.0 - x),
            Cmp::Rise(x) if base > 0.0 => cur <= base * (1.0 + x),
            Cmp::Rise(_) | Cmp::Echo => true,
        }
    }
}

/// A predicate over the current document, named by what it states.
enum Invariant {
    /// Holds on every row.
    Each(&'static str, fn(&Row) -> bool),
    /// Holds over all rows together.
    Suite(&'static str, fn(&Rows) -> bool),
    /// Holds for every row against the same-named row of the reference
    /// document at this positional argument; a row it lacks fails.
    Against(&'static str, usize, fn(&Row, &Row) -> bool),
    /// A run at gate time, never in a baseline; returns its violations.
    Live(&'static str, fn() -> Vec<String>),
}

impl Invariant {
    /// What the invariant states.
    fn name(&self) -> &'static str {
        let (Each(name, _) | Suite(name, _) | Against(name, ..) | Live(name, _)) = *self;
        name
    }
}

/// Where a section's current document comes from.
enum Current {
    /// The file at this positional argument.
    File(usize),
    /// Recomputed from the code at gate time, as JSON text.
    Recompute(fn() -> String),
    /// No document and no baseline: only [`Invariant::Live`] checks.
    None,
}

/// How a document flattens into rows.
enum Shape {
    /// One row per `benchmarks[]` entry, keyed by its `name`.
    Benchmarks,
    /// The whole document is one row named [`DOCUMENT`].
    OneRow,
}

/// One gate, selected by name on the command line.
struct Section {
    /// The command-line name.
    name: &'static str,
    /// Positional arguments; with a baseline, the first names it.
    args: &'static [&'static str],
    /// Where the current document comes from.
    current: Current,
    /// How documents flatten into rows.
    shape: Shape,
    /// Adds derived fields to a row from the object it came from.
    derive: Option<fn(&Value, &mut Row)>,
    /// Gated field patterns (`*` matches one dotted segment) with their
    /// comparison; the first match wins, unmatched fields are not diffed.
    fields: &'static [(&'static str, Cmp)],
    /// What the current document must satisfy.
    invariants: &'static [Invariant],
}

impl Section {
    /// The baseline path, when the section keeps one.
    fn baseline<'a>(&self, paths: &'a [String]) -> Option<&'a str> {
        match self.current {
            Current::None => None,
            _ => paths.first().map(String::as_str),
        }
    }

    /// The comparison for `key`, if it is gated.
    fn cmp(&self, key: &str) -> Option<Cmp> {
        let k: Vec<&str> = key.split('.').collect();
        let matches = |pattern: &str| {
            let p: Vec<&str> = pattern.split('.').collect();
            p.len() == k.len() && p.iter().zip(&k).all(|(p, k)| *p == "*" || p == k)
        };
        self.fields.iter().find(|f| matches(f.0)).map(|f| f.1)
    }

    /// Flattens a parsed document into rows.
    fn rows(&self, doc: &Value, path: &str) -> Result<Rows, GateError> {
        let row = |obj: &Value| {
            let mut row = Row::new();
            flatten(obj, String::new(), &mut row);
            if let Some(derive) = self.derive {
                derive(obj, &mut row);
            }
            row
        };
        let shape = |problem: String| GateError::Shape(path.to_string(), problem);
        if let Shape::OneRow = self.shape {
            return Ok(Rows::from([(DOCUMENT.to_string(), row(doc))]));
        }
        let list = doc.get("benchmarks").and_then(Value::as_arr);
        let list = list.ok_or_else(|| shape("no benchmarks array".into()))?;
        let mut rows = Rows::new();
        for (i, bench) in list.iter().enumerate() {
            let name = bench.get("name").and_then(Value::as_str);
            let name = name.ok_or_else(|| shape(format!("benchmarks[{i}] has no name")))?;
            rows.insert(name.to_string(), row(bench));
        }
        Ok(rows)
    }

    /// Evaluates one invariant over the current rows; `paths` resolves
    /// [`Invariant::Against`] references.
    fn evaluate(
        &self,
        inv: &Invariant,
        current: &Rows,
        paths: &[String],
    ) -> Result<Vec<String>, GateError> {
        let broken = |row: &str| format!("{row}: violates `{}`", inv.name());
        let failing = |holds: &dyn Fn(&str, &Row) -> bool| {
            let rows = current.iter().filter(|(name, row)| !holds(name, row));
            rows.map(|(name, _)| broken(name)).collect()
        };
        Ok(match *inv {
            Each(_, holds) => failing(&|_, row| holds(row)),
            Suite(_, holds) if holds(current) => Vec::new(),
            Suite(..) => vec![broken("suite")],
            Against(_, arg, holds) => {
                let reference = self.rows(&load(&paths[arg])?, &paths[arg])?;
                failing(&|name, row| reference.get(name).is_some_and(|r| holds(row, r)))
            }
            Live(name, run) => run().iter().map(|v| format!("{name}: {v}")).collect(),
        })
    }

    /// Diffs the gated fields of `current` against `baseline`.
    fn diff(&self, baseline: &Rows, current: &Rows, report: &mut Report) {
        let out = &mut report.violations;
        for name in baseline.keys().filter(|name| !current.contains_key(*name)) {
            out.push(format!("benchmark {name} disappeared from the current run"));
        }
        for (name, cur) in current {
            let Some(base) = baseline.get(name) else {
                out.push(format!("benchmark {name} is new"));
                continue;
            };
            for (key, &b) in base {
                match (self.cmp(key), cur.get(key)) {
                    (None, _) => {}
                    (Some(_), None) => out.push(format!("{name}: {key} (baseline {b}) missing")),
                    (Some(cmp), Some(&c)) if !cmp.admits(b, c) => out.push(format!(
                        "{name}: {key} out of tolerance {cmp:?}: baseline {b}, current {c}"
                    )),
                    (Some(Cmp::Echo), Some(c)) => report.notes.push(format!("{key} {b} -> {c}")),
                    (Some(_), Some(_)) => {}
                }
            }
            for (key, c) in cur {
                if self.cmp(key).is_some() && !base.contains_key(key) {
                    out.push(format!("{name}: {key} = {c} appeared (baseline has none)"));
                }
            }
        }
    }

    /// Runs the gate: loads or recomputes the current document, checks
    /// every invariant, then diffs against the baseline or, on `update`,
    /// rewrites the baseline if no invariant failed.
    fn run(&self, paths: &[String], update: bool) -> Result<Report, GateError> {
        let (text, path) = match self.current {
            Current::File(arg) => (Some(read(&paths[arg])?), paths[arg].as_str()),
            Current::Recompute(compute) => (Some(compute()), "<recomputed>"),
            Current::None => (None, ""),
        };
        let current = match &text {
            Some(text) => self.rows(&parse_doc(text, path)?, path)?,
            None => Rows::new(),
        };
        let mut report = Report {
            rows: current.len(),
            ..Report::default()
        };
        for inv in self.invariants {
            let violations = self.evaluate(inv, &current, paths)?;
            report.violations.extend(violations);
        }
        let (Some(text), Some(baseline)) = (text, self.baseline(paths)) else {
            return Ok(report);
        };
        if update {
            if report.violations.is_empty() {
                std::fs::write(baseline, text)
                    .map_err(|e| GateError::Write(baseline.to_string(), e))?;
                report.updated = true;
            }
            return Ok(report);
        }
        let baseline = self.rows(&load(baseline)?, baseline)?;
        self.diff(&baseline, &current, &mut report);
        Ok(report)
    }
}

/// What one gate run found.
#[derive(Debug, Default)]
struct Report {
    /// Rows in the current document.
    rows: usize,
    /// Failed comparisons and invariants; empty means the gate passed.
    violations: Vec<String>,
    /// Informational lines ([`Cmp::Echo`] fields).
    notes: Vec<String>,
    /// Whether `--update` rewrote the baseline.
    updated: bool,
}

/// Why a gate could not judge a document; each variant names the file.
#[derive(Debug)]
enum GateError {
    /// The file could not be read.
    Read(String, std::io::Error),
    /// The file is not valid JSON.
    Parse(String, ParseError),
    /// The document lacks the section's shape.
    Shape(String, String),
    /// The baseline could not be written.
    Write(String, std::io::Error),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Read(path, e) => write!(f, "{path}: cannot read: {e}"),
            GateError::Parse(path, e) => write!(f, "{path}: not valid JSON: {e}"),
            GateError::Shape(path, problem) => write!(f, "{path}: {problem}"),
            GateError::Write(path, e) => write!(f, "{path}: cannot write: {e}"),
        }
    }
}

fn read(path: &str) -> Result<String, GateError> {
    std::fs::read_to_string(path).map_err(|e| GateError::Read(path.to_string(), e))
}

fn parse_doc(text: &str, path: &str) -> Result<Value, GateError> {
    parse(text).map_err(|e| GateError::Parse(path.to_string(), e))
}

/// Reads and parses one JSON document.
fn load(path: &str) -> Result<Value, GateError> {
    parse_doc(&read(path)?, path)
}

/// Adds every numeric leaf under `v` to `row`, keyed by dotted path.
fn flatten(v: &Value, key: String, row: &mut Row) {
    let child = |k: &dyn fmt::Display| match key.as_str() {
        "" => k.to_string(),
        _ => format!("{key}.{k}"),
    };
    match v {
        Value::Num(n) => {
            row.insert(key, *n);
        }
        Value::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, child(&i), row);
            }
        }
        Value::Obj(members) => {
            for (k, v) in members {
                flatten(v, child(k), row);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// A row's field, NaN when absent, so every comparison with it fails.
fn field(row: &Row, key: &str) -> f64 {
    row.get(key).copied().unwrap_or(f64::NAN)
}

/// Sum of one field over every row.
fn total(rows: &Rows, key: &str) -> f64 {
    rows.values().map(|row| field(row, key)).sum()
}

/// The `gate <section> <paths…> [--update]` command line. Exits 0 on a
/// pass, 1 on a violation or unreadable document, 2 on a usage error.
pub fn main(args: &[String]) -> ExitCode {
    let (section, rest) = match args.split_first() {
        Some((name, rest)) => (SECTIONS.iter().find(|s| s.name == name), rest),
        None => (None, args),
    };
    let update = rest.iter().any(|a| a == "--update");
    let paths: Vec<String> = rest.iter().filter(|a| *a != "--update").cloned().collect();
    let Some(section) = section.filter(|s| {
        s.args.len() == paths.len()
            && !paths.iter().any(|p| p.starts_with("--"))
            && (!update || s.baseline(&paths).is_some())
    }) else {
        eprintln!("usage: gate <section> <paths…> [--update], one of:");
        for s in &SECTIONS {
            let line = format!("gate {} {}", s.name, s.args.join(" "));
            eprintln!("  {}", line.trim_end());
        }
        return ExitCode::from(2);
    };
    let name = section.name;
    let report = match section.run(&paths, update) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("gate {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("gate {name}: {note} (not gated)");
    }
    let (rows, n) = (report.rows, report.violations.len());
    let k = section.invariants.len();
    let baseline = section.baseline(&paths);
    match (n, baseline) {
        (0, Some(path)) if update => eprintln!("gate {name}: baseline {path} updated"),
        (0, Some(_)) => eprintln!("gate {name}: OK — {rows} row(s) match, {k} invariant(s) hold"),
        (0, None) => eprintln!("gate {name}: OK — {k} invariant(s) hold"),
        _ if update => eprintln!("gate {name}: refusing to update — {n} violation(s):"),
        _ => eprintln!("gate {name}: FAILED — {n} violation(s):"),
    }
    if n == 0 {
        return ExitCode::SUCCESS;
    }
    for v in &report.violations {
        eprintln!("  {v}");
    }
    if !update && baseline.is_some() {
        let args = section.args.join(" ");
        eprintln!("(intentional change? refresh with: gate {name} {args} --update)");
    }
    ExitCode::FAILURE
}
