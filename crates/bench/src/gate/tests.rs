//! Negative controls for the engine and every section: each committed
//! baseline passes against itself, each sabotaged copy fails, and each
//! invariant fires alone on a row built to break it.

use super::live::{overhead_violations, COUNTING_OVERHEAD};
use super::*;

/// Sections that keep a committed baseline.
const BASELINED: [&str; 6] = ["obs", "prescreen", "rescue", "tier", "scev", "throughput"];

/// `section | row.key=value edits (* is every row) | the one invariant
/// that must fire`, each against a copy of the committed baseline.
const BREAKS: &str = "
prescreen  | Huffman.baseline_disjoint=5 | disjoint >= baseline_disjoint
prescreen  | *.via_pointsto=0 | via_pointsto > 0
rescue     | Assignment.demoted_after=1 | demoted_after <= demoted_before
rescue     | Assignment.rescued=1 | reductions + privatizations + distributions == rescued
rescue     | *.rescued=0 *.reductions=0 *.privatizations=0 *.distributions=0 | rescued > 0
rescue     | *.selected_gain=0 | selected_gain > 0
tier       | Assignment.terminal=0 | terminal == 1
tier       | Assignment.matches_offline=0 | matches_offline == 1
tier       | Assignment.candidates=10 | selected + demoted_static + demoted_dynamic == candidates
scev       | Huffman.prescreen_disjoint=5 | disjoint >= prescreen_disjoint
scev       | Assignment.sound=0 | sound, 0 slice_violations, 0 distance_violations
scev       | Assignment.slice_violations=1 | sound, 0 slice_violations, 0 distance_violations
scev       | Assignment.distance_violations=1 | sound, 0 slice_violations, 0 distance_violations
scev       | *.distance_pairs=0 | distance_pairs > 0
scev       | Assignment.pairs=15 | pairs == the pre-screen baseline's pairs
scev       | Huffman.disjoint=3 Huffman.prescreen_disjoint=3 | disjoint >= the pre-screen baseline's disjoint
throughput | document.replay.events=0 | replay.events > 0
throughput | document.direct.events=0 | direct.events > 0
throughput | document.headline.contained_panics=1 | headline.contained_panics == 0
throughput | document.headline.recorder_overhead_frac=0.05000000000000001 | headline.recorder_overhead_frac <= 0.05
";

fn section(name: &str) -> &'static Section {
    SECTIONS.iter().find(|s| s.name == name).expect("section")
}

fn baseline_path(name: &str) -> String {
    format!(
        "{}/results_{name}_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn baseline(name: &str) -> Rows {
    let path = baseline_path(name);
    section(name).rows(&load(&path).unwrap(), &path).unwrap()
}

fn diff(name: &str, base: &Rows, cur: &Rows) -> Vec<String> {
    let mut report = Report::default();
    section(name).diff(base, cur, &mut report);
    report.violations
}

/// The invariants that fire on `rows`, live runs skipped; paths are as
/// CI passes them (scev reads the pre-screen baseline second).
fn fired(name: &str, rows: &Rows) -> Vec<&'static str> {
    let paths = [baseline_path(name), baseline_path("prescreen")];
    let s = section(name);
    let checked = s
        .invariants
        .iter()
        .filter(|i| !matches!(i, Invariant::Live(..)));
    let fired = checked.filter(|i| !s.evaluate(i, rows, &paths).unwrap().is_empty());
    fired.map(Invariant::name).collect()
}

/// The gated (not echoed) fields of one row.
fn gated(name: &str, row: &Row) -> Vec<(String, Cmp)> {
    let cmp = |k: &String| section(name).cmp(k).map(|c| (k.clone(), c));
    let fields = row.keys().filter_map(cmp);
    fields.filter(|(_, c)| !matches!(c, Cmp::Echo)).collect()
}

/// A value past `cmp`'s tolerance by a billionth of the tolerance.
fn past(cmp: Cmp, base: f64) -> f64 {
    let beyond = |x: f64| x * (1.0 + 1e-9);
    match cmp {
        Cmp::Exact => base + 1.0,
        Cmp::Rel(_) if base == 0.0 => 1.0,
        Cmp::Rel(x) | Cmp::Rise(x) => base * (1.0 + beyond(x)),
        Cmp::Abs(x) => base + beyond(x),
        Cmp::Drop(x) => base * (1.0 - beyond(x)),
        Cmp::Echo => unreachable!("echoed fields are not gated"),
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jrpm-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn each_baseline_passes_against_itself_and_every_sabotaged_copy_fails() {
    for name in BASELINED {
        let base = baseline(name);
        assert_eq!(diff(name, &base, &base), Vec::<String>::new(), "{name}");
        assert_eq!(fired(name, &base), Vec::<&str>::new(), "{name}");
        let bench = base.keys().next().unwrap();
        let fields = gated(name, &base[bench]);
        assert!(!fields.is_empty(), "{name} gates nothing");
        for (key, cmp) in &fields {
            let mut cur = base.clone();
            let v = cur.get_mut(bench).unwrap().get_mut(key).unwrap();
            *v = past(*cmp, *v);
            let violations = diff(name, &base, &cur);
            assert_eq!(violations.len(), 1, "{name} {key}: {violations:?}");
            assert!(violations[0].contains(key), "{violations:?}");
        }
        let mut cur = base.clone();
        cur.remove(bench);
        assert!(diff(name, &base, &cur)[0].contains("disappeared"), "{name}");
        cur = base.clone();
        cur.get_mut(bench).unwrap().remove(&fields[0].0);
        assert!(diff(name, &base, &cur)[0].contains("missing"), "{name}");
        // the same field present only in the current run appeared
        assert!(diff(name, &cur, &base)[0].contains("appeared"), "{name}");
    }
}

#[test]
fn each_invariant_fires_alone_on_a_row_that_breaks_it() {
    for line in BREAKS.lines().filter(|l| !l.is_empty()) {
        let parts: Vec<&str> = line.split(" | ").map(str::trim).collect();
        let [name, edits, invariant] = parts[..] else {
            panic!("malformed case {line}");
        };
        let mut rows = baseline(name);
        for edit in edits.split(' ') {
            let (target, value) = edit.split_once('=').unwrap();
            let (bench, key) = target.split_once('.').unwrap();
            for (_, row) in rows.iter_mut().filter(|(n, _)| bench == "*" || *n == bench) {
                assert!(row.contains_key(key), "{line}: no {key}");
                row.insert(key.to_string(), value.parse().unwrap());
            }
        }
        assert_eq!(fired(name, &rows), vec![invariant], "{line}");
    }
}

#[test]
fn a_row_missing_from_the_reference_document_fails_both_reference_checks() {
    let mut rows = baseline("scev");
    rows.insert("NotInThePrescreen".into(), rows["Huffman"].clone());
    let fired = fired("scev", &rows);
    assert_eq!(fired.len(), 2, "{fired:?}");
    assert!(fired
        .iter()
        .all(|name| name.contains("pre-screen baseline")));
}

#[test]
fn bounds_are_probed_one_ulp_away() {
    // the recorder-overhead case in BREAKS is one ulp past 0.05
    assert_eq!("0.05000000000000001".parse::<f64>(), Ok(0.05f64.next_up()));
    assert_eq!(overhead_violations(COUNTING_OVERHEAD).len(), 1);
    assert!(overhead_violations(COUNTING_OVERHEAD.next_down()).is_empty());
}

#[test]
fn tolerances_admit_their_bound_and_reject_past_it() {
    assert!(Cmp::Rel(0.20).admits(100.0, 120.0));
    assert!(!Cmp::Rel(0.20).admits(100.0, 121.0));
    assert!(Cmp::Rel(0.20).admits(0.0, 0.0));
    assert!(!Cmp::Rel(0.20).admits(0.0, 1.0));
    assert!(Cmp::Abs(0.20).admits(0.5, 0.3));
    assert!(!Cmp::Abs(0.20).admits(0.5, 0.3 - 1e-9));
    assert!(Cmp::Drop(0.15).admits(1.0, 0.85));
    assert!(Cmp::Drop(0.15).admits(1.0, 5.0));
    assert!(!Cmp::Drop(0.15).admits(1.0, 0.84));
    assert!(
        !Cmp::Drop(0.15).admits(0.0, 1.0),
        "a non-positive baseline fails"
    );
    assert!(Cmp::Rise(0.50).admits(2.0, 3.0));
    assert!(!Cmp::Rise(0.50).admits(2.0, 3.01));
    assert!(
        Cmp::Rise(0.50).admits(0.0, 9.0),
        "a zero baseline is not checked"
    );
    assert!(
        !Cmp::Exact.admits(1.0, f64::NAN),
        "a missing value never passes"
    );
}

#[test]
fn malformed_input_is_a_typed_error_naming_the_file() {
    let dir = scratch_dir("malformed");
    let base = baseline_path("obs");
    let text = std::fs::read_to_string(&base).unwrap();
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &text[..text.len() / 2]).unwrap();
    let shapeless = dir.join("shapeless.json");
    std::fs::write(&shapeless, r#"{"rows": []}"#).unwrap();
    let run = |current: std::path::PathBuf| {
        let current = current.to_string_lossy().into_owned();
        let err = section("obs").run(&[base.clone(), current.clone()], false);
        let err = err.expect_err("a malformed document is never judged");
        assert!(err.to_string().starts_with(&current), "{err}");
        err
    };
    assert!(matches!(run(dir.join("missing.json")), GateError::Read(..)));
    assert!(matches!(run(truncated), GateError::Parse(..)));
    assert!(matches!(run(shapeless), GateError::Shape(..)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn update_refuses_to_write_past_a_broken_invariant() {
    let dir = scratch_dir("update");
    let text = std::fs::read_to_string(baseline_path("throughput")).unwrap();
    let base = dir.join("baseline.json").to_string_lossy().into_owned();
    let cur = dir.join("current.json").to_string_lossy().into_owned();
    let stale = text.replace("\"rounds\": 3", "\"rounds\": 2");
    std::fs::write(&base, &stale).unwrap();
    let panicked = text.replace("\"contained_panics\": 0", "\"contained_panics\": 1");
    std::fs::write(&cur, panicked).unwrap();
    let throughput = section("throughput");

    let report = throughput.run(&[base.clone(), cur.clone()], true).unwrap();
    assert!(!report.updated);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.violations[0].contains("contained_panics"));
    assert_eq!(std::fs::read_to_string(&base).unwrap(), stale);

    // a healthy document is written verbatim
    std::fs::write(&cur, &text).unwrap();
    assert!(throughput.run(&[base.clone(), cur], true).unwrap().updated);
    assert_eq!(std::fs::read_to_string(&base).unwrap(), text);
    std::fs::remove_dir_all(&dir).unwrap();
}
