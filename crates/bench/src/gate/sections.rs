//! The section table: each gate's fields, source and invariants.
//! Recomputed snapshots run at the small data size and are
//! deterministic, so every field they write must match exactly.

use super::live::{counting_overhead, fault_window, healthy_window};
use super::{field as f, total, Against, Cmp, Current, Each, Live, Row, Section, Shape, Suite};
use crate::render::json;
use crate::tables::{prescreen_rows, rescue_rows, scev_rows, tier_rows};
use benchsuite::DataSize::Small;
use obs::json::Value;

/// Every gate, selected by name on the command line.
pub(super) static SECTIONS: [Section; 7] = [OBS, PRESCREEN, RESCUE, TIER, SCEV, THROUGHPUT, LIVE];

/// Maximum relative drift of an observability event count.
const COUNT_DRIFT: f64 = 0.20;

/// `tables --obs-json` against `results_obs_baseline.json`: event
/// counts drift at most 20% relative; each stage's share of pipeline
/// wall time (a share, so the gate is machine-speed independent)
/// drifts at most 0.20 absolute.
const OBS: Section = Section {
    name: "obs",
    args: &["<baseline.json>", "<current.json>"],
    current: Current::File(1),
    shape: Shape::Benchmarks,
    derive: Some(stage_shares),
    fields: &[
        ("interpreter_passes", Cmp::Rel(COUNT_DRIFT)),
        ("recorded_events", Cmp::Rel(COUNT_DRIFT)),
        ("batches", Cmp::Rel(COUNT_DRIFT)),
        ("events_by_kind.*", Cmp::Rel(COUNT_DRIFT)),
        ("sinks.*.events", Cmp::Rel(COUNT_DRIFT)),
        ("sinks.*.batches", Cmp::Rel(COUNT_DRIFT)),
        ("stage_share.*", Cmp::Abs(0.20)),
    ],
    invariants: &[],
};

/// Adds `stage_share.<stage>`: the stage's share of the benchmark's
/// total pipeline wall time.
fn stage_shares(bench: &Value, row: &mut Row) {
    let stages = bench.get("stages").and_then(Value::as_arr).unwrap_or(&[]);
    let nanos = |st: &Value| st.get("nanos").and_then(Value::as_f64).unwrap_or(0.0);
    let sum: f64 = stages.iter().map(nanos).sum();
    for st in stages {
        let stage = st.get("stage").and_then(Value::as_str).unwrap_or("?");
        let share = nanos(st) / if sum > 0.0 { sum } else { 1.0 };
        row.insert(format!("stage_share.{stage}"), share);
    }
}

/// `tables::prescreen_rows` against `results_prescreen_baseline.json`:
/// which access pairs the alias analysis proves independent.
const PRESCREEN: Section = Section {
    name: "prescreen",
    args: &["<baseline.json>"],
    current: Current::Recompute(|| json(&prescreen_rows(Small))),
    shape: Shape::Benchmarks,
    derive: None,
    fields: &[("*", Cmp::Exact)],
    invariants: &[
        Each("disjoint >= baseline_disjoint", |r| {
            f(r, "disjoint") >= f(r, "baseline_disjoint")
        }),
        Suite("via_pointsto > 0", |s| total(s, "via_pointsto") > 0.0),
    ],
};

/// `tables::rescue_rows` against `results_rescue_baseline.json`: which
/// demoted loops the transforms lift and which then clear selection.
const RESCUE: Section = Section {
    name: "rescue",
    args: &["<baseline.json>"],
    current: Current::Recompute(|| json(&rescue_rows(Small))),
    shape: Shape::Benchmarks,
    derive: None,
    fields: &[("*", Cmp::Exact)],
    invariants: &[
        Each("demoted_after <= demoted_before", |r| {
            f(r, "demoted_after") <= f(r, "demoted_before")
        }),
        Each(
            "reductions + privatizations + distributions == rescued",
            |r| {
                f(r, "reductions") + f(r, "privatizations") + f(r, "distributions")
                    == f(r, "rescued")
            },
        ),
        Suite("rescued > 0", |s| total(s, "rescued") > 0.0),
        Suite("selected_gain > 0", |s| total(s, "selected_gain") > 0.0),
    ],
};

/// `tables::tier_rows` against `results_tier_baseline.json`: how the
/// per-loop state machines converge, plus the live counting overhead.
const TIER: Section = Section {
    name: "tier",
    args: &["<baseline.json>"],
    current: Current::Recompute(|| json(&tier_rows(Small))),
    shape: Shape::Benchmarks,
    derive: None,
    fields: &[("*", Cmp::Exact)],
    invariants: &[
        Each("terminal == 1", |r| f(r, "terminal") == 1.0),
        Each("matches_offline == 1", |r| f(r, "matches_offline") == 1.0),
        Each(
            "selected + demoted_static + demoted_dynamic == candidates",
            |r| {
                f(r, "selected") + f(r, "demoted_static") + f(r, "demoted_dynamic")
                    == f(r, "candidates")
            },
        ),
        Live("counting overhead < 2.0x", counting_overhead),
    ],
};

/// `tables::scev_rows` against `results_scev_baseline.json`: distance
/// vectors, certified slices and the value-agreement replay, monotone
/// against the pre-screen baseline.
const SCEV: Section = Section {
    name: "scev",
    args: &["<baseline.json>", "<prescreen_baseline.json>"],
    current: Current::Recompute(|| json(&scev_rows(Small))),
    shape: Shape::Benchmarks,
    derive: None,
    fields: &[("*", Cmp::Exact)],
    invariants: &[
        Each("disjoint >= prescreen_disjoint", |r| {
            f(r, "disjoint") >= f(r, "prescreen_disjoint")
        }),
        Each("sound, 0 slice_violations, 0 distance_violations", |r| {
            f(r, "sound") == 1.0
                && f(r, "slice_violations") == 0.0
                && f(r, "distance_violations") == 0.0
        }),
        Suite("distance_pairs > 0", |s| total(s, "distance_pairs") > 0.0),
        Against("pairs == the pre-screen baseline's pairs", 1, |r, pre| {
            f(r, "pairs") == f(pre, "pairs")
        }),
        Against(
            "disjoint >= the pre-screen baseline's disjoint",
            1,
            |r, pre| f(r, "disjoint") >= f(pre, "disjoint"),
        ),
    ],
};

/// A `throughput` document against `results_throughput_baseline.json`,
/// as one row of `section.key` fields. Raw events/sec track machine
/// speed, so they are echoed, not gated.
const THROUGHPUT: Section = Section {
    name: "throughput",
    args: &["<baseline.json>", "<current.json>"],
    current: Current::File(1),
    shape: Shape::OneRow,
    derive: Some(tail_ratio),
    fields: &[
        ("config.benchmarks", Cmp::Exact),
        ("config.workers", Cmp::Exact),
        ("config.clients", Cmp::Exact),
        ("config.rounds", Cmp::Exact),
        ("replay.requests", Cmp::Exact),
        ("pipeline.requests", Cmp::Exact),
        ("headline.scaling_efficiency", Cmp::Drop(0.15)),
        ("tail_ratio", Cmp::Rise(0.50)),
        ("headline.events_per_sec_per_core", Cmp::Echo),
    ],
    invariants: &[
        Each("replay.events > 0", |r| f(r, "replay.events") > 0.0),
        Each("direct.events > 0", |r| f(r, "direct.events") > 0.0),
        Each("headline.contained_panics == 0", |r| {
            f(r, "headline.contained_panics") == 0.0
        }),
        Each("headline.recorder_overhead_frac <= 0.05", |r| {
            f(r, "headline.recorder_overhead_frac") <= 0.05
        }),
    ],
};

/// Adds `tail_ratio`: replay p50 over pipeline p50 latency (0 when the
/// pipeline p50 is 0), which catches the queue serializing.
fn tail_ratio(doc: &Value, row: &mut Row) {
    let p50 = |phase: &str| doc.get(phase)?.get("latency_p50_nanos")?.as_f64();
    if let (Some(replay), Some(pipe)) = (p50("replay"), p50("pipeline")) {
        let ratio = if pipe > 0.0 { replay / pipe } else { 0.0 };
        row.insert("tail_ratio".to_string(), ratio);
    }
}

/// Live telemetry end to end, with no baseline: a healthy server window
/// must fire nothing, and a faulted one must fire the panics rule.
const LIVE: Section = Section {
    name: "live",
    args: &[],
    current: Current::None,
    shape: Shape::Benchmarks,
    derive: None,
    fields: &[],
    invariants: &[
        Live(
            "healthy window: scrape agrees, shards alive, no alert",
            healthy_window,
        ),
        Live(
            "fault window: panic contained, dump parses, panics fires",
            fault_window,
        ),
    ],
};
