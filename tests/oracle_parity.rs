//! Property tests: the hardware tracer against the exact software
//! oracle.
//!
//! With unbounded capacities the hardware model must agree with the
//! software implementation on every statistic, for arbitrary event
//! streams. With real capacities it may only *miss* dependencies
//! (FIFO eviction, aliasing), never invent them.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use test_tracer::config::TracerConfig;
use test_tracer::software::SoftwareTracer;
use test_tracer::tracer::TestTracer;
use tvm::isa::{FuncId, LoopId, Pc};
use tvm::trace::TraceSink;
use tvm::{LINE_BYTES, LINE_WORDS, WORD_BYTES};

/// A synthetic trace event.
#[derive(Debug, Clone)]
enum Ev {
    Load(u32),
    Store(u32),
    LocalLoad(u16),
    LocalStore(u16),
    Eoi,
}

fn event_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u32..64).prop_map(|a| Ev::Load(0x1000 + a * 8)),
        (0u32..64).prop_map(|a| Ev::Store(0x1000 + a * 8)),
        (0u16..4).prop_map(Ev::LocalLoad),
        (0u16..4).prop_map(Ev::LocalStore),
        Just(Ev::Eoi),
    ]
}

/// Heap events over a palette of at most 7 lines spread across
/// `0..1 << 19` (below the unbounded tables' alias limit), so the
/// tracer's line tables grow through many doublings.
fn spread_events() -> impl Strategy<Value = Vec<Ev>> {
    (
        prop::collection::vec(0u32..1 << 19, 1..8),
        prop::collection::vec((0u8..3, 0usize..8, 0u32..LINE_WORDS), 1..200),
    )
        .prop_map(|(lines, picks)| {
            picks
                .into_iter()
                .map(|(kind, pick, word)| {
                    let addr = lines[pick % lines.len()] * LINE_BYTES + word * WORD_BYTES;
                    match kind {
                        0 => Ev::Load(addr),
                        1 => Ev::Store(addr),
                        _ => Ev::Eoi,
                    }
                })
                .collect()
        })
}

fn drive(sink: &mut dyn TraceSink, events: &[Ev]) {
    let pc = Pc {
        func: FuncId(0),
        idx: 0,
    };
    let l = LoopId(0);
    sink.loop_enter(l, 4, 1, 10);
    let mut now = 10;
    for e in events {
        now += 7;
        match e {
            Ev::Load(a) => sink.heap_load(*a, now, pc),
            Ev::Store(a) => sink.heap_store(*a, now, pc),
            Ev::LocalLoad(v) => sink.local_load(*v, 1, now, pc),
            Ev::LocalStore(v) => sink.local_store(*v, 1, now, pc),
            Ev::Eoi => sink.loop_iter(l, now),
        }
    }
    sink.loop_iter(l, now + 1);
    sink.loop_exit(l, now + 2);
}

/// With unbounded capacities the hardware tracer agrees with the
/// software oracle on every statistic of the driven loop.
fn assert_unbounded_matches_oracle(events: &[Ev]) -> Result<(), TestCaseError> {
    let mut hw = TestTracer::new(TracerConfig::unbounded());
    let mut sw = SoftwareTracer::new();
    drive(&mut hw, events);
    drive(&mut sw, events);
    let hp = hw.into_profile();
    let sp = sw.into_profile();
    let h = &hp.stl[&LoopId(0)];
    let s = &sp.stl[&LoopId(0)];
    prop_assert_eq!(h.threads, s.threads);
    prop_assert_eq!(h.entries, s.entries);
    prop_assert_eq!(h.arcs_t1, s.arcs_t1);
    prop_assert_eq!(h.arc_len_sum_t1, s.arc_len_sum_t1);
    prop_assert_eq!(h.arcs_lt, s.arcs_lt);
    prop_assert_eq!(h.arc_len_sum_lt, s.arc_len_sum_lt);
    prop_assert_eq!(h.overflow_threads, s.overflow_threads);
    prop_assert_eq!(h.max_st_lines, s.max_st_lines);
    prop_assert_eq!(h.max_ld_lines, s.max_ld_lines);
    prop_assert_eq!(h.cycles, s.cycles);
    prop_assert_eq!(h.thread_size_sum, s.thread_size_sum);
    prop_assert_eq!(h.thread_size_sq_sum, s.thread_size_sq_sum);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unbounded_hardware_matches_the_oracle(events in prop::collection::vec(event_strategy(), 1..200)) {
        assert_unbounded_matches_oracle(&events)?;
    }

    #[test]
    fn unbounded_hardware_matches_the_oracle_on_spread_lines(events in spread_events()) {
        assert_unbounded_matches_oracle(&events)?;
    }

    #[test]
    fn real_capacities_never_invent_dependencies(events in prop::collection::vec(event_strategy(), 1..200)) {
        let mut hw = TestTracer::new(TracerConfig {
            store_ts_lines: 4, // aggressively tiny history
            ..TracerConfig::default()
        });
        let mut sw = SoftwareTracer::new();
        drive(&mut hw, &events);
        drive(&mut sw, &events);
        let hp = hw.into_profile();
        let sp = sw.into_profile();
        let h = &hp.stl[&LoopId(0)];
        let s = &sp.stl[&LoopId(0)];
        // heap arcs can be lost to eviction; local arcs are exact
        prop_assert!(h.arcs_t1 + h.arcs_lt <= s.arcs_t1 + s.arcs_lt);
        prop_assert_eq!(h.threads, s.threads);
    }

    #[test]
    fn arc_lengths_are_bounded_by_elapsed_time(events in prop::collection::vec(event_strategy(), 1..150)) {
        let mut hw = TestTracer::new(TracerConfig::default());
        drive(&mut hw, &events);
        let p = hw.into_profile();
        let s = &p.stl[&LoopId(0)];
        let span = p.end_time; // all events happen before end_time
        if let Some(avg) = s.arc_len_sum_t1.checked_div(s.arcs_t1) {
            prop_assert!(avg <= span);
        }
        if let Some(avg) = s.arc_len_sum_lt.checked_div(s.arcs_lt) {
            prop_assert!(avg <= span);
        }
        prop_assert!(s.overflow_threads <= s.threads);
    }
}

#[test]
fn masked_slots_are_ignored_by_the_bank() {
    let pc = Pc {
        func: FuncId(0),
        idx: 0,
    };
    let l = LoopId(0);
    let mut masked = TestTracer::new(TracerConfig::default());
    masked.set_local_mask(l, 0b01); // slot 1 excluded
    let mut open = TestTracer::new(TracerConfig::default());
    for t in [&mut masked, &mut open] {
        t.loop_enter(l, 2, 1, 0);
        t.local_store(1, 1, 5, pc);
        t.loop_iter(l, 10);
        t.local_load(1, 1, 12, pc);
        t.loop_iter(l, 20);
        t.loop_exit(l, 21);
    }
    assert_eq!(masked.into_profile().stl[&l].arcs_t1, 0);
    assert_eq!(open.into_profile().stl[&l].arcs_t1, 1);
}
