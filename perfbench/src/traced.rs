//! The traced run: the calls into each layer's public functions, timed
//! from the benchmark's own code.
//!
//! [`traced_pipeline`] rebuilds `run_pipeline`'s offline stage order
//! (extract → rescue → annotate → record → replay-profile → select →
//! collect → simulate) from the layers' public entry points, wrapping
//! each call in a span that records its wall time and the allocations
//! it made. Spans never nest, so a layer's self time is its span's
//! duration. The rebuild must produce a report bit-identical to
//! `run_pipeline`'s (see [`crate::reference::report_digest`]); the
//! workloads fail loudly when it does not, so a later change to the
//! pipeline's stage order shows up here.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cfgir::{distance_floors, extract_candidates, rescue_program, ProgramCandidates};
use hydra_sim::{simulate_entry, TlsTraceCollector};
use jrpm::pipeline::{
    ActualTls, PipelineConfig, PipelineObservability, PipelineReport, RescueSummary,
};
use jrpm::{annotate, AnnotateOptions};
use obs::Telemetry;
use test_tracer::{select_with_distances, Profile, TestTracer, TracerConfig};
use tvm::bus::{record_batches, EventKind, TraceBus};
use tvm::record::{MappedRecording, Recording, RecordingError, RecordingSink};
use tvm::trace::TraceSink;
use tvm::{Interp, Program, VmError};

use crate::alloc;

/// A timed layer call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `cfgir::extract_candidates`.
    Extract,
    /// `cfgir::rescue_program`, plus re-extraction when it changed the
    /// program.
    Rescue,
    /// `jrpm::annotate(.., profiling())`.
    Annotate,
    /// `cfgir::distance_floors` + `select_with_distances`.
    Select,
    /// `tvm::bus::record_batches`.
    Record,
    /// The TEST tracer over the event stream: `TraceBus::replay`, or
    /// `RecordingView::stream_batches` → `consume_batch`; from tracer
    /// construction to `into_profile`.
    Replay,
    /// `jrpm::annotate(.., only(chosen))` + `Interp::run` into a
    /// `TlsTraceCollector`.
    Collect,
    /// `hydra_sim::simulate_entry` over every collected entry.
    Simulate,
    /// `MappedRecording::open` + `view`.
    Open,
    /// `fuzzgen::check_seed`.
    Check,
    /// `TestTracer::new(TracerConfig::unbounded())` + `into_profile`.
    UnboundedNew,
}

/// Number of [`Layer`]s.
pub const N_LAYERS: usize = 11;

/// Metric prefix of each layer, indexed by `Layer as usize`.
pub const LAYER_NAMES: [&str; N_LAYERS] = [
    "cfgir.extract",
    "cfgir.rescue",
    "jrpm.annotate",
    "tracer.select",
    "tvm.record",
    "tracer.replay",
    "hydra.collect",
    "hydra.simulate",
    "tvm.recording",
    "fuzzgen.check",
    "tracer.unbounded.new",
];

/// Span totals and layer counts of some traced work.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Self time per layer, in nanoseconds.
    pub nanos: [u64; N_LAYERS],
    /// Allocations per layer.
    pub allocs: [u64; N_LAYERS],
    /// Calls per layer.
    pub calls: [u64; N_LAYERS],
    /// Work counts (events, cycles, threads, …) by metric name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Runs `f` as one span of `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let r = f();
        self.nanos[layer as usize] += t0.elapsed().as_nanos() as u64;
        self.allocs[layer as usize] += alloc::count() - a0;
        self.calls[layer as usize] += 1;
        r
    }

    /// Adds `n` to a work count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Adds another set of spans into this one.
    pub fn merge(&mut self, other: &Spans) {
        for i in 0..N_LAYERS {
            self.nanos[i] += other.nanos[i];
            self.allocs[i] += other.allocs[i];
            self.calls[i] += other.calls[i];
        }
        for (&k, &v) in &other.counts {
            self.count(k, v);
        }
    }

    /// Self time summed over every layer.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// The static half of the pipeline: candidates, rescue and the
/// profiling-annotated image of the (possibly rescued) program.
pub struct Profiling {
    pub candidates: ProgramCandidates,
    pub rescue: RescueSummary,
    pub annotated: Program,
}

/// Extract, rescue (re-extracting when it changed anything) and
/// annotate for profiling, exactly as the offline pipeline does.
pub fn profiling_image(program: &Program, sp: &mut Spans) -> Result<Profiling, VmError> {
    let candidates = sp.time(Layer::Extract, || extract_candidates(program));
    sp.count("cfgir.pointsto.iterations", candidates.pointsto.iterations);
    let (candidates, rescue) = sp.time(Layer::Rescue, || {
        let out = rescue_program(program);
        let changed = !out.rescued.is_empty();
        let rescue = RescueSummary {
            rescued: out.rescued,
            rejected: out.rejected,
            program: changed.then_some(out.program),
        };
        let candidates = match &rescue.program {
            Some(p) => extract_candidates(p),
            None => candidates,
        };
        (candidates, rescue)
    });
    sp.count("cfgir.rescue.applied", rescue.rescued.len() as u64);
    let target = rescue.program_for(program);
    let annotated = sp.time(Layer::Annotate, || {
        annotate(target, &candidates, &AnnotateOptions::profiling())
    })?;
    let instrs: usize = annotated.functions.iter().map(|f| f.code.len()).sum();
    sp.count("jrpm.annotate.instrs", instrs as u64);
    Ok(Profiling {
        candidates,
        rescue,
        annotated,
    })
}

/// `run_pipeline(program, &PipelineConfig::default())`, rebuilt from
/// the layers' public calls with a span around each. The report's
/// observability fields are left empty; everything else must equal
/// `run_pipeline`'s output bit for bit.
pub fn traced_pipeline(program: &Program, sp: &mut Spans) -> Result<PipelineReport, VmError> {
    let cfg = PipelineConfig::default();
    let Profiling {
        candidates,
        rescue,
        annotated,
    } = profiling_image(program, sp)?;
    let program = rescue.program_for(program);

    let (run, batches) = sp.time(Layer::Record, || {
        record_batches(&annotated, cfg.bus.batch_capacity)
    })?;
    let events: u64 = batches.iter().map(|b| b.len() as u64).sum();
    sp.count("tvm.record.events", events);
    sp.count("tvm.record.cycles", run.cycles);
    sp.count("tvm.interp.passes", 1);

    let profile = sp.time(Layer::Replay, || {
        let mut tracer = TestTracer::with_masks(cfg.tracer, candidates.tracked_masks());
        TraceBus::new()
            .sink("test-tracer", &mut tracer)
            .replay(&batches);
        tracer.into_profile()
    });
    drop(batches);
    sp.count("tracer.replay.events", profile.events);
    sp.count("tracer.fifo_evictions", profile.fifo_evictions);
    let seq_cycles = run.cycles - run.annotation_cycles.total();

    let selection = sp.time(Layer::Select, || {
        let floors = distance_floors(program, &candidates);
        select_with_distances(
            &profile,
            &cfg.tls.estimator_params(),
            run.cycles,
            &candidates.demoted_ids(),
            &floors,
        )
    });
    sp.count("tracer.select.chosen", selection.chosen.len() as u64);

    let chosen: Vec<_> = selection.chosen.iter().map(|c| c.loop_id).collect();
    let actual = if chosen.is_empty() {
        ActualTls {
            per_loop: BTreeMap::new(),
            baseline_cycles: seq_cycles,
            tls_cycles: seq_cycles,
        }
    } else {
        let (spec_run, collector) = sp.time(Layer::Collect, || {
            let spec = annotate(program, &candidates, &AnnotateOptions::only(chosen.clone()))?;
            let mut collector = TlsTraceCollector::with_masks(chosen, candidates.tracked_masks());
            let run = Interp::run(&spec, &mut collector)?;
            Ok::<_, VmError>((run, collector))
        })?;
        sp.count("tvm.interp.passes", 1);
        sp.count("hydra.collect.entries", collector.entries.len() as u64);
        let actual = sp.time(Layer::Simulate, || {
            let mut per_loop: BTreeMap<_, jrpm::pipeline::LoopTls> = BTreeMap::new();
            let mut total = spec_run.cycles;
            for entry in &collector.entries {
                let r = simulate_entry(entry, &cfg.tls);
                let l = per_loop.entry(entry.loop_id).or_default();
                l.seq_cycles += entry.seq_cycles;
                l.tls_cycles += r.tls_cycles;
                l.violations += r.violations;
                l.overflows += r.overflows;
                l.threads += r.threads;
                total = total.saturating_sub(entry.seq_cycles) + r.tls_cycles;
            }
            ActualTls {
                per_loop,
                baseline_cycles: spec_run.cycles,
                tls_cycles: total,
            }
        });
        let (threads, violations, tls) = actual.per_loop.values().fold((0, 0, 0), |acc, l| {
            (
                acc.0 + l.threads,
                acc.1 + l.violations,
                acc.2 + l.tls_cycles,
            )
        });
        sp.count("hydra.simulate.threads", threads);
        sp.count("hydra.simulate.violations", violations);
        sp.count("hydra.simulate.tls_cycles", tls);
        actual
    };

    Ok(PipelineReport {
        seq_cycles,
        profile_cycles: run.cycles,
        annotation: run.annotation_cycles,
        candidates,
        rescue,
        profile,
        selection,
        actual,
        obs: PipelineObservability::default(),
        telemetry: Telemetry::new(),
    })
}

/// What the server's `ReplayMapped` handler does, in process: map the
/// recording, stream it through a fresh default TEST tracer.
pub fn replay_file(path: &Path, sp: &mut Spans) -> Result<Profile, RecordingError> {
    let mapped = sp.time(Layer::Open, || MappedRecording::open(path))?;
    let view = sp.time(Layer::Open, || mapped.view())?;
    let profile = sp.time(Layer::Replay, || {
        let mut tracer = TestTracer::new(TracerConfig::default());
        view.stream_batches(serve::DEFAULT_REPLAY_BATCH, |b| tracer.consume_batch(b))?;
        Ok::<_, RecordingError>(tracer.into_profile())
    })?;
    sp.count("tracer.replay.events", profile.events);
    sp.count("tracer.fifo_evictions", profile.fifo_evictions);
    Ok(profile)
}

/// The event stream of `program`'s profiling-annotated image: the
/// stream the pipeline's tracer consumes, which, unlike the plain
/// program's, carries loop-enter and loop-iteration events.
pub fn annotated_recording(program: &Program) -> Result<Recording, VmError> {
    let image = profiling_image(program, &mut Spans::default())?;
    let mut sink = RecordingSink::new();
    Interp::run(&image.annotated, &mut sink)?;
    Ok(sink.into_recording())
}

/// Saves [`annotated_recording`] to `path`; returns its loop-enter and
/// loop-iteration event counts.
pub fn save_annotated_recording(program: &Program, path: &Path) -> Result<(u64, u64), String> {
    let recording = annotated_recording(program).map_err(|e| e.to_string())?;
    recording.save(path).map_err(|e| e.to_string())?;
    let kinds = recording.kind_counts();
    Ok((
        kinds.get(EventKind::LoopEnter),
        kinds.get(EventKind::LoopIter),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::report_digest;
    use benchsuite::DataSize;
    use jrpm::pipeline::run_pipeline;

    #[test]
    fn replay_recordings_carry_loop_events_the_plain_stream_lacks() {
        let (mut enters, mut iters) = (0, 0);
        for b in benchsuite::all() {
            let program = (b.build)(DataSize::Small);
            let kinds = annotated_recording(&program)
                .expect("records")
                .kind_counts();
            enters += kinds.get(EventKind::LoopEnter);
            iters += kinds.get(EventKind::LoopIter);
            let mut plain = RecordingSink::new();
            Interp::run(&program, &mut plain).expect("runs");
            let plain = plain.into_recording().kind_counts();
            assert_eq!(plain.get(EventKind::LoopEnter), 0, "{}", b.name);
        }
        assert!(
            enters > 0 && iters > enters,
            "enters {enters}, iterations {iters}"
        );
    }

    #[test]
    fn traced_pipeline_is_bit_identical_to_run_pipeline() {
        for b in benchsuite::all().iter().take(6) {
            let program = (b.build)(DataSize::Small);
            let plain = run_pipeline(&program, &PipelineConfig::default()).expect("runs");
            let mut sp = Spans::default();
            let traced = traced_pipeline(&program, &mut sp).expect("runs");
            assert_eq!(report_digest(&plain), report_digest(&traced), "{}", b.name);
            assert_eq!(sp.counts["tvm.record.events"], plain.obs.recorded_events);
            assert!(sp.total_nanos() > 0);
        }
    }
}
