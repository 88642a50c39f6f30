//! The four workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).
//!
//! Every workload is a closed loop over *passes*: one pass is one
//! request per input (the 26 suite programs, or a block of fuzz seeds),
//! in an order fixed by the workload seed and the pass number. Clients
//! draw requests from a shared dispenser that stops only at a pass
//! boundary once the time is up, so every run measures whole passes and
//! the request mix never depends on where the clock ran out.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use benchsuite::DataSize;
use jrpm::pipeline::{run_pipeline, PipelineConfig};
use serve::{ProfileRequest, ProfileResponse, Server, ServerConfig, Ticket};
use test_tracer::{Profile, TestTracer, TracerConfig};
use tvm::record::{MappedRecording, RecordingError};
use tvm::trace::TraceSink;
use tvm::Program;

use crate::reference::{report_digest, Reference, Summary};
use crate::rusage;
use crate::stats::{describe, median, quantile, ratio, shuffled, sorted, splitmix, trimmed_mean};
use crate::traced::{self, Layer, Spans, LAYER_NAMES};

/// Client threads of the served workloads.
const CLIENTS: usize = 2;
/// Worker threads of the in-process server.
const WORKERS: usize = 2;
/// Bound of the server's job queue.
const QUEUE_DEPTH: usize = 4;
/// Times set-up runs in an untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fuzz seeds `0..FUZZ_SEEDS` make one pass of `fuzz-oracle`; the
/// workload seed fixes their order. (Seed-dependent ranges made the
/// metrics depend on which programs a range happened to hold: across
/// five workload seeds `events_per_s` ranged from 242 to 3493.)
const FUZZ_SEEDS: usize = 24;
/// Where set-up writes the replay recordings, relative to the
/// directory the benchmark runs in.
const DATA_DIR: &str = ".bench_data";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelineDefault,
    PipelineSmallServe,
    ReplayServe,
    FuzzOracle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PipelineDefault,
        Workload::PipelineSmallServe,
        Workload::ReplayServe,
        Workload::FuzzOracle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineDefault => "pipeline-default",
            Workload::PipelineSmallServe => "pipeline-small-serve",
            Workload::ReplayServe => "replay-serve",
            Workload::FuzzOracle => "fuzz-oracle",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a run prints: its counts, its metrics and human-readable lines.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub lines: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    fn outcome(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

// -- the closed-loop load generator -------------------------------------

/// One request slot: the pass it belongs to and the input it names.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pass: usize,
    input: usize,
}

struct Dispenser {
    inputs: usize,
    /// Passes that must complete together before the run may stop.
    group: usize,
    key: u64,
    deadline: Instant,
    state: Mutex<DispenserState>,
}

struct DispenserState {
    next: usize,
    stopped: bool,
    order: Vec<usize>,
}

impl Dispenser {
    fn take(&self) -> Option<Slot> {
        let mut s = self.state.lock().expect("dispenser lock is never poisoned");
        if s.stopped {
            return None;
        }
        let i = s.next;
        let pass = i / self.inputs;
        if i.is_multiple_of(self.inputs) {
            if pass > 0 && pass.is_multiple_of(self.group) && Instant::now() >= self.deadline {
                s.stopped = true;
                return None;
            }
            s.order = shuffled(self.inputs, splitmix(self.key ^ (pass as u64)));
        }
        s.next += 1;
        Some(Slot {
            pass,
            input: s.order[i % self.inputs],
        })
    }
}

/// The completed requests of one measured phase.
struct Phase<T> {
    done: Vec<(Slot, T)>,
    wall_s: f64,
    passes: usize,
}

/// Runs `clients` closed-loop clients over `inputs` inputs per pass for
/// about `seconds` (whole groups of `group` passes, at least one).
fn drive<T: Send>(
    clients: usize,
    inputs: usize,
    group: usize,
    key: u64,
    seconds: f64,
    work: impl Fn(Slot) -> T + Sync,
) -> Phase<T> {
    let started = Instant::now();
    let disp = Dispenser {
        inputs,
        group,
        key,
        deadline: started + Duration::from_secs_f64(seconds),
        state: Mutex::new(DispenserState {
            next: 0,
            stopped: false,
            order: Vec::new(),
        }),
    };
    let client = || {
        let mut out = Vec::new();
        while let Some(slot) = disp.take() {
            out.push((slot, work(slot)));
        }
        out
    };
    // a single client runs on the calling thread, as a command-line
    // user's work does: the allocator serves the main thread from its
    // own arena, which changes how large tables are paged in
    let done = if clients == 1 {
        client()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
            let mut all = Vec::new();
            for h in handles {
                all.extend(h.join().expect("client thread panicked"));
            }
            all
        })
    };
    let wall_s = started.elapsed().as_secs_f64();
    let passes = done.iter().map(|(s, _)| s.pass + 1).max().unwrap_or(0);
    Phase {
        done,
        wall_s,
        passes,
    }
}

/// One untraced request's outcome.
#[derive(Debug, Clone, Copy)]
struct Done {
    /// Client-timed latency.
    nanos: u64,
    /// Time blocked in `Server::submit` (0 in process).
    submit_nanos: u64,
    events: u64,
    ok: bool,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

// -- inputs ---------------------------------------------------------------

pub fn size_name(size: DataSize) -> &'static str {
    match size {
        DataSize::Small => "small",
        DataSize::Default => "default",
        DataSize::Large => "large",
    }
}

struct Suite {
    names: Vec<&'static str>,
    programs: Vec<Program>,
    size: DataSize,
}

fn build_suite(size: DataSize) -> Suite {
    let benches = benchsuite::all();
    Suite {
        names: benches.iter().map(|b| b.name).collect(),
        programs: benches.iter().map(|b| (b.build)(size)).collect(),
        size,
    }
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        dump_dir: None,
        ..ServerConfig::default()
    })
}

fn recording_path(name: &str) -> PathBuf {
    Path::new(DATA_DIR).join(format!("{name}.tvmr"))
}

/// Records and saves every suite program's profiling-annotated stream,
/// checking the loop-event counts against the reference.
fn save_recordings(suite: &Suite, reference: &Reference, rep: &mut Report) -> Vec<PathBuf> {
    std::fs::create_dir_all(DATA_DIR).expect("create the recording directory");
    let mut paths = Vec::new();
    for (name, program) in suite.names.iter().zip(&suite.programs) {
        let path = recording_path(name);
        let ok = match traced::save_annotated_recording(program, &path) {
            Ok((enters, iters)) => {
                let want = reference.recordings.get(*name);
                let ok = want.is_some_and(|w| w.loop_enters == enters && w.loop_iters == iters);
                if !ok {
                    eprintln!(
                        "REFERENCE MISMATCH recording {name}: loop enters {enters}, iterations \
                         {iters}, expected {want:?}"
                    );
                }
                ok
            }
            Err(e) => {
                eprintln!("recording {name} failed: {e}");
                false
            }
        };
        rep.outcome(ok);
        paths.push(path);
    }
    paths
}

/// The server's `ReplayMapped` work, in process and untraced.
fn replay_plain(path: &Path) -> Result<Profile, RecordingError> {
    let mapped = MappedRecording::open(path)?;
    let view = mapped.view()?;
    let mut tracer = TestTracer::new(TracerConfig::default());
    view.stream_batches(serve::DEFAULT_REPLAY_BATCH, |b| tracer.consume_batch(b))?;
    Ok(tracer.into_profile())
}

/// Submits and waits, timing the whole request and the submit alone.
fn serve_timed(server: &Server, req: ProfileRequest) -> (Option<ProfileResponse>, u64, u64) {
    let t = Instant::now();
    let ticket = server.submit(req);
    let submit_nanos = t.elapsed().as_nanos() as u64;
    let resp = ticket.and_then(Ticket::wait).ok();
    (resp, t.elapsed().as_nanos() as u64, submit_nanos)
}

fn replay_request(path: &Path) -> ProfileRequest {
    ProfileRequest::ReplayMapped {
        path: path.to_path_buf(),
        tracer: TracerConfig::default(),
        batch_capacity: serve::DEFAULT_REPLAY_BATCH,
    }
}

/// Everything set-up builds for one workload.
struct Prepared {
    suite: Option<Suite>,
    server: Option<Server>,
    recordings: Vec<PathBuf>,
}

impl Prepared {
    fn suite(&self) -> &Suite {
        self.suite.as_ref().expect("this workload builds the suite")
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("this workload starts a server")
    }
}

/// Builds inputs, records and saves, starts the server and warms up.
/// Warm-up results are checked like measured ones.
fn setup(w: Workload, reference: &Reference, rep: &mut Report) -> Prepared {
    let cfg = PipelineConfig::default();
    match w {
        Workload::PipelineDefault => {
            let suite = build_suite(DataSize::Default);
            // warm up on the Small inputs: the same code, a tenth the time
            let warm = build_suite(DataSize::Small);
            for (name, p) in warm.names.iter().zip(&warm.programs) {
                let ok = run_pipeline(p, &cfg)
                    .is_ok_and(|r| reference.check_pipeline("small", name, &Summary::of(&r)));
                rep.outcome(ok);
            }
            Prepared {
                suite: Some(suite),
                server: None,
                recordings: Vec::new(),
            }
        }
        Workload::PipelineSmallServe => {
            let suite = build_suite(DataSize::Small);
            let server = start_server();
            for (name, p) in suite.names.iter().zip(&suite.programs) {
                let ok = server
                    .profile(ProfileRequest::Pipeline {
                        program: p.clone(),
                        cfg,
                    })
                    .is_ok_and(|resp| {
                        resp.report().is_some_and(|r| {
                            reference.check_pipeline("small", name, &Summary::of(r))
                        })
                    });
                rep.outcome(ok);
            }
            Prepared {
                suite: Some(suite),
                server: Some(server),
                recordings: Vec::new(),
            }
        }
        Workload::ReplayServe => {
            let suite = build_suite(DataSize::Default);
            let recordings = save_recordings(&suite, reference, rep);
            let server = start_server();
            for (name, path) in suite.names.iter().zip(&recordings) {
                let ok = server
                    .profile(replay_request(path))
                    .is_ok_and(|resp| reference.check_replay(name, resp.profile()));
                rep.outcome(ok);
            }
            Prepared {
                suite: Some(suite),
                server: Some(server),
                recordings,
            }
        }
        Workload::FuzzOracle => {
            // nothing to build: warm up on a seed outside the measured
            // range
            drop(TestTracer::new(TracerConfig::unbounded()).into_profile());
            rep.outcome(fuzzgen::check_seed(FUZZ_SEEDS as u64).is_ok());
            Prepared {
                suite: None,
                server: None,
                recordings: Vec::new(),
            }
        }
    }
}

/// One untraced request of workload `w` on input `i`.
fn request(w: Workload, prep: &Prepared, reference: &Reference, i: usize) -> Done {
    match w {
        Workload::PipelineDefault => {
            let s = prep.suite();
            let (r, nanos) = timed(|| run_pipeline(&s.programs[i], &PipelineConfig::default()));
            pipeline_done(s, reference, i, r.ok().as_ref(), nanos, 0)
        }
        Workload::PipelineSmallServe => {
            let s = prep.suite();
            let req = ProfileRequest::Pipeline {
                program: s.programs[i].clone(),
                cfg: PipelineConfig::default(),
            };
            let (resp, nanos, submit) = serve_timed(prep.server(), req);
            pipeline_done(
                s,
                reference,
                i,
                resp.as_ref().and_then(ProfileResponse::report),
                nanos,
                submit,
            )
        }
        Workload::ReplayServe => {
            let req = replay_request(&prep.recordings[i]);
            let (resp, nanos, submit) = serve_timed(prep.server(), req);
            replay_done(
                prep.suite().names[i],
                reference,
                resp.as_ref().map(ProfileResponse::profile),
                nanos,
                submit,
            )
        }
        Workload::FuzzOracle => {
            let seed = i as u64;
            let (r, nanos) = timed(|| fuzzgen::check_seed(seed));
            fuzz_done(seed, r, nanos)
        }
    }
}

fn pipeline_done(
    s: &Suite,
    reference: &Reference,
    i: usize,
    report: Option<&jrpm::pipeline::PipelineReport>,
    nanos: u64,
    submit_nanos: u64,
) -> Done {
    let ok = report
        .is_some_and(|r| reference.check_pipeline(size_name(s.size), s.names[i], &Summary::of(r)));
    Done {
        nanos,
        submit_nanos,
        events: report.map_or(0, |r| r.profile.events),
        ok,
    }
}

fn replay_done(
    name: &str,
    reference: &Reference,
    profile: Option<&Profile>,
    nanos: u64,
    submit_nanos: u64,
) -> Done {
    Done {
        nanos,
        submit_nanos,
        events: profile.map_or(0, |p| p.events),
        ok: profile.is_some_and(|p| reference.check_replay(name, p)),
    }
}

fn fuzz_done(seed: u64, r: Result<fuzzgen::CheckStats, fuzzgen::Failure>, nanos: u64) -> Done {
    match r {
        Ok(stats) => Done {
            nanos,
            submit_nanos: 0,
            events: stats.events as u64,
            ok: true,
        },
        Err(f) => {
            eprintln!("FUZZ ORACLE FAILURE seed {seed}: {f:?}");
            Done {
                nanos,
                submit_nanos: 0,
                events: 0,
                ok: false,
            }
        }
    }
}

fn inputs(w: Workload, prep: &Prepared) -> usize {
    match w {
        Workload::FuzzOracle => FUZZ_SEEDS,
        _ => prep.suite().programs.len(),
    }
}

fn clients(w: Workload) -> usize {
    match w {
        Workload::PipelineSmallServe | Workload::ReplayServe => CLIENTS,
        Workload::PipelineDefault | Workload::FuzzOracle => 1,
    }
}

/// Per-request latencies of a phase, in ms, sorted.
fn latencies_ms(done: &[(Slot, Done)]) -> Vec<f64> {
    sorted(
        &done
            .iter()
            .map(|(_, d)| d.nanos as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// The trimmed mean over passes of each pass's exact `q`-quantile of
/// `(pass, latency)` samples. Pooling the passes instead puts the median
/// of a 26-program mix on the edge between the 13th and 14th programs'
/// clusters, where noise flips it from one program to the other (a
/// 20 ms / 25 ms bimodal `latency_p50_ms` on `pipeline-default`); within
/// one pass every input appears once, so the rank names one input.
/// The per-pass values still form clusters when the host changes speed
/// within a run or a program near the rank has a two-mode latency (the
/// 24th of 26 on `pipeline-small-serve` lands in an 11 ms / 18 ms gap),
/// so a median over passes snaps to whichever cluster holds half of
/// them; the mean follows their proportion smoothly.
fn pass_quantile(samples: impl Iterator<Item = (usize, f64)>, q: f64) -> f64 {
    let mut passes: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (pass, v) in samples {
        passes.entry(pass).or_default().push(v);
    }
    let per_pass: Vec<f64> = passes.values().map(|v| quantile(&sorted(v), q)).collect();
    trimmed_mean(&per_pass)
}

fn latency_ms(done: &[(Slot, Done)], q: f64) -> f64 {
    pass_quantile(done.iter().map(|(s, d)| (s.pass, d.nanos as f64 / 1e6)), q)
}

// -- untraced run ---------------------------------------------------------

/// The untraced run: set-up repeated, then the measured closed loop.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64, reference: &Reference) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPEATS {
        drop(prep.take()); // stop the previous server before timing a new set-up
        let t = Instant::now();
        prep = Some(setup(w, reference, &mut rep));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("set-up ran");

    let phase = drive(clients(w), inputs(w, &prep), 1, seed, seconds, |slot| {
        request(w, &prep, reference, slot.input)
    });
    let usage = rusage::now();
    for (_, d) in &phase.done {
        rep.outcome(d.ok);
    }
    let lat = latencies_ms(&phase.done);
    let events: u64 = phase.done.iter().map(|(_, d)| d.events).sum();
    rep.lines.push(format!(
        "{}: {} requests in {} passes over {:.2} s, {} clients; set-up {:?} s",
        w.name(),
        phase.done.len(),
        phase.passes,
        phase.wall_s,
        clients(w),
        setup_s,
    ));
    rep.lines.push(format!(
        "pooled latency p50 {}; p90 {}; p99 {}",
        describe(&lat, 0.50),
        describe(&lat, 0.90),
        describe(&lat, 0.99)
    ));
    rep.metric("setup_s", median(&setup_s), "s");
    rep.metric(
        "requests_per_s",
        ratio(phase.done.len() as f64, phase.wall_s),
        "1/s",
    );
    rep.metric("events_per_s", ratio(events as f64, phase.wall_s), "1/s");
    rep.metric("latency_p50_ms", latency_ms(&phase.done, 0.50), "ms");
    rep.metric("latency_p90_ms", latency_ms(&phase.done, 0.90), "ms");
    rep.metric("peak_rss_mb", usage.maxrss_kb as f64 / 1024.0, "MB");
    rep.lines.push(format!(
        "fail_frac {} ({} of {} attempted)",
        ratio(rep.failed as f64, rep.attempted as f64),
        rep.failed,
        rep.attempted
    ));
    cleanup(&prep);
    rep
}

fn cleanup(prep: &Prepared) {
    for path in &prep.recordings {
        let _ = std::fs::remove_file(path);
    }
    if !prep.recordings.is_empty() {
        let _ = std::fs::remove_dir(DATA_DIR);
    }
}

// -- traced run -------------------------------------------------------------

/// One request of the traced phase: untraced on even passes, traced on
/// odd ones, both in process.
#[derive(Debug, Default)]
struct TracedDone {
    nanos: u64,
    spans: Option<Spans>,
    ok: bool,
}

/// Runs `program` through `run_pipeline` and the traced rebuild;
/// returns whether their reports are bit-identical, and the untraced
/// report's digest.
fn pipeline_fidelity(program: &Program, what: &str) -> (bool, u64) {
    let plain = run_pipeline(program, &PipelineConfig::default()).map(|r| report_digest(&r));
    let traced = traced::traced_pipeline(program, &mut Spans::default()).map(|r| report_digest(&r));
    match (plain, traced) {
        (Ok(p), Ok(t)) if p == t => (true, p),
        (p, t) => {
            eprintln!(
                "TRACED RUN IS NOT BIT-IDENTICAL to run_pipeline on {what}: run_pipeline {p:?}, \
                 traced {t:?}"
            );
            (false, p.unwrap_or(0))
        }
    }
}

/// Checks the traced rebuild against `run_pipeline` on every program at
/// both data sizes; returns the report digests by (size, program).
fn fidelity_sweep(rep: &mut Report) -> BTreeMap<(&'static str, &'static str), u64> {
    let mut digests = BTreeMap::new();
    for size in [DataSize::Small, DataSize::Default] {
        let suite = build_suite(size);
        for (name, p) in suite.names.iter().zip(&suite.programs) {
            let what = format!("{}/{name}", size_name(size));
            let (ok, d) = pipeline_fidelity(p, &what);
            rep.outcome(ok);
            digests.insert((size_name(size), *name), d);
        }
    }
    digests
}

/// The traced run: an untraced phase for process and server metrics,
/// then a phase alternating untraced and traced passes in process.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, reference: &Reference) -> Report {
    let mut rep = Report::default();
    let digests = match w {
        Workload::PipelineDefault | Workload::PipelineSmallServe => fidelity_sweep(&mut rep),
        Workload::ReplayServe | Workload::FuzzOracle => BTreeMap::new(),
    };
    let prep = setup(w, reference, &mut rep);
    let n = inputs(w, &prep);
    let k = clients(w);

    // phase U: the untraced workload itself
    let server_before = prep.server.as_ref().map(|s| s.registry().snapshot());
    let u0 = rusage::now();
    let phase_u = drive(k, n, 1, seed, seconds / 2.0, |slot| {
        request(w, &prep, reference, slot.input)
    });
    let u1 = rusage::now();
    for (_, d) in &phase_u.done {
        rep.outcome(d.ok);
    }

    // phase T: even passes untraced, odd passes traced, in process
    let phase_t = drive(k, n, 2, seed ^ 0x7472_6163_6564, seconds / 2.0, |slot| {
        traced_request(w, &prep, reference, &digests, slot)
    });
    for (_, d) in &phase_t.done {
        rep.outcome(d.ok);
    }

    let mut per_pass: BTreeMap<usize, (u64, Spans)> = BTreeMap::new();
    for (slot, d) in &phase_t.done {
        let e = per_pass.entry(slot.pass).or_default();
        e.0 += d.nanos;
        if let Some(sp) = &d.spans {
            e.1.merge(sp);
        }
    }
    let untraced_walls: Vec<f64> = per_pass
        .iter()
        .filter(|(p, _)| *p % 2 == 0)
        .map(|(_, (ns, _))| *ns as f64)
        .collect();
    let traced: Vec<(f64, &Spans)> = per_pass
        .iter()
        .filter(|(p, _)| *p % 2 == 1)
        .map(|(_, (ns, sp))| (*ns as f64, sp))
        .collect();

    // counts must repeat exactly from pass to pass
    if let Some((_, first)) = traced.first() {
        for (_, sp) in &traced[1..] {
            let same = sp.counts == first.counts && sp.calls == first.calls;
            if !same {
                eprintln!(
                    "LAYER COUNTS DIFFER between passes: {:?} vs {:?}",
                    first.counts, sp.counts
                );
            }
            rep.outcome(same);
        }
    }

    let med = |f: &dyn Fn(f64, &Spans) -> f64| {
        median(
            &traced
                .iter()
                .map(|(wall, sp)| f(*wall, sp))
                .collect::<Vec<_>>(),
        )
    };
    let count = |name: &str| med(&|_, sp| sp.counts.get(name).copied().unwrap_or(0) as f64);
    for layer in [
        Layer::Extract,
        Layer::Rescue,
        Layer::Annotate,
        Layer::Select,
        Layer::Record,
        Layer::Replay,
        Layer::Collect,
        Layer::Simulate,
    ] {
        let (i, name) = (layer as usize, LAYER_NAMES[layer as usize]);
        rep.metric(
            format!("{name}.ms"),
            med(&|_, sp| sp.nanos[i] as f64 / 1e6),
            "ms",
        );
        rep.metric(
            format!("{name}.share"),
            med(&|wall, sp| ratio(sp.nanos[i] as f64, wall)),
            "ratio",
        );
        if layer != Layer::Select {
            rep.metric(
                format!("{name}.allocs"),
                med(&|_, sp| sp.allocs[i] as f64),
                "count",
            );
        }
    }
    for name in [
        "cfgir.pointsto.iterations",
        "cfgir.rescue.applied",
        "jrpm.annotate.instrs",
        "tracer.select.chosen",
        "tvm.record.events",
        "tvm.record.cycles",
        "tracer.replay.events",
        "tracer.fifo_evictions",
        "hydra.collect.entries",
        "tvm.interp.passes",
        "hydra.simulate.threads",
        "hydra.simulate.violations",
        "hydra.simulate.tls_cycles",
    ] {
        rep.metric(name, count(name), "count");
    }
    let per = |layer: Layer, counter: &str| {
        med(&|_, sp| {
            ratio(
                sp.nanos[layer as usize] as f64,
                sp.counts.get(counter).copied().unwrap_or(0) as f64,
            )
        })
    };
    rep.metric(
        "tvm.record.ns_per_event",
        per(Layer::Record, "tvm.record.events"),
        "ns",
    );
    rep.metric(
        "tracer.replay.ns_per_event",
        per(Layer::Replay, "tracer.replay.events"),
        "ns",
    );
    rep.metric(
        "hydra.simulate.ns_per_thread",
        per(Layer::Simulate, "hydra.simulate.threads"),
        "ns",
    );
    rep.metric(
        "tvm.recording.open_ms",
        med(&|_, sp| sp.nanos[Layer::Open as usize] as f64 / 1e6),
        "ms",
    );
    rep.metric(
        "fuzzgen.check.ms",
        med(&|_, sp| sp.nanos[Layer::Check as usize] as f64 / 1e6),
        "ms",
    );
    let unbounded = Layer::UnboundedNew as usize;
    rep.metric(
        "tracer.unbounded.new_ms",
        med(&|_, sp| ratio(sp.nanos[unbounded] as f64, sp.calls[unbounded] as f64) / 1e6),
        "ms",
    );

    // the server, from phase U: served p50 minus the in-process p50 of
    // the same requests at the same concurrency (phase T's untraced
    // passes)
    let inproc_p50 = pass_quantile(
        phase_t
            .done
            .iter()
            .filter(|(s, _)| s.pass % 2 == 0)
            .map(|(s, d)| (s.pass, d.nanos as f64 / 1e6)),
        0.5,
    );
    let phase_u_p50 = latency_ms(&phase_u.done, 0.5);
    let (overhead, busy, block, high_water) = match (&prep.server, &server_before) {
        (Some(server), Some(before)) => {
            let after = server.registry().snapshot();
            let busy: u64 = (0..server.workers())
                .map(|i| {
                    let k = format!("serve.worker.{i}.busy_nanos");
                    after.counter(&k) - before.counter(&k)
                })
                .sum();
            let blocks: Vec<f64> = phase_u
                .done
                .iter()
                .map(|(_, d)| d.submit_nanos as f64 / 1e6)
                .collect();
            (
                phase_u_p50 - inproc_p50,
                ratio(busy as f64 / 1e9, phase_u.wall_s * server.workers() as f64),
                median(&blocks),
                after.counter("serve.queue.high_water") as f64,
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    rep.metric("serve.overhead_ms", overhead, "ms");
    rep.metric("serve.busy_frac", busy, "ratio");
    rep.metric("serve.submit_block_ms", block, "ms");
    rep.metric("serve.queue.high_water", high_water, "count");

    let cpu = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
    rep.metric(
        "proc.minflt",
        ratio((u1.minflt - u0.minflt) as f64, phase_u.passes as f64),
        "count",
    );
    rep.metric("proc.sys_frac", ratio(u1.sys_s - u0.sys_s, cpu), "ratio");
    let traced_wall = med(&|wall, _| wall);
    rep.metric(
        "trace.overhead",
        ratio(traced_wall, median(&untraced_walls)) - 1.0,
        "ratio",
    );
    rep.metric(
        "trace.coverage",
        med(&|wall, sp| ratio(sp.total_nanos() as f64, wall)),
        "ratio",
    );

    rep.lines.push(format!(
        "{} traced: untraced phase {} requests in {} passes; traced phase {} passes ({} traced), \
         {} clients",
        w.name(),
        phase_u.done.len(),
        phase_u.passes,
        phase_t.passes,
        traced.len(),
        k,
    ));
    rep.lines.push(format!(
        "phase U latency p50 {phase_u_p50:.3} ms; phase T untraced p50 {inproc_p50:.3} ms \
         (medians of per-pass percentiles)"
    ));
    cleanup(&prep);
    rep
}

fn traced_request(
    w: Workload,
    prep: &Prepared,
    reference: &Reference,
    digests: &BTreeMap<(&str, &str), u64>,
    slot: Slot,
) -> TracedDone {
    let i = slot.input;
    let traced = slot.pass % 2 == 1;
    let mut sp = Spans::default();
    let t = Instant::now();
    let (nanos, ok) = match w {
        Workload::PipelineDefault | Workload::PipelineSmallServe => {
            let s = prep.suite();
            let report = if traced {
                traced::traced_pipeline(&s.programs[i], &mut sp)
            } else {
                run_pipeline(&s.programs[i], &PipelineConfig::default())
            };
            let nanos = t.elapsed().as_nanos() as u64;
            let want = digests.get(&(size_name(s.size), s.names[i]));
            let ok = report.is_ok_and(|r| {
                let same = want == Some(&report_digest(&r));
                if !same {
                    eprintln!(
                        "TRACED RUN IS NOT BIT-IDENTICAL on {}/{} (traced pass: {traced})",
                        size_name(s.size),
                        s.names[i]
                    );
                }
                same && reference.check_pipeline(size_name(s.size), s.names[i], &Summary::of(&r))
            });
            (nanos, ok)
        }
        Workload::ReplayServe => {
            let path = &prep.recordings[i];
            let profile = if traced {
                traced::replay_file(path, &mut sp)
            } else {
                replay_plain(path)
            };
            let nanos = t.elapsed().as_nanos() as u64;
            let ok = profile.is_ok_and(|p| reference.check_replay(prep.suite().names[i], &p));
            (nanos, ok)
        }
        Workload::FuzzOracle => {
            // both parities build an unbounded tracer too, so the
            // traced pass does the same work as the untraced one
            let seed = i as u64;
            let unbounded = || drop(TestTracer::new(TracerConfig::unbounded()).into_profile());
            let r = if traced {
                let r = sp.time(Layer::Check, || fuzzgen::check_seed(seed));
                sp.time(Layer::UnboundedNew, unbounded);
                if let Ok(stats) = &r {
                    sp.count("fuzzgen.check.events", stats.events as u64);
                }
                r
            } else {
                let r = fuzzgen::check_seed(seed);
                unbounded();
                r
            };
            let nanos = t.elapsed().as_nanos() as u64;
            (nanos, fuzz_done(seed, r, nanos).ok)
        }
    };
    TracedDone {
        nanos,
        spans: traced.then_some(sp),
        ok,
    }
}
