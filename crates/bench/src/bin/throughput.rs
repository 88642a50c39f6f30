//! Service-scale throughput benchmark for the profiling server.
//!
//! ```text
//! cargo run --release -p jrpm-bench --bin throughput -- [--out FILE]
//!     [--workers N] [--clients N] [--rounds N]
//! ```
//!
//! Records the whole benchmark suite once, then drives the `serve`
//! worker pool three ways and writes one JSON document (default
//! `BENCH_throughput.json`):
//!
//! 1. **direct** — single-threaded owned replay into a fresh tracer,
//!    the machine-speed calibration every other number is normalized
//!    against;
//! 2. **replay** — concurrent clients hammering the zero-copy
//!    `ReplayMapped` endpoint; sustained events/sec, events/sec per
//!    worker core, and p50/p99 request latency;
//! 3. **pipeline** — concurrent clients submitting full pipeline
//!    requests; p50/p99 end-to-end request latency.
//!
//! The headline `scaling_efficiency` — server events/sec per
//! *effective* core (`min(workers, available_parallelism)`) over
//! direct single-core events/sec — is classic parallel efficiency:
//! dimensionless and machine-speed independent, which is what
//! `gate throughput` pins. Raw events/sec are reported for trajectory
//! plots but not gated.
//!
//! A fourth phase measures live-telemetry cost: the same replay
//! workload with the flight recorder and tail sampler disabled
//! (`ring_capacity: 0`) vs enabled, best of two runs each. The
//! benchmark fails if the enabled run is more than 5% slower — the
//! recorder is designed to be cheap enough to leave on in production.

use std::process::ExitCode;
use std::time::Instant;

use benchsuite::{all, DataSize};
use jrpm::pipeline::PipelineConfig;
use obs::metrics::Histogram;
use serve::{ProfileRequest, ProfileResponse, Server, ServerConfig};
use test_tracer::{TestTracer, TracerConfig};
use tvm::record::{MappedRecording, Recording, RecordingSink};
use tvm::trace::TraceSink;
use tvm::Interp;

/// Telemetry overhead above this fraction fails the benchmark.
const MAX_RECORDER_OVERHEAD: f64 = 0.05;

struct Args {
    out: String,
    workers: usize,
    clients: usize,
    rounds: usize,
}

fn usage() -> ! {
    eprintln!("usage: throughput [--out FILE] [--workers N] [--clients N] [--rounds N]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        out: "BENCH_throughput.json".to_string(),
        workers: 4,
        clients: 4,
        rounds: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--out" => out.out = next(),
            "--workers" => out.workers = next().parse().unwrap_or_else(|_| usage()),
            "--clients" => out.clients = next().parse().unwrap_or_else(|_| usage()),
            "--rounds" => out.rounds = next().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if out.workers == 0 || out.clients == 0 || out.rounds == 0 {
        usage();
    }
    out
}

/// Guarded ratio: `0.0` instead of NaN/inf on an empty denominator, so
/// the JSON document never carries a non-finite number.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num.is_finite() {
        num / den
    } else {
        0.0
    }
}

struct Phase {
    requests: u64,
    events: u64,
    wall_nanos: u64,
    p50_nanos: u64,
    p99_nanos: u64,
}

impl Phase {
    fn from_latencies(lat: Vec<u64>, events: u64, wall_nanos: u64) -> Phase {
        // the same log₂-bucket histogram + interpolated quantile
        // estimator the server's tail sampler thresholds with
        // (obs::metrics::HistogramSnapshot::quantile)
        let hist = Histogram::default();
        for &v in &lat {
            hist.record(v);
        }
        let snap = hist.snapshot();
        Phase {
            requests: lat.len() as u64,
            events,
            wall_nanos,
            p50_nanos: snap.quantile(0.50),
            p99_nanos: snap.quantile(0.99),
        }
    }

    fn events_per_sec(&self) -> f64 {
        ratio(self.events as f64 * 1e9, self.wall_nanos as f64)
    }
}

/// Drives `clients` concurrent clients, each submitting every request
/// `make` yields for it, and merges the per-request latencies.
fn drive(
    server: &Server,
    clients: usize,
    make: impl Fn(usize) -> Vec<ProfileRequest> + Sync,
) -> Phase {
    let started = Instant::now();
    let (lat, events) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..clients {
            let make = &make;
            handles.push(scope.spawn(move || {
                let mut lat = Vec::new();
                let mut events = 0u64;
                for req in make(client) {
                    let t = Instant::now();
                    let resp = server
                        .profile(req)
                        .unwrap_or_else(|e| panic!("client {client}: request failed: {e}"));
                    lat.push(t.elapsed().as_nanos() as u64);
                    if let ProfileResponse::Profile { events: n, .. } = &resp {
                        events += n;
                    }
                }
                (lat, events)
            }));
        }
        let mut lat = Vec::new();
        let mut events = 0u64;
        for h in handles {
            let (l, n) = h.join().expect("client thread");
            lat.extend(l);
            events += n;
        }
        (lat, events)
    });
    Phase::from_latencies(lat, events, started.elapsed().as_nanos() as u64)
}

fn phase_json(name: &str, p: &Phase) -> String {
    format!(
        "  \"{name}\": {{\n    \"requests\": {},\n    \"events\": {},\n    \
         \"wall_nanos\": {},\n    \"events_per_sec\": {:.1},\n    \
         \"latency_p50_nanos\": {},\n    \"latency_p99_nanos\": {}\n  }}",
        p.requests,
        p.events,
        p.wall_nanos,
        p.events_per_sec(),
        p.p50_nanos,
        p.p99_nanos,
    )
}

fn main() -> ExitCode {
    let args = parse_args();
    let suite = all();

    // -- record the suite once; replay-many from here on --------------
    let dir = std::env::temp_dir().join(format!("jrpm-throughput-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for recordings");
    let mut recordings: Vec<(&str, Recording, std::path::PathBuf)> = Vec::new();
    for bench in &suite {
        let program = (bench.build)(DataSize::Small);
        let mut sink = RecordingSink::new();
        Interp::run(&program, &mut sink)
            .unwrap_or_else(|e| panic!("{}: recording run failed: {e:?}", bench.name));
        let rec = sink.into_recording();
        let path = dir.join(format!("{}.tvmr", bench.name));
        rec.save(&path)
            .unwrap_or_else(|e| panic!("{}: save failed: {e}", bench.name));
        recordings.push((bench.name, rec, path));
    }

    // -- calibration: single-core zero-copy mapped replay, exactly the
    // work one server worker does per request minus the queue ----------
    let started = Instant::now();
    let mut direct_events = 0u64;
    for (name, _, path) in &recordings {
        let mapped =
            MappedRecording::open(path).unwrap_or_else(|e| panic!("{name}: mmap open failed: {e}"));
        let view = mapped
            .view()
            .unwrap_or_else(|e| panic!("{name}: view failed: {e}"));
        let mut tracer = TestTracer::new(TracerConfig::default());
        direct_events += view
            .stream_batches(serve::DEFAULT_REPLAY_BATCH, |b| tracer.consume_batch(b))
            .unwrap_or_else(|e| panic!("{name}: stream failed: {e}"));
        let _ = tracer.into_profile();
    }
    let direct = Phase {
        requests: recordings.len() as u64,
        events: direct_events,
        wall_nanos: started.elapsed().as_nanos() as u64,
        p50_nanos: 0,
        p99_nanos: 0,
    };

    let server = Server::start(ServerConfig {
        workers: args.workers,
        queue_depth: args.workers * 2,
        ..ServerConfig::default()
    });
    let alert_baseline = server.registry().snapshot();

    // -- warmup: touch every mapping once ------------------------------
    for (name, _, path) in &recordings {
        server
            .profile(ProfileRequest::ReplayMapped {
                path: path.clone(),
                tracer: TracerConfig::default(),
                batch_capacity: serve::DEFAULT_REPLAY_BATCH,
            })
            .unwrap_or_else(|e| panic!("{name}: warmup failed: {e}"));
    }

    // -- measured: zero-copy replay under concurrent load --------------
    let make_replay = |client: usize| {
        let mut reqs = Vec::new();
        for round in 0..args.rounds {
            for i in 0..recordings.len() {
                // stagger start offsets so clients do not convoy
                let i = (i + client + round) % recordings.len();
                reqs.push(ProfileRequest::ReplayMapped {
                    path: recordings[i].2.clone(),
                    tracer: TracerConfig::default(),
                    batch_capacity: serve::DEFAULT_REPLAY_BATCH,
                });
            }
        }
        reqs
    };
    let replay = drive(&server, args.clients, make_replay);

    // -- measured: full pipeline requests -------------------------------
    let cfg = PipelineConfig::default();
    let pipeline = drive(&server, args.clients, |client| {
        suite
            .iter()
            .cycle()
            .skip(client)
            .take(suite.len())
            .map(|b| ProfileRequest::Pipeline {
                program: (b.build)(DataSize::Small),
                cfg,
            })
            .collect()
    });

    // `workers` is a flag (stable across runs, shape-gated); the cores
    // actually backing them are a machine property, so the per-core
    // normalization uses whichever is smaller. On a 1-core box 4
    // workers time-slice one core and the per-core number would
    // otherwise undercount 4x.
    let effective_cores = args
        .workers
        .min(std::thread::available_parallelism().map_or(1, usize::from));

    let registry = server.shutdown();
    let snap = registry.snapshot();
    // the default rule set tolerates a saturated queue (closed-loop
    // clients saturate it by design) but zero panics and no starved
    // shard — a healthy bench run must fire nothing
    let alerts =
        obs::live::evaluate_alerts(&alert_baseline, &snap, &obs::live::AlertConfig::default());
    let panics: u64 = (0..args.workers)
        .map(|i| snap.counter(&format!("serve.worker.{i}.panics")))
        .sum();

    // -- telemetry overhead: identical replay workload, recorder and
    // tail sampler off (ring_capacity 0) vs on; best of two runs each
    // to shave scheduler noise off the comparison ----------------------
    let overhead_run = |ring_capacity: usize| {
        let s = Server::start(ServerConfig {
            workers: args.workers,
            queue_depth: args.workers * 2,
            ring_capacity,
            ..ServerConfig::default()
        });
        for (name, _, path) in &recordings {
            s.profile(ProfileRequest::ReplayMapped {
                path: path.clone(),
                tracer: TracerConfig::default(),
                batch_capacity: serve::DEFAULT_REPLAY_BATCH,
            })
            .unwrap_or_else(|e| panic!("{name}: overhead warmup failed: {e}"));
        }
        let mut best: Option<Phase> = None;
        for _ in 0..2 {
            let p = drive(&s, args.clients, make_replay);
            if best
                .as_ref()
                .is_none_or(|b| p.events_per_sec() > b.events_per_sec())
            {
                best = Some(p);
            }
        }
        s.shutdown();
        best.expect("two overhead runs happened")
    };
    let recorder_off = overhead_run(0);
    let recorder_on = overhead_run(ServerConfig::default().ring_capacity);
    let overhead_frac = ratio(
        (recorder_off.events_per_sec() - recorder_on.events_per_sec()).max(0.0),
        recorder_off.events_per_sec(),
    );

    let _ = std::fs::remove_dir_all(&dir);

    let per_core = ratio(replay.events_per_sec(), effective_cores as f64);
    let efficiency = ratio(per_core, direct.events_per_sec());
    let doc = format!(
        "{{\n  \"config\": {{\n    \"benchmarks\": {},\n    \"workers\": {},\n    \
         \"clients\": {},\n    \"rounds\": {},\n    \"effective_cores\": {effective_cores}\n  \
         }},\n{},\n{},\n{},\n{},\n{},\n  \
         \"headline\": {{\n    \"events_per_sec_per_core\": {per_core:.1},\n    \
         \"scaling_efficiency\": {efficiency:.4},\n    \
         \"recorder_overhead_frac\": {overhead_frac:.4},\n    \
         \"contained_panics\": {panics}\n  }}\n}}\n",
        suite.len(),
        args.workers,
        args.clients,
        args.rounds,
        phase_json("direct", &direct),
        phase_json("replay", &replay),
        phase_json("pipeline", &pipeline),
        phase_json("recorder_off", &recorder_off),
        phase_json("recorder_on", &recorder_on),
    );
    std::fs::write(&args.out, &doc)
        .unwrap_or_else(|e| panic!("throughput: cannot write {}: {e}", args.out));
    eprintln!(
        "throughput: {} requests served, {:.0} events/sec sustained ({:.0} per core, \
         {:.2}x single-core efficiency), replay p50 {}us p99 {}us, recorder overhead \
         {:.1}% -> {}",
        replay.requests + pipeline.requests,
        replay.events_per_sec(),
        per_core,
        efficiency,
        replay.p50_nanos / 1_000,
        replay.p99_nanos / 1_000,
        overhead_frac * 100.0,
        args.out
    );
    if panics > 0 {
        eprintln!("throughput: FAILED — {panics} contained panics");
        return ExitCode::FAILURE;
    }
    if !alerts.is_empty() {
        eprintln!(
            "throughput: FAILED — {} alert(s) fired on a healthy run: {}",
            alerts.len(),
            obs::live::alerts_json(&alerts)
        );
        return ExitCode::FAILURE;
    }
    if overhead_frac > MAX_RECORDER_OVERHEAD {
        eprintln!(
            "throughput: FAILED — flight recorder + tail sampling cost {:.1}% events/sec \
             (limit {:.0}%)",
            overhead_frac * 100.0,
            MAX_RECORDER_OVERHEAD * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
