//! The checks gates run live at gate time, never stored in a baseline:
//! the tier section's counting-tier overhead and the live section's two
//! server windows.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use benchsuite::{all, DataSize};
use jrpm::pipeline::PipelineConfig;
use obs::expo;
use obs::live::{alerts_json, evaluate_alerts, AlertConfig};
use obs::FlightDump;
use serve::{ProfileRequest, ServeError, Server, ServerConfig};
use test_tracer::TracerConfig;
use tvm::record::Recording;
use tvm::{CostModel, HotLocations, Interp, NullSink};

/// Requests driven through the healthy server — enough that the
/// starvation rule is live (it needs `starvation_min_requests`) and
/// every shard claims work.
const HEALTHY_REQUESTS: usize = 64;

/// One blocking HTTP/1.0 GET; returns `(status_line, body)`.
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("endpoint accepts");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

/// The healthy window: a multi-shard server serves a mixed replay +
/// pipeline workload; the `/metrics` scrape must parse and agree
/// sample-for-sample with `Registry::snapshot()`, `/healthz` must report
/// every shard alive, and [`evaluate_alerts`] over the window must fire
/// nothing. Returns its violations.
pub(super) fn healthy_window() -> Vec<String> {
    let mut failures = Vec::new();
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let baseline = server.registry().snapshot();

    // mixed workload: cheap replays to spread across shards, plus one
    // real pipeline request so stage traces flow into the sampler
    let bench = &all()[0];
    server
        .profile(ProfileRequest::Pipeline {
            program: (bench.build)(DataSize::Small),
            cfg: PipelineConfig::default(),
        })
        .map(|_| ())
        .unwrap_or_else(|e| failures.push(format!("pipeline request failed: {e}")));
    let tickets: Vec<_> = (0..HEALTHY_REQUESTS)
        .map(|_| {
            server
                .submit(ProfileRequest::Replay {
                    recording: Recording { events: Vec::new() },
                    tracer: TracerConfig::default(),
                })
                .expect("queue is open")
        })
        .collect();
    for t in tickets {
        if let Err(e) = t.wait() {
            failures.push(format!("healthy replay failed: {e}"));
        }
    }

    // scrape endpoints against the quiesced registry
    let endpoint = server.serve_http("127.0.0.1:0").expect("endpoint binds");
    let (status, body) = get(endpoint.addr(), "/metrics");
    if !status.contains("200") {
        failures.push(format!("/metrics answered {status}"));
    }
    match expo::parse_exposition(&body) {
        Ok(parsed) => {
            for d in expo::diff_against_snapshot(&parsed, &server.registry().snapshot()) {
                failures.push(format!("/metrics disagrees with the registry: {d}"));
            }
        }
        Err(e) => failures.push(format!("/metrics does not parse: {e}")),
    }
    let (status, body) = get(endpoint.addr(), "/healthz");
    if !status.contains("200") || !body.contains("\"status\": \"ok\"") {
        failures.push(format!("/healthz unhealthy: {status} {body}"));
    }
    endpoint.stop();

    // the window itself: a healthy run fires no alert
    let alerts = evaluate_alerts(
        &baseline,
        &server.registry().snapshot(),
        &AlertConfig::default(),
    );
    if !alerts.is_empty() {
        failures.push(format!(
            "healthy window fired {} alert(s): {}",
            alerts.len(),
            alerts_json(&alerts)
        ));
    }
    server.shutdown();
    failures
}

/// The fault window: a forced worker panic (a tracer table size that
/// is not a power of two) must be contained, attach a [`FlightDump`]
/// that round-trips through its JSON form, leave the same dump on disk,
/// and make the alert evaluator fire the `panics` rule. A rule set that
/// never fires cannot pass: this is the negative control for the
/// healthy window. Returns its violations.
pub(super) fn fault_window() -> Vec<String> {
    let mut failures = Vec::new();
    let dir = std::env::temp_dir().join(format!("jrpm-gate-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        dump_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let baseline = server.registry().snapshot();

    // a warm-up request so the flight dump has history to carry
    let _ = server.profile(ProfileRequest::Replay {
        recording: Recording { events: Vec::new() },
        tracer: TracerConfig::default(),
    });
    let result = server.profile(ProfileRequest::Replay {
        recording: Recording { events: Vec::new() },
        tracer: TracerConfig {
            ld_table_entries: 3, // not a power of two: panics in the tracer
            ..TracerConfig::default()
        },
    });
    match result {
        Err(ServeError::WorkerPanicked {
            dump: Some(dump), ..
        }) => {
            match FlightDump::parse(&dump.to_json()) {
                Ok(parsed) if parsed == *dump => {}
                Ok(_) => failures.push("flight dump JSON round-trip lost data".to_string()),
                Err(e) => failures.push(format!("flight dump JSON does not parse: {e}")),
            }
            let on_disk = dir.join(format!(
                "flightdump-w{}-r{}.json",
                dump.worker, dump.request_id
            ));
            match std::fs::read_to_string(&on_disk) {
                Ok(text) => match FlightDump::parse(&text) {
                    Ok(parsed) if parsed == *dump => {}
                    _ => failures.push(format!(
                        "{} does not parse back to the attached dump",
                        on_disk.display()
                    )),
                },
                Err(e) => failures.push(format!("{} unreadable: {e}", on_disk.display())),
            }
        }
        Err(ServeError::WorkerPanicked { dump: None, .. }) => {
            failures.push("worker panic carried no flight dump".to_string());
        }
        other => failures.push(format!(
            "forced panic was not contained as WorkerPanicked: {other:?}"
        )),
    }

    // negative control: the evaluator must notice the panic
    let alerts = evaluate_alerts(
        &baseline,
        &server.registry().snapshot(),
        &AlertConfig::default(),
    );
    if !alerts.iter().any(|a| a.rule == "panics") {
        failures.push(format!(
            "fault window did not fire the panics rule (fired: {})",
            alerts_json(&alerts)
        ));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    failures
}

/// A hooked counting-tier interpretation may cost at most this multiple
/// of a plain one.
pub(super) const COUNTING_OVERHEAD: f64 = 2.0;

/// The tier section's live check: the measured counting-tier overhead
/// against [`COUNTING_OVERHEAD`].
pub(super) fn counting_overhead() -> Vec<String> {
    overhead_violations(worst_counting_overhead())
}

/// The violation, if any, of one measured counting-tier slowdown.
pub(super) fn overhead_violations(overhead: f64) -> Vec<String> {
    let bound = COUNTING_OVERHEAD;
    let breach = format!("counting-tier overhead {overhead:.2}x breaches the {bound:.1}x bound");
    (overhead >= bound).then_some(breach).into_iter().collect()
}

/// Smallest wall-clock nanos over `trials` runs of `f`.
fn min_nanos(trials: u32, mut f: impl FnMut() -> u64) -> u64 {
    (0..trials).map(|_| f()).min().unwrap_or(u64::MAX)
}

/// Worst hooked-vs-plain interpretation slowdown over a few
/// representative benchmarks, each min-of-3 wall-clock trials.
fn worst_counting_overhead() -> f64 {
    let mut worst = 0.0f64;
    for name in ["Huffman", "LuFactor", "compress"] {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let program = (bench.build)(DataSize::Small);
        let cands = cfgir::extract_candidates(&program);
        let plain = min_nanos(3, || {
            let t = Instant::now();
            Interp::run_to_state(
                &program,
                &mut NullSink,
                CostModel::default(),
                Interp::DEFAULT_FUEL,
            )
            .expect("plain run");
            t.elapsed().as_nanos() as u64
        });
        let hooked = min_nanos(3, || {
            // same hook population the controller's counting tier uses:
            // every candidate loop header is a registered location
            let mut hot = HotLocations::for_program(&program);
            for c in &cands.candidates {
                let fa = &cands.functions[c.func.0 as usize];
                let lp = &fa.forest.loops[c.loop_idx];
                hot.register(c.func.0, fa.cfg.blocks[lp.header.0 as usize].start);
            }
            let t = Instant::now();
            Interp::run_to_state_hooked(
                &program,
                &mut NullSink,
                CostModel::default(),
                Interp::DEFAULT_FUEL,
                &mut hot,
            )
            .expect("hooked run");
            t.elapsed().as_nanos() as u64
        });
        worst = worst.max(hooked as f64 / plain.max(1) as f64);
    }
    worst
}
