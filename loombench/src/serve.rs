//! `synthetic-serve`: the synthetic stream and partitioner of
//! `synthetic-durable`, with serving on at the default `ServeOptions`
//! (publish every 1024 edges, horizon 65536) and a `LineServer` on
//! loopback. An open-loop reader load runs from this process while
//! ingest runs.

use crate::common::{
    alphabet, ingest, loom_engine, source, Budget, Opts, Report, Reps, RssProbe, Timings,
    SETUP_SAMPLES,
};
use crate::durable::{loom_config, SOURCE_LABELS};
use crate::layers::Layers;
use crate::loadgen::{kind_of, run_connection, Gate, Mix, Record, Schedule, KINDS};
use crate::stats::{median, Summary};
use crate::trace::Shared;
use loom_core::engine::OnlineEngine;
use loom_core::graph::{SyntheticEdgeSource, Workload};
use loom_core::query::{handle_request, workloads::dblp_workload};
use loom_core::runtime::{LineHandler, LineServer, LineServerConfig};
use loom_core::{ServeHandle, ServeOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Edges ingested per repetition.
const EDGES: u64 = 200_000;
/// Reader connections (the host's core count).
const CONNS: usize = 2;
/// Requests per second over all connections. NOTES.md records the
/// rate sweep that shows the host keeps up at twice this rate.
const RATE: f64 = 400.0;

/// Requests each server connection thread answered, in order, with the
/// time `handle_request` took (µs). Recorded by the traced handler.
type ExecLog = Mutex<HashMap<ThreadId, Vec<(String, f64)>>>;

struct Rig {
    engine: OnlineEngine,
    handle: ServeHandle,
    server: LineServer,
    exec: Option<Arc<ExecLog>>,
}

/// Engine set-up: Loom (motif mining), the engine, serving with an
/// initial view, and the server bound to a loopback port. The traced
/// rig publishes only when the benchmark calls `publish_view_now`.
fn setup(workload: &Workload, labels: usize, trace: Option<&Shared>) -> (Rig, f64, usize) {
    let (mut engine, motif_s, motifs) = loom_engine(&loom_config(), workload, labels, trace);
    let mut opts = ServeOptions::default();
    if trace.is_some() {
        opts.publish_every = u64::MAX;
    }
    let handle = engine.enable_serving(opts);
    engine.publish_view_now();
    let cell = Arc::clone(&handle.view);
    let exec = trace.map(|_| Arc::new(ExecLog::default()));
    let handler: LineHandler = match &exec {
        None => Arc::new(move |line: &str| handle_request(cell.load().as_deref(), line)),
        Some(exec) => {
            let exec = Arc::clone(exec);
            Arc::new(move |line: &str| {
                let t = Instant::now();
                let reply = handle_request(cell.load().as_deref(), line);
                let us = t.elapsed().as_secs_f64() * 1e6;
                exec.lock()
                    .expect("exec log")
                    .entry(std::thread::current().id())
                    .or_default()
                    .push((line.to_string(), us));
                reply
            })
        }
    };
    let server = LineServer::start(
        "127.0.0.1:0",
        LineServerConfig::default(),
        handler,
        Arc::clone(&handle.metrics),
    )
    .expect("bind a loopback port");
    let rig = Rig {
        engine,
        handle,
        server,
        exec,
    };
    (rig, motif_s, motifs)
}

/// `epoch=` and `edges=` of a STATS or EPOCH reply.
fn epoch_and_edges(reply: &str) -> Option<(u64, u64)> {
    let field = |key: &str| {
        reply
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .and_then(|v| v.parse::<u64>().ok())
    };
    Some((field("epoch=")?, field("edges=")?))
}

/// The final state of a serving-off twin over the same edges.
fn twin_digest(seed: u64, workload: &Workload, labels: usize) -> Vec<u8> {
    let (mut engine, _, _) = loom_engine(&loom_config(), workload, labels, None);
    ingest(
        &mut engine,
        &mut SyntheticEdgeSource::new(seed, SOURCE_LABELS),
        EDGES,
        |_, _| {},
    );
    engine.finish();
    engine.state_digest().expect("Loom checkpoints its state")
}

#[derive(Default)]
struct Pass {
    records: Vec<Record>,
    epochs: Vec<u64>,
    exec_us: Vec<Vec<f64>>,
    server_us: Vec<f64>,
    refused: u64,
    floor_p99_us: Vec<f64>,
}

/// Match each connection's requests to the server thread that answered
/// them (same request lines, in order) and return client round trip
/// minus handler time, per answered request.
fn server_times(conns: &[Vec<Record>], exec: &ExecLog) -> Vec<f64> {
    let exec = exec.lock().expect("exec log");
    let mut out = Vec::new();
    for records in conns {
        let Some(answered) = exec.values().find(|log| {
            !log.is_empty()
                && log
                    .iter()
                    .zip(records)
                    .all(|((line, _), rec)| *line == rec.line)
        }) else {
            continue;
        };
        for (rec, (_, exec_us)) in records.iter().zip(answered) {
            if let Some((at, _)) = &rec.reply {
                out.push(at.saturating_sub(rec.sent_ns) as f64 / 1e3 - exec_us);
            }
        }
    }
    out
}

fn pass(
    opts: &Opts,
    budget: Budget,
    trace: Option<&Shared>,
    r: &mut Report,
    layers: &mut Layers,
) -> Pass {
    let workload = dblp_workload();
    let labels = alphabet(SOURCE_LABELS, &workload);
    let twin = twin_digest(opts.seed, &workload, labels);
    let mix = Mix {
        seed: opts.seed,
        labels: SOURCE_LABELS as u64,
        publish_every: ServeOptions::default().publish_every,
    };
    let mut timings = Timings::default();
    for _ in 0..SETUP_SAMPLES {
        drop(timings.setup(|| setup(&workload, labels, trace)));
    }
    let mut out = Pass {
        exec_us: vec![Vec::new(); KINDS.len()],
        ..Pass::default()
    };
    let mut reps = Reps::new(budget);
    while reps.more(&timings) {
        // One repetition's peak, the readers' load included: later ones
        // only add allocator noise.
        let rss = (trace.is_none() && r.get("peak_rss_mb").is_none()).then(RssProbe::start);
        let (mut rig, motif_s, motifs) = timings.setup(|| setup(&workload, labels, trace));
        let addr = rig.server.local_addr();
        let gate = Gate::default();
        let ingested = AtomicU64::new(0);
        let publish_every = ServeOptions::default().publish_every;
        let mut publish_ms = Vec::new();
        let (ing, fin, conns, mut log) = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CONNS)
                .map(|c| {
                    let (gate, ingested) = (&gate, &ingested);
                    s.spawn(move || {
                        run_connection(addr, c, mix, Schedule::new(RATE, CONNS, c), gate, ingested)
                    })
                })
                .collect();
            let mut last_published = 0u64;
            let mut after_batch = |engine: &mut OnlineEngine, edges: u64| {
                if trace.is_some() && edges - last_published >= publish_every {
                    let t = Instant::now();
                    engine.publish_view_now();
                    publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    last_published = edges;
                }
                ingested.store(edges, Ordering::SeqCst);
                if edges >= publish_every {
                    gate.open();
                }
            };
            let mut synthetic = source(SyntheticEdgeSource::new(opts.seed, SOURCE_LABELS), trace);
            let ing = ingest(&mut rig.engine, synthetic.as_mut(), EDGES, &mut after_batch);
            let log = trace.map(Shared::take);
            gate.close();
            let fin = rig.engine.finish();
            let conns: Vec<Vec<Record>> = clients
                .into_iter()
                .map(|c| {
                    c.join()
                        .expect("client thread panicked")
                        .expect("connect to the server")
                })
                .collect();
            (ing, fin, conns, log)
        });
        rig.server.shutdown();
        r.attempted += ing.batch_us.len() as u64;
        let digest = rig
            .engine
            .state_digest()
            .expect("Loom checkpoints its state");
        r.check(digest == twin, || {
            "final state differs from the serving-off twin's".into()
        });
        let epochs = rig.handle.view.load().map_or(0, |v| v.epoch);
        out.epochs.push(epochs);
        for records in &conns {
            let mut last = 0;
            for rec in records {
                if let Some((epoch, _)) = rec.reply.as_ref().and_then(|(_, t)| epoch_and_edges(t)) {
                    r.check(epoch >= last, || {
                        format!("epoch went back from {last} to {epoch}")
                    });
                    last = epoch;
                }
            }
        }
        if r.get("imbalance").is_none() {
            r.set("imbalance", fin.imbalance, "ratio");
            r.set("cut_fraction", fin.cut_fraction(), "ratio");
        }
        if let Some(rss) = rss {
            r.set("peak_rss_mb", rss.peak_mb(), "MB");
        }
        timings.add(&ing);
        if let (Some(log), Some(exec)) = (&mut log, &rig.exec) {
            let publish_ns = (publish_ms.iter().sum::<f64>() * 1e6) as u64;
            layers.add_ingest(log, &ing, publish_ns, &fin);
            layers.add("motif.build_ms", motif_s * 1e3, "ms");
            layers.add("motif.count", motifs as f64, "count");
            layers.add("serve.publish_count", epochs as f64, "count");
            layers.publish_ms.extend_from_slice(&publish_ms);
            out.server_us.extend(server_times(&conns, exec));
            for (line, us) in exec.lock().expect("exec log").values().flatten() {
                if let Some(kind) = kind_of(line) {
                    out.exec_us[kind].push(*us);
                }
            }
        }
        out.refused += rig.handle.metrics.refused();
        out.floor_p99_us
            .push(rig.handle.metrics.quantile_us(0.99) as f64);
        out.records.extend(conns.into_iter().flatten());
    }
    timings.report(trace.is_some(), r);
    out
}

/// Client-side query figures of one pass.
fn query_metrics(p: &Pass, r: &mut Report) {
    let attempted = p.records.len() as u64;
    let ok: Vec<&Record> = p.records.iter().filter(|rec| rec.ok()).collect();
    let failed = attempted - ok.len() as u64;
    r.attempted += attempted;
    r.failed += failed;
    let latency: Vec<f64> = ok.iter().filter_map(|rec| rec.latency_us()).collect();
    let lat = Summary::of(&latency);
    r.set("query_p50_us", lat.p50, "us");
    r.set("query_p99_us", lat.p99, "us");
    r.set(
        "query_failed_frac",
        crate::common::ratio(failed as f64, attempted as f64),
        "ratio",
    );
    let lag: Vec<f64> = ok
        .iter()
        .filter_map(|rec| {
            let (_, edges) = epoch_and_edges(&rec.reply.as_ref()?.1)?;
            Some(rec.ingested_at_reply.saturating_sub(edges) as f64)
        })
        .collect();
    r.set("view_lag_p99_edges", Summary::of(&lag).p99, "edges");
    let late: Vec<f64> = p
        .records
        .iter()
        .map(|rec| rec.sent_ns.saturating_sub(rec.due_ns) as f64 / 1e3)
        .collect();
    r.set("loadgen.late_us_p99", Summary::of(&late).p99, "us");
    // Requests that name a vertex the view cannot say much about: not
    // assigned yet (PART), or with no retained edge (KHOP).
    let share = |kind: &str, trivial: &str| {
        let replies: Vec<&str> = ok
            .iter()
            .filter(|rec| rec.line.starts_with(kind))
            .filter_map(|rec| Some(rec.reply.as_ref()?.1.as_str()))
            .collect();
        let hits = replies.iter().filter(|t| t.contains(trivial)).count();
        crate::common::ratio(hits as f64, replies.len() as f64)
    };
    r.set("loadgen.part_none_frac", share("PART ", " p=none"), "ratio");
    r.set(
        "loadgen.khop_visited1_frac",
        share("KHOP ", " visited=1 "),
        "ratio",
    );
    println!(
        "# queries: {attempted} sent, {failed} failed, latency from due time {} us",
        lat.describe()
    );
}

pub fn run(opts: &Opts) -> (Report, Option<Report>) {
    let budget = Budget::of(opts);
    let mut e2e = Report::default();
    let plain = pass(opts, budget, None, &mut e2e, &mut Layers::default());
    query_metrics(&plain, &mut e2e);
    if !opts.trace {
        return (e2e, None);
    }
    let (mut traced, mut layers) = (Report::default(), Layers::default());
    let log = Shared::default();
    let t = pass(opts, budget, Some(&log), &mut traced, &mut layers);
    traced.check(
        t.epochs
            .iter()
            .chain(&plain.epochs)
            .all(|&e| e == plain.epochs[0]),
        || {
            format!(
                "epoch counts differ: untraced {:?}, traced {:?}",
                plain.epochs, t.epochs
            )
        },
    );
    traced.attempted += t.records.len() as u64;
    traced.failed += t.records.iter().filter(|rec| !rec.ok()).count() as u64;
    layers.report(&mut traced);
    for (kind, us) in KINDS.iter().zip(&t.exec_us) {
        traced.set(
            format!("query.exec_us_p50.{kind}"),
            Summary::of(us).p50,
            "us",
        );
    }
    traced.set("runtime.server_us_p99", Summary::of(&t.server_us).p99, "us");
    traced.set("runtime.refused", t.refused as f64, "count");
    traced.set(
        "runtime.servemetrics_p99_floor_us",
        median(&t.floor_p99_us),
        "us",
    );
    crate::common::overhead(&e2e, &mut traced);
    (e2e, Some(traced))
}
