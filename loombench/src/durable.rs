//! `synthetic-durable`: the sparse synthetic stream (8 labels, Loom
//! k=4, window 1024, DBLP workload) with the WAL on a `FileBackend` at
//! the default 100k-edge checkpoint cadence. Each repetition stops at
//! an edge count that is not a checkpoint boundary, drops the engine
//! (a crash), and resumes a fresh engine with `resume_from_wal`.

use crate::common::{
    alphabet, ingest, loom_engine, source, Budget, Opts, Report, Reps, RssProbe, Timings, TmpDir,
    SETUP_SAMPLES,
};
use crate::layers::Layers;
use crate::stats::median;
use crate::trace::{Shared, TracedBackend};
use loom_core::engine::OnlineEngine;
use loom_core::graph::{SyntheticEdgeSource, Workload};
use loom_core::partition::LoomConfig;
use loom_core::query::workloads::dblp_workload;
use loom_core::wal::{FileBackend, StorageBackend};
use std::path::Path;
use std::time::Instant;

pub const K: usize = 4;
pub const WINDOW: usize = 1_024;
pub const SOURCE_LABELS: usize = 8;
/// `loom stream --checkpoint-every` default.
const CHECKPOINT_EVERY: u64 = 100_000;
/// The crash point: ten checkpoints in, 50k journaled edges past the
/// last one.
const CRASH_AT: u64 = 1_050_000;
const FINGERPRINT: &str =
    "loombench synthetic-durable k=4 window=1024 labels=8 checkpoint-every=100000";

pub fn loom_config() -> LoomConfig {
    let mut cfg = LoomConfig::evaluation_defaults(K);
    cfg.window_size = WINDOW;
    cfg
}

fn backend(dir: &Path, trace: Option<&Shared>) -> Box<dyn StorageBackend> {
    let inner = Box::new(FileBackend::new(dir).expect("create the WAL directory"));
    match trace {
        None => inner,
        Some(log) => Box::new(TracedBackend {
            inner,
            log: log.clone(),
        }),
    }
}

/// Engine set-up: Loom (motif mining), the engine, and a fresh WAL.
fn setup(
    workload: &Workload,
    labels: usize,
    dir: &Path,
    trace: Option<&Shared>,
) -> (OnlineEngine, f64, usize) {
    let (mut engine, motif_s, motifs) = loom_engine(&loom_config(), workload, labels, trace);
    engine
        .attach_wal(backend(dir, trace), CHECKPOINT_EVERY, FINGERPRINT)
        .expect("attach a WAL to an empty directory");
    (engine, motif_s, motifs)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read the WAL directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// One pass: repeat set-up, ingest, crash and resume until `budget` has
/// passed. Returns the crash state every repetition agreed on.
fn pass(
    seed: u64,
    budget: Budget,
    trace: Option<&Shared>,
    r: &mut Report,
    layers: &mut Layers,
) -> Vec<u8> {
    let workload = dblp_workload();
    let labels = alphabet(SOURCE_LABELS, &workload);
    let tmp = TmpDir::new("durable").expect("create the benchmark's scratch directory");
    let mut timings = Timings::default();
    for i in 0..SETUP_SAMPLES {
        let dir = tmp.0.join(format!("setup{i}"));
        drop(timings.setup(|| setup(&workload, labels, &dir, trace)));
        std::fs::remove_dir_all(&dir).expect("remove a WAL directory");
    }
    let (mut recover_s, mut disk) = (Vec::new(), Vec::new());
    let mut digest: Option<Vec<u8>> = None;
    let mut reps = Reps::new(budget);
    let mut rep = 0;
    while reps.more(&timings) {
        rep += 1;
        // One repetition's peak, recovery included: later ones only add
        // allocator noise.
        let rss = (trace.is_none() && r.get("peak_rss_mb").is_none()).then(RssProbe::start);
        let dir = tmp.0.join(format!("rep{rep}"));
        let (mut engine, motif_s, motifs) = timings.setup(|| setup(&workload, labels, &dir, trace));
        let mut synthetic = source(SyntheticEdgeSource::new(seed, SOURCE_LABELS), trace);
        let ing = ingest(&mut engine, synthetic.as_mut(), CRASH_AT, |_, _| {});
        let mut log = trace.map(Shared::take);
        r.attempted += ing.batch_us.len() as u64;
        let before = engine.state_digest().expect("Loom checkpoints its state");
        let at_crash = engine.snapshot();
        drop(engine);
        disk.push(dir_bytes(&dir) as f64 / ing.edges as f64);

        let (mut resumed, _, _) = loom_engine(&loom_config(), &workload, labels, trace);
        let wal = backend(&dir, trace);
        trace.map(Shared::take);
        let t = Instant::now();
        let durable = resumed
            .resume_from_wal(wal, CHECKPOINT_EVERY, FINGERPRINT, |_| {})
            .expect("resume from the benchmark's own WAL");
        recover_s.push(t.elapsed().as_secs_f64());
        r.attempted += 1;
        let recovered = trace.map(Shared::take);
        r.check(durable == CRASH_AT, || {
            format!("resume found {durable} durable edges, not {CRASH_AT}")
        });
        let after = resumed.state_digest().expect("Loom checkpoints its state");
        r.check(after == before, || {
            "resumed state differs from the state at the crash".into()
        });
        match &digest {
            None => {
                r.set("imbalance", at_crash.imbalance, "ratio");
                r.set("cut_fraction", at_crash.cut_fraction(), "ratio");
                digest = Some(before);
            }
            Some(first) => r.check(*first == before, || {
                "repetitions disagree on the crash state".into()
            }),
        }
        if let Some(rss) = rss {
            r.set("peak_rss_mb", rss.peak_mb(), "MB");
        }
        timings.add(&ing);
        if let (Some(log), Some(recovered)) = (&mut log, recovered) {
            layers.add_ingest(log, &ing, 0, &at_crash);
            layers.add("motif.build_ms", motif_s * 1e3, "ms");
            layers.add("motif.count", motifs as f64, "count");
            layers.add("wal.recover_read_ms", recovered.read_ns as f64 / 1e6, "ms");
            let stats = resumed.recovery_stats().expect("a WAL is attached");
            layers.add("wal.replayed_edges", stats.replayed_edges as f64, "count");
        }
        drop(resumed);
        std::fs::remove_dir_all(&dir).expect("remove a WAL directory");
    }
    timings.report(trace.is_some(), r);
    r.set("recover_s", median(&recover_s), "s");
    r.set("disk_bytes_per_edge", median(&disk), "B/edge");
    digest.expect("at least one repetition")
}

pub fn run(opts: &Opts) -> (Report, Option<Report>) {
    let budget = Budget::of(opts);
    let mut e2e = Report::default();
    let digest = pass(opts.seed, budget, None, &mut e2e, &mut Layers::default());
    if !opts.trace {
        return (e2e, None);
    }
    let (mut traced, mut layers) = (Report::default(), Layers::default());
    let traced_digest = pass(
        opts.seed,
        budget,
        Some(&Shared::default()),
        &mut traced,
        &mut layers,
    );
    traced.check(traced_digest == digest, || {
        "traced run's crash state differs from the untraced run's".into()
    });
    layers.report(&mut traced);
    crate::common::overhead(&e2e, &mut traced);
    (e2e, Some(traced))
}
