//! Crash-recovery oracle: kill a WAL-attached run at an arbitrary
//! point, resume from the newest checkpoint plus journal replay, and
//! the resumed engine is **bit-identical** to one that never stopped
//! (DESIGN.md §15).
//!
//! The kill points are adversarial on purpose: exactly at a checkpoint
//! boundary, one edge past it, mid-batch, and deep into the stream
//! after checkpoint pruning has discarded the early files. On top of
//! the clean kills, the suite corrupts the WAL itself — checkpoint
//! bit-flips (fall back to the older checkpoint, or to full replay),
//! exhaustive journal truncation and bit-flip sweeps (checksummed-
//! prefix recovery or a loud failure naming the record, never a
//! silently wrong state), short writes from a failing device, and a
//! partitioner failing mid-batch, whose journal flush makes the
//! failure point itself durable.
//!
//! Bit-identity is judged by [`OnlineEngine::state_digest`] — the
//! serialized engine + partitioner state, dead entries and all — plus
//! the replayed snapshot sequence (matched by `seq` against the
//! uninterrupted run) and the final assignment of every vertex.

use loom_core::engine::{EngineConfig, OnlineEngine, Snapshot};
use loom_core::wal::{
    list_checkpoints, ByteWriter, FaultPlan, FaultyBackend, MemBackend, StorageBackend, WalError,
    JOURNAL_FILE,
};
use loom_graph::{EdgeId, EdgeSource, Label, PatternGraph, StreamEdge, VertexId, Workload};
use loom_partition::{
    AdjacencyHorizon, Assignment, CapacityModel, EoParams, FennelParams, FennelPartitioner,
    HashPartitioner, IngestError, LdgPartitioner, LoomConfig, LoomPartitioner, PartitionState,
    StreamPartitioner,
};
use rand::Rng;
use rand::SeedableRng;

const A: Label = Label(0);
const B: Label = Label(1);
const C: Label = Label(2);

/// The config fingerprint every test stamps into its WAL.
const FP: &str = "system=Loom k=3 seed=7 window=16 test=recovery";

/// The equivalence suites' adversarial shape: shuffled a–b–c chains,
/// hub→b edges, and non-motif c–c bypass edges.
fn hub_stream(n_chains: usize, seed: u64) -> (Vec<StreamEdge>, Workload) {
    let hub = 0u32;
    let mut edges = Vec::new();
    for i in 0..n_chains as u32 {
        let (a, b, c) = (3 * i + 1, 3 * i + 2, 3 * i + 3);
        edges.push((a, A, b, B));
        edges.push((b, B, c, C));
        edges.push((hub, A, b, B));
        if i > 0 {
            edges.push((c, C, c - 3, C));
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    let stream = edges
        .into_iter()
        .enumerate()
        .map(|(id, (src, sl, dst, dl))| StreamEdge {
            id: EdgeId(id as u32),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: sl,
            dst_label: dl,
        })
        .collect();
    let workload = Workload::new(vec![(PatternGraph::path("q", vec![A, B, C]), 1.0)]);
    (stream, workload)
}

fn loom(k: usize, window: usize, horizon: u64, workload: &Workload) -> LoomPartitioner {
    let config = LoomConfig {
        k,
        window_size: window,
        support_threshold: 0.4,
        prime: 251,
        eo: EoParams::default(),
        capacity_slack: 1.1,
        capacity: CapacityModel::Adaptive,
        seed: 7,
        allocation: Default::default(),
        adjacency_horizon: AdjacencyHorizon::Edges(horizon),
    };
    LoomPartitioner::new(&config, workload, num_labels())
}

fn num_labels() -> usize {
    3
}

struct VecSource {
    edges: Vec<StreamEdge>,
    pos: usize,
}

impl VecSource {
    fn new(edges: &[StreamEdge]) -> Self {
        VecSource {
            edges: edges.to_vec(),
            pos: 0,
        }
    }
}

impl EdgeSource for VecSource {
    fn next_edge(&mut self) -> Option<StreamEdge> {
        let e = self.edges.get(self.pos).copied();
        self.pos += e.is_some() as usize;
        e
    }
}

/// Snapshot equality in every quality digit. `recovery` (WAL
/// bookkeeping) is observability, not state, and is deliberately not
/// compared.
fn assert_snap_eq(a: &Snapshot, b: &Snapshot, ctx: &str) {
    assert_eq!(a.seq, b.seq, "{ctx}: seq");
    assert_eq!(a.edges, b.edges, "{ctx}: edges");
    assert_eq!(a.vertices, b.vertices, "{ctx}: vertices");
    assert_eq!(a.sizes, b.sizes, "{ctx}: sizes");
    assert_eq!(
        a.capacity.to_bits(),
        b.capacity.to_bits(),
        "{ctx}: capacity"
    );
    assert_eq!(
        a.imbalance.to_bits(),
        b.imbalance.to_bits(),
        "{ctx}: imbalance"
    );
    assert_eq!(a.cut_edges, b.cut_edges, "{ctx}: cut_edges");
    assert_eq!(a.resolved_edges, b.resolved_edges, "{ctx}: resolved_edges");
    assert_eq!(
        a.weighted_ipt.map(f64::to_bits),
        b.weighted_ipt.map(f64::to_bits),
        "{ctx}: weighted_ipt"
    );
    assert_eq!(a.arena, b.arena, "{ctx}: arena occupancy");
    assert_eq!(a.adjacency, b.adjacency, "{ctx}: adjacency occupancy");
}

fn engine_with(p: Box<dyn StreamPartitioner>, batch: usize, cadence: usize) -> OnlineEngine {
    OnlineEngine::new(
        p,
        EngineConfig {
            snapshot_every: cadence,
            track_cuts: true,
            batch_size: batch,
        },
    )
}

/// Kill a WAL run after `kill` edges (drop without finish — the
/// crash), resume a fresh engine from the same backend, continue to
/// the end of the stream, and return what the comparisons need.
struct ResumedRun {
    durable: u64,
    snaps: Vec<Snapshot>,
    engine: OnlineEngine,
}

fn kill_and_resume(
    edges: &[StreamEdge],
    make: &dyn Fn() -> Box<dyn StreamPartitioner>,
    batch: usize,
    cadence: usize,
    checkpoint_every: u64,
    kill: u64,
) -> ResumedRun {
    let backend = MemBackend::new();
    let mut victim = engine_with(make(), batch, cadence);
    victim
        .attach_wal(Box::new(backend.clone()), checkpoint_every, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(edges), Some(kill), |_| {})
        .unwrap();
    drop(victim); // the crash: no finish, no further flush

    let mut resumed = engine_with(make(), batch, cadence);
    let mut snaps = Vec::new();
    let durable = resumed
        .resume_from_wal(Box::new(backend.clone()), checkpoint_every, FP, |s| {
            snaps.push(s.clone())
        })
        .unwrap();
    let mut source = VecSource::new(edges);
    assert_eq!(source.skip_edges(durable), durable, "source skips replay");
    resumed
        .run(&mut source, None, |s| snaps.push(s.clone()))
        .unwrap();
    ResumedRun {
        durable,
        snaps,
        engine: resumed,
    }
}

/// The headline matrix: Loom at batch {1, 256}, each killed exactly at a checkpoint boundary, one
/// edge past it, mid-batch, and after pruning has dropped the early
/// checkpoints — every resumed run bit-identical to the uninterrupted
/// twin in state digest, snapshot sequence, and final assignment.
#[test]
fn loom_kill_resume_matrix_is_bit_identical() {
    let (edges, workload) = hub_stream(600, 0x0dd);
    let n = edges.len() as u64;
    let (ckpt_every, cadence) = (500u64, 150usize);
    let max_v = edges.iter().flat_map(|e| [e.src.0, e.dst.0]).max().unwrap();
    for batch in [1usize, 256] {
        let make = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 16, 96, &workload)) };
        // Uninterrupted reference, WAL attached so both runs
        // take the identical ingest path.
        let mut reference = engine_with(make(), batch, cadence);
        reference
            .attach_wal(Box::new(MemBackend::new()), ckpt_every, FP)
            .unwrap();
        let mut ref_snaps = Vec::new();
        reference
            .run(&mut VecSource::new(&edges), None, |s| {
                ref_snaps.push(s.clone())
            })
            .unwrap();
        let ref_digest = reference.state_digest().unwrap();
        let ref_fin = reference.finish();
        let ref_assignment = reference.into_assignment();

        for kill in [ckpt_every, ckpt_every + 1, 777, 1950] {
            assert!(kill < n, "kill point must interrupt the stream");
            let ctx = format!("batch {batch}, kill {kill}");
            let run = kill_and_resume(&edges, &make, batch, cadence, ckpt_every, kill);
            assert_eq!(run.durable, kill, "{ctx}: every fed edge was durable");

            // Recovery observability: replay spans newest
            // checkpoint -> durable.
            let newest_ckpt = kill / ckpt_every * ckpt_every;
            let stats = run.engine.recovery_stats().expect("wal attached");
            assert_eq!(stats.replayed_edges, kill - newest_ckpt, "{ctx}: replayed");
            assert!(stats.journal_bytes > 0, "{ctx}: journal bytes reported");

            // Bit-identity: full recoverable state...
            assert_eq!(
                run.engine.state_digest().unwrap(),
                ref_digest,
                "{ctx}: state digest diverged"
            );
            // ...every re-fired and post-resume snapshot,
            // matched by seq against the uninterrupted run...
            assert_eq!(
                run.snaps.last().map(|s| s.seq),
                ref_snaps.last().map(|s| s.seq),
                "{ctx}: snapshot sequence ends at the same seq"
            );
            for s in &run.snaps {
                let twin = ref_snaps
                    .iter()
                    .find(|r| r.seq == s.seq)
                    .unwrap_or_else(|| panic!("{ctx}: no reference snapshot seq {}", s.seq));
                assert_snap_eq(s, twin, &ctx);
            }
            // ...and the final assignment after the drain.
            let mut resumed = run.engine;
            let fin = resumed.finish();
            assert_snap_eq(&fin, &ref_fin, &format!("{ctx}, final"));
            let assignment = resumed.into_assignment();
            for v in 0..=max_v {
                assert_eq!(
                    ref_assignment.partition_of(VertexId(v)),
                    assignment.partition_of(VertexId(v)),
                    "{ctx}: assignment diverged at vertex {v}"
                );
            }
        }
    }
}

/// A boxed partitioner factory, nameable so each spot-check below can
/// rebuild its system from scratch.
type MakePartitioner = Box<dyn Fn() -> Box<dyn StreamPartitioner>>;

/// The memoryless baselines checkpoint too: one kill/resume spot-check
/// per system, digest- and assignment-identical.
#[test]
fn baseline_partitioners_kill_resume_spot_checks() {
    let (edges, _) = hub_stream(300, 0xba5e);
    let systems: Vec<(&str, MakePartitioner)> = vec![
        (
            "Hash",
            Box::new(|| -> Box<dyn StreamPartitioner> { Box::new(HashPartitioner::new(4, 3)) }),
        ),
        (
            "LDG",
            Box::new(|| -> Box<dyn StreamPartitioner> {
                Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive))
            }),
        ),
        (
            "Fennel",
            Box::new(|| -> Box<dyn StreamPartitioner> {
                Box::new(FennelPartitioner::new(
                    4,
                    CapacityModel::Adaptive,
                    FennelParams::default(),
                ))
            }),
        ),
    ];
    for (name, make) in &systems {
        let mut reference = engine_with(make(), 64, 100);
        reference
            .attach_wal(Box::new(MemBackend::new()), 256, FP)
            .unwrap();
        reference
            .run(&mut VecSource::new(&edges), None, |_| {})
            .unwrap();
        let ref_digest = reference.state_digest().unwrap();
        for kill in [256u64, 257, 399] {
            let run = kill_and_resume(&edges, make, 64, 100, 256, kill);
            assert_eq!(run.durable, kill, "{name} kill {kill}");
            assert_eq!(
                run.engine.state_digest().unwrap(),
                ref_digest,
                "{name} kill {kill}: digest diverged"
            );
        }
    }
}

/// WAL-on changes nothing observable: the whole snapshot sequence and
/// the final state digest equal a WAL-off run to every digit.
#[test]
fn wal_is_quality_invisible() {
    let (edges, workload) = hub_stream(200, 0x11f);
    let make = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 12, 64, &workload)) };
    let run = |wal: bool| {
        let mut engine = engine_with(make(), 64, 97);
        if wal {
            engine
                .attach_wal(Box::new(MemBackend::new()), 300, FP)
                .unwrap();
        }
        let mut snaps = Vec::new();
        engine
            .run(&mut VecSource::new(&edges), None, |s| snaps.push(s.clone()))
            .unwrap();
        let digest = engine.state_digest().unwrap();
        (snaps, digest)
    };
    let (off_snaps, off_digest) = run(false);
    let (on_snaps, on_digest) = run(true);
    assert_eq!(off_snaps.len(), on_snaps.len(), "snapshot count");
    for (a, b) in off_snaps.iter().zip(&on_snaps) {
        assert_snap_eq(a, b, &format!("snapshot {}", a.seq));
        assert!(a.recovery.is_none(), "WAL-off snapshots carry no recovery");
        assert!(b.recovery.is_some(), "WAL-on snapshots report recovery");
    }
    assert_eq!(off_digest, on_digest, "state digest");
}

/// A corrupt newest checkpoint falls back to the one before it; all
/// checkpoints gone falls back to full replay from edge 0. Both stay
/// bit-identical.
#[test]
fn corrupt_or_missing_checkpoints_fall_back() {
    let (edges, workload) = hub_stream(300, 0xc0de);
    let make = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 12, 64, &workload)) };
    let mut reference = engine_with(make(), 64, 0);
    reference
        .attach_wal(Box::new(MemBackend::new()), 300, FP)
        .unwrap();
    reference
        .run(&mut VecSource::new(&edges), Some(1000), |_| {})
        .unwrap();
    let ref_digest = reference.state_digest().unwrap();

    let backend = MemBackend::new();
    let mut victim = engine_with(make(), 64, 0);
    victim
        .attach_wal(Box::new(backend.clone()), 300, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(&edges), Some(1000), |_| {})
        .unwrap();
    drop(victim);

    // Checkpoints at 300/600/900, pruned to the newest two.
    let names: Vec<String> = list_checkpoints(&backend)
        .unwrap()
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    assert_eq!(names.len(), 2, "pruning keeps the newest two");

    // Flip a byte mid-payload of the newest: resume must fall back to
    // the older checkpoint and replay the longer suffix.
    let newest = names.last().unwrap();
    let clean = backend.contents(newest).unwrap();
    let mut bad = clean.clone();
    bad[clean.len() / 2] ^= 0x04;
    backend.set_contents(newest, bad);
    let mut resumed = engine_with(make(), 64, 0);
    let durable = resumed
        .resume_from_wal(Box::new(backend.clone()), 300, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 1000);
    let stats = resumed.recovery_stats().unwrap();
    assert_eq!(stats.replayed_edges, 400, "fell back to the 600 checkpoint");
    assert_eq!(
        resumed.state_digest().unwrap(),
        ref_digest,
        "fallback digest"
    );

    // Remove every checkpoint: full replay from edge 0.
    for name in &names {
        backend.remove(name).unwrap();
    }
    let mut replayed = engine_with(make(), 64, 0);
    let durable = replayed
        .resume_from_wal(Box::new(backend.clone()), 300, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 1000);
    assert_eq!(
        replayed.recovery_stats().unwrap().replayed_edges,
        1000,
        "full replay"
    );
    assert_eq!(
        replayed.state_digest().unwrap(),
        ref_digest,
        "full-replay digest"
    );
}

/// Exhaustive torn-tail and bit-flip property: cut the journal at
/// EVERY byte offset (and flip a bit at every offset) — resume either
/// recovers exactly the checksummed prefix, bit-identical to a clean
/// run over that many edges, or fails loudly naming a record or the
/// checkpoint. Never a silently wrong state.
#[test]
fn journal_truncation_and_bitflip_sweep() {
    let (edges, _) = hub_stream(50, 0x70a7); // 199 edges
    let n = edges.len() as u64;
    let make = || -> Box<dyn StreamPartitioner> {
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive))
    };
    let (batch, ckpt_every) = (16usize, 64u64);

    // Reference digests for every possible durable prefix: record
    // boundaries fall at batch flush points.
    let mut boundary_digest = std::collections::HashMap::new();
    let mut boundaries = Vec::new();
    let mut at = 0u64;
    loop {
        boundaries.push(at);
        let mut r = engine_with(make(), batch, 0);
        r.run(&mut VecSource::new(&edges), Some(at), |_| {})
            .unwrap();
        boundary_digest.insert(at, r.state_digest().unwrap());
        if at >= n {
            break;
        }
        at = (at + batch as u64).min(n);
    }

    let pristine = MemBackend::new();
    let mut victim = engine_with(make(), batch, 0);
    victim
        .attach_wal(Box::new(pristine.clone()), ckpt_every, FP)
        .unwrap();
    victim
        .run(&mut VecSource::new(&edges), None, |_| {})
        .unwrap();
    drop(victim);
    let journal = pristine.contents(JOURNAL_FILE).unwrap();
    let ckpts: Vec<(String, Vec<u8>)> = list_checkpoints(&pristine)
        .unwrap()
        .into_iter()
        .map(|(_, name)| {
            let bytes = pristine.contents(&name).unwrap();
            (name, bytes)
        })
        .collect();

    let damaged_backend = |journal_bytes: Vec<u8>| {
        let b = MemBackend::new();
        b.set_contents(JOURNAL_FILE, journal_bytes);
        for (name, bytes) in &ckpts {
            b.set_contents(name, bytes.clone());
        }
        b
    };
    let check = |b: MemBackend, what: &str| {
        let mut engine = engine_with(make(), batch, 0);
        match engine.resume_from_wal(Box::new(b), ckpt_every, FP, |_| {}) {
            Ok(durable) => {
                assert!(
                    boundaries.contains(&durable),
                    "{what}: recovered {durable} edges, not a record boundary"
                );
                assert_eq!(
                    engine.state_digest().unwrap(),
                    boundary_digest[&durable],
                    "{what}: prefix of {durable} edges is not bit-identical"
                );
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("record") || msg.contains("journal") || msg.contains("checkpoint"),
                    "{what}: failure does not name the problem: {msg}"
                );
            }
        }
    };

    for cut in 0..=journal.len() {
        check(
            damaged_backend(journal[..cut].to_vec()),
            &format!("cut at {cut}"),
        );
    }
    for pos in 0..journal.len() {
        let mut flipped = journal.clone();
        flipped[pos] ^= 0x20;
        check(damaged_backend(flipped), &format!("flip at {pos}"));
    }
}

/// A journal device that dies mid-record (short write) surfaces as an
/// ingest error — and the durable prefix it left behind resumes
/// cleanly from the unfaulted media.
#[test]
fn short_write_fails_loudly_then_recovers() {
    let (edges, _) = hub_stream(50, 0x5707);
    let make = || -> Box<dyn StreamPartitioner> {
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive))
    };
    let mem = MemBackend::new();
    let faulty = FaultyBackend::new(mem.clone(), FaultPlan::short_write(5, 11));
    let mut engine = engine_with(make(), 16, 0);
    engine.attach_wal(Box::new(faulty), 0, FP).unwrap();
    let err = engine
        .run(&mut VecSource::new(&edges), None, |_| {})
        .expect_err("the dying device must fail the run");
    assert!(
        err.message.contains("wal"),
        "names the wal: {}",
        err.message
    );
    assert_eq!(engine.edges_ingested(), 5 * 16, "stopped at the failure");
    drop(engine);

    // Five 16-edge records are durable, plus 11 torn bytes.
    let mut resumed = engine_with(make(), 16, 0);
    let durable = resumed
        .resume_from_wal(Box::new(mem), 0, FP, |_| {})
        .unwrap();
    assert_eq!(durable, 80, "the checksummed prefix survives the torn tail");

    let mut reference = engine_with(make(), 16, 0);
    reference
        .run(&mut VecSource::new(&edges), Some(80), |_| {})
        .unwrap();
    assert_eq!(
        resumed.state_digest().unwrap(),
        reference.state_digest().unwrap(),
        "recovered prefix is bit-identical"
    );
}

/// Loom that fails the batch holding edge `fail_at`: the edges before
/// it commit, then `try_on_batch` returns `Err` naming its offset —
/// the shape of any partitioner failing mid-batch.
struct FailAt {
    inner: LoomPartitioner,
    fail_at: EdgeId,
}

impl StreamPartitioner for FailAt {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_edge(&mut self, e: &StreamEdge) {
        self.inner.on_edge(e);
    }

    fn try_on_batch(&mut self, batch: &[StreamEdge]) -> Result<(), IngestError> {
        match batch.iter().position(|e| e.id == self.fail_at) {
            None => self.inner.try_on_batch(batch),
            Some(offset) => {
                self.inner.on_batch(&batch[..offset]);
                Err(IngestError {
                    edge_offset: offset,
                    message: "injected failure".into(),
                })
            }
        }
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn state(&self) -> &PartitionState {
        self.inner.state()
    }

    fn save_state(&self, w: &mut ByteWriter) -> Result<(), WalError> {
        self.inner.save_state(w)
    }

    fn into_assignment(self: Box<Self>) -> Assignment {
        Box::new(self.inner).into_assignment()
    }
}

/// Satellite: a batch the partitioner fails bails *after* the journal
/// flush, so post-error resume replays the stream up to and including
/// the batch that failed — and, with the fault gone, completes
/// bit-identically to a run that never failed.
#[test]
fn error_path_flushes_journal_before_bailing() {
    let (edges, workload) = hub_stream(100, 0xe404);
    let make_clean = || -> Box<dyn StreamPartitioner> { Box::new(loom(3, 12, 64, &workload)) };

    let mut reference = engine_with(make_clean(), 50, 120);
    reference
        .attach_wal(Box::new(MemBackend::new()), 128, FP)
        .unwrap();
    reference
        .run(&mut VecSource::new(&edges), None, |_| {})
        .unwrap();
    let ref_digest = reference.state_digest().unwrap();

    let backend = MemBackend::new();
    let mut victim = engine_with(
        Box::new(FailAt {
            inner: loom(3, 12, 64, &workload),
            fail_at: EdgeId(137),
        }),
        50,
        120,
    );
    victim
        .attach_wal(Box::new(backend.clone()), 128, FP)
        .unwrap();
    let err = victim
        .run(&mut VecSource::new(&edges), None, |_| {})
        .expect_err("injected failure must propagate");
    assert_eq!(err.edge_index, 137, "failure names the stream edge");
    let ingested = victim.edges_ingested();
    assert!(ingested < 137, "the failing batch never committed");
    drop(victim); // crash after the error

    // The journal is ahead of the committed state: the whole failing
    // batch (including edge 137) was flushed before it was ingested.
    let mut resumed = engine_with(make_clean(), 50, 120);
    let durable = resumed
        .resume_from_wal(Box::new(backend.clone()), 128, FP, |_| {})
        .unwrap();
    assert!(
        durable > 137,
        "durable edges ({durable}) cover the failure edge"
    );
    assert!(durable > ingested, "journal runs ahead of the commit point");

    // With the fault gone, finish the stream: bit-identical.
    let mut source = VecSource::new(&edges);
    source.skip_edges(durable);
    resumed.run(&mut source, None, |_| {}).unwrap();
    assert_eq!(
        resumed.state_digest().unwrap(),
        ref_digest,
        "post-error resume"
    );
}

/// Refusal paths: mismatched fingerprints and partitioners, WAL over
/// existing state, mid-stream attach, probe runs, empty resumes.
#[test]
fn refusals_are_loud_and_specific() {
    let (edges, workload) = hub_stream(30, 0x9e7);
    let backend = MemBackend::new();
    let mut engine = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    engine
        .attach_wal(Box::new(backend.clone()), 32, FP)
        .unwrap();
    engine
        .run(&mut VecSource::new(&edges), Some(64), |_| {})
        .unwrap();
    drop(engine);

    // Wrong fingerprint: ConfigMismatch naming both sides.
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    match e.resume_from_wal(Box::new(backend.clone()), 32, "different config", |_| {}) {
        Err(WalError::ConfigMismatch { expected, found }) => {
            assert_eq!(expected, "different config");
            assert_eq!(found, FP);
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    // Wrong partitioner behind the same fingerprint: ConfigMismatch.
    let mut e = engine_with(Box::new(HashPartitioner::new(4, 3)), 16, 0);
    assert!(matches!(
        e.resume_from_wal(Box::new(backend.clone()), 32, FP, |_| {}),
        Err(WalError::ConfigMismatch { .. })
    ));

    // Attach over existing state: refused, resume is the way in.
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    assert!(matches!(
        e.attach_wal(Box::new(backend.clone()), 32, FP),
        Err(WalError::Refused(_))
    ));

    // Attach mid-stream: refused (the journal would miss the prefix).
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    e.run(&mut VecSource::new(&edges), Some(8), |_| {}).unwrap();
    assert!(matches!(
        e.attach_wal(Box::new(MemBackend::new()), 32, FP),
        Err(WalError::Refused(_))
    ));

    // An ipt probe is not checkpointable: attach and resume refuse.
    let mut e = engine_with(Box::new(loom(3, 8, 32, &workload)), 16, 0)
        .with_ipt_probe(workload.clone(), 1000);
    assert!(matches!(
        e.attach_wal(Box::new(MemBackend::new()), 32, FP),
        Err(WalError::Refused(_))
    ));
    assert!(matches!(
        e.resume_from_wal(Box::new(backend.clone()), 32, FP, |_| {}),
        Err(WalError::Refused(_))
    ));

    // Resuming an empty directory: refused, nothing to resume.
    let mut e = engine_with(
        Box::new(LdgPartitioner::new(4, CapacityModel::Adaptive)),
        16,
        0,
    );
    assert!(matches!(
        e.resume_from_wal(Box::new(MemBackend::new()), 32, FP, |_| {}),
        Err(WalError::Refused(_))
    ));
}
