//! The outside-in layer trace: wrappers around the public traits the
//! engine calls into, each timing its calls into one shared [`Log`].
//!
//! Every wrapper forwards each call unchanged, so a traced engine is
//! bit-identical to an untraced one (the tests below compare
//! `state_digest`s). Calls arrive at batch granularity — one source
//! pull, one partitioner batch, one journal append and flush per
//! `ingest_batch` — so the clock reads cost little next to the work.

use loom_core::graph::{EdgeSource, SourceExtent, StreamEdge};
use loom_core::matcher::ArenaOccupancy;
use loom_core::partition::{
    AdjacencyOccupancy, Assignment, IngestError, IngestPhases, LoomPartitioner, LoomStats,
    PartitionState, PhaseBreakdown, StreamPartitioner,
};
use loom_core::wal::{ByteReader, ByteWriter, StorageBackend, WalError, WalFile};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Everything the wrappers record. `take` it to read and reset.
#[derive(Debug, Default)]
pub struct Log {
    /// Time in `EdgeSource::next_batch_into`, and edges out.
    pub source_ns: u64,
    pub source_edges: u64,
    /// Time in `StreamPartitioner::try_on_batch`, and edges in.
    pub partition_ns: u64,
    pub partition_edges: u64,
    /// Loom's own counters and phase split, copied after every batch.
    pub loom_stats: LoomStats,
    pub phases: PhaseBreakdown,
    /// Time in storage calls, with each checkpoint counted from the
    /// start of its serialisation.
    pub wal_ns: u64,
    /// Journal appends: time and bytes.
    pub append_ns: u64,
    pub journal_bytes: u64,
    /// One sample per journal flush, in µs.
    pub flush_us: Vec<f64>,
    /// One sample per checkpoint (serialisation through the atomic
    /// write), in ms, and the bytes each wrote.
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_bytes: Vec<u64>,
    /// Start of the checkpoint in progress: `save_state` opens it, the
    /// checkpoint file's atomic write closes it.
    open_checkpoint: Option<Instant>,
    /// Time in `StorageBackend::read` (recovery reads the journal and
    /// checkpoints through it).
    pub read_ns: u64,
}

/// The log as the wrappers share it.
#[derive(Clone, Debug, Default)]
pub struct Shared(Arc<Mutex<Log>>);

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Log> {
        self.0.lock().expect("a traced call panicked while logging")
    }

    /// Read the log and start a fresh one.
    pub fn take(&self) -> Log {
        std::mem::take(&mut *self.lock())
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ------------------------------------------------------------ loom-graph

/// Times the edge source: parse for a text feed, generation for the
/// synthetic one.
pub struct TracedSource<S> {
    pub inner: S,
    pub log: Shared,
}

impl<S: EdgeSource> EdgeSource for TracedSource<S> {
    fn next_edge(&mut self) -> Option<StreamEdge> {
        self.inner.next_edge()
    }

    fn next_batch_into(&mut self, out: &mut Vec<StreamEdge>, max: usize) -> usize {
        let t = Instant::now();
        let n = self.inner.next_batch_into(out, max);
        let mut log = self.log.lock();
        log.source_ns += ns_since(t);
        log.source_edges += n as u64;
        n
    }

    fn extent(&self) -> SourceExtent {
        self.inner.extent()
    }

    fn error(&self) -> Option<&str> {
        self.inner.error()
    }

    fn num_labels(&self) -> usize {
        self.inner.num_labels()
    }

    fn skip_edges(&mut self, n: u64) -> u64 {
        self.inner.skip_edges(n)
    }
}

// ---------------------------------------- loom-partition / loom-matcher

/// Times Loom's batch ingest (the engine's only ingest call at batch
/// 256) and copies its counters after each batch. `save_state` opens a
/// checkpoint span, which the WAL is charged for.
pub struct TracedPartitioner {
    pub inner: LoomPartitioner,
    pub log: Shared,
}

impl StreamPartitioner for TracedPartitioner {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_edge(&mut self, e: &StreamEdge) {
        self.inner.on_edge(e);
    }

    fn on_batch(&mut self, batch: &[StreamEdge]) {
        self.inner.on_batch(batch);
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    fn set_shards(&mut self, shards: usize) {
        self.inner.set_shards(shards);
    }

    fn try_on_batch(&mut self, batch: &[StreamEdge]) -> Result<(), IngestError> {
        let t = Instant::now();
        let r = self.inner.try_on_batch(batch);
        let mut log = self.log.lock();
        log.partition_ns += ns_since(t);
        log.partition_edges += batch.len() as u64;
        log.loom_stats = self.inner.stats();
        log.phases = self.inner.phase_breakdown();
        r
    }

    fn ingest_phases(&self) -> Option<IngestPhases> {
        self.inner.ingest_phases()
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn state(&self) -> &PartitionState {
        self.inner.state()
    }

    fn arena(&self) -> Option<ArenaOccupancy> {
        self.inner.arena()
    }

    fn adjacency(&self) -> Option<AdjacencyOccupancy> {
        self.inner.adjacency()
    }

    fn save_state(&self, w: &mut ByteWriter) -> Result<(), WalError> {
        self.log.lock().open_checkpoint = Some(Instant::now());
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut ByteReader) -> Result<(), WalError> {
        self.inner.load_state(r)
    }

    fn into_assignment(self: Box<Self>) -> Assignment {
        Box::new(self.inner).into_assignment()
    }
}

// -------------------------------------------------------------- loom-wal

/// Times every storage call; the journal file it opens is wrapped too.
pub struct TracedBackend {
    pub inner: Box<dyn StorageBackend>,
    pub log: Shared,
}

struct TracedWalFile {
    inner: Box<dyn WalFile>,
    log: Shared,
}

impl WalFile for TracedWalFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.append(bytes);
        let ns = ns_since(t);
        let mut log = self.log.lock();
        log.wal_ns += ns;
        log.append_ns += ns;
        log.journal_bytes += bytes.len() as u64;
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        let ns = ns_since(t);
        let mut log = self.log.lock();
        log.wal_ns += ns;
        log.flush_us.push(ns as f64 / 1e3);
        r
    }
}

impl TracedBackend {
    fn timed<T>(&self, f: impl FnOnce(&dyn StorageBackend) -> T) -> T {
        let t = Instant::now();
        let r = f(&*self.inner);
        self.log.lock().wal_ns += ns_since(t);
        r
    }
}

impl StorageBackend for TracedBackend {
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        let inner = self.timed(|b| b.open_append(name))?;
        Ok(Box::new(TracedWalFile {
            inner,
            log: self.log.clone(),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read(name);
        let ns = ns_since(t);
        let mut log = self.log.lock();
        log.wal_ns += ns;
        log.read_ns += ns;
        r
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_atomic(name, bytes);
        let mut log = self.log.lock();
        // Checkpoints are the only atomic writes. When the partitioner
        // is traced too, the span starts at its serialisation, so it
        // also covers the framing and checksum in between.
        let span = log.open_checkpoint.take().unwrap_or(t).elapsed();
        log.wal_ns += span.as_nanos() as u64;
        log.checkpoint_ms.push(span.as_secs_f64() * 1e3);
        log.checkpoint_bytes.push(bytes.len() as u64);
        r
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.timed(|b| b.list())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.timed(|b| b.truncate(name, len))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.timed(|b| b.remove(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_core::engine::{EngineConfig, OnlineEngine};
    use loom_core::graph::SyntheticEdgeSource;
    use loom_core::partition::LoomConfig;
    use loom_core::query::workloads::dblp_workload;
    use loom_core::wal::MemBackend;

    const EDGES: u64 = 3_000;
    const CHECKPOINT_EVERY: u64 = 1_000;

    fn loom() -> LoomPartitioner {
        let mut cfg = LoomConfig::evaluation_defaults(4);
        cfg.window_size = 256;
        LoomPartitioner::new(&cfg, &dblp_workload(), 8)
    }

    fn engine(p: Box<dyn StreamPartitioner>) -> OnlineEngine {
        OnlineEngine::new(
            p,
            EngineConfig {
                batch_size: 256,
                ..EngineConfig::default()
            },
        )
    }

    fn run(mut engine: OnlineEngine, source: &mut dyn EdgeSource) -> Vec<u8> {
        engine.run(source, Some(EDGES), |_| {}).unwrap();
        engine.finish();
        engine.state_digest().unwrap()
    }

    fn plain_digest() -> Vec<u8> {
        run(
            engine(Box::new(loom())),
            &mut SyntheticEdgeSource::new(5, 8),
        )
    }

    #[test]
    fn traced_source_is_transparent() {
        let log = Shared::default();
        let mut source = TracedSource {
            inner: SyntheticEdgeSource::new(5, 8),
            log: log.clone(),
        };
        assert_eq!(run(engine(Box::new(loom())), &mut source), plain_digest());
        let log = log.take();
        assert_eq!(log.source_edges, EDGES);
        assert!(log.source_ns > 0);
    }

    #[test]
    fn traced_partitioner_is_transparent() {
        let log = Shared::default();
        let traced = TracedPartitioner {
            inner: loom(),
            log: log.clone(),
        };
        let digest = run(
            engine(Box::new(traced)),
            &mut SyntheticEdgeSource::new(5, 8),
        );
        assert_eq!(digest, plain_digest());
        let log = log.take();
        assert_eq!(log.partition_edges, EDGES);
        let s = log.loom_stats;
        assert_eq!(s.bypassed + s.buffered, EDGES);
    }

    #[test]
    fn traced_backend_is_transparent() {
        let wal_run = |backend: Box<dyn StorageBackend>| {
            let mut e = engine(Box::new(loom()));
            e.attach_wal(backend, CHECKPOINT_EVERY, "trace-test")
                .unwrap();
            run(e, &mut SyntheticEdgeSource::new(5, 8))
        };
        let plain = wal_run(Box::new(MemBackend::new()));
        let log = Shared::default();
        let traced = wal_run(Box::new(TracedBackend {
            inner: Box::new(MemBackend::new()),
            log: log.clone(),
        }));
        assert_eq!(traced, plain);
        // A WAL changes nothing the digest covers.
        assert_eq!(plain, plain_digest());
        let log = log.take();
        // One flush per ingest_batch call, plus one ahead of each checkpoint.
        assert_eq!(
            log.flush_us.len() as u64,
            EDGES.div_ceil(256) + EDGES / CHECKPOINT_EVERY
        );
        assert_eq!(log.checkpoint_ms.len() as u64, EDGES / CHECKPOINT_EVERY);
        assert!(log.journal_bytes > 0 && log.append_ns > 0);
    }
}
