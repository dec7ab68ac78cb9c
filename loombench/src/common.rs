//! What the three workloads share: the run options, engine set-up at
//! the default knobs, the timed ingest loop, and the report.

use crate::stats::{median, Summary};
use crate::trace::{Shared, TracedPartitioner, TracedSource};
use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::{EdgeSource, StreamEdge, Workload};
use loom_core::partition::{LoomConfig, LoomPartitioner, StreamPartitioner};
use std::time::{Duration, Instant};

/// The engine's default ingest batch (`loom stream --batch`).
pub const BATCH: usize = loom_core::pipeline::DEFAULT_BATCH;

/// Set-ups timed up front, besides the one of every repetition, so
/// `setup_s` is a median of at least this many samples.
pub const SETUP_SAMPLES: usize = 25;

/// Command-line options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Batch-latency samples a `--trace 0` run collects at least, so that
/// `batch_p999_us` has at least ten samples beyond it.
pub const MIN_BATCHES: usize = 10_000;

/// How long each pass of a run repeats.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    time: Duration,
    min_batches: usize,
}

impl Budget {
    /// `--trace 0`: one pass of `--seconds`, with at least
    /// [`MIN_BATCHES`] batches for the batch-latency quantiles it
    /// reports. `--trace 1`: two passes of half of `--seconds` each.
    pub fn of(opts: &Opts) -> Budget {
        if opts.trace {
            Budget {
                time: Duration::from_secs_f64(opts.seconds / 2.0),
                min_batches: 0,
            }
        } else {
            Budget {
                time: Duration::from_secs_f64(opts.seconds),
                min_batches: MIN_BATCHES,
            }
        }
    }
}

/// Repeat until the budget's time has passed and it has its batches
/// (always at least once).
pub struct Reps {
    deadline: Instant,
    min_batches: usize,
    done: usize,
}

impl Reps {
    pub fn new(budget: Budget) -> Reps {
        Reps {
            deadline: Instant::now() + budget.time,
            min_batches: budget.min_batches,
            done: 0,
        }
    }

    pub fn more(&mut self, timings: &Timings) -> bool {
        let go = self.done == 0
            || Instant::now() < self.deadline
            || timings.batch_us.len() < self.min_batches;
        self.done += go as usize;
        go
    }
}

/// What every pass times: each set-up, the ingest rate of each
/// repetition, and every `ingest_batch` call.
#[derive(Debug, Default)]
pub struct Timings {
    pub setup_s: Vec<f64>,
    pub eps: Vec<f64>,
    pub batch_us: Vec<f64>,
}

impl Timings {
    /// Run and time one set-up.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.setup_s.push(t.elapsed().as_secs_f64());
        out
    }

    pub fn add(&mut self, ing: &Ingest) {
        self.eps.push(ing.eps());
        self.batch_us.extend_from_slice(&ing.batch_us);
    }

    /// Medians and exact batch-latency quantiles into `r`.
    pub fn report(&self, traced: bool, r: &mut Report) {
        let batch = Summary::of(&self.batch_us);
        println!(
            "# {} pass: {} repetitions at {:.0?} edges/s; batch latency {} us",
            if traced { "traced" } else { "untraced" },
            self.eps.len(),
            self.eps,
            batch.describe()
        );
        r.set("ingest_eps", median(&self.eps), "edges/s");
        r.set("batch_p50_us", batch.p50, "us");
        r.set("batch_p99_us", batch.p99, "us");
        r.set("batch_p999_us", batch.p999, "us");
        r.set("setup_s", median(&self.setup_s), "s");
    }
}

/// Loom's label alphabet, sized as `loom stream` sizes it: the widest
/// of the source's labels and the workload's. A smaller alphabet makes
/// `LoomPartitioner::new` index out of bounds (see NOTES.md).
pub fn alphabet(source_labels: usize, workload: &Workload) -> usize {
    let workload_labels = workload
        .queries()
        .iter()
        .flat_map(|(q, _)| q.labels().iter().map(|l| l.index() + 1))
        .max()
        .unwrap_or(1);
    source_labels.max(workload_labels)
}

/// A Loom engine at the default knobs (batch 256, one thread, one
/// shard). Traced engines get the timing wrapper and Loom's phase
/// profile. Returns the engine and the time `LoomPartitioner::new`
/// took (motif mining), in seconds, and the motif count.
pub fn loom_engine(
    cfg: &LoomConfig,
    workload: &Workload,
    labels: usize,
    trace: Option<&Shared>,
) -> (OnlineEngine, f64, usize) {
    let t = Instant::now();
    let mut loom = LoomPartitioner::new(cfg, workload, labels);
    let motif_s = t.elapsed().as_secs_f64();
    let motifs = loom.num_motifs();
    let partitioner: Box<dyn StreamPartitioner> = match trace {
        None => Box::new(loom),
        Some(log) => {
            loom.enable_phase_profile();
            Box::new(TracedPartitioner {
                inner: loom,
                log: log.clone(),
            })
        }
    };
    let engine = OnlineEngine::new(
        partitioner,
        EngineConfig {
            batch_size: BATCH,
            ..EngineConfig::default()
        },
    );
    (engine, motif_s, motifs)
}

/// `source` as the ingest loop should pull it: behind the timing
/// wrapper when traced, with the log reset so that it records the loop
/// alone (read it back with `Shared::take` right after).
pub fn source<'a>(
    source: impl EdgeSource + 'a,
    trace: Option<&Shared>,
) -> Box<dyn EdgeSource + 'a> {
    match trace {
        None => Box::new(source),
        Some(log) => {
            log.take();
            Box::new(TracedSource {
                inner: source,
                log: log.clone(),
            })
        }
    }
}

/// What one timed ingest loop measured.
#[derive(Debug, Default)]
pub struct Ingest {
    pub edges: u64,
    /// Wall time of the loop: source pulls, `ingest_batch` calls and
    /// whatever the per-batch hook does.
    pub wall_s: f64,
    /// One sample per `ingest_batch` call, in µs.
    pub batch_us: Vec<f64>,
    /// Time inside `ingest_batch` calls, summed.
    pub batch_ns: u64,
}

impl Ingest {
    pub fn eps(&self) -> f64 {
        self.edges as f64 / self.wall_s
    }
}

/// Pull `max_edges` edges (or until the source ends) in batches of
/// [`BATCH`], timing each `ingest_batch` call. `after_batch` runs after
/// each call with the edge count so far, inside the timed loop.
pub fn ingest(
    engine: &mut OnlineEngine,
    source: &mut dyn EdgeSource,
    max_edges: u64,
    mut after_batch: impl FnMut(&mut OnlineEngine, u64),
) -> Ingest {
    let mut buf: Vec<StreamEdge> = Vec::with_capacity(BATCH);
    let mut out = Ingest::default();
    let start = Instant::now();
    while out.edges < max_edges {
        buf.clear();
        let want = (max_edges - out.edges).min(BATCH as u64) as usize;
        if source.next_batch_into(&mut buf, want) == 0 {
            break;
        }
        let t = Instant::now();
        engine
            .ingest_batch(&buf, |_| {})
            .expect("single-threaded ingest cannot fail");
        let ns = t.elapsed().as_nanos() as u64;
        out.batch_ns += ns;
        out.batch_us.push(ns as f64 / 1e3);
        out.edges += buf.len() as u64;
        after_batch(engine, out.edges);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// A `kB` field of `/proc/self/status` (`VmHWM:`, `VmRSS:`), or 0.
fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's malloc_trim only returns free heap pages to the
    // kernel; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// The peak resident memory of one stretch of the run, without what
/// came before it. Starting the probe hands freed heap back to the
/// kernel, resets the kernel's high-water mark (`VmHWM`) and notes the
/// resident set; [`RssProbe::peak_mb`] is the high-water mark since
/// then minus that resident set. So neither the input (made and kept
/// before the probe) nor the peak of making it counts.
pub struct RssProbe {
    base_kb: f64,
}

impl RssProbe {
    pub fn start() -> RssProbe {
        release_free_heap();
        std::fs::write("/proc/self/clear_refs", "5")
            .expect("reset the peak resident set (/proc/self/clear_refs)");
        RssProbe {
            base_kb: status_kb("VmRSS:"),
        }
    }

    pub fn peak_mb(&self) -> f64 {
        (status_kb("VmHWM:") - self.base_kb) / 1024.0
    }
}

/// A workload's result: named metrics with units, the correctness
/// checks that failed, and the operation counts.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Record a correctness check; a failed one is kept by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// `part / whole`, or 0 when `whole` is 0 — a layer that did no work
/// reads zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// `trace.overhead_frac`: how much longer the traced ingest took than
/// the untraced one, as a share of the untraced time.
pub fn overhead(untraced: &Report, traced: &mut Report) {
    let (Some(plain), Some(slow)) = (untraced.get("ingest_eps"), traced.get("ingest_eps")) else {
        return;
    };
    traced.set("trace.overhead_frac", ratio(plain, slow) - 1.0, "ratio");
}

/// A scratch directory under the working directory, removed on drop.
pub struct TmpDir(pub std::path::PathBuf);

impl TmpDir {
    pub fn new(tag: &str) -> std::io::Result<TmpDir> {
        let dir =
            std::path::Path::new(".loombench-tmp").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".loombench-tmp");
    }
}
