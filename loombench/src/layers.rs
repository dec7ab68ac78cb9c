//! Per-layer figures of one traced repetition, and their reduction to
//! the medians the traced run reports.

use crate::common::{ratio, Ingest, Report};
use crate::stats::{median, Summary};
use crate::trace::Log;
use loom_core::engine::Snapshot;
use std::collections::BTreeMap;

/// Per-repetition layer figures, reduced to their median over
/// repetitions; pooled samples (flushes, checkpoints, publications)
/// are reduced to exact quantiles over the whole run.
#[derive(Debug, Default)]
pub struct Layers {
    per_rep: BTreeMap<String, (Vec<f64>, &'static str)>,
    pub flush_us: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
}

impl Layers {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_rep
            .entry(name.to_string())
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    /// One repetition's ingest loop: `log` holds what the wrappers
    /// recorded during the loop, `publish_ns` the time spent in
    /// `publish_view_now` calls the loop made, `fin` the engine's final
    /// snapshot.
    pub fn add_ingest(&mut self, log: &mut Log, ing: &Ingest, publish_ns: u64, fin: &Snapshot) {
        let per_edge = |ns: u64| ratio(ns as f64, ing.edges as f64);
        let per_10k = |n: u64| ratio(n as f64 * 1e4, ing.edges as f64);
        self.add(
            "graph.source_ns_per_edge",
            per_edge(log.source_ns),
            "ns/edge",
        );
        self.add(
            "partition.batch_ns_per_edge",
            per_edge(log.partition_ns),
            "ns/edge",
        );
        let engine_self = ing.batch_ns.saturating_sub(log.partition_ns + log.wal_ns);
        self.add("engine.self_ns_per_edge", per_edge(engine_self), "ns/edge");
        self.add("wal.append_ns_per_edge", per_edge(log.append_ns), "ns/edge");
        let s = log.loom_stats;
        self.add(
            "partition.bypassed_frac",
            ratio(s.bypassed as f64, ing.edges as f64),
            "ratio",
        );
        self.add(
            "partition.buffered_frac",
            ratio(s.buffered as f64, ing.edges as f64),
            "ratio",
        );
        self.add(
            "partition.auctions_per_10k",
            per_10k(s.auctions),
            "per-10k-edges",
        );
        self.add(
            "partition.fallback_auctions_per_10k",
            per_10k(s.fallback_auctions),
            "per-10k-edges",
        );
        self.add(
            "partition.matches_per_auction",
            ratio(s.matches_assigned as f64, s.auctions as f64),
            "ratio",
        );
        let p = log.phases;
        self.add(
            "matcher.phase_ns_per_edge",
            per_edge(p.matcher_ns),
            "ns/edge",
        );
        self.add(
            "partition.phase_ns_per_edge",
            per_edge(p.partitioner_ns),
            "ns/edge",
        );
        self.add("window.phase_ns_per_edge", per_edge(p.window_ns), "ns/edge");
        if let Some(a) = fin.arena {
            self.add(
                "matcher.arena_resident_cells",
                a.total_cells as f64,
                "count",
            );
            self.add("matcher.arena_generation", a.generation as f64, "count");
        }
        if let Some(a) = fin.adjacency {
            self.add(
                "partition.adjacency_resident_entries",
                a.resident_entries as f64,
                "count",
            );
            self.add(
                "partition.adjacency_generation",
                a.generation as f64,
                "count",
            );
        }
        self.add("wal.flush_count", log.flush_us.len() as f64, "count");
        self.add(
            "wal.checkpoint_count",
            log.checkpoint_ms.len() as f64,
            "count",
        );
        if !log.checkpoint_bytes.is_empty() {
            let mean =
                log.checkpoint_bytes.iter().sum::<u64>() as f64 / log.checkpoint_bytes.len() as f64;
            self.add("wal.checkpoint_bytes", mean, "B");
        }
        self.add("wal.journal_bytes", log.journal_bytes as f64, "B");
        let covered = log.source_ns + ing.batch_ns + publish_ns;
        self.add(
            "trace.coverage",
            ratio(covered as f64 / 1e9, ing.wall_s),
            "ratio",
        );
        self.flush_us.append(&mut log.flush_us);
        self.checkpoint_ms.append(&mut log.checkpoint_ms);
    }

    /// Medians and pooled quantiles into `report`.
    pub fn report(&self, report: &mut Report) {
        for (name, (values, unit)) in &self.per_rep {
            report.set(name.as_str(), median(values), unit);
        }
        let flush = Summary::of(&self.flush_us);
        report.set("wal.flush_us_p99", flush.p99, "us");
        let ckpt = Summary::of(&self.checkpoint_ms);
        report.set("wal.checkpoint_ms_p50", ckpt.p50, "ms");
        let max = self.checkpoint_ms.iter().copied().fold(0.0, f64::max);
        report.set("wal.checkpoint_ms_max", max, "ms");
        let publish = Summary::of(&self.publish_ms);
        report.set("serve.publish_ms_p50", publish.p50, "ms");
        report.set("serve.publish_ms_p99", publish.p99, "ms");
    }
}
