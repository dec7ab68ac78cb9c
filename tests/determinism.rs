//! Determinism regression tests: the whole pipeline is a pure function
//! of `ExperimentConfig` (the in-workspace RNG shim is seeded, never
//! entropy-backed), so repeated runs must agree bit-for-bit — not just
//! statistically. Future performance PRs (parallelism, caching,
//! incremental state) must preserve this or consciously break it here.

use loom_core::graph::datasets;
use loom_core::prelude::*;
use loom_core::{partition_timed, ExperimentConfig, System};

fn tiny(dataset: DatasetKind, order: StreamOrder) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::evaluation_defaults(dataset, Scale::Tiny, order);
    cfg.k = 4;
    cfg.limit_per_query = 30_000;
    cfg
}

/// Two runs of `run_experiment` with the same seed agree on every
/// observable outcome: match counts, ipt (weighted and raw), and the
/// full partition-size vector, for every system.
#[test]
fn run_experiment_is_bit_identical_across_runs() {
    for order in [StreamOrder::BreadthFirst, StreamOrder::Random] {
        let cfg = tiny(DatasetKind::ProvGen, order);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.num_vertices, b.num_vertices);
        assert_eq!(a.num_edges, b.num_edges);
        assert_eq!(a.systems.len(), b.systems.len());
        for (x, y) in a.systems.iter().zip(&b.systems) {
            let name = x.system.name();
            assert_eq!(x.system, y.system, "{name}: system order changed");
            assert_eq!(x.matches, y.matches, "{name}: match count diverged");
            assert_eq!(x.total_ipt, y.total_ipt, "{name}: raw ipt diverged");
            assert_eq!(
                x.weighted_ipt.to_bits(),
                y.weighted_ipt.to_bits(),
                "{name}: weighted ipt diverged"
            );
            assert_eq!(x.metrics.sizes, y.metrics.sizes, "{name}: sizes diverged");
            assert_eq!(x.edges, y.edges, "{name}: edge count diverged");
        }
    }
}

/// Stronger than size vectors: the per-vertex partition assignment of
/// every system is identical across runs of the same config.
#[test]
fn assignments_are_identical_across_runs() {
    let cfg = tiny(DatasetKind::Dblp, StreamOrder::Random);
    let graph = datasets::generate(cfg.dataset, cfg.scale, cfg.seed);
    let workload = workload_for(cfg.dataset);
    let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
    for system in System::ALL {
        let (a, _) = partition_timed(system, &cfg, &stream, &workload);
        let (b, _) = partition_timed(system, &cfg, &stream, &workload);
        assert_eq!(a.k(), b.k());
        for v in graph.vertices() {
            assert_eq!(
                a.partition_of(v),
                b.partition_of(v),
                "{}: vertex {v:?} moved between identical runs",
                system.name()
            );
        }
    }
}

/// Different seeds must actually change the outcome — guards against a
/// seed that is silently ignored somewhere in the pipeline (which
/// would make the two tests above pass vacuously).
#[test]
fn seed_is_not_ignored() {
    let mut a_cfg = tiny(DatasetKind::ProvGen, StreamOrder::Random);
    let mut b_cfg = a_cfg.clone();
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    let a = run_experiment(&a_cfg);
    let b = run_experiment(&b_cfg);
    let diverged = a
        .systems
        .iter()
        .zip(&b.systems)
        .any(|(x, y)| x.weighted_ipt != y.weighted_ipt || x.metrics.sizes != y.metrics.sizes);
    assert!(diverged, "changing the seed changed nothing");
}
