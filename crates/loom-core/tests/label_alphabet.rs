//! Loom's label alphabet is widened to cover the workload: a caller
//! that sizes it from the stream alone (fewer labels than the queries
//! mention) gets a working partitioner, and widening moves no output,
//! because the label randomizer draws one value per label in order.

use loom_core::engine::{EngineConfig, OnlineEngine};
use loom_core::graph::SyntheticEdgeSource;
use loom_core::partition::{Assignment, LoomConfig, LoomPartitioner};
use loom_core::query::workloads::dblp_workload;

/// Loom at the §5.1 defaults, built with `labels` labels, over 20k
/// edges of a 6-label synthetic stream.
fn run(labels: usize) -> Assignment {
    let loom = LoomPartitioner::new(
        &LoomConfig::evaluation_defaults(8),
        &dblp_workload(),
        labels,
    );
    let mut engine = OnlineEngine::new(
        Box::new(loom),
        EngineConfig {
            batch_size: 256,
            ..EngineConfig::default()
        },
    );
    engine
        .run(&mut SyntheticEdgeSource::new(11, 6), Some(20_000), |_| {})
        .expect("ingest");
    engine.finish();
    engine.into_assignment()
}

#[test]
fn narrow_alphabet_is_widened_to_the_workload() {
    // The DBLP queries mention labels up to 5; 4 used to index past
    // the randomizer's table while mining motifs.
    let workload = dblp_workload();
    assert_eq!(workload.num_labels(), 6);
    let loom = LoomPartitioner::new(&LoomConfig::evaluation_defaults(8), &workload, 4);
    assert!(loom.num_motifs() > 0);
}

#[test]
fn widening_moves_no_output() {
    let narrow: Vec<_> = run(4).iter().collect();
    assert!(!narrow.is_empty());
    for labels in [6, 8] {
        let wide: Vec<_> = run(labels).iter().collect();
        assert_eq!(narrow, wide, "alphabet {labels} moved an assignment");
    }
}
