//! Linear Deterministic Greedy — LDG (Stanton & Kliot \[30\]).
//!
//! LDG assigns each element to the partition holding most of its
//! (so-far-seen) neighbours, discounted by how full that partition is:
//! `argmax |N(v) ∩ S_i| · (1 - |V(S_i)| / C)` (§4). The paper uses LDG
//! twice: as an evaluated baseline, and as Loom's own fallback for
//! edges that match no motif. The scoring function is therefore
//! exported standalone.

#[allow(unused_imports)] // doc link target
use crate::state::NeighborCounts;
use crate::state::{Assignment, CapacityModel, OnlineAdjacency, PartitionState};
use crate::traits::StreamPartitioner;
use loom_graph::{PartitionId, StreamEdge, VertexId};

/// Score, for every partition, of placing `v` given its seen
/// neighbourhood, and return the argmax (LDG's rule). Ties break to
/// the emptier partition, then the lower id; if every score is zero
/// (no placed neighbours) the least-loaded partition wins, which keeps
/// the early stream balanced.
///
/// This is the **reference** O(deg) form — it scans the *retained*
/// adjacency on every call (everything ever seen in unbounded mode;
/// the recent neighbourhood under a retention horizon, DESIGN.md §11).
/// The production partitioners score through a maintained
/// [`NeighborCounts`] row instead (same integers, so bit-identical
/// decisions; see the counter-equivalence suite in
/// `tests/properties.rs`).
pub fn ldg_choose(state: &PartitionState, adjacency: &OnlineAdjacency, v: VertexId) -> PartitionId {
    let mut counts = vec![0u32; state.k()];
    for &w in adjacency.neighbors(v) {
        if let Some(p) = state.partition_of(w) {
            counts[p.index()] += 1;
        }
    }
    choose_weighted(state, &counts)
}

/// The argmax of `count_i * (1 - size_i / C)` over partitions, with
/// LDG's tie-breaking. `counts` holds the per-partition neighbour
/// counts (or any non-negative affinity).
pub fn choose_weighted(state: &PartitionState, counts: &[u32]) -> PartitionId {
    debug_assert_eq!(counts.len(), state.k());
    let mut best: Option<(f64, usize, PartitionId)> = None;
    for p in state.partitions() {
        let score = counts[p.index()] as f64 * state.residual(p).max(0.0);
        let size = state.size(p);
        let better = match &best {
            None => true,
            Some((bs, bsize, _)) => {
                score > *bs + f64::EPSILON || ((score - *bs).abs() <= f64::EPSILON && size < *bsize)
            }
        };
        if better {
            best = Some((score, size, p));
        }
    }
    let (score, _, p) = best.expect("k >= 1");
    if score <= 0.0 {
        state.least_loaded()
    } else {
        p
    }
}

/// LDG as an edge-stream partitioner: when an edge arrives, each
/// unassigned endpoint is placed by LDG's rule against the
/// neighbourhood seen so far (the paper: "LDG may partition either
/// vertex or edge streams").
///
/// The edge-stream variant admits a degenerate, allocation-free form
/// of the [`NeighborCounts`] invariant: every endpoint of every seen
/// edge is assigned before `on_edge` returns, so an *unassigned*
/// vertex is being seen for the first time and its accumulated
/// neighbourhood is exactly the other endpoint of the current edge —
/// its counter row is a one-hot of that endpoint's partition (or all
/// zeros when both arrive together). No adjacency, no counter table,
/// no O(deg) anything: the per-edge cost is O(k) flat, independent of
/// stream length. Bit-equivalence with the scan-based [`ldg_choose`]
/// reference is property-tested in `tests/properties.rs`.
#[derive(Clone, Debug)]
pub struct LdgPartitioner {
    state: PartitionState,
    /// Reused one-hot count row (length k).
    scratch: Vec<u32>,
}

impl LdgPartitioner {
    /// Build for `k` partitions under the given capacity model, with
    /// the evaluation's capacity slack (1.1). Pass
    /// [`CapacityModel::Adaptive`] when the stream extent is unknown.
    pub fn new(k: usize, capacity: CapacityModel) -> Self {
        LdgPartitioner {
            state: PartitionState::new(k, capacity, 1.1),
            scratch: vec![0; k],
        }
    }
}

impl StreamPartitioner for LdgPartitioner {
    fn name(&self) -> &'static str {
        "LDG"
    }

    fn on_edge(&mut self, e: &StreamEdge) {
        for (v, other) in [(e.src, e.dst), (e.dst, e.src)] {
            if !self.state.is_assigned(v) {
                // First sight: N(v) = {other}, see the struct docs.
                self.scratch.fill(0);
                if let Some(p) = self.state.partition_of(other) {
                    self.scratch[p.index()] += 1;
                }
                let p = choose_weighted(&self.state, &self.scratch);
                self.state.assign(v, p);
            }
        }
    }

    fn finish(&mut self) {}

    fn state(&self) -> &PartitionState {
        &self.state
    }

    /// LDG's only mutable state is the partition columns (the one-hot
    /// scratch row is rebuilt per edge), so a checkpoint is just the
    /// state dump.
    fn save_state(&self, w: &mut loom_wal::ByteWriter) -> Result<(), loom_wal::WalError> {
        self.state.wal_save(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut loom_wal::ByteReader) -> Result<(), loom_wal::WalError> {
        self.state.wal_load(r)
    }

    fn into_assignment(self: Box<Self>) -> Assignment {
        self.state.into_assignment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{EdgeId, Label};

    fn se(id: u32, src: u32, dst: u32) -> StreamEdge {
        StreamEdge {
            id: EdgeId(id),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: Label(0),
            dst_label: Label(0),
        }
    }

    #[test]
    fn follows_neighbours() {
        let mut ldg = LdgPartitioner::new(2, CapacityModel::prescient(10, 0));
        // Build a little community 0-1-2 then attach 3 to it.
        ldg.on_edge(&se(0, 0, 1));
        ldg.on_edge(&se(1, 1, 2));
        let p0 = ldg.state().partition_of(VertexId(0)).unwrap();
        let p2 = ldg.state().partition_of(VertexId(2)).unwrap();
        assert_eq!(p0, p2, "chain should co-locate while capacity allows");
        ldg.on_edge(&se(2, 2, 3));
        assert_eq!(ldg.state().partition_of(VertexId(3)), Some(p0));
    }

    #[test]
    fn residual_discourages_full_partition() {
        // k=2 over 4 vertices, C = 1.1 * 2 = 2.2. Pack partition with 2
        // vertices, then a vertex with one neighbour there should still
        // score it (residual 1 - 2/2.2 > 0) but a *full* partition
        // (score <= 0) must be avoided.
        let mut state = PartitionState::prescient(2, 4, 1.0); // C = 2
        state.assign(VertexId(0), PartitionId(0));
        state.assign(VertexId(1), PartitionId(0));
        // counts: 5 neighbours in full P0, 0 in P1 -> residual 0 kills P0.
        let p = choose_weighted(&state, &[5, 0]);
        assert_eq!(p, PartitionId(1));
    }

    #[test]
    fn zero_scores_fall_back_to_least_loaded() {
        let mut state = PartitionState::prescient(3, 9, 1.0);
        state.assign(VertexId(0), PartitionId(0));
        let p = choose_weighted(&state, &[0, 0, 0]);
        assert_eq!(p, PartitionId(1), "least loaded, lowest id");
    }

    #[test]
    fn balanced_on_random_pairs() {
        let mut ldg = LdgPartitioner::new(4, CapacityModel::prescient(4000, 0));
        for i in 0..2000u32 {
            ldg.on_edge(&se(i, 2 * i, 2 * i + 1));
        }
        let max = ldg.state().max_size() as f64;
        let min = ldg.state().min_size() as f64;
        assert!(max / min.max(1.0) < 1.3, "imbalance {max}/{min}");
    }

    #[test]
    fn all_endpoints_assigned() {
        let mut ldg = LdgPartitioner::new(2, CapacityModel::prescient(100, 0));
        for i in 0..50u32 {
            ldg.on_edge(&se(i, i, i + 50));
        }
        for i in 0..100u32 {
            assert!(ldg.state().is_assigned(VertexId(i)));
        }
    }
}
