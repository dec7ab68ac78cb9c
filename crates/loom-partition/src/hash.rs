//! The Hash baseline (§5.1): assign each vertex by hashing its id.
//!
//! This is the default placement of several production graph stores
//! (the paper cites Titan) and the normalisation baseline of every ipt
//! figure: Figs. 7 and 8 report each system's ipt as a percentage of
//! Hash's on the same dataset.

use crate::state::{Assignment, CapacityModel, PartitionState};
use crate::traits::StreamPartitioner;
use loom_graph::{PartitionId, StreamEdge, VertexId};

/// Hash partitioner: `partition(v) = hash(v) mod k`.
#[derive(Clone, Debug)]
pub struct HashPartitioner {
    state: PartitionState,
    seed: u64,
}

impl HashPartitioner {
    /// Build for `k` partitions. `seed` perturbs the hash so repeated
    /// runs can differ deliberately. Hash is capacity-oblivious (it
    /// balances in expectation by construction), so it needs no
    /// knowledge of the stream extent at all.
    pub fn new(k: usize, seed: u64) -> Self {
        HashPartitioner {
            // The placement rule never reads C, so the adaptive model
            // is exact for both known and unbounded streams.
            state: PartitionState::new(k, CapacityModel::Adaptive, 1.1),
            seed,
        }
    }

    fn target(&self, v: VertexId) -> PartitionId {
        PartitionId((splitmix64(v.0 as u64 ^ self.seed) % self.state.k() as u64) as u32)
    }
}

/// SplitMix64 finaliser — a cheap, well-mixed integer hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl StreamPartitioner for HashPartitioner {
    fn name(&self) -> &'static str {
        "Hash"
    }

    fn on_edge(&mut self, e: &StreamEdge) {
        for v in [e.src, e.dst] {
            if !self.state.is_assigned(v) {
                let p = self.target(v);
                self.state.assign(v, p);
            }
        }
    }

    fn finish(&mut self) {}

    fn state(&self) -> &PartitionState {
        &self.state
    }

    /// Hash placement is a pure per-vertex function of the seed, so
    /// the partition columns are the whole recoverable state.
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
    fn assigns_both_endpoints() {
        let mut h = HashPartitioner::new(4, 0);
        h.on_edge(&se(0, 1, 2));
        assert!(h.state().is_assigned(VertexId(1)));
        assert!(h.state().is_assigned(VertexId(2)));
        assert_eq!(h.state().assigned_count(), 2);
    }

    #[test]
    fn deterministic_per_vertex() {
        let mut h = HashPartitioner::new(4, 7);
        h.on_edge(&se(0, 1, 2));
        let p1 = h.state().partition_of(VertexId(1)).unwrap();
        // Seeing vertex 1 again must not move it.
        h.on_edge(&se(1, 1, 3));
        assert_eq!(h.state().partition_of(VertexId(1)), Some(p1));
    }

    #[test]
    fn roughly_balanced() {
        let mut h = HashPartitioner::new(4, 3);
        for i in 0..2000u32 {
            h.on_edge(&se(i, 2 * i, 2 * i + 1));
        }
        let sizes = h.state().sizes().to_vec();
        let expect = 1000.0;
        for &s in &sizes {
            assert!(
                (s as f64 - expect).abs() < expect * 0.15,
                "imbalanced: {sizes:?}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = HashPartitioner::new(8, 1);
        let mut b = HashPartitioner::new(8, 2);
        let mut diff = 0;
        for i in 0..40u32 {
            a.on_edge(&se(i, i, i + 50));
            b.on_edge(&se(i, i, i + 50));
            if a.state().partition_of(VertexId(i)) != b.state().partition_of(VertexId(i)) {
                diff += 1;
            }
        }
        assert!(diff > 10, "seeds should shuffle placements, diff={diff}");
    }
}
