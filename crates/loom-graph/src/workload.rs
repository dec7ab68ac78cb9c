//! Query workloads `Q = {(q1, n1) ... (qh, nh)}` (§1.3).
//!
//! A workload is a multiset of pattern-matching queries, each with a
//! relative frequency. Loom mines motifs from it (loom-motif) and the
//! evaluation executes it to count inter-partition traversals
//! (loom-query).

use crate::pattern::PatternGraph;

/// A pattern-matching query workload: patterns with relative frequencies.
#[derive(Clone, Debug)]
pub struct Workload {
    queries: Vec<(PatternGraph, f64)>,
}

impl Workload {
    /// Build a workload from `(pattern, frequency)` pairs. Frequencies
    /// need not sum to 1; they are normalised on read.
    ///
    /// # Panics
    /// Panics if empty or if any frequency is non-positive/non-finite.
    pub fn new(queries: Vec<(PatternGraph, f64)>) -> Self {
        assert!(!queries.is_empty(), "empty workload");
        for (q, f) in &queries {
            assert!(
                f.is_finite() && *f > 0.0,
                "query {} has invalid frequency {f}",
                q.name()
            );
        }
        Workload { queries }
    }

    /// The queries with their raw frequencies.
    pub fn queries(&self) -> &[(PatternGraph, f64)] {
        &self.queries
    }

    /// Number of distinct query patterns.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the workload has no queries (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Sum of raw frequencies (the normalisation denominator).
    pub fn total_frequency(&self) -> f64 {
        self.queries.iter().map(|(_, f)| f).sum()
    }

    /// Normalised frequency of the `i`-th query.
    pub fn relative_frequency(&self, i: usize) -> f64 {
        self.queries[i].1 / self.total_frequency()
    }

    /// Smallest label alphabet covering every label the queries
    /// mention: one past the largest label index.
    pub fn num_labels(&self) -> usize {
        self.queries
            .iter()
            .flat_map(|(q, _)| q.labels().iter().map(|l| l.index() + 1))
            .max()
            .unwrap_or(1)
    }

    /// Largest query size `|E_q|` — bounds signature sizes (§2.3).
    pub fn max_query_edges(&self) -> usize {
        self.queries
            .iter()
            .map(|(q, _)| q.num_edges())
            .max()
            .unwrap_or(0)
    }

    /// The running example of Fig. 1: `Q(q1: 30%, q2: 60%, q3: 10%)`
    /// over labels `a=0, b=1, c=2, d=3` — q1 the a-b-a-b 4-cycle, q2 the
    /// a-b-c path, q3 the a-b-c-d path. Used by tests replaying Fig. 2.
    pub fn figure1_example() -> Self {
        use crate::types::Label;
        let a = Label(0);
        let b = Label(1);
        let c = Label(2);
        let d = Label(3);
        Workload::new(vec![
            (PatternGraph::cycle("q1", vec![a, b, a, b]), 30.0),
            (PatternGraph::path("q2", vec![a, b, c]), 60.0),
            (PatternGraph::path("q3", vec![a, b, c, d]), 10.0),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Label;

    #[test]
    fn frequencies_normalise() {
        let w = Workload::figure1_example();
        assert_eq!(w.len(), 3);
        assert!((w.total_frequency() - 100.0).abs() < 1e-12);
        assert!((w.relative_frequency(0) - 0.3).abs() < 1e-12);
        assert!((w.relative_frequency(1) - 0.6).abs() < 1e-12);
        assert!((w.relative_frequency(2) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_query_edges() {
        let w = Workload::figure1_example();
        assert_eq!(w.max_query_edges(), 4);
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn empty_rejected() {
        Workload::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn zero_frequency_rejected() {
        Workload::new(vec![(
            PatternGraph::path("q", vec![Label(0), Label(1)]),
            0.0,
        )]);
    }
}
