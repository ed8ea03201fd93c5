//! Construction-time instrumentation.
//!
//! The paper's figures are mostly plots of construction-time behaviour:
//! labels generated per SPT (Figure 2), vertices explored per label Ψ
//! (Figure 3), construction vs. cleaning time (Figure 7), superstep label
//! volumes, and so on. Every constructor in this crate fills in a
//! [`ConstructionStats`] so the bench harness can regenerate those series
//! without re-instrumenting the algorithms.

use std::time::Duration;

/// Per-SPT instrumentation record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SptRecord {
    /// Rank position of the SPT's root (the paper's "SPT id").
    pub root_position: u32,
    /// Number of labels this SPT generated.
    pub labels_generated: usize,
    /// Number of vertices popped from the Dijkstra queue (explored).
    pub vertices_explored: usize,
}

impl SptRecord {
    /// Ψ for this SPT: vertices explored per label generated
    /// (`f64::INFINITY` when no label was generated).
    pub fn psi(&self) -> f64 {
        if self.labels_generated == 0 {
            f64::INFINITY
        } else {
            self.vertices_explored as f64 / self.labels_generated as f64
        }
    }
}

/// Statistics of one labeling construction run.
#[derive(Debug, Clone, Default)]
pub struct ConstructionStats {
    /// Name of the algorithm that produced the labeling.
    pub algorithm: String,
    /// Wall-clock time of the label construction phase(s).
    pub construction_time: Duration,
    /// Wall-clock time of the label cleaning phase(s).
    pub cleaning_time: Duration,
    /// Total wall-clock time (construction + cleaning + bookkeeping).
    pub total_time: Duration,
    /// Number of worker threads used.
    pub threads: usize,
    /// Per-SPT records, ordered by root rank position.
    pub spt_records: Vec<SptRecord>,
    /// Labels present before any cleaning ran.
    pub labels_before_cleaning: usize,
    /// Labels remaining after cleaning (equals the index's total).
    pub labels_after_cleaning: usize,
    /// Number of construction/cleaning supersteps executed (GLL/DGLL); 1 for
    /// single-pass algorithms.
    pub supersteps: usize,
    /// For hybrid constructors: how many SPTs were PLaNTed before switching
    /// to pruned construction.
    pub planted_trees: usize,
    /// Construction-time distance queries issued.
    pub distance_queries: usize,
}

impl ConstructionStats {
    /// Creates an empty record tagged with an algorithm name.
    pub fn new(algorithm: impl Into<String>) -> Self {
        ConstructionStats {
            algorithm: algorithm.into(),
            supersteps: 1,
            ..Default::default()
        }
    }

    /// Total labels generated across all SPTs (before any cleaning).
    pub fn total_labels_generated(&self) -> usize {
        self.spt_records.iter().map(|r| r.labels_generated).sum()
    }

    /// Total vertices explored across all SPTs.
    pub fn total_vertices_explored(&self) -> usize {
        self.spt_records.iter().map(|r| r.vertices_explored).sum()
    }

    /// Labels-per-SPT series ordered by root rank position (Figure 2). The
    /// result has one entry per recorded SPT.
    pub fn labels_per_spt(&self) -> Vec<(u32, usize)> {
        let mut v: Vec<(u32, usize)> = self
            .spt_records
            .iter()
            .map(|r| (r.root_position, r.labels_generated))
            .collect();
        v.sort_unstable_by_key(|&(pos, _)| pos);
        v
    }

    /// Ψ-per-SPT series ordered by root rank position (Figure 3).
    pub fn psi_per_spt(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .spt_records
            .iter()
            .map(|r| (r.root_position, r.psi()))
            .collect();
        v.sort_unstable_by_key(|a| a.0);
        v
    }

    /// Fraction of generated labels that the cleaning pass removed.
    pub fn redundancy_ratio(&self) -> f64 {
        if self.labels_before_cleaning == 0 {
            0.0
        } else {
            1.0 - self.labels_after_cleaning as f64 / self.labels_before_cleaning as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_handles_zero_labels() {
        let r = SptRecord {
            root_position: 3,
            labels_generated: 0,
            vertices_explored: 50,
        };
        assert!(r.psi().is_infinite());
        let r = SptRecord {
            root_position: 3,
            labels_generated: 10,
            vertices_explored: 50,
        };
        assert_eq!(r.psi(), 5.0);
    }

    #[test]
    fn aggregates_sum_over_spts() {
        let mut s = ConstructionStats::new("test");
        s.spt_records.push(SptRecord {
            root_position: 1,
            labels_generated: 4,
            vertices_explored: 8,
        });
        s.spt_records.push(SptRecord {
            root_position: 0,
            labels_generated: 6,
            vertices_explored: 6,
        });
        assert_eq!(s.total_labels_generated(), 10);
        assert_eq!(s.total_vertices_explored(), 14);
        // Series are sorted by root position.
        assert_eq!(s.labels_per_spt(), vec![(0, 6), (1, 4)]);
        assert_eq!(s.psi_per_spt()[0], (0, 1.0));
    }

    #[test]
    fn redundancy_ratio() {
        let mut s = ConstructionStats::new("test");
        assert_eq!(s.redundancy_ratio(), 0.0);
        s.labels_before_cleaning = 200;
        s.labels_after_cleaning = 150;
        assert!((s.redundancy_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn new_sets_algorithm_name_and_defaults() {
        let s = ConstructionStats::new("gll");
        assert_eq!(s.algorithm, "gll");
        assert_eq!(s.supersteps, 1);
        assert_eq!(s.planted_trees, 0);
    }
}
