//! Rank-circular task and label partitioning (§5.1 of the paper).
//!
//! DGLL, PLaNT and the Hybrid algorithm all assign the SPT rooted at the
//! vertex with rank position `p` to node `p mod q`, and each node stores only
//! the labels generated by its own SPTs (`L_v = ∪_i L_{i,v}` with disjoint
//! parts). This module centralizes that arithmetic so every crate agrees on
//! who owns what.

/// Rank-circular assignment of rank positions (SPT roots) to cluster nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPartition {
    /// Number of cluster nodes (`q`).
    pub nodes: usize,
    /// Number of vertices / rank positions (`n`).
    pub num_positions: usize,
}

impl TaskPartition {
    /// Creates a partition of `num_positions` rank positions over `nodes`
    /// nodes.
    pub fn new(nodes: usize, num_positions: usize) -> Self {
        TaskPartition {
            nodes: nodes.max(1),
            num_positions,
        }
    }

    /// The node that owns rank position `pos` (i.e. constructs the SPT rooted
    /// at the vertex with that position and stores its labels).
    #[inline]
    pub fn owner_of(&self, pos: u32) -> usize {
        pos as usize % self.nodes
    }

    /// Rank positions owned by `node`, in increasing (most-important-first)
    /// order.
    pub fn positions_of(&self, node: usize) -> impl Iterator<Item = u32> + '_ {
        let nodes = self.nodes;
        let n = self.num_positions;
        (node..n).step_by(nodes).map(|p| p as u32)
    }

    /// Number of positions owned by `node`.
    pub fn count_of(&self, node: usize) -> usize {
        if node >= self.nodes || self.num_positions == 0 {
            return 0;
        }
        let n = self.num_positions;
        (n + self.nodes - 1 - node) / self.nodes
    }

    /// Positions owned by `node` that fall inside the half-open rank range
    /// `[from, to)` — the shape of one DGLL superstep.
    pub fn positions_of_in_range(&self, node: usize, from: u32, to: u32) -> Vec<u32> {
        self.positions_of(node)
            .skip_while(|&p| p < from)
            .take_while(|&p| p < to)
            .collect()
    }
}

/// A geometric superstep schedule: superstep `i` covers `base · β^i` rank
/// positions (§5.1: "if superstep i constructs x SPTs, superstep i+1 will
/// construct β·x SPTs"). The last superstep is truncated at `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstepSchedule {
    boundaries: Vec<u32>,
}

impl SuperstepSchedule {
    /// Builds the schedule for `num_positions` roots, starting with
    /// `initial` roots in the first superstep and growing by `beta`.
    pub fn geometric(num_positions: usize, initial: usize, beta: f64) -> Self {
        let n = num_positions as u64;
        let mut boundaries = vec![0u32];
        let mut covered = 0u64;
        let mut step = initial.max(1) as f64;
        let beta = beta.max(1.0);
        while covered < n {
            covered = (covered + step.round() as u64).min(n);
            boundaries.push(covered as u32);
            step *= beta;
        }
        SuperstepSchedule { boundaries }
    }

    /// A single superstep covering everything (used by embarrassingly
    /// parallel runs that never synchronize).
    pub fn single(num_positions: usize) -> Self {
        SuperstepSchedule {
            boundaries: vec![0, num_positions as u32],
        }
    }

    /// Number of supersteps.
    pub fn len(&self) -> usize {
        self.boundaries.len().saturating_sub(1)
    }

    /// `true` when the schedule contains no supersteps (empty graph).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Half-open rank-position range `[from, to)` of superstep `i`.
    pub fn range(&self, i: usize) -> (u32, u32) {
        (self.boundaries[i], self.boundaries[i + 1])
    }

    /// Iterator over all superstep ranges.
    pub fn ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.len()).map(|i| self.range(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_rank_mod_q() {
        let p = TaskPartition::new(4, 10);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(5), 1);
        assert_eq!(p.owner_of(7), 3);
    }

    #[test]
    fn positions_partition_the_range() {
        let p = TaskPartition::new(3, 11);
        let mut all: Vec<u32> = (0..3)
            .flat_map(|node| p.positions_of(node).collect::<Vec<_>>())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..11u32).collect::<Vec<_>>());
        assert_eq!(p.count_of(0), 4);
        assert_eq!(p.count_of(1), 4);
        assert_eq!(p.count_of(2), 3);
        assert_eq!(p.count_of(7), 0);
    }

    #[test]
    fn positions_in_range_respect_bounds() {
        let p = TaskPartition::new(2, 20);
        assert_eq!(p.positions_of_in_range(0, 4, 10), vec![4, 6, 8]);
        assert_eq!(p.positions_of_in_range(1, 4, 10), vec![5, 7, 9]);
        assert!(p.positions_of_in_range(1, 10, 10).is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let p = TaskPartition::new(1, 5);
        assert_eq!(p.positions_of(0).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(p.count_of(0), 5);
    }

    #[test]
    fn geometric_schedule_covers_every_position_once() {
        let s = SuperstepSchedule::geometric(100, 4, 2.0);
        assert!(s.len() > 1);
        let mut covered = Vec::new();
        for (from, to) in s.ranges() {
            assert!(from < to);
            covered.extend(from..to);
        }
        assert_eq!(covered, (0..100u32).collect::<Vec<_>>());
        // Geometric growth: later steps are at least as large as earlier ones
        // (except the truncated last one).
        let sizes: Vec<u32> = s.ranges().map(|(a, b)| b - a).collect();
        for w in sizes[..sizes.len() - 1].windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn degenerate_schedules() {
        assert!(SuperstepSchedule::geometric(0, 4, 2.0).is_empty());
        let single = SuperstepSchedule::single(7);
        assert_eq!(single.len(), 1);
        assert_eq!(single.range(0), (0, 7));
        // beta below 1 is clamped and still terminates.
        let s = SuperstepSchedule::geometric(10, 3, 0.5);
        assert_eq!(s.ranges().last().unwrap().1, 10);
    }
}
