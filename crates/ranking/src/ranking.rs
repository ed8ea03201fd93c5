//! The [`Ranking`] type: a total order on vertices.

use std::fmt;

use chl_graph::{CsrGraph, VertexId};

/// Errors produced when constructing a [`Ranking`] from user input.
#[derive(Debug, PartialEq, Eq)]
pub enum RankingError {
    /// The order does not contain every vertex exactly once.
    NotAPermutation {
        /// Expected number of vertices.
        expected: usize,
        /// Length of the supplied order.
        found: usize,
    },
    /// A vertex id in the order is outside `0..n`.
    VertexOutOfRange(VertexId),
    /// A vertex appears more than once in the order.
    DuplicateVertex(VertexId),
}

impl fmt::Display for RankingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankingError::NotAPermutation { expected, found } => {
                write!(f, "ranking must list every vertex exactly once: expected {expected} entries, found {found}")
            }
            RankingError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            RankingError::DuplicateVertex(v) => {
                write!(f, "vertex {v} appears twice in the ranking")
            }
        }
    }
}

impl std::error::Error for RankingError {}

/// A total order (network hierarchy) over the vertices of a graph.
///
/// Internally a `Ranking` stores both directions of the bijection:
/// `order[pos] = vertex` and `position[vertex] = pos`, with **position 0 being
/// the most important vertex**. The labeling algorithms compare importance
/// millions of times, so `position` lookups are a single array access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ranking {
    order: Vec<VertexId>,
    position: Vec<u32>,
}

impl Ranking {
    /// Builds a ranking from an explicit order, most important vertex first.
    pub fn from_order(order: Vec<VertexId>, num_vertices: usize) -> Result<Self, RankingError> {
        if order.len() != num_vertices {
            return Err(RankingError::NotAPermutation {
                expected: num_vertices,
                found: order.len(),
            });
        }
        let mut position = vec![u32::MAX; num_vertices];
        for (pos, &v) in order.iter().enumerate() {
            let vi = v as usize;
            if vi >= num_vertices {
                return Err(RankingError::VertexOutOfRange(v));
            }
            if position[vi] != u32::MAX {
                return Err(RankingError::DuplicateVertex(v));
            }
            position[vi] = pos as u32;
        }
        Ok(Ranking { order, position })
    }

    /// Builds a ranking by sorting vertices by a score, **highest score =
    /// most important**. Ties are broken by vertex id (lower id more
    /// important) so rankings are deterministic.
    pub fn from_scores<S: PartialOrd + Copy>(scores: &[S]) -> Self {
        let mut order: Vec<VertexId> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        Self::from_order(order, scores.len()).expect("sorted ids form a permutation")
    }

    /// The identity ranking: vertex 0 most important, vertex n-1 least.
    pub fn identity(num_vertices: usize) -> Self {
        let order: Vec<VertexId> = (0..num_vertices as u32).collect();
        Self::from_order(order, num_vertices).expect("identity is a permutation")
    }

    /// Number of ranked vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the ranking covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Rank position of `v` (0 = most important).
    #[inline]
    pub fn position(&self, v: VertexId) -> u32 {
        self.position[v as usize]
    }

    /// Vertex at rank position `pos`.
    #[inline]
    pub fn vertex_at(&self, pos: u32) -> VertexId {
        self.order[pos as usize]
    }

    /// The full order, most important first.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// `true` when `u` is strictly more important than `v` (paper: `R(u) > R(v)`).
    #[inline]
    pub fn is_more_important(&self, u: VertexId, v: VertexId) -> bool {
        self.position[u as usize] < self.position[v as usize]
    }

    /// Returns the more important of `u` and `v`.
    #[inline]
    pub fn more_important_of(&self, u: VertexId, v: VertexId) -> VertexId {
        if self.is_more_important(u, v) {
            u
        } else {
            v
        }
    }

    /// The most important vertex among the (non-empty) iterator `it`.
    pub fn most_important<I: IntoIterator<Item = VertexId>>(&self, it: I) -> Option<VertexId> {
        it.into_iter().min_by_key(|&v| self.position[v as usize])
    }

    /// Paper-style rank value: `R(v) = n - position(v)`, so higher is more
    /// important and the most important vertex has `R = n`. Only used for
    /// display/debugging parity with the paper's figures (their SPT id is
    /// `n - R(v)`, i.e. exactly [`Self::position`]).
    pub fn paper_rank(&self, v: VertexId) -> u32 {
        self.order.len() as u32 - self.position(v)
    }

    /// Checks that this ranking covers exactly the vertices of `g`.
    pub fn matches_graph(&self, g: &CsrGraph) -> bool {
        self.len() == g.num_vertices()
    }

    /// Heap bytes held by the two direction arrays (`order` and `position`),
    /// counted by index memory accounting.
    pub fn memory_bytes(&self) -> usize {
        (self.order.len() + self.position.len()) * std::mem::size_of::<VertexId>()
    }
}

/// A strategy that produces a [`Ranking`] for a graph. Implemented by the
/// degree and betweenness orderings; user code can plug in custom hierarchies
/// (e.g. highway hierarchies imported from an external tool).
pub trait RankingStrategy {
    /// Computes the ranking for `g`.
    fn rank(&self, g: &CsrGraph) -> Ranking;
    /// Human-readable name used in benchmark reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_order_roundtrips_positions() {
        let r = Ranking::from_order(vec![2, 0, 1], 3).unwrap();
        assert_eq!(r.position(2), 0);
        assert_eq!(r.position(0), 1);
        assert_eq!(r.position(1), 2);
        assert_eq!(r.vertex_at(0), 2);
        assert_eq!(r.order(), &[2, 0, 1]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn importance_comparisons() {
        let r = Ranking::from_order(vec![2, 0, 1], 3).unwrap();
        assert!(r.is_more_important(2, 0));
        assert!(r.is_more_important(0, 1));
        assert!(!r.is_more_important(1, 2));
        assert_eq!(r.more_important_of(0, 1), 0);
        assert_eq!(r.most_important([1, 0, 2]), Some(2));
        assert_eq!(r.most_important(std::iter::empty()), None);
    }

    #[test]
    fn from_scores_orders_by_score_then_id() {
        let r = Ranking::from_scores(&[5.0, 9.0, 5.0, 1.0]);
        assert_eq!(r.order(), &[1, 0, 2, 3]);
    }

    #[test]
    fn paper_rank_is_n_minus_position() {
        let r = Ranking::identity(4);
        assert_eq!(r.paper_rank(0), 4);
        assert_eq!(r.paper_rank(3), 1);
    }

    #[test]
    fn invalid_orders_are_rejected() {
        assert_eq!(
            Ranking::from_order(vec![0, 1], 3).unwrap_err(),
            RankingError::NotAPermutation {
                expected: 3,
                found: 2
            }
        );
        assert_eq!(
            Ranking::from_order(vec![0, 1, 3], 3).unwrap_err(),
            RankingError::VertexOutOfRange(3)
        );
        assert_eq!(
            Ranking::from_order(vec![0, 1, 1], 3).unwrap_err(),
            RankingError::DuplicateVertex(1)
        );
    }

    #[test]
    fn empty_ranking() {
        let r = Ranking::identity(0);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
