//! Fundamental scalar types shared by every crate in the workspace.

/// Identifier of a vertex. Vertices are always densely numbered `0..n`.
pub type VertexId = u32;

/// Weight of a single edge. The paper assumes positive edge weights; a weight
/// of zero is rejected by [`crate::GraphBuilder`].
pub type Weight = u32;

/// A shortest-path distance. Distances are accumulated in 64 bits so that even
/// paths visiting every vertex of a large graph with maximal edge weights
/// cannot overflow.
pub type Distance = u64;

/// Sentinel distance representing "unreachable".
pub const INFINITY: Distance = u64::MAX;

/// A single weighted edge, as supplied to [`crate::GraphBuilder`] or returned
/// by iteration helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source endpoint.
    pub u: VertexId,
    /// Target endpoint.
    pub v: VertexId,
    /// Positive weight.
    pub w: Weight,
}

impl Edge {
    /// Creates a new edge.
    pub fn new(u: VertexId, v: VertexId, w: Weight) -> Self {
        Edge { u, v, w }
    }

    /// Returns the edge with endpoints swapped (same weight).
    pub fn reversed(self) -> Self {
        Edge {
            u: self.v,
            v: self.u,
            w: self.w,
        }
    }

    /// Returns the edge with endpoints ordered so that `u <= v`. Useful for
    /// deduplicating undirected edge lists.
    pub fn canonicalized(self) -> Self {
        if self.u <= self.v {
            self
        } else {
            self.reversed()
        }
    }
}

/// Saturating addition of a distance and an edge weight, staying at
/// [`INFINITY`] when the base distance is already unreachable.
#[inline]
pub fn dist_add(d: Distance, w: Weight) -> Distance {
    if d == INFINITY {
        INFINITY
    } else {
        d.saturating_add(w as Distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_reversed_swaps_endpoints() {
        let e = Edge::new(3, 7, 11);
        let r = e.reversed();
        assert_eq!(r, Edge::new(7, 3, 11));
        assert_eq!(r.reversed(), e);
    }

    #[test]
    fn edge_canonicalized_orders_endpoints() {
        assert_eq!(Edge::new(9, 2, 1).canonicalized(), Edge::new(2, 9, 1));
        assert_eq!(Edge::new(2, 9, 1).canonicalized(), Edge::new(2, 9, 1));
        assert_eq!(Edge::new(4, 4, 1).canonicalized(), Edge::new(4, 4, 1));
    }

    #[test]
    fn dist_add_saturates_at_infinity() {
        assert_eq!(dist_add(INFINITY, 5), INFINITY);
        assert_eq!(dist_add(10, 5), 15);
        assert_eq!(dist_add(INFINITY - 1, u32::MAX), INFINITY);
    }
}
