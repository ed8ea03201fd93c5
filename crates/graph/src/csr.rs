//! Compressed sparse row (CSR) graph storage.
//!
//! The labeling algorithms traverse adjacency lists in tight inner loops
//! (millions of Dijkstra edge relaxations), so the graph is stored as three
//! flat arrays: per-vertex offsets into a concatenated neighbor array and a
//! parallel weight array. Undirected graphs store each edge in both
//! directions; directed graphs additionally keep a reverse CSR so that
//! backward searches (needed for directed hub labels) are as cheap as forward
//! ones.

use crate::types::{Distance, Edge, VertexId, Weight};

/// Whether a [`CsrGraph`] is undirected or directed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Every edge is traversable in both directions; `num_edges` counts each
    /// undirected edge once.
    Undirected,
    /// Edges are one-way; a reverse adjacency structure is kept alongside the
    /// forward one.
    Directed,
}

/// A weighted graph in CSR form.
///
/// Construct one through [`crate::GraphBuilder`], a generator in
/// [`crate::generators`], or one of the readers in [`crate::io`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    kind: GraphKind,
    num_vertices: usize,
    /// Number of *logical* edges: undirected edges are counted once, directed
    /// edges once each.
    num_edges: usize,
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    /// Reverse adjacency (directed graphs only; empty for undirected graphs).
    rev_offsets: Vec<usize>,
    rev_targets: Vec<VertexId>,
    rev_weights: Vec<Weight>,
}

impl CsrGraph {
    /// Builds a CSR graph directly from adjacency arrays. `adjacency[u]` must
    /// list the out-neighbors of `u`. This is the low-level constructor used
    /// by [`crate::GraphBuilder`]; it assumes the adjacency is already clean
    /// (no self loops, no duplicates, positive weights).
    pub(crate) fn from_adjacency(
        kind: GraphKind,
        adjacency: Vec<Vec<(VertexId, Weight)>>,
        num_logical_edges: usize,
    ) -> Self {
        let num_vertices = adjacency.len();
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let total: usize = adjacency.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        offsets.push(0);
        for nbrs in &adjacency {
            for &(t, w) in nbrs {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len());
        }

        let (rev_offsets, rev_targets, rev_weights) = match kind {
            GraphKind::Undirected => (Vec::new(), Vec::new(), Vec::new()),
            GraphKind::Directed => Self::reverse_adjacency(num_vertices, &adjacency),
        };

        CsrGraph {
            kind,
            num_vertices,
            num_edges: num_logical_edges,
            offsets,
            targets,
            weights,
            rev_offsets,
            rev_targets,
            rev_weights,
        }
    }

    fn reverse_adjacency(
        num_vertices: usize,
        adjacency: &[Vec<(VertexId, Weight)>],
    ) -> (Vec<usize>, Vec<VertexId>, Vec<Weight>) {
        let mut in_degree = vec![0usize; num_vertices];
        for nbrs in adjacency {
            for &(t, _) in nbrs {
                in_degree[t as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0usize);
        for v in 0..num_vertices {
            offsets.push(offsets[v] + in_degree[v]);
        }
        let total = offsets[num_vertices];
        let mut targets = vec![0 as VertexId; total];
        let mut weights = vec![0 as Weight; total];
        let mut cursor = offsets.clone();
        for (u, nbrs) in adjacency.iter().enumerate() {
            for &(t, w) in nbrs {
                let slot = cursor[t as usize];
                targets[slot] = u as VertexId;
                weights[slot] = w;
                cursor[t as usize] += 1;
            }
        }
        (offsets, targets, weights)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of logical edges (undirected edges counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the graph is directed or undirected.
    #[inline]
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// `true` when the graph stores no vertices at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices == 0
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices as VertexId
    }

    /// Out-degree of `v` (degree for undirected graphs).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// In-degree of `v`. Equals [`Self::degree`] for undirected graphs.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        match self.kind {
            GraphKind::Undirected => self.degree(v),
            GraphKind::Directed => {
                let v = v as usize;
                self.rev_offsets[v + 1] - self.rev_offsets[v]
            }
        }
    }

    /// Out-neighbors of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// In-neighbors of `v` with edge weights. For undirected graphs this is
    /// the same set as [`Self::neighbors`].
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let v = v as usize;
        let (offsets, targets, weights) = match self.kind {
            GraphKind::Undirected => (&self.offsets, &self.targets, &self.weights),
            GraphKind::Directed => (&self.rev_offsets, &self.rev_targets, &self.rev_weights),
        };
        let range = offsets[v]..offsets[v + 1];
        targets[range.clone()]
            .iter()
            .copied()
            .zip(weights[range].iter().copied())
    }

    /// Returns the weight of edge `(u, v)` if it exists (out-direction).
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.neighbors(u).find(|&(t, _)| t == v).map(|(_, w)| w)
    }

    /// Iterates all logical edges. For undirected graphs each edge is yielded
    /// once with `u <= v`; for directed graphs each stored arc is yielded.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).filter_map(move |(v, w)| match self.kind {
                GraphKind::Undirected => {
                    if u <= v {
                        Some(Edge::new(u, v, w))
                    } else {
                        None
                    }
                }
                GraphKind::Directed => Some(Edge::new(u, v, w)),
            })
        })
    }

    /// Sum of all logical edge weights.
    pub fn total_weight(&self) -> Distance {
        self.edges().map(|e| e.w as Distance).sum()
    }

    /// Maximum edge weight, or `None` for an edgeless graph.
    pub fn max_weight(&self) -> Option<Weight> {
        self.weights.iter().copied().max()
    }

    /// Approximate in-memory size of the CSR arrays in bytes. Used by the
    /// cluster-memory accounting in the distributed crates.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.len() * size_of::<usize>()
            + self.targets.len() * size_of::<VertexId>()
            + self.weights.len() * size_of::<Weight>()
            + self.rev_offsets.len() * size_of::<usize>()
            + self.rev_targets.len() * size_of::<VertexId>()
            + self.rev_weights.len() * size_of::<Weight>()
    }

    /// Returns a new graph with the same topology where every weight is 1.
    pub fn unweighted_clone(&self) -> CsrGraph {
        let mut g = self.clone();
        g.weights.iter_mut().for_each(|w| *w = 1);
        g.rev_weights.iter_mut().for_each(|w| *w = 1);
        g
    }

    /// Builds the induced subgraph on `keep` (a set of vertex ids), relabeling
    /// vertices densely in the order they appear in `keep`. Returns the
    /// subgraph and the mapping from new id to original id.
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (CsrGraph, Vec<VertexId>) {
        let mut new_id = vec![VertexId::MAX; self.num_vertices];
        for (new, &old) in keep.iter().enumerate() {
            new_id[old as usize] = new as VertexId;
        }
        let mut adjacency: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); keep.len()];
        let mut logical_edges = 0usize;
        for (new_u, &old_u) in keep.iter().enumerate() {
            for (old_v, w) in self.neighbors(old_u) {
                let new_v = new_id[old_v as usize];
                if new_v == VertexId::MAX {
                    continue;
                }
                adjacency[new_u].push((new_v, w));
                match self.kind {
                    GraphKind::Undirected => {
                        if (new_u as VertexId) <= new_v {
                            logical_edges += 1;
                        }
                    }
                    GraphKind::Directed => logical_edges += 1,
                }
            }
        }
        (
            CsrGraph::from_adjacency(self.kind, adjacency, logical_edges),
            keep.to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 0, 3);
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors_on_triangle() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.kind(), GraphKind::Undirected);
        assert!(!g.is_empty());
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.in_degree(0), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(1, 0), Some(1));
        assert_eq!(g.edge_weight(0, 0), None);
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.max_weight(), Some(3));
    }

    #[test]
    fn undirected_edges_listed_once() {
        let g = triangle();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(e.u <= e.v);
        }
    }

    #[test]
    fn directed_graph_has_reverse_adjacency() {
        let mut b = GraphBuilder::new_directed();
        b.add_edge(0, 1, 5);
        b.add_edge(0, 2, 7);
        b.add_edge(2, 1, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(1), 2);
        let in1: Vec<_> = g.in_neighbors(1).collect();
        assert!(in1.contains(&(0, 5)));
        assert!(in1.contains(&(2, 1)));
        // Forward direction must not contain the reverse arc.
        assert_eq!(g.edge_weight(1, 0), None);
    }

    #[test]
    fn unweighted_clone_sets_all_weights_to_one() {
        let g = triangle().unweighted_clone();
        assert!(g.edges().all(|e| e.w == 1));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn induced_subgraph_relabels_and_filters() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 3);
        b.add_edge(3, 0, 4);
        let g = b.build().unwrap();
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(map, vec![1, 2, 3]);
        // Edges 1-2 and 2-3 survive; 0-1 and 3-0 are dropped.
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.edge_weight(0, 1), Some(2));
        assert_eq!(sub.edge_weight(1, 2), Some(3));
    }

    #[test]
    fn memory_bytes_is_positive_and_scales() {
        let small = triangle();
        let mut b = GraphBuilder::new_undirected();
        for i in 0..100u32 {
            b.add_edge(i, (i + 1) % 100, 1);
        }
        let big = b.build().unwrap();
        assert!(small.memory_bytes() > 0);
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn empty_graph_behaves() {
        let b = GraphBuilder::new_undirected();
        let g = b.build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.total_weight(), 0);
        assert_eq!(g.max_weight(), None);
    }
}
