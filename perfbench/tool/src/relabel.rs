//! Seeded vertex relabeling. A workload generates one fixed graph and the
//! run's seed may renumber its vertices: every run serves the same shape
//! of graph (so sizes and build costs do not swing with the seed the way
//! a fresh scale-free draw does), while vertex ids, and with them memory
//! layout, tie-breaks in the ranking and the query pairs, change per seed.

use chl_graph::builder::GraphBuilder;
use chl_graph::csr::CsrGraph;
use chl_graph::types::VertexId;

use crate::pool::SplitMix;

/// A uniformly random permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SplitMix::new(seed);
    let mut p: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// `g` with vertex `v` renamed `perm[v]`.
pub fn relabel(g: &CsrGraph, perm: &[VertexId]) -> Result<CsrGraph, String> {
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(g.num_vertices());
    for e in g.edges() {
        b.add_edge(perm[e.u as usize], perm[e.v as usize], e.w);
    }
    b.build().map_err(|e| format!("relabel: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::generators::barabasi_albert;
    use chl_graph::sssp::dijkstra;

    #[test]
    fn relabeling_preserves_every_distance() {
        let g = barabasi_albert(200, 3, 4);
        let perm = permutation(200, 7);
        let mut seen = perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
        let h = relabel(&g, &perm).unwrap();
        assert_eq!(h.num_edges(), g.num_edges());
        for u in [0u32, 13, 199] {
            let (dg, dh) = (dijkstra(&g, u), dijkstra(&h, perm[u as usize]));
            for v in 0..200 {
                assert_eq!(dg[v], dh[perm[v] as usize]);
            }
        }
        assert_ne!(permutation(200, 7), permutation(200, 8));
    }
}
