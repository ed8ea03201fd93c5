//! The seeded query pool and its ground truth.
//!
//! Pairs are drawn from the run's seed alone. Their sources come from a
//! seeded set of [`ORIGINS`] vertices, so one Dijkstra tree per origin
//! (`chl_graph::sssp::dijkstra`, the reference the test suites also use)
//! yields the exact distance of every pair in the pool, and every answer
//! the server returns is checked, not a sample of them.

use chl_graph::csr::CsrGraph;
use chl_graph::sssp::dijkstra;
use chl_graph::types::{Distance, VertexId};

/// Distinct query origins per pool.
pub const ORIGINS: usize = 512;

/// Pairs per pool; the load cycles through them in order.
pub const POOL_PAIRS: usize = 1 << 16;

/// SplitMix64: a tiny seeded generator whose stream depends on nothing but
/// the seed, so the same seed gives the same pairs in every build.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator over `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Query pairs with their Dijkstra distances.
#[derive(Debug)]
pub struct Pool {
    /// The pairs, in the order the load sends them.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// `truth[i]` is the exact distance of `pairs[i]`.
    pub truth: Vec<Distance>,
}

impl Pool {
    /// Draws the pool for `seed` over `g` and computes its ground truth on
    /// `threads` threads.
    pub fn new(g: &CsrGraph, seed: u64, threads: usize) -> Pool {
        let n = g.num_vertices();
        let mut rng = SplitMix::new(seed ^ 0x05EE_D0F0_A1C5);
        let origins: Vec<VertexId> = (0..ORIGINS).map(|_| rng.below(n) as VertexId).collect();
        let mut by_origin: Vec<Vec<usize>> = vec![Vec::new(); ORIGINS];
        let pairs: Vec<(VertexId, VertexId)> = (0..POOL_PAIRS)
            .map(|i| {
                let o = rng.below(ORIGINS);
                by_origin[o].push(i);
                (origins[o], rng.below(n) as VertexId)
            })
            .collect();

        let mut truth = vec![0; POOL_PAIRS];
        let threads = threads.max(1);
        let chunk = ORIGINS.div_ceil(threads);
        let parts: Vec<Vec<(usize, Distance)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (origins, by_origin, pairs) = (&origins, &by_origin, &pairs);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for o in (t * chunk)..((t + 1) * chunk).min(ORIGINS) {
                            let row = dijkstra(g, origins[o]);
                            for &i in &by_origin[o] {
                                out.push((i, row[pairs[i].1 as usize]));
                            }
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a Dijkstra worker panicked"))
                .collect()
        });
        for (i, d) in parts.into_iter().flatten() {
            truth[i] = d;
        }
        Pool { pairs, truth }
    }

    /// The `len` pairs starting at pool position `start`, wrapping around.
    pub fn positions(&self, start: usize, len: usize) -> impl Iterator<Item = usize> {
        let p = self.pairs.len();
        (0..len).map(move |k| (start + k) % p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::generators::barabasi_albert;

    #[test]
    fn same_seed_same_pool_and_truth_matches_dijkstra() {
        let g = barabasi_albert(300, 3, 5);
        let a = Pool::new(&g, 9, 2);
        let b = Pool::new(&g, 9, 1);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.pairs, Pool::new(&g, 10, 2).pairs);
        for i in [0, 17, POOL_PAIRS - 1] {
            let (u, v) = a.pairs[i];
            assert_eq!(a.truth[i], dijkstra(&g, u)[v as usize]);
        }
    }
}
