//! Shared-memory paraPLL (Qiu et al.) — the paper's `SparaPLL` baseline.
//!
//! Worker threads repeatedly pop the most important unprocessed vertex from a
//! shared counter and run pruned Dijkstra from it, *without* rank queries.
//! Because several SPTs are in flight concurrently, a tree rooted at a less
//! important vertex may label vertices that a still-running more important
//! tree would have covered; the resulting labeling satisfies the cover
//! property (queries stay exact) but is **not** canonical: it contains
//! redundant labels and its size grows with the number of threads — exactly
//! the behaviour the paper criticizes in §3 and Table 3 / Figure 9.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::config::LabelingConfig;
use crate::index::{HubLabelIndex, LabelingResult};
use crate::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch, PruneOptions};
use crate::stats::ConstructionStats;
use crate::table::ConcurrentLabelTable;

/// Runs shared-memory paraPLL with `config.num_threads` workers.
///
/// Thin wrapper over [`crate::api::SParaPllLabeler`]; panics on invalid
/// inputs. Prefer [`crate::api::ChlBuilder`] in new code.
pub fn spara_pll(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::SParaPllLabeler
        .build(g, ranking, config)
        .unwrap_or_else(|e| panic!("spara_pll: {e}"))
}

pub(crate) fn spara_pll_impl(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
) -> LabelingResult {
    let start = Instant::now();
    let n = g.num_vertices();
    let threads = config.effective_threads().max(1);
    let table = ConcurrentLabelTable::new(n);
    let next_root = AtomicU32::new(0);
    // Each worker takes these locks once, for one extend or add, so a
    // poisoned lock still holds whole values; poisoning is ignored and a
    // worker's panic propagates out of the thread scope.
    let records = Mutex::new(Vec::with_capacity(n));
    let query_count = Mutex::new(0usize);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = DijkstraScratch::new(n);
                let opts = PruneOptions {
                    rank_query: false,
                    ..Default::default()
                };
                let mut local_records = Vec::new();
                let mut local_queries = 0usize;
                loop {
                    // ORDERING: root claiming — the fetch_add's RMW
                    // atomicity alone makes positions unique; results are
                    // published via the records mutex and the scope join.
                    let pos = next_root.fetch_add(1, Ordering::Relaxed);
                    if pos as usize >= n {
                        break;
                    }
                    let root = ranking.vertex_at(pos);
                    let (record, queries) =
                        pruned_dijkstra(g, ranking, root, &table, opts, &mut scratch);
                    local_records.push(record);
                    local_queries += queries;
                }
                records
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local_records);
                *query_count.lock().unwrap_or_else(PoisonError::into_inner) += local_queries;
            });
        }
    });

    let mut stats = ConstructionStats::new("SparaPLL");
    stats.threads = threads;
    stats.spt_records = records.into_inner().unwrap_or_else(PoisonError::into_inner);
    stats.distance_queries = query_count
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    stats.construction_time = start.elapsed();
    stats.total_time = start.elapsed();

    let index = HubLabelIndex::new(table.into_label_sets(), ranking.clone())
        .expect("constructor produced one label set per vertex");
    stats.labels_before_cleaning = index.total_labels();
    stats.labels_after_cleaning = index.total_labels();
    LabelingResult { index, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi};
    use chl_graph::sssp::dijkstra;
    use chl_ranking::degree_ranking;

    #[test]
    fn queries_are_exact_despite_concurrency() {
        let g = erdos_renyi(80, 0.06, 16, 3);
        let ranking = degree_ranking(&g);
        let result = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(4));
        for src in [0u32, 11, 55] {
            let d = dijkstra(&g, src);
            for v in 0..80u32 {
                assert_eq!(result.index.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn label_count_is_at_least_canonical() {
        let g = barabasi_albert(150, 3, 9);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index.total_labels();
        let parallel = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(8))
            .index
            .total_labels();
        assert!(parallel >= canonical);
    }

    #[test]
    fn single_thread_matches_sequential_pll_exactly() {
        let g = erdos_renyi(50, 0.1, 8, 21);
        let ranking = degree_ranking(&g);
        let seq = sequential_pll(&g, &ranking);
        let par = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(1));
        assert_eq!(seq.index, par.index);
    }

    #[test]
    fn stats_cover_all_spts() {
        let g = erdos_renyi(40, 0.1, 4, 2);
        let ranking = degree_ranking(&g);
        let result = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(3));
        assert_eq!(result.stats.spt_records.len(), 40);
        assert_eq!(result.stats.threads, 3);
        assert_eq!(result.stats.algorithm, "SparaPLL");
    }
}
