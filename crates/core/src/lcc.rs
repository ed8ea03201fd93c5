//! LCC — Label Construction and Cleaning (Algorithm 2 of the paper).
//!
//! LCC treats the simultaneous construction of many SPTs as an *optimistic*
//! parallelization of PLL: worker threads claim roots in rank order and run
//! pruned Dijkstra **with rank queries** concurrently. Rank queries guarantee
//! two invariants the later cleaning pass depends on:
//!
//! * a vertex is only ever labeled by hubs at least as important as itself,
//! * the resulting labeling satisfies the cover property and *respects* the
//!   hierarchy (Claim 1).
//!
//! The optimistic phase may still insert labels that are not canonical; a
//! single cleaning pass (Lemma 2) removes exactly those, leaving the CHL.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::cleaning::clean_labels;
use crate::config::LabelingConfig;
use crate::index::{HubLabelIndex, LabelingResult};
use crate::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch, PruneOptions};
use crate::stats::ConstructionStats;
use crate::table::ConcurrentLabelTable;

/// Runs the two-phase LCC algorithm and returns the Canonical Hub Labeling.
///
/// Thin wrapper over [`crate::api::LccLabeler`]; panics on invalid inputs.
/// Prefer [`crate::api::ChlBuilder`] in new code.
pub fn lcc(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::LccLabeler
        .build(g, ranking, config)
        .unwrap_or_else(|e| panic!("lcc: {e}"))
}

pub(crate) fn lcc_impl(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
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

    // Phase LCC-I: optimistic parallel label construction with rank queries.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = DijkstraScratch::new(n);
                let opts = PruneOptions {
                    rank_query: true,
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
    let construction_time = start.elapsed();

    // Phase LCC-II: sort the label sets and delete every redundant label.
    // The rayon-parallel cleaning pass is pinned to the configured thread
    // count so `--threads` caps the whole build, not just phase I.
    let constructed = table.into_label_sets();
    let labels_before: usize = constructed.iter().map(|s| s.len()).sum();
    let clean_start = Instant::now();
    let clean_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let (cleaned, _removed) = clean_pool.install(|| clean_labels(&constructed, ranking));
    let cleaning_time = clean_start.elapsed();

    let index = HubLabelIndex::new(cleaned, ranking.clone())
        .expect("constructor produced one label set per vertex");
    let mut stats = ConstructionStats::new("LCC");
    stats.threads = threads;
    stats.spt_records = records.into_inner().unwrap_or_else(PoisonError::into_inner);
    stats.distance_queries = query_count
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    stats.construction_time = construction_time;
    stats.cleaning_time = cleaning_time;
    stats.total_time = start.elapsed();
    stats.labels_before_cleaning = labels_before;
    stats.labels_after_cleaning = index.total_labels();
    LabelingResult { index, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi, grid_network, GridOptions};
    use chl_graph::sssp::dijkstra;
    use chl_ranking::degree_ranking;

    #[test]
    fn lcc_produces_the_canonical_labeling() {
        let g = erdos_renyi(70, 0.08, 16, 11);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let parallel = lcc(&g, &ranking, &LabelingConfig::default().with_threads(4)).index;
        assert_eq!(canonical, parallel);
    }

    #[test]
    fn lcc_on_road_like_graph_matches_pll() {
        let g = grid_network(
            &GridOptions {
                rows: 9,
                cols: 8,
                ..GridOptions::default()
            },
            17,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 24,
                degree_tiebreak: true,
            },
            3,
        );
        let canonical = sequential_pll(&g, &ranking).index;
        let parallel = lcc(&g, &ranking, &LabelingConfig::default().with_threads(8)).index;
        assert_eq!(canonical, parallel);
    }

    #[test]
    fn lcc_queries_match_dijkstra_on_scale_free_graph() {
        let g = barabasi_albert(160, 3, 21);
        let ranking = degree_ranking(&g);
        let result = lcc(&g, &ranking, &LabelingConfig::default().with_threads(6));
        for src in [0u32, 40, 120] {
            let d = dijkstra(&g, src);
            for v in 0..160u32 {
                assert_eq!(result.index.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn stats_report_both_phases() {
        let g = erdos_renyi(50, 0.1, 8, 5);
        let ranking = degree_ranking(&g);
        let result = lcc(&g, &ranking, &LabelingConfig::default().with_threads(4));
        assert!(result.stats.labels_before_cleaning >= result.stats.labels_after_cleaning);
        assert_eq!(
            result.stats.labels_after_cleaning,
            result.index.total_labels()
        );
        assert_eq!(result.stats.spt_records.len(), 50);
        assert_eq!(result.stats.algorithm, "LCC");
        assert!(result.stats.total_time >= result.stats.cleaning_time);
    }

    #[test]
    fn disconnected_graph_is_handled() {
        let mut b = chl_graph::GraphBuilder::new_undirected();
        b.add_edge(0, 1, 3);
        b.add_edge(2, 3, 4);
        b.ensure_vertices(5);
        let g = b.build().unwrap();
        let ranking = degree_ranking(&g);
        let result = lcc(&g, &ranking, &LabelingConfig::default().with_threads(2));
        assert_eq!(result.index.query(0, 1), 3);
        assert_eq!(result.index.query(0, 3), chl_graph::types::INFINITY);
        assert_eq!(result.index.query(4, 0), chl_graph::types::INFINITY);
        assert_eq!(result.index.query(4, 4), 0);
    }
}
