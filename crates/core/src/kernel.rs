//! Tiered PPSD merge-join kernels and the hot-hub distance cache.
//!
//! Every distance query in the workspace reduces to one operation: given the
//! hub-sorted label runs of `u` and `v`, find the minimum
//! `d(u,h) + d(v,h)` over common hubs `h` (and the first hub achieving it).
//! The reference implementation is the branchy two-pointer iterator join in
//! [`crate::labels::join_sorted_iters`]; this module supplies drop-in
//! replacements over plain `&[LabelEntry]` slices that trade generality for
//! throughput, plus the dispatch that picks between them:
//!
//! * [`join_branchless`] — two-pointer scan with conditional-move advance
//!   and a branchless best-accumulator: no per-step `Option` matching, no
//!   data-dependent branches in the loop body.
//! * [`join_scalar`] — the seed's branchy two-pointer loop over slices;
//!   still the fastest tier for medium similar-length runs, where branch
//!   speculation overlaps the label-run cache misses.
//! * [`join_gallop`] — exponential search of the longer run for each entry
//!   of the shorter one; selected when the runs' lengths differ by
//!   [`GALLOP_FACTOR`] or more (hub vertices carry runs orders of magnitude
//!   longer than leaf vertices).
//! * [`join_adaptive`] — the tier selector [`crate::flat::LabelView`] calls
//!   for every decoded (slice-backed) storage; streaming compressed runs
//!   keep the iterator kernel.
//!
//! All tiers return **exactly** what the reference join returns — same
//! `Option`, same hub on ties (the first, i.e. highest-ranked, hub achieving
//! the minimal sum), same `Distance::MAX` saturation — a property pinned
//! down by the differential proptests in `tests/proptest_kernels.rs`.
//!
//! [`HotHubCache`] is the query-side complement: hub labelings concentrate
//! query hits on the few best-ranked hubs, so a read-mostly cache of the
//! top-`k` hubs' full distance rows answers the head of the join with two
//! array loads per hub and leaves only the tail (`hub >= k`) to the merge
//! join. [`HotHubCached`] wraps any slice-viewable oracle with one.

use chl_graph::types::{Distance, VertexId, INFINITY};

use crate::flat::{FlatIndex, IndexView, LabelStorage, LabelView, StorageView};
use crate::labels::LabelEntry;
use crate::mapped::MmapIndex;
use crate::oracle::DistanceOracle;

/// Length ratio at which [`join_adaptive`] switches from block scanning to
/// galloping: the longer run must be at least this many times the shorter.
///
/// Label-run length distributions are heavily skewed (see
/// `chl inspect --histogram` percentiles): the top-ranked hub's run covers
/// most of the graph while leaf runs hold a handful of entries, so skewed
/// pairs are common and galloping turns them from O(long) into
/// O(short · log long).
pub const GALLOP_FACTOR: usize = 16;

/// Longer-run length below which [`join_adaptive`] takes the branchless
/// scan: on runs this short everything is cache-resident, so its
/// conditional-move loop beats the branchy join's mispredictions.
const BRANCHLESS_MAX: usize = 16;

/// The running best of a merge join: first (highest-ranked) hub achieving
/// the strictly minimal `d(u,h) + d(v,h)` seen so far.
///
/// `found` is tracked separately from the distance because `Distance::MAX`
/// is a legitimate saturated sum — the reference join can return
/// `Some((h, MAX))` — so `MAX` cannot double as the "nothing yet" sentinel.
#[derive(Clone, Copy)]
struct Best {
    found: bool,
    hub: u32,
    dist: Distance,
}

impl Best {
    #[inline(always)]
    fn new() -> Best {
        Best {
            found: false,
            hub: 0,
            dist: INFINITY,
        }
    }

    /// Folds one common-hub hit in, branchlessly, with the reference join's
    /// exact tie-break: a later hub replaces the best only on a strictly
    /// smaller sum.
    #[inline(always)]
    fn update(&mut self, hub: u32, total: Distance) {
        let take = !self.found | (total < self.dist);
        self.hub = if take { hub } else { self.hub };
        self.dist = if take { total } else { self.dist };
        self.found = true;
    }

    #[inline(always)]
    fn into_option(self) -> Option<(u32, Distance)> {
        if self.found {
            Some((self.hub, self.dist))
        } else {
            None
        }
    }
}

/// Branchless two-pointer merge join over hub-sorted slices. Equivalent to
/// [`crate::labels::join_sorted_slices`] on every input (both runs sorted
/// strictly ascending by hub).
pub fn join_branchless(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
    let mut best = Best::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        // SAFETY: `i < a.len()` holds by the loop condition just checked.
        let x = unsafe { *a.get_unchecked(i) };
        // SAFETY: `j < b.len()` holds by the loop condition just checked.
        let y = unsafe { *b.get_unchecked(j) };
        let total = x.dist.saturating_add(y.dist);
        let eq = x.hub == y.hub;
        let take = eq & (!best.found | (total < best.dist));
        best.hub = if take { x.hub } else { best.hub };
        best.dist = if take { total } else { best.dist };
        best.found |= eq;
        // <= / >= advance both pointers on a hub match and exactly one
        // otherwise — the whole step compiles to conditional moves.
        i += usize::from(x.hub <= y.hub);
        j += usize::from(y.hub <= x.hub);
    }
    best.into_option()
}

/// Branchy two-pointer merge join over slices — the seed algorithm, kept as
/// its own tier. On medium, similar-length runs this stays the fastest
/// variant under a memory-bound serving profile: the branches let the CPU
/// speculate several iterations ahead and overlap the label-run cache
/// misses, which the data-dependent conditional-move advance of
/// [`join_branchless`] serializes into a latency chain (measured in
/// `crates/bench/examples/hot_hub_tuning.rs`).
#[inline]
pub fn join_scalar(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
    crate::labels::join_sorted_iters(a.iter().copied(), b.iter().copied())
}

/// Galloping (exponential-search) merge join for length-skewed runs: each
/// entry of the shorter run probes the longer one with a doubling search
/// followed by a binary search of the bracketed window, so the cost is
/// `O(short · log long)` instead of `O(short + long)`.
pub fn join_gallop(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
    // Swapping the sides never changes the answer: the common-hub set and
    // the per-hub sums are symmetric, and matches are still visited in
    // ascending hub order, so the tie-break picks the same hub.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut best = Best::new();
    let mut base = 0usize;
    for x in small {
        let Some(rest) = large.get(base..) else {
            break;
        };
        let Some(first) = rest.first() else {
            break;
        };
        // Find `p`, the index in `rest` of the first hub >= x.hub.
        let p = if first.hub >= x.hub {
            0
        } else {
            // Invariant: rest[lo].hub < x.hub; double until the window
            // (lo, hi] brackets the boundary or runs off the end.
            let mut lo = 0usize;
            let mut hi = 1usize;
            while rest.get(hi).is_some_and(|e| e.hub < x.hub) {
                lo = hi;
                hi <<= 1;
            }
            let win = rest.get(lo + 1..hi.min(rest.len())).unwrap_or_default();
            lo + 1 + win.partition_point(|e| e.hub < x.hub)
        };
        match rest.get(p) {
            Some(y) if y.hub == x.hub => {
                best.update(x.hub, x.dist.saturating_add(y.dist));
                base += p + 1;
            }
            Some(_) => base += p,
            // Every remaining hub of `large` is below x.hub; later probes
            // only grow, so no further match is possible.
            None => break,
        }
    }
    best.into_option()
}

/// The tier selector: the merge join [`crate::flat::LabelView`] (and, via
/// [`crate::labels::join_sorted_slices`], the pointer-per-vertex
/// [`crate::labels::LabelSet`]) runs for every slice-backed storage.
///
/// Selection uses only the two lengths: heavily skewed pairs gallop, short
/// runs take the branchless scan (its conditional-move loop beats branch
/// mispredictions when everything is cache-resident), and medium-and-up
/// similar-length runs keep the branchy scalar join, whose speculation
/// overlaps the label-run cache misses.
#[inline]
pub fn join_adaptive(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
    let (s, l) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    if s == 0 {
        return None;
    }
    if l >= s.saturating_mul(GALLOP_FACTOR) {
        return join_gallop(a, b);
    }
    if l < BRANCHLESS_MAX {
        return join_branchless(a, b);
    }
    join_scalar(a, b)
}

/// Read-mostly cache of the top-`k` highest-ranked hubs' full distance
/// rows: `stripe(v)[h] = d(v, h)` for every vertex `v` labeled with hub
/// position `h < k`, `INFINITY` where the label is absent.
///
/// Hub labelings concentrate query traffic on the best-ranked hubs — the
/// rank-0 hub appears in almost every label set — so the head of most merge
/// joins (hubs `< k`) can be answered with `2k` array loads and a running
/// min, no merging at all. The tail (`hubs >= k`) still goes through
/// [`join_adaptive`]; [`LabelView::query_cached`] combines the two.
///
/// Storage is **vertex-major**: vertex `v`'s `k` cached distances are one
/// contiguous stripe, so a query touches two cache-line-sized stripes
/// instead of gathering one element from each of `k` hub rows spread
/// across `8·k·n` bytes (the hub-major layout missed cache on every load).
///
/// The cache costs `8 · k · n` bytes and is immutable after build: serving
/// tiers rebuild it on hot reload (see `chl serve`), which is what keeps it
/// coherent with the index snapshot it was built from.
#[derive(Debug, Clone)]
pub struct HotHubCache {
    /// Hub rank positions `0..k` are cached.
    k: u32,
    /// Stripe count (the index's global vertex count).
    n: usize,
    /// `n` stripes of `k` distances each, vertex-major.
    stripes: Box<[Distance]>,
}

impl HotHubCache {
    /// Builds the cache for the top-`k` hub positions of `view` (clamped to
    /// the vertex count: an index cannot have more hubs than vertices).
    pub fn build(view: &IndexView<'_>, k: u32) -> HotHubCache {
        match &view.storage {
            StorageView::Flat(v) => HotHubCache::build_from(v, k),
            StorageView::Compressed(v) => HotHubCache::build_from(v, k),
        }
    }

    /// Builds the cache from any storage-generic label view: one pass over
    /// each vertex's run prefix (runs are hub-sorted, so the `hub < k`
    /// prefix is all that is ever read).
    pub fn build_from<'a, S: LabelStorage<'a>>(view: &LabelView<'a, S>, k: u32) -> HotHubCache {
        let n = view.num_vertices();
        let k = (k as u64).min(n as u64) as u32;
        let mut stripes = vec![INFINITY; k as usize * n].into_boxed_slice();
        for v in 0..n as VertexId {
            let Some(run) = view.label_run(v) else {
                continue;
            };
            for e in run {
                if e.hub >= k {
                    break;
                }
                if let Some(slot) = stripes.get_mut(v as usize * k as usize + e.hub as usize) {
                    *slot = e.dist;
                }
            }
        }
        HotHubCache { k, n, stripes }
    }

    /// Number of hub positions cached (after clamping).
    pub fn top_k(&self) -> u32 {
        self.k
    }

    /// Vertex count the stripes were built for.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Heap bytes held by the distance stripes.
    pub fn memory_bytes(&self) -> usize {
        self.stripes.len() * std::mem::size_of::<Distance>()
    }

    /// Cached distance from `v` to hub position `h`, `INFINITY` when the
    /// label is absent or either id is out of range.
    #[inline]
    pub fn hub_distance(&self, h: u32, v: VertexId) -> Distance {
        if h >= self.k {
            return INFINITY;
        }
        self.stripes
            .get(v as usize * self.k as usize + h as usize)
            .copied()
            .unwrap_or(INFINITY)
    }

    /// Minimum `d(u,h) + d(v,h)` over the cached hubs, `INFINITY` when no
    /// cached hub covers the pair (absent labels are stored as `INFINITY`,
    /// which the saturating add absorbs). Out-of-range ids are `INFINITY`.
    #[inline]
    pub fn min_over_hot(&self, u: VertexId, v: VertexId) -> Distance {
        let (u, v) = (u as usize, v as usize);
        let k = self.k as usize;
        if u >= self.n || v >= self.n || k == 0 {
            return INFINITY;
        }
        // SAFETY: `u < n`, `v < n` were checked above and the stripes
        // buffer holds exactly `n * k` elements, so both ranges
        // `[x*k, x*k + k)` are in bounds.
        let (su, sv) = unsafe {
            (
                self.stripes.get_unchecked(u * k..u * k + k),
                self.stripes.get_unchecked(v * k..v * k + k),
            )
        };
        let mut bestv = INFINITY;
        for (du, dv) in su.iter().zip(sv) {
            let total = du.saturating_add(*dv);
            bestv = if total < bestv { total } else { bestv };
        }
        bestv
    }
}

/// Anything that can lend out a borrowed, runtime-dispatched [`IndexView`]
/// — the hook [`HotHubCached`] uses to build its cache and route queries.
pub trait ViewSource: Sync {
    /// A borrowed view of the underlying index.
    fn index_view(&self) -> IndexView<'_>;
}

impl ViewSource for FlatIndex {
    fn index_view(&self) -> IndexView<'_> {
        self.as_index_view()
    }
}

impl ViewSource for MmapIndex {
    fn index_view(&self) -> IndexView<'_> {
        self.view()
    }
}

/// A [`DistanceOracle`] adapter that consults a [`HotHubCache`] before the
/// merge join: `chl query --hot-hubs k` wraps its backend in one, and the
/// serving tier embeds the same cache in its reloadable snapshot.
pub struct HotHubCached<O> {
    inner: O,
    cache: HotHubCache,
}

impl<O: ViewSource> HotHubCached<O> {
    /// Builds the top-`k` cache from `inner`'s current view and wraps it.
    pub fn new(inner: O, k: u32) -> HotHubCached<O> {
        let cache = HotHubCache::build(&inner.index_view(), k);
        HotHubCached { inner, cache }
    }

    /// The cache being consulted.
    pub fn cache(&self) -> &HotHubCache {
        &self.cache
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps, dropping the cache.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: ViewSource + DistanceOracle> DistanceOracle for HotHubCached<O> {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.inner.index_view().query_cached(&self.cache, u, v)
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.cache.memory_bytes()
    }
}

/// Hub-side pivoted evaluation of an S×T distance block, row-major —
/// the override behind [`DistanceOracle::matrix`] on every label-backed
/// oracle. Instead of |S|·|T| independent merge joins, the targets' label
/// unions are gathered **once** into a hub-sorted pool of
/// `(hub, column, distance)` triples; each source row then walks its own
/// run and relaxes only the pool slice of each hub it actually carries —
/// `O(|L(s)| + hits)` per row rather than `O(Σ_t(|L(s)| + |L(t)|))`. Rows
/// fan out across the rayon pool.
///
/// Answers are exactly [`LabelView::query`] per cell: same saturating adds,
/// same `INFINITY` for disconnected/out-of-range cells, and the same
/// `s == t → 0` self-distance rule (which on a shard file applies to
/// foreign vertices too, matching the shard-blind point query).
pub(crate) fn matrix_pivot<'a, S: LabelStorage<'a>>(
    view: &LabelView<'a, S>,
    sources: &[VertexId],
    targets: &[VertexId],
) -> Vec<Distance> {
    use rayon::prelude::*;

    let n = view.num_vertices();
    let cols = targets.len();
    // Pool every target label once: (hub position, column, distance),
    // sorted by (hub, column). Out-of-range targets contribute nothing and
    // therefore stay INFINITY in every row.
    let mut pool: Vec<(u32, u32, Distance)> = Vec::new();
    for (j, &t) in targets.iter().enumerate() {
        if let Some(run) = view.label_run(t) {
            pool.extend(run.map(|e| (e.hub, j as u32, e.dist)));
        }
    }
    pool.sort_unstable_by_key(|&(h, j, _)| (h, j));

    let rows: Vec<Vec<Distance>> = sources
        .par_iter()
        .map(|&s| {
            let mut row = vec![INFINITY; cols];
            if let Some(run) = view.label_run(s) {
                for e in run {
                    let lo = pool.partition_point(|&(h, _, _)| h < e.hub);
                    for &(h, j, d) in pool.iter().skip(lo) {
                        if h != e.hub {
                            break;
                        }
                        let cand = e.dist.saturating_add(d);
                        if let Some(cell) = row.get_mut(j as usize) {
                            if cand < *cell {
                                *cell = cand;
                            }
                        }
                    }
                }
            }
            if (s as usize) < n {
                for (cell, &t) in row.iter_mut().zip(targets) {
                    if t == s {
                        *cell = 0;
                    }
                }
            }
            row
        })
        .collect();
    let mut out = Vec::with_capacity(sources.len() * cols);
    for row in rows {
        out.extend(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::join_sorted_slices;

    fn run(entries: &[(u32, Distance)]) -> Vec<LabelEntry> {
        entries
            .iter()
            .map(|&(h, d)| LabelEntry::new(h, d))
            .collect()
    }

    fn reference(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
        crate::labels::join_sorted_iters(a.iter().copied(), b.iter().copied())
    }

    fn assert_all_tiers(a: &[LabelEntry], b: &[LabelEntry]) {
        let want = reference(a, b);
        assert_eq!(join_branchless(a, b), want, "branchless");
        assert_eq!(join_gallop(a, b), want, "gallop");
        assert_eq!(join_adaptive(a, b), want, "adaptive");
        assert_eq!(join_sorted_slices(a, b), want, "join_sorted_slices front");
        // Symmetric in the distance (the hub is too — same common set).
        assert_eq!(join_adaptive(b, a).map(|(_, d)| d), want.map(|(_, d)| d));
    }

    #[test]
    fn empty_and_singleton_runs() {
        let e: Vec<LabelEntry> = Vec::new();
        let s = run(&[(3, 7)]);
        assert_all_tiers(&e, &e);
        assert_all_tiers(&e, &s);
        assert_all_tiers(&s, &e);
        assert_all_tiers(&s, &s);
        assert_all_tiers(&run(&[(2, 1)]), &s);
    }

    #[test]
    fn disjoint_hub_sets_yield_none() {
        let a = run(&[(0, 1), (2, 2), (4, 3), (6, 4), (8, 5)]);
        let b = run(&[(1, 1), (3, 2), (5, 3), (7, 4), (9, 5)]);
        assert_all_tiers(&a, &b);
        assert_eq!(join_adaptive(&a, &b), None);
    }

    #[test]
    fn tie_break_keeps_the_first_minimal_hub() {
        // Hubs 1 and 5 both sum to 10; the reference keeps hub 1.
        let a = run(&[(1, 4), (5, 3), (9, 50)]);
        let b = run(&[(1, 6), (5, 7), (9, 1)]);
        assert_all_tiers(&a, &b);
        assert_eq!(join_adaptive(&a, &b), Some((1, 10)));
    }

    #[test]
    fn distance_max_saturates_without_losing_the_hub() {
        let a = run(&[(2, Distance::MAX), (7, Distance::MAX - 1)]);
        let b = run(&[(2, 5), (7, Distance::MAX)]);
        assert_all_tiers(&a, &b);
        // Both common hubs saturate to MAX; the first one is reported.
        assert_eq!(join_adaptive(&a, &b), Some((2, Distance::MAX)));
    }

    #[test]
    fn long_skewed_runs_agree_across_tiers() {
        // 1:1000-style skew with matches sprinkled through the long run.
        let long: Vec<LabelEntry> = (0..1000)
            .map(|h| LabelEntry::new(h * 3, (h as u64) % 97))
            .collect();
        let short = run(&[(0, 5), (2997, 1), (1500, 2), (901, 3)]);
        let mut short = short;
        short.sort_unstable_by_key(|e| e.hub);
        assert_all_tiers(&short, &long);
        assert_all_tiers(&long, &long);
    }

    #[test]
    fn block_boundary_lengths_are_covered() {
        // Exercise every small length on both sides of the branchless
        // threshold.
        for la in 0..=17usize {
            for lb in 0..=17usize {
                let a: Vec<LabelEntry> = (0..la)
                    .map(|h| LabelEntry::new(h as u32 * 2, h as u64 + 1))
                    .collect();
                let b: Vec<LabelEntry> = (0..lb)
                    .map(|h| LabelEntry::new(h as u32 * 3, h as u64 + 1))
                    .collect();
                assert_all_tiers(&a, &b);
            }
        }
    }

    #[test]
    fn adaptive_picks_gallop_on_skew() {
        let short = run(&[(64, 1)]);
        let long: Vec<LabelEntry> = (0..64).map(|h| LabelEntry::new(h, 2)).collect();
        // 64 >= 16 * 1: gallop tier; result still matches.
        assert_eq!(join_adaptive(&short, &long), reference(&short, &long));
        assert_eq!(join_gallop(&short, &long), reference(&short, &long));
    }

    #[test]
    fn hot_hub_cache_matches_plain_queries() {
        use crate::index::HubLabelIndex;
        use chl_ranking::Ranking;

        // Path 0 - 1 - 2, ranking 1 > 0 > 2 (the flat.rs tiny index).
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        let index = HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        );
        let flat = FlatIndex::from_index(&index);
        for k in [0u32, 1, 2, 3, 16] {
            let cached = HotHubCached::new(flat.clone(), k);
            assert_eq!(cached.cache().top_k(), k.min(3));
            for u in 0..5 {
                for v in 0..5 {
                    assert_eq!(cached.distance(u, v), flat.query(u, v), "k={k} ({u},{v})");
                }
            }
        }
        let cached = HotHubCached::new(flat.clone(), 2);
        assert!(cached.memory_bytes() > flat.memory_bytes());
        assert_eq!(cached.num_vertices(), 3);
        assert_eq!(cached.inner().num_vertices(), 3);
        assert_eq!(cached.into_inner().num_vertices(), 3);
    }

    #[test]
    fn cache_rows_hold_distances_for_present_labels_only() {
        use crate::index::HubLabelIndex;
        use chl_ranking::Ranking;

        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        let index = HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        );
        let flat = FlatIndex::from_index(&index);
        let cache = HotHubCache::build(&flat.as_index_view(), 1);
        // Hub position 0 is vertex 1: d = 1, 0, 1 along the path.
        assert_eq!(cache.min_over_hot(0, 2), 2);
        assert_eq!(cache.min_over_hot(1, 2), 1);
        // Out-of-range ids never panic.
        assert_eq!(cache.min_over_hot(7, 0), INFINITY);
        assert_eq!(cache.min_over_hot(0, 7), INFINITY);
        assert_eq!(cache.memory_bytes(), 3 * 8);
    }
}
