//! Hub label primitives: entries, per-vertex label sets and the pruning /
//! query kernels that operate on them.
//!
//! A hub label for vertex `v` is a pair `(h, d(v, h))`. Throughout this
//! workspace the hub is stored as its **rank position** (0 = most important)
//! rather than its vertex id: comparisons against the current root become
//! single integer comparisons, and a label set sorted ascending by hub is
//! automatically sorted most-important-first, which lets merge-join queries
//! stop at the first (highest-ranked) common hub when only coverage matters.

use std::collections::HashMap;

use chl_graph::types::{Distance, INFINITY};

/// A single hub label: the hub's rank position and the distance to it.
///
/// The layout is `#[repr(C)]` because the `.chl` v2 on-disk format (see
/// [`crate::persist`]) stores entries byte-identically to this struct —
/// `hub` at offset 0, four bytes of zero padding, `dist` at offset 8 — so a
/// validated byte buffer can be reinterpreted in place as `&[LabelEntry]`
/// without copying. Every bit pattern of the two integer fields is a valid
/// value, which is what makes that reinterpretation sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct LabelEntry {
    /// Rank position of the hub (0 = most important vertex).
    pub hub: u32,
    /// Shortest distance from the labeled vertex to the hub.
    pub dist: Distance,
}

// The persistence layer depends on this exact layout; fail the build, not
// the loader, if it ever drifts.
const _: () = {
    assert!(std::mem::size_of::<LabelEntry>() == 16);
    assert!(std::mem::align_of::<LabelEntry>() == 8);
    assert!(std::mem::offset_of!(LabelEntry, hub) == 0);
    assert!(std::mem::offset_of!(LabelEntry, dist) == 8);
};

impl LabelEntry {
    /// Creates a new label entry.
    pub fn new(hub: u32, dist: Distance) -> Self {
        LabelEntry { hub, dist }
    }
}

/// The label set of one vertex, kept sorted by hub rank position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelSet {
    entries: Vec<LabelEntry>,
}

/// PPSD merge-join over two hub-sorted label slices: the minimum
/// `d(u,h) + d(v,h)` over common hubs, together with the hub achieving it.
///
/// This is the query kernel shared by [`LabelSet`] (pointer-per-vertex
/// storage) and [`crate::flat::FlatIndex`] (contiguous CSR storage): both
/// hold their entries sorted ascending by hub rank position, so the same
/// join serves either layout. Slice inputs route through the tiered
/// branchless/gallop/scalar kernels of [`crate::kernel`] (selected by run
/// length); [`join_sorted_iters`] remains the streaming reference the tiers
/// are differentially tested against, and the kernel streaming label
/// decoders still use.
pub fn join_sorted_slices(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
    crate::kernel::join_adaptive(a, b)
}

/// PPSD merge-join over two hub-sorted label *streams*: the iterator form of
/// [`join_sorted_slices`], and the single kernel both compile down to.
///
/// Generalizing over `Iterator<Item = LabelEntry>` is what lets one query
/// kernel serve every storage encoding: plain slices iterate by copy, while
/// the delta+varint compressed store (see [`crate::flat::CompressedStore`])
/// decodes entries on the fly — the join itself never knows the difference.
/// Both inputs must be sorted strictly ascending by hub rank position.
pub fn join_sorted_iters<A, B>(mut a: A, mut b: B) -> Option<(u32, Distance)>
where
    A: Iterator<Item = LabelEntry>,
    B: Iterator<Item = LabelEntry>,
{
    let mut x = a.next()?;
    let mut y = b.next()?;
    let mut best: Option<(u32, Distance)> = None;
    loop {
        if x.hub < y.hub {
            x = match a.next() {
                Some(e) => e,
                None => break,
            };
        } else if y.hub < x.hub {
            y = match b.next() {
                Some(e) => e,
                None => break,
            };
        } else {
            let total = x.dist.saturating_add(y.dist);
            if best.is_none_or(|(_, d)| total < d) {
                best = Some((x.hub, total));
            }
            match (a.next(), b.next()) {
                (Some(nx), Some(ny)) => {
                    x = nx;
                    y = ny;
                }
                _ => break,
            }
        }
    }
    best
}

impl LabelSet {
    /// Creates an empty label set.
    pub fn new() -> Self {
        LabelSet {
            entries: Vec::new(),
        }
    }

    /// Creates a label set from raw entries, sorting them and dropping
    /// duplicate hubs (keeping the smallest distance, which is the only
    /// correct one for true hub labels).
    pub fn from_entries(mut entries: Vec<LabelEntry>) -> Self {
        entries.sort_unstable_by_key(|e| (e.hub, e.dist));
        entries.dedup_by_key(|e| e.hub);
        LabelSet { entries }
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the set holds no labels.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, sorted ascending by hub rank position.
    pub fn entries(&self) -> &[LabelEntry] {
        &self.entries
    }

    /// Appends an entry known to have a hub ranked below every existing entry
    /// (the natural insertion order of rank-ordered constructors). Falls back
    /// to a sort-preserving insertion otherwise.
    pub fn push(&mut self, entry: LabelEntry) {
        match self.entries.last() {
            Some(last) if last.hub > entry.hub => {
                let pos = self.entries.partition_point(|e| e.hub < entry.hub);
                match self.entries.get_mut(pos) {
                    // Keep the smaller distance for a duplicate hub.
                    Some(slot) if slot.hub == entry.hub => {
                        if entry.dist < slot.dist {
                            *slot = entry;
                        }
                    }
                    _ => self.entries.insert(pos, entry),
                }
            }
            Some(last) if last.hub == entry.hub => {
                if let Some(slot) = self.entries.last_mut() {
                    if entry.dist < slot.dist {
                        *slot = entry;
                    }
                }
            }
            _ => self.entries.push(entry),
        }
    }

    /// Looks up the distance to `hub`, if labeled.
    pub fn distance_to_hub(&self, hub: u32) -> Option<Distance> {
        self.entries
            .binary_search_by_key(&hub, |e| e.hub)
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|e| e.dist)
    }

    /// `true` when `hub` appears in this set.
    pub fn contains_hub(&self, hub: u32) -> bool {
        self.distance_to_hub(hub).is_some()
    }

    /// Removes the label for `hub`, returning `true` if it was present.
    pub fn remove_hub(&mut self, hub: u32) -> bool {
        match self.entries.binary_search_by_key(&hub, |e| e.hub) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Merges another sorted label set into this one (used when committing a
    /// local table into the global table). Duplicate hubs keep the smaller
    /// distance.
    pub fn merge(&mut self, other: &LabelSet) {
        if other.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let a = self.entries[i];
            let b = other.entries[j];
            if a.hub < b.hub {
                merged.push(a);
                i += 1;
            } else if b.hub < a.hub {
                merged.push(b);
                j += 1;
            } else {
                merged.push(LabelEntry::new(a.hub, a.dist.min(b.dist)));
                i += 1;
                j += 1;
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        self.entries = merged;
    }

    /// PPSD merge-join: the minimum `d(u,h) + d(v,h)` over common hubs of the
    /// two sets, together with the hub achieving it.
    pub fn query_join(&self, other: &LabelSet) -> Option<(u32, Distance)> {
        join_sorted_slices(&self.entries, &other.entries)
    }

    /// PPSD distance between the owners of the two label sets
    /// ([`INFINITY`] when they share no hub).
    pub fn query_distance(&self, other: &LabelSet) -> Distance {
        self.query_join(other).map(|(_, d)| d).unwrap_or(INFINITY)
    }

    /// The paper's cleaning query `DQ_Clean` (Algorithm 2, lines 12-16):
    /// decides whether the label `(hub, dist)` held by this set's owner is
    /// redundant, i.e. whether a *more important* common hub of `self` and
    /// `hub_labels` (the label set of the hub itself) certifies a distance no
    /// longer than `dist`.
    pub fn is_redundant_label(&self, hub: u32, dist: Distance, hub_labels: &LabelSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < hub_labels.entries.len() {
            let a = self.entries[i];
            let b = hub_labels.entries[j];
            if a.hub < b.hub {
                i += 1;
            } else if b.hub < a.hub {
                j += 1;
            } else {
                // Common hub, in increasing rank-position order (most
                // important first).
                if a.hub >= hub {
                    // Reached the hub itself (or anything less important):
                    // nothing more important covers the pair within `dist`.
                    return false;
                }
                if a.dist.saturating_add(b.dist) <= dist {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
        false
    }

    /// Approximate heap footprint of this label set in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<LabelEntry>()
    }

    /// Restricts the set to hubs ranked within the top `eta` positions
    /// (used to build the Common Label Table of §5.3).
    pub fn restrict_to_top_hubs(&self, eta: u32) -> LabelSet {
        LabelSet {
            entries: self
                .entries
                .iter()
                .copied()
                .filter(|e| e.hub < eta)
                .collect(),
        }
    }
}

/// Hash-join view of a root's label set used by construction-time pruning
/// queries (Algorithm 1 builds `LR = hash(L_h)` once per SPT).
#[derive(Debug, Clone, Default)]
pub struct RootLabelHash {
    map: HashMap<u32, Distance>,
}

impl RootLabelHash {
    /// Builds the hash from any iterator of label entries; duplicate hubs
    /// keep the smaller distance.
    pub fn from_entries<I: IntoIterator<Item = LabelEntry>>(entries: I) -> Self {
        let mut map = HashMap::new();
        for e in entries {
            map.entry(e.hub)
                .and_modify(|d: &mut Distance| *d = (*d).min(e.dist))
                .or_insert(e.dist);
        }
        RootLabelHash { map }
    }

    /// Number of hubs in the hash.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the hash is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Distance from the root to `hub`, if the root is labeled with it.
    pub fn distance_to_hub(&self, hub: u32) -> Option<Distance> {
        self.map.get(&hub).copied()
    }

    /// The construction-time distance query `DQ` of Algorithm 1: `true` when
    /// some hub common to the root (this hash) and `labels` certifies a
    /// distance `<= delta`.
    pub fn covers(&self, labels: &[LabelEntry], delta: Distance) -> bool {
        for e in labels {
            if let Some(root_d) = self.map.get(&e.hub) {
                if e.dist.saturating_add(*root_d) <= delta {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(entries: &[(u32, Distance)]) -> LabelSet {
        LabelSet::from_entries(
            entries
                .iter()
                .map(|&(h, d)| LabelEntry::new(h, d))
                .collect(),
        )
    }

    #[test]
    fn from_entries_sorts_and_dedups() {
        let s = set(&[(5, 10), (1, 3), (5, 7), (2, 4)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.entries()[0], LabelEntry::new(1, 3));
        assert_eq!(s.distance_to_hub(5), Some(7)); // kept the smaller distance
    }

    #[test]
    fn push_in_rank_order_is_cheap_and_sorted() {
        let mut s = LabelSet::new();
        s.push(LabelEntry::new(0, 5));
        s.push(LabelEntry::new(3, 2));
        s.push(LabelEntry::new(7, 9));
        assert_eq!(
            s.entries().iter().map(|e| e.hub).collect::<Vec<_>>(),
            vec![0, 3, 7]
        );
    }

    #[test]
    fn push_out_of_order_keeps_sorted_invariant() {
        let mut s = LabelSet::new();
        s.push(LabelEntry::new(5, 1));
        s.push(LabelEntry::new(2, 1));
        s.push(LabelEntry::new(9, 1));
        s.push(LabelEntry::new(2, 5)); // duplicate with larger distance: ignored
        s.push(LabelEntry::new(9, 0)); // duplicate with smaller distance: replaces
        assert_eq!(
            s.entries()
                .iter()
                .map(|e| (e.hub, e.dist))
                .collect::<Vec<_>>(),
            vec![(2, 1), (5, 1), (9, 0)]
        );
    }

    #[test]
    fn contains_remove_and_lookup() {
        let mut s = set(&[(1, 3), (4, 6)]);
        assert!(s.contains_hub(4));
        assert!(!s.contains_hub(2));
        assert!(s.remove_hub(4));
        assert!(!s.remove_hub(4));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_takes_minimum_distance_per_hub() {
        let mut a = set(&[(1, 5), (3, 2), (8, 1)]);
        let b = set(&[(1, 4), (2, 7), (8, 3)]);
        a.merge(&b);
        assert_eq!(
            a.entries()
                .iter()
                .map(|e| (e.hub, e.dist))
                .collect::<Vec<_>>(),
            vec![(1, 4), (2, 7), (3, 2), (8, 1)]
        );
        // Merging an empty set is a no-op.
        let before = a.clone();
        a.merge(&LabelSet::new());
        assert_eq!(a, before);
    }

    #[test]
    fn query_join_finds_minimum_over_common_hubs() {
        let u = set(&[(0, 10), (2, 1), (5, 3)]);
        let v = set(&[(2, 9), (5, 4), (7, 0)]);
        assert_eq!(u.query_join(&v), Some((5, 7)));
        assert_eq!(u.query_distance(&v), 7);
        // Disjoint sets: no answer.
        let w = set(&[(9, 1)]);
        assert_eq!(u.query_join(&w), None);
        assert_eq!(u.query_distance(&w), INFINITY);
    }

    #[test]
    fn redundant_label_detection_follows_dq_clean() {
        // Owner v has labels {h0: 4, h3: 6}; hub 3's own labels are {h0: 2, h3: 0}.
        let v = set(&[(0, 4), (3, 6)]);
        let h3 = set(&[(0, 2), (3, 0)]);
        // Common hub 0 has rank above 3 and d(v,0)+d(3,0) = 6 <= 6: redundant.
        assert!(v.is_redundant_label(3, 6, &h3));
        // With a strictly smaller claimed distance the higher hub no longer covers it.
        assert!(!v.is_redundant_label(3, 5, &h3));
        // The hub itself always covers the label; must NOT count as redundancy.
        let v2 = set(&[(3, 6)]);
        assert!(!v2.is_redundant_label(3, 6, &h3));
    }

    #[test]
    fn root_hash_covers_matches_brute_force() {
        let root = RootLabelHash::from_entries(vec![
            LabelEntry::new(0, 2),
            LabelEntry::new(4, 5),
            LabelEntry::new(4, 3),
        ]);
        assert_eq!(root.len(), 2);
        assert_eq!(root.distance_to_hub(4), Some(3));
        let labels = [LabelEntry::new(0, 7), LabelEntry::new(9, 0)];
        assert!(root.covers(&labels, 9));
        assert!(!root.covers(&labels, 8));
        assert!(!RootLabelHash::default().covers(&labels, 100));
        assert!(RootLabelHash::default().is_empty());
    }

    #[test]
    fn restrict_to_top_hubs_filters_by_rank() {
        let s = set(&[(0, 1), (5, 2), (15, 3), (16, 4)]);
        let top = s.restrict_to_top_hubs(16);
        assert_eq!(top.len(), 3);
        assert!(top.contains_hub(15));
        assert!(!top.contains_hub(16));
    }

    #[test]
    fn memory_accounting() {
        let s = set(&[(0, 1), (5, 2)]);
        assert_eq!(s.memory_bytes(), 2 * std::mem::size_of::<LabelEntry>());
    }
}
