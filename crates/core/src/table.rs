//! Concurrent label tables.
//!
//! The parallel constructors have worker threads appending labels to
//! arbitrary vertices while other threads read those same label sets to
//! answer pruning queries. Following the paper's design:
//!
//! * a **local** table ([`ConcurrentLabelTable`]) takes all appends and is
//!   protected by one small mutex per vertex;
//! * a **global** table (a plain `Vec<LabelSet>`) holds labels committed at
//!   the previous synchronization point, is immutable during a superstep and
//!   therefore read without any locking — this is GLL's main trick for
//!   cutting lock traffic (§4.2).
//!
//! The [`LabelAccess`] trait abstracts over "where do I read labels from /
//! append labels to" so the pruned-Dijkstra kernel can serve PLL, paraPLL,
//! LCC and GLL unchanged.

use std::sync::{Mutex, MutexGuard, PoisonError};

use chl_graph::types::VertexId;

use crate::labels::{LabelEntry, LabelSet};

/// How a construction kernel reads and writes labels.
pub trait LabelAccess: Sync {
    /// Appends the current labels of `v` to `out` (order unspecified).
    fn collect_labels(&self, v: VertexId, out: &mut Vec<LabelEntry>);
    /// Records a freshly generated label for `v`.
    fn append(&self, v: VertexId, entry: LabelEntry);
}

/// Locks one slot of a [`ConcurrentLabelTable`]. Every critical section is
/// one push, copy or take, so a slot whose holder panicked still holds a
/// whole vector and poisoning is ignored.
fn lock(slot: &Mutex<Vec<LabelEntry>>) -> MutexGuard<'_, Vec<LabelEntry>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A per-vertex label table safe for concurrent appends and reads.
#[derive(Debug)]
pub struct ConcurrentLabelTable {
    slots: Vec<Mutex<Vec<LabelEntry>>>,
}

impl ConcurrentLabelTable {
    /// Creates a table for `n` vertices.
    pub fn new(n: usize) -> Self {
        ConcurrentLabelTable {
            slots: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.slots.len()
    }

    /// Appends a label to `v`.
    pub fn append(&self, v: VertexId, entry: LabelEntry) {
        lock(&self.slots[v as usize]).push(entry);
    }

    /// Copies the labels of `v` into `out`.
    pub fn collect_into(&self, v: VertexId, out: &mut Vec<LabelEntry>) {
        out.extend_from_slice(&lock(&self.slots[v as usize]));
    }

    /// Returns a snapshot of the labels of `v`.
    pub fn snapshot(&self, v: VertexId) -> Vec<LabelEntry> {
        lock(&self.slots[v as usize]).clone()
    }

    /// Number of labels currently stored for `v`.
    pub fn len_of(&self, v: VertexId) -> usize {
        lock(&self.slots[v as usize]).len()
    }

    /// Total number of labels across all vertices.
    pub fn total_labels(&self) -> usize {
        self.slots.iter().map(|s| lock(s).len()).sum()
    }

    /// Drains the table into per-vertex raw entry vectors, leaving it empty.
    pub fn drain_all(&self) -> Vec<Vec<LabelEntry>> {
        self.slots
            .iter()
            .map(|s| std::mem::take(&mut *lock(s)))
            .collect()
    }

    /// Consumes the table into sorted per-vertex [`LabelSet`]s.
    pub fn into_label_sets(self) -> Vec<LabelSet> {
        self.slots
            .into_iter()
            .map(|s| LabelSet::from_entries(s.into_inner().unwrap_or_else(PoisonError::into_inner)))
            .collect()
    }
}

impl LabelAccess for ConcurrentLabelTable {
    fn collect_labels(&self, v: VertexId, out: &mut Vec<LabelEntry>) {
        self.collect_into(v, out);
    }
    fn append(&self, v: VertexId, entry: LabelEntry) {
        ConcurrentLabelTable::append(self, v, entry);
    }
}

/// The global + local table pair used by GLL: reads see the union of the
/// committed global labels (lock-free) and the in-flight local labels
/// (per-vertex mutex); writes go to the local table only.
pub struct GllTables<'a> {
    /// Labels committed at earlier synchronization points.
    pub global: &'a [LabelSet],
    /// Labels generated during the current superstep.
    pub local: &'a ConcurrentLabelTable,
}

impl LabelAccess for GllTables<'_> {
    fn collect_labels(&self, v: VertexId, out: &mut Vec<LabelEntry>) {
        out.extend_from_slice(self.global[v as usize].entries());
        self.local.collect_into(v, out);
    }
    fn append(&self, v: VertexId, entry: LabelEntry) {
        self.local.append(v, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn append_and_snapshot() {
        let t = ConcurrentLabelTable::new(3);
        t.append(0, LabelEntry::new(1, 5));
        t.append(0, LabelEntry::new(0, 2));
        t.append(2, LabelEntry::new(0, 7));
        assert_eq!(t.len_of(0), 2);
        assert_eq!(t.len_of(1), 0);
        assert_eq!(t.total_labels(), 3);
        let snap = t.snapshot(0);
        assert_eq!(snap.len(), 2);
        let sets = t.into_label_sets();
        assert_eq!(sets[0].entries()[0].hub, 0);
        assert_eq!(sets[2].len(), 1);
    }

    #[test]
    fn drain_leaves_table_empty() {
        let t = ConcurrentLabelTable::new(2);
        t.append(1, LabelEntry::new(3, 3));
        let drained = t.drain_all();
        assert_eq!(drained[1].len(), 1);
        assert_eq!(t.total_labels(), 0);
    }

    #[test]
    fn concurrent_appends_from_many_threads() {
        let t = Arc::new(ConcurrentLabelTable::new(8));
        std::thread::scope(|scope| {
            for thread_id in 0..4u32 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..100u32 {
                        t.append(
                            (i % 8) as VertexId,
                            LabelEntry::new(thread_id * 1000 + i, i as u64),
                        );
                    }
                });
            }
        });
        assert_eq!(t.total_labels(), 400);
    }

    #[test]
    fn gll_tables_read_union_write_local() {
        let global = vec![
            LabelSet::from_entries(vec![LabelEntry::new(0, 1)]),
            LabelSet::new(),
        ];
        let local = ConcurrentLabelTable::new(2);
        local.append(0, LabelEntry::new(5, 9));
        let tables = GllTables {
            global: &global,
            local: &local,
        };

        let mut out = Vec::new();
        tables.collect_labels(0, &mut out);
        assert_eq!(out.len(), 2);

        tables.append(1, LabelEntry::new(2, 2));
        assert_eq!(local.len_of(1), 1);
        assert!(global[1].is_empty());
    }
}
