//! The served index: one loaded `.chl` file behind an atomically swappable
//! handle, so reloads never drop in-flight requests.
//!
//! [`SharedIndex`] owns the path it was opened from plus the currently
//! serving [`LoadedIndex`] wrapped in `RwLock<Arc<..>>`. Request handlers
//! take a [`SharedIndex::snapshot`] (one `Arc` clone under a read lock —
//! nanoseconds) per batch and answer from it; [`SharedIndex::reload`]
//! revalidates the file from scratch and swaps the `Arc` under the write
//! lock. Handlers holding the old snapshot keep serving the old index until
//! their batch completes, at which point the last `Arc` drops it — the
//! graceful-reload semantics the protocol's RELOAD frame exposes. A reload
//! that fails validation (corrupt or truncated replacement file) leaves the
//! serving index untouched and reports the loader's typed error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use chl_core::flat::FlatIndex;
use chl_core::kernel::HotHubCache;
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::{PathError, PathOracle};
use chl_core::persist::{PersistError, ShardSpec};
use chl_graph::types::{Distance, VertexId};

use crate::protocol::ServerInfo;

/// The two load backends a generation can serve from.
#[derive(Debug)]
enum Backend {
    /// Copy-loaded, heap-owned index (works for v1 and v2 files).
    Owned(FlatIndex),
    /// Zero-copy mapped index (v2 files; buffered fallback off-Unix or with
    /// the `mmap` feature disabled).
    Mapped(MmapIndex),
}

/// One fully validated, immutable index serving generation: a load backend
/// plus an optional top-`k` [`HotHubCache`] built from the same snapshot.
///
/// Both backends answer through the same [`DistanceOracle`] surface — the
/// generation itself implements the trait, consulting the cache first when
/// one is configured. Because the cache is part of the generation, a
/// `RELOAD` swap atomically replaces index *and* cache together: a stale
/// cache can never outlive the snapshot it was built from.
#[derive(Debug)]
pub struct LoadedIndex {
    backend: Backend,
    cache: Option<HotHubCache>,
}

impl LoadedIndex {
    /// Opens and fully validates `path` with the requested backend, no
    /// hot-hub cache.
    pub fn open(path: &Path, mmap: bool) -> Result<Self, PersistError> {
        LoadedIndex::open_with(path, mmap, 0)
    }

    /// Opens `path` and, when `hot_hubs > 0`, builds the top-`hot_hubs`
    /// distance-row cache from the freshly validated index.
    pub fn open_with(path: &Path, mmap: bool, hot_hubs: u32) -> Result<Self, PersistError> {
        let backend = if mmap {
            MmapIndex::open(path).map(Backend::Mapped)?
        } else {
            FlatIndex::load(path).map(Backend::Owned)?
        };
        let cache = (hot_hubs > 0).then(|| HotHubCache::build(&backend.view(), hot_hubs));
        Ok(LoadedIndex { backend, cache })
    }

    /// Wraps an owned index built in-process (tests, embedded serving).
    pub fn from_owned(index: FlatIndex, hot_hubs: u32) -> Self {
        let cache = (hot_hubs > 0).then(|| HotHubCache::build(&index.as_index_view(), hot_hubs));
        LoadedIndex {
            backend: Backend::Owned(index),
            cache,
        }
    }

    /// The query surface of this generation (the generation itself: the
    /// cache-aware [`DistanceOracle`] impl below).
    pub fn oracle(&self) -> &dyn DistanceOracle {
        self
    }

    /// The hot-hub cache `k` this generation serves with (0 = no cache).
    pub fn hot_hubs(&self) -> u32 {
        self.cache.as_ref().map_or(0, HotHubCache::top_k)
    }

    /// Heap bytes held by the hot-hub cache rows (0 = no cache).
    pub fn cache_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, HotHubCache::memory_bytes)
    }

    /// Vertices covered (valid ids are `0..n`).
    pub fn num_vertices(&self) -> usize {
        match &self.backend {
            Backend::Owned(index) => index.num_vertices(),
            Backend::Mapped(index) => index.num_vertices(),
        }
    }

    /// Total label entries stored.
    pub fn total_labels(&self) -> usize {
        match &self.backend {
            Backend::Owned(index) => index.total_labels(),
            Backend::Mapped(index) => index.total_labels(),
        }
    }

    /// Human-readable backend name for logs and stats.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Owned(_) => "owned (copy-load)",
            Backend::Mapped(m) => match (m.is_mapped(), m.is_compressed()) {
                (true, false) => "mmap (zero-copy view)",
                (true, true) => "mmap (streamed varint decode)",
                (false, false) => "mmap fallback (aligned buffered read)",
                (false, true) => "mmap fallback (buffered streamed decode)",
            },
        }
    }

    fn is_compressed(&self) -> bool {
        match &self.backend {
            // A copy-loaded index is decoded at load time; it serves raw
            // entries regardless of the file's encoding.
            Backend::Owned(_) => false,
            Backend::Mapped(m) => m.is_compressed(),
        }
    }

    fn is_mapped(&self) -> bool {
        match &self.backend {
            Backend::Owned(_) => false,
            Backend::Mapped(m) => m.is_mapped(),
        }
    }

    /// The shard identity when the loaded file is one QDOL shard of a
    /// sharded index; `None` for a whole index. Both backends cache the
    /// spec at load, so this never re-walks the file.
    pub fn shard(&self) -> Option<&ShardSpec> {
        match &self.backend {
            Backend::Owned(index) => index.shard(),
            Backend::Mapped(index) => index.shard(),
        }
    }

    /// `true` when the loaded file carries a path section, i.e. PATH frames
    /// can be answered from this generation.
    pub fn has_path_data(&self) -> bool {
        match &self.backend {
            Backend::Owned(index) => index.has_path_data(),
            Backend::Mapped(index) => index.has_path_data(),
        }
    }

    /// Reconstructs one shortest path from this generation's parent records
    /// (`Ok(None)` = disconnected). Same semantics as the in-process
    /// [`PathOracle::path`] on the underlying backend.
    pub fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        self.backend.view().path(u, v)
    }

    /// Shard-honesty check: the first **in-range** id of `ids` this shard
    /// does not own, or `None` when every id is answerable here (including
    /// on a whole index, and including out-of-range ids, which are data —
    /// unreachable — on every server).
    pub fn foreign(&self, ids: impl IntoIterator<Item = VertexId>) -> Option<VertexId> {
        let shard = self.shard()?;
        let n = self.num_vertices();
        ids.into_iter()
            .find(|&id| (id as usize) < n && !shard.owns(id))
    }
}

impl Backend {
    /// Borrowed runtime-dispatched view of the loaded index.
    fn view(&self) -> chl_core::flat::IndexView<'_> {
        match self {
            Backend::Owned(index) => index.as_index_view(),
            Backend::Mapped(index) => index.view(),
        }
    }
}

impl DistanceOracle for LoadedIndex {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        match &self.cache {
            Some(cache) => self.backend.view().query_cached(cache, u, v),
            None => self.backend.view().query(u, v),
        }
    }

    fn num_vertices(&self) -> usize {
        LoadedIndex::num_vertices(self)
    }

    fn memory_bytes(&self) -> usize {
        let backend = match &self.backend {
            Backend::Owned(index) => index.memory_bytes(),
            Backend::Mapped(index) => index.memory_bytes(),
        };
        backend + self.cache_bytes()
    }

    /// Distance blocks go through the hub-pivoted kernel on the view — the
    /// hot-hub cache only accelerates point queries, and answers are
    /// byte-identical either way (the matrix contract).
    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        self.backend.view().matrix(sources, targets)
    }
}

/// The hot-swappable index handle shared by every connection handler.
#[derive(Debug)]
pub struct SharedIndex {
    path: PathBuf,
    mmap: bool,
    hot_hubs: u32,
    /// The serving generation. Poisoning is ignored: every critical section
    /// is one `Arc` clone or store, so the value is whole even after a
    /// holder panicked, and one panicked RELOAD must not turn every later
    /// request into a panic.
    current: RwLock<Arc<LoadedIndex>>,
    generation: AtomicU64,
}

impl SharedIndex {
    /// Opens `path` with the requested backend as generation 0.
    pub fn open<P: AsRef<Path>>(path: P, mmap: bool) -> Result<Self, PersistError> {
        SharedIndex::open_with(path, mmap, 0)
    }

    /// Opens `path` with the requested backend and hot-hub cache size as
    /// generation 0; every reload rebuilds the cache from the fresh file.
    pub fn open_with<P: AsRef<Path>>(
        path: P,
        mmap: bool,
        hot_hubs: u32,
    ) -> Result<Self, PersistError> {
        let path = path.as_ref().to_path_buf();
        let loaded = LoadedIndex::open_with(&path, mmap, hot_hubs)?;
        Ok(SharedIndex {
            path,
            mmap,
            hot_hubs,
            current: RwLock::new(Arc::new(loaded)),
            generation: AtomicU64::new(0),
        })
    }

    /// Wraps an already loaded index (tests, in-process serving). Reload
    /// still goes through `path`, preserving the generation's hot-hub
    /// cache configuration.
    pub fn from_loaded<P: AsRef<Path>>(path: P, mmap: bool, loaded: LoadedIndex) -> Self {
        SharedIndex {
            path: path.as_ref().to_path_buf(),
            mmap,
            hot_hubs: loaded.hot_hubs(),
            current: RwLock::new(Arc::new(loaded)),
            generation: AtomicU64::new(0),
        }
    }

    /// The index file reloads re-read.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether reloads use the mapped backend.
    pub fn uses_mmap(&self) -> bool {
        self.mmap
    }

    /// The currently serving generation. Cheap: one `Arc` clone under a read
    /// lock. Callers answer a whole batch from one snapshot so a concurrent
    /// reload can never change answers mid-batch.
    pub fn snapshot(&self) -> Arc<LoadedIndex> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Reload generation counter: 0 until the first successful
    /// [`SharedIndex::reload`], then incremented per swap.
    pub fn generation(&self) -> u64 {
        // ORDERING: the generation is a monotonically increasing stats
        // counter; readers only need *a* recent value, and the index swap
        // itself synchronizes through the RwLock.
        self.generation.load(Ordering::Relaxed)
    }

    /// Revalidates the file and atomically swaps it in, returning the new
    /// generation. On any load error the old index keeps serving and the
    /// typed error is returned. In-flight snapshots are unaffected either
    /// way: they hold their own `Arc` until their batch completes.
    pub fn reload(&self) -> Result<u64, PersistError> {
        // Load outside the write lock: validation (and the hot-hub cache
        // rebuild) is the expensive part and must not stall readers. The
        // cache travels inside the generation, so the swap below replaces
        // both together — the RELOAD coherence guarantee.
        let fresh = Arc::new(LoadedIndex::open_with(
            &self.path,
            self.mmap,
            self.hot_hubs,
        )?);
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        *current = fresh;
        // ORDERING: monotonic stats counter; the swap above is what readers
        // synchronize on (via the RwLock), not this value.
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(generation)
    }

    /// INFO-frame metadata for the current generation.
    pub fn info(&self) -> ServerInfo {
        let snapshot = self.snapshot();
        ServerInfo {
            num_vertices: snapshot.num_vertices() as u64,
            total_labels: snapshot.total_labels() as u64,
            generation: self.generation(),
            compressed: snapshot.is_compressed(),
            mapped: snapshot.is_mapped(),
            shard: snapshot.shard().map(|s| (s.shard_id, s.shard_count)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_core::index::HubLabelIndex;
    use chl_ranking::Ranking;

    fn tiny_flat() -> FlatIndex {
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        FlatIndex::from_index(&HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        ))
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "chl-serve-index-test-{}-{:?}-{tag}.chl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn open_snapshot_and_reload_roll_the_generation() {
        let flat = tiny_flat();
        let path = temp_path("reload");
        flat.save(&path).unwrap();

        for mmap in [false, true] {
            let shared = SharedIndex::open(&path, mmap).unwrap();
            assert_eq!(shared.generation(), 0);
            assert_eq!(shared.uses_mmap(), mmap);
            let before = shared.snapshot();
            assert_eq!(before.num_vertices(), 3);
            assert_eq!(before.oracle().distance(0, 2), 2);
            assert!(!before.backend_name().is_empty());

            assert_eq!(shared.reload().unwrap(), 1);
            assert_eq!(shared.generation(), 1);
            // The old snapshot still answers after the swap.
            assert_eq!(before.oracle().distance(0, 2), 2);
            assert_eq!(shared.info().generation, 1);
            assert_eq!(shared.info().num_vertices, 3);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hot_hub_cache_matches_plain_answers_and_survives_reload() {
        let flat = tiny_flat();
        let path = temp_path("hot-hubs");
        flat.save(&path).unwrap();
        for mmap in [false, true] {
            let shared = SharedIndex::open_with(&path, mmap, 2).unwrap();
            let snap = shared.snapshot();
            assert_eq!(snap.hot_hubs(), 2);
            assert!(snap.cache_bytes() > 0);
            for u in 0..4 {
                for v in 0..4 {
                    assert_eq!(snap.oracle().distance(u, v), flat.query(u, v), "({u},{v})");
                }
            }
            // A reload rebuilds the cache with the configured k: the fresh
            // generation answers identically and still reports the cache.
            assert_eq!(shared.reload().unwrap(), 1);
            let snap = shared.snapshot();
            assert_eq!(snap.hot_hubs(), 2);
            assert_eq!(snap.oracle().distance(0, 2), 2);
        }
        // In-process construction keeps the cache configuration too.
        let shared = SharedIndex::from_loaded(&path, false, LoadedIndex::from_owned(flat, 3));
        assert_eq!(shared.snapshot().hot_hubs(), 3);
        shared.reload().unwrap();
        assert_eq!(shared.snapshot().hot_hubs(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_reload_keeps_the_old_index() {
        let flat = tiny_flat();
        let path = temp_path("corrupt");
        flat.save(&path).unwrap();
        let shared = SharedIndex::open(&path, false).unwrap();

        std::fs::write(&path, b"not a chl file").unwrap();
        assert!(shared.reload().is_err());
        assert_eq!(shared.generation(), 0);
        assert_eq!(shared.snapshot().oracle().distance(0, 2), 2);

        std::fs::remove_file(&path).unwrap();
        assert!(matches!(shared.reload(), Err(PersistError::Io(_))));
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison_later_requests() {
        let flat = tiny_flat();
        let path = temp_path("poison");
        flat.save(&path).unwrap();
        let shared = SharedIndex::open(&path, false).unwrap();

        // A thread that panics while holding the write lock poisons a std
        // RwLock; snapshots and reloads must keep working regardless.
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = shared.current.write();
                    panic!("simulated failure mid-swap");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(shared.current.is_poisoned());
        assert_eq!(shared.snapshot().oracle().distance(0, 2), 2);
        assert_eq!(shared.reload().unwrap(), 1);
        assert_eq!(shared.info().generation, 1);

        std::fs::remove_file(&path).unwrap();
    }
}
