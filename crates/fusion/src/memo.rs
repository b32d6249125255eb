//! Memoization of the fusion analysis over isomorphic task windows
//! (Section 5.2, Figure 7).
//!
//! Two task windows are isomorphic when they differ only in the identities of
//! the stores they touch — the pattern of accesses is identical. Diffuse
//! canonicalizes windows with a De-Bruijn-style renaming (each store is
//! replaced by the index of its first occurrence) and memoizes analysis and
//! code-generation results under that canonical key.
//!
//! # The fingerprint-first fast path
//!
//! Building a [`CanonicalWindow`] allocates (a vector of canonical tasks plus
//! their argument lists), which used to make a memo *hit* as expensive as a
//! miss. The cache is therefore two-level:
//!
//! 1. **Probe** by the window's 64-bit rolling fingerprint
//!    ([`ir::TaskWindow::fingerprint`], maintained incrementally as tasks are
//!    pushed — O(1) at probe time).
//! 2. **Verify** each fingerprint candidate by walking the window against the
//!    stored canonical key through the window's own numbering
//!    ([`ir::FingerprintState::arg_indices`], made by the pushes): no
//!    allocation, no store lookup, constant work per task argument, and
//!    exact: the probe is *behaviorally identical* to a full-key lookup even
//!    under fingerprint collisions (candidates chain).
//!
//! A `CanonicalWindow` is only constructed on a miss, to insert, and from
//! that same numbering ([`CanonicalWindow::from_numbering`]): a flush numbers
//! and folds its window once, when its tasks are pushed, whether it hits or
//! misses. The all-hit steady state performs **zero heap allocation** for
//! key construction (verified by the `memo_equivalence` property test).
//!
//! The cache is bounded: entries beyond the capacity are evicted LRU, so a
//! long-running service does not accumulate a compiled artifact for every
//! window shape it has ever seen. Probing an entry marks it most-recently
//! used, so the entry for the window currently being processed is never the
//! eviction victim.

use ir::fingerprint::FnvHashMap;
use ir::{Domain, FingerprintState, IndexTask, PartitionId, Privilege, ShapeId, TaskWindow};

/// Canonical form of one task: everything that affects the analysis, with
/// store identities replaced by first-occurrence indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CanonicalTask {
    kind: u32,
    launch_domain: Domain,
    args: Vec<(u32, PartitionId, Privilege)>,
    num_scalars: usize,
}

/// Canonical form of a task window, usable as a memoization key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalWindow {
    tasks: Vec<CanonicalTask>,
    /// Shapes of the canonically-numbered stores: buffer lengths feed the
    /// kernel pipeline, so windows over differently-shaped stores must not
    /// share compiled artifacts.
    shapes: Vec<ShapeId>,
    /// Structural fingerprint of the canonicalized stream — computed by the
    /// same folding code as [`ir::TaskWindow`]'s rolling fingerprint, so the
    /// two can never diverge.
    fingerprint: u64,
}

impl CanonicalWindow {
    /// Canonicalizes a window of tasks. Store shapes are read from the
    /// arguments themselves (stamped by the Diffuse context at submit time).
    /// Folds the tasks into a fresh numbering, then builds the key from it as
    /// [`CanonicalWindow::from_numbering`] does.
    ///
    /// # Panics
    ///
    /// Panics if a referenced store's shape was never stamped.
    pub fn new(tasks: &[IndexTask]) -> Self {
        let mut numbering = FingerprintState::new();
        tasks.iter().for_each(|task| _ = numbering.push(task));
        Self::from_numbering(tasks, &numbering)
    }

    /// The key of `tasks` from the numbering they were folded under (a
    /// window's own, [`ir::TaskWindow::numbering`]): its argument indices and
    /// its fingerprint, with no second fold.
    ///
    /// # Panics
    ///
    /// Panics if a referenced store's shape was never stamped, or if
    /// `numbering` did not fold as many arguments as `tasks` hold (it must
    /// have folded exactly `tasks`, in order).
    pub fn from_numbering(tasks: &[IndexTask], numbering: &FingerprintState) -> Self {
        let mut indices = numbering.arg_indices().iter();
        let mut shapes: Vec<ShapeId> = Vec::new();
        let canonical_tasks = tasks
            .iter()
            .map(|task| {
                let args = task.args.iter().map(|arg| {
                    let idx = *indices.next().expect("the numbering folded every argument");
                    if idx as usize == shapes.len() {
                        assert!(!arg.shape.is_unknown(), "missing shape for {}", arg.store);
                        shapes.push(arg.shape);
                    }
                    (idx, arg.partition, arg.privilege)
                });
                CanonicalTask {
                    kind: task.kind,
                    launch_domain: task.launch_domain.clone(),
                    args: args.collect(),
                    num_scalars: task.scalars.len(),
                }
            })
            .collect();
        let extra = indices.next();
        assert!(extra.is_none(), "the numbering folded more arguments than the tasks hold");
        CanonicalWindow {
            tasks: canonical_tasks,
            shapes,
            fingerprint: numbering.fingerprint(),
        }
    }

    /// Number of tasks in the canonical window.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The structural fingerprint under which the cache indexes this key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether this canonical key describes exactly `tasks`, folded under
    /// `numbering` (equivalently: whether it equals their key) — the
    /// collision verification of the fingerprint probe. Reads the canonical
    /// indices the fold made, so it allocates nothing and looks up no store.
    ///
    /// # Panics
    ///
    /// May panic if `numbering` did not fold `tasks`.
    pub fn matches(&self, tasks: &[IndexTask], numbering: &FingerprintState) -> bool {
        if self.tasks.len() != tasks.len() {
            return false;
        }
        let mut indices = numbering.arg_indices().iter();
        let mut seen = 0;
        for (ct, t) in self.tasks.iter().zip(tasks) {
            if ct.kind != t.kind
                || ct.num_scalars != t.scalars.len()
                || ct.args.len() != t.args.len()
                || ct.launch_domain != t.launch_domain
            {
                return false;
            }
            for (&(ci, cpart, cpriv), arg) in ct.args.iter().zip(&t.args) {
                let idx = *indices.next().expect("the numbering folded every argument");
                if ci != idx || cpart != arg.partition || cpriv != arg.privilege {
                    return false;
                }
                // First occurrence: the canonical shape list must agree with
                // the argument's stamped shape.
                if idx == seen {
                    if self.shapes.get(idx as usize) != Some(&arg.shape) {
                        return false;
                    }
                    seen += 1;
                }
            }
        }
        true
    }
}

/// One resident cache entry.
#[derive(Debug, Clone)]
struct Slot<V> {
    key: CanonicalWindow,
    value: V,
    last_used: u64,
}

/// A bounded, fingerprint-indexed memoization cache with LRU eviction (and
/// an eviction count; hits and misses are counted by the caller, in
/// `ExecutionStats`).
///
/// Each Diffuse context owns one cache, created for its configured kernel
/// backend, so compiled artifacts are never shared between backends (the
/// `(canonical window, backend)` keying of `docs/BACKENDS.md` holds by
/// construction).
#[derive(Debug, Clone)]
pub struct MemoCache<V> {
    /// First level: fingerprint → candidate slots (chains absorb collisions).
    index: FnvHashMap<u64, Vec<u32>>,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<u32>,
    live: usize,
    capacity: usize,
    tick: u64,
    evictions: u64,
}

impl<V> Default for MemoCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MemoCache<V> {
    /// Creates an unbounded cache.
    pub fn new() -> Self {
        Self::with_capacity_limit(usize::MAX)
    }

    /// Creates a cache bounded to at most `capacity` entries (LRU eviction).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity_limit(capacity: usize) -> Self {
        assert!(capacity > 0, "memo cache capacity must be at least 1");
        MemoCache {
            index: FnvHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            capacity,
            tick: 0,
            evictions: 0,
        }
    }

    /// The fingerprint-first fast path: looks up the entry for the buffered
    /// window. Uses the window's incrementally maintained fingerprint and
    /// verifies candidates through the window's own numbering — **no heap
    /// allocation and no `CanonicalWindow` construction on either outcome**
    /// (the caller builds the key only when inserting after a miss, from the
    /// same numbering).
    pub fn probe(&mut self, window: &TaskWindow) -> Option<&V> {
        self.probe_numbered(window.tasks(), window.numbering())
    }

    /// [`MemoCache::probe`] for tasks held in no window (a task launched
    /// alone), their numbering folded here.
    pub fn probe_tasks(&mut self, tasks: &[IndexTask]) -> Option<&V> {
        let mut numbering = FingerprintState::new();
        tasks.iter().for_each(|task| _ = numbering.push(task));
        self.probe_numbered(tasks, &numbering)
    }

    fn probe_numbered(&mut self, tasks: &[IndexTask], numbering: &FingerprintState) -> Option<&V> {
        self.tick += 1;
        let candidates = self.index.get(&numbering.fingerprint())?;
        let si = *candidates.iter().find(|&&si| {
            let slot = self.slots[si as usize].as_ref().expect("indexed slot is live");
            slot.key.matches(tasks, numbering)
        })?;
        let slot = self.slots[si as usize].as_mut().expect("live");
        slot.last_used = self.tick;
        Some(&slot.value)
    }

    /// Full-key lookup. Equivalent to [`MemoCache::probe`] with a pre-built
    /// key; the reference path of the equivalence tests.
    pub fn get(&mut self, key: &CanonicalWindow) -> Option<&V> {
        self.tick += 1;
        let si = self.slot_of(key)?;
        let slot = self.slots[si].as_mut().expect("live");
        slot.last_used = self.tick;
        Some(&slot.value)
    }

    /// Inserts an analysis result under a canonical key. If the key is
    /// already resident its value is replaced in place (the layout-drift
    /// re-memoization path); otherwise the least-recently-used entry is
    /// evicted once the cache is at capacity. The inserted (or refreshed)
    /// entry becomes most-recently used, so it is never the next victim.
    pub fn insert(&mut self, key: CanonicalWindow, value: V) {
        self.tick += 1;
        if let Some(si) = self.slot_of(&key) {
            let slot = self.slots[si].as_mut().expect("live");
            (slot.value, slot.last_used) = (value, self.tick);
            return;
        }
        if self.live >= self.capacity {
            self.evict_lru();
        }
        self.place(key, value, self.tick);
    }

    /// Inserts an entry that yields to every other: only into spare
    /// capacity, and as the least recently used, so it never evicts an entry
    /// and is the first evicted until a probe hits it. A resident key is
    /// left as it is.
    pub fn offer(&mut self, key: CanonicalWindow, value: V) {
        if self.live < self.capacity && self.slot_of(&key).is_none() {
            self.place(key, value, 0);
        }
    }

    /// The slot holding `key`, if it is resident.
    fn slot_of(&self, key: &CanonicalWindow) -> Option<usize> {
        let candidates = self.index.get(&key.fingerprint)?;
        let holds = |si: &&u32| self.slots[**si as usize].as_ref().expect("live").key == *key;
        candidates.iter().find(holds).map(|&si| si as usize)
    }

    /// Places a new entry in a free slot, used last at `last_used`.
    fn place(&mut self, key: CanonicalWindow, value: V, last_used: u64) {
        let si = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        self.index.entry(key.fingerprint).or_default().push(si);
        self.slots[si as usize] = Some(Slot { key, value, last_used });
        self.live += 1;
    }

    /// Evicts the least-recently-used entry with an O(capacity) scan.
    /// Eviction runs only on a miss, which also pays for segmentation, kernel
    /// composition and compilation: ≈0.1 ms per op on `diffuse-bench`'s
    /// `churn_cold`, whose ops mostly miss a 1024-entry memo. The scan of
    /// 1024 slots is a few microseconds of that, and the hit path keeps no
    /// recency list for it; a memo sized far beyond that would want one.
    fn evict_lru(&mut self) {
        let victim = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.last_used)))
            .min_by_key(|&(_, used)| used)
            .map(|(i, _)| i);
        let Some(vi) = victim else { return };
        let slot = self.slots[vi].take().expect("victim is live");
        if let Some(chain) = self.index.get_mut(&slot.key.fingerprint) {
            chain.retain(|&si| si != vi as u32);
            if chain.is_empty() {
                self.index.remove(&slot.key.fingerprint);
            }
        }
        self.free.push(vi as u32);
        self.live -= 1;
        self.evictions += 1;
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Partition, StoreArg, StoreId, TaskId};

    fn block() -> Partition {
        Partition::block(vec![4])
    }

    fn rw_task(id: u64, read: u64, write: u64) -> IndexTask {
        rw_task_shaped(id, read, write, 16)
    }

    fn rw_task_shaped(id: u64, read: u64, write: u64, len: u64) -> IndexTask {
        IndexTask::new(
            TaskId(id),
            0,
            "t",
            Domain::linear(4),
            vec![
                StoreArg::new(StoreId(read), block(), Privilege::Read).with_shape(vec![16u64]),
                StoreArg::new(StoreId(write), block(), Privilege::Write).with_shape(vec![len]),
            ],
            vec![],
        )
    }

    fn window_of(tasks: &[IndexTask]) -> TaskWindow {
        tasks.iter().cloned().collect()
    }

    #[test]
    fn figure7_isomorphic_windows_share_a_key() {
        // Left stream: S1/S2/S3; middle stream: S5/S6/S7 with the same access
        // pattern; right stream differs (T3 reads and writes S7).
        let left = vec![rw_task(0, 1, 2), rw_task(1, 2, 1), rw_task(2, 1, 3), rw_task(3, 3, 1)];
        let middle = vec![rw_task(0, 5, 6), rw_task(1, 6, 5), rw_task(2, 5, 7), rw_task(3, 7, 5)];
        let right = vec![rw_task(0, 5, 6), rw_task(1, 6, 5), rw_task(2, 7, 7), rw_task(3, 7, 5)];
        let l = CanonicalWindow::new(&left);
        let m = CanonicalWindow::new(&middle);
        let r = CanonicalWindow::new(&right);
        assert_eq!(l, m);
        assert_eq!(l.fingerprint(), m.fingerprint());
        assert_ne!(l, r);
        assert_eq!(l.len(), 4);
        assert_eq!(l.shapes.len(), 3);
    }

    #[test]
    fn shapes_affect_the_key() {
        let a = CanonicalWindow::new(&[rw_task_shaped(0, 0, 1, 16)]);
        let b = CanonicalWindow::new(&[rw_task_shaped(0, 0, 1, 64)]);
        assert_ne!(a, b);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn privileges_and_partitions_affect_the_key() {
        let a = CanonicalWindow::new(&[rw_task(0, 0, 1)]);
        let mut t = rw_task(0, 0, 1);
        t.args[0].privilege = Privilege::ReadWrite;
        let b = CanonicalWindow::new(&[t]);
        assert_ne!(a, b);
        let mut t = rw_task(0, 0, 1);
        t.args[1].partition = Partition::Replicate.into();
        let c = CanonicalWindow::new(&[t]);
        assert_ne!(a, c);
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let w1 = [rw_task(0, 1, 2)];
        let w2 = [rw_task(0, 5, 6)];
        let mut cache: MemoCache<usize> = MemoCache::new();
        assert!(cache.probe(&window_of(&w1)).is_none());
        cache.insert(CanonicalWindow::new(&w1), 42);
        assert_eq!(
            cache.probe(&window_of(&w2)),
            Some(&42),
            "isomorphic window hits the cache"
        );
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        // The full-key reference path agrees, on the hit and on the miss.
        assert_eq!(cache.get(&CanonicalWindow::new(&w2)), Some(&42));
        assert_eq!(cache.get(&CanonicalWindow::new(&[rw_task(0, 1, 1)])), None);
    }

    #[test]
    #[should_panic]
    fn missing_shape_panics() {
        let t = IndexTask::new(
            TaskId(0),
            0,
            "t",
            Domain::linear(4),
            vec![StoreArg::new(StoreId(0), block(), Privilege::Read)],
            vec![],
        );
        let _ = CanonicalWindow::new(&[t]);
    }

    #[test]
    fn near_isomorphic_windows_do_not_cross_hit() {
        // Same stores and shapes, but the second window breaks the access
        // pattern at the last argument.
        let a = [rw_task(0, 1, 2), rw_task(1, 2, 3)];
        let b = [rw_task(0, 1, 2), rw_task(1, 2, 2)];
        let mut cache: MemoCache<u32> = MemoCache::new();
        cache.insert(CanonicalWindow::new(&a), 7);
        assert_eq!(cache.probe(&window_of(&a)), Some(&7));
        assert_eq!(cache.probe(&window_of(&b)), None);
    }

    #[test]
    fn insert_replaces_in_place() {
        let w = [rw_task(0, 1, 2)];
        let mut cache: MemoCache<u32> = MemoCache::with_capacity_limit(1);
        cache.insert(CanonicalWindow::new(&w), 1);
        cache.insert(CanonicalWindow::new(&w), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0, "same-key insert must not evict");
        assert_eq!(cache.probe(&window_of(&w)), Some(&2));
    }

    #[test]
    fn lru_eviction_spares_the_current_window() {
        let wa = [rw_task(0, 1, 2)];
        let wb = [rw_task(0, 1, 2), rw_task(1, 2, 3)];
        let wc = [rw_task(0, 1, 2), rw_task(1, 2, 3), rw_task(2, 3, 1)];
        let mut cache: MemoCache<u32> = MemoCache::with_capacity_limit(2);
        cache.insert(CanonicalWindow::new(&wa), 1);
        cache.insert(CanonicalWindow::new(&wb), 2);
        // Touch A: it becomes most-recently used (the "currently processing"
        // window), so inserting C evicts B, never A.
        assert_eq!(cache.probe(&window_of(&wa)), Some(&1));
        cache.insert(CanonicalWindow::new(&wc), 3);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.probe(&window_of(&wa)), Some(&1), "MRU entry survives");
        assert_eq!(cache.probe(&window_of(&wb)), None, "LRU entry was evicted");
        assert_eq!(cache.probe(&window_of(&wc)), Some(&3));
    }

    #[test]
    fn offered_entries_take_only_spare_capacity_and_go_first() {
        let wa = [rw_task(0, 1, 2)];
        let wb = [rw_task(0, 1, 2), rw_task(1, 2, 3)];
        let wc = [rw_task(0, 1, 2), rw_task(1, 2, 3), rw_task(2, 3, 1)];
        let mut cache: MemoCache<u32> = MemoCache::with_capacity_limit(2);
        cache.insert(CanonicalWindow::new(&wa), 1);
        cache.offer(CanonicalWindow::new(&wa), 9);
        assert_eq!(cache.probe(&window_of(&wa)), Some(&1), "a resident key is kept");
        cache.offer(CanonicalWindow::new(&wb), 2);
        cache.offer(CanonicalWindow::new(&wc), 3);
        assert_eq!((cache.len(), cache.evictions()), (2, 0), "an offer never evicts");
        assert_eq!(cache.probe(&window_of(&wc)), None);
        // B was offered after A was last used, yet it is the victim.
        cache.insert(CanonicalWindow::new(&wc), 3);
        assert_eq!(cache.probe(&window_of(&wb)), None, "the offered entry goes first");
        assert_eq!(cache.probe(&window_of(&wa)), Some(&1));
        assert_eq!(cache.probe(&window_of(&wc)), Some(&3));
    }

    #[test]
    fn evicted_slots_are_reused() {
        let mut cache: MemoCache<u32> = MemoCache::with_capacity_limit(2);
        for i in 1..=6u64 {
            // Chains of different lengths are structurally distinct windows.
            let chain: Vec<IndexTask> = (0..i).map(|j| rw_task(j, j, j + 1)).collect();
            cache.insert(CanonicalWindow::new(&chain), i as u32);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 4);
    }
}
