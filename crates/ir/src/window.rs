//! Buffered windows of index tasks awaiting analysis, with incremental
//! structural fingerprints.
//!
//! The memoization layer (Section 5.2, Figure 7) replays analysis results on
//! *isomorphic* windows — windows that differ only in store identities. To
//! make the steady-state lookup allocation-free, the window maintains a
//! 64-bit **structural fingerprint** of the De-Bruijn-canonicalized task
//! stream *incrementally*: each [`TaskWindow::push`] folds the new task into
//! a rolling hash, so probing the memo cache at flush time never walks the
//! buffered tasks to build a lookup key. A flush probes once, for the whole
//! window, resolves memoized arguments through the window's one store
//! numbering ([`TaskWindow::numbering`]) and then [`TaskWindow::clear`]s it.
//! The same numbering verifies the probe's candidates and keys a miss's
//! insert, so a flush numbers its window once. Only [`TaskWindow::reorder`]
//! refolds.
//!
//! The fold is [`FnvHasher`], the workspace's in-process hasher, and the
//! numbering is keyed with it too.

use std::hash::{Hash, Hasher};

use crate::fingerprint::{splitmix64, FnvHashMap, FnvHasher};
use crate::store::StoreId;
use crate::task::IndexTask;

/// Seed of the rolling fingerprint (an arbitrary odd constant).
const FINGERPRINT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Incremental De-Bruijn canonicalization + rolling hash over a task stream.
///
/// Stores are replaced by their first-occurrence index (so isomorphic streams
/// hash identically); partitions and shapes enter through their interner ids
/// (structural identity). The state is the **single source of truth** for
/// window fingerprints and store numberings: [`TaskWindow`] folds tasks
/// through it as they are pushed, and the fusion crate builds a canonical
/// window's key from the state itself ([`FingerprintState::arg_indices`]),
/// so the two can never diverge.
///
/// # Example
///
/// ```
/// use ir::{window_fingerprint, Domain, IndexTask, Partition, Privilege, StoreArg, StoreId, TaskId};
///
/// let t = |s: u64| IndexTask::new(
///     TaskId(0), 0, "t", Domain::linear(4),
///     vec![StoreArg::new(StoreId(s), Partition::block(vec![4]), Privilege::Write)],
///     vec![],
/// );
/// // Isomorphic streams (same pattern, different store ids) share a fingerprint.
/// assert_eq!(window_fingerprint(&[t(1)]), window_fingerprint(&[t(7)]));
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintState {
    fingerprint: u64,
    numbering: FnvHashMap<StoreId, u32>,
    order: Vec<StoreId>,
    /// The canonical index of every folded argument, in fold order.
    indices: Vec<u32>,
}

impl Default for FingerprintState {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintState {
    /// Creates an empty state (fingerprint of the empty stream).
    pub fn new() -> Self {
        FingerprintState {
            fingerprint: FINGERPRINT_SEED,
            numbering: FnvHashMap::default(),
            order: Vec::new(),
            indices: Vec::new(),
        }
    }

    /// The fingerprint of the stream folded so far.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The store assigned canonical index `idx`, if any.
    pub fn store_at(&self, idx: usize) -> Option<StoreId> {
        self.order.get(idx).copied()
    }

    /// The canonical index of `store`, if it occurred in the stream.
    pub fn index_of(&self, store: StoreId) -> Option<u32> {
        self.numbering.get(&store).copied()
    }

    /// The canonical index of every argument folded so far, task by task in
    /// argument order: what a memo key is built from and what a probe
    /// verifies against, with no store lookup.
    pub fn arg_indices(&self) -> &[u32] {
        &self.indices
    }

    /// Clears the state back to the empty stream, retaining allocations.
    pub fn reset(&mut self) {
        self.fingerprint = FINGERPRINT_SEED;
        self.numbering.clear();
        self.order.clear();
        self.indices.clear();
    }

    /// Folds one task into the rolling fingerprint, returning the new value.
    /// Performs no heap allocation beyond amortized growth of the store
    /// numbering and the argument indices.
    pub fn push(&mut self, task: &IndexTask) -> u64 {
        let mut h = FnvHasher::default();
        task.kind.hash(&mut h);
        task.launch_domain.hash(&mut h);
        task.scalars.len().hash(&mut h);
        task.args.len().hash(&mut h);
        for arg in &task.args {
            let idx = match self.numbering.get(&arg.store) {
                Some(&i) => i,
                None => {
                    let i = self.order.len() as u32;
                    self.numbering.insert(arg.store, i);
                    self.order.push(arg.store);
                    // The shape of a store enters the fingerprint at its
                    // first occurrence, mirroring the canonical window's
                    // per-store shape list.
                    arg.shape.hash(&mut h);
                    i
                }
            };
            self.indices.push(idx);
            idx.hash(&mut h);
            arg.partition.hash(&mut h);
            arg.privilege.hash(&mut h);
        }
        self.fingerprint = splitmix64(self.fingerprint ^ h.finish());
        self.fingerprint()
    }
}

/// Fingerprint of a whole task stream in one pass (the batch counterpart of
/// [`FingerprintState`]; both run the same folding code).
pub fn window_fingerprint(tasks: &[IndexTask]) -> u64 {
    let mut state = FingerprintState::new();
    for t in tasks {
        state.push(t);
    }
    state.fingerprint()
}

/// A FIFO window of index tasks that have been submitted by the application
/// but not yet analyzed and forwarded to the underlying runtime (Section 4).
///
/// The window maintains the rolling structural fingerprint of its tasks (see
/// [`FingerprintState`]); [`TaskWindow::fingerprint`] is O(1) at any point,
/// which is what makes the memoization fast path allocation-free.
#[derive(Debug, Clone, Default)]
pub struct TaskWindow {
    tasks: Vec<IndexTask>,
    state: FingerprintState,
}

impl TaskWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a task to the window, extending the rolling fingerprint.
    pub fn push(&mut self, task: IndexTask) {
        self.state.push(&task);
        self.tasks.push(task);
    }

    /// Number of buffered tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The buffered tasks in program order.
    pub fn tasks(&self) -> &[IndexTask] {
        &self.tasks
    }

    /// The structural fingerprint of the whole buffered window. O(1): the
    /// value is maintained incrementally as tasks are pushed.
    pub fn fingerprint(&self) -> u64 {
        self.state.fingerprint()
    }

    /// The first-occurrence numbering the buffered tasks were folded under
    /// ([`FingerprintState::store_at`] and [`FingerprintState::index_of`]
    /// resolve canonical indices both ways).
    pub fn numbering(&self) -> &FingerprintState {
        &self.state
    }

    /// Empties the window in one step, retaining its allocations.
    pub fn clear(&mut self) {
        self.tasks.clear();
        self.state.reset();
    }

    /// Replaces the buffered tasks with a permutation of themselves (the
    /// horizontal fusion pass reorders the window before the vertical
    /// analysis) and refolds the rolling fingerprint for the new order — the
    /// window's only refold. The canonical store numbering restarts from the
    /// permuted stream, so the memo probe keys on the permuted canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` does not have the same length as the window; debug
    /// builds additionally check that the task-id multiset is unchanged.
    pub fn reorder(&mut self, tasks: Vec<IndexTask>) {
        assert_eq!(
            tasks.len(),
            self.tasks.len(),
            "reorder must preserve the buffered task count"
        );
        #[cfg(debug_assertions)]
        {
            let mut before: Vec<u64> = self.tasks.iter().map(|t| t.id.0).collect();
            let mut after: Vec<u64> = tasks.iter().map(|t| t.id.0).collect();
            before.sort_unstable();
            after.sort_unstable();
            debug_assert_eq!(before, after, "reorder must be a permutation of the window");
        }
        self.tasks = tasks;
        self.state.reset();
        for t in &self.tasks {
            self.state.push(t);
        }
    }
}

impl FromIterator<IndexTask> for TaskWindow {
    fn from_iter<T: IntoIterator<Item = IndexTask>>(iter: T) -> Self {
        let mut w = TaskWindow::new();
        w.extend(iter);
        w
    }
}

impl Extend<IndexTask> for TaskWindow {
    fn extend<T: IntoIterator<Item = IndexTask>>(&mut self, iter: T) {
        for t in iter {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Partition, Privilege, StoreArg, StoreId, TaskId};

    fn task(id: u64) -> IndexTask {
        IndexTask::new(TaskId(id), 0, "t", Domain::linear(1), vec![], vec![])
    }

    fn rw(id: u64, read: u64, write: u64) -> IndexTask {
        IndexTask::new(
            TaskId(id),
            0,
            "t",
            Domain::linear(4),
            vec![
                StoreArg::new(StoreId(read), Partition::block(vec![4]), Privilege::Read),
                StoreArg::new(StoreId(write), Partition::block(vec![4]), Privilege::Write),
            ],
            vec![],
        )
    }

    #[test]
    fn push_and_clear() {
        let mut w = TaskWindow::new();
        assert!(w.is_empty());
        for i in 0..5 {
            w.push(task(i));
        }
        assert_eq!(w.len(), 5);
        assert_eq!(w.tasks()[4].id, TaskId(4));
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn clear_empties_the_window() {
        let stream = [rw(0, 1, 2), rw(1, 2, 3)];
        let mut w: TaskWindow = stream.clone().into_iter().collect();
        let numbering = w.numbering();
        assert_eq!(numbering.fingerprint(), window_fingerprint(&stream));
        assert_eq!(numbering.store_at(2), Some(StoreId(3)));
        assert_eq!(numbering.store_at(3), None);
        assert_eq!(numbering.index_of(StoreId(2)), Some(1));
        assert_eq!(numbering.index_of(StoreId(9)), None);
        assert_eq!(numbering.arg_indices(), &[0, 1, 1, 2]);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.fingerprint(), window_fingerprint(&[]));
        assert_eq!(w.numbering().store_at(0), None);
        assert_eq!(w.numbering().index_of(StoreId(2)), None);
        assert!(w.numbering().arg_indices().is_empty());
    }

    #[test]
    fn extend_appends() {
        let mut w = TaskWindow::new();
        w.extend((0..2).map(task));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn rolling_fingerprint_matches_batch() {
        let mut w = TaskWindow::new();
        let stream = [rw(0, 1, 2), rw(1, 2, 3), rw(2, 3, 1)];
        for t in stream.clone() {
            w.push(t);
        }
        assert_eq!(w.fingerprint(), window_fingerprint(&stream));
    }

    #[test]
    fn clear_restarts_the_numbering() {
        let mut w = TaskWindow::new();
        let stream = [rw(0, 1, 2), rw(1, 2, 3), rw(2, 3, 1)];
        w.push(stream[0].clone());
        w.clear();
        // The next window numbers its stores from its own head.
        for t in stream[1..].iter().cloned() {
            w.push(t);
        }
        assert_eq!(w.fingerprint(), window_fingerprint(&stream[1..]));
        assert_eq!(w.numbering().store_at(0), Some(StoreId(2)));
    }

    #[test]
    fn isomorphic_windows_share_fingerprints() {
        let a = [rw(0, 1, 2), rw(1, 2, 1)];
        let b = [rw(7, 5, 6), rw(9, 6, 5)];
        let c = [rw(0, 1, 2), rw(1, 1, 2)]; // different access pattern
        assert_eq!(window_fingerprint(&a), window_fingerprint(&b));
        assert_ne!(window_fingerprint(&a), window_fingerprint(&c));
    }

    #[test]
    fn reorder_refolds_fingerprints_for_the_new_order() {
        let mut w = TaskWindow::new();
        let stream = [rw(0, 1, 2), rw(1, 3, 4), rw(2, 5, 6)];
        for t in stream.clone() {
            w.push(t);
        }
        let permuted = vec![stream[2].clone(), stream[0].clone(), stream[1].clone()];
        w.reorder(permuted.clone());
        assert_eq!(w.fingerprint(), window_fingerprint(&permuted));
        assert_eq!(w.tasks()[0].id, TaskId(2));
        // Canonical numbering restarts from the permuted head.
        assert_eq!(w.numbering().store_at(0), Some(StoreId(5)));
        // Subsequent pushes extend the permuted stream consistently.
        w.push(rw(3, 7, 8));
        let mut expected = permuted;
        expected.push(rw(3, 7, 8));
        assert_eq!(w.fingerprint(), window_fingerprint(&expected));
    }

    #[test]
    #[should_panic]
    fn reorder_with_wrong_length_panics() {
        let mut w = TaskWindow::new();
        w.push(rw(0, 1, 2));
        w.reorder(vec![]);
    }

    #[test]
    fn canonical_store_tracks_first_occurrence() {
        let mut w = TaskWindow::new();
        w.push(rw(0, 4, 9));
        assert_eq!(w.numbering().store_at(0), Some(StoreId(4)));
        assert_eq!(w.numbering().store_at(1), Some(StoreId(9)));
        assert_eq!(w.numbering().store_at(2), None);
    }
}
