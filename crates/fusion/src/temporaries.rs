//! Temporary store elimination (Section 5.1, Definition 4).
//!
//! After a fusible prefix has been identified, stores whose entire contents
//! are produced and consumed inside the fused task — and which neither pending
//! tasks nor the application can observe afterwards — are *temporary* and can
//! be demoted from distributed allocations to task-local allocations, where
//! the kernel pipeline can usually eliminate them entirely.
//!
//! Definition 4 has three conditions. The first two — every read inside the
//! fused task is covered by an earlier write through the same partition,
//! and no later task of the window reads or reduces the store — are
//! functions of the canonical window, so a memoized plan keeps them as a
//! [`TempMask`], one bit per fused argument. [`WindowLiveness`] finds every
//! segment's mask of a window in one reverse sweep plus one forward pass per
//! segment. Only the third condition, no live application reference, reads
//! runtime state; a launch subtracts it from the mask.
//! [`temporary_stores`] is the reference semantics of all three conditions.

use std::collections::HashSet;
use std::sync::Arc;

use ir::fingerprint::FnvHashMap;
use ir::{Domain, IndexTask, PartitionId, ShapeId, StoreId};

use crate::FusedTask;

/// Conditions 1 and 2 of Definition 4 for one fused segment: bit `i` is set
/// if the store of fused argument `i` (in [`FusedTask::args`] order) is
/// produced and consumed inside the segment and read by no later task of its
/// window. A launch demotes exactly the set arguments whose store has no live
/// application reference. Cloning shares the bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TempMask {
    words: Arc<[u64]>,
    len: usize,
}

impl TempMask {
    /// A mask of `len` arguments with no bit set.
    pub fn none(len: usize) -> Self {
        TempMask { words: vec![0; len.div_ceil(64)].into(), len }
    }

    /// Whether argument `i` is a candidate temporary.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "argument {i} of a {}-argument mask", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The bits in argument order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Number of arguments the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers no argument.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl FromIterator<bool> for TempMask {
    fn from_iter<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let (mut words, mut len) = (Vec::new(), 0);
        for bit in bits {
            if len % 64 == 0 {
                words.push(0);
            }
            *words.last_mut().expect("pushed above") |= u64::from(bit) << (len % 64);
            len += 1;
        }
        TempMask { words: words.into(), len }
    }
}

/// The reverse sweep over a window: each store's last reader or reducer.
/// Condition 2 of a segment that ends before position `end` holds for a
/// store exactly when that position is before `end`.
#[derive(Debug)]
pub struct WindowLiveness {
    last_read: FnvHashMap<StoreId, usize>,
}

/// Condition 1's state of one store along a segment's forward pass.
#[derive(Default)]
struct Coverage {
    covering_writes: Vec<PartitionId>,
    written: bool,
    /// A read without a covering write, or an unknown shape.
    blocked: bool,
}

impl WindowLiveness {
    /// Sweeps `window` once, back to front.
    pub fn new(window: &[IndexTask]) -> Self {
        let mut last_read = FnvHashMap::default();
        for (i, task) in window.iter().enumerate().rev() {
            for arg in &task.args {
                if arg.privilege.reads() || arg.privilege.reduces() {
                    last_read.entry(arg.store).or_insert(i);
                }
            }
        }
        WindowLiveness { last_read }
    }

    /// The mask of the segment `fused`, whose last task sits just before
    /// window position `end`: one forward pass over the segment's arguments
    /// in program order. `covers` runs once per distinct (partition, shape)
    /// written: many stores of a segment share both.
    pub fn mask(&self, fused: &FusedTask, end: usize) -> TempMask {
        let mut stores: FnvHashMap<StoreId, Coverage> =
            FnvHashMap::with_capacity_and_hasher(fused.args.len(), Default::default());
        let mut covers: FnvHashMap<(PartitionId, ShapeId), bool> = FnvHashMap::default();
        let mut covers = |partition: PartitionId, shape: ShapeId| {
            *covers
                .entry((partition, shape))
                .or_insert_with(|| partition.covers(&shape, &fused.launch_domain))
        };
        for arg in fused.tasks.iter().flat_map(|t| &t.args) {
            let store = stores.entry(arg.store).or_default();
            if store.blocked {
                continue;
            }
            let covered = |store: &Coverage| store.covering_writes.contains(&arg.partition);
            let reads = arg.privilege.reads() || arg.privilege.reduces();
            if arg.shape.is_unknown() || (reads && !covered(store)) {
                store.blocked = true;
                continue;
            }
            if arg.privilege.writes() {
                store.written = true;
                if !covered(store) && covers(arg.partition, arg.shape) {
                    store.covering_writes.push(arg.partition);
                }
            }
        }
        let last_read_before = |s: &StoreId| self.last_read.get(s).is_none_or(|&i| i < end);
        let candidate = |s: &StoreId| {
            let store = &stores[s];
            store.written && !store.blocked && last_read_before(s)
        };
        fused.args.iter().map(|(s, ..)| candidate(s)).collect()
    }
}

/// Computes the set of temporary stores for the fusion of `prefix`
/// (Definition 4). This is the reference semantics: it walks the pending
/// tasks once per candidate store. Launches read [`WindowLiveness::mask`]
/// instead; the verification gate and the tests hold it to this.
///
/// * `prefix` — the fusible prefix about to be replaced by a fused task.
/// * `pending` — tasks issued after the prefix that have not executed yet
///   (the rest of the window; borrowed straight from the task window, no
///   copy needed).
/// * `has_app_reference` — whether the application still holds a live
///   reference to a store (the split reference count of Section 5.1).
///
/// Store shapes for the `covers` check are read from the prefix's own
/// arguments (stamped by the Diffuse context), so no side shape map is
/// built or consulted.
pub fn temporary_stores(
    prefix: &[IndexTask],
    pending: &[IndexTask],
    mut has_app_reference: impl FnMut(StoreId) -> bool,
) -> HashSet<StoreId> {
    if prefix.is_empty() {
        return HashSet::new();
    }
    let launch_domain: &Domain = &prefix[0].launch_domain;
    // Candidate stores: everything accessed by the prefix.
    let mut candidates: Vec<StoreId> = Vec::new();
    for t in prefix {
        for s in t.stores() {
            if !candidates.contains(&s) {
                candidates.push(s);
            }
        }
    }
    let mut result = HashSet::new();
    'candidate: for store in candidates {
        // Condition 3: no live application references.
        if has_app_reference(store) {
            continue;
        }
        // Condition 2: no pending task reads or reduces the store.
        for t in pending {
            if t.reads(store) || t.reduces(store) {
                continue 'candidate;
            }
        }
        // Condition 1: every read of the store within the prefix is preceded
        // by a covering write through the same partition.
        let mut covering_writes: Vec<PartitionId> = Vec::new();
        let mut written_at_all = false;
        let mut shape_known = true;
        for t in prefix {
            for arg in t.args_for(store) {
                if arg.shape.is_unknown() {
                    shape_known = false;
                    break;
                }
                if arg.privilege.reads() || arg.privilege.reduces() {
                    // A read (or reduction, which also observes prior
                    // contents' absence) must be preceded by a covering write
                    // through the same partition.
                    if !covering_writes.contains(&arg.partition) {
                        continue 'candidate;
                    }
                }
                if arg.privilege.writes() {
                    written_at_all = true;
                    if arg.partition.covers(&arg.shape, launch_domain)
                        && !covering_writes.contains(&arg.partition)
                    {
                        covering_writes.push(arg.partition);
                    }
                }
            }
        }
        if !shape_known {
            continue;
        }
        // A store that is never written inside the prefix is an input, not a
        // temporary (its contents flow in from earlier execution).
        if !written_at_all {
            continue;
        }
        result.insert(store);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Partition, Privilege, Projection, ReductionOp, StoreArg, TaskId};

    fn block() -> Partition {
        Partition::block(vec![4])
    }

    /// Builds a task with every argument's shape stamped to `[16]` (the role
    /// the Diffuse context plays at submit time).
    fn task(id: u64, args: Vec<StoreArg>) -> IndexTask {
        let args = args
            .into_iter()
            .map(|a| a.with_shape(vec![16u64]))
            .collect();
        IndexTask::new(TaskId(id), 0, "t", Domain::linear(4), args, vec![])
    }

    /// The Figure 6 example: z = 2 * x; w = y + z; v = w ** 2, with a pending
    /// norm task reading part of w, v still referenced by the application, and
    /// x, y, z, w dropped by the application.
    fn figure6() -> (Vec<IndexTask>, Vec<IndexTask>) {
        let (x, y, z, w, v, norm) = (0u64, 1, 2, 3, 4, 5);
        let mult = task(
            0,
            vec![
                StoreArg::new(StoreId(x), block(), Privilege::Read),
                StoreArg::new(StoreId(z), block(), Privilege::Write),
            ],
        );
        let add = task(
            1,
            vec![
                StoreArg::new(StoreId(y), block(), Privilege::Read),
                StoreArg::new(StoreId(z), block(), Privilege::Read),
                StoreArg::new(StoreId(w), block(), Privilege::Write),
            ],
        );
        let pow = task(
            2,
            vec![
                StoreArg::new(StoreId(w), block(), Privilege::Read),
                StoreArg::new(StoreId(v), block(), Privilege::Write),
            ],
        );
        // The pending norm reads a sub-slice of w (a different partition) and
        // reduces into the norm scalar.
        let half = Partition::tiling(vec![2], vec![8], Projection::Identity);
        let norm_task = task(
            3,
            vec![
                StoreArg::new(StoreId(w), half, Privilege::Read),
                StoreArg::new(
                    StoreId(norm),
                    Partition::Replicate,
                    Privilege::Reduce(ReductionOp::Sum),
                ),
            ],
        );
        (vec![mult, add, pow], vec![norm_task])
    }

    #[test]
    fn figure6_only_z_is_temporary() {
        let (prefix, pending) = figure6();
        // The application still references v; x, y, z, w were deleted.
        let temps = temporary_stores(&prefix, &pending, |s| s == StoreId(4));
        assert_eq!(temps, HashSet::from([StoreId(2)]));
    }

    #[test]
    fn live_application_reference_blocks_elimination() {
        let (prefix, pending) = figure6();
        // If the application also still holds z, nothing is temporary.
        let temps = temporary_stores(&prefix, &pending, |s| {
            s == StoreId(4) || s == StoreId(2)
        });
        assert!(temps.is_empty());
    }

    #[test]
    fn pending_reader_blocks_elimination() {
        let (prefix, _) = figure6();
        // A pending task reading z keeps it alive.
        let reader = task(
            9,
            vec![StoreArg::new(StoreId(2), block(), Privilege::Read)],
        );
        let temps = temporary_stores(&prefix, &[reader], |s| s == StoreId(4));
        assert!(!temps.contains(&StoreId(2)));
    }

    #[test]
    fn non_covering_write_blocks_elimination() {
        // Write only part of the store, then read it through the full block
        // partition: the read observes data not produced in the fused task.
        let partial = Partition::tiling(vec![2], vec![0], Projection::Identity);
        let prefix = vec![
            task(0, vec![StoreArg::new(StoreId(0), partial, Privilege::Write)]),
            task(1, vec![StoreArg::new(StoreId(0), block(), Privilege::Read)]),
        ];
        let temps = temporary_stores(&prefix, &[], |_| false);
        assert!(temps.is_empty());
    }

    #[test]
    fn read_through_different_view_than_write_blocks_elimination() {
        let shifted = Partition::tiling(vec![4], vec![1], Projection::Identity);
        let prefix = vec![
            task(0, vec![StoreArg::new(StoreId(0), block(), Privilege::Write)]),
            task(1, vec![StoreArg::new(StoreId(0), shifted, Privilege::Read)]),
        ];
        let temps = temporary_stores(&prefix, &[], |_| false);
        assert!(temps.is_empty());
    }

    #[test]
    fn pure_input_is_not_temporary() {
        let prefix = vec![task(
            0,
            vec![
                StoreArg::new(StoreId(0), block(), Privilege::Read),
                StoreArg::new(StoreId(1), block(), Privilege::Write),
            ],
        )];
        let temps = temporary_stores(&prefix, &[], |_| false);
        assert!(!temps.contains(&StoreId(0)));
        // The dead output with no references is temporary.
        assert!(temps.contains(&StoreId(1)));
    }

    #[test]
    fn empty_prefix_has_no_temporaries() {
        assert!(temporary_stores(&[], &[], |_| false).is_empty());
    }

    #[test]
    fn figure6_mask_marks_z_and_v() {
        // Conditions 1 and 2 hold for z and for v; the application's handle
        // on v is subtracted at launch, not in the mask.
        let (prefix, pending) = figure6();
        let window: Vec<IndexTask> = prefix.iter().chain(&pending).cloned().collect();
        let fused = FusedTask::build(prefix.clone());
        let mask = WindowLiveness::new(&window).mask(&fused, prefix.len());
        let marked = fused.args.iter().zip(mask.iter()).filter(|(_, bit)| *bit);
        let marked: Vec<StoreId> = marked.map(|(&(s, ..), _)| s).collect();
        assert_eq!(marked, vec![StoreId(2), StoreId(4)]);
        // Fused as a segment of its own, the norm task demotes nothing.
        let norm = FusedTask::build(pending);
        assert!(WindowLiveness::new(&window).mask(&norm, window.len()).iter().all(|b| !b));
    }

    #[test]
    fn masks_keep_every_bit_past_a_word() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0 || i == 64).collect();
        let mask: TempMask = bits.iter().copied().collect();
        assert_eq!(mask.len(), 130);
        assert!(mask.iter().eq(bits));
        assert!(TempMask::none(70).iter().all(|b| !b));
        assert!(TempMask::none(0).is_empty());
    }
}
