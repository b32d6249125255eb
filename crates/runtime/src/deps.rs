//! Dependency tracking between task launches.
//!
//! The parallel executor may only overlap launches that do not conflict. Two
//! launches conflict when they touch the same region and at least one of them
//! writes (or reduces) it — the classic read-after-write, write-after-read and
//! write-after-write hazards. The [`DepTracker`] derives these hazards from
//! each launch's region read/write sets *in program order*, producing for each
//! new launch the set of earlier launches it must wait for.
//!
//! Both [`DepTracker`] and [`HbChecker`] serve the executor's worker path
//! only. With no workers, launches run in program order as they are
//! submitted, so every edge would be met before it was recorded: the
//! executor records none, and keeps a failed batch's dependence cone as
//! per-region marks under the same rules (see [`crate::executor`]).
//!
//! Tracking is at region granularity: two launches writing disjoint
//! rectangles of the same region are conservatively ordered. This is sound
//! (never reorders a conflict) and cheap — the analysis is O(accesses), not
//! O(points), which keeps submission on the critical path fast.

use std::collections::HashMap;

use crate::launch::RegionRequirement;
use crate::region::RegionId;

/// How one launch accesses one region, summarized for dependency analysis.
///
/// A launch's full access list is derived from its
/// [`crate::RegionRequirement`]s: `reads` covers the
/// `Read`/`ReadWrite` privileges, `writes` covers `Write`/`ReadWrite` and —
/// conservatively — `Reduce` (reduction reordering is not modelled).
///
/// # Example
///
/// ```
/// use runtime::{AccessSummary, RegionId};
///
/// let a = AccessSummary { region: RegionId(0), reads: true, writes: false };
/// assert!(a.reads && !a.writes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSummary {
    /// The region accessed.
    pub region: RegionId,
    /// Whether the launch reads the region's previous contents.
    pub reads: bool,
    /// Whether the launch writes (or reduces into) the region.
    pub writes: bool,
}

impl AccessSummary {
    /// Summarizes an access with the given privilege (reductions count as
    /// writes, as the tracker does not model reduction reordering).
    pub fn from_privilege(region: RegionId, privilege: ir::Privilege) -> Self {
        AccessSummary {
            region,
            reads: privilege.reads(),
            writes: privilege.writes() || privilege.reduces(),
        }
    }

    /// Summarizes a launch's region requirement.
    pub fn from_requirement(req: &RegionRequirement) -> Self {
        Self::from_privilege(req.region, req.privilege)
    }
}

/// Derives launch-ordering dependencies from region read/write sets.
///
/// Launches are identified by caller-chosen monotonically increasing ids
/// (the parallel executor uses its task counter). For every region the
/// tracker remembers the last writer and the readers since that write;
/// [`DepTracker::record`] returns the ids the new launch depends on:
///
/// * a **read** depends on the region's last writer (RAW);
/// * a **write** depends on the last writer (WAW) *and* every reader since
///   (WAR), and then becomes the new last writer, clearing the reader set.
///
/// # Example
///
/// ```
/// use runtime::{AccessSummary, DepTracker, RegionId};
///
/// let mut deps = DepTracker::default();
/// let r = RegionId(0);
/// let w = |writes: bool| AccessSummary { region: r, reads: !writes, writes };
/// assert_eq!(deps.record(0, &[w(true)]), vec![]);     // first write: no deps
/// assert_eq!(deps.record(1, &[w(false)]), vec![0]);   // read-after-write
/// assert_eq!(deps.record(2, &[w(false)]), vec![0]);   // independent reader
/// assert_eq!(deps.record(3, &[w(true)]), vec![0, 1, 2]); // write waits for all
/// ```
///
/// This module's maps keep `std`'s randomly seeded hasher, unlike the
/// workspace's other in-process maps ([`ir::fingerprint::FnvHasher`]): keyed
/// with it, `diffuse-bench`'s `cg_small` set-up ran in the heap's slower
/// state (≈79 µs against ≈65 µs; ROADMAP rule v) in every process, where
/// `std`'s seeds put one process in three or four there. Since launches
/// with no workers record no edges, the question concerns only the empty
/// tracker that `Executor::new` builds, and the layout it leaves.
#[derive(Debug, Default)]
pub struct DepTracker {
    last_writer: HashMap<RegionId, u64>,
    readers: HashMap<RegionId, Vec<u64>>,
}

impl DepTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        DepTracker::default()
    }

    /// Records launch `id`'s accesses and returns the ids of the earlier
    /// launches it must be ordered after (sorted, deduplicated, never
    /// containing `id` itself).
    pub fn record(&mut self, id: u64, accesses: &[AccessSummary]) -> Vec<u64> {
        let mut deps: Vec<u64> = Vec::new();
        for access in accesses {
            if access.reads || access.writes {
                if let Some(&w) = self.last_writer.get(&access.region) {
                    deps.push(w);
                }
            }
            if access.writes {
                if let Some(readers) = self.readers.get(&access.region) {
                    deps.extend(readers.iter().copied());
                }
            }
        }
        // Apply state updates after collecting deps so that a launch touching
        // the same region through several requirements does not depend on
        // itself.
        for access in accesses {
            if access.writes {
                self.last_writer.insert(access.region, id);
                self.readers.remove(&access.region);
            }
        }
        for access in accesses {
            // A read-only access registers as a reader unless this same launch
            // also writes the region (then it is already the last writer and
            // internal ordering covers the read).
            if access.reads
                && !access.writes
                && self.last_writer.get(&access.region) != Some(&id)
            {
                self.readers.entry(access.region).or_default().push(id);
            }
        }
        deps.retain(|&d| d != id);
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Forgets all recorded history (used after an executor flush, when every
    /// outstanding launch has completed).
    pub fn reset(&mut self) {
        self.last_writer.clear();
        self.readers.clear();
    }
}

/// Debug-only happens-before checker for the executor's workers
/// (`DIFFUSE_VERIFY` truthy in a debug build; see `docs/VERIFY.md`). With no
/// workers every launch starts in program order, which it would only
/// re-confirm, so the executor arms it only when it has workers.
///
/// The work-stealing executor promises that a task starts only after every
/// conflicting earlier task has completed, where *conflicting* means the two
/// tasks touch the same region and at least one writes it. This checker
/// validates that promise independently of the scheduler: it maintains the
/// transitive ancestor set of every registered task (the set-based equivalent
/// of a vector clock — `a` happens-before `b` iff `a ∈ ancestors(b)`) and, at
/// the moment a task begins executing, asserts that every conflicting
/// predecessor is both an ancestor through recorded [`DepTracker`] edges *and*
/// already completed. A violation is a scheduler bug and panics with the two
/// task ids and the region.
///
/// The checker is O(tasks²) per flush epoch and allocates per task; it is
/// meant for debug builds and tests, never the release hot path.
#[derive(Debug, Default)]
pub struct HbChecker {
    /// Transitive happens-before ancestors of each registered task.
    ancestors: HashMap<u64, std::collections::HashSet<u64>>,
    /// Program-order registration log: (id, accesses).
    log: Vec<(u64, Vec<AccessSummary>)>,
    /// Tasks that have finished executing (or were poisoned).
    completed: std::collections::HashSet<u64>,
}

impl HbChecker {
    /// Whether `DIFFUSE_VERIFY` asks for the checker ([`ir::env::flag`];
    /// off unless set). Combined with `cfg!(debug_assertions)` by the
    /// executor so release builds never pay for it.
    pub fn requested_by_env() -> bool {
        ir::env::flag("DIFFUSE_VERIFY", false)
    }

    /// Registers a task at submission, in program order, with the dependence
    /// edges the scheduler recorded for it. The task's ancestor set is the
    /// transitive closure of `deps`.
    pub fn register(&mut self, id: u64, accesses: &[AccessSummary], deps: &[u64]) {
        let mut ancestors = std::collections::HashSet::with_capacity(deps.len());
        for &d in deps {
            ancestors.insert(d);
            if let Some(up) = self.ancestors.get(&d) {
                ancestors.extend(up.iter().copied());
            }
        }
        self.ancestors.insert(id, ancestors);
        self.log.push((id, accesses.to_vec()));
    }

    /// Asserts, at the moment `id` starts executing, that every earlier
    /// conflicting task is an ancestor and has completed.
    ///
    /// # Panics
    ///
    /// Panics with the offending pair and region on a happens-before
    /// violation.
    pub fn check_start(&self, id: u64) {
        let Some(mine) = self.log.iter().find(|(i, _)| *i == id).map(|(_, a)| a) else {
            return;
        };
        let ancestors = self.ancestors.get(&id);
        for (other, theirs) in self.log.iter().take_while(|(i, _)| *i != id) {
            let conflict = mine.iter().find_map(|a| {
                theirs
                    .iter()
                    .find(|b| b.region == a.region && (a.writes || b.writes))
                    .map(|b| b.region)
            });
            let Some(region) = conflict else { continue };
            assert!(
                ancestors.is_some_and(|set| set.contains(other)),
                "happens-before violation: task {id} conflicts with earlier task {other} on \
                 {region:?} but has no dependence path to it"
            );
            assert!(
                self.completed.contains(other),
                "happens-before violation: task {id} started before conflicting predecessor \
                 {other} completed ({region:?})"
            );
        }
    }

    /// Marks `id` as completed (also used for poisoned tasks, whose failure
    /// is their completion).
    pub fn complete(&mut self, id: u64) {
        self.completed.insert(id);
    }

    /// Forgets the epoch (mirrors [`DepTracker::reset`] at executor flush).
    pub fn reset(&mut self) {
        self.ancestors.clear();
        self.log.clear();
        self.completed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(region: u64, reads: bool, writes: bool) -> AccessSummary {
        AccessSummary {
            region: RegionId(region),
            reads,
            writes,
        }
    }

    #[test]
    fn independent_regions_have_no_deps() {
        let mut t = DepTracker::new();
        assert!(t.record(0, &[acc(0, false, true)]).is_empty());
        assert!(t.record(1, &[acc(1, false, true)]).is_empty());
        assert!(t.record(2, &[acc(2, true, false), acc(3, false, true)]).is_empty());
    }

    #[test]
    fn raw_war_waw_hazards_are_ordered() {
        let mut t = DepTracker::new();
        t.record(0, &[acc(0, false, true)]);
        // RAW: read of region 0 sees writer 0.
        assert_eq!(t.record(1, &[acc(0, true, false)]), vec![0]);
        // WAW + WAR: next write waits for writer 0 and reader 1.
        assert_eq!(t.record(2, &[acc(0, false, true)]), vec![0, 1]);
        // RAW against the new writer only.
        assert_eq!(t.record(3, &[acc(0, true, false)]), vec![2]);
    }

    #[test]
    fn concurrent_readers_do_not_depend_on_each_other() {
        let mut t = DepTracker::new();
        t.record(0, &[acc(0, false, true)]);
        assert_eq!(t.record(1, &[acc(0, true, false)]), vec![0]);
        assert_eq!(t.record(2, &[acc(0, true, false)]), vec![0]);
        assert_eq!(t.record(3, &[acc(0, true, false)]), vec![0]);
    }

    #[test]
    fn read_write_same_region_in_one_launch_has_no_self_dep() {
        let mut t = DepTracker::new();
        t.record(0, &[acc(0, false, true)]);
        // Launch 1 reads region 0 through one requirement and writes it
        // through another (aliasing views).
        let deps = t.record(1, &[acc(0, true, false), acc(0, false, true)]);
        assert_eq!(deps, vec![0]);
        // The next reader depends on launch 1, the new last writer.
        assert_eq!(t.record(2, &[acc(0, true, false)]), vec![1]);
    }

    #[test]
    fn reset_forgets_history() {
        let mut t = DepTracker::new();
        t.record(0, &[acc(0, false, true)]);
        t.reset();
        assert!(t.record(1, &[acc(0, true, true)]).is_empty());
    }

    #[test]
    fn hb_checker_accepts_ordered_conflicts() {
        let mut hb = HbChecker::default();
        hb.register(0, &[acc(0, false, true)], &[]);
        hb.register(1, &[acc(0, true, false)], &[0]);
        hb.check_start(0);
        hb.complete(0);
        hb.check_start(1);
        hb.complete(1);
    }

    #[test]
    fn hb_checker_accepts_transitive_ordering() {
        // 0 -> 1 -> 2; task 2 conflicts with 0 but only lists 1 as a direct
        // dep — the transitive closure must cover it.
        let mut hb = HbChecker::default();
        hb.register(0, &[acc(0, false, true)], &[]);
        hb.register(1, &[acc(0, true, true)], &[0]);
        hb.register(2, &[acc(0, false, true)], &[1]);
        hb.complete(0);
        hb.complete(1);
        hb.check_start(2);
    }

    #[test]
    #[should_panic(expected = "no dependence path")]
    fn hb_checker_rejects_missing_edge() {
        let mut hb = HbChecker::default();
        hb.register(0, &[acc(0, false, true)], &[]);
        hb.register(1, &[acc(0, true, false)], &[]);
        hb.complete(0);
        hb.check_start(1);
    }

    #[test]
    #[should_panic(expected = "before conflicting predecessor")]
    fn hb_checker_rejects_premature_start() {
        let mut hb = HbChecker::default();
        hb.register(0, &[acc(0, false, true)], &[]);
        hb.register(1, &[acc(0, true, false)], &[0]);
        // 0 never completed.
        hb.check_start(1);
    }

    #[test]
    fn hb_checker_ignores_read_read_and_disjoint_pairs() {
        let mut hb = HbChecker::default();
        hb.register(0, &[acc(0, true, false)], &[]);
        hb.register(1, &[acc(0, true, false), acc(1, false, true)], &[]);
        // Read-read on region 0, disjoint region 1: no ordering required.
        hb.check_start(1);
        hb.reset();
        // After reset the history is gone.
        hb.register(2, &[acc(0, true, false)], &[]);
        hb.check_start(2);
    }
}
