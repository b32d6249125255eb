//! Horizontal fusion: packing *independent* equal-domain fusible segments
//! side by side into one wide launch.
//!
//! The vertical prefix analysis ([`crate::prefix`]) only fuses tasks that are
//! adjacent in submission order; a window that interleaves independent request
//! chains with fusion breakers (launch-domain changes, reductions read back,
//! aliasing write-backs) is cut into many small segments even though most of
//! them could share a launch. This module runs **after**
//! [`crate::fusible_segments`] and **before** the vertical pass re-analyzes
//! the stream: it groups segments that are pairwise independent and share a
//! launch domain, and emits a permutation of the window that places each
//! group's segments back to back. The unchanged vertical pass then fuses each
//! group into a single wide launch — skeleton memoization, temporary
//! elimination and kernel composition all apply to the merged stream without
//! modification.
//!
//! # Soundness
//!
//! The permutation produced by [`plan_horizontal`] only reorders task pairs
//! that are proven independent, so any execution of the permuted stream
//! computes the same values as the original program order:
//!
//! * **Within a group**, members are admitted only if their footprints are
//!   disjoint up to shared *read-only* stores ([`SegmentFootprint::admits`]).
//!   Mutually independent segments may execute in any interleaving, so the
//!   canonical intra-group order (see below) is valid.
//! * **Across groups**, groups launch in program order of their *first*
//!   segment, and a segment only joins a group after every intervening
//!   segment it would overtake is checked for a memory conflict
//!   ([`HorizontalViolation::OrderingDependence`]). Intervening segments
//!   whose own group launches earlier than the joined group are skipped —
//!   they execute before the candidate either way, preserving program order.
//!
//! Dependent segments therefore never flip: a pair with any write/reduce
//! overlap either stays in program order or is rejected with a classified
//! [`HorizontalViolation`]. The equivalence tests in
//! `crates/fusion/tests/horizontal_equivalence.rs` encode this argument as a
//! property over random interleavings rather than asserting it.
//!
//! # Canonical member order
//!
//! Group members are sorted by their standalone structural fingerprint
//! ([`ir::window_fingerprint`], stable on ties), so isomorphic batches
//! submitted in different orders produce the same permuted stream up to store
//! renaming and hit one shared memo entry. Batches whose segments share
//! stores *asymmetrically* may still canonicalize differently under
//! different submission orders (full order-insensitivity is graph
//! canonicalization); the fingerprint sort covers the symmetric and
//! isomorphic cases that batched request streams produce.

use std::ops::Range;

use ir::fingerprint::FnvHashMap;
use ir::{window_fingerprint, Domain, IndexTask, StoreId};

/// Why a segment could not join a horizontal group. Mirrors
/// [`crate::FusionViolation`] but is classified from the *cross-segment*
/// perspective: the group's accumulated footprint plays the role of the
/// earlier accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HorizontalViolation {
    /// The candidate's launch domain differs from the group's.
    LaunchDomainMismatch {
        /// Launch domain of the group.
        expected: Domain,
        /// Launch domain of the rejected segment.
        found: Domain,
    },
    /// The candidate reads a store the group writes (read after write).
    TrueDependence {
        /// The store involved.
        store: StoreId,
    },
    /// The candidate writes a store the group reads (write after read).
    AntiDependence {
        /// The store involved.
        store: StoreId,
    },
    /// Both the group and the candidate write the store (write after write).
    OutputDependence {
        /// The store involved.
        store: StoreId,
    },
    /// The group or the candidate reduces to a store the other side touches.
    /// Conservative: even two pure reductions to the same store are rejected,
    /// so merged segments never share a partially reduced value.
    ReductionInterference {
        /// The store involved.
        store: StoreId,
    },
    /// Joining the group would move the candidate past an intervening segment
    /// it conflicts with (the reorder itself — not the merge — is unsound).
    OrderingDependence {
        /// The store shared with the intervening segment.
        store: StoreId,
    },
}

impl std::fmt::Display for HorizontalViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HorizontalViolation::LaunchDomainMismatch { expected, found } => {
                write!(f, "launch domain {found} differs from group domain {expected}")
            }
            HorizontalViolation::TrueDependence { store } => {
                write!(f, "candidate reads {store} which the group writes")
            }
            HorizontalViolation::AntiDependence { store } => {
                write!(f, "candidate writes {store} which the group reads")
            }
            HorizontalViolation::OutputDependence { store } => {
                write!(f, "both the group and the candidate write {store}")
            }
            HorizontalViolation::ReductionInterference { store } => {
                write!(f, "reduction to {store} interferes across segments")
            }
            HorizontalViolation::OrderingDependence { store } => {
                write!(f, "reorder would overtake a segment conflicting on {store}")
            }
        }
    }
}

/// How one footprint touches one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Effect {
    reads: bool,
    writes: bool,
    reduces: bool,
}

impl Effect {
    fn touches(self) -> bool {
        self.reads || self.writes || self.reduces
    }
}

/// The store footprint of one fusible segment: its launch domain plus, per
/// store, whether the segment reads, writes or reduces to it. Partition
/// identities are deliberately *not* tracked: horizontal merging requires
/// full independence (any write/reduce overlap rejects, through any view),
/// which is strictly stronger than the vertical constraints — two segments
/// the vertical pass split apart can never be adjacent-merged back, only
/// packed from a distance.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFootprint {
    launch_domain: Domain,
    effects: FnvHashMap<StoreId, Effect>,
}

impl SegmentFootprint {
    /// Summarizes the footprint of a fusible segment.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty (segments produced by
    /// [`crate::fusible_segments`] never are).
    pub fn of_tasks(tasks: &[IndexTask]) -> SegmentFootprint {
        assert!(!tasks.is_empty(), "a fusible segment is never empty");
        let mut effects: FnvHashMap<StoreId, Effect> = FnvHashMap::default();
        for task in tasks {
            for arg in &task.args {
                let e = effects.entry(arg.store).or_default();
                e.reads |= arg.privilege.reads();
                e.writes |= arg.privilege.writes();
                e.reduces |= arg.privilege.reduces();
            }
        }
        SegmentFootprint {
            launch_domain: tasks[0].launch_domain.clone(),
            effects,
        }
    }

    /// The launch domain shared by every task in the segment (the vertical
    /// segmentation guarantees uniformity).
    pub fn launch_domain(&self) -> &Domain {
        &self.launch_domain
    }

    /// Checks whether `candidate` may join a group with this accumulated
    /// footprint: equal launch domains and pairwise-disjoint store footprints,
    /// where shared stores are admitted only when *both* sides access them
    /// read-only.
    ///
    /// # Errors
    ///
    /// Returns the classified violation otherwise.
    pub fn admits(&self, candidate: &SegmentFootprint) -> Result<(), HorizontalViolation> {
        if self.launch_domain != candidate.launch_domain {
            return Err(HorizontalViolation::LaunchDomainMismatch {
                expected: self.launch_domain.clone(),
                found: candidate.launch_domain.clone(),
            });
        }
        for (&store, &theirs) in &candidate.effects {
            let Some(&ours) = self.effects.get(&store) else {
                continue;
            };
            if (ours.reduces && theirs.touches()) || (theirs.reduces && ours.touches()) {
                return Err(HorizontalViolation::ReductionInterference { store });
            }
            if ours.writes && theirs.writes {
                return Err(HorizontalViolation::OutputDependence { store });
            }
            if ours.writes && theirs.reads {
                return Err(HorizontalViolation::TrueDependence { store });
            }
            if ours.reads && theirs.writes {
                return Err(HorizontalViolation::AntiDependence { store });
            }
        }
        Ok(())
    }

    /// The first store on which reordering `self` and `other` would be
    /// observable: shared with a write or reduce on either side. `None` means
    /// the two segments commute (read-read sharing is fine through any view).
    pub fn conflict_with(&self, other: &SegmentFootprint) -> Option<StoreId> {
        // Iterate the smaller map for the common case of small candidates.
        let (a, b) = if self.effects.len() <= other.effects.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut hit: Option<StoreId> = None;
        for (&store, &ea) in &a.effects {
            let Some(&eb) = b.effects.get(&store) else {
                continue;
            };
            let conflicting =
                ea.writes || ea.reduces || eb.writes || eb.reduces;
            if conflicting && hit.map(|h| store < h).unwrap_or(true) {
                hit = Some(store);
            }
        }
        hit
    }

    /// Absorbs a joining member's footprint into the group's.
    fn absorb(&mut self, member: &SegmentFootprint) {
        for (&store, &e) in &member.effects {
            let slot = self.effects.entry(store).or_default();
            slot.reads |= e.reads;
            slot.writes |= e.writes;
            slot.reduces |= e.reduces;
        }
    }
}

/// One horizontal group: segment indices (into the vertical segmentation)
/// that will be emitted back to back, in canonical fingerprint order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizontalGroup {
    /// Members in canonical emission order (sorted by per-segment structural
    /// fingerprint, stable on ties). The first element in *program* order
    /// determines the group's launch position.
    pub members: Vec<usize>,
}

/// The result of planning a horizontal pass over one window: how the
/// vertical segments regroup, the resulting permutation, and (for the
/// negative-path tests) why each unmerged segment was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizontalPlan {
    /// Groups in launch order (program order of each group's first segment).
    pub groups: Vec<HorizontalGroup>,
    /// Task range of each vertical segment in the original window.
    ranges: Vec<Range<usize>>,
    /// Total constituent tasks inside groups with two or more members.
    merged_tasks: u64,
    /// For each segment that joined no group despite groups existing before
    /// it: the violation against the *earliest* group it was tried against.
    /// `None` for segments that merged or had no earlier group.
    rejections: Vec<Option<HorizontalViolation>>,
}

impl HorizontalPlan {
    /// Groups in launch order.
    pub fn groups(&self) -> &[HorizontalGroup] {
        &self.groups
    }

    /// Total constituent tasks packed into multi-segment groups — the value
    /// `ExecutionStats::horizontally_fused_tasks` accumulates per flush.
    pub fn merged_tasks(&self) -> u64 {
        self.merged_tasks
    }

    /// Whether the plan leaves the window untouched (every group is a
    /// singleton, so the emission order is the program order).
    pub fn is_identity(&self) -> bool {
        self.merged_tasks == 0
    }

    /// Why segment `seg` did not merge: the violation against the earliest
    /// group it was tried against, if any groups preceded it.
    pub fn rejection(&self, seg: usize) -> Option<&HorizontalViolation> {
        self.rejections.get(seg).and_then(|r| r.as_ref())
    }

    /// Materializes the permuted window: groups in launch order, members in
    /// canonical order, tasks of each segment in program order. The output
    /// is a permutation of `tasks` (same length, same multiset).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is not the window the plan was computed over.
    pub fn apply(&self, tasks: &[IndexTask]) -> Vec<IndexTask> {
        let total: usize = self.ranges.iter().map(|r| r.len()).sum();
        assert_eq!(
            tasks.len(),
            total,
            "plan was computed over a window of {total} tasks"
        );
        let mut out = Vec::with_capacity(tasks.len());
        for group in &self.groups {
            for &seg in &group.members {
                out.extend_from_slice(&tasks[self.ranges[seg].clone()]);
            }
        }
        out
    }
}

/// Plans the horizontal pass over one window: `segments` is the vertical
/// segmentation of `tasks` (from [`crate::fusible_segments`]; lengths summing
/// to `tasks.len()`). Greedy first-fit in program order: each segment joins
/// the earliest group that admits it ([`SegmentFootprint::admits`]) *and*
/// that it can reach without overtaking a conflicting intervening segment;
/// otherwise it starts its own group.
///
/// # Panics
///
/// Panics if the segment lengths do not sum to `tasks.len()`.
pub fn plan_horizontal(tasks: &[IndexTask], segments: &[usize]) -> HorizontalPlan {
    assert_eq!(
        segments.iter().sum::<usize>(),
        tasks.len(),
        "segment lengths must cover the window"
    );
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(segments.len());
    let mut start = 0usize;
    for &len in segments {
        ranges.push(start..start + len);
        start += len;
    }
    let footprints: Vec<SegmentFootprint> = ranges
        .iter()
        .map(|r| SegmentFootprint::of_tasks(&tasks[r.clone()]))
        .collect();

    struct Group {
        first: usize,
        members: Vec<usize>,
        footprint: SegmentFootprint,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(segments.len());
    let mut rejections: Vec<Option<HorizontalViolation>> = vec![None; segments.len()];

    for j in 0..segments.len() {
        let mut joined: Option<usize> = None;
        for gi in 0..groups.len() {
            let violation = match groups[gi].footprint.admits(&footprints[j]) {
                Err(v) => Some(v),
                Ok(()) => {
                    // The candidate would overtake every segment between the
                    // group's launch position and itself; each one must
                    // commute with it unless it executes earlier anyway
                    // (same group, or a group launching before this one).
                    let mut blocked = None;
                    for k in (groups[gi].first + 1)..j {
                        let kg = group_of[k];
                        if kg == gi || groups[kg].first < groups[gi].first {
                            continue;
                        }
                        if let Some(store) = footprints[k].conflict_with(&footprints[j]) {
                            blocked = Some(HorizontalViolation::OrderingDependence { store });
                            break;
                        }
                    }
                    blocked
                }
            };
            match violation {
                Some(v) => {
                    if rejections[j].is_none() {
                        rejections[j] = Some(v);
                    }
                }
                None => {
                    joined = Some(gi);
                    break;
                }
            }
        }
        match joined {
            Some(gi) => {
                let footprint = footprints[j].clone();
                groups[gi].members.push(j);
                groups[gi].footprint.absorb(&footprint);
                group_of.push(gi);
                rejections[j] = None;
            }
            None => {
                group_of.push(groups.len());
                groups.push(Group {
                    first: j,
                    members: vec![j],
                    footprint: footprints[j].clone(),
                });
            }
        }
    }

    // Canonical member order: sort by standalone segment fingerprint (stable,
    // so isomorphic ties keep program order — which is itself canonical for
    // isomorphic members).
    let seg_fps: Vec<u64> = ranges
        .iter()
        .map(|r| window_fingerprint(&tasks[r.clone()]))
        .collect();
    let mut merged_tasks = 0u64;
    let groups: Vec<HorizontalGroup> = groups
        .into_iter()
        .map(|mut g| {
            g.members.sort_by_key(|&m| seg_fps[m]);
            if g.members.len() > 1 {
                merged_tasks += g.members.iter().map(|&m| segments[m] as u64).sum::<u64>();
            }
            HorizontalGroup { members: g.members }
        })
        .collect();

    HorizontalPlan {
        groups,
        ranges,
        merged_tasks,
        rejections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::fusible_segments;
    use ir::{Partition, Privilege, Projection, ReductionOp, StoreArg, TaskId};

    fn block() -> Partition {
        Partition::block(vec![4])
    }

    fn chain_task(id: u64, points: u64, input: u64, output: u64) -> IndexTask {
        IndexTask::new(
            TaskId(id),
            0,
            format!("t{id}"),
            Domain::linear(points),
            vec![
                StoreArg::new(StoreId(input), block(), Privilege::Read),
                StoreArg::new(StoreId(output), block(), Privilege::Write),
            ],
            vec![],
        )
    }

    /// A domain-`points` chain of `len` tasks over stores `base..`.
    fn chain(id0: u64, points: u64, base: u64, len: u64) -> Vec<IndexTask> {
        (0..len)
            .map(|i| chain_task(id0 + i, points, base + i, base + i + 1))
            .collect()
    }

    /// A domain-1 "breaker" task writing its own scratch store.
    fn breaker(id: u64, store: u64) -> IndexTask {
        IndexTask::new(
            TaskId(id),
            1,
            format!("b{id}"),
            Domain::linear(1),
            vec![StoreArg::new(StoreId(store), Partition::Replicate, Privilege::Write)],
            vec![],
        )
    }

    fn plan(tasks: &[IndexTask]) -> HorizontalPlan {
        let segments = fusible_segments(tasks);
        plan_horizontal(tasks, &segments)
    }

    #[test]
    fn disjoint_chains_separated_by_breakers_pack_into_two_groups() {
        // chain A (domain 4) | breaker (domain 1) | chain B (domain 4) |
        // breaker (domain 1): four vertical segments, two horizontal groups.
        let mut tasks = chain(0, 4, 0, 3);
        tasks.push(breaker(3, 100));
        tasks.extend(chain(4, 4, 10, 3));
        tasks.push(breaker(7, 101));
        let segments = fusible_segments(&tasks);
        assert_eq!(segments, vec![3, 1, 3, 1]);
        let p = plan_horizontal(&tasks, &segments);
        assert_eq!(p.groups().len(), 2);
        assert_eq!(p.merged_tasks(), 8, "all eight tasks sit in merged groups");
        assert!(!p.is_identity());
        // Group launch order follows the first member's program order.
        assert!(p.groups()[0].members.contains(&0) && p.groups()[0].members.contains(&2));
        assert!(p.groups()[1].members.contains(&1) && p.groups()[1].members.contains(&3));
    }

    #[test]
    fn apply_emits_groups_back_to_back_and_preserves_the_multiset() {
        let mut tasks = chain(0, 4, 0, 2);
        tasks.push(breaker(2, 100));
        tasks.extend(chain(3, 4, 10, 2));
        let p = plan(&tasks);
        let out = p.apply(&tasks);
        assert_eq!(out.len(), tasks.len());
        let mut ids: Vec<u64> = out.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        // Both chains precede the breaker in the permuted stream.
        let pos = |id: u64| out.iter().position(|t| t.id.0 == id).unwrap();
        assert!(pos(3) < pos(2) && pos(4) < pos(2));
        // The permuted stream now fuses the chains into ONE vertical segment.
        assert_eq!(fusible_segments(&out), vec![4, 1]);
    }

    #[test]
    fn identity_plan_for_a_window_with_nothing_to_pack() {
        let tasks = chain(0, 4, 0, 3);
        let p = plan(&tasks);
        assert!(p.is_identity());
        assert_eq!(p.merged_tasks(), 0);
        assert_eq!(p.apply(&tasks), tasks);
    }

    // ----- Negative paths: each precondition rejects with its own class -----

    #[test]
    fn unequal_launch_domains_are_classified() {
        let mut tasks = chain(0, 4, 0, 1);
        tasks.push(breaker(1, 100));
        tasks.extend(chain(2, 8, 10, 1)); // same shape, different domain
        let segments = fusible_segments(&tasks);
        assert_eq!(segments.len(), 3);
        let p = plan_horizontal(&tasks, &segments);
        assert!(p.is_identity(), "nothing merges");
        assert!(matches!(
            p.rejection(2),
            Some(HorizontalViolation::LaunchDomainMismatch { .. })
        ));
    }

    #[test]
    fn overlapping_write_footprints_are_output_dependences() {
        // Both segments write store 1 (through the same partition, so the
        // vertical pass split them only because of the breaker) — horizontal
        // merging must still refuse: members may be reordered.
        let mut tasks = vec![chain_task(0, 4, 0, 1)];
        tasks.push(breaker(1, 100));
        tasks.push(chain_task(2, 4, 2, 1));
        let segments = fusible_segments(&tasks);
        assert_eq!(segments.len(), 3);
        let p = plan_horizontal(&tasks, &segments);
        assert!(p.is_identity());
        assert_eq!(
            p.rejection(2),
            Some(&HorizontalViolation::OutputDependence { store: StoreId(1) })
        );
    }

    #[test]
    fn war_pairs_are_anti_dependences() {
        // Segment 0 reads store 5; segment 2 writes store 5.
        let mut tasks = vec![chain_task(0, 4, 5, 1)];
        tasks.push(breaker(1, 100));
        tasks.push(chain_task(2, 4, 7, 5));
        let p = plan(&tasks);
        assert!(p.is_identity());
        assert_eq!(
            p.rejection(2),
            Some(&HorizontalViolation::AntiDependence { store: StoreId(5) })
        );
    }

    #[test]
    fn raw_pairs_are_true_dependences() {
        // Segment 0 writes store 1; segment 2 reads store 1 through a
        // *different* partition (a genuine cross-launch dependence).
        let shifted = Partition::tiling(vec![4], vec![1], Projection::Identity);
        let mut tasks = vec![chain_task(0, 4, 0, 1)];
        tasks.push(breaker(1, 100));
        tasks.push(IndexTask::new(
            TaskId(2),
            0,
            "r",
            Domain::linear(4),
            vec![
                StoreArg::new(StoreId(1), shifted, Privilege::Read),
                StoreArg::new(StoreId(3), block(), Privilege::Write),
            ],
            vec![],
        ));
        let p = plan(&tasks);
        assert!(p.is_identity());
        assert_eq!(
            p.rejection(2),
            Some(&HorizontalViolation::TrueDependence { store: StoreId(1) })
        );
    }

    #[test]
    fn reductions_to_a_shared_store_are_reduction_interference() {
        let reduce = |id: u64, input: u64| {
            IndexTask::new(
                TaskId(id),
                2,
                format!("sum{id}"),
                Domain::linear(4),
                vec![
                    StoreArg::new(StoreId(input), block(), Privilege::Read),
                    StoreArg::new(
                        StoreId(50),
                        Partition::Replicate,
                        Privilege::Reduce(ReductionOp::Sum),
                    ),
                ],
                vec![],
            )
        };
        let mut tasks = vec![reduce(0, 0)];
        tasks.push(breaker(1, 100));
        tasks.push(reduce(2, 10));
        let p = plan(&tasks);
        assert!(p.is_identity());
        assert_eq!(
            p.rejection(2),
            Some(&HorizontalViolation::ReductionInterference { store: StoreId(50) })
        );
    }

    #[test]
    fn conflicting_intervening_segment_is_an_ordering_dependence() {
        // Segment 0: chain over stores 0->1 (domain 4).
        // Segment 1: domain-8 task WRITING store 20 (breaker by domain).
        // Segment 2: chain reading store 20 (domain 4) — independent of the
        // group but dependent on the segment it would overtake.
        let mut tasks = vec![chain_task(0, 4, 0, 1)];
        tasks.push(IndexTask::new(
            TaskId(1),
            1,
            "w20",
            Domain::linear(8),
            vec![StoreArg::new(StoreId(20), block(), Privilege::Write)],
            vec![],
        ));
        tasks.push(chain_task(2, 4, 20, 21));
        let segments = fusible_segments(&tasks);
        assert_eq!(segments.len(), 3);
        let p = plan_horizontal(&tasks, &segments);
        assert!(p.is_identity());
        assert_eq!(
            p.rejection(2),
            Some(&HorizontalViolation::OrderingDependence { store: StoreId(20) })
        );
    }

    #[test]
    fn intervening_member_of_an_earlier_group_does_not_block() {
        // chains A1 | fin1 | A2 | fin2 where fin_k reads chain_k's output:
        // fin2 may join fin1's group even though A2 (which it overtakes in
        // segment order) conflicts with... nothing: A2's group launches
        // first, so it is skipped; fin2's real dependence on A2 is satisfied
        // because the chain group launches before the fin group.
        let fin = |id: u64, input: u64, output: u64| {
            IndexTask::new(
                TaskId(id),
                3,
                format!("fin{id}"),
                Domain::linear(1),
                vec![
                    StoreArg::new(StoreId(input), Partition::Replicate, Privilege::Read),
                    StoreArg::new(StoreId(output), Partition::Replicate, Privilege::Write),
                ],
                vec![],
            )
        };
        let mut tasks = chain(0, 4, 0, 2); // writes 1, 2
        tasks.push(fin(2, 2, 100));
        tasks.extend(chain(3, 4, 10, 2)); // writes 11, 12
        tasks.push(fin(5, 12, 101));
        let segments = fusible_segments(&tasks);
        assert_eq!(segments, vec![2, 1, 2, 1]);
        let p = plan_horizontal(&tasks, &segments);
        assert_eq!(p.groups().len(), 2, "chains pack together, fins pack together");
        assert_eq!(p.merged_tasks(), 6);
        let out = p.apply(&tasks);
        // Permuted stream: both chains, then both fins.
        let kinds: Vec<u32> = out.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, vec![0, 0, 0, 0, 3, 3]);
        // And the vertical pass now sees exactly two wide segments.
        assert_eq!(fusible_segments(&out), vec![4, 2]);
    }

    #[test]
    fn shared_read_only_inputs_are_admitted() {
        // Two chains both read store 0 (read-read sharing) but write disjoint
        // outputs: they merge.
        let ew = |id: u64, out: u64| chain_task(id, 4, 0, out);
        let mut tasks = vec![ew(0, 1)];
        tasks.push(breaker(1, 100));
        tasks.push(ew(2, 2));
        let p = plan(&tasks);
        assert_eq!(p.merged_tasks(), 2);
        assert!(p.rejection(2).is_none());
    }

    #[test]
    fn canonical_member_order_is_submission_order_insensitive() {
        // Two structurally DISTINCT segments (lengths 1 and 2) packed into
        // one group must emit in fingerprint order regardless of which was
        // submitted first.
        let build = |first_long: bool| {
            let mut tasks = Vec::new();
            let (a0, b0) = (0u64, 10u64);
            if first_long {
                tasks.extend(chain(0, 4, a0, 2));
                tasks.push(breaker(2, 100));
                tasks.extend(chain(3, 4, b0, 1));
            } else {
                tasks.extend(chain(0, 4, b0, 1));
                tasks.push(breaker(1, 100));
                tasks.extend(chain(2, 4, a0, 2));
            }
            let p = plan(&tasks);
            p.apply(&tasks)
        };
        let a = build(true);
        let b = build(false);
        assert_eq!(
            window_fingerprint(&a),
            window_fingerprint(&b),
            "isomorphic batches canonicalize identically under permutation"
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_segments_panic() {
        let tasks = chain(0, 4, 0, 2);
        let _ = plan_horizontal(&tasks, &[1]);
    }
}
