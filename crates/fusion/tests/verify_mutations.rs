//! Mutation-style negative property tests for `fusion::verify`.
//!
//! Each test generates a random *valid* window transform — an admitted
//! fusible prefix, a sound horizontal permutation, a faithful memo skeleton —
//! and applies one targeted corruption of the kind a buggy planner or a
//! fingerprint collision could introduce: aliasing a partition across a
//! dependence, swapping two dependent launches, dropping or duplicating a
//! task, perturbing a cached skeleton argument. The verifier must reject each
//! mutant with the *specific* [`VerifyError`] variant naming the violated
//! invariant, and must keep admitting the uncorrupted original.

use fusion::{
    fusible_segments, plan_horizontal, verify_fused_prefix, verify_horizontal_plan,
    verify_reorder, verify_skeleton, DepKind, FusedTask, VerifyError,
};
use ir::{
    Domain, IndexTask, Partition, PartitionId, Privilege, Projection, ReductionOp, StoreArg,
    StoreId, TaskId,
};
use proptest::prelude::*;

const POINTS: u64 = 4;

fn block() -> Partition {
    Partition::block(vec![4])
}

/// A tiling shifted by one element: overlaps neighbouring launch points, so
/// any dependence through it is not point-wise.
fn shifted() -> Partition {
    Partition::tiling(vec![4], vec![1], Projection::Identity)
}

fn task(id: u64, points: u64, args: Vec<StoreArg>) -> IndexTask {
    IndexTask::new(TaskId(id), 0, format!("t{id}"), Domain::linear(points), args, vec![])
}

/// A dependence chain: task `i` reads store `i` and writes store `i + 1`,
/// all through the same block partition — a prefix the vertical pass admits
/// in full.
fn chain(n: usize) -> Vec<IndexTask> {
    (0..n)
        .map(|i| {
            task(
                i as u64,
                POINTS,
                vec![
                    StoreArg::new(StoreId(i as u64), block(), Privilege::Read),
                    StoreArg::new(StoreId(i as u64 + 1), block(), Privilege::Write),
                ],
            )
        })
        .collect()
}

proptest! {
    /// Uncorrupted chains of any length re-verify: the baseline every
    /// mutation below perturbs.
    #[test]
    fn valid_chains_verify(n in 2usize..7) {
        prop_assert!(verify_fused_prefix(&chain(n)).unwrap() > 0);
    }

    /// Re-pointing one task's *read* through an aliasing partition turns the
    /// RAW edge from its producer non-point-wise; the verifier names the
    /// edge, the store and both endpoints.
    #[test]
    fn aliased_raw_edge_is_rejected(n in 2usize..7, pick in 0usize..16) {
        let mut tasks = chain(n);
        let t = 1 + pick % (n - 1);
        tasks[t].args[0].partition = shifted().into();
        prop_assert_eq!(
            verify_fused_prefix(&tasks),
            Err(VerifyError::NonPointwiseDependence {
                kind: DepKind::True,
                store: StoreId(t as u64),
                earlier: TaskId(t as u64 - 1),
                later: TaskId(t as u64),
            })
        );
    }

    /// A writer that overwrites a previously read store through an aliasing
    /// partition creates a non-point-wise WAR edge.
    #[test]
    fn aliased_war_edge_is_rejected(readers in 1usize..4) {
        let mut tasks: Vec<IndexTask> = (0..readers)
            .map(|i| {
                task(
                    i as u64,
                    POINTS,
                    vec![
                        StoreArg::new(StoreId(0), block(), Privilege::Read),
                        StoreArg::new(StoreId(10 + i as u64), block(), Privilege::Write),
                    ],
                )
            })
            .collect();
        tasks.push(task(
            readers as u64,
            POINTS,
            vec![StoreArg::new(StoreId(0), shifted(), Privilege::Write)],
        ));
        prop_assert_eq!(
            verify_fused_prefix(&tasks),
            Err(VerifyError::NonPointwiseDependence {
                kind: DepKind::Anti,
                store: StoreId(0),
                earlier: TaskId(0),
                later: TaskId(readers as u64),
            })
        );
    }

    /// A read of a store that an earlier task reduces into would observe a
    /// partially folded value; rejected whatever the partitions.
    #[test]
    fn reduction_overlap_is_rejected(leading in 0usize..3) {
        let mut tasks = chain(leading.max(1));
        let base = tasks.len() as u64;
        tasks.push(task(
            base,
            POINTS,
            vec![StoreArg::new(
                StoreId(100),
                Partition::Replicate,
                Privilege::Reduce(ReductionOp::Sum),
            )],
        ));
        tasks.push(task(
            base + 1,
            POINTS,
            vec![StoreArg::new(StoreId(100), Partition::Replicate, Privilege::Read)],
        ));
        prop_assert_eq!(
            verify_fused_prefix(&tasks),
            Err(VerifyError::NonPointwiseDependence {
                kind: DepKind::Reduction,
                store: StoreId(100),
                earlier: TaskId(base),
                later: TaskId(base + 1),
            })
        );
    }

    /// Perturbing one task's launch domain breaks the group-wide domain
    /// equality every fused launch requires.
    #[test]
    fn domain_drift_is_rejected(n in 2usize..7, pick in 0usize..16) {
        let mut tasks = chain(n);
        let t = 1 + pick % (n - 1);
        tasks[t].launch_domain = Domain::linear(POINTS * 2);
        prop_assert!(matches!(
            verify_fused_prefix(&tasks),
            Err(VerifyError::LaunchDomainMismatch { task, .. }) if task == TaskId(t as u64)
        ));
    }

    /// Swapping two adjacent launches of a dependence chain flips a RAW pair;
    /// the reorder check names the flipped pair and the store they share.
    #[test]
    fn swapping_dependent_launches_is_rejected(n in 2usize..7, pick in 0usize..16) {
        let tasks = chain(n);
        let i = pick % (n - 1);
        let mut permuted = tasks.clone();
        permuted.swap(i, i + 1);
        prop_assert_eq!(
            verify_reorder(&tasks, &permuted),
            Err(VerifyError::DependenceOrderViolation {
                store: StoreId(i as u64 + 1),
                earlier: TaskId(i as u64),
                later: TaskId(i as u64 + 1),
            })
        );
    }

    /// Tasks over disjoint stores commute: any pairwise swap is admitted.
    #[test]
    fn swapping_independent_launches_is_admitted(n in 2usize..7, pick in 0usize..16) {
        let tasks: Vec<IndexTask> = (0..n)
            .map(|i| {
                task(
                    i as u64,
                    POINTS,
                    vec![
                        StoreArg::new(StoreId(10 * i as u64), block(), Privilege::Read),
                        StoreArg::new(StoreId(10 * i as u64 + 1), block(), Privilege::Write),
                    ],
                )
            })
            .collect();
        let i = pick % (n - 1);
        let mut permuted = tasks.clone();
        permuted.swap(i, i + 1);
        prop_assert!(verify_reorder(&tasks, &permuted).is_ok());
    }

    /// Dropping any task makes the permutation check fail on that task.
    #[test]
    fn dropped_task_is_not_a_permutation(n in 2usize..7, pick in 0usize..16) {
        let tasks = chain(n);
        let drop = pick % n;
        let mut permuted = tasks.clone();
        permuted.remove(drop);
        prop_assert_eq!(
            verify_reorder(&tasks, &permuted),
            Err(VerifyError::NotAPermutation { task: TaskId(drop as u64) })
        );
    }

    /// Duplicating one task over another is caught as a duplicate id.
    #[test]
    fn duplicated_task_is_not_a_permutation(n in 3usize..7, pick in 0usize..16) {
        let tasks = chain(n);
        let overwritten = pick % n;
        let duplicated = (overwritten + 1) % n;
        let mut permuted = tasks.clone();
        permuted[overwritten] = tasks[duplicated].clone();
        prop_assert_eq!(
            verify_reorder(&tasks, &permuted),
            Err(VerifyError::NotAPermutation { task: TaskId(duplicated as u64) })
        );
    }

    /// A faithful memo skeleton re-verifies; corrupting any merged argument's
    /// privilege (a structural divergence only a fingerprint collision could
    /// produce) is caught at that argument, and dropping one is caught by the
    /// count check.
    #[test]
    fn corrupted_skeleton_is_rejected(n in 2usize..7, pick in 0usize..32) {
        let tasks = chain(n);
        let by_id = |s: StoreId| Some(s.0 as u32);
        let fused = FusedTask::build(tasks.clone());
        // In a chain, store ids coincide with first-occurrence canonical
        // numbering, so the skeleton is the fused arg list verbatim and the
        // window's numbering is the identity on ids.
        let skeleton: Vec<(u32, PartitionId, Privilege)> = fused
            .args
            .iter()
            .map(|(s, p, pr)| (s.0 as u32, *p, *pr))
            .collect();
        prop_assert!(verify_skeleton(&tasks, by_id, &skeleton).unwrap() > 0);

        let idx = pick % skeleton.len();
        let mut corrupt = skeleton.clone();
        corrupt[idx].2 = match corrupt[idx].2 {
            Privilege::Read => Privilege::ReadWrite,
            _ => Privilege::Read,
        };
        prop_assert_eq!(
            verify_skeleton(&tasks, by_id, &corrupt),
            Err(VerifyError::SkeletonArgMismatch { index: idx })
        );
        prop_assert_eq!(
            verify_skeleton(&tasks, by_id, &skeleton[..skeleton.len() - 1]),
            Err(VerifyError::SkeletonArgCount {
                expected: skeleton.len(),
                found: skeleton.len() - 1,
            })
        );
    }

    /// Random batches of independent chains split by domain-1 breakers: the
    /// horizontal planner merges the chain segments, and both the plan and
    /// the permutation it induces re-verify — while a plan for a sub-window
    /// fails the exact-cover check.
    #[test]
    fn planner_output_reverifies_and_subplans_fail_cover(
        chains in 2usize..5,
        len in 1usize..3,
    ) {
        let mut tasks = Vec::new();
        let mut id = 0u64;
        for c in 0..chains {
            let base = 100 * c as u64;
            for i in 0..len {
                tasks.push(task(
                    id,
                    POINTS,
                    vec![
                        StoreArg::new(StoreId(base + i as u64), block(), Privilege::Read),
                        StoreArg::new(StoreId(base + i as u64 + 1), block(), Privilege::Write),
                    ],
                ));
                id += 1;
            }
            if c + 1 < chains {
                // Domain-1 breaker on a unique store: its own segment.
                tasks.push(task(
                    id,
                    1,
                    vec![StoreArg::new(
                        StoreId(9000 + c as u64),
                        Partition::Replicate,
                        Privilege::Write,
                    )],
                ));
                id += 1;
            }
        }
        let segments = fusible_segments(&tasks);
        prop_assert!(segments.len() > 1);
        let plan = plan_horizontal(&tasks, &segments);
        prop_assert!(verify_horizontal_plan(&tasks, &segments, &plan).unwrap() > 0);
        let permuted = plan.apply(&tasks);
        prop_assert!(verify_reorder(&tasks, &permuted).unwrap() > 0);

        // A plan over only the first segment cannot cover this window.
        let sub_plan = plan_horizontal(&tasks[..segments[0]], &segments[..1]);
        prop_assert!(matches!(
            verify_horizontal_plan(&tasks, &segments, &sub_plan),
            Err(VerifyError::BadGroupCover { .. })
        ));
    }
}
