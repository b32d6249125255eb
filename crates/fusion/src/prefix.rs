//! Greedy search for the longest fusible prefix of a task window.

use ir::IndexTask;

use crate::constraints::{ConstraintState, FusionViolation};

/// Returns the length of the longest prefix of `tasks` that satisfies all
/// fusion constraints (Section 4.2). A result of `0` or `1` means no fusion is
/// possible at the head of the window.
pub fn find_fusible_prefix(tasks: &[IndexTask]) -> usize {
    let mut state = ConstraintState::new();
    tasks.iter().take_while(|task| state.try_push(task).is_ok()).count()
}

/// Partitions a whole window into consecutive fusible segments in **one
/// forward pass**: whenever a task violates a constraint against the running
/// prefix, the current segment is closed and the constraint state restarts at
/// that task (a lone task is always admissible against a fresh state).
///
/// The returned lengths sum to `tasks.len()`. Draining segments front to back
/// therefore never re-checks the untouched suffix — the per-flush
/// re-analysis the greedy `find_fusible_prefix`-per-iteration loop used to
/// pay is eliminated.
///
/// # Example
///
/// ```
/// use ir::{Domain, IndexTask, Partition, Privilege, StoreArg, StoreId, TaskId};
/// use fusion::fusible_segments;
///
/// let t = |id, points, store: u64| IndexTask::new(
///     TaskId(id), 0, "t", Domain::linear(points),
///     vec![StoreArg::new(StoreId(store), Partition::block(vec![4]), Privilege::Write)],
///     vec![],
/// );
/// // A launch-domain change splits the window into two segments.
/// let tasks = vec![t(0, 4, 0), t(1, 4, 1), t(2, 8, 2)];
/// assert_eq!(fusible_segments(&tasks), vec![2, 1]);
/// ```
pub fn fusible_segments(tasks: &[IndexTask]) -> Vec<usize> {
    fusible_segments_explained(tasks)
        .into_iter()
        .map(|(len, _)| len)
        .collect()
}

/// Like [`fusible_segments`], additionally pairing every segment with the
/// constraint violation that *closed* it — the reason the first task of the
/// next segment could not join. The final segment carries `None` (nothing
/// rejected it; the window simply ended). This is the raw material for the
/// why-not explainer ([`crate::explain`]) and for the per-constraint
/// rejection counters in `ExecutionStats`.
pub fn fusible_segments_explained(
    tasks: &[IndexTask],
) -> Vec<(usize, Option<FusionViolation>)> {
    let mut segments = Vec::new();
    let mut state = ConstraintState::new();
    for task in tasks {
        if let Err(violation) = state.try_push(task) {
            segments.push((state.len().max(1), Some(violation)));
            state = ConstraintState::new();
            state
                .try_push(task)
                .expect("a single task is always admissible against an empty state");
        }
    }
    if !state.is_empty() {
        segments.push((state.len(), None));
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Domain, Partition, Privilege, Projection, StoreArg, StoreId, TaskId};

    fn block() -> Partition {
        Partition::block(vec![4])
    }

    fn elementwise(id: u64, inputs: &[u64], output: u64) -> IndexTask {
        let mut args: Vec<StoreArg> = inputs
            .iter()
            .map(|&s| StoreArg::new(StoreId(s), block(), Privilege::Read))
            .collect();
        args.push(StoreArg::new(StoreId(output), block(), Privilege::Write));
        IndexTask::new(TaskId(id), 0, "ew", Domain::linear(4), args, vec![])
    }

    #[test]
    fn empty_window() {
        assert_eq!(find_fusible_prefix(&[]), 0);
    }

    #[test]
    fn whole_window_fuses() {
        // The Figure 1c stream before the aliasing copy: a chain of adds and a
        // multiply over disjoint temporaries.
        let tasks = vec![
            elementwise(0, &[0, 1], 10),
            elementwise(1, &[10, 2], 11),
            elementwise(2, &[11, 3], 12),
            elementwise(3, &[12, 4], 13),
            elementwise(4, &[13], 14),
        ];
        assert_eq!(find_fusible_prefix(&tasks), 5);
    }

    #[test]
    fn figure1_stencil_prefix_stops_before_aliasing_copy() {
        // Stores: 0 = grid. Views of grid: center (offset 1), north (offset 0),
        // east (offset 2). Temporaries 10..; work = 13.
        let grid = StoreId(0);
        let center = Partition::tiling(vec![4], vec![1], Projection::Identity);
        let north = Partition::tiling(vec![4], vec![0], Projection::Identity);
        let east = Partition::tiling(vec![4], vec![2], Projection::Identity);
        let domain = Domain::linear(4);
        let add1 = IndexTask::new(
            TaskId(0),
            0,
            "add",
            domain.clone(),
            vec![
                StoreArg::new(grid, center.clone(), Privilege::Read),
                StoreArg::new(grid, north, Privilege::Read),
                StoreArg::new(StoreId(10), block(), Privilege::Write),
            ],
            vec![],
        );
        let add2 = IndexTask::new(
            TaskId(1),
            0,
            "add",
            domain.clone(),
            vec![
                StoreArg::new(StoreId(10), block(), Privilege::Read),
                StoreArg::new(grid, east, Privilege::Read),
                StoreArg::new(StoreId(11), block(), Privilege::Write),
            ],
            vec![],
        );
        let mult = IndexTask::new(
            TaskId(2),
            1,
            "mult",
            domain.clone(),
            vec![
                StoreArg::new(StoreId(11), block(), Privilege::Read),
                StoreArg::new(StoreId(12), block(), Privilege::Write),
            ],
            vec![0.2],
        );
        let copy_back = IndexTask::new(
            TaskId(3),
            2,
            "copy",
            domain,
            vec![
                StoreArg::new(StoreId(12), block(), Privilege::Read),
                StoreArg::new(grid, center, Privilege::Write),
            ],
            vec![],
        );
        let tasks = vec![add1, add2, mult, copy_back];
        // The adds and the multiply fuse; the copy back into the aliased
        // center view does not (anti dependence against the north/east reads).
        assert_eq!(find_fusible_prefix(&tasks), 3);
        let segments = fusible_segments_explained(&tasks);
        assert_eq!(segments[0].0, 3);
        assert!(matches!(
            segments[0].1,
            Some(FusionViolation::AntiDependence { store }) if store == grid
        ));
    }

    #[test]
    fn prefix_respects_launch_domain_change() {
        let mut tasks = vec![elementwise(0, &[0], 1), elementwise(1, &[1], 2)];
        tasks.push(IndexTask::new(
            TaskId(2),
            0,
            "other",
            Domain::linear(8),
            vec![StoreArg::new(StoreId(2), block(), Privilege::Read)],
            vec![],
        ));
        assert_eq!(find_fusible_prefix(&tasks), 2);
        let segments = fusible_segments_explained(&tasks);
        assert_eq!(segments[0].0, 2);
        assert!(matches!(
            segments[0].1,
            Some(FusionViolation::LaunchDomainMismatch { .. })
        ));
    }

    #[test]
    fn segments_agree_with_iterated_prefix_search() {
        // The one-pass segmentation must produce exactly the lengths the
        // drain-and-research loop would: find a prefix, drop it, repeat.
        let grid = StoreId(0);
        let shifted = Partition::tiling(vec![4], vec![1], Projection::Identity);
        let mut tasks = vec![elementwise(0, &[0, 1], 10)];
        // Reads grid through a shifted view...
        tasks.push(IndexTask::new(
            TaskId(1),
            0,
            "r",
            Domain::linear(4),
            vec![
                StoreArg::new(grid, shifted, Privilege::Read),
                StoreArg::new(StoreId(11), block(), Privilege::Write),
            ],
            vec![],
        ));
        // ...then an anti-dependent write-back through the block view splits
        // the window here.
        tasks.push(IndexTask::new(
            TaskId(2),
            0,
            "w",
            Domain::linear(4),
            vec![
                StoreArg::new(StoreId(11), block(), Privilege::Read),
                StoreArg::new(grid, block(), Privilege::Write),
            ],
            vec![],
        ));
        tasks.push(elementwise(3, &[12], 13));
        let segments = fusible_segments(&tasks);
        assert_eq!(segments.iter().sum::<usize>(), tasks.len());
        assert_eq!(segments.len(), 2, "the anti dependence splits the window");
        let mut rest: &[IndexTask] = &tasks;
        for &seg in &segments {
            assert_eq!(find_fusible_prefix(rest).max(1).min(rest.len()), seg);
            rest = &rest[seg..];
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn segments_of_empty_window() {
        assert!(fusible_segments(&[]).is_empty());
    }

    #[test]
    fn soundness_against_ground_truth_on_fused_prefix() {
        // Every pair of tasks inside a fusible prefix must be fusible by the
        // ground-truth dependence maps of Definition 3.
        use std::collections::HashMap;
        let tasks = vec![
            elementwise(0, &[0, 1], 10),
            elementwise(1, &[10, 2], 11),
            elementwise(2, &[11], 12),
        ];
        let len = find_fusible_prefix(&tasks);
        let shapes: HashMap<StoreId, Vec<u64>> = [0, 1, 2, 10, 11, 12]
            .into_iter()
            .map(|s| (StoreId(s), vec![16]))
            .collect();
        for i in 0..len {
            for j in (i + 1)..len {
                assert!(ir::fusible_ground_truth(&tasks[i], &tasks[j], &shapes));
            }
        }
    }
}
