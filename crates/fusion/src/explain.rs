//! The fusion why-not explainer.
//!
//! [`explain_window`] turns every window split into a structured report:
//! which task was rejected, which constraint fired and what change to the
//! program would admit fusion. The report is computed from the same one-pass
//! segmentation the execution path uses
//! ([`crate::prefix::fusible_segments_explained`]), so it always agrees with
//! what the runtime actually fused. It is built only when asked for
//! (`Context::explain`); the flush counts rejections straight off the
//! segmentation.

use ir::{IndexTask, TaskId};

use crate::constraints::FusionViolation;
use crate::prefix::fusible_segments_explained;

/// Why one window split happened: the violation and a suggestion that would
/// admit fusion.
#[derive(Debug, Clone)]
pub struct BoundaryReport {
    /// Window index of the rejected task (the first task of the next
    /// segment).
    pub boundary: usize,
    /// Id of the rejected task.
    pub task: TaskId,
    /// Name of the rejected task.
    pub task_name: String,
    /// The constraint that fired.
    pub violation: FusionViolation,
    /// What change to the program would admit fusion across this boundary.
    pub suggestion: String,
}

/// A structured why-not report over a whole task window.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Consecutive fusible segment lengths (sums to the window length).
    pub segments: Vec<usize>,
    /// One report per split boundary (`segments.len() - 1` entries for a
    /// non-empty window).
    pub boundaries: Vec<BoundaryReport>,
}

impl WindowReport {
    /// Whether the whole window fused into a single segment.
    pub fn fully_fused(&self) -> bool {
        self.boundaries.is_empty()
    }
}

impl std::fmt::Display for WindowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total: usize = self.segments.iter().sum();
        writeln!(
            f,
            "window of {total} task(s) fuses into {} segment(s): {:?}",
            self.segments.len(),
            self.segments
        )?;
        for b in &self.boundaries {
            writeln!(
                f,
                "  boundary before task {} (`{}`, window index {}):",
                b.task, b.task_name, b.boundary
            )?;
            writeln!(f, "    violation: {}", b.violation)?;
            writeln!(f, "    to admit fusion: {}", b.suggestion)?;
        }
        Ok(())
    }
}

/// Explains a window: its fusible segmentation and, per split boundary, the
/// violated constraint and what would admit fusion.
pub fn explain_window(tasks: &[IndexTask]) -> WindowReport {
    let mut segments = Vec::new();
    let mut boundaries = Vec::new();
    let mut start = 0usize;
    for (len, violation) in fusible_segments_explained(tasks) {
        segments.push(len);
        start += len;
        if let Some(violation) = violation {
            let task = &tasks[start];
            boundaries.push(BoundaryReport {
                boundary: start,
                task: task.id,
                task_name: task.name.clone(),
                suggestion: suggest(&violation),
                violation,
            });
        }
    }
    WindowReport {
        segments,
        boundaries,
    }
}

fn suggest(violation: &FusionViolation) -> String {
    match violation {
        FusionViolation::LaunchDomainMismatch { expected, found } => format!(
            "launch both stages over the same domain (prefix uses {expected}, task uses {found}); \
             repartitioning the smaller stage to match would admit fusion"
        ),
        FusionViolation::TrueDependence { store } => format!(
            "the consumer may read values of {store} written by other launch points; accessing \
             {store} through the same disjoint tiling on both sides would make the dependence \
             point-wise and admit fusion"
        ),
        FusionViolation::AntiDependence { store } => format!(
            "the write-back to {store} overlaps sub-stores earlier tasks read from other launch \
             points; writing into a fresh temporary instead (double buffering) would break the \
             anti dependence and admit fusion"
        ),
        FusionViolation::Reduction { store } => format!(
            "a partially reduced value of {store} would become visible inside the fused task; keep \
             the reduction and its readers in separate fused tasks (the window must split here)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Domain, Partition, Privilege, Projection, StoreArg, StoreId};

    fn block() -> Partition {
        Partition::block(vec![4])
    }

    fn task(id: u64, name: &str, args: Vec<StoreArg>) -> IndexTask {
        IndexTask::new(TaskId(id), 0, name, Domain::linear(4), args, vec![])
    }

    #[test]
    fn fully_fused_window_has_no_boundaries() {
        let tasks = vec![
            task(0, "a", vec![
                StoreArg::new(StoreId(0), block(), Privilege::Read),
                StoreArg::new(StoreId(1), block(), Privilege::Write),
            ]),
            task(1, "b", vec![
                StoreArg::new(StoreId(1), block(), Privilege::Read),
                StoreArg::new(StoreId(2), block(), Privilege::Write),
            ]),
        ];
        let report = explain_window(&tasks);
        assert!(report.fully_fused());
        assert_eq!(report.segments, vec![2]);
    }

    #[test]
    fn stencil_write_back_is_anti_dependence_unknown() {
        // Figure 1: read the shifted view, write a temporary, then copy back
        // into the center view, which the flush counts as an unknown
        // rejection.
        let grid = StoreId(0);
        let shifted = Partition::tiling(vec![4], vec![1], Projection::Identity);
        let tasks = vec![
            task(0, "stencil", vec![
                StoreArg::new(grid, shifted, Privilege::Read),
                StoreArg::new(StoreId(10), block(), Privilege::Write),
            ]),
            task(1, "copy", vec![
                StoreArg::new(StoreId(10), block(), Privilege::Read),
                StoreArg::new(grid, block(), Privilege::Write),
            ]),
        ];
        let report = explain_window(&tasks);
        assert_eq!(report.segments, vec![1, 1]);
        assert_eq!(report.boundaries.len(), 1);
        let b = &report.boundaries[0];
        assert_eq!(b.boundary, 1);
        assert_eq!(b.task_name, "copy");
        assert!(matches!(b.violation, FusionViolation::AntiDependence { store } if store == grid));
        assert!(b.suggestion.contains("temporary"), "{}", b.suggestion);
        let rendered = report.to_string();
        assert!(rendered.contains("anti dependence"), "{rendered}");
        assert!(rendered.contains("to admit fusion"), "{rendered}");
    }

    #[test]
    fn true_dependence_suggests_a_shared_tiling() {
        // Producer writes through tiles at offset 4; consumer reads the block
        // view, so each consumer point reads another point's tile.
        let shifted_tile = Partition::tiling(vec![4], vec![4], Projection::Identity);
        let tasks = vec![
            task(0, "produce", vec![StoreArg::new(StoreId(0), shifted_tile, Privilege::Write)]),
            task(1, "consume", vec![StoreArg::new(StoreId(0), block(), Privilege::Read)]),
        ];
        let report = explain_window(&tasks);
        assert_eq!(report.boundaries.len(), 1);
        let b = &report.boundaries[0];
        assert!(matches!(b.violation, FusionViolation::TrueDependence { .. }));
        assert!(b.suggestion.contains("same disjoint tiling"), "{}", b.suggestion);
    }

    #[test]
    fn launch_domain_mismatch_has_no_class() {
        let tasks = vec![
            task(0, "a", vec![StoreArg::new(StoreId(0), block(), Privilege::Write)]),
            IndexTask::new(
                TaskId(1),
                0,
                "b",
                Domain::linear(8),
                vec![StoreArg::new(StoreId(1), block(), Privilege::Write)],
                vec![],
            ),
        ];
        let report = explain_window(&tasks);
        let b = &report.boundaries[0];
        assert!(matches!(b.violation, FusionViolation::LaunchDomainMismatch { .. }));
        assert!(b.suggestion.contains("same domain"), "{}", b.suggestion);
    }

    #[test]
    fn reduction_boundary_suggests_flush() {
        let tasks = vec![
            task(0, "dot", vec![StoreArg::new(
                StoreId(0),
                Partition::Replicate,
                Privilege::Reduce(ir::ReductionOp::Sum),
            )]),
            task(1, "scale", vec![StoreArg::new(StoreId(0), Partition::Replicate, Privilege::Read)]),
        ];
        let report = explain_window(&tasks);
        let b = &report.boundaries[0];
        assert!(matches!(b.violation, FusionViolation::Reduction { .. }));
        assert!(b.suggestion.contains("separate fused tasks"), "{}", b.suggestion);
    }
}
