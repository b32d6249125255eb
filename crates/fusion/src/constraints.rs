//! The four fusion constraints of Figure 5.
//!
//! The constraints are evaluated by a forwards dataflow over the candidate
//! prefix: [`ConstraintState`] tracks, per store, the set of partitions that
//! earlier tasks in the prefix have read, written and reduced. Admitting a new
//! task requires only constant-time partition equality checks per argument —
//! never an enumeration of sub-stores — which is what makes the analysis
//! scale-free.

use ir::fingerprint::FnvHashMap;
use ir::{Domain, IndexTask, PartitionId, StoreId};

/// Why a task could not be added to the fusible prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionViolation {
    /// The task's launch domain differs from the prefix's launch domain.
    LaunchDomainMismatch {
        /// Launch domain of the prefix.
        expected: Domain,
        /// Launch domain of the rejected task.
        found: Domain,
    },
    /// A read-after-write of the same store through a different partition
    /// (would require communicating the written values).
    TrueDependence {
        /// The store involved.
        store: StoreId,
    },
    /// A write-after-read of the same store through a different partition.
    AntiDependence {
        /// The store involved.
        store: StoreId,
    },
    /// A read or write of a store that an earlier task reduces to (or a
    /// reduction to a store an earlier task reads or writes).
    Reduction {
        /// The store involved.
        store: StoreId,
    },
}

impl std::fmt::Display for FusionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusionViolation::LaunchDomainMismatch { expected, found } => {
                write!(f, "launch domain {found} differs from prefix domain {expected}")
            }
            FusionViolation::TrueDependence { store } => {
                write!(f, "true dependence on {store} through an aliasing partition")
            }
            FusionViolation::AntiDependence { store } => {
                write!(f, "anti dependence on {store} through an aliasing partition")
            }
            FusionViolation::Reduction { store } => {
                write!(f, "partially reduced value of {store} would become visible")
            }
        }
    }
}

/// Per-store effects of the tasks admitted so far. Partitions are tracked by
/// interned id, so recording and membership tests are integer compares with
/// no cloning.
#[derive(Debug, Clone, Default)]
struct StoreEffects {
    reads: Vec<PartitionId>,
    writes: Vec<PartitionId>,
    reduces: Vec<PartitionId>,
}

impl StoreEffects {
    fn record(&mut self, partition: PartitionId, privilege: ir::Privilege) {
        if privilege.reads() && !self.reads.contains(&partition) {
            self.reads.push(partition);
        }
        if privilege.writes() && !self.writes.contains(&partition) {
            self.writes.push(partition);
        }
        if privilege.reduces() && !self.reduces.contains(&partition) {
            self.reduces.push(partition);
        }
    }
}

/// Forwards-dataflow state of the fusion constraints over a candidate prefix.
#[derive(Debug, Clone, Default)]
pub struct ConstraintState {
    launch_domain: Option<Domain>,
    effects: FnvHashMap<StoreId, StoreEffects>,
    tasks_admitted: usize,
}

impl ConstraintState {
    /// Creates an empty state (no tasks admitted yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks admitted so far.
    pub fn len(&self) -> usize {
        self.tasks_admitted
    }

    /// Whether no task has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.tasks_admitted == 0
    }

    /// The launch domain of the prefix, if any task has been admitted.
    pub fn launch_domain(&self) -> Option<&Domain> {
        self.launch_domain.as_ref()
    }

    /// Checks whether `task` may be appended to the prefix without violating
    /// any fusion constraint. Does not modify the state.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn admits(&self, task: &IndexTask) -> Result<(), FusionViolation> {
        // Launch-domain equivalence.
        if let Some(domain) = &self.launch_domain {
            if domain != &task.launch_domain {
                return Err(FusionViolation::LaunchDomainMismatch {
                    expected: domain.clone(),
                    found: task.launch_domain.clone(),
                });
            }
        }
        // With a single launch point every dependence is trivially point-wise
        // (Definition 3), so the aliasing constraints cannot be violated. This
        // mirrors the paper's observation that single-GPU executions admit
        // longer fusible sequences (Section 7.1, CFD discussion).
        if task.launch_domain.size() <= 1 {
            return Ok(());
        }
        for arg in &task.args {
            let effects = match self.effects.get(&arg.store) {
                Some(e) => e,
                None => continue,
            };
            // Reduction constraint: a store reduced to by an earlier task may
            // not be read or written (through any view), and a store read or
            // written earlier may not be reduced to now.
            if (arg.privilege.reads() || arg.privilege.writes()) && !effects.reduces.is_empty() {
                return Err(FusionViolation::Reduction { store: arg.store });
            }
            if arg.privilege.reduces()
                && (!effects.reads.is_empty() || !effects.writes.is_empty())
            {
                return Err(FusionViolation::Reduction { store: arg.store });
            }
            // True dependence: reading or writing a store that an earlier task
            // wrote through a different partition requires communication.
            // Writes through partitions that alias across launch points can
            // never form point-wise dependences, even with equal partitions.
            if (arg.privilege.reads() || arg.privilege.writes())
                && effects
                    .writes
                    .iter()
                    .any(|p| *p != arg.partition || p.may_alias_across_points())
            {
                return Err(FusionViolation::TrueDependence { store: arg.store });
            }
            // Anti dependence: writing a store that an earlier task read
            // through a different partition requires the read to complete
            // first (and the written values to be communicated afterwards).
            if arg.privilege.writes()
                && effects
                    .reads
                    .iter()
                    .any(|p| *p != arg.partition || arg.partition.may_alias_across_points())
            {
                return Err(FusionViolation::AntiDependence { store: arg.store });
            }
        }
        Ok(())
    }

    /// Records `task`'s effects in the state. Call after [`Self::admits`]
    /// succeeds.
    pub fn absorb(&mut self, task: &IndexTask) {
        if self.launch_domain.is_none() {
            self.launch_domain = Some(task.launch_domain.clone());
        }
        for arg in &task.args {
            self.effects
                .entry(arg.store)
                .or_default()
                .record(arg.partition, arg.privilege);
        }
        self.tasks_admitted += 1;
    }

    /// Convenience: admit-and-absorb in one step.
    ///
    /// # Errors
    ///
    /// Returns the violation if the task cannot be admitted (the state is left
    /// unchanged in that case).
    pub fn try_push(&mut self, task: &IndexTask) -> Result<(), FusionViolation> {
        self.admits(task)?;
        self.absorb(task);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Partition, Privilege, Projection, StoreArg, TaskId};

    fn block() -> Partition {
        Partition::block(vec![4])
    }

    fn shifted() -> Partition {
        Partition::tiling(vec![4], vec![1], Projection::Identity)
    }

    fn task(id: u64, points: u64, args: Vec<StoreArg>) -> IndexTask {
        IndexTask::new(TaskId(id), 0, "t", Domain::linear(points), args, vec![])
    }

    #[test]
    fn same_partition_chain_is_admitted() {
        let mut state = ConstraintState::new();
        let t1 = task(
            0,
            4,
            vec![
                StoreArg::new(StoreId(0), block(), Privilege::Read),
                StoreArg::new(StoreId(1), block(), Privilege::Write),
            ],
        );
        let t2 = task(
            1,
            4,
            vec![
                StoreArg::new(StoreId(1), block(), Privilege::Read),
                StoreArg::new(StoreId(2), block(), Privilege::Write),
            ],
        );
        assert!(state.try_push(&t1).is_ok());
        assert!(state.try_push(&t2).is_ok());
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn launch_domain_mismatch_is_rejected() {
        let mut state = ConstraintState::new();
        let t1 = task(0, 4, vec![StoreArg::new(StoreId(0), block(), Privilege::Write)]);
        let t2 = task(1, 8, vec![StoreArg::new(StoreId(1), block(), Privilege::Write)]);
        state.try_push(&t1).unwrap();
        assert!(matches!(
            state.admits(&t2),
            Err(FusionViolation::LaunchDomainMismatch { .. })
        ));
    }

    #[test]
    fn read_after_write_through_other_view_is_true_dependence() {
        let mut state = ConstraintState::new();
        let writer = task(0, 4, vec![StoreArg::new(StoreId(0), block(), Privilege::Write)]);
        let reader = task(1, 4, vec![StoreArg::new(StoreId(0), shifted(), Privilege::Read)]);
        state.try_push(&writer).unwrap();
        assert_eq!(
            state.admits(&reader),
            Err(FusionViolation::TrueDependence { store: StoreId(0) })
        );
    }

    #[test]
    fn read_after_write_through_same_view_is_admitted() {
        let mut state = ConstraintState::new();
        let writer = task(0, 4, vec![StoreArg::new(StoreId(0), block(), Privilege::Write)]);
        let reader = task(1, 4, vec![StoreArg::new(StoreId(0), block(), Privilege::Read)]);
        state.try_push(&writer).unwrap();
        assert!(state.admits(&reader).is_ok());
    }

    #[test]
    fn write_after_read_through_other_view_is_anti_dependence() {
        // Figure 1: reading the north/east/west/south views then writing the
        // center view must not fuse.
        let mut state = ConstraintState::new();
        let reader = task(
            0,
            4,
            vec![
                StoreArg::new(StoreId(0), shifted(), Privilege::Read),
                StoreArg::new(StoreId(1), block(), Privilege::Write),
            ],
        );
        let writer = task(
            1,
            4,
            vec![
                StoreArg::new(StoreId(1), block(), Privilege::Read),
                StoreArg::new(StoreId(0), block(), Privilege::Write),
            ],
        );
        state.try_push(&reader).unwrap();
        assert_eq!(
            state.admits(&writer),
            Err(FusionViolation::AntiDependence { store: StoreId(0) })
        );
    }

    #[test]
    fn reduction_then_read_is_rejected_even_through_same_view() {
        let mut state = ConstraintState::new();
        let reducer = task(
            0,
            4,
            vec![StoreArg::new(
                StoreId(0),
                Partition::Replicate,
                Privilege::Reduce(ir::ReductionOp::Sum),
            )],
        );
        let reader = task(
            1,
            4,
            vec![StoreArg::new(StoreId(0), Partition::Replicate, Privilege::Read)],
        );
        state.try_push(&reducer).unwrap();
        assert_eq!(
            state.admits(&reader),
            Err(FusionViolation::Reduction { store: StoreId(0) })
        );
    }

    #[test]
    fn read_then_reduction_is_rejected() {
        let mut state = ConstraintState::new();
        let reader = task(
            0,
            4,
            vec![StoreArg::new(StoreId(0), Partition::Replicate, Privilege::Read)],
        );
        let reducer = task(
            1,
            4,
            vec![StoreArg::new(
                StoreId(0),
                Partition::Replicate,
                Privilege::Reduce(ir::ReductionOp::Sum),
            )],
        );
        state.try_push(&reader).unwrap();
        assert_eq!(
            state.admits(&reducer),
            Err(FusionViolation::Reduction { store: StoreId(0) })
        );
    }

    #[test]
    fn multiple_reductions_to_same_store_are_admitted() {
        let mut state = ConstraintState::new();
        let reduce = |id| {
            task(
                id,
                4,
                vec![StoreArg::new(
                    StoreId(0),
                    Partition::Replicate,
                    Privilege::Reduce(ir::ReductionOp::Sum),
                )],
            )
        };
        state.try_push(&reduce(0)).unwrap();
        assert!(state.admits(&reduce(1)).is_ok());
    }

    #[test]
    fn single_point_launch_admits_aliasing_accesses() {
        // With one launch point every dependence is point-wise, so even the
        // stencil write-back is admitted (matches the paper's single-GPU CFD
        // observation).
        let mut state = ConstraintState::new();
        let reader = task(0, 1, vec![StoreArg::new(StoreId(0), shifted(), Privilege::Read)]);
        let writer = task(1, 1, vec![StoreArg::new(StoreId(0), block(), Privilege::Write)]);
        state.try_push(&reader).unwrap();
        assert!(state.admits(&writer).is_ok());
    }

    #[test]
    fn failed_admit_leaves_state_unchanged() {
        let mut state = ConstraintState::new();
        let t1 = task(0, 4, vec![StoreArg::new(StoreId(0), block(), Privilege::Write)]);
        let bad = task(1, 8, vec![StoreArg::new(StoreId(1), block(), Privilege::Write)]);
        state.try_push(&t1).unwrap();
        assert!(state.try_push(&bad).is_err());
        assert_eq!(state.len(), 1);
        assert_eq!(state.launch_domain(), Some(&Domain::linear(4)));
    }
}
