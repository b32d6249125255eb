//! Construction of fused tasks from fusible prefixes (Section 4.2.2).

use ir::fingerprint::FnvHashMap;
use ir::{Domain, IndexTask, PartitionId, Privilege, StoreId};

/// A fused task: the merged store arguments of a fusible prefix together with
/// the constituent tasks (whose kernel bodies are composed in program order by
/// the JIT layer).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedTask {
    /// Name of the fused task (concatenation of constituent names).
    pub name: String,
    /// Launch domain shared by every constituent task.
    pub launch_domain: Domain,
    /// Merged store arguments: one entry per distinct (store, partition) pair,
    /// with privileges promoted across constituents.
    pub args: Vec<(StoreId, PartitionId, Privilege)>,
    /// The constituent tasks in program order.
    pub tasks: Vec<IndexTask>,
    /// For each constituent task, the index into `args` of each of its store
    /// arguments (in that task's argument order).
    pub arg_map: Vec<Vec<usize>>,
}

impl FusedTask {
    /// Builds a fused task from a fusible prefix.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or the tasks do not all share a launch
    /// domain (callers must only pass prefixes validated by the fusion
    /// constraints).
    pub fn build(tasks: Vec<IndexTask>) -> FusedTask {
        assert!(!tasks.is_empty(), "cannot fuse an empty prefix");
        let launch_domain = tasks[0].launch_domain.clone();
        assert!(
            tasks.iter().all(|t| t.launch_domain == launch_domain),
            "fused tasks must share a launch domain"
        );
        let mut args: Vec<(StoreId, PartitionId, Privilege)> = Vec::new();
        // Each distinct (store, partition) pair's position in `args`, which
        // keeps first-occurrence order.
        let mut index: FnvHashMap<(StoreId, PartitionId), usize> = FnvHashMap::default();
        let mut arg_map: Vec<Vec<usize>> = Vec::with_capacity(tasks.len());
        for task in &tasks {
            let mut map = Vec::with_capacity(task.args.len());
            for arg in &task.args {
                let idx = *index.entry((arg.store, arg.partition)).or_insert_with(|| {
                    args.push((arg.store, arg.partition, arg.privilege));
                    args.len() - 1
                });
                // A privilege promoted by itself stays as it is.
                args[idx].2 = args[idx].2.promote(arg.privilege);
                map.push(idx);
            }
            arg_map.push(map);
        }
        let name = tasks
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        FusedTask {
            name: format!("fused[{name}]"),
            launch_domain,
            args,
            tasks,
            arg_map,
        }
    }

    /// Number of constituent tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the fused task has no constituents (never true for a task
    /// built by [`FusedTask::build`], which requires a non-empty prefix).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Partition, StoreArg, TaskId};

    fn block() -> Partition {
        Partition::block(vec![4])
    }

    fn task(id: u64, reads: &[u64], writes: &[u64]) -> IndexTask {
        let mut args: Vec<StoreArg> = reads
            .iter()
            .map(|&s| StoreArg::new(StoreId(s), block(), Privilege::Read))
            .collect();
        args.extend(
            writes
                .iter()
                .map(|&s| StoreArg::new(StoreId(s), block(), Privilege::Write)),
        );
        IndexTask::new(TaskId(id), 0, format!("t{id}"), Domain::linear(4), args, vec![])
    }

    #[test]
    fn merges_duplicate_arguments_and_promotes_privileges() {
        // t0 writes S1; t1 reads S1 and writes S2: S1 should appear once with
        // the ReadWrite privilege.
        let fused = FusedTask::build(vec![task(0, &[0], &[1]), task(1, &[1], &[2])]);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused.args.len(), 3);
        let s1 = fused
            .args
            .iter()
            .find(|(s, _, _)| *s == StoreId(1))
            .unwrap();
        assert_eq!(s1.2, Privilege::ReadWrite);
    }

    #[test]
    fn arg_map_points_to_merged_entries() {
        let fused = FusedTask::build(vec![task(0, &[0], &[1]), task(1, &[1], &[2])]);
        // Task 0: args (S0 read, S1 write) -> fused indices 0, 1.
        assert_eq!(fused.arg_map[0], vec![0, 1]);
        // Task 1: args (S1 read, S2 write) -> fused indices 1, 2.
        assert_eq!(fused.arg_map[1], vec![1, 2]);
    }

    #[test]
    fn same_store_different_partition_stays_separate() {
        let grid = StoreId(0);
        let center = Partition::tiling(vec![4], vec![1], ir::Projection::Identity);
        let north = Partition::tiling(vec![4], vec![0], ir::Projection::Identity);
        let t = IndexTask::new(
            TaskId(0),
            0,
            "stencil",
            Domain::linear(4),
            vec![
                StoreArg::new(grid, center, Privilege::Read),
                StoreArg::new(grid, north, Privilege::Read),
            ],
            vec![],
        );
        let fused = FusedTask::build(vec![t]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused.args.len(), 2, "different views are distinct arguments");
    }

    #[test]
    fn name_mentions_constituents() {
        let fused = FusedTask::build(vec![task(0, &[0], &[1]), task(1, &[1], &[2])]);
        assert!(fused.name.contains("t0"));
        assert!(fused.name.contains("t1"));
    }

    #[test]
    #[should_panic]
    fn empty_prefix_panics() {
        let _ = FusedTask::build(vec![]);
    }

    #[test]
    #[should_panic]
    fn mismatched_launch_domains_panic() {
        let mut t1 = task(0, &[0], &[1]);
        t1.launch_domain = Domain::linear(8);
        let _ = FusedTask::build(vec![t1, task(1, &[1], &[2])]);
    }
}
