//! Task launches: the runtime's unit of work.

use std::sync::Arc;

use ir::fingerprint::{fold_bytes, fold_le_word, fold_u64, OFFSET};
use ir::{Domain, PartitionId, Privilege};
use kernel::CompiledKernel;

use crate::region::RegionId;

/// Which overhead class an operation pays.
///
/// Dynamic task-based runtimes pay per-task dependence-analysis and mapping
/// costs (Legion's minimum effective task granularity); an explicitly parallel
/// MPI library pays only a small per-call overhead. The PETSc-equivalent
/// baseline uses [`OverheadClass::Mpi`].
///
/// # Example
///
/// ```
/// use runtime::OverheadClass;
///
/// assert_eq!(OverheadClass::default(), OverheadClass::TaskRuntime);
/// assert_ne!(OverheadClass::Mpi, OverheadClass::None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverheadClass {
    /// Dynamic task runtime overhead (dependence analysis, mapping).
    #[default]
    TaskRuntime,
    /// Explicitly parallel library overhead (an MPI call).
    Mpi,
    /// No per-operation overhead (used by ablations).
    None,
}

/// One region requirement of a task launch: which region is accessed, through
/// which partition, and with what privilege.
///
/// The partition is carried as an interned [`PartitionId`] (see
/// [`ir::intern`]): requirements are cheap to copy and partition equality —
/// the runtime's validity check — is a register compare.
///
/// # Example
///
/// ```
/// use ir::{Partition, Privilege};
/// use runtime::{RegionId, RegionRequirement};
///
/// let req = RegionRequirement::new(RegionId(0), Partition::block(vec![8]), Privilege::Read);
/// assert!(req.privilege.reads() && !req.privilege.writes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionRequirement {
    /// The region accessed.
    pub region: RegionId,
    /// The partition through which each point task accesses the region
    /// (interned).
    pub partition: PartitionId,
    /// The access privilege.
    pub privilege: Privilege,
}

impl RegionRequirement {
    /// Creates a region requirement. Accepts either an owned
    /// [`ir::Partition`] (interned on the fly) or a [`PartitionId`].
    pub fn new(
        region: RegionId,
        partition: impl Into<PartitionId>,
        privilege: Privilege,
    ) -> Self {
        RegionRequirement {
            region,
            partition: partition.into(),
            privilege,
        }
    }
}

/// An index-task launch: a group of point tasks over a launch domain, with one
/// region requirement per kernel buffer argument.
///
/// The launch carries a **compiled** kernel (an `Arc<dyn CompiledKernel>`
/// produced by a [`kernel::KernelBackend`]), not a raw module: compilation
/// happens once — at the Diffuse layer on a memoization miss, or via
/// [`crate::Runtime::compile`] for hand-built launches — and the artifact is
/// shared by every executor worker that runs the launch. The runtime layer is
/// thereby backend-agnostic; which backend compiled the kernel changes host
/// wall-clock only, never simulated time or results.
///
/// Buffer `i` of the kernel's module corresponds to `requirements[i]`;
/// buffers beyond the requirement count are task-local temporaries whose
/// per-point element counts are given by `local_buffer_lens`.
///
/// # Example
///
/// ```
/// use ir::{Domain, Partition, Privilege};
/// use kernel::{compile_interp, KernelModule};
/// use runtime::{OverheadClass, RegionId, RegionRequirement, TaskLaunch};
///
/// let launch = TaskLaunch {
///     name: "demo".into(),
///     launch_domain: Domain::linear(4),
///     requirements: vec![RegionRequirement::new(
///         RegionId(0),
///         Partition::block(vec![8]),
///         Privilege::Read,
///     )],
///     kernel: compile_interp(KernelModule::new(2)),
///     scalars: vec![1.5],
///     local_buffer_lens: vec![32],
///     overhead: OverheadClass::TaskRuntime,
/// };
/// assert_eq!(launch.num_buffers(), 2); // one requirement + one local
/// ```
#[derive(Debug, Clone)]
pub struct TaskLaunch {
    /// Human-readable name (used in profiles).
    pub name: String,
    /// The launch domain: one point per processor.
    pub launch_domain: Domain,
    /// Region requirements in kernel-buffer order.
    pub requirements: Vec<RegionRequirement>,
    /// The compiled kernel to execute (shared, backend-produced artifact).
    pub kernel: Arc<dyn CompiledKernel>,
    /// Scalar kernel parameters.
    pub scalars: Vec<f64>,
    /// Per-point element counts of the module's task-local buffers (ids
    /// `requirements.len()..`).
    pub local_buffer_lens: Vec<usize>,
    /// Overhead class of this operation.
    pub overhead: OverheadClass,
}

impl TaskLaunch {
    /// Total number of kernel buffers (requirements plus locals).
    pub fn num_buffers(&self) -> usize {
        self.requirements.len() + self.local_buffer_lens.len()
    }

    /// A stable content fingerprint of the launch: name, launch-domain size,
    /// region requirements (region id + access direction) and scalars.
    ///
    /// Deliberately independent of the compiled kernel, the backend that
    /// produced it, and the executor, so fault schedules keyed on it
    /// (`docs/RESILIENCE.md`) reproduce identically across the whole
    /// executor × backend matrix and under window permutations. FNV-1a over
    /// the launch's content; collisions only blur which launches share a
    /// fault stream, never correctness. Words fold as their little-endian
    /// bytes ([`fold_le_word`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_after_head(self.head_fold())
    }

    /// The FNV state after the launch's name and launch-domain size: the
    /// part of [`TaskLaunch::fingerprint`] a memoized skeleton fixes for
    /// every launch under its name, so it folds it once.
    pub fn head_fold(&self) -> u64 {
        fold_le_word(fold_bytes(OFFSET, self.name.as_bytes()), self.launch_domain.size())
    }

    /// [`TaskLaunch::fingerprint`] from `head`, the launch's
    /// [`TaskLaunch::head_fold`]: folds only the requirements and scalars.
    pub fn fingerprint_after_head(&self, head: u64) -> u64 {
        let mut h = head;
        for req in &self.requirements {
            h = fold_le_word(h, req.region.0);
            let dir = u8::from(req.privilege.reads())
                | u8::from(req.privilege.writes()) << 1
                | u8::from(req.privilege.reduces()) << 2;
            h = fold_u64(h, u64::from(dir));
        }
        for s in &self.scalars {
            h = fold_le_word(h, s.to_bits());
        }
        h
    }

    /// Starts a typed builder for a launch — the runtime-level counterpart of
    /// the Diffuse context's `LaunchBuilder`, used by callers that construct
    /// launches by hand (the PETSc baseline, executor tests).
    pub fn builder(name: impl Into<String>) -> TaskLaunchBuilder {
        TaskLaunchBuilder {
            name: name.into(),
            launch_domain: None,
            requirements: Vec::new(),
            kernel: None,
            scalars: Vec::new(),
            local_buffer_lens: Vec::new(),
            overhead: OverheadClass::default(),
        }
    }
}

/// Typed construction of a [`TaskLaunch`]:
///
/// ```
/// use ir::{Domain, Partition, Privilege};
/// use kernel::{compile_interp, KernelModule};
/// use runtime::{OverheadClass, RegionId, TaskLaunch};
///
/// let launch = TaskLaunch::builder("axpy")
///     .domain(Domain::linear(4))
///     .read(RegionId(0), Partition::block(vec![8]))
///     .read_write(RegionId(1), Partition::block(vec![8]))
///     .scalar(2.0)
///     .overhead(OverheadClass::Mpi)
///     .kernel(compile_interp(KernelModule::new(2)))
///     .build();
/// assert_eq!(launch.requirements.len(), 2);
/// assert_eq!(launch.scalars, vec![2.0]);
/// ```
#[derive(Debug)]
#[must_use = "a TaskLaunchBuilder does nothing until .build() is called"]
pub struct TaskLaunchBuilder {
    name: String,
    launch_domain: Option<Domain>,
    requirements: Vec<RegionRequirement>,
    kernel: Option<Arc<dyn CompiledKernel>>,
    scalars: Vec<f64>,
    local_buffer_lens: Vec<usize>,
    overhead: OverheadClass,
}

impl TaskLaunchBuilder {
    /// Sets the launch domain (required).
    pub fn domain(mut self, domain: Domain) -> Self {
        self.launch_domain = Some(domain);
        self
    }

    /// Appends a read requirement: `region` accessed through `partition`.
    pub fn read(self, region: RegionId, partition: impl Into<PartitionId>) -> Self {
        self.requirement(RegionRequirement::new(region, partition, Privilege::Read))
    }

    /// Appends a write requirement.
    pub fn write(self, region: RegionId, partition: impl Into<PartitionId>) -> Self {
        self.requirement(RegionRequirement::new(region, partition, Privilege::Write))
    }

    /// Appends a read-write requirement.
    pub fn read_write(self, region: RegionId, partition: impl Into<PartitionId>) -> Self {
        self.requirement(RegionRequirement::new(
            region,
            partition,
            Privilege::ReadWrite,
        ))
    }

    /// Appends a reduction requirement with the given operator.
    pub fn reduce(
        self,
        region: RegionId,
        partition: impl Into<PartitionId>,
        op: ir::ReductionOp,
    ) -> Self {
        self.requirement(RegionRequirement::new(
            region,
            partition,
            Privilege::Reduce(op),
        ))
    }

    /// Appends a pre-built requirement.
    pub fn requirement(mut self, requirement: RegionRequirement) -> Self {
        self.requirements.push(requirement);
        self
    }

    /// Sets the compiled kernel (required).
    pub fn kernel(mut self, kernel: Arc<dyn CompiledKernel>) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Appends one scalar parameter.
    pub fn scalar(mut self, value: f64) -> Self {
        self.scalars.push(value);
        self
    }

    /// Appends several scalar parameters.
    pub fn scalars(mut self, values: &[f64]) -> Self {
        self.scalars.extend_from_slice(values);
        self
    }

    /// Appends a task-local buffer of `len` elements per point.
    pub fn local_buffer(mut self, len: usize) -> Self {
        self.local_buffer_lens.push(len);
        self
    }

    /// Sets the overhead class (defaults to [`OverheadClass::TaskRuntime`]).
    pub fn overhead(mut self, overhead: OverheadClass) -> Self {
        self.overhead = overhead;
        self
    }

    /// Finishes the launch.
    ///
    /// # Panics
    ///
    /// Panics if the domain or kernel was not set.
    pub fn build(self) -> TaskLaunch {
        TaskLaunch {
            name: self.name,
            launch_domain: self.launch_domain.expect("TaskLaunchBuilder requires a domain"),
            requirements: self.requirements,
            kernel: self.kernel.expect("TaskLaunchBuilder requires a kernel"),
            scalars: self.scalars,
            local_buffer_lens: self.local_buffer_lens,
            overhead: self.overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::Partition;
    use kernel::{compile_interp, KernelModule};

    #[test]
    fn requirement_construction() {
        let r = RegionRequirement::new(RegionId(1), Partition::block(vec![4]), Privilege::Read);
        assert_eq!(r.region, RegionId(1));
        assert!(r.privilege.reads());
    }

    #[test]
    fn launch_buffer_count() {
        let launch = TaskLaunch {
            name: "t".into(),
            launch_domain: Domain::linear(2),
            requirements: vec![RegionRequirement::new(
                RegionId(0),
                Partition::Replicate,
                Privilege::Read,
            )],
            kernel: compile_interp(KernelModule::new(3)),
            scalars: vec![],
            local_buffer_lens: vec![16, 16],
            overhead: OverheadClass::TaskRuntime,
        };
        assert_eq!(launch.num_buffers(), 3);
        assert_eq!(launch.overhead, OverheadClass::TaskRuntime);
        assert_eq!(launch.kernel.backend_id(), "interp");
    }

    /// The fingerprint as it was before a caller could keep its head: every
    /// byte of every field, one step each, from the FNV offset.
    fn bytewise_fingerprint(launch: &TaskLaunch) -> u64 {
        let mut h = fold_bytes(OFFSET, launch.name.as_bytes());
        h = fold_bytes(h, &launch.launch_domain.size().to_le_bytes());
        for req in &launch.requirements {
            h = fold_bytes(h, &req.region.0.to_le_bytes());
            let dir = u8::from(req.privilege.reads())
                | u8::from(req.privilege.writes()) << 1
                | u8::from(req.privilege.reduces()) << 2;
            h = fold_bytes(h, &[dir]);
        }
        for s in &launch.scalars {
            h = fold_bytes(h, &s.to_bits().to_le_bytes());
        }
        h
    }

    proptest::proptest! {
        /// Fault schedules key on the fingerprint, so keeping the head's
        /// fold must leave it bit-identical to the byte-wise formula.
        #[test]
        fn the_fingerprint_after_a_kept_head_is_the_bytewise_one(
            name in proptest::collection::vec(0u8..128, 0..96),
            points in 1u64..64,
            reqs in proptest::collection::vec((0u64..1 << 40, 0u32..41, 0u8..4), 0..6),
            scalars in proptest::collection::vec(0u64..u64::MAX, 0..4),
        ) {
            let name = String::from_utf8(name).expect("ASCII");
            let privileges = [
                Privilege::Read,
                Privilege::Write,
                Privilege::ReadWrite,
                Privilege::Reduce(ir::ReductionOp::Sum),
            ];
            // Region ids of every magnitude, small ones (zero high bytes) too.
            let requirements = reqs.iter().map(|&(region, shift, p)| {
                let privilege = privileges[p as usize];
                RegionRequirement::new(RegionId(region >> shift), Partition::Replicate, privilege)
            });
            let launch = TaskLaunch {
                name,
                launch_domain: Domain::linear(points),
                requirements: requirements.collect(),
                kernel: compile_interp(KernelModule::new(0)),
                scalars: scalars.into_iter().map(f64::from_bits).collect(),
                local_buffer_lens: vec![],
                overhead: OverheadClass::TaskRuntime,
            };
            let expected = bytewise_fingerprint(&launch);
            proptest::prop_assert_eq!(launch.fingerprint(), expected);
            // A head kept from an earlier launch of the same name and domain.
            let kept = TaskLaunch::builder(launch.name.clone())
                .domain(Domain::linear(points))
                .kernel(compile_interp(KernelModule::new(0)))
                .build()
                .head_fold();
            proptest::prop_assert_eq!(launch.fingerprint_after_head(kept), expected);
        }
    }

    #[test]
    fn default_overhead_is_task_runtime() {
        assert_eq!(OverheadClass::default(), OverheadClass::TaskRuntime);
    }
}
