//! The runtime proper: region management, coherence, cost accounting and
//! functional execution.
//!
//! The runtime splits every [`TaskLaunch`] into two halves:
//!
//! 1. **Accounting** — per-task overhead, coherence traffic and kernel cost on
//!    the simulated clock, plus region-validity updates. This half is cheap,
//!    inherently program-ordered, and always runs eagerly on the submitting
//!    thread, so simulated time is identical under every executor.
//! 2. **Functional execution** — interpreting the kernel over real region
//!    data. This half dominates functional-mode wall-clock time and is handed
//!    to the configured [`Executor`], which may overlap independent launches
//!    across worker threads (see `docs/RUNTIME.md`).

use std::sync::Arc;

use ir::fingerprint::FnvHashMap;
use ir::{Domain, Partition, PartitionId, Rect, ShapeId};
use kernel::{cost as kcost, BackendKind, CompiledKernel, ExecError, KernelBackend, KernelModule};
use machine::{CostModel, MachineConfig, MemoryTracker, SimClock};

use crate::deps::AccessSummary;
use crate::executor::{
    BufferAccess, DataPlan, Executor, ExecutorKind, LaunchFailure, WorkRequest,
};
use crate::faults::{mix, FaultEvent, FaultPlan, FaultSite, FaultStats, RecoveryPolicy};
use crate::launch::{OverheadClass, TaskLaunch};
use crate::profile::Profile;
use crate::region::{Region, RegionHandle, RegionId};

/// Configuration of a [`Runtime`].
///
/// # Example
///
/// ```
/// use machine::MachineConfig;
/// use runtime::{ExecutorKind, RuntimeConfig};
///
/// let config = RuntimeConfig::functional(MachineConfig::with_gpus(4))
///     .with_executor(ExecutorKind::WorkStealing { workers: None });
/// assert!(config.materialize_data);
/// assert_ne!(config.executor, ExecutorKind::Serial);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Whether regions hold real data and kernels actually execute. Disable
    /// for machine-scale performance simulations where the data would not fit
    /// in host memory.
    pub materialize_data: bool,
    /// Which executor runs functional kernel work. Ignored (always serial)
    /// when `materialize_data` is false, since there is no functional work to
    /// parallelize.
    pub executor: ExecutorKind,
    /// Which kernel backend [`Runtime::compile`] uses for launches compiled
    /// at the runtime layer (the PETSc baseline, tests, hand-built
    /// workloads). Diffuse-layer launches arrive pre-compiled by the
    /// context's own backend and are unaffected.
    pub backend: BackendKind,
    /// Deterministic fault-injection plan (`None` disables injection — the
    /// default; see `docs/RESILIENCE.md`).
    pub fault_plan: Option<FaultPlan>,
    /// Recovery policy applied when a fault plan is active.
    pub recovery: RecoveryPolicy,
}

impl RuntimeConfig {
    /// A runtime that executes kernels on real data (tests, examples). The
    /// executor defaults to [`ExecutorKind::from_env`], so setting
    /// `DIFFUSE_EXECUTOR=parallel` switches a whole process over.
    pub fn functional(machine: MachineConfig) -> Self {
        RuntimeConfig {
            machine,
            materialize_data: true,
            executor: ExecutorKind::from_env(),
            backend: BackendKind::from_env(),
            fault_plan: FaultPlan::from_env(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// A runtime that only simulates performance (benchmark harness at
    /// machine-scale problem sizes).
    pub fn simulation_only(machine: MachineConfig) -> Self {
        RuntimeConfig {
            machine,
            materialize_data: false,
            executor: ExecutorKind::Serial,
            backend: BackendKind::from_env(),
            fault_plan: FaultPlan::from_env(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Overrides the executor choice.
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Overrides the kernel backend used by [`Runtime::compile`].
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Enables deterministic fault injection under the given plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the recovery policy (only observable while a fault plan is
    /// active).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Errors surfaced by the runtime.
///
/// The enum implements [`std::error::Error`], so callers can propagate it
/// with `?` into a `Box<dyn Error>`:
///
/// ```
/// use machine::MachineConfig;
/// use runtime::{Runtime, RuntimeConfig};
///
/// fn demo() -> Result<(), Box<dyn std::error::Error>> {
///     let mut rt = Runtime::new(RuntimeConfig::functional(MachineConfig::with_gpus(2)));
///     let r = rt.allocate_region(vec![8], "v");
///     rt.fill(r, 1.0)?;
///     rt.free_region(r)?;
///     Ok(())
/// }
/// demo().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A launch referenced a region that does not exist (or was freed).
    /// Raised eagerly at submission time.
    UnknownRegion(RegionId),
    /// The kernel interpreter failed while executing a launch's functional
    /// work. Deferred at every worker count, zero included:
    /// [`Runtime::execute`] returns `Ok` and the error surfaces at the next
    /// flush ([`Runtime::flush_launches`] or any data-touching operation),
    /// with the launches downstream of the failed one skipped
    /// ([`RuntimeError::Poisoned`]). The failing launch's name is in its
    /// [`LaunchFailure`] record ([`Runtime::take_failures`]).
    Exec(ExecError),
    /// A launch's functional work panicked on an executor worker (e.g. an
    /// out-of-bounds access the interpreter does not guard). Deferred like
    /// [`RuntimeError::Exec`]; the payload is the panic message.
    Panicked(String),
    /// An injected fault killed the launch and recovery was disabled (or
    /// exhausted). Deferred like [`RuntimeError::Exec`]; the event names the
    /// launch, the fault site and the attempt count.
    Faulted(FaultEvent),
    /// The launch was skipped because `upstream` — a launch in its dependence
    /// cone — failed, so its inputs cannot be trusted. Always accompanies a
    /// root failure in the same batch.
    Poisoned {
        /// The skipped launch.
        launch: String,
        /// The upstream launch whose failure poisoned it.
        upstream: String,
    },
    /// A verifier violation attributed to a launch, routed through the
    /// per-launch failure path instead of panicking (see
    /// `DiffuseConfig::verify_fail_fast` and `docs/RESILIENCE.md`).
    Verify {
        /// The launch (or fused task) whose artifact failed verification.
        launch: String,
        /// The verifier's rendered report.
        detail: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnknownRegion(r) => write!(f, "launch referenced unknown region {r}"),
            RuntimeError::Exec(e) => write!(f, "kernel execution failed: {e}"),
            RuntimeError::Panicked(msg) => write!(f, "launch panicked on a worker: {msg}"),
            RuntimeError::Faulted(event) => write!(f, "{event}"),
            RuntimeError::Poisoned { launch, upstream } => write!(
                f,
                "launch `{launch}` skipped: upstream launch `{upstream}` failed"
            ),
            RuntimeError::Verify { launch, detail } => {
                write!(f, "verification of launch `{launch}` failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::UnknownRegion(_)
            | RuntimeError::Panicked(_)
            | RuntimeError::Poisoned { .. }
            | RuntimeError::Verify { .. } => None,
            RuntimeError::Exec(e) => Some(e),
            RuntimeError::Faulted(event) => Some(event),
        }
    }
}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> Self {
        RuntimeError::Exec(e)
    }
}

/// What a launch's accounting and data plane derive from its description
/// alone — built by [`Runtime::plan`] and consumed by
/// [`Runtime::execute_planned`]:
///
/// * each requirement's access rect (the bounding box of the sub-stores it
///   touches over the launch domain);
/// * the worst tile class's [`kcost::KernelCost`] and its simulated kernel
///   time, before any degraded-machine stretch;
/// * the data plane's [`DataPlan`]: each requirement's binding, the staged
///   copies around each stage and the locals that get storage.
///
/// The plan is a pure function of the requirements' partitions, their
/// regions' shapes, their privileges, which requirements share a region, the
/// launch domain, the kernel's module and `local_buffer_lens` — so a launch
/// that differs from another only in which regions it names, with the same
/// sharing between them, has the same plan. Everything that depends on the
/// runtime's state stays per launch: coherence, validity, fault injection,
/// region handles and dependence tracking. A simulation-only runtime plans
/// no data plane (it runs no functional work), only the price.
///
/// # Example
///
/// ```
/// use machine::MachineConfig;
/// use runtime::{Runtime, RuntimeConfig, TaskLaunch};
/// use ir::{Domain, Partition};
/// use kernel::{compile_interp, KernelModule};
///
/// let mut rt = Runtime::new(RuntimeConfig::functional(MachineConfig::with_gpus(2)));
/// let (a, b) = (rt.allocate_region(vec![8], "a"), rt.allocate_region(vec![8], "b"));
/// let launch = |r| {
///     TaskLaunch::builder("touch")
///         .domain(Domain::linear(2))
///         .read(r, Partition::block(vec![4]))
///         .kernel(compile_interp(KernelModule::new(1)))
///         .build()
/// };
/// // Same description over another region: the same plan, reusable.
/// let plan = rt.plan(&launch(a)).unwrap();
/// assert_eq!(plan, rt.plan(&launch(b)).unwrap());
/// rt.execute_planned(&launch(b), &plan).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchPlan {
    /// How many requirements, then how many task-local buffers, the planned
    /// launch has: what [`Runtime::execute_planned`] holds a launch to.
    buffers: (usize, usize),
    /// Per requirement: the rect the launch accesses.
    rects: Vec<Rect>,
    /// The worst tile class's kernel cost.
    cost: kcost::KernelCost,
    /// The simulated seconds of that cost on one healthy GPU.
    kernel_time: f64,
    /// The launch domain, interned: the part of a communication price's key
    /// that the description fixes ([`Runtime::execute_planned`]).
    domain: ShapeId,
    /// How the data plane binds the launch's buffers.
    data: DataPlan,
}

/// Coherence state of a region: how its current contents are distributed.
#[derive(Debug, Clone, PartialEq)]
enum Validity {
    /// Never written since allocation (zero everywhere, valid everywhere).
    Uninitialized,
    /// Every GPU holds a valid copy of the full region.
    Full,
    /// The region was last written through this partition; each GPU holds the
    /// sub-store that partition assigns to it.
    Partitioned(PartitionId),
    /// The region holds pending reduction contributions that must be combined
    /// before the next read.
    Reduced,
}

/// The Legion-style runtime: owns regions, tracks coherence, charges costs on
/// the simulated clock and (optionally) executes kernels functionally.
///
/// # Example
///
/// ```
/// use machine::MachineConfig;
/// use runtime::{Runtime, RuntimeConfig};
///
/// let mut rt = Runtime::new(RuntimeConfig::functional(MachineConfig::with_gpus(2)));
/// let r = rt.allocate_region(vec![16], "v");
/// rt.fill(r, 3.0).unwrap();
/// assert_eq!(rt.region_data(r).unwrap(), vec![3.0; 16]);
/// assert!(rt.elapsed() > 0.0);
/// ```
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    cost: CostModel,
    clock: SimClock,
    memory: MemoryTracker,
    regions: FnvHashMap<RegionId, RegionHandle>,
    validity: FnvHashMap<RegionId, Validity>,
    profile: Profile,
    next_region: u64,
    executor: Executor,
    backend: Arc<dyn KernelBackend>,
    /// An error returned by an internal flush (e.g. inside [`Runtime::region_data`])
    /// that could not be surfaced through that call's signature; re-raised by
    /// the next fallible operation.
    deferred_error: Option<RuntimeError>,
    /// The active fault-injection plan, if any.
    fault_plan: Option<FaultPlan>,
    /// Recovery policy applied to injected faults.
    recovery: RecoveryPolicy,
    /// Per-fingerprint occurrence counters: repeated launches of the same
    /// content (CG iterations) get distinct fault keys while remaining
    /// executor- and window-permutation invariant (program order of equal
    /// fingerprints is preserved by every legal reordering).
    fault_occurrence: FnvHashMap<u64, u64>,
    /// Fault/recovery attribution counters.
    fault_stats: FaultStats,
    /// Per-GPU device-fault strikes; a GPU with `recovery.unhealthy_after`
    /// strikes is unhealthy and its share of work migrates to the rest.
    gpu_strikes: Vec<u32>,
    /// Per-launch failure records drained from the executor, surfaced via
    /// [`Runtime::take_failures`].
    failures: Vec<LaunchFailure>,
    /// Communication deficits by their four interned ids, as the point walk
    /// found them on the key's first sighting ([`Runtime::charge_communication`]).
    deficits: FnvHashMap<DeficitKey, Deficits>,
}

/// What a communication deficit is a pure function of: the partition a
/// launch reads a region through, the partition the region is valid
/// through, the region's shape and the launch domain.
type DeficitKey = (PartitionId, PartitionId, ShapeId, ShapeId);

/// The bytes the worst launch point's GPU lacks, and the bytes all of them
/// lack ([`walk_deficits`]).
type Deficits = (u64, u64);

impl Drop for Runtime {
    fn drop(&mut self) {
        // A stashed launch error with no fallible call left to re-raise it
        // must not vanish silently (the executor warns about its own).
        if let Some(e) = self.deferred_error.take() {
            eprintln!("warning: discarding deferred launch error at runtime shutdown: {e}");
        }
    }
}

impl Runtime {
    /// Creates a runtime over the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let gpus = config.machine.total_gpus();
        let cost = CostModel::new(config.machine.clone());
        // Simulation-only runs produce no functional work, so workers would
        // only burn resources: none there.
        let kind = if config.materialize_data { config.executor } else { ExecutorKind::Serial };
        let executor = Executor::new(kind, gpus);
        let backend = config.backend.backend();
        let fault_plan = config.fault_plan.filter(|p| p.rate() > 0.0);
        let recovery = config.recovery;
        Runtime {
            config,
            cost,
            clock: SimClock::new(gpus),
            memory: MemoryTracker::new(gpus),
            regions: FnvHashMap::default(),
            validity: FnvHashMap::default(),
            profile: Profile::default(),
            next_region: 0,
            executor,
            backend,
            deferred_error: None,
            fault_plan,
            recovery,
            fault_occurrence: FnvHashMap::default(),
            fault_stats: FaultStats::default(),
            gpu_strikes: vec![0; gpus],
            failures: Vec::new(),
            deficits: FnvHashMap::default(),
        }
    }

    /// Number of GPUs in the simulated machine.
    pub fn gpus(&self) -> usize {
        self.cost.config().total_gpus()
    }

    /// Whether regions hold real data.
    pub fn is_functional(&self) -> bool {
        self.config.materialize_data
    }

    /// The kind of executor running functional work. Note that simulation-only
    /// runtimes always execute serially regardless of the configured kind.
    pub fn executor_kind(&self) -> ExecutorKind {
        self.executor.kind()
    }

    /// The kernel backend [`Runtime::compile`] uses.
    pub fn backend_kind(&self) -> BackendKind {
        self.config.backend
    }

    /// Compiles a kernel module with the runtime's configured backend,
    /// producing the [`CompiledKernel`] payload a [`TaskLaunch`] carries.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Exec`] if the backend rejects the module as
    /// malformed (modules built with [`kernel::LoopBuilder`] always compile).
    ///
    /// # Example
    ///
    /// ```
    /// use machine::MachineConfig;
    /// use runtime::{Runtime, RuntimeConfig};
    /// use kernel::KernelModule;
    ///
    /// let rt = Runtime::new(RuntimeConfig::functional(MachineConfig::with_gpus(2)));
    /// let kernel = rt.compile(&KernelModule::new(1)).unwrap();
    /// assert_eq!(kernel.backend_id(), rt.backend_kind().id());
    /// ```
    pub fn compile(&self, module: &KernelModule) -> Result<Arc<dyn CompiledKernel>, RuntimeError> {
        self.backend.compile(module).map_err(RuntimeError::Exec)
    }

    /// Allocates a distributed region of the given shape.
    pub fn allocate_region(&mut self, shape: Vec<u64>, name: impl Into<String>) -> RegionId {
        let id = RegionId(self.next_region);
        self.next_region += 1;
        let region = Region::new(id, shape, name, self.config.materialize_data);
        let handle = RegionHandle::new(region);
        let bytes_per_gpu = handle.size_bytes() / self.gpus() as u64;
        self.memory.allocate_distributed(bytes_per_gpu.max(1));
        self.profile.distributed_allocations += 1;
        self.profile.distributed_allocation_bytes += handle.size_bytes();
        self.validity.insert(id, Validity::Uninitialized);
        self.regions.insert(id, handle);
        id
    }

    /// Frees a region.
    ///
    /// This does *not* synchronize with outstanding launches: in-flight work
    /// holds its own [`RegionHandle`]s, which keep the data alive until it
    /// completes, and region ids are never reused — so freeing is safe while
    /// the executor is still draining (and keeps independent launches
    /// overlapping across window boundaries).
    ///
    /// # Errors
    ///
    /// Returns an error if the region does not exist. Deliberately *not* a
    /// re-raise point for deferred launch errors: freeing is cleanup whose
    /// `Result` callers routinely discard, so a stashed error stays pending
    /// for the next [`Runtime::execute`], [`Runtime::fill`],
    /// [`Runtime::write_region_data`] or [`Runtime::flush_launches`] — calls
    /// whose errors are actually handled.
    pub fn free_region(&mut self, id: RegionId) -> Result<(), RuntimeError> {
        let handle = self
            .regions
            .remove(&id)
            .ok_or(RuntimeError::UnknownRegion(id))?;
        let bytes_per_gpu = handle.size_bytes() / self.gpus() as u64;
        self.memory.free_distributed(bytes_per_gpu.max(1));
        self.validity.remove(&id);
        Ok(())
    }

    /// Fills every element of a region with a value, charging one streaming
    /// write pass. Flushes outstanding launches first.
    ///
    /// # Errors
    ///
    /// Returns an error if the region does not exist, or re-raises a deferred
    /// launch error.
    pub fn fill(&mut self, id: RegionId, value: f64) -> Result<(), RuntimeError> {
        // Handle clones are cheap (Arc), and taking one up front keeps the
        // borrow clear of the flush below.
        let handle = self
            .regions
            .get(&id)
            .ok_or(RuntimeError::UnknownRegion(id))?
            .clone();
        self.flush_launches()?;
        let gpus = self.gpus() as u64;
        handle.fill(value);
        let bytes_per_gpu = handle.size_bytes() / gpus;
        let t = self.cost.task_overhead()
            + self.cost.launch_time()
            + self.cost.kernel_time(bytes_per_gpu, 0, 0);
        self.clock.uniform_phase(t);
        self.profile.index_tasks += 1;
        self.profile.kernel_launches += 1;
        self.profile.kernel_time += self.cost.launch_time() + self.cost.kernel_time(bytes_per_gpu, 0, 0);
        self.profile.overhead_time += self.cost.task_overhead();
        self.profile.kernel_bytes += bytes_per_gpu;
        self.validity.insert(id, Validity::Full);
        Ok(())
    }

    /// Overwrites a region's contents with the given row-major data (host
    /// initialization; no simulated cost). Flushes outstanding launches first.
    ///
    /// # Errors
    ///
    /// Returns an error if the region does not exist, or re-raises a deferred
    /// launch error.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the region volume.
    pub fn write_region_data(&mut self, id: RegionId, data: Vec<f64>) -> Result<(), RuntimeError> {
        let handle = self
            .regions
            .get(&id)
            .ok_or(RuntimeError::UnknownRegion(id))?
            .clone();
        self.flush_launches()?;
        handle.write_data(data); // asserts the length matches the volume
        self.validity.insert(id, Validity::Full);
        Ok(())
    }

    /// The contents of a region, if it exists and is materialized. Flushes
    /// outstanding launches first so the data reflects every submitted launch.
    ///
    /// If a deferred launch error is pending, the data cannot be trusted:
    /// this returns `None` and the error is stashed, to be re-raised by the
    /// next fallible operation ([`Runtime::execute`], [`Runtime::fill`],
    /// [`Runtime::flush_launches`], …).
    pub fn region_data(&mut self, id: RegionId) -> Option<Vec<f64>> {
        if let Err(e) = self.flush_launches() {
            self.deferred_error = Some(e);
            return None;
        }
        self.regions.get(&id).and_then(|h| h.data())
    }

    /// The shape of a region, if it exists (metadata only — never blocks on
    /// outstanding launches).
    pub fn region_shape(&self, id: RegionId) -> Option<&[u64]> {
        self.regions.get(&id).map(|h| h.shape())
    }

    /// Current simulated time in seconds. Accounting is eager, so this does
    /// not depend on outstanding functional work.
    pub fn elapsed(&self) -> f64 {
        self.clock.now()
    }

    /// Accumulated execution profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Memory tracker (peak distributed allocations and so on).
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// Resets the simulated clock and the profile (used to exclude warmup
    /// iterations from steady-state measurements, as the paper does).
    pub fn reset_timing(&mut self) {
        self.clock.reset();
        self.profile.reset();
    }

    /// Plans a launch ([`LaunchPlan`]): its access rects, its price and its
    /// data plane, derived from its description alone. Pricing visits one
    /// point per tile class ([`ir::partition::tile_class_starts`]): every
    /// point of a class sees the same buffer lengths, so the same cost.
    /// Classes are visited in row-major order of their first points and the
    /// worst is kept on a strict `>`, so the chosen cost is the one a walk
    /// over every point would choose — whatever the number of points.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownRegion`] if a requirement names a
    /// region that does not exist.
    pub fn plan(&self, launch: &TaskLaunch) -> Result<LaunchPlan, RuntimeError> {
        // Resolve each requirement's interned partition and its region's
        // shape once (each partition deref takes the interner's read lock).
        let req_parts = launch
            .requirements
            .iter()
            .map(|req| match self.regions.get(&req.region) {
                Some(handle) => Ok((req.partition.get(), handle.shape())),
                None => Err(RuntimeError::UnknownRegion(req.region)),
            })
            .collect::<Result<Vec<(&ir::Partition, &[u64])>, _>>()?;
        let (cost, kernel_time) = self.price(launch, &req_parts);
        let domain = ShapeId::intern(launch.launch_domain.shape());
        let num_locals = launch.local_buffer_lens.len();
        let buffers = (launch.requirements.len(), num_locals);
        if !self.config.materialize_data {
            let (rects, data) = (Vec::new(), DataPlan::default());
            return Ok(LaunchPlan { buffers, rects, cost, kernel_time, domain, data });
        }
        let rects = req_parts
            .iter()
            .map(|(part, shape)| part.bounds_over(shape, &launch.launch_domain))
            .collect();
        let requirements = launch.requirements.iter().map(|req| (req.region, req.privilege));
        let data = DataPlan::new(launch.kernel.module(), requirements, num_locals);
        Ok(LaunchPlan { buffers, rects, cost, kernel_time, domain, data })
    }

    /// Executes an index-task launch: plans it ([`Runtime::plan`]), then
    /// executes it under that plan ([`Runtime::execute_planned`]).
    ///
    /// # Errors
    ///
    /// Returns an error if a requirement references an unknown region, or
    /// re-raises a deferred error from an earlier launch. Interpreter errors
    /// of this launch itself surface at the next flush.
    pub fn execute(&mut self, launch: &TaskLaunch) -> Result<(), RuntimeError> {
        match self.plan(launch) {
            Ok(plan) => self.execute_planned(launch, &plan),
            // Earliest failure wins: a deferred error predates this launch.
            Err(e) => Err(self.deferred_error.take().unwrap_or(e)),
        }
    }

    /// Executes an index-task launch under a plan made for its description
    /// (by [`Runtime::plan`], for this launch or for one that differs from
    /// it only in which regions it names): charges overheads, coherence
    /// traffic and the planned kernel time on the simulated clock eagerly
    /// and, in functional mode, hands the kernel work to the executor. Under
    /// a parallel executor the functional work may still be in flight when
    /// this returns; call [`Runtime::flush_launches`] (or read data, which
    /// flushes implicitly) to synchronize.
    ///
    /// # Errors
    ///
    /// Returns an error if a requirement references an unknown region, or
    /// re-raises a deferred error from an earlier launch. Interpreter errors
    /// of this launch itself surface at the next flush.
    ///
    /// # Panics
    ///
    /// Panics, before anything is charged, if the plan was made for a launch
    /// with a different number of requirements or of task-local buffers.
    pub fn execute_planned(
        &mut self,
        launch: &TaskLaunch,
        plan: &LaunchPlan,
    ) -> Result<(), RuntimeError> {
        self.execute_folded(launch, plan, None)
    }

    /// [`Runtime::execute_planned`] for a caller that keeps the launch's
    /// [`TaskLaunch::head_fold`]: an armed fault plan then folds only what
    /// follows the head into the launch's fingerprint. Fault schedules are
    /// the same as through [`Runtime::execute_planned`].
    ///
    /// # Errors
    ///
    /// As [`Runtime::execute_planned`].
    ///
    /// # Panics
    ///
    /// As [`Runtime::execute_planned`]; debug builds also check `head`.
    pub fn execute_planned_after_head(
        &mut self,
        launch: &TaskLaunch,
        plan: &LaunchPlan,
        head: u64,
    ) -> Result<(), RuntimeError> {
        debug_assert_eq!(head, launch.head_fold(), "head fold of `{}`", launch.name);
        self.execute_folded(launch, plan, Some(head))
    }

    fn execute_folded(
        &mut self,
        launch: &TaskLaunch,
        plan: &LaunchPlan,
        head: Option<u64>,
    ) -> Result<(), RuntimeError> {
        let buffers = (launch.requirements.len(), launch.local_buffer_lens.len());
        assert_eq!(
            plan.buffers, buffers,
            "launch `{}` executed under a plan made for another launch \
             ((requirements, locals) planned vs launched)",
            launch.name
        );
        debug_assert_eq!(
            plan.domain.get(),
            launch.launch_domain.shape(),
            "launch `{}` executed under a plan made for another launch domain",
            launch.name
        );
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        for req in &launch.requirements {
            if !self.regions.contains_key(&req.region) {
                return Err(RuntimeError::UnknownRegion(req.region));
            }
        }
        // 1. Per-operation overhead.
        let overhead = match launch.overhead {
            OverheadClass::TaskRuntime => self.cost.task_overhead(),
            OverheadClass::Mpi => self.cost.mpi_overhead(),
            OverheadClass::None => 0.0,
        };
        // 2. Coherence: communication required to read data through a
        // partition other than the one it was produced with.
        let comm_time = self.charge_communication(launch, plan.domain);
        // 3. Update validity from this launch's writes and reductions.
        self.update_validity(launch);
        // 4. Kernel cost on the critical-path GPU.
        let kernel_time = self.charge_kernels(plan);
        // 5. Advance the bulk-synchronous clock.
        self.clock.uniform_phase(overhead + comm_time + kernel_time);
        self.profile.index_tasks += 1;
        self.profile.overhead_time += overhead;
        // 6. Fault injection and recovery pricing — eager and program-ordered
        // like the rest of accounting, so fault schedules and recovery cost
        // are identical under every executor and backend.
        let (failed_attempts, abandoned) = self.inject_faults(launch, head);
        // 7. Functional execution, scheduled by the executor.
        if let Some(event) = abandoned {
            // The accounting above stands (the machine did the work up to the
            // kill); the launch's outputs never commit, and every launch in
            // its dependence cone is skipped as Poisoned.
            let summaries: Vec<AccessSummary> = launch
                .requirements
                .iter()
                .map(AccessSummary::from_requirement)
                .collect();
            self.executor
                .poison(&launch.name, &summaries, RuntimeError::Faulted(event));
        } else if self.config.materialize_data {
            let work = self.work_request(launch, plan, failed_attempts);
            self.executor.submit(work);
        }
        Ok(())
    }

    /// Waits for every submitted launch's functional work to complete.
    ///
    /// # Errors
    ///
    /// Returns the first failure of the batch (by submission order — the root
    /// of the earliest failed dependence cone), or re-raises a deferred
    /// error. Per-launch records survive until [`Runtime::take_failures`].
    pub fn flush_launches(&mut self) -> Result<(), RuntimeError> {
        // The executor drains even when a deferred error is about to be
        // re-raised, so the next batch starts clean.
        let result = self.executor.flush();
        self.failures.extend(self.executor.drain_failures());
        // Earliest failure wins: a deferred error predates this batch.
        match self.deferred_error.take() {
            Some(e) => Err(e),
            None => result,
        }
    }

    /// Drains the structured per-launch failure records accumulated since the
    /// last call, in submission order within each batch (a failed cone's root
    /// precedes its poisoned dependents).
    pub fn take_failures(&mut self) -> Vec<LaunchFailure> {
        let mut out = std::mem::take(&mut self.failures);
        out.extend(self.executor.drain_failures());
        out
    }

    /// Fault/recovery attribution counters accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The active fault-injection plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Records a launch-attributed failure produced outside the executor
    /// (the Diffuse layer's verifier, with fail-fast off) and poisons its
    /// dependence cone: the accesses join hazard tracking so every downstream
    /// launch is skipped.
    pub fn poison_launch(&mut self, name: &str, accesses: &[AccessSummary], error: RuntimeError) {
        self.executor.poison(name, accesses, error);
    }

    /// Decides this launch's injected faults and prices recovery — on the
    /// submitting thread, before any functional work is scheduled, so the
    /// simulated clock and the stats are executor- and backend-invariant.
    ///
    /// Returns the number of killed device attempts the functional half must
    /// replay (and roll back) and, when the launch could not be recovered
    /// (policy disabled), the fault event that abandons it. `head` is the
    /// launch's head fold if the caller kept it; otherwise, and only under a
    /// plan, it is folded here.
    fn inject_faults(
        &mut self,
        launch: &TaskLaunch,
        head: Option<u64>,
    ) -> (u32, Option<FaultEvent>) {
        let Some(plan) = self.fault_plan else {
            return (0, None);
        };
        let fp = launch.fingerprint_after_head(head.unwrap_or_else(|| launch.head_fold()));
        let occurrence = self.fault_occurrence.entry(fp).or_insert(0);
        let key = mix(fp, *occurrence);
        *occurrence += 1;
        // Transient region-read faults: a retry re-reads the intact source
        // copy, so recovery never affects functional results — only the
        // simulated clock (the retry budget caps work at rate 1.0; past it
        // the authoritative copy is assumed reached).
        let mut read_attempt: u32 = 0;
        while read_attempt <= self.recovery.max_retries
            && plan.should_fault(FaultSite::RegionRead, key, read_attempt)
        {
            self.fault_stats.faults_injected += 1;
            if !self.recovery.enabled {
                self.fault_stats.abandoned_launches += 1;
                return (
                    0,
                    Some(FaultEvent {
                        launch: launch.name.clone(),
                        site: FaultSite::RegionRead,
                        attempts: read_attempt + 1,
                    }),
                );
            }
            self.fault_stats.retries += 1;
            let backoff = self.recovery.backoff(read_attempt);
            self.fault_stats.recovery_sim_time += backoff;
            self.clock.uniform_phase(backoff);
            read_attempt += 1;
        }
        // Device faults: each killed attempt is replayed (and rolled back) by
        // the functional half; exhausting the retry budget strikes the
        // launch's target GPU and migrates the work — with recovery on, a
        // launch is never lost.
        let mut killed: u32 = 0;
        while killed <= self.recovery.max_retries
            && plan.should_fault(FaultSite::Device, key, killed)
        {
            self.fault_stats.faults_injected += 1;
            killed += 1;
            if !self.recovery.enabled {
                self.fault_stats.abandoned_launches += 1;
                return (
                    0,
                    Some(FaultEvent {
                        launch: launch.name.clone(),
                        site: FaultSite::Device,
                        attempts: killed,
                    }),
                );
            }
            if killed <= self.recovery.max_retries {
                self.fault_stats.retries += 1;
                let backoff = self.recovery.backoff(killed - 1);
                self.fault_stats.recovery_sim_time += backoff;
                self.clock.uniform_phase(backoff);
            }
        }
        if killed > self.recovery.max_retries {
            self.strike_gpu(fp);
        }
        (killed, None)
    }

    /// GPUs whose strike count is still below the policy threshold.
    fn healthy_gpus(&self) -> usize {
        self.gpu_strikes
            .iter()
            .filter(|&&s| s < self.recovery.unhealthy_after)
            .count()
    }

    /// Registers a device-fault strike against the launch's deterministic
    /// target GPU (`fingerprint % gpus`). Losing the last healthy GPU
    /// restarts the simulated machine: health resets and the restart penalty
    /// is charged. The host executor is untouched — simulated GPUs dying
    /// says nothing about host threads, and its failure map and dependence
    /// tracker must survive the restart for cone containment to hold.
    fn strike_gpu(&mut self, fp: u64) {
        self.fault_stats.degraded_launches += 1;
        let target = (fp % self.gpu_strikes.len() as u64) as usize;
        self.gpu_strikes[target] = self.gpu_strikes[target].saturating_add(1);
        if self.healthy_gpus() == 0 {
            self.gpu_strikes.iter_mut().for_each(|s| *s = 0);
            let penalty = self.recovery.restart_penalty();
            self.fault_stats.recovery_sim_time += penalty;
            self.clock.uniform_phase(penalty);
        }
    }

    /// Packages the functional half of a launch for the executor. The request
    /// borrows the launch and its plan (the inline path clones nothing of
    /// either); only resolved handles and the planned rects are owned.
    fn work_request<'a>(
        &self,
        launch: &'a TaskLaunch,
        plan: &'a LaunchPlan,
        failed_attempts: u32,
    ) -> WorkRequest<'a> {
        let accesses: Vec<BufferAccess> = launch
            .requirements
            .iter()
            .zip(&plan.rects)
            .map(|(req, rect)| BufferAccess {
                region: req.region,
                handle: self.regions[&req.region].clone(),
                rect: rect.clone(),
                privilege: req.privilege,
            })
            .collect();
        WorkRequest {
            name: &launch.name,
            kernel: &launch.kernel,
            scalars: &launch.scalars,
            local_buffer_lens: &launch.local_buffer_lens,
            accesses,
            plan: &plan.data,
            failed_attempts,
        }
    }

    /// Computes and charges the communication needed before `launch`, whose
    /// domain is interned as `domain`, can read its requirements. Returns the
    /// simulated seconds of communication.
    ///
    /// A read through a partition other than the one its region is valid
    /// through is priced from the bytes each launch point's GPU lacks. That
    /// deficit is a pure function of four interned ids — the wanted and the
    /// valid partition, the region's shape and the launch domain — so it is
    /// walked point by point ([`walk_deficits`]) on a key's first sighting
    /// only and looked up after that: a replayed launch walks no point. The
    /// memo keeps the walk's own integers, so the price is the walk's. It
    /// holds one entry per distinct key, which, like the interners behind
    /// the ids, does not grow with the iteration count.
    ///
    /// The launch domain is interned once per plan. The region's shape is
    /// interned here, on the lookup: keeping its id in the region's
    /// metadata instead changed the heap layout enough to put
    /// `diffuse-bench`'s `heat_xlib` set-up in its slow mode (≈2.5 against
    /// ≈0.9 ms on a 2-core x86-64 box) in nearly every process.
    fn charge_communication(&mut self, launch: &TaskLaunch, domain: ShapeId) -> f64 {
        let mut total_time = 0.0;
        for req in &launch.requirements {
            if !req.privilege.reads() {
                continue;
            }
            let region = &self.regions[&req.region];
            let validity = self
                .validity
                .get(&req.region)
                .cloned()
                .unwrap_or(Validity::Uninitialized);
            match validity {
                Validity::Uninitialized | Validity::Full => {}
                Validity::Reduced => {
                    // Combine pending reduction contributions (tiny payloads,
                    // latency bound).
                    let t = self.cost.allreduce_time(8);
                    total_time += t;
                    self.profile.comm_bytes += 8 * self.gpus() as u64;
                    self.validity.insert(req.region, Validity::Full);
                }
                Validity::Partitioned(valid_part) => {
                    if valid_part == req.partition {
                        continue;
                    }
                    let shape = ShapeId::intern(region.shape());
                    let key = (req.partition, valid_part, shape, domain);
                    let (max_deficit, total_deficit) =
                        *self.deficits.entry(key).or_insert_with(|| {
                            walk_deficits(
                                req.partition.get(),
                                valid_part.get(),
                                region.shape(),
                                &launch.launch_domain,
                            )
                        });
                    if total_deficit == 0 {
                        continue;
                    }
                    let t = if req.partition.is_replicate() {
                        self.cost.allgather_time(region.size_bytes())
                    } else {
                        self.cost
                            .halo_exchange_time(max_deficit, self.cost.off_node_boundary_fraction())
                    };
                    total_time += t;
                    self.profile.comm_bytes += total_deficit;
                }
            }
        }
        self.profile.comm_time += total_time;
        total_time
    }

    /// Updates region validity according to the launch's writes/reductions.
    fn update_validity(&mut self, launch: &TaskLaunch) {
        for req in &launch.requirements {
            if req.privilege.reduces() {
                self.validity.insert(req.region, Validity::Reduced);
            } else if req.privilege.writes() {
                let v = if req.partition.may_alias_across_points() {
                    // A replicated write leaves every GPU with the full value.
                    Validity::Full
                } else {
                    Validity::Partitioned(req.partition)
                };
                self.validity.insert(req.region, v);
            }
        }
    }

    /// The worst tile class's kernel cost over the launch and its simulated
    /// seconds, for [`Runtime::plan`]; `req_parts` is each requirement's
    /// partition and region shape.
    fn price(
        &self,
        launch: &TaskLaunch,
        req_parts: &[(&ir::Partition, &[u64])],
    ) -> (kcost::KernelCost, f64) {
        let domain_size = launch.launch_domain.size().max(1);
        let mut worst_time = 0.0f64;
        let mut worst_cost = kcost::KernelCost::default();
        // The module cost is a pure function of the lengths, so reuse the
        // previous class's cost when they repeat. This changes host
        // wall-clock only — the simulated worst-point time is identical.
        let mut lens: Vec<usize> = Vec::new();
        let mut prev: Option<(Vec<usize>, kcost::KernelCost, f64)> = None;
        let starts =
            ir::partition::tile_class_starts(req_parts.iter().copied(), &launch.launch_domain);
        let classes = Domain::new(starts.iter().map(|runs| runs.len() as u64).collect());
        for class in classes.points() {
            // The class's first point: the start of its run in every dimension.
            let p: Vec<i64> =
                class.iter().zip(&starts).map(|(&k, runs)| runs[k as usize] as i64).collect();
            lens.clear();
            lens.extend(
                req_parts
                    .iter()
                    .map(|(part, shape)| part.sub_store_bounds(shape, &p).volume() as usize),
            );
            for &full in &launch.local_buffer_lens {
                let per_point = if full <= 1 {
                    full
                } else {
                    (full as u64).div_ceil(domain_size) as usize
                };
                lens.push(per_point.max(1));
            }
            let (c, t) = match &prev {
                Some((prev_lens, c, t)) if *prev_lens == lens => (*c, *t),
                _ => {
                    let c = kcost::module_cost(launch.kernel.module(), &lens);
                    let t = self.cost.kernel_time(c.bytes, c.flops, 0)
                        + c.launches as f64 * self.cost.launch_time();
                    prev = Some((lens.clone(), c, t));
                    (c, t)
                }
            };
            if t > worst_time {
                worst_time = t;
                worst_cost = c;
            }
        }
        (worst_cost, worst_time)
    }

    /// Books a launch's planned kernel cost into the profile. Returns the
    /// simulated seconds on the critical-path GPU.
    fn charge_kernels(&mut self, plan: &LaunchPlan) -> f64 {
        self.profile.kernel_launches += plan.cost.launches;
        self.profile.kernel_bytes += plan.cost.bytes;
        self.profile.kernel_flops += plan.cost.flops;
        // Degraded machine: unhealthy GPUs' shares migrate to the healthy
        // ones, stretching the bulk-synchronous phase proportionally. With no
        // strikes the factor is exactly 1.0, so fault-free simulated time is
        // bit-identical to a build without the fault layer.
        let healthy = self.healthy_gpus().max(1);
        let worst_time = plan.kernel_time * (self.gpu_strikes.len() as f64 / healthy as f64);
        self.profile.kernel_time += worst_time;
        worst_time
    }
}

/// The bytes a launch over `domain` lacks when it reads a region of `shape`
/// through `want` while the region is valid through `have`: per launch point,
/// the part of the point's `want` sub-store its GPU does not hold under
/// `have`. Returns the worst point's deficit and the sum over all points.
/// Walks every point: [`Runtime::charge_communication`] calls it once per
/// distinct key.
fn walk_deficits(want: &Partition, have: &Partition, shape: &[u64], domain: &Domain) -> Deficits {
    #[cfg(test)]
    POINTS_WALKED.with(|walked| walked.set(walked.get() + domain.size()));
    let mut max_deficit: u64 = 0;
    let mut total_deficit: u64 = 0;
    for p in domain.points() {
        let want = want.sub_store_bounds(shape, &p);
        let have = have.sub_store_bounds(shape, &p);
        let overlap = want.intersect(&have).volume();
        let deficit = (want.volume() - overlap) * 8;
        max_deficit = max_deficit.max(deficit);
        total_deficit += deficit;
    }
    (max_deficit, total_deficit)
}

#[cfg(test)]
thread_local! {
    /// Launch points [`walk_deficits`] visited on this thread.
    static POINTS_WALKED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::RegionRequirement;
    use ir::{Partition, Privilege, Projection};
    use kernel::{compile_interp, BufferId, BufferRole, KernelModule, LoopBuilder};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn functional_runtime(gpus: usize) -> Runtime {
        Runtime::new(
            RuntimeConfig::functional(MachineConfig::with_gpus(gpus))
                .with_executor(ExecutorKind::Serial),
        )
    }

    fn scale_module(factor: f64) -> KernelModule {
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("scale", BufferId(0));
        let x = lb.load(BufferId(0));
        let c = lb.constant(factor);
        let v = lb.mul(x, c);
        lb.store(BufferId(1), v);
        module.push_loop(lb.finish());
        module
    }

    fn scale_launch(a: RegionId, b: RegionId, gpus: u64, n: u64) -> TaskLaunch {
        TaskLaunch {
            name: "scale".into(),
            launch_domain: Domain::linear(gpus),
            requirements: vec![
                RegionRequirement::new(a, Partition::block(vec![n / gpus]), Privilege::Read),
                RegionRequirement::new(b, Partition::block(vec![n / gpus]), Privilege::Write),
            ],
            kernel: compile_interp(scale_module(3.0)),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        }
    }

    #[test]
    fn allocate_fill_free() {
        let mut rt = functional_runtime(4);
        let r = rt.allocate_region(vec![32], "v");
        assert_eq!(rt.region_shape(r), Some(&[32u64][..]));
        rt.fill(r, 7.0).unwrap();
        assert!(rt.region_data(r).unwrap().iter().all(|&x| x == 7.0));
        assert_eq!(rt.profile().distributed_allocations, 1);
        rt.free_region(r).unwrap();
        assert!(rt.region_data(r).is_none());
        assert_eq!(rt.free_region(r), Err(RuntimeError::UnknownRegion(r)));
    }

    #[test]
    fn execute_runs_kernel_and_charges_time() {
        let mut rt = functional_runtime(4);
        let a = rt.allocate_region(vec![32], "a");
        let b = rt.allocate_region(vec![32], "b");
        rt.fill(a, 2.0).unwrap();
        let before = rt.elapsed();
        rt.execute(&scale_launch(a, b, 4, 32)).unwrap();
        assert!(rt.elapsed() > before);
        assert_eq!(rt.region_data(b).unwrap(), vec![6.0; 32]);
        assert_eq!(rt.profile().index_tasks, 2); // fill + scale
        assert!(rt.profile().kernel_launches >= 2);
        assert_eq!(rt.profile().comm_bytes, 0, "same partition: no communication");
    }

    #[test]
    fn reading_through_a_different_partition_charges_communication() {
        let mut rt = functional_runtime(4);
        let a = rt.allocate_region(vec![32], "a");
        let b = rt.allocate_region(vec![32], "b");
        let c = rt.allocate_region(vec![32], "c");
        rt.fill(a, 1.0).unwrap();
        // Write b tiled by blocks of 8.
        rt.execute(&scale_launch(a, b, 4, 32)).unwrap();
        // Read b through a shifted tiling -> halo exchange.
        let shifted = Partition::tiling(vec![8], vec![1], ir::Projection::Identity);
        let launch = TaskLaunch {
            name: "shifted_read".into(),
            launch_domain: Domain::linear(4),
            requirements: vec![
                RegionRequirement::new(b, shifted, Privilege::Read),
                RegionRequirement::new(c, Partition::block(vec![8]), Privilege::Write),
            ],
            kernel: compile_interp(scale_module(1.0)),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        };
        rt.execute(&launch).unwrap();
        assert!(rt.profile().comm_bytes > 0);
        assert!(rt.profile().comm_time > 0.0);
    }

    #[test]
    fn replicated_read_after_tiled_write_charges_allgather() {
        let mut rt = functional_runtime(8);
        let a = rt.allocate_region(vec![64], "a");
        let b = rt.allocate_region(vec![64], "b");
        let out = rt.allocate_region(vec![64], "out");
        rt.fill(a, 1.0).unwrap();
        rt.execute(&scale_launch(a, b, 8, 64)).unwrap();
        let comm_before = rt.profile().comm_bytes;
        let launch = TaskLaunch {
            name: "gather_read".into(),
            launch_domain: Domain::linear(8),
            requirements: vec![
                RegionRequirement::new(b, Partition::Replicate, Privilege::Read),
                RegionRequirement::new(out, Partition::block(vec![8]), Privilege::Write),
            ],
            kernel: compile_interp(scale_module(1.0)),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        };
        rt.execute(&launch).unwrap();
        let comm = rt.profile().comm_bytes - comm_before;
        // Each GPU misses 7/8 of the 512-byte region.
        assert_eq!(comm, 8 * (512 - 64));
    }

    #[test]
    fn mpi_overhead_is_cheaper_than_task_overhead() {
        let measure = |class: OverheadClass| {
            let mut rt = functional_runtime(4);
            let a = rt.allocate_region(vec![32], "a");
            let b = rt.allocate_region(vec![32], "b");
            rt.fill(a, 1.0).unwrap();
            rt.reset_timing();
            let mut launch = scale_launch(a, b, 4, 32);
            launch.overhead = class;
            rt.execute(&launch).unwrap();
            rt.elapsed()
        };
        let task = measure(OverheadClass::TaskRuntime);
        let mpi = measure(OverheadClass::Mpi);
        let none = measure(OverheadClass::None);
        assert!(task > mpi && mpi > none);
    }

    #[test]
    fn reset_timing_clears_clock_and_profile() {
        let mut rt = functional_runtime(2);
        let a = rt.allocate_region(vec![16], "a");
        rt.fill(a, 1.0).unwrap();
        assert!(rt.elapsed() > 0.0);
        rt.reset_timing();
        assert_eq!(rt.elapsed(), 0.0);
        assert_eq!(rt.profile().index_tasks, 0);
    }

    #[test]
    fn unknown_region_in_launch_is_an_error() {
        let mut rt = functional_runtime(2);
        let launch = TaskLaunch {
            name: "bad".into(),
            launch_domain: Domain::linear(2),
            requirements: vec![RegionRequirement::new(
                RegionId(99),
                Partition::Replicate,
                Privilege::Read,
            )],
            kernel: compile_interp(KernelModule::new(1)),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        };
        assert_eq!(
            rt.execute(&launch),
            Err(RuntimeError::UnknownRegion(RegionId(99)))
        );
    }

    #[test]
    fn simulation_only_mode_skips_data() {
        let mut rt = Runtime::new(RuntimeConfig::simulation_only(MachineConfig::with_gpus(8)));
        assert!(!rt.is_functional());
        let a = rt.allocate_region(vec![1 << 24], "big_a");
        let b = rt.allocate_region(vec![1 << 24], "big_b");
        rt.fill(a, 1.0).unwrap();
        rt.execute(&scale_launch(a, b, 8, 1 << 24)).unwrap();
        assert!(rt.region_data(b).is_none());
        assert!(rt.elapsed() > 0.0);
        assert!(rt.profile().kernel_bytes > 0);
    }

    /// The differential oracle for `Runtime::plan`'s pricing: price every
    /// launch point, in row-major order.
    fn per_point_kernel_charge(rt: &Runtime, launch: &TaskLaunch) -> (f64, kcost::KernelCost) {
        let domain_size = launch.launch_domain.size().max(1);
        let mut worst_time = 0.0f64;
        let mut worst_cost = kcost::KernelCost::default();
        let mut lens: Vec<usize> = Vec::new();
        let mut prev: Option<(Vec<usize>, kcost::KernelCost, f64)> = None;
        let req_parts: Vec<(&ir::Partition, &[u64])> = launch
            .requirements
            .iter()
            .map(|req| (req.partition.get(), rt.regions[&req.region].shape()))
            .collect();
        for p in launch.launch_domain.points() {
            lens.clear();
            lens.extend(
                req_parts
                    .iter()
                    .map(|(part, shape)| part.sub_store_bounds(shape, &p).volume() as usize),
            );
            for &full in &launch.local_buffer_lens {
                let per_point = if full <= 1 {
                    full
                } else {
                    (full as u64).div_ceil(domain_size) as usize
                };
                lens.push(per_point.max(1));
            }
            let (c, t) = match &prev {
                Some((prev_lens, c, t)) if *prev_lens == lens => (*c, *t),
                _ => {
                    let c = kcost::module_cost(launch.kernel.module(), &lens);
                    let t = rt.cost.kernel_time(c.bytes, c.flops, 0)
                        + c.launches as f64 * rt.cost.launch_time();
                    prev = Some((lens.clone(), c, t));
                    (c, t)
                }
            };
            if t > worst_time {
                worst_time = t;
                worst_cost = c;
            }
        }
        (worst_time, worst_cost)
    }

    /// One loop per buffer, over that buffer, with `1 + b % 3` multiplies:
    /// every buffer's length moves the module cost, by a different weight.
    fn per_buffer_module(args: u32, locals: u32) -> KernelModule {
        let mut module = KernelModule::new(args);
        for _ in 0..locals {
            module.add_local();
        }
        for b in 0..args + locals {
            let mut lb = LoopBuilder::new("touch", BufferId(b));
            let mut v = lb.load(BufferId(b));
            for _ in 0..=b % 3 {
                let k = lb.constant(1.5);
                v = lb.mul(v, k);
            }
            lb.store(BufferId(b), v);
            module.push_loop(lb.finish());
        }
        module
    }

    #[test]
    fn pricing_by_tile_class_matches_every_point() {
        let tiled = |tile: Vec<u64>, offset: Vec<i64>, proj| Partition::tiling(tile, offset, proj);
        type Case = (Domain, Vec<(Vec<u64>, Partition)>, Vec<usize>);
        let cases: Vec<Case> = vec![
            // Uneven: 1 000 elements over 128 points, plain and haloed.
            (
                Domain::linear(128),
                vec![
                    (vec![1000], Partition::block(vec![8])),
                    (vec![1000], tiled(vec![8], vec![-1], Projection::Identity)),
                    (vec![1000], tiled(vec![8], vec![3], Projection::Identity)),
                ],
                vec![],
            ),
            // Row blocks through `PadZeros`, a replicated argument, locals.
            (
                Domain::linear(128),
                vec![
                    (vec![1000, 3], tiled(vec![8, 3], vec![0, 0], Projection::PadZeros { rank: 2 })),
                    (vec![64], Partition::Replicate),
                ],
                vec![1000, 1, 0, 129],
            ),
            // Non-repeating `SelectDims` (one dropped, one permuted) beside
            // a haloed 2-D block.
            (
                Domain::new(vec![16, 8]),
                vec![
                    (vec![1000], tiled(vec![63], vec![0], Projection::SelectDims(vec![0]))),
                    (vec![10, 100], tiled(vec![1, 13], vec![0, -2], Projection::SelectDims(vec![1, 0]))),
                    (vec![100, 50], tiled(vec![7, 7], vec![0, -3], Projection::Identity)),
                ],
                vec![7],
            ),
            // Empty domains price nothing.
            (Domain::linear(0), vec![(vec![8], Partition::block(vec![4]))], vec![3]),
            (Domain::new(vec![4, 0]), vec![(vec![8, 8], Partition::block(vec![2, 2]))], vec![]),
        ];
        for (domain, args, locals) in cases {
            let mut rt = Runtime::new(RuntimeConfig::simulation_only(MachineConfig::with_gpus(128)));
            let requirements = args
                .into_iter()
                .map(|(shape, part)| {
                    let region = rt.allocate_region(shape, "arg");
                    RegionRequirement::new(region, part, Privilege::Read)
                })
                .collect::<Vec<_>>();
            let module = per_buffer_module(requirements.len() as u32, locals.len() as u32);
            let launch = TaskLaunch {
                name: "priced".into(),
                launch_domain: domain.clone(),
                requirements,
                kernel: compile_interp(module),
                scalars: vec![],
                local_buffer_lens: locals,
                overhead: OverheadClass::TaskRuntime,
            };
            let (want_time, want) = per_point_kernel_charge(&rt, &launch);
            let plan = rt.plan(&launch).unwrap();
            assert_eq!(plan.kernel_time.to_bits(), want_time.to_bits(), "time over {domain}");
            assert_eq!(plan.cost, want, "cost over {domain}");
            // Executing books the planned price.
            rt.execute_planned(&launch, &plan).unwrap();
            let profile = rt.profile();
            assert_eq!(profile.kernel_time.to_bits(), want_time.to_bits(), "time over {domain}");
            assert_eq!(
                (profile.kernel_bytes, profile.kernel_flops, profile.kernel_launches),
                (want.bytes, want.flops, want.launches),
                "cost over {domain}"
            );
        }
    }

    /// 2^24 launch points, priced by their four tile classes: a per-point
    /// walk would visit every one.
    #[test]
    fn pricing_a_2_pow_24_point_launch_is_scale_free() {
        let mut rt = Runtime::new(RuntimeConfig::simulation_only(MachineConfig::with_gpus(8)));
        let a = rt.allocate_region(vec![1 << 16, 1 << 16], "a");
        let b = rt.allocate_region(vec![1 << 16, 1 << 16], "b");
        // The haloed read clips the first row of tiles to 8 x 16; every
        // other tile of either argument is a full 16 x 16.
        let haloed = Partition::tiling(vec![16, 16], vec![-8, 0], Projection::Identity);
        let launch = TaskLaunch {
            name: "scale".into(),
            launch_domain: Domain::new(vec![1 << 12, 1 << 12]),
            requirements: vec![
                RegionRequirement::new(a, haloed, Privilege::Read),
                RegionRequirement::new(b, Partition::block(vec![16, 16]), Privilege::Write),
            ],
            kernel: compile_interp(scale_module(3.0)),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        };
        let start = std::time::Instant::now();
        rt.execute(&launch).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        // One loop over 256 elements: a load stream and a store stream.
        let profile = rt.profile();
        assert_eq!(
            (profile.kernel_bytes, profile.kernel_flops, profile.kernel_launches),
            (2 * 256 * 8, 256, 1)
        );
    }

    /// A launch over `domain` that reads or writes `region` through
    /// `partition` and runs no stage: all it books is overhead and, when it
    /// reads, communication.
    fn touch(
        region: RegionId,
        partition: Partition,
        privilege: Privilege,
        domain: &Domain,
    ) -> TaskLaunch {
        TaskLaunch {
            name: "touch".into(),
            launch_domain: domain.clone(),
            requirements: vec![RegionRequirement::new(region, partition, privilege)],
            kernel: compile_interp(KernelModule::new(1)),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        }
    }

    /// Launches that read through another partition than the one their
    /// region is valid through, and found it in the deficit memo.
    static REPEATED_DEFICITS: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The deficit memo prices communication exactly as walking every
        /// launch point does, on a key's first sighting and on every repeat:
        /// random streams write a region through one partition of a small
        /// pool and read it through another, over one of a few domains, on
        /// regions of a few shapes. Partitions are tilings with offsets and
        /// halos (negative offsets), through `PadZeros` and `SelectDims`
        /// projections, and `Replicate`. The reference runtime forgets its
        /// memo before every launch, so it walks every time; the clock and
        /// the communication counters must agree to the bit after every
        /// launch.
        fn the_deficit_memo_prices_like_the_point_walk(
            two_d in 0u8..2,
            domains in prop::collection::vec((1u64..9, 1u64..5), 1..4),
            shapes in prop::collection::vec((1u64..40, 1u64..12), 1..4),
            partitions in prop::collection::vec((0u8..4, 1u64..9, 1u64..6, -3i64..4, -2i64..3), 2..4),
            steps in prop::collection::vec((0usize..3, 0usize..4, 0usize..4, 0usize..4, 0usize..4), 4..24),
        ) {
            let domains: Vec<Domain> = domains
                .iter()
                .map(|&(a, b)| if two_d == 1 { Domain::new(vec![a, b]) } else { Domain::linear(a) })
                .collect();
            let partitions: Vec<Partition> = partitions
                .iter()
                .map(|&(kind, t0, t1, o0, o1)| {
                    let proj = match (kind, two_d) {
                        (2, _) => return Partition::Replicate,
                        (0, 1) => Projection::Identity,
                        (1, 1) => Projection::SelectDims(vec![1, 0]),
                        (1, _) => Projection::SelectDims(vec![0, 0]),
                        _ => Projection::PadZeros { rank: 2 },
                    };
                    Partition::tiling(vec![t0, t1], vec![o0, o1], proj)
                })
                .collect();
            let config = RuntimeConfig::simulation_only(MachineConfig::with_gpus(8));
            let (mut memo, mut walk) = (Runtime::new(config.clone()), Runtime::new(config));
            let regions: Vec<RegionId> = (0..3)
                .map(|r| {
                    let (rows, cols) = shapes[r % shapes.len()];
                    let region = memo.allocate_region(vec![rows, cols], "r");
                    assert_eq!(region, walk.allocate_region(vec![rows, cols], "r"));
                    region
                })
                .collect();
            let partition = |i: usize| partitions[i % partitions.len()].clone();
            let domain = |i: usize| &domains[i % domains.len()];
            for &(r, w, q, dw, dq) in &steps {
                let write = touch(regions[r], partition(w), Privilege::Write, domain(dw));
                let read = touch(regions[r], partition(q), Privilege::Read, domain(dq));
                for launch in [write, read] {
                    let known = memo.deficits.len();
                    walk.deficits.clear();
                    memo.execute(&launch).unwrap();
                    walk.execute(&launch).unwrap();
                    let (m, w) = (memo.profile(), walk.profile());
                    prop_assert_eq!(
                        (memo.elapsed().to_bits(), m.comm_time.to_bits(), m.comm_bytes),
                        (walk.elapsed().to_bits(), w.comm_time.to_bits(), w.comm_bytes),
                        "{} through {} over {}",
                        launch.requirements[0].privilege,
                        launch.requirements[0].partition,
                        launch.launch_domain
                    );
                    if known == memo.deficits.len() && !walk.deficits.is_empty() {
                        REPEATED_DEFICITS.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    #[test]
    fn deficit_memo_matches_the_point_walk() {
        the_deficit_memo_prices_like_the_point_walk();
        // Repeats are what the memo is for: many reads must have hit it.
        let repeated = REPEATED_DEFICITS.load(Ordering::Relaxed);
        assert!(repeated > 100, "{repeated} reads hit the memo");
    }

    /// A replayed read through a haloed tiling walks no launch point,
    /// whatever the number of points: the first sighting walks them all, a
    /// repeat none.
    #[test]
    fn a_repeated_communication_price_walks_no_point() {
        for points in [8u64, 1 << 20] {
            let config = RuntimeConfig::simulation_only(MachineConfig::with_gpus(8));
            let mut rt = Runtime::new(config);
            let domain = Domain::linear(points);
            let region = rt.allocate_region(vec![points * 4], "halo");
            let block = Partition::block(vec![4]);
            let haloed = Partition::tiling(vec![4], vec![-1], Projection::Identity);
            let walked = || POINTS_WALKED.with(std::cell::Cell::get);
            let mut priced = Vec::new();
            for _ in 0..3 {
                rt.execute(&touch(region, block.clone(), Privilege::Write, &domain)).unwrap();
                let (before, bytes) = (walked(), rt.profile().comm_bytes);
                rt.execute(&touch(region, haloed.clone(), Privilege::Read, &domain)).unwrap();
                priced.push((walked() - before, rt.profile().comm_bytes - bytes));
            }
            // Each point but the first lacks its left neighbour's last element.
            let bytes = (points - 1) * 8;
            assert_eq!(priced, [(points, bytes), (0, bytes), (0, bytes)], "{points} points");
        }
    }

    #[test]
    fn simulation_only_ignores_parallel_executor_choice() {
        let config = RuntimeConfig::simulation_only(MachineConfig::with_gpus(4))
            .with_executor(ExecutorKind::WorkStealing { workers: Some(4) });
        let rt = Runtime::new(config);
        assert_eq!(rt.executor_kind(), ExecutorKind::Serial);
    }

    /// Over buffers (grid, left half of grid, src, sum, local): `left = 5`,
    /// then `grid += src`, then `sum += Σ grid²` and `local = grid` — an
    /// aliasing pair of writers (staged), a borrowed read, a reduction
    /// written in place and a local.
    fn plan_launch(grid: RegionId, left: RegionId, src: RegionId, sum: RegionId) -> TaskLaunch {
        let mut module = KernelModule::new(4);
        module.set_role(BufferId(0), BufferRole::InOut);
        module.set_role(BufferId(1), BufferRole::InOut);
        module.set_role(BufferId(3), BufferRole::Reduction);
        let local = module.add_local();
        let mut lb = LoopBuilder::new("left", BufferId(1));
        let five = lb.constant(5.0);
        lb.store(BufferId(1), five);
        module.push_loop(lb.finish());
        let mut lb = LoopBuilder::new("add", BufferId(0));
        let (g, s) = (lb.load(BufferId(0)), lb.load(BufferId(2)));
        let v = lb.add(g, s);
        lb.store(BufferId(0), v);
        module.push_loop(lb.finish());
        let mut lb = LoopBuilder::new("norm", BufferId(0));
        let g = lb.load(BufferId(0));
        let sq = lb.mul(g, g);
        lb.reduce(BufferId(3), kernel::ReduceOp::Sum, sq);
        lb.store(local, g);
        module.push_loop(lb.finish());
        let sum_op = Privilege::Reduce(ir::ReductionOp::Sum);
        TaskLaunch::builder("planned")
            .domain(Domain::linear(2))
            .read_write(grid, Partition::block(vec![4]))
            .read_write(left, Partition::block(vec![2]))
            .read(src, Partition::block(vec![4]))
            .requirement(RegionRequirement::new(sum, Partition::Replicate, sum_op))
            .local_buffer(8)
            .kernel(compile_interp(module))
            .build()
    }

    #[test]
    fn a_plan_is_a_function_of_the_description_not_of_the_regions() {
        // Two sets of regions of the same shapes; the launches differ only
        // in which set they name.
        let regions = |rt: &mut Runtime, tag: &str| -> [RegionId; 3] {
            let [grid, src, sum] = [(8, "grid"), (8, "src"), (1, "sum")]
                .map(|(n, name)| rt.allocate_region(vec![n], format!("{name}_{tag}")));
            rt.write_region_data(grid, (0..8).map(|i| f64::from(i) * 0.5).collect()).unwrap();
            rt.write_region_data(src, (0..8).map(|i| 1.0 - f64::from(i)).collect()).unwrap();
            [grid, src, sum]
        };
        let run = |swap: bool| {
            let mut rt = functional_runtime(2);
            let ([g1, s1, r1], [g2, s2, r2]) = (regions(&mut rt, "one"), regions(&mut rt, "two"));
            let (one, two) = (plan_launch(g1, g1, s1, r1), plan_launch(g2, g2, s2, r2));
            let (p1, p2) = (rt.plan(&one).unwrap(), rt.plan(&two).unwrap());
            assert_eq!(p1, p2);
            // Region sharing is part of the description: without the alias
            // the left view is written in place, not staged.
            assert_ne!(rt.plan(&plan_launch(g1, g2, s1, r1)).unwrap(), p1);
            let (q1, q2) = if swap { (&p2, &p1) } else { (&p1, &p2) };
            rt.execute_planned(&one, q1).unwrap();
            rt.execute_planned(&two, q2).unwrap();
            rt.execute_planned(&one, q1).unwrap();
            let data: Vec<Vec<u64>> = [g1, s1, r1, g2, s2, r2]
                .iter()
                .map(|&r| rt.region_data(r).unwrap().iter().map(|v| v.to_bits()).collect())
                .collect();
            (rt.elapsed().to_bits(), *rt.profile(), data)
        };
        let (own, swapped) = (run(false), run(true));
        assert_eq!(own, swapped);
        // The staged left view's write reached the grid before the add.
        let grid = &own.2[3];
        assert_eq!(f64::from_bits(grid[0]), 5.0 + 1.0);
        assert_eq!(f64::from_bits(grid[7]), 3.5 - 6.0);
    }

    /// Reads of `regions`, then `locals` task-local buffers, over a module
    /// with no stages.
    fn reads_and_locals(regions: &[RegionId], locals: u32) -> TaskLaunch {
        let mut module = KernelModule::new(regions.len() as u32);
        let mut builder = TaskLaunch::builder("reads").domain(Domain::linear(2));
        for &region in regions {
            builder = builder.read(region, Partition::block(vec![4]));
        }
        for _ in 0..locals {
            module.add_local();
            builder = builder.local_buffer(8);
        }
        builder.kernel(compile_interp(module)).build()
    }

    #[test]
    #[should_panic(expected = "executed under a plan made for another launch")]
    fn a_plan_for_fewer_requirements_is_refused() {
        // Zipped against the plan, the third requirement would drop out
        // unnoticed and its kernel buffer would bind the local.
        let mut rt = functional_runtime(2);
        let regions: Vec<RegionId> =
            (0..3).map(|i| rt.allocate_region(vec![8], format!("r{i}"))).collect();
        let plan = rt.plan(&reads_and_locals(&regions[..2], 1)).unwrap();
        let _ = rt.execute_planned(&reads_and_locals(&regions, 1), &plan);
    }

    #[test]
    #[should_panic(expected = "executed under a plan made for another launch")]
    fn a_plan_for_other_locals_is_refused_without_a_data_plane() {
        let mut rt = Runtime::new(RuntimeConfig::simulation_only(MachineConfig::with_gpus(2)));
        let region = rt.allocate_region(vec![8], "r");
        let plan = rt.plan(&reads_and_locals(&[region], 1)).unwrap();
        let _ = rt.execute_planned(&reads_and_locals(&[region], 2), &plan);
    }

    #[test]
    fn aliasing_views_stay_coherent_between_stages() {
        // Stage 1 writes the left half of a region through one view; stage 2
        // reads the same elements through the parent view and copies them to
        // another region. The copy must observe the stage-1 write.
        let mut rt = functional_runtime(2);
        let grid = rt.allocate_region(vec![8], "grid");
        let out = rt.allocate_region(vec![8], "out");
        rt.fill(grid, 1.0).unwrap();

        let mut module = KernelModule::new(3);
        module.set_role(BufferId(0), BufferRole::InOut);
        module.set_role(BufferId(2), BufferRole::Output);
        // Stage 1: grid_left[i] = 5.0 (view buffer 1 is read to define the domain).
        let mut s1 = LoopBuilder::new("write_left", BufferId(1));
        let c = s1.constant(5.0);
        s1.store(BufferId(1), c);
        module.push_loop(s1.finish());
        // Stage 2: out[i] = grid[i] over the full region.
        let mut s2 = LoopBuilder::new("copy", BufferId(0));
        let x = s2.load(BufferId(0));
        s2.store(BufferId(2), x);
        module.push_loop(s2.finish());

        let left = Partition::block(vec![2]); // covers [0,4) over 2 points
        let launch = TaskLaunch {
            name: "aliasing".into(),
            launch_domain: Domain::linear(2),
            requirements: vec![
                RegionRequirement::new(grid, Partition::block(vec![4]), Privilege::ReadWrite),
                RegionRequirement::new(grid, left, Privilege::ReadWrite),
                RegionRequirement::new(out, Partition::block(vec![4]), Privilege::Write),
            ],
            kernel: compile_interp(module),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        };
        rt.execute(&launch).unwrap();
        let out_data = rt.region_data(out).unwrap();
        assert_eq!(&out_data[..4], &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(&out_data[4..], &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn parallel_executor_matches_serial_on_a_chain() {
        let run = |kind: ExecutorKind| {
            let config =
                RuntimeConfig::functional(MachineConfig::with_gpus(4)).with_executor(kind);
            let mut rt = Runtime::new(config);
            let a = rt.allocate_region(vec![32], "a");
            let b = rt.allocate_region(vec![32], "b");
            let c = rt.allocate_region(vec![32], "c");
            rt.fill(a, 2.0).unwrap();
            rt.execute(&scale_launch(a, b, 4, 32)).unwrap();
            rt.execute(&scale_launch(b, c, 4, 32)).unwrap();
            rt.flush_launches().unwrap();
            (rt.region_data(c).unwrap(), rt.elapsed())
        };
        let (serial_data, serial_time) = run(ExecutorKind::Serial);
        let (parallel_data, parallel_time) =
            run(ExecutorKind::WorkStealing { workers: Some(4) });
        assert_eq!(serial_data, parallel_data);
        assert_eq!(
            serial_time, parallel_time,
            "simulated time must not depend on the executor"
        );
        assert_eq!(serial_data, vec![18.0; 32]);
    }

    #[test]
    fn deferred_interpreter_error_surfaces_at_flush() {
        let config = RuntimeConfig::functional(MachineConfig::with_gpus(2))
            .with_executor(ExecutorKind::WorkStealing { workers: Some(2) });
        let mut rt = Runtime::new(config);
        let a = rt.allocate_region(vec![8], "a");
        let b = rt.allocate_region(vec![8], "b");
        rt.fill(a, 1.0).unwrap();
        // A module reading scalar parameter 0 that the launch does not provide.
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("bad", BufferId(0));
        let x = lb.load(BufferId(0));
        let p = lb.param(0);
        let v = lb.mul(x, p);
        lb.store(BufferId(1), v);
        module.push_loop(lb.finish());
        let mut launch = scale_launch(a, b, 2, 8);
        launch.kernel = compile_interp(module);
        assert!(rt.execute(&launch).is_ok(), "submit succeeds; error defers");
        let err = rt.flush_launches().unwrap_err();
        assert!(matches!(err, RuntimeError::Exec(_)));
        assert!(std::error::Error::source(&err).is_some());
        // The batch is drained: the next flush is clean.
        rt.flush_launches().unwrap();
    }

    /// A module reading scalar parameter 0 that no launch provides: fails
    /// with MissingParam when its functional work runs.
    fn missing_param_module() -> KernelModule {
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("bad", BufferId(0));
        let x = lb.load(BufferId(0));
        let p = lb.param(0);
        let v = lb.mul(x, p);
        lb.store(BufferId(1), v);
        module.push_loop(lb.finish());
        module
    }

    #[test]
    fn completed_launches_in_a_failed_batch_keep_data_and_stats() {
        // The failing launch writes b; an unordered launch writes c. The
        // failure must not discard the unordered launch's results or its
        // already-flushed accounting.
        let mut rt = functional_runtime(4);
        let a = rt.allocate_region(vec![32], "a");
        let b = rt.allocate_region(vec![32], "b");
        let c = rt.allocate_region(vec![32], "c");
        rt.fill(a, 2.0).unwrap();
        let mut bad = scale_launch(a, b, 4, 32);
        bad.kernel = compile_interp(missing_param_module());
        rt.execute(&bad).unwrap();
        rt.execute(&scale_launch(a, c, 4, 32)).unwrap();
        let err = rt.flush_launches().unwrap_err();
        assert!(matches!(err, RuntimeError::Exec(_)));
        // Stats flushed for the whole batch: fill + both launches.
        assert_eq!(rt.profile().index_tasks, 3);
        // The unordered launch's data committed (containment).
        assert_eq!(rt.region_data(c).unwrap(), vec![6.0; 32]);
        // Exactly one structured failure: the bad launch, by name.
        let failures = rt.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].launch, "scale");
        assert!(matches!(failures[0].error, RuntimeError::Exec(_)));
    }

    #[test]
    fn backoff_pricing_is_pinned() {
        // rate 1.0 forces every site to fire on every attempt. With
        // max_retries = 2 and backoff base b:
        //  * region-read: 3 faults, 3 retries, backoff b + 2b + 4b = 7b
        //  * device: 3 faults, 2 retries, backoff b + 2b = 3b, then the
        //    retry budget is exhausted -> 1 degraded (migrated) launch
        let base = 1e-4;
        let recovery = RecoveryPolicy::default()
            .with_max_retries(2)
            .with_backoff_base(base)
            .with_unhealthy_after(10); // no machine restart in this test
        let config = RuntimeConfig::functional(MachineConfig::with_gpus(2))
            .with_executor(ExecutorKind::Serial)
            .with_fault_plan(FaultPlan::new(7, 1.0))
            .with_recovery(recovery);
        let mut rt = Runtime::new(config);
        let a = rt.allocate_region(vec![16], "a");
        let b = rt.allocate_region(vec![16], "b");
        rt.write_region_data(a, vec![2.0; 16]).unwrap();
        rt.execute(&scale_launch(a, b, 2, 16)).unwrap();
        rt.flush_launches().unwrap();
        let stats = rt.fault_stats();
        assert_eq!(stats.faults_injected, 6);
        assert_eq!(stats.retries, 5);
        assert_eq!(stats.degraded_launches, 1);
        assert_eq!(stats.abandoned_launches, 0);
        assert!(
            (stats.recovery_sim_time - 10.0 * base).abs() < 1e-12,
            "expected 10b, got {}",
            stats.recovery_sim_time
        );
        // Recovery on: the launch still committed, bit-identical.
        assert_eq!(rt.region_data(b).unwrap(), vec![6.0; 16]);
    }

    #[test]
    fn recovery_off_abandons_the_faulted_cone_only() {
        let config = RuntimeConfig::functional(MachineConfig::with_gpus(2))
            .with_executor(ExecutorKind::Serial)
            .with_fault_plan(FaultPlan::new(3, 1.0))
            .with_recovery(RecoveryPolicy::disabled());
        let mut rt = Runtime::new(config);
        let a = rt.allocate_region(vec![16], "a");
        let b = rt.allocate_region(vec![16], "b");
        let c = rt.allocate_region(vec![16], "c");
        rt.fill(a, 1.0).unwrap();
        // fill() is also a launch-free op; only execute() injects. The
        // faulted launch writes b; its dependent reads b.
        rt.execute(&scale_launch(a, b, 2, 16)).unwrap();
        rt.execute(&scale_launch(b, c, 2, 16)).unwrap();
        let err = rt.flush_launches().unwrap_err();
        assert!(matches!(err, RuntimeError::Faulted(_)));
        assert!(std::error::Error::source(&err).is_some());
        let stats = rt.fault_stats();
        assert_eq!(stats.abandoned_launches, 2, "both launches fault at rate 1");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.recovery_sim_time, 0.0);
        let failures = rt.take_failures();
        assert_eq!(failures.len(), 2);
        assert!(failures
            .iter()
            .all(|f| matches!(f.error, RuntimeError::Faulted(_))));
        // Outputs of the faulted cone never committed.
        assert_eq!(rt.region_data(b).unwrap(), vec![0.0; 16]);
        assert_eq!(rt.region_data(c).unwrap(), vec![0.0; 16]);
    }

    #[test]
    fn losing_every_gpu_prices_a_restart_and_loses_no_launch() {
        // One GPU, one strike allowed: the first exhausted launch restarts
        // the simulated machine; the restart is priced and later launches
        // still commit.
        let recovery = RecoveryPolicy::default()
            .with_max_retries(1)
            .with_unhealthy_after(1);
        let config = RuntimeConfig::functional(MachineConfig::with_gpus(1))
            .with_executor(ExecutorKind::WorkStealing { workers: Some(2) })
            .with_fault_plan(FaultPlan::new(11, 1.0))
            .with_recovery(recovery);
        let mut rt = Runtime::new(config);
        let a = rt.allocate_region(vec![8], "a");
        let b = rt.allocate_region(vec![8], "b");
        let c = rt.allocate_region(vec![8], "c");
        rt.write_region_data(a, vec![2.0; 8]).unwrap();
        rt.execute(&scale_launch(a, b, 1, 8)).unwrap();
        rt.execute(&scale_launch(b, c, 1, 8)).unwrap();
        rt.flush_launches().unwrap();
        let stats = rt.fault_stats();
        assert!(stats.degraded_launches >= 1);
        // The restart penalty was charged at least once.
        assert!(stats.recovery_sim_time >= recovery.restart_penalty());
        // Recovery never loses a launch: the chain committed bit-identically.
        assert_eq!(rt.region_data(c).unwrap(), vec![18.0; 8]);
        assert!(rt.take_failures().is_empty());
    }

    #[test]
    fn fault_containment_survives_a_machine_restart() {
        // A launch fails on its own (missing scalar), an unrelated launch
        // then takes the strike that restarts the machine, and only then a
        // reader of the failed output arrives. The restart is a simulated
        // event: the reader must still be poisoned and its output untouched.
        for kind in [ExecutorKind::Serial, ExecutorKind::WorkStealing { workers: Some(2) }] {
            let recovery = RecoveryPolicy::default()
                .with_max_retries(1)
                .with_unhealthy_after(2);
            let config = RuntimeConfig::functional(MachineConfig::with_gpus(1))
                .with_executor(kind)
                .with_fault_plan(FaultPlan::new(11, 1.0))
                .with_recovery(recovery);
            let mut rt = Runtime::new(config);
            let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| rt.allocate_region(vec![8], n));
            rt.write_region_data(a, vec![2.0; 8]).unwrap();
            rt.write_region_data(c, vec![7.0; 8]).unwrap();
            rt.write_region_data(d, vec![1.0; 8]).unwrap();
            let mut bad = scale_launch(a, b, 1, 8);
            bad.name = "bad".into();
            bad.kernel = compile_interp(missing_param_module());
            rt.execute(&bad).unwrap(); // first strike; fails when it runs
            rt.execute(&scale_launch(d, e, 1, 8)).unwrap(); // second strike: restart
            let mut reader = scale_launch(b, c, 1, 8);
            reader.name = "reader".into();
            rt.execute(&reader).unwrap();
            let err = rt.flush_launches().unwrap_err();
            assert!(matches!(err, RuntimeError::Exec(_)), "{kind:?}: {err:?}");
            assert!(rt.fault_stats().recovery_sim_time >= recovery.restart_penalty());
            assert_eq!(rt.region_data(e).unwrap(), vec![3.0; 8], "{kind:?}");
            assert_eq!(rt.region_data(c).unwrap(), vec![7.0; 8], "{kind:?}");
            let failures = rt.take_failures();
            assert_eq!(failures.len(), 2, "{kind:?}: {failures:?}");
            assert_eq!(failures[0].launch, "bad");
            assert!(matches!(failures[0].error, RuntimeError::Exec(_)));
            assert_eq!(failures[1].launch, "reader");
            assert!(matches!(
                &failures[1].error,
                RuntimeError::Poisoned { upstream, .. } if upstream == "bad"
            ));
        }
    }

    #[test]
    fn fault_schedule_is_executor_invariant() {
        let run = |kind: ExecutorKind| {
            let config = RuntimeConfig::functional(MachineConfig::with_gpus(4))
                .with_executor(kind)
                .with_fault_plan(FaultPlan::new(99, 0.35));
            let mut rt = Runtime::new(config);
            let a = rt.allocate_region(vec![32], "a");
            let b = rt.allocate_region(vec![32], "b");
            let c = rt.allocate_region(vec![32], "c");
            let d = rt.allocate_region(vec![32], "d");
            rt.write_region_data(a, (0..32).map(|i| i as f64).collect())
                .unwrap();
            // A chain plus an independent launch, repeated so per-fingerprint
            // occurrence counters advance.
            for _ in 0..4 {
                rt.execute(&scale_launch(a, b, 4, 32)).unwrap();
                rt.execute(&scale_launch(b, c, 4, 32)).unwrap();
                rt.execute(&scale_launch(a, d, 4, 32)).unwrap();
            }
            rt.flush_launches().unwrap();
            (
                rt.region_data(c).unwrap(),
                rt.region_data(d).unwrap(),
                rt.elapsed(),
                rt.fault_stats(),
            )
        };
        let serial = run(ExecutorKind::Serial);
        let parallel = run(ExecutorKind::WorkStealing { workers: Some(4) });
        assert!(serial.3.faults_injected > 0, "schedule must actually fire");
        assert_eq!(serial.3, parallel.3, "fault stats must not depend on the executor");
        assert_eq!(serial.2.to_bits(), parallel.2.to_bits());
        assert_eq!(serial.0, parallel.0);
        assert_eq!(serial.1, parallel.1);
    }

    #[test]
    fn poisoned_batch_data_reads_return_none_and_stash_the_error() {
        let config = RuntimeConfig::functional(MachineConfig::with_gpus(2))
            .with_executor(ExecutorKind::WorkStealing { workers: Some(2) });
        let mut rt = Runtime::new(config);
        let a = rt.allocate_region(vec![8], "a");
        let b = rt.allocate_region(vec![8], "b");
        rt.fill(a, 1.0).unwrap();
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("bad", BufferId(0));
        let x = lb.load(BufferId(0));
        let p = lb.param(0); // no scalars provided: MissingParam at run time
        let v = lb.mul(x, p);
        lb.store(BufferId(1), v);
        module.push_loop(lb.finish());
        let mut launch = scale_launch(a, b, 2, 8);
        launch.kernel = compile_interp(module);
        rt.execute(&launch).unwrap();
        // The data of the poisoned batch must not be observable...
        assert_eq!(rt.region_data(b), None);
        // ...and the stashed error resurfaces at the next fallible call.
        let err = rt.flush_launches().unwrap_err();
        assert!(matches!(err, RuntimeError::Exec(_)));
        // After which the runtime is clean again.
        rt.flush_launches().unwrap();
        assert!(rt.region_data(b).is_some());
    }
}
