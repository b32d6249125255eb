//! The executor: how the runtime runs functional kernel work.
//!
//! Cost accounting (simulated clock, coherence, profile counters) is always
//! performed eagerly and sequentially by [`crate::Runtime`] — it is cheap and
//! inherently program-ordered. What the [`Executor`] schedules is the
//! *functional* work of each launch: executing the launch's compiled kernel
//! (an `Arc<dyn CompiledKernel>` produced by whichever `kernel::KernelBackend`
//! is configured) over real region data, which dominates the wall-clock time
//! of functional runs. The executor is backend-agnostic: it runs whatever
//! artifact the launch carries.
//!
//! There is one executor; [`ExecutorKind`] only sets its worker count.
//! Conflicting launches keep program order and independent ones may overlap:
//!
//! * With no workers — [`ExecutorKind::Serial`], the default, and every
//!   simulation-only runtime — everything before a launch has completed when
//!   it is submitted, so it runs at once on the submitting thread, in program
//!   order. It records no dependence edges and takes the scheduler lock only
//!   to record a failure. This is the determinism baseline the equivalence
//!   tests compare against.
//! * With workers — [`ExecutorKind::WorkStealing`], one per simulated GPU
//!   capped at the host's available parallelism — submitted launches enter a
//!   dependence graph built by [`crate::DepTracker`], and ready ones go onto
//!   per-worker deques. A worker pops its own deque LIFO and steals FIFO from
//!   its siblings when it runs dry.
//!
//! Errors are deferred to [`Executor::flush`] at every worker count, and for
//! error-free batches every worker count is observably identical: same region
//! contents, and simulated time never depends on the executor (accounting
//! stays on the submitting thread); only the host wall-clock differs. When a
//! launch fails, the failure is **contained to its dependence cone**: the
//! launches downstream of it are skipped, each recording a structured
//! [`LaunchFailure`]. Independent launches complete normally, so their region
//! contents are trustworthy even after a failed flush; only regions written
//! inside a failed cone are left at their pre-cone contents (see
//! `docs/RUNTIME.md` and `docs/RESILIENCE.md`). With workers the cone follows
//! the dependence edges; with none it is kept as per-region marks, empty
//! until the batch's first failure, which skip exactly the same launches.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use ir::fingerprint::FnvHashMap;
use ir::{Privilege, Rect};
use kernel::{
    Buffer, BufferId, BufferView, BufferViewMut, CompiledKernel, KernelModule,
};

use crate::deps::{AccessSummary, DepTracker};
use crate::region::{Region, RegionHandle, RegionId};
use crate::runtime::RuntimeError;

/// How a [`crate::Runtime`]'s [`Executor`] runs functional work: inline on
/// the submitting thread, or on a pool of workers.
///
/// The kind can also be chosen through the `DIFFUSE_EXECUTOR` environment
/// variable (see [`ExecutorKind::from_env`]), which is how the CI matrix and
/// the benchmark binaries force one executor for a whole process.
///
/// # Example
///
/// ```
/// use runtime::ExecutorKind;
///
/// assert_eq!(ExecutorKind::default(), ExecutorKind::Serial);
/// let parallel = ExecutorKind::WorkStealing { workers: Some(4) };
/// assert_ne!(parallel, ExecutorKind::Serial);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// No workers: run functional work inline on the submitting thread
    /// (deterministic baseline; the default).
    #[default]
    Serial,
    /// Run functional work on a work-stealing pool.
    WorkStealing {
        /// Worker count; `None` means one worker per simulated GPU, capped at
        /// the host's available parallelism.
        workers: Option<usize>,
    },
}

/// The accepted spellings of `DIFFUSE_EXECUTOR`.
const SPELLINGS: [(&str, ExecutorKind); 4] = [
    ("serial", ExecutorKind::Serial),
    ("parallel", ExecutorKind::WorkStealing { workers: None }),
    ("work-stealing", ExecutorKind::WorkStealing { workers: None }),
    ("ws", ExecutorKind::WorkStealing { workers: None }),
];

impl ExecutorKind {
    /// Reads the executor choice from the `DIFFUSE_EXECUTOR` environment
    /// variable ([`ir::env::choice`]): `parallel`, `work-stealing` or `ws`
    /// select [`ExecutorKind::WorkStealing`]; `serial` selects
    /// [`ExecutorKind::Serial`], which is also the default when the variable
    /// is unset or unrecognized.
    ///
    /// # Example
    ///
    /// ```
    /// use runtime::ExecutorKind;
    ///
    /// // With DIFFUSE_EXECUTOR unset this is the serial default.
    /// let kind = ExecutorKind::from_env();
    /// assert!(matches!(kind, ExecutorKind::Serial | ExecutorKind::WorkStealing { .. }));
    /// ```
    pub fn from_env() -> Self {
        ir::env::choice("DIFFUSE_EXECUTOR", &SPELLINGS, ExecutorKind::Serial)
    }

    /// The number of workers this kind uses on a machine with `gpus` simulated
    /// GPUs (0 for [`ExecutorKind::Serial`]).
    pub fn worker_count(&self, gpus: usize) -> usize {
        match self {
            ExecutorKind::Serial => 0,
            ExecutorKind::WorkStealing { workers: Some(n) } => (*n).max(1),
            ExecutorKind::WorkStealing { workers: None } => {
                let host = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                gpus.clamp(1, host)
            }
        }
    }
}

/// One buffer of a launch's functional work: a region handle, the rectangle
/// the launch accesses, and the access privilege.
#[derive(Debug, Clone)]
pub struct BufferAccess {
    /// The region accessed.
    pub region: RegionId,
    /// Shared handle to the region's data.
    pub handle: RegionHandle,
    /// The bounding box of the sub-stores the launch touches.
    pub rect: Rect,
    /// The access privilege.
    pub privilege: Privilege,
}

impl BufferAccess {
    /// This access summarized for dependency tracking (reductions count as
    /// writes).
    pub fn summary(&self) -> AccessSummary {
        AccessSummary::from_privilege(self.region, self.privilege)
    }
}

/// One launch that failed (or was skipped) in a batch, with its structured
/// error — drained after a flush via [`Executor::drain_failures`] /
/// `Runtime::take_failures`.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchFailure {
    /// The launch's name.
    pub launch: String,
    /// Why it failed: its own error, or [`RuntimeError::Poisoned`] naming
    /// the upstream launch whose failure made its inputs untrustworthy.
    pub error: RuntimeError,
}

/// A borrowed description of one launch's functional work, as handed to
/// [`Executor::submit`]. The kernel, scalars and local-buffer sizes borrow
/// the launch, so a launch run inline clones nothing of the *description*;
/// only the resolved region accesses are owned, since handles are cheap `Arc`
/// clones. The region *data* is viewed in place for the launch's duration —
/// read, or written when the launch has no other requirement on the region —
/// and only the rest is staged in and out around every stage — see
/// `docs/RUNTIME.md`, "The stage protocol".
///
/// An executor with workers converts the request to an owned
/// [`FunctionalWork`] with [`WorkRequest::into_owned_work`] before shipping it
/// to one.
#[derive(Debug)]
pub struct WorkRequest<'a> {
    /// Launch name (for diagnostics).
    pub name: &'a str,
    /// The compiled kernel to execute.
    pub kernel: &'a Arc<dyn CompiledKernel>,
    /// Scalar kernel parameters.
    pub scalars: &'a [f64],
    /// Element counts of the task-local buffers following the region
    /// buffers. A local no stage of the kernel references is never allocated.
    pub local_buffer_lens: &'a [usize],
    /// Region buffers in kernel-buffer order.
    pub accesses: Vec<BufferAccess>,
    /// How the accesses and the locals bind into the kernel's buffer table,
    /// planned for this launch's description ([`DataPlan::new`]).
    pub plan: &'a DataPlan,
    /// Injected device-fault attempts to replay before the committing run:
    /// each executes a prefix of the stage protocol, then rolls every written
    /// rect back (a killed attempt commits nothing). 0 outside fault
    /// injection — see `docs/RESILIENCE.md`.
    pub failed_attempts: u32,
}

impl WorkRequest<'_> {
    /// Clones the borrowed parts (and moves the owned accesses) into a
    /// self-contained [`FunctionalWork`] that can cross threads.
    pub fn into_owned_work(self) -> FunctionalWork {
        FunctionalWork {
            name: self.name.to_string(),
            kernel: Arc::clone(self.kernel),
            scalars: self.scalars.to_vec(),
            local_buffer_lens: self.local_buffer_lens.to_vec(),
            accesses: self.accesses,
            plan: self.plan.clone(),
            failed_attempts: self.failed_attempts,
        }
    }
}

/// The functional portion of one task launch, self-contained so it can run on
/// any worker thread: the compiled kernel (a cheap `Arc` clone — backends
/// compile once, workers share the artifact), its scalars, the region buffers
/// it accesses and the sizes of its task-local temporaries.
#[derive(Debug, Clone)]
pub struct FunctionalWork {
    /// Launch name (for diagnostics).
    pub name: String,
    /// The compiled kernel to execute.
    pub kernel: Arc<dyn CompiledKernel>,
    /// Scalar kernel parameters.
    pub scalars: Vec<f64>,
    /// Region buffers in kernel-buffer order.
    pub accesses: Vec<BufferAccess>,
    /// Element counts of the task-local buffers following the region buffers.
    pub local_buffer_lens: Vec<usize>,
    /// The data plan of the launch's description ([`DataPlan::new`]).
    pub plan: DataPlan,
    /// Injected device-fault attempts replayed (and rolled back) before the
    /// committing run.
    pub failed_attempts: u32,
}

impl FunctionalWork {
    /// Views this owned work as a [`WorkRequest`] borrowing everything but
    /// the accesses (used by tests to reach [`Executor::submit`]).
    pub fn as_request(&self) -> WorkRequest<'_> {
        WorkRequest {
            name: &self.name,
            kernel: &self.kernel,
            scalars: &self.scalars,
            local_buffer_lens: &self.local_buffer_lens,
            accesses: self.accesses.clone(),
            plan: &self.plan,
            failed_attempts: self.failed_attempts,
        }
    }
}

/// Runs one launch's functional work to completion on the calling thread.
/// All parts are borrowed, so both the inline path and the worker path
/// execute without copying the work description.
///
/// When `failed_attempts > 0` (fault injection, see `docs/RESILIENCE.md`),
/// each killed attempt first executes a prefix of the stage protocol — in
/// place, like any run — and is then rolled back from a snapshot of its
/// written rects: a launch killed by a simulated device fault commits
/// nothing, so the retry that follows starts from exactly the pre-launch
/// region contents (no torn writes). The rollback is invisible to concurrent
/// launches because the executor blocks every dependent until the launch
/// completes successfully. With no fault armed nothing is snapshotted.
/// Every attempt, killed or committing, runs under the same `plan`: it
/// ranges over the whole module, so a stage prefix needs nothing else.
pub(crate) fn run_functional(
    kernel: &dyn CompiledKernel,
    scalars: &[f64],
    local_buffer_lens: &[usize],
    accesses: &[BufferAccess],
    plan: &DataPlan,
    failed_attempts: u32,
) -> Result<(), RuntimeError> {
    let num_stages = kernel.module().num_stages();
    for attempt in 0..failed_attempts {
        // Snapshot every written rect, run a (deterministic, attempt-varying)
        // prefix of the stages, then restore — the discarded attempt really
        // exercises the write path before the "device" kills it.
        let snapshots: Vec<Option<Vec<f64>>> = accesses
            .iter()
            .map(|access| {
                (access.privilege.writes() || access.privilege.reduces())
                    .then(|| access.handle.read_rect(&access.rect))
            })
            .collect();
        let stages = if num_stages == 0 {
            0
        } else {
            attempt as usize % num_stages + 1
        };
        // A kernel error inside a killed attempt is moot (the attempt is
        // discarded either way); the committing run below will resurface it.
        let _ = run_stages(kernel, scalars, local_buffer_lens, accesses, plan, stages);
        for (access, snapshot) in accesses.iter().zip(&snapshots) {
            if let Some(snapshot) = snapshot {
                access.handle.write_rect(&access.rect, snapshot);
            }
        }
    }
    run_stages(kernel, scalars, local_buffer_lens, accesses, plan, num_stages)
}

/// How a launch binds one requirement into its kernel's buffer table
/// ([`DataPlan::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// Read in place through a [`BufferView`] of region memory, under the
    /// region's read lock.
    View,
    /// Read and written in place through a [`BufferViewMut`] of region
    /// memory, under the region's write lock.
    ViewMut,
    /// Copied into dense storage before each stage that references it, and
    /// back after each stage that writes it if the privilege permits.
    Staged,
}

/// One copy of a [`Binding::Staged`] requirement between its region and its
/// dense table entry, around one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StagedCopy {
    /// The stage the copy surrounds.
    stage: u32,
    /// The requirement (kernel buffer) copied.
    requirement: u32,
    /// Copied back to the region after the stage (else in, before it).
    back: bool,
}

/// The data-plane half of a launch plan: how each requirement binds into the
/// kernel's buffer table, which staged copies surround each stage, and which
/// task-local buffers get storage. A pure function of which requirements
/// share a region, their privileges, the kernel module and the number of
/// locals — never of the data — built once per launch description by
/// [`DataPlan::new`] and shared by every run of it: the committing run and
/// each killed attempt's stage prefix alike.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataPlan {
    /// Per requirement, in kernel-buffer order.
    bindings: Vec<Binding>,
    /// Every staged copy in the order the stage loop makes it: by stage,
    /// copies in (in the stage's reference order) before copies back (in
    /// requirement order). Empty when nothing is staged.
    copies: Vec<StagedCopy>,
    /// Per task-local buffer: whether some stage references it.
    locals: Vec<bool>,
}

impl DataPlan {
    /// Plans the data plane of a launch whose requirements (region,
    /// privilege), in kernel-buffer order, are `requirements`, followed by
    /// `num_locals` task-local buffers. Each requirement whose buffer some
    /// stage references is bound as
    ///
    /// * a read view of region memory (`View`) if its privilege is `Read`, no
    ///   stage writes its buffer and no requirement of the launch on the same
    ///   region writes or reduces;
    /// * a mutable view (`ViewMut`) if its privilege writes or reduces and it
    ///   is the launch's only requirement on its region;
    ///
    /// and everything else is `Staged` (copied): a writer that shares its
    /// region with another view of the launch (an in-place stencil's write
    /// view beside its shifted reads), a `Read` requirement a stage writes
    /// into (the write is discarded, so it needs storage of its own to land
    /// in) and a requirement no stage references, which is then never copied
    /// at all. No option selects a binding.
    ///
    /// Viewing is sound because nothing else can touch a viewed region while
    /// the launch runs: within the launch, a written region has no other view
    /// and a read-viewed one no writer; across launches, with no workers every
    /// launch runs alone, in program order, and with workers the executor's
    /// region-granular [`DepTracker`] orders every writer of a region against
    /// every launch that touches it. So a view reads exactly what each
    /// copy-in would have staged, and writes exactly what each copy-out would
    /// have committed.
    ///
    /// A staged requirement is refreshed from its region before every stage
    /// that references it, whatever its privilege, and copied back after
    /// every stage that writes it if its privilege permits.
    pub fn new<I>(module: &KernelModule, requirements: I, num_locals: usize) -> Self
    where
        I: IntoIterator<Item = (RegionId, Privilege)>,
        I::IntoIter: Clone,
    {
        let requirements = requirements.into_iter();
        let per_stage: Vec<(Vec<BufferId>, Vec<BufferId>)> = module
            .stages
            .iter()
            .map(|stage| (stage.referenced_buffers(), stage.written_buffers()))
            .collect();
        let referenced = |b: BufferId| per_stage.iter().any(|(r, _)| r.contains(&b));
        let written = |b: BufferId| per_stage.iter().any(|(_, w)| w.contains(&b));
        let writes = |privilege: Privilege| privilege.writes() || privilege.reduces();
        let bindings: Vec<Binding> = requirements
            .clone()
            .enumerate()
            .map(|(i, (region, privilege))| {
                let buffer = BufferId(i as u32);
                let others = || {
                    requirements
                        .clone()
                        .enumerate()
                        .filter(move |&(j, (other, _))| j != i && other == region)
                        .map(|(_, (_, other))| other)
                };
                match (referenced(buffer), writes(privilege)) {
                    (true, true) if others().next().is_none() => Binding::ViewMut,
                    (true, false) if !written(buffer) && !others().any(writes) => Binding::View,
                    _ => Binding::Staged,
                }
            })
            .collect();
        // An id past the table is the kernel's to report (`MissingBuffer`).
        let staged = |b: &BufferId| bindings.get(b.0 as usize) == Some(&Binding::Staged);
        let mut copies = Vec::new();
        for (stage, (touched, stored)) in per_stage.iter().enumerate() {
            let stage = stage as u32;
            let copy = |requirement: u32, back| StagedCopy { stage, requirement, back };
            copies.extend(touched.iter().filter(|b| staged(b)).map(|b| copy(b.0, false)));
            copies.extend(
                requirements
                    .clone()
                    .enumerate()
                    .filter(|&(i, (_, privilege))| {
                        let b = BufferId(i as u32);
                        writes(privilege) && staged(&b) && stored.contains(&b)
                    })
                    .map(|(i, _)| copy(i as u32, true)),
            );
        }
        let num_reqs = bindings.len();
        let locals = (num_reqs..num_reqs + num_locals)
            .map(|b| referenced(BufferId(b as u32)))
            .collect();
        DataPlan { bindings, copies, locals }
    }
}

/// The stage loop: runs the first `stages` stages of the kernel one at a
/// time over a buffer table built once for the launch, moving only the data
/// `plan` ([`DataPlan::new`]) says each stage needs moved.
///
/// * A task-local buffer gets (zero-initialised) storage only if some stage
///   references it and then lives in place across stages; a local the kernel
///   pipeline eliminated keeps its buffer id but stays an empty `Vec`, so its
///   allocation never happens.
/// * A requirement bound as a view is never copied: its table entry is a
///   view of the region, whose lock the launch holds — one read guard per
///   distinct read-viewed region, one write guard per written one — until it
///   returns. Every access rect is validated before the first guard is
///   taken.
/// * A [`Binding::Staged`] requirement is copied: before a stage that
///   references it, it is refreshed from its region, and after the stage it
///   is copied back if the stage wrote it and its privilege permits.
///   Aliasing views of one region therefore stay coherent through the parent
///   region between stages, and within a stage every view is read before
///   anything is written.
fn run_stages(
    kernel: &dyn CompiledKernel,
    scalars: &[f64],
    local_buffer_lens: &[usize],
    accesses: &[BufferAccess],
    plan: &DataPlan,
    stages: usize,
) -> Result<(), RuntimeError> {
    // Out-of-range rects, and a plan made for another launch, panic here,
    // before any guard exists: a panic while a write guard is held would
    // poison the region.
    assert!(
        plan.bindings.len() == accesses.len() && plan.locals.len() == local_buffer_lens.len(),
        "the data plan was made for another launch"
    );
    for access in accesses {
        access.rect.runs_in(access.handle.shape());
    }
    let bindings = &plan.bindings;
    let mut read_guards: Vec<(RegionId, RwLockReadGuard<'_, Region>)> = Vec::new();
    let mut write_guards: Vec<RwLockWriteGuard<'_, Region>> = Vec::new();
    for (access, binding) in accesses.iter().zip(bindings) {
        match binding {
            Binding::View if !read_guards.iter().any(|(held, _)| *held == access.region) => {
                read_guards.push((access.region, access.handle.read_guard()));
            }
            Binding::ViewMut => write_guards.push(access.handle.write_guard()),
            _ => {}
        }
    }
    let held = |region: RegionId| -> Option<&Region> {
        read_guards.iter().find(|(id, _)| *id == region).map(|(_, guard)| &**guard)
    };
    // A written region has exactly one requirement, hence one guard, taken
    // in requirement order.
    let mut written_regions = write_guards.iter_mut();
    let mut buffers: Vec<Buffer<'_>> = accesses
        .iter()
        .zip(bindings)
        .map(|(access, binding)| match binding {
            Binding::View => {
                let region = held(access.region).expect("every read-viewed region has a guard");
                let data = region.data.as_deref().expect("region is not materialized");
                Buffer::View(BufferView::new(data, &region.shape, &access.rect))
            }
            Binding::ViewMut => {
                let region = &mut **written_regions.next().expect("every written region has a guard");
                let data = region.data.as_deref_mut().expect("region is not materialized");
                Buffer::ViewMut(BufferViewMut::new(data, &region.shape, &access.rect))
            }
            Binding::Staged => Buffer::Dense(Vec::new()),
        })
        .collect();
    buffers.extend(
        local_buffer_lens
            .iter()
            .zip(&plan.locals)
            .map(|(&len, &used)| Buffer::Dense(if used { vec![0.0; len] } else { Vec::new() })),
    );
    let mut copies = plan.copies.iter().peekable();
    for index in 0..stages {
        let mut next = |back: bool| copies.next_if(|c| c.stage as usize == index && c.back == back);
        // Copy-in of what is staged.
        while let Some(copy) = next(false) {
            let access = &accesses[copy.requirement as usize];
            let Buffer::Dense(staged) = &mut buffers[copy.requirement as usize] else { continue };
            // Through the guard when the launch already holds the region's
            // lock (another requirement views it): re-locking can deadlock.
            match held(access.region) {
                Some(region) => region.read_rect_into(&access.rect, staged),
                None => access.handle.read_rect_into(&access.rect, staged),
            }
        }
        // Execute.
        kernel.execute_stage(index, &mut buffers, scalars)?;
        // Copy-out of what is staged, in requirement order (as ever: when two
        // written views of one region overlap, the later requirement's
        // elements win). A staged writer's region is viewed by nothing, so no
        // guard is in the way.
        while let Some(copy) = next(true) {
            let access = &accesses[copy.requirement as usize];
            if let Buffer::Dense(staged) = &buffers[copy.requirement as usize] {
                access.handle.write_rect(&access.rect, staged);
            }
        }
    }
    Ok(())
}

/// A node of the in-flight dependency graph.
#[derive(Debug)]
struct TaskNode {
    /// Launch name (failure records and poison propagation).
    name: String,
    /// The work to run; taken by the executing worker.
    work: Option<FunctionalWork>,
    /// Set when an upstream launch in this node's dependence cone failed:
    /// the node is skipped and this error recorded instead of running.
    fail_with: Option<RuntimeError>,
    /// Unfinished launches this one waits for.
    unmet: usize,
    /// Launches waiting for this one.
    dependents: Vec<u64>,
}

/// Scheduler state, shared between the submitting thread and the workers.
#[derive(Debug)]
struct SchedState {
    /// Launches in flight on workers, by id (removed on completion).
    tasks: FnvHashMap<u64, TaskNode>,
    /// Per-worker ready deques (own end: back/LIFO; steal end: front/FIFO).
    queues: Vec<VecDeque<u64>>,
    /// Launches handed to workers but not yet completed.
    pending: usize,
    /// Completed-but-failed launches of the current batch, by id, so later
    /// submissions depending on them poison at submit time.
    failed: FnvHashMap<u64, String>,
    /// Failure records of the current batch, tagged with launch id (workers
    /// finish out of order; they are sorted by id when taken).
    failures: Vec<(u64, LaunchFailure)>,
    /// Set once at drop; workers exit when they run dry.
    shutdown: bool,
    /// Debug-only happens-before checker (`DIFFUSE_VERIFY` truthy in a debug
    /// build): every launch a worker runs asserts its conflicting
    /// predecessors are ordered by recorded dependence edges and already
    /// complete. `None` in release builds, when not requested or with no
    /// workers, where every launch starts in program order, which it would
    /// only re-confirm — zero cost.
    hb: Option<crate::deps::HbChecker>,
}

impl SchedState {
    /// The state of an executor with `workers` workers, with the
    /// happens-before checker armed if there are workers, this is a debug
    /// build and `DIFFUSE_VERIFY` asks for it.
    fn new(workers: usize) -> Self {
        let hb = workers > 0
            && cfg!(debug_assertions)
            && crate::deps::HbChecker::requested_by_env();
        SchedState {
            tasks: FnvHashMap::default(),
            queues: vec![VecDeque::new(); workers],
            pending: 0,
            failed: FnvHashMap::default(),
            failures: Vec::new(),
            shutdown: false,
            hb: hb.then(crate::deps::HbChecker::default),
        }
    }

    /// Records that launch `id` failed with `error`: later launches that
    /// depend on it are skipped as poisoned by it.
    fn fail(&mut self, id: u64, name: &str, error: RuntimeError) {
        self.failed.insert(id, name.to_string());
        let launch = name.to_string();
        self.failures.push((id, LaunchFailure { launch, error }));
    }

    /// Registers launch `id` with the happens-before checker and returns the
    /// error it is skipped with: poisoned by the first of its dependences that
    /// completed and failed. A dependence still in flight poisons it at
    /// completion instead ([`SchedState::complete`]).
    fn register(
        &mut self,
        id: u64,
        name: &str,
        accesses: &[AccessSummary],
        deps: &[u64],
    ) -> Option<RuntimeError> {
        if let Some(hb) = self.hb.as_mut() {
            hb.register(id, accesses, deps);
        }
        let upstream = deps.iter().find_map(|dep| self.failed.get(dep))?;
        Some(RuntimeError::Poisoned {
            launch: name.to_string(),
            upstream: upstream.clone(),
        })
    }

    /// Completes launch `id` with `result`: records its failure, marks it
    /// complete for the happens-before checker and releases its `dependents`
    /// — poisoned if it failed — pushing those it leaves ready onto deque
    /// `queue`. Returns how many it left ready.
    fn complete(
        &mut self,
        id: u64,
        name: &str,
        result: Result<(), RuntimeError>,
        dependents: Vec<u64>,
        queue: usize,
    ) -> usize {
        if let Some(hb) = self.hb.as_mut() {
            hb.complete(id);
        }
        let failed = result.is_err();
        if let Err(error) = result {
            self.fail(id, name, error);
        }
        let mut freed = 0;
        for dep in dependents {
            let dependent = self.tasks.get_mut(&dep).expect("a dependent is in flight");
            if failed && dependent.fail_with.is_none() {
                dependent.fail_with = Some(RuntimeError::Poisoned {
                    launch: dependent.name.clone(),
                    upstream: name.to_string(),
                });
            }
            dependent.unmet -= 1;
            if dependent.unmet == 0 {
                self.queues[queue].push_back(dep);
                freed += 1;
            }
        }
        freed
    }

    /// Takes the batch's failure records in submission order, so the first is
    /// the root of the earliest failed cone: a root always precedes its
    /// poisoned dependents.
    fn take_failures(&mut self) -> Vec<LaunchFailure> {
        let mut batch = std::mem::take(&mut self.failures);
        batch.sort_by_key(|(id, _)| *id);
        batch.into_iter().map(|(_, failure)| failure).collect()
    }
}

/// The failed dependence cone of a batch run with no workers, kept as two
/// marks per region instead of dependence edges. Both maps stay empty until
/// the batch's first failure, so a batch that fails nowhere pays one
/// emptiness test per launch.
///
/// In program order, a launch depends on a cone launch exactly when it
/// touches a region whose last writer is in the cone (RAW, WAW), or writes a
/// region that a cone launch read since its last write (WAR) — the edges
/// [`DepTracker::record`] would give it, restricted to the cone. A region's
/// last writer is in the cone as soon as one cone launch wrote it, because
/// every later writer of the region depends on that one. So the marks name
/// the same failed dependences the edges do, and the smallest of them is the
/// one [`SchedState::register`] reports.
#[derive(Debug, Default)]
struct Cone {
    /// Per region, the last cone launch that wrote it.
    written: FnvHashMap<RegionId, u64>,
    /// Per region, the first cone launch that read it since that write.
    read: FnvHashMap<RegionId, u64>,
}

impl Cone {
    /// The earliest cone launch a launch with `accesses` depends on, if any:
    /// the smallest write mark among the regions it touches and read mark
    /// among those it writes.
    fn upstream(&self, accesses: impl Iterator<Item = AccessSummary>) -> Option<u64> {
        if self.written.is_empty() && self.read.is_empty() {
            return None;
        }
        accesses
            .flat_map(|a| {
                let written = self.written.get(&a.region).filter(|_| a.reads || a.writes);
                let read = self.read.get(&a.region).filter(|_| a.writes);
                written.into_iter().chain(read).copied()
            })
            .min()
    }

    /// Adds launch `id`, failed or skipped, to the cone, under
    /// [`DepTracker`]'s rules: a write sets the region's write mark and clears
    /// its read mark; a read-only access to a region the launch does not
    /// write sets the read mark if it is unset.
    fn add(&mut self, id: u64, accesses: impl Iterator<Item = AccessSummary> + Clone) {
        for access in accesses.clone().filter(|a| a.writes) {
            self.written.insert(access.region, id);
            self.read.remove(&access.region);
        }
        for access in accesses.filter(|a| a.reads && !a.writes) {
            if self.written.get(&access.region) != Some(&id) {
                self.read.entry(access.region).or_insert(id);
            }
        }
    }

    /// Forgets the batch's cone.
    fn clear(&mut self) {
        self.written.clear();
        self.read.clear();
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<SchedState>,
    /// Signals workers that a queue gained work (or shutdown began).
    work_cv: Condvar,
    /// Signals waiters (flush, backpressured submit) that `pending` dropped.
    done_cv: Condvar,
    /// Submission backpressure: `submit` blocks while `pending` is at this
    /// bound, so the in-flight window (and the memory its region handles keep
    /// alive) stays bounded no matter how far ahead the submitting thread
    /// runs.
    max_pending: usize,
}

/// Why the scheduler lock can be poisoned: launch panics are caught, so only
/// a panicking scheduler assertion (`HbChecker`, `expect`) poisons it.
const POISONED: &str = "a scheduler assertion panicked under the executor lock";

impl Shared {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().expect(POISONED)
    }
}

/// Schedules the functional work of task launches: on a pool of workers,
/// ordered by dependence edges, or with none on the submitting thread, in
/// program order. Both contain a failure to the same dependence cone and
/// record the same failures (see the module documentation).
///
/// Errors are deferred: [`Executor::submit`] never fails, the next
/// [`Executor::flush`] returns the first failure of the batch by submission
/// order, and a failure poisons only its dependence cone, each skipped launch
/// recorded as [`RuntimeError::Poisoned`] for [`Executor::drain_failures`].
///
/// ```
/// use runtime::{ExecutorKind, Runtime, RuntimeConfig};
/// // A runtime builds its executor from its config and reports the kind.
/// let kind = ExecutorKind::WorkStealing { workers: Some(2) };
/// let config = RuntimeConfig::functional(machine::MachineConfig::with_gpus(4));
/// assert_eq!(Runtime::new(config.with_executor(kind)).executor_kind(), kind);
/// ```
#[derive(Debug)]
pub struct Executor {
    kind: ExecutorKind,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Dependence edges between launches in flight on workers.
    tracker: DepTracker,
    /// The batch's failed cone when there are no workers.
    cone: Cone,
    next_id: u64,
    /// Records already reported by a flush, awaiting `drain_failures`.
    drained: Vec<LaunchFailure>,
}

impl Executor {
    /// An executor of `kind` for a machine with `gpus` simulated GPUs. It
    /// spawns [`ExecutorKind::worker_count`] workers: none for
    /// [`ExecutorKind::Serial`], whose launches all run on the submitting
    /// thread.
    ///
    /// ```
    /// use runtime::{Executor, ExecutorKind};
    /// let mut ex = Executor::new(ExecutorKind::Serial, 4); // no workers
    /// assert_eq!((ex.kind(), ex.workers()), (ExecutorKind::Serial, 0));
    /// ex.flush().unwrap(); // nothing submitted: trivially complete
    /// ```
    pub fn new(kind: ExecutorKind, gpus: usize) -> Self {
        let workers = kind.worker_count(gpus);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState::new(workers)),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            max_pending: (workers * 4).max(16),
        });
        let workers = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("diffuse-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    .expect("failed to spawn executor worker")
            })
            .collect();
        // A pool asked for with no workers gets, and reports, one.
        let kind = match kind {
            ExecutorKind::WorkStealing { workers: Some(0) } => {
                ExecutorKind::WorkStealing { workers: Some(1) }
            }
            kind => kind,
        };
        Executor {
            kind,
            shared,
            workers,
            tracker: DepTracker::new(),
            cone: Cone::default(),
            next_id: 0,
            drained: Vec::new(),
        }
    }

    /// The kind this executor was made for.
    pub fn kind(&self) -> ExecutorKind {
        self.kind
    }

    /// Number of worker threads: 0 when launches run on the submitting thread.
    ///
    /// ```
    /// use runtime::{Executor, ExecutorKind};
    /// let mut ex = Executor::new(ExecutorKind::WorkStealing { workers: Some(2) }, 4);
    /// assert_eq!(ex.workers(), 2);
    /// ex.flush().unwrap();
    /// ```
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Numbers the next launch.
    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Numbers the next launch and records its accesses, returning its id
    /// and the earlier launches of the batch it is ordered after.
    fn record(&mut self, accesses: &[AccessSummary]) -> (u64, Vec<u64>) {
        let id = self.next_id();
        (id, self.tracker.record(id, accesses))
    }

    /// Enqueues one launch's functional work, ordered after every earlier
    /// submission it conflicts with. With no workers it runs before this
    /// returns.
    pub fn submit(&mut self, work: WorkRequest<'_>) {
        if self.workers.is_empty() {
            self.run_inline(work);
            return;
        }
        let summaries: Vec<AccessSummary> =
            work.accesses.iter().map(BufferAccess::summary).collect();
        let (id, deps) = self.record(&summaries);
        // Crossing to a worker thread requires ownership.
        let work = work.into_owned_work();
        let mut state = self.shared.lock();
        // Backpressure: never run more than max_pending launches ahead of the
        // workers, bounding the memory the in-flight window keeps alive.
        while state.pending >= self.shared.max_pending {
            state = self.shared.done_cv.wait(state).expect(POISONED);
        }
        let fail_with = state.register(id, &work.name, &summaries, &deps);
        // Hazards against launches still in flight are unmet until they
        // complete; the rest are satisfied (or have poisoned this one).
        let mut unmet = 0;
        for dep in &deps {
            if let Some(node) = state.tasks.get_mut(dep) {
                node.dependents.push(id);
                unmet += 1;
            }
        }
        state.pending += 1;
        let name = work.name.clone();
        let node = TaskNode { name, work: Some(work), fail_with, unmet, dependents: Vec::new() };
        state.tasks.insert(id, node);
        if unmet == 0 {
            let q = (id % state.queues.len() as u64) as usize;
            state.queues[q].push_back(id);
            drop(state);
            self.shared.work_cv.notify_one();
        }
    }

    /// Records a launch as failed **without running it**: its accesses enter
    /// hazard tracking so every downstream launch is skipped as
    /// [`RuntimeError::Poisoned`], and `error` becomes its failure record.
    /// Used by the runtime when fault injection abandons a launch before its
    /// functional work is submitted.
    pub fn poison(&mut self, name: &str, accesses: &[AccessSummary], error: RuntimeError) {
        if self.workers.is_empty() {
            let id = self.next_id();
            self.shared.lock().fail(id, name, error);
            self.cone.add(id, accesses.iter().copied());
            return;
        }
        let (id, deps) = self.record(accesses);
        // Born completed-and-failed: every later submission depending on it
        // poisons at submit time.
        let mut state = self.shared.lock();
        let _ = state.register(id, name, accesses, &deps);
        state.complete(id, name, Err(error), Vec::new(), 0);
    }

    /// Runs a launch on the submitting thread, from the borrowed request:
    /// with no workers, everything before it has completed. It is skipped if
    /// it depends on the batch's failed cone; a skipped or failed launch
    /// joins the cone. Only a failure takes the scheduler lock, to record
    /// itself.
    fn run_inline(&mut self, work: WorkRequest<'_>) {
        let id = self.next_id();
        let accesses = work.accesses.iter().map(BufferAccess::summary);
        let error = if let Some(upstream) = self.cone.upstream(accesses.clone()) {
            let upstream = self.shared.lock().failed[&upstream].clone();
            RuntimeError::Poisoned { launch: work.name.to_string(), upstream }
        } else {
            let result = run_caught(|| {
                run_functional(
                    work.kernel.as_ref(),
                    work.scalars,
                    work.local_buffer_lens,
                    &work.accesses,
                    work.plan,
                    work.failed_attempts,
                )
            });
            match result {
                Ok(()) => return,
                Err(error) => error,
            }
        };
        self.shared.lock().fail(id, work.name, error);
        self.cone.add(id, accesses);
    }

    /// Blocks until every submitted launch has completed, returning the first
    /// failure of the batch (by submission order) and resetting hazard state
    /// for the next batch. Structured per-launch records survive the flush
    /// until [`Executor::drain_failures`] collects them.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuntimeError`] raised by any launch since the last
    /// flush.
    pub fn flush(&mut self) -> Result<(), RuntimeError> {
        let mut state = self.shared.lock();
        while state.pending > 0 {
            state = self.shared.done_cv.wait(state).expect(POISONED);
        }
        self.tracker.reset();
        self.cone.clear();
        if let Some(hb) = state.hb.as_mut() {
            hb.reset();
        }
        state.failed.clear();
        let batch = state.take_failures();
        drop(state);
        let first = batch.first().map(|f| f.error.clone());
        self.drained.extend(batch);
        first.map_or(Ok(()), Err)
    }

    /// Drains every per-launch failure record accumulated since the last
    /// drain, in submission order (failed-cone roots precede their skipped
    /// dependents).
    pub fn drain_failures(&mut self) -> Vec<LaunchFailure> {
        let rest = self.shared.lock().take_failures();
        let mut out = std::mem::take(&mut self.drained);
        out.extend(rest);
        out
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Complete outstanding work so region contents are final, then stop.
        // An error here has no caller left to reach — don't lose it silently.
        if let Err(e) = self.flush() {
            eprintln!("warning: discarding deferred launch error at executor shutdown: {e}");
        }
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one launch's work, catching a panic as [`RuntimeError::Panicked`]: a
/// dying launch fails its cone like any other failure, and cannot take a
/// worker (and every later flush) down with it.
fn run_caught(run: impl FnOnce() -> Result<(), RuntimeError>) -> Result<(), RuntimeError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
            (Some(s), _) => (*s).to_string(),
            (_, Some(s)) => s.clone(),
            _ => "non-string panic payload".to_string(),
        };
        Err(RuntimeError::Panicked(message))
    })
}

/// Pops a ready launch for worker `id`: its own deque from the back (LIFO,
/// cache-warm continuations) or a sibling's from the front (FIFO steal).
fn pop_ready(state: &mut SchedState, id: usize) -> Option<u64> {
    if let Some(task) = state.queues[id].pop_back() {
        return Some(task);
    }
    let n = state.queues.len();
    (1..n).find_map(|k| state.queues[(id + k) % n].pop_front())
}

fn worker_loop(id: usize, shared: &Shared) {
    let mut state = shared.lock();
    loop {
        let Some(task) = pop_ready(&mut state, id) else {
            if state.shutdown {
                return;
            }
            state = shared.work_cv.wait(state).expect(POISONED);
            continue;
        };
        let node = state.tasks.get_mut(&task).expect("ready task present");
        let work = node.work.take().expect("ready task must have unexecuted work");
        let result = match node.fail_with.take() {
            // Skipped: an upstream launch in its cone failed. Launches
            // outside the cone run normally (containment).
            Some(e) => Err(e),
            None => {
                // Independent scheduler audit (debug + DIFFUSE_VERIFY): this
                // task is about to touch real data, so every conflicting
                // predecessor must be ordered and complete.
                if let Some(hb) = state.hb.as_ref() {
                    hb.check_start(task);
                }
                // The heavy part runs without any scheduler lock held.
                drop(state);
                let r = run_caught(|| {
                    run_functional(
                        work.kernel.as_ref(),
                        &work.scalars,
                        &work.local_buffer_lens,
                        &work.accesses,
                        &work.plan,
                        work.failed_attempts,
                    )
                });
                state = shared.lock();
                r
            }
        };
        let TaskNode { name, dependents, .. } =
            state.tasks.remove(&task).expect("completed task present");
        // This worker takes one freed launch itself; wake siblings for the
        // rest so they can steal.
        if state.complete(task, &name, result, dependents, id) > 1 {
            shared.work_cv.notify_all();
        }
        state.pending -= 1;
        // Wakes both flushers (waiting for 0) and backpressured submitters
        // (waiting to drop below the bound).
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use kernel::{
        compile_interp, BackendKind, BinaryOp, BufferId, BufferRole, KernelModule, KernelStage,
        LoopBuilder,
    };

    fn handle(id: u64, n: u64, value: f64) -> RegionHandle {
        let h = RegionHandle::new(Region::new(RegionId(id), vec![n], "r", true));
        h.fill(value);
        h
    }

    /// out[i] = in[i] * factor
    fn scale_work(src: &RegionHandle, dst: &RegionHandle, n: u64, factor: f64) -> FunctionalWork {
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("scale", BufferId(0));
        let x = lb.load(BufferId(0));
        let c = lb.constant(factor);
        let v = lb.mul(x, c);
        lb.store(BufferId(1), v);
        module.push_loop(lb.finish());
        let rect = Rect::new(vec![0], vec![n as i64]);
        let accesses = vec![
            access(src, rect.clone(), Privilege::Read),
            access(dst, rect, Privilege::Write),
        ];
        work("scale", compile_interp(module), accesses, vec![])
    }

    /// The data plan of hand-built accesses, through the one constructor the
    /// runtime plans every launch with.
    fn plan(module: &KernelModule, accesses: &[BufferAccess], num_locals: usize) -> DataPlan {
        DataPlan::new(module, accesses.iter().map(|a| (a.region, a.privilege)), num_locals)
    }

    /// Hand-built work with no scalars and no killed attempts, planned.
    fn work(
        name: &str,
        kernel: Arc<dyn CompiledKernel>,
        accesses: Vec<BufferAccess>,
        local_buffer_lens: Vec<usize>,
    ) -> FunctionalWork {
        let plan = plan(kernel.module(), &accesses, local_buffer_lens.len());
        FunctionalWork {
            name: name.into(),
            kernel,
            scalars: vec![],
            accesses,
            local_buffer_lens,
            plan,
            failed_attempts: 0,
        }
    }

    #[test]
    fn serial_executor_runs_inline() {
        let (a, b) = (handle(0, 16, 2.0), handle(1, 16, 0.0));
        let mut ex = Executor::new(ExecutorKind::Serial, 4);
        assert_eq!(ex.workers(), 0);
        let w = scale_work(&a, &b, 16, 3.0);
        ex.submit(w.as_request());
        // Inline execution: visible even before flush.
        assert_eq!(b.data().unwrap(), vec![6.0; 16]);
        ex.flush().unwrap();
    }

    #[test]
    fn work_stealing_executor_completes_a_chain() {
        let (a, b, c) = (handle(0, 64, 1.0), handle(1, 64, 0.0), handle(2, 64, 0.0));
        let mut ex = pool(4);
        assert_eq!(ex.workers(), 4);
        let mut w1 = scale_work(&a, &b, 64, 2.0);
        w1.accesses[0].region = RegionId(0);
        w1.accesses[1].region = RegionId(1);
        let mut w2 = scale_work(&b, &c, 64, 5.0);
        w2.accesses[0].region = RegionId(1);
        w2.accesses[1].region = RegionId(2);
        ex.submit(w1.as_request());
        ex.submit(w2.as_request()); // RAW on region 1: must see b = 2.0
        ex.flush().unwrap();
        assert_eq!(c.data().unwrap(), vec![10.0; 64]);
    }

    #[test]
    fn work_stealing_executor_overlaps_independent_launches() {
        let n = 256u64;
        let sources: Vec<RegionHandle> = (0..8).map(|i| handle(i, n, i as f64)).collect();
        let sinks: Vec<RegionHandle> = (8..16).map(|i| handle(i, n, 0.0)).collect();
        let mut ex = pool(4);
        for (i, (src, dst)) in sources.iter().zip(&sinks).enumerate() {
            let mut w = scale_work(src, dst, n, 2.0);
            w.accesses[0].region = RegionId(i as u64);
            w.accesses[1].region = RegionId(8 + i as u64);
            ex.submit(w.as_request());
        }
        ex.flush().unwrap();
        for (i, dst) in sinks.iter().enumerate() {
            assert_eq!(dst.data().unwrap(), vec![2.0 * i as f64; n as usize]);
        }
    }

    #[test]
    fn errors_defer_to_flush_and_poison_the_batch() {
        let (a, b) = (handle(0, 16, 1.0), handle(1, 16, 0.0));
        for mut ex in executors() {
            // A module reading scalar parameter 0 without providing scalars:
            // fails with MissingParam at execution time.
            let mut bad = scale_work(&a, &b, 16, 1.0);
            let mut lb = LoopBuilder::new("bad", BufferId(0));
            let x = lb.load(BufferId(0));
            let p = lb.param(0);
            let v = lb.mul(x, p);
            lb.store(BufferId(1), v);
            let mut module = KernelModule::new(2);
            module.set_role(BufferId(1), BufferRole::Output);
            module.push_loop(lb.finish());
            bad.kernel = compile_interp(module);
            ex.submit(bad.as_request());
            // Writes the same region as `bad` (WAW), so it is ordered after it
            // at every worker count and must be skipped once the batch poisons.
            let good = scale_work(&a, &b, 16, 7.0);
            ex.submit(good.as_request());
            assert!(ex.flush().is_err(), "{:?} must defer the error", ex.kind());
            // The batch was poisoned: the good launch was skipped.
            assert_eq!(b.data().unwrap(), vec![0.0; 16]);
            // The next batch starts clean.
            let retry = scale_work(&a, &b, 16, 7.0);
            ex.submit(retry.as_request());
            ex.flush().unwrap();
            assert_eq!(b.data().unwrap(), vec![7.0; 16]);
            b.fill(0.0);
        }
    }

    #[test]
    fn panicking_launch_surfaces_as_error_instead_of_deadlocking() {
        let (a, b) = (handle(0, 16, 1.0), handle(1, 16, 0.0));
        for mut ex in executors() {
            // An access rect that lies outside the region: the launch panics
            // validating it, before it takes any guard.
            let mut bad = scale_work(&a, &b, 16, 1.0);
            bad.accesses[0].rect = Rect::new(vec![0], vec![64]);
            ex.submit(bad.as_request());
            // Without the worker panic guard this flush would hang forever.
            match ex.flush() {
                Err(RuntimeError::Panicked(msg)) => assert!(msg.contains("out of bounds"), "{msg}"),
                other => panic!("expected Panicked, got {other:?}"),
            }
            // No lock is held: the region can be written (and, below, viewed
            // again).
            a.fill(1.0);
            // The executor stays usable for the next batch.
            let retry = scale_work(&a, &b, 16, 4.0);
            ex.submit(retry.as_request());
            ex.flush().unwrap();
            assert_eq!(b.data().unwrap(), vec![4.0; 16]);
            b.fill(0.0);
        }
    }

    #[test]
    fn failures_poison_only_the_dependence_cone() {
        // bad writes region 1; its dependent (reads 1, writes 2) must be
        // skipped; an unordered launch (0 -> 3) must still complete.
        let (a, b, c, d) = (
            handle(0, 16, 1.0),
            handle(1, 16, 0.0),
            handle(2, 16, 0.0),
            handle(3, 16, 0.0),
        );
        for mut ex in executors() {
            let mut bad = scale_work(&a, &b, 16, 1.0);
            bad.name = "bad".into();
            bad.accesses[0].region = RegionId(0);
            bad.accesses[1].region = RegionId(1);
            bad.accesses[0].rect = Rect::new(vec![0], vec![64]); // panics
            ex.submit(bad.as_request());
            let mut cone = scale_work(&b, &c, 16, 2.0);
            cone.name = "cone".into();
            cone.accesses[0].region = RegionId(1);
            cone.accesses[1].region = RegionId(2);
            ex.submit(cone.as_request());
            let mut free = scale_work(&a, &d, 16, 5.0);
            free.name = "free".into();
            free.accesses[0].region = RegionId(0);
            free.accesses[1].region = RegionId(3);
            ex.submit(free.as_request());
            // The flush error is the cone root's, not a Poisoned record.
            match ex.flush() {
                Err(RuntimeError::Panicked(_)) => {}
                other => panic!("{:?}: expected Panicked, got {other:?}", ex.kind()),
            }
            // Containment: the unordered launch completed.
            assert_eq!(d.data().unwrap(), vec![5.0; 16]);
            // The cone was skipped.
            assert_eq!(c.data().unwrap(), vec![0.0; 16]);
            // Structured records: root first, then its poisoned dependent.
            let failures = ex.drain_failures();
            assert_eq!(failures.len(), 2, "{:?}", ex.kind());
            assert_eq!(failures[0].launch, "bad");
            assert!(matches!(failures[0].error, RuntimeError::Panicked(_)));
            assert_eq!(failures[1].launch, "cone");
            match &failures[1].error {
                RuntimeError::Poisoned { launch, upstream } => {
                    assert_eq!(launch, "cone");
                    assert_eq!(upstream, "bad");
                }
                other => panic!("expected Poisoned, got {other:?}"),
            }
            // A fresh batch drains nothing.
            assert!(ex.drain_failures().is_empty());
            d.fill(0.0);
        }
    }

    #[test]
    fn poison_skips_downstream_and_records_failures() {
        let (a, b, c) = (handle(0, 16, 3.0), handle(1, 16, 0.0), handle(2, 16, 0.0));
        for mut ex in executors() {
            // Runtime-abandoned launch: would have written region 1.
            let summaries = [
                AccessSummary {
                    region: RegionId(0),
                    reads: true,
                    writes: false,
                },
                AccessSummary {
                    region: RegionId(1),
                    reads: false,
                    writes: true,
                },
            ];
            ex.poison(
                "abandoned",
                &summaries,
                RuntimeError::Panicked("device fault".into()),
            );
            // Downstream of the poisoned write: must be skipped.
            let mut cone = scale_work(&b, &c, 16, 2.0);
            cone.name = "cone".into();
            cone.accesses[0].region = RegionId(1);
            cone.accesses[1].region = RegionId(2);
            ex.submit(cone.as_request());
            // Independent: must run.
            let mut free = scale_work(&a, &b, 16, 4.0);
            free.name = "free".into();
            free.accesses[0].region = RegionId(0);
            free.accesses[1].region = RegionId(5);
            free.accesses[1].handle = handle(5, 16, 0.0);
            let sink = free.accesses[1].handle.clone();
            ex.submit(free.as_request());
            assert!(ex.flush().is_err());
            assert_eq!(sink.data().unwrap(), vec![12.0; 16]);
            assert_eq!(c.data().unwrap(), vec![0.0; 16]);
            let failures = ex.drain_failures();
            assert_eq!(failures.len(), 2, "{:?}", ex.kind());
            assert_eq!(failures[0].launch, "abandoned");
            assert_eq!(failures[1].launch, "cone");
        }
    }

    #[test]
    fn discarded_attempts_commit_nothing() {
        // An accumulating kernel (dst += src) is NOT idempotent, so any
        // killed attempt that failed to roll back would inflate the result.
        // With failed_attempts > 0 the committing result must be bitwise
        // identical to a clean run.
        let (a, b) = (handle(0, 32, 1.5), handle(1, 32, 9.0));
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("acc", BufferId(0));
        let x = lb.load(BufferId(0));
        let y = lb.load(BufferId(1));
        let v = lb.add(x, y);
        lb.store(BufferId(1), v);
        module.push_loop(lb.finish());
        let rect = Rect::new(vec![0], vec![32]);
        let accesses = vec![
            BufferAccess {
                region: RegionId(100),
                handle: a.clone(),
                rect: rect.clone(),
                privilege: Privilege::Read,
            },
            BufferAccess {
                region: RegionId(101),
                handle: b.clone(),
                rect,
                privilege: Privilege::ReadWrite,
            },
        ];
        let mut work = work("acc", compile_interp(module), accesses, vec![]);
        work.failed_attempts = 3;
        let mut ex = Executor::new(ExecutorKind::Serial, 1);
        ex.submit(work.as_request());
        ex.flush().unwrap();
        assert!(ex.drain_failures().is_empty());
        // One committed accumulation only: 9.0 + 1.5, not 9.0 + 4 * 1.5.
        assert_eq!(b.data().unwrap(), vec![10.5; 32]);
        // Source (read-only) untouched by the replayed attempts.
        assert_eq!(a.data().unwrap(), vec![1.5; 32]);
    }

    /// A kernel whose one stage fails at once, with a known error.
    #[derive(Debug)]
    struct FailsAtOnce(KernelModule);

    impl CompiledKernel for FailsAtOnce {
        fn module(&self) -> &KernelModule {
            &self.0
        }

        fn backend_id(&self) -> &'static str {
            "fails-at-once"
        }

        fn execute_stage(
            &self,
            _stage: usize,
            _buffers: &mut [Buffer<'_>],
            _scalars: &[f64],
        ) -> Result<(), kernel::ExecError> {
            Err(kernel::ExecError::MissingParam(0))
        }
    }

    /// Containment as dependence edges give it: every launch recorded by a
    /// [`DepTracker`], registered against its edges and completed through
    /// [`SchedState`], in program order. [`Cone`]'s marks must skip and
    /// record exactly what this does.
    struct EdgeContainment {
        tracker: DepTracker,
        state: SchedState,
        next_id: u64,
    }

    impl EdgeContainment {
        fn new() -> Self {
            EdgeContainment { tracker: DepTracker::new(), state: SchedState::new(0), next_id: 0 }
        }

        /// A launch that fails with `own` if it runs, or succeeds if `None`.
        fn launch(&mut self, name: &str, accesses: &[AccessSummary], own: Option<RuntimeError>) {
            let id = self.next_id;
            self.next_id += 1;
            let deps = self.tracker.record(id, accesses);
            let result = match self.state.register(id, name, accesses, &deps) {
                Some(poisoned) => Err(poisoned),
                None => own.map_or(Ok(()), Err),
            };
            self.state.complete(id, name, result, Vec::new(), 0);
        }

        fn poison(&mut self, name: &str, accesses: &[AccessSummary], error: RuntimeError) {
            let id = self.next_id;
            self.next_id += 1;
            let deps = self.tracker.record(id, accesses);
            let _ = self.state.register(id, name, accesses, &deps);
            self.state.complete(id, name, Err(error), Vec::new(), 0);
        }

        /// The batch's first error and its failure records, as
        /// [`Executor::flush`] and [`Executor::drain_failures`] report them.
        fn flush(&mut self) -> (Option<RuntimeError>, Vec<LaunchFailure>) {
            self.tracker.reset();
            self.state.failed.clear();
            let batch = self.state.take_failures();
            (batch.first().map(|f| f.error.clone()), batch)
        }
    }

    const PRIVILEGES: [Privilege; 4] = [
        Privilege::Read,
        Privilege::Write,
        Privilege::ReadWrite,
        Privilege::Reduce(ir::ReductionOp::Sum),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 512 }))]

        /// With no workers, the per-region marks contain a failure exactly
        /// as dependence edges do: on random streams over one to six
        /// regions — every privilege, a region repeated within a launch —
        /// of launches that succeed (steps 0–3), launches whose kernel fails
        /// (4–5), `poison` calls (6) and flushes (7), each flush reports the
        /// same first error and the same failure records, in the same
        /// order, as [`EdgeContainment`]. A record names its launch, its own
        /// error or the `upstream` that poisoned it, and the kernels fail
        /// deterministically, so equal records are an equal skipped set.
        #[test]
        fn marks_contain_failures_exactly_as_dependence_edges_do(
            regions in 1u64..7,
            steps in prop::collection::vec(
                (0u8..8, prop::collection::vec((0u64..6, 0usize..4), 1..5)),
                1..32,
            ),
        ) {
            let handles: Vec<RegionHandle> = (0..regions).map(|r| handle(r, 4, 0.0)).collect();
            let whole = Rect::new(vec![0], vec![4]);
            let mut ex = Executor::new(ExecutorKind::Serial, 1);
            let mut edges = EdgeContainment::new();
            let last_flush = [(7, vec![(0, 0)])];
            for (i, (step, touched)) in steps.iter().chain(&last_flush).enumerate() {
                let name = format!("L{i}");
                let accesses: Vec<BufferAccess> = touched
                    .iter()
                    .map(|&(r, p)| {
                        access(&handles[(r % regions) as usize], whole.clone(), PRIVILEGES[p])
                    })
                    .collect();
                let summaries: Vec<AccessSummary> =
                    accesses.iter().map(BufferAccess::summary).collect();
                let mut module = KernelModule::new(accesses.len() as u32);
                match step {
                    0..=3 => {
                        let runs = work(&name, compile_interp(module), accesses, vec![]);
                        ex.submit(runs.as_request());
                        edges.launch(&name, &summaries, None);
                    }
                    4 | 5 => {
                        module.push_loop(LoopBuilder::new("fails", BufferId(0)).finish());
                        let kernel: Arc<dyn CompiledKernel> = Arc::new(FailsAtOnce(module));
                        ex.submit(work(&name, kernel, accesses, vec![]).as_request());
                        let own = RuntimeError::Exec(kernel::ExecError::MissingParam(0));
                        edges.launch(&name, &summaries, Some(own));
                    }
                    6 => {
                        let error = RuntimeError::Panicked(format!("{name} abandoned"));
                        ex.poison(&name, &summaries, error.clone());
                        edges.poison(&name, &summaries, error);
                    }
                    _ => {
                        let got = (ex.flush().err(), ex.drain_failures());
                        prop_assert_eq!(got, edges.flush(), "after step {}", i);
                    }
                }
            }
        }
    }

    /// A pool of `workers` workers.
    fn pool(workers: usize) -> Executor {
        Executor::new(ExecutorKind::WorkStealing { workers: Some(workers) }, 1)
    }

    /// No workers and two, for tests that must hold at each worker count.
    fn executors() -> [Executor; 2] {
        [Executor::new(ExecutorKind::Serial, 2), pool(2)]
    }

    /// An access stamped with its region's own id, so two accesses share an
    /// id exactly when they share a handle (as `Runtime` guarantees).
    fn access(handle: &RegionHandle, rect: Rect, privilege: Privilege) -> BufferAccess {
        BufferAccess {
            region: handle.id(),
            handle: handle.clone(),
            rect,
            privilege,
        }
    }

    /// `dst[i] = dst[i] <op> c` over the whole of `dst`.
    fn in_place(name: &str, dst: BufferId, op: BinaryOp, c: f64) -> kernel::LoopKernel {
        let mut lb = LoopBuilder::new(name, dst);
        let x = lb.load(dst);
        let c = lb.constant(c);
        let v = lb.binary(op, x, c);
        lb.store(dst, v);
        lb.finish()
    }

    #[test]
    fn aliasing_writers_are_ordered_by_the_stage_protocol() {
        // Two ReadWrite views A and B of one region on overlapping rects;
        // stage 0 does A += 1, stage 1 does B *= 2. B must see A's result
        // through the parent region: 2(R+1) where they overlap. (Copying
        // every writable view out after every stage, touched or not, let
        // stage 0's stale copy of B overwrite A's result: 2R.)
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(0), BufferRole::InOut);
        module.set_role(BufferId(1), BufferRole::InOut);
        module.push_loop(in_place("inc", BufferId(0), BinaryOp::Add, 1.0));
        module.push_loop(in_place("dbl", BufferId(1), BinaryOp::Mul, 2.0));
        for backend in [BackendKind::Interp, BackendKind::Simd] {
            for mut ex in executors() {
                let r = handle(0, 12, 0.0);
                r.write_data((0..12).map(f64::from).collect());
                let accesses = vec![
                    access(&r, Rect::new(vec![0], vec![8]), Privilege::ReadWrite),
                    access(&r, Rect::new(vec![4], vec![12]), Privilege::ReadWrite),
                ];
                let kernel = backend.backend().compile(&module).unwrap();
                let work = work("alias", kernel, accesses, vec![]);
                ex.submit(work.as_request());
                ex.flush().unwrap();
                let expect: Vec<f64> = (0..12)
                    .map(|i| match (f64::from(i), i) {
                        (v, 0..=3) => v + 1.0,
                        (v, 4..=7) => 2.0 * (v + 1.0),
                        (v, _) => 2.0 * v,
                    })
                    .collect();
                assert_eq!(r.data().unwrap(), expect, "{backend:?} {:?}", ex.kind());
            }
        }
    }

    #[test]
    fn overlapping_views_in_one_stage_keep_jacobi_semantics() {
        // A star stencil in place: five shifted Read views and a Write view
        // of one 6x6 region, one stage. Every view is copied in before the
        // stage runs, so each output sees only old neighbours (Jacobi), never
        // a neighbour this launch already updated (Gauss-Seidel).
        let mut module = KernelModule::new(6);
        module.set_role(BufferId(5), BufferRole::Output);
        let mut lb = LoopBuilder::new("star", BufferId(5));
        let mut sum = lb.load(BufferId(0));
        for b in 1..5 {
            let x = lb.load(BufferId(b));
            sum = lb.add(sum, x);
        }
        let fifth = lb.constant(0.2);
        let v = lb.mul(sum, fifth);
        lb.store(BufferId(5), v);
        module.push_loop(lb.finish());
        let old: Vec<f64> = (0..36).map(|i| f64::from(i * i % 11)).collect();
        let mut expect = old.clone();
        for r in 1..5 {
            for c in 1..5 {
                let at = |dr: i64, dc: i64| old[((r + dr) * 6 + c + dc) as usize];
                expect[(r * 6 + c) as usize] =
                    ((((at(0, 0) + at(-1, 0)) + at(1, 0)) + at(0, -1)) + at(0, 1)) * 0.2;
            }
        }
        let view = |dr: i64, dc: i64| Rect::new(vec![1 + dr, 1 + dc], vec![5 + dr, 5 + dc]);
        for backend in [BackendKind::Interp, BackendKind::Simd] {
            for mut ex in executors() {
                let grid = RegionHandle::new(Region::new(RegionId(0), vec![6, 6], "grid", true));
                grid.write_data(old.clone());
                let mut accesses: Vec<BufferAccess> = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
                    .iter()
                    .map(|&(dr, dc)| access(&grid, view(dr, dc), Privilege::Read))
                    .collect();
                accesses.push(access(&grid, view(0, 0), Privilege::Write));
                let kernel = backend.backend().compile(&module).unwrap();
                let work = work("star", kernel, accesses, vec![]);
                ex.submit(work.as_request());
                ex.flush().unwrap();
                assert_eq!(grid.data().unwrap(), expect, "{backend:?} {:?}", ex.kind());
            }
        }
    }

    /// Stage 0: `local += src`; stage 1: `dst = local` — over buffers
    /// (src, dst, dead local, live local), so `dst == src` exactly when the
    /// live local started at zero and survived from stage 0 to stage 1.
    fn through_a_local(src: &RegionHandle, dst: &RegionHandle, n: usize) -> FunctionalWork {
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Output);
        let (_dead, live) = (module.add_local(), module.add_local());
        let mut lb = LoopBuilder::new("stash", BufferId(0));
        let (x, acc) = (lb.load(BufferId(0)), lb.load(live));
        let v = lb.add(acc, x);
        lb.store(live, v);
        module.push_loop(lb.finish());
        let mut lb = LoopBuilder::new("fetch", BufferId(1));
        let x = lb.load(live);
        lb.store(BufferId(1), x);
        module.push_loop(lb.finish());
        let rect = Rect::new(vec![0], vec![n as i64]);
        let accesses = vec![
            access(src, rect.clone(), Privilege::Read),
            access(dst, rect, Privilege::Write),
        ];
        // The dead local could not be allocated even if asked for.
        work("through_a_local", compile_interp(module), accesses, vec![usize::MAX / 16, n])
    }

    #[test]
    fn only_referenced_locals_are_materialised() {
        for mut ex in executors() {
            let (a, b) = (handle(0, 16, 2.5), handle(1, 16, -1.0));
            ex.submit(through_a_local(&a, &b, 16).as_request());
            // Asking for the unreferenced local's 2^63 - 8 bytes could only
            // kill the launch; the referenced one is zero-initialised and
            // carried from stage 0 to stage 1.
            ex.flush().unwrap();
            assert_eq!(b.data().unwrap(), vec![2.5; 16], "{:?}", ex.kind());
        }
    }

    #[test]
    fn killed_attempts_leave_no_trace_in_the_committing_runs_locals() {
        // Attempt 0 is killed after stage 0 (the local holds src), attempt 1
        // after both stages. Each attempt builds its own buffer table, so the
        // committing run's local starts from zero again: dst = src, not 2-3x.
        for mut ex in executors() {
            let (a, b) = (handle(0, 16, 2.5), handle(1, 16, -1.0));
            let mut work = through_a_local(&a, &b, 16);
            work.failed_attempts = 2;
            ex.submit(work.as_request());
            ex.flush().unwrap();
            assert_eq!(b.data().unwrap(), vec![2.5; 16], "{:?}", ex.kind());
        }
    }

    #[test]
    fn each_requirement_is_bound_as_a_view_a_mutable_view_or_staged() {
        use Binding::{Staged, View, ViewMut};
        // (region, rect start, privilege, what the one stage does, binding)
        let table = [
            (0, 0, Privilege::Read, "load", View),
            // Stored into (the write is discarded): needs storage to land in.
            (1, 0, Privilege::Read, "store", Staged),
            // A reader and a writer of one region.
            (2, 0, Privilege::Read, "load", Staged),
            (2, 0, Privilege::Write, "store", Staged),
            // Never referenced: nothing to view, and nothing is copied.
            (3, 0, Privilege::Read, "", Staged),
            (4, 0, Privilege::Write, "", Staged),
            // The only requirement on its region, written or not.
            (5, 0, Privilege::ReadWrite, "load", ViewMut),
            (6, 0, Privilege::Write, "store", ViewMut),
            (7, 0, Privilege::ReadWrite, "load store", ViewMut),
            (8, 0, Privilege::Reduce(ir::ReductionOp::Sum), "reduce", ViewMut),
            // A star: a write view beside shifted read views of one grid.
            (9, 1, Privilege::Read, "load", Staged),
            (9, 0, Privilege::Read, "load", Staged),
            (9, 2, Privilege::Read, "load", Staged),
            (9, 1, Privilege::Write, "store", Staged),
            // Views of a region nobody writes share one read guard, through
            // which a discarded writer beside them is copied in.
            (10, 0, Privilege::Read, "load", View),
            (10, 2, Privilege::Read, "load", View),
            (10, 1, Privilege::Read, "store", Staged),
        ];
        let mut module = KernelModule::new(table.len() as u32);
        let mut lb = LoopBuilder::new("s", BufferId(0));
        let mut sum = lb.constant(0.5);
        for (b, &(.., uses, _)) in table.iter().enumerate() {
            if uses.contains("load") {
                let x = lb.load(BufferId(b as u32));
                sum = lb.add(sum, x);
            }
        }
        for (b, &(.., uses, _)) in table.iter().enumerate() {
            if uses.contains("store") {
                lb.store(BufferId(b as u32), sum);
            }
            if uses.contains("reduce") {
                lb.reduce(BufferId(b as u32), kernel::ReduceOp::Sum, sum);
            }
        }
        module.push_loop(lb.finish());
        let launch = || -> Vec<BufferAccess> {
            let regions: Vec<RegionHandle> = (0..11)
                .map(|id| {
                    let h = handle(id, 8, 0.0);
                    h.write_data((0..8).map(|i| f64::from(i) * 0.25 + id as f64).collect());
                    h
                })
                .collect();
            table
                .iter()
                .map(|&(r, lo, privilege, ..)| {
                    access(&regions[r], Rect::new(vec![lo], vec![lo + 6]), privilege)
                })
                .collect()
        };
        let (new, old) = (launch(), launch());
        let want: Vec<Binding> = table.iter().map(|row| row.4).collect();
        let planned = plan(&module, &new, 0);
        assert_eq!(planned.bindings, want);
        // All three bindings in one launch commit what copying does.
        let kernel = compile_interp(module);
        run_functional(kernel.as_ref(), &[], &[], &new, &planned, 0).unwrap();
        run_stages_reference(kernel.as_ref(), &[], &[], &old, 1).unwrap();
        assert_eq!(region_bits(&new), region_bits(&old));
    }

    #[test]
    fn a_stage_that_fails_writes_nothing_in_place() {
        // x = 2x is stored before Param(0) is read, and the launch has no
        // scalars. Were the missing parameter found only when element 0
        // reaches it, element 0's store would already be in region memory.
        let mut module = KernelModule::new(1);
        module.set_role(BufferId(0), BufferRole::InOut);
        let mut lb = LoopBuilder::new("early_store", BufferId(0));
        let (x, two) = (lb.load(BufferId(0)), lb.constant(2.0));
        let doubled = lb.mul(x, two);
        lb.store(BufferId(0), doubled);
        let p = lb.param(0);
        let v = lb.add(doubled, p);
        lb.store(BufferId(0), v);
        module.push_loop(lb.finish());
        let before: Vec<f64> = (0..16).map(|i| 1.0 + f64::from(i)).collect();
        for backend in [BackendKind::Interp, BackendKind::Simd] {
            let r = handle(0, 16, 0.0);
            r.write_data(before.clone());
            let accesses = [access(&r, Rect::new(vec![0], vec![16]), Privilege::ReadWrite)];
            let planned = plan(&module, &accesses, 0);
            assert_eq!(planned.bindings, [Binding::ViewMut]);
            let kernel = backend.backend().compile(&module).unwrap();
            assert_eq!(
                run_functional(kernel.as_ref(), &[], &[], &accesses, &planned, 0),
                Err(RuntimeError::Exec(kernel::ExecError::MissingParam(0))),
                "{backend:?}"
            );
            assert_eq!(r.data().unwrap(), before, "{backend:?}");
        }
    }

    /// A kernel that stores into its output, which it writes in place, and
    /// then panics inside the stage, with the output's write guard held.
    #[derive(Debug)]
    struct PanicsMidStage(Arc<dyn CompiledKernel>);

    impl CompiledKernel for PanicsMidStage {
        fn module(&self) -> &KernelModule {
            self.0.module()
        }

        fn backend_id(&self) -> &'static str {
            self.0.backend_id()
        }

        fn execute_stage(
            &self,
            _stage: usize,
            buffers: &mut [Buffer<'_>],
            _scalars: &[f64],
        ) -> Result<(), kernel::ExecError> {
            assert!(matches!(buffers[1], Buffer::ViewMut(_)), "the output is written in place");
            buffers[1].set(0, -1.0);
            panic!("the kernel died mid-stage");
        }
    }

    #[test]
    fn a_kernel_panicking_mid_stage_poisons_no_region() {
        for mut ex in executors() {
            let (a, b) = (handle(0, 16, 1.0), handle(1, 16, 0.0));
            let mut work = scale_work(&a, &b, 16, 2.0);
            work.kernel = Arc::new(PanicsMidStage(work.kernel));
            ex.submit(work.as_request());
            match ex.flush() {
                Err(RuntimeError::Panicked(msg)) => assert!(msg.contains("mid-stage"), "{msg}"),
                other => panic!("{:?}: expected Panicked, got {other:?}", ex.kind()),
            }
            // The panic poisoned the region's lock; every access recovers it.
            // What the launch wrote before dying stays (its cone was failed).
            assert_eq!(b.data().unwrap()[..2], [-1.0, 0.0], "{:?}", ex.kind());
            b.fill(0.0);
            // The next batch writes the region in place again.
            ex.submit(scale_work(&a, &b, 16, 4.0).as_request());
            ex.flush().unwrap();
            assert_eq!(b.data().unwrap(), vec![4.0; 16], "{:?}", ex.kind());
        }
    }

    /// A kernel whose stages start only once `parties` launches are inside
    /// one at the same time, each over a borrowed input.
    #[derive(Debug)]
    struct Rendezvous {
        inner: Arc<dyn CompiledKernel>,
        parties: usize,
        arrived: Mutex<usize>,
        all_in: Condvar,
    }

    impl CompiledKernel for Rendezvous {
        fn module(&self) -> &KernelModule {
            self.inner.module()
        }

        fn backend_id(&self) -> &'static str {
            self.inner.backend_id()
        }

        fn execute_stage(
            &self,
            stage: usize,
            buffers: &mut [Buffer<'_>],
            scalars: &[f64],
        ) -> Result<(), kernel::ExecError> {
            assert!(matches!(buffers[0], Buffer::View(_)), "the input is borrowed");
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all_in.notify_all();
            let (arrived, wait) = self
                .all_in
                .wait_timeout_while(arrived, std::time::Duration::from_secs(30), |n| {
                    *n < self.parties
                })
                .unwrap();
            assert!(!wait.timed_out(), "{} of {} launches got in", *arrived, self.parties);
            drop(arrived);
            self.inner.execute_stage(stage, buffers, scalars)
        }
    }

    #[test]
    fn launches_viewing_one_region_run_at_the_same_time() {
        // Both launches hold the source's read lock from before their stage
        // to after it; were that lock exclusive, or a reader ordered behind
        // a reader, the second could never join the first inside the stage.
        let (src, n) = (handle(0, 32, 1.5), 32);
        let sinks = [handle(1, n, 0.0), handle(2, n, 0.0)];
        let mut ex = pool(2);
        let kernel: Arc<dyn CompiledKernel> = Arc::new(Rendezvous {
            inner: scale_work(&src, &sinks[0], n, 2.0).kernel,
            parties: 2,
            arrived: Mutex::new(0),
            all_in: Condvar::new(),
        });
        for sink in &sinks {
            let mut work = scale_work(&src, sink, n, 2.0);
            work.kernel = Arc::clone(&kernel);
            ex.submit(work.as_request());
        }
        ex.flush().unwrap();
        for sink in &sinks {
            assert_eq!(sink.data().unwrap(), vec![3.0; n as usize]);
        }
    }

    #[test]
    fn reader_writer_reader_chains_match_the_serial_executor() {
        // 200 rounds of: view R into X, rewrite R in place, view R into Y.
        // Every launch that borrows R must find its lock free of writers —
        // `RegionHandle::read_guard` asserts so in debug builds — because
        // the writer is ordered after the reader before it and before the
        // reader after it.
        let n = 48;
        let mut decay = KernelModule::new(1);
        decay.set_role(BufferId(0), BufferRole::InOut);
        decay.push_loop(in_place("decay", BufferId(0), BinaryOp::Mul, 0.9375));
        let decay = compile_interp(decay);
        let results: Vec<Vec<Vec<f64>>> = executors()
            .into_iter()
            .map(|mut ex| {
                let (r, x, y) = (handle(0, n, 1.0), handle(1, n, 0.0), handle(2, n, 0.0));
                r.write_data((0..n).map(|i| 1.0 + i as f64 / 7.0).collect());
                for round in 0..200 {
                    ex.submit(scale_work(&r, &x, n, 1.0 + f64::from(round) / 256.0).as_request());
                    let whole = Rect::new(vec![0], vec![n as i64]);
                    let accesses = vec![access(&r, whole, Privilege::ReadWrite)];
                    let rewrite = work("decay", Arc::clone(&decay), accesses, vec![]);
                    ex.submit(rewrite.as_request());
                    ex.submit(scale_work(&r, &y, n, 3.0).as_request());
                }
                ex.flush().unwrap();
                [r, x, y].iter().map(|h| h.data().unwrap()).collect()
            })
            .collect();
        assert_eq!(results[0], results[1]);
        // Each view saw R as the rewrites before it, and no other, left it.
        let (mut r, mut x, mut y) = (1.0 + 5.0 / 7.0, 0.0, 0.0);
        for round in 0..200 {
            x = r * (1.0 + f64::from(round) / 256.0);
            r *= 0.9375;
            y = r * 3.0;
        }
        assert_eq!([results[0][0][5], results[0][1][5], results[0][2][5]], [r, x, y]);
    }

    /// The stage loop this module had before it learned which buffers a
    /// stage touches (all but verbatim: the staged `Vec`s are now wrapped as
    /// dense table entries): every requirement copied in and every local
    /// cloned before every stage, every writable requirement copied out and
    /// every local moved back after it. The oracle of
    /// `data_plane_matches_the_copy_everything_protocol`.
    fn run_stages_reference(
        kernel: &dyn CompiledKernel,
        scalars: &[f64],
        local_buffer_lens: &[usize],
        accesses: &[BufferAccess],
        stages: usize,
    ) -> Result<(), RuntimeError> {
        let num_reqs = accesses.len();
        let mut locals: Vec<Vec<f64>> = local_buffer_lens
            .iter()
            .map(|&len| vec![0.0; len])
            .collect();
        for stage in 0..stages {
            // Copy-in.
            let mut buffers: Vec<Buffer<'_>> = Vec::with_capacity(num_reqs + locals.len());
            for access in accesses {
                buffers.push(Buffer::Dense(access.handle.read_rect(&access.rect)));
            }
            for local in &locals {
                buffers.push(Buffer::Dense(local.clone()));
            }
            // Execute.
            kernel.execute_stage(stage, &mut buffers, scalars)?;
            // Copy-out written requirements and persist locals.
            let mut buffers = buffers.into_iter().map(|b| match b {
                Buffer::Dense(v) => v,
                _ => unreachable!("the reference stages everything"),
            });
            for access in accesses {
                let staged = buffers.next().unwrap();
                if access.privilege.writes() || access.privilege.reduces() {
                    access.handle.write_rect(&access.rect, &staged);
                }
            }
            for (local, staged) in locals.iter_mut().zip(buffers) {
                *local = staged;
            }
        }
        Ok(())
    }

    // Buffer layout of the differential test's random modules. Requirements:
    // four vectors of N elements (the last a haloed 2-D tile), one of M < N,
    // two scalars, a dense N x N matrix and a tridiagonal CSR triple, each in
    // a region of its own; three overlapping N-element views of one shared
    // grid, of which only the last (`WRITER`) may hold a writing privilege;
    // an interior tile of a 3-D region and a full-width block of rows; then
    // four locals. Stages pick operands from POOL, so the last local is never
    // touched.
    const N: usize = 6;
    const M: usize = 4;
    const SCALARS: [u32; 2] = [5, 6];
    const MAT: u32 = 7;
    const CSR: [u32; 3] = [8, 9, 10];
    const SHARED: [usize; 3] = [11, 12, 13];
    const WRITER: usize = SHARED[2];
    const REQ_LENS: [usize; 16] =
        [N, N, N, N, M, 1, 1, N * N, N + 1, 3 * N - 2, 3 * N - 2, N, N, N, N, N];
    const LOCAL_LENS: [usize; 4] = [N, N, M, N];
    const LONG: [u32; 11] = [0, 1, 2, 3, 11, 12, 13, 14, 15, 16, 17];
    const POOL: [u32; 13] = [0, 1, 2, 3, 4, 11, 12, 13, 14, 15, 16, 17, 18];

    /// One random stage from five raw draws (see the layout above).
    fn push_random_stage(module: &mut KernelModule, (kind, a, b, c, d): (u8, u32, u32, u32, u32)) {
        let pick = |set: &[u32], raw: u32| BufferId(set[raw as usize % set.len()]);
        let (dom, x, y, dst) = (pick(&POOL, a), pick(&POOL, b), pick(&POOL, c), pick(&POOL, d));
        let mut lb = LoopBuilder::new("s", dom);
        match kind {
            // dst = x (+|*) y
            0 => {
                let (vx, vy) = (lb.load(x), lb.load(y));
                let v = if a % 2 == 0 { lb.add(vx, vy) } else { lb.mul(vx, vy) };
                lb.store(dst, v);
            }
            // dst = x * broadcast(scalar or element 0 of a vector)
            1 => {
                let s = if c % 3 == 0 { y } else { pick(&SCALARS, c) };
                let (vx, vs) = (lb.load(x), lb.load_scalar(s));
                let v = lb.mul(vx, vs);
                lb.store(dst, v);
            }
            // scalar += sum(x * x)
            2 => {
                let vx = lb.load(x);
                let v = lb.mul(vx, vx);
                lb.reduce(pick(&SCALARS, c), kernel::ReduceOp::Sum, v);
            }
            // dst += param 0 (an ExecError when the launch has no scalars)
            3 => {
                let (vx, p) = (lb.load(dst), lb.param(0));
                let v = lb.add(vx, p);
                lb.store(dst, v);
            }
            // y = A x, dense or CSR, over two distinct N-vectors
            _ => {
                let x = pick(&LONG, b);
                let long = LONG.len() as u32;
                let y = pick(&LONG, if b % long == d % long { d + 1 } else { d });
                module.push_opaque(if kind == 4 {
                    kernel::OpaqueOp::Gemv { a: BufferId(MAT), x, y }
                } else {
                    kernel::OpaqueOp::SpMvCsr {
                        pos: BufferId(CSR[0]),
                        crd: BufferId(CSR[1]),
                        vals: BufferId(CSR[2]),
                        x,
                        y,
                        index_width: kernel::IndexWidth::U32,
                    }
                });
                return;
            }
        }
        module.push_loop(lb.finish());
    }

    /// Initial contents of requirement `i`: distinct small values, except the
    /// CSR structure arrays, which must index in bounds.
    fn initial_contents(i: usize) -> Vec<f64> {
        let tridiagonal = |f: fn(usize, usize) -> f64| -> Vec<f64> {
            (0..N)
                .flat_map(|r| (r.saturating_sub(1)..(r + 2).min(N)).map(move |c| f(r, c)))
                .collect()
        };
        match i as u32 {
            8 => (0..=N).map(|r| (3 * r).saturating_sub(1).min(3 * N - 2) as f64).collect(),
            9 => tridiagonal(|_, c| c as f64),
            10 => tridiagonal(|r, c| if r == c { 2.0 } else { -0.5 }),
            _ => (0..REQ_LENS[i]).map(|k| 0.25 * (i + 1) as f64 - 0.125 * k as f64).collect(),
        }
    }

    /// Fresh regions for one run: requirement `i` sits at a drawn offset
    /// inside its own region — requirement 3 as a strided 2 x 3 tile of a 2-D
    /// one, 14 as a 2 x 3 x 1 interior tile of a 3-D one (runs of one
    /// element), 15 as two full rows (one coalesced run) — except the three
    /// `SHARED` requirements, overlapping 2 x 3 and 3 x 2 tiles of one grid.
    fn fresh_accesses(privileges: &[u8], offsets: &[u64]) -> Vec<BufferAccess> {
        let region = |id: usize, shape: Vec<u64>| {
            let handle = RegionHandle::new(Region::new(RegionId(id as u64), shape, "r", true));
            handle.fill(-7.0);
            handle
        };
        let grid_lo = offsets[SHARED[0]] as i64;
        let grid = region(SHARED[0], vec![grid_lo as u64 + 4, 5]);
        (0..REQ_LENS.len())
            .map(|i| {
                let (lo, pad, len) = (offsets[i] as i64, offsets[i] / 2, REQ_LENS[i] as i64);
                let (handle, rect) = match i {
                    3 => (
                        region(i, vec![lo as u64 + 2 + pad, 5]),
                        Rect::new(vec![lo, 1], vec![lo + 2, 4]),
                    ),
                    11 => (grid.clone(), Rect::new(vec![grid_lo + 1, 1], vec![grid_lo + 3, 4])),
                    12 => (grid.clone(), Rect::new(vec![grid_lo, 2], vec![grid_lo + 2, 5])),
                    13 => (grid.clone(), Rect::new(vec![grid_lo + 1, 0], vec![grid_lo + 4, 2])),
                    14 => (
                        region(i, vec![lo as u64 + 3, 4, 3]),
                        Rect::new(vec![lo + 1, 1, 1], vec![lo + 3, 4, 2]),
                    ),
                    15 => (
                        region(i, vec![lo as u64 + 2 + pad, 3]),
                        Rect::new(vec![lo, 0], vec![lo + 2, 3]),
                    ),
                    _ => (
                        region(i, vec![(lo + len) as u64 + pad]),
                        Rect::new(vec![lo], vec![lo + len]),
                    ),
                };
                handle.write_rect(&rect, &initial_contents(i));
                let privilege = match privileges[i] {
                    0 => Privilege::Read,
                    1 => Privilege::Write,
                    2 => Privilege::ReadWrite,
                    _ => Privilege::Reduce(ir::ReductionOp::Sum),
                };
                access(&handle, rect, privilege)
            })
            .collect()
    }

    /// Exact bits, every NaN canonicalised (as in `backend_equivalence`).
    fn region_bits(accesses: &[BufferAccess]) -> Vec<Vec<u64>> {
        accesses
            .iter()
            .map(|a| {
                let data = a.handle.data().unwrap();
                data.iter().map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() }).collect()
            })
            .collect()
    }

    /// Launches the property below generated, those of them that read at
    /// least one requirement through a view, and those that wrote at least
    /// one in place.
    static LAUNCHES: AtomicUsize = AtomicUsize::new(0);
    static BORROWING_LAUNCHES: AtomicUsize = AtomicUsize::new(0);
    static IN_PLACE_LAUNCHES: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 192 }))]

        /// The data plane moves less than the copy-everything protocol it
        /// replaced but commits the same bits and raises the same errors, on
        /// accesses of any privilege — each in a region of its own, or
        /// overlapping views of one region with at most one writer among
        /// them (the oracle copies every writable view out after every
        /// stage, so it is itself only right for one) — on contiguous,
        /// strided and coalesced rects, raw or pipeline-optimised modules,
        /// both backends, with and without killed attempts (which commit
        /// nothing, so the oracle never needs to run them).
        fn data_plane_property(
            stages in prop::collection::vec((0u8..6, 0u32..64, 0u32..64, 0u32..64, 0u32..64), 1..5),
            privileges in prop::collection::vec(0u8..4, REQ_LENS.len()..REQ_LENS.len() + 1),
            offsets in prop::collection::vec(0u64..4, REQ_LENS.len()..REQ_LENS.len() + 1),
            (optimize, with_scalars, failed_attempts) in (0u8..2, 0u8..4, 0u32..2),
        ) {
            let mut privileges = privileges.clone();
            for i in SHARED {
                if i != WRITER {
                    privileges[i] = 0;
                }
            }
            let mut module = KernelModule::new(REQ_LENS.len() as u32);
            for (i, p) in privileges.iter().enumerate() {
                use BufferRole::{InOut, Input, Output, Reduction};
                module.set_role(BufferId(i as u32), [Input, Output, InOut, Reduction][*p as usize]);
            }
            for _ in LOCAL_LENS {
                module.add_local();
            }
            for &stage in &stages {
                push_random_stage(&mut module, stage);
            }
            if optimize == 1 {
                let lens: Vec<usize> = REQ_LENS.iter().chain(&LOCAL_LENS).copied().collect();
                module = kernel::Pipeline::default().run(module, &lens).module;
            }
            let scalars: &[f64] = if with_scalars == 0 { &[] } else { &[1.5] };
            for backend in [BackendKind::Interp, BackendKind::Simd] {
                let kernel = backend.backend().compile(&module).unwrap();
                let (new, old) = (
                    fresh_accesses(&privileges, &offsets),
                    fresh_accesses(&privileges, &offsets),
                );
                LAUNCHES.fetch_add(1, Ordering::Relaxed);
                let planned = plan(&module, &new, LOCAL_LENS.len());
                let bound = &planned.bindings;
                if bound.contains(&Binding::View) {
                    BORROWING_LAUNCHES.fetch_add(1, Ordering::Relaxed);
                }
                let written: Vec<BufferId> =
                    module.stages.iter().flat_map(KernelStage::written_buffers).collect();
                if bound.iter().enumerate().any(|(i, &binding)| {
                    binding == Binding::ViewMut && written.contains(&BufferId(i as u32))
                }) {
                    IN_PLACE_LAUNCHES.fetch_add(1, Ordering::Relaxed);
                }
                let killed = failed_attempts * 2;
                let got =
                    run_functional(kernel.as_ref(), scalars, &LOCAL_LENS, &new, &planned, killed);
                let want = run_stages_reference(
                    kernel.as_ref(),
                    scalars,
                    &LOCAL_LENS,
                    &old,
                    module.num_stages(),
                );
                prop_assert_eq!(&got, &want, "{:?} {:?}", backend, module);
                prop_assert_eq!(region_bits(&new), region_bits(&old), "{:?} {:?}", backend, module);
            }
        }
    }

    #[test]
    fn data_plane_matches_the_copy_everything_protocol() {
        data_plane_property();
        // The property holds trivially for a data plane that stages
        // everything: most of what it generated must have read through a
        // view, and most must have written in place.
        let (all, borrowing, in_place) = (
            LAUNCHES.load(Ordering::Relaxed),
            BORROWING_LAUNCHES.load(Ordering::Relaxed),
            IN_PLACE_LAUNCHES.load(Ordering::Relaxed),
        );
        assert!(2 * borrowing > all, "{borrowing} of {all} launches borrowed a requirement");
        assert!(2 * in_place > all, "{in_place} of {all} launches wrote a requirement in place");
    }

    #[test]
    fn flush_on_empty_executor_is_ok() {
        for kind in [ExecutorKind::Serial, ExecutorKind::WorkStealing { workers: None }] {
            let mut ex = Executor::new(kind, 4);
            ex.flush().unwrap();
            ex.flush().unwrap();
            assert!(ex.drain_failures().is_empty());
        }
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(ExecutorKind::Serial.worker_count(8), 0);
        assert_eq!(
            ExecutorKind::WorkStealing { workers: Some(3) }.worker_count(8),
            3
        );
        let auto = ExecutorKind::WorkStealing { workers: None }.worker_count(8);
        assert!((1..=8).contains(&auto));
        // The executor spawns that many; a pool asked for with none gets one.
        let zero = ExecutorKind::WorkStealing { workers: Some(0) };
        let one = ExecutorKind::WorkStealing { workers: Some(1) };
        for (kind, workers, reported) in [
            (ExecutorKind::Serial, 0, ExecutorKind::Serial),
            (zero, 1, one),
        ] {
            let ex = Executor::new(kind, 8);
            assert_eq!((ex.workers(), ex.kind()), (workers, reported));
        }
    }
}
