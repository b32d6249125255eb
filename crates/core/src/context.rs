//! The Diffuse context: task window management, fusion, JIT and lowering.
//!
//! A flush (`flush_window`, the `flush_window` of Figure 6) is three stages
//! with plain data between them:
//!
//! 1. **Plan.** `pack_horizontally` reorders the window for horizontal
//!    fusion; then one memo probe looks the whole window up. Its value is the
//!    window's plan: per fusible segment, a task launched alone or a fused
//!    skeleton. A hit replays the plan; a miss segments the window once
//!    (`classify_and_segment`) and memoizes the plan it builds, offering its
//!    tail under each suffix that starts at a segment boundary (`memoize`).
//!    A fused segment's entry keeps its liveness mask, Definition 4's first
//!    two conditions per argument, which a miss finds for every segment in
//!    one sweep of the window; each launch subtracts the stores with a live
//!    application handle.
//! 2. **Lower.** `lower` composes, optimizes and compiles a segment into the
//!    skeleton a replay relaunches; `library_kernel` builds, once per
//!    one-task canonical form, the skeleton a task launched alone replays.
//!    Every check of every stage passes through one verification gate
//!    (`verify`), and every failed check or compile reaches one containment
//!    path (`contain`).
//! 3. **Launch.** `task_launch` builds the runtime launch (region
//!    requirements, task-local temporaries, scalars) and `launch` is the one
//!    tail: execution under the skeleton's runtime launch plan, and
//!    accounting; every launch after a skeleton's first is a `replay_launch`.
//!
//! The flush takes the window's tasks with their first-occurrence store
//! numbering once; skeleton arguments are numbered and resolved through it.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use fusion::{
    fusible_segments, fusible_segments_explained, plan_horizontal, temporary_stores,
    AdaptiveWindow, CanonicalWindow, FusedTask, FusionViolation, MemoCache, TempMask,
    WindowLiveness,
};
use ir::fingerprint::{fold_u64, FnvHashMap, OFFSET};
use ir::{
    Domain, FingerprintState, IndexTask, Partition, PartitionId, Privilege, ShapeId, StoreArg,
    StoreId, TaskId, TaskWindow,
};
use kernel::{
    BufferId, BufferRole, CompileTimeModel, CompiledKernel, GenArgs, GeneratorRegistry,
    KernelBackend, KernelModule, KernelStage, LibraryId, LoopOp, OpaqueOp, Pipeline,
    PipelineConfig, TaskKind, TaskSignature,
};
use runtime::{
    AccessSummary, FaultSite, LaunchFailure, LaunchPlan, OverheadClass, Profile, RegionId,
    RegionRequirement, Runtime, RuntimeConfig, RuntimeError, TaskLaunch,
};

use crate::config::DiffuseConfig;
use crate::handle::StoreHandle;
use crate::launch::LaunchBuilder;
use crate::library::{Library, LibraryBuilder};
use crate::stats::{ExecutionStats, LibraryStats};

/// Metadata Diffuse keeps per store.
#[derive(Debug, Clone)]
struct StoreMeta {
    /// Interned shape; stamped onto every submitted argument so the fusion
    /// analyses never consult a side shape map.
    shape: ShapeId,
    name: String,
    /// Region backing the store, allocated lazily on first non-temporary use.
    region: Option<RegionId>,
    /// Live application references (the split reference count).
    app_refs: u64,
}

/// One fused segment of a memoized window: its backend-compiled kernel plus
/// the complete **launch skeleton** it was compiled under — everything a memo
/// hit needs to relaunch the segment without rebuilding the fused task, down
/// to the runtime's [`LaunchPlan`] (access rects, kernel price and
/// data-plane bindings), which a replay therefore re-derives none of. Each
/// context owns one cache created for its configured backend, so skeletons
/// are keyed by (canonical window, backend) by construction; the cache holds
/// them behind an `Arc`, so a hit clones a pointer.
///
/// The layout — which fused args were demoted to task-local temporaries
/// (this fixes both the requirement/local split and the buffer permutation)
/// and how many generator locals follow — depends on store liveness. The
/// canonical window fixes only Definition 4's first two conditions, which
/// the plan keeps beside the skeleton as a [`TempMask`]; the third, no live
/// application handle, is read at every launch. The skeleton is replayed
/// only when the mask minus the live handles is its layout: a kernel
/// compiled with an eliminated temporary can never be resurrected for a
/// window where that store is live and must be written.
#[derive(Debug, Clone)]
struct Skeleton {
    /// Number of tasks the skeleton launches as one.
    len: usize,
    kernel: Arc<dyn CompiledKernel>,
    /// Fused name (`fused[a+b+...]`) of the window that was memoized. Task
    /// names are not part of the canonical key, so an isomorphic window
    /// with different task names relaunches under this name — profiles and
    /// diagnostics show the memoized window's name, which identifies the
    /// structure (and the kernel actually run) rather than the instance.
    name: String,
    /// [`TaskLaunch::head_fold`] of its launches under `name`, taken once
    /// for the fault fingerprint of every one.
    head_fold: u64,
    /// Merged fused args as (canonical store index, partition, privilege),
    /// numbered by the flushed window's first-occurrence numbering, through
    /// which a replay resolves them. (A library kernel's arguments are its
    /// task's own, numbered by that task alone; its replays take the stores
    /// from the task.)
    args: Vec<(u32, PartitionId, Privilege)>,
    /// Per arg: `Some(access volume over the launch domain)` if the arg was
    /// demoted to a task-local temporary of that length, `None` if it is a
    /// region requirement.
    temp_volumes: Vec<Option<usize>>,
    /// Lengths of the generator-introduced locals, as the module was
    /// verified, optimized and priced on the miss that compiled it.
    generator_local_lens: Vec<usize>,
    /// The runtime's plan of the launch the miss issued. It is a function of
    /// the partitions, store shapes, privileges, store sharing, launch
    /// domain, module and local lengths — all fixed by the canonical window
    /// and the layout above — so it holds for every replay.
    plan: LaunchPlan,
}

impl Skeleton {
    /// Of `stores`, one per skeleton argument, the ones demoted to
    /// task-local temporaries.
    fn temps<'a>(
        &'a self,
        stores: impl Iterator<Item = StoreId> + 'a,
    ) -> impl Iterator<Item = StoreId> + 'a {
        stores.zip(&self.temp_volumes).filter_map(|(store, temp)| temp.map(|_| store))
    }
}

/// One fusible segment of a window's plan, the memo's value being the list
/// of them in window order.
#[derive(Debug, Clone)]
enum Segment {
    /// One task launched alone, through its library kernel.
    Alone,
    /// A fused launch of the skeleton's `len` tasks. `mask` holds Definition
    /// 4's conditions 1 and 2 per skeleton argument: functions of the
    /// canonical window, so every replay of the plan reads them unchanged.
    Fused { skeleton: Arc<Skeleton>, mask: TempMask },
}

impl Segment {
    /// The number of window tasks the segment launches.
    fn len(&self) -> usize {
        match self {
            Segment::Alone => 1,
            Segment::Fused { skeleton, .. } => skeleton.len,
        }
    }

    /// The segment with its skeleton's arguments renumbered through `index`.
    /// Renumbering reorders no argument, so the mask carries over.
    fn renumbered(&self, index: impl Fn(u32) -> u32) -> Segment {
        match self {
            Segment::Alone => Segment::Alone,
            Segment::Fused { skeleton, mask } => {
                let args = skeleton.args.iter().map(|&(ci, p, pr)| (index(ci), p, pr));
                let args = args.collect();
                let skeleton = Arc::new(Skeleton { args, ..Skeleton::clone(skeleton) });
                Segment::Fused { skeleton, mask: mask.clone() }
            }
        }
    }
}

/// Where a segment's liveness comes from: on a memo hit, the plan's entry;
/// on a miss, the window's sweep (`None` without kernel fusion, under which
/// nothing is demoted).
#[derive(Clone, Copy)]
enum Source<'a> {
    Hit(&'a Segment),
    Miss(Option<&'a WindowLiveness>),
}

/// Liveness work done on this thread, for the scale tests: calls of the
/// reference walk, and window tasks visited by the miss path's reverse
/// sweep and by its per-segment forward passes.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LivenessWork {
    reference_walks: u64,
    swept: u64,
    forward: u64,
}

#[cfg(test)]
thread_local! {
    static LIVENESS_WORK: std::cell::Cell<LivenessWork> =
        const { std::cell::Cell::new(LivenessWork { reference_walks: 0, swept: 0, forward: 0 }) };
}

#[cfg(test)]
fn count_liveness(add: impl FnOnce(&mut LivenessWork)) {
    LIVENESS_WORK.with(|work| {
        let mut counted = work.get();
        add(&mut counted);
        work.set(counted);
    });
}

/// Internal, mutable state of a [`Context`]. Exposed to the crate so that
/// [`StoreHandle`] can maintain the application reference counts.
#[derive(Debug)]
pub struct ContextInner {
    config: DiffuseConfig,
    runtime: Runtime,
    registry: GeneratorRegistry,
    window: TaskWindow,
    adaptive: AdaptiveWindow,
    /// Window plans keyed by the window as flushed, and their tails by its suffixes.
    memo: MemoCache<Arc<[Segment]>>,
    /// The library of pre-compiled per-task kernels the unfused baseline
    /// models: a one-task skeleton per one-task canonical form, whatever
    /// `enable_memoization` says.
    library: MemoCache<Arc<Skeleton>>,
    backend: Arc<dyn KernelBackend>,
    compile_model: CompileTimeModel,
    stats: ExecutionStats,
    stores: FnvHashMap<StoreId, StoreMeta>,
    /// Stores whose last application handle dropped since the last sweep.
    dead: Vec<StoreId>,
    next_store: u64,
    next_task: u64,
}

/// Deterministic content key of a kernel module for the [`FaultSite::Compile`]
/// fault site: the same module degrades identically wherever and whenever it
/// is compiled, keeping injected compile-fault schedules executor- and
/// window-permutation-invariant (the key is a pure function of the module,
/// like the launch fingerprint is of the launch). The fold is structural —
/// buffer roles, then per stage a kind tag and its operator tags, buffer and
/// value ids, and constants by bit pattern — so neither a loop's display name
/// nor a `Debug` derive can move it.
fn module_content_key(module: &KernelModule) -> u64 {
    fn ids(h: u64, tag: u64, ids: &[u32]) -> u64 {
        ids.iter().fold(fold_u64(h, tag), |h, &id| fold_u64(h, u64::from(id)))
    }
    let mut h = OFFSET;
    for role in &module.roles {
        h = fold_u64(h, *role as u64);
    }
    for stage in &module.stages {
        h = match stage {
            KernelStage::Loop(l) => {
                l.ops.iter().fold(ids(h, 0x10, &[l.domain.0]), |h, op| match *op {
                    LoopOp::Load { dst, buffer } => ids(h, 0x11, &[dst.0, buffer.0]),
                    LoopOp::LoadScalar { dst, buffer } => ids(h, 0x12, &[dst.0, buffer.0]),
                    LoopOp::Const { dst, value } => fold_u64(ids(h, 0x13, &[dst.0]), value.to_bits()),
                    LoopOp::Param { dst, index } => fold_u64(ids(h, 0x14, &[dst.0]), index as u64),
                    LoopOp::Unary { dst, op, a } => ids(h, 0x15, &[op as u32, dst.0, a.0]),
                    LoopOp::Binary { dst, op, a, b } => ids(h, 0x16, &[op as u32, dst.0, a.0, b.0]),
                    LoopOp::Store { buffer, src } => ids(h, 0x17, &[buffer.0, src.0]),
                    LoopOp::Reduce { buffer, op, src } => {
                        ids(h, 0x18, &[op as u32, buffer.0, src.0])
                    }
                })
            }
            KernelStage::Opaque(op) => match *op {
                OpaqueOp::SpMvCsr { pos, crd, vals, x, y, index_width } => {
                    ids(h, 0x20, &[pos.0, crd.0, vals.0, x.0, y.0, index_width as u32])
                }
                OpaqueOp::Gemv { a, x, y } => ids(h, 0x21, &[a.0, x.0, y.0]),
                OpaqueOp::Restrict { fine, coarse } => ids(h, 0x22, &[fine.0, coarse.0]),
                OpaqueOp::Prolong { coarse, fine } => ids(h, 0x23, &[coarse.0, fine.0]),
            },
        };
    }
    h
}

impl ContextInner {
    /// Registers a library namespace, creating its statistics entry.
    pub(crate) fn register_library(&mut self, name: &str) -> LibraryId {
        let id = self.registry.register_library(name);
        self.stats.per_library.push(LibraryStats {
            library: name.to_string(),
            ..Default::default()
        });
        id
    }

    /// Registers a named generator in a library (see [`Library::register`]).
    pub(crate) fn register_op<F>(
        &mut self,
        library: LibraryId,
        name: &str,
        signature: TaskSignature,
        generator: F,
    ) -> TaskKind
    where
        F: Fn(&GenArgs<'_>) -> KernelModule + Send + Sync + 'static,
    {
        self.registry.register_op_fn(library, name, signature, generator)
    }

    /// Looks up an operation by name within a library.
    pub(crate) fn lookup_op(&self, library: LibraryId, name: &str) -> Option<TaskKind> {
        self.registry.lookup(library, name)
    }

    /// Attributes one launch of `tasks` to their libraries: launch counts,
    /// cross-library participation, and the launch's simulated time split
    /// proportionally to each library's constituent-task count.
    fn attribute_launch(&mut self, tasks: &[IndexTask], elapsed_delta: f64) {
        let mut libraries: Vec<(u16, u32)> = Vec::new();
        for t in tasks {
            let lib = (t.kind >> 16) as u16;
            match libraries.iter_mut().find(|(l, _)| *l == lib) {
                Some((_, c)) => *c += 1,
                None => libraries.push((lib, 1)),
            }
        }
        let cross = libraries.len() > 1;
        if cross {
            self.stats.cross_library_fused_tasks += 1;
        }
        for (lib, count) in libraries {
            if let Some(ls) = self.stats.per_library.get_mut(lib as usize) {
                ls.launches += 1;
                if cross {
                    ls.cross_library_launches += 1;
                }
                ls.simulated_time += elapsed_delta * count as f64 / tasks.len().max(1) as f64;
            }
        }
    }

    pub(crate) fn add_app_ref(&mut self, id: StoreId) {
        if let Some(meta) = self.stores.get_mut(&id) {
            meta.app_refs += 1;
        }
    }

    pub(crate) fn drop_app_ref(&mut self, id: StoreId) {
        if let Some(meta) = self.stores.get_mut(&id) {
            meta.app_refs = meta.app_refs.saturating_sub(1);
            if meta.app_refs == 0 {
                self.dead.push(id);
            }
        }
    }

    /// Number of elements a (store, partition) argument touches over a launch
    /// domain: the volume of the bounding box of its sub-stores.
    fn access_volume(&self, store: StoreId, partition: &Partition, domain: &Domain) -> usize {
        partition.bounds_over(&self.stores[&store].shape, domain).volume() as usize
    }

    /// Ensures a store has a backing region, allocating it lazily.
    fn ensure_region(&mut self, store: StoreId) -> RegionId {
        let meta = self.stores.get_mut(&store).expect("unknown store");
        if let Some(r) = meta.region {
            return r;
        }
        let region = self.runtime.allocate_region(meta.shape.to_vec(), meta.name.clone());
        meta.region = Some(region);
        region
    }

    /// Retires the stores whose last handle dropped since the last sweep
    /// (`drop_app_ref` lists them): each leaves the map and frees its region,
    /// if it got one. Runs once the window has drained, so no pending task
    /// names them; a launch in flight holds its own handle to its regions.
    fn sweep_dead_stores(&mut self) {
        debug_assert!(self.window.is_empty(), "a sweep must not outrun the window");
        // Free in creation order: the order regions go back to the allocator
        // decides where the next ones land, and so whether a fresh context's
        // upload reuses freed pages or faults new ones in.
        self.dead.sort_unstable();
        for id in self.dead.drain(..) {
            if let Some(region) = self.stores.remove(&id).and_then(|m| m.region) {
                let _ = self.runtime.free_region(region);
            }
        }
    }

    /// The access volume of each of `task`'s arguments over its launch domain.
    fn arg_volumes(&self, task: &IndexTask) -> Vec<usize> {
        let volume = |a: &StoreArg| self.access_volume(a.store, &a.partition, &task.launch_domain);
        task.args.iter().map(volume).collect()
    }

    /// Generates one task's kernel module at `lens`, its arguments' access
    /// volumes ([`ContextInner::arg_volumes`]). Returns the module with every
    /// buffer's length: the arguments', then the task's largest argument
    /// volume for each generator-introduced local. A kind with no registered
    /// generator is an error for [`ContextInner::contain`].
    fn generate(
        &self,
        task: &IndexTask,
        mut lens: Vec<usize>,
    ) -> Result<(KernelModule, Vec<usize>), String> {
        let kind = TaskKind::decode(task.kind);
        let module = self
            .registry
            .generate(kind, &GenArgs { buffer_lens: &lens })
            .ok_or_else(|| format!("no generator registered for task kind {kind}"))?;
        let local_len = lens.iter().copied().max().unwrap_or(1);
        lens.resize(module.num_buffers() as usize, local_len);
        Ok((module, lens))
    }

    /// One-pass fusible segmentation of a flushed window (miss path only).
    /// Each split is counted by the constraint that failed; a true or anti
    /// dependence counts as `rejections_unknown`.
    fn classify_and_segment(&mut self, tasks: &[IndexTask]) -> Vec<usize> {
        let segments = fusible_segments_explained(tasks);
        for (_, violation) in &segments {
            let counter = match violation {
                None => continue,
                Some(FusionViolation::LaunchDomainMismatch { .. }) => {
                    &mut self.stats.rejections_domain_mismatch
                }
                Some(FusionViolation::Reduction { .. }) => &mut self.stats.rejections_reduction,
                Some(
                    FusionViolation::TrueDependence { .. } | FusionViolation::AntiDependence { .. },
                ) => &mut self.stats.rejections_unknown,
            };
            *counter += 1;
        }
        segments.into_iter().map(|(len, _)| len).collect()
    }

    /// Compiles a module into a launchable artifact. Simulation-only
    /// contexts never run functional work — the artifact is only priced
    /// through its module — so they skip real backend lowering and wrap
    /// with the interpreter regardless of the configured backend, whose
    /// `compile_cost` hook still prices the simulated JIT for the clock.
    ///
    /// Under an active fault plan, a [`FaultSite::Compile`] fault degrades
    /// the backend one step down the simd → interp chain
    /// (`BackendKind::fallback`): the injected failure's JIT work is still
    /// charged to `compile_time` before the interpreter takes over, and the
    /// interpreter is terminal (its "compilation" is a wrap that cannot
    /// fail). Faults are keyed by module content, so an identical module
    /// degrades identically under any executor, backend memoization state or
    /// window permutation — and the memoized skeleton (keyed by
    /// `(CanonicalWindow, backend)` through the per-context cache) simply
    /// carries the degraded tier's kernel.
    ///
    /// A module the backend rejects is an error for
    /// [`ContextInner::contain`], like a failed check.
    fn compile_artifact(
        &mut self,
        name: &str,
        module: &KernelModule,
    ) -> Result<Arc<dyn CompiledKernel>, String> {
        if !self.config.materialize_data {
            return Ok(kernel::compile_interp(module.clone()));
        }
        let failed = |e: kernel::ExecError| format!("kernel compilation of `{name}` failed: {e}");
        let plan = self.config.fault_plan.filter(|p| p.rate() > 0.0);
        if let (Some(plan), Some(fallback)) = (plan, self.config.backend.fallback()) {
            if plan.should_fault(FaultSite::Compile, module_content_key(module), 0) {
                self.stats.faults_injected += 1;
                self.stats.degraded_launches += 1;
                // The failed tier's JIT work is not free: it is paid for and
                // then thrown away, like a real compiler crash mid-build.
                self.stats.compile_time += self.backend.compile_cost(module, &self.compile_model);
                eprintln!(
                    "diffuse-chaos: compile of `{name}` degraded {} -> {} after an injected \
                     compile fault",
                    self.config.backend.id(),
                    fallback.id()
                );
                return fallback.backend().compile(module).map_err(failed);
            }
        }
        self.backend.compile(module).map_err(failed)
    }

    /// The one verification gate (`docs/VERIFY.md`): every check of the
    /// window pipeline passes through here. With verification off it does
    /// nothing; otherwise it runs `check`, counts the checks it performed
    /// into `verification_checks`, and renders a failure as
    /// `"{what}: {error}"` for [`ContextInner::contain`].
    fn verify<E: fmt::Display>(
        &mut self,
        what: fmt::Arguments<'_>,
        check: impl FnOnce(&mut Self) -> Result<usize, E>,
    ) -> Result<(), String> {
        if !self.config.enable_verification {
            return Ok(());
        }
        let checks = check(self).map_err(|e| format!("{what}: {e}"))?;
        self.stats.verification_checks += checks as u64;
        Ok(())
    }

    /// The checks on one generated task module (run through the gate): IR
    /// invariants at the concrete buffer lengths and consistency with the
    /// kind's declared [`TaskSignature`].
    fn check_task_module(
        &self,
        task: &IndexTask,
        module: &KernelModule,
        lens: &[usize],
    ) -> Result<usize, String> {
        use kernel::verify::{verify_against_signature, verify_module};
        let mut checks = verify_module(module, Some(lens))
            .map_err(|e| format!("IR invariant violated: {e}"))?;
        if let Some(sig) = self.registry.signature(TaskKind::decode(task.kind)) {
            checks += verify_against_signature(module, sig)
                .map_err(|e| format!("inconsistent with its declared signature: {e}"))?;
        }
        Ok(checks)
    }

    /// The one containment path: a check or a compile failed, so the launch
    /// it guarded never runs. With `verify_fail_fast` (the debug default, so
    /// test suites stop at the first broken invariant) that panics. Otherwise
    /// the failure becomes a structured [`RuntimeError::Verify`] recorded
    /// against `launch`: the launch's accesses poison their dependence cone,
    /// independent work proceeds, and the record is retrievable via
    /// [`Context::take_failures`].
    fn contain(
        &mut self,
        launch: &str,
        accesses: impl Iterator<Item = (StoreId, Privilege)>,
        detail: String,
    ) {
        if self.config.verify_fail_fast {
            panic!("diffuse-verify: {detail}");
        }
        eprintln!("diffuse-verify: contained: verification of `{launch}` failed: {detail}");
        let accesses: Vec<AccessSummary> = accesses
            .map(|(store, privilege)| {
                AccessSummary::from_privilege(self.ensure_region(store), privilege)
            })
            .collect();
        let error = RuntimeError::Verify {
            launch: launch.to_string(),
            detail,
        };
        self.runtime.poison_launch(launch, &accesses, error);
    }

    /// Flushes the whole buffered window (the `flush_window` operation of
    /// Figure 6): plan, lower and launch every segment. The window is
    /// probed once and set aside with its store numbering while its
    /// segments launch, then cleared once.
    fn flush_window(&mut self) {
        if let Err(detail) = self.pack_horizontally() {
            self.contain("horizontal-plan", std::iter::empty(), detail);
        }
        let mut window = std::mem::take(&mut self.window);
        if self.config.enable_task_fusion {
            self.run_plan(&window);
        } else {
            for task in window.tasks() {
                self.launch_alone(task);
            }
        }
        window.clear();
        self.window = window;
        self.stats.windows_flushed += 1;
        self.sweep_dead_stores();
    }

    /// Plan, once per flush: horizontal fusion. Segments the window
    /// vertically, packs independent equal-domain segments into launch groups
    /// and reorders the window so each group is contiguous; the steps then
    /// fuse every group into one wide launch, and the memo probe keys on the
    /// *permuted* canonical stream, so isomorphic batches replay the packed
    /// skeleton regardless of submission order. The planner's claims are
    /// re-checked independently — every group pairwise independent
    /// (write-disjoint with matching domains), the reorder never flipping a
    /// dependent pair — and a failed check leaves the window as submitted:
    /// the un-permuted window is always legal, so the plan degrades to
    /// vertical-only fusion rather than failing any launch.
    fn pack_horizontally(&mut self) -> Result<(), String> {
        let config = &self.config;
        if !config.enable_task_fusion || !config.enable_horizontal_fusion || self.window.len() < 2 {
            return Ok(());
        }
        let segments = fusible_segments(self.window.tasks());
        if segments.len() < 2 {
            return Ok(());
        }
        let plan = plan_horizontal(self.window.tasks(), &segments);
        if plan.is_identity() {
            return Ok(());
        }
        self.verify(
            format_args!("horizontal launch plan violates an independence invariant"),
            |this| fusion::verify_horizontal_plan(this.window.tasks(), &segments, &plan),
        )?;
        let permuted = plan.apply(self.window.tasks());
        self.verify(
            format_args!("horizontal reorder does not preserve the dependence order"),
            |this| fusion::verify_reorder(this.window.tasks(), &permuted),
        )?;
        self.stats.horizontally_fused_tasks += plan.merged_tasks();
        self.window.reorder(permuted);
        Ok(())
    }

    /// Plan, then lower and launch each segment of the flushed window. The
    /// flush's one memo probe is keyed on the window as flushed (so after the
    /// horizontal reorder). A hit runs the memoized plan and is re-memoized
    /// under its key only when a drifted segment recompiled; a miss segments
    /// the window once, sweeps it once for every segment's liveness mask, and
    /// is memoized if every segment launched.
    fn run_plan(&mut self, window: &TaskWindow) {
        let (tasks, numbering) = (window.tasks(), window.numbering());
        let memoize = self.config.enable_memoization;
        let hit = memoize.then(|| self.memo.probe(window).cloned()).flatten();
        let mut start = 0;
        let mut run = |this: &mut Self, len: usize, source: Source<'_>| {
            let ran = this.segment(tasks, start..start + len, numbering, source);
            this.adaptive.record(tasks.len() - start, len);
            start += len;
            ran
        };
        let Some(plan) = hit else {
            self.stats.memo_misses += u64::from(memoize);
            let lens = self.classify_and_segment(tasks);
            // Temporaries are eliminated by the kernel pipeline, so only
            // under kernel fusion.
            let liveness = self.config.enable_kernel_fusion.then(|| WindowLiveness::new(tasks));
            #[cfg(test)]
            count_liveness(|w| w.swept += liveness.as_ref().map_or(0, |_| tasks.len() as u64));
            let source = Source::Miss(liveness.as_ref());
            let ran: Vec<_> = lens.iter().map(|&len| run(self, len, source)).collect();
            // A window with a contained segment is not memoized.
            let plan: Option<Vec<Segment>> = ran.into_iter().collect();
            if let (true, Some(plan)) = (memoize, plan) {
                self.memoize(tasks, numbering, plan);
            }
            return;
        };
        self.stats.memo_hits += 1;
        let mut replanned: Option<Vec<Segment>> = None;
        for (i, cached) in plan.iter().enumerate() {
            let ran = run(self, cached.len(), Source::Hit(cached));
            let recompiled = |ran: &Segment| match (ran, cached) {
                (Segment::Fused { skeleton: new, .. }, Segment::Fused { skeleton: old, .. }) => {
                    !Arc::ptr_eq(new, old)
                }
                _ => false,
            };
            if let Some(new) = ran.filter(recompiled) {
                replanned.get_or_insert_with(|| plan.to_vec())[i] = new;
            }
        }
        if let Some(plan) = replanned {
            self.memo.insert(CanonicalWindow::from_numbering(tasks, numbering), plan.into());
        }
    }

    /// Memoizes a missed window's plan under the window and offers its tail
    /// under each suffix that starts at a segment boundary. Segmentation is
    /// greedy front to back and liveness looks only forward, so such a
    /// suffix, met later as a window of its own, plans as that tail: a
    /// stream whose steps straddle windows still replays. A suffix's
    /// skeletons are renumbered into its own first-occurrence numbering, and
    /// it takes only spare memo capacity ([`MemoCache::offer`]), so suffixes
    /// never evict the windows that flush.
    fn memoize(&mut self, tasks: &[IndexTask], numbering: &FingerprintState, plan: Vec<Segment>) {
        let plan: Arc<[Segment]> = plan.into();
        self.memo.insert(CanonicalWindow::from_numbering(tasks, numbering), Arc::clone(&plan));
        let mut start = 0;
        for i in 1..plan.len() {
            // An offer takes only spare capacity: with none, skip the work.
            if self.memo.len() >= self.memo.capacity() {
                break;
            }
            start += plan[i - 1].len();
            let suffix = &tasks[start..];
            let mut own = FingerprintState::new();
            suffix.iter().for_each(|task| _ = own.push(task));
            let index = |ci: u32| {
                let store = numbering.store_at(ci as usize);
                store.and_then(|s| own.index_of(s)).expect("a suffix segment's stores are in it")
            };
            let tail = plan[i..].iter().map(|s| s.renumbered(index)).collect();
            self.memo.offer(CanonicalWindow::from_numbering(suffix, &own), tail);
        }
    }

    /// Lowers and launches one segment, `tasks[range]`: alone, as a replay of
    /// its memoized skeleton, or compiled. Returns the segment as the plan
    /// keeps it, or `None` if it was contained.
    fn segment(
        &mut self,
        tasks: &[IndexTask],
        range: Range<usize>,
        numbering: &FingerprintState,
        source: Source<'_>,
    ) -> Option<Segment> {
        let (segment, pending) = (&tasks[range.clone()], &tasks[range.end..]);
        if segment.len() == 1 && !self.config.enable_kernel_fusion {
            // A singleton with no kernel-level optimization is just a task
            // launched alone.
            return self.launch_alone(&segment[0]).then_some(Segment::Alone);
        }
        let launched = match source {
            Source::Hit(Segment::Fused { skeleton, mask }) => {
                self.replay_or_recompile(segment, pending, numbering, skeleton, mask)
            }
            Source::Miss(liveness) => {
                let fused = FusedTask::build(segment.to_vec());
                let mask = match liveness {
                    Some(liveness) => liveness.mask(&fused, range.end),
                    None => TempMask::none(fused.args.len()),
                };
                #[cfg(test)]
                count_liveness(|w| w.forward += liveness.map_or(0, |_| segment.len() as u64));
                self.compile(fused, pending, numbering, mask)
            }
            Source::Hit(Segment::Alone) => {
                unreachable!("a plan launches a task alone only without kernel fusion")
            }
        };
        match launched {
            Ok(segment) => Some(segment),
            Err(detail) => {
                let fused = FusedTask::build(segment.to_vec());
                let accesses = fused.args.iter().map(|&(store, _, privilege)| (store, privilege));
                self.contain(&fused.name, accesses, detail);
                None
            }
        }
    }

    /// Definition 4's third condition on top of a plan's mask: whether the
    /// launch demotes `store`, its fused argument `i`, to a task-local
    /// temporary. Only a store whose bit is set is looked up.
    fn demotes(&self, mask: &TempMask, i: usize, store: StoreId) -> bool {
        mask.get(i) && self.stores.get(&store).is_none_or(|m| m.app_refs == 0)
    }

    /// A memo hit's segment: replayed if the mask minus the live handles is
    /// the skeleton's layout, else recompiled under the same mask. Neither
    /// walks the window.
    fn replay_or_recompile(
        &mut self,
        segment: &[IndexTask],
        pending: &[IndexTask],
        numbering: &FingerprintState,
        skeleton: &Arc<Skeleton>,
        mask: &TempMask,
    ) -> Result<Segment, String> {
        let store = |&(ci, ..): &(u32, PartitionId, Privilege)| numbering.store_at(ci as usize);
        let args = skeleton.args.iter().zip(&skeleton.temp_volumes);
        let drifted = args.enumerate().any(|(i, (arg, temp))| {
            store(arg).is_none_or(|s| self.demotes(mask, i, s) != temp.is_some())
        });
        if drifted {
            let fused = FusedTask::build(segment.to_vec());
            return self.compile(fused, pending, numbering, mask.clone());
        }
        let stores = skeleton.args.iter().map(|arg| store(arg).expect("resolved by the layout"));
        let demoted = stores.clone().zip(skeleton.temp_volumes.iter().map(Option::is_some));
        self.check_liveness(&skeleton.name, segment, pending, demoted)?;
        self.replay(segment, skeleton, stores, numbering)?;
        Ok(Segment::Fused { skeleton: Arc::clone(skeleton), mask: mask.clone() })
    }

    /// Lowers and launches `fused`, a missed or drifted segment, demoting
    /// the arguments its mask names minus those with a live handle.
    fn compile(
        &mut self,
        fused: FusedTask,
        pending: &[IndexTask],
        numbering: &FingerprintState,
        mask: TempMask,
    ) -> Result<Segment, String> {
        debug_assert_eq!(mask.len(), fused.args.len(), "`{}`", fused.name);
        let args = fused.args.iter().enumerate();
        let is_temp: Vec<bool> = args.map(|(i, &(s, ..))| self.demotes(&mask, i, s)).collect();
        let demoted = fused.args.iter().map(|a| a.0).zip(is_temp.iter().copied());
        self.check_liveness(&fused.name, &fused.tasks, pending, demoted)?;
        let (skeleton, launch) = self.lower(&fused, &is_temp, numbering)?;
        let demoted = skeleton.temps(fused.args.iter().map(|&(store, _, _)| store));
        self.launch(&fused.tasks, &launch, &skeleton.plan, Some(skeleton.head_fold), demoted);
        Ok(Segment::Fused { skeleton: Arc::new(skeleton), mask })
    }

    /// The verification gate's re-derivation of a segment's temporaries:
    /// `demoted` pairs each fused argument's store with whether the launch
    /// demotes it, and the set it names must be what the reference walk
    /// ([`temporary_stores`]) finds over the segment and the rest of the
    /// window. Without kernel fusion nothing is demoted and nothing checked.
    fn check_liveness(
        &mut self,
        name: &str,
        segment: &[IndexTask],
        pending: &[IndexTask],
        demoted: impl Iterator<Item = (StoreId, bool)>,
    ) -> Result<(), String> {
        if !self.config.enable_kernel_fusion {
            return Ok(());
        }
        self.verify(
            format_args!("liveness mask of `{name}` disagrees with Definition 4"),
            |this| {
                #[cfg(test)]
                count_liveness(|w| w.reference_walks += 1);
                let stores = &this.stores;
                let live = |s: StoreId| stores.get(&s).is_some_and(|m| m.app_refs > 0);
                let reference = temporary_stores(segment, pending, live);
                let masked = demoted.filter(|&(_, d)| d).map(|(s, _)| s);
                let masked: HashSet<StoreId> = masked.collect();
                if masked == reference {
                    Ok(1)
                } else {
                    Err(format!("the mask demotes {masked:?}, the walk {reference:?}"))
                }
            },
        )
    }

    /// Lower, miss side: composes every constituent's kernel in program
    /// order, optimizes the composite, remaps it into the launch tail's
    /// buffer layout and compiles it, returning the skeleton a replay
    /// relaunches together with the launch the miss issues, whose runtime
    /// plan the skeleton keeps. Each check — the prefix's translation
    /// validation (the fusion decision preserves every re-derived dependence
    /// edge; see `fusion::verify`), every constituent module against its
    /// signature, the optimized module and the lowered one — goes through the
    /// gate, and the first failure is returned for [`ContextInner::contain`].
    /// JIT time is charged through the backend's cost hook, priced from the
    /// composed, pre-optimization module (the backend lowers the whole
    /// pipeline input).
    fn lower(
        &mut self,
        fused: &FusedTask,
        is_temp: &[bool],
        numbering: &FingerprintState,
    ) -> Result<(Skeleton, TaskLaunch), String> {
        self.verify(
            format_args!("planned fused prefix violates a dependence invariant"),
            |_| fusion::verify_fused_prefix(&fused.tasks),
        )?;
        let num_args = fused.args.len();
        let mut module = KernelModule::new(num_args as u32);
        for (i, &(_, _, privilege)) in fused.args.iter().enumerate() {
            let role = match privilege {
                _ if is_temp[i] => BufferRole::Local,
                p if p.reduces() => BufferRole::Reduction,
                p if p.writes() && p.reads() => BufferRole::InOut,
                p if p.writes() => BufferRole::Output,
                _ => BufferRole::Input,
            };
            module.set_role(BufferId(i as u32), role);
        }
        // Buffer lengths: the fused args' access volumes, then one per
        // generator-introduced local.
        let mut lens: Vec<usize> = fused
            .args
            .iter()
            .map(|(s, p, _)| self.access_volume(*s, p, &fused.launch_domain))
            .collect();
        let mut scalar_offset = 0;
        for (task, arg_map) in fused.tasks.iter().zip(&fused.arg_map) {
            // Each constituent is generated at its arguments' fused volumes
            // (same store, partition and launch domain) and checked against
            // them before it is composed.
            let arg_lens: Vec<usize> = arg_map.iter().map(|&i| lens[i]).collect();
            debug_assert_eq!(arg_lens, self.arg_volumes(task), "`{}`", task.name);
            let (mut body, task_lens) = self.generate(task, arg_lens)?;
            self.verify(format_args!("kernel of `{}`", task.name), |this| {
                this.check_task_module(task, &body, &task_lens)
            })?;
            body.offset_params(scalar_offset);
            scalar_offset += task.scalars.len();
            // Generator buffers 0..args -> fused arg positions; generator
            // locals -> fresh locals in the fused module.
            let mut map: Vec<BufferId> = arg_map.iter().map(|&i| BufferId(i as u32)).collect();
            for &len in &task_lens[task.args.len()..] {
                map.push(module.add_local());
                lens.push(len);
            }
            module.append(body.remap_buffers(&map));
        }
        self.stats.compile_time += self.backend.compile_cost(&module, &self.compile_model);
        self.stats.compilations += 1;
        let pipeline = if self.config.enable_kernel_fusion {
            PipelineConfig::default()
        } else {
            PipelineConfig {
                parallelize: true,
                ..PipelineConfig::disabled()
            }
        };
        let module = Pipeline::new(pipeline).run(module, &lens).module;
        self.verify(
            format_args!("optimized module of `{}` violates an IR invariant", fused.name),
            |_| kernel::verify::verify_module(&module, Some(&lens)),
        )?;
        // Into the launch tail's buffer layout: non-temporary args, then
        // temporary args, then generator-introduced locals.
        let layout = (0..num_args)
            .filter(|&i| !is_temp[i])
            .chain((0..num_args).filter(|&i| is_temp[i]))
            .chain(num_args..lens.len());
        let mut remap = vec![BufferId(0); lens.len()];
        for (slot, buffer) in layout.enumerate() {
            remap[buffer] = BufferId(slot as u32);
        }
        let module = module.remap_buffers(&remap);
        // The launch-layout module is what the backend actually lowers.
        let backend = self.config.backend;
        self.verify(
            format_args!("{backend:?} lowering of `{}` violates an invariant", fused.name),
            |_| kernel::verify::verify_lowering(&module, backend),
        )?;
        let kernel = self.compile_artifact(&fused.name, &module)?;
        let args = fused.args.iter().zip(is_temp.iter().zip(&lens));
        let args = args.map(|(&(s, p, pr), (&t, &len))| (s, p, pr, t.then_some(len))).collect();
        let (name, locals) = (fused.name.clone(), lens[num_args..].to_vec());
        Ok(self.skeleton(&fused.tasks, kernel, name, args, numbering, locals))
    }

    /// Lower, library side: a task's own module, checked and compiled, as a
    /// one-task skeleton over its verbatim (un-merged) arguments. It charges
    /// no compile time and counts no compilation: only fused windows pay the
    /// JIT, as in the paper.
    fn library_kernel(&mut self, task: &IndexTask) -> Result<(Skeleton, TaskLaunch), String> {
        let (module, lens) = self.generate(task, self.arg_volumes(task))?;
        self.verify(format_args!("kernel of `{}`", task.name), |this| {
            this.check_task_module(task, &module, &lens)
        })?;
        let backend = self.config.backend;
        self.verify(
            format_args!("{backend:?} lowering of `{}` violates an invariant", task.name),
            |_| kernel::verify::verify_lowering(&module, backend),
        )?;
        let kernel = self.compile_artifact(&task.name, &module)?;
        let args = task.args.iter().map(|a| (a.store, a.partition, a.privilege, None)).collect();
        let locals = lens[task.args.len()..].to_vec();
        let mut own = FingerprintState::new();
        own.push(task);
        let tasks = std::slice::from_ref(task);
        Ok(self.skeleton(tasks, kernel, task.name.clone(), args, &own, locals))
    }

    /// The one skeleton builder (fused miss and library build): the launch
    /// of `tasks` through `kernel` over `args` (each `Some(volume)` if
    /// demoted to a task-local temporary), its plan, and the skeleton keeping
    /// both with `args` numbered by `numbering`. The launch is the skeleton's
    /// first; later ones are [`ContextInner::replay_launch`]es.
    fn skeleton(
        &mut self,
        tasks: &[IndexTask],
        kernel: Arc<dyn CompiledKernel>,
        name: String,
        args: Vec<(StoreId, PartitionId, Privilege, Option<usize>)>,
        numbering: &FingerprintState,
        locals: Vec<usize>,
    ) -> (Skeleton, TaskLaunch) {
        let resolved = args.iter().copied();
        let launch = self.task_launch(tasks, Arc::clone(&kernel), name.clone(), resolved, &locals);
        let plan = self.runtime.plan(&launch).expect("a context launch names live regions");
        let canonical = |s| numbering.index_of(s).expect("a launch's stores are in its window");
        let skeleton = Skeleton {
            len: tasks.len(),
            kernel,
            name,
            head_fold: launch.head_fold(),
            args: args.iter().map(|&(s, p, pr, _)| (canonical(s), p, pr)).collect(),
            temp_volumes: args.iter().map(|&(.., temp)| temp).collect(),
            generator_local_lens: locals,
            plan,
        };
        (skeleton, launch)
    }

    /// Lower, replay side: a memo hit relaunches its skeleton, after the same
    /// translation validation as a miss plus `verify_skeleton` — the
    /// replayed structure must match the segment under the window's
    /// numbering, so a fingerprint collision is caught here by construction.
    /// No fused task is built, no access volume computed and no name
    /// assembled.
    fn replay(
        &mut self,
        segment: &[IndexTask],
        skeleton: &Skeleton,
        stores: impl Iterator<Item = StoreId> + Clone,
        numbering: &FingerprintState,
    ) -> Result<(), String> {
        self.verify(
            format_args!("planned fused prefix violates a dependence invariant"),
            |_| fusion::verify_fused_prefix(segment),
        )?;
        let name = &skeleton.name;
        self.verify(
            format_args!("memo-replayed skeleton `{name}` does not match the probe window"),
            |_| fusion::verify_skeleton(segment, |s| numbering.index_of(s), &skeleton.args),
        )?;
        self.replay_launch(segment, skeleton, stores, None)
    }

    /// Launches one task alone through its library kernel, keeping its own
    /// name. The one-task canonical form fixes the module and the plan
    /// (privileges, which arguments share a store), so the exact key match
    /// is the structural check: `verify_skeleton` re-derives *merged*
    /// arguments and would reject `dot(x, x)`. Returns whether it launched
    /// (otherwise it was contained).
    fn launch_alone(&mut self, task: &IndexTask) -> bool {
        let tasks = std::slice::from_ref(task);
        let launched = match self.library.probe_tasks(tasks).cloned() {
            Some(skeleton) => {
                let stores = task.args.iter().map(|a| a.store);
                self.replay_launch(tasks, &skeleton, stores, Some(task.name.clone()))
            }
            None => self.library_kernel(task).map(|(skeleton, launch)| {
                let head_fold = Some(skeleton.head_fold);
                self.launch(tasks, &launch, &skeleton.plan, head_fold, std::iter::empty());
                self.library.insert(CanonicalWindow::new(tasks), Arc::new(skeleton));
            }),
        };
        let Err(detail) = launched else { return true };
        let accesses = task.args.iter().map(|a| (a.store, a.privilege));
        self.contain(&task.name, accesses, detail);
        false
    }

    /// Every launch of a skeleton but its first: `tasks` named `name` (the
    /// skeleton's own if `None`), the arguments resolved to `stores`, under
    /// the skeleton's plan, which the gate re-derives from this launch (with
    /// verification off, nothing).
    fn replay_launch(
        &mut self,
        tasks: &[IndexTask],
        skeleton: &Skeleton,
        stores: impl Iterator<Item = StoreId> + Clone,
        name: Option<String>,
    ) -> Result<(), String> {
        let (name, head_fold) = match name {
            Some(name) => (name, None),
            None => (skeleton.name.clone(), Some(skeleton.head_fold)),
        };
        let args = skeleton
            .args
            .iter()
            .zip(stores.clone())
            .zip(&skeleton.temp_volumes)
            .map(|((&(_, part, privilege), store), &temp)| (store, part, privilege, temp));
        let kernel = Arc::clone(&skeleton.kernel);
        let launch = self.task_launch(tasks, kernel, name, args, &skeleton.generator_local_lens);
        let plan = &skeleton.plan;
        self.verify(
            format_args!("memoized launch plan of `{}` does not match its replay", launch.name),
            |this| match this.runtime.plan(&launch).map_err(|e| e.to_string())? {
                fresh if fresh == *plan => Ok(1),
                fresh => Err(format!("memoized {plan:?}, re-derived {fresh:?}")),
            },
        )?;
        self.launch(tasks, &launch, &skeleton.plan, head_fold, skeleton.temps(stores));
        Ok(())
    }

    /// Launch, first half, shared by every path (library kernel, compiled
    /// prefix, replay): the runtime launch of `tasks`. Splits the
    /// resolved arguments into region requirements and task-local
    /// temporaries (`Some(volume)` marks a temporary and gives its buffer
    /// length), appends the generator-introduced locals and gathers the
    /// constituent tasks' scalars.
    fn task_launch(
        &mut self,
        tasks: &[IndexTask],
        kernel: Arc<dyn CompiledKernel>,
        name: String,
        args: impl Iterator<Item = (StoreId, PartitionId, Privilege, Option<usize>)>,
        generator_local_lens: &[usize],
    ) -> TaskLaunch {
        // Buffer layout (what `lower` remaps a module into): region
        // requirements, then temporaries, then generator-introduced locals.
        let mut requirements = Vec::new();
        let mut local_buffer_lens = Vec::new();
        for (store, partition, privilege, temp_volume) in args {
            match temp_volume {
                None => {
                    let region = self.ensure_region(store);
                    requirements.push(RegionRequirement::new(region, partition, privilege));
                }
                Some(volume) => local_buffer_lens.push(volume.max(1)),
            }
        }
        local_buffer_lens.extend(generator_local_lens.iter().map(|&len| len.max(1)));
        TaskLaunch {
            name,
            launch_domain: tasks[0].launch_domain.clone(),
            requirements,
            kernel,
            scalars: tasks.iter().flat_map(|t| t.scalars.iter().copied()).collect(),
            local_buffer_lens,
            overhead: OverheadClass::TaskRuntime,
        }
    }

    /// Launch, second half: the one tail of every path. Executes `launch`
    /// under `plan` and books it as `tasks.len()` tasks, with `temps` the
    /// stores it demoted to task-local temporaries. `head_fold` is the
    /// launch's [`TaskLaunch::head_fold`] when a skeleton keeps it. Only a
    /// launch that runs is booked: a replay whose checks fail stops before
    /// this.
    fn launch(
        &mut self,
        tasks: &[IndexTask],
        launch: &TaskLaunch,
        plan: &LaunchPlan,
        head_fold: Option<u64>,
        temps: impl Iterator<Item = StoreId>,
    ) {
        for store in temps {
            self.stats.temporaries_eliminated += 1;
            if self.stores[&store].region.is_none() {
                self.stats.distributed_allocations_avoided += 1;
            }
        }
        let t0 = self.runtime.elapsed();
        let executed = match head_fold {
            Some(head) => self.runtime.execute_planned_after_head(launch, plan, head),
            None => self.runtime.execute_planned(launch, plan),
        };
        executed.expect("launch failed");
        let delta = self.runtime.elapsed() - t0;
        self.stats.tasks_launched += 1;
        if tasks.len() > 1 {
            self.stats.fused_tasks += 1;
        }
        self.attribute_launch(tasks, delta);
    }
}

/// Debug-build launch validation: checks a builder-produced launch against
/// the operation's declared [`TaskSignature`] so malformed launches fail at
/// submission — with the qualified op name in the message — rather than
/// inside the kernel pipeline.
#[cfg(debug_assertions)]
fn validate_against_signature(
    registry: &GeneratorRegistry,
    kind: TaskKind,
    args: &[StoreArg],
    scalars: &[f64],
) {
    use kernel::ArgSpec;
    let Some(sig) = registry.signature(kind) else {
        return;
    };
    let qualified = registry
        .qualified_name(kind)
        .unwrap_or_else(|| kind.to_string());
    assert_eq!(
        args.len(),
        sig.args().len(),
        "`{qualified}` expects {} store arguments, launch provides {}",
        sig.args().len(),
        args.len()
    );
    for (i, (arg, spec)) in args.iter().zip(sig.args()).enumerate() {
        let matches = match spec {
            ArgSpec::Read => arg.privilege == Privilege::Read,
            ArgSpec::Write => arg.privilege == Privilege::Write,
            ArgSpec::ReadWrite => arg.privilege == Privilege::ReadWrite,
            ArgSpec::Reduce => arg.privilege.reduces(),
        };
        assert!(
            matches,
            "argument {i} of `{qualified}`: signature declares {spec:?} but the launch \
             passes privilege {}",
            arg.privilege
        );
    }
    assert_eq!(
        scalars.len(),
        sig.num_scalars(),
        "`{qualified}` expects {} scalar parameter(s), launch provides {}",
        sig.num_scalars(),
        scalars.len()
    );
}

/// The Diffuse context: the handle applications and libraries use to create
/// stores, register generators and submit index tasks.
///
/// Cloning a `Context` is cheap (it is a shared reference to the same
/// underlying state), which lets library types such as the dense library's
/// arrays carry the context around.
#[derive(Clone, Debug)]
pub struct Context {
    inner: Rc<RefCell<ContextInner>>,
}

impl Context {
    /// Creates a context over the given configuration.
    pub fn new(config: DiffuseConfig) -> Self {
        // Every runtime knob comes from the Diffuse config, which has already
        // read the environment. Fault injection and recovery are pushed down
        // with the rest: the runtime injects device/region faults per launch,
        // while the compile site is handled in this layer's backend
        // degradation chain.
        let runtime_config = RuntimeConfig {
            machine: config.machine.clone(),
            materialize_data: config.materialize_data,
            executor: config.executor,
            backend: config.backend,
            fault_plan: config.fault_plan,
            recovery: config.recovery,
        };
        let inner = ContextInner {
            adaptive: AdaptiveWindow::new(
                config.initial_window_size.max(1),
                config.max_window_size.max(config.initial_window_size.max(1)),
            ),
            runtime: Runtime::new(runtime_config),
            registry: GeneratorRegistry::new(),
            window: TaskWindow::new(),
            memo: MemoCache::with_capacity_limit(config.memo_capacity.max(1)),
            library: MemoCache::new(),
            backend: config.backend.backend(),
            compile_model: CompileTimeModel::default(),
            stats: ExecutionStats::default(),
            stores: FnvHashMap::default(),
            dead: Vec::new(),
            next_store: 0,
            next_task: 0,
            config,
        };
        Context {
            inner: Rc::new(RefCell::new(inner)),
        }
    }

    /// Number of GPUs in the simulated machine.
    pub fn gpus(&self) -> usize {
        self.inner.borrow().runtime.gpus()
    }

    /// The configuration the context was created with.
    pub fn config(&self) -> DiffuseConfig {
        self.inner.borrow().config.clone()
    }

    /// Registers a library namespace (library developers only — see
    /// Section 6.2 and `docs/LIBRARIES.md`). Operations are then registered
    /// through the returned [`Library`], which scopes their [`TaskKind`]s to
    /// this library so independently written libraries never collide.
    pub fn register_library(&self, name: &str) -> Library {
        let id = self.inner.borrow_mut().register_library(name);
        Library {
            id,
            name: name.to_string(),
            inner: Rc::clone(&self.inner),
        }
    }

    /// Starts chained registration of a library and its operations:
    /// `ctx.library("stencil").op("star5", sig, gen).build()`.
    pub fn library(&self, name: &str) -> LibraryBuilder {
        LibraryBuilder::new(self.register_library(name))
    }

    /// Starts a typed launch of `kind`:
    /// `ctx.task(kind).read(&x, px).write(&y, py).scalar(alpha).launch()`.
    ///
    /// The builder validates the launch against the operation's declared
    /// [`TaskSignature`] at submission (see [`LaunchBuilder`]).
    pub fn task(&self, kind: TaskKind) -> LaunchBuilder {
        LaunchBuilder::new(self.clone(), kind)
    }

    /// Creates a distributed store with the given shape. The backing region is
    /// allocated lazily on first use, so stores that only ever exist as fused
    /// temporaries never allocate distributed memory.
    pub fn create_store(&self, shape: Vec<u64>, name: &str) -> StoreHandle {
        let mut inner = self.inner.borrow_mut();
        let id = StoreId(inner.next_store);
        inner.next_store += 1;
        inner.stores.insert(
            id,
            StoreMeta {
                shape: ShapeId::intern(&shape),
                name: name.to_string(),
                region: None,
                app_refs: 1,
            },
        );
        StoreHandle {
            id,
            shape,
            inner: Rc::clone(&self.inner),
        }
    }

    /// Fills a store with a constant value (flushes pending tasks first to
    /// preserve program order).
    pub fn fill(&self, store: &StoreHandle, value: f64) {
        self.flush();
        let mut inner = self.inner.borrow_mut();
        let region = inner.ensure_region(store.id);
        inner.runtime.fill(region, value).expect("fill failed");
    }

    /// Overwrites a store's contents with row-major data (host initialization,
    /// no simulated cost). Flushes pending tasks first.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the store volume.
    pub fn write_store(&self, store: &StoreHandle, data: Vec<f64>) {
        self.flush();
        let mut inner = self.inner.borrow_mut();
        let region = inner.ensure_region(store.id);
        inner
            .runtime
            .write_region_data(region, data)
            .expect("write failed");
    }

    /// Reads back a store's contents (functional mode only). Flushes pending
    /// tasks (and any in-flight parallel launches) first.
    ///
    /// # Panics
    ///
    /// Panics if a deferred launch failed while neither fault injection nor
    /// contained verification is active: with no fault layer in play,
    /// context-generated kernels failing is a bug, not a recoverable
    /// condition. With containment active, failed cones leave their outputs
    /// untouched, surviving stores read back normally, and the per-launch
    /// records are retrievable via [`Context::take_failures`].
    pub fn read_store(&self, store: &StoreHandle) -> Option<Vec<f64>> {
        self.flush();
        let mut inner = self.inner.borrow_mut();
        let region = inner.ensure_region(store.id);
        if let Err(e) = inner.runtime.flush_launches() {
            // The runtime keeps the per-launch records until `take_failures`.
            let contained =
                inner.runtime.fault_plan().is_some() || !inner.config.verify_fail_fast;
            assert!(contained, "deferred launch failed: {e}");
        }
        inner.runtime.region_data(region)
    }

    /// Reads element 0 of a store as a scalar (functional mode only).
    pub fn read_scalar(&self, store: &StoreHandle) -> Option<f64> {
        self.read_store(store).and_then(|d| d.first().copied())
    }

    /// Submits an index task built from a task kind, launch arguments and
    /// scalars. The task is buffered in the window; the window is analyzed
    /// and flushed automatically once it reaches the adaptive window size.
    ///
    /// This is the **low-level escape hatch** under the typed
    /// [`Context::task`] builder: no name defaulting and no signature
    /// validation happen here. Library and application code should use the
    /// builder; this entry point exists for harnesses that need to compare
    /// against builder-produced launches (they are bit-identical — see
    /// `crates/core/tests/launch_builder.rs`).
    ///
    /// # Panics
    ///
    /// Panics ("unknown store") if an argument names a store that is not live
    /// here, such as one whose last handle dropped before a window flush.
    pub fn submit(
        &self,
        kind: TaskKind,
        name: &str,
        args: Vec<StoreArg>,
        scalars: Vec<f64>,
    ) -> TaskId {
        self.submit_task(kind, name.to_string(), None, args, scalars)
    }

    /// Submission endpoint of the typed [`LaunchBuilder`]: resolves the
    /// default name from the registry, validates the launch against the
    /// operation's declared signature, and buffers the task.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not registered on this context; in debug builds,
    /// also panics on any arity/role/privilege disagreement with the
    /// registered [`TaskSignature`].
    pub(crate) fn submit_built(
        &self,
        kind: TaskKind,
        name: Option<String>,
        domain: Option<Domain>,
        args: Vec<StoreArg>,
        scalars: Vec<f64>,
    ) -> TaskId {
        let name = {
            let inner = self.inner.borrow();
            let registry = &inner.registry;
            let registered = registry.name(kind).unwrap_or_else(|| {
                panic!(
                    "task kind {kind} is not registered on this context \
                     (register it through Context::register_library)"
                )
            });
            #[cfg(debug_assertions)]
            validate_against_signature(registry, kind, &args, &scalars);
            name.unwrap_or_else(|| registered.to_string())
        };
        self.submit_task(kind, name, domain, args, scalars)
    }

    /// The one submission tail of [`Context::submit`] and the builder: the
    /// task's id and default launch domain (one point per GPU; libraries
    /// express the decomposition through partitions), then the window.
    fn submit_task(
        &self,
        kind: TaskKind,
        name: String,
        domain: Option<Domain>,
        args: Vec<StoreArg>,
        scalars: Vec<f64>,
    ) -> TaskId {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let id = TaskId(inner.next_task);
        inner.next_task += 1;
        let launch_domain = domain.unwrap_or_else(|| Domain::linear(inner.runtime.gpus() as u64));
        let mut task = IndexTask::new(id, kind.encode(), name, launch_domain, args, scalars);
        // Stamp every argument with its store's interned shape: from here on
        // the analyses (fingerprinting, canonicalization, temporary
        // elimination) read shapes straight off the arguments.
        for arg in &mut task.args {
            let meta = inner
                .stores
                .get(&arg.store)
                .unwrap_or_else(|| panic!("submit references unknown store {}", arg.store));
            arg.shape = meta.shape;
        }
        inner.stats.tasks_submitted += 1;
        let lib = (task.kind >> 16) as usize;
        if let Some(ls) = inner.stats.per_library.get_mut(lib) {
            ls.tasks_submitted += 1;
        }
        inner.window.push(task);
        if inner.window.len() >= inner.adaptive.size() {
            inner.flush_window();
        }
        id
    }

    /// Explains the currently buffered (unflushed) task window: the fusible
    /// segmentation plus, per split boundary, the violated constraint and a
    /// suggestion that would admit fusion ([`fusion::explain_window`]).
    /// Purely observational — the window is neither flushed nor reordered.
    /// See `examples/explain.rs`.
    pub fn explain(&self) -> fusion::WindowReport {
        fusion::explain_window(self.inner.borrow().window.tasks())
    }

    /// Flushes the task window: analyzes and launches every buffered task
    /// (the `flush_window` operation of Figure 6).
    pub fn flush(&self) {
        let mut inner = self.inner.borrow_mut();
        if !inner.window.is_empty() {
            inner.flush_window();
        }
    }

    /// Execution statistics accumulated so far, including the per-library
    /// attribution ([`ExecutionStats::per_library`]) and the fault/recovery
    /// counters (the runtime's device/region fault attribution merged with
    /// this layer's compile-degradation accounting).
    pub fn stats(&self) -> ExecutionStats {
        let inner = self.inner.borrow();
        let mut stats = inner.stats.clone();
        stats.current_window_size = inner.adaptive.size() as u64;
        stats.memo_evictions = inner.memo.evictions();
        let fs = inner.runtime.fault_stats();
        stats.faults_injected += fs.faults_injected;
        stats.retries += fs.retries;
        stats.degraded_launches += fs.degraded_launches;
        stats.abandoned_launches += fs.abandoned_launches;
        stats.recovery_sim_time += fs.recovery_sim_time;
        stats
    }

    /// Drains the per-launch failure records accumulated by fault injection
    /// and contained verification errors: each record names the launch and
    /// carries the structured [`RuntimeError`] that felled it (the cone
    /// downstream of a failure appears as `RuntimeError::Poisoned` entries).
    /// Pending work is flushed first so in-flight failures are visible.
    /// Empty unless a fault plan is active or `verify_fail_fast` is off —
    /// recovery repairs faults without abandoning launches, so under the
    /// default policy this stays empty even with injection on.
    pub fn take_failures(&self) -> Vec<LaunchFailure> {
        self.flush();
        let mut inner = self.inner.borrow_mut();
        // The records carry strictly more detail than the first-error
        // summary the flush returns.
        let _ = inner.runtime.flush_launches();
        inner.runtime.take_failures()
    }

    /// The runtime's execution profile.
    pub fn profile(&self) -> Profile {
        *self.inner.borrow().runtime.profile()
    }

    /// Simulated seconds elapsed on the machine.
    pub fn elapsed(&self) -> f64 {
        self.inner.borrow().runtime.elapsed()
    }

    /// Resets the simulated clock and runtime profile, e.g. after warmup
    /// iterations. Diffuse's own statistics (compile time, fusion counts) are
    /// preserved.
    pub fn reset_timing(&self) {
        self.flush();
        self.inner.borrow_mut().runtime.reset_timing();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::{Privilege, Projection, ReductionOp};
    use kernel::LoopBuilder;
    use machine::MachineConfig;

    /// Registers an elementwise binary-add generator and returns its kind.
    fn register_add(ctx: &Context) -> TaskKind {
        register_counted_add(ctx, Arc::default())
    }

    /// [`register_add`] with a generator that counts its calls in `calls`.
    fn register_counted_add(
        ctx: &Context,
        calls: Arc<std::sync::atomic::AtomicUsize>,
    ) -> TaskKind {
        let lib = ctx.register_library("adds");
        lib.register(
            "add",
            TaskSignature::new().read().read().write(),
            move |_args| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let mut m = KernelModule::new(3);
                m.set_role(BufferId(2), BufferRole::Output);
                let mut b = LoopBuilder::new("add", BufferId(2));
                let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
                let s = b.add(x, y);
                b.store(BufferId(2), s);
                m.push_loop(b.finish());
                m
            },
        )
    }

    fn register_scale(ctx: &Context) -> TaskKind {
        let lib = ctx.register_library("scales");
        lib.register(
            "scale",
            TaskSignature::new().read().write().scalars(1),
            |_args| {
                let mut m = KernelModule::new(2);
                m.set_role(BufferId(1), BufferRole::Output);
                let mut b = LoopBuilder::new("scale", BufferId(1));
                let x = b.load(BufferId(0));
                let s = b.param(0);
                let v = b.mul(x, s);
                b.store(BufferId(1), v);
                m.push_loop(b.finish());
                m
            },
        )
    }

    fn ctx_with_gpus(gpus: usize) -> Context {
        Context::new(DiffuseConfig::fused(MachineConfig::with_gpus(gpus)))
    }

    fn block(n: u64, gpus: u64) -> Partition {
        Partition::block(vec![n.div_ceil(gpus)])
    }

    #[test]
    fn fused_chain_executes_correctly_and_launches_once() {
        let ctx = ctx_with_gpus(4);
        let add = register_add(&ctx);
        let n = 64u64;
        let p = block(n, 4);
        let a = ctx.create_store(vec![n], "a");
        let b = ctx.create_store(vec![n], "b");
        let c = ctx.create_store(vec![n], "c");
        let d = ctx.create_store(vec![n], "d");
        ctx.fill(&a, 1.0);
        ctx.fill(&b, 2.0);
        let ew = |x: &StoreHandle, y: &StoreHandle, o: &StoreHandle| {
            vec![
                StoreArg::new(x.id(), p.clone(), Privilege::Read),
                StoreArg::new(y.id(), p.clone(), Privilege::Read),
                StoreArg::new(o.id(), p.clone(), Privilege::Write),
            ]
        };
        ctx.submit(add, "add", ew(&a, &b, &c), vec![]);
        ctx.submit(add, "add", ew(&c, &a, &d), vec![]);
        ctx.flush();
        assert_eq!(ctx.read_store(&d).unwrap(), vec![4.0; 64]);
        let stats = ctx.stats();
        assert_eq!(stats.tasks_submitted, 2);
        assert_eq!(stats.tasks_launched, 1);
        assert_eq!(stats.fused_tasks, 1);
    }

    #[test]
    fn unfused_config_launches_every_task() {
        let ctx = Context::new(DiffuseConfig::unfused(MachineConfig::with_gpus(4)));
        let add = register_add(&ctx);
        let n = 64u64;
        let p = block(n, 4);
        let a = ctx.create_store(vec![n], "a");
        let b = ctx.create_store(vec![n], "b");
        let c = ctx.create_store(vec![n], "c");
        let d = ctx.create_store(vec![n], "d");
        ctx.fill(&a, 1.0);
        ctx.fill(&b, 2.0);
        let ew = |x: &StoreHandle, y: &StoreHandle, o: &StoreHandle| {
            vec![
                StoreArg::new(x.id(), p.clone(), Privilege::Read),
                StoreArg::new(y.id(), p.clone(), Privilege::Read),
                StoreArg::new(o.id(), p.clone(), Privilege::Write),
            ]
        };
        ctx.submit(add, "add", ew(&a, &b, &c), vec![]);
        ctx.submit(add, "add", ew(&c, &a, &d), vec![]);
        ctx.flush();
        assert_eq!(ctx.read_store(&d).unwrap(), vec![4.0; 64]);
        let stats = ctx.stats();
        assert_eq!(stats.tasks_launched, 2);
        assert_eq!(stats.fused_tasks, 0);
        assert_eq!(stats.compile_time, 0.0);
    }

    #[test]
    fn fused_and_unfused_agree_numerically() {
        let run = |config: DiffuseConfig| {
            let ctx = Context::new(config);
            let add = register_add(&ctx);
            let scale = register_scale(&ctx);
            let n = 32u64;
            let p = block(n, 4);
            let a = ctx.create_store(vec![n], "a");
            let b = ctx.create_store(vec![n], "b");
            let out = ctx.create_store(vec![n], "out");
            ctx.write_store(&a, (0..n).map(|i| i as f64).collect());
            ctx.fill(&b, 3.0);
            // t = a + b; out = 0.5 * t, with t dropped (temporary).
            let t = ctx.create_store(vec![n], "t");
            ctx.submit(
                add,
                "add",
                vec![
                    StoreArg::new(a.id(), p.clone(), Privilege::Read),
                    StoreArg::new(b.id(), p.clone(), Privilege::Read),
                    StoreArg::new(t.id(), p.clone(), Privilege::Write),
                ],
                vec![],
            );
            ctx.submit(
                scale,
                "scale",
                vec![
                    StoreArg::new(t.id(), p.clone(), Privilege::Read),
                    StoreArg::new(out.id(), p.clone(), Privilege::Write),
                ],
                vec![0.5],
            );
            drop(t);
            ctx.flush();
            ctx.read_store(&out).unwrap()
        };
        let fused = run(DiffuseConfig::fused(MachineConfig::with_gpus(4)));
        let unfused = run(DiffuseConfig::unfused(MachineConfig::with_gpus(4)));
        assert_eq!(fused, unfused);
        assert_eq!(fused[2], (2.0 + 3.0) * 0.5);
    }

    #[test]
    fn temporary_store_avoids_distributed_allocation() {
        let ctx = ctx_with_gpus(4);
        let add = register_add(&ctx);
        let n = 64u64;
        let p = block(n, 4);
        let a = ctx.create_store(vec![n], "a");
        let b = ctx.create_store(vec![n], "b");
        let out = ctx.create_store(vec![n], "out");
        ctx.fill(&a, 1.0);
        ctx.fill(&b, 2.0);
        let t = ctx.create_store(vec![n], "t");
        let ew = |x: ir::StoreId, y: ir::StoreId, o: ir::StoreId| {
            vec![
                StoreArg::new(x, p.clone(), Privilege::Read),
                StoreArg::new(y, p.clone(), Privilege::Read),
                StoreArg::new(o, p.clone(), Privilege::Write),
            ]
        };
        ctx.submit(add, "add", ew(a.id(), b.id(), t.id()), vec![]);
        ctx.submit(add, "add", ew(t.id(), b.id(), out.id()), vec![]);
        drop(t);
        ctx.flush();
        assert_eq!(ctx.read_store(&out).unwrap(), vec![5.0; 64]);
        let stats = ctx.stats();
        assert_eq!(stats.temporaries_eliminated, 1);
        assert_eq!(stats.distributed_allocations_avoided, 1);
    }

    #[test]
    fn eliminated_temporaries_cost_nothing_and_change_nothing() {
        // out = (((a + b) * 0.5 + b) * 3 + a) * 0.25 as six tasks through
        // five dropped temporaries. Fused, all five are eliminated — the
        // runtime allocates none of them — and neither the result nor any
        // simulated quantity may notice. Every knob an environment variable
        // could move is pinned, so the recorded clock holds across CI legs.
        let run = |config: DiffuseConfig| {
            let config = DiffuseConfig {
                fault_plan: None,
                ..config
                    .with_window(8, 16)
                    .with_backend(kernel::BackendKind::Interp)
                    .with_executor(runtime::ExecutorKind::Serial)
                    .with_verification(false)
                    .with_horizontal_fusion(false)
            };
            let ctx = Context::new(config);
            let (add, scale) = (register_add(&ctx), register_scale(&ctx));
            let n = 4096u64;
            let p = block(n, 4);
            let store = |name: &str| ctx.create_store(vec![n], name);
            let (a, b, out) = (store("a"), store("b"), store("out"));
            ctx.write_store(&a, (0..n).map(|i| (i % 13) as f64 - 0.3).collect());
            ctx.write_store(&b, (0..n).map(|i| 1.0 / (1 + i % 7) as f64).collect());
            let read = |s: &StoreHandle| StoreArg::new(s.id(), p.clone(), Privilege::Read);
            let write = |s: &StoreHandle| StoreArg::new(s.id(), p.clone(), Privilege::Write);
            let add_into = |x: &StoreHandle, y: &StoreHandle, o: &StoreHandle| {
                ctx.submit(add, "add", vec![read(x), read(y), write(o)], vec![]);
            };
            let scale_into = |x: &StoreHandle, o: &StoreHandle, c: f64| {
                ctx.submit(scale, "scale", vec![read(x), write(o)], vec![c]);
            };
            let t: Vec<StoreHandle> = (0..5).map(|_| store("t")).collect();
            add_into(&a, &b, &t[0]);
            scale_into(&t[0], &t[1], 0.5);
            add_into(&t[1], &b, &t[2]);
            scale_into(&t[2], &t[3], 3.0);
            add_into(&t[3], &a, &t[4]);
            scale_into(&t[4], &out, 0.25);
            drop(t);
            ctx.flush();
            (ctx.read_store(&out).unwrap(), ctx.stats(), ctx.elapsed())
        };
        let (fused, stats, elapsed) = run(DiffuseConfig::fused(MachineConfig::with_gpus(4)));
        let (unfused, ..) = run(DiffuseConfig::unfused(MachineConfig::with_gpus(4)));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&fused), bits(&unfused));
        assert_eq!(stats.tasks_launched, 1);
        // Recorded before the runtime stopped materialising eliminated
        // locals: the launch still declares them, so pricing cannot move.
        assert_eq!(stats.temporaries_eliminated, 5);
        assert_eq!(elapsed.to_bits(), 0x3F37_54EE_728B_B737, "{elapsed:e}");
    }

    #[test]
    fn memoization_reuses_compiled_kernels_on_isomorphic_windows() {
        let ctx = ctx_with_gpus(4);
        let add = register_add(&ctx);
        let n = 64u64;
        let p = block(n, 4);
        let a = ctx.create_store(vec![n], "a");
        let b = ctx.create_store(vec![n], "b");
        ctx.fill(&a, 1.0);
        ctx.fill(&b, 2.0);
        let ew = |x: ir::StoreId, y: ir::StoreId, o: ir::StoreId| {
            vec![
                StoreArg::new(x, p.clone(), Privilege::Read),
                StoreArg::new(y, p.clone(), Privilege::Read),
                StoreArg::new(o, p.clone(), Privilege::Write),
            ]
        };
        // Two iterations of the same two-task pattern over fresh temporaries.
        for _ in 0..2 {
            let t = ctx.create_store(vec![n], "t");
            let u = ctx.create_store(vec![n], "u");
            ctx.submit(add, "add", ew(a.id(), b.id(), t.id()), vec![]);
            ctx.submit(add, "add", ew(t.id(), b.id(), u.id()), vec![]);
            drop(t);
            drop(u);
            ctx.flush();
        }
        let stats = ctx.stats();
        assert_eq!(stats.compilations, 1, "second window reuses the compiled kernel");
        assert!(stats.memo_hits >= 1);
        assert!(stats.compile_time > 0.0);
    }

    #[test]
    fn fusion_reduces_simulated_time() {
        let run = |config: DiffuseConfig| {
            let ctx = Context::new(config.simulation_only());
            let add = register_add(&ctx);
            let n = 1u64 << 22;
            let p = block(n, 8);
            let a = ctx.create_store(vec![n], "a");
            let b = ctx.create_store(vec![n], "b");
            ctx.fill(&a, 1.0);
            ctx.fill(&b, 2.0);
            ctx.reset_timing();
            let ew = |x: ir::StoreId, y: ir::StoreId, o: ir::StoreId| {
                vec![
                    StoreArg::new(x, p.clone(), Privilege::Read),
                    StoreArg::new(y, p.clone(), Privilege::Read),
                    StoreArg::new(o, p.clone(), Privilege::Write),
                ]
            };
            for _ in 0..5 {
                let t1 = ctx.create_store(vec![n], "t1");
                let t2 = ctx.create_store(vec![n], "t2");
                let t3 = ctx.create_store(vec![n], "t3");
                ctx.submit(add, "add", ew(a.id(), b.id(), t1.id()), vec![]);
                ctx.submit(add, "add", ew(t1.id(), b.id(), t2.id()), vec![]);
                ctx.submit(add, "add", ew(t2.id(), b.id(), t3.id()), vec![]);
                drop(t1);
                drop(t2);
                drop(t3);
                ctx.flush();
            }
            ctx.elapsed()
        };
        let fused = run(DiffuseConfig::fused(MachineConfig::with_gpus(8)));
        let unfused = run(DiffuseConfig::unfused(MachineConfig::with_gpus(8)));
        assert!(
            fused < unfused,
            "fused {fused} should be faster than unfused {unfused}"
        );
    }

    #[test]
    fn layout_drift_rememoizes_instead_of_recompiling_forever() {
        // Three isomorphic windows; between the first and the rest, the
        // output store's liveness changes (held handle vs dropped temp), so
        // the cached buffer layout drifts. The drift recompiles once and
        // must *replace* the memo entry, so the third window hits and skips
        // compilation again.
        let ctx = ctx_with_gpus(2);
        let add = register_add(&ctx);
        let n = 16u64;
        let p = block(n, 2);
        let a = ctx.create_store(vec![n], "a");
        ctx.fill(&a, 1.0);
        let submit_pair = |t: &StoreHandle, u: &StoreHandle| {
            let ew = |x: ir::StoreId, y: ir::StoreId, o: ir::StoreId| {
                vec![
                    StoreArg::new(x, p.clone(), Privilege::Read),
                    StoreArg::new(y, p.clone(), Privilege::Read),
                    StoreArg::new(o, p.clone(), Privilege::Write),
                ]
            };
            ctx.submit(add, "add", ew(a.id(), a.id(), t.id()), vec![]);
            ctx.submit(add, "add", ew(t.id(), a.id(), u.id()), vec![]);
        };
        // Window 1: intermediate store kept live across the flush -> not a
        // temporary -> it becomes a region requirement in the layout.
        let t1 = ctx.create_store(vec![n], "t");
        let u1 = ctx.create_store(vec![n], "u");
        submit_pair(&t1, &u1);
        ctx.flush();
        assert_eq!(ctx.stats().compilations, 1);
        // Windows 2 and 3: the intermediate is dropped before the flush ->
        // demoted to a task-local -> different layout than the cached one.
        for expected_compilations in [2, 2] {
            let t = ctx.create_store(vec![n], "t");
            let u = ctx.create_store(vec![n], "u");
            submit_pair(&t, &u);
            drop(t);
            drop(u);
            ctx.flush();
            assert_eq!(
                ctx.stats().compilations, expected_compilations,
                "drift must recompile exactly once, then hit again"
            );
        }
        assert!(ctx.stats().memo_hits >= 2);
        drop((t1, u1));
    }

    #[test]
    fn backends_agree_numerically_and_memoize_separately() {
        use kernel::BackendKind;
        let run = |backend: BackendKind| {
            let ctx = Context::new(
                DiffuseConfig::fused(MachineConfig::with_gpus(4)).with_backend(backend),
            );
            let add = register_add(&ctx);
            let scale = register_scale(&ctx);
            let n = 48u64;
            let p = block(n, 4);
            let a = ctx.create_store(vec![n], "a");
            let out = ctx.create_store(vec![n], "out");
            ctx.write_store(&a, (0..n).map(|i| i as f64 * 0.25).collect());
            for _ in 0..2 {
                let t = ctx.create_store(vec![n], "t");
                ctx.submit(
                    add,
                    "add",
                    vec![
                        StoreArg::new(a.id(), p.clone(), Privilege::Read),
                        StoreArg::new(a.id(), p.clone(), Privilege::Read),
                        StoreArg::new(t.id(), p.clone(), Privilege::Write),
                    ],
                    vec![],
                );
                ctx.submit(
                    scale,
                    "scale",
                    vec![
                        StoreArg::new(t.id(), p.clone(), Privilege::Read),
                        StoreArg::new(out.id(), p.clone(), Privilege::Write),
                    ],
                    vec![1.5],
                );
                drop(t);
                ctx.flush();
            }
            (ctx.read_store(&out).unwrap(), ctx.elapsed(), ctx.stats())
        };
        let (interp_data, interp_time, interp_stats) = run(BackendKind::Interp);
        let (data, time, stats) = run(BackendKind::Simd);
        assert_eq!(interp_data, data, "simd must agree with interp bitwise");
        assert_eq!(
            interp_time, time,
            "simulated time is backend-invariant (compile time is accounted \
             in stats, not on the clock)"
        );
        // Every backend compiles once and hits the memo on the second window.
        assert_eq!(stats.compilations, 1, "memo hit must skip simd compilation");
        assert!(stats.memo_hits >= 1);
        // A JIT backend's one-time cost is priced above the interpreter
        // calibration through the compile_cost hook.
        assert!(stats.compile_time > interp_stats.compile_time);
        assert_eq!(interp_stats.compilations, 1);
        assert!(interp_stats.memo_hits >= 1);
    }

    #[test]
    fn per_library_stats_attribute_cross_library_fusion() {
        // `register_add` and `register_scale` register two distinct
        // libraries, so an add→scale chain that fuses is a cross-library
        // fused task and must be attributed to both namespaces.
        let ctx = ctx_with_gpus(4);
        let add = register_add(&ctx);
        let scale = register_scale(&ctx);
        let n = 32u64;
        let p = block(n, 4);
        let a = ctx.create_store(vec![n], "a");
        let out = ctx.create_store(vec![n], "out");
        ctx.fill(&a, 2.0);
        let t = ctx.create_store(vec![n], "t");
        ctx.task(add)
            .read(&a, p.clone())
            .read(&a, p.clone())
            .write(&t, p.clone())
            .launch();
        ctx.task(scale)
            .read(&t, p.clone())
            .write(&out, p)
            .scalar(0.5)
            .launch();
        drop(t);
        ctx.flush();
        assert_eq!(ctx.read_store(&out).unwrap(), vec![2.0; 32]);
        let stats = ctx.stats();
        assert_eq!(stats.fused_tasks, 1);
        assert_eq!(stats.cross_library_fused_tasks, 1);
        let adds = stats.library("adds").unwrap();
        let scales = stats.library("scales").unwrap();
        assert_eq!(adds.tasks_submitted, 1);
        assert_eq!(scales.tasks_submitted, 1);
        // The fill launch belongs to no library; the fused launch counts once
        // for each participant.
        assert_eq!(adds.launches, 1);
        assert_eq!(scales.launches, 1);
        assert_eq!(adds.cross_library_launches, 1);
        assert_eq!(scales.cross_library_launches, 1);
        assert!(adds.simulated_time > 0.0 && scales.simulated_time > 0.0);
    }

    /// A batched stream: per batch, one elementwise add (launch domain =
    /// GPUs) followed by a domain-1 "finalize" scale — the domain change
    /// breaks vertical fusion after every batch, which is exactly the shape
    /// horizontal fusion exists for.
    fn run_batched(horizontal: bool, batches: usize) -> (Vec<Vec<f64>>, ExecutionStats) {
        let ctx = Context::new(
            DiffuseConfig::fused(MachineConfig::with_gpus(4))
                .with_window(64, 64)
                .with_horizontal_fusion(horizontal),
        );
        let add = register_add(&ctx);
        let scale = register_scale(&ctx);
        let n = 16u64;
        let p = block(n, 4);
        let mut stores = Vec::new();
        for k in 0..batches {
            let a = ctx.create_store(vec![n], "a");
            let b = ctx.create_store(vec![n], "b");
            let out = ctx.create_store(vec![n], "out");
            let resp = ctx.create_store(vec![n], "resp");
            ctx.fill(&a, 1.0 + k as f64);
            ctx.fill(&b, 2.0);
            stores.push((a, b, out, resp));
        }
        let stats0 = ctx.stats();
        for (a, b, out, resp) in &stores {
            ctx.task(add)
                .read(a, p.clone())
                .read(b, p.clone())
                .write(out, p.clone())
                .launch();
            ctx.task(scale)
                .domain(Domain::linear(1))
                .read(out, Partition::Replicate)
                .write(resp, Partition::Replicate)
                .scalar(0.5)
                .launch();
        }
        ctx.flush();
        let results = stores
            .iter()
            .map(|(_, _, _, resp)| ctx.read_store(resp).unwrap())
            .collect();
        (results, ctx.stats().since(&stats0))
    }

    #[test]
    fn horizontal_fusion_packs_independent_batches_bit_identically() {
        let (plain, plain_stats) = run_batched(false, 4);
        let (packed, packed_stats) = run_batched(true, 4);
        assert_eq!(packed, plain, "horizontal fusion must not change results");
        assert_eq!(packed[2][0], (1.0 + 2.0 + 2.0) * 0.5);
        // Vertically, every batch is two launches (the domain change breaks
        // fusion between batches); horizontally, all adds share one launch
        // and all finalizes share another.
        assert_eq!(plain_stats.tasks_launched, 8);
        assert_eq!(packed_stats.tasks_launched, 2);
        assert_eq!(packed_stats.fused_tasks, 2);
        assert_eq!(packed_stats.horizontally_fused_tasks, 8);
        assert_eq!(plain_stats.horizontally_fused_tasks, 0);
    }

    #[test]
    fn horizontal_fusion_memoizes_packed_windows() {
        // Two isomorphic batched rounds over fresh stores: the second round's
        // permuted window must hit the memo entry of the first.
        let ctx = Context::new(
            DiffuseConfig::fused(MachineConfig::with_gpus(2))
                .with_window(32, 32)
                .with_horizontal_fusion(true),
        );
        let add = register_add(&ctx);
        let scale = register_scale(&ctx);
        let n = 8u64;
        let p = block(n, 2);
        for round in 0..2 {
            let mut keep = Vec::new();
            for k in 0..3 {
                let a = ctx.create_store(vec![n], "a");
                let out = ctx.create_store(vec![n], "out");
                let resp = ctx.create_store(vec![n], "resp");
                ctx.fill(&a, (round * 3 + k) as f64);
                keep.push((a, out, resp));
            }
            for (a, out, resp) in &keep {
                ctx.task(add)
                    .read(a, p.clone())
                    .read(a, p.clone())
                    .write(out, p.clone())
                    .launch();
                ctx.task(scale)
                    .domain(Domain::linear(1))
                    .read(out, Partition::Replicate)
                    .write(resp, Partition::Replicate)
                    .scalar(2.0)
                    .launch();
            }
            ctx.flush();
            assert_eq!(ctx.read_store(&keep[2].2).unwrap(), vec![(round * 3 + 2) as f64 * 4.0; 8]);
        }
        let stats = ctx.stats();
        // One compilation per launch group (adds, finalizes); round two
        // replays both skeletons from its window's one plan.
        assert_eq!(stats.compilations, 2, "packed windows memoize");
        assert_eq!((stats.memo_misses, stats.memo_hits), (1, 1));
        assert_eq!(stats.horizontally_fused_tasks, 12);
    }

    #[test]
    fn compile_faults_degrade_down_the_backend_chain() {
        use kernel::BackendKind;
        use runtime::FaultPlan;
        // At rate 1.0 every fault site fires. The runtime-site schedule
        // (device + region-read) is identical across backends — launch
        // fingerprints deliberately exclude the kernel — so the per-backend
        // difference isolates the compile site: simd degrades exactly once,
        // to the interpreter, and the interpreter cannot fail.
        let run = |backend: BackendKind| {
            let ctx = Context::new(
                DiffuseConfig::fused(MachineConfig::with_gpus(4))
                    .with_backend(backend)
                    .with_fault_plan(FaultPlan::new(5, 1.0)),
            );
            let add = register_add(&ctx);
            let n = 32u64;
            let p = block(n, 4);
            let a = ctx.create_store(vec![n], "a");
            let out = ctx.create_store(vec![n], "out");
            ctx.fill(&a, 2.0);
            let t = ctx.create_store(vec![n], "t");
            let ew = |x: ir::StoreId, y: ir::StoreId, o: ir::StoreId| {
                vec![
                    StoreArg::new(x, p.clone(), Privilege::Read),
                    StoreArg::new(y, p.clone(), Privilege::Read),
                    StoreArg::new(o, p.clone(), Privilege::Write),
                ]
            };
            ctx.submit(add, "add", ew(a.id(), a.id(), t.id()), vec![]);
            ctx.submit(add, "add", ew(t.id(), a.id(), out.id()), vec![]);
            drop(t);
            ctx.flush();
            let data = ctx.read_store(&out).unwrap();
            (data, ctx.stats())
        };
        let (interp_data, interp_stats) = run(BackendKind::Interp);
        let (simd_data, simd_stats) = run(BackendKind::Simd);
        // Recovery repairs every injected fault: results are fault-free.
        assert_eq!(interp_data, vec![6.0; 32]);
        assert_eq!(simd_data, interp_data);
        assert!(interp_stats.faults_injected > 0, "runtime sites fired");
        // One fused window = one compilation; the compile-site delta on top
        // of the shared runtime-site schedule pins the two-tier chain: one
        // fault, one degradation, even though every retry would fault too.
        assert_eq!(simd_stats.faults_injected - interp_stats.faults_injected, 1);
        assert_eq!(simd_stats.degraded_launches - interp_stats.degraded_launches, 1);
        // Compile faults never retry on the simulated clock (the fallback
        // tier compiles instead); retries are the runtime sites' alone.
        assert_eq!(simd_stats.retries, interp_stats.retries);
        // The thrown-away tier's JIT work is still paid for.
        assert!(simd_stats.compile_time > interp_stats.compile_time);
        // Recovery left nothing abandoned.
        assert_eq!(simd_stats.abandoned_launches, 0);
        assert!(ctx_with_gpus(1).take_failures().is_empty());
    }

    #[test]
    fn a_library_kernel_degrades_once_not_at_every_launch() {
        use kernel::BackendKind;
        use runtime::FaultPlan;
        // The sibling above, unfused: one task launched three times. Its
        // library kernel is compiled once, on the first launch, so the
        // compile site fires once; the replays reuse the degraded kernel.
        let run = |backend: BackendKind| {
            let ctx = Context::new(
                DiffuseConfig::unfused(MachineConfig::with_gpus(4))
                    .with_backend(backend)
                    .with_fault_plan(FaultPlan::new(5, 1.0)),
            );
            let add = register_add(&ctx);
            let n = 32u64;
            let p = block(n, 4);
            let a = ctx.create_store(vec![n], "a");
            let out = ctx.create_store(vec![n], "out");
            ctx.fill(&a, 2.0);
            for _ in 0..3 {
                let args = vec![
                    StoreArg::new(a.id(), p.clone(), Privilege::Read),
                    StoreArg::new(a.id(), p.clone(), Privilege::Read),
                    StoreArg::new(out.id(), p.clone(), Privilege::Write),
                ];
                ctx.submit(add, "add", args, vec![]);
            }
            let data = ctx.read_store(&out).unwrap();
            (data, ctx.stats())
        };
        let (interp_data, interp_stats) = run(BackendKind::Interp);
        let (simd_data, simd_stats) = run(BackendKind::Simd);
        assert_eq!(interp_data, vec![4.0; 32]);
        assert_eq!(simd_data, interp_data);
        assert!(interp_stats.faults_injected > 0, "runtime sites fired");
        assert_eq!(simd_stats.faults_injected - interp_stats.faults_injected, 1);
        assert_eq!(simd_stats.degraded_launches - interp_stats.degraded_launches, 1);
        assert_eq!(simd_stats.retries, interp_stats.retries);
        assert_eq!((simd_stats.tasks_launched, simd_stats.compilations), (3, 0));
    }

    #[test]
    fn a_task_launched_alone_generates_once_per_canonical_form() {
        // Three rounds of the same two tasks: `c = a + b` and `d = c + c`,
        // whose one-task forms differ in argument sharing. Each form's
        // library kernel is generated on its first launch and replayed after.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let ctx = Context::new(
            DiffuseConfig::unfused(MachineConfig::with_gpus(4)),
        );
        let add = register_counted_add(&ctx, Arc::clone(&calls));
        let n = 64u64;
        let p = block(n, 4);
        let store = |name: &str| ctx.create_store(vec![n], name);
        let (a, b, c, d) = (store("a"), store("b"), store("c"), store("d"));
        ctx.fill(&a, 1.0);
        ctx.fill(&b, 2.0);
        let ew = |x: &StoreHandle, y: &StoreHandle, o: &StoreHandle| {
            vec![
                StoreArg::new(x.id(), p.clone(), Privilege::Read),
                StoreArg::new(y.id(), p.clone(), Privilege::Read),
                StoreArg::new(o.id(), p.clone(), Privilege::Write),
            ]
        };
        for _ in 0..3 {
            ctx.submit(add, "add", ew(&a, &b, &c), vec![]);
            ctx.submit(add, "add", ew(&c, &c, &d), vec![]);
            assert_eq!(ctx.read_store(&d).unwrap(), vec![6.0; 64]);
        }
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        let stats = ctx.stats();
        assert_eq!(stats.tasks_launched, 6);
        assert_eq!((stats.compilations, stats.compile_time), (0, 0.0));
    }

    #[test]
    fn library_kernels_are_keyed_by_argument_sharing() {
        // `add(x, x -> y)`, `add(x, z -> y)` and the in-place `add(x, y -> y)`
        // generate the same module (same kind, shapes, partitions and
        // domain), but differ in which arguments share a store. The in-place
        // launch plans differently (its writer shares a region with a read,
        // so it is staged, not viewed): keyed by the module's inputs alone,
        // one would replay another's plan, and the verifier's plan check
        // would fail fast here.
        let ctx = Context::new(
            DiffuseConfig::unfused(MachineConfig::with_gpus(4))
                .with_verification(true)
                .with_verify_fail_fast(true),
        );
        let add = register_add(&ctx);
        let n = 64u64;
        let p = block(n, 4);
        let store = |name: &str| ctx.create_store(vec![n], name);
        let (x, y, z) = (store("x"), store("y"), store("z"));
        ctx.fill(&x, 1.0);
        ctx.fill(&z, 5.0);
        let rounds = [(&x, 2.0), (&z, 6.0), (&y, 7.0), (&z, 6.0), (&x, 2.0), (&y, 3.0)];
        for (second, expected) in rounds {
            let args = vec![
                StoreArg::new(x.id(), p.clone(), Privilege::Read),
                StoreArg::new(second.id(), p.clone(), Privilege::Read),
                StoreArg::new(y.id(), p.clone(), Privilege::Write),
            ];
            ctx.submit(add, "add", args, vec![]);
            assert_eq!(ctx.read_store(&y).unwrap(), vec![expected; 64]);
        }
        assert!(ctx.stats().verification_checks > 0);
    }

    #[test]
    fn contained_verify_errors_fail_only_the_cone() {
        use runtime::RuntimeError;
        // A generator whose kernel is inconsistent with its declared
        // signature: `bad` declares read + write but its module writes the
        // *input* buffer and never touches the output.
        let ctx = Context::new(
            DiffuseConfig::unfused(MachineConfig::with_gpus(2))
                .with_verification(true)
                .with_verify_fail_fast(false),
        );
        let lib = ctx.register_library("chaoslib");
        let bad = lib.register("bad", TaskSignature::new().read().write(), |_args| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(0), BufferRole::Output);
            let mut b = LoopBuilder::new("bad", BufferId(0));
            let c = b.constant(1.0);
            b.store(BufferId(0), c);
            m.push_loop(b.finish());
            m
        });
        let add = register_add(&ctx);
        let n = 16u64;
        let p = block(n, 2);
        let a = ctx.create_store(vec![n], "a");
        let t = ctx.create_store(vec![n], "t");
        let cone = ctx.create_store(vec![n], "cone");
        let indep = ctx.create_store(vec![n], "indep");
        ctx.fill(&a, 3.0);
        ctx.submit(
            bad,
            "bad",
            vec![
                StoreArg::new(a.id(), p.clone(), Privilege::Read),
                StoreArg::new(t.id(), p.clone(), Privilege::Write),
            ],
            vec![],
        );
        // Downstream of the violation: must be skipped (poisoned).
        ctx.submit(
            add,
            "add",
            vec![
                StoreArg::new(t.id(), p.clone(), Privilege::Read),
                StoreArg::new(a.id(), p.clone(), Privilege::Read),
                StoreArg::new(cone.id(), p.clone(), Privilege::Write),
            ],
            vec![],
        );
        // Independent of the violation: must complete.
        ctx.submit(
            add,
            "add",
            vec![
                StoreArg::new(a.id(), p.clone(), Privilege::Read),
                StoreArg::new(a.id(), p.clone(), Privilege::Read),
                StoreArg::new(indep.id(), p, Privilege::Write),
            ],
            vec![],
        );
        ctx.flush();
        assert_eq!(ctx.read_store(&indep).unwrap(), vec![6.0; 16]);
        let failures = ctx.take_failures();
        assert_eq!(failures.len(), 2, "the violation and its cone: {failures:?}");
        assert_eq!(failures[0].launch, "bad");
        match &failures[0].error {
            RuntimeError::Verify { launch, detail } => {
                assert_eq!(launch, "bad");
                assert!(detail.contains("signature"), "unexpected detail: {detail}");
            }
            other => panic!("expected a Verify error, got {other}"),
        }
        match &failures[1].error {
            RuntimeError::Poisoned { upstream, .. } => assert_eq!(upstream, "bad"),
            other => panic!("expected a Poisoned error, got {other}"),
        }
        // Drained once; a second take is empty.
        assert!(ctx.take_failures().is_empty());
    }

    #[test]
    fn an_unregistered_kind_is_contained_not_a_panic() {
        use runtime::RuntimeError;
        // A raw submit of a kind no library registered: its flush finds no
        // generator, on the miss path (fused) and the library path
        // (unfused) alike.
        let ghost = TaskKind::decode(99 << 16);
        for config in [DiffuseConfig::fused, DiffuseConfig::unfused] {
            let config = config(MachineConfig::with_gpus(2)).with_verify_fail_fast(false);
            let ctx = Context::new(config);
            let add = register_add(&ctx);
            let n = 16u64;
            let p = block(n, 2);
            let store = |name: &str| ctx.create_store(vec![n], name);
            let (a, t, cone, indep) = (store("a"), store("t"), store("cone"), store("indep"));
            ctx.fill(&a, 3.0);
            let read = |s: &StoreHandle| StoreArg::new(s.id(), p.clone(), Privilege::Read);
            let write = |s: &StoreHandle| StoreArg::new(s.id(), p.clone(), Privilege::Write);
            ctx.submit(ghost, "ghost", vec![read(&a), write(&t)], vec![]);
            ctx.submit(add, "add", vec![read(&t), read(&a), write(&cone)], vec![]);
            ctx.flush();
            ctx.submit(add, "add", vec![read(&a), read(&a), write(&indep)], vec![]);
            assert_eq!(ctx.read_store(&indep).unwrap(), vec![6.0; 16]);
            let failures = ctx.take_failures();
            match &failures[0].error {
                RuntimeError::Verify { detail, .. } => {
                    assert!(detail.contains("no generator registered"), "{detail}");
                }
                other => panic!("expected a Verify error, got {other}"),
            }
            for failure in &failures[1..] {
                assert!(matches!(failure.error, RuntimeError::Poisoned { .. }), "{failures:?}");
            }
            // Unfused, the downstream `add` is its own poisoned launch;
            // fused, it shares the ghost's contained segment.
            assert_eq!(failures.len(), if ctx.config().enable_task_fusion { 1 } else { 2 });
        }
    }

    /// A context that contains what it cannot run: SIMD (whose compile
    /// rejects a malformed module), verification and fail-fast off.
    fn containing_ctx(config: DiffuseConfig) -> Context {
        Context::new(DiffuseConfig {
            fault_plan: None,
            ..config
                .with_backend(kernel::BackendKind::Simd)
                .with_verification(false)
                .with_verify_fail_fast(false)
        })
    }

    /// Registers `broken`, declared read + write, whose generator stores a
    /// value it never defines: `SimdBackend::compile` rejects the module.
    fn register_broken(ctx: &Context) -> TaskKind {
        let lib = ctx.register_library("broken");
        lib.register("broken", TaskSignature::new().read().write(), |_args| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Output);
            m.push_loop(kernel::LoopKernel {
                name: "broken".into(),
                domain: BufferId(1),
                ops: vec![LoopOp::Store {
                    buffer: BufferId(1),
                    src: kernel::ValueId(3),
                }],
                parallel: false,
            });
            m
        })
    }

    #[test]
    fn rejected_compiles_are_contained_not_panics() {
        use runtime::RuntimeError;
        let machine = || MachineConfig::with_gpus(2);
        // Unfused, the module reaches the backend through the library
        // kernel; fused, through the miss path.
        for config in [
            DiffuseConfig::unfused(machine()),
            DiffuseConfig::fused(machine()),
        ] {
            let ctx = containing_ctx(config);
            let broken = register_broken(&ctx);
            let add = register_add(&ctx);
            let (n, p) = (16u64, block(16, 2));
            let store = |name| ctx.create_store(vec![n], name);
            let (a, t, cone, indep) = (store("a"), store("t"), store("cone"), store("indep"));
            ctx.fill(&a, 3.0);
            let arg = |s: &StoreHandle, privilege| StoreArg::new(s.id(), p.clone(), privilege);
            let add_into = |x: &StoreHandle, out: &StoreHandle| {
                let args = vec![
                    arg(x, Privilege::Read),
                    arg(&a, Privilege::Read),
                    arg(out, Privilege::Write),
                ];
                ctx.submit(add, "add", args, vec![]);
                ctx.flush();
            };
            let args = vec![arg(&a, Privilege::Read), arg(&t, Privilege::Write)];
            ctx.submit(broken, "broken", args, vec![]);
            ctx.flush();
            add_into(&t, &cone);
            add_into(&a, &indep);
            assert_eq!(ctx.read_store(&indep).unwrap(), vec![6.0; 16]);
            let failures = ctx.take_failures();
            assert_eq!(
                failures.len(),
                2,
                "the broken launch and its cone: {failures:?}"
            );
            assert!(failures[0].launch.contains("broken"), "{failures:?}");
            match &failures[0].error {
                RuntimeError::Verify { detail, .. } => {
                    assert!(
                        detail.contains("compilation"),
                        "unexpected detail: {detail}"
                    );
                }
                other => panic!("expected a contained compile error, got {other}"),
            }
            match &failures[1].error {
                RuntimeError::Poisoned { upstream, .. } => {
                    assert_eq!(upstream, &failures[0].launch)
                }
                other => panic!("expected a Poisoned error, got {other}"),
            }
        }
    }

    #[test]
    fn a_window_with_a_contained_segment_is_not_memoized() {
        let ctx = containing_ctx(DiffuseConfig::fused(MachineConfig::with_gpus(2)));
        let broken = register_broken(&ctx);
        let add = register_add(&ctx);
        let (n, p) = (16u64, block(16, 2));
        let a = ctx.create_store(vec![n], "a");
        ctx.fill(&a, 1.5);
        for _ in 0..2 {
            let (x, y) = (
                ctx.create_store(vec![n], "x"),
                ctx.create_store(vec![n], "y"),
            );
            // Two segments: the add over the GPUs, the broken task on one point.
            ctx.task(add)
                .read(&a, p.clone())
                .read(&a, p.clone())
                .write(&x, p.clone())
                .launch();
            ctx.task(broken)
                .domain(Domain::linear(1))
                .read(&x, Partition::Replicate)
                .write(&y, Partition::Replicate)
                .launch();
            ctx.flush();
            assert_eq!(ctx.read_store(&x).unwrap(), vec![3.0; 16]);
        }
        let stats = ctx.stats();
        assert_eq!(
            (stats.memo_misses, stats.memo_hits),
            (2, 0),
            "contained windows stay cold"
        );
        assert_eq!(ctx.take_failures().len(), 2);
    }

    #[test]
    fn a_middle_segment_drift_recompiles_that_segment_alone() {
        // Three segments: an add over the GPUs, a two-task chain on one
        // point through `m`, another add. Rounds three and four keep `m`
        // live, so only the middle segment's layout drifts.
        let run = |config: DiffuseConfig| {
            let ctx = Context::new(config);
            let (add, scale) = (register_add(&ctx), register_scale(&ctx));
            let (n, p) = (16u64, block(16, 2));
            let a = ctx.create_store(vec![n], "a");
            ctx.fill(&a, 0.75);
            let (mut outputs, mut compilations) = (Vec::new(), Vec::new());
            for keep in [false, false, true, true] {
                let store = |name| ctx.create_store(vec![n], name);
                let (t, m, r, w) = (store("t"), store("m"), store("r"), store("w"));
                ctx.task(add)
                    .read(&a, p.clone())
                    .read(&a, p.clone())
                    .write(&t, p.clone())
                    .launch();
                for (x, y) in [(&t, &m), (&m, &r)] {
                    ctx.task(scale)
                        .domain(Domain::linear(1))
                        .read(x, Partition::Replicate)
                        .write(y, Partition::Replicate)
                        .scalar(1.5)
                        .launch();
                }
                ctx.task(add)
                    .read(&r, p.clone())
                    .read(&a, p.clone())
                    .write(&w, p.clone())
                    .launch();
                if keep {
                    outputs.push(m);
                } else {
                    drop(m);
                }
                ctx.flush();
                compilations.push(ctx.stats().compilations);
                outputs.extend([r, w]);
            }
            let bits = |s: &StoreHandle| -> Vec<u64> {
                ctx.read_store(s)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            (
                outputs.iter().map(bits).collect::<Vec<_>>(),
                compilations,
                ctx.stats(),
            )
        };
        let config = DiffuseConfig::fused(MachineConfig::with_gpus(2)).with_window(16, 16);
        let (memoized, compilations, stats) = run(config.clone());
        let (fresh, ..) = run(config.without_memoization());
        assert_eq!(
            memoized, fresh,
            "replays and the recompiled segment launch what a fresh plan does"
        );
        assert_eq!(
            compilations,
            vec![3, 3, 4, 4],
            "one recompile, then the re-memoized plan"
        );
        assert_eq!((stats.memo_misses, stats.memo_hits), (1, 3));
    }

    #[test]
    fn a_window_recurring_as_a_suffix_replays_that_tail() {
        // Round one flushes two segments: an add over the GPUs, then a
        // two-task chain on one point. Round two flushes the chain alone,
        // over fresh stores numbered from 0 where round one's started at 1.
        let run = |config: DiffuseConfig| {
            let ctx = Context::new(config);
            let (add, scale) = (register_add(&ctx), register_scale(&ctx));
            let (n, p) = (16u64, block(16, 2));
            let a = ctx.create_store(vec![n], "a");
            ctx.fill(&a, 0.75);
            let (mut outputs, mut compilations) = (Vec::new(), Vec::new());
            for round in 0..2 {
                let store = |name| ctx.create_store(vec![n], name);
                let (t, m, r) = (store("t"), store("m"), store("r"));
                if round == 0 {
                    ctx.task(add)
                        .read(&a, p.clone())
                        .read(&a, p.clone())
                        .write(&t, p.clone())
                        .launch();
                } else {
                    ctx.fill(&t, 1.25);
                }
                for (x, y) in [(&t, &m), (&m, &r)] {
                    ctx.task(scale)
                        .domain(Domain::linear(1))
                        .read(x, Partition::Replicate)
                        .write(y, Partition::Replicate)
                        .scalar(1.5)
                        .launch();
                }
                drop(m);
                ctx.flush();
                compilations.push(ctx.stats().compilations);
                let values = ctx.read_store(&r).unwrap();
                outputs.push(values.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            }
            (outputs, compilations, ctx.stats())
        };
        let config = DiffuseConfig::fused(MachineConfig::with_gpus(2)).with_window(16, 16);
        let (memoized, compilations, stats) = run(config.clone());
        let (fresh, ..) = run(config.without_memoization());
        assert_eq!(memoized, fresh, "the replayed tail launches what a fresh plan does");
        assert_eq!(compilations, vec![2, 2], "the tail replays, renumbered");
        assert_eq!((stats.memo_misses, stats.memo_hits), (1, 1));
    }

    #[test]
    fn a_handle_kept_across_a_hit_recompiles_once_under_the_same_mask() {
        // `t = a + a; u = t / 2` fuses with `t` a temporary, unless round
        // three or four keeps its handle: the hit's layout drifts, the
        // segment recompiles once and the plan is re-memoized under the same
        // mask, so round five, which drops `t` again, drifts back.
        let run = |config: DiffuseConfig| {
            let ctx = Context::new(config);
            let (add, scale) = (register_add(&ctx), register_scale(&ctx));
            let (n, p) = (16u64, block(16, 2));
            let a = ctx.create_store(vec![n], "a");
            ctx.write_store(&a, (0..n).map(|i| i as f64 - 4.5).collect());
            let (mut outputs, mut rounds) = (Vec::new(), Vec::new());
            for keep in [false, false, true, true, false] {
                let (t, u) = (ctx.create_store(vec![n], "t"), ctx.create_store(vec![n], "u"));
                ctx.task(add).read(&a, p.clone()).read(&a, p.clone()).write(&t, p.clone()).launch();
                ctx.task(scale).read(&t, p.clone()).write(&u, p.clone()).scalar(0.5).launch();
                if keep {
                    outputs.push(t);
                } else {
                    drop(t);
                }
                outputs.push(u);
                let window = ctx.inner.borrow().window.tasks().to_vec();
                ctx.flush();
                let stats = ctx.stats();
                let mut inner = ctx.inner.borrow_mut();
                let plan = inner.memo.get(&CanonicalWindow::new(&window));
                let masks = plan.map(|plan| {
                    let mask = |s: &Segment| match s {
                        Segment::Fused { mask, .. } => mask.iter().collect::<Vec<bool>>(),
                        Segment::Alone => Vec::new(),
                    };
                    plan.iter().map(mask).collect::<Vec<_>>()
                });
                rounds.push((stats.compilations, stats.temporaries_eliminated, masks));
            }
            let read = |s: &StoreHandle| ctx.read_store(s).unwrap();
            (outputs.iter().map(read).collect::<Vec<_>>(), rounds)
        };
        let config = DiffuseConfig::fused(MachineConfig::with_gpus(2)).with_window(16, 16);
        let (memoized, rounds) = run(config.clone());
        let (fresh, fresh_rounds) = run(config.without_memoization());
        assert_eq!(memoized, fresh, "replays launch what a fresh plan does");
        let a: Vec<f64> = (0..16).map(|i| i as f64 - 4.5).collect();
        let kept_t: Vec<f64> = a.iter().map(|x| x + x).collect();
        for (i, values) in memoized.iter().enumerate() {
            // Rounds three and four push `t` before `u`.
            let is_t = matches!(i, 2 | 4);
            assert_eq!(values, if is_t { &kept_t } else { &a }, "output {i}");
        }
        // The mask marks `t` and `u` (`a` is only read); only `t` is ever
        // without a live handle.
        let mask = Some(vec![vec![false, true, true]]);
        let compiled: Vec<_> = rounds.iter().map(|r| (r.0, r.1, r.2.clone())).collect();
        let expected = [(1, 1), (1, 2), (2, 2), (2, 2), (3, 3)];
        let expected: Vec<_> = expected.iter().map(|&(c, t)| (c, t, mask.clone())).collect();
        assert_eq!(compiled, expected, "(compilations, temporaries, plan masks) per round");
        let eliminated = |rounds: &[(u64, u64, _)]| rounds.iter().map(|r| r.1).collect::<Vec<_>>();
        assert_eq!(eliminated(&rounds), eliminated(&fresh_rounds));
    }

    /// The operations of a CG-shaped stream: `add` and `scale` over the
    /// GPUs, `dot` reducing into a scalar store, `div` of two scalar stores
    /// on one point, and `axpy` reading a scalar store.
    fn register_cg(ctx: &Context) -> [TaskKind; 5] {
        let lib = ctx.register_library("cg");
        let dot = lib.register("dot", TaskSignature::new().read().read().reduce(), |_| {
            let mut m = KernelModule::new(3);
            m.set_role(BufferId(2), BufferRole::Reduction);
            let mut b = LoopBuilder::new("dot", BufferId(0));
            let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
            let v = b.mul(x, y);
            b.reduce(BufferId(2), kernel::ReduceOp::Sum, v);
            m.push_loop(b.finish());
            m
        });
        let div = lib.register("div", TaskSignature::new().read().read().write(), |_| {
            let mut m = KernelModule::new(3);
            m.set_role(BufferId(2), BufferRole::Output);
            let mut b = LoopBuilder::new("div", BufferId(2));
            let (x, y) = (b.load_scalar(BufferId(0)), b.load_scalar(BufferId(1)));
            let v = b.div(x, y);
            b.store(BufferId(2), v);
            m.push_loop(b.finish());
            m
        });
        let axpy = lib.register("axpy", TaskSignature::new().read().read().read().write(), |_| {
            let mut m = KernelModule::new(4);
            m.set_role(BufferId(3), BufferRole::Output);
            let mut b = LoopBuilder::new("axpy", BufferId(3));
            let (y, s, x) = (b.load(BufferId(0)), b.load_scalar(BufferId(1)), b.load(BufferId(2)));
            let sx = b.mul(s, x);
            let v = b.add(y, sx);
            b.store(BufferId(3), v);
            m.push_loop(b.finish());
            m
        });
        [register_add(ctx), register_scale(ctx), dot, div, axpy]
    }

    /// Runs `iterations` eight-task CG-shaped iterations on `ctx`: `q = (p +
    /// p) / 2` through a temporary, `alpha = rr / (p · q)`, `x += alpha p`,
    /// `r += alpha q`, `rr = r · r` and `p = r + rr p`. Each iteration makes
    /// fresh stores and drops each handle after its last use, the superseded
    /// iterates at the end.
    fn cg_iterations(ctx: &Context, ops: [TaskKind; 5], iterations: usize) {
        let [add, scale, dot, div, axpy] = ops;
        let (n, gpus) = (64u64, ctx.gpus() as u64);
        let (p, one) = (block(n, gpus), Partition::Replicate);
        let vector = |name| ctx.create_store(vec![n], name);
        let scalar = |name| ctx.create_store(vec![1], name);
        let (mut x, mut r, mut d, mut rr) = (vector("x"), vector("r"), vector("p"), scalar("rr"));
        for _ in 0..iterations {
            let (t, q, pq, alpha) = (vector("t"), vector("q"), scalar("pq"), scalar("alpha"));
            let (x2, r2, rr2, d2) = (vector("x"), vector("r"), scalar("rr"), vector("p"));
            ctx.task(add).read(&d, p.clone()).read(&d, p.clone()).write(&t, p.clone()).launch();
            ctx.task(scale).read(&t, p.clone()).write(&q, p.clone()).scalar(0.5).launch();
            drop(t);
            let dot = |x: &StoreHandle, y: &StoreHandle, out: &StoreHandle| {
                let task = ctx.task(dot).read(x, p.clone()).read(y, p.clone());
                task.reduce(out, one.clone(), ReductionOp::Sum).launch();
            };
            dot(&d, &q, &pq);
            ctx.task(div)
                .domain(Domain::linear(1))
                .read(&rr, one.clone())
                .read(&pq, one.clone())
                .write(&alpha, one.clone())
                .launch();
            drop(pq);
            let axpy = |y: &StoreHandle, s: &StoreHandle, z: &StoreHandle, out: &StoreHandle| {
                let task = ctx.task(axpy).read(y, p.clone()).read(s, one.clone());
                task.read(z, p.clone()).write(out, p.clone()).launch();
            };
            axpy(&x, &alpha, &d, &x2);
            axpy(&r, &alpha, &q, &r2);
            drop((q, alpha));
            dot(&r2, &r2, &rr2);
            axpy(&r2, &rr2, &d, &d2);
            (x, r, d, rr) = (x2, r2, d2, rr2);
        }
        ctx.flush();
    }

    #[test]
    fn warm_hits_walk_no_window_for_liveness_and_a_miss_sweeps_each_task_once() {
        for window in [8usize, 80] {
            let config = DiffuseConfig::fused(MachineConfig::with_gpus(8))
                .simulation_only()
                .with_window(window, window)
                .with_verification(false);
            let ctx = Context::new(config);
            let ops = register_cg(&ctx);
            // Cold: every window of whole iterations is isomorphic, but the
            // first few miss while the memo fills.
            let work = || LIVENESS_WORK.with(|w| w.get());
            LIVENESS_WORK.with(|w| w.set(LivenessWork::default()));
            cg_iterations(&ctx, ops, 3 * window / 8);
            let (cold, cold_work) = (ctx.stats(), work());
            let missed = cold.memo_misses * window as u64;
            assert!(cold.memo_misses >= 1 && cold.memo_hits >= 1, "window {window}: {cold:?}");
            assert_eq!(
                cold_work,
                LivenessWork { reference_walks: 0, swept: missed, forward: missed },
                "window {window}: a miss sweeps each of its tasks once, back and forth"
            );
            // Warm: the same stream again hits every window and walks none.
            cg_iterations(&ctx, ops, 10 * window / 8);
            let warm = ctx.stats();
            assert_eq!(warm.memo_misses, cold.memo_misses, "window {window}");
            assert_eq!(warm.memo_hits - cold.memo_hits, 10, "window {window}");
            assert!(warm.temporaries_eliminated > cold.temporaries_eliminated);
            assert_eq!(work(), cold_work, "window {window}: a hit walks no window for liveness");
        }
    }

    /// Registers `stage`: `out[i] = in[i] + 2 * in[0]`, where the doubled
    /// input is staged in a generator-introduced local. The staging loop
    /// iterates over the local and the output loop broadcast-reads it (which
    /// keeps the two loops apart and the local alive through the pipeline) —
    /// so the local's length is a trip count the cost model prices and the
    /// executor runs.
    fn register_staged(ctx: &Context) -> TaskKind {
        let lib = ctx.register_library("staged");
        lib.register("stage", TaskSignature::new().read().write(), |_args| {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Output);
            let staged = m.add_local();
            let mut b = LoopBuilder::new("stage_in", staged);
            let (x, two) = (b.load(BufferId(0)), b.constant(2.0));
            let v = b.mul(x, two);
            b.store(staged, v);
            m.push_loop(b.finish());
            let mut b = LoopBuilder::new("stage_out", BufferId(1));
            let (x, first) = (b.load(BufferId(0)), b.load_scalar(staged));
            let v = b.add(x, first);
            b.store(BufferId(1), v);
            m.push_loop(b.finish());
            m
        })
    }

    #[test]
    fn replay_sizes_generator_locals_as_the_miss_that_compiled_them() {
        // One window, two store sizes: each constituent's generator local is
        // sized by that constituent's own largest argument. A replay that
        // sized both with the fused maximum would run (and price) the small
        // task's staging loop over the large task's extent.
        let run = |config: DiffuseConfig| {
            let ctx = Context::new(config);
            let stage = register_staged(&ctx);
            let (small, large) = (16u64, 64u64);
            let a = ctx.create_store(vec![small], "a");
            let b = ctx.create_store(vec![large], "b");
            ctx.write_store(&a, (0..small).map(|i| i as f64).collect());
            ctx.write_store(&b, (0..large).map(|i| 0.5 * i as f64).collect());
            let mut iterations = Vec::new();
            for _ in 0..3 {
                let x = ctx.create_store(vec![small], "x");
                let y = ctx.create_store(vec![large], "y");
                ctx.task(stage)
                    .read(&a, block(small, 4))
                    .write(&x, block(small, 4))
                    .launch();
                ctx.task(stage)
                    .read(&b, block(large, 4))
                    .write(&y, block(large, 4))
                    .launch();
                ctx.flush();
                let data = (ctx.read_store(&x).unwrap(), ctx.read_store(&y).unwrap());
                iterations.push((ctx.elapsed().to_bits(), data));
            }
            (iterations, ctx.stats())
        };
        let (memoized, stats) = run(DiffuseConfig::fused(MachineConfig::with_gpus(4)));
        let (fresh, _) =
            run(DiffuseConfig::fused(MachineConfig::with_gpus(4)).without_memoization());
        assert_eq!(stats.fused_tasks, 3, "both sizes share one launch");
        assert_eq!(stats.memo_hits, 2, "iterations two and three replay");
        assert_eq!(memoized[0].1 .0[3], 3.0);
        assert_eq!(memoized, fresh, "a replay launches exactly what its miss did");
    }

    /// One fused haloed-stencil window over a ghost-bordered `258 x 10` grid
    /// (row blocks under `PadZeros`, one per GPU): a 5-point star through
    /// five offset views into `t`, `t` scaled into a dropped `w`, then the
    /// grid doubled into a dropped `z` and `z` scaled into `out` through
    /// covering row blocks. Returns every buffer-length vector a generator
    /// saw (sorted, deduplicated), the statistics and `out`.
    fn haloed_stencil_window(gpus: usize) -> (Vec<Vec<usize>>, ExecutionStats, Vec<f64>) {
        use std::sync::{Arc, Mutex};
        let ctx = ctx_with_gpus(gpus);
        let seen: Arc<Mutex<Vec<Vec<usize>>>> = Arc::default();
        let lib = ctx.register_library("halo");
        let log = Arc::clone(&seen);
        let star = lib.register(
            "star5",
            TaskSignature::new().read().read().read().read().read().write().scalars(1),
            move |args| {
                log.lock().unwrap().push(args.buffer_lens.to_vec());
                let mut m = KernelModule::new(6);
                m.set_role(BufferId(5), BufferRole::Output);
                let mut b = LoopBuilder::new("star5", BufferId(5));
                let mut sum = b.load(BufferId(0));
                for view in 1..5 {
                    let v = b.load(BufferId(view));
                    sum = b.add(sum, v);
                }
                let c = b.param(0);
                let v = b.mul(sum, c);
                b.store(BufferId(5), v);
                m.push_loop(b.finish());
                m
            },
        );
        let log = Arc::clone(&seen);
        let scale = lib.register(
            "scale",
            TaskSignature::new().read().write().scalars(1),
            move |args| {
                log.lock().unwrap().push(args.buffer_lens.to_vec());
                let mut m = KernelModule::new(2);
                m.set_role(BufferId(1), BufferRole::Output);
                let mut b = LoopBuilder::new("scale", BufferId(1));
                let (x, s) = (b.load(BufferId(0)), b.param(0));
                let v = b.mul(x, s);
                b.store(BufferId(1), v);
                m.push_loop(b.finish());
                m
            },
        );
        let (rows, cols) = (258u64, 10u64);
        let g = gpus as u64;
        let view = |dr: i64, dc: i64| {
            Partition::tiling(
                vec![(rows - 2) / g, cols - 2],
                vec![dr, dc],
                Projection::PadZeros { rank: 2 },
            )
        };
        // Covering row blocks; at 128 GPUs the trailing points own no rows.
        let row_blocks =
            Partition::tiling(vec![rows.div_ceil(g), cols], vec![0, 0], Projection::PadZeros { rank: 2 });
        let grid = || ctx.create_store(vec![rows, cols], "grid");
        let (u, t, w, z, out) = (grid(), grid(), grid(), grid(), grid());
        ctx.write_store(&u, (0..rows * cols).map(|i| (i % 17) as f64).collect());
        ctx.fill(&t, 0.0);
        ctx.fill(&out, 0.0);
        let before = ctx.stats();
        ctx.task(star)
            .read(&u, view(1, 1))
            .read(&u, view(0, 1))
            .read(&u, view(2, 1))
            .read(&u, view(1, 0))
            .read(&u, view(1, 2))
            .write(&t, view(1, 1))
            .scalar(0.2)
            .launch();
        ctx.task(scale).read(&t, view(1, 1)).write(&w, view(1, 1)).scalar(3.0).launch();
        ctx.task(scale)
            .read(&u, row_blocks.clone())
            .write(&z, row_blocks.clone())
            .scalar(2.0)
            .launch();
        ctx.task(scale)
            .read(&z, row_blocks.clone())
            .write(&out, row_blocks)
            .scalar(0.5)
            .launch();
        drop((w, z));
        ctx.flush();
        let data = ctx.read_store(&out).unwrap();
        let mut lens = seen.lock().unwrap().clone();
        lens.sort();
        lens.dedup();
        (lens, ctx.stats().since(&before), data)
    }

    #[test]
    fn haloed_stencil_footprints_are_pinned_at_8_and_128_gpus() {
        let (lens8, stats8, out8) = haloed_stencil_window(8);
        let (lens128, stats128, out128) = haloed_stencil_window(128);
        // Expected values recorded on the enumerating implementation: the
        // interior views all span 256 x 8, the covering row blocks the whole
        // 258 x 10 grid, at either machine size.
        let expected = vec![vec![2048; 2], vec![2048; 6], vec![2580; 2]];
        assert_eq!(lens8, expected);
        assert_eq!(lens128, expected);
        for stats in [&stats8, &stats128] {
            assert_eq!(stats.tasks_launched, 1);
            assert_eq!(stats.fused_tasks, 1);
            assert_eq!(stats.temporaries_eliminated, 2, "w and z never leave the launch");
            assert_eq!(stats.distributed_allocations_avoided, 2);
        }
        assert_eq!(out8, out128, "results do not depend on the machine size");
    }

    #[test]
    fn scalar_values_never_reach_generators() {
        // 64 `scale` tasks over one shape, each with its own scalar, in one
        // window that fuses whole. Generators never see scalar values, and
        // a missed window generates each constituent once, to compose the
        // fused kernel: 64 generator calls in all.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ctx = Context::new(
            DiffuseConfig::fused(MachineConfig::with_gpus(4))
                .with_window(64, 64)
                .with_horizontal_fusion(false),
        );
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let scale = ctx.register_library("scales").register(
            "scale",
            TaskSignature::new().read().write().scalars(1),
            move |_args| {
                counter.fetch_add(1, Ordering::Relaxed);
                let mut m = KernelModule::new(2);
                m.set_role(BufferId(1), BufferRole::Output);
                let mut b = LoopBuilder::new("scale", BufferId(1));
                let (x, s) = (b.load(BufferId(0)), b.param(0));
                let v = b.mul(x, s);
                b.store(BufferId(1), v);
                m.push_loop(b.finish());
                m
            },
        );
        let p = block(16, 4);
        let x = ctx.create_store(vec![16], "x");
        ctx.fill(&x, 2.0);
        let outs: Vec<StoreHandle> = (0..64)
            .map(|k| {
                let out = ctx.create_store(vec![16], "out");
                let task = ctx.task(scale).read(&x, p.clone()).write(&out, p.clone());
                task.scalar(k as f64).launch();
                out
            })
            .collect();
        ctx.flush();
        assert_eq!(ctx.read_store(&outs[63]).unwrap(), vec![126.0; 16]);
        assert_eq!(ctx.stats().tasks_launched, 1);
        assert_eq!(calls.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn window_grows_when_everything_fuses() {
        let ctx = Context::new(
            DiffuseConfig::fused(MachineConfig::with_gpus(2)).with_window(2, 16),
        );
        let add = register_add(&ctx);
        let n = 16u64;
        let p = block(n, 2);
        let a = ctx.create_store(vec![n], "a");
        let b = ctx.create_store(vec![n], "b");
        ctx.fill(&a, 1.0);
        ctx.fill(&b, 1.0);
        for _ in 0..8 {
            let t = ctx.create_store(vec![n], "t");
            ctx.submit(
                add,
                "add",
                vec![
                    StoreArg::new(a.id(), p.clone(), Privilege::Read),
                    StoreArg::new(b.id(), p.clone(), Privilege::Read),
                    StoreArg::new(t.id(), p.clone(), Privilege::Write),
                ],
                vec![],
            );
            drop(t);
        }
        ctx.flush();
        assert!(ctx.stats().current_window_size > 2);
    }

    /// Store lifetime: a store whose last handle drops is retired by the next
    /// flush, never earlier than its last pending use.
    mod store_lifetime {
        use super::*;
        use runtime::ExecutorKind;

        #[test]
        fn bookkeeping_stays_bounded_by_the_live_handles() {
            // 1 000 iterations of a CG-style update `x = 0.5 x + b` over fresh
            // arrays, flushed each iteration: the superseded iterate and the
            // temporary die every time, so what the context keeps must not
            // grow with the iterations it has run.
            let ctx = ctx_with_gpus(2);
            let (add, scale) = (register_add(&ctx), register_scale(&ctx));
            let n = 16u64;
            let p = block(n, 2);
            let b = ctx.create_store(vec![n], "b");
            let mut x = ctx.create_store(vec![n], "x");
            ctx.write_store(&b, (0..n).map(|i| i as f64).collect());
            ctx.fill(&x, 1.0);
            let mut expected = vec![1.0; n as usize];
            let live_handles = 2;
            for _ in 0..1000 {
                let t = ctx.create_store(vec![n], "t");
                let next = ctx.create_store(vec![n], "x");
                ctx.task(scale).read(&x, p.clone()).write(&t, p.clone()).scalar(0.5).launch();
                ctx.task(add)
                    .read(&t, p.clone())
                    .read(&b, p.clone())
                    .write(&next, p.clone())
                    .launch();
                drop(t);
                x = next;
                ctx.flush();
                for (i, e) in expected.iter_mut().enumerate() {
                    *e = *e * 0.5 + i as f64;
                }
                let inner = ctx.inner.borrow();
                let with_region = inner.stores.values().filter(|m| m.region.is_some()).count();
                assert!(inner.stores.len() <= live_handles + 2, "{}", inner.stores.len());
                assert!(with_region <= live_handles + 2, "{with_region}");
            }
            assert_eq!(ctx.read_store(&x).unwrap(), expected);
        }

        #[test]
        fn a_store_dropped_while_pending_tasks_use_it_reads_back_correctly() {
            // `src` is read and `mid` written and then read by tasks still in
            // the window when both handles drop. Unfused, `mid` gets a region
            // of its own; under the work-stealing executor the sweep may run
            // while the launches that use the regions are in flight.
            let run = |config: DiffuseConfig| {
                let ctx = Context::new(config);
                let (add, scale) = (register_add(&ctx), register_scale(&ctx));
                let n = 32u64;
                let p = block(n, 4);
                let out = ctx.create_store(vec![n], "out");
                let src = ctx.create_store(vec![n], "src");
                let mid = ctx.create_store(vec![n], "mid");
                ctx.write_store(&src, (0..n).map(|i| i as f64).collect());
                ctx.task(scale).read(&src, p.clone()).write(&mid, p.clone()).scalar(2.0).launch();
                ctx.task(add)
                    .read(&mid, p.clone())
                    .read(&src, p.clone())
                    .write(&out, p.clone())
                    .launch();
                drop((src, mid));
                ctx.flush();
                let live = ctx.inner.borrow().stores.len();
                (ctx.read_store(&out).unwrap(), live)
            };
            let expected: Vec<f64> = (0..32).map(|i| 3.0 * i as f64).collect();
            let machine = || MachineConfig::with_gpus(4);
            for executor in [ExecutorKind::Serial, ExecutorKind::WorkStealing { workers: Some(2) }] {
                for config in [DiffuseConfig::fused(machine()), DiffuseConfig::unfused(machine())] {
                    let got = run(config.with_executor(executor));
                    assert_eq!(got, (expected.clone(), 1), "{executor:?}");
                }
            }
        }

        #[test]
        fn an_eliminated_temporary_leaves_the_store_map() {
            let ctx = ctx_with_gpus(4);
            let (add, scale) = (register_add(&ctx), register_scale(&ctx));
            let n = 32u64;
            let p = block(n, 4);
            let a = ctx.create_store(vec![n], "a");
            let out = ctx.create_store(vec![n], "out");
            ctx.fill(&a, 1.0);
            let t = ctx.create_store(vec![n], "t");
            let temporary = t.id();
            ctx.task(add).read(&a, p.clone()).read(&a, p.clone()).write(&t, p.clone()).launch();
            ctx.task(scale).read(&t, p.clone()).write(&out, p).scalar(0.5).launch();
            drop(t);
            ctx.flush();
            assert_eq!(ctx.read_store(&out).unwrap(), vec![1.0; 32]);
            assert_eq!(ctx.stats().distributed_allocations_avoided, 1);
            assert!(!ctx.inner.borrow().stores.contains_key(&temporary));
        }

        #[test]
        #[should_panic(expected = "unknown store")]
        fn submitting_a_retired_store_fails_loudly() {
            let ctx = ctx_with_gpus(2);
            let add = register_add(&ctx);
            let p = block(16, 2);
            let a = ctx.create_store(vec![16], "a");
            ctx.fill(&a, 1.0);
            let t = ctx.create_store(vec![16], "t");
            let retired = t.id();
            let args = || {
                vec![
                    StoreArg::new(a.id(), p.clone(), Privilege::Read),
                    StoreArg::new(a.id(), p.clone(), Privilege::Read),
                    StoreArg::new(retired, p.clone(), Privilege::Write),
                ]
            };
            ctx.submit(add, "add", args(), vec![]);
            drop(t);
            ctx.flush();
            ctx.submit(add, "add", args(), vec![]);
        }
    }
}
