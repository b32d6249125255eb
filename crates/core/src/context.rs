//! The Diffuse context: task window management, fusion, JIT and lowering.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use fusion::{
    explain_window_with, fusible_segments, plan_horizontal, temporary_stores, AdaptiveWindow,
    CanonicalWindow, DepClass, FusedTask, FusionViolation, MemoCache,
};
use ir::fingerprint::{fold_bytes, fold_u64, OFFSET};
use ir::{
    Domain, IndexTask, Partition, PartitionId, Privilege, ShapeId, StoreArg, StoreId, TaskId,
    TaskWindow,
};
use kernel::{
    BufferId, BufferRole, CompileTimeModel, CompiledKernel, GenArgs, GeneratorRegistry,
    KernelBackend, KernelModule, KernelStage, LibraryId, LoopOp, OpaqueOp, Pipeline,
    PipelineConfig, TaskKind, TaskSignature,
};
use runtime::{
    AccessSummary, FaultSite, LaunchFailure, OverheadClass, Profile, RegionId, RegionRequirement,
    Runtime, RuntimeConfig, RuntimeError, TaskLaunch,
};

use crate::config::{AnalyzeMode, DiffuseConfig};
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

/// Cached analysis + compilation result for one canonical window. Each
/// context owns one cache created for its configured backend, so artifacts
/// are keyed by (canonical window, backend) by construction. The compiled
/// artifact is shared behind an `Arc` so a memoization hit clones a pointer,
/// not a buffer layout.
#[derive(Debug, Clone)]
struct MemoEntry {
    prefix_len: usize,
    compiled: Arc<CompiledArtifact>,
}

/// A backend-compiled fused kernel plus the complete **launch skeleton** it
/// was compiled under: everything a memoization hit needs to relaunch the
/// fused window without rebuilding the fused task — the merged arguments in
/// *canonical* store numbering (instantiated against the concrete window via
/// [`TaskWindow::canonical_store`]), their access volumes (a function of the
/// canonical window: shapes and partitions are part of the key), the fused
/// name and the buffer layout.
///
/// The layout — which fused args were demoted to task-local temporaries
/// (this fixes both the requirement/local split and the buffer permutation)
/// and how many generator locals follow — depends on store liveness, which
/// the canonical window does not capture. It is therefore recomputed per
/// launch and the artifact is reused only when it matches: a kernel compiled
/// with an eliminated temporary can never be resurrected for a window where
/// that store is live and must be written.
#[derive(Debug, Clone)]
struct CompiledArtifact {
    kernel: Arc<dyn CompiledKernel>,
    /// Fused name (`fused[a+b+...]`) of the window that was memoized. Task
    /// names are not part of the canonical key, so an isomorphic window
    /// with different task names relaunches under this name — profiles and
    /// diagnostics show the memoized window's name, which identifies the
    /// structure (and the kernel actually run) rather than the instance.
    name: String,
    /// Merged fused args as (canonical store index, partition, privilege).
    args: Vec<(u32, PartitionId, Privilege)>,
    /// Per arg: `Some(access volume over the launch domain)` if the arg was
    /// demoted to a task-local temporary of that length, `None` if it is a
    /// region requirement.
    temp_volumes: Vec<Option<usize>>,
    /// Lengths of the generator-introduced locals, as the module was
    /// verified, optimized and priced on the miss that compiled it.
    generator_local_lens: Vec<usize>,
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
    memo: MemoCache<MemoEntry>,
    backend: Arc<dyn KernelBackend>,
    compile_model: CompileTimeModel,
    stats: ExecutionStats,
    stores: HashMap<StoreId, StoreMeta>,
    next_store: u64,
    next_task: u64,
    /// Reusable per-launch scratch: (library, constituent-task count) pairs of
    /// the prefix being launched. Kept on the context so the hot launch path
    /// never allocates for attribution.
    lib_scratch: Vec<(u16, u32)>,
    /// Reusable launch-skeleton scratch, recovered from the previous
    /// memoized launch's [`TaskLaunch`] so the steady-state replay path
    /// allocates nothing for requirements, scalars or local buffer lengths.
    req_scratch: Vec<RegionRequirement>,
    scalar_scratch: Vec<f64>,
    len_scratch: Vec<usize>,
    /// Resolved concrete stores of the skeleton's canonical arg indices
    /// (cleared and refilled per memoized launch).
    store_scratch: Vec<StoreId>,
    /// Task kinds already run through the privilege-precision lint (the lint
    /// reports once per kind, not once per launch).
    linted_kinds: HashSet<u32>,
    /// Memoized footprint analysis per (task kind, launch-shape fingerprint):
    /// which arguments the analyzer can tighten to read and which have exact
    /// affine access summaries (see `kernel::analyze` and `docs/ANALYZE.md`).
    /// Filled once per distinct key; the per-submit cost after that is one
    /// hash probe.
    analysis: HashMap<(u32, u64), KindAnalysis, FpBuild>,
    /// Inferred module summaries memoized by module content fingerprint, so
    /// two task kinds generating the same kernel share one analysis.
    summaries: HashMap<u64, Arc<kernel::ModuleSummary>>,
    /// Per-launch failure records drained from the runtime across batch
    /// boundaries, kept until [`Context::take_failures`].
    batch_failures: Vec<LaunchFailure>,
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

/// Memoized result of the footprint analysis for one (task kind,
/// launch-shape) combination: per declared argument, whether the analyzer
/// narrows its privilege to read and whether its access summary is exact.
#[derive(Debug, Clone)]
struct KindAnalysis {
    tighten: Vec<bool>,
    exact: Vec<bool>,
}

/// Fingerprint of everything a task kind's generated module depends on: the
/// kind itself, each argument's interned shape and partition, the launch
/// domain, and the scalar parameters (all inputs of `GenArgs`). Pure integer
/// word-wise FNV-1a — no allocation and one multiply per word, because this
/// runs on every submission under [`AnalyzeMode::Inferred`] and the
/// `analysis_overhead` bench gates the whole probe below 2% of the warm
/// path.
fn analysis_key(task: &IndexTask) -> (u32, u64) {
    let mut h = OFFSET;
    let mut mix = |v: u64| h = fold_u64(h, v);
    for arg in &task.args {
        mix(arg.shape.index() as u64);
        mix(arg.partition.index() as u64);
    }
    for &d in task.launch_domain.shape() {
        mix(d);
    }
    for &s in &task.scalars {
        mix(s.to_bits());
    }
    (task.kind, h)
}

/// Hasher for maps keyed by already-mixed fingerprints (the analysis memo):
/// folds the written words FNV-style instead of paying SipHash on the
/// per-submit probe. Not DoS-resistant — fine for keys we compute ourselves.
#[derive(Default)]
struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_bytes(self.0, bytes);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = fold_u64(self.0, v);
    }
}

type FpBuild = std::hash::BuildHasherDefault<FpHasher>;

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

    /// Tallies the libraries contributing to a prefix into the reusable
    /// scratch: one `(library, task count)` pair per distinct library.
    fn collect_libraries(scratch: &mut Vec<(u16, u32)>, tasks: &[IndexTask]) {
        scratch.clear();
        for t in tasks {
            let lib = (t.kind >> 16) as u16;
            match scratch.iter_mut().find(|(l, _)| *l == lib) {
                Some((_, c)) => *c += 1,
                None => scratch.push((lib, 1)),
            }
        }
    }

    /// Attributes one launch to the libraries tallied in `lib_scratch`:
    /// launch counts, cross-library participation, and the launch's simulated
    /// time split proportionally to each library's constituent-task count.
    fn attribute_launch(&mut self, total_tasks: u32, elapsed_delta: f64) {
        let cross = self.lib_scratch.len() > 1;
        if cross {
            self.stats.cross_library_fused_tasks += 1;
        }
        for &(lib, count) in &self.lib_scratch {
            if let Some(ls) = self.stats.per_library.get_mut(lib as usize) {
                ls.launches += 1;
                if cross {
                    ls.cross_library_launches += 1;
                }
                ls.simulated_time += elapsed_delta * count as f64 / total_tasks.max(1) as f64;
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
        let region = self
            .runtime
            .allocate_region(meta.shape.to_vec(), meta.name.clone());
        self.stores.get_mut(&store).unwrap().region = Some(region);
        region
    }

    /// Frees regions of stores with no application references once the window
    /// no longer mentions them.
    fn sweep_dead_stores(&mut self) {
        let pending: HashSet<StoreId> = self
            .window
            .tasks()
            .iter()
            .flat_map(|t| t.stores())
            .collect();
        let dead: Vec<StoreId> = self
            .stores
            .iter()
            .filter(|(id, m)| m.app_refs == 0 && m.region.is_some() && !pending.contains(id))
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            if let Some(region) = self.stores.get_mut(&id).and_then(|m| m.region.take()) {
                let _ = self.runtime.free_region(region);
            }
        }
    }

    /// Access volume of each of a task's store arguments over its launch
    /// domain — the buffer lengths its generator (and the verifier) sees.
    fn task_arg_lens(&self, task: &IndexTask) -> Vec<usize> {
        task.args
            .iter()
            .map(|a| self.access_volume(a.store, &a.partition, &task.launch_domain))
            .collect()
    }

    /// Generates the kernel module for a single task, given the argument
    /// buffer lengths from [`ContextInner::task_arg_lens`].
    fn generate_task_module(&self, task: &IndexTask, arg_lens: &[usize]) -> KernelModule {
        let args = GenArgs {
            buffer_lens: arg_lens,
            scalars: &task.scalars,
        };
        self.registry
            .generate(TaskKind::decode(task.kind), &args)
            .unwrap_or_else(|| {
                panic!(
                    "no generator registered for task kind {}",
                    TaskKind::decode(task.kind)
                )
            })
    }

    /// Kernel-level verification of one generated task module: IR/micro-op
    /// invariants with the concrete buffer lengths, consistency against the
    /// task kind's declared [`TaskSignature`], and the once-per-kind
    /// privilege-precision lint. Returns the rendered violation (routed by
    /// the caller through [`ContextInner::verify_violation`]); lint findings
    /// only warn (over-broad privileges are legal — they just inhibit
    /// fusion).
    fn verify_task_module(
        &mut self,
        task: &IndexTask,
        module: &KernelModule,
        lens: &[usize],
    ) -> Result<(), String> {
        let mut checks = kernel::verify::verify_module(module, Some(lens)).map_err(|e| {
            format!("kernel module of `{}` violates an IR invariant: {e}", task.name)
        })?;
        let kind = TaskKind::decode(task.kind);
        let mut lints = Vec::new();
        if let Some(sig) = self.registry.signature(kind) {
            checks += kernel::verify::verify_against_signature(module, sig).map_err(|e| {
                format!(
                    "kernel of `{}` is inconsistent with its declared signature: {e}",
                    task.name
                )
            })?;
            // Independent cross-check of the analyzer (the PR contract of
            // `AnalyzeMode::Inferred`): every tightened signature must itself
            // survive the translation validator — a read argument the kernel
            // stores or reduces to would be an analyzer soundness bug and
            // fails loudly here.
            if self.config.analyze == AnalyzeMode::Inferred {
                let eff = kernel::analyze::effective_signature(module, sig);
                if eff.is_tightened() {
                    checks += kernel::verify::verify_against_signature(module, &eff.to_signature())
                        .map_err(|e| {
                            format!(
                                "analyzer-tightened signature of `{}` failed independent \
                                 re-verification: {e}",
                                task.name
                            )
                        })?;
                }
            }
            if !self.linted_kinds.contains(&task.kind) {
                lints = kernel::verify::lint_privilege_precision(module, sig);
            }
        }
        if self.linted_kinds.insert(task.kind) {
            for lint in lints {
                self.stats.privilege_lint_warnings += 1;
                eprintln!("diffuse-verify: lint: `{}`: {lint}", task.name);
            }
        }
        self.stats.verification_checks += checks as u64;
        Ok(())
    }

    /// Runs the footprint analyzer over `task`'s generated kernel and
    /// memoizes the result under [`analysis_key`]. The module summary itself
    /// is additionally shared by module content fingerprint, so two kinds
    /// generating identical kernels analyze once. No-op on a cache hit.
    fn ensure_analysis(&mut self, task: &IndexTask) {
        self.ensure_analysis_keyed(analysis_key(task), task);
    }

    /// [`ensure_analysis`](Self::ensure_analysis) with the key already
    /// computed — the per-submit tightening path computes it once and reuses
    /// it for the lookup after the (usually hitting) insertion probe.
    fn ensure_analysis_keyed(&mut self, key: (u32, u64), task: &IndexTask) {
        if self.analysis.contains_key(&key) {
            return;
        }
        let lens = self.task_arg_lens(task);
        let module = self.generate_task_module(task, &lens);
        let summary = match self.summaries.entry(module_content_key(&module)) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                Arc::clone(e.insert(Arc::new(kernel::infer_footprint(&module))))
            }
        };
        let num_args = task.args.len();
        let exact: Vec<bool> = (0..num_args).map(|i| summary.buffer(i).is_exact()).collect();
        let mut tighten = vec![false; num_args];
        if let Some(sig) = self.registry.signature(TaskKind::decode(task.kind)) {
            let eff = kernel::analyze::effective_signature_from_summary(&summary, sig);
            for (arg, _, _) in eff.tightened() {
                if arg < num_args {
                    tighten[arg] = true;
                }
            }
        }
        self.analysis.insert(key, KindAnalysis { tighten, exact });
    }

    /// Whether the kernel-level access summary for `task`'s argument `arg` is
    /// exact (no ⊤ component) — the precondition for classifying a dependence
    /// edge with a constant distance. Reads the memoized analysis only; an
    /// unanalyzed kind is conservatively inexact.
    fn arg_is_exact(&self, task: &IndexTask, arg: usize) -> bool {
        self.analysis
            .get(&analysis_key(task))
            .is_some_and(|a| a.exact.get(arg).copied().unwrap_or(false))
    }

    /// Narrows `task`'s declared privileges to what its kernel provably
    /// exercises ([`AnalyzeMode::Inferred`] only): a declared
    /// write/read-write/reduce argument whose kernel never stores or reduces
    /// to the buffer becomes a read. The runtime hands a stage every buffer
    /// it references whatever the privilege (a staged copy, or — for what the
    /// launch only reads — a view) and writes back only what a stage stored
    /// or reduced to, so the narrowing changes no data — results are bitwise
    /// unchanged while phantom-privilege windows fuse.
    fn tighten_task(&mut self, task: &mut IndexTask) {
        let key = analysis_key(task);
        if !self.analysis.contains_key(&key) {
            self.ensure_analysis_keyed(key, task);
        }
        let Some(analysis) = self.analysis.get(&key) else {
            return;
        };
        let mut tightened = 0;
        for (arg, tighten) in task.args.iter_mut().zip(&analysis.tighten) {
            if *tighten && (arg.privilege.writes() || arg.privilege.reduces()) {
                arg.privilege = Privilege::Read;
                tightened += 1;
            }
        }
        self.stats.privileges_tightened += tightened;
    }

    /// One-pass fusible segmentation of the window (miss path only) with the
    /// why-not explainer over every split boundary: each rejection is
    /// classified ([`DepClass`]) and counted in the per-class rejection
    /// stats. Kinds in the window are analyzed (memoized) first so the
    /// classifier knows which access summaries are exact.
    fn classify_and_segment(&mut self) -> VecDeque<usize> {
        let report = self.explain_window();
        for boundary in &report.boundaries {
            match (&boundary.violation, &boundary.class) {
                (FusionViolation::LaunchDomainMismatch { .. }, _) => {
                    self.stats.rejections_domain_mismatch += 1;
                }
                (FusionViolation::Reduction { .. }, _) => {
                    self.stats.rejections_reduction += 1;
                }
                (_, Some(DepClass::Carried { .. })) => self.stats.rejections_carried += 1,
                _ => self.stats.rejections_unknown += 1,
            }
        }
        report.segments.into()
    }

    /// A structured why-not report over the currently buffered window: the
    /// fusible segmentation plus, per split boundary, the violated
    /// constraint, the dependence classification, and what change would
    /// admit fusion. Does not flush or otherwise perturb the window.
    pub(crate) fn explain_window(&mut self) -> fusion::WindowReport {
        for i in 0..self.window.len() {
            if !self
                .analysis
                .contains_key(&analysis_key(&self.window.tasks()[i]))
            {
                let task = self.window.tasks()[i].clone();
                self.ensure_analysis(&task);
            }
        }
        let this: &ContextInner = self;
        explain_window_with(this.window.tasks(), &|t, arg| this.arg_is_exact(t, arg))
    }

    /// Backend-lowering verification of a module that is about to be (or
    /// was) compiled for real execution: re-lowers each loop through the
    /// configured backend's path and checks register SSA/disjointness.
    fn verify_lowered(&mut self, name: &str, module: &KernelModule) -> Result<(), String> {
        let checks = kernel::verify::verify_lowering(module, self.config.backend).map_err(|e| {
            format!(
                "{:?} lowering of `{name}` violates an invariant: {e}",
                self.config.backend
            )
        })?;
        self.stats.verification_checks += checks as u64;
        Ok(())
    }

    /// Routes one verifier violation according to the fail-fast bit.
    ///
    /// With `verify_fail_fast` on (the default in debug builds) the
    /// violation panics at the check site — the historical behavior, kept so
    /// test suites stop at the first broken invariant. With it off the
    /// violation becomes a structured [`RuntimeError::Verify`] recorded
    /// against the launch: its dependence cone (everything downstream of
    /// `accesses`) is poisoned and skipped, independent work proceeds, and
    /// the record is retrievable via [`Context::take_failures`].
    fn verify_violation(&mut self, launch: &str, detail: String, accesses: &[AccessSummary]) {
        if self.config.verify_fail_fast {
            panic!("diffuse-verify: {detail}");
        }
        eprintln!("diffuse-verify: contained: verification of `{launch}` failed: {detail}");
        let error = RuntimeError::Verify {
            launch: launch.to_string(),
            detail,
        };
        self.runtime.poison_launch(launch, accesses, error);
    }

    /// Access summaries of a launch's store arguments (allocating backing
    /// regions as needed) — the hazard set a contained verification failure
    /// poisons.
    fn poison_accesses(&mut self, args: &[(StoreId, Privilege)]) -> Vec<AccessSummary> {
        args.iter()
            .map(|&(store, privilege)| {
                let region = self.ensure_region(store);
                AccessSummary::from_privilege(region, privilege)
            })
            .collect()
    }

    /// Contains a verification failure of a built fused task: the launch is
    /// never executed; its would-be accesses poison the dependence cone.
    fn poison_fused(&mut self, fused: &FusedTask, detail: String) {
        let args: Vec<(StoreId, Privilege)> =
            fused.args.iter().map(|(s, _, pr)| (*s, *pr)).collect();
        let accesses = self.poison_accesses(&args);
        self.verify_violation(&fused.name, detail, &accesses);
    }

    /// Contains a verification failure of a planned (not yet drained) fused
    /// prefix: drains it — it will not be launched — and fails its cone.
    fn poison_fused_prefix(&mut self, prefix_len: usize, detail: String) {
        let prefix = self.window.drain_prefix(prefix_len);
        let fused = FusedTask::build(prefix);
        self.poison_fused(&fused, detail);
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
    /// window permutation — and the memoized artifact (keyed by
    /// `(CanonicalWindow, backend)` through the per-context cache) simply
    /// carries the degraded tier's kernel.
    fn compile_artifact(&mut self, name: &str, module: &KernelModule) -> Arc<dyn CompiledKernel> {
        if !self.config.materialize_data {
            return kernel::compile_interp(module.clone());
        }
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
                let fallback = fallback.backend();
                return fallback.compile(module).expect("kernel compilation failed");
            }
        }
        self.backend.compile(module).expect("kernel compilation failed")
    }

    /// Launches a single task without fusion. The module is compiled through
    /// the configured backend but charges no simulated compile time: the
    /// unfused baseline models a library of pre-compiled per-task kernels
    /// (only fused windows pay the JIT, as in the paper).
    fn launch_unfused(&mut self, task: IndexTask) {
        Self::collect_libraries(&mut self.lib_scratch, std::slice::from_ref(&task));
        let arg_lens = self.task_arg_lens(&task);
        let module = self.generate_task_module(&task, &arg_lens);
        let max_arg = arg_lens.iter().copied().max().unwrap_or(1);
        let num_locals = module.num_buffers() as usize - task.args.len();
        let local_lens = vec![max_arg; num_locals];
        if self.config.enable_verification {
            let mut lens = arg_lens;
            lens.extend(local_lens.iter().copied());
            let verdict = self
                .verify_task_module(&task, &module, &lens)
                .and_then(|()| self.verify_lowered(&task.name, &module));
            if let Err(detail) = verdict {
                let args: Vec<(StoreId, Privilege)> =
                    task.args.iter().map(|a| (a.store, a.privilege)).collect();
                let accesses = self.poison_accesses(&args);
                self.verify_violation(&task.name, detail, &accesses);
                return;
            }
        }
        let kernel = self.compile_artifact(&task.name, &module);
        // The argument list goes out verbatim (un-merged): nothing is a
        // temporary outside a fused window.
        let args = task.args.iter().map(|a| (a.store, a.partition, a.privilege, None));
        self.launch(kernel, task.name, task.launch_domain, args, &local_lens, task.scalars, 1);
    }

    /// The one launch tail (unfused launch, fused miss, memoized replay):
    /// splits the resolved arguments into region requirements and task-local
    /// temporaries (`Some(volume)` marks a temporary and gives its buffer
    /// length), appends the generator-introduced locals, executes, and books
    /// the launch as `constituents` tasks. The launch's vectors come from and
    /// return to the context's scratch, so the steady-state replay allocates
    /// nothing for requirements, scalars or buffer lengths.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        kernel: Arc<dyn CompiledKernel>,
        name: String,
        launch_domain: Domain,
        args: impl Iterator<Item = (StoreId, PartitionId, Privilege, Option<usize>)>,
        generator_local_lens: &[usize],
        scalars: Vec<f64>,
        constituents: u32,
    ) {
        // Buffer layout (what `launch_fused` remaps a module into): region
        // requirements, then temporaries, then generator-introduced locals.
        let mut requirements = std::mem::take(&mut self.req_scratch);
        let mut local_buffer_lens = std::mem::take(&mut self.len_scratch);
        for (store, partition, privilege, temp_volume) in args {
            match temp_volume {
                None => {
                    let region = self.ensure_region(store);
                    requirements.push(RegionRequirement::new(region, partition, privilege));
                }
                Some(volume) => {
                    local_buffer_lens.push(volume.max(1));
                    self.stats.temporaries_eliminated += 1;
                    if self.stores[&store].region.is_none() {
                        self.stats.distributed_allocations_avoided += 1;
                    }
                }
            }
        }
        local_buffer_lens.extend(generator_local_lens.iter().map(|&len| len.max(1)));
        let mut launch = TaskLaunch {
            name,
            launch_domain,
            requirements,
            kernel,
            scalars,
            local_buffer_lens,
            overhead: OverheadClass::TaskRuntime,
        };
        let t0 = self.runtime.elapsed();
        self.runtime.execute(&launch).expect("launch failed");
        let delta = self.runtime.elapsed() - t0;
        launch.requirements.clear();
        launch.scalars.clear();
        launch.local_buffer_lens.clear();
        self.req_scratch = launch.requirements;
        self.scalar_scratch = launch.scalars;
        self.len_scratch = launch.local_buffer_lens;
        self.stats.tasks_launched += 1;
        if constituents > 1 {
            self.stats.fused_tasks += 1;
        }
        self.attribute_launch(constituents, delta);
    }

    /// Composes, optimizes, compiles (or reuses a memoized compiled
    /// artifact) and launches a fused task built from the first `prefix_len`
    /// buffered tasks.
    ///
    /// On a memoization hit the backend is not consulted at all — the cached
    /// `Arc<dyn CompiledKernel>` is launched directly and no compile time is
    /// charged. On a miss the fused module is composed, optimized, remapped
    /// into launch layout and compiled by the configured backend, which
    /// prices the one-time work via [`KernelBackend::compile_cost`]; the
    /// artifact is then memoized under `memo_key` (the canonical form of the
    /// whole window at probe time).
    fn launch_fused(
        &mut self,
        prefix_len: usize,
        cached: Option<Arc<CompiledArtifact>>,
        memo_key: Option<CanonicalWindow>,
    ) {
        // Re-derive the dependence edges of the planned prefix and check the
        // fusion decision preserves them (translation validation of the
        // window analysis — see `fusion::verify`).
        if self.config.enable_verification {
            match fusion::verify_fused_prefix(&self.window.tasks()[..prefix_len]) {
                Ok(checks) => self.stats.verification_checks += checks as u64,
                Err(e) => {
                    let detail =
                        format!("planned fused prefix violates a dependence invariant: {e}");
                    self.poison_fused_prefix(prefix_len, detail);
                    return;
                }
            }
        }

        // Liveness (which fused args become task-local temporaries) is the
        // only launch input the canonical window does not determine, so it
        // is recomputed per launch — over borrowed window slices, before
        // anything is drained or built.
        let (prefix_slice, pending) = self.window.tasks().split_at(prefix_len);
        let temps: HashSet<StoreId> = if self.config.enable_temp_elimination {
            let stores = &self.stores;
            temporary_stores(prefix_slice, pending, |s| {
                stores.get(&s).map(|m| m.app_refs > 0).unwrap_or(false)
            })
        } else {
            HashSet::new()
        };

        if let Some(art) = &cached {
            // Layout check: the cached artifact was compiled under a
            // particular temporary split; relaunch it directly only if the
            // current liveness agrees. The artifact's canonical indices were
            // assigned over the prefix, which is a prefix of the whole
            // window's first-occurrence numbering, so they resolve through
            // the window's numbering unchanged.
            let layout_matches = art
                .args
                .iter()
                .zip(&art.temp_volumes)
                .all(|((ci, _, _), was_temp)| {
                    let store = self
                        .window
                        .canonical_store(*ci as usize)
                        .expect("cached entry verified against this window");
                    temps.contains(&store) == was_temp.is_some()
                });
            if layout_matches {
                let art = Arc::clone(art);
                self.launch_from_skeleton(prefix_len, &art);
                return;
            }
        }

        // Miss, or a liveness drift on a hit — which recompiles
        // conservatively and re-memoizes. The fast path skipped key
        // construction, so a drift rebuilds the probed window's key here
        // (drift is rare; the steady state never pays this).
        let memo_key = memo_key.or_else(|| {
            if cached.is_some() && self.config.enable_memoization {
                Some(CanonicalWindow::new(self.window.tasks()))
            } else {
                None
            }
        });
        Self::collect_libraries(&mut self.lib_scratch, &self.window.tasks()[..prefix_len]);
        let prefix = self.window.drain_prefix(prefix_len);
        let fused = FusedTask::build(prefix);

        // Which fused args are temporaries (become task-local buffers).
        let is_temp: Vec<bool> = fused.args.iter().map(|(s, _, _)| temps.contains(s)).collect();
        let domain = &fused.launch_domain;
        let arg_volumes: Vec<usize> = fused
            .args
            .iter()
            .map(|(s, p, _)| self.access_volume(*s, p, domain))
            .collect();

        let (module, generator_local_lens) =
            match self.compose_and_optimize(&fused, &is_temp, &arg_volumes) {
                Ok(v) => v,
                Err(detail) => {
                    self.poison_fused(&fused, detail);
                    return;
                }
            };
        if self.config.enable_verification {
            // The optimized composite, still in fused-arg numbering: check
            // IR invariants against the concrete buffer lengths the pipeline
            // was given.
            let mut lens = arg_volumes.clone();
            lens.extend(generator_local_lens.iter().copied());
            match kernel::verify::verify_module(&module, Some(&lens)) {
                Ok(checks) => self.stats.verification_checks += checks as u64,
                Err(e) => {
                    let detail = format!(
                        "optimized module of `{}` violates an IR invariant: {e}",
                        fused.name
                    );
                    self.poison_fused(&fused, detail);
                    return;
                }
            }
        }
        // Into the launch tail's buffer layout: non-temporary args, then
        // temporary args, then generator-introduced locals.
        let num_args = fused.args.len();
        let num_buffers = num_args + generator_local_lens.len();
        let layout = (0..num_args)
            .filter(|&i| !is_temp[i])
            .chain((0..num_args).filter(|&i| is_temp[i]))
            .chain(num_args..num_buffers);
        let mut remap = vec![BufferId(0); num_buffers];
        for (slot, buffer) in layout.enumerate() {
            remap[buffer] = BufferId(slot as u32);
        }
        let module = module.remap_buffers(&remap);
        if self.config.enable_verification {
            // The launch-layout module is what the backend actually lowers.
            if let Err(detail) = self.verify_lowered(&fused.name, &module) {
                self.poison_fused(&fused, detail);
                return;
            }
        }
        let kernel = self.compile_artifact(&fused.name, &module);
        let temp_volumes: Vec<Option<usize>> = is_temp
            .iter()
            .zip(&arg_volumes)
            .map(|(&temp, &volume)| temp.then_some(volume))
            .collect();
        if let Some(key) = memo_key {
            // (Re)memoize the complete launch skeleton so the next
            // isomorphic window relaunches without rebuilding any of it.
            // Canonical indices are assigned by first occurrence across the
            // prefix (a prefix of the window numbering the probe verifies
            // against).
            let mut canon: HashMap<StoreId, u32> = HashMap::new();
            for t in &fused.tasks {
                for a in &t.args {
                    let next = canon.len() as u32;
                    canon.entry(a.store).or_insert(next);
                }
            }
            let canonical_args: Vec<(u32, PartitionId, Privilege)> = fused
                .args
                .iter()
                .map(|(s, p, pr)| (canon[s], *p, *pr))
                .collect();
            self.memo.insert(
                key,
                MemoEntry {
                    prefix_len,
                    compiled: Arc::new(CompiledArtifact {
                        kernel: Arc::clone(&kernel),
                        name: fused.name.clone(),
                        args: canonical_args,
                        temp_volumes: temp_volumes.clone(),
                        generator_local_lens: generator_local_lens.clone(),
                    }),
                },
            );
        }

        let scalars: Vec<f64> = fused
            .tasks
            .iter()
            .flat_map(|t| t.scalars.iter().copied())
            .collect();
        let args = fused
            .args
            .iter()
            .zip(temp_volumes)
            .map(|(&(store, part, priv_), temp)| (store, part, priv_, temp));
        self.launch(
            kernel,
            fused.name,
            fused.launch_domain,
            args,
            &generator_local_lens,
            scalars,
            prefix_len as u32,
        );
    }

    /// The memoization-hit fast path: instantiates a cached launch skeleton
    /// against the current window's concrete stores. No fused task is built,
    /// no access volumes are computed and no name is assembled — the only
    /// per-launch work is resolving canonical indices to store ids, ensuring
    /// backing regions and gathering scalars.
    fn launch_from_skeleton(&mut self, prefix_len: usize, art: &CompiledArtifact) {
        Self::collect_libraries(&mut self.lib_scratch, &self.window.tasks()[..prefix_len]);
        // A fingerprint probe found this skeleton; check the replayed
        // structure actually matches the probe window (a fingerprint
        // collision would be caught here, by construction).
        if self.config.enable_verification {
            match fusion::verify_skeleton(&self.window.tasks()[..prefix_len], &art.args) {
                Ok(checks) => self.stats.verification_checks += checks as u64,
                Err(e) => {
                    let detail = format!(
                        "memo-replayed skeleton `{}` does not match the probe window: {e}",
                        art.name
                    );
                    self.poison_fused_prefix(prefix_len, detail);
                    return;
                }
            }
        }
        let prefix = &self.window.tasks()[..prefix_len];
        let launch_domain = prefix[0].launch_domain.clone();
        let mut scalars = std::mem::take(&mut self.scalar_scratch);
        scalars.extend(prefix.iter().flat_map(|t| t.scalars.iter().copied()));
        // Resolve the skeleton's canonical store indices against this window
        // before draining (draining renumbers the remaining suffix).
        let mut arg_stores = std::mem::take(&mut self.store_scratch);
        arg_stores.extend(art.args.iter().map(|(ci, _, _)| {
            self.window
                .canonical_store(*ci as usize)
                .expect("cached entry verified against this window")
        }));
        drop(self.window.drain_prefix(prefix_len));

        let args = art
            .args
            .iter()
            .zip(&arg_stores)
            .zip(&art.temp_volumes)
            .map(|((&(_, part, priv_), &store), &temp)| (store, part, priv_, temp));
        self.launch(
            Arc::clone(&art.kernel),
            art.name.clone(),
            launch_domain,
            args,
            &art.generator_local_lens,
            scalars,
            prefix_len as u32,
        );
        arg_stores.clear();
        self.store_scratch = arg_stores;
    }

    /// Generates every constituent task's kernel, composes them in program
    /// order, and runs the optimization pipeline. Returns the optimized module
    /// (buffer ids: fused args then generator locals) and the lengths of the
    /// generator-introduced locals. Charges JIT compilation time through the
    /// backend's cost hook (priced from the composed, pre-optimization module
    /// — the backend lowers the whole pipeline input).
    fn compose_and_optimize(
        &mut self,
        fused: &FusedTask,
        is_temp: &[bool],
        arg_volumes: &[usize],
    ) -> Result<(KernelModule, Vec<usize>), String> {
        let mut module = KernelModule::new(fused.args.len() as u32);
        for (i, (_, _, priv_)) in fused.args.iter().enumerate() {
            let role = if is_temp[i] {
                BufferRole::Local
            } else if priv_.reduces() {
                BufferRole::Reduction
            } else if priv_.writes() && priv_.reads() {
                BufferRole::InOut
            } else if priv_.writes() {
                BufferRole::Output
            } else {
                BufferRole::Input
            };
            module.set_role(BufferId(i as u32), role);
        }
        let mut generator_local_lens: Vec<usize> = Vec::new();
        let mut scalar_offset = 0usize;
        for (ti, task) in fused.tasks.iter().enumerate() {
            let arg_lens = self.task_arg_lens(task);
            let mut body = self.generate_task_module(task, &arg_lens);
            let max_arg_vol = arg_lens.iter().copied().max().unwrap_or(1);
            if self.config.enable_verification {
                // Each constituent generator's output is checked before it
                // is composed: arity/role consistency against the declared
                // signature, SSA and bounds against the lengths it was
                // generated for.
                let mut lens = arg_lens;
                let num_locals = body.num_buffers() as usize - task.args.len();
                lens.extend(std::iter::repeat_n(max_arg_vol, num_locals));
                self.verify_task_module(task, &body, &lens)?;
            }
            body.offset_params(scalar_offset);
            scalar_offset += task.scalars.len();
            // Remap: generator buffers 0..args -> fused arg positions;
            // generator locals -> fresh locals in the fused module.
            let mut map: Vec<BufferId> = fused.arg_map[ti]
                .iter()
                .map(|&i| BufferId(i as u32))
                .collect();
            for _ in task.args.len()..body.num_buffers() as usize {
                let local = module.add_local();
                map.push(local);
                generator_local_lens.push(max_arg_vol);
            }
            let remapped = body.remap_buffers(&map);
            module.append(remapped);
        }
        // Charge JIT time for the composed module through the backend's hook.
        self.stats.compile_time += self.backend.compile_cost(&module, &self.compile_model);
        self.stats.compilations += 1;

        // Buffer lengths for the pipeline: fused arg volumes then locals.
        let mut lens: Vec<usize> = arg_volumes.to_vec();
        lens.extend(generator_local_lens.iter().copied());
        let pipeline_config = if self.config.enable_kernel_fusion {
            PipelineConfig::default()
        } else {
            PipelineConfig {
                parallelize: true,
                ..PipelineConfig::disabled()
            }
        };
        // Alias pairs: fused args backed by the same store through different
        // partitions must not be loop-fused (they may overlap in memory).
        let compiled = Pipeline::new(pipeline_config).run(module, &lens);
        Ok((compiled.module, generator_local_lens))
    }

    /// Processes the entire buffered window: repeatedly extract a fusible
    /// prefix (or a single task) and launch it.
    ///
    /// The hot path is allocation-free up to the launch itself: the memo
    /// lookup probes by the window's incrementally maintained fingerprint
    /// (no `CanonicalWindow` is built on a hit), and on misses the fusible
    /// segmentation of the whole window is computed **once** and consumed
    /// front to back, so draining a prefix never re-checks the untouched
    /// suffix.
    fn process_window(&mut self) {
        // Horizontal pass (when enabled): segment the window vertically,
        // pack independent equal-domain segments into launch groups, and
        // reorder the window so each group is contiguous. The vertical
        // analysis below then fuses every group into one wide launch; the
        // memo probe keys on the *permuted* canonical stream, so isomorphic
        // batches replay the packed skeleton regardless of submission order.
        if self.config.enable_task_fusion
            && self.config.enable_horizontal_fusion
            && self.window.len() > 1
        {
            let segments = fusible_segments(self.window.tasks());
            if segments.len() > 1 {
                let plan = plan_horizontal(self.window.tasks(), &segments);
                if !plan.is_identity() {
                    // Independently re-check the planner's claims: every
                    // launch group is pairwise independent (write-disjoint
                    // with matching domains), and the reorder it implies
                    // never flips a dependent pair. A contained violation
                    // (fail-fast off) records the failure and skips the
                    // reorder — the un-permuted window is always legal, so
                    // the plan degrades to vertical-only fusion rather than
                    // failing any launch.
                    let mut plan_ok = true;
                    if self.config.enable_verification {
                        match fusion::verify_horizontal_plan(self.window.tasks(), &segments, &plan)
                        {
                            Ok(checks) => self.stats.verification_checks += checks as u64,
                            Err(e) => {
                                let detail = format!(
                                    "horizontal launch plan violates an independence \
                                     invariant: {e}"
                                );
                                self.verify_violation("horizontal-plan", detail, &[]);
                                plan_ok = false;
                            }
                        }
                    }
                    if plan_ok {
                        let permuted = plan.apply(self.window.tasks());
                        if self.config.enable_verification {
                            match fusion::verify_reorder(self.window.tasks(), &permuted) {
                                Ok(checks) => self.stats.verification_checks += checks as u64,
                                Err(e) => {
                                    let detail = format!(
                                        "horizontal reorder does not preserve the dependence \
                                         order: {e}"
                                    );
                                    self.verify_violation("horizontal-plan", detail, &[]);
                                    plan_ok = false;
                                }
                            }
                        }
                        if plan_ok {
                            self.stats.horizontally_fused_tasks += plan.merged_tasks();
                            self.window.reorder(permuted);
                        }
                    }
                }
            }
        }

        let mut segments: VecDeque<usize> = VecDeque::new();
        let mut segments_valid = false;
        while !self.window.is_empty() {
            if !self.config.enable_task_fusion {
                let task = self.window.drain_prefix(1).pop().unwrap();
                self.launch_unfused(task);
                continue;
            }
            let window_len = self.window.len();
            // Fingerprint-first memo probe; a full canonical key is built
            // only on a miss (to insert after compilation).
            let (prefix_len, cached, memo_key) = if self.config.enable_memoization {
                match self.memo.probe(&self.window) {
                    Some(entry) => {
                        self.stats.memo_hits += 1;
                        (entry.prefix_len, Some(Arc::clone(&entry.compiled)), None)
                    }
                    None => {
                        self.stats.memo_misses += 1;
                        if !segments_valid {
                            segments = self.classify_and_segment();
                            segments_valid = true;
                        }
                        let len = segments.front().copied().unwrap_or(1);
                        (len, None, Some(CanonicalWindow::new(self.window.tasks())))
                    }
                }
            } else {
                if !segments_valid {
                    segments = self.classify_and_segment();
                    segments_valid = true;
                }
                let len = segments.front().copied().unwrap_or(1);
                (len, None, None)
            };
            let prefix_len = prefix_len.min(window_len).max(1);
            // Keep the cached segmentation aligned with the drain. A memoized
            // prefix length always equals the front segment (the memoized
            // decision is a function of the canonical window), but guard by
            // invalidating on any disagreement rather than assuming it.
            if segments_valid {
                if segments.front() == Some(&prefix_len) {
                    segments.pop_front();
                } else {
                    segments_valid = false;
                }
            }
            if prefix_len == 1 && !self.config.enable_kernel_fusion {
                // A singleton prefix with no kernel-level optimization is just
                // an unfused launch.
                let task = self.window.drain_prefix(1).pop().unwrap();
                self.launch_unfused(task);
            } else {
                self.launch_fused(prefix_len, cached, memo_key);
            }
            self.adaptive.record(window_len, prefix_len);
        }
        self.stats.windows_flushed += 1;
        self.stats.current_window_size = self.adaptive.size() as u64;
        self.sweep_dead_stores();
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
        let mut runtime_config = if config.materialize_data {
            RuntimeConfig::functional(config.machine.clone())
                .with_executor(config.executor)
                .with_backend(config.backend)
        } else {
            RuntimeConfig::simulation_only(config.machine.clone()).with_backend(config.backend)
        };
        // Fault injection and recovery are owned by the Diffuse config (so
        // `DIFFUSE_FAULTS` is read once, here) and pushed down: the runtime
        // injects device/region faults per launch, while the compile site is
        // handled in this layer's backend degradation chain.
        runtime_config.fault_plan = config.fault_plan;
        runtime_config = runtime_config.with_recovery(config.recovery);
        let inner = ContextInner {
            adaptive: AdaptiveWindow::new(
                config.initial_window_size.max(1),
                config.max_window_size.max(config.initial_window_size.max(1)),
            ),
            runtime: Runtime::new(runtime_config),
            registry: GeneratorRegistry::new(),
            window: TaskWindow::new(),
            memo: MemoCache::with_capacity_limit(config.memo_capacity.max(1)),
            backend: config.backend.backend(),
            compile_model: CompileTimeModel::default(),
            stats: ExecutionStats::default(),
            stores: HashMap::new(),
            next_store: 0,
            next_task: 0,
            lib_scratch: Vec::new(),
            req_scratch: Vec::new(),
            scalar_scratch: Vec::new(),
            len_scratch: Vec::new(),
            store_scratch: Vec::new(),
            linted_kinds: HashSet::new(),
            analysis: HashMap::default(),
            summaries: HashMap::new(),
            batch_failures: Vec::new(),
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
            let failures = inner.runtime.take_failures();
            inner.batch_failures.extend(failures);
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
    pub fn submit(
        &self,
        kind: TaskKind,
        name: &str,
        args: Vec<StoreArg>,
        scalars: Vec<f64>,
    ) -> TaskId {
        let mut inner = self.inner.borrow_mut();
        let gpus = inner.runtime.gpus() as u64;
        let id = TaskId(inner.next_task);
        inner.next_task += 1;
        // Default launch domain: one point per GPU; libraries express the
        // decomposition through partitions.
        let launch_domain = Domain::linear(gpus);
        self.submit_task_locked(
            &mut inner,
            IndexTask::new(id, kind.encode(), name, launch_domain, args, scalars),
        );
        id
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
        let mut inner = self.inner.borrow_mut();
        let name = {
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
        let launch_domain =
            domain.unwrap_or_else(|| Domain::linear(inner.runtime.gpus() as u64));
        let id = TaskId(inner.next_task);
        inner.next_task += 1;
        self.submit_task_locked(
            &mut inner,
            IndexTask::new(id, kind.encode(), name, launch_domain, args, scalars),
        );
        id
    }

    fn submit_task_locked(&self, inner: &mut ContextInner, mut task: IndexTask) {
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
        // Privilege tightening (after shape stamping — the analysis key and
        // the generator both need concrete shapes, and after the debug-only
        // declared-signature validation in `submit`, which checks what the
        // caller passed, not what the analyzer narrowed it to).
        if inner.config.analyze == AnalyzeMode::Inferred {
            inner.tighten_task(&mut task);
        }
        inner.stats.tasks_submitted += 1;
        let lib = (task.kind >> 16) as usize;
        if let Some(ls) = inner.stats.per_library.get_mut(lib) {
            ls.tasks_submitted += 1;
        }
        inner.window.push(task);
        if inner.window.len() >= inner.adaptive.size() {
            inner.process_window();
        }
    }

    /// Explains the currently buffered (unflushed) task window: the fusible
    /// segmentation plus, per split boundary, the violated constraint, the
    /// dependence classification ([`fusion::DepClass`]) and a suggestion
    /// that would admit fusion. Purely observational — the window is neither
    /// flushed nor reordered. See `docs/ANALYZE.md` and `examples/explain.rs`.
    pub fn explain(&self) -> fusion::WindowReport {
        self.inner.borrow_mut().explain_window()
    }

    /// Flushes the task window: analyzes and launches every buffered task
    /// (the `flush_window` operation of Figure 6).
    pub fn flush(&self) {
        let mut inner = self.inner.borrow_mut();
        if !inner.window.is_empty() {
            inner.process_window();
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
        if let Err(e) = inner.runtime.flush_launches() {
            // The record set below carries strictly more detail than the
            // first-error summary.
            let _ = e;
        }
        let mut out = std::mem::take(&mut inner.batch_failures);
        out.extend(inner.runtime.take_failures());
        out
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
    use ir::{Privilege, Projection};
    use kernel::LoopBuilder;
    use machine::MachineConfig;

    /// Registers an elementwise binary-add generator and returns its kind.
    fn register_add(ctx: &Context) -> TaskKind {
        let lib = ctx.register_library("adds");
        lib.register(
            "add",
            TaskSignature::new().read().read().write(),
            |_args| {
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
                    .with_analyze(AnalyzeMode::Declared)
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
        // replays both skeletons.
        assert_eq!(stats.compilations, 2, "packed windows memoize");
        assert!(stats.memo_hits >= 2);
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
    fn contained_verify_errors_fail_only_the_cone() {
        use runtime::RuntimeError;
        // A generator whose kernel is inconsistent with its declared
        // signature: `bad` declares read + write but its module writes the
        // *input* buffer and never touches the output. Pinned to declared
        // privileges: under AnalyzeMode::Inferred the analyzer would tighten
        // the never-exercised write of `t` to a read, the downstream task
        // would genuinely no longer depend on the violating launch, and the
        // poison cone this test pins would (correctly) shrink to just `bad`.
        let ctx = Context::new(
            DiffuseConfig::unfused(MachineConfig::with_gpus(2))
                .with_verification(true)
                .with_verify_fail_fast(false)
                .with_analyze(AnalyzeMode::Declared),
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
}
