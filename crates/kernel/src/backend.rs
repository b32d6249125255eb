//! Kernel execution backends: how an optimized [`KernelModule`] becomes
//! something the runtime can run.
//!
//! The paper's Diffuse JIT-compiles fused kernels with MLIR and memoizes the
//! compiled artifact per canonical window (§5.2, §6). This crate's pipeline
//! ([`crate::passes::Pipeline`]) reproduces the *optimization* half of that
//! story; this module reproduces the *execution* half as an open-ended API so
//! interpreter-vs-JIT becomes a measurable ablation axis:
//!
//! * [`KernelBackend`] turns a module into an executable artifact
//!   ([`KernelBackend::compile`]) and prices that one-time work for the
//!   simulated clock ([`KernelBackend::compile_cost`], consulted together
//!   with the [`CompileTimeModel`] calibration).
//! * [`CompiledKernel`] is the artifact: stage-granular execution over host
//!   buffers, `Send + Sync` so executors can ship it across worker threads.
//!
//! Two backends ship: [`InterpBackend`] wraps the tree-walking
//! [`Interpreter`] (the default — compilation is a no-op wrap, execution
//! matches the historical behavior exactly), and
//! [`crate::simd::SimdBackend`] lowers each loop nest at compile time into
//! pre-resolved micro-op streams executed as lane-parallel arrays-of-lanes
//! kernels with masked tails — a real JIT shape whose one-time cost and
//! faster steady state the cost model prices per backend.
//!
//! Simulated kernel *execution* time comes from `machine::CostModel` and is
//! backend-invariant by design; only compile-time accounting and host
//! wall-clock differ between backends. See `docs/BACKENDS.md`.
//!
//! # Example
//!
//! ```
//! use kernel::{BackendKind, BufferId, BufferRole, KernelModule, LoopBuilder};
//!
//! let mut module = KernelModule::new(2);
//! module.set_role(BufferId(1), BufferRole::Output);
//! let mut lb = LoopBuilder::new("scale", BufferId(0));
//! let x = lb.load(BufferId(0));
//! let c = lb.constant(3.0);
//! let v = lb.mul(x, c);
//! lb.store(BufferId(1), v);
//! module.push_loop(lb.finish());
//!
//! // The same module, executed through every backend, is bitwise identical.
//! let mut results = Vec::new();
//! for kind in [BackendKind::Interp, BackendKind::Simd] {
//!     let compiled = kind.backend().compile(&module).unwrap();
//!     let mut bufs = vec![vec![1.0, 2.0], vec![0.0, 0.0]];
//!     compiled.execute(&mut bufs, &[]).unwrap();
//!     results.push(bufs[1].clone());
//! }
//! assert_eq!(results[0], vec![3.0, 6.0]);
//! assert_eq!(results[0], results[1]);
//! ```

use std::sync::Arc;

use crate::cost::CompileTimeModel;
use crate::interp::{ExecError, Interpreter};
use crate::ir::KernelModule;

/// An executable kernel artifact produced by a [`KernelBackend`].
///
/// Artifacts are shared (`Arc`) between the memoization cache, task launches
/// and executor workers, hence `Send + Sync`. Execution is exposed at stage
/// granularity because the runtime's coherence protocol copies region data in
/// and out *around each stage* (aliasing views of one region stay coherent
/// through the parent region between stages); [`CompiledKernel::execute`] is
/// the single-buffer-set convenience over that.
///
/// The runtime hands a stage one buffer table for the whole launch in which
/// only the buffers of [`crate::KernelStage::referenced_buffers`] are
/// meaningful: a requirement the stage does not reference holds whatever an
/// earlier stage left (or nothing), and a local no stage references is an
/// empty `Vec`. An implementation must therefore touch no buffer outside that
/// list, and must write no buffer outside
/// [`crate::KernelStage::written_buffers`] — only those are copied back.
pub trait CompiledKernel: std::fmt::Debug + Send + Sync {
    /// The optimized module this artifact was compiled from. The runtime uses
    /// it for cost accounting (`kernel::cost::module_cost`) and to drive the
    /// per-stage copy protocol; backends must return the exact module they
    /// compiled.
    fn module(&self) -> &KernelModule;

    /// Identifier of the backend that produced this artifact (see
    /// [`KernelBackend::id`]).
    fn backend_id(&self) -> &'static str;

    /// Executes stage `stage` of the module over `buffers` (indexed by
    /// [`crate::BufferId`]) with the given scalar parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the stage references a buffer or scalar parameter
    /// that is not provided, or if buffer lengths are inconsistent with the
    /// stage's iteration domain — the same contract as
    /// [`Interpreter::execute`].
    fn execute_stage(
        &self,
        stage: usize,
        buffers: &mut [Vec<f64>],
        scalars: &[f64],
    ) -> Result<(), ExecError>;

    /// Executes every stage in order over one buffer set.
    ///
    /// # Errors
    ///
    /// First error of any stage, as in [`CompiledKernel::execute_stage`].
    fn execute(&self, buffers: &mut [Vec<f64>], scalars: &[f64]) -> Result<(), ExecError> {
        for stage in 0..self.module().num_stages() {
            self.execute_stage(stage, buffers, scalars)?;
        }
        Ok(())
    }
}

/// A strategy for turning optimized kernel modules into executable artifacts.
pub trait KernelBackend: std::fmt::Debug + Send + Sync {
    /// Stable identifier of the backend (`"interp"`, `"simd"`, …). Part of
    /// the memoization key: compiled artifacts are cached per
    /// `(canonical window, backend id)`, so two backends never share an
    /// artifact.
    fn id(&self) -> &'static str;

    /// Compiles a module into an executable artifact.
    ///
    /// # Errors
    ///
    /// Returns an error if the module is malformed in a way the backend
    /// detects at compile time (e.g. an SSA value used before definition,
    /// which the SIMD backend rejects while lowering). Well-formed modules
    /// produced by [`crate::builder::LoopBuilder`] always compile.
    fn compile(&self, module: &KernelModule) -> Result<Arc<dyn CompiledKernel>, ExecError>;

    /// Simulated seconds of one-time compilation work for `module`, consulted
    /// by the Diffuse layer on every memoization miss (hits charge nothing).
    /// `model` is the Figure 13 anchor of the paper's MLIR JIT; backends
    /// scale it by how much lowering work they actually do, via the fitted
    /// per-backend calibration ([`CompileTimeModel::calibrated`], measured by
    /// the `calibrate` binary) rather than asserted constants.
    fn compile_cost(&self, module: &KernelModule, model: &CompileTimeModel) -> f64;
}

/// Which kernel backend a context or runtime uses.
///
/// The kind can also be chosen through the `DIFFUSE_BACKEND` environment
/// variable (see [`BackendKind::from_env`]), mirroring `DIFFUSE_EXECUTOR`:
/// it is how the CI matrix and the benchmark binaries force one backend for
/// a whole process.
///
/// # Example
///
/// ```
/// use kernel::BackendKind;
///
/// assert_eq!(BackendKind::default(), BackendKind::Interp);
/// assert_eq!(BackendKind::Simd.id(), "simd");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The tree-walking interpreter (default; the historical behavior).
    #[default]
    Interp,
    /// The SIMD backend: loop nests lowered to lane-parallel
    /// arrays-of-lanes kernels with masked tails.
    Simd,
}

/// The accepted spellings of `DIFFUSE_BACKEND`.
const SPELLINGS: [(&str, BackendKind); 3] = [
    ("interp", BackendKind::Interp),
    ("interpreter", BackendKind::Interp),
    ("simd", BackendKind::Simd),
];

impl BackendKind {
    /// Reads the backend choice from the `DIFFUSE_BACKEND` environment
    /// variable ([`ir::env::choice`]): `simd` selects [`BackendKind::Simd`],
    /// `interp` or `interpreter` select [`BackendKind::Interp`], which is
    /// also the default when the variable is unset or unrecognized.
    ///
    /// # Example
    ///
    /// ```
    /// use kernel::BackendKind;
    ///
    /// // With DIFFUSE_BACKEND unset this is the interpreter default.
    /// let kind = BackendKind::from_env();
    /// assert!(matches!(kind, BackendKind::Interp | BackendKind::Simd));
    /// ```
    pub fn from_env() -> Self {
        ir::env::choice("DIFFUSE_BACKEND", &SPELLINGS, BackendKind::Interp)
    }

    /// The backend's stable identifier.
    pub fn id(self) -> &'static str {
        match self {
            BackendKind::Interp => "interp",
            BackendKind::Simd => "simd",
        }
    }

    /// The next backend in the graceful-degradation chain used when a
    /// backend's compilation fails (fault injection, `docs/RESILIENCE.md`):
    /// simd → interp. The interpreter is the terminal fallback — its
    /// "compilation" is a module wrap that cannot fail — so the chain always
    /// ends with a working artifact.
    ///
    /// # Example
    ///
    /// ```
    /// use kernel::BackendKind;
    ///
    /// assert_eq!(BackendKind::Simd.fallback(), Some(BackendKind::Interp));
    /// assert_eq!(BackendKind::Interp.fallback(), None);
    /// ```
    pub fn fallback(self) -> Option<BackendKind> {
        match self {
            BackendKind::Simd => Some(BackendKind::Interp),
            BackendKind::Interp => None,
        }
    }

    /// Instantiates the backend.
    pub fn backend(self) -> Arc<dyn KernelBackend> {
        match self {
            BackendKind::Interp => Arc::new(InterpBackend),
            BackendKind::Simd => Arc::new(crate::simd::SimdBackend),
        }
    }
}

/// The interpreter backend: "compilation" wraps the module with a
/// tree-walking [`Interpreter`]; every element of every iteration re-matches
/// the IR ops. This is the default backend and preserves the historical
/// behavior (and compile-time accounting) of the reproduction exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpBackend;

impl KernelBackend for InterpBackend {
    fn id(&self) -> &'static str {
        BackendKind::Interp.id()
    }

    fn compile(&self, module: &KernelModule) -> Result<Arc<dyn CompiledKernel>, ExecError> {
        Ok(Arc::new(InterpCompiled {
            module: module.clone(),
            interp: Interpreter::new(),
        }))
    }

    fn compile_cost(&self, module: &KernelModule, model: &CompileTimeModel) -> f64 {
        // The interpreter stands in for the paper's JIT pipeline, so it keeps
        // the unscaled Figure 13 calibration (zero behavior change vs. the
        // pre-backend-API reproduction).
        model.compile_time(module)
    }
}

/// Artifact of the [`InterpBackend`]: the module plus an interpreter.
#[derive(Debug)]
struct InterpCompiled {
    module: KernelModule,
    interp: Interpreter,
}

impl CompiledKernel for InterpCompiled {
    fn module(&self) -> &KernelModule {
        &self.module
    }

    fn backend_id(&self) -> &'static str {
        BackendKind::Interp.id()
    }

    fn execute_stage(
        &self,
        stage: usize,
        buffers: &mut [Vec<f64>],
        scalars: &[f64],
    ) -> Result<(), ExecError> {
        self.interp
            .execute_stage(&self.module.stages[stage], buffers, scalars)
    }
}

/// Compiles a module with the default [`InterpBackend`]. Convenience for
/// tests, examples and callers that build launches by hand and do not care
/// about the backend axis.
///
/// # Example
///
/// ```
/// use kernel::{compile_interp, KernelModule};
///
/// let kernel = compile_interp(KernelModule::new(1));
/// assert_eq!(kernel.backend_id(), "interp");
/// ```
pub fn compile_interp(module: KernelModule) -> Arc<dyn CompiledKernel> {
    InterpBackend
        .compile(&module)
        .expect("interpreter compilation is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::ir::{BufferId, BufferRole};

    fn scale_module(factor: f64) -> KernelModule {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("scale", BufferId(0));
        let x = lb.load(BufferId(0));
        let c = lb.constant(factor);
        let v = lb.mul(x, c);
        lb.store(BufferId(1), v);
        m.push_loop(lb.finish());
        m
    }

    #[test]
    fn interp_backend_executes_like_the_interpreter() {
        let module = scale_module(2.0);
        let compiled = InterpBackend.compile(&module).unwrap();
        assert_eq!(compiled.backend_id(), "interp");
        assert_eq!(compiled.module().num_stages(), 1);
        let mut bufs = vec![vec![1.0, 2.0, 3.0], vec![0.0; 3]];
        compiled.execute(&mut bufs, &[]).unwrap();
        assert_eq!(bufs[1], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn interp_compile_cost_matches_the_calibration() {
        let module = scale_module(2.0);
        let model = CompileTimeModel::default();
        assert_eq!(
            InterpBackend.compile_cost(&module, &model),
            model.compile_time(&module)
        );
    }

    #[test]
    fn backend_kind_ids_and_instantiation() {
        assert_eq!(BackendKind::Interp.id(), "interp");
        assert_eq!(BackendKind::Simd.id(), "simd");
        assert_eq!(BackendKind::Interp.backend().id(), "interp");
        assert_eq!(BackendKind::Simd.backend().id(), "simd");
    }

    #[test]
    fn backend_spellings_resolve_case_insensitively() {
        let pick = |raw| ir::env::resolve("DIFFUSE_BACKEND", raw, &SPELLINGS, BackendKind::Interp);
        assert_eq!(pick(Some("Simd")), BackendKind::Simd);
        assert_eq!(pick(Some(" SIMD ")), BackendKind::Simd);
        assert_eq!(pick(Some("Interpreter")), BackendKind::Interp);
        assert_eq!(pick(None), BackendKind::Interp);
        // The removed backend's spellings are ordinary typos now.
        assert_eq!(pick(Some("closure")), BackendKind::Interp);
        assert_eq!(pick(Some("jit")), BackendKind::Interp);
    }

    #[test]
    fn compile_interp_helper_wraps_the_default_backend() {
        let kernel = compile_interp(scale_module(1.5));
        let mut bufs = vec![vec![2.0], vec![0.0]];
        kernel.execute(&mut bufs, &[]).unwrap();
        assert_eq!(bufs[1], vec![3.0]);
    }
}
