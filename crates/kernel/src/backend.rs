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
//! * [`CompiledKernel`] is the artifact: stage-granular execution over a table
//!   of [`Buffer`]s — dense storage, read-only [`BufferView`]s or writable
//!   [`BufferViewMut`]s straight into region memory — `Send + Sync` so
//!   executors can ship it across worker threads.
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

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use ir::{Rect, Runs};

use crate::cost::CompileTimeModel;
use crate::interp::{ExecError, Interpreter};
use crate::ir::KernelModule;

/// Where the elements of a rect sit inside a row-major array: the rect's
/// volume and, when it is more than one run, its run geometry
/// ([`Rect::runs_in`]). A view narrows its slice to the rect's elements when
/// they are a single run, so that there a logical index is a slice index.
/// [`BufferView`] and [`BufferViewMut`] share it, so reads and writes go by
/// the same runs.
#[derive(Debug, Clone)]
struct Geometry {
    /// Number of elements of the rect.
    len: usize,
    /// The run geometry, when the rect is more than one run.
    strided: Option<Runs>,
}

impl Geometry {
    /// The geometry of `rect` in an array of `data_len` elements and the
    /// given shape, plus the range of the array a view keeps.
    ///
    /// # Panics
    ///
    /// As [`BufferView::new`].
    fn new(data_len: usize, shape: &[u64], rect: &Rect) -> (Self, Range<usize>) {
        assert_eq!(
            data_len as u64,
            shape.iter().product::<u64>(),
            "viewed array does not have shape {shape:?}"
        );
        let runs = rect.runs_in(shape);
        let len = runs.len();
        if runs.is_contiguous() {
            let start = runs.start(0);
            (Geometry { len, strided: None }, start..start + len)
        } else {
            (Geometry { len, strided: Some(runs) }, 0..data_len)
        }
    }

    /// The slice index of logical element `i`.
    #[inline]
    fn index(&self, i: usize) -> usize {
        match &self.strided {
            None => i,
            Some(runs) => {
                assert!(i < self.len, "index {i} outside a view of {} elements", self.len);
                runs.offset(i)
            }
        }
    }

    /// Calls `f(start, at)` for each piece of logical elements
    /// `base..base + n`: slice indices `start..start + at.len()` hold the
    /// piece, `at` is its place within the `n` elements. One piece when the
    /// view is a single run, one per run touched otherwise.
    #[inline]
    fn for_each_run(&self, base: usize, n: usize, mut f: impl FnMut(usize, Range<usize>)) {
        let Some(runs) = &self.strided else {
            return f(base, 0..n);
        };
        assert!(
            base + n <= self.len,
            "range {base}..{} outside a view of {} elements",
            base + n,
            self.len
        );
        let run_len = runs.run_len();
        let (mut run, mut skip, mut done) = (base / run_len, base % run_len, 0);
        while done < n {
            let take = (run_len - skip).min(n - done);
            f(runs.start(run) + skip, done..done + take);
            (run, skip, done) = (run + 1, 0, done + take);
        }
    }

    /// Copies elements `base..base + out.len()` of `data` into `out`.
    #[inline]
    fn read(&self, data: &[f64], base: usize, out: &mut [f64]) {
        self.for_each_run(base, out.len(), |start, at| {
            let len = at.len();
            out[at].copy_from_slice(&data[start..start + len]);
        });
    }

    /// All elements of `data` as one slice: `data` itself when the view is a
    /// single run, a gathered copy otherwise.
    fn dense<'d>(&self, data: &'d [f64]) -> Cow<'d, [f64]> {
        match &self.strided {
            None => Cow::Borrowed(data),
            Some(_) => {
                let mut copy = vec![0.0; self.len];
                self.read(data, 0, &mut copy);
                Cow::Owned(copy)
            }
        }
    }
}

/// A read-only window onto the elements of a rect inside a row-major array —
/// the array's slice plus the rect's run geometry ([`Rect::runs_in`]) —
/// indexed over the rect's *logical* row-major index space `0..len()`, exactly
/// as the dense copy of the rect would be. It is how a kernel reads region
/// memory in place.
///
/// # Example
///
/// ```
/// use ir::Rect;
/// use kernel::BufferView;
///
/// // The 2 x 2 interior of a 4 x 4 array.
/// let array: Vec<f64> = (0..16).map(f64::from).collect();
/// let view = BufferView::new(&array, &[4, 4], &Rect::new(vec![1, 1], vec![3, 3]));
/// assert_eq!((view.len(), view.get(2)), (4, 9.0));
/// let mut row = [0.0; 3];
/// view.read(1, &mut row); // spans the two runs
/// assert_eq!(row, [6.0, 9.0, 10.0]);
/// ```
#[derive(Debug, Clone)]
pub struct BufferView<'a> {
    /// The viewed array, narrowed to the rect when it is a single run.
    data: &'a [f64],
    geometry: Geometry,
}

impl<'a> BufferView<'a> {
    /// Views the elements of `rect` within `data`, a row-major array of the
    /// given shape.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not an array of that shape, the rect rank differs
    /// from the shape rank, or the rect extends outside the shape.
    pub fn new(data: &'a [f64], shape: &[u64], rect: &Rect) -> Self {
        let (geometry, kept) = Geometry::new(data.len(), shape, rect);
        BufferView {
            data: &data[kept],
            geometry,
        }
    }

    /// Number of elements (the rect's volume).
    pub fn len(&self) -> usize {
        self.geometry.len
    }

    /// Whether the view has no elements.
    pub fn is_empty(&self) -> bool {
        self.geometry.len == 0
    }

    /// Element `i` of the rect in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.data[self.geometry.index(i)]
    }

    /// Copies elements `base..base + out.len()` into `out`: one
    /// `copy_from_slice` when the view is a single run, one per run touched
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `len()`.
    #[inline]
    pub fn read(&self, base: usize, out: &mut [f64]) {
        self.geometry.read(self.data, base, out);
    }
}

/// The writable counterpart of [`BufferView`]: the same window onto the
/// elements of a rect inside a row-major array, over the same logical index
/// space and run geometry, through which a kernel also stores into the
/// array. It is how a kernel writes region memory in place.
///
/// # Example
///
/// ```
/// use ir::Rect;
/// use kernel::BufferViewMut;
///
/// // The 2 x 2 interior of a 4 x 4 array.
/// let mut array = vec![0.0; 16];
/// let mut view = BufferViewMut::new(&mut array, &[4, 4], &Rect::new(vec![1, 1], vec![3, 3]));
/// view.write(1, &[1.0, 2.0]); // spans the two runs
/// view.set(3, 3.0);
/// assert_eq!((view.len(), view.get(2)), (4, 2.0));
/// assert_eq!(array[5..11], [0.0, 1.0, 0.0, 0.0, 2.0, 3.0]);
/// ```
#[derive(Debug)]
pub struct BufferViewMut<'a> {
    /// The viewed array, narrowed to the rect when it is a single run.
    data: &'a mut [f64],
    geometry: Geometry,
}

impl<'a> BufferViewMut<'a> {
    /// Views the elements of `rect` within `data`, a row-major array of the
    /// given shape, for reading and writing.
    ///
    /// # Panics
    ///
    /// As [`BufferView::new`].
    pub fn new(data: &'a mut [f64], shape: &[u64], rect: &Rect) -> Self {
        let (geometry, kept) = Geometry::new(data.len(), shape, rect);
        BufferViewMut {
            data: &mut data[kept],
            geometry,
        }
    }

    /// Number of elements (the rect's volume).
    pub fn len(&self) -> usize {
        self.geometry.len
    }

    /// Whether the view has no elements.
    pub fn is_empty(&self) -> bool {
        self.geometry.len == 0
    }

    /// Element `i` of the rect in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.data[self.geometry.index(i)]
    }

    /// Copies elements `base..base + out.len()` into `out`, as
    /// [`BufferView::read`].
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `len()`.
    #[inline]
    pub fn read(&self, base: usize, out: &mut [f64]) {
        self.geometry.read(self.data, base, out);
    }

    /// Stores `value` as element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: f64) {
        self.data[self.geometry.index(i)] = value;
    }

    /// Stores `values` as elements `base..base + values.len()`: one
    /// `copy_from_slice` when the view is a single run, one per run touched
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `len()`.
    #[inline]
    pub fn write(&mut self, base: usize, values: &[f64]) {
        let data = &mut *self.data;
        self.geometry.for_each_run(base, values.len(), |start, at| {
            data[start..start + at.len()].copy_from_slice(&values[at]);
        });
    }
}

/// One entry of the buffer table a stage executes over
/// ([`CompiledKernel::execute_stage`]): dense storage — task-local buffers
/// and staged requirements — a read-only [`BufferView`] or a writable
/// [`BufferViewMut`] into memory the caller lends, typically region memory.
/// Reads go through [`Buffer::len`], [`Buffer::get`] and [`Buffer::read`],
/// writes through [`Buffer::set`] and [`Buffer::write`], and neither can tell
/// the kinds apart; a stage that *writes* a read-only view entry is rejected
/// with [`ExecError::ReadOnlyBuffer`] before any element runs.
#[derive(Debug)]
pub enum Buffer<'a> {
    /// Owned dense storage.
    Dense(Vec<f64>),
    /// A read-only view of borrowed memory.
    View(BufferView<'a>),
    /// A writable view of borrowed memory.
    ViewMut(BufferViewMut<'a>),
}

impl Buffer<'_> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Buffer::Dense(v) => v.len(),
            Buffer::View(view) => view.len(),
            Buffer::ViewMut(view) => view.len(),
        }
    }

    /// Whether the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            Buffer::Dense(v) => v[i],
            Buffer::View(view) => view.get(i),
            Buffer::ViewMut(view) => view.get(i),
        }
    }

    /// Copies elements `base..base + out.len()` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `len()`.
    #[inline]
    pub fn read(&self, base: usize, out: &mut [f64]) {
        match self {
            Buffer::Dense(v) => out.copy_from_slice(&v[base..base + out.len()]),
            Buffer::View(view) => view.read(base, out),
            Buffer::ViewMut(view) => view.read(base, out),
        }
    }

    /// Stores `value` as element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or the entry is a read-only view — which a
    /// stage's up-front validation rules out.
    #[inline]
    pub fn set(&mut self, i: usize, value: f64) {
        match self {
            Buffer::Dense(v) => v[i] = value,
            Buffer::ViewMut(view) => view.set(i, value),
            Buffer::View(_) => unreachable!("stage validation rejects writes to read-only views"),
        }
    }

    /// Stores `values` as elements `base..base + values.len()`.
    ///
    /// # Panics
    ///
    /// As [`Buffer::set`], for the range.
    #[inline]
    pub fn write(&mut self, base: usize, values: &[f64]) {
        match self {
            Buffer::Dense(v) => v[base..base + values.len()].copy_from_slice(values),
            Buffer::ViewMut(view) => view.write(base, values),
            Buffer::View(_) => unreachable!("stage validation rejects writes to read-only views"),
        }
    }

    /// All elements as one slice: borrowed from dense storage or a
    /// single-run view, gathered into a copy for a strided view.
    pub(crate) fn dense(&self) -> Cow<'_, [f64]> {
        match self {
            Buffer::Dense(v) => Cow::Borrowed(v),
            Buffer::View(view) => view.geometry.dense(view.data),
            Buffer::ViewMut(view) => view.geometry.dense(view.data),
        }
    }

    /// All elements as one writable slice, when they are one: dense storage
    /// or a single-run writable view.
    pub(crate) fn contiguous_mut(&mut self) -> Option<&mut [f64]> {
        match self {
            Buffer::Dense(v) => Some(v),
            Buffer::ViewMut(view) if view.geometry.strided.is_none() => Some(&mut *view.data),
            _ => None,
        }
    }
}

/// Runs `f` over `buffers` moved into a table of dense entries and moves them
/// back — how the owned-buffer entry points reach the one stage
/// implementation.
pub(crate) fn with_dense_table<R>(
    buffers: &mut [Vec<f64>],
    f: impl FnOnce(&mut [Buffer<'static>]) -> R,
) -> R {
    let mut table: Vec<Buffer<'static>> = buffers
        .iter_mut()
        .map(|b| Buffer::Dense(std::mem::take(b)))
        .collect();
    let result = f(&mut table);
    for (b, entry) in buffers.iter_mut().zip(table) {
        if let Buffer::Dense(v) = entry {
            *b = v;
        }
    }
    result
}

/// An executable kernel artifact produced by a [`KernelBackend`].
///
/// Artifacts are shared (`Arc`) between the memoization cache, task launches
/// and executor workers, hence `Send + Sync`. Execution is exposed at stage
/// granularity because the runtime's coherence protocol moves region data in
/// and out *around each stage* (aliasing views of one region stay coherent
/// through the parent region between stages); [`CompiledKernel::execute`] is
/// the owned-buffer convenience over that.
///
/// The runtime hands a stage one buffer table for the whole launch in which
/// only the buffers of [`crate::KernelStage::referenced_buffers`] are
/// meaningful: a staged requirement the stage does not reference holds
/// whatever an earlier stage left (or nothing), and a local no stage
/// references is an empty `Vec`. An implementation must therefore touch no
/// buffer outside that list, and must write no buffer outside
/// [`crate::KernelStage::written_buffers`] — only those are copied back.
///
/// An entry of the table is a [`Buffer`]: dense storage, or a view of region
/// memory the launch lends — read-only ([`BufferView`]) or writable
/// ([`BufferViewMut`]), in which case a store lands in the region itself. An
/// implementation reads every entry through [`Buffer::len`], [`Buffer::get`]
/// and [`Buffer::read`] and writes only through [`Buffer::set`] and
/// [`Buffer::write`]. It validates **once per stage, before any element
/// runs**, everything that can fail — that no buffer of `written_buffers` is
/// a read-only view ([`ExecError::ReadOnlyBuffer`]), buffer presence and
/// lengths, scalar parameters and value definitions — so a stage that returns
/// an error has written nothing.
pub trait CompiledKernel: std::fmt::Debug + Send + Sync {
    /// The optimized module this artifact was compiled from. The runtime uses
    /// it for cost accounting (`kernel::cost::module_cost`) and to drive the
    /// per-stage copy protocol; backends must return the exact module they
    /// compiled.
    fn module(&self) -> &KernelModule;

    /// Identifier of the backend that produced this artifact (see
    /// [`KernelBackend::id`]).
    fn backend_id(&self) -> &'static str;

    /// Executes stage `stage` of the module over the buffer table `buffers`
    /// (indexed by [`crate::BufferId`]) with the given scalar parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the stage references a buffer or scalar parameter
    /// that is not provided, if buffer lengths are inconsistent with the
    /// stage's iteration domain — the same contract as
    /// [`Interpreter::execute`] — or if the stage writes a buffer bound as a
    /// read-only view. A stage that returns an error has written nothing.
    fn execute_stage(
        &self,
        stage: usize,
        buffers: &mut [Buffer<'_>],
        scalars: &[f64],
    ) -> Result<(), ExecError>;

    /// Executes every stage in order over one set of owned dense buffers.
    ///
    /// # Errors
    ///
    /// First error of any stage, as in [`CompiledKernel::execute_stage`].
    fn execute(&self, buffers: &mut [Vec<f64>], scalars: &[f64]) -> Result<(), ExecError> {
        with_dense_table(buffers, |table| {
            (0..self.module().num_stages())
                .try_for_each(|stage| self.execute_stage(stage, table, scalars))
        })
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
        buffers: &mut [Buffer<'_>],
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

    #[test]
    fn views_index_the_rect_in_row_major_order() {
        let array: Vec<f64> = (0..60).map(f64::from).collect();
        let shape = [3, 4, 5];
        for rect in [
            Rect::new(vec![0, 0, 0], vec![3, 4, 5]), // everything: one run
            Rect::new(vec![1, 0, 0], vec![3, 4, 5]), // coalesced planes
            Rect::new(vec![2, 1, 0], vec![3, 2, 5]), // a single row
            Rect::new(vec![0, 1, 1], vec![3, 3, 4]), // strided in two dimensions
            Rect::new(vec![1, 1, 2], vec![3, 4, 3]), // runs of one element
            Rect::new(vec![1, 2, 2], vec![1, 3, 4]), // no elements
        ] {
            let view = BufferView::new(&array, &shape, &rect);
            let mut dense = Vec::new();
            for i in rect.lo[0]..rect.hi[0] {
                for j in rect.lo[1]..rect.hi[1] {
                    dense.extend((rect.lo[2]..rect.hi[2]).map(|k| ((i * 4 + j) * 5 + k) as f64));
                }
            }
            assert_eq!((view.len(), view.is_empty()), (dense.len(), dense.is_empty()), "{rect}");
            let got: Vec<f64> = (0..view.len()).map(|i| view.get(i)).collect();
            assert_eq!(got, dense, "{rect}");
            // Every sub-range, so reads start and end inside, on and across runs.
            for base in 0..=dense.len() {
                for len in 0..=dense.len() - base {
                    let mut out = vec![f64::NAN; len];
                    view.read(base, &mut out);
                    assert_eq!(out, dense[base..base + len], "{rect} {base}+{len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside a view")]
    fn view_reads_past_the_rect_panic() {
        // In bounds of the array, out of bounds of the rect.
        let array = [0.0; 16];
        let view = BufferView::new(&array, &[4, 4], &Rect::new(vec![1, 1], vec![3, 3]));
        view.read(2, &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "outside a view")]
    fn view_gets_past_the_rect_panic() {
        let array = [0.0; 16];
        BufferView::new(&array, &[4, 4], &Rect::new(vec![1, 1], vec![3, 3])).get(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn views_of_out_of_bounds_rects_panic() {
        let _ = BufferView::new(&[0.0; 4], &[4], &Rect::new(vec![2], vec![6]));
    }

    #[test]
    fn a_write_to_a_view_is_a_structured_error() {
        use crate::ir::{OpaqueOp, ReduceOp};
        // Stage 0 stores into buffer 1, stage 1 reduces into it, stage 2 is
        // an opaque builtin writing it.
        let mut module = scale_module(2.0);
        let mut lb = LoopBuilder::new("sum", BufferId(0));
        let x = lb.load(BufferId(0));
        lb.reduce(BufferId(1), ReduceOp::Sum, x);
        module.push_loop(lb.finish());
        module.push_opaque(OpaqueOp::Restrict {
            fine: BufferId(0),
            coarse: BufferId(1),
        });
        let (input, target) = (vec![1.0, 2.0, 3.0], [7.0; 5]);
        let target_view = BufferView::new(&target, &[5], &Rect::new(vec![1], vec![4]));
        for kind in [BackendKind::Interp, BackendKind::Simd] {
            let compiled = kind.backend().compile(&module).unwrap();
            for stage in 0..3 {
                let mut table = vec![
                    Buffer::Dense(input.clone()),
                    Buffer::View(target_view.clone()),
                ];
                assert_eq!(
                    compiled.execute_stage(stage, &mut table, &[]),
                    Err(ExecError::ReadOnlyBuffer(BufferId(1))),
                    "{kind:?} stage {stage}"
                );
                // The same stage over an input *read* through a view runs.
                let input_view = BufferView::new(&input, &[3], &Rect::new(vec![0], vec![3]));
                let mut table = vec![Buffer::View(input_view), Buffer::Dense(vec![0.0; 3])];
                compiled.execute_stage(stage, &mut table, &[]).unwrap();
            }
        }
    }

    mod view_equivalence {
        //! Differential property: a module run with some of its buffers bound
        //! as views into larger arrays — read-only views for what it never
        //! writes, writable ones for the rest — commits the same bits as the
        //! same module over dense copies of those buffers.

        use std::sync::atomic::{AtomicUsize, Ordering};

        use proptest::prelude::*;

        use super::super::*;
        use crate::builder::LoopBuilder;
        use crate::ir::{BufferId, KernelStage, OpaqueOp, ReduceOp};
        use crate::simd::{LANES, SIMD_CHUNK};

        // Buffers 0-3 are never written (view candidates; 3 is mostly read as
        // a broadcast scalar), 4, 5 and 7 are written elementwise, 6 is the
        // one-element accumulator.
        const READ_ONLY: [u32; 4] = [0, 1, 2, 3];
        const WRITABLE: [u32; 3] = [4, 5, 7];
        const ACC: BufferId = BufferId(6);
        const BUFS: u32 = 8;

        /// Stages that ran on the lane schedule / the per-element schedule /
        /// over a view that one chunk crosses at least three runs of; written
        /// buffers bound as strided writable views.
        static LANE: AtomicUsize = AtomicUsize::new(0);
        static ELEMENTWISE: AtomicUsize = AtomicUsize::new(0);
        static THREE_RUN_CHUNKS: AtomicUsize = AtomicUsize::new(0);
        static STRIDED_WRITABLE: AtomicUsize = AtomicUsize::new(0);

        /// One random stage from four raw draws.
        fn push_stage(module: &mut KernelModule, (kind, a, b, c): (u8, u32, u32, u32)) {
            let pick = |set: &[u32], raw: u32| BufferId(set[raw as usize % set.len()]);
            let (input, dst) = (pick(&READ_ONLY, a), pick(&WRITABLE, c));
            let any = if b % 2 == 0 { pick(&READ_ONLY, b / 2) } else { pick(&WRITABLE, b / 2) };
            // The domain lends only its length: a view serves as well.
            let mut lb = LoopBuilder::new("s", if c % 2 == 0 { input } else { dst });
            match kind {
                // dst = input (+|*) any
                0 => {
                    let (x, y) = (lb.load(input), lb.load(any));
                    let v = if a % 2 == 0 { lb.add(x, y) } else { lb.mul(x, y) };
                    lb.store(dst, v);
                }
                // dst = any * element 0 of a never-written buffer (hoisted)
                1 => {
                    let (x, s) = (lb.load(any), lb.load_scalar(input));
                    let v = lb.mul(x, s);
                    lb.store(dst, v);
                }
                // acc = fold(acc, input * any)
                2 => {
                    let (x, y) = (lb.load(input), lb.load(any));
                    let v = lb.mul(x, y);
                    let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][b as usize % 3];
                    lb.reduce(ACC, op, v);
                }
                // acc += input * acc: every element sees the running value,
                // so only the per-element schedule is exact.
                3 => {
                    let (s, x) = (lb.load_scalar(ACC), lb.load(input));
                    let v = lb.mul(x, s);
                    lb.reduce(ACC, ReduceOp::Sum, v);
                }
                // dst = input + element 0 of dst (per-element again)
                4 => {
                    let (x, s) = (lb.load(input), lb.load_scalar(dst));
                    let v = lb.add(x, s);
                    lb.store(dst, v);
                }
                _ => {
                    module.push_opaque(if a % 2 == 0 {
                        OpaqueOp::Restrict { fine: input, coarse: dst }
                    } else {
                        OpaqueOp::Prolong { coarse: input, fine: dst }
                    });
                    return;
                }
            }
            module.push_loop(lb.finish());
        }

        /// An array and a rect of it holding `rows * run_len` elements:
        /// a 1-D tile, a strided 2-D or 3-D interior, or full-width rows.
        fn geometry(kind: u32, rows: usize, run_len: usize, pad: u64) -> (Vec<u64>, Rect) {
            let (rows, run) = (rows as i64, run_len as i64);
            let (lo, p) = (pad as i64 % 3, pad);
            match kind % 4 {
                0 => (vec![(rows * run) as u64 + 2 * p], Rect::new(vec![lo], vec![lo + rows * run])),
                1 => (
                    vec![rows as u64 + p, run as u64 + 1 + p],
                    Rect::new(vec![lo.min(p as i64), 1], vec![lo.min(p as i64) + rows, 1 + run]),
                ),
                2 => {
                    let inner = if rows % 2 == 0 { 2 } else { 1 };
                    (
                        vec![(rows / inner) as u64 + 1, inner as u64 + p, run as u64 + 1],
                        Rect::new(vec![1, 0, 0], vec![1 + rows / inner, inner, run]),
                    )
                }
                _ => (
                    vec![rows as u64 + 2 * p, run as u64],
                    Rect::new(vec![lo.min(2 * p as i64), 0], vec![lo.min(2 * p as i64) + rows, run]),
                ),
            }
        }

        /// Exact bits, every NaN canonicalised (payloads are not
        /// deterministic; see `crate::simd`).
        fn bits_of(values: impl Iterator<Item = f64>) -> Vec<u64> {
            values.map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() }).collect()
        }

        fn bits(table: &[Buffer<'_>]) -> Vec<Vec<u64>> {
            table.iter().map(|b| bits_of((0..b.len()).map(|i| b.get(i)))).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 160 }))]

            /// Read-only buffers may be [`BufferView`]s and written ones
            /// [`BufferViewMut`]s; the arrays behind the writable views end
            /// up as their old contents with the dense result written over
            /// the rect.
            fn views_match_their_dense_copies(
                stages in prop::collection::vec((0u8..6, 0u32..64, 0u32..64, 0u32..64), 1..5),
                run_len in prop_oneof![
                    Just(1),
                    Just(LANES - 1),
                    Just(LANES + 1),
                    Just(20),
                    Just(SIMD_CHUNK - 1),
                    Just(SIMD_CHUNK + 1),
                    2usize..12,
                ],
                rows in 1usize..if cfg!(miri) { 3 } else { 6 },
                views in prop::collection::vec((0u32..8, 0u64..4), BUFS as usize..BUFS as usize + 1),
                special_stride in 0usize..5,
            ) {
                let n = rows * run_len;
                let mut module = KernelModule::new(BUFS);
                for &stage in &stages {
                    push_stage(&mut module, stage);
                }
                let contents = |b: u32| -> Vec<f64> {
                    let len = if BufferId(b) == ACC { 1 } else { n };
                    (0..len)
                        .map(|i| {
                            if special_stride > 0 && (i + b as usize).is_multiple_of(special_stride + 2) {
                                [f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE / 2.0][i % 4]
                            } else {
                                (b as f64 + 1.0) * 0.375 + i as f64 * 0.25 - 2.0
                            }
                        })
                        .collect()
                };
                // Kinds 4-7 leave the buffer dense: some, all or none are views.
                let placed: Vec<_> = (0..BUFS)
                    .zip(&views)
                    .map(|(b, &(kind, pad))| {
                        (kind < 4).then(|| {
                            let (rows, run_len) = if BufferId(b) == ACC { (1, 1) } else { (rows, run_len) };
                            let (shape, rect) = geometry(kind, rows, run_len, pad);
                            let volume = shape.iter().product::<u64>() as usize;
                            let mut array: Vec<f64> = (0..volume).map(|i| -7e7 - i as f64).collect();
                            let runs = rect.runs_in(&shape);
                            for (i, v) in contents(b).into_iter().enumerate() {
                                array[runs.offset(i)] = v;
                            }
                            if runs.count() >= 3 && 2 * runs.run_len() < SIMD_CHUNK {
                                THREE_RUN_CHUNKS.fetch_add(1, Ordering::Relaxed);
                            }
                            if !READ_ONLY.contains(&b) && !runs.is_contiguous() {
                                STRIDED_WRITABLE.fetch_add(1, Ordering::Relaxed);
                            }
                            (array, shape, rect)
                        })
                    })
                    .collect();
                for stage in &module.stages {
                    if let KernelStage::Loop(l) = stage {
                        let lanes = crate::lower::lower_loop(l).unwrap().vectorized;
                        (if lanes { &LANE } else { &ELEMENTWISE }).fetch_add(1, Ordering::Relaxed);
                    }
                }
                for kind in [BackendKind::Interp, BackendKind::Simd] {
                    let compiled = kind.backend().compile(&module).unwrap();
                    let mut dense: Vec<Buffer<'_>> =
                        (0..BUFS).map(|b| Buffer::Dense(contents(b))).collect();
                    let mut arrays = placed.clone();
                    let mut viewed: Vec<Buffer<'_>> = (0..BUFS)
                        .zip(&mut arrays)
                        .map(|(b, array)| match array {
                            None => Buffer::Dense(contents(b)),
                            Some((array, shape, rect)) => {
                                if READ_ONLY.contains(&b) {
                                    Buffer::View(BufferView::new(array, shape, rect))
                                } else {
                                    Buffer::ViewMut(BufferViewMut::new(array, shape, rect))
                                }
                            }
                        })
                        .collect();
                    for stage in 0..module.num_stages() {
                        let want = compiled.execute_stage(stage, &mut dense, &[]);
                        let got = compiled.execute_stage(stage, &mut viewed, &[]);
                        prop_assert_eq!(&got, &want, "{:?} stage {} of {:?}", kind, stage, module);
                        prop_assert_eq!(got, Ok(()));
                    }
                    prop_assert_eq!(bits(&viewed), bits(&dense), "{:?} {:?}", kind, module);
                    drop(viewed);
                    // Outside its rect an array is untouched; inside, it holds
                    // exactly what writing the dense result over the rect would.
                    for ((before, after), result) in placed.iter().zip(&arrays).zip(&dense) {
                        if let (Some((before, shape, rect)), Some((after, ..))) = (before, after) {
                            let mut want = before.clone();
                            let runs = rect.runs_in(shape);
                            for i in 0..runs.len() {
                                want[runs.offset(i)] = result.get(i);
                            }
                            prop_assert_eq!(
                                bits_of(after.iter().copied()),
                                bits_of(want.into_iter()),
                                "{:?} {:?}", kind, module
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn views_match_their_dense_copies_on_every_schedule() {
            views_match_their_dense_copies();
            // The property above is only as good as what it generated.
            for class in [&LANE, &ELEMENTWISE, &THREE_RUN_CHUNKS, &STRIDED_WRITABLE] {
                assert!(class.load(Ordering::Relaxed) > 0);
            }
        }
    }
}
