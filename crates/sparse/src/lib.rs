//! A Legate-Sparse-equivalent distributed CSR library targeting Diffuse.
//!
//! Legate Sparse provides SciPy-sparse-style distributed sparse matrices on
//! top of the same runtime stack as cuPyNumeric; the paper's Krylov solvers
//! (CG, BiCGSTAB) and multigrid solver compose it with cuPyNumeric. This
//! crate provides the CSR matrix type and SpMV kernel the reproduction needs,
//! written as a **peer library** against the Diffuse core alone: it registers
//! the `sparse` library namespace on a [`Context`], submits through the typed
//! launch builder, and shares data with other libraries (such as the `dense`
//! crate) purely through [`StoreHandle`]s — the cross-library composition the
//! paper emphasizes. Sparse and dense tasks submitted to one context flow
//! through one fusion window.
//!
//! The CSR coordinate width is configurable ([`IndexWidth`]); the evaluation's
//! controlled comparison against PETSc stores coordinates as 32-bit integers,
//! which is the default here as well.
//!
//! # Example
//!
//! ```
//! use diffuse::{Context, DiffuseConfig};
//! use machine::MachineConfig;
//! use sparse::{CsrMatrix, SparseContext};
//!
//! let ctx = Context::new(DiffuseConfig::fused(MachineConfig::single_node(2)));
//! let sp = SparseContext::new(&ctx);
//! // The 2-point Laplacian of a 4-cell 1-D grid.
//! let a = CsrMatrix::from_dense(&sp, 4, 4, &|r, c| {
//!     if r == c { 2.0 } else if r.abs_diff(c) == 1 { -1.0 } else { 0.0 }
//! });
//! // Cross-library sharing happens through store handles: any store of the
//! // right length works as the input vector.
//! let x = ctx.create_store(vec![4], "x");
//! ctx.fill(&x, 1.0);
//! let y = a.spmv(&x);
//! assert_eq!(ctx.read_store(&y).unwrap(), vec![1.0, 0.0, 0.0, 1.0]);
//! ```

use diffuse::{Context, Library, StoreHandle, TaskSignature};
use ir::Partition;
use kernel::{BufferId, BufferRole, IndexWidth, KernelModule, OpaqueOp, TaskKind};

/// The sparse library: registers the `sparse` namespace with its SpMV
/// generators and builds CSR matrices.
#[derive(Clone, Debug)]
pub struct SparseContext {
    ctx: Context,
    lib: Library,
    spmv32: TaskKind,
    spmv64: TaskKind,
}

fn spmv_generator(width: IndexWidth) -> impl Fn(&kernel::GenArgs<'_>) -> KernelModule {
    move |_args| {
        let mut m = KernelModule::new(5);
        m.set_role(BufferId(4), BufferRole::Output);
        m.push_opaque(OpaqueOp::SpMvCsr {
            pos: BufferId(0),
            crd: BufferId(1),
            vals: BufferId(2),
            x: BufferId(3),
            y: BufferId(4),
            index_width: width,
        });
        m
    }
}

impl SparseContext {
    /// Creates the sparse library over a Diffuse context. Any other library
    /// registered on the same context shares its task window, so sparse and
    /// dense tasks fuse across the library boundary.
    pub fn new(ctx: &Context) -> Self {
        let spmv_sig = || TaskSignature::new().read().read().read().read().write();
        let lib = ctx.register_library("sparse");
        let spmv32 = lib.register("spmv_csr_u32", spmv_sig(), spmv_generator(IndexWidth::U32));
        let spmv64 = lib.register("spmv_csr_u64", spmv_sig(), spmv_generator(IndexWidth::U64));
        SparseContext {
            ctx: ctx.clone(),
            lib,
            spmv32,
            spmv64,
        }
    }

    /// The Diffuse context the library is registered on.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The library namespace this context registered.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// Creates a store initialized with host data (no simulated cost).
    fn store_from_vec(&self, name: &str, data: Vec<f64>) -> StoreHandle {
        let handle = self.ctx.create_store(vec![data.len() as u64], name);
        self.ctx.write_store(&handle, data);
        handle
    }
}

/// A distributed CSR sparse matrix.
///
/// Row offsets, column indices and values are ordinary Diffuse stores (held
/// as dense arrays of `f64`, with indices stored as exact integers in the f64
/// mantissa), partitioned by row blocks / nonzero blocks across the machine.
/// The stores are plain [`StoreHandle`]s: other libraries can read or extend
/// them without the sparse library's involvement.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    ctx: SparseContext,
    /// Row offsets, length `rows + 1`.
    pub pos: StoreHandle,
    /// Column indices, length `nnz`.
    pub crd: StoreHandle,
    /// Nonzero values, length `nnz`.
    pub vals: StoreHandle,
    rows: u64,
    cols: u64,
    nnz: u64,
    index_width: IndexWidth,
}

impl CsrMatrix {
    /// Builds a CSR matrix from an element function over a dense index space.
    /// Only nonzero entries are stored.
    pub fn from_dense(
        ctx: &SparseContext,
        rows: u64,
        cols: u64,
        f: &dyn Fn(u64, u64) -> f64,
    ) -> CsrMatrix {
        let mut pos = Vec::with_capacity(rows as usize + 1);
        let mut crd = Vec::new();
        let mut vals = Vec::new();
        pos.push(0.0);
        for r in 0..rows {
            for c in 0..cols {
                let v = f(r, c);
                if v != 0.0 {
                    crd.push(c as f64);
                    vals.push(v);
                }
            }
            pos.push(crd.len() as f64);
        }
        Self::from_csr_parts(ctx, rows, cols, pos, crd, vals)
    }

    /// Builds a CSR matrix from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent.
    pub fn from_csr_parts(
        ctx: &SparseContext,
        rows: u64,
        cols: u64,
        pos: Vec<f64>,
        crd: Vec<f64>,
        vals: Vec<f64>,
    ) -> CsrMatrix {
        assert_eq!(pos.len() as u64, rows + 1, "pos must have rows + 1 entries");
        assert_eq!(crd.len(), vals.len(), "crd and vals must have equal length");
        let nnz = crd.len() as u64;
        CsrMatrix {
            pos: ctx.store_from_vec("pos", pos),
            crd: ctx.store_from_vec("crd", if crd.is_empty() { vec![0.0] } else { crd }),
            vals: ctx.store_from_vec("vals", if vals.is_empty() { vec![0.0] } else { vals }),
            ctx: ctx.clone(),
            rows,
            cols,
            nnz,
            index_width: IndexWidth::U32,
        }
    }

    /// The standard 5-point Laplacian of an `n x n` grid (the matrix used by
    /// the paper's CG/BiCGSTAB/GMG weak-scaling studies).
    pub fn poisson_2d(ctx: &SparseContext, n: u64) -> CsrMatrix {
        let size = n * n;
        // Five entries per row, less the 4n neighbours that fall off the
        // grid's four edges: reserving exactly that means set-up never
        // regrows (and frees) the two vectors.
        let nnz = (5 * size - 4 * n) as usize;
        let mut pos = Vec::with_capacity(size as usize + 1);
        let mut crd = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        pos.push(0.0);
        for i in 0..n {
            for j in 0..n {
                let mut push = |r: i64, c: i64, v: f64| {
                    if r >= 0 && c >= 0 && (r as u64) < n && (c as u64) < n {
                        crd.push((r as u64 * n + c as u64) as f64);
                        vals.push(v);
                    }
                };
                push(i as i64 - 1, j as i64, -1.0);
                push(i as i64, j as i64 - 1, -1.0);
                push(i as i64, j as i64, 4.0);
                push(i as i64, j as i64 + 1, -1.0);
                push(i as i64 + 1, j as i64, -1.0);
                pos.push(crd.len() as f64);
            }
        }
        debug_assert_eq!(crd.len(), nnz);
        Self::from_csr_parts(ctx, size, size, pos, crd, vals)
    }

    /// Builds a CSR matrix *symbolically*: the stores have the right shapes
    /// (so the cost model sees the right data volumes) but no host data is
    /// generated. Used by the benchmark harness for machine-scale problem
    /// sizes in simulation-only mode; must not be used functionally.
    pub fn symbolic(ctx: &SparseContext, rows: u64, cols: u64, nnz: u64) -> CsrMatrix {
        CsrMatrix {
            pos: ctx.ctx.create_store(vec![rows + 1], "pos"),
            crd: ctx.ctx.create_store(vec![nnz.max(1)], "crd"),
            vals: ctx.ctx.create_store(vec![nnz.max(1)], "vals"),
            ctx: ctx.clone(),
            rows,
            cols,
            nnz,
            index_width: IndexWidth::U32,
        }
    }

    /// Symbolic variant of [`CsrMatrix::poisson_2d`]: the 5-point stencil has
    /// `5 n^2 - 4 n` stored nonzeros.
    pub fn poisson_2d_symbolic(ctx: &SparseContext, n: u64) -> CsrMatrix {
        Self::symbolic(ctx, n * n, n * n, 5 * n * n - 4 * n)
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Sets the coordinate width used by the cost model (the paper's PETSc
    /// comparison stores coordinates as 32-bit integers).
    pub fn with_index_width(mut self, width: IndexWidth) -> Self {
        self.index_width = width;
        self
    }

    /// Sparse matrix-vector product `self @ x`, returning the handle of a
    /// fresh result store of length [`CsrMatrix::rows`].
    ///
    /// `x` may be any store of length [`CsrMatrix::cols`] — typically one
    /// produced by another library (a dense array's handle, a stencil grid):
    /// cross-library data sharing is by store handle, and the submitted task
    /// joins the shared window where it can fuse with the surrounding dense
    /// or stencil tasks.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn spmv(&self, x: &StoreHandle) -> StoreHandle {
        assert_eq!(x.volume(), self.cols, "dimension mismatch in spmv");
        let np = &self.ctx.ctx;
        let gpus = np.gpus() as u64;
        let y = np.create_store(vec![self.rows], "spmv_y");
        let kind = match self.index_width {
            IndexWidth::U32 => self.ctx.spmv32,
            IndexWidth::U64 => self.ctx.spmv64,
        };
        let block = |len: u64| Partition::block(vec![len.div_ceil(gpus).max(1)]);
        np.task(kind)
            .name("spmv")
            .read(&self.pos, block(self.rows + 1))
            .read(&self.crd, block(self.nnz.max(1)))
            .read(&self.vals, block(self.nnz.max(1)))
            .read(x, Partition::Replicate)
            .write(&y, block(self.rows))
            .launch();
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse::DiffuseConfig;
    use machine::MachineConfig;

    fn setup(gpus: usize) -> (Context, SparseContext) {
        let ctx = Context::new(DiffuseConfig::fused(MachineConfig::with_gpus(gpus)));
        let sp = SparseContext::new(&ctx);
        (ctx, sp)
    }

    fn vector(ctx: &Context, data: Vec<f64>) -> StoreHandle {
        let h = ctx.create_store(vec![data.len() as u64], "v");
        ctx.write_store(&h, data);
        h
    }

    #[test]
    fn spmv_matches_host_matvec() {
        let (ctx, sp) = setup(2);
        let dense_fn = |r: u64, c: u64| ((r * 3 + c) % 5) as f64 - 1.0;
        let a = CsrMatrix::from_dense(&sp, 6, 6, &dense_fn);
        let xv: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let x = vector(&ctx, xv.clone());
        let ys = ctx.read_store(&a.spmv(&x)).unwrap();
        // Host reference matvec.
        for r in 0..6u64 {
            let expected: f64 = (0..6u64).map(|c| dense_fn(r, c) * xv[c as usize]).sum();
            assert!((ys[r as usize] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn poisson_matrix_properties() {
        let (ctx, sp) = setup(2);
        let n = 4u64;
        let a = CsrMatrix::poisson_2d(&sp, n);
        assert_eq!(a.rows(), 16);
        assert_eq!(a.cols(), 16);
        // 5-point stencil: 5 per interior row minus boundary truncations.
        assert!(a.nnz() > 3 * 16 && a.nnz() < 5 * 16);
        // The Laplacian of a constant vector is zero in the interior.
        let x = vector(&ctx, vec![1.0; 16]);
        let y = ctx.read_store(&a.spmv(&x)).unwrap();
        // Interior point (1,1) -> row 5 has all 5 neighbours: 4 - 4 = 0.
        assert_eq!(y[5], 0.0);
        // Corner point (0,0) -> row 0: 4 - 2 = 2.
        assert_eq!(y[0], 2.0);
    }

    #[test]
    fn index_width_is_configurable() {
        let (_ctx, sp) = setup(2);
        let a = CsrMatrix::poisson_2d(&sp, 2).with_index_width(IndexWidth::U64);
        assert_eq!(a.index_width, IndexWidth::U64);
    }

    #[test]
    fn sparse_registers_its_own_namespace() {
        let (ctx, sp) = setup(2);
        assert_eq!(sp.library().name(), "sparse");
        assert!(sp.library().kind("spmv_csr_u32").is_some());
        assert!(sp.library().kind("spmv_csr_u64").is_some());
        // A second instance gets a fresh namespace: no clobbering.
        let sp2 = SparseContext::new(&ctx);
        assert_ne!(sp.library().id(), sp2.library().id());
        assert_ne!(sp.spmv32, sp2.spmv32);
    }

    #[test]
    fn spmv_tasks_are_attributed_to_the_sparse_library() {
        let (ctx, sp) = setup(2);
        let a = CsrMatrix::poisson_2d(&sp, 2);
        let x = vector(&ctx, vec![1.0; 4]);
        let _ = ctx.read_store(&a.spmv(&x)).unwrap();
        let stats = ctx.stats();
        assert_eq!(stats.library("sparse").unwrap().tasks_submitted, 1);
    }

    #[test]
    #[should_panic]
    fn spmv_dimension_mismatch_panics() {
        let (ctx, sp) = setup(2);
        let a = CsrMatrix::poisson_2d(&sp, 2);
        let x = vector(&ctx, vec![1.0; 3]);
        let _ = a.spmv(&x);
    }
}
