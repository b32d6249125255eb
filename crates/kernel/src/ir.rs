//! The kernel IR: buffers, loop kernels, opaque kernels and modules.
//!
//! A [`KernelModule`] is the unit the JIT compiles: a sequence of stages, each
//! of which is either a dense loop over the elements of one buffer
//! ([`LoopKernel`], standing in for an `affine.for` nest over `memref`s) or an
//! opaque builtin with an irregular access pattern ([`OpaqueOp`], e.g. CSR
//! SpMV), which cannot be loop-fused but can still be sequenced inside a fused
//! task.

/// Identifies one buffer (a `memref` argument or task-local allocation) of a
/// kernel module. Buffers `0..num_args` are the fused task's store arguments
/// in order; higher ids are task-local temporaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub u32);

/// Identifies an SSA value inside one loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

/// How a buffer is used by the module, mirroring task privileges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BufferRole {
    /// Read-only input.
    #[default]
    Input,
    /// Write-only output.
    Output,
    /// Read and written.
    InOut,
    /// Reduction target (e.g. the scalar output of a dot product).
    Reduction,
    /// Task-local temporary: not visible outside the fused task and therefore
    /// a candidate for elimination by the pipeline.
    Local,
}

/// Unary arithmetic operators (a subset of the `arith`/`math` dialects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Absolute value.
    Abs,
    /// Error function (used by the Black-Scholes normal CDF).
    Erf,
    /// Reciprocal `1/x`.
    Recip,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Power `a^b`.
    Pow,
}

/// Reduction operators for scalar accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum reduction.
    Sum,
    /// Max reduction.
    Max,
    /// Min reduction.
    Min,
}

impl ReduceOp {
    /// Identity element of the reduction.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    /// Applies the reduction to two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// One operation in a loop body. Values are in SSA form: each `dst` is
/// assigned exactly once per iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopOp {
    /// Load element `i` of a buffer.
    Load { dst: ValueId, buffer: BufferId },
    /// Load element 0 of a buffer regardless of the loop index (a broadcast
    /// of a scalar store, e.g. the result of an earlier dot product).
    LoadScalar { dst: ValueId, buffer: BufferId },
    /// A floating point constant.
    Const { dst: ValueId, value: f64 },
    /// The `index`-th scalar parameter of the kernel.
    Param { dst: ValueId, index: usize },
    /// A unary arithmetic operation.
    Unary { dst: ValueId, op: UnaryOp, a: ValueId },
    /// A binary arithmetic operation.
    Binary {
        dst: ValueId,
        op: BinaryOp,
        a: ValueId,
        b: ValueId,
    },
    /// Store a value to element `i` of a buffer.
    Store { buffer: BufferId, src: ValueId },
    /// Accumulate a value into element 0 of a scalar reduction buffer.
    Reduce {
        buffer: BufferId,
        op: ReduceOp,
        src: ValueId,
    },
}

impl LoopOp {
    /// The value defined by this op, if any.
    pub fn dst(&self) -> Option<ValueId> {
        match self {
            LoopOp::Load { dst, .. }
            | LoopOp::LoadScalar { dst, .. }
            | LoopOp::Const { dst, .. }
            | LoopOp::Param { dst, .. }
            | LoopOp::Unary { dst, .. }
            | LoopOp::Binary { dst, .. } => Some(*dst),
            LoopOp::Store { .. } | LoopOp::Reduce { .. } => None,
        }
    }

    /// Whether this op performs arithmetic (counts toward the flop estimate).
    pub fn is_arith(&self) -> bool {
        matches!(
            self,
            LoopOp::Unary { .. } | LoopOp::Binary { .. } | LoopOp::Reduce { .. }
        )
    }
}

/// A dense loop over `0..len(domain)` whose body is a straight-line sequence
/// of [`LoopOp`]s. Stands in for an `affine.for`/`affine.parallel` nest.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopKernel {
    /// Human-readable name (the originating task kind).
    pub name: String,
    /// The buffer whose length defines the iteration domain.
    pub domain: BufferId,
    /// The loop body.
    pub ops: Vec<LoopOp>,
    /// Whether the loop has been marked parallel by the pipeline.
    pub parallel: bool,
}

impl LoopKernel {
    /// Buffers loaded elementwise by the body (deduplicated, in first-use order).
    pub fn loaded_buffers(&self) -> Vec<BufferId> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let LoopOp::Load { buffer, .. } = op {
                if !out.contains(buffer) {
                    out.push(*buffer);
                }
            }
        }
        out
    }

    /// Buffers loaded as broadcast scalars by the body (deduplicated).
    pub fn scalar_loaded_buffers(&self) -> Vec<BufferId> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let LoopOp::LoadScalar { buffer, .. } = op {
                if !out.contains(buffer) {
                    out.push(*buffer);
                }
            }
        }
        out
    }

    /// Buffers stored or reduced into by the body (deduplicated).
    pub fn written_buffers(&self) -> Vec<BufferId> {
        let mut out = Vec::new();
        for op in &self.ops {
            let b = match op {
                LoopOp::Store { buffer, .. } | LoopOp::Reduce { buffer, .. } => Some(*buffer),
                _ => None,
            };
            if let Some(b) = b {
                if !out.contains(&b) {
                    out.push(b);
                }
            }
        }
        out
    }

    /// Number of arithmetic operations per iteration.
    pub fn arith_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_arith()).count()
    }

    /// The largest value id used plus one (the size of the scratch table the
    /// interpreter needs).
    pub fn num_values(&self) -> usize {
        self.ops
            .iter()
            .filter_map(LoopOp::dst)
            .map(|v| v.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Width of the integer indices of a sparse matrix, mirroring the paper's
/// controlled comparison against PETSc (which stores coordinates as 32-bit
/// integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexWidth {
    /// 32-bit indices (4 bytes each).
    #[default]
    U32,
    /// 64-bit indices (8 bytes each).
    U64,
}

impl IndexWidth {
    /// Bytes per index.
    pub fn bytes(self) -> u64 {
        match self {
            IndexWidth::U32 => 4,
            IndexWidth::U64 => 8,
        }
    }
}

/// Builtin kernels with irregular access patterns. These cannot be loop-fused
/// with neighbouring stages but participate in fused tasks as-is.
#[derive(Debug, Clone, PartialEq)]
pub enum OpaqueOp {
    /// CSR sparse matrix-vector multiply `y = A * x`.
    SpMvCsr {
        /// Row offsets, length `rows + 1`, stored as f64 values.
        pos: BufferId,
        /// Column indices, length `nnz`, stored as f64 values.
        crd: BufferId,
        /// Nonzero values, length `nnz`.
        vals: BufferId,
        /// Input vector, length `cols`.
        x: BufferId,
        /// Output vector, length `rows`.
        y: BufferId,
        /// Width of the integer coordinates (for the cost model only).
        index_width: IndexWidth,
    },
    /// Dense matrix-vector multiply `y = A * x` with `A` stored row-major and
    /// flattened, `rows = len(y)`, `cols = len(x)`.
    Gemv {
        a: BufferId,
        x: BufferId,
        y: BufferId,
    },
    /// Injection restriction from a fine 1-D grid to a coarse grid of half the
    /// size (used by the geometric multigrid solver).
    Restrict {
        fine: BufferId,
        coarse: BufferId,
    },
    /// Linear prolongation from a coarse 1-D grid to a fine grid of twice the
    /// size.
    Prolong {
        coarse: BufferId,
        fine: BufferId,
    },
}

impl OpaqueOp {
    /// A short display name for profiles and plans.
    pub fn name(&self) -> &'static str {
        match self {
            OpaqueOp::SpMvCsr { .. } => "spmv_csr",
            OpaqueOp::Gemv { .. } => "gemv",
            OpaqueOp::Restrict { .. } => "restrict",
            OpaqueOp::Prolong { .. } => "prolong",
        }
    }

    /// Buffers read by the builtin.
    pub fn read_buffers(&self) -> Vec<BufferId> {
        match self {
            OpaqueOp::SpMvCsr {
                pos, crd, vals, x, ..
            } => vec![*pos, *crd, *vals, *x],
            OpaqueOp::Gemv { a, x, .. } => vec![*a, *x],
            OpaqueOp::Restrict { fine, .. } => vec![*fine],
            OpaqueOp::Prolong { coarse, .. } => vec![*coarse],
        }
    }

    /// Buffers written by the builtin.
    pub fn written_buffers(&self) -> Vec<BufferId> {
        match self {
            OpaqueOp::SpMvCsr { y, .. } => vec![*y],
            OpaqueOp::Gemv { y, .. } => vec![*y],
            OpaqueOp::Restrict { coarse, .. } => vec![*coarse],
            OpaqueOp::Prolong { fine, .. } => vec![*fine],
        }
    }
}

/// One stage of a kernel module.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelStage {
    /// A dense loop.
    Loop(LoopKernel),
    /// An opaque builtin.
    Opaque(OpaqueOp),
}

impl KernelStage {
    /// Buffers whose contents the stage reads: a loop's elementwise then
    /// broadcast loads, an opaque builtin's inputs. A loop's `domain` lends
    /// only its length and is not a read (see
    /// [`KernelStage::referenced_buffers`]).
    pub fn read_buffers(&self) -> Vec<BufferId> {
        match self {
            KernelStage::Loop(l) => {
                let mut out = l.loaded_buffers();
                out.extend(l.scalar_loaded_buffers());
                out
            }
            KernelStage::Opaque(op) => op.read_buffers(),
        }
    }

    /// Buffers the stage stores or reduces into.
    pub fn written_buffers(&self) -> Vec<BufferId> {
        match self {
            KernelStage::Loop(l) => l.written_buffers(),
            KernelStage::Opaque(op) => op.written_buffers(),
        }
    }

    /// Every buffer the stage touches — a loop's `domain`, then reads, then
    /// writes (deduplicated). A buffer absent from this list is never looked
    /// at when the stage executes.
    pub fn referenced_buffers(&self) -> Vec<BufferId> {
        let mut out = match self {
            KernelStage::Loop(l) => vec![l.domain],
            KernelStage::Opaque(_) => Vec::new(),
        };
        for b in self.read_buffers().into_iter().chain(self.written_buffers()) {
            if !out.contains(&b) {
                out.push(b);
            }
        }
        out
    }
}

/// A compilable/executable kernel: a sequence of stages over a set of buffers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelModule {
    /// The stages, executed in order.
    pub stages: Vec<KernelStage>,
    /// Role of each buffer, indexed by [`BufferId`].
    pub roles: Vec<BufferRole>,
}

impl KernelModule {
    /// Creates a module over `num_buffers` buffers, all initially [`BufferRole::Input`].
    pub fn new(num_buffers: u32) -> Self {
        KernelModule {
            stages: Vec::new(),
            roles: vec![BufferRole::Input; num_buffers as usize],
        }
    }

    /// Number of buffers (arguments plus locals).
    pub fn num_buffers(&self) -> u32 {
        self.roles.len() as u32
    }

    /// Sets the role of a buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is out of range.
    pub fn set_role(&mut self, buffer: BufferId, role: BufferRole) {
        self.roles[buffer.0 as usize] = role;
    }

    /// Role of a buffer.
    pub fn role(&self, buffer: BufferId) -> BufferRole {
        self.roles[buffer.0 as usize]
    }

    /// Adds a fresh task-local buffer and returns its id.
    pub fn add_local(&mut self) -> BufferId {
        self.roles.push(BufferRole::Local);
        BufferId(self.roles.len() as u32 - 1)
    }

    /// Appends a loop stage.
    pub fn push_loop(&mut self, kernel: LoopKernel) {
        self.stages.push(KernelStage::Loop(kernel));
    }

    /// Appends an opaque stage.
    pub fn push_opaque(&mut self, op: OpaqueOp) {
        self.stages.push(KernelStage::Opaque(op));
    }

    /// Number of loop stages currently in the module.
    pub fn num_loop_stages(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s, KernelStage::Loop(_)))
            .count()
    }

    /// Number of stages overall (each stage becomes one GPU kernel launch).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total loop-body operations across all loop stages (a proxy for code
    /// size used by the compile-time model).
    pub fn total_ops(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                KernelStage::Loop(l) => l.ops.len(),
                KernelStage::Opaque(_) => 8,
            })
            .sum()
    }

    /// Returns this module with every buffer id rewritten through `map`
    /// (indexed by the old buffer id), in place. Used when splicing a
    /// generated task body into a fused module whose argument order differs,
    /// and to lay a compiled module out for its launch.
    ///
    /// # Panics
    ///
    /// Panics if the map does not cover every buffer referenced by the module.
    pub fn remap_buffers(mut self, map: &[BufferId]) -> KernelModule {
        let remap = |b: BufferId| -> BufferId {
            *map.get(b.0 as usize)
                .unwrap_or_else(|| panic!("buffer {:?} missing from remap table", b))
        };
        for stage in &mut self.stages {
            match stage {
                KernelStage::Loop(l) => {
                    l.domain = remap(l.domain);
                    for op in &mut l.ops {
                        match op {
                            LoopOp::Load { buffer, .. }
                            | LoopOp::LoadScalar { buffer, .. }
                            | LoopOp::Store { buffer, .. }
                            | LoopOp::Reduce { buffer, .. } => *buffer = remap(*buffer),
                            _ => {}
                        }
                    }
                }
                KernelStage::Opaque(op) => {
                    let remap_all = |ids: &mut [&mut BufferId]| {
                        for id in ids {
                            **id = remap(**id);
                        }
                    };
                    match op {
                        OpaqueOp::SpMvCsr {
                            pos,
                            crd,
                            vals,
                            x,
                            y,
                            ..
                        } => remap_all(&mut [pos, crd, vals, x, y]),
                        OpaqueOp::Gemv { a, x, y } => remap_all(&mut [a, x, y]),
                        OpaqueOp::Restrict { fine, coarse } => remap_all(&mut [fine, coarse]),
                        OpaqueOp::Prolong { coarse, fine } => remap_all(&mut [coarse, fine]),
                    }
                }
            }
        }
        self
    }

    /// Appends all stages of `other` (whose buffer ids already refer to this
    /// module's buffer table) after this module's stages.
    pub fn append(&mut self, other: KernelModule) {
        self.stages.extend(other.stages);
    }

    /// Shifts every scalar-parameter index in the module by `offset`. Used
    /// when composing the bodies of several tasks into one fused kernel whose
    /// scalar parameter list is the concatenation of the constituent tasks'
    /// scalars.
    pub fn offset_params(&mut self, offset: usize) {
        for stage in &mut self.stages {
            if let KernelStage::Loop(l) = stage {
                for op in &mut l.ops {
                    if let LoopOp::Param { index, .. } = op {
                        *index += offset;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;

    fn simple_add(out: BufferId, a: BufferId, b: BufferId) -> LoopKernel {
        let mut lb = LoopBuilder::new("add", out);
        let (x, y) = (lb.load(a), lb.load(b));
        let s = lb.add(x, y);
        lb.store(out, s);
        lb.finish()
    }

    #[test]
    fn loop_kernel_buffer_queries() {
        let k = simple_add(BufferId(2), BufferId(0), BufferId(1));
        assert_eq!(k.loaded_buffers(), vec![BufferId(0), BufferId(1)]);
        assert_eq!(k.written_buffers(), vec![BufferId(2)]);
        assert_eq!(k.arith_ops(), 1);
        assert_eq!(k.num_values(), 3);
        // Stage level: the domain is referenced (its length is consulted)
        // without being read, and a buffer used twice is listed once.
        let mut lb = LoopBuilder::new("axpy", BufferId(3));
        let (x, a) = (lb.load(BufferId(1)), lb.load_scalar(BufferId(0)));
        let (y, ax) = (lb.load(BufferId(2)), lb.mul(a, x));
        let s = lb.add(ax, y);
        lb.store(BufferId(2), s);
        let stage = KernelStage::Loop(lb.finish());
        assert_eq!(stage.read_buffers(), vec![BufferId(1), BufferId(2), BufferId(0)]);
        assert_eq!(stage.written_buffers(), vec![BufferId(2)]);
        assert_eq!(
            stage.referenced_buffers(),
            vec![BufferId(3), BufferId(1), BufferId(2), BufferId(0)]
        );
    }

    #[test]
    fn module_roles_and_locals() {
        let mut m = KernelModule::new(2);
        assert_eq!(m.role(BufferId(0)), BufferRole::Input);
        m.set_role(BufferId(1), BufferRole::Output);
        let local = m.add_local();
        assert_eq!(local, BufferId(2));
        assert_eq!(m.role(local), BufferRole::Local);
        assert_eq!(m.num_buffers(), 3);
    }

    #[test]
    fn remap_buffers_rewrites_everything() {
        let mut m = KernelModule::new(3);
        m.push_loop(simple_add(BufferId(2), BufferId(0), BufferId(1)));
        m.push_opaque(OpaqueOp::Gemv {
            a: BufferId(0),
            x: BufferId(1),
            y: BufferId(2),
        });
        let remapped = m.remap_buffers(&[BufferId(5), BufferId(6), BufferId(7)]);
        match &remapped.stages[0] {
            KernelStage::Loop(l) => {
                assert_eq!(l.domain, BufferId(7));
                assert_eq!(l.loaded_buffers(), vec![BufferId(5), BufferId(6)]);
            }
            _ => panic!("expected loop stage"),
        }
        match &remapped.stages[1] {
            KernelStage::Opaque(OpaqueOp::Gemv { a, x, y }) => {
                assert_eq!((*a, *x, *y), (BufferId(5), BufferId(6), BufferId(7)));
            }
            _ => panic!("expected gemv stage"),
        }
    }

    #[test]
    #[should_panic]
    fn remap_missing_entry_panics() {
        let mut m = KernelModule::new(2);
        m.push_loop(simple_add(BufferId(1), BufferId(0), BufferId(0)));
        let _ = m.remap_buffers(&[BufferId(0)]);
    }

    #[test]
    fn reduce_op_identities() {
        assert_eq!(ReduceOp::Sum.identity(), 0.0);
        assert_eq!(ReduceOp::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(ReduceOp::Min.apply(1.0, 2.0), 1.0);
    }

    #[test]
    fn index_width_bytes() {
        assert_eq!(IndexWidth::U32.bytes(), 4);
        assert_eq!(IndexWidth::U64.bytes(), 8);
    }

    #[test]
    fn opaque_read_write_sets() {
        let op = OpaqueOp::SpMvCsr {
            pos: BufferId(0),
            crd: BufferId(1),
            vals: BufferId(2),
            x: BufferId(3),
            y: BufferId(4),
            index_width: IndexWidth::U32,
        };
        assert_eq!(op.read_buffers().len(), 4);
        assert_eq!(op.written_buffers(), vec![BufferId(4)]);
        assert_eq!(op.name(), "spmv_csr");
        let stage = KernelStage::Opaque(op);
        assert_eq!(stage.read_buffers().len(), 4);
        assert_eq!(stage.written_buffers(), vec![BufferId(4)]);
        assert_eq!(stage.referenced_buffers(), (0..5).map(BufferId).collect::<Vec<_>>());
    }

    #[test]
    fn total_ops_counts_opaque_stages() {
        let mut m = KernelModule::new(3);
        m.push_opaque(OpaqueOp::Gemv {
            a: BufferId(0),
            x: BufferId(1),
            y: BufferId(2),
        });
        assert!(m.total_ops() > 0);
        assert_eq!(m.num_loop_stages(), 0);
        assert_eq!(m.num_stages(), 1);
    }
}
