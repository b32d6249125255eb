//! Interpreter for kernel modules.
//!
//! The interpreter is the functional backend of the reproduction: it executes
//! compiled kernel modules over real `f64` buffers on the host. Fused and
//! unfused executions of the same program therefore produce comparable
//! numerical results, which the integration tests rely on.

use std::borrow::Cow;

use crate::backend::{with_dense_table, Buffer};
use crate::ir::{
    BinaryOp, BufferId, KernelModule, KernelStage, LoopKernel, LoopOp, OpaqueOp, UnaryOp, ValueId,
};
use crate::math;

/// Errors produced by kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A buffer id referenced by the module is not present in the buffer set.
    MissingBuffer(BufferId),
    /// A scalar parameter index is out of range.
    MissingParam(usize),
    /// Two buffers accessed in the same loop have incompatible lengths.
    LengthMismatch {
        /// The loop's domain buffer.
        domain: BufferId,
        /// The offending buffer.
        buffer: BufferId,
    },
    /// An SSA value was used before being defined.
    UndefinedValue(ValueId),
    /// A stage stores or reduces into a buffer bound as a read-only view
    /// ([`crate::Buffer::View`]).
    ReadOnlyBuffer(BufferId),
    /// A sparse operand's index buffer is not a well-formed CSR structure
    /// (docs/BACKENDS.md, "Opaque stages"): an entry that is not an exact
    /// integer in range, a decreasing row offset, or a buffer too short for
    /// the offsets. Raised before the stage writes anything.
    MalformedIndex {
        /// The offending buffer.
        buffer: BufferId,
        /// The first of its entries that is wrong, or its length when the
        /// buffer is too short.
        position: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingBuffer(b) => write!(f, "buffer {} not provided", b.0),
            ExecError::MissingParam(i) => write!(f, "scalar parameter {i} not provided"),
            ExecError::LengthMismatch { domain, buffer } => write!(
                f,
                "buffer {} is shorter than loop domain buffer {}",
                buffer.0, domain.0
            ),
            ExecError::UndefinedValue(v) => write!(f, "value {} used before definition", v.0),
            ExecError::ReadOnlyBuffer(b) => {
                write!(f, "buffer {} is a read-only view but the stage writes it", b.0)
            }
            ExecError::MalformedIndex { buffer, position } => write!(
                f,
                "buffer {} is not a well-formed sparse index at entry {position}",
                buffer.0
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes kernel modules over host buffers.
#[derive(Debug, Clone, Default)]
pub struct Interpreter;

impl Interpreter {
    /// Creates an interpreter.
    pub fn new() -> Self {
        Interpreter
    }

    /// Executes `module` over `buffers` (indexed by [`BufferId`]) with the
    /// given scalar parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the module references a buffer or parameter that is
    /// not provided, if buffer lengths are inconsistent with a loop's domain,
    /// or if the module is malformed (a value used before definition).
    pub fn execute(
        &self,
        module: &KernelModule,
        buffers: &mut [Vec<f64>],
        scalars: &[f64],
    ) -> Result<(), ExecError> {
        with_dense_table(buffers, |table| {
            module
                .stages
                .iter()
                .try_for_each(|stage| self.execute_stage(stage, table, scalars))
        })
    }

    /// Executes one stage of a module over a buffer table. The runtime's
    /// coherence protocol runs stages one at a time, so backends expose
    /// stage-granular execution; this is the interpreter's implementation.
    ///
    /// # Errors
    ///
    /// Same contract as [`Interpreter::execute`], restricted to one stage,
    /// plus [`ExecError::ReadOnlyBuffer`] if the stage writes a read-only
    /// view entry. Every error is raised before any element runs.
    pub fn execute_stage(
        &self,
        stage: &KernelStage,
        buffers: &mut [Buffer<'_>],
        scalars: &[f64],
    ) -> Result<(), ExecError> {
        match stage {
            KernelStage::Loop(l) => self.execute_loop(l, buffers, scalars),
            KernelStage::Opaque(op) => run_opaque(op, buffers),
        }
    }

    fn execute_loop(
        &self,
        l: &LoopKernel,
        buffers: &mut [Buffer<'_>],
        scalars: &[f64],
    ) -> Result<(), ExecError> {
        let n = buffer_len(buffers, l.domain)?;
        // Validate lengths of every elementwise-accessed buffer up front.
        for b in l.loaded_buffers().into_iter().chain(l.written_buffers()) {
            let is_reduction_target = l.ops.iter().any(
                |op| matches!(op, LoopOp::Reduce { buffer, .. } if *buffer == b),
            );
            let len = buffer_len(buffers, b)?;
            if !is_reduction_target && len < n {
                return Err(ExecError::LengthMismatch {
                    domain: l.domain,
                    buffer: b,
                });
            }
        }
        for b in l.scalar_loaded_buffers() {
            if buffer_len(buffers, b)? == 0 {
                return Err(ExecError::LengthMismatch {
                    domain: l.domain,
                    buffer: b,
                });
            }
        }
        check_writable(buffers, &l.written_buffers())?;
        if n > 0 {
            check_ops(l, scalars)?;
        }
        let mut values = vec![f64::NAN; l.num_values()];
        for i in 0..n {
            for op in &l.ops {
                match *op {
                    LoopOp::Load { dst, buffer } => {
                        values[dst.0 as usize] = buffers[buffer.0 as usize].get(i);
                    }
                    LoopOp::LoadScalar { dst, buffer } => {
                        values[dst.0 as usize] = buffers[buffer.0 as usize].get(0);
                    }
                    LoopOp::Const { dst, value } => values[dst.0 as usize] = value,
                    LoopOp::Param { dst, index } => values[dst.0 as usize] = scalars[index],
                    LoopOp::Unary { dst, op, a } => {
                        values[dst.0 as usize] = apply_unary(op, values[a.0 as usize]);
                    }
                    LoopOp::Binary { dst, op, a, b } => {
                        values[dst.0 as usize] =
                            apply_binary(op, values[a.0 as usize], values[b.0 as usize]);
                    }
                    LoopOp::Store { buffer, src } => {
                        buffers[buffer.0 as usize].set(i, values[src.0 as usize]);
                    }
                    LoopOp::Reduce { buffer, op, src } => {
                        let acc = &mut buffers[buffer.0 as usize];
                        acc.set(0, op.apply(acc.get(0), values[src.0 as usize]));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The error element 0 of a non-empty loop would raise at its first failing
/// op — a scalar parameter not provided, or a value read before the loop
/// defines it — found before any element runs, so a failing stage writes
/// nothing (its buffers may be region memory). Definitions only accumulate
/// from element to element, so once element 0 could run every element can,
/// and the loop itself needs no checks.
fn check_ops(l: &LoopKernel, scalars: &[f64]) -> Result<(), ExecError> {
    let mut defined = vec![false; l.num_values()];
    for op in &l.ops {
        let reads = match *op {
            LoopOp::Param { index, .. } if index >= scalars.len() => {
                return Err(ExecError::MissingParam(index));
            }
            LoopOp::Unary { a, .. }
            | LoopOp::Store { src: a, .. }
            | LoopOp::Reduce { src: a, .. } => [Some(a), None],
            LoopOp::Binary { a, b, .. } => [Some(a), Some(b)],
            _ => [None, None],
        };
        if let Some(v) = reads
            .into_iter()
            .flatten()
            .find(|v| !defined.get(v.0 as usize).copied().unwrap_or(false))
        {
            return Err(ExecError::UndefinedValue(v));
        }
        if let Some(dst) = op.dst() {
            defined[dst.0 as usize] = true;
        }
    }
    Ok(())
}

/// Length of a buffer, or [`ExecError::MissingBuffer`] if it is not provided.
pub(crate) fn buffer_len(buffers: &[Buffer<'_>], b: BufferId) -> Result<usize, ExecError> {
    buffers
        .get(b.0 as usize)
        .map(Buffer::len)
        .ok_or(ExecError::MissingBuffer(b))
}

/// The last of a stage's buffer checks, shared by every backend: a buffer the
/// stage writes must not be a read-only view.
pub(crate) fn check_writable(buffers: &[Buffer<'_>], written: &[BufferId]) -> Result<(), ExecError> {
    match written
        .iter()
        .find(|b| matches!(buffers.get(b.0 as usize), Some(Buffer::View(_))))
    {
        Some(&b) => Err(ExecError::ReadOnlyBuffer(b)),
        None => Ok(()),
    }
}

/// Executes one opaque builtin over a buffer table. Shared by every backend —
/// opaque stages dispatch once per stage (their inner loops are already native
/// Rust), so there is nothing for a compiling backend to specialize and all
/// backends are bitwise-identical on them by construction.
///
/// The inner loops run over plain slices: the output's entry is detached
/// from the table for the duration and written in place — dense storage or a
/// single-run view — or, for a strided view, computed into a dense copy and
/// scattered back by runs. Every input is borrowed in place — dense storage
/// or a single-run view — or, for a strided view, gathered into a dense copy
/// first (`Buffer::dense`). An input that *is* the output reads the output's
/// contents from before the stage.
///
/// Every error — a missing buffer, an input too short for the output
/// ([`check_opaque_lengths`]), a read-only output, a malformed sparse index
/// ([`check_csr`]) — is raised before the output is written.
pub(crate) fn run_opaque(op: &OpaqueOp, buffers: &mut [Buffer<'_>]) -> Result<(), ExecError> {
    let output = op.written_buffers()[0];
    buffer_len(buffers, output)?;
    for b in op.read_buffers() {
        buffer_len(buffers, b)?;
    }
    check_opaque_lengths(op, buffers)?;
    check_writable(buffers, &[output])?;
    let mut entry = std::mem::replace(&mut buffers[output.0 as usize], Buffer::Dense(Vec::new()));
    let old = op
        .read_buffers()
        .contains(&output)
        .then(|| entry.dense().into_owned());
    let input = |b: BufferId| match &old {
        Some(old) if b == output => Cow::Borrowed(&old[..]),
        _ => buffers[b.0 as usize].dense(),
    };
    let result = match entry.contiguous_mut() {
        Some(out) => apply_opaque(op, out, input),
        None => {
            let mut out = vec![0.0; entry.len()];
            apply_opaque(op, &mut out, input).map(|()| entry.write(0, &out))
        }
    };
    buffers[output.0 as usize] = entry;
    result
}

/// The length contract of the dense opaque builtins: a GEMV's matrix holds
/// at least `len(y) · len(x)` entries, and a restriction or prolongation
/// that writes anything reads a non-empty grid. Exactly the inputs that
/// would index out of bounds are rejected, as [`ExecError::LengthMismatch`]
/// with the output as the domain.
fn check_opaque_lengths(op: &OpaqueOp, buffers: &[Buffer<'_>]) -> Result<(), ExecError> {
    let len = |b: BufferId| buffers[b.0 as usize].len();
    let (domain, buffer, short) = match *op {
        OpaqueOp::Gemv { a, x, y } => (y, a, len(a) < len(y).saturating_mul(len(x))),
        OpaqueOp::Restrict { fine, coarse } => (coarse, fine, len(fine) == 0 && len(coarse) > 0),
        OpaqueOp::Prolong { coarse, fine } => (fine, coarse, len(coarse) == 0 && len(fine) > 0),
        OpaqueOp::SpMvCsr { .. } => return Ok(()),
    };
    if short {
        Err(ExecError::LengthMismatch { domain, buffer })
    } else {
        Ok(())
    }
}

/// The arithmetic of an opaque builtin: overwrites every element of `out`
/// from the inputs `input` resolves, or returns the error that stops it
/// before any element is written.
fn apply_opaque<'b>(
    op: &OpaqueOp,
    out: &mut [f64],
    input: impl Fn(BufferId) -> Cow<'b, [f64]>,
) -> Result<(), ExecError> {
    match *op {
        OpaqueOp::SpMvCsr {
            pos, crd, vals, x, ..
        } => {
            let csr = [pos, crd, vals];
            let [pos, crd, vals, x] = [pos, crd, vals, x].map(&input);
            let pos = check_csr(csr, [&pos, &crd, &vals], out.len(), x.len())?;
            spmv(pos, &crd, &vals, &x, out);
        }
        OpaqueOp::Gemv { a, x, .. } => {
            let (a, x) = (input(a), input(x));
            let cols = x.len();
            for (r, y) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for c in 0..cols {
                    acc += a[r * cols + c] * x[c];
                }
                *y = acc;
            }
        }
        OpaqueOp::Restrict { fine, .. } => {
            let fine = input(fine);
            for (i, coarse) in out.iter_mut().enumerate() {
                *coarse = fine[(2 * i).min(fine.len().saturating_sub(1))];
            }
        }
        OpaqueOp::Prolong { coarse, .. } => {
            let coarse = input(coarse);
            let last = coarse.len().saturating_sub(1);
            for (i, fine) in out.iter_mut().enumerate() {
                let c = (i / 2).min(last);
                *fine = match i % 2 {
                    0 => coarse[c],
                    _ => 0.5 * (coarse[c] + coarse[(c + 1).min(last)]),
                };
            }
        }
    }
    Ok(())
}

/// `2⁵²`. Added to an integer in `[0, 2⁵²)` it gives a double whose mantissa
/// bits *are* that integer ([`index`]).
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Whether `c` is an integer in `[0, limit)`, for a `limit` of at most
/// [`TWO_52`]: the values [`index`] converts exactly. NaN and ±∞ fail the
/// compares; `c + 2⁵²` rounds `c` to an integer, so the round trip holds
/// only for one. `-0.0` passes, as `0`.
#[inline(always)]
fn is_index(c: f64, limit: f64) -> bool {
    (c >= 0.0) & (c < limit) & ((c + TWO_52) - TWO_52 == c)
}

/// `c as usize` for a `c` that [`is_index`] accepted, in one add and one
/// integer subtract instead of a saturating float-to-integer conversion.
#[inline(always)]
fn index(c: f64) -> usize {
    ((c + TWO_52).to_bits() - TWO_52.to_bits()) as usize
}

/// The position of the first of `items` that is `bad`. The common answer,
/// none, comes from one branch-free sweep; the search runs only once the
/// sweep has found something.
fn first_bad<T>(items: impl Iterator<Item = T> + Clone, bad: impl Fn(T) -> bool) -> Option<usize> {
    if items.clone().fold(false, |any, item| any | bad(item)) {
        items.map(bad).position(|b| b)
    } else {
        None
    }
}

/// Proves the CSR operand `[pos, crd, vals]` (buffer ids `ids`) well formed
/// for `rows` output rows and an `x` of `cols` entries, without allocating:
///
/// * `pos` has more than `rows` entries, and `pos[0..=rows]` are integers in
///   `[0, 2⁵²)` that never decrease;
/// * `pos[rows]` is at most `len(crd)` and at most `len(vals)`;
/// * every `crd[pos[0]..pos[rows]]` is an integer in `[0, cols)`.
///
/// Returns the `rows + 1` offsets [`spmv`] reads, or the first violation as
/// [`ExecError::MalformedIndex`]. Values (`vals`, `x`) are not inspected.
fn check_csr(
    ids: [BufferId; 3],
    [pos, crd, vals]: [&[f64]; 3],
    rows: usize,
    cols: usize,
) -> Result<&[f64], ExecError> {
    let malformed = |buffer: usize, position| ExecError::MalformedIndex {
        buffer: ids[buffer],
        position,
    };
    let pos = pos.get(..=rows).ok_or(malformed(0, pos.len()))?;
    let not_index = first_bad(pos.iter(), |&c| !is_index(c, TWO_52));
    let decrease = first_bad(pos.windows(2), |w| w[1] < w[0]).map(|i| i + 1);
    if let Some(i) = not_index.into_iter().chain(decrease).min() {
        return Err(malformed(0, i));
    }
    let (start, end) = (index(pos[0]), index(pos[rows]));
    for (buffer, len) in [(1, crd.len()), (2, vals.len())] {
        if end > len {
            return Err(malformed(buffer, len));
        }
    }
    let limit = (cols as f64).min(TWO_52);
    match first_bad(crd[start..end].iter(), |&c| !is_index(c, limit)) {
        Some(k) => Err(malformed(1, start + k)),
        None => Ok(pos),
    }
}

/// `out = A x` for a CSR `A` that [`check_csr`] proved well formed (`pos`
/// is its `rows + 1` offsets): each row folds its nonzeros in storage order,
/// and every index is converted exactly by [`index`], so no slice access
/// below can fail.
fn spmv(pos: &[f64], crd: &[f64], vals: &[f64], x: &[f64], out: &mut [f64]) {
    for (y, row) in out.iter_mut().zip(pos.windows(2)) {
        let span = index(row[0])..index(row[1]);
        let mut acc = 0.0;
        for (&v, &c) in vals[span.clone()].iter().zip(&crd[span]) {
            acc += v * x[index(c)];
        }
        *y = acc;
    }
}

/// Resolves a unary operator to its host function. The interpreter calls the
/// resolved function per element; the SIMD backend runs the IEEE-exact ones
/// inline and maps `exp`, `ln` and `erf` over a register row through the
/// same [`crate::math`] functions, so backends agree bitwise by
/// construction. Those three are `kernel::math`'s branch-free versions, not
/// the platform libm.
pub(crate) fn unary_fn(op: UnaryOp) -> fn(f64) -> f64 {
    match op {
        UnaryOp::Neg => |a| -a,
        UnaryOp::Sqrt => f64::sqrt,
        UnaryOp::Exp => math::exp,
        UnaryOp::Ln => math::ln,
        UnaryOp::Abs => f64::abs,
        UnaryOp::Erf => math::erf,
        UnaryOp::Recip => |a| 1.0 / a,
    }
}

/// Resolves a binary operator to its host function (see [`unary_fn`]).
pub(crate) fn binary_fn(op: BinaryOp) -> fn(f64, f64) -> f64 {
    match op {
        BinaryOp::Add => |a, b| a + b,
        BinaryOp::Sub => |a, b| a - b,
        BinaryOp::Mul => |a, b| a * b,
        BinaryOp::Div => |a, b| a / b,
        BinaryOp::Max => f64::max,
        BinaryOp::Min => f64::min,
        BinaryOp::Pow => f64::powf,
    }
}

fn apply_unary(op: UnaryOp, a: f64) -> f64 {
    unary_fn(op)(a)
}

fn apply_binary(op: BinaryOp, a: f64, b: f64) -> f64 {
    binary_fn(op)(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::ir::{BufferRole, IndexWidth, ReduceOp};

    #[test]
    fn elementwise_add_executes() {
        let mut module = KernelModule::new(3);
        module.set_role(BufferId(2), BufferRole::Output);
        let mut b = LoopBuilder::new("add", BufferId(2));
        let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
        let s = b.add(x, y);
        b.store(BufferId(2), s);
        module.push_loop(b.finish());
        let mut bufs = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![0.0, 0.0]];
        Interpreter::new().execute(&module, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[2], vec![4.0, 6.0]);
    }

    #[test]
    fn reduction_accumulates() {
        let mut module = KernelModule::new(2);
        module.set_role(BufferId(1), BufferRole::Reduction);
        let mut b = LoopBuilder::new("sum", BufferId(0));
        let x = b.load(BufferId(0));
        b.reduce(BufferId(1), ReduceOp::Sum, x);
        module.push_loop(b.finish());
        let mut bufs = vec![vec![1.0, 2.0, 3.0], vec![0.0]];
        Interpreter::new().execute(&module, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[1][0], 6.0);
    }

    #[test]
    fn scalar_broadcast_load() {
        let mut module = KernelModule::new(3);
        let mut b = LoopBuilder::new("scale", BufferId(0));
        let x = b.load(BufferId(0));
        let s = b.load_scalar(BufferId(1));
        let v = b.mul(x, s);
        b.store(BufferId(2), v);
        module.push_loop(b.finish());
        let mut bufs = vec![vec![1.0, 2.0], vec![10.0], vec![0.0, 0.0]];
        Interpreter::new().execute(&module, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[2], vec![10.0, 20.0]);
    }

    #[test]
    fn scalar_params_are_read() {
        let mut module = KernelModule::new(2);
        let mut b = LoopBuilder::new("scale", BufferId(0));
        let x = b.load(BufferId(0));
        let p = b.param(0);
        let v = b.mul(x, p);
        b.store(BufferId(1), v);
        module.push_loop(b.finish());
        let mut bufs = vec![vec![2.0], vec![0.0]];
        Interpreter::new()
            .execute(&module, &mut bufs, &[3.5])
            .unwrap();
        assert_eq!(bufs[1], vec![7.0]);
        let err = Interpreter::new().execute(&module, &mut bufs, &[]);
        assert_eq!(err, Err(ExecError::MissingParam(0)));
    }

    #[test]
    fn spmv_matches_dense_reference() {
        // 2x2 matrix [[1, 2], [0, 3]] in CSR.
        let module = {
            let mut m = KernelModule::new(5);
            m.push_opaque(OpaqueOp::SpMvCsr {
                pos: BufferId(0),
                crd: BufferId(1),
                vals: BufferId(2),
                x: BufferId(3),
                y: BufferId(4),
                index_width: IndexWidth::U32,
            });
            m
        };
        let mut bufs = vec![
            vec![0.0, 2.0, 3.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0],
            vec![0.0, 0.0],
        ];
        Interpreter::new().execute(&module, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[4], vec![14.0, 15.0]);
    }

    #[test]
    fn gemv_matches_reference() {
        let module = {
            let mut m = KernelModule::new(3);
            m.push_opaque(OpaqueOp::Gemv {
                a: BufferId(0),
                x: BufferId(1),
                y: BufferId(2),
            });
            m
        };
        let mut bufs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 1.0], vec![0.0, 0.0]];
        Interpreter::new().execute(&module, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[2], vec![3.0, 7.0]);
    }

    #[test]
    fn an_opaque_input_that_is_the_output_reads_its_old_contents() {
        // y = A y with A = [[0, 1], [1, 0]]: a swap, not [y1, y1].
        let mut m = KernelModule::new(2);
        m.push_opaque(OpaqueOp::Gemv {
            a: BufferId(0),
            x: BufferId(1),
            y: BufferId(1),
        });
        let mut bufs = vec![vec![0.0, 1.0, 1.0, 0.0], vec![3.0, 5.0]];
        Interpreter::new().execute(&m, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[1], vec![5.0, 3.0]);
    }

    #[test]
    fn restrict_and_prolong_roundtrip_shape() {
        let mut m = KernelModule::new(2);
        m.push_opaque(OpaqueOp::Restrict {
            fine: BufferId(0),
            coarse: BufferId(1),
        });
        let mut bufs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.0, 0.0]];
        Interpreter::new().execute(&m, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[1], vec![1.0, 3.0]);

        let mut m = KernelModule::new(2);
        m.push_opaque(OpaqueOp::Prolong {
            coarse: BufferId(0),
            fine: BufferId(1),
        });
        let mut bufs = vec![vec![1.0, 3.0], vec![0.0; 4]];
        Interpreter::new().execute(&m, &mut bufs, &[]).unwrap();
        assert_eq!(bufs[1], vec![1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn missing_buffer_is_an_error() {
        let mut module = KernelModule::new(3);
        let mut b = LoopBuilder::new("id", BufferId(2));
        let x = b.load(BufferId(0));
        b.store(BufferId(2), x);
        module.push_loop(b.finish());
        let mut bufs = vec![vec![1.0]];
        let err = Interpreter::new().execute(&module, &mut bufs, &[]);
        assert!(matches!(err, Err(ExecError::MissingBuffer(_))));
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let mut module = KernelModule::new(2);
        let mut b = LoopBuilder::new("id", BufferId(0));
        let x = b.load(BufferId(1));
        b.store(BufferId(0), x);
        module.push_loop(b.finish());
        let mut bufs = vec![vec![0.0; 4], vec![0.0; 2]];
        let err = Interpreter::new().execute(&module, &mut bufs, &[]);
        assert!(matches!(err, Err(ExecError::LengthMismatch { .. })));
    }

    #[test]
    fn unary_and_binary_ops_evaluate() {
        assert_eq!(apply_unary(UnaryOp::Neg, 2.0), -2.0);
        assert_eq!(apply_unary(UnaryOp::Sqrt, 4.0), 2.0);
        assert_eq!(apply_unary(UnaryOp::Abs, -3.0), 3.0);
        assert_eq!(apply_unary(UnaryOp::Recip, 4.0), 0.25);
        assert!((apply_unary(UnaryOp::Exp, 0.0) - 1.0).abs() < 1e-12);
        assert!((apply_unary(UnaryOp::Ln, 1.0)).abs() < 1e-12);
        assert_eq!(apply_binary(BinaryOp::Sub, 3.0, 1.0), 2.0);
        assert_eq!(apply_binary(BinaryOp::Div, 6.0, 2.0), 3.0);
        assert_eq!(apply_binary(BinaryOp::Max, 1.0, 2.0), 2.0);
        assert_eq!(apply_binary(BinaryOp::Min, 1.0, 2.0), 1.0);
        assert_eq!(apply_binary(BinaryOp::Pow, 2.0, 3.0), 8.0);
    }

    #[test]
    fn dense_opaque_inputs_too_short_for_the_output_are_length_errors() {
        let run = |op: OpaqueOp, bufs: &[Vec<f64>]| {
            let mut m = KernelModule::new(bufs.len() as u32);
            m.push_opaque(op);
            spmv::both_backends(&m, bufs)
        };
        // 2 × 2 GEMV over a 3-entry matrix.
        let gemv = OpaqueOp::Gemv {
            a: BufferId(0),
            x: BufferId(1),
            y: BufferId(2),
        };
        let bufs = [vec![1.0; 3], vec![1.0; 2], vec![7.0; 2]];
        assert_eq!(
            run(gemv, &bufs),
            Err(ExecError::LengthMismatch {
                domain: BufferId(2),
                buffer: BufferId(0)
            })
        );
        let (restrict, prolong) = (
            OpaqueOp::Restrict {
                fine: BufferId(0),
                coarse: BufferId(1),
            },
            OpaqueOp::Prolong {
                coarse: BufferId(0),
                fine: BufferId(1),
            },
        );
        for op in [restrict, prolong] {
            assert_eq!(
                run(op.clone(), &[vec![], vec![7.0; 2]]),
                Err(ExecError::LengthMismatch {
                    domain: BufferId(1),
                    buffer: BufferId(0)
                }),
                "{op:?}"
            );
            // Writing nothing reads nothing: still fine.
            assert_eq!(run(op, &[vec![], vec![]]), Ok(vec![vec![], vec![]]));
        }
    }

    mod spmv {
        //! The CSR SpMV's index contract: exact conversion of every accepted
        //! index, bit-identical results to a `usize`-index loop on every
        //! well-formed CSR, and a structured error that leaves the output
        //! untouched on every malformed one.

        use proptest::prelude::*;

        use super::super::*;
        use crate::backend::{BackendKind, BufferViewMut};
        use crate::ir::IndexWidth;

        /// Buffers of the SpMV module: pos, crd, vals, x, y.
        const POS: BufferId = BufferId(0);
        const CRD: BufferId = BufferId(1);
        const VALS: BufferId = BufferId(2);

        fn module() -> KernelModule {
            let mut m = KernelModule::new(5);
            m.push_opaque(OpaqueOp::SpMvCsr {
                pos: POS,
                crd: CRD,
                vals: VALS,
                x: BufferId(3),
                y: BufferId(4),
                index_width: IndexWidth::U32,
            });
            m
        }

        /// Exact bits, NaNs canonicalized (payloads are not deterministic;
        /// see `crate::simd`).
        fn bits(values: &[f64]) -> Vec<u64> {
            values
                .iter()
                .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
                .collect()
        }

        /// Runs `m` over copies of `bufs` under both backends, which must
        /// agree — on the error, or on every bit of every buffer — and
        /// returns the interpreter's buffers.
        pub(super) fn both_backends(
            m: &KernelModule,
            bufs: &[Vec<f64>],
        ) -> Result<Vec<Vec<f64>>, ExecError> {
            let [interp, simd] = [BackendKind::Interp, BackendKind::Simd].map(|kind| {
                let mut out = bufs.to_vec();
                let compiled = kind.backend().compile(m).expect("compiles");
                compiled.execute(&mut out, &[]).map(|()| out)
            });
            match (&interp, &simd) {
                (Ok(a), Ok(b)) => {
                    for (a, b) in a.iter().zip(b) {
                        assert_eq!(bits(a), bits(b), "backends disagree");
                    }
                }
                _ => assert_eq!(interp, simd, "backends disagree"),
            }
            interp
        }

        /// The loop the SpMV replaced, over indices converted up front.
        fn reference(pos: &[f64], crd: &[f64], vals: &[f64], x: &[f64], rows: usize) -> Vec<f64> {
            let pos: Vec<usize> = pos.iter().map(|&p| p as usize).collect();
            (0..rows)
                .map(|r| {
                    let mut acc = 0.0;
                    for k in pos[r]..pos[r + 1] {
                        acc += vals[k] * x[crd[k] as usize];
                    }
                    acc
                })
                .collect()
        }

        #[test]
        fn every_accepted_index_converts_to_exactly_its_value() {
            const LEN_X: usize = 8;
            let two_52 = 2f64.powi(52);
            // (value, accepted below len(x), accepted below 2⁵²)
            let table = [
                (f64::NAN, false, false),
                (0.0, true, true),
                (-0.0, true, true),
                (-1.0, false, false),
                (-0.5, false, false),
                (0.5, false, false),
                (2.5, false, false),
                (3.0, true, true),
                (LEN_X as f64 - 1.0, true, true),
                (LEN_X as f64, false, true),
                (two_52 - 1.0, false, true),
                (two_52, false, false),
                (1e300, false, false),
                (f64::INFINITY, false, false),
                (f64::NEG_INFINITY, false, false),
                (5e-324, false, false),
            ];
            for (c, below_len, below_2_52) in table {
                for (limit, accepted) in [(LEN_X as f64, below_len), (TWO_52, below_2_52)] {
                    assert_eq!(is_index(c, limit), accepted, "{c:e} below {limit:e}");
                    if accepted {
                        assert_eq!(index(c), c as usize, "{c:e}");
                    }
                }
                // The same value as the column of a one-entry row.
                let x: Vec<f64> = (0..LEN_X).map(|i| 10.0 + i as f64).collect();
                let bufs = [vec![0.0, 1.0], vec![c], vec![2.0], x.clone(), vec![-1.0]];
                let result = both_backends(&module(), &bufs);
                if below_len {
                    assert_eq!(result.unwrap()[4], vec![2.0 * x[c as usize]], "{c:e}");
                } else {
                    assert_eq!(
                        result,
                        Err(ExecError::MalformedIndex {
                            buffer: CRD,
                            position: 0
                        }),
                        "{c:e}"
                    );
                }
            }
        }

        /// A value, or one time in three a non-finite one or `-0.0`.
        fn value() -> impl Strategy<Value = f64> {
            (0usize..12, -4000i32..4000).prop_map(|(pick, v)| {
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]
                    .get(pick)
                    .copied()
                    .unwrap_or(v as f64 / 997.0)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

            /// Random well-formed CSR — empty rows, `pos[0] > 0`, duplicate
            /// columns, entries outside `pos[0]..pos[rows]` holding garbage,
            /// non-finite values — gives the reference loop's bits under
            /// both backends.
            #[test]
            fn well_formed_csr_matches_the_usize_reference(
                cols in 1usize..12,
                row_lens in prop::collection::vec(0usize..5, 0..if cfg!(miri) { 4 } else { 24 }),
                lead in 0usize..3,
                trail in 0usize..3,
                seeds in prop::collection::vec((0usize..1000, value()), 128..129),
                x in prop::collection::vec(value(), 12..13),
            ) {
                let rows = row_lens.len();
                let mut pos = vec![lead as f64];
                for len in &row_lens {
                    pos.push(pos.last().unwrap() + *len as f64);
                }
                let nnz = lead + row_lens.iter().sum::<usize>() + trail;
                let garbage = [f64::NAN, -1.0, 0.5, 1e300];
                let in_range = |k: usize| (lead..nnz - trail).contains(&k);
                let crd: Vec<f64> = (0..nnz)
                    .map(|k| match in_range(k) {
                        true => (seeds[k % seeds.len()].0 % cols) as f64,
                        false => garbage[k % garbage.len()],
                    })
                    .collect();
                let vals: Vec<f64> = (0..nnz).map(|k| seeds[(k * 7) % seeds.len()].1).collect();
                let x = x[..cols].to_vec();
                let expected = reference(&pos, &crd, &vals, &x, rows);
                let bufs = [pos, crd, vals, x, vec![f64::NAN; rows]];
                let out = both_backends(&module(), &bufs).unwrap();
                prop_assert_eq!(bits(&out[4]), bits(&expected));
            }
        }

        /// Runs a malformed CSR under both backends, into a dense output and
        /// into a strided view, and checks the error and that neither
        /// output was touched.
        fn rejects(bufs: [Vec<f64>; 5], buffer: BufferId, position: usize) {
            let expected = Err(ExecError::MalformedIndex { buffer, position });
            let sentinel = bufs[4].clone();
            let out = both_backends(&module(), &bufs).map(|out| out[4].clone());
            assert_eq!(out, expected.clone().map(|()| sentinel.clone()));
            // A strided output: column 0 of a `rows × 2` array.
            let rows = sentinel.len();
            let mut array = vec![-9.0; 2 * rows];
            let rect = ir::Rect::new(vec![0, 0], vec![rows as i64, 1]);
            for kind in [BackendKind::Interp, BackendKind::Simd] {
                let compiled = kind.backend().compile(&module()).expect("compiles");
                let mut table: Vec<Buffer<'_>> =
                    bufs[..4].iter().cloned().map(Buffer::Dense).collect();
                table.push(Buffer::ViewMut(BufferViewMut::new(
                    &mut array,
                    &[rows as u64, 2],
                    &rect,
                )));
                let result = compiled.execute_stage(0, &mut table, &[]);
                assert_eq!(result, expected, "{kind:?}");
            }
            assert!(array.iter().all(|&v| v == -9.0), "strided output touched");
        }

        /// Two rows over a 3-entry `x`: pos, crd, vals, x, y.
        fn valid() -> [Vec<f64>; 5] {
            [
                vec![0.0, 2.0, 3.0],
                vec![0.0, 2.0, 1.0],
                vec![1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0],
                vec![7.0, 7.0],
            ]
        }

        #[test]
        fn the_valid_fixture_runs() {
            let out = both_backends(&module(), &valid()).unwrap();
            assert_eq!(out[4], vec![16.0, 15.0]);
        }

        #[test]
        fn pos_without_an_entry_per_row_boundary_is_malformed() {
            let mut bufs = valid();
            bufs[0].pop();
            rejects(bufs, POS, 2);
        }

        #[test]
        fn a_row_offset_that_is_not_an_exact_index_is_malformed() {
            for bad in [1.5, -1.0, f64::NAN, f64::INFINITY, 2f64.powi(52)] {
                let mut bufs = valid();
                bufs[0][1] = bad;
                rejects(bufs, POS, 1);
            }
        }

        #[test]
        fn a_decreasing_row_offset_is_malformed() {
            let mut bufs = valid();
            bufs[0] = vec![2.0, 1.0, 3.0];
            rejects(bufs, POS, 1);
        }

        #[test]
        fn offsets_past_the_end_of_crd_or_vals_are_malformed() {
            let mut bufs = valid();
            bufs[1].pop();
            rejects(bufs, CRD, 2);
            let mut bufs = valid();
            bufs[2].pop();
            rejects(bufs, VALS, 2);
        }

        #[test]
        fn a_column_that_is_not_an_index_into_x_is_malformed() {
            for bad in [3.0, -1.0, 0.5, f64::NAN] {
                let mut bufs = valid();
                bufs[1][2] = bad;
                rejects(bufs, CRD, 2);
            }
        }
    }
}
