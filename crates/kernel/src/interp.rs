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
pub(crate) fn run_opaque(op: &OpaqueOp, buffers: &mut [Buffer<'_>]) -> Result<(), ExecError> {
    let output = op.written_buffers()[0];
    buffer_len(buffers, output)?;
    for b in op.read_buffers() {
        buffer_len(buffers, b)?;
    }
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
    match entry.contiguous_mut() {
        Some(out) => apply_opaque(op, out, input),
        None => {
            let mut out = vec![0.0; entry.len()];
            apply_opaque(op, &mut out, input);
            entry.write(0, &out);
        }
    }
    buffers[output.0 as usize] = entry;
    Ok(())
}

/// The arithmetic of an opaque builtin: overwrites every element of `out`
/// from the inputs `input` resolves.
fn apply_opaque<'b>(
    op: &OpaqueOp,
    out: &mut [f64],
    input: impl Fn(BufferId) -> Cow<'b, [f64]>,
) {
    match op {
        OpaqueOp::SpMvCsr {
            pos, crd, vals, x, ..
        } => {
            let (pos, crd, vals, x) = (input(*pos), input(*crd), input(*vals), input(*x));
            for (r, y) in out.iter_mut().enumerate() {
                let (start, end) = (pos[r] as usize, pos[r + 1] as usize);
                let mut acc = 0.0;
                for k in start..end {
                    acc += vals[k] * x[crd[k] as usize];
                }
                *y = acc;
            }
        }
        OpaqueOp::Gemv { a, x, .. } => {
            let (a, x) = (input(*a), input(*x));
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
            let fine = input(*fine);
            for (i, coarse) in out.iter_mut().enumerate() {
                *coarse = fine[(2 * i).min(fine.len().saturating_sub(1))];
            }
        }
        OpaqueOp::Prolong { coarse, .. } => {
            let coarse = input(*coarse);
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
}
