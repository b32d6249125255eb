//! The shared lowering front end: loop nests resolved once, at compile time,
//! into pre-resolved micro-op streams.
//!
//! Where the [`crate::Interpreter`] re-matches every [`LoopOp`] — and
//! re-resolves every buffer id, operator and SSA guard — for every element of
//! every iteration, [`lower_loop`] does all of that resolution **once per
//! loop stage**:
//!
//! * buffer and value ids are resolved to raw slice indices,
//! * operators and reduction folds are resolved through the same host
//!   functions the interpreter evaluates with (bitwise-identical results by
//!   construction); the hot arithmetic ops (`Add`/`Sub`/`Mul`/`Div`/`Neg`)
//!   are specialized into dedicated micro-ops so the steady state performs
//!   them inline instead of through a function pointer,
//! * SSA well-formedness is checked while lowering (a value used before
//!   definition is a compile error here instead of a per-element check, and
//!   per-element `defined` bookkeeping disappears entirely),
//! * loop-invariant ops (constants, scalar parameters, broadcast-scalar
//!   loads of buffers the loop never writes) are **hoisted** into a prelude
//!   that runs once per stage execution instead of once per element,
//! * the execution **schedule is selected**: reordering operations across
//!   elements within a chunk is observable only through element-0 side
//!   channels (a broadcast load of a buffer the same loop writes, or two
//!   reductions folding into one accumulator, where float folds are
//!   order-sensitive). Lowering detects those patterns
//!   ([`CompiledLoop::vectorized`]) so the executor can fall back to the
//!   exact per-element schedule ([`CompiledLoop::run_elementwise`]) and every
//!   module — including adversarial ones from the equivalence proptest —
//!   stays bitwise-identical to the interpreter.
//!
//! Validation that depends on runtime information (buffer presence and
//! lengths) still happens at execute time, once per stage, from lists
//! precomputed here — mirroring the interpreter's error contract.
//!
//! [`crate::simd::SimdBackend`] is the one executor of these streams (it
//! renumbers them into arrays-of-lanes); [`crate::verify::verify_lowering`]
//! re-derives them independently to check the executor's invariants.

use crate::backend::Buffer;
use crate::interp::{self, buffer_len, check_writable, ExecError};
use crate::ir::{BinaryOp, BufferId, LoopKernel, LoopOp, ReduceOp, UnaryOp, ValueId};

/// One pre-resolved micro-op. All ids are raw indices; operator variants the
/// steady state hits hardest are specialized so they execute inline.
///
/// [`crate::simd::SimdBackend`] re-executes these streams over
/// arrays-of-lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    /// `values[dst] = buffers[buf][i]`
    Load { dst: u32, buf: u32 },
    /// `values[dst] = buffers[buf][0]` (non-hoistable broadcast: the loop
    /// also writes `buf`, so the interpreter would observe updates).
    LoadScalar { dst: u32, buf: u32 },
    /// `values[dst] = imm` (constants; prelude only).
    Set { dst: u32, imm: f64 },
    /// `values[dst] = scalars[idx]` (prelude only; presence checked first).
    Param { dst: u32, idx: u32 },
    /// Specialized inline arithmetic.
    Neg { dst: u32, a: u32 },
    Add { dst: u32, a: u32, b: u32 },
    Sub { dst: u32, a: u32, b: u32 },
    Mul { dst: u32, a: u32, b: u32 },
    Div { dst: u32, a: u32, b: u32 },
    /// Remaining unary operators, carried by name: the per-element path
    /// evaluates them through [`interp::unary_fn`], the lane path maps
    /// them over a register row.
    Unary {
        dst: u32,
        a: u32,
        op: UnaryOp,
    },
    /// Remaining binary operators through a pre-resolved function pointer.
    Binary {
        dst: u32,
        a: u32,
        b: u32,
        f: fn(f64, f64) -> f64,
    },
    /// `buffers[buf][i] = values[src]`
    Store { buf: u32, src: u32 },
    /// `buffers[buf][0] = fold(buffers[buf][0], values[src])`
    Reduce { buf: u32, src: u32, op: ReduceOp },
}

#[inline]
pub(crate) fn run_instr(
    instr: Instr,
    values: &mut [f64],
    buffers: &mut [Buffer<'_>],
    scalars: &[f64],
    i: usize,
) {
    match instr {
        Instr::Load { dst, buf } => values[dst as usize] = buffers[buf as usize].get(i),
        Instr::LoadScalar { dst, buf } => values[dst as usize] = buffers[buf as usize].get(0),
        Instr::Set { dst, imm } => values[dst as usize] = imm,
        Instr::Param { dst, idx } => values[dst as usize] = scalars[idx as usize],
        Instr::Neg { dst, a } => values[dst as usize] = -values[a as usize],
        Instr::Add { dst, a, b } => {
            values[dst as usize] = values[a as usize] + values[b as usize]
        }
        Instr::Sub { dst, a, b } => {
            values[dst as usize] = values[a as usize] - values[b as usize]
        }
        Instr::Mul { dst, a, b } => {
            values[dst as usize] = values[a as usize] * values[b as usize]
        }
        Instr::Div { dst, a, b } => {
            values[dst as usize] = values[a as usize] / values[b as usize]
        }
        Instr::Unary { dst, a, op } => {
            values[dst as usize] = interp::unary_fn(op)(values[a as usize])
        }
        Instr::Binary { dst, a, b, f } => {
            values[dst as usize] = f(values[a as usize], values[b as usize])
        }
        Instr::Store { buf, src } => buffers[buf as usize].set(i, values[src as usize]),
        Instr::Reduce { buf, src, op } => {
            let acc = &mut buffers[buf as usize];
            acc.set(0, op.apply(acc.get(0), values[src as usize]))
        }
    }
}

/// A loop stage lowered to a hoisted prelude plus a body, with the
/// precomputed validation lists the interpreter would otherwise rebuild per
/// execution. The SIMD backend layers its lane-parallel schedule on top.
#[derive(Debug)]
pub(crate) struct CompiledLoop {
    /// Buffer defining the iteration domain.
    pub(crate) domain: BufferId,
    /// Elementwise-accessed buffers with a "is reduction target" flag
    /// (reduction targets are exempt from the length check).
    pub(crate) elem_buffers: Vec<(BufferId, bool)>,
    /// Buffers read as broadcast scalars (must be non-empty).
    pub(crate) scalar_buffers: Vec<BufferId>,
    /// Buffers stored or reduced into (must not be read-only views).
    pub(crate) written: Vec<BufferId>,
    /// Scalar-parameter indices in first-use order (checked before the loop
    /// runs, so the error matches the interpreter's first failing `Param`).
    pub(crate) params_in_order: Vec<usize>,
    /// Size of the SSA scratch table.
    pub(crate) num_values: usize,
    /// Loop-invariant micro-ops, run once per stage execution.
    pub(crate) prelude: Vec<Instr>,
    /// The body micro-ops.
    pub(crate) body: Vec<Instr>,
    /// Whether the body may be reordered across elements within a chunk (the
    /// lane-parallel path) or must run one element at a time (exact
    /// interpreter interleaving for modules with element-0 side channels).
    pub(crate) vectorized: bool,
}

impl CompiledLoop {
    /// Runtime validation before a stage executes: checks buffer
    /// presence, lengths against the iteration domain, broadcast-scalar
    /// non-emptiness and that no written buffer is a read-only view — the
    /// same contract, in the same order, as the interpreter. Returns the
    /// domain length; `0` means the stage is a no-op. Together with
    /// [`Self::check_params`] (and the def-before-use check lowering already
    /// made) it is every way the stage can fail, so one that fails writes
    /// nothing.
    pub(crate) fn check(&self, buffers: &[Buffer<'_>]) -> Result<usize, ExecError> {
        let n = buffer_len(buffers, self.domain)?;
        for &(b, is_reduction_target) in &self.elem_buffers {
            let len = buffer_len(buffers, b)?;
            if !is_reduction_target && len < n {
                return Err(ExecError::LengthMismatch {
                    domain: self.domain,
                    buffer: b,
                });
            }
        }
        for &b in &self.scalar_buffers {
            if buffer_len(buffers, b)? == 0 {
                return Err(ExecError::LengthMismatch {
                    domain: self.domain,
                    buffer: b,
                });
            }
        }
        check_writable(buffers, &self.written)?;
        Ok(n)
    }

    /// Checks scalar-parameter presence in first-use order. Like the
    /// interpreter, a missing scalar only errors once the loop actually reads
    /// it, so this runs only for non-empty domains.
    pub(crate) fn check_params(&self, scalars: &[f64]) -> Result<(), ExecError> {
        for &p in &self.params_in_order {
            if p >= scalars.len() {
                return Err(ExecError::MissingParam(p));
            }
        }
        Ok(())
    }

    /// The exact per-element schedule: interpreter interleaving for modules
    /// with element-0 side channels. The caller has already validated via
    /// [`Self::check`].
    pub(crate) fn run_elementwise(
        &self,
        buffers: &mut [Buffer<'_>],
        scalars: &[f64],
        n: usize,
    ) {
        let mut values = vec![f64::NAN; self.num_values];
        for &instr in &self.prelude {
            run_instr(instr, &mut values, buffers, scalars, 0);
        }
        for i in 0..n {
            for &instr in &self.body {
                run_instr(instr, &mut values, buffers, scalars, i);
            }
        }
    }
}

/// Lowers one loop body into a [`CompiledLoop`], checking SSA
/// well-formedness, hoisting loop-invariant ops and selecting the execution
/// schedule as it goes.
pub(crate) fn lower_loop(l: &LoopKernel) -> Result<CompiledLoop, ExecError> {
    let num_values = l.num_values();
    // Assignment counts: hoisting is only sound for values assigned exactly
    // once (true SSA); malformed double assignments take the exact
    // per-element schedule.
    let mut assignments = vec![0u32; num_values];
    for op in &l.ops {
        if let Some(dst) = op.dst() {
            assignments[dst.0 as usize] += 1;
        }
    }
    // Gaps (ids assigned zero times) are fine — dead-code elimination leaves
    // them; only double assignments break single-assignment reasoning.
    let ssa = assignments.iter().all(|&c| c <= 1);
    let written = l.written_buffers();

    // Element-0 side channels that make chunked execution observable:
    // broadcast loads of written buffers, reduce targets that are otherwise
    // touched by the loop, or two folds sharing one accumulator (float folds
    // are order-sensitive).
    let mut reduce_targets: Vec<BufferId> = Vec::new();
    let mut shared_accumulator = false;
    for op in &l.ops {
        if let LoopOp::Reduce { buffer, .. } = op {
            if reduce_targets.contains(buffer) {
                shared_accumulator = true;
            }
            reduce_targets.push(*buffer);
        }
    }
    let scalar_load_of_written = l
        .ops
        .iter()
        .any(|op| matches!(op, LoopOp::LoadScalar { buffer, .. } if written.contains(buffer)));
    let reduce_target_touched = l.ops.iter().any(|op| match op {
        LoopOp::Load { buffer, .. }
        | LoopOp::LoadScalar { buffer, .. }
        | LoopOp::Store { buffer, .. } => reduce_targets.contains(buffer),
        _ => false,
    });
    let vectorized = ssa && !scalar_load_of_written && !shared_accumulator && !reduce_target_touched;

    let mut defined = vec![false; num_values];
    let mut params_in_order = Vec::new();
    let mut prelude = Vec::new();
    let mut body = Vec::new();
    for op in &l.ops {
        let read = |v: ValueId| -> Result<u32, ExecError> {
            if !defined.get(v.0 as usize).copied().unwrap_or(false) {
                return Err(ExecError::UndefinedValue(v));
            }
            Ok(v.0)
        };
        // On the per-element path a value may only be hoisted if it is
        // assigned exactly once; the reorderable path requires full SSA, so
        // there every invariant hoists.
        let once = |dst: ValueId| assignments[dst.0 as usize] == 1;
        // Each op lowers to one micro-op, hoisted when it is loop-invariant.
        let (instr, invariant) = match *op {
            LoopOp::Load { dst, buffer } => (
                Instr::Load {
                    dst: dst.0,
                    buf: buffer.0,
                },
                false,
            ),
            // Broadcast loads are invariant unless this loop writes the
            // buffer (a store or a reduction would be observed by later
            // elements under the interpreter).
            LoopOp::LoadScalar { dst, buffer } => (
                Instr::LoadScalar {
                    dst: dst.0,
                    buf: buffer.0,
                },
                once(dst) && !written.contains(&buffer),
            ),
            LoopOp::Const { dst, value } => (
                Instr::Set {
                    dst: dst.0,
                    imm: value,
                },
                once(dst),
            ),
            LoopOp::Param { dst, index } => {
                params_in_order.push(index);
                (
                    Instr::Param {
                        dst: dst.0,
                        idx: index as u32,
                    },
                    once(dst),
                )
            }
            LoopOp::Unary { dst, op, a } => {
                let a = read(a)?;
                let instr = match op {
                    UnaryOp::Neg => Instr::Neg { dst: dst.0, a },
                    op => Instr::Unary { dst: dst.0, a, op },
                };
                (instr, false)
            }
            LoopOp::Binary { dst, op, a, b } => {
                let (a, b) = (read(a)?, read(b)?);
                let instr = match op {
                    BinaryOp::Add => Instr::Add { dst: dst.0, a, b },
                    BinaryOp::Sub => Instr::Sub { dst: dst.0, a, b },
                    BinaryOp::Mul => Instr::Mul { dst: dst.0, a, b },
                    BinaryOp::Div => Instr::Div { dst: dst.0, a, b },
                    other => Instr::Binary {
                        dst: dst.0,
                        a,
                        b,
                        f: interp::binary_fn(other),
                    },
                };
                (instr, false)
            }
            LoopOp::Store { buffer, src } => (
                Instr::Store {
                    buf: buffer.0,
                    src: read(src)?,
                },
                false,
            ),
            LoopOp::Reduce { buffer, op, src } => (
                Instr::Reduce {
                    buf: buffer.0,
                    src: read(src)?,
                    op,
                },
                false,
            ),
        };
        if let Some(dst) = op.dst() {
            defined[dst.0 as usize] = true;
        }
        if invariant {
            prelude.push(instr);
        } else {
            body.push(instr);
        }
    }
    let elem_buffers = l
        .loaded_buffers()
        .into_iter()
        .chain(l.written_buffers())
        .map(|b| {
            let is_reduction_target = l
                .ops
                .iter()
                .any(|op| matches!(op, LoopOp::Reduce { buffer, .. } if *buffer == b));
            (b, is_reduction_target)
        })
        .collect();
    Ok(CompiledLoop {
        domain: l.domain,
        elem_buffers,
        scalar_buffers: l.scalar_loaded_buffers(),
        written,
        params_in_order,
        num_values,
        prelude,
        body,
        vectorized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;

    fn is_scalar_load(i: &Instr) -> bool {
        matches!(i, Instr::LoadScalar { .. })
    }

    #[test]
    fn never_written_broadcast_loads_hoist_into_the_prelude() {
        // dot-like: x[i] * s[0] folded into a separate accumulator. `s` is
        // never written by the loop, so its broadcast load is invariant.
        let mut lb = LoopBuilder::new("dot", BufferId(0));
        let x = lb.load(BufferId(0));
        let s = lb.load_scalar(BufferId(1));
        let p = lb.mul(x, s);
        lb.reduce(BufferId(2), ReduceOp::Sum, p);
        let l = lower_loop(&lb.finish()).unwrap();
        assert!(l.vectorized);
        assert!(l.prelude.iter().any(is_scalar_load));
        assert!(!l.body.iter().any(is_scalar_load));
        assert_eq!(l.scalar_buffers, vec![BufferId(1)]);
    }

    #[test]
    fn scalar_load_of_reduced_buffer_is_not_hoisted() {
        // A loop that reduces into a buffer *and* broadcast-loads it: each
        // element must observe the running accumulator, exactly like the
        // interpreter, so the load stays in the body and the stage takes the
        // exact per-element schedule (executed by the SIMD backend's
        // `element0_side_channels_take_the_exact_fallback`).
        let mut lb = LoopBuilder::new("prefixy", BufferId(0));
        let acc = lb.load_scalar(BufferId(1)); // running value
        let x = lb.load(BufferId(0));
        let contrib = lb.mul(x, acc);
        lb.reduce(BufferId(1), ReduceOp::Sum, contrib);
        let l = lower_loop(&lb.finish()).unwrap();
        assert!(!l.vectorized);
        assert!(!l.prelude.iter().any(is_scalar_load));
        assert!(l.body.iter().any(is_scalar_load));
    }
}
