//! Static verification of kernel modules and backend lowerings.
//!
//! Every transformation between a generator's emitted module and the
//! instruction stream a backend actually executes is re-checked here after
//! the fact, independently of the code that produced it (translation
//! validation in the sense of the fusion layer's `fusion::verify`; see
//! `docs/VERIFY.md` for the invariant catalog):
//!
//! * [`verify_module`] — structural well-formedness of a [`KernelModule`]:
//!   SSA def-before-use and single assignment over each loop body, buffer
//!   references in range, role consistency (no stores into `Input` buffers,
//!   reductions only into reduction-capable roles), reduction-fold
//!   well-formedness (no mixed fold operators, no store/reduce overlap on
//!   one accumulator in one loop), and — when the compiled buffer layout is
//!   provided — load/store offsets in bounds for every buffer.
//! * [`verify_lowering`] — backend-specific invariants re-derived from an
//!   independent re-lowering of the module: micro-op def-before-use for the
//!   lowered streams, and the renumbered
//!   destination-register-strictly-above-operands invariant the SIMD
//!   backend's `split_at_mut` borrows rely on.
//! * [`verify_against_signature`] — consistency of a generated module with
//!   the [`TaskSignature`] the library declared for the task: argument
//!   arity, scalar-parameter arity, and access/privilege agreement (a
//!   `Read` argument is never written, a `Reduce` argument is never plainly
//!   stored, a non-`Reduce` argument is never reduced into).
//!
//! All checkers return the number of individual invariant checks performed
//! (accumulated into `ExecutionStats::verification_checks` by the Diffuse
//! layer) or a structured [`VerifyError`] naming the violated invariant and
//! the offending stage/instruction.

use crate::backend::BackendKind;
use crate::generator::{ArgSpec, TaskSignature};
use crate::ir::{BufferId, BufferRole, KernelModule, KernelStage, LoopKernel, LoopOp, ValueId};
use crate::lower::{lower_loop, Instr};
use crate::simd;

/// A violated kernel-level invariant, naming the offending stage and (where
/// applicable) instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// An SSA value is used before any op defines it.
    UseBeforeDef {
        /// Stage index within the module.
        stage: usize,
        /// Op index within the loop body.
        op: usize,
        /// The undefined value.
        value: ValueId,
    },
    /// An SSA value is assigned more than once in one loop body.
    MultipleAssignment {
        /// Stage index within the module.
        stage: usize,
        /// Op index of the second assignment.
        op: usize,
        /// The re-assigned value.
        value: ValueId,
    },
    /// A buffer id is not covered by the module's declared buffer count.
    UnknownBuffer {
        /// Stage index within the module.
        stage: usize,
        /// The out-of-range buffer.
        buffer: BufferId,
    },
    /// A buffer is accessed in a way its declared role forbids.
    RoleMismatch {
        /// Stage index within the module.
        stage: usize,
        /// The buffer.
        buffer: BufferId,
        /// The declared role.
        role: BufferRole,
        /// What the kernel did to it (`"store"` or `"reduce"`).
        access: &'static str,
    },
    /// A buffer is smaller than the loop's iteration domain requires.
    BufferTooSmall {
        /// Stage index within the module.
        stage: usize,
        /// The undersized buffer.
        buffer: BufferId,
        /// Elements the stage accesses.
        needed: usize,
        /// Elements the compiled layout provides.
        available: usize,
    },
    /// One loop both stores elementwise into and reduces into one buffer.
    StoreReduceOverlap {
        /// Stage index within the module.
        stage: usize,
        /// The buffer.
        buffer: BufferId,
    },
    /// One accumulator is folded with two different reduction operators in
    /// one loop (the fold would not be well-defined under reassociation).
    MixedReduceOps {
        /// Stage index within the module.
        stage: usize,
        /// The accumulator buffer.
        buffer: BufferId,
    },
    /// A lowered micro-op reads a register before any micro-op defines it.
    LoweredUseBeforeDef {
        /// Stage index within the module.
        stage: usize,
        /// Micro-op index (prelude followed by body).
        instr: usize,
        /// The undefined register.
        register: u32,
    },
    /// A renumbered SIMD micro-op's destination register does not strictly
    /// exceed one of its operands — the `split_at_mut` borrow in the lane
    /// executor would panic (or alias).
    RegisterNotDisjoint {
        /// Stage index within the module.
        stage: usize,
        /// Micro-op index (prelude followed by body).
        instr: usize,
        /// The destination register.
        dst: u32,
        /// The offending operand register.
        operand: u32,
    },
    /// A lowered micro-op references a register beyond the plan's register
    /// file.
    RegisterOutOfRange {
        /// Stage index within the module.
        stage: usize,
        /// Micro-op index (prelude followed by body).
        instr: usize,
        /// The out-of-range register.
        register: u32,
        /// Size of the register file.
        num_regs: usize,
    },
    /// The module does not cover the signature's declared store arguments.
    ArityMismatch {
        /// Arguments the signature declares.
        expected: usize,
        /// Buffers the module declares.
        found: usize,
    },
    /// A scalar parameter index is beyond the signature's declared arity.
    ScalarOutOfRange {
        /// Stage index within the module.
        stage: usize,
        /// The out-of-range parameter index.
        index: usize,
        /// Scalars the signature declares.
        declared: usize,
    },
    /// The kernel accesses an argument in a way its declared [`ArgSpec`]
    /// forbids.
    SignatureRoleConflict {
        /// Argument index within the signature.
        arg: usize,
        /// The declared spec.
        spec: ArgSpec,
        /// What the kernel did (`"store"`, `"reduce"`).
        access: &'static str,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::UseBeforeDef { stage, op, value } => write!(
                f,
                "stage {stage} op {op}: value {} used before definition",
                value.0
            ),
            VerifyError::MultipleAssignment { stage, op, value } => write!(
                f,
                "stage {stage} op {op}: value {} assigned more than once",
                value.0
            ),
            VerifyError::UnknownBuffer { stage, buffer } => {
                write!(f, "stage {stage}: buffer {} out of range", buffer.0)
            }
            VerifyError::RoleMismatch {
                stage,
                buffer,
                role,
                access,
            } => write!(
                f,
                "stage {stage}: {access} into buffer {} violates its {role:?} role",
                buffer.0
            ),
            VerifyError::BufferTooSmall {
                stage,
                buffer,
                needed,
                available,
            } => write!(
                f,
                "stage {stage}: buffer {} holds {available} elements but the loop \
                 accesses {needed}",
                buffer.0
            ),
            VerifyError::StoreReduceOverlap { stage, buffer } => write!(
                f,
                "stage {stage}: buffer {} is both stored and reduced into in one loop",
                buffer.0
            ),
            VerifyError::MixedReduceOps { stage, buffer } => write!(
                f,
                "stage {stage}: buffer {} is folded with two different reduction operators",
                buffer.0
            ),
            VerifyError::LoweredUseBeforeDef {
                stage,
                instr,
                register,
            } => write!(
                f,
                "stage {stage} micro-op {instr}: register {register} read before definition"
            ),
            VerifyError::RegisterNotDisjoint {
                stage,
                instr,
                dst,
                operand,
            } => write!(
                f,
                "stage {stage} micro-op {instr}: destination register {dst} does not \
                 strictly exceed operand register {operand}"
            ),
            VerifyError::RegisterOutOfRange {
                stage,
                instr,
                register,
                num_regs,
            } => write!(
                f,
                "stage {stage} micro-op {instr}: register {register} beyond the \
                 {num_regs}-register file"
            ),
            VerifyError::ArityMismatch { expected, found } => write!(
                f,
                "signature declares {expected} store arguments but the module has \
                 {found} buffers"
            ),
            VerifyError::ScalarOutOfRange {
                stage,
                index,
                declared,
            } => write!(
                f,
                "stage {stage}: scalar parameter {index} beyond the {declared} the \
                 signature declares"
            ),
            VerifyError::SignatureRoleConflict { arg, spec, access } => write!(
                f,
                "argument {arg}: kernel performs {access} but the signature declares \
                 {spec:?}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Per-buffer access summary of one module, for the signature check.
#[derive(Debug, Clone, Copy, Default)]
struct BufferUse {
    loaded: bool,
    stored: bool,
    reduced: bool,
}

fn buffer_uses(module: &KernelModule) -> Vec<BufferUse> {
    let mut uses = vec![BufferUse::default(); module.num_buffers() as usize];
    let mut mark = |b: BufferId, f: fn(&mut BufferUse)| {
        if let Some(u) = uses.get_mut(b.0 as usize) {
            f(u);
        }
    };
    for stage in &module.stages {
        for b in stage.read_buffers() {
            mark(b, |u| u.loaded = true);
        }
        match stage {
            // Only a loop body can fold, so only here do stores and
            // reductions need telling apart.
            KernelStage::Loop(l) => {
                for op in &l.ops {
                    match op {
                        LoopOp::Store { buffer, .. } => mark(*buffer, |u| u.stored = true),
                        LoopOp::Reduce { buffer, .. } => mark(*buffer, |u| u.reduced = true),
                        _ => {}
                    }
                }
            }
            KernelStage::Opaque(op) => {
                for b in op.written_buffers() {
                    mark(b, |u| u.stored = true);
                }
            }
        }
    }
    uses
}

/// Verifies one loop stage: SSA form, buffer ranges, role consistency and
/// reduction well-formedness; with `lens`, also access bounds. Returns the
/// number of checks performed.
fn verify_loop(
    stage: usize,
    l: &LoopKernel,
    roles: &[BufferRole],
    lens: Option<&[usize]>,
) -> Result<usize, VerifyError> {
    let num_buffers = roles.len();
    let mut checks = 0usize;
    let mut defined = vec![false; l.num_values()];
    let check_buf = |buffer: BufferId| {
        if (buffer.0 as usize) < num_buffers {
            Ok(())
        } else {
            Err(VerifyError::UnknownBuffer { stage, buffer })
        }
    };
    let check_use = |op_idx: usize, v: ValueId, defined: &[bool]| {
        if defined.get(v.0 as usize).copied().unwrap_or(false) {
            Ok(())
        } else {
            Err(VerifyError::UseBeforeDef {
                stage,
                op: op_idx,
                value: v,
            })
        }
    };
    // Reduction bookkeeping: accumulator -> fold operator, plus stored set.
    let mut reduce_ops: Vec<(BufferId, crate::ir::ReduceOp)> = Vec::new();
    let mut stored: Vec<BufferId> = Vec::new();

    check_buf(l.domain)?;
    checks += 1;
    for (op_idx, op) in l.ops.iter().enumerate() {
        match op {
            LoopOp::Load { buffer, .. } | LoopOp::LoadScalar { buffer, .. } => {
                check_buf(*buffer)?;
                checks += 1;
            }
            LoopOp::Const { .. } | LoopOp::Param { .. } => {}
            LoopOp::Unary { a, .. } => {
                check_use(op_idx, *a, &defined)?;
                checks += 1;
            }
            LoopOp::Binary { a, b, .. } => {
                check_use(op_idx, *a, &defined)?;
                check_use(op_idx, *b, &defined)?;
                checks += 2;
            }
            LoopOp::Store { buffer, src } => {
                check_buf(*buffer)?;
                check_use(op_idx, *src, &defined)?;
                checks += 2;
                let role = roles[buffer.0 as usize];
                if role == BufferRole::Input {
                    return Err(VerifyError::RoleMismatch {
                        stage,
                        buffer: *buffer,
                        role,
                        access: "store",
                    });
                }
                checks += 1;
                if !stored.contains(buffer) {
                    stored.push(*buffer);
                }
            }
            LoopOp::Reduce { buffer, op: rop, src } => {
                check_buf(*buffer)?;
                check_use(op_idx, *src, &defined)?;
                checks += 2;
                let role = roles[buffer.0 as usize];
                if role == BufferRole::Input {
                    return Err(VerifyError::RoleMismatch {
                        stage,
                        buffer: *buffer,
                        role,
                        access: "reduce",
                    });
                }
                checks += 1;
                match reduce_ops.iter().find(|(b, _)| b == buffer) {
                    Some((_, prev)) if prev != rop => {
                        return Err(VerifyError::MixedReduceOps {
                            stage,
                            buffer: *buffer,
                        })
                    }
                    Some(_) => {}
                    None => reduce_ops.push((*buffer, *rop)),
                }
                checks += 1;
            }
        }
        if let Some(dst) = op.dst() {
            let slot = &mut defined[dst.0 as usize];
            if *slot {
                return Err(VerifyError::MultipleAssignment {
                    stage,
                    op: op_idx,
                    value: dst,
                });
            }
            *slot = true;
            checks += 1;
        }
    }
    for (b, _) in &reduce_ops {
        if stored.contains(b) {
            return Err(VerifyError::StoreReduceOverlap { stage, buffer: *b });
        }
        checks += 1;
    }

    // Access bounds against the compiled buffer layout (when provided):
    // elementwise loads/stores need the full iteration domain, broadcast
    // loads and reduction accumulators need at least element 0. Reduction
    // targets are exempt from the domain-length requirement (mirroring the
    // executors, whose length validation exempts them too).
    if let Some(lens) = lens {
        let n = lens.get(l.domain.0 as usize).copied().unwrap_or(0);
        let reduce_target = |b: BufferId| reduce_ops.iter().any(|(rb, _)| *rb == b);
        for op in &l.ops {
            let (buffer, needed) = match op {
                LoopOp::Load { buffer, .. } | LoopOp::Store { buffer, .. } => {
                    (*buffer, if reduce_target(*buffer) { 1 } else { n })
                }
                LoopOp::LoadScalar { buffer, .. } | LoopOp::Reduce { buffer, .. } => (*buffer, 1),
                _ => continue,
            };
            let available = lens.get(buffer.0 as usize).copied().unwrap_or(0);
            // An empty iteration domain accesses nothing.
            if n > 0 && available < needed {
                return Err(VerifyError::BufferTooSmall {
                    stage,
                    buffer,
                    needed,
                    available,
                });
            }
            checks += 1;
        }
    }
    Ok(checks)
}

/// Verifies the structural invariants of a kernel module: SSA def-before-use
/// and single assignment per loop body, buffer references within the
/// declared buffer count, role consistency, and reduction-fold
/// well-formedness. When `lens` (the compiled per-buffer element counts, as
/// passed to the pipeline and the launch) is provided, every elementwise
/// access is additionally checked in-bounds.
///
/// Returns the number of individual checks performed.
///
/// # Errors
///
/// The first violated invariant, naming the offending stage and instruction.
pub fn verify_module(
    module: &KernelModule,
    lens: Option<&[usize]>,
) -> Result<usize, VerifyError> {
    let mut checks = 0usize;
    for (si, stage) in module.stages.iter().enumerate() {
        match stage {
            KernelStage::Loop(l) => {
                checks += verify_loop(si, l, &module.roles, lens)?;
            }
            KernelStage::Opaque(op) => {
                for b in op.read_buffers().into_iter().chain(op.written_buffers()) {
                    if b.0 >= module.num_buffers() {
                        return Err(VerifyError::UnknownBuffer { stage: si, buffer: b });
                    }
                    checks += 1;
                }
            }
        }
    }
    Ok(checks)
}

/// Walks one lowered micro-op stream (prelude followed by body) checking
/// def-before-use and register ranges; with `strict_disjoint`, additionally
/// the SIMD invariant that every destination register strictly exceeds every
/// operand register.
fn verify_instrs(
    stage: usize,
    instrs: impl Iterator<Item = Instr>,
    num_regs: usize,
    strict_disjoint: bool,
) -> Result<usize, VerifyError> {
    let mut checks = 0usize;
    let mut defined = vec![false; num_regs];
    for (idx, instr) in instrs.enumerate() {
        let (dst, a, b) = match instr {
            Instr::Load { dst, .. }
            | Instr::LoadScalar { dst, .. }
            | Instr::Set { dst, .. }
            | Instr::Param { dst, .. } => (Some(dst), None, None),
            Instr::Neg { dst, a } | Instr::Unary { dst, a, .. } => (Some(dst), Some(a), None),
            Instr::Add { dst, a, b }
            | Instr::Sub { dst, a, b }
            | Instr::Mul { dst, a, b }
            | Instr::Div { dst, a, b }
            | Instr::Binary { dst, a, b, .. } => (Some(dst), Some(a), Some(b)),
            Instr::Store { src, .. } | Instr::Reduce { src, .. } => (None, Some(src), None),
        };
        for reg in [dst, a, b].into_iter().flatten() {
            if reg as usize >= num_regs {
                return Err(VerifyError::RegisterOutOfRange {
                    stage,
                    instr: idx,
                    register: reg,
                    num_regs,
                });
            }
            checks += 1;
        }
        for operand in [a, b].into_iter().flatten() {
            if !defined[operand as usize] {
                return Err(VerifyError::LoweredUseBeforeDef {
                    stage,
                    instr: idx,
                    register: operand,
                });
            }
            checks += 1;
            if strict_disjoint {
                if let Some(dst) = dst {
                    if dst <= operand {
                        return Err(VerifyError::RegisterNotDisjoint {
                            stage,
                            instr: idx,
                            dst,
                            operand,
                        });
                    }
                    checks += 1;
                }
            }
        }
        if let Some(dst) = dst {
            defined[dst as usize] = true;
        }
    }
    Ok(checks)
}

/// Re-lowers `module` exactly as `backend` would and verifies the invariants
/// its executor relies on: micro-op def-before-use for the lowered streams,
/// and — for lane plans — that renumbering produced
/// destination registers strictly above every operand register (the
/// precondition of the executor's `split_at_mut` borrows). The interpreter
/// backend has no lowering, so it verifies trivially.
///
/// Returns the number of individual checks performed.
///
/// # Errors
///
/// The first violated invariant, naming the offending stage and micro-op, or
/// the lowering's own rejection mapped to [`VerifyError::UseBeforeDef`].
pub fn verify_lowering(module: &KernelModule, backend: BackendKind) -> Result<usize, VerifyError> {
    if backend == BackendKind::Interp {
        return Ok(0);
    }
    let mut checks = 0usize;
    for (si, stage) in module.stages.iter().enumerate() {
        let KernelStage::Loop(l) = stage else {
            continue;
        };
        let lowered = lower_loop(l).map_err(|e| match e {
            crate::interp::ExecError::UndefinedValue(v) => VerifyError::UseBeforeDef {
                stage: si,
                op: 0,
                value: v,
            },
            // lower_loop only fails on use-before-def; anything else would be
            // a new lowering error this verifier must learn about.
            other => panic!("unexpected lowering failure during verification: {other}"),
        })?;
        checks += verify_instrs(
            si,
            lowered.prelude.iter().chain(&lowered.body).copied(),
            lowered.num_values.max(1),
            false,
        )?;
        if lowered.vectorized {
            if let Some(plan) = simd::renumber(&lowered) {
                checks += verify_instrs(
                    si,
                    plan.prelude.iter().chain(&plan.body).copied(),
                    plan.num_regs.max(1),
                    true,
                )?;
            }
        }
    }
    Ok(checks)
}

/// Checks a generated module against the task's declared [`TaskSignature`]:
/// the module covers every declared argument, scalar-parameter indices stay
/// within the declared arity, and no argument is accessed in a way its
/// [`ArgSpec`] forbids (writes into `Read` arguments, plain stores into
/// `Reduce` arguments, reductions into non-`Reduce` arguments).
///
/// Returns the number of individual checks performed.
///
/// # Errors
///
/// The first violated invariant.
pub fn verify_against_signature(
    module: &KernelModule,
    sig: &TaskSignature,
) -> Result<usize, VerifyError> {
    let mut checks = 1usize;
    if (module.num_buffers() as usize) < sig.args().len() {
        return Err(VerifyError::ArityMismatch {
            expected: sig.args().len(),
            found: module.num_buffers() as usize,
        });
    }
    for (si, stage) in module.stages.iter().enumerate() {
        let KernelStage::Loop(l) = stage else {
            continue;
        };
        for op in &l.ops {
            if let LoopOp::Param { index, .. } = op {
                if *index >= sig.num_scalars() {
                    return Err(VerifyError::ScalarOutOfRange {
                        stage: si,
                        index: *index,
                        declared: sig.num_scalars(),
                    });
                }
                checks += 1;
            }
        }
    }
    let uses = buffer_uses(module);
    for (i, spec) in sig.args().iter().enumerate() {
        let u = uses[i];
        let conflict = match spec {
            ArgSpec::Read if u.stored => Some("store"),
            ArgSpec::Read if u.reduced => Some("reduce"),
            ArgSpec::Write | ArgSpec::ReadWrite if u.reduced => Some("reduce"),
            ArgSpec::Reduce if u.stored => Some("store"),
            _ => None,
        };
        if let Some(access) = conflict {
            return Err(VerifyError::SignatureRoleConflict {
                arg: i,
                spec: *spec,
                access,
            });
        }
        checks += 1;
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::ir::{BinaryOp, ReduceOp};

    fn scale_module() -> KernelModule {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("scale", BufferId(0));
        let x = lb.load(BufferId(0));
        let c = lb.constant(3.0);
        let v = lb.mul(x, c);
        lb.store(BufferId(1), v);
        m.push_loop(lb.finish());
        m
    }

    fn dot_module() -> KernelModule {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Reduction);
        let mut lb = LoopBuilder::new("dot", BufferId(0));
        let x = lb.load(BufferId(0));
        let y = lb.load(BufferId(1));
        let v = lb.mul(x, y);
        lb.reduce(BufferId(2), ReduceOp::Sum, v);
        m.push_loop(lb.finish());
        m
    }

    #[test]
    fn well_formed_modules_verify() {
        assert!(verify_module(&scale_module(), None).unwrap() > 0);
        assert!(verify_module(&dot_module(), Some(&[8, 8, 1])).unwrap() > 0);
    }

    #[test]
    fn use_before_def_is_rejected() {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Output);
        let kernel = LoopKernel {
            name: "bad".into(),
            domain: BufferId(0),
            ops: vec![LoopOp::Store {
                buffer: BufferId(1),
                src: ValueId(0),
            }],
            parallel: false,
        };
        m.push_loop(kernel);
        assert!(matches!(
            verify_module(&m, None),
            Err(VerifyError::UseBeforeDef { .. })
        ));
    }

    #[test]
    fn double_assignment_is_rejected() {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Output);
        let kernel = LoopKernel {
            name: "bad".into(),
            domain: BufferId(0),
            ops: vec![
                LoopOp::Const {
                    dst: ValueId(0),
                    value: 1.0,
                },
                LoopOp::Const {
                    dst: ValueId(0),
                    value: 2.0,
                },
            ],
            parallel: false,
        };
        m.push_loop(kernel);
        assert_eq!(
            verify_module(&m, None),
            Err(VerifyError::MultipleAssignment {
                stage: 0,
                op: 1,
                value: ValueId(0)
            })
        );
    }

    #[test]
    fn store_into_input_role_is_rejected() {
        let mut m = KernelModule::new(2);
        // Buffer 1 keeps the default Input role but is stored into.
        let mut lb = LoopBuilder::new("bad", BufferId(0));
        let x = lb.load(BufferId(0));
        lb.store(BufferId(1), x);
        m.push_loop(lb.finish());
        assert!(matches!(
            verify_module(&m, None),
            Err(VerifyError::RoleMismatch {
                access: "store",
                ..
            })
        ));
    }

    #[test]
    fn shrunken_buffer_is_rejected() {
        let m = scale_module();
        assert!(verify_module(&m, Some(&[8, 8])).is_ok());
        assert_eq!(
            verify_module(&m, Some(&[8, 4])),
            Err(VerifyError::BufferTooSmall {
                stage: 0,
                buffer: BufferId(1),
                needed: 8,
                available: 4
            })
        );
    }

    #[test]
    fn reduction_accumulator_is_exempt_from_domain_length() {
        assert!(verify_module(&dot_module(), Some(&[8, 8, 1])).is_ok());
    }

    #[test]
    fn mixed_reduce_ops_are_rejected() {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Reduction);
        let mut lb = LoopBuilder::new("bad", BufferId(0));
        let x = lb.load(BufferId(0));
        lb.reduce(BufferId(1), ReduceOp::Sum, x);
        lb.reduce(BufferId(1), ReduceOp::Max, x);
        m.push_loop(lb.finish());
        assert!(matches!(
            verify_module(&m, None),
            Err(VerifyError::MixedReduceOps { .. })
        ));
    }

    #[test]
    fn store_reduce_overlap_is_rejected() {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Reduction);
        let mut lb = LoopBuilder::new("bad", BufferId(0));
        let x = lb.load(BufferId(0));
        lb.store(BufferId(1), x);
        lb.reduce(BufferId(1), ReduceOp::Sum, x);
        m.push_loop(lb.finish());
        assert!(matches!(
            verify_module(&m, None),
            Err(VerifyError::StoreReduceOverlap { .. })
        ));
    }

    #[test]
    fn unknown_buffer_is_rejected() {
        let mut m = KernelModule::new(1);
        let mut lb = LoopBuilder::new("bad", BufferId(0));
        let x = lb.load(BufferId(7));
        lb.store(BufferId(0), x);
        m.push_loop(lb.finish());
        assert!(matches!(
            verify_module(&m, None),
            Err(VerifyError::UnknownBuffer { .. })
        ));
    }

    #[test]
    fn lowering_invariants_hold_for_real_modules() {
        for m in [scale_module(), dot_module()] {
            assert!(verify_lowering(&m, BackendKind::Interp).unwrap() == 0);
            assert!(verify_lowering(&m, BackendKind::Simd).unwrap() > 0);
        }
    }

    #[test]
    fn signature_consistency_and_lint() {
        let sig = TaskSignature::new().read().write();
        let m = scale_module();
        assert!(verify_against_signature(&m, &sig).is_ok());

        // A signature declaring the input writable is over-broad, not wrong.
        let broad = TaskSignature::new().read_write().write();
        assert!(verify_against_signature(&m, &broad).is_ok());

        // A kernel writing a Read argument is rejected outright.
        let wrong = TaskSignature::new().write().read();
        assert!(matches!(
            verify_against_signature(&m, &wrong),
            Err(VerifyError::SignatureRoleConflict {
                arg: 1,
                access: "store",
                ..
            })
        ));
    }

    #[test]
    fn scalar_arity_is_checked() {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("axpy", BufferId(0));
        let x = lb.load(BufferId(0));
        let a = lb.param(0);
        let v = lb.binary(BinaryOp::Mul, a, x);
        lb.store(BufferId(1), v);
        m.push_loop(lb.finish());
        assert!(verify_against_signature(&m, &TaskSignature::new().read().write().scalars(1))
            .is_ok());
        assert!(matches!(
            verify_against_signature(&m, &TaskSignature::new().read().write()),
            Err(VerifyError::ScalarOutOfRange { .. })
        ));
    }
}
