//! The SIMD backend: fused loop nests lowered once into lane-parallel
//! chunked kernels over arrays-of-lanes.
//!
//! The lowering front end (`lower::lower_loop`) resolves every op at compile
//! time — buffer and value ids to raw indices, arithmetic to inline micro-ops,
//! invariants hoisted into a prelude, SSA checked once — and this backend
//! executes the resulting micro-op streams chunk by chunk, in the style of the
//! single-pass fused SIMD kernels of "Optimizing CUDA Code By Kernel Fusion"
//! and Bohrium's runtime-fused array streams (see PAPERS.md). Dispatch cost
//! is paid once per op per chunk instead of once per op per element, which
//! is where the steady-state speedup over the interpreter comes from:
//!
//! * SSA values live in **arrays-of-lanes**: each value is a register row
//!   `[[f64; LANES]; VECTORS]` (`f64x4`-style lane vectors, [`SIMD_CHUNK`]
//!   elements per row), so every arithmetic micro-op is a pair of nested
//!   loops with **constant trip counts** over fixed-size arrays — no bounds
//!   checks, no dynamic lengths, fully unrollable and vectorizable.
//! * At compile time values are **renumbered in definition order** (prelude
//!   first, then body), so an op's destination register always has a strictly
//!   higher index than its operands. Execution then borrows destination and
//!   operand rows disjointly via `split_at_mut` — zero-copy, no `unsafe`.
//! * Loop-invariant ops (constants, scalar parameters, broadcast loads of
//!   buffers the loop never writes) are splatted across a register row once
//!   per stage.
//! * `exp`, `ln` and `erf` rows run the [`crate::math`] functions the
//!   interpreter calls per element, through a small per-row routine compiled
//!   three times — for the baseline target, for AVX2 and for AVX-512F — and
//!   the widest copy the CPU runs is picked once per process
//!   (`transcendental_row`). Calling that copy (`RowCopy::run`) is the
//!   crate's one `unsafe` block.
//! * Domains that are not a multiple of the chunk width run an explicit
//!   **masked tail**: loads fill only the valid lanes, arithmetic runs full
//!   width (dead lanes hold stale values, which is harmless — no element's
//!   dataflow ever reads them), and stores/reductions write back only the
//!   valid lanes.
//! * Reductions fold the valid lanes **in element order** and modules with
//!   element-0 side channels (broadcast loads of written buffers, shared or
//!   touched accumulators — the lowering's `vectorized` analysis) take the
//!   exact per-element fallback, so results stay **bitwise-identical** to
//!   [`crate::Interpreter`] for every module. Elementwise lane arithmetic is
//!   bitwise-deterministic because each element's dataflow is independent and
//!   identical to the scalar evaluation (Rust never contracts `f64` ops into
//!   FMAs behind your back). The sole exception is NaN *payload* bits, which
//!   Rust defines as non-deterministic for any freshly produced NaN — LLVM
//!   may commute `fadd` operands between compilations of the same source
//!   fold — so equivalence is exact bits for non-NaN values and NaN-ness
//!   (never payload) for NaNs; the differential harness canonicalizes
//!   accordingly.
//!
//! Opaque stages (SpMV, GEMV, restrict/prolong) dispatch once per stage to
//! the same native implementations as the interpreter.
//!
//! The one-time lowering (resolution + renumbering) is a genuine compile
//! cost, which the simulated clock prices through the fitted per-backend
//! [`CompileTimeModel`] calibration (`cargo run --release --bin calibrate`);
//! the steady state is measurably faster than the interpreter on the fused
//! cg/jacobi windows (`cargo run --release --bin kernel_backends`).
//! Memoization then amortizes the surcharge exactly as §5.2 of the paper
//! describes.

use std::sync::{Arc, OnceLock};

use crate::backend::{BackendKind, Buffer, CompiledKernel, KernelBackend};
use crate::cost::CompileTimeModel;
use crate::interp::{self, ExecError};
use crate::ir::{KernelModule, KernelStage, OpaqueOp, ReduceOp, UnaryOp};
use crate::lower::{lower_loop, CompiledLoop, Instr};
use crate::math;

/// Lanes per SIMD vector: the `f64x4` shape of a 256-bit double vector.
pub const LANES: usize = 4;

/// Lane vectors per register row. `LANES * VECTORS` elements are processed
/// per chunk; sized so a fused window's register rows stay L1-resident while
/// still amortizing dispatch 64×.
pub const VECTORS: usize = 16;

/// Elements processed per chunk ([`LANES`] × [`VECTORS`]).
pub const SIMD_CHUNK: usize = LANES * VECTORS;

/// Fallback compile-cost surcharge over the interpreter's baseline
/// calibration, used only when `BENCH_compile_calibration.json` has no fitted
/// entry for this backend (see [`CompileTimeModel::calibrated`]): every op
/// is resolved, specialized and renumbered at compile time.
pub const SIMD_COMPILE_FACTOR: f64 = 1.5;

/// One SSA register row: [`SIMD_CHUNK`] elements as an array-of-lanes.
type Row = [[f64; LANES]; VECTORS];

/// The lane-parallel schedule for one loop stage: the lowering's
/// prelude/body micro-op streams with values renumbered in definition order,
/// so `dst > operands` holds for every op (the `split_at_mut` invariant).
#[derive(Debug)]
pub(crate) struct LanePlan {
    pub(crate) prelude: Vec<Instr>,
    pub(crate) body: Vec<Instr>,
    pub(crate) num_regs: usize,
}

/// One compiled loop stage: the lowering plus, when the chunked schedule is
/// sound for this module, the lane-parallel plan.
#[derive(Debug)]
struct SimdLoop {
    inner: CompiledLoop,
    lanes: Option<LanePlan>,
}

/// One compiled stage.
#[derive(Debug)]
enum SimdStage {
    Loop(SimdLoop),
    Opaque(OpaqueOp),
}

/// Artifact of the [`SimdBackend`].
#[derive(Debug)]
struct SimdCompiled {
    module: KernelModule,
    stages: Vec<SimdStage>,
}

/// The SIMD backend. See the module documentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

impl KernelBackend for SimdBackend {
    fn id(&self) -> &'static str {
        BackendKind::Simd.id()
    }

    fn compile(&self, module: &KernelModule) -> Result<Arc<dyn CompiledKernel>, ExecError> {
        let stages = module
            .stages
            .iter()
            .map(|stage| match stage {
                KernelStage::Loop(l) => lower_loop(l).map(|inner| {
                    // The renumbering requires full SSA, which is exactly the
                    // lowering's condition for the reorderable schedule;
                    // modules with element-0 side channels keep
                    // `lanes: None` and run the exact per-element fallback.
                    let lanes = if inner.vectorized {
                        renumber(&inner)
                    } else {
                        None
                    };
                    SimdStage::Loop(SimdLoop { inner, lanes })
                }),
                KernelStage::Opaque(op) => Ok(SimdStage::Opaque(op.clone())),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Arc::new(SimdCompiled {
            module: module.clone(),
            stages,
        }))
    }

    fn compile_cost(&self, module: &KernelModule, model: &CompileTimeModel) -> f64 {
        // Surcharge over `model` (the Figure 13 anchor) taken from the fitted
        // per-backend calibration, not an asserted constant.
        model.calibrated(self.id()).compile_time(module)
    }
}

impl CompiledKernel for SimdCompiled {
    fn module(&self) -> &KernelModule {
        &self.module
    }

    fn backend_id(&self) -> &'static str {
        BackendKind::Simd.id()
    }

    fn execute_stage(
        &self,
        stage: usize,
        buffers: &mut [Buffer<'_>],
        scalars: &[f64],
    ) -> Result<(), ExecError> {
        match &self.stages[stage] {
            SimdStage::Opaque(op) => interp::run_opaque(op, buffers),
            SimdStage::Loop(l) => {
                let n = l.inner.check(buffers)?;
                if n == 0 {
                    return Ok(());
                }
                l.inner.check_params(scalars)?;
                if let Some(plan) = &l.lanes {
                    run_lanes(plan, buffers, scalars, n);
                } else {
                    l.inner.run_elementwise(buffers, scalars, n);
                }
                Ok(())
            }
        }
    }
}

/// The register an op defines (if any) and the registers it reads, mutably —
/// what [`renumber`] rewrites.
fn regs_mut(instr: &mut Instr) -> (Option<&mut u32>, [Option<&mut u32>; 2]) {
    match instr {
        Instr::Load { dst, .. }
        | Instr::LoadScalar { dst, .. }
        | Instr::Set { dst, .. }
        | Instr::Param { dst, .. } => (Some(dst), [None, None]),
        Instr::Neg { dst, a } | Instr::Unary { dst, a, .. } => (Some(dst), [Some(a), None]),
        Instr::Add { dst, a, b }
        | Instr::Sub { dst, a, b }
        | Instr::Mul { dst, a, b }
        | Instr::Div { dst, a, b }
        | Instr::Binary { dst, a, b, .. } => (Some(dst), [Some(a), Some(b)]),
        Instr::Store { src, .. } | Instr::Reduce { src, .. } => (None, [Some(src), None]),
    }
}

/// Renumbers the lowered value ids in definition order (prelude first, then
/// body) so every op's destination register index strictly exceeds its
/// operands'. Returns `None` if any operand is read before definition —
/// impossible for streams the lowering marked `vectorized`, but the
/// caller falls back to the exact schedule rather than trusting that.
pub(crate) fn renumber(l: &CompiledLoop) -> Option<LanePlan> {
    const UNDEF: u32 = u32::MAX;
    let mut map = vec![UNDEF; l.num_values.max(1)];
    let mut next: u32 = 0;
    let mut out = Vec::with_capacity(l.prelude.len() + l.body.len());
    for &(mut instr) in l.prelude.iter().chain(&l.body) {
        let (dst, operands) = regs_mut(&mut instr);
        for operand in operands.into_iter().flatten() {
            *operand = Some(map[*operand as usize]).filter(|&r| r != UNDEF)?;
        }
        if let Some(dst) = dst {
            map[*dst as usize] = next;
            *dst = next;
            next += 1;
        }
        out.push(instr);
    }
    let body = out.split_off(l.prelude.len());
    Some(LanePlan {
        prelude: out,
        body,
        num_regs: next as usize,
    })
}

/// Splats one value across a full register row.
#[inline]
fn splat(v: f64) -> Row {
    [[v; LANES]; VECTORS]
}

/// Borrows the destination row mutably and up to two operand rows immutably.
/// Sound without copies because renumbering guarantees `dst > a, b`.
macro_rules! lane_op {
    ($regs:expr, $dst:expr, $a:expr, |$x:ident| $e:expr) => {{
        let (lo, hi) = $regs.split_at_mut($dst as usize);
        let d = &mut hi[0];
        let a = &lo[$a as usize];
        for v in 0..VECTORS {
            for l in 0..LANES {
                let $x = a[v][l];
                d[v][l] = $e;
            }
        }
    }};
    ($regs:expr, $dst:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
        let (lo, hi) = $regs.split_at_mut($dst as usize);
        let d = &mut hi[0];
        let (a, b) = (&lo[$a as usize], &lo[$b as usize]);
        for v in 0..VECTORS {
            for l in 0..LANES {
                let ($x, $y) = (a[v][l], b[v][l]);
                d[v][l] = $e;
            }
        }
    }};
}

/// `d = op(a)` over one row for a transcendental `op`, through the same
/// [`math`] functions the interpreter calls per element. The row loop is
/// compiled once per target — for the baseline, for AVX2 and for AVX-512F
/// ([`wide_rows`]) — and the widest copy this CPU runs is picked once per
/// process: AVX-512F, else AVX2, else portable. Dispatching a small
/// function per row, rather than compiling a whole chunk loop for a wider
/// target, keeps the arithmetic micro-ops at the baseline target (they lose
/// speed at the wider ones) and lets LLVM vectorize the math.
fn transcendental_row(op: UnaryOp, a: &Row, d: &mut Row) {
    static WIDEST: OnceLock<RowCopy> = OnceLock::new();
    let widest = *WIDEST.get_or_init(|| {
        wide_rows()
            .into_iter()
            .find_map(|(_, copy)| copy)
            .unwrap_or(RowCopy(portable_row))
    });
    widest.run(op, a, d);
}

/// A copy of the row loop this CPU can run: made only from
/// [`portable_row`], or by [`wide_rows`] after detecting the copy's target
/// feature. The pointer is `unsafe` because a copy compiled for a target
/// feature may only run on a CPU that has it.
#[derive(Clone, Copy)]
struct RowCopy(unsafe fn(UnaryOp, &Row, &mut Row));

impl RowCopy {
    fn run(self, op: UnaryOp, a: &Row, d: &mut Row) {
        // SAFETY: a `RowCopy` holds either the portable copy, which needs no
        // feature, or a copy whose target feature `wide_rows` detected on
        // this CPU.
        unsafe { (self.0)(op, a, d) }
    }
}

/// `d[i] = f(a[i])` over a row: a constant trip count, and no call left
/// once `f` is inlined.
#[inline(always)]
fn row_map(a: &Row, d: &mut Row, f: impl Fn(f64) -> f64) {
    for (d, &x) in d.as_flattened_mut().iter_mut().zip(a.as_flattened()) {
        *d = f(x);
    }
}

/// The row loop every copy shares.
#[inline(always)]
fn math_row(op: UnaryOp, a: &Row, d: &mut Row) {
    match op {
        UnaryOp::Exp => row_map(a, d, math::exp),
        UnaryOp::Ln => row_map(a, d, math::ln),
        UnaryOp::Erf => row_map(a, d, math::erf),
        _ => unreachable!("only exp, ln and erf rows are dispatched"),
    }
}

/// [`math_row`] for the baseline target: runs on any CPU.
fn portable_row(op: UnaryOp, a: &Row, d: &mut Row) {
    math_row(op, a, d);
}

/// The wider copies of [`math_row`], widest first: each copy's target
/// feature and, if this CPU has that feature, the copy. Each enables one
/// feature. LLVM takes `avx512f` to imply FMA, but no FMA is written
/// anywhere and Rust never contracts into one on its own, and IEEE
/// operations give the same bits at any vector width, so every copy gives
/// the portable copy's bits.
#[cfg(target_arch = "x86_64")]
fn wide_rows() -> [(&'static str, Option<RowCopy>); 2] {
    #[target_feature(enable = "avx512f")]
    fn avx512f_row(op: UnaryOp, a: &Row, d: &mut Row) {
        math_row(op, a, d);
    }
    #[target_feature(enable = "avx2")]
    fn avx2_row(op: UnaryOp, a: &Row, d: &mut Row) {
        math_row(op, a, d);
    }
    [
        ("avx512f", is_x86_feature_detected!("avx512f").then_some(RowCopy(avx512f_row))),
        ("avx2", is_x86_feature_detected!("avx2").then_some(RowCopy(avx2_row))),
    ]
}

/// No wider copies off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn wide_rows() -> [(&'static str, Option<RowCopy>); 0] {
    []
}

/// Executes the lane-parallel schedule over a non-empty domain of `n`
/// elements. The caller has already validated buffers and scalars.
fn run_lanes(plan: &LanePlan, buffers: &mut [Buffer<'_>], scalars: &[f64], n: usize) {
    let mut regs: Vec<Row> = vec![splat(0.0); plan.num_regs.max(1)];
    for &instr in &plan.prelude {
        let (dst, v) = match instr {
            Instr::Set { dst, imm } => (dst, imm),
            Instr::Param { dst, idx } => (dst, scalars[idx as usize]),
            Instr::LoadScalar { dst, buf } => (dst, buffers[buf as usize].get(0)),
            _ => unreachable!("only invariant ops are hoisted"),
        };
        regs[dst as usize] = splat(v);
    }
    let mut base = 0usize;
    while base < n {
        let len = SIMD_CHUNK.min(n - base);
        run_chunk(&plan.body, &mut regs, buffers, base, len);
        base += len;
    }
}

/// Executes the body micro-ops over one chunk of `len` elements starting at
/// `base`. `len < SIMD_CHUNK` only on the final masked tail: loads fill only
/// the valid lanes, arithmetic runs full width (stale dead lanes are never
/// observable), stores and reductions mask back down to `len`.
fn run_chunk(
    body: &[Instr],
    regs: &mut [Row],
    buffers: &mut [Buffer<'_>],
    base: usize,
    len: usize,
) {
    for &instr in body {
        match instr {
            Instr::Load { dst, buf } => {
                // Row-major lane order is element order and the row layout is
                // exactly `[f64; SIMD_CHUNK]`, so a (possibly masked) load is
                // one flat memcpy into the leading lanes — one per run the
                // chunk spans when the buffer is a strided view.
                let row = regs[dst as usize].as_flattened_mut();
                buffers[buf as usize].read(base, &mut row[..len]);
            }
            Instr::Neg { dst, a } => lane_op!(regs, dst, a, |x| -x),
            Instr::Add { dst, a, b } => lane_op!(regs, dst, a, b, |x, y| x + y),
            Instr::Sub { dst, a, b } => lane_op!(regs, dst, a, b, |x, y| x - y),
            Instr::Mul { dst, a, b } => lane_op!(regs, dst, a, b, |x, y| x * y),
            Instr::Div { dst, a, b } => lane_op!(regs, dst, a, b, |x, y| x / y),
            Instr::Unary { dst, a, op } => match op {
                UnaryOp::Neg => lane_op!(regs, dst, a, |x| -x),
                UnaryOp::Sqrt => lane_op!(regs, dst, a, |x| x.sqrt()),
                UnaryOp::Abs => lane_op!(regs, dst, a, |x| x.abs()),
                UnaryOp::Recip => lane_op!(regs, dst, a, |x| 1.0 / x),
                UnaryOp::Exp | UnaryOp::Ln | UnaryOp::Erf => {
                    let (lo, hi) = regs.split_at_mut(dst as usize);
                    transcendental_row(op, &lo[a as usize], &mut hi[0]);
                }
            },
            Instr::Binary { dst, a, b, f } => lane_op!(regs, dst, a, b, |x, y| f(x, y)),
            Instr::Store { buf, src } => {
                // The masked write-back mirrors the load: only the `len`
                // valid leading lanes reach memory.
                let row = regs[src as usize].as_flattened();
                buffers[buf as usize].write(base, &row[..len]);
            }
            Instr::Reduce { buf, src, op } => {
                // Row-major lane order *is* element order, so this fold is
                // bitwise-identical to the interpreter's.
                let row = &regs[src as usize].as_flattened()[..len];
                let mut acc = buffers[buf as usize].get(0);
                match op {
                    ReduceOp::Sum => {
                        for &x in row {
                            acc += x;
                        }
                    }
                    ReduceOp::Max => {
                        for &x in row {
                            acc = acc.max(x);
                        }
                    }
                    ReduceOp::Min => {
                        for &x in row {
                            acc = acc.min(x);
                        }
                    }
                }
                buffers[buf as usize].set(0, acc);
            }
            Instr::LoadScalar { .. } | Instr::Set { .. } | Instr::Param { .. } => {
                unreachable!("invariant ops are always hoisted on the lane path")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::interp::Interpreter;
    use crate::ir::{BinaryOp, BufferId, BufferRole, IndexWidth, UnaryOp};

    fn both(
        module: &KernelModule,
        bufs: &[Vec<f64>],
        scalars: &[f64],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut a = bufs.to_vec();
        Interpreter::new().execute(module, &mut a, scalars).unwrap();
        let mut b = bufs.to_vec();
        SimdBackend
            .compile(module)
            .unwrap()
            .execute(&mut b, scalars)
            .unwrap();
        (a, b)
    }

    /// Exact bits, with NaNs canonicalized (payloads are non-deterministic;
    /// see the module docs).
    fn bits(bufs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        bufs.iter()
            .map(|b| {
                b.iter()
                    .map(|v| {
                        if v.is_nan() {
                            0x7ff8_0000_0000_0000
                        } else {
                            v.to_bits()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn saxpy_module() -> KernelModule {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Output);
        let mut lb = LoopBuilder::new("saxpy", BufferId(0));
        let x = lb.load(BufferId(0));
        let y = lb.load(BufferId(1));
        let a = lb.param(0);
        let ax = lb.mul(a, x);
        let v = lb.add(ax, y);
        lb.store(BufferId(2), v);
        m.push_loop(lb.finish());
        m
    }

    #[test]
    fn simd_matches_interpreter_across_masked_tail_lengths() {
        let m = saxpy_module();
        // Every tail shape: empty, single element, lane boundary ±1, chunk
        // boundary ±1, prime sizes, multiple chunks.
        for n in [
            0,
            1,
            LANES - 1,
            LANES,
            LANES + 1,
            7,
            13,
            SIMD_CHUNK - 1,
            SIMD_CHUNK,
            SIMD_CHUNK + 1,
            127,
            3 * SIMD_CHUNK + 5,
        ] {
            let bufs = vec![
                (0..n).map(|i| i as f64 * 0.25 - 3.0).collect(),
                (0..n).map(|i| 1.0 / (i as f64 + 0.5)).collect(),
                vec![0.0; n],
            ];
            let (a, b) = both(&m, &bufs, &[1.5]);
            assert_eq!(bits(&a), bits(&b), "n = {n}");
        }
    }

    #[test]
    fn simd_matches_interpreter_on_nonfinite_inputs() {
        let m = saxpy_module();
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::MIN_POSITIVE / 4.0,
            1.0,
        ];
        let n = SIMD_CHUNK + 3;
        let bufs = vec![
            (0..n).map(|i| specials[i % specials.len()]).collect(),
            (0..n).map(|i| specials[(i + 3) % specials.len()]).collect(),
            vec![0.0; n],
        ];
        let (a, b) = both(&m, &bufs, &[f64::NEG_INFINITY]);
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn reductions_fold_in_element_order() {
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Reduction);
        let mut lb = LoopBuilder::new("sum", BufferId(0));
        let x = lb.load(BufferId(0));
        lb.reduce(BufferId(1), crate::ir::ReduceOp::Sum, x);
        m.push_loop(lb.finish());
        // Magnitudes spread wide enough that any reassociation changes bits.
        for n in [1, LANES + 1, SIMD_CHUNK - 1, SIMD_CHUNK + 1, 2 * SIMD_CHUNK + 13] {
            let bufs = vec![
                (0..n)
                    .map(|i| (i as f64 + 1.0) * 1e16_f64.powi((i % 5) as i32 - 2))
                    .collect(),
                vec![0.125],
            ];
            let (a, b) = both(&m, &bufs, &[]);
            assert_eq!(bits(&a), bits(&b), "n = {n}");
        }
    }

    #[test]
    fn element0_side_channels_take_the_exact_fallback() {
        // A loop that reduces into a buffer *and* broadcast-loads it: each
        // element must observe the running accumulator, which only the exact
        // per-element schedule preserves.
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Reduction);
        let mut lb = LoopBuilder::new("prefixy", BufferId(0));
        let acc = lb.load_scalar(BufferId(1));
        let x = lb.load(BufferId(0));
        let contrib = lb.mul(x, acc);
        lb.reduce(BufferId(1), crate::ir::ReduceOp::Sum, contrib);
        m.push_loop(lb.finish());
        let bufs = vec![vec![1.0, 2.0, 3.0], vec![1.0]];
        let (a, b) = both(&m, &bufs, &[]);
        assert_eq!(a, b);
        assert_eq!(a[1][0], 24.0);
    }

    #[test]
    fn unary_and_binary_fn_ops_match() {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Output);
        let mut lb = LoopBuilder::new("mix", BufferId(0));
        let x = lb.load(BufferId(0));
        let y = lb.load(BufferId(1));
        let e = lb.unary(UnaryOp::Exp, x);
        let p = lb.binary(BinaryOp::Max, e, y);
        let d = lb.binary(BinaryOp::Div, p, x);
        lb.store(BufferId(2), d);
        m.push_loop(lb.finish());
        let n = SIMD_CHUNK + LANES - 1;
        let bufs = vec![
            (0..n).map(|i| (i as f64 - 32.0) * 0.125).collect(),
            (0..n).map(|i| (i % 7) as f64 - 3.0).collect(),
            vec![0.0; n],
        ];
        let (a, b) = both(&m, &bufs, &[]);
        assert_eq!(bits(&a), bits(&b));
    }

    /// Edge values of `exp`, `ln` and `erf`, then pseudo-random arguments
    /// spread over many binades of both signs.
    fn transcendental_inputs() -> Row {
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            709.78,
            709.79,
            -745.13,
            -746.0,
            f64::MAX,
            f64::MIN,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut row = splat(0.0);
        for (i, x) in row.as_flattened_mut().iter_mut().enumerate() {
            *x = edges.get(i).copied().unwrap_or_else(|| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let magnitude = (state >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
                sign * magnitude * 10f64.powi((state % 7) as i32 - 2)
            });
        }
        row
    }

    #[test]
    fn every_row_copy_this_cpu_runs_agrees_with_the_portable_row_bit_for_bit() {
        let a = transcendental_inputs();
        let (mut ran, mut skipped) = (vec!["portable"], Vec::new());
        for (feature, copy) in wide_rows() {
            let Some(copy) = copy else {
                skipped.push(feature);
                continue;
            };
            for op in [UnaryOp::Exp, UnaryOp::Ln, UnaryOp::Erf] {
                let (mut wide, mut portable) = (splat(0.0), splat(0.0));
                copy.run(op, &a, &mut wide);
                portable_row(op, &a, &mut portable);
                assert_eq!(
                    bits(&[wide.as_flattened().to_vec()]),
                    bits(&[portable.as_flattened().to_vec()]),
                    "{feature} {op:?}"
                );
            }
            ran.push(feature);
        }
        println!("row copies checked: {ran:?}; skipped (this CPU lacks them): {skipped:?}");
    }

    #[test]
    fn transcendental_rows_match_interpreter_at_every_tail_length() {
        let inputs = transcendental_inputs();
        let inputs = inputs.as_flattened();
        for op in [UnaryOp::Exp, UnaryOp::Ln, UnaryOp::Erf] {
            let mut m = KernelModule::new(2);
            m.set_role(BufferId(1), BufferRole::Output);
            let mut lb = LoopBuilder::new("transcendental", BufferId(0));
            let x = lb.load(BufferId(0));
            let y = lb.unary(op, x);
            lb.store(BufferId(1), y);
            m.push_loop(lb.finish());
            // One full chunk plus every tail length after it.
            let step = if cfg!(miri) { 13 } else { 1 };
            for tail in (0..SIMD_CHUNK).step_by(step) {
                let n = SIMD_CHUNK + tail;
                let bufs = vec![
                    (0..n)
                        .map(|i| inputs[(i * 7 + tail) % SIMD_CHUNK])
                        .collect(),
                    vec![0.0; n],
                ];
                let (a, b) = both(&m, &bufs, &[]);
                assert_eq!(bits(&a), bits(&b), "{op:?}, n = {n}");
            }
        }
    }

    #[test]
    fn simd_matches_interpreter_on_opaque_stages() {
        let mut m = KernelModule::new(5);
        m.push_opaque(OpaqueOp::SpMvCsr {
            pos: BufferId(0),
            crd: BufferId(1),
            vals: BufferId(2),
            x: BufferId(3),
            y: BufferId(4),
            index_width: IndexWidth::U32,
        });
        let bufs = vec![
            vec![0.0, 2.0, 3.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0],
            vec![0.0, 0.0],
        ];
        let (a, b) = both(&m, &bufs, &[]);
        assert_eq!(a, b);
        assert_eq!(a[4], vec![14.0, 15.0]);
    }

    #[test]
    fn error_contract_matches_the_interpreter() {
        let compiled = SimdBackend.compile(&saxpy_module()).unwrap();
        let mut bufs = vec![vec![1.0], vec![1.0], vec![0.0]];
        assert_eq!(
            compiled.execute(&mut bufs, &[]),
            Err(ExecError::MissingParam(0))
        );
        let mut short = vec![vec![1.0]];
        assert!(matches!(
            compiled.execute(&mut short, &[1.0]),
            Err(ExecError::MissingBuffer(_))
        ));
        let mut mismatched = vec![vec![1.0, 2.0], vec![1.0], vec![0.0; 2]];
        assert!(matches!(
            compiled.execute(&mut mismatched, &[1.0]),
            Err(ExecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn malformed_ssa_is_a_compile_error() {
        use crate::ir::{LoopKernel, LoopOp, ValueId};
        let mut m = KernelModule::new(2);
        m.push_loop(LoopKernel {
            name: "bad".into(),
            domain: BufferId(0),
            ops: vec![LoopOp::Store {
                buffer: BufferId(1),
                src: ValueId(3), // never defined
            }],
            parallel: false,
        });
        assert_eq!(
            SimdBackend.compile(&m).err(),
            Some(ExecError::UndefinedValue(ValueId(3)))
        );
    }

    #[test]
    fn compile_cost_uses_the_fitted_calibration() {
        let m = saxpy_module();
        let model = CompileTimeModel::default();
        // The surcharge comes from the calibrated per-backend model, and the
        // lane lowering never costs less than the interpreter's anchor.
        assert_eq!(
            SimdBackend.compile_cost(&m, &model),
            model.calibrated("simd").compile_time(&m)
        );
        assert!(
            SimdBackend.compile_cost(&m, &model)
                >= crate::backend::InterpBackend.compile_cost(&m, &model)
        );
    }

    #[test]
    fn renumbered_registers_increase_in_definition_order() {
        let m = saxpy_module();
        let KernelStage::Loop(l) = &m.stages[0] else {
            unreachable!()
        };
        let lowered = lower_loop(l).unwrap();
        assert!(lowered.vectorized);
        let plan = renumber(&lowered).unwrap();
        let mut defined = 0u32;
        for instr in plan.prelude.iter().chain(&plan.body) {
            match *instr {
                Instr::Load { dst, .. }
                | Instr::LoadScalar { dst, .. }
                | Instr::Set { dst, .. }
                | Instr::Param { dst, .. } => {
                    assert_eq!(dst, defined);
                    defined += 1;
                }
                Instr::Neg { dst, a } | Instr::Unary { dst, a, .. } => {
                    assert!(a < dst);
                    assert_eq!(dst, defined);
                    defined += 1;
                }
                Instr::Add { dst, a, b }
                | Instr::Sub { dst, a, b }
                | Instr::Mul { dst, a, b }
                | Instr::Div { dst, a, b }
                | Instr::Binary { dst, a, b, .. } => {
                    assert!(a < dst && b < dst);
                    assert_eq!(dst, defined);
                    defined += 1;
                }
                Instr::Store { src, .. } | Instr::Reduce { src, .. } => {
                    assert!(src < defined);
                }
            }
        }
        assert_eq!(defined as usize, plan.num_regs);
    }
}
