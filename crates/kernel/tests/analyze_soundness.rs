//! Soundness harness for the static footprint analysis (`kernel::analyze`):
//! the inferred summary must **over-approximate** every dynamic access.
//!
//! The property test generates random modules (the same raw-op scheme as the
//! backend differential harness: random straight-line loop bodies mixed with
//! restrict/prolong opaque stages) over random domain lengths, executes them
//! with an *instrumented interpreter* that records every dynamic access as a
//! `(buffer, kind, induction, index)` tuple plus every value stored, and then
//! checks the static [`infer_footprint`] summary against the trace:
//!
//! 1. **Coverage** — every observed access is admitted by the per-stage
//!    footprint and by the joined module footprint (`inferred ⊇ observed`).
//! 2. **⊤ for opaque** — every buffer an opaque stage names is ⊤ in that
//!    stage's row: the analysis may be imprecise there but never claims a
//!    wrong tight summary.
//! 3. **Lattice consistency** — each stage footprint is `covered_by` the
//!    joined module footprint.
//! 4. **Tightening contract** — a buffer the summary calls read-only is
//!    bitwise unchanged by execution (the exact property privilege
//!    tightening relies on; see `docs/ANALYZE.md`).
//! 5. **Value ranges** — every value dynamically stored into a buffer lies
//!    in the buffer's inferred interval (`Interval::contains`, NaN admitted
//!    out-of-band).
//!
//! The instrumented interpreter re-implements the loop semantics, so it is
//! itself validated per case: its final buffers must match the reference
//! `kernel::Interpreter` bitwise (NaNs canonicalized).

use std::collections::HashSet;

use proptest::prelude::*;

use ir::{AccessPattern, BufferFootprint};
use kernel::analyze::infer_footprint;
use kernel::math::{erf, exp, ln};
use kernel::{
    BinaryOp, BufferId, BufferRole, IndexWidth, Interpreter, KernelModule, KernelStage,
    LoopKernel, LoopOp, OpaqueOp, ReduceOp, UnaryOp, ValueId,
};

/// Number of buffers every generated module uses.
const BUFS: u32 = 5;
/// Scalar parameters provided at execution time.
const SCALARS: [f64; 3] = [0.5, -1.75, 3.0];

const UNARY: [UnaryOp; 7] = [
    UnaryOp::Neg,
    UnaryOp::Sqrt,
    UnaryOp::Exp,
    UnaryOp::Ln,
    UnaryOp::Abs,
    UnaryOp::Erf,
    UnaryOp::Recip,
];
const BINARY: [BinaryOp; 7] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Max,
    BinaryOp::Min,
    BinaryOp::Pow,
];
const REDUCE: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min];

/// One raw op choice: (kind, a, b, c) reduced modulo whatever the kind
/// needs, so any random tuple builds a well-formed op.
type RawOp = (u8, u64, u64, u64);

/// Builds a loop body from raw choices, tracking defined SSA values so every
/// generated module is well-formed.
fn build_loop(domain: BufferId, raw_ops: &[RawOp]) -> LoopKernel {
    let mut ops = Vec::new();
    let mut next_value = 0u32;
    for &(kind, a, b, c) in raw_ops {
        let defined = next_value;
        let pick = |x: u64| ValueId((x % defined.max(1) as u64) as u32);
        let buf = |x: u64| BufferId((x % BUFS as u64) as u32);
        match kind % 8 {
            0 => {
                ops.push(LoopOp::Load { dst: ValueId(next_value), buffer: buf(a) });
                next_value += 1;
            }
            1 => {
                ops.push(LoopOp::LoadScalar { dst: ValueId(next_value), buffer: buf(a) });
                next_value += 1;
            }
            2 => {
                ops.push(LoopOp::Const {
                    dst: ValueId(next_value),
                    value: (b as f64) - 8.0 + (c as f64) * 0.125,
                });
                next_value += 1;
            }
            3 => {
                ops.push(LoopOp::Param {
                    dst: ValueId(next_value),
                    index: (a % SCALARS.len() as u64) as usize,
                });
                next_value += 1;
            }
            4 if defined > 0 => {
                ops.push(LoopOp::Unary {
                    dst: ValueId(next_value),
                    op: UNARY[(a % UNARY.len() as u64) as usize],
                    a: pick(b),
                });
                next_value += 1;
            }
            5 if defined > 0 => {
                ops.push(LoopOp::Binary {
                    dst: ValueId(next_value),
                    op: BINARY[(a % BINARY.len() as u64) as usize],
                    a: pick(b),
                    b: pick(c),
                });
                next_value += 1;
            }
            6 if defined > 0 => {
                ops.push(LoopOp::Store { buffer: buf(a), src: pick(b) });
            }
            7 if defined > 0 => {
                ops.push(LoopOp::Reduce {
                    buffer: buf(a),
                    op: REDUCE[(b % REDUCE.len() as u64) as usize],
                    src: pick(c),
                });
            }
            _ => {
                ops.push(LoopOp::Load { dst: ValueId(next_value), buffer: buf(a) });
                next_value += 1;
            }
        }
    }
    LoopKernel { name: "random".into(), domain, ops, parallel: false }
}

/// Access kinds of the dynamic trace, mirroring [`BufferFootprint`] fields.
const READ: u8 = 0;
const WRITE: u8 = 1;
const REDUCES: u8 = 2;

/// One stage's dynamic trace: `(buffer, kind, induction value, index)`.
/// Opaque stages have no induction variable; they record induction 0 (their
/// summaries are ⊤, which admits any pair).
type AccessSet = HashSet<(u32, u8, i64, i64)>;

fn apply_unary(op: UnaryOp, a: f64) -> f64 {
    match op {
        UnaryOp::Neg => -a,
        UnaryOp::Sqrt => a.sqrt(),
        UnaryOp::Exp => exp(a),
        UnaryOp::Ln => ln(a),
        UnaryOp::Abs => a.abs(),
        UnaryOp::Erf => erf(a),
        UnaryOp::Recip => 1.0 / a,
    }
}

fn apply_binary(op: BinaryOp, a: f64, b: f64) -> f64 {
    match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => a / b,
        BinaryOp::Max => a.max(b),
        BinaryOp::Min => a.min(b),
        BinaryOp::Pow => a.powf(b),
    }
}

/// Executes one loop stage while recording every access and stored value.
fn run_loop_instrumented(
    l: &LoopKernel,
    bufs: &mut [Vec<f64>],
    scalars: &[f64],
    trace: &mut AccessSet,
    stored: &mut Vec<(u32, f64)>,
) {
    let n = bufs[l.domain.0 as usize].len();
    let mut values = vec![0.0f64; l.num_values()];
    for i in 0..n {
        let iv = i as i64;
        for op in &l.ops {
            match op {
                LoopOp::Load { dst, buffer } => {
                    trace.insert((buffer.0, READ, iv, iv));
                    values[dst.0 as usize] = bufs[buffer.0 as usize][i];
                }
                LoopOp::LoadScalar { dst, buffer } => {
                    trace.insert((buffer.0, READ, iv, 0));
                    values[dst.0 as usize] = bufs[buffer.0 as usize][0];
                }
                LoopOp::Const { dst, value } => values[dst.0 as usize] = *value,
                LoopOp::Param { dst, index } => values[dst.0 as usize] = scalars[*index],
                LoopOp::Unary { dst, op, a } => {
                    values[dst.0 as usize] = apply_unary(*op, values[a.0 as usize]);
                }
                LoopOp::Binary { dst, op, a, b } => {
                    values[dst.0 as usize] =
                        apply_binary(*op, values[a.0 as usize], values[b.0 as usize]);
                }
                LoopOp::Store { buffer, src } => {
                    trace.insert((buffer.0, WRITE, iv, iv));
                    let v = values[src.0 as usize];
                    stored.push((buffer.0, v));
                    bufs[buffer.0 as usize][i] = v;
                }
                LoopOp::Reduce { buffer, op, src } => {
                    trace.insert((buffer.0, REDUCES, iv, 0));
                    let acc = bufs[buffer.0 as usize][0];
                    bufs[buffer.0 as usize][0] = op.apply(acc, values[src.0 as usize]);
                }
            }
        }
    }
}

/// Executes one opaque stage while recording its (data-dependent) accesses.
fn run_opaque_instrumented(op: &OpaqueOp, bufs: &mut [Vec<f64>], trace: &mut AccessSet) {
    match op {
        OpaqueOp::SpMvCsr { pos, crd, vals, x, y, .. } => {
            let rows = bufs[y.0 as usize].len();
            for r in 0..rows {
                trace.insert((pos.0, READ, 0, r as i64));
                trace.insert((pos.0, READ, 0, r as i64 + 1));
                let start = bufs[pos.0 as usize][r] as usize;
                let end = bufs[pos.0 as usize][r + 1] as usize;
                let mut acc = 0.0;
                for k in start..end {
                    trace.insert((crd.0, READ, 0, k as i64));
                    trace.insert((vals.0, READ, 0, k as i64));
                    let c = bufs[crd.0 as usize][k] as usize;
                    trace.insert((x.0, READ, 0, c as i64));
                    acc += bufs[vals.0 as usize][k] * bufs[x.0 as usize][c];
                }
                trace.insert((y.0, WRITE, 0, r as i64));
                bufs[y.0 as usize][r] = acc;
            }
        }
        OpaqueOp::Gemv { a, x, y } => {
            let rows = bufs[y.0 as usize].len();
            let cols = bufs[x.0 as usize].len();
            for r in 0..rows {
                let mut acc = 0.0;
                for c in 0..cols {
                    trace.insert((a.0, READ, 0, (r * cols + c) as i64));
                    trace.insert((x.0, READ, 0, c as i64));
                    acc += bufs[a.0 as usize][r * cols + c] * bufs[x.0 as usize][c];
                }
                trace.insert((y.0, WRITE, 0, r as i64));
                bufs[y.0 as usize][r] = acc;
            }
        }
        OpaqueOp::Restrict { fine, coarse } => {
            let nc = bufs[coarse.0 as usize].len();
            let nf = bufs[fine.0 as usize].len();
            for i in 0..nc {
                let j = (2 * i).min(nf.saturating_sub(1));
                trace.insert((fine.0, READ, 0, j as i64));
                trace.insert((coarse.0, WRITE, 0, i as i64));
                bufs[coarse.0 as usize][i] = bufs[fine.0 as usize][j];
            }
        }
        OpaqueOp::Prolong { coarse, fine } => {
            let nc = bufs[coarse.0 as usize].len();
            let nf = bufs[fine.0 as usize].len();
            for i in 0..nf {
                let c = (i / 2).min(nc.saturating_sub(1));
                trace.insert((fine.0, WRITE, 0, i as i64));
                trace.insert((coarse.0, READ, 0, c as i64));
                if i % 2 == 0 {
                    bufs[fine.0 as usize][i] = bufs[coarse.0 as usize][c];
                } else {
                    let c2 = (c + 1).min(nc.saturating_sub(1));
                    trace.insert((coarse.0, READ, 0, c2 as i64));
                    bufs[fine.0 as usize][i] =
                        0.5 * (bufs[coarse.0 as usize][c] + bufs[coarse.0 as usize][c2]);
                }
            }
        }
    }
}

/// Executes the whole module, returning per-stage traces and the list of
/// `(buffer, value)` loop stores.
fn run_instrumented(
    module: &KernelModule,
    bufs: &mut [Vec<f64>],
    scalars: &[f64],
) -> (Vec<AccessSet>, Vec<(u32, f64)>) {
    let mut traces = Vec::with_capacity(module.num_stages());
    let mut stored = Vec::new();
    for stage in &module.stages {
        let mut trace = AccessSet::new();
        match stage {
            KernelStage::Loop(l) => {
                run_loop_instrumented(l, bufs, scalars, &mut trace, &mut stored)
            }
            KernelStage::Opaque(op) => run_opaque_instrumented(op, bufs, &mut trace),
        }
        traces.push(trace);
    }
    (traces, stored)
}

/// Whether the static pattern admits the dynamic access `buffer[idx]` at
/// induction value `i` (the pointwise soundness relation).
fn admits(p: &AccessPattern, i: i64, idx: i64) -> bool {
    match p {
        AccessPattern::Top => true,
        AccessPattern::Bottom => false,
        AccessPattern::Affine(forms) => forms.iter().any(|f| f.eval(i) == idx),
    }
}

fn pattern(fp: &BufferFootprint, kind: u8) -> &AccessPattern {
    match kind {
        READ => &fp.reads,
        WRITE => &fp.writes,
        _ => &fp.reduces,
    }
}

/// Exact bits, NaNs canonicalized (their payloads are not pinned down by the
/// float semantics; their presence is).
fn bits(buffers: &[Vec<f64>]) -> Vec<Vec<u64>> {
    const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;
    buffers
        .iter()
        .map(|b| {
            b.iter()
                .map(|v| if v.is_nan() { CANONICAL_NAN } else { v.to_bits() })
                .collect()
        })
        .collect()
}

/// Runs the full soundness check battery for one module over one input set.
fn assert_analysis_sound(module: &KernelModule, inputs: &[Vec<f64>], scalars: &[f64]) {
    let summary = infer_footprint(module);
    // Determinism: re-analysis reproduces the same fingerprint.
    assert_eq!(summary.fingerprint, infer_footprint(module).fingerprint);

    // Reference execution, then the instrumented one; the instrumented
    // interpreter must agree with the reference bitwise (it re-implements
    // the loop semantics and is itself under test here).
    let mut reference = inputs.to_vec();
    Interpreter::new()
        .execute(module, &mut reference, scalars)
        .expect("generated module must execute");
    let mut observed = inputs.to_vec();
    let (traces, stored) = run_instrumented(module, &mut observed, scalars);
    assert_eq!(
        bits(&reference),
        bits(&observed),
        "instrumented interpreter diverged from the reference interpreter"
    );

    // 1. Coverage: inferred ⊇ observed, per stage and joined.
    for (s, trace) in traces.iter().enumerate() {
        for &(b, kind, i, idx) in trace {
            let stage_fp = &summary.stages[s][b as usize];
            assert!(
                admits(pattern(stage_fp, kind), i, idx),
                "stage {s}: observed access (buf {b}, kind {kind}, i {i}, idx {idx}) \
                 not admitted by stage footprint {stage_fp:?}"
            );
            let joined = summary.buffer(b as usize);
            assert!(
                admits(pattern(&joined, kind), i, idx),
                "observed access (buf {b}, kind {kind}, i {i}, idx {idx}) \
                 not admitted by joined footprint {joined:?}"
            );
        }
    }

    // 2. ⊤ for opaque: never a wrong tight summary on a named buffer.
    for (s, stage) in module.stages.iter().enumerate() {
        if let KernelStage::Opaque(op) = stage {
            for b in op.read_buffers() {
                assert!(
                    summary.stages[s][b.0 as usize].reads.is_top(),
                    "opaque stage {s}: buffer {} reads not ⊤",
                    b.0
                );
            }
            for b in op.written_buffers() {
                assert!(
                    summary.stages[s][b.0 as usize].writes.is_top(),
                    "opaque stage {s}: buffer {} writes not ⊤",
                    b.0
                );
            }
        }
    }

    // 3. Lattice consistency: stage rows are covered by the module join.
    for row in &summary.stages {
        for (b, fp) in row.iter().enumerate() {
            let joined = summary.buffer(b);
            assert!(fp.reads.covered_by(&joined.reads));
            assert!(fp.writes.covered_by(&joined.writes));
            assert!(fp.reduces.covered_by(&joined.reduces));
        }
    }

    // 4. Tightening contract: an inferred read-only buffer is bitwise
    //    untouched by execution.
    for (b, fp) in summary.buffers.iter().enumerate() {
        if fp.is_read_only() {
            assert_eq!(
                bits(&inputs[b..=b]),
                bits(&reference[b..=b]),
                "buffer {b} inferred read-only but execution changed it"
            );
        }
    }

    // 5. Value ranges bound every stored value.
    for &(b, v) in &stored {
        assert!(
            summary.value_ranges[b as usize].contains(v),
            "stored value {v} not in inferred range {} of buffer {b}",
            summary.value_ranges[b as usize]
        );
    }
}

/// Deterministic input buffers with position-dependent contents, optionally
/// seeded with IEEE specials to stress the value-range lattice.
fn input_buffers(n: usize, special_stride: usize) -> Vec<Vec<f64>> {
    const SPECIALS: [f64; 6] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        1.0,
    ];
    (0..BUFS)
        .map(|b| {
            (0..n)
                .map(|i| {
                    if special_stride > 0 && i % special_stride == 0 {
                        SPECIALS[(i / special_stride + b as usize) % SPECIALS.len()]
                    } else {
                        (b as f64 + 1.0) * 0.375 + (i as f64) * 0.25 - 2.0
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random modules × random domains: the inferred footprint admits every
    /// dynamically observed access, opaque rows are ⊤, read-only verdicts
    /// are bitwise-safe, and value ranges bound every store.
    #[test]
    fn inferred_footprint_covers_observed_accesses(
        stages in prop::collection::vec(
            (0u64..10, prop::collection::vec((0u8..8, 0u64..64, 0u64..64, 0u64..64), 1..12)),
            1..5,
        ),
        n in 1usize..32,
        special_stride in 0usize..4,
    ) {
        let mut module = KernelModule::new(BUFS);
        module.set_role(BufferId(2), BufferRole::Output);
        module.set_role(BufferId(4), BufferRole::InOut);
        for (kind, raw_ops) in &stages {
            if kind % 3 == 0 {
                // Shape-safe opaques only: SpMV needs a valid CSR layout and
                // gets its own dedicated test below.
                let op = if (kind / 3).is_multiple_of(2) {
                    OpaqueOp::Restrict { fine: BufferId(0), coarse: BufferId(3) }
                } else {
                    OpaqueOp::Prolong { coarse: BufferId(3), fine: BufferId(0) }
                };
                module.push_opaque(op);
            } else {
                let domain = BufferId((kind % BUFS as u64) as u32);
                module.push_loop(build_loop(domain, raw_ops));
            }
        }
        assert_analysis_sound(&module, &input_buffers(n, special_stride), &SCALARS);
    }
}

/// SpMV reads through runtime CSR indices — the canonical data-dependent
/// access pattern the affine lattice cannot express. The ⊤ summary must
/// still cover the trace over a real sparse structure.
#[test]
fn spmv_trace_is_covered_by_top() {
    let mut module = KernelModule::new(BUFS);
    module.set_role(BufferId(4), BufferRole::Output);
    module.push_opaque(OpaqueOp::SpMvCsr {
        pos: BufferId(0),
        crd: BufferId(1),
        vals: BufferId(2),
        x: BufferId(3),
        y: BufferId(4),
        index_width: IndexWidth::U32,
    });
    let rows = 6usize;
    // Diagonal-ish matrix: row r has one entry at column r.
    let inputs = vec![
        (0..=rows).map(|r| r as f64).collect(),
        (0..rows).map(|r| r as f64).collect(),
        (0..rows).map(|r| (r + 1) as f64 * 0.5).collect(),
        (0..rows).map(|c| 1.0 - c as f64 * 0.25).collect(),
        vec![0.0; rows],
    ];
    assert_analysis_sound(&module, &inputs, &SCALARS);
}

/// GEMV indexes the matrix buffer as `a[r*cols + c]` — beyond single-form
/// affine precision; its opaque summary must cover the 2-D walk.
#[test]
fn gemv_trace_is_covered_by_top() {
    let mut module = KernelModule::new(3);
    module.push_opaque(OpaqueOp::Gemv {
        a: BufferId(0),
        x: BufferId(1),
        y: BufferId(2),
    });
    let inputs = vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![1.0, -1.0], vec![0.0; 3]];
    assert_analysis_sound(&module, &inputs, &SCALARS);
}
