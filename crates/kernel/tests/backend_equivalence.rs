//! Two-way backend differential harness: the SIMD backend must produce
//! bitwise-identical buffers to the interpreter backend, for any kernel
//! module, any input values and any domain length.
//!
//! The property test generates random modules — several stages, each either a
//! dense loop (random straight-line SSA bodies with loads, broadcast-scalar
//! loads, constants, scalar parameters, unary/binary arithmetic, stores and
//! reductions) or an opaque builtin (restrict, prolong, CSR SpMV over a
//! deterministically valid sparse structure) — compiles each module with
//! both backends and compares every output buffer with exact bit equality
//! (`f64::to_bits`, so `-0.0` is distinguished from `0.0` and subnormals must
//! survive unflushed). The one sanctioned exception is NaN *payloads*: Rust
//! documents the payload/sign bits of a freshly produced NaN as
//! non-deterministic (LLVM may commute `fadd`, and `+inf + -inf` yields a
//! platform-default NaN), so two compilations of the *same* fold can differ
//! in NaN bits. The comparison therefore canonicalizes every NaN to one bit
//! pattern — NaN-ness must still match exactly (a NaN may never become a
//! number, nor vice versa). All backends evaluate ops through the same
//! resolved host functions, so any other divergence is a lowering bug, not
//! numerical noise.
//!
//! Two generator axes target the SIMD backend's failure surface specifically:
//!
//! * **Adversarial inputs** — buffers are optionally seeded with NaN, ±inf,
//!   signed zeros and subnormals, so masked lanes holding stale non-finite
//!   values would be caught the moment they leak into a store or reduction.
//! * **Masked-tail domain lengths** — the length strategy pins 1, `LANES`±1,
//!   `LANES`, prime sizes and `SIMD_CHUNK`±1 alongside a uniform range, so
//!   every chunk/tail shape of the lane-parallel schedule is exercised.

use proptest::prelude::*;

use kernel::simd::{LANES, SIMD_CHUNK};
use kernel::{
    BackendKind, BinaryOp, BufferId, BufferRole, IndexWidth, KernelModule, LoopKernel, LoopOp,
    OpaqueOp, ReduceOp, UnaryOp, ValueId,
};

/// Every shipped backend; index 0 is the interpreter reference the SIMD
/// backend is diffed against.
const ALL_BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Simd];

/// Number of buffers every generated module uses. Buffer 0 is the loop
/// domain / primary input, the rest are read/written freely.
const BUFS: u32 = 5;
/// Scalar parameters provided at execution time.
const SCALARS: [f64; 3] = [0.5, -1.75, 3.0];

/// The adversarial value pool: every IEEE-754 special shape a lowering can
/// mishandle — NaN payload propagation, infinities of both signs, signed
/// zeros, and subnormals from both sides.
const SPECIALS: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 2.0,
    -f64::MIN_POSITIVE / 4.0,
    1.0,
];

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

/// One raw op choice: (kind, a, b, c) interpreted per kind. Values are kept
/// small and reduced modulo whatever the kind needs, so any random tuple is
/// a valid op.
type RawOp = (u8, u64, u64, u64);

/// Builds a loop body from raw choices, tracking defined SSA values so every
/// generated module is well-formed (what `LoopBuilder` guarantees for real
/// generators).
fn build_loop(domain: BufferId, raw_ops: &[RawOp]) -> LoopKernel {
    let mut ops = Vec::new();
    let mut next_value = 0u32;
    for &(kind, a, b, c) in raw_ops {
        let defined = next_value; // values 0..defined are usable
        let pick = |x: u64| ValueId((x % defined.max(1) as u64) as u32);
        let buf = |x: u64| BufferId((x % BUFS as u64) as u32);
        match kind % 8 {
            0 => {
                ops.push(LoopOp::Load {
                    dst: ValueId(next_value),
                    buffer: buf(a),
                });
                next_value += 1;
            }
            1 => {
                ops.push(LoopOp::LoadScalar {
                    dst: ValueId(next_value),
                    buffer: buf(a),
                });
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
                ops.push(LoopOp::Store {
                    buffer: buf(a),
                    src: pick(b),
                });
            }
            7 if defined > 0 => {
                ops.push(LoopOp::Reduce {
                    buffer: buf(a),
                    op: REDUCE[(b % REDUCE.len() as u64) as usize],
                    src: pick(c),
                });
            }
            _ => {
                // Op needs an operand before any value is defined: load one.
                ops.push(LoopOp::Load {
                    dst: ValueId(next_value),
                    buffer: buf(a),
                });
                next_value += 1;
            }
        }
    }
    LoopKernel {
        name: "random".into(),
        domain,
        ops,
        parallel: false,
    }
}

/// Builds a shape-safe opaque stage from a raw choice: restrict/prolong read
/// and write strictly within equal-length buffers, so they can mix freely
/// with random loops. GEMV and SpMV constrain buffer shapes (matrix size,
/// valid CSR structure), so SpMV runs only against the dedicated CSR input
/// set and GEMV is covered by the unit tests in `kernel::interp`.
fn build_opaque(kind: u64) -> OpaqueOp {
    if kind.is_multiple_of(2) {
        OpaqueOp::Restrict {
            fine: BufferId(0),
            coarse: BufferId(3),
        }
    } else {
        OpaqueOp::Prolong {
            coarse: BufferId(3),
            fine: BufferId(0),
        }
    }
}

/// The CSR SpMV stage over the layout `input_buffers(_, true, _)` provides.
fn spmv_op() -> OpaqueOp {
    OpaqueOp::SpMvCsr {
        pos: BufferId(0),
        crd: BufferId(1),
        vals: BufferId(2),
        x: BufferId(3),
        y: BufferId(4),
        index_width: IndexWidth::U32,
    }
}

/// Deterministic input buffers. Loop-only modules get `n`-element buffers
/// with position-dependent contents, optionally interleaved with the
/// adversarial [`SPECIALS`] pool (`special_stride > 0` plants one special
/// every `special_stride` positions, cycling through the pool).
/// SpMV-compatible modules get a valid CSR structure instead (pos monotone
/// in-range, crd in-range column ids — specials would corrupt the indices,
/// so the stride is ignored there).
fn input_buffers(n: usize, spmv: bool, special_stride: usize) -> Vec<Vec<f64>> {
    if spmv {
        let rows = n.max(2);
        // Diagonal-ish matrix: row r has one entry at column r with value r+1.
        let pos: Vec<f64> = (0..=rows).map(|r| r as f64).collect();
        let crd: Vec<f64> = (0..rows).map(|r| r as f64).collect();
        let vals: Vec<f64> = (0..rows).map(|r| (r + 1) as f64 * 0.5).collect();
        let x: Vec<f64> = (0..rows).map(|c| 1.0 - c as f64 * 0.25).collect();
        let y = vec![0.0; rows];
        vec![pos, crd, vals, x, y]
    } else {
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
}

/// Exact bits for every non-NaN value; NaNs canonicalized to one pattern
/// (their payload bits are non-deterministic per the Rust float semantics —
/// see the module docs — but their presence is not).
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

/// Runs `module` over `inputs` under every backend and checks each JIT
/// backend against the interpreter with exact bit equality (including
/// identical error behavior). Panics with the diverging backend's id.
fn assert_backend_invariant(module: &KernelModule, inputs: &[Vec<f64>]) {
    let mut reference: Option<(bool, Vec<Vec<u64>>)> = None;
    for kind in ALL_BACKENDS {
        let compiled = kind.backend().compile(module).unwrap();
        let mut bufs = inputs.to_vec();
        let result = compiled.execute(&mut bufs, &SCALARS);
        let outcome = (result.is_ok(), bits(&bufs));
        match &reference {
            None => reference = Some(outcome),
            Some(expected) => {
                assert_eq!(
                    expected.0, outcome.0,
                    "{}: error behavior diverged from the interpreter",
                    kind.id()
                );
                if expected.0 {
                    assert_eq!(
                        expected.1, outcome.1,
                        "{}: buffers diverged bitwise from the interpreter",
                        kind.id()
                    );
                }
            }
        }
    }
}

/// Domain lengths biased toward the SIMD backend's masked-tail shapes:
/// empty-adjacent, lane boundary ±1, primes that are coprime to the lane
/// width, chunk boundary ±1 — plus a uniform range for everything else.
fn domain_lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1),
        Just(LANES - 1),
        Just(LANES),
        Just(LANES + 1),
        Just(7),
        Just(13),
        Just(31),
        Just(SIMD_CHUNK - 1),
        Just(SIMD_CHUNK),
        Just(SIMD_CHUNK + 1),
        1usize..24,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random modules (loops + opaque stages + reductions) produce
    /// bitwise-identical buffers under the interpreter and SIMD backends,
    /// across masked-tail domain lengths and adversarially seeded
    /// inputs (NaN, ±inf, signed zeros, subnormals).
    #[test]
    fn random_modules_are_backend_invariant(
        stages in prop::collection::vec(
            (0u64..10, prop::collection::vec((0u8..8, 0u64..64, 0u64..64, 0u64..64), 1..12)),
            1..5,
        ),
        n in domain_lengths(),
        special_stride in 0usize..4,
    ) {
        // An SpMV stage constrains the buffer layout to a valid CSR
        // structure that random loops would corrupt (float garbage becomes
        // an index); windows containing one run *only* SpMV stages over the
        // CSR input set, everything else mixes loops and safe opaques.
        let spmv = stages.iter().any(|(k, _)| k % 3 == 0 && (k / 3) % 3 == 2);
        let mut module = KernelModule::new(BUFS);
        module.set_role(BufferId(2), BufferRole::Output);
        module.set_role(BufferId(4), BufferRole::InOut);
        for (kind, raw_ops) in &stages {
            if spmv {
                if kind % 3 == 0 && (kind / 3) % 3 == 2 {
                    module.push_opaque(spmv_op());
                }
            } else if kind % 3 == 0 {
                if (kind / 3) % 3 != 2 {
                    module.push_opaque(build_opaque(kind / 3));
                }
            } else {
                let domain = BufferId((kind % BUFS as u64) as u32);
                module.push_loop(build_loop(domain, raw_ops));
            }
        }

        let inputs = input_buffers(n, spmv, special_stride);
        assert_backend_invariant(&module, &inputs);
    }

    /// A pure adversarial sweep: a fixed op-dense module over buffers that
    /// are *mostly* specials, across every masked-tail length. Catches stale
    /// dead-lane leaks that the sparser random seeding above might miss.
    #[test]
    fn adversarial_inputs_are_backend_invariant_at_every_tail_length(
        n in domain_lengths(),
        rot in 0usize..8,
    ) {
        let mut module = KernelModule::new(BUFS);
        module.set_role(BufferId(2), BufferRole::Output);
        module.set_role(BufferId(4), BufferRole::Reduction);
        let raw: Vec<RawOp> = vec![
            (0, 0, 0, 0), // load b0
            (0, 1, 0, 0), // load b1
            (3, 1, 0, 0), // param 1
            (5, 0, 0, 2), // add v0 + v2
            (5, 3, 3, 1), // div v3 / v1 (inf/inf -> NaN, x/0 -> inf)
            (4, 1, 4, 0), // sqrt (negative -> NaN)
            (5, 4, 5, 0), // max (NaN-propagation order matters)
            (6, 2, 6, 0), // store b2
            (7, 4, 0, 6), // reduce sum into b4
        ];
        module.push_loop(build_loop(BufferId(0), &raw));

        let inputs: Vec<Vec<f64>> = (0..BUFS)
            .map(|b| {
                (0..n)
                    .map(|i| SPECIALS[(i + rot + b as usize) % SPECIALS.len()])
                    .collect()
            })
            .collect();
        assert_backend_invariant(&module, &inputs);
    }
}

/// A horizontally merged launch compiles to one module whose loop nests came
/// from *independent* tasks over disjoint buffers. Concatenating the nests
/// must be bitwise equivalent to compiling and running each nest as its own
/// module in sequence — under every backend, with the backends also agreeing
/// with each other. This is the kernel-layer half of the horizontal-fusion
/// soundness argument (the fusion-layer half proves disjointness).
#[test]
fn concatenated_independent_nests_match_sequential_modules() {
    // Nest A: b2[i] = b0[i] * scalar0 - b0[i]. Nest B: b3[i] = erf(b1[i]) + scalar2.
    let nest_a = || LoopKernel {
        name: "nest_a".into(),
        domain: BufferId(0),
        ops: vec![
            LoopOp::Load { dst: ValueId(0), buffer: BufferId(0) },
            LoopOp::Param { dst: ValueId(1), index: 0 },
            LoopOp::Binary { dst: ValueId(2), op: BinaryOp::Mul, a: ValueId(0), b: ValueId(1) },
            LoopOp::Binary { dst: ValueId(3), op: BinaryOp::Sub, a: ValueId(2), b: ValueId(0) },
            LoopOp::Store { buffer: BufferId(2), src: ValueId(3) },
        ],
        parallel: false,
    };
    let nest_b = || LoopKernel {
        name: "nest_b".into(),
        domain: BufferId(1),
        ops: vec![
            LoopOp::Load { dst: ValueId(0), buffer: BufferId(1) },
            LoopOp::Unary { dst: ValueId(1), op: UnaryOp::Erf, a: ValueId(0) },
            LoopOp::Param { dst: ValueId(2), index: 2 },
            LoopOp::Binary { dst: ValueId(3), op: BinaryOp::Add, a: ValueId(1), b: ValueId(2) },
            LoopOp::Store { buffer: BufferId(3), src: ValueId(3) },
        ],
        parallel: false,
    };

    let mut concatenated = KernelModule::new(4);
    concatenated.set_role(BufferId(2), BufferRole::Output);
    concatenated.set_role(BufferId(3), BufferRole::Output);
    concatenated.push_loop(nest_a());
    concatenated.push_loop(nest_b());

    let mut only_a = KernelModule::new(4);
    only_a.set_role(BufferId(2), BufferRole::Output);
    only_a.push_loop(nest_a());
    let mut only_b = KernelModule::new(4);
    only_b.set_role(BufferId(3), BufferRole::Output);
    only_b.push_loop(nest_b());

    let inputs = input_buffers(12, false, 0)[..4].to_vec();
    let mut expected: Option<Vec<Vec<u64>>> = None;
    for backend in ALL_BACKENDS {
        let mut wide = inputs.clone();
        backend
            .backend()
            .compile(&concatenated)
            .unwrap()
            .execute(&mut wide, &SCALARS)
            .unwrap();

        let mut seq = inputs.clone();
        for m in [&only_a, &only_b] {
            backend
                .backend()
                .compile(m)
                .unwrap()
                .execute(&mut seq, &SCALARS)
                .unwrap();
        }
        assert_eq!(
            bits(&wide),
            bits(&seq),
            "{backend:?}: concatenated nests diverged from sequential modules"
        );
        // Every backend must also agree with the others bitwise.
        if let Some(prior) = &expected {
            assert_eq!(prior, &bits(&wide), "backends diverged on the wide module");
        } else {
            expected = Some(bits(&wide));
        }
    }
}

/// A hand-picked module mixing every op class, checked across both
/// backends with exact bit equality (fast sanity check that runs even when
/// the property test budget is cut down).
#[test]
fn mixed_module_is_backend_invariant() {
    let mut module = KernelModule::new(BUFS);
    module.set_role(BufferId(2), BufferRole::Output);
    module.set_role(BufferId(4), BufferRole::Reduction);
    let raw: Vec<RawOp> = vec![
        (0, 0, 0, 0), // load b0
        (3, 1, 0, 0), // param 1
        (5, 3, 0, 1), // div v0 / v1 (negative divisor: sign handling)
        (4, 1, 2, 0), // sqrt of possibly negative -> NaN must match bitwise
        (6, 2, 3, 0), // store b2
        (7, 4, 0, 3), // reduce sum into b4
        (1, 3, 0, 0), // load_scalar b3
        (5, 6, 4, 5), // pow
        (6, 2, 6, 0), // store b2 again
    ];
    let kernel = build_loop(BufferId(0), &raw);
    module.push_loop(kernel);
    module.push_opaque(OpaqueOp::Restrict {
        fine: BufferId(0),
        coarse: BufferId(3),
    });

    assert_backend_invariant(&module, &input_buffers(8, false, 0));
}
