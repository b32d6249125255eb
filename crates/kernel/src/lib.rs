//! Kernel intermediate representation, compilation pipeline and interpreter.
//!
//! In the paper, Diffuse pairs distributed task fusion with a JIT compiler
//! built on MLIR: library developers register *generator functions* that emit
//! an MLIR fragment for each task's kernel, and Diffuse concatenates the
//! fragments of a fused task, eliminates temporaries, fuses loops, and
//! parallelizes the result (Section 6, Figure 8).
//!
//! MLIR is not available as a pure-Rust dependency, so this crate provides the
//! equivalent substrate: a small loop-nest IR ([`ir::KernelModule`]) standing
//! in for the `memref`/`affine`/`arith` dialects, a [`generator::GeneratorRegistry`]
//! for library-provided kernel bodies, a compilation [`passes::Pipeline`] that
//! mirrors Figure 8 (sequential composition → temporary demotion → loop
//! fusion + store-to-load forwarding → dead temporary elimination →
//! parallelization),
//! an [`interp::Interpreter`] that executes compiled kernels on real `f64`
//! buffers so fused and unfused executions can be checked for numerical
//! equality, and a [`cost`] module that estimates memory traffic, arithmetic
//! and kernel-launch counts for the simulated machine, plus a compile-time
//! model for reproducing Figure 13.
//!
//! Execution itself goes through the [`backend`] API: a [`KernelBackend`]
//! compiles an optimized module into a shareable [`CompiledKernel`] artifact.
//! The default [`InterpBackend`] wraps the interpreter; the [`SimdBackend`]
//! lowers loop nests once into pre-resolved micro-op streams and executes
//! them as lane-parallel arrays-of-lanes kernels with masked tails (a real
//! JIT shape with one-time cost and faster steady state). Both evaluate
//! `exp`, `ln` and `erf` through the branch-free [`math`] module, so they
//! agree bit for bit. Each backend's
//! simulated compile surcharge is fitted from measured wall-clock
//! ([`CompileTimeModel::calibrated`]). See `docs/BACKENDS.md`.
//!
//! # Example
//!
//! ```
//! use kernel::builder::LoopBuilder;
//! use kernel::ir::{BufferId, BufferRole, KernelModule};
//! use kernel::passes::Pipeline;
//! use kernel::interp::Interpreter;
//!
//! // c = a + b, followed by e = c + d (Figure 8b), with c task-local.
//! let mut module = KernelModule::new(5);
//! module.set_role(BufferId(2), BufferRole::Local);
//! let mut add1 = LoopBuilder::new("add", BufferId(2));
//! let (x, y) = (add1.load(BufferId(0)), add1.load(BufferId(1)));
//! let s = add1.add(x, y);
//! add1.store(BufferId(2), s);
//! module.push_loop(add1.finish());
//! let mut add2 = LoopBuilder::new("add", BufferId(4));
//! let (x, y) = (add2.load(BufferId(2)), add2.load(BufferId(3)));
//! let s = add2.add(x, y);
//! add2.store(BufferId(4), s);
//! module.push_loop(add2.finish());
//!
//! let compiled = Pipeline::default().run(module, &[4, 4, 4, 4, 4]);
//! // The two loops fuse and the temporary c disappears entirely (Figure 8d).
//! assert_eq!(compiled.module.num_loop_stages(), 1);
//!
//! let mut bufs = vec![vec![1.0; 4], vec![2.0; 4], vec![0.0; 4], vec![3.0; 4], vec![0.0; 4]];
//! Interpreter::new().execute(&compiled.module, &mut bufs, &[]).unwrap();
//! assert_eq!(bufs[4], vec![6.0; 4]);
//! ```

pub mod backend;
pub mod builder;
pub mod cost;
pub mod generator;
pub mod interp;
pub mod ir;
mod lower;
pub mod math;
pub mod passes;
pub mod simd;
pub mod verify;

pub use backend::{
    compile_interp, BackendKind, Buffer, BufferView, BufferViewMut, CompiledKernel, InterpBackend,
    KernelBackend,
};
pub use builder::LoopBuilder;
pub use cost::{host_compile_model, CompileTimeModel, HostCompileModel, KernelCost};
pub use simd::SimdBackend;
pub use generator::{
    ArgSpec, GenArgs, GeneratorFn, GeneratorRegistry, LibraryId, TaskKind, TaskSignature,
};
pub use interp::{ExecError, Interpreter};
pub use ir::{
    BinaryOp, BufferId, BufferRole, IndexWidth, KernelModule, KernelStage, LoopKernel, LoopOp,
    OpaqueOp, ReduceOp, UnaryOp, ValueId,
};
pub use passes::{Pipeline, PipelineConfig, PipelineResult};
pub use verify::{verify_against_signature, verify_lowering, verify_module, VerifyError};
