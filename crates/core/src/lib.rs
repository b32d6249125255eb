//! Diffuse: the middle layer between task-based libraries and the runtime.
//!
//! This crate ties the pieces of the reproduction together into the system the
//! paper describes. Libraries (the `dense`, `sparse` and `stencil` crates)
//! register a [`Library`] namespace of kernel generators on a [`Context`],
//! create [`StoreHandle`]s and submit typed launches through the
//! [`LaunchBuilder`]; Diffuse buffers the tasks into a window, finds fusible
//! prefixes with the analysis in the `fusion` crate, demotes temporary
//! stores, JIT-compiles the fused kernel bodies with the `kernel` crate's
//! pipeline, memoizes both the analysis and the compiled kernels over
//! isomorphic windows, and finally lowers everything to index-task launches
//! on the Legion-style `runtime`. Because independently registered libraries
//! share one task window, their streams fuse across library boundaries
//! (Section 2); execution statistics are attributed per library
//! ([`ExecutionStats::per_library`]).
//!
//! Every optimization can be switched off through [`DiffuseConfig`], which is
//! how the benchmark harness produces the paper's unfused baselines and the
//! ablations. See `docs/LIBRARIES.md` for the library developer's guide.
//!
//! # Example: the Figure 8 computation
//!
//! ```
//! use diffuse::{Context, DiffuseConfig};
//! use machine::MachineConfig;
//! use ir::Partition;
//! use kernel::{BufferId, BufferRole, KernelModule, LoopBuilder, TaskSignature};
//!
//! let ctx = Context::new(DiffuseConfig::fused(MachineConfig::single_node(4)));
//! // Register a library with an elementwise-add generator (the library
//! // developer's job): the signature declares two reads, one write.
//! let lib = ctx
//!     .library("mylib")
//!     .op("add", TaskSignature::new().read().read().write(), |args| {
//!         let mut m = KernelModule::new(3);
//!         m.set_role(BufferId(2), BufferRole::Output);
//!         let mut b = LoopBuilder::new("add", BufferId(2));
//!         let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
//!         let s = b.add(x, y);
//!         b.store(BufferId(2), s);
//!         m.push_loop(b.finish());
//!         assert_eq!(args.buffer_lens.len(), 3);
//!         m
//!     })
//!     .build();
//! let add = lib.kind("add").unwrap();
//!
//! let n = 64u64;
//! let a = ctx.create_store(vec![n], "a");
//! let b = ctx.create_store(vec![n], "b");
//! let c = ctx.create_store(vec![n], "c");
//! let d = ctx.create_store(vec![n], "d");
//! let e = ctx.create_store(vec![n], "e");
//! ctx.fill(&a, 1.0); ctx.fill(&b, 2.0); ctx.fill(&d, 3.0);
//!
//! // Typed launches: roles are checked against the signature at submission.
//! let block = Partition::block(vec![n / 4]);
//! ctx.task(add)
//!     .read(&a, block.clone())
//!     .read(&b, block.clone())
//!     .write(&c, block.clone())
//!     .launch();
//! ctx.task(add)
//!     .read(&c, block.clone())
//!     .read(&d, block.clone())
//!     .write(&e, block)
//!     .launch();
//! drop(c); // c becomes a temporary
//! ctx.flush();
//!
//! assert_eq!(ctx.read_store(&e).unwrap(), vec![6.0; 64]);
//! let stats = ctx.stats();
//! assert_eq!(stats.tasks_submitted, 2);
//! assert_eq!(stats.tasks_launched, 1, "both adds fused into one launch");
//! assert_eq!(stats.library("mylib").unwrap().tasks_submitted, 2);
//! ```

pub mod config;
pub mod context;
pub mod handle;
pub mod launch;
pub mod library;
pub mod stats;

pub use config::{AnalyzeMode, DiffuseConfig};
pub use context::Context;
pub use handle::StoreHandle;
pub use launch::LaunchBuilder;
pub use library::{Library, LibraryBuilder};
pub use stats::{ExecutionStats, LibraryStats};
// Re-exported so applications can pick a runtime executor or kernel backend
// without depending on the `runtime`/`kernel` crates directly, and so library
// crates can name kinds and signatures through `diffuse` alone.
pub use kernel::BackendKind;
pub use kernel::{ArgSpec, LibraryId, TaskKind, TaskSignature};
pub use runtime::ExecutorKind;
// The why-not explainer surface (`examples/explain.rs`): `Context::explain`
// returns the fusible segmentation of the buffered window with the violated
// constraint and a suggestion per split boundary.
pub use fusion::{BoundaryReport, WindowReport};
// The fault-injection surface (`docs/RESILIENCE.md`): applications configure
// a plan and recovery policy on `DiffuseConfig` and read the outcome back
// through `ExecutionStats` and `Context::take_failures`.
pub use runtime::{FaultEvent, FaultPlan, FaultSite, FaultStats, LaunchFailure, RecoveryPolicy, RuntimeError};
