//! A Legion-style distributed task runtime over the simulated machine.
//!
//! The paper implements Diffuse as a middle layer between task-based libraries
//! and the Legion runtime system. Legion is not available in Rust, so this
//! crate provides the substrate Diffuse lowers to: logical regions holding
//! distributed array data, index-task launches with region requirements,
//! a scale-aware coherence analysis that determines the communication required
//! when data is accessed through a different partition than it was produced
//! with, per-task runtime overheads, and an execution engine that both
//! advances the simulated clock (performance) and runs the kernels on real
//! buffers (functional correctness).
//!
//! The key contrast with the IR crate is deliberate: partitions here are
//! evaluated point-by-point (the analysis cost scales with the machine size),
//! which is exactly the scale-aware representation the paper's scale-free IR
//! avoids for its fusion analysis (Section 4.4).
//!
//! Functional kernel work is scheduled by the one [`Executor`], which orders
//! conflicting launches through their region read/write sets and overlaps
//! independent ones across its workers, mirroring how the paper's runtime
//! overlaps task launches across GPUs. [`ExecutorKind`] sets only the worker
//! count: the default, [`ExecutorKind::Serial`], has none and runs every
//! launch inline on the submitting thread. Launches carry *compiled* kernels
//! (`Arc<dyn CompiledKernel>` artifacts produced by a
//! [`kernel::KernelBackend`] — see [`Runtime::compile`] and
//! `docs/BACKENDS.md`), so the executor is backend-agnostic. See
//! `docs/RUNTIME.md` for the architecture.
//!
//! # Example
//!
//! ```
//! use machine::MachineConfig;
//! use runtime::{Runtime, RuntimeConfig, TaskLaunch, RegionRequirement, OverheadClass};
//! use ir::{Domain, Partition, Privilege};
//! use kernel::{KernelModule, LoopBuilder, BufferId, BufferRole};
//!
//! let mut rt = Runtime::new(RuntimeConfig::functional(MachineConfig::single_node(4)));
//! let a = rt.allocate_region(vec![16], "a");
//! let b = rt.allocate_region(vec![16], "b");
//! rt.fill(a, 2.0).unwrap();
//!
//! // b[i] = a[i] * 3
//! let mut module = KernelModule::new(2);
//! module.set_role(BufferId(1), BufferRole::Output);
//! let mut lb = LoopBuilder::new("scale", BufferId(0));
//! let x = lb.load(BufferId(0));
//! let c = lb.constant(3.0);
//! let v = lb.mul(x, c);
//! lb.store(BufferId(1), v);
//! module.push_loop(lb.finish());
//!
//! let launch = TaskLaunch {
//!     name: "scale".into(),
//!     launch_domain: Domain::linear(4),
//!     requirements: vec![
//!         RegionRequirement::new(a, Partition::block(vec![4]), Privilege::Read),
//!         RegionRequirement::new(b, Partition::block(vec![4]), Privilege::Write),
//!     ],
//!     kernel: rt.compile(&module).unwrap(),
//!     scalars: vec![],
//!     local_buffer_lens: vec![],
//!     overhead: OverheadClass::TaskRuntime,
//! };
//! rt.execute(&launch).unwrap();
//! assert_eq!(rt.region_data(b).unwrap()[0], 6.0);
//! assert!(rt.elapsed() > 0.0);
//! ```

pub mod deps;
pub mod executor;
pub mod faults;
pub mod launch;
pub mod profile;
pub mod region;
#[allow(clippy::module_inception)]
pub mod runtime;

pub use deps::{AccessSummary, DepTracker, HbChecker};
pub use executor::{
    BufferAccess, DataPlan, Executor, ExecutorKind, FunctionalWork, LaunchFailure, WorkRequest,
};
pub use faults::{FaultEvent, FaultPlan, FaultSite, FaultStats, RecoveryPolicy};
pub use launch::{OverheadClass, RegionRequirement, TaskLaunch, TaskLaunchBuilder};
pub use profile::Profile;
pub use region::{Region, RegionHandle, RegionId};
pub use runtime::{LaunchPlan, Runtime, RuntimeConfig, RuntimeError};
