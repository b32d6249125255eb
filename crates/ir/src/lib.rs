//! Diffuse's scale-free intermediate representation of distributed computation.
//!
//! This crate implements the IR of Figure 2 in the paper. It contains a *data
//! model* — stores (distributed arrays) and first-class structured partitions
//! ([`Partition::Replicate`] and [`Partition::Tiling`] with projection
//! functions) — and a *computational model* — streams of [`IndexTask`]s, each
//! a group of parallel point tasks over a launch [`Domain`] that access
//! (store, partition) pairs with [`Privilege`]s.
//!
//! The representation is *scale-free*: the size of a partition or an index
//! task does not depend on the number of processors, only the symbolic launch
//! domain grows. Partitions of the same kind can be compared for equality in
//! constant time, which is the property the fusion constraints of Section 4
//! rely on.
//!
//! The [`deps`] module implements the ground-truth dependence definitions
//! (Definitions 1–3) by materializing sub-stores and dependence maps. This is
//! intentionally *scale-aware* and is used only by tests and by the
//! lower-level runtime: the fusion analysis in the `fusion` crate never
//! materializes dependence maps.
//!
//! # Example
//!
//! ```
//! use ir::{Domain, Partition, Privilege, Projection, StoreArg, StoreId, IndexTask, TaskId};
//!
//! // A 1-D store of 1024 elements tiled across 4 GPUs.
//! let store = StoreId(0);
//! let tiling = Partition::tiling(vec![256], vec![0], Projection::Identity);
//! let task = IndexTask::new(
//!     TaskId(0),
//!     0,
//!     "fill",
//!     Domain::new(vec![4]),
//!     vec![StoreArg::new(store, tiling.clone(), Privilege::Write)],
//!     vec![1.0],
//! );
//! assert_eq!(task.launch_domain.size(), 4);
//! assert!(task.writes(store));
//! // Constant-time partition equality is the alias check used by fusion.
//! assert_eq!(tiling, tiling.clone());
//! ```

pub mod deps;
pub mod domain;
pub mod env;
pub mod fingerprint;
pub mod intern;
pub mod partition;
pub mod store;
pub mod task;
pub mod window;

pub use deps::{dep, dependence_map, fusible_ground_truth, point_task_substores};
pub use domain::{Domain, Point, Rect, Runs};
pub use intern::{PartitionId, ShapeId};
pub use partition::{Partition, Projection};
pub use store::{StoreId, StoreInfo};
pub use task::{IndexTask, Privilege, ReductionOp, StoreArg, TaskId};
pub use window::{window_fingerprint, FingerprintState, TaskWindow};
