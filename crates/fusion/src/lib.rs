//! Distributed task fusion: the core analysis of the paper (Sections 4–5).
//!
//! Applications submit [`ir::IndexTask`]s into a window; this crate finds the
//! longest *fusible prefix* of the window — a sequence of index tasks that can
//! execute back-to-back without any cross-processor communication — and builds
//! a single fused task from it.
//!
//! The analysis never materializes dependence maps. It applies the four
//! scale-free constraints of Figure 5 ([`constraints`]): launch-domain
//! equivalence, true dependence, anti dependence and reduction, all of which
//! reduce to constant-time partition-equality checks per (store, partition)
//! pair. Property tests validate the constraints against the ground-truth
//! dependence definitions in [`ir::deps`].
//!
//! On top of the prefix search this crate implements the two optimizations of
//! Section 5: [`temporaries`] (Definition 4 — which stores become task-local
//! after fusion, as a per-argument mask a memoized plan keeps) and [`memo`] (replaying analysis results on *isomorphic* task
//! windows via a De-Bruijn-style canonical form, Figure 7). [`window`]
//! provides the adaptive window sizing the evaluation describes.
//!
//! # Example
//!
//! ```
//! use ir::{Domain, IndexTask, Partition, Privilege, StoreArg, StoreId, TaskId};
//! use fusion::find_fusible_prefix;
//!
//! let block = Partition::block(vec![256]);
//! let t = |id, store_in: u64, store_out: u64| IndexTask::new(
//!     TaskId(id), 0, "copy", Domain::linear(4),
//!     vec![
//!         StoreArg::new(StoreId(store_in), block.clone(), Privilege::Read),
//!         StoreArg::new(StoreId(store_out), block.clone(), Privilege::Write),
//!     ],
//!     vec![],
//! );
//! // Three chained copies through the same partition fuse entirely.
//! let tasks = vec![t(0, 0, 1), t(1, 1, 2), t(2, 2, 3)];
//! assert_eq!(find_fusible_prefix(&tasks), 3);
//! ```

pub mod constraints;
pub mod explain;
pub mod fused;
pub mod horizontal;
pub mod memo;
pub mod prefix;
pub mod temporaries;
pub mod verify;
pub mod window;

pub use constraints::{ConstraintState, FusionViolation};
pub use explain::{explain_window, BoundaryReport, WindowReport};
pub use fused::FusedTask;
pub use horizontal::{plan_horizontal, HorizontalPlan, HorizontalViolation, SegmentFootprint};
pub use memo::{CanonicalWindow, MemoCache};
pub use prefix::{find_fusible_prefix, fusible_segments, fusible_segments_explained};
pub use temporaries::{temporary_stores, TempMask, WindowLiveness};
pub use verify::{
    verify_fused_prefix, verify_horizontal_plan, verify_reorder, verify_skeleton, DepKind,
    VerifyError,
};
pub use window::AdaptiveWindow;
