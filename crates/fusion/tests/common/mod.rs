//! The task-stream generator shared by the fusion property suites
//! (`soundness.rs`, `memo_equivalence.rs`): random windows of index tasks over
//! a handful of stores on a small machine, covering every partition kind and
//! privilege the fusion constraints distinguish.

use std::ops::Range;

use ir::{
    Domain, IndexTask, Partition, Privilege, Projection, ReductionOp, StoreArg, StoreId, TaskId,
};
use proptest::prelude::*;

pub const NUM_STORES: u64 = 6;
pub const STORE_LEN: u64 = 24;
pub const LAUNCH_POINTS: u64 = 4;

fn arb_partition() -> impl Strategy<Value = Partition> {
    prop_oneof![
        Just(Partition::Replicate),
        Just(Partition::block(vec![STORE_LEN / LAUNCH_POINTS])),
        (0i64..3).prop_map(|off| Partition::tiling(
            vec![STORE_LEN / LAUNCH_POINTS],
            vec![off],
            Projection::Identity
        )),
        Just(Partition::tiling(
            vec![STORE_LEN / 2],
            vec![0],
            Projection::Constant(vec![0])
        )),
    ]
}

fn arb_privilege() -> impl Strategy<Value = Privilege> {
    prop_oneof![
        Just(Privilege::Read),
        Just(Privilege::Write),
        Just(Privilege::ReadWrite),
        Just(Privilege::Reduce(ReductionOp::Sum)),
    ]
}

/// One store argument, stamped with its store's shape the way the Diffuse
/// context does at submit time (the analyses read shapes straight off the
/// arguments). `shapes` is how many distinct shapes an argument may carry:
/// 1 keeps every store `STORE_LEN` long, which the ground-truth dependence
/// maps assume; 2 adds a double-length shape so near-isomorphic windows can
/// differ in shape alone.
fn arb_arg(shapes: u64) -> impl Strategy<Value = StoreArg> {
    (0..NUM_STORES, arb_partition(), arb_privilege(), 0..shapes).prop_map(|(s, p, pr, wide)| {
        StoreArg::new(StoreId(s), p, pr).with_shape(vec![STORE_LEN * (1 + wide)])
    })
}

/// A stream of `len` tasks, each over 1–3 arguments drawn from [`arb_arg`].
pub fn arb_stream(len: Range<usize>, shapes: u64) -> impl Strategy<Value = Vec<IndexTask>> {
    prop::collection::vec(prop::collection::vec(arb_arg(shapes), 1..4), len).prop_map(
        |arg_lists| {
            arg_lists
                .into_iter()
                .enumerate()
                .map(|(i, args)| {
                    IndexTask::new(
                        TaskId(i as u64),
                        0,
                        format!("t{i}"),
                        Domain::linear(LAUNCH_POINTS),
                        args,
                        vec![],
                    )
                })
                .collect()
        },
    )
}
