//! Property test: the liveness a memoized plan carries is Definition 4.
//!
//! A missed window's segments get their liveness masks (conditions 1 and 2)
//! from one reverse sweep of the window and one forward pass per segment
//! ([`WindowLiveness`]); a launch demotes the masked arguments whose store
//! has no live application handle. For random windows, their greedy
//! segmentation and random sets of live handles, that must be exactly the
//! set the reference walk ([`temporary_stores`]) finds for every segment.
//! The generator's windows include stores read in a later segment, halo and
//! partial-cover reads, unknown shapes and reduce-only stores;
//! `the_generator_reaches_every_case` counts them.

use std::collections::HashSet;

use fusion::{fusible_segments, temporary_stores, FusedTask, WindowLiveness};
use ir::{Domain, IndexTask, ShapeId, StoreId};
use proptest::prelude::*;

mod common;
use common::NUM_STORES;

const CASES: u32 = 512;
const MAX_TASKS: usize = 14;

/// Windows of up to [`MAX_TASKS`] tasks from the shared generator, every
/// store one of two lengths. One argument in eight loses its stamped shape,
/// and one task in five runs on a single launch point, which splits the
/// window into more segments.
fn arb_window() -> impl Strategy<Value = Vec<IndexTask>> {
    let unknown = prop::collection::vec(0u8..8, 3 * MAX_TASKS..3 * MAX_TASKS + 1);
    let single = prop::collection::vec(0u8..5, MAX_TASKS..MAX_TASKS + 1);
    (common::arb_stream(1..MAX_TASKS + 1, 2), unknown, single).prop_map(
        |(mut tasks, unknown, single)| {
            for (i, task) in tasks.iter_mut().enumerate() {
                if single[i] == 0 {
                    task.launch_domain = Domain::linear(1);
                }
                for (j, arg) in task.args.iter_mut().enumerate() {
                    if unknown[3 * i + j] == 0 {
                        arg.shape = ShapeId::UNKNOWN;
                    }
                }
            }
            tasks
        },
    )
}

/// The stores with a live application handle, one bit per store.
fn arb_live() -> impl Strategy<Value = u8> {
    0u8..1 << NUM_STORES
}

fn is_live(live: u8) -> impl Fn(StoreId) -> bool {
    move |s: StoreId| live >> s.0 & 1 == 1
}

/// Each segment of `tasks` with its window range, fused as the context
/// fuses it.
fn segments(tasks: &[IndexTask]) -> Vec<(std::ops::Range<usize>, FusedTask)> {
    let mut start = 0;
    let lens = fusible_segments(tasks);
    let ranges = lens.into_iter().map(|len| {
        start += len;
        start - len..start
    });
    ranges.map(|r| (r.clone(), FusedTask::build(tasks[r].to_vec()))).collect()
}

/// The stores a launch demotes: the masked arguments minus the live ones.
fn demoted(
    liveness: &WindowLiveness,
    fused: &FusedTask,
    end: usize,
    live: &impl Fn(StoreId) -> bool,
) -> HashSet<StoreId> {
    let mask = liveness.mask(fused, end);
    assert_eq!(mask.len(), fused.args.len(), "one bit per fused argument");
    let args = fused.args.iter().zip(mask.iter());
    args.filter(|&(&(s, ..), bit)| bit && !live(s)).map(|(&(s, ..), _)| s).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Mask minus live handles equals the reference walk, segment by
    /// segment, whatever the window and whoever holds a handle.
    #[test]
    fn the_mask_minus_live_handles_is_definition_4(tasks in arb_window(), live in arb_live()) {
        let liveness = WindowLiveness::new(&tasks);
        let live = is_live(live);
        for (range, fused) in segments(&tasks) {
            let reference = temporary_stores(&tasks[range.clone()], &tasks[range.end..], &live);
            let masked = demoted(&liveness, &fused, range.end, &live);
            prop_assert_eq!(masked, reference, "segment {:?} of {} tasks", range, tasks.len());
        }
    }
}

/// What a segment's store shows of each case the property must cover.
#[derive(Debug, Default)]
struct Reached {
    /// A temporary of its segment alone, kept by a later segment's read.
    read_later: u32,
    /// Written with known shapes, but a read is not covered by an earlier
    /// write through its partition (a halo or a partial cover).
    uncovered_read: u32,
    /// Written, with an argument of unknown shape.
    unknown_shape: u32,
    /// Reduced and never written.
    reduce_only: u32,
    /// A temporary but for a live handle.
    live_handle: u32,
    /// Demoted.
    demoted: u32,
}

#[test]
fn the_generator_reaches_every_case() {
    let mut reached = Reached::default();
    for case in 0..CASES {
        let mut rng = proptest::TestRng::for_case("liveness_reach", case);
        let tasks = arb_window().generate(&mut rng);
        let live = is_live(arb_live().generate(&mut rng));
        let liveness = WindowLiveness::new(&tasks);
        for (range, fused) in segments(&tasks) {
            let (segment, pending) = (&tasks[range.clone()], &tasks[range.end..]);
            let alone = temporary_stores(segment, &[], |_| false);
            let demoted = demoted(&liveness, &fused, range.end, &live);
            assert_eq!(demoted, temporary_stores(segment, pending, &live));
            let stores: HashSet<StoreId> = segment.iter().flat_map(|t| t.stores()).collect();
            for s in stores {
                let args = || segment.iter().flat_map(|t| t.args_for(s));
                let written = args().any(|a| a.privilege.writes());
                let known = args().all(|a| !a.shape.is_unknown());
                let read_later = pending.iter().any(|t| t.reads(s) || t.reduces(s));
                let candidate = alone.contains(&s) && !read_later;
                reached.read_later += u32::from(alone.contains(&s) && !candidate);
                reached.uncovered_read += u32::from(written && known && !alone.contains(&s));
                reached.unknown_shape += u32::from(written && !known);
                reached.reduce_only += u32::from(args().all(|a| a.privilege.reduces()));
                reached.live_handle += u32::from(candidate && live(s));
                reached.demoted += u32::from(demoted.contains(&s));
            }
        }
    }
    let Reached { read_later, uncovered_read, unknown_shape, reduce_only, live_handle, demoted } =
        &reached;
    let counts = [read_later, uncovered_read, unknown_shape, reduce_only, live_handle, demoted];
    assert!(counts.iter().all(|&&n| n >= 100), "{reached:?}");
}
