//! Property tests: the scale-free fusion constraints are sound with respect to
//! the ground-truth dependence definitions (Theorem 1, part 1).
//!
//! For arbitrary task streams over a small machine, every pair of tasks inside
//! the fusible prefix found by the greedy algorithm must be fusible according
//! to the materialized dependence maps of Definition 3, and temporary stores
//! must never be observable by pending tasks.

use std::collections::HashMap;

use fusion::{find_fusible_prefix, temporary_stores, CanonicalWindow};
use ir::{fusible_ground_truth, IndexTask, StoreId};
use proptest::prelude::*;

mod common;
use common::{NUM_STORES, STORE_LEN};

/// Streams of up to seven tasks, every store `STORE_LEN` long (the shape
/// [`store_shapes`] hands the ground-truth dependence maps).
fn arb_stream() -> impl Strategy<Value = Vec<IndexTask>> {
    common::arb_stream(1..8, 1)
}

fn store_shapes() -> HashMap<StoreId, Vec<u64>> {
    (0..NUM_STORES)
        .map(|s| (StoreId(s), vec![STORE_LEN]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: every pair of tasks inside the fusible prefix is fusible by
    /// the ground-truth dependence maps.
    #[test]
    fn fusible_prefix_is_sound(tasks in arb_stream()) {
        let shapes = store_shapes();
        let len = find_fusible_prefix(&tasks);
        prop_assert!(len <= tasks.len());
        for i in 0..len {
            for j in (i + 1)..len {
                prop_assert!(
                    fusible_ground_truth(&tasks[i], &tasks[j], &shapes),
                    "tasks {i} and {j} admitted by the constraints but not fusible \
                     by the ground truth"
                );
            }
        }
    }

    /// The greedy search is monotone: a prefix of a stream never produces a
    /// longer fusible prefix than the full stream allows at the same cut.
    #[test]
    fn prefix_search_is_greedy_and_stable(tasks in arb_stream()) {
        let len = find_fusible_prefix(&tasks);
        if len > 1 {
            // Every shorter prefix of the fusible prefix must itself be fully
            // fusible.
            for cut in 1..len {
                prop_assert_eq!(find_fusible_prefix(&tasks[..cut]), cut);
            }
        }
    }

    /// Temporary stores are never read or reduced by pending tasks and never
    /// application-referenced.
    #[test]
    fn temporaries_are_unobservable(tasks in arb_stream(), split in 0usize..8) {
        let len = find_fusible_prefix(&tasks);
        let split = split.min(len);
        let (prefix, pending) = tasks.split_at(split.max(1).min(tasks.len()));
        let temps = temporary_stores(prefix, pending, |_| false);
        for s in &temps {
            for t in pending {
                prop_assert!(!t.reads(*s) && !t.reduces(*s));
            }
            // A temporary must have been written inside the prefix.
            prop_assert!(prefix.iter().any(|t| t.writes(*s)));
        }
    }

    /// Canonicalization is invariant under store renaming (alpha-equivalence).
    #[test]
    fn canonicalization_is_renaming_invariant(tasks in arb_stream(), offset in 1u64..40) {
        let renamed: Vec<IndexTask> = tasks
            .iter()
            .map(|t| {
                let mut t = t.clone();
                for arg in &mut t.args {
                    arg.store = StoreId(arg.store.0 + offset);
                }
                t
            })
            .collect();
        let a = CanonicalWindow::new(&tasks);
        let b = CanonicalWindow::new(&renamed);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a, b);
    }

    /// The fusion decision itself is replayable on isomorphic windows: two
    /// windows with equal canonical forms produce the same fusible prefix
    /// length.
    #[test]
    fn isomorphic_windows_fuse_identically(tasks in arb_stream(), offset in 1u64..40) {
        let renamed: Vec<IndexTask> = tasks
            .iter()
            .map(|t| {
                let mut t = t.clone();
                for arg in &mut t.args {
                    arg.store = StoreId(arg.store.0 + offset);
                }
                t
            })
            .collect();
        prop_assert_eq!(find_fusible_prefix(&tasks), find_fusible_prefix(&renamed));
    }
}
