//! Property tests: the fingerprint-first memo probe is **behaviorally
//! identical** to a full-key lookup.
//!
//! The fast path never builds a `CanonicalWindow` on a hit — it probes by the
//! window's rolling fingerprint and verifies candidates through the window's
//! own numbering, and a miss builds its key from that numbering. These tests
//! drive the fast cache and a reference `HashMap<CanonicalWindow, u32>` with
//! the same window sequences — including renamed (isomorphic) windows and
//! deliberately *near*-isomorphic mutants that differ in exactly one
//! privilege, partition, shape or store choice — and require the same
//! hit/miss sequence and the same returned entries.

use std::collections::HashMap;

use fusion::{fusible_segments, plan_horizontal, CanonicalWindow, MemoCache};
use ir::{
    window_fingerprint, Domain, IndexTask, Partition, Privilege, Projection, ShapeId, StoreArg,
    StoreId, TaskId, TaskWindow,
};
use proptest::prelude::*;

mod common;
use common::{LAUNCH_POINTS, NUM_STORES, STORE_LEN};

/// Streams of up to five tasks over two store shapes, so mutants can differ
/// in shape alone.
fn arb_stream() -> impl Strategy<Value = Vec<IndexTask>> {
    common::arb_stream(1..6, 2)
}

/// Renames every store id by a fixed offset: an isomorphic window.
fn renamed(tasks: &[IndexTask], offset: u64) -> Vec<IndexTask> {
    tasks
        .iter()
        .map(|t| {
            let mut t = t.clone();
            for arg in &mut t.args {
                arg.store = StoreId(arg.store.0 + offset);
            }
            t
        })
        .collect()
}

/// Near-isomorphic mutants of a stream: identical except for one argument's
/// privilege, partition, shape or store.
fn mutants(tasks: &[IndexTask]) -> Vec<Vec<IndexTask>> {
    let mut out = Vec::new();
    let mut m = tasks.to_vec();
    m[0].args[0].privilege = match m[0].args[0].privilege {
        Privilege::Read => Privilege::ReadWrite,
        _ => Privilege::Read,
    };
    out.push(m);
    let mut m = tasks.to_vec();
    m[0].args[0].partition = Partition::tiling(
        vec![STORE_LEN / LAUNCH_POINTS],
        vec![7],
        Projection::Identity,
    )
    .into();
    out.push(m);
    let mut m = tasks.to_vec();
    m[0].args[0].shape = ShapeId::intern(&[STORE_LEN * 4]);
    out.push(m);
    let last = tasks.len() - 1;
    let mut m = tasks.to_vec();
    let a = m[last].args.len() - 1;
    m[last].args[a].store = StoreId(m[last].args[a].store.0 % NUM_STORES + NUM_STORES * 3);
    out.push(m);
    out
}

/// Drives the fingerprint-first cache and a full-key reference map with the
/// same window sequence; returns both observation logs.
fn drive(sequence: &[Vec<IndexTask>]) -> (Vec<Option<u32>>, Vec<Option<u32>>) {
    let mut fast: MemoCache<u32> = MemoCache::new();
    let mut reference: HashMap<CanonicalWindow, u32> = HashMap::new();
    let mut fast_log = Vec::new();
    let mut ref_log = Vec::new();
    for (i, tasks) in sequence.iter().enumerate() {
        let window: TaskWindow = tasks.iter().cloned().collect();
        let fast_hit = fast.probe(&window).copied();
        fast_log.push(fast_hit);
        if fast_hit.is_none() {
            fast.insert(CanonicalWindow::new(tasks), i as u32);
        }
        let key = CanonicalWindow::new(tasks);
        let ref_hit = reference.get(&key).copied();
        ref_log.push(ref_hit);
        if ref_hit.is_none() {
            reference.insert(key, i as u32);
        }
    }
    (fast_log, ref_log)
}

/// One independent unit of a batch: a chain of `len` elementwise tasks over
/// the unit's private store range (optionally also reading one shared store,
/// read-only), closed by a domain-1 breaker so adjacent units stay separate
/// vertical segments.
fn batch_stream(specs: &[(usize, bool)], order: &[usize]) -> Vec<IndexTask> {
    let shared = StoreId(900);
    let block = Partition::block(vec![STORE_LEN / LAUNCH_POINTS]);
    let mut out = Vec::new();
    let mut next_id = 0u64;
    for &u in order {
        let (len, extra) = specs[u];
        let base = 100 + (u as u64) * 16;
        for j in 0..len as u64 {
            let mut args = vec![
                StoreArg::new(StoreId(base + j), block.clone(), Privilege::Read)
                    .with_shape(vec![STORE_LEN]),
                StoreArg::new(StoreId(base + j + 1), block.clone(), Privilege::Write)
                    .with_shape(vec![STORE_LEN]),
            ];
            if extra {
                args.push(
                    StoreArg::new(shared, Partition::Replicate, Privilege::Read)
                        .with_shape(vec![STORE_LEN]),
                );
            }
            out.push(IndexTask::new(
                TaskId(next_id),
                0,
                format!("chain{u}t{j}"),
                Domain::linear(LAUNCH_POINTS),
                args,
                vec![],
            ));
            next_id += 1;
        }
        out.push(IndexTask::new(
            TaskId(next_id),
            1,
            format!("break{u}"),
            Domain::linear(1),
            vec![
                StoreArg::new(StoreId(base + 15), Partition::Replicate, Privilege::Write)
                    .with_shape(vec![STORE_LEN]),
            ],
            vec![],
        ));
        next_id += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A key built from a window's own numbering is the window's canonical
    /// key, in value and fingerprint, over one window reused through
    /// `clear` as a context reuses it: the stream, an isomorphic renaming,
    /// its near-isomorphic mutants (one privilege, partition, shape or store
    /// apart) and its suffixes, every other one permuted by `reorder`. The
    /// streams repeat stores, alias them through offset tilings and differ
    /// in shape. The probe's check then holds without a fingerprint
    /// collision — a key matches a window exactly when it equals the
    /// window's key — and `probe` hits exactly when the full-key `get` does.
    #[test]
    fn a_key_from_the_windows_numbering_is_its_canonical_key(
        tasks in arb_stream(),
        offset in 1u64..32,
        shift in 1usize..5,
    ) {
        let mut streams = vec![tasks.clone(), renamed(&tasks, offset)];
        streams.extend(mutants(&tasks));
        streams.extend((1..tasks.len()).map(|i| tasks[i..].to_vec()));
        let mut window = TaskWindow::new();
        let mut keyed = Vec::new();
        for (i, stream) in streams.iter().enumerate() {
            window.clear();
            window.extend(stream.iter().cloned());
            if i % 2 == 1 {
                let mut permuted = stream.clone();
                permuted.rotate_left(shift % stream.len());
                window.reorder(permuted);
            }
            let key = CanonicalWindow::from_numbering(window.tasks(), window.numbering());
            let reference = CanonicalWindow::new(window.tasks());
            prop_assert_eq!(key.fingerprint(), window.fingerprint());
            prop_assert_eq!(key.fingerprint(), reference.fingerprint());
            prop_assert_eq!(&key, &reference);
            keyed.push((key, window.tasks().to_vec()));
        }
        for (key, _) in &keyed {
            for (other, tasks) in &keyed {
                let window: TaskWindow = tasks.iter().cloned().collect();
                prop_assert_eq!(key.matches(window.tasks(), window.numbering()), key == other);
            }
        }
        let mut cache: MemoCache<usize> = MemoCache::new();
        for (i, (key, _)) in keyed.iter().enumerate().step_by(2) {
            cache.insert(key.clone(), i);
        }
        for (i, (key, tasks)) in keyed.iter().enumerate() {
            let window: TaskWindow = tasks.iter().cloned().collect();
            let probed = cache.probe(&window).copied();
            prop_assert_eq!(probed, cache.get(key).copied());
            prop_assert!(i % 2 == 1 || probed.is_some(), "an inserted key hits");
        }
    }

    /// Fingerprint-first lookup sees exactly the hits and misses — with the
    /// same entries — that full-key lookup sees, over a sequence containing
    /// the base window, an isomorphic renaming, near-isomorphic mutants and
    /// repeats of all of them.
    #[test]
    fn probe_is_equivalent_to_full_key_lookup(tasks in arb_stream(), offset in 1u64..32) {
        let mut sequence = vec![tasks.clone(), renamed(&tasks, offset)];
        sequence.extend(mutants(&tasks));
        // Replay everything once more: the second pass must be all hits on
        // both sides, returning the entries inserted by the first pass.
        let replay: Vec<Vec<IndexTask>> = sequence.clone();
        sequence.extend(replay);
        let (fast_log, ref_log) = drive(&sequence);
        prop_assert_eq!(&fast_log, &ref_log);
        // Sanity: the renamed window hit the base entry on both sides.
        prop_assert_eq!(fast_log[1], Some(0));
        // And every window in the replayed half hit.
        let half = fast_log.len() / 2;
        prop_assert!(fast_log[half..].iter().all(|h| h.is_some()));
    }

    /// The rolling fingerprint a window maintains incrementally equals the
    /// batch fingerprint of its contents after pushes and a reorder (the
    /// window's one refold, which renumbers from the permuted head).
    #[test]
    fn rolling_fingerprint_survives_reorders(tasks in arb_stream(), shift in 1usize..4) {
        let mut window = TaskWindow::new();
        for t in tasks.clone() {
            window.push(t);
        }
        prop_assert_eq!(window.fingerprint(), window_fingerprint(&tasks));
        let mut expected = tasks.clone();
        expected.rotate_left(shift % tasks.len());
        window.reorder(expected.clone());
        prop_assert_eq!(window.fingerprint(), window_fingerprint(&expected));
        // Pushing on top of the reordered window stays consistent.
        for t in tasks.iter().take(1).cloned() {
            window.push(t.clone());
            expected.push(t);
        }
        prop_assert_eq!(window.fingerprint(), window_fingerprint(&expected));
    }

    /// A bounded cache still agrees with the unbounded reference as long as
    /// the working set fits (the eviction policy only evicts beyond
    /// capacity, and the probed entry is always most-recently used).
    #[test]
    fn bounded_probe_agrees_within_capacity(tasks in arb_stream(), offset in 1u64..32) {
        let windows = [tasks.clone(), renamed(&tasks, offset), tasks.clone()];
        let mut bounded: MemoCache<u32> = MemoCache::with_capacity_limit(4);
        let mut log = Vec::new();
        for (i, w) in windows.iter().enumerate() {
            let window: TaskWindow = w.iter().cloned().collect();
            let hit = bounded.probe(&window).copied();
            log.push(hit);
            if hit.is_none() {
                bounded.insert(CanonicalWindow::new(w), i as u32);
            }
        }
        prop_assert_eq!(log[0], None);
        prop_assert_eq!(log[1], Some(0), "isomorphic renaming must hit");
        prop_assert_eq!(log[2], Some(0));
        prop_assert_eq!(bounded.evictions(), 0);
    }

    /// Two permutations of the same independent batch canonicalize to the
    /// same stream after the horizontal pass reorders them: equal rolling
    /// fingerprints, equal canonical windows, and one shared memo entry.
    /// This is the order-insensitivity the horizontal pass buys — isomorphic
    /// batches submitted in any order replay one compiled skeleton.
    #[test]
    fn permuted_batches_share_one_memo_entry(
        specs in prop::collection::vec((1usize..4, 0u8..2), 2..5),
        rotate in 0usize..4,
        reverse in 0u8..2,
    ) {
        let specs: Vec<(usize, bool)> =
            specs.into_iter().map(|(l, e)| (l, e == 1)).collect();
        let order_a: Vec<usize> = (0..specs.len()).collect();
        let mut order_b = order_a.clone();
        order_b.rotate_left(rotate % specs.len());
        if reverse == 1 {
            order_b.reverse();
        }

        let apply = |order: &[usize]| {
            let stream = batch_stream(&specs, order);
            let segments = fusible_segments(&stream);
            let plan = plan_horizontal(&stream, &segments);
            (plan.merged_tasks(), plan.apply(&stream))
        };
        let (merged_a, applied_a) = apply(&order_a);
        let (merged_b, applied_b) = apply(&order_b);

        // The units are pairwise disjoint (shared store is read-only on both
        // sides), so both permutations pack all chains into one group and all
        // breakers into another.
        prop_assert!(merged_a > 0);
        prop_assert_eq!(merged_a, merged_b);
        prop_assert_eq!(
            window_fingerprint(&applied_a),
            window_fingerprint(&applied_b),
            "permuted batches must canonicalize identically"
        );
        prop_assert_eq!(
            CanonicalWindow::new(&applied_a),
            CanonicalWindow::new(&applied_b)
        );

        // And the memo cache treats them as one entry: insert under the first
        // permutation's key, probe with the second's applied window.
        let mut cache: MemoCache<u32> = MemoCache::new();
        cache.insert(CanonicalWindow::new(&applied_a), 7);
        let window: TaskWindow = applied_b.iter().cloned().collect();
        prop_assert_eq!(cache.probe(&window).copied(), Some(7));
    }
}

/// End-to-end skeleton replay is backend-invariant: a second, freshly
/// allocated (isomorphic, store ids all different) copy of a batched stream
/// must hit the memo instead of recompiling — under every shipped kernel
/// backend, including `simd` — and all backends must agree bitwise on every
/// observable store. Memo entries are per-context and a context pins one
/// backend, so each backend id exercises its own cache and its own compiled
/// skeletons here.
#[test]
fn isomorphic_windows_replay_one_skeleton_under_every_backend() {
    use diffuse::{Context, DiffuseConfig};
    use kernel::{BackendKind, BufferId, BufferRole, KernelModule, LoopBuilder};
    use machine::MachineConfig;

    const GPUS: usize = 4;
    const N: u64 = 16;
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for backend in [BackendKind::Interp, BackendKind::Simd] {
        let ctx = Context::new(
            DiffuseConfig::fused(MachineConfig::with_gpus(GPUS))
                .with_backend(backend)
                .with_window(256, 256),
        );
        let lib = ctx.register_library("memo_replay");
        let scale = lib.register(
            "scale",
            diffuse::TaskSignature::new().read().write().scalars(1),
            |_args| {
                let mut m = KernelModule::new(2);
                m.set_role(BufferId(1), BufferRole::Output);
                let mut b = LoopBuilder::new("scale", BufferId(1));
                let x = b.load(BufferId(0));
                let s = b.param(0);
                let v = b.mul(x, s);
                b.store(BufferId(1), v);
                m.push_loop(b.finish());
                m
            },
        );
        let p = Partition::block(vec![N / GPUS as u64]);

        let mut all_bits: Vec<Vec<u64>> = Vec::new();
        let mut rounds = Vec::new();
        for round in 0..2u32 {
            // Fresh stores every round: the second window is isomorphic to
            // the first, never identical.
            let input = ctx.create_store(vec![N], "in");
            ctx.fill(&input, 1.0 + f64::from(round) * 0.5);
            let stats0 = ctx.stats();
            let mut cur = input;
            for step in 0..2 {
                let next = ctx.create_store(vec![N], "link");
                ctx.task(scale)
                    .read(&cur, p.clone())
                    .write(&next, p.clone())
                    .scalar(1.25 + f64::from(step) * 0.5)
                    .launch();
                cur = next;
            }
            ctx.flush();
            all_bits.push(
                ctx.read_store(&cur)
                    .unwrap()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect(),
            );
            rounds.push(ctx.stats().since(&stats0));
        }
        assert!(
            rounds[0].memo_misses >= 1,
            "{}: the first window must miss and compile",
            backend.id()
        );
        assert!(rounds[0].compilations >= 1);
        assert!(
            rounds[1].memo_hits >= 1,
            "{}: the isomorphic replay must hit the memo",
            backend.id()
        );
        assert_eq!(
            rounds[1].compilations, 0,
            "{}: a memo hit must skip backend compilation",
            backend.id()
        );
        match &reference {
            None => reference = Some(all_bits),
            Some(expected) => assert_eq!(
                expected,
                &all_bits,
                "{} diverged from the interpreter",
                backend.id()
            ),
        }
    }
}
