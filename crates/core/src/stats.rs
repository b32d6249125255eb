//! Statistics reported by the Diffuse layer.

/// Declares a statistics snapshot struct and its `since` from one field list,
/// so a field cannot be added without saying how two snapshots of it
/// difference. Each field is prefixed with its kind:
///
/// * `counter` — a `u64` that only grows: saturating difference, so
///   snapshots passed in the wrong order read zero instead of underflowing;
/// * `seconds` — an `f64` accumulator: plain difference;
/// * `latest` — a label or gauge: the later snapshot's value;
/// * `each` — a `Vec` of snapshots matched by index; entries the earlier
///   snapshot lacks difference against zero.
macro_rules! snapshot {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $kind:ident $field:ident: $ty:ty,)*
        }
        $(#[$smeta:meta])*
        $svis:vis fn since;
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            $(#[$smeta])*
            $svis fn since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: snapshot!(@$kind self.$field, earlier.$field),)*
                }
            }
        }
    };
    (@counter $later:expr, $earlier:expr) => { $later.saturating_sub($earlier) };
    (@seconds $later:expr, $earlier:expr) => { $later - $earlier };
    (@latest $later:expr, $earlier:expr) => { $later.clone() };
    (@each $later:expr, $earlier:expr) => {
        $later
            .iter()
            .enumerate()
            .map(|(i, x)| x.since($earlier.get(i).unwrap_or(&Default::default())))
            .collect()
    };
}

snapshot! {
    /// Per-library attribution of the task stream: what one registered library
    /// contributed and what happened to its tasks.
    ///
    /// Fused launches may span several libraries (the cross-library composition
    /// of Section 2); their simulated time is split across the participating
    /// libraries proportionally to each library's constituent-task count in the
    /// launch.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct LibraryStats {
        /// The library's registered name (names need not be unique: registering a
        /// library twice yields two entries).
        latest library: String,
        /// Index tasks this library submitted.
        counter tasks_submitted: u64,
        /// Launches that contained at least one of this library's tasks (a fused
        /// launch counts once per participating library).
        counter launches: u64,
        /// Launches shared with at least one *other* library — the cross-library
        /// fusion the paper's composition story depends on.
        counter cross_library_launches: u64,
        /// Simulated seconds attributed to this library's tasks.
        seconds simulated_time: f64,
    }
    /// The difference between two snapshots of one library (`self - earlier`).
    fn since;
}

snapshot! {
    /// Counters describing what Diffuse did to the task stream. The benchmark
    /// harness uses these to regenerate Figure 9 (tasks per iteration with and
    /// without fusion, window sizes) and Figure 13 (compilation time).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ExecutionStats {
        /// Index tasks submitted by libraries.
        counter tasks_submitted: u64,
        /// Index tasks actually launched on the runtime (fused tasks count once).
        counter tasks_launched: u64,
        /// Launches that combined two or more submitted tasks.
        counter fused_tasks: u64,
        /// Submitted tasks that the horizontal pass packed into a merged launch
        /// group: constituents of groups combining two or more independent
        /// fusible segments (counted at plan time, per flushed window).
        counter horizontally_fused_tasks: u64,
        /// Fused launches whose constituent tasks came from more than one
        /// registered library (the cross-library windows of Section 2).
        counter cross_library_fused_tasks: u64,
        /// Windows analyzed.
        counter windows_flushed: u64,
        /// Fused segments JIT-compiled (on a memo miss, with memoization off,
        /// or when a memoized segment's layout drifted).
        counter compilations: u64,
        /// Simulated seconds spent JIT-compiling fused kernels.
        seconds compile_time: f64,
        /// Flushes whose window plan the memo held (fused, memoization on:
        /// each such flush probes once, a hit or a miss).
        counter memo_hits: u64,
        /// Flushes whose window plan the memo did not hold, so it was built
        /// and memoized.
        counter memo_misses: u64,
        /// Memoization entries evicted to stay within the configured capacity
        /// (`DiffuseConfig::memo_capacity`).
        counter memo_evictions: u64,
        /// Temporary stores demoted to task-local allocations (Definition 4).
        counter temporaries_eliminated: u64,
        /// Distributed allocations that were never performed because the store
        /// only ever existed as a task-local temporary.
        counter distributed_allocations_avoided: u64,
        /// Individual invariant checks performed by the post-pass verifiers
        /// (`kernel::verify` + `fusion::verify`; zero unless
        /// `DiffuseConfig::enable_verification` is on).
        counter verification_checks: u64,
        /// Always zero. A window split is counted by the constraint that
        /// failed, and none of the four is a carried-dependence class; the
        /// field stays because `diffuse-bench` sums all four counters.
        counter rejections_carried: u64,
        /// Window splits caused by a true or an anti dependence.
        counter rejections_unknown: u64,
        /// Window splits caused by a launch-domain mismatch.
        counter rejections_domain_mismatch: u64,
        /// Window splits caused by the reduction constraint.
        counter rejections_reduction: u64,
        /// The window size currently selected by the adaptive policy.
        latest current_window_size: u64,
        /// Simulated faults injected by the active `FaultPlan` (zero when fault
        /// injection is off; see `docs/RESILIENCE.md`).
        counter faults_injected: u64,
        /// Recovery retries performed (each priced on the simulated clock with
        /// exponential backoff).
        counter retries: u64,
        /// Launches that ran degraded: exhausted their device-retry budget and
        /// migrated off a struck GPU, or fell back a backend tier after an
        /// injected compile fault.
        counter degraded_launches: u64,
        /// Launches abandoned because recovery was disabled; their dependence
        /// cones failed with them.
        counter abandoned_launches: u64,
        /// Simulated seconds charged for recovery (backoff waits and machine
        /// restarts) — measured, not free, like compile time.
        seconds recovery_sim_time: f64,
        /// Per-library attribution, indexed by `LibraryId` registration order.
        each per_library: Vec<LibraryStats>,
    }
    /// The difference between two snapshots (`self - earlier`); used to report
    /// per-iteration numbers. Libraries registered after the earlier snapshot
    /// diff against zero.
    pub fn since;
}

impl ExecutionStats {
    /// The per-library entry with the given registered name, if any (the
    /// first match when a name was registered more than once).
    pub fn library(&self, name: &str) -> Option<&LibraryStats> {
        self.per_library.iter().find(|l| l.library == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_counters() {
        let early = ExecutionStats {
            tasks_submitted: 10,
            tasks_launched: 4,
            ..Default::default()
        };
        let late = ExecutionStats {
            tasks_submitted: 30,
            tasks_launched: 9,
            current_window_size: 20,
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.tasks_submitted, 20);
        assert_eq!(d.tasks_launched, 5);
        assert_eq!(d.current_window_size, 20);
    }

    #[test]
    fn a_listed_field_is_differenced_and_misordered_snapshots_read_zero() {
        // The whole declaration of a snapshot type is its field list: this
        // one never mentions `since`, yet every kind differences correctly.
        snapshot! {
            #[derive(Debug, Clone, PartialEq, Default)]
            pub struct Probe {
                latest label: String,
                counter old_counter: u64,
                counter new_counter: u64,
                seconds busy: f64,
                each parts: Vec<LibraryStats>,
            }
            fn since;
        }
        let part = |launches| LibraryStats {
            launches,
            ..Default::default()
        };
        let early = Probe {
            label: "early".into(),
            old_counter: 1,
            new_counter: 5,
            busy: 0.5,
            parts: vec![part(1)],
        };
        let late = Probe {
            label: "late".into(),
            old_counter: 4,
            new_counter: 12,
            busy: 2.0,
            parts: vec![part(4), part(7)],
        };
        let d = late.since(&early);
        assert_eq!((d.old_counter, d.new_counter, d.busy), (3, 7, 1.5));
        assert_eq!(d.label, "late");
        assert_eq!(d.parts, vec![part(3), part(7)]);
        // Snapshots passed in the wrong order read zero, not a u64 underflow.
        let d = early.since(&late);
        assert_eq!((d.old_counter, d.new_counter), (0, 0));
        assert_eq!(d.parts, vec![part(0)]);
    }

    #[test]
    fn since_handles_libraries_registered_between_snapshots() {
        let lib = |name: &str, submitted: u64| LibraryStats {
            library: name.into(),
            tasks_submitted: submitted,
            ..Default::default()
        };
        let early = ExecutionStats {
            per_library: vec![lib("dense", 3)],
            ..Default::default()
        };
        let late = ExecutionStats {
            per_library: vec![lib("dense", 10), lib("sparse", 4)],
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.per_library.len(), 2);
        assert_eq!(d.library("dense").unwrap().tasks_submitted, 7);
        // Registered after the early snapshot: diffs against zero.
        assert_eq!(d.library("sparse").unwrap().tasks_submitted, 4);
        assert!(d.library("stencil").is_none());
    }
}
