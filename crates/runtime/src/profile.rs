//! Execution profile: what the runtime observed while executing launches.

/// Declares [`Profile`] and its `since` from one field list, so a counter
/// cannot be added without being differenced. `counter` fields (`u64`, only
/// ever grow) difference saturating — snapshots passed in the wrong order read
/// zero instead of underflowing; `seconds` fields (`f64`) difference plainly.
macro_rules! profile_counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $kind:ident $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// The difference between two profiles (`self - earlier`), used to
            /// report per-phase statistics.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: profile_counters!(@$kind self.$field, earlier.$field),)*
                }
            }
        }
    };
    (@counter $later:expr, $earlier:expr) => { $later.saturating_sub($earlier) };
    (@seconds $later:expr, $earlier:expr) => { $later - $earlier };
}

profile_counters! {
    /// Counters accumulated across every launch executed by a [`crate::Runtime`].
    ///
    /// Counters are filled in eagerly at submission time (with the cost
    /// accounting), so they never depend on which executor runs the functional
    /// work.
    ///
    /// # Example
    ///
    /// ```
    /// use runtime::Profile;
    ///
    /// let mut p = Profile { comm_time: 1.0, kernel_time: 2.0, ..Profile::default() };
    /// assert_eq!(p.total_time(), 3.0);
    /// let earlier = p;
    /// p.kernel_time += 4.0;
    /// assert_eq!(p.since(&earlier).kernel_time, 4.0);
    /// p.reset();
    /// assert_eq!(p, Profile::default());
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct Profile {
        /// Index tasks launched.
        counter index_tasks: u64,
        /// GPU kernels launched (one per module stage per index task).
        counter kernel_launches: u64,
        /// Bytes moved through GPU memory by kernels (per-GPU, on the critical
        /// path).
        counter kernel_bytes: u64,
        /// Floating point operations executed (per-GPU, critical path).
        counter kernel_flops: u64,
        /// Bytes communicated between GPUs because data was accessed through a
        /// partition other than the one it was produced with.
        counter comm_bytes: u64,
        /// Simulated seconds spent in communication.
        seconds comm_time: f64,
        /// Simulated seconds spent in kernels (including launch overheads).
        seconds kernel_time: f64,
        /// Simulated seconds of per-task runtime/MPI overhead.
        seconds overhead_time: f64,
        /// Distributed allocations performed.
        counter distributed_allocations: u64,
        /// Bytes of distributed allocations performed.
        counter distributed_allocation_bytes: u64,
    }
}

impl Profile {
    /// Total simulated seconds attributed to execution by this profile.
    pub fn total_time(&self) -> f64 {
        self.comm_time + self.kernel_time + self.overhead_time
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Profile::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_sums_components() {
        let p = Profile {
            comm_time: 1.0,
            kernel_time: 2.0,
            overhead_time: 0.5,
            ..Profile::default()
        };
        assert_eq!(p.total_time(), 3.5);
    }

    #[test]
    fn reset_zeroes() {
        let mut p = Profile {
            index_tasks: 5,
            ..Profile::default()
        };
        p.reset();
        assert_eq!(p, Profile::default());
    }

    #[test]
    fn misordered_snapshots_read_zero_instead_of_underflowing() {
        let early = Profile {
            index_tasks: 2,
            ..Profile::default()
        };
        let late = Profile {
            index_tasks: 7,
            comm_bytes: 64,
            ..Profile::default()
        };
        let diff = early.since(&late);
        assert_eq!(diff.index_tasks, 0);
        assert_eq!(diff.comm_bytes, 0);
    }

    #[test]
    fn since_subtracts() {
        let early = Profile {
            index_tasks: 2,
            kernel_launches: 3,
            ..Profile::default()
        };
        let late = Profile {
            index_tasks: 7,
            kernel_launches: 10,
            ..Profile::default()
        };
        let diff = late.since(&early);
        assert_eq!(diff.index_tasks, 5);
        assert_eq!(diff.kernel_launches, 7);
    }
}
