//! Configuration of the Diffuse middle layer.

use kernel::BackendKind;
use machine::MachineConfig;
use runtime::{ExecutorKind, FaultPlan, RecoveryPolicy};

/// Which privileges the fusion analysis trusts: the ones each task
/// declares, verbatim. A launch's declared partitions and privileges are the
/// ground truth of every fusion constraint (Section 4); there is no other
/// mode. The enum and [`DiffuseConfig::with_analyze`] stay because
/// `diffuse-bench` names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeMode {
    /// Use the privileges each task declared, verbatim.
    #[default]
    Declared,
}

/// Configuration of a [`crate::Context`].
///
/// The presets mirror the configurations evaluated in the paper:
/// [`DiffuseConfig::fused`] is full Diffuse (task fusion + kernel fusion +
/// temporary elimination + memoization); [`DiffuseConfig::unfused`] is the
/// baseline that forwards every task to the runtime unchanged;
/// [`DiffuseConfig::task_fusion_only`] is the ablation discussed in Section 7
/// (task fusion without kernel fusion yields little benefit at these task
/// granularities).
#[derive(Debug, Clone)]
pub struct DiffuseConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Whether regions hold real data and kernels execute functionally.
    pub materialize_data: bool,
    /// Buffer tasks and replace fusible prefixes with fused tasks.
    pub enable_task_fusion: bool,
    /// Run the kernel pipeline (loop fusion, store forwarding, local
    /// elimination) on fused task bodies, and demote temporary stores
    /// (Definition 4) to task-local buffers.
    pub enable_kernel_fusion: bool,
    /// Memoize analysis and compilation over isomorphic windows.
    pub enable_memoization: bool,
    /// Pack independent equal-domain fusible segments of the window side by
    /// side into one wide launch (horizontal fusion) before the vertical
    /// prefix analysis runs. Has no effect unless `enable_task_fusion` is
    /// also set. Defaults to [`DiffuseConfig::horizontal_fusion_from_env`]
    /// (the `DIFFUSE_HORIZONTAL` environment variable; off when unset, so
    /// existing streams are processed bit-for-bit as before).
    pub enable_horizontal_fusion: bool,
    /// Maximum number of (canonical window, compiled artifact) entries the
    /// memoization cache retains; least-recently-used entries are evicted
    /// beyond this. `usize::MAX` disables the bound. Defaults to
    /// [`DiffuseConfig::DEFAULT_MEMO_CAPACITY`].
    pub memo_capacity: usize,
    /// Initial task-window size.
    pub initial_window_size: usize,
    /// Maximum task-window size.
    pub max_window_size: usize,
    /// Which runtime executor runs functional kernel work (defaults to
    /// [`ExecutorKind::from_env`], i.e. the `DIFFUSE_EXECUTOR` environment
    /// variable; serial when unset).
    pub executor: ExecutorKind,
    /// Which kernel backend compiles fused modules into executable artifacts
    /// (defaults to [`BackendKind::from_env`], i.e. the `DIFFUSE_BACKEND`
    /// environment variable; the interpreter when unset). Simulated time is
    /// backend-invariant except through the compile-time model; see
    /// `docs/BACKENDS.md`.
    pub backend: BackendKind,
    /// Re-verify every fusion decision and backend lowering after the fact
    /// (`kernel::verify` + `fusion::verify`; see `docs/VERIFY.md`). A
    /// violated invariant panics with a structured diagnostic naming it.
    /// Defaults to [`DiffuseConfig::verification_from_env`]: the
    /// `DIFFUSE_VERIFY` environment variable when set, otherwise on in debug
    /// builds (`debug_assertions`) and off in release builds.
    pub enable_verification: bool,
    /// How a verifier violation surfaces. `true` (the default in debug
    /// builds, where a violation is a Diffuse bug the test suite should trap
    /// loudly) keeps the historical panic. `false` routes the violation
    /// through the per-launch failure path as a structured
    /// [`runtime::RuntimeError::Verify`]: only the offending window's
    /// dependence cone fails, and independent work completes — the behavior a
    /// long-running service wants (see `docs/RESILIENCE.md`).
    pub verify_fail_fast: bool,
    /// Deterministic fault-injection plan forwarded to the runtime (`None`
    /// disables injection). Defaults to [`FaultPlan::from_env`], i.e. the
    /// `DIFFUSE_FAULTS=<seed>:<rate>` environment variable; unset leaves the
    /// fault layer dormant at zero cost.
    pub fault_plan: Option<FaultPlan>,
    /// Recovery policy applied to injected faults (retry budget, backoff
    /// pricing, GPU health threshold).
    pub recovery: RecoveryPolicy,
}

impl DiffuseConfig {
    /// Default bound on resident memoization entries. Generous for real
    /// applications (CG needs a handful of window shapes) while keeping a
    /// long-running service from accumulating a compiled artifact for every
    /// window shape it has ever seen.
    pub const DEFAULT_MEMO_CAPACITY: usize = 1024;

    /// Whether `DIFFUSE_HORIZONTAL` requests horizontal fusion
    /// ([`ir::env::flag`]; off unless set). The CI invariance leg toggles
    /// this to assert that the horizontal pass never changes results, only
    /// launch counts.
    pub fn horizontal_fusion_from_env() -> bool {
        ir::env::flag("DIFFUSE_HORIZONTAL", false)
    }

    /// Whether `DIFFUSE_VERIFY` requests verification ([`ir::env::flag`]);
    /// unset or unrecognized falls back to `cfg!(debug_assertions)` — the
    /// whole test suite runs verified by default while release benchmarks
    /// stay unchecked.
    pub fn verification_from_env() -> bool {
        ir::env::flag("DIFFUSE_VERIFY", cfg!(debug_assertions))
    }

    /// Full Diffuse with functional execution.
    pub fn fused(machine: MachineConfig) -> Self {
        DiffuseConfig {
            machine,
            materialize_data: true,
            enable_task_fusion: true,
            enable_kernel_fusion: true,
            enable_memoization: true,
            enable_horizontal_fusion: Self::horizontal_fusion_from_env(),
            memo_capacity: Self::DEFAULT_MEMO_CAPACITY,
            initial_window_size: 5,
            max_window_size: 70,
            executor: ExecutorKind::from_env(),
            backend: BackendKind::from_env(),
            enable_verification: Self::verification_from_env(),
            verify_fail_fast: cfg!(debug_assertions),
            fault_plan: FaultPlan::from_env(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The unfused baseline: every task goes straight to the runtime.
    pub fn unfused(machine: MachineConfig) -> Self {
        DiffuseConfig {
            enable_task_fusion: false,
            enable_kernel_fusion: false,
            enable_memoization: false,
            ..DiffuseConfig::fused(machine)
        }
    }

    /// Task fusion without kernel fusion or temporary elimination (the
    /// ablation the paper discusses: only runtime overhead is removed).
    pub fn task_fusion_only(machine: MachineConfig) -> Self {
        DiffuseConfig {
            enable_kernel_fusion: false,
            ..DiffuseConfig::fused(machine)
        }
    }

    /// Switches off functional execution (pure performance simulation for
    /// machine-scale problem sizes).
    pub fn simulation_only(mut self) -> Self {
        self.materialize_data = false;
        self
    }

    /// Overrides the window sizing.
    pub fn with_window(mut self, initial: usize, max: usize) -> Self {
        self.initial_window_size = initial;
        self.max_window_size = max;
        self
    }

    /// Enables or disables horizontal fusion explicitly, overriding the
    /// `DIFFUSE_HORIZONTAL` default. Horizontal fusion reorders the window
    /// to pack independent equal-domain segments into one launch; results
    /// are unchanged (only proven-independent tasks commute) while launch
    /// counts drop for batched independent streams.
    pub fn with_horizontal_fusion(mut self, enabled: bool) -> Self {
        self.enable_horizontal_fusion = enabled;
        self
    }

    /// Disables memoization (ablation).
    pub fn without_memoization(mut self) -> Self {
        self.enable_memoization = false;
        self
    }

    /// Bounds the memoization cache to `capacity` resident entries (LRU
    /// eviction beyond it). Pass `usize::MAX` for an unbounded cache.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_memo_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "memo capacity must be at least 1");
        self.memo_capacity = capacity;
        self
    }

    /// Overrides the runtime executor (e.g. to force the work-stealing
    /// executor for a functional run regardless of `DIFFUSE_EXECUTOR`).
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Overrides the kernel backend (e.g. to force the SIMD backend
    /// regardless of `DIFFUSE_BACKEND`).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Enables or disables post-pass verification explicitly, overriding the
    /// `DIFFUSE_VERIFY` / `debug_assertions` default. See `docs/VERIFY.md`
    /// for the invariant catalog.
    pub fn with_verification(mut self, enabled: bool) -> Self {
        self.enable_verification = enabled;
        self
    }

    /// Chooses how verifier violations surface: `true` panics (debug-build
    /// default), `false` degrades them to structured per-launch failures that
    /// poison only the offending window's dependence cone.
    pub fn with_verify_fail_fast(mut self, fail_fast: bool) -> Self {
        self.verify_fail_fast = fail_fast;
        self
    }

    /// Enables deterministic fault injection under the given plan, overriding
    /// the `DIFFUSE_FAULTS` default. See `docs/RESILIENCE.md`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the recovery policy (only observable while a fault plan is
    /// active).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Accepts the one [`AnalyzeMode`] and changes nothing: declared
    /// privileges are always trusted.
    pub fn with_analyze(self, _analyze: AnalyzeMode) -> Self {
        self
    }
}

impl Default for DiffuseConfig {
    fn default() -> Self {
        DiffuseConfig::fused(MachineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_toggle_the_right_flags() {
        let fused = DiffuseConfig::fused(MachineConfig::single_node(4));
        assert!(fused.enable_task_fusion && fused.enable_kernel_fusion);
        let unfused = DiffuseConfig::unfused(MachineConfig::single_node(4));
        assert!(!unfused.enable_task_fusion && !unfused.enable_kernel_fusion);
        let tf = DiffuseConfig::task_fusion_only(MachineConfig::single_node(4));
        assert!(tf.enable_task_fusion && !tf.enable_kernel_fusion);
    }

    #[test]
    fn builders_modify_fields() {
        let c = DiffuseConfig::fused(MachineConfig::single_node(2))
            .simulation_only()
            .with_window(10, 40)
            .without_memoization();
        assert!(!c.materialize_data);
        assert_eq!(c.initial_window_size, 10);
        assert_eq!(c.max_window_size, 40);
        assert!(!c.enable_memoization);
    }

    #[test]
    fn default_is_fused() {
        assert!(DiffuseConfig::default().enable_task_fusion);
        assert_eq!(
            DiffuseConfig::default().memo_capacity,
            DiffuseConfig::DEFAULT_MEMO_CAPACITY
        );
    }

    #[test]
    fn memo_capacity_override() {
        let c = DiffuseConfig::fused(MachineConfig::single_node(2)).with_memo_capacity(7);
        assert_eq!(c.memo_capacity, 7);
    }

    #[test]
    #[should_panic]
    fn zero_memo_capacity_panics() {
        let _ = DiffuseConfig::fused(MachineConfig::single_node(2)).with_memo_capacity(0);
    }

    #[test]
    fn horizontal_fusion_override() {
        let on = DiffuseConfig::fused(MachineConfig::single_node(2)).with_horizontal_fusion(true);
        assert!(on.enable_horizontal_fusion);
        let off = on.with_horizontal_fusion(false);
        assert!(!off.enable_horizontal_fusion);
    }

    #[test]
    fn executor_override() {
        let c = DiffuseConfig::fused(MachineConfig::single_node(2))
            .with_executor(ExecutorKind::WorkStealing { workers: Some(2) });
        assert_eq!(c.executor, ExecutorKind::WorkStealing { workers: Some(2) });
    }

    #[test]
    fn backend_override() {
        let c = DiffuseConfig::fused(MachineConfig::single_node(2))
            .with_backend(BackendKind::Simd);
        assert_eq!(c.backend, BackendKind::Simd);
    }

    #[test]
    fn analyze_override() {
        let c = DiffuseConfig::fused(MachineConfig::single_node(2));
        let declared = c.clone().with_analyze(AnalyzeMode::Declared);
        assert_eq!(format!("{declared:?}"), format!("{c:?}"));
        assert_eq!(AnalyzeMode::default(), AnalyzeMode::Declared);
    }

    #[test]
    fn verification_override() {
        let on = DiffuseConfig::fused(MachineConfig::single_node(2)).with_verification(true);
        assert!(on.enable_verification);
        let off = on.with_verification(false);
        assert!(!off.enable_verification);
    }
}
