//! Deterministic fault injection and recovery policies (`diffuse-chaos`).
//!
//! A [`FaultPlan`] is a pure function from `(site, key, attempt)` to a
//! fault/no-fault decision: no RNG state is consumed, so a given seed and
//! rate produce the *same* fault schedule under every executor, every kernel
//! backend and every window permutation. The key a caller passes is derived
//! from launch-intrinsic content ([`crate::TaskLaunch::fingerprint`] mixed
//! with a per-fingerprint occurrence counter), never from scheduling order —
//! see `docs/RESILIENCE.md` for the determinism argument.
//!
//! Three fault sites exist ([`FaultSite`]):
//!
//! * **Device** — a simulated GPU dies mid-launch. Recovered by retrying with
//!   exponential backoff priced on the simulated clock; repeated failure
//!   marks the GPU unhealthy and migrates its work.
//! * **Compile** — a kernel backend fails to compile a fused module.
//!   Recovered by degrading along [`kernel::BackendKind::fallback`]
//!   (simd → interp; the interpreter never fails).
//! * **RegionRead** — a transient failure reading a region's data (a dropped
//!   fetch). Recovered by re-issuing the read after a priced backoff.
//!
//! All decisions and all recovery pricing happen eagerly in the accounting
//! half of [`crate::Runtime::execute`], so simulated time stays
//! executor-invariant; only the *discarded attempts* of a device fault are
//! replayed on the functional side (with rollback, so a killed attempt
//! commits nothing).

use std::sync::Once;

use ir::fingerprint::splitmix64;

/// Where a simulated fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A simulated GPU died while running a launch's kernel work.
    Device,
    /// A kernel backend failed to compile a module.
    Compile,
    /// A transient failure reading a region (dropped fetch / lost message).
    RegionRead,
}

impl FaultSite {
    /// A fixed per-site salt so the three decision streams are independent.
    fn salt(self) -> u64 {
        match self {
            FaultSite::Device => 0x4445_5649_4345_0001,
            FaultSite::Compile => 0x434f_4d50_494c_4502,
            FaultSite::RegionRead => 0x5245_4144_0000_0003,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Device => write!(f, "device failure"),
            FaultSite::Compile => write!(f, "kernel compile failure"),
            FaultSite::RegionRead => write!(f, "transient region-read failure"),
        }
    }
}

/// Mixes two words into one well-distributed key (used to fold occurrence
/// counters and per-requirement indices into a launch fingerprint).
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// A seeded, deterministic fault schedule: every `(site, key, attempt)`
/// triple independently faults with probability `rate`.
///
/// # Example
///
/// ```
/// use runtime::{FaultPlan, FaultSite};
///
/// let plan = FaultPlan::new(42, 0.25);
/// // Decisions are pure: the same triple always answers the same way.
/// let d = plan.should_fault(FaultSite::Device, 7, 0);
/// assert_eq!(d, plan.should_fault(FaultSite::Device, 7, 0));
/// // rate 0 never faults, rate 1 always does.
/// assert!(!FaultPlan::new(42, 0.0).should_fault(FaultSite::Device, 7, 0));
/// assert!(FaultPlan::new(42, 1.0).should_fault(FaultSite::Device, 7, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
}

impl FaultPlan {
    /// Creates a plan from a seed and a per-decision fault probability
    /// (clamped to `[0, 1]`).
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-decision fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Reads a plan from the `DIFFUSE_FAULTS` environment variable.
    ///
    /// Grammar: `DIFFUSE_FAULTS=<seed>:<rate>` (e.g. `42:0.05`). Unset,
    /// empty, or `off` mean no fault injection. A malformed value warns once
    /// and disables injection — silently injecting a different schedule than
    /// the one asked for would invalidate any chaos comparison.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("DIFFUSE_FAULTS").ok()?;
        if raw.is_empty() || raw == "off" || raw == "0" || raw == "none" {
            return None;
        }
        let parsed = raw.split_once(':').and_then(|(seed, rate)| {
            Some(FaultPlan::new(
                seed.trim().parse().ok()?,
                rate.trim().parse().ok()?,
            ))
        });
        if parsed.is_none() {
            static WARNED: Once = Once::new();
            let raw = raw.clone();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: unrecognized DIFFUSE_FAULTS value {raw:?} \
                     (expected \"<seed>:<rate>\", e.g. \"42:0.05\", or \"off\"); \
                     fault injection disabled"
                );
            });
        }
        parsed
    }

    /// Whether the fault at `(site, key, attempt)` fires. Pure — no state is
    /// consumed, so schedules replay identically under any execution order.
    pub fn should_fault(&self, site: FaultSite, key: u64, attempt: u32) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        if self.rate >= 1.0 {
            return true;
        }
        let h = splitmix64(mix(self.seed ^ site.salt(), key) ^ u64::from(attempt));
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.rate
    }
}

/// How the runtime recovers from injected faults.
///
/// With recovery `enabled` (the default), a faulted launch retries with
/// exponential backoff priced on the simulated clock; once `max_retries`
/// attempts are exhausted, the target GPU takes a strike and the launch
/// migrates to the remaining healthy devices (so no launch is ever lost).
/// With recovery disabled, the first fault fails the launch with a
/// structured [`crate::RuntimeError::Faulted`], poisoning exactly its
/// dependence cone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Whether faulted launches are retried/degraded instead of failed.
    pub enabled: bool,
    /// Retry attempts per launch before escalating (device) or giving up to
    /// a replica read (region reads).
    pub max_retries: u32,
    /// Simulated seconds of the first backoff pause; attempt `k` waits
    /// `backoff_base * 2^k`.
    pub backoff_base: f64,
    /// Exhausted retry sequences (strikes) a GPU survives before it is
    /// marked unhealthy and its share of work migrates.
    pub unhealthy_after: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_retries: 3,
            backoff_base: 1e-5,
            unhealthy_after: 2,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that fails launches on the first fault (no retries, no
    /// degradation) — the containment-testing mode.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            ..RecoveryPolicy::default()
        }
    }

    /// Overrides the retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the base backoff pause (simulated seconds).
    pub fn with_backoff_base(mut self, backoff_base: f64) -> Self {
        self.backoff_base = backoff_base;
        self
    }

    /// Overrides the strikes-to-unhealthy threshold.
    pub fn with_unhealthy_after(mut self, unhealthy_after: u32) -> Self {
        self.unhealthy_after = unhealthy_after.max(1);
        self
    }

    /// The simulated backoff pause before retry `attempt + 1`:
    /// `backoff_base * 2^attempt`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.backoff_base * f64::powi(2.0, attempt.min(62) as i32)
    }

    /// The simulated cost of restarting every device after the last healthy
    /// GPU is lost (the parallel→serial last resort): one backoff step past
    /// the retry budget.
    pub fn restart_penalty(&self) -> f64 {
        self.backoff(self.max_retries + 1)
    }
}

/// Counters attributing fault-injection and recovery activity, surfaced
/// through `ExecutionStats` at the Diffuse layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Faults the plan injected (every site, every attempt).
    pub faults_injected: u64,
    /// Priced retry attempts (device and region-read backoffs).
    pub retries: u64,
    /// Launches that completed degraded: migrated off a struck GPU, or
    /// compiled by a fallback backend after a compile fault.
    pub degraded_launches: u64,
    /// Launches whose effects were lost: faulted with recovery disabled,
    /// plus every launch skipped in their dependence cones.
    pub abandoned_launches: u64,
    /// Simulated seconds spent in recovery (backoff pauses, device
    /// restarts) — charged on the clock, so recovery cost is measured.
    pub recovery_sim_time: f64,
}

/// One injected fault that failed a launch (recovery disabled or
/// exhausted) — the payload of [`crate::RuntimeError::Faulted`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The launch the fault killed.
    pub launch: String,
    /// Which site faulted.
    pub site: FaultSite,
    /// Attempts made (1 = failed on first try, no retries granted).
    pub attempts: u32,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} killed launch `{}` after {} attempt(s)",
            self.site, self.launch, self.attempts
        )
    }
}

impl std::error::Error for FaultEvent {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_rate_bounded() {
        let plan = FaultPlan::new(7, 0.3);
        let mut fired = 0u32;
        for key in 0..2000u64 {
            let a = plan.should_fault(FaultSite::Device, key, 0);
            let b = plan.should_fault(FaultSite::Device, key, 0);
            assert_eq!(a, b);
            fired += u32::from(a);
        }
        // 30% ± a loose statistical margin over 2000 samples.
        assert!((400..=800).contains(&fired), "fired {fired}/2000");
    }

    #[test]
    fn sites_and_attempts_are_independent_streams() {
        let plan = FaultPlan::new(1, 0.5);
        let mut diff_site = false;
        let mut diff_attempt = false;
        for key in 0..64u64 {
            diff_site |= plan.should_fault(FaultSite::Device, key, 0)
                != plan.should_fault(FaultSite::Compile, key, 0);
            diff_attempt |= plan.should_fault(FaultSite::Device, key, 0)
                != plan.should_fault(FaultSite::Device, key, 1);
        }
        assert!(diff_site && diff_attempt);
    }

    #[test]
    fn rate_is_clamped() {
        assert_eq!(FaultPlan::new(0, 7.0).rate(), 1.0);
        assert_eq!(FaultPlan::new(0, -1.0).rate(), 0.0);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RecoveryPolicy::default().with_backoff_base(2.0);
        assert_eq!(p.backoff(0), 2.0);
        assert_eq!(p.backoff(1), 4.0);
        assert_eq!(p.backoff(2), 8.0);
        assert_eq!(p.restart_penalty(), p.backoff(p.max_retries + 1));
    }
}
