//! Fault-injection equivalence: the headline invariant of the resilience
//! layer (`docs/RESILIENCE.md`).
//!
//! With recovery **on**, any seeded fault schedule must leave every region
//! bitwise identical to the fault-free run, under every executor × backend
//! combination — recovery retries, replays, migrations and the serial
//! fallback repair faults without ever changing results, and the whole fault
//! schedule is deterministic because decisions key on launch fingerprints,
//! not on executor timing.
//!
//! With recovery **off**, exactly the injected launches and their dependence
//! cones fail — nothing more. The expected failure set is replayed
//! independently here from the plan's pure decision function plus the same
//! `DepTracker` hazard semantics the executors use, and the surviving
//! regions must equal a fault-free run of the surviving subsequence (failed
//! launches commit nothing — no torn writes).

use std::collections::{HashMap, HashSet};

use ir::{Domain, Partition, Privilege};
use kernel::{BackendKind, BufferId, BufferRole, KernelModule, LoopBuilder};
use machine::MachineConfig;
use proptest::prelude::*;
use runtime::faults::mix;
use runtime::{
    AccessSummary, DepTracker, ExecutorKind, FaultPlan, FaultSite, FaultStats, LaunchFailure,
    OverheadClass, RecoveryPolicy, RegionRequirement, Runtime, RuntimeConfig, RuntimeError,
    TaskLaunch,
};

const REGIONS: u64 = 6;

/// One randomly generated operation: `dst = src_a * 0.5 + src_b` elementwise,
/// or an in-place accumulation `dst += src_a` when `accumulate` is set.
#[derive(Debug, Clone)]
struct Op {
    src_a: u64,
    src_b: u64,
    dst: u64,
    accumulate: bool,
}

/// dst[i] = a[i] * 0.5 + b[i]
fn combine_module() -> KernelModule {
    let mut m = KernelModule::new(3);
    m.set_role(BufferId(2), BufferRole::Output);
    let mut lb = LoopBuilder::new("combine", BufferId(0));
    let a = lb.load(BufferId(0));
    let b = lb.load(BufferId(1));
    let half = lb.constant(0.5);
    let scaled = lb.mul(a, half);
    let sum = lb.add(scaled, b);
    lb.store(BufferId(2), sum);
    m.push_loop(lb.finish());
    m
}

/// dst[i] = dst[i] + a[i] — deliberately non-idempotent, so a replayed or
/// partially committed attempt would be visible in the comparison.
fn accumulate_module() -> KernelModule {
    let mut m = KernelModule::new(2);
    m.set_role(BufferId(1), BufferRole::InOut);
    let mut lb = LoopBuilder::new("accumulate", BufferId(0));
    let a = lb.load(BufferId(0));
    let d = lb.load(BufferId(1));
    let sum = lb.add(a, d);
    lb.store(BufferId(1), sum);
    m.push_loop(lb.finish());
    m
}

/// Builds the launch for op `i`. Names are unique (`op{i}`) so failure
/// records map back to program positions.
fn launch_for(
    i: usize,
    op: &Op,
    regions: &[runtime::RegionId],
    gpus: u64,
    n: u64,
    rt: &Runtime,
) -> TaskLaunch {
    let block = Partition::block(vec![n.div_ceil(gpus)]);
    if op.accumulate {
        TaskLaunch {
            name: format!("op{i}"),
            launch_domain: Domain::linear(gpus),
            requirements: vec![
                RegionRequirement::new(regions[op.src_a as usize], block.clone(), Privilege::Read),
                RegionRequirement::new(regions[op.dst as usize], block, Privilege::ReadWrite),
            ],
            kernel: rt.compile(&accumulate_module()).unwrap(),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        }
    } else {
        TaskLaunch {
            name: format!("op{i}"),
            launch_domain: Domain::linear(gpus),
            requirements: vec![
                RegionRequirement::new(regions[op.src_a as usize], block.clone(), Privilege::Read),
                RegionRequirement::new(regions[op.src_b as usize], block.clone(), Privilege::Read),
                RegionRequirement::new(regions[op.dst as usize], block, Privilege::Write),
            ],
            kernel: rt.compile(&combine_module()).unwrap(),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        }
    }
}

struct RunOutcome {
    data: Vec<Vec<f64>>,
    elapsed: f64,
    stats: FaultStats,
    failures: Vec<LaunchFailure>,
}

/// Runs the op sequence on a fresh runtime under the given fault plan (or
/// none — the plan is always set explicitly so `DIFFUSE_FAULTS` in the
/// environment cannot leak into a baseline run).
fn run_program(
    ops: &[Op],
    gpus: u64,
    n: u64,
    executor: ExecutorKind,
    backend: BackendKind,
    plan: Option<FaultPlan>,
    recovery: RecoveryPolicy,
) -> RunOutcome {
    let mut config = RuntimeConfig::functional(MachineConfig::with_gpus(gpus as usize))
        .with_executor(executor)
        .with_backend(backend)
        .with_recovery(recovery);
    config.fault_plan = plan;
    let mut rt = Runtime::new(config);
    let regions: Vec<runtime::RegionId> = (0..REGIONS)
        .map(|i| rt.allocate_region(vec![n], format!("r{i}")))
        .collect();
    for (i, &r) in regions.iter().enumerate() {
        rt.write_region_data(r, (0..n).map(|j| (i as f64) + (j as f64) * 0.01).collect())
            .unwrap();
    }
    let launches: Vec<TaskLaunch> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| launch_for(i, op, &regions, gpus, n, &rt))
        .collect();
    for launch in &launches {
        rt.execute(launch).unwrap();
    }
    // With recovery off the flush reports the first cone's root; the
    // per-launch records below carry the full picture.
    let _ = rt.flush_launches();
    let failures = rt.take_failures();
    let data = regions
        .iter()
        .map(|&r| rt.region_data(r).unwrap())
        .collect();
    RunOutcome {
        data,
        elapsed: rt.elapsed(),
        stats: rt.fault_stats(),
        failures,
    }
}

fn decode_ops(raw: &[(u64, u64, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(src_a, src_b, dst, kind)| Op {
            src_a,
            src_b,
            dst,
            accumulate: kind == 0,
        })
        .collect()
}

const MATRIX: [(ExecutorKind, BackendKind); 4] = [
    (ExecutorKind::Serial, BackendKind::Interp),
    (ExecutorKind::Serial, BackendKind::Simd),
    (ExecutorKind::WorkStealing { workers: Some(4) }, BackendKind::Interp),
    (ExecutorKind::WorkStealing { workers: Some(4) }, BackendKind::Simd),
];

/// Independent replay of the recovery-off outcome: walk the program in
/// order, key each launch exactly as the runtime does (fingerprint ×
/// per-fingerprint occurrence), abandon on the first fault of either runtime
/// site at attempt 0, and propagate poison along the same `DepTracker`
/// hazard edges the executors use. Returns `(name, kind)` pairs in program
/// order, kind ∈ {"faulted", "poisoned"}, plus the failed indices.
fn expected_failures(
    launches: &[TaskLaunch],
    plan: FaultPlan,
) -> (Vec<(String, &'static str)>, HashSet<usize>) {
    let mut tracker = DepTracker::new();
    let mut occurrence: HashMap<u64, u64> = HashMap::new();
    let mut failed_ids: HashSet<u64> = HashSet::new();
    let mut failed_idx: HashSet<usize> = HashSet::new();
    let mut out = Vec::new();
    for (i, launch) in launches.iter().enumerate() {
        let id = i as u64;
        let fp = launch.fingerprint();
        let occ = occurrence.entry(fp).or_insert(0);
        let key = mix(fp, *occ);
        *occ += 1;
        let accesses: Vec<AccessSummary> = launch
            .requirements
            .iter()
            .map(AccessSummary::from_requirement)
            .collect();
        let deps = tracker.record(id, &accesses);
        let faulted = plan.should_fault(FaultSite::RegionRead, key, 0)
            || plan.should_fault(FaultSite::Device, key, 0);
        if faulted {
            failed_ids.insert(id);
            failed_idx.insert(i);
            out.push((launch.name.clone(), "faulted"));
        } else if deps.iter().any(|d| failed_ids.contains(d)) {
            failed_ids.insert(id);
            failed_idx.insert(i);
            out.push((launch.name.clone(), "poisoned"));
        }
    }
    (out, failed_idx)
}

fn classify(failures: &[LaunchFailure]) -> Vec<(String, &'static str)> {
    failures
        .iter()
        .map(|f| {
            let kind = match &f.error {
                RuntimeError::Faulted(_) => "faulted",
                RuntimeError::Poisoned { .. } => "poisoned",
                other => panic!("unexpected failure class: {other}"),
            };
            (f.launch.clone(), kind)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Recovery on: every surviving output store is bitwise identical to the
    /// fault-free run, for any seeded fault schedule, under all executor ×
    /// backend combinations — and nothing is ever abandoned.
    #[test]
    fn recovery_restores_bitwise_fault_free_results(
        raw_ops in prop::collection::vec(
            (0u64..REGIONS, 0u64..REGIONS, 0u64..REGIONS, 0u64..4),
            2..10,
        ),
        gpus in 1u64..4,
        seed in 0u64..1000,
        rate_idx in 0usize..3,
    ) {
        let rate = [0.25, 0.6, 1.0][rate_idx];
        let ops = decode_ops(&raw_ops);
        let n = 8 * gpus;
        let recovery = RecoveryPolicy::default();
        let baseline = run_program(
            &ops, gpus, n, ExecutorKind::Serial, BackendKind::Interp, None, recovery,
        );
        prop_assert!(baseline.failures.is_empty());
        prop_assert_eq!(baseline.stats.faults_injected, 0);
        let plan = FaultPlan::new(seed, rate);
        let mut faulty_elapsed: Option<f64> = None;
        for (executor, backend) in MATRIX {
            let out = run_program(&ops, gpus, n, executor, backend, Some(plan), recovery);
            prop_assert_eq!(
                &baseline.data, &out.data,
                "{:?}/{:?} diverged under seed {} rate {}; ops: {:?}",
                executor, backend, seed, rate, ops
            );
            prop_assert!(out.failures.is_empty(), "recovery never loses a launch");
            prop_assert_eq!(out.stats.abandoned_launches, 0);
            if rate == 1.0 {
                prop_assert!(out.stats.faults_injected > 0, "rate 1.0 must inject");
            }
            // The schedule (and its recovery pricing) is executor- and
            // backend-invariant: simulated time agrees bit-for-bit.
            match faulty_elapsed {
                None => faulty_elapsed = Some(out.elapsed),
                Some(e) => prop_assert_eq!(e.to_bits(), out.elapsed.to_bits()),
            }
        }
    }

    /// Recovery off: exactly the injected launches and their dependence
    /// cones fail, and the surviving regions equal a fault-free run of the
    /// surviving subsequence (failed launches commit nothing).
    #[test]
    fn disabled_recovery_fails_exactly_the_injected_cone(
        raw_ops in prop::collection::vec(
            (0u64..REGIONS, 0u64..REGIONS, 0u64..REGIONS, 0u64..4),
            2..10,
        ),
        gpus in 1u64..4,
        seed in 0u64..1000,
    ) {
        let ops = decode_ops(&raw_ops);
        let n = 8 * gpus;
        let plan = FaultPlan::new(seed, 0.4);
        let recovery = RecoveryPolicy::disabled();

        // Replay the expected decision sequence once, from a reference
        // runtime's launches (fingerprints depend only on launch content).
        let ref_launches: Vec<TaskLaunch> = {
            let mut rt = Runtime::new(
                RuntimeConfig::functional(MachineConfig::with_gpus(gpus as usize)),
            );
            let regions: Vec<runtime::RegionId> = (0..REGIONS)
                .map(|i| rt.allocate_region(vec![n], format!("r{i}")))
                .collect();
            ops.iter()
                .enumerate()
                .map(|(i, op)| launch_for(i, op, &regions, gpus, n, &rt))
                .collect()
        };
        let (mut expected, failed_idx) = expected_failures(&ref_launches, plan);
        expected.sort();

        // The surviving subsequence, run fault-free, is the expected data.
        let surviving: Vec<Op> = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| !failed_idx.contains(i))
            .map(|(_, op)| op.clone())
            .collect();
        let survivors = run_program(
            &surviving, gpus, n, ExecutorKind::Serial, BackendKind::Interp,
            None, RecoveryPolicy::default(),
        );

        for (executor, backend) in MATRIX {
            let out = run_program(&ops, gpus, n, executor, backend, Some(plan), recovery);
            let mut actual = classify(&out.failures);
            actual.sort();
            prop_assert_eq!(
                &expected, &actual,
                "{:?}/{:?} failed a different set under seed {}; ops: {:?}",
                executor, backend, seed, ops
            );
            prop_assert_eq!(
                &survivors.data, &out.data,
                "{:?}/{:?}: a failed launch committed data (torn write?)",
                executor, backend
            );
            prop_assert_eq!(out.stats.abandoned_launches, expected
                .iter()
                .filter(|(_, k)| *k == "faulted")
                .count() as u64);
            prop_assert_eq!(out.stats.retries, 0, "disabled recovery never retries");
        }
    }
}

/// Deterministic pin for CI: a fixed chain + independent op at rate 1.0
/// injects on every launch, recovery repairs everything, and the recovery
/// cost is visible on the simulated clock.
#[test]
fn saturated_schedule_recovers_with_measured_cost() {
    let ops = vec![
        Op { src_a: 0, src_b: 0, dst: 1, accumulate: false },
        Op { src_a: 1, src_b: 1, dst: 2, accumulate: false },
        Op { src_a: 2, src_b: 2, dst: 3, accumulate: true },
        Op { src_a: 0, src_b: 4, dst: 5, accumulate: false },
    ];
    let (gpus, n) = (2u64, 32u64);
    let recovery = RecoveryPolicy::default();
    let baseline = run_program(
        &ops, gpus, n, ExecutorKind::Serial, BackendKind::Interp, None, recovery,
    );
    let plan = FaultPlan::new(2024, 1.0);
    for (executor, backend) in MATRIX {
        let out = run_program(&ops, gpus, n, executor, backend, Some(plan), recovery);
        assert_eq!(baseline.data, out.data, "{executor:?}/{backend:?}");
        assert!(out.stats.faults_injected > 0);
        assert!(out.stats.retries > 0);
        assert_eq!(out.stats.abandoned_launches, 0);
        assert!(out.stats.recovery_sim_time > 0.0);
        assert!(
            out.elapsed > baseline.elapsed,
            "recovery is priced on the simulated clock, not free"
        );
    }
}

/// Honors `DIFFUSE_FAULTS` when the harness (CI's `faults` job) sets it:
/// the env-selected schedule must satisfy the same headline invariant.
#[test]
fn env_selected_schedule_matches_fault_free() {
    let Some(plan) = FaultPlan::from_env() else {
        return;
    };
    let ops = vec![
        Op { src_a: 0, src_b: 1, dst: 2, accumulate: false },
        Op { src_a: 2, src_b: 0, dst: 3, accumulate: false },
        Op { src_a: 3, src_b: 3, dst: 4, accumulate: true },
        Op { src_a: 1, src_b: 1, dst: 5, accumulate: false },
    ];
    let (gpus, n) = (3u64, 24u64);
    let recovery = RecoveryPolicy::default();
    let baseline = run_program(
        &ops, gpus, n, ExecutorKind::Serial, BackendKind::Interp, None, recovery,
    );
    for (executor, backend) in MATRIX {
        let out = run_program(&ops, gpus, n, executor, backend, Some(plan), recovery);
        assert_eq!(
            baseline.data, out.data,
            "{executor:?}/{backend:?} diverged under DIFFUSE_FAULTS={}:{}",
            plan.seed(),
            plan.rate()
        );
        assert!(out.failures.is_empty());
    }
}
