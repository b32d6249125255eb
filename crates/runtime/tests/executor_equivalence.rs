//! Executor and backend equivalence: every (executor, kernel backend)
//! combination must produce exactly the region contents the serial
//! interpreter baseline produces, for any program.
//!
//! The property test drives all six combinations (no workers, one worker or
//! four × interp/simd) with the same randomly generated launch DAG — launches
//! pick random source/destination regions, so the generated programs contain
//! every hazard class (RAW chains, WAR, WAW, concurrent readers, aliasing
//! read+write of one region) at random widths. Determinism holds because
//! conflicting launches retain program order and each launch's arithmetic is
//! itself deterministic (backends evaluate ops through the same resolved
//! functions), so the comparison is exact (`==` on `f64` buffers, no
//! tolerance). Simulated time must also be invariant across the whole
//! matrix — accounting is eager and priced from the module, never from the
//! backend artifact.

use ir::{Domain, Partition, Privilege};
use kernel::{BackendKind, BufferId, BufferRole, KernelModule, LoopBuilder};
use machine::MachineConfig;
use proptest::prelude::*;
use runtime::{
    ExecutorKind, OverheadClass, RegionRequirement, Runtime, RuntimeConfig, TaskLaunch,
};

const REGIONS: u64 = 6;

/// One randomly generated operation: `dst = src_a <op> src_b` elementwise,
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

/// dst[i] = dst[i] + a[i]
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

fn launch_for(op: &Op, regions: &[runtime::RegionId], gpus: u64, n: u64, rt: &Runtime) -> TaskLaunch {
    let block = Partition::block(vec![n.div_ceil(gpus)]);
    if op.accumulate {
        TaskLaunch {
            name: "accumulate".into(),
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
            name: "combine".into(),
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

/// Runs the op sequence on a fresh runtime and returns every region's final
/// contents plus the simulated time.
fn run_program(
    ops: &[Op],
    gpus: u64,
    n: u64,
    executor: ExecutorKind,
    backend: BackendKind,
) -> (Vec<Vec<f64>>, f64) {
    let config = RuntimeConfig::functional(MachineConfig::with_gpus(gpus as usize))
        .with_executor(executor)
        .with_backend(backend);
    let mut rt = Runtime::new(config);
    let regions: Vec<runtime::RegionId> = (0..REGIONS)
        .map(|i| rt.allocate_region(vec![n], format!("r{i}")))
        .collect();
    for (i, &r) in regions.iter().enumerate() {
        // Distinct, position-dependent initial contents.
        rt.write_region_data(r, (0..n).map(|j| (i as f64) + (j as f64) * 0.01).collect())
            .unwrap();
    }
    let launches: Vec<TaskLaunch> = ops
        .iter()
        .map(|op| launch_for(op, &regions, gpus, n, &rt))
        .collect();
    for launch in &launches {
        rt.execute(launch).unwrap();
    }
    rt.flush_launches().unwrap();
    let data = regions
        .iter()
        .map(|&r| rt.region_data(r).unwrap())
        .collect();
    (data, rt.elapsed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random launch DAGs produce identical region contents (and identical
    /// simulated time) under every executor × backend combination.
    #[test]
    fn random_dags_are_executor_and_backend_invariant(
        raw_ops in prop::collection::vec(
            (0u64..REGIONS, 0u64..REGIONS, 0u64..REGIONS, 0u64..4),
            2..16,
        ),
        gpus in 1u64..5,
    ) {
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&(src_a, src_b, dst, kind)| Op {
                src_a,
                src_b,
                dst,
                accumulate: kind == 0,
            })
            .collect();
        let n = 16 * gpus;
        let (baseline, baseline_time) =
            run_program(&ops, gpus, n, ExecutorKind::Serial, BackendKind::Interp);
        for backend in [BackendKind::Interp, BackendKind::Simd] {
            // No workers, one (no sibling to steal from) and four.
            for executor in [
                ExecutorKind::Serial,
                ExecutorKind::WorkStealing { workers: Some(1) },
                ExecutorKind::WorkStealing { workers: Some(4) },
            ] {
                let (data, time) = run_program(&ops, gpus, n, executor, backend);
                prop_assert_eq!(
                    &baseline, &data,
                    "{:?}/{:?} diverged; ops: {:?}", executor, backend, ops
                );
                prop_assert_eq!(baseline_time, time);
            }
        }
    }
}

/// Write-after-read ordering on a shared region: a slow reader of `shared`
/// must finish before a later launch overwrites `shared`, even though the
/// overwriting launch is much cheaper and would finish first if the executor
/// ignored the WAR hazard.
#[test]
fn write_after_read_on_a_shared_region_retains_program_order() {
    let gpus = 2u64;
    let n = 1u64 << 15;
    for trial in 0..5 {
        let config = RuntimeConfig::functional(MachineConfig::with_gpus(gpus as usize))
            .with_executor(ExecutorKind::WorkStealing { workers: Some(4) });
        let mut rt = Runtime::new(config);
        let shared = rt.allocate_region(vec![n], "shared");
        let copy = rt.allocate_region(vec![n], "copy");
        let two = rt.allocate_region(vec![n], "two");
        rt.fill(shared, 1.0).unwrap();
        rt.fill(two, 2.0).unwrap();
        let block = Partition::block(vec![n / gpus]);

        // Launch 1 (slow): copy[i] = shared[i] * 0.5 + shared[i] over a large n.
        let reader = TaskLaunch {
            name: "slow_reader".into(),
            launch_domain: Domain::linear(gpus),
            requirements: vec![
                RegionRequirement::new(shared, block.clone(), Privilege::Read),
                RegionRequirement::new(shared, block.clone(), Privilege::Read),
                RegionRequirement::new(copy, block.clone(), Privilege::Write),
            ],
            kernel: rt.compile(&combine_module()).unwrap(),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        };
        // Launch 2 (fast): shared[i] = two[i] * 0.5 + two[i]  (= 3.0).
        let writer = TaskLaunch {
            name: "fast_writer".into(),
            launch_domain: Domain::linear(gpus),
            requirements: vec![
                RegionRequirement::new(two, block.clone(), Privilege::Read),
                RegionRequirement::new(two, block.clone(), Privilege::Read),
                RegionRequirement::new(shared, block, Privilege::Write),
            ],
            kernel: rt.compile(&combine_module()).unwrap(),
            scalars: vec![],
            local_buffer_lens: vec![],
            overhead: OverheadClass::TaskRuntime,
        };
        rt.execute(&reader).unwrap();
        rt.execute(&writer).unwrap();
        rt.flush_launches().unwrap();
        // The reader saw shared == 1.0 everywhere: copy = 1*0.5 + 1 = 1.5.
        assert_eq!(
            rt.region_data(copy).unwrap(),
            vec![1.5; n as usize],
            "trial {trial}: WAR hazard reordered"
        );
        // The writer then replaced shared with 3.0.
        assert_eq!(rt.region_data(shared).unwrap(), vec![3.0; n as usize]);
    }
}

/// Read-after-write chains stay ordered through several hops, under every
/// backend.
#[test]
fn raw_chain_retains_program_order() {
    let gpus = 4u64;
    let n = 64u64;
    let ops = vec![
        Op { src_a: 0, src_b: 0, dst: 1, accumulate: false }, // r1 = f(r0)
        Op { src_a: 1, src_b: 1, dst: 2, accumulate: false }, // r2 = f(r1)
        Op { src_a: 2, src_b: 2, dst: 3, accumulate: false }, // r3 = f(r2)
        Op { src_a: 3, src_b: 3, dst: 4, accumulate: true },  // r4 += r3
    ];
    let (serial, _) = run_program(&ops, gpus, n, ExecutorKind::Serial, BackendKind::Interp);
    for backend in [BackendKind::Interp, BackendKind::Simd] {
        let (parallel, _) = run_program(
            &ops,
            gpus,
            n,
            ExecutorKind::WorkStealing { workers: Some(4) },
            backend,
        );
        assert_eq!(serial, parallel, "{backend:?}");
    }
}
