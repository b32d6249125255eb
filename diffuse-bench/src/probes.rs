//! Direct probes of layer public functions — the only file that calls below
//! the library APIs. Every signature used here is part of the benchmark's
//! frozen surface (listed in README.md): a PR that changes one needs a
//! `benchmark` PR first.
//!
//! Each probe runs on a [`Sketch`] of the workload's dominant fused window:
//! the same task count, privileges, partitions, tile shape and GPU count
//! the workload submits, rebuilt here from public constructors. The kernel
//! probes run the composed module of that window over plain buffers of one
//! GPU's tile.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fusion::{find_fusible_prefix, CanonicalWindow, MemoCache};
use ir::{
    Domain, IndexTask, Partition, PartitionId, Privilege, Projection, Rect, ReductionOp, ShapeId,
    StoreArg, StoreId, TaskId, TaskWindow,
};
use kernel::{
    BackendKind, BufferId, BufferRole, KernelModule, LoopBuilder, Pipeline, ReduceOp, ValueId,
};
use runtime::{Region, RegionId};

use crate::program::{Op, Program};
use crate::run::Metric;
use crate::stats::quiet;
use crate::workloads::Inputs;

/// One kernel argument of the sketched window: a store seen through a
/// partition, with the tile length one GPU's point task gets.
struct View {
    store: StoreId,
    shape: ShapeId,
    partition: PartitionId,
    tile_len: usize,
}

/// A task window and the kernel module composed from it, built side by side.
pub struct Sketch {
    gpus: u64,
    views: Vec<View>,
    next_store: u64,
    kinds: Vec<&'static str>,
    pub tasks: Vec<IndexTask>,
    /// The composed (not yet optimised) module: one loop per task.
    pub module: KernelModule,
    pub scalars: Vec<f64>,
    /// Contents for the module's buffers, one GPU's tile each.
    pub buffers: Vec<Vec<f64>>,
    /// The region shape and the tile rectangle the runtime copies per
    /// argument (for the copy probe).
    pub region_shape: Vec<u64>,
    pub tile: Rect,
}

type Body<'a> = &'a dyn Fn(&mut LoopBuilder, &[ValueId], &[ValueId]) -> ValueId;

impl Sketch {
    fn new(gpus: u64, region_shape: Vec<u64>, tile: Rect) -> Sketch {
        Sketch {
            gpus,
            views: Vec::new(),
            next_store: 0,
            kinds: Vec::new(),
            tasks: Vec::new(),
            module: KernelModule::new(0),
            scalars: Vec::new(),
            buffers: Vec::new(),
            region_shape,
            tile,
        }
    }

    fn store(&mut self) -> StoreId {
        self.next_store += 1;
        StoreId(self.next_store - 1)
    }

    /// Adds a kernel argument: `store` through `partition`, `fill`ed.
    fn view(
        &mut self,
        store: StoreId,
        shape: &[u64],
        partition: Partition,
        role: BufferRole,
        fill: Vec<f64>,
    ) -> usize {
        self.views.push(View {
            store,
            shape: ShapeId::intern(shape),
            partition: PartitionId::intern(&partition),
            tile_len: fill.len(),
        });
        let id = self.module.add_local();
        self.module.set_role(id, role);
        self.buffers.push(fill);
        self.views.len() - 1
    }

    /// A fresh 1-D block-partitioned array of `n` elements.
    fn vector(&mut self, n: usize, role: BufferRole, fill: Vec<f64>) -> usize {
        let store = self.store();
        let tile = (n as u64).div_ceil(self.gpus).max(1);
        debug_assert_eq!(fill.len() as u64, tile);
        self.view(store, &[n as u64], Partition::block(vec![tile]), role, fill)
    }

    /// A fresh replicated scalar store (a reduction target or a broadcast).
    fn scalar_store(&mut self, role: BufferRole, value: f64) -> usize {
        let store = self.store();
        self.view(store, &[1], Partition::Replicate, role, vec![value])
    }

    /// Appends one task — reading `reads`, then writing (or sum-reducing
    /// into) `out` — and the loop that is its kernel body.
    fn task(
        &mut self,
        name: &'static str,
        reads: &[usize],
        scalars: &[f64],
        out: usize,
        reduce: bool,
        body: Body,
    ) {
        let kind = match self.kinds.iter().position(|k| *k == name) {
            Some(k) => k,
            None => {
                self.kinds.push(name);
                self.kinds.len() - 1
            }
        } as u32
            | 1 << 16;
        let arg = |v: &View, privilege| {
            StoreArg::new(v.store, v.partition, privilege).with_shape(v.shape)
        };
        let mut args: Vec<StoreArg> = reads
            .iter()
            .map(|&r| arg(&self.views[r], Privilege::Read))
            .collect();
        args.push(arg(
            &self.views[out],
            if reduce {
                Privilege::Reduce(ReductionOp::Sum)
            } else {
                Privilege::Write
            },
        ));
        self.tasks.push(IndexTask::new(
            TaskId(self.tasks.len() as u64),
            kind,
            name,
            Domain::linear(self.gpus),
            args,
            scalars.to_vec(),
        ));

        let domain = if reduce { reads[0] } else { out };
        let mut b = LoopBuilder::new(name, BufferId(domain as u32));
        let loads: Vec<ValueId> = reads
            .iter()
            .map(|&r| {
                if self.views[r].tile_len == 1 && self.views[domain].tile_len != 1 {
                    b.load_scalar(BufferId(r as u32))
                } else {
                    b.load(BufferId(r as u32))
                }
            })
            .collect();
        let params: Vec<ValueId> = (0..scalars.len())
            .map(|k| b.param(self.scalars.len() + k))
            .collect();
        let value = body(&mut b, &loads, &params);
        if reduce {
            b.reduce(BufferId(out as u32), ReduceOp::Sum, value);
        } else {
            b.store(BufferId(out as u32), value);
        }
        self.module.push_loop(b.finish());
        self.scalars.extend_from_slice(scalars);
    }

    fn lens(&self) -> Vec<usize> {
        self.views.iter().map(|v| v.tile_len).collect()
    }

    /// The window of a [`Program`] issued on `n`-element arrays, followed by
    /// one `sum` per output — `bs_stream`, `scale128_sim` and `churn_cold`.
    fn of_program(program: &Program, arrays: &[Vec<f64>; 3], gpus: usize) -> Sketch {
        let n = arrays[0].len();
        let tile = n.div_ceil(gpus).max(1);
        let mut s = Sketch::new(
            gpus as u64,
            vec![n as u64],
            Rect::new(vec![0], vec![tile as i64]),
        );
        let mut regs: Vec<usize> = arrays
            .iter()
            .map(|a| s.vector(n, BufferRole::Input, a[..tile].to_vec()))
            .collect();
        for op in &program.ops {
            // Every array a program makes is dropped before the read-back
            // (only the sums are read), so all of them are temporaries.
            let out = s.vector(n, BufferRole::Local, vec![0.0; tile]);
            let (a, b) = op.operands();
            let reads: Vec<usize> = [Some(a), b]
                .into_iter()
                .flatten()
                .map(|r| regs[r])
                .collect();
            let scalars: Vec<f64> = op.scalar().into_iter().collect();
            let op = *op;
            s.task(
                op_name(&op),
                &reads,
                &scalars,
                out,
                false,
                &move |b, x, c| emit(&op, b, x, c),
            );
            regs.push(out);
        }
        for &o in &program.outputs {
            let total = s.scalar_store(BufferRole::Reduction, 0.0);
            s.task("sum", &[regs[o]], &[], total, true, &|_, x, _| x[0]);
        }
        s
    }

    /// One `heat_xlib` time step: the 5-point star over five shifted views
    /// of the current grid, the dense subtraction of the two interiors, and
    /// the sum of squares. (Consecutive steps do not fuse with each other:
    /// the next star reads shifted views of what this one wrote.)
    fn of_heat(n: usize, grid: &[f64], gpus: usize) -> Sketch {
        let (m, rows) = ((n + 2) as u64, (n / gpus).max(1));
        let tile_rect = Rect::new(vec![1, 1], vec![1 + rows as i64, 1 + n as i64]);
        let mut s = Sketch::new(gpus as u64, vec![m, m], tile_rect);
        let (cur, next) = (s.store(), s.store());
        let view = |offset: [i64; 2]| {
            Partition::tiling(
                vec![rows as u64, n as u64],
                offset.to_vec(),
                Projection::PadZeros { rank: 2 },
            )
        };
        let tile_of = |offset: [i64; 2]| -> Vec<f64> {
            (0..rows)
                .flat_map(|r| (0..n).map(move |c| (r as i64 + offset[0], c as i64 + offset[1])))
                .map(|(r, c)| grid[r as usize * m as usize + c as usize])
                .collect()
        };
        let offsets = [[1, 1], [0, 1], [2, 1], [1, 0], [1, 2]];
        let reads: Vec<usize> = offsets
            .iter()
            .map(|&o| s.view(cur, &[m, m], view(o), BufferRole::Input, tile_of(o)))
            .collect();
        let out = s.view(
            next,
            &[m, m],
            view([1, 1]),
            BufferRole::Output,
            vec![0.0; rows * n],
        );
        let c = crate::reference::HEAT_ALPHA;
        s.task(
            "star5",
            &reads,
            &[1.0 - 4.0 * c, c, c, c, c],
            out,
            false,
            &|b, x, k| {
                let mut acc = b.mul(k[0], x[0]);
                for i in 1..5 {
                    let term = b.mul(k[i], x[i]);
                    acc = b.add(acc, term);
                }
                acc
            },
        );
        let change_store = s.store();
        let change = s.view(
            change_store,
            &[n as u64, n as u64],
            Partition::tiling(
                vec![rows as u64, n as u64],
                vec![0, 0],
                Projection::PadZeros { rank: 2 },
            ),
            BufferRole::Local,
            vec![0.0; rows * n],
        );
        s.task("sub", &[out, reads[0]], &[], change, false, &|b, x, _| {
            b.sub(x[0], x[1])
        });
        let energy = s.scalar_store(BufferRole::Reduction, 0.0);
        s.task("sum_sq", &[change], &[], energy, true, &|b, x, _| {
            b.mul(x[0], x[0])
        });
        s
    }

    /// The vector-update window of one `cg_small` iteration:
    /// `x' = x + αp`, `r' = r − αq`, `rs = r'·r'`, with `α` a replicated
    /// scalar store. (The SpMV before it and the scalar divisions around it
    /// are windows of their own.)
    fn of_cg(grid: usize, b: &[f64], gpus: usize) -> Sketch {
        let n = grid * grid;
        let tile = n.div_ceil(gpus).max(1);
        let mut s = Sketch::new(
            gpus as u64,
            vec![n as u64],
            Rect::new(vec![0], vec![tile as i64]),
        );
        let input = |s: &mut Sketch| s.vector(n, BufferRole::Input, b[..tile].to_vec());
        let (x, r, p, q) = (input(&mut s), input(&mut s), input(&mut s), input(&mut s));
        let alpha = s.scalar_store(BufferRole::Input, 1e-3);
        let x2 = s.vector(n, BufferRole::Output, vec![0.0; tile]);
        let r2 = s.vector(n, BufferRole::Output, vec![0.0; tile]);
        let rs = s.scalar_store(BufferRole::Reduction, 0.0);
        let axpy: Body = &|b, v, k| {
            let scaled = b.mul(v[2], v[1]);
            let signed = b.mul(k[0], scaled);
            b.add(v[0], signed)
        };
        s.task("axpy", &[x, p, alpha], &[1.0], x2, false, axpy);
        s.task("axpy", &[r, q, alpha], &[-1.0], r2, false, axpy);
        s.task("dot", &[r2, r2], &[], rs, true, &|b, v, _| {
            b.mul(v[0], v[1])
        });
        s
    }

    /// The sketch of a workload's dominant window at `gpus` GPUs.
    pub fn of(inputs: &Inputs, gpus: usize) -> Sketch {
        match inputs {
            Inputs::Options { arrays, .. } => {
                Sketch::of_program(&Program::black_scholes(), arrays, gpus)
            }
            // The median-length program of the pool stands for it.
            Inputs::Churn {
                arrays, programs, ..
            } => {
                let mut by_len: Vec<&Program> = programs.iter().collect();
                by_len.sort_by_key(|p| p.ops.len());
                Sketch::of_program(by_len[by_len.len() / 2], arrays, gpus)
            }
            Inputs::Heat { n, grid } => Sketch::of_heat(*n, grid, gpus),
            Inputs::Cg { grid, b, .. } => Sketch::of_cg(*grid, b, gpus),
        }
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Add(..) => "add",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::Div(..) => "div",
        Op::Max(..) => "maximum",
        Op::Min(..) => "minimum",
        Op::Sqrt(_) => "sqrt",
        Op::Exp(_) => "exp",
        Op::Ln(_) => "log",
        Op::Erf(_) => "erf",
        Op::Neg(_) => "negative",
        Op::Abs(_) => "absolute",
        Op::ScalarMul(..) => "scalar_mul",
        Op::ScalarAdd(..) => "scalar_add",
        Op::ScalarSub(..) => "scalar_sub",
        Op::ScalarRsub(..) => "scalar_rsub",
    }
}

fn emit(op: &Op, b: &mut LoopBuilder, x: &[ValueId], c: &[ValueId]) -> ValueId {
    match op {
        Op::Add(..) => b.add(x[0], x[1]),
        Op::Sub(..) => b.sub(x[0], x[1]),
        Op::Mul(..) => b.mul(x[0], x[1]),
        Op::Div(..) => b.div(x[0], x[1]),
        Op::Max(..) => b.max(x[0], x[1]),
        Op::Min(..) => b.min(x[0], x[1]),
        Op::Sqrt(_) => b.sqrt(x[0]),
        Op::Exp(_) => b.exp(x[0]),
        Op::Ln(_) => b.ln(x[0]),
        Op::Erf(_) => b.erf(x[0]),
        Op::Neg(_) => b.neg(x[0]),
        Op::Abs(_) => b.abs(x[0]),
        Op::ScalarMul(..) => b.mul(x[0], c[0]),
        Op::ScalarAdd(..) => b.add(x[0], c[0]),
        Op::ScalarSub(..) => b.sub(x[0], c[0]),
        Op::ScalarRsub(..) => b.sub(c[0], x[0]),
    }
}

/// A chain of `loops` dependent elementwise loops through local buffers,
/// for the pipeline's growth with window length.
fn chain_module(loops: usize, len: usize) -> (KernelModule, Vec<usize>) {
    let mut m = KernelModule::new(1);
    let mut prev = BufferId(0);
    for i in 0..loops {
        let out = m.add_local();
        if i + 1 == loops {
            m.set_role(out, BufferRole::Output);
        }
        let mut b = LoopBuilder::new("scalar_add", out);
        let x = b.load(prev);
        let c = b.param(i);
        let v = b.add(x, c);
        b.store(out, v);
        m.push_loop(b.finish());
        prev = out;
    }
    let lens = vec![len; m.num_buffers() as usize];
    (m, lens)
}

/// Times `f` in batches for at least `budget`: the quiet quartile over
/// batches of the mean nanoseconds per call, and the number of calls made.
pub fn time_ns(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    // About sixteen batches fill the budget.
    let per_batch = ((budget.as_secs_f64() / 16.0 / once) as usize).clamp(1, 1 << 24);
    let mut batch_ns = Vec::new();
    let start = Instant::now();
    while batch_ns.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batch_ns.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    (quiet(&batch_ns), batch_ns.len() * per_batch)
}

/// Runs every direct probe on the sketch; `budget` per probe.
pub fn run(sketch: &Sketch, budget: Duration) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut metric = |name, unit, (ns, calls): (f64, usize), scale: f64| {
        out.push(Metric::new(name, ns * scale, unit, calls));
    };
    let tasks = &sketch.tasks;
    let per_task = 1.0 / tasks.len() as f64;

    // ir: building the window, folding the rolling fingerprint.
    metric(
        "ir.window_push_ns_per_task",
        "ns",
        time_ns(budget, || {
            let mut w = TaskWindow::new();
            for t in tasks {
                w.push(t.clone());
            }
            black_box(w.fingerprint());
        }),
        per_task,
    );
    // fusion: the fusible-prefix search, canonicalisation, a memo hit.
    metric(
        "fusion.prefix_ns_per_task",
        "ns",
        time_ns(budget, || {
            black_box(find_fusible_prefix(tasks));
        }),
        per_task,
    );
    metric(
        "fusion.canonicalize_ns_per_task",
        "ns",
        time_ns(budget, || drop(black_box(CanonicalWindow::new(tasks)))),
        per_task,
    );
    let mut memo: MemoCache<u32> = MemoCache::new();
    memo.insert(CanonicalWindow::new(tasks), 0);
    let mut window = TaskWindow::new();
    for t in tasks {
        window.push(t.clone());
    }
    metric(
        "fusion.memo_probe_ns",
        "ns",
        time_ns(budget, || {
            black_box(memo.probe(&window));
        }),
        1.0,
    );

    // kernel: optimisation pipeline, backend compile, execution.
    let lens = sketch.lens();
    metric(
        "kernel.pipeline_us",
        "us",
        time_ns(budget, || {
            drop(black_box(
                Pipeline::default().run(sketch.module.clone(), &lens),
            ))
        }),
        1e-3,
    );
    let grow = |loops| {
        let (m, lens) = chain_module(loops, 1 << 10);
        time_ns(budget / 2, || {
            drop(black_box(Pipeline::default().run(m.clone(), &lens)))
        })
    };
    let (short, long) = (grow(16), grow(64));
    metric(
        "kernel.pipeline_growth",
        "ratio",
        (long.0 / short.0, long.1),
        1.0,
    );

    let fused = Pipeline::default().run(sketch.module.clone(), &lens).module;
    let simd = BackendKind::Simd.backend();
    metric(
        "kernel.compile_us",
        "us",
        time_ns(budget, || drop(black_box(simd.compile(&fused)))),
        1e-3,
    );
    let elems = sketch.tile.volume() as f64;
    for (name, backend) in [
        ("kernel.exec_ns_per_elem", BackendKind::Simd),
        ("kernel.exec_ns_per_elem_interp", BackendKind::Interp),
    ] {
        let compiled = backend
            .backend()
            .compile(&fused)
            .expect("the sketched module is well formed");
        let mut buffers = sketch.buffers.clone();
        metric(
            name,
            "ns",
            time_ns(budget, || {
                compiled
                    .execute(&mut buffers, &sketch.scalars)
                    .expect("the sketched module executes");
            }),
            1.0 / elems,
        );
    }

    // runtime: one argument's copy-in plus copy-out around a kernel stage.
    let mut region = Region::new(RegionId(0), sketch.region_shape.clone(), "probe", true);
    metric(
        "runtime.copy_ns_per_elem",
        "ns",
        time_ns(budget, || {
            let tile = region.read_rect(&sketch.tile);
            region.write_rect(&sketch.tile, &tile);
        }),
        1.0 / elems,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::workloads::{Kind, Sizes};

    fn sketch(kind: Kind) -> (Inputs, Sketch) {
        let inputs = Inputs::generate(kind, Sizes::smoke(), 3);
        let sketch = Sketch::of(&inputs, kind.gpus());
        (inputs, sketch)
    }

    #[test]
    fn sketched_windows_have_the_workloads_shape() {
        for (kind, tasks) in [
            (Kind::BsStream, 37),
            (Kind::Scale128Sim, 37),
            (Kind::HeatXlib, 3),
            (Kind::CgSmall, 3),
        ] {
            let (_, s) = sketch(kind);
            assert_eq!(s.tasks.len(), tasks, "{}", kind.name());
            assert_eq!(s.module.num_stages(), tasks);
            assert!(s
                .tasks
                .iter()
                .all(|t| t.launch_domain.size() == kind.gpus() as u64));
            // The whole sketched window is one fusible prefix.
            assert_eq!(find_fusible_prefix(&s.tasks), tasks, "{}", kind.name());
        }
        let (_, churn) = sketch(Kind::ChurnCold);
        assert!((17..=49).contains(&churn.tasks.len()));
    }

    #[test]
    fn sketched_black_scholes_module_computes_the_closed_form() {
        let (inputs, s) = sketch(Kind::BsStream);
        let Inputs::Options { arrays, .. } = &inputs else {
            unreachable!()
        };
        let fused = Pipeline::default().run(s.module.clone(), &s.lens()).module;
        assert!(
            fused.num_stages() < s.module.num_stages(),
            "the pipeline must fuse loops"
        );
        for backend in [BackendKind::Simd, BackendKind::Interp] {
            let mut buffers = s.buffers.clone();
            backend
                .backend()
                .compile(&fused)
                .unwrap()
                .execute(&mut buffers, &s.scalars)
                .unwrap();
            let tile = s.tile.volume() as usize;
            let (call, put) = reference::black_scholes_sums(
                &arrays[0][..tile],
                &arrays[1][..tile],
                &arrays[2][..tile],
            );
            let n = buffers.len();
            assert!(reference::close(
                buffers[n - 2][0],
                call,
                call,
                reference::TOL_ERF
            ));
            assert!(reference::close(
                buffers[n - 1][0],
                put,
                put,
                reference::TOL_ERF
            ));
        }
    }

    #[test]
    fn sketched_heat_module_matches_the_reference_step() {
        let (inputs, s) = sketch(Kind::HeatXlib);
        let Inputs::Heat { n, grid } = &inputs else {
            unreachable!()
        };
        let fused = Pipeline::default().run(s.module.clone(), &s.lens()).module;
        let mut buffers = s.buffers.clone();
        BackendKind::Simd
            .backend()
            .compile(&fused)
            .unwrap()
            .execute(&mut buffers, &s.scalars)
            .unwrap();
        // One GPU's tile is the first rows of the interior.
        let (rows, m) = (n / Kind::HeatXlib.gpus(), n + 2);
        let mut reference = reference::HeatReference::new(*n, grid.clone());
        reference.step();
        let mut energy = 0.0;
        for r in 1..=rows {
            for c in 1..=*n {
                let (new, old) = (reference.grid()[r * m + c], grid[r * m + c]);
                assert_eq!(
                    buffers[5][(r - 1) * n + c - 1],
                    new,
                    "star output at ({r}, {c})"
                );
                energy += (new - old) * (new - old);
            }
        }
        let got = buffers.last().unwrap()[0];
        assert!(
            energy > 0.0 && reference::close(got, energy, energy, reference::TOL_SUM),
            "{got} vs {energy}"
        );
    }

    #[test]
    fn timing_helper_counts_calls() {
        let mut calls = 0usize;
        let (ns, counted) = time_ns(Duration::from_millis(5), || calls += 1);
        assert!(ns > 0.0 && counted > 0);
        // Two calibration calls precede the counted batches.
        assert_eq!(calls, counted + 2);
    }
}
