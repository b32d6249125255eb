//! The five workloads, written against the public `dense` / `sparse` /
//! `stencil` APIs exactly as a user program would be.
//!
//! An *op* is the unit every timing is taken over: the library calls that
//! build one unit of work, ending at the sync point a real program has (a
//! scalar or array read-back; a `flush()` where the run is simulation-only).
//! [`Workload::run`] is the timed part; [`Workload::check`] holds the result
//! against `reference.rs` afterwards, outside the timer.

use std::rc::Rc;

use dense::{DArray, DenseContext};
use diffuse::{AnalyzeMode, BackendKind, Context, DiffuseConfig, ExecutorKind, StoreHandle};
use machine::MachineConfig;
use sparse::{CsrMatrix, SparseContext};
use stencil::StencilContext;

use crate::program::Program;
use crate::reference::{self, HeatReference};
use crate::rng::Rng;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BsStream,
    HeatXlib,
    CgSmall,
    Scale128Sim,
    ChurnCold,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::BsStream,
        Kind::HeatXlib,
        Kind::CgSmall,
        Kind::Scale128Sim,
        Kind::ChurnCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BsStream => "bs_stream",
            Kind::HeatXlib => "heat_xlib",
            Kind::CgSmall => "cg_small",
            Kind::Scale128Sim => "scale128_sim",
            Kind::ChurnCold => "churn_cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Simulated GPUs of the primary leg.
    pub fn gpus(self) -> usize {
        if self == Kind::Scale128Sim {
            128
        } else {
            8
        }
    }

    /// Whether the primary leg computes real data (only `scale128_sim` is
    /// simulation-only by design).
    pub fn functional(self) -> bool {
        self != Kind::Scale128Sim
    }
}

/// Problem sizes. `full` is what every reported number is measured at;
/// `smoke` is 1/64 of it — or the smallest size that still tiles over the
/// 128 simulated GPUs of the scale leg — for the unit-test pass over all
/// five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Options per simulated GPU in `bs_stream`.
    pub bs_per_gpu: usize,
    /// Interior edge of the `heat_xlib` grid.
    pub heat_n: usize,
    /// Grid edge of the `cg_small` Poisson problem (`rows = edge²`).
    pub cg_grid: usize,
    /// Options per simulated GPU in `scale128_sim`.
    pub scale_per_gpu: usize,
    /// Array length in `churn_cold`.
    pub churn_len: usize,
    /// Distinct programs `churn_cold` draws from: 4× the default
    /// `memo_capacity` of 1 024, so the memo is written and evicted.
    pub churn_pool: usize,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            bs_per_gpu: 1 << 15,
            heat_n: 512,
            cg_grid: 32,
            scale_per_gpu: 4096,
            churn_len: 512,
            churn_pool: 4096,
        }
    }

    pub const fn smoke() -> Sizes {
        Sizes {
            bs_per_gpu: 512,
            heat_n: 128,
            cg_grid: 16,
            scale_per_gpu: 64,
            churn_len: 128,
            churn_pool: 64,
        }
    }
}

/// Time steps per `heat_xlib` op.
pub const HEAT_STEPS: usize = 4;
/// `cg_small` reads its convergence scalar back every this many iterations.
pub const CG_CHECK_EVERY: usize = 10;
const CG_MAX_ITERS: usize = 1000;

/// Everything a run derives from `--seed`, generated once per process and
/// shared by every context built in it. The system receives only the
/// vectors, through `from_vec`.
#[derive(Debug)]
pub enum Inputs {
    Options {
        arrays: [Vec<f64>; 3],
        /// `[Σ call, Σ put]` by the closed form.
        expected: [f64; 2],
    },
    Heat {
        n: usize,
        grid: Vec<f64>,
    },
    Cg {
        grid: usize,
        b: Vec<f64>,
        /// Iterations a plain-Rust CG needs, rounded up to the check
        /// cadence; simulation-only legs (which cannot read the residual
        /// back) run this many.
        iters: usize,
    },
    Churn {
        arrays: [Vec<f64>; 3],
        programs: Vec<Program>,
        /// Per program: `(Σ output, Σ |output|)` by `reference::eval_program`.
        expected: Vec<(f64, f64)>,
        draw_seed: u64,
    },
}

impl Inputs {
    pub fn generate(kind: Kind, sizes: Sizes, seed: u64) -> Inputs {
        let mut rng = Rng::stream(seed, kind as u64);
        match kind {
            Kind::BsStream | Kind::Scale128Sim => {
                let per_gpu = if kind == Kind::BsStream {
                    sizes.bs_per_gpu
                } else {
                    sizes.scale_per_gpu
                };
                let n = per_gpu * kind.gpus();
                let arrays = [
                    rng.vec(n, 50.0, 150.0),
                    rng.vec(n, 50.0, 150.0),
                    rng.vec(n, 0.05, 2.05),
                ];
                let (call, put) = reference::black_scholes_sums(&arrays[0], &arrays[1], &arrays[2]);
                Inputs::Options {
                    arrays,
                    expected: [call, put],
                }
            }
            Kind::HeatXlib => {
                let n = sizes.heat_n;
                Inputs::Heat {
                    n,
                    grid: rng.vec((n + 2) * (n + 2), 0.0, 1.0),
                }
            }
            Kind::CgSmall => {
                let grid = sizes.cg_grid;
                let b = rng.vec(grid * grid, 0.5, 1.5);
                let iters = plain_cg_iterations(grid, &b).div_ceil(CG_CHECK_EVERY) * CG_CHECK_EVERY;
                Inputs::Cg { grid, b, iters }
            }
            Kind::ChurnCold => {
                let arrays = [0, 1, 2].map(|_| rng.vec(sizes.churn_len, 0.5, 1.5));
                let programs: Vec<Program> = (0..sizes.churn_pool)
                    .map(|_| {
                        let len = 16 + rng.below(33) as usize;
                        Program::random(&mut rng, len)
                    })
                    .collect();
                let views: Vec<&[f64]> = arrays.iter().map(Vec::as_slice).collect();
                let expected = programs
                    .iter()
                    .map(|p| {
                        let out = &reference::eval_program(p, &views)[0];
                        (out.iter().sum(), out.iter().map(|v| v.abs()).sum())
                    })
                    .collect();
                Inputs::Churn {
                    arrays,
                    programs,
                    expected,
                    draw_seed: rng.next_u64(),
                }
            }
        }
    }

    /// Owned copies of the vectors to upload. Taken before the set-up timer
    /// starts: a user hands over data they already own.
    pub fn uploads(&self) -> Vec<Vec<f64>> {
        match self {
            Inputs::Options { arrays, .. } | Inputs::Churn { arrays, .. } => arrays.to_vec(),
            Inputs::Heat { grid, .. } => vec![grid.clone(), grid.clone()],
            Inputs::Cg { b, .. } => vec![b.clone()],
        }
    }

    /// Array elements one op computes on (for ns-per-element figures);
    /// `cg_iters` is the measured iterations per solve.
    pub fn elements_per_op(&self, cg_iters: f64) -> f64 {
        match self {
            Inputs::Options { arrays, .. } | Inputs::Churn { arrays, .. } => arrays[0].len() as f64,
            Inputs::Heat { n, .. } => (HEAT_STEPS * n * n) as f64,
            Inputs::Cg { grid, .. } => cg_iters * (grid * grid) as f64,
        }
    }
}

/// Iterations of textbook CG until `‖r‖ ≤ CG_TOL ‖b‖`, in plain Rust.
fn plain_cg_iterations(grid: usize, b: &[f64]) -> usize {
    let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(x, y)| x * y).sum::<f64>();
    let (mut r, mut p) = (b.to_vec(), b.to_vec());
    let bb = dot(b, b);
    let mut rs = bb;
    for iter in 0..CG_MAX_ITERS {
        if rs <= reference::CG_TOL * reference::CG_TOL * bb {
            return iter;
        }
        let q = reference::poisson_apply(grid, &p);
        let alpha = rs / dot(&p, &q);
        for i in 0..r.len() {
            r[i] -= alpha * q[i];
        }
        let rs_new = dot(&r, &r);
        for i in 0..p.len() {
            p[i] = r[i] + rs_new / rs * p[i];
        }
        rs = rs_new;
    }
    CG_MAX_ITERS
}

/// One configuration of the system a workload's op stream is replayed on.
/// `Primary` is what the end-to-end metrics measure; the others differ from
/// it by exactly one public `DiffuseConfig` switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// `DiffuseConfig::fused` + simd backend + serial executor.
    Primary,
    /// `DiffuseConfig::unfused`.
    Unfused,
    /// `.simulation_only()`.
    SimOnly,
    /// `.without_memoization()`.
    NoMemo,
    /// Interpreter backend.
    Interp,
    /// Work-stealing executor, `min(nproc, 2)` workers.
    Parallel,
    /// Simulation-only at the given GPU count (the scale-freedom pair).
    SimAt(usize),
}

/// The pinned configuration of a leg. Nothing is read from `DIFFUSE_*`:
/// every switch those variables would default is set explicitly here.
pub fn config(kind: Kind, leg: Leg) -> DiffuseConfig {
    let gpus = match leg {
        Leg::SimAt(gpus) => gpus,
        _ => kind.gpus(),
    };
    let machine = MachineConfig::with_gpus(gpus);
    let mut cfg = if leg == Leg::Unfused {
        DiffuseConfig::unfused(machine)
    } else {
        DiffuseConfig::fused(machine)
    }
    .with_backend(if leg == Leg::Interp {
        BackendKind::Interp
    } else {
        BackendKind::Simd
    })
    .with_executor(if leg == Leg::Parallel {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        ExecutorKind::WorkStealing {
            workers: Some(nproc.min(2)),
        }
    } else {
        ExecutorKind::Serial
    })
    .with_verification(false)
    .with_horizontal_fusion(false)
    .with_analyze(AnalyzeMode::Declared);
    cfg.fault_plan = None;
    if leg == Leg::NoMemo {
        cfg = cfg.without_memoization();
    }
    if !kind.functional() || matches!(leg, Leg::SimOnly | Leg::SimAt(_)) {
        cfg = cfg.simulation_only();
    }
    cfg
}

/// What an op read back, for [`Workload::check`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Readback {
    pub values: Vec<f64>,
    /// Solver iterations the op ran (`cg_small`; 0 elsewhere).
    pub iters: usize,
}

/// What the harness saw the system do during one op: the simulated clock
/// (reset before every op, so this is the op's own simulated time, bit for
/// bit) and the task counters' increase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Observed {
    pub sim_s: f64,
    pub submitted: u64,
    pub launched: u64,
}

/// Ops run on a context before steady-state sampling starts.
pub const WARMUP_OPS: usize = 3;

pub trait Workload {
    /// The timed part of one op. `None` means the system returned no value
    /// where one was due — the op failed.
    fn run(&mut self, t: &mut Tracer) -> Option<Readback>;

    /// Holds what the op read back against the independent reference and
    /// advances any lock-step reference state.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    fn check(&mut self, got: &Readback, seen: &Observed) -> Result<(), String>;
}

/// A context with a workload set up on it, ready for its first op.
pub struct Built {
    pub ctx: Context,
    pub workload: Box<dyn Workload>,
}

/// Sets a workload up: context, library registration, input upload (and
/// matrix assembly), first flush. This whole function is `setup_s`.
/// `stream` picks which sequence of program draws `churn_cold` replays.
pub fn build(
    inputs: &Rc<Inputs>,
    uploads: Vec<Vec<f64>>,
    cfg: DiffuseConfig,
    stream: u64,
    t: &mut Tracer,
) -> Built {
    t.root("setup", |t| {
        let (functional, fusing) = (cfg.materialize_data, cfg.enable_task_fusion);
        let gpus = cfg.machine.total_gpus();
        let ctx = t.span("context_new", |_| Context::new(cfg));
        let np = t.span("register", |_| DenseContext::new(ctx.clone()));
        let mut uploads = uploads.into_iter();
        let mut upload = |shape: &[u64]| {
            np.from_vec(
                shape,
                uploads.next().expect("one vector per uploaded array"),
            )
        };
        let workload: Box<dyn Workload> = match &**inputs {
            Inputs::Options { arrays, .. } => {
                let n = arrays[0].len() as u64;
                let arrays = t.span("upload", |_| [upload(&[n]), upload(&[n]), upload(&[n])]);
                Box::new(Pricing {
                    ctx: ctx.clone(),
                    inputs: Rc::clone(inputs),
                    arrays,
                    program: Program::black_scholes(),
                    functional,
                    fusing,
                    previous: None,
                    ops: 0,
                })
            }
            Inputs::Churn {
                arrays, draw_seed, ..
            } => {
                let len = arrays[0].len() as u64;
                let arrays = t.span("upload", |_| {
                    [upload(&[len]), upload(&[len]), upload(&[len])]
                });
                Box::new(Churn {
                    ctx: ctx.clone(),
                    inputs: Rc::clone(inputs),
                    arrays,
                    draws: Rng::stream(*draw_seed, stream),
                    drawn: 0,
                    functional,
                })
            }
            Inputs::Heat { n, grid } => {
                let st = t.span("register", |_| StencilContext::new(&ctx));
                let m = (*n + 2) as u64;
                // Both buffers carry the boundary ring: the star writes
                // interiors only, so ghosts persist across the swap.
                let (cur, next) = t.span("upload", |_| (upload(&[m, m]), upload(&[m, m])));
                Box::new(Heat {
                    ctx: ctx.clone(),
                    np: np.clone(),
                    st,
                    cur: cur.handle().clone(),
                    next: next.handle().clone(),
                    n: *n as u64,
                    reference: HeatReference::new(*n, grid.clone()),
                    functional,
                })
            }
            Inputs::Cg { grid, b, iters } => {
                let sp = t.span("register", |_| SparseContext::new(&ctx));
                let (a, b_array) = t.span("upload", |_| {
                    (
                        CsrMatrix::poisson_2d(&sp, *grid as u64),
                        upload(&[(grid * grid) as u64]),
                    )
                });
                assert_eq!(
                    a.rows() as usize % gpus,
                    0,
                    "rows must block-partition over the GPUs"
                );
                Box::new(Cg {
                    ctx: ctx.clone(),
                    np: np.clone(),
                    a,
                    b: b_array,
                    bb: b.iter().map(|v| v * v).sum(),
                    inputs: Rc::clone(inputs),
                    sim_iters: *iters,
                    functional,
                })
            }
        };
        t.span("first_flush", |_| ctx.flush());
        Built { ctx, workload }
    })
}

/// `bs_stream` and `scale128_sim`: one Black-Scholes pricing pass over the
/// option arrays, then the call and put sums.
struct Pricing {
    ctx: Context,
    inputs: Rc<Inputs>,
    arrays: [DArray; 3],
    program: Program,
    functional: bool,
    /// Whether the configuration fuses tasks at all (the unfused leg does not).
    fusing: bool,
    /// What the previous op was seen to do (determinism check of the
    /// simulation-only run).
    previous: Option<Observed>,
    ops: usize,
}

impl Workload for Pricing {
    fn run(&mut self, t: &mut Tracer) -> Option<Readback> {
        let sums: Vec<DArray> = t.submit(|| {
            self.program
                .issue(&self.arrays)
                .iter()
                .map(DArray::sum)
                .collect()
        });
        let values = t.sync(&self.ctx, self.functional, || {
            sums.iter().map(DArray::scalar_value).collect()
        })?;
        Some(Readback { values, iters: 0 })
    }

    fn check(&mut self, got: &Readback, seen: &Observed) -> Result<(), String> {
        let Inputs::Options { expected, .. } = &*self.inputs else {
            unreachable!("built from Options")
        };
        if self.functional {
            for (name, (&got, &want)) in ["call", "put"].iter().zip(got.values.iter().zip(expected))
            {
                if !reference::close(got, want, want, reference::TOL_ERF) {
                    return Err(format!("Σ{name} = {got}, closed form gives {want}"));
                }
            }
            return Ok(());
        }
        // No data to check: after warm-up the simulated clock and the
        // launch count must repeat exactly from op to op, and fusion must
        // have happened.
        self.ops += 1;
        if self.fusing && seen.launched >= seen.submitted {
            return Err(format!(
                "{} launches for {} tasks: nothing fused",
                seen.launched, seen.submitted
            ));
        }
        let previous = self.previous.replace(*seen);
        match previous {
            Some(previous) if self.ops > WARMUP_OPS + 1 && previous != *seen => Err(format!(
                "simulation is not deterministic: {previous:?} then {seen:?}"
            )),
            _ => Ok(()),
        }
    }
}

/// `churn_cold`: each op runs one program drawn uniformly from the pool and
/// reads its sum back.
struct Churn {
    ctx: Context,
    inputs: Rc<Inputs>,
    arrays: [DArray; 3],
    draws: Rng,
    drawn: usize,
    functional: bool,
}

impl Workload for Churn {
    fn run(&mut self, t: &mut Tracer) -> Option<Readback> {
        let Inputs::Churn { programs, .. } = &*self.inputs else {
            unreachable!("built from Churn")
        };
        self.drawn = self.draws.below(programs.len() as u64) as usize;
        let sum = t.submit(|| programs[self.drawn].issue(&self.arrays)[0].sum());
        let value = t.sync(&self.ctx, self.functional, || sum.scalar_value())?;
        Some(Readback {
            values: vec![value],
            iters: 0,
        })
    }

    fn check(&mut self, got: &Readback, _seen: &Observed) -> Result<(), String> {
        let Inputs::Churn { expected, .. } = &*self.inputs else {
            unreachable!("built from Churn")
        };
        if !self.functional {
            return Ok(());
        }
        let (want, magnitude) = expected[self.drawn];
        if reference::close(got.values[0], want, magnitude, reference::TOL_SUM) {
            Ok(())
        } else {
            Err(format!(
                "program {}: Σ = {}, reference {want}",
                self.drawn, got.values[0]
            ))
        }
    }
}

/// `heat_xlib`: explicit-Euler steps of the 5-point star (stencil library)
/// whose change energy is a dense subtraction and reduction over interior
/// *views of the same stores* — two libraries, one fused window, 2-D haloed
/// strided tiles.
struct Heat {
    ctx: Context,
    np: DenseContext,
    st: StencilContext,
    cur: StoreHandle,
    next: StoreHandle,
    n: u64,
    reference: HeatReference,
    functional: bool,
}

impl Heat {
    fn interior(&self, grid: &StoreHandle) -> DArray {
        self.np
            .wrap(grid.clone())
            .slice_2d(1..self.n + 1, 1..self.n + 1)
    }
}

impl Workload for Heat {
    fn run(&mut self, t: &mut Tracer) -> Option<Readback> {
        let c = reference::HEAT_ALPHA;
        let energy = t.submit(|| {
            let mut energy = None;
            for _ in 0..HEAT_STEPS {
                self.st
                    .star_2d(&self.cur, &self.next, [1.0 - 4.0 * c, c, c, c, c]);
                energy = Some(
                    self.interior(&self.next)
                        .sub(&self.interior(&self.cur))
                        .sum_sq(),
                );
                std::mem::swap(&mut self.cur, &mut self.next);
            }
            energy.expect("HEAT_STEPS > 0")
        });
        let value = t.sync(&self.ctx, self.functional, || energy.scalar_value())?;
        Some(Readback {
            values: vec![value],
            iters: 0,
        })
    }

    fn check(&mut self, got: &Readback, _seen: &Observed) -> Result<(), String> {
        if !self.functional {
            return Ok(());
        }
        let mut want = 0.0;
        for _ in 0..HEAT_STEPS {
            want = self.reference.step();
        }
        if reference::close(got.values[0], want, want, reference::TOL_SUM) {
            Ok(())
        } else {
            Err(format!(
                "change energy {} vs lock-step reference {want}",
                got.values[0]
            ))
        }
    }
}

/// `cg_small`: one conjugate-gradient solve, written as a SciPy user would
/// write it — fresh arrays every iteration, the convergence scalar read
/// back every [`CG_CHECK_EVERY`] iterations, the solution read back whole.
struct Cg {
    ctx: Context,
    np: DenseContext,
    a: CsrMatrix,
    b: DArray,
    bb: f64,
    inputs: Rc<Inputs>,
    sim_iters: usize,
    functional: bool,
}

impl Workload for Cg {
    fn run(&mut self, t: &mut Tracer) -> Option<Readback> {
        let threshold = reference::CG_TOL * reference::CG_TOL * self.bb;
        let (np, a, b) = (&self.np, &self.a, &self.b);
        let (mut x, mut r, mut p, mut rs_old) = t.submit(|| {
            let r = b.copy();
            let p = r.copy();
            let rs_old = r.dot(&r);
            (np.zeros(&[a.rows()]), r, p, rs_old)
        });
        let mut iters = 0;
        loop {
            t.submit(|| {
                for _ in 0..CG_CHECK_EVERY {
                    let q = np.wrap(a.spmv(p.handle()));
                    let alpha = rs_old.div(&p.dot(&q));
                    x = x.axpy(&alpha, &p, 1.0);
                    r = r.axpy(&alpha, &q, -1.0);
                    let rs_new = r.dot(&r);
                    let beta = rs_new.div(&rs_old);
                    p = r.axpy(&beta, &p, 1.0);
                    rs_old = rs_new;
                }
            });
            iters += CG_CHECK_EVERY;
            let rs = t.sync(&self.ctx, self.functional, || rs_old.scalar_value())?;
            // A simulation-only run has no residual to read: it runs the
            // iterations a plain-Rust CG needed. A NaN residual also stops
            // the solve; the check below then reports it.
            let converged = if self.functional {
                rs <= threshold || rs.is_nan()
            } else {
                iters >= self.sim_iters
            };
            if converged || iters >= CG_MAX_ITERS {
                break;
            }
        }
        let values = t.sync(&self.ctx, self.functional, || x.to_vec())?;
        Some(Readback { values, iters })
    }

    fn check(&mut self, got: &Readback, _seen: &Observed) -> Result<(), String> {
        let Inputs::Cg { grid, b, .. } = &*self.inputs else {
            unreachable!("built from Cg")
        };
        if !self.functional {
            return Ok(());
        }
        let residual = reference::poisson_residual(*grid, &got.values, b);
        if residual <= reference::CG_CHECK_TOL * self.bb.sqrt() {
            Ok(())
        } else {
            Err(format!(
                "‖b − A·x‖ = {residual} after {} iterations, ‖b‖ = {}",
                got.iters,
                self.bb.sqrt()
            ))
        }
    }
}
