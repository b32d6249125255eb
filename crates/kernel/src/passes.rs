//! The kernel compilation pipeline.
//!
//! Mirrors the stages of Figure 8 in the paper: the fused module starts as the
//! sequential composition of the constituent task bodies (Figure 8b), then
//!
//! 1. temporary distributed stores have already been demoted to
//!    [`BufferRole::Local`] buffers by the task-fusion layer (Figure 8c),
//! 2. adjacent loops with equal iteration domains are fused,
//! 3. stores followed by loads of the same buffer inside a fused loop are
//!    forwarded through registers,
//! 4. stores to local buffers that are never read again are removed, and
//!    local buffers with no remaining uses are eliminated entirely
//!    (Figure 8d), and
//! 5. the surviving loops are marked parallel for the GPU/OpenMP backend.
//!
//! Every stage can be disabled individually through [`PipelineConfig`] so the
//! benchmark harness can run the ablations discussed in Section 7.
//!
//! Each pass is linear in the module's ops, so a memo miss's JIT cost grows
//! with window length, not its square: loop fusion appends each loop to the
//! open one, store forwarding is one forward walk per loop, and dead-local
//! elimination one reverse liveness sweep per loop.

use ir::fingerprint::{FnvHashMap, FnvHashSet};

use crate::ir::{BufferId, BufferRole, KernelModule, KernelStage, LoopKernel, LoopOp, ValueId};

/// Configuration of the compilation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Fuse adjacent loops with equal iteration domains.
    pub loop_fusion: bool,
    /// Forward stored values to later loads within a fused loop.
    pub store_forwarding: bool,
    /// Remove dead stores to local buffers and eliminate unused locals.
    pub eliminate_locals: bool,
    /// Mark loops parallel.
    pub parallelize: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            loop_fusion: true,
            store_forwarding: true,
            eliminate_locals: true,
            parallelize: true,
        }
    }
}

impl PipelineConfig {
    /// A configuration with every optimization disabled — the module is
    /// executed exactly as composed (used for the unfused baseline and for
    /// ablations).
    pub fn disabled() -> Self {
        PipelineConfig {
            loop_fusion: false,
            store_forwarding: false,
            eliminate_locals: false,
            parallelize: false,
        }
    }
}

/// The result of compiling a module.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// The optimized module.
    pub module: KernelModule,
    /// Local buffers that were eliminated entirely: no stage of `module`
    /// references them. They keep their buffer ids (and the launch still
    /// declares their lengths, so cost accounting is unchanged); that their
    /// allocations never happen at execution time is enforced by the
    /// runtime's stage loop, which gives a local storage only if
    /// [`KernelStage::referenced_buffers`] of some stage names it — it reads
    /// the module, not this list.
    pub eliminated_locals: Vec<BufferId>,
    /// Number of loop stages before optimization.
    pub loops_before: usize,
    /// Number of loop stages after optimization.
    pub loops_after: usize,
}

/// The kernel compilation pipeline. See the module documentation.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// Runs the pipeline. `buffer_lens` gives the element count of every
    /// buffer (indexed by [`BufferId`]); loop fusion uses it to prove two
    /// loops share an iteration domain.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_lens` is shorter than the module's buffer table.
    pub fn run(&self, module: KernelModule, buffer_lens: &[usize]) -> PipelineResult {
        assert!(
            buffer_lens.len() >= module.num_buffers() as usize,
            "buffer_lens has {} entries but module has {} buffers",
            buffer_lens.len(),
            module.num_buffers()
        );
        let loops_before = module.num_loop_stages();
        let mut module = module;
        if self.config.loop_fusion {
            module = fuse_loops(module, buffer_lens);
        }
        if self.config.store_forwarding {
            module = forward_stores(module);
        }
        let mut eliminated = Vec::new();
        if self.config.eliminate_locals {
            (module, eliminated) = eliminate_dead_locals(module, buffer_lens);
        }
        if self.config.parallelize {
            for stage in &mut module.stages {
                if let KernelStage::Loop(l) = stage {
                    l.parallel = true;
                }
            }
        }
        let loops_after = module.num_loop_stages();
        PipelineResult {
            module,
            eliminated_locals: eliminated,
            loops_before,
            loops_after,
        }
    }
}

/// Effect summary of one loop used for fusion legality.
#[derive(Debug, Default)]
struct LoopEffects {
    elem_loads: FnvHashSet<BufferId>,
    scalar_loads: FnvHashSet<BufferId>,
    stores: FnvHashSet<BufferId>,
    reduces: FnvHashSet<BufferId>,
}

fn effects(kernel: &LoopKernel) -> LoopEffects {
    let mut e = LoopEffects::default();
    for op in &kernel.ops {
        match op {
            LoopOp::Load { buffer, .. } => {
                e.elem_loads.insert(*buffer);
            }
            LoopOp::LoadScalar { buffer, .. } => {
                e.scalar_loads.insert(*buffer);
            }
            LoopOp::Store { buffer, .. } => {
                e.stores.insert(*buffer);
            }
            LoopOp::Reduce { buffer, .. } => {
                e.reduces.insert(*buffer);
            }
            _ => {}
        }
    }
    e
}

impl LoopEffects {
    /// Adds `other`'s effects: the summary of the two loops run as one.
    fn union(&mut self, other: LoopEffects) {
        self.elem_loads.extend(other.elem_loads);
        self.scalar_loads.extend(other.scalar_loads);
        self.stores.extend(other.stores);
        self.reduces.extend(other.reduces);
    }
}

/// Whether loop `b` may be merged after loop `a` into a single loop.
///
/// Elementwise producer/consumer pairs are always legal because corresponding
/// iterations access the same element. Broadcast (scalar) reads of a value
/// written or reduced by the earlier loop, and writes to a value the earlier
/// loop reads as a broadcast, change observable semantics and block fusion —
/// mirroring the reduction constraint at the task level.
fn loops_fusible(a: &LoopEffects, b: &LoopEffects) -> bool {
    // b must not broadcast-read anything a writes or reduces.
    if b.scalar_loads
        .iter()
        .any(|s| a.stores.contains(s) || a.reduces.contains(s))
    {
        return false;
    }
    // b must not write anything a broadcast-reads.
    if b.stores.iter().any(|s| a.scalar_loads.contains(s)) {
        return false;
    }
    // Reduction accumulators may only be shared between reductions.
    if b.reduces.iter().any(|s| {
        a.stores.contains(s) || a.elem_loads.contains(s) || a.scalar_loads.contains(s)
    }) {
        return false;
    }
    if a.reduces
        .iter()
        .any(|s| b.stores.contains(s) || b.elem_loads.contains(s))
    {
        return false;
    }
    true
}

/// The SSA values `op` defines and uses, as `[dst, a, b]`.
fn values_mut(op: &mut LoopOp) -> [Option<&mut ValueId>; 3] {
    match op {
        LoopOp::Load { dst, .. }
        | LoopOp::LoadScalar { dst, .. }
        | LoopOp::Const { dst, .. }
        | LoopOp::Param { dst, .. } => [Some(dst), None, None],
        LoopOp::Unary { dst, a, .. } => [Some(dst), Some(a), None],
        LoopOp::Binary { dst, a, b, .. } => [Some(dst), Some(a), Some(b)],
        LoopOp::Store { src, .. } | LoopOp::Reduce { src, .. } => [None, Some(src), None],
    }
}

/// Greedily fuses adjacent loop stages with equal iteration domains, each
/// summarized once and appended in place to the open loop (the last stage).
fn fuse_loops(module: KernelModule, buffer_lens: &[usize]) -> KernelModule {
    let mut stages = Vec::with_capacity(module.stages.len());
    // The open loop's effects and value count, while the last stage is a loop.
    let mut open: Option<(LoopEffects, u32)> = None;
    for stage in module.stages {
        let KernelStage::Loop(mut next) = stage else {
            open = None;
            stages.push(stage);
            continue;
        };
        let next_effects = effects(&next);
        let next_values = next.num_values() as u32;
        if let (Some((effects, values)), Some(KernelStage::Loop(prev))) =
            (&mut open, stages.last_mut())
        {
            if buffer_lens[prev.domain.0 as usize] == buffer_lens[next.domain.0 as usize]
                && loops_fusible(effects, &next_effects)
            {
                // Values are defined before use: the body now has `values + next_values`.
                for v in next.ops.iter_mut().flat_map(values_mut).flatten() {
                    v.0 += *values;
                }
                prev.ops.append(&mut next.ops);
                prev.name.push('+');
                prev.name.push_str(&next.name);
                prev.parallel = false;
                effects.union(next_effects);
                *values += next_values;
                continue;
            }
        }
        open = Some((next_effects, next_values));
        stages.push(KernelStage::Loop(next));
    }
    KernelModule {
        stages,
        roles: module.roles,
    }
}

/// Forwards stored values to later elementwise loads of the same buffer within
/// each loop, then removes ops whose results are no longer used.
fn forward_stores(mut module: KernelModule) -> KernelModule {
    for stage in &mut module.stages {
        if let KernelStage::Loop(l) = stage {
            // Map from buffer -> value most recently stored to it in this body.
            let mut last_store: FnvHashMap<BufferId, ValueId> = FnvHashMap::default();
            // Map from value -> replacement value.
            let mut replace: FnvHashMap<ValueId, ValueId> = FnvHashMap::default();
            let resolve = |v: ValueId, replace: &FnvHashMap<ValueId, ValueId>| -> ValueId {
                let mut v = v;
                while let Some(&r) = replace.get(&v) {
                    v = r;
                }
                v
            };
            let mut new_ops = Vec::with_capacity(l.ops.len());
            for op in l.ops.drain(..) {
                match op {
                    LoopOp::Load { dst, buffer } => {
                        if let Some(&stored) = last_store.get(&buffer) {
                            replace.insert(dst, stored);
                        } else {
                            new_ops.push(LoopOp::Load { dst, buffer });
                        }
                    }
                    LoopOp::LoadScalar { dst, buffer } => {
                        new_ops.push(LoopOp::LoadScalar { dst, buffer });
                    }
                    LoopOp::Const { dst, value } => new_ops.push(LoopOp::Const { dst, value }),
                    LoopOp::Param { dst, index } => new_ops.push(LoopOp::Param { dst, index }),
                    LoopOp::Unary { dst, op, a } => new_ops.push(LoopOp::Unary {
                        dst,
                        op,
                        a: resolve(a, &replace),
                    }),
                    LoopOp::Binary { dst, op, a, b } => new_ops.push(LoopOp::Binary {
                        dst,
                        op,
                        a: resolve(a, &replace),
                        b: resolve(b, &replace),
                    }),
                    LoopOp::Store { buffer, src } => {
                        let src = resolve(src, &replace);
                        last_store.insert(buffer, src);
                        new_ops.push(LoopOp::Store { buffer, src });
                    }
                    LoopOp::Reduce { buffer, op, src } => new_ops.push(LoopOp::Reduce {
                        buffer,
                        op,
                        src: resolve(src, &replace),
                    }),
                }
            }
            l.ops = new_ops;
        }
    }
    module
}

/// Removes stores to local buffers that are never read anywhere in the module,
/// removes value-producing ops whose results are unused, and reports local
/// buffers with no remaining references as eliminated. Loop domains that refer
/// to an otherwise-dead local are retargeted to another equal-length buffer
/// used by the loop so the local can be eliminated.
///
/// One reverse sweep per loop does both removals: values are defined before
/// use, so an op is live exactly when a later live op uses its value.
fn eliminate_dead_locals(
    mut module: KernelModule,
    buffer_lens: &[usize],
) -> (KernelModule, Vec<BufferId>) {
    let KernelModule { stages, roles } = &mut module;
    let is_local = |b: BufferId| roles[b.0 as usize] == BufferRole::Local;
    // Buffers read anywhere (loops or opaque stages).
    let mut read = vec![false; roles.len()];
    for stage in stages.iter() {
        match stage {
            KernelStage::Loop(l) => {
                for op in &l.ops {
                    if let LoopOp::Load { buffer, .. } | LoopOp::LoadScalar { buffer, .. } = op {
                        read[buffer.0 as usize] = true;
                    }
                }
            }
            KernelStage::Opaque(op) => {
                for b in op.read_buffers() {
                    read[b.0 as usize] = true;
                }
            }
        }
    }
    // Drop stores to locals never read and ops whose value is unused, marking
    // every buffer a surviving op (or opaque stage) loads or writes.
    let mut referenced = vec![false; roles.len()];
    for stage in stages.iter_mut() {
        let l = match stage {
            KernelStage::Loop(l) => l,
            KernelStage::Opaque(op) => {
                for b in op.read_buffers().into_iter().chain(op.written_buffers()) {
                    referenced[b.0 as usize] = true;
                }
                continue;
            }
        };
        let mut live = vec![false; l.num_values()];
        let mut kept = Vec::with_capacity(l.ops.len());
        for mut op in l.ops.drain(..).rev() {
            let keep = match &op {
                LoopOp::Store { buffer, .. } | LoopOp::Reduce { buffer, .. } => {
                    !is_local(*buffer) || read[buffer.0 as usize]
                }
                _ => op.dst().is_some_and(|dst| live[dst.0 as usize]),
            };
            if !keep {
                continue;
            }
            if let LoopOp::Load { buffer, .. }
            | LoopOp::LoadScalar { buffer, .. }
            | LoopOp::Store { buffer, .. }
            | LoopOp::Reduce { buffer, .. } = op
            {
                referenced[buffer.0 as usize] = true;
            }
            // A use of a value no op defines marks nothing.
            let [_, a, b] = values_mut(&mut op);
            for v in [a, b].into_iter().flatten() {
                if let Some(flag) = live.get_mut(v.0 as usize) {
                    *flag = true;
                }
            }
            kept.push(op);
        }
        kept.reverse();
        l.ops = kept;
    }
    // Retarget loop domains that point at locals which carry no data accesses
    // any more, so those locals can be eliminated entirely: to the first
    // equal-length buffer loaded elementwise, else stored or reduced into.
    let mut domains = Vec::new();
    for stage in stages.iter_mut() {
        if let KernelStage::Loop(l) = stage {
            if is_local(l.domain) && !referenced[l.domain.0 as usize] {
                let domain_len = buffer_lens[l.domain.0 as usize];
                let accesses = l.ops.iter().filter_map(|op| match *op {
                    LoopOp::Load { buffer, .. } => Some((false, buffer)),
                    LoopOp::Store { buffer, .. } | LoopOp::Reduce { buffer, .. } => {
                        Some((true, buffer))
                    }
                    _ => None,
                });
                let candidate = accesses
                    .filter(|(_, b)| buffer_lens[b.0 as usize] == domain_len)
                    .min_by_key(|&(writes, _)| writes);
                if let Some((_, b)) = candidate {
                    l.domain = b;
                }
            }
            domains.push(l.domain);
        }
    }
    // Report locals with no remaining references at all; domains count only
    // now, as retargeting looks at data references alone.
    for d in domains {
        referenced[d.0 as usize] = true;
    }
    let eliminated: Vec<BufferId> = (0..roles.len() as u32)
        .map(BufferId)
        .filter(|&b| is_local(b) && !referenced[b.0 as usize])
        .collect();
    (module, eliminated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::interp::Interpreter;
    use crate::ir::ReduceOp;

    /// Builds the Figure 8 example: c = a + b; e = c + d with c local.
    fn figure8_module() -> KernelModule {
        let mut module = KernelModule::new(5);
        module.set_role(BufferId(2), BufferRole::Local);
        module.set_role(BufferId(4), BufferRole::Output);
        let mut l1 = LoopBuilder::new("add", BufferId(2));
        let (a, b) = (l1.load(BufferId(0)), l1.load(BufferId(1)));
        let s = l1.add(a, b);
        l1.store(BufferId(2), s);
        module.push_loop(l1.finish());
        let mut l2 = LoopBuilder::new("add", BufferId(4));
        let (c, d) = (l2.load(BufferId(2)), l2.load(BufferId(3)));
        let s = l2.add(c, d);
        l2.store(BufferId(4), s);
        module.push_loop(l2.finish());
        module
    }

    #[test]
    fn figure8_fuses_and_eliminates_temp() {
        let compiled = Pipeline::default().run(figure8_module(), &[8, 8, 8, 8, 8]);
        assert_eq!(compiled.loops_before, 2);
        assert_eq!(compiled.loops_after, 1);
        assert_eq!(compiled.eliminated_locals, vec![BufferId(2)]);
        // The fused loop should not touch buffer 2 at all.
        if let KernelStage::Loop(l) = &compiled.module.stages[0] {
            assert!(!l.loaded_buffers().contains(&BufferId(2)));
            assert!(!l.written_buffers().contains(&BufferId(2)));
            assert!(l.parallel);
        } else {
            panic!("expected a loop stage");
        }
    }

    #[test]
    fn fused_execution_matches_unfused() {
        let module = figure8_module();
        let lens = [16usize, 16, 16, 16, 16];
        let mut unfused_bufs: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..16).map(|j| (i * 16 + j) as f64 * 0.25).collect())
            .collect();
        let mut fused_bufs = unfused_bufs.clone();
        Interpreter::new()
            .execute(
                &Pipeline::new(PipelineConfig::disabled())
                    .run(module.clone(), &lens)
                    .module,
                &mut unfused_bufs,
                &[],
            )
            .unwrap();
        Interpreter::new()
            .execute(
                &Pipeline::default().run(module, &lens).module,
                &mut fused_bufs,
                &[],
            )
            .unwrap();
        assert_eq!(unfused_bufs[4], fused_bufs[4]);
    }

    #[test]
    fn different_domains_do_not_fuse() {
        let mut module = KernelModule::new(4);
        let mut l1 = LoopBuilder::new("a", BufferId(1));
        let x = l1.load(BufferId(0));
        l1.store(BufferId(1), x);
        module.push_loop(l1.finish());
        let mut l2 = LoopBuilder::new("b", BufferId(3));
        let x = l2.load(BufferId(2));
        l2.store(BufferId(3), x);
        module.push_loop(l2.finish());
        // Buffers 0/1 have 8 elements; 2/3 have 4.
        let compiled = Pipeline::default().run(module, &[8, 8, 4, 4]);
        assert_eq!(compiled.loops_after, 2);
    }

    #[test]
    fn scalar_read_of_reduction_blocks_loop_fusion() {
        let mut module = KernelModule::new(3);
        module.set_role(BufferId(1), BufferRole::Reduction);
        // loop 1: reduce sum of a into s
        let mut l1 = LoopBuilder::new("dot", BufferId(0));
        let x = l1.load(BufferId(0));
        l1.reduce(BufferId(1), ReduceOp::Sum, x);
        module.push_loop(l1.finish());
        // loop 2: out[i] = a[i] * s (broadcast read of the reduction)
        let mut l2 = LoopBuilder::new("scale", BufferId(0));
        let x = l2.load(BufferId(0));
        let s = l2.load_scalar(BufferId(1));
        let v = l2.mul(x, s);
        l2.store(BufferId(2), v);
        module.push_loop(l2.finish());
        let compiled = Pipeline::default().run(module, &[8, 1, 8]);
        assert_eq!(compiled.loops_after, 2, "must not fuse across a reduction");
    }

    #[test]
    fn opaque_stage_breaks_fusion_runs() {
        let mut module = KernelModule::new(4);
        let mut l1 = LoopBuilder::new("a", BufferId(0));
        let x = l1.load(BufferId(0));
        l1.store(BufferId(3), x);
        module.push_loop(l1.finish());
        module.push_opaque(crate::ir::OpaqueOp::Gemv {
            a: BufferId(1),
            x: BufferId(0),
            y: BufferId(2),
        });
        let mut l2 = LoopBuilder::new("b", BufferId(0));
        let x = l2.load(BufferId(2));
        l2.store(BufferId(3), x);
        module.push_loop(l2.finish());
        let compiled = Pipeline::default().run(module, &[8, 64, 8, 8]);
        assert_eq!(compiled.loops_after, 2);
        assert_eq!(compiled.module.num_stages(), 3);
    }

    #[test]
    fn disabled_pipeline_is_identity_except_flags() {
        let module = figure8_module();
        let compiled = Pipeline::new(PipelineConfig::disabled()).run(module.clone(), &[4; 5]);
        assert_eq!(compiled.module.stages.len(), module.stages.len());
        assert!(compiled.eliminated_locals.is_empty());
    }

    #[test]
    fn local_still_read_in_unfusible_loop_is_not_eliminated() {
        // c = a + b (domain 8), then a reduction over c into s (domain 8 but
        // reading c elementwise) is fusible, but if domains differ the local
        // must survive.
        let mut module = KernelModule::new(4);
        module.set_role(BufferId(2), BufferRole::Local);
        module.set_role(BufferId(3), BufferRole::Reduction);
        let mut l1 = LoopBuilder::new("add", BufferId(0));
        let (a, b) = (l1.load(BufferId(0)), l1.load(BufferId(1)));
        let s = l1.add(a, b);
        l1.store(BufferId(2), s);
        module.push_loop(l1.finish());
        let mut l2 = LoopBuilder::new("norm", BufferId(2));
        let c = l2.load(BufferId(2));
        let sq = l2.mul(c, c);
        l2.reduce(BufferId(3), ReduceOp::Sum, sq);
        module.push_loop(l2.finish());
        // Different "lengths" prevent fusion, so the local must be kept.
        let compiled = Pipeline::default().run(module, &[8, 8, 6, 1]);
        assert!(compiled.eliminated_locals.is_empty());
        assert_eq!(compiled.loops_after, 2);
    }

    #[test]
    #[cfg_attr(miri, ignore = "times a 2^13-loop pipeline run against the wall clock")]
    fn a_2_pow_13_loop_chain_compiles_in_linear_time() {
        use crate::backend::BackendKind;
        use crate::verify::{verify_lowering, verify_module};
        use std::time::{Duration, Instant};
        // A chain of dependent elementwise loops through locals:
        // local[i + 1] = local[i] + scalar i, the last local the output.
        const LOOPS: usize = 1 << 13;
        let mut module = KernelModule::new(1);
        let mut prev = BufferId(0);
        for i in 0..LOOPS {
            let out = module.add_local();
            if i + 1 == LOOPS {
                module.set_role(out, BufferRole::Output);
            }
            let mut b = LoopBuilder::new("scalar_add", out);
            let x = b.load(prev);
            let c = b.param(i);
            let v = b.add(x, c);
            b.store(out, v);
            module.push_loop(b.finish());
            prev = out;
        }
        let lens = vec![1 << 10; module.num_buffers() as usize];
        let start = Instant::now();
        let compiled = Pipeline::default().run(module, &lens);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!((compiled.loops_before, compiled.loops_after), (LOOPS, 1));
        let KernelStage::Loop(fused) = &compiled.module.stages[0] else {
            panic!("expected one loop stage");
        };
        assert_eq!(fused.name, vec!["scalar_add"; LOOPS].join("+"));
        let intermediates: Vec<BufferId> = (1..LOOPS as u32).map(BufferId).collect();
        assert_eq!(compiled.eliminated_locals, intermediates);
        verify_module(&compiled.module, Some(&lens)).unwrap();
        verify_lowering(&compiled.module, BackendKind::Simd).unwrap();
    }

    /// The pipeline as it was when loop fusion merged pairwise, re-deriving
    /// the accumulated loop's effects and cloning its body per merge, and
    /// dead values were removed by a fixpoint loop: the reference the
    /// identity property holds [`Pipeline::run`] to.
    mod oracle {
        use std::collections::HashSet;

        use super::super::*;

        pub fn run(config: PipelineConfig, module: KernelModule, lens: &[usize]) -> PipelineResult {
            let loops_before = module.num_loop_stages();
            let mut module = module;
            if config.loop_fusion {
                module = fuse_loops(module, lens);
            }
            if config.store_forwarding {
                module = forward_stores(module);
            }
            let mut eliminated_locals = Vec::new();
            if config.eliminate_locals {
                (module, eliminated_locals) = eliminate_dead_locals(module, lens);
            }
            if config.parallelize {
                for stage in &mut module.stages {
                    if let KernelStage::Loop(l) = stage {
                        l.parallel = true;
                    }
                }
            }
            let loops_after = module.num_loop_stages();
            PipelineResult {
                module,
                eliminated_locals,
                loops_before,
                loops_after,
            }
        }

        fn merge_loops(a: &LoopKernel, b: &LoopKernel) -> LoopKernel {
            let offset = a.num_values() as u32;
            let shift = |v: ValueId| ValueId(v.0 + offset);
            let mut ops = a.ops.clone();
            for op in &b.ops {
                ops.push(match op.clone() {
                    LoopOp::Load { dst, buffer } => LoopOp::Load {
                        dst: shift(dst),
                        buffer,
                    },
                    LoopOp::LoadScalar { dst, buffer } => LoopOp::LoadScalar {
                        dst: shift(dst),
                        buffer,
                    },
                    LoopOp::Const { dst, value } => LoopOp::Const {
                        dst: shift(dst),
                        value,
                    },
                    LoopOp::Param { dst, index } => LoopOp::Param {
                        dst: shift(dst),
                        index,
                    },
                    LoopOp::Unary { dst, op, a } => LoopOp::Unary {
                        dst: shift(dst),
                        op,
                        a: shift(a),
                    },
                    LoopOp::Binary { dst, op, a, b } => LoopOp::Binary {
                        dst: shift(dst),
                        op,
                        a: shift(a),
                        b: shift(b),
                    },
                    LoopOp::Store { buffer, src } => LoopOp::Store {
                        buffer,
                        src: shift(src),
                    },
                    LoopOp::Reduce { buffer, op, src } => LoopOp::Reduce {
                        buffer,
                        op,
                        src: shift(src),
                    },
                });
            }
            LoopKernel {
                name: format!("{}+{}", a.name, b.name),
                domain: a.domain,
                ops,
                parallel: false,
            }
        }

        fn fuse_loops(module: KernelModule, buffer_lens: &[usize]) -> KernelModule {
            let mut out = KernelModule {
                stages: Vec::new(),
                roles: module.roles.clone(),
            };
            for stage in module.stages {
                match stage {
                    KernelStage::Opaque(op) => out.stages.push(KernelStage::Opaque(op)),
                    KernelStage::Loop(next) => {
                        let fused = match out.stages.last() {
                            Some(KernelStage::Loop(prev))
                                if buffer_lens[prev.domain.0 as usize]
                                    == buffer_lens[next.domain.0 as usize]
                                    && loops_fusible(&effects(prev), &effects(&next)) =>
                            {
                                Some(merge_loops(prev, &next))
                            }
                            _ => None,
                        };
                        match fused {
                            Some(merged) => {
                                out.stages.pop();
                                out.stages.push(KernelStage::Loop(merged));
                            }
                            None => out.stages.push(KernelStage::Loop(next)),
                        }
                    }
                }
            }
            out
        }

        fn eliminate_dead_locals(
            mut module: KernelModule,
            buffer_lens: &[usize],
        ) -> (KernelModule, Vec<BufferId>) {
            let read: HashSet<BufferId> = module
                .stages
                .iter()
                .flat_map(KernelStage::read_buffers)
                .collect();
            for stage in &mut module.stages {
                if let KernelStage::Loop(l) = stage {
                    l.ops.retain(|op| match op {
                        LoopOp::Store { buffer, .. } | LoopOp::Reduce { buffer, .. } => {
                            module.roles[buffer.0 as usize] != BufferRole::Local
                                || read.contains(buffer)
                        }
                        _ => true,
                    });
                }
            }
            for stage in &mut module.stages {
                if let KernelStage::Loop(l) = stage {
                    loop {
                        let mut used: HashSet<ValueId> = HashSet::new();
                        for op in &l.ops {
                            match op {
                                LoopOp::Unary { a, .. } => {
                                    used.insert(*a);
                                }
                                LoopOp::Binary { a, b, .. } => {
                                    used.insert(*a);
                                    used.insert(*b);
                                }
                                LoopOp::Store { src, .. } | LoopOp::Reduce { src, .. } => {
                                    used.insert(*src);
                                }
                                _ => {}
                            }
                        }
                        let before = l.ops.len();
                        l.ops
                            .retain(|op| op.dst().is_none_or(|dst| used.contains(&dst)));
                        if l.ops.len() == before {
                            break;
                        }
                    }
                }
            }
            let data_referenced: HashSet<BufferId> = module
                .stages
                .iter()
                .flat_map(|s| s.read_buffers().into_iter().chain(s.written_buffers()))
                .collect();
            for stage in &mut module.stages {
                if let KernelStage::Loop(l) = stage {
                    if module.roles[l.domain.0 as usize] == BufferRole::Local
                        && !data_referenced.contains(&l.domain)
                    {
                        let domain_len = buffer_lens[l.domain.0 as usize];
                        let candidate = l
                            .loaded_buffers()
                            .into_iter()
                            .chain(l.written_buffers())
                            .find(|b| buffer_lens[b.0 as usize] == domain_len);
                        if let Some(b) = candidate {
                            l.domain = b;
                        }
                    }
                }
            }
            let referenced: HashSet<BufferId> = module
                .stages
                .iter()
                .flat_map(KernelStage::referenced_buffers)
                .collect();
            let eliminated = (0..module.num_buffers())
                .map(BufferId)
                .filter(|b| {
                    module.roles[b.0 as usize] == BufferRole::Local && !referenced.contains(b)
                })
                .collect();
            (module, eliminated)
        }
    }

    mod identity {
        use super::*;
        use crate::ir::{BinaryOp, OpaqueOp, UnaryOp};
        use proptest::prelude::*;

        /// Buffers of every generated module.
        const BUFFERS: u32 = 7;
        const ROLES: [BufferRole; 6] = [
            BufferRole::Input,
            BufferRole::Output,
            BufferRole::InOut,
            BufferRole::Reduction,
            BufferRole::Local,
            BufferRole::Local,
        ];
        /// Unequal lengths, so some neighbouring domains differ and some
        /// dead-local domains have no equal-length buffer to move to.
        const LENS: [usize; 4] = [1, 8, 8, 16];

        /// One raw op choice, `(kind, a, b, c)`, read per kind as in the
        /// backend equivalence harness: any tuple is a valid SSA op.
        type RawOp = (u8, u32, u32, u32);

        fn build_loop(name: String, domain: BufferId, parallel: bool, raw: &[RawOp]) -> LoopKernel {
            let mut b = LoopBuilder::new(name, domain);
            let mut values: Vec<ValueId> = Vec::new();
            for &(kind, x, y, z) in raw {
                let buf = BufferId(x % BUFFERS);
                let pick = |i: u32| values[i as usize % values.len()];
                let v = match kind % 8 {
                    1 => b.load_scalar(buf),
                    2 => b.constant(f64::from(y) - 8.0),
                    3 => b.param(y as usize % 3),
                    4 if !values.is_empty() => b.unary(UnaryOp::Sqrt, pick(y)),
                    5 if !values.is_empty() => b.binary(BinaryOp::Mul, pick(y), pick(z)),
                    6 if !values.is_empty() => {
                        b.store(buf, pick(y));
                        continue;
                    }
                    7 if !values.is_empty() => {
                        b.reduce(buf, ReduceOp::Sum, pick(y));
                        continue;
                    }
                    _ => b.load(buf),
                };
                values.push(v);
            }
            let mut l = b.finish();
            l.parallel = parallel;
            l
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

            /// Under every configuration the pipeline's result — module,
            /// eliminated locals, loop counts — equals the pairwise-merge,
            /// fixpoint pipeline's, over modules with opaque breakers,
            /// reductions, broadcast reads of reduced buffers, locals and
            /// unequal domains.
            #[test]
            fn the_linear_pipeline_matches_the_pairwise_one(
                roles in prop::collection::vec(0usize..ROLES.len(), BUFFERS as usize..BUFFERS as usize + 1),
                lens in prop::collection::vec(0usize..LENS.len(), BUFFERS as usize..BUFFERS as usize + 1),
                stages in prop::collection::vec(
                    (0u32..6, 0u32..BUFFERS, 0u8..2,
                     prop::collection::vec((0u8..8, 0u32..64, 0u32..64, 0u32..64), 1..10)),
                    1..10,
                ),
            ) {
                let mut module = KernelModule::new(BUFFERS);
                for (i, &r) in roles.iter().enumerate() {
                    module.set_role(BufferId(i as u32), ROLES[r]);
                }
                let lens: Vec<usize> = lens.iter().map(|&i| LENS[i]).collect();
                for (i, (kind, domain, parallel, raw)) in stages.iter().enumerate() {
                    let (x, y) = (BufferId(domain % BUFFERS), BufferId((domain + 1) % BUFFERS));
                    match kind {
                        0 => module.push_opaque(OpaqueOp::Restrict { fine: x, coarse: y }),
                        1 => module.push_opaque(OpaqueOp::Prolong { coarse: x, fine: y }),
                        _ => module.push_loop(build_loop(format!("k{i}"), x, *parallel == 1, raw)),
                    }
                }
                for bits in 0u8..16 {
                    let config = PipelineConfig {
                        loop_fusion: bits & 1 != 0,
                        store_forwarding: bits & 2 != 0,
                        eliminate_locals: bits & 4 != 0,
                        parallelize: bits & 8 != 0,
                    };
                    let linear = Pipeline::new(config).run(module.clone(), &lens);
                    let pairwise = oracle::run(config, module.clone(), &lens);
                    prop_assert_eq!(linear, pairwise, "{:?}:\n{:?}\n{:?}", config, linear, pairwise);
                }
            }
        }
    }
}
