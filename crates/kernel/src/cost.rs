//! Traffic, arithmetic and compile-time estimates for kernel modules.

use crate::ir::{KernelModule, KernelStage, LoopKernel, OpaqueOp};

/// Estimated execution resources of one kernel module on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCost {
    /// Bytes moved through device memory.
    pub bytes: u64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Number of kernel launches (one per stage).
    pub launches: u64,
}

impl KernelCost {
    /// Adds another cost component.
    pub fn add(&mut self, other: KernelCost) {
        self.bytes += other.bytes;
        self.flops += other.flops;
        self.launches += other.launches;
    }
}

/// Bytes per double-precision element.
const F64_BYTES: u64 = 8;

/// Estimates the cost of a single loop stage over buffers of the given
/// lengths. Each distinct elementwise-accessed buffer contributes one
/// streaming pass over the loop domain; broadcast scalar loads and reduction
/// accumulators are negligible.
pub fn loop_cost(kernel: &LoopKernel, buffer_lens: &[usize]) -> KernelCost {
    let n = buffer_lens
        .get(kernel.domain.0 as usize)
        .copied()
        .unwrap_or(0) as u64;
    let mut streams: u64 = 0;
    let loaded = kernel.loaded_buffers();
    streams += loaded.len() as u64;
    for b in kernel.written_buffers() {
        // A buffer both loaded and stored is still a read stream plus a write
        // stream; count the write stream here.
        let is_reduction = kernel
            .ops
            .iter()
            .any(|op| matches!(op, crate::ir::LoopOp::Reduce { buffer, .. } if *buffer == b));
        if !is_reduction {
            streams += 1;
        }
    }
    KernelCost {
        bytes: streams * n * F64_BYTES,
        flops: kernel.arith_ops() as u64 * n,
        launches: 1,
    }
}

/// Estimates the cost of an opaque stage.
pub fn opaque_cost(op: &OpaqueOp, buffer_lens: &[usize]) -> KernelCost {
    let len = |b: crate::ir::BufferId| buffer_lens.get(b.0 as usize).copied().unwrap_or(0) as u64;
    match op {
        OpaqueOp::SpMvCsr {
            crd,
            x,
            y,
            index_width,
            ..
        } => {
            let nnz = len(*crd);
            let rows = len(*y);
            // Nonzero values and column indices stream once; row offsets and
            // the output stream once; the input vector is gathered.
            let bytes = nnz * (F64_BYTES + index_width.bytes())
                + (rows + 1) * index_width.bytes()
                + rows * F64_BYTES
                + len(*x) * F64_BYTES;
            KernelCost {
                bytes,
                flops: 2 * nnz,
                launches: 1,
            }
        }
        OpaqueOp::Gemv { a, x, y } => {
            let bytes = len(*a) * F64_BYTES + len(*x) * F64_BYTES + len(*y) * F64_BYTES;
            KernelCost {
                bytes,
                flops: 2 * len(*x) * len(*y),
                launches: 1,
            }
        }
        OpaqueOp::Restrict { fine, coarse } => KernelCost {
            bytes: (len(*fine) + len(*coarse)) * F64_BYTES,
            flops: len(*coarse),
            launches: 1,
        },
        OpaqueOp::Prolong { coarse, fine } => KernelCost {
            bytes: (len(*fine) + len(*coarse)) * F64_BYTES,
            flops: len(*fine),
            launches: 1,
        },
    }
}

/// Estimates the cost of executing a whole module over buffers of the given
/// lengths (one launch per stage).
pub fn module_cost(module: &KernelModule, buffer_lens: &[usize]) -> KernelCost {
    let mut total = KernelCost::default();
    for stage in &module.stages {
        let c = match stage {
            KernelStage::Loop(l) => loop_cost(l, buffer_lens),
            KernelStage::Opaque(op) => opaque_cost(op, buffer_lens),
        };
        total.add(c);
    }
    total
}

/// Model of JIT compilation time used to reproduce Figure 13.
///
/// Compilation cost grows with the size of the fused module: a fixed per-module
/// cost (pass setup, lowering, codegen to PTX/host code) plus a per-operation
/// cost. Compilation happens once per memoized window signature (Section 5.2),
/// so an application pays it only during warmup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileTimeModel {
    /// Fixed seconds per compiled module.
    pub base: f64,
    /// Seconds per loop-body operation in the module.
    pub per_op: f64,
    /// Seconds per stage (each stage lowers to a separate kernel).
    pub per_stage: f64,
}

impl Default for CompileTimeModel {
    fn default() -> Self {
        CompileTimeModel {
            base: 0.060,
            per_op: 0.0018,
            per_stage: 0.012,
        }
    }
}

impl CompileTimeModel {
    /// Estimated seconds to JIT-compile `module`.
    pub fn compile_time(&self, module: &KernelModule) -> f64 {
        self.base + self.per_op * module.total_ops() as f64 + self.per_stage * module.num_stages() as f64
    }

    /// The per-backend calibrated model: this model (the Figure 13 anchor,
    /// scaled to the paper's MLIR JIT) with each coefficient multiplied by
    /// the **measured** ratio of the backend's host compile cost to the
    /// interpreter's, taken from the fitted models in
    /// `BENCH_compile_calibration.json` (written by `cargo run --release
    /// --bin calibrate` and embedded at build time).
    ///
    /// The interpreter is the reference, so `calibrated("interp")` is exactly
    /// `self` (ratios of 1.0 multiply exactly). Ratios are floored at 1.0 —
    /// every lowering backend clones the module and then does strictly more
    /// work than the interpreter's wrap — and backends without a fitted entry
    /// fall back to their historical asserted surcharge factors.
    pub fn calibrated(&self, backend_id: &str) -> CompileTimeModel {
        let (reference, own) = (
            host_compile_model("interp"),
            host_compile_model(backend_id),
        );
        match (reference, own) {
            (Some(i), Some(o)) => CompileTimeModel {
                base: self.base * surcharge_ratio(o.base_ns, i.base_ns),
                per_op: self.per_op * surcharge_ratio(o.per_op_ns, i.per_op_ns),
                per_stage: self.per_stage * surcharge_ratio(o.per_stage_ns, i.per_stage_ns),
            },
            _ => {
                let f = fallback_factor(backend_id);
                CompileTimeModel {
                    base: self.base * f,
                    per_op: self.per_op * f,
                    per_stage: self.per_stage * f,
                }
            }
        }
    }
}

/// Host-measured compile-cost coefficients for one backend: mean wall-clock
/// nanoseconds of `KernelBackend::compile`, modeled as
/// `base_ns + per_op_ns · total_ops + per_stage_ns · num_stages` and fit by
/// least squares over a module-size grid (the `calibrate` binary in
/// `crates/bench`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCompileModel {
    /// Fixed nanoseconds per compiled module.
    pub base_ns: f64,
    /// Nanoseconds per loop-body operation.
    pub per_op_ns: f64,
    /// Nanoseconds per stage.
    pub per_stage_ns: f64,
}

impl HostCompileModel {
    /// Predicted host nanoseconds to compile a module of the given size.
    pub fn predict_ns(&self, total_ops: usize, num_stages: usize) -> f64 {
        self.base_ns + self.per_op_ns * total_ops as f64 + self.per_stage_ns * num_stages as f64
    }
}

/// The checked-in calibration, embedded at build time so `kernel` needs no
/// runtime file lookup (and no dependency on the `bench` crate, which
/// depends on this one). Regenerate with `cargo run --release --bin
/// calibrate`, then rebuild.
const CALIBRATION: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile_calibration.json"));

/// The fitted host compile model for `backend_id` from the embedded
/// calibration, or `None` if the file has no (finite, non-negative) entry.
/// The last matching line wins, mirroring `bench::parse_metric`.
pub fn host_compile_model(backend_id: &str) -> Option<HostCompileModel> {
    let needle = format!("\"backend\":\"{backend_id}\"");
    let line = CALIBRATION.lines().rev().find(|l| l.contains(&needle))?;
    let model = HostCompileModel {
        base_ns: json_num_field(line, "base_ns")?,
        per_op_ns: json_num_field(line, "per_op_ns")?,
        per_stage_ns: json_num_field(line, "per_stage_ns")?,
    };
    let sane = [model.base_ns, model.per_op_ns, model.per_stage_ns]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0);
    sane.then_some(model)
}

/// Extracts `"key":<number>` from one flat JSON line (no JSON dependency in
/// the offline environment; the schema is the shared `BENCH_*.json` one).
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let field_key = format!("\"{key}\":");
    let at = line.find(&field_key)?;
    let tail = &line[at + field_key.len()..];
    let num: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

/// Measured coefficient ratio of a backend over the interpreter reference,
/// floored at 1.0 (a lowering backend never does less work than the
/// interpreter's clone-and-wrap) and guarded against degenerate fits.
fn surcharge_ratio(own_ns: f64, reference_ns: f64) -> f64 {
    let r = own_ns / reference_ns;
    if r.is_finite() && r > 1.0 {
        r
    } else {
        1.0
    }
}

/// Historical asserted surcharges, used only when the calibration file has
/// no fitted entry for a backend.
fn fallback_factor(backend_id: &str) -> f64 {
    match backend_id {
        "simd" => crate::simd::SIMD_COMPILE_FACTOR,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::ir::{BufferId, IndexWidth};

    fn add_kernel() -> LoopKernel {
        let mut b = LoopBuilder::new("add", BufferId(2));
        let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
        let s = b.add(x, y);
        b.store(BufferId(2), s);
        b.finish()
    }

    #[test]
    fn loop_cost_counts_streams() {
        let c = loop_cost(&add_kernel(), &[100, 100, 100]);
        // 2 loads + 1 store = 3 streams of 100 elements.
        assert_eq!(c.bytes, 3 * 100 * 8);
        assert_eq!(c.flops, 100);
        assert_eq!(c.launches, 1);
    }

    #[test]
    fn module_cost_sums_stages() {
        let mut m = KernelModule::new(3);
        m.push_loop(add_kernel());
        m.push_loop(add_kernel());
        let c = module_cost(&m, &[100, 100, 100]);
        assert_eq!(c.launches, 2);
        assert_eq!(c.bytes, 2 * 3 * 100 * 8);
    }

    #[test]
    fn fused_module_moves_fewer_bytes_than_unfused() {
        // a + b -> c ; c + d -> e, where fusion + forwarding removes c.
        use crate::ir::BufferRole;
        use crate::passes::Pipeline;
        let mut m = KernelModule::new(5);
        m.set_role(BufferId(2), BufferRole::Local);
        m.push_loop(add_kernel());
        let mut b = LoopBuilder::new("add", BufferId(4));
        let (x, y) = (b.load(BufferId(2)), b.load(BufferId(3)));
        let s = b.add(x, y);
        b.store(BufferId(4), s);
        m.push_loop(b.finish());
        let lens = [100usize, 100, 100, 100, 100];
        let unfused = module_cost(&m, &lens);
        let fused = module_cost(&Pipeline::default().run(m, &lens).module, &lens);
        assert!(fused.bytes < unfused.bytes);
        assert!(fused.launches < unfused.launches);
        // Fused: 3 loads (a, b, d) + 1 store (e) = 4 streams vs 6 unfused.
        assert_eq!(fused.bytes, 4 * 100 * 8);
    }

    #[test]
    fn spmv_cost_reflects_index_width() {
        let op32 = OpaqueOp::SpMvCsr {
            pos: BufferId(0),
            crd: BufferId(1),
            vals: BufferId(2),
            x: BufferId(3),
            y: BufferId(4),
            index_width: IndexWidth::U32,
        };
        let op64 = OpaqueOp::SpMvCsr {
            pos: BufferId(0),
            crd: BufferId(1),
            vals: BufferId(2),
            x: BufferId(3),
            y: BufferId(4),
            index_width: IndexWidth::U64,
        };
        let lens = [101usize, 500, 500, 100, 100];
        assert!(opaque_cost(&op64, &lens).bytes > opaque_cost(&op32, &lens).bytes);
        assert_eq!(opaque_cost(&op32, &lens).flops, 1000);
    }

    #[test]
    fn gemv_cost_dominated_by_matrix() {
        let op = OpaqueOp::Gemv {
            a: BufferId(0),
            x: BufferId(1),
            y: BufferId(2),
        };
        let c = opaque_cost(&op, &[10_000, 100, 100]);
        assert!(c.bytes >= 10_000 * 8);
        assert_eq!(c.flops, 2 * 100 * 100);
    }

    #[test]
    fn compile_time_grows_with_module_size() {
        let model = CompileTimeModel::default();
        let mut small = KernelModule::new(3);
        small.push_loop(add_kernel());
        let mut large = KernelModule::new(3);
        for _ in 0..20 {
            large.push_loop(add_kernel());
        }
        assert!(model.compile_time(&large) > model.compile_time(&small));
        assert!(model.compile_time(&small) > 0.0);
    }

    #[test]
    fn checked_in_calibration_has_fitted_entries_for_every_backend() {
        for backend in ["interp", "simd"] {
            let fitted = host_compile_model(backend)
                .unwrap_or_else(|| panic!("no fitted calibration entry for {backend}"));
            for c in [fitted.base_ns, fitted.per_op_ns, fitted.per_stage_ns] {
                assert!(c.is_finite() && c >= 0.0, "{backend}: bad coefficient {c}");
            }
            // The fit must be monotonic in module size: more ops or more
            // stages never predict cheaper compilation.
            assert!(fitted.predict_ns(64, 4) >= fitted.predict_ns(8, 4));
            assert!(fitted.predict_ns(64, 8) >= fitted.predict_ns(64, 4));
            assert!(fitted.predict_ns(1, 1) > 0.0);
        }
    }

    #[test]
    fn calibrated_interp_is_exactly_the_anchor() {
        let anchor = CompileTimeModel::default();
        // Ratios of the reference over itself are exactly 1.0, so the
        // interpreter's simulated charge is bitwise-unchanged from the
        // pre-calibration reproduction.
        assert_eq!(anchor.calibrated("interp"), anchor);
    }

    #[test]
    fn calibrated_models_are_finite_monotonic_and_at_least_the_anchor() {
        let anchor = CompileTimeModel::default();
        let mut small = KernelModule::new(3);
        small.push_loop(add_kernel());
        let mut large = KernelModule::new(3);
        for _ in 0..20 {
            large.push_loop(add_kernel());
        }
        for backend in ["interp", "simd"] {
            let m = anchor.calibrated(backend);
            for c in [m.base, m.per_op, m.per_stage] {
                assert!(c.is_finite() && c > 0.0, "{backend}: bad coefficient {c}");
            }
            // Lowering backends pay at least the interpreter's anchor on
            // every coefficient (the ratio floor).
            assert!(m.base >= anchor.base && m.per_op >= anchor.per_op);
            assert!(m.per_stage >= anchor.per_stage);
            assert!(m.compile_time(&large) > m.compile_time(&small));
        }
    }

    #[test]
    fn unknown_backends_fall_back_to_asserted_factors() {
        let anchor = CompileTimeModel::default();
        // No fitted entry: an unknown id gets the neutral 1.0 factor.
        assert_eq!(anchor.calibrated("cranelift"), anchor);
        assert!(host_compile_model("cranelift").is_none());
    }

    #[test]
    fn json_num_field_parses_the_flat_schema() {
        let line = "{\"bench\":\"x\",\"backend\":\"simd\",\"base_ns\":321.500,\"per_op_ns\":4.125}";
        assert_eq!(json_num_field(line, "base_ns"), Some(321.5));
        assert_eq!(json_num_field(line, "per_op_ns"), Some(4.125));
        assert_eq!(json_num_field(line, "per_stage_ns"), None);
    }
}
