//! Distributed dense arrays and their NumPy-like operations.

use std::ops::Range;

use diffuse::{LaunchBuilder, StoreHandle};
use ir::{Partition, PartitionId, Projection, ReductionOp};
use kernel::TaskKind;

use crate::context::DenseContext;

/// A distributed dense array (or a view of one).
///
/// A `DArray` wraps a Diffuse store handle plus view metadata. Full arrays own
/// their store; slices share the parent store and are represented as offset
/// tilings of it, so aliasing between views is visible to the fusion analysis
/// exactly as in Figure 1.
#[derive(Clone, Debug)]
pub struct DArray {
    ctx: DenseContext,
    handle: StoreHandle,
    view_offset: Vec<i64>,
    view_shape: Vec<u64>,
    /// Lazily computed interned partition id (see [`DArray::partition_id`]).
    partition_cache: std::cell::Cell<Option<PartitionId>>,
}

impl DArray {
    pub(crate) fn full_store(ctx: DenseContext, handle: StoreHandle) -> DArray {
        let shape = handle.shape().to_vec();
        DArray {
            ctx,
            handle,
            view_offset: vec![0; shape.len()],
            view_shape: shape,
            partition_cache: std::cell::Cell::new(None),
        }
    }

    /// The view's shape.
    pub fn shape(&self) -> &[u64] {
        &self.view_shape
    }

    /// Number of elements in the view.
    pub fn len(&self) -> u64 {
        self.view_shape.iter().product()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this array is a view of a larger parent store.
    pub fn is_view(&self) -> bool {
        self.view_shape != self.handle.shape() || self.view_offset.iter().any(|&o| o != 0)
    }

    /// The underlying store handle (shared with all views of the same data).
    pub fn handle(&self) -> &StoreHandle {
        &self.handle
    }

    /// The dense library context this array belongs to.
    pub fn dense_context(&self) -> &DenseContext {
        &self.ctx
    }

    /// The partition through which index tasks access this array: a block
    /// tiling of the parent store covering exactly this view, with one block
    /// per GPU (rows are blocked for 2-D arrays). Scalars are replicated.
    ///
    /// # Panics
    ///
    /// Panics if a strict view's leading dimension is not divisible by the
    /// number of GPUs (blocks would spill outside the view).
    pub fn partition(&self) -> Partition {
        let gpus = self.ctx.gpus().max(1);
        if self.len() <= 1 {
            return Partition::Replicate;
        }
        let rows = self.view_shape[0];
        if self.is_view() {
            assert!(
                rows.is_multiple_of(gpus) || gpus == 1,
                "view leading dimension {rows} must be divisible by the GPU count {gpus}"
            );
        }
        let rows_per_gpu = rows.div_ceil(gpus).max(1);
        match self.view_shape.len() {
            1 => Partition::tiling(
                vec![rows_per_gpu],
                vec![self.view_offset[0]],
                Projection::Identity,
            ),
            2 => Partition::tiling(
                vec![rows_per_gpu, self.view_shape[1]],
                self.view_offset.clone(),
                Projection::PadZeros { rank: 2 },
            ),
            rank => panic!("unsupported array rank {rank}"),
        }
    }

    /// The interned id of [`DArray::partition`]: what the store-argument
    /// builders actually hand to the window, so submissions carry a `Copy`
    /// id rather than an owned partition structure. The id is a pure
    /// function of the view and GPU count (both fixed at creation), so it
    /// is computed once and cached — repeated operations on the same array
    /// never rebuild or re-hash the partition.
    pub fn partition_id(&self) -> PartitionId {
        if let Some(id) = self.partition_cache.get() {
            return id;
        }
        let id = PartitionId::intern(&self.partition());
        self.partition_cache.set(Some(id));
        id
    }

    /// A fresh full array of this view's shape. Unless this is a view, its
    /// partition is this one — the same pure function of shape and GPU count
    /// — so it takes this array's interned id instead of interning again.
    fn fresh_like(&self) -> DArray {
        let handle = self
            .ctx
            .context()
            .create_store(self.view_shape.clone(), "tmp");
        let out = DArray::full_store(self.ctx.clone(), handle);
        if !self.is_view() {
            out.partition_cache.set(Some(self.partition_id()));
        }
        out
    }

    fn fresh_scalar(&self) -> DArray {
        let handle = self.ctx.context().create_store(vec![1], "scalar");
        DArray::full_store(self.ctx.clone(), handle)
    }

    /// Starts a typed launch of `kind` on the library's context. All array
    /// operations lower through this one entry point.
    fn task(&self, kind: TaskKind, name: &str) -> LaunchBuilder {
        self.ctx.context().task(kind).name(name)
    }

    fn binary(&self, other: &DArray, kind: TaskKind, name: &str) -> DArray {
        assert_eq!(
            self.view_shape, other.view_shape,
            "elementwise operands must have equal shapes"
        );
        let out = self.fresh_like();
        self.task(kind, name)
            .read(&self.handle, self.partition_id())
            .read(&other.handle, other.partition_id())
            .write(&out.handle, out.partition_id())
            .launch();
        out
    }

    fn unary(&self, kind: TaskKind, name: &str) -> DArray {
        let out = self.fresh_like();
        self.task(kind, name)
            .read(&self.handle, self.partition_id())
            .write(&out.handle, out.partition_id())
            .launch();
        out
    }

    fn scalar_op(&self, kind: TaskKind, name: &str, value: f64) -> DArray {
        let out = self.fresh_like();
        self.task(kind, name)
            .read(&self.handle, self.partition_id())
            .write(&out.handle, out.partition_id())
            .scalar(value)
            .launch();
        out
    }

    /// Fills the array (or view) with a constant value.
    pub fn fill(&self, value: f64) {
        self.task(self.ctx.kinds.fill, "fill")
            .write(&self.handle, self.partition_id())
            .scalar(value)
            .launch();
    }

    /// Elementwise addition.
    pub fn add(&self, other: &DArray) -> DArray {
        self.binary(other, self.ctx.kinds.add, "add")
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &DArray) -> DArray {
        self.binary(other, self.ctx.kinds.sub, "sub")
    }

    /// Elementwise multiplication.
    pub fn mul(&self, other: &DArray) -> DArray {
        self.binary(other, self.ctx.kinds.mul, "mul")
    }

    /// Elementwise division.
    pub fn div(&self, other: &DArray) -> DArray {
        self.binary(other, self.ctx.kinds.div, "div")
    }

    /// Elementwise maximum.
    pub fn maximum(&self, other: &DArray) -> DArray {
        self.binary(other, self.ctx.kinds.max, "maximum")
    }

    /// Elementwise minimum.
    pub fn minimum(&self, other: &DArray) -> DArray {
        self.binary(other, self.ctx.kinds.min, "minimum")
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> DArray {
        self.unary(self.ctx.kinds.sqrt, "sqrt")
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> DArray {
        self.unary(self.ctx.kinds.exp, "exp")
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> DArray {
        self.unary(self.ctx.kinds.ln, "log")
    }

    /// Elementwise error function.
    pub fn erf(&self) -> DArray {
        self.unary(self.ctx.kinds.erf, "erf")
    }

    /// Elementwise negation.
    pub fn neg(&self) -> DArray {
        self.unary(self.ctx.kinds.neg, "negative")
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> DArray {
        self.unary(self.ctx.kinds.abs, "absolute")
    }

    /// Multiply every element by a constant.
    pub fn scalar_mul(&self, value: f64) -> DArray {
        self.scalar_op(self.ctx.kinds.scalar_mul, "scalar_mul", value)
    }

    /// Add a constant to every element.
    pub fn scalar_add(&self, value: f64) -> DArray {
        self.scalar_op(self.ctx.kinds.scalar_add, "scalar_add", value)
    }

    /// Subtract a constant from every element.
    pub fn scalar_sub(&self, value: f64) -> DArray {
        self.scalar_op(self.ctx.kinds.scalar_add, "scalar_sub", -value)
    }

    /// Raise every element to a constant power.
    pub fn powf(&self, value: f64) -> DArray {
        self.scalar_op(self.ctx.kinds.scalar_pow, "power", value)
    }

    /// Compute `value - self` elementwise.
    pub fn rsub_scalar(&self, value: f64) -> DArray {
        self.scalar_op(self.ctx.kinds.scalar_rsub, "scalar_rsub", value)
    }

    /// Copy this array into a fresh array.
    pub fn copy(&self) -> DArray {
        self.unary(self.ctx.kinds.copy, "copy")
    }

    /// Assign `src` into this array or view (`self[:] = src`).
    pub fn assign(&self, src: &DArray) {
        assert_eq!(
            self.view_shape, src.view_shape,
            "assignment operands must have equal shapes"
        );
        self.task(self.ctx.kinds.copy, "copy")
            .read(&src.handle, src.partition_id())
            .write(&self.handle, self.partition_id())
            .launch();
    }

    /// `self + sign * alpha * x`, where `alpha` is a scalar array (the AXPY
    /// building block of the Krylov solvers).
    pub fn axpy(&self, alpha: &DArray, x: &DArray, sign: f64) -> DArray {
        assert_eq!(alpha.len(), 1, "alpha must be a scalar array");
        let out = self.fresh_like();
        self.task(self.ctx.kinds.axpy, "axpy")
            .read(&self.handle, self.partition_id())
            .read(&x.handle, x.partition_id())
            .read(&alpha.handle, Partition::Replicate)
            .write(&out.handle, out.partition_id())
            .scalar(sign)
            .launch();
        out
    }

    /// `s * self`, where `s` is a scalar array.
    pub fn scale_by(&self, s: &DArray) -> DArray {
        assert_eq!(s.len(), 1, "scale factor must be a scalar array");
        let out = self.fresh_like();
        self.task(self.ctx.kinds.scale_by_store, "scale_by_store")
            .read(&self.handle, self.partition_id())
            .read(&s.handle, Partition::Replicate)
            .write(&out.handle, out.partition_id())
            .launch();
        out
    }

    /// Dot product, returning a scalar array.
    pub fn dot(&self, other: &DArray) -> DArray {
        assert_eq!(self.view_shape, other.view_shape, "dot operands must match");
        let out = self.fresh_scalar();
        self.task(self.ctx.kinds.dot, "dot")
            .read(&self.handle, self.partition_id())
            .read(&other.handle, other.partition_id())
            .reduce(&out.handle, Partition::Replicate, ReductionOp::Sum)
            .launch();
        out
    }

    /// Sum of all elements, returning a scalar array.
    pub fn sum(&self) -> DArray {
        let out = self.fresh_scalar();
        self.task(self.ctx.kinds.sum, "sum")
            .read(&self.handle, self.partition_id())
            .reduce(&out.handle, Partition::Replicate, ReductionOp::Sum)
            .launch();
        out
    }

    /// Sum of squares, returning a scalar array.
    pub fn sum_sq(&self) -> DArray {
        let out = self.fresh_scalar();
        self.task(self.ctx.kinds.sum_sq, "sum_sq")
            .read(&self.handle, self.partition_id())
            .reduce(&out.handle, Partition::Replicate, ReductionOp::Sum)
            .launch();
        out
    }

    /// Euclidean norm, returning a scalar array (`sqrt(sum(self^2))`, as
    /// `numpy.linalg.norm` would).
    pub fn norm2(&self) -> DArray {
        self.sum_sq().sqrt()
    }

    /// Dense matrix-vector product `self @ x`, where `self` is a 2-D array.
    pub fn matvec(&self, x: &DArray) -> DArray {
        assert_eq!(self.view_shape.len(), 2, "matvec needs a matrix");
        assert_eq!(self.view_shape[1], x.len(), "dimension mismatch in matvec");
        let y_handle = self
            .ctx
            .context()
            .create_store(vec![self.view_shape[0]], "matvec");
        let y = DArray::full_store(self.ctx.clone(), y_handle);
        self.task(self.ctx.kinds.gemv, "gemv")
            .read(&self.handle, self.partition_id())
            .read(&x.handle, Partition::Replicate)
            .write(&y.handle, y.partition_id())
            .launch();
        y
    }

    /// A one-dimensional slice view `self[range]`.
    ///
    /// # Panics
    ///
    /// Panics if the array is not one-dimensional or the range is out of
    /// bounds.
    pub fn slice_1d(&self, range: Range<u64>) -> DArray {
        assert_eq!(self.view_shape.len(), 1, "slice_1d needs a vector");
        assert!(range.end <= self.view_shape[0] && range.start <= range.end);
        DArray {
            ctx: self.ctx.clone(),
            handle: self.handle.clone(),
            view_offset: vec![self.view_offset[0] + range.start as i64],
            view_shape: vec![range.end - range.start],
            partition_cache: std::cell::Cell::new(None),
        }
    }

    /// A two-dimensional slice view `self[rows, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if the array is not two-dimensional or a range is out of bounds.
    pub fn slice_2d(&self, rows: Range<u64>, cols: Range<u64>) -> DArray {
        assert_eq!(self.view_shape.len(), 2, "slice_2d needs a matrix");
        assert!(rows.end <= self.view_shape[0] && cols.end <= self.view_shape[1]);
        DArray {
            ctx: self.ctx.clone(),
            handle: self.handle.clone(),
            view_offset: vec![
                self.view_offset[0] + rows.start as i64,
                self.view_offset[1] + cols.start as i64,
            ],
            view_shape: vec![rows.end - rows.start, cols.end - cols.start],
            partition_cache: std::cell::Cell::new(None),
        }
    }

    /// Reads back the view's contents (functional mode only).
    pub fn to_vec(&self) -> Option<Vec<f64>> {
        let parent = self.ctx.context().read_store(&self.handle)?;
        if !self.is_view() {
            return Some(parent);
        }
        let parent_shape = self.handle.shape();
        let rect = ir::Rect::new(
            self.view_offset.clone(),
            self.view_offset
                .iter()
                .zip(&self.view_shape)
                .map(|(&o, &s)| o + s as i64)
                .collect(),
        );
        let mut out = Vec::with_capacity(self.len() as usize);
        // Row-major walk over the view rect.
        let strides: Vec<usize> = {
            let mut s = vec![1usize; parent_shape.len()];
            for d in (0..parent_shape.len().saturating_sub(1)).rev() {
                s[d] = s[d + 1] * parent_shape[d + 1] as usize;
            }
            s
        };
        let volume = rect.volume() as usize;
        for mut flat in 0..volume {
            let mut idx = 0usize;
            for d in (0..rect.rank()).rev() {
                let extent = (rect.hi[d] - rect.lo[d]) as usize;
                let coord = rect.lo[d] as usize + (flat % extent.max(1));
                flat /= extent.max(1);
                idx += coord * strides[d];
            }
            out.push(parent[idx]);
        }
        Some(out)
    }

    /// Reads back a scalar array's value (functional mode only).
    pub fn scalar_value(&self) -> Option<f64> {
        self.ctx.context().read_scalar(&self.handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse::{Context, DiffuseConfig};
    use machine::MachineConfig;

    fn np(gpus: usize) -> DenseContext {
        DenseContext::new(Context::new(DiffuseConfig::fused(MachineConfig::with_gpus(gpus))))
    }

    #[test]
    fn a_derived_array_takes_its_sources_partition_id_unless_the_source_is_a_view() {
        let np = np(2);
        let full = np.zeros(&[4, 6]);
        let out = full.scalar_mul(2.0);
        assert_eq!(out.partition_cache.get(), Some(full.partition_id()), "inherited");
        assert_eq!(out.partition_id(), PartitionId::intern(&out.partition()));
        // An offset view's partition is not its output's: the output interns
        // its own.
        let view = full.slice_2d(2..4, 1..5);
        let derived = view.scalar_mul(2.0);
        assert_ne!(view.partition_id(), PartitionId::intern(&derived.partition()));
        assert_eq!(derived.partition_id(), PartitionId::intern(&derived.partition()));
    }

    #[test]
    fn elementwise_arithmetic() {
        let np = np(4);
        let a = np.from_vec(&[8], (0..8).map(|i| i as f64).collect());
        let b = np.full(&[8], 2.0);
        assert_eq!(a.add(&b).to_vec().unwrap()[3], 5.0);
        assert_eq!(a.sub(&b).to_vec().unwrap()[3], 1.0);
        assert_eq!(a.mul(&b).to_vec().unwrap()[3], 6.0);
        assert_eq!(a.div(&b).to_vec().unwrap()[3], 1.5);
        assert_eq!(a.maximum(&b).to_vec().unwrap()[0], 2.0);
        assert_eq!(a.minimum(&b).to_vec().unwrap()[7], 2.0);
    }

    #[test]
    fn unary_and_scalar_ops() {
        let np = np(2);
        let a = np.from_vec(&[4], vec![1.0, 4.0, 9.0, 16.0]);
        assert_eq!(a.sqrt().to_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.scalar_mul(2.0).to_vec().unwrap()[1], 8.0);
        assert_eq!(a.scalar_add(1.0).to_vec().unwrap()[0], 2.0);
        assert_eq!(a.scalar_sub(1.0).to_vec().unwrap()[0], 0.0);
        assert_eq!(a.rsub_scalar(20.0).to_vec().unwrap()[3], 4.0);
        assert_eq!(a.powf(2.0).to_vec().unwrap()[1], 16.0);
        assert_eq!(a.neg().to_vec().unwrap()[0], -1.0);
        assert_eq!(a.neg().abs().to_vec().unwrap()[0], 1.0);
        assert!((a.exp().to_vec().unwrap()[0] - std::f64::consts::E).abs() < 1e-12);
        assert!((a.ln().to_vec().unwrap()[0]).abs() < 1e-12);
        assert_eq!(a.copy().to_vec().unwrap(), a.to_vec().unwrap());
    }

    #[test]
    fn reductions_and_axpy() {
        let np = np(4);
        let a = np.from_vec(&[8], vec![1.0; 8]);
        let b = np.from_vec(&[8], (1..=8).map(|i| i as f64).collect());
        assert_eq!(a.dot(&b).scalar_value().unwrap(), 36.0);
        assert_eq!(b.sum().scalar_value().unwrap(), 36.0);
        assert_eq!(a.sum_sq().scalar_value().unwrap(), 8.0);
        assert!((a.norm2().scalar_value().unwrap() - 8.0f64.sqrt()).abs() < 1e-12);
        let alpha = np.scalar(2.0);
        // a + 2 * b
        let y = a.axpy(&alpha, &b, 1.0);
        assert_eq!(y.to_vec().unwrap()[2], 1.0 + 2.0 * 3.0);
        // a - 2 * b
        let y = a.axpy(&alpha, &b, -1.0);
        assert_eq!(y.to_vec().unwrap()[2], 1.0 - 2.0 * 3.0);
        let s = b.scale_by(&alpha);
        assert_eq!(s.to_vec().unwrap()[3], 8.0);
    }

    #[test]
    fn matvec_matches_reference() {
        let np = np(2);
        // [[1, 2], [3, 4]] @ [1, 1] = [3, 7]
        let a = np.from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let x = np.from_vec(&[2], vec![1.0, 1.0]);
        assert_eq!(a.matvec(&x).to_vec().unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn views_alias_their_parent() {
        let np = np(2);
        let grid = np.from_vec(&[4, 4], (0..16).map(|i| i as f64).collect());
        let interior = grid.slice_2d(1..3, 1..3);
        assert!(interior.is_view());
        assert_eq!(interior.to_vec().unwrap(), vec![5.0, 6.0, 9.0, 10.0]);
        // Writing through the view changes the parent.
        interior.fill(-1.0);
        np.flush();
        let parent = grid.to_vec().unwrap();
        assert_eq!(parent[5], -1.0);
        assert_eq!(parent[10], -1.0);
        assert_eq!(parent[0], 0.0);
        // Views of the same parent share a store but have different partitions.
        let other = grid.slice_2d(0..2, 1..3);
        assert_eq!(other.handle().id(), interior.handle().id());
        assert_ne!(other.partition(), interior.partition());
    }

    #[test]
    fn slice_1d_assign_round_trip() {
        let np = np(2);
        let v = np.from_vec(&[8], vec![0.0; 8]);
        let left = v.slice_1d(0..4);
        let right = v.slice_1d(4..8);
        let ones = np.ones(&[4]);
        left.assign(&ones);
        np.flush();
        assert_eq!(left.to_vec().unwrap(), vec![1.0; 4]);
        assert_eq!(right.to_vec().unwrap(), vec![0.0; 4]);
        assert_eq!(v.to_vec().unwrap()[..4], [1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn figure1_stencil_iteration_is_correct_and_fuses() {
        let run = |fused: bool| {
            let machine = MachineConfig::with_gpus(4);
            let config = if fused {
                DiffuseConfig::fused(machine)
            } else {
                DiffuseConfig::unfused(machine)
            };
            let np = DenseContext::new(Context::new(config));
            let n = 16u64;
            let grid = np.from_vec(
                &[n + 2, n + 2],
                (0..(n + 2) * (n + 2)).map(|i| (i % 7) as f64).collect(),
            );
            let center = grid.slice_2d(1..n + 1, 1..n + 1);
            let north = grid.slice_2d(0..n, 1..n + 1);
            let south = grid.slice_2d(2..n + 2, 1..n + 1);
            let east = grid.slice_2d(1..n + 1, 2..n + 2);
            let west = grid.slice_2d(1..n + 1, 0..n);
            for _ in 0..3 {
                let avg = center.add(&north).add(&east).add(&west).add(&south);
                let work = avg.scalar_mul(0.2);
                center.assign(&work);
            }
            np.flush();
            let result = center.to_vec().unwrap();
            let stats = np.context().stats();
            (result, stats)
        };
        let (fused_result, fused_stats) = run(true);
        let (unfused_result, unfused_stats) = run(false);
        for (a, b) in fused_result.iter().zip(&unfused_result) {
            assert!((a - b).abs() < 1e-9, "fused and unfused stencil disagree");
        }
        assert!(
            fused_stats.tasks_launched < unfused_stats.tasks_launched,
            "fusion must reduce the number of launched tasks"
        );
        assert!(fused_stats.fused_tasks >= 1);
    }

    #[test]
    fn partition_shapes() {
        let np = np(4);
        let v = np.zeros(&[16]);
        assert_eq!(
            v.partition(),
            Partition::tiling(vec![4], vec![0], Projection::Identity)
        );
        let m = np.zeros(&[8, 4]);
        assert_eq!(
            m.partition(),
            Partition::tiling(vec![2, 4], vec![0, 0], Projection::PadZeros { rank: 2 })
        );
        let s = np.scalar(1.0);
        assert_eq!(s.partition(), Partition::Replicate);
    }
}
