//! Logical regions: the runtime's distributed arrays.
//!
//! A [`Region`] is the plain data holder. The runtime and its executors never
//! share `Region`s directly; they share [`RegionHandle`]s, which put the data
//! behind an interior-mutability-safe lock while keeping the immutable
//! metadata (shape, name) lock-free to read. An executor worker holds a
//! region's lock for a whole launch when the launch views the region in place
//! — the read lock when it only reads it (`RegionHandle::read_guard`), the
//! write lock when it is the one requirement of the launch on the region
//! (`RegionHandle::write_guard`) — and otherwise only for one copy in or out.
//! Readers share the lock, so launches that only read a region, or touch
//! disjoint regions, proceed fully in parallel (see `docs/RUNTIME.md`, "The
//! stage protocol").
//!
//! A panic while a write guard is held poisons the lock. Every lock site here
//! recovers the data from the poisoned lock instead of panicking in turn: the
//! failed launch's dependence cone already marks what it wrote untrustworthy.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

use ir::Rect;

/// Identifier of a logical region.
///
/// Ids are allocated monotonically by [`crate::Runtime`] and never reused,
/// which is what makes freeing a region safe while launches are in flight.
///
/// # Example
///
/// ```
/// use runtime::RegionId;
///
/// assert_eq!(RegionId(7).to_string(), "R7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A logical region: shape metadata plus (optionally) materialized contents.
///
/// In functional executions the contents are held as a single row-major host
/// buffer — distribution is modelled by the cost layer, not by physically
/// splitting the data. In pure-simulation executions (`data == None`) only the
/// metadata exists, which lets the benchmark harness model machine-scale
/// problem sizes without allocating them.
///
/// # Example
///
/// ```
/// use ir::Rect;
/// use runtime::{Region, RegionId};
///
/// let mut r = Region::new(RegionId(0), vec![4, 4], "grid", true);
/// assert_eq!((r.volume(), r.size_bytes()), (16, 128));
/// r.write_rect(&Rect::new(vec![0, 0], vec![1, 4]), &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(r.read_rect(&Rect::new(vec![0, 1], vec![1, 3])), vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// The region's identifier.
    pub id: RegionId,
    /// Rectangular shape.
    pub shape: Vec<u64>,
    /// Row-major contents, when materialized.
    pub data: Option<Vec<f64>>,
    /// Human-readable name.
    pub name: String,
}

impl Region {
    /// Creates a region, materializing zero-initialized contents if
    /// `materialize` is true.
    pub fn new(id: RegionId, shape: Vec<u64>, name: impl Into<String>, materialize: bool) -> Self {
        let volume: u64 = shape.iter().product();
        Region {
            id,
            shape,
            data: if materialize {
                Some(vec![0.0; volume as usize])
            } else {
                None
            },
            name: name.into(),
        }
    }

    /// Number of elements.
    pub fn volume(&self) -> u64 {
        self.shape.iter().product()
    }

    /// Total size in bytes (f64 elements).
    pub fn size_bytes(&self) -> u64 {
        self.volume() * 8
    }

    /// Whether the region's contents are materialized.
    pub fn is_materialized(&self) -> bool {
        self.data.is_some()
    }

    /// Copies the elements inside `rect` into a dense row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the region is not materialized or the rect does not fit the
    /// region's rank.
    pub fn read_rect(&self, rect: &Rect) -> Vec<f64> {
        let mut out = Vec::new();
        self.read_rect_into(rect, &mut out);
        out
    }

    /// [`Region::read_rect`] into a caller-owned buffer: `out` is cleared and
    /// refilled, keeping its allocation when it is large enough (the
    /// executor refreshes the same staging buffer before every stage).
    ///
    /// # Panics
    ///
    /// As [`Region::read_rect`].
    pub fn read_rect_into(&self, rect: &Rect, out: &mut Vec<f64>) {
        let data = self.data.as_ref().expect("region is not materialized");
        // Validate, then reserve: an out-of-range rect must raise the bounds
        // panic the executors catch, not ask the allocator for its volume.
        let runs = rect.runs_in(&self.shape);
        out.clear();
        out.reserve(runs.len());
        for start in runs.starts() {
            out.extend_from_slice(&data[start..start + runs.run_len()]);
        }
    }

    /// Writes a dense row-major buffer into the elements inside `rect`.
    ///
    /// # Panics
    ///
    /// Panics if the region is not materialized, the rect does not fit the
    /// region's rank, or `values` has the wrong length.
    pub fn write_rect(&mut self, rect: &Rect, values: &[f64]) {
        assert_eq!(
            values.len() as u64,
            rect.volume(),
            "value buffer length must equal the rect volume"
        );
        let data = self.data.as_mut().expect("region is not materialized");
        let runs = rect.runs_in(&self.shape);
        let mut values = values;
        for start in runs.starts() {
            let (run, rest) = values.split_at(runs.run_len());
            data[start..start + runs.run_len()].copy_from_slice(run);
            values = rest;
        }
    }
}

/// A shared, thread-safe handle to a [`Region`].
///
/// The handle caches the region's immutable metadata (id, shape and name)
/// outside the lock, so cost accounting and dependency analysis never contend
/// with executor workers; only the mutable contents live behind the
/// [`RwLock`]. Cloning a handle is cheap and yields another reference to the
/// same region.
///
/// Concurrent readers share the lock; a writer takes it exclusively. With no
/// workers the executor runs one launch at a time; with workers its
/// dependency tracking (see [`crate::deps`]) orders every launch that writes
/// a region against every other launch that touches it, at region
/// granularity. The runtime flushes before it touches region data itself —
/// so a launch never waits for the lock of a region it views in place.
///
/// # Example
///
/// ```
/// use runtime::{Region, RegionHandle, RegionId};
/// use ir::Rect;
///
/// let handle = RegionHandle::new(Region::new(RegionId(0), vec![8], "v", true));
/// let clone = handle.clone(); // same underlying region
/// clone.write_rect(&Rect::new(vec![0], vec![2]), &[1.0, 2.0]);
/// assert_eq!(handle.read_rect(&Rect::new(vec![0], vec![2])), vec![1.0, 2.0]);
/// assert_eq!(handle.shape(), &[8]);
/// ```
#[derive(Debug, Clone)]
pub struct RegionHandle {
    /// Immutable metadata, shared so `Clone` is a pure refcount bump.
    meta: Arc<RegionMeta>,
    cell: Arc<RwLock<Region>>,
}

#[derive(Debug)]
struct RegionMeta {
    id: RegionId,
    shape: Vec<u64>,
    name: String,
}

impl RegionHandle {
    /// Wraps a region in a shared handle.
    pub fn new(region: Region) -> Self {
        RegionHandle {
            meta: Arc::new(RegionMeta {
                id: region.id,
                shape: region.shape.clone(),
                name: region.name.clone(),
            }),
            cell: Arc::new(RwLock::new(region)),
        }
    }

    /// The region's shape (immutable for the region's lifetime; lock-free).
    pub fn shape(&self) -> &[u64] {
        &self.meta.shape
    }

    /// The region's human-readable name (lock-free).
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// The region's id (lock-free).
    pub fn id(&self) -> RegionId {
        self.meta.id
    }

    /// The read lock, recovered if a panic poisoned it.
    fn read(&self) -> RwLockReadGuard<'_, Region> {
        self.cell.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The write lock, recovered if a panic poisoned it.
    fn write(&self) -> RwLockWriteGuard<'_, Region> {
        self.cell.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of elements.
    pub fn volume(&self) -> u64 {
        self.meta.shape.iter().product()
    }

    /// Total size in bytes (f64 elements).
    pub fn size_bytes(&self) -> u64 {
        self.volume() * 8
    }

    /// Whether the region's contents are materialized.
    pub fn is_materialized(&self) -> bool {
        self.read().is_materialized()
    }

    /// Copies the elements inside `rect` into a dense row-major buffer,
    /// holding the read lock only for the duration of the copy.
    ///
    /// # Panics
    ///
    /// Panics if the region is not materialized or the rect does not fit.
    pub fn read_rect(&self, rect: &Rect) -> Vec<f64> {
        self.read().read_rect(rect)
    }

    /// [`RegionHandle::read_rect`] into a caller-owned buffer (see
    /// [`Region::read_rect_into`]).
    ///
    /// # Panics
    ///
    /// As [`RegionHandle::read_rect`].
    pub fn read_rect_into(&self, rect: &Rect, out: &mut Vec<f64>) {
        self.read().read_rect_into(rect, out);
    }

    /// The region behind its read lock, for a launch that reads the contents
    /// in place instead of copying them. The caller holds the guard for the
    /// whole launch, so it takes one per region (re-locking a lock this thread
    /// already holds can deadlock) and never while it may write the region.
    ///
    /// The lock is free of writers by construction: with no workers one
    /// launch runs at a time, with workers the executor's
    /// [`crate::DepTracker`] orders every writer of a region against every
    /// launch that reads it, and the runtime flushes before touching region
    /// data itself. Debug builds assert that the guard is taken without
    /// waiting, so a scheduling bug trips an assertion instead of blocking.
    pub(crate) fn read_guard(&self) -> RwLockReadGuard<'_, Region> {
        match self.cell.try_read() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                debug_assert!(
                    false,
                    "a launch reading region {:?} in place had to wait for a writer",
                    self.name()
                );
                self.read()
            }
        }
    }

    /// The region behind its write lock, for a launch that writes the
    /// contents in place instead of staging a copy: the launch's one
    /// requirement on the region, held for the whole launch.
    ///
    /// The lock is free by construction: with no workers one launch runs at a
    /// time, with workers the executor's [`crate::DepTracker`] orders a launch
    /// that writes a region against every other launch that touches it, and
    /// the runtime flushes before touching region data itself. Debug builds assert that the guard is taken without waiting,
    /// as [`RegionHandle::read_guard`] does.
    pub(crate) fn write_guard(&self) -> RwLockWriteGuard<'_, Region> {
        match self.cell.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                debug_assert!(
                    false,
                    "a launch writing region {:?} in place had to wait for the lock",
                    self.name()
                );
                self.write()
            }
        }
    }

    /// Writes a dense row-major buffer into the elements inside `rect`,
    /// holding the write lock only for the duration of the copy.
    ///
    /// # Panics
    ///
    /// Panics if the region is not materialized, the rect does not fit, or
    /// `values` has the wrong length.
    pub fn write_rect(&self, rect: &Rect, values: &[f64]) {
        self.write().write_rect(rect, values);
    }

    /// Fills every materialized element with `value` (no-op when the region is
    /// not materialized).
    pub fn fill(&self, value: f64) {
        if let Some(data) = self.write().data.as_mut() {
            data.fill(value);
        }
    }

    /// A copy of the region's full contents, when materialized.
    pub fn data(&self) -> Option<Vec<f64>> {
        self.read().data.clone()
    }

    /// Overwrites the full contents (no-op when not materialized).
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the region volume.
    pub fn write_data(&self, data: Vec<f64>) {
        // Validate before taking the lock: a panic while holding the write
        // guard would poison the RwLock.
        assert_eq!(
            data.len() as u64,
            self.volume(),
            "data length must match region volume"
        );
        let mut region = self.write();
        if region.is_materialized() {
            region.data = Some(data);
        }
    }
}

/// The element-at-a-time index walk the run-wise copies replaced, kept as
/// their test oracle: the row-major linear indices of the elements of `rect`
/// within an array of the given shape.
#[cfg(test)]
fn rect_indices<'a>(rect: &'a Rect, shape: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    assert_eq!(rect.rank(), shape.len(), "rect rank must match region rank");
    for d in 0..rect.rank() {
        assert!(
            rect.lo[d] >= 0 && rect.hi[d] <= shape[d] as i64,
            "rect {rect} out of bounds for shape {shape:?}"
        );
    }
    let strides: Vec<usize> = {
        let mut s = vec![1usize; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * shape[d + 1] as usize;
        }
        s
    };
    let volume = rect.volume() as usize;
    let rect = rect.clone();
    (0..volume).map(move |mut flat| {
        let mut idx = 0usize;
        for d in (0..rect.rank()).rev() {
            let extent = (rect.hi[d] - rect.lo[d]) as usize;
            let coord = rect.lo[d] as usize + (flat % extent.max(1));
            flat /= extent.max(1);
            idx += coord * strides[d];
        }
        idx
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_creation_and_metadata() {
        let r = Region::new(RegionId(0), vec![4, 4], "grid", true);
        assert_eq!(r.volume(), 16);
        assert_eq!(r.size_bytes(), 128);
        assert!(r.is_materialized());
        let lazy = Region::new(RegionId(1), vec![1 << 20], "big", false);
        assert!(!lazy.is_materialized());
        assert_eq!(lazy.volume(), 1 << 20);
    }

    #[test]
    fn rect_round_trip_1d() {
        let mut r = Region::new(RegionId(0), vec![8], "v", true);
        r.write_rect(&Rect::new(vec![2], vec![5]), &[1.0, 2.0, 3.0]);
        assert_eq!(r.read_rect(&Rect::new(vec![2], vec![5])), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.read_rect(&Rect::new(vec![0], vec![2])), vec![0.0, 0.0]);
    }

    #[test]
    fn rect_round_trip_2d_interior() {
        let mut r = Region::new(RegionId(0), vec![4, 4], "grid", true);
        // Write the 2x2 interior block starting at (1,1).
        let rect = Rect::new(vec![1, 1], vec![3, 3]);
        r.write_rect(&rect, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.read_rect(&rect), vec![1.0, 2.0, 3.0, 4.0]);
        // Check row-major placement: element (1,2) is linear index 6.
        assert_eq!(r.data.as_ref().unwrap()[6], 2.0);
        assert_eq!(r.data.as_ref().unwrap()[9], 3.0);
    }

    #[test]
    fn rect_indices_row_major_order() {
        let rect = Rect::new(vec![1, 0], vec![3, 2]);
        let idx: Vec<usize> = rect_indices(&rect, &[4, 3]).collect();
        assert_eq!(idx, vec![3, 4, 6, 7]);
    }

    /// Every rect (zero-volume ones included) of a row-major array of `shape`.
    fn all_rects(shape: &[u64]) -> Vec<Rect> {
        let mut rects = vec![Rect::new(vec![], vec![])];
        for &n in shape {
            let mut next = Vec::new();
            for r in &rects {
                for lo in 0..=n as i64 {
                    for hi in lo..=n as i64 {
                        let (mut l, mut h) = (r.lo.clone(), r.hi.clone());
                        l.push(lo);
                        h.push(hi);
                        next.push(Rect::new(l, h));
                    }
                }
            }
            rects = next;
        }
        rects
    }

    #[test]
    fn run_wise_copies_match_the_index_walk() {
        // Exhaustive over small shapes rather than sampled, so the classes
        // the run arithmetic distinguishes are all present by construction
        // (asserted below). Miri runs the same test over fewer shapes.
        let shapes: &[&[u64]] = if cfg!(miri) {
            &[&[], &[3], &[3, 4], &[2, 2, 3]]
        } else {
            &[&[], &[1], &[6], &[3, 4], &[4, 1], &[1, 3], &[2, 3, 4], &[3, 1, 2], &[2, 4, 1]]
        };
        let (mut empty, mut single, mut full, mut coalesced, mut interior) = (0, 0, 0, 0, 0);
        for &shape in shapes {
            let mut region = Region::new(RegionId(0), shape.to_vec(), "r", true);
            let volume = region.volume() as usize;
            for rect in all_rects(shape) {
                let before: Vec<f64> = (0..volume).map(|i| i as f64).collect();
                region.data = Some(before.clone());
                let indices: Vec<usize> = rect_indices(&rect, shape).collect();

                // The runs tile the walk in order, and none could be longer.
                let geometry = rect.runs_in(shape);
                let runs: Vec<(usize, usize)> =
                    geometry.starts().map(|start| (start, geometry.run_len())).collect();
                let tiled: Vec<usize> = runs.iter().flat_map(|&(s, l)| s..s + l).collect();
                assert_eq!(tiled, indices, "{rect} in {shape:?}");
                assert!(runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0), "{rect} in {shape:?}");

                // Read, fresh and into a dirty buffer with a stale length.
                let expect: Vec<f64> = indices.iter().map(|&i| before[i]).collect();
                assert_eq!(region.read_rect(&rect), expect, "{rect} in {shape:?}");
                let mut out = vec![f64::NAN; 7];
                region.read_rect_into(&rect, &mut out);
                assert_eq!(out, expect, "{rect} in {shape:?}");

                // Write lands exactly on the walk's elements, then reads back.
                let values: Vec<f64> = (0..indices.len()).map(|k| -1.0 - k as f64).collect();
                let mut after = before;
                for (&i, &v) in indices.iter().zip(&values) {
                    after[i] = v;
                }
                region.write_rect(&rect, &values);
                assert_eq!(region.data.as_ref().unwrap(), &after, "{rect} in {shape:?}");
                assert_eq!(region.read_rect(&rect), values, "{rect} in {shape:?}");

                let rank = shape.len();
                empty += usize::from(indices.is_empty());
                single += usize::from(indices.len() == 1);
                full += usize::from(indices.len() == volume);
                let rows = if rank > 1 { rect.hi[0] - rect.lo[0] } else { 0 };
                coalesced += usize::from(rows > 1 && runs.len() == 1);
                interior += usize::from(
                    rank > 1 && (0..rank).all(|d| rect.lo[d] > 0 && rect.hi[d] < shape[d] as i64)
                        && !indices.is_empty(),
                );
            }
        }
        for class in [empty, single, full, coalesced, interior] {
            assert!(class > 0, "{:?}", (empty, single, full, coalesced, interior));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_rect_panics() {
        let r = Region::new(RegionId(0), vec![4], "v", true);
        let _ = r.read_rect(&Rect::new(vec![2], vec![6]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn huge_out_of_bounds_rect_panics_before_reserving() {
        // Reserving the rect's 2^40 elements first would abort the process in
        // the allocator instead of raising the panic the executors catch.
        let r = Region::new(RegionId(0), vec![8], "v", true);
        let _ = r.read_rect(&Rect::new(vec![0], vec![1 << 40]));
    }

    #[test]
    #[should_panic]
    fn unmaterialized_read_panics() {
        let r = Region::new(RegionId(0), vec![4], "v", false);
        let _ = r.read_rect(&Rect::new(vec![0], vec![2]));
    }

    #[test]
    #[should_panic]
    fn wrong_length_write_panics() {
        let mut r = Region::new(RegionId(0), vec![4], "v", true);
        r.write_rect(&Rect::new(vec![0], vec![2]), &[1.0]);
    }

    #[test]
    fn handle_shares_one_region_across_clones() {
        let h = RegionHandle::new(Region::new(RegionId(3), vec![2, 3], "grid", true));
        assert_eq!(h.shape(), &[2, 3]);
        assert_eq!(h.name(), "grid");
        assert_eq!(h.volume(), 6);
        assert_eq!(h.size_bytes(), 48);
        let other = h.clone();
        other.fill(4.0);
        assert_eq!(h.data().unwrap(), vec![4.0; 6]);
        other.write_data(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(h.read_rect(&Rect::new(vec![1, 0], vec![2, 3])), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn unmaterialized_handle_has_no_data() {
        let h = RegionHandle::new(Region::new(RegionId(0), vec![16], "lazy", false));
        assert!(!h.is_materialized());
        assert!(h.data().is_none());
        h.fill(1.0); // no-op, must not panic
        assert!(h.data().is_none());
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RegionHandle>();
    }
}
