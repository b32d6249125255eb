//! Points, rectangular domains and rectangles.

/// A point in an n-dimensional integer space.
pub type Point = Vec<i64>;

/// A rectangular, origin-anchored domain described by its shape (the exclusive
/// upper bound of every dimension). Used both for store shapes and for index
/// task launch domains.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Domain {
    shape: Vec<u64>,
}

impl Domain {
    /// Creates a domain with the given shape.
    pub fn new(shape: Vec<u64>) -> Self {
        Domain { shape }
    }

    /// A one-dimensional domain of `n` points.
    pub fn linear(n: u64) -> Self {
        Domain { shape: vec![n] }
    }

    /// The shape of the domain.
    pub fn shape(&self) -> &[u64] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.shape.len()
    }

    /// Number of points in the domain (product of the shape).
    pub fn size(&self) -> u64 {
        self.shape.iter().product()
    }

    /// Whether the domain contains no points.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// Whether `point` lies inside the domain.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.shape.len()
            && point
                .iter()
                .zip(&self.shape)
                .all(|(&p, &s)| p >= 0 && (p as u64) < s)
    }

    /// Iterates over every point in the domain in row-major order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        let total = self.size();
        let shape = self.shape.clone();
        (0..total).map(move |mut idx| {
            let mut p = vec![0i64; shape.len()];
            for d in (0..shape.len()).rev() {
                let extent = shape[d].max(1);
                p[d] = (idx % extent) as i64;
                idx /= extent;
            }
            p
        })
    }

    /// The whole domain as a rectangle anchored at the origin.
    pub fn to_rect(&self) -> Rect {
        Rect {
            lo: vec![0; self.shape.len()],
            hi: self.shape.iter().map(|&s| s as i64).collect(),
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.shape.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// A half-open rectangle `[lo, hi)` in n-dimensional integer space. Used for
/// sub-store bounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Inclusive lower bound of each dimension.
    pub lo: Vec<i64>,
    /// Exclusive upper bound of each dimension.
    pub hi: Vec<i64>,
}

impl Rect {
    /// Creates a rectangle from inclusive lower and exclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds have different dimensionality.
    pub fn new(lo: Vec<i64>, hi: Vec<i64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "rect bounds must have equal rank");
        Rect { lo, hi }
    }

    /// An empty rectangle of the given rank.
    pub fn empty(rank: usize) -> Self {
        Rect {
            lo: vec![0; rank],
            hi: vec![0; rank],
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// Whether the rectangle contains no points.
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(&l, &h)| h <= l)
    }

    /// Number of points in the rectangle.
    pub fn volume(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| (h - l) as u64)
            .product()
    }

    /// The intersection of two rectangles.
    ///
    /// # Panics
    ///
    /// Panics if the rectangles have different rank.
    pub fn intersect(&self, other: &Rect) -> Rect {
        assert_eq!(self.rank(), other.rank(), "rank mismatch in intersect");
        let lo: Vec<i64> = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.max(b))
            .collect();
        let hi: Vec<i64> = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.min(b))
            .collect();
        Rect { lo, hi }
    }

    /// Whether two rectangles overlap in at least one point.
    pub fn overlaps(&self, other: &Rect) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Whether `self` entirely contains `other`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        if other.is_empty() {
            return true;
        }
        self.lo
            .iter()
            .zip(&other.lo)
            .all(|(&a, &b)| a <= b)
            && self.hi.iter().zip(&other.hi).all(|(&a, &b)| a >= b)
    }

    /// The maximal contiguous runs of this rect within a row-major array of
    /// the given shape: one run per innermost-dimension row, coalesced across
    /// every trailing dimension the rect spans entirely — a 1-D tile, a single
    /// row or a full-width block of rows is one run. A zero-volume rect has no
    /// runs; a rank-0 rect is the one element.
    ///
    /// # Panics
    ///
    /// Panics if the rect rank differs from the shape rank or the rect extends
    /// outside the shape.
    ///
    /// # Example
    ///
    /// ```
    /// use ir::Rect;
    ///
    /// // The 2 x 2 interior of a 4 x 4 array: rows at offsets 5 and 9.
    /// let runs = Rect::new(vec![1, 1], vec![3, 3]).runs_in(&[4, 4]);
    /// assert_eq!((runs.run_len(), runs.len()), (2, 4));
    /// assert_eq!(runs.starts().collect::<Vec<_>>(), vec![5, 9]);
    /// assert_eq!(runs.offset(3), 10);
    /// // Two full rows coalesce into one run.
    /// assert!(Rect::new(vec![1, 0], vec![3, 4]).runs_in(&[4, 4]).is_contiguous());
    /// ```
    pub fn runs_in(&self, shape: &[u64]) -> Runs {
        assert_eq!(self.rank(), shape.len(), "rect rank must match region rank");
        for d in 0..self.rank() {
            assert!(
                self.lo[d] >= 0 && self.hi[d] <= shape[d] as i64,
                "rect {self} out of bounds for shape {shape:?}"
            );
        }
        if self.volume() == 0 {
            return Runs {
                first: 0,
                run_len: 0,
                outer: Vec::new(),
            };
        }
        let extent = |d: usize| (self.hi[d] - self.lo[d]) as usize;
        // Fold trailing full-span dimensions into the run: afterwards `stride`
        // is the row-major stride of the run dimension `dim` (when there is
        // one) and dimensions `0..dim` enumerate the runs.
        let mut dim = self.rank().saturating_sub(1);
        let mut stride = 1usize;
        while dim > 0 && extent(dim) == shape[dim] as usize {
            stride *= shape[dim] as usize;
            dim -= 1;
        }
        let (mut first, run_len) = match self.rank() {
            0 => (0, 1),
            _ => (self.lo[dim] as usize * stride, extent(dim) * stride),
        };
        let mut outer = Vec::new();
        for d in (0..dim).rev() {
            stride *= shape[d + 1] as usize;
            first += self.lo[d] as usize * stride;
            // A dimension of extent 1 enumerates nothing: it only moves `first`.
            if extent(d) > 1 {
                outer.push((extent(d), stride));
            }
        }
        Runs {
            first,
            run_len,
            outer,
        }
    }
}

/// The run geometry of a rect within a row-major array ([`Rect::runs_in`]):
/// equal-length contiguous runs at regular strides. The rect's elements in
/// row-major order — its *logical* index space `0..len()` — are the runs laid
/// end to end. It is the one decomposition behind the runtime's rect copies
/// and the kernel's read-only buffer views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Runs {
    /// Array offset of the first run.
    first: usize,
    /// Elements per run (0 for a zero-volume rect).
    run_len: usize,
    /// `(extent, stride)` of every dimension that enumerates runs, innermost
    /// first; empty when the rect is a single run.
    outer: Vec<(usize, usize)>,
}

impl Runs {
    /// Elements per run.
    pub fn run_len(&self) -> usize {
        self.run_len
    }

    /// Number of runs.
    pub fn count(&self) -> usize {
        if self.run_len == 0 {
            return 0;
        }
        self.outer.iter().map(|&(extent, _)| extent).product()
    }

    /// Number of elements (the rect's volume).
    pub fn len(&self) -> usize {
        self.run_len * self.count()
    }

    /// Whether the rect has no elements.
    pub fn is_empty(&self) -> bool {
        self.run_len == 0
    }

    /// Whether the elements are one contiguous slice of the array (also true
    /// of a rect with no elements).
    pub fn is_contiguous(&self) -> bool {
        self.outer.is_empty()
    }

    /// Array offset of run number `run` (`run < count()`).
    pub fn start(&self, mut run: usize) -> usize {
        let Some((&(outermost, stride), inner)) = self.outer.split_last() else {
            return self.first;
        };
        let mut start = self.first;
        for &(extent, stride) in inner {
            start += run % extent * stride;
            run /= extent;
        }
        // What is left is the outermost coordinate itself: no division, which
        // is most of what a strided 2-D view pays per element read.
        debug_assert!(run < outermost, "run number past the last run");
        start + run * stride
    }

    /// Array offsets of the runs, in row-major order.
    pub fn starts(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.count()).map(|run| self.start(run))
    }

    /// Array offset of logical element `i` (`i < len()`).
    pub fn offset(&self, i: usize) -> usize {
        if self.is_contiguous() {
            self.first + i
        } else {
            self.start(i / self.run_len) + i % self.run_len
        }
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}, {:?})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_size_and_contains() {
        let d = Domain::new(vec![4, 3]);
        assert_eq!(d.size(), 12);
        assert_eq!(d.dims(), 2);
        assert!(!d.is_empty());
        assert!(d.contains(&[3, 2]));
        assert!(!d.contains(&[4, 0]));
        assert!(!d.contains(&[0, -1]));
        assert!(!d.contains(&[0]));
    }

    #[test]
    fn domain_points_row_major() {
        let d = Domain::new(vec![2, 2]);
        let pts: Vec<_> = d.points().collect();
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn linear_domain() {
        let d = Domain::linear(5);
        assert_eq!(d.size(), 5);
        assert_eq!(d.points().count(), 5);
        assert_eq!(d.to_string(), "(5)");
    }

    #[test]
    fn empty_domain() {
        let d = Domain::new(vec![0, 4]);
        assert!(d.is_empty());
        assert_eq!(d.points().count(), 0);
    }

    #[test]
    fn rect_volume_and_empty() {
        let r = Rect::new(vec![1, 1], vec![3, 4]);
        assert_eq!(r.volume(), 6);
        assert!(!r.is_empty());
        assert!(Rect::new(vec![2], vec![2]).is_empty());
        assert_eq!(Rect::empty(2).volume(), 0);
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(vec![0, 0], vec![4, 4]);
        let b = Rect::new(vec![2, 2], vec![6, 6]);
        let i = a.intersect(&b);
        assert_eq!(i, Rect::new(vec![2, 2], vec![4, 4]));
        assert!(a.overlaps(&b));
        let c = Rect::new(vec![4, 0], vec![8, 4]);
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn rect_containment() {
        let outer = Rect::new(vec![0, 0], vec![4, 4]);
        let inner = Rect::new(vec![1, 1], vec![3, 3]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&Rect::empty(2)));
    }

    #[test]
    fn domain_to_rect() {
        let d = Domain::new(vec![3, 2]);
        assert_eq!(d.to_rect(), Rect::new(vec![0, 0], vec![3, 2]));
    }

    #[test]
    #[should_panic]
    fn rect_rank_mismatch_panics() {
        let _ = Rect::new(vec![0], vec![1, 2]);
    }

    /// Every rect (zero-volume ones included) of an array of `shape`, each
    /// with the row-major array offsets of its elements in row-major order.
    fn all_rects(shape: &[u64]) -> Vec<(Rect, Vec<usize>)> {
        let mut rects = vec![(Rect::new(vec![], vec![]), vec![0usize])];
        for &n in shape {
            let mut next = Vec::new();
            for (r, offsets) in &rects {
                for lo in 0..=n as i64 {
                    for hi in lo..=n as i64 {
                        let (mut l, mut h) = (r.lo.clone(), r.hi.clone());
                        l.push(lo);
                        h.push(hi);
                        let offsets = offsets
                            .iter()
                            .flat_map(|&o| (lo..hi).map(move |c| o * n as usize + c as usize))
                            .collect();
                        next.push((Rect::new(l, h), offsets));
                    }
                }
            }
            rects = next;
        }
        rects
    }

    #[test]
    fn runs_tile_the_rect_in_row_major_order() {
        // Exhaustive over small shapes, so every class the run arithmetic
        // distinguishes is present by construction (asserted below).
        let shapes: &[&[u64]] = if cfg!(miri) {
            &[&[], &[3], &[3, 4], &[2, 2, 3]]
        } else {
            &[&[], &[1], &[6], &[3, 4], &[4, 1], &[1, 3], &[2, 3, 4], &[3, 1, 2], &[2, 4, 1], &[3, 3, 3]]
        };
        let (mut empty, mut single_row, mut coalesced, mut strided, mut deep) = (0, 0, 0, 0, 0);
        for &shape in shapes {
            for (rect, offsets) in all_rects(shape) {
                let runs = rect.runs_in(shape);
                assert_eq!(runs.len() as u64, rect.volume(), "{rect} in {shape:?}");
                assert_eq!(runs.is_empty(), offsets.is_empty(), "{rect} in {shape:?}");
                let starts: Vec<usize> = runs.starts().collect();
                assert_eq!(starts.len(), runs.count(), "{rect} in {shape:?}");
                let tiled: Vec<usize> =
                    starts.iter().flat_map(|&s| s..s + runs.run_len()).collect();
                assert_eq!(tiled, offsets, "{rect} in {shape:?}");
                // No run could be longer: consecutive runs never touch.
                assert!(
                    starts.windows(2).all(|w| w[0] + runs.run_len() < w[1]),
                    "{rect} in {shape:?}"
                );
                assert_eq!(runs.is_contiguous(), runs.count() <= 1, "{rect} in {shape:?}");
                let by_index: Vec<usize> = (0..runs.len()).map(|i| runs.offset(i)).collect();
                assert_eq!(by_index, offsets, "{rect} in {shape:?}");

                let rows = if shape.len() > 1 { rect.hi[0] - rect.lo[0] } else { 0 };
                empty += usize::from(offsets.is_empty());
                single_row += usize::from(rows == 1 && runs.count() == 1);
                coalesced += usize::from(rows > 1 && runs.count() == 1);
                strided += usize::from(runs.count() > 1);
                deep += usize::from(shape.len() == 3 && runs.count() > rows as usize && rows > 1);
            }
        }
        for class in [empty, single_row, coalesced, strided, deep] {
            assert!(class > 0, "{:?}", (empty, single_row, coalesced, strided, deep));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn runs_of_an_out_of_bounds_rect_panic() {
        let _ = Rect::new(vec![2], vec![6]).runs_in(&[4]);
    }

    #[test]
    #[should_panic(expected = "rank must match")]
    fn runs_of_a_rank_mismatched_rect_panic() {
        let _ = Rect::new(vec![0], vec![1]).runs_in(&[4, 4]);
    }
}
