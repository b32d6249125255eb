//! First-class, structured partitions of stores.
//!
//! Partitions map points of a launch domain to sub-stores (Figure 3). The two
//! kinds from the paper are implemented: replication (`None` in the paper,
//! [`Partition::Replicate`] here to avoid clashing with `Option::None`) and
//! affine tilings with projection functions. The critical property is that two
//! partitions can be compared for equality (the conservative alias check used
//! by the fusion constraints) in constant time, without enumerating
//! sub-stores.
//!
//! The same holds for the geometry of a partition over a launch domain, which
//! only this module derives, in closed form for every tiling the libraries
//! build: the *bounding box* ([`Partition::bounds_over`], O(rank) whatever
//! the number of launch points), Definition 4's [`Partition::covers`] under
//! an injective projection, and the *tile classes* on which every sub-store
//! has the same shape ([`tile_class_starts`], what the runtime prices a launch
//! by). Two operations still walk the launch domain, both in here: `covers`
//! under an aliasing projection, and the bounding box under a `SelectDims`
//! that repeats a dimension. No library writes through either.

use crate::domain::{Domain, Point, Rect};

/// A projection function applied to a launch-domain point before the tile
/// bounds are computed (Figure 3d–3e).
///
/// Projections are represented structurally so that equality is syntactic and
/// constant-time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Projection {
    /// The identity projection.
    Identity,
    /// Keep only the listed dimensions of the point, in order. For example
    /// `SelectDims([0])` maps `(i, j)` to `(i,)`, producing a partition of a
    /// vector that is aliased along the second launch-domain dimension.
    SelectDims(Vec<usize>),
    /// Map every point to a fixed point (full aliasing).
    Constant(Point),
    /// Pad the point with trailing zeros up to `rank` dimensions, e.g. mapping
    /// `(g,)` to `(g, 0)`. Used to tile a 2-D store by row blocks over a 1-D
    /// launch domain. This projection is injective, so the resulting tiling is
    /// still disjoint across points.
    PadZeros {
        /// Target rank of the projected point.
        rank: usize,
    },
}

impl Projection {
    /// Applies the projection to a point.
    ///
    /// # Panics
    ///
    /// Panics if `SelectDims` names a dimension the point lacks, or if the
    /// point is longer than a `PadZeros` rank (truncating it would alias
    /// distinct points behind [`Projection::is_injective`]'s back).
    pub fn apply(&self, point: &[i64]) -> Point {
        match self {
            Projection::Identity => point.to_vec(),
            Projection::SelectDims(dims) => dims.iter().map(|&d| point[d]).collect(),
            Projection::Constant(p) => p.clone(),
            Projection::PadZeros { rank } => {
                assert!(
                    point.len() <= *rank,
                    "PadZeros rank must be at least the point rank"
                );
                let mut p = point.to_vec();
                p.resize(*rank, 0);
                p
            }
        }
    }

    /// The rank of the projected point given an input of rank `input_rank`.
    pub fn output_rank(&self, input_rank: usize) -> usize {
        match self {
            Projection::Identity => input_rank,
            Projection::SelectDims(dims) => dims.len(),
            Projection::Constant(p) => p.len(),
            Projection::PadZeros { rank } => *rank,
        }
    }

    /// Whether the projection is injective (distinct points map to distinct
    /// projected points). Injective projections keep tilings disjoint across
    /// launch-domain points.
    pub fn is_injective(&self) -> bool {
        matches!(self, Projection::Identity | Projection::PadZeros { .. })
    }
}

/// A partition of a store: a scale-free mapping from launch-domain points to
/// sub-stores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Partition {
    /// Every point maps to the entire store (the paper's `None` partition).
    Replicate,
    /// An affine tiling: point `p` maps to the rectangle
    /// `[proj(p) * tile, proj(p + 1) * tile) + offset`, clamped to the store
    /// bounds (Figure 3e).
    Tiling {
        /// Shape of each tile.
        tile: Vec<u64>,
        /// Offset of the tiling from the store origin.
        offset: Vec<i64>,
        /// Projection applied to launch-domain points.
        proj: Projection,
    },
}

impl Partition {
    /// Convenience constructor for a tiling partition.
    pub fn tiling(tile: Vec<u64>, offset: Vec<i64>, proj: Projection) -> Self {
        assert_eq!(
            tile.len(),
            offset.len(),
            "tile shape and offset must have the same rank"
        );
        Partition::Tiling { tile, offset, proj }
    }

    /// An identity-projection tiling with zero offset: the standard block
    /// decomposition used by the dense library.
    pub fn block(tile: Vec<u64>) -> Self {
        let offset = vec![0; tile.len()];
        Partition::tiling(tile, offset, Projection::Identity)
    }

    /// Whether this is the replicated partition.
    pub fn is_replicate(&self) -> bool {
        matches!(self, Partition::Replicate)
    }

    /// Whether two *different* launch-domain points may map to overlapping
    /// sub-stores. Replication and tilings with non-identity projection
    /// functions alias across points; identity tilings are disjoint.
    ///
    /// The fusion constraints use this: a write through a partition that
    /// aliases across points can never be part of a point-wise dependence with
    /// a later access, even through the identical partition.
    pub fn may_alias_across_points(&self) -> bool {
        match self {
            Partition::Replicate => true,
            Partition::Tiling { proj, .. } => !proj.is_injective(),
        }
    }

    /// Computes the sub-store bounds for launch-domain point `point` of a
    /// store with shape `store_shape` (Figure 3e). The result is clamped to
    /// the store bounds and may be empty for points that fall outside the
    /// store.
    pub fn sub_store_bounds(&self, store_shape: &[u64], point: &[i64]) -> Rect {
        let store_rect = Rect::new(
            vec![0; store_shape.len()],
            store_shape.iter().map(|&s| s as i64).collect(),
        );
        match self {
            Partition::Replicate => store_rect,
            Partition::Tiling { tile, offset, proj } => {
                let p = proj.apply(point);
                assert_eq!(
                    p.len(),
                    tile.len(),
                    "projected point rank must match tile rank"
                );
                let bound = |step: i64| -> Vec<i64> {
                    let tiles = p.iter().zip(tile).zip(offset);
                    tiles.map(|((&pi, &ti), &oi)| (pi + step) * ti as i64 + oi).collect()
                };
                Rect::new(bound(0), bound(1)).intersect(&store_rect)
            }
        }
    }

    /// The bounding box of the non-empty sub-stores over a whole launch
    /// domain — what a (store, partition) argument touches: the length of the
    /// buffer a kernel sees, the rectangle the runtime copies. `Rect::empty`
    /// when no point maps to a non-empty sub-store. O(rank), not O(points),
    /// unless a `SelectDims` repeats a dimension.
    ///
    /// # Panics
    ///
    /// Panics on the rank mismatches [`Partition::sub_store_bounds`] rejects,
    /// unless the launch domain is empty.
    pub fn bounds_over(&self, store_shape: &[u64], launch_domain: &Domain) -> Rect {
        let rank = store_shape.len();
        if launch_domain.is_empty() {
            return Rect::empty(rank);
        }
        // Ranks do not depend on the point, so the first point's sub-store
        // runs every check a walk over the domain would.
        let first: Point = vec![0; launch_domain.dims()];
        let at_first = self.sub_store_bounds(store_shape, &first);
        let hull = match self {
            Partition::Replicate => at_first,
            // Repeating a dimension ties projected coordinates together: the
            // projected points are not a box, so walk them.
            Partition::Tiling { proj: Projection::SelectDims(dims), .. }
                if (1..dims.len()).any(|i| dims[..i].contains(&dims[i])) =>
            {
                launch_domain
                    .points()
                    .map(|p| self.sub_store_bounds(store_shape, &p))
                    .filter(|r| !r.is_empty())
                    .reduce(|a, b| Rect {
                        lo: a.lo.iter().zip(&b.lo).map(|(&x, &y)| x.min(y)).collect(),
                        hi: a.hi.iter().zip(&b.hi).map(|(&x, &y)| x.max(y)).collect(),
                    })
                    .unwrap_or_else(|| Rect::empty(rank))
            }
            // Otherwise they are the whole box between the projected corners.
            // Per dimension, tile `p` is `[p*t + o, (p+1)*t + o)` and meets
            // `[0, s)` iff `(p+1)*t + o > 0` and `p*t + o < s`: one interval
            // of indices, whose ends give the hull because tile bounds grow
            // with `p`. An empty interval leaves `hi <= lo`.
            Partition::Tiling { tile, offset, proj } => {
                let last: Point = launch_domain.shape().iter().map(|&n| n as i64 - 1).collect();
                let (lo, hi) = proj
                    .apply(&first)
                    .iter()
                    .zip(&proj.apply(&last))
                    .zip(tile.iter().zip(offset).zip(store_shape))
                    .map(|((&p_lo, &p_hi), ((&t, &o), &s))| {
                        let (t, s) = (t as i64, s as i64);
                        let (p_lo, p_hi) = if t > 0 {
                            (p_lo.max((-o).div_euclid(t)), p_hi.min((s - o - 1).div_euclid(t)))
                        } else {
                            (0, -1)
                        };
                        ((p_lo * t + o).max(0), ((p_hi + 1) * t + o).min(s))
                    })
                    .unzip();
                Rect { lo, hi }
            }
        };
        if hull.is_empty() { Rect::empty(rank) } else { hull }
    }

    /// Whether the partition covers every element of a store with shape
    /// `store_shape` when launched over `launch_domain` — the `covers`
    /// predicate used by temporary-store elimination (Definition 4). A store
    /// too large to count (its volume overflows `u64`) is never claimed
    /// covered.
    ///
    /// Under an injective projection distinct points get disjoint tiles, so
    /// they cover the store iff their bounding box is the store: O(rank),
    /// whatever the number of launch points. An aliasing projection
    /// (`SelectDims`, `Constant`) walks the launch domain and answers `false`
    /// as soon as two tiles overlap — a conservative answer no library write
    /// reaches.
    pub fn covers(&self, store_shape: &[u64], launch_domain: &Domain) -> bool {
        if self.is_replicate() {
            return true;
        }
        let Some(total) = store_shape.iter().try_fold(1u64, |v, &d| v.checked_mul(d)) else {
            return false;
        };
        if !self.may_alias_across_points() {
            return self.bounds_over(store_shape, launch_domain).volume() == total;
        }
        let mut covered: u64 = 0;
        let mut rects: Vec<Rect> = Vec::new();
        for p in launch_domain.points() {
            let r = self.sub_store_bounds(store_shape, &p);
            if rects.iter().any(|prev| prev.overlaps(&r)) {
                return false;
            }
            covered += r.volume();
            rects.push(r);
        }
        covered == total
    }
}

/// Splits a launch domain into *tile classes*: boxes of launch points on
/// which every listed argument's sub-store has the same shape (so the same
/// volume and buffer length). Returns, per launch dimension, the sorted
/// coordinates at which a run of that dimension starts: `0`, then every
/// coordinate at which some argument's clamped tile extent can change. A
/// class is one run per dimension; its first point in row-major order is
/// the tuple of its runs' starts. An empty dimension has no runs, and an
/// empty domain no classes.
///
/// Per (argument, store dimension) a tiling with tile `t > 0`, offset `o`
/// and store extent `s` has at most four breaks in the projected coordinate
/// `k`: tiles below `k0 = ⌊−o/t⌋` miss the store, `k0` is clipped at 0,
/// `k1 = ⌊(s−1−o)/t⌋` at `s`, and tiles above `k1` miss it; between, the
/// extent is `t`. The projection maps each break to the launch dimension
/// that coordinate comes from. `Replicate`, `Constant`, a zero tile extent
/// and the padded dimensions of `PadZeros` add none. O(arguments × rank),
/// whatever the number of launch points.
pub fn tile_class_starts<'a>(
    args: impl IntoIterator<Item = (&'a Partition, &'a [u64])>,
    launch_domain: &Domain,
) -> Vec<Vec<u64>> {
    let shape = launch_domain.shape();
    let mut starts: Vec<Vec<u64>> =
        shape.iter().map(|&n| if n == 0 { vec![] } else { vec![0] }).collect();
    for (part, store_shape) in args {
        let Partition::Tiling { tile, offset, proj } = part else {
            continue;
        };
        for (j, ((&t, &o), &s)) in tile.iter().zip(offset).zip(store_shape).enumerate() {
            let dim = match proj {
                Projection::Identity | Projection::PadZeros { .. } => Some(j),
                Projection::SelectDims(dims) => dims.get(j).copied(),
                Projection::Constant(_) => break,
            };
            // Padded dimensions (and ranks `sub_store_bounds` rejects) map to
            // no launch dimension.
            let Some(d) = dim.filter(|&d| d < shape.len() && t > 0) else {
                continue;
            };
            let (t, s) = (t as i64, s as i64);
            let (k0, k1) = ((-o).div_euclid(t), (s - 1 - o).div_euclid(t));
            starts[d].extend(
                [k0, k0 + 1, k1, k1 + 1]
                    .into_iter()
                    .filter(|&k| k > 0 && (k as u64) < shape[d])
                    .map(|k| k as u64),
            );
        }
    }
    for runs in &mut starts {
        runs.sort_unstable();
        runs.dedup();
    }
    starts
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partition::Replicate => write!(f, "Replicate"),
            Partition::Tiling { tile, offset, proj } => {
                write!(f, "Tiling(tile={tile:?}, offset={offset:?}, proj={proj:?})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bounding box as every caller computed it before
    /// [`Partition::bounds_over`] existed: hull of the non-empty sub-stores,
    /// one launch point at a time. Kept verbatim as the differential oracle.
    fn enumerated_bounds(part: &Partition, shape: &[u64], domain: &Domain) -> Rect {
        let mut acc: Option<Rect> = None;
        for p in domain.points() {
            let r = part.sub_store_bounds(shape, &p);
            if r.is_empty() {
                continue;
            }
            acc = Some(match acc {
                None => r,
                Some(prev) => Rect::new(
                    prev.lo.iter().zip(&r.lo).map(|(&a, &b)| a.min(b)).collect(),
                    prev.hi.iter().zip(&r.hi).map(|(&a, &b)| a.max(b)).collect(),
                ),
            });
        }
        acc.unwrap_or_else(|| Rect::empty(shape.len()))
    }

    /// Definition 4 by enumeration, the differential oracle for `covers`:
    /// sum the clamped tile volumes, refusing on the first overlap.
    fn enumerated_covers(part: &Partition, shape: &[u64], domain: &Domain) -> bool {
        match part {
            Partition::Replicate => true,
            Partition::Tiling { .. } => {
                let Some(total) = shape.iter().try_fold(1u64, |v, &d| v.checked_mul(d)) else {
                    return false;
                };
                let mut covered: u64 = 0;
                let mut rects: Vec<Rect> = Vec::new();
                for p in domain.points() {
                    let r = part.sub_store_bounds(shape, &p);
                    if rects.iter().any(|prev| prev.overlaps(&r)) {
                        return false;
                    }
                    covered += r.volume();
                    rects.push(r);
                }
                covered == total
            }
        }
    }

    /// The first point of `point`'s tile class under `starts`.
    fn class_representative(starts: &[Vec<u64>], point: &[i64]) -> Point {
        starts
            .iter()
            .zip(point)
            .map(|(runs, &c)| runs[runs.partition_point(|&x| x <= c as u64) - 1] as i64)
            .collect()
    }

    /// A store shape, a rank-consistent tiling of it and a launch domain:
    /// store ranks 1–3, all four projections (permuted and repeated
    /// `SelectDims` included), tile extents from 0 to past the store, offsets
    /// negative / non-multiple / beyond the store, domains from empty to
    /// longer than the tiling needs.
    fn tiling_cases() -> impl Strategy<Value = (Vec<u64>, Partition, Domain)> {
        // Everything is drawn at rank 3 and cut to the case's ranks. Zero
        // extents and non-zero offsets are kept to a minority of draws so
        // that non-empty footprints and covering tilings stay common.
        let v3 = |bound: u64| prop::collection::vec(0..bound, 3..4);
        let rare_zero = |draws: &[u64], max: u64| -> Vec<u64> {
            draws.iter().map(|&d| if d == 0 { 0 } else { 1 + (d - 1) % max }).collect()
        };
        (
            (1usize..4, 1usize..4, 0usize..4),
            (v3(28), v3(37), v3(50)),
            (v3(26), v3(7), v3(3)),
        )
            .prop_map(move |((rank, dims, kind), (shape, tile, offset), (extents, point, select))| {
                let offset = offset[..rank]
                    .iter()
                    .map(|&o| if o < 25 { o as i64 - 12 } else { 0 })
                    .collect();
                let (proj, dims) = match kind {
                    0 => (Projection::Identity, rank),
                    1 => (Projection::PadZeros { rank }, dims.min(rank)),
                    2 => {
                        let point = point[..rank].iter().map(|&c| c as i64 - 2).collect();
                        (Projection::Constant(point), dims)
                    }
                    _ => {
                        let select = select[..rank].iter().map(|&d| d as usize % dims).collect();
                        (Projection::SelectDims(select), dims)
                    }
                };
                (
                    rare_zero(&shape[..rank], 9),
                    Partition::tiling(rare_zero(&tile[..rank], 12), offset, proj),
                    Domain::new(rare_zero(&extents[..dims], 5)),
                )
            })
    }

    proptest! {
        // Miri interprets every launch point of the oracle; a reduced case
        // count keeps the leg inside its time budget without skipping it.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 48 } else { 4096 }))]

        #[test]
        fn closed_form_matches_enumeration((shape, part, domain) in tiling_cases()) {
            prop_assert_eq!(
                part.bounds_over(&shape, &domain),
                enumerated_bounds(&part, &shape, &domain),
                "bounds_over of {} over {} on {:?}", part, domain, shape
            );
            prop_assert_eq!(
                part.covers(&shape, &domain),
                enumerated_covers(&part, &shape, &domain),
                "covers of {} over {} on {:?}", part, domain, shape
            );
        }

        #[test]
        fn every_point_has_its_class_representatives_volume(
            (shape, part, domain) in tiling_cases()
        ) {
            let starts = tile_class_starts([(&part, &shape[..])], &domain);
            prop_assert_eq!(starts.len(), domain.dims());
            for p in domain.points() {
                let rep = class_representative(&starts, &p);
                prop_assert_eq!(
                    part.sub_store_bounds(&shape, &p).volume(),
                    part.sub_store_bounds(&shape, &rep).volume(),
                    "{} on {:?}: point {:?}, representative {:?}", part, shape, p, rep
                );
            }
        }
    }

    #[test]
    fn tile_classes_of_an_uneven_haloed_launch() {
        // 1 000 elements over 128 points in tiles of 8: tile 124 ends the
        // store and 125..=127 miss it; the break at 1 is `k0 + 1`, conservative
        // here because tile 0 starts at the store's origin. The same tiling shifted
        // by -1 clips tiles 0 and 125 and leaves 126.. empty.
        let (block, haloed) = (
            Partition::block(vec![8]),
            Partition::tiling(vec![8], vec![-1], Projection::Identity),
        );
        let domain = Domain::linear(128);
        assert_eq!(
            tile_class_starts([(&block, &[1000u64][..])], &domain),
            vec![vec![0, 1, 124, 125]]
        );
        assert_eq!(
            tile_class_starts([(&block, &[1000u64][..]), (&haloed, &[1000u64][..])], &domain),
            vec![vec![0, 1, 124, 125, 126]]
        );
        // Replicate and Constant split nothing; padded dimensions neither.
        let padded = Partition::tiling(vec![8, 3], vec![0, 0], Projection::PadZeros { rank: 2 });
        let constant = Partition::tiling(vec![8], vec![0], Projection::Constant(vec![3]));
        assert_eq!(
            tile_class_starts(
                [
                    (&Partition::Replicate, &[7u64][..]),
                    (&constant, &[1000u64][..]),
                    (&padded, &[1000u64, 3][..]),
                ],
                &domain
            ),
            vec![vec![0, 1, 124, 125]]
        );
        assert_eq!(tile_class_starts([(&block, &[1000u64][..])], &Domain::linear(0)), vec![vec![]]);
    }

    /// 2^40 launch points, as for `bounds_over` below: `covers` under an
    /// injective tiling is the bounding box's volume and the tile classes
    /// come from the breaks alone, so neither visits them.
    #[test]
    fn covers_of_a_2_pow_40_point_launch_is_closed_form() {
        let domain = Domain::new(vec![1 << 20, 1 << 20]);
        let shape = [1u64 << 24, 1 << 24];
        assert!(Partition::block(vec![16, 16]).covers(&shape, &domain));
        let shifted = Partition::tiling(vec![16, 16], vec![1, 1], Projection::Identity);
        assert!(!shifted.covers(&shape, &domain));
        let starts = tile_class_starts([(&shifted, &shape[..])], &domain);
        assert_eq!(starts, vec![vec![0, (1 << 20) - 1]; 2]);
    }

    #[test]
    fn replicate_bounds_are_the_store_or_empty() {
        let p = Partition::Replicate;
        for (shape, domain) in [
            (vec![4u64, 3], Domain::new(vec![2, 2])),
            (vec![4, 3], Domain::new(vec![0, 2])),
            (vec![0, 3], Domain::linear(2)),
        ] {
            assert_eq!(
                p.bounds_over(&shape, &domain),
                enumerated_bounds(&p, &shape, &domain)
            );
        }
        assert_eq!(
            p.bounds_over(&[4, 3], &Domain::linear(2)),
            Rect::new(vec![0, 0], vec![4, 3])
        );
    }

    /// 2^40 launch points: only answerable without walking them.
    #[test]
    fn bounds_of_a_2_pow_40_point_launch_are_closed_form() {
        let domain = Domain::new(vec![1 << 20, 1 << 20]);
        let shape = [1u64 << 24, 1 << 24];
        let block = Partition::block(vec![16, 16]);
        assert_eq!(
            block.bounds_over(&shape, &domain),
            Rect::new(vec![0, 0], vec![1 << 24, 1 << 24])
        );
        // A haloed view of the same tiling misses the first row and column.
        let shifted = Partition::tiling(vec![16, 16], vec![1, 1], Projection::Identity);
        assert_eq!(
            shifted.bounds_over(&shape, &domain),
            Rect::new(vec![1, 1], vec![1 << 24, 1 << 24])
        );
        // One row of tiles short of the store.
        let short = Domain::new(vec![(1 << 20) - 1, 1 << 20]);
        assert_eq!(
            block.bounds_over(&shape, &short),
            Rect::new(vec![0, 0], vec![(1 << 24) - 16, 1 << 24])
        );
    }

    #[test]
    #[should_panic(expected = "projected point rank must match tile rank")]
    fn bounds_over_keeps_the_rank_check() {
        let _ = Partition::block(vec![2, 2]).bounds_over(&[4, 4], &Domain::linear(2));
    }

    #[test]
    #[should_panic(expected = "PadZeros rank")]
    fn padzeros_rejects_a_point_longer_than_its_rank() {
        // (1, 0) and (1, 1) would both truncate to (1,) and alias.
        let p = Partition::tiling(vec![2], vec![0], Projection::PadZeros { rank: 1 });
        let _ = p.sub_store_bounds(&[4], &[1, 1]);
    }

    #[test]
    fn projection_apply() {
        assert_eq!(Projection::Identity.apply(&[1, 2]), vec![1, 2]);
        assert_eq!(Projection::SelectDims(vec![0]).apply(&[1, 2]), vec![1]);
        assert_eq!(Projection::SelectDims(vec![1, 0]).apply(&[1, 2]), vec![2, 1]);
        assert_eq!(Projection::Constant(vec![0]).apply(&[5, 7]), vec![0]);
        assert_eq!(Projection::Identity.output_rank(3), 3);
        assert_eq!(Projection::SelectDims(vec![0]).output_rank(2), 1);
        assert_eq!(Projection::Constant(vec![0, 0]).output_rank(1), 2);
    }

    #[test]
    fn figure3a_2x2_tiling_of_4x4_store() {
        // 2x2 tiles of a 4x4 store over a (2,2) domain.
        let p = Partition::block(vec![2, 2]);
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[0, 0]),
            Rect::new(vec![0, 0], vec![2, 2])
        );
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[1, 1]),
            Rect::new(vec![2, 2], vec![4, 4])
        );
        assert!(p.covers(&[4, 4], &Domain::new(vec![2, 2])));
    }

    #[test]
    fn figure3b_row_tiling() {
        // 1x4 tiles of a 4x4 store over a (4,1) domain.
        let p = Partition::block(vec![1, 4]);
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[2, 0]),
            Rect::new(vec![2, 0], vec![3, 4])
        );
        assert!(p.covers(&[4, 4], &Domain::new(vec![4, 1])));
    }

    #[test]
    fn figure3c_offset_tiling() {
        // 1x1 tiles offset by (1,1): sub-stores sit in the interior.
        let p = Partition::tiling(vec![1, 1], vec![1, 1], Projection::Identity);
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[0, 0]),
            Rect::new(vec![1, 1], vec![2, 2])
        );
        // Offset tilings do not cover the store.
        assert!(!p.covers(&[4, 4], &Domain::new(vec![2, 2])));
    }

    #[test]
    fn figure3d_aliased_projection_tiling() {
        // A length-4 vector tiled over a (2,2) domain with a projection that
        // drops the second dimension: points (i, 0) and (i, 1) alias.
        let p = Partition::tiling(vec![2], vec![0], Projection::SelectDims(vec![0]));
        let a = p.sub_store_bounds(&[4], &[1, 0]);
        let b = p.sub_store_bounds(&[4], &[1, 1]);
        assert_eq!(a, b);
        assert_eq!(a, Rect::new(vec![2], vec![4]));
        assert!(!p.covers(&[4], &Domain::new(vec![2, 2])));
    }

    #[test]
    fn replicate_maps_everything() {
        let p = Partition::Replicate;
        assert!(p.is_replicate());
        assert_eq!(
            p.sub_store_bounds(&[8], &[3]),
            Rect::new(vec![0], vec![8])
        );
        assert!(p.covers(&[8], &Domain::linear(4)));
    }

    #[test]
    fn out_of_store_tiles_clamp_to_empty() {
        let p = Partition::block(vec![4]);
        let r = p.sub_store_bounds(&[8], &[5]);
        assert!(r.is_empty());
    }

    #[test]
    fn covers_is_false_when_the_store_volume_overflows() {
        // 2^32 x 2^32 elements do not fit a u64 count: the two tiles do
        // cover the store, but `covers` will not claim what it cannot count.
        let shape = [1u64 << 32, 1 << 32];
        let p = Partition::block(vec![1 << 32, 1 << 31]);
        assert!(!p.covers(&shape, &Domain::new(vec![1, 2])));
        assert!(Partition::Replicate.covers(&shape, &Domain::linear(1)));
    }

    #[test]
    fn padzeros_projection_tiles_2d_by_row_blocks() {
        // A (8, 4) store tiled by 2-row blocks over a 1-D launch domain of 4.
        let p = Partition::tiling(vec![2, 4], vec![0, 0], Projection::PadZeros { rank: 2 });
        assert_eq!(
            p.sub_store_bounds(&[8, 4], &[1]),
            Rect::new(vec![2, 0], vec![4, 4])
        );
        assert_eq!(
            p.sub_store_bounds(&[8, 4], &[3]),
            Rect::new(vec![6, 0], vec![8, 4])
        );
        assert!(p.covers(&[8, 4], &Domain::linear(4)));
        assert!(!p.may_alias_across_points());
        assert!(Projection::PadZeros { rank: 2 }.is_injective());
        assert_eq!(Projection::PadZeros { rank: 2 }.apply(&[3]), vec![3, 0]);
        assert_eq!(Projection::PadZeros { rank: 2 }.output_rank(1), 2);
    }

    #[test]
    fn aliasing_across_points() {
        assert!(Partition::Replicate.may_alias_across_points());
        assert!(!Partition::block(vec![4]).may_alias_across_points());
        assert!(!Partition::tiling(vec![4], vec![1], Projection::Identity)
            .may_alias_across_points());
        assert!(Partition::tiling(vec![2], vec![0], Projection::SelectDims(vec![0]))
            .may_alias_across_points());
        assert!(Partition::tiling(vec![2], vec![0], Projection::Constant(vec![0]))
            .may_alias_across_points());
    }

    #[test]
    fn partition_equality_is_the_alias_check() {
        let a = Partition::block(vec![2, 2]);
        let b = Partition::block(vec![2, 2]);
        let c = Partition::tiling(vec![2, 2], vec![0, 1], Projection::Identity);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Partition::Replicate);
    }

    #[test]
    #[should_panic]
    fn tile_offset_rank_mismatch_panics() {
        let _ = Partition::tiling(vec![2, 2], vec![0], Projection::Identity);
    }
}
