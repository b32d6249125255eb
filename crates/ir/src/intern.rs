//! Hash-consed interning of partitions and store shapes.
//!
//! The fusion analysis compares partitions constantly (the scale-free alias
//! check) and the memoization layer hashes whole windows of them. Carrying
//! owned [`Partition`] values through every [`crate::StoreArg`] made those
//! comparisons structural walks and every task clone a round of heap
//! allocations. Interning replaces the owned values with small `Copy` ids:
//!
//! * [`PartitionId`] — a hash-consed [`Partition`]. Two ids are equal **iff**
//!   the partitions are structurally equal, so the fusion constraints' alias
//!   check is a register compare. The id dereferences to the interned
//!   partition for the operations that need the structure: the closed forms
//!   (`bounds_over`, `covers`, `tile_class_starts`) and the few scale-aware
//!   ones — per-point `sub_store_bounds` and the enumerating fallbacks of
//!   `covers` and `bounds_over` documented in [`crate::partition`].
//! * [`ShapeId`] — an interned store shape (`[u64]`). Stamped onto task
//!   arguments by the Diffuse context so the analysis (canonicalization,
//!   temporary-store elimination) never needs a side `StoreId -> shape` map.
//!
//! Interned values are leaked into the process (the interner is append-only;
//! handed-out ids and `&'static` references must stay valid forever). The
//! footprint is bounded by the number of *distinct* partition/shape
//! structures, which is independent of iteration count — but note it is
//! data-dependent: a service that keeps creating stores of brand-new sizes
//! interns one entry per distinct size. If that ever matters, the fix is an
//! epoch/generation scheme, not per-entry eviction (see ROADMAP).
//!
//! # Example
//!
//! ```
//! use ir::{Partition, PartitionId};
//!
//! let a = PartitionId::intern(&Partition::block(vec![8]));
//! let b: PartitionId = Partition::block(vec![8]).into();
//! assert_eq!(a, b, "structural equality is id equality");
//! assert!(!a.may_alias_across_points(), "ids deref to the partition");
//! ```

use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock};

use crate::fingerprint::FnvHashMap;
use crate::partition::Partition;

/// Append-only interner state: dedup map plus id-indexed storage. The map
/// hashes with [`crate::fingerprint::FnvHasher`]: its keys are partitions
/// and shapes the program built.
///
/// Every lock site recovers a poisoned lock: a writer checks everything that
/// can fail before it pushes, and pushes an item and its map entry with
/// nothing that can panic in between, so a thread that panicked while holding
/// the lock left the state consistent.
struct Interner<T: ?Sized + 'static> {
    map: FnvHashMap<&'static T, u32>,
    items: Vec<&'static T>,
}

impl<T: ?Sized + 'static> Interner<T> {
    fn new() -> Self {
        Interner {
            map: FnvHashMap::default(),
            items: Vec::new(),
        }
    }
}

fn partitions() -> &'static RwLock<Interner<Partition>> {
    static CELL: OnceLock<RwLock<Interner<Partition>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(Interner::new()))
}

fn shapes() -> &'static RwLock<Interner<[u64]>> {
    static CELL: OnceLock<RwLock<Interner<[u64]>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(Interner::new()))
}

/// A hash-consed [`Partition`]: a small `Copy` id whose equality coincides
/// with structural partition equality (the constant-time alias check of
/// Section 4). Dereferences to the interned partition.
///
/// # Example
///
/// ```
/// use ir::{Partition, PartitionId};
///
/// let block = PartitionId::intern(&Partition::block(vec![4]));
/// assert_eq!(block, Partition::block(vec![4]));
/// assert_ne!(block, PartitionId::intern(&Partition::Replicate));
/// assert_eq!(block.sub_store_bounds(&[8], &[1]).volume(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(u32);

impl PartitionId {
    /// Interns a partition, returning its id. Interning the same structure
    /// twice returns the same id.
    pub fn intern(partition: &Partition) -> PartitionId {
        let lock = partitions();
        if let Some(&id) = lock.read().unwrap_or_else(PoisonError::into_inner).map.get(partition) {
            return PartitionId(id);
        }
        let mut w = lock.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = w.map.get(partition) {
            return PartitionId(id);
        }
        let leaked: &'static Partition = Box::leak(Box::new(partition.clone()));
        let id = u32::try_from(w.items.len()).expect("partition interner overflow");
        w.items.push(leaked);
        w.map.insert(leaked, id);
        PartitionId(id)
    }

    /// The interned partition.
    pub fn get(self) -> &'static Partition {
        partitions().read().unwrap_or_else(PoisonError::into_inner).items[self.0 as usize]
    }

    /// The raw interner index (stable for the lifetime of the process; used
    /// by fingerprinting).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl Deref for PartitionId {
    type Target = Partition;

    fn deref(&self) -> &Partition {
        self.get()
    }
}

impl From<Partition> for PartitionId {
    fn from(p: Partition) -> PartitionId {
        PartitionId::intern(&p)
    }
}

impl From<&Partition> for PartitionId {
    fn from(p: &Partition) -> PartitionId {
        PartitionId::intern(p)
    }
}

impl PartialEq<Partition> for PartitionId {
    fn eq(&self, other: &Partition) -> bool {
        self.get() == other
    }
}

impl PartialEq<PartitionId> for Partition {
    fn eq(&self, other: &PartitionId) -> bool {
        self == other.get()
    }
}

impl std::fmt::Display for PartitionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// An interned store shape: a small `Copy` id standing for a `[u64]` of
/// per-dimension extents. [`ShapeId::UNKNOWN`] marks an argument whose shape
/// has not been stamped yet (the Diffuse context stamps shapes at submit
/// time); dereferencing it panics.
///
/// # Example
///
/// ```
/// use ir::ShapeId;
///
/// let s = ShapeId::intern(&[4, 8]);
/// assert_eq!(&*s, &[4, 8]);
/// assert_eq!(s, ShapeId::intern(&[4, 8]));
/// assert!(ShapeId::UNKNOWN.is_unknown());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(u32);

impl ShapeId {
    /// The not-yet-stamped sentinel. Equal only to itself; dereferencing
    /// panics.
    pub const UNKNOWN: ShapeId = ShapeId(u32::MAX);

    /// Interns a shape, returning its id. Only clones the slice on first
    /// interning.
    pub fn intern(shape: &[u64]) -> ShapeId {
        let lock = shapes();
        if let Some(&id) = lock.read().unwrap_or_else(PoisonError::into_inner).map.get(shape) {
            return ShapeId(id);
        }
        let mut w = lock.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = w.map.get(shape) {
            return ShapeId(id);
        }
        let leaked: &'static [u64] = Box::leak(shape.to_vec().into_boxed_slice());
        let id = u32::try_from(w.items.len()).expect("shape interner overflow");
        assert_ne!(id, u32::MAX, "shape interner overflow");
        w.items.push(leaked);
        w.map.insert(leaked, id);
        ShapeId(id)
    }

    /// The interned shape.
    ///
    /// # Panics
    ///
    /// Panics on [`ShapeId::UNKNOWN`] (an argument whose shape was never
    /// stamped).
    pub fn get(self) -> &'static [u64] {
        assert!(
            !self.is_unknown(),
            "store shape was never stamped (ShapeId::UNKNOWN)"
        );
        shapes().read().unwrap_or_else(PoisonError::into_inner).items[self.0 as usize]
    }

    /// The interned shape as a slice (alias of [`ShapeId::get`]).
    pub fn as_slice(self) -> &'static [u64] {
        self.get()
    }

    /// Whether this is the not-yet-stamped sentinel.
    pub fn is_unknown(self) -> bool {
        self.0 == u32::MAX
    }

    /// The raw interner index (used by fingerprinting).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl Deref for ShapeId {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.get()
    }
}

impl From<Vec<u64>> for ShapeId {
    fn from(shape: Vec<u64>) -> ShapeId {
        ShapeId::intern(&shape)
    }
}

impl From<&[u64]> for ShapeId {
    fn from(shape: &[u64]) -> ShapeId {
        ShapeId::intern(shape)
    }
}

impl std::fmt::Display for ShapeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unknown() {
            write!(f, "shape(?)")
        } else {
            write!(f, "shape{:?}", self.get())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Projection;

    #[test]
    fn partition_interning_dedups() {
        let a = PartitionId::intern(&Partition::block(vec![2, 2]));
        let b = PartitionId::from(Partition::block(vec![2, 2]));
        let c = PartitionId::intern(&Partition::tiling(
            vec![2, 2],
            vec![0, 1],
            Projection::Identity,
        ));
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_ne!(a, c);
        assert_eq!(a, Partition::block(vec![2, 2]));
        assert_eq!(Partition::block(vec![2, 2]), a);
        assert_ne!(a, Partition::Replicate);
    }

    #[test]
    fn partition_id_derefs_to_structure() {
        let p = PartitionId::intern(&Partition::Replicate);
        assert!(p.is_replicate());
        assert!(p.may_alias_across_points());
        assert_eq!(p.to_string(), "Replicate");
    }

    #[test]
    fn shape_interning_dedups_and_derefs() {
        let a = ShapeId::intern(&[16]);
        let b: ShapeId = vec![16u64].into();
        assert_eq!(a, b);
        assert_eq!(a.as_slice(), &[16]);
        assert_eq!(a.iter().product::<u64>(), 16);
        assert_ne!(a, ShapeId::intern(&[64]));
        assert!(a.to_string().contains("16"));
    }

    #[test]
    fn unknown_shape_is_distinct() {
        assert!(ShapeId::UNKNOWN.is_unknown());
        assert_ne!(ShapeId::UNKNOWN, ShapeId::intern(&[1]));
        assert_eq!(ShapeId::UNKNOWN.to_string(), "shape(?)");
    }

    #[test]
    #[should_panic]
    fn unknown_shape_deref_panics() {
        let _ = ShapeId::UNKNOWN.get();
    }

    #[test]
    fn a_poisoned_interner_still_interns() {
        // A thread that panics while holding an interner's write lock
        // poisons it for the whole process; interning must go on regardless.
        let poisoned = std::thread::spawn(|| {
            let _partitions = partitions().write().unwrap_or_else(PoisonError::into_inner);
            let _shapes = shapes().write().unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning both interners on purpose");
        });
        assert!(poisoned.join().is_err());
        assert!(partitions().is_poisoned() && shapes().is_poisoned());
        let tiling = Partition::block(vec![3, 5, 7]);
        let p = PartitionId::intern(&tiling);
        assert_eq!(p, PartitionId::intern(&tiling));
        assert_eq!(p.get(), &tiling);
        let s = ShapeId::intern(&[3, 5, 7]);
        assert_eq!(s, ShapeId::intern(&[3, 5, 7]));
        assert_eq!(s.get(), &[3, 5, 7]);
    }
}
