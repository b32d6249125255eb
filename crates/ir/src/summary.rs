//! Affine access summaries: the shared vocabulary of the static footprint
//! analysis (`kernel::analyze`) and the dependence classifier
//! (`fusion::classify`).
//!
//! A summary describes, per buffer and access kind, *which elements* a kernel
//! touches as a function of the loop induction variable `i`: a small set of
//! affine forms `a·i + b`, or ⊤ when the access pattern is unknown (opaque
//! stages, or more distinct forms than the set bound). The lattice is
//!
//! ```text
//!        ⊤  (Top — may touch any element)
//!        |
//!   Affine { a·i + b, ... }   (exactly these forms, joined set-wise)
//!        |
//!        ⊥  (Bottom — no access)
//! ```
//!
//! Soundness contract: a summary for an access kind must **over-approximate**
//! every element the kernel can dynamically touch with that kind. `⊥` means
//! provably no access; `Affine` means exactly the listed forms; `⊤` promises
//! nothing. The soundness proptests (`crates/kernel/tests/
//! analyze_soundness.rs`) check inferred ⊇ observed on random modules.
//!
//! These types live in `ir` (not `kernel`) so that `fusion` — which depends
//! only on `ir` — can consume exactness information without a kernel
//! dependency, and so summaries can be fingerprinted next to the other
//! interned analysis keys.

use crate::fingerprint::{fold_u64, OFFSET};

/// An affine index expression `stride·i + offset` over a loop induction
/// variable `i`.
///
/// # Example
///
/// ```
/// use ir::AffineForm;
///
/// let elementwise = AffineForm::IDENTITY; // buffer[i]
/// assert_eq!(elementwise.eval(3), 3);
/// let broadcast = AffineForm::ELEMENT0;   // buffer[0]
/// assert_eq!(broadcast.eval(3), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AffineForm {
    /// Coefficient of the induction variable.
    pub stride: i64,
    /// Constant offset.
    pub offset: i64,
}

impl AffineForm {
    /// The identity access `buffer[i]` (elementwise loads/stores).
    pub const IDENTITY: AffineForm = AffineForm { stride: 1, offset: 0 };
    /// The broadcast access `buffer[0]` (scalar loads, reduction cells).
    pub const ELEMENT0: AffineForm = AffineForm { stride: 0, offset: 0 };

    /// Creates the form `stride·i + offset`.
    pub fn new(stride: i64, offset: i64) -> Self {
        AffineForm { stride, offset }
    }

    /// Evaluates the form at induction value `i`.
    pub fn eval(self, i: i64) -> i64 {
        self.stride * i + self.offset
    }

    /// Whether the form touches a single fixed element regardless of `i`.
    pub fn is_constant(self) -> bool {
        self.stride == 0
    }
}

impl std::fmt::Display for AffineForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.stride, self.offset) {
            (0, b) => write!(f, "{b}"),
            (1, 0) => write!(f, "i"),
            (a, 0) => write!(f, "{a}*i"),
            (1, b) => write!(f, "i{b:+}"),
            (a, b) => write!(f, "{a}*i{b:+}"),
        }
    }
}

/// Maximum number of distinct affine forms tracked before a pattern widens
/// to [`AccessPattern::Top`]. Real kernels in this IR touch each buffer
/// through one or two forms; the bound only guards pathological inputs.
pub const MAX_AFFINE_FORMS: usize = 8;

/// The access-summary lattice value for one (buffer, access kind) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum AccessPattern {
    /// Provably no access of this kind.
    #[default]
    Bottom,
    /// Exactly these affine forms over the induction variable (sorted,
    /// deduplicated, at most [`MAX_AFFINE_FORMS`]).
    Affine(Vec<AffineForm>),
    /// Unknown: may touch any element (opaque stages, widened sets).
    Top,
}

impl AccessPattern {
    /// Provably no access.
    pub fn is_bottom(&self) -> bool {
        matches!(self, AccessPattern::Bottom)
    }

    /// Exact: the listed affine forms cover every dynamic access.
    pub fn is_exact(&self) -> bool {
        matches!(self, AccessPattern::Affine(_))
    }

    /// Unknown access pattern.
    pub fn is_top(&self) -> bool {
        matches!(self, AccessPattern::Top)
    }

    /// Whether the pattern admits any access at all (`!is_bottom`).
    pub fn may_access(&self) -> bool {
        !self.is_bottom()
    }

    /// The affine forms, when exact.
    pub fn forms(&self) -> Option<&[AffineForm]> {
        match self {
            AccessPattern::Affine(forms) => Some(forms),
            _ => None,
        }
    }

    /// Joins a single affine form into the pattern (lattice join with
    /// `Affine{form}`), widening to ⊤ past [`MAX_AFFINE_FORMS`].
    pub fn join_form(&mut self, form: AffineForm) {
        match self {
            AccessPattern::Top => {}
            AccessPattern::Bottom => *self = AccessPattern::Affine(vec![form]),
            AccessPattern::Affine(forms) => {
                if let Err(pos) = forms.binary_search(&form) {
                    if forms.len() >= MAX_AFFINE_FORMS {
                        *self = AccessPattern::Top;
                    } else {
                        forms.insert(pos, form);
                    }
                }
            }
        }
    }

    /// Lattice join: the least pattern over-approximating both operands.
    pub fn join(&self, other: &AccessPattern) -> AccessPattern {
        match (self, other) {
            (AccessPattern::Top, _) | (_, AccessPattern::Top) => AccessPattern::Top,
            (AccessPattern::Bottom, p) | (p, AccessPattern::Bottom) => p.clone(),
            (AccessPattern::Affine(a), AccessPattern::Affine(b)) => {
                let mut out = self.clone();
                let _ = a; // `out` starts as a clone of the `Affine(a)` side.
                for &f in b {
                    out.join_form(f);
                }
                out
            }
        }
    }

    /// Whether every access admitted by this pattern is also admitted by
    /// `other` (the lattice partial order `self ⊑ other`).
    pub fn covered_by(&self, other: &AccessPattern) -> bool {
        match (self, other) {
            (AccessPattern::Bottom, _) | (_, AccessPattern::Top) => true,
            (_, AccessPattern::Bottom) | (AccessPattern::Top, _) => false,
            (AccessPattern::Affine(a), AccessPattern::Affine(b)) => {
                a.iter().all(|f| b.contains(f))
            }
        }
    }

    /// Folds the pattern into an FNV-1a fingerprint accumulator.
    fn fingerprint_into(&self, h: &mut u64) {
        let mix = |h: &mut u64, v: u64| *h = fold_u64(*h, v);
        match self {
            AccessPattern::Bottom => mix(h, 0x0b07),
            AccessPattern::Top => mix(h, 0x707),
            AccessPattern::Affine(forms) => {
                mix(h, 0xaff1);
                for f in forms {
                    mix(h, f.stride as u64);
                    mix(h, f.offset as u64);
                }
            }
        }
    }
}

impl std::fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPattern::Bottom => write!(f, "⊥"),
            AccessPattern::Top => write!(f, "⊤"),
            AccessPattern::Affine(forms) => {
                write!(f, "{{")?;
                for (i, form) in forms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{form}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// The inferred footprint of one buffer: an [`AccessPattern`] per access
/// kind. A buffer the kernel never names is all-⊥.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BufferFootprint {
    /// Elements loaded (plain and scalar loads).
    pub reads: AccessPattern,
    /// Elements stored.
    pub writes: AccessPattern,
    /// Elements folded into with a reduction operator.
    pub reduces: AccessPattern,
}

impl BufferFootprint {
    /// Lattice join of two footprints, access kind by access kind.
    pub fn join(&self, other: &BufferFootprint) -> BufferFootprint {
        BufferFootprint {
            reads: self.reads.join(&other.reads),
            writes: self.writes.join(&other.writes),
            reduces: self.reduces.join(&other.reduces),
        }
    }

    /// Whether the kernel provably never mutates the buffer (no store and no
    /// reduction admitted) — the condition under which a declared write or
    /// reduce privilege can be tightened to read-only.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_bottom() && self.reduces.is_bottom()
    }

    /// Whether the footprint is everywhere exact or bottom (no ⊤ component).
    pub fn is_exact(&self) -> bool {
        !self.reads.is_top() && !self.writes.is_top() && !self.reduces.is_top()
    }
}

/// Deterministic FNV-1a fingerprint of a sequence of buffer footprints —
/// the memoization key component under which a module's analysis result is
/// cached (the same summary always hashes identically, across processes).
///
/// # Example
///
/// ```
/// use ir::{summary_fingerprint, AccessPattern, AffineForm, BufferFootprint};
///
/// let mut fp = BufferFootprint::default();
/// fp.reads.join_form(AffineForm::IDENTITY);
/// let a = summary_fingerprint(&[fp.clone()]);
/// assert_eq!(a, summary_fingerprint(&[fp.clone()]));
/// fp.writes = AccessPattern::Top;
/// assert_ne!(a, summary_fingerprint(&[fp]));
/// ```
pub fn summary_fingerprint(buffers: &[BufferFootprint]) -> u64 {
    let mut h = OFFSET;
    for fp in buffers {
        fp.reads.fingerprint_into(&mut h);
        fp.writes.fingerprint_into(&mut h);
        fp.reduces.fingerprint_into(&mut h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_form_builds_sorted_sets() {
        let mut p = AccessPattern::Bottom;
        p.join_form(AffineForm::IDENTITY);
        p.join_form(AffineForm::ELEMENT0);
        p.join_form(AffineForm::IDENTITY); // duplicate: no-op
        assert_eq!(
            p.forms().unwrap(),
            &[AffineForm::ELEMENT0, AffineForm::IDENTITY]
        );
    }

    #[test]
    fn join_widens_past_the_form_bound() {
        let mut p = AccessPattern::Bottom;
        for k in 0..=MAX_AFFINE_FORMS as i64 {
            p.join_form(AffineForm::new(1, k));
        }
        assert!(p.is_top());
    }

    #[test]
    fn join_is_an_upper_bound() {
        let mut a = AccessPattern::Bottom;
        a.join_form(AffineForm::IDENTITY);
        let mut b = AccessPattern::Bottom;
        b.join_form(AffineForm::ELEMENT0);
        let j = a.join(&b);
        assert!(a.covered_by(&j));
        assert!(b.covered_by(&j));
        assert!(AccessPattern::Bottom.covered_by(&a));
        assert!(a.covered_by(&AccessPattern::Top));
        assert!(!AccessPattern::Top.covered_by(&a));
    }

    #[test]
    fn footprint_read_only_predicate() {
        let mut fp = BufferFootprint::default();
        fp.reads.join_form(AffineForm::IDENTITY);
        assert!(fp.is_read_only());
        fp.writes.join_form(AffineForm::IDENTITY);
        assert!(!fp.is_read_only());
    }

    #[test]
    fn fingerprint_distinguishes_access_kinds() {
        let mut read = BufferFootprint::default();
        read.reads.join_form(AffineForm::IDENTITY);
        let mut write = BufferFootprint::default();
        write.writes.join_form(AffineForm::IDENTITY);
        assert_ne!(summary_fingerprint(&[read]), summary_fingerprint(&[write]));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AffineForm::IDENTITY.to_string(), "i");
        assert_eq!(AffineForm::ELEMENT0.to_string(), "0");
        assert_eq!(AffineForm::new(2, -1).to_string(), "2*i-1");
        assert_eq!(AccessPattern::Top.to_string(), "⊤");
        assert_eq!(AccessPattern::Bottom.to_string(), "⊥");
    }
}
