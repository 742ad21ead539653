//! Typed errors for the HBL bound machinery.

use std::fmt;

/// Everything that can go wrong between a kernel file and its bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HblError {
    /// Exact-rational arithmetic left the `i64` component range. The
    /// solver refuses to wrap or round: a bound derived from silently
    /// saturated arithmetic would be worthless.
    Overflow {
        /// The operation that overflowed (`"add"`, `"mul"`, ...).
        op: &'static str,
    },
    /// Division by zero or another arithmetic impossibility.
    Arithmetic(String),
    /// Kernel text rejected, with the 1-based source line.
    Parse {
        /// 1-based line number in the kernel file (0 = whole file).
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The loop nest reuses data along a direction invisible to every
    /// array: `∩_j ker φ_j ≠ {0}`, so unboundedly many iterations touch
    /// the same operands and no finite `M`-dependent bound exists.
    UnboundedReuse {
        /// A direction in the common kernel, rendered over loop indices.
        direction: String,
    },
    /// The subspace-lattice closure exceeded its cap (pathological
    /// kernel; the shipped examples stay far below it).
    LatticeTooLarge(usize),
    /// The linear program has no feasible point.
    Infeasible(String),
    /// The linear program is unbounded below (cannot happen for the
    /// HBL LP, whose variables live in `[0, 1]`).
    Unbounded(String),
    /// The kernel opted into a special (non-HBL) bound; the LP does not
    /// apply to it.
    SpecialBound(String),
}

impl fmt::Display for HblError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HblError::Overflow { op } => {
                write!(f, "rational overflow in `{op}` (result outside i64 range)")
            }
            HblError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            HblError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            HblError::UnboundedReuse { direction } => write!(
                f,
                "no finite HBL bound: direction {direction} is invisible to every \
                 array reference (unbounded reuse)"
            ),
            HblError::LatticeTooLarge(cap) => {
                write!(f, "subspace lattice exceeded {cap} members")
            }
            HblError::Infeasible(msg) => write!(f, "LP infeasible: {msg}"),
            HblError::Unbounded(msg) => write!(f, "LP unbounded: {msg}"),
            HblError::SpecialBound(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for HblError {}
